//! Weight initialization and random-sampling helpers.
//!
//! `rand` does not ship a Gaussian distribution in its core crate; rather
//! than pulling in `rand_distr`, a Box–Muller transform is implemented here
//! (the sizes involved make performance irrelevant).

use rand::Rng;

use crate::matrix::Matrix;

/// Draws one standard-normal sample via the Box–Muller transform.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // u1 ∈ (0, 1] so ln(u1) is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a normal sample with the given mean and standard deviation.
pub fn normal(rng: &mut impl Rng, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// Matrix with i.i.d. uniform entries in `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

/// Xavier/Glorot uniform initialization for a `fan_in × fan_out` weight.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let bound = (6.0 / (fan_in + fan_out) as f64).sqrt();
    uniform(fan_in, fan_out, -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.06, "mean = {mean}");
    }

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = xavier_uniform(8, 8, &mut rng);
        let bound = (6.0 / 16.0_f64).sqrt();
        assert!(w.as_slice().iter().all(|x| x.abs() <= bound));
        assert_eq!(w.shape(), (8, 8));
    }

    #[test]
    fn samples_are_finite() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            assert!(standard_normal(&mut rng).is_finite());
        }
    }
}
