//! First-order optimizers over a [`ParamStore`].

use crate::tape::ParamStore;

/// Interface shared by all optimizers.
pub trait Optimizer {
    /// Applies one update step using the gradients currently accumulated in
    /// `store`, then zeroes them.
    fn step(&mut self, store: &mut ParamStore);
    /// Current learning rate.
    fn learning_rate(&self) -> f64;
    /// Overrides the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore) {
        for id in 0..store.len() {
            store.sgd_step_slot(crate::tape::ParamId(id), self.lr);
        }
        store.zero_grads();
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba 2015) with bias correction.
///
/// The paper trains PDR/LWP with Adam at `lr = 1e-2`; this is the default.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    /// Step counter for bias correction.
    t: u64,
}

impl Adam {
    /// Adam with custom hyperparameters.
    pub fn new(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        Adam { lr, beta1, beta2, eps, t: 0 }
    }

    /// Adam with the paper's defaults (`lr = 1e-2`, β₁ = 0.9, β₂ = 0.999).
    pub fn with_lr(lr: f64) -> Self {
        Adam::new(lr, 0.9, 0.999, 1e-8)
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Default for Adam {
    fn default() -> Self {
        Adam::with_lr(1e-2)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for id in 0..store.len() {
            let (value, m, v, grad) = store.adam_state(crate::tape::ParamId(id));
            let (rows, cols) = value.shape();
            for r in 0..rows {
                for c in 0..cols {
                    let g = grad[(r, c)];
                    m[(r, c)] = b1 * m[(r, c)] + (1.0 - b1) * g;
                    v[(r, c)] = b2 * v[(r, c)] + (1.0 - b2) * g * g;
                    let m_hat = m[(r, c)] / bc1;
                    let v_hat = v[(r, c)] / bc2;
                    value[(r, c)] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
                }
            }
        }
        store.zero_grads();
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::tape::Tape;

    /// Minimize (w - 3)^2 and check convergence.
    fn quadratic_loss(store: &mut ParamStore, w: crate::tape::ParamId) -> f64 {
        let tape = Tape::new();
        let wv = tape.param(store, w);
        let target = tape.constant(Matrix::full(1, 1, 3.0));
        let diff = wv - target;
        let loss = (diff * diff).sum();
        let out = loss.scalar();
        loss.backward(store);
        out
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            quadratic_loss(&mut store, w);
            opt.step(&mut store);
        }
        assert!((store.value(w)[(0, 0)] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let mut opt = Adam::with_lr(0.05);
        for _ in 0..500 {
            quadratic_loss(&mut store, w);
            opt.step(&mut store);
        }
        assert!((store.value(w)[(0, 0)] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction the first Adam step has magnitude ≈ lr.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let mut opt = Adam::with_lr(0.01);
        quadratic_loss(&mut store, w);
        opt.step(&mut store);
        assert!((store.value(w)[(0, 0)].abs() - 0.01).abs() < 1e-6);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let mut opt = Sgd::new(0.1);
        quadratic_loss(&mut store, w);
        assert!(store.grad_norm() > 0.0);
        opt.step(&mut store);
        assert_eq!(store.grad_norm(), 0.0);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::default();
        assert_eq!(opt.learning_rate(), 1e-2);
        opt.set_learning_rate(1e-3);
        assert_eq!(opt.learning_rate(), 1e-3);
    }
}
