//! Pure measurement arithmetic: percentiles, interval coverage and self time,
//! the peak-RSS reader, and the frame digest used by the determinism tests.

/// Nearest-rank percentile `q ∈ (0, 1]` of `samples` (unsorted; 0 when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples per window of [`per_window`]: enough for ten beyond a p99.
pub const WINDOW: usize = 1000;

/// Mean of the middle half of `samples` (unsorted): the lowest and the
/// highest quarter, each rounded down, are dropped. 0 when empty.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    if middle.is_empty() {
        0.0
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// The `q` percentile of each run of [`WINDOW`] consecutive samples (a
/// trailing partial window is dropped; fewer than two windows' worth of
/// samples give one value over all of them).
pub fn per_window(samples: &[f64], q: f64) -> Vec<f64> {
    if samples.len() < 2 * WINDOW {
        return vec![percentile(samples, q)];
    }
    samples.chunks_exact(WINDOW).map(|w| percentile(w, q)).collect()
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Whether `n` samples support reporting the `q` percentile: at least ten
/// samples must lie beyond it (so a p99 needs 1000 samples).
pub fn percentile_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// A half-open time interval `[start, end)` in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub start: f64,
    pub end: f64,
}

impl Interval {
    pub fn len(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// The union of possibly overlapping `spans` (spans from several worker
/// threads do overlap), as sorted disjoint intervals.
pub fn union_of(spans: &[Interval]) -> Vec<Interval> {
    let mut sorted: Vec<Interval> = spans.iter().copied().filter(|s| s.end > s.start).collect();
    sorted.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut out: Vec<Interval> = Vec::with_capacity(sorted.len());
    for s in sorted {
        match out.last_mut() {
            Some(last) if s.start <= last.end => last.end = last.end.max(s.end),
            _ => out.push(s),
        }
    }
    out
}

/// Length of `window` covered by `union` (sorted disjoint, from [`union_of`]).
pub fn covered_by_union(window: Interval, union: &[Interval]) -> f64 {
    let first = union.partition_point(|s| s.end <= window.start);
    union[first..]
        .iter()
        .take_while(|s| s.start < window.end)
        .map(|s| (s.end.min(window.end) - s.start.max(window.start)).max(0.0))
        .sum()
}

/// Self time of `parent`: its length minus the part covered by its
/// children, given as their union (from [`union_of`]).
pub fn self_time(parent: Interval, children: &[Interval]) -> f64 {
    parent.len() - covered_by_union(parent, children)
}

/// Peak resident set size in MiB from the `VmHWM` line of a
/// `/proc/<pid>/status` document.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// FNV-1a digest of position frames (bit patterns, in order).
#[cfg(test)]
pub fn frame_digest<'a>(frames: impl IntoIterator<Item = &'a [xr_graph::geom::Point2]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        for byte in bits.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for frame in frames {
        eat(frame.len() as u64);
        for p in frame {
            eat(p.x.to_bits());
            eat(p.y.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(1010, 0.99), 10);
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(0, 0.5));
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, -50.0]), 4.0);
        assert_eq!(interquartile_mean(&[8.0, 1.0, 2.0, 9.0]), 5.0);
        assert_eq!(interquartile_mean(&[7.0, 3.0]), 5.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn percentiles_per_window() {
        // four windows whose p99s are 1, 2, 50 and 4, plus a partial tail
        let mut xs = Vec::new();
        for peak in [1.0, 2.0, 50.0, 4.0] {
            xs.extend(std::iter::repeat_n(0.5, WINDOW - 11));
            xs.extend(std::iter::repeat_n(peak, 11));
        }
        xs.extend(std::iter::repeat_n(1e9, 10));
        assert_eq!(per_window(&xs, 0.99), vec![1.0, 2.0, 50.0, 4.0]);
        assert_eq!(interquartile_mean(&per_window(&xs, 0.99)), 3.0);
        assert_eq!(per_window(&xs, 0.5), vec![0.5; 4]);
        // short runs give the plain percentile
        let short: Vec<f64> = (1..=1500).map(f64::from).collect();
        assert_eq!(per_window(&short, 0.99), vec![1485.0]);
        assert_eq!(per_window(&short, 0.5), vec![750.0]);
    }

    #[test]
    fn self_time_subtracts_the_union_of_covered_children() {
        let iv = |start, end| Interval { start, end };
        let parent = iv(0.0, 100.0);
        let self_of = |children: &[Interval]| self_time(parent, &union_of(children));
        assert_eq!(self_of(&[]), 100.0);
        assert_eq!(self_of(&[iv(10.0, 30.0), iv(50.0, 60.0)]), 70.0);
        // overlapping children on two workers count once
        assert_eq!(self_of(&[iv(10.0, 40.0), iv(20.0, 50.0)]), 60.0);
        // children reaching outside the parent are clipped to it
        assert_eq!(self_of(&[iv(-20.0, 10.0), iv(95.0, 130.0), iv(200.0, 300.0)]), 85.0);
        // a child nested in another adds nothing
        assert_eq!(self_of(&[iv(0.0, 50.0), iv(10.0, 20.0)]), 50.0);
        assert_eq!(union_of(&[iv(5.0, 6.0), iv(0.0, 2.0), iv(1.0, 3.0)]), vec![iv(0.0, 3.0), iv(5.0, 6.0)]);
        assert_eq!(covered_by_union(iv(1.0, 5.5), &union_of(&[iv(0.0, 2.0), iv(5.0, 6.0)])), 1.5);
    }

    #[test]
    fn vm_hwm_is_read_in_mebibytes() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
        let own = peak_rss_mb().expect("this process has a VmHWM line");
        assert!(own > 0.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        use xr_graph::geom::Point2;
        let a = vec![Point2::new(1.0, 2.0), Point2::new(3.0, 4.0)];
        let b = vec![Point2::new(1.0, 2.0), Point2::new(3.0, 4.000000000000001)];
        assert_eq!(frame_digest([a.as_slice()]), frame_digest([a.as_slice()]));
        assert_ne!(frame_digest([a.as_slice()]), frame_digest([b.as_slice()]));
        assert_ne!(frame_digest([a.as_slice()]), frame_digest([a.as_slice(), a.as_slice()]));
    }
}
