//! The f32 serving kernels: dense matmul (register-tiled and packed-B), CSR
//! SpMM, and their SIMD dispatch layer.
//!
//! Training stays on the f64 [`crate::Matrix`] stack — bit-exact, taped,
//! gradcheckable. Serving does not need gradients or f64 precision, so this
//! module provides a parallel f32 substrate for the inference hot path:
//! [`MatrixF32`] / [`CsrF32`] value types plus free-function kernels that
//! never touch the tape.
//!
//! ## SIMD dispatch contract
//!
//! Every vectorized kernel ships with a scalar reference that performs the
//! *same floating-point operations in the same order* (per output element:
//! ascending-`k` accumulation, multiply then add — never FMA, whose fused
//! rounding would diverge), so the AVX2 and scalar paths are **bit-identical**
//! and lane-equality unit tests pin them against each other, including
//! remainder lanes. Dispatch happens at runtime:
//!
//! * on x86-64 with AVX2 detected, the wide-lane kernels run;
//! * `AFTER_NO_SIMD=1` forces the scalar fallback (CI exercises both);
//! * any other target silently uses the scalar path.
//!
//! Size dispatch extends the calibrated PR4 framework: products at or above
//! [`crate::Matrix::MATMUL_DISPATCH_THRESHOLD`] flops with
//! `k ≥ MATMUL_PACK_MIN_K` take the packed-B micro-kernel; everything else
//! runs the register-tiled chunked kernel, same thresholds as the f64 path.

use std::sync::OnceLock;

/// Lane width of the wide kernels (8 × f32 = one AVX2 `ymm`).
pub const LANES: usize = 8;

/// Whether the wide-lane SIMD kernels are active: x86-64 with AVX2 detected
/// and `AFTER_NO_SIMD` not set to `1`. Cached after the first call (the env
/// override is a process-level CI switch, not a per-call toggle).
pub fn simd_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        let enabled = 'detect: {
            if std::env::var("AFTER_NO_SIMD").map(|v| v == "1").unwrap_or(false) {
                break 'detect false;
            }
            #[cfg(target_arch = "x86_64")]
            {
                is_x86_feature_detected!("avx2")
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                false
            }
        };
        // self-describing metadata: perf artifacts state which leg they ran
        xr_obs::meta::record_fact("simd_enabled", enabled);
        enabled
    })
}

/// A dense row-major f32 matrix for the serving path. Deliberately minimal:
/// no autodiff, no operator overloading — just the storage the f32 forward
/// pass needs.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl MatrixF32 {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        MatrixF32 { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Wraps a row-major buffer; `data.len()` must be `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        MatrixF32 { rows, cols, data }
    }

    /// Down-converts an f64 [`crate::Matrix`] (nearest-even per element).
    pub fn from_f64(m: &crate::Matrix) -> Self {
        let (rows, cols) = m.shape();
        MatrixF32 { rows, cols, data: m.as_slice().iter().map(|&v| v as f32).collect() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row-major element slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major element slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · rhs`, size-dispatched over the chunked / packed kernels.
    pub fn matmul(&self, rhs: &MatrixF32) -> MatrixF32 {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let mut out = MatrixF32::zeros(self.rows, rhs.cols);
        matmul_f32(&mut out.data, &self.data, &rhs.data, self.rows, self.cols, rhs.cols);
        out
    }
}

impl std::ops::Index<(usize, usize)> for MatrixF32 {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for MatrixF32 {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

/// An f32 CSR matrix for the serving aggregation operator.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrF32 {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f32>,
}

impl CsrF32 {
    /// Builds from raw CSR parts (`row_ptr.len() == rows + 1`, column
    /// indices ascending within each row).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f32>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length mismatch");
        assert_eq!(col_idx.len(), vals.len(), "col_idx/vals length mismatch");
        CsrF32 { rows, cols, row_ptr, col_idx, vals }
    }

    /// Down-converts an f64 [`crate::CsrAdj`].
    pub fn from_f64(csr: &crate::CsrAdj) -> Self {
        CsrF32 {
            rows: csr.rows(),
            cols: csr.cols(),
            row_ptr: csr.row_ptr().to_vec(),
            col_idx: csr.col_idx().to_vec(),
            vals: csr.vals().iter().map(|&v| v as f32).collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// `self · dense`, SIMD-dispatched across the dense columns.
    pub fn matmul_dense(&self, dense: &MatrixF32) -> MatrixF32 {
        assert_eq!(self.cols, dense.rows(), "spmm shape mismatch");
        let mut out = MatrixF32::zeros(self.rows, dense.cols());
        spmm_f32(&mut out.data, &self.row_ptr, &self.col_idx, &self.vals, dense.as_slice(), dense.cols());
        out
    }
}

// ---------------------------------------------------------------------------
// dense matmul: dispatch → chunked (register-tiled) or packed-B
// ---------------------------------------------------------------------------

/// `out = a · b` with `a` `m×k`, `b` `k×n`, all row-major f32. Size dispatch
/// mirrors the f64 path: small or shallow products run the register-tiled
/// chunked kernel, large deep ones the packed-B micro-kernel. Both SIMD and
/// scalar variants accumulate each output element over ascending `k`, so
/// path is bit-identical.
pub fn matmul_f32(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    if m * k * n < crate::Matrix::MATMUL_DISPATCH_THRESHOLD || k < crate::Matrix::MATMUL_PACK_MIN_K {
        // leg label mirrors the runtime condition inside matmul_chunked_f32
        let leg = if simd_enabled() && n >= LANES { "simd" } else { "scalar" };
        xr_obs::counter_add("xr_tensor.serve32.matmul", &[("kernel", "chunked"), ("leg", leg)], 1);
        matmul_chunked_f32(out, a, b, m, k, n);
    } else {
        let leg = if simd_enabled() { "simd" } else { "scalar" };
        xr_obs::counter_add("xr_tensor.serve32.matmul", &[("kernel", "packed"), ("leg", leg)], 1);
        matmul_packed_f32(out, a, b, m, k, n);
    }
}

/// Register-tiled chunked kernel (no packing): runtime SIMD dispatch.
pub fn matmul_chunked_f32(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && n >= LANES {
        // SAFETY: simd_enabled() verified AVX2 at runtime.
        unsafe { matmul_chunked_f32_avx2(out, a, b, m, k, n) };
        return;
    }
    matmul_chunked_f32_scalar(out, a, b, m, k, n);
}

/// Scalar reference for the chunked kernel: per output element, ascending-`k`
/// multiply-add. The SIMD kernel reproduces exactly this order lane-wise.
pub fn matmul_chunked_f32_scalar(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (kk, &av) in arow.iter().enumerate() {
                acc += av * b[kk * n + j];
            }
            *o = acc;
        }
    }
}

/// AVX2 chunked kernel: 8-wide across output columns, MR=2 rows per tile,
/// ascending-`k` accumulation with separate mul + add (no FMA).
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_chunked_f32_avx2(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    use std::arch::x86_64::*;
    let n8 = n - n % LANES;
    let m2 = m - m % 2;
    // two-row register tile over full lanes
    let mut i = 0;
    while i < m2 {
        let arow0 = &a[i * k..(i + 1) * k];
        let arow1 = &a[(i + 1) * k..(i + 2) * k];
        let mut j = 0;
        while j < n8 {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            for kk in 0..k {
                let bv = _mm256_loadu_ps(b.as_ptr().add(kk * n + j));
                let a0 = _mm256_set1_ps(*arow0.get_unchecked(kk));
                let a1 = _mm256_set1_ps(*arow1.get_unchecked(kk));
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(a0, bv));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(a1, bv));
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(i * n + j), acc0);
            _mm256_storeu_ps(out.as_mut_ptr().add((i + 1) * n + j), acc1);
            j += LANES;
        }
        // column tail: scalar, same ascending-k order
        for jj in n8..n {
            let mut acc0 = 0.0f32;
            let mut acc1 = 0.0f32;
            for kk in 0..k {
                let bv = b[kk * n + jj];
                acc0 += arow0[kk] * bv;
                acc1 += arow1[kk] * bv;
            }
            out[i * n + jj] = acc0;
            out[(i + 1) * n + jj] = acc1;
        }
        i += 2;
    }
    // row tail
    for ii in m2..m {
        let arow = &a[ii * k..(ii + 1) * k];
        let mut j = 0;
        while j < n8 {
            let mut acc = _mm256_setzero_ps();
            for kk in 0..k {
                let bv = _mm256_loadu_ps(b.as_ptr().add(kk * n + j));
                let av = _mm256_set1_ps(*arow.get_unchecked(kk));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(ii * n + j), acc);
            j += LANES;
        }
        for jj in n8..n {
            let mut acc = 0.0f32;
            for (kk, &av) in arow.iter().enumerate() {
                acc += av * b[kk * n + jj];
            }
            out[ii * n + jj] = acc;
        }
    }
}

/// Packed-B kernel: `b` is repacked into zero-padded 8-column panels so the
/// inner loop streams contiguously; runtime SIMD dispatch. Padding lanes are
/// computed and discarded — per stored element the arithmetic is the plain
/// ascending-`k` chain, so this path is bit-identical to the scalar
/// reference too.
pub fn matmul_packed_f32(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let panels = n.div_ceil(LANES);
    // pack: panel p holds columns [p*8, p*8+8) row-major k×8, zero padded
    let mut packed = vec![0.0f32; panels * k * LANES];
    for p in 0..panels {
        let j0 = p * LANES;
        let w = LANES.min(n - j0);
        let dst = &mut packed[p * k * LANES..(p + 1) * k * LANES];
        for kk in 0..k {
            let src = &b[kk * n + j0..kk * n + j0 + w];
            dst[kk * LANES..kk * LANES + w].copy_from_slice(src);
        }
    }
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: simd_enabled() verified AVX2 at runtime.
        unsafe { matmul_packed_f32_avx2(out, a, &packed, m, k, n) };
        return;
    }
    matmul_packed_f32_scalar(out, a, &packed, m, k, n);
}

/// Scalar loop over the packed panels (reference for the packed kernel).
fn matmul_packed_f32_scalar(out: &mut [f32], a: &[f32], packed: &[f32], m: usize, k: usize, n: usize) {
    let panels = n.div_ceil(LANES);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for p in 0..panels {
            let panel = &packed[p * k * LANES..(p + 1) * k * LANES];
            let j0 = p * LANES;
            let w = LANES.min(n - j0);
            let mut acc = [0.0f32; LANES];
            for (kk, &av) in arow.iter().enumerate() {
                for l in 0..LANES {
                    acc[l] += av * panel[kk * LANES + l];
                }
            }
            out[i * n + j0..i * n + j0 + w].copy_from_slice(&acc[..w]);
        }
    }
}

/// AVX2 packed kernel: one `ymm` accumulator per panel, MR=2 row tile.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_packed_f32_avx2(out: &mut [f32], a: &[f32], packed: &[f32], m: usize, k: usize, n: usize) {
    use std::arch::x86_64::*;
    let panels = n.div_ceil(LANES);
    let m2 = m - m % 2;
    let mut i = 0;
    while i < m2 {
        let arow0 = a.as_ptr().add(i * k);
        let arow1 = a.as_ptr().add((i + 1) * k);
        for p in 0..panels {
            let panel = packed.as_ptr().add(p * k * LANES);
            let j0 = p * LANES;
            let w = LANES.min(n - j0);
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            for kk in 0..k {
                let bv = _mm256_loadu_ps(panel.add(kk * LANES));
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(*arow0.add(kk)), bv));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(*arow1.add(kk)), bv));
            }
            let mut tmp0 = [0.0f32; LANES];
            let mut tmp1 = [0.0f32; LANES];
            _mm256_storeu_ps(tmp0.as_mut_ptr(), acc0);
            _mm256_storeu_ps(tmp1.as_mut_ptr(), acc1);
            out[i * n + j0..i * n + j0 + w].copy_from_slice(&tmp0[..w]);
            out[(i + 1) * n + j0..(i + 1) * n + j0 + w].copy_from_slice(&tmp1[..w]);
        }
        i += 2;
    }
    for ii in m2..m {
        let arow = a.as_ptr().add(ii * k);
        for p in 0..panels {
            let panel = packed.as_ptr().add(p * k * LANES);
            let j0 = p * LANES;
            let w = LANES.min(n - j0);
            let mut acc = _mm256_setzero_ps();
            for kk in 0..k {
                let bv = _mm256_loadu_ps(panel.add(kk * LANES));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(*arow.add(kk)), bv));
            }
            let mut tmp = [0.0f32; LANES];
            _mm256_storeu_ps(tmp.as_mut_ptr(), acc);
            out[ii * n + j0..ii * n + j0 + w].copy_from_slice(&tmp[..w]);
        }
    }
}

// ---------------------------------------------------------------------------
// CSR SpMM
// ---------------------------------------------------------------------------

/// `out = csr · dense` with `dense` row-major `cols`-wide; runtime SIMD
/// dispatch across the dense columns. Per output element the accumulation
/// follows the CSR entry order (ascending column index), identical in the
/// scalar and SIMD variants.
pub fn spmm_f32(
    out: &mut [f32],
    row_ptr: &[usize],
    col_idx: &[usize],
    vals: &[f32],
    dense: &[f32],
    cols: usize,
) {
    let leg = if simd_enabled() && cols >= LANES { "simd" } else { "scalar" };
    xr_obs::counter_add("xr_tensor.serve32.spmm", &[("leg", leg)], 1);
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && cols >= LANES {
        // SAFETY: simd_enabled() verified AVX2 at runtime.
        unsafe { spmm_f32_avx2(out, row_ptr, col_idx, vals, dense, cols) };
        return;
    }
    spmm_f32_scalar(out, row_ptr, col_idx, vals, dense, cols);
}

/// Scalar SpMM reference: row-of-`out` accumulation in CSR entry order.
pub fn spmm_f32_scalar(
    out: &mut [f32],
    row_ptr: &[usize],
    col_idx: &[usize],
    vals: &[f32],
    dense: &[f32],
    cols: usize,
) {
    let rows = row_ptr.len() - 1;
    if cols == 1 {
        // a mat-vec: the same per-row accumulation, held in a register
        for (r, o) in out.iter_mut().enumerate().take(rows) {
            let mut acc = 0.0f32;
            for e in row_ptr[r]..row_ptr[r + 1] {
                acc += vals[e] * dense[col_idx[e]];
            }
            *o = acc;
        }
        return;
    }
    for r in 0..rows {
        let orow = &mut out[r * cols..(r + 1) * cols];
        orow.fill(0.0);
        for e in row_ptr[r]..row_ptr[r + 1] {
            let v = vals[e];
            let drow = &dense[col_idx[e] * cols..(col_idx[e] + 1) * cols];
            for (o, &d) in orow.iter_mut().zip(drow) {
                *o += v * d;
            }
        }
    }
}

/// AVX2 SpMM: 8-wide across dense columns, CSR entry order preserved.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::needless_range_loop)] // explicit CSR entry indices keep the kernel readable
unsafe fn spmm_f32_avx2(
    out: &mut [f32],
    row_ptr: &[usize],
    col_idx: &[usize],
    vals: &[f32],
    dense: &[f32],
    cols: usize,
) {
    use std::arch::x86_64::*;
    let rows = row_ptr.len() - 1;
    let c8 = cols - cols % LANES;
    for r in 0..rows {
        let obase = r * cols;
        out[obase..obase + cols].fill(0.0);
        let mut j = 0;
        while j < c8 {
            let mut acc = _mm256_setzero_ps();
            for e in row_ptr[r]..row_ptr[r + 1] {
                let dv = _mm256_loadu_ps(dense.as_ptr().add(col_idx[e] * cols + j));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(*vals.get_unchecked(e)), dv));
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(obase + j), acc);
            j += LANES;
        }
        for jj in c8..cols {
            let mut acc = 0.0f32;
            for e in row_ptr[r]..row_ptr[r + 1] {
                acc += vals[e] * dense[col_idx[e] * cols + jj];
            }
            out[obase + jj] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0) as f32).collect()
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: lane {i}: {x:?} vs {y:?}");
        }
    }

    /// Shapes covering full lanes, remainder columns, remainder rows, and
    /// the degenerate n < LANES case.
    const SHAPES: [(usize, usize, usize); 7] =
        [(4, 4, 8), (5, 7, 13), (2, 3, 1), (9, 16, 8), (3, 5, 19), (1, 1, 1), (8, 12, 24)];

    #[test]
    fn chunked_simd_matches_scalar_bitwise_including_tails() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &SHAPES {
            let a = random_vec(m * k, &mut rng);
            let b = random_vec(k * n, &mut rng);
            let mut scalar = vec![0.0f32; m * n];
            let mut wide = vec![0.0f32; m * n];
            matmul_chunked_f32_scalar(&mut scalar, &a, &b, m, k, n);
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                unsafe { matmul_chunked_f32_avx2(&mut wide, &a, &b, m, k, n) };
                assert_bits_eq(&scalar, &wide, &format!("chunked {m}x{k}x{n}"));
            }
            // the public dispatcher agrees with the reference either way
            matmul_chunked_f32(&mut wide, &a, &b, m, k, n);
            assert_bits_eq(&scalar, &wide, &format!("chunked dispatch {m}x{k}x{n}"));
        }
    }

    #[test]
    fn packed_simd_matches_scalar_and_chunked_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        for &(m, k, n) in &SHAPES {
            let a = random_vec(m * k, &mut rng);
            let b = random_vec(k * n, &mut rng);
            let mut chunked = vec![0.0f32; m * n];
            let mut packed = vec![0.0f32; m * n];
            matmul_chunked_f32_scalar(&mut chunked, &a, &b, m, k, n);
            matmul_packed_f32(&mut packed, &a, &b, m, k, n);
            assert_bits_eq(&chunked, &packed, &format!("packed {m}x{k}x{n}"));
        }
    }

    #[test]
    fn spmm_simd_matches_scalar_bitwise_including_tails() {
        let mut rng = StdRng::seed_from_u64(13);
        for &cols in &[1usize, 4, 8, 11, 16, 19] {
            let rows = 17;
            // ~4 entries per row, ascending columns
            let mut row_ptr = vec![0usize];
            let mut col_idx = Vec::new();
            let mut vals = Vec::new();
            for _ in 0..rows {
                let mut cs: Vec<usize> = (0..4).map(|_| rng.gen_range(0..rows)).collect();
                cs.sort_unstable();
                cs.dedup();
                for c in cs {
                    col_idx.push(c);
                    vals.push(rng.gen_range(-1.0..1.0) as f32);
                }
                row_ptr.push(col_idx.len());
            }
            let dense = random_vec(rows * cols, &mut rng);
            let mut scalar = vec![0.0f32; rows * cols];
            let mut wide = vec![0.0f32; rows * cols];
            spmm_f32_scalar(&mut scalar, &row_ptr, &col_idx, &vals, &dense, cols);
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                unsafe { spmm_f32_avx2(&mut wide, &row_ptr, &col_idx, &vals, &dense, cols) };
                assert_bits_eq(&scalar, &wide, &format!("spmm cols={cols}"));
            }
            spmm_f32(&mut wide, &row_ptr, &col_idx, &vals, &dense, cols);
            assert_bits_eq(&scalar, &wide, &format!("spmm dispatch cols={cols}"));
        }
    }

    #[test]
    fn kernels_are_nan_free_on_finite_inputs() {
        let mut rng = StdRng::seed_from_u64(14);
        let (m, k, n) = (7, 9, 13);
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let mut out = vec![f32::NAN; m * n]; // stale garbage must be overwritten
        matmul_chunked_f32(&mut out, &a, &b, m, k, n);
        assert!(out.iter().all(|v| v.is_finite()), "chunked produced non-finite values");
        out.fill(f32::NAN);
        matmul_packed_f32(&mut out, &a, &b, m, k, n);
        assert!(out.iter().all(|v| v.is_finite()), "packed produced non-finite values");
    }

    #[test]
    fn matmul_matches_f64_reference_within_f32_tolerance() {
        let mut rng = StdRng::seed_from_u64(15);
        let (m, k, n) = (10, 12, 9);
        let a64 = crate::Matrix::from_fn(m, k, |_, _| rng.gen_range(-1.0..1.0));
        let b64 = crate::Matrix::from_fn(k, n, |_, _| rng.gen_range(-1.0..1.0));
        let c64 = a64.matmul(&b64);
        let c32 = MatrixF32::from_f64(&a64).matmul(&MatrixF32::from_f64(&b64));
        for i in 0..m {
            for j in 0..n {
                let d = (c64[(i, j)] - c32[(i, j)] as f64).abs();
                assert!(d < 1e-5, "({i},{j}): f64 {} vs f32 {}", c64[(i, j)], c32[(i, j)]);
            }
        }
    }

    #[test]
    fn csr_f32_down_conversion_preserves_structure() {
        let entries = [(0usize, 1usize, 0.5f64), (1, 0, 0.25), (1, 2, 0.75), (2, 2, 1.0)];
        let csr64 = crate::CsrAdj::from_entries(3, 3, &entries);
        let csr32 = CsrF32::from_f64(&csr64);
        assert_eq!(csr32.nnz(), csr64.nnz());
        let x = MatrixF32::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = csr32.matmul_dense(&x);
        assert_eq!(y.shape(), (3, 2));
        assert!((y[(0, 0)] - 1.5).abs() < 1e-6); // 0.5 * row1
        assert!((y[(1, 1)] - (0.25 * 2.0 + 0.75 * 6.0)).abs() < 1e-6);
    }

    #[test]
    fn matrix_f32_roundtrip_and_indexing() {
        let m64 = crate::Matrix::from_fn(3, 2, |r, c| r as f64 + 0.5 * c as f64);
        let m32 = MatrixF32::from_f64(&m64);
        assert_eq!(m32.shape(), (3, 2));
        assert_eq!(m32[(2, 1)], 2.5);
        assert_eq!(m32.row(1), &[1.0, 1.5]);
    }
}
