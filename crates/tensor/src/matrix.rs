//! Dense row-major `f64` matrices.
//!
//! This is the storage type underneath the autodiff engine in [`crate::tape`].
//! Model sizes in this project are tiny (hidden dimension 8, at most a few
//! hundred nodes), so the implementation favours clarity and exact `f64`
//! arithmetic over SIMD throughput. Shape errors are reported through
//! [`ShapeError`] from fallible constructors and checked (via `assert!`) in
//! the arithmetic kernels, where a mismatch is always a programmer error.

use std::fmt;

/// Error returned by fallible [`Matrix`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    pub message: String,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape error: {}", self.message)
    }
}

impl std::error::Error for ShapeError {}

/// Row-block height of the tiled matmul kernels' register tile.
///
/// 2 (not the textbook 4): the baseline x86-64 target has 16 XMM registers,
/// and a 2×8 tile is 16 doubles = 8 XMM accumulators, leaving room for the
/// `a` broadcasts and the B-row loads. A 4×8 tile (32 doubles) spills the
/// accumulators to the stack every `k` iteration and measured *slower* than
/// the naive loop at every size (BENCH_pr4 calibration).
const MATMUL_MR: usize = 2;
/// Column width of the tiled matmul kernels' register tile: `MR × NR`
/// accumulators stay in registers across the whole `k` loop.
const MATMUL_NR: usize = 8;

/// A dense row-major matrix of `f64`. The default is the empty `0 × 0`
/// matrix.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// An `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// An `rows × cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![1.0; rows * cols] }
    }

    /// An `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError {
                message: format!("data length {} does not match {rows}x{cols} = {}", data.len(), rows * cols),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// A column vector (`n × 1`) built from a slice.
    pub fn col_vec(values: &[f64]) -> Self {
        Matrix { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// A row vector (`1 × n`) built from a slice.
    pub fn row_vec(values: &[f64]) -> Self {
        Matrix { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major view of the underlying data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major view of the underlying data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major data vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// A single row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable access to a single row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · rhs` via the register-tiled kernel of
    /// [`Self::matmul_into`].
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Like [`Self::matmul`], but writes the product into `out`
    /// (overwriting every entry) instead of allocating. `out` must already
    /// have shape `rows × rhs.cols`; its prior contents are ignored.
    ///
    /// Each `MATMUL_MR × MATMUL_NR` output tile accumulates in registers
    /// across the whole `k` range, reading B rows in place,
    /// instead of re-loading and re-storing the output row every `k` step
    /// as the plain i-k-j loop does (~2× on the model's own `n≤16`-wide
    /// products; see BENCH_pr4.json). For each output entry the `k` loop
    /// runs the full range in ascending order with the same `a == 0.0`
    /// skip as [`Self::matmul_naive`], so results are bit-for-bit
    /// identical — the kernel-equivalence property test and the
    /// differential oracle pin this.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.rows, rhs.cols), "matmul_into output shape mismatch");
        let (m, kd, n) = (self.rows, self.cols, rhs.cols);
        const MR: usize = MATMUL_MR;
        const NR: usize = MATMUL_NR;
        if n == 1 {
            // Column output: one dot product per row. The general tile path
            // pays per-`k` slice overhead for a single lane; this runs the
            // same ascending-`k` loop (with the same skip) directly.
            for i in 0..m {
                let arow = &self.data[i * kd..(i + 1) * kd];
                let mut acc = 0.0;
                for (&a, &b) in arow.iter().zip(rhs.data.iter()) {
                    if a == 0.0 {
                        continue;
                    }
                    acc += a * b;
                }
                out.data[i] = acc;
            }
            return;
        }
        let mut j0 = 0;
        while j0 < n {
            let w = NR.min(n - j0);
            let mut i = 0;
            if w == NR {
                while i + MR <= m {
                    let mut acc = [[0.0f64; NR]; MR];
                    for k in 0..kd {
                        let brow = &rhs.data[k * n + j0..k * n + j0 + NR];
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let a = self.data[(i + r) * kd + k];
                            if a == 0.0 {
                                continue;
                            }
                            for (o, &b) in accr.iter_mut().zip(brow.iter()) {
                                *o += a * b;
                            }
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        out.data[(i + r) * n + j0..(i + r) * n + j0 + NR].copy_from_slice(accr);
                    }
                    i += MR;
                }
            }
            // leftover rows, and the ragged right edge (w < NR)
            while i < m {
                let mut acc = [0.0f64; NR];
                for k in 0..kd {
                    let a = self.data[i * kd + k];
                    if a == 0.0 {
                        continue;
                    }
                    let brow = &rhs.data[k * n + j0..k * n + j0 + w];
                    for (o, &b) in acc.iter_mut().zip(brow.iter()) {
                        *o += a * b;
                    }
                }
                out.data[i * n + j0..i * n + j0 + w].copy_from_slice(&acc[..w]);
                i += 1;
            }
            j0 += NR;
        }
    }

    /// Matrix product `self · rhs` via the straightforward i-k-j loop.
    ///
    /// Kept as the reference implementation for the register-tiled
    /// [`Self::matmul`] kernel's equivalence property test.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_naive_into(rhs, &mut out);
        out
    }

    fn matmul_naive_into(&self, rhs: &Matrix, out: &mut Matrix) {
        out.fill(0.0);
        // i-k-j loop order keeps the inner loop contiguous over both `rhs`
        // and `out` rows, which matters even at these small sizes.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(rrow.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// `selfᵀ · rhs` without materializing the transpose, written into
    /// `out` (shape `self.cols × rhs.cols`), overwriting every entry.
    ///
    /// Bit-for-bit identical to `self.transpose().matmul(rhs)`: per output
    /// entry the contraction index (rows of both operands) runs in
    /// ascending order with the same `a == 0.0` skip, in the same
    /// register-tiled chunks as [`Self::matmul_into`]. This is the
    /// backward-pass kernel for `∂(A·B)/∂B = Aᵀ·G` — the transpose of a
    /// tall activation matrix is pure strided traffic, so fusing it away
    /// removes an allocation and a copy per matmul per backward step.
    pub fn matmul_at_b_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_at_b shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.cols, rhs.cols), "matmul_at_b output shape mismatch");
        const MR: usize = MATMUL_MR;
        const NR: usize = MATMUL_NR;
        let (m, kd, n) = (self.cols, self.rows, rhs.cols);
        if n == 1 {
            // Gradient-of-bias/column shape (`Aᵀ·g` with `g` a column):
            // iterate `k` outermost so `self` streams row-sequentially; the
            // `m` partial sums (one per output entry) stay cache-hot. Per
            // output entry `k` still ascends with the same skip.
            out.data.fill(0.0);
            for k in 0..kd {
                let b = rhs.data[k];
                let arow = &self.data[k * m..(k + 1) * m];
                for (o, &a) in out.data.iter_mut().zip(arow.iter()) {
                    if a == 0.0 {
                        continue;
                    }
                    *o += a * b;
                }
            }
            return;
        }
        let mut j0 = 0;
        while j0 < n {
            let w = NR.min(n - j0);
            let mut i = 0;
            if w == NR {
                while i + MR <= m {
                    let mut acc = [[0.0f64; NR]; MR];
                    for k in 0..kd {
                        let brow = &rhs.data[k * n + j0..k * n + j0 + NR];
                        let arow = &self.data[k * m..(k + 1) * m];
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let a = arow[i + r];
                            if a == 0.0 {
                                continue;
                            }
                            for (o, &b) in accr.iter_mut().zip(brow.iter()) {
                                *o += a * b;
                            }
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        out.data[(i + r) * n + j0..(i + r) * n + j0 + NR].copy_from_slice(accr);
                    }
                    i += MR;
                }
            }
            while i < m {
                let mut acc = [0.0f64; NR];
                for k in 0..kd {
                    let a = self.data[k * m + i];
                    if a == 0.0 {
                        continue;
                    }
                    let brow = &rhs.data[k * n + j0..k * n + j0 + w];
                    for (o, &b) in acc.iter_mut().zip(brow.iter()) {
                        *o += a * b;
                    }
                }
                out.data[i * n + j0..i * n + j0 + w].copy_from_slice(&acc[..w]);
                i += 1;
            }
            j0 += NR;
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into `out` (shape `cols × rows`), overwriting every entry.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose_into output shape mismatch");
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
    }

    /// Overwrites `self` with the contents of `src` (shapes must match).
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Entry-wise binary combination; shapes must match.
    pub fn zip_with(&self, rhs: &Matrix, mut f: impl FnMut(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip_with shape mismatch");
        let data = self.data.iter().zip(rhs.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Entry-wise binary combination into `out`, overwriting every entry.
    pub fn zip_with_into(&self, rhs: &Matrix, out: &mut Matrix, mut f: impl FnMut(f64, f64) -> f64) {
        assert_eq!(self.shape(), rhs.shape(), "zip_with_into shape mismatch");
        assert_eq!(self.shape(), out.shape(), "zip_with_into output shape mismatch");
        for ((o, &a), &b) in out.data.iter_mut().zip(self.data.iter()).zip(rhs.data.iter()) {
            *o = f(a, b);
        }
    }

    /// Entry-wise map into `out`, overwriting every entry.
    pub fn map_into(&self, out: &mut Matrix, mut f: impl FnMut(f64) -> f64) {
        assert_eq!(self.shape(), out.shape(), "map_into output shape mismatch");
        for (o, &a) in out.data.iter_mut().zip(self.data.iter()) {
            *o = f(a);
        }
    }

    /// Entry-wise sum.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Entry-wise difference.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// In-place `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += scale * rhs`.
    pub fn add_scaled(&mut self, rhs: &Matrix, scale: f64) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += scale * b;
        }
    }

    /// Entry-wise map.
    pub fn map(&self, f: impl FnMut(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().copied().map(f).collect() }
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f64) -> Matrix {
        self.map(|x| x * k)
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Fills the matrix with a constant.
    pub fn fill(&mut self, value: f64) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "concat_cols row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Horizontal concatenation of many matrices with equal row counts.
    pub fn concat_cols_all(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols_all needs at least one part");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "concat_cols_all row mismatch");
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Extracts columns `[start, start+len)` into a new matrix.
    pub fn slice_cols(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.cols, "slice_cols out of range");
        Matrix::from_fn(self.rows, len, |r, c| self[(r, start + c)])
    }

    /// `true` when every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Entry-wise approximate equality within `tol`.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        self.shape() == rhs.shape()
            && self.data.iter().zip(rhs.data.iter()).all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_shapes() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Matrix::ones(1, 4).sum(), 4.0);
        assert_eq!(Matrix::identity(3).sum(), 3.0);
        assert_eq!(Matrix::full(2, 2, 2.5).sum(), 10.0);
        assert_eq!(Matrix::col_vec(&[1.0, 2.0]).shape(), (2, 1));
        assert_eq!(Matrix::row_vec(&[1.0, 2.0]).shape(), (1, 2));
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b);
        let expected = Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        assert!(a.matmul(&Matrix::identity(4)).approx_eq(&a, 0.0));
        assert!(Matrix::identity(4).matmul(&a).approx_eq(&a, 0.0));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r as f64) - 2.0 * c as f64);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
        assert_eq!(a.transpose().shape(), (5, 3));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.frobenius_norm() - (30.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn concat_and_slice_round_trip() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        let b = Matrix::from_fn(3, 3, |r, c| 100.0 + (r * 3 + c) as f64);
        let cat = a.concat_cols(&b);
        assert_eq!(cat.shape(), (3, 5));
        assert!(cat.slice_cols(0, 2).approx_eq(&a, 0.0));
        assert!(cat.slice_cols(2, 3).approx_eq(&b, 0.0));

        let cat2 = Matrix::concat_cols_all(&[&a, &b]);
        assert!(cat2.approx_eq(&cat, 0.0));
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        let g = Matrix::ones(2, 2);
        a.add_scaled(&g, 0.5);
        a.add_scaled(&g, 0.25);
        assert!(a.approx_eq(&Matrix::full(2, 2, 0.75), 1e-15));
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        let mut a = Matrix::ones(2, 2);
        assert!(a.all_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.all_finite());
        a[(0, 1)] = f64::INFINITY;
        assert!(!a.all_finite());
    }

    #[test]
    fn rows_are_contiguous() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(a.row(1), &[3.0, 4.0, 5.0]);
    }
}
