//! Sparse CSR matrices for graph-structured operands.
//!
//! Occlusion graphs are sparse (each user occludes a handful of neighbours,
//! not all N), so multiplying GNN activations by a dense N×N adjacency wastes
//! O(N²) work. [`CsrAdj`] stores only the non-zeros in compressed sparse row
//! form — `row_ptr`/`col_idx`/`vals` — and its SpMM kernel
//! [`CsrAdj::matmul_dense`] costs O(nnz · cols) instead of O(N² · cols).
//! Every graph operator in the workspace — GCN and diffusion aggregation,
//! the occlusion loss penalty, GraFrank's social graph — is a [`CsrAdj`];
//! there is no dense twin. [`CsrAdj::to_dense`] exists for tests that
//! compare against a dense reference.

use crate::matrix::Matrix;

/// A sparse matrix in compressed sparse row (CSR) form.
///
/// Named for its dominant role here — the per-step occlusion-graph adjacency
/// (and its row-normalized and blocking variants) — but it is a general CSR
/// container. Within each row, column indices are strictly increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrAdj {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` spans row `i`'s entries; length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column index of each stored entry, row by row.
    col_idx: Vec<usize>,
    /// Value of each stored entry, parallel to `col_idx`.
    vals: Vec<f64>,
}

impl CsrAdj {
    /// The `rows × cols` matrix with no stored entries.
    pub fn empty(rows: usize, cols: usize) -> Self {
        CsrAdj { rows, cols, row_ptr: vec![0; rows + 1], col_idx: Vec::new(), vals: Vec::new() }
    }

    /// Builds from `(row, col, value)` triplets in any order.
    ///
    /// Duplicate `(row, col)` entries are summed; explicit zeros are kept
    /// (callers that want them dropped should filter first).
    ///
    /// # Panics
    ///
    /// Panics when an index is out of `rows × cols` bounds.
    pub fn from_entries(rows: usize, cols: usize, entries: &[(usize, usize, f64)]) -> Self {
        let timer = xr_obs::start_timer();
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, c, _) in entries {
            assert!(r < rows && c < cols, "entry ({r},{c}) out of {rows}x{cols} bounds");
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        // Counting-sort entries into row order, then sort-and-merge columns
        // within each row.
        let mut col_idx = vec![0usize; entries.len()];
        let mut vals = vec![0.0f64; entries.len()];
        let mut cursor = row_ptr.clone();
        for &(r, c, v) in entries {
            let at = cursor[r];
            col_idx[at] = c;
            vals[at] = v;
            cursor[r] += 1;
        }
        let mut merged =
            CsrAdj { rows, cols, row_ptr: vec![0; rows + 1], col_idx: Vec::new(), vals: Vec::new() };
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for i in 0..rows {
            scratch.clear();
            scratch.extend(
                col_idx[row_ptr[i]..row_ptr[i + 1]]
                    .iter()
                    .copied()
                    .zip(vals[row_ptr[i]..row_ptr[i + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in scratch.iter() {
                match merged.col_idx.last() {
                    Some(&last) if merged.col_idx.len() > merged.row_ptr[i] && last == c => {
                        *merged.vals.last_mut().unwrap() += v;
                    }
                    _ => {
                        merged.col_idx.push(c);
                        merged.vals.push(v);
                    }
                }
            }
            merged.row_ptr[i + 1] = merged.col_idx.len();
        }
        xr_obs::observe_since("xr_tensor.csr.build.ms", &[], timer);
        merged
    }

    /// Assembles a CSR matrix from its three arrays, for builders that
    /// already produce rows in order (no sort or merge pass).
    ///
    /// # Panics
    ///
    /// Panics when the arrays are inconsistent: `row_ptr` must have
    /// `rows + 1` non-decreasing offsets from `0` to `col_idx.len()`, and
    /// `vals` must be as long as `col_idx`. In-range, strictly ascending
    /// columns within each row are debug-asserted.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), vals.len(), "col_idx/vals length mismatch");
        assert!(row_ptr[0] == 0 && row_ptr[rows] == col_idx.len(), "row_ptr must span every entry");
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "row_ptr must be non-decreasing");
        debug_assert!(
            (0..rows).all(|r| {
                let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
                row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&c| c < cols)
            }),
            "columns must be in range and strictly ascending within each row"
        );
        CsrAdj { rows, cols, row_ptr, col_idx, vals }
    }

    /// Builds from a dense matrix, keeping entries with `|x| > tol`.
    pub fn from_dense(dense: &Matrix, tol: f64) -> Self {
        let (rows, cols) = dense.shape();
        let mut out = CsrAdj::empty(rows, cols);
        for r in 0..rows {
            for (c, &x) in dense.row(r).iter().enumerate() {
                if x.abs() > tol {
                    out.col_idx.push(c);
                    out.vals.push(x);
                }
            }
            out.row_ptr[r + 1] = out.col_idx.len();
        }
        out
    }

    /// Materializes the dense equivalent.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let row = out.row_mut(r);
            for idx in self.row_ptr[r]..self.row_ptr[r + 1] {
                row[self.col_idx[idx]] += self.vals[idx];
            }
        }
        out
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

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row-pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index of each stored entry.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value of each stored entry.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Iterator over row `r`'s `(col, value)` entries.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
            .iter()
            .copied()
            .zip(self.vals[self.row_ptr[r]..self.row_ptr[r + 1]].iter().copied())
    }

    /// SpMM: `self · rhs` with a dense right-hand side.
    ///
    /// Each stored `a_ij` scatters `a_ij · rhs.row(j)` into `out.row(i)`;
    /// the inner loop is contiguous over both rows. Cost O(nnz · rhs.cols).
    /// Per output entry, contributions accumulate in ascending column order
    /// (CSR row order), matching dense `matmul_naive`'s ascending-k order, so
    /// the two agree to rounding — the equivalence property test pins this.
    pub fn matmul_dense(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            rhs.rows(),
            "spmm shape mismatch: {}x{} · {}x{}",
            self.rows,
            self.cols,
            rhs.rows(),
            rhs.cols()
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols());
        self.matmul_dense_into(rhs, &mut out);
        out
    }

    /// Like [`CsrAdj::matmul_dense`], but writes the product into `out`
    /// (overwriting every entry) instead of allocating. `out` must already
    /// have shape `rows × rhs.cols`; its prior contents are ignored.
    pub fn matmul_dense_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows(),
            "spmm shape mismatch: {}x{} · {}x{}",
            self.rows,
            self.cols,
            rhs.rows(),
            rhs.cols()
        );
        assert_eq!(out.shape(), (self.rows, rhs.cols()), "spmm output shape mismatch");
        let timer = xr_obs::start_timer();
        // Register-accumulated in 8-wide column chunks: the chunk's partial
        // sums live in registers across the whole CSR row instead of
        // re-loading/re-storing the output row once per nonzero. Per output
        // entry the accumulation order over the row's entries is unchanged,
        // so results are bit-identical to the plain scatter loop. Plain
        // `a*b + o` on purpose: `mul_add` is a libm call on targets without
        // baseline FMA, and this loop is the hot one.
        // Narrow right-hand sides (all the model's aggregations: 1–16
        // columns) get single-pass paths that read each row's CSR entries
        // exactly once, with every partial sum in registers; wider ones fall
        // back to 8-wide chunked passes.
        const NR: usize = 8;
        let cols = rhs.cols();
        if cols == 1 {
            // Pure SpMV: no row-slice machinery per nonzero.
            let b = rhs.as_slice();
            let o = out.as_mut_slice();
            for (i, oi) in o.iter_mut().enumerate() {
                let mut acc = 0.0;
                for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                    acc += self.vals[idx] * b[self.col_idx[idx]];
                }
                *oi = acc;
            }
        } else if cols <= 2 * NR {
            for i in 0..self.rows {
                let (start, end) = (self.row_ptr[i], self.row_ptr[i + 1]);
                let mut acc = [0.0f64; 2 * NR];
                if cols == NR / 2 {
                    for idx in start..end {
                        let a = self.vals[idx];
                        let brow = rhs.row(self.col_idx[idx]);
                        for (o, &b) in acc[..NR / 2].iter_mut().zip(brow.iter()) {
                            *o += a * b;
                        }
                    }
                } else if cols == NR {
                    for idx in start..end {
                        let a = self.vals[idx];
                        let brow = rhs.row(self.col_idx[idx]);
                        for (o, &b) in acc[..NR].iter_mut().zip(brow.iter()) {
                            *o += a * b;
                        }
                    }
                } else if cols == 2 * NR {
                    for idx in start..end {
                        let a = self.vals[idx];
                        let brow = rhs.row(self.col_idx[idx]);
                        for (o, &b) in acc.iter_mut().zip(brow.iter()) {
                            *o += a * b;
                        }
                    }
                } else {
                    for idx in start..end {
                        let a = self.vals[idx];
                        let brow = rhs.row(self.col_idx[idx]);
                        for (o, &b) in acc[..cols].iter_mut().zip(brow.iter()) {
                            *o += a * b;
                        }
                    }
                }
                out.row_mut(i).copy_from_slice(&acc[..cols]);
            }
        } else {
            for i in 0..self.rows {
                let (start, end) = (self.row_ptr[i], self.row_ptr[i + 1]);
                let mut j0 = 0;
                while j0 < cols {
                    let w = NR.min(cols - j0);
                    let mut acc = [0.0f64; NR];
                    if w == NR {
                        for idx in start..end {
                            let a = self.vals[idx];
                            let brow = &rhs.row(self.col_idx[idx])[j0..j0 + NR];
                            for (o, &b) in acc.iter_mut().zip(brow.iter()) {
                                *o += a * b;
                            }
                        }
                    } else {
                        for idx in start..end {
                            let a = self.vals[idx];
                            let brow = &rhs.row(self.col_idx[idx])[j0..j0 + w];
                            for (o, &b) in acc.iter_mut().zip(brow.iter()) {
                                *o += a * b;
                            }
                        }
                    }
                    out.row_mut(i)[j0..j0 + w].copy_from_slice(&acc[..w]);
                    j0 += NR;
                }
            }
        }
        xr_obs::observe_since("xr_tensor.csr.spmm.ms", &[], timer);
    }

    /// Sparse matrix–vector product `self · x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "matvec length mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.vals[idx] * x[self.col_idx[idx]];
            }
            *o = acc;
        }
        out
    }

    /// Quadratic form `xᵀ · self · y`.
    pub fn quadratic_form(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(self.rows, x.len(), "quadratic_form left length mismatch");
        let ay = self.matvec(y);
        x.iter().zip(ay.iter()).map(|(&a, &b)| a * b).sum()
    }

    /// Transpose, in CSR form (i.e. the CSC view of `self`).
    pub fn transpose(&self) -> CsrAdj {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for i in 0..self.cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut vals = vec![0.0f64; self.nnz()];
        let mut cursor = row_ptr.clone();
        for r in 0..self.rows {
            for idx in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[idx];
                let at = cursor[c];
                col_idx[at] = r;
                vals[at] = self.vals[idx];
                cursor[c] += 1;
            }
        }
        CsrAdj { rows: self.cols, cols: self.rows, row_ptr, col_idx, vals }
    }

    /// Row-normalized copy: each non-empty row scaled to sum to 1
    /// (mean aggregation, `D⁻¹A`).
    pub fn row_normalized(&self) -> CsrAdj {
        let mut out = self.clone();
        for r in 0..out.rows {
            let span = out.row_ptr[r]..out.row_ptr[r + 1];
            let s: f64 = out.vals[span.clone()].iter().sum();
            if s != 0.0 {
                for v in &mut out.vals[span] {
                    *v /= s;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense(rows: usize, cols: usize, density_mod: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            if (r * 31 + c * 7) % density_mod == 0 {
                ((r * 13 + c * 5) % 9) as f64 - 4.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn from_dense_round_trips() {
        let d = sample_dense(17, 23, 4);
        let csr = CsrAdj::from_dense(&d, 0.0);
        assert!(csr.to_dense().approx_eq(&d, 0.0));
        assert_eq!(csr.nnz(), d.as_slice().iter().filter(|&&x| x != 0.0).count());
        assert_eq!(csr.row_ptr().len(), 18);
    }

    #[test]
    fn from_entries_sorts_and_merges_duplicates() {
        let csr =
            CsrAdj::from_entries(3, 3, &[(2, 1, 4.0), (0, 2, 1.0), (0, 0, 2.0), (2, 1, -1.0), (1, 1, 5.0)]);
        let expected = Matrix::from_vec(3, 3, vec![2.0, 0.0, 1.0, 0.0, 5.0, 0.0, 0.0, 3.0, 0.0]).unwrap();
        assert!(csr.to_dense().approx_eq(&expected, 0.0));
        // columns strictly increasing within each row
        for r in 0..3 {
            let cols: Vec<usize> = csr.row_entries(r).map(|(c, _)| c).collect();
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let a_dense = sample_dense(20, 30, 5);
        let x = Matrix::from_fn(30, 7, |r, c| (r as f64 + 1.0) * 0.5 - c as f64 * 0.25);
        let csr = CsrAdj::from_dense(&a_dense, 0.0);
        let sparse = csr.matmul_dense(&x);
        let dense = a_dense.matmul_naive(&x);
        assert!(sparse.approx_eq(&dense, 1e-12), "spmm != dense matmul");
    }

    #[test]
    fn matvec_and_quadratic_form_match_dense() {
        let a_dense = sample_dense(12, 12, 3);
        let csr = CsrAdj::from_dense(&a_dense, 0.0);
        let x: Vec<f64> = (0..12).map(|i| i as f64 * 0.3 - 1.0).collect();
        let y: Vec<f64> = (0..12).map(|i| 2.0 - i as f64 * 0.1).collect();
        let ay = csr.matvec(&y);
        let ay_dense = a_dense.matmul_naive(&Matrix::col_vec(&y));
        for (i, &v) in ay.iter().enumerate() {
            assert!((v - ay_dense[(i, 0)]).abs() < 1e-12);
        }
        let qf = csr.quadratic_form(&x, &y);
        let qf_dense = Matrix::row_vec(&x).matmul_naive(&ay_dense)[(0, 0)];
        assert!((qf - qf_dense).abs() < 1e-10);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a_dense = sample_dense(9, 14, 4);
        let csr = CsrAdj::from_dense(&a_dense, 0.0);
        assert!(csr.transpose().to_dense().approx_eq(&a_dense.transpose(), 0.0));
        assert_eq!(csr.transpose().transpose().to_dense(), csr.to_dense());
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let csr = CsrAdj::from_entries(3, 3, &[(0, 1, 2.0), (0, 2, 2.0), (2, 0, 5.0)]);
        let norm = csr.row_normalized();
        let d = norm.to_dense();
        assert!((d.row(0).iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(d.row(1).iter().sum::<f64>(), 0.0); // empty row untouched
        assert!((d[(2, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_parts_assembles_the_same_matrix_as_from_entries() {
        let parts = CsrAdj::from_parts(3, 4, vec![0, 2, 2, 3], vec![1, 3, 0], vec![1.0, 2.0, 5.0]);
        assert_eq!(parts, CsrAdj::from_entries(3, 4, &[(2, 0, 5.0), (0, 3, 2.0), (0, 1, 1.0)]));
    }

    #[test]
    #[should_panic(expected = "row_ptr must span every entry")]
    fn from_parts_rejects_a_short_row_ptr() {
        CsrAdj::from_parts(2, 2, vec![0, 1, 1], vec![0, 1], vec![1.0, 1.0]);
    }

    #[test]
    fn empty_matrix_spmm_is_zero() {
        let csr = CsrAdj::empty(4, 6);
        let x = Matrix::ones(6, 2);
        assert!(csr.matmul_dense(&x).approx_eq(&Matrix::zeros(4, 2), 0.0));
        assert_eq!(csr.nnz(), 0);
    }
}
