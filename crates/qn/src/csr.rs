//! Compressed sparse row (CSR) matrices — the storage substrate of the
//! sparse CTMC engine.
//!
//! CTMC generators of MAP queueing networks are overwhelmingly sparse: a
//! state of the paper's MAP(2)×MAP(2) network (Section 4.2) has at most six
//! outgoing transitions regardless of population, so a population-100 chain
//! with ~20k states carries ~120k rates where a dense matrix would need
//! 4×10⁸ entries. [`CsrMatrix`] stores exactly the non-zeros in three flat
//! arrays (`row_ptr`/`col_idx`/`values`), giving the BiCGSTAB solver in
//! [`crate::ctmc`] contiguous, cache-friendly row access with no per-row
//! allocations. Column indices and row pointers are `u32`, so an entry costs
//! 12 bytes (an `f64` rate and a 4-byte column) instead of 16; a matrix whose
//! dimension or entry count leaves the `u32` range is refused with a typed
//! [`QnError`] at construction, never truncated.
//!
//! Two construction paths are provided:
//!
//! * [`CsrMatrix::from_triplets`] — order-insensitive, accumulates duplicate
//!   coordinates; the general-purpose entry point;
//! * [`CsrBuilder`] — streaming, for generators whose transitions are
//!   emitted grouped by source state (as
//!   [`crate::mapqn::MapNetwork`] does); assembles the CSR arrays directly
//!   with no intermediate triplet list.
//!
//! # Example
//!
//! ```
//! use burstcap_qn::csr::CsrMatrix;
//!
//! // The off-diagonal rate matrix of a two-state chain: 0 -> 1 at rate 2,
//! // 1 -> 0 at rate 3.
//! let q = CsrMatrix::from_triplets(2, [(0, 1, 2.0), (1, 0, 3.0)])?;
//! assert_eq!(q.nnz(), 2);
//! assert_eq!(q.row(0).collect::<Vec<_>>(), vec![(1, 2.0)]);
//!
//! // Transpose swaps incoming and outgoing adjacency.
//! let qt = q.transpose();
//! assert_eq!(qt.row(0).collect::<Vec<_>>(), vec![(1, 3.0)]);
//!
//! // The product gathers each row against a vector.
//! assert_eq!(q.mul_vec(&[1.0, 1.0]), vec![2.0, 3.0]);
//! # Ok::<(), burstcap_qn::QnError>(())
//! ```

use crate::QnError;

/// Stored indices widen to `usize` losslessly on the (at least 32-bit)
/// targets this crate builds for.
const _: () = assert!(usize::BITS >= 32);

/// Widen a stored `u32` index or position to `usize` (lossless, see the
/// assertion above; the fallback is unreachable).
#[inline(always)]
pub(crate) fn ix(i: u32) -> usize {
    usize::try_from(i).unwrap_or(usize::MAX)
}

/// Narrow a dimension, index or entry count to the `u32` width CSR storage
/// uses, or reject it with a typed error naming the offending quantity.
///
/// # Errors
/// [`QnError::InvalidParameter`] when `value` exceeds `u32::MAX`.
pub(crate) fn to_index(value: usize, name: &'static str) -> Result<u32, QnError> {
    u32::try_from(value).map_err(|_| QnError::InvalidParameter {
        name,
        reason: format!(
            "{value} exceeds the u32 range of CSR indices ({})",
            u32::MAX
        ),
    })
}

/// A square sparse matrix in compressed sparse row format.
///
/// Rows are stored back to back: the entries of row `i` live at positions
/// `row_ptr[i]..row_ptr[i + 1]` of the parallel `col_idx`/`values` arrays.
/// Duplicate coordinates are permitted and act additively — every consumer
/// (row iteration, the product, transpose) treats the matrix as
/// the sum of its stored entries, which is exactly the semantics CTMC
/// transition lists need. Both `n` and the entry count fit in a `u32`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build an `n × n` matrix from `(row, col, value)` triplets in any
    /// order. Duplicate coordinates accumulate; exact zeros are dropped.
    ///
    /// # Errors
    /// Rejects `n == 0`, out-of-range indices, non-finite values, and
    /// dimensions or entry counts beyond the `u32` index range.
    ///
    /// # Example
    /// ```
    /// use burstcap_qn::csr::CsrMatrix;
    /// let m = CsrMatrix::from_triplets(3, [(2, 0, 1.0), (0, 1, 2.0), (2, 0, 0.5)])?;
    /// assert_eq!(m.nnz(), 2); // the two (2, 0) entries merged
    /// assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, 1.5)]);
    /// # Ok::<(), burstcap_qn::QnError>(())
    /// ```
    pub fn from_triplets(
        n: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self, QnError> {
        if n == 0 {
            return Err(QnError::InvalidParameter {
                name: "n",
                reason: "matrix must have at least one row".into(),
            });
        }
        to_index(n, "n")?;
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        for (row, col, value) in triplets {
            if row >= n || col >= n {
                return Err(QnError::InvalidParameter {
                    name: "triplets",
                    reason: format!("index out of range: ({row}, {col}) in {n}x{n}"),
                });
            }
            if !value.is_finite() {
                return Err(QnError::InvalidParameter {
                    name: "triplets",
                    reason: format!("value at ({row}, {col}) must be finite, got {value}"),
                });
            }
            if value != 0.0 {
                entries.push((row, col, value));
            }
        }
        to_index(entries.len(), "triplets")?;
        // Counting sort by row, then order and merge within each row.
        let mut counts = vec![0usize; n + 1];
        for &(row, _, _) in &entries {
            counts[row + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut slots = counts.clone();
        let nnz_upper = entries.len();
        let mut col_idx = vec![0u32; nnz_upper];
        let mut values = vec![0.0f64; nnz_upper];
        for &(row, col, value) in &entries {
            let at = slots[row];
            col_idx[at] = to_index(col, "triplets")?;
            values[at] = value;
            slots[row] += 1;
        }
        // Merge duplicates row by row, compacting in place.
        let mut row_ptr = vec![0u32; n + 1];
        let mut write = 0usize;
        for row in 0..n {
            let (start, end) = (counts[row], counts[row + 1]);
            let mut pairs: Vec<(u32, f64)> = col_idx[start..end]
                .iter()
                .copied()
                .zip(values[start..end].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(c, _)| c);
            let row_start = write;
            row_ptr[row] = to_index(write, "triplets")?;
            for (col, value) in pairs {
                if write > row_start && col_idx[write - 1] == col {
                    values[write - 1] += value;
                } else {
                    col_idx[write] = col;
                    values[write] = value;
                    write += 1;
                }
            }
        }
        row_ptr[n] = to_index(write, "triplets")?;
        col_idx.truncate(write);
        values.truncate(write);
        Ok(CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Start a streaming row-grouped builder (see [`CsrBuilder`]). The row
    /// pointers are reserved exactly, so assembly never holds a doubled
    /// buffer next to the entries.
    ///
    /// # Errors
    /// Rejects a dimension beyond the `u32` index range, before allocating.
    pub fn builder(n: usize) -> Result<CsrBuilder, QnError> {
        to_index(n, "n")?;
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        Ok(CsrBuilder {
            n,
            row_ptr,
            col_idx: Vec::new(),
            values: Vec::new(),
        })
    }

    /// Matrix dimension (the matrix is `n × n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate the stored `(col, value)` pairs of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.n()`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, vals) = self.row_slices(i);
        cols.iter().map(|&j| ix(j)).zip(vals.iter().copied())
    }

    /// The column-index and value slices of row `i` (parallel arrays).
    ///
    /// # Panics
    /// Panics if `i >= self.n()`.
    pub fn row_slices(&self, i: usize) -> (&[u32], &[f64]) {
        let (start, end) = (ix(self.row_ptr[i]), ix(self.row_ptr[i + 1]));
        (&self.col_idx[start..end], &self.values[start..end])
    }

    /// The three CSR arrays `(row_ptr, col_idx, values)`, for the kernels of
    /// [`crate::ctmc`] that split each row at its diagonal.
    pub(crate) fn parts(&self) -> (&[u32], &[u32], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Iterate every stored entry as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| self.row(i).map(move |(j, v)| (i, j, v)))
    }

    /// The transpose, computed in `O(n + nnz)` by counting sort. Within each
    /// output row, entries appear in increasing column order (and duplicates
    /// are preserved, not merged).
    pub fn transpose(&self) -> CsrMatrix {
        let n = self.n;
        let mut row_ptr = vec![0u32; n + 1];
        for &col in &self.col_idx {
            row_ptr[ix(col) + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut slots = row_ptr.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        // Row numbers are below n, which construction keeps inside u32.
        for (row, ends) in (0u32..).zip(self.row_ptr.windows(2)) {
            let (start, end) = (ix(ends[0]), ix(ends[1]));
            for (&col, &value) in self.col_idx[start..end]
                .iter()
                .zip(&self.values[start..end])
            {
                let slot = &mut slots[ix(col)];
                col_idx[ix(*slot)] = row;
                values[ix(*slot)] = value;
                *slot += 1;
            }
        }
        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Merge runs of entries sharing a column within each row (summing
    /// their values). Complete deduplication when every row's columns are
    /// sorted — as [`CsrMatrix::transpose`] guarantees — which is how the
    /// CTMC constructors keep duplicate transitions additive *and* counted
    /// once regardless of assembly path.
    pub(crate) fn merge_adjacent_duplicates(mut self) -> CsrMatrix {
        // Compacts in place: `write` never passes the read position, so row
        // starts are rewritten only after their old value has been read.
        let mut write = 0u32;
        let mut start = 0u32;
        for row in 0..self.n {
            let end = self.row_ptr[row + 1];
            self.row_ptr[row] = write;
            let row_start = write;
            for read in ix(start)..ix(end) {
                if write > row_start && self.col_idx[ix(write) - 1] == self.col_idx[read] {
                    self.values[ix(write) - 1] += self.values[read];
                } else {
                    self.col_idx[ix(write)] = self.col_idx[read];
                    self.values[ix(write)] = self.values[read];
                    write += 1;
                }
            }
            start = end;
        }
        self.row_ptr[self.n] = write;
        self.col_idx.truncate(ix(write));
        self.values.truncate(ix(write));
        self
    }

    /// Matrix–vector product `y = A x` (row-major gather).
    ///
    /// # Panics
    /// Panics if `x.len() != self.n()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch in mul_vec");
        (0..self.n)
            .map(|i| self.row(i).map(|(j, v)| v * x[j]).sum())
            .collect()
    }
}

/// Streaming CSR assembly for entries grouped by row.
///
/// [`push`](CsrBuilder::push) accepts entries whose row indices never
/// decrease; the CSR arrays are written directly with no intermediate
/// triplet list or sort — the fast path used by
/// [`crate::mapqn::MapNetwork`], whose state enumeration emits transitions
/// in flat-index order. Duplicate `(row, col)` pairs are kept as separate
/// entries (which all consumers treat additively).
///
/// # Example
/// ```
/// use burstcap_qn::csr::CsrMatrix;
/// let mut b = CsrMatrix::builder(3)?;
/// b.push(0, 1, 2.0)?;
/// b.push(0, 2, 1.0)?;
/// b.push(2, 0, 4.0)?; // row 1 is empty; rows may only move forward
/// let m = b.finish();
/// assert_eq!(m.nnz(), 3);
/// assert_eq!(m.row(1).count(), 0);
/// # Ok::<(), burstcap_qn::QnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    n: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// Append an entry. Rows must arrive in non-decreasing order; exact
    /// zeros are dropped.
    ///
    /// # Errors
    /// Rejects out-of-range indices, non-finite values, a `row` smaller
    /// than the last pushed row, and an entry past the `u32` index range.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), QnError> {
        if row >= self.n || col >= self.n {
            return Err(QnError::InvalidParameter {
                name: "entry",
                reason: format!("index out of range: ({row}, {col}) in {n}x{n}", n = self.n),
            });
        }
        if !value.is_finite() {
            return Err(QnError::InvalidParameter {
                name: "entry",
                reason: format!("value at ({row}, {col}) must be finite, got {value}"),
            });
        }
        let current = self.row_ptr.len() - 1;
        if row < current {
            return Err(QnError::InvalidParameter {
                name: "entry",
                reason: format!("row {row} pushed after row {current}: rows must not decrease"),
            });
        }
        // `builder` bounded n, so the column fits; the position is checked.
        let end = to_index(self.col_idx.len(), "entry")?;
        while self.row_ptr.len() <= row {
            self.row_ptr.push(end);
        }
        if value != 0.0 {
            to_index(self.col_idx.len() + 1, "entry")?;
            self.col_idx.push(to_index(col, "entry")?);
            self.values.push(value);
        }
        Ok(())
    }

    /// Reserve capacity for `additional` further entries.
    pub fn reserve(&mut self, additional: usize) {
        self.col_idx.reserve(additional);
        self.values.reserve(additional);
    }

    /// Number of entries pushed so far.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Close any trailing empty rows and return the finished matrix.
    pub fn finish(mut self) -> CsrMatrix {
        // `push` kept the entry count inside u32; the fallback is unreachable.
        let end = u32::try_from(self.col_idx.len()).unwrap_or(u32::MAX);
        while self.row_ptr.len() <= self.n {
            self.row_ptr.push(end);
        }
        CsrMatrix {
            n: self.n,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            values: self.values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(m: &CsrMatrix) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; m.n()]; m.n()];
        for (i, j, v) in m.iter() {
            d[i][j] += v;
        }
        d
    }

    #[test]
    fn triplets_sort_and_merge() {
        let m = CsrMatrix::from_triplets(
            3,
            [
                (2, 1, 1.0),
                (0, 2, 3.0),
                (0, 1, 2.0),
                (2, 1, 0.5),
                (1, 0, 4.0),
            ],
        )
        .unwrap();
        assert_eq!(m.n(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(1, 2.0), (2, 3.0)]);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(1, 1.5)]);
    }

    #[test]
    fn triplets_drop_zeros() {
        let m = CsrMatrix::from_triplets(2, [(0, 1, 0.0), (1, 0, 1.0)]).unwrap();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn triplets_validation() {
        assert!(CsrMatrix::from_triplets(0, []).is_err());
        assert!(CsrMatrix::from_triplets(2, [(0, 2, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, [(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, [(0, 1, f64::NAN)]).is_err());
        assert!(CsrMatrix::from_triplets(2, [(0, 1, f64::INFINITY)]).is_err());
    }

    #[test]
    fn builder_matches_triplets() {
        let triplets = [(0, 1, 2.0), (0, 2, 3.0), (1, 0, 4.0), (2, 1, 1.0)];
        let a = CsrMatrix::from_triplets(3, triplets).unwrap();
        let mut b = CsrMatrix::builder(3).unwrap();
        for (i, j, v) in triplets {
            b.push(i, j, v).unwrap();
        }
        assert_eq!(b.nnz(), 4);
        assert_eq!(a, b.finish());
    }

    #[test]
    fn builder_skips_rows_and_rejects_backwards() {
        let mut b = CsrMatrix::builder(4).unwrap();
        b.push(1, 0, 1.0).unwrap();
        b.push(3, 2, 2.0).unwrap();
        assert!(b.push(2, 0, 1.0).is_err(), "row went backwards");
        assert!(b.push(1, 4, 1.0).is_err(), "column out of range");
        assert!(b.push(4, 0, 1.0).is_err(), "row out of range");
        assert!(b.push(3, 0, f64::NAN).is_err(), "non-finite value");
        let m = b.finish();
        assert_eq!(m.row(0).count(), 0);
        assert_eq!(m.row(1).collect::<Vec<_>>(), vec![(0, 1.0)]);
        assert_eq!(m.row(2).count(), 0);
        assert_eq!(m.row(3).collect::<Vec<_>>(), vec![(2, 2.0)]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_triplets(
            4,
            [
                (0, 1, 2.0),
                (1, 3, 3.0),
                (2, 0, 4.0),
                (3, 2, 5.0),
                (3, 0, 6.0),
            ],
        )
        .unwrap();
        let t = m.transpose();
        assert_eq!(t.nnz(), m.nnz());
        let (d, dt) = (dense(&m), dense(&t));
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(d[i][j], dt[j][i]);
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn merge_adjacent_duplicates_compacts_sorted_rows() {
        let mut b = CsrMatrix::builder(3).unwrap();
        b.push(0, 1, 1.0).unwrap();
        b.push(0, 1, 2.0).unwrap();
        b.push(0, 2, 3.0).unwrap();
        b.push(2, 0, 4.0).unwrap();
        b.push(2, 0, 0.5).unwrap();
        let m = b.finish().merge_adjacent_duplicates();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(1, 3.0), (2, 3.0)]);
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, 4.5)]);
    }

    #[test]
    fn mul_vec_gathers_rows() {
        let m = CsrMatrix::from_triplets(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 0, 3.0)]).unwrap();
        let y = m.mul_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![2.0 * 2.0 + 3.0, 3.0, 0.0]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn u32_index_guard_is_a_typed_error() {
        // The guard itself, and the constructors that call it before they
        // allocate: no chain of 2^32 states is ever built.
        let past = usize::try_from(u32::MAX).unwrap() + 1;
        assert_eq!(to_index(past - 1, "n"), Ok(u32::MAX));
        let refused = |r: Result<(), QnError>, what: &str| {
            assert!(
                matches!(r, Err(QnError::InvalidParameter { .. })),
                "{what}: {r:?}"
            );
        };
        refused(to_index(past, "n").map(drop), "to_index");
        refused(CsrMatrix::builder(past).map(drop), "builder");
        refused(
            CsrMatrix::from_triplets(past, []).map(drop),
            "from_triplets",
        );
        let net = crate::mapqn::MapNetwork::tandem(
            300,
            0.5,
            vec![burstcap_map::Map2::poisson(1.0).unwrap(); 4],
        )
        .unwrap()
        .state_limit(usize::MAX);
        assert!(net.state_count() > past);
        refused(net.outgoing_csr().map(drop), "outgoing_csr");
    }

    #[test]
    fn empty_rows_everywhere() {
        let m = CsrMatrix::from_triplets(3, []).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.transpose().nnz(), 0);
        assert_eq!(m.mul_vec(&[1.0; 3]), vec![0.0; 3]);
        for i in 0..3 {
            assert_eq!(m.row(i).count(), 0);
        }
    }
}
