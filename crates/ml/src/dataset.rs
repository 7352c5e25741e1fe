//! Feature matrices: the dense row-major [`DenseMatrix`], and the
//! column-block view [`FactoredMatrix`] every fit trains on.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` matrix used as the feature container by every
/// estimator in this crate.
///
/// ```
/// use gdcm_ml::DenseMatrix;
///
/// let mut m = DenseMatrix::with_capacity(2, 3);
/// m.push_row(&[1.0, 2.0, 3.0]);
/// m.push_row(&[4.0, 5.0, 6.0]);
/// assert_eq!(m.n_rows(), 2);
/// assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
/// assert_eq!(m.get(0, 2), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    data: Vec<f32>,
    n_rows: usize,
    n_cols: usize,
}

impl DenseMatrix {
    /// Creates an empty matrix expecting rows of length `n_cols`.
    pub fn with_capacity(n_rows: usize, n_cols: usize) -> Self {
        Self {
            data: Vec::with_capacity(n_rows * n_cols),
            n_rows: 0,
            n_cols,
        }
    }

    /// Builds a matrix from complete row-major data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` is not `n_rows * n_cols`.
    pub fn from_vec(data: Vec<f32>, n_rows: usize, n_cols: usize) -> Self {
        assert_eq!(
            data.len(),
            n_rows * n_cols,
            "data length {} does not match {n_rows}x{n_cols}",
            data.len()
        );
        Self {
            data,
            n_rows,
            n_cols,
        }
    }

    /// Builds a matrix from equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics when the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut m = Self::with_capacity(rows.len(), n_cols);
        for r in rows {
            m.push_row(r);
        }
        m
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics when `row.len()` differs from the matrix width.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(
            row.len(),
            self.n_cols,
            "row length {} does not match width {}",
            row.len(),
            self.n_cols
        );
        self.data.extend_from_slice(row);
        self.n_rows += 1;
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data[row * self.n_cols + col]
    }

    /// Iterator over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.n_cols.max(1))
    }

    /// Copies the selected rows into a new matrix (e.g. a train split).
    pub fn select_rows(&self, indices: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::with_capacity(indices.len(), self.n_cols);
        for &i in indices {
            out.push_row(self.row(i));
        }
        out
    }

    /// Extracts column `col` as a vector.
    pub fn column(&self, col: usize) -> Vec<f32> {
        (0..self.n_rows).map(|r| self.get(r, col)).collect()
    }
}

/// Panics, naming the first bad index, unless every target is finite.
/// One NaN or infinite target would make every prediction of a fitted
/// model non-finite.
pub(crate) fn assert_finite_targets(y: &[f32]) {
    if let Some(i) = y.iter().position(|v| !v.is_finite()) {
        panic!("target {i} is {}, not finite", y[i]);
    }
}

/// One column block of a [`FactoredMatrix`]: a table of sub-rows, each
/// stored once, and the table id of every matrix row's sub-row.
///
/// A block *without* ids is the identity case: matrix row `r` reads
/// sub-row `r`, so the table holds one sub-row per matrix row.
#[derive(Debug, Clone)]
pub struct ColumnBlock<'a> {
    /// Sub-rows, row-major, `width` values each.
    table: Cow<'a, [f32]>,
    width: usize,
    /// Table id of each matrix row; `None` for the identity.
    ids: Option<Cow<'a, [u32]>>,
}

impl<'a> ColumnBlock<'a> {
    /// The identity block: row `r` of the matrix is sub-row `r` of
    /// `table`.
    pub fn identity(table: impl Into<Cow<'a, [f32]>>, width: usize) -> Self {
        Self {
            table: table.into(),
            width,
            ids: None,
        }
    }

    /// A mapped block: row `r` of the matrix is sub-row `ids[r]` of
    /// `table`. Sub-rows no id names are allowed, and take part in
    /// nothing computed from the matrix's rows.
    pub fn mapped(
        table: impl Into<Cow<'a, [f32]>>,
        width: usize,
        ids: impl Into<Cow<'a, [u32]>>,
    ) -> Self {
        Self {
            table: table.into(),
            width,
            ids: Some(ids.into()),
        }
    }

    /// The sub-rows, row-major.
    pub fn table(&self) -> &[f32] {
        &self.table
    }

    /// Columns in the block.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sub-rows in the table.
    pub fn n_entries(&self) -> usize {
        self.table.len() / self.width
    }

    /// The table id of each matrix row, or `None` for the identity.
    pub fn ids(&self) -> Option<&[u32]> {
        self.ids.as_deref()
    }

    /// The table id of matrix row `r`.
    pub(crate) fn entry(&self, r: usize) -> usize {
        self.ids.as_ref().map_or(r, |ids| ids[r] as usize)
    }
}

/// A feature matrix stored as column blocks, each a table of distinct
/// sub-rows plus one table id per row ([`ColumnBlock`]).
///
/// A training row that joins a network encoding to a device signature
/// is two ids: the matrix never has to be expanded to be binned, fitted
/// or scored. A [`DenseMatrix`] is the one-block case with identity ids
/// ([`FactoredMatrix::dense`]).
///
/// ```
/// use gdcm_ml::{ColumnBlock, FactoredMatrix};
///
/// // Two networks, two devices, three rows.
/// let networks = [1.0, 2.0, 3.0, 4.0];
/// let devices = [10.0, 20.0];
/// let x = FactoredMatrix::new(
///     3,
///     vec![
///         ColumnBlock::mapped(&networks[..], 2, vec![0, 1, 0]),
///         ColumnBlock::mapped(&devices[..], 1, vec![0, 0, 1]),
///     ],
/// );
/// assert_eq!((x.n_rows(), x.n_cols()), (3, 3));
/// assert_eq!(x.to_dense().row(2), &[1.0, 2.0, 20.0]);
/// ```
#[derive(Debug, Clone)]
pub struct FactoredMatrix<'a> {
    n_rows: usize,
    blocks: Vec<ColumnBlock<'a>>,
    /// The block of each column and the column's index inside it, so
    /// that reading a value costs no search.
    columns: Vec<(u32, u32)>,
}

impl<'a> FactoredMatrix<'a> {
    /// Lays `blocks` side by side, in order, over `n_rows` rows.
    ///
    /// # Panics
    ///
    /// Panics when a block has no columns or a table whose length is not
    /// a multiple of its width, when an identity block's table does not
    /// hold `n_rows` sub-rows, or when a mapped block does not have one
    /// id per row, each naming a sub-row of its table.
    pub fn new(n_rows: usize, blocks: Vec<ColumnBlock<'a>>) -> Self {
        let mut columns = Vec::new();
        for (b, block) in blocks.iter().enumerate() {
            assert!(
                block.width > 0 && block.table.len() % block.width == 0,
                "block {b}: a table of {} values is not whole sub-rows of width {}",
                block.table.len(),
                block.width
            );
            let entries = block.n_entries();
            match block.ids() {
                None => assert_eq!(
                    entries, n_rows,
                    "block {b}: an identity block needs one sub-row per row"
                ),
                Some(ids) => {
                    assert_eq!(ids.len(), n_rows, "block {b}: one id per row");
                    assert!(
                        ids.iter().all(|&id| (id as usize) < entries),
                        "block {b}: an id names no sub-row of its {entries}"
                    );
                }
            }
            let index = |i: usize| u32::try_from(i).expect("fewer than 2^32 columns and blocks");
            columns.extend((0..block.width).map(|c| (index(b), index(c))));
        }
        Self {
            n_rows,
            blocks,
            columns,
        }
    }

    /// `x` as one identity block, borrowing its values.
    pub fn dense(x: &'a DenseMatrix) -> Self {
        let blocks = if x.n_cols() == 0 {
            Vec::new()
        } else {
            vec![ColumnBlock::identity(&x.data[..], x.n_cols())]
        };
        Self::new(x.n_rows(), blocks)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns: the blocks' widths summed.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The column blocks, in column order.
    pub fn blocks(&self) -> &[ColumnBlock<'a>] {
        &self.blocks
    }

    /// The block holding column `col`, and the column's index inside it.
    ///
    /// # Panics
    ///
    /// Panics when `col` is out of bounds.
    pub(crate) fn locate(&self, col: usize) -> (usize, usize) {
        let (b, c) = self.columns[col];
        (b as usize, c as usize)
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub(crate) fn get(&self, row: usize, col: usize) -> f32 {
        let (b, c) = self.locate(col);
        let block = &self.blocks[b];
        block.table[block.entry(row) * block.width + c]
    }

    /// Expands the blocks into the dense matrix they stand for.
    pub fn to_dense(&self) -> DenseMatrix {
        self.head(self.n_rows)
    }

    /// Expands the first `rows` rows, or every row when there are
    /// fewer.
    pub fn head(&self, rows: usize) -> DenseMatrix {
        let rows = rows.min(self.n_rows);
        let mut data = Vec::with_capacity(rows * self.n_cols());
        for r in 0..rows {
            for block in &self.blocks {
                let start = block.entry(r) * block.width;
                data.extend_from_slice(&block.table[start..start + block.width]);
            }
        }
        DenseMatrix::from_vec(data, rows, self.n_cols())
    }
}

impl<'a> From<&'a DenseMatrix> for FactoredMatrix<'a> {
    /// [`FactoredMatrix::dense`]: one identity block.
    fn from(x: &'a DenseMatrix) -> Self {
        Self::dense(x)
    }
}

impl<'a> From<&'a FactoredMatrix<'_>> for FactoredMatrix<'a> {
    /// A view of the same blocks that borrows their tables and ids.
    fn from(x: &'a FactoredMatrix<'_>) -> Self {
        let blocks = x
            .blocks
            .iter()
            .map(|block| ColumnBlock {
                table: Cow::Borrowed(&block.table[..]),
                width: block.width,
                ids: block.ids.as_deref().map(Cow::Borrowed),
            })
            .collect();
        Self {
            n_rows: x.n_rows,
            blocks,
            columns: x.columns.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = DenseMatrix::from_vec(vec![1., 2., 3., 4., 5., 6.], 2, 3);
        assert_eq!(m.row(0), &[1., 2., 3.]);
        assert_eq!(m.get(1, 0), 4.);
        assert_eq!(m.column(1), vec![2., 5.]);
        assert_eq!(m.rows().count(), 2);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn mismatched_row_panics() {
        let mut m = DenseMatrix::with_capacity(1, 3);
        m.push_row(&[1.0]);
    }

    #[test]
    fn select_rows_copies() {
        let m = DenseMatrix::from_rows(&[vec![1., 2.], vec![3., 4.], vec![5., 6.]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5., 6.]);
        assert_eq!(s.row(1), &[1., 2.]);
    }

    #[test]
    fn empty_matrix() {
        let m = DenseMatrix::with_capacity(0, 4);
        assert!(m.is_empty());
        assert_eq!(m.rows().count(), 0);
    }

    #[test]
    fn factored_matrix_reads_through_its_ids() {
        let table = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = FactoredMatrix::new(
            4,
            vec![
                ColumnBlock::mapped(&table[..], 2, vec![2, 0, 2, 1]),
                ColumnBlock::identity(vec![7.0, 8.0, 9.0, 10.0], 1),
            ],
        );
        assert_eq!((x.n_rows(), x.n_cols()), (4, 3));
        assert_eq!(x.locate(2), (1, 0));
        assert_eq!(x.get(0, 1), 6.0);
        assert_eq!(x.get(3, 2), 10.0);
        let dense = x.to_dense();
        assert_eq!(dense.row(0), &[5.0, 6.0, 7.0]);
        assert_eq!(dense.row(1), &[1.0, 2.0, 8.0]);
        let view = FactoredMatrix::dense(&dense);
        assert_eq!(view.to_dense(), dense);
        assert_eq!(x.head(2), dense.select_rows(&[0, 1]));
        assert_eq!(x.head(9), dense);
        let borrowed = FactoredMatrix::from(&x);
        assert_eq!(borrowed.to_dense(), dense);
        assert_eq!(FactoredMatrix::from(&dense).to_dense(), dense);
    }

    #[test]
    #[should_panic(expected = "names no sub-row")]
    fn factored_matrix_refuses_an_id_past_its_table() {
        let _ = FactoredMatrix::new(1, vec![ColumnBlock::mapped(vec![1.0, 2.0], 1, vec![2])]);
    }
}
