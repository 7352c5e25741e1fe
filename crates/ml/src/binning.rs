//! Quantile binning of feature matrices for histogram-based tree learning.
//!
//! Two constructors build the same [`BinnedMatrix`], each on the
//! `gdcm-par` pool: contiguous feature groups, one per thread, each
//! writing its columns' codes in place. A feature's cuts and codes come
//! from the same serial code whichever group it lands in, so the grid
//! is bitwise the same at any thread count.
//!
//! - [`BinnedMatrix::from_factored`] bins a [`FactoredMatrix`], and is
//!   what every fit calls. It cuts a column from the (value, count) runs
//!   of the table entries its rows reference, and codes each table entry
//!   once.
//! - [`BinnedMatrix::from_matrix`] bins a [`DenseMatrix`] by gathering
//!   and sorting each column's values. It is the reference the
//!   agreement tests hold `from_factored` to: the two compute the cuts
//!   their own ways, so their agreement is a check. Auditors call
//!   neither; `gdcm-audit` cuts its own grid from the column blocks.
//!
//! Both follow one quantile rule, and so does the auditor's rebuild.
//! When no quantile gives a cut below the max, the single fallback cut
//! is the value at position `(n - 1) / 2` of the sorted column. That
//! value is the max itself when low values are rare (84 zeros and 8,988
//! ones at 64 bins give the cuts `[1.0]`), and then the feature has one
//! usable bin yet is not flagged constant, so no tree can split on it.
//! The rule is kept: a new one would need every snapshot to record which
//! rule cut its grid.

use std::borrow::Cow;
use std::ops::Range;

use crate::dataset::{DenseMatrix, FactoredMatrix};

/// Maximum number of bins a feature may use.
///
/// Bin codes are stored as `u8`, so a budget above 256 would silently
/// truncate codes and corrupt every histogram built from them. Both
/// constructors therefore reject larger budgets outright instead of
/// clamping — a caller asking for more bins than the storage can
/// represent has a configuration bug worth surfacing.
pub const MAX_BINS: usize = 256;

/// A feature matrix quantized to per-feature quantile bins, stored
/// column-major for cache-friendly histogram accumulation.
///
/// Codes follow the column blocks of the matrix they were built from: a
/// block's codes cover its table entries, column by column, and its ids
/// map each row to an entry. [`BinnedMatrix::from_matrix`] builds one
/// identity block, so a feature's codes are one per row.
///
/// Constant (zero-variance) features are detected and flagged so tree
/// learners can skip them — important for the padded layer-wise network
/// encodings, where many columns are identically zero.
#[derive(Debug, Clone)]
pub struct BinnedMatrix {
    n_rows: usize,
    n_features: usize,
    /// Column blocks, in feature order.
    blocks: Vec<CodeBlock>,
    /// Codes, feature by feature: feature `f` of block `b` owns
    /// `b.entries` codes from `b.offset + (f - b.first) * b.entries`,
    /// one per table entry. An identity block is `codes[f * n_rows + r]`.
    codes: Vec<u8>,
    /// Per-feature ascending cut points; code `i` means
    /// `value <= cuts[i]` for `i < cuts.len()`, and the last code means
    /// `value > cuts.last()`.
    cuts: Vec<Vec<f32>>,
    /// Features with fewer than two distinct values.
    constant: Vec<bool>,
}

/// The codes of one column block.
#[derive(Debug, Clone)]
struct CodeBlock {
    /// The block's first feature; it runs to the next block's.
    first: usize,
    /// Table entries, and so codes per feature.
    entries: usize,
    /// Where the block's first feature starts in `codes`.
    offset: usize,
    /// Table entry of each row; `None` for the identity.
    ids: Option<Vec<u32>>,
}

/// One feature's codes, read by row through its block's ids.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CodeColumn<'a> {
    /// One code per table entry.
    pub(crate) codes: &'a [u8],
    ids: Option<&'a [u32]>,
}

impl CodeColumn<'_> {
    /// The code of row `r`.
    pub(crate) fn code(&self, r: usize) -> u8 {
        self.codes[self.ids.map_or(r, |ids| ids[r] as usize)]
    }
}

fn check_max_bins(max_bins: usize) {
    assert!(
        (1..=MAX_BINS).contains(&max_bins),
        "max_bins must be in 1..=256, got {max_bins}"
    );
}

/// Bins contiguous feature groups on the `gdcm-par` pool, one group per
/// thread: `bin_group(features, codes)` fills the group's slice of the
/// code buffer and returns its cuts, and `len(f)` is feature `f`'s
/// number of codes. Returns the cuts in feature order.
fn bin_on_pool<B>(
    codes: &mut [u8],
    n_features: usize,
    len: impl Fn(usize) -> usize,
    bin_group: B,
) -> Vec<Vec<f32>>
where
    B: Fn(Range<usize>, &mut [u8]) -> Vec<Vec<f32>> + Sync,
{
    let pool = gdcm_par::pool();
    let group_len = n_features.div_ceil(pool.threads()).max(1);
    let bin_group = &bin_group;
    pool.scope(|scope| {
        let mut rest: &mut [u8] = codes;
        let tasks: Vec<_> = (0..n_features)
            .step_by(group_len)
            .map(|first| {
                let features = first..(first + group_len).min(n_features);
                let n_codes = features.clone().map(&len).sum();
                let (cols, tail) = std::mem::take(&mut rest).split_at_mut(n_codes);
                rest = tail;
                scope.spawn(move || bin_group(features, cols))
            })
            .collect();
        tasks.into_iter().flat_map(gdcm_par::Task::join).collect()
    })
}

impl BinnedMatrix {
    /// Bins `x` into at most `max_bins` quantile bins per feature, one
    /// feature group per `gdcm-par` thread (see the module docs), by
    /// sorting each column's values. The grid is bitwise the one
    /// [`BinnedMatrix::from_factored`] builds on any blocks that expand
    /// to `x`.
    ///
    /// # Panics
    ///
    /// Panics when `max_bins` is 0 or exceeds [`MAX_BINS`] — codes are
    /// `u8`, so 257 bins cannot be represented and must not be clamped
    /// silently (see [`MAX_BINS`]).
    pub fn from_matrix(x: &DenseMatrix, max_bins: usize) -> Self {
        check_max_bins(max_bins);
        let n_rows = x.n_rows();
        let n_features = x.n_cols();
        let mut codes = vec![0u8; n_rows * n_features];
        let cuts = bin_on_pool(
            &mut codes,
            n_features,
            |_| n_rows,
            |features, cols| bin_features(x, features, cols, max_bins),
        );
        let blocks = vec![CodeBlock {
            first: 0,
            entries: n_rows,
            offset: 0,
            ids: None,
        }];
        Self::assemble(n_rows, blocks, codes, cuts)
    }

    /// Bins the column blocks of `x` into at most `max_bins` quantile
    /// bins per feature, one feature group per `gdcm-par` thread, without
    /// expanding them.
    ///
    /// A column's cuts come from the (value, count) runs of the table
    /// entries the rows reference, each count the number of rows that
    /// reference the entry, and a cut's position in the expanded sorted
    /// column is index arithmetic on the runs. So a mapped block's column
    /// sorts at most one value per table entry, and an entry no row
    /// references takes no part. Each table entry is coded once. The
    /// grid is bitwise the one [`BinnedMatrix::from_matrix`] builds on
    /// `x.to_dense()`.
    ///
    /// # Panics
    ///
    /// Panics when `max_bins` is 0 or exceeds [`MAX_BINS`], or when `x`
    /// has 2^32 rows or more, which a table entry's `u32` row count
    /// could not hold.
    pub fn from_factored(x: &FactoredMatrix<'_>, max_bins: usize) -> Self {
        check_max_bins(max_bins);
        assert!(
            u32::try_from(x.n_rows()).is_ok(),
            "{} rows overflow a u32 row count",
            x.n_rows()
        );
        // Rows per table entry of each mapped block.
        let counts: Vec<Option<Vec<u32>>> = x
            .blocks()
            .iter()
            .map(|block| {
                block.ids().map(|ids| {
                    let mut counts = vec![0u32; block.n_entries()];
                    for &id in ids {
                        counts[id as usize] += 1;
                    }
                    counts
                })
            })
            .collect();
        let mut blocks = Vec::with_capacity(x.blocks().len());
        let (mut first, mut offset) = (0, 0);
        for block in x.blocks() {
            blocks.push(CodeBlock {
                first,
                entries: block.n_entries(),
                offset,
                ids: block.ids().map(<[u32]>::to_vec),
            });
            first += block.width();
            offset += block.width() * block.n_entries();
        }
        let mut codes = vec![0u8; offset];
        let cuts = bin_on_pool(
            &mut codes,
            x.n_cols(),
            |f| x.blocks()[x.locate(f).0].n_entries(),
            |features, cols| bin_factored_features(x, &counts, features, cols, max_bins),
        );
        Self::assemble(x.n_rows(), blocks, codes, cuts)
    }

    fn assemble(
        n_rows: usize,
        blocks: Vec<CodeBlock>,
        codes: Vec<u8>,
        cuts: Vec<Vec<f32>>,
    ) -> Self {
        let constant = cuts.iter().map(Vec::is_empty).collect();
        Self {
            n_rows,
            n_features: cuts.len(),
            blocks,
            codes,
            cuts,
            constant,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Whether feature `f` is constant over the training rows.
    pub fn is_constant(&self, f: usize) -> bool {
        self.constant[f]
    }

    /// The code of every row for feature `f`, in row order: borrowed when
    /// the feature's block is the identity, gathered through its ids
    /// otherwise.
    pub fn feature_codes(&self, f: usize) -> Cow<'_, [u8]> {
        let column = self.column(f);
        match column.ids {
            None => Cow::Borrowed(column.codes),
            Some(ids) => Cow::Owned(ids.iter().map(|&e| column.codes[e as usize]).collect()),
        }
    }

    /// Feature `f`'s codes, one per table entry of its block, and the
    /// block's ids.
    pub(crate) fn column(&self, f: usize) -> CodeColumn<'_> {
        let block = &self.blocks[self.block_of(f)];
        let start = block.offset + (f - block.first) * block.entries;
        CodeColumn {
            codes: &self.codes[start..start + block.entries],
            ids: block.ids.as_deref(),
        }
    }

    /// Number of column blocks.
    pub(crate) fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The column block feature `f` belongs to.
    pub(crate) fn block_of(&self, f: usize) -> usize {
        self.blocks.partition_point(|b| b.first <= f) - 1
    }

    /// Block `b`'s table entry of each row; `None` for the identity.
    pub(crate) fn block_ids(&self, b: usize) -> Option<&[u32]> {
        self.blocks[b].ids.as_deref()
    }

    /// Block `b`'s number of table entries.
    pub(crate) fn block_entries(&self, b: usize) -> usize {
        self.blocks[b].entries
    }

    /// Bytes held by the codes and by the blocks' ids.
    pub fn heap_bytes(&self) -> (usize, usize) {
        let ids = self
            .blocks
            .iter()
            .filter_map(|b| b.ids.as_ref())
            .map(|ids| ids.len() * std::mem::size_of::<u32>())
            .sum();
        (self.codes.len(), ids)
    }

    /// Number of bins used by feature `f` (`cuts + 1`).
    pub fn n_bins(&self, f: usize) -> usize {
        self.cuts[f].len() + 1
    }

    /// Largest per-feature bin count in this matrix (1 when there are no
    /// features); never above [`MAX_BINS`].
    pub fn max_n_bins(&self) -> usize {
        (0..self.n_features)
            .map(|f| self.n_bins(f))
            .max()
            .unwrap_or(1)
    }

    /// The raw-value threshold corresponding to splitting feature `f`
    /// after bin `bin` (rows with `value <= threshold` go left).
    pub fn threshold(&self, f: usize, bin: u8) -> f32 {
        self.cuts[f][bin as usize]
    }

    /// The ascending cut points of feature `f` (empty for constant
    /// features). Code `i` means `value <= cuts[i]` for `i < cuts.len()`
    /// and `value > cuts.last()` for the final code.
    ///
    /// Exposed so frozen models ([`crate::FrozenGbdt`]) can carry the
    /// exact training grid and so the flatcheck auditor can compare a
    /// frozen grid bitwise against a deterministic rebuild.
    pub fn cuts(&self, f: usize) -> &[f32] {
        &self.cuts[f]
    }
}

/// Bins the contiguous `features` of `x`, writing their column-major
/// codes into `cols` (`features.len() × n_rows` bytes) and returning
/// their cuts in feature order.
fn bin_features(
    x: &DenseMatrix,
    features: Range<usize>,
    cols: &mut [u8],
    max_bins: usize,
) -> Vec<Vec<f32>> {
    let n_rows = x.n_rows();
    let mut values: Vec<f32> = Vec::with_capacity(n_rows);
    features
        .enumerate()
        .map(|(i, f)| {
            values.clear();
            values.extend((0..n_rows).map(|r| x.get(r, f)));
            let feature_cuts = quantile_cuts(&values, max_bins);
            let col = &mut cols[i * n_rows..(i + 1) * n_rows];
            for (code, &v) in col.iter_mut().zip(&values) {
                *code = bin_code(&feature_cuts, v);
            }
            feature_cuts
        })
        .collect()
}

/// Ascending, deduplicated cut points at (approximately) uniform quantiles.
/// Returns an empty vector for constant features.
fn quantile_cuts(values: &[f32], max_bins: usize) -> Vec<f32> {
    if values.is_empty() || max_bins < 2 {
        return Vec::new();
    }
    let mut sorted: Vec<f32> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return Vec::new();
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = sorted.len();
    if sorted[0] == sorted[n - 1] {
        return Vec::new();
    }
    let mut cuts = Vec::with_capacity(max_bins - 1);
    for i in 1..max_bins {
        let q = i as f64 / max_bins as f64;
        let idx = ((q * (n - 1) as f64).round() as usize).min(n - 1);
        let v = sorted[idx];
        if cuts.last() != Some(&v) && v < sorted[n - 1] {
            cuts.push(v);
        }
    }
    // The fallback cut at position (n - 1) / 2. It separates min from
    // max only when it is below the max; when low values are rare it is
    // the max itself (see the module docs).
    if cuts.is_empty() {
        cuts.push(sorted[(n - 1) / 2]);
    }
    cuts
}

/// Bins the contiguous `features` of `x`, writing each one's codes, one
/// per table entry of its block, into `cols` in feature order and
/// returning their cuts. `counts` holds each mapped block's rows per
/// entry.
fn bin_factored_features(
    x: &FactoredMatrix<'_>,
    counts: &[Option<Vec<u32>>],
    features: Range<usize>,
    cols: &mut [u8],
    max_bins: usize,
) -> Vec<Vec<f32>> {
    let mut values = Vec::new();
    let mut pairs = Vec::new();
    let mut runs = Vec::new();
    let mut rest = cols;
    features
        .map(|f| {
            let (b, c) = x.locate(f);
            let block = &x.blocks()[b];
            let width = block.width();
            values.clear();
            values.extend(block.table().iter().skip(c).step_by(width));
            let zeros_in_row_order = || {
                (0..x.n_rows())
                    .map(|r| values[block.entry(r)])
                    .filter(|&v| v == 0.0)
                    .collect()
            };
            let feature_cuts = run_quantile_cuts(
                &values,
                counts[b].as_deref(),
                zeros_in_row_order,
                max_bins,
                &mut pairs,
                &mut runs,
            );
            let (col, tail) = std::mem::take(&mut rest).split_at_mut(values.len());
            rest = tail;
            for (code, &v) in col.iter_mut().zip(&values) {
                *code = bin_code(&feature_cuts, v);
            }
            feature_cuts
        })
        .collect()
}

/// [`quantile_cuts`] of the column that repeats `values[e]` `counts[e]`
/// times for each table entry `e` (once each when `counts` is `None`),
/// computed without expanding it.
///
/// The finite values with a non-zero count are sorted and merged into
/// runs of equal values, each run ending at its position one past the
/// last in the expanded sorted column, and the quantile at position
/// `idx` is the value of the run that spans `idx`. The rules are
/// [`quantile_cuts`]'s, position for position: non-finite values are
/// left out of *n*, a column is constant when its min equals its max,
/// cuts must be below the max and are deduplicated with `!=`, and the
/// fallback is the value at `(n - 1) / 2`.
///
/// −0.0 and +0.0 compare equal, so they share a run, and the expanded
/// stable sort keeps them in row order. When a run holds zeros of both
/// signs, `zeros_in_row_order()` gives the sign of each zero in that
/// order.
fn run_quantile_cuts(
    values: &[f32],
    counts: Option<&[u32]>,
    zeros_in_row_order: impl FnOnce() -> Vec<f32>,
    max_bins: usize,
    pairs: &mut Vec<(f32, u32)>,
    runs: &mut Vec<(f32, usize)>,
) -> Vec<f32> {
    if max_bins < 2 {
        return Vec::new();
    }
    pairs.clear();
    pairs.extend(values.iter().enumerate().filter_map(|(e, &v)| {
        let count = counts.map_or(1, |c| c[e]);
        (count > 0 && v.is_finite()).then_some((v, count))
    }));
    pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    runs.clear();
    let mut mixed_zeros = false;
    for &(v, count) in pairs.iter() {
        let count = count as usize;
        match runs.last_mut() {
            Some((last, end)) if *last == v => {
                mixed_zeros |= last.to_bits() != v.to_bits();
                *end += count;
            }
            _ => {
                let start = runs.last().map_or(0, |&(_, end)| end);
                runs.push((v, start + count));
            }
        }
    }
    let (Some(&(min, _)), Some(&(max, n))) = (runs.first(), runs.last()) else {
        return Vec::new();
    };
    if min == max {
        return Vec::new();
    }
    let zeros = if mixed_zeros {
        zeros_in_row_order()
    } else {
        Vec::new()
    };
    let at = |idx: usize| {
        let run = runs.partition_point(|&(_, end)| end <= idx);
        let v = runs[run].0;
        if v == 0.0 && mixed_zeros {
            let start = run.checked_sub(1).map_or(0, |prev| runs[prev].1);
            zeros[idx - start]
        } else {
            v
        }
    };
    let mut cuts = Vec::with_capacity(max_bins - 1);
    for i in 1..max_bins {
        let q = i as f64 / max_bins as f64;
        let idx = ((q * (n - 1) as f64).round() as usize).min(n - 1);
        let v = at(idx);
        if cuts.last() != Some(&v) && v < max {
            cuts.push(v);
        }
    }
    // The fallback cut at position (n - 1) / 2, which is the max itself
    // when low values are rare (see the module docs).
    if cuts.is_empty() {
        cuts.push(at((n - 1) / 2));
    }
    cuts
}

/// Bin code for `v` given ascending cut points: the number of cuts
/// strictly below `v` (i.e. `v <= cuts[code]` when `code < cuts.len()`).
///
/// This is **the** quantizer: training (both [`BinnedMatrix`]
/// constructors), frozen-model inference ([`crate::FrozenGbdt`]), and the flatcheck
/// auditor all call this exact function, so the soundness argument
/// "`bin_code(cuts, v) <= b  ⟺  v <= cuts[b]` for strictly ascending
/// cuts" covers every consumer at once.
pub fn bin_code(cuts: &[f32], v: f32) -> u8 {
    let mut lo = 0usize;
    let mut hi = cuts.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if v <= cuts[mid] {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_feature_flagged() {
        let x = DenseMatrix::from_rows(&[vec![1.0, 5.0], vec![1.0, 6.0], vec![1.0, 7.0]]);
        let b = BinnedMatrix::from_matrix(&x, 16);
        assert!(b.is_constant(0));
        assert!(!b.is_constant(1));
    }

    #[test]
    fn codes_are_monotone_in_value() {
        let rows: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32]).collect();
        let x = DenseMatrix::from_rows(&rows);
        let b = BinnedMatrix::from_matrix(&x, 16);
        let codes = b.feature_codes(0);
        for w in codes.windows(2) {
            assert!(w[0] <= w[1], "codes must be monotone");
        }
        assert!(b.n_bins(0) <= 16);
        assert!(b.n_bins(0) >= 2);
    }

    #[test]
    fn threshold_separates_bins() {
        let rows: Vec<Vec<f32>> = (0..50).map(|i| vec![(i % 10) as f32]).collect();
        let x = DenseMatrix::from_rows(&rows);
        let b = BinnedMatrix::from_matrix(&x, 8);
        let codes = b.feature_codes(0);
        for (r, &c) in codes.iter().enumerate() {
            let v = x.get(r, 0);
            if (c as usize) < b.n_bins(0) - 1 {
                assert!(v <= b.threshold(0, c), "row {r}: {v} > bin {c} threshold");
            }
            if c > 0 {
                assert!(v > b.threshold(0, c - 1));
            }
        }
    }

    #[test]
    fn two_distinct_values_get_two_bins() {
        let x = DenseMatrix::from_rows(&[vec![0.0], vec![0.0], vec![1.0]]);
        let b = BinnedMatrix::from_matrix(&x, 256);
        assert_eq!(b.n_bins(0), 2);
        assert_eq!(b.feature_codes(0)[..], [0, 0, 1]);
    }

    #[test]
    fn bin_code_binary_search_matches_linear() {
        let cuts = vec![1.0, 3.0, 7.0];
        for (v, want) in [
            (0.5, 0),
            (1.0, 0),
            (2.0, 1),
            (3.0, 1),
            (5.0, 2),
            (7.0, 2),
            (9.0, 3),
        ] {
            assert_eq!(bin_code(&cuts, v), want, "v={v}");
        }
    }

    #[test]
    #[should_panic(expected = "max_bins")]
    fn zero_bins_panics() {
        let x = DenseMatrix::from_rows(&[vec![1.0]]);
        let _ = BinnedMatrix::from_matrix(&x, 0);
    }

    #[test]
    fn exactly_256_bins_is_accepted_and_codes_stay_faithful() {
        // 300 distinct values under a 256-bin budget: every code must
        // still round-trip through u8 without truncation.
        let rows: Vec<Vec<f32>> = (0..300).map(|i| vec![i as f32]).collect();
        let x = DenseMatrix::from_rows(&rows);
        let b = BinnedMatrix::from_matrix(&x, MAX_BINS);
        assert!(b.n_bins(0) <= MAX_BINS);
        assert!(b.max_n_bins() <= MAX_BINS);
        let codes = b.feature_codes(0);
        for w in codes.windows(2) {
            assert!(w[0] <= w[1], "codes must stay monotone at the boundary");
        }
        assert_eq!(codes[0], 0);
        assert_eq!(codes[299] as usize, b.n_bins(0) - 1);
    }

    #[test]
    #[should_panic(expected = "max_bins")]
    fn bins_above_u8_range_are_rejected_not_truncated() {
        let x = DenseMatrix::from_rows(&[vec![1.0], vec![2.0]]);
        let _ = BinnedMatrix::from_matrix(&x, MAX_BINS + 1);
    }

    #[test]
    fn max_n_bins_tracks_widest_feature() {
        // Feature 0: 2 distinct values -> 2 bins. Feature 1: many.
        let rows: Vec<Vec<f32>> = (0..64).map(|i| vec![(i % 2) as f32, i as f32]).collect();
        let x = DenseMatrix::from_rows(&rows);
        let b = BinnedMatrix::from_matrix(&x, 32);
        assert_eq!(b.max_n_bins(), b.n_bins(1));
        assert!(b.max_n_bins() > b.n_bins(0));
    }
}
