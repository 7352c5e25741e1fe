//! The auditor's own rebuild of a fit's bin grid.
//!
//! A fitted tree splits only at cuts of the grid its training rows were
//! binned on, and a frozen model carries that grid. Both checks compare
//! against a grid the auditor cuts itself, from the same rows at the
//! same bin budget, so a grid the fit got wrong cannot certify itself.
//! The rebuild reads the rows' column blocks ([`FactoredMatrix`]) and
//! calls neither `BinnedMatrix` constructor.
//!
//! A column is cut from the (value, reference count) pairs of the table
//! entries its rows use: an entry no row references takes part in
//! nothing. The pairs are sorted by value and the quantile positions of
//! the expanded sorted column are found by their cumulative counts, with
//! the rules of the fit's quantile binning: *n* counts finite values
//! only, a column is constant when its min equals its max, cuts must lie
//! below the max and are deduplicated with `!=`, and when no quantile
//! gives a cut the one cut is the value at position `(n - 1) / 2`.
//!
//! −0.0 and +0.0 compare equal, and the fit's sort of an expanded
//! column is stable, so equal values keep row order. Where zeros of
//! both signs meet, the sign at a position is read from the rows in row
//! order, not from the table. Any other equal values are equal bit for
//! bit, so the pairs' own sort need not be stable.
//!
//! Columns are cut on the `gdcm-par` pool and collected in column order,
//! so the grid is the same at any thread count. On the serving fixture
//! (3,150 rows, 108 encodings, 105 devices, 1,098 columns) the rebuild
//! takes a few milliseconds. A dense matrix is one identity block, whose
//! every column sorts one pair per row; the pool keeps that case about
//! as fast as the fit's own binning.

use gdcm_ml::{BinnedMatrix, ColumnBlock, FactoredMatrix, MAX_BINS};

/// A training bin grid as the grid checks read it. [`BinnedMatrix`],
/// the fit's grid, and [`TrainingGrid`], the auditor's rebuild, both
/// implement it, so each check has one implementation whichever grid
/// it is given.
pub trait CutGrid: Sync {
    /// Number of features.
    fn n_features(&self) -> usize;

    /// Feature `f`'s ascending cuts; empty when it is constant.
    fn cuts(&self, f: usize) -> &[f32];

    /// Whether feature `f` is constant over the training rows.
    fn is_constant(&self, f: usize) -> bool;
}

impl CutGrid for BinnedMatrix {
    fn n_features(&self) -> usize {
        BinnedMatrix::n_features(self)
    }

    fn cuts(&self, f: usize) -> &[f32] {
        BinnedMatrix::cuts(self, f)
    }

    fn is_constant(&self, f: usize) -> bool {
        BinnedMatrix::is_constant(self, f)
    }
}

/// The grid a fit at a given bin budget cuts from a training matrix,
/// rebuilt from the matrix's column blocks (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingGrid {
    cuts: Vec<Vec<f32>>,
}

impl CutGrid for TrainingGrid {
    fn n_features(&self) -> usize {
        self.cuts.len()
    }

    fn cuts(&self, f: usize) -> &[f32] {
        &self.cuts[f]
    }

    fn is_constant(&self, f: usize) -> bool {
        self.cuts[f].is_empty()
    }
}

impl TrainingGrid {
    /// Cuts every column of `x` into at most `max_bins` quantile bins.
    ///
    /// # Panics
    ///
    /// Panics when `max_bins` is 0 or exceeds [`MAX_BINS`], as a fit at
    /// that budget would.
    pub fn rebuild(x: &FactoredMatrix<'_>, max_bins: usize) -> Self {
        assert!(
            (1..=MAX_BINS).contains(&max_bins),
            "max_bins must be in 1..=256, got {max_bins}"
        );
        let counts: Vec<Vec<u32>> = x
            .blocks()
            .iter()
            .map(|block| reference_counts(block, x.n_rows()))
            .collect();
        let columns: Vec<(usize, usize)> = x
            .blocks()
            .iter()
            .enumerate()
            .flat_map(|(b, block)| (0..block.width()).map(move |c| (b, c)))
            .collect();
        let cuts = gdcm_par::pool().par_map(&columns, |&(b, c)| {
            let block = &x.blocks()[b];
            let mut pairs: Vec<(f32, u32)> = block
                .table()
                .iter()
                .skip(c)
                .step_by(block.width())
                .zip(&counts[b])
                .filter(|&(v, &count)| count > 0 && v.is_finite())
                .map(|(&v, &count)| (v, count))
                .collect();
            Column::new(&mut pairs, block, c, x.n_rows()).quantile_cuts(max_bins)
        });
        Self { cuts }
    }
}

/// How many of the first `n_rows` rows reference each table entry of
/// `block`: one each for the identity.
///
/// # Panics
///
/// Panics when `n_rows` is 2^32 or more, which a `u32` count could not
/// hold.
pub(crate) fn reference_counts(block: &ColumnBlock<'_>, n_rows: usize) -> Vec<u32> {
    assert!(
        u32::try_from(n_rows).is_ok(),
        "{n_rows} rows overflow a u32 row count"
    );
    match block.ids() {
        None => vec![1; n_rows],
        Some(ids) => {
            let mut counts = vec![0; block.n_entries()];
            for &id in ids {
                counts[id as usize] += 1;
            }
            counts
        }
    }
}

/// The table entry row `r` of `block` reads.
pub(crate) fn entry_of(block: &ColumnBlock<'_>, r: usize) -> usize {
    block.ids().map_or(r, |ids| ids[r] as usize)
}

/// One column's finite values as the expanded sorted column: the
/// (value, count) pairs sorted by value, and the position one past each
/// pair's last copy.
struct Column<'a> {
    pairs: &'a [(f32, u32)],
    ends: Vec<usize>,
    /// Where zeros of both signs meet, each zero's value in row order.
    zeros_in_row_order: Option<Vec<f32>>,
}

impl<'a> Column<'a> {
    fn new(pairs: &'a mut [(f32, u32)], block: &ColumnBlock<'_>, c: usize, n_rows: usize) -> Self {
        pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        let ends = pairs
            .iter()
            .scan(0, |end, &(_, count)| {
                *end += count as usize;
                Some(*end)
            })
            .collect();
        let mut zero_signs = pairs
            .iter()
            .filter(|(v, _)| *v == 0.0)
            .map(|(v, _)| v.is_sign_negative());
        let mixed_zeros = zero_signs
            .next()
            .is_some_and(|first| zero_signs.any(|sign| sign != first));
        let zeros_in_row_order = mixed_zeros.then(|| {
            let width = block.width();
            (0..n_rows)
                .map(|r| block.table()[entry_of(block, r) * width + c])
                .filter(|&v| v == 0.0)
                .collect()
        });
        Self {
            pairs,
            ends,
            zeros_in_row_order,
        }
    }

    /// The value at position `idx` of the expanded sorted column.
    fn at(&self, idx: usize) -> f32 {
        let k = self.ends.partition_point(|&end| end <= idx);
        let v = self.pairs[k].0;
        match &self.zeros_in_row_order {
            Some(zeros) if v == 0.0 => {
                let first_zero = self.pairs.partition_point(|&(p, _)| p < 0.0);
                let zeros_start = first_zero.checked_sub(1).map_or(0, |p| self.ends[p]);
                zeros[idx - zeros_start]
            }
            _ => v,
        }
    }

    /// The fit's quantile cuts of this column at `max_bins` bins.
    fn quantile_cuts(&self, max_bins: usize) -> Vec<f32> {
        let (Some(&(min, _)), Some(&(max, _)), Some(&n)) =
            (self.pairs.first(), self.pairs.last(), self.ends.last())
        else {
            return Vec::new();
        };
        if max_bins < 2 || min == max {
            return Vec::new();
        }
        let mut cuts: Vec<f32> = Vec::new();
        for i in 1..max_bins {
            let q = i as f64 / max_bins as f64;
            let idx = ((q * (n - 1) as f64).round() as usize).min(n - 1);
            let v = self.at(idx);
            if cuts.last() != Some(&v) && v < max {
                cuts.push(v);
            }
        }
        if cuts.is_empty() {
            cuts.push(self.at((n - 1) / 2));
        }
        cuts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdcm_ml::DenseMatrix;

    fn bits(cuts: &[f32]) -> Vec<u32> {
        cuts.iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn rebuild_matches_the_fit_grid_on_a_dense_matrix() {
        let rows: Vec<Vec<f32>> = (0..200)
            .map(|i| vec![(i % 17) as f32, -((i * 7 % 23) as f32), 1.0, f32::NAN])
            .collect();
        let x = DenseMatrix::from_rows(&rows);
        for max_bins in [1, 2, 16, 64, 256] {
            let fit = BinnedMatrix::from_matrix(&x, max_bins);
            let rebuilt = TrainingGrid::rebuild(&FactoredMatrix::dense(&x), max_bins);
            assert_eq!(CutGrid::n_features(&rebuilt), fit.n_features());
            for f in 0..fit.n_features() {
                assert_eq!(bits(CutGrid::cuts(&rebuilt, f)), bits(fit.cuts(f)));
                assert_eq!(CutGrid::is_constant(&rebuilt, f), fit.is_constant(f));
            }
        }
    }

    #[test]
    fn unreferenced_entries_take_part_in_nothing() {
        // Entry 2 (100.0) is referenced by no row.
        let x = FactoredMatrix::new(
            4,
            vec![ColumnBlock::mapped(
                vec![1.0, 2.0, 100.0],
                1,
                vec![0, 1, 1, 0],
            )],
        );
        let grid = TrainingGrid::rebuild(&x, 64);
        assert_eq!(grid.cuts(0), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "max_bins")]
    fn a_budget_past_the_code_width_is_refused() {
        let x = DenseMatrix::from_rows(&[vec![1.0], vec![2.0]]);
        let _ = TrainingGrid::rebuild(&FactoredMatrix::dense(&x), MAX_BINS + 1);
    }
}
