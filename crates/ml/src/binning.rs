//! Quantile binning of feature matrices for histogram-based tree learning.
//!
//! [`BinnedMatrix::from_matrix`] bins features in parallel on the
//! `gdcm-par` pool: contiguous feature groups, one per thread, each
//! writing its columns' codes in place. A feature's cuts and codes come
//! from the same serial code (gather, sort, [`bin_code`]) whichever group
//! it lands in, so the grid is bitwise the same at any thread count.

use std::ops::Range;

use crate::dataset::DenseMatrix;

/// Maximum number of bins a feature may use.
///
/// Bin codes are stored as `u8`, so a budget above 256 would silently
/// truncate codes and corrupt every histogram built from them.
/// [`BinnedMatrix::from_matrix`] therefore rejects larger budgets
/// outright instead of clamping — a caller asking for more bins than
/// the storage can represent has a configuration bug worth surfacing.
pub const MAX_BINS: usize = 256;

/// A feature matrix quantized to per-feature quantile bins, stored
/// column-major for cache-friendly histogram accumulation.
///
/// Constant (zero-variance) features are detected and flagged so tree
/// learners can skip them — important for the padded layer-wise network
/// encodings, where many columns are identically zero.
#[derive(Debug, Clone)]
pub struct BinnedMatrix {
    n_rows: usize,
    n_features: usize,
    /// Column-major codes: `codes[f * n_rows + r]`.
    codes: Vec<u8>,
    /// Per-feature ascending cut points; code `i` means
    /// `value <= cuts[i]` for `i < cuts.len()`, and the last code means
    /// `value > cuts.last()`.
    cuts: Vec<Vec<f32>>,
    /// Features with fewer than two distinct values.
    constant: Vec<bool>,
}

impl BinnedMatrix {
    /// Bins `x` into at most `max_bins` quantile bins per feature, one
    /// feature group per `gdcm-par` thread (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when `max_bins` is 0 or exceeds [`MAX_BINS`] — codes are
    /// `u8`, so 257 bins cannot be represented and must not be clamped
    /// silently (see [`MAX_BINS`]).
    pub fn from_matrix(x: &DenseMatrix, max_bins: usize) -> Self {
        assert!(
            (1..=MAX_BINS).contains(&max_bins),
            "max_bins must be in 1..=256, got {max_bins}"
        );
        let n_rows = x.n_rows();
        let n_features = x.n_cols();
        let mut codes = vec![0u8; n_rows * n_features];
        let pool = gdcm_par::pool();
        let group_len = n_features.div_ceil(pool.threads()).max(1);
        let cuts: Vec<Vec<f32>> = pool.scope(|scope| {
            let mut rest: &mut [u8] = &mut codes;
            let tasks: Vec<_> = (0..n_features)
                .step_by(group_len)
                .map(|first| {
                    let features = first..(first + group_len).min(n_features);
                    let (cols, tail) =
                        std::mem::take(&mut rest).split_at_mut(features.len() * n_rows);
                    rest = tail;
                    scope.spawn(move || bin_features(x, features, cols, max_bins))
                })
                .collect();
            tasks.into_iter().flat_map(gdcm_par::Task::join).collect()
        });
        let constant = cuts.iter().map(Vec::is_empty).collect();
        Self {
            n_rows,
            n_features,
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

    /// Column-major code slice for feature `f`.
    pub fn feature_codes(&self, f: usize) -> &[u8] {
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
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
    // Guarantee at least one cut separating min from max.
    if cuts.is_empty() {
        cuts.push(sorted[(n - 1) / 2]);
    }
    cuts
}

/// Bin code for `v` given ascending cut points: the number of cuts
/// strictly below `v` (i.e. `v <= cuts[code]` when `code < cuts.len()`).
///
/// This is **the** quantizer: training ([`BinnedMatrix::from_matrix`]),
/// frozen-model inference ([`crate::FrozenGbdt`]), and the flatcheck
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
        assert_eq!(b.feature_codes(0), &[0, 0, 1]);
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
