//! Random-forest regression — another baseline from the paper's model
//! comparison.

use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::binning::BinnedMatrix;
use crate::dataset::{assert_finite_targets, DenseMatrix, FactoredMatrix};
use crate::tree::{Tree, TreeParams};
use crate::Regressor;

/// Histogram bin budget used by [`RandomForestRegressor::fit`].
///
/// Public so callers that need the forest's split grid (freezing via
/// [`crate::FrozenForest::freeze`], the flatcheck auditor) can rebuild
/// the exact `BinnedMatrix` the fit quantized against.
pub const FOREST_BINS: usize = 64;

/// Bagged ensemble of deep regression trees with per-tree feature
/// subsampling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForestRegressor {
    trees: Vec<Tree>,
    n_features: usize,
}

impl RandomForestRegressor {
    /// Fits `n_trees` trees of depth `max_depth` on bootstrap samples,
    /// each restricted to `sqrt(d)`-sized random feature subsets.
    ///
    /// # Panics
    ///
    /// Panics when `x` is empty, lengths differ, a target is NaN or
    /// infinite (the message names the first), or `n_trees` is 0.
    pub fn fit(x: &DenseMatrix, y: &[f32], n_trees: usize, max_depth: usize, seed: u64) -> Self {
        assert!(!x.is_empty(), "cannot fit on empty matrix");
        assert_eq!(x.n_rows(), y.len(), "x/y length mismatch");
        assert_finite_targets(y);
        assert!(n_trees >= 1, "need at least one tree");

        let n = x.n_rows();
        let binned = BinnedMatrix::from_factored(&FactoredMatrix::dense(x), FOREST_BINS);
        // Forest trees fit targets directly: g = -y, h = 1, λ = 0 makes
        // every leaf the mean of its targets.
        let grad: Vec<f64> = y.iter().map(|&v| -(v as f64)).collect();
        let params = TreeParams {
            max_depth,
            min_child_weight: 1.0,
            lambda: 0.0,
            gamma: 0.0,
            min_samples_leaf: 2,
        };

        let active: Vec<usize> = (0..x.n_cols())
            .filter(|&f| !binned.is_constant(f))
            .collect();
        let m_features = ((active.len() as f64).sqrt().ceil() as usize)
            .max(1)
            .min(active.len().max(1));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        // Draw every tree's bootstrap rows and feature subset serially
        // first — the single ChaCha stream must be consumed in the same
        // order as the old one-loop code — then fit the (now fully
        // independent) trees in parallel. Results are collected in tree
        // order, so the forest is bit-identical at any thread count.
        let samples: Vec<(Vec<usize>, Vec<usize>)> = (0..n_trees)
            .map(|_| {
                let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                let mut feats = active.clone();
                feats.shuffle(&mut rng);
                feats.truncate(m_features);
                (rows, feats)
            })
            .collect();
        let trees = gdcm_par::pool().par_map(&samples, |(rows, feats)| {
            Tree::fit(&binned, &grad, rows, feats, &params)
        });
        Self {
            trees,
            n_features: x.n_cols(),
        }
    }

    /// The number of trees in the forest.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees, for independent verification (`gdcm-audit`
    /// walks them structurally).
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// The feature width the forest was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Assembles a forest from raw parts **without validation** — the
    /// escape hatch tests and auditors use to construct deliberately
    /// corrupted ensembles. `fit` is the only validated constructor.
    pub fn from_raw_parts(trees: Vec<Tree>, n_features: usize) -> Self {
        Self { trees, n_features }
    }
}

impl Regressor for RandomForestRegressor {
    fn predict_row(&self, row: &[f32]) -> f32 {
        debug_assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let sum: f64 = self.trees.iter().map(|t| t.predict_row(row) as f64).sum();
        (sum / self.trees.len() as f64) as f32
    }

    /// Chunked batch prediction (same contract as the GBDT override:
    /// flattened per-chunk outputs equal the serial row loop exactly).
    fn predict(&self, x: &DenseMatrix) -> Vec<f32> {
        let pool = gdcm_par::pool();
        let work = x.n_rows().saturating_mul(self.trees.len().max(1));
        if pool.threads() <= 1 || work < (1 << 15) {
            return (0..x.n_rows())
                .map(|i| self.predict_row(x.row(i)))
                .collect();
        }
        pool.par_chunks(x.n_rows(), 256, |range| {
            range
                .map(|i| self.predict_row(x.row(i)))
                .collect::<Vec<f32>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2_score;

    #[test]
    fn fits_piecewise_function() {
        let rows: Vec<Vec<f32>> = (0..300).map(|i| vec![(i % 100) as f32]).collect();
        let x = DenseMatrix::from_rows(&rows);
        let y: Vec<f32> = rows
            .iter()
            .map(|r| {
                if r[0] < 30.0 {
                    1.0
                } else if r[0] < 70.0 {
                    5.0
                } else {
                    2.0
                }
            })
            .collect();
        let forest = RandomForestRegressor::fit(&x, &y, 30, 8, 0);
        let r2 = r2_score(&y, &forest.predict(&x));
        assert!(r2 > 0.9, "r2 = {r2}");
    }

    #[test]
    fn deterministic_given_seed() {
        let rows: Vec<Vec<f32>> = (0..60)
            .map(|i| vec![i as f32, (i * i % 17) as f32])
            .collect();
        let x = DenseMatrix::from_rows(&rows);
        let y: Vec<f32> = (0..60).map(|i| (i % 9) as f32).collect();
        let a = RandomForestRegressor::fit(&x, &y, 10, 6, 3);
        let b = RandomForestRegressor::fit(&x, &y, 10, 6, 3);
        assert_eq!(a, b);
        let c = RandomForestRegressor::fit(&x, &y, 10, 6, 4);
        assert_ne!(a, c);
    }

    /// A 30-row fit whose target 11 is `bad`.
    fn fit_with_bad_target(bad: f32) {
        let rows: Vec<Vec<f32>> = (0..30).map(|i| vec![i as f32]).collect();
        let mut y: Vec<f32> = (0..30).map(|i| i as f32).collect();
        y[11] = bad;
        let _ = RandomForestRegressor::fit(&DenseMatrix::from_rows(&rows), &y, 4, 4, 0);
    }

    #[test]
    #[should_panic(expected = "target 11 is NaN, not finite")]
    fn nan_target_panics() {
        fit_with_bad_target(f32::NAN);
    }

    #[test]
    #[should_panic(expected = "target 11 is inf, not finite")]
    fn infinite_target_panics() {
        fit_with_bad_target(f32::INFINITY);
    }

    #[test]
    #[should_panic(expected = "target 11 is -inf, not finite")]
    fn negative_infinite_target_panics() {
        fit_with_bad_target(f32::NEG_INFINITY);
    }

    #[test]
    fn averaging_bounds_predictions() {
        let rows: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32]).collect();
        let x = DenseMatrix::from_rows(&rows);
        let y: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let forest = RandomForestRegressor::fit(&x, &y, 20, 8, 1);
        // Predictions of a forest can never leave the target range.
        for i in 0..50 {
            let p = forest.predict_row(x.row(i));
            assert!((0.0..=49.0).contains(&p));
        }
    }
}
