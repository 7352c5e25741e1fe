//! Gradient-boosted regression trees (XGBoost-style).
//!
//! Implements the paper's regressor: `gbtree` booster minimizing squared
//! error with second-order split gains, shrinkage, and L2 leaf
//! regularization. The paper's hyper-parameters — learning rate 0.1,
//! 100 estimators, depth 3 — are the defaults.
//!
//! One boosting loop trains every fit, on a [`FactoredMatrix`]: the
//! dense entry points ([`GbdtRegressor::fit`] and the rest) pass their
//! matrix as one identity block, and a caller that holds its rows as
//! column blocks ([`GbdtRegressor::fit_factored`]) never expands them.

use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

use crate::binning::BinnedMatrix;
use crate::dataset::{assert_finite_targets, DenseMatrix, FactoredMatrix};
use crate::tree::{Tree, TreeParams};
use crate::Regressor;

/// Minimum `rows × trees` work below which batch prediction stays on
/// the plain serial loop (chunk dispatch would cost more than it buys).
const PAR_PREDICT_MIN_WORK: usize = 1 << 15;
/// Minimum rows per prediction chunk, keeping per-chunk overhead small.
const PAR_PREDICT_MIN_CHUNK: usize = 256;

/// Hyper-parameters for [`GbdtRegressor`].
///
/// ```
/// let p = gdcm_ml::GbdtParams::default();
/// assert_eq!(p.n_estimators, 100);
/// assert_eq!(p.max_depth, 3);
/// assert!((p.learning_rate - 0.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbdtParams {
    /// Number of boosting rounds (trees).
    pub n_estimators: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f32,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// L2 regularization on leaf weights.
    pub lambda: f64,
    /// Minimum split gain.
    pub gamma: f64,
    /// Minimum hessian sum per child. Squared error has unit hessians,
    /// so this is a minimum row count.
    pub min_child_weight: f64,
    /// Fraction of rows sampled (without replacement) per tree.
    pub subsample: f32,
    /// Fraction of features sampled per tree.
    pub colsample_bytree: f32,
    /// Histogram bin budget per feature.
    pub max_bins: usize,
    /// Seed for row/column subsampling.
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            learning_rate: 0.1,
            max_depth: 3,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            colsample_bytree: 1.0,
            max_bins: 64,
            seed: 0,
        }
    }
}

/// Telemetry from one [`GbdtRegressor::fit`] call, kept on the fitted
/// model.
///
/// The per-round RMSE trace is deterministic given the seed; the timing
/// fields are wall-clock measurements and vary run to run, which is why
/// [`GbdtRegressor`]'s `PartialEq` ignores the log entirely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingLog {
    /// Training-set RMSE after each boosting round.
    pub round_train_rmse: Vec<f32>,
    /// Time spent binning this fit's training matrix (ms): quantile
    /// cuts for every feature, from its (value, count) runs, and codes
    /// for every table entry of its column block
    /// ([`BinnedMatrix::from_factored`]), built once per fit on the
    /// `gdcm-par` pool. The grid is the one
    /// [`GbdtRegressor::fit_with_grid`] returns, so freezing the model
    /// adds no binning time. Building the split histograms is part of
    /// `split_search_ms`. Serialized under its earlier name, so saved
    /// models keep their bytes.
    #[serde(rename = "histogram_build_ms")]
    pub bin_ms: f64,
    /// Wall time spent growing trees (ms): putting each round's
    /// gradients on the tree's integer grid, summing them per table
    /// entry of each node's column blocks, building and scanning the
    /// split histograms from those sums, and partitioning rows.
    pub split_search_ms: f64,
    /// End-to-end `fit` wall time (ms).
    pub total_ms: f64,
    /// Thread budget of the `gdcm-par` pool during this fit. `1` means
    /// the exact serial code path ran.
    pub threads_used: usize,
    /// Cumulative pool busy time attributable to this fit (ms): the sum
    /// of time all workers + inline shares spent executing this fit's
    /// split-search jobs. `busy / wall` approximates the achieved
    /// parallel speedup of the split phase.
    pub split_search_busy_ms: f64,
    /// Wall time of the serial per-round predict/residual update (ms) —
    /// the portion of `total_ms` that does not parallelize.
    pub predict_update_ms: f64,
    /// Trees carried over from a previous model by
    /// [`GbdtRegressor::warm_fit`]; 0 for a cold fit. `default` so old
    /// payloads still deserialize.
    #[serde(default)]
    pub reused_trees: usize,
}

impl TrainingLog {
    /// Training RMSE after the final round, if any round ran.
    pub fn final_train_rmse(&self) -> Option<f32> {
        self.round_train_rmse.last().copied()
    }
}

/// A fitted gradient-boosting ensemble.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GbdtRegressor {
    base_score: f32,
    trees: Vec<Tree>,
    n_features: usize,
    // `default` so payloads that dropped the (timing-laden, run-varying)
    // log still deserialize into a usable model with `training_log: None`.
    #[serde(default)]
    training_log: Option<TrainingLog>,
}

// Model equality is the learned function only: the training log carries
// wall-clock timings, so two identical fits would otherwise compare
// unequal.
impl PartialEq for GbdtRegressor {
    fn eq(&self, other: &Self) -> bool {
        self.base_score == other.base_score
            && self.n_features == other.n_features
            && self.trees == other.trees
    }
}

impl GbdtRegressor {
    /// Fits the ensemble to `(x, y)` with squared-error loss.
    ///
    /// # Panics
    ///
    /// Panics when `x` is empty, `y` length differs from the row count, a
    /// target is NaN or infinite (the message names the first), or
    /// fractions are outside `(0, 1]`.
    pub fn fit(x: &DenseMatrix, y: &[f32], params: &GbdtParams) -> Self {
        Self::fit_with_grid(x, y, params).0
    }

    /// [`GbdtRegressor::fit`], also returning the bin grid the ensemble
    /// was trained on, so a caller that freezes the model
    /// ([`crate::FrozenGbdt::freeze`]) bins the matrix once.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`GbdtRegressor::fit`].
    pub fn fit_with_grid(
        x: &DenseMatrix,
        y: &[f32],
        params: &GbdtParams,
    ) -> (Self, Arc<BinnedMatrix>) {
        Self::fit_factored(&FactoredMatrix::dense(x), y, params)
    }

    /// [`GbdtRegressor::fit_with_grid`] on a matrix held as column
    /// blocks, which it bins ([`BinnedMatrix::from_factored`]), searches
    /// and scores without expanding. The model and grid are bitwise the
    /// ones `fit_with_grid` gives on `x.to_dense()`.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`GbdtRegressor::fit`].
    pub fn fit_factored(
        x: &FactoredMatrix<'_>,
        y: &[f32],
        params: &GbdtParams,
    ) -> (Self, Arc<BinnedMatrix>) {
        Self::fit_boosted(x, y, params, None)
    }

    /// Warm-start refit: reuses the first `reuse` trees of `prev` (and
    /// its base score) verbatim and boosts only the remaining
    /// `params.n_estimators - reuse` rounds against the residuals the
    /// reused prefix leaves on `(x, y)`. With `reuse == 0` this is
    /// **exactly** [`GbdtRegressor::fit`], bit for bit.
    ///
    /// The server no longer warm-starts: every background refresh is a
    /// cold [`GbdtRegressor::fit_factored`], because thresholds reused
    /// from a model fitted on other rows are cuts of that model's grid,
    /// not of the new rows', and the refit does not freeze. This stays
    /// for `perfbench`'s `gbdt.warm_fit_ms` ledger stage.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`GbdtRegressor::fit`], when
    /// `reuse` exceeds `prev`'s tree count or `params.n_estimators`, or
    /// when (for `reuse > 0`) `prev` was trained on a different feature
    /// count than `x` has.
    pub fn warm_fit(
        x: &DenseMatrix,
        y: &[f32],
        params: &GbdtParams,
        prev: &GbdtRegressor,
        reuse: usize,
    ) -> Self {
        assert!(
            reuse <= prev.trees.len(),
            "cannot reuse {reuse} trees from a {}-tree model",
            prev.trees.len()
        );
        assert!(
            reuse <= params.n_estimators,
            "cannot reuse {reuse} trees into a {}-round fit",
            params.n_estimators
        );
        if reuse == 0 {
            return Self::fit(x, y, params);
        }
        assert_eq!(
            prev.n_features,
            x.n_cols(),
            "warm-start source feature count mismatch"
        );
        let warm = Some((prev.base_score, &prev.trees[..reuse]));
        Self::fit_boosted(&FactoredMatrix::dense(x), y, params, warm).0
    }

    /// The boosting loop behind [`GbdtRegressor::fit`] (`warm == None`)
    /// and [`GbdtRegressor::warm_fit`]. A warm start seeds the ensemble
    /// with `(base_score, reused trees)` and boosts only the remaining
    /// rounds; the cold path takes the mean-of-targets base and boosts
    /// all of them.
    fn fit_boosted(
        x: &FactoredMatrix<'_>,
        y: &[f32],
        params: &GbdtParams,
        warm: Option<(f32, &[Tree])>,
    ) -> (Self, Arc<BinnedMatrix>) {
        assert!(!x.is_empty(), "cannot fit on an empty matrix");
        assert_eq!(x.n_rows(), y.len(), "x/y length mismatch");
        assert_finite_targets(y);
        assert!(
            params.subsample > 0.0 && params.subsample <= 1.0,
            "subsample must be in (0, 1]"
        );
        assert!(
            params.colsample_bytree > 0.0 && params.colsample_bytree <= 1.0,
            "colsample_bytree must be in (0, 1]"
        );

        let _span = gdcm_obs::span!("gbdt_fit");
        let fit_start = Instant::now();

        let n = x.n_rows();
        let bin_start = Instant::now();
        let binned = Arc::new(BinnedMatrix::from_factored(x, params.max_bins));
        let bin_ms = bin_start.elapsed().as_secs_f64() * 1e3;
        let base_score = match warm {
            Some((base, _)) => base,
            None => (y.iter().map(|&v| v as f64).sum::<f64>() / n as f64) as f32,
        };
        let reused: &[Tree] = warm.map_or(&[], |(_, trees)| trees);

        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_child_weight: params.min_child_weight,
            lambda: params.lambda,
            gamma: params.gamma,
            min_samples_leaf: 1,
        };

        let active: Vec<usize> = (0..x.n_cols())
            .filter(|&f| !binned.is_constant(f))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);

        // A warm start replays the reused prefix into the running
        // predictions — the same per-tree f64 accumulation the original
        // fit performed round by round — so boosting resumes on exactly
        // the residuals the prefix leaves.
        let mut preds = vec![base_score as f64; n];
        for tree in reused {
            for (i, pred) in preds.iter_mut().enumerate() {
                *pred += tree.predict_with(|f| x.get(i, f)) as f64;
            }
        }
        let rounds = params.n_estimators - reused.len();
        let all_rows: Vec<usize> = (0..n).collect();
        let mut trees = Vec::with_capacity(params.n_estimators);
        trees.extend_from_slice(reused);
        let mut round_train_rmse = Vec::with_capacity(rounds);
        let mut split_search_ms = 0.0f64;
        let mut predict_update_ms = 0.0f64;
        let pool = gdcm_par::pool();
        let threads_used = pool.threads();
        let pool_busy_at_start_ms = pool.total_busy_ms();

        for _ in 0..rounds {
            // Gradients are rebuilt per round: they depend on the running
            // predictions. The tree puts them on its integer grid.
            let grad: Vec<f64> = preds
                .iter()
                .zip(y)
                .map(|(&p, &target)| p - target as f64)
                .collect();

            let rows: Vec<usize> = if params.subsample < 1.0 {
                let k = ((n as f32 * params.subsample).round() as usize).max(1);
                let mut sampled = all_rows.clone();
                sampled.shuffle(&mut rng);
                sampled.truncate(k);
                sampled
            } else {
                all_rows.clone()
            };

            let feats: Vec<usize> = if params.colsample_bytree < 1.0 {
                let k = ((active.len() as f32 * params.colsample_bytree).round() as usize).max(1);
                let mut sampled = active.clone();
                sampled.shuffle(&mut rng);
                sampled.truncate(k);
                sampled
            } else {
                active.clone()
            };

            // Hot loop: accumulate raw `Instant` deltas locally instead
            // of opening a span per round (see gdcm-obs docs).
            let split_start = Instant::now();
            let mut tree = Tree::fit_shared(&binned, &grad, &rows, &feats, &tree_params);
            split_search_ms += split_start.elapsed().as_secs_f64() * 1e3;
            tree.scale_leaves(params.learning_rate);
            let update_start = Instant::now();
            let mut sq_err = 0.0f64;
            for i in 0..n {
                preds[i] += tree.predict_with(|f| x.get(i, f)) as f64;
                let residual = preds[i] - y[i] as f64;
                sq_err += residual * residual;
            }
            predict_update_ms += update_start.elapsed().as_secs_f64() * 1e3;
            round_train_rmse.push((sq_err / n as f64).sqrt() as f32);
            trees.push(tree);
        }

        let log = TrainingLog {
            round_train_rmse,
            bin_ms,
            split_search_ms,
            total_ms: fit_start.elapsed().as_secs_f64() * 1e3,
            threads_used,
            // The global pool is shared; concurrent fits would blur the
            // attribution, but a fit's own jobs always dominate it.
            split_search_busy_ms: (pool.total_busy_ms() - pool_busy_at_start_ms).max(0.0),
            predict_update_ms,
            reused_trees: reused.len(),
        };
        gdcm_obs::counter("ml/gbdt/fits").incr();
        gdcm_obs::histogram("ml/gbdt/fit_ms").record(log.total_ms);
        if gdcm_obs::emitting() {
            // Successive fits append to one flat series; the
            // `ml/gbdt/fits` counter gives the fit count and each fit
            // contributes `n_estimators` values.
            gdcm_obs::series("ml/gbdt/train_rmse").extend(
                &log.round_train_rmse
                    .iter()
                    .map(|&v| v as f64)
                    .collect::<Vec<_>>(),
            );
            gdcm_obs::event(
                "train",
                "ml/gbdt",
                &[
                    (
                        "rounds",
                        gdcm_obs::FieldValue::U64(log.round_train_rmse.len() as u64),
                    ),
                    (
                        "final_rmse",
                        gdcm_obs::FieldValue::F64(log.final_train_rmse().unwrap_or(f32::NAN) as f64),
                    ),
                    ("bin_ms", gdcm_obs::FieldValue::F64(log.bin_ms)),
                    ("split_ms", gdcm_obs::FieldValue::F64(log.split_search_ms)),
                    (
                        "threads",
                        gdcm_obs::FieldValue::U64(log.threads_used as u64),
                    ),
                    (
                        "split_busy_ms",
                        gdcm_obs::FieldValue::F64(log.split_search_busy_ms),
                    ),
                    (
                        "predict_update_ms",
                        gdcm_obs::FieldValue::F64(log.predict_update_ms),
                    ),
                    (
                        "reused_trees",
                        gdcm_obs::FieldValue::U64(log.reused_trees as u64),
                    ),
                ],
            );
        }

        let model = Self {
            base_score,
            trees,
            n_features: x.n_cols(),
            training_log: Some(log),
        };
        (model, binned)
    }

    /// Telemetry from the `fit` call that produced this model.
    ///
    /// `None` on models deserialized from payloads that dropped the log.
    pub fn training_log(&self) -> Option<&TrainingLog> {
        self.training_log.as_ref()
    }

    /// The number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The constant base score (training-target mean).
    pub fn base_score(&self) -> f32 {
        self.base_score
    }

    /// Number of features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Read-only view of the fitted trees, in boosting order.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Assembles an ensemble from raw parts, without validation and
    /// without a training log.
    ///
    /// An escape hatch for tests and auditors that need deliberately
    /// malformed ensembles; `fit` is the only way to obtain a model with
    /// guaranteed invariants.
    pub fn from_raw_parts(base_score: f32, trees: Vec<Tree>, n_features: usize) -> Self {
        Self {
            base_score,
            trees,
            n_features,
            training_log: None,
        }
    }

    /// Decomposes the ensemble into `(base_score, trees, n_features)`,
    /// dropping the training log. Inverse of
    /// [`GbdtRegressor::from_raw_parts`].
    pub fn into_raw_parts(self) -> (f32, Vec<Tree>, usize) {
        (self.base_score, self.trees, self.n_features)
    }

    /// Split counts per feature — a simple feature-importance measure.
    pub fn feature_importance(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_features];
        for t in &self.trees {
            for f in t.split_features() {
                counts[f] += 1;
            }
        }
        counts
    }
}

impl Regressor for GbdtRegressor {
    fn predict_row(&self, row: &[f32]) -> f32 {
        debug_assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let mut acc = self.base_score as f64;
        for t in &self.trees {
            acc += t.predict_row(row) as f64;
        }
        acc as f32
    }

    /// Chunked batch prediction on the `gdcm-par` pool. Rows are
    /// independent, so the flattened per-chunk outputs are bit-identical
    /// to the serial row loop at any thread count.
    fn predict(&self, x: &DenseMatrix) -> Vec<f32> {
        let pool = gdcm_par::pool();
        let work = x.n_rows().saturating_mul(self.trees.len().max(1));
        if pool.threads() <= 1 || work < PAR_PREDICT_MIN_WORK {
            return (0..x.n_rows())
                .map(|i| self.predict_row(x.row(i)))
                .collect();
        }
        pool.par_chunks(x.n_rows(), PAR_PREDICT_MIN_CHUNK, |range| {
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

    fn synthetic(n: usize) -> (DenseMatrix, Vec<f32>) {
        // y = 3*x0 + x1^2 - 2*x2, deterministic pseudo-random features.
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (u32::MAX as f32) * 2.0 - 1.0) * 3.0
        };
        for _ in 0..n {
            let (a, b, c) = (next(), next(), next());
            rows.push(vec![a, b, c]);
            y.push(3.0 * a + b * b - 2.0 * c);
        }
        (DenseMatrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_nonlinear_function_well() {
        let (x, y) = synthetic(600);
        let model = GbdtRegressor::fit(&x, &y, &GbdtParams::default());
        let preds = model.predict(&x);
        let r2 = r2_score(&y, &preds);
        assert!(r2 > 0.95, "train R² {r2}");
    }

    #[test]
    fn generalizes_to_heldout_rows() {
        let (x, y) = synthetic(1000);
        let train_idx: Vec<usize> = (0..700).collect();
        let test_idx: Vec<usize> = (700..1000).collect();
        let xtr = x.select_rows(&train_idx);
        let ytr: Vec<f32> = train_idx.iter().map(|&i| y[i]).collect();
        let model = GbdtRegressor::fit(&xtr, &ytr, &GbdtParams::default());
        let xte = x.select_rows(&test_idx);
        let yte: Vec<f32> = test_idx.iter().map(|&i| y[i]).collect();
        let r2 = r2_score(&yte, &model.predict(&xte));
        assert!(r2 > 0.85, "test R² {r2}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = synthetic(200);
        let a = GbdtRegressor::fit(&x, &y, &GbdtParams::default());
        let b = GbdtRegressor::fit(&x, &y, &GbdtParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn subsampling_is_seeded() {
        let (x, y) = synthetic(200);
        let p = GbdtParams {
            subsample: 0.7,
            colsample_bytree: 0.7,
            seed: 5,
            ..GbdtParams::default()
        };
        let a = GbdtRegressor::fit(&x, &y, &p);
        let b = GbdtRegressor::fit(&x, &y, &p);
        assert_eq!(a, b);
        let c = GbdtRegressor::fit(&x, &y, &GbdtParams { seed: 6, ..p });
        assert_ne!(a, c);
    }

    #[test]
    fn constant_target_predicts_constant() {
        let (x, _) = synthetic(50);
        let y = vec![7.5f32; 50];
        let model = GbdtRegressor::fit(&x, &y, &GbdtParams::default());
        for i in 0..x.n_rows() {
            assert!((model.predict_row(x.row(i)) - 7.5).abs() < 1e-3);
        }
    }

    #[test]
    fn more_trees_reduce_training_error() {
        let (x, y) = synthetic(300);
        let small = GbdtRegressor::fit(
            &x,
            &y,
            &GbdtParams {
                n_estimators: 5,
                ..GbdtParams::default()
            },
        );
        let large = GbdtRegressor::fit(&x, &y, &GbdtParams::default());
        let r2_small = r2_score(&y, &small.predict(&x));
        let r2_large = r2_score(&y, &large.predict(&x));
        assert!(r2_large > r2_small);
    }

    #[test]
    fn feature_importance_finds_signal() {
        // Only feature 0 matters.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let a = (i % 17) as f32;
            let noise = ((i * 31) % 7) as f32;
            rows.push(vec![a, noise]);
            y.push(a * 2.0);
        }
        let x = DenseMatrix::from_rows(&rows);
        let model = GbdtRegressor::fit(&x, &y, &GbdtParams::default());
        let imp = model.feature_importance();
        assert!(imp[0] > imp[1] * 3, "importance {imp:?}");
    }

    #[test]
    fn training_log_records_per_round_rmse() {
        let (x, y) = synthetic(200);
        let model = GbdtRegressor::fit(&x, &y, &GbdtParams::default());
        let log = model.training_log().expect("fit attaches a log");
        assert_eq!(log.round_train_rmse.len(), 100);
        // Boosting on a learnable target: error falls as rounds proceed.
        let first = log.round_train_rmse[0];
        let last = log.final_train_rmse().unwrap();
        assert!(last < first * 0.5, "first {first}, last {last}");
        assert!(log.total_ms >= log.split_search_ms);
        // The RMSE trace is deterministic even though the timings vary.
        let again = GbdtRegressor::fit(&x, &y, &GbdtParams::default());
        assert_eq!(
            log.round_train_rmse,
            again.training_log().unwrap().round_train_rmse
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_matrix_panics() {
        let x = DenseMatrix::with_capacity(0, 3);
        let _ = GbdtRegressor::fit(&x, &[], &GbdtParams::default());
    }

    /// `synthetic(20)` with target 7 replaced by `bad`.
    fn with_bad_target(bad: f32) -> (DenseMatrix, Vec<f32>) {
        let (x, mut y) = synthetic(20);
        y[7] = bad;
        (x, y)
    }

    #[test]
    #[should_panic(expected = "target 7 is NaN, not finite")]
    fn nan_target_panics() {
        let (x, y) = with_bad_target(f32::NAN);
        let _ = GbdtRegressor::fit(&x, &y, &GbdtParams::default());
    }

    #[test]
    #[should_panic(expected = "target 7 is inf, not finite")]
    fn infinite_target_panics() {
        let (x, y) = with_bad_target(f32::INFINITY);
        let _ = GbdtRegressor::fit_factored(&FactoredMatrix::dense(&x), &y, &GbdtParams::default());
    }

    #[test]
    #[should_panic(expected = "target 7 is -inf, not finite")]
    fn negative_infinite_target_panics() {
        let (x, y) = with_bad_target(f32::NEG_INFINITY);
        let _ = GbdtRegressor::fit(&x, &y, &GbdtParams::default());
    }

    #[test]
    #[should_panic(expected = "target 7 is NaN, not finite")]
    fn warm_fit_refuses_a_non_finite_target() {
        let (x, y) = synthetic(20);
        let params = GbdtParams {
            n_estimators: 4,
            ..GbdtParams::default()
        };
        let prev = GbdtRegressor::fit(&x, &y, &params);
        let (_, bad) = with_bad_target(f32::NAN);
        let _ = GbdtRegressor::warm_fit(&x, &bad, &params, &prev, 2);
    }

    #[test]
    fn warm_fit_with_zero_reuse_is_bitwise_the_cold_fit() {
        let (x, y) = synthetic(200);
        let params = GbdtParams::default();
        let prev = GbdtRegressor::fit(&x, &y, &params);
        let warm = GbdtRegressor::warm_fit(&x, &y, &params, &prev, 0);
        let cold = GbdtRegressor::fit(&x, &y, &params);
        assert_eq!(warm, cold);
        assert_eq!(
            warm.training_log().unwrap().round_train_rmse,
            cold.training_log().unwrap().round_train_rmse
        );
        assert_eq!(warm.training_log().unwrap().reused_trees, 0);
        for i in 0..x.n_rows() {
            assert_eq!(
                warm.predict_row(x.row(i)).to_bits(),
                cold.predict_row(x.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn warm_fit_on_unchanged_data_continues_the_cold_trajectory() {
        // Without row/column subsampling the RNG never draws, so
        // resuming boosting from the first k trees on the same data
        // rebuilds the exact remaining trees: warm == cold, bit for
        // bit, while only n-k rounds were actually searched.
        let (x, y) = synthetic(300);
        let params = GbdtParams {
            n_estimators: 30,
            ..GbdtParams::default()
        };
        let cold = GbdtRegressor::fit(&x, &y, &params);
        let warm = GbdtRegressor::warm_fit(&x, &y, &params, &cold, 20);
        assert_eq!(warm, cold);
        let log = warm.training_log().unwrap();
        assert_eq!(log.reused_trees, 20);
        assert_eq!(log.round_train_rmse.len(), 10);
    }

    #[test]
    fn warm_fit_absorbs_new_rows() {
        let (x, y) = synthetic(400);
        let head: Vec<usize> = (0..300).collect();
        let xh = x.select_rows(&head);
        let yh: Vec<f32> = head.iter().map(|&i| y[i]).collect();
        let params = GbdtParams {
            n_estimators: 40,
            ..GbdtParams::default()
        };
        let prev = GbdtRegressor::fit(&xh, &yh, &params);
        // Refresh on the grown dataset, reusing 30 of 40 trees.
        let warm = GbdtRegressor::warm_fit(&x, &y, &params, &prev, 30);
        assert_eq!(warm.n_trees(), 40);
        assert_eq!(warm.base_score(), prev.base_score());
        // The reused prefix is carried over verbatim.
        assert_eq!(&warm.trees()[..30], &prev.trees()[..30]);
        let r2 = r2_score(&y, &warm.predict(&x));
        assert!(r2 > 0.9, "warm-refreshed R² {r2}");
        // Deterministic: the same warm refit rebuilds the same model.
        let again = GbdtRegressor::warm_fit(&x, &y, &params, &prev, 30);
        assert_eq!(warm, again);
    }

    #[test]
    fn fit_with_grid_returns_the_grid_a_rebuild_gives() {
        // Producers freeze on the returned grid while auditors rebuild
        // it from the data, so the two must agree bitwise.
        let (x, y) = synthetic(200);
        let params = GbdtParams {
            n_estimators: 10,
            ..GbdtParams::default()
        };
        let (model, grid) = GbdtRegressor::fit_with_grid(&x, &y, &params);
        assert_eq!(model, GbdtRegressor::fit(&x, &y, &params));
        let rebuilt = BinnedMatrix::from_matrix(&x, params.max_bins);
        for f in 0..x.n_cols() {
            assert_eq!(grid.feature_codes(f), rebuilt.feature_codes(f));
            let bits = |cuts: &[f32]| cuts.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(grid.cuts(f)), bits(rebuilt.cuts(f)));
        }
    }

    #[test]
    #[should_panic(expected = "cannot reuse")]
    fn warm_fit_rejects_overlong_reuse() {
        let (x, y) = synthetic(100);
        let params = GbdtParams {
            n_estimators: 10,
            ..GbdtParams::default()
        };
        let prev = GbdtRegressor::fit(&x, &y, &params);
        let _ = GbdtRegressor::warm_fit(&x, &y, &params, &prev, 11);
    }
}
