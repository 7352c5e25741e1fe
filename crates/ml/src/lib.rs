//! # gdcm-ml — from-scratch ML toolkit for the cost-model study
//!
//! Everything the paper borrows from the Python ML ecosystem,
//! reimplemented in safe Rust with no external ML dependencies:
//!
//! * [`gbdt`] — histogram-based gradient-boosted regression trees with
//!   XGBoost-style second-order gains (the paper's regressor of choice).
//! * [`frozen`] — compiled SoA inference: ensembles flattened to
//!   contiguous arrays with thresholds quantized onto the training bin
//!   grid, bit-identical to the pointer-tree predictors.
//! * [`forest`], [`knn`], [`linear`], [`mlp`] — the baseline regressors the
//!   paper compared against.
//! * [`metrics`] — R², RMSE, MAE, MAPE, Pearson and Spearman correlation.
//! * [`kmeans`] — k-means++ clustering (device/network clusters, Fig. 4/6).
//! * [`mutual_info`] — binned mutual-information estimation (MIS, Alg. 1).
//!
//! All estimators are deterministic given their seed.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

mod binning;
mod dataset;
pub mod forest;
pub mod frozen;
pub mod gbdt;
pub mod kmeans;
pub mod knn;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod mutual_info;
mod scaler;
mod split;
mod tree;

pub use binning::{bin_code, BinnedMatrix, MAX_BINS};
pub use dataset::{ColumnBlock, DenseMatrix, FactoredMatrix};
pub use forest::{RandomForestRegressor, FOREST_BINS};
pub use frozen::{FreezeError, FrozenForest, FrozenGbdt, FrozenNodes, FROZEN_LEAF};
pub use gbdt::{GbdtParams, GbdtRegressor};
pub use kmeans::{KMeans, KMeansResult};
pub use knn::KnnRegressor;
pub use linear::RidgeRegressor;
pub use mlp::{MlpParams, MlpRegressor};
pub use scaler::StandardScaler;
pub use split::train_test_split;
pub use tree::{Tree, TreeNode, TreeParams};

/// A fitted regression model that can score feature rows.
///
/// Implemented by every regressor in this crate so evaluation code can be
/// written once.
pub trait Regressor {
    /// Predicts the target for a single feature row.
    fn predict_row(&self, row: &[f32]) -> f32;

    /// Predicts targets for every row of `x`.
    fn predict(&self, x: &DenseMatrix) -> Vec<f32> {
        (0..x.n_rows())
            .map(|i| self.predict_row(x.row(i)))
            .collect()
    }
}
