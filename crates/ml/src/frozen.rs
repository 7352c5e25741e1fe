//! Frozen (compiled) tree inference: pointer-free SoA ensembles with
//! quantized thresholds.
//!
//! [`FrozenGbdt`] and [`FrozenForest`] flatten every fitted tree into
//! contiguous struct-of-arrays storage — feature index, threshold *bin*,
//! absolute child slots, leaf value — so prediction walks flat arrays
//! instead of pointer-chasing [`TreeNode`] arenas. A split slot stores
//! its threshold as a bin into the feature's cut grid; every prediction
//! path reads the threshold back as `cuts[f][bin]` (a batch reads each
//! slot's once per call) and compares the raw feature against it, so a
//! row is never binned to be scored: one prediction of the paper's
//! 100 depth-3 trees reads at most 300 of its 1,098 features.
//!
//! # Why quantized traversal stays bit-identical
//!
//! Every split threshold a fitted tree carries is literally a cut point
//! of the training [`BinnedMatrix`] (`grow` writes
//! `binned.threshold(feature, bin)`), and [`bin_code`](crate::bin_code)
//! returns the smallest code `c` with `v <= cuts[c]` (or `cuts.len()`
//! when no cut is ≥ `v`). For strictly ascending cuts this gives, for
//! **every** `f32` value `v` — finite, infinite, or NaN:
//!
//! ```text
//! bin_code(cuts, v) <= b   ⟺   v <= cuts[b]
//! ```
//!
//! (NaN included: `NaN <= cuts[c]` is false for every `c`, so
//! `bin_code` returns `cuts.len() > b` and both sides route right.)
//! The stored bin satisfies `cuts[bin].to_bits() == threshold.to_bits()`
//! — which [`FrozenGbdt::freeze`] enforces and the `gdcm-audit`
//! flatcheck pass re-proves bitwise per slot and symbolically over every
//! bin edge. So the raw compare `row[f] <= cuts[f][bin]` the prediction
//! paths run *is* the node compare `value <= threshold`, and by the
//! equivalence above it is also the binned compare `code <= bin`.
//! Accumulation order is preserved too: one `f64` accumulator per row,
//! trees added in boosting order starting from the base score (mean for
//! forests), matching [`GbdtRegressor::predict_row`] addition for
//! addition.
//!
//! Binning still runs where codes are the point: training builds its
//! [`BinnedMatrix`], and `predict_binned` scores a row whose codes the
//! caller already holds, with the code compare `codes[f] <= bin`. Both
//! decisions drive the one tree walker in [`FrozenNodes`]. No serving
//! path calls `predict_binned`; it stays for callers that time or check
//! the binned form (the benchmark's per-layer ledger, the tests).
//!
//! Frozen models are *produced* only by validated freezing; the
//! [`FrozenGbdt::from_raw_parts`] escape hatch exists for the auditor's
//! negative tests, and traversing a deliberately corrupted frozen model
//! may panic on out-of-range slots or bins (like [`Tree::predict_row`]
//! on a corrupt arena) — run flatcheck first.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::binning::BinnedMatrix;
use crate::dataset::DenseMatrix;
use crate::forest::RandomForestRegressor;
use crate::gbdt::GbdtRegressor;
use crate::tree::{Tree, TreeNode};
use crate::Regressor;

/// Sentinel stored in [`FrozenNodes`] `feature` (and in the child slots
/// of leaves): this slot is a leaf, read its `leaf` value.
pub const FROZEN_LEAF: u32 = u32::MAX;

/// Minimum `rows × trees` work below which batch prediction stays on
/// the serial loop (same gate as the node-based predictors).
const PAR_PREDICT_MIN_WORK: usize = 1 << 15;
/// Minimum rows per prediction chunk.
const PAR_PREDICT_MIN_CHUNK: usize = 256;

/// Contiguous SoA storage for a whole ensemble of flattened trees.
///
/// Tree `t` owns slots `tree_starts[t] .. tree_starts[t + 1]`; the slot
/// at `tree_starts[t]` is its root. Freezing preserves arena order, so
/// slot `tree_starts[t] + i` corresponds to node `i` of the source
/// tree — the bijection the flatcheck auditor re-proves per slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrozenNodes {
    /// Per-tree slot offsets, length `n_trees + 1`, `tree_starts[0] == 0`.
    tree_starts: Vec<u32>,
    /// Split feature per slot, or [`FROZEN_LEAF`] for leaves.
    feature: Vec<u32>,
    /// Quantized threshold, as an index into the split feature's cut
    /// grid: rows with `row[f] <= cuts[f][bin]` (equivalently
    /// `code <= bin`) go left. 0 on leaves.
    bin: Vec<u8>,
    /// Absolute left-child slot; [`FROZEN_LEAF`] on leaves.
    left: Vec<u32>,
    /// Absolute right-child slot; [`FROZEN_LEAF`] on leaves.
    right: Vec<u32>,
    /// Leaf value; 0.0 on split slots.
    leaf: Vec<f32>,
}

impl FrozenNodes {
    /// Number of flattened trees.
    pub fn n_trees(&self) -> usize {
        self.tree_starts.len().saturating_sub(1)
    }

    /// Total slot count across all trees.
    pub fn n_slots(&self) -> usize {
        self.feature.len()
    }

    /// Per-tree slot offsets (`n_trees + 1` entries, first 0).
    pub fn tree_starts(&self) -> &[u32] {
        &self.tree_starts
    }

    /// Split features per slot ([`FROZEN_LEAF`] marks leaves).
    pub fn feature(&self) -> &[u32] {
        &self.feature
    }

    /// Quantized threshold bins per slot.
    pub fn bin(&self) -> &[u8] {
        &self.bin
    }

    /// Absolute left-child slots.
    pub fn left(&self) -> &[u32] {
        &self.left
    }

    /// Absolute right-child slots.
    pub fn right(&self) -> &[u32] {
        &self.right
    }

    /// Leaf values per slot.
    pub fn leaf(&self) -> &[f32] {
        &self.leaf
    }

    /// Assembles SoA storage from raw arrays **without validation** —
    /// the escape hatch flatcheck's negative tests use to build
    /// deliberately corrupted frozen models. Freezing is the only
    /// validated constructor.
    pub fn from_raw_parts(
        tree_starts: Vec<u32>,
        feature: Vec<u32>,
        bin: Vec<u8>,
        left: Vec<u32>,
        right: Vec<u32>,
        leaf: Vec<f32>,
    ) -> Self {
        Self {
            tree_starts,
            feature,
            bin,
            left,
            right,
            leaf,
        }
    }

    /// Decomposes into `(tree_starts, feature, bin, left, right, leaf)`.
    /// Inverse of [`FrozenNodes::from_raw_parts`].
    #[allow(clippy::type_complexity)]
    pub fn into_raw_parts(self) -> (Vec<u32>, Vec<u32>, Vec<u8>, Vec<u32>, Vec<u32>, Vec<f32>) {
        (
            self.tree_starts,
            self.feature,
            self.bin,
            self.left,
            self.right,
            self.leaf,
        )
    }

    /// Walks tree `t` from its root to a leaf, going left at split slot
    /// `s` on feature `f` iff `go_left(s, f)`, and returns the leaf
    /// value. Panics or diverges on corrupted storage (see module
    /// docs); validated frozen models always terminate.
    fn walk(&self, t: usize, go_left: &impl Fn(usize, usize) -> bool) -> f32 {
        let mut s = self.tree_starts[t] as usize;
        loop {
            let f = self.feature[s];
            if f == FROZEN_LEAF {
                return self.leaf[s];
            }
            s = if go_left(s, f as usize) {
                self.left[s]
            } else {
                self.right[s]
            } as usize;
        }
    }

    /// `init` plus every tree's leaf, added in tree order.
    fn leaf_sum(&self, init: f64, go_left: impl Fn(usize, usize) -> bool) -> f64 {
        let mut acc = init;
        for t in 0..self.n_trees() {
            acc += self.walk(t, &go_left) as f64;
        }
        acc
    }

    /// Leaf sum of one raw row: left iff `row[f] <= cuts[f][bin]`,
    /// which equals `bin_code(&cuts[f], row[f]) <= bin` (module docs).
    fn row_sum(&self, init: f64, cuts: &[Vec<f32>], row: &[f32]) -> f64 {
        self.leaf_sum(init, |s, f| row[f] <= cuts[f][usize::from(self.bin[s])])
    }

    /// Leaf sum of one pre-binned row: left iff `codes[f] <= bin`.
    fn binned_sum(&self, init: f64, codes: &[u8]) -> f64 {
        self.leaf_sum(init, |s, f| codes[f] <= self.bin[s])
    }

    /// [`FrozenNodes::row_sum`] of each row in `range` of `x`.
    ///
    /// Each slot's threshold `cuts[f][bin]` is read once per call into
    /// a slot-indexed table, so a split costs one threshold load rather
    /// than two dependent ones (on `bench_gbdt`'s 300-tree depth-6
    /// model on a 2-vCPU VM, 10,000 rows took 49 ms through the grid
    /// and 33 ms through the table). Batch-major: all rows through one
    /// tree before the next, so a tree's SoA block stays hot in cache.
    /// Each row still owns its accumulator, so the per-row addition
    /// order is unchanged.
    fn row_sums(
        &self,
        init: f64,
        cuts: &[Vec<f32>],
        x: &DenseMatrix,
        range: Range<usize>,
    ) -> Vec<f64> {
        let thresholds: Vec<f32> = self
            .feature
            .iter()
            .zip(&self.bin)
            .map(|(&f, &b)| match f {
                FROZEN_LEAF => 0.0,
                f => cuts[f as usize][usize::from(b)],
            })
            .collect();
        let mut acc = vec![init; range.len()];
        for t in 0..self.n_trees() {
            for (a, r) in acc.iter_mut().zip(range.clone()) {
                let row = x.row(r);
                *a += self.walk(t, &|s, f| row[f] <= thresholds[s]) as f64;
            }
        }
        acc
    }
}

/// Chunked batch prediction on the `gdcm-par` pool: bit-identical to
/// `chunk(0..n_rows)` at any thread count (rows are independent,
/// chunks merge in submission order).
fn par_predict(
    x: &DenseMatrix,
    n_trees: usize,
    chunk: impl Fn(Range<usize>) -> Vec<f32> + Sync,
) -> Vec<f32> {
    let pool = gdcm_par::pool();
    let work = x.n_rows().saturating_mul(n_trees.max(1));
    if pool.threads() <= 1 || work < PAR_PREDICT_MIN_WORK {
        return chunk(0..x.n_rows());
    }
    pool.par_chunks(x.n_rows(), PAR_PREDICT_MIN_CHUNK, chunk)
        .into_iter()
        .flatten()
        .collect()
}

/// Why a pointer-tree ensemble could not be frozen.
///
/// `fit`-produced models always freeze against the `BinnedMatrix` of
/// their own training data and bin budget (the grid
/// [`GbdtRegressor::fit_with_grid`] returns, or a deterministic rebuild
/// of it); these errors surface hand-built or mismatched inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreezeError {
    /// The grid's feature count differs from the model's.
    GridWidthMismatch {
        /// Features the model was trained on.
        model: usize,
        /// Features in the supplied bin grid.
        grid: usize,
    },
    /// A tree has an empty node arena.
    EmptyTree {
        /// Tree index.
        tree: usize,
    },
    /// A forest with no trees cannot be frozen (its mean is undefined).
    EmptyForest,
    /// A split references a feature outside the model width.
    FeatureOutOfRange {
        /// Tree index.
        tree: usize,
        /// Node index within the tree.
        node: usize,
        /// The offending feature.
        feature: usize,
    },
    /// A split threshold is not bitwise equal to any cut of its
    /// feature's grid, so no `u8` bin can represent it exactly.
    ThresholdOffGrid {
        /// Tree index.
        tree: usize,
        /// Node index within the tree.
        node: usize,
        /// The split feature.
        feature: usize,
    },
    /// A child index is out of bounds or not strictly greater than its
    /// parent (fitted arenas are topologically ordered; anything else
    /// could alias or cycle).
    ChildOutOfOrder {
        /// Tree index.
        tree: usize,
        /// Node index within the tree.
        node: usize,
    },
    /// A node is referenced by more than one parent, or a non-root node
    /// is referenced by none.
    NodeShared {
        /// Tree index.
        tree: usize,
        /// Node index within the tree.
        node: usize,
    },
}

impl std::fmt::Display for FreezeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::GridWidthMismatch { model, grid } => {
                write!(f, "model has {model} features but the bin grid has {grid}")
            }
            Self::EmptyTree { tree } => write!(f, "tree {tree} has an empty node arena"),
            Self::EmptyForest => write!(f, "cannot freeze a forest with no trees"),
            Self::FeatureOutOfRange {
                tree,
                node,
                feature,
            } => write!(
                f,
                "tree {tree} node {node} splits on out-of-range feature {feature}"
            ),
            Self::ThresholdOffGrid {
                tree,
                node,
                feature,
            } => write!(
                f,
                "tree {tree} node {node}: threshold on feature {feature} is not a bin-grid cut"
            ),
            Self::ChildOutOfOrder { tree, node } => write!(
                f,
                "tree {tree} node {node} has a child out of bounds or not after its parent"
            ),
            Self::NodeShared { tree, node } => write!(
                f,
                "tree {tree} node {node} is shared between parents or orphaned"
            ),
        }
    }
}

impl std::error::Error for FreezeError {}

/// Flattens `trees` onto `cuts`, validating structure and threshold
/// exactness along the way.
fn freeze_trees(
    trees: &[Tree],
    cuts: &[Vec<f32>],
    n_features: usize,
) -> Result<FrozenNodes, FreezeError> {
    let total: usize = trees.iter().map(Tree::len).sum();
    // FROZEN_LEAF doubles as "no child", so slots must stay below it.
    assert!(
        total < FROZEN_LEAF as usize,
        "ensemble too large to freeze: {total} slots"
    );
    let mut out = FrozenNodes {
        tree_starts: Vec::with_capacity(trees.len() + 1),
        feature: Vec::with_capacity(total),
        bin: Vec::with_capacity(total),
        left: Vec::with_capacity(total),
        right: Vec::with_capacity(total),
        leaf: Vec::with_capacity(total),
    };
    out.tree_starts.push(0);
    let mut indegree: Vec<u8> = Vec::new();
    for (t, tree) in trees.iter().enumerate() {
        let nodes = tree.nodes();
        if nodes.is_empty() {
            return Err(FreezeError::EmptyTree { tree: t });
        }
        let base = out.feature.len() as u32;
        indegree.clear();
        indegree.resize(nodes.len(), 0);
        for (i, node) in nodes.iter().enumerate() {
            match *node {
                TreeNode::Leaf { weight } => {
                    out.feature.push(FROZEN_LEAF);
                    out.bin.push(0);
                    out.left.push(FROZEN_LEAF);
                    out.right.push(FROZEN_LEAF);
                    out.leaf.push(weight);
                }
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if feature >= n_features {
                        return Err(FreezeError::FeatureOutOfRange {
                            tree: t,
                            node: i,
                            feature,
                        });
                    }
                    let bin = cuts[feature]
                        .iter()
                        .position(|c| c.to_bits() == threshold.to_bits())
                        .filter(|&b| b <= u8::MAX as usize)
                        .ok_or(FreezeError::ThresholdOffGrid {
                            tree: t,
                            node: i,
                            feature,
                        })?;
                    for child in [left, right] {
                        if child <= i || child >= nodes.len() {
                            return Err(FreezeError::ChildOutOfOrder { tree: t, node: i });
                        }
                        indegree[child] = indegree[child].saturating_add(1);
                    }
                    out.feature.push(feature as u32);
                    out.bin.push(bin as u8);
                    out.left.push(base + left as u32);
                    out.right.push(base + right as u32);
                    out.leaf.push(0.0);
                }
            }
        }
        // Exactly-once reachability: the root has no parent, every other
        // node exactly one. Together with the `child > parent` order
        // this makes slot `base + i` ↔ node `i` a true bijection.
        for (i, &deg) in indegree.iter().enumerate() {
            let want = u8::from(i != 0);
            if deg != want {
                return Err(FreezeError::NodeShared { tree: t, node: i });
            }
        }
        out.tree_starts.push(out.feature.len() as u32);
    }
    Ok(out)
}

/// Clones the full per-feature cut grid out of a binned matrix.
fn clone_grid(binned: &BinnedMatrix) -> Vec<Vec<f32>> {
    (0..binned.n_features())
        .map(|f| binned.cuts(f).to_vec())
        .collect()
}

/// A [`GbdtRegressor`] compiled to SoA arrays with quantized
/// thresholds. Construct via [`FrozenGbdt::freeze`]; predictions are
/// bit-identical to the source model (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrozenGbdt {
    base_score: f32,
    n_features: usize,
    /// Per-feature ascending cut grid the thresholds were quantized on.
    cuts: Vec<Vec<f32>>,
    nodes: FrozenNodes,
}

impl FrozenGbdt {
    /// Freezes a fitted ensemble onto the bin grid of `binned` — which
    /// must be the grid of the model's own training matrix at its own
    /// `max_bins` (the one [`GbdtRegressor::fit_with_grid`] returns, or
    /// a deterministic rebuild), or thresholds will not land on the
    /// grid.
    ///
    /// # Errors
    ///
    /// Any [`FreezeError`]: width mismatch, off-grid thresholds, or a
    /// structurally invalid (hand-built) arena.
    pub fn freeze(model: &GbdtRegressor, binned: &BinnedMatrix) -> Result<Self, FreezeError> {
        let _span = gdcm_obs::span!("ml/freeze_gbdt");
        if binned.n_features() != model.n_features() {
            return Err(FreezeError::GridWidthMismatch {
                model: model.n_features(),
                grid: binned.n_features(),
            });
        }
        let cuts = clone_grid(binned);
        let nodes = freeze_trees(model.trees(), &cuts, model.n_features())?;
        gdcm_obs::counter("ml/frozen/gbdt_freezes").incr();
        Ok(Self {
            base_score: model.base_score(),
            n_features: model.n_features(),
            cuts,
            nodes,
        })
    }

    /// The constant base score (copied from the source model).
    pub fn base_score(&self) -> f32 {
        self.base_score
    }

    /// Feature width the model scores.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of flattened trees.
    pub fn n_trees(&self) -> usize {
        self.nodes.n_trees()
    }

    /// Total SoA slot count.
    pub fn n_slots(&self) -> usize {
        self.nodes.n_slots()
    }

    /// The ascending cut points of feature `f`.
    pub fn cuts(&self, f: usize) -> &[f32] {
        &self.cuts[f]
    }

    /// The full per-feature cut grid.
    pub fn cut_grid(&self) -> &[Vec<f32>] {
        &self.cuts
    }

    /// Read-only view of the SoA storage, for the flatcheck auditor.
    pub fn nodes(&self) -> &FrozenNodes {
        &self.nodes
    }

    /// Assembles a frozen model from raw parts **without validation**
    /// (negative-test escape hatch; see [`FrozenNodes::from_raw_parts`]).
    pub fn from_raw_parts(
        base_score: f32,
        n_features: usize,
        cuts: Vec<Vec<f32>>,
        nodes: FrozenNodes,
    ) -> Self {
        Self {
            base_score,
            n_features,
            cuts,
            nodes,
        }
    }

    /// Decomposes into `(base_score, n_features, cuts, nodes)`. Inverse
    /// of [`FrozenGbdt::from_raw_parts`].
    pub fn into_raw_parts(self) -> (f32, usize, Vec<Vec<f32>>, FrozenNodes) {
        (self.base_score, self.n_features, self.cuts, self.nodes)
    }

    /// Scores one pre-binned row: `f64` accumulator seeded with the
    /// base score, trees added in boosting order — the exact addition
    /// sequence of [`GbdtRegressor::predict_row`].
    pub fn predict_binned(&self, codes: &[u8]) -> f32 {
        self.nodes.binned_sum(self.base_score as f64, codes) as f32
    }
}

impl Regressor for FrozenGbdt {
    fn predict_row(&self, row: &[f32]) -> f32 {
        debug_assert_eq!(row.len(), self.n_features, "feature count mismatch");
        self.nodes.row_sum(self.base_score as f64, &self.cuts, row) as f32
    }

    /// Chunked batch-major prediction on the `gdcm-par` pool:
    /// bit-identical to the serial row loop at any thread count.
    fn predict(&self, x: &DenseMatrix) -> Vec<f32> {
        par_predict(x, self.n_trees(), |range| {
            self.nodes
                .row_sums(self.base_score as f64, &self.cuts, x, range)
                .into_iter()
                .map(|a| a as f32)
                .collect()
        })
    }
}

/// A [`RandomForestRegressor`] compiled to SoA arrays (mean of leaves
/// instead of base-plus-sum). Construct via [`FrozenForest::freeze`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrozenForest {
    n_features: usize,
    cuts: Vec<Vec<f32>>,
    nodes: FrozenNodes,
}

impl FrozenForest {
    /// Freezes a fitted forest onto the bin grid of `binned` — the
    /// rebuild of its training matrix at [`crate::forest::FOREST_BINS`].
    ///
    /// # Errors
    ///
    /// Any [`FreezeError`], including [`FreezeError::EmptyForest`].
    pub fn freeze(
        forest: &RandomForestRegressor,
        binned: &BinnedMatrix,
    ) -> Result<Self, FreezeError> {
        let _span = gdcm_obs::span!("ml/freeze_forest");
        if binned.n_features() != forest.n_features() {
            return Err(FreezeError::GridWidthMismatch {
                model: forest.n_features(),
                grid: binned.n_features(),
            });
        }
        if forest.trees().is_empty() {
            return Err(FreezeError::EmptyForest);
        }
        let cuts = clone_grid(binned);
        let nodes = freeze_trees(forest.trees(), &cuts, forest.n_features())?;
        gdcm_obs::counter("ml/frozen/forest_freezes").incr();
        Ok(Self {
            n_features: forest.n_features(),
            cuts,
            nodes,
        })
    }

    /// Feature width the forest scores.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of flattened trees.
    pub fn n_trees(&self) -> usize {
        self.nodes.n_trees()
    }

    /// Total SoA slot count.
    pub fn n_slots(&self) -> usize {
        self.nodes.n_slots()
    }

    /// The ascending cut points of feature `f`.
    pub fn cuts(&self, f: usize) -> &[f32] {
        &self.cuts[f]
    }

    /// The full per-feature cut grid.
    pub fn cut_grid(&self) -> &[Vec<f32>] {
        &self.cuts
    }

    /// Read-only view of the SoA storage.
    pub fn nodes(&self) -> &FrozenNodes {
        &self.nodes
    }

    /// Assembles a frozen forest from raw parts **without validation**
    /// (negative-test escape hatch).
    pub fn from_raw_parts(n_features: usize, cuts: Vec<Vec<f32>>, nodes: FrozenNodes) -> Self {
        Self {
            n_features,
            cuts,
            nodes,
        }
    }

    /// Decomposes into `(n_features, cuts, nodes)`. Inverse of
    /// [`FrozenForest::from_raw_parts`].
    pub fn into_raw_parts(self) -> (usize, Vec<Vec<f32>>, FrozenNodes) {
        (self.n_features, self.cuts, self.nodes)
    }

    /// Scores one pre-binned row: `f64` leaf sum in tree order divided
    /// by the tree count — the exact arithmetic of
    /// [`RandomForestRegressor::predict_row`].
    pub fn predict_binned(&self, codes: &[u8]) -> f32 {
        self.mean(self.nodes.binned_sum(0.0, codes))
    }

    fn mean(&self, sum: f64) -> f32 {
        (sum / self.nodes.n_trees() as f64) as f32
    }
}

impl Regressor for FrozenForest {
    fn predict_row(&self, row: &[f32]) -> f32 {
        debug_assert_eq!(row.len(), self.n_features, "feature count mismatch");
        self.mean(self.nodes.row_sum(0.0, &self.cuts, row))
    }

    /// Chunked batch-major prediction (same contract as
    /// [`FrozenGbdt::predict`]).
    fn predict(&self, x: &DenseMatrix) -> Vec<f32> {
        par_predict(x, self.n_trees(), |range| {
            self.nodes
                .row_sums(0.0, &self.cuts, x, range)
                .into_iter()
                .map(|s| self.mean(s))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::bin_code;
    use crate::gbdt::GbdtParams;

    fn synthetic(n: usize, d: usize) -> (DenseMatrix, Vec<f32>) {
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut state = 99u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (u32::MAX as f32) * 2.0 - 1.0) * 4.0
        };
        for _ in 0..n {
            let row: Vec<f32> = (0..d).map(|_| next()).collect();
            let target = row[0] * 2.0 - row[1 % d] * row[1 % d] + next() * 0.1;
            rows.push(row);
            y.push(target);
        }
        (DenseMatrix::from_rows(&rows), y)
    }

    /// Probe rows exercising every routing regime: training rows,
    /// between-cut values, out-of-range values, non-finite inputs, and
    /// the cut boundaries themselves — every cut of `cuts` with its
    /// `next_up` and `next_down` neighbours, signed zeros and a
    /// subnormal.
    fn probe_rows(x: &DenseMatrix, cuts: &[Vec<f32>]) -> DenseMatrix {
        let mut rows: Vec<Vec<f32>> = (0..x.n_rows()).map(|i| x.row(i).to_vec()).collect();
        let d = x.n_cols();
        rows.push(vec![1e9; d]);
        rows.push(vec![-1e9; d]);
        rows.push(vec![f32::INFINITY; d]);
        rows.push(vec![f32::NEG_INFINITY; d]);
        rows.push(vec![f32::NAN; d]);
        rows.push(vec![0.123456; d]);
        rows.push(vec![-0.0; d]);
        rows.push(vec![0.0; d]);
        rows.push(vec![f32::from_bits(1); d]);
        for (f, fc) in cuts.iter().enumerate() {
            for (k, &c) in fc.iter().enumerate() {
                for v in [c, c.next_up(), c.next_down()] {
                    let mut row = x.row(k % x.n_rows()).to_vec();
                    row[f] = v;
                    rows.push(row);
                }
            }
        }
        DenseMatrix::from_rows(&rows)
    }

    /// `row` binned onto `cuts` — the codes `predict_binned` takes.
    fn codes(cuts: &[Vec<f32>], row: &[f32]) -> Vec<u8> {
        row.iter()
            .zip(cuts)
            .map(|(&v, fc)| bin_code(fc, v))
            .collect()
    }

    #[test]
    fn frozen_gbdt_is_bit_identical_to_node_model() {
        let (x, y) = synthetic(300, 5);
        let params = GbdtParams {
            n_estimators: 40,
            max_depth: 4,
            ..GbdtParams::default()
        };
        let model = GbdtRegressor::fit(&x, &y, &params);
        let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
        let frozen = FrozenGbdt::freeze(&model, &binned).expect("fitted model freezes");
        assert_eq!(frozen.n_trees(), model.n_trees());
        assert_eq!(frozen.base_score().to_bits(), model.base_score().to_bits());

        let probe = probe_rows(&x, frozen.cut_grid());
        let batch = frozen.predict(&probe);
        for (i, b) in batch.iter().enumerate() {
            let row = probe.row(i);
            let node = model.predict_row(row);
            let flat = frozen.predict_row(row);
            assert_eq!(
                node.to_bits(),
                flat.to_bits(),
                "row {i}: node {node} vs flat {flat}"
            );
            assert_eq!(b.to_bits(), node.to_bits(), "batch row {i}");
            let binned = frozen.predict_binned(&codes(frozen.cut_grid(), row));
            assert_eq!(binned.to_bits(), node.to_bits(), "binned row {i}");
        }
    }

    #[test]
    fn frozen_forest_is_bit_identical_to_node_model() {
        let (x, y) = synthetic(200, 4);
        let forest = RandomForestRegressor::fit(&x, &y, 15, 7, 3);
        let binned = BinnedMatrix::from_matrix(&x, crate::forest::FOREST_BINS);
        let frozen = FrozenForest::freeze(&forest, &binned).expect("fitted forest freezes");

        let probe = probe_rows(&x, frozen.cut_grid());
        let batch = frozen.predict(&probe);
        for (i, b) in batch.iter().enumerate() {
            let row = probe.row(i);
            let node = forest.predict_row(row);
            let flat = frozen.predict_row(row);
            assert_eq!(node.to_bits(), flat.to_bits(), "row {i}");
            assert_eq!(b.to_bits(), node.to_bits(), "batch row {i}");
            let binned = frozen.predict_binned(&codes(frozen.cut_grid(), row));
            assert_eq!(binned.to_bits(), node.to_bits(), "binned row {i}");
        }
    }

    #[test]
    fn freeze_rejects_off_grid_threshold() {
        let (x, y) = synthetic(100, 3);
        let params = GbdtParams {
            n_estimators: 5,
            ..GbdtParams::default()
        };
        let model = GbdtRegressor::fit(&x, &y, &params);
        let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
        let (base, mut trees, nf) = model.into_raw_parts();
        // Nudge one split threshold off the grid.
        let nodes: Vec<TreeNode> = trees[0]
            .nodes()
            .iter()
            .map(|n| match *n {
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => TreeNode::Split {
                    feature,
                    threshold: threshold + 1e-3,
                    left,
                    right,
                },
                leaf => leaf,
            })
            .collect();
        trees[0] = Tree::from_raw_nodes(nodes);
        let bad = GbdtRegressor::from_raw_parts(base, trees, nf);
        assert!(matches!(
            FrozenGbdt::freeze(&bad, &binned),
            Err(FreezeError::ThresholdOffGrid { tree: 0, .. })
        ));
    }

    #[test]
    fn freeze_rejects_mismatched_grid_width() {
        let (x, y) = synthetic(80, 3);
        let model = GbdtRegressor::fit(
            &x,
            &y,
            &GbdtParams {
                n_estimators: 3,
                ..GbdtParams::default()
            },
        );
        let (x_wide, _) = synthetic(80, 4);
        let binned = BinnedMatrix::from_matrix(&x_wide, 64);
        assert!(matches!(
            FrozenGbdt::freeze(&model, &binned),
            Err(FreezeError::GridWidthMismatch { model: 3, grid: 4 })
        ));
    }

    #[test]
    fn freeze_rejects_non_topological_children() {
        let (x, _) = synthetic(10, 2);
        let binned = BinnedMatrix::from_matrix(&x, 16);
        let threshold = binned.threshold(0, 0);
        let tree = Tree::from_raw_nodes(vec![
            TreeNode::Split {
                feature: 0,
                threshold,
                left: 0, // self-reference
                right: 1,
            },
            TreeNode::Leaf { weight: 1.0 },
        ]);
        let model = GbdtRegressor::from_raw_parts(0.0, vec![tree], 2);
        assert!(matches!(
            FrozenGbdt::freeze(&model, &binned),
            Err(FreezeError::ChildOutOfOrder { tree: 0, node: 0 })
        ));
    }

    #[test]
    fn freeze_rejects_orphan_nodes() {
        let (x, _) = synthetic(10, 2);
        let binned = BinnedMatrix::from_matrix(&x, 16);
        let tree = Tree::from_raw_nodes(vec![
            TreeNode::Leaf { weight: 1.0 },
            TreeNode::Leaf { weight: 2.0 }, // unreachable
        ]);
        let model = GbdtRegressor::from_raw_parts(0.0, vec![tree], 2);
        assert!(matches!(
            FrozenGbdt::freeze(&model, &binned),
            Err(FreezeError::NodeShared { tree: 0, node: 1 })
        ));
    }

    #[test]
    fn frozen_gbdt_serde_round_trips() {
        let (x, y) = synthetic(120, 3);
        let params = GbdtParams {
            n_estimators: 8,
            ..GbdtParams::default()
        };
        let model = GbdtRegressor::fit(&x, &y, &params);
        let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
        let frozen = FrozenGbdt::freeze(&model, &binned).expect("freezes");
        let json = serde_json::to_string(&frozen).expect("serializes");
        let back: FrozenGbdt = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(frozen, back);
        for i in 0..x.n_rows() {
            assert_eq!(
                frozen.predict_row(x.row(i)).to_bits(),
                back.predict_row(x.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn slot_layout_preserves_arena_order() {
        let (x, y) = synthetic(150, 3);
        let params = GbdtParams {
            n_estimators: 6,
            ..GbdtParams::default()
        };
        let model = GbdtRegressor::fit(&x, &y, &params);
        let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
        let frozen = FrozenGbdt::freeze(&model, &binned).expect("freezes");
        let nodes = frozen.nodes();
        let starts = nodes.tree_starts();
        assert_eq!(starts.len(), model.n_trees() + 1);
        assert_eq!(starts[0], 0);
        for (t, tree) in model.trees().iter().enumerate() {
            let base = starts[t] as usize;
            assert_eq!(starts[t + 1] as usize - base, tree.len());
            for (i, n) in tree.nodes().iter().enumerate() {
                let s = base + i;
                match *n {
                    TreeNode::Leaf { weight } => {
                        assert_eq!(nodes.feature()[s], FROZEN_LEAF);
                        assert_eq!(nodes.leaf()[s].to_bits(), weight.to_bits());
                    }
                    TreeNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        assert_eq!(nodes.feature()[s] as usize, feature);
                        assert_eq!(nodes.left()[s] as usize, base + left);
                        assert_eq!(nodes.right()[s] as usize, base + right);
                        let bin = nodes.bin()[s];
                        assert_eq!(
                            frozen.cuts(feature)[bin as usize].to_bits(),
                            threshold.to_bits()
                        );
                    }
                }
            }
        }
    }
}
