//! Histogram-based regression tree with second-order (XGBoost-style) gains.
//!
//! The learner consumes a [`BinnedMatrix`] plus per-row gradients, so the
//! same code serves gradient boosting (g = prediction − target for
//! squared error) and random forests (g = −target, λ = 0, which makes
//! each leaf the mean of its targets). Both losses have a unit hessian,
//! so a node's hessian sum is its row count: `h = count as f64` is exact
//! (a sum of k ones in f64 is k for k < 2^53), and no hessian vector
//! exists.
//!
//! # Blocked split search
//!
//! A split-search job gathers its node's gradients into row order once,
//! then builds histograms for [`LANES`] features per pass over the rows
//! with a fixed-width inner loop. Most columns of the layer-wise
//! encodings have two or three bins, so one feature at a time sends
//! nearly every row into the same cell, and each add waits on the one
//! before it; eight features per pass give eight independent chains. A
//! short last block pads its unused lanes with its last feature and
//! ignores their histograms, so one loop builds every histogram. Each
//! feature's bins are then scanned in the caller's feature order with a
//! strictly-greater comparison, so ties go to the earliest listed
//! feature.
//!
//! The blocking changes no bit of any tree: every (feature, bin) cell
//! receives the same f64 gradients in the node's row order whatever the
//! loop nesting, and the scan visits candidates in the same order as a
//! one-feature-at-a-time search.
//!
//! # Column blocks
//!
//! A [`BinnedMatrix`] built from a [`crate::FactoredMatrix`] stores a
//! block's codes once per table entry and maps rows to entries by id.
//! The search gathers each mapped block's ids for the node's rows once
//! per node, and cuts the feature list at block boundaries so that one
//! pass of [`LANES`] features reads one id stream: the node's rows
//! themselves for an identity block, its gathered ids for a mapped one.
//! Row `i` of the stream still carries the node's `i`-th gradient, so
//! every cell receives the same gradients in the same order as on the
//! expanded matrix.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::binning::{BinnedMatrix, MAX_BINS};

/// Reference-counted training state for [`Tree::fit_shared`].
///
/// The split search parallelizes over feature groups on the global
/// `gdcm-par` pool, whose jobs are `'static`; wrapping the binned matrix
/// and gradient vector in `Arc`s lets worker jobs share them without
/// copying the (large) training data per node.
#[derive(Debug, Clone)]
pub struct SharedFit {
    /// Binned training matrix.
    pub binned: Arc<BinnedMatrix>,
    /// Per-row gradients.
    pub grad: Arc<Vec<f64>>,
}

/// Borrowed per-fit context threaded through the recursive `grow`.
/// `shared` is `Some` only when the caller opted into the parallel
/// split search via [`Tree::fit_shared`].
struct FitCtx<'a> {
    binned: &'a BinnedMatrix,
    grad: &'a [f64],
    shared: Option<&'a SharedFit>,
}

/// Features whose histograms one pass over a node's rows builds.
const LANES: usize = 8;

/// Reusable split-search buffers of one job: the node's gradients in
/// row order, the non-constant features it scans, and one gradient and
/// one count histogram per lane. Bin codes are `u8`, so [`MAX_BINS`]
/// cells hold every code without a bounds check.
struct HistScratch {
    grad: Vec<f64>,
    features: Vec<usize>,
    g: Box<[[f64; MAX_BINS]; LANES]>,
    c: Box<[[u32; MAX_BINS]; LANES]>,
}

impl HistScratch {
    fn new() -> Self {
        Self {
            grad: Vec::new(),
            features: Vec::new(),
            g: Box::new([[0.0; MAX_BINS]; LANES]),
            c: Box::new([[0; MAX_BINS]; LANES]),
        }
    }
}

/// Per column block, the table id of each of a node's rows, in row
/// order: gathered for a mapped block, empty for an identity block,
/// whose stream is the rows themselves.
type NodeIds = Vec<Vec<usize>>;

/// Gathers `rows`' table ids for every mapped block of `binned` into
/// `ids`, reusing its buffers.
fn gather_ids(binned: &BinnedMatrix, rows: &[usize], ids: &mut NodeIds) {
    ids.resize_with(binned.n_blocks(), Vec::new);
    for (b, out) in ids.iter_mut().enumerate() {
        out.clear();
        if let Some(block_ids) = binned.block_ids(b) {
            out.extend(rows.iter().map(|&r| block_ids[r] as usize));
        }
    }
}

/// The serial path's buffers, reused across a tree's nodes.
struct NodeScratch {
    hist: HistScratch,
    ids: NodeIds,
}

/// Minimum `rows × features` work below which the parallel split search
/// is not worth the dispatch overhead and the serial scan runs instead.
/// The decision depends only on node size, never on thread count, and
/// both paths produce identical candidates, so this is a pure
/// performance knob.
const PAR_SPLIT_MIN_WORK: usize = 1 << 15;

/// Hyper-parameters of a single tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum summed hessian required in each child. Hessians are 1
    /// per row, so this is a minimum row count.
    pub min_child_weight: f64,
    /// L2 regularization on leaf weights (XGBoost λ).
    pub lambda: f64,
    /// Minimum gain required to split (XGBoost γ).
    pub gamma: f64,
    /// Minimum number of rows in each child.
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 3,
            min_child_weight: 1.0,
            lambda: 1.0,
            gamma: 0.0,
            min_samples_leaf: 1,
        }
    }
}

/// One node of a fitted tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// Internal split: rows with `row[feature] <= threshold` go to `left`.
    Split {
        /// Feature column index.
        feature: usize,
        /// Raw-value split threshold.
        threshold: f32,
        /// Index of the left child in the node arena.
        left: usize,
        /// Index of the right child in the node arena.
        right: usize,
    },
    /// Leaf carrying a prediction weight.
    Leaf {
        /// The leaf value (already includes any shrinkage applied by the
        /// ensemble).
        weight: f32,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<TreeNode>,
}

impl Tree {
    /// Fits a tree to the gradients `grad` (unit hessians) over the
    /// given training rows.
    ///
    /// `active_features` restricts split search (used for column
    /// subsampling); pass all feature indices for a full search.
    ///
    /// # Panics
    ///
    /// Panics when `grad`'s length differs from the binned matrix's row
    /// count.
    pub fn fit(
        binned: &BinnedMatrix,
        grad: &[f64],
        rows: &[usize],
        active_features: &[usize],
        params: &TreeParams,
    ) -> Self {
        let ctx = FitCtx {
            binned,
            grad,
            shared: None,
        };
        Self::fit_ctx(&ctx, rows, active_features, params)
    }

    /// Like [`Tree::fit`], but over [`SharedFit`] state so large nodes
    /// can search split features in parallel on the global `gdcm-par`
    /// pool. Produces a bit-identical tree to `fit` at any thread count
    /// (the candidate merge preserves the serial scan's first-best
    /// tie-break).
    ///
    /// # Panics
    ///
    /// Panics when `grad`'s length differs from the binned matrix's row
    /// count.
    pub fn fit_shared(
        shared: &SharedFit,
        rows: &[usize],
        active_features: &[usize],
        params: &TreeParams,
    ) -> Self {
        let ctx = FitCtx {
            binned: &shared.binned,
            grad: &shared.grad,
            shared: Some(shared),
        };
        Self::fit_ctx(&ctx, rows, active_features, params)
    }

    fn fit_ctx(
        ctx: &FitCtx<'_>,
        rows: &[usize],
        active_features: &[usize],
        params: &TreeParams,
    ) -> Self {
        assert_eq!(ctx.grad.len(), ctx.binned.n_rows(), "grad length mismatch");
        let mut tree = Tree { nodes: Vec::new() };
        let mut rows = rows.to_vec();
        let mut scratch = NodeScratch {
            hist: HistScratch::new(),
            ids: Vec::new(),
        };
        tree.grow(ctx, &mut rows, active_features, params, 0, &mut scratch);
        tree
    }

    /// Recursively grows the subtree over `rows`, returning its node index.
    fn grow(
        &mut self,
        ctx: &FitCtx<'_>,
        rows: &mut [usize],
        active_features: &[usize],
        params: &TreeParams,
        depth: usize,
        scratch: &mut NodeScratch,
    ) -> usize {
        let g_sum: f64 = rows.iter().map(|&r| ctx.grad[r]).sum();
        let h_sum = rows.len() as f64;

        let make_leaf = |nodes: &mut Vec<TreeNode>| {
            let weight = (-g_sum / (h_sum + params.lambda)) as f32;
            nodes.push(TreeNode::Leaf { weight });
            nodes.len() - 1
        };

        if depth >= params.max_depth || rows.len() < 2 * params.min_samples_leaf {
            return make_leaf(&mut self.nodes);
        }

        let best = find_best_split(ctx, rows, active_features, params, g_sum, scratch);
        let Some(split) = best else {
            return make_leaf(&mut self.nodes);
        };

        // Partition rows in place: left block first.
        let column = ctx.binned.column(split.feature);
        let mut mid = 0;
        for i in 0..rows.len() {
            if column.code(rows[i]) <= split.bin {
                rows.swap(i, mid);
                mid += 1;
            }
        }
        debug_assert!(
            mid > 0 && mid < rows.len(),
            "degenerate split survived checks"
        );

        let node_idx = self.nodes.len();
        self.nodes.push(TreeNode::Leaf { weight: 0.0 }); // placeholder
        let (left_rows, right_rows) = rows.split_at_mut(mid);
        let left = self.grow(ctx, left_rows, active_features, params, depth + 1, scratch);
        let right = self.grow(ctx, right_rows, active_features, params, depth + 1, scratch);
        self.nodes[node_idx] = TreeNode::Split {
            feature: split.feature,
            threshold: ctx.binned.threshold(split.feature, split.bin),
            left,
            right,
        };
        node_idx
    }

    /// Predicts the tree output for one raw feature row.
    pub fn predict_row(&self, row: &[f32]) -> f32 {
        self.predict_with(|f| row[f])
    }

    /// The tree walker: predicts the tree output for a row whose
    /// feature `f` is `value(f)`.
    pub(crate) fn predict_with(&self, value: impl Fn(usize) -> f32) -> f32 {
        let mut idx = 0;
        loop {
            match self.nodes[idx] {
                TreeNode::Leaf { weight } => return weight,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if value(feature) <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Scales every leaf weight by `factor` (ensemble shrinkage).
    pub fn scale_leaves(&mut self, factor: f32) {
        for n in &mut self.nodes {
            if let TreeNode::Leaf { weight } = n {
                *weight *= factor;
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never true after `fit`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of leaf nodes.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, TreeNode::Leaf { .. }))
            .count()
    }

    /// Read-only view of the node arena, in arena order. Node 0 is the
    /// root; `grow` always pushes children after their parent, so
    /// auditors can re-walk the structure independently of
    /// [`Tree::predict_row`].
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Builds a tree directly from a node arena, without any structural
    /// validation. Node 0 is taken as the root.
    ///
    /// This is an escape hatch for tests and auditors that need to
    /// construct deliberately malformed trees; `fit` is the only way to
    /// obtain a tree with guaranteed invariants.
    pub fn from_raw_nodes(nodes: Vec<TreeNode>) -> Self {
        Self { nodes }
    }

    /// Features used by splits, for feature-importance accounting.
    pub fn split_features(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes.iter().filter_map(|n| match n {
            TreeNode::Split { feature, .. } => Some(*feature),
            TreeNode::Leaf { .. } => None,
        })
    }
}

struct SplitCandidate {
    feature: usize,
    bin: u8,
    gain: f64,
}

/// XGBoost structure score of a node: `G² / (H + λ)`.
fn score(g: f64, h: f64, lambda: f64) -> f64 {
    g * g / (h + lambda)
}

/// Dispatches between the serial scan and the feature-parallel search.
/// Parallelism kicks in only for shared-state fits on nodes with enough
/// `rows × features` work; both paths return the same candidate.
fn find_best_split(
    ctx: &FitCtx<'_>,
    rows: &[usize],
    active_features: &[usize],
    params: &TreeParams,
    g_sum: f64,
    scratch: &mut NodeScratch,
) -> Option<SplitCandidate> {
    if let Some(shared) = ctx.shared {
        let pool = gdcm_par::pool();
        if pool.threads() > 1
            && active_features.len() >= 2
            && rows.len().saturating_mul(active_features.len()) >= PAR_SPLIT_MIN_WORK
        {
            return find_best_split_parallel(shared, pool, rows, active_features, params, g_sum);
        }
    }
    gather_ids(ctx.binned, rows, &mut scratch.ids);
    best_split_over(
        ctx.binned,
        ctx.grad,
        rows,
        &scratch.ids,
        active_features,
        params,
        g_sum,
        &mut scratch.hist,
    )
}

/// Feature-parallel split search: `active_features` is cut into
/// contiguous groups (in the caller's order, whole [`LANES`]-wide blocks
/// where possible), each group scanned by a pool job, and the per-group
/// winners merged **in submission order** with a strictly-greater
/// comparison. Ties on gain therefore resolve to the earliest feature in
/// `active_features` — exactly the serial scan's tie-break — so the
/// result is bit-identical at any thread count. The node's ids are
/// gathered once and shared by every job.
fn find_best_split_parallel(
    shared: &SharedFit,
    pool: &gdcm_par::Pool,
    rows: &[usize],
    active_features: &[usize],
    params: &TreeParams,
    g_sum: f64,
) -> Option<SplitCandidate> {
    let mut ids = NodeIds::new();
    gather_ids(&shared.binned, rows, &mut ids);
    let ids = Arc::new(ids);
    let rows: Arc<Vec<usize>> = Arc::new(rows.to_vec());
    let groups = pool.threads().min(active_features.len());
    let group_len = active_features
        .len()
        .div_ceil(groups)
        .next_multiple_of(LANES);
    let params = *params;
    let jobs: Vec<gdcm_par::Job<Option<SplitCandidate>>> = active_features
        .chunks(group_len)
        .map(|features| {
            let features = features.to_vec();
            let shared = shared.clone();
            let rows = Arc::clone(&rows);
            let ids = Arc::clone(&ids);
            let job: gdcm_par::Job<Option<SplitCandidate>> = Box::new(move || {
                best_split_over(
                    &shared.binned,
                    &shared.grad,
                    &rows,
                    &ids,
                    &features,
                    &params,
                    g_sum,
                    &mut HistScratch::new(),
                )
            });
            job
        })
        .collect();
    let mut best: Option<SplitCandidate> = None;
    for candidate in pool.run(jobs).into_iter().flatten() {
        if best.as_ref().is_none_or(|b| candidate.gain > b.gain) {
            best = Some(candidate);
        }
    }
    best
}

/// The serial split scan over one list of features — the shared core of
/// both execution paths. Builds the histograms of [`LANES`] features of
/// one column block per pass over the block's id stream for `rows` (see
/// the module docs), then scans each feature's bins in list order.
#[allow(clippy::too_many_arguments)]
fn best_split_over(
    binned: &BinnedMatrix,
    grad: &[f64],
    rows: &[usize],
    ids: &NodeIds,
    active_features: &[usize],
    params: &TreeParams,
    g_sum: f64,
    scratch: &mut HistScratch,
) -> Option<SplitCandidate> {
    let HistScratch {
        grad: node_grad,
        features,
        g: hist_g,
        c: hist_c,
    } = scratch;
    node_grad.clear();
    node_grad.extend(rows.iter().map(|&r| grad[r]));
    features.clear();
    features.extend(
        active_features
            .iter()
            .copied()
            .filter(|&f| !binned.is_constant(f)),
    );

    let mut best: Option<SplitCandidate> = None;
    let mut rest: &[usize] = features;
    while let Some(&head) = rest.first() {
        // The run of listed features in `head`'s column block.
        let col_block = binned.block_of(head);
        let run = rest
            .iter()
            .position(|&f| binned.block_of(f) != col_block)
            .unwrap_or(rest.len());
        let (same_block, tail) = rest.split_at(run);
        rest = tail;
        let stream: &[usize] = match binned.block_ids(col_block) {
            Some(_) => &ids[col_block],
            None => rows,
        };
        // Every feature of a block has one code per table entry. Slicing
        // each lane to that one length lets one bounds check per row
        // cover all lanes.
        let entries = binned.column(head).codes.len();
        for block in same_block.chunks(LANES) {
            let column = |lane: usize| block[lane.min(block.len() - 1)];
            let codes: [&[u8]; LANES] =
                std::array::from_fn(|lane| &binned.column(column(lane)).codes[..entries]);
            for lane in 0..LANES {
                let n_bins = binned.n_bins(column(lane));
                hist_g[lane][..n_bins].fill(0.0);
                hist_c[lane][..n_bins].fill(0);
            }
            for (&e, &g) in stream.iter().zip(node_grad.iter()) {
                for lane in 0..LANES {
                    let b = usize::from(codes[lane][e]);
                    hist_g[lane][b] += g;
                    hist_c[lane][b] += 1;
                }
            }
            for (lane, &f) in block.iter().enumerate() {
                let n_bins = binned.n_bins(f);
                scan_bins(
                    f,
                    &hist_g[lane][..n_bins],
                    &hist_c[lane][..n_bins],
                    rows.len(),
                    params,
                    g_sum,
                    &mut best,
                );
            }
        }
    }
    best
}

/// Scans one feature's histogram for the best split point, replacing
/// `best` only on a strictly greater gain.
fn scan_bins(
    feature: usize,
    hist_g: &[f64],
    hist_c: &[u32],
    n_rows: usize,
    params: &TreeParams,
    g_sum: f64,
    best: &mut Option<SplitCandidate>,
) {
    let parent_score = score(g_sum, n_rows as f64, params.lambda);
    let mut gl = 0f64;
    let mut cl = 0u32;
    // The last bin can never be a split point (right side empty).
    for b in 0..hist_g.len() - 1 {
        gl += hist_g[b];
        cl += hist_c[b];
        let cr = n_rows as u32 - cl;
        if cl == 0 {
            continue;
        }
        if cr == 0 {
            break;
        }
        if (cl as usize) < params.min_samples_leaf || (cr as usize) < params.min_samples_leaf {
            continue;
        }
        let gr = g_sum - gl;
        let (hl, hr) = (f64::from(cl), f64::from(cr));
        if hl < params.min_child_weight || hr < params.min_child_weight {
            continue;
        }
        let gain = 0.5
            * (score(gl, hl, params.lambda) + score(gr, hr, params.lambda) - parent_score)
            - params.gamma;
        if gain > 1e-12 && best.as_ref().is_none_or(|b2| gain > b2.gain) {
            *best = Some(SplitCandidate {
                feature,
                bin: b as u8,
                gain,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DenseMatrix;

    /// Fits a tree directly to targets (forest-style: g = -y, h = 1, λ=0).
    fn fit_to_targets(x: &DenseMatrix, y: &[f32], params: TreeParams) -> Tree {
        let binned = BinnedMatrix::from_matrix(x, 64);
        let grad: Vec<f64> = y.iter().map(|&v| -v as f64).collect();
        let rows: Vec<usize> = (0..y.len()).collect();
        let feats: Vec<usize> = (0..x.n_cols()).collect();
        Tree::fit(&binned, &grad, &rows, &feats, &params)
    }

    #[test]
    fn shared_fit_matches_plain_fit() {
        let rows: Vec<Vec<f32>> = (0..200)
            .map(|i| vec![i as f32, (i * 7 % 31) as f32, (i % 13) as f32])
            .collect();
        let x = DenseMatrix::from_rows(&rows);
        let y: Vec<f32> = (0..200).map(|i| ((i * 3) % 23) as f32).collect();
        let binned = BinnedMatrix::from_matrix(&x, 64);
        let grad: Vec<f64> = y.iter().map(|&v| -v as f64).collect();
        let row_idx: Vec<usize> = (0..y.len()).collect();
        let feats: Vec<usize> = (0..x.n_cols()).collect();
        let params = TreeParams::default();
        let plain = Tree::fit(&binned, &grad, &row_idx, &feats, &params);
        let shared = SharedFit {
            binned: Arc::new(binned),
            grad: Arc::new(grad),
        };
        let via_shared = Tree::fit_shared(&shared, &row_idx, &feats, &params);
        assert_eq!(plain, via_shared);
    }

    #[test]
    fn single_split_recovers_step_function() {
        let rows: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32]).collect();
        let x = DenseMatrix::from_rows(&rows);
        let y: Vec<f32> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let params = TreeParams {
            lambda: 0.0,
            ..TreeParams::default()
        };
        let tree = fit_to_targets(&x, &y, params);
        assert!((tree.predict_row(&[10.0]) - 1.0).abs() < 1e-4);
        assert!((tree.predict_row(&[90.0]) - 5.0).abs() < 1e-4);
    }

    #[test]
    fn depth_zero_gives_mean_leaf() {
        let x = DenseMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![2.0, 4.0, 6.0, 8.0];
        let params = TreeParams {
            max_depth: 0,
            lambda: 0.0,
            ..TreeParams::default()
        };
        let tree = fit_to_targets(&x, &y, params);
        assert_eq!(tree.len(), 1);
        assert!((tree.predict_row(&[1.5]) - 5.0).abs() < 1e-5);
    }

    #[test]
    fn respects_max_depth_leaf_budget() {
        let rows: Vec<Vec<f32>> = (0..256).map(|i| vec![i as f32]).collect();
        let x = DenseMatrix::from_rows(&rows);
        let y: Vec<f32> = (0..256).map(|i| (i % 7) as f32).collect();
        let tree = fit_to_targets(
            &x,
            &y,
            TreeParams {
                max_depth: 3,
                lambda: 0.0,
                ..TreeParams::default()
            },
        );
        assert!(tree.n_leaves() <= 8, "depth 3 allows at most 8 leaves");
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let x = DenseMatrix::from_rows(&rows);
        // One outlier; without the constraint the tree would isolate it.
        let mut y = vec![0.0f32; 20];
        y[19] = 100.0;
        let tree = fit_to_targets(
            &x,
            &y,
            TreeParams {
                max_depth: 6,
                lambda: 0.0,
                min_samples_leaf: 5,
                ..TreeParams::default()
            },
        );
        // The outlier's leaf has >= 5 rows, so its value is diluted.
        assert!(tree.predict_row(&[19.0]) <= 25.0);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let rows: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32, (i * 3) as f32]).collect();
        let x = DenseMatrix::from_rows(&rows);
        let y = vec![3.5f32; 50];
        let tree = fit_to_targets(
            &x,
            &y,
            TreeParams {
                lambda: 0.0,
                ..TreeParams::default()
            },
        );
        assert_eq!(tree.len(), 1, "no split should have positive gain");
        assert!((tree.predict_row(&[25.0, 75.0]) - 3.5).abs() < 1e-5);
    }

    #[test]
    fn lambda_shrinks_leaves() {
        let x = DenseMatrix::from_rows(&[vec![0.0], vec![1.0]]);
        let y = vec![10.0f32, 10.0];
        let t0 = fit_to_targets(
            &x,
            &y,
            TreeParams {
                max_depth: 0,
                lambda: 0.0,
                ..TreeParams::default()
            },
        );
        let t1 = fit_to_targets(
            &x,
            &y,
            TreeParams {
                max_depth: 0,
                lambda: 2.0,
                ..TreeParams::default()
            },
        );
        assert!(t1.predict_row(&[0.0]) < t0.predict_row(&[0.0]));
    }

    #[test]
    fn scale_leaves_scales_predictions() {
        let x = DenseMatrix::from_rows(&[vec![0.0], vec![1.0]]);
        let y = vec![4.0f32, 4.0];
        let mut tree = fit_to_targets(
            &x,
            &y,
            TreeParams {
                max_depth: 0,
                lambda: 0.0,
                ..TreeParams::default()
            },
        );
        let before = tree.predict_row(&[0.0]);
        tree.scale_leaves(0.5);
        assert!((tree.predict_row(&[0.0]) - before * 0.5).abs() < 1e-6);
    }

    #[test]
    fn ignores_inactive_features() {
        // Feature 0 is pure signal, feature 1 is noise; restrict to 1.
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![i as f32, ((i * 17) % 5) as f32])
            .collect();
        let x = DenseMatrix::from_rows(&rows);
        let y: Vec<f32> = (0..40).map(|i| if i < 20 { 0.0 } else { 10.0 }).collect();
        let binned = BinnedMatrix::from_matrix(&x, 64);
        let grad: Vec<f64> = y.iter().map(|&v| -v as f64).collect();
        let all_rows: Vec<usize> = (0..40).collect();
        let tree = Tree::fit(
            &binned,
            &grad,
            &all_rows,
            &[1],
            &TreeParams {
                lambda: 0.0,
                ..TreeParams::default()
            },
        );
        assert!(tree.split_features().all(|f| f == 1));
    }
}
