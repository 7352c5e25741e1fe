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
//! # Integer gradient sums
//!
//! A tree fit first puts its gradients on a power-of-two grid. With `n`
//! the matrix's row count, `s` is the largest integer such that
//! `n · max|g| · 2^s ≤ 2^62`, capped at 1022 so that `2^-s` is a normal
//! f64, and each gradient becomes the `i64` `round(g · 2^s)`, ties away
//! from zero. Every gradient sum the learner forms is an `i64` sum of
//! these: a node's total, a table entry's, a histogram cell's, the
//! scan's running left sum and the right sum `G − gl`. None can
//! overflow, since a node holds at most `n` rows, which sum to at most
//! `2^62 + n / 2` in magnitude. A sum becomes f64, as
//! `sum as f64 · 2^-s`, only where a gain or a leaf weight needs it. A
//! gradient already on the grid is taken exactly, so then every sum is
//! the exact sum of the gradients.
//!
//! Integer addition is associative: a sum does not depend on the order or
//! the grouping of its terms. That is what lets the search below add
//! per-entry partial sums instead of rows, and lets the parallel search
//! give the serial search's bits at any thread count.
//!
//! # Entry histograms
//!
//! A [`BinnedMatrix`] stores a column block's codes once per table entry
//! and maps rows to entries by id. For each node, one pass over its rows
//! builds every block's *stream*: each table entry the rows reference,
//! with the sum of their gradients and their count. An identity block's
//! entries are the rows themselves, each with count 1. A feature's
//! histogram then adds its block's stream, one `(entry, sum, count)` at a
//! time, so a mapped block costs one add per referenced entry, not one
//! per row. A node's streams are built once and shared by every feature
//! and by every job of the parallel search.
//!
//! # Blocked split search
//!
//! The search cuts the caller's feature list at block boundaries and
//! builds histograms for [`LANES`] features of one block per pass over
//! its stream, with a fixed-width inner loop. Most columns of the
//! layer-wise encodings have two or three bins, so one feature at a time
//! sends nearly every entry into the same cell, and each add waits on the
//! one before it; eight features per pass give eight independent chains.
//! A short last block pads its unused lanes with its last feature and
//! ignores their histograms, so one loop builds every histogram. Each
//! feature's bins are then scanned in the caller's feature order with a
//! strictly-greater comparison, so ties go to the earliest listed
//! feature.
//!
//! Neither the per-entry sums nor the blocking changes a bit of any tree:
//! a cell's integer sum is the same however its rows are grouped, and the
//! scan visits candidates in the same order as a one-feature-at-a-time
//! search over the rows.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::binning::{BinnedMatrix, MAX_BINS};

/// Features whose histograms one pass over a block's stream builds.
const LANES: usize = 8;

/// Largest grid exponent `s`: `2^-1022` is the smallest normal f64, so
/// an integer sum times `2^-s` never loses bits to a subnormal.
const MAX_SHIFT: i32 = 1022;

/// Minimum histogram adds, summed over the listed features of their
/// block's stream length, below which the parallel split search is not
/// worth the dispatch overhead and the serial scan runs instead. The
/// decision depends only on the node, never on the thread count, and
/// both paths produce identical candidates, so this is a pure
/// performance knob.
const PAR_SPLIT_MIN_WORK: usize = 1 << 15;

/// `2^k`, for `k` in the normal range.
fn pow2(k: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&k), "2^{k} is not a normal f64");
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// The grid exponent for `n` gradients of largest magnitude `max_abs`:
/// the largest integer `s` with `n · max_abs · 2^s ≤ 2^62`, capped at
/// [`MAX_SHIFT`]. Computed exactly, on the integer mantissa of `max_abs`.
fn grid_shift(n: usize, max_abs: f64) -> i32 {
    if n == 0 || max_abs == 0.0 {
        return MAX_SHIFT;
    }
    let bits = max_abs.to_bits();
    let biased = (bits >> 52) as i32;
    let fraction = bits & ((1 << 52) - 1);
    // max_abs = mantissa · 2^exp.
    let (mantissa, exp) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    let product = u128::from(mantissa) * n as u128;
    // ⌈log2 product⌉: the least t with product ≤ 2^t.
    let ceil_log2 = (u128::BITS - (product - 1).leading_zeros()) as i32;
    (62 - exp - ceil_log2).min(MAX_SHIFT)
}

/// A tree's gradients on the integer grid (see the module docs).
struct Quantized {
    /// `round(g · 2^s)`, one per matrix row.
    q: Vec<i64>,
    /// `2^-s`, the value of one grid step.
    unit: f64,
}

impl Quantized {
    /// # Panics
    ///
    /// Panics when a gradient is not finite.
    fn new(grad: &[f64]) -> Self {
        let mut max_abs = 0f64;
        for (i, g) in grad.iter().enumerate() {
            assert!(g.is_finite(), "gradient {i} is {g}, not finite");
            max_abs = max_abs.max(g.abs());
        }
        let shift = grid_shift(grad.len(), max_abs);
        let scale = pow2(shift);
        Self {
            q: grad.iter().map(|g| (g * scale).round() as i64).collect(),
            unit: pow2(-shift),
        }
    }
}

/// A node's row count and integer gradient sum, and the grid's unit.
#[derive(Debug, Clone, Copy)]
struct NodeTotals {
    rows: usize,
    g_sum: i64,
    unit: f64,
}

impl NodeTotals {
    /// The gradient value of an integer sum.
    fn value(&self, sum: i64) -> f64 {
        sum as f64 * self.unit
    }
}

/// One item of a block's stream: a table entry a node's rows reference,
/// their gradient sum and their count.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u32,
    count: u32,
    sum: i64,
}

/// A node's stream per column block.
type Streams = Vec<Vec<Entry>>;

/// Borrowed per-fit context threaded through the recursive `grow`.
struct FitCtx<'a> {
    binned: &'a BinnedMatrix,
    /// The matrix again, shareable with the pool's `'static` jobs; `Some`
    /// only when the caller opted into the parallel split search through
    /// [`Tree::fit_shared`].
    shared: Option<&'a Arc<BinnedMatrix>>,
    /// The caller's features that are not constant, in its order.
    features: Arc<[usize]>,
    grad: Quantized,
    params: &'a TreeParams,
}

/// Split-search buffers of one job: one gradient and one count
/// histogram per lane. Bin codes are `u8`, so [`MAX_BINS`] cells hold
/// every code without a bounds check.
struct HistScratch {
    g: Box<[[i64; MAX_BINS]; LANES]>,
    c: Box<[[u32; MAX_BINS]; LANES]>,
}

impl HistScratch {
    fn new() -> Self {
        Self {
            g: Box::new([[0; MAX_BINS]; LANES]),
            c: Box::new([[0; MAX_BINS]; LANES]),
        }
    }
}

/// A tree fit's buffers, allocated once and reused at every node: the
/// node's streams, the mapped blocks' per-entry (sum, count) tallies,
/// which stay zeroed between nodes, and one histogram scratch per search
/// job.
struct NodeScratch {
    streams: Arc<Streams>,
    tallies: Vec<Vec<(i64, u32)>>,
    hists: Vec<HistScratch>,
}

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
    /// given training rows, summing them as integers on a power-of-two
    /// grid (see the module docs).
    ///
    /// `active_features` restricts split search (used for column
    /// subsampling); pass all feature indices for a full search.
    ///
    /// # Panics
    ///
    /// Panics when `grad`'s length differs from the binned matrix's row
    /// count, when `rows` lists more rows than the matrix has (repeats
    /// count), when a gradient is not finite, or when the matrix has 2^32
    /// rows or more.
    pub fn fit(
        binned: &BinnedMatrix,
        grad: &[f64],
        rows: &[usize],
        active_features: &[usize],
        params: &TreeParams,
    ) -> Self {
        Self::fit_ctx(binned, None, grad, rows, active_features, params)
    }

    /// Like [`Tree::fit`], but on a shared matrix, so that large nodes
    /// can search split features in parallel on the global `gdcm-par`
    /// pool. Produces a bit-identical tree to `fit` at any thread count
    /// (the candidate merge preserves the serial scan's first-best
    /// tie-break).
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`Tree::fit`].
    pub fn fit_shared(
        binned: &Arc<BinnedMatrix>,
        grad: &[f64],
        rows: &[usize],
        active_features: &[usize],
        params: &TreeParams,
    ) -> Self {
        Self::fit_ctx(binned, Some(binned), grad, rows, active_features, params)
    }

    fn fit_ctx(
        binned: &BinnedMatrix,
        shared: Option<&Arc<BinnedMatrix>>,
        grad: &[f64],
        rows: &[usize],
        active_features: &[usize],
        params: &TreeParams,
    ) -> Self {
        assert_eq!(grad.len(), binned.n_rows(), "grad length mismatch");
        // The integer sums' overflow bound holds for at most n rows.
        assert!(
            rows.len() <= binned.n_rows(),
            "{} rows listed in a matrix of {}",
            rows.len(),
            binned.n_rows()
        );
        assert!(
            u32::try_from(binned.n_rows()).is_ok(),
            "{} rows overflow a u32 entry id",
            binned.n_rows()
        );
        let ctx = FitCtx {
            binned,
            shared,
            features: active_features
                .iter()
                .copied()
                .filter(|&f| !binned.is_constant(f))
                .collect(),
            grad: Quantized::new(grad),
            params,
        };
        let mut tree = Tree { nodes: Vec::new() };
        let mut rows = rows.to_vec();
        let mut scratch = NodeScratch {
            streams: Arc::new(Vec::new()),
            tallies: Vec::new(),
            hists: Vec::new(),
        };
        tree.grow(&ctx, &mut rows, 0, &mut scratch);
        tree
    }

    /// Recursively grows the subtree over `rows`, returning its node index.
    fn grow(
        &mut self,
        ctx: &FitCtx<'_>,
        rows: &mut [usize],
        depth: usize,
        scratch: &mut NodeScratch,
    ) -> usize {
        let params = ctx.params;
        let node = NodeTotals {
            rows: rows.len(),
            g_sum: rows.iter().map(|&r| ctx.grad.q[r]).sum(),
            unit: ctx.grad.unit,
        };

        let make_leaf = |nodes: &mut Vec<TreeNode>| {
            let h_sum = rows.len() as f64;
            let weight = (-node.value(node.g_sum) / (h_sum + params.lambda)) as f32;
            nodes.push(TreeNode::Leaf { weight });
            nodes.len() - 1
        };

        if depth >= params.max_depth || rows.len() < 2 * params.min_samples_leaf {
            return make_leaf(&mut self.nodes);
        }

        let best = find_best_split(ctx, rows, node, scratch);
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
        let left = self.grow(ctx, left_rows, depth + 1, scratch);
        let right = self.grow(ctx, right_rows, depth + 1, scratch);
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

/// Fills `streams` with each column block's stream for `rows` (see the
/// module docs), tallying a mapped block's entries in `tallies`, which it
/// leaves zeroed.
fn fill_streams(
    binned: &BinnedMatrix,
    q: &[i64],
    rows: &[usize],
    tallies: &mut Vec<Vec<(i64, u32)>>,
    streams: &mut Streams,
) {
    streams.resize_with(binned.n_blocks(), Vec::new);
    tallies.resize_with(binned.n_blocks(), Vec::new);
    for (b, (stream, tally)) in streams.iter_mut().zip(tallies.iter_mut()).enumerate() {
        stream.clear();
        let Some(ids) = binned.block_ids(b) else {
            // Rows are below 2^32, checked in `fit_ctx`.
            stream.extend(rows.iter().map(|&r| Entry {
                id: r as u32,
                count: 1,
                sum: q[r],
            }));
            continue;
        };
        tally.resize(binned.block_entries(b), (0, 0));
        for &r in rows {
            let (sum, count) = &mut tally[ids[r] as usize];
            *sum += q[r];
            *count += 1;
        }
        for (id, tally) in tally.iter_mut().enumerate() {
            if tally.1 > 0 {
                stream.push(Entry {
                    id: id as u32,
                    count: tally.1,
                    sum: tally.0,
                });
                *tally = (0, 0);
            }
        }
    }
}

/// Builds the node's streams, then dispatches between the serial scan
/// and the feature-parallel search. Parallelism kicks in only for
/// shared-state fits on nodes with enough histogram adds; both paths
/// return the same candidate.
fn find_best_split(
    ctx: &FitCtx<'_>,
    rows: &[usize],
    node: NodeTotals,
    scratch: &mut NodeScratch,
) -> Option<SplitCandidate> {
    let NodeScratch {
        streams,
        tallies,
        hists,
    } = scratch;
    fill_streams(
        ctx.binned,
        &ctx.grad.q,
        rows,
        tallies,
        Arc::make_mut(streams),
    );
    let features = &ctx.features;
    if let Some(binned) = ctx.shared {
        let pool = gdcm_par::pool();
        let work = || -> usize {
            features
                .iter()
                .map(|&f| streams[binned.block_of(f)].len())
                .sum()
        };
        if pool.threads() > 1 && features.len() >= 2 && work() >= PAR_SPLIT_MIN_WORK {
            return find_best_split_parallel(
                binned, streams, features, pool, ctx.params, node, hists,
            );
        }
    }
    if hists.is_empty() {
        hists.push(HistScratch::new());
    }
    best_split_over(
        ctx.binned,
        streams,
        features,
        ctx.params,
        node,
        &mut hists[0],
    )
}

/// Feature-parallel split search: the features are cut into contiguous
/// groups (in the caller's order, whole [`LANES`]-wide blocks where
/// possible), each group scanned by a pool job, and the per-group
/// winners merged **in submission order** with a strictly-greater
/// comparison. Ties on gain therefore resolve to the earliest listed
/// feature — exactly the serial scan's tie-break — so the result is
/// bit-identical at any thread count. Every job reads the node's one set
/// of streams, and each borrows a histogram scratch from `hists` and
/// hands it back with its result.
fn find_best_split_parallel(
    binned: &Arc<BinnedMatrix>,
    streams: &Arc<Streams>,
    features: &Arc<[usize]>,
    pool: &gdcm_par::Pool,
    params: &TreeParams,
    node: NodeTotals,
    hists: &mut Vec<HistScratch>,
) -> Option<SplitCandidate> {
    let groups = pool.threads().min(features.len());
    let group_len = features.len().div_ceil(groups).next_multiple_of(LANES);
    let params = *params;
    let jobs: Vec<gdcm_par::Job<(Option<SplitCandidate>, HistScratch)>> = (0..features.len())
        .step_by(group_len)
        .map(|start| {
            let group = start..(start + group_len).min(features.len());
            let (binned, streams, features) = (
                Arc::clone(binned),
                Arc::clone(streams),
                Arc::clone(features),
            );
            let mut hist = hists.pop().unwrap_or_else(HistScratch::new);
            let job: gdcm_par::Job<_> = Box::new(move || {
                let best = best_split_over(
                    &binned,
                    &streams,
                    &features[group],
                    &params,
                    node,
                    &mut hist,
                );
                (best, hist)
            });
            job
        })
        .collect();
    let mut best: Option<SplitCandidate> = None;
    for (candidate, hist) in pool.run(jobs) {
        hists.push(hist);
        let Some(candidate) = candidate else {
            continue;
        };
        if best.as_ref().is_none_or(|b| candidate.gain > b.gain) {
            best = Some(candidate);
        }
    }
    best
}

/// The serial split scan over one list of non-constant features — the
/// shared core of both execution paths. Builds the histograms of
/// [`LANES`] features of one column block per pass over the block's
/// stream (see the module docs), then scans each feature's bins in list
/// order.
fn best_split_over(
    binned: &BinnedMatrix,
    streams: &Streams,
    features: &[usize],
    params: &TreeParams,
    node: NodeTotals,
    scratch: &mut HistScratch,
) -> Option<SplitCandidate> {
    let HistScratch {
        g: hist_g,
        c: hist_c,
    } = scratch;
    let mut best: Option<SplitCandidate> = None;
    let mut rest = features;
    while let Some(&head) = rest.first() {
        // The run of listed features in `head`'s column block.
        let col_block = binned.block_of(head);
        let run = rest
            .iter()
            .position(|&f| binned.block_of(f) != col_block)
            .unwrap_or(rest.len());
        let (same_block, tail) = rest.split_at(run);
        rest = tail;
        let stream = &streams[col_block];
        // Every feature of a block has one code per table entry. Slicing
        // each lane to that one length lets one bounds check per entry
        // cover all lanes.
        let entries = binned.column(head).codes.len();
        for block in same_block.chunks(LANES) {
            let column = |lane: usize| block[lane.min(block.len() - 1)];
            let codes: [&[u8]; LANES] =
                std::array::from_fn(|lane| &binned.column(column(lane)).codes[..entries]);
            for lane in 0..LANES {
                let n_bins = binned.n_bins(column(lane));
                hist_g[lane][..n_bins].fill(0);
                hist_c[lane][..n_bins].fill(0);
            }
            for entry in stream {
                let e = entry.id as usize;
                for lane in 0..LANES {
                    let b = usize::from(codes[lane][e]);
                    hist_g[lane][b] += entry.sum;
                    hist_c[lane][b] += entry.count;
                }
            }
            for (lane, &f) in block.iter().enumerate() {
                let n_bins = binned.n_bins(f);
                scan_bins(
                    f,
                    &hist_g[lane][..n_bins],
                    &hist_c[lane][..n_bins],
                    params,
                    node,
                    &mut best,
                );
            }
        }
    }
    best
}

/// Scans one feature's histogram for the best split point, replacing
/// `best` only on a strictly greater gain. The left and right sums stay
/// integers; each is made f64 once, for its score.
fn scan_bins(
    feature: usize,
    hist_g: &[i64],
    hist_c: &[u32],
    params: &TreeParams,
    node: NodeTotals,
    best: &mut Option<SplitCandidate>,
) {
    let n_rows = node.rows;
    let parent_score = score(node.value(node.g_sum), n_rows as f64, params.lambda);
    let mut gl = 0i64;
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
        let gr = node.g_sum - gl;
        let (hl, hr) = (f64::from(cl), f64::from(cr));
        if hl < params.min_child_weight || hr < params.min_child_weight {
            continue;
        }
        let gain = 0.5
            * (score(node.value(gl), hl, params.lambda) + score(node.value(gr), hr, params.lambda)
                - parent_score)
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
        let via_shared = Tree::fit_shared(&Arc::new(binned), &grad, &row_idx, &feats, &params);
        assert_eq!(plain, via_shared);
    }

    /// Whether `n · max_abs · 2^s ≤ 2^62`, in exact integer arithmetic:
    /// `max_abs` is taken apart into `m · 2^e` with `m` an integer below
    /// 2^53.
    fn within_bound(n: usize, max_abs: f64, s: i32) -> bool {
        let (mut m, mut e) = (max_abs, 0i32);
        while m.fract() != 0.0 {
            m *= 2.0;
            e -= 1;
        }
        while m >= 2f64.powi(53) {
            m /= 2.0;
            e += 1;
        }
        // n · m · 2^(e + s) ≤ 2^62 ⟺ n · m ≤ 2^(62 - e - s).
        let lhs = n as u128 * m as u128;
        let t = 62 - e - s;
        t >= 0 && (t >= 127 || lhs <= 1u128 << t)
    }

    #[test]
    fn grid_shift_is_the_largest_within_the_overflow_bound() {
        for (n, max_abs) in [
            (1, 1.0),
            (3, 1.0),
            (4, 1.0),
            (9072, 1.5),
            (9072, 837.25),
            (2400, 0.1),
            (1 << 20, 3.0e9),
            (7, 2f64.powi(-40)),
        ] {
            let s = grid_shift(n, max_abs);
            assert!(within_bound(n, max_abs, s), "n {n}, max {max_abs}: s {s}");
            assert!(
                !within_bound(n, max_abs, s + 1),
                "n {n}, max {max_abs}: s {s}"
            );
        }
        // Powers of two meet the bound with equality.
        assert_eq!(grid_shift(1, 1.0), 62);
        assert_eq!(grid_shift(4, 1.0), 60);
        assert_eq!(grid_shift(3, 1.0), 60);
    }

    #[test]
    fn no_node_sum_can_overflow() {
        // n gradients of the largest magnitude, all one sign, sum to at
        // most 2^62 + n / 2.
        for (n, g) in [(1usize, 1.0), (3, -0.7), (1000, 0.7), (9072, -837.3)] {
            let grad = vec![g; n];
            let quantized = Quantized::new(&grad);
            let sum = quantized
                .q
                .iter()
                .try_fold(0i64, |acc, &q| acc.checked_add(q))
                .expect("the sum fits an i64");
            assert!(sum.unsigned_abs() <= (1u64 << 62) + n as u64 / 2, "n {n}");
        }
    }

    #[test]
    fn all_zero_gradients_quantize_to_zero() {
        let quantized = Quantized::new(&[0.0, -0.0, 0.0]);
        assert_eq!(quantized.q, [0, 0, 0]);
        assert!(quantized.unit.is_normal());
        assert_eq!(quantized.unit, pow2(-MAX_SHIFT));
    }

    #[test]
    fn dyadic_gradients_quantize_exactly() {
        let grad = [0.5, -0.25, 3.0, 1.125, -7.75, 0.0, 1.0 / 1024.0];
        let quantized = Quantized::new(&grad);
        for (&g, &q) in grad.iter().zip(&quantized.q) {
            assert_eq!((q as f64 * quantized.unit).to_bits(), (g + 0.0).to_bits());
        }
        let exact: f64 = grad.iter().sum();
        let sum: i64 = quantized.q.iter().sum();
        assert_eq!(sum as f64 * quantized.unit, exact);
    }

    #[test]
    fn huge_and_tiny_gradients_share_one_grid() {
        // The grid is set by the largest gradient: 1e-30 falls below
        // half a step and rounds to 0, while 1e30 keeps 62 bits.
        let grad = [1e30, 1e-30, -1e30, -1e-30, 5e29];
        let quantized = Quantized::new(&grad);
        assert_eq!(quantized.q[1], 0);
        assert_eq!(quantized.q[3], 0);
        assert_eq!(quantized.q[0], -quantized.q[2]);
        for i in [0, 2, 4] {
            let back = quantized.q[i] as f64 * quantized.unit;
            assert!((back - grad[i]).abs() <= quantized.unit, "gradient {i}");
        }
        assert!(quantized.q.iter().map(|q| q.unsigned_abs()).max() <= Some(1 << 62));
    }

    #[test]
    fn the_grid_step_stays_a_normal_f64() {
        // Without the cap, 1e-300 would ask for s = 1057, and 2^-s would
        // be subnormal.
        for grad in [[1e-300, -3e-301], [5e-324, 0.0], [f64::MIN_POSITIVE, 0.0]] {
            let quantized = Quantized::new(&grad);
            assert_eq!(quantized.unit, pow2(-MAX_SHIFT), "{grad:?}");
            assert!(quantized.unit.is_normal());
        }
        // 1e-300 · 2^1022 is about 4.5e7: still far above one step.
        let quantized = Quantized::new(&[1e-300]);
        assert_eq!(quantized.q[0], (1e-300 * pow2(MAX_SHIFT)).round() as i64);
        assert_eq!(Quantized::new(&[5e-324]).q, [0]);
    }

    #[test]
    #[should_panic(expected = "gradient 1 is NaN")]
    fn a_non_finite_gradient_is_refused() {
        let _ = Quantized::new(&[1.0, f64::NAN]);
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
