//! Audit pass 1 — trained-ensemble verification (`GDCM100`–`GDCM119`).
//!
//! Walks every tree of a [`GbdtRegressor`] (and, via [`check_forest`],
//! of a `RandomForestRegressor`) checking the invariants
//! `GbdtRegressor::fit` is supposed to guarantee but that nothing
//! downstream re-verifies: feature indices in bounds, finite thresholds
//! and leaf weights, children inside the arena, acyclicity, every arena
//! node reachable from the root, depth and leaf counts within
//! [`GbdtParams`], and split thresholds drawn from the bin-edge grid
//! the ensemble was trained on ([`CutGrid`]). On structurally
//! sound models it then replays an independent reference predictor that
//! must agree **bit-for-bit** with the fast batched predict path, and
//! re-derives feature importance from raw tree structure.
//!
//! Ordering matters: the reference walk and the importance re-derivation
//! both traverse child links, so they run only when no tree has an
//! out-of-bounds reference or a cycle — otherwise the audit itself would
//! crash or loop on the very corruption it exists to report (the same
//! "unsound graphs skip downstream passes" rule `gdcm-analyze` uses).

use gdcm_analyze::{DiagCode, Diagnostic};
use gdcm_ml::{
    DenseMatrix, GbdtParams, GbdtRegressor, RandomForestRegressor, Regressor as _, Tree, TreeNode,
};

use crate::grid::CutGrid;

/// Optional context sharpening the ensemble checks: hyper-parameters
/// enable the depth/leaf bounds, a training grid enables the
/// threshold-grid check, and a probe matrix enables the bit-for-bit
/// predict comparison.
#[derive(Default, Clone, Copy)]
pub struct EnsembleContext<'a> {
    /// Hyper-parameters the model claims to have been fitted with.
    pub params: Option<&'a GbdtParams>,
    /// The grid the model was trained on: the fit's `BinnedMatrix`, or
    /// the auditor's own rebuild ([`crate::TrainingGrid`]).
    pub binned: Option<&'a dyn CutGrid>,
    /// Rows to replay through the reference predictor.
    pub probe: Option<&'a DenseMatrix>,
}

/// Per-tree structural verdict, merged across the `gdcm-par` pool.
struct TreeAudit {
    diags: Vec<Diagnostic>,
    /// Child links are in bounds and acyclic: walking cannot crash or
    /// hang.
    walk_safe: bool,
    /// Split features are all within the model's declared width.
    features_in_bounds: bool,
    /// Features of splits reachable from the root (valid only when
    /// `walk_safe && features_in_bounds`).
    reachable_split_features: Vec<usize>,
}

/// Runs every ensemble check against `model`, appending findings to
/// `out`. Per-tree structural checks fan out over the `gdcm-par` pool
/// and merge in tree order, so the diagnostics are identical at any
/// thread count.
pub fn check_ensemble(
    label: &str,
    model: &GbdtRegressor,
    ctx: &EnsembleContext<'_>,
    out: &mut Vec<Diagnostic>,
) {
    if !model.base_score().is_finite() {
        out.push(Diagnostic::network_level(
            DiagCode::NonFiniteBaseScore,
            label,
            format!("base score is {}", model.base_score()),
        ));
    }
    if model.trees().is_empty() {
        out.push(Diagnostic::network_level(
            DiagCode::EmptyEnsemble,
            label,
            "no trees: every prediction is the base score",
        ));
        return;
    }

    let tree_indices: Vec<usize> = (0..model.trees().len()).collect();
    let audits: Vec<TreeAudit> = gdcm_par::pool().par_map(&tree_indices, |&t| {
        audit_tree(label, t, &model.trees()[t], model.n_features(), ctx)
    });

    let walk_safe = audits.iter().all(|a| a.walk_safe);
    let features_ok = audits.iter().all(|a| a.features_in_bounds);
    for audit in &audits {
        out.extend(audit.diags.iter().cloned());
    }

    // Downstream checks traverse child links and index importance by
    // feature; both are only meaningful (and only safe) on structurally
    // sound trees.
    if !(walk_safe && features_ok) {
        return;
    }

    let mut derived = vec![0u32; model.n_features()];
    for audit in &audits {
        for &f in &audit.reachable_split_features {
            derived[f] += 1;
        }
    }
    check_importance(label, &derived, &model.feature_importance(), out);

    if let Some(probe) = ctx.probe {
        let reference: Vec<f32> = (0..probe.n_rows())
            .map(|i| reference_predict(model, probe.row(i)))
            .collect();
        let batched = model.predict(probe);
        check_predictions(label, &reference, &batched, out);
    }
}

/// Structural audit of one tree. Never panics and never loops, whatever
/// the arena contains — that is the whole point.
fn audit_tree(
    label: &str,
    t: usize,
    tree: &Tree,
    n_features: usize,
    ctx: &EnsembleContext<'_>,
) -> TreeAudit {
    let nodes = tree.nodes();
    let mut audit = TreeAudit {
        diags: Vec::new(),
        walk_safe: true,
        features_in_bounds: true,
        reachable_split_features: Vec::new(),
    };

    if nodes.is_empty() {
        audit.walk_safe = false;
        audit.diags.push(Diagnostic::at_index(
            DiagCode::TreeChildOutOfBounds,
            label,
            t,
            "empty node arena: the root (node 0) does not exist",
        ));
        return audit;
    }

    // Node-local checks over the whole arena.
    for (n, node) in nodes.iter().enumerate() {
        match *node {
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if feature >= n_features {
                    audit.features_in_bounds = false;
                    audit.diags.push(Diagnostic::at_index(
                        DiagCode::EnsembleFeatureOutOfBounds,
                        label,
                        t,
                        format!("node {n} splits feature {feature}, model has {n_features}"),
                    ));
                }
                if !threshold.is_finite() {
                    audit.diags.push(Diagnostic::at_index(
                        DiagCode::NonFiniteSplitThreshold,
                        label,
                        t,
                        format!("node {n} threshold is {threshold}"),
                    ));
                }
                for (side, child) in [("left", left), ("right", right)] {
                    if child >= nodes.len() {
                        audit.walk_safe = false;
                        audit.diags.push(Diagnostic::at_index(
                            DiagCode::TreeChildOutOfBounds,
                            label,
                            t,
                            format!(
                                "node {n} {side} child {child} outside arena of {} nodes",
                                nodes.len()
                            ),
                        ));
                    }
                }
            }
            TreeNode::Leaf { weight } => {
                if !weight.is_finite() {
                    audit.diags.push(Diagnostic::at_index(
                        DiagCode::NonFiniteLeafWeight,
                        label,
                        t,
                        format!("node {n} leaf weight is {weight}"),
                    ));
                }
            }
        }
    }

    // Iterative DFS from the root: detects revisits (cycles / shared
    // subtrees), measures depth, counts reachable leaves, and marks
    // reachability. Out-of-bounds children were reported above and are
    // simply not followed.
    let mut visited = vec![false; nodes.len()];
    let mut max_depth = 0usize;
    let mut reachable_leaves = 0usize;
    let mut stack = vec![(0usize, 0usize)];
    while let Some((n, depth)) = stack.pop() {
        if visited[n] {
            audit.walk_safe = false;
            audit.diags.push(Diagnostic::at_index(
                DiagCode::TreeCycle,
                label,
                t,
                format!("node {n} reached twice: the arena encodes a cycle or a shared subtree"),
            ));
            continue;
        }
        visited[n] = true;
        max_depth = max_depth.max(depth);
        match nodes[n] {
            TreeNode::Leaf { .. } => reachable_leaves += 1,
            TreeNode::Split {
                feature,
                left,
                right,
                ..
            } => {
                if feature < n_features {
                    audit.reachable_split_features.push(feature);
                }
                for child in [left, right] {
                    if child < nodes.len() {
                        stack.push((child, depth + 1));
                    }
                }
            }
        }
    }
    let unreachable: Vec<usize> = (0..nodes.len()).filter(|&n| !visited[n]).collect();
    if let Some(&first) = unreachable.first() {
        audit.diags.push(Diagnostic::at_index(
            DiagCode::UnreachableTreeNode,
            label,
            t,
            format!(
                "{} of {} arena nodes unreachable from the root (first: node {first})",
                unreachable.len(),
                nodes.len()
            ),
        ));
    }

    if let Some(params) = ctx.params {
        if max_depth > params.max_depth {
            audit.diags.push(Diagnostic::at_index(
                DiagCode::TreeDepthExceeded,
                label,
                t,
                format!(
                    "deepest root-to-leaf path is {max_depth}, max_depth is {}",
                    params.max_depth
                ),
            ));
        }
        // 2^max_depth leaves; depths >= usize::BITS cannot be exceeded.
        if let Some(budget) = 1usize.checked_shl(params.max_depth.min(63) as u32) {
            if params.max_depth < 64 && reachable_leaves > budget {
                audit.diags.push(Diagnostic::at_index(
                    DiagCode::TreeLeafBudgetExceeded,
                    label,
                    t,
                    format!(
                        "{reachable_leaves} reachable leaves, depth {} allows at most {budget}",
                        params.max_depth
                    ),
                ));
            }
        }
    }

    if let Some(binned) = ctx.binned {
        check_threshold_grid(label, t, nodes, binned, &mut audit.diags);
    }

    audit
}

/// Every split threshold must be bitwise equal to one of the bin edges
/// of the training grid — `grow` copies thresholds straight out of
/// `BinnedMatrix::threshold`, so any deviation means the model was not
/// trained on this data (or was corrupted in flight).
fn check_threshold_grid(
    label: &str,
    t: usize,
    nodes: &[TreeNode],
    binned: &dyn CutGrid,
    out: &mut Vec<Diagnostic>,
) {
    for (n, node) in nodes.iter().enumerate() {
        let TreeNode::Split {
            feature, threshold, ..
        } = *node
        else {
            continue;
        };
        if feature >= binned.n_features() || !threshold.is_finite() {
            continue; // already reported by the structural checks
        }
        if binned.is_constant(feature) {
            out.push(Diagnostic::at_index(
                DiagCode::ThresholdOffGrid,
                label,
                t,
                format!(
                    "node {n} splits feature {feature}, which is constant in the training data"
                ),
            ));
            continue;
        }
        let cuts = binned.cuts(feature);
        let n_cuts = cuts.len();
        let on_grid = cuts.iter().any(|c| c.to_bits() == threshold.to_bits());
        if !on_grid {
            out.push(Diagnostic::at_index(
                DiagCode::ThresholdOffGrid,
                label,
                t,
                format!(
                    "node {n} threshold {threshold} is not one of feature {feature}'s \
                     {n_cuts} bin edges"
                ),
            ));
        }
    }
}

/// Forest counterpart of [`check_ensemble`]: the same per-tree
/// structural checks (no hyper-parameter or bin-grid context — forests
/// keep neither), and on walk-safe forests a bit-for-bit comparison of
/// an independent mean-of-walks reference predictor against the chunked
/// batch path.
pub fn check_forest(
    label: &str,
    forest: &RandomForestRegressor,
    probe: Option<&DenseMatrix>,
    out: &mut Vec<Diagnostic>,
) {
    if forest.trees().is_empty() {
        out.push(Diagnostic::network_level(
            DiagCode::EmptyEnsemble,
            label,
            "no trees: the forest cannot predict",
        ));
        return;
    }
    let ctx = EnsembleContext::default();
    let tree_indices: Vec<usize> = (0..forest.trees().len()).collect();
    let audits: Vec<TreeAudit> = gdcm_par::pool().par_map(&tree_indices, |&t| {
        audit_tree(label, t, &forest.trees()[t], forest.n_features(), &ctx)
    });
    let walk_safe = audits.iter().all(|a| a.walk_safe);
    let features_ok = audits.iter().all(|a| a.features_in_bounds);
    for audit in &audits {
        out.extend(audit.diags.iter().cloned());
    }
    if !(walk_safe && features_ok) {
        return;
    }
    if let Some(probe) = probe {
        let reference: Vec<f32> = (0..probe.n_rows())
            .map(|i| reference_forest_predict(forest, probe.row(i)))
            .collect();
        let batched = forest.predict(probe);
        check_predictions(label, &reference, &batched, out);
    }
}

/// The independent reference predictor: a recursive walk per tree,
/// accumulated in `f64` exactly like `GbdtRegressor::predict_row`, so a
/// sound model must agree bit-for-bit. Call only on walk-safe trees.
pub fn reference_predict(model: &GbdtRegressor, row: &[f32]) -> f32 {
    let mut acc = model.base_score() as f64;
    for tree in model.trees() {
        acc += walk(tree.nodes(), 0, row) as f64;
    }
    acc as f32
}

/// Forest counterpart of [`reference_predict`]: the mean of per-tree
/// recursive walks, accumulated in `f64` exactly like
/// `RandomForestRegressor::predict_row`, so a sound forest must agree
/// bit-for-bit. Call only on walk-safe trees.
pub fn reference_forest_predict(forest: &RandomForestRegressor, row: &[f32]) -> f32 {
    let sum: f64 = forest
        .trees()
        .iter()
        .map(|t| walk(t.nodes(), 0, row) as f64)
        .sum();
    (sum / forest.trees().len() as f64) as f32
}

/// One recursive tree walk — the deliberately naive traversal both
/// reference predictors share.
fn walk(nodes: &[TreeNode], idx: usize, row: &[f32]) -> f32 {
    match nodes[idx] {
        TreeNode::Leaf { weight } => weight,
        TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            let next = if row[feature] <= threshold {
                left
            } else {
                right
            };
            walk(nodes, next, row)
        }
    }
}

/// Compares a reference prediction vector against the batched fast path
/// bit-for-bit (`f32::to_bits`), reporting one [`DiagCode::ReferencePredictMismatch`]
/// summarizing all disagreeing rows.
pub fn check_predictions(
    label: &str,
    reference: &[f32],
    batched: &[f32],
    out: &mut Vec<Diagnostic>,
) {
    if reference.len() != batched.len() {
        out.push(Diagnostic::network_level(
            DiagCode::ReferencePredictMismatch,
            label,
            format!(
                "prediction lengths differ: reference {} rows, batched {}",
                reference.len(),
                batched.len()
            ),
        ));
        return;
    }
    let mismatched: Vec<usize> = reference
        .iter()
        .zip(batched)
        .enumerate()
        .filter(|(_, (r, b))| r.to_bits() != b.to_bits())
        .map(|(i, _)| i)
        .collect();
    if let Some(&first) = mismatched.first() {
        out.push(Diagnostic::at_index(
            DiagCode::ReferencePredictMismatch,
            label,
            first,
            format!(
                "{} of {} probe rows disagree bitwise (row {first}: reference {} vs batched {})",
                mismatched.len(),
                reference.len(),
                reference[first],
                batched[first],
            ),
        ));
    }
}

/// Compares re-derived per-feature split counts against the model's
/// reported `feature_importance`.
pub fn check_importance(label: &str, derived: &[u32], reported: &[u32], out: &mut Vec<Diagnostic>) {
    if derived.len() != reported.len() {
        out.push(Diagnostic::network_level(
            DiagCode::ImportanceMismatch,
            label,
            format!(
                "importance widths differ: derived {} features, reported {}",
                derived.len(),
                reported.len()
            ),
        ));
        return;
    }
    let diverging: Vec<usize> = (0..derived.len())
        .filter(|&f| derived[f] != reported[f])
        .collect();
    if let Some(&first) = diverging.first() {
        out.push(Diagnostic::at_index(
            DiagCode::ImportanceMismatch,
            label,
            first,
            format!(
                "{} features diverge (feature {first}: {} reachable splits vs reported {})",
                diverging.len(),
                derived[first],
                reported[first],
            ),
        ));
    }
}
