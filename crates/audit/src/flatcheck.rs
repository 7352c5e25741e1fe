//! Audit pass 4 — flatcheck, frozen-model translation validation
//! (`GDCM140`–`GDCM159`).
//!
//! A [`FrozenGbdt`] / [`FrozenForest`] is a *compiled* artifact: the
//! pointer-tree ensemble flattened to SoA arrays with thresholds
//! quantized to `u8` bins on the training grid. The serving hot path
//! trusts it completely, so this pass certifies — statically, without
//! sampling — that the compilation preserved the model:
//!
//! 1. **Structural bijection** (`GDCM140`–`GDCM147`): slot
//!    `tree_starts[t] + i` must mirror node `i` of source tree `t`
//!    exactly — same kind, feature, children (offset into the slot
//!    range), and bitwise leaf values — and the flat arena must be
//!    acyclic with every in-range slot reachable from its root.
//! 2. **Quantization soundness** (`GDCM148`–`GDCM151`): the frozen cut
//!    grid must match the deterministic rebuild of the training grid
//!    ([`crate::TrainingGrid`]) bitwise and be strictly ascending, each
//!    slot's bin must map back to its source threshold bitwise, and — checked
//!    *symbolically* over every representable bin edge rather than by
//!    row sampling — the integer decision `bin_code(v) <= bin` must
//!    equal the source decision `v <= threshold` on every cell of the
//!    grid partition. (Between two adjacent edges both decision
//!    functions are constant, so one representative per cell is a
//!    complete case split, not a sample.)
//! 3. **Path/interval consistency** (`GDCM152`–`GDCM153`): every
//!    root-to-leaf path of the source tree induces a box of bin-grid
//!    cells; the box must be non-empty (dead paths cannot come out of
//!    `fit`) and flat traversal of a representative cell must select
//!    the *same* leaf slot the recursive walk selects.
//! 4. **Accumulation** (`GDCM154`–`GDCM155`): over the representative
//!    rows of every live path, the frozen batch predictor must agree
//!    bit-for-bit with the naive recursive reference (base + leaf sums
//!    for GBDTs, means for forests), and frozen metadata must match the
//!    source model. A representative row sits in every feature's lowest
//!    cell except where its path narrows the feature, so each live leaf
//!    keeps only those (feature, cell) pairs, and the rows are expanded
//!    and scored 32 at a time.
//!
//! The two traversal checks cover both split decisions a frozen model
//! has: check 3 walks bin codes (`code <= bin`, as `predict_binned`
//! does) and check 4 runs the serving predictor, which compares raw
//! features against `cuts[feature][bin]`.
//!
//! Like the ensemble pass, flatcheck never panics and never loops on
//! corrupt input: traversal-dependent checks run only on trees whose
//! structure already verified clean ("unsound trees skip downstream
//! passes"), and per-tree work fans out over the `gdcm-par` pool with
//! in-order merges so diagnostics are identical at any thread count.
//! A tree is traversal-safe only if, besides its structure, every split
//! slot's bin indexes the cut grid of the feature that slot names —
//! otherwise the raw-feature walker would read past that grid.
//!
//! Path enumeration is exhaustive up to [`MAX_PATHS_PER_TREE`] leaves
//! per tree (depth 12 at the default binary fan-out) — far above
//! anything the pipeline fits (depth ≤ 8); deeper hand-built trees get
//! prefix coverage for checks 3–4 while checks 1–2 remain exhaustive.

use gdcm_analyze::{DiagCode, Diagnostic};
use gdcm_ml::{
    bin_code, DenseMatrix, FrozenForest, FrozenGbdt, FrozenNodes, GbdtRegressor,
    RandomForestRegressor, Regressor as _, Tree, TreeNode, FROZEN_LEAF,
};

use crate::ensemble::{reference_forest_predict, reference_predict};
use crate::grid::CutGrid;

/// Upper bound on enumerated root-to-leaf paths per tree (complete for
/// depths ≤ 12).
pub const MAX_PATHS_PER_TREE: usize = 4096;

/// Probe rows expanded and scored together by the accumulation check.
const PROBE_CHUNK: usize = 32;

/// Shared inputs of the per-tree flat checks.
struct FlatCtx<'a> {
    label: &'a str,
    trees: &'a [Tree],
    nodes: &'a FrozenNodes,
    cuts: &'a [Vec<f32>],
    n_features: usize,
}

/// Per-tree verdict, merged across the `gdcm-par` pool in tree order.
struct FlatTreeAudit {
    diags: Vec<Diagnostic>,
    /// Both representations of this tree can be walked safely and the
    /// slot range matches — path and accumulation checks may run.
    traversal_safe: bool,
    /// One representative row per live root-to-leaf path, as the
    /// (feature, cell) pairs where it leaves the lowest cell.
    probe: Vec<Vec<(usize, usize)>>,
}

/// The representative rows of every live path, in tree order, held
/// sparse: row `i` is the all-lowest-cell row with `rows[i]`'s cells
/// in place.
struct Probe<'a> {
    cuts: &'a [Vec<f32>],
    rows: Vec<Vec<(usize, usize)>>,
}

impl Probe<'_> {
    /// Scores every row with `reference`, one row at a time, and with
    /// `batch`, `PROBE_CHUNK` rows at a time, expanding no more rows
    /// than one chunk. Returns both score lists in row order.
    fn score(
        &self,
        reference: impl Fn(&[f32]) -> f32,
        batch: impl Fn(&DenseMatrix) -> Vec<f32>,
    ) -> (Vec<f32>, Vec<f32>) {
        let lowest: Vec<f32> = self.cuts.iter().map(|c| cell_value(c, 0)).collect();
        let mut row = lowest.clone();
        let mut scored = (
            Vec::with_capacity(self.rows.len()),
            Vec::with_capacity(self.rows.len()),
        );
        for chunk in self.rows.chunks(PROBE_CHUNK) {
            let mut x = DenseMatrix::with_capacity(chunk.len(), row.len());
            for cells in chunk {
                for &(f, cell) in cells {
                    row[f] = cell_value(&self.cuts[f], cell);
                }
                scored.0.push(reference(&row));
                x.push_row(&row);
                for &(f, _) in cells {
                    row[f] = lowest[f];
                }
            }
            scored.1.extend(batch(&x));
        }
        scored
    }
}

/// Certifies a frozen GBDT against its source model: bijection,
/// quantization soundness (against `binned` when available — pass the
/// deterministic rebuild of the training grid at the model's
/// `max_bins`, a [`crate::TrainingGrid`] or a `BinnedMatrix`), path
/// consistency, and bitwise accumulation. Appends findings to `out`; a
/// certified translation appends nothing.
pub fn check_frozen_gbdt(
    label: &str,
    model: &GbdtRegressor,
    frozen: &FrozenGbdt,
    binned: Option<&dyn CutGrid>,
    out: &mut Vec<Diagnostic>,
) {
    let _span = gdcm_obs::span!("audit/flatcheck");
    let mut meta_ok = true;
    if frozen.n_features() != model.n_features() {
        meta_ok = false;
        out.push(Diagnostic::network_level(
            DiagCode::FlatMetadataMismatch,
            label,
            format!(
                "frozen model declares {} features, source declares {}",
                frozen.n_features(),
                model.n_features()
            ),
        ));
    }
    if frozen.base_score().to_bits() != model.base_score().to_bits() {
        out.push(Diagnostic::network_level(
            DiagCode::FlatMetadataMismatch,
            label,
            format!(
                "frozen base score {} differs bitwise from source {}",
                frozen.base_score(),
                model.base_score()
            ),
        ));
    }
    let ctx = FlatCtx {
        label,
        trees: model.trees(),
        nodes: frozen.nodes(),
        cuts: frozen.cut_grid(),
        n_features: frozen.n_features(),
    };
    let probe = check_frozen_ensemble(&ctx, binned, out);
    if meta_ok {
        if let Some(probe) = probe {
            let (reference, flat) =
                probe.score(|row| reference_predict(model, row), |x| frozen.predict(x));
            check_accumulation(label, &reference, &flat, out);
        }
    }
    bump_counters(out);
}

/// Forest counterpart of [`check_frozen_gbdt`]: same bijection, grid,
/// and path checks; the accumulation cross-check compares the frozen
/// mean against the recursive mean-of-walks reference.
pub fn check_frozen_forest(
    label: &str,
    forest: &RandomForestRegressor,
    frozen: &FrozenForest,
    binned: Option<&dyn CutGrid>,
    out: &mut Vec<Diagnostic>,
) {
    let _span = gdcm_obs::span!("audit/flatcheck");
    let mut meta_ok = true;
    if frozen.n_features() != forest.n_features() {
        meta_ok = false;
        out.push(Diagnostic::network_level(
            DiagCode::FlatMetadataMismatch,
            label,
            format!(
                "frozen forest declares {} features, source declares {}",
                frozen.n_features(),
                forest.n_features()
            ),
        ));
    }
    let ctx = FlatCtx {
        label,
        trees: forest.trees(),
        nodes: frozen.nodes(),
        cuts: frozen.cut_grid(),
        n_features: frozen.n_features(),
    };
    let probe = check_frozen_ensemble(&ctx, binned, out);
    if meta_ok && !forest.trees().is_empty() {
        if let Some(probe) = probe {
            let (reference, flat) = probe.score(
                |row| reference_forest_predict(forest, row),
                |x| frozen.predict(x),
            );
            check_accumulation(label, &reference, &flat, out);
        }
    }
    bump_counters(out);
}

fn bump_counters(out: &[Diagnostic]) {
    gdcm_obs::counter("audit/flatchecks").incr();
    let flat_diags = out
        .iter()
        .filter(|d| (140..=159).contains(&d.code.number()))
        .count();
    if flat_diags > 0 {
        gdcm_obs::counter("audit/flatchecks_flagged").incr();
    }
}

/// The ensemble-shape portion shared by both wrappers. Returns the
/// probe rows when every tree verified traversal-safe (so the
/// accumulation cross-check is meaningful), `None` otherwise.
fn check_frozen_ensemble<'a>(
    ctx: &FlatCtx<'a>,
    binned: Option<&dyn CutGrid>,
    out: &mut Vec<Diagnostic>,
) -> Option<Probe<'a>> {
    check_grid(ctx.label, ctx.cuts, binned, out);
    if ctx.cuts.len() != ctx.n_features {
        out.push(Diagnostic::network_level(
            DiagCode::FlatGridMismatch,
            ctx.label,
            format!(
                "frozen grid covers {} features but the model declares {}",
                ctx.cuts.len(),
                ctx.n_features
            ),
        ));
        return None;
    }
    if !arena_shape_ok(ctx, out) {
        return None;
    }

    let tree_indices: Vec<usize> = (0..ctx.trees.len()).collect();
    let audits: Vec<FlatTreeAudit> =
        gdcm_par::pool().par_map(&tree_indices, |&t| audit_flat_tree(ctx, t));

    let all_safe = audits.iter().all(|a| a.traversal_safe);
    let mut rows = Vec::new();
    for mut audit in audits {
        out.append(&mut audit.diags);
        rows.append(&mut audit.probe);
    }
    (all_safe && !rows.is_empty()).then_some(Probe {
        cuts: ctx.cuts,
        rows,
    })
}

/// `GDCM148`/`GDCM149`: grid ascent, and bitwise equality against the
/// rebuilt training grid when one is supplied.
fn check_grid(
    label: &str,
    cuts: &[Vec<f32>],
    binned: Option<&dyn CutGrid>,
    out: &mut Vec<Diagnostic>,
) {
    for (f, fc) in cuts.iter().enumerate() {
        // NaN edges must flag too, so test for `Less` rather than `!(<)`.
        let ascends =
            |w: &&[f32]| matches!(w[0].partial_cmp(&w[1]), Some(std::cmp::Ordering::Less));
        if let Some(w) = fc.windows(2).find(|w| !ascends(w)) {
            out.push(Diagnostic::at_index(
                DiagCode::FlatGridNotAscending,
                label,
                f,
                format!(
                    "feature {f} cuts are not strictly ascending ({} then {})",
                    w[0], w[1]
                ),
            ));
        }
    }
    let Some(binned) = binned else {
        return;
    };
    if cuts.len() != binned.n_features() {
        out.push(Diagnostic::network_level(
            DiagCode::FlatGridMismatch,
            label,
            format!(
                "frozen grid covers {} features, rebuilt training grid has {}",
                cuts.len(),
                binned.n_features()
            ),
        ));
        return;
    }
    for (f, fc) in cuts.iter().enumerate() {
        let rebuilt = binned.cuts(f);
        let equal = fc.len() == rebuilt.len()
            && fc
                .iter()
                .zip(rebuilt)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !equal {
            out.push(Diagnostic::at_index(
                DiagCode::FlatGridMismatch,
                label,
                f,
                format!(
                    "feature {f}: frozen grid ({} cuts) differs bitwise from the rebuilt \
                     training grid ({} cuts)",
                    fc.len(),
                    rebuilt.len()
                ),
            ));
        }
    }
}

/// `GDCM140`: offsets monotone from 0, parallel arrays of one length,
/// tree count matching the source ensemble.
fn arena_shape_ok(ctx: &FlatCtx<'_>, out: &mut Vec<Diagnostic>) -> bool {
    let nodes = ctx.nodes;
    let starts = nodes.tree_starts();
    let n_slots = nodes.feature().len();
    let mut problems: Vec<String> = Vec::new();
    if starts.first() != Some(&0) {
        problems.push(format!("tree offsets start at {:?}, not 0", starts.first()));
    }
    if starts.len() != ctx.trees.len() + 1 {
        problems.push(format!(
            "{} tree offsets for {} source trees (want {})",
            starts.len(),
            ctx.trees.len(),
            ctx.trees.len() + 1
        ));
    }
    if let Some(w) = starts.windows(2).find(|w| w[0] > w[1]) {
        problems.push(format!("tree offsets decrease ({} then {})", w[0], w[1]));
    }
    if starts.last().map(|&e| e as usize) != Some(n_slots) {
        problems.push(format!(
            "last tree offset {:?} does not close the {} slots",
            starts.last(),
            n_slots
        ));
    }
    for (name, len) in [
        ("bin", nodes.bin().len()),
        ("left", nodes.left().len()),
        ("right", nodes.right().len()),
        ("leaf", nodes.leaf().len()),
    ] {
        if len != n_slots {
            problems.push(format!(
                "`{name}` array has {len} entries, `feature` has {n_slots}"
            ));
        }
    }
    for problem in &problems {
        out.push(Diagnostic::network_level(
            DiagCode::FlatArenaShapeMismatch,
            ctx.label,
            problem.clone(),
        ));
    }
    problems.is_empty()
}

/// Source-tree safety for the traversal-dependent checks: children in
/// bounds, acyclic, split features inside the model width. Deliberately
/// silent — source-side corruption is the ensemble pass's domain; flat
/// checks merely refuse to traverse it.
fn source_walk_safe(src: &[TreeNode], n_features: usize) -> bool {
    let mut visited = vec![false; src.len()];
    let mut stack = vec![0usize];
    while let Some(n) = stack.pop() {
        if visited[n] {
            return false;
        }
        visited[n] = true;
        if let TreeNode::Split {
            feature,
            left,
            right,
            ..
        } = src[n]
        {
            if feature >= n_features {
                return false;
            }
            for child in [left, right] {
                if child >= src.len() {
                    return false;
                }
                stack.push(child);
            }
        }
    }
    true
}

/// All per-tree checks: slot bijection, flat topology, quantization
/// soundness, and path/interval consistency.
fn audit_flat_tree(ctx: &FlatCtx<'_>, t: usize) -> FlatTreeAudit {
    let label = ctx.label;
    let src = ctx.trees[t].nodes();
    let starts = ctx.nodes.tree_starts();
    let (start, end) = (starts[t] as usize, starts[t + 1] as usize);
    let mut audit = FlatTreeAudit {
        diags: Vec::new(),
        traversal_safe: true,
        probe: Vec::new(),
    };

    if end - start != src.len() {
        audit.traversal_safe = false;
        audit.diags.push(Diagnostic::at_index(
            DiagCode::FlatArenaShapeMismatch,
            label,
            t,
            format!(
                "source tree has {} nodes but the flat range holds {} slots",
                src.len(),
                end - start
            ),
        ));
        return audit;
    }
    if src.is_empty() {
        // An empty arena is the ensemble pass's GDCM103; nothing to map.
        audit.traversal_safe = false;
        return audit;
    }
    if !source_walk_safe(src, ctx.n_features) {
        // Source-side corruption: reported by the ensemble pass; the
        // bijection cannot be adjudicated against a broken reference.
        audit.traversal_safe = false;
        return audit;
    }

    let (nf, nb, nl, nr, nw) = (
        ctx.nodes.feature(),
        ctx.nodes.bin(),
        ctx.nodes.left(),
        ctx.nodes.right(),
        ctx.nodes.leaf(),
    );

    // 1. Slot-by-slot bijection against the source arena.
    for (i, node) in src.iter().enumerate() {
        let s = start + i;
        match *node {
            TreeNode::Leaf { weight } => {
                if nf[s] != FROZEN_LEAF {
                    audit.traversal_safe = false;
                    audit.diags.push(Diagnostic::at_index(
                        DiagCode::FlatNodeKindMismatch,
                        label,
                        t,
                        format!(
                            "node {i} is a leaf but slot {s} claims a split on feature {}",
                            nf[s]
                        ),
                    ));
                    continue;
                }
                if nw[s].to_bits() != weight.to_bits() {
                    audit.diags.push(Diagnostic::at_index(
                        DiagCode::FlatLeafValueMismatch,
                        label,
                        t,
                        format!(
                            "node {i}: slot {s} leaf {} differs bitwise from source weight {}",
                            nw[s], weight
                        ),
                    ));
                }
            }
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if nf[s] == FROZEN_LEAF {
                    audit.traversal_safe = false;
                    audit.diags.push(Diagnostic::at_index(
                        DiagCode::FlatNodeKindMismatch,
                        label,
                        t,
                        format!("node {i} is a split but slot {s} claims a leaf"),
                    ));
                    continue;
                }
                let ff = nf[s] as usize;
                if ff >= ctx.n_features {
                    audit.traversal_safe = false;
                    audit.diags.push(Diagnostic::at_index(
                        DiagCode::FlatFeatureMismatch,
                        label,
                        t,
                        format!(
                            "slot {s} splits feature {ff}, beyond the model width {}",
                            ctx.n_features
                        ),
                    ));
                } else if ff != feature {
                    audit.diags.push(Diagnostic::at_index(
                        DiagCode::FlatFeatureMismatch,
                        label,
                        t,
                        format!("node {i} splits feature {feature} but slot {s} splits {ff}"),
                    ));
                }
                // Frozen prediction reads the threshold back as
                // `cuts[ff][bin]`, so a bin past that grid must not be
                // walked. It is already reported: GDCM150 below when the
                // slot keeps its source feature, GDCM142 above otherwise.
                if ff < ctx.n_features && usize::from(nb[s]) >= ctx.cuts[ff].len() {
                    audit.traversal_safe = false;
                }
                let (fl, fr) = (nl[s] as usize, nr[s] as usize);
                let mut dangling = false;
                for (side, child) in [("left", fl), ("right", fr)] {
                    if !(start..end).contains(&child) {
                        dangling = true;
                        audit.traversal_safe = false;
                        audit.diags.push(Diagnostic::at_index(
                            DiagCode::FlatChildOutOfRange,
                            label,
                            t,
                            format!(
                                "slot {s} {side} child {child} dangles outside the tree's \
                                 slot range {start}..{end}"
                            ),
                        ));
                    }
                }
                if !dangling && (fl != start + left || fr != start + right) {
                    audit.diags.push(Diagnostic::at_index(
                        DiagCode::FlatChildMismatch,
                        label,
                        t,
                        format!(
                            "node {i} children map to slots ({}, {}) but slot {s} points to \
                             ({fl}, {fr})",
                            start + left,
                            start + right
                        ),
                    ));
                }
                // 2. Quantization soundness for this slot.
                if ff == feature && ff < ctx.n_features {
                    let fc = &ctx.cuts[ff];
                    let b = nb[s] as usize;
                    if b >= fc.len() || fc[b].to_bits() != threshold.to_bits() {
                        audit.diags.push(Diagnostic::at_index(
                            DiagCode::FlatThresholdOffGrid,
                            label,
                            t,
                            format!(
                                "slot {s} bin {b} does not map back to source threshold \
                                 {threshold} on feature {ff}'s {}-cut grid",
                                fc.len()
                            ),
                        ));
                    }
                    // Symbolic case split over the grid partition: both
                    // decision functions are constant inside a cell, so
                    // one representative per cell is exhaustive.
                    for cell in 0..=fc.len() {
                        let v = cell_value(fc, cell);
                        let flat_left = (bin_code(fc, v) as usize) <= b;
                        let src_left = v <= threshold;
                        if flat_left != src_left {
                            audit.diags.push(Diagnostic::at_index(
                                DiagCode::FlatQuantizationUnsound,
                                label,
                                t,
                                format!(
                                    "slot {s}: bin edge {v} (cell {cell} of feature {ff}) \
                                     routes {} under code<={b} but {} under v<={threshold}",
                                    side_name(flat_left),
                                    side_name(src_left)
                                ),
                            ));
                            break;
                        }
                    }
                }
            }
        }
    }

    // 1b. Flat-side topology, independent of the source: DFS over the
    // slot range following only in-range children.
    let len = end - start;
    let mut visited = vec![false; len];
    let mut stack = vec![start];
    while let Some(s) = stack.pop() {
        if visited[s - start] {
            audit.traversal_safe = false;
            audit.diags.push(Diagnostic::at_index(
                DiagCode::FlatCycle,
                label,
                t,
                format!("slot {s} reached twice: the SoA arrays encode a cycle or shared subtree"),
            ));
            continue;
        }
        visited[s - start] = true;
        if nf[s] != FROZEN_LEAF {
            for child in [nl[s] as usize, nr[s] as usize] {
                if (start..end).contains(&child) {
                    stack.push(child);
                }
            }
        }
    }
    let orphans = visited.iter().filter(|&&v| !v).count();
    if let Some(first) = visited.iter().position(|&v| !v) {
        audit.diags.push(Diagnostic::at_index(
            DiagCode::FlatOrphanSlot,
            label,
            t,
            format!(
                "{orphans} of {len} slots unreachable from root slot {start} (first: slot {})",
                start + first
            ),
        ));
    }

    // 3. Path/interval consistency — only on trees both representations
    // can traverse safely.
    if audit.traversal_safe {
        let mut walk = PathWalk {
            ctx,
            t,
            start,
            end,
            intervals: (0..ctx.n_features)
                .map(|f| (0usize, ctx.cuts[f].len()))
                .collect(),
            paths: 0,
            diverged: 0,
            first_divergence: None,
        };
        walk_paths(&mut walk, src, 0, &mut audit);
        if let Some(detail) = walk.first_divergence {
            audit.diags.push(Diagnostic::at_index(
                DiagCode::FlatPathDivergence,
                label,
                t,
                format!(
                    "{} of {} enumerated bin-grid cells select a different leaf under flat \
                     traversal (first: {detail})",
                    walk.diverged, walk.paths
                ),
            ));
        }
    }
    audit
}

fn side_name(left: bool) -> &'static str {
    if left {
        "left"
    } else {
        "right"
    }
}

/// A raw value landing in `cell` of the grid partition: the cell's
/// upper bin edge, or +∞ for the open top cell (constant features have
/// a single cell; any value represents it).
fn cell_value(cuts: &[f32], cell: usize) -> f32 {
    if cell < cuts.len() {
        cuts[cell]
    } else if cuts.is_empty() {
        0.0
    } else {
        f32::INFINITY
    }
}

/// Mutable state of the per-tree path enumeration.
struct PathWalk<'a> {
    ctx: &'a FlatCtx<'a>,
    t: usize,
    start: usize,
    end: usize,
    /// Per-feature inclusive bin-cell interval of the current path.
    intervals: Vec<(usize, usize)>,
    paths: usize,
    diverged: usize,
    first_divergence: Option<String>,
}

/// Depth-first enumeration of the source tree's root-to-leaf paths,
/// narrowing per-feature cell intervals on the way down (backtracking
/// on the way up). Dead branches report `GDCM152`; live leaves get a
/// representative row (each feature's lowest cell in its interval), a
/// flat-vs-recursive leaf comparison, and a probe entry for the
/// accumulation check.
fn walk_paths(w: &mut PathWalk<'_>, src: &[TreeNode], node: usize, audit: &mut FlatTreeAudit) {
    if w.paths >= MAX_PATHS_PER_TREE {
        return;
    }
    match src[node] {
        TreeNode::Leaf { weight } => {
            w.paths += 1;
            let cuts = w.ctx.cuts;
            let intervals = &w.intervals;
            let code = |f: usize| bin_code(&cuts[f], cell_value(&cuts[f], intervals[f].0));
            let flat_slot = flat_leaf_for(w.ctx.nodes, w.start, w.end, w.ctx.n_features, code);
            let expected = w.start + node;
            let agree = flat_slot
                .map(|s| s == expected && w.ctx.nodes.leaf()[s].to_bits() == weight.to_bits())
                .unwrap_or(false);
            if !agree {
                w.diverged += 1;
                if w.first_divergence.is_none() {
                    w.first_divergence = Some(match flat_slot {
                        Some(s) => format!(
                            "cell of leaf node {node} routes to slot {s} (leaf {}), expected \
                             slot {expected} (leaf {weight})",
                            w.ctx.nodes.leaf()[s]
                        ),
                        None => format!("cell of leaf node {node}: flat traversal escaped"),
                    });
                }
            }
            let cells = (w.intervals.iter().enumerate())
                .filter(|&(_, &(lo, _))| lo != 0)
                .map(|(f, &(lo, _))| (f, lo))
                .collect();
            audit.probe.push(cells);
        }
        TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            // The threshold's effective grid cell: for on-grid
            // thresholds this is exactly the stored bin.
            let b = bin_code(&w.ctx.cuts[feature], threshold) as usize;
            let (lo, hi) = w.intervals[feature];
            for (side, child, clo, chi) in [
                ("left", left, lo, hi.min(b)),
                ("right", right, lo.max(b + 1), hi),
            ] {
                if clo > chi {
                    audit.diags.push(Diagnostic::at_index(
                        DiagCode::FlatDeadPath,
                        w.ctx.label,
                        w.t,
                        format!(
                            "node {node}: the {side} branch's interval on feature {feature} \
                             is empty (cells {clo}..{chi}) — its leaves are unreachable"
                        ),
                    ));
                    continue;
                }
                w.intervals[feature] = (clo, chi);
                walk_paths(w, src, child, audit);
            }
            w.intervals[feature] = (lo, hi);
        }
    }
}

/// Flat traversal of one tree over the bin codes `code` gives for each
/// of `n_features` features. Returns `None` if the walk escapes its
/// slot range or runs longer than the slot count (defensive: callers
/// only traverse trees already verified safe).
fn flat_leaf_for(
    nodes: &FrozenNodes,
    start: usize,
    end: usize,
    n_features: usize,
    code: impl Fn(usize) -> u8,
) -> Option<usize> {
    let mut s = start;
    for _ in 0..=(end - start) {
        if !(start..end).contains(&s) {
            return None;
        }
        let f = nodes.feature()[s];
        if f == FROZEN_LEAF {
            return Some(s);
        }
        let f = f as usize;
        if f >= n_features {
            return None;
        }
        s = if code(f) <= nodes.bin()[s] {
            nodes.left()[s] as usize
        } else {
            nodes.right()[s] as usize
        };
    }
    None
}

/// `GDCM154`: bitwise comparison of the recursive reference against the
/// frozen batch predictor over the synthesized probe rows.
fn check_accumulation(label: &str, reference: &[f32], flat: &[f32], out: &mut Vec<Diagnostic>) {
    if reference.len() != flat.len() {
        out.push(Diagnostic::network_level(
            DiagCode::FlatAccumulationMismatch,
            label,
            format!(
                "prediction lengths differ: reference {} rows, frozen {}",
                reference.len(),
                flat.len()
            ),
        ));
        return;
    }
    let mismatched: Vec<usize> = reference
        .iter()
        .zip(flat)
        .enumerate()
        .filter(|(_, (r, f))| r.to_bits() != f.to_bits())
        .map(|(i, _)| i)
        .collect();
    if let Some(&first) = mismatched.first() {
        out.push(Diagnostic::at_index(
            DiagCode::FlatAccumulationMismatch,
            label,
            first,
            format!(
                "{} of {} probe rows disagree bitwise (row {first}: reference {} vs frozen {})",
                mismatched.len(),
                reference.len(),
                reference[first],
                flat[first],
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdcm_ml::{BinnedMatrix, GbdtParams};

    fn synthetic(n: usize, d: usize) -> (DenseMatrix, Vec<f32>) {
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (u32::MAX as f32) * 2.0 - 1.0) * 5.0
        };
        for _ in 0..n {
            let row: Vec<f32> = (0..d).map(|_| next()).collect();
            let target = row[0] - row[d - 1] * 0.5 + next() * 0.2;
            rows.push(row);
            y.push(target);
        }
        (DenseMatrix::from_rows(&rows), y)
    }

    #[test]
    fn certified_gbdt_translation_is_clean() {
        let (x, y) = synthetic(250, 4);
        let params = GbdtParams {
            n_estimators: 25,
            max_depth: 4,
            ..GbdtParams::default()
        };
        let model = GbdtRegressor::fit(&x, &y, &params);
        let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
        let frozen = FrozenGbdt::freeze(&model, &binned).expect("fitted model freezes");
        let mut diags = Vec::new();
        check_frozen_gbdt("t/gbdt", &model, &frozen, Some(&binned), &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn certified_forest_translation_is_clean() {
        let (x, y) = synthetic(180, 3);
        let forest = RandomForestRegressor::fit(&x, &y, 12, 7, 9);
        let binned = BinnedMatrix::from_matrix(&x, gdcm_ml::FOREST_BINS);
        let frozen = FrozenForest::freeze(&forest, &binned).expect("fitted forest freezes");
        let mut diags = Vec::new();
        check_frozen_forest("t/forest", &forest, &frozen, Some(&binned), &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
