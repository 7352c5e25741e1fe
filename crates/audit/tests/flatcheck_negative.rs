//! Negative tests for the flatcheck pass: corrupt a frozen (compiled
//! SoA) model through the unvalidated `from_raw_parts` escape hatches
//! and pin the exact stable `GDCM14x` code each corruption produces.
//!
//! Together with the clean-certification tests these are the contracts
//! that keep the flatcheck codes stable: every representable corruption
//! class has a test asserting its code, and a certified translation
//! asserts none.

use gdcm_analyze::Diagnostic;
use gdcm_audit::check_frozen_gbdt;
use gdcm_ml::{
    BinnedMatrix, DenseMatrix, FrozenGbdt, FrozenNodes, GbdtParams, GbdtRegressor, Tree, TreeNode,
    FROZEN_LEAF,
};

/// A small, deterministic fitted model plus its certified frozen form
/// and the grid it was trained on.
fn fixture() -> (GbdtRegressor, FrozenGbdt, BinnedMatrix) {
    let rows: Vec<Vec<f32>> = (0..160)
        .map(|i| {
            let a = (i % 19) as f32;
            let b = ((i * 7) % 13) as f32;
            let c = ((i * 3) % 5) as f32;
            vec![a, b, c]
        })
        .collect();
    let y: Vec<f32> = rows
        .iter()
        .map(|r| r[0] * 0.7 - r[1] * 0.3 + r[2])
        .collect();
    let x = DenseMatrix::from_rows(&rows);
    let params = GbdtParams {
        n_estimators: 12,
        max_depth: 4,
        ..GbdtParams::default()
    };
    let model = GbdtRegressor::fit(&x, &y, &params);
    let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
    let frozen = FrozenGbdt::freeze(&model, &binned).expect("fitted model freezes");
    (model, frozen, binned)
}

/// Rebuilds a frozen model with its SoA arrays passed through `edit`.
fn corrupt_nodes(
    frozen: &FrozenGbdt,
    edit: impl FnOnce(
        &mut Vec<u32>, // tree_starts
        &mut Vec<u32>, // feature
        &mut Vec<u8>,  // bin
        &mut Vec<u32>, // left
        &mut Vec<u32>, // right
        &mut Vec<f32>, // leaf
    ),
) -> FrozenGbdt {
    let (base, width, cuts, nodes) = frozen.clone().into_raw_parts();
    let (mut starts, mut feature, mut bin, mut left, mut right, mut leaf) = nodes.into_raw_parts();
    edit(
        &mut starts,
        &mut feature,
        &mut bin,
        &mut left,
        &mut right,
        &mut leaf,
    );
    FrozenGbdt::from_raw_parts(
        base,
        width,
        cuts,
        FrozenNodes::from_raw_parts(starts, feature, bin, left, right, leaf),
    )
}

/// The distinct `GDCMnnn` numbers present in a diagnostic list.
fn codes(diags: &[Diagnostic]) -> Vec<u16> {
    let mut numbers: Vec<u16> = diags.iter().map(|d| d.code.number()).collect();
    numbers.sort_unstable();
    numbers.dedup();
    numbers
}

fn run(model: &GbdtRegressor, frozen: &FrozenGbdt, binned: &BinnedMatrix) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_frozen_gbdt("neg/flat", model, frozen, Some(binned), &mut diags);
    diags
}

/// Finds the slot index of the first split in the first tree.
fn first_split_slot(frozen: &FrozenGbdt) -> usize {
    frozen
        .nodes()
        .feature()
        .iter()
        .position(|&f| f != FROZEN_LEAF)
        .expect("a fitted ensemble has splits")
}

/// Finds the slot index of the first leaf with a non-zero weight.
fn first_leaf_slot(frozen: &FrozenGbdt) -> usize {
    let nodes = frozen.nodes();
    (0..nodes.feature().len())
        .find(|&s| nodes.feature()[s] == FROZEN_LEAF && nodes.leaf()[s] != 0.0)
        .expect("a fitted ensemble has non-zero leaves")
}

#[test]
fn gdcm140_truncated_parallel_array() {
    let (model, frozen, binned) = fixture();
    let bad = corrupt_nodes(&frozen, |_, _, _, _, _, leaf| {
        leaf.pop();
    });
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&140), "{diags:?}");
}

#[test]
fn gdcm140_non_monotone_tree_offsets() {
    let (model, frozen, binned) = fixture();
    let bad = corrupt_nodes(&frozen, |starts, _, _, _, _, _| {
        let mid = starts.len() / 2;
        starts[mid] = starts[mid + 1] + 3;
    });
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&140), "{diags:?}");
}

#[test]
fn gdcm141_split_slot_claims_leaf() {
    let (model, frozen, binned) = fixture();
    let s = first_split_slot(&frozen);
    let bad = corrupt_nodes(&frozen, |_, feature, _, _, _, _| {
        feature[s] = FROZEN_LEAF;
    });
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&141), "{diags:?}");
}

#[test]
fn gdcm142_split_feature_rewritten() {
    let (model, frozen, binned) = fixture();
    let s = first_split_slot(&frozen);
    let other = (frozen.nodes().feature()[s] as usize + 1) % model.n_features();
    let bad = corrupt_nodes(&frozen, |_, feature, _, _, _, _| {
        feature[s] = other as u32;
    });
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&142), "{diags:?}");
}

#[test]
fn gdcm143_dangling_child_slot() {
    let (model, frozen, binned) = fixture();
    let s = first_split_slot(&frozen);
    let n_slots = frozen.n_slots() as u32;
    let bad = corrupt_nodes(&frozen, |_, _, _, left, _, _| {
        left[s] = n_slots + 17;
    });
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&143), "{diags:?}");
}

#[test]
fn gdcm144_and_153_swapped_children() {
    let (model, frozen, binned) = fixture();
    let s = first_split_slot(&frozen);
    let bad = corrupt_nodes(&frozen, |_, _, _, left, right, _| {
        std::mem::swap(&mut left[s], &mut right[s]);
    });
    let diags = run(&model, &bad, &binned);
    let found = codes(&diags);
    assert!(found.contains(&144), "{diags:?}");
    // Swapped children route every cell to the wrong subtree, so flat
    // and recursive traversal select different leaves.
    assert!(found.contains(&153), "{diags:?}");
}

#[test]
fn gdcm145_child_cycles_back_to_root() {
    let (model, frozen, binned) = fixture();
    let s = first_split_slot(&frozen);
    let root = frozen.nodes().tree_starts()[0];
    let bad = corrupt_nodes(&frozen, |_, _, _, left, _, _| {
        left[s] = root;
    });
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&145), "{diags:?}");
}

#[test]
fn gdcm146_orphaned_subtree() {
    let (model, frozen, binned) = fixture();
    let s = first_split_slot(&frozen);
    let bad = corrupt_nodes(&frozen, |_, _, _, left, right, _| {
        // Point both children at one subtree; the other becomes
        // unreachable from the root.
        left[s] = right[s];
    });
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&146), "{diags:?}");
}

#[test]
fn gdcm147_153_154_leaf_bit_flip() {
    let (model, frozen, binned) = fixture();
    let s = first_leaf_slot(&frozen);
    let bad = corrupt_nodes(&frozen, |_, _, _, _, _, leaf| {
        leaf[s] = f32::from_bits(leaf[s].to_bits() ^ 1);
    });
    let diags = run(&model, &bad, &binned);
    let found = codes(&diags);
    // One flipped mantissa bit is caught three independent ways: the
    // slot-level bitwise compare, the path-level leaf check, and the
    // accumulated-prediction cross-check.
    assert!(found.contains(&147), "{diags:?}");
    assert!(found.contains(&153), "{diags:?}");
    assert!(found.contains(&154), "{diags:?}");
}

#[test]
fn gdcm148_grid_drifts_from_training_matrix() {
    let (model, frozen, binned) = fixture();
    let (base, width, mut cuts, nodes) = frozen.into_raw_parts();
    let f = cuts
        .iter()
        .position(|c| !c.is_empty())
        .expect("trained grid has cuts");
    cuts[f][0] += 0.25;
    let bad = FrozenGbdt::from_raw_parts(base, width, cuts, nodes);
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&148), "{diags:?}");
}

#[test]
fn gdcm149_grid_not_strictly_ascending() {
    let (model, frozen, binned) = fixture();
    let (base, width, mut cuts, nodes) = frozen.into_raw_parts();
    let f = cuts
        .iter()
        .position(|c| c.len() >= 2)
        .expect("trained grid has multi-cut features");
    cuts[f].swap(0, 1);
    let bad = FrozenGbdt::from_raw_parts(base, width, cuts, nodes);
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&149), "{diags:?}");
}

#[test]
fn gdcm150_bin_no_longer_maps_to_threshold() {
    let (model, frozen, binned) = fixture();
    let s = first_split_slot(&frozen);
    let bad = corrupt_nodes(&frozen, |_, _, bin, _, _, _| {
        bin[s] = bin[s].wrapping_add(1);
    });
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&150), "{diags:?}");
}

#[test]
fn gdcm150_bin_past_the_grid_is_reported_not_walked() {
    // Frozen prediction reads `cuts[feature][bin]`; a bin past the grid
    // must be reported and must keep flatcheck from walking the tree.
    let (model, frozen, binned) = fixture();
    let s = first_split_slot(&frozen);
    let bad = corrupt_nodes(&frozen, |_, _, bin, _, _, _| {
        bin[s] = u8::MAX;
    });
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&150), "{diags:?}");
}

#[test]
fn gdcm142_split_moved_onto_a_shorter_grid_is_reported_not_walked() {
    // Move a split slot to another feature whose cut grid is too short
    // for the slot's bin, so `cuts[feature][bin]` would read past it.
    let (model, frozen, binned) = fixture();
    let nodes = frozen.nodes();
    let (s, other) = (0..nodes.feature().len())
        .filter(|&s| nodes.feature()[s] != FROZEN_LEAF)
        .find_map(|s| {
            (0..frozen.n_features())
                .find(|&f| {
                    f != nodes.feature()[s] as usize
                        && frozen.cuts(f).len() <= usize::from(nodes.bin()[s])
                })
                .map(|f| (s, f))
        })
        .expect("some split's bin is past a shorter feature's grid");
    let bad = corrupt_nodes(&frozen, |_, feature, _, _, _, _| {
        feature[s] = other as u32;
    });
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&142), "{diags:?}");
}

#[test]
fn gdcm151_quantization_unsound_on_unsorted_grid() {
    // 151 is the symbolic check: with a strictly ascending grid and a
    // bitwise-matching bin it is unreachable (that is the bit-identity
    // theorem), so the witness needs a grid that defeats the binary
    // search. cuts = [1, 3, 2] with threshold 2 at bin 2: the bin maps
    // back bitwise (no GDCM150), but the edge 3.0 bins to code 1 <= 2 —
    // flat routes left where the source (3.0 <= 2.0) routes right.
    let model = GbdtRegressor::from_raw_parts(
        0.0,
        vec![Tree::from_raw_nodes(vec![
            TreeNode::Split {
                feature: 0,
                threshold: 2.0,
                left: 1,
                right: 2,
            },
            TreeNode::Leaf { weight: -1.0 },
            TreeNode::Leaf { weight: 1.0 },
        ])],
        1,
    );
    let frozen = FrozenGbdt::from_raw_parts(
        0.0,
        1,
        vec![vec![1.0, 3.0, 2.0]],
        FrozenNodes::from_raw_parts(
            vec![0, 3],
            vec![0, FROZEN_LEAF, FROZEN_LEAF],
            vec![2, 0, 0],
            vec![1, FROZEN_LEAF, FROZEN_LEAF],
            vec![2, FROZEN_LEAF, FROZEN_LEAF],
            vec![0.0, -1.0, 1.0],
        ),
    );
    let mut diags = Vec::new();
    check_frozen_gbdt("neg/unsound", &model, &frozen, None, &mut diags);
    let found = codes(&diags);
    assert!(found.contains(&151), "{diags:?}");
    // The broken grid itself is also reported.
    assert!(found.contains(&149), "{diags:?}");
}

#[test]
fn gdcm152_contradictory_splits_make_dead_path() {
    // Root sends `x <= 1` left; the left child then asks for `x > 3` on
    // its right branch — an empty cell interval. `fit` cannot produce
    // this shape; a hand-built or tampered model can.
    let model = GbdtRegressor::from_raw_parts(
        0.0,
        vec![Tree::from_raw_nodes(vec![
            TreeNode::Split {
                feature: 0,
                threshold: 1.0,
                left: 1,
                right: 2,
            },
            TreeNode::Split {
                feature: 0,
                threshold: 3.0,
                left: 3,
                right: 4,
            },
            TreeNode::Leaf { weight: 0.5 },
            TreeNode::Leaf { weight: -0.5 },
            TreeNode::Leaf { weight: 9.0 },
        ])],
        1,
    );
    let l = FROZEN_LEAF;
    let frozen = FrozenGbdt::from_raw_parts(
        0.0,
        1,
        vec![vec![1.0, 3.0]],
        FrozenNodes::from_raw_parts(
            vec![0, 5],
            vec![0, 0, l, l, l],
            vec![0, 1, 0, 0, 0],
            vec![1, 3, l, l, l],
            vec![2, 4, l, l, l],
            vec![0.0, 0.0, 0.5, -0.5, 9.0],
        ),
    );
    let mut diags = Vec::new();
    check_frozen_gbdt("neg/dead", &model, &frozen, None, &mut diags);
    let found = codes(&diags);
    assert!(found.contains(&152), "{diags:?}");
    // Live paths still agree, so the dead branch is the only finding.
    assert!(!found.contains(&153), "{diags:?}");
}

#[test]
fn gdcm155_and_154_corrupted_base_score() {
    let (model, frozen, binned) = fixture();
    let (base, width, cuts, nodes) = frozen.into_raw_parts();
    let bad = FrozenGbdt::from_raw_parts(base + 0.125, width, cuts, nodes);
    let diags = run(&model, &bad, &binned);
    let found = codes(&diags);
    assert!(found.contains(&155), "{diags:?}");
    // Every accumulated prediction starts from the wrong base.
    assert!(found.contains(&154), "{diags:?}");
}

#[test]
fn gdcm155_mismatched_feature_width() {
    let (model, frozen, binned) = fixture();
    let (base, width, cuts, nodes) = frozen.into_raw_parts();
    let bad = FrozenGbdt::from_raw_parts(base, width + 2, cuts, nodes);
    let diags = run(&model, &bad, &binned);
    assert!(codes(&diags).contains(&155), "{diags:?}");
}

#[test]
fn certified_translation_reports_nothing() {
    let (model, frozen, binned) = fixture();
    let diags = run(&model, &frozen, &binned);
    assert!(diags.is_empty(), "{diags:?}");
}
