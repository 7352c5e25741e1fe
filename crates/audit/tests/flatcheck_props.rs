//! Property tests for the frozen-model pipeline: for arbitrary small
//! training sets, freezing succeeds, the flatcheck pass certifies the
//! translation with zero diagnostics, and the frozen batch, single-row
//! and pre-binned predictors are bit-identical to the recursive
//! pointer-tree reference — at one worker thread and at four.
//!
//! One `#[test]` only: the `gdcm-par` thread budget is process-global,
//! so a second concurrent test could observe the override mid-sweep.

use proptest::prelude::*;

use gdcm_audit::{check_frozen_forest, check_frozen_gbdt, reference_forest_predict};
use gdcm_ml::{
    bin_code, BinnedMatrix, DenseMatrix, FrozenForest, FrozenGbdt, GbdtParams, GbdtRegressor,
    RandomForestRegressor, Regressor as _, FOREST_BINS,
};

/// `row` binned onto `cuts`: the codes `predict_binned` scores.
fn bin_row(cuts: &[Vec<f32>], row: &[f32]) -> Vec<u8> {
    row.iter()
        .zip(cuts)
        .map(|(&v, fc)| bin_code(fc, v))
        .collect()
}

/// One generated case: freeze, certify, and compare bit-for-bit against
/// the recursive reference at whatever thread count is currently set.
/// Every frozen model is scored three ways: the batch predictor,
/// `predict_row`, and `predict_binned` on the binned row.
fn check_one(rows: &[Vec<f32>], n_features: usize, max_bins: usize) -> Result<(), TestCaseError> {
    let x = DenseMatrix::from_rows(rows);
    let y: Vec<f32> = rows
        .iter()
        .map(|r| {
            r.iter()
                .enumerate()
                .map(|(i, v)| v * (i as f32 + 0.5))
                .sum()
        })
        .collect();
    let params = GbdtParams {
        n_estimators: 8,
        max_depth: 3,
        max_bins,
        ..GbdtParams::default()
    };
    let model = GbdtRegressor::fit(&x, &y, &params);
    let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
    let frozen = FrozenGbdt::freeze(&model, &binned)
        .map_err(|e| TestCaseError::Fail(format!("freeze failed: {e}")))?;

    let mut diags = Vec::new();
    check_frozen_gbdt("prop/gbdt", &model, &frozen, Some(&binned), &mut diags);
    prop_assert!(diags.is_empty(), "flatcheck flagged a fit: {:?}", diags);
    prop_assert_eq!(n_features, frozen.n_features());

    // Bit identity against the recursive reference. Probe both the
    // training rows and perturbed copies that fall between bin edges.
    let mut probe_rows: Vec<Vec<f32>> = rows.to_vec();
    probe_rows.extend(
        rows.iter()
            .map(|r| r.iter().map(|v| v * 1.5 + 0.3).collect::<Vec<f32>>()),
    );
    let probe = DenseMatrix::from_rows(&probe_rows);
    let batch = frozen.predict(&probe);
    for (i, row) in probe_rows.iter().enumerate() {
        let reference = gdcm_audit::reference_predict(&model, row);
        prop_assert_eq!(
            reference.to_bits(),
            batch[i].to_bits(),
            "gbdt batch row {} diverged",
            i
        );
        prop_assert_eq!(
            reference.to_bits(),
            frozen.predict_row(row).to_bits(),
            "gbdt predict_row {} diverged",
            i
        );
        prop_assert_eq!(
            reference.to_bits(),
            frozen
                .predict_binned(&bin_row(frozen.cut_grid(), row))
                .to_bits(),
            "gbdt predict_binned {} diverged",
            i
        );
    }

    // Forest counterpart over the same rows.
    let forest = RandomForestRegressor::fit(&x, &y, 6, 5, 11);
    let fbinned = BinnedMatrix::from_matrix(&x, FOREST_BINS);
    let ffrozen = FrozenForest::freeze(&forest, &fbinned)
        .map_err(|e| TestCaseError::Fail(format!("forest freeze failed: {e}")))?;
    let mut fdiags = Vec::new();
    check_frozen_forest(
        "prop/forest",
        &forest,
        &ffrozen,
        Some(&fbinned),
        &mut fdiags,
    );
    prop_assert!(
        fdiags.is_empty(),
        "flatcheck flagged a forest: {:?}",
        fdiags
    );
    let fbatch = ffrozen.predict(&probe);
    for (i, row) in probe_rows.iter().enumerate() {
        let reference = reference_forest_predict(&forest, row);
        prop_assert_eq!(
            reference.to_bits(),
            fbatch[i].to_bits(),
            "forest batch row {} diverged",
            i
        );
        prop_assert_eq!(
            reference.to_bits(),
            ffrozen.predict_row(row).to_bits(),
            "forest predict_row {} diverged",
            i
        );
        prop_assert_eq!(
            reference.to_bits(),
            ffrozen
                .predict_binned(&bin_row(ffrozen.cut_grid(), row))
                .to_bits(),
            "forest predict_binned {} diverged",
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full freeze → certify → predict chain is clean and
    /// bit-identical to the reference at 1 and at 4 worker threads.
    /// The vendored strategy layer has no `prop_flat_map`, so the case
    /// draws a flat value pool plus independent dimensions and reshapes.
    #[test]
    fn frozen_models_certify_and_predict_bit_identically_at_any_thread_count(
        flat in prop::collection::vec(-50.0f32..50.0, 256..257),
        n_features in 2usize..5,
        n_rows in 24usize..64,
        max_bins in 8usize..200,
    ) {
        let rows: Vec<Vec<f32>> = flat
            .chunks_exact(n_features)
            .take(n_rows)
            .map(|c| c.to_vec())
            .collect();
        prop_assume!(rows.len() == n_rows);

        let pool = gdcm_par::pool();
        let original = pool.threads();
        let mut outcome = Ok(());
        for threads in [1usize, 4] {
            pool.set_threads(threads);
            if let Err(e) = check_one(&rows, n_features, max_bins) {
                outcome = Err(match e {
                    TestCaseError::Reject(m) => TestCaseError::Reject(m),
                    TestCaseError::Fail(m) => {
                        TestCaseError::Fail(format!("at {threads} thread(s): {m}"))
                    }
                });
                break;
            }
        }
        // Restore the process-global budget before surfacing any failure.
        pool.set_threads(original);
        outcome?;
    }
}
