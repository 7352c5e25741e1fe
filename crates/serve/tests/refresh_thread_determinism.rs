//! A refresh-swapped model must be bit-identical to a cold fit on the
//! same rows, at any `GDCM_THREADS` setting.
//!
//! `gdcm_par::set_threads` retunes the process-global pool, so this
//! file holds exactly one `#[test]` — a second test running
//! concurrently in the same binary would race the thread budget.

mod common;

use common::fitted_repository;
use gdcm_serve::{IngestPipeline, RefreshConfig, ServeConfig, ServingRepository};

/// Runs the refresh path (contribute past the threshold, `refresh_once`
/// with `warm_boost: 0`, i.e. a cold refit) and a direct cold
/// `CollaborativeRepository::fit` on identical rows, at 1 and 4
/// threads, and demands one set of prediction bits from all four runs.
#[test]
fn refresh_swapped_predictions_equal_a_cold_fit_at_any_thread_count() {
    let original = gdcm_par::threads();
    let mut per_run: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 4] {
        gdcm_par::set_threads(threads);

        // The refresh path: stream the extra rows through the pipeline,
        // then force the background refit + swap synchronously.
        let (repo, nets) = fitted_repository(41);
        let device = repo.device_names()[0].to_string();
        let serving = ServingRepository::new(repo, ServeConfig::default());
        let pipeline = IngestPipeline::new(
            &serving,
            RefreshConfig {
                refresh_rows: 4,
                warm_boost: 0,
                ..RefreshConfig::default()
            },
        );
        for (i, net) in nets.iter().take(4).enumerate() {
            pipeline.contribute(&device, net, 15.0 + i as f64).unwrap();
        }
        assert!(pipeline.refresh_once().unwrap());
        let swapped: Vec<u64> = nets
            .iter()
            .map(|n| {
                serving
                    .with_repository(|r| r.predict(&device, n))
                    .unwrap()
                    .to_bits()
            })
            .collect();
        per_run.push(swapped);

        // The reference: the same rows contributed directly, then a
        // plain cold fit.
        let (mut cold, nets) = fitted_repository(41);
        for (i, net) in nets.iter().take(4).enumerate() {
            cold.contribute(&device, net, 15.0 + i as f64).unwrap();
        }
        cold.fit().unwrap();
        let cold_bits: Vec<u64> = nets
            .iter()
            .map(|n| cold.predict(&device, n).unwrap().to_bits())
            .collect();
        per_run.push(cold_bits);
    }
    gdcm_par::set_threads(original);
    let first = &per_run[0];
    for (i, run) in per_run.iter().enumerate().skip(1) {
        assert_eq!(
            run, first,
            "run {i} diverged from the refresh-swapped bits at 1 thread \
             (order: swap@1, cold@1, swap@4, cold@4)"
        );
    }
}
