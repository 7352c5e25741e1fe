//! The audited snapshot load reads the rows its model's grid was cut
//! from as column blocks, and times itself stage by stage.
//!
//! Both tests load snapshots, and span totals are process-wide, so they
//! take turns through `LOADS`: a load in flight in one test would
//! otherwise record a stage before its parent in the other's reading.

mod common;

use std::path::PathBuf;
use std::sync::Mutex;

use common::fitted_repository;
use gdcm_audit::{CutGrid, TrainingGrid};
use gdcm_gen::{benchmark_suite_with, SearchSpace};
use gdcm_ml::BinnedMatrix;
use gdcm_serve::{load_repository, save_repository};

static LOADS: Mutex<()> = Mutex::new(());

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdcm_snapshot_audit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn bits(cuts: &[f32]) -> Vec<u32> {
    cuts.iter().map(|c| c.to_bits()).collect()
}

/// `gdcm-serve.json` splits a load into its stages: each stage's path
/// is recorded, and no stage's total exceeds its parent's.
#[test]
fn a_load_times_each_stage_inside_its_parent() {
    let _turn = LOADS.lock().unwrap_or_else(|e| e.into_inner());
    let (repo, _) = fitted_repository(7);
    let path = scratch_path("stages.json");
    save_repository(&repo, &path).unwrap();
    load_repository(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let spans = gdcm_obs::span::snapshot();
    let total = |path: &str| {
        spans
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, stats)| stats.total_ms)
            .unwrap_or_else(|| panic!("no span {path} in {spans:?}"))
    };
    let load = "serve/snapshot_load";
    let audit = format!("{load}/serve/snapshot_audit");
    let model = format!("{audit}/audit/model");
    let stages = [
        (load.to_string(), format!("{load}/serve/snapshot_parse")),
        (load.to_string(), format!("{load}/serve/snapshot_parts")),
        (load.to_string(), audit.clone()),
        (audit.clone(), model.clone()),
        (audit.clone(), format!("{audit}/audit/flatcheck")),
        (model.clone(), format!("{model}/audit/grid")),
        (model.clone(), format!("{model}/audit/dataset")),
    ];
    for (parent, child) in &stages {
        assert!(
            total(child) <= total(parent),
            "{child} took {} ms, more than its parent's {} ms",
            total(child),
            total(parent)
        );
    }
}

/// A snapshot saved after a new device and a new network arrive past
/// the grid's rows loads, and the audit cuts its grid from the first
/// *g* rows only: the late encoding and device take part in nothing,
/// and the cuts equal `from_matrix` on those rows expanded, and the
/// served model's own grid, bit for bit.
#[test]
fn rows_after_the_grid_take_no_part_in_its_audit() {
    let _turn = LOADS.lock().unwrap_or_else(|e| e.into_inner());
    let (mut repo, _) = fitted_repository(11);
    let g = repo.grid_rows();
    assert_eq!(g, repo.n_rows());
    // The newcomer's signature is below every enrolled one, so every
    // signature column gets a new minimum.
    let width = repo.signature_size();
    repo.onboard_device("late-device", &vec![1e-3; width])
        .unwrap();
    let fresh = benchmark_suite_with(4343, SearchSpace::tiny(), 3);
    for (i, net) in fresh.iter().enumerate() {
        repo.contribute("late-device", &net.network, 2.0 + i as f64)
            .unwrap();
    }
    assert_eq!(repo.grid_rows(), g);

    let path = scratch_path("late_rows.json");
    save_repository(&repo, &path).unwrap();
    let loaded = load_repository(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!((loaded.n_rows(), loaded.grid_rows()), (repo.n_rows(), g));

    let train = loaded.training_set();
    let max_bins = loaded.config().gbdt.max_bins;
    let rebuilt = TrainingGrid::rebuild(&train.prefix_factored(g), max_bins);
    let expanded = BinnedMatrix::from_matrix(&train.prefix_matrix(g), max_bins);
    let every_row = TrainingGrid::rebuild(&train.factored(), max_bins);
    let served = loaded.frozen_model().unwrap().cut_grid();
    assert_eq!(rebuilt.n_features(), expanded.n_features());
    assert_eq!(served.len(), expanded.n_features());
    let mut moved = 0;
    for (f, served) in served.iter().enumerate() {
        assert_eq!(bits(rebuilt.cuts(f)), bits(expanded.cuts(f)), "feature {f}");
        assert_eq!(
            rebuilt.is_constant(f),
            expanded.is_constant(f),
            "feature {f}"
        );
        assert_eq!(bits(rebuilt.cuts(f)), bits(served), "feature {f}");
        moved += usize::from(bits(every_row.cuts(f)) != bits(rebuilt.cuts(f)));
    }
    assert!(moved > 0, "the late rows must move the grid of every row");
}
