//! A snapshot records how many leading rows its model's bin grid was cut
//! from, so one saved at any point after a fit loads: rows contributed
//! since are not the grid's concern. The one state that cannot be saved
//! is a stale grid — a device re-enrolled since the cut — and the save
//! refuses it rather than write a file the loader would reject.

mod common;

use common::{fitted_repository, Rng};
use gdcm_core::{
    CollaborativeRepository, CostDataset, EncoderConfig, NetworkEncoder, RepositoryConfig,
    RepositoryError, TrainingSet,
};
use gdcm_gen::{benchmark_suite_with, SearchSpace};
use gdcm_ml::{BinnedMatrix, FrozenGbdt, GbdtParams, GbdtRegressor};
use gdcm_serve::refresh::WAL_COMPACT_RECORDS;
use gdcm_serve::{
    load_repository, save_repository, IngestPipeline, RefreshConfig, RepositorySnapshot,
    ServeConfig, ServeError, ServingRepository, WriteAheadLog,
};
use std::path::PathBuf;

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdcm_grid_tests_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A cold fit and freeze on a copy of the training set, as the
/// background refresh runs it off the lock.
fn refit(train: &TrainingSet, gbdt: &GbdtParams) -> (GbdtRegressor, FrozenGbdt) {
    let (model, grid) = GbdtRegressor::fit_with_grid(&train.matrix(), train.labels(), gbdt);
    let frozen = FrozenGbdt::freeze(&model, &grid).unwrap();
    (model, frozen)
}

/// Whether the grid rebuilt from every row differs from the one the
/// model was cut on — the case a loader that audits all rows refuses.
fn cuts_moved(repo: &CollaborativeRepository) -> bool {
    let train = repo.training_set();
    let max_bins = repo.config().gbdt.max_bins;
    let all = BinnedMatrix::from_matrix(&train.matrix(), max_bins);
    let cut = BinnedMatrix::from_matrix(&train.prefix_matrix(repo.grid_rows()), max_bins);
    (0..all.n_features()).any(|f| all.cuts(f) != cut.cuts(f))
}

/// Every enrolled device's prediction bits for every network.
fn prediction_bits(
    repo: &CollaborativeRepository,
    nets: &[gdcm_dnn::Network],
) -> Vec<(String, u64)> {
    repo.device_names()
        .into_iter()
        .flat_map(|device| {
            nets.iter().map(move |net| {
                let bits = repo.predict(device, net).unwrap().to_bits();
                (device.to_string(), bits)
            })
        })
        .collect()
}

/// Rows contributed after a fit move the bin grid, and the snapshot
/// still loads with the served model's bits: the loader audits the model
/// on the rows its grid was cut from. (A loader that rebuilt the grid
/// from every stored row refused this snapshot with GDCM148.)
#[test]
fn contributions_after_a_fit_save_and_load_with_the_same_bits() {
    let (mut repo, nets) = fitted_repository(42);
    let fitted_rows = repo.n_rows();
    let device = repo.device_names()[0].to_string();
    let fresh = benchmark_suite_with(4242, SearchSpace::tiny(), 6);
    for (i, net) in fresh.iter().enumerate() {
        repo.contribute(&device, &net.network, 15.0 + i as f64)
            .unwrap();
    }
    assert!(cuts_moved(&repo), "the contributions must move the grid");
    assert_eq!(repo.grid_rows(), fitted_rows);

    let path = scratch_path("after_fit.json");
    save_repository(&repo, &path).unwrap();
    let loaded = load_repository(&path).unwrap();
    assert_eq!(loaded.n_rows(), repo.n_rows());
    assert_eq!(loaded.grid_rows(), fitted_rows);
    let all: Vec<_> = nets
        .iter()
        .cloned()
        .chain(fresh.into_iter().map(|n| n.network))
        .collect();
    assert_eq!(prediction_bits(&loaded, &all), prediction_bits(&repo, &all));
    std::fs::remove_file(&path).ok();
}

/// A re-enroll that lands between the refresher's copy of the training
/// set and its install leaves a model whose grid was cut on the old
/// signature. Saving that state would write a snapshot the loader
/// refuses, and a server that then truncated its WAL could not start.
/// The grid is marked stale instead: the save is refused, compaction
/// skips (counted) and keeps the log, and the next refresh is cold, after
/// which the snapshot loads and predicts the bits being served.
#[test]
fn re_enroll_during_a_refresh_defers_compaction_to_a_cold_refresh() {
    let (repo, nets) = fitted_repository(43);
    let snapshot_path = scratch_path("race_snapshot.json");
    let wal_path = scratch_path("race.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let gbdt = repo.config().gbdt;
    let device = repo.device_names()[0].to_string();
    let scaled: Vec<f64> = repo
        .device_signature(&device)
        .unwrap()
        .iter()
        .map(|&v| f64::from(v) * 1.1)
        .collect();

    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
    let pipeline = IngestPipeline::with_wal(
        &serving,
        wal,
        &snapshot_path,
        RefreshConfig { refresh_rows: 1 },
    );

    // The refresher copies the rows; a re-enroll lands; the refresher
    // fits on its copy and installs.
    let copy = serving.with_repository(|r| r.training_set().clone());
    pipeline.re_enroll(&device, &scaled).unwrap();
    let (model, frozen) = refit(&copy, &gbdt);
    serving.install_refit_on(model, frozen, &copy).unwrap();
    assert!(serving.with_repository(CollaborativeRepository::grid_is_stale));

    // Written anyway, that state is refused at load.
    let stale_path = scratch_path("race_stale.json");
    let stale = serving.with_repository(RepositorySnapshot::capture);
    std::fs::write(&stale_path, serde_json::to_string(&stale).unwrap()).unwrap();
    assert!(matches!(
        load_repository(&stale_path),
        Err(ServeError::AuditRejected { .. })
    ));
    std::fs::remove_file(&stale_path).ok();
    // So the save refuses it and writes nothing.
    assert!(matches!(
        serving.save_snapshot(&stale_path),
        Err(ServeError::Repository(RepositoryError::StaleGrid))
    ));
    assert!(!stale_path.exists());

    // Compaction at the record cap skips, counts the skip, and keeps
    // every record.
    let deferred = gdcm_obs::counter("serve/compactions_deferred").get();
    let cap = WAL_COMPACT_RECORDS as usize;
    for i in 1..cap {
        let net = &nets[i % nets.len()];
        pipeline.contribute(&device, net, 20.0 + i as f64).unwrap();
    }
    assert_eq!(pipeline.wal_records(), WAL_COMPACT_RECORDS);
    assert!(gdcm_obs::counter("serve/compactions_deferred").get() > deferred);

    // The next refresh is cold: it serves exactly what a fit on the
    // current rows serves, and folds the whole log into a snapshot that
    // loads with those bits.
    assert!(pipeline.refresh_once().unwrap());
    assert!(!serving.with_repository(CollaborativeRepository::grid_is_stale));
    assert_eq!(pipeline.wal_records(), 0);
    let mut cold = serving.with_repository(CollaborativeRepository::clone);
    cold.fit().unwrap();
    let served = serving.with_repository(|r| prediction_bits(r, &nets));
    assert_eq!(served, prediction_bits(&cold, &nets));
    let reloaded = load_repository(&snapshot_path).unwrap();
    assert_eq!(reloaded.n_rows(), serving.n_rows());
    assert_eq!(prediction_bits(&reloaded, &nets), served);
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

const HISTORIES: u64 = 120;
const SIGNATURE: [usize; 3] = [0, 1, 2];
const MIN_ROWS: usize = 6;

/// What the histories saw, for the coverage checks.
#[derive(Default)]
struct Tally {
    loaded: usize,
    loaded_after_moved_cuts: usize,
    refused_stale: usize,
    installs_from_old_copies: usize,
}

/// Saves the serving state: a stale grid must be refused, and anything
/// written must load and predict the served bits on every device.
fn check_save(
    serving: &ServingRepository,
    probes: &[gdcm_dnn::Network],
    path: &std::path::Path,
    tally: &mut Tally,
    at: &str,
) {
    match serving.save_snapshot(path) {
        Err(ServeError::Repository(RepositoryError::StaleGrid)) => {
            assert!(serving.with_repository(CollaborativeRepository::grid_is_stale));
            tally.refused_stale += 1;
        }
        Ok(()) => {
            let loaded =
                load_repository(path).unwrap_or_else(|e| panic!("{at}: saved but not loaded: {e}"));
            let served = serving.with_repository(|r| prediction_bits(r, probes));
            assert_eq!(prediction_bits(&loaded, probes), served, "{at}");
            tally.loaded += 1;
            if serving.with_repository(cuts_moved) {
                tally.loaded_after_moved_cuts += 1;
            }
        }
        Err(e) => panic!("{at}: save failed: {e}"),
    }
}

/// One seeded history of onboard / contribute / re-enroll / fit / copy
/// the rows / install a refit fitted on an earlier copy, with a save
/// after every step once the repository is fitted.
fn run_history(
    data: &CostDataset,
    encoder: &NetworkEncoder,
    seed: u64,
    path: &std::path::Path,
    tally: &mut Tally,
) {
    let mut rng = Rng(seed);
    let gbdt = GbdtParams {
        n_estimators: 3,
        max_depth: 2,
        max_bins: 8,
        ..GbdtParams::default()
    };
    let repo = CollaborativeRepository::new(
        encoder.clone(),
        SIGNATURE.len(),
        RepositoryConfig {
            gbdt,
            min_rows: MIN_ROWS,
        },
    );
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let pipeline = IngestPipeline::new(&serving, RefreshConfig::default());
    let open: Vec<usize> = (SIGNATURE.len()..data.n_networks()).collect();
    let probes: Vec<_> = open
        .iter()
        .take(4)
        .map(|&n| data.suite[n].network.clone())
        .collect();
    let signature = |rng: &mut Rng, d: usize| -> Vec<f64> {
        let factor = rng.jitter();
        SIGNATURE
            .iter()
            .map(|&n| data.db.latency(d, n) * factor)
            .collect()
    };
    let mut enrolled: Vec<usize> = Vec::new();
    let mut copies: Vec<TrainingSet> = Vec::new();
    for step in 0..10 + rng.below(30) {
        match rng.below(20) {
            0..=2 if enrolled.len() < data.n_devices() => {
                let d = enrolled.len();
                let sig = signature(&mut rng, d);
                pipeline
                    .onboard_device(&data.devices[d].model, &sig)
                    .unwrap();
                enrolled.push(d);
            }
            3..=4 if !enrolled.is_empty() => {
                let d = enrolled[rng.below(enrolled.len())];
                let sig = signature(&mut rng, d);
                pipeline.re_enroll(&data.devices[d].model, &sig).unwrap();
            }
            5..=7 if serving.n_rows() >= MIN_ROWS => serving.fit().unwrap(),
            8..=9 => copies.push(serving.with_repository(|r| r.training_set().clone())),
            10..=12 if !copies.is_empty() => {
                let copy = &copies[rng.below(copies.len())];
                if copy.n_rows() >= MIN_ROWS {
                    let (model, frozen) = refit(copy, &gbdt);
                    serving.install_refit_on(model, frozen, copy).unwrap();
                    tally.installs_from_old_copies += usize::from(copy.n_rows() < serving.n_rows());
                }
            }
            _ if !enrolled.is_empty() => {
                for _ in 0..1 + rng.below(4) {
                    let d = enrolled[rng.below(enrolled.len())];
                    let n = open[rng.below(open.len())];
                    let ms = data.db.latency(d, n) * rng.jitter();
                    pipeline
                        .contribute(&data.devices[d].model, &data.suite[n].network, ms)
                        .unwrap();
                }
            }
            _ => {}
        }
        if serving.is_fitted() {
            check_save(
                &serving,
                &probes,
                path,
                tally,
                &format!("seed {seed} step {step}"),
            );
        }
    }
}

#[test]
fn every_snapshot_save_writes_loads_and_predicts_the_served_bits() {
    let data = CostDataset::tiny(29, 8, 12);
    // Eight layer slots keep the rows narrow, so a save and an audited
    // load take little time.
    let encoder = NetworkEncoder::fit(
        data.suite.iter().map(|n| &n.network),
        EncoderConfig {
            max_layers: 8,
            ..EncoderConfig::default()
        },
    );
    let path = scratch_path("history.json");
    let mut tally = Tally::default();
    for seed in 0..HISTORIES {
        run_history(&data, &encoder, seed, &path, &mut tally);
    }
    std::fs::remove_file(&path).ok();
    // Coverage: the histories moved the grid under saved snapshots,
    // installed models fitted on older copies, and hit stale grids.
    assert!(tally.loaded > 400, "only {} saves loaded", tally.loaded);
    assert!(
        tally.loaded_after_moved_cuts > 200,
        "only {} loaded snapshots had moved cuts",
        tally.loaded_after_moved_cuts
    );
    assert!(
        tally.installs_from_old_copies > 30,
        "only {} installs from older copies",
        tally.installs_from_old_copies
    );
    assert!(
        tally.refused_stale > 150,
        "only {} stale grids were refused",
        tally.refused_stale
    );
}
