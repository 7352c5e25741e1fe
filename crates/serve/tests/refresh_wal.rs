//! Integration tests for the streaming-ingestion stack: the
//! epoch-guarded prediction cache (a model swap racing an in-flight
//! predict must never leave a stale cached answer), atomic snapshot
//! writes, write-ahead-log crash recovery, and the background-refresh
//! pipeline end to end.

mod common;

use common::{fitted_repository, Rng};
use gdcm_core::CollaborativeRepository;
use gdcm_serve::refresh::{QUIET_PERIOD, WAL_COMPACT_RECORDS};
use gdcm_serve::{
    load_repository, replay_record, save_repository, IngestPipeline, RefreshConfig, ServeConfig,
    ServeError, ServingRepository, WriteAheadLog,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdcm_refresh_tests_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The stale-insert race, forced deterministically: a model swap
/// (re-enroll) lands *between* an in-flight predict's compute and its
/// cache insert. Before the epoch guard the stale value was inserted
/// after the invalidation and served forever; with the guard the insert
/// is discarded and the next predict recomputes against the new model.
#[test]
fn mid_flight_model_swap_discards_the_stale_prediction() {
    let (repo, nets) = fitted_repository(31);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let pipeline = IngestPipeline::new(&serving, RefreshConfig::default());
    let device = serving.device_names()[0].clone();
    let sig_len = serving.with_repository(|r| r.signature_size());
    let new_sig: Vec<f64> = (0..sig_len).map(|i| 7.5 + i as f64).collect();

    let discarded_before = gdcm_obs::counter("serve/pred_cache_stale_discard").get();
    let stale = serving
        .predict_hooked(&device, &nets[0], || {
            // The racing writer: swaps the model (and clears the cache)
            // while the reader holds its computed-but-uncached value.
            pipeline.re_enroll(&device, &new_sig).unwrap();
        })
        .unwrap();
    let stats_after_race = serving.cache_stats();

    // The caller still gets the value it computed (it was correct when
    // computed), but it must NOT have been cached: the next predict is
    // a miss and answers the new model's bits, not the stale ones.
    let fresh = serving.predict(&device, &nets[0]).unwrap();
    let stats = serving.cache_stats();
    assert_eq!(
        stats.prediction_hits, stats_after_race.prediction_hits,
        "stale value was served from the cache after the model swap"
    );
    assert_eq!(
        stats.prediction_misses,
        stats_after_race.prediction_misses + 1
    );
    let uncached = serving
        .with_repository(|r| r.predict(&device, &nets[0]))
        .unwrap();
    assert_eq!(
        fresh.to_bits(),
        uncached.to_bits(),
        "post-swap predict does not match the new model"
    );
    assert_ne!(
        stale.to_bits(),
        fresh.to_bits(),
        "re-enroll should change this prediction; the race is not being exercised"
    );
    assert!(
        gdcm_obs::counter("serve/pred_cache_stale_discard").get() > discarded_before,
        "the discarded insert was not counted"
    );
}

/// Snapshot writes go through a fsynced temp sibling + rename: no
/// `.tmp` residue on success, and a torn (truncated) snapshot is
/// rejected cleanly on load instead of half-parsing.
#[test]
fn snapshot_save_is_atomic_and_truncation_is_rejected() {
    let (repo, _) = fitted_repository(33);
    let path = scratch_path("atomic.json");
    save_repository(&repo, &path).unwrap();

    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    assert!(
        !PathBuf::from(&tmp).exists(),
        "temp sibling left behind after a successful save"
    );
    assert!(load_repository(&path).is_ok());

    // A crash mid-write under the old direct-write scheme would leave
    // exactly this: a prefix of the snapshot. It must fail loudly.
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    match load_repository(&path) {
        Err(ServeError::Json(_)) => {}
        other => panic!("torn snapshot was not rejected as corrupt JSON: {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Kill-and-replay: every record acked before the "crash" survives into
/// the recovered repository; a partial trailing record (the append the
/// crash interrupted, never acked) is truncated away cleanly.
#[test]
fn acked_wal_records_survive_a_crash_and_replay() {
    let (repo, nets) = fitted_repository(34);
    let snapshot_path = scratch_path("crash_snapshot.json");
    let wal_path = scratch_path("crash.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let rows_before = repo.n_rows();
    let device = repo.device_names()[0].to_string();

    // A serving process acks three contributions through the pipeline...
    {
        let serving = ServingRepository::new(repo, ServeConfig::default());
        let (wal, records, _) = WriteAheadLog::open(&wal_path).unwrap();
        assert!(records.is_empty());
        let pipeline =
            IngestPipeline::with_wal(&serving, wal, &snapshot_path, RefreshConfig::default());
        for (i, net) in nets.iter().take(3).enumerate() {
            pipeline.contribute(&device, net, 10.0 + i as f64).unwrap();
        }
        assert_eq!(pipeline.wal_records(), 3);
    } // ...and dies without compacting.

    // The crash also tore the append that was in flight: chop a few
    // bytes off the tail so the last record is incomplete.
    let full = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &full[..full.len() - 5]).unwrap();

    // Next startup: snapshot + WAL replay. The two fully-acked records
    // are recovered; the torn one is dropped and the file healed.
    let mut recovered = load_repository(&snapshot_path).unwrap();
    let (wal, records, recovery) = WriteAheadLog::open(&wal_path).unwrap();
    assert_eq!(records.len(), 2, "expected exactly the intact records");
    assert!(recovery.truncated_bytes > 0);
    let mut applied = 0;
    for record in &records {
        if gdcm_serve::replay_record(&mut recovered, record) {
            applied += 1;
        }
    }
    assert_eq!(applied, 2);
    assert_eq!(recovered.n_rows(), rows_before + 2);
    drop(wal);
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// An unparsable `GDCM_SERVE_*` value falls back to the default and is
/// counted (and warned about via a structured event) instead of being
/// silently swallowed or crashing startup.
#[test]
fn unparsable_env_knob_warns_and_falls_back() {
    let before = gdcm_obs::counter("serve/config_env_invalid").get();
    std::env::set_var("GDCM_SERVE_REFRESH_ROWS", "a-few-hundred");
    let config = RefreshConfig::from_env();
    std::env::remove_var("GDCM_SERVE_REFRESH_ROWS");
    assert_eq!(config, RefreshConfig::default());
    assert_eq!(
        gdcm_obs::counter("serve/config_env_invalid").get(),
        before + 1,
        "an unparsable knob must be counted once"
    );
}

/// The `gdcm-serve` binary reads each cache knob once: one unparsable
/// value is one `config_warning`, counted once in its run report.
#[test]
fn serve_binary_counts_one_bad_cache_knob_once() {
    use gdcm_serve::{BinClient, Request, Response};
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let snapshot = scratch_path("knob_snapshot.json");
    save_repository(&fitted_repository(37).0, &snapshot).unwrap();
    let reports = scratch_path("knob_reports");
    // A cleared environment keeps knobs other tests set in-process out
    // of the child.
    let mut child = Command::new(env!("CARGO_BIN_EXE_gdcm-serve"))
        .arg("--snapshot")
        .arg(&snapshot)
        .args(["--addr", "127.0.0.1:0"])
        .env_clear()
        .env("GDCM_SERVE_PRED_CACHE", "lots")
        .env("GDCM_REPORT_DIR", &reports)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "exited before listening"
        );
        if let Some(addr) = line.trim().strip_prefix("LISTENING ") {
            break addr.to_string();
        }
    };
    let mut client =
        BinClient::connect_with_retry(addr.as_str(), std::time::Duration::from_secs(10)).unwrap();
    assert!(matches!(
        client.request(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    drop(client);
    assert!(child.wait().unwrap().success());

    let report = std::fs::read_to_string(reports.join("gdcm-serve.json")).unwrap();
    let report: gdcm_obs::RunReport = serde_json::from_str(&report).unwrap();
    std::fs::remove_file(&snapshot).ok();
    std::fs::remove_dir_all(&reports).ok();
    let invalid = report
        .counters
        .iter()
        .find(|(name, _)| name == "serve/config_env_invalid")
        .map(|(_, count)| *count);
    assert_eq!(invalid, Some(1), "one bad knob must warn exactly once");
}

/// A mutation the repository rejects must not leave a poison record in
/// the WAL: a restart replays only mutations that were actually applied.
/// (Regression: a single invalid client request used to persist a record
/// whose replay rejection aborted every subsequent startup.)
#[test]
fn rejected_mutation_leaves_no_record_in_the_wal() {
    let (repo, nets) = fitted_repository(36);
    let snapshot_path = scratch_path("rollback_snapshot.json");
    let wal_path = scratch_path("rollback.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let device = repo.device_names()[0].to_string();

    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
    let pipeline =
        IngestPipeline::with_wal(&serving, wal, &snapshot_path, RefreshConfig::default());

    // One valid contribution, then two the repository rejects.
    pipeline.contribute(&device, &nets[0], 10.0).unwrap();
    assert!(matches!(
        pipeline.contribute("not-a-device", &nets[0], 10.0),
        Err(ServeError::Repository(_))
    ));
    assert!(matches!(
        pipeline.contribute(&device, &nets[0], f64::NAN),
        Err(ServeError::Repository(_))
    ));
    assert_eq!(
        pipeline.wal_records(),
        1,
        "rejected mutations must not stay in the log"
    );

    // A restart sees only the applied record, and the file is
    // byte-exact: recovery truncates nothing.
    drop(pipeline);
    let (_, records, recovery) = WriteAheadLog::open(&wal_path).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(recovery.truncated_bytes, 0);
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// Replay tolerates *any* record the repository refuses — skip and
/// warn, never error — so a stray durable record (e.g. an `Onboard`
/// logged again across a compaction crash) can never prevent the server
/// from starting.
#[test]
fn replay_skips_rejected_records_instead_of_failing() {
    let (mut repo, nets) = fitted_repository(37);
    let device = repo.device_names()[0].to_string();
    let skipped_before = gdcm_obs::counter("serve/wal_replay_skipped").get();

    let records = [
        // Rejected: contribution for a device the snapshot never held.
        gdcm_serve::WalRecord::Contribute {
            device: "ghost-device".into(),
            network: nets[0].clone(),
            latency_ms: 12.0,
        },
        // Rejected: re-enroll of an unknown device.
        gdcm_serve::WalRecord::ReEnroll {
            device: "ghost-device".into(),
            signature_ms: vec![1.0; repo.signature_size()],
        },
        // Rejected: wrong signature length.
        gdcm_serve::WalRecord::Onboard {
            device: "short-sig".into(),
            signature_ms: vec![1.0],
        },
        // Applied: a valid contribution after all the rejects.
        gdcm_serve::WalRecord::Contribute {
            device: device.clone(),
            network: nets[0].clone(),
            latency_ms: 12.0,
        },
    ];
    let rows_before = repo.n_rows();
    let applied: Vec<bool> = records
        .iter()
        .map(|r| gdcm_serve::replay_record(&mut repo, r))
        .collect();
    assert_eq!(applied, [false, false, false, true]);
    assert_eq!(repo.n_rows(), rows_before + 1);
    assert_eq!(
        gdcm_obs::counter("serve/wal_replay_skipped").get(),
        skipped_before + 3,
        "each skipped record must be counted"
    );
}

/// Live ingest and replay apply the same mutations. Seeded histories of
/// contributions, onboardings and re-enrollments, about a quarter of
/// them invalid, go through a WAL-backed pipeline started from a saved
/// snapshot: each call is accepted exactly when it is valid, every
/// logged record replays onto the snapshot, and the replayed repository
/// equals the live one part for part. This is the agreement between the
/// pipeline's check and its apply that logging only checked mutations
/// rests on.
#[test]
fn replay_rebuilds_the_repository_live_ingest_built() {
    let (repo, nets) = fitted_repository(43);
    let snapshot_path = scratch_path("histories_snapshot.json");
    let wal_path = scratch_path("histories.wal");
    save_repository(&repo, &snapshot_path).unwrap();
    let sig_len = repo.signature_size();
    let enrolled: Vec<String> = repo.device_names().iter().map(|d| d.to_string()).collect();
    let bad_latencies = [f64::NAN, f64::INFINITY, 0.0, -2.0, 1e39];

    for seed in 0..40 {
        let mut rng = Rng(seed);
        std::fs::remove_file(&wal_path).ok();
        let serving = ServingRepository::new(
            load_repository(&snapshot_path).unwrap(),
            ServeConfig::default(),
        );
        let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
        let pipeline =
            IngestPipeline::with_wal(&serving, wal, &snapshot_path, RefreshConfig::default());
        let mut devices = enrolled.clone();
        let mut accepted = 0;
        for step in 0..20 + rng.below(21) {
            let invalid = rng.below(4) == 0;
            let known = devices[rng.below(devices.len())].clone();
            let mut sig: Vec<f64> = (0..sig_len).map(|_| 4.0 * rng.jitter()).collect();
            if invalid && rng.below(2) == 0 {
                sig.truncate(rng.below(sig_len));
            } else if invalid {
                sig[rng.below(sig_len)] = bad_latencies[rng.below(bad_latencies.len())];
            }
            let result = match rng.below(4) {
                0 => {
                    let name = if invalid && rng.below(3) == 0 {
                        known
                    } else {
                        format!("device-{seed}-{step}")
                    };
                    let result = pipeline.onboard_device(&name, &sig);
                    if result.is_ok() {
                        devices.push(name);
                    }
                    result
                }
                1 => {
                    let name = if invalid && rng.below(3) == 0 {
                        "ghost".to_string()
                    } else {
                        known
                    };
                    pipeline.re_enroll(&name, &sig)
                }
                _ => {
                    let (name, latency_ms) = match (invalid, rng.below(2)) {
                        (false, _) => (known, 10.0 * rng.jitter()),
                        (true, 0) => ("ghost".to_string(), 10.0),
                        (true, _) => (known, bad_latencies[rng.below(bad_latencies.len())]),
                    };
                    pipeline.contribute(&name, &nets[rng.below(nets.len())], latency_ms)
                }
            };
            assert_eq!(
                result.is_ok(),
                !invalid,
                "seed {seed} step {step}: {result:?}"
            );
            accepted += u64::from(!invalid);
        }
        assert_eq!(pipeline.wal_records(), accepted, "seed {seed}");
        let live = serving.with_repository(|r| r.to_parts());
        drop(pipeline);

        let mut replayed = load_repository(&snapshot_path).unwrap();
        let (_, records, recovery) = WriteAheadLog::open(&wal_path).unwrap();
        assert_eq!(recovery.truncated_bytes, 0, "seed {seed}");
        for (i, record) in records.iter().enumerate() {
            assert!(
                replay_record(&mut replayed, record),
                "seed {seed}: record {i} did not replay"
            );
        }
        assert!(replayed.to_parts() == live, "seed {seed}: replay diverged");
    }
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// Records recovered from the WAL at startup seed the refresh backlog,
/// so a crash backlog is compacted by the next refresh instead of being
/// replayed on every start until fresh contributions arrive.
#[test]
fn recovered_wal_records_seed_the_refresh_backlog() {
    let (repo, nets) = fitted_repository(38);
    let snapshot_path = scratch_path("seed_snapshot.json");
    let wal_path = scratch_path("seed.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let device = repo.device_names()[0].to_string();

    // First process acks three contributions and dies uncompacted.
    {
        let serving = ServingRepository::new(repo.clone(), ServeConfig::default());
        let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
        let pipeline = IngestPipeline::with_wal(
            &serving,
            wal,
            &snapshot_path,
            RefreshConfig { refresh_rows: 100 },
        );
        for (i, net) in nets.iter().take(3).enumerate() {
            pipeline.contribute(&device, net, 10.0 + i as f64).unwrap();
        }
    }

    // Second process: the recovered backlog counts toward the refresh
    // threshold immediately.
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, records, _) = WriteAheadLog::open(&wal_path).unwrap();
    assert_eq!(records.len(), 3);
    let pipeline = IngestPipeline::with_wal(
        &serving,
        wal,
        &snapshot_path,
        RefreshConfig { refresh_rows: 100 },
    );
    assert_eq!(
        pipeline.pending_rows(),
        3,
        "crash backlog must seed the refresh threshold"
    );
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// With the contribution threshold disabled, the WAL must still be
/// bounded: the mutation that brings the log to the record cap (the
/// backstop) compacts it in place — no refresher thread and no refit,
/// because a snapshot records the rows its model's grid was cut from and
/// loads with rows contributed after them.
#[test]
fn wal_compacts_via_backstop_without_contribution_threshold() {
    let (repo, nets) = fitted_repository(39);
    let snapshot_path = scratch_path("backstop_snapshot.json");
    let wal_path = scratch_path("backstop.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let rows_before = repo.n_rows();
    let device = repo.device_names()[0].to_string();

    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
    let pipeline = IngestPipeline::with_wal(
        &serving,
        wal,
        &snapshot_path,
        RefreshConfig { refresh_rows: 0 }, // contribution threshold disabled
    );
    assert!(!pipeline.refresh_enabled() && !pipeline.refresh_due());
    let served: Vec<u64> = nets
        .iter()
        .map(|net| serving.predict(&device, net).unwrap().to_bits())
        .collect();

    let cap = WAL_COMPACT_RECORDS as usize;
    let mut contribute = |i: usize| {
        let net = &nets[i % nets.len()];
        pipeline.contribute(&device, net, 20.0 + i as f64).unwrap();
    };
    (0..cap - 1).for_each(&mut contribute);
    assert_eq!(pipeline.wal_records(), WAL_COMPACT_RECORDS - 1);
    contribute(cap - 1);
    assert_eq!(
        pipeline.wal_records(),
        0,
        "reaching the record cap must compact the log"
    );
    assert_eq!(
        (pipeline.refreshes(), pipeline.refreshes_rejected()),
        (0, 0),
        "the cap compacts without a refit"
    );
    assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), 0);
    // The compaction snapshot carries every contributed row and loads
    // through the audit gate with the model that was serving, so a
    // restart needs no replay at all.
    let reloaded = load_repository(&snapshot_path).unwrap();
    assert_eq!(reloaded.n_rows(), rows_before + cap);
    assert_eq!(reloaded.grid_rows(), rows_before);
    for (net, served) in nets.iter().zip(served) {
        assert_eq!(reloaded.predict(&device, net).unwrap().to_bits(), served);
    }
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// An on-demand fit through the pipeline is made durable by compaction:
/// the WAL records rows, not models, so the pipeline re-snapshots after
/// the fit and a crash-restart serves the fitted model's exact bits.
#[test]
fn pipeline_fit_compacts_so_the_model_survives_a_restart() {
    let (repo, nets) = fitted_repository(40);
    let snapshot_path = scratch_path("fit_snapshot.json");
    let wal_path = scratch_path("fit.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let device = repo.device_names()[0].to_string();

    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
    let pipeline =
        IngestPipeline::with_wal(&serving, wal, &snapshot_path, RefreshConfig::default());
    for (i, net) in nets.iter().take(3).enumerate() {
        pipeline.contribute(&device, net, 17.0 + i as f64).unwrap();
    }
    pipeline.fit().unwrap();
    assert_eq!(
        pipeline.wal_records(),
        0,
        "fit must compact the log into the snapshot"
    );

    // Crash here: the reloaded snapshot alone reproduces the acked
    // fit's predictions bit for bit.
    let reloaded = load_repository(&snapshot_path).unwrap();
    for net in &nets {
        let live = serving
            .with_repository(|r| r.predict(&device, net))
            .unwrap();
        assert_eq!(
            live.to_bits(),
            reloaded.predict(&device, net).unwrap().to_bits()
        );
    }
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// The pipeline end to end: contributions cross the threshold, one
/// `refresh_once` fits + audits + swaps a new model (bumping the
/// epoch), and compaction folds the WAL into a fresh snapshot that
/// reloads with the new rows.
#[test]
fn refresh_swaps_a_new_model_and_compacts_the_wal() {
    let (repo, nets) = fitted_repository(35);
    let snapshot_path = scratch_path("refresh_snapshot.json");
    let wal_path = scratch_path("refresh.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let rows_before = repo.n_rows();
    let device = repo.device_names()[0].to_string();

    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
    let pipeline = IngestPipeline::with_wal(
        &serving,
        wal,
        &snapshot_path,
        RefreshConfig { refresh_rows: 4 },
    );
    let epoch_before = serving.model_epoch();

    for (i, net) in nets.iter().take(4).enumerate() {
        pipeline.contribute(&device, net, 20.0 + i as f64).unwrap();
    }
    assert_eq!(pipeline.pending_rows(), 4);
    assert_eq!(pipeline.wal_records(), 4);

    assert!(pipeline.refresh_once().unwrap());
    assert_eq!(pipeline.refreshes(), 1);
    assert_eq!(pipeline.pending_rows(), 0);
    assert_eq!(pipeline.wal_records(), 0, "WAL must compact after a swap");
    assert!(
        serving.model_epoch() > epoch_before,
        "a swapped refresh must advance the model epoch"
    );

    // The compacted snapshot alone (no WAL replay) carries all the
    // contributed rows and serves the refreshed model's exact bits.
    let reloaded = load_repository(&snapshot_path).unwrap();
    assert_eq!(reloaded.n_rows(), rows_before + 4);
    for net in &nets {
        let live = serving
            .with_repository(|r| r.predict(&device, net))
            .unwrap();
        let reread = reloaded.predict(&device, net).unwrap();
        assert_eq!(live.to_bits(), reread.to_bits());
    }
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// Polls `done` until it holds, failing after `within`.
fn wait_for(what: &str, within: Duration, done: impl Fn() -> bool) {
    let deadline = Instant::now() + within;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Contributions that land after a refresh's compaction sit below the
/// threshold. Once none has arrived for the quiet period, the running
/// refresher trains on them and compacts the log: the WAL drains and
/// nothing stays pending, and the snapshot alone serves the new bits.
#[test]
fn quiet_period_drains_contributions_left_below_the_threshold() {
    let (repo, nets) = fitted_repository(42);
    let snapshot_path = scratch_path("quiet_snapshot.json");
    let wal_path = scratch_path("quiet.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let rows_before = repo.n_rows();
    let device = repo.device_names()[0].to_string();

    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
    let pipeline = IngestPipeline::with_wal(
        &serving,
        wal,
        &snapshot_path,
        RefreshConfig { refresh_rows: 4 },
    );
    let within = QUIET_PERIOD * 30;
    std::thread::scope(|scope| {
        let refresher = scope.spawn(|| pipeline.run());
        for (i, net) in nets.iter().take(4).enumerate() {
            pipeline.contribute(&device, net, 20.0 + i as f64).unwrap();
        }
        wait_for("the threshold cycle and its compaction", within, || {
            pipeline.refreshes() == 1 && pipeline.wal_records() == 0
        });

        // Two rows after the compaction: below the threshold of four.
        for (i, net) in nets.iter().skip(4).take(2).enumerate() {
            pipeline.contribute(&device, net, 30.0 + i as f64).unwrap();
        }
        assert!(!pipeline.refresh_due());
        wait_for("the quiet-period cycle", within, || {
            pipeline.refreshes() == 2 && pipeline.wal_records() == 0 && pipeline.pending_rows() == 0
        });
        pipeline.stop();
        refresher.thread().unpark();
        refresher.join().unwrap();
    });
    assert_eq!(pipeline.refreshes_rejected(), 0);

    // The drained rows are trained on and folded into the snapshot.
    let reloaded = load_repository(&snapshot_path).unwrap();
    assert_eq!(reloaded.n_rows(), rows_before + 6);
    assert_eq!(reloaded.grid_rows(), rows_before + 6);
    for net in &nets {
        let live = serving
            .with_repository(|r| r.predict(&device, net))
            .unwrap();
        assert_eq!(
            live.to_bits(),
            reloaded.predict(&device, net).unwrap().to_bits()
        );
    }
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// A repository below `min_rows` cannot fit. With the threshold crossed
/// the running refresher waits a poll between attempts, rather than
/// copying the training set again in a hot loop (about a dozen attempts
/// in 300 ms, where a loop without the wait makes thousands).
#[test]
fn refresher_below_min_rows_waits_between_attempts() {
    let (repo, nets) = fitted_repository(44);
    let device = repo.device_names()[0].to_string();
    let mut parts = repo.to_parts();
    parts.config.min_rows = 10_000;
    let repo = CollaborativeRepository::from_parts(parts).unwrap();
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let pipeline = IngestPipeline::new(&serving, RefreshConfig { refresh_rows: 1 });
    pipeline.contribute(&device, &nets[0], 20.0).unwrap();
    assert!(pipeline.refresh_due());

    let attempts = || gdcm_obs::span::stats("serve/refresh").map_or(0, |s| s.count);
    let before = attempts();
    std::thread::scope(|scope| {
        let refresher = scope.spawn(|| pipeline.run());
        std::thread::sleep(Duration::from_millis(300));
        pipeline.stop();
        refresher.thread().unpark();
        refresher.join().unwrap();
    });
    // Other tests in this binary refresh a few times meanwhile.
    let made = attempts() - before;
    assert!(made <= 40, "{made} refresh attempts in 300 ms");
    assert_eq!((pipeline.refreshes(), pipeline.pending_rows()), (0, 1));
}
