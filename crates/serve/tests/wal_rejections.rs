//! A mutation the repository refuses never reaches the disk: the
//! pipeline checks it before it appends, so the log's bytes and its
//! append count stay as they were. Alone in its test binary because it
//! reads the process-global `serve/wal_appends` counter.

mod common;

use common::fitted_repository;
use gdcm_serve::protocol::codes;
use gdcm_serve::{
    save_repository, IngestPipeline, RefreshConfig, ServeConfig, ServeError, ServingRepository,
    WriteAheadLog,
};

fn code(result: Result<(), ServeError>) -> &'static str {
    result
        .expect_err("the repository should refuse this")
        .code()
}

#[test]
fn a_refused_mutation_is_never_appended() {
    let (repo, nets) = fitted_repository(42);
    let dir = std::env::temp_dir().join(format!("gdcm_wal_rejections_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot_path = dir.join("snapshot.json");
    let wal_path = dir.join("rejections.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let device = repo.device_names()[0].to_string();
    let sig_len = repo.signature_size();
    let valid_sig = vec![3.0; sig_len];
    let mut bad_sig = valid_sig.clone();
    bad_sig[sig_len - 1] = 0.0;

    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
    let pipeline =
        IngestPipeline::with_wal(&serving, wal, &snapshot_path, RefreshConfig::default());
    let appends = gdcm_obs::counter("serve/wal_appends");
    let appends_before = appends.get();

    pipeline.contribute(&device, &nets[0], 10.0).unwrap();
    let bytes = std::fs::read(&wal_path).unwrap();
    let refusals = [
        (
            pipeline.contribute("not-a-device", &nets[0], 10.0),
            codes::UNKNOWN_DEVICE,
        ),
        (
            pipeline.contribute(&device, &nets[0], f64::NAN),
            codes::INVALID_LATENCY,
        ),
        (
            pipeline.onboard_device(&device, &valid_sig),
            codes::ALREADY_ENROLLED,
        ),
        (
            pipeline.onboard_device("newcomer", &valid_sig[1..]),
            codes::SIGNATURE_LENGTH,
        ),
        (
            pipeline.re_enroll("not-a-device", &valid_sig),
            codes::UNKNOWN_DEVICE,
        ),
        (
            pipeline.re_enroll(&device, &bad_sig),
            codes::INVALID_LATENCY,
        ),
    ];
    for (i, (result, want)) in refusals.into_iter().enumerate() {
        assert_eq!(code(result), want, "refusal {i}");
    }
    assert_eq!(
        std::fs::read(&wal_path).unwrap(),
        bytes,
        "a refused mutation changed the log"
    );
    pipeline.contribute(&device, &nets[1], 11.0).unwrap();

    assert_eq!(
        appends.get() - appends_before,
        2,
        "only the two accepted contributions may be appended"
    );
    assert_eq!(pipeline.wal_records(), 2);
    drop(pipeline);
    let (_, records, recovery) = WriteAheadLog::open(&wal_path).unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(recovery.truncated_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}
