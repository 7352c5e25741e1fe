//! A version-1 snapshot, checked in, keeps loading.
//!
//! `tests/data/snapshot_v1.json` was written by the last build whose
//! snapshots were version 1 (every training row stored in full with its
//! owner's name), with
//!
//! ```text
//! gdcm-serve --build-zoo tests/data/snapshot_v1.json --devices 4 --seed 42 --random 4
//! ```
//!
//! It is 4 devices × 12 rows over 15 distinct network encodings. The
//! prediction digest below was recorded from that same build: one
//! FNV-1a digest over the bits of every enrolled device's prediction
//! for every network of the suite the snapshot was built on.

use gdcm_core::{CollaborativeRepository, RepositoryError, RepositoryPartsV1};
use gdcm_gen::{benchmark_suite_with, SearchSpace};
use gdcm_ml::DenseMatrix;
use gdcm_serve::{load_repository, save_repository, ServeError, SNAPSHOT_VERSION};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Digest of the checked-in snapshot's predictions, recorded by the
/// version-1 build.
const PREDICTION_DIGEST: u64 = 0x2bdf_3497_777e_e805;
/// Predictions the digest folds: 4 devices × 22 suite networks.
const PREDICTIONS: usize = 88;

/// The version-1 document as stored.
#[derive(Serialize, Deserialize)]
struct V1Snapshot {
    format: String,
    version: u32,
    parts: RepositoryPartsV1,
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/snapshot_v1.json")
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gdcm_serve_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn read_v1() -> V1Snapshot {
    serde_json::from_str(&std::fs::read_to_string(fixture()).unwrap()).unwrap()
}

/// FNV-1a over the bits of every enrolled device's prediction for
/// every network of the build's suite (`--seed 42 --random 4`).
fn prediction_digest(repo: &CollaborativeRepository) -> (u64, usize) {
    let suite = benchmark_suite_with(42, SearchSpace::tiny(), 4);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    for device in repo.device_names() {
        for net in &suite {
            let p = repo.predict(device, &net.network).unwrap();
            digest = (digest ^ p.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            n += 1;
        }
    }
    (digest, n)
}

#[test]
fn version_1_snapshot_loads_with_its_rows_and_predictions() {
    let stored = read_v1();
    assert_eq!(stored.version, 1);
    let repo = load_repository(&fixture()).unwrap();

    // The training matrix every fit sees is the stored rows, bit for bit.
    let train = repo.training_set();
    let matrix = train.matrix();
    let expected = DenseMatrix::from_rows(&stored.parts.x_rows);
    assert_eq!((matrix.n_rows(), matrix.n_cols()), (48, expected.n_cols()));
    for i in 0..matrix.n_rows() {
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(matrix.row(i)), bits(expected.row(i)), "row {i}");
    }
    let label_bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(label_bits(train.labels()), label_bits(&stored.parts.y));
    assert_eq!(repo.to_parts().encodings.len(), 15);

    assert_eq!(
        prediction_digest(&repo),
        (PREDICTION_DIGEST, PREDICTIONS),
        "version-1 predictions changed"
    );
}

#[test]
fn re_saved_version_1_snapshot_is_version_2_and_predicts_the_same() {
    let repo = load_repository(&fixture()).unwrap();
    let path = scratch_path("v1_resaved.json");
    save_repository(&repo, &path).unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    let envelope: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(
        envelope.get("version").and_then(serde_json::Value::as_u64),
        Some(u64::from(SNAPSHOT_VERSION))
    );
    assert_eq!(SNAPSHOT_VERSION, 2);
    let original = std::fs::metadata(fixture()).unwrap().len();
    assert!(
        (json.len() as u64) < original,
        "version 2 wrote {} bytes against version 1's {original}",
        json.len()
    );
    let reloaded = load_repository(&path).unwrap();
    assert_eq!(
        prediction_digest(&reloaded),
        (PREDICTION_DIGEST, PREDICTIONS)
    );
    assert_eq!(reloaded.to_parts(), repo.to_parts());
    std::fs::remove_file(&path).ok();
}

#[test]
fn version_1_row_with_a_stale_hardware_tail_is_refused() {
    let mut stored = read_v1();
    let hw_start = stored.parts.encoder.len();
    stored.parts.x_rows[5][hw_start + 1] *= 2.0;
    let path = scratch_path("v1_stale_tail.json");
    std::fs::write(&path, serde_json::to_string(&stored).unwrap()).unwrap();
    match load_repository(&path) {
        Err(ServeError::Repository(RepositoryError::CorruptParts { reason })) => {
            assert!(reason.contains("row 5"), "unhelpful reason: {reason}");
        }
        other => panic!("stale hardware tail accepted: {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}
