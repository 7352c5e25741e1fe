//! Snapshots of earlier layout versions, checked in, keep loading.
//!
//! `tests/data/snapshot_v1.json` was written by the last build whose
//! snapshots were version 1 (every training row stored in full with its
//! owner's name), and `tests/data/snapshot_v2.json` by the last build
//! whose snapshots were version 2 (each distinct encoding once, no
//! record of the rows the model's bin grid was cut from), each with
//!
//! ```text
//! gdcm-serve --build-zoo tests/data/snapshot_vN.json --devices 4 --seed 42 --random 4
//! ```
//!
//! Each is 4 devices × 12 rows over 15 distinct network encodings. The
//! prediction digest below was recorded from each of those builds (both
//! gave the same one): one FNV-1a digest over the bits of every enrolled
//! device's prediction for every network of the suite the snapshot was
//! built on.

use gdcm_core::{CollaborativeRepository, RepositoryError, RepositoryParts, RepositoryPartsV1};
use gdcm_gen::{benchmark_suite_with, SearchSpace};
use gdcm_ml::DenseMatrix;
use gdcm_serve::{load_repository, save_repository, ServeError, SNAPSHOT_VERSION};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Digest of the checked-in snapshots' predictions, recorded by the
/// version-1 and version-2 builds.
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

/// The checked-in snapshots and the layout version each was written in.
const FIXTURES: [(&str, u64); 2] = [("snapshot_v1.json", 1), ("snapshot_v2.json", 2)];
/// Training rows in each checked-in snapshot.
const ROWS: usize = 48;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// The checked-in document as stored, its version checked.
fn read_document(name: &str, version: u64) -> serde_json::Value {
    let json = std::fs::read_to_string(fixture(name)).unwrap();
    let document: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(
        document.get("version").and_then(serde_json::Value::as_u64),
        Some(version),
        "{name}"
    );
    document
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gdcm_serve_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn read_v1() -> V1Snapshot {
    serde_json::from_str(&std::fs::read_to_string(fixture("snapshot_v1.json")).unwrap()).unwrap()
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
fn old_snapshots_load_with_their_predictions_and_a_grid_on_every_row() {
    for (name, version) in FIXTURES {
        read_document(name, version);
        let repo = load_repository(&fixture(name)).unwrap();
        assert_eq!((repo.n_rows(), repo.grid_rows()), (ROWS, ROWS), "{name}");
        assert_eq!(repo.to_parts().encodings.len(), 15, "{name}");
        assert_eq!(
            prediction_digest(&repo),
            (PREDICTION_DIGEST, PREDICTIONS),
            "{name} predictions changed"
        );
    }
}

#[test]
fn version_1_snapshot_loads_with_its_rows() {
    let stored = read_v1();
    assert_eq!(stored.version, 1);
    let repo = load_repository(&fixture("snapshot_v1.json")).unwrap();

    // The training matrix every fit sees is the stored rows, bit for bit.
    let train = repo.training_set();
    let matrix = train.matrix();
    let expected = DenseMatrix::from_rows(&stored.parts.x_rows);
    assert_eq!(
        (matrix.n_rows(), matrix.n_cols()),
        (ROWS, expected.n_cols())
    );
    for i in 0..matrix.n_rows() {
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(matrix.row(i)), bits(expected.row(i)), "row {i}");
    }
    let label_bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(label_bits(train.labels()), label_bits(&stored.parts.y));
}

#[test]
fn version_2_snapshot_loads_its_parts_with_a_grid_on_every_row() {
    let stored = read_document("snapshot_v2.json", 2);
    let parts: RepositoryParts =
        serde_json::from_value(stored.get("parts").cloned().unwrap()).unwrap();
    assert_eq!(parts.grid_rows, None, "version 2 did not record the grid");
    let repo = load_repository(&fixture("snapshot_v2.json")).unwrap();
    assert_eq!(repo.to_parts(), parts.grid_on_all_rows());
}

#[test]
fn re_saved_old_snapshots_are_the_current_version_and_predict_the_same() {
    assert_eq!(SNAPSHOT_VERSION, 3);
    for (name, _) in FIXTURES {
        let repo = load_repository(&fixture(name)).unwrap();
        let path = scratch_path(&format!("resaved_{name}"));
        save_repository(&repo, &path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let envelope: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            envelope.get("version").and_then(serde_json::Value::as_u64),
            Some(u64::from(SNAPSHOT_VERSION)),
            "{name}"
        );
        if name == "snapshot_v1.json" {
            let original = std::fs::metadata(fixture(name)).unwrap().len();
            assert!(
                (json.len() as u64) < original,
                "re-saved {} bytes against version 1's {original}",
                json.len()
            );
        }
        let reloaded = load_repository(&path).unwrap();
        assert_eq!(
            prediction_digest(&reloaded),
            (PREDICTION_DIGEST, PREDICTIONS),
            "{name}"
        );
        assert_eq!(reloaded.to_parts(), repo.to_parts(), "{name}");
        std::fs::remove_file(&path).ok();
    }
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
