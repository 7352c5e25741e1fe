//! The snapshot save streams its document field by field, and writes
//! exactly the bytes `serde_json::to_string` gives for the same
//! snapshot: on a fitted repository, an unfitted one, the checked-in
//! version-1 and version-2 snapshots after load, and a repository an
//! accepted refresh has just swapped.

mod common;

use common::fitted_repository;
use gdcm_core::CollaborativeRepository;
use gdcm_serve::{
    load_repository, save_repository, IngestPipeline, RefreshConfig, RepositorySnapshot,
    ServeConfig, ServingRepository,
};
use std::path::{Path, PathBuf};

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdcm_snapshot_bytes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Saves `repo` and checks the file against the whole document.
fn assert_saved_bytes_are_the_document(repo: &CollaborativeRepository, name: &str) {
    let path = scratch_path(name);
    save_repository(repo, &path).unwrap();
    let saved = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let document = serde_json::to_string(&RepositorySnapshot::capture(repo)).unwrap();
    assert!(saved == document, "{name}: the saved bytes differ");
}

#[test]
fn fitted_repository_saves_its_document() {
    let (mut repo, _) = fitted_repository(51);
    // A name the writer must escape exactly as the document does.
    repo.onboard_device("quote\" back\\slash\nnew line ünï", &[3.0, 4.0, 5.0])
        .unwrap();
    assert!(repo.is_fitted());
    assert_saved_bytes_are_the_document(&repo, "fitted.json");
}

#[test]
fn unfitted_repository_saves_its_document() {
    let (repo, _) = fitted_repository(52);
    let mut parts = repo.to_parts();
    (parts.model, parts.grid_rows, parts.frozen) = (None, None, None);
    let repo = CollaborativeRepository::from_parts(parts).unwrap();
    assert!(!repo.is_fitted());
    assert_saved_bytes_are_the_document(&repo, "unfitted.json");
}

#[test]
fn old_snapshots_save_their_document_after_load() {
    for name in ["snapshot_v1.json", "snapshot_v2.json"] {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/data")
            .join(name);
        let repo = load_repository(&fixture).unwrap();
        assert_saved_bytes_are_the_document(&repo, name);
    }
}

#[test]
fn refreshed_repository_saves_its_document() {
    let (repo, nets) = fitted_repository(53);
    let device = repo.device_names()[0].to_string();
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let pipeline = IngestPipeline::new(&serving, RefreshConfig { refresh_rows: 4 });
    for (i, net) in nets.iter().take(4).enumerate() {
        pipeline.contribute(&device, net, 12.0 + i as f64).unwrap();
    }
    assert!(pipeline.refresh_once().unwrap());
    serving.with_repository(|repo| assert_saved_bytes_are_the_document(repo, "refreshed.json"));
}
