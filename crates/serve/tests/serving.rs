//! Integration tests for the serving façade and snapshot persistence:
//! the bit-identity contract (cached answers equal the uncached path),
//! snapshot round-trips, and defensive rejection of corrupt or
//! audit-failing snapshots.

mod common;

use common::fitted_repository;
use gdcm_core::CollaborativeRepository;
use gdcm_dnn::Network;
use gdcm_gen::{RandomNetworkGenerator, SearchSpace};
use gdcm_ml::{FrozenGbdt, FrozenNodes, GbdtRegressor, Regressor, Tree, TreeNode};
use gdcm_serve::{
    load_repository, network_hash, save_repository, RepositorySnapshot, ServeConfig, ServeError,
    ServingRepository, SNAPSHOT_FORMAT, SNAPSHOT_VERSION,
};
use std::collections::HashMap;
use std::path::PathBuf;

/// The pointer-tree walker's answer: the fitted `GbdtRegressor`, not
/// the frozen model every serving path runs, on the same encoding +
/// signature row.
fn pointer_walk(serving: &ServingRepository, device: &str, net: &Network) -> f64 {
    serving.with_repository(|r| {
        let mut row = r.encoder().encode(net);
        row.extend_from_slice(r.device_signature(device).unwrap());
        f64::from(r.model().unwrap().predict_row(&row))
    })
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gdcm_serve_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn cached_predictions_are_bit_identical_to_cold_calls() {
    let (repo, nets) = fitted_repository(11);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    for net in &nets {
        let cold = serving
            .with_repository(|r| r.predict(&device, net))
            .unwrap();
        let first = serving.predict(&device, net).unwrap();
        let second = serving.predict(&device, net).unwrap();
        assert_eq!(first.to_bits(), cold.to_bits(), "cold call diverged");
        assert_eq!(second.to_bits(), cold.to_bits(), "cache hit diverged");
        let pointer = pointer_walk(&serving, &device, net);
        assert_eq!(cold.to_bits(), pointer.to_bits(), "frozen vs pointer walk");
    }
    let stats = serving.cache_stats();
    assert_eq!(stats.prediction_misses, nets.len() as u64);
    assert_eq!(stats.prediction_hits, nets.len() as u64);
    // The second pass never re-encoded: one encoding miss per network.
    assert_eq!(stats.encoding_misses, nets.len() as u64);
}

#[test]
fn disabled_caches_still_serve_identical_bits() {
    let (repo, nets) = fitted_repository(13);
    let serving = ServingRepository::new(
        repo,
        ServeConfig {
            encoding_cache: 0,
            prediction_cache: 0,
        },
    );
    let device = serving.device_names()[0].clone();
    for net in &nets {
        let cold = serving
            .with_repository(|r| r.predict(&device, net))
            .unwrap();
        assert_eq!(
            serving.predict(&device, net).unwrap().to_bits(),
            cold.to_bits()
        );
        assert_eq!(
            serving.predict(&device, net).unwrap().to_bits(),
            cold.to_bits()
        );
        let pointer = pointer_walk(&serving, &device, net);
        assert_eq!(cold.to_bits(), pointer.to_bits(), "frozen vs pointer walk");
    }
    let stats = serving.cache_stats();
    assert_eq!(stats.prediction_hits, 0, "disabled cache must never hit");
    assert_eq!(stats.encoding_hits, 0);
}

#[test]
fn network_hash_is_a_content_hash() {
    // Separately built copies of the same graph share a cache key.
    for (a, b) in gdcm_gen::zoo::all().iter().zip(gdcm_gen::zoo::all()) {
        assert_eq!(network_hash(a), network_hash(&b), "{}", a.name());
        // The name is part of the content.
        let renamed = b.clone().with_name(format!("{}_renamed", b.name()));
        assert_ne!(network_hash(a), network_hash(&renamed), "{}", a.name());
    }

    // The zoo plus 2,000 seeded mobile-space candidates, named as a
    // search names them, hash pairwise distinct.
    let mut generator = RandomNetworkGenerator::new(SearchSpace::mobile(), 42);
    let mut nets = gdcm_gen::zoo::all();
    nets.extend((0..2000).map(|i| generator.generate(format!("candidate_{i:05}")).unwrap()));
    let mut seen: HashMap<u64, &Network> = HashMap::new();
    for net in &nets {
        if let Some(other) = seen.insert(network_hash(net), net) {
            panic!("{} and {} share a hash", other.name(), net.name());
        }
    }

    // Under one common name, structure alone separates them: hashes are
    // equal exactly when the graphs are.
    let mut seen: HashMap<u64, Network> = HashMap::new();
    for net in nets {
        let net = net.with_name("candidate");
        if let Some(other) = seen.insert(network_hash(&net), net.clone()) {
            assert_eq!(other, net, "distinct graphs share a hash");
        }
    }
}

#[test]
fn snapshot_round_trip_preserves_prediction_bits() {
    let (repo, nets) = fitted_repository(14);
    let path = scratch_path("round_trip.json");
    save_repository(&repo, &path).unwrap();
    let loaded = load_repository(&path).unwrap();
    for device in repo.device_names() {
        for net in &nets {
            let before = repo.predict(device, net).unwrap();
            let after = loaded.predict(device, net).unwrap();
            assert_eq!(
                before.to_bits(),
                after.to_bits(),
                "snapshot round-trip changed a prediction"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn unfitted_snapshot_round_trips_too() {
    let (repo, _) = fitted_repository(15);
    let mut parts = repo.to_parts();
    parts.model = None;
    parts.frozen = None;
    let unfitted = CollaborativeRepository::from_parts(parts).unwrap();
    let path = scratch_path("unfitted.json");
    save_repository(&unfitted, &path).unwrap();
    let loaded = load_repository(&path).unwrap();
    assert!(!loaded.is_fitted());
    assert_eq!(loaded.n_rows(), repo.n_rows());
    std::fs::remove_file(&path).ok();
}

#[test]
fn flatcheck_rejects_snapshot_with_tampered_frozen_model() {
    let (repo, _) = fitted_repository(19);
    let mut parts = repo.to_parts();
    // Flip one frozen leaf's low mantissa bit. The arena shape, grid,
    // and metadata all still match the stored model, so structural
    // `from_parts` validation passes — only the flatcheck translation
    // validator can see that the compiled artifact no longer computes
    // the model it claims to.
    let (base, width, cuts, nodes) = parts.frozen.take().unwrap().into_raw_parts();
    let (starts, feature, bin, left, right, mut leaf) = nodes.into_raw_parts();
    let victim = leaf
        .iter()
        .position(|v| *v != 0.0)
        .expect("a fitted ensemble has non-zero leaves");
    leaf[victim] = f32::from_bits(leaf[victim].to_bits() ^ 1);
    parts.frozen = Some(FrozenGbdt::from_raw_parts(
        base,
        width,
        cuts,
        FrozenNodes::from_raw_parts(starts, feature, bin, left, right, leaf),
    ));
    let snapshot = RepositorySnapshot {
        format: SNAPSHOT_FORMAT.to_string(),
        version: SNAPSHOT_VERSION,
        parts,
    };
    let path = scratch_path("tampered_frozen.json");
    std::fs::write(&path, serde_json::to_string(&snapshot).unwrap()).unwrap();
    match load_repository(&path) {
        Err(ServeError::AuditRejected { diagnostics }) => {
            assert!(
                diagnostics.iter().any(|d| d.contains("GDCM147")),
                "expected a flat leaf-value finding, got: {diagnostics:?}"
            );
        }
        other => panic!("tampered frozen model accepted: {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_envelope_is_rejected_before_parsing_state() {
    let (repo, _) = fitted_repository(16);
    let mut snapshot = RepositorySnapshot::capture(&repo);
    snapshot.version = SNAPSHOT_VERSION + 1;
    let path = scratch_path("future_version.json");
    std::fs::write(&path, serde_json::to_string(&snapshot).unwrap()).unwrap();
    match load_repository(&path) {
        Err(ServeError::BadSnapshot { reason }) => {
            assert!(reason.contains("version"), "unhelpful reason: {reason}");
        }
        other => panic!("future version accepted: {other:?}"),
    }

    let mut snapshot = RepositorySnapshot::capture(&repo);
    snapshot.format = "something-else".to_string();
    std::fs::write(&path, serde_json::to_string(&snapshot).unwrap()).unwrap();
    assert!(matches!(
        load_repository(&path),
        Err(ServeError::BadSnapshot { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn audit_rejects_snapshot_with_corrupt_model() {
    let (repo, _) = fitted_repository(17);
    let mut parts = repo.to_parts();
    let width = parts.x_rows[0].len();
    // A split on a feature past the model's width passes structural
    // `from_parts` validation (which checks the feature *count*, not
    // ensemble internals) and survives the JSON round trip, but must be
    // caught by the gdcm-audit ensemble pass on load.
    parts.model = Some(GbdtRegressor::from_raw_parts(
        0.0,
        vec![Tree::from_raw_nodes(vec![
            TreeNode::Split {
                feature: width + 7,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            TreeNode::Leaf { weight: 0.0 },
            TreeNode::Leaf { weight: 0.0 },
        ])],
        width,
    ));
    let snapshot = RepositorySnapshot {
        format: SNAPSHOT_FORMAT.to_string(),
        version: SNAPSHOT_VERSION,
        parts,
    };
    let path = scratch_path("corrupt_model.json");
    std::fs::write(&path, serde_json::to_string(&snapshot).unwrap()).unwrap();
    match load_repository(&path) {
        Err(ServeError::AuditRejected { diagnostics }) => {
            assert!(!diagnostics.is_empty());
            assert!(
                diagnostics.iter().any(|d| d.contains("splits feature")),
                "expected an out-of-bounds-feature finding, got: {diagnostics:?}"
            );
        }
        other => panic!("corrupt model accepted: {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn re_enroll_invalidates_cached_predictions() {
    let (repo, nets) = fitted_repository(18);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let sig_len = serving.with_repository(|r| r.signature_size());

    serving.predict(&device, &nets[0]).unwrap();
    let before = serving.cache_stats();
    assert_eq!(before.prediction_misses, 1);

    let new_sig: Vec<f64> = (0..sig_len).map(|i| 5.0 + i as f64).collect();
    serving.re_enroll(&device, &new_sig).unwrap();

    // The cached entry is gone: the next predict recomputes against the
    // new signature and matches an uncached call bit for bit.
    let fresh = serving.predict(&device, &nets[0]).unwrap();
    let after = serving.cache_stats();
    assert_eq!(after.prediction_hits, before.prediction_hits);
    assert_eq!(after.prediction_misses, before.prediction_misses + 1);
    let uncached = serving
        .with_repository(|r| r.predict(&device, &nets[0]))
        .unwrap();
    assert_eq!(fresh.to_bits(), uncached.to_bits());
}

#[test]
fn serving_snapshot_save_matches_direct_save() {
    let (repo, nets) = fitted_repository(19);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let expected = serving.predict(&device, &nets[0]).unwrap();

    let path = scratch_path("via_serving.json");
    serving.save_snapshot(&path).unwrap();
    let reloaded = ServingRepository::from_snapshot_path(&path).unwrap();
    assert_eq!(
        reloaded.predict(&device, &nets[0]).unwrap().to_bits(),
        expected.to_bits()
    );
    std::fs::remove_file(&path).ok();
}
