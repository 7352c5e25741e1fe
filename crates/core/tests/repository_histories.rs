//! Random histories of onboard / contribute / re-enroll / fit against a
//! naive reference that stores every row in full.
//!
//! After each seeded sequence the repository's training matrix must
//! equal, bit for bit, the reference built row by row as
//! `encode(network) ++ the device's current signature`, and its parts
//! must survive `from_parts(to_parts())` and a JSON round trip
//! unchanged, predicting the same bits, and the version-1 upgrade
//! unchanged but for the grid, which version 1 cut from every row.

use std::collections::HashMap;

use gdcm_core::{
    CollaborativeRepository, CostDataset, RepositoryConfig, RepositoryError, RepositoryParts,
    RepositoryPartsV1,
};
use gdcm_ml::GbdtParams;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEQUENCES: u64 = 200;
const SIGNATURE_SIZE: usize = 3;
const MIN_ROWS: usize = 4;
const NAMES: [&str; 5] = ["pixel", "galaxy", "iphone", "moto", "nokia"];

/// The repository as version 1 stored it: every row in full, with its
/// owner's name.
#[derive(Default)]
struct Reference {
    signatures: HashMap<String, Vec<f32>>,
    /// `(suite network, owner, label)` in contribution order.
    rows: Vec<(usize, String, f32)>,
}

impl Reference {
    fn row(&self, data: &CostDataset, i: usize) -> Vec<f32> {
        let (network, owner, _) = &self.rows[i];
        let mut row = data.encoder.encode(&data.suite[*network].network);
        row.extend_from_slice(&self.signatures[owner]);
        row
    }

    fn v1_parts(&self, data: &CostDataset, repo: &CollaborativeRepository) -> RepositoryPartsV1 {
        let mut devices: Vec<(String, Vec<f32>)> = self
            .signatures
            .iter()
            .map(|(name, sig)| (name.clone(), sig.clone()))
            .collect();
        devices.sort_by(|a, b| a.0.cmp(&b.0));
        RepositoryPartsV1 {
            encoder: data.encoder.clone(),
            signature_size: SIGNATURE_SIZE,
            config: repo.config().clone(),
            devices,
            row_devices: self
                .rows
                .iter()
                .map(|(_, owner, _)| owner.clone())
                .collect(),
            x_rows: (0..self.rows.len()).map(|i| self.row(data, i)).collect(),
            y: self.rows.iter().map(|&(_, _, label)| label).collect(),
            model: repo.model().cloned(),
            frozen: repo.frozen_model().cloned(),
            epoch: repo.model_epoch(),
        }
    }
}

/// A latency the repository accepts, or now and then one it must refuse.
fn latency(rng: &mut ChaCha8Rng) -> f64 {
    if rng.gen_bool(0.05) {
        f64::NAN
    } else {
        rng.gen_range(0.5..80.0)
    }
}

fn signature(rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..SIGNATURE_SIZE).map(|_| latency(rng)).collect()
}

fn narrowed(values: &[f64]) -> Option<Vec<f32>> {
    values
        .iter()
        .all(|v| v.is_finite())
        .then(|| values.iter().map(|&v| v as f32).collect())
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Runs one random history, checking every call's outcome against the
/// reference as it goes.
fn run_history(data: &CostDataset, seed: u64) -> (CollaborativeRepository, Reference) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut repo = CollaborativeRepository::new(
        data.encoder.clone(),
        SIGNATURE_SIZE,
        RepositoryConfig {
            gbdt: GbdtParams {
                n_estimators: 3,
                max_depth: 2,
                ..GbdtParams::default()
            },
            min_rows: MIN_ROWS,
        },
    );
    let mut reference = Reference::default();
    for _ in 0..rng.gen_range(10..60) {
        let name = NAMES[rng.gen_range(0..NAMES.len())];
        let enrolled = reference.signatures.contains_key(name);
        match rng.gen_range(0..20) {
            0..=3 => {
                let sig = signature(&mut rng);
                let outcome = repo.onboard_device(name, &sig);
                match narrowed(&sig) {
                    Some(sig) if !enrolled => {
                        outcome.unwrap();
                        reference.signatures.insert(name.to_string(), sig);
                    }
                    _ => assert!(outcome.is_err()),
                }
            }
            4..=6 => {
                let sig = signature(&mut rng);
                let outcome = repo.re_enroll(name, &sig);
                match narrowed(&sig) {
                    Some(sig) if enrolled => {
                        outcome.unwrap();
                        reference.signatures.insert(name.to_string(), sig);
                    }
                    _ => assert!(outcome.is_err()),
                }
            }
            7..=8 => {
                let outcome = repo.fit();
                if reference.rows.len() >= MIN_ROWS {
                    outcome.unwrap();
                } else {
                    assert!(matches!(
                        outcome,
                        Err(RepositoryError::NotEnoughData { .. })
                    ));
                }
            }
            _ => {
                // Few networks, so rows share encodings.
                let network = rng.gen_range(0..data.n_networks().min(8));
                let ms = latency(&mut rng);
                let outcome = repo.contribute(name, &data.suite[network].network, ms);
                if enrolled && ms.is_finite() {
                    outcome.unwrap();
                    reference.rows.push((network, name.to_string(), ms as f32));
                } else {
                    assert!(outcome.is_err());
                }
            }
        }
    }
    (repo, reference)
}

fn assert_same_predictions(
    data: &CostDataset,
    a: &CollaborativeRepository,
    b: &CollaborativeRepository,
) {
    assert_eq!(a.is_fitted(), b.is_fitted());
    if !a.is_fitted() {
        return;
    }
    for device in a.device_names() {
        for net in &data.suite {
            let (x, y) = (
                a.predict(device, &net.network),
                b.predict(device, &net.network),
            );
            assert_eq!(x.unwrap().to_bits(), y.unwrap().to_bits(), "{device}");
        }
    }
}

#[test]
fn random_histories_match_the_row_by_row_reference() {
    let data = CostDataset::tiny(23, 4, 4);
    let (mut shared, mut fitted) = (0, 0);
    for seed in 0..SEQUENCES {
        let (repo, reference) = run_history(&data, seed);

        let train = repo.training_set();
        let matrix = train.matrix();
        assert_eq!(matrix.n_rows(), reference.rows.len(), "seed {seed}");
        for i in 0..matrix.n_rows() {
            assert_eq!(
                bits(matrix.row(i)),
                bits(&reference.row(&data, i)),
                "seed {seed} row {i}"
            );
        }
        let labels: Vec<f32> = reference.rows.iter().map(|r| r.2).collect();
        assert_eq!(bits(train.labels()), bits(&labels), "seed {seed}");
        assert_eq!(repo.n_devices(), reference.signatures.len(), "seed {seed}");

        let parts = repo.to_parts();
        shared += parts.rows.len() - parts.encodings.len();
        fitted += usize::from(repo.is_fitted());
        let rebuilt = CollaborativeRepository::from_parts(parts.clone()).unwrap();
        assert_eq!(rebuilt.to_parts(), parts, "seed {seed}");
        assert_same_predictions(&data, &repo, &rebuilt);

        let json = serde_json::to_string(&parts).unwrap();
        let back: RepositoryParts = serde_json::from_str(&json).unwrap();
        assert_eq!(back, parts, "seed {seed}");
        let reloaded = CollaborativeRepository::from_parts(back).unwrap();
        assert_eq!(reloaded.model_epoch(), repo.model_epoch());
        assert_same_predictions(&data, &repo, &reloaded);

        // Version 1 did not record the grid: its model was cut from
        // every row.
        let upgraded = reference.v1_parts(&data, &repo).upgrade().unwrap();
        assert_eq!(upgraded, parts.grid_on_all_rows(), "seed {seed}");
    }
    // Coverage: most histories share encodings and many end fitted.
    assert!(
        shared > SEQUENCES as usize,
        "only {shared} rows shared an encoding"
    );
    assert!(
        fitted > SEQUENCES as usize / 4,
        "only {fitted} histories were fitted"
    );
}
