//! Integration tests for the Section V collaborative workflow.

use generalizable_dnn_cost_models::core::collaborative::{
    collaborative_for_device, isolated_curve, simulate_collaborative, CollaborativeConfig,
};
use generalizable_dnn_cost_models::core::signature::{MutualInfoSelector, SignatureSelector};
use generalizable_dnn_cost_models::core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use generalizable_dnn_cost_models::ml::GbdtParams;

fn fast_gbdt() -> GbdtParams {
    GbdtParams {
        n_estimators: 40,
        ..GbdtParams::default()
    }
}

#[test]
fn collaboration_beats_isolation_at_equal_budget() {
    // The paper's headline Section V claim: for the same number of
    // measurements taken *on the target device*, the collaborative model
    // is far more accurate than the isolated one.
    let data = CostDataset::tiny(21, 24, 40);
    let target = 0; // the Redmi Note 5 Pro stand-in
    let config = CollaborativeConfig {
        signature_size: 5,
        seed: 3,
        gbdt: fast_gbdt(),
        ..CollaborativeConfig::default()
    };

    // Collaborative: target spends 5 (signature) + 5 (contribution) = 10.
    let collab_r2 = collaborative_for_device(&data, target, 35, 5, &config);

    // Isolated: 10 of its own measurements.
    let iso = isolated_curve(&data, target, &[10], &fast_gbdt(), 3);
    let iso_r2 = iso[0].r2;

    assert!(
        collab_r2 > iso_r2,
        "collaboration ({collab_r2:.3}) should beat isolation ({iso_r2:.3}) at 10 measurements"
    );
}

#[test]
fn repository_growth_curve_trends_upward() {
    let data = CostDataset::tiny(21, 16, 36);
    let config = CollaborativeConfig {
        signature_size: 4,
        iterations: 30,
        contribution_fraction: 0.2,
        seed: 1,
        gbdt: fast_gbdt(),
    };
    let curve = simulate_collaborative(&data, &config);
    assert_eq!(curve.len(), 30);
    // Compare the mean of the first five points to the last five.
    let early: f64 = curve[..5].iter().map(|p| p.avg_r2).sum::<f64>() / 5.0;
    let late: f64 = curve[25..].iter().map(|p| p.avg_r2).sum::<f64>() / 5.0;
    assert!(
        late > early,
        "more devices should help: early {early:.3} vs late {late:.3}"
    );
}

#[test]
fn isolated_curve_is_learnable_and_saturates_high() {
    let data = CostDataset::tiny(21, 24, 10);
    let sizes = [3, 15, 42];
    let curve = isolated_curve(&data, 2, &sizes, &fast_gbdt(), 9);
    assert_eq!(curve.len(), 3);
    assert!(
        curve[2].r2 > 0.8,
        "full isolated model should fit: {curve:?}"
    );
}

#[test]
fn repository_round_trip_across_crates() {
    // Build the repository from simulator measurements and verify the
    // predictions come back on the millisecond scale.
    let data = CostDataset::tiny(23, 12, 20);
    let all: Vec<usize> = (0..data.n_devices()).collect();
    let sig = MutualInfoSelector::default().select(&data.db, &all, 4);

    let mut repo = CollaborativeRepository::new(
        data.encoder.clone(),
        4,
        RepositoryConfig {
            gbdt: fast_gbdt(),
            min_rows: 16,
        },
    );
    let open: Vec<usize> = (0..data.n_networks())
        .filter(|n| !sig.contains(n))
        .collect();
    for d in 0..16 {
        let lat: Vec<f64> = sig.iter().map(|&n| data.db.latency(d, n)).collect();
        let name = format!("dev{d}");
        repo.onboard_device(name.clone(), &lat).unwrap();
        for &n in open.iter().skip(d % 3).step_by(5).take(6) {
            repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                .unwrap();
        }
    }
    repo.fit().unwrap();

    let probe = 18;
    let lat: Vec<f64> = sig.iter().map(|&n| data.db.latency(probe, n)).collect();
    for &n in open.iter().take(10) {
        let p = repo
            .predict_for_new_device(&lat, &data.suite[n].network)
            .unwrap();
        let actual = data.db.latency(probe, n);
        assert!(p.is_finite() && p > 0.0);
        assert!(
            p / actual < 20.0 && actual / p < 20.0,
            "prediction {p:.1} ms wildly off actual {actual:.1} ms"
        );
    }
}
