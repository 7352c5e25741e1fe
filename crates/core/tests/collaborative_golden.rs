//! Golden digests of the §V collaborative simulation.
//!
//! Each case is reduced to one FNV-1a digest: over every growth-curve
//! point's device count, row count and R² bits; over the target-device
//! R² bits of a cohort; or over every isolated-curve point's network
//! count and R² bits. The constants were recorded before the
//! simulations were moved onto `CollaborativeRepository`. Any change to
//! the enrollment order, a device's sampled slice, a training row, a
//! fitted tree or a prediction changes a digest. The fleets are small,
//! so the file runs in seconds in a debug build, and the digests are
//! the same at any `GDCM_THREADS` (CI runs the workspace at 1 and 4).

use gdcm_core::collaborative::{
    collaborative_for_device, isolated_curve, simulate_collaborative, CollaborativeConfig,
};
use gdcm_core::CostDataset;
use gdcm_ml::GbdtParams;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

fn gbdt() -> GbdtParams {
    GbdtParams {
        n_estimators: 20,
        ..GbdtParams::default()
    }
}

fn base(signature_size: usize) -> CollaborativeConfig {
    CollaborativeConfig {
        signature_size,
        gbdt: gbdt(),
        ..CollaborativeConfig::default()
    }
}

/// Digests of the growth curve at a 10% and a 30% contribution.
fn growth_digests(
    data: &CostDataset,
    signature_size: usize,
    iterations: usize,
    seed: u64,
) -> [u64; 2] {
    [0.1, 0.3].map(|contribution_fraction| {
        let config = CollaborativeConfig {
            iterations,
            contribution_fraction,
            seed,
            ..base(signature_size)
        };
        let curve = simulate_collaborative(data, &config);
        assert_eq!(curve.len(), iterations, "one point per enrollment");
        let mut fnv = Fnv::new();
        for point in &curve {
            fnv.word(point.n_devices as u64);
            fnv.word(point.n_rows as u64);
            fnv.word(point.avg_r2.to_bits());
        }
        fnv.0
    })
}

#[test]
fn growth_curve_fleet_a() {
    let data = CostDataset::tiny(11, 6, 10);
    assert_eq!(
        growth_digests(&data, 3, 8, 1),
        [0x18E9BF64A31CC268, 0x21F6A1889DE81867]
    );
}

#[test]
fn growth_curve_fleet_b_enrolls_every_device() {
    let data = CostDataset::tiny(13, 4, 12);
    assert_eq!(
        growth_digests(&data, 4, 12, 2),
        [0x189C44AC182AD320, 0x9041BD156B0AD338]
    );
}

#[test]
fn growth_curve_fleet_c() {
    let data = CostDataset::tiny(17, 8, 9);
    assert_eq!(
        growth_digests(&data, 5, 6, 3),
        [0x22D5A29441BD5676, 0xE8A55A525CDEA05C]
    );
}

#[test]
fn cohort_r2_digests() {
    let data = CostDataset::tiny(19, 6, 14);
    let config = CollaborativeConfig { seed: 5, ..base(4) };
    // (target, cohort size, contribution), including a cohort of one
    // and a contribution of zero (which still contributes one row).
    let triples = [
        (0, 1, 4),
        (0, 14, 0),
        (3, 1, 0),
        (5, 6, 3),
        (9, 10, 8),
        (13, 4, 12),
    ];
    let digests = triples.map(|(target, cohort, contribution)| {
        let r2 = collaborative_for_device(&data, target, cohort, contribution, &config);
        let mut fnv = Fnv::new();
        fnv.word(r2.to_bits());
        fnv.0
    });
    assert_eq!(
        digests,
        [
            0x2B1217971FBE811F,
            0x28333D93353133BA,
            0xA7BAB7538125A9A9,
            0x49614EA43857C883,
            0x677D3179EF9EDBDA,
            0xC955F88EEFC35AFB,
        ]
    );
}

#[test]
fn isolated_curve_digest() {
    let data = CostDataset::tiny(19, 6, 14);
    // 0 and an oversized request clamp to 1 and to the suite size.
    let sizes = [0, 3, 10, 24, usize::MAX];
    let curve = isolated_curve(&data, 2, &sizes, &gbdt(), 4);
    let mut fnv = Fnv::new();
    for point in &curve {
        fnv.word(point.n_networks as u64);
        fnv.word(point.r2.to_bits());
    }
    assert_eq!(fnv.0, 0x6CC1100A9F2AEFC8);
}
