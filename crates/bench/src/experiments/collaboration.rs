//! Collaborative characterization experiments (§V): Figures 12 and 13.

use std::fmt::Write as _;

use gdcm_core::collaborative::{
    collaborative_for_device, isolated_curve, simulate_collaborative, CollaborativeConfig,
};
use gdcm_core::CostDataset;
use gdcm_ml::GbdtParams;

use crate::fast_mode;
use crate::util::shown;

/// Fig. 12 — repository growth: average R² vs number of enrolled devices.
pub fn fig12(data: &CostDataset) -> String {
    let iterations = if fast_mode() { 12 } else { 50 };
    let fractions = [0.1, 0.2, 0.3];

    let mut curves = Vec::new();
    for &frac in &fractions {
        let config = CollaborativeConfig {
            signature_size: 10,
            iterations,
            contribution_fraction: frac,
            seed: 7,
            gbdt: GbdtParams::default(),
        };
        curves.push(simulate_collaborative(data, &config));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Fig. 12 — collaborative model vs number of contributing devices\n"
    );
    let _ = writeln!(
        out,
        "Each enrolled device contributes its 10 signature latencies (its\n\
         representation) plus measurements on 10/20/30% of the other networks.\n\
         Reported: mean per-device R² over the {} non-signature networks, for all\n\
         enrolled devices.\n",
        data.n_networks() - 10
    );
    let _ = writeln!(out, "| devices | 10% contrib | 20% contrib | 30% contrib |");
    let _ = writeln!(out, "|---|---|---|---|");
    let checkpoints: Vec<usize> = [1usize, 5, 10, 20, 30, 40, 50]
        .into_iter()
        .filter(|&c| c <= iterations)
        .collect();
    // The printed value of each curve at each checkpoint.
    let mut table = vec![Vec::new(); curves.len()];
    for &cp in &checkpoints {
        let mut row = format!("| {cp} |");
        for (curve, printed) in curves.iter().zip(&mut table) {
            let point = curve
                .iter()
                .find(|p| p.n_devices == cp)
                .expect("one point per enrolled device");
            let _ = write!(row, " {:.3} |", point.avg_r2);
            printed.push(shown(point.avg_r2));
        }
        let _ = writeln!(out, "{row}");
    }

    let at10 = curves[0]
        .iter()
        .find(|p| p.n_devices == 10.min(iterations))
        .map(|p| p.avg_r2)
        .unwrap_or(f64::NAN);
    let _ = writeln!(
        out,
        "\n| milestone | paper | measured (10% contribution) |\n|---|---|---|"
    );
    let _ = writeln!(out, "| R² at 10 devices | > 0.9 | {:.3} |", at10);
    let reach95 = curves[0]
        .iter()
        .find(|p| p.avg_r2 > 0.95)
        .map(|p| p.n_devices.to_string())
        .unwrap_or_else(|| format!("> {iterations}"));
    let _ = writeln!(out, "| devices to exceed R² 0.95 | > 40 | {reach95} |");
    let _ = write!(out, "\n{}", growth(&fractions, &checkpoints, &table));
    out
}

/// What Fig. 12's curves show, read off the printed `table` (one row of
/// values per contribution fraction, one value per checkpoint): each
/// curve's first and last value and every fall between checkpoints.
fn growth(fractions: &[f64], checkpoints: &[usize], table: &[Vec<f64>]) -> String {
    let (first, last) = (checkpoints[0], checkpoints[checkpoints.len() - 1]);
    let device_s = |n: usize| if n == 1 { "device" } else { "devices" };
    let mut out = format!(
        "Mean R² from {first} to {last} enrolled {}, read off the table:\n\n",
        device_s(last)
    );
    let mut rises = true;
    let mut any_fall = false;
    for (fraction, values) in fractions.iter().zip(table) {
        let falls: Vec<String> = checkpoints
            .windows(2)
            .zip(values.windows(2))
            .filter(|(_, v)| v[1] < v[0])
            .map(|(c, v)| format!("from {} to {} ({:.3} → {:.3})", c[0], c[1], v[0], v[1]))
            .collect();
        let (start, end) = (values[0], values[values.len() - 1]);
        rises &= end > start;
        any_fall |= !falls.is_empty();
        let falls = if falls.is_empty() {
            "no fall between checkpoints".to_string()
        } else {
            format!("falls {}", falls.join(" and "))
        };
        let _ = writeln!(
            out,
            "- {:.0}% contribution: {start:.3} → {end:.3}; {falls}.",
            fraction * 100.0
        );
    }
    let verdict = match (rises, any_fall) {
        (true, false) => {
            "Accuracy grows with enrollment at every checkpoint even though each device\n\
             contributes only a sliver of measurements — the repository pools\n\
             hidden-state evidence across devices."
        }
        (true, true) => "Accuracy grows with enrollment overall, but not at every checkpoint.",
        (false, _) => "Accuracy does not grow with enrollment in every curve.",
    };
    let _ = writeln!(out, "\n{verdict}");
    out
}

/// Fig. 13 — isolated vs collaborative training for the Redmi Note 5 Pro.
pub fn fig13(data: &CostDataset) -> String {
    let device = data
        .device_index("Redmi Note 5 Pro")
        .expect("case-study device present");
    let sizes: Vec<usize> = if fast_mode() {
        vec![5, 20, 60, data.n_networks()]
    } else {
        let mut s: Vec<usize> = (1..=data.n_networks()).collect();
        s.retain(|&n| n <= 20 || n % 5 == 0 || n == data.n_networks());
        s
    };
    let gbdt = GbdtParams::default();
    let curve = isolated_curve(data, device, &sizes, &gbdt, 11);

    let collab_config = CollaborativeConfig {
        signature_size: 10,
        seed: 7,
        gbdt,
        ..CollaborativeConfig::default()
    };
    let n_cohort = 50.min(data.n_devices());
    let collab_r2 = collaborative_for_device(data, device, n_cohort, 10, &collab_config);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Fig. 13 — isolated vs collaborative cost model (Redmi Note 5 Pro, Kryo 260 Gold)\n"
    );
    let _ = writeln!(
        out,
        "Isolated: device-specific models trained on 1–118 of the device's own\n\
         measurements. Collaborative: {n_cohort} devices contribute 10 signature + 10\n\
         further measurements each; the shared model is evaluated on this device.\n"
    );
    let _ = writeln!(out, "| own measurements (isolated) | R² |");
    let _ = writeln!(out, "|---|---|");
    for p in curve
        .iter()
        .filter(|p| [1, 5, 10, 20, 40, 60, 80, 100, data.n_networks()].contains(&p.n_networks))
    {
        let _ = writeln!(out, "| {} | {:.3} |", p.n_networks, p.r2);
    }
    let _ = writeln!(
        out,
        "\nCollaborative model with **20 measurements from this device** (10 signature\n\
         + 10 training): R² = {:.3} (paper: 0.98 with 11x fewer measurements).\n",
        collab_r2
    );

    // How many isolated measurements match the collaborative accuracy?
    let needed = curve
        .iter()
        .find(|p| p.r2 >= collab_r2)
        .map(|p| p.n_networks);
    match needed {
        Some(n) => {
            let _ = writeln!(
                out,
                "The isolated model needs ≈ {n} of the device's own measurements to match\n\
                 the collaborative model — a {:.0}x reduction from collaboration\n\
                 (paper: ≈ 11x).",
                n as f64 / 20.0
            );
        }
        None => {
            let _ = writeln!(
                out,
                "No isolated model (even with all {} measurements) matches the\n\
                 collaborative model's R² = {:.3} — collaboration wins outright.",
                data.n_networks(),
                collab_r2
            );
        }
    }
    out
}
