//! Cost-model representation experiments (§III-C, §IV): Fig. 8–11, Table I.

use std::fmt::Write as _;

use gdcm_core::signature::{MutualInfoSelector, RandomSelector, SpearmanSelector};
use gdcm_core::{CostDataset, CostModelPipeline, EvalReport, PipelineConfig, StaticSpecEncoder};

use crate::fast_mode;
use crate::util::{device_clusters, mean, percentile, shown, std_dev, wrap};

fn pipeline(data: &CostDataset) -> CostModelPipeline<'_> {
    CostModelPipeline::new(data, PipelineConfig::default())
}

fn scatter_summary(report: &EvalReport) -> String {
    // A textual stand-in for the actual-vs-predicted scatter: quantiles of
    // the prediction ratio.
    let ratios: Vec<f64> = report
        .actual_ms
        .iter()
        .zip(&report.predicted_ms)
        .filter(|(&a, _)| a > 0.0)
        .map(|(&a, &p)| p as f64 / a as f64)
        .collect();
    format!(
        "predicted/actual ratio: p10 {:.2}, median {:.2}, p90 {:.2}",
        percentile(&ratios, 10.0),
        percentile(&ratios, 50.0),
        percentile(&ratios, 90.0)
    )
}

/// Fig. 8 — the static-specification hardware representation fails.
pub fn fig08(data: &CostDataset) -> String {
    let report = pipeline(data).run_static();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Fig. 8 — static hardware representation (baseline)\n"
    );
    let _ = writeln!(
        out,
        "Hardware = one-hot CPU model + frequency + DRAM size; XGBoost-style GBDT\n\
         (lr 0.1, 100 trees, depth 3); 70/30 device split; R² on unseen devices.\n"
    );
    let _ = writeln!(out, "| quantity | paper | measured |");
    let _ = writeln!(out, "|---|---|---|");
    let _ = writeln!(out, "| test R² | 0.13 | {:.3} |", report.r2);
    let _ = writeln!(out, "\nScatter summary: {}.", scatter_summary(&report));
    let _ = writeln!(
        out,
        "RMSE {:.1} ms over {} test points.",
        report.rmse_ms,
        report.actual_ms.len()
    );
    let _ = writeln!(
        out,
        "\nNote: the static baseline is intrinsically high-variance — its test R²\n\
         depends on whether the held-out devices' hidden state happens to correlate\n\
         with spec patterns learned from {} training devices over {} one-hot CPU\n\
         categories. The paper's 0.13 and the {:.3} measured here are single draws of\n\
         that unstable quantity. Fig. 9 sets the signature representation against\n\
         it on the same device split.",
        report.n_train_rows / data.n_networks(),
        StaticSpecEncoder::LEN - 2,
        report.r2
    );
    out
}

/// Fig. 9 — signature-set representations with RS / MIS / SCCS (m = 10).
pub fn fig09(data: &CostDataset) -> String {
    let p = pipeline(data);
    let reports = [
        (0.9125, p.run_signature(&RandomSelector::new(1))),
        (0.944, p.run_signature(&MutualInfoSelector::default())),
        (0.943, p.run_signature(&SpearmanSelector::default())),
    ];

    let mut out = String::new();
    let _ = writeln!(out, "## Fig. 9 — signature-set representation, m = 10\n");
    let _ = writeln!(
        out,
        "Hardware = measured latencies of 10 signature networks (selected on\n\
         training devices only; signature networks excluded from train/test rows).\n"
    );
    let _ = writeln!(
        out,
        "| method | paper R² | measured R² | RMSE (ms) | scatter |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (paper, r) in &reports {
        let _ = writeln!(
            out,
            "| {} | {:.3} | {:.4} | {:.1} | {} |",
            r.method,
            paper,
            r.r2,
            r.rmse_ms,
            scatter_summary(r)
        );
    }
    let _ = writeln!(
        out,
        "\nSignature sets: RS {:?}; MIS {:?}; SCCS {:?}.",
        reports[0].1.signature, reports[1].1.signature, reports[2].1.signature
    );
    let r2s: Vec<f64> = reports.iter().map(|(_, r)| r.r2).collect();
    let (lo, hi) = (percentile(&r2s, 0.0), percentile(&r2s, 100.0));
    let band = if hi < 0.91 {
        "below"
    } else if lo > 0.94 {
        "above"
    } else if lo >= 0.91 && hi <= 0.94 {
        "inside"
    } else {
        "across"
    };
    let static_r2 = p.run_static().r2;
    let _ = writeln!(
        out,
        "Measured R² spans {lo:.3}–{hi:.3}, {band} the paper's 0.91–0.94 band. The static\n\
         baseline on the same split measures {static_r2:.3} (Fig. 8), {:.3} below the\n\
         weakest signature method. Every signature method beats the static baseline\n\
         (the paper's central claim): {}.",
        lo - static_r2,
        if lo > static_r2 {
            "reproduced"
        } else {
            "not reproduced"
        }
    );
    out
}

/// Fig. 10 — variance across randomly chosen signature sets.
pub fn fig10(data: &CostDataset) -> String {
    let samples = if fast_mode() { 8 } else { 100 };
    let p = pipeline(data);
    // One independent training run per seed — the experiment's hot loop.
    // Ordered merge keeps the decile table identical at any thread count.
    let seeds: Vec<u64> = (0..samples as u64).collect();
    let r2s: Vec<f64> = gdcm_par::pool().par_map(&seeds, |&seed| {
        p.run_signature(&RandomSelector::new(seed)).r2
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Fig. 10 — {} randomly chosen signature sets (m = 10)\n",
        samples
    );
    let _ = writeln!(out, "| quantity | paper | measured |");
    let _ = writeln!(out, "|---|---|---|");
    let _ = writeln!(out, "| mean R² over samples | 0.93 | {:.3} |", mean(&r2s));
    let _ = writeln!(
        out,
        "| worst sample | ≈ 0.875 | {:.3} |",
        percentile(&r2s, 0.0)
    );
    let _ = writeln!(out, "| best sample | — | {:.3} |", percentile(&r2s, 100.0));
    let _ = writeln!(out, "| std over samples | — | {:.3} |", std_dev(&r2s));
    let below = r2s.iter().filter(|&&r| r < 0.875).count();
    // The paper's outliers sit 0.055 below its mean (0.93 vs ≈ 0.875).
    let gap = mean(&r2s) - percentile(&r2s, 0.0);
    let _ = writeln!(
        out,
        "\nSamples below the paper's outlier level (R² < 0.875): {below}/{samples}.\n\
         The worst sample sits {gap:.3} below the mean (paper: ≈ 0.055). Random\n\
         selection occasionally produces a poor representation (the paper's argument\n\
         for the deterministic MIS/SCCS): {}.",
        if gap >= 0.055 {
            "reproduced"
        } else {
            "not reproduced"
        }
    );
    let _ = writeln!(out, "\nR² per decile of samples:");
    let _ = writeln!(out, "\n| decile | R² |");
    let _ = writeln!(out, "|---|---|");
    for d in 0..=10 {
        let _ = writeln!(
            out,
            "| p{} | {:.3} |",
            d * 10,
            percentile(&r2s, d as f64 * 10.0)
        );
    }
    out
}

/// Fig. 11 — accuracy vs signature-set size.
pub fn fig11(data: &CostDataset) -> String {
    let sizes: &[usize] = if fast_mode() {
        &[4, 10]
    } else {
        &[2, 4, 6, 8, 10, 12, 16, 20]
    };
    let rs_samples = if fast_mode() { 2 } else { 10 };
    let p = pipeline(data);

    let mut out = String::new();
    let _ = writeln!(out, "## Fig. 11 — R² vs signature-set size\n");
    let _ = writeln!(
        out,
        "Paper: MIS/SCCS reach ≈ 0.94 already at sizes 5–10 and then saturate;\n\
         RS (averaged over samples) improves steadily with size.\n"
    );
    let _ = writeln!(out, "| size | RS (avg of {rs_samples}) | MIS | SCCS |");
    let _ = writeln!(out, "|---|---|---|---|");
    // The size sweep fans out one task per signature size; each task's
    // inner RS averaging stays serial so the pool isn't oversubscribed.
    let size_rows: Vec<(f64, f64, f64)> = gdcm_par::pool().par_map(sizes, |&m| {
        let cfg = PipelineConfig {
            signature_size: m,
            ..PipelineConfig::default()
        };
        let pm = CostModelPipeline::new(data, cfg);
        let rs = mean(
            &(0..rs_samples)
                .map(|s| pm.run_signature(&RandomSelector::new(s as u64)).r2)
                .collect::<Vec<_>>(),
        );
        let mis = pm.run_signature(&MutualInfoSelector::default()).r2;
        let sccs = pm.run_signature(&SpearmanSelector::default()).r2;
        (rs, mis, sccs)
    });
    let mut mis_curve = Vec::new();
    for (&m, &(rs, mis, sccs)) in sizes.iter().zip(&size_rows) {
        mis_curve.push(shown(mis));
        let _ = writeln!(out, "| {m} | {rs:.3} | {mis:.3} | {sccs:.3} |");
    }
    let _ = p;
    let _ = writeln!(out, "\n{}", mis_shape(sizes, &mis_curve));
    out
}

/// R² spread below which a stretch of a curve counts as flat.
const FLAT_R2: f64 = 0.05;

/// What Fig. 11's MIS column shows, read off its printed values: where
/// it starts and ends, its largest step, and the smallest size from
/// which it stays within [`FLAT_R2`].
fn mis_shape(sizes: &[usize], curve: &[f64]) -> String {
    let spread = |values: &[f64]| {
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        max - min
    };
    let flat_from = (0..curve.len())
        .find(|&i| spread(&curve[i..]) < FLAT_R2)
        .map_or(usize::MAX, |i| sizes[i]);
    let steps: Vec<f64> = curve.windows(2).map(|w| w[1] - w[0]).collect();
    let step_at = (1..steps.len()).fold(0, |best, i| {
        if steps[i].abs() > steps[best].abs() {
            i
        } else {
            best
        }
    });
    let step = steps.get(step_at).copied().unwrap_or(0.0);
    let last = curve.len() - 1;
    let shape = if flat_from == sizes[0] {
        format!(
            "stays within {FLAT_R2} R² from the smallest size, {}, so it shows no rise \
             that could saturate",
            sizes[0]
        )
    } else if flat_from <= 10 {
        format!("rises, then saturates from size {flat_from}")
    } else {
        "still moves beyond size 10".to_string()
    };
    let text = format!(
        "MIS R² is {:.3} at size {} and {:.3} at size {}; its largest step is {step:+.3}, \
         between sizes {} and {}. The curve {shape} (paper: saturates at 5–10 networks, \
         a 4–8% sampling ratio of the 118-network suite).",
        curve[0],
        sizes[0],
        curve[last],
        sizes[last],
        sizes[step_at],
        sizes[(step_at + 1).min(last)],
    );
    wrap(&text, 76)
}

/// Table I — generalization across adversarial (cluster-based) splits.
pub fn table1(data: &CostDataset) -> String {
    let clusters = device_clusters(data);
    let paper: [[f64; 3]; 3] = [
        [0.912, 0.964, 0.975], // RS
        [0.916, 0.973, 0.967], // MIS
        [0.949, 0.976, 0.970], // SCCS
    ];

    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Table I — train on two device clusters, test on the third\n"
    );
    let _ = writeln!(
        out,
        "Adversarial split: the test cluster's speed regime is unseen in training.\n\
         Paper: testing on *fast* is hardest; medium/slow generalize well (R² ≥ 0.96).\n"
    );
    let _ = writeln!(out, "| method | test fast | test medium | test slow |");
    let _ = writeln!(out, "|---|---|---|---|");

    let p = pipeline(data);
    let selectors: [(&str, Box<dyn gdcm_core::SignatureSelector + Sync>); 3] = [
        ("RS", Box::new(RandomSelector::new(1))),
        ("MIS", Box::new(MutualInfoSelector::default())),
        ("SCCS", Box::new(SpearmanSelector::default())),
    ];
    // All nine (selector, held-out cluster) folds are independent; fan
    // them out and reassemble the table in fold order.
    let folds: Vec<(usize, usize)> = (0..selectors.len())
        .flat_map(|si| (0..3).map(move |tc| (si, tc)))
        .collect();
    let fold_results: Vec<(f64, f64)> = gdcm_par::pool().par_map(&folds, |&(si, tc)| {
        let test = clusters.members[tc].clone();
        let train: Vec<usize> = (0..3)
            .filter(|&c| c != tc)
            .flat_map(|c| clusters.members[c].clone())
            .collect();
        let r = p.run_signature_with_split(selectors[si].1.as_ref(), &train, &test);
        (
            r.r2,
            gdcm_ml::metrics::spearman(&r.actual_ms, &r.predicted_ms),
        )
    });
    let mut measured = [[0f64; 3]; 3];
    let mut rank = [[0f64; 3]; 3];
    for (&(si, tc), &(r2, rho)) in folds.iter().zip(&fold_results) {
        measured[si][tc] = r2;
        rank[si][tc] = rho;
    }
    for (si, (name, _)) in selectors.iter().enumerate() {
        let mut row = format!("| {name} |");
        for test_cluster in 0..3 {
            let _ = write!(
                row,
                " {:.3} (paper {:.3}) |",
                measured[si][test_cluster], paper[si][test_cluster]
            );
        }
        let _ = writeln!(out, "{row}");
    }

    let _ = writeln!(out, "\nSpearman rank correlation on the same splits:\n");
    let _ = writeln!(out, "| method | test fast | test medium | test slow |");
    let _ = writeln!(out, "|---|---|---|---|");
    for (si, (name, _)) in selectors.iter().enumerate() {
        let _ = writeln!(
            out,
            "| {name} | {:.3} | {:.3} | {:.3} |",
            rank[si][0], rank[si][1], rank[si][2]
        );
    }

    let fast_hardest = (0..3).all(|s| {
        measured[s][0] <= measured[s][1] + 0.02 && measured[s][0] <= measured[s][2] + 0.02
    });
    let _ = writeln!(
        out,
        "\nFast cluster is the hardest test target: {} (paper: yes — flagship\n\
         microarchitectures are unlike the mid/low tiers, so training diversity matters).",
        if fast_hardest {
            "reproduced"
        } else {
            "not reproduced"
        }
    );
    let r2s: Vec<f64> = measured.iter().flatten().copied().collect();
    let rhos: Vec<f64> = rank.iter().flatten().copied().collect();
    let below = r2s
        .iter()
        .zip(paper.iter().flatten())
        .filter(|(m, p)| m < p)
        .count();
    let _ = writeln!(
        out,
        "\n**Known divergence.** {below} of the 9 raw-millisecond R² values fall below\n\
         the paper's: tree ensembles cannot extrapolate beyond the latency range\n\
         seen in training, and on this simulated fleet the k-means clusters separate\n\
         realized speed more sharply than the authors' dense physical fleet, so the\n\
         held-out cluster demands genuine extrapolation. The rank correlations above\n\
         stay between {:.3} and {:.3} even where the raw-scale R² falls to {:.3}: the\n\
         model still *orders* workloads on the unseen cluster.",
        percentile(&rhos, 0.0),
        percentile(&rhos, 100.0),
        percentile(&r2s, 0.0)
    );
    out
}
