//! `--compare PARENT CHANGE`: a verdict per (workload, metric).
//!
//! The rule:
//! - **regressed** when the change's median is worse than the parent's
//!   by more than the metric's bound in `BENCHMARK.json`;
//! - **improved** when the change wins at least 9 of every 10 paired
//!   runs (ties count for neither) and its median beats the parent's by
//!   more than the parent's interquartile range;
//! - **unresolved** when either side's spread (IQR over median) is wider
//!   than the bound, unless every change run reads better than every
//!   parent run;
//! - **no change** otherwise.

use std::path::Path;

use serde_json::Value;

use crate::report::RunResult;
use crate::stats::Quartiles;

/// An end-to-end metric's direction and regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoChange,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoChange => "no change",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reads the `end_to_end` bounds from a `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    v.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .into_iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

/// The verdict for one metric on one workload. `parent[i]` and
/// `change[i]` are the i-th runs of each side, paired in run order.
pub fn verdict(parent: &[f64], change: &[f64], bound: &Bound) -> Option<Verdict> {
    let p = Quartiles::of(parent)?;
    let c = Quartiles::of(change)?;
    // Orient every value so that larger is better.
    let sign = if bound.lower_is_better { -1.0 } else { 1.0 };
    let gain = sign * (c.median - p.median);
    if -gain > bound.bound * p.median.abs() {
        return Some(Verdict::Regressed);
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&a, &b)| sign * (b - a) > 0.0)
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && gain > p.iqr() {
        return Some(Verdict::Improved);
    }
    let spread = |q: &Quartiles| q.iqr() / q.median.abs().max(f64::MIN_POSITIVE);
    let worst_change = change
        .iter()
        .map(|&v| sign * v)
        .fold(f64::INFINITY, f64::min);
    let best_parent = parent
        .iter()
        .map(|&v| sign * v)
        .fold(f64::NEG_INFINITY, f64::max);
    if (spread(&p) > bound.bound || spread(&c) > bound.bound) && worst_change <= best_parent {
        return Some(Verdict::Unresolved);
    }
    Some(Verdict::NoChange)
}

/// One row of the comparison.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub parent: Quartiles,
    pub change: Quartiles,
    pub verdict: Verdict,
}

/// Compares every (workload, end-to-end metric) the two result sets
/// share. Trace runs carry no bounded metric and are skipped.
pub fn compare(parent: &[RunResult], change: &[RunResult], bounds: &[Bound]) -> Vec<Row> {
    let values = |runs: &[RunResult], workload: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| !r.trace && r.workload == workload)
            .filter_map(|r| r.metrics.iter().find(|m| m.name == metric).map(|m| m.value))
            .collect()
    };
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for workload in workloads {
        for bound in bounds {
            let (p, c) = (
                values(parent, workload, &bound.name),
                values(change, workload, &bound.name),
            );
            if let (Some(verdict), Some(pq), Some(cq)) =
                (verdict(&p, &c, bound), Quartiles::of(&p), Quartiles::of(&c))
            {
                rows.push(Row {
                    workload: workload.to_string(),
                    metric: bound.name.clone(),
                    parent: pq,
                    change: cq,
                    verdict,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "op_p50_us".into(),
            lower_is_better: true,
            bound,
        }
    }

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7,
    ];

    #[test]
    fn a_clear_consistent_gain_is_improved() {
        let change = PARENT.map(|v| v * 0.9);
        assert_eq!(
            verdict(&PARENT, &change, &lower(0.1)),
            Some(Verdict::Improved)
        );
    }

    #[test]
    fn worse_beyond_the_bound_is_regressed() {
        let change = PARENT.map(|v| v * 1.2);
        assert_eq!(
            verdict(&PARENT, &change, &lower(0.1)),
            Some(Verdict::Regressed)
        );
        // The same drop on a higher-is-better metric regresses too.
        let qps = Bound {
            name: "ops_per_s".into(),
            lower_is_better: false,
            bound: 0.1,
        };
        let fewer = PARENT.map(|v| v * 0.8);
        assert_eq!(verdict(&PARENT, &fewer, &qps), Some(Verdict::Regressed));
        assert_eq!(verdict(&PARENT, &change, &qps), Some(Verdict::Improved));
    }

    #[test]
    fn a_small_or_inconsistent_gain_is_no_change() {
        // Within the bound and inside the parent's own spread.
        let change = PARENT.map(|v| v * 0.999);
        assert_eq!(
            verdict(&PARENT, &change, &lower(0.1)),
            Some(Verdict::NoChange)
        );
        // A big median gain that wins only 5 of 10 pairs is not a gain.
        let mut mixed = PARENT;
        for v in mixed.iter_mut().step_by(2) {
            *v *= 0.5;
        }
        assert_ne!(
            verdict(&PARENT, &mixed, &lower(0.6)),
            Some(Verdict::Improved)
        );
        // Ties count for neither side.
        assert_eq!(
            verdict(&PARENT, &PARENT, &lower(0.1)),
            Some(Verdict::NoChange)
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            80.0, 120.0, 90.0, 110.0, 70.0, 130.0, 100.0, 95.0, 105.0, 85.0,
        ];
        let change = noisy.map(|v| v * 1.01);
        assert_eq!(
            verdict(&noisy, &change, &lower(0.05)),
            Some(Verdict::Unresolved)
        );
        // Unless every change run beats every parent run.
        let separated = noisy.map(|v| v * 0.4);
        assert_eq!(
            verdict(&noisy, &separated, &lower(0.05)),
            Some(Verdict::Improved)
        );
        assert_eq!(verdict(&[], &change, &lower(0.05)), None);
    }

    #[test]
    fn compare_pairs_runs_by_workload_and_skips_trace_runs() {
        let run = |workload: &str, value: f64, trace: bool| {
            let mut r = RunResult::new(workload, 1, trace);
            r.metric("op_p50_us", value, "us");
            r
        };
        let parent: Vec<RunResult> = (0..10)
            .map(|i| run("nas_hot", 100.0 + i as f64 * 0.1, false))
            .collect();
        let mut change: Vec<RunResult> = (0..10)
            .map(|i| run("nas_hot", 150.0 + i as f64 * 0.1, false))
            .collect();
        change.push(run("nas_hot", 1.0, true));
        let rows = compare(&parent, &change, &[lower(0.1)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[0].workload, "nas_hot");
    }
}
