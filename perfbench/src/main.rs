//! End-to-end and per-layer benchmark of the cost-model service and its
//! training job. See `README.md` beside this crate for the workloads and
//! metrics.
//!
//! ```text
//! perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--runs N] [--out PATH]
//! perfbench --compare PARENT.json CHANGE.json
//! ```

mod compare;
mod e2e;
mod fixture;
mod report;
mod server;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::compare::{compare, load_bounds, Verdict};
use crate::e2e::Ctx;
use crate::fixture::World;
use crate::report::{read_results, write_results, RunResult};
use crate::stats::Quartiles;
use crate::workload::Workload;

const USAGE: &str = "usage:
  perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out PATH]
  perfbench --compare PARENT.json CHANGE.json

  --workload NAME  nas_hot, nas_cold, device_ingest or paper_fit (default: all four)
  --seed N         seed of the generated traffic (default 42)
  --seconds S      measured seconds per run (default 20)
  --trace 0|1      1 replays the workload in process and reports per-layer metrics
  --runs N         repeat each workload N times on seeds S, S+1, ... (S from --seed) and summarise
  --out PATH       results file (default: perfbench/results.json in the target directory)
  --compare A B    verdict per (workload, metric) of results B against parent results A,
                   using the bounds in ./BENCHMARK.json";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        runs: 1,
        out: None,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads =
                    vec![Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => {
                args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let parent = PathBuf::from(value()?);
                args.compare = Some((parent, PathBuf::from(value()?)));
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The system under test runs with its defaults: drop every knob the
    // caller's environment sets before library code latches one.
    for (key, _) in std::env::vars() {
        if key.starts_with("GDCM_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.compare {
        Some((parent, change)) => compare_mode(parent, change),
        None => run_mode(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Runs the selected workloads; `Ok(false)` when any run is incorrect.
fn run_mode(args: &Args) -> Result<bool, String> {
    let root = e2e::default_root()?;
    let serves = args.workloads.iter().any(|&w| w != Workload::PaperFit);
    let server_bin = if serves {
        e2e::sibling_server_bin()?
    } else {
        PathBuf::new()
    };
    let world = World::paper();
    let mut results = Vec::new();
    for i in 0..args.runs {
        for &workload in &args.workloads {
            let ctx = Ctx {
                server_bin: server_bin.clone(),
                root: root.clone(),
                seed: args.seed.wrapping_add(i as u64),
                seconds: args.seconds,
            };
            let result = if args.trace {
                trace::run(workload, &ctx, &world)?
            } else {
                e2e::run(workload, &ctx, &world)?
            };
            eprint!("{}", result.describe());
            println!("{}", result.json_line());
            results.push(result);
        }
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| root.join("results.json"));
    write_results(&out, &results)?;
    eprintln!("perfbench: results in {}", out.display());
    if args.runs > 1 {
        eprint!("{}", summary(&results));
    }
    Ok(results.iter().all(RunResult::correct))
}

/// Median, quartiles and sample count of every (workload, metric).
fn summary(results: &[RunResult]) -> String {
    let mut groups: BTreeMap<(&str, &str), (Vec<f64>, &str)> = BTreeMap::new();
    for run in results {
        for m in &run.metrics {
            groups
                .entry((&run.workload, &m.name))
                .or_insert_with(|| (Vec::new(), &m.unit))
                .0
                .push(m.value);
        }
    }
    let mut out = format!(
        "{:<14} {:<28} {:>14} {:>14} {:>14} {:>4}\n",
        "workload", "metric", "median", "q1", "q3", "n"
    );
    for ((workload, metric), (values, unit)) in &groups {
        let q = Quartiles::of(values).expect("groups are non-empty");
        let _ = writeln!(
            out,
            "{workload:<14} {metric:<28} {:>14.4} {:>14.4} {:>14.4} {:>4} {unit}  (IQR/median {:.1}%)",
            q.median,
            q.q1,
            q.q3,
            values.len(),
            100.0 * q.iqr() / q.median.abs().max(f64::MIN_POSITIVE)
        );
    }
    out
}

/// Prints a verdict per (workload, metric); `Ok(false)` on any regression.
fn compare_mode(parent: &Path, change: &Path) -> Result<bool, String> {
    let bounds = load_bounds(Path::new("BENCHMARK.json"))?;
    let rows = compare(&read_results(parent)?, &read_results(change)?, &bounds);
    if rows.is_empty() {
        return Err("the two result files share no (workload, metric) pair".into());
    }
    println!(
        "{:<14} {:<16} {:>26} {:>26}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]"
    );
    for row in &rows {
        let fmt = |q: &Quartiles| format!("{:.4} [{:.4}, {:.4}]", q.median, q.q1, q.q3);
        println!(
            "{:<14} {:<16} {:>26} {:>26}  {}",
            row.workload,
            row.metric,
            fmt(&row.parent),
            fmt(&row.change),
            row.verdict.label()
        );
    }
    Ok(rows.iter().all(|r| r.verdict != Verdict::Regressed))
}
