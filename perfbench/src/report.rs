//! One run's result, its JSON forms, and the results file.

use std::fmt::Write as _;
use std::path::Path;

use serde_json::Value;

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context for a reader: sample counts, generator checks, timings
    /// no metric bounds.
    pub info: Vec<(String, f64)>,
    /// Failed correctness checks; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Reasons the load generator may have limited the measurement.
    pub invalid: Vec<String>,
}

impl RunResult {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            info: Vec::new(),
            errors: Vec::new(),
            invalid: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    pub fn fail(&mut self, why: String) {
        self.errors.push(why);
    }

    pub fn invalidate(&mut self, why: String) {
        self.invalid.push(why);
    }

    pub fn info(&mut self, name: &str, value: f64) {
        self.info.push((name.to_string(), value));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        if !value.is_finite() {
            self.fail(format!("{name} measured as {value}"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// The end-to-end metrics every workload reports.
    pub fn set_e2e(
        &mut self,
        setup_s: f64,
        op_p50_us: f64,
        ops_per_s: f64,
        peak_rss_mb: f64,
        mape_pct: f64,
    ) {
        self.metric("setup_s", setup_s, "s");
        self.metric("op_p50_us", op_p50_us, "us");
        self.metric("ops_per_s", ops_per_s, "1/s");
        self.metric("peak_rss_mb", peak_rss_mb, "MB");
        self.metric("model_mape_pct", mape_pct, "%");
    }

    /// The one-line object the benchmark prints last on stdout.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(&m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The full record kept in the results file.
    pub fn to_json(&self) -> String {
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        let list = |items: &[String]| {
            items
                .iter()
                .map(|s| json_str(s))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"valid\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"info\": {{{}}}, \
             \"errors\": [{}], \"invalid\": [{}]}}",
            json_str(&self.workload),
            self.seed,
            self.trace,
            self.correct(),
            self.invalid.is_empty(),
            self.attempted,
            self.failed,
            self.metrics_json(),
            info.join(", "),
            list(&self.errors),
            list(&self.invalid),
        )
    }

    fn from_json(v: &Value) -> Option<Self> {
        let mut run = Self::new(
            v.get("workload")?.as_str()?,
            v.get("seed")?.as_u64()?,
            v.get("trace")?.as_bool()?,
        );
        run.attempted = v.get("attempted")?.as_u64()?;
        run.failed = v.get("failed")?.as_u64()?;
        let metrics = v.get("metrics")?;
        for name in metrics.keys()? {
            let m = metrics.get(name)?;
            run.metric(name, m.get("value")?.as_f64()?, m.get("unit")?.as_str()?);
        }
        for e in v.get("errors")?.as_array()? {
            run.fail(e.as_str()?.to_string());
        }
        for e in v.get("invalid")?.as_array()? {
            run.invalidate(e.as_str()?.to_string());
        }
        Some(run)
    }

    /// A human-readable block: every metric by name, with its unit.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "== {} (seed {}{}): {}, {} attempted, {} failed\n",
            self.workload,
            self.seed,
            if self.trace { ", trace" } else { "" },
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            },
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for (k, v) in &self.info {
            let _ = writeln!(out, "  ({k} = {v:.4})");
        }
        for e in &self.errors {
            let _ = writeln!(out, "  ERROR: {e}");
        }
        for e in &self.invalid {
            let _ = writeln!(out, "  INVALID RUN: {e}");
        }
        out
    }
}

/// Writes every run to `path` as `{"runs": [...]}`.
pub fn write_results(path: &Path, runs: &[RunResult]) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    let body: Vec<String> = runs.iter().map(RunResult::to_json).collect();
    std::fs::write(path, format!("{{\"runs\": [\n{}\n]}}\n", body.join(",\n")))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Reads a results file written by [`write_results`].
pub fn read_results(path: &Path) -> Result<Vec<RunResult>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    v.get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{} has no runs", path.display()))?
        .into_iter()
        .map(|r| {
            RunResult::from_json(r)
                .ok_or_else(|| format!("{} holds a malformed run", path.display()))
        })
        .collect()
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_round_trip_through_the_file_format() {
        let mut run = RunResult::new("nas_hot", 7, false);
        run.attempted = 12;
        run.failed = 1;
        run.metric("setup_s", 0.8127, "s");
        run.metric("op_p50_us", 21.5, "us");
        run.info("samples", 3.0);
        run.fail("a \"quoted\"\nproblem".into());
        let dir = std::env::temp_dir().join(format!("perfbench-report-{}", std::process::id()));
        let path = dir.join("results.json");
        write_results(&path, std::slice::from_ref(&run)).expect("writes");
        let back = read_results(&path).expect("reads");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].metrics, run.metrics);
        assert_eq!(back[0].errors, run.errors);
        assert_eq!((back[0].attempted, back[0].failed), (12, 1));
        assert!(!back[0].correct());
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let mut run = RunResult::new("paper_fit", 1, false);
        run.attempted = 3;
        run.metric("setup_s", 0.25, "s");
        let v: Value = serde_json::from_str(&run.json_line()).expect("valid JSON");
        let mut keys = v.keys().expect("an object");
        keys.sort_unstable();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.25));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
    }
}
