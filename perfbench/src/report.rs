//! Summary statistics, host facts and the result line.

use milo_core::json_string;
use std::collections::BTreeMap;

/// Median of `xs` (the mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Geometric mean of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host facts printed with every result: CPU count, the pool-size
/// override and the source revision (`run.py` passes the revision in
/// `PERFBENCH_COMMIT`, since a benchmark checkout need not be a git
/// repository).
pub fn host_json() -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_default();
    format!(
        "{{\"host\": {{\"nproc\": {}, \"MILO_PAR_THREADS\": {}, \"commit\": {}}}}}",
        nproc(),
        json_string(&env("MILO_PAR_THREADS")),
        json_string(&env("PERFBENCH_COMMIT")),
    )
}

/// Finite numbers as-is, anything else as JSON `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Named metrics with their units, in name order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// The value of a metric, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_num(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one benchmark invocation produced.
pub struct Outcome {
    /// Flows or jobs attempted (measured runs, replays, checks).
    pub attempted: usize,
    /// Failure descriptions; empty when every output checked out.
    pub failures: Vec<String>,
    /// The metrics to print.
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        let correct = self.failures.is_empty()
            && self.attempted > 0
            && self.metrics.0.values().all(|(v, _)| v.is_finite());
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            correct,
            self.attempted,
            self.failures.len(),
            self.metrics.to_json()
        )
    }
}
