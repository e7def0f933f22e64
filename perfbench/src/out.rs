//! Metric collection and the result line.

use std::collections::BTreeMap;

use crate::stats::Pct;

/// Named metrics of one run, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }
}

/// Sets the gated `latency_p50_rel` and `latency_tail_rel` to `p50` and
/// `tail` divided by `per`. An unresolved percentile is reported as null,
/// never as 0, which would read as the best possible latency. Returns
/// whether both were resolved; a run with an unresolved one is incorrect.
pub fn set_latencies(e: &mut Metrics, p50: Option<Pct>, tail: Option<Pct>, per: f64) -> bool {
    let rel = |p: Option<Pct>| p.map_or(f64::NAN, |p| p.value / per);
    e.set("latency_p50_rel", rel(p50), "x_mean_service");
    e.set("latency_tail_rel", rel(tail), "x_mean_service");
    p50.is_some() && tail.is_some()
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Gated end-to-end metrics (untraced runs).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    /// Human-readable lines printed before the result line, including the
    /// workload-specific end-to-end figures under their own names.
    pub table: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Whether every completed job produced the right output and every
    /// determinism check held.
    pub correct: bool,
}

impl Outcome {
    pub fn line(&mut self, s: impl Into<String>) {
        self.table.push(s.into());
    }
}

/// Peak resident set of this process in MiB, from the kernel's
/// high-water mark for the process itself.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The single JSON result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unresolved_latency_is_null_and_fails_the_run() {
        let mut m = Metrics::default();
        let p = Pct {
            value: 6.0,
            samples: 100,
        };
        assert!(set_latencies(&mut m, Some(p), Some(p), 2.0));
        assert_eq!(m.get("latency_tail_rel"), Some(3.0));
        assert!(!set_latencies(&mut m, Some(p), None, 2.0));
        assert!(result_json(false, 1, 0, &m).contains("\"latency_tail_rel\": {\"value\": null"));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5, "s");
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
