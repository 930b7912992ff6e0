//! What one run reports, and the metric names it reports under.
//!
//! Every workload reports every end-to-end metric; each generic name
//! carries the workload's own measurement (see `perfbench/README.md` for
//! the per-workload mapping). A per-layer metric of a layer the workload
//! never calls reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("quality", "score"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("core.prepare_ms", "ms"),
    ("core.schedule_ms", "ms"),
    ("sched.xtalk.leaves", "count"),
    ("sched.xtalk.candidate_pairs", "count"),
    ("sched.xtalk.complete_ratio", "ratio"),
    ("sched.realize_calls", "count"),
    ("sched.realize_ms", "ms"),
    ("pass.cache_hit_ratio", "ratio"),
    ("pass.cache_hits", "count"),
    ("pass.cache_misses", "count"),
    ("pass.cache_entries", "count"),
    ("charac.rb_bin_ms", "ms"),
    ("charac.srb_bin_ms", "ms"),
    ("charac.gen_fit_ms", "ms"),
    ("charac.experiments", "count"),
    ("charac.false_pairs", "count"),
    ("device.on_day_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.shots", "count"),
    ("sim.shots_per_s", "1/s"),
    ("serve.wire_ms", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.job_ms_mean", "ms"),
    ("serve.busy_rejections", "count"),
    ("serve.rejected_admission", "count"),
    ("serve.charac_cache_hit_ratio", "ratio"),
    ("serve.charac_cache_entries", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The outcome of one run.
#[derive(Default, Debug)]
pub struct Report {
    /// Failed correctness checks (empty = correct).
    pub failures: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Measured metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Counts that must repeat exactly for a given seed.
    pub exact: Vec<(&'static str, String)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed correctness check, keeping the first few.
    pub fn fail(&mut self, what: impl Into<String>) {
        if self.failures.len() < 20 {
            self.failures.push(what.into());
        }
    }

    /// Records an exact count.
    pub fn exact(&mut self, name: &'static str, value: impl ToString) {
        self.exact.push((name, value.to_string()));
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// The result object: the metrics of `table`, each with its unit.
    /// Missing per-layer metrics read 0 (layer not exercised).
    pub fn result_json(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lists_every_metric_with_its_unit() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        let json = r.result_json(&END_TO_END);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(json.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MiB\"}"));
        let parsed = xtalk_serve::Json::parse(&json).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        for (name, _) in END_TO_END {
            assert!(metrics.get(name).is_some(), "{name} missing");
        }
    }
}
