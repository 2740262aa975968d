//! The metrics the benchmark declares, and the report every run prints.

use std::collections::BTreeMap;
use std::fmt::Display;

/// End-to-end metrics: printed by every untraced run, on every workload.
/// `(name, unit)`; directions and bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("round_s", "s"),
];

/// Per-layer metrics: printed by every traced run. A metric whose layer
/// the workload does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.dst_world_s", "s"),
    ("sim.arm.transparent_s", "s"),
    ("sim.arm.lossy_s", "s"),
    ("sim.arm.churning_s", "s"),
    ("sim.arm.byzantine_s", "s"),
    ("sim.episode_p50_ms", "ms"),
    ("sim.episode_p99_ms", "ms"),
    ("sim.ns_per_event", "ns"),
    ("sim.explore_rss_mb", "MB"),
    ("tomography.infer_window_us", "us"),
    ("topology.generate_s", "s"),
    ("topology.bfs_ms", "ms"),
    ("topology.bfs_runs", "count"),
    ("sim.world_build_s", "s"),
    ("sim.world_build_rss_mb", "MB"),
    ("tomography.tree_clone_ms", "ms"),
    ("tomography.forest_ms", "ms"),
    ("tomography.forest_query_ms", "ms"),
    ("sim.probe_evidence_us", "us"),
    ("core.blame_us", "us"),
    ("bench.fig4_s", "s"),
    ("bench.fig5_judgments_per_s", "1/s"),
    ("serve.generate_s", "s"),
    ("serve.run_s", "s"),
    ("serve.finish_s", "s"),
    ("serve.recover_s", "s"),
    ("serve.journal_scan_s", "s"),
    ("serve.journal_mb", "MB"),
    ("serve.flight_tail_mb", "MB"),
    ("serve.bytes_per_report", "B"),
    ("trace.setup_uncovered_s", "s"),
    ("trace.stage_uncovered_s", "s"),
    ("trace.overhead_s", "s"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a correctness check and prints its outcome.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Display) {
        println!(
            "check {name}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        );
        self.checks.push((name.to_string(), ok));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|&(_, ok)| ok)
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared");
        self.metrics.insert(name, value);
    }

    /// The final JSON line: every metric of the run's kind, by name and
    /// unit. Per-layer metrics the workload did not measure read 0; a
    /// missing end-to-end metric is an error.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in declared {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`,
    /// with their `"unit"`s.
    fn declared_in(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present");
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(declared_in(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared_in(&json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn json_lists_every_metric_of_the_run_kind() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.check("x", true, "fine");
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.set("core.blame_us", 2.25);
        let e2e = r.to_json(false).unwrap();
        assert!(e2e.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(e2e.contains("\"work_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
        assert!(!e2e.contains("core.blame_us"));
        let layered = r.to_json(true).unwrap();
        assert!(layered.contains("\"core.blame_us\": {\"value\": 2.25, \"unit\": \"us\"}"));
        assert!(layered.contains("\"serve.run_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert_eq!(layered.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(Report::default().to_json(false).is_err());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        Report::default().set("latency_ms", 1.0);
    }
}
