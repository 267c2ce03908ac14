//! The benchmark's result: every metric with its unit and sample count, the
//! operations attempted and failed, and the closing JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics every workload reports, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cover_vertices", "count"),
    ("update_visible_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, as `(name, unit)`. A workload that
/// bypasses a layer reports its metrics as 0 in the JSON line (`n/a` in the
/// table).
pub const PER_LAYER: [(&str, &str); 29] = [
    ("graph.generate_s", "s"),
    ("graph.scc_ms", "ms"),
    ("graph.compactions", "count"),
    ("cycle.filter_ms", "ms"),
    ("cycle.filter_calls", "count"),
    ("cycle.filter_prune_ratio", "ratio"),
    ("cycle.dfs_ms", "ms"),
    ("cycle.dfs_queries", "count"),
    ("cycle.dfs_pushes", "count"),
    ("cycle.dfs_edges_scanned", "count"),
    ("cycle.dfs_hit_ratio", "ratio"),
    ("cycle.edge_queries", "count"),
    ("core.solve_ms", "ms"),
    ("core.scan_self_ms", "ms"),
    ("core.cycle_queries", "count"),
    ("core.filter_released", "count"),
    ("dynamic.apply_ms", "ms"),
    ("dynamic.minimize_ms", "ms"),
    ("dynamic.minimize_checked", "count"),
    ("dynamic.pruned", "count"),
    ("dynamic.minimize_useful_ratio", "ratio"),
    ("serve.cover_p50_ms", "ms"),
    ("serve.breakers_p50_ms", "ms"),
    ("serve.snapshot_breakers_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.minimizes", "count"),
    ("serve.writer_late_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Value standing in for a split the replay could not reproduce (see
/// `replay`): a negative time cannot be mistaken for a measurement.
pub const UNAVAILABLE: f64 = -1.0;

#[derive(Debug, Clone, Copy)]
struct Measured {
    value: f64,
    samples: usize,
}

/// Results of one benchmark run.
#[derive(Debug)]
pub struct Report {
    workload: &'static str,
    /// Whether this is the traced run, whose JSON carries [`PER_LAYER`].
    trace: bool,
    pub attempted: u64,
    failures: Vec<String>,
    failed: u64,
    metrics: BTreeMap<&'static str, Measured>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, trace: bool) -> Self {
        Report {
            workload,
            trace,
            attempted: 0,
            failures: Vec::new(),
            failed: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Count one failed operation (a cover failing its audit, a count that
    /// differs from its reference, a request answered `ERR` or not at all).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        eprintln!("FAILED: {why}");
        // Keep the printed list short; the count stays exact.
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record metric `name` (one of [`END_TO_END`] or [`PER_LAYER`]),
    /// measured from `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite"));
            return;
        }
        self.metrics.insert(name, Measured { value, samples });
    }

    /// The metrics this run's JSON line carries.
    fn required(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Record a percentile. A refused one (too few samples) fails the run
    /// when its JSON line needs the metric, and is only noted otherwise.
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], p: u32) {
        match crate::stats::percentile(samples, p) {
            Some(v) => self.set(name, v, samples.len()),
            None => {
                let why = format!(
                    "{name}: p{p} needs {} samples beyond it, have {} in all",
                    crate::stats::MIN_BEYOND,
                    samples.len()
                );
                if self.required().iter().any(|&(n, _)| n == name) {
                    self.fail(why);
                } else {
                    self.note(why);
                }
            }
        }
    }

    /// End-to-end metrics not measured although the JSON line needs them
    /// (per-layer ones are allowed to be absent: their layer was bypassed).
    fn missing(&self) -> Vec<&'static str> {
        if self.trace {
            return Vec::new();
        }
        END_TO_END
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !self.metrics.contains_key(n))
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.missing().is_empty()
    }

    /// Print the table of every metric, then the JSON line carrying the
    /// end-to-end metrics, or the per-layer ones in the traced run.
    pub fn print(&mut self) {
        if self.attempted == 0 {
            self.fail("no operation was attempted");
        }
        for name in self.missing() {
            self.fail(format!("end-to-end metric {name} was not measured"));
        }
        println!("workload {}", self.workload);
        println!(
            "{:<32} {:>16} {:<6} {:>8}",
            "metric", "value", "unit", "samples"
        );
        let rows = |set: &[(&'static str, &'static str)], title: &str| {
            println!("-- {title}");
            for &(name, unit) in set {
                match self.metrics.get(name) {
                    Some(m) => println!("{name:<32} {:>16.4} {unit:<6} {:>8}", m.value, m.samples),
                    None => println!("{name:<32} {:>16} {unit:<6} {:>8}", "n/a", 0),
                }
            }
        };
        rows(&END_TO_END, "end to end");
        if self.trace {
            rows(&PER_LAYER, "per layer (traced run)");
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        println!(
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for why in &self.failures {
            println!("failure: {why}");
        }
        let metrics: Vec<String> = self
            .required()
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).map_or(0.0, |m| m.value);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, _)| n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn refused_percentiles_and_missing_metrics_fail_the_run() {
        let mut r = Report::new("test", false);
        r.set_percentile("latency_tail_ms", &[1.0; 50], 90);
        assert_eq!(r.failed, 1);
        for &(name, _) in END_TO_END.iter() {
            r.set(name, 1.0, 1);
        }
        assert!(!r.correct(), "an earlier failure keeps the run incorrect");
        let mut partial = Report::new("test", false);
        partial.set("setup_s", 1.0, 5);
        assert!(!partial.correct(), "missing end-to-end metrics");
    }

    #[test]
    fn traced_runs_only_note_refused_end_to_end_percentiles() {
        let mut r = Report::new("test", true);
        r.set_percentile("latency_tail_ms", &[1.0; 50], 90);
        assert_eq!(r.failed, 0);
        assert!(
            r.correct(),
            "bypassed layers and e2e metrics are not required"
        );
        r.set_percentile("serve.writer_late_ms", &[1.0; 50], 90);
        assert_eq!(r.failed, 1);
    }
}
