//! Metric names, the values one run collects, and the result line.
//!
//! The names here are the benchmark's contract: `BENCHMARK.json` at the
//! repository root lists the same names, and `selftest.py` checks that
//! every one of them is printed for every workload.

use std::collections::BTreeMap;

/// A metric's name and unit.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// What a user of the system waits for, measured with tracing off.
pub const END_TO_END: &[Spec] = &[
    spec("run_s", "s"),
    spec("setup_s", "s"),
    spec("sim_us_per_iter", "us"),
    spec("peak_rss_mb", "MB"),
];

/// Single-layer counters and timings, printed by the traced run.
/// Layer prefixes are the workspace modules: `sim` (event core), `topo`
/// (flow solver), `net` (fabric), `ucx`, `gpu`, `rt` (runtime
/// scheduler), `jacobi3d`, `sweep` (pool, world reuse, fork), plus
/// `trace` for the cost of tracing itself.
pub const PER_LAYER: &[Spec] = &[
    spec("sim.events", "count"),
    spec("sim.peak_pending", "count"),
    spec("sim.events_per_s", "1/s"),
    spec("topo.recomputes", "count"),
    spec("topo.touched_flows", "count"),
    spec("topo.touched_links", "count"),
    spec("topo.flows_per_recompute", "count"),
    spec("topo.rate_updates_avoided", "count"),
    spec("net.messages", "count"),
    spec("net.bytes", "B"),
    spec("net.inter_bytes", "B"),
    spec("net.control_messages", "count"),
    spec("net.peak_link_flows", "count"),
    spec("net.max_link_utilization", "frac"),
    spec("net.drops", "count"),
    spec("net.link_busy_us", "us"),
    spec("ucx.gpudirect", "count"),
    spec("ucx.active_messages", "count"),
    spec("ucx.retransmits", "count"),
    spec("ucx.timeouts", "count"),
    spec("ucx.duplicates", "count"),
    spec("ucx.retransmit_frac", "frac"),
    spec("gpu.kernels", "count"),
    spec("gpu.completions", "count"),
    spec("gpu.memcpys", "count"),
    spec("gpu.memcpy_bytes", "B"),
    spec("gpu.kernel_busy_us", "us"),
    spec("gpu.dma_busy_us", "us"),
    spec("rt.entries", "count"),
    spec("rt.sends", "count"),
    spec("rt.high_priority", "count"),
    spec("rt.pe_cpu_us", "us"),
    spec("rt.cpu_utilization", "frac"),
    spec("rt.entry_busy_us", "us"),
    spec("jacobi3d.build_s", "s"),
    spec("jacobi3d.checksum_mismatches", "count"),
    spec("sweep.scenarios", "count"),
    spec("sweep.scenarios_per_s", "1/s"),
    spec("sweep.scenario_ms_p50", "ms"),
    spec("sweep.scenario_ms_p99", "ms"),
    spec("sweep.scenario_samples", "count"),
    spec("sweep.reuse_frac", "frac"),
    spec("sweep.fork_frac", "frac"),
    spec("sweep.snapshot_us_mean", "us"),
    spec("sweep.restore_us_mean", "us"),
    spec("sweep.declined", "count"),
    spec("sweep.stalled", "count"),
    spec("sweep.setup_us_mean", "us"),
    spec("trace.overhead_frac", "frac"),
];

/// Named values collected by one run. Names outside [`END_TO_END`] and
/// [`PER_LAYER`] are rejected, so a typo cannot silently drop a metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Add `v` to the metric (missing counts as 0).
    pub fn add(&mut self, name: &'static str, v: f64) {
        let cur = self.get(name);
        self.set(name, cur + v);
    }

    /// Raise the metric to `v` if it is lower.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let cur = self.get(name);
        self.set(name, cur.max(v));
    }

    pub fn extend(&mut self, other: &Values) {
        for (&k, &v) in &other.0 {
            self.set(k, v);
        }
    }
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Pass/fail tally of everything a run attempted.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks that are not single attempts (e.g. a dead sweep
    /// axis); any one makes the run incorrect.
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one attempt, failed when `ok` is false.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: failed: {}", what());
        }
    }

    pub fn error(&mut self, msg: String) {
        eprintln!("perfbench: check failed: {msg}");
        self.errors.push(msg);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }
}

/// The last line of standard output: correctness, attempt counts, and
/// every metric of `specs` with its unit.
pub fn result_line(tally: &Tally, specs: &[Spec], values: &Values) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|s| {
            let v = values.get(s.name);
            assert!(v.is_finite(), "metric {} is not finite: {v}", s.name);
            // `{v}` prints every digit of the shortest round-trip form
            // and never an exponent, so it is always a JSON number.
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                s.name, s.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    )
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut v = Values::default();
        v.set("run_s", 1.25);
        let mut t = Tally::default();
        t.attempt(true, String::new);
        let line = result_line(&t, END_TO_END, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
