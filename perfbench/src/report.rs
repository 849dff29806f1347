//! The result line and the metric catalogue.

use std::collections::BTreeMap;

use crate::stats::{floor, median, tail};

/// Every per-layer metric, with its unit. A traced run prints all of
/// them; layers a workload never reaches read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.rtt_us", "us"),
    ("serve.engine_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.bytes_out_per_op", "B"),
    ("serve.plan_hit_ratio", "ratio"),
    ("serve.plan_hits", "count"),
    ("serve.plan_misses", "count"),
    ("serve.parses_per_op", "ratio"),
    ("serve.evictions_per_write", "ratio"),
    ("serve.fused_per_read", "ratio"),
    ("serve.overlapped_writes", "count"),
    ("serve.busy_rejected", "count"),
    ("query.parse_us", "us"),
    ("query.oracle_us", "us"),
    ("query.stage_write_us", "us"),
    ("opt.optimize_us", "us"),
    ("host.query_us", "us"),
    ("host.kernel_busy_us", "us"),
    ("host.overhead_us", "us"),
    ("host.send_wait_us", "us"),
    ("host.units_per_query", "count"),
    ("host.pages_moved_per_query", "count"),
    ("host.worker_util", "ratio"),
    ("relalg.kernel_mib_s", "MiB/s"),
    ("view.apply_write_us", "us"),
    ("view.read_us", "us"),
    ("view.delta_pages_per_write", "count"),
    ("workload.dbgen_ms", "ms"),
    ("core.sim_ms", "ms"),
    ("core.units", "count"),
    ("core.makespan_s", "s"),
    ("core.arbitration_bytes", "B"),
    ("ring.sim_ms", "ms"),
    ("ring.makespan_s", "s"),
    ("ring.outer_bytes", "B"),
    ("ladder.kernel_us", "us"),
    ("ladder.oracle_us", "us"),
    ("ladder.host_us", "us"),
    ("ladder.engine_us", "us"),
    ("ladder.rtt_us", "us"),
    ("ladder.units", "count"),
    ("run.qps", "1/s"),
    ("run.op_median_ms", "ms"),
    ("run.tail_ms", "ms"),
    ("trace.overhead_op_ms", "ms"),
    ("trace.overhead_qps_frac", "ratio"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name, (value, unit));
    }

    /// Set a per-layer metric; its unit comes from [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        self.set(name, value, unit);
    }

    /// Add every per-layer metric not yet set, as 0.
    pub fn fill_layers(&mut self) {
        for (name, unit) in PER_LAYER {
            self.metrics.entry(name).or_insert((0.0, unit));
        }
    }

    /// Count one checked outcome.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Set the end-to-end metrics from each timed operation's kind and
    /// latency (ms), and the write share's; a workload without writes
    /// reports all its operations as `write_floor_ms`. `floor_p` is the
    /// per-kind latency quantile of the floors (see [`floor`]).
    pub fn end_to_end<K: Ord + Clone>(
        &mut self,
        setup_s: f64,
        ops: &[(K, f64)],
        writes: &[(K, f64)],
        floor_p: f64,
    ) {
        let writes = if writes.is_empty() { ops } else { writes };
        self.set("setup_s", setup_s, "s");
        self.set("op_floor_ms", floor(ops.iter().cloned(), floor_p), "ms");
        self.set(
            "write_floor_ms",
            floor(writes.iter().cloned(), floor_p),
            "ms",
        );
        let failed = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("ok_frac", 1.0 - failed, "ratio");
    }

    /// The untraced pass's figures as a user sees them, machine load
    /// included: operations per second, median and tail latency (ms).
    pub fn run_figures(&mut self, qps: f64, lat_ms: &[f64], tail_p: f64) {
        self.layer("run.qps", qps);
        self.layer("run.op_median_ms", median(lat_ms));
        self.layer("run.tail_ms", tail(lat_ms, tail_p));
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
