//! The repository's benchmark: four workloads over the SRM stack, each
//! checked for correct output, with end-to-end metrics measured untraced
//! and per-layer metrics from a separate traced run.  See `README.md`
//! next to this crate for the metric definitions and how to run it.

#![forbid(unsafe_code)]

pub mod ceiling;
pub mod dist;
pub mod server;
pub mod sorts;
pub mod spans;
pub mod timed;

use spans::Span;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// What one benchmark run is asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// How long the timed work runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory for disk files and job stores, removed after
    /// the run.
    pub work: PathBuf,
}

impl Args {
    /// The measuring window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The end-to-end metrics every workload reports: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ceiling_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports: (name, unit).  A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("formation.s", "s"),
    ("formation.runs", "count"),
    ("merge.s", "s"),
    ("merge.pass_s.max", "s"),
    ("merge.self_s", "s"),
    ("merge.v", "ratio"),
    ("merge.flush_ops", "count"),
    ("merge.blocks_flushed", "count"),
    ("io.read_ops", "count"),
    ("io.write_ops", "count"),
    ("io.read_par", "blocks/op"),
    ("io.write_par", "blocks/op"),
    ("io.read_wait_s", "s"),
    ("io.write_wait_s", "s"),
    ("io.submit_s", "s"),
    ("parallel_ios", "count"),
    ("file.prefetch_hit_ratio", "ratio"),
    ("file.prefetch_invalidated", "count"),
    ("file.device_util", "ratio"),
    ("pool.record_hit_rate", "ratio"),
    ("pool.misses", "count"),
    ("job_s.p50", "s"),
    ("job_s.samples", "count"),
    ("server.submit_s.p50", "s"),
    ("server.queue_s.p50", "s"),
    ("server.run_s.srm.p50", "s"),
    ("server.run_s.dsm.p50", "s"),
    ("server.peak_admitted_frac", "ratio"),
    ("server.refused", "count"),
    ("dist.route_s", "s"),
    ("dist.shard_skew", "ratio"),
    ("dist.net_sent", "count"),
    ("dist.net_delivered", "count"),
    ("dist.shard_passes.max", "count"),
    ("dist.repaired", "count"),
    ("dist.recoveries", "count"),
    ("dist.merge_stalls", "count"),
    ("host.ceiling_s", "s"),
    ("host.records_per_s", "records/s"),
    ("trace.overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
];

/// Which end-to-end metric each layer's metrics should move, on which
/// workload — written down before measuring, printed with traced runs.
pub const LAYER_MAP: &[(&str, &str)] = &[
    ("formation.*", "ceiling_frac on mem-cpu; predicted ~0 change on file-device"),
    ("merge.s, merge.pass_s.max, merge.self_s", "ceiling_frac on mem-cpu (merge.self_s / sort time bounds a merge hot-path gain)"),
    ("merge.v, merge.flush_ops, merge.blocks_flushed", "parallel_ios on mem-cpu and file-device; ceiling_frac and records_per_s on file-device"),
    ("io.read_ops, io.write_ops, io.read_par, io.write_par", "parallel_ios on mem-cpu and file-device"),
    ("io.read_wait_s, io.write_wait_s, io.submit_s", "records_per_s on file-device; ceiling_frac on mem-cpu"),
    ("file.prefetch_hit_ratio, file.prefetch_invalidated, file.device_util", "records_per_s and ceiling_frac on file-device; nothing on mem-cpu (CPU savings show only once device_util < 1)"),
    ("pool.record_hit_rate, pool.misses", "records_per_s and peak_rss_mb on file-device"),
    ("server.*, job_s.*", "job_s.p50, records_per_s, ceiling_frac and fail_frac on server-mixed (Little's law ties job_s.p50 to records_per_s)"),
    ("dist.*", "records_per_s and ceiling_frac on distsort-parity (the slowest shard sets the time)"),
    ("host.ceiling_s", "none: shows host drift beside every workload"),
];

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work tried (sorts, jobs, distributed sorts).
    pub attempted: u64,
    /// Units that errored, were refused, or gave a wrong output.
    pub failed: u64,
    /// Why each failed unit failed.
    pub errors: Vec<String>,
    /// The gated metrics: [`END_TO_END`] untraced, [`PER_LAYER`] traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's end-to-end figures as the user sees them, printed
    /// by name and unit (some are workload-specific and not gated).
    pub shown: Vec<(&'static str, f64, &'static str)>,
    /// Run context: seed, geometry, delays, workers, and so on.
    pub context: Vec<(&'static str, String)>,
    /// Spans of the traced run to write out (for the sort workloads,
    /// the first traced sort only: a whole mem-cpu run is millions).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Count one failed unit.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.errors.push(why.into());
    }

    /// Record a metric for the result line.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a figure that is printed by name and unit.
    pub fn show(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.shown.push((name, value, unit));
    }
}

/// The CPU probe's time on the 2-vCPU reference host.
pub const CPU_PROBE_REF: Duration = Duration::from_millis(25);

/// A set-up time in reference-host seconds: `setup ÷ probe × reference`.
/// The probe spends the resource the set-up spends, is timed right
/// beside it, and takes `reference` on the reference host.  There, raw
/// set-up times that are CPU or `fsync` work drifted by a third to a half
/// between sets of runs; the ratios did not.
pub fn normalised(setup: f64, probe: f64, reference: Duration) -> f64 {
    setup / probe.max(f64::MIN_POSITIVE) * secs(reference)
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them
/// (the default "exclusive" method); needs at least two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// This process's peak resident memory so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
