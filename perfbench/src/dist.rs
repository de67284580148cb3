//! The `distsort-parity` workload: `srm_dist::distsort` over two shards
//! with rotating parity on every shard cluster and the simulated device
//! on.  The only workload through `srm-dist` and the parity stack.

use crate::ceiling::{cpu_probe, probe_keys};
use crate::sorts::{device_ceiling, formation_load, ideal_passes};
use crate::spans::Recorder;
use crate::{median, normalised, peak_rss_mb, secs, Args, Outcome, CPU_PROBE_REF};
use srm_dist::{distsort, route, sample_splitters, DistConfig, DistReport};
use srm_server::{expected_digest, generate_records, JobSpec};
use std::time::{Duration, Instant};

/// Shards `P`.
pub const SHARDS: u32 = 2;
/// Records sorted per distributed sort.
pub const RECORDS: u64 = 40_000;
/// Simulated device delay per block on every shard cluster.
pub const DELAY: Duration = Duration::from_micros(200);
/// Distributed sorts per run at least, however short the window.
const MIN_SORTS: usize = 3;

/// The job every distributed sort runs: D=3, B=16, k=4.
pub fn spec(seed: u64) -> JobSpec {
    let geom = pdisk::Geometry::for_table(4, 3, 16).expect("D=3 B=16 k=4 is a valid geometry");
    JobSpec {
        records: RECORDS,
        seed,
        d: geom.d,
        b: geom.b,
        m: geom.m,
        ..JobSpec::default()
    }
}

/// The cluster configuration: parity on, device on, defaults otherwise.
pub fn config() -> DistConfig {
    DistConfig {
        parity: true,
        io_delay: DELAY,
        ..DistConfig::new(SHARDS)
    }
}

/// Time a shard's device needs at least when the split is ideal: shards
/// sort in parallel, each on its own cluster, with `⌈n / P⌉` records.
/// Shard sizes and passes come from the spec, not from what the run did,
/// so skew or an extra pass shows as a lower `ceiling_frac`.
fn shard_ceiling(spec: &JobSpec) -> Duration {
    let Ok(geom) = spec.geometry() else {
        return Duration::ZERO;
    };
    let n = spec.records.div_ceil(u64::from(SHARDS));
    let load = formation_load(spec.formation, geom);
    let passes = ideal_passes(n, load, geom.srm_merge_order().unwrap_or(2));
    device_ceiling(n, passes, geom, DELAY)
}

/// Check one report against the oracles; the failure text if any.
fn check(report: &DistReport, expected: u64) -> Option<String> {
    if !report.oracle_ok {
        return Some("distsort oracle reported a digest mismatch".into());
    }
    if report.digest != expected {
        return Some(format!(
            "digest {:#x} != expected {expected:#x}",
            report.digest
        ));
    }
    report
        .per_shard
        .iter()
        .position(|s| !s.trace_clean)
        .map(|s| format!("shard {s} trace not model-check clean"))
}

/// One distributed sort, checked, in a fresh process: that process's
/// peak RSS afterwards.  Each distsort leaves more heap behind in the
/// process, so only a first one measures the workload alone.
pub fn rss_probe(args: &Args) -> Result<f64, String> {
    let spec = spec(args.seed);
    let root = args.work.join("distsort");
    let report = distsort(&spec, &config(), &root).map_err(|e| e.to_string())?;
    let peak = peak_rss_mb();
    let _ = std::fs::remove_dir_all(&root);
    match check(&report, expected_digest(&spec)) {
        Some(why) => Err(why),
        None => Ok(peak),
    }
}

/// Run distributed sorts for the window.  A traced run alternates
/// untraced and traced sorts; a traced one records a span for the route
/// (timed by the benchmark on the same records) and for the call.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let spec = spec(args.seed);
    let cfg = config();
    let root = args.work.join("distsort");
    let mut rec = Recorder::default();
    let (mut setups, mut walls, mut fracs, mut traced_walls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut route_s, mut last) = (Vec::new(), None);
    let expected = expected_digest(&spec);
    let ceiling = shard_ceiling(&spec);
    let (probe_keys, mut raw_setups) = (probe_keys(), Vec::new());
    let started = Instant::now();
    let mut i = 0u64;
    while i < MIN_SORTS as u64 || started.elapsed() < args.window() {
        i += 1;
        out.attempted += 1;
        let traced = args.trace && i.is_multiple_of(2);
        // Setup: empty the root of the tree the previous distributed sort
        // left for its caller (distsort creates the root itself).
        if root.exists() {
            let probe = secs(cpu_probe(&probe_keys));
            let t = Instant::now();
            match std::fs::remove_dir_all(&root) {
                Ok(()) => {
                    let setup = secs(t.elapsed());
                    raw_setups.push(setup);
                    setups.push(normalised(setup, probe, CPU_PROBE_REF));
                }
                Err(e) => {
                    out.fail(format!("empty {}: {e}", root.display()));
                    continue;
                }
            }
        }
        if traced {
            rec.set_unit(i);
            let records = generate_records(spec.records, spec.seed);
            let span = rec.begin("route");
            let splitters = sample_splitters(&records, cfg.shards, spec.seed);
            let buckets = route(&records, &splitters, cfg.shards);
            rec.end(span);
            route_s.push(secs(rec.spans()[span as usize].dur()));
            drop((records, buckets));
        }
        let span = traced.then(|| rec.begin("distsort"));
        let t = Instant::now();
        let result = distsort(&spec, &cfg, &root);
        let wall = t.elapsed();
        if let Some(span) = span {
            rec.end(span);
        }
        match result {
            Ok(report) => match check(&report, expected) {
                Some(why) => out.fail(format!("distsort {i}: {why}")),
                None => {
                    if traced {
                        traced_walls.push(secs(wall));
                    } else {
                        walls.push(secs(wall));
                        fracs.push(secs(ceiling) / secs(wall));
                    }
                    last = Some(report);
                }
            },
            Err(e) => out.fail(format!("distsort {i}: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let records_per_s = RECORDS as f64 / median(&walls).max(f64::MIN_POSITIVE);
    out.metric("setup_s", median(&setups));
    out.metric("ceiling_frac", median(&fracs));
    if args.trace {
        if let Some(r) = &last {
            let shard_records: Vec<f64> = r.per_shard.iter().map(|s| s.records as f64).collect();
            let mean = shard_records.iter().sum::<f64>() / shard_records.len().max(1) as f64;
            let max = shard_records.iter().copied().fold(0.0, f64::max);
            out.metric("dist.shard_skew", if mean > 0.0 { max / mean } else { 0.0 });
            out.metric("dist.net_sent", r.net.sent as f64);
            out.metric("dist.net_delivered", r.net.delivered as f64);
            out.metric(
                "dist.shard_passes.max",
                r.per_shard.iter().map(|s| s.passes).max().unwrap_or(0) as f64,
            );
            out.metric(
                "dist.repaired",
                r.per_shard.iter().map(|s| s.repaired).sum::<u64>() as f64,
            );
            out.metric("dist.recoveries", r.recoveries as f64);
            out.metric("dist.merge_stalls", r.merge_stalls as f64);
        }
        out.metric("dist.route_s", median(&route_s));
        out.metric("host.records_per_s", records_per_s);
        out.metric(
            "trace.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        out.spans = rec.spans().to_vec();
    }
    out.show("setup_s", median(&setups), "s");
    out.show("setup_s.raw", median(&raw_setups), "s");
    out.show("records_per_s", records_per_s, "records/s");
    out.show("ceiling_frac", median(&fracs), "ratio");
    out.show("sorts", walls.len() as f64, "count");
    out.context.push(("shards", SHARDS.to_string()));
    out.context.push(("records", RECORDS.to_string()));
    out.context.push((
        "geometry",
        format!("D={} B={} M={} (k=4), parity on", spec.d, spec.b, spec.m),
    ));
    out.context
        .push(("device_us_per_block", DELAY.as_micros().to_string()));
    out
}
