//! The `mem-cpu` and `file-device` workloads: one SRM engine (pipelined,
//! read-ahead 3) sorting uniform u64 keys on a bare `MemDiskArray` or a
//! bare `FileDiskArray` with the simulated device on.

use crate::ceiling::cpu_ceiling;
use crate::spans::{self_times, Recorder, Span};
use crate::timed::Timed;
use crate::{median, normalised, peak_rss_mb, secs, Args, Outcome};
use pdisk::{
    DiskArray, FileDiskArray, Geometry, MemDiskArray, PoolStats, PrefetchStats, StripedRun,
    TracingDiskArray, U64Record,
};
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, RunFormation, SortReport, SrmConfig, SrmSorter};
use srm_server::{digest_keys, generate_records};
use std::path::Path;
use std::time::{Duration, Instant};

/// Disks, records per block and memory factor `k` (`M = (2k+4)DB + kD²`,
/// so `M = 1600` and `R = 16`).
pub const D: usize = 4;
/// Records per block.
pub const B: usize = 32;
/// Memory factor of [`Geometry::for_table`].
pub const K: usize = 4;
/// Forecast read-ahead depth of the engine.
pub const READ_AHEAD: usize = 3;
/// The mem-cpu CPU ceiling's time on the 2-vCPU reference host.
pub const MEM_CEILING_REF: Duration = Duration::from_millis(300);
/// Sorts per run at least, however short the window.
const MIN_SORTS: usize = 3;

/// One of the two sort workloads.
#[derive(Debug, Clone, Copy)]
pub struct SortWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Records per sort.
    pub n: u64,
    /// `None`: `MemDiskArray`.  `Some(delay)`: `FileDiskArray` with the
    /// simulated device at `delay` per block, staging included.
    pub device: Option<Duration>,
    /// Set-ups per sort, back to back; the last one's array is sorted.
    /// Repeating the CPU-bound one leaves the allocator in the same warm
    /// state for all but the first, so their median does not depend on
    /// what the sort before left behind.
    pub setups: usize,
}

/// CPU-bound: all of the time is engine formation and merge CPU.
pub const MEM_CPU: SortWorkload = SortWorkload {
    name: "mem-cpu",
    n: 2_000_000,
    device: None,
    setups: 3,
};

/// Device-clocked: the simulated device sets the time.
pub const FILE_DEVICE: SortWorkload = SortWorkload {
    name: "file-device",
    n: 100_000,
    device: Some(Duration::from_micros(400)),
    setups: 1,
};

/// The geometry both sort workloads use.
pub fn geometry() -> Geometry {
    Geometry::for_table(K, D, B).expect("D=4 B=32 k=4 is a valid geometry")
}

/// The engine both sort workloads use, with every other knob default.
pub fn sorter() -> SrmSorter {
    SrmSorter::new(SrmConfig::default())
        .with_pipeline(true)
        .with_read_ahead(READ_AHEAD)
}

/// The backends a sort runs on, and what each can report beyond
/// `IoStats`.
pub trait Backend: DiskArray<U64Record> {
    /// Read-ahead counters, for backends that prefetch.
    fn prefetch_stats(&self) -> Option<PrefetchStats> {
        None
    }
    /// Set the simulated device's per-block delay, where there is one.
    fn set_delay(&self, _delay: Duration) {}
}

impl Backend for MemDiskArray<U64Record> {}

impl Backend for FileDiskArray<U64Record> {
    fn prefetch_stats(&self) -> Option<PrefetchStats> {
        Some(FileDiskArray::prefetch_stats(self))
    }
    fn set_delay(&self, delay: Duration) {
        self.set_io_delay(delay);
    }
}

impl<A: Backend> Backend for Timed<U64Record, A> {
    fn prefetch_stats(&self) -> Option<PrefetchStats> {
        self.inner().prefetch_stats()
    }
    fn set_delay(&self, delay: Duration) {
        self.inner().set_delay(delay);
    }
}

/// Everything one sort produced that the benchmark compares or reports.
#[derive(Debug, Clone)]
pub struct SortRun {
    /// Wall time of `sort_observed`.
    pub wall: Duration,
    /// The engine's own accounting, `IoStats` of the sort included.
    pub report: SortReport,
    /// Read-ahead counters after the sort.
    pub prefetch: Option<PrefetchStats>,
    /// Buffer-pool counters after the sort (staging included).
    pub pool: Option<PoolStats>,
    /// Digest of the sorted output, read back after timing.
    pub digest: u64,
}

impl SortRun {
    /// The paper's cost: parallel reads plus parallel writes.
    pub fn parallel_ios(&self) -> u64 {
        self.report.io.read_ops + self.report.io.write_ops
    }
}

/// A fresh `FileDiskArray` at `dir`.  The device delay is on from the
/// start, so staging runs on the device too.
pub fn file_array(dir: &Path, delay: Duration) -> Result<FileDiskArray<U64Record>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let file = FileDiskArray::create(geometry(), dir).map_err(|e| e.to_string())?;
    file.set_io_delay(delay);
    Ok(file)
}

/// Stage `records` onto `array` as the unsorted input: the workload's
/// setup.
pub fn stage<A: Backend>(array: &mut A, records: &[U64Record]) -> Result<StripedRun, String> {
    write_unsorted_input(array, records).map_err(|e| e.to_string())
}

/// Sort the staged `input` (timed), then read the output back and digest
/// it (untimed, device off).  `beside(false)` runs right before the timed
/// sort and `beside(true)` right after it, for work to be timed next to
/// it.
pub fn sort_staged<A: Backend>(
    array: &mut A,
    input: &StripedRun,
    mut beside: impl FnMut(bool),
) -> Result<SortRun, String> {
    beside(false);
    let start = Instant::now();
    let sorted = sorter().sort(array, input);
    let wall = start.elapsed();
    beside(true);
    let (sorted, report) = sorted.map_err(|e| e.to_string())?;
    array.set_delay(Duration::ZERO);
    let out = read_run(array, &sorted).map_err(|e| e.to_string())?;
    Ok(SortRun {
        wall,
        prefetch: array.prefetch_stats(),
        pool: array.buffer_pool().map(|p| p.stats()),
        digest: digest_keys(out.iter().map(|r| r.0)),
        report,
    })
}

/// [`stage`], then [`sort_staged`] with nothing beside it.
pub fn stage_and_sort<A: Backend>(array: &mut A, records: &[U64Record]) -> Result<SortRun, String> {
    let input = stage(array, records)?;
    sort_staged(array, &input, |_| {})
}

/// [`stage_and_sort`] under the timing wrapper: one `sort` span, one span
/// per pass (`formation`, then `merge-pass`), and one per array call.
pub fn traced_sort<A: Backend>(
    array: A,
    records: &[U64Record],
    rec: Recorder,
) -> (Result<SortRun, String>, A, Recorder) {
    let mut timed = Timed::new(array, rec);
    let staged = timed.recorder().begin("stage");
    let staged_input = write_unsorted_input(&mut timed, records).map_err(|e| e.to_string());
    timed.recorder().end(staged);
    let input = match staged_input {
        Ok(input) => input,
        Err(e) => {
            let (a, r) = timed.into_parts();
            return (Err(e), a, r);
        }
    };
    let sort_span = timed.recorder().begin("sort");
    let mut pass_span = timed.recorder().begin("formation");
    let start = Instant::now();
    let sorted = sorter().sort_observed(&mut timed, &input, None, |_, a: &mut Timed<_, A>| {
        a.recorder().end(pass_span);
        pass_span = a.recorder().begin("merge-pass");
        Ok(())
    });
    let wall = start.elapsed();
    // The span opened after the last pass covers only the engine's
    // wrap-up, not a pass.
    timed.recorder().rename(pass_span, "finish");
    timed.recorder().end(sort_span);
    let result = sorted
        .map_err(|e| e.to_string())
        .and_then(|(sorted, report)| {
            timed.set_delay(Duration::ZERO);
            let out = read_run(&mut timed, &sorted).map_err(|e| e.to_string())?;
            Ok(SortRun {
                wall,
                prefetch: timed.prefetch_stats(),
                pool: timed.buffer_pool().map(|p| p.stats()),
                digest: digest_keys(out.iter().map(|r| r.0)),
                report,
            })
        });
    let (a, r) = timed.into_parts();
    (result, a, r)
}

/// Per-layer figures of one traced sort, from the spans inside its
/// `sort` span and from its report.  `spans` is the tail of the log
/// holding that sort; `base` is the id of its first span.
fn layer_figures(
    spans: &[Span],
    base: u32,
    run: &SortRun,
    device: Option<Duration>,
) -> Vec<(&'static str, f64)> {
    let selfs = self_times(spans, base);
    let Some(sort) = spans.iter().find(|s| s.name == "sort") else {
        return Vec::new();
    };
    let inside: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].start >= sort.start && spans[i].end <= sort.end)
        .collect();
    let sum = |names: &[&str]| -> f64 {
        inside
            .iter()
            .filter(|&&i| names.contains(&spans[i].name))
            .map(|&i| secs(spans[i].dur()))
            .sum()
    };
    let passes: Vec<usize> = inside
        .iter()
        .copied()
        .filter(|&i| spans[i].name == "merge-pass")
        .collect();
    let formation = spans
        .iter()
        .find(|s| s.name == "formation")
        .map_or(0.0, |s| secs(s.dur()));
    let merge_s: f64 = passes.iter().map(|&i| secs(spans[i].dur())).sum();
    let pass_max = passes
        .iter()
        .map(|&i| secs(spans[i].dur()))
        .fold(0.0, f64::max);
    let merge_self: f64 = passes.iter().map(|&i| secs(selfs[i])).sum();
    let geom = geometry();
    let total_blocks = run.report.records.div_ceil(geom.b as u64);
    let io = run.report.io;
    let per_op = |blocks: u64, ops: u64| {
        if ops == 0 {
            0.0
        } else {
            blocks as f64 / ops as f64
        }
    };
    let (hit_ratio, invalidated) = run.prefetch.map_or((0.0, 0.0), |p| {
        (
            if p.issued == 0 {
                0.0
            } else {
                p.hits as f64 / p.issued as f64
            },
            p.invalidated as f64,
        )
    });
    let util = device.map_or(0.0, |delay| {
        (io.blocks_read + io.blocks_written) as f64 * secs(delay) / (geom.d as f64 * secs(run.wall))
    });
    let (pool_hit, pool_miss) = run.pool.map_or((0.0, 0.0), |p| {
        (p.record_hit_rate().unwrap_or(0.0), p.misses() as f64)
    });
    vec![
        ("formation.s", formation),
        ("formation.runs", run.report.runs_formed as f64),
        ("merge.s", merge_s),
        ("merge.pass_s.max", pass_max),
        ("merge.self_s", merge_self),
        ("merge.v", run.report.overhead_v(geom.d, total_blocks)),
        ("merge.flush_ops", run.report.schedule.flush_ops as f64),
        (
            "merge.blocks_flushed",
            run.report.schedule.blocks_flushed as f64,
        ),
        ("io.read_ops", io.read_ops as f64),
        ("io.write_ops", io.write_ops as f64),
        ("io.read_par", per_op(io.blocks_read, io.read_ops)),
        ("io.write_par", per_op(io.blocks_written, io.write_ops)),
        ("io.read_wait_s", sum(&["read", "complete_read"])),
        ("io.write_wait_s", sum(&["write", "complete_write"])),
        (
            "io.submit_s",
            sum(&["submit_read", "submit_write", "prefetch"]),
        ),
        ("parallel_ios", run.parallel_ios() as f64),
        ("file.prefetch_hit_ratio", hit_ratio),
        ("file.prefetch_invalidated", invalidated),
        ("file.device_util", util),
        ("pool.record_hit_rate", pool_hit),
        ("pool.misses", pool_miss),
    ]
}

/// Records per run that memory-load run formation sorts at a time
/// (`fraction · M`; `M` for replacement selection, whose runs are at
/// least that long).
pub fn formation_load(formation: RunFormation, geom: Geometry) -> u64 {
    match formation {
        RunFormation::MemoryLoad { fraction }
        | RunFormation::ParallelMemoryLoad { fraction, .. } => (geom.m as f64 * fraction) as u64,
        RunFormation::ReplacementSelection => geom.m as u64,
    }
}

/// Merge passes a mergesort of `n` records needs: `⌈log_R ⌈n / load⌉⌉`.
/// It comes from the geometry's merge order and the formation load
/// alone, never from what a sort did, so a sort that takes an extra pass
/// shows as a lower `ceiling_frac`.
pub fn ideal_passes(n: u64, load: u64, r: usize) -> u64 {
    let mut runs = n.div_ceil(load.max(1));
    let mut passes = 0;
    while runs > 1 {
        runs = runs.div_ceil(r.max(2) as u64);
        passes += 1;
    }
    passes
}

/// Time the simulated device needs at least for a sort of `n` records
/// with `passes` merge passes: every pass (formation included) reads and
/// writes every block once, perfectly striped over `D` disks.
pub fn device_ceiling(n: u64, passes: u64, geom: Geometry, delay: Duration) -> Duration {
    let blocks = n.div_ceil(geom.b as u64);
    let per_disk = (2 * blocks * (passes + 1)) as f64 / geom.d as f64;
    delay.mul_f64(per_disk)
}

/// Replay one untimed sort of `records` (device off) through the model
/// checker: the model's rules, and the trace agreeing with `IoStats`.
fn model_check<A: Backend>(array: A, records: &[U64Record]) -> Result<(), String> {
    array.set_delay(Duration::ZERO);
    let mut traced = TracingDiskArray::new(array);
    let input = write_unsorted_input(&mut traced, records).map_err(|e| e.to_string())?;
    sorter()
        .sort(&mut traced, &input)
        .map_err(|e| e.to_string())?;
    let trace = traced.take_trace();
    modelcheck::check_trace(geometry(), &trace)
        .map_err(|v| format!("model-rule violation: {v}"))?;
    modelcheck::check_stats(&trace, &traced.stats()).map_err(|v| format!("trace/stats drift: {v}"))
}

/// The keys of the workload's input, for the CPU ceiling.  Generated
/// afresh for each ceiling, so no copy of the input is alive while the
/// engine sorts.
fn ceiling_keys(n: u64, seed: u64) -> Vec<u64> {
    generate_records(n, seed).iter().map(|r| r.0).collect()
}

/// Run `w` for the window: set up (generate and stage), sort (timed),
/// check.  With `args.trace`, every iteration also sorts once under the
/// timing wrapper, and one sort is replayed through the model checker.
pub fn run(w: &SortWorkload, args: &Args) -> Outcome {
    let dir = args.work.join(w.name);
    let out = match w.device {
        None => run_on(w, args, || Ok(MemDiskArray::new(geometry()))),
        Some(delay) => run_on(w, args, || file_array(&dir, delay)),
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn run_on<A: Backend>(
    w: &SortWorkload,
    args: &Args,
    fresh: impl Fn() -> Result<A, String>,
) -> Outcome {
    let mut out = Outcome::default();
    let geom = geometry();
    let r = geom.srm_merge_order().unwrap_or(2);
    let load = formation_load(SrmConfig::default().run_formation, geom);
    let cpu_bound = w.device.is_none();
    let mut rec = Recorder::new(Instant::now());
    let (mut setups, mut fracs, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut raw_setups = Vec::new();
    let mut peak = None;
    let mut traced_walls = Vec::new();
    let mut layers: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut first: Option<SortRun> = None;
    let mut expected: Option<u64> = None;
    let started = Instant::now();
    let mut i = 0u64;
    while i < MIN_SORTS as u64 || started.elapsed() < args.window() {
        i += 1;
        out.attempted += 1;
        // Setup, `w.setups` times back to back; the last array is sorted.
        let (mut staged, mut unit_setups) = (None, Vec::new());
        for _ in 0..w.setups {
            // Free the previous set-up before the next one starts.
            drop(staged.take());
            let t = Instant::now();
            let records = generate_records(w.n, args.seed);
            let s = fresh().and_then(|mut a| Ok((stage(&mut a, &records)?, a, records)));
            if s.is_ok() {
                unit_setups.push(secs(t.elapsed()));
            }
            staged = Some(s);
        }
        let (input, mut array, records) = match staged {
            Some(Ok(s)) => s,
            Some(Err(e)) => {
                out.fail(format!("setup {i}: {e}"));
                continue;
            }
            None => {
                out.fail(format!("setup {i}: no set-up ran"));
                continue;
            }
        };
        let want = *expected.get_or_insert_with(|| {
            let mut keys: Vec<u64> = records.iter().map(|r| r.0).collect();
            keys.sort_unstable();
            digest_keys(keys)
        });
        drop(records);
        // The CPU ceiling, timed right before and right after the sort.
        // The first sort's peak is read before the second ceiling adds
        // its own memory.
        let mut ceilings = Vec::new();
        let beside = |after: bool| {
            if after && peak.is_none() {
                peak = Some(peak_rss_mb());
            }
            if cpu_bound {
                let keys = ceiling_keys(w.n, args.seed);
                ceilings.push(cpu_ceiling(&keys, load as usize, r).0);
            }
        };
        let run = match sort_staged(&mut array, &input, beside) {
            Ok(run) => run,
            Err(e) => {
                out.fail(format!("sort {i}: {e}"));
                continue;
            }
        };
        drop(array);
        if run.digest != want {
            out.fail(format!(
                "sort {i}: output digest {:#x} != oracle {want:#x}",
                run.digest
            ));
            continue;
        }
        let ceiling = match w.device {
            None => ceilings.iter().sum::<Duration>() / ceilings.len().max(1) as u32,
            Some(delay) => device_ceiling(w.n, ideal_passes(w.n, load, r), geom, delay),
        };
        fracs.push(secs(ceiling) / secs(run.wall));
        walls.push(secs(run.wall));
        raw_setups.extend(&unit_setups);
        // CPU-bound set-ups follow host speed: express them against the
        // ceiling timed right after them.
        setups.extend(unit_setups.iter().map(|&s| match ceilings.first() {
            Some(&c) if cpu_bound => normalised(s, secs(c), MEM_CEILING_REF),
            _ => s,
        }));
        // Same seed, same input: the I/O schedule must repeat exactly.
        match &first {
            None => first = Some(run.clone()),
            Some(f) if f.report.io != run.report.io => {
                out.fail(format!(
                    "sort {i}: IoStats {:?} differ from the first sort's {:?}",
                    run.report.io, f.report.io
                ));
            }
            _ => {}
        }
        if args.trace {
            out.attempted += 1;
            rec.set_unit(i);
            let records = generate_records(w.n, args.seed);
            let traced = fresh().map(|a| {
                let (res, _, back) = traced_sort(a, &records, std::mem::take(&mut rec));
                (res, back)
            });
            match traced {
                Ok((res, back)) => {
                    let from = back
                        .spans()
                        .iter()
                        .rposition(|s| s.name == "stage")
                        .unwrap_or(0);
                    rec = back;
                    match res {
                        Ok(t) => {
                            let same = t.digest == run.digest
                                && t.report == run.report
                                && t.prefetch == run.prefetch
                                && t.pool == run.pool;
                            if !same {
                                out.fail(format!(
                                    "sort {i}: traced run differs from untraced: {t:?} vs {run:?}"
                                ));
                            }
                            traced_walls.push(secs(t.wall));
                            layers.push(layer_figures(
                                &rec.spans()[from..],
                                from as u32,
                                &t,
                                w.device,
                            ));
                        }
                        Err(e) => out.fail(format!("traced sort {i}: {e}")),
                    }
                }
                Err(e) => out.fail(format!("traced sort {i}: {e}")),
            }
        }
    }
    if args.trace {
        out.attempted += 1;
        let records = generate_records(w.n, args.seed);
        if let Err(e) = fresh().and_then(|a| model_check(a, &records)) {
            out.fail(format!("model check: {e}"));
        }
        for &(name, _) in crate::PER_LAYER {
            let vals: Vec<f64> = layers
                .iter()
                .filter_map(|l| l.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            if !vals.is_empty() {
                out.metric(name, median(&vals));
            }
        }
        out.metric(
            "host.records_per_s",
            w.n as f64 / median(&walls).max(f64::MIN_POSITIVE),
        );
        out.metric(
            "trace.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        let first = rec.spans().first().map(|s| s.unit);
        out.spans = rec
            .spans()
            .iter()
            .take_while(|s| Some(s.unit) == first)
            .copied()
            .collect();
    }
    let peak = peak.unwrap_or(0.0);
    out.metric("setup_s", median(&setups));
    out.metric("ceiling_frac", median(&fracs));
    out.metric("peak_rss_mb", peak);
    out.show("setup_s", median(&setups), "s");
    out.show("setup_s.raw", median(&raw_setups), "s");
    match w.device {
        None => out.show("ceiling_frac", median(&fracs), "ratio"),
        Some(_) => out.show("records_per_s", w.n as f64 / median(&walls), "records/s"),
    }
    out.show(
        "parallel_ios",
        first.as_ref().map_or(0.0, |f| f.parallel_ios() as f64),
        "count",
    );
    out.show("peak_rss_mb", peak, "MB");
    out.show("sorts", walls.len() as f64, "count");
    out.context.push(("records", w.n.to_string()));
    out.context.push((
        "geometry",
        format!("D={} B={} M={} R={r} load={load}", geom.d, geom.b, geom.m),
    ));
    out.context
        .push(("engine", format!("SRM pipelined, read-ahead {READ_AHEAD}")));
    out.context.push(("setups_per_sort", w.setups.to_string()));
    out.context.push((
        "backend",
        match w.device {
            None => "MemDiskArray".into(),
            Some(d) => format!(
                "FileDiskArray, device {} us/block, ideal passes {}",
                d.as_micros(),
                ideal_passes(w.n, load, r)
            ),
        },
    ));
    out
}
