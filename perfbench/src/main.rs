//! The repository benchmark's command line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mem-cpu --seed 1 --seconds 16 --trace 0
//! ... -- --report 10 [--workload NAME|all] [--seconds S] [--seed FIRST]
//! ```
//!
//! A measuring run prints its context, each end-to-end figure by name
//! and unit, and as its last line one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1` (which also writes
//! its spans as a Chrome trace under `perfbench/work/`).  It exits 1
//! when any output was wrong.  `--report N` runs every workload N times,
//! one process per run, and prints each metric's spread.

use perfbench::ceiling::{cpu_probe, probe_keys};
use perfbench::spans::write_chrome_trace;
use perfbench::{dist, median, nproc, quartiles, server, sorts, Args, Outcome};
use perfbench::{END_TO_END, LAYER_MAP, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Runs one workload for the window.
type Runner = fn(&Args) -> Outcome;

/// Runs one unit of a workload and returns the process's peak RSS, for
/// workloads whose memory mark must come from fresh processes.
type RssProbe = Option<fn(&Args) -> Result<f64, String>>;

/// Fresh processes whose median peak RSS a probed workload reports.
const RSS_PROBES: usize = 7;

/// Workload name, the reason it exists, how to run it, and its probe.
const WORKLOADS: &[(&str, &str, Runner, RssProbe)] = &[
    (
        "mem-cpu",
        "CPU-bound SRM sort (pipelined, read-ahead 3) of 2M keys on a MemDiskArray, D=4 B=32 k=4: all time is srm-core formation and merge CPU",
        |a| sorts::run(&sorts::MEM_CPU, a),
        None,
    ),
    (
        "file-device",
        "Same engine on a FileDiskArray at 400 us/block, 100k keys: the device clock sets the time, so I/O-schedule changes show and CPU-only ones do not",
        |a| sorts::run(&sorts::FILE_DEVICE, a),
        None,
    ),
    (
        "server-mixed",
        "JobServer, 2 workers, 2 jobs outstanding in a closed loop: 2/3 SRM 1/3 DSM at 15k/40k keys on Retrying(Faulty(File)) at 100 us/block",
        server::run,
        None,
    ),
    (
        "distsort-parity",
        "srm_dist::distsort, P=2 D=3 B=16 k=4, parity on, 200 us/block, 40k keys: routing, net, cross-shard merge and parity; slowest shard sets the time",
        dist::run,
        Some(dist::rss_probe),
    ),
];

/// Array calls left out of the trace file: cheap accessors the engine
/// calls around every operation.
const ACCESSORS: &[&str] = &[
    "geometry",
    "stats",
    "redundancy",
    "trace_sink",
    "buffer_pool",
];

/// `host.ceiling_s`: the fixed CPU probe, median of three.
fn host_ceiling() -> f64 {
    let keys = probe_keys();
    let times: Vec<f64> = (0..3).map(|_| cpu_probe(&keys).as_secs_f64()).collect();
    median(&times)
}

fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Peak RSS of `name` as the median over [`RSS_PROBES`] fresh processes,
/// each running one unit of the workload (`--rss-probe 1`).
fn probed_rss(name: &str, args: &Args, out: &mut Outcome) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let mut peaks = Vec::new();
    for _ in 0..RSS_PROBES {
        out.attempted += 1;
        let child = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--rss-probe", "1"])
            .output();
        let stdout = child
            .as_ref()
            .map(|c| String::from_utf8_lossy(&c.stdout).into_owned());
        match stdout
            .ok()
            .and_then(|s| s.trim().strip_prefix("peak_rss_mb=")?.parse().ok())
        {
            Some(v) => peaks.push(v),
            None => out.fail(format!("rss probe of {name} failed: {child:?}")),
        }
    }
    Some(median(&peaks))
}

fn measure(name: &str, why: &str, run: Runner, probe: RssProbe, args: &Args) -> ExitCode {
    let scratch = args.work.clone();
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let mut out = run(args);
    let _ = std::fs::remove_dir_all(&scratch);
    if probe.is_some() && !args.trace {
        if let Some(peak) = probed_rss(name, args, &mut out) {
            out.metric("peak_rss_mb", peak);
            out.show("peak_rss_mb", peak, "MB");
        }
    }
    let ceiling = host_ceiling();
    out.metrics.insert("host.ceiling_s", ceiling);
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("fail_frac", fail_frac);
    out.show("fail_frac", fail_frac, "ratio");

    println!(
        "# workload={name} seed={} seconds={} trace={} nproc={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    println!("# why: {why}");
    for (k, v) in &out.context {
        println!("# context {k}={v}");
    }
    for (k, v, unit) in &out.shown {
        println!("{name} {k} = {} {unit}", json_number(*v));
    }
    println!("# host.ceiling_s = {} s", json_number(ceiling));
    for e in &out.errors {
        println!("# error: {e}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        for (layer, moves) in LAYER_MAP {
            println!("# layer {layer} -> {moves}");
        }
        let path = work_dir().join(format!("trace-{name}.json"));
        match write_chrome_trace(&path, &out.spans, ACCESSORS) {
            Ok(n) => println!("# trace: {n} spans -> {}", path.display()),
            Err(e) => println!("# trace not written: {e}"),
        }
        for (metric, unit) in PER_LAYER {
            let v = out.metrics.get(metric).copied().unwrap_or(0.0);
            println!("{name} {metric} = {} {unit}", json_number(v));
        }
    }
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(metric, unit)| {
            let v = out.metrics.get(metric).copied().unwrap_or(0.0);
            format!(
                "\"{metric}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Pull `"metric":{"value":V` pairs out of a result line.
fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut rest = line;
    while let Some(at) = rest.find("{\"value\":") {
        let name = rest[..at].trim_end_matches(':').trim_end_matches('"');
        let name = &name[name.rfind('"').map_or(0, |i| i + 1)..];
        let tail = &rest[at + 9..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(v) = tail[..end].parse::<f64>() {
            out.insert(name.to_string(), v);
        }
        rest = tail;
    }
    out
}

/// Run each selected workload `runs` times (one process per run, so
/// each run's `peak_rss_mb` is its own) and print every metric's median,
/// quartiles, interquartile spread and largest deviation from the median
/// as shares of the median, with the host probe beside them.
fn report(runs: u64, only: &str, seconds: f64, seed: u64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for (name, _, _, _) in WORKLOADS
        .iter()
        .filter(|(n, _, _, _)| only == "all" || *n == only)
    {
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for k in 0..runs {
            let child = Command::new(&exe)
                .args(["--workload", name, "--seed", &(seed + k).to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .output();
            let Ok(child) = child else {
                eprintln!("error: cannot run {name}");
                return ExitCode::from(2);
            };
            let stdout = String::from_utf8_lossy(&child.stdout);
            ok &= child.status.success();
            for line in stdout.lines() {
                if let Some(v) = line.strip_prefix("# host.ceiling_s = ") {
                    if let Ok(v) = v.trim_end_matches(" s").parse::<f64>() {
                        samples.entry("host.ceiling_s".into()).or_default().push(v);
                    }
                }
            }
            let last = stdout.lines().last().unwrap_or_default();
            for (m, v) in parse_metrics(last) {
                if m != "host.ceiling_s" {
                    samples.entry(m).or_default().push(v);
                }
            }
            eprintln!("{name} seed {}: {}", seed + k, last);
        }
        println!(
            "\n## {name}: {runs} runs of {seconds} s, seeds {seed}..{}",
            seed + runs - 1
        );
        println!("| metric | median | q1 | q3 | iqr/median | max dev/median |");
        println!("|---|---|---|---|---|---|");
        for (m, v) in &samples {
            let med = median(v);
            let (q1, _, q3) = quartiles(v).unwrap_or((med, med, med));
            let dev = v.iter().map(|x| (x - med).abs()).fold(0.0, f64::max);
            let share = |x: f64| if med == 0.0 { 0.0 } else { x / med.abs() };
            println!(
                "| {m} | {med:.6} | {q1:.6} | {q3:.6} | {:.4} | {:.4} |",
                share(q3 - q1),
                share(dev)
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
         perfbench --report RUNS [--workload NAME|all] [--seconds S] [--seed FIRST] [--trace 0|1]\n\
         workloads: {}",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let (mut seed, mut seconds, mut trace, mut runs) = (1u64, 16.0f64, false, None);
    let mut rss_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let bad = || usage(&format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 => seconds = v,
                _ => return bad(),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return bad(),
            },
            "--rss-probe" => rss_probe = value == "1",
            "--report" => match value.parse::<u64>() {
                Ok(v) if v > 0 => runs = Some(v),
                _ => return bad(),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    if let Some(runs) = runs {
        return report(
            runs,
            workload.as_deref().unwrap_or("all"),
            seconds,
            seed,
            trace,
        );
    }
    let Some(name) = workload else {
        return usage("--workload is required");
    };
    let Some(&(name, why, run, probe)) = WORKLOADS.iter().find(|w| w.0 == name) else {
        return usage(&format!("unknown workload {name}"));
    };
    let args = Args {
        seed,
        seconds,
        trace,
        work: work_dir().join(format!("run-{}", std::process::id())),
    };
    if rss_probe {
        let Some(probe) = probe else {
            return usage(&format!("{name} has no --rss-probe"));
        };
        let result = probe(&args);
        let _ = std::fs::remove_dir_all(&args.work);
        return match result {
            Ok(peak) => {
                println!("peak_rss_mb={peak}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    measure(name, why, run, probe, &args)
}
