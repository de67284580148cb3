//! The `server-mixed` workload: an in-process `JobServer` with its own
//! file stacks (`Retrying(Faulty(File))` at a nonzero transient fault
//! rate, simulated device on), loaded by one thread that keeps two jobs
//! outstanding in a closed loop.  Two thirds of the jobs are SRM, one
//! third DSM, at two sizes.

use crate::sorts::{device_ceiling, formation_load, ideal_passes};
use crate::spans::{Recorder, ROOT};
use crate::{median, normalised, peak_rss_mb, secs, Args, Outcome};
use srm_server::{expected_digest, EngineKind, JobServer, JobSpec, JobState, ServerConfig};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Server worker threads.
pub const WORKERS: usize = 2;
/// Jobs the load thread keeps submitted and unfinished.
pub const OUTSTANDING: usize = 2;
/// Simulated device delay per block on every job's stack.
pub const DELAY: Duration = Duration::from_micros(100);
/// How often the load thread polls job status; far shorter than a job.
pub const POLL: Duration = Duration::from_millis(2);
/// Transient faults injected per disk operation, absorbed by retries.
pub const FAULT_RATE: f64 = 0.001;
/// Record counts of the two job sizes.
pub const SIZES: [u64; 2] = [15_000, 40_000];
/// Server opens timed for `setup_s`, each on a fresh job store; the
/// last one's server serves the load.
const OPENS: usize = 50;
/// The durable-write probe's time on the 2-vCPU reference host.
pub const DURABLE_WRITE_REF: Duration = Duration::from_micros(300);

/// The job mix: four SRM and two DSM specs, each size of each engine,
/// with seeds drawn from the workload seed.  Jobs cycle through it.
pub fn job_mix(seed: u64) -> Vec<JobSpec> {
    let engines = [EngineKind::Srm, EngineKind::Srm, EngineKind::Dsm];
    let mut mix = Vec::new();
    for (e, engine) in engines.iter().enumerate() {
        for (s, &records) in SIZES.iter().enumerate() {
            let k = (2 * e + s) as u64;
            mix.push(JobSpec {
                engine: *engine,
                records,
                seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k),
                d: 4,
                b: 16,
                m: 1024,
                fault_rate: FAULT_RATE,
                fault_seed: seed ^ (0xFA17 + k),
                ..JobSpec::default()
            });
        }
    }
    mix
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        io_delay: DELAY,
        ..ServerConfig::new(dir)
    }
}

/// The device time a job needs at least: its engine's merge order and
/// the formation load come from the job's geometry, not from the passes
/// the job took.
fn job_ceiling(spec: &JobSpec) -> Duration {
    let Ok(geom) = spec.geometry() else {
        return Duration::ZERO;
    };
    let r = match spec.engine {
        EngineKind::Srm => geom.srm_merge_order(),
        EngineKind::Dsm => geom.dsm_merge_order(),
    };
    let load = formation_load(spec.formation, geom);
    let passes = ideal_passes(spec.records, load, r.unwrap_or(2));
    device_ceiling(spec.records, passes, geom, DELAY)
}

/// Time one durable step on the job store's filesystem: create a
/// directory and write a small file atomically with `fsync`, as
/// `JobServer::open` does to take its lock.  Its cost follows the host's
/// device latency, which drifts by half between sets of runs.
fn durable_write(dir: &Path) -> std::io::Result<Duration> {
    let t = Instant::now();
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join("probe.tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(b"probe\n")?;
    f.sync_all()?;
    std::fs::rename(&tmp, dir.join("probe"))?;
    Ok(t.elapsed())
}

/// One job as the load thread saw it.
struct Seen {
    id: u64,
    spec: usize,
    submitted: Instant,
    accepted: Instant,
    running: Option<Instant>,
}

/// What one closed-loop window measured.
#[derive(Default)]
struct Window {
    wall: Duration,
    records: u64,
    ideal: Duration,
    job_s: Vec<f64>,
    submit_s: Vec<f64>,
    queue_s: Vec<f64>,
    run_srm: Vec<f64>,
    run_dsm: Vec<f64>,
    refused: u64,
}

/// Keep [`OUTSTANDING`] jobs in flight until `window` has passed, then
/// let the last ones finish.  Job spans go into `rec` when given.
fn closed_loop(
    server: &JobServer,
    mix: &[JobSpec],
    digests: &[u64],
    first: usize,
    window: Duration,
    out: &mut Outcome,
    mut rec: Option<&mut Recorder>,
) -> Window {
    let mut w = Window::default();
    let mut pending: Vec<Seen> = Vec::new();
    let start = Instant::now();
    let mut next = first;
    loop {
        while pending.len() < OUTSTANDING && start.elapsed() < window {
            let spec = next % mix.len();
            next += 1;
            out.attempted += 1;
            let submitted = Instant::now();
            match server.submit(mix[spec].clone()) {
                Ok(id) => pending.push(Seen {
                    id,
                    spec,
                    submitted,
                    accepted: Instant::now(),
                    running: None,
                }),
                Err(e) => {
                    w.refused += 1;
                    out.fail(format!("submit refused: {e}"));
                    break;
                }
            }
        }
        if pending.is_empty() {
            break;
        }
        std::thread::sleep(POLL);
        let now = Instant::now();
        pending.retain_mut(|p| {
            let Some(status) = server.status(p.id) else {
                out.fail(format!("job {} vanished", p.id));
                return false;
            };
            if status.state == JobState::Running && p.running.is_none() {
                p.running = Some(now);
            }
            if !status.state.is_terminal() {
                return true;
            }
            let spec = &mix[p.spec];
            if status.state != JobState::Done {
                out.fail(format!(
                    "job {} ended {}: {}",
                    p.id,
                    status.state.as_str(),
                    status.detail
                ));
            } else if status.digest != Some(digests[p.spec]) {
                out.fail(format!(
                    "job {} digest {:?} != expected {:#x}",
                    p.id, status.digest, digests[p.spec]
                ));
            } else {
                let running = p.running.unwrap_or(p.accepted);
                w.records += spec.records;
                w.ideal += job_ceiling(spec);
                w.job_s.push(secs(now - p.submitted));
                w.submit_s.push(secs(p.accepted - p.submitted));
                w.queue_s.push(secs(running - p.accepted));
                match spec.engine {
                    EngineKind::Srm => w.run_srm.push(secs(now - running)),
                    EngineKind::Dsm => w.run_dsm.push(secs(now - running)),
                }
                if let Some(rec) = rec.as_deref_mut() {
                    rec.set_unit(p.id);
                    let job = rec.add("job", ROOT, p.submitted, now);
                    rec.add("submit", job, p.submitted, p.accepted);
                    rec.add("queue", job, p.accepted, running);
                    rec.add("run", job, running, now);
                }
            }
            false
        });
        w.wall = start.elapsed();
    }
    w
}

/// Run the server workload for the window.  A traced run splits the
/// window: the first half untraced, the second with job spans.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mix = job_mix(args.seed);
    let root = args.work.join("server");
    let digests: Vec<u64> = mix.iter().map(expected_digest).collect();
    let (mut opens, mut probes, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut server = None;
    for k in 0..OPENS {
        let probe = match durable_write(&root.join(format!("probe-{k}"))) {
            Ok(p) => secs(p),
            Err(e) => {
                out.fail(format!("durable-write probe: {e}"));
                continue;
            }
        };
        let cfg = config(&root.join(format!("open-{k}")));
        let t = Instant::now();
        let opened = JobServer::open(cfg);
        let open = secs(t.elapsed());
        opens.push(open);
        probes.push(probe);
        setups.push(normalised(open, probe, DURABLE_WRITE_REF));
        match opened {
            Ok(s) if k + 1 == OPENS => server = Some(s),
            Ok(s) => {
                s.shutdown();
            }
            Err(e) => out.fail(format!("open server: {e}")),
        }
    }
    let Some(server) = server else {
        let _ = std::fs::remove_dir_all(&root);
        return out;
    };
    let first = (args.seed % mix.len() as u64) as usize;
    let window = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };
    let w = closed_loop(&server, &mix, &digests, first, window, &mut out, None);
    let traced = args.trace.then(|| {
        let mut rec = Recorder::default();
        let t = closed_loop(
            &server,
            &mix,
            &digests,
            first,
            window,
            &mut out,
            Some(&mut rec),
        );
        out.spans = rec.spans().to_vec();
        t
    });
    let stats = server.stats();
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&root);

    let wall = secs(w.wall).max(f64::MIN_POSITIVE);
    let records_per_s = w.records as f64 / wall;
    let ceiling_frac = secs(w.ideal) / WORKERS as f64 / wall;
    let setup_s = median(&setups);
    out.metric("setup_s", setup_s);
    out.metric("ceiling_frac", ceiling_frac);
    out.metric("peak_rss_mb", peak_rss_mb());
    if let Some(t) = traced {
        let both = |f: fn(&Window) -> &Vec<f64>| {
            let mut v = f(&w).clone();
            v.extend(f(&t));
            median(&v)
        };
        out.metric("job_s.p50", both(|w| &w.job_s));
        out.metric("job_s.samples", (w.job_s.len() + t.job_s.len()) as f64);
        out.metric("server.submit_s.p50", both(|w| &w.submit_s));
        out.metric("server.queue_s.p50", both(|w| &w.queue_s));
        out.metric("server.run_s.srm.p50", both(|w| &w.run_srm));
        out.metric("server.run_s.dsm.p50", both(|w| &w.run_dsm));
        out.metric(
            "server.peak_admitted_frac",
            stats.peak_admitted as f64 / stats.capacity.max(1) as f64,
        );
        out.metric("server.refused", (w.refused + t.refused) as f64);
        out.metric("host.records_per_s", records_per_s);
        out.metric(
            "trace.overhead_frac",
            median(&t.job_s) / median(&w.job_s) - 1.0,
        );
    }
    out.show("setup_s", setup_s, "s");
    out.show("open_s.raw", median(&opens), "s");
    out.show("durable_write_s", median(&probes), "s");
    out.show("records_per_s", records_per_s, "records/s");
    out.show("job_s.p50", median(&w.job_s), "s");
    out.show("job_s.samples", w.job_s.len() as f64, "count");
    out.show("ceiling_frac", ceiling_frac, "ratio");
    out.show("peak_rss_mb", peak_rss_mb(), "MB");
    out.context.push(("workers", WORKERS.to_string()));
    out.context.push(("outstanding", OUTSTANDING.to_string()));
    out.context.push(("poll_ms", POLL.as_millis().to_string()));
    out.context
        .push(("device_us_per_block", DELAY.as_micros().to_string()));
    out.context.push(("fault_rate", FAULT_RATE.to_string()));
    out.context.push((
        "mix",
        "SRM 15k, SRM 40k, SRM 15k, SRM 40k, DSM 15k, DSM 40k; D=4 B=16 M=1024".into(),
    ));
    out
}
