//! Block-granularity SRM merge simulator (§9.3's experiment).
//!
//! Replays the *exact* I/O schedule of [`crate::merge`] without
//! materializing records: the schedule's decisions depend on record keys
//! only through each block's smallest key (forecasting, flush ranks,
//! `OutRank`) and largest key (the instant a leading block's buffer
//! frees), so a run is fully described by those two keys per block.
//!
//! Average-case inputs at the paper's scale (`R = kD` runs of `L = 1000`
//! blocks of `B = 1000` records) are drawn exactly with the
//! order-statistics sampler of [`occupancy::order_stats`] in `O(#blocks)`.
//!
//! The integration test `tests/simulator_vs_engine.rs` checks bit-exact
//! read/flush counts against the record-level engine on shared inputs.

use crate::error::{Result, SrmError};
use crate::key::{unit_f64_to_key, BlockKey, RunId};
use crate::loser_tree::LoserTree;
use crate::scheduler::{ScheduleStats, Scheduler};
use occupancy::order_stats::BlockBounds;
use pdisk::DiskId;
use rand::Rng;
use std::collections::VecDeque;

/// One run as the simulator sees it: a start disk and both boundary keys
/// of every block.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Disk of block 0 (`d_r`).
    pub start_disk: u32,
    /// Smallest key per block, strictly increasing across blocks.
    pub min_keys: Vec<u64>,
    /// Largest key per block (`min_keys[i] <= max_keys[i] < min_keys[i+1]`).
    pub max_keys: Vec<u64>,
}

impl SimRun {
    fn blocks(&self) -> u64 {
        self.min_keys.len() as u64
    }

    fn disk_of(&self, idx: u64, d: usize) -> DiskId {
        DiskId::from_mod(u64::from(self.start_disk) + idx, d)
    }
}

/// A complete simulator input: `D` disks plus the runs to merge.
#[derive(Debug, Clone)]
pub struct SimInput {
    /// Number of disks.
    pub d: usize,
    /// The runs.
    pub runs: Vec<SimRun>,
}

/// How the simulator assigns start disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPlacement {
    /// Uniformly random per run (SRM proper).
    Random,
    /// The paper's §8 stagger: run `r` of `R` starts on disk `⌊rD/R⌋`.
    Staggered,
}

impl SimInput {
    /// Draw the paper's average-case input: `r_runs` runs, each of
    /// `blocks_per_run` blocks of `b` records, with i.i.d. uniform keys.
    pub fn average_case<RN: Rng + ?Sized>(
        r_runs: usize,
        blocks_per_run: u64,
        b: u64,
        d: usize,
        placement: SimPlacement,
        rng: &mut RN,
    ) -> Self {
        assert!(r_runs > 0 && blocks_per_run > 0 && b > 0 && d > 0);
        let runs = (0..r_runs)
            .map(|r| {
                let start_disk = match placement {
                    SimPlacement::Random => rng.random_range(0..d) as u32,
                    SimPlacement::Staggered => (r * d / r_runs) as u32,
                };
                let bounds = BlockBounds::sample(blocks_per_run * b, b, rng);
                SimRun {
                    start_disk,
                    min_keys: bounds.minima.iter().map(|&f| unit_f64_to_key(f)).collect(),
                    max_keys: bounds.maxima.iter().map(|&f| unit_f64_to_key(f)).collect(),
                }
            })
            .collect();
        SimInput { d, runs }
    }

    /// Total blocks across all runs.
    pub fn total_blocks(&self) -> u64 {
        self.runs.iter().map(SimRun::blocks).sum()
    }

    /// Average-case input with **tunable overlap**: run `j` draws its
    /// keys uniformly from an interval of width `W` starting at
    /// `j·(1−θ)·W`, so `θ = 1` recovers the fully interleaved model of
    /// [`SimInput::average_case`] and `θ = 0` gives pairwise-disjoint
    /// runs (the merge degenerates to concatenation).  Models sorted-ish
    /// or time-clustered real-world inputs.
    pub fn overlapping_case<RN: Rng + ?Sized>(
        r_runs: usize,
        blocks_per_run: u64,
        b: u64,
        d: usize,
        theta: f64,
        placement: SimPlacement,
        rng: &mut RN,
    ) -> Self {
        assert!((0.0..=1.0).contains(&theta), "theta in [0,1]");
        assert!(r_runs > 0 && blocks_per_run > 0 && b > 0 && d > 0);
        let width = 1.0 / ((r_runs as f64 - 1.0) * (1.0 - theta) + 1.0);
        let runs = (0..r_runs)
            .map(|r| {
                let start_disk = match placement {
                    SimPlacement::Random => rng.random_range(0..d) as u32,
                    SimPlacement::Staggered => (r * d / r_runs) as u32,
                };
                let lo = r as f64 * (1.0 - theta) * width;
                let bounds = BlockBounds::sample(blocks_per_run * b, b, rng);
                let map = |f: f64| unit_f64_to_key((lo + f * width).clamp(1e-15, 1.0 - 1e-15));
                SimRun {
                    start_disk,
                    min_keys: bounds.minima.iter().map(|&f| map(f)).collect(),
                    max_keys: bounds.maxima.iter().map(|&f| map(f)).collect(),
                }
            })
            .collect();
        SimInput { d, runs }
    }

    /// The §3 worst case: runs that consume in **lockstep** (all runs'
    /// block `i` participates before any run's block `i+1`), so that with
    /// any placement that puts every run on the *same* start disk, the `R`
    /// next-needed blocks always share one disk and reads serialize.
    ///
    /// Keys are laid out as `block i of run j` having min `(i·R + j)·2`
    /// and max `(i·R + j)·2 + 1` (scaled into the key space), which makes
    /// the participation order exactly round-robin across runs.
    ///
    /// `start_disks` supplies the placement under attack (e.g. all zeros
    /// for the fully deterministic layout, or random draws for SRM).
    pub fn lockstep_adversarial(blocks_per_run: u64, d: usize, start_disks: &[u32]) -> Self {
        assert!(!start_disks.is_empty() && blocks_per_run > 0 && d > 0);
        let r = start_disks.len() as u64;
        let runs = start_disks
            .iter()
            .enumerate()
            .map(|(j, &start_disk)| {
                assert!((start_disk as usize) < d);
                let min_keys = (0..blocks_per_run)
                    .map(|i| (i * r + j as u64) * 2 + 1)
                    .collect();
                let max_keys = (0..blocks_per_run)
                    .map(|i| (i * r + j as u64) * 2 + 2)
                    .collect();
                SimRun {
                    start_disk,
                    min_keys,
                    max_keys,
                }
            })
            .collect();
        SimInput { d, runs }
    }

    /// Upper bound on total reads from the paper's phase analysis
    /// (Lemmas 6 and 8): `Reads ≤ I_0 + Σ_i L'_i`, where `I_0` is the
    /// per-disk maximum of initial blocks and `L'_i` is, for the `i`-th
    /// group of `R` blocks in participation order (excluding initial
    /// blocks), the maximum number of those blocks sharing one disk.
    ///
    /// Computable from the input alone — no simulation — so tests can
    /// check the *implementation's* measured reads against the *theory's*
    /// bound.
    pub fn phase_read_upper_bound(&self) -> u64 {
        self.initial_occupancy() + self.phase_occupancies().iter().sum::<u64>()
    }

    /// `I_0`: the per-disk maximum over the runs' initial blocks — a
    /// classical occupancy maximum with `R` balls in `D` bins.
    pub fn initial_occupancy(&self) -> u64 {
        let mut init = vec![0u64; self.d];
        for run in &self.runs {
            init[run.disk_of(0, self.d).index()] += 1;
        }
        init.into_iter().max().unwrap_or(0)
    }

    /// The per-phase occupancy maxima `L'_i` of Definition 11: split the
    /// non-initial blocks into groups of `R` by participation order
    /// (ascending block minimum, §6), and for each group take the maximum
    /// number of blocks sharing one disk.
    ///
    /// These are exactly the dependent-occupancy maxima the paper's §7
    /// analyzes: each phase's blocks form chains (consecutive blocks of
    /// one run) dropped cyclically onto the disks, so `E[L'_i]` is the
    /// quantity Theorem 2 bounds and Table 1 approximates by `C(kD,D)`.
    pub fn phase_occupancies(&self) -> Vec<u64> {
        let d = self.d;
        let r = self.runs.len();
        let mut blocks: Vec<(u64, DiskId)> = Vec::new();
        for run in &self.runs {
            for idx in 1..run.blocks() {
                blocks.push((run.min_keys[idx as usize], run.disk_of(idx, d)));
            }
        }
        blocks.sort_unstable_by_key(|&(key, disk)| (key, disk));
        blocks
            .chunks(r)
            .map(|phase| {
                let mut per_disk = vec![0u64; d];
                for &(_, disk) in phase {
                    per_disk[disk.index()] += 1;
                }
                per_disk.into_iter().max().unwrap_or(0)
            })
            .collect()
    }
}

/// Outcome of one simulated merge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Scheduling counters — identical semantics to the engine's.
    pub schedule: ScheduleStats,
    /// Total blocks across all input runs.
    pub total_blocks: u64,
    /// Read-overhead factor `v`: total reads over the per-pass minimum
    /// `total_blocks / D`.
    pub overhead_v: f64,
}

struct SimRunState {
    cur_idx: u64,
    awaiting: bool,
    exhausted: bool,
    /// The awaited block arrived, but the event tree still holds its min
    /// key; re-keyed to the max key when the run next wins.
    rekey: bool,
}

/// One schedule event, emitted by [`MergeSim::run_traced`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A step-1 read fetching the initial blocks of the listed runs.
    InitRead {
        /// Runs whose block 0 arrived in this operation.
        runs: Vec<RunId>,
    },
    /// A main-loop `ParRead_t`, possibly preceded by a `Flush_t`.
    ParRead {
        /// `(disk, run, block idx)` fetched, one entry per disk.
        targets: Vec<(u32, RunId, u64)>,
        /// `(run, block idx)` virtually flushed by rule 2c.
        flushed: Vec<(RunId, u64)>,
    },
    /// Run `run`'s leading block `idx` was fully consumed.
    Depleted {
        /// The run whose block depleted.
        run: RunId,
        /// Index of the depleted block.
        idx: u64,
    },
}

/// The simulator itself.  Stateless; see [`MergeSim::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeSim;

impl MergeSim {
    /// Simulate one SRM merge of `input` and return the I/O counts.
    pub fn run(input: &SimInput) -> Result<SimStats> {
        Self::run_inner(input, None)
    }

    /// Like [`MergeSim::run`], also returning the full schedule trace
    /// (every read with its targets and flush victims, every depletion) —
    /// the basis of the `schedule_trace` example and of fine-grained
    /// schedule tests.
    pub fn run_traced(input: &SimInput) -> Result<(SimStats, Vec<TraceEvent>)> {
        let mut trace = Vec::new();
        let stats = Self::run_inner(input, Some(&mut trace))?;
        Ok((stats, trace))
    }

    fn run_inner(input: &SimInput, mut trace: Option<&mut Vec<TraceEvent>>) -> Result<SimStats> {
        let d = input.d;
        let r = input.runs.len();
        if r == 0 {
            return Err(SrmError::Config("merge of zero runs".into()));
        }
        for (j, run) in input.runs.iter().enumerate() {
            if run.min_keys.is_empty() || run.min_keys.len() != run.max_keys.len() {
                return Err(SrmError::Config(format!("run {j} malformed")));
            }
            if run.start_disk as usize >= d {
                return Err(SrmError::Config(format!("run {j} start disk out of range")));
            }
        }
        let mut sched = Scheduler::new(r, d);
        let mut states: Vec<SimRunState> = (0..r)
            .map(|_| SimRunState {
                cur_idx: 0,
                awaiting: false,
                exhausted: false,
                rekey: false,
            })
            .collect();

        // §5.5 step 1: fetch block 0 of every run, one block per disk per
        // operation; seed the forecasting table with the keys of blocks
        // 1..=D (the initial block's implanted table).
        let mut per_disk: Vec<VecDeque<RunId>> = vec![VecDeque::new(); d];
        for (j, run) in input.runs.iter().enumerate() {
            per_disk[run.disk_of(0, d).index()].push_back(j as RunId);
        }
        loop {
            let mut batch = Vec::with_capacity(d);
            for q in per_disk.iter_mut() {
                if let Some(j) = q.pop_front() {
                    batch.push(j);
                }
            }
            if batch.is_empty() {
                break;
            }
            sched.charge_initial_read(batch.len());
            if let Some(sink) = trace.as_deref_mut() {
                sink.push(TraceEvent::InitRead { runs: batch.clone() });
            }
            for j in batch {
                let run = &input.runs[j as usize];
                for idx in 1..=(d as u64).min(run.blocks().saturating_sub(1)) {
                    let key = BlockKey::new(run.min_keys[idx as usize], j, idx);
                    sched.fds_mut().set(run.disk_of(idx, d), j, Some(key));
                }
            }
        }
        // Event tree: per run, the key of its next schedule-relevant event —
        // depletion of the leading block (max key) or, when awaiting I/O,
        // the blocked participation key (min key).  A run whose awaited
        // block has arrived keeps its min key until it wins (`rekey`):
        // every other leaf's key is then at most its true event key, so
        // the first *true* key to win is the same one a tree re-keyed at
        // arrival would pick, and arrivals cost no `O(R)` rebuild.
        let mut tree = LoserTree::new(input.runs.iter().map(|run| run.max_keys[0]).collect());

        // Main loop — mirror of merge.rs::run_to_completion.
        loop {
            sched.drain();
            if sched.can_attempt_read() {
                Self::execute_read(input, &mut sched, &mut states, &mut trace)?;
                continue;
            }
            if tree.all_exhausted() {
                break;
            }
            let (j, key) = tree.peek();
            if states[j].rekey {
                // Schedules nothing, so the event order is unchanged.
                states[j].rekey = false;
                tree.replace_top(input.runs[j].max_keys[states[j].cur_idx as usize]);
                continue;
            }
            if states[j].awaiting {
                return Err(SrmError::Internal(format!(
                    "simulated merge stuck: run {j} awaits block {} (key {key})",
                    states[j].cur_idx
                )));
            }
            // Depletion of run j's leading block.
            if let Some(sink) = trace.as_deref_mut() {
                sink.push(TraceEvent::Depleted {
                    run: j as RunId,
                    idx: states[j].cur_idx,
                });
            }
            Self::advance_run(input, &mut sched, &mut states, &mut tree, j)?;
        }
        let schedule = sched.stats();
        let total_blocks = input.total_blocks();
        Ok(SimStats {
            schedule,
            total_blocks,
            overhead_v: schedule.total_reads() as f64 / (total_blocks as f64 / d as f64),
        })
    }

    fn execute_read(
        input: &SimInput,
        sched: &mut Scheduler,
        states: &mut [SimRunState],
        trace: &mut Option<&mut Vec<TraceEvent>>,
    ) -> Result<()> {
        let d = input.d;
        let plan = sched.plan_read(|k: &BlockKey| input.runs[k.run as usize].disk_of(k.idx, d));
        if let Some(sink) = trace.as_deref_mut() {
            sink.push(TraceEvent::ParRead {
                targets: plan
                    .targets
                    .iter()
                    .map(|(disk, k)| (disk.0, k.run, k.idx))
                    .collect(),
                flushed: plan.flushed.iter().map(|k| (k.run, k.idx)).collect(),
            });
        }
        for (disk, key) in plan.targets {
            let run = &input.runs[key.run as usize];
            let next_idx = key.idx + d as u64;
            let implant = (next_idx < run.blocks())
                .then(|| BlockKey::new(run.min_keys[next_idx as usize], key.run, next_idx));
            let st = &mut states[key.run as usize];
            let to_leading = st.awaiting && st.cur_idx == key.idx;
            sched.arrive(key, disk, implant, to_leading);
            if to_leading {
                st.awaiting = false;
                st.rekey = true;
            }
        }
        Ok(())
    }

    fn advance_run(
        input: &SimInput,
        sched: &mut Scheduler,
        states: &mut [SimRunState],
        tree: &mut LoserTree,
        j: usize,
    ) -> Result<()> {
        let run = &input.runs[j];
        let st = &mut states[j];
        st.cur_idx += 1;
        if st.cur_idx >= run.blocks() {
            st.exhausted = true;
            tree.replace_top(u64::MAX);
            return Ok(());
        }
        let idx = st.cur_idx;
        let key = BlockKey::new(run.min_keys[idx as usize], j as RunId, idx);
        if sched.promote_to_leading(key) {
            tree.replace_top(run.max_keys[idx as usize]);
        } else {
            // Still on disk: the merge is gated by this block's min key.
            let disk = run.disk_of(idx, input.d);
            let entry = sched.fds().entry(disk, j as RunId).ok_or_else(|| {
                SrmError::Internal(format!("run {j} awaits block {idx} with no FDS entry"))
            })?;
            if entry.idx != idx {
                return Err(SrmError::Internal(format!(
                    "FDS entry for run {j} is block {}, expected {idx}",
                    entry.idx
                )));
            }
            st.awaiting = true;
            tree.replace_top(entry.key);
        }
        Ok(())
    }
}

/// Convenience: average the overhead factor `v(k, D)` over `trials`
/// simulated merges of `kD` runs of `blocks_per_run` blocks (Table 3's
/// experiment: the paper uses `blocks_per_run = 1000`).
pub fn estimate_overhead_v<RN: Rng + ?Sized>(
    k: usize,
    d: usize,
    blocks_per_run: u64,
    b: u64,
    placement: SimPlacement,
    trials: u64,
    rng: &mut RN,
) -> Result<occupancy::Estimate> {
    let mut acc = occupancy::RunningStats::new();
    for _ in 0..trials {
        let input = SimInput::average_case(k * d, blocks_per_run, b, d, placement, rng);
        acc.push(MergeSim::run(&input)?.overhead_v);
    }
    Ok(acc.estimate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn avg_case(r: usize, blocks: u64, d: usize, seed: u64) -> SimInput {
        let mut rng = SmallRng::seed_from_u64(seed);
        SimInput::average_case(r, blocks, 32, d, SimPlacement::Random, &mut rng)
    }

    #[test]
    fn completes_and_reads_every_block_at_least_once() {
        let input = avg_case(8, 50, 4, 1);
        let stats = MergeSim::run(&input).unwrap();
        let total = input.total_blocks();
        assert!(stats.schedule.blocks_read >= total);
        assert_eq!(
            stats.schedule.blocks_read - stats.schedule.blocks_flushed,
            total,
            "each flush forces exactly one re-read"
        );
    }

    #[test]
    fn overhead_at_least_one() {
        for seed in 0..5 {
            let input = avg_case(10, 40, 5, seed);
            let stats = MergeSim::run(&input).unwrap();
            assert!(
                stats.overhead_v >= 1.0 - 1e-9,
                "v = {} below the single-pass minimum",
                stats.overhead_v
            );
        }
    }

    #[test]
    fn single_run_single_disk() {
        let input = avg_case(1, 20, 1, 2);
        let stats = MergeSim::run(&input).unwrap();
        // One disk: every block is one read; v = 1 exactly.
        assert_eq!(stats.schedule.total_reads(), 20);
        assert!((stats.overhead_v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_seeds_reproduce_counts() {
        let a = MergeSim::run(&avg_case(12, 30, 3, 7)).unwrap();
        let b = MergeSim::run(&avg_case(12, 30, 3, 7)).unwrap();
        assert_eq!(a.schedule, b.schedule);
    }

    /// Table 3's headline: with k reasonably large the average-case
    /// overhead is essentially 1.
    #[test]
    fn large_k_overhead_near_one() {
        let mut rng = SmallRng::seed_from_u64(3);
        let est = estimate_overhead_v(10, 5, 100, 64, SimPlacement::Random, 3, &mut rng).unwrap();
        assert!(
            est.mean < 1.1,
            "v(10, 5) = {} should be close to 1 on average-case inputs",
            est.mean
        );
    }

    /// Small k against many disks shows real overhead (Table 3's corner:
    /// v(5, 50) ≈ 1.2).
    #[test]
    fn small_k_many_disks_overhead_visible() {
        let mut rng = SmallRng::seed_from_u64(4);
        let est = estimate_overhead_v(2, 16, 60, 32, SimPlacement::Random, 3, &mut rng).unwrap();
        assert!(
            est.mean > 1.02,
            "v(2, 16) = {} should exceed 1 noticeably",
            est.mean
        );
    }

    #[test]
    fn staggered_placement_runs_clean() {
        let mut rng = SmallRng::seed_from_u64(5);
        let input = SimInput::average_case(12, 40, 32, 4, SimPlacement::Staggered, &mut rng);
        // Stagger: run r on disk floor(r*4/12): 3 runs per disk.
        let counts = input.runs.iter().fold(vec![0; 4], |mut acc, r| {
            acc[r.start_disk as usize] += 1;
            acc
        });
        assert_eq!(counts, vec![3, 3, 3, 3]);
        let stats = MergeSim::run(&input).unwrap();
        assert!(stats.overhead_v >= 1.0 - 1e-9);
    }

    /// The core of the paper's analysis, checked against the living
    /// implementation: measured reads never exceed the phase/occupancy
    /// bound `I_0 + Σ L'_i` (Lemmas 6 + 8).
    #[test]
    fn reads_bounded_by_phase_occupancy() {
        for seed in 0..8 {
            let input = avg_case(10, 60, 5, seed);
            let stats = MergeSim::run(&input).unwrap();
            let bound = input.phase_read_upper_bound();
            assert!(
                stats.schedule.total_reads() <= bound,
                "seed {seed}: reads {} exceed Lemma 6 bound {bound}",
                stats.schedule.total_reads()
            );
        }
        // Also in the flush-heavy regime (k = 1).
        for seed in 0..4 {
            let input = avg_case(8, 150, 8, 100 + seed);
            let stats = MergeSim::run(&input).unwrap();
            let bound = input.phase_read_upper_bound();
            assert!(
                stats.schedule.total_reads() <= bound,
                "k=1 seed {seed}: reads {} exceed bound {bound}",
                stats.schedule.total_reads()
            );
        }
    }

    /// §3's motivating disaster: deterministic same-disk placement with a
    /// lockstep input concentrates every phase's `R` blocks on one disk.
    /// SRM's prefetching softens the paper's "factor 1/D of optimal"
    /// (which is about naive merging) to roughly `D/3` here — still
    /// growing linearly in `D` — while random placement on the *same
    /// adversarial input* stays near 1.
    #[test]
    fn lockstep_adversary_punishes_deterministic_placement() {
        let d = 8;
        let r = 8;
        let blocks = 100;
        // Deterministic: every run starts on disk 0.
        let bad = SimInput::lockstep_adversarial(blocks, d, &vec![0u32; r]);
        let bad_stats = MergeSim::run(&bad).unwrap();
        assert!(
            bad_stats.overhead_v > 2.0,
            "same-disk lockstep should hurt badly: v = {} (D = {d})",
            bad_stats.overhead_v
        );
        // And it keeps getting worse with D (measured ≈ 2.5, 5.2, 10.9 at
        // D = 8, 16, 32).
        let worse = MergeSim::run(&SimInput::lockstep_adversarial(blocks, 16, &[0u32; 16]))
            .unwrap();
        assert!(worse.overhead_v > 1.5 * bad_stats.overhead_v);
        // Randomized: same keys, random start disks.  At R = D (k = 1)
        // random placement pays genuine occupancy overhead (~1.5 at
        // D = 8), so compare its *average* against the adversary's value.
        let mut rng = SmallRng::seed_from_u64(6);
        let mut sum = 0.0;
        let trials = 8;
        for _ in 0..trials {
            let starts: Vec<u32> = (0..r).map(|_| rng.random_range(0..d as u32)).collect();
            let good = SimInput::lockstep_adversarial(blocks, d, &starts);
            sum += MergeSim::run(&good).unwrap().overhead_v;
        }
        let mean = sum / trials as f64;
        assert!(
            mean < 0.75 * bad_stats.overhead_v,
            "randomization should beat the adversary on average: {mean} vs {}",
            bad_stats.overhead_v
        );
    }

    /// The paper's staggered variant also survives the lockstep input —
    /// the stagger spreads the R leading blocks across disks.
    #[test]
    fn lockstep_adversary_vs_stagger() {
        let d = 8;
        let r = 8;
        let starts: Vec<u32> = (0..r).map(|j| (j * d / r) as u32).collect();
        let input = SimInput::lockstep_adversarial(100, d, &starts);
        let stats = MergeSim::run(&input).unwrap();
        assert!(
            stats.overhead_v < 1.5,
            "stagger defeats lockstep: v = {}",
            stats.overhead_v
        );
    }

    /// Overlap sweep: θ = 1 matches the standard average case; θ = 0
    /// (disjoint runs) is the easy case with v ≈ 1; the small-k/large-D
    /// overhead shrinks monotonically-ish as overlap decreases.
    #[test]
    fn overlap_reduces_overhead() {
        let mut rng = SmallRng::seed_from_u64(31);
        let v_at = |theta: f64, rng: &mut SmallRng| -> f64 {
            let mut sum = 0.0;
            for _ in 0..3 {
                let input =
                    SimInput::overlapping_case(32, 60, 32, 16, theta, SimPlacement::Random, rng);
                sum += MergeSim::run(&input).unwrap().overhead_v;
            }
            sum / 3.0
        };
        let full = v_at(1.0, &mut rng);
        let none = v_at(0.0, &mut rng);
        assert!(full >= 1.0 && none >= 1.0);
        assert!(
            none <= full + 0.02,
            "disjoint runs should be no harder: v(0) = {none}, v(1) = {full}"
        );
        assert!(none < 1.1, "disjoint runs are near-free: v = {none}");
    }

    #[test]
    fn overlap_zero_is_concatenation() {
        let mut rng = SmallRng::seed_from_u64(32);
        let input = SimInput::overlapping_case(6, 40, 16, 3, 0.0, SimPlacement::Random, &mut rng);
        // Runs occupy disjoint intervals: run j's last key < run j+1's first.
        for w in input.runs.windows(2) {
            assert!(w[0].max_keys.last().unwrap() < w[1].min_keys.first().unwrap());
        }
        let stats = MergeSim::run(&input).unwrap();
        assert!(stats.overhead_v < 1.2, "v = {}", stats.overhead_v);
    }

    #[test]
    fn trace_is_consistent_with_stats() {
        let input = avg_case(6, 30, 3, 11);
        let (stats, trace) = MergeSim::run_traced(&input).unwrap();
        // Untraced run must be identical.
        assert_eq!(MergeSim::run(&input).unwrap(), stats);
        let init_reads = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::InitRead { .. }))
            .count() as u64;
        let par_reads = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::ParRead { .. }))
            .count() as u64;
        assert_eq!(init_reads, stats.schedule.init_reads);
        assert_eq!(par_reads, stats.schedule.par_reads);
        // Blocks fetched per trace = blocks_read.
        let fetched: u64 = trace
            .iter()
            .map(|e| match e {
                TraceEvent::InitRead { runs } => runs.len() as u64,
                TraceEvent::ParRead { targets, .. } => targets.len() as u64,
                TraceEvent::Depleted { .. } => 0,
            })
            .sum();
        assert_eq!(fetched, stats.schedule.blocks_read);
        // Every block of every run depletes exactly once.
        let depletions = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Depleted { .. }))
            .count() as u64;
        assert_eq!(depletions, input.total_blocks());
        // No ParRead targets two blocks on one disk.
        for e in &trace {
            if let TraceEvent::ParRead { targets, .. } = e {
                let mut disks: Vec<u32> = targets.iter().map(|t| t.0).collect();
                disks.sort_unstable();
                disks.dedup();
                assert_eq!(disks.len(), targets.len());
            }
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(MergeSim::run(&SimInput { d: 2, runs: vec![] }).is_err());
        let bad = SimInput {
            d: 2,
            runs: vec![SimRun {
                start_disk: 5,
                min_keys: vec![1],
                max_keys: vec![2],
            }],
        };
        assert!(MergeSim::run(&bad).is_err());
    }
}
