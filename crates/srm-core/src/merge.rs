//! The SRM merging procedure (§5): record-level engine.
//!
//! Merges `R` cyclically striped, forecast-formatted runs into one output
//! run, driving the I/O schedule of [`crate::scheduler`] and the internal
//! loser-tree merge concurrently (in the counting model, "concurrently"
//! means reads are initiated at every legal opportunity — the earliest
//! possible time, which is what the dedicated `M_D` buffers exist for —
//! and the merge consumes records whenever no read can be initiated).
//!
//! # Degraded mode
//!
//! The merge is deliberately oblivious to disk death.  When the array is a
//! [`pdisk::ParityDiskArray`] with a dead disk, the forecast-driven
//! schedule below is **unchanged**: the merge still asks for the dead
//! disk's next-needed block in the same parallel operation it always
//! would, and the parity layer serves it by reconstruction (one extra
//! parallel read of the surviving disks, counted as
//! `IoStats::reconstructed_reads`, never as a schedule read).  Because the
//! schedule — and therefore the sequence of records consumed and emitted —
//! is byte-identical to the failure-free execution, losing a disk mid-sort
//! changes *cost*, never *output*.

use crate::error::{Result, SrmError};
use crate::key::{BlockKey, RunId};
use crate::loser_tree::LoserTree;
use crate::output::RunWriter;
use crate::scheduler::{PlannedRead, ScheduleStats, Scheduler};
use pdisk::block::NO_BLOCK;
use pdisk::trace::{TraceBlock, TraceEvent, TraceFlush, TraceRunMeta, TraceSink, TraceTarget};
use pdisk::{
    Block, BlockAddr, BufferPool, DiskArray, DiskId, Forecast, Geometry, ReadTicket, Record,
    StripedRun,
};
use std::collections::VecDeque;

/// Statistics for one merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Scheduling counters (reads, flushes).
    pub schedule: ScheduleStats,
    /// Parallel write operations issued for the output run.
    pub write_ops: u64,
    /// Records emitted.
    pub records_out: u64,
    /// Number of input runs merged.
    pub runs_merged: usize,
}

/// Result of a merge: the output run plus its I/O accounting.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// Layout of the merged output run (forecast-formatted, striped).
    pub run: StripedRun,
    /// I/O accounting for this merge.
    pub stats: MergeStats,
}

struct RunState<'a, R: Record> {
    handle: &'a StripedRun,
    /// Records of the current leading block.
    leading: Vec<R>,
    cursor: usize,
    /// Index of the block that is (or, if `awaiting`, will be) leading.
    cur_idx: u64,
    awaiting: bool,
    exhausted: bool,
    /// The run's blocks in `M_R ∪ M_D`: `(block idx, min key, records)`.
    /// A handful at most, so a list beats a map.
    buffered: Vec<(u64, u64, Vec<R>)>,
}

impl<R: Record> RunState<'_, R> {
    /// Remove block `idx` from `M_R ∪ M_D`: `(min key, records)`.
    fn take_buffered(&mut self, idx: u64) -> Option<(u64, Vec<R>)> {
        let pos = self.buffered.iter().position(|b| b.0 == idx)?;
        let (_, min_key, recs) = self.buffered.swap_remove(pos);
        Some((min_key, recs))
    }
}

/// The one parallel read in flight between `submit_read` and
/// `complete_read` in the pipelined engine.
struct InFlightRead<R: Record> {
    ticket: ReadTicket<R>,
    /// The planned fetch set, in ticket (= address) order.
    targets: Vec<(DiskId, BlockKey)>,
    /// Rule-2c flushes performed at submit time, replayed into the
    /// completion-time [`TraceEvent::SchedRead`] annotation.
    flushed: Vec<TraceFlush>,
    /// Targets whose run is not (yet) awaiting them — the blocks that
    /// will land in `M_D`/`M_R` rather than go straight to leading.
    /// Completion gate `P_s` compares `fset_len + pending` to `R + D`.
    pending: usize,
}

/// Merge `runs` into a single run starting on `out_start_disk`.
///
/// The scheduler's memory partition is sized for `R = runs.len()`:
/// `R` leading buffers (`M_L`), `R + D` buffers in `M_R`, `D` in `M_D`, and
/// `2D` of write buffer inside the [`RunWriter`] — `2R + 4D` blocks total,
/// matching §5.1.
///
/// # Examples
///
/// ```
/// use pdisk::{DiskId, Geometry, MemDiskArray, U64Record};
/// use srm_core::{merge_runs, read_run, RunWriter};
///
/// let geom = Geometry::new(2, 4, 1000)?;
/// let mut disks: MemDiskArray<U64Record> = MemDiskArray::new(geom);
///
/// // Two forecast-formatted striped runs…
/// let mut handles = Vec::new();
/// for (start, keys) in [(0u32, [1u64, 3, 5, 7]), (1, [2, 4, 6, 8])] {
///     let mut w = RunWriter::new(geom, DiskId(start));
///     for k in keys { w.push(&mut disks, U64Record(k))?; }
///     handles.push(w.finish(&mut disks)?);
/// }
///
/// // …merged with forecast-and-flush into one sorted run.
/// let out = merge_runs(&mut disks, &handles, DiskId(0))?;
/// let merged = read_run(&mut disks, &out.run)?;
/// assert_eq!(merged.iter().map(|r| r.0).collect::<Vec<_>>(),
///            vec![1, 2, 3, 4, 5, 6, 7, 8]);
/// # Ok::<(), srm_core::SrmError>(())
/// ```
pub fn merge_runs<R: Record, A: DiskArray<R>>(
    array: &mut A,
    runs: &[StripedRun],
    out_start_disk: DiskId,
) -> Result<MergeOutcome> {
    merge_impl(array, runs, out_start_disk, false, 0)
}

/// Like [`merge_runs`], but overlapping disk time with merge time via the
/// split-phase [`DiskArray`] interface: each parallel read is *submitted*
/// at exactly the point the serial engine would execute it, the loser tree
/// keeps consuming already-resident buffers while the read is in flight,
/// and the read is *completed* at the first point its blocks are needed
/// (`P_need`: the tree's winner awaits one of them) or can be admitted
/// (`P_s`: the fetch set has room again).  Output writes are likewise
/// submitted a stripe ahead (write-behind, see
/// [`RunWriter::new_pipelined`]).
///
/// The I/O *schedule* is unchanged: reads and writes are initiated in the
/// same order, at the same record positions, against the same addresses as
/// [`merge_runs`], so the output run, the [`pdisk::IoStats`] deltas, and
/// the logical operation sequence in a model-check trace are identical.
/// Only wall-clock overlap differs — on a backend with real I/O latency
/// (e.g. [`pdisk::FileDiskArray`]) disk time hides behind merge time.  On
/// a synchronous backend the split-phase calls degenerate to the serial
/// ones and the result is the same by construction.
///
/// # Examples
///
/// ```
/// use pdisk::{DiskId, Geometry, MemDiskArray, U64Record};
/// use srm_core::{merge_runs_pipelined, read_run, RunWriter};
///
/// let geom = Geometry::new(2, 4, 1000)?;
/// let mut disks: MemDiskArray<U64Record> = MemDiskArray::new(geom);
/// let mut handles = Vec::new();
/// for (start, keys) in [(0u32, [1u64, 3, 5, 7]), (1, [2, 4, 6, 8])] {
///     let mut w = RunWriter::new(geom, DiskId(start));
///     for k in keys { w.push(&mut disks, U64Record(k))?; }
///     handles.push(w.finish(&mut disks)?);
/// }
///
/// let out = merge_runs_pipelined(&mut disks, &handles, DiskId(0))?;
/// let merged = read_run(&mut disks, &out.run)?;
/// assert_eq!(merged.iter().map(|r| r.0).collect::<Vec<_>>(),
///            vec![1, 2, 3, 4, 5, 6, 7, 8]);
/// # Ok::<(), srm_core::SrmError>(())
/// ```
pub fn merge_runs_pipelined<R: Record, A: DiskArray<R>>(
    array: &mut A,
    runs: &[StripedRun],
    out_start_disk: DiskId,
) -> Result<MergeOutcome> {
    merge_impl(array, runs, out_start_disk, true, 0)
}

/// Like [`merge_runs_pipelined`], but additionally hinting the backend
/// about the next `read_ahead` *predicted* blocks per disk via
/// [`DiskArray::prefetch`] every time a read is submitted.
///
/// The candidates come straight from the forecasting table: ranks 2..
/// of each disk's FDS column (rank 1 is the frontier the submitted read
/// already fetches), taken round-robin by rank across disks.  Every FDS
/// entry is a block the merge *will* read — the forecast is exact, not
/// heuristic — so no hint is ever wasted.  The hint count is capped by
/// the Definition-3 occupancy slack `(R + D − |F_t| − pending) + D`
/// (the buffers admission could hand out before the next submit, plus
/// the `M_D` demand buffers), so deep read-ahead never overshoots what
/// the schedule could accept.
///
/// Hints carry **no semantics**: they are not charged to
/// [`pdisk::IoStats`], not traced, and backends may ignore them
/// entirely (the default implementation does).  The logical operation
/// sequence is therefore byte-identical to [`merge_runs_pipelined`] and
/// [`merge_runs`] at every depth — only wall-clock changes, because a
/// file backend can overlap the *next several* parallel reads with
/// merge work instead of just one.
///
/// # Examples
///
/// ```
/// use pdisk::{DiskId, Geometry, MemDiskArray, U64Record};
/// use srm_core::{merge_runs_pipelined_deep, read_run, RunWriter};
///
/// let geom = Geometry::new(2, 4, 1000)?;
/// let mut disks: MemDiskArray<U64Record> = MemDiskArray::new(geom);
/// let mut handles = Vec::new();
/// for (start, keys) in [(0u32, [1u64, 3, 5, 7]), (1, [2, 4, 6, 8])] {
///     let mut w = RunWriter::new(geom, DiskId(start));
///     for k in keys { w.push(&mut disks, U64Record(k))?; }
///     handles.push(w.finish(&mut disks)?);
/// }
///
/// let out = merge_runs_pipelined_deep(&mut disks, &handles, DiskId(0), 4)?;
/// let merged = read_run(&mut disks, &out.run)?;
/// assert_eq!(merged.iter().map(|r| r.0).collect::<Vec<_>>(),
///            vec![1, 2, 3, 4, 5, 6, 7, 8]);
/// # Ok::<(), srm_core::SrmError>(())
/// ```
pub fn merge_runs_pipelined_deep<R: Record, A: DiskArray<R>>(
    array: &mut A,
    runs: &[StripedRun],
    out_start_disk: DiskId,
    read_ahead: usize,
) -> Result<MergeOutcome> {
    merge_impl(array, runs, out_start_disk, true, read_ahead)
}

fn merge_impl<R: Record, A: DiskArray<R>>(
    array: &mut A,
    runs: &[StripedRun],
    out_start_disk: DiskId,
    pipelined: bool,
    read_ahead: usize,
) -> Result<MergeOutcome> {
    let geom = array.geometry();
    if runs.is_empty() {
        return Err(SrmError::Config("merge of zero runs".into()));
    }
    for (i, r) in runs.iter().enumerate() {
        if r.records == 0 || r.len_blocks == 0 {
            return Err(SrmError::Config(format!("run {i} is empty")));
        }
        if r.base_offsets.len() != geom.d {
            return Err(SrmError::Config(format!(
                "run {i} laid out for {} disks, array has {}",
                r.base_offsets.len(),
                geom.d
            )));
        }
    }
    let trace = array.trace_sink().cloned();
    if let Some(sink) = &trace {
        sink.emit(TraceEvent::MergeBegin {
            r: runs.len(),
            geom,
            runs: runs
                .iter()
                .map(|h| TraceRunMeta {
                    start_disk: h.start_disk,
                    len_blocks: h.len_blocks,
                    base_offsets: h.base_offsets.clone(),
                })
                .collect(),
        });
    }
    let mut merger = Merger {
        geom,
        runs: runs
            .iter()
            .map(|h| RunState {
                handle: h,
                leading: Vec::new(),
                cursor: 0,
                cur_idx: 0,
                awaiting: false,
                exhausted: false,
                buffered: Vec::new(),
            })
            .collect(),
        sched: Scheduler::new(runs.len(), geom.d),
        // Built over the leading blocks' first keys by `initial_load`.
        tree: LoserTree::new(vec![u64::MAX]),
        writer: if pipelined {
            RunWriter::new_pipelined(geom, out_start_disk)
        } else {
            RunWriter::new(geom, out_start_disk)
        },
        in_flight: None,
        read_ahead,
        hint_cols: Vec::new(),
        hint_addrs: Vec::new(),
        pool: array.buffer_pool().cloned(),
        trace,
    };
    merger.initial_load(array)?;
    if pipelined {
        merger.run_to_completion_pipelined(array)
    } else {
        merger.run_to_completion(array)
    }
}

struct Merger<'a, R: Record> {
    geom: Geometry,
    runs: Vec<RunState<'a, R>>,
    sched: Scheduler,
    tree: LoserTree,
    writer: RunWriter<R>,
    /// The one read in flight (pipelined engine only; always `None` in
    /// the serial engine).
    in_flight: Option<InFlightRead<R>>,
    /// Forecast-driven prefetch depth `K`: predicted blocks per disk to
    /// hint at every submit (0 = no hints; serial engine ignores it).
    read_ahead: usize,
    /// Scratch reused by every [`Self::hint_read_ahead`]: the FDS ranks
    /// per disk (disk-major) and the rank-major hint list built from them.
    hint_cols: Vec<Option<BlockAddr>>,
    hint_addrs: Vec<BlockAddr>,
    /// Recycling pool shared with the backend, if the stack has one.
    pool: Option<BufferPool<R>>,
    /// Annotation sink, cloned from the array's installed trace (if any).
    trace: Option<TraceSink>,
}

impl<R: Record> Merger<'_, R> {
    fn addr_of(&self, key: &BlockKey) -> BlockAddr {
        self.runs[key.run as usize].handle.addr_of(key.idx)
    }

    /// §5.5 step 1: load block 0 of every run into `M_L` with parallel
    /// reads, seeding the forecasting table from the implanted key tables.
    fn initial_load<A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        let d = self.geom.d;
        let mut per_disk: Vec<VecDeque<RunId>> = vec![VecDeque::new(); d];
        for (j, st) in self.runs.iter().enumerate() {
            per_disk[st.handle.disk_of(0).index()].push_back(j as RunId);
        }
        loop {
            let mut batch: Vec<(RunId, BlockAddr)> = Vec::with_capacity(d);
            for q in per_disk.iter_mut() {
                if let Some(j) = q.pop_front() {
                    batch.push((j, self.runs[j as usize].handle.addr_of(0)));
                }
            }
            if batch.is_empty() {
                break;
            }
            let addrs: Vec<BlockAddr> = batch.iter().map(|&(_, a)| a).collect();
            let blocks = array.read(&addrs)?;
            self.sched.charge_initial_read(blocks.len());
            if let Some(sink) = &self.trace {
                sink.emit(TraceEvent::InitLoad {
                    blocks: batch.iter().map(|&(j, a)| (j, a.disk)).collect(),
                });
            }
            for ((j, _), block) in batch.into_iter().zip(blocks) {
                let st = &mut self.runs[j as usize];
                // The block is owned: take the implanted table instead of
                // cloning it.
                let keys = match block.forecast {
                    Forecast::Initial(keys) => keys,
                    f => {
                        return Err(SrmError::Internal(format!(
                            "run {j} block 0 carries {f:?}, expected Initial table"
                        )))
                    }
                };
                for (m, &k) in keys.iter().enumerate() {
                    let idx = m as u64 + 1;
                    if k != NO_BLOCK && idx < st.handle.len_blocks {
                        let disk = st.handle.disk_of(idx);
                        self.sched
                            .fds_mut()
                            .set(disk, j, Some(BlockKey::new(k, j, idx)));
                        if let Some(sink) = &self.trace {
                            sink.emit(TraceEvent::InitImplant { run: j, idx, key: k, disk });
                        }
                    }
                }
                st.leading = block.records;
                st.cursor = 0;
                st.cur_idx = 0;
            }
        }
        self.tree = LoserTree::new(
            self.runs
                .iter()
                .map(|st| st.leading.first().map_or(u64::MAX, |r| r.key()))
                .collect(),
        );
        Ok(())
    }

    /// Trace annotations for the rule-2c flush victims of a planned read.
    fn trace_flushes(&self, flushed: &[BlockKey]) -> Vec<TraceFlush> {
        flushed
            .iter()
            .map(|k| TraceFlush {
                run: k.run,
                idx: k.idx,
                key: k.key,
                disk: self.runs[k.run as usize].handle.disk_of(k.idx),
            })
            .collect()
    }

    /// Drop the flush victims' buffers (their contents are still on disk),
    /// recycling the record vectors when the stack has a pool.
    fn drop_flushed(&mut self, flushed: &[BlockKey]) {
        for key in flushed {
            let dropped = self.runs[key.run as usize].take_buffered(key.idx);
            debug_assert!(dropped.is_some(), "flushed block {key:?} had no buffer");
            if let (Some(pool), Some((_, recs))) = (&self.pool, dropped) {
                pool.put_records(recs);
            }
        }
    }

    /// One block's arrival: implant its forecast key, hand it to the
    /// awaiting run's leading buffer or park it in `M_D`, and record the
    /// trace row (`traced` is left empty when no trace sink is
    /// installed).  Shared verbatim by the serial and pipelined engines.
    fn arrive_block(
        &mut self,
        disk: DiskId,
        key: BlockKey,
        block: Block<R>,
        traced: &mut Vec<TraceBlock>,
    ) -> Result<()> {
        debug_assert_eq!(
            block.records.first().map(|r| r.key()),
            Some(key.key),
            "forecast key disagrees with block contents"
        );
        let next_idx = key.idx + self.geom.d as u64;
        let implant = match &block.forecast {
            Forecast::Next(k)
                if *k != NO_BLOCK && next_idx < self.runs[key.run as usize].handle.len_blocks =>
            {
                Some(BlockKey::new(*k, key.run, next_idx))
            }
            Forecast::Next(_) => None,
            f => {
                return Err(SrmError::Internal(format!(
                    "non-initial block {key:?} carries {f:?}"
                )))
            }
        };
        let st = &mut self.runs[key.run as usize];
        let to_leading = st.awaiting && st.cur_idx == key.idx;
        if self.trace.is_some() {
            traced.push(TraceBlock {
                run: key.run,
                idx: key.idx,
                key: key.key,
                disk,
                implant: implant.as_ref().map(|b| b.key),
                to_leading,
            });
        }
        self.sched.arrive(key, disk, implant, to_leading);
        if to_leading {
            // The run entered the tree at this block's forecast key, which
            // is the block's first key: no replay needed.
            debug_assert_eq!(self.tree.key_of(key.run as usize), key.key);
            st.leading = block.records;
            st.cursor = 0;
            st.awaiting = false;
        } else {
            st.buffered.push((key.idx, key.key, block.records));
        }
        Ok(())
    }

    /// Buffer for one read's [`TraceBlock`] rows; allocates only when a
    /// trace sink is installed.
    fn trace_rows(&self, targets: usize) -> Vec<TraceBlock> {
        if self.trace.is_some() {
            Vec::with_capacity(targets)
        } else {
            Vec::new()
        }
    }

    fn execute_read<A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        let runs = &self.runs;
        let plan: PlannedRead = self.sched.plan_read(|k: &BlockKey| {
            runs[k.run as usize].handle.disk_of(k.idx)
        });
        let flushed = self.trace_flushes(&plan.flushed);
        self.drop_flushed(&plan.flushed);
        let addrs: Vec<BlockAddr> = plan.targets.iter().map(|(_, k)| self.addr_of(k)).collect();
        let blocks = array.read(&addrs)?;
        let mut traced = self.trace_rows(plan.targets.len());
        for ((disk, key), block) in plan.targets.into_iter().zip(blocks) {
            self.arrive_block(disk, key, block, &mut traced)?;
        }
        if let Some(sink) = &self.trace {
            sink.emit(TraceEvent::SchedRead {
                targets: traced,
                flushed,
                fset_len: self.sched.fset_len(),
                staged_len: self.sched.staged_len(),
            });
        }
        Ok(())
    }

    /// Pipelined step 1: plan the next parallel read at the exact point
    /// the serial engine would execute it, then *submit* it and return
    /// without waiting.  The operation is charged and traced at submit, so
    /// the logical I/O sequence is identical to [`merge_runs`]'s.
    fn submit_read_pipelined<A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        debug_assert!(self.in_flight.is_none(), "one read in flight at a time");
        let runs = &self.runs;
        let plan: PlannedRead = self.sched.plan_read(|k: &BlockKey| {
            runs[k.run as usize].handle.disk_of(k.idx)
        });
        let flushed = self.trace_flushes(&plan.flushed);
        self.drop_flushed(&plan.flushed);
        let addrs: Vec<BlockAddr> = plan.targets.iter().map(|(_, k)| self.addr_of(k)).collect();
        let ticket = array.submit_read(&addrs)?;
        if let Some(sink) = &self.trace {
            sink.emit(TraceEvent::ReadSubmit {
                targets: plan
                    .targets
                    .iter()
                    .map(|&(disk, k)| TraceTarget {
                        run: k.run,
                        idx: k.idx,
                        key: k.key,
                        disk,
                    })
                    .collect(),
                flushed: flushed.clone(),
            });
        }
        // Targets already awaited go straight to a leading buffer on
        // arrival; the rest will occupy `M_D`/`M_R` and therefore gate
        // completion via `P_s`.  `advance_run` decrements this count when
        // a run starts awaiting one of the in-flight targets.
        let pending = plan
            .targets
            .iter()
            .filter(|(_, k)| {
                let st = &self.runs[k.run as usize];
                !(st.awaiting && st.cur_idx == k.idx)
            })
            .count();
        self.in_flight = Some(InFlightRead {
            ticket,
            targets: plan.targets,
            flushed,
            pending,
        });
        if self.read_ahead > 0 {
            self.hint_read_ahead(array);
        }
        Ok(())
    }

    /// Hint the backend about the next `read_ahead` forecast-predicted
    /// blocks per disk (ranks 2.. of each FDS column — rank 1 is in the
    /// flight just submitted), round-robin by rank across disks so one
    /// deep column cannot starve the others.
    ///
    /// Depth is capped by Definition-3 occupancy accounting: the
    /// backend's speculative cache holds at most `K` raw block images
    /// per disk, and `K` is clamped to `(R + D) / D` so the cache never
    /// exceeds the `R + D` blocks of the `M_R` budget — a second,
    /// physical-layer copy of the fetch-set allowance, never more.
    /// (The cache is *not* scheduler memory: admission's `|F_t| ≤ R + D`
    /// bound still governs what the merge holds decoded, and every
    /// hinted block is one the schedule will demand-read — the forecast
    /// is exact — so no admission decision is ever preempted.)  Pure
    /// hint — uncharged, untraced, semantics-free — so the op sequence
    /// is untouched at any depth.
    fn hint_read_ahead<A: DiskArray<R>>(&mut self, array: &mut A) {
        let d = self.geom.d;
        let k_cap = (self.runs.len() + d) / d;
        let depth = self.read_ahead.min(k_cap.max(1));
        let mut cols = std::mem::take(&mut self.hint_cols);
        let mut addrs = std::mem::take(&mut self.hint_addrs);
        cols.clear();
        for i in 0..d {
            let mut column = self.sched.fds().upcoming(DiskId::from_index(i), depth);
            cols.extend((0..depth).map(|_| column.next().map(|k| self.addr_of(&k))));
        }
        addrs.clear();
        for rank in 0..depth {
            addrs.extend((0..d).filter_map(|i| cols[i * depth + rank]));
        }
        if !addrs.is_empty() {
            array.prefetch(&addrs);
        }
        self.hint_cols = cols;
        self.hint_addrs = addrs;
    }

    /// Pipelined step 2: wait for the in-flight read and apply its
    /// arrivals — the same per-block handling as the serial
    /// `execute_read`, in the same (address) order.
    fn complete_read_pipelined<A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        let fl = self
            .in_flight
            .take()
            .ok_or_else(|| SrmError::Internal("completing a read with none in flight".into()))?;
        let blocks = array.complete_read(fl.ticket)?;
        let mut traced = self.trace_rows(fl.targets.len());
        for ((disk, key), block) in fl.targets.into_iter().zip(blocks) {
            self.arrive_block(disk, key, block, &mut traced)?;
        }
        if let Some(sink) = &self.trace {
            sink.emit(TraceEvent::SchedRead {
                targets: traced,
                flushed: fl.flushed,
                fset_len: self.sched.fset_len(),
                staged_len: self.sched.staged_len(),
            });
        }
        Ok(())
    }

    /// The leading block of `run` has been fully consumed: hand the `M_L`
    /// buffer over to the run's next block (exchange rules 1–2 of §5.2),
    /// or mark the run exhausted / awaiting I/O.
    fn advance_run(&mut self, run: usize) -> Result<()> {
        let st = &mut self.runs[run];
        if let Some(sink) = &self.trace {
            sink.emit(TraceEvent::Deplete {
                run: run as RunId,
                idx: st.cur_idx,
            });
        }
        st.cur_idx += 1;
        let depleted = std::mem::take(&mut st.leading);
        if let Some(pool) = &self.pool {
            pool.put_records(depleted);
        }
        st.cursor = 0;
        debug_assert_eq!(self.tree.peek().0, run, "only the winner's block depletes");
        if st.cur_idx >= st.handle.len_blocks {
            st.exhausted = true;
            self.tree.replace_top(u64::MAX);
            return Ok(());
        }
        let cur_idx = st.cur_idx;
        if let Some((min_key, recs)) = st.take_buffered(cur_idx) {
            let promoted = self
                .sched
                .promote_to_leading(BlockKey::new(min_key, run as RunId, st.cur_idx));
            if !promoted {
                return Err(SrmError::Internal(format!(
                    "buffered block (run {run}, idx {}) unknown to scheduler",
                    st.cur_idx
                )));
            }
            if let Some(sink) = &self.trace {
                sink.emit(TraceEvent::Promote {
                    run: run as RunId,
                    idx: st.cur_idx,
                });
            }
            st.leading = recs;
            self.tree.replace_top(st.leading[0].key());
        } else {
            // On disk: merge past this point is gated by the block's min
            // key, which is exactly the forecasting entry for its disk.
            let disk = st.handle.disk_of(st.cur_idx);
            let entry = self
                .sched
                .fds()
                .entry(disk, run as RunId)
                .ok_or_else(|| {
                    SrmError::Internal(format!(
                        "run {run} awaits block {} but FDS has no entry on {disk}",
                        st.cur_idx
                    ))
                })?;
            if entry.idx != st.cur_idx {
                return Err(SrmError::Internal(format!(
                    "FDS entry for run {run} on {disk} is block {}, expected {}",
                    entry.idx, st.cur_idx
                )));
            }
            st.awaiting = true;
            self.tree.replace_top(entry.key);
            // Pipelined: if the awaited block is already in flight, it
            // will now arrive straight to leading instead of occupying
            // `M_D`/`M_R`, so it stops counting against the `P_s` gate.
            if let Some(fl) = &mut self.in_flight {
                let cur_idx = self.runs[run].cur_idx;
                if fl
                    .targets
                    .iter()
                    .any(|&(_, k)| k.run as usize == run && k.idx == cur_idx)
                {
                    debug_assert!(fl.pending > 0, "pending underflow");
                    fl.pending -= 1;
                }
            }
        }
        Ok(())
    }

    /// Emit the tree's winning records until the next *scheduling event*:
    /// the winner's leading block runs dry (handed on by
    /// [`Self::advance_run`]), or the next winner is a run awaiting I/O
    /// (or every run is exhausted).
    ///
    /// Emitting a record from a resident leading block touches neither
    /// `F`, `M_D`, the forecasting table, the flight's `pending` count
    /// nor the set of awaiting runs, so between two events the main
    /// loops' per-record checks (`drain`, `P_s`/`P_need`,
    /// `can_attempt_read`) would repeat the answer they gave before the
    /// first record; skipping them leaves every read, flush and write at
    /// the same record position (DESIGN §9.4).
    fn emit_until_event<A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        loop {
            let (run, key) = self.tree.peek();
            let st = &mut self.runs[run];
            if st.awaiting || st.exhausted {
                return Ok(());
            }
            let rec = st.leading[st.cursor];
            st.cursor += 1;
            debug_assert_eq!(rec.key(), key, "tree winner key mismatch");
            self.writer.push(array, rec)?;
            if st.cursor == st.leading.len() {
                return self.advance_run(run);
            }
            self.tree.replace_top(st.leading[st.cursor].key());
        }
    }

    fn run_to_completion<A: DiskArray<R>>(mut self, array: &mut A) -> Result<MergeOutcome> {
        loop {
            self.sched.drain();
            if self.sched.can_attempt_read() {
                self.execute_read(array)?;
                continue;
            }
            if self.tree.all_exhausted() {
                break;
            }
            let (run, key) = self.tree.peek();
            if self.runs[run].awaiting {
                // Lemma 1 guarantees the schedule never wedges like this.
                return Err(SrmError::Internal(format!(
                    "merge stuck: run {run} awaits block {} (key {key}) with M_D occupied",
                    self.runs[run].cur_idx
                )));
            }
            self.emit_until_event(array)?;
        }
        self.finish_merge(array)
    }

    /// The pipelined main loop: the same decisions at the same record
    /// positions as [`Merger::run_to_completion`], except that a planned
    /// read is *submitted* where the serial loop would execute it and
    /// *completed* at the first later point where either
    ///
    /// * `P_need` — the loser tree's winner awaits a block, so merging
    ///   cannot proceed without the in-flight arrival (by Lemma 1 the
    ///   awaited block is always among the flight's targets, so this
    ///   never wedges — the stuck branch below is the runtime witness);
    ///   or
    /// * `P_s` — enough buffers have drained that every in-flight
    ///   block headed for `M_D`/`M_R` now fits: `fset_len + pending ≤
    ///   R + D`.  This is exactly the serial engine's "staging empty
    ///   after drain" read condition, so the *next* read is planned at
    ///   the identical record position with the identical `F_t`,
    ///   keeping the op sequence — flush decisions included —
    ///   byte-identical to the serial engine's.  (Completing any later
    ///   would let extra promotions shift `OutRank` and change rule
    ///   2a–2c outcomes.)
    ///
    /// Between submit and completion the loop keeps merging records from
    /// resident leading buffers — that interval is the read-ahead
    /// overlap: loser-tree work, record copies, and output-block encodes
    /// proceed while the disks serve the flight.
    fn run_to_completion_pipelined<A: DiskArray<R>>(
        mut self,
        array: &mut A,
    ) -> Result<MergeOutcome> {
        if let Err(e) = self.pipelined_loop(array) {
            // Quiesce before unwinding: abandon split-phase tickets
            // without touching the (possibly crashed) array.  The ops
            // were already charged and traced at submit; an abandoned
            // write's durability gap (`Write` with no `WriteDurable`)
            // is exactly what the recovery invariant checks, and resume
            // rewrites those frames from the last durable checkpoint.
            self.quiesce();
            return Err(e);
        }
        // Every submitted read's targets are blocks the merge still
        // needs, so their runs cannot all be exhausted while one is in
        // flight.
        debug_assert!(self.in_flight.is_none(), "read in flight at merge end");
        if self.in_flight.is_some() {
            return Err(SrmError::Internal(
                "read still in flight at merge end".into(),
            ));
        }
        self.finish_merge(array)
    }

    /// Drop any in-flight split-phase tickets without completing them.
    ///
    /// Called only on error paths: completion would have to go through
    /// the failed (or crash-poisoned) array, so the tickets are
    /// abandoned instead.  File-backed workers still drain their queues
    /// in order, so a later [`pdisk::DiskArray::sync`] — or reopen-time
    /// torn-frame detection — settles what actually landed.
    fn quiesce(&mut self) {
        self.in_flight = None;
        self.writer.abandon_ticket();
    }

    /// Body of the pipelined main loop; returns once every run is
    /// exhausted.  Split from [`Self::run_to_completion_pipelined`] so
    /// the caller can quiesce in-flight tickets when this errors.
    fn pipelined_loop<A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        let cap = self.runs.len() + self.geom.d;
        loop {
            self.sched.drain();
            if let Some(fl) = &self.in_flight {
                let p_s = self.sched.fset_len() + fl.pending <= cap;
                let p_need = !self.tree.all_exhausted() && {
                    let (run, _) = self.tree.peek();
                    self.runs[run].awaiting
                };
                if p_need || p_s {
                    self.complete_read_pipelined(array)?;
                    continue;
                }
            } else if self.sched.can_attempt_read() {
                self.submit_read_pipelined(array)?;
                continue;
            }
            if self.tree.all_exhausted() {
                return Ok(());
            }
            let (run, key) = self.tree.peek();
            if self.runs[run].awaiting {
                return Err(SrmError::Internal(format!(
                    "pipelined merge stuck: run {run} awaits block {} (key {key}) \
                     with no read in flight",
                    self.runs[run].cur_idx
                )));
            }
            self.emit_until_event(array)?;
        }
    }

    fn finish_merge<A: DiskArray<R>>(self, array: &mut A) -> Result<MergeOutcome> {
        debug_assert!(
            self.runs.iter().all(|st| st.buffered.is_empty()),
            "leftover buffered blocks"
        );
        debug_assert!(self.sched.fds().is_empty(), "unread blocks at completion");
        self.sched.assert_capacities();
        let records_out = self.writer.records();
        let runs_merged = self.runs.len();
        let schedule = self.sched.stats();
        let writer = self.writer;
        let run = writer.finish(array)?;
        if let Some(sink) = &self.trace {
            sink.emit(TraceEvent::MergeEnd);
        }
        Ok(MergeOutcome {
            stats: MergeStats {
                schedule,
                write_ops: run.len_blocks.div_ceil(self.geom.d as u64),
                records_out,
                runs_merged,
            },
            run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{read_run, RunWriter};
    use pdisk::{Geometry, MemDiskArray, U64Record};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Write `keys` (must be sorted) as a forecast-formatted run.
    fn put_run(
        array: &mut MemDiskArray<U64Record>,
        geom: Geometry,
        start: u32,
        keys: &[u64],
    ) -> StripedRun {
        let mut w = RunWriter::new(geom, DiskId(start));
        for &k in keys {
            w.push(array, U64Record(k)).unwrap();
        }
        w.finish(array).unwrap()
    }

    fn random_sorted_runs(
        rng: &mut SmallRng,
        n_runs: usize,
        len_range: std::ops::Range<usize>,
    ) -> Vec<Vec<u64>> {
        (0..n_runs)
            .map(|_| {
                let len = rng.random_range(len_range.clone()).max(1);
                let mut v: Vec<u64> = (0..len).map(|_| rng.random_range(0..1_000_000)).collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    fn check_merge(geom: Geometry, run_keys: &[Vec<u64>], seed_starts: &[u32]) -> MergeOutcome {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let handles: Vec<StripedRun> = run_keys
            .iter()
            .zip(seed_starts)
            .map(|(keys, &s)| put_run(&mut a, geom, s, keys))
            .collect();
        a.reset_stats();
        let out = merge_runs(&mut a, &handles, DiskId(0)).unwrap();
        let got = read_run(&mut a, &out.run).unwrap();
        let mut expected: Vec<u64> = run_keys.iter().flatten().copied().collect();
        expected.sort_unstable();
        let got_keys: Vec<u64> = got.iter().map(|r| r.0).collect();
        assert_eq!(got_keys, expected);
        assert_eq!(out.stats.records_out as usize, expected.len());
        out
    }

    #[test]
    fn merge_two_tiny_runs() {
        let geom = Geometry::new(2, 2, 1000).unwrap();
        check_merge(geom, &[vec![1, 3, 5], vec![2, 4, 6, 8]], &[0, 1]);
    }

    #[test]
    fn merge_single_run_copies() {
        let geom = Geometry::new(3, 4, 1000).unwrap();
        check_merge(geom, &[vec![5, 6, 7, 9, 11, 20, 21]], &[2]);
    }

    #[test]
    fn merge_runs_with_duplicate_keys() {
        let geom = Geometry::new(2, 3, 1000).unwrap();
        check_merge(
            geom,
            &[vec![1, 1, 1, 2, 2], vec![1, 2, 2, 2], vec![1, 1, 2]],
            &[0, 1, 0],
        );
    }

    #[test]
    fn merge_many_random_shapes() {
        let mut rng = SmallRng::seed_from_u64(77);
        for &(d, b, n_runs) in &[(2usize, 4usize, 3usize), (3, 4, 5), (4, 8, 7), (5, 2, 9)] {
            let geom = Geometry::new(d, b, 1_000_000).unwrap();
            let runs = random_sorted_runs(&mut rng, n_runs, 1..200);
            let starts: Vec<u32> = (0..n_runs).map(|_| rng.random_range(0..d as u32)).collect();
            check_merge(geom, &runs, &starts);
        }
    }

    #[test]
    fn adversarial_same_start_disk_still_correct() {
        // All runs start on disk 0: worst-case read contention.
        let mut rng = SmallRng::seed_from_u64(5);
        let geom = Geometry::new(4, 4, 1_000_000).unwrap();
        let runs = random_sorted_runs(&mut rng, 8, 40..80);
        let starts = vec![0u32; 8];
        let out = check_merge(geom, &runs, &starts);
        // Identical layout forces read serialization: with every run's
        // frontier on one disk, reads fetch ~1 block each.
        assert!(out.stats.schedule.total_reads() > 0);
    }

    #[test]
    fn interleaved_runs_exercise_flushing() {
        // Runs whose records interleave globally (run j holds keys
        // ≡ j mod n) maximize simultaneous demand; with a small R+D buffer
        // budget the schedule must flush.
        let geom = Geometry::new(2, 2, 1_000_000).unwrap();
        let n_runs = 6;
        let len = 120u64;
        let run_keys: Vec<Vec<u64>> = (0..n_runs)
            .map(|j| (0..len).map(|i| i * n_runs as u64 + j as u64).collect())
            .collect();
        let starts: Vec<u32> = (0..n_runs).map(|j| (j % 2) as u32).collect();
        let out = check_merge(geom, &run_keys, &starts);
        assert!(
            out.stats.schedule.total_reads() >= (len * n_runs as u64 / 2) / 2,
            "reads {}",
            out.stats.schedule.total_reads()
        );
    }

    #[test]
    fn write_parallelism_is_perfect() {
        let mut rng = SmallRng::seed_from_u64(11);
        let geom = Geometry::new(4, 4, 1_000_000).unwrap();
        let runs = random_sorted_runs(&mut rng, 6, 50..100);
        let starts: Vec<u32> = (0..6).map(|_| rng.random_range(0..4)).collect();
        let total: u64 = runs.iter().map(|r| r.len() as u64).sum();
        let out = check_merge(geom, &runs, &starts);
        let blocks = total.div_ceil(4);
        assert_eq!(out.stats.write_ops, blocks.div_ceil(4));
    }

    #[test]
    fn reads_at_least_blocks_over_d_and_at_most_blocks() {
        let mut rng = SmallRng::seed_from_u64(13);
        let geom = Geometry::new(3, 4, 1_000_000).unwrap();
        let runs = random_sorted_runs(&mut rng, 9, 30..120);
        let starts: Vec<u32> = (0..9).map(|_| rng.random_range(0..3)).collect();
        let total_blocks: u64 = runs.iter().map(|r| (r.len() as u64).div_ceil(4)).sum();
        let out = check_merge(geom, &runs, &starts);
        let reads = out.stats.schedule.total_reads();
        assert!(reads >= total_blocks.div_ceil(3), "reads {reads} too few");
        assert!(
            reads <= total_blocks + out.stats.schedule.blocks_flushed,
            "reads {reads} exceed blocks {total_blocks} + reread allowance"
        );
    }

    /// The pipelined engine's contract: same output, same scheduling
    /// counters, same backend I/O as the serial engine, on every shape.
    #[test]
    fn pipelined_merge_matches_serial_exactly() {
        let mut rng = SmallRng::seed_from_u64(99);
        for &(d, b, n_runs) in &[
            (2usize, 4usize, 3usize),
            (3, 4, 5),
            (4, 8, 7),
            (5, 2, 9),
            (1, 4, 4),
            (4, 4, 12),
        ] {
            let geom = Geometry::new(d, b, 1_000_000).unwrap();
            let runs = random_sorted_runs(&mut rng, n_runs, 1..200);
            let starts: Vec<u32> = (0..n_runs).map(|_| rng.random_range(0..d as u32)).collect();
            let drive = |pipelined: bool| {
                let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
                let handles: Vec<StripedRun> = runs
                    .iter()
                    .zip(&starts)
                    .map(|(keys, &s)| put_run(&mut a, geom, s, keys))
                    .collect();
                a.reset_stats();
                let out = if pipelined {
                    merge_runs_pipelined(&mut a, &handles, DiskId(0)).unwrap()
                } else {
                    merge_runs(&mut a, &handles, DiskId(0)).unwrap()
                };
                let io = a.stats();
                let keys: Vec<u64> =
                    read_run(&mut a, &out.run).unwrap().iter().map(|r| r.0).collect();
                (keys, out.stats, io)
            };
            let (serial_keys, serial_stats, serial_io) = drive(false);
            let (piped_keys, piped_stats, piped_io) = drive(true);
            assert_eq!(piped_keys, serial_keys, "d={d} b={b} runs={n_runs}");
            assert_eq!(piped_stats, serial_stats, "d={d} b={b} runs={n_runs}");
            assert_eq!(piped_io, serial_io, "d={d} b={b} runs={n_runs}");
        }
    }

    /// All-runs-on-one-disk contention plus globally interleaved keys:
    /// the flush-heavy worst cases must also be schedule-identical.
    #[test]
    fn pipelined_merge_matches_serial_under_contention() {
        let geom = Geometry::new(2, 2, 1_000_000).unwrap();
        let n_runs = 6;
        let len = 120u64;
        let run_keys: Vec<Vec<u64>> = (0..n_runs)
            .map(|j| (0..len).map(|i| i * n_runs as u64 + j as u64).collect())
            .collect();
        let starts = vec![0u32; n_runs];
        let drive = |pipelined: bool| {
            let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
            let handles: Vec<StripedRun> = run_keys
                .iter()
                .zip(&starts)
                .map(|(keys, &s)| put_run(&mut a, geom, s, keys))
                .collect();
            a.reset_stats();
            let out = if pipelined {
                merge_runs_pipelined(&mut a, &handles, DiskId(0)).unwrap()
            } else {
                merge_runs(&mut a, &handles, DiskId(0)).unwrap()
            };
            (a.stats(), out.stats)
        };
        assert_eq!(drive(true), drive(false));
    }

    /// Deep read-ahead is a pure hint: output, scheduling counters, and
    /// backend I/O are identical to the serial engine at every depth.
    #[test]
    fn deep_read_ahead_is_schedule_invisible() {
        let mut rng = SmallRng::seed_from_u64(321);
        for &(d, b, n_runs) in &[(2usize, 4usize, 3usize), (4, 8, 7), (3, 2, 6)] {
            let geom = Geometry::new(d, b, 1_000_000).unwrap();
            let runs = random_sorted_runs(&mut rng, n_runs, 1..200);
            let starts: Vec<u32> = (0..n_runs).map(|_| rng.random_range(0..d as u32)).collect();
            let drive = |depth: Option<usize>| {
                let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
                let handles: Vec<StripedRun> = runs
                    .iter()
                    .zip(&starts)
                    .map(|(keys, &s)| put_run(&mut a, geom, s, keys))
                    .collect();
                a.reset_stats();
                let out = match depth {
                    Some(k) => {
                        merge_runs_pipelined_deep(&mut a, &handles, DiskId(0), k).unwrap()
                    }
                    None => merge_runs(&mut a, &handles, DiskId(0)).unwrap(),
                };
                let io = a.stats();
                let keys: Vec<u64> =
                    read_run(&mut a, &out.run).unwrap().iter().map(|r| r.0).collect();
                (keys, out.stats, io)
            };
            let serial = drive(None);
            for depth in [1usize, 3, 8] {
                assert_eq!(drive(Some(depth)), serial, "d={d} b={b} depth={depth}");
            }
        }
    }

    #[test]
    fn empty_run_list_rejected() {
        let geom = Geometry::new(2, 2, 1000).unwrap();
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        assert!(matches!(
            merge_runs(&mut a, &[], DiskId(0)),
            Err(SrmError::Config(_))
        ));
    }
}
