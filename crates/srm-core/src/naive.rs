//! Naive striped merging — the §3 strawman SRM exists to fix.
//!
//! Runs are cyclically striped exactly as for SRM, but the merger does
//! **demand paging** with no forecasting and no flushing: each run owns a
//! double buffer (current block + one prefetched block), and whenever a
//! run's prefetch slot is empty its next block is requested.  Pending
//! requests are served by parallel reads that take at most one block per
//! disk; requests for the same disk queue up.
//!
//! This is a perfectly reasonable merger — it is how one would naively
//! port single-disk mergesort to striped runs — and on *random* layouts
//! it does fine.  The paper's point (§3) is its worst case: if the `R`
//! next-needed blocks all live on one disk, reads serialize and
//! throughput drops by a factor of `D`.  The `adversarial` experiment
//! (X6) measures exactly that, with SRM's forecast-and-flush schedule
//! alongside for contrast.

use crate::error::{Result, SrmError};
use crate::loser_tree::LoserTree;
use pdisk::{BlockAddr, DiskArray, Record, StripedRun};
use std::collections::VecDeque;

/// I/O counts of a naive merge (reads only; the output side is identical
/// to SRM's and is omitted for clarity of comparison).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NaiveMergeStats {
    /// Parallel read operations issued.
    pub read_ops: u64,
    /// Blocks fetched.
    pub blocks_read: u64,
    /// Records merged.
    pub records_out: u64,
}

impl NaiveMergeStats {
    /// Read-overhead factor versus the `total_blocks/D` single-pass floor.
    pub fn overhead_v(&self, d: usize, total_blocks: u64) -> f64 {
        self.read_ops as f64 / (total_blocks as f64 / d as f64)
    }
}

struct NaiveRun<R: Record> {
    handle: StripedRun,
    current: Vec<R>,
    cursor: usize,
    prefetched: Option<Vec<R>>,
    /// Next block index to request from disk.
    next_fetch: u64,
    /// Requests queued but not yet served (0..=2).
    in_flight: u8,
    /// Set when a demand for the current block is outstanding.
    starving: bool,
}

impl<R: Record> NaiveRun<R> {
    /// Keep the double buffer pipelined: request the next block whenever
    /// a slot (current/prefetch) plus in-flight total falls below 2.
    fn maybe_request(
        &mut self,
        j: usize,
        filled: u8,
        pending: &mut [VecDeque<(usize, u64)>],
    ) {
        while self.next_fetch < self.handle.len_blocks && filled + self.in_flight < 2 {
            let idx = self.next_fetch;
            pending[self.handle.disk_of(idx).index()].push_back((j, idx));
            self.next_fetch += 1;
            self.in_flight += 1;
        }
    }
}

/// Merge striped runs by demand paging, counting parallel reads.
///
/// The records are merged and **discarded** (this baseline exists to
/// count reads, not to produce output — SRM's writer is shared by both
/// algorithms and identical in cost).  Returns the read accounting.
pub fn naive_merge_count<R: Record, A: DiskArray<R>>(
    array: &mut A,
    runs: &[StripedRun],
) -> Result<NaiveMergeStats> {
    let geom = array.geometry();
    if runs.is_empty() {
        return Err(SrmError::Config("merge of zero runs".into()));
    }
    let d = geom.d;
    let mut stats = NaiveMergeStats::default();
    // Per-disk FIFO of pending block requests: (run, block idx).
    let mut pending: Vec<VecDeque<(usize, u64)>> = vec![VecDeque::new(); d];
    let mut states: Vec<NaiveRun<R>> = runs
        .iter()
        .map(|h| NaiveRun {
            handle: h.clone(),
            current: Vec::new(),
            cursor: 0,
            prefetched: None,
            next_fetch: 0,
            in_flight: 0,
            starving: true,
        })
        .collect();
    // Demand block 0 and block 1 of every run (fill both buffer slots).
    for (j, st) in states.iter_mut().enumerate() {
        st.maybe_request(j, 0, &mut pending);
    }

    let mut tree = LoserTree::new(vec![u64::MAX; runs.len()]);
    let service = |array: &mut A,
                       pending: &mut Vec<VecDeque<(usize, u64)>>,
                       states: &mut Vec<NaiveRun<R>>,
                       tree: &mut LoserTree,
                       stats: &mut NaiveMergeStats|
     -> Result<()> {
        // One parallel read: pop at most one request per disk.
        let mut batch: Vec<(usize, u64, BlockAddr)> = Vec::with_capacity(d);
        for q in pending.iter_mut() {
            if let Some((j, idx)) = q.pop_front() {
                batch.push((j, idx, states[j].handle.addr_of(idx)));
            }
        }
        if batch.is_empty() {
            return Ok(());
        }
        let addrs: Vec<BlockAddr> = batch.iter().map(|&(_, _, a)| a).collect();
        let blocks = array.read(&addrs)?;
        stats.read_ops += 1;
        stats.blocks_read += blocks.len() as u64;
        for ((j, _idx, _), block) in batch.into_iter().zip(blocks) {
            let st = &mut states[j];
            st.in_flight -= 1;
            if st.starving {
                st.current = block.records;
                st.cursor = 0;
                st.starving = false;
                tree.update(j, st.current[0].key());
                let filled = 1 + u8::from(st.prefetched.is_some());
                st.maybe_request(j, filled, pending);
            } else {
                debug_assert!(st.prefetched.is_none());
                st.prefetched = Some(block.records);
            }
        }
        Ok(())
    };

    // Prime: service until every run has its current block.
    while states.iter().any(|s| s.starving) {
        service(array, &mut pending, &mut states, &mut tree, &mut stats)?;
    }

    loop {
        let (j, key) = tree.peek();
        if key == u64::MAX {
            break;
        }
        let st = &mut states[j];
        if st.starving {
            // Current block still in flight: must do I/O now.
            service(array, &mut pending, &mut states, &mut tree, &mut stats)?;
            continue;
        }
        // Consume one record.
        st.cursor += 1;
        stats.records_out += 1;
        if st.cursor < st.current.len() {
            let next = st.current[st.cursor].key();
            tree.replace_top(next);
            continue;
        }
        // Block exhausted: promote the prefetch, demand the next block.
        match st.prefetched.take() {
            Some(next_block) => {
                st.current = next_block;
                st.cursor = 0;
                st.maybe_request(j, 1, &mut pending);
                let next = st.current[0].key();
                tree.replace_top(next);
            }
            None => {
                if st.next_fetch >= st.handle.len_blocks && st.in_flight == 0 {
                    // Run exhausted.
                    tree.replace_top(u64::MAX);
                } else {
                    // The demanded block is still queued: without
                    // forecasting the merger does not know the run's next
                    // key, so nothing larger than the run's last consumed
                    // key may be emitted — the merge stalls on I/O.
                    st.starving = true;
                    service(array, &mut pending, &mut states, &mut tree, &mut stats)?;
                }
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::RunWriter;
    use pdisk::{DiskId, Geometry, MemDiskArray, U64Record};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn merges_all_records() {
        let geom = Geometry::new(3, 4, 100_000).unwrap();
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let mut rng = SmallRng::seed_from_u64(1);
        let runs: Vec<Vec<u64>> = (0..5)
            .map(|_| {
                let mut v: Vec<u64> = (0..rng.random_range(20..80)).map(|_| rng.random()).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let handles: Vec<StripedRun> = runs
            .iter()
            .map(|keys| put_run(&mut a, geom, rng.random_range(0..3), keys))
            .collect();
        let total: u64 = runs.iter().map(|r| r.len() as u64).sum();
        let stats = naive_merge_count(&mut a, &handles).unwrap();
        assert_eq!(stats.records_out, total);
        // Every block read exactly once (no flushing in demand paging).
        let blocks: u64 = handles.iter().map(|h| h.len_blocks).sum();
        assert_eq!(stats.blocks_read, blocks);
    }

    #[test]
    fn random_layout_gets_decent_parallelism() {
        let geom = Geometry::new(4, 2, 100_000).unwrap();
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let mut rng = SmallRng::seed_from_u64(2);
        // Well-mixed random runs.
        let runs: Vec<Vec<u64>> = (0..8)
            .map(|_| {
                let mut v: Vec<u64> = (0..200).map(|_| rng.random()).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let handles: Vec<StripedRun> = runs
            .iter()
            .map(|keys| put_run(&mut a, geom, rng.random_range(0..4), keys))
            .collect();
        let blocks: u64 = handles.iter().map(|h| h.len_blocks).sum();
        let stats = naive_merge_count(&mut a, &handles).unwrap();
        let v = stats.overhead_v(4, blocks);
        assert!(v < 3.0, "random layout should not serialize: v = {v}");
    }

    /// The §3 disaster, at record level: same start disk + lockstep
    /// consumption.  With double buffering the demands of a phase spread
    /// over exactly two disks, so reads serialize to `v ≈ D/2` — still
    /// linear in `D`, which is the paper's point.
    #[test]
    fn lockstep_same_disk_serializes() {
        let run_v = |d: usize| -> f64 {
            let n_runs = d;
            let len = 160u64;
            let geom = Geometry::new(d, 2, 100_000).unwrap();
            let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
            // Run j holds keys ≡ j (mod n_runs): lockstep consumption.
            let runs: Vec<Vec<u64>> = (0..n_runs)
                .map(|j| (0..len).map(|i| i * n_runs as u64 + j as u64).collect())
                .collect();
            let handles: Vec<StripedRun> = runs
                .iter()
                .map(|keys| put_run(&mut a, geom, 0, keys))
                .collect();
            let blocks: u64 = handles.iter().map(|h| h.len_blocks).sum();
            let stats = naive_merge_count(&mut a, &handles).unwrap();
            stats.overhead_v(d, blocks)
        };
        let v4 = run_v(4);
        let v8 = run_v(8);
        assert!(v4 > 0.45 * 4.0, "v(D=4) = {v4}");
        assert!(v8 > 0.45 * 8.0, "v(D=8) = {v8}");
        assert!(v8 > 1.6 * v4, "overhead must grow linearly: {v4} -> {v8}");
    }

    #[test]
    fn single_run_copy_counts() {
        let geom = Geometry::new(2, 4, 100_000).unwrap();
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let keys: Vec<u64> = (0..40).collect();
        let h = put_run(&mut a, geom, 1, &keys);
        let stats = naive_merge_count(&mut a, &[h]).unwrap();
        assert_eq!(stats.records_out, 40);
        assert_eq!(stats.blocks_read, 10);
    }

    #[test]
    fn empty_run_list_rejected() {
        let geom = Geometry::new(2, 4, 100_000).unwrap();
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        assert!(naive_merge_count(&mut a, &[]).is_err());
    }
}
