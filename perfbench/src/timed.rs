//! A timing wrapper for the top of a disk stack: every `DiskArray`
//! method, provided ones included, is forwarded to the array below and
//! timed as one span.
//!
//! Forwarding *every* method matters: the trait's defaults make
//! `submit_read` eager and `prefetch` a no-op, so a wrapper that relied
//! on a default would silently measure a different program.  The
//! benchmark's tests check that a wrapped sort gives the same output,
//! `IoStats`, `PrefetchStats` and `PoolStats` as an unwrapped one.

use crate::spans::Recorder;
use pdisk::backend::{ReadTicket, RedundancyInfo, ScrubOutcome, WriteTicket};
use pdisk::{
    Block, BlockAddr, BufferPool, DiskArray, DiskId, Geometry, IoStats, Record, Result, StripedRun,
    TraceSink,
};
use std::cell::RefCell;
use std::marker::PhantomData;

/// `inner` with a span around every call.
pub struct Timed<R: Record, A: DiskArray<R>> {
    inner: A,
    rec: RefCell<Recorder>,
    _marker: PhantomData<R>,
}

impl<R: Record, A: DiskArray<R>> Timed<R, A> {
    /// Wrap `inner`, logging spans into `rec`.
    pub fn new(inner: A, rec: Recorder) -> Self {
        Timed {
            inner,
            rec: RefCell::new(rec),
            _marker: PhantomData,
        }
    }

    /// The span log, e.g. to open a phase span around the calls.
    pub fn recorder(&mut self) -> &mut Recorder {
        self.rec.get_mut()
    }

    /// The wrapped array.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Unwrap into the array and the span log.
    pub fn into_parts(self) -> (A, Recorder) {
        (self.inner, self.rec.into_inner())
    }

    fn timed<T>(&self, name: &'static str, call: impl FnOnce(&A) -> T) -> T {
        let id = self.rec.borrow_mut().begin(name);
        let out = call(&self.inner);
        self.rec.borrow_mut().end(id);
        out
    }

    fn timed_mut<T>(&mut self, name: &'static str, call: impl FnOnce(&mut A) -> T) -> T {
        let id = self.rec.get_mut().begin(name);
        let out = call(&mut self.inner);
        self.rec.get_mut().end(id);
        out
    }
}

impl<R: Record, A: DiskArray<R>> DiskArray<R> for Timed<R, A> {
    fn geometry(&self) -> Geometry {
        self.timed("geometry", |a| a.geometry())
    }

    fn read(&mut self, addrs: &[BlockAddr]) -> Result<Vec<Block<R>>> {
        self.timed_mut("read", |a| a.read(addrs))
    }

    fn write(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<()> {
        self.timed_mut("write", |a| a.write(writes))
    }

    fn alloc_contiguous(&mut self, disk: DiskId, count: u64) -> Result<u64> {
        self.timed_mut("alloc_contiguous", |a| a.alloc_contiguous(disk, count))
    }

    fn stats(&self) -> IoStats {
        self.timed("stats", |a| a.stats())
    }

    fn reset_stats(&mut self) {
        self.timed_mut("reset_stats", |a| a.reset_stats())
    }

    fn redundancy(&self) -> Option<RedundancyInfo> {
        self.timed("redundancy", |a| a.redundancy())
    }

    fn install_trace(&mut self, sink: TraceSink) {
        self.timed_mut("install_trace", |a| a.install_trace(sink))
    }

    fn trace_sink(&self) -> Option<&TraceSink> {
        let id = self.rec.borrow_mut().begin("trace_sink");
        let out = self.inner.trace_sink();
        self.rec.borrow_mut().end(id);
        out
    }

    fn submit_read(&mut self, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        self.timed_mut("submit_read", |a| a.submit_read(addrs))
    }

    fn complete_read(&mut self, ticket: ReadTicket<R>) -> Result<Vec<Block<R>>> {
        self.timed_mut("complete_read", |a| a.complete_read(ticket))
    }

    fn submit_write(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<WriteTicket> {
        self.timed_mut("submit_write", |a| a.submit_write(writes))
    }

    fn complete_write(&mut self, ticket: WriteTicket) -> Result<()> {
        self.timed_mut("complete_write", |a| a.complete_write(ticket))
    }

    fn prefetch(&mut self, addrs: &[BlockAddr]) {
        self.timed_mut("prefetch", |a| a.prefetch(addrs))
    }

    fn sync(&mut self) -> Result<()> {
        self.timed_mut("sync", |a| a.sync())
    }

    fn scrub_block(&mut self, addr: BlockAddr) -> Result<ScrubOutcome> {
        self.timed_mut("scrub_block", |a| a.scrub_block(addr))
    }

    fn install_pool(&mut self, pool: BufferPool<R>) {
        self.timed_mut("install_pool", |a| a.install_pool(pool))
    }

    fn buffer_pool(&self) -> Option<&BufferPool<R>> {
        let id = self.rec.borrow_mut().begin("buffer_pool");
        let out = self.inner.buffer_pool();
        self.rec.borrow_mut().end(id);
        out
    }

    fn alloc_run(
        &mut self,
        start_disk: DiskId,
        len_blocks: u64,
        records: u64,
    ) -> Result<StripedRun> {
        self.timed_mut("alloc_run", |a| {
            a.alloc_run(start_disk, len_blocks, records)
        })
    }
}
