//! The timing wrapper must not change the program it measures: a sort
//! under it gives the same output, `IoStats`, `PrefetchStats` and
//! `PoolStats` as the same sort without it, on both sort backends.

use pdisk::{
    Block, BlockAddr, DiskArray, DiskId, FileDiskArray, Geometry, IoStats, MemDiskArray, Result,
    U64Record,
};
use perfbench::sorts::{self, geometry, stage_and_sort, traced_sort, Backend, SortRun};
use perfbench::spans::Recorder;
use srm_server::generate_records;
use std::path::{Path, PathBuf};
use std::time::Duration;

const N: u64 = 20_000;

fn dir(name: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("wrapper-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn file_array(path: &Path, delay: Duration) -> FileDiskArray<U64Record> {
    sorts::file_array(path, delay).expect("file array")
}

fn assert_same(plain: &SortRun, traced: &SortRun) {
    assert_eq!(plain.digest, traced.digest, "output");
    assert_eq!(plain.report.io, traced.report.io, "IoStats");
    assert_eq!(plain.prefetch, traced.prefetch, "PrefetchStats");
    assert_eq!(plain.pool, traced.pool, "PoolStats");
    assert_eq!(plain.report, traced.report, "SortReport");
}

#[test]
fn wrapper_changes_nothing_on_the_mem_backend() {
    let records = generate_records(N, 7);
    let plain = stage_and_sort(&mut MemDiskArray::new(geometry()), &records).unwrap();
    let (traced, _, rec) =
        traced_sort(MemDiskArray::new(geometry()), &records, Recorder::default());
    assert_same(&plain, &traced.unwrap());
    assert!(rec.spans().iter().any(|s| s.name == "submit_read"));
}

#[test]
fn wrapper_changes_nothing_on_the_file_backend() {
    let records = generate_records(N, 8);
    for delay in [Duration::ZERO, Duration::from_micros(50)] {
        let path = dir("file");
        let plain = stage_and_sort(&mut file_array(&path, delay), &records).unwrap();
        let (traced, array, rec) =
            traced_sort(file_array(&path, delay), &records, Recorder::default());
        drop(array);
        let _ = std::fs::remove_dir_all(&path);
        let traced = traced.unwrap();
        assert_same(&plain, &traced);
        assert!(
            traced.prefetch.is_some_and(|p| p.issued > 0),
            "read-ahead was exercised"
        );
        assert!(rec.spans().iter().any(|s| s.name == "prefetch"));
    }
}

/// A wrapper that forwards only the required methods, leaving the rest to
/// the trait defaults — the mistake the comparison above must catch.
struct Leaky<A>(A);

impl<A: DiskArray<U64Record>> DiskArray<U64Record> for Leaky<A> {
    fn geometry(&self) -> Geometry {
        self.0.geometry()
    }
    fn read(&mut self, addrs: &[BlockAddr]) -> Result<Vec<Block<U64Record>>> {
        self.0.read(addrs)
    }
    fn write(&mut self, writes: Vec<(BlockAddr, Block<U64Record>)>) -> Result<()> {
        self.0.write(writes)
    }
    fn alloc_contiguous(&mut self, disk: DiskId, count: u64) -> Result<u64> {
        self.0.alloc_contiguous(disk, count)
    }
    fn stats(&self) -> IoStats {
        self.0.stats()
    }
    fn reset_stats(&mut self) {
        self.0.reset_stats()
    }
}

impl Backend for Leaky<FileDiskArray<U64Record>> {
    fn prefetch_stats(&self) -> Option<pdisk::PrefetchStats> {
        Some(self.0.prefetch_stats())
    }
}

#[test]
fn a_wrapper_relying_on_defaults_is_caught() {
    let records = generate_records(N, 9);
    let path = dir("leaky");
    let plain = stage_and_sort(&mut file_array(&path, Duration::ZERO), &records).unwrap();
    let leaky = stage_and_sort(&mut Leaky(file_array(&path, Duration::ZERO)), &records).unwrap();
    let _ = std::fs::remove_dir_all(&path);
    assert_eq!(plain.digest, leaky.digest);
    assert_eq!(plain.report.io, leaky.report.io);
    assert_ne!(
        plain.prefetch, leaky.prefetch,
        "the default prefetch is a no-op"
    );
}
