//! The CPU ceiling for an external mergesort of given records: what the
//! host needs for the same comparisons with no engine around them.
//! `sort_unstable` of each memory load, then one `R`-way `BinaryHeap`
//! merge per pass until one run is left, over the same records with the
//! same load size and merge order as the engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Time the ceiling for `keys`; returns the time and the merged output,
/// which callers may check or drop.
pub fn cpu_ceiling(keys: &[u64], load: usize, r: usize) -> (Duration, Vec<u64>) {
    let start = Instant::now();
    let mut runs: Vec<Vec<u64>> = keys
        .chunks(load.max(1))
        .map(|chunk| {
            let mut run = chunk.to_vec();
            run.sort_unstable();
            run
        })
        .collect();
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(r));
        let mut it = runs.into_iter().peekable();
        while it.peek().is_some() {
            let group: Vec<Vec<u64>> = it.by_ref().take(r).collect();
            next.push(if group.len() == 1 {
                group.into_iter().next().unwrap_or_default()
            } else {
                heap_merge(&group)
            });
        }
        runs = next;
    }
    let out = runs.pop().unwrap_or_default();
    (start.elapsed(), std::hint::black_box(out))
}

/// Seed of the fixed CPU probe's input: the same keys on every run.
const PROBE_SEED: u64 = 0x5EED_C0DE;

/// Keys of the fixed CPU probe: 2^18 uniform keys.
pub fn probe_keys() -> Vec<u64> {
    srm_server::generate_records(1 << 18, PROBE_SEED)
        .iter()
        .map(|r| r.0)
        .collect()
}

/// The fixed CPU probe: the ceiling of a sort of [`probe_keys`] with
/// load 800 and R = 16.  About 25 ms on the 2-vCPU reference host.
pub fn cpu_probe(keys: &[u64]) -> Duration {
    cpu_ceiling(keys, 800, 16).0
}

fn heap_merge(group: &[Vec<u64>]) -> Vec<u64> {
    let mut out = Vec::with_capacity(group.iter().map(Vec::len).sum());
    let mut pos = vec![0usize; group.len()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = group
        .iter()
        .enumerate()
        .filter_map(|(i, run)| run.first().map(|&k| Reverse((k, i))))
        .collect();
    while let Some(Reverse((key, i))) = heap.pop() {
        out.push(key);
        pos[i] += 1;
        if let Some(&next) = group[i].get(pos[i]) {
            heap.push(Reverse((next, i)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_output_is_the_sorted_input() {
        let keys: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let (_, out) = cpu_ceiling(&keys, 100, 4);
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(out, want);
    }
}
