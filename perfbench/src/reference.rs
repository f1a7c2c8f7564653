//! A host-speed reference: a fixed event-driven computation in plain
//! `std`, timed right before every repetition.
//!
//! On a shared host the same binary's run time drifts by up to a third
//! within minutes (neighbours on the same cores and last-level cache), and
//! that drift moves every workload alike. Dividing a repetition's time by
//! the reference's time taken just before it cancels most of the drift.
//! The reference mimics a fabric run's mix — a binary-heap calendar,
//! per-node FIFO queues, hashed counters, data-dependent branches — and
//! uses none of the repository's code, so no change to the engine can
//! change it. It makes two passes: one over a graph that stays in cache
//! and one over a graph of several MiB that does not, and reports the
//! geometric mean of their times. Host drift slows the cache-spilling
//! pass about twice as much as the workloads and the cache-resident pass
//! less than the memory-bound permutation; the mean tracks all three
//! workloads more closely than either pass alone (see README.md). A
//! workload that runs on several threads is compared with as many copies
//! run side by side, so the reference feels the same cores the workload
//! does.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::Instant;

/// What [`reference_s`] takes on one thread of the 2-vCPU host the
/// benchmark's bounds were measured on, in a typical phase. Drift-corrected
/// times scale to it: `t × NOMINAL_S / reference_s`.
pub const NOMINAL_S: f64 = 0.06;

/// Graph sizes of the cache-resident and the cache-spilling pass.
const NODES_IN_CACHE: usize = 1 << 12;
const NODES_SPILLING: usize = 1 << 16;
const DEGREE: usize = 8;
const EVENTS: usize = 400_000;

/// The reference's time now, in seconds: the geometric mean of its two
/// passes, each run as `threads` concurrent copies and timed from the
/// first start to the last finish.
pub fn reference_s(threads: u32) -> f64 {
    (pass_s(threads, NODES_IN_CACHE) * pass_s(threads, NODES_SPILLING)).sqrt()
}

fn pass_s(threads: u32, nodes: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| one_pass(nodes));
        }
        one_pass(nodes);
    });
    t.elapsed().as_secs_f64()
}

fn one_pass(nodes: usize) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let adj: Vec<[u32; DEGREE]> = (0..nodes)
        .map(|_| std::array::from_fn(|_| (rnd() % nodes as u64) as u32))
        .collect();
    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); nodes];
    let mut seen: HashMap<u64, u32> = HashMap::new();
    let mut calendar: BinaryHeap<Reverse<(u64, u32, u64)>> = BinaryHeap::new();
    for pkt in 0..4096u64 {
        calendar.push(Reverse((rnd() % 1000, (rnd() % nodes as u64) as u32, pkt)));
    }
    let mut done = 0;
    while let Some(Reverse((at, node, pkt))) = calendar.pop() {
        done += 1;
        if done == EVENTS {
            break;
        }
        let q = &mut queues[node as usize];
        q.push_back(pkt);
        if q.len() > 4 {
            q.pop_front();
        }
        *seen.entry(pkt % 65_536).or_insert(0) += 1;
        let next = adj[node as usize][(pkt + at) as usize % DEGREE];
        calendar.push(Reverse((at + 1 + rnd() % 50, next, pkt)));
    }
    std::hint::black_box((done, seen.len()));
}
