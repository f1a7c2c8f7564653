//! Component kernels: timed loops over single public types of the
//! engine, with inputs shaped like the workloads'. Each reports host ns
//! per operation, as the median of several batches.

use crate::stats::median;
use stardust_fabric::packing::pack_burst;
use stardust_fabric::reach::ReachTable;
use stardust_fabric::sched::{PortScheduler, SchedVoq};
use stardust_fabric::spray::Sprayer;
use stardust_fabric::voq::Voq;
use stardust_fabric::{BurstId, FabricConfig, Packet, PacketId};
use stardust_sim::units::gbps;
use stardust_sim::{DetRng, EventQueue, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 7;

/// Median ns per operation of `batch`, which performs `ops` operations.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and allocations
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&per_batch)
}

fn packet(id: u64, src_fa: u32, dst_fa: u32) -> Packet {
    Packet {
        id: PacketId(id),
        src_fa,
        dst_fa,
        dst_port: 0,
        tc: 0,
        bytes: 1500,
        flow: u32::MAX,
        injected_at: SimTime::ZERO,
    }
}

/// `EventQueue` schedule + pop in the hold model: a steady population of
/// pending events, each pop rescheduling one event up to 2 µs ahead (the
/// span from a cell hop to a control-plane round trip).
fn event_ns() -> f64 {
    const PENDING: u64 = 16_384;
    const OPS: u64 = 200_000;
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = DetRng::from_label(1, "perfbench-kernel-event");
    for i in 0..PENDING {
        q.schedule(SimTime::from_nanos(rng.below(2_000)), i as u32);
    }
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let ev = q.pop().expect("the hold model keeps the queue populated");
            let at = ev.at + SimDuration::from_ps(1 + rng.below(2_000_000));
            q.schedule(at, black_box(ev.payload));
        }
    })
}

/// `Voq::push` of 1500 B packets and `Voq::grant` of 4 KiB credits, as on
/// the permutation's saturated VOQs. Per packet.
fn voq_ns() -> f64 {
    const OPS: u64 = 200_000;
    let credit = u64::from(FabricConfig::default().credit_bytes);
    let mut voq = Voq::new();
    let mut id = 0;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            id += 1;
            voq.push(packet(id, 0, 1));
            if voq.bytes() >= credit {
                black_box(voq.grant(credit, credit as i64));
            }
        }
    })
}

/// `PortScheduler::request` + `next_grant` for an incast-shaped port: 64
/// source VOQs each asking for two credits. Per grant.
fn sched_ns() -> f64 {
    const SOURCES: u32 = 64;
    const ROUNDS: u64 = 2_000;
    let cfg = FabricConfig::default();
    let credit = u64::from(cfg.credit_bytes);
    let mut s = PortScheduler::new(
        gbps(10),
        credit,
        cfg.credit_speedup,
        cfg.num_tcs,
        cfg.fci_decrease,
        cfg.fci_recover,
        cfg.fci_min,
        cfg.fci_hold,
    );
    ns_per_op(ROUNDS * u64::from(SOURCES) * 2, || {
        for _ in 0..ROUNDS {
            for src in 0..SOURCES {
                s.request(SchedVoq { src_fa: src, tc: 0 }, 2 * credit);
            }
            while let Some(v) = s.next_grant() {
                black_box(v);
            }
        }
    })
}

/// `pack_burst` of one 4 KiB credit's worth of 1500 B packets. Per burst.
fn pack_ns() -> f64 {
    const OPS: u64 = 100_000;
    let cfg = FabricConfig::default();
    let burst: Vec<Packet> = (0..3).map(|i| packet(i, 0, 1)).collect();
    let mut id = 0;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            id += 1;
            let b = pack_burst(
                BurstId(id),
                burst.clone(),
                cfg.cell_bytes,
                cfg.cell_header_bytes,
                true,
                SimTime::ZERO,
            );
            black_box(b.cell_sizes.len());
        }
    })
}

/// `Sprayer::next` over `width` links. Per cell.
fn spray_ns(width: u32) -> f64 {
    const OPS: u64 = 1_000_000;
    let rounds = FabricConfig::default().spray_rounds_per_shuffle;
    let mut s = Sprayer::new(
        (0..width).collect(),
        rounds,
        DetRng::from_label(1, "perfbench-kernel-spray"),
    );
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            black_box(s.next());
        }
    })
}

/// `ReachTable::on_advert` + `eligible_into` on a 16-port tier-1 FE of
/// the 64-FA fabric: each advert carries a pod's worth of FAs and, every
/// fourth time, a changed set (a link event). Per advert.
fn reach_ns() -> f64 {
    const PORTS: usize = 16;
    const OPS: u64 = 200_000;
    let full: Vec<u32> = (0..64).collect();
    let partial: Vec<u32> = (0..64).filter(|fa| fa % 16 != 3).collect();
    let mut table = ReachTable::new(PORTS);
    for p in 0..PORTS {
        table.seed(p, full.clone());
    }
    let mut out = Vec::new();
    let mut i: u64 = 0;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            i += 1;
            let port = (i as usize) % PORTS;
            let fas = if i.is_multiple_of(4) { &partial } else { &full };
            let now = SimTime::from_nanos(i * 10);
            black_box(table.on_advert(port, fas, now, 3));
            table.eligible_into((i % 64) as u32, &mut out);
            black_box(out.len());
        }
    })
}

/// Every kernel: (metric name, ns per operation).
pub fn run_all() -> Vec<(&'static str, f64)> {
    vec![
        ("sim.event_ns", event_ns()),
        ("fabric.voq_ns", voq_ns()),
        ("fabric.sched_ns", sched_ns()),
        ("fabric.pack_ns", pack_ns()),
        ("fabric.spray4_ns", spray_ns(4)),
        ("fabric.spray16_ns", spray_ns(16)),
        ("fabric.reach_ns", reach_ns()),
    ]
}
