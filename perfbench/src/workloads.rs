//! The three workloads and the code that runs one repetition of each.
//!
//! Every call into the program goes through its public API and is
//! wrapped in a named span, so that a traced repetition splits host time
//! into set-up (`topo.*`, `fabric.new`, `fabric.attach`), admission
//! (`workload.admit`), simulation (`fabric.run`, `fabric.link_event`) and
//! stats collection (`stats.collect`).

use crate::trace::Tracer;
use stardust_bench::fig10;
use stardust_bench::spec::{EngineSpec, ExperimentSpec, StatsMode};
use stardust_fabric::{FabricConfig, FabricEngine, FabricStats, ShardedFabricEngine};
use stardust_sim::units::gbps;
use stardust_sim::{DetRng, SimDuration, SimTime};
use stardust_topo::{two_tier, LinkId, RoutePlan, Topology, TwoTierParams};
use stardust_workload::{permutation, FlowEngine, FlowSource, FlowSpec, LinkAction, Scenario};
use std::sync::Arc;
use std::time::Instant;

/// The spec the service workload drives (and `stardust run` reproduces).
pub const SERVICE_SPEC: &str = include_str!("../specs/service_mix_64.toml");
/// The spec the churn workload drives (and `stardust run` reproduces).
pub const CHURN_SPEC: &str = include_str!("../specs/churn_reach_sharded.toml");

/// Fabric Adapters of the permutation workload.
pub const PERM_FAS: u32 = 1024;
/// Untimed simulated warm-up before the permutation's measured span.
pub const PERM_WARMUP_US: u64 = 10;
/// The measured span is this many `run_until` windows...
pub const PERM_WINDOWS: u64 = 20;
/// ...of this many simulated microseconds each.
pub const PERM_WINDOW_US: u64 = 1;
/// The service workload stops after the first admission window at whose
/// end the fabric has delivered this much payload. A fixed amount of
/// delivered work keeps a repetition's cost from following the seed's
/// draw of heavy-tailed flow sizes.
pub const SERVICE_BUDGET_BYTES: u64 = 128 << 20;
/// The churn workload's cap on reachability convergence (the CI gate).
pub const MAX_CONVERGENCE_US: f64 = 500.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PermCbr1024,
    ServiceMix64,
    ChurnReachSharded,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PermCbr1024,
        Workload::ServiceMix64,
        Workload::ChurnReachSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PermCbr1024 => "perm_cbr_1024",
            Workload::ServiceMix64 => "service_mix_64",
            Workload::ChurnReachSharded => "churn_reach_sharded",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The spec a spec-driven workload runs, parsed.
    pub fn spec(self) -> Option<ExperimentSpec> {
        let text = match self {
            Workload::PermCbr1024 => return None,
            Workload::ServiceMix64 => SERVICE_SPEC,
            Workload::ChurnReachSharded => CHURN_SPEC,
        };
        Some(ExperimentSpec::parse(text).expect("the benchmark's own spec parses"))
    }
}

/// The deterministic outputs of one repetition. Two repetitions of one
/// workload and seed must produce equal values; [`Outputs::fingerprint`]
/// condenses them into one number.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outputs {
    /// Simulated time at which the timed span ended, ps.
    pub stop_ps: u64,
    /// Events executed in the timed span.
    pub events: u64,
    /// Shard windows executed (0 on the sequential engine).
    pub windows: u64,
    pub cells_sent: u64,
    pub credits_sent: u64,
    pub cells_dropped: u64,
    pub cells_corrupted: u64,
    pub packets_delivered: u64,
    pub fci_marks: u64,
    pub fe_queue_p99_cells: u64,
    pub max_voq_bytes: u64,
    /// Payload offered and delivered: over the measured span for the
    /// permutation, over the whole run for message workloads.
    pub bytes_offered: u64,
    pub bytes_delivered: u64,
    /// Units offered and completed: packets for the permutation (each
    /// CBR packet is a one-packet flow), messages otherwise.
    pub flows_offered: u64,
    pub flows_done: u64,
    /// Completion-time quantiles in ps, and how many samples they cover.
    pub fct_p50_ps: u64,
    pub fct_p99_ps: u64,
    pub fct_samples: u64,
    /// Reachability convergence after the last link event, ps.
    pub convergence_ps: Option<u64>,
    /// First-to-last lost cell, ps.
    pub loss_window_ps: Option<u64>,
}

impl Outputs {
    /// FNV-1a over every field.
    pub fn fingerprint(&self) -> u64 {
        let opt = |v: Option<u64>| v.map_or(u64::MAX, |x| x);
        let fields = [
            self.stop_ps,
            self.events,
            self.windows,
            self.cells_sent,
            self.credits_sent,
            self.cells_dropped,
            self.cells_corrupted,
            self.packets_delivered,
            self.fci_marks,
            self.fe_queue_p99_cells,
            self.max_voq_bytes,
            self.bytes_offered,
            self.bytes_delivered,
            self.flows_offered,
            self.flows_done,
            self.fct_p50_ps,
            self.fct_p99_ps,
            self.fct_samples,
            opt(self.convergence_ps),
            opt(self.loss_window_ps),
        ];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for f in fields {
            for b in f.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

/// One repetition's result.
pub struct Rep {
    pub out: Outputs,
    pub setup_s: f64,
    pub run_s: f64,
    /// The full stats, when the caller asked to keep them (taken after
    /// the timed span, so they cost the measurement nothing).
    pub stats: Option<FabricStats>,
}

/// What a repetition needs from either fabric engine, beyond
/// [`FlowEngine`]: the public stats, event and window counts, and the
/// link-state calls.
pub trait BenchFabric: FlowEngine {
    fn read_stats<R>(&self, f: impl FnOnce(&FabricStats) -> R) -> R;
    fn events(&self) -> u64;
    fn windows(&self) -> u64;
    fn apply(&mut self, link: LinkId, action: LinkAction);
}

impl BenchFabric for FabricEngine {
    fn read_stats<R>(&self, f: impl FnOnce(&FabricStats) -> R) -> R {
        f(self.stats())
    }
    fn events(&self) -> u64 {
        self.events_executed()
    }
    fn windows(&self) -> u64 {
        0
    }
    fn apply(&mut self, link: LinkId, action: LinkAction) {
        match action {
            LinkAction::Fail => self.fail_link(link),
            LinkAction::Restore => self.restore_link(link),
            LinkAction::Degrade { ppm } => self.set_link_error_rate(link, f64::from(ppm) / 1e6),
        }
    }
}

impl BenchFabric for ShardedFabricEngine {
    fn read_stats<R>(&self, f: impl FnOnce(&FabricStats) -> R) -> R {
        // The sharded engine merges its shards' stats on every call.
        f(&self.stats())
    }
    fn events(&self) -> u64 {
        self.events_executed()
    }
    fn windows(&self) -> u64 {
        self.windows_executed()
    }
    fn apply(&mut self, link: LinkId, action: LinkAction) {
        match action {
            LinkAction::Fail => self.fail_link(link),
            LinkAction::Restore => self.restore_link(link),
            LinkAction::Degrade { ppm } => self.set_link_error_rate(link, f64::from(ppm) / 1e6),
        }
    }
}

/// `fig2_fabric_scale`'s two-tier family at `num_fa` FAs: a fixed 32-port
/// tier-1 radix, 16 spines that fatten with the fabric.
pub fn perm_params(num_fa: u32) -> TwoTierParams {
    TwoTierParams {
        num_fa,
        fa_uplinks: 4,
        t1_count: num_fa / 4,
        t1_down: 16,
        t1_up: 16,
        t2_count: 16,
        t2_down: num_fa / 4,
        near_meters: 10,
        far_meters: 100,
    }
}

fn perm_config(seed: u64) -> FabricConfig {
    FabricConfig {
        seed,
        host_ports: 2,
        host_port_bps: gbps(40),
        ctrl_latency: SimDuration::from_micros(1),
        ..FabricConfig::default()
    }
}

/// The fabric configuration a spec-driven workload runs with: the one
/// `stardust run` uses (`fig10::fabric_config`), with the spec's stats
/// mode and reachability interval.
pub fn spec_config(spec: &ExperimentSpec, seed: u64, reach: bool) -> FabricConfig {
    FabricConfig {
        bounded_flows: spec.stats == StatsMode::Sketch,
        reach_interval: if reach { spec.reach_interval() } else { None },
        ..fig10::fabric_config(seed)
    }
}

/// Build the topology and its route plan, each in its own span.
fn build_topology(tr: &mut Tracer, params: TwoTierParams) -> (Topology, Arc<RoutePlan>) {
    let topo = tr.span("topo.build", || two_tier(params).topo);
    let plan = tr.span("topo.plan", || Arc::new(RoutePlan::shortest_path(&topo)));
    (topo, plan)
}

/// Build the permutation's fabric and attach its CBR flows, which run
/// as long as the engine does.
fn perm_build(seed: u64, tr: &mut Tracer) -> FabricEngine {
    let (topo, plan) = build_topology(tr, perm_params(PERM_FAS));
    let mut e: FabricEngine = tr.span("fabric.new", || {
        FabricEngine::with_plan(topo, perm_config(seed), plan)
    });
    tr.span("fabric.attach", || {
        let mut rng = DetRng::from_label(seed, "perfbench-perm-cbr");
        let perm = permutation(PERM_FAS as usize, &mut rng);
        for src in 0..PERM_FAS {
            let dst = perm[src as usize];
            e.add_cbr_flow(
                src,
                dst,
                (src % 2) as u8,
                0,
                gbps(40),
                1500,
                SimTime::ZERO,
                SimTime::MAX,
            );
        }
    });
    e
}

/// One repetition of `perm_cbr_1024`: line-rate 1500 B permutation CBR
/// on the 1024-FA two-tier, sequential engine, static reachability. A
/// fresh engine is built (timed as set-up), warmed up untimed, and then
/// `PERM_WINDOWS` windows of its steady state are timed. Counts are
/// deltas over the timed windows; latency quantiles cover everything
/// after the warm-up.
pub fn perm_rep(seed: u64, tr: &mut Tracer) -> Rep {
    let t0 = Instant::now();
    let setup = tr.enter("setup");
    let mut e = perm_build(seed, tr);
    tr.exit(setup);
    let setup_s = t0.elapsed().as_secs_f64();
    let warm = SimTime::from_micros(PERM_WARMUP_US);
    tr.span("fabric.warmup", || e.run_until(warm));
    e.begin_measurement(warm);
    let before = e.stats().clone();
    let events_before = e.events_executed();

    let t1 = Instant::now();
    let run = tr.enter("run");
    for k in 1..=PERM_WINDOWS {
        let wend = warm + SimDuration::from_micros(PERM_WINDOW_US * k);
        tr.span("fabric.run", || e.run_until(wend));
    }
    let out = tr.span("stats.collect", || {
        let s = e.stats();
        let injected = s.packets_injected.get() - before.packets_injected.get();
        let delivered = s.packets_delivered.get() - before.packets_delivered.get();
        Outputs {
            stop_ps: e.now().as_ps(),
            events: e.events_executed() - events_before,
            windows: 0,
            cells_sent: s.cells_sent.get() - before.cells_sent.get(),
            credits_sent: s.credits_sent.get() - before.credits_sent.get(),
            cells_dropped: s.cells_dropped.get(),
            cells_corrupted: s.cells_corrupted.get(),
            packets_delivered: delivered,
            fci_marks: s.fci_marks.get() - before.fci_marks.get(),
            fe_queue_p99_cells: s.fe_queue.quantile(0.99),
            max_voq_bytes: s.max_voq_bytes,
            bytes_offered: injected * 1500,
            bytes_delivered: s.bytes_delivered.get() - before.bytes_delivered.get(),
            flows_offered: injected,
            flows_done: delivered,
            fct_p50_ps: s.packet_latency_ns.quantile(0.5) * 1000,
            fct_p99_ps: s.packet_latency_ns.quantile(0.99) * 1000,
            fct_samples: s.packet_latency_ns.count(),
            convergence_ps: None,
            loss_window_ps: None,
        }
    });
    tr.exit(run);
    let run_s = t1.elapsed().as_secs_f64();
    Rep {
        out,
        setup_s,
        run_s,
        stats: None,
    }
}

/// A [`FlowSource`] that counts the bytes it hands out.
struct Counting<S> {
    inner: S,
    bytes: u64,
}

impl<S: FlowSource> FlowSource for Counting<S> {
    fn peek_start(&mut self) -> Option<SimTime> {
        self.inner.peek_start()
    }

    fn next_flow(&mut self) -> Option<FlowSpec> {
        let f = self.inner.next_flow()?;
        self.bytes += f.bytes;
        Some(f)
    }
}

/// Which engine a spec-driven repetition builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Sequential,
    /// `shards` shards driven by `threads` OS threads.
    Sharded {
        shards: u32,
        threads: u32,
    },
}

/// How a spec-driven repetition runs.
#[derive(Debug, Clone, Copy)]
pub struct SpecRun {
    pub engine: EngineKind,
    /// Run the reachability protocol if the spec enables it.
    pub reach: bool,
    /// Stop after the first window that ends with this much payload
    /// delivered (`None`: run to the spec's horizon).
    pub budget_bytes: Option<u64>,
    pub keep_stats: bool,
}

/// Build a spec-driven workload's engine; no flows are attached before
/// the run (admission streams them in).
fn spec_build(spec: &ExperimentSpec, seed: u64, how: SpecRun, tr: &mut Tracer) -> Engine {
    let (topo, plan) = build_topology(
        tr,
        TwoTierParams::paper_scaled(spec.topology.two_tier_factor),
    );
    let cfg = spec_config(spec, seed, how.reach);
    tr.span("fabric.new", || match how.engine {
        EngineKind::Sequential => {
            Engine::Sequential(Box::new(FabricEngine::with_plan(topo, cfg, plan)))
        }
        EngineKind::Sharded { shards, threads } => {
            let mut e: ShardedFabricEngine =
                ShardedFabricEngine::with_plan(topo, cfg, plan, shards);
            e.set_threads(threads);
            Engine::Sharded(e)
        }
    })
}

/// Either engine, as built by [`spec_build`].
enum Engine {
    Sequential(Box<FabricEngine>),
    Sharded(ShardedFabricEngine),
}

/// One repetition of a spec-driven workload (`service_mix_64`,
/// `churn_reach_sharded`, and their ablations in the traced run).
pub fn spec_rep(spec: &ExperimentSpec, seed: u64, how: SpecRun, tr: &mut Tracer) -> Rep {
    let t0 = Instant::now();
    let setup = tr.enter("setup");
    let e = spec_build(spec, seed, how, tr);
    tr.exit(setup);
    let setup_s = t0.elapsed().as_secs_f64();
    match e {
        Engine::Sequential(e) => finish_spec_rep(spec, seed, how, tr, *e, setup_s),
        Engine::Sharded(e) => finish_spec_rep(spec, seed, how, tr, e, setup_s),
    }
}

/// Time one set-up of `w` alone: build and attach, then drop untimed.
/// Returns the seconds and the set-up's root span (when tracing).
pub fn setup_only(
    w: Workload,
    spec: Option<&ExperimentSpec>,
    seed: u64,
    tr: &mut Tracer,
) -> (f64, Option<usize>) {
    let t0 = Instant::now();
    let setup = tr.enter("setup");
    let built: Box<dyn std::any::Any> = match (w, spec) {
        (Workload::PermCbr1024, _) => Box::new(perm_build(seed, tr)),
        (_, Some(spec)) => Box::new(spec_build(spec, seed, w.spec_run(spec, false), tr)),
        (_, None) => unreachable!("spec-driven workloads carry their spec"),
    };
    tr.exit(setup);
    let setup_s = t0.elapsed().as_secs_f64();
    drop(built);
    (setup_s, setup.index())
}

fn finish_spec_rep<E: BenchFabric>(
    spec: &ExperimentSpec,
    seed: u64,
    how: SpecRun,
    tr: &mut Tracer,
    mut e: E,
    setup_s: f64,
) -> Rep {
    let scenario: Scenario = spec.scenario_for(seed);
    let t1 = Instant::now();
    let run = tr.enter("run");
    let mut d = AdmissionLoop {
        src: tr.span("workload.admit", || Counting {
            inner: scenario.flow_source(e.num_nodes()).peekable(),
            bytes: 0,
        }),
        e: &mut e,
        now: SimTime::ZERO,
        window: spec.admit_window(),
        budget: how.budget_bytes,
        stopped: false,
    };
    let horizon = spec.horizon();
    for ev in spec.failures.events() {
        if ev.at >= horizon {
            break;
        }
        d.advance_to(ev.at, tr);
        if d.stopped {
            break;
        }
        tr.span("fabric.link_event", || d.e.apply(ev.link, ev.action));
    }
    d.advance_to(horizon, tr);
    let (stop, bytes_offered) = (d.now, d.src.bytes);
    let out = tr.span("stats.collect", || {
        e.read_stats(|s| {
            let q = s.flows.fct_quantiles(&[0.5, 0.99]);
            let ps = |d: Option<SimDuration>| d.map_or(0, SimDuration::as_ps);
            Outputs {
                stop_ps: stop.as_ps(),
                events: e.events(),
                windows: e.windows(),
                cells_sent: s.cells_sent.get(),
                credits_sent: s.credits_sent.get(),
                cells_dropped: s.cells_dropped.get(),
                cells_corrupted: s.cells_corrupted.get(),
                packets_delivered: s.packets_delivered.get(),
                fci_marks: s.fci_marks.get(),
                fe_queue_p99_cells: s.fe_queue.quantile(0.99),
                max_voq_bytes: s.max_voq_bytes,
                bytes_offered,
                bytes_delivered: s.bytes_delivered.get(),
                flows_offered: s.flows.len() as u64,
                flows_done: s.flows.completed() as u64,
                fct_p50_ps: ps(q[0]),
                fct_p99_ps: ps(q[1]),
                fct_samples: s.flows.completed() as u64,
                convergence_ps: s.convergence_time().map(SimDuration::as_ps),
                loss_window_ps: s.loss_window().map(SimDuration::as_ps),
            }
        })
    });
    tr.exit(run);
    let run_s = t1.elapsed().as_secs_f64();
    Rep {
        out,
        setup_s,
        run_s,
        stats: how.keep_stats.then(|| e.read_stats(FabricStats::clone)),
    }
}

/// The admission-window loop of `Scenario::run_streamed`, with each call
/// into the program in its own span: offer every flow due by the window's
/// end, then simulate to it.
struct AdmissionLoop<'a, E, S> {
    e: &'a mut E,
    src: Counting<S>,
    now: SimTime,
    window: SimDuration,
    budget: Option<u64>,
    stopped: bool,
}

impl<E: BenchFabric, S: FlowSource> AdmissionLoop<'_, E, S> {
    fn advance_to(&mut self, target: SimTime, tr: &mut Tracer) {
        while !self.stopped {
            let wend = if target.since(self.now) <= self.window {
                target
            } else {
                self.now + self.window
            };
            tr.span("workload.admit", || self.e.offer_until(&mut self.src, wend));
            tr.span("fabric.run", || self.e.run_until(wend));
            self.now = wend;
            if let Some(budget) = self.budget {
                self.stopped = self.e.read_stats(|s| s.bytes_delivered.get()) >= budget;
            }
            if self.now >= target {
                break;
            }
        }
    }
}

/// The seed of instance `j` of a run seeded `seed`. Instance 0 runs the
/// seed itself; the others are drawn from it, so one run averages over
/// several inputs and the same seed always gives the same inputs.
pub fn instance_seed(seed: u64, j: u64) -> u64 {
    if j == 0 {
        seed
    } else {
        DetRng::from_label(seed, "perfbench-instance")
            .split_u64(j)
            .next_u64()
    }
}

/// Shards of a spec's first engine (1 when it is sequential).
pub fn shards_of(spec: &ExperimentSpec) -> u32 {
    match spec.engines.first() {
        Some(EngineSpec::Sharded { shards, .. }) => *shards,
        _ => 1,
    }
}

impl Workload {
    /// How a spec-driven workload runs its spec.
    pub fn spec_run(self, spec: &ExperimentSpec, keep_stats: bool) -> SpecRun {
        let shards = shards_of(spec);
        SpecRun {
            engine: if shards > 1 {
                EngineKind::Sharded {
                    shards,
                    threads: spec.threads.unwrap_or(shards),
                }
            } else {
                EngineKind::Sequential
            },
            reach: true,
            budget_bytes: (self == Workload::ServiceMix64).then_some(SERVICE_BUDGET_BYTES),
            keep_stats,
        }
    }
}
