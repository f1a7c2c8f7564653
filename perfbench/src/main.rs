//! perfbench — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench suite [--runs N] [--seconds S] [--seed N] [--out FILE]
//! perfbench pairs OLD_EXE NEW_EXE [--runs N] [--seconds S] [--seed N] [--out DIR]
//! perfbench compare OLD.json NEW.json
//! ```
//!
//! A single run repeats one workload on one seed's inputs for `--seconds`
//! and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). `suite` runs
//! every workload in child processes over several seeds, prints medians
//! and quartiles and writes a result file. `pairs` runs two builds of the
//! benchmark alternately, seed by seed, writes one result file per side
//! and compares them; `compare` reads two result files and gives a
//! verdict per workload and metric. See README.md.

mod host;
mod json;
mod kernels;
mod metrics;
mod reference;
mod stats;
mod trace;
mod workloads;

use json::{obj, Json, JsonExt};
use metrics::{Samples, END_TO_END, PER_LAYER};
use stardust_bench::spec::ExperimentSpec;
use stats::{median, quartiles, spread, verdict, Verdict};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::{layer_table, self_ns_of, self_times, subtree, Tracer};
use workloads::{EngineKind, Rep, Workload, MAX_CONVERGENCE_US};

/// Prefix of the line that carries a run's full record (every metric,
/// the fingerprint) to `suite`.
const DETAIL: &str = "perfbench-detail ";
/// `run_seconds` of `BENCHMARK.json`: the default length of a run in
/// `suite` and `pairs` (a test keeps the two in step).
const RUN_SECONDS: f64 = 30.0;
/// Default runs per workload in `suite` and `pairs`: ten, for the
/// ≥ 9/10-pairs rule.
const RUNS: u64 = 10;
/// The held-out seed of a suite seeded `seed` is `seed + HELDOUT_OFFSET`.
const HELDOUT_OFFSET: u64 = 1000;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n  \
         perfbench suite [--runs N] [--seconds S] [--seed N] [--out FILE]\n  \
         perfbench pairs OLD_EXE NEW_EXE [--runs N] [--seconds S] [--seed N] [--out DIR]\n  \
         perfbench compare OLD.json NEW.json",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// `--key value` lookup.
fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("suite") => suite(&args[1..]),
        Some("pairs") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => pairs(a, b, &args[3..]),
            _ => usage(),
        },
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare(a, b),
            _ => usage(),
        },
        _ => {
            let parsed = (|| {
                let w = Workload::parse(flag(&args, "--workload")?)?;
                let seed = flag(&args, "--seed")?.parse::<u64>().ok()?;
                let seconds = flag(&args, "--seconds")?.parse::<f64>().ok()?;
                let trace = match flag(&args, "--trace").unwrap_or("0") {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                };
                Some((w, seed, seconds, trace))
            })();
            match parsed {
                Some((w, seed, seconds, trace)) => single(w, seed, seconds, trace),
                None => usage(),
            }
        }
    }
}

/// Correctness checks on one repetition's outputs.
fn check_outputs(w: Workload, o: &workloads::Outputs) -> Vec<String> {
    let mut bad = Vec::new();
    match w {
        Workload::PermCbr1024 | Workload::ServiceMix64 => {
            if o.cells_dropped + o.cells_corrupted != 0 {
                bad.push(format!(
                    "{} cells dropped and {} corrupted: this workload must be lossless",
                    o.cells_dropped, o.cells_corrupted
                ));
            }
        }
        Workload::ChurnReachSharded => match o.convergence_ps {
            Some(ps) if ps as f64 / 1e6 <= MAX_CONVERGENCE_US => {}
            got => bad.push(format!(
                "reach convergence {:?} us exceeds the {MAX_CONVERGENCE_US} us cap",
                got.map(|ps| ps as f64 / 1e6)
            )),
        },
    }
    if o.flows_done == 0 {
        bad.push("nothing completed".to_string());
    }
    if o.cells_sent == 0 || o.events == 0 {
        bad.push("the fabric did no work".to_string());
    }
    bad
}

/// `stardust run` on the same inputs — the spec with this seed, cut at
/// the benchmark's stop time — must reproduce the benchmark's outputs.
fn cross_check(spec: &ExperimentSpec, seed: u64, first: &Rep) -> Vec<String> {
    let stats = first
        .stats
        .as_ref()
        .expect("the first repetition keeps its stats");
    let mut same_inputs = spec.clone();
    same_inputs.seeds = vec![seed];
    same_inputs.horizon_us = first.out.stop_ps / 1_000_000;
    let outcome = stardust_bench::runner::run_spec(&same_inputs);
    let mut bad: Vec<String> = outcome
        .check_failures
        .iter()
        .map(|f| format!("stardust run: {f}"))
        .collect();
    let us = |d: Option<stardust_sim::SimDuration>| d.map(|d| d.as_secs_f64() * 1e6);
    match outcome.runs.first() {
        None => bad.push("stardust run produced no run".to_string()),
        Some(r) => {
            if r.flows != stats.flows {
                bad.push("stardust run: FCT records differ from the benchmark's".to_string());
            }
            if r.events != Some(first.out.events) {
                bad.push(format!(
                    "stardust run: {:?} events, benchmark {}",
                    r.events, first.out.events
                ));
            }
            if r.cells_dropped != Some(stats.cells_dropped.get()) {
                bad.push("stardust run: dropped-cell count differs".to_string());
            }
            if r.convergence_us != us(stats.convergence_time())
                || r.loss_window_us != us(stats.loss_window())
            {
                bad.push("stardust run: convergence or loss window differs".to_string());
            }
        }
    }
    bad
}

/// Set-up-only samples, on top of the repetitions' own set-ups: before
/// each repetition, as many as fit in this many seconds (at least one).
/// Spreading them over the run keeps the median from following a short
/// slow or fast phase of the host.
const SETUP_SLICE_S: f64 = 0.05;
/// Fewest measured repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Summed self time, in seconds, of the spans named in `names` below
/// `root`.
fn layer_s(tr: &Tracer, root: usize, names: &[&str]) -> f64 {
    let idx = subtree(tr.spans(), root);
    names
        .iter()
        .map(|n| self_ns_of(tr.spans(), &idx, n))
        .sum::<u64>() as f64
        / 1e9
}

/// Share of a root span's time that its layer spans cover: everything
/// except the self time of the grouping spans (`rep`, `setup`, `run`).
fn coverage(tr: &Tracer, root: usize) -> f64 {
    let spans = tr.spans();
    let selfs = self_times(spans);
    let grouping: u64 = subtree(spans, root)
        .into_iter()
        .filter(|&i| matches!(spans[i].name, "rep" | "setup" | "run"))
        .map(|i| selfs[i])
        .sum();
    1.0 - grouping as f64 / spans[root].dur_ns().max(1) as f64
}

fn p99(mut v: Vec<u64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    v[((v.len() as f64 * 0.99).ceil() as usize).clamp(1, v.len()) - 1] as f64
}

fn print_layer_table(title: &str, tr: &Tracer, roots: &[usize]) {
    if roots.is_empty() {
        return;
    }
    let spans = tr.spans();
    let idx: Vec<usize> = roots.iter().flat_map(|&r| subtree(spans, r)).collect();
    let wall: u64 = roots.iter().map(|&r| spans[r].dur_ns()).sum();
    let n = roots.len() as f64;
    println!(
        "\nself time by span, {title} ({} traced, {:.4} s each)",
        roots.len(),
        wall as f64 / 1e9 / n
    );
    println!(
        "{:<20} {:>10} {:>14} {:>8}",
        "span", "calls/each", "self s/each", "share"
    );
    for (name, calls, self_ns, _) in layer_table(spans, &idx) {
        println!(
            "{:<20} {:>10.1} {:>14.6} {:>7.2}%",
            name,
            calls as f64 / n,
            self_ns as f64 / 1e9 / n,
            100.0 * self_ns as f64 / wall.max(1) as f64
        );
    }
}

fn metrics_json(values: &[(&'static str, f64)], names: &[(&str, &str)]) -> Json {
    Json::Obj(
        names
            .iter()
            .map(|(name, unit)| {
                let v = values
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(f64::NAN, |(_, v)| *v);
                (
                    name.to_string(),
                    obj([("value", Json::Num(v)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    )
}

/// What one single run measured.
struct Measured {
    /// The untraced repetitions and their host samples (the end-to-end
    /// metrics).
    host: Samples,
    /// Traced repetitions, each paired with the untraced one before it
    /// (same input) and with its root span.
    traced: Vec<(Rep, usize)>,
    /// Root spans of the traced set-up-only samples.
    setup_roots: Vec<usize>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Measured {
    /// Record a repetition's correctness verdict.
    fn judge(&mut self, w: Workload, r: &Rep, reference: Option<&workloads::Outputs>) {
        let mut bad = check_outputs(w, &r.out);
        if let Some(want) = reference {
            if &r.out != want {
                bad.push(format!(
                    "fingerprint {:016x} differs from {:016x} on the same input",
                    r.out.fingerprint(),
                    want.fingerprint()
                ));
            }
        }
        self.check(bad);
    }

    /// Record one check: attempted, and failed if it found problems.
    fn check(&mut self, bad: Vec<String>) {
        self.attempted += 1;
        if !bad.is_empty() {
            self.failed += 1;
            self.problems.extend(bad);
        }
    }
}

/// Run `f` with the tracer off, then restore it.
fn untraced<T>(tr: &mut Tracer, on: bool, f: impl FnOnce(&mut Tracer) -> T) -> T {
    tr.set_on(false);
    let out = f(tr);
    tr.set_on(on);
    out
}

/// Run `f` inside a root span named `name`; returns its index (when on).
fn rooted<T>(
    tr: &mut Tracer,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> T,
) -> (T, Option<usize>) {
    let open = tr.enter(name);
    let out = f(tr);
    tr.exit(open);
    (out, open.index())
}

/// The repetition loop of one run: repetitions until `seconds` have
/// passed, each preceded by set-up samples and the host-speed reference
/// (in a traced run, each untraced repetition is followed by a traced one
/// on the same input), then the determinism and `stardust run` checks.
fn measure(
    w: Workload,
    spec: Option<&ExperimentSpec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tr: &mut Tracer,
) -> Measured {
    let mut m = Measured {
        host: Samples::default(),
        traced: Vec::new(),
        setup_roots: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let threads = match spec.map(|s| w.spec_run(s, false).engine) {
        Some(EngineKind::Sharded { threads, .. }) => threads,
        _ => 1,
    };
    let t0 = Instant::now();
    let mut j = 0;
    while m.host.reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        // The permutation repeats the seed's input; spec-driven workloads
        // draw a new instance per repetition.
        let one = |tr: &mut Tracer, keep: bool| match spec {
            None => workloads::perm_rep(seed, tr),
            Some(spec) => workloads::spec_rep(
                spec,
                workloads::instance_seed(seed, j),
                w.spec_run(spec, keep),
                tr,
            ),
        };
        let t_setup = Instant::now();
        let mut slice = Vec::new();
        loop {
            let (s, root) = workloads::setup_only(w, spec, seed, tr);
            slice.push(s);
            m.setup_roots.extend(root);
            if t_setup.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                break;
            }
        }
        let reference = reference::reference_s(threads);
        m.host.refs.push(reference);
        // Set-up runs on one thread (shard threads start with the run),
        // so it is measured against a one-thread reference.
        let setup_reference = if threads > 1 {
            reference::reference_s(1)
        } else {
            reference
        };
        host::reset_peak_rss();
        let r = untraced(tr, trace, |tr| one(tr, j == 0));
        m.host.peaks.push(host::peak_rss_mb());
        let want = match spec {
            None => m.host.reps.first().map(|f| f.out.clone()),
            Some(_) => None,
        };
        m.judge(w, &r, want.as_ref());
        slice.push(r.setup_s);
        m.host.setup_refs.push(setup_reference);
        m.host
            .setups
            .push(median(&slice) * reference::NOMINAL_S / setup_reference);
        m.host.setups_raw.extend(slice);
        if trace {
            let (t, root) = rooted(tr, "rep", |tr| one(tr, false));
            m.judge(w, &t, Some(&r.out));
            m.traced.extend(root.map(|i| (t, i)));
        }
        m.host.reps.push(r);
        j += 1;
    }
    if let Some(spec) = spec {
        if !trace {
            // A replay of the first instance must reproduce it (traced
            // runs replay every instance already).
            let replay = workloads::spec_rep(spec, seed, w.spec_run(spec, false), tr);
            let first = m.host.reps[0].out.clone();
            m.judge(w, &replay, Some(&first));
        }
        let bad = rooted(tr, "check.stardust_run", |_| {
            cross_check(spec, seed, &m.host.reps[0])
        })
        .0;
        m.check(bad);
    }
    m
}

/// One workload, one seed: the run `BENCHMARK.json`'s command makes.
fn single(w: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let spec = w.spec();
    let mut tr = Tracer::new(trace);
    let mut m = measure(w, spec.as_ref(), seed, seconds, trace, &mut tr);
    let first = m.host.reps[0].out.clone();
    println!(
        "{} seed {seed}: {} repetitions ({} traced), fingerprint {:016x}",
        w.name(),
        m.host.reps.len(),
        m.traced.len(),
        first.fingerprint()
    );
    let metrics = if !trace {
        let values = m.host.end_to_end();
        print_end_to_end(w, &m.host, &values);
        let sim = metrics::sim_outcomes(w, &first)
            .into_iter()
            .map(|(n, _, v)| (n, v.map_or(Json::Null, Json::Num)));
        let all: Vec<(&str, Json)> = values
            .iter()
            .map(|(n, v)| (*n, Json::Num(*v)))
            .chain(sim)
            .collect();
        println!(
            "{DETAIL}{}",
            obj([
                ("workload", Json::str(w.name())),
                ("seed", Json::Num(seed as f64)),
                (
                    "fingerprint",
                    Json::str(format!("{:016x}", first.fingerprint()))
                ),
                ("metrics", obj(all)),
            ])
            .render()
        );
        let names: Vec<(&str, &str)> = END_TO_END.iter().map(|d| (d.name, d.unit)).collect();
        metrics_json(&values, &names)
    } else {
        let values = traced_metrics(w, spec.as_ref(), seed, &mut tr, &mut m);
        let rep_roots: Vec<usize> = m.traced.iter().map(|(_, i)| *i).collect();
        print_layer_table(&format!("{} repetitions", w.name()), &tr, &rep_roots);
        print_layer_table(&format!("{} set-ups", w.name()), &tr, &m.setup_roots);
        println!("\nper-layer metrics, {}", w.name());
        for (n, v) in &values {
            println!("  {:<26} {:>18.6} {}", n, v, metrics::unit_of(n));
        }
        write_spans(w, seed, &tr);
        let names: Vec<(&str, &str)> = PER_LAYER.iter().map(|d| (d.0, d.1)).collect();
        metrics_json(&values, &names)
    };
    for p in &m.problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "{}",
        obj([
            ("correct", Json::Bool(m.problems.is_empty())),
            ("attempted", Json::Num(m.attempted as f64)),
            ("failed", Json::Num(m.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    // The result line carries the verdict; a run whose checks failed
    // still exits 0, as the benchmark's command must. `suite` and `pairs`
    // exit non-zero on it.
    ExitCode::SUCCESS
}

fn print_end_to_end(w: Workload, host: &Samples, values: &[(&'static str, f64)]) {
    println!(
        "\nend-to-end, {} ({} untraced repetitions)",
        w.name(),
        host.reps.len()
    );
    println!(
        "{:<18} {:>8} {:>16} {:>16} {:>16}",
        "metric", "unit", "median", "q1", "q3"
    );
    let samples = host.series();
    for (name, v) in values {
        let (q1, q3) = match samples.iter().find(|(n, _)| n == name) {
            Some((_, s)) => {
                let q = quartiles(s);
                (q[0], q[2])
            }
            None => (*v, *v),
        };
        println!(
            "{:<18} {:>8} {:>16.6} {:>16.6} {:>16.6}",
            name,
            metrics::unit_of(name),
            v,
            q1,
            q3
        );
    }
    for (name, unit, v) in metrics::sim_outcomes(w, &host.reps[0].out) {
        match v {
            Some(v) => println!("{name:<18} {unit:>8} {v:>16.6}   (simulated)"),
            None => println!("{name:<18} {unit:>8} {:>16}   (not applicable)", "-"),
        }
    }
    // Every sample, so a run's spread can be inspected; set-up samples
    // can number in the hundreds, so show the first few of long lists.
    for (name, v) in &samples {
        let shown: Vec<String> = v.iter().take(40).map(|x| format!("{x:.4}")).collect();
        let more = if v.len() > 40 { " …" } else { "" };
        println!("  {name} samples ({}): {}{more}", v.len(), shown.join(" "));
    }
}

fn traced_metrics(
    w: Workload,
    spec: Option<&ExperimentSpec>,
    seed: u64,
    tr: &mut Tracer,
    m: &mut Measured,
) -> Vec<(&'static str, f64)> {
    let rep_roots: Vec<usize> = m.traced.iter().map(|(_, i)| *i).collect();
    // A layer's value is the median over the traced roots that ran it.
    let med = |roots: &[usize], names: &[&str]| {
        let v: Vec<f64> = roots
            .iter()
            .filter(|&&r| {
                let idx = subtree(tr.spans(), r);
                names
                    .iter()
                    .any(|n| idx.iter().any(|&i| tr.spans()[i].name == *n))
            })
            .map(|&r| layer_s(tr, r, names))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let setup_roots = m.setup_roots.clone();
    let o = m.host.reps[0].out.clone();
    let fabric_run_s = med(&rep_roots, &["fabric.run", "fabric.link_event"]);
    let stats_s = med(&rep_roots, &["stats.collect"]);
    let window_p99_ms = median(
        &rep_roots
            .iter()
            .map(|&r| {
                let spans = tr.spans();
                let w: Vec<u64> = subtree(spans, r)
                    .into_iter()
                    .filter(|&i| spans[i].name == "fabric.run")
                    .map(|i| spans[i].dur_ns())
                    .collect();
                p99(w) / 1e6
            })
            .collect::<Vec<_>>(),
    );
    let overhead = median(
        &m.traced
            .iter()
            .zip(&m.host.reps)
            .map(|((t, _), u)| t.run_s / u.run_s)
            .collect::<Vec<_>>(),
    );
    let cover = median(
        &rep_roots
            .iter()
            .map(|&r| coverage(tr, r))
            .collect::<Vec<_>>(),
    );
    m.check(
        (cover < 0.95)
            .then(|| {
                format!(
                    "spans cover {:.1}% of the traced repetitions' wall time (need 95%)",
                    cover * 100.0
                )
            })
            .into_iter()
            .collect(),
    );
    let mut v: Vec<(&'static str, f64)> = vec![
        (
            "topo.build_s",
            med(&setup_roots, &["topo.build", "topo.plan"]),
        ),
        ("fabric.new_s", med(&setup_roots, &["fabric.new"])),
        ("fabric.attach_s", med(&setup_roots, &["fabric.attach"])),
        ("workload.admit_s", med(&rep_roots, &["workload.admit"])),
        ("fabric.run_s", fabric_run_s),
        ("fabric.events", o.events as f64),
        (
            "fabric.ns_per_event",
            fabric_run_s * 1e9 / o.events.max(1) as f64,
        ),
        ("fabric.window_p99_ms", window_p99_ms),
        ("fabric.cells_sent", o.cells_sent as f64),
        ("fabric.credits_sent", o.credits_sent as f64),
        (
            "fabric.cells_per_packet",
            o.cells_sent as f64 / o.packets_delivered.max(1) as f64,
        ),
        ("fabric.fci_marks", o.fci_marks as f64),
        ("fabric.fe_queue_p99_cells", o.fe_queue_p99_cells as f64),
        ("fabric.max_voq_bytes", o.max_voq_bytes as f64),
    ];

    // Churn only: reach's share by ablation (the same input with the
    // protocol off) and the shard runtime's cost against the sequential
    // engine on the same input. Zero where a workload has no such layer.
    let (mut reach_run, mut reach_ev, mut extra_events, mut overhead_x) = (0.0, 0.0, 0.0, 0.0);
    if let (Workload::ChurnReachSharded, Some(spec)) = (w, spec) {
        let base = &m.host.reps[0];
        let mut seq_run = w.spec_run(spec, true);
        seq_run.engine = EngineKind::Sequential;
        let (seq, _) = rooted(tr, "ablation.sequential", |tr| {
            untraced(tr, true, |tr| workloads::spec_rep(spec, seed, seq_run, tr))
        });
        let differ = seq.stats != base.stats;
        extra_events = base.out.events as f64 - seq.out.events as f64;
        overhead_x = base.run_s / seq.run_s;
        let mut off_run = w.spec_run(spec, false);
        off_run.reach = false;
        let (off, _) = rooted(tr, "ablation.reach_off", |tr| {
            untraced(tr, true, |tr| workloads::spec_rep(spec, seed, off_run, tr))
        });
        reach_run = 1.0 - off.run_s / base.run_s;
        reach_ev = 1.0 - off.out.events as f64 / base.out.events as f64;
        println!(
            "ablation estimates, seed {seed} (not probes): with reach off the sharded run takes \
             {:.4} s and {} events against {:.4} s and {} with reach; the sequential engine \
             takes {:.4} s and {} events",
            off.run_s, off.out.events, base.run_s, base.out.events, seq.run_s, seq.out.events
        );
        m.check(
            differ
                .then(|| "sharded FabricStats differ from the sequential engine's".to_string())
                .into_iter()
                .collect(),
        );
    }
    v.extend([
        ("reach.run_share", reach_run),
        ("reach.event_share", reach_ev),
        ("shard.windows", o.windows as f64),
        (
            "shard.ns_per_window",
            if o.windows > 0 {
                fabric_run_s * 1e9 / o.windows as f64
            } else {
                0.0
            },
        ),
        ("shard.merge_s", if o.windows > 0 { stats_s } else { 0.0 }),
        ("shard.extra_events", extra_events),
        ("shard.overhead_x", overhead_x),
        ("stats.collect_s", stats_s),
        ("trace.overhead_frac", overhead),
        ("trace.coverage", cover),
    ]);
    let (kernels, _) = rooted(tr, "kernels", |_| kernels::run_all());
    v.extend(kernels);
    v
}

fn write_spans(w: Workload, seed: u64, tr: &Tracer) {
    let dir = std::path::Path::new("perfbench-out");
    let path = dir.join(format!("spans-{}-seed{seed}.tsv", w.name()));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tr.to_tsv())) {
        Ok(()) => println!("spans: {} ({} spans)", path.display(), tr.spans().len()),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
}

/// One child run's parsed record.
struct ChildRun {
    seed: u64,
    correct: bool,
    record: Json,
}

fn run_child(
    exe: &Path,
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed}: exit status {}",
            w.name(),
            out.status
        ));
    }
    let last = text.lines().last().ok_or("no output")?;
    let result = json::parse(last)?;
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    for l in text.lines().filter(|l| l.starts_with("CHECK FAILED")) {
        eprintln!("{} seed {seed}: {l}", w.name());
    }
    let record = match text.lines().find_map(|l| l.strip_prefix(DETAIL)) {
        Some(d) => {
            let mut d = json::parse(d)?;
            if let Json::Obj(kv) = &mut d {
                kv.push(("correct".into(), Json::Bool(correct)));
            }
            d
        }
        // Traced runs carry their per-layer metrics in the result line.
        None => result,
    };
    Ok(ChildRun {
        seed,
        correct,
        record,
    })
}

/// The options `suite` and `pairs` share.
struct Plan {
    runs: u64,
    seconds: f64,
    seed: u64,
}

impl Plan {
    /// The plan `args` ask for; `None` if a value given is malformed.
    fn parse(args: &[String]) -> Option<Plan> {
        fn or<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Option<T> {
            flag(args, key).map_or(Some(default), |s| s.parse().ok())
        }
        let plan = Plan {
            runs: or(args, "--runs", RUNS)?,
            seconds: or(args, "--seconds", RUN_SECONDS)?,
            seed: or(args, "--seed", 1)?,
        };
        let seeds_fit = plan
            .seed
            .checked_add(plan.runs.max(HELDOUT_OFFSET + 1))
            .is_some();
        let seconds_ok = plan.seconds.is_finite() && plan.seconds > 0.0;
        (plan.runs > 0 && seconds_ok && seeds_fit).then_some(plan)
    }

    /// The held-out seed: run once per workload next to the plan's seeds,
    /// a second input a claimed gain must also hold on.
    fn heldout(&self) -> u64 {
        self.seed + HELDOUT_OFFSET
    }

    fn seeds(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.runs).map(|i| self.seed + i)
    }
}

/// A result file: where it was measured, how, and each workload's runs.
/// `pairs` files are the alternated ones.
fn result_doc(exe: &Path, plan: &Plan, alternated: bool, workloads: Vec<Json>) -> Json {
    obj([
        ("benchmark", Json::str("perfbench")),
        ("host", host::descriptor(exe)),
        ("seed", Json::Num(plan.seed as f64)),
        ("heldout_seed", Json::Num(plan.heldout() as f64)),
        ("seconds", Json::Num(plan.seconds)),
        ("alternated", Json::Bool(alternated)),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn write_doc(path: &Path, doc: &Json) -> Result<(), String> {
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(path, doc.render() + "\n"))
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Every workload over the plan's seeds (plus the held-out seed and one
/// traced run), in child processes; prints every end-to-end metric with
/// median and quartiles and writes the result file.
fn suite(args: &[String]) -> ExitCode {
    let Some(plan) = Plan::parse(args) else {
        return usage();
    };
    let heldout = plan.heldout();
    let out_path = Path::new(flag(args, "--out").unwrap_or("perfbench-out/result.json"));
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for w in Workload::ALL {
        let mut rows: Vec<ChildRun> = Vec::new();
        for seed in plan.seeds() {
            match run_child(&exe, w, seed, plan.seconds, false) {
                Ok(r) => rows.push(r),
                Err(e) => {
                    eprintln!("{e}");
                    all_correct = false;
                }
            }
        }
        let held = run_child(&exe, w, heldout, plan.seconds, false);
        let traced = run_child(&exe, w, plan.seed, plan.seconds, true);
        all_correct &= rows.iter().all(|r| r.correct)
            && held.as_ref().is_ok_and(|r| r.correct)
            && traced.as_ref().is_ok_and(|r| r.correct);
        print_suite_table(w, &rows);
        let rec = |r: Result<ChildRun, String>| match r {
            Ok(r) => r.record,
            Err(e) => obj([("error", Json::str(e))]),
        };
        workloads_json.push(obj([
            ("name", Json::str(w.name())),
            (
                "runs",
                Json::Arr(rows.into_iter().map(|r| r.record).collect()),
            ),
            ("heldout", rec(held)),
            ("traced", rec(traced)),
        ]));
    }
    let doc = result_doc(&exe, &plan, false, workloads_json);
    if let Err(e) = write_doc(out_path, &doc) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness check failed (see above)");
        ExitCode::FAILURE
    }
}

/// Two builds of the benchmark (a parent's and a change's) over the
/// plan's seeds and then the held-out seed, alternately: on each seed
/// both run back to back, and which runs first alternates from seed to
/// seed, so host drift lands on both sides alike. Writes `old.json` and
/// `new.json` under `--out` and prints their comparison.
fn pairs(old_exe: &str, new_exe: &str, args: &[String]) -> ExitCode {
    let Some(plan) = Plan::parse(args) else {
        return usage();
    };
    let dir = Path::new(flag(args, "--out").unwrap_or("perfbench-out/pairs"));
    let exes = [Path::new(old_exe), Path::new(new_exe)];
    let mut all_correct = true;
    let mut sides: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    for w in Workload::ALL {
        let mut rows: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        let mut held = [Json::Null, Json::Null];
        for (i, seed) in plan.seeds().chain([plan.heldout()]).enumerate() {
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                match run_child(exes[side], w, seed, plan.seconds, false) {
                    Ok(r) => {
                        all_correct &= r.correct;
                        if i as u64 == plan.runs {
                            held[side] = r.record;
                        } else {
                            rows[side].push(r.record);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        all_correct = false;
                    }
                }
            }
        }
        for ((side, rows), held) in sides.iter_mut().zip(rows).zip(held) {
            side.push(obj([
                ("name", Json::str(w.name())),
                ("runs", Json::Arr(rows)),
                ("heldout", held),
            ]));
        }
    }
    let [old, new] = sides;
    let docs = [
        result_doc(exes[0], &plan, true, old),
        result_doc(exes[1], &plan, true, new),
    ];
    for (doc, name) in docs.iter().zip(["old.json", "new.json"]) {
        if let Err(e) = write_doc(&dir.join(name), doc) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let verdict = print_compare(&docs[0], &docs[1]);
    if !all_correct {
        eprintln!("perfbench: a correctness check failed (see above)");
        return ExitCode::FAILURE;
    }
    verdict
}

/// The values of `metric` across a workload's runs.
fn column(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

fn metric_names(runs: &[Json]) -> Vec<String> {
    runs.first()
        .and_then(|r| r.get("metrics"))
        .map(|m| m.entries().iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

fn print_suite_table(w: Workload, rows: &[ChildRun]) {
    let runs: Vec<Json> = rows.iter().map(|r| r.record.clone()).collect();
    println!(
        "\n{} — {} runs (seeds {:?})",
        w.name(),
        runs.len(),
        rows.iter().map(|r| r.seed).collect::<Vec<_>>()
    );
    println!(
        "{:<18} {:>8} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "median", "q1", "q3", "spread"
    );
    for name in metric_names(&runs) {
        let v = column(&runs, &name);
        if v.is_empty() {
            println!("{name:<18} {:>8} {:>14}", metrics::unit_of(&name), "-");
            continue;
        }
        let q = quartiles(&v);
        let spread = if q[1] == 0.0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * spread(&v))
        };
        println!(
            "{:<18} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>8}",
            name,
            metrics::unit_of(&name),
            q[1],
            q[0],
            q[2],
            spread
        );
    }
}

/// Verdict per workload × end-to-end metric between two result files,
/// plus a check that runs on equal seeds produced identical outputs.
fn compare(old_path: &str, new_path: &str) -> ExitCode {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => print_compare(&old, &new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Print the compare report; fails on a `WORSE` verdict or changed
/// outputs.
fn print_compare(old: &Json, new: &Json) -> ExitCode {
    let alternated = |d: &Json| d.get("alternated").and_then(Json::as_bool) == Some(true);
    if !(alternated(old) && alternated(new)) {
        println!(
            "note: these files were not written by one `pairs` call, so their runs were not \
             alternated; host drift between the two calls lands on one side only, and the \
             pair rule below assumes alternation"
        );
    }
    println!(
        "{:<20} {:<26} {:>30} {:>30}  verdict",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]"
    );
    let mut bad = false;
    for (line, fails) in compare_docs(old, new) {
        println!("{line}");
        bad |= fails;
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Field `key` of workload `name`'s entry in a result file.
fn workload_field<'a>(doc: &'a Json, name: &str, key: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))?
        .get(key)
}

fn workload_runs<'a>(doc: &'a Json, name: &str) -> &'a [Json] {
    workload_field(doc, name, "runs").map_or(&[], Json::as_arr)
}

/// The held-out run of workload `name`, if it produced metrics.
fn heldout_run<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    workload_field(doc, name, "heldout").filter(|h| h.get("metrics").is_some())
}

/// The compare report, one line per workload × metric, each with whether
/// it fails the comparison: a gated metric read `WORSE`, or changed
/// outputs. Reported metrics get a verdict but never fail.
fn compare_docs(old: &Json, new: &Json) -> Vec<(String, bool)> {
    let mut lines = Vec::new();
    for w in Workload::ALL {
        let (o, n) = (workload_runs(old, w.name()), workload_runs(new, w.name()));
        if o.is_empty() || n.is_empty() {
            continue;
        }
        for d in END_TO_END.iter().chain(metrics::REPORTED) {
            let (ov, nv) = (column(o, d.name), column(n, d.name));
            if ov.is_empty() || nv.is_empty() {
                continue;
            }
            let (qo, qn) = (quartiles(&ov), quartiles(&nv));
            let v: Verdict = verdict(&ov, &nv, d.better, d.bound);
            let gated = END_TO_END.iter().any(|e| e.name == d.name);
            let note = if gated { "" } else { " (not gated)" };
            let line = format!(
                "{:<20} {:<26} {:>12.6} [{:.6}, {:.6}] {:>12.6} [{:.6}, {:.6}]  {}{note}",
                w.name(),
                format!("{} ({})", d.name, d.better.as_str()),
                qo[1],
                qo[0],
                qo[2],
                qn[1],
                qn[0],
                qn[2],
                v.as_str()
            );
            lines.push((line, gated && v == Verdict::Worse));
        }
        let (ho, hn) = (heldout_run(old, w.name()), heldout_run(new, w.name()));
        if let (Some(ho), Some(hn)) = (ho, hn) {
            // One pair cannot carry a verdict; a claimed gain should
            // still read as one here.
            let value = |r: &Json, m: &str| r.get("metrics")?.get(m)?.as_f64();
            let cells: Vec<String> = END_TO_END
                .iter()
                .filter_map(|d| {
                    let (a, b) = (value(ho, d.name)?, value(hn, d.name)?);
                    let reads = if d.better.beats(b, a) {
                        "new better"
                    } else if d.better.beats(a, b) {
                        "new worse"
                    } else {
                        "equal"
                    };
                    Some(format!("{} {a:.6} -> {b:.6} ({reads})", d.name))
                })
                .collect();
            let seed = ho.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN);
            lines.push((
                format!(
                    "{:<20} {:<26} {}",
                    w.name(),
                    format!("held-out seed {seed}"),
                    cells.join("; ")
                ),
                false,
            ));
        }
        let fp = |r: &Json| {
            Some((
                r.get("seed")?.as_f64()? as u64,
                r.get("fingerprint")?.as_str()?.to_string(),
            ))
        };
        let old_fp: Vec<(u64, String)> = o.iter().chain(ho).filter_map(fp).collect();
        let differ: Vec<u64> = n
            .iter()
            .chain(hn)
            .filter_map(fp)
            .filter(|(s, f)| old_fp.iter().any(|(os, of)| os == s && of != f))
            .map(|(s, _)| s)
            .collect();
        let line = format!(
            "{:<20} {:<26} {}",
            w.name(),
            "outputs",
            if differ.is_empty() {
                "identical on every shared seed".to_string()
            } else {
                format!("OUTPUTS DIFFER on seeds {differ:?}")
            }
        );
        lines.push((line, !differ.is_empty()));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Outputs;

    fn doc(run_rel: &[f64], fingerprint: &str) -> Json {
        doc_with("run_rel", run_rel, fingerprint)
    }

    fn doc_with(metric: &str, values: &[f64], fingerprint: &str) -> Json {
        let runs = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                obj([
                    ("seed", Json::Num(i as f64)),
                    ("fingerprint", Json::str(fingerprint)),
                    ("metrics", obj([(metric, Json::Num(*v))])),
                ])
            })
            .collect();
        obj([(
            "workloads",
            Json::Arr(vec![obj([
                ("name", Json::str("service_mix_64")),
                ("runs", Json::Arr(runs)),
            ])]),
        )])
    }

    #[test]
    fn compare_reports_speedup_and_output_changes() {
        let old: Vec<f64> = (0..10).map(|i| 1.0 + 0.002 * i as f64).collect();
        let fast: Vec<f64> = old.iter().map(|v| v * 0.7).collect();
        let lines = compare_docs(&doc(&old, "aa"), &doc(&fast, "aa"));
        assert!(
            lines[0].0.contains("run_rel") && lines[0].0.ends_with("better"),
            "{lines:?}"
        );
        assert!(lines[1].0.contains("identical") && !lines[1].1);
        let lines = compare_docs(&doc(&old, "aa"), &doc(&old, "bb"));
        assert!(lines[0].0.ends_with("same") && !lines[0].1);
        assert!(lines[1].0.contains("OUTPUTS DIFFER") && lines[1].1);
        // A gated metric's regression fails; a reported one's does not.
        let slow: Vec<f64> = old.iter().map(|v| v * 1.5).collect();
        let lines = compare_docs(&doc(&old, "aa"), &doc(&slow, "aa"));
        assert!(lines[0].0.ends_with("WORSE") && lines[0].1);
        let lines = compare_docs(
            &doc_with("run_s", &old, "aa"),
            &doc_with("run_s", &slow, "aa"),
        );
        assert!(lines[0].0.ends_with("WORSE (not gated)") && !lines[0].1);
    }

    /// `doc(run_rel, "aa")` plus a held-out run on seed 1000.
    fn doc_with_heldout(run_rel: &[f64], held: f64, fingerprint: &str) -> Json {
        let mut d = doc(run_rel, "aa");
        if let Json::Obj(top) = &mut d {
            if let Json::Arr(ws) = &mut top[0].1 {
                if let Json::Obj(w) = &mut ws[0] {
                    w.push((
                        "heldout".into(),
                        obj([
                            ("seed", Json::Num(1000.0)),
                            ("fingerprint", Json::str(fingerprint)),
                            ("metrics", obj([("run_rel", Json::Num(held))])),
                        ]),
                    ));
                }
            }
        }
        d
    }

    #[test]
    fn compare_shows_the_heldout_pair_and_checks_its_outputs() {
        let old: Vec<f64> = (0..10).map(|i| 1.0 + 0.002 * i as f64).collect();
        let lines = compare_docs(
            &doc_with_heldout(&old, 1.0, "cc"),
            &doc_with_heldout(&old, 0.7, "cc"),
        );
        let held = lines
            .iter()
            .find(|(l, _)| l.contains("held-out seed 1000"))
            .expect("a held-out line");
        assert!(held.0.contains("run_rel 1.000000 -> 0.700000 (new better)") && !held.1);
        assert!(lines.iter().all(|(_, fails)| !fails), "{lines:?}");
        let lines = compare_docs(
            &doc_with_heldout(&old, 1.0, "cc"),
            &doc_with_heldout(&old, 1.0, "dd"),
        );
        assert!(lines
            .iter()
            .any(|(l, fails)| l.contains("OUTPUTS DIFFER on seeds [1000]") && *fails));
    }

    #[test]
    fn fingerprint_check_bites_on_a_perturbed_output() {
        let o = Outputs {
            events: 1_000,
            cells_sent: 500,
            flows_done: 3,
            flows_offered: 4,
            fct_p99_ps: 7_000_000,
            convergence_ps: Some(36_000_000),
            ..Outputs::default()
        };
        let mut p = o.clone();
        assert_eq!(p.fingerprint(), o.fingerprint());
        p.fct_p99_ps += 1;
        assert_ne!(p.fingerprint(), o.fingerprint());
        let mut q = o.clone();
        q.convergence_ps = None;
        assert_ne!(q.fingerprint(), o.fingerprint());
        assert!(check_outputs(Workload::ChurnReachSharded, &q)
            .iter()
            .any(|m| m.contains("convergence")));
        let mut lossy = o.clone();
        lossy.cells_dropped = 1;
        assert!(!check_outputs(Workload::ServiceMix64, &lossy).is_empty());
        assert!(check_outputs(Workload::ServiceMix64, &o).is_empty());
    }

    #[test]
    fn plan_defaults_to_ten_runs_of_the_benchmark_run_length() {
        let p = Plan::parse(&[]).expect("the defaults are valid");
        assert_eq!((p.runs, p.seconds, p.seed), (RUNS, RUN_SECONDS, 1));
        assert_eq!(p.seeds().collect::<Vec<_>>(), (1..=10).collect::<Vec<_>>());
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            Plan::parse(&args(&["--runs", "3", "--seed", "7"])).map(|p| (p.runs, p.seed)),
            Some((3, 7))
        );
        for bad in [
            ["--runs", "x"],
            ["--runs", "0"],
            ["--seconds", "-1"],
            ["--seconds", "inf"],
            ["--seed", "1.5"],
        ] {
            assert!(Plan::parse(&args(&bad)).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn p99_takes_the_sample_with_one_percent_above() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(p99(v), 198.0);
        assert_eq!(p99(vec![5]), 5.0);
    }
}
