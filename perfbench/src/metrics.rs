//! Metric definitions and how each is computed from a run's repetitions.

use crate::stats::{median, Better};
use crate::workloads::{Outputs, Rep, Workload};

/// One end-to-end metric: name, unit, direction and the share of the
/// parent's median by which it may worsen. `BENCHMARK.json` lists the
/// same entries (a test keeps the two in step).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`, with
/// the bounds a change may not exceed. Set-up and run costs are gated
/// against the host-speed reference timed next to them (see
/// `reference.rs`): raw seconds drift by up to a half within minutes on a
/// shared host, which no bound can tell from a regression. `setup_s` is
/// set-up time corrected for that drift (raw seconds scaled by
/// `NOMINAL_S` over the reference), `run_rel` the run's time in units of
/// the reference.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Better::Lower, 0.25),
    def("run_rel", "x", Better::Lower, 0.25),
    def("peak_rss_mb", "MiB", Better::Lower, 0.25),
    def("flows_done_frac", "fraction", Better::Higher, 0.1),
];

/// Host metrics reported and compared like the end-to-end ones, but
/// not gated: raw host times follow the host's drift, and on the churn
/// workload the cells follow the seed's 160 heavy-tailed flows.
pub const REPORTED: &[MetricDef] = &[
    def("setup_raw_s", "s", Better::Lower, 0.25),
    def("run_s", "s", Better::Lower, 0.25),
    def("cells_per_s", "1/s", Better::Higher, 0.25),
    def("reference_s", "s", Better::Lower, 0.25),
    def("setup_reference_s", "s", Better::Lower, 0.25),
];

/// Simulated outcomes, reported next to the end-to-end metrics. They are
/// exact functions of the workload and seed (no host noise), but they
/// swing with the seed's draw of heavy-tailed flow sizes, so they are
/// compared by fingerprint, not by a bound. `None` where a workload has
/// no such outcome.
pub fn sim_outcomes(w: Workload, o: &Outputs) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let frac = |a: u64, b: u64| (b > 0).then(|| a as f64 / b as f64);
    let us = |ps: u64| ps as f64 / 1e6;
    vec![
        (
            "goodput_frac",
            "fraction",
            frac(o.bytes_delivered, o.bytes_offered),
        ),
        (
            "fct_p50_us",
            "us",
            (o.fct_samples > 0).then(|| us(o.fct_p50_ps)),
        ),
        (
            "fct_p99_us",
            "us",
            (o.fct_samples > 0).then(|| us(o.fct_p99_ps)),
        ),
        ("fct_samples", "count", Some(o.fct_samples as f64)),
        (
            "cell_loss_frac",
            "fraction",
            frac(o.cells_dropped + o.cells_corrupted, o.cells_sent),
        ),
        (
            "convergence_us",
            "us",
            match w {
                Workload::ChurnReachSharded => o.convergence_ps.map(us),
                _ => None,
            },
        ),
    ]
}

/// The host samples of one run's untraced repetitions.
#[derive(Default)]
pub struct Samples {
    pub reps: Vec<Rep>,
    /// The host-speed reference, timed right before each of `reps`.
    pub refs: Vec<f64>,
    /// Peak RSS of each repetition, MiB. The peak is reset before each
    /// one, so the reference's memory does not count.
    pub peaks: Vec<f64>,
    /// Every set-up sample, raw seconds.
    pub setups_raw: Vec<f64>,
    /// Per repetition, drift-corrected seconds: the median set-up of its
    /// slice (the set-up-only samples before it and its own set-up),
    /// scaled by `reference::NOMINAL_S` over the one-thread reference
    /// timed in the slice.
    pub setups: Vec<f64>,
    /// The one-thread reference `setups` are corrected by.
    pub setup_refs: Vec<f64>,
}

impl Samples {
    /// Every host sample series, by metric name.
    pub fn series(&self) -> Vec<(&'static str, Vec<f64>)> {
        let reps = &self.reps;
        vec![
            ("setup_s", self.setups.clone()),
            ("setup_raw_s", self.setups_raw.clone()),
            (
                "run_rel",
                reps.iter()
                    .zip(&self.refs)
                    .map(|(r, x)| r.run_s / x)
                    .collect(),
            ),
            ("run_s", reps.iter().map(|r| r.run_s).collect()),
            ("reference_s", self.refs.clone()),
            ("setup_reference_s", self.setup_refs.clone()),
            (
                "cells_per_s",
                reps.iter()
                    .map(|r| r.out.cells_sent as f64 / r.run_s)
                    .collect(),
            ),
            ("peak_rss_mb", self.peaks.clone()),
        ]
    }

    /// Every end-to-end value of the run (gated or reported), by name:
    /// host metrics as medians over the samples, the rest from the first
    /// repetition's outputs.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = self
            .series()
            .into_iter()
            .map(|(n, v)| (n, median(&v)))
            .collect();
        let o = &self.reps[0].out;
        out.push((
            "flows_done_frac",
            if o.flows_offered > 0 {
                o.flows_done as f64 / o.flows_offered as f64
            } else {
                f64::NAN
            },
        ));
        out
    }
}

/// Per-layer metrics of the traced run, in the order `BENCHMARK.json`
/// lists them, with their units.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("topo.build_s", "s", Better::Lower),
    ("fabric.new_s", "s", Better::Lower),
    ("fabric.attach_s", "s", Better::Lower),
    ("workload.admit_s", "s", Better::Lower),
    ("fabric.run_s", "s", Better::Lower),
    ("fabric.events", "count", Better::Lower),
    ("fabric.ns_per_event", "ns", Better::Lower),
    ("fabric.window_p99_ms", "ms", Better::Lower),
    ("fabric.cells_sent", "count", Better::Lower),
    ("fabric.credits_sent", "count", Better::Lower),
    ("fabric.cells_per_packet", "ratio", Better::Lower),
    ("fabric.fci_marks", "count", Better::Lower),
    ("fabric.fe_queue_p99_cells", "cells", Better::Lower),
    ("fabric.max_voq_bytes", "bytes", Better::Lower),
    ("reach.run_share", "fraction", Better::Lower),
    ("reach.event_share", "fraction", Better::Lower),
    ("shard.windows", "count", Better::Lower),
    ("shard.ns_per_window", "ns", Better::Lower),
    ("shard.merge_s", "s", Better::Lower),
    ("shard.extra_events", "count", Better::Lower),
    ("shard.overhead_x", "ratio", Better::Lower),
    ("stats.collect_s", "s", Better::Lower),
    ("trace.overhead_frac", "ratio", Better::Lower),
    ("trace.coverage", "fraction", Better::Higher),
    ("sim.event_ns", "ns", Better::Lower),
    ("fabric.voq_ns", "ns", Better::Lower),
    ("fabric.sched_ns", "ns", Better::Lower),
    ("fabric.pack_ns", "ns", Better::Lower),
    ("fabric.spray4_ns", "ns", Better::Lower),
    ("fabric.spray16_ns", "ns", Better::Lower),
    ("fabric.reach_ns", "ns", Better::Lower),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(REPORTED)
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .or_else(|| PER_LAYER.iter().find(|d| d.0 == name).map(|d| d.1))
        .or_else(|| {
            // Names and units do not depend on the outputs.
            sim_outcomes(Workload::ChurnReachSharded, &Outputs::default())
                .into_iter()
                .find(|d| d.0 == name)
                .map(|d| d.1)
        })
        .unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json, JsonExt};

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_matches_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
            .expect("BENCHMARK.json parses");
        let e2e = doc.get("end_to_end").expect("end_to_end").as_arr();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(d.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(d.bound));
        }
        let layers = doc.get("per_layer").expect("per_layer").as_arr();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, d) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(d.0));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.1));
            assert_eq!(j.get("better").and_then(Json::as_str), Some(d.2.as_str()));
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );
    }
}
