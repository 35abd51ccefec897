//! The per-layer metrics, computed from a traced run's spans. Every
//! workload emits every name, in the order of [`PER_LAYER`]; a layer not
//! on a workload's path reads 0 with 0 samples.

use crate::report::{median, pct, Metric};
use crate::serve::{Decisions, Replay};
use crate::trace::Tracer;

/// Name and unit of each per-layer metric (BENCHMARK.json lists the
/// same names).
pub const PER_LAYER: [(&str, &str); 32] = [
    ("deflate.compress_MBps", "MB/s"),
    ("deflate.inflate_MBps", "MB/s"),
    ("zlib.self_pct", "%"),
    ("lz4.compress_MBps", "MB/s"),
    ("lz4.decompress_MBps", "MB/s"),
    ("sz3.compress_MBps", "MB/s"),
    ("sz3.decompress_MBps", "MB/s"),
    ("pco.compress_MBps", "MB/s"),
    ("pco.decompress_MBps", "MB/s"),
    ("pco.compress_us_per_op", "us"),
    ("pedal.self_us_per_op", "us"),
    ("pedal.pool_hit_ratio", "ratio"),
    ("pedal.passthrough_ops", "count"),
    ("pedal.fallback_ops", "count"),
    ("stream.self_pct", "%"),
    ("stream.frames", "count"),
    ("stream.raw_frames", "count"),
    ("par.fragment_overhead_pct", "%"),
    ("policy.probe_us_per_msg", "us"),
    ("policy.decided_store", "count"),
    ("policy.decided_deflate", "count"),
    ("policy.decided_lz4", "count"),
    ("policy.decided_pco", "count"),
    ("service.overhead_us_per_job", "us"),
    ("service.submit_us_p50", "us"),
    ("fleet.self_pct", "%"),
    ("fleet.epochs", "count"),
    ("fleet.shed_pct", "%"),
    ("fleet.stored_pct", "%"),
    ("fleet.degraded_epochs", "count"),
    ("datasets.payload_gen_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Builds the per-layer list from a tracer.
pub struct Layers<'a> {
    t: &'a Tracer,
    out: Vec<Metric>,
}

impl<'a> Layers<'a> {
    pub fn new(t: &'a Tracer) -> Self {
        Self { t, out: Vec::new() }
    }

    pub fn push(&mut self, name: &'static str, value: f64, samples: u64) {
        let (_, unit) =
            PER_LAYER.iter().find(|(n, _)| *n == name).expect("listed per-layer metric");
        self.out.push(Metric { name, value, unit, samples });
    }

    fn rate(&mut self, name: &'static str, span: &str) {
        let tot = self.t.total(span);
        self.push(name, tot.mbps(), tot.count);
    }

    /// Kernel rates from the kernel replay spans.
    pub fn kernels(&mut self) {
        self.rate("deflate.compress_MBps", "deflate.compress");
        self.rate("deflate.inflate_MBps", "deflate.inflate");
        self.rate("lz4.compress_MBps", "lz4.compress");
        self.rate("lz4.decompress_MBps", "lz4.decompress");
        self.rate("sz3.compress_MBps", "sz3.compress");
        self.rate("sz3.decompress_MBps", "sz3.decompress");
        self.rate("pco.compress_MBps", "pco.compress");
        self.rate("pco.decompress_MBps", "pco.decompress");
        let pco = self.t.total("pco.compress");
        self.push("pco.compress_us_per_op", pco.us_per_op(), pco.count);
    }

    /// Self time of `spans` as a share of their duration.
    pub fn self_pct(&mut self, name: &'static str, spans: &[&str]) {
        let own: i64 = spans.iter().map(|s| self.t.self_ns(s)).sum();
        let total: u64 = spans.iter().map(|s| self.t.total(s).dur_ns).sum();
        let count = spans.iter().map(|s| self.t.total(s).count).sum();
        let value = if total == 0 { 0.0 } else { 100.0 * own as f64 / total as f64 };
        self.push(name, value, count);
    }

    /// Median self time of `spans`, in microseconds. A median, because
    /// a large call's self time is a small difference of two noisy
    /// timings.
    pub fn self_us(&mut self, name: &'static str, spans: &[&str]) {
        let each: Vec<f64> =
            spans.iter().flat_map(|s| self.t.self_each_ns(s)).map(|ns| ns as f64 / 1e3).collect();
        self.push(name, median(&each), each.len() as u64);
    }

    /// Fragment DEFLATE's extra time over one-shot DEFLATE.
    pub fn fragment_overhead(&mut self) {
        let par = self.t.total("par.deflate");
        let one = self.t.total("deflate.oneshot");
        let value = if one.dur_ns == 0 {
            0.0
        } else {
            100.0 * (par.dur_ns as f64 / one.dur_ns as f64 - 1.0)
        };
        self.push("par.fragment_overhead_pct", value, par.count);
    }

    pub fn policy(&mut self, d: Decisions) {
        let probe = self.t.total("policy.probe");
        self.push("policy.probe_us_per_msg", probe.us_per_op(), probe.count);
        let n = d.store + d.deflate + d.lz4 + d.pco;
        self.push("policy.decided_store", d.store as f64, n);
        self.push("policy.decided_deflate", d.deflate as f64, n);
        self.push("policy.decided_lz4", d.lz4 as f64, n);
        self.push("policy.decided_pco", d.pco as f64, n);
    }

    pub fn service(&mut self, r: &Replay) {
        self.push("service.overhead_us_per_job", r.overhead_us_per_job(), r.jobs);
        self.push("service.submit_us_p50", r.submit_us_p50, r.jobs);
    }

    /// The fleet layer is not on a closed loop's path.
    pub fn fleet_absent(&mut self) {
        for name in [
            "fleet.self_pct",
            "fleet.epochs",
            "fleet.shed_pct",
            "fleet.stored_pct",
            "fleet.degraded_epochs",
        ] {
            self.push(name, 0.0, 0);
        }
    }

    pub fn fleet(
        &mut self,
        self_pct: f64,
        epochs: u64,
        shed: u64,
        stored: u64,
        degraded: u64,
        jobs: u64,
    ) {
        self.push("fleet.self_pct", self_pct, 1);
        self.push("fleet.epochs", epochs as f64, epochs);
        self.push("fleet.shed_pct", pct(shed, jobs), jobs);
        self.push("fleet.stored_pct", pct(stored, jobs), jobs);
        self.push("fleet.degraded_epochs", degraded as f64, epochs);
    }

    /// The metrics in [`PER_LAYER`] order; every name must be present.
    pub fn finish(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, _)| {
                self.out
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not computed"))
                    .clone()
            })
            .collect()
    }
}
