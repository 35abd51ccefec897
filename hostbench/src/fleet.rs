//! `fleet_small`: the adaptive BF2+BF3 fleet driven by seeded open-loop
//! traces in virtual time, replayed through `run_fleet` as fast as the
//! host allows. One operation is one replay of a whole trace; every
//! replay of a trace must produce the same placement digest.

use crate::layers::Layers;
use crate::report::{latency_quantile, median, pct, Metric, Report, RssProbe};
use crate::serve::{self, Decisions, ServiceJob};
use crate::trace::{SpanId, Tracer, NONE};
use crate::Config;
use pedal::{wire, Datatype, Design};
use pedal_datasets::workload::{generate_arrivals, Arrival, OpenLoopConfig};
use pedal_datasets::Pcg32;
use pedal_dpu::{Algorithm, SimDuration};
use pedal_fleet::{
    fnv1a64, run_fleet, FleetConfig, FleetRun, LadderLevel, NodeSpec, PlacementAction, PolicyConfig,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Mean gap between arrivals in ns: fast enough that the within-epoch
/// backlog guard sheds best-effort traffic.
const MEAN_GAP_NS: u64 = 16_000;
/// Payload sizes: small, so per-job codec work stays a minor share of
/// host time next to scheduling, hand-offs, the probe and the epoch loop.
const PAYLOAD: (usize, usize) = (256, 4096);

/// Traces per run. Replays cycle through them, so a run's figures
/// average over several arrival draws of its seed rather than one.
const TRACES: usize = 8;

/// Virtual span of each trace and of the warm-up prefix.
fn spans(smoke: bool) -> (SimDuration, SimDuration) {
    if smoke {
        (SimDuration::from_micros(1_500), SimDuration::from_micros(300))
    } else {
        (SimDuration::from_millis(12), SimDuration::from_millis(2))
    }
}

/// BF2 + BF3, each with the fewest lanes that still run both lane kinds
/// (one SoC worker, one C-Engine channel), adaptive policy on.
fn fleet_config() -> FleetConfig {
    FleetConfig::new(vec![NodeSpec::bf2().with_lanes(1, 1), NodeSpec::bf3().with_lanes(1, 1)])
        .with_adaptive_policy(PolicyConfig::default())
}

/// Every tenant asks for C-Engine DEFLATE; the ladder and the policy
/// decide what actually runs.
fn requested(_: &Arrival) -> Design {
    Design::CE_DEFLATE
}

/// One timed replay of a trace; `None` when it panicked.
fn replay(cfg: &FleetConfig, trace: &[Arrival]) -> Option<FleetRun> {
    catch_unwind(AssertUnwindSafe(|| run_fleet(cfg, trace, requested))).ok()
}

pub fn run(cfg: &Config) -> Report {
    let (span, warm_span) = spans(cfg.smoke);
    let mut report = Report { checks_ok: true, ..Report::default() };
    let fleet_cfg = fleet_config();
    report.fact("nodes", "BF2 + BF3, each 1 SoC worker + 1 C-Engine channel");
    report.fact("threads", "1 generator thread; per node 1 scheduler + 2 lane threads");
    report.fact("load", "open loop in virtual time, mixed traces, replayed back to back");
    report.fact("virtual_span_ms", span.as_millis_f64());
    report.fact("traces", TRACES);

    let mut rng = Pcg32::seed_from_u64(cfg.seed ^ 0x464c_4545_5453_4d4c); // "FLEETSML"
    let gap = SimDuration::from_nanos(MEAN_GAP_NS);
    let traces: Vec<Vec<Arrival>> = (0..TRACES)
        .map(|_| {
            generate_arrivals(
                &OpenLoopConfig::mixed(rng.next_u64(), gap, span)
                    .with_payload(PAYLOAD.0, PAYLOAD.1),
            )
        })
        .collect();
    let bytes: Vec<u64> = traces.iter().map(|t| t.iter().map(|a| a.bytes as u64).sum()).collect();
    report.fact("arrivals", traces.iter().map(Vec::len).sum::<usize>());
    report.fact("arrival_bytes", bytes.iter().sum::<u64>());

    let warm = traces[0].iter().take_while(|a| a.at.0 < warm_span.as_nanos()).count();
    let mut setup_s = Vec::new();
    for _ in 0..crate::SETUP_SAMPLES {
        let start = Instant::now();
        let c = fleet_config();
        black_box(run_fleet(&c, &traces[0][..warm], requested));
        setup_s.push(start.elapsed().as_secs_f64());
    }

    // The measured phase. A traced run alternates untraced and traced
    // replays, so the tracing overhead compares replays made under the
    // same host conditions; end-to-end figures come from untraced ones.
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(cfg.trace);
    let (mut rep_s, mut tput, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Vec<Option<(FleetRun, String)>> = (0..TRACES).map(|_| None).collect();
    let mut first_traced: Option<(usize, FleetRun, SpanId)> = None;
    let probe = RssProbe::start();
    let start = Instant::now();
    while rep_s.len() < TRACES || start.elapsed().as_secs_f64() < cfg.seconds {
        let rep = rep_s.len();
        let (k, trace) = (rep % TRACES, &traces[rep % TRACES]);
        let jobs = trace.len() as u64;
        let (run, dur, _) =
            off.call("fleet.run_fleet", NONE, rep as u64, bytes[k], || replay(&fleet_cfg, trace));
        rep_s.push(dur.as_secs_f64());
        tput.push(bytes[k] as f64 / dur.as_secs_f64() / 1e6);
        let digest = first[k].as_ref().map(|(_, d)| d.clone());
        let run = account(&mut report, jobs, run, digest.as_deref());
        first[k] = first[k].take().or(run);
        if cfg.trace {
            let (run, dur, id) = tracer
                .call("fleet.run_fleet", NONE, rep as u64, bytes[k], || replay(&fleet_cfg, trace));
            traced_s.push(dur.as_secs_f64());
            let digest = first[k].as_ref().map(|(_, d)| d.clone());
            let run = account(&mut report, jobs, run, digest.as_deref());
            first_traced = first_traced.or(run.map(|(r, _)| (k, r, id)));
        }
    }
    let peak_mb = probe.peak_mb();
    let runs: Vec<(FleetRun, String)> = first.into_iter().flatten().collect();
    if runs.len() != TRACES {
        report.checks_ok = false;
        return report;
    }
    let digests: String = runs.iter().map(|(_, d)| d.as_str()).collect::<Vec<_>>().join(",");
    report.fact("placement_digest", format!("{:016x}", fnv1a64(digests.as_bytes())));
    report.fact("replays", rep_s.len());
    let (mut checked, mut paying_met, mut paying_jobs) = (0, 0, 0);
    let (mut done_in, mut done_out) = (0, 0);
    for ((run, _), trace) in runs.iter().zip(&traces) {
        let (c, wrong) = check_outputs(&fleet_cfg, trace, run);
        checked += c;
        report.failed += wrong;
        paying_met += run.paying.met_slo;
        paying_jobs +=
            run.paying.completed + run.paying.failed + run.paying.stored + run.paying.shed;
        let (i, o) = done_bytes(trace, run);
        done_in += i;
        done_out += o;
    }
    report.fact("outputs_checked", checked);

    let ops = rep_s.len() as u64;
    let m = &mut report.end_to_end;
    m.push(Metric { name: "throughput_MBps", value: median(&tput), unit: "MB/s", samples: ops });
    m.push(Metric {
        name: "op_p50_ms",
        value: latency_quantile(&rep_s, 0.5) * 1e3,
        unit: "ms",
        samples: ops,
    });
    m.push(Metric {
        name: "op_p90_ms",
        value: latency_quantile(&rep_s, 0.9) * 1e3,
        unit: "ms",
        samples: ops,
    });
    m.push(Metric {
        name: "host_s_per_virtual_s",
        value: median(&rep_s) / span.as_secs_f64(),
        unit: "s/s",
        samples: ops,
    });
    m.push(Metric {
        name: "slo_attainment_pct",
        value: pct(paying_met, paying_jobs),
        unit: "%",
        samples: paying_jobs,
    });
    m.push(Metric {
        name: "ratio",
        value: done_in as f64 / done_out.max(1) as f64,
        unit: "x",
        samples: checked,
    });
    m.push(Metric { name: "peak_rss_MB", value: peak_mb, unit: "MB", samples: 1 });
    m.push(Metric {
        name: "setup_s",
        value: median(&setup_s),
        unit: "s",
        samples: setup_s.len() as u64,
    });
    m.push(Metric {
        name: "ok_pct",
        value: 100.0 - pct(report.failed, report.attempted),
        unit: "%",
        samples: report.attempted,
    });

    if let Some((k, traced_run, span_id)) = first_traced {
        let overhead = 100.0 * (median(&traced_s) / median(&rep_s) - 1.0);
        let replayed = Replayed { trace: &traces[k], run: &traced_run, span: span_id };
        per_layer(&mut report, tracer, &fleet_cfg, replayed, &traced_s, overhead);
    }
    report
}

/// Count one replay's jobs. A replay that panicked, or whose digest
/// differs from the first replay's, fails all its jobs.
fn account(
    report: &mut Report,
    jobs: u64,
    run: Option<FleetRun>,
    first_digest: Option<&str>,
) -> Option<(FleetRun, String)> {
    report.attempted += jobs;
    let checked = run.map(|r| {
        let d = r.digest();
        (r, d)
    });
    match checked {
        Some((run, d)) if first_digest.is_none_or(|f| f == d) => {
            report.failed += run.paying.failed + run.best_effort.failed;
            Some((run, d))
        }
        _ => {
            report.failed += jobs;
            None
        }
    }
}

/// Per-layer metrics: replay what `run_fleet` did inside the first traced
/// replay as children of its span (the payload generation it does lazily,
/// and the submitted jobs through one service), and the probe on every
/// probed message.
/// The traced replay whose insides the per-layer replays explain.
struct Replayed<'a> {
    trace: &'a [Arrival],
    run: &'a FleetRun,
    span: SpanId,
}

fn per_layer(
    report: &mut Report,
    mut t: Tracer,
    fleet_cfg: &FleetConfig,
    replayed: Replayed,
    traced_s: &[f64],
    overhead_pct: f64,
) {
    let Replayed { trace, run, span: fleet_span } = replayed;
    let probed: BTreeMap<u64, Datatype> =
        run.policy_log.records.iter().map(|r| (r.seq, datatype_of(r))).collect();
    let mut jobs_data = Vec::new();
    for r in &run.log.records {
        let a = &trace[r.seq as usize];
        let calls = match r.action {
            PlacementAction::Submitted { .. } => 1 + usize::from(probed.contains_key(&r.seq)),
            PlacementAction::Stored { .. } => 1,
            PlacementAction::Shed { .. } => usize::from(probed.contains_key(&r.seq)),
        };
        for _ in 0..calls {
            t.replay("datasets.payload", fleet_span, r.seq, a.bytes as u64, || {
                black_box(a.payload())
            });
        }
        if let PlacementAction::Submitted { design, .. } = r.action {
            let datatype = probed.get(&r.seq).copied().unwrap_or(Datatype::Byte);
            jobs_data.push((r.seq, design, datatype, a.payload()));
        }
    }
    let jobs: Vec<ServiceJob> = jobs_data
        .iter()
        .map(|(seq, design, datatype, data)| ServiceJob {
            req: *seq,
            design: *design,
            datatype: *datatype,
            data,
        })
        .collect();
    let svc = serve::replay(&mut t, fleet_span, fleet_cfg.error_bound, &jobs);
    report.attempted += svc.jobs;
    report.failed += svc.mismatches;
    let mut decisions = Decisions::default();
    for r in &run.policy_log.records {
        serve::probe(&mut t, NONE, r.seq, &trace[r.seq as usize].payload());
        decisions.count(choice_of(r));
    }

    let payload_gen = t.total("datasets.payload");
    let rep_med = median(traced_s);
    let fleet_self_s = rep_med - svc.service.as_secs_f64() - payload_gen.dur_ns as f64 / 1e9;
    let arrivals = trace.len() as u64;
    let degraded = run.epochs.iter().filter(|e| e.level != LadderLevel::Engine).count() as u64;
    let mut l = Layers::new(&t);
    l.kernels();
    l.self_pct("zlib.self_pct", &["zlib.compress"]);
    l.self_us("pedal.self_us_per_op", &["pedal.compress"]);
    let (hits, misses) = svc.pool;
    l.push("pedal.pool_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, hits + misses);
    l.push("pedal.passthrough_ops", svc.passthrough as f64, svc.jobs);
    l.push("pedal.fallback_ops", svc.fallback as f64, svc.jobs);
    l.self_pct("stream.self_pct", &["stream.encode"]);
    l.push("stream.frames", 0.0, 0);
    l.push("stream.raw_frames", 0.0, 0);
    l.fragment_overhead();
    l.policy(decisions);
    l.service(&svc);
    l.fleet(
        100.0 * fleet_self_s / rep_med,
        run.epochs.len() as u64,
        run.total_shed(),
        run.stored.len() as u64,
        degraded,
        arrivals,
    );
    l.push("datasets.payload_gen_s", payload_gen.dur_ns as f64 / 1e9, payload_gen.count);
    l.push("trace.overhead_pct", overhead_pct, traced_s.len() as u64);
    report.per_layer = l.finish();
    report.notes.push(Metric { name: "fleet.self_s", value: fleet_self_s, unit: "s", samples: 1 });
    report.trace_json = Some(t.chrome_json(&report.facts));
}

/// The datatype the policy submitted a job with: typed pco for numeric
/// strides, bytes otherwise.
fn datatype_of(r: &pedal_fleet::PolicyRecord) -> Datatype {
    match (choice_of(r), r.stride) {
        (pedal_policy::PolicyChoice::Pco, 4) => Datatype::Float32,
        (pedal_policy::PolicyChoice::Pco, 8) => Datatype::Float64,
        _ => Datatype::Byte,
    }
}

fn choice_of(r: &pedal_fleet::PolicyRecord) -> pedal_policy::PolicyChoice {
    use pedal_policy::PolicyChoice;
    let design = Design::EXTENDED.iter().find(|d| d.name() == r.decision);
    match design.map(|d| d.algorithm) {
        None => PolicyChoice::StoreRaw,
        Some(Algorithm::Pco) => PolicyChoice::Pco,
        Some(Algorithm::Lz4) => PolicyChoice::Lz4,
        Some(_) => PolicyChoice::Deflate,
    }
}

/// Raw and wire bytes of every job that produced output (completed or
/// stored).
fn done_bytes(trace: &[Arrival], run: &FleetRun) -> (u64, u64) {
    let (mut raw, mut wire) = (0u64, 0u64);
    for c in &run.completions {
        if let (Ok(out), Some(seq)) = (&c.job.result, run.job_seq.get(&(c.node, c.job.id))) {
            raw += trace[*seq as usize].bytes as u64;
            wire += out.bytes.len() as u64;
        }
    }
    for s in &run.stored {
        raw += trace[s.seq as usize].bytes as u64;
        wire += s.payload.len() as u64;
    }
    (raw, wire)
}

/// Every completion must equal the synchronous `wire::compress_payload`
/// oracle for its placed design and datatype; every stored job must
/// decode back to its payload. Returns (checked, wrong).
fn check_outputs(cfg: &FleetConfig, trace: &[Arrival], run: &FleetRun) -> (u64, u64) {
    let mut design_of = BTreeMap::new();
    for r in &run.log.records {
        if let PlacementAction::Submitted { design, .. } = r.action {
            design_of.insert(r.seq, design);
        }
    }
    let datatype: BTreeMap<u64, Datatype> =
        run.policy_log.records.iter().map(|r| (r.seq, datatype_of(r))).collect();
    let (mut checked, mut wrong) = (0u64, 0u64);
    for c in &run.completions {
        // Failed jobs are already counted from the class statistics.
        let (Some(&seq), Ok(out)) = (run.job_seq.get(&(c.node, c.job.id)), &c.job.result) else {
            continue;
        };
        let a = &trace[seq as usize];
        let dt = datatype.get(&seq).copied().unwrap_or(Datatype::Byte);
        let oracle = wire::compress_payload(design_of[&seq], dt, cfg.error_bound, &a.payload());
        let ok = oracle.is_ok_and(|(expected, _)| out.bytes == expected);
        checked += 1;
        wrong += u64::from(!ok);
    }
    for s in &run.stored {
        let data = trace[s.seq as usize].payload();
        let ok = wire::decompress_payload(&s.payload, data.len()).is_ok_and(|(d, _)| d == data);
        checked += 1;
        wrong += u64::from(!ok);
    }
    (checked, wrong)
}
