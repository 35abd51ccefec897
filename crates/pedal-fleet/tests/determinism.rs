//! Replay determinism and the differential oracle.
//!
//! The fleet's contract is twofold:
//!
//! 1. **Replay determinism** — the same seed + config produces
//!    byte-identical reports and placement logs. Verified at 2 distinct
//!    seeds × 2 node mixes (all-BF2, mixed BF2/BF3), which is exactly
//!    the acceptance matrix for this tier. Five runs also have their
//!    digests pinned to fixed values, so a change that moves every
//!    replay the same way still fails.
//! 2. **Byte identity** — routing through the fleet never changes a
//!    single output byte versus serving the same request on a lone
//!    [`PedalService`], or versus the synchronous [`pedal::wire`] path.

use pedal::{wire, Datatype, Design};
use pedal_datasets::workload::{generate_arrivals, OpenLoopConfig};
use pedal_dpu::SimDuration;
use pedal_fleet::{run_fleet, FleetConfig, NodeSpec, PlacementAction, PolicyConfig};
use pedal_service::{BackpressurePolicy, JobDesc, PedalService, ServiceConfig};

fn trace(seed: u64) -> Vec<pedal_datasets::workload::Arrival> {
    let cfg =
        OpenLoopConfig::poisson(seed, SimDuration::from_micros(80), SimDuration::from_millis(6))
            .with_payload(2 << 10, 8 << 10);
    generate_arrivals(&cfg)
}

fn all_bf2() -> FleetConfig {
    FleetConfig::new(vec![NodeSpec::bf2(), NodeSpec::bf2()])
}

fn mixed() -> FleetConfig {
    FleetConfig::new(vec![NodeSpec::bf2(), NodeSpec::bf3()])
}

/// Acceptance matrix: 2 seeds × 2 node mixes, each run twice, report
/// and placement log byte-identical between the runs.
#[test]
fn replay_is_byte_identical_across_seeds_and_mixes() {
    let mut digests = Vec::new();
    for seed in [11u64, 23u64] {
        for (mix_name, cfg) in [("all-bf2", all_bf2()), ("mixed", mixed())] {
            let arrivals = trace(seed);
            let a = run_fleet(&cfg, &arrivals, |_| Design::CE_DEFLATE);
            let b = run_fleet(&cfg, &arrivals, |_| Design::CE_DEFLATE);
            assert_eq!(
                a.report_string(),
                b.report_string(),
                "seed {seed} mix {mix_name}: report bytes diverged between replays"
            );
            assert_eq!(
                a.log.to_json_string(),
                b.log.to_json_string(),
                "seed {seed} mix {mix_name}: placement log diverged between replays"
            );
            assert_eq!(a.digest(), b.digest());
            // Outputs byte-identical too, job by job.
            let mut a_out: Vec<_> = a
                .completions
                .iter()
                .filter_map(|c| {
                    c.job.result.as_ref().ok().map(|o| (c.node, c.job.id, o.bytes.clone()))
                })
                .collect();
            let mut b_out: Vec<_> = b
                .completions
                .iter()
                .filter_map(|c| {
                    c.job.result.as_ref().ok().map(|o| (c.node, c.job.id, o.bytes.clone()))
                })
                .collect();
            a_out.sort();
            b_out.sort();
            assert_eq!(a_out, b_out, "seed {seed} mix {mix_name}: output bytes diverged");
            digests.push(a.digest());
        }
    }
    // Different seeds and mixes must actually produce different runs —
    // otherwise the determinism assertion above is vacuous.
    digests.sort();
    digests.dedup();
    assert_eq!(digests.len(), 4, "seed/mix matrix collapsed to identical runs");
}

/// Every fleet-routed job's output is byte-identical to (a) the
/// synchronous wire path and (b) a dedicated single-node service fed
/// the same submissions in the same order.
#[test]
fn fleet_outputs_match_single_service_and_wire_paths() {
    let cfg = mixed();
    let arrivals = trace(42);
    let run = run_fleet(&cfg, &arrivals, |a| {
        // Mix engine-friendly and SoC-only requests.
        if a.seq % 3 == 0 {
            Design::CE_LZ4
        } else {
            Design::CE_DEFLATE
        }
    });
    assert!(run.paying.completed + run.best_effort.completed > 0, "nothing completed");

    // Reconstruct per-node submission order from the placement log.
    let mut per_node: Vec<Vec<(u64, Design)>> = vec![Vec::new(); cfg.nodes.len()];
    for r in &run.log.records {
        if let PlacementAction::Submitted { node, design, .. } = r.action {
            per_node[node].push((r.seq, design));
        }
    }
    let by_seq: std::collections::BTreeMap<u64, &pedal_datasets::workload::Arrival> =
        arrivals.iter().map(|a| (a.seq, a)).collect();
    let mut fleet_bytes: std::collections::BTreeMap<u64, Vec<u8>> =
        std::collections::BTreeMap::new();
    for c in &run.completions {
        if let Ok(out) = &c.job.result {
            let seq = run.job_seq[&(c.node, c.job.id)];
            fleet_bytes.insert(seq, out.bytes.clone());
        }
    }

    let mut checked = 0usize;
    for (node_idx, submissions) in per_node.iter().enumerate() {
        if submissions.is_empty() {
            continue;
        }
        // (a) Wire oracle per job.
        for &(seq, design) in submissions {
            let data = by_seq[&seq].payload();
            let (expect, _) =
                wire::compress_payload(design, Datatype::Byte, cfg.error_bound, &data).unwrap();
            assert_eq!(
                fleet_bytes[&seq], expect,
                "seq {seq} on node {node_idx}: fleet bytes != wire bytes"
            );
            checked += 1;
        }
        // (b) Single-service oracle: same node spec, same submission
        // order, compare the k-th completion to the k-th fleet job.
        let spec = cfg.nodes[node_idx];
        let solo = PedalService::start(
            ServiceConfig::new(spec.platform)
                .with_queue_capacity(spec.queue_capacity)
                .with_policy(BackpressurePolicy::Block)
                .with_soc_workers(spec.soc_workers)
                .with_ce_channels(spec.ce_channels)
                .with_error_bound(cfg.error_bound),
        );
        let mut ids = Vec::new();
        for &(seq, design) in submissions {
            let data = by_seq[&seq].payload();
            ids.push((solo.submit(JobDesc::compress(design, Datatype::Byte, data)).unwrap(), seq));
        }
        let (jobs, _) = solo.shutdown();
        for (id, seq) in ids {
            let done = jobs.iter().find(|j| j.id == id).unwrap();
            let solo_bytes = &done.result.as_ref().unwrap().bytes;
            assert_eq!(
                &fleet_bytes[&seq], solo_bytes,
                "seq {seq}: fleet bytes != single-service bytes"
            );
        }
    }
    assert!(checked >= 20, "oracle only exercised {checked} jobs — trace too small");
}

/// With the adaptive policy enabled, decisions are replay-deterministic:
/// the same mixed-class trace produces byte-identical policy logs,
/// reports, and run digests — across two node mixes. This is the fleet
/// half of the policy's determinism contract (the snapshot is keyed by
/// epoch-barrier virtual instants, never wall time).
#[test]
fn adaptive_policy_replay_is_digest_identical_across_mixes() {
    let mixed_trace = || {
        let cfg =
            OpenLoopConfig::mixed(31, SimDuration::from_micros(90), SimDuration::from_millis(6))
                .with_payload(2 << 10, 24 << 10);
        generate_arrivals(&cfg)
    };
    let mut digests = Vec::new();
    for nodes in [vec![NodeSpec::bf2(), NodeSpec::bf2()], vec![NodeSpec::bf2(), NodeSpec::bf3()]] {
        let cfg = FleetConfig::new(nodes).with_adaptive_policy(PolicyConfig::default());
        let arrivals = mixed_trace();
        let a = run_fleet(&cfg, &arrivals, |_| Design::CE_DEFLATE);
        let b = run_fleet(&cfg, &arrivals, |_| Design::CE_DEFLATE);
        assert!(!a.policy_log.is_empty(), "policy enabled but no decisions logged");
        assert_eq!(
            a.policy_log.to_json_string(),
            b.policy_log.to_json_string(),
            "policy decisions diverged between replays"
        );
        assert_eq!(a.policy_log.digest(), b.policy_log.digest());
        assert_eq!(a.report_string(), b.report_string());
        assert_eq!(a.digest(), b.digest());
        // The mixed trace must actually exercise more than one decision
        // kind, or the digest compare is vacuous.
        assert!(a.policy_log.count_decision("store-raw") > 0, "no store-raw decisions");
        assert!(a.policy_log.count_decision("SoC_pco") > 0, "no pco decisions");
        digests.push(a.digest());
    }
    digests.dedup();
    assert_eq!(digests.len(), 2, "node mixes collapsed to identical runs");
}

/// The stored-uncompressed ladder rung is byte-checked too: framing is
/// the wire passthrough format and decodes back to the input.
#[test]
fn stored_rung_round_trips() {
    let mut cfg = FleetConfig::new(vec![NodeSpec::bf2()]);
    cfg.paying_tenants = 0;
    cfg.paying_slo = SimDuration::from_nanos(1);
    cfg.store_pct = 0;
    let arrivals = trace(7);
    let run = run_fleet(&cfg, &arrivals, |_| Design::CE_DEFLATE);
    assert!(!run.stored.is_empty(), "Store rung never engaged");
    let by_seq: std::collections::BTreeMap<u64, _> = arrivals.iter().map(|a| (a.seq, a)).collect();
    for s in &run.stored {
        let data = by_seq[&s.seq].payload();
        let (decoded, profile) = wire::decompress_payload(&s.payload, data.len()).unwrap();
        assert!(profile.passthrough);
        assert_eq!(decoded, data);
    }
}

/// Run digests pinned to fixed hex values, not only equal between two
/// replays: a change to how the fleet stages its per-arrival work
/// (payload generation, probing, routing) must leave every decision,
/// placement and output byte where it was. Each case is an edge of
/// that staging: the adaptive policy on a mixed trace, no policy at
/// all, a first arrival in a late epoch with empty epochs in between,
/// the ladder's Store rung, and a bucket tight enough to shed.
#[test]
fn run_digests_are_pinned() {
    let mixed_trace = |seed: u64| {
        let cfg =
            OpenLoopConfig::mixed(seed, SimDuration::from_micros(60), SimDuration::from_millis(6))
                .with_payload(256, 4 << 10);
        generate_arrivals(&cfg)
    };
    let adaptive = |nodes: Vec<NodeSpec>| {
        FleetConfig::new(nodes).with_adaptive_policy(PolicyConfig::default())
    };
    let mut got: Vec<(&str, String, &str)> = Vec::new();

    // Adaptive BF2+BF3 over a mixed trace.
    let cfg = adaptive(vec![NodeSpec::bf2(), NodeSpec::bf3()]);
    let run = run_fleet(&cfg, &mixed_trace(5), |_| Design::CE_DEFLATE);
    assert!(run.policy_log.count_decision("store-raw") > 0, "no store-raw decisions");
    assert!(run.policy_log.count_decision("SoC_pco") > 0, "no pco decisions");
    got.push(("adaptive_mixed", run.digest(), "425c005e87cda5de"));

    // No policy: every arrival is routed as requested.
    let run = run_fleet(&mixed(), &trace(11), |a| {
        if a.seq % 3 == 0 {
            Design::CE_LZ4
        } else {
            Design::CE_DEFLATE
        }
    });
    assert!(run.policy_log.is_empty());
    got.push(("policy_free", run.digest(), "faccff841d95e84e"));

    // First arrival five epochs in, and a five-epoch hole in the middle.
    let cfg = adaptive(vec![NodeSpec::bf2(), NodeSpec::bf3()]);
    let epoch = cfg.epoch.as_nanos();
    let mut late = mixed_trace(9);
    let half = late.len() / 2;
    for (i, a) in late.iter_mut().enumerate() {
        a.at.0 += if i < half { 5 * epoch } else { 10 * epoch };
    }
    let run = run_fleet(&cfg, &late, |_| Design::CE_DEFLATE);
    let first = run.epochs.iter().position(|e| e.arrivals > 0).unwrap();
    assert_eq!(first, 5, "the first arrival should land in epoch 5");
    assert!(
        run.epochs[first..].iter().any(|e| e.arrivals == 0),
        "no empty epoch between two busy ones"
    );
    got.push(("late_and_gapped", run.digest(), "4570559a00ed0513"));

    // The ladder's Store rung (as in `stored_rung_round_trips`).
    let mut cfg = adaptive(vec![NodeSpec::bf2()]);
    cfg.paying_tenants = 0;
    cfg.paying_slo = SimDuration::from_nanos(1);
    cfg.store_pct = 0;
    let run = run_fleet(&cfg, &mixed_trace(13), |_| Design::CE_DEFLATE);
    assert!(
        run.epochs.iter().any(|e| e.level == pedal_fleet::LadderLevel::Store && e.stored > 0),
        "Store rung never engaged"
    );
    got.push(("store_rung", run.digest(), "09bc96b365bbf717"));

    // A paying bucket so tight that a tenant's repeat arrivals shed at
    // the first gate (best-effort tenants are drawn from a space too
    // large to repeat within one trace).
    let mut cfg = adaptive(vec![NodeSpec::bf2(), NodeSpec::bf3()]);
    cfg.paying_bucket = pedal_fleet::BucketSpec::new(100, 1);
    let run = run_fleet(&cfg, &mixed_trace(17), |_| Design::CE_DEFLATE);
    let shed: u64 = run.epochs.iter().map(|e| e.shed_bucket).sum();
    assert!(shed > 0 && run.paying.shed == shed, "the bucket gate shed nothing");
    got.push(("tight_bucket", run.digest(), "9be2ccb3b7224156"));

    let wrong: Vec<String> = got
        .iter()
        .filter(|(_, have, want)| have != want)
        .map(|(name, have, want)| format!("{name}: {have} (pinned {want})"))
        .collect();
    assert!(wrong.is_empty(), "run digests moved:\n{}", wrong.join("\n"));
}
