//! Tiny-input runs of every workload: every named metric is emitted, a
//! corrupted decode is counted as a failure, and BENCHMARK.json names the
//! metrics the benchmark prints.

use hostbench::closed::{messages, Sizing};
use hostbench::layers::PER_LAYER;
use hostbench::report::Report;
use hostbench::{Config, Fault, Workload, END_TO_END};
use pedal_obs::{parse_json, Json};

fn smoke(workload: Workload, trace: bool, fault: Fault) -> Report {
    hostbench::run(&Config { workload, seed: 5, seconds: 0.05, trace, smoke: true, fault })
}

fn names(metrics: &[hostbench::report::Metric]) -> Vec<(&str, &str)> {
    metrics.iter().map(|m| (m.name, m.unit)).collect()
}

fn result_metrics(report: &Report, traced: bool) -> Vec<String> {
    let json = parse_json(&report.result_line(traced)).expect("result line is JSON");
    let Some(Json::Obj(fields)) = json.get("metrics") else { panic!("no metrics object") };
    fields.iter().map(|(k, _)| k.clone()).collect()
}

fn fact<'a>(report: &'a Report, key: &str) -> &'a str {
    &report.facts.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no fact {key}")).1
}

#[test]
fn smoke_emits_every_named_metric_on_every_workload() {
    for w in Workload::ALL {
        let untraced = smoke(w, false, Fault::None);
        assert!(untraced.correct(), "{}: {}", w.name(), untraced.human(false));
        assert_eq!(names(&untraced.end_to_end), END_TO_END, "{}", w.name());
        let keys = result_metrics(&untraced, false);
        assert_eq!(keys, END_TO_END.map(|(n, _)| n), "{}", w.name());
        for m in &untraced.end_to_end {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
        }
        for key in ["nproc", "rustc", "git_commit", "seed", "threads"] {
            fact(&untraced, key);
        }

        let traced = smoke(w, true, Fault::None);
        assert!(traced.correct(), "{}: {}", w.name(), traced.human(true));
        assert_eq!(names(&traced.per_layer), PER_LAYER, "{}", w.name());
        assert_eq!(result_metrics(&traced, true), PER_LAYER.map(|(n, _)| n), "{}", w.name());
        let spans = parse_json(traced.trace_json.as_deref().expect("traced run keeps spans"))
            .expect("Chrome trace is JSON");
        let events = spans.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        assert!(events.len() > 2, "{}: no spans recorded", w.name());
    }
}

#[test]
fn fleet_digest_repeats_across_runs_and_tracing() {
    let a = smoke(Workload::FleetSmall, false, Fault::None);
    let b = smoke(Workload::FleetSmall, true, Fault::None);
    assert_eq!(fact(&a, "placement_digest"), fact(&b, "placement_digest"));
    assert!(b.correct());
}

#[test]
fn corrupted_decode_output_counts_as_failed() {
    for w in [Workload::P2pRoundtrip, Workload::BcastDecode] {
        let r = smoke(w, false, Fault::CorruptDecode);
        assert!(r.failed > 0 && !r.correct(), "{}: corruption went unnoticed", w.name());
        let ok = r.metric("ok_pct").expect("ok_pct").value;
        assert!(ok < 100.0, "{}: ok_pct {ok}", w.name());
        assert!(r.human(false).contains(&format!("failed={}", r.failed)));
    }
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let a = messages(9, Sizing::SMOKE);
    let b = messages(9, Sizing::SMOKE);
    let c = messages(10, Sizing::SMOKE);
    let bytes = |m: &[hostbench::closed::Message]| -> Vec<Vec<u8>> {
        m.iter().map(|m| m.data.clone()).collect()
    };
    assert_eq!(bytes(&a), bytes(&b));
    assert_ne!(bytes(&a), bytes(&c));
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = parse_json(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name()));
}
