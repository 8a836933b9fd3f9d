//! The trace-invariant suite over the declared fault scenarios: every one
//! runs with structured span tracing enabled, the invariant checker finds
//! nothing, and same-seed runs produce identical span logs. (The sim-bench
//! shapes are covered by `dcdo-workloads/tests/trace_invariants.rs`.)

use dcdo_scenario::{registry, run, run_with_spans, Scenario, ScenarioReport};
use dcdo_sim::{FlowKind, SpanKind, TraceLog};

fn declared(name: &str, seed: u64) -> Scenario {
    registry::load_declared(name)
        .expect("declared scenario exists")
        .with_seed(seed)
}

fn run_declared(name: &str, seed: u64) -> ScenarioReport {
    run(declared(name, seed)).expect("valid scenario")
}

#[test]
fn chaos_scenarios_traces_are_clean() {
    for report in [
        run_declared("crash_during_reconfig", 7),
        run_declared("rolling_partition", 11),
        run_declared("restart_storm", 13),
    ] {
        assert_eq!(
            report.trace_violations, 0,
            "{}: trace invariants violated",
            report.name
        );
        assert_ne!(report.span_digest, 0, "{}: no spans recorded", report.name);
    }
}

#[test]
fn chaos_span_digests_are_deterministic() {
    let a = run_declared("crash_during_reconfig", 7);
    let b = run_declared("crash_during_reconfig", 7);
    assert_eq!(
        a.span_digest, b.span_digest,
        "same seed must produce identical span logs"
    );
    let a = run_declared("rolling_partition", 11);
    let b = run_declared("rolling_partition", 11);
    assert_eq!(a.span_digest, b.span_digest);
}

#[test]
fn flow_query_walks_manager_flows_end_to_end() {
    // A full manager run: spans_for_flow on a completed create flow must
    // contain its start, steps, and completion.
    let (report, spans) =
        run_with_spans(declared("crash_during_reconfig", 7)).expect("valid scenario");
    assert_eq!(report.trace_violations, 0);
    let mut log = TraceLog::new();
    for ev in spans {
        log.push_event(ev);
    }
    let create = log
        .events()
        .iter()
        .find_map(|e| match e.kind {
            SpanKind::FlowStarted {
                flow,
                kind: FlowKind::Create,
                ..
            } => Some(flow),
            _ => None,
        })
        .expect("the episode creates its instance through a manager flow");
    let flow_spans = log.spans_for_flow(create);
    let has = |pred: fn(&SpanKind) -> bool| flow_spans.iter().any(|e| pred(&e.kind));
    assert!(has(|k| matches!(k, SpanKind::FlowStarted { .. })));
    assert!(has(|k| matches!(k, SpanKind::FlowStep { .. })));
    assert!(has(|k| matches!(k, SpanKind::FlowCompleted { .. })));
}

#[test]
fn trace_survives_long_fault_horizon() {
    // The restart storm is the heaviest span producer (crashes, timer
    // churn, dead letters): the digest must still be stable.
    let a = run_declared("restart_storm", 13);
    let b = run_declared("restart_storm", 13);
    assert_eq!(a.span_digest, b.span_digest);
    assert_eq!(a.trace_violations, 0);
}
