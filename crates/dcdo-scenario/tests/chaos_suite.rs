//! The chaos suite: every declared fault scenario recovers, leaks nothing,
//! and — the subsystem's core guarantee — replays bit-identically under the
//! same seed (asserted via execution-trace hashes).
//!
//! Simulator counters the report does not carry (`sim.node_crashes`,
//! `sim.unreachable_drops`) are read from the verdict details of the
//! scenarios' own `expect metric_*` lines.

use dcdo_scenario::{registry, run, ScenarioReport};

fn run_declared(name: &str, seed: u64) -> ScenarioReport {
    let scenario = registry::load_declared(name)
        .expect("declared scenario exists")
        .with_seed(seed);
    let report = run(scenario).expect("valid scenario");
    assert!(report.passed, "{}", report.render());
    report
}

fn gauge(report: &ScenarioReport, key: &str) -> f64 {
    report
        .gauges
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("{}: no gauge {key}", report.name))
        .1
}

/// The simulator metric `key` as judged by one of the scenario's verdicts
/// (`"<key> = <value> (<op> <bound>)"`).
fn judged_metric(report: &ScenarioReport, key: &str) -> u64 {
    let prefix = format!("{key} = ");
    report
        .verdicts
        .iter()
        .find_map(|v| v.detail.strip_prefix(prefix.as_str()))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("{}: no verdict judges {key}", report.name))
}

#[test]
fn crash_during_reconfig_recovers_and_replays_identically() {
    let a = run_declared("crash_during_reconfig", 7);
    let b = run_declared("crash_during_reconfig", 7);
    assert_eq!(
        a.trace_hash, b.trace_hash,
        "same seed must replay bit-identically"
    );
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(judged_metric(&a, "sim.node_crashes"), 1);
    assert!(
        gauge(&a, "reconfig.recovery_s") > 0.0,
        "recovery takes simulated time"
    );
    let amplification = gauge(&a, "reconfig.amplification");
    assert!(
        amplification > 1.0,
        "failover and rebuild cost extra messages (got {amplification})"
    );
    assert_eq!(a.leaked_events, 0, "queue drains after the episode");
    assert_eq!(a.trace_violations, 0, "trace invariants hold under faults");
    assert_eq!(a.span_digest, b.span_digest, "span log replays identically");
}

#[test]
fn crash_during_reconfig_diverges_across_seeds() {
    let a = run_declared("crash_during_reconfig", 7);
    let b = run_declared("crash_during_reconfig", 8);
    assert_ne!(
        a.trace_hash, b.trace_hash,
        "different seeds should explore different schedules"
    );
}

#[test]
fn rolling_partition_drops_traffic_then_recovers() {
    let a = run_declared("rolling_partition", 11);
    let b = run_declared("rolling_partition", 11);
    assert_eq!(a.trace_hash, b.trace_hash);
    assert!(
        judged_metric(&a, "sim.unreachable_drops") > 0,
        "partitions must eat some cross-cut pings"
    );
    assert!(
        gauge(&a, "net.amplification") > 1.0,
        "offered exceeds delivered under partitions"
    );
    let recovery_s = gauge(&a, "chatter.recovery_s");
    assert!(
        recovery_s < 1.0,
        "chatter resumes within a ping period of the final heal (got {recovery_s}s)"
    );
    assert_eq!(a.leaked_events, 0);
    assert_eq!(a.trace_violations, 0, "trace invariants hold under faults");
    assert_eq!(a.span_digest, b.span_digest, "span log replays identically");
}

#[test]
fn restart_storm_cancels_dead_timers_and_leaks_nothing() {
    let a = run_declared("restart_storm", 13);
    let b = run_declared("restart_storm", 13);
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(
        judged_metric(&a, "sim.node_crashes"),
        12,
        "3 rounds x 4 nodes"
    );
    assert_eq!(
        a.leaked_events, 0,
        "dead nodes' timers are cancelled; the queue drains"
    );
    assert_eq!(a.trace_violations, 0, "trace invariants hold under faults");
    assert_eq!(a.span_digest, b.span_digest, "span log replays identically");
}
