//! Golden-oracle parity: every declared scenario reproduces its literal
//! trace hash, span digest, flight digest and event count, and the fault
//! scenarios their literal recovery and amplification gauges.
//!
//! The composed scenarios (`rolling_partition`, `restart_storm`) are real
//! compositions — ring workload + fault-plan attachment over a bare
//! topology — so the pins fix the scenario runner's construction order
//! (trace on, spans on, ring, controller, run, drain). The episode
//! scenarios wrap the canonical workload functions and must also agree
//! with a direct run of them, which guards the wiring.

use dcdo_chaos::trace_hash;
use dcdo_scenario::{registry, run, Scenario};
use dcdo_workloads::{reconfig, simbench};

fn declared(name: &str) -> Scenario {
    registry::load_declared(name).expect("declared scenario exists")
}

/// One declared scenario's fixed oracle values at its declared seed.
struct Pin {
    name: &'static str,
    trace_hash: u64,
    span_digest: u64,
    flight_digest: u64,
    events_processed: u64,
}

/// Literal oracle values for every declared scenario. They were recorded
/// from `dcdo-inspect scenario all` and must never move: any change to
/// event order, span emission or flight-recorder contents shows up here
/// as a differing literal, independently of the hand-coded drivers.
const PINS: &[Pin] = &[
    Pin {
        name: "mixed_traffic",
        trace_hash: 0x97687be6a1494396,
        span_digest: 0x6ee60657563181a8,
        flight_digest: 0x7b08709876c59d54,
        events_processed: 1875,
    },
    Pin {
        name: "reconfig",
        trace_hash: 0x29fa196e3360438b,
        span_digest: 0xa548be305c9ba2da,
        flight_digest: 0xf83a6d21f8a990a0,
        events_processed: 93,
    },
    Pin {
        name: "crash_during_reconfig",
        trace_hash: 0x0f17e97b9d821bdf,
        span_digest: 0xd742f2dfbc9abd22,
        flight_digest: 0xc752d67d8fe0994c,
        events_processed: 146,
    },
    Pin {
        name: "rolling_partition",
        trace_hash: 0xfdaf5b5403d416ae,
        span_digest: 0x9cbe6dd0a44785ac,
        flight_digest: 0x0c13b226bf71d2df,
        events_processed: 1584,
    },
    Pin {
        name: "restart_storm",
        trace_hash: 0x7b18a8a92da4351a,
        span_digest: 0xf7adc191d0a5bcf0,
        flight_digest: 0xabb1f839fed9fc19,
        events_processed: 647,
    },
    Pin {
        name: "rolling_upgrade",
        trace_hash: 0x13fd7cec809667ec,
        span_digest: 0x31dccea7ee3ffe8e,
        flight_digest: 0xe329742dd5d993f1,
        events_processed: 3090,
    },
    Pin {
        name: "rolling_upgrade_coord_crash",
        trace_hash: 0xa670a023a5f2a1fd,
        span_digest: 0x799d35a89be21205,
        flight_digest: 0xe9dda8e1b2eab75e,
        events_processed: 3071,
    },
    Pin {
        name: "ping_pong",
        trace_hash: 0x9990adecabac00c9,
        span_digest: 0xab5fa64ab00e8bab,
        flight_digest: 0x931da280a3fccabb,
        events_processed: 401,
    },
    Pin {
        name: "fan_out",
        trace_hash: 0x65ec887181647a8b,
        span_digest: 0x1c51ef636564bb0c,
        flight_digest: 0xab7ec23acd3a80e5,
        events_processed: 321,
    },
    Pin {
        name: "transfer_heavy",
        trace_hash: 0xef5b6b871ab6b8c4,
        span_digest: 0xa56a7375c5ac120d,
        flight_digest: 0xda9d6338deeb08c9,
        events_processed: 49,
    },
];

#[test]
fn every_declared_scenario_matches_its_literal_pins() {
    let declared_names: Vec<&str> = registry::declared().iter().map(|(name, _)| *name).collect();
    let pinned_names: Vec<&str> = PINS.iter().map(|pin| pin.name).collect();
    assert_eq!(
        pinned_names, declared_names,
        "every declared scenario is pinned, in order"
    );
    for pin in PINS {
        let report = run(declared(pin.name)).expect("valid scenario");
        let got = (
            report.trace_hash,
            report.span_digest,
            report.flight_digest,
            report.events_processed,
        );
        let want = (
            pin.trace_hash,
            pin.span_digest,
            pin.flight_digest,
            pin.events_processed,
        );
        assert_eq!(
            got, want,
            "{}: (trace_hash, span_digest, flight_digest, events)",
            pin.name
        );
    }
}

/// The fault scenarios' recovery and amplification gauges at seed 42,
/// recorded from `dcdo-inspect scenario all`. Like the digests above, they
/// must never move.
const GAUGE_PINS: &[(&str, &str, f64)] = &[
    (
        "crash_during_reconfig",
        "reconfig.amplification",
        3.5294117647058822,
    ),
    ("crash_during_reconfig", "reconfig.recovery_s", 0.39553816),
    ("rolling_partition", "chatter.recovery_s", 0.160596035),
    ("rolling_partition", "net.amplification", 1.1155419222903886),
    ("restart_storm", "net.amplification", 1.0150375939849625),
];

#[test]
fn fault_scenarios_match_their_literal_gauge_pins() {
    for name in [
        "crash_during_reconfig",
        "rolling_partition",
        "restart_storm",
    ] {
        let report = run(declared(name)).expect("valid scenario");
        let pinned: Vec<(&str, f64)> = GAUGE_PINS
            .iter()
            .filter(|(scenario, _, _)| *scenario == name)
            .map(|&(_, key, value)| (key, value))
            .collect();
        let got: Vec<(&str, f64)> = report
            .gauges
            .iter()
            .map(|(key, value)| (key.as_str(), *value))
            .collect();
        assert_eq!(got, pinned, "{name}: gauges");
    }
}

#[test]
fn reconfig_matches_direct_run() {
    let mut direct = reconfig::reconfig_run(42, false);
    direct.bed.sim.run_until_idle();
    let report = run(declared("reconfig")).expect("valid scenario");
    assert_eq!(report.trace_hash, trace_hash(direct.bed.sim.trace()));
    assert_eq!(report.span_digest, direct.bed.sim.spans().digest());
    assert!(report.passed, "{}", report.render());
}

fn direct_simbench(
    build: impl FnOnce() -> (dcdo_sim::Simulation<legion_substrate::Msg>, u64),
) -> (u64, u64) {
    let (mut sim, budget) = build();
    sim.trace_mut().enable(1 << 18);
    sim.spans_mut().enable();
    sim.run_with_budget(budget);
    sim.run_until_idle();
    (trace_hash(sim.trace()), sim.spans().digest())
}

#[test]
fn ping_pong_matches_direct_run() {
    let (hash, digest) = direct_simbench(|| simbench::ping_pong_sim(200));
    let report = run(declared("ping_pong")).expect("valid scenario");
    assert_eq!(report.trace_hash, hash);
    assert_eq!(report.span_digest, digest);
    assert!(report.passed, "{}", report.render());
}

#[test]
fn fan_out_matches_direct_run() {
    let (hash, digest) = direct_simbench(|| simbench::fan_out_sim(20, 8, 16));
    let report = run(declared("fan_out")).expect("valid scenario");
    assert_eq!(report.trace_hash, hash);
    assert_eq!(report.span_digest, digest);
    assert!(report.passed, "{}", report.render());
}

#[test]
fn transfer_heavy_matches_direct_run() {
    let (hash, digest) = direct_simbench(|| simbench::transfer_heavy_sim(4, 6));
    let report = run(declared("transfer_heavy")).expect("valid scenario");
    assert_eq!(report.trace_hash, hash);
    assert_eq!(report.span_digest, digest);
    assert!(report.passed, "{}", report.render());
}

#[test]
fn every_declared_scenario_loads_validates_and_passes() {
    for (name, _text) in registry::declared() {
        let scenario = declared(name);
        scenario.validate().expect("declared scenario validates");
        let report = run(scenario).expect("valid scenario");
        assert!(
            report.passed,
            "declared scenario {name}:\n{}",
            report.render()
        );
        assert_eq!(report.leaked_events, 0, "{name} leaked events");
        assert_eq!(report.trace_violations, 0, "{name} violated invariants");
    }
}
