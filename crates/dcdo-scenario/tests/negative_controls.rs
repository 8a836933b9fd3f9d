//! Negative controls: broken declarations are rejected with precise typed
//! errors, and broken *runs* fail with precise verdicts — never a panic.

use dcdo_chaos::{FaultPlan, PlanError};
use dcdo_scenario::{
    run, Calls, ChaosAttachment, ChatterRing, CounterBound, NetKind, NoLeakedEvents, RunCx,
    Scenario, ScenarioError, Topology, TraceInvariantsClean, Workload,
};
use dcdo_sim::{NodeId, SimDuration};

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

// ---------------------------------------------------------------------------
// Runtime negative controls: failures surface as verdicts, not panics.

/// Plants a leaked-flow span into an otherwise clean run after the window
/// closes, so the trace-invariant checker must flag it.
struct PlantViolation;

impl Workload for PlantViolation {
    fn name(&self) -> &str {
        "plant_violation"
    }

    fn measure(&mut self, cx: &mut RunCx) {
        let sim = cx.world.sim_mut().expect("built world");
        sim.spans_mut().emit(
            0,
            0,
            None,
            dcdo_sim::SpanKind::FlowStarted {
                flow: 999_999,
                object: 424_242,
                kind: dcdo_sim::FlowKind::Update,
            },
        );
    }
}

#[test]
fn planted_invariant_violation_fails_with_a_precise_verdict() {
    let scenario = Scenario::builder("planted")
        .seed(3)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(1))
        .workload(0, ChatterRing::new(4, secs(1)))
        .workload(0, PlantViolation)
        .expect(TraceInvariantsClean)
        .build();
    let report = run(scenario).expect("declaration itself is valid");
    assert!(!report.passed, "planted violation must fail the run");
    assert!(report.trace_violations > 0);
    let verdict = &report.verdicts[0];
    assert_eq!(verdict.expectation, "trace_invariants");
    assert!(!verdict.passed);
    assert!(
        verdict.detail.contains("violations"),
        "verdict names the problem: {}",
        verdict.detail
    );
}

#[test]
fn unmet_expectation_fails_with_a_precise_verdict() {
    let scenario = Scenario::builder("unmet")
        .seed(3)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(1))
        .workload(0, ChatterRing::new(4, secs(1)))
        .expect(CounterBound::at_least("nonexistent.counter", 5))
        .expect(NoLeakedEvents)
        .build();
    let report = run(scenario).expect("declaration itself is valid");
    assert!(!report.passed, "unmet expectation must fail the run");
    let unmet = &report.verdicts[0];
    assert!(!unmet.passed);
    assert_eq!(unmet.detail, "nonexistent.counter = 0 (>= 5)");
    // Other expectations still judge independently.
    assert!(report.verdicts[1].passed, "no_leaks still passes");
}

// ---------------------------------------------------------------------------
// Validation negative controls: typed errors before any state is built.

#[test]
fn zero_total_weight_is_rejected() {
    let scenario = Scenario::builder("zero")
        .seed(1)
        .topology(Topology::legion(4, NetKind::Centurion))
        .ticks(100)
        .workload(0, Calls::new())
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::ZeroTotalWeight {
            scenario: "zero".to_string()
        })
    );
}

#[test]
fn no_workloads_is_rejected() {
    let scenario = Scenario::builder("empty")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(1))
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::NoWorkloads {
            scenario: "empty".to_string()
        })
    );
}

#[test]
fn zero_nodes_is_rejected() {
    let scenario = Scenario::builder("hollow")
        .seed(1)
        .topology(Topology::bare(0, NetKind::Centurion))
        .timed(secs(1))
        .workload(0, ChatterRing::new(2, secs(1)))
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::NoNodes {
            scenario: "hollow".to_string()
        })
    );
}

#[test]
fn window_shorter_than_fault_plan_is_rejected() {
    let plan = FaultPlan::new().crash_at(secs(30), NodeId::from_raw(1));
    let scenario = Scenario::builder("short")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(2))
        .workload(0, ChatterRing::new(4, secs(2)))
        .workload(0, ChaosAttachment::new(NodeId::from_raw(0), plan))
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::WindowShorterThanFaultPlan {
            workload: "chaos".to_string(),
            window: secs(2),
            plan_end: secs(30),
        })
    );
}

#[test]
fn invalid_fault_plan_is_rejected_with_the_plan_error() {
    // Two overlapping crashes of the same node: FaultPlan::validate's own
    // typed error must surface through the scenario layer.
    let node = NodeId::from_raw(1);
    let plan = FaultPlan::new()
        .crash_at(secs(1), node)
        .crash_at(secs(2), node);
    let scenario = Scenario::builder("overlap")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(5))
        .workload(0, ChatterRing::new(4, secs(5)))
        .workload(0, ChaosAttachment::new(NodeId::from_raw(0), plan))
        .build();
    match scenario.validate() {
        Err(ScenarioError::InvalidFaultPlan { workload, error }) => {
            assert_eq!(workload, "chaos");
            assert!(matches!(error, PlanError::OverlappingCrash { .. }));
        }
        other => panic!("expected InvalidFaultPlan, got {other:?}"),
    }
}

#[test]
fn legion_workload_on_bare_topology_is_rejected() {
    let scenario = Scenario::builder("mismatch")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .ticks(10)
        .workload(1, Calls::new())
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::WorldMismatch {
            workload: "calls".to_string(),
            needs: "legion",
        })
    );
}

#[test]
fn episode_window_without_episode_topology_is_rejected() {
    let scenario = Scenario::builder("confused")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .episode()
        .workload(0, ChatterRing::new(4, secs(1)))
        .build();
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::EpisodeMismatch {
            scenario: "confused".to_string()
        })
    );
}

#[test]
fn oversized_ring_is_rejected_as_bad_param() {
    let scenario = Scenario::builder("toobig")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(1))
        .workload(0, ChatterRing::new(8, secs(1)))
        .build();
    match scenario.validate() {
        Err(ScenarioError::BadParam { context, msg }) => {
            assert_eq!(context, "workload chatter_ring");
            assert!(msg.contains("8 nodes"), "message names the sizes: {msg}");
        }
        other => panic!("expected BadParam, got {other:?}"),
    }
}

#[test]
fn unknown_names_are_rejected_by_the_loader() {
    let err = Scenario::from_text(
        "scenario x\ntopology bare nodes=4\nwindow secs=1\nworkload no_such_thing\n",
    )
    .expect_err("unknown workload");
    assert_eq!(
        err,
        ScenarioError::UnknownWorkload {
            name: "no_such_thing".to_string()
        }
    );

    let err = Scenario::from_text(
        "scenario x\ntopology bare nodes=4\nwindow secs=1\nworkload chatter_ring nodes=4 until=1\nexpect never_heard_of_it\n",
    )
    .expect_err("unknown expectation");
    assert_eq!(
        err,
        ScenarioError::UnknownExpectation {
            name: "never_heard_of_it".to_string()
        }
    );
}

#[test]
fn run_surfaces_validation_errors() {
    let scenario = Scenario::builder("empty")
        .seed(1)
        .topology(Topology::bare(4, NetKind::Centurion))
        .timed(secs(1))
        .build();
    assert!(matches!(
        run(scenario),
        Err(ScenarioError::NoWorkloads { .. })
    ));
}

#[test]
fn errors_display_precisely() {
    let err = ScenarioError::WindowShorterThanFaultPlan {
        workload: "chaos".to_string(),
        window: secs(2),
        plan_end: secs(30),
    };
    let msg = err.to_string();
    assert!(
        msg.contains("chaos") && msg.contains("30") && msg.contains("2"),
        "{msg}"
    );

    let msg = ScenarioError::UnknownWorkload {
        name: "ghost".to_string(),
    }
    .to_string();
    assert!(msg.contains("ghost"), "{msg}");
}

#[test]
fn window_shorter_than_rollout_schedule_is_rejected() {
    // The last wave fires at 0.9s and its proposal deadline + probe delay
    // push the schedule's end to 1.2s — past the 1s window.
    let text = "\
scenario short_rollout
seed 1
topology bare nodes=8 net=centurion
window secs=1
workload replica_group replicas=4 version=1 until=1
workload rolling_upgrade from=1 to=2 canary@0.1 wave@0.9=100
expect trace_invariants
";
    let scenario = Scenario::from_text(text).expect("parses and resolves");
    assert_eq!(
        scenario.validate(),
        Err(ScenarioError::WindowShorterThanSchedule {
            workload: "rolling_upgrade".to_string(),
            window: secs(1),
            schedule_end: SimDuration::from_millis(1200),
        })
    );
}

#[test]
fn empty_wave_plans_and_schedule_errors_display_precisely() {
    let err = ScenarioError::WindowShorterThanSchedule {
        workload: "rolling_upgrade".to_string(),
        window: secs(1),
        schedule_end: SimDuration::from_millis(1200),
    }
    .to_string();
    assert!(err.contains("schedule ends at 1.2s"), "got: {err}");
    let missing = Scenario::from_text(
        "\
scenario no_waves
seed 1
topology bare nodes=8 net=centurion
window secs=1
workload replica_group replicas=4 until=1
workload rolling_upgrade to=2
expect trace_invariants
",
    );
    assert!(
        matches!(
            missing,
            Err(ScenarioError::BadParam { ref context, .. }) if context.contains("rolling_upgrade")
        ),
        "got: {missing:?}"
    );
}

#[test]
fn overflowing_durations_are_rejected_not_wrapped() {
    // 2e10 s is 2e19 ns, past u64::MAX (~1.8e19): the conversion must
    // refuse it rather than overflow or wrap to a small window.
    assert_eq!(dcdo_scenario::parse_secs("2e10"), None);
    assert_eq!(dcdo_scenario::parse_secs("1e300"), None);
    assert_eq!(
        dcdo_scenario::parse_secs("18446744073.709"),
        Some(SimDuration::from_millis(18_446_744_073_709))
    );

    let err = Scenario::from_text(
        "scenario x\ntopology bare nodes=4\nwindow secs=2e10\nworkload chatter_ring nodes=4 until=1\n",
    )
    .expect_err("overflowing window");
    assert!(
        matches!(err, ScenarioError::Parse { line: 3, .. }),
        "window duration is a parse error on its line: {err}"
    );

    let err = Scenario::from_text(
        "scenario x\ntopology bare nodes=4\nwindow secs=1\nworkload chatter_ring nodes=4 until=1\nworkload chaos crash@2e10=1\n",
    )
    .expect_err("overflowing fault time");
    match err {
        ScenarioError::BadParam { context, msg } => {
            assert_eq!(context, "workload chaos");
            assert!(msg.contains("2e10"), "message names the token: {msg}");
        }
        other => panic!("expected BadParam, got {other:?}"),
    }
}

#[test]
fn topology_past_the_engine_node_limit_is_rejected() {
    let scenario = Scenario::from_text(
        "scenario huge\ntopology bare nodes=70000 net=centurion\nwindow secs=1\nworkload chatter_ring nodes=70000 until=1\n",
    )
    .expect("declaration parses");
    let expected = ScenarioError::TooManyNodes {
        scenario: "huge".to_string(),
        nodes: 70_000,
        limit: dcdo_sim::MAX_NODES,
    };
    let msg = expected.to_string();
    assert!(msg.contains("70000") && msg.contains("65535"), "{msg}");
    assert_eq!(scenario.validate(), Err(expected.clone()));
    assert_eq!(run(scenario).map(|r| r.passed), Err(expected));

    let at_limit = Scenario::builder("at_limit")
        .topology(Topology::bare(dcdo_sim::MAX_NODES, NetKind::Instant))
        .timed(secs(1))
        .workload(0, ChatterRing::new(2, secs(1)))
        .build();
    assert_eq!(at_limit.validate(), Ok(()));
}

#[test]
fn final_heal_past_the_ring_horizon_is_rejected_not_a_panic() {
    // The ring stops talking at until=2, so no chatter can resume after a
    // heal at 9s: measuring recovery would subtract 9s from 2s.
    for (until, final_heal) in [(2, 9), (12, 100)] {
        let scenario = Scenario::from_text(&format!(
            "scenario late_heal\ntopology bare nodes=8 net=centurion\nwindow secs={until}\n\
             workload chatter_ring nodes=8 until={until} final_heal={final_heal}\n"
        ))
        .expect("the declaration parses");
        match run(scenario) {
            Err(ScenarioError::BadParam { context, msg }) => {
                assert_eq!(context, "workload chatter_ring");
                assert!(msg.contains("final_heal"), "message names the key: {msg}");
            }
            other => panic!("expected BadParam, got {other:?}"),
        }
    }
}

#[test]
fn fault_plan_crashing_its_own_controller_is_rejected_not_a_panic() {
    let scenario = Scenario::from_text(
        "scenario self_crash\ntopology bare nodes=8 net=centurion\nwindow secs=10\n\
         workload chatter_ring nodes=8 until=10\n\
         workload chaos node=2 crash_for@1.3+0.5=1 crash_for@1.9+0.5=2\n",
    )
    .expect("the declaration parses");
    match run(scenario) {
        Err(ScenarioError::BadParam { context, msg }) => {
            assert_eq!(context, "workload chaos");
            assert!(
                msg.contains("controller node 2"),
                "message names the node: {msg}"
            );
        }
        other => panic!("expected BadParam, got {other:?}"),
    }
}

#[test]
fn replica_count_overflow_is_rejected_not_a_panic() {
    // The group needs replicas + 4 nodes (chaos, coordinator, client and
    // upgrade driver). At u32::MAX replicas that sum does not fit a u32:
    // validation must refuse it, not overflow (debug) or wrap to a tiny
    // node requirement (release). Parsed and validated only, never run.
    for name in ["rolling_upgrade", "rolling_upgrade_coord_crash"] {
        let text = dcdo_scenario::registry::declared_text(name)
            .expect("declared scenario")
            .replace("replicas=4", "replicas=4294967295");
        let scenario = Scenario::from_text(&text).expect("the declaration parses");
        match scenario.validate() {
            Err(ScenarioError::BadParam { context, msg }) => {
                assert_eq!(context, "workload replica_group");
                assert!(
                    msg.contains("4294967295 replicas need 4294967299 nodes"),
                    "message names the requirement: {msg}"
                );
            }
            other => panic!("{name}: expected BadParam, got {other:?}"),
        }
    }
}

#[test]
fn total_weight_overflow_is_rejected_not_a_panic() {
    // Tick windows draw from the summed workload weights; a sum past
    // u64::MAX must be refused, not overflow. Parsed and validated only.
    let text = dcdo_scenario::registry::declared_text("mixed_traffic")
        .expect("declared scenario")
        .replace("weight=5 ", "weight=18446744073709551615 ");
    let scenario = Scenario::from_text(&text).expect("the declaration parses");
    match scenario.validate() {
        Err(ScenarioError::BadParam { context, msg }) => {
            assert_eq!(context, "scenario \"mixed_traffic\"");
            assert!(msg.contains("overflows"), "{msg}");
        }
        other => panic!("expected BadParam, got {other:?}"),
    }
}
