//! `evolve`: evolution rounds on a fleet of sorting DCDOs. Each round
//! publishes a fresh `compare` component (alternating descending and
//! ascending), builds a version that incorporates and enables it and
//! removes the previous one, makes it current, updates every instance
//! explicitly, confirms each instance reports it, and sorts once per
//! instance in the new order.
//!
//! Retiring the previous component keeps every round the same size;
//! without it the DFMs would carry one more component per round and the
//! workload would measure accumulated history.

use dcdo_core::ops::{ImplementationReport, QueryImplementation, VersionConfigOp};
use dcdo_evolution::Fleet;
use dcdo_sim::Simulation;
use dcdo_types::ComponentId;
use dcdo_vm::{ComponentBinary, ComponentBuilder};
use legion_substrate::{ControlOp, Msg};

use crate::closed_loop::{Checks, ClosedLoop};
use crate::invoke::{self, SortInput, INSTANCES};
use crate::stats::{self, Metrics, Rng};
use crate::tracer::Tracer;

/// Rounds per pass, each pass on a fresh fleet. Even with the old
/// component retired, each round derives its version from the previous
/// one, so the version tree deepens and per-round host cost grows with the
/// round count; a fixed number of rounds per fleet keeps passes equal.
/// Short fleet lives also halved the run-to-run spread of the host times
/// against 64 rounds, in runs interleaved on one host.
const ROUNDS: u64 = 16;
/// Component ids of the published `compare`s start here.
const FIRST_COMPARE_ID: u64 = 10_000;

/// A `compare(int, int) -> int` returning the smaller (ascending) or the
/// larger (descending) argument, under component id `id`.
fn compare_component(id: u64, descending: bool) -> ComponentBinary {
    let native = if descending { "max" } else { "min" };
    ComponentBuilder::new(ComponentId::from_raw(id), format!("compare-{id}"))
        .exported("compare(int, int) -> int", |b| {
            b.load_arg(0).load_arg(1).call_native(native, 2).ret()
        })
        .expect("compare signature parses")
        .build()
        .expect("compare component is valid")
}

pub struct EvolveWorld {
    fleet: Fleet,
    /// The `compare` component the current version enables, if published
    /// by this workload.
    live: Option<ComponentId>,
}

pub struct Evolve {
    /// Short lists, one sorted per instance per round.
    inputs: Vec<SortInput>,
}

/// Length of the lists sorted after each round: every seed sorts lists of
/// this one length, so seeds differ in values only.
const CHECK_LEN: usize = 6;

impl Evolve {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let inputs = (0..ROUNDS as usize * INSTANCES)
            .map(|_| SortInput::new(rng.ints(CHECK_LEN)))
            .collect();
        Evolve { inputs }
    }
}

impl ClosedLoop for Evolve {
    type World = EvolveWorld;

    fn setup(&mut self, tracer: &mut Tracer) -> EvolveWorld {
        EvolveWorld {
            fleet: invoke::sorting_fleet(tracer),
            live: None,
        }
    }

    fn op(&mut self, w: &mut EvolveWorld, round: u64, tracer: &mut Tracer, checks: &mut Checks) {
        // The fleet starts ascending, so even rounds turn it descending.
        let descending = round.is_multiple_of(2);
        let id = FIRST_COMPARE_ID + round;
        let binary = compare_component(id, descending);
        let fleet = &mut w.fleet;
        let ico = tracer.span("evolution.publish", || fleet.publish_component(&binary, 2));

        let mut steps = vec![
            VersionConfigOp::IncorporateComponent { ico },
            VersionConfigOp::EnableFunction {
                function: "compare".into(),
                component: ComponentId::from_raw(id),
            },
        ];
        if let Some(old) = w.live {
            steps.push(VersionConfigOp::RemoveComponent { component: old });
        }
        let from = fleet.current_version().clone();
        let version = tracer.span("evolution.build_version", || {
            fleet.build_version(&from, steps)
        });
        tracer.span("evolution.set_current", || fleet.set_current(&version));
        let accepted = tracer.span("evolution.update_all", || fleet.update_all_explicitly());
        checks.check(accepted == INSTANCES, || {
            format!("round {round}: {accepted} of {INSTANCES} updates accepted")
        });
        w.live = Some(ComponentId::from_raw(id));

        let open = tracer.begin("evolution.verify");
        for idx in 0..fleet.instances.len() {
            let (object, _) = fleet.instances[idx];
            let done = fleet.bed.control_and_wait(
                fleet.driver,
                object,
                ControlOp::new(QueryImplementation),
            );
            let reported = done
                .result
                .as_ref()
                .ok()
                .and_then(|r| r.control_as::<ImplementationReport>())
                .map(|r| r.version.clone());
            checks.check(reported.as_ref() == Some(&version), || {
                format!("round {round}: instance {object} reports {reported:?}, want {version}")
            });
        }
        tracer.end(open);

        for idx in 0..INSTANCES {
            let input = &self.inputs[round as usize * INSTANCES + idx];
            invoke::remote_sort(fleet, idx, input, descending, tracer, checks);
        }
    }

    fn sim<'w>(&self, w: &'w EvolveWorld) -> &'w Simulation<Msg> {
        &w.fleet.bed.sim
    }

    fn sim_mut<'w>(&self, w: &'w mut EvolveWorld) -> &'w mut Simulation<Msg> {
        &mut w.fleet.bed.sim
    }

    fn dyn_calls(&self, w: &EvolveWorld) -> u64 {
        invoke::fleet_dyn_calls(&w.fleet)
    }

    fn ops_per_pass(&self) -> u64 {
        ROUNDS
    }
}

/// The evolution layers' timings, from the spans evolve rounds recorded in
/// `tracer`.
pub fn timings(tracer: &Tracer) -> Metrics {
    let med_us = |name: &str| stats::median(&tracer.durations_us(name));
    let mut m = Metrics::default();
    m.set("evolution.publish_us", med_us("evolution.publish"), "us");
    m.set(
        "evolution.build_version_us",
        med_us("evolution.build_version"),
        "us",
    );
    m.set(
        "evolution.set_current_us",
        med_us("evolution.set_current"),
        "us",
    );
    m.set(
        "evolution.update_us_per_instance",
        med_us("evolution.update_all") / INSTANCES as f64,
        "us",
    );
    m.set("evolution.verify_us", med_us("evolution.verify"), "us");
    m
}
