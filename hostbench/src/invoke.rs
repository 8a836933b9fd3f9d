//! `invoke`: remote `sort(list)` calls round-robin across a fleet of §3.2
//! sorting DCDOs, and the layer probes beneath them: the same sorts on a
//! bare DFM, and trivial remote and control calls.

use std::time::Instant;

use dcdo_core::ops::{QueryInterface, VersionConfigOp};
use dcdo_core::{DcdoObject, Dfm};
use dcdo_evolution::{Fleet, Strategy};
use dcdo_sim::{SimDuration, Simulation};
use dcdo_types::VersionId;
use dcdo_vm::{CallOrigin, NativeRegistry, RunOutcome, Value, ValueStore, VmThread};
use dcdo_workloads::service;
use legion_substrate::{ControlOp, Msg};

use crate::alloc::AllocCount;
use crate::closed_loop::{Checks, ClosedLoop};
use crate::stats::{self, Metrics, Rng};
use crate::tracer::Tracer;

/// Sorting DCDOs in the fleet.
pub const INSTANCES: usize = 15;
/// The simulator's own seed; the workload seed only shapes the inputs.
pub const SIM_SEED: u64 = 42;
/// Shortest and longest list sorted.
const LEN_MIN: usize = 8;
const LEN_MAX: usize = 40;
/// Each length appears this often in the input cycle.
const PER_LEN: usize = 4;

/// One sort input and the order the ascending `compare` gives it.
pub struct SortInput {
    pub arg: Value,
    pub ascending: Vec<i64>,
}

impl SortInput {
    pub fn new(list: Vec<i64>) -> Self {
        let mut ascending = list.clone();
        ascending.sort_unstable();
        SortInput {
            arg: Value::List(list.into_iter().map(Value::Int).collect()),
            ascending,
        }
    }

    /// Whether `v` is this input sorted ascending (or descending).
    pub fn matches(&self, v: &Value, descending: bool) -> bool {
        let Value::List(items) = v else { return false };
        let n = self.ascending.len();
        items.len() == n
            && items.iter().enumerate().all(|(i, got)| {
                let want = if descending { n - 1 - i } else { i };
                *got == Value::Int(self.ascending[want])
            })
    }
}

/// The input cycle: every length in `LEN_MIN..=LEN_MAX` `PER_LEN` times, in
/// a seed-shuffled order, filled with seed-random ints. Every seed sorts the
/// same multiset of lengths, so seeds differ in values and order only.
pub fn sort_inputs(seed: u64) -> Vec<SortInput> {
    let mut rng = Rng::new(seed);
    let mut lens: Vec<usize> = (LEN_MIN..=LEN_MAX)
        .flat_map(|l| std::iter::repeat_n(l, PER_LEN))
        .collect();
    rng.shuffle(&mut lens);
    lens.into_iter()
        .map(|l| SortInput::new(rng.ints(l)))
        .collect()
}

/// A single-version explicit fleet whose current version runs the sorting
/// component, with `INSTANCES` instances.
pub fn sorting_fleet(tracer: &mut Tracer) -> Fleet {
    let mut fleet = Fleet::new(Strategy::SingleVersionExplicit, SIM_SEED);
    let ico = tracer.span("fleet.publish", || {
        fleet.publish_component(&service::sorting_component(), 1)
    });
    let v1 = tracer.span("fleet.build_version", || {
        fleet.build_version(
            &VersionId::root(),
            vec![
                VersionConfigOp::IncorporateComponent { ico },
                VersionConfigOp::EnableFunction {
                    function: "compare".into(),
                    component: service::ids::SORTING,
                },
                VersionConfigOp::EnableFunction {
                    function: "sort".into(),
                    component: service::ids::SORTING,
                },
            ],
        )
    });
    tracer.span("fleet.set_current", || fleet.set_current(&v1));
    tracer.span("fleet.create_instances", || {
        fleet.create_instances(INSTANCES)
    });
    fleet
}

/// Dynamic calls resolved by every instance's DFM so far.
pub fn fleet_dyn_calls(fleet: &Fleet) -> u64 {
    fleet
        .instances
        .iter()
        .filter_map(|(_, actor)| fleet.bed.sim.actor::<DcdoObject>(*actor))
        .map(|d| d.dfm().dispatches())
        .sum()
}

/// Calls `sort` on instance `idx` and checks the reply's order.
pub fn remote_sort(
    fleet: &mut Fleet,
    idx: usize,
    input: &SortInput,
    descending: bool,
    tracer: &mut Tracer,
    checks: &mut Checks,
) {
    let (target, _) = fleet.instances[idx];
    let open = tracer.begin("legion.call_and_wait");
    let done = fleet
        .bed
        .call_and_wait(fleet.driver, target, "sort", vec![input.arg.clone()]);
    tracer.end(open);
    let ok = match &done.result {
        Ok(reply) => {
            matches!(reply, legion_substrate::ReplyPayload::Value(v) if input.matches(v, descending))
        }
        Err(_) => false,
    };
    checks.check(ok, || {
        format!("sort on instance {idx} returned {:?}", done.result)
    });
}

pub struct Invoke {
    inputs: Vec<SortInput>,
}

impl Invoke {
    pub fn new(seed: u64) -> Self {
        Invoke {
            inputs: sort_inputs(seed),
        }
    }
}

impl ClosedLoop for Invoke {
    type World = Fleet;

    fn setup(&mut self, tracer: &mut Tracer) -> Fleet {
        sorting_fleet(tracer)
    }

    fn op(&mut self, fleet: &mut Fleet, i: u64, tracer: &mut Tracer, checks: &mut Checks) {
        let input = &self.inputs[i as usize % self.inputs.len()];
        remote_sort(fleet, i as usize % INSTANCES, input, false, tracer, checks);
    }

    fn sim<'w>(&self, fleet: &'w Fleet) -> &'w Simulation<Msg> {
        &fleet.bed.sim
    }

    fn sim_mut<'w>(&self, fleet: &'w mut Fleet) -> &'w mut Simulation<Msg> {
        &mut fleet.bed.sim
    }

    fn dyn_calls(&self, fleet: &Fleet) -> u64 {
        fleet_dyn_calls(fleet)
    }

    fn ops_per_pass(&self) -> u64 {
        self.inputs.len() as u64
    }
}

/// Layer probes under `invoke`: the seed's sorts run directly on a bare
/// DFM (`VmThread::call` + `run`, no simulator, no RPC), and trivial remote
/// (`compare(3, 1)`) and control (`QueryInterface`) calls on a fresh fleet.
pub fn layer_probes(seed: u64, tracer: &mut Tracer, checks: &mut Checks) -> Metrics {
    let inputs = sort_inputs(seed);
    let band = (SimDuration::from_micros(10), SimDuration::from_micros(15));
    let mut dfm = Dfm::new("1.1".parse().expect("version literal"), band, SIM_SEED);
    let sorting = service::sorting_component();
    dfm.incorporate_component(&sorting, None)
        .expect("sorting component loads");
    for f in ["compare", "sort"] {
        dfm.enable_function(&f.into(), service::ids::SORTING)
            .expect("sorting functions enable");
    }
    let natives = NativeRegistry::standard();
    let mut globals = ValueStore::new();
    let sort = "sort".into();
    let mut direct_us = Vec::with_capacity(inputs.len() * 2);
    let (dispatches0, allocs0) = (dfm.dispatches(), AllocCount::now());
    let start = Instant::now();
    // Twice through the inputs: the first lap warms caches.
    for lap in 0..2 {
        for input in &inputs {
            let t = Instant::now();
            let open = tracer.begin("vm.direct_sort");
            let outcome = VmThread::call(
                &mut dfm,
                &sort,
                vec![input.arg.clone()],
                CallOrigin::External,
            )
            .map(|mut th| th.run(&mut dfm, &natives, &mut globals, u64::MAX));
            tracer.end(open);
            if lap == 1 {
                direct_us.push(stats::us(t.elapsed()));
            }
            let ok = matches!(&outcome, Ok(RunOutcome::Completed(v)) if input.matches(v, false));
            checks.check(ok, || format!("direct sort returned {outcome:?}"));
        }
    }
    let elapsed = start.elapsed();
    let allocs = AllocCount::since(allocs0);
    let dispatches = dfm.dispatches() - dispatches0;

    let mut m = Metrics::default();
    m.set("vm.sort_direct_us_p50", stats::median(&direct_us), "us");
    m.set(
        "vm.ns_per_dyn_call",
        elapsed.as_nanos() as f64 / dispatches as f64,
        "ns",
    );
    m.set(
        "vm.allocs_per_dyn_call",
        stats::ratio(allocs.allocs, dispatches),
        "count",
    );

    let mut off = Tracer::new(false);
    let mut fleet = sorting_fleet(&mut off);
    let mut call_us = Vec::new();
    let mut control_us = Vec::new();
    for i in 0..(INSTANCES * 20) {
        let (target, _) = fleet.instances[i % INSTANCES];
        let t = Instant::now();
        let open = tracer.begin("legion.call");
        let done = fleet.bed.call_and_wait(
            fleet.driver,
            target,
            "compare",
            vec![Value::Int(3), Value::Int(1)],
        );
        tracer.end(open);
        call_us.push(stats::us(t.elapsed()));
        let ok = matches!(
            &done.result,
            Ok(legion_substrate::ReplyPayload::Value(Value::Int(1)))
        );
        checks.check(ok, || format!("compare(3, 1) returned {:?}", done.result));

        let t = Instant::now();
        let open = tracer.begin("legion.control");
        let done = fleet
            .bed
            .control_and_wait(fleet.driver, target, ControlOp::new(QueryInterface));
        tracer.end(open);
        control_us.push(stats::us(t.elapsed()));
        checks.check(done.result.is_ok(), || {
            format!("QueryInterface returned {:?}", done.result)
        });
    }
    m.set("legion.call_us_p50", stats::median(&call_us), "us");
    m.set("legion.control_us_p50", stats::median(&control_us), "us");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_checks_order_and_length() {
        let input = SortInput::new(vec![3, 1, 2]);
        let list = |v: &[i64]| Value::List(v.iter().copied().map(Value::Int).collect());
        assert!(input.matches(&list(&[1, 2, 3]), false));
        assert!(input.matches(&list(&[3, 2, 1]), true));
        assert!(!input.matches(&list(&[3, 2, 1]), false));
        assert!(!input.matches(&list(&[1, 2]), false));
        assert!(!input.matches(&Value::Int(1), false));
    }

    #[test]
    fn every_seed_sorts_the_same_lengths() {
        let lens = |seed| {
            let mut l: Vec<usize> = sort_inputs(seed)
                .iter()
                .map(|i| i.ascending.len())
                .collect();
            l.sort_unstable();
            l
        };
        assert_eq!(lens(1), lens(2));
        assert_eq!(lens(1).len(), (LEN_MAX - LEN_MIN + 1) * PER_LEN);
    }
}
