//! Literal pins of the DCDO Manager's lifecycle-flow shapes (§2.4).
//!
//! One traced run drives every flow kind — create, update, migrate,
//! checkpoint, deactivate, activate, recover (with and without a vault
//! snapshot) — plus an update aborted by `NodeFailed`. For each manager
//! flow it records the `FlowStarted` kind, the `FlowStep` codes in emit
//! order and the terminal span, and compares them with literals. The
//! codes are the wire-stable manager step codes: 0 capture, 1 deactivate,
//! 2 unregister, 3 spawn, 4 register, 5 apply, 6 restore, 7 save_vault,
//! 8 load_vault. A flow's opening step emits no `FlowStep` span, except
//! Update's opening apply.

use std::collections::HashMap;

use dcdo_core::ops::{
    ActivateDcdo, CheckpointDcdo, ConfigureVersion, CreateDcdo, DcdoCreated, DeactivateDcdo,
    DeriveVersion, DerivedVersion, MarkInstantiable, MigrateDcdo, NodeFailed, NodeRecovered,
    SetCurrentVersion, UpdateInstance, VersionConfigOp,
};
use dcdo_core::{DcdoManager, HostDirectory, Ico, UpdatePropagation, VersionPolicy};
use dcdo_sim::{FlowKind, SimDuration, SpanKind, TraceLog};
use dcdo_types::{ClassId, ComponentId, ObjectId, VersionId};
use dcdo_vm::{ComponentBinary, ComponentBuilder};
use legion_substrate::harness::Testbed;
use legion_substrate::{ControlOp, ReplyPayload};

/// How a flow's span sequence ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Completed,
    Aborted,
    Open,
}

/// `(kind, FlowStep codes, terminal)` of every manager flow, in
/// `FlowStarted` order. Object-local `Config` flows are left out.
fn flow_shapes(log: &TraceLog) -> Vec<(FlowKind, Vec<u32>, End)> {
    let mut order = Vec::new();
    let mut shapes: HashMap<u64, (FlowKind, Vec<u32>, End)> = HashMap::new();
    for event in log.events() {
        match event.kind {
            SpanKind::FlowStarted { flow, kind, .. } if kind != FlowKind::Config => {
                order.push(flow);
                shapes.insert(flow, (kind, Vec::new(), End::Open));
            }
            SpanKind::FlowStep { flow, step } => {
                if let Some(shape) = shapes.get_mut(&flow) {
                    shape.1.push(step);
                }
            }
            SpanKind::FlowCompleted { flow } => {
                if let Some(shape) = shapes.get_mut(&flow) {
                    shape.2 = End::Completed;
                }
            }
            SpanKind::FlowAborted { flow } => {
                if let Some(shape) = shapes.get_mut(&flow) {
                    shape.2 = End::Aborted;
                }
            }
            _ => {}
        }
    }
    order.iter().map(|flow| shapes[flow].clone()).collect()
}

/// A one-function component; `padding` bytes of static data make its
/// download slow enough to crash a host in the middle of it.
fn step_component(id: u64, value: i64, padding: u64) -> ComponentBinary {
    ComponentBuilder::new(ComponentId::from_raw(id), "step")
        .exported("step() -> int", |b| b.push_int(value).ret())
        .expect("step")
        .static_data_size(padding)
        .build()
        .expect("valid component")
}

struct Run {
    bed: Testbed,
    manager: ObjectId,
    client: dcdo_sim::ActorId,
}

impl Run {
    fn op(&mut self, op: ControlOp) -> ReplyPayload {
        self.bed
            .control_and_wait(self.client, self.manager, op)
            .result
            .expect("manager op succeeds")
    }

    /// Derives a child of `from` running `binary` (published on node 1)
    /// and marks it instantiable.
    fn version(&mut self, from: &VersionId, binary: &ComponentBinary) -> VersionId {
        let ico = self.bed.fresh_object_id();
        let actor = self.bed.sim.spawn(
            self.bed.nodes[1],
            Ico::new(ico, binary, self.bed.cost.clone()),
        );
        self.bed.register(ico, actor);
        let version = self
            .op(ControlOp::new(DeriveVersion { from: from.clone() }))
            .control_as::<DerivedVersion>()
            .expect("derived-version reply")
            .version
            .clone();
        for op in [
            VersionConfigOp::IncorporateComponent { ico },
            VersionConfigOp::EnableFunction {
                function: "step".into(),
                component: binary.id(),
            },
        ] {
            self.op(ControlOp::new(ConfigureVersion {
                version: version.clone(),
                op,
            }));
        }
        self.op(ControlOp::new(MarkInstantiable {
            version: version.clone(),
        }));
        version
    }

    fn create(&mut self, node: usize) -> ObjectId {
        let node = self.bed.nodes[node];
        self.op(ControlOp::new(CreateDcdo { node }))
            .control_as::<DcdoCreated>()
            .expect("dcdo-created")
            .object
    }
}

#[test]
fn every_lifecycle_flow_has_its_pinned_shape() {
    let mut bed = Testbed::centurion(41);
    bed.sim.spans_mut().enable();
    let hosts = HostDirectory::from_testbed(&bed);
    let manager = bed.fresh_object_id();
    let actor = bed.sim.spawn(
        bed.nodes[0],
        DcdoManager::new(
            manager,
            ClassId::from_raw(1),
            bed.cost.clone(),
            bed.agent,
            hosts,
            VersionPolicy::MultiGeneralEvolution,
            UpdatePropagation::Explicit,
        )
        .with_vault(bed.vault_object),
    );
    bed.register(manager, actor);
    let (_, client) = bed.spawn_client(bed.nodes[15]);
    let mut run = Run {
        bed,
        manager,
        client,
    };

    let v1 = run.version(&VersionId::root(), &step_component(1, 1, 0));
    run.op(ControlOp::new(SetCurrentVersion {
        version: v1.clone(),
    }));
    let v2 = run.version(&v1, &step_component(2, 2, 0));
    let v3 = run.version(&v2, &step_component(3, 3, 1_000_000));

    // `a` walks through every flow kind; `b` shares its first host and is
    // never checkpointed, so its recovery finds no snapshot.
    let a = run.create(4);
    let b = run.create(4);
    run.op(ControlOp::new(UpdateInstance {
        object: a,
        to: Some(v2.clone()),
    }));
    run.op(ControlOp::new(MigrateDcdo {
        object: a,
        to: run.bed.nodes[6],
    }));
    run.op(ControlOp::new(CheckpointDcdo { object: a }));
    run.op(ControlOp::new(DeactivateDcdo { object: a }));
    run.op(ControlOp::new(ActivateDcdo {
        object: a,
        node: Some(run.bed.nodes[4]),
    }));

    // Crash node 4 while `a` downloads v3's padded component.
    let node = run.bed.nodes[4];
    let update = run.bed.client_control(
        client,
        manager,
        ControlOp::new(UpdateInstance {
            object: a,
            to: Some(v3),
        }),
    );
    run.bed.run_for(SimDuration::from_secs(1));
    run.bed.sim.crash_node(node);
    run.op(ControlOp::new(NodeFailed { node }));
    let refused = run.bed.wait_for(client, update);
    assert!(refused.result.is_err(), "the aborted update is refused");

    run.bed.sim.restart_node(node);
    run.bed.revive_host(node);
    run.op(ControlOp::new(NodeRecovered { node }));
    run.bed.run_for(SimDuration::from_secs(30));
    assert_eq!(run.bed.sim.metrics().counter("manager.recoveries"), 2);
    assert_eq!(
        run.bed
            .sim
            .metrics()
            .counter("manager.recoveries_without_snapshot"),
        1
    );

    // Both recoveries start in object-id order.
    let (first, second) = if a < b {
        (vec![5, 8, 6, 4], vec![5, 8, 4])
    } else {
        (vec![5, 8, 4], vec![5, 8, 6, 4])
    };
    assert_eq!(
        flow_shapes(run.bed.sim.spans()),
        vec![
            (FlowKind::Create, vec![4, 5], End::Completed),
            (FlowKind::Create, vec![4, 5], End::Completed),
            (FlowKind::Update, vec![5], End::Completed),
            (FlowKind::Migrate, vec![1, 3, 5, 6, 4], End::Completed),
            (FlowKind::Checkpoint, vec![7], End::Completed),
            (FlowKind::Deactivate, vec![1, 2], End::Completed),
            (FlowKind::Activate, vec![5, 6, 4], End::Completed),
            (FlowKind::Update, vec![5], End::Aborted),
            (FlowKind::Recover, first, End::Completed),
            (FlowKind::Recover, second, End::Completed),
        ]
    );
}
