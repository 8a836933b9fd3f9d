//! DCDO Managers (§2.4).
//!
//! A DCDO Manager maintains the implementation components and versions for
//! one object type and evolves the DCDOs under its control. Its two primary
//! data structures are:
//!
//! - the **DFM store**: versioned [`DfmDescriptor`]s, each *configurable*
//!   (editable, not instantiable) or *instantiable* (frozen, usable to
//!   create and evolve DCDOs) — the `<Manager, VersionId>` pair uniquely
//!   identifies an interface and implementation;
//! - the **DCDO table**: the version and implementation type of every
//!   instance.
//!
//! The manager implements the version-legality rules of §3.4–3.5
//! ([`VersionPolicy`]) and the push side of update propagation
//! ([`UpdatePropagation::Proactive`] evolves every instance when a new
//! current version is designated). The pull side (lazy checks) is served
//! through [`CheckVersion`].

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use dcdo_sim::{
    Actor, ActorId, Ctx, FlowKind as TraceFlowKind, LifecycleStep as Step, NodeId, SimTime,
    SpanKind,
};
use dcdo_types::{CallId, ClassId, ImplementationType, ObjectId, VersionId};
use legion_substrate::binding::{RegisterBinding, UnregisterBinding};
use legion_substrate::monolithic::{CaptureState, Deactivate, RestoreState, StateBlob};
use legion_substrate::vault::{LoadState, LoadedState, SaveState};
use legion_substrate::{
    Ack, AgentAddress, ControlOp, CostModel, Handled, InvocationFault, Msg, ReplyPayload,
    RpcClient, RpcCompletion,
};

use crate::descriptor::DfmDescriptor;
use crate::error::ConfigError;
use crate::hosts::HostDirectory;
use crate::object::DcdoObject;
use crate::ops::{
    ActivateDcdo, ApplyDfmDescriptor, CheckVersion, CheckpointDcdo, ConfigureVersion, CreateDcdo,
    DcdoCheckpointed, DcdoCreated, DcdoTable, DeactivateDcdo, DeriveVersion, DerivedVersion,
    GroupEpochReport, ListDcdos, ListVersions, MarkInstantiable, MigrateDcdo, MigrateDone,
    NodeFailed, NodeFailureReport, NodeRecovered, QueryVersionInfo, ReadComponentDescriptor,
    RecoveryStarted, ReportVersion, SetCurrentVersion, SetGroupEpoch, UpdateDone, UpdateInstance,
    VersionCheckReply, VersionConfigOp, VersionInfo, VersionTable,
};

/// Which evolutions between versions are legal (§3.4–3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionPolicy {
    /// Exactly one official version at a time; instances evolve only to it.
    SingleVersion,
    /// Instances never evolve; new versions apply only to new instances.
    MultiNoUpdate,
    /// Instances evolve only to versions derived from their current one
    /// (the version tree's descendants).
    MultiIncreasingVersion,
    /// Instances may evolve to any instantiable version.
    MultiGeneralEvolution,
    /// Any instantiable version, provided mandatory functions survive and
    /// permanent implementations are preserved (the hybrid of §3.5).
    MultiHybrid,
}

/// When the manager pushes updates to instances (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePropagation {
    /// Designating a new current version immediately updates all instances.
    Proactive,
    /// Updates happen only via explicit [`UpdateInstance`] calls (or lazy
    /// pulls from the DCDOs themselves).
    Explicit,
}

#[derive(Debug, Clone)]
struct VersionEntry {
    descriptor: DfmDescriptor,
    instantiable: bool,
}

#[derive(Debug, Clone)]
struct DcdoInfo {
    actor: ActorId,
    node: NodeId,
    version: VersionId,
    impl_type: ImplementationType,
    /// `Some(state)` while the instance is deactivated (state parked here).
    parked_state: Option<Bytes>,
    /// `true` while the instance's host is down ([`NodeFailed`]); the
    /// instance refuses reconfiguration until [`NodeRecovered`] rebuilds it.
    crashed: bool,
}

/// A lifecycle flow kind (§2.4). Each runs the fixed step plan
/// [`MgrKind::plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MgrKind {
    Create,
    Update,
    Migrate,
    Deactivate,
    Activate,
    Checkpoint,
    Recover,
}

impl MgrKind {
    /// The step table: the steps a flow of this kind runs, in order. Every
    /// step appears at most once per plan.
    const fn plan(self) -> &'static [Step] {
        use Step::*;
        match self {
            MgrKind::Create => &[Spawn, Register, Apply],
            MgrKind::Update => &[Apply],
            MgrKind::Migrate => &[Capture, Deactivate, Spawn, Apply, Restore, Register],
            MgrKind::Deactivate => &[Capture, Deactivate, Unregister],
            MgrKind::Activate => &[Spawn, Apply, Restore, Register],
            MgrKind::Checkpoint => &[Capture, SaveVault],
            MgrKind::Recover => &[Spawn, Apply, LoadVault, Restore, Register],
        }
    }

    /// The trace-level kind `FlowStarted` carries.
    const fn trace(self) -> TraceFlowKind {
        match self {
            MgrKind::Create => TraceFlowKind::Create,
            MgrKind::Update => TraceFlowKind::Update,
            MgrKind::Migrate => TraceFlowKind::Migrate,
            MgrKind::Deactivate => TraceFlowKind::Deactivate,
            MgrKind::Activate => TraceFlowKind::Activate,
            MgrKind::Checkpoint => TraceFlowKind::Checkpoint,
            MgrKind::Recover => TraceFlowKind::Recover,
        }
    }
}

/// The step after `step` in `kind`'s plan, or `None` when the flow is
/// done. The one exception to the table: a `LoadVault` that found no
/// snapshot skips the `Restore` after it.
fn next_step(kind: MgrKind, step: Step, had_snapshot: bool) -> Option<Step> {
    let plan = kind.plan();
    let at = plan.iter().position(|&s| s == step)?;
    let skip = usize::from(step == Step::LoadVault && !had_snapshot);
    plan.get(at + 1 + skip).copied()
}

/// A queued (serialized) update request: reply channel, explicit target,
/// and retry count.
type QueuedUpdate = (Option<(ActorId, CallId)>, Option<VersionId>, u32);

/// The manager's enrolment in epoch-based group reconfiguration
/// ([`SetGroupEpoch`]). While fenced, new evolution flows are refused.
struct GroupGate {
    group: u64,
    epoch: u64,
    fenced: bool,
    refused_while_fenced: u64,
}

/// A lifecycle flow in progress: where it is in its kind's plan, and what
/// its finished steps produced.
struct MgrFlow {
    kind: MgrKind,
    step: Step,
    reply: Option<(ActorId, CallId)>,
    object: ObjectId,
    version: VersionId,
    target_node: NodeId,
    /// Instance state: captured, parked (Activate) or loaded from the vault.
    state: Option<Bytes>,
    /// The process `Spawn` created.
    new_actor: Option<ActorId>,
    started: SimTime,
    /// Push attempts already burned (supervised internal updates retry).
    retries: u32,
}

impl MgrFlow {
    /// A flow of `kind` at the first step of its plan.
    fn new(
        kind: MgrKind,
        reply: Option<(ActorId, CallId)>,
        object: ObjectId,
        version: VersionId,
        target_node: NodeId,
    ) -> Self {
        MgrFlow {
            kind,
            step: kind.plan()[0],
            reply,
            object,
            version,
            target_node,
            state: None,
            new_actor: None,
            started: SimTime::ZERO,
            retries: 0,
        }
    }
}

/// What ended a flow's current step.
enum Outcome {
    /// The step's RPC completed.
    Reply(Result<ReplyPayload, InvocationFault>),
    /// The spawn timer fired.
    SpawnTimer,
}

/// Sends `result` to the caller, if there is one.
fn answer(
    ctx: &mut Ctx<'_, Msg>,
    reply: Option<(ActorId, CallId)>,
    result: Result<ControlOp, InvocationFault>,
) {
    if let Some((to, call)) = reply {
        ctx.send(to, Msg::ControlReply { call, result });
    }
}

/// Refuses the caller, if there is one.
fn refuse(ctx: &mut Ctx<'_, Msg>, reply: Option<(ActorId, CallId)>, why: String) {
    answer(ctx, reply, Err(InvocationFault::Refused(why)));
}

/// `Ack` on success; the error's text as a refusal otherwise.
fn ack_or_refuse(result: Result<(), ConfigError>) -> Result<ControlOp, InvocationFault> {
    result
        .map(|()| ControlOp::new(Ack))
        .map_err(|e| InvocationFault::Refused(e.to_string()))
}

/// The manager object for one DCDO type.
pub struct DcdoManager {
    object: ObjectId,
    class: ClassId,
    cost: CostModel,
    agent: AgentAddress,
    rpc: RpcClient,
    hosts: HostDirectory,
    store: BTreeMap<VersionId, VersionEntry>,
    branch_counters: HashMap<VersionId, u32>,
    current: VersionId,
    table: HashMap<ObjectId, DcdoInfo>,
    version_policy: VersionPolicy,
    propagation: UpdatePropagation,
    flows: HashMap<u64, MgrFlow>,
    rpc_routes: HashMap<u64, u64>,
    timer_routes: HashMap<u64, u64>,
    // Supervised update retries: timer token -> (object, target, attempt).
    retry_updates: HashMap<u64, (ObjectId, VersionId, u32)>,
    // Per-instance serialization of update flows: an instance has at most
    // one Apply in flight; later requests queue here. Without this, two
    // overlapping pushes can complete out of order and roll the instance
    // back to the older version.
    updates_in_flight: std::collections::HashSet<ObjectId>,
    queued_updates: HashMap<ObjectId, std::collections::VecDeque<QueuedUpdate>>,
    // The vault backing checkpoint/recovery flows, when configured.
    vault: Option<ObjectId>,
    // Updates interrupted by a host crash: object -> target version. Resumed
    // automatically once the instance is recovered.
    interrupted_updates: HashMap<ObjectId, VersionId>,
    // ConfigureVersion incorporations awaiting an ICO descriptor:
    // rpc call -> (reply_to, call, version, ico).
    pending_incorporations: HashMap<u64, (ActorId, CallId, VersionId, ObjectId)>,
    // Epoch-based group reconfiguration enrolment, if any (SetGroupEpoch).
    group_gate: Option<GroupGate>,
}

impl DcdoManager {
    /// Creates a manager whose DFM store starts with an empty, configurable
    /// root version `1`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        object: ObjectId,
        class: ClassId,
        cost: CostModel,
        agent: AgentAddress,
        hosts: HostDirectory,
        version_policy: VersionPolicy,
        propagation: UpdatePropagation,
    ) -> Self {
        let root = VersionId::root();
        let mut store = BTreeMap::new();
        store.insert(
            root.clone(),
            VersionEntry {
                descriptor: DfmDescriptor::new(root.clone()),
                instantiable: false,
            },
        );
        DcdoManager {
            object,
            class,
            rpc: RpcClient::new(agent, cost.clone()),
            cost,
            agent,
            hosts,
            store,
            branch_counters: HashMap::new(),
            current: root,
            table: HashMap::new(),
            version_policy,
            propagation,
            flows: HashMap::new(),
            rpc_routes: HashMap::new(),
            timer_routes: HashMap::new(),
            retry_updates: HashMap::new(),
            updates_in_flight: std::collections::HashSet::new(),
            queued_updates: HashMap::new(),
            vault: None,
            interrupted_updates: HashMap::new(),
            pending_incorporations: HashMap::new(),
            group_gate: None,
        }
    }

    /// Configures the vault backing [`CheckpointDcdo`] and crash-recovery
    /// ([`NodeRecovered`]) flows. Without a vault both are refused.
    pub fn with_vault(mut self, vault: ObjectId) -> Self {
        self.vault = Some(vault);
        self
    }

    /// The manager's object identity.
    pub fn object_id(&self) -> ObjectId {
        self.object
    }

    /// The class managed.
    pub fn class_id(&self) -> ClassId {
        self.class
    }

    /// The current (official) version.
    pub fn current_version(&self) -> &VersionId {
        &self.current
    }

    /// The version policy in force.
    pub fn version_policy(&self) -> VersionPolicy {
        self.version_policy
    }

    /// Number of DCDOs in the table.
    pub fn instance_count(&self) -> usize {
        self.table.len()
    }

    /// The DCDO table (driver-side inspection).
    pub fn instances(&self) -> Vec<(ObjectId, VersionId, ImplementationType)> {
        self.table
            .iter()
            .map(|(o, i)| (*o, i.version.clone(), i.impl_type))
            .collect()
    }

    /// The stored descriptor for a version (driver-side inspection).
    pub fn descriptor(&self, version: &VersionId) -> Option<&DfmDescriptor> {
        self.store.get(version).map(|e| &e.descriptor)
    }

    /// Whether a version is instantiable.
    pub fn is_instantiable(&self, version: &VersionId) -> bool {
        self.store.get(version).is_some_and(|e| e.instantiable)
    }

    /// Lifecycle flows still in progress.
    pub fn flows_in_flight(&self) -> usize {
        self.flows.len()
    }

    /// Instances currently marked crashed (driver-side inspection).
    pub fn crashed_instances(&self) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = self
            .table
            .iter()
            .filter(|(_, i)| i.crashed)
            .map(|(o, _)| *o)
            .collect();
        out.sort_unstable();
        out
    }

    /// Updates interrupted by a crash and awaiting resume (driver-side
    /// inspection).
    pub fn interrupted_update_count(&self) -> usize {
        self.interrupted_updates.len()
    }

    // ---- version store operations --------------------------------------

    fn derive_version(&mut self, from: &VersionId) -> Result<VersionId, ConfigError> {
        let parent = self
            .store
            .get(from)
            .ok_or_else(|| ConfigError::UnknownVersion(from.clone()))?;
        let branch = self.branch_counters.entry(from.clone()).or_insert(0);
        *branch += 1;
        let version = from.child(*branch);
        let descriptor = parent.descriptor.clone().with_version(version.clone());
        self.store.insert(
            version.clone(),
            VersionEntry {
                descriptor,
                instantiable: false,
            },
        );
        Ok(version)
    }

    fn configurable_mut(&mut self, version: &VersionId) -> Result<&mut DfmDescriptor, ConfigError> {
        let entry = self
            .store
            .get_mut(version)
            .ok_or_else(|| ConfigError::UnknownVersion(version.clone()))?;
        if entry.instantiable {
            return Err(ConfigError::VersionFrozen(version.clone()));
        }
        Ok(&mut entry.descriptor)
    }

    fn mark_instantiable(&mut self, version: &VersionId) -> Result<(), ConfigError> {
        let entry = self
            .store
            .get(version)
            .ok_or_else(|| ConfigError::UnknownVersion(version.clone()))?;
        if entry.instantiable {
            return Ok(());
        }
        entry.descriptor.validate()?;
        if let Some(parent) = version.parent().and_then(|p| self.store.get(&p)) {
            entry.descriptor.respects_inheritance(&parent.descriptor)?;
        }
        if let Some(entry) = self.store.get_mut(version) {
            entry.instantiable = true;
        }
        Ok(())
    }

    /// The version-policy check of §3.4–3.5.
    fn evolution_allowed(&self, from: &VersionId, to: &VersionId) -> Result<(), ConfigError> {
        let entry = self
            .store
            .get(to)
            .ok_or_else(|| ConfigError::UnknownVersion(to.clone()))?;
        if !entry.instantiable {
            return Err(ConfigError::VersionNotInstantiable(to.clone()));
        }
        let forbid = |rule: &str| {
            Err(ConfigError::PolicyForbids {
                from: from.clone(),
                to: to.clone(),
                rule: rule.to_owned(),
            })
        };
        match self.version_policy {
            VersionPolicy::SingleVersion => {
                if to != &self.current {
                    return forbid("single-version managers evolve only to the current version");
                }
            }
            VersionPolicy::MultiNoUpdate => {
                return forbid("no-update managers never evolve existing instances");
            }
            VersionPolicy::MultiIncreasingVersion => {
                if !to.is_derived_from(from) {
                    return forbid("increasing-version-number: target must derive from current");
                }
            }
            VersionPolicy::MultiGeneralEvolution => {}
            VersionPolicy::MultiHybrid => {
                if let Some(source) = self.store.get(from) {
                    entry.descriptor.respects_inheritance(&source.descriptor)?;
                }
            }
        }
        Ok(())
    }

    // ---- flows ----------------------------------------------------------

    /// Releases the per-instance update lock and starts the next queued
    /// update, if any.
    fn release_update_slot(&mut self, ctx: &mut Ctx<'_, Msg>, object: ObjectId) {
        self.updates_in_flight.remove(&object);
        let next = self
            .queued_updates
            .get_mut(&object)
            .and_then(std::collections::VecDeque::pop_front);
        if let Some((reply, to, retries)) = next {
            self.start_update(ctx, reply, object, to, retries);
        }
    }

    /// Emits a `FlowStep` span for a flow that just entered `step`.
    fn trace_step(ctx: &mut Ctx<'_, Msg>, flow_id: u64, step: Step) {
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::FlowStep {
                flow: flow_id,
                step: step.code(),
            });
        }
    }

    /// Acknowledges the caller, mints the flow id and opens `flow`.
    fn launch(&mut self, ctx: &mut Ctx<'_, Msg>, flow: MgrFlow) {
        if let Some((reply_to, call)) = flow.reply {
            ctx.send(reply_to, Msg::Progress { call });
        }
        let flow_id = ctx.fresh_u64();
        self.open_flow(ctx, flow_id, flow);
    }

    /// Emits `FlowStarted` and enters the first step of the flow's plan.
    /// An opening step emits no `FlowStep` span, except Update's `Apply`
    /// (the profiler's `init` cell is the gap before the first step span).
    fn open_flow(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64, mut flow: MgrFlow) {
        flow.started = ctx.now();
        let (kind, object) = (flow.kind, flow.object);
        self.flows.insert(flow_id, flow);
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::FlowStarted {
                flow: flow_id,
                object: object.as_raw(),
                kind: kind.trace(),
            });
        }
        if kind == MgrKind::Update {
            Self::trace_step(ctx, flow_id, Step::Apply);
        }
        self.enter(ctx, flow_id);
    }

    /// Issues the single effect of the step the flow is at: an RPC to the
    /// object, the binding agent or the vault, or the spawn timer.
    fn enter(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64) {
        let Some(flow) = self.flows.get(&flow_id) else {
            return;
        };
        let (step, object) = (flow.step, flow.object);
        let rpc = match step {
            Step::Spawn => {
                // DCDO process creation: base spawn cost only — the function
                // "linking" happens per component during incorporation.
                let token = ctx.fresh_u64();
                self.timer_routes.insert(token, flow_id);
                ctx.schedule_timer(self.cost.process_spawn_base, token);
                return;
            }
            Step::Capture => Some((object, ControlOp::new(CaptureState))),
            Step::Deactivate => Some((object, ControlOp::new(Deactivate))),
            Step::Unregister => Some((
                self.agent.object,
                ControlOp::new(UnregisterBinding { object }),
            )),
            Step::Register => flow.new_actor.map(|address| {
                (
                    self.agent.object,
                    ControlOp::new(RegisterBinding { object, address }),
                )
            }),
            Step::Apply => self.store.get(&flow.version).map(|entry| {
                let descriptor = entry.descriptor.clone();
                (object, ControlOp::new(ApplyDfmDescriptor { descriptor }))
            }),
            Step::Restore => flow
                .state
                .clone()
                .map(|bytes| (object, ControlOp::new(RestoreState { bytes }))),
            Step::SaveVault => self.vault.zip(flow.state.clone()).map(|(vault, bytes)| {
                let save = SaveState {
                    owner: object,
                    bytes,
                };
                (vault, ControlOp::new(save))
            }),
            Step::LoadVault => self
                .vault
                .map(|vault| (vault, ControlOp::new(LoadState { owner: object }))),
        };
        match rpc {
            Some((target, op)) => {
                let call = self.rpc.control(ctx, target, op);
                self.rpc_routes.insert(call.as_raw(), flow_id);
            }
            None => self.fail_flow(ctx, flow_id, format!("step {step:?} has no input")),
        }
    }

    /// The one transition point of every lifecycle flow: `outcome` ended
    /// the step the flow is at. Keeps what the step returned (captured
    /// state, loaded snapshot, spawned process), then enters the next step
    /// of the kind's plan, finishes the flow or fails it.
    fn advance(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64, outcome: Outcome) {
        let Some(flow) = self.flows.get_mut(&flow_id) else {
            return;
        };
        let (kind, step) = (flow.kind, flow.step);
        let kept = match outcome {
            Outcome::SpawnTimer if step != Step::Spawn => return,
            Outcome::SpawnTimer => match self.hosts.entry(flow.target_node) {
                Some(host) => {
                    let seed = ctx.rng().fork_seed();
                    let dcdo = DcdoObject::new(
                        flow.object,
                        self.object,
                        host.object,
                        host.arch,
                        // The DCDO starts empty at the root; ApplyDfmDescriptor
                        // brings it to the flow's version.
                        VersionId::root(),
                        self.cost.clone(),
                        RpcClient::new(self.agent, self.cost.clone()),
                        seed,
                    );
                    let actor = ctx.spawn(flow.target_node, Box::new(dcdo));
                    ctx.metrics().incr("manager.dcdos_created");
                    flow.new_actor = Some(actor);
                    // Address the new process directly until the binding is
                    // registered.
                    self.rpc.seed_binding(flow.object, actor);
                    Ok(())
                }
                None => Err(format!("unknown node {}", flow.target_node)),
            },
            Outcome::Reply(Err(fault)) => Err(format!("step {step:?} failed: {fault}")),
            Outcome::Reply(Ok(payload)) => Self::absorb(ctx, flow, &payload),
        };
        if let Err(why) = kept {
            self.fail_flow(ctx, flow_id, why);
            return;
        }
        match next_step(kind, step, flow.state.is_some()) {
            Some(next) => {
                flow.step = next;
                Self::trace_step(ctx, flow_id, next);
                self.enter(ctx, flow_id);
            }
            None => self.finish_flow(ctx, flow_id),
        }
    }

    /// Keeps what a finished RPC step returned: the captured state, or the
    /// vault snapshot (without one, a recovery restarts fresh).
    fn absorb(
        ctx: &mut Ctx<'_, Msg>,
        flow: &mut MgrFlow,
        payload: &ReplyPayload,
    ) -> Result<(), String> {
        match flow.step {
            Step::Spawn => Err(format!("unexpected reply in {:?}/Spawn", flow.kind)),
            Step::Capture => {
                let blob = payload.control_as::<StateBlob>();
                flow.state = Some(blob.ok_or("capture returned no state")?.bytes.clone());
                Ok(())
            }
            Step::LoadVault => {
                let loaded = payload.control_as::<LoadedState>();
                flow.state = loaded.and_then(|l| l.bytes.clone());
                if flow.state.is_none() {
                    ctx.metrics().incr("manager.recoveries_without_snapshot");
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn fail_flow(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64, why: String) {
        let Some(flow) = self.flows.remove(&flow_id) else {
            return;
        };
        ctx.metrics().incr("manager.flows_failed");
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::FlowAborted { flow: flow_id });
        }
        if flow.kind == MgrKind::Update {
            self.release_update_slot(ctx, flow.object);
        }
        // Supervised internal updates (proactive pushes) are retried: a
        // lost reply must not strand an instance behind the current
        // version.
        if flow.kind == MgrKind::Update && flow.reply.is_none() && flow.retries < 5 {
            ctx.metrics().incr("manager.update_retries");
            let token = ctx.fresh_u64();
            self.retry_updates
                .insert(token, (flow.object, flow.version, flow.retries + 1));
            ctx.schedule_timer(dcdo_sim::SimDuration::from_secs(1), token);
            return;
        }
        refuse(ctx, flow.reply, why);
    }

    /// Commits a flow whose plan ran to the end: updates the DCDO table,
    /// records its metrics and answers the caller.
    fn finish_flow(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64) {
        let Some(flow) = self.flows.remove(&flow_id) else {
            return;
        };
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::FlowCompleted { flow: flow_id });
        }
        let elapsed = ctx.now().duration_since(flow.started);
        let MgrFlow {
            kind,
            reply,
            object,
            version,
            target_node: node,
            state,
            new_actor,
            ..
        } = flow;
        let result = match (kind, new_actor) {
            (MgrKind::Create, Some(address)) => {
                let impl_type = self
                    .store
                    .get(&version)
                    .map(|e| e.descriptor.implementation_type())
                    .unwrap_or_default();
                self.table.insert(
                    object,
                    DcdoInfo {
                        actor: address,
                        node,
                        version: version.clone(),
                        impl_type,
                        parked_state: None,
                        crashed: false,
                    },
                );
                ctx.metrics()
                    .sample_duration("manager.create_time", elapsed);
                Ok(ControlOp::new(DcdoCreated {
                    object,
                    address,
                    version,
                }))
            }
            (MgrKind::Update, _) => {
                let impl_type = self
                    .store
                    .get(&version)
                    .map(|e| e.descriptor.implementation_type());
                if let Some(info) = self.table.get_mut(&object) {
                    info.version = version.clone();
                    if let Some(t) = impl_type {
                        info.impl_type = t;
                    }
                }
                self.release_update_slot(ctx, object);
                ctx.metrics().incr("manager.updates_done");
                ctx.metrics()
                    .sample_duration("manager.update_time", elapsed);
                Ok(ControlOp::new(UpdateDone { object, version }))
            }
            (MgrKind::Migrate, Some(address)) => {
                if let Some(info) = self.table.get_mut(&object) {
                    info.actor = address;
                    info.node = node;
                }
                ctx.metrics().incr("manager.migrations_done");
                ctx.metrics()
                    .sample_duration("manager.migrate_time", elapsed);
                Ok(ControlOp::new(MigrateDone {
                    object,
                    address,
                    version,
                }))
            }
            (MgrKind::Deactivate, _) => {
                if let Some(info) = self.table.get_mut(&object) {
                    info.parked_state = state;
                }
                ctx.metrics().incr("manager.deactivations");
                Ok(ControlOp::new(Ack))
            }
            (MgrKind::Activate, Some(address)) => {
                if let Some(info) = self.table.get_mut(&object) {
                    info.actor = address;
                    info.node = node;
                    info.parked_state = None;
                }
                ctx.metrics().incr("manager.activations");
                ctx.metrics()
                    .sample_duration("manager.activate_time", elapsed);
                Ok(ControlOp::new(DcdoCreated {
                    object,
                    address,
                    version,
                }))
            }
            (MgrKind::Checkpoint, _) => {
                ctx.metrics().incr("manager.checkpoints");
                ctx.metrics()
                    .sample_duration("manager.checkpoint_time", elapsed);
                Ok(ControlOp::new(DcdoCheckpointed { object, version }))
            }
            (MgrKind::Recover, Some(address)) => {
                if let Some(info) = self.table.get_mut(&object) {
                    info.actor = address;
                    info.node = node;
                    info.crashed = false;
                }
                ctx.metrics().incr("manager.recoveries");
                ctx.metrics()
                    .sample_duration("manager.recover_time", elapsed);
                // Resume the reconfiguration the crash interrupted, if any.
                if let Some(target) = self.interrupted_updates.remove(&object) {
                    self.start_update(ctx, None, object, Some(target), 0);
                }
                // Recoveries are internal: there is no caller to answer.
                return;
            }
            // Every plan that needs a process spawns one before it ends.
            (kind, None) => Err(InvocationFault::Refused(format!(
                "{kind:?} flow ended without a process"
            ))),
        };
        answer(ctx, reply, result);
    }

    fn start_create(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply_to: ActorId,
        call: CallId,
        node: NodeId,
    ) {
        let reply = Some((reply_to, call));
        let version = self.current.clone();
        match self.store.get(&version) {
            None => return refuse(ctx, reply, ConfigError::UnknownVersion(version).to_string()),
            Some(entry) if !entry.instantiable => {
                let why = ConfigError::VersionNotInstantiable(version).to_string();
                return refuse(ctx, reply, why);
            }
            Some(_) if !self.hosts.contains(node) => {
                return refuse(ctx, reply, format!("unknown node {node}"));
            }
            Some(_) => {}
        }
        ctx.send(reply_to, Msg::Progress { call });
        let flow_id = ctx.fresh_u64();
        let object = ObjectId::from_raw(ctx.fresh_u64());
        let flow = MgrFlow::new(MgrKind::Create, reply, object, version, node);
        self.open_flow(ctx, flow_id, flow);
    }

    /// Starts (or queues) an update of `object` to `to`, or to the current
    /// version. `retries` counts the push attempts already burned.
    fn start_update(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        object: ObjectId,
        to: Option<VersionId>,
        retries: u32,
    ) {
        if let Some(gate) = &mut self.group_gate {
            if gate.fenced {
                // An epoch round is in flight: refuse rather than queue, so
                // the caller can retry after the commit (queued work could
                // otherwise apply a pre-epoch target post-commit).
                gate.refused_while_fenced += 1;
                ctx.metrics().incr("manager.group_fence_refusals");
                let why = format!(
                    "group {} epoch {} is fencing evolution",
                    gate.group, gate.epoch
                );
                return refuse(ctx, reply, why);
            }
        }
        if self.updates_in_flight.contains(&object) {
            // Serialize: at most one Apply per instance at a time.
            if let Some((reply_to, call)) = reply {
                ctx.send(reply_to, Msg::Progress { call });
            }
            self.queued_updates
                .entry(object)
                .or_default()
                .push_back((reply, to, retries));
            return;
        }
        let target = to.unwrap_or_else(|| self.current.clone());
        let Some(info) = self.table.get(&object) else {
            return refuse(ctx, reply, format!("unknown instance {object}"));
        };
        if info.parked_state.is_some() {
            return refuse(ctx, reply, format!("instance {object} is deactivated"));
        }
        if info.crashed {
            // Internal pushes are remembered and resumed after recovery so
            // the instance does not stay stranded behind the current version.
            if reply.is_none() {
                self.interrupted_updates.insert(object, target.clone());
            }
            return refuse(ctx, reply, format!("instance {object} host crashed"));
        }
        if info.version == target {
            // Already there: answer immediately.
            let done = UpdateDone {
                object,
                version: target,
            };
            return answer(ctx, reply, Ok(ControlOp::new(done)));
        }
        if let Err(e) = self.evolution_allowed(&info.version, &target) {
            ctx.metrics().incr("manager.updates_refused");
            return refuse(ctx, reply, e.to_string());
        }
        let flow = MgrFlow {
            retries,
            ..MgrFlow::new(MgrKind::Update, reply, object, target, info.node)
        };
        self.updates_in_flight.insert(object);
        self.launch(ctx, flow);
    }

    /// Migrates a DCDO to another node: capture state, deactivate the old
    /// process, create a new process there, re-apply the instance's version
    /// (component fetches hit the *new* host's cache), restore state, and
    /// re-register the binding. Clients holding the old address pay the
    /// stale-binding discovery — migration, unlike evolution, does move the
    /// physical address.
    fn start_migrate(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        object: ObjectId,
        to: NodeId,
    ) {
        let Some(info) = self.table.get(&object) else {
            return refuse(ctx, reply, format!("unknown instance {object}"));
        };
        if !self.hosts.contains(to) {
            return refuse(ctx, reply, format!("unknown node {to}"));
        }
        let flow = MgrFlow::new(MgrKind::Migrate, reply, object, info.version.clone(), to);
        self.launch(ctx, flow);
    }

    fn start_deactivate(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        object: ObjectId,
    ) {
        let Some(info) = self.table.get(&object) else {
            return refuse(ctx, reply, format!("unknown instance {object}"));
        };
        if info.parked_state.is_some() {
            let why = format!("instance {object} is already deactivated");
            return refuse(ctx, reply, why);
        }
        let (version, node) = (info.version.clone(), info.node);
        self.launch(
            ctx,
            MgrFlow::new(MgrKind::Deactivate, reply, object, version, node),
        );
    }

    fn start_activate(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        object: ObjectId,
        node: Option<NodeId>,
    ) {
        let Some(info) = self.table.get(&object) else {
            return refuse(ctx, reply, format!("unknown instance {object}"));
        };
        let Some(state) = info.parked_state.clone() else {
            return refuse(ctx, reply, format!("instance {object} is not deactivated"));
        };
        let target_node = node.unwrap_or(info.node);
        if !self.hosts.contains(target_node) {
            return refuse(ctx, reply, format!("unknown node {target_node}"));
        }
        let version = info.version.clone();
        let flow = MgrFlow {
            state: Some(state),
            ..MgrFlow::new(MgrKind::Activate, reply, object, version, target_node)
        };
        self.launch(ctx, flow);
    }

    /// Checkpoint: capture the running instance's state and persist it in
    /// the vault, without disturbing the process. The snapshot is what
    /// [`NodeRecovered`] rebuilds from after a crash.
    fn start_checkpoint(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        object: ObjectId,
    ) {
        if self.vault.is_none() {
            return refuse(ctx, reply, "manager has no vault configured".into());
        }
        let Some(info) = self.table.get(&object) else {
            return refuse(ctx, reply, format!("unknown instance {object}"));
        };
        if info.parked_state.is_some() {
            return refuse(ctx, reply, format!("instance {object} is deactivated"));
        }
        if info.crashed {
            return refuse(ctx, reply, format!("instance {object} host crashed"));
        }
        let (version, node) = (info.version.clone(), info.node);
        self.launch(
            ctx,
            MgrFlow::new(MgrKind::Checkpoint, reply, object, version, node),
        );
    }

    /// A host crashed: mark resident instances crashed and abort every
    /// in-flight flow touching the host. Interrupted internal updates are
    /// remembered for resume; explicit callers get a `Refused` reply now
    /// rather than a dangling `Progress`.
    fn handle_node_failed(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        node: NodeId,
    ) {
        let mut crashed: Vec<ObjectId> = Vec::new();
        for (object, info) in self.table.iter_mut() {
            if info.node == node && info.parked_state.is_none() && !info.crashed {
                info.crashed = true;
                crashed.push(*object);
            }
        }
        crashed.sort_unstable();
        let mut doomed: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| f.target_node == node || crashed.contains(&f.object))
            .map(|(id, _)| *id)
            .collect();
        doomed.sort_unstable();
        let mut aborted: Vec<ObjectId> = Vec::new();
        for flow_id in doomed {
            let Some(flow) = self.flows.remove(&flow_id) else {
                continue;
            };
            ctx.metrics().incr("manager.flows_aborted");
            if ctx.tracing_enabled() {
                ctx.emit_span(SpanKind::FlowAborted { flow: flow_id });
            }
            aborted.push(flow.object);
            if flow.kind == MgrKind::Update {
                self.updates_in_flight.remove(&flow.object);
                if flow.reply.is_none() {
                    self.interrupted_updates
                        .insert(flow.object, flow.version.clone());
                }
            }
            let why = format!("node {node} failed mid-{:?}", flow.kind);
            refuse(ctx, flow.reply, why);
        }
        // Queued updates behind an aborted flow cannot run while the
        // instance is down: refuse explicit ones, remember internal ones.
        for object in &crashed {
            for (reply, to, _) in self.queued_updates.remove(object).unwrap_or_default() {
                if reply.is_some() {
                    let why = format!("node {node} failed before queued update ran");
                    refuse(ctx, reply, why);
                } else {
                    let target = to.unwrap_or_else(|| self.current.clone());
                    self.interrupted_updates.insert(*object, target);
                }
            }
        }
        aborted.sort_unstable();
        aborted.dedup();
        ctx.metrics()
            .add("manager.instances_crashed", crashed.len() as u64);
        let report = NodeFailureReport { crashed, aborted };
        answer(ctx, Some((from, call)), Ok(ControlOp::new(report)));
    }

    /// A crashed host is back: rebuild every crashed instance that lived
    /// there from its vault snapshot (fresh process at the instance's
    /// version, state restored, binding re-registered).
    fn handle_node_recovered(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        node: NodeId,
    ) {
        let reply = Some((from, call));
        if self.vault.is_none() {
            return refuse(ctx, reply, "manager has no vault configured".into());
        }
        let mut crashed: Vec<(ObjectId, VersionId)> = self
            .table
            .iter()
            .filter(|(_, i)| i.node == node && i.crashed)
            .map(|(o, i)| (*o, i.version.clone()))
            .collect();
        crashed.sort_unstable_by_key(|(o, _)| *o);
        let objects = crashed.iter().map(|(o, _)| *o).collect();
        for (object, version) in crashed {
            ctx.metrics().incr("manager.recoveries_started");
            let flow = MgrFlow::new(MgrKind::Recover, None, object, version, node);
            self.launch(ctx, flow);
        }
        answer(ctx, reply, Ok(ControlOp::new(RecoveryStarted { objects })));
    }

    fn handle_rpc_completion(&mut self, ctx: &mut Ctx<'_, Msg>, completion: RpcCompletion) {
        // ConfigureVersion incorporations.
        if let Some((reply_to, call, version, ico)) = self
            .pending_incorporations
            .remove(&completion.call.as_raw())
        {
            let result = completion
                .result
                .map_err(|f| ConfigError::BadComponent(format!("descriptor read failed: {f}")))
                .and_then(|payload| {
                    let reply = payload
                        .control_as::<crate::ops::ComponentDescriptorReply>()
                        .ok_or_else(|| ConfigError::BadComponent("bad descriptor reply".into()))?
                        .descriptor
                        .clone();
                    self.configurable_mut(&version)?
                        .incorporate_component(&reply, Some(ico))
                });
            answer(ctx, Some((reply_to, call)), ack_or_refuse(result));
            return;
        }
        if let Some(flow_id) = self.rpc_routes.remove(&completion.call.as_raw()) {
            self.advance(ctx, flow_id, Outcome::Reply(completion.result));
        }
    }

    fn handle_configure(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        cfg: &ConfigureVersion,
    ) {
        // Incorporation needs an ICO round trip; everything else is local.
        if let VersionConfigOp::IncorporateComponent { ico } = cfg.op {
            // Check the version is configurable before paying the roundtrip.
            if let Err(e) = self.configurable_mut(&cfg.version) {
                return refuse(ctx, Some((from, call)), e.to_string());
            }
            let rpc_call = self
                .rpc
                .control(ctx, ico, ControlOp::new(ReadComponentDescriptor));
            self.pending_incorporations
                .insert(rpc_call.as_raw(), (from, call, cfg.version.clone(), ico));
            return;
        }
        let result = self
            .configurable_mut(&cfg.version)
            .and_then(|d| match &cfg.op {
                VersionConfigOp::IncorporateComponent { .. } => unreachable!("handled above"),
                VersionConfigOp::RemoveComponent { component } => d.remove_component(*component),
                VersionConfigOp::EnableFunction {
                    function,
                    component,
                } => d.enable_function(function, *component),
                VersionConfigOp::DisableFunction { function } => d.disable_function(function),
                VersionConfigOp::SetProtection {
                    function,
                    protection,
                } => d.set_protection(function, *protection),
                VersionConfigOp::AddDependency { dependency } => {
                    d.add_dependency(dependency.clone())
                }
                VersionConfigOp::RemoveDependency { dependency } => {
                    d.remove_dependency(dependency);
                    Ok(())
                }
                VersionConfigOp::SetVisibility {
                    function,
                    visibility,
                } => d.set_visibility(function, *visibility),
            });
        answer(ctx, Some((from, call)), ack_or_refuse(result));
    }

    fn handle_set_group_epoch(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        set: &SetGroupEpoch,
    ) {
        let object = self.object;
        let result = match &mut self.group_gate {
            Some(gate) if gate.group != set.group => Err(InvocationFault::Refused(format!(
                "manager is enrolled in group {}, not {}",
                gate.group, set.group
            ))),
            // Backwards never; re-fencing an epoch already adopted never.
            Some(gate)
                if set.epoch < gate.epoch
                    || (set.epoch == gate.epoch && set.fence && !gate.fenced) =>
            {
                Err(InvocationFault::Refused(format!(
                    "stale group epoch {} (manager is at {})",
                    set.epoch, gate.epoch
                )))
            }
            gate => {
                let g = gate.get_or_insert(GroupGate {
                    group: set.group,
                    epoch: 0,
                    fenced: false,
                    refused_while_fenced: 0,
                });
                g.epoch = set.epoch;
                g.fenced = set.fence;
                if set.fence {
                    ctx.metrics().incr("manager.group_fences");
                } else {
                    // Adoption: the manager is a (non-serving) group member
                    // for timeline purposes.
                    ctx.emit_span(SpanKind::ReplicaEpoch {
                        group: set.group,
                        replica: object.as_raw(),
                        epoch: set.epoch,
                    });
                    ctx.metrics().incr("manager.group_epoch_adoptions");
                }
                Ok(ControlOp::new(GroupEpochReport {
                    group: g.group,
                    epoch: g.epoch,
                    fenced: g.fenced,
                    refused_while_fenced: g.refused_while_fenced,
                }))
            }
        };
        answer(ctx, Some((from, call)), result);
    }

    /// The manager's group enrolment, if any: `(group, epoch, fenced)`.
    pub fn group_epoch(&self) -> Option<(u64, u64, bool)> {
        self.group_gate
            .as_ref()
            .map(|g| (g.group, g.epoch, g.fenced))
    }

    /// Evolution requests refused while the group gate was fenced.
    pub fn group_fence_refusals(&self) -> u64 {
        self.group_gate
            .as_ref()
            .map_or(0, |g| g.refused_while_fenced)
    }

    fn handle_control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        op: ControlOp,
    ) {
        if let Some(create) = op.as_any().downcast_ref::<CreateDcdo>() {
            self.start_create(ctx, from, call, create.node);
            return;
        }
        if let Some(update) = op.as_any().downcast_ref::<UpdateInstance>() {
            self.start_update(ctx, Some((from, call)), update.object, update.to.clone(), 0);
            return;
        }
        if let Some(mig) = op.as_any().downcast_ref::<MigrateDcdo>() {
            self.start_migrate(ctx, Some((from, call)), mig.object, mig.to);
            return;
        }
        if let Some(de) = op.as_any().downcast_ref::<DeactivateDcdo>() {
            self.start_deactivate(ctx, Some((from, call)), de.object);
            return;
        }
        if let Some(act) = op.as_any().downcast_ref::<ActivateDcdo>() {
            self.start_activate(ctx, Some((from, call)), act.object, act.node);
            return;
        }
        if let Some(cp) = op.as_any().downcast_ref::<CheckpointDcdo>() {
            self.start_checkpoint(ctx, Some((from, call)), cp.object);
            return;
        }
        if let Some(nf) = op.as_any().downcast_ref::<NodeFailed>() {
            self.handle_node_failed(ctx, from, call, nf.node);
            return;
        }
        if let Some(nr) = op.as_any().downcast_ref::<NodeRecovered>() {
            self.handle_node_recovered(ctx, from, call, nr.node);
            return;
        }
        if let Some(cfg) = op.as_any().downcast_ref::<ConfigureVersion>() {
            self.handle_configure(ctx, from, call, cfg);
            return;
        }
        if let Some(set) = op.as_any().downcast_ref::<SetGroupEpoch>() {
            self.handle_set_group_epoch(ctx, from, call, set);
            return;
        }
        let result: Result<ControlOp, InvocationFault> =
            if let Some(derive) = op.as_any().downcast_ref::<DeriveVersion>() {
                match self.derive_version(&derive.from) {
                    Ok(version) => Ok(ControlOp::new(DerivedVersion { version })),
                    Err(e) => Err(InvocationFault::Refused(e.to_string())),
                }
            } else if let Some(mark) = op.as_any().downcast_ref::<MarkInstantiable>() {
                ack_or_refuse(self.mark_instantiable(&mark.version))
            } else if let Some(set) = op.as_any().downcast_ref::<SetCurrentVersion>() {
                match self.store.get(&set.version) {
                    Some(entry) if entry.instantiable => {
                        self.current = set.version.clone();
                        ctx.metrics().incr("manager.current_version_changes");
                        if self.propagation == UpdatePropagation::Proactive {
                            let instances: Vec<ObjectId> = self
                                .table
                                .iter()
                                .filter(|(_, i)| i.version != self.current)
                                .map(|(o, _)| *o)
                                .collect();
                            for object in instances {
                                self.start_update(ctx, None, object, None, 0);
                            }
                        }
                        Ok(ControlOp::new(Ack))
                    }
                    Some(_) => Err(InvocationFault::Refused(
                        ConfigError::VersionNotInstantiable(set.version.clone()).to_string(),
                    )),
                    None => Err(InvocationFault::Refused(
                        ConfigError::UnknownVersion(set.version.clone()).to_string(),
                    )),
                }
            } else if let Some(check) = op.as_any().downcast_ref::<CheckVersion>() {
                ctx.metrics().incr("manager.version_checks");
                let up_to_date = check.current == self.current
                    || self
                        .evolution_allowed(&check.current, &self.current)
                        .is_err();
                let descriptor = if up_to_date {
                    None
                } else {
                    self.store.get(&self.current).map(|e| e.descriptor.clone())
                };
                // Optimistically record the promise; the DCDO confirms with
                // ReportVersion once the evolution lands.
                Ok(ControlOp::new(VersionCheckReply {
                    up_to_date,
                    descriptor,
                }))
            } else if let Some(report) = op.as_any().downcast_ref::<ReportVersion>() {
                if let Some(info) = self.table.get_mut(&report.object) {
                    info.version = report.version.clone();
                }
                Ok(ControlOp::new(Ack))
            } else if op.as_any().downcast_ref::<ListVersions>().is_some() {
                Ok(ControlOp::new(VersionTable {
                    entries: self
                        .store
                        .iter()
                        .map(|(v, e)| {
                            (
                                v.clone(),
                                e.instantiable,
                                e.descriptor.component_count(),
                                e.descriptor.function_count(),
                            )
                        })
                        .collect(),
                    current: self.current.clone(),
                }))
            } else if op.as_any().downcast_ref::<ListDcdos>().is_some() {
                Ok(ControlOp::new(DcdoTable {
                    entries: self.instances(),
                }))
            } else if let Some(q) = op.as_any().downcast_ref::<QueryVersionInfo>() {
                match self.store.get(&q.version) {
                    Some(entry) => Ok(ControlOp::new(VersionInfo {
                        version: q.version.clone(),
                        instantiable: entry.instantiable,
                        descriptor: entry.descriptor.clone(),
                    })),
                    None => Err(InvocationFault::Refused(
                        ConfigError::UnknownVersion(q.version.clone()).to_string(),
                    )),
                }
            } else {
                Err(InvocationFault::Refused(format!(
                    "DCDO Manager does not understand {}",
                    op.describe()
                )))
            };
        answer(ctx, Some((from, call)), result);
    }
}

impl Actor<Msg> for DcdoManager {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        match msg {
            Msg::Control { call, target, op } => {
                if target != self.object {
                    let fault = InvocationFault::NoSuchObject(target);
                    return answer(ctx, Some((from, call)), Err(fault));
                }
                self.handle_control(ctx, from, call, op);
            }
            Msg::Invoke { call, function, .. } => {
                ctx.send(
                    from,
                    Msg::Reply {
                        call,
                        result: Err(InvocationFault::NoSuchFunction(function)),
                    },
                );
            }
            reply => {
                if let Handled::Completed(completion) = self.rpc.handle_message(ctx, reply) {
                    self.handle_rpc_completion(ctx, completion);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if self.rpc.owns_timer(token) {
            if let Some(completion) = self.rpc.handle_timer(ctx, token) {
                self.handle_rpc_completion(ctx, completion);
            }
            return;
        }
        if let Some((object, version, attempt)) = self.retry_updates.remove(&token) {
            self.start_update(ctx, None, object, Some(version), attempt);
            return;
        }
        if let Some(flow_id) = self.timer_routes.remove(&token) {
            self.advance(ctx, flow_id, Outcome::SpawnTimer);
        }
    }

    fn name(&self) -> &str {
        "dcdo-manager"
    }
}

impl std::fmt::Debug for DcdoManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DcdoManager")
            .field("object", &self.object)
            .field("class", &self.class)
            .field("current", &self.current)
            .field("versions", &self.store.len())
            .field("instances", &self.table.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [MgrKind; 7] = [
        MgrKind::Create,
        MgrKind::Update,
        MgrKind::Migrate,
        MgrKind::Deactivate,
        MgrKind::Activate,
        MgrKind::Checkpoint,
        MgrKind::Recover,
    ];

    /// Walks `kind`'s plan through [`next_step`] from its first step.
    fn walk(kind: MgrKind, had_snapshot: bool) -> Vec<Step> {
        let mut steps = vec![kind.plan()[0]];
        while let Some(next) = next_step(kind, steps[steps.len() - 1], had_snapshot) {
            steps.push(next);
        }
        steps
    }

    #[test]
    fn next_step_walks_each_plan_in_order() {
        use Step::*;
        assert_eq!(walk(MgrKind::Create, true), [Spawn, Register, Apply]);
        assert_eq!(walk(MgrKind::Update, true), [Apply]);
        assert_eq!(
            walk(MgrKind::Migrate, true),
            [Capture, Deactivate, Spawn, Apply, Restore, Register]
        );
        assert_eq!(
            walk(MgrKind::Deactivate, true),
            [Capture, Deactivate, Unregister]
        );
        assert_eq!(
            walk(MgrKind::Activate, true),
            [Spawn, Apply, Restore, Register]
        );
        assert_eq!(walk(MgrKind::Checkpoint, true), [Capture, SaveVault]);
        assert_eq!(
            walk(MgrKind::Recover, true),
            [Spawn, Apply, LoadVault, Restore, Register]
        );
    }

    #[test]
    fn a_recovery_without_snapshot_skips_restore() {
        use Step::*;
        assert_eq!(
            next_step(MgrKind::Recover, LoadVault, false),
            Some(Register)
        );
        assert_eq!(next_step(MgrKind::Recover, LoadVault, true), Some(Restore));
        assert_eq!(
            walk(MgrKind::Recover, false),
            [Spawn, Apply, LoadVault, Register]
        );
        // The snapshot flag matters only after LoadVault.
        for kind in KINDS {
            if kind != MgrKind::Recover {
                assert_eq!(walk(kind, false), walk(kind, true), "{kind:?}");
            }
        }
    }

    #[test]
    fn plans_are_well_formed() {
        for kind in KINDS {
            let plan = kind.plan();
            for (i, step) in plan.iter().enumerate() {
                assert!(!plan[i + 1..].contains(step), "{kind:?} repeats {step:?}");
            }
            // A step outside the plan has no successor.
            for step in Step::ALL {
                if !plan.contains(&step) {
                    assert_eq!(next_step(kind, step, true), None, "{kind:?}/{step:?}");
                }
            }
            // Registering a binding, restoring state and finishing a
            // spawning flow all need the process Spawn creates.
            if let Some(spawn) = plan.iter().position(|&s| s == Step::Spawn) {
                assert!(plan[spawn + 1..].contains(&Step::Register), "{kind:?}");
            }
            if let Some(restore) = plan.iter().position(|&s| s == Step::Restore) {
                let before = &plan[..restore];
                assert!(
                    before.contains(&Step::Capture)
                        || before.contains(&Step::LoadVault)
                        || kind == MgrKind::Activate,
                    "{kind:?} restores state it never obtained"
                );
            }
        }
    }
}
