//! Replica-group and rolling-upgrade workloads: epoch-based group
//! reconfiguration as declarative scenario building blocks.
//!
//! [`ReplicaGroup`] deploys a coordinator + replica group (from
//! `dcdo-group`) on a bare topology and drives it with a closed-loop
//! client for the whole window. [`RollingUpgrade`] attaches a
//! [`RolloutDriver`] executing a wave plan (canary → percentage waves →
//! full fleet) against that group, aborting and rolling back if a probed
//! replica reports unhealthy mid-wave. The wave schedule participates in
//! scenario validation: a timed window shorter than the plan's last wave
//! is rejected as [`ScenarioError::WindowShorterThanSchedule`] before any
//! simulation state exists.
//!
//! Node layout over `replicas = R` (mirroring the chaos scenarios' "node
//! 0 is the controller's" convention): node 0 chaos, nodes `1..=R` the
//! replicas, `R+1` the coordinator, `R+2` the client, `R+3` the
//! rolling-upgrade driver.

use dcdo_group::{
    deploy_group, GroupClient, GroupReplica, RolloutDriver, RolloutPlan, RolloutState,
};
use dcdo_sim::{NodeId, SimDuration};

use crate::error::ScenarioError;
use crate::topology::Topology;
use crate::workload::{GroupHandles, RunCx, Workload};

/// The group id declared workloads deploy under (one group per scenario).
const GROUP: u64 = 1;

/// Deploys a replica group (coordinator on node `replicas+1`, members on
/// nodes `1..=replicas`) and a closed-loop client (node `replicas+2`)
/// invoking it round-robin until `until`. `measure` records the client's
/// typed outcome counters and the group's end-state agreement.
pub struct ReplicaGroup {
    replicas: u32,
    version: u32,
    until: SimDuration,
    period: SimDuration,
}

impl ReplicaGroup {
    /// A group of `replicas` members at config `version`, under client
    /// traffic until `until`.
    pub fn new(replicas: u32, version: u32, until: SimDuration) -> Self {
        ReplicaGroup {
            replicas,
            version,
            until,
            period: SimDuration::from_millis(2),
        }
    }

    /// Overrides the client's invocation period (default 2ms).
    pub fn with_period(mut self, period: SimDuration) -> Self {
        self.period = period;
        self
    }
}

impl Workload for ReplicaGroup {
    fn name(&self) -> &str {
        "replica_group"
    }

    fn check(&self, topology: &Topology) -> Result<(), ScenarioError> {
        if self.replicas < 2 {
            return Err(ScenarioError::BadParam {
                context: "workload replica_group".to_string(),
                msg: "a group needs at least 2 replicas".to_string(),
            });
        }
        // Chaos node + replicas + coordinator + client + upgrade driver.
        let needed = self.replicas.checked_add(4);
        if needed.is_none_or(|needed| topology.nodes < needed) {
            return Err(ScenarioError::BadParam {
                context: "workload replica_group".to_string(),
                msg: format!(
                    "{} replicas need {} nodes (chaos + replicas + coordinator + client + driver) \
                     but the topology has {}",
                    self.replicas,
                    u64::from(self.replicas) + 4,
                    topology.nodes
                ),
            });
        }
        Ok(())
    }

    fn setup(&mut self, cx: &mut RunCx) {
        let sim = cx.world.sim_mut().expect("validated: built world");
        let replica_nodes: Vec<NodeId> = (1..=self.replicas).map(NodeId::from_raw).collect();
        let deployment = deploy_group(
            sim,
            GROUP,
            NodeId::from_raw(self.replicas + 1),
            &replica_nodes,
            self.version,
        );
        let client = sim.spawn(
            NodeId::from_raw(self.replicas + 2),
            GroupClient::new(deployment.replica_targets(), self.period, self.until),
        );
        sim.with_actor::<GroupClient, _>(client, |c, ctx| c.start(ctx));
        cx.group = Some(GroupHandles {
            deployment,
            client,
            driver: None,
        });
    }

    fn measure(&mut self, cx: &mut RunCx) {
        let Some(handles) = cx.group.clone() else {
            return;
        };
        let (client_stats, mut epochs, mut digests, fenced) = {
            let sim = cx.world.sim().expect("validated: built world");
            // The client's node may have been crashed by an attached plan.
            let client_stats = sim
                .actor::<GroupClient>(handles.client)
                .map(|c| (c.sent(), c.ok(), c.refused(), c.failed()));
            let mut epochs = Vec::new();
            let mut digests = Vec::new();
            let mut fenced = 0u64;
            for r in &handles.deployment.replicas {
                if let Some(rep) = sim.actor::<GroupReplica>(r.actor) {
                    epochs.push(rep.epoch());
                    digests.push(rep.config().digest());
                    fenced += rep.is_fenced() as u64;
                }
            }
            (client_stats, epochs, digests, fenced)
        };
        if let Some((sent, ok, refused, failed)) = client_stats {
            cx.add("group.calls.sent", sent);
            cx.add("group.calls.ok", ok);
            cx.add("group.calls.refused", refused);
            cx.add("group.calls.failed", failed);
        }
        epochs.sort_unstable();
        epochs.dedup();
        digests.sort_unstable();
        digests.dedup();
        // Converged groups report one epoch and one digest; the
        // disagreement counters make divergence a judgeable zero-check.
        cx.add("group.epoch", epochs.first().copied().unwrap_or(0));
        cx.add("group.epoch.disagreement", epochs.len() as u64 - 1);
        cx.add("group.config.disagreement", digests.len() as u64 - 1);
        cx.add("group.fenced", fenced);
    }
}

/// A rolling upgrade attached to a deployed [`ReplicaGroup`]: a
/// [`RolloutDriver`] on node `replicas+3` executes the wave plan.
///
/// Declare it *after* `replica_group` — setup order is declaration order.
pub struct RollingUpgrade {
    plan: RolloutPlan,
}

impl RollingUpgrade {
    /// A rolling upgrade executing `plan`.
    pub fn new(plan: RolloutPlan) -> Self {
        RollingUpgrade { plan }
    }
}

impl Workload for RollingUpgrade {
    fn name(&self) -> &str {
        "rolling_upgrade"
    }

    fn check(&self, _topology: &Topology) -> Result<(), ScenarioError> {
        if self.plan.waves.is_empty() {
            return Err(ScenarioError::BadParam {
                context: "workload rolling_upgrade".to_string(),
                msg: "the wave plan is empty".to_string(),
            });
        }
        Ok(())
    }

    fn schedule_end(&self) -> Option<SimDuration> {
        self.plan.last_at()
    }

    fn setup(&mut self, cx: &mut RunCx) {
        let deployment = cx
            .group
            .as_ref()
            .expect("rolling_upgrade needs a replica_group declared before it")
            .deployment
            .clone();
        let sim = cx.world.sim_mut().expect("validated: built world");
        let node = NodeId::from_raw(deployment.coordinator_node.as_raw() + 2);
        let driver = RolloutDriver::install(sim, node, deployment, self.plan.clone());
        cx.group.as_mut().expect("just read").driver = Some(driver);
    }

    fn measure(&mut self, cx: &mut RunCx) {
        let Some(driver) = cx.group.as_ref().and_then(|g| g.driver) else {
            return;
        };
        let Some((state, waves)) = cx
            .world
            .sim()
            .expect("validated: built world")
            .actor::<RolloutDriver>(driver)
            .map(|d| (d.state(), d.waves_committed()))
        else {
            return;
        };
        cx.add(
            "rollout.completed",
            (state == RolloutState::Completed) as u64,
        );
        cx.add(
            "rollout.rolled_back",
            (state == RolloutState::RolledBack) as u64,
        );
        cx.add("rollout.state_code", state.code());
        cx.add("rollout.waves_committed", waves as u64);
    }
}
