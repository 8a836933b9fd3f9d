//! Ring-traffic and fault-plan workloads: the building blocks the chaos
//! scenarios compose from.
//!
//! [`ChatterRing`] spawns the timer-driven ring of
//! `dcdo_workloads::chaos::spawn_ring` and measures delivery amplification
//! and post-heal recovery. [`ChaosAttachment`]
//! turns a `FaultPlan` into an attachable workload: setup installs a
//! `ChaosController`, and the plan participates in scenario validation
//! (both `FaultPlan::validate` and the window-length check), and a plan
//! that would crash its own controller's node is rejected up front.

use dcdo_chaos::{ChaosController, FaultPlan};
use dcdo_sim::{NodeId, SimDuration, SimTime};
use dcdo_workloads::chaos as ring;

use crate::error::ScenarioError;
use crate::topology::Topology;
use crate::workload::{RunCx, Workload};

/// A ring of timer-driven chatters on nodes `1..nodes` (node 0 is left for
/// the chaos controller), talking until `until`; `measure` records
/// `net.amplification` and — when `final_heal` is set — the post-heal
/// recovery gauge `chatter.recovery_s` (validation rejects a `final_heal`
/// past `until`).
pub struct ChatterRing {
    nodes: u32,
    until: SimDuration,
    final_heal: Option<SimDuration>,
    actors: Vec<dcdo_sim::ActorId>,
}

impl ChatterRing {
    /// A ring across `nodes` nodes talking for `until` of simulated time.
    pub fn new(nodes: u32, until: SimDuration) -> Self {
        ChatterRing {
            nodes,
            until,
            final_heal: None,
            actors: Vec::new(),
        }
    }

    /// Measures recovery after a heal at `at`: the longest any chatter
    /// waited past `at` before hearing an echo again.
    pub fn with_final_heal(mut self, at: SimDuration) -> Self {
        self.final_heal = Some(at);
        self
    }
}

impl Workload for ChatterRing {
    fn name(&self) -> &str {
        "chatter_ring"
    }

    fn check(&self, topology: &Topology) -> Result<(), ScenarioError> {
        if self.nodes < 2 {
            return Err(ScenarioError::BadParam {
                context: "workload chatter_ring".to_string(),
                msg: "a ring needs at least 2 nodes".to_string(),
            });
        }
        if self.nodes > topology.nodes {
            return Err(ScenarioError::BadParam {
                context: "workload chatter_ring".to_string(),
                msg: format!(
                    "ring spans {} nodes but the topology has {}",
                    self.nodes, topology.nodes
                ),
            });
        }
        if let Some(heal) = self.final_heal {
            if heal > self.until {
                return Err(ScenarioError::BadParam {
                    context: "workload chatter_ring".to_string(),
                    msg: format!(
                        "final_heal at {}s is past the ring's until={}s, so recovery \
                         could never be measured",
                        heal.as_secs_f64(),
                        self.until.as_secs_f64()
                    ),
                });
            }
        }
        Ok(())
    }

    fn setup(&mut self, cx: &mut RunCx) {
        let sim = cx.world.sim_mut().expect("validated: built world");
        self.actors = ring::spawn_ring(sim, self.nodes, self.until);
    }

    fn measure(&mut self, cx: &mut RunCx) {
        let (amplification, recovery) = {
            let sim = cx.world.sim().expect("validated: built world");
            let amplification = ring::delivery_amplification(sim);
            let recovery = self.final_heal.map(|heal| {
                ring::ring_recovery_time(
                    sim,
                    &self.actors,
                    SimTime::ZERO + heal,
                    SimTime::ZERO + self.until,
                )
            });
            (amplification, recovery)
        };
        cx.gauge("net.amplification", amplification);
        if let Some(recovery_s) = recovery {
            cx.gauge("chatter.recovery_s", recovery_s);
        }
    }
}

/// A `FaultPlan` attached to a scenario: setup installs a
/// `ChaosController` on `node` that replays the plan against the live sim.
pub struct ChaosAttachment {
    node: NodeId,
    plan: FaultPlan,
}

impl ChaosAttachment {
    /// Attaches `plan`, driven by a controller on `node`.
    pub fn new(node: NodeId, plan: FaultPlan) -> Self {
        ChaosAttachment { node, plan }
    }
}

impl Workload for ChaosAttachment {
    fn name(&self) -> &str {
        "chaos"
    }

    fn check(&self, topology: &Topology) -> Result<(), ScenarioError> {
        if self.node.as_raw() >= topology.nodes {
            return Err(ScenarioError::BadParam {
                context: "workload chaos".to_string(),
                msg: format!(
                    "controller node {} out of range (topology has {} nodes)",
                    self.node.as_raw(),
                    topology.nodes
                ),
            });
        }
        if self.plan.crashes(self.node) {
            return Err(ScenarioError::BadParam {
                context: "workload chaos".to_string(),
                msg: format!(
                    "the plan crashes controller node {}; the controller must outlive \
                     its plan",
                    self.node.as_raw()
                ),
            });
        }
        Ok(())
    }

    fn setup(&mut self, cx: &mut RunCx) {
        let sim = cx.world.sim_mut().expect("validated: built world");
        ChaosController::install(sim, self.node, self.plan.clone());
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        Some(&self.plan)
    }
}
