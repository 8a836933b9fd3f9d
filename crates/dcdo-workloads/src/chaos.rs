//! Chaos ring building blocks: the timer-driven chatter ring and the
//! measurements taken over it.
//!
//! The fault scenarios themselves are declared in `dcdo-scenario`
//! (`rolling_partition`, `restart_storm`): its `chatter_ring` workload
//! spawns this ring through [`spawn_ring`] and reads
//! [`delivery_amplification`] and [`ring_recovery_time`], while a declared
//! fault plan supplies the partitions and crashes.

use dcdo_sim::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulation};
use dcdo_types::{CallId, ObjectId};
use dcdo_vm::Value;
use legion_substrate::Msg;

/// A timer-driven ring talker: every period it pings its ring successor
/// (regardless of replies — partitions and crashes must not silence it)
/// and echoes pings it receives. Records when each echo arrived so the
/// ring's owner can measure how fast traffic resumes after a heal.
pub struct Chatter {
    peer: Option<ActorId>,
    period: SimDuration,
    until: SimTime,
    sent: u64,
    heard_times: Vec<SimTime>,
}

impl Chatter {
    fn new(period: SimDuration, until: SimTime) -> Self {
        Chatter {
            peer: None,
            period,
            until,
            sent: 0,
            heard_times: Vec::new(),
        }
    }
}

impl Actor<Msg> for Chatter {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        match msg {
            Msg::Invoke { call, args, .. } => {
                let echo = args.into_iter().next().unwrap_or(Value::Unit);
                ctx.send(
                    from,
                    Msg::Reply {
                        call,
                        result: Ok(echo),
                    },
                );
            }
            Msg::Reply { .. } => {
                self.heard_times.push(ctx.now());
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _token: u64) {
        if let Some(peer) = self.peer {
            self.sent += 1;
            let call = CallId::from_raw(ctx.fresh_u64());
            ctx.send(
                peer,
                Msg::Invoke {
                    call,
                    target: ObjectId::from_raw(1),
                    function: "ping".into(),
                    args: vec![Value::Int(self.sent as i64)],
                },
            );
        }
        if ctx.now() + self.period < self.until {
            ctx.schedule_timer(self.period, 0);
        }
    }

    fn name(&self) -> &str {
        "chaos-chatter"
    }
}

/// Spawns a ring of chatters, one per node in `nodes[1..]` (node 0 hosts
/// the chaos controller), with staggered periods and start offsets.
pub fn spawn_ring(sim: &mut Simulation<Msg>, n_nodes: u32, horizon: SimDuration) -> Vec<ActorId> {
    let until = sim.now() + horizon;
    let mut ring = Vec::new();
    for i in 1..n_nodes {
        let period = SimDuration::from_millis(80 + 17 * u64::from(i));
        let actor = sim.spawn(dcdo_sim::NodeId::from_raw(i), Chatter::new(period, until));
        ring.push(actor);
    }
    for (i, &actor) in ring.iter().enumerate() {
        let peer = ring[(i + 1) % ring.len()];
        sim.actor_mut::<Chatter>(actor).expect("chatter alive").peer = Some(peer);
        sim.schedule_timer_for(actor, SimDuration::from_millis(10 * (i as u64 + 1)), 0);
    }
    ring
}

/// Ratio of messages offered to messages actually delivered (loss and
/// unreachable drops removed): the price of talking through faults.
pub fn delivery_amplification(sim: &Simulation<Msg>) -> f64 {
    let stats = sim.network().stats();
    let delivered = stats
        .messages_sent
        .saturating_sub(stats.messages_lost)
        .saturating_sub(stats.unreachable);
    stats.messages_sent as f64 / delivered.max(1) as f64
}

/// The longest any chatter in `ring` waited after `healed_at` before
/// hearing an echo again, in simulated seconds; a chatter that never
/// resumed is charged the full span to `horizon_end`.
///
/// # Panics
///
/// Panics if `healed_at` is later than `horizon_end` (the scenario layer
/// rejects such a `final_heal` before the run starts).
pub fn ring_recovery_time(
    sim: &Simulation<Msg>,
    ring: &[ActorId],
    healed_at: SimTime,
    horizon_end: SimTime,
) -> f64 {
    let mut recovery_time_s = 0.0f64;
    for &actor in ring {
        let chatter = sim.actor::<Chatter>(actor).expect("chatter alive");
        let resumed = chatter
            .heard_times
            .iter()
            .find(|t| **t > healed_at)
            .copied()
            .unwrap_or(horizon_end);
        recovery_time_s = recovery_time_s.max(resumed.duration_since(healed_at).as_secs_f64());
    }
    recovery_time_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdo_sim::NetConfig;

    #[test]
    fn chatter_ring_talks_on_a_quiet_network() {
        let mut sim: Simulation<Msg> = Simulation::new(NetConfig::centurion(), 1);
        let ring = spawn_ring(&mut sim, 4, SimDuration::from_secs(2));
        sim.run_until_idle();
        for actor in ring {
            let c = sim.actor::<Chatter>(actor).expect("alive");
            assert!(c.sent > 0);
            assert!(!c.heard_times.is_empty(), "echoes heard");
        }
        assert_eq!(sim.pending_events(), 0);
    }
}
