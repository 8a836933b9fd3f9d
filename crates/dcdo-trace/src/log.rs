//! The per-run structured trace log: recording, queries, digest.

use std::collections::{HashMap, VecDeque};

use crate::span::{SpanEvent, SpanId, SpanKind};

/// A deterministic, append-only log of [`SpanEvent`]s for one run.
///
/// Disabled by default: [`TraceLog::emit`] then costs one branch and records
/// nothing, which is what lets the instrumented engine stay within its
/// throughput budget when nobody is watching. Enable with
/// [`TraceLog::enable`] before the run starts to capture everything.
///
/// Events enter the log through two doors: [`TraceLog::emit`] mints the next
/// dense id itself, while [`TraceLog::push_event`] appends a pre-built event
/// whose id the producer chose (the simulation engine allocates per-lane
/// ids, so one node's span ids do not shift with another node's traffic). Both
/// maintain the id → position index that [`TraceLog::get`] uses.
#[derive(Debug, Default, Clone)]
pub struct TraceLog {
    enabled: bool,
    next_id: u64,
    events: Vec<SpanEvent>,
    /// Raw span id → index in `events`.
    index: HashMap<u64, usize>,
}

impl TraceLog {
    /// Creates a disabled log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Starts recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Stops recording (already-captured events are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Returns `true` if the log is recording.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Drops all captured events and resets the id sequence.
    pub fn clear(&mut self) {
        self.events.clear();
        self.index.clear();
        self.next_id = 0;
    }

    /// Records an event, returning its id — or `None` when disabled.
    ///
    /// `at_ns` is the simulated time; `node` is the node the event happened
    /// on ([`NO_NODE`](crate::NO_NODE) if not attributable); `parent` is the
    /// span that causally triggered this one.
    #[inline]
    pub fn emit(
        &mut self,
        at_ns: u64,
        node: u32,
        parent: Option<SpanId>,
        kind: SpanKind,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.next_id += 1;
        let id = SpanId::from_raw(self.next_id).expect("span ids start at 1");
        self.index.insert(id.as_raw(), self.events.len());
        self.events.push(SpanEvent {
            id,
            parent,
            at_ns,
            node,
            kind,
        });
        Some(id)
    }

    /// Appends a pre-built event carrying a producer-allocated id. Unlike
    /// [`TraceLog::emit`], the id sequence is not advanced — the producer
    /// owns id uniqueness. The engine uses this for its per-lane span ids.
    pub fn push_event(&mut self, ev: SpanEvent) {
        self.index.insert(ev.id.as_raw(), self.events.len());
        self.events.push(ev);
    }

    /// All captured events in emit order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Looks an event up by id.
    pub fn get(&self, id: SpanId) -> Option<&SpanEvent> {
        self.events.get(*self.index.get(&id.as_raw())?)
    }

    /// Direct causal children of `id`, in emit order.
    pub fn children_of(&self, id: SpanId) -> Vec<&SpanEvent> {
        self.events
            .iter()
            .filter(|e| e.parent == Some(id))
            .collect()
    }

    /// Events with `start_ns <= at_ns < end_ns`, in emit order.
    pub fn between(&self, start_ns: u64, end_ns: u64) -> Vec<&SpanEvent> {
        self.events
            .iter()
            .filter(|e| e.at_ns >= start_ns && e.at_ns < end_ns)
            .collect()
    }

    /// Every event belonging to a flow: events that name the flow id
    /// directly, plus all causal descendants of those events (the RPCs,
    /// timers, and deliveries the flow fanned out into), in emit order.
    pub fn spans_for_flow(&self, flow: u64) -> Vec<&SpanEvent> {
        let mut member = vec![false; self.events.len()];
        let mut queue = VecDeque::new();
        for (i, e) in self.events.iter().enumerate() {
            if e.kind.flow_id() == Some(flow) {
                member[i] = true;
                queue.push_back(e.id);
            }
        }
        // Children always appear after their parents (log order), so one
        // forward sweep per frontier element terminates.
        while let Some(parent) = queue.pop_front() {
            // First candidate child position: just past the parent itself.
            let start = self.index.get(&parent.as_raw()).map_or(0, |&pos| pos + 1);
            for (i, e) in self.events.iter().enumerate().skip(start) {
                if !member[i] && e.parent == Some(parent) {
                    member[i] = true;
                    queue.push_back(e.id);
                }
            }
        }
        self.events
            .iter()
            .enumerate()
            .filter(|(i, _)| member[*i])
            .map(|(_, e)| e)
            .collect()
    }

    /// A build-independent FNV-1a digest of the whole log.
    ///
    /// Only integers enter the hash (ids, times, nodes, variant codes,
    /// fields), so the digest is identical across debug and release builds
    /// and across machines — the cross-build determinism witness.
    ///
    /// `GenerationStamp` values are excluded: generation numbers come from
    /// a process-global counter, so their absolute values differ between
    /// runs sharing a process. Their monotonicity is the invariant
    /// checker's job; the digest still covers the stamps' order, objects,
    /// and causality.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for e in &self.events {
            h.write_u64(e.id.as_raw());
            h.write_u64(e.parent.map_or(0, SpanId::as_raw));
            h.write_u64(e.at_ns);
            h.write_u64(e.node as u64);
            h.write_u64(e.kind.code());
            if let SpanKind::GenerationStamp { object, .. } = &e.kind {
                h.write_u64(*object);
            } else {
                for (_, v) in e.kind.fields() {
                    h.write_u64(v);
                }
            }
            if let SpanKind::PartitionChanged { groups } = &e.kind {
                for g in groups {
                    h.write_u64(*g as u64);
                }
            }
        }
        h.finish()
    }
}

/// Build-independent FNV-1a hash of a function name.
///
/// This is how string-valued identities (function names) cross into the
/// integer-only trace: [`SpanKind::VmCost`] carries `fn_hash(name)` and the
/// emitting layer publishes a hash → name table out of band. The hash is
/// plain FNV-1a over the UTF-8 bytes, so it is identical across builds,
/// machines, and processes.
pub fn fn_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 64-bit FNV-1a over little-endian u64 words.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{FlowKind, NO_NODE};

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.enable();
        let root = log.emit(
            10,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 7,
                object: 99,
                kind: FlowKind::Update,
            },
        );
        let sent = log.emit(
            20,
            0,
            root,
            SpanKind::MsgSent {
                src: 1,
                dst: 2,
                src_node: 0,
                dst_node: 1,
                verdict: crate::SendVerdict::Sent,
                bytes: 64,
            },
        );
        log.emit(
            30,
            1,
            sent,
            SpanKind::MsgDelivered {
                src: 1,
                dst: 2,
                dst_node: 1,
            },
        );
        log.emit(40, 0, root, SpanKind::FlowCompleted { flow: 7 });
        log.emit(50, 2, None, SpanKind::TimerFired { actor: 5, token: 1 });
        log
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::new();
        assert!(!log.is_enabled());
        assert_eq!(log.emit(0, NO_NODE, None, SpanKind::PartitionHealed), None);
        assert!(log.is_empty());
    }

    #[test]
    fn ids_are_dense_and_lookup_by_id_works() {
        let log = sample_log();
        assert_eq!(log.len(), 5);
        for (i, e) in log.events().iter().enumerate() {
            assert_eq!(e.id.as_raw(), i as u64 + 1);
            assert_eq!(log.get(e.id), Some(e));
        }
    }

    #[test]
    fn children_of_returns_direct_children_only() {
        let log = sample_log();
        let root = log.events()[0].id;
        let kids = log.children_of(root);
        assert_eq!(kids.len(), 2);
        assert!(matches!(kids[0].kind, SpanKind::MsgSent { .. }));
        assert!(matches!(kids[1].kind, SpanKind::FlowCompleted { .. }));
    }

    #[test]
    fn between_is_half_open() {
        let log = sample_log();
        let window: Vec<u64> = log.between(20, 50).iter().map(|e| e.at_ns).collect();
        assert_eq!(window, vec![20, 30, 40]);
    }

    #[test]
    fn between_boundary_inclusivity() {
        // Events at exactly the window start are included; events at exactly
        // the window end are excluded (half-open `[start, end)`).
        let log = sample_log(); // events at 10, 20, 30, 40, 50
        let exact: Vec<u64> = log.between(10, 10).iter().map(|e| e.at_ns).collect();
        assert_eq!(exact, Vec::<u64>::new(), "empty window captures nothing");
        let start_only: Vec<u64> = log.between(50, 51).iter().map(|e| e.at_ns).collect();
        assert_eq!(start_only, vec![50], "start boundary is inclusive");
        let end_only: Vec<u64> = log.between(0, 10).iter().map(|e| e.at_ns).collect();
        assert_eq!(end_only, Vec::<u64>::new(), "end boundary is exclusive");
        let all: Vec<u64> = log.between(10, 51).iter().map(|e| e.at_ns).collect();
        assert_eq!(all, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn spans_for_flow_on_empty_log_is_empty() {
        let empty = TraceLog::new();
        assert!(empty.spans_for_flow(0).is_empty());
        assert!(empty.spans_for_flow(7).is_empty());
        let mut enabled_but_empty = TraceLog::new();
        enabled_but_empty.enable();
        assert!(enabled_but_empty.spans_for_flow(7).is_empty());
    }

    #[test]
    fn fn_hash_is_stable_and_distinguishes_names() {
        // Pin the FNV-1a constants: the hash must never drift, because the
        // VmCost `function` field is compared across builds and runs.
        assert_eq!(fn_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fn_hash("step"), fn_hash("step"));
        assert_ne!(fn_hash("step"), fn_hash("get"));
    }

    #[test]
    fn spans_for_flow_includes_causal_descendants() {
        let log = sample_log();
        let flow: Vec<u64> = log
            .spans_for_flow(7)
            .iter()
            .map(|e| e.id.as_raw())
            .collect();
        // Flow events 1 and 4, plus descendants 2 (MsgSent) and 3
        // (MsgDelivered); the unrelated timer (5) is excluded.
        assert_eq!(flow, vec![1, 2, 3, 4]);
        assert!(log.spans_for_flow(8).is_empty());
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let a = sample_log();
        let b = sample_log();
        assert_eq!(a.digest(), b.digest());
        let mut c = sample_log();
        c.emit(60, 0, None, SpanKind::PartitionHealed);
        assert_ne!(a.digest(), c.digest());
        assert_ne!(TraceLog::new().digest(), a.digest());
    }

    #[test]
    fn push_event_with_sparse_ids_supports_lookup_and_flows() {
        // The engine's lane-allocated ids are huge and non-dense; get(),
        // children_of, and spans_for_flow must still work.
        let mut log = TraceLog::new();
        log.enable();
        let big = |raw: u64| SpanId::from_raw(raw).expect("nonzero");
        log.push_event(SpanEvent {
            id: big(1 << 48),
            parent: None,
            at_ns: 5,
            node: 0,
            kind: SpanKind::FlowStarted {
                flow: 3,
                object: 1,
                kind: FlowKind::Create,
            },
        });
        log.push_event(SpanEvent {
            id: big((2 << 48) | 7),
            parent: Some(big(1 << 48)),
            at_ns: 6,
            node: 1,
            kind: SpanKind::FlowCompleted { flow: 3 },
        });
        assert_eq!(log.len(), 2);
        assert_eq!(log.get(big(1 << 48)).expect("indexed").at_ns, 5);
        assert_eq!(log.get(big((2 << 48) | 7)).expect("indexed").at_ns, 6);
        assert!(log.get(big(42)).is_none());
        assert_eq!(log.children_of(big(1 << 48)).len(), 1);
        assert_eq!(log.spans_for_flow(3).len(), 2);
        // A later emit() still mints dense ids independent of pushed ones.
        let id = log
            .emit(7, 0, None, SpanKind::PartitionHealed)
            .expect("enabled");
        assert_eq!(id.as_raw(), 1);
        assert_eq!(log.get(id).expect("indexed").at_ns, 7);
    }

    #[test]
    fn clear_resets_ids() {
        let mut log = sample_log();
        log.clear();
        assert!(log.is_empty());
        let id = log
            .emit(0, 0, None, SpanKind::PartitionHealed)
            .expect("enabled");
        assert_eq!(id.as_raw(), 1);
    }
}
