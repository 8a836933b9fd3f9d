//! The closed-loop driver shared by `invoke` and `evolve`: one simulated
//! client issues an op, waits for it to finish, then issues the next.
//!
//! A run repeats **passes** until `--seconds` of host time have passed.
//! A pass sets up a fresh world and runs the same fixed batch of ops on
//! it, so every pass of one seed does identical work: its exact counts and
//! sim-time fingerprint must repeat, and its host times are samples of one
//! distribution. End-to-end metrics are medians over passes, which keeps a
//! stall of the shared host to a few samples.

use std::time::{Duration, Instant};

use dcdo_sim::Simulation;
use legion_substrate::Msg;

use crate::alloc::AllocCount;
use crate::stats::{self, Metrics};
use crate::tracer::Tracer;

/// Output checks and failed operations of one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
}

impl Checks {
    /// Counts one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }
}

/// Exact work counts: deterministic for a seed, whatever the host's speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
    pub events: u64,
    pub msgs: u64,
    pub spans: u64,
    pub dyn_calls: u64,
    pub binding_queries: u64,
    pub rpcs: u64,
    pub stale_bindings: u64,
    pub updates: u64,
    pub mapped: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Counts {
    /// Reads the counters of `sim` (plus the process's allocations) now.
    pub fn read(sim: &Simulation<Msg>, dyn_calls: u64) -> Self {
        let alloc = AllocCount::now();
        let m = sim.metrics();
        Counts {
            allocs: alloc.allocs,
            bytes: alloc.bytes,
            events: sim.events_processed(),
            msgs: sim.network().messages_sent(),
            spans: sim.spans().len() as u64,
            dyn_calls,
            binding_queries: m.counter("binding.queries"),
            rpcs: m.counter("rpc.completed") + m.counter("rpc.faulted"),
            stale_bindings: m.counter("rpc.stale_binding_discovered"),
            updates: m.counter("manager.updates_done"),
            mapped: m.counter("dcdo.components_mapped"),
            cache_hits: m.counter("dcdo.component_cache_hits"),
            cache_misses: m.counter("dcdo.component_cache_misses"),
        }
    }

    /// Field-wise `self - earlier`.
    pub fn since(self, e: Counts) -> Self {
        Counts {
            allocs: self.allocs - e.allocs,
            bytes: self.bytes - e.bytes,
            events: self.events - e.events,
            msgs: self.msgs - e.msgs,
            spans: self.spans - e.spans,
            dyn_calls: self.dyn_calls - e.dyn_calls,
            binding_queries: self.binding_queries - e.binding_queries,
            rpcs: self.rpcs - e.rpcs,
            stale_bindings: self.stale_bindings - e.stale_bindings,
            updates: self.updates - e.updates,
            mapped: self.mapped - e.mapped,
            cache_hits: self.cache_hits - e.cache_hits,
            cache_misses: self.cache_misses - e.cache_misses,
        }
    }

    /// Whether `other` did the same simulated work. Allocations are left
    /// out: the benchmark's own tracer allocates in a traced run.
    pub fn same_sim_work(&self, other: &Counts) -> bool {
        let strip = |c: &Counts| Counts {
            allocs: 0,
            bytes: 0,
            ..*c
        };
        strip(self) == strip(other)
    }

    /// The per-op counts every workload reports in its traced run.
    pub fn per_layer(&self, ops: u64, m: &mut Metrics) {
        let per = |n: u64| stats::ratio(n, ops);
        m.set("bench.bytes_per_op", per(self.bytes), "B");
        m.set("sim.events_per_op", per(self.events), "count");
        m.set("sim.msgs_per_op", per(self.msgs), "count");
        m.set("vm.dyn_calls_per_op", per(self.dyn_calls), "count");
        m.set(
            "legion.binding_queries_per_op",
            per(self.binding_queries),
            "count",
        );
        m.set("legion.rpc_per_op", per(self.rpcs), "count");
        m.set("legion.stale_bindings", self.stale_bindings as f64, "count");
        m.set("trace.spans_per_op", per(self.spans), "count");
        m.set("core.updates_per_round", per(self.updates), "count");
        m.set(
            "core.components_mapped_per_round",
            per(self.mapped),
            "count",
        );
        m.set(
            "core.component_cache_hit_ratio",
            stats::ratio(self.cache_hits, self.cache_hits + self.cache_misses),
            "ratio",
        );
    }
}

/// What a simulator-only speed-up must leave unchanged: final simulated
/// time, events processed, and the median simulated op latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub sim_ns: u64,
    pub events: u64,
    pub op_sim_p50_ns: u64,
}

impl Fingerprint {
    /// `sim_lat_ns` is sorted in place; its lower median is used, so the
    /// value stays an exact integer.
    pub fn new(sim_ns: u64, events: u64, sim_lat_ns: &mut [u64]) -> Self {
        sim_lat_ns.sort_unstable();
        let op_sim_p50_ns = match sim_lat_ns.len() {
            0 => 0,
            n => sim_lat_ns[(n - 1) / 2],
        };
        Fingerprint {
            sim_ns,
            events,
            op_sim_p50_ns,
        }
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"sim_ns\": {}, \"events\": {}, \"op_sim_p50_ns\": {}}}",
            self.sim_ns, self.events, self.op_sim_p50_ns
        )
    }
}

/// A workload driven one op at a time against a world it sets up.
pub trait ClosedLoop {
    type World;

    /// Builds a fresh world with the same state every time.
    fn setup(&mut self, tracer: &mut Tracer) -> Self::World;

    /// Runs op `i` of a pass and checks its output.
    fn op(&mut self, world: &mut Self::World, i: u64, tracer: &mut Tracer, checks: &mut Checks);

    fn sim<'w>(&self, world: &'w Self::World) -> &'w Simulation<Msg>;

    fn sim_mut<'w>(&self, world: &'w mut Self::World) -> &'w mut Simulation<Msg>;

    /// Dynamic calls the world's DFMs have resolved so far.
    fn dyn_calls(&self, world: &Self::World) -> u64;

    /// Ops in one pass.
    fn ops_per_pass(&self) -> u64;
}

/// One pass: a fresh world and the same fixed batch of ops on it.
pub struct Pass {
    pub setup: Duration,
    /// The ops and the final drain of the event queue.
    pub batch: Duration,
    /// Set-up through final checks.
    pub wall: Duration,
    pub counts: Counts,
    pub fingerprint: Fingerprint,
    pub op_us: Vec<f64>,
}

/// Sets up a world and runs one pass on it, ending with a drain of the
/// event queue.
pub fn pass<B: ClosedLoop>(
    bench: &mut B,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (B::World, Pass) {
    let n = bench.ops_per_pass();
    let mut sim_lat = Vec::with_capacity(n as usize);
    let mut op_us = Vec::with_capacity(n as usize);
    let t0 = Instant::now();
    let open = tracer.begin("bench.setup");
    let mut world = bench.setup(tracer);
    tracer.end(open);
    let setup = t0.elapsed();

    let before = Counts::read(bench.sim(&world), bench.dyn_calls(&world));
    let t1 = Instant::now();
    for i in 0..n {
        let s0 = bench.sim(&world).now();
        let t = Instant::now();
        tracer.set_op(i);
        let open = tracer.begin("bench.op");
        bench.op(&mut world, i, tracer, checks);
        tracer.end(open);
        op_us.push(stats::us(t.elapsed()));
        sim_lat.push(bench.sim(&world).now().duration_since(s0).as_nanos());
    }
    let open = tracer.begin("sim.drain");
    bench.sim_mut(&mut world).run_until_idle();
    tracer.end(open);
    let batch = t1.elapsed();
    let counts = Counts::read(bench.sim(&world), bench.dyn_calls(&world)).since(before);
    let sim = bench.sim(&world);
    let fingerprint = Fingerprint::new(sim.now().as_nanos(), sim.events_processed(), &mut sim_lat);
    let wall = t0.elapsed();
    (
        world,
        Pass {
            setup,
            batch,
            wall,
            counts,
            fingerprint,
            op_us,
        },
    )
}

/// What a run of passes produced.
pub struct Run<W> {
    /// Passes made with the tracer off.
    pub untraced: Vec<Pass>,
    /// Passes made with the tracer on (traced runs only).
    pub traced: Vec<Pass>,
    /// The world of the last pass.
    pub world: W,
    pub tracer: Tracer,
}

/// Repeats passes until `seconds` of host time have passed. A traced run
/// alternates untraced and traced passes, so both sample the same stretch
/// of host time. Every pass of one seed must leave the same sim-time
/// fingerprint, traced or not.
pub fn run<B: ClosedLoop>(
    bench: &mut B,
    seconds: u64,
    traced: bool,
    checks: &mut Checks,
) -> Run<B::World> {
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(traced);
    // A warm-up pass fills process-wide caches (interned names and the
    // like), so every reported pass starts from the same state.
    let (_, warm) = pass(bench, &mut off, checks);
    let (mut untraced, mut traced_passes) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut k = 0u64;
    let world = loop {
        let on = traced && k % 2 == 1;
        let (world, p) = pass(bench, if on { &mut tracer } else { &mut off }, checks);
        checks.check(p.fingerprint == warm.fingerprint, || {
            format!(
                "sim-time fingerprint {} differs from the first pass's {} (tracer {})",
                p.fingerprint.to_json(),
                warm.fingerprint.to_json(),
                if on { "on" } else { "off" }
            )
        });
        if on {
            traced_passes.push(p);
        } else {
            untraced.push(p);
        }
        k += 1;
        if start.elapsed() >= budget && (!traced || !traced_passes.is_empty()) {
            break world;
        }
    };
    eprintln!("hostbench: fingerprint {}", warm.fingerprint.to_json());
    Run {
        untraced,
        traced: traced_passes,
        world,
        tracer,
    }
}

/// Whether every pass counted exactly the same work (allocations included
/// when `with_allocs`).
fn counts_repeat(passes: &[&Pass], with_allocs: bool) -> bool {
    passes.windows(2).all(|w| {
        if with_allocs {
            w[0].counts == w[1].counts
        } else {
            w[0].counts.same_sim_work(&w[1].counts)
        }
    })
}

/// An untraced run and its end-to-end metrics: medians over passes.
pub fn end_to_end<B: ClosedLoop>(bench: &mut B, seconds: u64, checks: &mut Checks) -> Metrics {
    let run = run(bench, seconds, false, checks);
    let passes = &run.untraced;
    let n = bench.ops_per_pass();
    let all: Vec<&Pass> = passes.iter().collect();
    if !counts_repeat(&all, true) {
        eprintln!("hostbench: exact counts did not repeat across passes of one seed");
    }
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        stats::median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let op_us: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.op_us.iter().copied())
        .collect();
    let mut m = Metrics::default();
    m.set("setup_s", per_pass(&|p| p.setup.as_secs_f64()), "s");
    m.set("wall_s", per_pass(&|p| p.wall.as_secs_f64()), "s");
    m.set(
        "ops_per_s",
        per_pass(&|p| n as f64 / p.batch.as_secs_f64()),
        "1/s",
    );
    m.set(
        "events_per_s",
        per_pass(&|p| p.counts.events as f64 / p.batch.as_secs_f64()),
        "1/s",
    );
    m.set("op_us_p50", stats::median(&op_us), "us");
    m.set("op_us_p90", stats::quantile(&op_us, 0.9), "us");
    m.set(
        "allocs_per_op",
        stats::ratio(passes[0].counts.allocs, n),
        "count",
    );
    m
}

/// A traced run: the per-layer metrics its counts and spans give, and the
/// tracer for export.
pub fn traced<B: ClosedLoop>(
    bench: &mut B,
    seconds: u64,
    checks: &mut Checks,
) -> (Metrics, Tracer, Fingerprint) {
    let mut run = run(bench, seconds, true, checks);
    let n = bench.ops_per_pass();
    let first = &run.untraced[0];
    let all: Vec<&Pass> = run.untraced.iter().chain(&run.traced).collect();
    let batch =
        |ps: &[Pass]| stats::median(&ps.iter().map(|p| p.batch.as_secs_f64()).collect::<Vec<_>>());

    let mut m = Metrics::default();
    first.counts.per_layer(n, &mut m);
    m.set(
        "sim.peak_pending_events",
        bench.sim(&run.world).peak_pending_events() as f64,
        "count",
    );
    m.set(
        "sim.drain_ms",
        stats::median(&run.tracer.durations_us("sim.drain")) / 1e3,
        "ms",
    );
    m.set(
        "bench.counts_repeat",
        f64::from(u8::from(counts_repeat(&all, false))),
        "bool",
    );
    m.set(
        "bench.trace_overhead_x",
        batch(&run.traced) / batch(&run.untraced),
        "x",
    );
    let export = Instant::now();
    let sim = bench.sim_mut(&mut run.world);
    let json = sim.timeline_mut().to_json();
    let prom = sim.timeline_mut().to_prometheus();
    std::hint::black_box((json, prom));
    m.set("sim.timeline_export_ms", stats::ms(export.elapsed()), "ms");
    let fingerprint = first.fingerprint;
    (m, run.tracer, fingerprint)
}
