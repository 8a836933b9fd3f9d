//! `mixed_traffic`: the declared scenario (80/15/5 counter calls, config
//! ops and live migrations), with the seed and tick window set here.
//!
//! Untraced runs go through `dcdo_scenario::run_artifacts` /
//! `run_with_threads` at one engine thread — the path `dcdo-inspect
//! scenario` takes. The traced run replays the runner's sequence through the
//! public `Workload::setup`/`step` calls on a `RunCx`, with the same
//! weighted per-lane draw and the same post-run calls, timing each one.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dcdo_core::DcdoObject;
use dcdo_scenario::{registry, RunCx, Scenario, ScenarioReport, Window};
use dcdo_sim::{check_trace_invariants, tail_sample, NodeId, RpcOutcome, SpanEvent, SpanKind};

use crate::alloc::AllocCount;
use crate::closed_loop::{Checks, Counts, Fingerprint};
use crate::stats::{self, Metrics, Rng};
use crate::tracer::Tracer;

/// Ticks per scenario run.
pub const TICKS: u64 = 4_000;
/// Scenario seeds an untraced run cycles through, so its figures average
/// over several traffic mixes drawn from the benchmark seed.
const SEEDS: u64 = 16;
/// The tail-sampling cut the runner uses.
const SLOW_QUANTILE: f64 = dcdo_scenario::FLIGHT_SLOW_QUANTILE;

/// The scenario seed of run `i` of a benchmark run with seed `seed`.
pub fn run_seed(seed: u64, i: u64) -> u64 {
    Rng::new(seed.wrapping_mul(0x100_0000_01b3).wrapping_add(i)).next_u64() >> 16
}

/// The declared `mixed_traffic` text with its seed and tick window
/// replaced.
pub fn scenario_text(seed: u64, ticks: u64) -> Result<String, String> {
    let text = registry::declared_text("mixed_traffic")
        .ok_or("no declared scenario named mixed_traffic")?;
    let mut replaced = (false, false);
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            if line.starts_with("seed ") {
                replaced.0 = true;
                format!("seed {seed}")
            } else if line.starts_with("window ticks=") {
                replaced.1 = true;
                format!("window ticks={ticks}")
            } else {
                line.to_string()
            }
        })
        .collect();
    if replaced != (true, true) {
        return Err("mixed_traffic declaration has no `seed` or `window ticks=` line".into());
    }
    Ok(lines.join("\n") + "\n")
}

fn scenario(seed: u64) -> Result<Scenario, String> {
    Scenario::from_text(&scenario_text(seed, TICKS)?).map_err(|e| e.to_string())
}

/// Sim-time fingerprint from a span log: last span time, events processed,
/// and median first-attempt-to-completion RPC latency.
fn fingerprint(spans: &[SpanEvent], events: u64) -> Fingerprint {
    let mut first: BTreeMap<u64, u64> = BTreeMap::new();
    let mut lat = Vec::new();
    for e in spans {
        match &e.kind {
            SpanKind::RpcAttempt { call, .. } => {
                first.entry(*call).or_insert(e.at_ns);
            }
            SpanKind::RpcCompleted { call, .. } => {
                if let Some(t0) = first.get(call) {
                    lat.push(e.at_ns - t0);
                }
            }
            _ => {}
        }
    }
    let end = spans.iter().map(|e| e.at_ns).max().unwrap_or(0);
    Fingerprint::new(end, events, &mut lat)
}

/// Checks a runner report: every verdict passed and no op failed.
fn check_report(report: &ScenarioReport, checks: &mut Checks) {
    for v in &report.verdicts {
        checks.check(v.passed, || {
            format!(
                "seed {}: verdict {} failed: {}",
                report.seed, v.expectation, v.detail
            )
        });
    }
    for key in ["calls.err", "config_ops.err", "migrations.err"] {
        let n = report
            .counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, n)| *n);
        checks.check(n == 0, || format!("seed {}: {key} = {n}", report.seed));
    }
}

/// One runner run through `run_artifacts`, its wall time and allocations.
struct RunnerRun {
    report: ScenarioReport,
    fingerprint: Fingerprint,
    spans: u64,
    allocs: AllocCount,
    wall: Duration,
}

fn runner_run(seed: u64, checks: &mut Checks) -> Result<RunnerRun, String> {
    let a0 = AllocCount::now();
    let t0 = Instant::now();
    let scenario = scenario(seed)?;
    let artifacts = dcdo_scenario::run_artifacts(scenario, Some(1)).map_err(|e| e.to_string())?;
    check_report(&artifacts.report, checks);
    let wall = t0.elapsed();
    let allocs = AllocCount::since(a0);
    let fingerprint = fingerprint(&artifacts.spans, artifacts.report.events_processed);
    Ok(RunnerRun {
        spans: artifacts.spans.len() as u64,
        report: artifacts.report,
        fingerprint,
        allocs,
        wall,
    })
}

/// Parses the scenario and builds and sets up its world, as the runner
/// does before its window opens.
fn set_up(seed: u64, span_log: bool, tracer: &mut Tracer) -> Result<(Scenario, RunCx), String> {
    let open = tracer.begin("scenario.parse");
    let mut scenario = scenario(seed)?;
    tracer.end(open);
    scenario.validate().map_err(|e| e.to_string())?;
    let open = tracer.begin("scenario.setup");
    let mut cx = RunCx::new(scenario.seed, scenario.topology.build(scenario.seed));
    let sim = cx
        .world
        .sim_mut()
        .ok_or("mixed_traffic builds no simulation")?;
    sim.set_threads(1);
    sim.trace_mut().enable(1 << 18);
    if span_log {
        sim.spans_mut().enable();
    }
    for slot in &mut scenario.workloads {
        slot.workload.setup(&mut cx);
    }
    for expectation in &mut scenario.expectations {
        expectation.capture(&cx);
    }
    tracer.end(open);
    Ok((scenario, cx))
}

/// Dynamic calls resolved by every live DCDO's DFM.
fn live_dyn_calls(cx: &RunCx) -> u64 {
    let Some(bed) = cx.world.testbed() else {
        return 0;
    };
    bed.nodes
        .iter()
        .flat_map(|n| bed.sim.actors_on(*n))
        .filter_map(|a| bed.sim.actor::<DcdoObject>(a))
        .map(|d| d.dfm().dispatches())
        .sum()
}

fn step_span(workload: &str) -> &'static str {
    match workload {
        "calls" => "scenario.step.calls",
        "config_ops" => "scenario.step.config_ops",
        "migrations" => "scenario.step.migrations",
        _ => "scenario.step.other",
    }
}

/// Writes the windowed series the runner derives from the span log into
/// the timeline before judging (the runner's `derive_windowed_series`).
fn derive_windowed_series(cx: &mut RunCx) {
    let Some(sim) = cx.world.sim_mut() else {
        return;
    };
    let mut samples: Vec<(u64, &'static str, f64)> = Vec::new();
    let mut counters: Vec<(u64, &'static str, u64)> = Vec::new();
    let mut flow_start: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rpc_start: BTreeMap<u64, u64> = BTreeMap::new();
    for e in sim.spans().events() {
        match &e.kind {
            SpanKind::FlowStarted { flow, .. } => {
                flow_start.entry(*flow).or_insert(e.at_ns);
            }
            SpanKind::FlowCompleted { flow } | SpanKind::FlowAborted { flow } => {
                if let Some(t0) = flow_start.get(flow) {
                    samples.push((e.at_ns, "lat.flow", (e.at_ns - t0) as f64 / 1e9));
                }
                let name = if matches!(e.kind, SpanKind::FlowCompleted { .. }) {
                    "ok.flow"
                } else {
                    "err.flow"
                };
                counters.push((e.at_ns, name, 1));
            }
            SpanKind::RpcAttempt { call, .. } => {
                rpc_start.entry(*call).or_insert(e.at_ns);
            }
            SpanKind::RpcCompleted { call, outcome } => {
                if let Some(t0) = rpc_start.get(call) {
                    samples.push((e.at_ns, "lat.rpc", (e.at_ns - t0) as f64 / 1e9));
                }
                let name = match outcome {
                    RpcOutcome::Ok => "ok.rpc",
                    _ => "err.rpc",
                };
                counters.push((e.at_ns, name, 1));
            }
            SpanKind::CallServed { .. } => counters.push((e.at_ns, "served", 1)),
            _ => {}
        }
    }
    let timeline = sim.timeline_mut();
    for (at_ns, name, value) in samples {
        timeline.record_sample(at_ns, name, value);
    }
    for (at_ns, name, delta) in counters {
        timeline.record_counter(at_ns, name, delta);
    }
    timeline.flush();
}

/// What a replay produced.
struct Replay {
    drive: Duration,
    trace_hash: u64,
    span_digest: u64,
    events: u64,
    passed: bool,
    fingerprint: Fingerprint,
    counts: Counts,
    peak_pending: u64,
}

/// Replays the runner's sequence for scenario seed `seed`, with the
/// program's span log on or off, timing each layer call in `tracer`.
fn replay(seed: u64, span_log: bool, tracer: &mut Tracer) -> Result<Replay, String> {
    let (mut scenario, mut cx) = set_up(seed, span_log, tracer)?;
    let Window::Ticks(n) = scenario.window else {
        return Err("mixed_traffic is not a tick window".into());
    };
    let lane_node = cx
        .service
        .map(|s| s.client_node)
        .unwrap_or_else(|| NodeId::from_raw(0));
    let weights: Vec<u64> = scenario.workloads.iter().map(|s| s.weight).collect();
    let total: u64 = weights.iter().sum();
    let mut picks = vec![0u64; weights.len()];
    let sim = cx.world.sim().ok_or("no simulation")?;
    let before = Counts::read(sim, 0);
    let dyn0 = live_dyn_calls(&cx);
    let mut dyn_lost = 0;

    let drive_start = Instant::now();
    for tick in 0..n {
        let mut draw = cx
            .world
            .sim_mut()
            .ok_or("no simulation")?
            .rng_for(lane_node)
            .range_u64(0, total);
        let mut picked = 0;
        for (i, &w) in weights.iter().enumerate() {
            if draw < w {
                picked = i;
                break;
            }
            draw -= w;
        }
        let name = step_span(scenario.workloads[picked].workload.name());
        // A migration replaces the instance's actor; keep the calls its
        // DFM had resolved.
        let moving = name == "scenario.step.migrations";
        let dyn_before = if moving { live_dyn_calls(&cx) } else { 0 };
        tracer.set_op(tick);
        let open = tracer.begin(name);
        scenario.workloads[picked].workload.step(&mut cx, tick);
        tracer.end(open);
        if moving {
            dyn_lost += dyn_before.saturating_sub(live_dyn_calls(&cx));
        }
        picks[picked] += 1;
    }
    let open = tracer.begin("sim.drain");
    cx.world.sim_mut().ok_or("no simulation")?.run_until_idle();
    tracer.end(open);
    let drive = drive_start.elapsed();

    let sim = cx.world.sim().ok_or("no simulation")?;
    let mut counts = Counts::read(sim, 0).since(before);
    counts.dyn_calls = live_dyn_calls(&cx) + dyn_lost - dyn0;
    let peak_pending = sim.peak_pending_events() as u64;
    for (slot, &count) in scenario.workloads.iter().zip(&picks) {
        if slot.weight == 0 {
            continue;
        }
        let name = slot.workload.name().to_string();
        cx.gauge(
            &format!("mix.{name}.expected"),
            slot.weight as f64 / total as f64,
        );
        cx.gauge(
            &format!("mix.{name}.observed"),
            count as f64 / n.max(1) as f64,
        );
    }

    let open = tracer.begin("scenario.measure");
    for slot in &mut scenario.workloads {
        slot.workload.measure(&mut cx);
    }
    tracer.end(open);
    tracer.span("trace.derive_series", || derive_windowed_series(&mut cx));
    let open = tracer.begin("scenario.judge");
    // Judge every expectation, as the runner does, before looking at any.
    let verdicts: Vec<_> = scenario
        .expectations
        .iter_mut()
        .map(|e| e.judge(&cx))
        .collect();
    let passed = verdicts.iter().all(|v| v.passed);
    tracer.end(open);

    let sim = cx.world.sim().ok_or("no simulation")?;
    let trace_hash = tracer.span("trace.trace_hash", || dcdo_chaos::trace_hash(sim.trace()));
    let span_digest = tracer.span("trace.span_digest", || sim.spans().digest());
    let events = sim.events_processed();
    let violations = tracer.span("trace.check_invariants", || {
        check_trace_invariants(sim.spans()).len()
    });
    let spans = tracer.span("trace.span_copy", || sim.spans().events().to_vec());
    let flight = tracer.span("trace.tail_sample", || {
        tail_sample(sim.spans(), sim.flight(), SLOW_QUANTILE)
    });
    std::hint::black_box((violations, sim.flight().digest(), flight));
    let fingerprint = fingerprint(&spans, events);
    let sim = cx.world.sim_mut().ok_or("no simulation")?;
    let open = tracer.begin("sim.timeline_export");
    let exports = (
        sim.timeline_mut().to_json(),
        sim.timeline_mut().to_prometheus(),
    );
    tracer.end(open);
    std::hint::black_box(exports);
    Ok(Replay {
        drive,
        trace_hash,
        span_digest,
        events,
        passed,
        fingerprint,
        counts,
        peak_pending,
    })
}

/// An untraced run: whole cycles of runner runs through `SEEDS` scenario
/// seeds until `seconds` have passed, each run after one timed set-up.
/// Every run of one scenario seed must leave the same fingerprint.
pub fn end_to_end(seed: u64, seconds: u64, checks: &mut Checks) -> Result<Metrics, String> {
    let seeds: Vec<u64> = (0..SEEDS).map(|i| run_seed(seed, i)).collect();
    let mut off = Tracer::new(false);
    // A warm-up cycle fills process-wide caches, so every reported run
    // starts from the same state, and records each seed's fingerprint.
    let mut warm = Vec::new();
    for &s in &seeds {
        warm.push(runner_run(s, checks)?.fingerprint);
    }
    let mut setup = Vec::new();
    let mut runs: Vec<RunnerRun> = Vec::new();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while start.elapsed() < budget || !runs.len().is_multiple_of(seeds.len()) || runs.is_empty() {
        let k = runs.len() % seeds.len();
        let t0 = Instant::now();
        drop(set_up(seeds[k], true, &mut off)?);
        setup.push(t0.elapsed().as_secs_f64());
        let run = runner_run(seeds[k], checks)?;
        checks.check(run.fingerprint == warm[k], || {
            format!(
                "seed {}: sim-time fingerprint {} differs from the first run's {}",
                seeds[k],
                run.fingerprint.to_json(),
                warm[k].to_json()
            )
        });
        if let Some(earlier) = runs.get(runs.len().wrapping_sub(seeds.len())) {
            if earlier.allocs != run.allocs {
                eprintln!(
                    "hostbench: allocations did not repeat for seed {}",
                    seeds[k]
                );
            }
        }
        runs.push(run);
    }
    eprintln!("hostbench: fingerprint {}", warm[0].to_json());
    // A cycle runs every scenario seed once; its totals weigh each traffic
    // mix equally, and the median over cycles discards host stalls.
    let per_cycle = |f: &dyn Fn(&RunnerRun) -> f64, g: &dyn Fn(&RunnerRun) -> f64| -> f64 {
        let ratios: Vec<f64> = runs
            .chunks(seeds.len())
            .map(|c| c.iter().map(f).sum::<f64>() / c.iter().map(g).sum::<f64>())
            .collect();
        stats::median(&ratios)
    };
    let wall = |r: &RunnerRun| r.wall.as_secs_f64();
    let per_tick_us: Vec<f64> = runs
        .iter()
        .map(|r| r.wall.as_secs_f64() * 1e6 / TICKS as f64)
        .collect();
    let allocs: u64 = runs[..seeds.len()].iter().map(|r| r.allocs.allocs).sum();

    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&setup), "s");
    m.set("wall_s", per_cycle(&wall, &|_| 1.0), "s");
    m.set("ops_per_s", per_cycle(&|_| TICKS as f64, &wall), "1/s");
    m.set(
        "events_per_s",
        per_cycle(&|r| r.report.events_processed as f64, &wall),
        "1/s",
    );
    m.set("op_us_p50", stats::median(&per_tick_us), "us");
    m.set("op_us_p90", stats::quantile(&per_tick_us, 0.9), "us");
    m.set(
        "allocs_per_op",
        stats::ratio(allocs, TICKS * seeds.len() as u64),
        "count",
    );
    Ok(m)
}

/// The per-layer timings of the scenario runner's calls, from the spans
/// replays recorded in `tracer`.
pub fn timings(tracer: &Tracer) -> Metrics {
    let med_us = |name: &str| stats::median(&tracer.durations_us(name));
    let mut m = Metrics::default();
    m.set("sim.drain_ms", med_us("sim.drain") / 1e3, "ms");
    m.set(
        "sim.timeline_export_ms",
        med_us("sim.timeline_export") / 1e3,
        "ms",
    );
    m.set("scenario.parse_us", med_us("scenario.parse"), "us");
    for w in ["calls", "config_ops", "migrations"] {
        m.set(&format!("scenario.step_us.{w}"), med_us(step_span(w)), "us");
    }
    m.set(
        "trace.check_invariants_ms",
        med_us("trace.check_invariants") / 1e3,
        "ms",
    );
    m.set(
        "trace.tail_sample_ms",
        med_us("trace.tail_sample") / 1e3,
        "ms",
    );
    m.set(
        "trace.span_digest_ms",
        med_us("trace.span_digest") / 1e3,
        "ms",
    );
    m.set(
        "trace.trace_hash_ms",
        med_us("trace.trace_hash") / 1e3,
        "ms",
    );
    m
}

/// Three replays of scenario seed `seed`: traced with the span log on,
/// untraced with it on, and untraced with it off. The traced replay
/// records its spans in `tracer`.
fn replay_trio(seed: u64, tracer: &mut Tracer) -> Result<[Replay; 3], String> {
    let mut off = Tracer::new(false);
    Ok([
        replay(seed, true, tracer)?,
        replay(seed, true, &mut off)?,
        replay(seed, false, &mut off)?,
    ])
}

/// Median drive time of `num` ÷ that of `den`.
fn drive_ratio(num: &[Duration], den: &[Duration]) -> f64 {
    let med =
        |d: &[Duration]| stats::median(&d.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
    med(num) / med(den)
}

/// The scenario layers' timings for a traced run of another workload:
/// one trio of replays.
pub fn sweep(seed: u64, tracer: &mut Tracer) -> Result<Metrics, String> {
    let [_, untraced, log_off] = replay_trio(run_seed(seed, 0), tracer)?;
    let mut m = timings(tracer);
    m.set(
        "trace.span_log_overhead_x",
        drive_ratio(&[untraced.drive], &[log_off.drive]),
        "x",
    );
    Ok(m)
}

/// A traced run. A runner run sets the reference; then trios of replays
/// of the same seed (traced, untraced, span log off) repeat until
/// `seconds` have passed. Every replay with the span log on must match the
/// runner's trace hash, span digest, events and fingerprint.
pub fn traced(
    seed: u64,
    seconds: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<(Metrics, Fingerprint), String> {
    let s0 = run_seed(seed, 0);
    let runner = runner_run(s0, checks)?;
    let r = &runner.report;
    let mut drives: [Vec<Duration>; 3] = Default::default();
    let mut first: Option<Replay> = None;
    let mut repeat = true;
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while start.elapsed() < budget || first.is_none() {
        let trio = replay_trio(s0, tracer)?;
        for (k, replay) in trio.into_iter().enumerate() {
            drives[k].push(replay.drive);
            if k == 2 {
                continue;
            }
            let what = if k == 0 { "traced" } else { "untraced" };
            checks.check(replay.passed, || {
                format!("seed {s0}: {what} replay verdicts failed")
            });
            checks.check(
                (replay.trace_hash, replay.span_digest, replay.events, replay.fingerprint)
                    == (r.trace_hash, r.span_digest, r.events_processed, runner.fingerprint),
                || {
                    format!(
                        "seed {s0}: {what} replay (hash {:x}, digest {:x}, events {}, fingerprint {}) differs from runner (hash {:x}, digest {:x}, events {}, fingerprint {})",
                        replay.trace_hash, replay.span_digest, replay.events, replay.fingerprint.to_json(),
                        r.trace_hash, r.span_digest, r.events_processed, runner.fingerprint.to_json()
                    )
                },
            );
            match &first {
                None => first = Some(replay),
                Some(f) => repeat &= f.counts.same_sim_work(&replay.counts),
            }
        }
    }
    let first = first.ok_or("no replay ran")?;

    let mut m = Metrics::default();
    first.counts.per_layer(TICKS, &mut m);
    m.set(
        "trace.spans_per_op",
        stats::ratio(runner.spans, TICKS),
        "count",
    );
    m.set(
        "sim.peak_pending_events",
        first.peak_pending as f64,
        "count",
    );
    m.set("bench.counts_repeat", f64::from(u8::from(repeat)), "bool");
    m.set(
        "bench.trace_overhead_x",
        drive_ratio(&drives[0], &drives[1]),
        "x",
    );
    m.fill_from(timings(tracer));
    m.set(
        "trace.span_log_overhead_x",
        drive_ratio(&drives[1], &drives[2]),
        "x",
    );
    Ok((m, runner.fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_text_sets_seed_and_window() {
        let text = scenario_text(7, 100).expect("declaration has both lines");
        assert!(text.lines().any(|l| l == "seed 7"));
        assert!(text.lines().any(|l| l == "window ticks=100"));
        let scenario = Scenario::from_text(&text).expect("parses");
        assert_eq!((scenario.seed, scenario.window), (7, Window::Ticks(100)));
    }

    #[test]
    fn run_seeds_differ_per_run_and_repeat_per_seed() {
        assert_eq!(run_seed(3, 1), run_seed(3, 1));
        assert_ne!(run_seed(3, 1), run_seed(3, 2));
        assert_ne!(run_seed(3, 0), run_seed(4, 0));
    }
}
