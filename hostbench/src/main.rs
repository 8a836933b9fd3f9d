//! Host-time benchmark of the DCDO stack.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload invoke|evolve|mixed_traffic --seed N --seconds S --trace 0|1
//! ```
//!
//! Single process, single thread: the sim engine is pinned to one worker
//! thread whatever `DCDO_SIM_THREADS` says. With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it reports the
//! per-layer metrics and writes its spans to `hostbench/out/`. The last
//! line of standard output is the JSON result. See `README.md` for the
//! metrics and workloads.

mod alloc;
mod closed_loop;
mod evolve;
mod invoke;
mod mixed;
mod stats;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use closed_loop::{Checks, Fingerprint};
use stats::Metrics;
use tracer::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The engine's worker-thread count, pinned for every run.
const SIM_THREADS: u32 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Invoke,
    Evolve,
    MixedTraffic,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "invoke" => Some(Workload::Invoke),
            "evolve" => Some(Workload::Evolve),
            "mixed_traffic" => Some(Workload::MixedTraffic),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Invoke => "invoke",
            Workload::Evolve => "evolve",
            Workload::MixedTraffic => "mixed_traffic",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// An untraced run: the end-to-end metrics.
fn end_to_end(args: &Args, checks: &mut Checks) -> Result<Metrics, String> {
    let mut m = match args.workload {
        Workload::Invoke => {
            closed_loop::end_to_end(&mut invoke::Invoke::new(args.seed), args.seconds, checks)
        }
        Workload::Evolve => {
            closed_loop::end_to_end(&mut evolve::Evolve::new(args.seed), args.seconds, checks)
        }
        Workload::MixedTraffic => mixed::end_to_end(args.seed, args.seconds, checks)?,
    };
    m.set("peak_rss_mb", stats::peak_rss_mb(), "MB");
    Ok(m)
}

/// A traced run: the per-layer metrics. Layers the chosen workload does
/// not exercise are timed on a fixed batch of the workload that does, at
/// the same seed.
fn per_layer(args: &Args, checks: &mut Checks) -> Result<(Metrics, Tracer, Fingerprint), String> {
    let (seed, seconds) = (args.seed, args.seconds);
    let (mut m, mut tracer, fingerprint) = match args.workload {
        Workload::Invoke => closed_loop::traced(&mut invoke::Invoke::new(seed), seconds, checks),
        Workload::Evolve => closed_loop::traced(&mut evolve::Evolve::new(seed), seconds, checks),
        Workload::MixedTraffic => {
            let mut tracer = Tracer::new(true);
            let (m, fp) = mixed::traced(seed, seconds, &mut tracer, checks)?;
            (m, tracer, fp)
        }
    };
    m.fill_from(invoke::layer_probes(seed, &mut tracer, checks));
    if args.workload != Workload::Evolve {
        let _ = closed_loop::pass(&mut evolve::Evolve::new(seed), &mut tracer, checks);
    }
    m.fill_from(evolve::timings(&tracer));
    if args.workload != Workload::MixedTraffic {
        m.fill_from(mixed::sweep(seed, &mut tracer)?);
    }
    Ok((m, tracer, fingerprint))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload invoke|evolve|mixed_traffic --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    dcdo_sim::set_default_threads(SIM_THREADS);
    let start = Instant::now();
    let mut checks = Checks::default();
    let result = if args.trace {
        per_layer(&args, &mut checks).map(|(m, tracer, fp)| {
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
            let header = [
                ("workload", format!("\"{}\"", args.workload.name())),
                ("seed", args.seed.to_string()),
                ("sim_threads", SIM_THREADS.to_string()),
                ("fingerprint", fp.to_json()),
            ];
            if let Err(e) = tracer.write_json(&path, &header) {
                eprintln!("hostbench: could not write {}: {e}", path.display());
            }
            for (name, t) in tracer.layer_times() {
                eprintln!(
                    "hostbench: span {name:<32} n={:<8} total={:>10.3} ms self={:>10.3} ms",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
            m
        })
    } else {
        end_to_end(&args, &mut checks)
    };
    let mut metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(why) = checks.first_failure() {
        eprintln!("hostbench: check failed: {why}");
    }
    if !args.trace {
        metrics.set(
            "ok_frac",
            1.0 - stats::ratio(checks.failed, checks.attempted),
            "ratio",
        );
    }
    eprintln!(
        "hostbench: {} seed {} trace {} sim_threads {SIM_THREADS}: {:.2} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        start.elapsed().as_secs_f64()
    );
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{}",
        stats::result_line(correct, checks.attempted.max(1), checks.failed, &metrics)
    );
    ExitCode::SUCCESS
}
