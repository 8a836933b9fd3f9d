//! Exports a Chrome-trace JSON of one traced run (the fan-out workload)
//! and prints the log's build-independent digest. CI runs this in both
//! debug and release and diffs the digests — the cross-build determinism
//! witness — then uploads the JSON so any run can be opened in
//! `chrome://tracing` / Perfetto.
//!
//! Usage: `cargo run -p dcdo-bench --bin trace_export [-- out.json]`

use dcdo_workloads::simbench;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "TRACE_fan_out.json".to_string());
    let (mut sim, budget) = simbench::fan_out_sim(50, 8, 16);
    sim.spans_mut().enable();
    sim.run_with_budget(budget);
    sim.run_until_idle();

    let violations = dcdo_sim::check_trace_invariants(sim.spans());
    for v in &violations {
        eprintln!("trace invariant violated: {v}");
    }
    assert!(violations.is_empty(), "exported trace must be clean");

    std::fs::write(&out_path, sim.spans().to_chrome_trace()).expect("write chrome trace");
    println!(
        "wrote {out_path}: {} spans, digest {:016x}",
        sim.spans().len(),
        sim.spans().digest()
    );
}
