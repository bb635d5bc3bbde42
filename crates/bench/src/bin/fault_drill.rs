//! Crash/resume drill: seeded `PE_FAULT` kills against the live
//! pipeline and store, asserting byte-exact recovery. Writes
//! `BENCH_fault.json` and exits non-zero when any cycle is red.

fn main() {
    let knobs = pe_bench::Knobs::from_env_or_exit();
    // This binary re-executes itself as fault-armed children; dispatch
    // a child role (and exit) before doing any parent work.
    if pe_bench::fault_drill::child_dispatch(&knobs) {
        return;
    }
    let scratch = std::path::Path::new("target/experiments/fault_drill");
    let report = pe_bench::fault_drill::run(scratch);
    println!("{}", pe_bench::fault_drill::render(&report));
    println!("{}", pe_bench::fault_drill::summary(&report));
    pe_bench::format::write_json("BENCH_fault", &report);
    if report.green < report.total {
        std::process::exit(1);
    }
}
