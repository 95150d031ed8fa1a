//! The perfbench workload that times the checking stack: `crash`. This
//! binary's dependency graph is ppa-verify's, which turns on
//! `ppa-core/verify`; `run.py` checks that with `cargo tree` before it
//! runs, and the binary itself refuses to time anything if the core's
//! profiler is compiled in.

mod crash;

fn main() {
    perfbench_harness::main_for("perfbench-checked", |args| match args.workload.as_str() {
        "crash" => Some(crash::run(args)),
        _ => None,
    });
}
