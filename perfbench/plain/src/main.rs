//! The perfbench workloads that time the simulator `repro` users run:
//! `figs` and `fleet`. This binary's dependency graph is ppa-bench's,
//! with neither `ppa-core/verify` nor `prof`; `run.py` checks that with
//! `cargo tree` before it runs, and the binary itself refuses to time
//! anything if the core's profiler is compiled in.

mod figs;
mod fleet;

fn main() {
    perfbench_harness::main_for("perfbench-plain", |args| match args.workload.as_str() {
        "figs" => Some(figs::run(args)),
        "fleet" => Some(fleet::run(args)),
        _ => None,
    });
}
