//! Collapsed-stack (flamegraph) rendering of the `prof.*` metrics
//! family.
//!
//! The cycle-attribution profiler (armed by `ppa_sim::set_profiling`;
//! pipeline stages also need ppa-core's `prof` feature) exports
//! nanosecond counters under names shaped like
//! `prof.<frame>.<frame>...<ns|cycles>`. [`collapsed_stacks`] folds the
//! `.ns` counters into the standard collapsed-stack text format that
//! `flamegraph.pl`, speedscope, and most profiler UIs ingest directly:
//!
//! ```text
//! core;step;commit 123456789
//! core;step;issue 98765432
//! smp;cores 4242
//! ```
//!
//! One line per stack, frames separated by `;`, the sample weight
//! (here: total nanoseconds) last, sorted by stack for diffability.

use crate::registry::{snapshot, Value};

/// Renders every `prof.*.ns` counter in the registry as one collapsed
/// stack line (`frame;frame;... <ns>`), sorted. Zero-valued stacks are
/// skipped — an unarmed profiler contributes nothing. Returns the
/// empty string when no profile data exists (e.g. profiling unarmed).
pub fn collapsed_stacks() -> String {
    let mut out = String::new();
    for (name, value) in snapshot().entries() {
        let Value::Counter(ns) = value else { continue };
        if *ns == 0 {
            continue;
        }
        let Some(stack) = name
            .strip_prefix("prof.")
            .and_then(|rest| rest.strip_suffix(".ns"))
        else {
            continue;
        };
        out.push_str(&stack.replace('.', ";"));
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::counter;

    #[test]
    fn prof_counters_fold_into_collapsed_stacks() {
        counter("prof.test.fold.alpha.ns").add(111);
        counter("prof.test.fold.beta.ns").add(222);
        counter("prof.test.fold.alpha.cycles").add(9); // not a .ns leaf
        counter("prof.test.fold.zero.ns"); // zero weight: skipped
        let text = collapsed_stacks();
        assert!(text.contains("test;fold;alpha 111\n"), "got:\n{text}");
        assert!(text.contains("test;fold;beta 222\n"), "got:\n{text}");
        assert!(!text.contains("cycles"), "cycles leaked into stacks");
        assert!(!text.contains("zero"), "zero-weight stack emitted");
        // Sorted by stack (registry snapshots are name-sorted).
        let a = text.find("test;fold;alpha").unwrap();
        let b = text.find("test;fold;beta").unwrap();
        assert!(a < b);
    }
}
