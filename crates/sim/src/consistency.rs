//! Crash-consistency diagnostics: a detailed comparison of the NVM image
//! against the golden architectural memory, distinguishing words that are
//! *missing* from the persistence domain from words that are *stale*
//! (an old value persisted, then overwritten architecturally but never
//! re-persisted — the exact hazard §2.4 describes).

use ppa_mem::MemorySystem;

/// One inconsistent word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadWord {
    /// Word address (8-byte aligned).
    pub addr: u64,
    /// The committed (expected) value.
    pub expected: u64,
    /// What the NVM holds, if anything.
    pub found: Option<u64>,
}

/// Outcome of a consistency check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Committed words absent from the NVM image entirely.
    pub missing: Vec<BadWord>,
    /// Committed words present with an out-of-date value.
    pub stale: Vec<BadWord>,
    /// Committed words checked in total.
    pub checked: usize,
}

impl ConsistencyReport {
    /// Whether the NVM image matches committed state exactly.
    pub fn is_consistent(&self) -> bool {
        self.missing.is_empty() && self.stale.is_empty()
    }

    /// Total inconsistent words.
    pub fn bad_words(&self) -> usize {
        self.missing.len() + self.stale.len()
    }

    /// Panics with a readable summary when inconsistent — for tests and
    /// examples that want a hard guarantee.
    ///
    /// # Panics
    ///
    /// Panics if the report shows any missing or stale word.
    pub fn assert_consistent(&self) {
        assert!(
            self.is_consistent(),
            "NVM inconsistent with committed state: {} missing, {} stale (first: {:?})",
            self.missing.len(),
            self.stale.len(),
            self.missing.first().or_else(|| self.stale.first())
        );
    }
}

/// Compares the NVM image against architectural memory word by word.
///
/// # Examples
///
/// ```
/// use ppa_sim::{check_consistency, Machine, SystemConfig};
/// use ppa_workloads::registry;
///
/// let app = registry::by_name("gcc").unwrap();
/// let trace = app.generate(2_000, 1);
/// // Run under PPA and inspect the machine state directly.
/// let mut mem = ppa_mem::MemorySystem::new(SystemConfig::ppa().mem, 1);
/// let mut core = ppa_core::Core::new(SystemConfig::ppa().core, 0);
/// core.run(&trace, &mut mem);
/// let report = check_consistency(&mem);
/// assert!(report.is_consistent());
/// assert!(report.checked > 0);
/// ```
pub fn check_consistency(mem: &MemorySystem) -> ConsistencyReport {
    let mut report = ConsistencyReport::default();
    for (addr, expected) in mem.arch_mem().iter() {
        report.checked += 1;
        match mem.nvm_image().read(addr) {
            Some(found) if found == expected => {}
            Some(found) => report.stale.push(BadWord {
                addr,
                expected,
                found: Some(found),
            }),
            None => report.missing.push(BadWord {
                addr,
                expected,
                found: None,
            }),
        }
    }
    report.missing.sort_unstable_by_key(|w| w.addr);
    report.stale.sort_unstable_by_key(|w| w.addr);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::SystemConfig;
    use ppa_core::{Core, Lockstep, PersistenceMode};
    use ppa_isa::{ArchReg, TraceBuilder};

    fn run_mode(mode: PersistenceMode, drain: bool) -> MemorySystem {
        let mut b = TraceBuilder::new("t");
        for i in 0..32u64 {
            let r = ArchReg::int((i % 4) as u8);
            b.alu(r, &[]);
            b.store(r, 0x1000 + (i % 4) * 64, i + 1);
        }
        let traces = [b.build()];
        let cfg = match mode {
            PersistenceMode::Ppa => SystemConfig::ppa(),
            _ => SystemConfig::baseline(),
        };
        let mut mem = MemorySystem::new(cfg.mem, 1);
        let mut cores = [Core::new(cfg.core, 0)];
        let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);
        if drain {
            assert!(machine.run());
        } else {
            machine.run_to(40);
        }
        mem
    }

    #[test]
    fn ppa_run_is_reported_consistent() {
        let mem = run_mode(PersistenceMode::Ppa, true);
        let report = check_consistency(&mem);
        assert!(report.is_consistent());
        assert_eq!(report.bad_words(), 0);
        report.assert_consistent();
    }

    #[test]
    fn baseline_run_reports_missing_words() {
        let mem = run_mode(PersistenceMode::Baseline, true);
        let report = check_consistency(&mem);
        assert!(!report.is_consistent());
        assert!(!report.missing.is_empty(), "dirty lines never persisted");
        assert!(report.checked >= report.bad_words());
    }

    #[test]
    fn stale_words_are_distinguished_from_missing() {
        // Persist a line, then overwrite it architecturally without
        // re-persisting: the word must be reported stale with both values.
        let mut mem = MemorySystem::new(SystemConfig::ppa().mem, 1);
        mem.commit_store_value(0x40, 1);
        mem.persist_enqueue(0, 0x40, 0);
        let mut t = 0;
        while mem.persist_outstanding(0) > 0 {
            mem.tick(t);
            t += 1;
        }
        mem.commit_store_value(0x40, 2);
        mem.commit_store_value(0x80, 3); // never persisted at all
        let report = check_consistency(&mem);
        assert_eq!(report.stale.len(), 1);
        assert_eq!(report.stale[0].expected, 2);
        assert_eq!(report.stale[0].found, Some(1));
        assert_eq!(report.missing.len(), 1);
        assert_eq!(report.missing[0].addr, 0x80);
    }

    #[test]
    #[should_panic(expected = "NVM inconsistent")]
    fn assert_consistent_panics_with_detail() {
        let mem = run_mode(PersistenceMode::Baseline, true);
        check_consistency(&mem).assert_consistent();
    }
}
