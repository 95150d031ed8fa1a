//! Cycle-level invariant checking for the PPA core.
//!
//! PPA's correctness argument rests on microarchitectural invariants —
//! store integrity (a committed store's data register stays pinned by
//! MaskReg until its region persists), rename-table consistency, CSQ
//! FIFO ordering, free-list integrity — that the simulator used to
//! spot-check with scattered `assert!`s. This module turns those into
//! *structured, named* checks: a [`Validator`] is a pluggable check that
//! inspects a read-only [`CoreView`] of the pipeline each cycle and
//! reports [`Violation`]s instead of panicking.
//!
//! The per-cycle hook in [`crate::Core::step`] only exists when the
//! `verify` cargo feature is enabled, so release simulation pays nothing.
//! The checks themselves are always compiled (they are plain functions
//! over a snapshot) and back the debug-build region-boundary assertions.
//!
//! # Examples
//!
//! ```
//! use ppa_core::verify::{default_validators, InvariantKind};
//!
//! let names: Vec<_> = default_validators().iter().map(|v| v.name()).collect();
//! assert!(names.contains(&"free-list"));
//! assert_eq!(InvariantKind::PrfLeak.name(), "prf-leak");
//! ```

use crate::config::{CoreConfig, PersistenceMode};
use crate::ppa::csq::{Csq, CsqEntry};
use crate::ppa::mask::MaskReg;
use crate::prf::{PhysReg, Prf};
use crate::rename::RenameTable;
use ppa_isa::{RegClass, UopKind};
use std::borrow::Cow;
use std::fmt;

/// A deliberately injected bug, used by the mutation self-tests to prove
/// the checker catches real implementation errors. Faults are armed with
/// `Core::inject_fault` (available with the `verify` feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Commit a store without pinning its data register in MaskReg —
    /// breaks store integrity (§3.3): the register can be freed and
    /// recycled while the CSQ still references it.
    SkipMaskPin,
    /// Reclaim a redefined architectural mapping eagerly even when
    /// MaskReg has it pinned, instead of deferring to the region boundary.
    EagerFreeMasked,
    /// Commit a store without recording it in the CSQ — recovery would
    /// silently lose the store.
    SkipCsqEntry,
    /// Drop the deferred free list at region boundaries instead of
    /// returning it to the free list — a permanent physical-register leak.
    LeakDeferredFrees,
}

/// The invariant classes the built-in validators check. Every violation
/// names one of these, so a detection is machine-readable (the mutation
/// self-tests assert on the kind, not on message text).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// The same physical register appears twice in a free list.
    FreeListDuplicate,
    /// A register is simultaneously on the free list and allocated.
    FreeListAllocatedOverlap,
    /// The RAT maps an architectural register to a free physical register.
    RatDanglingMapping,
    /// Two architectural registers share one physical register in the RAT.
    RatDuplicateMapping,
    /// The CRT maps an architectural register to a free physical register.
    CrtDanglingMapping,
    /// Two architectural registers share one physical register in the CRT.
    CrtDuplicateMapping,
    /// A MaskReg-pinned register is not allocated (store integrity broken:
    /// the register could be recycled before its region persists).
    MaskedRegisterFree,
    /// A masked register is the destination of an in-flight micro-op — it
    /// reached the free list and was recycled, so the pending store data
    /// is being overwritten before its region persists.
    MaskedRegisterReallocated,
    /// A masked register is not the data source of any CSQ entry — the
    /// mask must be exactly the committed-store-source set (§4.4).
    MaskedNotStoreSource,
    /// A CSQ entry's data register is not masked — it could be freed
    /// before the region persists.
    CsqSourceUnmasked,
    /// A CSQ entry's data register is not allocated at all.
    CsqSourceFreed,
    /// A deferred-free register is not masked (only masked redefinitions
    /// may be deferred).
    DeferredFreeUnmasked,
    /// MaskReg or CSQ populated outside `PersistenceMode::Ppa`.
    PpaStateOutsidePpaMode,
    /// CSQ occupancy exceeds its configured capacity.
    CsqOverCapacity,
    /// A CSQ entry carries an invalid store size.
    CsqEntryInvalidSize,
    /// Entries already in the CSQ changed or reordered (the CSQ must be
    /// append-only within a region — commit order is replay order).
    CsqReordered,
    /// The CSQ lost entries without a region boundary.
    CsqShrankWithinRegion,
    /// CSQ occupancy disagrees with the number of stores committed in the
    /// current region.
    CsqStoreCountMismatch,
    /// ROB sequence numbers are not consecutive (age order broken).
    RobSequenceGap,
    /// An issue-queue entry references a micro-op that is not in the ROB
    /// or has already issued.
    IssueQueueOrphan,
    /// The load-queue pending count disagrees with the ROB's unissued
    /// loads.
    LoadQueueCountMismatch,
    /// The store-queue pending count disagrees with the ROB's uncommitted
    /// stores.
    StoreQueueCountMismatch,
    /// An allocated physical register is unreachable from any rename
    /// table, ROB entry, MaskReg bit, or deferred-free list — it leaked.
    PrfLeak,
    /// Advisory note: the CSQ-order validator's first observation found
    /// pre-existing CSQ entries (a recovered CSQ, or attachment to a
    /// core already mid-region). The validator trusts those entries as
    /// the recovery carry — their intra-region ordering predates
    /// attachment and was **not** validated, so a pre-existing reorder
    /// in them cannot be ruled out.
    AttachedMidRegion,
    /// Inter-core CSQ drain order broken (§6): the shared persist
    /// arbiter's grant log is not a total order consistent with its
    /// round-robin arbitration (non-monotone sequence numbers, more than
    /// one grant per cycle, or a core's region indices going backwards).
    CrossCoreDrainOrder,
    /// A region's drain was certified while stores of that region (or a
    /// region that never completed) were still in flight — a dependent
    /// store on another core could persist before the data it depends on
    /// (§6 cross-core persist ordering).
    PersistBeforeDependence,
    /// Two cores' recovery images claim the same word, so the cross-core
    /// replay order of that word is undefined and the recovered NVM image
    /// is incoherent. Under the DRF single-writer discipline every
    /// checkpointed word has exactly one owning core.
    RecoveryImageOverlap,
    /// The persist arbiter's grant port is not fair (§6): a certificate
    /// went to a core other than the round-robin-first pending requester
    /// (observed from the request lines recorded with each grant), or a
    /// pending core was starved past the rotation bound. A biased port
    /// turns the cross-core ordering cost from bounded to unbounded for
    /// the losing cores.
    ArbiterUnfair,
}

impl InvariantKind {
    /// Every kind, in declaration order: 23 per-core invariants, the one
    /// advisory note, then the 4 cross-core checks.
    pub const ALL: [InvariantKind; 28] = [
        InvariantKind::FreeListDuplicate,
        InvariantKind::FreeListAllocatedOverlap,
        InvariantKind::RatDanglingMapping,
        InvariantKind::RatDuplicateMapping,
        InvariantKind::CrtDanglingMapping,
        InvariantKind::CrtDuplicateMapping,
        InvariantKind::MaskedRegisterFree,
        InvariantKind::MaskedRegisterReallocated,
        InvariantKind::MaskedNotStoreSource,
        InvariantKind::CsqSourceUnmasked,
        InvariantKind::CsqSourceFreed,
        InvariantKind::DeferredFreeUnmasked,
        InvariantKind::PpaStateOutsidePpaMode,
        InvariantKind::CsqOverCapacity,
        InvariantKind::CsqEntryInvalidSize,
        InvariantKind::CsqReordered,
        InvariantKind::CsqShrankWithinRegion,
        InvariantKind::CsqStoreCountMismatch,
        InvariantKind::RobSequenceGap,
        InvariantKind::IssueQueueOrphan,
        InvariantKind::LoadQueueCountMismatch,
        InvariantKind::StoreQueueCountMismatch,
        InvariantKind::PrfLeak,
        InvariantKind::AttachedMidRegion,
        InvariantKind::CrossCoreDrainOrder,
        InvariantKind::PersistBeforeDependence,
        InvariantKind::RecoveryImageOverlap,
        InvariantKind::ArbiterUnfair,
    ];

    /// Stable, kebab-case name for reports and CLIs.
    pub fn name(self) -> &'static str {
        match self {
            InvariantKind::FreeListDuplicate => "free-list-duplicate",
            InvariantKind::FreeListAllocatedOverlap => "free-list-allocated-overlap",
            InvariantKind::RatDanglingMapping => "rat-dangling-mapping",
            InvariantKind::RatDuplicateMapping => "rat-duplicate-mapping",
            InvariantKind::CrtDanglingMapping => "crt-dangling-mapping",
            InvariantKind::CrtDuplicateMapping => "crt-duplicate-mapping",
            InvariantKind::MaskedRegisterFree => "masked-register-free",
            InvariantKind::MaskedRegisterReallocated => "masked-register-reallocated",
            InvariantKind::MaskedNotStoreSource => "masked-not-store-source",
            InvariantKind::CsqSourceUnmasked => "csq-source-unmasked",
            InvariantKind::CsqSourceFreed => "csq-source-freed",
            InvariantKind::DeferredFreeUnmasked => "deferred-free-unmasked",
            InvariantKind::PpaStateOutsidePpaMode => "ppa-state-outside-ppa-mode",
            InvariantKind::CsqOverCapacity => "csq-over-capacity",
            InvariantKind::CsqEntryInvalidSize => "csq-entry-invalid-size",
            InvariantKind::CsqReordered => "csq-reordered",
            InvariantKind::CsqShrankWithinRegion => "csq-shrank-within-region",
            InvariantKind::CsqStoreCountMismatch => "csq-store-count-mismatch",
            InvariantKind::RobSequenceGap => "rob-sequence-gap",
            InvariantKind::IssueQueueOrphan => "issue-queue-orphan",
            InvariantKind::LoadQueueCountMismatch => "load-queue-count-mismatch",
            InvariantKind::StoreQueueCountMismatch => "store-queue-count-mismatch",
            InvariantKind::PrfLeak => "prf-leak",
            InvariantKind::AttachedMidRegion => "attached-mid-region",
            InvariantKind::CrossCoreDrainOrder => "cross-core-drain-order",
            InvariantKind::PersistBeforeDependence => "persist-before-dependence",
            InvariantKind::RecoveryImageOverlap => "recovery-image-overlap",
            InvariantKind::ArbiterUnfair => "arbiter-unfair",
        }
    }

    /// Whether this kind is an advisory note rather than a broken
    /// invariant. Advisories flag reduced checking coverage (e.g. a
    /// validator attached after execution began) — reports should show
    /// them, but they do not make a run unclean.
    pub fn is_advisory(self) -> bool {
        matches!(self, InvariantKind::AttachedMidRegion)
    }
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One detected invariant violation: which named invariant broke, which
/// validator saw it, where, and a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant that was broken.
    pub kind: InvariantKind,
    /// Name of the validator that reported it.
    pub check: &'static str,
    /// Cycle of the observation.
    pub cycle: u64,
    /// Core the violation occurred on.
    pub core: usize,
    /// Free-form context (register names, counts).
    pub detail: String,
}

impl Violation {
    /// Whether this is an advisory note ([`InvariantKind::is_advisory`]).
    pub fn is_advisory(&self) -> bool {
        self.kind.is_advisory()
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] core {} cycle {}: {} ({})",
            self.kind, self.core, self.cycle, self.detail, self.check
        )
    }
}

/// A snapshot of one in-flight ROB entry, as exposed to validators.
#[derive(Debug, Clone, Copy)]
pub struct RobSlot {
    /// Program-order sequence number.
    pub seq: u64,
    /// Micro-op kind.
    pub kind: UopKind,
    /// Destination physical register, if the op defines one.
    pub dst: Option<PhysReg>,
    /// The destination's previous mapping (freed or deferred at commit).
    pub prev: Option<PhysReg>,
    /// Renamed source registers.
    pub srcs: [Option<PhysReg>; 3],
    /// For stores: the physical register holding the data.
    pub store_data: Option<PhysReg>,
    /// Whether the op has issued.
    pub issued: bool,
}

/// Read-only view of a core's microarchitectural state, handed to each
/// [`Validator`] once per cycle. Constructed by `Core::verify_view`.
pub struct CoreView<'a> {
    /// Cycle of the snapshot.
    pub cycle: u64,
    pub(crate) cfg: &'a CoreConfig,
    pub(crate) id: usize,
    pub(crate) prf: &'a Prf,
    pub(crate) rat: &'a RenameTable,
    pub(crate) crt: &'a RenameTable,
    pub(crate) mask: &'a MaskReg,
    pub(crate) csq: &'a Csq,
    pub(crate) deferred: &'a [PhysReg],
    pub(crate) rob: Cow<'a, [RobSlot]>,
    pub(crate) iq: Cow<'a, [u64]>,
    pub(crate) lq_pending: usize,
    pub(crate) sq_pending: usize,
    pub(crate) region_stores: u64,
    pub(crate) regions_completed: u64,
}

impl CoreView<'_> {
    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        self.cfg
    }

    /// The core's identifier.
    pub fn core_id(&self) -> usize {
        self.id
    }

    /// The physical register file.
    pub fn prf(&self) -> &Prf {
        self.prf
    }

    /// The speculative register alias table.
    pub fn rat(&self) -> &RenameTable {
        self.rat
    }

    /// The commit rename table.
    pub fn crt(&self) -> &RenameTable {
        self.crt
    }

    /// The store-operands mask register.
    pub fn mask(&self) -> &MaskReg {
        self.mask
    }

    /// The committed store queue.
    pub fn csq(&self) -> &Csq {
        self.csq
    }

    /// Registers awaiting reclamation at the next region boundary.
    pub fn deferred_frees(&self) -> &[PhysReg] {
        self.deferred
    }

    /// In-flight ROB entries, oldest first.
    pub fn rob(&self) -> &[RobSlot] {
        &self.rob
    }

    /// Sequence numbers of dispatched-but-unissued micro-ops.
    pub fn iq(&self) -> &[u64] {
        &self.iq
    }

    /// Renamed loads that have not issued.
    pub fn lq_pending(&self) -> usize {
        self.lq_pending
    }

    /// Renamed stores/clwbs that have not committed.
    pub fn sq_pending(&self) -> usize {
        self.sq_pending
    }

    /// Stores committed in the current region.
    pub fn region_stores(&self) -> u64 {
        self.region_stores
    }

    /// Regions completed so far (changes exactly at region boundaries).
    pub fn regions_completed(&self) -> u64 {
        self.regions_completed
    }

    fn violation(&self, kind: InvariantKind, check: &'static str, detail: String) -> Violation {
        Violation {
            kind,
            check,
            cycle: self.cycle,
            core: self.id,
            detail,
        }
    }
}

/// Per-validator cost accounting, kept by the core alongside each
/// attached validator: cycles checked and wall time spent inside
/// [`Validator::check`]. This is plain data (no telemetry dependency)
/// so `ppa-core` stays leaf-light; `ppa-verify` lifts it into metrics.
#[derive(Debug, Clone)]
pub struct ValidatorTiming {
    /// The validator's [`Validator::name`].
    pub name: &'static str,
    /// Cycles this validator has checked.
    pub cycles: u64,
    /// Wall time spent inside `check` across those cycles.
    pub elapsed: std::time::Duration,
}

impl ValidatorTiming {
    /// A zeroed accumulator for `name`.
    pub fn new(name: &'static str) -> Self {
        ValidatorTiming {
            name,
            cycles: 0,
            elapsed: std::time::Duration::ZERO,
        }
    }
}

/// A pluggable cycle-level check. Implementations may keep state between
/// cycles (e.g. the CSQ FIFO check snapshots the previous contents).
pub trait Validator: fmt::Debug {
    /// Stable name, shown in reports.
    fn name(&self) -> &'static str;

    /// Inspects one cycle's state, appending any violations to `out`.
    fn check(&mut self, view: &CoreView<'_>, out: &mut Vec<Violation>);
}

/// A set of physical registers, one bit per register of each bank: the
/// validators' scratch space. A validator owns one and resets it on every
/// check, so a checked cycle neither allocates nor hashes.
#[derive(Debug, Default)]
struct RegSet {
    int: Vec<u64>,
    fp: Vec<u64>,
}

impl RegSet {
    /// Empties the set and sizes it to `prf`'s banks. One validator may
    /// see cores of different PRF sizes in turn.
    fn reset(&mut self, prf: &Prf) {
        for (words, class) in [(&mut self.int, RegClass::Int), (&mut self.fp, RegClass::Fp)] {
            words.clear();
            words.resize(prf.size(class).div_ceil(64), 0);
        }
    }

    /// Word index and bit mask of `reg` within its bank.
    fn slot(reg: PhysReg) -> (usize, u64) {
        let i = reg.index() as usize;
        (i / 64, 1 << (i % 64))
    }

    fn bank(&self, class: RegClass) -> &[u64] {
        match class {
            RegClass::Int => &self.int,
            RegClass::Fp => &self.fp,
        }
    }

    /// Adds `reg`; `false` if it was already present.
    fn insert(&mut self, reg: PhysReg) -> bool {
        let (word, bit) = Self::slot(reg);
        let bank = match reg.class() {
            RegClass::Int => &mut self.int,
            RegClass::Fp => &mut self.fp,
        };
        let fresh = bank[word] & bit == 0;
        bank[word] |= bit;
        fresh
    }

    fn contains(&self, reg: PhysReg) -> bool {
        let (word, bit) = Self::slot(reg);
        self.bank(reg.class())[word] & bit != 0
    }
}

/// Free-list integrity: no duplicates, no overlap with allocated state.
#[derive(Debug, Default)]
pub struct FreeListCheck {
    seen: RegSet,
}

impl Validator for FreeListCheck {
    fn name(&self) -> &'static str {
        "free-list"
    }

    fn check(&mut self, view: &CoreView<'_>, out: &mut Vec<Violation>) {
        // Registers carry their class, so one set serves both free lists.
        self.seen.reset(view.prf());
        for class in [RegClass::Int, RegClass::Fp] {
            for reg in view.prf().free_regs(class) {
                if !self.seen.insert(reg) {
                    out.push(view.violation(
                        InvariantKind::FreeListDuplicate,
                        self.name(),
                        format!("{reg} appears twice in the free list"),
                    ));
                }
                if view.prf().is_allocated(reg) {
                    out.push(view.violation(
                        InvariantKind::FreeListAllocatedOverlap,
                        self.name(),
                        format!("{reg} is free-listed while allocated"),
                    ));
                }
            }
        }
    }
}

/// RAT/CRT consistency: mappings target allocated registers, and no
/// physical register backs two architectural ones.
#[derive(Debug, Default)]
pub struct RenameCheck {
    seen: RegSet,
}

impl Validator for RenameCheck {
    fn name(&self) -> &'static str {
        "rename"
    }

    fn check(&mut self, view: &CoreView<'_>, out: &mut Vec<Violation>) {
        let tables = [
            (
                view.rat(),
                "RAT",
                InvariantKind::RatDanglingMapping,
                InvariantKind::RatDuplicateMapping,
            ),
            (
                view.crt(),
                "CRT",
                InvariantKind::CrtDanglingMapping,
                InvariantKind::CrtDuplicateMapping,
            ),
        ];
        for (table, label, dangling, duplicate) in tables {
            self.seen.reset(view.prf());
            for (arch, phys) in table.iter() {
                if !view.prf().is_allocated(phys) {
                    out.push(view.violation(
                        dangling,
                        self.name(),
                        format!("{label} maps {arch} to free {phys}"),
                    ));
                }
                if !self.seen.insert(phys) {
                    out.push(view.violation(
                        duplicate,
                        self.name(),
                        format!("{phys} mapped twice in the {label}"),
                    ));
                }
            }
        }
    }
}

/// Store integrity (§3.3/§4.4): MaskReg is exactly the set of CSQ data
/// sources, every pinned register is allocated, and deferred frees are
/// pinned. Outside PPA mode, MaskReg and CSQ must stay empty.
#[derive(Debug, Default)]
pub struct MaskRegCheck {
    csq_sources: RegSet,
}

impl Validator for MaskRegCheck {
    fn name(&self) -> &'static str {
        "maskreg"
    }

    fn check(&mut self, view: &CoreView<'_>, out: &mut Vec<Violation>) {
        if view.config().mode != PersistenceMode::Ppa {
            if !view.mask().is_empty() || !view.csq().is_empty() {
                out.push(view.violation(
                    InvariantKind::PpaStateOutsidePpaMode,
                    self.name(),
                    format!(
                        "mode {:?} has {} masked regs and {} CSQ entries",
                        view.config().mode,
                        view.mask().masked_count(),
                        view.csq().len()
                    ),
                ));
            }
            return;
        }
        self.csq_sources.reset(view.prf());
        for entry in view.csq().iter() {
            self.csq_sources.insert(entry.src);
        }
        for slot in view.rob() {
            if let Some(dst) = slot.dst {
                if view.mask().is_masked(dst) {
                    out.push(view.violation(
                        InvariantKind::MaskedRegisterReallocated,
                        self.name(),
                        format!(
                            "masked {dst} recycled as the destination of seq {}",
                            slot.seq
                        ),
                    ));
                }
            }
        }
        for reg in view.mask().masked_regs() {
            if !view.prf().is_allocated(reg) {
                out.push(view.violation(
                    InvariantKind::MaskedRegisterFree,
                    self.name(),
                    format!("masked {reg} is on the free list"),
                ));
            }
            if !self.csq_sources.contains(reg) {
                out.push(view.violation(
                    InvariantKind::MaskedNotStoreSource,
                    self.name(),
                    format!("masked {reg} feeds no CSQ entry"),
                ));
            }
        }
        for entry in view.csq().iter() {
            if !view.mask().is_masked(entry.src) {
                out.push(view.violation(
                    InvariantKind::CsqSourceUnmasked,
                    self.name(),
                    format!(
                        "CSQ entry @{:#x} source {} is unmasked",
                        entry.addr, entry.src
                    ),
                ));
            }
            if !view.prf().is_allocated(entry.src) {
                out.push(view.violation(
                    InvariantKind::CsqSourceFreed,
                    self.name(),
                    format!("CSQ entry @{:#x} source {} is freed", entry.addr, entry.src),
                ));
            }
        }
        for &reg in view.deferred_frees() {
            if !view.mask().is_masked(reg) {
                out.push(view.violation(
                    InvariantKind::DeferredFreeUnmasked,
                    self.name(),
                    format!("deferred free {reg} is not masked"),
                ));
            }
        }
    }
}

/// CSQ region ordering: occupancy within capacity, valid entry sizes,
/// append-only FIFO behaviour within a region, and agreement with the
/// region's committed-store count. Stateful — it compares each cycle's
/// contents with the previous cycle's.
#[derive(Debug, Default)]
pub struct CsqOrderCheck {
    snapshot: Vec<CsqEntry>,
    /// Value of the regions-completed counter at the last observation;
    /// a change means a boundary cleared the CSQ.
    last_regions: Option<u64>,
    /// Entries carried into the current region by recovery (the restored
    /// CSQ predates any store the resumed region commits).
    carried: usize,
}

impl Validator for CsqOrderCheck {
    fn name(&self) -> &'static str {
        "csq-order"
    }

    fn check(&mut self, view: &CoreView<'_>, out: &mut Vec<Violation>) {
        if view.config().mode != PersistenceMode::Ppa {
            return;
        }
        let csq = view.csq();
        if csq.len() > csq.capacity() {
            out.push(view.violation(
                InvariantKind::CsqOverCapacity,
                self.name(),
                format!("{} entries in a {}-entry CSQ", csq.len(), csq.capacity()),
            ));
        }
        for entry in csq.iter() {
            if !matches!(entry.size, 1 | 2 | 4 | 8) {
                out.push(view.violation(
                    InvariantKind::CsqEntryInvalidSize,
                    self.name(),
                    format!("entry @{:#x} has size {}", entry.addr, entry.size),
                ));
            }
        }

        let same_region = self.last_regions == Some(view.regions_completed());
        if same_region {
            if csq.len() < self.snapshot.len() {
                out.push(view.violation(
                    InvariantKind::CsqShrankWithinRegion,
                    self.name(),
                    format!(
                        "CSQ went from {} to {} entries with no boundary",
                        self.snapshot.len(),
                        csq.len()
                    ),
                ));
            } else if !csq
                .iter()
                .zip(&self.snapshot)
                .all(|(now, then)| now == then)
            {
                out.push(view.violation(
                    InvariantKind::CsqReordered,
                    self.name(),
                    "existing CSQ entries changed; the queue must be append-only".to_string(),
                ));
            }
        } else {
            // A boundary cleared the queue, so anything present now was
            // appended by this region — except on the very first
            // observation, where entries may predate attachment (a
            // recovered CSQ, or a validator attached to a core already
            // mid-flight). Those entries are recorded explicitly as the
            // trusted carry and flagged with an advisory note: their
            // ordering was never observed, so this validator cannot rule
            // out a pre-existing reorder among them.
            if self.last_regions.is_none() {
                self.carried = csq.len().saturating_sub(view.region_stores() as usize);
                if self.carried > 0 {
                    out.push(view.violation(
                        InvariantKind::AttachedMidRegion,
                        self.name(),
                        format!(
                            "first observation trusts {} pre-existing CSQ entries \
                             ({} present, {} committed this region); their ordering \
                             was not validated",
                            self.carried,
                            csq.len(),
                            view.region_stores()
                        ),
                    ));
                }
            } else {
                self.carried = 0;
            }
            self.last_regions = Some(view.regions_completed());
        }
        let expected = self.carried + view.region_stores() as usize;
        if csq.len() != expected {
            out.push(view.violation(
                InvariantKind::CsqStoreCountMismatch,
                self.name(),
                format!(
                    "{} CSQ entries but {} stores committed this region (+{} carried)",
                    csq.len(),
                    view.region_stores(),
                    self.carried
                ),
            ));
        }
        self.snapshot.clear();
        self.snapshot.extend(csq.iter().copied());
    }
}

/// ROB/LSQ age consistency: sequence numbers are consecutive (commit
/// order is age order), issue-queue entries reference live unissued ops,
/// and the load/store-queue pending counters match the ROB's contents.
#[derive(Debug, Default)]
pub struct RobAgeCheck;

impl Validator for RobAgeCheck {
    fn name(&self) -> &'static str {
        "rob-age"
    }

    fn check(&mut self, view: &CoreView<'_>, out: &mut Vec<Violation>) {
        let rob = view.rob();
        for pair in rob.windows(2) {
            if pair[1].seq != pair[0].seq + 1 {
                out.push(view.violation(
                    InvariantKind::RobSequenceGap,
                    self.name(),
                    format!("seq {} followed by {}", pair[0].seq, pair[1].seq),
                ));
            }
        }
        let front = rob.first().map(|e| e.seq);
        for &seq in view.iq() {
            let slot = front
                .filter(|&f| seq >= f)
                .and_then(|f| rob.get((seq - f) as usize));
            match slot {
                Some(s) if !s.issued => {}
                _ => out.push(view.violation(
                    InvariantKind::IssueQueueOrphan,
                    self.name(),
                    format!("IQ references seq {seq} which is absent or already issued"),
                )),
            }
        }
        let unissued_loads = rob
            .iter()
            .filter(|e| e.kind.needs_lq_entry() && !e.issued)
            .count();
        if unissued_loads != view.lq_pending() {
            out.push(view.violation(
                InvariantKind::LoadQueueCountMismatch,
                self.name(),
                format!(
                    "lq_pending {} but {} unissued loads in the ROB",
                    view.lq_pending(),
                    unissued_loads
                ),
            ));
        }
        let pending_stores = rob.iter().filter(|e| e.kind.needs_sq_entry()).count();
        if pending_stores != view.sq_pending() {
            out.push(view.violation(
                InvariantKind::StoreQueueCountMismatch,
                self.name(),
                format!(
                    "sq_pending {} but {} uncommitted stores/clwbs in the ROB",
                    view.sq_pending(),
                    pending_stores
                ),
            ));
        }
    }
}

/// PRF leak / double-free detection: every allocated register must be
/// reachable from the RAT, the CRT, an in-flight ROB entry, MaskReg, or
/// the deferred-free list. (The double-free direction is covered by
/// [`FreeListCheck`]'s overlap detection.)
#[derive(Debug, Default)]
pub struct PrfLeakCheck {
    reachable: RegSet,
}

impl Validator for PrfLeakCheck {
    fn name(&self) -> &'static str {
        "prf-leak"
    }

    fn check(&mut self, view: &CoreView<'_>, out: &mut Vec<Violation>) {
        let reachable = &mut self.reachable;
        reachable.reset(view.prf());
        for (_, reg) in view.rat().iter().chain(view.crt().iter()) {
            reachable.insert(reg);
        }
        for reg in view.mask().masked_regs() {
            reachable.insert(reg);
        }
        for &reg in view.deferred_frees() {
            reachable.insert(reg);
        }
        for slot in view.rob() {
            for reg in [slot.dst, slot.prev, slot.store_data].into_iter().flatten() {
                reachable.insert(reg);
            }
            for reg in slot.srcs.into_iter().flatten() {
                reachable.insert(reg);
            }
        }
        for class in [RegClass::Int, RegClass::Fp] {
            for reg in view.prf().regs(class) {
                if view.prf().is_allocated(reg) && !self.reachable.contains(reg) {
                    out.push(view.violation(
                        InvariantKind::PrfLeak,
                        self.name(),
                        format!("{reg} is allocated but unreachable"),
                    ));
                }
            }
        }
    }
}

/// The full built-in validator suite.
pub fn default_validators() -> Vec<Box<dyn Validator>> {
    vec![
        Box::new(FreeListCheck::default()),
        Box::new(RenameCheck::default()),
        Box::new(MaskRegCheck::default()),
        Box::new(CsqOrderCheck::default()),
        Box::new(RobAgeCheck),
        Box::new(PrfLeakCheck::default()),
    ]
}

/// Runs the stateless checks once over a snapshot. This is what the
/// debug-build region-boundary assertion in the pipeline uses — the old
/// ad-hoc asserts, expressed as named invariants.
pub fn check_snapshot(view: &CoreView<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    FreeListCheck::default().check(view, &mut out);
    RenameCheck::default().check(view, &mut out);
    MaskRegCheck::default().check(view, &mut out);
    RobAgeCheck.check(view, &mut out);
    PrfLeakCheck::default().check(view, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, PersistenceMode};
    use crate::lockstep::Lockstep;
    use crate::pipeline::Core;
    use ppa_isa::{ArchReg, TraceBuilder};
    use ppa_mem::{MemConfig, MemorySystem};
    use std::collections::HashSet;

    fn run_clean_core() -> (Core, MemorySystem) {
        let mut b = TraceBuilder::new("t");
        for i in 0..40u64 {
            let r = ArchReg::int((i % 6) as u8);
            b.alu(r, &[r]);
            b.store(r, 0x1000 + i * 8, i + 1);
        }
        let traces = [b.build()];
        let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
        let mut cores = [Core::new(
            CoreConfig::paper_default(PersistenceMode::Ppa),
            0,
        )];
        Lockstep::new(&mut cores, &traces, &mut mem).run_to(300);
        let [core] = cores;
        (core, mem)
    }

    #[test]
    fn clean_execution_passes_all_snapshot_checks() {
        let (core, _mem) = run_clean_core();
        let view = core.verify_view(300);
        let violations = check_snapshot(&view);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    /// The IQ the view carries is read from the core's IQ mask, not from
    /// the ROB's issued flags, so rob-age can catch an IQ that names an
    /// issued op or an op the ROB does not hold.
    #[test]
    fn issue_queue_orphans_are_reported() {
        let mut b = TraceBuilder::new("orphans");
        for i in 0..40u64 {
            let r = ArchReg::int((i % 6) as u8);
            b.alu(r, &[r]);
            b.load(ArchReg::int(7), 0x4000 + i * 4096);
        }
        let traces = [b.build()];
        let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
        let mut cores = [Core::new(
            CoreConfig::paper_default(PersistenceMode::Ppa),
            0,
        )];
        let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);
        let (issued, unissued) = loop {
            machine.step();
            let view = machine.cores()[0].verify_view(machine.now());
            let rob = view.rob();
            let issued = rob.iter().find(|e| e.issued).map(|e| e.seq);
            let unissued = rob.iter().filter(|e| !e.issued).count();
            if let (Some(seq), 1..) = (issued, unissued) {
                break (seq, unissued);
            }
            assert!(
                machine.now() < 1_000,
                "no cycle with issued and waiting ops"
            );
        };
        let mut view = machine.cores()[0].verify_view(machine.now());
        assert_eq!(view.iq().len(), unissued, "the IQ holds the unissued ops");
        let mut out = Vec::new();
        RobAgeCheck.check(&view, &mut out);
        assert_eq!(out, vec![], "the live IQ is consistent");

        let absent = view.rob().last().expect("ROB is not empty").seq + 100;
        view.iq = Cow::Owned(vec![issued, absent]);
        RobAgeCheck.check(&view, &mut out);
        let details: Vec<&str> = out
            .iter()
            .filter(|v| v.kind == InvariantKind::IssueQueueOrphan)
            .map(|v| v.detail.as_str())
            .collect();
        assert_eq!(
            details,
            [
                format!("IQ references seq {issued} which is absent or already issued"),
                format!("IQ references seq {absent} which is absent or already issued"),
            ]
        );
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation {
            kind: InvariantKind::PrfLeak,
            check: "prf-leak",
            cycle: 7,
            core: 1,
            detail: "pi5 is allocated but unreachable".into(),
        };
        let s = v.to_string();
        assert!(s.contains("prf-leak"));
        assert!(s.contains("cycle 7"));
        assert!(s.contains("pi5"));
    }

    #[test]
    fn kinds_have_unique_names() {
        let names: HashSet<&str> = InvariantKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), InvariantKind::ALL.len());
    }

    #[test]
    fn all_lists_every_kind_in_declaration_order() {
        // Exhaustive on purpose: a new kind does not compile until it has
        // an arm here, and its arm indexes `ALL` at the kind's position,
        // which does not compile until `ALL` is long enough to hold it.
        fn listed(kind: InvariantKind) -> InvariantKind {
            use InvariantKind::*;
            let all = InvariantKind::ALL;
            match kind {
                FreeListDuplicate => all[0],
                FreeListAllocatedOverlap => all[1],
                RatDanglingMapping => all[2],
                RatDuplicateMapping => all[3],
                CrtDanglingMapping => all[4],
                CrtDuplicateMapping => all[5],
                MaskedRegisterFree => all[6],
                MaskedRegisterReallocated => all[7],
                MaskedNotStoreSource => all[8],
                CsqSourceUnmasked => all[9],
                CsqSourceFreed => all[10],
                DeferredFreeUnmasked => all[11],
                PpaStateOutsidePpaMode => all[12],
                CsqOverCapacity => all[13],
                CsqEntryInvalidSize => all[14],
                CsqReordered => all[15],
                CsqShrankWithinRegion => all[16],
                CsqStoreCountMismatch => all[17],
                RobSequenceGap => all[18],
                IssueQueueOrphan => all[19],
                LoadQueueCountMismatch => all[20],
                StoreQueueCountMismatch => all[21],
                PrfLeak => all[22],
                AttachedMidRegion => all[23],
                CrossCoreDrainOrder => all[24],
                PersistBeforeDependence => all[25],
                RecoveryImageOverlap => all[26],
                ArbiterUnfair => all[27],
            }
        }
        for (i, &kind) in InvariantKind::ALL.iter().enumerate() {
            assert_eq!(listed(kind), kind, "ALL[{i}] is out of place");
            assert_eq!(kind as usize, i);
        }
        let advisory = InvariantKind::ALL.iter().filter(|k| k.is_advisory());
        assert_eq!(advisory.count(), 1);
    }

    /// Bank sizes that are not multiples of 64, as in the paper's PRF
    /// (180/168) and the mutation self-test (56).
    #[test]
    fn reg_set_covers_partial_words_up_to_the_last_index() {
        for (int, fp) in [(56, 56), (180, 168), (168, 180), (64, 1)] {
            let prf = Prf::new(int, fp);
            let mut set = RegSet::default();
            set.reset(&prf);
            for class in [RegClass::Int, RegClass::Fp] {
                let last = PhysReg::new(class, prf.size(class) as u16 - 1);
                for reg in prf.regs(class) {
                    assert!(!set.contains(reg), "{reg} in an empty set");
                }
                assert!(set.insert(last), "{last} is new");
                assert!(!set.insert(last), "{last} is already present");
                assert!(set.contains(last));
                let neighbours = prf.regs(class).filter(|&r| r != last);
                assert!(neighbours.into_iter().all(|r| !set.contains(r)));
            }
            // The other bank's register of the same index stays apart.
            set.reset(&prf);
            assert!(set.insert(PhysReg::new(RegClass::Int, 0)));
            assert!(!set.contains(PhysReg::new(RegClass::Fp, 0)));
        }
    }

    /// The set agrees with a `HashSet` over a seeded mix of inserts, on a
    /// scratch set reused across PRF sizes without stale bits.
    #[test]
    fn reg_set_matches_a_hash_set_across_resets() {
        let mut rng = ppa_prng::Prng::seed_from_u64(20);
        let mut set = RegSet::default();
        for (int, fp) in [(180, 168), (56, 56), (280, 280), (80, 80), (180, 168)] {
            let prf = Prf::new(int, fp);
            set.reset(&prf);
            let mut model = HashSet::new();
            for _ in 0..400 {
                let class = if rng.random_bool(0.5) {
                    RegClass::Int
                } else {
                    RegClass::Fp
                };
                let reg = PhysReg::new(class, rng.random_below(prf.size(class) as u64) as u16);
                assert_eq!(set.insert(reg), model.insert(reg), "insert {reg}");
            }
            for class in [RegClass::Int, RegClass::Fp] {
                for reg in prf.regs(class) {
                    assert_eq!(set.contains(reg), model.contains(&reg), "{reg}");
                }
            }
        }
    }

    /// One validator suite checks cores of different PRF sizes in turn
    /// (as the PRF-size sweep does) and reports exactly what a fresh
    /// suite reports on each.
    #[test]
    fn reused_validators_match_fresh_ones_across_prf_sizes() {
        let mut reused = default_validators();
        for size in [80, 280, 56, 180] {
            let mut b = TraceBuilder::new("sweep");
            for i in 0..60u64 {
                let r = ArchReg::int((i % 6) as u8);
                b.alu(r, &[r]);
                b.store(r, 0x1000 + i * 8, i + 1);
            }
            let traces = [b.build()];
            let cfg = CoreConfig::paper_default(PersistenceMode::Ppa).with_prf(size, size);
            let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
            let mut cores = [Core::new(cfg, 0)];
            let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);
            for _ in 0..120 {
                machine.step();
                let view = machine.cores()[0].verify_view(machine.now());
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for (v, mut fresh) in reused.iter_mut().zip(default_validators()) {
                    v.check(&view, &mut got);
                    fresh.check(&view, &mut want);
                }
                assert_eq!(got, want, "PRF {size} at cycle {}", machine.now());
            }
        }
    }

    #[test]
    fn only_the_mid_region_note_is_advisory() {
        assert!(InvariantKind::AttachedMidRegion.is_advisory());
        assert!(!InvariantKind::CsqStoreCountMismatch.is_advisory());
        assert!(!InvariantKind::CsqReordered.is_advisory());
    }

    /// A validator attached after execution began (here: to a recovered
    /// core whose restored CSQ predates attachment) must record the
    /// trusted carry explicitly via an `AttachedMidRegion` note instead
    /// of silently trusting it — and must not report the carried entries
    /// as a store-count mismatch.
    #[test]
    fn late_attachment_emits_the_mid_region_note_once() {
        let mut b = TraceBuilder::new("late-attach");
        for i in 0..200u64 {
            let r = ArchReg::int((i % 6) as u8);
            b.alu(r, &[r]);
            b.store(r, 0x1000 + (i % 32) * 8, i + 1);
        }
        let traces = [b.build()];
        let cfg = CoreConfig::paper_default(PersistenceMode::Ppa);
        let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
        let mut cores = [Core::new(cfg, 0)];
        let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);
        while machine.cores()[0].csq_len() == 0 {
            machine.step();
            assert!(machine.now() < 100_000, "CSQ never filled");
        }
        let now = machine.now();
        let image = machine.cores()[0].jit_checkpoint();
        let recovered = Core::recover(cfg, 0, &image);

        let mut check = CsqOrderCheck::default();
        let mut out = Vec::new();
        check.check(&recovered.verify_view(now), &mut out);
        assert!(
            out.iter()
                .any(|v| v.kind == InvariantKind::AttachedMidRegion),
            "first observation of a restored CSQ must be flagged: {out:?}"
        );
        assert!(
            out.iter()
                .all(|v| v.kind != InvariantKind::CsqStoreCountMismatch),
            "the recorded carry must not be misread as a count mismatch: {out:?}"
        );

        // The note fires once; later observations of the same state are
        // clean.
        let mut again = Vec::new();
        check.check(&recovered.verify_view(now + 1), &mut again);
        assert_eq!(again, vec![]);
    }

    /// Fresh cores (the only attach-at-cycle-zero use) see an empty CSQ
    /// first, so no advisory fires.
    #[test]
    fn fresh_core_attachment_emits_no_note() {
        let core = Core::new(CoreConfig::paper_default(PersistenceMode::Ppa), 0);
        let mut check = CsqOrderCheck::default();
        let mut out = Vec::new();
        check.check(&core.verify_view(0), &mut out);
        assert_eq!(out, vec![]);
    }
}
