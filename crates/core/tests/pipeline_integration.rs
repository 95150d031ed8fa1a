//! Integration tests for the out-of-order core: structural limits,
//! renaming invariants under long runs, and checkpoint internals.

use ppa_core::{Core, CoreConfig, CsqEntry, Lockstep, PersistenceMode, PhysReg, Prf, RenameTable};
use ppa_isa::{ArchReg, RegClass, SyncKind, Trace, TraceBuilder};
use ppa_mem::{MemConfig, MemorySystem};

fn mem() -> MemorySystem {
    MemorySystem::new(MemConfig::memory_mode(), 1)
}

fn run(cfg: CoreConfig, trace: &Trace) -> (Core, MemorySystem) {
    let mut m = mem();
    let mut c = Core::new(cfg, 0);
    c.run(trace, &mut m);
    (c, m)
}

/// Independent single-cycle ops commit at full width.
#[test]
fn ipc_approaches_the_pipeline_width_on_independent_alus() {
    let mut b = TraceBuilder::new("wide");
    for i in 0..4_000u64 {
        b.alu(ArchReg::int((i % 8) as u8), &[ArchReg::int(8)]);
    }
    let (c, _) = run(
        CoreConfig::paper_default(PersistenceMode::Baseline),
        &b.build(),
    );
    let ipc = c.stats().ipc();
    assert!(
        ipc > 3.0,
        "independent ALUs should near width 4, got {ipc:.2}"
    );
}

/// A serial dependency chain caps IPC at ~1.
#[test]
fn dependency_chains_serialise() {
    let mut b = TraceBuilder::new("chain");
    let r = ArchReg::int(0);
    for _ in 0..2_000 {
        b.alu(r, &[r]);
    }
    let (c, _) = run(
        CoreConfig::paper_default(PersistenceMode::Baseline),
        &b.build(),
    );
    let ipc = c.stats().ipc();
    assert!(
        ipc < 1.2,
        "a serial chain cannot exceed 1 IPC, got {ipc:.2}"
    );
}

/// Narrower pipelines are slower on parallel work.
#[test]
fn width_matters() {
    let mut b = TraceBuilder::new("w");
    for i in 0..3_000u64 {
        b.alu(ArchReg::int((i % 8) as u8), &[ArchReg::int(9)]);
    }
    let trace = b.build();
    let wide = run(CoreConfig::paper_default(PersistenceMode::Baseline), &trace).0;
    let mut narrow_cfg = CoreConfig::paper_default(PersistenceMode::Baseline);
    narrow_cfg.width = 1;
    let narrow = run(narrow_cfg, &trace).0;
    assert!(narrow.stats().cycles > 2 * wide.stats().cycles);
}

/// The store queue bounds in-flight stores: a tiny SQ throttles a store
/// burst but everything still completes correctly.
#[test]
fn tiny_store_queue_throttles_but_stays_correct() {
    let mut b = TraceBuilder::new("sq");
    for i in 0..400u64 {
        b.store(ArchReg::int(0), 0x1000 + (i % 4) * 64, 1 + i % 7);
    }
    let trace = b.build();
    let mut small = CoreConfig::paper_default(PersistenceMode::Ppa);
    small.sq_entries = 2;
    let (c_small, m_small) = run(small, &trace);
    let (c_big, m_big) = run(CoreConfig::paper_default(PersistenceMode::Ppa), &trace);
    assert!(c_small.stats().cycles > c_big.stats().cycles);
    assert!(m_small.nvm_image().diff(m_small.arch_mem()).is_empty());
    assert!(m_big.nvm_image().diff(m_big.arch_mem()).is_empty());
}

/// Sync primitives drain the CSQ: immediately after a sync commits, the
/// queue must be empty (§6's precondition for lock-protected data).
#[test]
fn sync_commits_with_an_empty_csq() {
    let mut b = TraceBuilder::new("sync");
    for i in 0..8u64 {
        b.store(ArchReg::int(0), 0x100 + i * 64, i);
    }
    b.sync(SyncKind::LockRelease);
    let traces = [b.build()];
    let mut m = mem();
    let mut cores = [Core::new(
        CoreConfig::paper_default(PersistenceMode::Ppa),
        0,
    )];
    let mut machine = Lockstep::new(&mut cores, &traces, &mut m);
    let mut seen_sync_commit = false;
    while !machine.cores()[0].is_finished() {
        let before = machine.cores()[0].committed();
        machine.step();
        let c = &machine.cores()[0];
        if c.committed() > before && c.committed() == traces[0].len() as u64 {
            // The sync was the last commit; the region it closed must have
            // drained the CSQ before it could commit.
            assert_eq!(c.csq_len(), 0, "sync committed with a non-empty CSQ");
            seen_sync_commit = true;
        }
        assert!(machine.now() < 1_000_000);
    }
    assert!(seen_sync_commit);
}

/// Checkpoint images only reference registers they also carry values for.
#[test]
fn checkpoint_image_is_self_contained() {
    let app_like = {
        let mut b = TraceBuilder::new("t");
        for i in 0..1_500u64 {
            let r = ArchReg::int((i % 6) as u8);
            b.alu(r, &[]);
            if i % 7 == 0 {
                b.store(r, 0x4000 + (i % 16) * 64, i);
            }
            if i % 11 == 0 {
                b.fp_alu(ArchReg::fp((i % 5) as u8), &[]);
            }
        }
        b.build()
    };
    let mut m = mem();
    let mut cores = [Core::new(
        CoreConfig::paper_default(PersistenceMode::Ppa),
        0,
    )];
    Lockstep::new(&mut cores, std::slice::from_ref(&app_like), &mut m).run_to(900);
    let image = cores[0].jit_checkpoint();
    for e in &image.csq {
        assert!(
            image.reg_value(e.src).is_some(),
            "CSQ entry references unsaved register {}",
            e.src
        );
    }
    for &(_, p) in &image.crt {
        assert!(image.reg_value(p).is_some(), "CRT maps to unsaved {p}");
    }
    // Every masked register is CSQ-referenced (masking happens only at
    // store commit).
    for &p in &image.masked {
        assert!(
            image.csq.iter().any(|e| e.src == p),
            "masked {p} has no CSQ entry"
        );
    }
    // CRT covers every architectural register.
    assert_eq!(image.crt.len(), ArchReg::flat_count());
}

/// Recovery never hands out a checkpointed register to new instructions
/// until its region ends.
#[test]
fn recovered_free_list_excludes_checkpointed_registers() {
    let cfg = CoreConfig::paper_default(PersistenceMode::Ppa);
    let p_data = PhysReg::new(RegClass::Int, 77);
    let mut crt = Vec::new();
    for a in ArchReg::all() {
        crt.push((a, PhysReg::new(a.class(), a.index() as u16)));
    }
    let image = ppa_core::CheckpointImage {
        csq: vec![CsqEntry {
            src: p_data,
            addr: 0x40,
            size: 8,
        }],
        crt,
        masked: vec![p_data],
        prf_values: {
            let mut v: Vec<(PhysReg, u64)> = ArchReg::all()
                .map(|a| (PhysReg::new(a.class(), a.index() as u16), 0))
                .collect();
            v.push((p_data, 42));
            v
        },
        lcpc: 0x1010,
        committed: 3,
    };
    let recovered = Core::recover(cfg, 0, &image);
    assert_eq!(recovered.committed(), 3);
    assert_eq!(recovered.lcpc(), 0x1010);
    assert_eq!(recovered.masked_count(), 1);
    assert_eq!(recovered.csq_len(), 1);
}

/// The rename-table and PRF primitives compose: a full allocate/free cycle
/// over every register leaves the free list whole.
#[test]
fn prf_round_trip_preserves_the_free_list() {
    let mut prf = Prf::new(64, 64);
    let mut rat = RenameTable::new();
    let mut held = Vec::new();
    for a in ArchReg::all() {
        let p = prf.allocate(a.class(), 0).expect("room");
        rat.set(a, p);
        held.push(p);
    }
    assert_eq!(prf.free_count(RegClass::Int), 64 - 16);
    assert_eq!(prf.free_count(RegClass::Fp), 64 - 32);
    for p in held {
        prf.free(p);
    }
    assert_eq!(prf.free_count(RegClass::Int), 64);
    assert_eq!(prf.free_count(RegClass::Fp), 64);
}
