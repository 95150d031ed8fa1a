//! `Core::jit_checkpoint` against a reference construction of the same
//! image: sort-and-dedup of the CSQ sources and CRT targets for the PRF
//! slice, and a bit-by-bit MaskReg walk in bank order. PPA cores with
//! several PRF sizes are stopped at seeded random cycles.

use ppa_core::{CheckpointImage, Core, CoreConfig, Lockstep, PersistenceMode, PhysReg};
use ppa_isa::{ArchReg, RegClass, Trace, TraceBuilder};
use ppa_mem::{MemConfig, MemorySystem};
use ppa_prng::Prng;

fn trace(rng: &mut Prng) -> Trace {
    let mut b = TraceBuilder::new("jit");
    for i in 0..1_500u64 {
        let r = ArchReg::int(rng.random_range(0..16u8));
        b.alu(r, &[ArchReg::int(rng.random_range(0..16u8))]);
        if rng.random_bool(0.4) {
            b.store(r, 0x8000 + rng.random_range(0..128u64) * 8, i);
        }
        if rng.random_bool(0.2) {
            let f = ArchReg::fp(rng.random_range(0..32u8));
            b.fp_alu(f, &[]);
            if rng.random_bool(0.5) {
                b.store(f, 0x9000 + rng.random_range(0..32u64) * 8, i);
            }
        }
    }
    b.build()
}

/// The image built the straightforward way, from the core's own
/// structures.
fn reference(core: &Core) -> CheckpointImage {
    let view = core.verify_view(0);
    let mut regs: Vec<PhysReg> = view.csq().iter().map(|e| e.src).collect();
    regs.extend(view.crt().iter().map(|(_, p)| p));
    regs.sort_unstable();
    regs.dedup();
    let cfg = core.config();
    let banks = [(RegClass::Int, cfg.int_prf), (RegClass::Fp, cfg.fp_prf)];
    let masked = banks
        .into_iter()
        .flat_map(|(class, size)| (0..size as u16).map(move |i| PhysReg::new(class, i)))
        .filter(|&p| view.mask().is_masked(p))
        .collect();
    CheckpointImage {
        csq: view.csq().iter().copied().collect(),
        crt: view.crt().iter().collect(),
        masked,
        prf_values: regs.iter().map(|&r| (r, view.prf().value(r))).collect(),
        lcpc: core.lcpc(),
        committed: core.committed(),
    }
}

#[test]
fn jit_checkpoint_matches_the_reference_construction() {
    let mut rng = Prng::seed_from_u64(0x717c_4e9c);
    let mut saw_masked_fp = false;
    let (mut checked, mut saw_csq) = (0, 0);
    for case in 0..24 {
        let mut cfg = CoreConfig::paper_default(PersistenceMode::Ppa);
        (cfg.int_prf, cfg.fp_prf) = [(180, 168), (80, 80), (128, 128), (280, 224)][case % 4];
        let t = [trace(&mut rng)];
        let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
        let mut cores = [Core::new(cfg, 0)];
        let mut machine = Lockstep::new(&mut cores, &t, &mut mem);
        let stops = rng.random_range(1..700u64);
        for now in 0..stops {
            machine.step();
            if now % 17 != 0 && now + 1 != stops {
                continue;
            }
            let core = &machine.cores()[0];
            let image = core.jit_checkpoint();
            assert_eq!(image, reference(core), "case {case} cycle {now}");
            assert!(
                image.prf_values.windows(2).all(|w| w[0].0 < w[1].0),
                "case {case} cycle {now}: PRF slice not sorted and unique"
            );
            assert_eq!(
                image.checkpoint_bytes(cfg.int_prf + cfg.fp_prf),
                reference(core).checkpoint_bytes(cfg.int_prf + cfg.fp_prf)
            );
            checked += 1;
            saw_csq += usize::from(!image.csq.is_empty());
            saw_masked_fp |= image.masked.iter().any(|p| p.class() == RegClass::Fp);
        }
    }
    assert!(saw_masked_fp, "no image masked an FP register");
    assert!(
        checked > 200 && saw_csq > checked / 2,
        "{saw_csq}/{checked} images carried stores"
    );
}
