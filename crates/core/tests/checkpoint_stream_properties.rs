//! Property test of the checkpoint stream decoder over real streams:
//! whole-machine checkpoints taken from running PPA cores, then torn,
//! overwritten and bit-flipped. The decoder must never panic, must reject
//! every truncation, and must reject every stream that differs from the
//! one the controller wrote. Driven by seeded [`ppa_prng::Prng`] loops.

use ppa_core::{
    deserialize_images, serialize_images, CheckpointImage, Core, CoreConfig, Lockstep,
    PersistenceMode,
};
use ppa_isa::{ArchReg, Trace, TraceBuilder};
use ppa_mem::{MemConfig, MemorySystem};
use ppa_prng::Prng;

/// A store-heavy trace with integer and FP traffic, so images carry CSQ
/// entries, masked registers and CRT mappings of both classes.
fn trace(rng: &mut Prng) -> Trace {
    let mut b = TraceBuilder::new("stream");
    for i in 0..600u64 {
        let r = ArchReg::int(rng.random_range(0..16u8));
        b.alu(r, &[ArchReg::int(rng.random_range(0..16u8))]);
        if rng.random_bool(0.4) {
            b.store(r, 0x4000 + rng.random_range(0..64u64) * 8, i);
        }
        if i % 7 == 0 {
            b.fp_alu(ArchReg::fp(rng.random_range(0..32u8)), &[]);
        }
    }
    b.build()
}

/// Images of `cores` independent PPA cores, each stopped at a random
/// cycle.
fn images(rng: &mut Prng, cores: usize) -> Vec<CheckpointImage> {
    (0..cores)
        .map(|_| {
            let t = [trace(rng)];
            let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
            let mut cores = [Core::new(
                CoreConfig::paper_default(PersistenceMode::Ppa),
                0,
            )];
            Lockstep::new(&mut cores, &t, &mut mem).run_to(rng.random_range(1..1_500u64));
            cores[0].jit_checkpoint()
        })
        .collect()
}

#[test]
fn decoder_rejects_torn_and_corrupted_real_streams_without_panicking() {
    let mut rng = Prng::seed_from_u64(0x5eed_c0de);
    let mut saw_csq = false;
    for case in 0..12 {
        let cores = 1 + case % 4;
        let imgs = images(&mut rng, cores);
        saw_csq |= imgs
            .iter()
            .any(|i| !i.csq.is_empty() && !i.masked.is_empty());
        let stream = serialize_images(&imgs);
        assert_eq!(deserialize_images(&stream).as_deref(), Some(&imgs[..]));

        for cut in 0..stream.len() {
            assert!(
                deserialize_images(&stream[..cut]).is_none(),
                "case {case}: truncation to {cut}/{} words accepted",
                stream.len()
            );
        }

        // Wrong core counts, including ones too large to allocate for.
        for count in [u64::MAX, 1 << 40, cores as u64 + 1, 0] {
            let mut bad = stream.clone();
            bad[1] = count;
            assert!(deserialize_images(&bad).is_none(), "core count {count:#x}");
        }

        for _ in 0..200 {
            let mut bad = stream.clone();
            let at = rng.random_range(0..bad.len());
            bad[at] = match rng.random_range(0..4u32) {
                0 => rng.next_u64(),
                1 => u64::MAX,
                2 => 1 << rng.random_range(0..64u32),
                _ => bad[at] ^ 1 << rng.random_range(0..64u32),
            };
            if bad[at] != stream[at] {
                assert!(
                    deserialize_images(&bad).is_none(),
                    "case {case}: word {at} overwritten with {:#x} accepted",
                    bad[at]
                );
            }
        }

        for _ in 0..200 {
            let mut bad = stream.clone();
            let flips = rng.random_range(1..4u32);
            for _ in 0..flips {
                let at = rng.random_range(0..bad.len());
                bad[at] ^= 1 << rng.random_range(0..64u32);
            }
            let cut = rng.random_range(0..bad.len() + 1);
            let accepted = deserialize_images(&bad[..cut]);
            assert!(
                accepted.is_none() || (cut == stream.len() && bad == stream),
                "case {case}: flipped stream cut at {cut} accepted"
            );
        }
    }
    assert!(saw_csq, "no stream carried committed stores");
}
