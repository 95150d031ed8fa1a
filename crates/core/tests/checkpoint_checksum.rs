//! Pins the strength of the checkpoint stream's per-image checksum on a
//! real four-core machine checkpoint: every single-word corruption and
//! every same-bit flip in two words of one image must be rejected, and
//! each image's words in the machine stream must be exactly what
//! [`CheckpointImage::serialize`] writes for it alone.

use ppa_core::{
    deserialize_images, serialize_images, CheckpointImage, Core, CoreConfig, Lockstep,
    PersistenceMode,
};
use ppa_isa::{ArchReg, Trace, TraceBuilder};
use ppa_mem::{MemConfig, MemorySystem};
use ppa_prng::Prng;

/// A store-heavy trace with integer and FP traffic.
fn trace(rng: &mut Prng) -> Trace {
    let mut b = TraceBuilder::new("checksum");
    for i in 0..1_500u64 {
        let r = ArchReg::int(rng.random_range(0..16u8));
        b.alu(r, &[ArchReg::int(rng.random_range(0..16u8))]);
        if rng.random_bool(0.4) {
            b.store(r, 0x4000 + rng.random_range(0..64u64) * 8, i);
        }
        if i % 5 == 0 {
            b.fp_alu(ArchReg::fp(rng.random_range(0..32u8)), &[]);
        }
    }
    b.build()
}

/// Four PPA cores stopped mid-run, each with committed stores in its CSQ.
fn four_core_images() -> Vec<CheckpointImage> {
    let mut rng = Prng::seed_from_u64(0xc4ec_5a11);
    let mut images = Vec::new();
    while images.len() < 4 {
        let t = [trace(&mut rng)];
        let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
        let mut cores = [Core::new(
            CoreConfig::paper_default(PersistenceMode::Ppa),
            0,
        )];
        Lockstep::new(&mut cores, &t, &mut mem).run_to(rng.random_range(50..500u64));
        let image = cores[0].jit_checkpoint();
        if !image.csq.is_empty() && !image.masked.is_empty() {
            images.push(image);
        }
    }
    images
}

/// Where each image sits in the machine stream: `(start, len)`.
fn image_ranges(images: &[CheckpointImage]) -> Vec<(usize, usize)> {
    let mut start = 2; // stream magic, core count
    images
        .iter()
        .map(|img| {
            let len = img.serialize().len();
            start += len;
            (start - len, len)
        })
        .collect()
}

#[test]
fn each_image_slice_is_its_own_serialization() {
    let images = four_core_images();
    let stream = serialize_images(&images);
    let ranges = image_ranges(&images);
    for (img, &(start, len)) in images.iter().zip(&ranges) {
        assert_eq!(img.serialize(), stream[start..start + len]);
    }
    let (last_start, last_len) = ranges[ranges.len() - 1];
    assert_eq!(last_start + last_len + 1, stream.len(), "one end marker");
    assert_eq!(deserialize_images(&stream).as_deref(), Some(&images[..]));
}

#[test]
fn every_single_word_corruption_is_rejected() {
    let stream = serialize_images(&four_core_images());
    let mut bad = stream.clone();
    for at in 0..stream.len() {
        let w = stream[at];
        let overwrites = (0..64).map(|b| w ^ 1 << b).chain([!w, 0]);
        for v in overwrites.filter(|&v| v != w) {
            bad[at] = v;
            assert!(
                deserialize_images(&bad).is_none(),
                "word {at}/{}: {w:#x} -> {v:#x} accepted",
                stream.len()
            );
        }
        bad[at] = w;
    }
}

#[test]
fn every_same_bit_pair_in_an_image_is_rejected() {
    for img in four_core_images() {
        let words = img.serialize();
        let mut bad = words.clone();
        for bit in [0, 32, 62, 63] {
            let flip = 1u64 << bit;
            for i in 0..words.len() {
                bad[i] ^= flip;
                for j in i + 1..words.len() {
                    bad[j] ^= flip;
                    assert!(
                        CheckpointImage::deserialize(&bad).is_none(),
                        "bit {bit} flipped in words {i} and {j} of {} accepted",
                        words.len()
                    );
                    bad[j] ^= flip;
                }
                bad[i] ^= flip;
            }
        }
    }
}

/// Word-wise FNV without the xorshift: `h = (h ^ w) * K`.
fn plain_wordwise_fnv(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn plain_wordwise_fnv_misses_the_bit_63_pair_the_codec_catches() {
    let img = &four_core_images()[0];
    let words = img.serialize();
    // The checksum and end marker follow the body. LCPC and commit index
    // (words 2 and 3) are raw words, so only the checksum can object.
    let body = words.len() - 2;
    let mut bad = words.clone();
    bad[2] ^= 1 << 63;
    bad[3] ^= 1 << 63;
    assert_eq!(
        plain_wordwise_fnv(&bad[..body]),
        plain_wordwise_fnv(&words[..body]),
        "the two flips cancel without the xorshift"
    );
    assert!(CheckpointImage::deserialize(&bad).is_none());
}
