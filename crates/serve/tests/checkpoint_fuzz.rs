//! Seeded property test of the daemon's `PPSC` checkpoint decoder over
//! encoded checkpoints: every truncation and every one-to-three-bit flip
//! must be an `Err`, never a panic. Flips whose checksum is then resealed
//! reach the record parser itself, which may accept them only as a
//! checkpoint that re-encodes to the same bytes.

use ppa_grid::UnitSpec;
use ppa_prng::Prng;
use ppa_serve::cache::CacheEntry;
use ppa_serve::checkpoint::PendingSubmission;
use ppa_serve::Checkpoint;

const TAGS: [&str; 4] = [
    "repro.app:fig8/mcf",
    "oracle.cell:gcc",
    "litmus.test:17",
    "dse.cell:csq=40",
];

fn bytes(rng: &mut Prng, max: usize) -> Vec<u8> {
    let len = rng.random_range(0..max + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn tag(rng: &mut Prng) -> String {
    rng.choose(&TAGS).expect("non-empty").to_string()
}

/// A checkpoint shaped like a daemon's: cached results and pending
/// submissions, any of them possibly empty.
fn checkpoint(rng: &mut Prng) -> Checkpoint {
    let cache = (0..rng.random_range(0..4usize))
        .map(|_| CacheEntry {
            tag: tag(rng),
            request: bytes(rng, 24),
            result: bytes(rng, 40),
        })
        .collect();
    let pending = (0..rng.random_range(0..3usize))
        .map(|_| PendingSubmission {
            client: rng.next_u64(),
            submission: rng.random_range(0..1_000u64),
            priority: rng.next_u64() as u8,
            units: (0..rng.random_range(0..4usize))
                .map(|_| UnitSpec {
                    tag: tag(rng),
                    payload: bytes(rng, 16),
                })
                .collect(),
        })
        .collect();
    Checkpoint { cache, pending }
}

/// The record's checksum: FNV-1a-64 over everything before it.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = bytes[..body]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn reseal_reproduces_the_encoders_checksum() {
    let mut rng = Prng::seed_from_u64(0x995c_0001);
    for _ in 0..16 {
        let encoded = checkpoint(&mut rng).encode();
        let mut resealed = encoded.clone();
        reseal(&mut resealed);
        assert_eq!(resealed, encoded);
    }
}

#[test]
fn every_truncation_and_small_flip_is_rejected() {
    let mut rng = Prng::seed_from_u64(0x995c_0002);
    for case in 0..24 {
        let encoded = checkpoint(&mut rng).encode();
        assert!(Checkpoint::decode(&encoded).is_ok(), "case {case}");
        for cut in 0..encoded.len() {
            assert!(
                Checkpoint::decode(&encoded[..cut]).is_err(),
                "case {case}: truncation to {cut}/{} bytes accepted",
                encoded.len()
            );
        }
        let bits = encoded.len() * 8;
        let mut bad = encoded.clone();
        for bit in 0..bits {
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "case {case}: bit {bit} flip accepted"
            );
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        for _ in 0..400 {
            let mut bad = encoded.clone();
            let flips = rng.random_range(2..4usize);
            let mut flipped = Vec::new();
            while flipped.len() < flips {
                let bit = rng.random_range(0..bits);
                if !flipped.contains(&bit) {
                    flipped.push(bit);
                    bad[bit / 8] ^= 1 << (bit % 8);
                }
            }
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "case {case}: bits {flipped:?} flipped accepted"
            );
        }
    }
}

#[test]
fn resealed_corruption_never_panics_the_parser() {
    let mut rng = Prng::seed_from_u64(0x995c_0003);
    let mut accepted = 0;
    for _ in 0..24 {
        let encoded = checkpoint(&mut rng).encode();
        // Flip within the record body: past magic and version, before
        // the checksum.
        for _ in 0..400 {
            let mut bad = encoded.clone();
            for _ in 0..rng.random_range(1..4u32) {
                let at = rng.random_range(8..encoded.len() - 8);
                bad[at] ^= 1 << rng.random_range(0..8u32);
            }
            reseal(&mut bad);
            if let Ok(ck) = Checkpoint::decode(&bad) {
                accepted += 1;
                assert_eq!(ck.encode(), bad, "accepted record must re-encode exactly");
            }
        }
    }
    assert!(accepted > 0, "no resealed flip landed in a payload byte");
}
