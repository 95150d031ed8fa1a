use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by simulator-generated `u64`s: word addresses and set
/// indices. Those keys never come from outside the program, so the map
/// needs no protection against crafted collisions and can skip SipHash.
pub(crate) type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;

/// One folded 64×64→128-bit multiply per key. The fold puts the high
/// product bits, which every key bit reaches, into the low bits that pick
/// the bucket: word addresses are multiples of 8, and a plain multiply
/// would leave their low three bits zero.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct U64Hasher(u64);

impl Hasher for U64Hasher {
    fn finish(&self) -> u64 {
        const K: u128 = 0x9e37_79b9_7f4a_7c15;
        let p = self.0 as u128 * K;
        p as u64 ^ (p >> 64) as u64
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = self.0.rotate_left(5) ^ key;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<U64Hasher>::default().hash_one(key)
    }

    #[test]
    fn word_addresses_spread_over_low_bits() {
        // 4096 consecutive word addresses reach all 256 low-byte buckets.
        let mut seen = [false; 256];
        for a in 0..4096u64 {
            seen[(hash(a * 8) & 0xff) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
