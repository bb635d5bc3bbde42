//! The workspace's non-cryptographic hashes, one copy of each:
//!
//! * [`FxHasher`] / [`fx_hash_of`] — the design store's record
//!   fingerprints;
//! * [`splitmix64`] — the stateless 64-bit mixer behind the per-dataset
//!   seeds, the Monte-Carlo trial seeds and draws, and the fault
//!   injector's seeded occurrences;
//! * [`fnv1a64`] — FNV-1a over bytes: stage-cache keys, engine
//!   fingerprints, the per-dataset seeds and the fault injector's site
//!   separation.
//!
//! Seeds, cache keys and fault plans are pinned by value in tests, so
//! these functions never change. The workspace keeps no memoization
//! cache: each one it used to hold (genome results, neuron gate counts,
//! neuron costs, hidden-neuron columns, the evaluation wave's duplicate
//! map) was deleted once measurement showed that recomputing cost no
//! more time.

use std::hash::{Hash, Hasher};

/// The Firefox `FxHash` mix: rotate, xor, multiply by a large odd
/// constant. Far from cryptographic, but the keys here are structured
/// program data (networks), not adversarial input, and the per-write
/// cost matters: SipHash's per-write overhead would dominate a
/// fingerprint of every weight.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add(v as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// One-shot [`FxHasher`] digest of any hashable value — for building
/// cheap `Copy` fingerprint keys over heavyweight structures (the
/// fingerprint holder then carries the full value alongside for exact
/// equality confirmation).
#[must_use]
pub fn fx_hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The splitmix64 increment (the golden ratio in 64-bit fixed point).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer (Steele et al.): a high-quality stateless
/// 64-bit mixer, the de-facto standard seed scrambler.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a, 64-bit, over `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
