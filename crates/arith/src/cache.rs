//! The `FxHash` hasher: the design store's record fingerprints and the
//! batch evaluator's within-wave dedup map hash with it.
//!
//! The workspace keeps no memoization cache: each one it used to hold
//! (genome results, neuron gate counts, neuron costs, hidden-neuron
//! columns) was deleted once measurement showed that recomputing cost
//! no more time.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The Firefox `FxHash` mix: rotate, xor, multiply by a large odd
/// constant. Far from cryptographic, but the keys here are structured
/// program data (genomes, networks), not adversarial input, and the
/// per-write cost matters: the evaluation wave hashes every
/// multi-hundred-byte genome, where SipHash's per-write overhead would
/// dominate the lookup.
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

/// The hasher state of an [`FxHasher`]-keyed `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

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
