//! A small bounded memoization cache: `printed-axc`'s hidden-neuron
//! column cache uses it.
//!
//! [`BoundedCache`] is a segmented (two-generation) LRU approximation:
//! lookups promote entries into the *hot* generation, and when the hot
//! generation fills up it becomes the *cold* one (dropping the previous
//! cold generation wholesale). Every operation is O(1); anything
//! touched within the last `capacity` insertions survives, anything
//! untouched for two generations is evicted — the classic
//! "second-chance" bound used where exact LRU bookkeeping isn't worth
//! its linked-list overhead.
//!
//! The cache only ever memoizes **pure** functions in this workspace
//! (neuron → output column), so eviction can never change a result —
//! only how much work is re-done.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The Firefox `FxHash` mix: rotate, xor, multiply by a large odd
/// constant. Far from cryptographic, but the cache keys here are
/// structured program data (genomes, neuron specs), not adversarial
/// input, and the per-write cost matters: the evaluation hot paths
/// hash multi-hundred-byte keys on every lookup, where SipHash's
/// per-write overhead dominates the whole cache operation.
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

/// The hasher state every [`BoundedCache`] map uses.
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

/// A bounded map with segmented-LRU eviction.
#[derive(Debug, Clone)]
pub struct BoundedCache<K, V> {
    hot: HashMap<K, V, FxBuildHasher>,
    cold: HashMap<K, V, FxBuildHasher>,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> BoundedCache<K, V> {
    /// A cache holding at most ~`2 × capacity` entries (`capacity` per
    /// generation). A zero capacity is clamped to 1.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            hot: HashMap::default(),
            cold: HashMap::default(),
            capacity: capacity.max(1),
        }
    }

    /// Look up a key, promoting a cold entry into the hot generation.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(v) = self.hot.get(key) {
            return Some(v.clone());
        }
        if let Some((k, v)) = self.cold.remove_entry(key) {
            let out = v.clone();
            self.rotate_if_full();
            self.hot.insert(k, v);
            return Some(out);
        }
        None
    }

    /// Insert a key into the hot generation (rotating generations when
    /// the hot one is full).
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(slot) = self.hot.get_mut(&key) {
            *slot = value;
            return;
        }
        self.rotate_if_full();
        self.cold.remove(&key);
        self.hot.insert(key, value);
    }

    fn rotate_if_full(&mut self) {
        if self.hot.len() >= self.capacity {
            self.cold = std::mem::take(&mut self.hot);
        }
    }

    /// Entries currently resident (both generations).
    #[must_use]
    pub fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty() && self.cold.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_and_counters() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(4);
        assert!(c.get(&1).is_none());
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_bounds_residency() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(4);
        for i in 0..100 {
            c.insert(i, i);
        }
        // At most two generations of 4 entries each stay resident.
        assert!(c.len() <= 8, "len {}", c.len());
        // The most recent insert always survives.
        assert_eq!(c.get(&99), Some(99));
    }

    #[test]
    fn recently_used_entries_survive_a_rotation() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(3);
        c.insert(1, 1);
        c.insert(2, 2);
        c.insert(3, 3); // hot full
        c.insert(4, 4); // rotates {1,2,3} to cold
        assert_eq!(c.get(&1), Some(1)); // promoted back to hot
        c.insert(5, 5);
        c.insert(6, 6); // rotates again; 1 was hot, so it survives in cold
        assert_eq!(c.get(&1), Some(1));
    }

    #[test]
    fn untouched_entries_are_eventually_evicted() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(2);
        c.insert(1, 1);
        for i in 10..20 {
            c.insert(i, i);
        }
        assert!(c.get(&1).is_none());
    }

    #[test]
    fn reinsert_updates_value_in_place() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(2);
        c.insert(1, 1);
        c.insert(1, 2);
        assert_eq!(c.get(&1), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn borrowed_key_lookup_works() {
        let mut c: BoundedCache<Vec<u32>, u32> = BoundedCache::new(2);
        c.insert(vec![1, 2, 3], 7);
        let slice: &[u32] = &[1, 2, 3];
        assert_eq!(c.get(slice), Some(7));
    }
}
