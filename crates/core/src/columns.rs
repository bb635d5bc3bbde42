//! The population-level neuron-column cache.
//!
//! A hidden neuron's post-QReLU output **column** over the (fixed)
//! fitness dataset is a pure function of its decoded spec — weights,
//! bias, layer input width, QReLU — plus, for deeper layers, the
//! identity of the previous layer's column set. NSGA-II's elitist
//! (μ+λ) selection and low mutation rates mean offspring share most
//! hidden neurons with their parents, so without a cache the same
//! columns are recomputed thousands of times per study.
//!
//! [`NeuronColumnCache`] memoizes those columns in an N-way **sharded**
//! set of bounded [`pe_arith::BoundedCache`]s shared across the whole
//! population and every evaluation thread (interior mutability behind
//! per-shard mutexes, so one cache serves `&self` evaluators):
//!
//! * **hidden columns** — `Arc<[u8]>` post-QReLU activations. Each key
//!   carries a **precomputed 64-bit fingerprint** over its entire
//!   coordinate set — `(layer, input-signature, input_bits, qrelu,
//!   device, position)` plus the full neuron spec — computed *once*
//!   per probe: it selects the shard (top bits) and is the only thing
//!   the shard map hashes, so a lookup no longer re-hashes the key per
//!   map operation. The `device`/`position` coordinates separate
//!   Monte-Carlo variation trials and the position-dependent
//!   per-device draws. Each entry carries its full neuron spec, which
//!   is compared on every hash hit: a fingerprint collision is simply
//!   treated as a miss, so hashing can never alias two different
//!   neurons.
//! * **input signatures** — deeper layers see the previous layer's
//!   columns as input. Signatures are *interned*, not hashed-and-hoped:
//!   a full `(layer, previous-signature, qrelu, neurons)` key maps to a
//!   unique id from a monotone counter, and ids are never reused even when the
//!   intern table evicts — two different column sets can never alias.
//!   The intern table is probed once per layer (not per neuron), so it
//!   stays a single mutex.
//!
//! The shard count defaults to [`DEFAULT_SHARDS`], is set per cache
//! with [`NeuronColumnCache::with_shards`], and is always a power of
//! two in `1..=256`. Per-shard hit/miss/contention counters,
//! aggregated in [`ColumnCacheStats`], make lock pressure observable;
//! `contended` counts probes that found their shard lock held.
//!
//! Output (argmax) layers are deliberately **not** cached: their
//! accumulators depend on every hidden column at once, so any upstream
//! mutation would invalidate them wholesale; the fitness walk
//! recomputes them into scratch on every evaluation.
//!
//! Caching is an optimization, never a semantic: every value is a pure
//! function of its full key, so any mix of hits, misses, evictions,
//! shard counts and thread interleavings yields byte-identical
//! evaluations — which the sharded-cache determinism test pins down.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use pe_arith::cache::FxHasher;
use pe_arith::BoundedCache;
use pe_mlp::{AxNeuron, QReluCfg};

/// The signature of the *dataset itself* — the input of layer 0.
pub const ROOT_SIGNATURE: u64 = 0;

/// Shard count used unless [`NeuronColumnCache::with_shards`] says
/// otherwise.
pub const DEFAULT_SHARDS: usize = 8;

/// Snapshot of a [`NeuronColumnCache`]'s counters, aggregated over all
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnCacheStats {
    /// Neuron columns served from the cache (lifetime).
    pub hits: u64,
    /// Neuron columns actually computed (lifetime).
    pub misses: u64,
    /// Columns currently resident.
    pub entries: usize,
    /// Probes that found their shard lock already held (lifetime).
    pub contended: u64,
    /// Number of shards the column map is split across.
    pub shards: usize,
}

/// Cache key of one hidden neuron's column. The layer index, input
/// signature, input width and QReLU pin down the neuron's entire input
/// context; `fingerprint` is the precomputed hash over *all* of that
/// plus the neuron spec itself — the only thing the shard map hashes
/// (the cached entry carries the full spec for exact confirmation).
/// The `device` slot separates Monte-Carlo variation trials: `0` is the
/// nominal device, `t + 1` is the perturbed device of trial `t`, whose
/// column differs through the trial's gain/offset draw and perturbed
/// inputs. Because a trial's per-device draw is keyed by the neuron's
/// *position* within its layer, variation devices also carry that
/// position: identical specs at different positions produce different
/// perturbed columns and must never alias. The nominal column is
/// position-independent, so nominal lookups use position `0` and
/// duplicate specs keep sharing one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HiddenKey {
    layer: u32,
    signature: u64,
    input_bits: u32,
    qrelu: QReluCfg,
    device: u32,
    position: u32,
    fingerprint: u64,
}

impl Hash for HiddenKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The fingerprint already covers every coordinate (and the
        // neuron spec); feeding only it means one hash computation per
        // probe instead of one per map operation. `PartialEq` still
        // compares all coordinates, and the entry's stored spec is
        // confirmed on every hit, so collisions stay harmless.
        state.write_u64(self.fingerprint);
    }
}

/// Intern key of one layer's column set (the next layer's input): the
/// producing layer's full configuration — neurons *and* the QReLU that
/// shaped its activations — on top of its own input signature. Like
/// [`HiddenKey`], the neurons themselves live in the entry (probing
/// must not clone a whole layer); the key carries their fingerprint
/// and every hit confirms the stored spec, so collisions cost a fresh
/// signature, never a wrong one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LayerKey {
    layer: u32,
    signature: u64,
    qrelu: QReluCfg,
    /// One [`FxHasher`] pass over the coordinates above plus the
    /// layer's neuron specs.
    fingerprint: u64,
}

impl Hash for LayerKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The fingerprint already covers every coordinate; equality
        // still compares them all, and the interned entry's stored
        // spec is confirmed on every hit.
        state.write_u64(self.fingerprint);
    }
}

/// One interned layer signature: the producing layer's neuron specs
/// (for exact key confirmation) plus the signature id itself.
type LayerEntry = (Arc<[AxNeuron]>, u64);

/// One cached column: the full neuron spec (for exact key
/// confirmation) plus the post-QReLU activation column itself.
type HiddenEntry = (Arc<AxNeuron>, Arc<[u8]>);

/// One lock-striped slice of the hidden-column map, with its own
/// counters so contention is observable per shard.
#[derive(Debug)]
struct Shard {
    map: Mutex<BoundedCache<HiddenKey, HiddenEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    contended: AtomicU64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            map: Mutex::new(BoundedCache::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Lock this shard's map, counting the probe as contended when the
    /// lock is already held by another thread.
    fn lock(&self) -> MutexGuard<'_, BoundedCache<HiddenKey, HiddenEntry>> {
        match self.map.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.map
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            }
        }
    }
}

/// Round a requested shard count into the supported range: a power of
/// two in `1..=256` (rounding up).
fn clamp_shards(requested: usize) -> usize {
    requested.clamp(1, 256).next_power_of_two()
}

/// Bounded, thread-shared, sharded memo of hidden-neuron output
/// columns. See the [module docs](self).
#[derive(Debug)]
pub struct NeuronColumnCache {
    /// Power-of-two shard array; a key's precomputed fingerprint picks
    /// the shard by its top bits.
    shards: Box<[Shard]>,
    layers: Mutex<BoundedCache<LayerKey, LayerEntry>>,
    /// Next intern id. Starts above [`ROOT_SIGNATURE`] and only grows,
    /// so a signature can never collide with the dataset's or a
    /// previously interned layer's.
    next_signature: AtomicU64,
}

impl NeuronColumnCache {
    /// A cache bounded to roughly `capacity` columns per eviction
    /// generation, split across [`DEFAULT_SHARDS`] shards.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache bounded to roughly `capacity` columns total, split
    /// across an explicit shard count (clamped to a power of two in
    /// `1..=256`). Shard count is a concurrency knob only: any count
    /// produces byte-identical evaluations.
    #[must_use]
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = clamp_shards(shards);
        let per_shard = (capacity / shards).max(1);
        Self {
            shards: (0..shards).map(|_| Shard::new(per_shard)).collect(),
            layers: Mutex::new(BoundedCache::new(capacity)),
            next_signature: AtomicU64::new(ROOT_SIGNATURE + 1),
        }
    }

    /// A cache sized for a dataset of `samples` rows: the bound targets
    /// a fixed memory budget (tens of MB at paper-scale subsamples),
    /// clamped to a useful range, split across `shards` shards (see
    /// [`with_shards`](Self::with_shards)).
    #[must_use]
    pub fn for_samples(samples: usize, shards: usize) -> Self {
        Self::with_shards(Self::budget_capacity(samples), shards)
    }

    /// Column budget for a dataset of `samples` rows.
    fn budget_capacity(samples: usize) -> usize {
        // ~32 MiB of u8 columns per hot generation (double that
        // transiently across generations).
        const BUDGET_BYTES: usize = 32 << 20;
        (BUDGET_BYTES / samples.max(1)).clamp(128, 1 << 15)
    }

    fn lock<'a, K: std::hash::Hash + Eq + Clone, V: Clone>(
        cache: &'a Mutex<BoundedCache<K, V>>,
    ) -> MutexGuard<'a, BoundedCache<K, V>> {
        cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The shard a fingerprint maps to. Top bits: `FxHasher` finishes
    /// with a multiply, so the high bits are its best-mixed.
    fn shard_of(&self, fingerprint: u64) -> &Shard {
        let count = self.shards.len();
        let index = if count == 1 {
            0
        } else {
            (fingerprint >> (64 - count.trailing_zeros())) as usize
        };
        &self.shards[index]
    }

    /// Snapshot the aggregated counters.
    #[must_use]
    pub fn stats(&self) -> ColumnCacheStats {
        let mut stats = ColumnCacheStats {
            shards: self.shards.len(),
            ..ColumnCacheStats::default()
        };
        for shard in &self.shards {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.contended += shard.contended.load(Ordering::Relaxed);
            stats.entries += shard.lock().len();
        }
        stats
    }

    /// A hidden neuron's post-QReLU column: served from the cache, or
    /// computed by `compute` and published. `compute` runs outside the
    /// cache lock; concurrent misses on one key may both compute (pure,
    /// identical results) and the last insert wins. A fingerprint
    /// collision (same key hash, different neuron) is handled as a
    /// miss whose result replaces the colliding entry. `device` is `0`
    /// for the nominal device and `t + 1` for Monte-Carlo variation
    /// trial `t` (whose draws reshape the column); `position` is the
    /// neuron's index within its layer and **must** be passed for every
    /// variation device, because the trial's gain/offset draw is keyed
    /// by it — identical specs at different positions get different
    /// draws, hence different columns. Nominal columns are
    /// position-independent: pass `0` there so duplicate specs share.
    #[allow(clippy::too_many_arguments)] // the six cache coordinates + payload
    pub fn hidden_column(
        &self,
        layer: usize,
        signature: u64,
        input_bits: u32,
        qrelu: QReluCfg,
        device: u32,
        position: u32,
        neuron: &AxNeuron,
        compute: impl FnOnce() -> Arc<[u8]>,
    ) -> Arc<[u8]> {
        // One hash pass over the whole coordinate set + neuron spec:
        // this fingerprint picks the shard *and* is the only input the
        // shard map's hasher sees.
        let mut hasher = FxHasher::default();
        (layer as u32, signature, input_bits, qrelu, device, position).hash(&mut hasher);
        neuron.hash(&mut hasher);
        let fingerprint = hasher.finish();
        let key = HiddenKey {
            layer: layer as u32,
            signature,
            input_bits,
            qrelu,
            device,
            position,
            fingerprint,
        };
        let shard = self.shard_of(fingerprint);
        if let Some((stored, col)) = shard.lock().get(&key) {
            if *stored == *neuron {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                return col;
            }
        }
        let col = compute();
        shard.misses.fetch_add(1, Ordering::Relaxed);
        shard
            .lock()
            .insert(key, (Arc::new(neuron.clone()), col.clone()));
        col
    }

    /// Intern a layer's column set, returning the signature that keys
    /// the *next* layer's columns. Equal `(layer, signature, qrelu,
    /// neurons)` always return the same id while resident; an evicted
    /// entry is re-interned under a **fresh** id (never reused),
    /// trading cache warmth for guaranteed exactness.
    pub fn layer_signature(
        &self,
        layer: usize,
        signature: u64,
        qrelu: QReluCfg,
        neurons: &[AxNeuron],
    ) -> u64 {
        let mut hasher = FxHasher::default();
        (layer as u32, signature, qrelu).hash(&mut hasher);
        neurons.hash(&mut hasher);
        let key = LayerKey {
            layer: layer as u32,
            signature,
            qrelu,
            fingerprint: hasher.finish(),
        };
        let mut layers = Self::lock(&self.layers);
        if let Some((stored, id)) = layers.get(&key) {
            if *stored == *neurons {
                return id;
            }
        }
        let id = self.next_signature.fetch_add(1, Ordering::Relaxed);
        layers.insert(key, (Arc::from(neurons), id));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_mlp::AxWeight;

    fn neuron(bias: i32) -> AxNeuron {
        AxNeuron {
            weights: vec![AxWeight {
                mask: 0b1111,
                shift: 1,
                negative: false,
            }],
            bias,
        }
    }

    const Q: QReluCfg = QReluCfg {
        out_bits: 8,
        shift: 0,
    };

    #[test]
    fn hidden_columns_are_memoized_by_full_key() {
        let cache = NeuronColumnCache::new(8);
        let n = neuron(3);
        let col: Arc<[u8]> = Arc::from(vec![1u8, 2, 3].as_slice());
        let a = cache.hidden_column(0, ROOT_SIGNATURE, 4, Q, 0, 0, &n, || col.clone());
        // Second lookup: served from cache, compute must not run.
        let b = cache.hidden_column(0, ROOT_SIGNATURE, 4, Q, 0, 0, &n, || unreachable!());
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A different bias is a different key.
        let c = cache.hidden_column(0, ROOT_SIGNATURE, 4, Q, 0, 0, &neuron(4), || {
            Arc::from(vec![9u8].as_slice())
        });
        assert_eq!(&c[..], &[9]);
        // A different signature is a different key too.
        let d = cache.hidden_column(0, 17, 4, Q, 0, 0, &n, || Arc::from(vec![7u8].as_slice()));
        assert_eq!(&d[..], &[7]);
        // And so is a different QReLU at the same layer/signature.
        let q2 = QReluCfg {
            out_bits: 4,
            shift: 2,
        };
        let e = cache.hidden_column(0, ROOT_SIGNATURE, 4, q2, 0, 0, &n, || {
            Arc::from(vec![5u8].as_slice())
        });
        assert_eq!(&e[..], &[5]);
        // A Monte-Carlo trial device never aliases the nominal column.
        let f = cache.hidden_column(0, ROOT_SIGNATURE, 4, Q, 1, 0, &n, || {
            Arc::from(vec![6u8].as_slice())
        });
        assert_eq!(&f[..], &[6]);
        assert_eq!(cache.stats().misses, 5);
    }

    #[test]
    fn variation_devices_key_columns_by_neuron_position() {
        // Under a variation device the per-device draw depends on the
        // neuron's position, so the *same spec* at two positions must
        // occupy two entries — while the nominal device stays
        // position-blind and keeps sharing one column.
        let cache = NeuronColumnCache::new(8);
        let n = neuron(3);
        let p0 = cache.hidden_column(0, ROOT_SIGNATURE, 4, Q, 1, 0, &n, || {
            Arc::from(vec![1u8].as_slice())
        });
        let p2 = cache.hidden_column(0, ROOT_SIGNATURE, 4, Q, 1, 2, &n, || {
            Arc::from(vec![2u8].as_slice())
        });
        assert_eq!(&p0[..], &[1]);
        assert_eq!(
            &p2[..],
            &[2],
            "positions must not alias under a trial device"
        );
        // Both entries stay resident and are served independently.
        let p0_again = cache.hidden_column(0, ROOT_SIGNATURE, 4, Q, 1, 0, &n, || unreachable!());
        let p2_again = cache.hidden_column(0, ROOT_SIGNATURE, 4, Q, 1, 2, &n, || unreachable!());
        assert_eq!(p0, p0_again);
        assert_eq!(p2, p2_again);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn every_shard_count_serves_the_same_columns() {
        // Shard count is a concurrency knob, not a semantic: for any
        // count, every key hits after its first miss and distinct keys
        // never alias.
        for shards in [1usize, 2, 4, 16, 256] {
            let cache = NeuronColumnCache::with_shards(512, shards);
            assert_eq!(cache.stats().shards, shards);
            for bias in 0..32 {
                let expect = [bias as u8; 3];
                let col = cache.hidden_column(0, ROOT_SIGNATURE, 4, Q, 0, 0, &neuron(bias), || {
                    Arc::from(expect.as_slice())
                });
                assert_eq!(&col[..], &expect[..], "shards {shards} bias {bias}");
            }
            for bias in 0..32 {
                let expect = [bias as u8; 3];
                let col = cache.hidden_column(
                    0,
                    ROOT_SIGNATURE,
                    4,
                    Q,
                    0,
                    0,
                    &neuron(bias),
                    || unreachable!(),
                );
                assert_eq!(&col[..], &expect[..], "shards {shards} bias {bias}");
            }
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses), (32, 32), "shards {shards}");
            assert_eq!(stats.entries, 32);
        }
    }

    #[test]
    fn shard_counts_clamp_to_powers_of_two() {
        assert_eq!(NeuronColumnCache::with_shards(64, 0).stats().shards, 1);
        assert_eq!(NeuronColumnCache::with_shards(64, 3).stats().shards, 4);
        assert_eq!(NeuronColumnCache::with_shards(64, 1000).stats().shards, 256);
    }

    #[test]
    fn layer_signatures_are_stable_and_distinct() {
        let cache = NeuronColumnCache::new(8);
        let a = vec![neuron(1), neuron(2)];
        let b = vec![neuron(1), neuron(3)];
        let sig_a = cache.layer_signature(0, ROOT_SIGNATURE, Q, &a);
        let sig_b = cache.layer_signature(0, ROOT_SIGNATURE, Q, &b);
        assert_ne!(sig_a, sig_b);
        assert_ne!(sig_a, ROOT_SIGNATURE);
        assert_eq!(cache.layer_signature(0, ROOT_SIGNATURE, Q, &a), sig_a);
        // The same neurons fed by different inputs sign differently.
        assert_ne!(cache.layer_signature(0, sig_a, Q, &a), sig_a);
        // And the same neurons under a different QReLU produce a
        // different column set, so they must sign differently too.
        let q2 = QReluCfg {
            out_bits: 4,
            shift: 2,
        };
        assert_ne!(cache.layer_signature(0, ROOT_SIGNATURE, q2, &a), sig_a);
    }

    #[test]
    fn evicted_signatures_are_never_reused() {
        let cache = NeuronColumnCache::new(1); // evicts almost immediately
        let mut seen = std::collections::HashSet::new();
        for bias in 0..50 {
            let sig = cache.layer_signature(0, ROOT_SIGNATURE, Q, &[neuron(bias)]);
            assert!(seen.insert(sig), "signature {sig} reused");
        }
        // Re-interning an evicted key yields a fresh (still unique) id.
        let again = cache.layer_signature(0, ROOT_SIGNATURE, Q, &[neuron(0)]);
        assert!(seen.insert(again), "evicted signature was reused");
    }

    #[test]
    fn capacity_scales_with_sample_count() {
        // Tiny datasets get the upper clamp, huge ones the lower.
        let small = NeuronColumnCache::for_samples(16, DEFAULT_SHARDS);
        let large = NeuronColumnCache::for_samples(10_000_000, DEFAULT_SHARDS);
        // Both behave as caches; the clamp bounds are internal, so just
        // exercise them.
        let n = neuron(1);
        let _ = small.hidden_column(0, 0, 4, Q, 0, 0, &n, || Arc::from(vec![0u8].as_slice()));
        let _ = large.hidden_column(0, 0, 4, Q, 0, 0, &n, || Arc::from(vec![0u8].as_slice()));
        assert_eq!(small.stats().misses, 1);
        assert_eq!(large.stats().misses, 1);
        assert_eq!(small.stats().entries, 1);
    }
}
