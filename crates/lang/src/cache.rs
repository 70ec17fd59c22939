//! The incremental build cache.
//!
//! `ksplice-create` builds the kernel tree twice per update (paper §3,
//! Figure 1) and the evaluation driver does so for every corpus entry —
//! yet between any two of those builds almost every compilation unit is
//! byte-identical input: same source, same headers, same [`Options`].
//! [`BuildCache`] memoises per-unit [`Object`]s behind a content-addressed
//! key so the *post* build recompiles only the units a patch touches and
//! the unchanged base tree is compiled exactly once per process.
//!
//! Keying: a hand-rolled 64-bit FNV-1a fingerprint over length-prefixed
//! fields — the unit's path and source, every header the unit can see
//! (`.kc` units see the tree's `include/` headers; `.ks` assembly units
//! see none), and the codegen-relevant [`Options`] fields. Any edit to
//! any of those inputs changes the fingerprint and misses the cache, so
//! a cached build is byte-identical to a cold build — the correctness
//! bar, because pre-post differencing and run-pre matching consume these
//! bytes.
//!
//! The cache has one tier, per-unit entries, and a hit shares its entry:
//! [`BuildCache::lookup`] hands out the cached `Arc<Object>`, which the
//! build puts into its [`ksplice_object::ObjectSet`] as it is. A fully
//! warm build is one map lookup per unit and copies no object; objects
//! are immutable once compiled, so every build that holds one sees the
//! same bytes.
//!
//! The cache is shareable across threads (`&BuildCache`): the parallel
//! evaluation driver hands one cache to every worker so the first worker
//! to compile a unit pays for it and the rest hit. Capacity is bounded;
//! the least-recently-used entry is evicted when full.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ksplice_object::Object;

use crate::Options;

/// The 64-bit FNV-1a offset basis: the hash of no bytes, where every
/// [`fnv1a`] fold starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the 64-bit FNV-1a state `h`: the one FNV-1a loop
/// behind build-cache keys, kernel memory checksums, fleet pack
/// checksums and the fuzz campaign digest.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// An incremental 64-bit FNV-1a hasher over length-prefixed fields.
///
/// Length prefixes keep adjacent fields from concatenating ambiguously
/// (`("ab","c")` and `("a","bc")` hash differently).
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The empty fingerprint.
    pub fn new() -> Fingerprint {
        Fingerprint(FNV_OFFSET)
    }

    /// Folds raw bytes into the hash.
    fn write_bytes(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    /// Folds one length-prefixed field.
    pub fn field(&mut self, bytes: &[u8]) -> &mut Fingerprint {
        self.write_bytes(&(bytes.len() as u64).to_le_bytes());
        self.write_bytes(bytes);
        self
    }

    /// Folds a string field.
    pub fn str_field(&mut self, s: &str) -> &mut Fingerprint {
        self.field(s.as_bytes())
    }

    /// Folds a `u64` field.
    pub fn u64_field(&mut self, v: u64) -> &mut Fingerprint {
        self.write_bytes(&v.to_le_bytes());
        self
    }

    /// The finished 64-bit key.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint::new()
    }
}

/// Fingerprints the codegen-relevant [`Options`] fields.
pub fn options_fingerprint(opt: &Options) -> u64 {
    let mut fp = Fingerprint::new();
    fp.u64_field(opt.opt_level as u64)
        .u64_field(opt.function_sections as u64)
        .u64_field(opt.data_sections as u64)
        .u64_field(opt.cc_version as u64);
    fp.finish()
}

/// Per-build cache traffic: how one `build_tree_cached` call fared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Units served from the cache.
    pub hits: u64,
    /// Units compiled because no cached object existed.
    pub misses: u64,
    /// Entries evicted (capacity pressure) while storing this build's
    /// objects.
    pub evictions: u64,
}

impl BuildStats {
    /// Units actually compiled — the cost a cold build pays for every
    /// unit and a warm build pays only for invalidated ones.
    pub fn units_compiled(&self) -> u64 {
        self.misses
    }

    /// Folds another build's traffic into this one.
    pub fn absorb(&mut self, other: BuildStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

struct Entry {
    object: Arc<Object>,
    last_used: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    clock: u64,
}

/// A content-addressed, thread-safe, LRU-bounded cache of compiled
/// per-unit objects. See the module docs for the keying discipline.
pub struct BuildCache {
    inner: Mutex<Inner>,
}

/// Unit objects kept (LRU): comfortably above the whole evaluation
/// working set (base tree under two option sets plus every patched unit
/// variant).
const CAPACITY: usize = 4096;

impl BuildCache {
    /// An empty cache holding at most 4,096 unit objects (`CAPACITY`).
    pub fn new() -> BuildCache {
        BuildCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicking compile in another worker must not wedge the whole
        // evaluation; the map itself is never left half-written.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a fingerprint, refreshing its recency on hit. A hit
    /// shares the cached object.
    pub fn lookup(&self, key: u64) -> Option<Arc<Object>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.get_mut(&key).map(|entry| {
            entry.last_used = clock;
            Arc::clone(&entry.object)
        })
    }

    /// Stores a compiled object, evicting the least-recently-used entry
    /// when at capacity. Returns how many entries were evicted (0 or 1).
    pub fn store(&self, key: u64, object: Arc<Object>) -> u64 {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let mut evicted = 0;
        if !inner.map.contains_key(&key) && inner.map.len() >= CAPACITY {
            if let Some(&victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&victim);
                evicted = 1;
            }
        }
        inner.map.insert(
            key,
            Entry {
                object,
                last_used: clock,
            },
        );
        evicted
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for BuildCache {
    fn default() -> BuildCache {
        BuildCache::new()
    }
}

impl std::fmt::Debug for BuildCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("BuildCache")
            .field("len", &inner.map.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksplice_object::Object;

    fn obj(name: &str) -> Arc<Object> {
        Arc::new(Object::new(name))
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Classic FNV-1a reference values for raw byte streams.
        let mut fp = Fingerprint::new();
        fp.write_bytes(b"");
        assert_eq!(fp.finish(), 0xcbf2_9ce4_8422_2325);
        let mut fp = Fingerprint::new();
        fp.write_bytes(b"a");
        assert_eq!(fp.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut fp = Fingerprint::new();
        fp.write_bytes(b"foobar");
        assert_eq!(fp.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_folds_slices_like_one_stream() {
        // Checksums fold field by field; any split of a byte stream must
        // hash like the whole stream.
        let bytes = b"ksplice:.text\x00\x01\x02\xff";
        let whole = fnv1a(FNV_OFFSET, bytes);
        for cut in 0..=bytes.len() {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(fnv1a(fnv1a(FNV_OFFSET, a), b), whole, "cut at {cut}");
        }
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn length_prefix_disambiguates_fields() {
        let mut a = Fingerprint::new();
        a.str_field("ab").str_field("c");
        let mut b = Fingerprint::new();
        b.str_field("a").str_field("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn options_fingerprint_sees_every_knob() {
        let base = Options::pre_post();
        let fp = options_fingerprint(&base);
        for variant in [
            Options {
                opt_level: 0,
                ..base.clone()
            },
            Options {
                function_sections: !base.function_sections,
                ..base.clone()
            },
            Options {
                data_sections: !base.data_sections,
                ..base.clone()
            },
            Options {
                cc_version: base.cc_version + 1,
                ..base.clone()
            },
        ] {
            assert_ne!(fp, options_fingerprint(&variant), "{variant:?}");
        }
    }

    #[test]
    fn a_hit_shares_the_stored_object() {
        let cache = BuildCache::new();
        assert!(cache.lookup(1).is_none());
        let stored = obj("a");
        cache.store(1, Arc::clone(&stored));
        let hit = cache.lookup(1).expect("stored key hits");
        assert!(Arc::ptr_eq(&hit, &stored));
        assert_eq!(cache.len(), 1);
    }

    /// A cache filled to [`CAPACITY`] with keys `0..CAPACITY`.
    fn full_cache() -> BuildCache {
        let cache = BuildCache::new();
        for key in 0..CAPACITY as u64 {
            assert_eq!(cache.store(key, obj("u")), 0);
        }
        cache
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        let cache = full_cache();
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.lookup(0).is_some());
        let new_key = CAPACITY as u64;
        assert_eq!(cache.store(new_key, obj("c")), 1);
        assert!(cache.lookup(1).is_none(), "LRU entry evicted");
        assert!(cache.lookup(0).is_some());
        assert!(cache.lookup(new_key).is_some());
        assert_eq!(cache.len(), CAPACITY);
    }

    #[test]
    fn restore_of_existing_key_does_not_evict() {
        let cache = full_cache();
        assert_eq!(cache.store(1, obj("b2")), 0);
        assert_eq!(cache.len(), CAPACITY);
    }
}
