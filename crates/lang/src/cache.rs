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
//! The cache is shareable across threads (`&BuildCache`): the parallel
//! evaluation driver hands one cache to every worker so the first worker
//! to compile a unit pays for it and the rest hit. Capacity is bounded;
//! the least-recently-used entry is evicted when full.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ksplice_object::{Object, ObjectSet};

use crate::Options;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

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
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
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

// Entries are shared so a hit clones the value after the lock is
// released: workers sharing the cache never queue behind a deep copy.
struct Entry {
    object: Arc<Object>,
    last_used: u64,
}

struct ImageEntry {
    set: Arc<ObjectSet>,
    last_used: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    /// Whole-image memoization: a finished [`ObjectSet`] per image
    /// fingerprint (the set of unit content hashes plus options — see
    /// `build_tree_image_cached`). Rebuilding an unchanged tree is the
    /// pipeline's single most repeated operation (`ksplice-create`
    /// rebuilds the same pre tree for every update it packages), and an
    /// image hit skips even the per-unit cache traffic.
    images: HashMap<u64, ImageEntry>,
    clock: u64,
    totals: BuildStats,
}

/// Whole images kept (LRU). Images are big — a handful covers the
/// pipeline's working set (the base tree under each compiler).
const IMAGE_CAPACITY: usize = 32;

/// A content-addressed, thread-safe, LRU-bounded cache of compiled
/// per-unit objects. See the module docs for the keying discipline.
pub struct BuildCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

/// Default capacity: comfortably above the whole evaluation working set
/// (base tree under two option sets plus every patched unit variant).
const DEFAULT_CAPACITY: usize = 4096;

impl BuildCache {
    /// A cache with the default capacity.
    pub fn new() -> BuildCache {
        BuildCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache holding at most `capacity` unit objects (minimum 1).
    pub fn with_capacity(capacity: usize) -> BuildCache {
        BuildCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                images: HashMap::new(),
                clock: 0,
                totals: BuildStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicking compile in another worker must not wedge the whole
        // evaluation; the map itself is never left half-written.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a fingerprint, refreshing its recency on hit.
    pub fn lookup(&self, key: u64) -> Option<Object> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let found = inner.map.get_mut(&key).map(|entry| {
            entry.last_used = clock;
            Arc::clone(&entry.object)
        });
        match found {
            Some(_) => inner.totals.hits += 1,
            None => inner.totals.misses += 1,
        }
        drop(inner);
        found.map(|object| (*object).clone())
    }

    /// Stores a compiled object, evicting the least-recently-used entry
    /// when at capacity. Returns how many entries were evicted (0 or 1).
    pub fn store(&self, key: u64, object: Object) -> u64 {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let mut evicted = 0;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(&victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&victim);
                evicted = 1;
                inner.totals.evictions += 1;
            }
        }
        inner.map.insert(
            key,
            Entry {
                object: Arc::new(object),
                last_used: clock,
            },
        );
        evicted
    }

    /// Looks up a whole-image fingerprint, refreshing its recency on
    /// hit. Image traffic is deliberately kept out of [`BuildStats`]
    /// totals: a hit is reported by the caller as one unit-hit per
    /// object so downstream accounting reads exactly like a fully warm
    /// per-unit build.
    pub fn lookup_image(&self, key: u64) -> Option<ObjectSet> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let found = inner.images.get_mut(&key).map(|entry| {
            entry.last_used = clock;
            Arc::clone(&entry.set)
        });
        drop(inner);
        found.map(|set| (*set).clone())
    }

    /// Stores a finished image, evicting the least-recently-used one at
    /// capacity.
    pub fn store_image(&self, key: u64, set: ObjectSet) {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.images.contains_key(&key) && inner.images.len() >= IMAGE_CAPACITY {
            if let Some(&victim) = inner
                .images
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.images.remove(&victim);
            }
        }
        inner.images.insert(
            key,
            ImageEntry {
                set: Arc::new(set),
                last_used: clock,
            },
        );
    }

    /// Number of cached whole images.
    pub fn image_count(&self) -> usize {
        self.lock().images.len()
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss/evict totals across every build that used this
    /// cache.
    pub fn stats(&self) -> BuildStats {
        self.lock().totals
    }

    /// Drops every entry (totals are kept — they are lifetime counters).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.images.clear();
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
            .field("capacity", &self.capacity)
            .field("totals", &inner.totals)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksplice_object::Object;

    fn obj(name: &str) -> Object {
        Object::new(name)
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
    fn lookup_hit_and_miss_accounting() {
        let cache = BuildCache::new();
        assert!(cache.lookup(1).is_none());
        cache.store(1, obj("a"));
        assert!(cache.lookup(1).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        let cache = BuildCache::with_capacity(2);
        cache.store(1, obj("a"));
        cache.store(2, obj("b"));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(1).is_some());
        assert_eq!(cache.store(3, obj("c")), 1);
        assert!(cache.lookup(2).is_none(), "LRU entry evicted");
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn restore_of_existing_key_does_not_evict() {
        let cache = BuildCache::with_capacity(2);
        cache.store(1, obj("a"));
        cache.store(2, obj("b"));
        assert_eq!(cache.store(2, obj("b2")), 0);
        assert_eq!(cache.len(), 2);
    }
}
