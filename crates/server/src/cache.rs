//! The analysis result cache — LRU memoization of theme detection and
//! map construction, shared by every session of a server.
//!
//! A zoom on a popular region runs the same `sample → preprocess →
//! CLARA → CART` pipeline for every user who performs it; with a million
//! users the cluster engine would spend almost all its time recomputing
//! identical results. [`AnalysisCache`] implements
//! [`AnalysisMemo`] over the exact keys of
//! `blaeu_core::cache`, so sessions attached to one cache share every
//! analysis:
//!
//! * A **hit** returns the `Arc` stored by the build that populated the
//!   entry — *bit-identical* to what a miss would compute, because map
//!   construction is deterministic and keys compare exactly (no hashes
//!   standing in for content). The purity is enforced by test, not just
//!   argued.
//! * A **miss** builds outside the cache lock (a slow CLARA run never
//!   blocks other keys' hits), then publishes. Concurrent misses on the
//!   same key **coalesce**: the first claims the build, late racers park
//!   on a condvar and wake to the published result — M sessions
//!   requesting one cold key cost one build, not M. (If the build
//!   errors, the marker clears, the error propagates to the claimant,
//!   and a woken racer becomes the next builder.)
//! * **Eviction** is least-recently-used over a fixed entry capacity
//!   *and* an approximate byte budget, with dead entries (their table has
//!   been dropped everywhere) purged first — a dead key can never match
//!   again, so it only wastes space. Entries are weighed, not counted:
//!   a map over a million rows and a three-theme summary are nowhere
//!   near the same memory, so the budget charges each entry an
//!   approximate byte size (regions × features for maps, themes ×
//!   columns plus the dependency matrix for theme sets) and evicts LRU
//!   until the shelf fits.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use blaeu_core::{AnalysisMemo, DataMap, MapKey, Result, ThemeSet, ThemesKey};

/// Snapshot of a cache's effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Live map entries.
    pub map_entries: usize,
    /// Live theme-set entries.
    pub theme_entries: usize,
    /// Approximate bytes held by map entries.
    pub map_bytes: usize,
    /// Approximate bytes held by theme-set entries.
    pub theme_bytes: usize,
}

impl CacheStats {
    /// Hit fraction (0.0 when the cache was never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry<T> {
    value: T,
    last_used: u64,
    /// Approximate bytes this entry pins (computed once at publish).
    weight: usize,
}

/// Anything the cache can ask "is your table still alive?".
trait LiveKey {
    fn live(&self) -> bool;
}

impl LiveKey for MapKey {
    fn live(&self) -> bool {
        self.view.is_live()
    }
}

impl LiveKey for ThemesKey {
    fn live(&self) -> bool {
        self.view.is_live()
    }
}

/// Approximate memory footprint of a cached payload — what size-aware
/// eviction charges against the byte budget. Deliberately cheap and
/// approximate (structure counts × per-item costs, not a deep traversal):
/// the budget needs proportionality, not accounting-grade precision.
trait Weigh {
    fn approx_bytes(&self) -> usize;
}

impl Weigh for DataMap {
    fn approx_bytes(&self) -> usize {
        // Regions dominate the structural cost (predicate + description
        // strings per region scale with the feature count); leaf row
        // memberships partition the view (one u32 per covered row);
        // medoids and sample bookkeeping are comparatively small.
        let region_cost = self.n_regions() * (self.columns.len() + 1) * 96;
        let row_cost = self.view_rows * std::mem::size_of::<u32>();
        region_cost + row_cost + self.medoid_rows.len() * 4 + 256
    }
}

impl Weigh for ThemeSet {
    fn approx_bytes(&self) -> usize {
        // Column names across themes, plus the dense pairwise dependency
        // matrix the themes were cut from (the real payload for wide
        // tables: ncols² f64 cells).
        let ncols = self.graph.len();
        let name_cost: usize = self.themes.iter().map(|t| 48 + t.columns.len() * 48).sum();
        name_cost + ncols * ncols * std::mem::size_of::<f64>() + 256
    }
}

impl<T: Weigh> Weigh for Arc<T> {
    fn approx_bytes(&self) -> usize {
        (**self).approx_bytes()
    }
}

struct Shelf<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Sum of live entry weights — recomputed after the dead-entry purge
    /// on each publish (the purge drops arbitrary entries), then kept
    /// consistent by the LRU eviction loop's decrements.
    bytes: usize,
}

impl<K: Eq + Hash + LiveKey, V: Clone + Weigh> Shelf<K, V> {
    fn new() -> Self {
        Shelf {
            entries: HashMap::new(),
            bytes: 0,
        }
    }

    fn get(&mut self, key: &K, tick: u64) -> Option<V> {
        let entry = self.entries.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.value.clone())
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// Publishes `value` under `key` unless an incumbent exists (the
    /// incumbent wins, so every racer ends up sharing one `Arc`), then
    /// enforces the bounds: dead entries go first, then strict LRU while
    /// the shelf exceeds `capacity` entries or `byte_budget` approximate
    /// bytes. A single entry bigger than the whole budget is published
    /// (the caller's Arc is always returned) but immediately evicted —
    /// the budget is a memory bound, not a hit guarantee.
    fn publish(&mut self, key: K, value: V, tick: u64, capacity: usize, byte_budget: usize) -> V {
        let value = match self.entries.get_mut(&key) {
            Some(incumbent) => {
                incumbent.last_used = tick;
                incumbent.value.clone()
            }
            None => {
                let weight = value.approx_bytes();
                self.entries.insert(
                    key,
                    Entry {
                        value: value.clone(),
                        last_used: tick,
                        weight,
                    },
                );
                value
            }
        };
        // Dead entries (their table is gone everywhere) can never match
        // again; purge them on every publish so they don't pin their
        // Arc'd payloads until the shelf happens to overflow.
        self.entries.retain(|k, _| k.live());
        self.bytes = self.entries.values().map(|e| e.weight).sum();
        while self.entries.len() > capacity || self.bytes > byte_budget {
            let oldest = match self.entries.values().map(|e| e.last_used).min() {
                Some(oldest) => oldest,
                None => break, // empty shelf satisfies every bound
            };
            self.entries.retain(|_, e| {
                if e.last_used == oldest {
                    self.bytes -= e.weight;
                    false
                } else {
                    true
                }
            });
        }
        value
    }
}

struct CacheInner {
    maps: Shelf<MapKey, Arc<DataMap>>,
    themes: Shelf<ThemesKey, Arc<ThemeSet>>,
    /// Keys currently being built by some thread — late racers wait on
    /// `built_cv` instead of repeating the expensive build.
    building_maps: std::collections::HashSet<MapKey>,
    building_themes: std::collections::HashSet<ThemesKey>,
    tick: u64,
}

/// Shared LRU memoizer for the explorer's expensive analyses (see the
/// [module docs](self)).
pub struct AnalysisCache {
    inner: Mutex<CacheInner>,
    /// Signalled whenever an in-flight build finishes (successfully or
    /// not), waking racers parked on the same key.
    built_cv: parking_lot::Condvar,
    /// Max entries per shelf (maps and theme sets are bounded
    /// independently). `0` disables caching entirely.
    capacity: usize,
    /// Approximate-byte bound per shelf: 256 giant maps weigh far more
    /// than 256 tiny theme sets, so entry count alone cannot bound
    /// memory. See [`AnalysisCache::with_byte_budget`].
    byte_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Clears a key's in-flight marker on every exit path — success, build
/// error, or unwinding panic. A stuck marker would park all future
/// racers on that key forever.
struct MarkGuard<'a, K: std::hash::Hash + Eq> {
    cache: &'a AnalysisCache,
    select: fn(&mut CacheInner) -> &mut std::collections::HashSet<K>,
    key: K,
}

impl<K: std::hash::Hash + Eq> Drop for MarkGuard<'_, K> {
    fn drop(&mut self) {
        let mut inner = self.cache.inner.lock();
        (self.select)(&mut inner).remove(&self.key);
        drop(inner);
        self.cache.built_cv.notify_all();
    }
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("AnalysisCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

/// Default per-shelf byte budget (64 MiB) — generous for interactive
/// workloads, small enough that a shelf of million-row maps cannot eat
/// the heap before the entry cap notices.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

impl AnalysisCache {
    /// A cache bounded to `capacity` entries per result kind (`0` =
    /// caching disabled: every lookup builds) and the default
    /// [`DEFAULT_CACHE_BYTES`] byte budget per shelf.
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_budget(capacity, DEFAULT_CACHE_BYTES)
    }

    /// A cache bounded to `capacity` entries *and* `byte_budget`
    /// approximate bytes per shelf — eviction triggers on whichever
    /// bound is exceeded first, so many small entries are bounded by
    /// count and few huge ones by weight. `byte_budget = 0` means
    /// unlimited bytes (entry count only); `capacity = 0` disables
    /// caching entirely.
    pub fn with_byte_budget(capacity: usize, byte_budget: usize) -> Self {
        AnalysisCache {
            inner: Mutex::new(CacheInner {
                maps: Shelf::new(),
                themes: Shelf::new(),
                building_maps: std::collections::HashSet::new(),
                building_themes: std::collections::HashSet::new(),
                tick: 0,
            }),
            built_cv: parking_lot::Condvar::new(),
            capacity,
            byte_budget: if byte_budget == 0 {
                usize::MAX
            } else {
                byte_budget
            },
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Current hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            map_entries: inner.maps.entries.len(),
            theme_entries: inner.themes.entries.len(),
            map_bytes: inner.maps.bytes,
            theme_bytes: inner.themes.bytes,
        }
    }

    /// The hit counter alone, without taking the cache lock — cheap
    /// enough to read around every command (the drain loop samples it
    /// to attribute progressive levels to warm entries).
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Drops every entry (counters survive). Used by benchmarks to
    /// measure the miss path and by operators to release memory.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.maps.clear();
        inner.themes.clear();
    }

    /// The one memoization algorithm both result kinds share, over the
    /// shelf/marker pair the `select_*` accessors pick out: hit, or
    /// claim the build; racers on an in-flight key park on the condvar
    /// instead of repeating the expensive build (the thundering-herd
    /// path: M sessions requesting one cold key must cost one build,
    /// not M). The build runs with the lock released — a slow cluster
    /// analysis must not serialize unrelated keys' hits. Errors
    /// propagate and are never cached: the guard wakes the racers, one
    /// of which becomes the next builder.
    fn memo_in<K, V>(
        &self,
        key: K,
        select_shelf: fn(&mut CacheInner) -> &mut Shelf<K, Arc<V>>,
        select_marks: fn(&mut CacheInner) -> &mut std::collections::HashSet<K>,
        build: &mut dyn FnMut() -> Result<V>,
    ) -> Result<Arc<V>>
    where
        K: std::hash::Hash + Eq + Clone + LiveKey,
        V: Weigh,
    {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return build().map(Arc::new);
        }
        {
            let mut inner = self.inner.lock();
            loop {
                inner.tick += 1;
                let tick = inner.tick;
                if let Some(hit) = select_shelf(&mut inner).get(&key, tick) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(hit);
                }
                if !select_marks(&mut inner).contains(&key) {
                    select_marks(&mut inner).insert(key.clone());
                    break;
                }
                self.built_cv.wait(&mut inner);
            }
        }
        let _unmark = MarkGuard {
            cache: self,
            select: select_marks,
            key: key.clone(),
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build()?);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        Ok(select_shelf(&mut inner).publish(key, built, tick, self.capacity, self.byte_budget))
    }
}

impl AnalysisMemo for AnalysisCache {
    fn memo_map(
        &self,
        key: MapKey,
        build: &mut dyn FnMut() -> Result<DataMap>,
    ) -> Result<Arc<DataMap>> {
        self.memo_in(key, |i| &mut i.maps, |i| &mut i.building_maps, build)
    }

    fn memo_themes(
        &self,
        key: ThemesKey,
        build: &mut dyn FnMut() -> Result<ThemeSet>,
    ) -> Result<Arc<ThemeSet>> {
        self.memo_in(key, |i| &mut i.themes, |i| &mut i.building_themes, build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_core::{MapperConfig, ThemeConfig};
    use blaeu_store::{Column, Table, TableBuilder, TableView};

    fn table(rows: usize) -> Arc<Table> {
        let vals: Vec<f64> = (0..rows)
            .map(|i| {
                if i < rows / 2 {
                    i as f64
                } else {
                    1000.0 + i as f64
                }
            })
            .collect();
        Arc::new(
            TableBuilder::new("t")
                .column("x", Column::dense_f64(vals))
                .unwrap()
                .build()
                .unwrap(),
        )
    }

    fn map_key(t: &Arc<Table>, cols: &[&str]) -> MapKey {
        MapKey::new(
            &TableView::new(Arc::clone(t)),
            cols,
            &MapperConfig::default(),
        )
    }

    #[test]
    fn second_lookup_hits_and_shares_the_arc() {
        let cache = AnalysisCache::new(8);
        let t = table(60);
        let view = TableView::new(Arc::clone(&t));
        let mut build = || blaeu_core::build_map(&view, &["x"], &MapperConfig::default());
        let first = cache.memo_map(map_key(&t, &["x"]), &mut build).unwrap();
        let second = cache.memo_map(map_key(&t, &["x"]), &mut build).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit must share the built Arc");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = AnalysisCache::new(0);
        let t = table(60);
        let view = TableView::new(Arc::clone(&t));
        let mut build = || blaeu_core::build_map(&view, &["x"], &MapperConfig::default());
        let a = cache.memo_map(map_key(&t, &["x"]), &mut build).unwrap();
        let b = cache.memo_map(map_key(&t, &["x"]), &mut build).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().map_entries, 0);
    }

    #[test]
    fn lru_evicts_oldest_within_capacity() {
        let cache = AnalysisCache::new(2);
        let t = table(60);
        let view = TableView::new(Arc::clone(&t));
        let config = MapperConfig::default();
        let mut build = || blaeu_core::build_map(&view, &["x"], &config);
        // Three distinct keys (different seeds) against capacity 2.
        let keyed = |seed: u64| {
            let mut cfg = config.clone();
            cfg.seed = seed;
            MapKey::new(&TableView::new(Arc::clone(&t)), &["x"], &cfg)
        };
        cache.memo_map(keyed(1), &mut build).unwrap(); // miss
        cache.memo_map(keyed(2), &mut build).unwrap(); // miss
        cache.memo_map(keyed(1), &mut build).unwrap(); // hit — refreshes key 1
        cache.memo_map(keyed(3), &mut build).unwrap(); // miss — evicts LRU key 2
        assert_eq!(cache.stats().map_entries, 2);
        cache.memo_map(keyed(1), &mut build).unwrap(); // hit — key 1 survived
        cache.memo_map(keyed(2), &mut build).unwrap(); // miss — key 2 was evicted
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.map_entries, 2);
    }

    #[test]
    fn byte_budget_evicts_heavy_entries_count_cannot_see() {
        let t = table(120);
        let view = TableView::new(Arc::clone(&t));
        let config = MapperConfig::default();
        let mut build = || blaeu_core::build_map(&view, &["x"], &config);
        let keyed = |seed: u64| {
            let mut cfg = config.clone();
            cfg.seed = seed;
            MapKey::new(&TableView::new(Arc::clone(&t)), &["x"], &cfg)
        };
        // Learn one map's approximate weight, then budget for about two.
        let probe = AnalysisCache::new(8);
        probe.memo_map(keyed(1), &mut build).unwrap();
        let per_map = probe.stats().map_bytes;
        assert!(per_map > 0, "maps must weigh something");

        // Entry capacity 256 would happily hold all four; the byte
        // budget must not.
        let cache = AnalysisCache::with_byte_budget(256, per_map * 2);
        for seed in 1..=4 {
            cache.memo_map(keyed(seed), &mut build).unwrap();
        }
        let stats = cache.stats();
        assert!(
            stats.map_entries <= 2,
            "byte budget ignored: {stats:?} (per map ~{per_map}B)"
        );
        assert!(stats.map_bytes <= per_map * 2, "{stats:?}");
        // LRU order within the budget: the most recent key survived.
        let hits_before = cache.stats().hits;
        cache.memo_map(keyed(4), &mut build).unwrap();
        assert_eq!(cache.stats().hits, hits_before + 1, "newest key evicted");
    }

    #[test]
    fn zero_byte_budget_means_unlimited_bytes() {
        let t = table(120);
        let view = TableView::new(Arc::clone(&t));
        let config = MapperConfig::default();
        let mut build = || blaeu_core::build_map(&view, &["x"], &config);
        let keyed = |seed: u64| {
            let mut cfg = config.clone();
            cfg.seed = seed;
            MapKey::new(&TableView::new(Arc::clone(&t)), &["x"], &cfg)
        };
        let cache = AnalysisCache::with_byte_budget(8, 0);
        for seed in 1..=4 {
            cache.memo_map(keyed(seed), &mut build).unwrap();
        }
        assert_eq!(cache.stats().map_entries, 4, "0 = uncapped bytes");
    }

    #[test]
    fn entry_heavier_than_the_whole_budget_still_returns_its_arc() {
        let t = table(120);
        let view = TableView::new(Arc::clone(&t));
        let mut build = || blaeu_core::build_map(&view, &["x"], &MapperConfig::default());
        // A 1-byte budget cannot retain anything, but the miss must
        // still hand the caller the Arc it built (hit-identity semantics
        // are about what publish returns, not what survives).
        let cache = AnalysisCache::with_byte_budget(8, 1);
        let built = cache.memo_map(map_key(&t, &["x"]), &mut build).unwrap();
        assert!(built.n_regions() >= 1);
        let stats = cache.stats();
        assert_eq!(stats.map_entries, 0, "over-budget entry evicted");
        assert_eq!(stats.map_bytes, 0);
        // Next lookup is a clean miss that rebuilds — no wedged state.
        assert!(cache.memo_map(map_key(&t, &["x"]), &mut build).is_ok());
    }

    #[test]
    fn dead_tables_are_purged_before_live_entries() {
        let cache = AnalysisCache::new(2);
        let config = MapperConfig::default();
        let dying = table(60);
        let dying_view = TableView::new(Arc::clone(&dying));
        let mut build_dying = || blaeu_core::build_map(&dying_view, &["x"], &config);
        cache
            .memo_map(map_key(&dying, &["x"]), &mut build_dying)
            .unwrap();
        drop(dying_view);
        drop(dying); // the entry's table is now dead
        let alive = table(80);
        let alive_view = TableView::new(Arc::clone(&alive));
        let mut build_alive = || blaeu_core::build_map(&alive_view, &["x"], &config);
        let keyed = |seed: u64| {
            let mut cfg = config.clone();
            cfg.seed = seed;
            MapKey::new(&TableView::new(Arc::clone(&alive)), &["x"], &cfg)
        };
        cache.memo_map(keyed(1), &mut build_alive).unwrap();
        cache.memo_map(keyed(2), &mut build_alive).unwrap(); // over capacity: purge dead first
        assert_eq!(
            cache.stats().map_entries,
            2,
            "dead entry evicted, live kept"
        );
        let before_hits = cache.stats().hits;
        cache.memo_map(keyed(1), &mut build_alive).unwrap();
        cache.memo_map(keyed(2), &mut build_alive).unwrap();
        assert_eq!(cache.stats().hits, before_hits + 2, "live entries survived");
    }

    #[test]
    fn concurrent_misses_on_one_key_coalesce_into_one_build() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        let cache = Arc::new(AnalysisCache::new(8));
        let t = table(60);
        let builds = AtomicUsize::new(0);
        let gate = Barrier::new(4);
        let results: Vec<Arc<DataMap>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let t = Arc::clone(&t);
                    let builds = &builds;
                    let gate = &gate;
                    scope.spawn(move || {
                        let view = TableView::new(Arc::clone(&t));
                        gate.wait(); // all four probe the cold key together
                        cache
                            .memo_map(map_key(&t, &["x"]), &mut || {
                                builds.fetch_add(1, Ordering::SeqCst);
                                // Widen the race window: racers must park,
                                // not re-build.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                blaeu_core::build_map(&view, &["x"], &MapperConfig::default())
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "thundering herd must coalesce into one build"
        );
        for r in &results[1..] {
            assert!(Arc::ptr_eq(&results[0], r));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
    }

    #[test]
    fn failed_build_releases_the_inflight_marker() {
        let cache = AnalysisCache::new(8);
        let t = table(60);
        let view = TableView::new(Arc::clone(&t));
        let mut failing = || Err(blaeu_core::BlaeuError::Invalid("injected".into()));
        assert!(cache.memo_map(map_key(&t, &["x"]), &mut failing).is_err());
        // The key must be buildable again — a stuck marker would park
        // this second attempt forever.
        let mut build = || blaeu_core::build_map(&view, &["x"], &MapperConfig::default());
        assert!(cache.memo_map(map_key(&t, &["x"]), &mut build).is_ok());
    }

    #[test]
    fn clear_empties_both_shelves() {
        let cache = AnalysisCache::new(8);
        let t = table(60);
        let view = TableView::new(Arc::clone(&t));
        let mut build_map_fn = || blaeu_core::build_map(&view, &["x"], &MapperConfig::default());
        cache
            .memo_map(map_key(&t, &["x"]), &mut build_map_fn)
            .unwrap();
        let themes_key = ThemesKey::new(&view, &ThemeConfig::default());
        // A one-column table cannot host theme detection; fake it with a
        // failing build to show errors pass through uncached.
        let mut failing = || blaeu_core::detect_themes(&view, &ThemeConfig::default());
        assert!(cache.memo_themes(themes_key, &mut failing).is_err());
        assert_eq!(cache.stats().map_entries, 1);
        assert_eq!(cache.stats().theme_entries, 0, "errors are never cached");
        cache.clear();
        assert_eq!(cache.stats().map_entries, 0);
    }
}
