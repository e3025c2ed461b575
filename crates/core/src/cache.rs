//! Analysis memoization hooks — the contract between the explorer and an
//! external result cache (the server tier's `AnalysisCache`).
//!
//! The expensive analyses Blaeu runs — theme detection (the pairwise
//! dependency matrix + column clustering) and map construction (sample →
//! preprocess → CLARA/PAM → CART) — are pure functions of three things:
//! the underlying table, the view's row selection, and the configuration.
//! A million users zooming into the same region of the same table
//! therefore re-run *identical* computations. The [`AnalysisMemo`] trait
//! lets a caching layer intercept those computations without the core
//! knowing anything about eviction policy; [`MapKey`] / [`ThemesKey`]
//! are the exact (collision-free) identities the cache indexes by.
//!
//! ## Why the keys are exact, not hashed
//!
//! A memoized result must be a *pure win*: a hit has to be bit-identical
//! to what a miss would have computed. A 64-bit fingerprint cannot
//! guarantee that, so the keys compare for real:
//!
//! * **table identity** — the pointer of the shared [`Arc<Table>`],
//!   paired with a [`Weak`] handle. While an entry's `Weak` exists, the
//!   allocation cannot be reused, so pointer equality against a *live*
//!   probe is sound; once every `Arc` is gone the entry turns dead
//!   ([`ViewFingerprint::is_live`]) and the cache evicts it.
//! * **row selection** — the view's shared selection handle. Equality
//!   short-circuits on `Arc::ptr_eq` (the common case: the same zoom
//!   state probed twice) and falls back to content comparison.
//! * **configuration** — the `Debug` rendering of the config struct.
//!   Rust's `Debug` for `f64` is shortest-round-trip, so two configs
//!   render identically iff every field (including floats) is identical.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, Weak};

use blaeu_store::{Table, TableView};

use crate::error::Result;
use crate::map::DataMap;
use crate::themes::ThemeSet;

/// Exact identity of a view: which table, which rows.
#[derive(Debug, Clone)]
pub struct ViewFingerprint {
    /// Identity handle: keeps the table's allocation pinned (not its
    /// data) so `table_ptr` cannot be recycled while this key exists.
    table: Weak<Table>,
    table_ptr: usize,
    rows: Option<Arc<Vec<u32>>>,
}

impl ViewFingerprint {
    /// Fingerprint of a view (cheap: two `Arc` bumps, no data copied).
    pub fn of(view: &TableView) -> Self {
        ViewFingerprint {
            table: Arc::downgrade(view.table()),
            table_ptr: Arc::as_ptr(view.table()) as usize,
            rows: view.rows_shared(),
        }
    }

    /// True while the fingerprinted table is still alive somewhere. Dead
    /// fingerprints can never match a live probe; caches should evict
    /// entries whose key stopped being live.
    pub fn is_live(&self) -> bool {
        self.table.strong_count() > 0
    }
}

impl PartialEq for ViewFingerprint {
    fn eq(&self, other: &Self) -> bool {
        if self.table_ptr != other.table_ptr {
            return false;
        }
        match (&self.rows, &other.rows) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl Eq for ViewFingerprint {}

impl Hash for ViewFingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.table_ptr.hash(state);
        match &self.rows {
            None => state.write_u8(0),
            Some(rows) => {
                // Hash a bounded sample (length + a stride of elements),
                // NOT the whole selection: a probe must stay O(1) even
                // for million-row zooms. Exactness lives in Eq, which
                // compares full contents — Hash only has to be
                // consistent with it, and any subset of the content is.
                state.write_u8(1);
                rows.len().hash(state);
                let stride = (rows.len() / 16).max(1);
                for &r in rows.iter().step_by(stride).take(16) {
                    r.hash(state);
                }
                if let Some(&last) = rows.last() {
                    last.hash(state);
                }
            }
        }
    }
}

/// Identity of one map construction: view × columns × mapper config.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MapKey {
    /// The view the map covers.
    pub view: ViewFingerprint,
    /// The active columns (the theme), in order.
    pub columns: Vec<String>,
    /// Exact rendering of the `MapperConfig` (see module docs).
    pub config: String,
}

impl MapKey {
    /// Key for building a map of `columns` over `view` under `config`.
    pub fn new(view: &TableView, columns: &[&str], config: &crate::mapper::MapperConfig) -> Self {
        MapKey {
            view: ViewFingerprint::of(view),
            columns: columns.iter().map(|&c| c.to_owned()).collect(),
            config: format!("{config:?}"),
        }
    }
}

/// Identity of one theme detection: view × theme config.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ThemesKey {
    /// The view themes are detected over.
    pub view: ViewFingerprint,
    /// Exact rendering of the `ThemeConfig` (see module docs).
    pub config: String,
}

impl ThemesKey {
    /// Key for detecting themes over `view` under `config`.
    pub fn new(view: &TableView, config: &crate::themes::ThemeConfig) -> Self {
        ThemesKey {
            view: ViewFingerprint::of(view),
            config: format!("{config:?}"),
        }
    }
}

/// A pluggable memoizer for the explorer's expensive analyses.
///
/// Implementations (e.g. `blaeu-server`'s LRU `AnalysisCache`) must be
/// a pure win: on a hit they return a previously built result for an
/// *equal* key; on a miss they invoke `build` exactly once and may retain
/// the result. The explorer runs with `memo = None` by default, which is
/// observationally identical to a cache that always misses.
pub trait AnalysisMemo: Send + Sync + std::fmt::Debug {
    /// Returns the map for `key`, building it via `build` on a miss.
    fn memo_map(
        &self,
        key: MapKey,
        build: &mut dyn FnMut() -> Result<DataMap>,
    ) -> Result<Arc<DataMap>>;

    /// Returns the theme set for `key`, building it via `build` on a
    /// miss.
    fn memo_themes(
        &self,
        key: ThemesKey,
        build: &mut dyn FnMut() -> Result<ThemeSet>,
    ) -> Result<Arc<ThemeSet>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_store::{Column, TableBuilder};
    use std::collections::hash_map::DefaultHasher;

    fn table(name: &str) -> Arc<Table> {
        Arc::new(
            TableBuilder::new(name)
                .column("x", Column::dense_f64((0..50).map(f64::from).collect()))
                .unwrap()
                .build()
                .unwrap(),
        )
    }

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn same_view_same_fingerprint() {
        let t = table("t");
        let view = TableView::new(Arc::clone(&t));
        let a = ViewFingerprint::of(&view);
        let b = ViewFingerprint::of(&view.clone());
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert!(a.is_live());
        assert!(a.rows.is_none());
    }

    #[test]
    fn equal_selections_match_across_distinct_arcs() {
        let t = table("t");
        let a = TableView::with_rows(Arc::clone(&t), vec![1, 3, 5]).unwrap();
        let b = TableView::with_rows(Arc::clone(&t), vec![1, 3, 5]).unwrap();
        // Different Arc allocations, same content: must be one cache key.
        let fa = ViewFingerprint::of(&a);
        let fb = ViewFingerprint::of(&b);
        assert_eq!(fa, fb);
        assert_eq!(hash_of(&fa), hash_of(&fb));
        assert_eq!(fa.rows.as_ref().map(|r| r.len()), Some(3));
    }

    #[test]
    fn different_rows_or_tables_differ() {
        let t = table("t");
        let other = table("t"); // same shape and name, distinct identity
        let base = ViewFingerprint::of(&TableView::new(Arc::clone(&t)));
        let narrowed =
            ViewFingerprint::of(&TableView::with_rows(Arc::clone(&t), vec![0, 1]).unwrap());
        let elsewhere = ViewFingerprint::of(&TableView::new(Arc::clone(&other)));
        assert_ne!(base, narrowed);
        assert_ne!(base, elsewhere, "identical content, different table");
    }

    #[test]
    fn fingerprint_dies_with_its_table() {
        let t = table("t");
        let fp = ViewFingerprint::of(&TableView::new(Arc::clone(&t)));
        assert!(fp.is_live());
        drop(t);
        assert!(!fp.is_live());
    }

    #[test]
    fn map_key_separates_columns_and_config() {
        let t = table("t");
        let view = TableView::new(Arc::clone(&t));
        let config = crate::mapper::MapperConfig::default();
        let a = MapKey::new(&view, &["x"], &config);
        let b = MapKey::new(&view, &["x"], &config);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        let mut tweaked = config.clone();
        tweaked.seed += 1;
        assert_ne!(a, MapKey::new(&view, &["x"], &tweaked));
        assert_ne!(a, MapKey::new(&view, &["x", "x"], &config));
    }

    #[test]
    fn progressive_levels_get_distinct_keys_and_the_final_shares_maps() {
        // The progressive ladder keys its levels by (view, per-level
        // config): intermediate levels differ only in sample_size — which
        // is enough for a distinct key — while the final level passes the
        // base config verbatim and therefore shares the exact
        // Command::Map cache entry.
        let t = table("t");
        let view = TableView::new(Arc::clone(&t));
        let base = crate::mapper::MapperConfig::default();
        let ladder = crate::progressive::ProgressiveMap::new(50_000, &base);
        let exact = MapKey::new(&view, &["x"], &base);
        let mut keys = Vec::new();
        for level in 0..ladder.levels() {
            keys.push(MapKey::new(
                &view,
                &["x"],
                &ladder.config_for(level).unwrap(),
            ));
        }
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "levels must not collide");
            }
        }
        assert_eq!(keys.last().unwrap(), &exact);
        assert_eq!(hash_of(keys.last().unwrap()), hash_of(&exact));
    }

    #[test]
    fn themes_key_tracks_config() {
        let t = table("t");
        let view = TableView::new(Arc::clone(&t));
        let config = crate::themes::ThemeConfig::default();
        let a = ThemesKey::new(&view, &config);
        assert_eq!(a, ThemesKey::new(&view, &config));
        let mut tweaked = config.clone();
        tweaked.max_themes += 1;
        assert_ne!(a, ThemesKey::new(&view, &tweaked));
    }
}
