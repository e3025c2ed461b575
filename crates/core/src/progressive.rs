//! Progressive map refinement: first answer in milliseconds, deltas
//! until exact.
//!
//! Today's `Command::Map` answers only after the full analysis (sample →
//! preprocess → CLARA/PAM → CART) completes, so interactive p99 is gated
//! by the slowest exact run. This module turns that one build into a
//! deterministic *ladder* of builds over growing sample sizes:
//!
//! * `level_schedule` is a **pure function of the row count and the
//!   configured target sample** — no clocks, no adaptivity. Level 0 is
//!   sized (`FIRST_LEVEL` rows) to resolve in single-digit
//!   milliseconds; each rung multiplies the sample by
//!   `LADDER_FACTOR`; the final rung runs the session's `MapperConfig`
//!   **verbatim**, so its map is bit-for-bit the exact `Command::Map`
//!   result (and shares its analysis-cache key).
//! * The samples of successive rungs are **nested**: every sample is a
//!   prefix of one seeded shuffle stream
//!   ([`prefix_sample`](blaeu_store::prefix_sample)), so a coarser map
//!   is a genuine preview of the finer one, not an unrelated
//!   clustering — and drawing a small rung costs O(sample), not O(rows).
//! * Intermediate rungs are **preview maps**: region counts are scaled
//!   estimates from `sample × PREVIEW_FACTOR` routed rows instead of a
//!   full-view pass, which is what keeps a rung's cost proportional to
//!   its sample. Only the final rung (and any plain `Command::Map`)
//!   pays the exact full-view assignment.
//! * [`ProgressiveMap`] is the rung driver: it hands out the per-level
//!   `MapperConfig` (each intermediate level renders a distinct
//!   `Debug`, hence a distinct [`MapKey`](crate::cache::MapKey) — the
//!   `(ViewFingerprint, level)` keying the cache needs comes for free)
//!   and folds each completed map into a typed [`RefinementDelta`]:
//!   which regions changed, level metadata, and the per-level map
//!   digest. The final delta's digest equals the exact
//!   `Response::Map` digest verbatim — the anchor the determinism
//!   proptests pin.

use std::sync::Arc;

use crate::command::Response;
use crate::error::{BlaeuError, Result};
use crate::map::DataMap;
use crate::mapper::MapperConfig;

/// Sample size of level 0 — small enough that PAM plus a k sweep
/// resolves in single-digit milliseconds (the sweep is quadratic in the
/// sample, so 64 points price in well under a millisecond), large enough
/// that the coarse map usually finds the same major clusters the exact
/// map will.
const FIRST_LEVEL: usize = 64;

/// Sample-size multiplier between rungs. 4× keeps the ladder short
/// (four rungs cover 64 → 2048) while the total work of all
/// intermediate rungs stays a fraction of the exact build's.
const LADDER_FACTOR: usize = 4;

/// Intermediate rungs route `sample_size × PREVIEW_FACTOR` rows through
/// the fitted tree instead of the whole view
/// ([`MapperConfig::assign_preview`]) — enough rows that region counts
/// are tight estimates, without a full-view pass per rung. The final
/// rung always assigns exactly.
const PREVIEW_FACTOR: usize = 16;

/// The deterministic sample-size ladder for a view of `nrows` rows and
/// a configured `target_sample`. A **pure function** of its arguments:
/// intermediate sizes are `FIRST_LEVEL * LADDER_FACTOR^i` while they
/// stay below both the target and the row count, and the last entry is
/// always `target_sample` itself — the exact configuration, untouched.
/// Never empty; tiny views (or targets at or below [`FIRST_LEVEL`])
/// collapse to a single exact level.
fn level_schedule(nrows: usize, target_sample: usize) -> Vec<usize> {
    let target = target_sample.max(1);
    // Intermediate rungs below the row count are real refinements;
    // beyond it every level would resample the same clamped view.
    let cap = target.min(nrows.max(1));
    let mut schedule = Vec::new();
    let mut size = FIRST_LEVEL;
    while size < cap {
        schedule.push(size);
        size = size.saturating_mul(LADDER_FACTOR);
    }
    schedule.push(target);
    schedule
}

/// What one completed refinement level changed, plus the metadata a
/// client needs to render (or skip) the update.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementDelta {
    /// Index of the completed level (0 = the coarse first answer).
    pub level: usize,
    /// Total number of levels in the ladder.
    pub levels: usize,
    /// Scheduled sample size of this level (the exact target for the
    /// final level; the map itself may clamp to the view's row count).
    pub sample_size: usize,
    /// True for the last rung — the map is now the exact result.
    pub final_level: bool,
    /// Ids of regions that differ from the previous level's map (all
    /// regions at level 0). Region ids are stable pre-order indices, so
    /// an id appears here if its region was added, removed, or changed.
    pub changed_regions: Vec<usize>,
    /// Region count of this level's map.
    pub n_regions: usize,
    /// [`Response::digest`] of `Response::Map` over this level's map.
    /// For the final level this equals the exact `Command::Map` response
    /// digest verbatim.
    pub map_digest: u64,
}

/// Driver state of one in-flight progressive ladder: the schedule, the
/// cursor, and the previous level's map (the delta base).
#[derive(Debug, Clone)]
pub struct ProgressiveMap {
    schedule: Vec<usize>,
    base: MapperConfig,
    next: usize,
    prev: Option<Arc<DataMap>>,
}

impl ProgressiveMap {
    /// Plans the ladder for a view of `nrows` rows under the session's
    /// mapper configuration (whose `sample_size` is the exact target).
    pub fn new(nrows: usize, base: &MapperConfig) -> Self {
        ProgressiveMap {
            schedule: level_schedule(nrows, base.sample_size),
            base: base.clone(),
            next: 0,
            prev: None,
        }
    }

    /// Total number of levels.
    pub fn levels(&self) -> usize {
        self.schedule.len()
    }

    /// The next level to run, or `None` when the ladder is exhausted.
    pub fn next_level(&self) -> Option<usize> {
        (self.next < self.schedule.len()).then_some(self.next)
    }

    /// True once the final (exact) level has completed.
    pub fn is_finished(&self) -> bool {
        self.next >= self.schedule.len()
    }

    /// The `MapperConfig` for `level`. Intermediate levels override only
    /// `sample_size` and `assign_preview` (set to `size ×
    /// [`PREVIEW_FACTOR`]`, so counts are estimates from a routed
    /// subset); the **final level returns the base configuration
    /// verbatim**, which is what makes its map — and its analysis-cache
    /// key — identical to a plain `Command::Map` of the same state.
    ///
    /// # Errors
    /// Returns [`BlaeuError::Invalid`] for levels outside the schedule.
    pub fn config_for(&self, level: usize) -> Result<MapperConfig> {
        let Some(&size) = self.schedule.get(level) else {
            return Err(BlaeuError::Invalid(format!(
                "refinement level {level} outside the {}-level schedule",
                self.schedule.len()
            )));
        };
        if level + 1 == self.schedule.len() {
            Ok(self.base.clone())
        } else {
            let mut config = self.base.with_sample_size(size);
            config.assign_preview = size.saturating_mul(PREVIEW_FACTOR);
            Ok(config)
        }
    }

    /// Folds the map built for the next level into the ladder and
    /// returns its [`RefinementDelta`]. Must be called with the level
    /// [`ProgressiveMap::next_level`] announced.
    ///
    /// # Errors
    /// Returns [`BlaeuError::Invalid`] when `level` is not the expected
    /// next rung (an out-of-order or duplicate refinement).
    pub fn complete(&mut self, level: usize, map: &Arc<DataMap>) -> Result<RefinementDelta> {
        if self.next_level() != Some(level) {
            return Err(BlaeuError::Invalid(format!(
                "refinement level {level} out of order (expected {:?})",
                self.next_level()
            )));
        }
        let delta = RefinementDelta {
            level,
            levels: self.schedule.len(),
            sample_size: self.schedule[level],
            final_level: level + 1 == self.schedule.len(),
            changed_regions: map.changed_region_ids(self.prev.as_deref()),
            n_regions: map.n_regions(),
            map_digest: Response::Map(Arc::clone(map)).digest(),
        };
        self.prev = Some(Arc::clone(map));
        self.next += 1;
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::build_map;
    use blaeu_store::{Column, TableBuilder, TableView};

    #[test]
    fn schedule_is_pure_and_ends_at_target() {
        assert_eq!(level_schedule(50_000, 2000), vec![64, 256, 1024, 2000]);
        assert_eq!(level_schedule(50_000, 2048), vec![64, 256, 1024, 2048]);
        assert_eq!(
            level_schedule(50_000, 10_000),
            vec![64, 256, 1024, 4096, 10_000]
        );
        assert_eq!(level_schedule(50_000, 100), vec![64, 100]);
        // Tiny views and tiny targets collapse to a single exact level.
        assert_eq!(level_schedule(60, 2000), vec![2000]);
        assert_eq!(level_schedule(40, 2000), vec![2000]);
        assert_eq!(level_schedule(0, 2000), vec![2000]);
        assert_eq!(level_schedule(50_000, 0), vec![1]);
        // Determinism: same inputs, same ladder.
        assert_eq!(level_schedule(50_000, 2000), level_schedule(50_000, 2000));
    }

    #[test]
    fn final_config_is_the_base_verbatim() {
        let base = MapperConfig::default();
        let ladder = ProgressiveMap::new(50_000, &base);
        let last = ladder.levels() - 1;
        assert_eq!(
            format!("{:?}", ladder.config_for(last).unwrap()),
            format!("{base:?}")
        );
        // Intermediate configs differ only in sample size — and render
        // distinct Debug forms (distinct cache keys).
        let first = ladder.config_for(0).unwrap();
        assert_eq!(first.sample_size, FIRST_LEVEL);
        assert_ne!(format!("{first:?}"), format!("{base:?}"));
        assert!(ladder.config_for(ladder.levels()).is_err());
    }

    #[test]
    fn ladder_completes_in_order_and_diffs_regions() {
        let vals: Vec<f64> = (0..4000)
            .map(|i| {
                if i % 2 == 0 {
                    i as f64 * 0.01
                } else {
                    500.0 + i as f64 * 0.01
                }
            })
            .collect();
        let t = TableBuilder::new("t")
            .column("x", Column::dense_f64(vals))
            .unwrap()
            .build()
            .unwrap();
        let view = TableView::from(t);
        let base = MapperConfig::default();
        let mut ladder = ProgressiveMap::new(view.nrows(), &base);
        assert!(ladder.levels() >= 2);
        let mut last_delta = None;
        while let Some(level) = ladder.next_level() {
            let config = ladder.config_for(level).unwrap();
            let map = Arc::new(build_map(&view, &["x"], &config).unwrap());
            // Out-of-order completion is rejected without advancing.
            assert!(ladder.clone().complete(level + 1, &map).is_err());
            let delta = ladder.complete(level, &map).unwrap();
            assert_eq!(delta.level, level);
            assert_eq!(delta.levels, ladder.levels());
            if level == 0 {
                // Level 0 has no base: every region is "changed".
                assert_eq!(delta.changed_regions.len(), delta.n_regions);
            }
            assert_eq!(delta.map_digest, Response::Map(map).digest());
            last_delta = Some(delta);
        }
        let last = last_delta.unwrap();
        assert!(last.final_level);
        assert!(ladder.is_finished());

        // The final rung is bit-for-bit the exact build.
        let exact = Arc::new(build_map(&view, &["x"], &base).unwrap());
        assert_eq!(last.map_digest, Response::Map(exact).digest());
    }
}
