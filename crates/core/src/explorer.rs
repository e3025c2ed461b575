//! The explorer: navigational actions over themes and maps (Section 2).
//!
//! An [`Explorer`] owns a base table, its detected themes, and a stack of
//! exploration states. The four actions of the paper map to methods:
//!
//! * **zoom** — [`Explorer::zoom`] drills into a region and re-maps it;
//! * **highlight** — [`Explorer::highlight`] inspects a column's
//!   distribution inside every region (read-only);
//! * **project** — [`Explorer::project`] / [`Explorer::project_theme`]
//!   re-map the same rows under different columns;
//! * **rollback** — [`Explorer::rollback`] returns to the previous state
//!   (every state is immutable, so rollback is exact).
//!
//! Every state carries the implicit Select-Project query the user has
//! built so far; [`Explorer::sql`] renders it.

use std::sync::Arc;

use blaeu_stats::{describe, histogram, ColumnSummary, Histogram};
use blaeu_store::{ColumnRole, SelectProject, Table, TableView};

use crate::cache::{AnalysisMemo, MapKey, ThemesKey};
use crate::command::{Command, Response};
use crate::error::{BlaeuError, Result};
use crate::map::DataMap;
use crate::mapper::{build_map, MapperConfig};
use crate::progressive::ProgressiveMap;
use crate::themes::{detect_themes, Theme, ThemeConfig, ThemeSet};

/// Explorer configuration.
#[derive(Debug, Clone, Default)]
pub struct ExplorerConfig {
    /// Theme-detection settings.
    pub themes: ThemeConfig,
    /// Map-construction settings.
    pub mapper: MapperConfig,
}

/// One immutable exploration state.
#[derive(Debug, Clone)]
pub struct ExplorerState {
    /// The active selection as a zero-copy view: the shared base table
    /// plus the row indices this state covers. Zooming re-maps indices;
    /// no column payload is ever copied on the navigation path.
    pub view: TableView,
    /// The active columns (empty until a theme is selected).
    pub columns: Vec<String>,
    /// The current map, if one was built.
    pub map: Option<Arc<DataMap>>,
    /// The implicit Select-Project query accumulated so far, expressed
    /// against the base table.
    pub query: SelectProject,
    /// Human-readable action trail.
    pub breadcrumbs: Vec<String>,
}

impl ExplorerState {
    /// Gathers the given view-relative rows as an owned example table —
    /// the single materialization helper for tuples shown to the user.
    /// Analysis never materializes; only examples do.
    fn example_rows(&self, rows: &[u32]) -> Result<Table> {
        Ok(self.view.gather(rows)?)
    }
}

/// Highlight of one column inside one region.
#[derive(Debug, Clone)]
pub struct RegionHighlight {
    /// Region id in the current map.
    pub region: usize,
    /// Rows in the region.
    pub count: usize,
    /// Summary statistics of the highlighted column within the region.
    pub summary: ColumnSummary,
    /// Histogram of the highlighted column within the region.
    pub histogram: Histogram,
    /// Example values (most frequent for categoricals, extremes for
    /// numerics), for the paper's "Switzerland, Norway, Canada…" effect.
    pub examples: Vec<String>,
}

/// Result of a highlight action.
#[derive(Debug, Clone)]
pub struct Highlight {
    /// The highlighted column.
    pub column: String,
    /// Per-leaf-region views, in leaf order.
    pub regions: Vec<RegionHighlight>,
}

/// Detailed view of one region (the paper's left info panel).
#[derive(Debug, Clone)]
pub struct RegionDetail {
    /// The region's metadata (predicate, counts, cluster).
    pub region: crate::map::Region,
    /// Up to `sample_rows` example tuples from the region.
    pub examples: Table,
    /// The cluster's representative (medoid) tuple, when available.
    pub medoid: Option<Vec<blaeu_store::Value>>,
}

/// An interactive exploration session over one table.
#[derive(Debug, Clone)]
pub struct Explorer {
    base: Arc<Table>,
    themes: Arc<ThemeSet>,
    config: ExplorerConfig,
    stack: Vec<ExplorerState>,
    /// Optional analysis memoizer (the server tier's cache); `None`
    /// builds every analysis directly — observationally identical.
    memo: Option<Arc<dyn AnalysisMemo>>,
    /// The in-flight progressive ladder, if a [`Command::MapProgressive`]
    /// is mid-refinement. Any other command invalidates it: the ladder
    /// was planned for a state the session has since navigated away from.
    ladder: Option<ProgressiveMap>,
}

impl Explorer {
    /// Most example tuples one [`Explorer::region_detail`] returns. The
    /// count comes straight off the wire, and every example row is
    /// gathered across all columns and then digested; clients show 5.
    pub const MAX_EXAMPLE_ROWS: usize = 1000;

    /// Opens an explorer on a table: detects themes and initializes the
    /// root state (all rows, no active columns).
    ///
    /// # Errors
    /// Propagates theme-detection failures (e.g. too few columns).
    // lint: allow(view-discipline) — ownership transfer at the session boundary: the table moves into an Arc once, here
    pub fn open(table: Table, config: ExplorerConfig) -> Result<Self> {
        Explorer::open_shared(Arc::new(table), config)
    }

    /// Opens an explorer on an already-shared table without copying it —
    /// many concurrent sessions can explore one big table through their
    /// own views of the same column payloads.
    ///
    /// # Errors
    /// Propagates theme-detection failures (e.g. too few columns).
    pub fn open_shared(base: Arc<Table>, config: ExplorerConfig) -> Result<Self> {
        Explorer::open_shared_memoized(base, config, None)
    }

    /// [`Explorer::open_shared`] with an analysis memoizer: theme
    /// detection and every subsequent map build go through `memo`, so
    /// sessions sharing one memoizer share their cluster analyses. A hit
    /// returns the identical `Arc` a previous build produced — caching is
    /// invisible to results by construction.
    ///
    /// # Errors
    /// Propagates theme-detection failures (e.g. too few columns).
    pub fn open_shared_memoized(
        base: Arc<Table>,
        config: ExplorerConfig,
        memo: Option<Arc<dyn AnalysisMemo>>,
    ) -> Result<Self> {
        let view = TableView::new(Arc::clone(&base));
        let themes = match &memo {
            Some(memo) => memo.memo_themes(ThemesKey::new(&view, &config.themes), &mut || {
                detect_themes(&view, &config.themes)
            })?,
            None => Arc::new(detect_themes(&view, &config.themes)?),
        };
        let initial = ExplorerState {
            view,
            columns: Vec::new(),
            map: None,
            query: SelectProject::all(),
            breadcrumbs: vec![format!(
                "open {} ({} rows, {} cols)",
                base.name(),
                base.nrows(),
                base.ncols()
            )],
        };
        Ok(Explorer {
            base,
            themes,
            config,
            stack: vec![initial],
            memo,
            ladder: None,
        })
    }

    /// Builds (or memo-fetches) the map of `columns` over `view`.
    fn map_for(&self, view: &TableView, columns: &[&str]) -> Result<Arc<DataMap>> {
        self.map_for_config(view, columns, &self.config.mapper)
    }

    /// [`Explorer::map_for`] under an explicit mapper configuration — the
    /// progressive ladder's per-level entry point. Each level's config
    /// renders a distinct `Debug`, hence its own [`MapKey`]; the final
    /// level passes the session config verbatim and therefore shares the
    /// plain `Command::Map` cache entry.
    fn map_for_config(
        &self,
        view: &TableView,
        columns: &[&str],
        config: &MapperConfig,
    ) -> Result<Arc<DataMap>> {
        match &self.memo {
            Some(memo) => memo.memo_map(MapKey::new(view, columns, config), &mut || {
                build_map(view, columns, config)
            }),
            None => Ok(Arc::new(build_map(view, columns, config)?)),
        }
    }

    /// The detected themes, most cohesive first.
    pub fn themes(&self) -> &[Theme] {
        &self.themes.themes
    }

    /// The full theme-detection result (incl. the dependency graph).
    pub fn theme_set(&self) -> &ThemeSet {
        self.themes.as_ref()
    }

    /// The shared theme-detection result — handed to responses without
    /// copying (many queued clients share one `Arc`).
    fn theme_set_shared(&self) -> Arc<ThemeSet> {
        Arc::clone(&self.themes)
    }

    /// The base table.
    pub fn base(&self) -> &Table {
        &self.base
    }

    /// The current state.
    pub fn current(&self) -> &ExplorerState {
        self.stack.last().expect("stack never empty")
    }

    /// The current map.
    ///
    /// # Errors
    /// Returns [`BlaeuError::NoActiveMap`] before any theme is selected.
    pub fn map(&self) -> Result<&DataMap> {
        self.current().map.as_deref().ok_or(BlaeuError::NoActiveMap)
    }

    /// Number of states on the history stack.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn push_state(
        &mut self,
        view: TableView,
        columns: Vec<String>,
        map: Arc<DataMap>,
        query: SelectProject,
        crumb: String,
    ) {
        let mut breadcrumbs = self.current().breadcrumbs.clone();
        breadcrumbs.push(crumb);
        self.stack.push(ExplorerState {
            view,
            columns,
            map: Some(map),
            query,
            breadcrumbs,
        });
    }

    /// Selects a theme: builds a map of the current selection under the
    /// theme's columns.
    ///
    /// # Errors
    /// Returns [`BlaeuError::UnknownTheme`] for bad indices and propagates
    /// mapping failures.
    pub fn select_theme(&mut self, idx: usize) -> Result<&DataMap> {
        let theme = self
            .themes
            .themes
            .get(idx)
            .ok_or(BlaeuError::UnknownTheme(idx))?
            .clone();
        let columns: Vec<&str> = theme.columns.iter().map(String::as_str).collect();
        let view = self.current().view.clone();
        let map = self.map_for(&view, &columns)?;
        let query = self.current().query.clone().project(theme.columns.clone());
        self.push_state(
            view,
            theme.columns.clone(),
            map,
            query,
            format!("theme \"{}\" ({} columns)", theme.name, theme.columns.len()),
        );
        Ok(self.map().expect("just built"))
    }

    /// Zooms into a region of the current map: the selection narrows to
    /// the region's rows — an index re-map over the shared table, no
    /// gathering — and a fresh map is built on the same columns.
    ///
    /// # Errors
    /// Needs an active map and a valid region; zooming into an empty
    /// region yields [`BlaeuError::EmptySelection`].
    pub fn zoom(&mut self, region_id: usize) -> Result<&DataMap> {
        let state = self.current();
        let map = state.map.as_deref().ok_or(BlaeuError::NoActiveMap)?;
        let region = map.region(region_id)?.clone();
        // Zoom narrows the data itself, so a preview map (mid-ladder) must
        // not leak its routed subset into the new selection: resolve the
        // region's rows exactly through the tree.
        let rows = map.exact_rows_of(&state.view, region_id)?;
        if rows.is_empty() {
            return Err(BlaeuError::EmptySelection);
        }
        let new_view = state.view.select(&rows)?;
        let columns = state.columns.clone();
        let cols_ref: Vec<&str> = columns.iter().map(String::as_str).collect();
        let new_map = self.map_for(&new_view, &cols_ref)?;
        let query = state.query.clone().and_where(region.predicate.clone());
        let label = if region.description.is_empty() {
            format!("region #{region_id}")
        } else {
            region.description.join(" and ")
        };
        self.push_state(
            new_view,
            columns,
            new_map,
            query,
            format!("zoom into {label} ({} rows)", rows.len()),
        );
        Ok(self.map().expect("just built"))
    }

    /// Projects the current selection onto different columns (e.g. another
    /// theme): same rows, new map.
    ///
    /// # Errors
    /// Propagates mapping failures; unknown columns error out.
    pub fn project(&mut self, columns: &[&str]) -> Result<&DataMap> {
        if columns.is_empty() {
            return Err(BlaeuError::Invalid(
                "projection needs at least one column".to_owned(),
            ));
        }
        let view = self.current().view.clone();
        let map = self.map_for(&view, columns)?;
        let owned: Vec<String> = columns.iter().map(|&s| s.to_owned()).collect();
        let query = self.current().query.clone().project(owned.clone());
        self.push_state(
            view,
            owned.clone(),
            map,
            query,
            format!("project onto [{}]", owned.join(", ")),
        );
        Ok(self.map().expect("just built"))
    }

    /// Rebuilds the map of the current selection on the current columns,
    /// replacing the current state's map in place (depth unchanged) —
    /// the explicit "map this" request of the async protocol. The
    /// rebuild is deterministic, so the refreshed map equals the one it
    /// replaces; with a memoizer attached the request is the canonical
    /// cache hit.
    ///
    /// # Errors
    /// Returns [`BlaeuError::NoActiveMap`] before any theme is selected.
    fn remap(&mut self) -> Result<&DataMap> {
        let state = self.current();
        if state.columns.is_empty() {
            return Err(BlaeuError::NoActiveMap);
        }
        let view = state.view.clone();
        let columns = state.columns.clone();
        let cols_ref: Vec<&str> = columns.iter().map(String::as_str).collect();
        let map = self.map_for(&view, &cols_ref)?;
        self.stack.last_mut().expect("stack never empty").map = Some(map);
        Ok(self.map().expect("just rebuilt"))
    }

    /// Starts a progressive re-map of the current selection: plans the
    /// deterministic sample ladder for the current row count, builds
    /// level 0 (sized to resolve in milliseconds), replaces the current
    /// state's map in place and returns the level-0
    /// [`Response::MapDelta`]. When the schedule has further rungs the
    /// ladder stays armed and [`Command::MapRefine`] runs them; the
    /// final rung rebuilds under the session configuration verbatim, so
    /// its map — and digest — equal a plain [`Command::Map`].
    ///
    /// # Errors
    /// Returns [`BlaeuError::NoActiveMap`] before any theme is selected.
    pub fn map_progressive(&mut self) -> Result<Response> {
        if self.current().columns.is_empty() {
            return Err(BlaeuError::NoActiveMap);
        }
        let mut ladder = ProgressiveMap::new(self.current().view.nrows(), &self.config.mapper);
        let level = ladder.next_level().expect("schedule never empty");
        self.run_rung(&mut ladder, level)
    }

    /// Runs one pending rung of the in-flight progressive ladder
    /// (level `level` must be the next scheduled one). The session
    /// server re-enqueues these between other work; any non-refine
    /// command executed in between disarms the ladder.
    ///
    /// # Errors
    /// Returns [`BlaeuError::Invalid`] when no ladder is armed or the
    /// level is out of order.
    fn map_refine(&mut self, level: usize) -> Result<Response> {
        let mut ladder = self.ladder.take().ok_or_else(|| {
            BlaeuError::Invalid(format!(
                "refinement level {level} without an in-flight progressive map"
            ))
        })?;
        self.run_rung(&mut ladder, level)
    }

    /// Builds one ladder level, folds it into the delta stream, and
    /// replaces the current map in place (depth unchanged, like remap).
    fn run_rung(&mut self, ladder: &mut ProgressiveMap, level: usize) -> Result<Response> {
        if ladder.next_level() != Some(level) {
            return Err(BlaeuError::Invalid(format!(
                "refinement level {level} out of order (expected {:?})",
                ladder.next_level()
            )));
        }
        let state = self.current();
        let view = state.view.clone();
        let columns = state.columns.clone();
        let cols_ref: Vec<&str> = columns.iter().map(String::as_str).collect();
        let config = ladder.config_for(level)?;
        let map = self.map_for_config(&view, &cols_ref, &config)?;
        let delta = ladder.complete(level, &map)?;
        self.stack.last_mut().expect("stack never empty").map = Some(Arc::clone(&map));
        if !ladder.is_finished() {
            self.ladder = Some(ladder.clone());
        }
        Ok(Response::MapDelta { map, delta })
    }

    /// Projects onto the columns of theme `idx`.
    ///
    /// # Errors
    /// Returns [`BlaeuError::UnknownTheme`] for bad indices.
    pub fn project_theme(&mut self, idx: usize) -> Result<&DataMap> {
        let columns: Vec<String> = self
            .themes
            .themes
            .get(idx)
            .ok_or(BlaeuError::UnknownTheme(idx))?
            .columns
            .clone();
        let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
        self.project(&cols)
    }

    /// Highlights a column: summaries, histograms and example values per
    /// leaf region of the current map. Read-only (no state change).
    ///
    /// # Errors
    /// Needs an active map and an existing column.
    pub fn highlight(&self, column: &str) -> Result<Highlight> {
        let state = self.current();
        let map = state.map.as_deref().ok_or(BlaeuError::NoActiveMap)?;
        state.view.col_by_name(column)?;
        let mut regions = Vec::new();
        for leaf in map.leaves() {
            let rows = map.leaf_rows_of(leaf.id)?;
            let sub = state.view.select(rows)?;
            let col = sub.col_by_name(column)?;
            let summary = describe(&col, 5);
            let hist = histogram(&col, 8);
            let examples = match &summary {
                ColumnSummary::Categorical(s) => {
                    s.top.iter().map(|(label, _)| label.clone()).collect()
                }
                ColumnSummary::Numeric(s) => {
                    if s.count == 0 {
                        Vec::new()
                    } else {
                        vec![
                            format!("min {:.2}", s.min),
                            format!("median {:.2}", s.median),
                            format!("max {:.2}", s.max),
                        ]
                    }
                }
            };
            regions.push(RegionHighlight {
                region: leaf.id,
                count: rows.len(),
                summary,
                histogram: hist,
                examples,
            });
        }
        Ok(Highlight {
            column: column.to_owned(),
            regions,
        })
    }

    /// Bivariate highlight: a scatter density of two numeric columns per
    /// leaf region (the paper's "classic … bivariate visualization
    /// methods, such as … scatter-plots"). Read-only.
    ///
    /// # Errors
    /// Needs an active map, existing numeric columns.
    pub fn scatter(
        &self,
        x_column: &str,
        y_column: &str,
        bins: usize,
    ) -> Result<Vec<(usize, blaeu_stats::ScatterGrid)>> {
        let state = self.current();
        let map = state.map.as_deref().ok_or(BlaeuError::NoActiveMap)?;
        for col in [x_column, y_column] {
            let c = state.view.col_by_name(col)?;
            if !c.data_type().is_numeric() {
                return Err(BlaeuError::Invalid(format!(
                    "scatter needs numeric columns; {col:?} is {}",
                    c.data_type()
                )));
            }
        }
        let bins = bins.clamp(2, 64);
        let mut out = Vec::new();
        for leaf in map.leaves() {
            let rows = map.leaf_rows_of(leaf.id)?;
            let sub = state.view.select(rows)?;
            let x = sub.col_by_name(x_column)?;
            let y = sub.col_by_name(y_column)?;
            out.push((leaf.id, blaeu_stats::ScatterGrid::build(&x, &y, bins, bins)));
        }
        Ok(out)
    }

    /// Rolls back to the previous state.
    ///
    /// # Errors
    /// Returns [`BlaeuError::HistoryEmpty`] at the initial state.
    pub fn rollback(&mut self) -> Result<()> {
        if self.stack.len() <= 1 {
            return Err(BlaeuError::HistoryEmpty);
        }
        self.stack.pop();
        Ok(())
    }

    /// Rolls back to history position `depth` (1 = the initial state), so
    /// the whole trail is addressable, not just the last step.
    ///
    /// # Errors
    /// Returns [`BlaeuError::Invalid`] for positions outside the history.
    fn rollback_to(&mut self, depth: usize) -> Result<()> {
        if depth == 0 || depth > self.stack.len() {
            return Err(BlaeuError::Invalid(format!(
                "history position {depth} outside 1..={}",
                self.stack.len()
            )));
        }
        self.stack.truncate(depth);
        Ok(())
    }

    /// Detailed view of one region: its metadata, up to `sample_rows`
    /// example tuples (the region's lowest view rows), and the
    /// representative (medoid) tuple when the region's cluster has one —
    /// the paper's left info panel (Figure 6).
    ///
    /// # Errors
    /// Needs an active map and a valid region id; `sample_rows` above
    /// [`Explorer::MAX_EXAMPLE_ROWS`] is [`BlaeuError::Invalid`].
    pub fn region_detail(&self, region_id: usize, sample_rows: usize) -> Result<RegionDetail> {
        if sample_rows > Self::MAX_EXAMPLE_ROWS {
            return Err(BlaeuError::Invalid(format!(
                "sample_rows {sample_rows} exceeds the cap of {}",
                Self::MAX_EXAMPLE_ROWS
            )));
        }
        let state = self.current();
        let map = state.map.as_deref().ok_or(BlaeuError::NoActiveMap)?;
        let region = map.region(region_id)?.clone();
        let rows = map.first_rows_of(region_id, sample_rows)?;
        let examples = state.example_rows(&rows)?;
        let medoid = map
            .medoid_rows
            .get(region.cluster)
            .map(|&m| state.view.row(m as usize))
            .transpose()?;
        Ok(RegionDetail {
            region,
            examples,
            medoid,
        })
    }

    /// Writes the current selection (all rows and columns of the active
    /// view) as CSV — so an exploration result can leave the tool. Rows
    /// stream straight from the shared columns through the view's index
    /// map; no sub-table is materialized for the export.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn export_view_csv<W: std::io::Write>(&self, writer: W) -> Result<()> {
        blaeu_store::write_csv_view(
            &self.current().view,
            writer,
            &blaeu_store::CsvOptions::default(),
        )?;
        Ok(())
    }

    /// Renders the accumulated implicit query as SQL against the base
    /// table.
    pub fn sql(&self) -> String {
        self.current().query.to_sql(self.base.name())
    }

    /// Label columns of the base table (handy highlight targets).
    pub fn label_columns(&self) -> Vec<&str> {
        self.base
            .schema()
            .fields()
            .iter()
            .filter(|f| f.role == ColumnRole::Label)
            .map(|f| f.name.as_str())
            .collect()
    }

    /// The action trail of the current state.
    pub fn breadcrumbs(&self) -> &[String] {
        &self.current().breadcrumbs
    }

    /// The shared map of the current state.
    fn current_map_shared(&self) -> Result<Arc<DataMap>> {
        self.current().map.clone().ok_or(BlaeuError::NoActiveMap)
    }

    /// Executes one queued [`Command`] against this session — the async
    /// session tier's single entry point. Every navigational method maps
    /// to exactly one command, so a session is fully drivable as a FIFO
    /// command pipeline.
    ///
    /// # Errors
    /// Exactly the errors of the underlying method (unknown theme/region,
    /// no active map, empty history, …).
    pub fn execute(&mut self, command: &Command) -> Result<Response> {
        // Any command but a refine supersedes an in-flight ladder: its
        // remaining rungs were planned for a state this command may
        // navigate away from. (`MapProgressive` re-arms a fresh one.)
        if !matches!(command, Command::MapRefine { .. }) {
            self.ladder = None;
        }
        match command {
            Command::SelectTheme(idx) => {
                self.select_theme(*idx)?;
                Ok(Response::Map(self.current_map_shared()?))
            }
            Command::Zoom(region) => {
                self.zoom(*region)?;
                Ok(Response::Map(self.current_map_shared()?))
            }
            Command::Map => {
                self.remap()?;
                Ok(Response::Map(self.current_map_shared()?))
            }
            Command::MapProgressive => self.map_progressive(),
            Command::MapRefine { level } => self.map_refine(*level),
            Command::Project(columns) => {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                self.project(&cols)?;
                Ok(Response::Map(self.current_map_shared()?))
            }
            Command::ProjectTheme(idx) => {
                self.project_theme(*idx)?;
                Ok(Response::Map(self.current_map_shared()?))
            }
            Command::Highlight(column) => {
                Ok(Response::Highlight(Box::new(self.highlight(column)?)))
            }
            Command::Scatter { x, y, bins } => Ok(Response::Scatter(self.scatter(x, y, *bins)?)),
            Command::RegionDetail {
                region,
                sample_rows,
            } => Ok(Response::RegionDetail(Box::new(
                self.region_detail(*region, *sample_rows)?,
            ))),
            Command::Rollback => {
                self.rollback()?;
                Ok(Response::Depth(self.depth()))
            }
            Command::RollbackTo(depth) => {
                self.rollback_to(*depth)?;
                Ok(Response::Depth(self.depth()))
            }
            Command::Themes => Ok(Response::Themes(self.theme_set_shared())),
            Command::Sql => Ok(Response::Sql(self.sql())),
            Command::Breadcrumbs => Ok(Response::Breadcrumbs(self.breadcrumbs().to_vec())),
            Command::Depth => Ok(Response::Depth(self.depth())),
            Command::Sketch(op) => {
                let plan = op.plan(&self.current().view)?;
                let partial = plan.run_range(0..plan.spec().shard_count(), 0);
                Ok(Response::Sketch(Box::new(op.finalize(partial)?)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_store::generate::{oecd, OecdConfig};

    fn small_explorer() -> Explorer {
        let (table, _) = oecd(&OecdConfig {
            nrows: 400,
            ncols: 24,
            missing_rate: 0.0,
            ..OecdConfig::default()
        })
        .unwrap();
        Explorer::open(table, ExplorerConfig::default()).unwrap()
    }

    #[test]
    fn open_detects_themes() {
        let ex = small_explorer();
        assert!(ex.themes().len() >= 2, "got {} themes", ex.themes().len());
        assert!(ex.map().is_err(), "no map before theme selection");
        assert_eq!(ex.depth(), 1);
        assert_eq!(ex.label_columns(), vec!["region", "country"]);
    }

    #[test]
    fn full_navigation_cycle() {
        let mut ex = small_explorer();

        // Select the theme containing the labor headline column.
        let labor_idx = ex
            .themes()
            .iter()
            .position(|t| t.columns.iter().any(|c| c == "pct_employees_long_hours"))
            .expect("labor theme detected");
        let map = ex.select_theme(labor_idx).unwrap();
        assert!(map.leaves().len() >= 2);
        let biggest = map
            .leaves()
            .iter()
            .max_by_key(|r| r.count)
            .map(|r| r.id)
            .unwrap();
        assert_eq!(ex.depth(), 2);

        // Zoom into the largest leaf.
        let before_rows = ex.current().view.nrows();
        ex.zoom(biggest).unwrap();
        let after_rows = ex.current().view.nrows();
        assert!(after_rows < before_rows);
        assert_eq!(ex.depth(), 3);

        // Highlight the country label.
        let hl = ex.highlight("country").unwrap();
        assert_eq!(hl.column, "country");
        assert!(!hl.regions.is_empty());
        for r in &hl.regions {
            assert!(r.count > 0);
            assert!(!r.examples.is_empty());
        }

        // Project onto another theme.
        let other = (0..ex.themes().len()).find(|&i| i != labor_idx).unwrap();
        ex.project_theme(other).unwrap();
        assert_eq!(ex.depth(), 4);
        assert_eq!(ex.current().view.nrows(), after_rows, "same rows");

        // Roll all the way back.
        ex.rollback().unwrap();
        ex.rollback().unwrap();
        ex.rollback().unwrap();
        assert_eq!(ex.depth(), 1);
        assert!(matches!(ex.rollback(), Err(BlaeuError::HistoryEmpty)));
    }

    #[test]
    fn rollback_restores_exact_state() {
        let mut ex = small_explorer();
        let crumbs_before = ex.breadcrumbs().to_vec();
        let rows_before = ex.current().view.nrows();
        let sql_before = ex.sql();

        ex.select_theme(0).unwrap();
        let map = ex.map().unwrap();
        let some_leaf = map.leaves()[0].id;
        ex.zoom(some_leaf).unwrap();
        ex.rollback().unwrap();
        ex.rollback().unwrap();

        assert_eq!(ex.breadcrumbs(), crumbs_before.as_slice());
        assert_eq!(ex.current().view.nrows(), rows_before);
        assert_eq!(ex.sql(), sql_before);
    }

    #[test]
    fn sql_accumulates_selections() {
        let mut ex = small_explorer();
        assert!(ex.sql().starts_with("SELECT * FROM"));
        ex.select_theme(0).unwrap();
        assert!(ex.sql().contains("SELECT \""), "projection rendered");
        let map = ex.map().unwrap();
        // Zoom into a non-root leaf to gain a WHERE clause.
        let leaf = map.leaves()[0].id;
        ex.zoom(leaf).unwrap();
        assert!(ex.sql().contains("WHERE"), "{}", ex.sql());
    }

    #[test]
    fn errors_for_bad_indices() {
        let mut ex = small_explorer();
        assert!(matches!(
            ex.select_theme(999),
            Err(BlaeuError::UnknownTheme(999))
        ));
        assert!(matches!(ex.zoom(0), Err(BlaeuError::NoActiveMap)));
        ex.select_theme(0).unwrap();
        assert!(matches!(ex.zoom(9999), Err(BlaeuError::UnknownRegion(_))));
        assert!(ex.highlight("no_such_column").is_err());
        assert!(ex.project(&[]).is_err());
    }

    #[test]
    fn highlight_numeric_column() {
        let mut ex = small_explorer();
        ex.select_theme(0).unwrap();
        let col = ex.current().columns[0].clone();
        let hl = ex.highlight(&col).unwrap();
        for r in &hl.regions {
            assert!(matches!(r.summary, ColumnSummary::Numeric(_)));
            assert_eq!(r.examples.len(), 3);
        }
    }

    #[test]
    fn rollback_to_jumps_through_history() {
        let mut ex = small_explorer();
        ex.select_theme(0).unwrap();
        let leaf = ex.map().unwrap().leaves()[0].id;
        ex.zoom(leaf).unwrap();
        assert_eq!(ex.depth(), 3);
        ex.rollback_to(1).unwrap();
        assert_eq!(ex.depth(), 1);
        assert!(ex.map().is_err());
        assert!(ex.rollback_to(0).is_err());
        assert!(ex.rollback_to(5).is_err());
        // rollback_to the current position is a no-op.
        ex.rollback_to(1).unwrap();
        assert_eq!(ex.depth(), 1);
    }

    #[test]
    fn progressive_execute_refines_to_exact() {
        let mut ex = small_explorer();
        ex.select_theme(0).unwrap();
        let exact = ex.execute(&Command::Map).unwrap().digest();

        let first = ex.execute(&Command::MapProgressive).unwrap();
        let Response::MapDelta { delta, .. } = &first else {
            panic!("expected a delta, got {first:?}");
        };
        assert_eq!(delta.level, 0);
        // 400 rows under the default 2000-row target: a real ladder.
        assert!(delta.levels >= 2, "schedule {:?}", delta.levels);
        let mut final_level = delta.final_level;
        let mut final_digest = delta.map_digest;
        let mut level = 1;
        while !final_level {
            let next = ex.execute(&Command::MapRefine { level }).unwrap();
            let Response::MapDelta { delta, .. } = &next else {
                panic!("expected a delta, got {next:?}");
            };
            assert_eq!(delta.level, level);
            final_level = delta.final_level;
            final_digest = delta.map_digest;
            level += 1;
        }
        // The final rung is byte-identical to the exact Command::Map.
        assert_eq!(final_digest, exact);
        // The current state's map IS the exact map now.
        assert_eq!(
            Response::Map(ex.current().map.clone().unwrap()).digest(),
            exact
        );
        // Refining past the end errors: the ladder is spent.
        assert!(ex.execute(&Command::MapRefine { level }).is_err());
    }

    #[test]
    fn superseding_command_disarms_the_ladder() {
        let mut ex = small_explorer();
        ex.select_theme(0).unwrap();
        let first = ex.execute(&Command::MapProgressive).unwrap();
        let Response::MapDelta { delta, .. } = &first else {
            panic!("expected a delta");
        };
        assert!(!delta.final_level, "need a pending rung for this test");
        // Any non-refine command invalidates the pending rungs…
        ex.execute(&Command::Sql).unwrap();
        assert!(matches!(
            ex.execute(&Command::MapRefine { level: 1 }),
            Err(BlaeuError::Invalid(_))
        ));
        // …and refining without ever starting a ladder errors too.
        assert!(ex.execute(&Command::MapRefine { level: 0 }).is_err());
        // Progressive before any theme: typed NoActiveMap.
        let mut fresh = small_explorer();
        assert!(matches!(
            fresh.execute(&Command::MapProgressive),
            Err(BlaeuError::NoActiveMap)
        ));
    }

    #[test]
    fn region_detail_shows_examples_and_medoid() {
        let mut ex = small_explorer();
        ex.select_theme(0).unwrap();
        let leaf = ex.map().unwrap().leaves()[0].clone();
        let detail = ex.region_detail(leaf.id, 5).unwrap();
        assert_eq!(detail.region.id, leaf.id);
        assert!(detail.examples.nrows() <= 5);
        assert!(detail.examples.nrows() > 0);
        assert_eq!(detail.examples.ncols(), ex.base().ncols());
        if let Some(medoid) = &detail.medoid {
            assert_eq!(medoid.len(), ex.base().ncols());
        }
        assert!(ex.region_detail(9999, 5).is_err());
    }

    #[test]
    fn region_detail_caps_example_rows() {
        let mut ex = small_explorer();
        ex.select_theme(0).unwrap();
        let at_cap = ex.region_detail(0, Explorer::MAX_EXAMPLE_ROWS).unwrap();
        assert_eq!(
            at_cap.examples.nrows(),
            Explorer::MAX_EXAMPLE_ROWS.min(ex.current().view.nrows())
        );
        let over = Command::RegionDetail {
            region: 0,
            sample_rows: Explorer::MAX_EXAMPLE_ROWS + 1,
        };
        assert!(matches!(ex.execute(&over), Err(BlaeuError::Invalid(_))));
    }

    #[test]
    fn scatter_per_region() {
        let mut ex = small_explorer();
        ex.select_theme(0).unwrap();
        let cols = ex.current().columns.clone();
        let grids = ex.scatter(&cols[0], &cols[1], 10).unwrap();
        assert_eq!(grids.len(), ex.map().unwrap().leaves().len());
        let total: usize = grids.iter().map(|(_, g)| g.total()).sum();
        assert_eq!(total, ex.current().view.nrows());
        // Errors for categorical or missing columns.
        assert!(ex.scatter("country", &cols[0], 10).is_err());
        assert!(ex.scatter("ghost", &cols[0], 10).is_err());
    }

    #[test]
    fn export_view_csv_roundtrips() {
        let mut ex = small_explorer();
        ex.select_theme(0).unwrap();
        let leaf = ex.map().unwrap().leaves()[0].id;
        ex.zoom(leaf).unwrap();
        let mut buf = Vec::new();
        ex.export_view_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed =
            blaeu_store::read_csv_str("export", &text, &blaeu_store::CsvOptions::default())
                .unwrap();
        assert_eq!(parsed.nrows(), ex.current().view.nrows());
        assert_eq!(parsed.ncols(), ex.current().view.ncols());
    }
}
