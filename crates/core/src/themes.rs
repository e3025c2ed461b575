//! Theme detection — the vertical clustering (Figure 1a of the paper).
//!
//! "Blaeu creates groups of mutually dependent columns. To do so, it
//! partitions the dependency graph with cluster analysis … it uses PAM."
//! Vertices (columns) are clustered on the distance `1 − dependency`; the
//! number of themes is chosen by the silhouette coefficient; each theme is
//! named after its medoid column and scored by its internal cohesion.

use std::fmt;

use blaeu_stats::DependencyOptions;
use blaeu_store::TableView;

use blaeu_cluster::{pam, silhouette_score, DistanceMatrix, PamConfig};

use crate::command::DigestMemo;
use crate::depgraph::DependencyGraph;
use crate::error::{BlaeuError, Result};
use crate::preprocess::{analyzable_columns, PreprocessConfig};

/// A theme: a group of mutually dependent columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Theme {
    /// Theme name (the medoid column, the group's most central member).
    pub name: String,
    /// Member columns, medoid first, then by decreasing dependency on it.
    pub columns: Vec<String>,
    /// Mean pairwise dependency among members (1.0 for singletons).
    pub cohesion: f64,
}

impl Theme {
    /// Number of member columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the theme has no columns (never produced by detection).
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// Configuration for [`detect_themes`].
#[derive(Debug, Clone)]
pub struct ThemeConfig {
    /// Dependency-measure options (measure, binning, sampling).
    pub dependency: DependencyOptions,
    /// Smallest number of themes to consider.
    pub min_themes: usize,
    /// Largest number of themes to consider.
    pub max_themes: usize,
    /// Fixed number of themes; overrides the silhouette sweep when set.
    pub fixed_themes: Option<usize>,
    /// PAM settings for the column clustering.
    pub pam: PamConfig,
}

impl Default for ThemeConfig {
    fn default() -> Self {
        ThemeConfig {
            dependency: DependencyOptions::default(),
            min_themes: 2,
            max_themes: 12,
            fixed_themes: None,
            pam: PamConfig::default(),
        }
    }
}

/// Result of theme detection.
///
/// A theme set is detected once and then shared as an `Arc`; it is
/// never mutated after its first
/// [`Response::digest`](crate::Response::digest), which memoises the
/// digest of the set's `Debug` text inside it. Nothing takes
/// `&mut ThemeSet` and nothing reaches into a shared one
/// (`Arc::get_mut`, `Arc::make_mut`); keep it so. A clone starts with
/// an empty memo.
#[derive(Clone)]
pub struct ThemeSet {
    /// Detected themes, most cohesive first.
    pub themes: Vec<Theme>,
    /// Silhouette of the winning column partition.
    pub silhouette: f64,
    /// The dependency graph the themes were cut from.
    pub graph: DependencyGraph,
    /// The digest of this set's `Debug` text, filled by the first
    /// digest of a `themes` response.
    pub(crate) digest_memo: DigestMemo,
}

// By hand only to leave the memo out: the text is the derived one.
impl fmt::Debug for ThemeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThemeSet")
            .field("themes", &self.themes)
            .field("silhouette", &self.silhouette)
            .field("graph", &self.graph)
            .finish()
    }
}

impl ThemeSet {
    /// Finds the theme containing `column`.
    pub fn theme_of(&self, column: &str) -> Option<&Theme> {
        self.themes
            .iter()
            .find(|t| t.columns.iter().any(|c| c == column))
    }

    /// Per-column theme index (aligned with `self.themes` order).
    pub fn column_assignments(&self) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        for (i, theme) in self.themes.iter().enumerate() {
            for c in &theme.columns {
                out.push((c.clone(), i));
            }
        }
        out
    }
}

/// Detects themes over the analyzable columns of a view.
///
/// # Errors
/// Fails when fewer than two analyzable columns exist, or on storage
/// errors from the dependency sweep.
pub fn detect_themes(view: &TableView, config: &ThemeConfig) -> Result<ThemeSet> {
    let prep = PreprocessConfig::default();
    let columns = analyzable_columns(view, &prep);
    detect_themes_on(view, &columns, config)
}

/// Detects themes over an explicit column list.
///
/// # Errors
/// Fails when fewer than two columns are given, or on storage errors.
fn detect_themes_on(view: &TableView, columns: &[&str], config: &ThemeConfig) -> Result<ThemeSet> {
    if columns.len() < 2 {
        return Err(BlaeuError::Invalid(format!(
            "theme detection needs at least 2 columns, got {}",
            columns.len()
        )));
    }
    let graph = DependencyGraph::build(view, columns, &config.dependency)?;
    let m = graph.len();

    // Distance between columns = 1 − dependency.
    let matrix = DistanceMatrix::from_fn(m, |i, j| (1.0 - graph.weight(i, j)).clamp(0.0, 1.0));

    // Choose the number of themes.
    let (labels, silhouette) = match config.fixed_themes {
        Some(k) => {
            let r = pam(&matrix, k.clamp(1, m), &config.pam);
            let s = silhouette_score(&matrix, &r.labels);
            (r.labels, s)
        }
        None => {
            let k_min = config.min_themes.max(2).min(m.saturating_sub(1).max(1));
            let k_max = config.max_themes.max(k_min).min(m.saturating_sub(1).max(1));
            let mut best: Option<(Vec<usize>, f64)> = None;
            for k in k_min..=k_max {
                let r = pam(&matrix, k, &config.pam);
                let s = silhouette_score(&matrix, &r.labels);
                if best.as_ref().is_none_or(|&(_, bs)| s > bs + 1e-12) {
                    best = Some((r.labels, s));
                }
            }
            best.ok_or_else(|| BlaeuError::Invalid("empty k range".to_owned()))?
        }
    };

    // Materialize themes: medoid = member with the highest mean dependency
    // to the rest of its theme.
    let nthemes = labels.iter().copied().max().unwrap_or(0) + 1;
    let mut themes = Vec::with_capacity(nthemes);
    for t in 0..nthemes {
        let members: Vec<usize> = (0..m).filter(|&i| labels[i] == t).collect();
        if members.is_empty() {
            continue;
        }
        let mean_dep = |i: usize| -> f64 {
            if members.len() <= 1 {
                return 1.0;
            }
            members
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| graph.weight(i, j))
                .sum::<f64>()
                / (members.len() - 1) as f64
        };
        let medoid = members
            .iter()
            .copied()
            .max_by(|&a, &b| mean_dep(a).total_cmp(&mean_dep(b)).then(b.cmp(&a)))
            .expect("nonempty");
        let mut ordered = members.clone();
        ordered.sort_by(|&a, &b| {
            if a == medoid {
                return std::cmp::Ordering::Less;
            }
            if b == medoid {
                return std::cmp::Ordering::Greater;
            }
            graph
                .weight(b, medoid)
                .total_cmp(&graph.weight(a, medoid))
                .then(a.cmp(&b))
        });
        let cohesion = if members.len() <= 1 {
            1.0
        } else {
            let mut sum = 0.0;
            let mut cnt = 0usize;
            for (x, &i) in members.iter().enumerate() {
                for &j in &members[x + 1..] {
                    sum += graph.weight(i, j);
                    cnt += 1;
                }
            }
            sum / cnt as f64
        };
        themes.push(Theme {
            name: graph.vertices()[medoid].clone(),
            columns: ordered
                .into_iter()
                .map(|i| graph.vertices()[i].clone())
                .collect(),
            cohesion,
        });
    }
    themes.sort_by(|a, b| {
        b.cohesion
            .total_cmp(&a.cohesion)
            .then_with(|| b.columns.len().cmp(&a.columns.len()))
            .then_with(|| a.name.cmp(&b.name))
    });

    Ok(ThemeSet {
        themes,
        silhouette,
        graph,
        digest_memo: DigestMemo::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_store::generate::{planted, PlantedConfig, ThemeSpec};
    use blaeu_store::{Column, TableBuilder};

    #[test]
    fn recovers_planted_themes() {
        let (table, truth) = planted(&PlantedConfig {
            nrows: 500,
            themes: vec![
                ThemeSpec::numeric("alpha", 4),
                ThemeSpec::numeric("beta", 4),
                ThemeSpec::numeric("gamma", 4),
            ],
            cluster_sep: 0.0, // pure column structure
            noise: 0.3,
            ..PlantedConfig::default()
        })
        .unwrap();
        let ts = detect_themes(&table.into(), &ThemeConfig::default()).unwrap();
        assert_eq!(ts.themes.len(), 3, "should find the 3 planted themes");
        // Every detected theme contains columns of exactly one planted theme.
        for theme in &ts.themes {
            let planted_ids: std::collections::HashSet<usize> = theme
                .columns
                .iter()
                .filter_map(|c| truth.theme_of(c))
                .collect();
            assert_eq!(
                planted_ids.len(),
                1,
                "theme {:?} mixes planted themes",
                theme.columns
            );
        }
        // NMI-space distances are compressed (within-theme NMI ≈ 0.5–0.7),
        // so the silhouette of even a perfect column partition is modest.
        assert!(ts.silhouette > 0.15, "silhouette {}", ts.silhouette);
    }

    #[test]
    fn fixed_theme_count_respected() {
        let (table, _) = planted(&PlantedConfig {
            nrows: 300,
            cluster_sep: 0.0,
            ..PlantedConfig::default()
        })
        .unwrap();
        let ts = detect_themes(
            &table.into(),
            &ThemeConfig {
                fixed_themes: Some(2),
                ..ThemeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(ts.themes.len(), 2);
    }

    #[test]
    fn theme_lookup_and_assignments() {
        let (table, _) = planted(&PlantedConfig {
            nrows: 300,
            cluster_sep: 0.0,
            ..PlantedConfig::default()
        })
        .unwrap();
        let ts = detect_themes(&table.into(), &ThemeConfig::default()).unwrap();
        let t = ts.theme_of("theme_a_0").expect("column is assigned");
        assert!(t.columns.contains(&"theme_a_0".to_owned()));
        let assignments = ts.column_assignments();
        assert_eq!(assignments.len(), 12);
        assert!(ts.theme_of("nonexistent").is_none());
    }

    #[test]
    fn medoid_leads_its_theme() {
        let (table, _) = planted(&PlantedConfig {
            nrows: 300,
            cluster_sep: 0.0,
            ..PlantedConfig::default()
        })
        .unwrap();
        let ts = detect_themes(&table.into(), &ThemeConfig::default()).unwrap();
        for theme in &ts.themes {
            assert_eq!(
                theme.columns[0], theme.name,
                "theme is named after its leading (medoid) column"
            );
            assert!((0.0..=1.0).contains(&theme.cohesion));
        }
    }

    #[test]
    fn too_few_columns_error() {
        let t = TableBuilder::new("t")
            .column("only", Column::dense_f64(vec![1.0, 2.0]))
            .unwrap()
            .build()
            .unwrap();
        assert!(matches!(
            detect_themes(&t.into(), &ThemeConfig::default()),
            Err(BlaeuError::Invalid(_))
        ));
    }

    #[test]
    fn themes_sorted_by_cohesion() {
        let (table, _) = planted(&PlantedConfig {
            nrows: 400,
            themes: vec![
                ThemeSpec::numeric("tight", 4),
                ThemeSpec::numeric("loose", 4),
            ],
            cluster_sep: 0.0,
            noise: 0.2,
            ..PlantedConfig::default()
        })
        .unwrap();
        let ts = detect_themes(&table.into(), &ThemeConfig::default()).unwrap();
        let cohesions: Vec<f64> = ts.themes.iter().map(|t| t.cohesion).collect();
        assert!(cohesions.windows(2).all(|w| w[0] >= w[1]));
    }
}
