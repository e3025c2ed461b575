//! The Countries & Work dataset: OECD-style regional indicators
//! (demo scenario 2; the paper's running example of Figures 1 and 2).
//!
//! Defaults reproduce the paper's shape: 6 823 regions from 31 countries and
//! 378 columns grouped into themes (labor, unemployment, health, …). The
//! labor theme carries the exact structure of Figure 1b: three clusters
//! separated at *% employees working long hours ≈ 20* and *average income ≈
//! 22 k$*, with countries like Canada, Norway and Switzerland concentrated
//! in the pleasant low-hours / high-income cluster.

use rand::Rng;

use crate::column::Column;
use crate::error::Result;
use crate::sample::{rng_from_seed, StoreRng};
use crate::schema::ColumnRole;
use crate::table::{Table, TableBuilder};

use super::{gauss, weighted_index, PlantedTruth};

/// Configuration for [`oecd`].
#[derive(Debug, Clone)]
pub struct OecdConfig {
    /// Number of regions (paper: 6 823).
    pub nrows: usize,
    /// Total number of columns to emit, including the named headline
    /// indicators but excluding the region / country identifier columns
    /// (paper: 378). Clamped to at least the headline set.
    pub ncols: usize,
    /// RNG seed.
    pub seed: u64,
    /// Cell-level missing rate for filler indicators (real OECD extracts are
    /// sparse; headline indicators stay dense so the running example works).
    pub missing_rate: f64,
}

impl Default for OecdConfig {
    fn default() -> Self {
        OecdConfig {
            nrows: 6823,
            ncols: 378,
            seed: 1961,
            missing_rate: 0.02,
        }
    }
}

/// 31 member countries, as in the paper's dataset.
const COUNTRIES: &[&str] = &[
    "Australia",
    "Austria",
    "Belgium",
    "Canada",
    "Chile",
    "Czechia",
    "Denmark",
    "Estonia",
    "Finland",
    "France",
    "Germany",
    "Greece",
    "Hungary",
    "Iceland",
    "Ireland",
    "Israel",
    "Italy",
    "Japan",
    "Korea",
    "Mexico",
    "Netherlands",
    "New Zealand",
    "Norway",
    "Poland",
    "Portugal",
    "Slovakia",
    "Slovenia",
    "Spain",
    "Sweden",
    "Switzerland",
    "United States",
];

/// Countries the paper highlights in the low-hours / high-income cluster.
const PLEASANT: &[&str] = &["Canada", "Norway", "Switzerland", "Denmark", "Netherlands"];

/// Theme layout: name plus the named headline columns it owns.
const THEMES: &[(&str, &[&str])] = &[
    (
        "labor",
        &[
            "pct_employees_long_hours",
            "avg_annual_income_kusd",
            "time_devoted_leisure_h",
        ],
    ),
    (
        "unemployment",
        &[
            "unemployment_rate",
            "long_term_unemployment",
            "female_unemployment",
        ],
    ),
    (
        "health",
        &[
            "pct_health_insurance",
            "life_expectancy",
            "health_spending_pct_gdp",
        ],
    ),
    ("economy", &["gdp_per_capita_kusd", "household_income_kusd"]),
    ("education", &["pct_tertiary_education", "mean_pisa_score"]),
    (
        "environment",
        &["air_pollution_ugm3", "water_quality_index"],
    ),
    ("safety", &["homicide_rate", "self_reported_safety"]),
    ("housing", &["rooms_per_person", "housing_cost_share"]),
    ("community", &["social_support_pct", "volunteering_rate"]),
    ("wellbeing", &["life_satisfaction", "work_life_balance_idx"]),
];

/// Row clusters planted in the labor theme (Figure 1b of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaborCluster {
    /// ≥ 20 % of employees work very long hours.
    Overworked = 0,
    /// < 20 % long hours and average income ≥ 22 k$.
    BalancedRich = 1,
    /// < 20 % long hours and average income < 22 k$.
    BalancedPoor = 2,
}

fn pick_country(rng: &mut StoreRng, cluster: usize) -> &'static str {
    if cluster == LaborCluster::BalancedRich as usize && rng.gen::<f64>() < 0.75 {
        PLEASANT[rng.gen_range(0..PLEASANT.len())]
    } else {
        COUNTRIES[rng.gen_range(0..COUNTRIES.len())]
    }
}

/// Generates the Countries & Work table plus ground truth.
///
/// Truth labels are the three labor clusters; `theme_of_column` assigns
/// every attribute column to its theme index in theme-layout order.
///
/// # Errors
/// Propagates table-construction errors (not expected for valid configs).
pub fn oecd(config: &OecdConfig) -> Result<(Table, PlantedTruth)> {
    let mut rng = rng_from_seed(config.seed);
    let n = config.nrows;
    let weights = [0.30, 0.35, 0.35];
    let labels: Vec<usize> = (0..n).map(|_| weighted_index(&mut rng, &weights)).collect();

    // Shared labor factor per row: couples the headline labor columns
    // (and the labor filler indicators) *within* each cluster, so the
    // whole labor theme is mutually dependent, as in the paper's Figure 1.
    let labor_factor: Vec<f64> = (0..n).map(|_| gauss(&mut rng)).collect();

    // Per-theme latent per row: cluster-dependent offset + noise. The labor
    // theme gets the strongest separation; others inherit milder structure.
    let nthemes = THEMES.len();
    let mut latents = vec![vec![0.0f64; nthemes]; n];
    for (row, lat) in latents.iter_mut().enumerate() {
        let c = labels[row];
        for (t, cell) in lat.iter_mut().enumerate() {
            let sep = if t == 0 { 3.0 } else { 1.2 };
            let center = match c {
                0 => -sep,
                1 => sep,
                _ => 0.0,
            };
            // Rotate which cluster sits where across themes so the data is
            // not one global gradient.
            let center = if t % 3 == 1 { -center } else { center };
            *cell = if t == 0 {
                center + 0.9 * labor_factor[row] + 0.45 * gauss(&mut rng)
            } else {
                center + gauss(&mut rng)
            };
        }
    }

    let mut region = Vec::with_capacity(n);
    let mut country = Vec::with_capacity(n);
    for (row, &c) in labels.iter().enumerate() {
        let ctry = pick_country(&mut rng, c);
        country.push(ctry.to_owned());
        region.push(format!("{ctry} region {row:04}"));
    }

    let mut builder = TableBuilder::new("countries_work")
        .column_with_role(
            "region",
            Column::from_strs(region.iter().map(|s| Some(s.as_str()))),
            ColumnRole::Label,
        )?
        .column_with_role(
            "country",
            Column::from_strs(country.iter().map(|s| Some(s.as_str()))),
            ColumnRole::Label,
        )?;

    let mut theme_of_column: Vec<(String, usize)> = Vec::new();

    // Headline labor columns with the exact Figure 1b geometry. The shared
    // per-row labor factor `w` makes hours and income anti-correlated
    // *within* clusters, so the labor theme coheres under MI.
    let mut long_hours = Vec::with_capacity(n);
    let mut income = Vec::with_capacity(n);
    let mut leisure = Vec::with_capacity(n);
    for (row, &c) in labels.iter().enumerate() {
        let w = labor_factor[row];
        let (lh, inc) = match c {
            0 => (
                // Overworked: ≥ 20 % long hours, income spread across the range.
                (26.0 + 3.5 * w + 2.0 * gauss(&mut rng)).max(20.2),
                (20.0 - 4.0 * w + 2.0 * gauss(&mut rng)).max(8.0),
            ),
            1 => (
                (11.0 + 3.0 * w + 1.5 * gauss(&mut rng)).clamp(1.0, 19.8),
                (30.0 - 3.5 * w + 2.0 * gauss(&mut rng)).max(22.3),
            ),
            _ => (
                (12.0 + 3.0 * w + 1.5 * gauss(&mut rng)).clamp(1.0, 19.8),
                (16.0 - 2.0 * w + 1.2 * gauss(&mut rng)).clamp(6.0, 21.7),
            ),
        };
        long_hours.push(Some(lh));
        income.push(Some(inc));
        // Leisure is anti-correlated with long hours (same theme).
        leisure.push(Some(
            (16.5 - 0.12 * lh - 0.4 * w + 0.3 * gauss(&mut rng)).clamp(10.0, 17.5),
        ));
    }
    builder = builder
        .column("pct_employees_long_hours", Column::from_f64s(long_hours))?
        .column("avg_annual_income_kusd", Column::from_f64s(income))?
        .column("time_devoted_leisure_h", Column::from_f64s(leisure))?;
    for name in THEMES[0].1 {
        theme_of_column.push(((*name).to_owned(), 0));
    }

    // Other themes' headline columns: scaled functions of the theme latent.
    for (t, (theme, headliners)) in THEMES.iter().enumerate().skip(1) {
        for (j, name) in headliners.iter().enumerate() {
            let scale = 3.0 + 2.0 * rng.gen::<f64>();
            let shift = match *theme {
                "health" => 75.0,
                "economy" => 35.0,
                "education" => 40.0,
                _ => 20.0,
            } + 3.0 * j as f64;
            let vals: Vec<Option<f64>> = (0..n)
                .map(|row| Some(shift + scale * latents[row][t] + 1.5 * gauss(&mut rng)))
                .collect();
            builder = builder.column((*name).to_owned(), Column::from_f64s(vals))?;
            theme_of_column.push(((*name).to_owned(), t));
        }
    }

    // Filler indicators, round-robin across themes, until ncols is reached.
    let headline_total: usize = THEMES.iter().map(|(_, h)| h.len()).sum();
    let target = config.ncols.max(headline_total);
    let mut fill_idx = vec![0usize; nthemes];
    let mut emitted = headline_total;
    let mut theme_cursor = 0usize;
    while emitted < target {
        let t = theme_cursor % nthemes;
        theme_cursor += 1;
        let name = format!("{}_idx_{:02}", THEMES[t].0, fill_idx[t]);
        fill_idx[t] += 1;
        let scale = 0.8 + 0.6 * rng.gen::<f64>();
        let shift = 10.0 * gauss(&mut rng);
        let vals: Vec<Option<f64>> = (0..n)
            .map(|row| {
                if config.missing_rate > 0.0 && rng.gen::<f64>() < config.missing_rate {
                    None
                } else {
                    Some(shift + scale * latents[row][t] + 0.6 * gauss(&mut rng))
                }
            })
            .collect();
        builder = builder.column(name.clone(), Column::from_f64s(vals))?;
        theme_of_column.push((name, t));
        emitted += 1;
    }

    let table = builder.build()?;
    let truth = PlantedTruth {
        labels,
        theme_of_column,
        theme_names: THEMES.iter().map(|(t, _)| (*t).to_owned()).collect(),
    };
    Ok((table, truth))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OecdConfig {
        OecdConfig {
            nrows: 400,
            ncols: 40,
            ..OecdConfig::default()
        }
    }

    #[test]
    fn paper_shape_by_default() {
        let config = OecdConfig {
            nrows: 300, // keep the test fast; ncols is the interesting part
            ..OecdConfig::default()
        };
        let (t, truth) = oecd(&config).unwrap();
        assert_eq!(t.ncols(), 378 + 2, "378 indicators + region + country");
        assert_eq!(truth.theme_of_column.len(), 378);
        assert_eq!(truth.theme_names.len(), 10);
    }

    #[test]
    fn figure_1b_geometry_holds() {
        let (t, truth) = oecd(&small()).unwrap();
        let lh = t.column_by_name("pct_employees_long_hours").unwrap();
        let inc = t.column_by_name("avg_annual_income_kusd").unwrap();
        for (row, &c) in truth.labels.iter().enumerate() {
            let h = lh.numeric_at(row).unwrap();
            let i = inc.numeric_at(row).unwrap();
            match c {
                0 => assert!(h >= 20.0, "overworked rows sit above the 20% split"),
                1 => {
                    assert!(h < 20.0);
                    assert!(i >= 22.0, "rich cluster sits above the 22k split");
                }
                _ => {
                    assert!(h < 20.0);
                    assert!(i < 22.0);
                }
            }
        }
    }

    #[test]
    fn pleasant_countries_concentrate_in_rich_cluster() {
        let (t, truth) = oecd(&small()).unwrap();
        let country = t.column_by_name("country").unwrap();
        let mut canada_rich = 0usize;
        let mut canada_total = 0usize;
        for row in 0..t.nrows() {
            if country.get(row).as_str() == Some("Canada") {
                canada_total += 1;
                if truth.labels[row] == 1 {
                    canada_rich += 1;
                }
            }
        }
        assert!(canada_total > 0);
        assert!(
            canada_rich * 2 > canada_total,
            "most Canadian regions should be in the pleasant cluster ({canada_rich}/{canada_total})"
        );
    }

    #[test]
    fn countries_list_has_31_entries() {
        assert_eq!(COUNTRIES.len(), 31);
    }

    #[test]
    fn filler_columns_have_missing_values() {
        let (t, _) = oecd(&OecdConfig {
            nrows: 500,
            ncols: 60,
            missing_rate: 0.1,
            ..OecdConfig::default()
        })
        .unwrap();
        let filler = t.column_by_name("labor_idx_00").unwrap();
        assert!(filler.null_count() > 10);
        // Headline columns stay dense.
        assert_eq!(
            t.column_by_name("pct_employees_long_hours")
                .unwrap()
                .null_count(),
            0
        );
    }

    #[test]
    fn deterministic() {
        let (a, _) = oecd(&small()).unwrap();
        let (b, _) = oecd(&small()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ncols_clamped_to_headliners() {
        let (t, _) = oecd(&OecdConfig {
            nrows: 50,
            ncols: 1,
            ..OecdConfig::default()
        })
        .unwrap();
        let headline_total: usize = THEMES.iter().map(|(_, h)| h.len()).sum();
        assert_eq!(t.ncols(), headline_total + 2);
    }
}
