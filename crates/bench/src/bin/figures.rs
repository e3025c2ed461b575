//! Regenerates every figure, demonstration scenario and embedded claim of
//! the Blaeu paper (see DESIGN.md §4 for the experiment index).
//!
//! ```sh
//! cargo run -p blaeu-bench --release --bin figures            # everything
//! cargo run -p blaeu-bench --release --bin figures f1b c3 a2  # a subset
//! cargo run -p blaeu-bench --release --bin figures -- --json out.json
//! ```
//!
//! `--json <path>` writes the determinism digest: the figure pipeline's
//! *numeric outcomes* (themes, map regions, dependency-matrix cells,
//! CLARA medoids/deviations — floats as exact bit patterns, never
//! wall-clock timings), byte-identical for every `BLAEU_THREADS` value.
//! CI diffs the digest across thread counts.
//!
//! `--export-oecd <dir>` writes the small Countries & Work table as both
//! `oecd_small.csv` and `oecd_small.snap` (the column snapshot format).
//! `--table <path>` makes `--json` load the OECD table from that file
//! instead of regenerating it — CI diffs the CSV-loaded digest against
//! the snapshot-loaded one, proving the two load paths are equivalent.

use std::sync::Arc;
use std::time::Instant;

use blaeu_bench::{
    as_points, blob_columns, blobs, fmt, fmt_duration, oecd_full, oecd_small, scan_digests, SEED,
};
use blaeu_cluster::{
    adjusted_rand_index, clara, kmeans, label_nmi, mc_silhouette, pam, select_k, silhouette_score,
    ClaraConfig, DistanceMatrix, KMeansConfig, KSelectConfig, McSilhouetteConfig, PamConfig,
};
use blaeu_core::render::{render_highlight, render_map, render_status, render_themes};
use blaeu_core::{
    build_map, detect_themes, Command, DataMap, DependencyGraph, Explorer, ExplorerConfig,
    MapperConfig, Response, ThemeConfig,
};
use blaeu_server::{AsyncSessionServer, ServerConfig};
use blaeu_stats::{dependency_matrix, DependencyMeasure, DependencyOptions};
use blaeu_store::generate::{
    hollywood, lofar, planted, ColumnShape, HollywoodConfig, LofarConfig, PlantedConfig,
    PlantedTruth, ThemeSpec,
};
use blaeu_store::{
    read_csv, write_csv, Column, ColumnRole, CsvOptions, Table, TableBuilder, TableView,
};
use blaeu_tree::{accuracy, CartConfig, DecisionTree};

fn header(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id} — {title}");
    println!("================================================================");
}

fn region_labels(map: &DataMap, nrows: usize) -> Vec<usize> {
    let mut labels = vec![0usize; nrows];
    for leaf in map.leaves() {
        for row in map.rows_of(leaf.id).expect("leaf ids valid") {
            labels[row as usize] = leaf.cluster;
        }
    }
    labels
}

/// Shared explorer over the small OECD table for the Figure 1 sequence.
fn oecd_explorer() -> (Explorer, PlantedTruth) {
    let (table, truth) = oecd_small();
    let ex = Explorer::open(table, ExplorerConfig::default()).expect("openable");
    (ex, truth)
}

fn labor_theme_index(ex: &Explorer) -> usize {
    ex.themes()
        .iter()
        .position(|t| t.columns.iter().any(|c| c == "pct_employees_long_hours"))
        .expect("labor theme present")
}

fn f1a() {
    header("F1a", "Figure 1a: list of themes (OECD Countries & Work)");
    let (ex, _) = oecd_explorer();
    println!("{}", render_themes(ex.theme_set(), 4));
    println!(
        "paper: themes group unemployment, health, labor-conditions columns.\n\
         measured: {} themes; labor headliners share theme #{}.",
        ex.themes().len(),
        labor_theme_index(&ex)
    );
}

fn f1b() {
    header("F1b", "Figure 1b: data map of the labor theme");
    let (mut ex, _) = oecd_explorer();
    let labor = labor_theme_index(&ex);
    let map = ex.select_theme(labor).expect("mappable");
    println!("{}", render_map(map));
    println!(
        "paper: top split '% employees working long hours >= 20', then\n\
         'average income < 22'. measured splits shown above."
    );
}

fn f1c() {
    header("F1c", "Figure 1c: zoom + highlight country names");
    let (mut ex, _) = oecd_explorer();
    let labor = labor_theme_index(&ex);
    let map = ex.select_theme(labor).expect("mappable");
    let pleasant = map
        .leaves()
        .iter()
        .find(|r| {
            r.description
                .iter()
                .any(|d| d.contains("pct_employees_long_hours <"))
                && r.description.iter().any(|d| d.contains(">="))
        })
        .map(|r| r.id)
        .unwrap_or_else(|| map.leaves().iter().max_by_key(|r| r.count).unwrap().id);
    ex.zoom(pleasant).expect("zoomable");
    println!("{}", render_map(ex.map().expect("map")));
    let hl = ex.highlight("country").expect("country column");
    println!("{}", render_highlight(&hl));
    println!("paper: Switzerland, Canada and Norway appear in the zoomed region.");
}

fn f1d() {
    header("F1d", "Figure 1d: projection onto the unemployment theme");
    let (mut ex, _) = oecd_explorer();
    let labor = labor_theme_index(&ex);
    ex.select_theme(labor).expect("mappable");
    let biggest = ex
        .map()
        .expect("map")
        .leaves()
        .iter()
        .max_by_key(|r| r.count)
        .unwrap()
        .id;
    ex.zoom(biggest).expect("zoomable");
    let unemployment = ex
        .themes()
        .iter()
        .position(|t| t.columns.iter().any(|c| c.contains("unemployment")))
        .expect("unemployment theme");
    ex.project_theme(unemployment).expect("projectable");
    println!("{}", render_map(ex.map().expect("map")));
    let hl = ex.highlight("country").expect("country column");
    println!("{}", render_highlight(&hl));
    println!("{}", render_status(ex.breadcrumbs(), &ex.sql()));
}

fn f2() {
    header("F2", "Figure 2: dependency graph (unemployment vs health)");
    let (table, _) = oecd_small();
    let table = TableView::from(table);
    let columns = [
        "unemployment_rate",
        "long_term_unemployment",
        "female_unemployment",
        "pct_health_insurance",
        "life_expectancy",
        "health_spending_pct_gdp",
    ];
    let graph = DependencyGraph::build(&table, &columns, &DependencyOptions::default())
        .expect("columns exist");
    println!("{}", graph.render_text(0.10, 16));
    println!("Graphviz export:\n{}", graph.to_dot(0.10));
    // Quantify the two components.
    let mut within = Vec::new();
    let mut across = Vec::new();
    for i in 0..6 {
        for j in (i + 1)..6 {
            if (i < 3) == (j < 3) {
                within.push(graph.weight(i, j));
            } else {
                across.push(graph.weight(i, j));
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "paper: two components (unemployment | health).\n\
         measured: mean within-component NMI {}, cross-component {}.",
        fmt(mean(&within)),
        fmt(mean(&across))
    );
}

fn f3() {
    header(
        "F3",
        "Figure 3: mapping pipeline (preprocess -> cluster -> decision tree)",
    );
    // The figure's toy: hours-worked vs salary, two blobs, tree split on
    // hours ≈ 22.
    let n = 200;
    let mut hours = Vec::with_capacity(n);
    let mut salary = Vec::with_capacity(n);
    for i in 0..n {
        let jitter = ((i * 2654435761usize) % 1000) as f64 / 1000.0;
        if i < n / 2 {
            hours.push(15.0 + 5.0 * jitter);
            salary.push(55.0 + 20.0 * jitter);
        } else {
            hours.push(30.0 + 8.0 * jitter);
            salary.push(25.0 + 15.0 * jitter);
        }
    }
    let table: TableView = TableBuilder::new("toy")
        .column("hours_work", Column::dense_f64(hours))
        .expect("fresh name")
        .column("salary", Column::dense_f64(salary))
        .expect("fresh name")
        .build()
        .expect("consistent")
        .into();

    println!("stage 1 — preprocessing: 200 tuples -> 2-dim normalized vectors");
    let points = as_points(&table, &["hours_work", "salary"]);
    println!("stage 2 — clustering (PAM, k by silhouette):");
    let sel = select_k(&points, &KSelectConfig::default());
    println!(
        "  silhouette profile: {:?}",
        sel.profile
            .iter()
            .map(|&(k, s)| format!("k={k}:{}", fmt(s)))
            .collect::<Vec<_>>()
    );
    println!("  chosen k = {}", sel.k);
    println!("stage 3 — decision tree inference:");
    let tree = DecisionTree::fit(
        &table,
        &["hours_work", "salary"],
        &sel.result.labels,
        &CartConfig::default(),
    )
    .expect("fits");
    for rule in blaeu_tree::leaf_rules(&tree) {
        println!(
            "  leaf {} (cluster {}): {}",
            rule.leaf,
            rule.class,
            rule.description.join(" and ")
        );
    }
    let fidelity = accuracy(
        &tree.predict(&table).expect("same schema"),
        &sel.result.labels,
    );
    println!(
        "paper: the tree splits on 'Hours Work < 22' (approximating PAM).\n\
         measured: k={}, tree fidelity {} (1.0 = lossless description).",
        sel.k,
        fmt(fidelity)
    );
}

fn f4() {
    header("F4", "Figure 4: architecture — concurrent session tier");
    let (table, _) = hollywood(&HollywoodConfig::default()).expect("valid");
    let table = Arc::new(table);
    let server = AsyncSessionServer::new(ServerConfig::default());
    let clients = 8;
    let t0 = Instant::now();
    let ids: Vec<_> = (0..clients)
        .map(|_| {
            server
                .open_session(Arc::clone(&table), ExplorerConfig::default())
                .expect("openable")
        })
        .collect();
    // Sessions overlap on the server's pool; per-session work (CLARA,
    // matrix builds) stays sequential via the nesting guard.
    let maps: Vec<_> = ids
        .iter()
        .map(|&id| server.submit(id, Command::SelectTheme(0)).expect("queued"))
        .collect();
    let steps: Vec<_> = ids
        .iter()
        .zip(maps)
        .flat_map(|(&id, map)| {
            let Response::Map(map) = map.join().expect("theme 0") else {
                unreachable!("select_theme answers with a map")
            };
            let biggest = map.leaves().iter().max_by_key(|r| r.count).unwrap().id;
            [Command::Zoom(biggest), Command::Rollback]
                .map(|cmd| server.submit(id, cmd).expect("queued"))
        })
        .collect();
    for step in steps {
        step.join().expect("session alive");
    }
    println!(
        "paper: MonetDB + R mapping engine + NodeJS session tier + web client.\n\
         here: blaeu-store + blaeu-{{stats,cluster,tree}} + AsyncSessionServer + renderers.\n\
         measured: {clients} concurrent clients, each theme+zoom+rollback, in {}.",
        fmt_duration(t0.elapsed())
    );
    for id in ids {
        server.close(id).expect("still open");
    }
}

fn f5() {
    header(
        "F5",
        "Figure 5: theme view (terminal stand-in for the web UI)",
    );
    let (ex, _) = oecd_explorer();
    println!("{}", render_themes(ex.theme_set(), 6));
}

fn f6() {
    header("F6", "Figure 6: map view with region info panel");
    let (mut ex, _) = oecd_explorer();
    let labor = labor_theme_index(&ex);
    ex.select_theme(labor).expect("mappable");
    println!("{}", render_map(ex.map().expect("map")));
    let hl = ex
        .highlight("avg_annual_income_kusd")
        .expect("income column");
    println!("{}", render_highlight(&hl));
    println!("{}", render_status(ex.breadcrumbs(), &ex.sql()));
}

fn s1() {
    header("S1", "Scenario 1: Hollywood (900 x 12)");
    let (table, _) = hollywood(&HollywoodConfig::default()).expect("valid");
    let mut ex = Explorer::open(table, ExplorerConfig::default()).expect("openable");
    println!("{}", render_themes(ex.theme_set(), 6));
    let commercial = ex
        .themes()
        .iter()
        .position(|t| t.columns.iter().any(|c| c == "profitability"))
        .unwrap_or(0);
    let t0 = Instant::now();
    ex.select_theme(commercial).expect("mappable");
    let map_time = t0.elapsed();
    println!("{}", render_map(ex.map().expect("map")));
    let hl = ex.highlight("profitability").expect("column exists");
    println!("{}", render_highlight(&hl));
    println!("map latency: {}", fmt_duration(map_time));
}

fn s2() {
    header(
        "S2",
        "Scenario 2: Countries & Work (6,823 x 378, full size)",
    );
    let (table, truth) = oecd_full();
    let t0 = Instant::now();
    let mut ex = Explorer::open(table, ExplorerConfig::default()).expect("openable");
    let theme_time = t0.elapsed();
    println!(
        "theme detection over 378 columns: {} -> {} themes",
        fmt_duration(theme_time),
        ex.themes().len()
    );
    let labor = labor_theme_index(&ex);
    let t0 = Instant::now();
    ex.select_theme(labor).expect("mappable");
    let map_time = t0.elapsed();
    println!("{}", render_map(ex.map().expect("map")));
    println!("map over 6,823 rows: {}", fmt_duration(map_time));

    // Compare map regions against the planted labor clusters.
    let labels = region_labels(ex.map().expect("map"), 6823);
    let ari = adjusted_rand_index(&labels, &truth.labels);
    println!(
        "region-vs-planted ARI: {} (labor clusters recovered)",
        fmt(ari)
    );
}

fn s3() {
    header("S3", "Scenario 3: LOFAR at scale (200,000 x ~25)");
    let (table, truth) = lofar(&LofarConfig {
        nrows: 200_000,
        seed: SEED,
    })
    .expect("valid");
    let t0 = Instant::now();
    let mut ex = Explorer::open(table, ExplorerConfig::default()).expect("openable");
    println!("theme detection: {}", fmt_duration(t0.elapsed()));

    let spectrum = ex
        .themes()
        .iter()
        .position(|t| t.columns.iter().any(|c| c.starts_with("flux_")))
        .unwrap_or(0);
    let t0 = Instant::now();
    ex.select_theme(spectrum).expect("mappable");
    println!(
        "map over 200k rows (sampled {}): {}",
        ex.map().expect("map").sample_size,
        fmt_duration(t0.elapsed())
    );
    println!("{}", render_map(ex.map().expect("map")));

    let biggest = ex
        .map()
        .expect("map")
        .leaves()
        .iter()
        .max_by_key(|r| r.count)
        .unwrap()
        .id;
    let t0 = Instant::now();
    ex.zoom(biggest).expect("zoomable");
    println!("zoom latency: {}", fmt_duration(t0.elapsed()));

    let map_labels = {
        // Rebuild over the full view for comparison with truth.
        let mut ex2 = Explorer::open(
            lofar(&LofarConfig {
                nrows: 50_000,
                seed: SEED,
            })
            .expect("valid")
            .0,
            ExplorerConfig::default(),
        )
        .expect("openable");
        let spec = ex2
            .themes()
            .iter()
            .position(|t| t.columns.iter().any(|c| c.starts_with("flux_")))
            .unwrap_or(0);
        ex2.select_theme(spec).expect("mappable");
        region_labels(ex2.map().expect("map"), 50_000)
    };
    let truth50 = lofar(&LofarConfig {
        nrows: 50_000,
        seed: SEED,
    })
    .expect("valid")
    .1;
    println!(
        "spectral-map vs planted populations (50k check): NMI {}",
        fmt(label_nmi(
            &map_labels,
            &truth50.labels[..50_000.min(truth50.labels.len())]
        ))
    );
    let _ = truth; // the 200k truth backs the latency run only
}

fn c1() {
    header(
        "C1",
        "Claim: sampling loses little accuracy (maps from samples)",
    );
    let n = 8000;
    let (table, truth) = blobs(n, 3);
    let table = TableView::from(table);
    let columns = blob_columns(&truth);
    println!(
        "{:>8} | {:>12} | {:>12} | {:>10}",
        "sample", "ARI vs truth", "ARI vs full", "latency"
    );
    let full = build_map(
        &table,
        &columns,
        &MapperConfig {
            sample_size: n,
            ..MapperConfig::default()
        },
    )
    .expect("mappable");
    let full_labels = region_labels(&full, n);
    for sample in [250usize, 500, 1000, 2000, 4000, 8000] {
        let t0 = Instant::now();
        let map = build_map(
            &table,
            &columns,
            &MapperConfig {
                sample_size: sample,
                ..MapperConfig::default()
            },
        )
        .expect("mappable");
        let took = t0.elapsed();
        let labels = region_labels(&map, n);
        println!(
            "{sample:>8} | {:>12} | {:>12} | {:>10}",
            fmt(adjusted_rand_index(&labels, &truth.labels)),
            fmt(adjusted_rand_index(&labels, &full_labels)),
            fmt_duration(took)
        );
    }
    println!("paper: \"the loss of accuracy is minimal\" — ARI stays high at small samples.");
}

fn c2() {
    header(
        "C2",
        "Claim: Monte-Carlo silhouette converges to the exact value",
    );
    let (table, truth) = blobs(3000, 3);
    let points = as_points(&table.into(), &blob_columns(&truth));
    let matrix = DistanceMatrix::from_points(&points);
    let exact = silhouette_score(&matrix, &truth.labels);
    println!("exact silhouette: {}", fmt(exact));
    println!(
        "{:>10} | {:>6} | {:>10} | {:>10}",
        "subsamples", "size", "estimate", "abs error"
    );
    for (subsamples, size) in [(1, 64), (2, 128), (4, 256), (8, 512), (16, 1024)] {
        let est = mc_silhouette(
            &points,
            &truth.labels,
            &McSilhouetteConfig {
                subsamples,
                subsample_size: size,
                seed: SEED,
            },
        );
        println!(
            "{subsamples:>10} | {size:>6} | {:>10} | {:>10}",
            fmt(est),
            fmt((est - exact).abs())
        );
    }
}

fn c3() {
    header(
        "C3",
        "Claim: CLARA replaces PAM when data grows (runtime crossover)",
    );
    println!(
        "{:>7} | {:>12} | {:>12} | {:>16}",
        "n", "PAM", "CLARA", "deviation ratio"
    );
    for n in [500usize, 1000, 2000, 4000, 8000] {
        let (table, truth) = blobs(n, 3);
        let points = as_points(&table.into(), &blob_columns(&truth));

        let t0 = Instant::now();
        let matrix = DistanceMatrix::from_points(&points);
        let exact = pam(&matrix, 3, &PamConfig::default());
        let pam_time = t0.elapsed();

        let t0 = Instant::now();
        let approx = clara(&points, 3, &ClaraConfig::default());
        let clara_time = t0.elapsed();

        println!(
            "{n:>7} | {:>12} | {:>12} | {:>16}",
            fmt_duration(pam_time),
            fmt_duration(clara_time),
            fmt(approx.total_deviation / exact.total_deviation)
        );
    }
    println!("paper: CLARA trades a little deviation for near-flat runtime.");
}

fn c4() {
    header(
        "C4",
        "Claim: the silhouette coefficient finds the number of clusters",
    );
    println!(
        "{:>10} | {:>9} | {:>10}",
        "planted k", "chosen k", "silhouette"
    );
    for k in 2..=6 {
        let (table, truth) = blobs(1500, k);
        let points = as_points(&table.into(), &blob_columns(&truth));
        let sel = select_k(
            &points,
            &KSelectConfig {
                k_min: 2,
                k_max: 8,
                mc: None,
                ..KSelectConfig::default()
            },
        );
        println!("{k:>10} | {:>9} | {:>10}", sel.k, fmt(sel.silhouette));
    }
}

fn c5() {
    header(
        "C5",
        "Claim: the decision tree approximates (not copies) the clustering",
    );
    let (table, truth) = blobs(2000, 4);
    let table = TableView::from(table);
    let columns = blob_columns(&truth);
    let points = as_points(&table, &columns);
    let matrix = DistanceMatrix::from_points(&points);
    let clustering = pam(&matrix, 4, &PamConfig::default());
    println!(
        "{:>9} | {:>8} | {:>13} | {:>10}",
        "max depth", "leaves", "fidelity(acc)", "ARI"
    );
    for depth in 1..=6 {
        let tree = DecisionTree::fit(
            &table,
            &columns,
            &clustering.labels,
            &CartConfig {
                max_depth: depth,
                ..CartConfig::default()
            },
        )
        .expect("fits");
        let pred = tree.predict(&table).expect("same schema");
        println!(
            "{depth:>9} | {:>8} | {:>13} | {:>10}",
            tree.n_leaves(),
            fmt(accuracy(&pred, &clustering.labels)),
            fmt(adjusted_rand_index(&pred, &clustering.labels))
        );
    }
    println!(
        "paper: \"the decision tree only approximates the real partitions\" —\n\
              fidelity rises with depth and saturates below 1.0 on hard shapes."
    );
}

fn c6() {
    header(
        "C6",
        "Claim: MI is sensitive to non-linear relationships (vs correlation)",
    );
    let n = 2000;
    let make = |f: &dyn Fn(f64) -> f64| -> TableView {
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64) * 6.0 - 3.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        TableBuilder::new("pair")
            .column("x", Column::dense_f64(xs))
            .expect("fresh")
            .column("y", Column::dense_f64(ys))
            .expect("fresh")
            .build()
            .expect("consistent")
            .into()
    };
    type NamedFn = (&'static str, Box<dyn Fn(f64) -> f64>);
    let cases: Vec<NamedFn> = vec![
        ("linear", Box::new(|x| 2.0 * x + 1.0)),
        ("quadratic", Box::new(|x| x * x)),
        (
            "circularish",
            Box::new(|x| (1.0 - (x / 3.0) * (x / 3.0)).abs().sqrt()),
        ),
        ("sine", Box::new(|x| (3.0 * x).sin())),
        (
            "independent",
            Box::new(|x| ((x * 12345.67).sin() * 43758.5453).fract()),
        ),
    ];
    println!("{:>12} | {:>9} | {:>9}", "dependency", "|Pearson|", "NMI");
    for (name, f) in cases {
        let t = make(&*f);
        let nmi = dependency_matrix(&t, &["x", "y"], &DependencyOptions::default())
            .expect("columns exist")
            .get(0, 1);
        let pearson = dependency_matrix(
            &t,
            &["x", "y"],
            &DependencyOptions {
                measure: DependencyMeasure::PearsonAbs,
                ..DependencyOptions::default()
            },
        )
        .expect("columns exist")
        .get(0, 1);
        println!("{name:>12} | {:>9} | {:>9}", fmt(pearson), fmt(nmi));
    }
    println!("paper: MI catches the quadratic/sine cases where correlation reads ~0.");
}

fn c7() {
    header(
        "C7",
        "Claim: sampling keeps per-action latency interactive as data grows",
    );
    println!(
        "{:>9} | {:>12} | {:>12} | {:>12} | {:>12}",
        "rows", "themes", "map", "zoom", "highlight"
    );
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let (table, truth) = blobs(n, 3);
        let table = TableView::from(table);
        let columns: Vec<String> = blob_columns(&truth)
            .into_iter()
            .map(|s| s.to_owned())
            .collect();
        let cols: Vec<&str> = columns.iter().map(String::as_str).collect();

        let t0 = Instant::now();
        let themes = detect_themes(&table, &ThemeConfig::default()).expect("themes");
        let theme_time = t0.elapsed();
        let _ = themes;

        let t0 = Instant::now();
        let map = build_map(&table, &cols, &MapperConfig::default()).expect("mappable");
        let map_time = t0.elapsed();

        let biggest = map.leaves().iter().max_by_key(|r| r.count).unwrap().id;
        let rows = map.rows_of(biggest).expect("leaf");
        let t0 = Instant::now();
        let view = table.select(&rows).expect("in bounds");
        let _zoomed = build_map(&view, &cols, &MapperConfig::default()).expect("mappable");
        let zoom_time = t0.elapsed();

        let t0 = Instant::now();
        let sub = view
            .select(&(0..view.nrows().min(5000) as u32).collect::<Vec<_>>())
            .expect("in bounds");
        let col = sub.col_by_name(cols[0]).expect("exists");
        let _ = blaeu_stats::describe(&col, 5);
        let highlight_time = t0.elapsed();

        println!(
            "{n:>9} | {:>12} | {:>12} | {:>12} | {:>12}",
            fmt_duration(theme_time),
            fmt_duration(map_time),
            fmt_duration(zoom_time),
            fmt_duration(highlight_time)
        );
    }
    println!(
        "paper: interaction-time clustering of millions of tuples via sampling —\n\
              map/zoom latency is dominated by the fixed-size sample, not n."
    );
}

fn a1() {
    header(
        "A1",
        "Ablation: dependency measure for themes (MI vs Pearson vs Spearman)",
    );
    // Mixed-shape themes: each theme's columns are linear, quadratic and
    // sinusoidal functions of one latent, so only a measure that sees
    // non-linear dependency keeps the theme together.
    let config = PlantedConfig {
        nrows: 900,
        themes: vec![
            ThemeSpec {
                name: "alpha".into(),
                numeric_cols: 6,
                categorical_cols: 0,
                categories: 0,
                shape: ColumnShape::Mixed,
            },
            ThemeSpec {
                name: "beta".into(),
                numeric_cols: 6,
                categorical_cols: 0,
                categories: 0,
                shape: ColumnShape::Mixed,
            },
            ThemeSpec::numeric("straight", 6),
        ],
        cluster_sep: 0.0,
        noise: 0.15,
        seed: SEED,
        ..PlantedConfig::default()
    };
    let (table, truth) = planted(&config).expect("valid");
    let table = TableView::from(table);
    println!("{:>10} | {:>16}", "measure", "theme NMI");
    for (name, measure) in [
        ("NMI", DependencyMeasure::Nmi),
        ("Pearson", DependencyMeasure::PearsonAbs),
        ("Spearman", DependencyMeasure::SpearmanAbs),
    ] {
        let ts = detect_themes(
            &table,
            &ThemeConfig {
                dependency: DependencyOptions {
                    measure,
                    ..DependencyOptions::default()
                },
                ..ThemeConfig::default()
            },
        )
        .expect("detectable");
        let mut det = Vec::new();
        let mut tru = Vec::new();
        for (column, theme) in ts.column_assignments() {
            if let Some(t) = truth.theme_of(&column) {
                det.push(theme);
                tru.push(t);
            }
        }
        println!("{name:>10} | {:>16}", fmt(label_nmi(&det, &tru)));
    }
    println!(
        "paper's rationale: MI \"copes with mixed values and is sensitive to\n\
              non-linear relationships\" — correlation measures fragment the non-linear themes."
    );
}

fn a2() {
    header(
        "A2",
        "Ablation: k-medoids (PAM) vs k-means on skewed/outlier data",
    );
    // Blobs plus 2% far outliers: medoids resist, means get dragged.
    let (table, truth) = blobs(1200, 3);
    let columns = blob_columns(&truth);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for i in 0..table.nrows() {
        let mut row = Vec::new();
        for &c in &columns {
            row.push(
                table
                    .column_by_name(c)
                    .expect("exists")
                    .numeric_at(i)
                    .expect("dense"),
            );
        }
        rows.push(row);
    }
    // Inject outliers.
    let dims = rows[0].len();
    for o in 0..24 {
        rows.push(vec![1e4 + o as f64 * 500.0; dims]);
    }
    let truth_labels: Vec<usize> = truth
        .labels
        .iter()
        .copied()
        .chain(std::iter::repeat_n(0usize, 24))
        .collect();
    let points = blaeu_cluster::Points::new(rows, blaeu_cluster::Metric::Euclidean);

    let km = kmeans(&points, 3, &KMeansConfig::default());
    let pm = clara(&points, 3, &ClaraConfig::default());
    // Score only the genuine rows (ignore the injected outliers).
    let genuine = 1200;
    println!(
        "k-means ARI (with outliers): {}",
        fmt(adjusted_rand_index(
            &km.labels[..genuine],
            &truth_labels[..genuine]
        ))
    );
    println!(
        "PAM/CLARA ARI (with outliers): {}",
        fmt(adjusted_rand_index(
            &pm.labels[..genuine],
            &truth_labels[..genuine]
        ))
    );
    println!("medoids are actual tuples (displayable); means are synthetic points.");
}

fn a3() {
    header(
        "A3",
        "Ablation: silhouette strategy — exact vs Monte-Carlo vs medoid",
    );
    let (table, truth) = blobs(4000, 3);
    let points = as_points(&table.into(), &blob_columns(&truth));

    let t0 = Instant::now();
    let matrix = DistanceMatrix::from_points(&points);
    let exact = silhouette_score(&matrix, &truth.labels);
    let exact_time = t0.elapsed();

    let t0 = Instant::now();
    let mc = mc_silhouette(
        &points,
        &truth.labels,
        &McSilhouetteConfig {
            subsamples: 4,
            subsample_size: 256,
            seed: SEED,
        },
    );
    let mc_time = t0.elapsed();

    let clustering = clara(&points, 3, &ClaraConfig::default());
    let t0 = Instant::now();
    let med = blaeu_cluster::medoid_silhouette(&points, &clustering.medoids, &clustering.labels);
    let med_time = t0.elapsed();

    println!(
        "{:>8} | {:>9} | {:>10} | {:>10}",
        "method", "value", "abs error", "time"
    );
    println!(
        "{:>8} | {:>9} | {:>10} | {:>10}",
        "exact",
        fmt(exact),
        "-",
        fmt_duration(exact_time)
    );
    println!(
        "{:>8} | {:>9} | {:>10} | {:>10}",
        "MC 4x256",
        fmt(mc),
        fmt((mc - exact).abs()),
        fmt_duration(mc_time)
    );
    println!(
        "{:>8} | {:>9} | {:>10} | {:>10}",
        "medoid",
        fmt(med),
        fmt((med - exact).abs()),
        fmt_duration(med_time)
    );
}

fn a4() {
    header(
        "A4",
        "Ablation: graph partitioning algorithm for themes (PAM vs agglomerative)",
    );
    let (table, truth) = planted(&PlantedConfig {
        nrows: 700,
        themes: vec![
            ThemeSpec::numeric("economy", 5),
            ThemeSpec::numeric("health", 5),
            ThemeSpec::numeric("safety", 5),
            ThemeSpec::numeric("housing", 5),
        ],
        cluster_sep: 0.0,
        noise: 0.3,
        seed: SEED,
        ..PlantedConfig::default()
    })
    .expect("valid");
    let columns: Vec<&str> = truth
        .theme_of_column
        .iter()
        .map(|(c, _)| c.as_str())
        .collect();
    let graph = DependencyGraph::build(&table.into(), &columns, &DependencyOptions::default())
        .expect("columns exist");
    let m = graph.len();
    let matrix = DistanceMatrix::from_fn(m, |i, j| (1.0 - graph.weight(i, j)).clamp(0.0, 1.0));
    let truth_labels: Vec<usize> = columns
        .iter()
        .map(|c| truth.theme_of(c).expect("attribute column"))
        .collect();

    let score = |labels: &[usize]| label_nmi(labels, &truth_labels);
    let pam_labels = pam(&matrix, 4, &PamConfig::default()).labels;
    println!("{:>18} | {:>10}", "algorithm", "theme NMI");
    println!("{:>18} | {:>10}", "PAM (paper)", fmt(score(&pam_labels)));
    for (name, linkage) in [
        ("single linkage", blaeu_cluster::Linkage::Single),
        ("complete linkage", blaeu_cluster::Linkage::Complete),
        ("average linkage", blaeu_cluster::Linkage::Average),
    ] {
        let labels = blaeu_cluster::agglomerative(&matrix, linkage).cut(4);
        println!("{name:>18} | {:>10}", fmt(score(&labels)));
    }
    println!(
        "all operate on the same 1−NMI distance; PAM additionally yields medoid\n\
              columns as theme names, which the dendrogram does not."
    );
}

/// Loads the Countries & Work table from `path`: the snapshot format
/// when the extension is `.snap`, CSV otherwise.
///
/// CSV carries no column roles, so the generator's label columns
/// (`region`, `country`) are re-tagged after parsing; the snapshot
/// format preserves roles natively. Both paths must hand the digest a
/// table indistinguishable from the generated one.
fn load_oecd_table(path: &str) -> Table {
    if path.ends_with(".snap") {
        return Table::read_snapshot(path)
            .unwrap_or_else(|e| panic!("cannot read snapshot {path}: {e}"));
    }
    let file = std::fs::File::open(path).unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
    let parsed = read_csv(
        "countries_work",
        std::io::BufReader::new(file),
        &CsvOptions::default(),
    )
    .unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
    let mut builder = TableBuilder::new("countries_work");
    for (field, col) in parsed.schema().fields().iter().zip(parsed.columns()) {
        let role = if field.name == "region" || field.name == "country" {
            ColumnRole::Label
        } else {
            field.role
        };
        builder = builder
            .column_with_role(&field.name, col.clone(), role)
            .expect("fresh names from a parsed header");
    }
    builder.build().expect("parsed columns are consistent")
}

/// Writes the small OECD table under `dir` as both CSV and snapshot, so
/// the two `--table` load paths can be diffed against each other.
fn export_oecd(dir: &str) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
    let (table, _) = oecd_small();
    let csv_path = format!("{dir}/oecd_small.csv");
    let snap_path = format!("{dir}/oecd_small.snap");
    let file = std::fs::File::create(&csv_path)
        .unwrap_or_else(|e| panic!("cannot create {csv_path}: {e}"));
    write_csv(
        &table,
        std::io::BufWriter::new(file),
        &CsvOptions::default(),
    )
    .unwrap_or_else(|e| panic!("cannot write {csv_path}: {e}"));
    table
        .write_snapshot(&snap_path)
        .unwrap_or_else(|e| panic!("cannot write {snap_path}: {e}"));
    println!("wrote {csv_path} and {snap_path}");
}

/// Writes the determinism digest to `path` (see the module docs).
///
/// Every value here must be a pure function of the input data and seeds:
/// f64s are recorded as hex bit patterns so "close enough" can never
/// mask a thread-count-dependent rounding, and nothing derived from
/// wall-clock time or thread identity is allowed in. With `table_source`
/// set, the OECD table is loaded from that file instead of regenerated —
/// the digest must not change.
fn json_digest(path: &str, table_source: Option<&str>) {
    use serde_json::{json, Value};
    let bits = |v: f64| format!("{:016x}", v.to_bits());

    // Themes and the labor map over the small OECD table (F1a/F1b).
    let oecd_table: Table = match table_source {
        Some(src) => load_oecd_table(src),
        None => oecd_small().0,
    };
    let mut ex = Explorer::open(oecd_table.clone(), ExplorerConfig::default()).expect("openable");
    let themes: Vec<Value> = ex
        .themes()
        .iter()
        .map(|t| json!({"name": t.name, "columns": t.columns}))
        .collect();
    let labor = labor_theme_index(&ex);
    let map = ex.select_theme(labor).expect("mappable");
    let regions: Vec<Value> = map
        .leaves()
        .iter()
        .map(|r| {
            json!({
                "id": r.id,
                "cluster": r.cluster,
                "count": r.count,
                "description": r.description,
            })
        })
        .collect();
    let map_digest = json!({
        "columns": map.columns,
        "sample_size": map.sample_size,
        "medoid_rows": map.medoid_rows.clone(),
        "regions": regions,
    });

    // The F2 dependency matrix, cell-exact (sharded pairwise sweep).
    let table = TableView::from(oecd_table);
    let columns = [
        "unemployment_rate",
        "long_term_unemployment",
        "female_unemployment",
        "pct_health_insurance",
        "life_expectancy",
        "health_spending_pct_gdp",
    ];
    let dm =
        dependency_matrix(&table, &columns, &DependencyOptions::default()).expect("columns exist");
    let mut cells = Vec::new();
    for i in 0..columns.len() {
        for j in 0..columns.len() {
            cells.push(bits(dm.get(i, j)));
        }
    }

    // CLARA + whole-dataset assignment over planted blobs (C3's workload).
    let (blob_table, truth) = blobs(1500, 3);
    let points = as_points(&blob_table.into(), &blob_columns(&truth));
    let clustering = clara(&points, 3, &ClaraConfig::default());
    let mut label_histogram = vec![0usize; 3];
    for &label in &clustering.labels {
        label_histogram[label] += 1;
    }
    let (assign_labels, assign_total) = blaeu_cluster::assign_points(&points, &[5, 700, 1400]);
    let assign_histogram = {
        let mut h = vec![0usize; 3];
        for &label in &assign_labels {
            h[label] += 1;
        }
        h
    };

    // Distance matrix over the parallel band path (n >= 256).
    let (small_table, small_truth) = blobs(600, 3);
    let small_points = as_points(&small_table.into(), &blob_columns(&small_truth));
    let matrix = DistanceMatrix::from_points(&small_points);
    let probes: Vec<String> = [
        (0usize, 1usize),
        (0, 599),
        (127, 128),
        (298, 301),
        (597, 599),
    ]
    .iter()
    .map(|&(i, j)| bits(matrix.get(i, j)))
    .collect();

    // Every scan response (highlight, scatter, region_detail) at a map,
    // after a zoom and on a preview rung — the set tests/scan_digests.rs pins.
    let scans: Vec<Value> = scan_digests(table.table().as_ref().clone())
        .into_iter()
        .map(|(label, digest)| json!([label, format!("{digest:016x}")]))
        .collect();

    // Session-tier fan-out: per-session outcomes must not depend on which
    // worker served which session. All four sessions share one table
    // allocation through the zero-copy session path.
    let server = AsyncSessionServer::new(ServerConfig::default());
    let ids: Vec<_> = (0..4)
        .map(|_| {
            server
                .open_session(Arc::clone(table.table()), ExplorerConfig::default())
                .expect("openable")
        })
        .collect();
    let themed: Vec<_> = ids
        .iter()
        .map(|&id| server.submit(id, Command::SelectTheme(0)).expect("queued"))
        .collect();
    for handle in themed {
        handle.join().expect("theme 0");
    }
    let session_depths: Vec<usize> = ids
        .iter()
        .map(|&id| match server.request(id, Command::Depth) {
            Ok(Response::Depth(depth)) => depth,
            other => panic!("depth query failed: {other:?}"),
        })
        .collect();

    let digest = json!({
        "themes": themes,
        "labor_map": map_digest,
        "dependency_matrix": json!({"columns": columns, "cell_bits": cells}),
        "clara": json!({
            "medoids": clustering.medoids.clone(),
            "total_deviation_bits": bits(clustering.total_deviation),
            "label_histogram": label_histogram,
            "swaps": clustering.swaps,
            "converged": clustering.converged,
        }),
        "assign_points": json!({
            "total_deviation_bits": bits(assign_total),
            "label_histogram": assign_histogram,
        }),
        "distance_matrix": json!({
            "n": matrix.len(),
            "mean_bits": bits(matrix.mean()),
            "probe_bits": probes,
        }),
        "sessions": json!({"depths": session_depths}),
        "scans": scans,
    });
    let rendered = serde_json::to_string_pretty(&digest).expect("serializable");
    std::fs::write(path, rendered + "\n").unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote determinism digest to {path}");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--export-oecd <dir>` writes the digest table to disk in both
    // formats and exits.
    if let Some(pos) = args.iter().position(|a| a == "--export-oecd") {
        args.remove(pos);
        let dir = if pos < args.len() {
            args.remove(pos)
        } else {
            ".".to_owned()
        };
        export_oecd(&dir);
        return;
    }
    // `--table <path>` redirects the digest's OECD input to a file
    // (CSV or `.snap` snapshot); only meaningful together with `--json`.
    let table_source = args.iter().position(|a| a == "--table").map(|pos| {
        args.remove(pos);
        if pos < args.len() {
            args.remove(pos)
        } else {
            panic!("--table requires a path operand")
        }
    });
    // `--json <path>` is recognized anywhere in the argument list; it
    // consumes its path operand and replaces the experiment run with the
    // determinism digest.
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        args.remove(pos);
        let path = if pos < args.len() {
            args.remove(pos)
        } else {
            "figures.json".to_owned()
        };
        json_digest(&path, table_source.as_deref());
        return;
    }
    let all: Vec<(&str, fn())> = vec![
        ("f1a", f1a),
        ("f1b", f1b),
        ("f1c", f1c),
        ("f1d", f1d),
        ("f2", f2),
        ("f3", f3),
        ("f4", f4),
        ("f5", f5),
        ("f6", f6),
        ("s1", s1),
        ("s2", s2),
        ("s3", s3),
        ("c1", c1),
        ("c2", c2),
        ("c3", c3),
        ("c4", c4),
        ("c5", c5),
        ("c6", c6),
        ("c7", c7),
        ("a1", a1),
        ("a2", a2),
        ("a3", a3),
        ("a4", a4),
    ];
    let wanted: Vec<&str> = if args.is_empty() {
        all.iter().map(|&(id, _)| id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let t0 = Instant::now();
    for want in &wanted {
        match all.iter().find(|&&(id, _)| id == *want) {
            Some(&(_, run)) => run(),
            None => eprintln!(
                "unknown experiment {want:?}; known: {}",
                all.iter().map(|&(id, _)| id).collect::<Vec<_>>().join(" ")
            ),
        }
    }
    println!(
        "\nran {} experiment(s) in {}",
        wanted.len(),
        fmt_duration(t0.elapsed())
    );
}
