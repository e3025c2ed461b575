//! The inside half of a traced run, still from outside the program: for
//! a sample of the workload's own map commands, a *staged replay* calls
//! the public functions `build_map` calls, in order, with a span around
//! each — and checks the staged result against `build_map`'s, so the
//! spans are known to add up to the real thing. Plus one probe per layer
//! boundary the wire path crosses.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blaeu_cluster::{
    assign_points, clara, mc_silhouette, pam, select_k, DistanceMatrix, KSelectConfig,
};
use blaeu_core::render::json::map_to_json;
use blaeu_core::{
    analyzable_columns, build_map, detect_themes, preprocess, Command, DataMap, Explorer,
    ExplorerConfig, KChoice, MapperConfig, PreprocessConfig, Response, ThemeConfig,
};
use blaeu_exec::JobPool;
use blaeu_net::http::{read_request, Deadline};
use blaeu_server::{AsyncSessionServer, FsyncPolicy, RecordedOutcome, SessionJournal};
use blaeu_stats::{dependency_matrix, histogram};
use blaeu_store::{checksum64, prefix_sample, Table, TableView};
use blaeu_tree::{accuracy, DecisionTree, Node};
use serde_json::{json, Value};

use crate::client::text;
use crate::recorder::median;
use crate::session::{Sent, SessionLog};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, start.elapsed())
}

/// Median wall time of `reps` calls.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| us(timed(&mut f).1)).collect();
    median(&samples).unwrap_or(0.0)
}

fn count_nodes(node: &Node) -> usize {
    match node {
        Node::Leaf { .. } => 1,
        Node::Internal { left, right, .. } => 1 + count_nodes(left) + count_nodes(right),
    }
}

/// What identifies a map besides its regions: everything the stages
/// compute. Equal digests mean the staged pipeline built the same map.
fn staged_digest(
    k: usize,
    silhouette: f64,
    fidelity: f64,
    sample: usize,
    medoid_rows: &[u32],
    leaf_counts: &[usize],
) -> u64 {
    let rendered = format!(
        "{k} {:016x} {:016x} {sample} {medoid_rows:?} {leaf_counts:?}",
        silhouette.to_bits(),
        fidelity.to_bits()
    );
    checksum64(rendered.as_bytes())
}

fn digest_of_map(map: &DataMap) -> u64 {
    let leaf_counts: Vec<usize> = map.leaves().iter().map(|r| r.count).collect();
    staged_digest(
        map.k,
        map.silhouette,
        map.tree_fidelity,
        map.sample_size,
        &map.medoid_rows,
        &leaf_counts,
    )
}

/// Stage timings of one sampled map command; the named values become the
/// per-layer metrics (medians over the sampled commands).
pub type Stages = BTreeMap<&'static str, f64>;

/// Replays one map build stage by stage. `None` for inputs the staged
/// path does not cover (a degenerate view `build_map` special-cases).
fn staged_map(view: &TableView, columns: &[&str], config: &MapperConfig) -> Option<Stages> {
    let KChoice::Auto { min, max } = config.k else {
        return None;
    };
    let n = view.nrows();
    let mut s = Stages::new();

    // Once untimed, so the real build and the stages after it both run
    // on warm caches and their ratio is not a cold-start artefact.
    build_map(view, columns, config).ok()?;
    let (real, wall) = timed(|| build_map(view, columns, config));
    let real = real.ok()?;
    s.insert("core.build_map_ms", ms(wall));

    // The stages, in `build_map`'s order.
    let (sample_rows, t_sample) =
        timed(|| prefix_sample(n, config.sample_size.max(1), config.seed));
    let (sample, t_select) = timed(|| view.select(&sample_rows));
    let sample = sample.ok()?;
    let (points, t_prep) = timed(|| {
        preprocess(&sample, columns, &config.preprocess).map(|f| f.into_points(config.metric))
    });
    let points = points.ok()?;
    if points.len() < 4 {
        return None;
    }
    let kselect = KSelectConfig {
        k_min: min,
        k_max: max,
        clara_threshold: config.clara_threshold,
        pam: config.pam.clone(),
        clara: config.clara.clone(),
        mc: config.mc.clone(),
    };
    let (selection, t_select_k) = timed(|| select_k(&points, &kselect));
    let labels = &selection.result.labels;
    let (tree, t_fit) = timed(|| DecisionTree::fit(&sample, columns, labels, &config.cart));
    let tree = tree.ok()?;
    let (fidelity, t_fidelity) = timed(|| tree.predict(&sample).map(|p| accuracy(&p, labels)));
    let (assignments, t_route) = timed(|| tree.leaf_assignments(view));
    let assignments = assignments.ok()?;
    // `build_map` then splits the assignment into per-leaf memberships
    // (a private helper): the same pass, so the spans add up on tables
    // where every row is routed.
    let (leaf_rows, t_members) = timed(|| {
        let mut leaf_rows = vec![Vec::new(); tree.n_leaves()];
        for (row, &leaf) in assignments.iter().enumerate() {
            leaf_rows[leaf].push(row as u32);
        }
        leaf_rows
    });
    let (rendered, t_render) = timed(|| text(&map_to_json(&real)));
    let shared = Arc::new(real);
    let (_, t_digest) = timed(|| Response::Map(Arc::clone(&shared)).digest());

    let leaf_counts: Vec<usize> = leaf_rows.iter().map(Vec::len).collect();
    let medoid_rows: Vec<u32> = selection
        .result
        .medoids
        .iter()
        .map(|&m| sample_rows[m])
        .collect();
    let staged = staged_digest(
        selection.k,
        selection.silhouette,
        fidelity.ok()?,
        sample.nrows(),
        &medoid_rows,
        &leaf_counts,
    );
    s.insert(
        "trace.staged_digest_ok",
        f64::from(staged == digest_of_map(&shared)),
    );
    let covered =
        t_sample + t_select + t_prep + t_select_k + t_fit + t_fidelity + t_route + t_members;
    s.insert(
        "core.stage_coverage",
        covered.as_secs_f64() / wall.as_secs_f64(),
    );
    s.insert("store.prefix_sample_us", us(t_sample));
    s.insert("store.view_select_us", us(t_select));
    s.insert("core.preprocess_ms", ms(t_prep));
    s.insert("cluster.select_k_ms", ms(t_select_k));
    s.insert("tree.fit_ms", ms(t_fit));
    s.insert("tree.route_ms", ms(t_route));
    s.insert("core.leaf_rows_ms", ms(t_members));
    s.insert("tree.rows_routed", n as f64);
    s.insert("tree.nodes", count_nodes(tree.root()) as f64);
    s.insert("core.render_json_us", us(t_render));
    s.insert("core.map_json_bytes", rendered.len() as f64);
    s.insert("core.digest_us", us(t_digest));

    // Inside `select_k`, timed apart (not part of the coverage sum): the
    // pieces a clustering optimisation would move.
    let k = selection.k;
    let (_, t_clara) = timed(|| clara(&points, k, &config.clara));
    s.insert("cluster.clara_ms", ms(t_clara));
    let mc = config.mc.clone().unwrap_or_default();
    let (_, t_sil) = timed(|| mc_silhouette(&points, labels, &mc));
    s.insert("cluster.silhouette_ms", ms(t_sil));
    let (_, t_assign) = timed(|| assign_points(&points, &selection.result.medoids));
    s.insert("cluster.assign_ms", ms(t_assign));
    let (matrix, t_fill) = timed(|| DistanceMatrix::from_points(&points));
    s.insert("cluster.distance_fill_ms", ms(t_fill));
    let cells = points.len() * points.len().saturating_sub(1) / 2;
    s.insert("cluster.distance_cells", cells as f64);
    let (exact, t_pam) = timed(|| pam(&matrix, k, &config.pam));
    s.insert("cluster.pam_ms", ms(t_pam));
    s.insert("cluster.pam_swaps", exact.swaps as f64);
    Some(s)
}

/// The `(view, columns)` a map-building command is about to map.
fn map_inputs(explorer: &Explorer, command: &Command) -> Option<(TableView, Vec<String>)> {
    let state = explorer.current();
    match command {
        Command::SelectTheme(idx) | Command::ProjectTheme(idx) => Some((
            state.view.clone(),
            explorer.themes().get(*idx)?.columns.clone(),
        )),
        Command::Map => Some((state.view.clone(), state.columns.clone())),
        Command::Zoom(region) => {
            let rows = state
                .map
                .as_deref()?
                .exact_rows_of(&state.view, *region)
                .ok()?;
            Some((state.view.select(&rows).ok()?, state.columns.clone()))
        }
        _ => None,
    }
}

/// Staged replay over the logged sessions' own map commands, one session
/// after another until `budget` is spent (always at least one command).
/// Returns the per-command stage rows.
pub fn staged_replay(logs: &[SessionLog], table: &Arc<Table>, budget: Duration) -> Vec<Stages> {
    let started = Instant::now();
    let mut rows = Vec::new();
    for log in logs {
        let mut config = ExplorerConfig::default();
        config.mapper.seed = log.plan.mapper_seed;
        let Ok(mut explorer) = Explorer::open_shared(Arc::clone(table), config.clone()) else {
            continue;
        };
        for (sent, _) in &log.sent {
            let Sent::Command(command) = sent else {
                continue;
            };
            if !rows.is_empty() && started.elapsed() > budget {
                return rows;
            }
            if let Some((view, columns)) = map_inputs(&explorer, command) {
                let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
                rows.extend(staged_map(&view, &columns, &config.mapper));
            }
            if explorer.execute(command).is_err() {
                break;
            }
        }
    }
    rows
}

/// Per-metric medians over the sampled commands, plus the all-or-nothing
/// digest verdict (the minimum, so one mismatch shows).
pub fn stage_medians(rows: &[Stages]) -> Stages {
    let mut columns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for row in rows {
        for (&name, &value) in row {
            columns.entry(name).or_default().push(value);
        }
    }
    columns
        .into_iter()
        .map(|(name, values)| {
            let value = if name == "trace.staged_digest_ok" {
                values.iter().copied().fold(1.0, f64::min)
            } else {
                median(&values).unwrap_or(0.0)
            };
            (name, value)
        })
        .collect()
}

pub fn stages_json(rows: &[Stages]) -> Value {
    Value::Array(
        rows.iter()
            .map(|row| {
                let mut object = serde_json::Map::new();
                for (&name, &value) in row {
                    object.insert(name.to_owned(), json!(value));
                }
                Value::Object(object)
            })
            .collect(),
    )
}

/// Payload bytes of the table's columns (8 per numeric cell, 4 per
/// categorical code), the size every full-view pass streams through.
pub fn table_bytes(table: &Table) -> f64 {
    table
        .columns()
        .iter()
        .map(|c| c.len() * if c.data_type().is_numeric() { 8 } else { 4 })
        .sum::<usize>() as f64
}

/// One probe per layer boundary, on the idle server after the timed
/// phase: what a single call across the boundary costs.
pub fn probes(
    engine: &Arc<AsyncSessionServer>,
    table: &Arc<Table>,
    name: &str,
    bodies: &[String],
    wire_depth_us: f64,
    journal_dir: Option<&std::path::Path>,
) -> Stages {
    let mut s = Stages::new();
    let view = TableView::new(Arc::clone(table));
    s.insert("store.table_bytes", table_bytes(table));

    // stats / core: theme detection and the dependency matrix inside it.
    let themes = ThemeConfig::default();
    let columns = analyzable_columns(&view, &PreprocessConfig::default());
    let (_, t_dep) = timed(|| dependency_matrix(&view, &columns, &themes.dependency));
    s.insert("stats.depmatrix_ms", ms(t_dep));
    let m = columns.len();
    s.insert(
        "stats.depmatrix_pairs",
        (m * m.saturating_sub(1) / 2) as f64,
    );
    let (theme_set, t_themes) = timed(|| detect_themes(&view, &themes));
    s.insert("core.themes_ms", ms(t_themes));
    let column = view.col(view.ncols() - 1);
    s.insert(
        "stats.histogram_ms",
        median_us(5, || {
            std::hint::black_box(histogram(&column, 8));
        }) / 1e3,
    );

    // exec: the thread budget, a pool round trip, and what the second
    // thread buys one map build.
    let budget = blaeu_exec::thread_budget();
    s.insert("exec.threads", budget as f64);
    let pool = JobPool::new(1);
    s.insert(
        "exec.submit_join_us",
        median_us(200, || {
            pool.submit(|| ()).join();
        }),
    );
    pool.shutdown_and_join();
    if let Some(theme) = theme_set.ok().and_then(|set| set.themes.into_iter().next()) {
        let columns: Vec<&str> = theme.columns.iter().map(String::as_str).collect();
        let config = MapperConfig::default();
        blaeu_exec::set_thread_budget(1);
        let (_, one) = timed(|| build_map(&view, &columns, &config));
        blaeu_exec::set_thread_budget(budget);
        let (_, all) = timed(|| build_map(&view, &columns, &config));
        s.insert("exec.map_speedup", one.as_secs_f64() / all.as_secs_f64());
    }

    // server: a command that does nothing but cross the session tier
    // (journaled like the wire's, so the two differ by the wire alone),
    // and a map answered from the cache.
    if let Ok(id) = engine.open_named_session(name, Arc::clone(table), ExplorerConfig::default()) {
        let depth = median_us(200, || {
            let _ = engine.request(id, Command::Depth);
        });
        s.insert("server.request_overhead_us", depth);
        s.insert("net.wire_overhead_us", wire_depth_us - depth);
        if engine.cache().is_some() && engine.request(id, Command::SelectTheme(0)).is_ok() {
            s.insert(
                "server.cache_hit_us",
                median_us(50, || {
                    let _ = engine.request(id, Command::Map);
                }),
            );
        }
        let _ = engine.close(id);
    }

    // net / core: parsing one request off the socket, decoding its body.
    let body = bodies.first().map_or("{\"cmd\":\"depth\"}", String::as_str);
    let request = format!(
        "POST /sessions/1/commands HTTP/1.1\r\nHost: wirebench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.insert(
        "net.http_parse_us",
        median_us(500, || {
            let mut reader = BufReader::new(request.as_bytes());
            let _ = read_request(&mut reader, &mut std::io::sink(), 1 << 20, Deadline::none());
        }),
    );
    let mut next = bodies.iter().cycle();
    s.insert(
        "core.command_decode_us",
        median_us(500, || {
            if let Some(body) = next.next() {
                let _ = std::hint::black_box(Command::from_json_str(body));
            }
        }),
    );

    // server::journal: one append under the workload's fsync policy.
    if let Some(dir) = journal_dir {
        if let Ok(journal) = SessionJournal::open(dir.join("probe"), FsyncPolicy::Always) {
            if journal.open_session(1, "probe", 1).is_ok() {
                let outcome = RecordedOutcome::Digest(0x5eed);
                s.insert(
                    "server.journal_append_us",
                    median_us(100, || journal.append_command(1, &Command::Depth, &outcome)),
                );
                journal.close_session(1);
            }
        }
    }
    s
}
