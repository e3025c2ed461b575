//! The four workloads: which table, how many clients, how much the
//! sessions share, and the seeded script generator.
//!
//! `--seed` feeds only this module (table seed, per-session mapper
//! seeds, theme / region / column picks). The server sees nothing but
//! the requests generated from it.

use blaeu_store::generate::{hollywood, oecd, HollywoodConfig, OecdConfig};
use blaeu_store::Table;

/// Run size: the real thing, or the seconds-long self-test shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// SplitMix64: the whole generator is these few lines, so "same seed →
/// same script" cannot drift with a dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Hashes two values into one seed.
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.rotate_left(32) ^ 0x0062_6c61_6575).next()
}

/// Seeds travel as JSON numbers; stay inside what any JSON reader holds
/// exactly.
const SEED_MASK: u64 = (1 << 48) - 1;

/// The generated tables (`blaeu_store::generate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// `oecd` 6 823 × 378 — the paper's Countries & Work shape: wide, so
    /// theme detection (the MI dependency matrix) and clustering carry
    /// every command.
    Countries,
    /// `oecd` 200 000 × 96 — row-bound: tree routing and per-region
    /// scans touch every row.
    Tall,
    /// `hollywood` 20 000 rows — analyses are cheap, so journal and
    /// transport dominate.
    Films,
}

impl TableKind {
    pub fn name(self) -> &'static str {
        match self {
            TableKind::Countries => "countries",
            TableKind::Tall => "tall",
            TableKind::Films => "films",
        }
    }

    /// Generates the table. The table seed is derived from `--seed`.
    pub fn generate(self, size: Size, seed: u64) -> Table {
        let seed = mix(seed, self as u64) & SEED_MASK;
        let oecd_of = |nrows, ncols| OecdConfig {
            nrows,
            ncols,
            seed,
            ..OecdConfig::default()
        };
        let generated = match (self, size) {
            (TableKind::Countries, Size::Full) => oecd(&oecd_of(6823, 378)),
            (TableKind::Countries, Size::Smoke) => oecd(&oecd_of(300, 24)),
            (TableKind::Tall, Size::Full) => oecd(&oecd_of(200_000, 96)),
            (TableKind::Tall, Size::Smoke) => oecd(&oecd_of(1200, 16)),
            (TableKind::Films, Size::Full) => hollywood(&HollywoodConfig {
                nrows: 20_000,
                seed,
            }),
            (TableKind::Films, Size::Smoke) => hollywood(&HollywoodConfig { nrows: 300, seed }),
        };
        generated
            .expect("the generators cannot fail on these shapes")
            .0
    }
}

/// One scripted action. Picks are raw draws; the client resolves each
/// against what the server answered (theme count, the current map's
/// leaves, the table's columns), so a script is fixed by the seed alone
/// and every resolved command is valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Themes,
    /// Theme `pick mod themes`.
    SelectTheme(u64),
    /// A theme other than the active one.
    ProjectTheme(u64),
    Map,
    /// One of the two biggest leaves of the current map.
    Zoom(u64),
    Highlight(u64),
    Scatter(u64),
    RegionDetail(u64),
    Rollback,
    Sql,
    Depth,
    Breadcrumbs,
    /// `map_progressive` on the NDJSON batch channel, read to
    /// `"final":true`.
    Ladder,
}

/// One workload: a traffic mix chosen to load some layers and bypass
/// others.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub table: TableKind,
    /// Closed-loop clients, one connection each (never more than the
    /// box's two cores).
    pub clients: usize,
    /// Mapper seeds are drawn from a pool of this many; `0` gives every
    /// session its own seed, so no analysis is ever shared.
    pub seed_pool: u64,
    /// Script variants per pool seed: sessions with equal (seed, variant)
    /// send identical requests and must get identical digests.
    pub variants: u64,
    /// Every session opens a fresh `Arc<Table>` replica, so even theme
    /// detection misses the `AnalysisCache` (its key holds the pointer).
    pub fresh_replica: bool,
    /// `false` sets `cache_capacity: 0`: a ladder's final rung shares its
    /// cache key with the exact map `select_theme` just built, so only
    /// with the cache off does the ladder compute every rung.
    pub cache: bool,
    /// Journal on, `FsyncPolicy::Always`, in the timed phase.
    pub journal: bool,
    /// Sessions the restart at the end of a run leaves open for `recover`
    /// to rebuild: sized so that one recovery takes about a second.
    left_open: u64,
    script: fn(&mut Rng) -> Vec<Step>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wide_cold",
        why: "1 client, 6823x378 table, fresh table replica and unique seed per session: every analysis \
              misses the cache, so stats (MI matrix) and cluster/tree carry the time; net/server/cache do none",
        table: TableKind::Countries,
        clients: 1,
        seed_pool: 0,
        variants: 1,
        fresh_replica: true,
        cache: true,
        journal: false,
        left_open: 1,
        script: wide_cold,
    },
    Workload {
        name: "tall_shared",
        why: "2 clients, one shared 200000x96 table, seeds from a pool of 8, read-heavy: maps hit the cache, so \
              net, server queue, JSON render and store/stats view scans carry the time; kernels should not show",
        table: TableKind::Tall,
        clients: 2,
        seed_pool: 8,
        variants: 2,
        fresh_replica: false,
        cache: true,
        journal: false,
        left_open: 4,
        script: tall_shared,
    },
    Workload {
        name: "tall_ladder",
        why: "1 client, 200000x96 table, unique seeds, cache off: a streamed map_progressive ladder and a one-shot \
              map per session, so a gain for nested rungs that costs the exact build (or the reverse) shows",
        table: TableKind::Tall,
        clients: 1,
        seed_pool: 0,
        variants: 1,
        fresh_replica: false,
        cache: false,
        journal: false,
        left_open: 4,
        script: tall_ladder,
    },
    Workload {
        name: "durable_nav",
        why: "2 clients, 20000-row table, journal with fsync on every record, seed pool of 4, cheap commands, then \
              a timed recover: journal append/fsync/replay carry the time, analysis is negligible",
        table: TableKind::Films,
        clients: 2,
        seed_pool: 4,
        variants: 2,
        fresh_replica: false,
        cache: true,
        journal: true,
        left_open: 128,
        script: durable_nav,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything that defines one session, derived from `(seed, index)`
/// alone — whichever client thread picks the index up runs the same
/// session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    pub index: u64,
    pub mapper_seed: u64,
    /// `(pool seed, variant)` in pooled workloads: the identity under
    /// which hits are compared with the first miss.
    pub pool_key: Option<(u64, u64)>,
    pub steps: Vec<Step>,
}

impl Workload {
    pub fn plan(&self, seed: u64, index: u64) -> SessionPlan {
        if self.seed_pool == 0 {
            let mut rng = Rng::new(mix(seed, index));
            let mapper_seed = rng.next() & SEED_MASK;
            return SessionPlan {
                index,
                mapper_seed,
                pool_key: None,
                steps: (self.script)(&mut rng),
            };
        }
        let key = Rng::new(mix(seed, index)).below(self.seed_pool * self.variants);
        self.plan_of_key(seed, index, key)
    }

    /// Session `index` with pool key number `key` (modulo the pool's
    /// size) instead of a drawn one: the restart leaves one session open
    /// per key, so that a recovery computes the same analyses every run.
    /// Unpooled workloads have no keys; theirs is `plan`.
    pub fn plan_of_key(&self, seed: u64, index: u64, key: u64) -> SessionPlan {
        if self.seed_pool == 0 {
            return self.plan(seed, index);
        }
        let slot = key % self.seed_pool;
        let variant = key / self.seed_pool % self.variants;
        let mapper_seed = mix(seed, 0x706f_6f6c + slot) & SEED_MASK;
        let mut rng = Rng::new(mix(mapper_seed, variant));
        SessionPlan {
            index,
            mapper_seed,
            pool_key: Some((mapper_seed, variant)),
            steps: (self.script)(&mut rng),
        }
    }

    pub fn left_open(&self, size: Size) -> u64 {
        match size {
            Size::Full => self.left_open,
            Size::Smoke => 2,
        }
    }

    /// The first `sessions` scripts as text — what the determinism
    /// self-test compares byte for byte.
    #[cfg(test)]
    pub fn script_text(&self, seed: u64, sessions: u64) -> String {
        (0..sessions)
            .map(|index| format!("{:?}\n", self.plan(seed, index)))
            .collect()
    }
}

// The scripts. Each carries every latency class (open, map, zoom, scan,
// nav, ladder), because the driver's contract wants every end-to-end
// metric on every workload; what differs is which class carries the
// session's time.

/// Two cold themes, two cold zooms, a ladder on the zoomed state. A run
/// fits only a dozen of these sessions and a scan's cost depends on the
/// column picked, so every mapped state is scanned all three ways: the
/// session mean then averages twelve picks, for a few milliseconds.
fn wide_cold(rng: &mut Rng) -> Vec<Step> {
    use Step::*;
    let mut p = || rng.next();
    vec![
        Themes,
        SelectTheme(p()),
        Highlight(p()),
        Scatter(p()),
        RegionDetail(p()),
        Zoom(p()),
        Highlight(p()),
        Scatter(p()),
        RegionDetail(p()),
        ProjectTheme(p()),
        Highlight(p()),
        Scatter(p()),
        RegionDetail(p()),
        Zoom(p()),
        Highlight(p()),
        Scatter(p()),
        RegionDetail(p()),
        Rollback,
        Rollback,
        Depth,
        Ladder,
        Breadcrumbs,
        Sql,
    ]
}

/// Read-heavy: three maps (all hits once the pool is warm) among
/// seventeen reads. Themes are drawn from two, so the pool's working
/// set — 8 seeds × 2 variants × (map + zoomed map + rungs) ≈ 20 MB —
/// fits the cache's 64 MB budget and hits stay hits. The ladder is sent
/// twice: a cached level 0 answers in one of two modes (see README), and
/// only the mean of two has a median that does not sit on the step.
fn tall_shared(rng: &mut Rng) -> Vec<Step> {
    use Step::*;
    let theme = rng.below(2);
    let mut p = || rng.next();
    vec![
        Themes,
        SelectTheme(theme),
        Highlight(p()),
        Scatter(p()),
        RegionDetail(p()),
        Sql,
        Zoom(p()),
        Highlight(p()),
        Depth,
        Breadcrumbs,
        RegionDetail(p()),
        Scatter(p()),
        Ladder,
        Ladder,
        Rollback,
        Highlight(p()),
        Themes,
        Sql,
    ]
}

/// The ladder on one theme, then — back at the root — a second theme
/// mapped one-shot, and re-mapped (`map`: with the cache off, a second
/// exact build of the same state).
fn tall_ladder(rng: &mut Rng) -> Vec<Step> {
    use Step::*;
    let mut p = || rng.next();
    vec![
        Themes,
        SelectTheme(p()),
        Ladder,
        Highlight(p()),
        Zoom(p()),
        RegionDetail(p()),
        Rollback,
        Rollback,
        SelectTheme(p()),
        Map,
        Scatter(p()),
        Sql,
    ]
}

/// Cheap state changes and reads; every one is a journal append + fsync.
fn durable_nav(rng: &mut Rng) -> Vec<Step> {
    use Step::*;
    let theme = rng.below(2);
    let mut p = || rng.next();
    vec![
        Themes,
        SelectTheme(theme),
        Sql,
        Depth,
        Zoom(p()),
        Breadcrumbs,
        Highlight(p()),
        RegionDetail(p()),
        Rollback,
        Depth,
        ProjectTheme(p() % 2),
        Scatter(p()),
        Ladder,
        Sql,
        Rollback,
        Depth,
        Breadcrumbs,
        Sql,
    ]
}

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit, bound)`.
/// The bound is the share of the parent's median by which the metric may
/// worsen before a change counts as a regression; `NOISE.md` shows what
/// each one was set from.
pub const END_TO_END: [(&str, &str, f64); 12] = [
    ("setup_s", "s", 0.25),
    ("session_s_p50", "s", 0.2),
    ("open_ms_p50", "ms", 0.25),
    ("map_ms_p50", "ms", 0.15),
    ("zoom_ms_p50", "ms", 0.25),
    ("scan_ms_p50", "ms", 0.2),
    ("nav_ms_p50", "ms", 0.2),
    ("first_map_ms_p50", "ms", 0.25),
    ("ladder_exact_ms_p50", "ms", 0.2),
    ("cmds_per_s", "1/s", 0.2),
    ("recover_s", "s", 0.2),
    ("peak_rss_mb", "MB", 0.15),
];

/// Per-layer metrics of a traced run, in `BENCHMARK.json` order. Layers
/// are the crate names; `wire` is the benchmark's own client, `trace`
/// what the spans add up to. A metric the workload does not exercise
/// reads 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("store.prefix_sample_us", "us"),
    ("store.view_select_us", "us"),
    ("store.table_bytes", "B"),
    ("stats.depmatrix_ms", "ms"),
    ("stats.depmatrix_pairs", "count"),
    ("stats.histogram_ms", "ms"),
    ("cluster.distance_fill_ms", "ms"),
    ("cluster.distance_cells", "count"),
    ("cluster.select_k_ms", "ms"),
    ("cluster.clara_ms", "ms"),
    ("cluster.pam_ms", "ms"),
    ("cluster.pam_swaps", "count"),
    ("cluster.silhouette_ms", "ms"),
    ("cluster.assign_ms", "ms"),
    ("tree.fit_ms", "ms"),
    ("tree.route_ms", "ms"),
    ("tree.rows_routed", "count"),
    ("tree.nodes", "count"),
    ("core.preprocess_ms", "ms"),
    ("core.themes_ms", "ms"),
    ("core.build_map_ms", "ms"),
    ("core.leaf_rows_ms", "ms"),
    ("core.render_json_us", "us"),
    ("core.map_json_bytes", "B"),
    ("core.digest_us", "us"),
    ("core.response_bytes", "B"),
    ("core.command_decode_us", "us"),
    ("core.ladder_rungs", "count"),
    ("core.stage_coverage", "ratio"),
    ("exec.submit_join_us", "us"),
    ("exec.threads", "count"),
    ("exec.map_speedup", "ratio"),
    ("server.request_overhead_us", "us"),
    ("server.cache_hit_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_map_bytes", "B"),
    ("server.journal_append_us", "us"),
    ("server.journal_fsyncs", "count"),
    ("server.journal_bytes_per_cmd", "B"),
    ("server.recover_ms_per_cmd", "ms"),
    ("server.levels_streamed", "count"),
    ("server.rungs_cancelled", "count"),
    ("net.http_parse_us", "us"),
    ("net.wire_overhead_us", "us"),
    ("net.requests", "count"),
    ("net.rejected", "count"),
    ("net.bytes_out", "B"),
    ("wire.write_us_p50", "us"),
    ("wire.wait_us_p50", "us"),
    ("wire.parse_us_p50", "us"),
    ("wire.map_ms_p90", "ms"),
    ("wire.nav_ms_p99", "ms"),
    ("trace.sessions", "count"),
    ("trace.staged_commands", "count"),
    ("trace.staged_digest_ok", "ratio"),
    ("trace.analysis_share", "ratio"),
    ("trace.kernel_share", "ratio"),
    ("trace.scan_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scripts_different_seed_different_scripts() {
        for w in &WORKLOADS {
            let a = w.script_text(7, 40);
            assert_eq!(a, w.script_text(7, 40), "{}: same seed must repeat", w.name);
            assert_ne!(a, w.script_text(8, 40), "{}: seeds must differ", w.name);
        }
    }

    #[test]
    fn pooled_sessions_repeat_their_pool_key() {
        let w = find("tall_shared").expect("workload exists");
        let plans: Vec<SessionPlan> = (0..200).map(|i| w.plan(3, i)).collect();
        let mut keys: Vec<(u64, u64)> = plans.iter().filter_map(|p| p.pool_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len() as u64, w.seed_pool * w.variants);
        for a in &plans {
            for b in &plans {
                if a.pool_key == b.pool_key {
                    assert_eq!(a.steps, b.steps);
                    assert_eq!(a.mapper_seed, b.mapper_seed);
                }
            }
        }
        // The restart's sessions take the keys in turn: each one once.
        let mut in_turn: Vec<(u64, u64)> = (0..keys.len() as u64)
            .filter_map(|k| w.plan_of_key(3, k, k).pool_key)
            .collect();
        in_turn.sort_unstable();
        assert_eq!(in_turn, keys);
        // Unique-seed workloads never repeat a seed.
        let w = find("wide_cold").expect("workload exists");
        let mut seeds: Vec<u64> = (0..200).map(|i| w.plan(3, i).mapper_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 200);
    }

    #[test]
    fn every_script_carries_every_latency_class() {
        for w in &WORKLOADS {
            let steps = w.plan(1, 0).steps;
            let has = |f: fn(&Step) -> bool| steps.iter().any(f);
            assert!(has(|s| matches!(s, Step::SelectTheme(_))), "{}", w.name);
            assert!(has(|s| matches!(s, Step::Zoom(_))), "{}", w.name);
            assert!(has(|s| matches!(s, Step::Highlight(_))), "{}", w.name);
            assert!(has(|s| matches!(s, Step::Sql)), "{}", w.name);
            assert!(has(|s| matches!(s, Step::Ladder)), "{}", w.name);
            assert!(w.clients <= 2, "{}: the box has two cores", w.name);
        }
    }
}
