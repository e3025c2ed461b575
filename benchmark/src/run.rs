//! One benchmark run: set-up (timed, repeated), a discarded warm-up
//! session, the timed closed-loop phase over loopback, — traced — the
//! spans, the staged replay and the probes, then the restart (`recover`,
//! timed, repeated) and the output checks.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blaeu_core::Command;
use blaeu_net::{NetConfig, NetServer};
use blaeu_server::{AsyncSessionServer, CacheStats, FsyncPolicy, ServerConfig};
use blaeu_store::Table;
use serde_json::{json, Value};

use crate::client::{text, WireClient};
use crate::layers;
use crate::recorder::{highest_tail, median, Class, Recorder};
use crate::session::{
    miss_probe, reference_mismatches, Catalog, Driver, PoolCheck, Sent, SessionLog, Tally,
};
use crate::trace::{self, Span, Tracer};
use crate::workload::{Size, Workload, END_TO_END, PER_LAYER};

/// The bench box has two cores; every pool and the client count are
/// pinned to that, whatever the machine running this reports.
pub const THREADS: usize = 2;

/// Set-up is repeated and its median reported, so one slow page-in does
/// not read as a set-up regression: at least `SETUP_REPEATS_MIN` times,
/// and on until the repeats have taken `SETUP_SECONDS` in all — the
/// 20 ms set-up of `films` needs more of them than the 1.4 s one of `tall`.
const SETUP_REPEATS_MIN: usize = 3;
const SETUP_REPEATS_MAX: usize = 31;
const SETUP_SECONDS: f64 = 1.0;

/// Sessions whose index is a multiple of this are replayed on an
/// in-process reference `Explorer` and compared digest by digest.
const REFERENCE_EVERY: u64 = 8;

/// Index of the discarded warm-up session (its own seed, never timed).
const WARMUP: u64 = u64::MAX;

/// `recover` is repeated on the same journal (a recovery leaves it in
/// place) and its median reported, like set-up.
const RECOVER_REPEATS: usize = 3;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where the journal and the trace file go (inside the checkout).
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 for counts and ratios).
    pub n: usize,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// What the result line carries: every end-to-end metric untraced,
    /// every per-layer metric traced.
    pub metrics: Vec<Metric>,
    /// Untraced only: the per-layer numbers the run measured anyway
    /// (tails, journal counters), printed but not part of the result line.
    pub also: Vec<Metric>,
    /// Human-readable lines: sample counts, check results, failures.
    pub notes: Vec<String>,
}

/// The self-hosted system under test.
struct Harness {
    table: Arc<Table>,
    engine: Arc<AsyncSessionServer>,
    net: NetServer,
    journal_dir: Option<PathBuf>,
}

fn server_config(workload: &Workload, journal_dir: Option<&Path>) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        threads: THREADS,
        cache_capacity: if workload.cache {
            defaults.cache_capacity
        } else {
            0
        },
        journal_dir: journal_dir.map(Path::to_path_buf),
        journal_fsync: if journal_dir.is_some() {
            FsyncPolicy::Always
        } else {
            FsyncPolicy::Never
        },
        ..defaults
    }
}

fn serve(engine: &Arc<AsyncSessionServer>, table: &Arc<Table>, name: &str) -> NetServer {
    let config = NetConfig {
        conn_threads: THREADS,
        ..NetConfig::default()
    };
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(engine), config)
        .expect("loopback always binds an ephemeral port");
    net.register_table(name, Arc::clone(table));
    net
}

fn setup(opts: &Options) -> Harness {
    let workload = opts.workload;
    let journal_dir = workload
        .journal
        .then(|| opts.out_dir.join(format!("journal-{}", workload.name)));
    if let Some(dir) = &journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let table = Arc::new(workload.table.generate(opts.size, opts.seed));
    let engine = Arc::new(
        AsyncSessionServer::try_new(server_config(workload, journal_dir.as_deref()))
            .expect("the journal directory is creatable inside the checkout"),
    );
    let net = serve(&engine, &table, workload.table.name());
    Harness {
        table,
        engine,
        net,
        journal_dir,
    }
}

/// What one closed-loop phase produced.
#[derive(Default)]
struct Phase {
    recorder: Recorder,
    /// In a traced phase every client records spans on every other
    /// session; these are the others. The two halves' session medians
    /// give the tracing overhead.
    untraced: Recorder,
    tally: Tally,
    /// Logs of the sessions the reference check and the replay sample.
    logs: Vec<SessionLog>,
    spans: Vec<Span>,
    wall: Duration,
}

/// Runs the workload's clients until `seconds` have passed (each client
/// finishes the session it is in, and runs at least one).
fn run_clients(
    harness: &Harness,
    opts: &Options,
    seconds: f64,
    trace: bool,
    pool: &PoolCheck,
) -> Phase {
    let workload = opts.workload;
    let catalog = Catalog::of(&harness.table);
    let addr = harness.net.local_addr();
    let name = workload.table.name();
    let next = AtomicU64::new(0);
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);

    let client = || {
        let tracer = trace.then(|| Tracer::new(epoch, miss_probe(&harness.engine)));
        let mut driver = Driver::connect(addr, &catalog, tracer);
        let mut untraced = Recorder::default();
        let mut logs = Vec::new();
        // Every other session of *this* client records spans, so the traced
        // and the untraced half both hold sessions of every client thread.
        let mut spans_on = trace;
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let plan = workload.plan(opts.seed, index);
            if workload.fresh_replica {
                // A new allocation: a new cache identity for every analysis.
                harness
                    .net
                    .register_table(name, Arc::new(Table::clone(&harness.table)));
            }
            let traced = spans_on;
            spans_on = trace && !spans_on;
            let started = Instant::now();
            match driver.run(&plan, name, traced, false) {
                Ok(log) => {
                    if trace && !traced {
                        untraced.record(Class::Session, started.elapsed());
                    }
                    let differing = pool.mismatches(&log);
                    driver.tally.fail_many(differing, || {
                        format!(
                            "session {index}: {differing} digests differ from the first of its pool key"
                        )
                    });
                    if index.is_multiple_of(REFERENCE_EVERY) {
                        logs.push(log);
                    }
                }
                Err(error) => {
                    driver
                        .tally
                        .fail(|| format!("session {index}: aborted: {error}"));
                    match WireClient::connect(addr) {
                        Ok(fresh) => driver.client = fresh,
                        Err(_) => break,
                    }
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        let spans = driver.tracer.map(Tracer::into_spans).unwrap_or_default();
        (driver.recorder, untraced, driver.tally, logs, spans)
    };

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.clients).map(|_| scope.spawn(client)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread never panics"))
            .collect()
    });
    let mut phase = Phase {
        wall: epoch.elapsed(),
        ..Phase::default()
    };
    let mut buffers = Vec::new();
    for (recorder, untraced, tally, logs, spans) in results {
        phase.recorder.merge(recorder);
        phase.untraced.merge(untraced);
        phase.tally.merge(tally);
        phase.logs.extend(logs);
        buffers.push(spans);
    }
    phase.logs.sort_by_key(|log| log.plan.index);
    phase.spans = trace::merge(buffers);
    phase
}

/// Every workload's ending: a restart. A journaling engine (the
/// workload's configuration, fsync on every record) serves a few more
/// sessions and is dropped with them open; a new engine is built on the
/// same journal directory and `recover` is timed, `RECOVER_REPEATS`
/// times, as a recovery leaves the journal in place. Each recovered session
/// must answer `sql` and `depth` with the digests it gave before the drop.
fn recover_phase(
    table: &Arc<Table>,
    opts: &Options,
    tally: &mut Tally,
    values: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) {
    let workload = opts.workload;
    let name = workload.table.name();
    let dir = opts.out_dir.join(format!("recover-{}", workload.name));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || server_config(workload, Some(&dir));
    let engine = Arc::new(
        AsyncSessionServer::try_new(config())
            .expect("the journal directory is creatable inside the checkout"),
    );
    let net = serve(&engine, table, name);
    let catalog = Catalog::of(table);
    let mut driver = Driver::connect(net.local_addr(), &catalog, None);
    let mut open = Vec::new();
    for i in 0..workload.left_open(opts.size) {
        if workload.fresh_replica {
            net.register_table(name, Arc::new(Table::clone(table)));
        }
        let plan = workload.plan_of_key(opts.seed, WARMUP - 1 - i, i);
        match driver.run(&plan, name, false, true) {
            Ok(log) => open.extend(log.left_open),
            Err(error) => driver.tally.fail(|| format!("left-open session: {error}")),
        }
    }
    tally.merge(std::mem::take(&mut driver.tally));
    drop(driver);
    net.shutdown();
    drop(net);
    drop(engine);

    let tables = HashMap::from([(name.to_owned(), Arc::clone(table))]);
    let mut seconds = Vec::new();
    let mut replayed = 0;
    let mut recovered = None;
    for _ in 0..RECOVER_REPEATS {
        drop(recovered.take());
        let engine = AsyncSessionServer::try_new(config()).expect("the journal directory exists");
        let started = Instant::now();
        let report = engine.recover(&tables);
        seconds.push(started.elapsed().as_secs_f64());
        tally.attempted += 1;
        match report {
            Ok(report) if report.errors.is_empty() && report.sessions.len() == open.len() => {
                replayed = report.replayed;
            }
            Ok(report) => tally.fail(|| {
                format!(
                    "recover: {} of {} sessions, errors {:?}",
                    report.sessions.len(),
                    open.len(),
                    report.errors
                )
            }),
            Err(error) => tally.fail(|| format!("recover: {error}")),
        }
        recovered = Some(engine);
    }
    let recover_s = median(&seconds).unwrap_or(0.0);
    values.insert("recover_s", recover_s);
    values.insert(
        "server.recover_ms_per_cmd",
        recover_s * 1e3 / replayed.max(1) as f64,
    );
    notes.push(format!(
        "recover: {} sessions, {replayed} commands replayed in {recover_s:.3} s (median of {RECOVER_REPEATS})",
        open.len()
    ));

    let engine = recovered.expect("RECOVER_REPEATS is at least one");
    let digest_of = |id, command| {
        engine
            .request(id, command)
            .map(|response| format!("{:016x}", response.digest()))
            .unwrap_or_default()
    };
    for (id, sql, depth) in open {
        tally.attempted += 2;
        if digest_of(id, Command::Sql) != sql {
            tally.fail(|| format!("session {id}: sql digest changed across recover"));
        }
        if digest_of(id, Command::Depth) != depth {
            tally.fail(|| format!("session {id}: depth digest changed across recover"));
        }
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replays logged sessions on the in-process reference, each pool key
/// once, until `budget` is spent (always at least one session).
fn reference_check(
    phase: &Phase,
    table: &Arc<Table>,
    budget: Duration,
    tally: &mut Tally,
) -> usize {
    let started = Instant::now();
    let mut seen = HashSet::new();
    let mut checked = 0;
    for log in &phase.logs {
        if checked > 0 && started.elapsed() > budget {
            break;
        }
        if log.plan.pool_key.is_some_and(|key| !seen.insert(key)) {
            continue;
        }
        checked += 1;
        tally.attempted += log.sent.len() as u64;
        let differing = reference_mismatches(log, table);
        tally.fail_many(differing, || {
            format!(
                "session {}: {differing} digests differ from the in-process reference",
                log.plan.index
            )
        });
    }
    checked
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The server's own counters at one instant: `cache_stats()` in-process
/// and `GET /stats` over the wire. A traced run reports their deltas
/// over the timed phase.
struct Counters {
    cache: Option<CacheStats>,
    stats: Value,
}

impl Counters {
    fn read(harness: &Harness) -> Counters {
        Counters {
            cache: harness.engine.cache_stats(),
            stats: WireClient::connect(harness.net.local_addr())
                .and_then(|mut client| client.request("GET", "/stats", None))
                .map_or(Value::Null, |reply| reply.body),
        }
    }
}

/// Median wire latency of `depth` on an idle session, in microseconds.
fn wire_depth_us(harness: &Harness, name: &str) -> f64 {
    let run = || -> std::io::Result<f64> {
        let mut client = WireClient::connect(harness.net.local_addr())?;
        let open = text(&json!({"table": name}));
        let id = client.request("POST", "/sessions", Some(&open))?.body["session"]
            .as_u64()
            .unwrap_or(0);
        let body = text(&Command::Depth.to_json());
        let path = format!("/sessions/{id}/commands");
        let mut samples = Vec::new();
        for _ in 0..200 {
            let reply = client.request("POST", &path, Some(&body))?;
            samples.push(reply.at.total().as_secs_f64() * 1e6);
        }
        client.request("DELETE", &format!("/sessions/{id}"), None)?;
        Ok(median(&samples).unwrap_or(0.0))
    };
    run().unwrap_or(0.0)
}

pub fn run(opts: &Options) -> Outcome {
    let workload = opts.workload;
    let mut notes = Vec::new();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();

    // Set-up, repeated; the last one is kept. Dropping before rebuilding
    // keeps one table resident, so the repeats do not raise peak RSS.
    let mut setups = Vec::new();
    let mut harness = None;
    while setups.len() < SETUP_REPEATS_MIN
        || (setups.len() < SETUP_REPEATS_MAX && setups.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(harness.take());
        let started = Instant::now();
        harness = Some(setup(opts));
        setups.push(started.elapsed().as_secs_f64());
    }
    let harness = harness.expect("set-up ran at least once");
    values.insert("setup_s", median(&setups).unwrap_or(0.0));
    counts.insert("setup_s", setups.len());

    let pool = PoolCheck::default();
    let mut tally = Tally::default();

    // One discarded warm-up session: lazy set-up ends before timing.
    {
        let catalog = Catalog::of(&harness.table);
        let mut driver = Driver::connect(harness.net.local_addr(), &catalog, None);
        let plan = workload.plan(opts.seed, WARMUP);
        if let Err(error) = driver.run(&plan, workload.table.name(), false, false) {
            driver.tally.fail(|| format!("warm-up: aborted: {error}"));
        }
        tally.merge(driver.tally);
    }

    // A traced run splits its time: spans first, then the staged replay.
    let phase_seconds = if opts.trace {
        opts.seconds * 0.5
    } else {
        opts.seconds
    };
    let before = opts.trace.then(|| Counters::read(&harness));
    let phase = run_clients(&harness, opts, phase_seconds, opts.trace, &pool);
    let after = opts.trace.then(|| Counters::read(&harness));
    tally.merge(phase.tally.clone());

    // End-to-end: wire-side, medians of exact sample vectors.
    let wall = phase.wall.as_secs_f64();
    // p50 = the median session's mean latency in the class.
    for (name, class, scale) in [
        ("session_s_p50", Class::Session, 1e-3),
        ("open_ms_p50", Class::Open, 1.0),
        ("map_ms_p50", Class::Map, 1.0),
        ("zoom_ms_p50", Class::Zoom, 1.0),
        ("scan_ms_p50", Class::Scan, 1.0),
        ("nav_ms_p50", Class::Nav, 1.0),
        ("first_map_ms_p50", Class::FirstMap, 1.0),
        ("ladder_exact_ms_p50", Class::LadderExact, 1.0),
    ] {
        let sorted = phase.recorder.sessions(class);
        values.extend(sorted.quantile_ms(0.5).map(|ms| (name, ms * scale)));
        counts.insert(name, sorted.n());
    }
    values.insert("cmds_per_s", phase.tally.commands as f64 / wall);
    counts.insert("cmds_per_s", phase.tally.commands as usize);
    // Tails only where the class has ten samples beyond them; the
    // highest percentile each class resolves goes to the notes.
    for class in Class::ALL {
        let sorted = phase.recorder.commands(class);
        let tail = highest_tail(sorted.n())
            .and_then(|q| Some(format!(", p{} = {:.3} ms", q * 100.0, sorted.tail_ms(q)?)));
        notes.push(format!(
            "{class:?} commands: n = {}, p50 = {:.3} ms{}",
            sorted.n(),
            sorted.quantile_ms(0.5).unwrap_or(0.0),
            tail.unwrap_or_default()
        ));
    }
    for (name, class, q) in [
        ("wire.map_ms_p90", Class::Map, 0.9),
        ("wire.nav_ms_p99", Class::Nav, 0.99),
    ] {
        let sorted = phase.recorder.commands(class);
        values.extend(sorted.tail_ms(q).map(|ms| (name, ms)));
        counts.insert(name, sorted.n());
    }

    if let (Some(before), Some(after)) = (before, after) {
        trace_phase(
            &harness,
            opts,
            &phase,
            (&before, &after),
            &mut values,
            &mut tally,
            &mut notes,
        );
    }

    // The timed server goes; the restart runs on one of its own.
    let Harness {
        table,
        engine,
        net,
        journal_dir,
    } = harness;
    if let Some(stats) = engine.journal_stats() {
        values.insert("server.journal_fsyncs", stats.fsyncs as f64);
        values.insert(
            "server.journal_bytes_per_cmd",
            stats.bytes as f64 / stats.records.max(1) as f64,
        );
    }
    net.shutdown();
    drop(net);
    drop(engine);
    if let Some(dir) = journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    recover_phase(&table, opts, &mut tally, &mut values, &mut notes);
    counts.insert("recover_s", RECOVER_REPEATS);

    let budget = Duration::from_secs_f64(opts.seconds * 0.1);
    let checked = reference_check(&phase, &table, budget, &mut tally);
    notes.push(format!(
        "checked: {checked} sessions digest-equal an in-process Explorer; every pooled hit compared with its first miss"
    ));
    values.insert("peak_rss_mb", peak_rss_mb());

    let metric = |name: &'static str, unit: &'static str| {
        values.get(name).map(|&value| Metric {
            name,
            unit,
            value,
            n: counts.get(name).copied().unwrap_or(0),
        })
    };
    let mut metrics = Vec::new();
    let mut also = Vec::new();
    if opts.trace {
        // A layer metric the workload does not exercise reads 0.
        metrics.extend(PER_LAYER.iter().map(|&(name, unit)| {
            metric(name, unit).unwrap_or(Metric {
                name,
                unit,
                value: 0.0,
                n: 0,
            })
        }));
    } else {
        // An end-to-end metric must exist on every workload.
        for &(name, unit, _) in &END_TO_END {
            match metric(name, unit) {
                Some(metric) => metrics.push(metric),
                None => {
                    tally.attempted += 1;
                    tally.fail(|| format!("no sample for {name}"));
                }
            }
        }
        // The layer numbers an untraced run measures anyway.
        also.extend(
            PER_LAYER
                .iter()
                .filter_map(|&(name, unit)| metric(name, unit)),
        );
    }
    notes.push(format!(
        "timed phase: {:.2} s wall, {} commands, {} sessions",
        wall,
        phase.tally.commands,
        phase.recorder.commands(Class::Session).n()
    ));
    notes.extend(tally.reasons.iter().map(|why| format!("FAILED: {why}")));

    Outcome {
        correct: tally.failed == 0 && checked > 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
        also,
        notes,
    }
}

/// The traced half: span summary, counter deltas over the timed phase,
/// the staged replay, the probes — and the trace file.
fn trace_phase(
    harness: &Harness,
    opts: &Options,
    phase: &Phase,
    (before, after): (&Counters, &Counters),
    values: &mut BTreeMap<&'static str, f64>,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) {
    let workload = opts.workload;
    let summary = trace::summarize(&phase.spans, workload.cache);
    values.insert("trace.sessions", summary.sessions as f64);
    values.insert("trace.scan_share", summary.scan_share);
    values.insert(
        "trace.analysis_share",
        summary.open_share + summary.map_share,
    );
    values.insert("wire.write_us_p50", summary.write_us_p50);
    values.insert("wire.wait_us_p50", summary.wait_us_p50);
    values.insert("wire.parse_us_p50", summary.parse_us_p50);
    if let Some(untraced) = phase.untraced.commands(Class::Session).quantile(0.5) {
        let overhead = summary.session_s_p50 * 1e9 / untraced - 1.0;
        values.insert("trace.overhead_share", overhead);
        notes.push(format!(
            "tracing overhead on session_s_p50: {:+.2} % (traced {:.4} s vs untraced {:.4} s, alternating sessions)",
            overhead * 100.0,
            summary.session_s_p50,
            untraced / 1e9
        ));
    }

    // Counts over the timed phase, from the server's own counters.
    if let (Some(before), Some(after)) = (before.cache, after.cache) {
        let hits = (after.hits - before.hits) as f64;
        let misses = (after.misses - before.misses) as f64;
        values.insert(
            "server.cache_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        values.insert("server.cache_map_bytes", after.map_bytes as f64);
    }
    {
        let delta = |path: &[&str]| {
            let read = |mut v: &Value| {
                for key in path {
                    v = &v[*key];
                }
                v.as_f64().unwrap_or(0.0)
            };
            read(&after.stats) - read(&before.stats)
        };
        values.insert("net.requests", delta(&["requests"]));
        values.insert("net.rejected", delta(&["rejected"]));
        values.insert(
            "server.levels_streamed",
            delta(&["progressive", "levels_streamed"]),
        );
        values.insert(
            "server.rungs_cancelled",
            delta(&["progressive", "rungs_cancelled"]),
        );
    }
    values.insert("net.bytes_out", phase.tally.bytes_in as f64);
    values.insert(
        "core.response_bytes",
        phase.tally.bytes_in as f64 / phase.tally.attempted.max(1) as f64,
    );
    let ladders: Vec<f64> = phase
        .spans
        .iter()
        .filter(|s| s.name == "map_progressive")
        .map(|s| s.lines as f64)
        .collect();
    values.insert("core.ladder_rungs", median(&ladders).unwrap_or(0.0));

    // The staged replay, on the workload's own map commands.
    let budget = Duration::from_secs_f64(opts.seconds * 0.25);
    let rows = layers::staged_replay(&phase.logs, &harness.table, budget);
    let medians = layers::stage_medians(&rows);
    values.insert("trace.staged_commands", rows.len() as f64);
    values.extend(medians.iter().map(|(&name, &value)| (name, value)));
    let wire_depth = wire_depth_us(harness, workload.table.name());
    // The request bodies the sampled sessions sent, for the decode probes.
    let bodies: Vec<String> = phase
        .logs
        .iter()
        .flat_map(|log| &log.sent)
        .filter_map(|(sent, _)| match sent {
            Sent::Command(command) => Some(text(&command.to_json())),
            Sent::Ladder => None,
        })
        .collect();
    let probes = layers::probes(
        &harness.engine,
        &harness.table,
        workload.table.name(),
        &bodies,
        wire_depth,
        harness.journal_dir.as_deref(),
    );
    values.extend(probes.iter().map(|(&name, &value)| (name, value)));

    // stats + cluster + tree self time: all of a computed open (the MI
    // matrix and the column PAM), and of a computed map the staged share
    // of select_k + CART fit + routing.
    let stage = |name: &str| medians.get(name).copied().unwrap_or(0.0);
    // The spans only mean something if they add up to the real thing.
    let staged_equal = !rows.is_empty() && stage("trace.staged_digest_ok") == 1.0;
    tally.attempted += rows.len().max(1) as u64;
    if !staged_equal {
        tally.fail(|| "the staged replay did not rebuild build_map's maps".to_owned());
    }
    let kernel_of_map = if stage("core.build_map_ms") > 0.0 {
        (stage("cluster.select_k_ms") + stage("tree.fit_ms") + stage("tree.route_ms"))
            / stage("core.build_map_ms")
    } else {
        0.0
    };
    values.insert(
        "trace.kernel_share",
        summary.open_share + summary.map_share * kernel_of_map,
    );
    notes.push(format!(
        "trace: {} sessions, {} spans; staged replay of {} map commands, coverage {:.3}, digests {}",
        summary.sessions,
        phase.spans.len(),
        rows.len(),
        stage("core.stage_coverage"),
        if staged_equal { "equal" } else { "DIFFER" }
    ));

    let file = opts.out_dir.join(format!("trace-{}.json", workload.name));
    let document = json!({
        "workload": workload.name,
        "seed": opts.seed,
        "spans": trace::spans_json(&phase.spans),
        "staged": layers::stages_json(&rows),
    });
    match std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&file, text(&document)))
    {
        Ok(()) => notes.push(format!("trace written to {}", file.display())),
        Err(error) => notes.push(format!("trace not written: {error}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;

    /// A refused open is one failed attempt, counted by the caller alone,
    /// and nothing of it leaks into the next session's class means.
    #[test]
    fn a_refused_open_is_counted_once_and_leaves_no_sums() {
        let workload = find("tall_shared").expect("workload exists");
        let opts = Options {
            workload,
            seed: 5,
            seconds: 0.1,
            trace: false,
            size: Size::Smoke,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/refused"),
        };
        let harness = setup(&opts);
        let catalog = Catalog::of(&harness.table);
        let mut driver = Driver::connect(harness.net.local_addr(), &catalog, None);
        let plan = workload.plan(opts.seed, 0);
        assert!(driver.run(&plan, "no_such_table", false, false).is_err());
        assert_eq!((driver.tally.attempted, driver.tally.failed), (1, 0));

        driver
            .run(&plan, workload.table.name(), false, false)
            .expect("the connection survives a refused open");
        assert_eq!(driver.tally.failed, 0);
        let opens = driver.recorder.commands(Class::Open);
        let means = driver.recorder.sessions(Class::Open);
        assert_eq!((opens.n(), means.n()), (2, 1));
        // The one session's mean is its own open, not the average of both.
        let mean = means.quantile(0.5);
        assert!(mean == opens.quantile(0.0) || mean == opens.quantile(1.0));
        harness.net.shutdown();
    }
}
