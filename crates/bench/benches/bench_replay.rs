//! Durability benches — what the write-ahead journal costs and what
//! replay buys back.
//!
//! `replay/journal_append` is the per-command journaling overhead on the
//! drain path (`FsyncPolicy::Never`, the default); `replay/recover` is a
//! full restart recovery of one recorded session (read + verify + replay
//! of every command). Wire-path replay is measured end to end by
//! `benchmark/` (wirebench `durable_nav`).
//!
//! Refresh the committed baseline with the same thread budget the CI
//! gate uses:
//! `CRITERION_SAVE_BASELINE=$PWD/.github/bench-baseline.json BLAEU_THREADS=8 cargo bench -p blaeu-bench --bench bench_replay`

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use blaeu_core::{Command, ExplorerConfig};
use blaeu_server::{
    AsyncSessionServer, FsyncPolicy, RecordedOutcome, ServerConfig, SessionJournal,
};
use blaeu_store::generate::{hollywood, HollywoodConfig};
use blaeu_store::Table;
use criterion::{criterion_group, criterion_main, Criterion};

fn shared_table() -> Arc<Table> {
    Arc::new(
        hollywood(&HollywoodConfig {
            nrows: 500,
            ..HollywoodConfig::default()
        })
        .expect("generator cannot fail on valid config")
        .0,
    )
}

/// A fresh scratch directory under the system temp dir.
fn scratch(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("blaeu-bench-replay-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The recorded exploration script: theme map, highlight, reads, undo.
fn script() -> Vec<Command> {
    vec![
        Command::Themes,
        Command::SelectTheme(0),
        Command::Highlight("film".into()),
        Command::Depth,
        Command::Rollback,
    ]
}

/// Records one journaled wire-shape session into `dir` (deliberately
/// left open — closing would delete the file) and returns when every
/// append has landed.
fn record_session(dir: &Path, table: &Arc<Table>) {
    let engine = AsyncSessionServer::try_new(ServerConfig {
        threads: 0,
        queue_capacity: 64,
        cache_capacity: 64,
        journal_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("journal dir is writable");
    let id = engine
        .open_named_session("hollywood", Arc::clone(table), ExplorerConfig::default())
        .expect("session opens");
    for cmd in script() {
        engine
            .submit(id, cmd)
            .expect("queue fits the script")
            .join()
            .expect("script commands succeed");
    }
}

fn bench_replay(c: &mut Criterion) {
    let table = shared_table();
    let mut group = c.benchmark_group("replay");
    group.sample_size(10);

    // Per-command journaling cost on the drain path: frame + checksum +
    // buffered write of one command record, no fsync (the default).
    let append_dir = scratch("append");
    let journal = SessionJournal::open(&append_dir, FsyncPolicy::Never).expect("journal opens");
    journal
        .open_session(1, "hollywood", 0)
        .expect("open record writes");
    let outcome = RecordedOutcome::Digest(0xdead_beef_dead_beef);
    group.bench_function("journal_append", |b| {
        b.iter(|| {
            journal.append_command(1, &Command::Depth, &outcome);
            journal.seq_of(1)
        })
    });

    // Restart recovery of one recorded session: scan, verify framing,
    // re-open over the table, re-execute all 5 commands digest-checked.
    let recover_dir = scratch("recover");
    record_session(&recover_dir, &table);
    let tables: HashMap<String, Arc<Table>> =
        HashMap::from([("hollywood".to_owned(), Arc::clone(&table))]);
    group.bench_function("recover", |b| {
        b.iter(|| {
            let engine = AsyncSessionServer::try_new(ServerConfig {
                threads: 0,
                queue_capacity: 64,
                cache_capacity: 64,
                journal_dir: Some(recover_dir.clone()),
                ..ServerConfig::default()
            })
            .expect("journal dir is writable");
            let report = engine.recover(&tables).expect("journal configured");
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            assert_eq!(report.replayed, script().len() as u64);
            report.replayed
        })
    });

    group.finish();

    for dir in [append_dir, recover_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
