//! Restart recovery over the wire: a journaled server is driven through
//! real HTTP sessions, killed without warning (drop, no close), and a
//! fresh server over the same journal directory must come back with the
//! same sessions, the same state (digest-checked continuation), a warm
//! analysis cache, a streamable `/sessions/:id/history`, and journal
//! counters in `/stats`. Cleanly closed sessions must NOT resurrect.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use blaeu::prelude::*;
use serde_json::Value;

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "blaeu-journal-recovery-{}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn shared_table() -> Arc<Table> {
    Arc::new(
        hollywood(&HollywoodConfig {
            nrows: 400,
            ..HollywoodConfig::default()
        })
        .unwrap()
        .0,
    )
}

fn journaled_engine(dir: &Path, cache: usize) -> Arc<AsyncSessionServer> {
    Arc::new(
        AsyncSessionServer::try_new(ServerConfig {
            threads: 4,
            queue_capacity: 64,
            cache_capacity: cache,
            journal_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        })
        .expect("journal dir is writable"),
    )
}

/// Minimal keep-alive HTTP client (same shape as tests/net_transport.rs).
struct WireClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl WireClient {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("loopback connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        WireClient {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: blaeu\r\n");
        if let Some(body) = body {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes()).unwrap();
        if let Some(body) = body {
            self.writer.write_all(body.as_bytes()).unwrap();
        }
        self.writer.flush().unwrap();

        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).expect("status");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut content_length: Option<usize> = None;
        let mut chunked = false;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).unwrap();
            if header.trim().is_empty() {
                break;
            }
            let lower = header.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                content_length = Some(v.trim().parse().unwrap());
            }
            if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
                chunked = true;
            }
        }
        let body = if chunked {
            let mut out = Vec::new();
            loop {
                let mut size_line = String::new();
                self.reader.read_line(&mut size_line).unwrap();
                let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
                let mut chunk = vec![0u8; size + 2];
                self.reader.read_exact(&mut chunk).unwrap();
                if size == 0 {
                    break;
                }
                out.extend_from_slice(&chunk[..size]);
            }
            String::from_utf8(out).unwrap()
        } else {
            let mut body = vec![0u8; content_length.expect("framed response")];
            self.reader.read_exact(&mut body).unwrap();
            String::from_utf8(body).unwrap()
        };
        (status, body)
    }

    fn json(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, Value) {
        let (status, body) = self.request(method, path, body);
        let value =
            serde_json::from_str(&body).unwrap_or_else(|e| panic!("bad body {body:?}: {e}"));
        (status, value)
    }
}

/// The wire exploration that gets recorded: a theme map (an analysis
/// the cache can warm from), a highlight, reads, an undo.
const SCRIPT: &[&str] = &[
    r#"{"cmd": "themes"}"#,
    r#"{"cmd": "select_theme", "theme": 0}"#,
    r#"{"cmd": "highlight", "column": "film"}"#,
    r#"{"cmd": "depth"}"#,
    r#"{"cmd": "rollback"}"#,
    r#"{"cmd": "select_theme", "theme": 1}"#,
];

#[test]
fn killed_server_recovers_sessions_history_and_warm_cache_over_the_wire() {
    let table = shared_table();
    let dir = scratch("wire");

    // ── First life: drive two sessions over the wire, close only one.
    let engine = journaled_engine(&dir, 64);
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&engine), NetConfig::default()).unwrap();
    net.register_table("hollywood", Arc::clone(&table));
    let mut client = WireClient::connect(net.local_addr());

    let (status, opened) = client.json("POST", "/sessions", Some(r#"{"table": "hollywood"}"#));
    assert_eq!(status, 201, "{opened:?}");
    let survivor = opened["session"].as_u64().unwrap();
    let mut recorded_digests = Vec::new();
    for body in SCRIPT {
        let (status, response) = client.json(
            "POST",
            &format!("/sessions/{survivor}/commands"),
            Some(body),
        );
        assert_eq!(status, 200, "{body} -> {response:?}");
        recorded_digests.push(response["digest"].as_str().unwrap().to_owned());
    }

    // A second session runs one command and closes cleanly — it must
    // stay dead after recovery.
    let (_, opened) = client.json("POST", "/sessions", Some(r#"{"table": "hollywood"}"#));
    let closed = opened["session"].as_u64().unwrap();
    let (status, _) = client.json(
        "POST",
        &format!("/sessions/{closed}/commands"),
        Some(r#"{"cmd": "depth"}"#),
    );
    assert_eq!(status, 200);
    let (status, _) = client.json("DELETE", &format!("/sessions/{closed}"), None);
    assert_eq!(status, 200);

    // Journal counters are live on /stats while the first server runs.
    let (_, stats) = client.json("GET", "/stats", None);
    assert!(stats["journal"]["records"].as_u64().unwrap() >= SCRIPT.len() as u64);
    assert_eq!(stats["journal"]["sessions"].as_u64(), Some(1), "{stats:?}");

    // ── Kill: no close, no flush beyond what the journal already wrote.
    net.shutdown();
    drop(engine);

    // ── Second life: same directory, fresh engine; recover, then serve.
    let engine = journaled_engine(&dir, 64);
    let tables = HashMap::from([("hollywood".to_owned(), Arc::clone(&table))]);
    let report = engine.recover(&tables).unwrap();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.sessions, vec![survivor], "only the unclosed session");
    assert_eq!(report.replayed, SCRIPT.len() as u64);
    // The DELETE already removed the closed session's journal file in
    // the first life, so recovery never even sees it.
    assert_eq!(report.closed, 0);

    // Replaying SelectTheme twice (0, then 1) populated the shared
    // cache; the recovered server starts warm, not cold.
    let stats = engine.cache_stats().expect("cache configured");
    assert!(stats.misses > 0, "replay populates the cache: {stats:?}");

    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&engine), NetConfig::default()).unwrap();
    net.register_table("hollywood", Arc::clone(&table));
    let mut client = WireClient::connect(net.local_addr());

    // GET /sessions shows the recovered session at its journal sequence
    // (open is seq 0, commands 1..=N).
    let (status, listed) = client.json("GET", "/sessions", None);
    assert_eq!(status, 200);
    let sessions = listed["sessions"].as_array().unwrap();
    assert_eq!(sessions.len(), 1, "{listed:?}");
    assert_eq!(sessions[0]["session"].as_u64(), Some(survivor));
    assert_eq!(
        sessions[0]["journal_seq"].as_u64(),
        Some(SCRIPT.len() as u64)
    );

    // The history endpoint streams the journal as NDJSON: one `open`
    // record plus one versioned record per command, digests verbatim.
    let (status, history) = client.request("GET", &format!("/sessions/{survivor}/history"), None);
    assert_eq!(status, 200);
    let lines: Vec<Value> = history
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 1 + SCRIPT.len());
    assert_eq!(lines[0]["kind"].as_str(), Some("open"));
    assert_eq!(lines[0]["table"].as_str(), Some("hollywood"));
    for (i, line) in lines[1..].iter().enumerate() {
        assert_eq!(line["v"].as_u64(), Some(1), "{line:?}");
        assert_eq!(line["kind"].as_str(), Some("command"));
        assert_eq!(line["seq"].as_u64(), Some(i as u64 + 1));
        assert_eq!(
            line["digest"].as_str(),
            Some(recorded_digests[i].as_str()),
            "recorded digest survives restart verbatim"
        );
    }

    // Continuation: the recovered session answers a repeated analysis
    // with the SAME digest the first life recorded — served from the
    // warmed cache (hits increase), bit-identical on the wire.
    let hits_before = engine.cache_stats().unwrap().hits;
    let (status, response) = client.json(
        "POST",
        &format!("/sessions/{survivor}/commands"),
        Some(r#"{"cmd": "rollback"}"#),
    );
    assert_eq!(status, 200, "{response:?}");
    let (status, response) = client.json(
        "POST",
        &format!("/sessions/{survivor}/commands"),
        Some(r#"{"cmd": "select_theme", "theme": 0}"#),
    );
    assert_eq!(status, 200, "{response:?}");
    assert_eq!(
        response["digest"].as_str().unwrap(),
        recorded_digests[1],
        "recovered continuation diverged from the first life"
    );
    assert!(
        engine.cache_stats().unwrap().hits > hits_before,
        "the repeated analysis must hit the recovered cache"
    );

    // The closed session stayed dead: no journal file, 404 on history.
    let (status, body) = client.json("GET", &format!("/sessions/{closed}/history"), None);
    assert_eq!(status, 404, "{body:?}");
    assert_eq!(body["error"]["code"].as_str(), Some("unknown_session"));

    net.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The in-process half of the same contract, across pool sizes: the
/// `figures`-style digest invariant extended to recovery — a recovered
/// engine's continuation digests are identical at `threads` 1 and 8,
/// journaling on, cache on and off.
#[test]
fn recovered_continuation_digests_identical_across_thread_counts() {
    let table = shared_table();
    let script = [
        Command::SelectTheme(0),
        Command::Highlight("film".into()),
        Command::Rollback,
    ];
    let trailer = [Command::SelectTheme(1), Command::Sql, Command::Depth];
    let mut per_thread_digests: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 8] {
        for cache in [0usize, 64] {
            let dir = scratch(&format!("parity-{threads}-{cache}"));
            let first = AsyncSessionServer::try_new(ServerConfig {
                threads,
                queue_capacity: 64,
                cache_capacity: cache,
                journal_dir: Some(dir.to_path_buf()),
                ..ServerConfig::default()
            })
            .unwrap();
            let id = first
                .open_named_session("hollywood", Arc::clone(&table), ExplorerConfig::default())
                .unwrap();
            for cmd in &script {
                first.request(id, cmd.clone()).unwrap();
            }
            drop(first);

            let second = AsyncSessionServer::try_new(ServerConfig {
                threads,
                queue_capacity: 64,
                cache_capacity: cache,
                journal_dir: Some(dir.to_path_buf()),
                ..ServerConfig::default()
            })
            .unwrap();
            let tables = HashMap::from([("hollywood".to_owned(), Arc::clone(&table))]);
            let report = second.recover(&tables).unwrap();
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            let digests: Vec<u64> = trailer
                .iter()
                .map(|cmd| second.request(id, cmd.clone()).unwrap().digest())
                .collect();
            per_thread_digests.push(digests);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    // All four runs (threads × cache) produced one digest stream.
    for later in &per_thread_digests[1..] {
        assert_eq!(
            later, &per_thread_digests[0],
            "continuation digests diverged across pools/cache modes"
        );
    }
}

/// Recovery takes a session id from the journal *file name*. A file
/// named for `u64::MAX` (no id is left to allocate after it) is one
/// contained `Replay` error, not a panic of the whole recovery; the
/// healthy session beside it still recovers.
#[test]
fn max_id_journal_is_contained_beside_a_healthy_session() {
    let table = shared_table();
    let dir = scratch("max-id");
    let first = journaled_engine(&dir, 0);
    let healthy = first
        .open_named_session("hollywood", Arc::clone(&table), ExplorerConfig::default())
        .unwrap();
    let recorded = first.request(healthy, Command::SelectTheme(0)).unwrap();
    drop(first);
    std::fs::copy(
        dir.join(format!("session-{healthy}.jnl")),
        dir.join(format!("session-{}.jnl", u64::MAX)),
    )
    .unwrap();

    let second = journaled_engine(&dir, 0);
    let tables = HashMap::from([("hollywood".to_owned(), Arc::clone(&table))]);
    let report = second.recover(&tables).unwrap();
    assert!(
        matches!(
            report.errors.as_slice(),
            [blaeu::server::RecoveryError::Replay {
                session: u64::MAX,
                ..
            }]
        ),
        "{:?}",
        report.errors
    );
    assert_eq!(report.sessions, vec![healthy]);
    assert_eq!(report.replayed, 1);
    assert_eq!(second.ids(), vec![healthy]);
    // The survivor continues where the first life left it.
    second.request(healthy, Command::Rollback).unwrap();
    assert_eq!(
        second
            .request(healthy, Command::SelectTheme(0))
            .unwrap()
            .digest(),
        recorded.digest()
    );
    drop(second);
    std::fs::remove_dir_all(&dir).unwrap();
}
