//! Loopback acceptance tests for the HTTP/NDJSON transport: raw
//! `TcpStream` clients drive a real listening socket and assert that the
//! wire path is *observationally identical* to the in-process
//! `AsyncSessionServer` path — same per-session FIFO, same response
//! digests bit for bit, at engine pool sizes 1 and 8, cache on and off —
//! plus the failure-mode contract: 413 for oversized bodies, stalled and
//! half-closed sockets freeing their worker, and `DELETE` racing
//! in-flight commands resolving every response line.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use blaeu::prelude::*;
use serde_json::Value;

fn shared_table() -> Arc<Table> {
    Arc::new(
        hollywood(&HollywoodConfig {
            nrows: 500,
            ..HollywoodConfig::default()
        })
        .unwrap()
        .0,
    )
}

fn serve(
    table: &Arc<Table>,
    threads: usize,
    cache_capacity: usize,
    net_config: NetConfig,
) -> NetServer {
    let engine = Arc::new(AsyncSessionServer::new(ServerConfig {
        threads,
        queue_capacity: 64,
        cache_capacity,
        ..ServerConfig::default()
    }));
    let net = NetServer::bind("127.0.0.1:0", engine, net_config).expect("loopback bind");
    net.register_table("hollywood", Arc::clone(table));
    net
}

/// A deliberately dumb HTTP client: raw socket, blocking reads, explicit
/// framing — if this can speak to the server, anything can.
struct WireClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

struct WireResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl WireResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Value {
        serde_json::from_str(&self.body)
            .unwrap_or_else(|e| panic!("unparseable body {:?}: {e}", self.body))
    }

    /// NDJSON lines of a streamed body.
    fn lines(&self) -> Vec<Value> {
        self.body
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
            .collect()
    }
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

    fn send(&mut self, method: &str, path: &str, body: Option<&str>) {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: blaeu\r\n");
        if let Some(body) = body {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes()).unwrap();
        if let Some(body) = body {
            self.writer.write_all(body.as_bytes()).unwrap();
        }
        self.writer.flush().unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response line");
        line.trim_end().to_owned()
    }

    fn read_response(&mut self) -> WireResponse {
        let status_line = self.read_line();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
            .parse()
            .unwrap();
        let mut headers = Vec::new();
        loop {
            let line = self.read_line();
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').expect("header");
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let header = |name: &str| {
            headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        let body = if header("transfer-encoding").as_deref() == Some("chunked") {
            let mut out = Vec::new();
            loop {
                let size_line = self.read_line();
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .unwrap_or_else(|_| panic!("bad chunk size {size_line:?}"));
                let mut chunk = vec![0u8; size + 2]; // chunk + CRLF
                self.reader.read_exact(&mut chunk).unwrap();
                if size == 0 {
                    break;
                }
                out.extend_from_slice(&chunk[..size]);
            }
            String::from_utf8(out).unwrap()
        } else {
            let len: usize = header("content-length")
                .expect("framed response")
                .parse()
                .unwrap();
            let mut body = vec![0u8; len];
            self.reader.read_exact(&mut body).unwrap();
            String::from_utf8(body).unwrap()
        };
        WireResponse {
            status,
            headers,
            body,
        }
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> WireResponse {
        self.send(method, path, body);
        self.read_response()
    }
}

/// The exploration script of `tests/async_server.rs`, as wire bodies.
fn script() -> Vec<Command> {
    vec![
        Command::Themes,
        Command::SelectTheme(0),
        Command::Highlight("film".into()),
        Command::Zoom(0),
        Command::Map,
        Command::Sql,
        Command::RegionDetail {
            region: 0,
            sample_rows: 5,
        },
        Command::Rollback,
        Command::Depth,
    ]
}

/// Runs the script in-process and returns the digest stream.
fn in_process_digests(srv: &AsyncSessionServer, table: &Arc<Table>) -> Vec<u64> {
    let id = srv
        .open_session(Arc::clone(table), ExplorerConfig::default())
        .unwrap();
    let handles: Vec<_> = script()
        .into_iter()
        .map(|cmd| srv.submit(id, cmd).unwrap())
        .collect();
    let digests = handles
        .into_iter()
        .map(|h| h.join().unwrap().digest())
        .collect();
    srv.close(id).unwrap();
    digests
}

fn wire_digest(envelope: &Value) -> u64 {
    let hex = envelope["digest"]
        .as_str()
        .unwrap_or_else(|| panic!("no digest in {envelope:?}"));
    u64::from_str_radix(hex, 16).unwrap()
}

/// The acceptance criterion: the wire path's digest stream is
/// bit-identical to the in-process path for the same command sequence,
/// whatever the pool size, cache on or off.
#[test]
fn wire_digests_match_in_process_across_pools_and_cache_modes() {
    let table = shared_table();
    for threads in [1usize, 8] {
        for cache_capacity in [0usize, 64] {
            let reference = AsyncSessionServer::new(ServerConfig {
                threads,
                queue_capacity: 64,
                cache_capacity,
                ..ServerConfig::default()
            });
            let expected = in_process_digests(&reference, &table);

            let net = serve(&table, threads, cache_capacity, NetConfig::default());
            let mut client = WireClient::connect(net.local_addr());
            let opened = client.request("POST", "/sessions", Some(r#"{"table": "hollywood"}"#));
            assert_eq!(opened.status, 201, "{}", opened.body);
            let session = opened.json()["session"].as_u64().unwrap();

            let got: Vec<u64> = script()
                .iter()
                .map(|cmd| {
                    let body = serde_json::to_string(&cmd.to_json()).unwrap();
                    let response = client.request(
                        "POST",
                        &format!("/sessions/{session}/commands"),
                        Some(&body),
                    );
                    assert_eq!(response.status, 200, "{body} -> {}", response.body);
                    wire_digest(&response.json())
                })
                .collect();
            assert_eq!(
                got, expected,
                "wire digests diverged at threads={threads} cache={cache_capacity}"
            );

            let closed = client.request("DELETE", &format!("/sessions/{session}"), None);
            assert_eq!(closed.status, 200);
            net.shutdown();
        }
    }
}

/// The NDJSON batch endpoint: per-session FIFO on the wire, one streamed
/// line per command, digests identical to the single-command path.
#[test]
fn batch_ndjson_streams_fifo_responses() {
    let table = shared_table();
    let net = serve(&table, 4, 0, NetConfig::default());
    let mut client = WireClient::connect(net.local_addr());
    let opened = client.request("POST", "/sessions", Some(r#"{"table": "hollywood"}"#));
    let session = opened.json()["session"].as_u64().unwrap();

    let batch: String = script()
        .iter()
        .map(|cmd| {
            let mut line = serde_json::to_string(&cmd.to_json()).unwrap();
            line.push('\n');
            line
        })
        .collect();
    let streamed = client.request(
        "POST",
        &format!("/sessions/{session}/commands/batch"),
        Some(&batch),
    );
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    let lines = streamed.lines();
    assert_eq!(lines.len(), script().len(), "one line per command");
    // The pipeline only makes sense in submission order: themes, then a
    // map, …, then Rollback landing back at depth 1.
    let kinds: Vec<&str> = lines
        .iter()
        .map(|l| l["response"].as_str().expect("success line"))
        .collect();
    assert_eq!(
        kinds,
        [
            "themes",
            "map",
            "highlight",
            "map",
            "map",
            "sql",
            "region_detail",
            "depth",
            "depth"
        ]
    );
    // The trailing Depth query agrees with the Rollback's own answer —
    // both ran, in order, on the same history.
    assert_eq!(lines[7]["depth"].as_u64(), lines[8]["depth"].as_u64());

    // Digest parity with the single-command wire path on a fresh session.
    let opened = client.request("POST", "/sessions", Some(r#"{"table": "hollywood"}"#));
    let single = opened.json()["session"].as_u64().unwrap();
    let singles: Vec<u64> = script()
        .iter()
        .map(|cmd| {
            let body = serde_json::to_string(&cmd.to_json()).unwrap();
            let r = client.request("POST", &format!("/sessions/{single}/commands"), Some(&body));
            wire_digest(&r.json())
        })
        .collect();
    let batched: Vec<u64> = lines.iter().map(wire_digest).collect();
    assert_eq!(batched, singles);
    net.shutdown();
}

/// A `map_progressive` line on the batch channel streams its coarse
/// level-0 answer first and then one `"kind":"delta"` line per
/// refinement rung, ending on `"final":true` whose `map_digest` is
/// bit-identical to a plain `map` of the same view — and `/stats` counts
/// the streamed levels.
#[test]
fn batch_streams_progressive_deltas_until_exact() {
    let table = shared_table();
    let net = serve(&table, 4, 64, NetConfig::default());
    let mut client = WireClient::connect(net.local_addr());

    // Reference: the exact map's wire digest on its own session.
    let opened = client.request("POST", "/sessions", Some(r#"{"table": "hollywood"}"#));
    let reference = opened.json()["session"].as_u64().unwrap();
    client.request(
        "POST",
        &format!("/sessions/{reference}/commands"),
        Some(r#"{"cmd": "select_theme", "theme": 0}"#),
    );
    let exact = client.request(
        "POST",
        &format!("/sessions/{reference}/commands"),
        Some(r#"{"cmd": "map"}"#),
    );
    assert_eq!(exact.status, 200, "{}", exact.body);
    let exact_digest = exact.json()["digest"].as_str().unwrap().to_owned();

    // Progressive: one batch line answers as a ladder of delta lines.
    let opened = client.request("POST", "/sessions", Some(r#"{"table": "hollywood"}"#));
    let session = opened.json()["session"].as_u64().unwrap();
    let batch = concat!(
        "{\"cmd\": \"select_theme\", \"theme\": 0}\n",
        "{\"cmd\": \"map_progressive\"}\n",
    );
    let streamed = client.request(
        "POST",
        &format!("/sessions/{session}/commands/batch"),
        Some(batch),
    );
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    let lines = streamed.lines();
    let deltas: Vec<&Value> = lines
        .iter()
        .filter(|l| l["kind"].as_str() == Some("delta"))
        .collect();
    assert!(deltas.len() >= 2, "expected a ladder, got {lines:?}");
    assert_eq!(lines.len(), 1 + deltas.len(), "select_theme + the ladder");
    for (k, delta) in deltas.iter().enumerate() {
        assert_eq!(delta["level"].as_u64(), Some(k as u64), "{delta:?}");
        assert_eq!(
            delta["final"].as_bool(),
            Some(k == deltas.len() - 1),
            "{delta:?}"
        );
        assert!(delta["changed"].is_array(), "{delta:?}");
    }
    // The ladder's sample sizes grow strictly — coarse first.
    let sizes: Vec<u64> = deltas
        .iter()
        .map(|d| d["sample_size"].as_u64().unwrap())
        .collect();
    assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
    // The final rung IS the exact map, bit for bit.
    assert_eq!(
        deltas.last().unwrap()["map_digest"].as_str(),
        Some(exact_digest.as_str()),
        "final refinement must match a plain map"
    );

    let stats = client.request("GET", "/stats", None).json();
    let progressive = &stats["progressive"];
    assert!(
        progressive["levels_streamed"].as_u64().unwrap() >= deltas.len() as u64 - 1,
        "{progressive:?}"
    );
    assert!(
        progressive["latency"]["count"].as_u64().unwrap() >= deltas.len() as u64,
        "{progressive:?}"
    );
    net.shutdown();
}

/// Malformed bodies are 400 with the parse error, unknown sessions 404,
/// unknown tables 404, wrong methods 405 — and the connection survives
/// every one of them (keep-alive).
#[test]
fn error_statuses_are_mapped_and_keep_alive_survives() {
    let table = shared_table();
    let net = serve(&table, 2, 0, NetConfig::default());
    let mut client = WireClient::connect(net.local_addr());

    let health = client.request("GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(health.json()["status"].as_str(), Some("ok"));

    let bad_json = client.request("POST", "/sessions/0/commands", Some("{\"cmd\": "));
    assert_eq!(bad_json.status, 400);
    let bad_json = bad_json.json();
    assert_eq!(bad_json["error"]["code"].as_str(), Some("bad_request"));
    assert!(
        bad_json["error"]["message"]
            .as_str()
            .unwrap()
            .contains("line 1"),
        "parse position missing: {bad_json:?}"
    );

    let bad_shape = client.request("POST", "/sessions/0/commands", Some(r#"{"cmd": "warp"}"#));
    assert_eq!(bad_shape.status, 400);

    let no_session = client.request(
        "POST",
        "/sessions/999/commands",
        Some(r#"{"cmd": "depth"}"#),
    );
    assert_eq!(no_session.status, 404);
    assert_eq!(
        no_session.json()["error"]["code"].as_str(),
        Some("unknown_session")
    );

    let no_table = client.request("POST", "/sessions", Some(r#"{"table": "nope"}"#));
    assert_eq!(no_table.status, 404);
    let no_table = no_table.json();
    assert_eq!(no_table["error"]["code"].as_str(), Some("unknown_table"));
    assert_eq!(
        no_table["error"]["detail"]["tables"][0].as_str(),
        Some("hollywood"),
        "detail lists the registered tables"
    );

    let bad_method = client.request("DELETE", "/healthz", None);
    assert_eq!(bad_method.status, 405);
    assert_eq!(
        bad_method.json()["error"]["code"].as_str(),
        Some("method_not_allowed")
    );

    let no_route = client.request("GET", "/maps/7", None);
    assert_eq!(no_route.status, 404);
    assert_eq!(
        no_route.json()["error"]["code"].as_str(),
        Some("unknown_route")
    );

    // Domain errors from execution are 422, and the session survives.
    let opened = client.request("POST", "/sessions", Some(r#"{"table": "hollywood"}"#));
    let session = opened.json()["session"].as_u64().unwrap();
    let zoom = client.request(
        "POST",
        &format!("/sessions/{session}/commands"),
        Some(r#"{"cmd": "zoom", "region": 0}"#),
    );
    assert_eq!(zoom.status, 422, "{}", zoom.body);
    assert_eq!(zoom.json()["error"]["code"].as_str(), Some("no_active_map"));
    let too_many_examples = client.request(
        "POST",
        &format!("/sessions/{session}/commands"),
        Some(&format!(
            r#"{{"cmd": "region_detail", "region": 0, "sample_rows": {}}}"#,
            Explorer::MAX_EXAMPLE_ROWS + 1
        )),
    );
    assert_eq!(too_many_examples.status, 422, "{}", too_many_examples.body);
    assert_eq!(
        too_many_examples.json()["error"]["code"].as_str(),
        Some("invalid")
    );
    let depth = client.request(
        "POST",
        &format!("/sessions/{session}/commands"),
        Some(r#"{"cmd": "depth"}"#),
    );
    assert_eq!(depth.status, 200);

    // /stats reflects the traffic this test generated — aggregates only,
    // per-session detail lives on GET /sessions now.
    let stats = client.request("GET", "/stats", None);
    assert_eq!(stats.status, 200);
    let stats = stats.json();
    assert!(stats["requests"].as_u64().unwrap() >= 10);
    assert!(stats["rejected"].as_u64().unwrap() >= 5);
    let keys: Vec<&str> = stats
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "sessions",
            "queue_capacity",
            "cache",
            "journal",
            "requests",
            "rejected",
            "conn_workers",
            "engine_workers",
            "progressive",
        ],
        "aggregates only; per-session detail is on /sessions"
    );
    assert!(stats["sessions"].as_u64().is_some(), "a count, not a list");
    assert!(stats["journal"].is_null(), "no journal configured");

    let listed = client.request("GET", "/sessions", None);
    assert_eq!(listed.status, 200);
    let listed = listed.json();
    let sessions = listed["sessions"].as_array().unwrap();
    assert_eq!(sessions.len(), 1, "{listed:?}");
    assert_eq!(sessions[0]["session"].as_u64(), Some(session));
    assert_eq!(sessions[0]["pending"].as_u64(), Some(0));
    assert!(sessions[0]["journal_seq"].is_null(), "journal off");
    assert!(sessions[0]["idle_ms"].as_u64().is_some());

    // A journal-less engine answers history with a typed 404.
    let history = client.request("GET", &format!("/sessions/{session}/history"), None);
    assert_eq!(history.status, 404);
    assert_eq!(history.json()["error"]["code"].as_str(), Some("no_journal"));
    net.shutdown();
}

/// A histogram sketch asking for more bins than the engine allows is a
/// typed 422 `invalid`, not an allocation that aborts the process: the
/// server keeps answering, on the same connection and on a new one.
#[test]
fn oversized_histogram_sketch_is_422_and_the_server_survives() {
    let table = shared_table();
    let net = serve(&table, 2, 0, NetConfig::default());
    let mut client = WireClient::connect(net.local_addr());
    let opened = client.request("POST", "/sessions", Some(r#"{"table": "hollywood"}"#));
    let session = opened.json()["session"].as_u64().unwrap();
    let commands = format!("/sessions/{session}/commands");
    for bins in [SketchOp::MAX_HISTOGRAM_BINS + 1, 1 << 40] {
        let body = format!(
            r#"{{"cmd": "sketch", "op": {{"op": "histogram", "column": "budget_musd", "bins": {bins}}}}}"#
        );
        let refused = client.request("POST", &commands, Some(&body));
        assert_eq!(refused.status, 422, "{}", refused.body);
        assert_eq!(refused.json()["error"]["code"].as_str(), Some("invalid"));
    }
    let body = format!(
        r#"{{"cmd": "sketch", "op": {{"op": "histogram", "column": "budget_musd", "bins": {}}}}}"#,
        SketchOp::MAX_HISTOGRAM_BINS
    );
    let at_limit = client.request("POST", &commands, Some(&body));
    assert_eq!(at_limit.status, 200, "{}", at_limit.body);
    let mut next = WireClient::connect(net.local_addr());
    assert_eq!(next.request("GET", "/healthz", None).status, 200);
    net.shutdown();
}

/// Oversized bodies answer 413 before a single body byte is buffered,
/// and the server stays healthy for the next connection.
#[test]
fn oversized_bodies_rejected_with_413() {
    let table = shared_table();
    let net = serve(
        &table,
        1,
        0,
        NetConfig {
            max_body_bytes: 1024,
            ..NetConfig::default()
        },
    );
    let mut client = WireClient::connect(net.local_addr());
    // Announce far more than the limit — but never send it: the server
    // must reject on the announcement alone (bounded read).
    client
        .writer
        .write_all(
            b"POST /sessions/1/commands HTTP/1.1\r\nHost: x\r\nContent-Length: 10000000\r\n\r\n",
        )
        .unwrap();
    client.writer.flush().unwrap();
    let response = client.read_response();
    assert_eq!(response.status, 413);
    let body = response.json();
    assert_eq!(body["error"]["code"].as_str(), Some("payload_too_large"));
    assert_eq!(body["error"]["detail"]["limit"].as_u64(), Some(1024));
    assert_eq!(
        body["error"]["detail"]["announced"].as_u64(),
        Some(10_000_000)
    );

    // Fresh connection: the server is still serving.
    let mut next = WireClient::connect(net.local_addr());
    assert_eq!(next.request("GET", "/healthz", None).status, 200);
    net.shutdown();
}

/// A stalled half-open peer and a mid-body disconnect both release their
/// connection worker: with a SINGLE worker, a well-behaved client must
/// still get served after the bad ones.
#[test]
fn stalled_and_half_closed_peers_cannot_wedge_the_worker() {
    let table = shared_table();
    let net = serve(
        &table,
        1,
        0,
        NetConfig {
            conn_threads: 1,
            read_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        },
    );

    // Peer 1: sends half a request line, then stalls silently.
    let mut staller = TcpStream::connect(net.local_addr()).unwrap();
    staller.write_all(b"POST /sessions HTT").unwrap();
    staller.flush().unwrap();

    // Peer 2: announces a body, sends a fragment, then half-closes.
    let mut torn = TcpStream::connect(net.local_addr()).unwrap();
    torn.write_all(b"POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nfrag")
        .unwrap();
    torn.flush().unwrap();
    torn.shutdown(std::net::Shutdown::Write).unwrap();

    // The single worker must shake both off (read timeout / EOF) and
    // serve a well-behaved client promptly.
    let mut client = WireClient::connect(net.local_addr());
    let health = client.request("GET", "/healthz", None);
    assert_eq!(health.status, 200, "worker wedged by bad peers");
    drop(staller);
    net.shutdown();
}

/// QueueFull over the wire: 429 with the observed `pending`, the
/// *clamped* capacity, and a Retry-After hint.
#[test]
fn queue_full_maps_to_429_with_occupancy() {
    let table = shared_table();
    let engine = Arc::new(AsyncSessionServer::new(ServerConfig {
        threads: 1,
        queue_capacity: 0, // clamped to 1 — the error must report 1
        cache_capacity: 0,
        ..ServerConfig::default()
    }));
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&engine), NetConfig::default()).unwrap();
    net.register_table("hollywood", Arc::clone(&table));
    let mut client = WireClient::connect(net.local_addr());
    let opened = client.request("POST", "/sessions", Some(r#"{"table": "hollywood"}"#));
    let session = opened.json()["session"].as_u64().unwrap();

    // Park the engine's only worker so submitted commands stay queued.
    let gate = Arc::new(Barrier::new(2));
    let parked = {
        let gate = Arc::clone(&gate);
        engine.pool().submit(move || {
            gate.wait();
        })
    };
    // First command occupies the (clamped) 1-slot queue; joined later.
    let pending = engine.submit(session, Command::Depth).unwrap();
    let full = client.request(
        "POST",
        &format!("/sessions/{session}/commands"),
        Some(r#"{"cmd": "depth"}"#),
    );
    assert_eq!(full.status, 429, "{}", full.body);
    assert_eq!(full.header("retry-after"), Some("1"));
    let body = full.json();
    assert_eq!(body["error"]["code"].as_str(), Some("queue_full"));
    assert_eq!(body["error"]["detail"]["pending"].as_u64(), Some(1));
    assert_eq!(
        body["error"]["detail"]["capacity"].as_u64(),
        Some(1),
        "clamped capacity"
    );

    gate.wait();
    parked.join();
    assert!(pending.join().is_ok());
    net.shutdown();
}

/// DELETE racing an in-flight batch: every accepted command still gets a
/// response line — Ok for winners, `unknown_session` for the rest; the
/// stream never hangs and the server stays healthy.
#[test]
fn delete_racing_inflight_batch_resolves_every_line() {
    let table = shared_table();
    let net = serve(&table, 2, 0, NetConfig::default());
    let addr = net.local_addr();
    let mut client = WireClient::connect(addr);
    let opened = client.request("POST", "/sessions", Some(r#"{"table": "hollywood"}"#));
    let session = opened.json()["session"].as_u64().unwrap();

    // A batch mixing slow maps and fast reads…
    let batch = concat!(
        "{\"cmd\": \"select_theme\", \"theme\": 0}\n",
        "{\"cmd\": \"map\"}\n",
        "{\"cmd\": \"depth\"}\n",
        "{\"cmd\": \"map\"}\n",
        "{\"cmd\": \"sql\"}\n",
    );
    client.send(
        "POST",
        &format!("/sessions/{session}/commands/batch"),
        Some(batch),
    );
    // …deleted from a second connection while the batch is in flight.
    #[allow(clippy::disallowed_methods)] // test harness thread, not engine parallelism
    let deleter = std::thread::spawn(move || {
        let mut other = WireClient::connect(addr);
        other.request("DELETE", &format!("/sessions/{session}"), None)
    });

    let streamed = client.read_response();
    let deleted = deleter.join().unwrap();
    assert!(
        deleted.status == 200 || deleted.status == 404,
        "unexpected delete status {}",
        deleted.status
    );
    // Depending on when the DELETE lands: the whole batch was rejected
    // up front (plain 404), or a stream of one line per *accepted*
    // command — each either a success envelope or an unknown_session
    // rejection, possibly capped by one "submitted": false line when the
    // close interrupted submission. The invariant under test: the stream
    // terminates and nothing is left unanswered.
    if streamed.status == 404 {
        assert_eq!(
            streamed.json()["error"]["code"].as_str(),
            Some("unknown_session")
        );
    } else {
        assert_eq!(streamed.status, 200);
        let lines = streamed.lines();
        assert!(!lines.is_empty() && lines.len() <= 5, "{lines:?}");
        for line in &lines {
            let ok = line.get("response").is_some_and(|r| !r.is_null());
            let closed = line["error"]["code"].as_str() == Some("unknown_session");
            assert!(ok || closed, "unexpected line {line:?}");
        }
        let interrupted = lines
            .last()
            .map(|l| l["error"]["detail"]["submitted"].as_bool())
            == Some(Some(false));
        if !interrupted {
            assert_eq!(lines.len(), 5, "all submitted, all answered: {lines:?}");
        }
    }
    // The server survived the race.
    let mut after = WireClient::connect(addr);
    assert_eq!(after.request("GET", "/healthz", None).status, 200);
    net.shutdown();
}
