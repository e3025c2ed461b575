//! # blaeu-net — the network transport tier
//!
//! The paper's Blaeu is a client/server tool: a browser navigates maps
//! while the engine runs cluster analysis server-side. This crate is the
//! thin wire front-end over [`AsyncSessionServer`] — a hand-rolled
//! HTTP/1.1 server on `std::net` (no registry dependencies exist in this
//! workspace) that exposes the already-serializable [`Command`] /
//! [`Response`] protocol:
//!
//! | Method & path                       | Meaning |
//! |-------------------------------------|---------|
//! | `POST /sessions`                    | open a session over a registered table (`{"table": "name", "seed"?: n}`) — journaled when the engine has a journal |
//! | `GET /sessions`                     | list live sessions (id, queue depth, journal sequence, idle ms) |
//! | `POST /sessions/:id/commands`       | run one command (body = `Command` wire JSON, v1 envelope or bare legacy) |
//! | `POST /sessions/:id/commands/batch` | NDJSON pipeline: one command per line in, one response line out per resolved command (streamed chunked); a `map_progressive` line answers its coarse level-0 map first and then streams one `"kind":"delta"` line per refinement rung until `"final":true` |
//! | `GET /sessions/:id/history`         | the session's journal, streamed as NDJSON (one record per line) |
//! | `DELETE /sessions/:id`              | close the session |
//! | `GET /healthz`                      | liveness + session count |
//! | `GET /stats`                        | aggregates only: cache hit/miss/bytes, journal counters, request counters, progressive counters (`levels_streamed`, `rungs_cancelled`, `coarse_hits`) with a per-level latency histogram |
//!
//! Every non-2xx response has one body shape:
//! `{"error": {"code", "message", "detail"?}}` — `code` is a stable
//! machine tag ([`BlaeuError::kind`] for engine errors), `message` is
//! human-readable, and `detail` carries code-specific structure (e.g.
//! `pending`/`capacity` for `queue_full`, `limit` for
//! `payload_too_large`).
//!
//! ## Contract with the engine
//!
//! * **Every request runs on a [`JobPool`]** — the accept loop owns one
//!   single-worker pool, connections are drained by a separate pool, and
//!   command execution stays on the engine's own pool. No raw
//!   `std::thread::spawn` anywhere (the exec-layer invariant), and the
//!   connection pool being distinct from the engine pool means a worker
//!   blocked on a slow map can never deadlock the drain jobs computing
//!   it.
//! * **Responses carry digests.** Every success envelope includes
//!   `digest` — the hex [`Response::digest`] of the in-process response —
//!   so a wire client can assert bit-identity with the in-process path
//!   (the loopback integration test does exactly this).
//! * **Errors are status-mapped, never dropped**:
//!   [`BlaeuError::QueueFull`] → `429` with the session's observed
//!   `pending`/`capacity` (and a `Retry-After` hint), malformed JSON →
//!   `400` with the parse error, [`BlaeuError::UnknownSession`] → `404`,
//!   command-execution errors (including panics converted by the server
//!   tier) → `422`. An accepted request always gets an answer because
//!   every accepted [`ResponseHandle`](blaeu_server::ResponseHandle)
//!   resolves — the transport preserves that by joining, not polling.
//! * **Reads are bounded**: header bytes, header count and body length
//!   are capped (oversized bodies get `413` before a single body byte is
//!   buffered), and a socket read timeout frees workers from half-closed
//!   or stalled peers.

#![warn(missing_docs)]

pub mod http;

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde_json::{json, Value};

use blaeu_core::{BlaeuError, Command, ExplorerConfig, Response};
use blaeu_exec::{JobHandle, JobPool};
use blaeu_server::AsyncSessionServer;
use blaeu_store::Table;

use http::{read_request, write_response, ChunkedWriter, HttpError, Request};

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Workers serving connections (`0` = the process thread budget).
    /// Distinct from the engine's pool by construction — see the crate
    /// docs for why that separation is load-bearing.
    pub conn_threads: usize,
    /// Largest request body accepted; anything bigger is `413` before a
    /// single body byte is buffered.
    pub max_body_bytes: usize,
    /// Socket read timeout — how long a *silent* peer can hold a
    /// connection worker before it is released.
    pub read_timeout: Duration,
    /// Whole-request budget, ticking from a request's first byte. The
    /// read timeout alone cannot stop a slow-drip peer (one byte per
    /// just-under-the-timeout interval resets it forever); this bounds
    /// the total. Idle keep-alive waits are governed by `read_timeout`,
    /// not this.
    pub request_deadline: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            conn_threads: 0,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(30),
        }
    }
}

/// Power-of-two latency buckets: bucket `b` counts samples whose wall
/// clock was in `[2^(b-1), 2^b)` µs (bucket 0 is `< 1 µs`). Lock-free so
/// connection workers never serialize on a stats mutex.
struct LatencyRecorder {
    buckets: [AtomicU64; LatencyRecorder::BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl LatencyRecorder {
    const BUCKETS: usize = 32;

    fn new() -> LatencyRecorder {
        LatencyRecorder {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
        }
    }

    fn record(&self, micros: u64) {
        let bucket = (64 - micros.leading_zeros() as usize).min(Self::BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(micros, Ordering::Relaxed);
    }

    fn to_json(&self) -> Value {
        // Trailing all-zero buckets carry no information; trim them so
        // the stats body stays small on an idle server.
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let used = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        json!({
            "count": self.count.load(Ordering::Relaxed),
            "total_us": self.total_us.load(Ordering::Relaxed),
            "log2_us_buckets": counts[..used].to_vec(),
        })
    }
}

struct NetShared {
    engine: Arc<AsyncSessionServer>,
    tables: Mutex<HashMap<String, Arc<Table>>>,
    config: NetConfig,
    addr: SocketAddr,
    /// Actual connection-pool worker count (`config.conn_threads`
    /// resolves `0` to the thread budget; stats must report reality).
    conn_workers: usize,
    shutdown: AtomicBool,
    /// Requests parsed and routed (whatever their status).
    requests: AtomicU64,
    /// Responses with a 4xx/5xx status.
    rejected: AtomicU64,
    /// Wall clock from a `map_progressive` submit to each streamed
    /// level (level 0 included) — "time to level k" in log2-µs buckets.
    progressive_latency: LatencyRecorder,
}

/// The HTTP/NDJSON front-end over one [`AsyncSessionServer`] (see the
/// [crate docs](self)).
pub struct NetServer {
    shared: Arc<NetShared>,
    conn_pool: Arc<JobPool>,
    /// One dedicated worker owning the blocking accept loop — a pool so
    /// the "all request work goes through `JobPool`" invariant holds for
    /// the listener too.
    accept_pool: Arc<JobPool>,
    accept_handle: Mutex<Option<JobHandle<()>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.shared.addr)
            .field("conn_workers", &self.conn_pool.workers())
            .field("sessions", &self.shared.engine.len())
            .finish()
    }
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections for `engine`. Tables must be
    /// [registered](NetServer::register_table) before clients can open
    /// sessions over them.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        engine: Arc<AsyncSessionServer>,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let conn_pool = Arc::new(JobPool::new(config.conn_threads));
        let shared = Arc::new(NetShared {
            engine,
            tables: Mutex::new(HashMap::new()),
            config,
            addr,
            conn_workers: conn_pool.workers(),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            progressive_latency: LatencyRecorder::new(),
        });
        let accept_pool = Arc::new(JobPool::new(1));
        let accept_handle = {
            let shared = Arc::clone(&shared);
            let conn_pool = Arc::clone(&conn_pool);
            accept_pool.submit(move || accept_loop(&listener, &shared, &conn_pool))
        };
        Ok(NetServer {
            shared,
            conn_pool,
            accept_pool,
            accept_handle: Mutex::new(Some(accept_handle)),
        })
    }

    /// The address actually bound (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Makes `table` openable via `POST /sessions` under `name`
    /// (replacing any previous table of that name).
    pub fn register_table(&self, name: impl Into<String>, table: Arc<Table>) {
        self.shared.tables.lock().insert(name.into(), table);
    }

    /// The engine this transport fronts.
    pub fn engine(&self) -> &Arc<AsyncSessionServer> {
        &self.shared.engine
    }

    /// Stops accepting connections and unblocks the accept loop. Already
    /// accepted connections finish their current request (keep-alive
    /// loops observe the flag and close). Idempotent.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop is parked in `accept`; poke it awake so it can
        // observe the flag and exit.
        let _ = TcpStream::connect_timeout(&self.shared.addr, Duration::from_millis(500));
        if let Some(handle) = self.accept_handle.lock().take() {
            handle.join();
        }
    }

    /// Blocks until the accept loop exits (i.e. until
    /// [`NetServer::shutdown`] is called from elsewhere) — what a `main`
    /// serving forever calls.
    pub fn join(&self) {
        let handle = self.accept_handle.lock().take();
        if let Some(handle) = handle {
            handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // Without this, dropping `accept_pool` would join a worker still
        // parked in `accept()` — forever.
        self.shutdown();
        self.accept_pool.shutdown_and_join();
        self.conn_pool.shutdown_and_join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<NetShared>, conn_pool: &Arc<JobPool>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept errors (EMFILE under fd pressure,
                // aborted handshakes) fail instantly — back off instead
                // of pinning a core, and give workers a chance to free
                // descriptors.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connection itself lands here
        }
        let shared = Arc::clone(shared);
        // Detached: the connection's lifecycle is its own; the pool
        // drains live jobs on shutdown.
        let _ = conn_pool.submit(move || handle_connection(&shared, stream));
    }
}

/// Serves one connection: a keep-alive loop of bounded request reads.
/// Any framing error answers once and closes; any socket error just
/// closes — a half-closed or stalled peer costs at most the read
/// timeout, never a wedged worker.
fn handle_connection(shared: &Arc<NetShared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    // Writes need a bound too: a peer that stops *reading* (TCP zero
    // window) would otherwise block write_all forever once the kernel
    // send buffer fills — wedging the worker exactly like a stalled
    // reader would.
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(
            &mut reader,
            &mut writer,
            shared.config.max_body_bytes,
            http::Deadline::per_request(shared.config.request_deadline),
        ) {
            Ok(None) | Err(HttpError::Disconnected) => return,
            Ok(Some(request)) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let keep_alive = request.keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
                if respond(shared, &request, &mut writer, keep_alive).is_err() {
                    return; // peer vanished mid-response
                }
                if !keep_alive {
                    return;
                }
            }
            Err(HttpError::BadRequest(why)) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                let body = wire_text(&error_body("bad_request", &why, None));
                let _ = write_response(
                    &mut writer,
                    400,
                    "Bad Request",
                    "application/json",
                    body.as_bytes(),
                    false,
                    &[],
                );
                return;
            }
            Err(HttpError::LengthRequired) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                let body = wire_text(&error_body(
                    "length_required",
                    "POST requires Content-Length",
                    None,
                ));
                let _ = write_response(
                    &mut writer,
                    411,
                    "Length Required",
                    "application/json",
                    body.as_bytes(),
                    false,
                    &[],
                );
                return;
            }
            Err(HttpError::PayloadTooLarge { limit, announced }) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                let body = wire_text(&error_body(
                    "payload_too_large",
                    format!("body of {announced} bytes exceeds the {limit}-byte limit"),
                    Some(json!({"limit": limit, "announced": announced})),
                ));
                // The unread body makes the connection unusable; close.
                let _ = write_response(
                    &mut writer,
                    413,
                    "Payload Too Large",
                    "application/json",
                    body.as_bytes(),
                    false,
                    &[],
                );
                return;
            }
        }
    }
}

/// The parsed routing targets.
enum Route {
    Health,
    Stats,
    Sessions,
    Session(u64),
    SessionCommands(u64),
    SessionBatch(u64),
    SessionHistory(u64),
    Unknown,
}

fn route(path: &str) -> Route {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["healthz"] => Route::Health,
        ["stats"] => Route::Stats,
        ["sessions"] => Route::Sessions,
        ["sessions", id] => id.parse().map_or(Route::Unknown, Route::Session),
        ["sessions", id, "commands"] => id.parse().map_or(Route::Unknown, Route::SessionCommands),
        ["sessions", id, "commands", "batch"] => {
            id.parse().map_or(Route::Unknown, Route::SessionBatch)
        }
        ["sessions", id, "history"] => id.parse().map_or(Route::Unknown, Route::SessionHistory),
        _ => Route::Unknown,
    }
}

/// Success envelope: the response's client JSON plus its `digest` (hex
/// [`Response::digest`]) so wire clients can assert bit-identity with
/// the in-process path.
fn envelope(response: &Response) -> Value {
    let mut value = response.to_json();
    if let Value::Object(map) = &mut value {
        map.insert(
            "digest".to_owned(),
            json!(format!("{:016x}", response.digest())),
        );
    }
    value
}

/// Serializes an already-built wire [`Value`] to its JSON text. No
/// foreign `Serialize` impls are involved, so `to_string` cannot fail;
/// every response path funnels through this one sanctioned site rather
/// than scattering that infallibility claim across the crate.
fn wire_text(value: &Value) -> String {
    // lint: allow(panic-hygiene) — serializing an already-built Value cannot fail; sole sanctioned expect in blaeu-net
    serde_json::to_string(value).expect("serialization of a built Value is infallible")
}

/// The one error body shape every non-2xx response carries:
/// `{"error": {"code", "message", "detail"?}}`.
fn error_body(code: &str, message: impl AsRef<str>, detail: Option<Value>) -> Value {
    let mut inner = json!({"code": code, "message": message.as_ref()});
    if let (Some(detail), Value::Object(map)) = (detail, &mut inner) {
        map.insert("detail".to_owned(), detail);
    }
    json!({"error": inner})
}

/// Maps an engine error to `(status, reason)`; the body `code` is
/// [`BlaeuError::kind`] — one tag registry across wire and journal.
fn status_of(error: &BlaeuError) -> (u16, &'static str) {
    match error {
        BlaeuError::UnknownSession(_) => (404, "Not Found"),
        BlaeuError::QueueFull { .. } => (429, "Too Many Requests"),
        _ => (422, "Unprocessable Entity"),
    }
}

/// Error body for an engine error; `QueueFull`'s detail carries the
/// occupancy the client needs to back off intelligently.
fn error_json(error: &BlaeuError) -> Value {
    let detail = match error {
        BlaeuError::QueueFull {
            pending, capacity, ..
        } => Some(json!({"pending": *pending, "capacity": *capacity})),
        _ => None,
    };
    error_body(error.kind(), error.to_string(), detail)
}

fn send_json<W: Write>(
    shared: &NetShared,
    writer: &mut W,
    status: u16,
    reason: &str,
    body: &Value,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    if status >= 400 {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
    }
    let text = wire_text(body);
    write_response(
        writer,
        status,
        reason,
        "application/json",
        text.as_bytes(),
        keep_alive,
        extra_headers,
    )
}

fn send_engine_error<W: Write>(
    shared: &NetShared,
    writer: &mut W,
    error: &BlaeuError,
    keep_alive: bool,
) -> std::io::Result<()> {
    let (status, reason) = status_of(error);
    let retry: Vec<(&str, String)> = if status == 429 {
        vec![("Retry-After", "1".to_owned())]
    } else {
        Vec::new()
    };
    send_json(
        shared,
        writer,
        status,
        reason,
        &error_json(error),
        keep_alive,
        &retry,
    )
}

fn respond<W: Write>(
    shared: &Arc<NetShared>,
    request: &Request,
    writer: &mut W,
    keep_alive: bool,
) -> std::io::Result<()> {
    match (request.method.as_str(), route(&request.path)) {
        ("GET", Route::Health) => {
            let body = json!({
                "status": "ok",
                "sessions": shared.engine.len(),
                "workers": shared.engine.pool().workers(),
            });
            send_json(shared, writer, 200, "OK", &body, keep_alive, &[])
        }
        ("GET", Route::Stats) => {
            // Aggregates only — per-session rows live at GET /sessions.
            let cache = shared.engine.cache_stats().map(|stats| {
                json!({
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "hit_rate": stats.hit_rate(),
                    "map_entries": stats.map_entries,
                    "theme_entries": stats.theme_entries,
                    "map_bytes": stats.map_bytes,
                    "theme_bytes": stats.theme_bytes,
                })
            });
            let journal = shared.engine.journal_stats().map(|stats| {
                json!({
                    "sessions": stats.sessions,
                    "records": stats.records,
                    "bytes": stats.bytes,
                    "fsyncs": stats.fsyncs,
                    "group_commits": stats.group_commits,
                    "batched_syncs": stats.batched_syncs,
                    "append_failures": stats.append_failures,
                })
            });
            let progressive = shared.engine.progressive_stats();
            let body = json!({
                "sessions": shared.engine.len(),
                "queue_capacity": shared.engine.queue_capacity(),
                "cache": cache,
                "journal": journal,
                "requests": shared.requests.load(Ordering::Relaxed),
                "rejected": shared.rejected.load(Ordering::Relaxed),
                "conn_workers": shared.conn_workers,
                "engine_workers": shared.engine.pool().workers(),
                "progressive": json!({
                    "levels_streamed": progressive.levels_streamed,
                    "rungs_cancelled": progressive.rungs_cancelled,
                    "coarse_hits": progressive.coarse_hits,
                    "latency": shared.progressive_latency.to_json(),
                }),
            });
            send_json(shared, writer, 200, "OK", &body, keep_alive, &[])
        }
        ("GET", Route::Sessions) => {
            let sessions: Vec<Value> = shared
                .engine
                .session_infos()
                .into_iter()
                .map(|info| {
                    json!({
                        "session": info.id,
                        "pending": info.pending,
                        "journal_seq": info.journal_seq,
                        "idle_ms": info.idle.as_millis() as u64,
                    })
                })
                .collect();
            let body = json!({"sessions": sessions});
            send_json(shared, writer, 200, "OK", &body, keep_alive, &[])
        }
        ("GET", Route::SessionHistory(id)) => session_history(shared, id, writer, keep_alive),
        ("POST", Route::Sessions) => open_session(shared, request, writer, keep_alive),
        ("POST", Route::SessionCommands(id)) => {
            run_command(shared, id, request, writer, keep_alive)
        }
        ("POST", Route::SessionBatch(id)) => run_batch(shared, id, request, writer, keep_alive),
        ("DELETE", Route::Session(id)) => match shared.engine.close(id) {
            Ok(()) => send_json(
                shared,
                writer,
                200,
                "OK",
                &json!({"closed": id}),
                keep_alive,
                &[],
            ),
            Err(error) => send_engine_error(shared, writer, &error, keep_alive),
        },
        (_, Route::Unknown) => send_json(
            shared,
            writer,
            404,
            "Not Found",
            &error_body(
                "unknown_route",
                format!("no route {} {}", request.method, request.path),
                None,
            ),
            keep_alive,
            &[],
        ),
        _ => send_json(
            shared,
            writer,
            405,
            "Method Not Allowed",
            &error_body(
                "method_not_allowed",
                format!("{} not allowed on {}", request.method, request.path),
                None,
            ),
            keep_alive,
            &[],
        ),
    }
}

/// `GET /sessions/:id/history`: the session's journal streamed as
/// NDJSON — one record payload per line, exactly the bytes recovery
/// replays (minus the integrity framing). `404 no_journal` when the
/// engine runs without a journal; `404 unknown_session` when no journal
/// file exists for the id.
fn session_history<W: Write>(
    shared: &Arc<NetShared>,
    id: u64,
    writer: &mut W,
    keep_alive: bool,
) -> std::io::Result<()> {
    let Some(journal) = shared.engine.journal() else {
        return send_json(
            shared,
            writer,
            404,
            "Not Found",
            &error_body(
                "no_journal",
                "this server runs without a command journal",
                None,
            ),
            keep_alive,
            &[],
        );
    };
    let path = blaeu_server::journal_path(journal.dir(), id);
    let read = match blaeu_server::read_journal(&path) {
        Ok(read) => read,
        Err(_) => {
            return send_json(
                shared,
                writer,
                404,
                "Not Found",
                &error_body(
                    "unknown_session",
                    format!("no journal for session {id}"),
                    None,
                ),
                keep_alive,
                &[],
            )
        }
    };
    let mut stream = ChunkedWriter::start(writer, 200, "OK", "application/x-ndjson", keep_alive)?;
    for line in &read.lines {
        stream.write_chunk(line.as_bytes())?;
        stream.write_chunk(b"\n")?;
    }
    stream.finish()
}

/// `POST /sessions`: `{"table": "<registered name>", "seed"?: n}` →
/// `201 {"session": id}`. Theme detection runs before the response (and
/// through the shared cache, so the N-th session over a table opens
/// instantly).
fn open_session<W: Write>(
    shared: &Arc<NetShared>,
    request: &Request,
    writer: &mut W,
    keep_alive: bool,
) -> std::io::Result<()> {
    let body = match serde_json::from_slice(&request.body) {
        Ok(value) => value,
        Err(e) => {
            return send_json(
                shared,
                writer,
                400,
                "Bad Request",
                &error_body("bad_request", format!("malformed JSON: {e}"), None),
                keep_alive,
                &[],
            )
        }
    };
    let Some(name) = body.get("table").and_then(Value::as_str) else {
        return send_json(
            shared,
            writer,
            400,
            "Bad Request",
            &error_body(
                "bad_request",
                "body needs a \"table\" field naming a registered table",
                None,
            ),
            keep_alive,
            &[],
        );
    };
    // One lock scope: either the table, or the sorted names for the 404.
    let looked_up = {
        let tables = shared.tables.lock();
        tables.get(name).cloned().ok_or_else(|| {
            let mut names: Vec<String> = tables.keys().cloned().collect();
            names.sort_unstable();
            names
        })
    };
    let table = match looked_up {
        Ok(table) => table,
        Err(known) => {
            return send_json(
                shared,
                writer,
                404,
                "Not Found",
                &error_body(
                    "unknown_table",
                    format!("unknown table {name:?}"),
                    Some(json!({"tables": known})),
                ),
                keep_alive,
                &[],
            )
        }
    };
    let mut config = ExplorerConfig::default();
    match body.get("seed") {
        None => {}
        Some(value) => match value.as_u64() {
            Some(seed) => config.mapper.seed = seed,
            // A mistyped seed must not silently open an unseeded
            // session the client believes is reproducible.
            None => {
                return send_json(
                    shared,
                    writer,
                    400,
                    "Bad Request",
                    &error_body(
                        "bad_request",
                        "\"seed\" must be a non-negative integer",
                        None,
                    ),
                    keep_alive,
                    &[],
                )
            }
        },
    }
    // Named open: with a journal configured, this writes the session's
    // `open` record so it survives restart.
    match shared.engine.open_named_session(name, table, config) {
        Ok(id) => send_json(
            shared,
            writer,
            201,
            "Created",
            &json!({"session": id, "table": name}),
            keep_alive,
            &[],
        ),
        Err(error) => send_engine_error(shared, writer, &error, keep_alive),
    }
}

/// `POST /sessions/:id/commands`: one command in, one enveloped response
/// out. Body parse/shape errors are `400` (the request never reached the
/// engine); engine errors map per [`status_of`].
///
/// A `map_progressive` body answers only its coarse level-0 delta here —
/// this endpoint is one-request-one-response by contract, so no rungs are
/// scheduled behind it. The ladder stays armed in the session, letting a
/// client refine rung-by-rung with explicit `map_refine` commands; the
/// batch channel is the surface that streams refinement automatically.
fn run_command<W: Write>(
    shared: &Arc<NetShared>,
    id: u64,
    request: &Request,
    writer: &mut W,
    keep_alive: bool,
) -> std::io::Result<()> {
    let command = match std::str::from_utf8(&request.body)
        .map_err(|e| BlaeuError::Invalid(format!("body is not UTF-8: {e}")))
        .and_then(Command::from_json_str)
    {
        Ok(command) => command,
        Err(error) => {
            return send_json(
                shared,
                writer,
                400,
                "Bad Request",
                &error_body("bad_request", error.to_string(), None),
                keep_alive,
                &[],
            )
        }
    };
    let handle = match shared.engine.submit(id, command) {
        Ok(handle) => handle,
        Err(error) => return send_engine_error(shared, writer, &error, keep_alive),
    };
    // Joining (not polling) is what preserves the engine's "every
    // accepted handle resolves" guarantee on the wire — even a command
    // that panicked resolves as an error envelope.
    match handle.join() {
        Ok(response) => send_json(
            shared,
            writer,
            200,
            "OK",
            &envelope(&response),
            keep_alive,
            &[],
        ),
        Err(error) => send_engine_error(shared, writer, &error, keep_alive),
    }
}

/// `POST /sessions/:id/commands/batch`: NDJSON in, NDJSON out, streamed.
/// All lines are parsed up front (a malformed line rejects the whole
/// batch with `400` — nothing half-submitted), then submitted in order;
/// the response streams one line per command *as each handle resolves*.
/// If submission stops early (e.g. `QueueFull`), the accepted prefix
/// still streams its responses, followed by one error line carrying how
/// many commands were never attempted.
///
/// A `map_progressive` line goes through the engine's progressive
/// surface: its coarse level-0 answer streams first (an ordinary
/// enveloped response line with `"kind":"delta"`, `"level":0`), then one
/// extra line per refinement rung as it lands, until `"final":true`.
/// Each level's wall clock (submit → line) is recorded in the log2-µs
/// progressive histogram. A later command in the same batch supersedes
/// the refinement — the engine cancels pending rungs, the delta stream
/// simply ends early (the last line may not be final), and the later
/// command's response follows.
fn run_batch<W: Write>(
    shared: &Arc<NetShared>,
    id: u64,
    request: &Request,
    writer: &mut W,
    keep_alive: bool,
) -> std::io::Result<()> {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return send_json(
            shared,
            writer,
            400,
            "Bad Request",
            &error_body("bad_request", "body is not UTF-8", None),
            keep_alive,
            &[],
        );
    };
    let mut commands = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Command::from_json_str(line) {
            Ok(command) => commands.push(command),
            Err(error) => {
                return send_json(
                    shared,
                    writer,
                    400,
                    "Bad Request",
                    &error_body(
                        "bad_request",
                        format!("line {}: {error}", lineno + 1),
                        Some(json!({"line": lineno + 1})),
                    ),
                    keep_alive,
                    &[],
                )
            }
        }
    }
    let total = commands.len();
    let mut handles = Vec::new();
    let mut submit_error = None;
    for command in commands {
        let started = std::time::Instant::now();
        let outcome = if matches!(command, Command::MapProgressive) {
            shared
                .engine
                .submit_progressive(id)
                .map(|(handle, stream)| (handle, Some((stream, started))))
        } else {
            shared
                .engine
                .submit(id, command)
                .map(|handle| (handle, None))
        };
        match outcome {
            Ok(entry) => handles.push(entry),
            Err(error) => {
                submit_error = Some(error);
                break;
            }
        }
    }
    if handles.is_empty() {
        if let Some(error) = submit_error {
            // Nothing was accepted: a plain status answer beats an
            // empty stream with a trailing error line.
            return send_engine_error(shared, writer, &error, keep_alive);
        }
    }
    // Commands beyond the one that failed to submit were never tried;
    // the trailing error line reports the count so clients know exactly
    // how much of their batch to replay. (The stream itself is a 200 —
    // the `rejected` counter stays a pure 4xx/5xx tally.)
    let not_attempted = submit_error
        .as_ref()
        .map(|_| total - handles.len() - 1)
        .unwrap_or(0);
    let mut stream = ChunkedWriter::start(writer, 200, "OK", "application/x-ndjson", keep_alive)?;
    for (handle, deltas) in handles {
        let joined = handle.join();
        if let Some((_, started)) = &deltas {
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            shared.progressive_latency.record(micros);
        }
        let line = match joined {
            Ok(response) => envelope(&response),
            Err(error) => error_json(&error),
        };
        let mut text = wire_text(&line);
        text.push('\n');
        stream.write_chunk(text.as_bytes())?;
        // Refinement rungs ride the same chunked channel: one extra line
        // per delta, in level order, blocking only this connection
        // worker (the engine pool computing the rungs is distinct, so
        // waiting here cannot starve the work that unblocks the wait).
        let Some((delta_stream, started)) = deltas else {
            continue;
        };
        while let Some(result) = delta_stream.next() {
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            shared.progressive_latency.record(micros);
            let line = match result {
                Ok(response) => envelope(&response),
                Err(error) => error_json(&error),
            };
            let mut text = wire_text(&line);
            text.push('\n');
            stream.write_chunk(text.as_bytes())?;
        }
    }
    if let Some(error) = submit_error {
        let mut detail = match &error {
            BlaeuError::QueueFull {
                pending, capacity, ..
            } => json!({"pending": *pending, "capacity": *capacity}),
            _ => json!({}),
        };
        if let Value::Object(map) = &mut detail {
            map.insert("submitted".to_owned(), json!(false));
            map.insert("not_attempted".to_owned(), json!(not_attempted));
        }
        let line = error_body(error.kind(), error.to_string(), Some(detail));
        let mut text = wire_text(&line);
        text.push('\n');
        stream.write_chunk(text.as_bytes())?;
    }
    stream.finish()
}
