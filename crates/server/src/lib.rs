//! # blaeu-server — the asynchronous session tier
//!
//! The paper's architecture (Figure 4) puts a session-managing server in
//! front of the cluster-analysis engine so many users can map, zoom and
//! highlight concurrently. [`AsyncSessionServer`] is that tier as a
//! library: it owns a [`SessionManager`], runs every command on a shared
//! [`JobPool`], and memoizes analyses in an [`AnalysisCache`].
//!
//! ## Execution model
//!
//! Each session is a **FIFO command pipeline**: [`AsyncSessionServer::submit`]
//! enqueues a [`Command`] and returns a [`ResponseHandle`] immediately.
//! Commands *within* a session execute strictly in submission order (the
//! session's queue is drained by at most one pool worker at a time);
//! commands *across* sessions overlap freely — a slow `Map` in one
//! session no longer blocks a fast `Highlight` in another, which is the
//! always-responsive property Hillview-style systems are built around.
//!
//! Per-session queues are **bounded**: when `queue_capacity` commands are
//! already pending, `submit` fails fast with
//! [`BlaeuError::QueueFull`] instead of buffering unboundedly — the
//! backpressure signal a real front-end needs.
//!
//! ## Determinism
//!
//! Pool workers run under the executor's nesting guard, so each command
//! computes sequentially and its result depends only on the session's
//! command history — never on worker count or scheduling. Per-session
//! response streams are therefore bit-identical across thread budgets
//! and across cache on/off (cache hits return the very `Arc` a miss
//! built). Both invariants are enforced by tests.

#![warn(missing_docs)]

pub mod cache;
pub mod journal;

pub use cache::{AnalysisCache, CacheStats};
use journal::set_aside;
pub use journal::{
    journal_path, read_journal, FsyncPolicy, JournalDefect, JournalRecord, JournalStats,
    ReadJournal, RecordedOutcome, SessionJournal,
};

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use blaeu_core::{
    AnalysisMemo, BlaeuError, Command, ExplorerConfig, Response, Result, SessionId, SessionManager,
};
use blaeu_exec::JobPool;
use blaeu_store::Table;

/// Configuration of an [`AsyncSessionServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining session queues (`0` = the process
    /// thread budget, i.e. `BLAEU_THREADS`).
    pub threads: usize,
    /// Max pending (not yet executing) commands per session before
    /// [`AsyncSessionServer::submit`] answers
    /// [`BlaeuError::QueueFull`].
    pub queue_capacity: usize,
    /// Analysis-cache entries per result kind (`0` disables caching —
    /// every command recomputes).
    pub cache_capacity: usize,
    /// Analysis-cache byte budget per result kind: approximate bytes a
    /// shelf may pin before size-aware LRU eviction kicks in, so giant
    /// maps and tiny theme sets are weighed, not merely counted (`0` =
    /// unlimited — entry count is the only bound).
    pub cache_bytes: usize,
    /// Directory for the write-ahead command journal (`None` = no
    /// durability: sessions die with the process, exactly the pre-journal
    /// behavior). With a journal, sessions opened via
    /// [`AsyncSessionServer::open_named_session`] survive restart through
    /// [`AsyncSessionServer::recover`].
    pub journal_dir: Option<PathBuf>,
    /// When journal appends reach the disk (ignored without
    /// `journal_dir`).
    pub journal_fsync: FsyncPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 0,
            queue_capacity: 64,
            cache_capacity: 256,
            cache_bytes: cache::DEFAULT_CACHE_BYTES,
            journal_dir: None,
            journal_fsync: FsyncPolicy::Never,
        }
    }
}

/// Result slot a queued command will eventually fulfil.
struct ResponseSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

enum SlotState {
    Waiting,
    Ready(Result<Response>, Instant),
    Claimed,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot {
            state: Mutex::new(SlotState::Waiting),
            cv: Condvar::new(),
        }
    }

    fn fulfil(&self, result: Result<Response>) {
        let mut st = self.state.lock();
        debug_assert!(
            matches!(*st, SlotState::Waiting),
            "a slot is fulfilled exactly once"
        );
        *st = SlotState::Ready(result, Instant::now());
        self.cv.notify_all();
    }
}

/// Handle to one submitted command's eventual response.
///
/// Every accepted command's handle resolves, whatever happens to the
/// session: executed commands carry their result, commands rejected by
/// a racing [`AsyncSessionServer::close`] carry
/// [`BlaeuError::UnknownSession`]. Dropping the handle abandons the
/// response but never the command.
pub struct ResponseHandle {
    slot: Arc<ResponseSlot>,
}

impl std::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseHandle")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl ResponseHandle {
    /// True once the response is available (join won't block).
    fn is_ready(&self) -> bool {
        !matches!(*self.slot.state.lock(), SlotState::Waiting)
    }

    /// When the response arrived (None while pending). Lets callers
    /// compare completion order across sessions without instrumenting
    /// the server.
    pub fn finished_at(&self) -> Option<Instant> {
        match *self.slot.state.lock() {
            SlotState::Ready(_, at) => Some(at),
            _ => None,
        }
    }

    /// Blocks until the response is available without consuming the
    /// handle — pair with [`ResponseHandle::finished_at`] to read the
    /// fulfilment stamp before [`ResponseHandle::join`] takes the
    /// result.
    pub fn wait(&self) {
        let mut st = self.slot.state.lock();
        self.slot
            .cv
            .wait_while(&mut st, |s| matches!(s, SlotState::Waiting));
    }

    /// Blocks until the command has executed (or been rejected) and
    /// returns its result.
    pub fn join(self) -> Result<Response> {
        let mut st = self.slot.state.lock();
        self.slot
            .cv
            .wait_while(&mut st, |s| matches!(s, SlotState::Waiting));
        match std::mem::replace(&mut *st, SlotState::Claimed) {
            SlotState::Ready(result, _) => result,
            _ => unreachable!("wait_while guarantees a ready slot"),
        }
    }
}

/// A blocking stream of refinement responses — the channel
/// [`AsyncSessionServer::submit_progressive`] hands back alongside the
/// level-0 [`ResponseHandle`]. Each entry is one completed rung's
/// [`Response::MapDelta`] (or the rung's error); the stream terminates
/// when the final level lands, the ladder is superseded or cancelled,
/// or the session closes — consumers simply read until `None`, and the
/// server guarantees the stream always terminates.
pub struct DeltaStream {
    state: Mutex<DeltaStreamState>,
    cv: Condvar,
}

struct DeltaStreamState {
    ready: VecDeque<Result<Response>>,
    done: bool,
}

impl std::fmt::Debug for DeltaStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("DeltaStream")
            .field("ready", &st.ready.len())
            .field("done", &st.done)
            .finish()
    }
}

impl DeltaStream {
    fn new() -> Arc<Self> {
        Arc::new(DeltaStream {
            state: Mutex::new(DeltaStreamState {
                ready: VecDeque::new(),
                done: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn push(&self, result: Result<Response>) {
        let mut st = self.state.lock();
        st.ready.push_back(result);
        self.cv.notify_all();
    }

    fn finish(&self) {
        let mut st = self.state.lock();
        st.done = true;
        self.cv.notify_all();
    }

    /// Blocks for the next refinement result; `None` once the stream has
    /// terminated (final level delivered, ladder cancelled, or session
    /// closed) and every queued entry has been taken.
    pub fn next(&self) -> Option<Result<Response>> {
        let mut st = self.state.lock();
        self.cv
            .wait_while(&mut st, |s| s.ready.is_empty() && !s.done);
        st.ready.pop_front()
    }

    /// True once the producer is done (queued entries may remain).
    pub fn is_finished(&self) -> bool {
        self.state.lock().done
    }
}

/// One entry of a session's pending queue: a client command, or one
/// self-requeued rung of an in-flight progressive ladder.
enum QueueItem {
    /// A submitted [`Command`]; `stream` is armed only for
    /// [`Command::MapProgressive`] — the channel its follow-up rungs
    /// report on.
    User {
        command: Command,
        slot: Arc<ResponseSlot>,
        stream: Option<Arc<DeltaStream>>,
    },
    /// One pending ladder rung, executed as `Command::MapRefine` and
    /// reported on `stream` instead of a response slot. Rungs ride the
    /// same queue and `DRAIN_BATCH` discipline as user commands, so a
    /// refining session cannot starve any other session.
    Rung {
        level: usize,
        levels: usize,
        stream: Arc<DeltaStream>,
    },
}

struct QueueState {
    pending: VecDeque<QueueItem>,
    /// True while a pool job owns this queue (drains it command by
    /// command). At most one drain job exists per session at any time —
    /// that is what serializes a session.
    active: bool,
    closed: bool,
    /// Last time a command was accepted or completed (open counts) —
    /// `GET /sessions` reports its age.
    last_activity: Instant,
}

struct SessionQueue {
    id: SessionId,
    state: Mutex<QueueState>,
}

/// Commands one drain job executes before re-enqueueing itself at the
/// back of the pool's FIFO — the fairness knob: a session with a
/// continuously-full queue releases its worker every `DRAIN_BATCH`
/// commands, so other sessions' drain jobs (which sit in the same FIFO)
/// always get scheduled. Without the cap, N always-busy sessions would
/// pin all N workers and starve every later session.
const DRAIN_BATCH: usize = 4;

/// One session's monitoring snapshot — the `GET /sessions` resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// Session id.
    pub id: SessionId,
    /// Commands queued, not yet executing.
    pub pending: usize,
    /// Last journal sequence number (`None` for unjournaled sessions).
    pub journal_seq: Option<u64>,
    /// Time since the last command was accepted or completed.
    pub idle: std::time::Duration,
}

/// Counters of the progressive execution mode, shared by every drain
/// job.
#[derive(Debug, Default)]
struct ProgressiveCounters {
    /// Completed ladder levels streamed to clients (level 0 included).
    levels_streamed: AtomicU64,
    /// Pending rungs dropped because a superseding command or a close
    /// cancelled their ladder.
    rungs_cancelled: AtomicU64,
    /// Ladder levels answered from the analysis cache instead of a
    /// fresh build — warm coarse entries a zoom issued mid-refinement
    /// (or a second session) benefits from.
    coarse_hits: AtomicU64,
}

/// Progressive-mode effectiveness counters — the `/stats` payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressiveStats {
    /// Completed ladder levels streamed (level 0 included).
    pub levels_streamed: u64,
    /// Pending rungs cancelled by supersession or close.
    pub rungs_cancelled: u64,
    /// Ladder levels served from the analysis cache.
    pub coarse_hits: u64,
}

/// Everything a drain job needs besides the queue itself — bundled so
/// the job captures one `Arc` instead of four.
struct DrainCtx {
    manager: Arc<SessionManager>,
    journal: Option<Arc<SessionJournal>>,
    cache: Option<Arc<AnalysisCache>>,
    progressive: Arc<ProgressiveCounters>,
}

/// The asynchronous session server (see the [crate docs](self)).
pub struct AsyncSessionServer {
    manager: Arc<SessionManager>,
    pool: Arc<JobPool>,
    queues: Mutex<HashMap<SessionId, Arc<SessionQueue>>>,
    cache: Option<Arc<AnalysisCache>>,
    journal: Option<Arc<SessionJournal>>,
    progressive: Arc<ProgressiveCounters>,
    queue_capacity: usize,
}

impl std::fmt::Debug for AsyncSessionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSessionServer")
            .field("sessions", &self.manager.len())
            .field("workers", &self.pool.workers())
            .field("cache", &self.cache)
            .finish()
    }
}

impl AsyncSessionServer {
    /// Spawns a server: a worker pool plus (unless disabled) a shared
    /// analysis cache.
    ///
    /// # Panics
    /// When `config.journal_dir` is set but the directory cannot be
    /// created — use [`AsyncSessionServer::try_new`] to handle journal
    /// setup failures without a panic.
    pub fn new(config: ServerConfig) -> Self {
        // lint: allow(panic-hygiene) — documented panicking constructor (see # Panics); try_new is the fallible path
        Self::try_new(config).expect("journal directory setup failed")
    }

    /// [`AsyncSessionServer::new`], surfacing journal-setup failures
    /// instead of panicking. Infallible when `journal_dir` is `None`.
    ///
    /// # Errors
    /// Journal-directory creation failures.
    pub fn try_new(config: ServerConfig) -> std::io::Result<Self> {
        let cache = (config.cache_capacity > 0).then(|| {
            Arc::new(AnalysisCache::with_byte_budget(
                config.cache_capacity,
                config.cache_bytes,
            ))
        });
        let journal = match &config.journal_dir {
            Some(dir) => Some(Arc::new(SessionJournal::open(dir, config.journal_fsync)?)),
            None => None,
        };
        Ok(AsyncSessionServer {
            manager: Arc::new(SessionManager::new()),
            pool: Arc::new(JobPool::new(config.threads)),
            queues: Mutex::new(HashMap::new()),
            cache,
            journal,
            progressive: Arc::new(ProgressiveCounters::default()),
            queue_capacity: config.queue_capacity.max(1),
        })
    }

    /// The drain context this server's jobs share.
    fn drain_ctx(&self) -> Arc<DrainCtx> {
        Arc::new(DrainCtx {
            manager: Arc::clone(&self.manager),
            journal: self.journal.clone(),
            cache: self.cache.clone(),
            progressive: Arc::clone(&self.progressive),
        })
    }

    /// Opens a session over a shared table (the zero-copy path: every
    /// session navigates views of one `Arc<Table>`). Theme detection
    /// runs synchronously here — through the cache, so the N-th session
    /// on a table opens instantly.
    ///
    /// # Errors
    /// Propagates explorer-open failures (e.g. too few columns).
    pub fn open_session(&self, table: Arc<Table>, config: ExplorerConfig) -> Result<SessionId> {
        let id = match &self.cache {
            Some(cache) => self.manager.create_shared_memoized(
                table,
                config,
                Arc::clone(cache) as Arc<dyn AnalysisMemo>,
            )?,
            None => self.manager.create_shared(table, config)?,
        };
        self.install_queue(id);
        Ok(id)
    }

    /// [`AsyncSessionServer::open_session`] under a registered table
    /// *name* — the durable path: with a journal configured, the session
    /// writes an `open` record (name + seed) and every executed command
    /// after it, so [`AsyncSessionServer::recover`] can rebuild it after
    /// a restart. The wire tier opens all its sessions through this.
    ///
    /// Only `config.mapper.seed` is journaled — it is the one config
    /// knob the wire contract exposes; recovery re-opens with defaults
    /// plus that seed.
    ///
    /// # Errors
    /// Explorer-open failures, plus journal I/O failures (a session
    /// whose open record cannot be written must not pretend to be
    /// durable).
    pub fn open_named_session(
        &self,
        name: &str,
        table: Arc<Table>,
        config: ExplorerConfig,
    ) -> Result<SessionId> {
        let seed = config.mapper.seed;
        let id = self.open_session(table, config)?;
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.open_session(id, name, seed) {
                // Roll the half-open session back — better refused than
                // silently undurable.
                let _ = self.close(id);
                return Err(BlaeuError::from_io(e));
            }
        }
        Ok(id)
    }

    fn install_queue(&self, id: SessionId) {
        self.queues.lock().insert(
            id,
            Arc::new(SessionQueue {
                id,
                state: Mutex::new(QueueState {
                    pending: VecDeque::new(),
                    active: false,
                    closed: false,
                    last_activity: Instant::now(),
                }),
            }),
        );
    }

    /// Enqueues `command` on the session's pipeline and returns a handle
    /// to its eventual response. Commands of one session execute in
    /// submission order; commands of different sessions overlap.
    ///
    /// # Errors
    /// [`BlaeuError::UnknownSession`] for closed/bogus ids,
    /// [`BlaeuError::QueueFull`] when the session already has
    /// `queue_capacity` pending commands (backpressure — retry after
    /// some in-flight responses resolve).
    pub fn submit(&self, id: SessionId, command: Command) -> Result<ResponseHandle> {
        self.submit_with_stream(id, command, None)
    }

    /// Submits a [`Command::MapProgressive`]: the returned handle
    /// resolves with the level-0 [`Response::MapDelta`] (milliseconds),
    /// and the returned [`DeltaStream`] carries every further rung's
    /// delta until the final (exact) level — or until a superseding
    /// command on the session, or a close, cancels the remaining rungs
    /// (the stream always terminates). Rungs execute as ordinary queue
    /// items under the `DRAIN_BATCH` discipline, so a refining session
    /// never starves other sessions.
    ///
    /// # Errors
    /// As [`AsyncSessionServer::submit`].
    pub fn submit_progressive(&self, id: SessionId) -> Result<(ResponseHandle, Arc<DeltaStream>)> {
        let stream = DeltaStream::new();
        let handle =
            self.submit_with_stream(id, Command::MapProgressive, Some(Arc::clone(&stream)))?;
        Ok((handle, stream))
    }

    fn submit_with_stream(
        &self,
        id: SessionId,
        command: Command,
        stream: Option<Arc<DeltaStream>>,
    ) -> Result<ResponseHandle> {
        let queue = self
            .queues
            .lock()
            .get(&id)
            .cloned()
            .ok_or(BlaeuError::UnknownSession(id))?;
        let slot = Arc::new(ResponseSlot::new());
        let mut swept = Vec::new();
        let outcome = {
            let mut st = queue.state.lock();
            if st.closed {
                Err(BlaeuError::UnknownSession(id))
            } else {
                // A fresh client command supersedes any in-flight
                // ladder: its pending rungs are swept here (their
                // streams finish outside the lock, even when this
                // submit itself is rejected), so refinement work the
                // user no longer wants never runs.
                let mut kept = VecDeque::with_capacity(st.pending.len() + 1);
                for item in st.pending.drain(..) {
                    match item {
                        QueueItem::Rung { .. } => swept.push(item),
                        user => kept.push_back(user),
                    }
                }
                st.pending = kept;
                if st.pending.len() >= self.queue_capacity {
                    // Report the occupancy actually observed and the
                    // *clamped* capacity (the bound being enforced), so
                    // clients can back off by exactly the right amount.
                    Err(BlaeuError::QueueFull {
                        session: id,
                        pending: st.pending.len(),
                        capacity: self.queue_capacity,
                    })
                } else {
                    st.pending.push_back(QueueItem::User {
                        command,
                        slot: Arc::clone(&slot),
                        stream,
                    });
                    st.last_activity = Instant::now();
                    if st.active {
                        Ok(false)
                    } else {
                        st.active = true;
                        Ok(true)
                    }
                }
            }
        };
        for item in swept {
            if let QueueItem::Rung {
                level,
                levels,
                stream,
            } = item
            {
                self.progressive
                    .rungs_cancelled
                    .fetch_add((levels - level) as u64, Ordering::Relaxed);
                stream.finish();
            }
        }
        if outcome? {
            schedule_drain(
                self.drain_ctx(),
                Arc::downgrade(&self.pool),
                queue,
                &self.pool,
            );
        }
        Ok(ResponseHandle { slot })
    }

    /// Submits and waits — the synchronous convenience for callers that
    /// do not pipeline (REPLs, tests).
    ///
    /// # Errors
    /// As [`AsyncSessionServer::submit`], plus the command's own errors.
    pub fn request(&self, id: SessionId, command: Command) -> Result<Response> {
        self.submit(id, command)?.join()
    }

    /// Closes a session: already-queued commands are rejected with
    /// [`BlaeuError::UnknownSession`] (their handles resolve; nothing
    /// deadlocks), pending refinement rungs are cancelled (their delta
    /// streams terminate), an in-flight command finishes or rejects on
    /// its own, and the session leaves the registry.
    ///
    /// # Errors
    /// [`BlaeuError::UnknownSession`] when the id is unknown or already
    /// closed.
    pub fn close(&self, id: SessionId) -> Result<()> {
        let queue = self
            .queues
            .lock()
            .remove(&id)
            .ok_or(BlaeuError::UnknownSession(id))?;
        let rejected: Vec<QueueItem> = {
            let mut st = queue.state.lock();
            st.closed = true;
            st.pending.drain(..).collect()
        };
        for item in rejected {
            match item {
                QueueItem::User { slot, stream, .. } => {
                    slot.fulfil(Err(BlaeuError::UnknownSession(id)));
                    // A still-queued progressive command never runs, so
                    // no rung will ever finish its stream.
                    if let Some(stream) = stream {
                        stream.finish();
                    }
                }
                QueueItem::Rung {
                    level,
                    levels,
                    stream,
                } => {
                    self.progressive
                        .rungs_cancelled
                        .fetch_add((levels - level) as u64, Ordering::Relaxed);
                    stream.finish();
                }
            }
        }
        if let Some(journal) = &self.journal {
            journal.close_session(id);
        }
        self.manager.close(id)
    }

    /// Progressive-mode counters: levels streamed, rungs cancelled,
    /// coarse cache hits.
    pub fn progressive_stats(&self) -> ProgressiveStats {
        ProgressiveStats {
            levels_streamed: self.progressive.levels_streamed.load(Ordering::Relaxed),
            rungs_cancelled: self.progressive.rungs_cancelled.load(Ordering::Relaxed),
            coarse_hits: self.progressive.coarse_hits.load(Ordering::Relaxed),
        }
    }

    /// Ids of all live sessions, ascending.
    pub fn ids(&self) -> Vec<SessionId> {
        self.manager.ids()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.manager.len()
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.manager.is_empty()
    }

    /// The per-session queue bound actually enforced (the configured
    /// value clamped to at least 1) — what a `QueueFull` error reports
    /// as `capacity`.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The underlying session registry — for synchronous access outside
    /// the pipeline (rendering a state snapshot, tests).
    pub fn manager(&self) -> &SessionManager {
        &self.manager
    }

    /// The shared worker pool (e.g. to co-schedule auxiliary jobs).
    pub fn pool(&self) -> &JobPool {
        &self.pool
    }

    /// Cache effectiveness counters (`None` when caching is disabled).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The shared analysis cache (`None` when disabled).
    pub fn cache(&self) -> Option<&AnalysisCache> {
        self.cache.as_deref()
    }

    /// The write-ahead command journal (`None` when not configured).
    pub fn journal(&self) -> Option<&SessionJournal> {
        self.journal.as_deref()
    }

    /// Journal depth/bytes/fsync counters (`None` when not configured).
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal.as_ref().map(|j| j.stats())
    }

    /// Monitoring snapshot of every live session, ascending by id — the
    /// `GET /sessions` resource.
    pub fn session_infos(&self) -> Vec<SessionInfo> {
        let queues: Vec<Arc<SessionQueue>> = self.queues.lock().values().cloned().collect();
        let now = Instant::now();
        let mut infos: Vec<SessionInfo> = queues
            .iter()
            .map(|q| {
                let st = q.state.lock();
                SessionInfo {
                    id: q.id,
                    pending: st.pending.len(),
                    journal_seq: self.journal.as_ref().and_then(|j| j.seq_of(q.id)),
                    idle: now.saturating_duration_since(st.last_activity),
                }
            })
            .collect();
        infos.sort_unstable_by_key(|info| info.id);
        infos
    }

    /// Replays every journal file in the configured directory over
    /// `tables` (registered name → table), rebuilding each journaled
    /// session under its original id and warming the analysis cache
    /// bit-identically — every replayed response is digest-checked
    /// against the recorded digest, so divergence is a typed
    /// [`RecoveryError`], never silent.
    ///
    /// Damage is contained per session: a corrupt or torn tail is
    /// cleanly cut back to the longest valid prefix (the file is
    /// physically truncated, and the session lives on at the prefix
    /// state). A record whose frame verifies but whose payload is
    /// refused, or whose replay diverges from its recorded outcome, was
    /// acknowledged: the whole file is first copied to
    /// `*.jnl.diverged-<k>` (`k` = the first record not kept; `.1`,
    /// `.2`, … appended when that name is taken), and only then cut
    /// back. A file whose head is unreadable is set aside as
    /// `*.jnl.corrupt`; a cleanly closed journal is removed. All of it
    /// is reported in the [`RecoveryReport`].
    ///
    /// # Errors
    /// [`BlaeuError::Invalid`] when no journal is configured; journal
    /// directory scan failures as [`BlaeuError::Store`]. Per-session
    /// problems are report entries, not errors.
    pub fn recover(&self, tables: &HashMap<String, Arc<Table>>) -> Result<RecoveryReport> {
        let journal = self
            .journal
            .as_ref()
            .ok_or_else(|| BlaeuError::Invalid("no journal directory configured".into()))?;
        let mut report = RecoveryReport::default();
        for id in journal.scan().map_err(BlaeuError::from_io)? {
            self.recover_session(journal, id, tables, &mut report);
        }
        Ok(report)
    }

    /// Replays one journal file; all failure modes land in `report`.
    fn recover_session(
        &self,
        journal: &Arc<SessionJournal>,
        id: SessionId,
        tables: &HashMap<String, Arc<Table>>,
        report: &mut RecoveryReport,
    ) {
        let path = journal_path(journal.dir(), id);
        let read = match read_journal(&path) {
            Ok(read) => read,
            Err(e) => {
                report.errors.push(RecoveryError::Io {
                    session: id,
                    detail: e.to_string(),
                });
                return;
            }
        };
        // A close record anywhere means the session ended cleanly (the
        // delete just never happened); drop the file.
        if read
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::Close { .. }))
        {
            let _ = std::fs::remove_file(&path);
            report.closed += 1;
            return;
        }
        let Some(JournalRecord::Open { table, seed, .. }) = read.records.first() else {
            // Head unreadable (or first record is not `open`): nothing
            // recoverable. Set the file aside so the next restart does
            // not trip over it again.
            let detail = read.defect.as_ref().map_or_else(
                || "journal does not start with an open record".to_owned(),
                |d| d.detail.clone(),
            );
            let _ = std::fs::rename(&path, path.with_extension("jnl.corrupt"));
            report.errors.push(RecoveryError::CorruptHead {
                session: id,
                detail,
            });
            return;
        };
        if let Some(defect) = &read.defect {
            if defect.refused {
                // The frame verifies, so the record (and everything after
                // it) was acknowledged: set the whole file aside before
                // cutting it back, or leave it untouched if that fails.
                let sidecar = match set_aside(&path, defect.record) {
                    Ok(sidecar) => sidecar,
                    Err(e) => {
                        report.errors.push(RecoveryError::Io {
                            session: id,
                            detail: e.to_string(),
                        });
                        return;
                    }
                };
                truncate(&path, read.valid_bytes);
                report.errors.push(RecoveryError::Refused {
                    session: id,
                    record: defect.record,
                    detail: defect.detail.clone(),
                    sidecar,
                });
            } else {
                // Torn/corrupt tail, never acknowledged: physically
                // truncate to the valid prefix and replay what survived.
                truncate(&path, read.valid_bytes);
                report.errors.push(RecoveryError::TruncatedTail {
                    session: id,
                    valid_records: read.records.len(),
                    detail: defect.detail.clone(),
                });
            }
        }
        let Some(table_arc) = tables.get(table) else {
            report.errors.push(RecoveryError::UnknownTable {
                session: id,
                table: table.clone(),
            });
            return;
        };
        let config = {
            let mut config = ExplorerConfig::default();
            config.mapper.seed = *seed;
            config
        };
        let memo = self
            .cache
            .as_ref()
            .map(|c| Arc::clone(c) as Arc<dyn AnalysisMemo>);
        if let Err(error) =
            self.manager
                .restore_shared_memoized(id, Arc::clone(table_arc), config, memo)
        {
            report.errors.push(RecoveryError::Replay {
                session: id,
                seq: 0,
                detail: error.to_string(),
            });
            return;
        }
        // Replay, digest-checking every step. On divergence: set the
        // journal aside, cut it back to the last verified record and keep
        // the session at that state.
        let mut verified_bytes = 0u64;
        let mut last_seq = 0u64;
        for (index, record) in read.records.iter().enumerate() {
            let record_end = read.record_ends[index];
            let JournalRecord::Command {
                seq,
                command,
                outcome,
            } = record
            else {
                verified_bytes = record_end;
                continue;
            };
            let result = run_guarded(|| {
                self.manager
                    .with(id, |explorer| explorer.execute(command))
                    .and_then(|inner| inner)
            });
            if outcome.matches(&result) {
                verified_bytes = record_end;
                last_seq = *seq;
                report.replayed += 1;
            } else {
                let sidecar = match set_aside(&path, index) {
                    Ok(sidecar) => sidecar,
                    Err(e) => {
                        // The journal stays whole and the session is not
                        // restored.
                        let _ = self.manager.close(id);
                        report.errors.push(RecoveryError::Io {
                            session: id,
                            detail: e.to_string(),
                        });
                        return;
                    }
                };
                truncate(&path, verified_bytes);
                report.errors.push(RecoveryError::DigestMismatch {
                    session: id,
                    seq: *seq,
                    expected: outcome.clone(),
                    detail: match &result {
                        Ok(response) => format!("replay digest {:016x}", response.digest()),
                        Err(error) => format!("replay error kind {:?}", error.kind()),
                    },
                    sidecar,
                });
                break;
            }
        }
        if let Err(e) = journal.adopt_session(id, last_seq) {
            report.errors.push(RecoveryError::Io {
                session: id,
                detail: e.to_string(),
            });
        }
        self.install_queue(id);
        report.sessions.push(id);
    }
}

/// One contained per-session problem [`AsyncSessionServer::recover`]
/// hit (the rest of the directory still recovers).
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The journal head is unreadable — file set aside as
    /// `*.jnl.corrupt`, session not restored.
    CorruptHead {
        /// Session id from the file name.
        session: SessionId,
        /// What failed.
        detail: String,
    },
    /// A corrupt/torn tail was cut back to the valid prefix; the
    /// session recovered up to it.
    TruncatedTail {
        /// Session id.
        session: SessionId,
        /// Records that survived.
        valid_records: usize,
        /// What the checksum/framing check reported.
        detail: String,
    },
    /// A record's frame verifies but this build refuses its payload (a
    /// retired command, say). The whole journal was copied to `sidecar`,
    /// then cut back to the record before it; the session recovered up
    /// to there.
    Refused {
        /// Session id.
        session: SessionId,
        /// Index of the refused record (0 = `open`).
        record: usize,
        /// Why the payload was refused.
        detail: String,
        /// The `*.jnl.diverged-<record>[.<n>]` copy of the pre-recovery
        /// file.
        sidecar: PathBuf,
    },
    /// A replayed command's outcome did not match the recorded one —
    /// the table or build changed under the journal. The whole journal
    /// was copied to `sidecar`, then cut back to the last verified
    /// record.
    DigestMismatch {
        /// Session id.
        session: SessionId,
        /// Sequence of the diverging command.
        seq: u64,
        /// The recorded outcome.
        expected: RecordedOutcome,
        /// What replay produced instead.
        detail: String,
        /// The `*.jnl.diverged-<record>[.<n>]` copy of the pre-recovery
        /// file.
        sidecar: PathBuf,
    },
    /// The journal names a table that is not registered.
    UnknownTable {
        /// Session id.
        session: SessionId,
        /// The missing table name.
        table: String,
    },
    /// Session restore itself failed (id collision, explorer open).
    Replay {
        /// Session id.
        session: SessionId,
        /// Sequence at failure (0 = before any command).
        seq: u64,
        /// The engine error.
        detail: String,
    },
    /// Filesystem failure reading or re-attaching the journal.
    Io {
        /// Session id.
        session: SessionId,
        /// The I/O error.
        detail: String,
    },
}

/// What [`AsyncSessionServer::recover`] rebuilt.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Sessions restored (live again under their original ids).
    pub sessions: Vec<SessionId>,
    /// Commands replayed with verified outcomes, across all sessions.
    pub replayed: u64,
    /// Journal files of cleanly closed sessions (removed, not restored).
    pub closed: usize,
    /// Contained per-session problems, in session order.
    pub errors: Vec<RecoveryError>,
}

/// Cuts the journal at `path` back to `len` bytes (best effort: a file
/// that cannot be opened stays as it is).
fn truncate(path: &Path, len: u64) {
    if let Ok(file) = std::fs::OpenOptions::new().write(true).open(path) {
        let _ = file.set_len(len);
    }
}

/// Runs one command to a `Result`, converting a panic in the analysis
/// code into an error instead of unwinding. Unwinding out of `drain`
/// would strand the command's slot (its client would block forever) and
/// leave the session's `active` flag set (wedging the whole session) —
/// the drain job's own pool handle is deliberately detached, so nobody
/// would ever observe the payload.
fn run_guarded(f: impl FnOnce() -> Result<Response>) -> Result<Response> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Err(BlaeuError::Invalid(format!("command panicked: {message}")))
    })
}

/// Enqueues a drain job for `queue` onto the pool. Jobs hold only a
/// [`Weak`](std::sync::Weak) pool reference — a strong one stored inside
/// the pool's own queue would keep the pool alive through its own jobs
/// (a reference cycle whose last `Arc` could then drop on a worker).
/// `pool` is the strong handle of whoever is scheduling right now.
fn schedule_drain(
    ctx: Arc<DrainCtx>,
    weak_pool: std::sync::Weak<JobPool>,
    queue: Arc<SessionQueue>,
    pool: &JobPool,
) {
    // The handle is intentionally detached — every command's own
    // ResponseSlot is the join point, and drain never panics
    // (run_guarded converts command panics into errors).
    let _detached = pool.submit(move || drain(&ctx, &weak_pool, &queue));
}

/// Runs one command for `queue`'s session, journaling the acknowledgement
/// write-ahead (the record is on disk before any client can observe the
/// result) and counting a coarse cache hit when the command is a
/// progressive level answered from the analysis cache.
fn execute_one(ctx: &DrainCtx, queue: &SessionQueue, command: &Command) -> Result<Response> {
    let progressive_level = matches!(command, Command::MapProgressive | Command::MapRefine { .. });
    let hits_before = match (&ctx.cache, progressive_level) {
        (Some(cache), true) => Some(cache.hit_count()),
        _ => None,
    };
    let result = run_guarded(|| {
        ctx.manager
            .with(queue.id, |explorer| explorer.execute(command))
            .and_then(|inner| inner)
    });
    if let Some(journal) = &ctx.journal {
        journal.append_command(queue.id, command, &RecordedOutcome::of(&result));
    }
    if let (Some(before), Some(cache), Ok(_)) = (hits_before, &ctx.cache, &result) {
        // Approximate by design: concurrent sessions' hits can land in
        // the same window, so this can over-count under contention — a
        // monitoring signal, not an invariant.
        if cache.hit_count() > before {
            ctx.progressive.coarse_hits.fetch_add(1, Ordering::Relaxed);
        }
    }
    queue.state.lock().last_activity = Instant::now();
    result
}

/// Re-enqueues the next rung of an in-flight ladder — unless the session
/// closed or a client command is already pending (which supersedes the
/// ladder), in which case the stream terminates and the remaining rungs
/// count as cancelled.
fn enqueue_rung(
    ctx: &DrainCtx,
    queue: &SessionQueue,
    level: usize,
    levels: usize,
    stream: Arc<DeltaStream>,
) {
    let cancelled = {
        let mut st = queue.state.lock();
        if st.closed
            || st
                .pending
                .iter()
                .any(|item| matches!(item, QueueItem::User { .. }))
        {
            true
        } else {
            st.pending.push_back(QueueItem::Rung {
                level,
                levels,
                stream: Arc::clone(&stream),
            });
            false
        }
    };
    if cancelled {
        ctx.progressive
            .rungs_cancelled
            .fetch_add((levels - level) as u64, Ordering::Relaxed);
        stream.finish();
    }
}

/// Drains one session's queue: pops and executes commands in FIFO order,
/// fulfilling each command's slot (or pushing each rung's delta on its
/// stream). Runs on a pool worker; at most one instance exists per
/// session (the `active` flag), which is the whole serialization story.
/// After [`DRAIN_BATCH`] items the job re-enqueues itself at the back of
/// the pool FIFO so one busy session cannot pin a worker; when the pool
/// is gone or shutting down (server teardown), the re-enqueue degrades
/// to draining inline, so every slot still resolves and every stream
/// terminates.
fn drain(ctx: &Arc<DrainCtx>, weak_pool: &std::sync::Weak<JobPool>, queue: &Arc<SessionQueue>) {
    let mut executed = 0usize;
    loop {
        if executed == DRAIN_BATCH {
            if let Some(pool) = weak_pool.upgrade() {
                {
                    // Don't schedule a guaranteed no-op continuation for
                    // a batch-aligned burst: retire here if nothing is
                    // pending.
                    let mut st = queue.state.lock();
                    if st.pending.is_empty() {
                        st.active = false;
                        return;
                    }
                }
                schedule_drain(
                    Arc::clone(ctx),
                    std::sync::Weak::clone(weak_pool),
                    Arc::clone(queue),
                    &pool,
                );
                return;
            }
            // Pool gone (server tearing down): keep draining inline so
            // no accepted handle is stranded.
            executed = 0;
        }
        let next = {
            let mut st = queue.state.lock();
            match st.pending.pop_front() {
                Some(item) => item,
                None => {
                    // Retire under the lock: a submit that raced us saw
                    // `active == true` only while its command was still
                    // in `pending` — which we just proved empty.
                    st.active = false;
                    return;
                }
            }
        };
        match next {
            QueueItem::User {
                command,
                slot,
                stream,
            } => {
                let result = execute_one(ctx, queue, &command);
                // A progressive command's follow-up rungs are decided
                // *before* the handle resolves, off the delta the
                // execution produced.
                let continuation = match (&result, stream) {
                    (Ok(Response::MapDelta { delta, .. }), Some(stream)) => {
                        ctx.progressive
                            .levels_streamed
                            .fetch_add(1, Ordering::Relaxed);
                        if delta.final_level {
                            stream.finish();
                            None
                        } else {
                            Some((delta.level + 1, delta.levels, stream))
                        }
                    }
                    (_, Some(stream)) => {
                        // The progressive command itself failed (or
                        // answered a non-delta): nothing will refine.
                        stream.finish();
                        None
                    }
                    (_, None) => None,
                };
                slot.fulfil(result);
                if let Some((level, levels, stream)) = continuation {
                    enqueue_rung(ctx, queue, level, levels, stream);
                }
            }
            QueueItem::Rung {
                level,
                levels: _,
                stream,
            } => {
                let command = Command::MapRefine { level };
                let result = execute_one(ctx, queue, &command);
                let continuation = match &result {
                    Ok(Response::MapDelta { delta, .. }) => {
                        ctx.progressive
                            .levels_streamed
                            .fetch_add(1, Ordering::Relaxed);
                        (!delta.final_level).then(|| (delta.level + 1, delta.levels))
                    }
                    // A failed rung (e.g. the session closed under it)
                    // ends the ladder; the error is the stream's last
                    // entry.
                    _ => None,
                };
                let finished = continuation.is_none();
                stream.push(result);
                if finished {
                    stream.finish();
                } else if let Some((next_level, next_levels)) = continuation {
                    enqueue_rung(ctx, queue, next_level, next_levels, stream);
                }
            }
        }
        executed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_store::generate::{oecd, OecdConfig};
    use std::sync::Barrier;

    fn shared_table() -> Arc<Table> {
        Arc::new(
            oecd(&OecdConfig {
                nrows: 250,
                ncols: 24,
                missing_rate: 0.0,
                ..OecdConfig::default()
            })
            .unwrap()
            .0,
        )
    }

    fn server(threads: usize, queue_capacity: usize, cache_capacity: usize) -> AsyncSessionServer {
        AsyncSessionServer::new(ServerConfig {
            threads,
            queue_capacity,
            cache_capacity,
            ..ServerConfig::default()
        })
    }

    #[test]
    fn submit_executes_and_responds() {
        let srv = server(2, 16, 16);
        let id = srv
            .open_session(shared_table(), ExplorerConfig::default())
            .unwrap();
        let themes = srv.request(id, Command::Themes).unwrap();
        let Response::Themes(themes) = themes else {
            panic!("wrong response kind");
        };
        assert!(themes.themes.len() >= 2);
        let map = srv.request(id, Command::SelectTheme(0)).unwrap();
        assert!(matches!(map, Response::Map(_)));
        let depth = srv.request(id, Command::Depth).unwrap();
        assert!(matches!(depth, Response::Depth(2)));
        srv.close(id).unwrap();
        assert!(srv.is_empty());
    }

    #[test]
    fn unknown_session_rejected_on_submit() {
        let srv = server(1, 4, 0);
        assert!(matches!(
            srv.submit(999, Command::Depth),
            Err(BlaeuError::UnknownSession(999))
        ));
    }

    #[test]
    fn command_errors_travel_through_the_pipeline() {
        let srv = server(1, 8, 0);
        let id = srv
            .open_session(shared_table(), ExplorerConfig::default())
            .unwrap();
        assert!(matches!(
            srv.request(id, Command::Zoom(0)),
            Err(BlaeuError::NoActiveMap)
        ));
        assert!(matches!(
            srv.request(id, Command::SelectTheme(999)),
            Err(BlaeuError::UnknownTheme(999))
        ));
        // The pipeline survives errors: later commands still execute.
        assert!(matches!(
            srv.request(id, Command::Depth),
            Ok(Response::Depth(1))
        ));
    }

    #[test]
    fn backpressure_when_queue_is_full() {
        let srv = server(1, 2, 0);
        let id = srv
            .open_session(shared_table(), ExplorerConfig::default())
            .unwrap();
        // Park the only worker so queued commands cannot drain.
        let gate = Arc::new(Barrier::new(2));
        let parked = {
            let gate = Arc::clone(&gate);
            srv.pool().submit(move || {
                gate.wait();
            })
        };
        let a = srv.submit(id, Command::Depth).unwrap();
        let b = srv.submit(id, Command::Depth).unwrap();
        let overflow = srv.submit(id, Command::Depth);
        assert!(
            matches!(
                overflow,
                Err(BlaeuError::QueueFull {
                    session,
                    pending: 2,
                    capacity: 2,
                }) if session == id
            ),
            "expected backpressure, got {overflow:?}"
        );
        gate.wait();
        parked.join();
        assert!(matches!(a.join(), Ok(Response::Depth(1))));
        assert!(matches!(b.join(), Ok(Response::Depth(1))));
        // Capacity freed: submitting works again.
        assert!(matches!(
            srv.request(id, Command::Depth),
            Ok(Response::Depth(1))
        ));
    }

    #[test]
    fn zero_capacity_clamp_is_reflected_in_queue_full_reports() {
        // queue_capacity: 0 is clamped to 1 at construction; the clamped
        // value must be what QueueFull reports — a client told
        // "capacity 0" could never compute a sane backoff.
        let srv = server(1, 0, 0);
        assert_eq!(srv.queue_capacity(), 1);
        let id = srv
            .open_session(shared_table(), ExplorerConfig::default())
            .unwrap();
        let gate = Arc::new(Barrier::new(2));
        let parked = {
            let gate = Arc::clone(&gate);
            srv.pool().submit(move || {
                gate.wait();
            })
        };
        let accepted = srv.submit(id, Command::Depth).unwrap();
        let overflow = srv.submit(id, Command::Depth);
        assert!(
            matches!(
                overflow,
                Err(BlaeuError::QueueFull {
                    pending: 1,
                    capacity: 1,
                    ..
                })
            ),
            "clamped capacity not reported: {overflow:?}"
        );
        let pending: Vec<_> = srv
            .session_infos()
            .iter()
            .map(|i| (i.id, i.pending))
            .collect();
        assert_eq!(pending, vec![(id, 1)]);
        gate.wait();
        parked.join();
        assert!(accepted.join().is_ok());
    }

    #[test]
    fn close_rejects_queued_commands_without_deadlock() {
        let srv = server(1, 8, 0);
        let id = srv
            .open_session(shared_table(), ExplorerConfig::default())
            .unwrap();
        let gate = Arc::new(Barrier::new(2));
        let parked = {
            let gate = Arc::clone(&gate);
            srv.pool().submit(move || {
                gate.wait();
            })
        };
        // Three commands queue behind the parked worker.
        let handles: Vec<ResponseHandle> = (0..3)
            .map(|_| srv.submit(id, Command::Depth).unwrap())
            .collect();
        srv.close(id).unwrap();
        gate.wait();
        parked.join();
        // Every handle resolves — with UnknownSession, not a hang.
        for handle in handles {
            assert!(matches!(
                handle.join(),
                Err(BlaeuError::UnknownSession(s)) if s == id
            ));
        }
        // The session is gone for future submits too.
        assert!(matches!(
            srv.submit(id, Command::Depth),
            Err(BlaeuError::UnknownSession(_))
        ));
        assert!(srv.is_empty());
    }

    #[test]
    fn close_racing_inflight_command_resolves_cleanly() {
        let srv = server(2, 8, 0);
        let id = srv
            .open_session(shared_table(), ExplorerConfig::default())
            .unwrap();
        // A slow command starts executing, then the session closes under
        // it. Whatever the interleaving, the handle must resolve: either
        // the command finished first (Ok) or lost the race
        // (UnknownSession).
        let slow = srv.submit(id, Command::SelectTheme(0)).unwrap();
        srv.close(id).unwrap();
        match slow.join() {
            Ok(Response::Map(_)) => {}
            Err(BlaeuError::UnknownSession(s)) => assert_eq!(s, id),
            other => panic!("unexpected resolution: {other:?}"),
        }
        assert!(srv.is_empty());
    }

    #[test]
    fn sessions_overlap_but_commands_within_a_session_are_fifo() {
        let srv = server(4, 32, 0);
        let table = shared_table();
        let ids: Vec<SessionId> = (0..4)
            .map(|_| {
                srv.open_session(Arc::clone(&table), ExplorerConfig::default())
                    .unwrap()
            })
            .collect();
        // Per session: a pipeline whose steps only make sense in order.
        let handles: Vec<Vec<ResponseHandle>> = ids
            .iter()
            .map(|&id| {
                vec![
                    srv.submit(id, Command::SelectTheme(0)).unwrap(),
                    srv.submit(id, Command::Zoom(0)).unwrap(),
                    srv.submit(id, Command::Rollback).unwrap(),
                    srv.submit(id, Command::Rollback).unwrap(),
                    srv.submit(id, Command::Depth).unwrap(),
                ]
            })
            .collect();
        for per_session in handles {
            let mut finished = Vec::new();
            let responses: Vec<Result<Response>> = per_session
                .into_iter()
                .map(|h| {
                    let r = h.join();
                    finished.push(Instant::now());
                    r
                })
                .collect();
            assert!(matches!(responses[0], Ok(Response::Map(_))));
            assert!(
                matches!(responses[1], Ok(Response::Map(_))),
                "zoom needs the map built by the earlier select_theme"
            );
            assert!(matches!(responses[2], Ok(Response::Depth(2))));
            assert!(matches!(responses[3], Ok(Response::Depth(1))));
            assert!(matches!(responses[4], Ok(Response::Depth(1))));
        }
        for id in ids {
            srv.close(id).unwrap();
        }
    }

    #[test]
    fn busy_sessions_cannot_starve_a_newcomer() {
        let srv = server(2, 64, 0);
        let table = shared_table();
        let hog_a = srv
            .open_session(Arc::clone(&table), ExplorerConfig::default())
            .unwrap();
        let hog_b = srv
            .open_session(Arc::clone(&table), ExplorerConfig::default())
            .unwrap();
        let newcomer = srv
            .open_session(Arc::clone(&table), ExplorerConfig::default())
            .unwrap();
        // Park both workers so the hog queues actually build depth
        // (unblocked, µs-fast commands would drain as fast as the test
        // submits them and prove nothing).
        let gate = Arc::new(Barrier::new(3));
        let blockers: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                srv.pool().submit(move || {
                    gate.wait();
                })
            })
            .collect();
        // Two sessions preload deep queues (> 2 × DRAIN_BATCH each), then
        // a third session submits one command. Batched draining requeues
        // the hogs' drain jobs behind the newcomer's, so the newcomer
        // must complete while the hogs still have work outstanding —
        // without the batch cap, both workers would be pinned until a
        // hog queue emptied.
        let hog_handles: Vec<ResponseHandle> = [hog_a, hog_b]
            .iter()
            .flat_map(|&id| {
                (0..12)
                    .map(|_| srv.submit(id, Command::Depth).unwrap())
                    .collect::<Vec<_>>()
            })
            .collect();
        let nc = srv.submit(newcomer, Command::Depth).unwrap();
        gate.wait();
        for blocker in blockers {
            blocker.join();
        }
        nc.wait();
        let nc_done = nc.finished_at().expect("waited");
        assert!(matches!(nc.join(), Ok(Response::Depth(1))));
        let last_hog = hog_handles
            .into_iter()
            .map(|h| {
                h.wait();
                let at = h.finished_at().expect("waited");
                h.join().unwrap();
                at
            })
            .max()
            .unwrap();
        assert!(
            nc_done < last_hog,
            "newcomer must not wait for the busy sessions to fully drain"
        );
    }

    #[test]
    fn panicking_command_resolves_as_error_not_a_wedge() {
        // A panic anywhere under Explorer::execute must become an error
        // on the command's own handle — unwinding out of the drain job
        // would strand the slot and wedge the session forever (the
        // drain job's pool handle is detached, so its captured payload
        // is observable by no one).
        let guarded = run_guarded(|| panic!("analysis exploded"));
        match guarded {
            Err(BlaeuError::Invalid(message)) => {
                assert!(message.contains("analysis exploded"), "{message}")
            }
            other => panic!("panic not converted: {other:?}"),
        }
        let string_payload = run_guarded(|| panic!("{}", "formatted {} payload"));
        assert!(matches!(string_payload, Err(BlaeuError::Invalid(_))));
    }

    #[test]
    fn progressive_streams_deltas_until_exact() {
        let srv = server(2, 8, 64);
        let id = srv
            .open_session(shared_table(), ExplorerConfig::default())
            .unwrap();
        srv.request(id, Command::SelectTheme(0)).unwrap();
        let exact = srv.request(id, Command::Map).unwrap().digest();

        let (first, stream) = srv.submit_progressive(id).unwrap();
        let first = first.join().unwrap();
        let Response::MapDelta { delta, .. } = &first else {
            panic!("expected level-0 delta, got {first:?}");
        };
        assert_eq!(delta.level, 0);
        assert!(delta.levels >= 2, "250 rows must ladder");
        let mut last_digest = delta.map_digest;
        let mut saw_final = delta.final_level;
        while let Some(result) = stream.next() {
            let refined = result.unwrap();
            let Response::MapDelta { delta, .. } = &refined else {
                panic!("expected a delta, got {refined:?}");
            };
            last_digest = delta.map_digest;
            saw_final = delta.final_level;
        }
        assert!(saw_final, "stream must end at the exact level");
        // The final rung is byte-identical to the plain Command::Map.
        assert_eq!(last_digest, exact);
        let stats = srv.progressive_stats();
        assert!(stats.levels_streamed >= 2, "{stats:?}");
        assert_eq!(stats.rungs_cancelled, 0, "{stats:?}");
        srv.close(id).unwrap();
    }

    #[test]
    fn superseding_command_cancels_pending_rungs() {
        let srv = server(1, 8, 0);
        let id = srv
            .open_session(shared_table(), ExplorerConfig::default())
            .unwrap();
        srv.request(id, Command::SelectTheme(0)).unwrap();
        // Park the only worker, then line up [MapProgressive, Depth]:
        // whatever the drain interleaving, the Depth command supersedes
        // the ladder before any rung can run.
        let gate = Arc::new(Barrier::new(2));
        let parked = {
            let gate = Arc::clone(&gate);
            srv.pool().submit(move || {
                gate.wait();
            })
        };
        let (first, stream) = srv.submit_progressive(id).unwrap();
        let superseder = srv.submit(id, Command::Depth).unwrap();
        gate.wait();
        parked.join();
        // Level 0 still resolves on its handle…
        assert!(matches!(first.join(), Ok(Response::MapDelta { .. })));
        assert!(superseder.join().is_ok());
        // …but the stream terminates without any refinement.
        assert!(stream.next().is_none());
        let stats = srv.progressive_stats();
        assert_eq!(stats.rungs_cancelled, 1, "{stats:?}");
        assert_eq!(stats.levels_streamed, 1, "{stats:?}");
        srv.close(id).unwrap();
    }

    #[test]
    fn close_racing_refinement_cancels_rungs_and_resolves_handles() {
        // Regression: a close racing an in-flight refinement must cancel
        // the remaining rungs (the delta stream terminates — no consumer
        // hangs) while still resolving every accepted handle. Loop a few
        // times to hit different interleavings of close vs. level 0 vs.
        // rung execution.
        for _ in 0..5 {
            let srv = server(2, 8, 16);
            let id = srv
                .open_session(shared_table(), ExplorerConfig::default())
                .unwrap();
            let select = srv.submit(id, Command::SelectTheme(0)).unwrap();
            let (first, stream) = srv.submit_progressive(id).unwrap();
            srv.close(id).unwrap();
            // Every accepted handle resolves — executed or rejected.
            match select.join() {
                Ok(Response::Map(_)) | Err(BlaeuError::UnknownSession(_)) => {}
                other => panic!("select handle resolution: {other:?}"),
            }
            match first.join() {
                Ok(Response::MapDelta { .. }) | Err(BlaeuError::UnknownSession(_)) => {}
                other => panic!("progressive handle resolution: {other:?}"),
            }
            // The stream terminates: rungs either refined before the
            // close won, failed against the closed session, or were
            // swept — in all cases `next` reaches None instead of
            // blocking forever.
            while let Some(result) = stream.next() {
                match result {
                    Ok(Response::MapDelta { .. }) | Err(BlaeuError::UnknownSession(_)) => {}
                    other => panic!("rung resolution: {other:?}"),
                }
            }
            assert!(stream.is_finished());
            assert!(srv.is_empty());
        }
    }

    #[test]
    fn cache_hits_after_identical_commands_across_sessions() {
        let srv = server(2, 8, 64);
        let table = shared_table();
        let a = srv
            .open_session(Arc::clone(&table), ExplorerConfig::default())
            .unwrap();
        let b = srv
            .open_session(Arc::clone(&table), ExplorerConfig::default())
            .unwrap();
        // Session b's theme detection already hit (same table+config).
        let after_open = srv.cache_stats().unwrap();
        assert!(after_open.hits >= 1, "{after_open:?}");
        let ra = srv.request(a, Command::SelectTheme(0)).unwrap();
        let before = srv.cache_stats().unwrap();
        let rb = srv.request(b, Command::SelectTheme(0)).unwrap();
        let after = srv.cache_stats().unwrap();
        assert_eq!(
            after.hits,
            before.hits + 1,
            "identical map request must hit"
        );
        // Bit-identical payloads (same digest — and in fact same Arc).
        assert_eq!(ra.digest(), rb.digest());
        if let (Response::Map(ma), Response::Map(mb)) = (&ra, &rb) {
            assert!(Arc::ptr_eq(ma, mb));
        } else {
            panic!("expected maps");
        }
    }
}
