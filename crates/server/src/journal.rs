//! The write-ahead command journal.
//!
//! A session is an ordered trail of commands, and the wire JSON of
//! [`Command`] is already its serialization — so durability is "NDJSON
//! on disk": every accepted command appends one framed record to its
//! session's journal file *before* the client sees the response.
//! Replaying a journal over the same table rebuilds the session's state
//! (and warms the analysis cache) bit-identically, which recovery
//! verifies against the recorded response digests.
//!
//! ## Record framing
//!
//! One record per line, each line self-checking (the same FNV-1a word
//! fold the column snapshot format uses, via
//! [`blaeu_store::checksum64`]):
//!
//! ```text
//! J1 <len:08x> <checksum:016x> <payload JSON>\n
//! ```
//!
//! `len` is the payload byte length, `checksum` is `checksum64(payload)`.
//! A torn tail (power loss mid-append) fails the length or checksum test
//! and is cleanly truncated at recovery; everything before it replays.
//!
//! ## Record payloads
//!
//! All payloads carry the same `"v": 1` envelope as the wire protocol —
//! the on-disk and on-wire contracts are one schema:
//!
//! | kind      | fields |
//! |-----------|--------|
//! | `open`    | `session`, `table` (registered name), `seed`, `seq: 0` |
//! | `command` | `session`, `seq` (monotonic from 1), `cmd` (wire JSON), and the outcome: `digest` (hex [`Response::digest`]) or `error` (the [`blaeu_core::BlaeuError::kind`] tag) |
//! | `close`   | `session`, `seq` |

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use serde_json::{json, Value};

use blaeu_core::{Command, Response, Result, SessionId};
use blaeu_store::checksum64;

/// When journal appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync — the OS page cache decides (fastest; a machine crash
    /// may lose the tail, a process crash loses nothing).
    Never,
    /// fsync after every record (slowest, zero-loss on machine crash).
    Always,
    /// Group commit: once `n` records have accumulated **across all
    /// sessions** since the last sweep, one sweep `sync_data`s every
    /// dirty file. Under concurrent sessions this batches what would be
    /// one fsync per session per `n` records into one sweep per `n`
    /// records fleet-wide.
    EveryN(u64),
}

/// Wire-schema version the journal shares with the command protocol.
const RECORD_VERSION: u64 = Command::WIRE_VERSION;

/// Per-line framing prefix: tag, 8 hex digits of payload length, 16 hex
/// digits of payload checksum, each space-separated.
const FRAME_TAG: &str = "J1";
const FRAME_HEADER_LEN: usize = 2 + 1 + 8 + 1 + 16 + 1;

/// What one journal record says happened.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Session opened over a registered table.
    Open {
        /// The session id the journal file belongs to.
        session: SessionId,
        /// Registered table name to re-open over at recovery.
        table: String,
        /// The mapper seed the session was opened with (the only config
        /// knob the wire contract exposes).
        seed: u64,
    },
    /// One executed command and its verified outcome.
    Command {
        /// Monotonic per-session sequence (1-based; `open` is 0).
        seq: u64,
        /// The command, round-tripped through its wire JSON.
        command: Command,
        /// Digest of the response (`Ok`) or the error's kind tag (`Err`)
        /// — what replay checks itself against.
        outcome: RecordedOutcome,
    },
    /// Session closed cleanly — recovery skips the whole file.
    Close {
        /// Sequence of the close record.
        seq: u64,
    },
}

/// The recorded outcome of one executed command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordedOutcome {
    /// The command succeeded; [`Response::digest`] of its response.
    Digest(u64),
    /// The command failed; [`blaeu_core::BlaeuError::kind`] of its error. Errors
    /// leave explorer state unchanged, so replaying one only needs the
    /// kind to match.
    Error(String),
}

impl RecordedOutcome {
    /// Captures the outcome of a just-executed command.
    pub fn of(result: &Result<Response>) -> RecordedOutcome {
        match result {
            Ok(response) => RecordedOutcome::Digest(response.digest()),
            Err(error) => RecordedOutcome::Error(error.kind().to_owned()),
        }
    }

    /// True when a replayed result matches this recorded outcome.
    pub fn matches(&self, result: &Result<Response>) -> bool {
        match (self, result) {
            (RecordedOutcome::Digest(digest), Ok(response)) => *digest == response.digest(),
            (RecordedOutcome::Error(kind), Err(error)) => kind == error.kind(),
            _ => false,
        }
    }
}

/// Why a journal file's tail (or head) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDefect {
    /// Index of the first bad record (0 = the file head is corrupt —
    /// nothing is recoverable).
    pub record: usize,
    /// What failed: framing, checksum, or payload shape.
    pub detail: String,
    /// The record's frame and checksum verify but its payload is refused
    /// (a command or record shape this build does not read). Such bytes
    /// were acknowledged, so recovery sets them aside instead of
    /// dropping them like a torn tail.
    pub refused: bool,
}

/// A journal file parsed up to its first defect.
#[derive(Debug)]
pub struct ReadJournal {
    /// Raw payload JSON of each valid record, in order — what the
    /// history endpoint streams verbatim.
    pub lines: Vec<String>,
    /// Parsed form of the same records.
    pub records: Vec<JournalRecord>,
    /// File offset one past each valid record — `record_ends[i]` is the
    /// length to truncate to in order to keep records `0..=i`.
    pub record_ends: Vec<u64>,
    /// Bytes of the valid prefix — truncate the file to this length to
    /// drop a corrupt tail.
    pub valid_bytes: u64,
    /// The first defect, if any (records past it are not represented).
    pub defect: Option<JournalDefect>,
}

/// Path of session `id`'s journal file under `dir`.
pub fn journal_path(dir: &Path, id: SessionId) -> PathBuf {
    dir.join(format!("session-{id}.jnl"))
}

/// Session id encoded in a journal file name (`session-<id>.jnl`).
fn journal_file_id(name: &str) -> Option<SessionId> {
    name.strip_prefix("session-")?
        .strip_suffix(".jnl")?
        .parse()
        .ok()
}

/// Frames `payload` as one journal line.
fn frame(payload: &str) -> String {
    let mut line = String::with_capacity(FRAME_HEADER_LEN + payload.len() + 1);
    use std::fmt::Write as _;
    writeln!(
        line,
        "{FRAME_TAG} {:08x} {:016x} {payload}",
        payload.len(),
        checksum64(payload.as_bytes())
    )
    .expect("string writer never fails"); // lint: allow(panic-hygiene) — write! into a String cannot fail (fmt::Write for String is infallible)
    line
}

/// Parses one framed record starting at `bytes[at..]`; returns the
/// payload slice and the offset one past the record's newline.
fn unframe(bytes: &[u8], at: usize) -> std::result::Result<(&str, usize), String> {
    let rest = &bytes[at..];
    if rest.len() < FRAME_HEADER_LEN {
        return Err(format!("{} header bytes of {FRAME_HEADER_LEN}", rest.len()));
    }
    let header = std::str::from_utf8(&rest[..FRAME_HEADER_LEN])
        .map_err(|_| "frame header is not UTF-8".to_owned())?;
    if &header[..2] != FRAME_TAG || &header[2..3] != " " || &header[11..12] != " " {
        return Err(format!(
            "bad frame tag {:?}",
            &header[..3.min(header.len())]
        ));
    }
    let len = usize::from_str_radix(&header[3..11], 16)
        .map_err(|_| format!("bad length field {:?}", &header[3..11]))?;
    let sum = u64::from_str_radix(&header[12..28], 16)
        .map_err(|_| format!("bad checksum field {:?}", &header[12..28]))?;
    let body_at = FRAME_HEADER_LEN;
    if rest.len() < body_at + len + 1 {
        return Err(format!(
            "record claims {len} payload bytes, {} remain",
            rest.len().saturating_sub(body_at)
        ));
    }
    let payload = &rest[body_at..body_at + len];
    if rest[body_at + len] != b'\n' {
        return Err("record is not newline-terminated".to_owned());
    }
    if checksum64(payload) != sum {
        return Err(format!("checksum mismatch (expected {sum:016x})"));
    }
    let payload =
        std::str::from_utf8(payload).map_err(|_| "record payload is not UTF-8".to_owned())?;
    Ok((payload, at + body_at + len + 1))
}

impl JournalRecord {
    /// Serializes to the record's payload JSON (shared wire envelope).
    pub fn to_json(&self, session: SessionId) -> Value {
        match self {
            JournalRecord::Open { table, seed, .. } => json!({
                "v": RECORD_VERSION, "kind": "open", "session": session,
                "table": table.clone(), "seed": *seed, "seq": 0u64,
            }),
            JournalRecord::Command {
                seq,
                command,
                outcome,
            } => {
                let mut value = json!({
                    "v": RECORD_VERSION, "kind": "command", "session": session,
                    "seq": *seq, "cmd": command.to_json(),
                });
                if let Value::Object(map) = &mut value {
                    match outcome {
                        RecordedOutcome::Digest(digest) => {
                            map.insert("digest".to_owned(), json!(format!("{digest:016x}")));
                        }
                        RecordedOutcome::Error(kind) => {
                            map.insert("error".to_owned(), json!(kind.clone()));
                        }
                    }
                }
                value
            }
            JournalRecord::Close { seq } => json!({
                "v": RECORD_VERSION, "kind": "close", "session": session, "seq": *seq,
            }),
        }
    }

    /// Parses a record payload, validating the envelope and shape.
    pub fn from_json(value: &Value) -> std::result::Result<JournalRecord, String> {
        if value.get("v").and_then(Value::as_u64) != Some(RECORD_VERSION) {
            return Err(format!("record is not schema v{RECORD_VERSION}"));
        }
        let session = value
            .get("session")
            .and_then(Value::as_u64)
            .ok_or("record lacks a session id")?;
        let seq = value
            .get("seq")
            .and_then(Value::as_u64)
            .ok_or("record lacks a sequence number")?;
        match value.get("kind").and_then(Value::as_str) {
            Some("open") => {
                let table = value
                    .get("table")
                    .and_then(Value::as_str)
                    .ok_or("open record lacks a table name")?;
                let seed = value
                    .get("seed")
                    .and_then(Value::as_u64)
                    .ok_or("open record lacks a seed")?;
                Ok(JournalRecord::Open {
                    session,
                    table: table.to_owned(),
                    seed,
                })
            }
            Some("command") => {
                let command = value.get("cmd").ok_or("command record lacks \"cmd\"")?;
                let command = Command::from_json(command).map_err(|e| e.to_string())?;
                let outcome = match (value.get("digest"), value.get("error")) {
                    (Some(digest), None) => {
                        let digest = digest.as_str().ok_or("digest must be a hex string")?;
                        RecordedOutcome::Digest(
                            u64::from_str_radix(digest, 16)
                                .map_err(|_| format!("bad digest {digest:?}"))?,
                        )
                    }
                    (None, Some(kind)) => RecordedOutcome::Error(
                        kind.as_str()
                            .ok_or("error must be a kind string")?
                            .to_owned(),
                    ),
                    _ => return Err("command record needs exactly one of digest/error".into()),
                };
                Ok(JournalRecord::Command {
                    seq,
                    command,
                    outcome,
                })
            }
            Some("close") => Ok(JournalRecord::Close { seq }),
            other => Err(format!("unknown record kind {other:?}")),
        }
    }
}

/// Reads and validates a journal file up to its first defect — the
/// valid prefix parses, the rest is reported, never guessed at.
///
/// # Errors
/// Only on I/O failure; corruption is data, not an error.
pub fn read_journal(path: &Path) -> std::io::Result<ReadJournal> {
    let bytes = std::fs::read(path)?;
    let mut lines = Vec::new();
    let mut records = Vec::new();
    let mut record_ends = Vec::new();
    let mut at = 0usize;
    let mut defect = None;
    while at < bytes.len() {
        match unframe(&bytes, at) {
            Ok((payload, next)) => {
                let parsed = serde_json::from_str(payload)
                    .map_err(|e| e.to_string())
                    .and_then(|value| JournalRecord::from_json(&value));
                match parsed {
                    Ok(record) => {
                        lines.push(payload.to_owned());
                        records.push(record);
                        record_ends.push(next as u64);
                        at = next;
                    }
                    Err(detail) => {
                        defect = Some(JournalDefect {
                            record: records.len(),
                            detail,
                            refused: true,
                        });
                        break;
                    }
                }
            }
            Err(detail) => {
                defect = Some(JournalDefect {
                    record: records.len(),
                    detail,
                    refused: false,
                });
                break;
            }
        }
    }
    Ok(ReadJournal {
        lines,
        records,
        record_ends,
        valid_bytes: at as u64,
        defect,
    })
}

/// How many sidecars one journal can set aside at the same record: the
/// first is `<path>.diverged-<record>`, the later ones append `.1`,
/// `.2`, … — a second build change can diverge the same early record
/// again after the first cut.
pub const SET_ASIDE_NAMES: usize = 8;

/// Copies the journal at `path`, byte for byte, to the first free name
/// of `<path>.diverged-<record>`, `<path>.diverged-<record>.1`, … —
/// done before recovery cuts the file back to the start of `record`,
/// the first record it does not keep. The copy and its directory entry
/// are synced, so a crash after the cut cannot lose both. An existing
/// sidecar is never overwritten; a failed copy removes its partial
/// sidecar.
///
/// # Errors
/// Propagates create, copy and sync failures, and fails with
/// `AlreadyExists` when all [`SET_ASIDE_NAMES`] names are taken.
pub(crate) fn set_aside(path: &Path, record: usize) -> std::io::Result<PathBuf> {
    let mut free = None;
    for n in 0..SET_ASIDE_NAMES {
        let suffix = if n == 0 {
            String::new()
        } else {
            format!(".{n}")
        };
        let sidecar = path.with_extension(format!("jnl.diverged-{record}{suffix}"));
        match OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&sidecar)
        {
            Ok(out) => {
                free = Some((sidecar, out));
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
    }
    let Some((sidecar, mut out)) = free else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!("all {SET_ASIDE_NAMES} sidecar names for record {record} are taken"),
        ));
    };
    let copied = File::open(path)
        .and_then(|mut live| std::io::copy(&mut live, &mut out))
        .and_then(|_| out.sync_all())
        .and_then(|()| {
            let dir = sidecar.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
        });
    match copied {
        Ok(()) => Ok(sidecar),
        Err(e) => {
            drop(out);
            let _ = std::fs::remove_file(&sidecar);
            Err(e)
        }
    }
}

struct JournalFile {
    file: File,
    /// Last sequence number appended (0 = only the open record).
    seq: u64,
    /// Records appended since this file was last fsynced — what a
    /// group-commit sweep looks at to skip clean files.
    unsynced: u64,
}

/// Everything behind the journal's one lock: the open files plus the
/// fleet-wide dirty-record counter that triggers group-commit sweeps.
struct JournalFiles {
    files: HashMap<SessionId, JournalFile>,
    /// Records appended across all sessions since the last sweep
    /// (meaningful under [`FsyncPolicy::EveryN`]).
    unsynced_total: u64,
}

/// Journal effectiveness/observability counters (`GET /stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Sessions with an open journal file.
    pub sessions: usize,
    /// Records appended since the journal opened (all sessions).
    pub records: u64,
    /// Bytes appended since the journal opened.
    pub bytes: u64,
    /// fsync calls issued.
    pub fsyncs: u64,
    /// Group-commit sweeps completed (`EveryN` only): each sweep syncs
    /// every dirty file once.
    pub group_commits: u64,
    /// Dirty files synced by group-commit sweeps — `fsyncs` issued
    /// *because* a sweep fired rather than per-record. When this grows
    /// slower than `records / n`, batching across sessions is saving
    /// syncs.
    pub batched_syncs: u64,
    /// Appends that failed at the filesystem (the command still
    /// answered; durability for that record is lost and this counter is
    /// the operator's signal).
    pub append_failures: u64,
}

/// The write-ahead command journal of one [`AsyncSessionServer`]
/// (see the [module docs](self)).
///
/// [`AsyncSessionServer`]: crate::AsyncSessionServer
pub struct SessionJournal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    files: Mutex<JournalFiles>,
    records: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    group_commits: AtomicU64,
    batched_syncs: AtomicU64,
    append_failures: AtomicU64,
}

impl std::fmt::Debug for SessionJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionJournal")
            .field("dir", &self.dir)
            .field("fsync", &self.fsync)
            .field("sessions", &self.files.lock().files.len())
            .finish()
    }
}

impl SessionJournal {
    /// Opens (creating if needed) the journal directory.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> std::io::Result<SessionJournal> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SessionJournal {
            dir,
            fsync,
            files: Mutex::new(JournalFiles {
                files: HashMap::new(),
                unsynced_total: 0,
            }),
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            batched_syncs: AtomicU64::new(0),
            append_failures: AtomicU64::new(0),
        })
    }

    /// The directory journal files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Starts session `id`'s journal: creates (truncating any stale
    /// leftover) `session-<id>.jnl` and appends the `open` record.
    ///
    /// # Errors
    /// Propagates file-creation and write failures — a session whose
    /// open record cannot be made durable must not open.
    pub fn open_session(&self, id: SessionId, table: &str, seed: u64) -> std::io::Result<()> {
        let path = journal_path(&self.dir, id);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut inner = self.files.lock();
        inner.files.insert(
            id,
            JournalFile {
                file,
                seq: 0,
                unsynced: 0,
            },
        );
        let record = JournalRecord::Open {
            session: id,
            table: table.to_owned(),
            seed,
        };
        if let Err(e) = self.write_record(&mut inner, id, &record.to_json(id)) {
            // A session whose open record is not durable must not open —
            // and must not leave a dirty entry behind.
            if let Some(entry) = inner.files.remove(&id) {
                inner.unsynced_total = inner.unsynced_total.saturating_sub(entry.unsynced);
            }
            return Err(e);
        }
        Ok(())
    }

    /// Re-attaches to a recovered session's journal file in append mode,
    /// continuing after `seq` — new commands extend the replayed trail.
    ///
    /// # Errors
    /// Propagates open failures.
    pub fn adopt_session(&self, id: SessionId, seq: u64) -> std::io::Result<()> {
        let path = journal_path(&self.dir, id);
        let file = OpenOptions::new().append(true).open(path)?;
        self.files.lock().files.insert(
            id,
            JournalFile {
                file,
                seq,
                unsynced: 0,
            },
        );
        Ok(())
    }

    /// Appends one executed command and its outcome, allocating the next
    /// sequence number. Called from the drain loop *before* the client's
    /// response slot is fulfilled, so any response a client observed is
    /// journaled. Append failures are counted (see
    /// [`JournalStats::append_failures`]), never panic, and never block
    /// the response — a torn or missing tail is exactly what recovery's
    /// checksum truncation is built to absorb.
    pub fn append_command(&self, id: SessionId, command: &Command, outcome: &RecordedOutcome) {
        let mut inner = self.files.lock();
        let Some(entry) = inner.files.get(&id) else {
            return; // session not journaled (opened before the journal)
        };
        let seq = entry.seq + 1;
        let record = JournalRecord::Command {
            seq,
            command: command.clone(),
            outcome: outcome.clone(),
        };
        match self.write_record(&mut inner, id, &record.to_json(id)) {
            Ok(()) => {
                if let Some(entry) = inner.files.get_mut(&id) {
                    entry.seq = seq;
                }
            }
            Err(_) => {
                self.append_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Appends the `close` record and deletes the session's file — a
    /// cleanly closed session has no state to recover. (If the process
    /// dies between the append and the delete, recovery sees the close
    /// record and removes the file itself.)
    pub fn close_session(&self, id: SessionId) {
        let mut inner = self.files.lock();
        let Some(entry) = inner.files.get(&id) else {
            return;
        };
        let seq = entry.seq + 1;
        let record = JournalRecord::Close { seq };
        if self
            .write_record(&mut inner, id, &record.to_json(id))
            .is_err()
        {
            self.append_failures.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(entry) = inner.files.remove(&id) {
            inner.unsynced_total = inner.unsynced_total.saturating_sub(entry.unsynced);
        }
        drop(inner);
        let _ = std::fs::remove_file(journal_path(&self.dir, id));
    }

    /// Last sequence number of session `id` (`None` when unjournaled).
    pub fn seq_of(&self, id: SessionId) -> Option<u64> {
        self.files.lock().files.get(&id).map(|entry| entry.seq)
    }

    /// Observability counters.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            sessions: self.files.lock().files.len(),
            records: self.records.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            group_commits: self.group_commits.load(Ordering::Relaxed),
            batched_syncs: self.batched_syncs.load(Ordering::Relaxed),
            append_failures: self.append_failures.load(Ordering::Relaxed),
        }
    }

    /// Journaled session ids with files on disk (ascending) — what
    /// recovery scans. Includes sessions not yet adopted.
    ///
    /// # Errors
    /// Propagates directory-read failures.
    pub fn scan(&self) -> std::io::Result<Vec<SessionId>> {
        let mut ids = Vec::new();
        for dirent in std::fs::read_dir(&self.dir)? {
            let dirent = dirent?;
            if let Some(id) = dirent.file_name().to_str().and_then(journal_file_id) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn write_record(
        &self,
        inner: &mut JournalFiles,
        id: SessionId,
        payload: &Value,
    ) -> std::io::Result<()> {
        // lint: allow(panic-hygiene) — serializing an already-built Value cannot fail (no foreign Serialize impls)
        let text = serde_json::to_string(payload).expect("serialization is infallible");
        let line = frame(&text);
        let entry = inner
            .files
            .get_mut(&id)
            .expect("write_record only runs for an open journal file"); // lint: allow(panic-hygiene) — callers insert the file entry before any write; absence is a server bug, not input
        entry.file.write_all(line.as_bytes())?;
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
        entry.unsynced += 1;
        inner.unsynced_total += 1;
        match self.fsync {
            FsyncPolicy::Never => Ok(()),
            FsyncPolicy::Always => {
                // lint: allow(panic-hygiene) — same entry fetched successfully a few lines up under the same lock
                let entry = inner.files.get_mut(&id).expect("entry still present");
                entry.file.sync_data()?;
                entry.unsynced = 0;
                inner.unsynced_total = inner.unsynced_total.saturating_sub(1);
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            FsyncPolicy::EveryN(n) => {
                if inner.unsynced_total >= n.max(1) {
                    self.group_commit(inner)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Group commit: one sweep over every dirty file. `n` records
    /// accumulated *fleet-wide* cost one sweep, not one fsync per
    /// session — with S busy sessions and policy `EveryN(n)`, the sweep
    /// issues at most S syncs per `n` records total, where per-session
    /// counting would issue S syncs per `n` records *each*. A file
    /// whose sync fails keeps its dirty count (the next sweep retries
    /// it) and the first error propagates to the append that triggered
    /// the sweep.
    fn group_commit(&self, inner: &mut JournalFiles) -> std::io::Result<()> {
        let mut first_error = None;
        let mut remaining = 0u64;
        let mut synced = 0u64;
        for entry in inner.files.values_mut() {
            if entry.unsynced == 0 {
                continue;
            }
            match entry.file.sync_data() {
                Ok(()) => {
                    entry.unsynced = 0;
                    synced += 1;
                }
                Err(e) => {
                    remaining += entry.unsynced;
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        inner.unsynced_total = remaining;
        self.fsyncs.fetch_add(synced, Ordering::Relaxed);
        self.batched_syncs.fetch_add(synced, Ordering::Relaxed);
        self.group_commits.fetch_add(1, Ordering::Relaxed);
        match first_error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "blaeu-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_demo(journal: &SessionJournal) {
        journal.open_session(3, "oecd", 42).unwrap();
        journal.append_command(
            3,
            &Command::SelectTheme(0),
            &RecordedOutcome::Digest(0xabcd),
        );
        journal.append_command(
            3,
            &Command::Zoom(99),
            &RecordedOutcome::Error("unknown_region".into()),
        );
    }

    #[test]
    fn records_round_trip_through_framing() {
        let dir = tempdir("roundtrip");
        let journal = SessionJournal::open(&dir, FsyncPolicy::Never).unwrap();
        write_demo(&journal);
        assert_eq!(journal.seq_of(3), Some(2));
        assert_eq!(journal.scan().unwrap(), vec![3]);

        let read = read_journal(&journal_path(&dir, 3)).unwrap();
        assert!(read.defect.is_none(), "{:?}", read.defect);
        assert_eq!(read.records.len(), 3);
        assert_eq!(
            read.records[0],
            JournalRecord::Open {
                session: 3,
                table: "oecd".into(),
                seed: 42
            }
        );
        assert_eq!(
            read.records[1],
            JournalRecord::Command {
                seq: 1,
                command: Command::SelectTheme(0),
                outcome: RecordedOutcome::Digest(0xabcd)
            }
        );
        assert_eq!(
            read.records[2],
            JournalRecord::Command {
                seq: 2,
                command: Command::Zoom(99),
                outcome: RecordedOutcome::Error("unknown_region".into())
            }
        );
        // The raw lines are the wire envelope — every payload carries v1.
        for line in &read.lines {
            let value: Value = serde_json::from_str(line).unwrap();
            assert_eq!(value.get("v").and_then(Value::as_u64), Some(1));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_removes_the_file() {
        let dir = tempdir("close");
        let journal = SessionJournal::open(&dir, FsyncPolicy::Never).unwrap();
        write_demo(&journal);
        journal.close_session(3);
        assert!(!journal_path(&dir, 3).exists());
        assert_eq!(journal.scan().unwrap(), Vec::<SessionId>::new());
        assert_eq!(journal.seq_of(3), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_yields_valid_prefix() {
        let dir = tempdir("trunc");
        let journal = SessionJournal::open(&dir, FsyncPolicy::Never).unwrap();
        write_demo(&journal);
        let path = journal_path(&dir, 3);
        let full = std::fs::read(&path).unwrap();
        // Chop the last record mid-payload.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let read = read_journal(&path).unwrap();
        assert_eq!(read.records.len(), 2, "prefix before the torn record");
        let defect = read.defect.expect("torn tail must be reported");
        assert_eq!(defect.record, 2);
        // Truncating to valid_bytes yields a clean journal.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(read.valid_bytes).unwrap();
        drop(file);
        let clean = read_journal(&path).unwrap();
        assert!(clean.defect.is_none());
        assert_eq!(clean.records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_fails_the_checksum() {
        let dir = tempdir("flip");
        let journal = SessionJournal::open(&dir, FsyncPolicy::Never).unwrap();
        write_demo(&journal);
        let path = journal_path(&dir, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the *second* record.
        let second = bytes.iter().position(|&b| b == b'\n').unwrap() + 1 + FRAME_HEADER_LEN + 3;
        bytes[second] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let read = read_journal(&path).unwrap();
        assert_eq!(read.records.len(), 1, "only the open record survives");
        let defect = read.defect.expect("flip must be detected");
        assert_eq!(defect.record, 1);
        assert!(defect.detail.contains("checksum"), "{}", defect.detail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_header_yields_empty_prefix() {
        let dir = tempdir("header");
        let journal = SessionJournal::open(&dir, FsyncPolicy::Never).unwrap();
        write_demo(&journal);
        let path = journal_path(&dir, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        let read = read_journal(&path).unwrap();
        assert!(read.records.is_empty());
        assert_eq!(read.defect.expect("must be reported").record, 0);
        assert_eq!(read.valid_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policy_counts() {
        let dir = tempdir("fsync");
        let journal = SessionJournal::open(&dir, FsyncPolicy::Always).unwrap();
        write_demo(&journal);
        let stats = journal.stats();
        assert_eq!(stats.records, 3);
        assert_eq!(stats.fsyncs, 3);
        assert!(stats.bytes > 0);
        assert_eq!(stats.append_failures, 0);
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.group_commits, 0, "Always never sweeps");
        assert_eq!(stats.batched_syncs, 0);
        let _ = std::fs::remove_dir_all(&dir);

        let dir = tempdir("fsync-n");
        let journal = SessionJournal::open(&dir, FsyncPolicy::EveryN(2)).unwrap();
        write_demo(&journal);
        let stats = journal.stats();
        assert_eq!(stats.fsyncs, 1, "3 records, sync every 2");
        assert_eq!(stats.group_commits, 1, "one sweep at the second record");
        assert_eq!(stats.batched_syncs, 1, "one dirty file in the sweep");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The group-commit point: `n` records *across* sessions trigger one
    /// sweep syncing every dirty file — not one fsync per session per
    /// `n` of its own records.
    #[test]
    fn group_commit_sweeps_all_dirty_sessions() {
        let dir = tempdir("group");
        let journal = SessionJournal::open(&dir, FsyncPolicy::EveryN(4)).unwrap();
        // Two sessions, interleaved appends: open(1), open(2) are
        // records 1 and 2; two commands land records 3 and 4 → the
        // fourth record fires one sweep over both dirty files.
        journal.open_session(1, "oecd", 0).unwrap();
        journal.open_session(2, "oecd", 0).unwrap();
        journal.append_command(1, &Command::Depth, &RecordedOutcome::Digest(1));
        assert_eq!(journal.stats().fsyncs, 0, "three records: below the bar");
        journal.append_command(2, &Command::Depth, &RecordedOutcome::Digest(2));
        let stats = journal.stats();
        assert_eq!(stats.group_commits, 1, "fourth record fires the sweep");
        assert_eq!(stats.batched_syncs, 2, "both dirty files synced");
        assert_eq!(stats.fsyncs, 2);
        // The sweep reset every dirty counter: the next three appends
        // stay below the bar again.
        journal.append_command(1, &Command::Depth, &RecordedOutcome::Digest(3));
        journal.append_command(1, &Command::Depth, &RecordedOutcome::Digest(4));
        journal.append_command(2, &Command::Depth, &RecordedOutcome::Digest(5));
        assert_eq!(journal.stats().group_commits, 1, "counter was reset");
        // The close record is the window's fourth append: the sweep
        // fires while both files are dirty (session 1 with two records,
        // session 2 with its last command plus the close).
        journal.close_session(2);
        let stats = journal.stats();
        assert_eq!(stats.group_commits, 2, "close record completed the window");
        assert_eq!(stats.batched_syncs, 4, "both files dirty again");
        // The departed session left nothing behind in the dirty count.
        journal.append_command(1, &Command::Depth, &RecordedOutcome::Digest(6));
        assert_eq!(journal.stats().group_commits, 2, "window restarted at zero");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
