//! One scripted session over the wire: resolve each step against what
//! the server answered, send it, time it, check it.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blaeu_core::{Command, Explorer, ExplorerConfig, Response};
use blaeu_server::AsyncSessionServer;
use blaeu_store::{Table, TableView};
use serde_json::{json, Value};

use crate::client::{text, Instants, WireClient};
use crate::recorder::{Class, Recorder};
use crate::trace::Tracer;
use crate::workload::{SessionPlan, Step};

/// What the client knows of the table it explores: its numeric columns,
/// like a front-end that was handed the schema.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub numeric: Vec<String>,
}

impl Catalog {
    pub fn of(table: &Arc<Table>) -> Catalog {
        let view = TableView::new(Arc::clone(table));
        Catalog {
            numeric: view
                .numeric_columns()
                .into_iter()
                .map(str::to_owned)
                .collect(),
        }
    }
}

/// Requests sent, requests failed, and the first few reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Commands answered (opens and closes are requests, not commands).
    pub commands: u64,
    pub bytes_in: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.fail_many(1, why);
    }

    /// Counts `n` failures under one reason (no-op for `n == 0`).
    pub fn fail_many(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if n > 0 && self.reasons.len() < 8 {
            self.reasons.push(why());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.commands += other.commands;
        self.bytes_in += other.bytes_in;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(8);
    }
}

/// What was actually sent for one step, with the digest of every
/// response line it produced — enough to replay the session in-process.
#[derive(Debug, Clone)]
pub enum Sent {
    Command(Command),
    Ladder,
}

#[derive(Debug, Clone)]
pub struct SessionLog {
    pub plan: SessionPlan,
    pub sent: Vec<(Sent, Vec<String>)>,
    /// `(sql digest, depth digest)` probed at the end of a session that
    /// is left open for recovery.
    pub left_open: Option<(u64, String, String)>,
}

/// The client's mirror of one explorer state that holds a map.
#[derive(Debug, Clone)]
struct MapInfo {
    theme: usize,
    /// `(region id, rows)` of the leaves, biggest first.
    leaves: Vec<(usize, u64)>,
    regions: usize,
    digest: String,
}

fn walk_regions(region: &Value, leaves: &mut Vec<(usize, u64)>, regions: &mut usize) {
    *regions += 1;
    let children = region["children"].as_array().map_or(&[][..], Vec::as_slice);
    if children.is_empty() {
        let id = region["id"].as_u64().unwrap_or(0) as usize;
        leaves.push((id, region["count"].as_u64().unwrap_or(0)));
    }
    for child in children {
        walk_regions(child, leaves, regions);
    }
}

/// Parses a map response; `Err` when its leaf counts do not sum to the
/// view's rows.
fn map_info(body: &Value, theme: usize) -> Result<MapInfo, String> {
    let map = &body["map"];
    let mut leaves = Vec::new();
    let mut regions = 0;
    walk_regions(&map["root"], &mut leaves, &mut regions);
    let total: u64 = leaves.iter().map(|&(_, count)| count).sum();
    if leaves.is_empty() || Some(total) != map["view_rows"].as_u64() {
        return Err(format!(
            "leaf counts sum to {total}, view has {:?} rows",
            map["view_rows"].as_u64()
        ));
    }
    leaves.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(MapInfo {
        theme,
        leaves,
        regions,
        digest: body["digest"].as_str().unwrap_or_default().to_owned(),
    })
}

fn class_of(step: &Step) -> Class {
    match step {
        Step::SelectTheme(_) | Step::ProjectTheme(_) | Step::Map => Class::Map,
        Step::Zoom(_) => Class::Zoom,
        Step::Highlight(_) | Step::Scatter(_) | Step::RegionDetail(_) => Class::Scan,
        Step::Themes | Step::Rollback | Step::Sql | Step::Depth | Step::Breadcrumbs => Class::Nav,
        Step::Ladder => Class::LadderExact,
    }
}

fn wire_name(command: &Command) -> String {
    command.to_json()["cmd"]
        .as_str()
        .unwrap_or("command")
        .to_owned()
}

/// Everything one client thread carries from session to session.
pub struct Driver<'a> {
    pub client: WireClient,
    pub catalog: &'a Catalog,
    pub recorder: Recorder,
    pub tally: Tally,
    /// Client spans and per-command cache-miss deltas; `None` untraced.
    pub tracer: Option<Tracer>,
}

impl<'a> Driver<'a> {
    /// A fresh connection to the self-hosted server, nothing recorded yet.
    pub fn connect(addr: SocketAddr, catalog: &'a Catalog, tracer: Option<Tracer>) -> Driver<'a> {
        Driver {
            client: WireClient::connect(addr).expect("loopback connects"),
            catalog,
            recorder: Recorder::default(),
            tally: Tally::default(),
            tracer,
        }
    }

    /// Runs one session: open, the script, close (unless `leave_open`).
    /// A transport error, or an open that is refused, aborts the session
    /// and is the caller's to count, once.
    pub fn run(
        &mut self,
        plan: &SessionPlan,
        table: &str,
        traced: bool,
        leave_open: bool,
    ) -> std::io::Result<SessionLog> {
        let log = self.session(plan, table, traced, leave_open);
        if log.is_err() {
            self.recorder.abort_session();
        }
        log
    }

    fn session(
        &mut self,
        plan: &SessionPlan,
        table: &str,
        traced: bool,
        leave_open: bool,
    ) -> std::io::Result<SessionLog> {
        let tracing = traced && self.tracer.is_some();
        let session_start = Instant::now();
        let mut session_span = None;
        if tracing {
            let tracer = self.tracer.as_mut().expect("checked above");
            session_span = Some(tracer.open("session", plan.index, None, session_start));
        }

        let open = text(&json!({"table": table, "seed": plan.mapper_seed}));
        self.tally.attempted += 1;
        let before = self.misses(tracing);
        let reply = self.client.request("POST", "/sessions", Some(&open))?;
        self.tally.bytes_in += reply.bytes as u64;
        self.recorder.record(Class::Open, reply.at.total());
        self.span(tracing, "open", plan.index, session_span, &reply.at, before);
        let Some(id) = reply.body["session"]
            .as_u64()
            .filter(|_| reply.status == 201)
        else {
            return Err(std::io::Error::other(format!(
                "open answered {} {}",
                reply.status,
                text(&reply.body)
            )));
        };
        let path = format!("/sessions/{id}/commands");

        let mut themes = 1usize;
        // Mirrors the explorer's history: the root state holds no map.
        let mut stack: Vec<Option<MapInfo>> = vec![None];
        let mut sent = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            let top = stack.last().and_then(Option::as_ref);
            if let Step::Ladder = step {
                let expected = top.map(|info| info.digest.clone());
                let digests =
                    self.ladder(id, plan.index, tracing, session_span, expected.as_deref())?;
                sent.push((Sent::Ladder, digests));
                continue;
            }
            let command = self.resolve(step, themes, top);
            let body = text(&command.to_json());
            self.tally.attempted += 1;
            let before = self.misses(tracing);
            let reply = self.client.request("POST", &path, Some(&body))?;
            self.tally.commands += 1;
            self.tally.bytes_in += reply.bytes as u64;
            self.recorder.record(class_of(step), reply.at.total());
            if tracing {
                let name = wire_name(&command);
                self.span(true, &name, plan.index, session_span, &reply.at, before);
            }
            let digest = reply.body["digest"].as_str().unwrap_or_default().to_owned();
            if reply.status != 200 || digest.is_empty() {
                self.tally
                    .fail(|| format!("{body} answered {} {}", reply.status, text(&reply.body)));
            }
            match step {
                Step::Themes => {
                    themes = reply.body["themes"]["themes"]
                        .as_array()
                        .map_or(1, Vec::len)
                        .max(1);
                }
                Step::SelectTheme(_) | Step::ProjectTheme(_) | Step::Zoom(_) | Step::Map => {
                    let theme = match &command {
                        Command::SelectTheme(t) | Command::ProjectTheme(t) => *t,
                        _ => top.map_or(0, |info| info.theme),
                    };
                    match map_info(&reply.body, theme) {
                        Ok(info) if matches!(step, Step::Map) => {
                            *stack.last_mut().expect("stack never empty") = Some(info);
                        }
                        Ok(info) => stack.push(Some(info)),
                        Err(why) => self.tally.fail(|| format!("{body}: {why}")),
                    }
                }
                Step::Rollback if stack.len() > 1 => {
                    stack.pop();
                }
                _ => {}
            }
            sent.push((Sent::Command(command), vec![digest]));
        }

        let mut left_open = None;
        if leave_open {
            let mut probe = |command: Command| -> std::io::Result<String> {
                let body = text(&command.to_json());
                let reply = self.client.request("POST", &path, Some(&body))?;
                Ok(reply.body["digest"].as_str().unwrap_or_default().to_owned())
            };
            left_open = Some((id, probe(Command::Sql)?, probe(Command::Depth)?));
        } else {
            self.tally.attempted += 1;
            let reply = self
                .client
                .request("DELETE", &format!("/sessions/{id}"), None)?;
            if reply.status != 200 {
                self.tally
                    .fail(|| format!("close answered {} {}", reply.status, text(&reply.body)));
            }
        }
        let session_end = Instant::now();
        self.recorder
            .record(Class::Session, session_end - session_start);
        self.recorder.end_session();
        if let (Some(span), Some(tracer)) = (session_span, self.tracer.as_mut()) {
            tracer.close(span, session_end);
        }
        Ok(SessionLog {
            plan: plan.clone(),
            sent,
            left_open,
        })
    }

    fn resolve(&self, step: &Step, themes: usize, top: Option<&MapInfo>) -> Command {
        let numeric = &self.catalog.numeric;
        match *step {
            Step::Themes => Command::Themes,
            Step::SelectTheme(pick) => Command::SelectTheme(pick as usize % themes),
            Step::ProjectTheme(pick) => {
                let active = top.map_or(0, |info| info.theme);
                let hop = 1 + pick as usize % (themes - 1).max(1);
                Command::ProjectTheme((active + hop) % themes)
            }
            Step::Map => Command::Map,
            Step::Zoom(pick) => {
                let leaves = top.map_or(&[][..], |info| info.leaves.as_slice());
                let choice = leaves
                    .get(pick as usize % leaves.len().clamp(1, 2))
                    // A sliver of a region would make the next map degenerate.
                    .filter(|&&(_, rows)| rows >= 32)
                    .or(leaves.first());
                Command::Zoom(choice.map_or(0, |&(id, _)| id))
            }
            // A numeric column: a categorical one costs fifteen times as
            // much on `tall` (see the README), so a session's time would
            // hang on whether its picks drew one.
            Step::Highlight(pick) => {
                Command::Highlight(numeric[pick as usize % numeric.len()].clone())
            }
            Step::Scatter(pick) => {
                let n = numeric.len();
                let x = pick as usize % n;
                let y = (x + 1 + (pick as usize / n) % (n - 1).max(1)) % n;
                Command::Scatter {
                    x: numeric[x].clone(),
                    y: numeric[y].clone(),
                    bins: 16,
                }
            }
            Step::RegionDetail(pick) => Command::RegionDetail {
                region: pick as usize % top.map_or(1, |info| info.regions),
                sample_rows: 5,
            },
            Step::Rollback => Command::Rollback,
            Step::Sql => Command::Sql,
            Step::Depth => Command::Depth,
            Step::Breadcrumbs => Command::Breadcrumbs,
            Step::Ladder => Command::MapProgressive,
        }
    }

    /// `map_progressive` on the batch channel, read to the final delta.
    /// The final rung must be the exact map: its `map_digest` equals the
    /// digest of the map the state already showed.
    fn ladder(
        &mut self,
        id: u64,
        session: u64,
        tracing: bool,
        parent: Option<usize>,
        expected: Option<&str>,
    ) -> std::io::Result<Vec<String>> {
        let mut line = text(&Command::MapProgressive.to_json());
        line.push('\n');
        self.tally.attempted += 1;
        let before = self.misses(tracing);
        let stream = self
            .client
            .stream(&format!("/sessions/{id}/commands/batch"), &line)?;
        self.tally.commands += 1;
        self.tally.bytes_in += stream.lines.iter().map(|l| l.bytes as u64).sum::<u64>();
        let digests: Vec<String> = stream
            .lines
            .iter()
            .map(|l| l.body["digest"].as_str().unwrap_or_default().to_owned())
            .collect();
        let (Some(first), Some(last)) = (stream.lines.first(), stream.lines.last()) else {
            self.tally.fail(|| "ladder streamed no line".to_owned());
            return Ok(digests);
        };
        self.recorder
            .record(Class::FirstMap, first.at - stream.start);
        self.recorder
            .record(Class::LadderExact, last.at - stream.start);
        let exact = last.body["final"] == true
            && expected.is_none_or(|digest| last.body["map_digest"] == digest);
        if stream.status != 200 || digests.iter().any(String::is_empty) || !exact {
            self.tally.fail(|| {
                format!(
                    "ladder answered {} and ended on {}",
                    stream.status,
                    text(&last.body)
                )
            });
        }
        if tracing {
            let tracer = self.tracer.as_mut().expect("tracing implies a tracer");
            let misses = tracer.misses() - before;
            let span = tracer.open("map_progressive", session, parent, stream.start);
            tracer.leaf("write", session, span, stream.start, stream.written);
            tracer.leaf("first_level", session, span, stream.written, first.at);
            tracer.leaf("refine", session, span, first.at, last.at);
            tracer.close_with(span, last.at, misses, stream.lines.len() as u64);
        }
        Ok(digests)
    }

    fn misses(&self, tracing: bool) -> u64 {
        match &self.tracer {
            Some(tracer) if tracing => tracer.misses(),
            _ => 0,
        }
    }

    /// The spans of one exchange: the command, and under it the write,
    /// the wait for the response, and the JSON parse.
    fn span(
        &mut self,
        tracing: bool,
        name: &str,
        session: u64,
        parent: Option<usize>,
        at: &Instants,
        misses_before: u64,
    ) {
        if !tracing {
            return;
        }
        let tracer = self.tracer.as_mut().expect("tracing implies a tracer");
        let misses = tracer.misses() - misses_before;
        let span = tracer.open(name, session, parent, at.start);
        tracer.leaf("write", session, span, at.start, at.written);
        tracer.leaf("wait_read", session, span, at.written, at.read);
        tracer.leaf("parse", session, span, at.read, at.parsed);
        tracer.close_with(span, at.parsed, misses, 1);
    }
}

/// In pooled workloads every session with the same (seed, variant) sends
/// the same requests, so every hit must digest-equal the first miss.
#[derive(Debug, Default)]
pub struct PoolCheck {
    first: Mutex<HashMap<(u64, u64), Digests>>,
}

/// Per step of a session, the digests of its response lines.
type Digests = Vec<Vec<String>>;

impl PoolCheck {
    /// Number of commands of `log` whose digests differ from the first
    /// session under the same pool key.
    pub fn mismatches(&self, log: &SessionLog) -> u64 {
        let Some(key) = log.plan.pool_key else {
            return 0;
        };
        let digests: Digests = log.sent.iter().map(|(_, d)| d.clone()).collect();
        let mut first = self.first.lock().expect("no holder panics");
        match first.get(&key) {
            None => {
                first.insert(key, digests);
                0
            }
            Some(reference) => {
                let differing = reference
                    .iter()
                    .zip(&digests)
                    .filter(|(a, b)| a != b)
                    .count();
                (differing + reference.len().abs_diff(digests.len())) as u64
            }
        }
    }
}

fn hex(response: &Response) -> String {
    format!("{:016x}", response.digest())
}

/// Replays a logged session on an in-process, uncached `Explorer` and
/// counts the commands whose wire digest differs from the reference.
pub fn reference_mismatches(log: &SessionLog, table: &Arc<Table>) -> u64 {
    let mut config = ExplorerConfig::default();
    config.mapper.seed = log.plan.mapper_seed;
    let Ok(mut explorer) = Explorer::open_shared(Arc::clone(table), config) else {
        return log.sent.len() as u64;
    };
    let mut mismatches = 0;
    for (sent, digests) in &log.sent {
        let reference: Vec<String> = match sent {
            Sent::Command(command) => explorer.execute(command).iter().map(hex).collect(),
            Sent::Ladder => {
                let mut lines = Vec::new();
                let mut next = Some(Command::MapProgressive);
                while let Some(command) = next.take() {
                    let Ok(response) = explorer.execute(&command) else {
                        break;
                    };
                    if let Response::MapDelta { delta, .. } = &response {
                        if !delta.final_level {
                            next = Some(Command::MapRefine {
                                level: delta.level + 1,
                            });
                        }
                    }
                    lines.push(hex(&response));
                }
                lines
            }
        };
        if &reference != digests {
            mismatches += 1;
        }
    }
    mismatches
}

/// Shares the engine with the client threads of a traced run, so each
/// command span can carry the cache misses that happened under it.
pub fn miss_probe(engine: &Arc<AsyncSessionServer>) -> impl Fn() -> u64 + Send + 'static {
    let engine = Arc::clone(engine);
    move || engine.cache_stats().map_or(0, |stats| stats.misses)
}
