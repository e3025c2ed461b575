//! Client-side spans of a traced run: name, start, end, parent, session
//! id — recorded from the benchmark's own files, kept in memory, written
//! out once at exit. Spans inside the program are a later change.

use std::time::Instant;

use serde_json::{json, Value};

use crate::recorder::median;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub session: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `AnalysisCache` misses counted while the span was open (command
    /// spans only) — the count recorded at the same boundary as the time.
    /// The counter is the engine's: with two clients a miss of the other
    /// client's command lands here too, so "computed" can only over-count.
    pub cache_misses: u64,
    /// Response lines the span received (a ladder streams several).
    pub lines: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One client thread's span buffer.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    misses: Box<dyn Fn() -> u64 + Send>,
}

impl Tracer {
    pub fn new(epoch: Instant, misses: impl Fn() -> u64 + Send + 'static) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            misses: Box::new(misses),
        }
    }

    /// The server's cache-miss count right now.
    pub fn misses(&self) -> u64 {
        (self.misses)()
    }

    fn at(&self, instant: Instant) -> u64 {
        u64::try_from((instant - self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(
        &mut self,
        name: &str,
        session: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        let start_ns = self.at(start);
        self.spans.push(Span {
            name: name.to_owned(),
            session,
            parent,
            start_ns,
            end_ns: start_ns,
            cache_misses: 0,
            lines: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize, end: Instant) {
        self.spans[span].end_ns = self.at(end);
    }

    pub fn close_with(&mut self, span: usize, end: Instant, cache_misses: u64, lines: u64) {
        self.close(span, end);
        self.spans[span].cache_misses = cache_misses;
        self.spans[span].lines = lines;
    }

    pub fn leaf(&mut self, name: &str, session: u64, parent: usize, start: Instant, end: Instant) {
        let span = self.open(name, session, Some(parent), start);
        self.close(span, end);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread buffers, re-basing parent indices.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for buffer in buffers {
        let base = all.len();
        all.extend(buffer.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
    all
}

pub fn spans_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "name": s.name,
                    "session": s.session,
                    "parent": s.parent,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "cache_misses": s.cache_misses,
                    "lines": s.lines,
                })
            })
            .collect(),
    )
}

/// What the spans say about where a session's wall time went.
#[derive(Debug, Default, Clone)]
pub struct SpanSummary {
    pub sessions: usize,
    pub session_s_p50: f64,
    /// Share of session wall spent waiting on opens that computed theme
    /// detection (a cache miss under them, or the cache off).
    pub open_share: f64,
    /// Share spent waiting on map builds and ladder rungs that computed.
    pub map_share: f64,
    /// Share spent waiting on highlight / scatter.
    pub scan_share: f64,
    pub write_us_p50: f64,
    pub wait_us_p50: f64,
    pub parse_us_p50: f64,
}

const MAPPING: [&str; 5] = [
    "select_theme",
    "project_theme",
    "zoom",
    "map",
    "map_progressive",
];

/// Self time, not span time: a command span's wait is `wait_read` (or
/// the ladder's `first_level` + `refine`), the part of the command not
/// covered by the client's own write and parse.
pub fn summarize(spans: &[Span], cache_on: bool) -> SpanSummary {
    let mut session_ns = Vec::new();
    let mut wall = 0u64;
    let mut open = 0u64;
    let mut mapping = 0u64;
    let mut scan = 0u64;
    let mut leaf_us: [Vec<f64>; 3] = Default::default();
    for span in spans {
        let Some(parent) = span.parent.map(|p| &spans[p]) else {
            session_ns.push(span.nanos() as f64);
            wall += span.nanos();
            continue;
        };
        match span.name.as_str() {
            "write" => leaf_us[0].push(span.nanos() as f64 / 1e3),
            "parse" => leaf_us[2].push(span.nanos() as f64 / 1e3),
            "wait_read" | "first_level" | "refine" => {
                leaf_us[1].push(span.nanos() as f64 / 1e3);
                let computed = parent.cache_misses > 0 || !cache_on;
                if parent.name == "open" && computed {
                    open += span.nanos();
                } else if MAPPING.contains(&parent.name.as_str()) && computed {
                    mapping += span.nanos();
                } else if matches!(
                    parent.name.as_str(),
                    "highlight" | "scatter" | "region_detail"
                ) {
                    scan += span.nanos();
                }
            }
            _ => {}
        }
    }
    let share = |part: u64| {
        if wall == 0 {
            0.0
        } else {
            part as f64 / wall as f64
        }
    };
    SpanSummary {
        sessions: session_ns.len(),
        session_s_p50: median(&session_ns).unwrap_or(0.0) / 1e9,
        open_share: share(open),
        map_share: share(mapping),
        scan_share: share(scan),
        write_us_p50: median(&leaf_us[0]).unwrap_or(0.0),
        wait_us_p50: median(&leaf_us[1]).unwrap_or(0.0),
        parse_us_p50: median(&leaf_us[2]).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn shares_come_from_the_wait_under_miss_commands() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut tracer = Tracer::new(epoch, || 0);
        let session = tracer.open("session", 1, None, at(0));
        // A miss: 60 ms of waiting counts as analysis.
        let cmd = tracer.open("select_theme", 1, Some(session), at(0));
        tracer.leaf("write", 1, cmd, at(0), at(1));
        tracer.leaf("wait_read", 1, cmd, at(1), at(61));
        tracer.leaf("parse", 1, cmd, at(61), at(62));
        tracer.close_with(cmd, at(62), 1, 1);
        // A hit: its wait does not.
        let cmd = tracer.open("zoom", 1, Some(session), at(62));
        tracer.leaf("wait_read", 1, cmd, at(62), at(72));
        tracer.close_with(cmd, at(72), 0, 1);
        // A scan.
        let cmd = tracer.open("highlight", 1, Some(session), at(72));
        tracer.leaf("wait_read", 1, cmd, at(72), at(92));
        tracer.close_with(cmd, at(92), 0, 1);
        tracer.close(session, at(100));

        let other = Tracer::new(epoch, || 0);
        let spans = merge(vec![other.into_spans(), tracer.into_spans()]);
        let summary = summarize(&spans, true);
        assert_eq!(summary.sessions, 1);
        assert!((summary.session_s_p50 - 0.1).abs() < 1e-9);
        assert!((summary.map_share - 0.6).abs() < 1e-9);
        assert_eq!(summary.open_share, 0.0);
        assert!((summary.scan_share - 0.2).abs() < 1e-9);
        // With the cache off every analysis command computes.
        assert!((summarize(&spans, false).map_share - 0.7).abs() < 1e-9);
        assert_eq!(
            spans_json(&spans).as_array().map(Vec::len),
            Some(spans.len())
        );
    }
}
