//! Minimal HTTP/1.1 framing over blocking streams — exactly the subset
//! the transport needs, hand-rolled on `std` (the container has no
//! registry access, and a map server's wire format does not need one).
//!
//! The reader is *bounded everywhere*: request-line and header bytes are
//! capped, header count is capped, and bodies are rejected up front when
//! `Content-Length` exceeds the configured limit — the server never
//! buffers an unbounded body, and a client that stops sending mid-body
//! hits the socket read timeout instead of wedging a worker forever.

use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

/// Max bytes for the request line plus all headers.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Max number of request headers.
const MAX_HEADERS: usize = 64;

/// How request reading can fail, mapped by the caller onto HTTP statuses
/// (or onto a silent close for torn connections).
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request framing — answer 400 with the reason.
    BadRequest(String),
    /// A body was announced without `Content-Length` — answer 411.
    LengthRequired,
    /// The announced body exceeds the server's limit — answer 413
    /// *before* reading it.
    PayloadTooLarge {
        /// The limit that was exceeded.
        limit: usize,
        /// What the client announced.
        announced: usize,
    },
    /// The peer closed (or timed out, or reset) before/while sending —
    /// nothing to answer, just release the worker.
    Disconnected,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(why) => write!(f, "bad request: {why}"),
            HttpError::LengthRequired => f.write_str("length required"),
            HttpError::PayloadTooLarge { limit, announced } => {
                write!(f, "payload too large: {announced} bytes (limit {limit})")
            }
            HttpError::Disconnected => f.write_str("peer disconnected"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request. Header names are lowercased at parse time.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// `(lowercase-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the client asked to keep the connection open (the
    /// HTTP/1.1 default, unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A wall-clock budget for finishing one request once its first byte has
/// arrived. The socket read timeout alone cannot stop a *slow-drip* peer
/// (one byte per just-under-the-timeout interval resets it every read);
/// the deadline bounds the whole request, so a dripper costs a worker at
/// most the configured total, not hours.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
    budget: Duration,
}

impl Deadline {
    /// A deadline that starts ticking at the first byte of the request
    /// (an *idle* keep-alive connection is bounded by the socket read
    /// timeout instead, so well-behaved pipelining is unaffected).
    pub fn per_request(budget: Duration) -> Self {
        Deadline { at: None, budget }
    }

    /// No deadline (in-memory parsing, benches).
    pub fn none() -> Self {
        Deadline {
            at: None,
            budget: Duration::MAX,
        }
    }

    fn start(&mut self) {
        if self.at.is_none() && self.budget != Duration::MAX {
            self.at = Some(Instant::now() + self.budget);
        }
    }

    fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }
}

/// Reads one CRLF/LF-terminated line, erroring when it exceeds `remaining`
/// bytes (slowloris-style unbounded header lines must not accumulate) or
/// when `deadline` expires mid-line.
/// Returns the line without its terminator; `None` on clean EOF at a line
/// boundary.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    remaining: usize,
    deadline: &mut Deadline,
) -> Result<Option<Vec<u8>>, HttpError> {
    let mut line = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok([]) => {
                return if line.is_empty() {
                    Ok(None)
                } else {
                    Err(HttpError::Disconnected)
                }
            }
            Ok(buf) => buf,
            Err(_) => return Err(HttpError::Disconnected), // timeout/reset
        };
        deadline.start();
        if deadline.expired() {
            return Err(HttpError::Disconnected);
        }
        let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
            Some(at) => (&available[..at], true),
            None => (available, false),
        };
        if line.len() + chunk.len() > remaining {
            return Err(HttpError::BadRequest("header section too large".into()));
        }
        line.extend_from_slice(chunk);
        let consumed = chunk.len() + usize::from(done);
        reader.consume(consumed);
        if done {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(line));
        }
    }
}

/// Reads and parses one request off `reader`. `continue_sink` receives an
/// interim `100 Continue` when the client sent `Expect: 100-continue`
/// (what curl does for larger bodies). Bodies are only read when a valid
/// `Content-Length` within `max_body` is announced. `deadline` bounds the
/// whole request from its first byte — the defense the per-read socket
/// timeout cannot provide against slow-drip peers.
///
/// # Errors
/// See [`HttpError`]; `Ok(None)` means the peer closed cleanly between
/// requests (normal keep-alive termination).
pub fn read_request<R: BufRead, W: Write>(
    reader: &mut R,
    continue_sink: &mut W,
    max_body: usize,
    mut deadline: Deadline,
) -> Result<Option<Request>, HttpError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let request_line = match read_line_bounded(reader, head_budget, &mut deadline)? {
        None => return Ok(None),
        Some(line) => line,
    };
    head_budget = head_budget.saturating_sub(request_line.len());
    let request_line = String::from_utf8(request_line)
        .map_err(|_| HttpError::BadRequest("request line is not UTF-8".into()))?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::BadRequest("malformed request line".into())),
    };
    // HTTP/1.1 only: the batch endpoint answers with chunked framing and
    // the keep-alive default, neither of which HTTP/1.0 defines —
    // accepting 1.0 here would hand such clients responses they cannot
    // parse.
    if version != "HTTP/1.1" {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version:?} (HTTP/1.1 required)"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_owned();
    if !path.starts_with('/') {
        return Err(HttpError::BadRequest(
            "request target must be a path".into(),
        ));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line_bounded(reader, head_budget, &mut deadline)?
            .ok_or(HttpError::Disconnected)?;
        head_budget = head_budget.saturating_sub(line.len());
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::BadRequest("too many headers".into()));
        }
        let line = String::from_utf8(line)
            .map_err(|_| HttpError::BadRequest("header is not UTF-8".into()))?;
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let request = Request {
        method: method.to_ascii_uppercase(),
        path,
        headers,
        body: Vec::new(),
    };
    let body_len = match request.header("content-length") {
        Some(text) => Some(
            text.parse::<usize>()
                .map_err(|_| HttpError::BadRequest("unparseable Content-Length".into()))?,
        ),
        None => None,
    };
    if request.header("transfer-encoding").is_some() {
        // The server never needs chunked *requests*; refusing them keeps
        // body reading trivially bounded.
        return Err(HttpError::BadRequest(
            "chunked request bodies are not supported".into(),
        ));
    }
    let body_len = match body_len {
        Some(n) => n,
        None if request.method == "POST" || request.method == "PUT" => {
            return Err(HttpError::LengthRequired)
        }
        None => return Ok(Some(request)),
    };
    if body_len > max_body {
        // Reject before buffering a single body byte.
        return Err(HttpError::PayloadTooLarge {
            limit: max_body,
            announced: body_len,
        });
    }
    if request
        .header("expect")
        .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
    {
        let _ = continue_sink.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
        let _ = continue_sink.flush();
    }
    let mut request = request;
    request.body = vec![0u8; body_len];
    // Chunked read with a deadline check between chunks — `read_exact`
    // would loop internally, letting a slow-drip body evade the budget.
    let mut filled = 0usize;
    while filled < body_len {
        if deadline.expired() {
            return Err(HttpError::Disconnected);
        }
        match std::io::Read::read(reader, &mut request.body[filled..]) {
            Ok(0) | Err(_) => return Err(HttpError::Disconnected),
            Ok(n) => filled += n,
        }
    }
    Ok(Some(request))
}

/// Writes a complete response with `Content-Length` framing.
///
/// # Errors
/// Propagates socket write failures (the caller drops the connection).
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

/// Streaming response body using `Transfer-Encoding: chunked` — how the
/// batch endpoint emits one NDJSON line per resolved command without
/// knowing the total length up front. Construction writes the response
/// head; [`ChunkedWriter::finish`] writes the terminating chunk.
pub struct ChunkedWriter<'a, W: Write> {
    writer: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Starts a chunked response (writes status line + headers).
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn start(
        writer: &'a mut W,
        status: u16,
        reason: &str,
        content_type: &str,
        keep_alive: bool,
    ) -> std::io::Result<Self> {
        write!(
            writer,
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        writer.flush()?;
        Ok(ChunkedWriter { writer })
    }

    /// Writes one chunk and flushes — each NDJSON line reaches the client
    /// as soon as its command resolves, which is the whole point of the
    /// streaming variant.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn write_chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        write!(self.writer, "{:x}\r\n", data.len())?;
        self.writer.write_all(data)?;
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()
    }

    /// Terminates the chunked stream.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn finish(self) -> std::io::Result<()> {
        self.writer.write_all(b"0\r\n\r\n")?;
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> Result<Option<Request>, HttpError> {
        let mut sink = Vec::new();
        read_request(
            &mut Cursor::new(text.as_bytes()),
            &mut sink,
            1024,
            Deadline::none(),
        )
    }

    /// Yields its input one byte per read — the shape of a slow-drip
    /// attack, minus the waiting.
    struct Drip {
        data: Vec<u8>,
        at: usize,
    }

    impl std::io::Read for Drip {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    impl BufRead for Drip {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            let end = (self.at + 1).min(self.data.len());
            Ok(&self.data[self.at..end])
        }

        fn consume(&mut self, amt: usize) {
            self.at += amt;
        }
    }

    #[test]
    fn slow_drip_requests_hit_the_deadline() {
        // Every read yields one byte, so the per-read timeout never
        // fires — only the whole-request deadline can stop this. A
        // zero-budget deadline must reject as soon as it starts ticking.
        let mut drip = Drip {
            data: b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc".to_vec(),
            at: 0,
        };
        let mut sink = Vec::new();
        let strict = read_request(
            &mut drip,
            &mut sink,
            1024,
            Deadline::per_request(Duration::from_secs(0)),
        );
        assert!(matches!(strict, Err(HttpError::Disconnected)), "{strict:?}");
        // A generous deadline lets the same drip through untouched.
        let mut drip = Drip {
            data: b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc".to_vec(),
            at: 0,
        };
        let relaxed = read_request(
            &mut drip,
            &mut sink,
            1024,
            Deadline::per_request(Duration::from_secs(60)),
        )
        .unwrap()
        .unwrap();
        assert_eq!(relaxed.body, b"abc");
    }

    #[test]
    fn parses_get_and_post() {
        let get = parse("GET /healthz?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(
            (get.method.as_str(), get.path.as_str()),
            ("GET", "/healthz")
        );
        assert!(get.keep_alive());
        let post = parse(
            "POST /sessions HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbody",
        )
        .unwrap()
        .unwrap();
        assert_eq!(post.body, b"body");
        assert!(!post.keep_alive());
        assert_eq!(post.header("content-type"), Some("application/json"));
    }

    #[test]
    fn clean_eof_is_none_torn_request_is_disconnected() {
        assert!(parse("").unwrap().is_none());
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nHost"),
            Err(HttpError::Disconnected)
        ));
        // Announced body longer than what arrives: mid-body disconnect.
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Disconnected)
        ));
    }

    #[test]
    fn bounded_everything() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&long_line), Err(HttpError::BadRequest(_))));
        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..MAX_HEADERS + 1)
                .map(|i| format!("h{i}: v\r\n"))
                .collect::<String>()
        );
        assert!(matches!(
            parse(&many_headers),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 4096\r\n\r\n"),
            Err(HttpError::PayloadTooLarge {
                limit: 1024,
                announced: 4096
            })
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\n\r\n"),
            Err(HttpError::LengthRequired)
        ));
    }

    #[test]
    fn malformed_lines_rejected() {
        for bad in [
            "GARBAGE\r\n\r\n",
            "GET /x HTTP/2\r\n\r\n",
            "GET /x HTTP/1.0\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad), Err(HttpError::BadRequest(_))),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn expect_100_continue_gets_an_interim_response() {
        let mut sink = Vec::new();
        let text = "POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nhi";
        let req = read_request(
            &mut Cursor::new(text.as_bytes()),
            &mut sink,
            1024,
            Deadline::none(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"hi");
        assert!(String::from_utf8(sink).unwrap().starts_with("HTTP/1.1 100"));
    }

    #[test]
    fn response_and_chunked_framing() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "OK",
            "application/json",
            b"{}",
            true,
            &[("Retry-After", "1".to_owned())],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        let mut chunked =
            ChunkedWriter::start(&mut out, 200, "OK", "application/x-ndjson", false).unwrap();
        chunked.write_chunk(b"line one\n").unwrap();
        chunked.write_chunk(b"").unwrap(); // no-op, must not terminate
        chunked.write_chunk(b"two\n").unwrap();
        chunked.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("9\r\nline one\n\r\n"), "{text}");
        assert!(text.ends_with("4\r\ntwo\n\r\n0\r\n\r\n"), "{text}");
    }
}
