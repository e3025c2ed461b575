//! A minimal keep-alive HTTP/1.1 client over one raw `TcpStream` — dumb
//! on purpose, so the benchmark measures the server and not a client
//! library. Every exchange returns the instants a span needs: request
//! written, response bytes read, JSON parsed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use serde_json::Value;

/// When the phases of one exchange ended.
#[derive(Debug, Clone, Copy)]
pub struct Instants {
    pub start: Instant,
    pub written: Instant,
    pub read: Instant,
    pub parsed: Instant,
}

impl Instants {
    pub fn total(&self) -> Duration {
        self.parsed - self.start
    }
}

/// One request/response exchange.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Value,
    pub bytes: usize,
    pub at: Instants,
}

/// One line of a streamed NDJSON response and when it was parsed.
#[derive(Debug)]
pub struct Line {
    pub body: Value,
    pub bytes: usize,
    pub at: Instant,
}

/// A streamed (chunked NDJSON) response.
#[derive(Debug)]
pub struct Stream {
    pub status: u16,
    pub lines: Vec<Line>,
    pub start: Instant,
    pub written: Instant,
}

pub struct WireClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Compact JSON text of a built value.
pub fn text(value: &Value) -> String {
    serde_json::to_string(value).expect("serializing a built Value cannot fail")
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned())
}

enum Framing {
    Length(usize),
    Chunked,
}

impl WireClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(WireClient {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> std::io::Result<()> {
        let mut request = format!("{method} {path} HTTP/1.1\r\nHost: wirebench\r\n");
        if let Some(body) = body {
            request.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ));
        } else {
            request.push_str("\r\n");
        }
        // One write: head and body leave in the same segment.
        self.writer.write_all(request.as_bytes())?;
        self.writer.flush()
    }

    fn read_head(&mut self) -> std::io::Result<(u16, Framing)> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before a status line"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut framing = Framing::Length(0);
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim().to_ascii_lowercase();
            if header.is_empty() {
                return Ok((status, framing));
            }
            if let Some(v) = header.strip_prefix("content-length:") {
                framing = Framing::Length(v.trim().parse().map_err(|_| bad("bad content-length"))?);
            } else if header.starts_with("transfer-encoding:") && header.contains("chunked") {
                framing = Framing::Chunked;
            }
        }
    }

    /// One request, one `Content-Length` response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Reply> {
        let start = Instant::now();
        self.send(method, path, body)?;
        let written = Instant::now();
        let (status, Framing::Length(length)) = self.read_head()? else {
            return Err(bad("expected a Content-Length response"));
        };
        let mut bytes = vec![0u8; length];
        self.reader.read_exact(&mut bytes)?;
        let read = Instant::now();
        let body = serde_json::from_slice(&bytes).map_err(|_| bad("unparseable body"))?;
        Ok(Reply {
            status,
            body,
            bytes: length,
            at: Instants {
                start,
                written,
                read,
                parsed: Instant::now(),
            },
        })
    }

    /// One request whose response streams NDJSON lines (chunked); every
    /// line is stamped as it is parsed. A non-streamed answer (an error
    /// status) comes back as one line.
    pub fn stream(&mut self, path: &str, body: &str) -> std::io::Result<Stream> {
        let start = Instant::now();
        self.send("POST", path, Some(body))?;
        let written = Instant::now();
        let (status, framing) = self.read_head()?;
        let mut lines = Vec::new();
        let mut push = |text: &[u8]| -> std::io::Result<()> {
            if text.iter().all(u8::is_ascii_whitespace) {
                return Ok(());
            }
            let body = serde_json::from_slice(text).map_err(|_| bad("unparseable line"))?;
            lines.push(Line {
                body,
                bytes: text.len(),
                at: Instant::now(),
            });
            Ok(())
        };
        match framing {
            Framing::Length(length) => {
                let mut bytes = vec![0u8; length];
                self.reader.read_exact(&mut bytes)?;
                push(&bytes)?;
            }
            Framing::Chunked => {
                let mut pending = Vec::new();
                loop {
                    let mut size_line = String::new();
                    self.reader.read_line(&mut size_line)?;
                    let size = usize::from_str_radix(size_line.trim(), 16)
                        .map_err(|_| bad("bad chunk size"))?;
                    let mut chunk = vec![0u8; size + 2]; // data + CRLF
                    self.reader.read_exact(&mut chunk)?;
                    if size == 0 {
                        break;
                    }
                    pending.extend_from_slice(&chunk[..size]);
                    while let Some(at) = pending.iter().position(|&b| b == b'\n') {
                        let rest = pending.split_off(at + 1);
                        push(&pending)?;
                        pending = rest;
                    }
                }
                push(&pending)?;
            }
        }
        Ok(Stream {
            status,
            lines,
            start,
            written,
        })
    }
}
