//! A deliberately small HTTP/1.1 layer over `std::net`: enough to serve the
//! three-endpoint REST protocol and nothing more. One request per
//! connection (`Connection: close`), `Content-Length` bodies only (no
//! chunked encoding), bounded header and body sizes; the header bound holds
//! while the head is read, not only once a line ends, and the body buffer
//! grows with the bytes that arrive, not with the declared length. The same
//! discipline as the store format: hand-rolled over `std`, because the build
//! is offline.

use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum accepted header block, in bytes.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum accepted request body, in bytes. A million-row query is ~21 MB;
/// decoding it takes ≈ 0.35 s in a release build on a 2-core x86-64 host.
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// The most a body buffer reserves before its bytes arrive. Past it, the
/// buffer grows as the bytes do, so a declared `Content-Length` alone never
/// allocates more than this.
const BODY_RESERVE_BYTES: usize = 64 * 1024;
/// Socket read timeout: a client that stalls mid-request is dropped rather
/// than pinning a connection thread forever.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed request: method, path, body.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Decoded body (empty when none was sent).
    pub body: String,
}

/// A request-level failure the server answers with a 4xx before closing.
#[derive(Debug)]
pub struct HttpError {
    /// Status code to answer with.
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
}

fn http_err(status: u16, message: impl Into<String>) -> HttpError {
    HttpError {
        status,
        message: message.into(),
    }
}

/// Reads one HTTP/1.1 request from `reader`: a buffered socket with
/// [`READ_TIMEOUT`] set, in the server, or any byte source. Every input
/// gives a request or a typed error.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    // The request line and the headers share one budget, charged as each
    // line is read.
    let mut head_budget = MAX_HEADER_BYTES;

    let request_line = read_head_line(reader, &mut head_budget, "bad request line")?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| http_err(400, "empty request line"))?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| http_err(400, "request line has no path"))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(http_err(400, format!("unsupported version '{version}'")));
    }
    let path = target.split('?').next().unwrap_or(target).to_owned();

    // Headers: we only act on Content-Length.
    let mut content_length = 0usize;
    loop {
        let line = read_head_line(reader, &mut head_budget, "bad header")?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| http_err(400, "invalid Content-Length"))?;
            } else if name.trim().eq_ignore_ascii_case("transfer-encoding") {
                return Err(http_err(501, "chunked transfer encoding not supported"));
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(http_err(413, "request body too large"));
    }

    // Read through `take`, so the buffer holds what arrived: at most
    // `BODY_RESERVE_BYTES` up front, then amortised growth with the bytes.
    let mut body_bytes = Vec::with_capacity(content_length.min(BODY_RESERVE_BYTES));
    let read = reader
        .take(content_length as u64)
        .read_to_end(&mut body_bytes)
        .map_err(|e| http_err(400, format!("truncated body: {e}")))?;
    if read < content_length {
        return Err(http_err(
            400,
            format!("truncated body: {read} of {content_length} bytes"),
        ));
    }
    let body =
        String::from_utf8(body_bytes).map_err(|_| http_err(400, "body is not valid UTF-8"))?;

    Ok(Request { method, path, body })
}

/// Reads one line of the request head, newline included, and charges it to
/// `budget`. The read stops when the budget does, so a line that never ends
/// cannot grow past it: that is a 431. End of input returns what was read.
fn read_head_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
    what: &str,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    let read = reader
        .take(*budget as u64)
        .read_until(b'\n', &mut line)
        .map_err(|e| http_err(400, format!("{what}: {e}")))?;
    if read == *budget && line.last() != Some(&b'\n') {
        return Err(http_err(431, "header block too large"));
    }
    *budget -= read;
    String::from_utf8(line).map_err(|_| http_err(400, format!("{what}: not valid UTF-8")))
}

/// Writes one response and flushes. The connection is then closed by the
/// caller (the server speaks `Connection: close`).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A blocking single-request HTTP client: sends `method path` with `body`
/// and returns `(status, body)`. Shared by the integration tests and the
/// `joinmi_bench serve-check` CI leg, so the daemon is exercised through the
/// same wire format real callers use.
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\n\
         Host: {addr}\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let text = String::from_utf8(response)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status code"))?;
    Ok((status, body.to_owned()))
}
