//! Minimal, paranoid HTTP/1.1 plumbing: request parsing, body framing,
//! and response writing over `std` sockets only.
//!
//! Everything here is written against *hostile* input. The parsing
//! entry points ([`read_head`], [`parse_head`], [`ChunkedReader`]) are
//! pure over `BufRead`/byte slices so they can be property-tested from
//! in-memory cursors, and they uphold one contract: **arbitrary bytes
//! never panic and never allocate past the configured caps** — every
//! malformed input maps to a typed [`HttpError`] that the server turns
//! into a well-formed 4xx response or a clean close.

use std::io::{self, BufRead, Read, Write};

/// Maximum bytes of a single framing line (chunk-size lines, trailers).
const MAX_LINE_BYTES: usize = 512;

/// Maximum number of header fields in one request head.
const MAX_HEADER_FIELDS: usize = 128;

/// A typed transport/parse failure, each mapping to one response class.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request syntax → `400 Bad Request`.
    BadRequest(String),
    /// The header section exceeded its cap → `431`.
    HeadersTooLarge,
    /// The body (declared or streamed) exceeded its cap → `413`.
    BodyTooLarge,
    /// A socket read/write timed out (slow-loris) → `408` (or `504`
    /// once the request deadline itself has passed).
    Timeout,
    /// The peer closed mid-request; there is nobody left to answer.
    Closed,
    /// Any other transport error; also unanswerable.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadRequest(detail) => write!(f, "bad request: {detail}"),
            Self::HeadersTooLarge => write!(f, "request header section too large"),
            Self::BodyTooLarge => write!(f, "request body too large"),
            Self::Timeout => write!(f, "socket timeout"),
            Self::Closed => write!(f, "connection closed by peer"),
            Self::Io(detail) => write!(f, "transport error: {detail}"),
        }
    }
}

/// Maps an `io::Error` onto the taxonomy. `WouldBlock` appears because
/// `set_read_timeout` surfaces expiry as either kind depending on the
/// platform.
fn map_io(err: &io::Error) -> HttpError {
    match err.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
        io::ErrorKind::UnexpectedEof | io::ErrorKind::ConnectionReset => HttpError::Closed,
        _ => HttpError::Io(err.to_string()),
    }
}

/// How the request frames its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyPlan {
    /// Exactly this many bytes follow the head (0 when neither
    /// `Content-Length` nor `Transfer-Encoding` was sent).
    Sized(usize),
    /// `Transfer-Encoding: chunked` framing follows.
    Chunked,
}

/// A parsed request line plus header fields. Produced by [`parse_head`];
/// header lookup is case-insensitive per RFC 9110.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// Request method token, verbatim (e.g. `GET`).
    pub method: String,
    /// Request target, verbatim (e.g. `/check?verbose=1`).
    pub target: String,
    /// Protocol version (`HTTP/1.0` or `HTTP/1.1`).
    pub version: String,
    /// Header fields in wire order, names verbatim.
    pub headers: Vec<(String, String)>,
}

impl RequestHead {
    /// The first value of a header, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(field, _)| field.eq_ignore_ascii_case(name))
            .map(|(_, value)| value.as_str())
    }

    /// The request path with any query string stripped.
    pub fn path(&self) -> &str {
        self.target.split_once('?').map_or(self.target.as_str(), |(path, _)| path)
    }

    /// Resolves the body framing, rejecting ambiguous requests.
    ///
    /// # Errors
    ///
    /// [`HttpError::BadRequest`] for an unsupported `Transfer-Encoding`,
    /// a request carrying *both* `Transfer-Encoding` and
    /// `Content-Length` (the classic smuggling ambiguity), a
    /// non-numeric/overflowing `Content-Length`, or conflicting
    /// duplicate `Content-Length` fields.
    pub fn body_plan(&self) -> Result<BodyPlan, HttpError> {
        let transfer_encoding = self.header("transfer-encoding");
        let lengths: Vec<&str> = self
            .headers
            .iter()
            .filter(|(field, _)| field.eq_ignore_ascii_case("content-length"))
            .map(|(_, value)| value.as_str())
            .collect();
        if let Some(encoding) = transfer_encoding {
            if !encoding.trim().eq_ignore_ascii_case("chunked") {
                return Err(HttpError::BadRequest(format!(
                    "unsupported Transfer-Encoding {encoding:?}"
                )));
            }
            if !lengths.is_empty() {
                return Err(HttpError::BadRequest(
                    "both Transfer-Encoding and Content-Length present".into(),
                ));
            }
            return Ok(BodyPlan::Chunked);
        }
        let Some((&first, rest)) = lengths.split_first() else {
            return Ok(BodyPlan::Sized(0));
        };
        if rest.iter().any(|&other| other != first) {
            return Err(HttpError::BadRequest("conflicting Content-Length values".into()));
        }
        let length: usize = first
            .trim()
            .parse()
            .map_err(|_| HttpError::BadRequest(format!("invalid Content-Length {first:?}")))?;
        Ok(BodyPlan::Sized(length))
    }
}

/// Reads one request head (request line + headers + blank line) off the
/// reader, consuming exactly through the terminator so the body stays
/// buffered for the caller.
///
/// Tolerates bare-LF line endings (`\n\n` terminates like `\r\n\r\n`).
/// Returns `Ok(None)` when the peer closed before sending any bytes —
/// the clean "no request" case.
///
/// # Errors
///
/// [`HttpError::HeadersTooLarge`] past `max_bytes`, [`HttpError::Closed`]
/// on EOF mid-head, [`HttpError::Timeout`] on socket timeout.
pub fn read_head<R: BufRead + ?Sized>(
    reader: &mut R,
    max_bytes: usize,
) -> Result<Option<Vec<u8>>, HttpError> {
    let mut head: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(map_io(&err)),
        };
        if buf.is_empty() {
            return if head.is_empty() { Ok(None) } else { Err(HttpError::Closed) };
        }
        let mut consumed = 0;
        for &byte in buf {
            consumed += 1;
            head.push(byte);
            if head.len() > max_bytes {
                reader.consume(consumed);
                return Err(HttpError::HeadersTooLarge);
            }
            if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
                reader.consume(consumed);
                return Ok(Some(head));
            }
        }
        reader.consume(consumed);
    }
}

/// Whether `byte` may appear in a header field name / method token
/// (RFC 9110 `tchar`).
fn is_token_byte(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&byte)
}

/// Parses a request head captured by [`read_head`] — or any byte salad;
/// the function is total over arbitrary input (the property suite feeds
/// it garbage directly).
///
/// # Errors
///
/// [`HttpError::BadRequest`] for every syntactic violation: non-UTF-8
/// bytes, a malformed request line, an unsupported version, missing
/// colons, empty or non-token field names, control bytes in values,
/// obs-folded continuation lines, or more than 128 fields.
pub fn parse_head(bytes: &[u8]) -> Result<RequestHead, HttpError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| HttpError::BadRequest("header bytes are not UTF-8".into()))?;
    // Drop the trailing blank-line terminator (either flavour), then
    // split into lines accepting CRLF or bare LF.
    let text = text.trim_end_matches(['\r', '\n']);
    let mut lines = text.split('\n').map(|line| line.strip_suffix('\r').unwrap_or(line));

    let request_line = lines.next().ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if parts.next().is_some() {
        return Err(HttpError::BadRequest("request line has more than three parts".into()));
    }
    if method.is_empty() || !method.bytes().all(is_token_byte) {
        return Err(HttpError::BadRequest(format!("invalid method {method:?}")));
    }
    if target.is_empty() || !(target.starts_with('/') || target == "*") {
        return Err(HttpError::BadRequest(format!("invalid request target {target:?}")));
    }
    if target.bytes().any(|b| b.is_ascii_control()) {
        return Err(HttpError::BadRequest("control bytes in request target".into()));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!("unsupported version {version:?}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            // An interior blank line means the caller handed us bytes past
            // the head terminator; whatever follows is not a header.
            return Err(HttpError::BadRequest("blank line inside header section".into()));
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(HttpError::BadRequest("obsolete header line folding".into()));
        }
        if headers.len() >= MAX_HEADER_FIELDS {
            return Err(HttpError::BadRequest("too many header fields".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("header line without colon: {line:?}")))?;
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpError::BadRequest(format!("invalid header name {name:?}")));
        }
        let value = value.trim_matches([' ', '\t']);
        if value.bytes().any(|b| b.is_ascii_control() && b != b'\t') {
            return Err(HttpError::BadRequest(format!("control bytes in header {name:?}")));
        }
        headers.push((name.to_string(), value.to_string()));
    }
    Ok(RequestHead {
        method: method.to_string(),
        target: target.to_string(),
        version: version.to_string(),
        headers,
    })
}

/// Reads an exactly-`length` body, enforcing the cap *before* reading.
///
/// # Errors
///
/// [`HttpError::BodyTooLarge`] when `length > max_bytes` (nothing is
/// read — the server answers 413 immediately), plus the usual transport
/// errors.
pub fn read_sized_body<R: Read + ?Sized>(
    reader: &mut R,
    length: usize,
    max_bytes: usize,
) -> Result<Vec<u8>, HttpError> {
    if length > max_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).map_err(|err| map_io(&err))?;
    Ok(body)
}

/// Reads one framing line (terminated by LF, optional CR stripped) with
/// a hard length cap.
fn read_line_capped<R: BufRead + ?Sized>(reader: &mut R, cap: usize) -> Result<Vec<u8>, HttpError> {
    let mut line = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(map_io(&err)),
        };
        if buf.is_empty() {
            return Err(HttpError::Closed);
        }
        let mut consumed = 0;
        for &byte in buf {
            consumed += 1;
            if byte == b'\n' {
                reader.consume(consumed);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(line);
            }
            line.push(byte);
            if line.len() > cap {
                reader.consume(consumed);
                return Err(HttpError::BadRequest("framing line too long".into()));
            }
        }
        reader.consume(consumed);
    }
}

/// Parses a chunk-size line: hex digits, optional `;extensions` ignored.
fn parse_chunk_size(line: &[u8]) -> Result<usize, HttpError> {
    let digits = line.split(|&b| b == b';').next().unwrap_or_default();
    let digits = std::str::from_utf8(digits)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 chunk-size line".into()))?
        .trim();
    if digits.is_empty() {
        return Err(HttpError::BadRequest("empty chunk size".into()));
    }
    usize::from_str_radix(digits, 16)
        .map_err(|_| HttpError::BadRequest(format!("invalid chunk size {digits:?}")))
}

/// Pull-based `Transfer-Encoding: chunked` decoder with a cumulative
/// byte budget: the total of all frames can never exceed `max_total`,
/// so a hostile stream cannot balloon memory past the request-size cap.
///
/// The detection service gives each HTTP chunk meaning: on `/scan`, one
/// chunk is one complete image file, so frames are surfaced one at a
/// time rather than concatenated.
#[derive(Debug)]
pub struct ChunkedReader<'a, R: BufRead + ?Sized> {
    reader: &'a mut R,
    budget: usize,
    done: bool,
}

impl<'a, R: BufRead + ?Sized> ChunkedReader<'a, R> {
    /// Wraps `reader` with a cumulative body budget of `max_total` bytes.
    pub fn new(reader: &'a mut R, max_total: usize) -> Self {
        Self { reader, budget: max_total, done: false }
    }

    /// The next chunk's payload, or `None` after the terminal 0-chunk.
    ///
    /// # Errors
    ///
    /// [`HttpError::BodyTooLarge`] once the cumulative budget is blown;
    /// [`HttpError::BadRequest`] on malformed framing; transport errors
    /// pass through. After any error the reader is poisoned (`done`).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, HttpError> {
        if self.done {
            return Ok(None);
        }
        match self.next_frame_inner() {
            Ok(frame) => Ok(frame),
            Err(err) => {
                self.done = true;
                Err(err)
            }
        }
    }

    fn next_frame_inner(&mut self) -> Result<Option<Vec<u8>>, HttpError> {
        let line = read_line_capped(self.reader, MAX_LINE_BYTES)?;
        let size = parse_chunk_size(&line)?;
        if size == 0 {
            // Trailer fields (ignored) up to the terminating blank line.
            loop {
                let trailer = read_line_capped(self.reader, MAX_LINE_BYTES)?;
                if trailer.is_empty() {
                    break;
                }
            }
            self.done = true;
            return Ok(None);
        }
        if size > self.budget {
            return Err(HttpError::BodyTooLarge);
        }
        self.budget -= size;
        let mut frame = vec![0u8; size];
        self.reader.read_exact(&mut frame).map_err(|err| map_io(&err))?;
        // Chunk payloads are CRLF-terminated; tolerate bare LF.
        let mut sep = [0u8; 1];
        self.reader.read_exact(&mut sep).map_err(|err| map_io(&err))?;
        if sep[0] == b'\r' {
            self.reader.read_exact(&mut sep).map_err(|err| map_io(&err))?;
        }
        if sep[0] != b'\n' {
            return Err(HttpError::BadRequest("chunk payload not CRLF-terminated".into()));
        }
        Ok(Some(frame))
    }
}

/// The standard reason phrase for the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// An HTTP/1.1 response. Every response closes the connection
/// (`Connection: close`) — one request per connection keeps the
/// admission-control accounting exact.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Optional `Retry-After` (seconds) — set on every shed 503.
    pub retry_after: Option<u32>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            retry_after: None,
            body: body.into_bytes(),
        }
    }

    /// A plain-text response (the `/metrics` exposition).
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            retry_after: None,
            body: body.into_bytes(),
        }
    }

    /// Builder: attaches a `Retry-After` header.
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u32) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Serialises head + body onto the writer and flushes.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (the caller logs and drops them — the
    /// peer may be gone).
    pub fn write_to<W: Write + ?Sized>(&self, writer: &mut W) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nConnection: close\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        );
        if let Some(seconds) = self.retry_after {
            head.push_str(&format!("Retry-After: {seconds}\r\n"));
        }
        head.push_str("\r\n");
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn head_of(raw: &[u8]) -> RequestHead {
        let mut cursor = Cursor::new(raw.to_vec());
        let bytes = read_head(&mut cursor, 16 * 1024).unwrap().expect("head present");
        parse_head(&bytes).unwrap()
    }

    #[test]
    fn parses_a_simple_request() {
        let head = head_of(b"POST /check HTTP/1.1\r\nContent-Length: 5\r\nHost: x\r\n\r\nhello");
        assert_eq!(head.method, "POST");
        assert_eq!(head.path(), "/check");
        assert_eq!(head.header("content-length"), Some("5"));
        assert_eq!(head.header("HOST"), Some("x"));
        assert_eq!(head.body_plan().unwrap(), BodyPlan::Sized(5));
    }

    #[test]
    fn read_head_leaves_the_body_buffered() {
        let mut cursor = Cursor::new(b"GET / HTTP/1.1\r\n\r\nBODY".to_vec());
        let _ = read_head(&mut cursor, 1024).unwrap().unwrap();
        let mut rest = Vec::new();
        cursor.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"BODY");
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let head = head_of(b"GET /healthz HTTP/1.1\nHost: y\n\n");
        assert_eq!(head.path(), "/healthz");
        assert_eq!(head.header("host"), Some("y"));
    }

    #[test]
    fn query_strings_are_stripped_from_the_path() {
        let head = head_of(b"GET /metrics?format=json HTTP/1.1\r\n\r\n");
        assert_eq!(head.path(), "/metrics");
    }

    #[test]
    fn oversized_head_is_431_not_unbounded() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 64 * 1024));
        let mut cursor = Cursor::new(raw);
        assert!(matches!(read_head(&mut cursor, 1024), Err(HttpError::HeadersTooLarge)));
    }

    #[test]
    fn truncated_head_is_a_clean_close() {
        let mut cursor = Cursor::new(b"GET / HTTP/1.1\r\nHos".to_vec());
        assert!(matches!(read_head(&mut cursor, 1024), Err(HttpError::Closed)));
        let mut empty = Cursor::new(Vec::new());
        assert!(read_head(&mut empty, 1024).unwrap().is_none());
    }

    #[test]
    fn content_length_overflow_and_conflicts_are_rejected() {
        let head = head_of(b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n");
        assert!(matches!(head.body_plan(), Err(HttpError::BadRequest(_))));
        let head = head_of(b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n");
        assert!(matches!(head.body_plan(), Err(HttpError::BadRequest(_))));
        let head =
            head_of(b"POST / HTTP/1.1\r\nContent-Length: 1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(matches!(head.body_plan(), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn garbage_request_lines_are_bad_requests() {
        for raw in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"G\x01T / HTTP/1.1\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-line\r\n\r\n",
            b"GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
            b"GET / HTTP/1.1\r\nA: b\r\n folded\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            assert!(parse_head(raw).is_err(), "{raw:?} should be rejected");
        }
    }

    #[test]
    fn sized_body_cap_is_checked_before_reading() {
        let mut cursor = Cursor::new(vec![0u8; 10]);
        assert!(matches!(read_sized_body(&mut cursor, 11, 10), Err(HttpError::BodyTooLarge)));
        assert_eq!(cursor.position(), 0, "nothing consumed on 413");
        assert_eq!(read_sized_body(&mut cursor, 10, 10).unwrap().len(), 10);
    }

    #[test]
    fn chunked_frames_round_trip() {
        let raw = b"3\r\nabc\r\n5;ext=1\r\nhello\r\n0\r\nTrailer: x\r\n\r\n";
        let mut cursor = Cursor::new(raw.to_vec());
        let mut frames = ChunkedReader::new(&mut cursor, 1024);
        assert_eq!(frames.next_frame().unwrap().as_deref(), Some(&b"abc"[..]));
        assert_eq!(frames.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
        assert!(frames.next_frame().unwrap().is_none());
        assert!(frames.next_frame().unwrap().is_none(), "terminal state is sticky");
    }

    #[test]
    fn chunked_budget_is_cumulative() {
        let raw = b"4\r\naaaa\r\n4\r\nbbbb\r\n0\r\n\r\n";
        let mut cursor = Cursor::new(raw.to_vec());
        let mut frames = ChunkedReader::new(&mut cursor, 6);
        assert!(frames.next_frame().unwrap().is_some());
        assert!(matches!(frames.next_frame(), Err(HttpError::BodyTooLarge)));
        assert!(frames.next_frame().unwrap().is_none(), "errors poison the reader");
    }

    #[test]
    fn chunked_rejects_malformed_framing() {
        for raw in [&b"zz\r\nab\r\n0\r\n\r\n"[..], b"\r\n\r\n", b"3\r\nabcX\r\n0\r\n\r\n"] {
            let mut cursor = Cursor::new(raw.to_vec());
            let mut frames = ChunkedReader::new(&mut cursor, 1024);
            let mut result = Ok(Some(Vec::new()));
            while let Ok(Some(_)) = result {
                result = frames.next_frame();
            }
            assert!(result.is_err(), "{raw:?} should error");
        }
    }

    #[test]
    fn chunk_size_overflow_is_rejected() {
        let raw = b"ffffffffffffffffff\r\nx\r\n0\r\n\r\n";
        let mut cursor = Cursor::new(raw.to_vec());
        let mut frames = ChunkedReader::new(&mut cursor, usize::MAX);
        assert!(matches!(frames.next_frame(), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn responses_serialise_with_content_length_and_retry_after() {
        let mut out = Vec::new();
        Response::json(503, "{\"error\":\"overloaded\"}".into())
            .with_retry_after(1)
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 22\r\n"));
        assert!(text.ends_with("{\"error\":\"overloaded\"}"));
    }
}
