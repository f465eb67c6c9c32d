//! A total, std-only HTTP/1.1 codec for the results server.
//!
//! The workspace is hermetic (no external crates), so the server parses
//! its own wire format. The parser is *total*: every possible byte
//! sequence produces either a complete message, a "need more bytes"
//! signal, or a typed [`HttpError`] — never a panic and never an
//! unbounded buffer. Truncated input is [`Parsed::Partial`] (the caller
//! reads more, under its I/O deadline); garbage is a typed error mapped
//! to a 4xx/5xx status; oversized heads and bodies are rejected at
//! fixed limits before any allocation proportional to the claim.
//!
//! Deliberately out of scope (typed rejections, not silent guesses):
//! chunked transfer encoding, continuation lines, and methods other
//! than `GET`/`POST`.

use std::sync::Arc;

/// Largest accepted request/status line + header block, in bytes.
/// Anything still headerless past this is load, not a client.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Largest accepted body. Scenario JSONs are tens of KiB; 4 MiB leaves
/// two orders of magnitude of slack while bounding per-connection
/// memory.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Largest accepted request target.
pub const MAX_TARGET_BYTES: usize = 1024;

/// The request methods the server implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
}

/// A fully parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target (always starts with `/`).
    pub target: String,
    /// Headers in arrival order, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A fully parsed response (the `nomc submit` client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes (empty when the header
    /// is absent).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a byte sequence is not (and will never become) a valid message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request/status line is malformed.
    BadRequestLine {
        /// What was wrong with it.
        reason: String,
    },
    /// A syntactically valid method the server does not implement.
    UnsupportedMethod {
        /// The method token.
        method: String,
    },
    /// A version other than HTTP/1.0 or HTTP/1.1.
    BadVersion {
        /// The version token.
        version: String,
    },
    /// The request target exceeds [`MAX_TARGET_BYTES`].
    TargetTooLong {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// No end-of-headers within [`MAX_HEAD_BYTES`] — a runaway or
    /// slowloris head.
    HeadTooLarge {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A malformed header line.
    BadHeader {
        /// 1-based line number within the message head.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A missing, duplicated, or non-numeric `Content-Length`.
    BadContentLength {
        /// What was wrong with it.
        reason: String,
    },
    /// The declared body length exceeds [`MAX_BODY_BYTES`]. Rejected
    /// from the header alone — the body is never buffered.
    BodyTooLarge {
        /// The limit that was exceeded.
        limit: usize,
        /// The declared length.
        length: u64,
    },
    /// A `Transfer-Encoding` header (chunked bodies are not
    /// implemented; senders must use `Content-Length`).
    UnsupportedTransferEncoding,
}

impl HttpError {
    /// The response status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::UnsupportedMethod { .. } => 405,
            HttpError::HeadTooLarge { .. } => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::UnsupportedTransferEncoding => 501,
            HttpError::BadRequestLine { .. }
            | HttpError::BadVersion { .. }
            | HttpError::TargetTooLong { .. }
            | HttpError::BadHeader { .. }
            | HttpError::BadContentLength { .. } => 400,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequestLine { reason } => write!(f, "bad request line: {reason}"),
            HttpError::UnsupportedMethod { method } => {
                write!(f, "unsupported method `{method}` (GET and POST only)")
            }
            HttpError::BadVersion { version } => {
                write!(f, "unsupported version `{version}` (HTTP/1.0 or HTTP/1.1)")
            }
            HttpError::TargetTooLong { limit } => {
                write!(f, "request target longer than {limit} bytes")
            }
            HttpError::HeadTooLarge { limit } => {
                write!(f, "no end of headers within {limit} bytes")
            }
            HttpError::BadHeader { line, reason } => {
                write!(f, "bad header on line {line}: {reason}")
            }
            HttpError::BadContentLength { reason } => write!(f, "bad Content-Length: {reason}"),
            HttpError::BodyTooLarge { limit, length } => {
                write!(
                    f,
                    "declared body of {length} bytes exceeds the {limit}-byte limit"
                )
            }
            HttpError::UnsupportedTransferEncoding => {
                write!(
                    f,
                    "Transfer-Encoding is not supported; send a Content-Length body"
                )
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// The outcome of parsing a byte prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed<T> {
    /// A complete message; `consumed` bytes belong to it (pipelined
    /// bytes past `consumed` are the next message's prefix).
    Complete {
        /// The parsed message.
        value: T,
        /// Bytes of `buf` the message occupied.
        consumed: usize,
    },
    /// The bytes so far are a valid prefix; read more.
    Partial,
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Splits a validated head into its first line and header lines.
///
/// # Errors
///
/// [`HttpError::BadRequestLine`] when the head is not UTF-8 (HTTP heads
/// are ASCII; anything else is garbage, not a protocol).
fn head_lines(head: &[u8]) -> Result<Vec<&str>, HttpError> {
    let text = std::str::from_utf8(head).map_err(|_| HttpError::BadRequestLine {
        reason: "head is not valid UTF-8".to_string(),
    })?;
    Ok(text.split("\r\n").collect())
}

/// Parses the shared header-line section (everything after line 1).
fn parse_headers(lines: &[&str]) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::with_capacity(lines.len());
    for (i, raw) in lines.iter().enumerate() {
        let line = i + 2; // 1-based; line 1 is the request/status line
        let Some((name, value)) = raw.split_once(':') else {
            return Err(HttpError::BadHeader {
                line,
                reason: "missing `:`".to_string(),
            });
        };
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
        {
            return Err(HttpError::BadHeader {
                line,
                reason: format!("invalid field name {name:?}"),
            });
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

/// The body length a header set declares.
///
/// # Errors
///
/// [`HttpError::UnsupportedTransferEncoding`], or
/// [`HttpError::BadContentLength`] on duplicates and non-numbers, or
/// [`HttpError::BodyTooLarge`] past [`MAX_BODY_BYTES`] — all decided
/// from the head alone, before buffering any body byte.
fn declared_body_len(headers: &[(String, String)]) -> Result<usize, HttpError> {
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::UnsupportedTransferEncoding);
    }
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let Some((_, first)) = lengths.next() else {
        return Ok(0);
    };
    if lengths.next().is_some() {
        return Err(HttpError::BadContentLength {
            reason: "duplicate header".to_string(),
        });
    }
    let length: u64 = first.parse().map_err(|_| HttpError::BadContentLength {
        reason: format!("not a non-negative integer: {first:?}"),
    })?;
    if length > MAX_BODY_BYTES as u64 {
        return Err(HttpError::BodyTooLarge {
            limit: MAX_BODY_BYTES,
            length,
        });
    }
    Ok(length as usize)
}

/// Locates the head, enforcing [`MAX_HEAD_BYTES`]; `Ok(None)` means
/// "valid prefix, read more".
fn bounded_head(buf: &[u8]) -> Result<Option<usize>, HttpError> {
    match find_head_end(buf) {
        Some(end) if end + 4 > MAX_HEAD_BYTES => Err(HttpError::HeadTooLarge {
            limit: MAX_HEAD_BYTES,
        }),
        Some(end) => Ok(Some(end)),
        None if buf.len() > MAX_HEAD_BYTES => Err(HttpError::HeadTooLarge {
            limit: MAX_HEAD_BYTES,
        }),
        None => Ok(None),
    }
}

/// Assembles the complete message once `head_end` is known: computes
/// the declared body length and either waits for it or slices it off.
fn complete<T>(
    buf: &[u8],
    head_end: usize,
    headers: Vec<(String, String)>,
    build: impl FnOnce(Vec<(String, String)>, Vec<u8>) -> T,
) -> Result<Parsed<T>, HttpError> {
    let body_len = declared_body_len(&headers)?;
    let consumed = head_end + 4 + body_len;
    let Some(body) = buf.get(head_end + 4..consumed) else {
        return Ok(Parsed::Partial);
    };
    Ok(Parsed::Complete {
        value: build(headers, body.to_vec()),
        consumed,
    })
}

/// Parses a request from the front of `buf`.
///
/// Total over arbitrary bytes: returns [`Parsed::Partial`] while `buf`
/// is a valid prefix, a typed [`HttpError`] the moment it cannot become
/// a valid request (the connection should answer with
/// [`HttpError::status`] and close), and never panics.
///
/// # Errors
///
/// Every [`HttpError`] variant, as described on the variant.
pub fn parse_request(buf: &[u8]) -> Result<Parsed<Request>, HttpError> {
    let Some(head_end) = bounded_head(buf)? else {
        return Ok(Parsed::Partial);
    };
    let lines = head_lines(buf.get(..head_end).unwrap_or_default())?;
    let (first, rest) = lines
        .split_first()
        .ok_or_else(|| HttpError::BadRequestLine {
            reason: "empty head".to_string(),
        })?;
    let mut parts = first.split(' ');
    let (method_token, target, version) =
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v), None) => (m, t, v),
            _ => {
                return Err(HttpError::BadRequestLine {
                    reason: format!("expected `METHOD target HTTP/x.y`, got {first:?}"),
                })
            }
        };
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(HttpError::BadVersion {
            version: version.to_string(),
        });
    }
    let method = match method_token {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other if !other.is_empty() && other.bytes().all(|b| b.is_ascii_uppercase()) => {
            return Err(HttpError::UnsupportedMethod {
                method: other.to_string(),
            })
        }
        other => {
            return Err(HttpError::BadRequestLine {
                reason: format!("malformed method token {other:?}"),
            })
        }
    };
    if target.len() > MAX_TARGET_BYTES {
        return Err(HttpError::TargetTooLong {
            limit: MAX_TARGET_BYTES,
        });
    }
    if !target.starts_with('/') || !target.bytes().all(|b| (0x21..=0x7e).contains(&b)) {
        return Err(HttpError::BadRequestLine {
            reason: format!("malformed target {target:?}"),
        });
    }
    let target = target.to_string();
    let headers = parse_headers(rest)?;
    complete(buf, head_end, headers, |headers, body| Request {
        method,
        target,
        headers,
        body,
    })
}

/// Parses a response from the front of `buf` (the client side of
/// [`parse_request`], same totality contract).
///
/// A response without `Content-Length` completes with an empty body at
/// the end of its head — callers streaming an unframed body (the
/// `/events` feed) read the remainder raw.
///
/// # Errors
///
/// Every [`HttpError`] variant, as described on the variant.
pub fn parse_response(buf: &[u8]) -> Result<Parsed<ClientResponse>, HttpError> {
    let Some(head_end) = bounded_head(buf)? else {
        return Ok(Parsed::Partial);
    };
    let lines = head_lines(buf.get(..head_end).unwrap_or_default())?;
    let (first, rest) = lines
        .split_first()
        .ok_or_else(|| HttpError::BadRequestLine {
            reason: "empty head".to_string(),
        })?;
    let mut parts = first.splitn(3, ' ');
    let (version, code) = match (parts.next(), parts.next()) {
        (Some(v), Some(c)) => (v, c),
        _ => {
            return Err(HttpError::BadRequestLine {
                reason: format!("expected `HTTP/x.y code reason`, got {first:?}"),
            })
        }
    };
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(HttpError::BadVersion {
            version: version.to_string(),
        });
    }
    let status: u16 = match code.parse() {
        Ok(c) if (100..=599).contains(&c) => c,
        _ => {
            return Err(HttpError::BadRequestLine {
                reason: format!("bad status code {code:?}"),
            })
        }
    };
    let headers = parse_headers(rest)?;
    complete(buf, head_end, headers, |headers, body| ClientResponse {
        status,
        headers,
        body,
    })
}

/// A response under construction (the server side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (beyond the always-present `Content-Type`,
    /// `Content-Length` and `Connection: close`).
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Body,
}

/// A response body: bytes rendered for this one answer, or bytes shared
/// with a cache (a done job's resident answers), which are copied only
/// when the response is rendered for the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Rendered for this answer.
    Owned(Vec<u8>),
    /// Shared with whoever keeps the bytes resident.
    Shared(Arc<[u8]>),
}

impl std::ops::Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Body::Owned(bytes) => bytes,
            Body::Shared(bytes) => bytes,
        }
    }
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &nomc_json::Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: Body::Owned(value.dump().into_bytes()),
        }
    }

    /// A JSON response from pre-rendered bytes (served byte-identically
    /// to what is on disk), owned or shared.
    pub fn raw_json(status: u16, body: Body) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    /// The error response a parse failure maps to.
    pub fn for_parse_error(e: &HttpError) -> Response {
        Response::json(
            e.status(),
            &nomc_json::Json::object([("error", nomc_json::Json::Str(e.to_string()))]),
        )
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }

    /// Renders the response bytes (always `Connection: close`: one
    /// exchange per connection keeps the server's resource lifecycle
    /// trivially bounded). Head and body go into one buffer, sized up
    /// front, so the body is copied once and the caller sends the
    /// whole answer with a single write.
    pub fn render(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = Vec::with_capacity(head.len() + self.body.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

/// Renders a client request (the `nomc submit` side).
pub fn render_request(method: Method, target: &str, body: &[u8]) -> Vec<u8> {
    let verb = match method {
        Method::Get => "GET",
        Method::Post => "POST",
    };
    let mut out = format!(
        "{verb} {target} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// The standard reason phrase for the statuses the server emits.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POST: &[u8] = b"POST /jobs HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 9\r\n\r\n{\"a\":1}\r\n";
    const GET: &[u8] = b"GET /healthz HTTP/1.1\r\n\r\n";

    fn parse_complete(buf: &[u8]) -> (Request, usize) {
        match parse_request(buf).expect("parses") {
            Parsed::Complete { value, consumed } => (value, consumed),
            Parsed::Partial => panic!("unexpectedly partial"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let (req, consumed) = parse_complete(POST);
        assert_eq!(consumed, POST.len());
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.target, "/jobs");
        assert_eq!(req.header("content-length"), Some("9"));
        assert_eq!(req.body, b"{\"a\":1}\r\n");
    }

    #[test]
    fn parses_get_without_body() {
        let (req, consumed) = parse_complete(GET);
        assert_eq!(consumed, GET.len());
        assert_eq!(req.method, Method::Get);
        assert!(req.body.is_empty());
    }

    #[test]
    fn every_truncation_is_partial_or_typed_never_panics() {
        // The totality sweep of the satellite task: every prefix of a
        // valid request parses to Partial (strictly — a prefix of a
        // valid message can always become one), except prefixes that
        // already contain the full head + body of a shorter valid parse.
        for cut in 0..POST.len() {
            let prefix = &POST[..cut];
            assert_eq!(
                parse_request(prefix),
                Ok(Parsed::Partial),
                "prefix of {cut} bytes"
            );
        }
        for cut in 0..GET.len() {
            assert_eq!(parse_request(&GET[..cut]), Ok(Parsed::Partial));
        }
    }

    #[test]
    fn every_single_byte_flip_is_total() {
        // Flip each head byte through a handful of hostile values; the
        // parser must return Complete, Partial, or a typed error —
        // never panic. (Body bytes are opaque, so flips there stay
        // Complete.)
        for pos in 0..POST.len() {
            for flip in [0u8, b' ', b'\r', b'\n', 0xff, b':', b'/'] {
                let mut bytes = POST.to_vec();
                bytes[pos] = flip;
                let _ = parse_request(&bytes);
            }
        }
    }

    #[test]
    fn oversized_content_length_is_rejected_from_the_header() {
        let req = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(
            parse_request(req.as_bytes()),
            Err(HttpError::BodyTooLarge {
                limit: MAX_BODY_BYTES,
                length: MAX_BODY_BYTES as u64 + 1,
            })
        );
        // Overflowing u64 entirely is a typed error too.
        let req = "POST /jobs HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
        assert!(matches!(
            parse_request(req.as_bytes()),
            Err(HttpError::BadContentLength { .. })
        ));
        // So is a duplicate.
        let req = "POST /jobs HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n";
        assert!(matches!(
            parse_request(req.as_bytes()),
            Err(HttpError::BadContentLength { .. })
        ));
    }

    #[test]
    fn slowloris_head_is_cut_off_at_the_limit() {
        // A head that never terminates must be rejected once it passes
        // the limit instead of buffering forever.
        let mut creep = b"GET / HTTP/1.1\r\n".to_vec();
        while creep.len() <= MAX_HEAD_BYTES {
            assert_eq!(parse_request(&creep), Ok(Parsed::Partial));
            creep.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        assert_eq!(
            parse_request(&creep),
            Err(HttpError::HeadTooLarge {
                limit: MAX_HEAD_BYTES
            })
        );
    }

    #[test]
    fn pipelined_second_message_and_garbage_are_separated() {
        // Two pipelined requests: the first parse consumes exactly the
        // first message; the rest parses independently.
        let mut bytes = GET.to_vec();
        bytes.extend_from_slice(POST);
        let (first, consumed) = parse_complete(&bytes);
        assert_eq!(first.target, "/healthz");
        let (second, rest) = parse_complete(&bytes[consumed..]);
        assert_eq!(second.target, "/jobs");
        assert_eq!(consumed + rest, bytes.len());

        // Garbage after a valid message fails only the *next* parse.
        let mut bytes = GET.to_vec();
        bytes.extend_from_slice(b"\x00\x01\x02 total garbage\r\n\r\n");
        let (_, consumed) = parse_complete(&bytes);
        assert!(parse_request(&bytes[consumed..]).is_err());
    }

    #[test]
    fn garbage_first_bytes_are_typed_errors() {
        for garbage in [
            &b"\x16\x03\x01\x02\x00\r\n\r\n"[..], // TLS ClientHello prefix
            b"DELETE /jobs HTTP/1.1\r\n\r\n",
            b"GET /jobs HTTP/2.0\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Header Line\r\n\r\n",
            b"GET / HTTP/1.1\r\n: novalue\r\n\r\n",
            b"lowercase / HTTP/1.1\r\n\r\n",
        ] {
            assert!(parse_request(garbage).is_err(), "{garbage:?}");
        }
        assert_eq!(
            parse_request(b"DELETE /jobs HTTP/1.1\r\n\r\n")
                .expect_err("unsupported")
                .status(),
            405
        );
    }

    #[test]
    fn target_length_limit() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_TARGET_BYTES));
        assert_eq!(
            parse_request(long.as_bytes()),
            Err(HttpError::TargetTooLong {
                limit: MAX_TARGET_BYTES
            })
        );
    }

    #[test]
    fn transfer_encoding_is_refused() {
        let req = b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert_eq!(
            parse_request(req),
            Err(HttpError::UnsupportedTransferEncoding)
        );
        assert_eq!(HttpError::UnsupportedTransferEncoding.status(), 501);
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::json(
            429,
            &nomc_json::Json::object([("error", nomc_json::Json::Str("queue full".into()))]),
        )
        .with_header("Retry-After", "2".to_string());
        let bytes = resp.render();
        let parsed = match parse_response(&bytes).expect("parses") {
            Parsed::Complete { value, .. } => value,
            Parsed::Partial => panic!("complete render must parse completely"),
        };
        assert_eq!(parsed.status, 429);
        assert_eq!(parsed.header("retry-after"), Some("2"));
        assert_eq!(parsed.header("connection"), Some("close"));
        assert_eq!(parsed.body[..], resp.body[..]);
        // Truncations of the response are Partial, same as requests.
        for cut in 0..bytes.len() {
            assert_eq!(parse_response(&bytes[..cut]), Ok(Parsed::Partial));
        }
    }

    #[test]
    fn request_render_parses_back() {
        let bytes = render_request(Method::Post, "/jobs", b"{}");
        let (req, consumed) = parse_complete(&bytes);
        assert_eq!(consumed, bytes.len());
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"{}");
    }
}
