//! A minimal HTTP/1.1 codec for the event-loop frontend: an incremental
//! zero-copy request parser ([`parse_available`]) and a response writer.
//!
//! The workspace is offline (no tokio/hyper), so the server hand-rolls the
//! protocol the same way `photonn-fft` hand-rolls its worker pool: just
//! enough HTTP/1.1 for JSON inference traffic — request-line + headers +
//! `Content-Length` bodies, keep-alive by default, explicit size limits on
//! every input so a hostile peer cannot balloon memory.
//!
//! The parser works over whatever bytes a non-blocking read has
//! accumulated so far: it either yields a [`RequestRef`] **borrowing** the
//! connection buffer (method, path, headers, and body are slices — no
//! copies before the JSON decode that feeds the planar batch stack),
//! reports [`ParseOutcome::Partial`] to wait for more bytes, or fails with
//! a [`ProtocolError`] that carries the request path when known, so the
//! server can answer in the right API dialect before closing.

use std::io::{self, Write};

/// Upper bound on the request line and on any single header line.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 64;
/// Upper bound on a request body (a 200×200 float image is ~1 MB of JSON).
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Writes a complete response with a string body.
///
/// # Errors
///
/// Returns any transport error.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
) -> io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    // One buffer, one write: a headers-then-body write pair would let
    // Nagle hold the body back until the headers are ACKed (~40 ms per
    // exchange on loopback keep-alive traffic).
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    )
    .into_bytes();
    response.extend_from_slice(body.as_bytes());
    writer.write_all(&response)?;
    writer.flush()
}

/// Canonical reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

// ------------------------------------------------ incremental parsing

/// A request parsed in place: every field borrows the connection buffer.
#[derive(Debug)]
pub struct RequestRef<'a> {
    /// Method verb, uppercase as sent.
    pub method: &'a str,
    /// Request target path (query string included, if any).
    pub path: &'a str,
    /// Header name/value pairs in arrival order, trimmed but otherwise
    /// as sent; use [`RequestRef::header`] for case-insensitive lookup.
    pub headers: Vec<(&'a str, &'a str)>,
    /// Raw request body (empty when no `Content-Length` was sent).
    pub body: &'a [u8],
}

impl RequestRef<'_> {
    /// First header value for a (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| *v)
    }

    /// `true` when the peer asked to close the connection after this
    /// exchange (`Connection: close`); HTTP/1.1 defaults to keep-alive.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Result of feeding accumulated bytes to [`parse_available`].
#[derive(Debug)]
pub enum ParseOutcome<'a> {
    /// The buffer does not yet hold a complete request; read more bytes
    /// and call again with the grown buffer.
    Partial,
    /// One complete request. The caller must drain exactly `consumed`
    /// bytes from the front of the buffer afterwards; pipelined followers
    /// may already sit behind them.
    Ready {
        /// The parsed request, borrowing the buffer.
        request: RequestRef<'a>,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
}

/// A protocol violation found while parsing. The connection is beyond
/// recovery (retrying would parse from mid-stream); the server answers
/// once and closes.
#[derive(Debug)]
pub struct ProtocolError {
    /// Suggested status: `400`, or `413` for an oversized body.
    pub status: u16,
    /// What went wrong; the server echoes it verbatim in the error body.
    pub message: &'static str,
    /// The request path, when the request line had already parsed —
    /// lets the server pick the v1 or v2 error dialect.
    pub path: Option<String>,
}

fn perr(status: u16, message: &'static str) -> ProtocolError {
    ProtocolError {
        status,
        message,
        path: None,
    }
}

/// Takes the next complete line out of `buf` starting at `*at`, advancing
/// `*at` past its terminator. `None` when the line is still incomplete.
fn take_line<'a>(buf: &'a [u8], at: &mut usize) -> Result<Option<&'a str>, ProtocolError> {
    let rest = &buf[*at..];
    match rest.iter().position(|&b| b == b'\n') {
        None => {
            if rest.len() > MAX_LINE_BYTES {
                Err(perr(400, "line too long"))
            } else {
                Ok(None)
            }
        }
        Some(nl) => {
            if nl > MAX_LINE_BYTES {
                return Err(perr(400, "line too long"));
            }
            let mut line = &rest[..nl];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            let text = std::str::from_utf8(line).map_err(|_| perr(400, "non-UTF-8 header data"))?;
            *at += nl + 1;
            Ok(Some(text))
        }
    }
}

/// Incrementally parses one request from the bytes accumulated so far.
///
/// Pure over the input slice: a `Partial` outcome leaves no state behind,
/// so the event loop simply re-parses once more bytes land (header blocks
/// are ≤ 8 KB + 64 lines, re-scanning is noise next to a forward pass).
/// Lines are capped at `MAX_LINE_BYTES` and headers at `MAX_HEADERS`; the
/// body cap is a parameter because the server makes it configurable per
/// deployment.
///
/// # Errors
///
/// [`ProtocolError`] on any protocol violation — malformed request line,
/// bad version, oversized lines/headers/body, bad `Content-Length`.
pub fn parse_available(buf: &[u8], max_body: usize) -> Result<ParseOutcome<'_>, ProtocolError> {
    let mut at = 0usize;
    let line = match take_line(buf, &mut at)? {
        None => return Ok(ParseOutcome::Partial),
        Some(line) => line,
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(perr(400, "malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(perr(400, "unsupported HTTP version"));
    }
    let with_path = |mut e: ProtocolError| {
        e.path = Some(path.to_string());
        e
    };

    let mut headers = Vec::new();
    loop {
        let line = match take_line(buf, &mut at).map_err(with_path)? {
            None => return Ok(ParseOutcome::Partial),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(with_path(perr(400, "too many headers")));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| with_path(perr(400, "malformed header")))?;
        headers.push((name.trim(), value.trim()));
    }

    let request = RequestRef {
        method,
        path,
        headers,
        body: &[],
    };
    let length = match request.header("content-length") {
        None => 0,
        Some(text) => text
            .parse::<usize>()
            .map_err(|_| with_path(perr(400, "bad content-length")))?,
    };
    if length > max_body {
        return Err(with_path(perr(413, "body too large")));
    }
    if buf.len() - at < length {
        return Ok(ParseOutcome::Partial);
    }
    Ok(ParseOutcome::Ready {
        request: RequestRef {
            body: &buf[at..at + length],
            ..request
        },
        consumed: at + length,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", "{\"a\":1}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));

        let mut out = Vec::new();
        write_response(&mut out, 429, "application/json", "{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn incremental_parse_is_partial_at_every_prefix_then_ready() {
        // (raw, method, path, body, wants_close); the second request has
        // LF-only line endings and no Content-Length.
        for (raw, method, path, body, close) in [
            (
                &b"POST /v2/logits HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcdLEFTOVER"[..],
                "POST",
                "/v2/logits",
                &b"abcd"[..],
                false,
            ),
            (
                &b"GET /healthz HTTP/1.1\nHost: x\nConnection: close\n\nLEFTOVER"[..],
                "GET",
                "/healthz",
                &b""[..],
                true,
            ),
        ] {
            let full = raw.len() - b"LEFTOVER".len();
            for cut in 0..full {
                match parse_available(&raw[..cut], MAX_BODY_BYTES).unwrap() {
                    ParseOutcome::Partial => {}
                    ParseOutcome::Ready { .. } => panic!("{path}: ready at {cut} of {full} bytes"),
                }
            }
            match parse_available(raw, MAX_BODY_BYTES).unwrap() {
                ParseOutcome::Ready { request, consumed } => {
                    assert_eq!(consumed, full, "must not consume pipelined follower bytes");
                    assert_eq!(request.method, method);
                    assert_eq!(request.path, path);
                    assert_eq!(request.header("HOST"), Some("x"));
                    assert_eq!(request.body, body);
                    assert_eq!(request.wants_close(), close, "{path}");
                }
                other => panic!("expected ready: {other:?}"),
            }
        }
    }
    #[test]
    fn incremental_parse_pipelined_requests_consume_exactly() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let first = match parse_available(raw, MAX_BODY_BYTES).unwrap() {
            ParseOutcome::Ready { request, consumed } => {
                assert_eq!(request.path, "/a");
                consumed
            }
            other => panic!("expected ready: {other:?}"),
        };
        match parse_available(&raw[first..], MAX_BODY_BYTES).unwrap() {
            ParseOutcome::Ready { request, consumed } => {
                assert_eq!(request.path, "/b");
                assert_eq!(request.body, b"hi");
                assert_eq!(first + consumed, raw.len());
            }
            other => panic!("expected ready: {other:?}"),
        }
    }

    #[test]
    fn incremental_parse_rejects_protocol_violations() {
        let mut too_many_headers = b"GET /v1/many HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            too_many_headers.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        too_many_headers.extend_from_slice(b"\r\n");
        for (raw, message) in [
            (&b"GARBAGE\r\n\r\n"[..], "malformed request line"),
            (&b"GET /x HTTP/2\r\n\r\n"[..], "unsupported HTTP version"),
            (
                &b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n"[..],
                "malformed header",
            ),
            (
                &b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
                "bad content-length",
            ),
            (&too_many_headers[..], "too many headers"),
        ] {
            let err = parse_available(raw, MAX_BODY_BYTES).unwrap_err();
            assert_eq!(err.message, message);
            assert_eq!(err.status, 400);
        }
        // Once the request line parsed, errors carry the path.
        let err =
            parse_available(b"GET /v2/x HTTP/1.1\r\nbad\r\n\r\n", MAX_BODY_BYTES).unwrap_err();
        assert_eq!(err.path.as_deref(), Some("/v2/x"));
        let err = parse_available(&too_many_headers, MAX_BODY_BYTES).unwrap_err();
        assert_eq!(err.path.as_deref(), Some("/v1/many"));
    }

    #[test]
    fn incremental_parse_oversized_body_is_413_with_path() {
        let raw = b"POST /v2/logits HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
        let err = parse_available(raw, 64).unwrap_err();
        assert_eq!(err.status, 413);
        assert_eq!(err.message, "body too large");
        assert_eq!(err.path.as_deref(), Some("/v2/logits"));
        // Under the cap the same request is simply partial.
        assert!(matches!(
            parse_available(raw, 128).unwrap(),
            ParseOutcome::Partial
        ));
    }

    #[test]
    fn incremental_parse_bounds_runaway_lines() {
        // An attacker streaming an endless request line is cut off as soon
        // as the accumulated (incomplete) line passes the cap.
        let raw = vec![b'A'; MAX_LINE_BYTES + 2];
        let err = parse_available(&raw, MAX_BODY_BYTES).unwrap_err();
        assert_eq!(err.message, "line too long");
    }
}
