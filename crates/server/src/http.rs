//! A minimal HTTP/1.1 server and request/response types over `std::net`,
//! sufficient for the completions REST API: persistent connections
//! (explicit `Connection: keep-alive`), chunked transfer encoding for the
//! SSE streaming path, no TLS.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method (`GET`, `POST`, …).
    pub method: String,
    /// Request path (`/v1/completions`).
    pub path: String,
    /// Lower-cased header map.
    pub headers: HashMap<String, String>,
    /// Request body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content type header value.
    pub content_type: String,
    /// Extra headers (name, value), written verbatim.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON 200 response.
    pub fn json(text: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "application/json".to_string(),
            headers: Vec::new(),
            body: text.into().into_bytes(),
        }
    }

    /// A plain-text response with a status code.
    pub fn text(status: u16, text: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain".to_string(),
            headers: Vec::new(),
            body: text.into().into_bytes(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Overrides the content type (e.g. the Prometheus exposition type on
    /// `GET /metrics`).
    #[must_use]
    pub fn with_content_type(mut self, content_type: impl Into<String>) -> Response {
        self.content_type = content_type.into();
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            411 => "Length Required",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    /// Writes the response to a stream, closing the connection afterwards.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        self.write_to_with(stream, false)
    }

    /// [`Self::write_to`] with an explicit connection disposition:
    /// `keep_alive` advertises `connection: keep-alive` so the client may
    /// send another request on the same socket (the body is always
    /// content-length framed, so the boundary is unambiguous either way).
    ///
    /// Head and body leave in one `write_all`: a response split over several
    /// small writes makes the kernel hold the tail back until the client
    /// acknowledges the head (Nagle against delayed ACK, ~40 ms per reply).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to_with(&self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut wire = Vec::with_capacity(160 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        )?;
        for (name, value) in &self.headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&self.body);
        stream.write_all(&wire)?;
        stream.flush()
    }
}

/// The head of a chunked `text/event-stream` response — the SSE streaming
/// path of `POST /v1/completions`. Events follow, one HTTP chunk each
/// ([`push_sse_event`]); the stream ends with [`CHUNKED_END`]. Streaming
/// responses always close the connection: their length is unknown up
/// front, and the chunked framing already marks the end of the body.
pub const SSE_HEAD: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\ncache-control: no-cache\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n";

/// The zero-length chunk that terminates a chunked response.
pub const CHUNKED_END: &[u8] = b"0\r\n\r\n";

/// Appends one SSE event (`data: <payload>\n\n`) to `wire` as one HTTP
/// chunk of its own. Several appended events leave in one write and still
/// reach the client one event per chunk.
pub fn push_sse_event(wire: &mut Vec<u8>, payload: &str) {
    // "data: " + payload + "\n\n" is the chunk body.
    write!(wire, "{:x}\r\ndata: {payload}\n\n\r\n", payload.len() + 8)
        .expect("writing to a Vec cannot fail");
}

/// The one-write-per-event writers the server used before it wrote in
/// bursts, framing and literals of their own: the reference the burst
/// writer's bytes are compared against.
#[cfg(test)]
pub(crate) fn write_sse_head(stream: &mut impl Write) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\ncache-control: no-cache\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
    )?;
    stream.flush()
}

#[cfg(test)]
pub(crate) fn write_sse_event(stream: &mut impl Write, payload: &str) -> std::io::Result<()> {
    // "data: " + payload + "\n\n", framed as one chunk in one write.
    let chunk = format!("{:x}\r\ndata: {payload}\n\n\r\n", payload.len() + 8);
    stream.write_all(chunk.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
pub(crate) fn finish_chunked(stream: &mut impl Write) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Default request-body cap for [`read_request`] (1 MiB).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Longest request line or header line accepted, terminator included
/// (over it: 431).
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Most header lines accepted per request (over it: 431).
pub const MAX_HEADERS: usize = 64;

/// HTTP parse failure, carrying the status code the server should answer
/// with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseHttpError {
    /// Status code to report (400, 408, 411, 413, 431).
    pub status: u16,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseHttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "http parse error: {}", self.message)
    }
}

impl Error for ParseHttpError {}

fn bad(message: &str) -> ParseHttpError {
    status_err(400, message)
}

fn status_err(status: u16, message: &str) -> ParseHttpError {
    ParseHttpError {
        status,
        message: message.to_string(),
    }
}

fn io_err(e: &std::io::Error) -> ParseHttpError {
    // A read/write timeout surfaces as WouldBlock (or TimedOut on some
    // platforms); report it as such instead of a generic parse failure.
    let timed_out = matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    );
    if timed_out {
        status_err(408, "timed out reading request")
    } else {
        bad(&format!("io: {e}"))
    }
}

/// Reads one line of the request head, terminator included, refusing one
/// longer than [`MAX_LINE_BYTES`] instead of buffering whatever a client
/// cares to send before its first line break.
fn read_head_line(reader: &mut impl BufRead) -> Result<String, ParseHttpError> {
    let mut line = String::new();
    reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_line(&mut line)
        .map_err(|e| io_err(&e))?;
    if line.len() > MAX_LINE_BYTES {
        return Err(status_err(
            431,
            &format!("request or header line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    Ok(line)
}

/// Reads one request from a stream, rejecting bodies over `max_body` bytes
/// with a 413-status error, and a request line or header line over
/// [`MAX_LINE_BYTES`] or more than [`MAX_HEADERS`] header lines with a
/// 431-status error. Callers should set socket read timeouts so a stalled
/// client cannot pin the handler (see `WisdomServer`).
///
/// # Errors
///
/// Returns [`ParseHttpError`] on malformed or oversized requests, missing
/// `Content-Length` on a request with a body, or I/O failure/timeouts.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, ParseHttpError> {
    match read_request_opt(stream, max_body)? {
        Some(request) => Ok(request),
        None => Err(bad("connection closed before a request")),
    }
}

/// [`read_request`] distinguishing a clean end of connection: returns
/// `Ok(None)` when the peer closed the socket before sending anything —
/// the normal way a keep-alive client finishes — instead of a parse error.
///
/// Requests must arrive one at a time (write, await the response, write the
/// next): each call builds a fresh buffered reader, so bytes of a pipelined
/// second request read ahead of the first would be lost. The server
/// advertises this by only honoring explicit `Connection: keep-alive`.
///
/// # Errors
///
/// Same as [`read_request`].
pub fn read_request_opt(
    stream: &mut TcpStream,
    max_body: usize,
) -> Result<Option<Request>, ParseHttpError> {
    let mut reader = BufReader::new(stream);
    let line = read_head_line(&mut reader)?;
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_string();
    let path = parts.next().ok_or_else(|| bad("missing path"))?.to_string();
    let mut headers = HashMap::new();
    let mut header_lines = 0usize;
    loop {
        let header = read_head_line(&mut reader)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        header_lines += 1;
        if header_lines > MAX_HEADERS {
            return Err(status_err(
                431,
                &format!("more than {MAX_HEADERS} header lines"),
            ));
        }
        if let Some((k, v)) = header.split_once(':') {
            headers.insert(k.trim().to_lowercase(), v.trim().to_string());
        }
    }
    let length: usize = match headers.get("content-length") {
        Some(v) => v
            .parse()
            .map_err(|_| status_err(411, "unparseable content-length"))?,
        // Without a length we would have to read until EOF/timeout, which a
        // slow client could drag out forever — require it on body-bearing
        // methods instead of blocking.
        None if matches!(method.as_str(), "POST" | "PUT" | "PATCH") => {
            return Err(status_err(411, "missing content-length"));
        }
        None => 0,
    };
    if length > max_body {
        return Err(status_err(
            413,
            &format!("body of {length} bytes exceeds the {max_body}-byte cap"),
        ));
    }
    let mut body = vec![0u8; length];
    if length > 0 {
        reader.read_exact(&mut body).map_err(|e| io_err(&e))?;
    }
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn request_round_trip_over_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_request(&mut conn, MAX_BODY_BYTES).unwrap();
            Response::json("{\"ok\":true}").write_to(&mut conn).unwrap();
            req
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let body = "{\"prompt\":\"x\"}";
        write!(
            client,
            "POST /v1/completions HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        client.flush().unwrap();
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.ends_with("{\"ok\":true}"));
        let req = handle.join().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/completions");
        assert_eq!(req.body_text(), body);
        assert_eq!(
            req.headers.get("content-type").map(String::as_str),
            Some("application/json")
        );
    }

    #[test]
    fn response_status_lines() {
        assert_eq!(Response::text(404, "x").reason(), "Not Found");
        assert_eq!(Response::text(413, "x").reason(), "Payload Too Large");
        assert_eq!(Response::text(503, "x").reason(), "Service Unavailable");
        assert_eq!(Response::json("{}").status, 200);
    }

    #[test]
    fn extra_headers_are_written() {
        let mut out = Vec::new();
        Response::text(503, "busy")
            .with_header("retry-after", "1")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable"));
        assert!(text.contains("\r\nretry-after: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nbusy"), "{text}");
    }

    fn parse_error_for(raw: &str, max_body: usize) -> ParseHttpError {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(raw.as_bytes()).unwrap();
            c.flush().unwrap();
            c
        });
        let (mut conn, _) = listener.accept().unwrap();
        let err = read_request(&mut conn, max_body).unwrap_err();
        drop(client.join().unwrap());
        err
    }

    #[test]
    fn keep_alive_disposition_is_explicit() {
        let mut out = Vec::new();
        Response::json("{}").write_to_with(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nconnection: keep-alive\r\n"), "{text}");
        let mut out = Vec::new();
        Response::json("{}").write_to_with(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nconnection: close\r\n"), "{text}");
    }

    #[test]
    fn sse_stream_is_well_formed_chunked() {
        let mut out = Vec::new();
        write_sse_head(&mut out).unwrap();
        write_sse_event(&mut out, "{\"token\":\"a\"}").unwrap();
        write_sse_event(&mut out, "[DONE]").unwrap();
        finish_chunked(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-type: text/event-stream\r\n"));
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        // Each event is one chunk: hex length, CRLF, `data: …\n\n`, CRLF.
        let event = "data: {\"token\":\"a\"}\n\n";
        assert!(
            text.contains(&format!("{:x}\r\n{event}\r\n", event.len())),
            "{text}"
        );
        assert!(text.ends_with("data: [DONE]\n\n\r\n0\r\n\r\n"), "{text}");
    }

    #[test]
    fn pushed_events_are_these_bytes() {
        let mut wire = SSE_HEAD.to_vec();
        push_sse_event(&mut wire, "{\"token\":\"a\"}");
        push_sse_event(&mut wire, "[DONE]");
        wire.extend_from_slice(CHUNKED_END);
        let head = "HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\ncache-control: no-cache\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n";
        let body = "15\r\ndata: {\"token\":\"a\"}\n\n\r\ne\r\ndata: [DONE]\n\n\r\n0\r\n\r\n";
        assert_eq!(String::from_utf8(wire).unwrap(), format!("{head}{body}"));
    }

    /// Counts `write` calls; accepts everything it is given.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_piece_is_a_single_write() {
        // One write per piece: several small ones would each wait out the
        // client's delayed ACK on a socket without TCP_NODELAY, and cost a
        // packet apiece on one with it.
        let writes = |send: &dyn Fn(&mut CountingWriter) -> std::io::Result<()>| {
            let mut out = CountingWriter::default();
            send(&mut out).unwrap();
            assert!(!out.bytes.is_empty());
            out.writes
        };
        let response = Response::text(503, "busy").with_header("retry-after", "1");
        assert_eq!(writes(&|out| response.write_to_with(out, true)), 1);
        assert_eq!(writes(&|out| write_sse_head(out)), 1);
        assert_eq!(writes(&|out| write_sse_event(out, "{\"token\":\"a\"}")), 1);
        assert_eq!(writes(&|out| finish_chunked(out)), 1);
    }

    #[test]
    fn clean_eof_reads_as_none() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let c = TcpStream::connect(addr).unwrap();
            drop(c);
        });
        let (mut conn, _) = listener.accept().unwrap();
        assert_eq!(read_request_opt(&mut conn, 1024).unwrap(), None);
        client.join().unwrap();
        // The strict variant reports the same condition as a 400.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || drop(TcpStream::connect(addr).unwrap()));
        let (mut conn, _) = listener.accept().unwrap();
        assert_eq!(read_request(&mut conn, 1024).unwrap_err().status, 400);
        client.join().unwrap();
    }

    #[test]
    fn oversized_body_is_rejected_with_413() {
        let err = parse_error_for(
            "POST /v1/completions HTTP/1.1\r\ncontent-length: 99999\r\n\r\n",
            1024,
        );
        assert_eq!(err.status, 413);
    }

    #[test]
    fn oversized_head_is_rejected_with_431() {
        // A request line that never ends, one overlong header, and too many
        // short ones: all refused after a bounded read.
        let endless = format!("GET /{}", "a".repeat(4 * MAX_LINE_BYTES));
        assert_eq!(parse_error_for(&endless, 1024).status, 431);
        let long_header = format!(
            "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "a".repeat(MAX_LINE_BYTES)
        );
        assert_eq!(parse_error_for(&long_header, 1024).status, 431);
        let many: String = (0..=MAX_HEADERS).map(|i| format!("x-{i}: 1\r\n")).collect();
        let flood = format!("GET /healthz HTTP/1.1\r\n{many}\r\n");
        assert_eq!(parse_error_for(&flood, 1024).status, 431);
        // At the limits a request still parses.
        let short: String = (1..MAX_HEADERS).map(|i| format!("x-{i}: 1\r\n")).collect();
        let long = format!("x-pad: {}\r\n", "a".repeat(MAX_LINE_BYTES - 9));
        assert_eq!(long.len(), MAX_LINE_BYTES);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = format!("GET /healthz HTTP/1.1\r\n{short}{long}\r\n");
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(raw.as_bytes()).unwrap();
            c
        });
        let (mut conn, _) = listener.accept().unwrap();
        let request = read_request(&mut conn, 1024).unwrap();
        drop(client.join().unwrap());
        assert_eq!(request.headers.len(), MAX_HEADERS);
    }

    #[test]
    fn post_without_length_is_rejected_with_411() {
        let err = parse_error_for("POST /v1/completions HTTP/1.1\r\n\r\n", 1024);
        assert_eq!(err.status, 411);
        let err = parse_error_for("POST /x HTTP/1.1\r\ncontent-length: soon\r\n\r\n", 1024);
        assert_eq!(err.status, 411);
    }

    #[test]
    fn get_without_length_still_parses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            c.flush().unwrap();
            c
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn, 1024).unwrap();
        drop(client.join().unwrap());
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn stalled_body_times_out_with_408() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            // Promise a body, never send it.
            c.write_all(b"POST /v1/completions HTTP/1.1\r\ncontent-length: 10\r\n\r\n")
                .unwrap();
            c.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(300));
            c
        });
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .unwrap();
        let err = read_request(&mut conn, 1024).unwrap_err();
        drop(client.join().unwrap());
        assert_eq!(err.status, 408);
    }
}
