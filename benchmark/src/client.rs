//! The benchmark's own HTTP client — the editor side of the socket.
//!
//! It behaves the way a careful client does, so that whatever stall is left
//! in a measurement belongs to the server: the whole request leaves in one
//! `write_all`, `TCP_NODELAY` is on, plain requests reuse their connection,
//! and streamed responses are read incrementally with every `data:` event
//! timestamped as its chunk completes (`wisdom_server::post_sse` buffers the
//! whole body, so it cannot time tokens).
//!
//! By default it also acknowledges every segment at once (`TCP_QUICKACK`,
//! re-armed after each read). The server writes a response in several
//! small pieces on a socket without `TCP_NODELAY`, so each later piece
//! waits for the client's acknowledgement of the one before; with the
//! kernel's delayed acknowledgements that wait is a 40 ms timer which fires
//! or not by a race, and end-to-end latency then swings by a quarter from
//! one run to the next. Acknowledging at once takes the race out of the
//! end-to-end metrics. The stall an ordinary client suffers is measured on
//! its own, by the traced pass, with [`AckMode::Delayed`].
//!
//! All clocks start when the last request byte has been written.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Socket timeout: a request slower than this counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a request produced no usable response.
#[derive(Debug)]
pub enum ClientError {
    /// Connect, read or write failed (timeouts included).
    Io(std::io::Error),
    /// The bytes that arrived were not the HTTP the server documents.
    Malformed(&'static str),
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Malformed(what) => write!(f, "malformed response: {what}"),
        }
    }
}

/// A content-length framed response.
#[derive(Debug)]
pub struct PlainResponse {
    pub status: u16,
    pub body: String,
    /// Request written → first response byte read.
    pub first_byte: Duration,
    /// Request written → last body byte read.
    pub total: Duration,
}

/// A streamed (SSE over chunked encoding) response.
#[derive(Debug)]
pub struct StreamResponse {
    pub status: u16,
    /// `data:` payloads in arrival order, each with the time since the
    /// request was written. The last two are the final JSON object and
    /// `[DONE]`; everything before is one token event each. For a non-200
    /// status this is empty and `error_body` holds the plain body.
    pub events: Vec<(Duration, String)>,
    pub error_body: String,
    /// Request written → end of the chunked body.
    pub total: Duration,
}

/// How the client's kernel acknowledges the server's segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// At once (`TCP_QUICKACK` kept armed): the steady mode every
    /// end-to-end metric is measured in.
    Quick,
    /// The kernel's default delayed acknowledgements: what an ordinary
    /// editor client gets.
    Delayed,
}

/// Arms `TCP_QUICKACK` on `stream`. The option is not sticky — the kernel
/// drops back to delayed acknowledgements on its own — so it is re-armed
/// after every read. A no-op where the option does not exist.
#[cfg(target_os = "linux")]
fn arm_quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            socket: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            length: u32,
        ) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: `setsockopt` reads `length` bytes from `value`; `value` points
    // at a live `i32` and `length` is its size. The descriptor is borrowed
    // from an open `TcpStream` for the duration of the call. A failure only
    // leaves acknowledgements delayed, so the result is ignored.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            std::ptr::from_ref(&on).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn arm_quick_ack(_stream: &TcpStream) {}

fn connect(addr: SocketAddr, ack: AckMode) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    if ack == AckMode::Quick {
        arm_quick_ack(&stream);
    }
    Ok(stream)
}

fn request_bytes(method: &str, path: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes()
}

/// Response head: status, `content-length`, whether the server will close.
struct Head {
    status: u16,
    content_length: Option<usize>,
    close: bool,
    chunked: bool,
}

fn parse_head(head: &str) -> Result<Head, ClientError> {
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or(ClientError::Malformed("status line"))?;
    let mut parsed = Head {
        status,
        content_length: None,
        close: false,
        chunked: false,
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                parsed.content_length = Some(
                    value
                        .parse()
                        .map_err(|_| ClientError::Malformed("content-length"))?,
                );
            }
            "connection" => parsed.close = value.eq_ignore_ascii_case("close"),
            "transfer-encoding" => parsed.chunked = value.eq_ignore_ascii_case("chunked"),
            _ => {}
        }
    }
    Ok(parsed)
}

/// Bytes read off one socket, with the position parsed so far.
struct Inbox {
    buf: Vec<u8>,
    at: usize,
    ack: AckMode,
}

impl Inbox {
    fn new(ack: AckMode) -> Inbox {
        Inbox {
            buf: Vec::with_capacity(4096),
            at: 0,
            ack,
        }
    }

    /// Reads more bytes; an orderly close before the response is complete
    /// is an error here.
    fn fill(&mut self, stream: &mut TcpStream) -> Result<(), ClientError> {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ClientError::Malformed("connection closed mid-response"));
        }
        if self.ack == AckMode::Quick {
            arm_quick_ack(stream);
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Consumes through the next `delimiter`, returning the bytes before it.
    fn take_until(
        &mut self,
        stream: &mut TcpStream,
        delimiter: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        loop {
            let pending = &self.buf[self.at..];
            if let Some(pos) = pending
                .windows(delimiter.len())
                .position(|w| w == delimiter)
            {
                let out = pending[..pos].to_vec();
                self.at += pos + delimiter.len();
                return Ok(out);
            }
            self.fill(stream)?;
        }
    }

    /// Consumes exactly `n` bytes.
    fn take(&mut self, stream: &mut TcpStream, n: usize) -> Result<Vec<u8>, ClientError> {
        while self.buf.len() - self.at < n {
            self.fill(stream)?;
        }
        let out = self.buf[self.at..self.at + n].to_vec();
        self.at += n;
        Ok(out)
    }
}

fn text(bytes: Vec<u8>) -> Result<String, ClientError> {
    String::from_utf8(bytes).map_err(|_| ClientError::Malformed("utf-8"))
}

/// A keep-alive connection for plain (non-streaming) requests. Reconnects
/// when the server announces `connection: close` (it does every
/// `keepalive_max_requests` requests).
pub struct KeepAlive {
    addr: SocketAddr,
    ack: AckMode,
    stream: Option<TcpStream>,
}

impl KeepAlive {
    pub fn new(addr: SocketAddr) -> KeepAlive {
        KeepAlive::with_acks(addr, AckMode::Quick)
    }

    pub fn with_acks(addr: SocketAddr, ack: AckMode) -> KeepAlive {
        KeepAlive {
            addr,
            ack,
            stream: None,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn ack(&self) -> AckMode {
        self.ack
    }

    /// Sends one request and reads its whole response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<PlainResponse, ClientError> {
        let mut stream = match self.stream.take() {
            Some(s) => s,
            None => connect(self.addr, self.ack)?,
        };
        stream.write_all(&request_bytes(method, path, body, true))?;
        let written = Instant::now();
        let mut inbox = Inbox::new(self.ack);
        inbox.fill(&mut stream)?;
        let first_byte = written.elapsed();
        let head = parse_head(&text(inbox.take_until(&mut stream, b"\r\n\r\n")?)?)?;
        let length = head
            .content_length
            .ok_or(ClientError::Malformed("missing content-length"))?;
        let body = text(inbox.take(&mut stream, length)?)?;
        let total = written.elapsed();
        if !head.close {
            self.stream = Some(stream);
        }
        Ok(PlainResponse {
            status: head.status,
            body,
            first_byte,
            total,
        })
    }

    pub fn post(&mut self, path: &str, body: &str) -> Result<PlainResponse, ClientError> {
        self.request("POST", path, body)
    }

    pub fn get(&mut self, path: &str) -> Result<PlainResponse, ClientError> {
        self.request("GET", path, "")
    }
}

/// Posts a `"stream": true` completion on a fresh connection (streamed
/// responses always close) and reads the SSE events as they arrive.
pub fn post_stream(
    addr: SocketAddr,
    path: &str,
    body: &str,
    ack: AckMode,
) -> Result<StreamResponse, ClientError> {
    let mut stream = connect(addr, ack)?;
    stream.write_all(&request_bytes("POST", path, body, false))?;
    let written = Instant::now();
    let mut inbox = Inbox::new(ack);
    let head = parse_head(&text(inbox.take_until(&mut stream, b"\r\n\r\n")?)?)?;
    if !head.chunked {
        // A rejection (400/503/…) is an ordinary content-length response.
        let length = head.content_length.unwrap_or(0);
        let error_body = text(inbox.take(&mut stream, length)?)?;
        return Ok(StreamResponse {
            status: head.status,
            events: Vec::new(),
            error_body,
            total: written.elapsed(),
        });
    }
    let mut events = Vec::new();
    loop {
        let size_line = text(inbox.take_until(&mut stream, b"\r\n")?)?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| ClientError::Malformed("chunk size"))?;
        if size == 0 {
            inbox.take_until(&mut stream, b"\r\n")?;
            break;
        }
        let chunk = text(inbox.take(&mut stream, size)?)?;
        let arrived = written.elapsed();
        inbox.take_until(&mut stream, b"\r\n")?;
        // The server writes exactly one `data: <payload>\n\n` per chunk.
        let payload = chunk
            .strip_prefix("data: ")
            .and_then(|rest| rest.strip_suffix("\n\n"))
            .ok_or(ClientError::Malformed("sse event framing"))?;
        events.push((arrived, payload.to_string()));
    }
    Ok(StreamResponse {
        status: head.status,
        events,
        error_body: String::new(),
        total: written.elapsed(),
    })
}
