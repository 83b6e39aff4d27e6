//! A minimal HTTP/1.1 layer over `std::net`.
//!
//! The workspace builds offline with zero external dependencies, so instead
//! of hyper this module hand-rolls the small slice of HTTP the service
//! needs: one request per connection (`Connection: close` semantics),
//! request-line + headers + `Content-Length` bodies on the way in, status +
//! headers + body on the way out, and a blocking client for `r2d2 submit`
//! and the integration tests. Requests beyond the size limits are rejected
//! rather than buffered, so a misbehaving client cannot balloon memory.
//!
//! [`Listener::serve`] is the server loop both tiers run.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Duration;

use crate::api::error_response;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body. JobSpec submissions are a few hundred
/// bytes; anything near this limit is garbage.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Connection threads one server runs at most. A `?wait=1` submission or a
/// progress stream holds one while its job runs; more connections wait.
pub const MAX_CONNECTION_THREADS: usize = 64;

/// Set by the SIGTERM/SIGINT handler.
static SIGNALED: AtomicBool = AtomicBool::new(false);

/// Sockets of running [`Listener::serve`] loops; `-1` marks a free slot.
#[cfg(unix)]
static LISTEN_FDS: [std::sync::atomic::AtomicI32; 16] =
    [const { std::sync::atomic::AtomicI32::new(-1) }; 16];

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    /// With `SHUT_RD` (0) on a listening socket, Linux ends the listen and
    /// fails a blocked or later `accept` at once.
    fn shutdown(fd: i32, how: i32) -> i32;
}

/// Install process-wide SIGTERM/SIGINT handlers that stop every
/// [`Listener::serve`] loop, through the libc `signal` symbol (no signal
/// crate). glibc's `signal` sets `SA_RESTART`, so instead of interrupting
/// `accept` the handler shuts the sockets down. No-op on non-unix targets.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            // Async-signal-safe: atomics and shutdown(2).
            SIGNALED.store(true, Ordering::SeqCst);
            for slot in &LISTEN_FDS {
                let fd = slot.load(Ordering::SeqCst);
                if fd >= 0 {
                    // SAFETY: no pointers; `serve` clears the slot before
                    // its socket can close.
                    unsafe { shutdown(fd, 0) };
                }
            }
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        for sig in [SIGINT, SIGTERM] {
            // SAFETY: `on_signal` is an `extern "C" fn(i32)` that performs
            // only async-signal-safe operations.
            unsafe { signal(sig, on_signal as *const () as usize) };
        }
    }
}

/// A listening socket that [`Listener::serve`] accepts on until
/// [`Listener::stop`] or SIGTERM/SIGINT.
#[derive(Debug)]
pub struct Listener {
    socket: TcpListener,
    stopped: Mutex<bool>,
    changed: Condvar,
}

impl Listener {
    /// Bind `addr` (`:0` picks a free port).
    pub fn bind(addr: &str) -> std::io::Result<Listener> {
        Ok(Listener {
            socket: TcpListener::bind(addr)?,
            stopped: Mutex::new(false),
            changed: Condvar::new(),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Fire the latch and wake the blocked `accept` (on Linux; elsewhere
    /// the loop stops at its next connection). Idempotent.
    pub fn stop(&self) {
        let mut stopped = self.stopped.lock().expect("stop latch poisoned");
        if !*stopped {
            *stopped = true;
            // SAFETY: no pointers; the socket is open while `self` lives.
            #[cfg(unix)]
            unsafe {
                shutdown(std::os::fd::AsRawFd::as_raw_fd(&self.socket), 0)
            };
            self.changed.notify_all();
        }
    }

    /// Whether the latch fired or a SIGTERM/SIGINT arrived.
    pub fn is_stopped(&self) -> bool {
        *self.stopped.lock().expect("stop latch poisoned") || SIGNALED.load(Ordering::SeqCst)
    }

    /// Block until the latch fires or `timeout` passes; returns whether it
    /// fired.
    pub fn wait(&self, timeout: Duration) -> bool {
        let stopped = self.stopped.lock().expect("stop latch poisoned");
        let waited = self.changed.wait_timeout_while(stopped, timeout, |s| !*s);
        *waited.expect("stop latch poisoned").0
    }

    /// Accept until stopped, handing each connection to one of at most
    /// [`MAX_CONNECTION_THREADS`] reused threads, which answer `413`/`400`
    /// to an oversized or unparseable request and pass any other to
    /// `handler`; it returns the response, or `None` once it wrote its own.
    /// Once stopped, `on_stop` runs and every accepted connection is
    /// answered before `serve` returns. `name` tags threads and log lines.
    pub fn serve<H>(
        &self,
        name: &str,
        verbose: bool,
        handler: H,
        on_stop: impl FnOnce(),
    ) -> std::io::Result<()>
    where
        H: Fn(&Request, &mut TcpStream) -> Option<Response> + Sync,
    {
        #[cfg(unix)]
        let slot = LISTEN_FDS.iter().find(|s| {
            let fd = std::os::fd::AsRawFd::as_raw_fd(&self.socket);
            s.compare_exchange(-1, fd, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        });
        let (conns, queue) = mpsc::channel::<(TcpStream, SocketAddr)>();
        let queue = Mutex::new(queue);
        // Threads waiting for a connection that no queued one has claimed.
        let idle = AtomicUsize::new(0);
        let result = std::thread::scope(|s| {
            let mut threads = 0;
            let result = loop {
                if self.is_stopped() {
                    break Ok(());
                }
                let conn = match self.socket.accept() {
                    Ok(conn) => conn,
                    Err(_) if self.is_stopped() => break Ok(()),
                    Err(e) => break Err(e),
                };
                conns.send(conn).expect("the receiver outlives the loop");
                let claimed =
                    idle.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
                if claimed.is_err() && threads < MAX_CONNECTION_THREADS {
                    threads += 1;
                    std::thread::Builder::new()
                        .name(format!("r2d2-{name}-conn"))
                        .spawn_scoped(s, || loop {
                            let next = queue.lock().expect("connection queue poisoned").recv();
                            let Ok((stream, peer)) = next else { break };
                            handle_connection(stream, peer, name, verbose, &handler);
                            idle.fetch_add(1, Ordering::SeqCst);
                        })
                        .expect("spawn connection thread");
                }
            };
            self.stop();
            on_stop();
            drop(conns);
            result
        });
        #[cfg(unix)]
        if let Some(slot) = slot {
            slot.store(-1, Ordering::SeqCst);
        }
        result
    }
}

fn handle_connection<H>(
    mut stream: TcpStream,
    peer: SocketAddr,
    name: &str,
    verbose: bool,
    handler: &H,
) where
    H: Fn(&Request, &mut TcpStream) -> Option<Response>,
{
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let resp = match read_request(&mut stream) {
        Ok(req) => {
            let resp = handler(&req, &mut stream);
            if verbose {
                let outcome = resp
                    .as_ref()
                    .map_or("stream".into(), |r| r.status.to_string());
                eprintln!("[{name}] {peer} {} {} -> {outcome}", req.method, req.path);
            }
            resp
        }
        Err(ParseError::ConnectionClosed | ParseError::Io(_)) => None,
        Err(ParseError::TooLarge) => Some(error_response(
            413,
            "payload-too-large",
            "request head or body exceeds the size limits",
        )),
        Err(ParseError::Malformed(e)) => Some(error_response(
            400,
            "malformed-request",
            &format!("malformed request: {e}"),
        )),
    };
    if let Some(resp) = resp {
        let _ = resp.write_to(&mut stream);
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string (`/jobs/abc`).
    pub path: String,
    /// Decoded `k=v` query parameters, in order.
    pub query: Vec<(String, String)>,
    /// `(lowercased-name, value)` headers, in order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if it is any.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why a request could not be parsed; maps to a 4xx response.
#[derive(Debug)]
pub enum ParseError {
    /// Peer closed before sending a full request — not an error, just done.
    ConnectionClosed,
    /// Malformed request line or headers.
    Malformed(String),
    /// Head or body exceeded the size limits (413).
    TooLarge,
    /// Socket-level failure.
    Io(std::io::Error),
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Read one request from the stream. Treats the connection as one-shot
/// (`Connection: close`): the caller answers and drops the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ParseError> {
    // Cap everything we are willing to buffer from one connection; a line
    // that never ends cannot balloon memory past the head limit.
    let limit = (MAX_HEAD_BYTES + MAX_BODY_BYTES) as u64;
    let mut reader = BufReader::new(Read::take(stream, limit));
    let mut head_bytes = 0usize;
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(ParseError::ConnectionClosed);
    }
    head_bytes += n;
    let request_line = line.trim_end().to_string();
    let mut headers = Vec::new();
    loop {
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge);
        }
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ParseError::Malformed("truncated headers".into()));
        }
        head_bytes += n;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header {trimmed:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(ParseError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    };
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| ParseError::Malformed("bad Content-Length".into()))?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        query,
        headers,
        body,
    })
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response carrying `body` verbatim.
    pub fn raw(status: u16, content_type: &'static str, body: Vec<u8>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type,
            body,
        }
    }

    /// A JSON response.
    pub fn json(status: u16, v: &r2d2_harness::json::Value) -> Response {
        Response::raw(status, "application/json", v.to_json().into_bytes())
    }

    /// A plain-text response (a trailing newline is appended if missing).
    pub fn text(status: u16, body: &str) -> Response {
        let mut body = body.to_string();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Response::raw(status, "text/plain; charset=utf-8", body.into_bytes())
    }

    /// Add a header.
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serialize and send over the stream.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let reason = reason_phrase(self.status);
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        );
        for (k, v) in &self.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// A streaming response body using `Transfer-Encoding: chunked`.
///
/// The progress endpoint sends an unbounded sequence of NDJSON snapshots
/// whose total length is unknown up front, so `Content-Length` framing is
/// impossible. [`ChunkedWriter::start`] writes the response head, each
/// [`ChunkedWriter::chunk`] frames one payload with the hex-size/CRLF
/// encoding, and [`ChunkedWriter::finish`] terminates the body with the
/// zero-length chunk.
#[derive(Debug)]
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Write the response head and return a writer for the body chunks.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> std::io::Result<ChunkedWriter<'a>> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\n\
             Connection: close\r\n\r\n",
            status,
            reason_phrase(status),
            content_type
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Send one chunk. Empty payloads are skipped — a zero-length chunk
    /// would terminate the body.
    pub fn chunk(&mut self, payload: &[u8]) -> std::io::Result<()> {
        if payload.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", payload.len())?;
        self.stream.write_all(payload)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminate the body with the final zero-length chunk.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// A client-side response: status code, headers, body.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// `(lowercased-name, value)` response headers.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl ClientResponse {
    /// First header named `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Blocking one-shot HTTP client: connect, send `method path`, read the full
/// response. `timeout` bounds connect and each read/write.
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    use std::net::ToSocketAddrs;
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let (status, headers) = read_client_head(&mut reader)?;
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        let mut buf = String::new();
        read_chunks(&mut reader, &mut |chunk| {
            buf.push_str(&String::from_utf8_lossy(chunk));
            Ok(())
        })?;
        buf
    } else {
        match content_length {
            Some(n) => {
                let mut buf = vec![0u8; n];
                reader.read_exact(&mut buf)?;
                String::from_utf8_lossy(&buf).into_owned()
            }
            None => {
                let mut buf = String::new();
                reader.read_to_string(&mut buf)?;
                buf
            }
        }
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// Parse the status line and headers of a client-side response.
fn read_client_head(
    reader: &mut BufReader<TcpStream>,
) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            break;
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok((status, headers))
}

/// Decode a chunked body, invoking `on_chunk` for every non-empty chunk
/// until the zero-length terminator. Public so the dispatch tier can relay
/// a backend's chunked stream chunk-for-chunk.
pub fn read_chunks(
    reader: &mut BufReader<TcpStream>,
    on_chunk: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    loop {
        let mut size_line = String::new();
        let n = reader.read_line(&mut size_line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "stream closed mid-chunk",
            ));
        }
        let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad chunk size {size_line:?}"),
            )
        })?;
        if size == 0 {
            // Consume the trailing CRLF after the terminator (ignore EOF —
            // the peer may just close).
            let mut trailer = String::new();
            let _ = reader.read_line(&mut trailer);
            return Ok(());
        }
        let mut buf = vec![0u8; size];
        reader.read_exact(&mut buf)?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        on_chunk(&buf)?;
    }
}

/// Blocking streaming client: like [`client_request`] but the response body
/// must be chunked, and `on_chunk` is invoked with each chunk's bytes as it
/// arrives. Returns the status and headers once the stream terminates.
///
/// If the response is *not* chunked (an error answer, say), the whole body
/// is delivered as one chunk so callers still see the payload.
pub fn client_stream(
    addr: &str,
    method: &str,
    path: &str,
    timeout: Duration,
    on_chunk: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let open = client_stream_start(addr, method, path, timeout)?;
    let (status, headers) = (open.status, open.headers.clone());
    open.drain(on_chunk)?;
    Ok((status, headers))
}

/// A streaming request whose head has been read but whose body has not: the
/// status and headers are available before a single body byte is consumed.
/// The dispatch tier uses this to pick its own response head (and a
/// fallback backend on 404) *before* relaying the body downstream —
/// [`client_stream`] only surfaces the status after the stream ends.
#[derive(Debug)]
pub struct StreamStart {
    /// Status code from the backend's status line.
    pub status: u16,
    /// `(lowercased-name, value)` response headers.
    pub headers: Vec<(String, String)>,
    reader: BufReader<TcpStream>,
}

impl StreamStart {
    /// Whether the body is `Transfer-Encoding: chunked`.
    pub fn is_chunked(&self) -> bool {
        self.headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"))
    }

    /// Consume the body, invoking `on_chunk` per chunk (chunked bodies) or
    /// once with the whole payload (`Content-Length`/EOF-delimited bodies).
    pub fn drain(
        mut self,
        on_chunk: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        if self.is_chunked() {
            return read_chunks(&mut self.reader, on_chunk);
        }
        let content_length = self
            .headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok());
        let body = match content_length {
            Some(n) => {
                let mut buf = vec![0u8; n];
                self.reader.read_exact(&mut buf)?;
                buf
            }
            None => {
                let mut buf = Vec::new();
                self.reader.read_to_end(&mut buf)?;
                buf
            }
        };
        if !body.is_empty() {
            on_chunk(&body)?;
        }
        Ok(())
    }
}

/// Open a streaming request and read the response head only. See
/// [`StreamStart`] for why the head/body split exists.
pub fn client_stream_start(
    addr: &str,
    method: &str,
    path: &str,
    timeout: Duration,
) -> std::io::Result<StreamStart> {
    use std::net::ToSocketAddrs;
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let (status, headers) = read_client_head(&mut reader)?;
    Ok(StreamStart {
        status,
        headers,
        reader,
    })
}
