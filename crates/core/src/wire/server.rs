//! The wire servers: v1 HTTP (bounded thread pool) and v2 framed
//! (nonblocking sharded event loop).
//!
//! [`WireServer`] is the original HTTP/1.1 muscle: one acceptor thread
//! feeds accepted connections into a bounded channel drained by a fixed
//! pool of handler threads — one request per connection, enough
//! concurrency for a crowd of contributors without unbounded thread
//! growth.
//!
//! [`V2Server`] serves the framed binary protocol. Connections are
//! persistent and cheap: the acceptor deals them round-robin to a small
//! set of shard threads, and each shard multiplexes *all* its
//! connections with nonblocking I/O — ten thousand mostly-idle
//! contributors cost buffers, not threads. A shard sweeps its
//! connections (flush pending writes, read available bytes, dispatch
//! every complete frame); when a sweep does no work it yields, then
//! sleeps briefly, so an idle server burns no CPU to speak of. A partial
//! frame left at disconnect is discarded **without dispatching** — the
//! drop-injection suite depends on that.
//!
//! Both servers execute ops through the one shared
//! [`dispatch`](crate::wire::dispatch::dispatch), optionally with an
//! attached [`ExecBackend`] for `Execute`. Shutdown is graceful and
//! deterministic for both; dropping a server shuts it down.

use crate::driver::RunOutcome;
use crate::queue::TaskId;
use crate::server::SqalpelServer;
use crate::wire::dispatch::ExecBackend;
use crate::wire::proto::v1;
use crate::wire::proto::v2::{self, DecodedRequest};
use crate::wire::proto::{status_counter, ErrorCode, Reply, Request};
use crate::wire::transport::http::{read_request, write_response, Response};
use crate::PlatformError;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables of a [`WireServer`].
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Handler threads (concurrent in-flight requests).
    pub workers: usize,
    /// Per-request body cap in bytes.
    pub max_body: usize,
    /// Socket read/write timeout — a stalled peer cannot pin a handler.
    pub io_timeout: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            workers: 4,
            max_body: 1 << 20,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// A running v1 HTTP server. Bind with [`WireServer::start`], read the
/// actual address with [`WireServer::local_addr`] (use port 0 to let the
/// OS pick), stop with [`WireServer::shutdown`] or by dropping.
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

impl WireServer {
    /// Bind `addr` and start serving `server` in background threads.
    pub fn start(
        server: Arc<SqalpelServer>,
        addr: impl ToSocketAddrs,
        config: WireConfig,
    ) -> io::Result<WireServer> {
        WireServer::start_with_backend(server, None, addr, config)
    }

    /// Like [`WireServer::start`], with a SQL execution backend attached
    /// so `POST /v1/execute` works.
    pub fn start_with_backend(
        server: Arc<SqalpelServer>,
        backend: Option<ExecBackend>,
        addr: impl ToSocketAddrs,
        config: WireConfig,
    ) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // Bounded: if every handler is busy and the backlog fills, the
        // acceptor blocks and the kernel queue applies backpressure.
        let (tx, rx) = sync_channel::<TcpStream>(config.workers * 2);
        let rx = Arc::new(Mutex::new(rx));

        let handlers = (0..config.workers.max(1))
            .map(|_| {
                let server = Arc::clone(&server);
                let backend = backend.clone();
                let rx = Arc::clone(&rx);
                let config = config.clone();
                std::thread::spawn(move || handler_loop(&server, backend.as_ref(), &rx, &config))
            })
            .collect();

        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || acceptor_loop(&listener, &tx, &stop))
        };

        Ok(WireServer {
            addr: local,
            stop,
            acceptor: Some(acceptor),
            handlers,
        })
    }

    /// The bound address (the OS-picked port when started with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight requests, join every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept() with a throwaway
        // connection to ourselves; it sees the flag and exits, dropping
        // the channel sender, which in turn stops the handlers.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn acceptor_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, stop: &AtomicBool) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            // The wake-up connection (or whatever arrived with it) is
            // dropped unanswered; clients treat that as a transport error.
            return;
        }
        match conn {
            Ok((stream, _)) => {
                if tx.send(stream).is_err() {
                    return;
                }
            }
            // Transient accept failures (EMFILE, aborted handshake): keep
            // serving.
            Err(_) => continue,
        }
    }
}

fn handler_loop(
    server: &SqalpelServer,
    backend: Option<&ExecBackend>,
    rx: &Mutex<Receiver<TcpStream>>,
    config: &WireConfig,
) {
    loop {
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let mut stream = match stream {
            Ok(s) => s,
            // Channel closed: the acceptor exited, shutdown is underway.
            Err(_) => return,
        };
        let _ = stream.set_read_timeout(Some(config.io_timeout));
        let _ = stream.set_write_timeout(Some(config.io_timeout));
        let response = match read_request(&mut stream, config.max_body) {
            Ok(req) => v1::handle(server, backend, &req),
            // Unparseable request: answer 400 if the socket still works.
            Err(e) => Response::text(400, format!("bad request: {e}")),
        };
        // The peer may have vanished (drop-injection clients do this on
        // purpose); a failed write only affects this connection.
        let _ = write_response(&mut stream, &response);
    }
}

// ================================================================== v2

/// Tunables of a [`V2Server`].
#[derive(Debug, Clone)]
pub struct V2Config {
    /// Shard threads; each multiplexes its share of all connections.
    pub shards: usize,
    /// Per-frame body cap in bytes.
    pub max_frame: usize,
}

impl Default for V2Config {
    fn default() -> Self {
        V2Config {
            shards: 2,
            max_frame: v2::DEFAULT_MAX_FRAME,
        }
    }
}

/// A running v2 framed server (see the module docs for the I/O model).
pub struct V2Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

impl V2Server {
    /// Bind `addr` and start serving the framed protocol.
    pub fn start(
        server: Arc<SqalpelServer>,
        backend: Option<ExecBackend>,
        addr: impl ToSocketAddrs,
        config: V2Config,
    ) -> io::Result<V2Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let mut senders = Vec::new();
        let shards = (0..config.shards.max(1))
            .map(|_| {
                let (tx, rx) = sync_channel::<TcpStream>(64);
                senders.push(tx);
                let server = Arc::clone(&server);
                let backend = backend.clone();
                let stop = Arc::clone(&stop);
                let max_frame = config.max_frame;
                std::thread::spawn(move || {
                    shard_loop(&server, backend.as_ref(), &rx, &stop, max_frame)
                })
            })
            .collect();

        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || v2_acceptor_loop(&listener, &senders, &stop))
        };

        Ok(V2Server {
            addr: local,
            stop,
            acceptor: Some(acceptor),
            shards,
        })
    }

    /// The bound address (the OS-picked port when started with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every connection, join every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
    }
}

impl Drop for V2Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn v2_acceptor_loop(listener: &TcpListener, shards: &[SyncSender<TcpStream>], stop: &AtomicBool) {
    let mut next = 0usize;
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok((stream, _)) => {
                // Round-robin; a closed shard channel means shutdown.
                if shards[next % shards.len()].send(stream).is_err() {
                    return;
                }
                next = next.wrapping_add(1);
            }
            Err(_) => continue,
        }
    }
}

/// Per-connection state inside a shard: the stream (nonblocking) plus
/// an input buffer of not-yet-complete frames and an output buffer of
/// not-yet-flushed response bytes.
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Closed (or poisoned) — remove after the output buffer drains.
    dead: bool,
    /// Push-hub subscription id, once the connection subscribed.
    sub: Option<u64>,
    /// Bulk continuation frames buffered per tag, awaiting the summary
    /// frame. Dropped wholesale — undispatched — if the connection dies
    /// mid-sequence.
    parts: HashMap<u32, Vec<(TaskId, RunOutcome)>>,
}

/// Most reports one connection may buffer across an in-flight bulk
/// sequence before the server refuses and hangs up.
const MAX_BATCH_PAIRS: usize = 1 << 22;

/// How many consecutive empty sweeps a shard spins (yielding) before it
/// starts sleeping between sweeps.
const SPIN_SWEEPS: u32 = 50;
/// The sleep once spinning gives up — short enough that a lone serial
/// caller still sees sub-millisecond latency.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

fn shard_loop(
    server: &SqalpelServer,
    backend: Option<&ExecBackend>,
    rx: &Receiver<TcpStream>,
    stop: &AtomicBool,
    max_frame: usize,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle_sweeps = 0u32;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Intake. With no connections at all, block on the channel (a
        // timeout keeps the stop flag observed); otherwise just drain
        // whatever has arrived and get back to sweeping.
        if conns.is_empty() {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(stream) => {
                    if let Some(conn) = Conn::adopt(stream) {
                        conns.push(conn);
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(stream) => {
                    if let Some(conn) = Conn::adopt(stream) {
                        conns.push(conn);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }

        let mut progressed = false;
        for conn in &mut conns {
            // Deliver pending push frames first, so the sweep's flush
            // carries them out with whatever else is queued.
            if let Some(sub) = conn.sub {
                for n in server.push_hub().drain(sub) {
                    conn.outbuf
                        .extend_from_slice(&v2::encode_notification_frame(&n));
                    server.metrics().incr("wire.push_frames");
                    progressed = true;
                }
            }
            progressed |= conn.sweep(server, backend, max_frame);
        }
        for conn in &conns {
            if conn.dead && conn.outbuf.is_empty() {
                if let Some(sub) = conn.sub {
                    server.push_hub().unsubscribe(sub);
                }
            }
        }
        conns.retain(|c| !(c.dead && c.outbuf.is_empty()));

        if progressed {
            idle_sweeps = 0;
        } else {
            idle_sweeps = idle_sweeps.saturating_add(1);
            if idle_sweeps < SPIN_SWEEPS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }
}

impl Conn {
    fn adopt(stream: TcpStream) -> Option<Conn> {
        stream.set_nonblocking(true).ok()?;
        stream.set_nodelay(true).ok()?;
        Some(Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            dead: false,
            sub: None,
            parts: HashMap::new(),
        })
    }

    /// One multiplexing pass: flush what we can, read what's there,
    /// dispatch every complete frame. Returns whether any work happened.
    fn sweep(
        &mut self,
        server: &SqalpelServer,
        backend: Option<&ExecBackend>,
        max_frame: usize,
    ) -> bool {
        let mut progressed = self.flush();
        if self.dead {
            return progressed;
        }
        progressed |= self.fill();
        // Dispatch complete frames even when the read marked the conn
        // dead: everything fully framed before EOF still counts. A
        // *partial* frame left in the buffer is dropped undispatched.
        loop {
            match v2::take_frame(&mut self.inbuf, max_frame) {
                Ok(Some((tag, body))) => {
                    progressed = true;
                    self.respond(server, backend, tag, &body);
                }
                Ok(None) => break,
                Err(_) => {
                    // Malformed header: framing is lost, close.
                    self.dead = true;
                    break;
                }
            }
        }
        progressed |= self.flush();
        progressed
    }

    fn respond(
        &mut self,
        server: &SqalpelServer,
        backend: Option<&ExecBackend>,
        tag: u32,
        body: &[u8],
    ) {
        let frame = match v2::decode_request(body) {
            Ok(DecodedRequest::Hello { version }) if version == v2::PROTO_VERSION => {
                v2::encode_hello_ok_frame(tag)
            }
            Ok(DecodedRequest::Hello { version }) => {
                // Version mismatch: answer typed, then hang up.
                self.dead = true;
                v2::encode_reply_frame(
                    tag,
                    &Err(PlatformError::Invalid(format!(
                        "unsupported protocol version {version}, server speaks {}",
                        v2::PROTO_VERSION
                    ))),
                )
            }
            Ok(DecodedRequest::Op(op)) => v2::encode_reply_frame(tag, &handle_v2(server, backend, &op)),
            Ok(DecodedRequest::BatchPart(pairs)) => {
                let buffered = self.parts.entry(tag).or_default();
                if buffered.len() + pairs.len() > MAX_BATCH_PAIRS {
                    // Sequence state is lost; answer typed and hang up.
                    self.parts.remove(&tag);
                    self.dead = true;
                    v2::encode_reply_frame(
                        tag,
                        &Err(PlatformError::Invalid(format!(
                            "bulk sequence exceeds {MAX_BATCH_PAIRS} buffered reports"
                        ))),
                    )
                } else {
                    buffered.extend(pairs);
                    // Continuation frames are never acked individually;
                    // the summary frame answers for the whole sequence.
                    return;
                }
            }
            Ok(DecodedRequest::BatchEnd { key, total, inline }) => {
                let mut reports = self.parts.remove(&tag).unwrap_or_default();
                reports.extend(inline);
                if reports.len() != total as usize {
                    v2::encode_reply_frame(
                        tag,
                        &Err(PlatformError::Invalid(format!(
                            "bulk summary declared {total} reports, sequence carried {}",
                            reports.len()
                        ))),
                    )
                } else {
                    let op = Request::ReportBatch { key, reports };
                    v2::encode_reply_frame(tag, &handle_v2(server, backend, &op))
                }
            }
            Ok(DecodedRequest::Subscribe { key }) => {
                // Re-subscribing replaces the previous registration.
                if let Some(old) = self.sub.take() {
                    server.push_hub().unsubscribe(old);
                }
                self.sub = Some(server.push_hub().subscribe(&key.0));
                v2::encode_reply_frame(tag, &Ok(Reply::Unit))
            }
            // A complete frame whose payload doesn't decode: the framing
            // is intact, so answer typed and keep the connection.
            Err(e) => v2::encode_reply_frame(
                tag,
                &Err(PlatformError::Invalid(format!("undecodable request: {e}"))),
            ),
        };
        self.outbuf.extend_from_slice(&frame);
    }

    /// Nonblocking read of whatever is available. Returns whether bytes
    /// arrived; EOF or a hard error marks the connection dead.
    fn fill(&mut self) -> bool {
        let mut progressed = false;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progressed
    }

    /// Nonblocking flush of pending response bytes.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.outbuf.drain(..n);
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progressed
    }
}

/// Dispatch one v2 op with the same metrics instrumentation the v1
/// handler applies, under protocol-qualified labels.
fn handle_v2(
    server: &SqalpelServer,
    backend: Option<&ExecBackend>,
    op: &Request,
) -> crate::error::PlatformResult<crate::wire::proto::Reply> {
    let start = std::time::Instant::now();
    let outcome = crate::wire::dispatch::dispatch(server, backend, op);
    let metrics = server.metrics();
    let (route, latency) = op.v2_metric_names();
    metrics.incr("wire.requests");
    metrics.incr(route);
    metrics.incr(status_counter(match &outcome {
        Ok(_) => 200,
        Err(e) => ErrorCode::of(e).http_status(),
    }));
    metrics.observe_nanos(latency, start.elapsed().as_nanos() as u64);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::transport::framed::FramedConn;
    use crate::wire::transport::http::{read_response, write_request};
    use crate::wire::proto::Reply;

    #[test]
    fn serves_requests_and_shuts_down_cleanly() {
        let server = Arc::new(SqalpelServer::new());
        let mut wire =
            WireServer::start(Arc::clone(&server), "127.0.0.1:0", WireConfig::default()).unwrap();
        let addr = wire.local_addr();

        // A plain socket-level round trip against the queue endpoint.
        let mut s = TcpStream::connect(addr).unwrap();
        write_request(&mut s, "GET", "/v1/queue/summary", b"").unwrap();
        let (status, body) = read_response(&mut s, 1 << 20).unwrap();
        assert_eq!(status, 200);
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(v["queued"].as_i64(), Some(0));

        // A garbage request gets a 400, not a hung or killed handler.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let (status, _) = read_response(&mut s, 1 << 20).unwrap();
        assert_eq!(status, 400);

        wire.shutdown();
        wire.shutdown(); // idempotent
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn v2_serves_frames_and_survives_garbage() {
        let server = Arc::new(SqalpelServer::new());
        let mut wire =
            V2Server::start(Arc::clone(&server), None, "127.0.0.1:0", V2Config::default())
                .unwrap();
        let addr = wire.local_addr().to_string();

        // Handshake + one op on a persistent connection.
        let mut conn = FramedConn::connect(
            &addr,
            Duration::from_secs(2),
            Duration::from_secs(5),
            v2::DEFAULT_MAX_FRAME,
        )
        .unwrap();
        match conn.call(&Request::QueueSummary).unwrap().unwrap() {
            Reply::Queue(q) => assert_eq!(q.total(), 0),
            other => panic!("{other:?}"),
        }
        // Several more ops on the same connection: persistence works.
        for _ in 0..3 {
            assert!(conn.call(&Request::DbmsLabels).unwrap().is_ok());
        }

        // A half-written frame followed by disconnect must not panic the
        // shard, and other connections keep working.
        let mut half = FramedConn::connect(
            &addr,
            Duration::from_secs(2),
            Duration::from_secs(5),
            v2::DEFAULT_MAX_FRAME,
        )
        .unwrap();
        half.send_truncated(&Request::QueueSummary).unwrap();
        assert!(conn.call(&Request::QueueSummary).unwrap().is_ok());

        wire.shutdown();
        wire.shutdown(); // idempotent
    }

    #[test]
    fn v2_handles_many_idle_connections() {
        let server = Arc::new(SqalpelServer::new());
        let mut wire =
            V2Server::start(Arc::clone(&server), None, "127.0.0.1:0", V2Config::default())
                .unwrap();
        let addr = wire.local_addr().to_string();

        // Far more connections than shard threads, all alive at once.
        let mut conns: Vec<FramedConn> = (0..64)
            .map(|_| {
                FramedConn::connect(
                    &addr,
                    Duration::from_secs(2),
                    Duration::from_secs(5),
                    v2::DEFAULT_MAX_FRAME,
                )
                .unwrap()
            })
            .collect();
        // Every one of them still answers.
        for conn in conns.iter_mut() {
            assert!(conn.call(&Request::QueueSummary).unwrap().is_ok());
        }
        wire.shutdown();
    }
}
