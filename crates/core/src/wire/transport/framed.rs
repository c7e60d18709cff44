//! Framed TCP: the v2 transport muscle.
//!
//! One persistent TCP connection carries length-framed binary messages
//! (see [`crate::wire::proto::v2`] for the frame layout). This module
//! only moves frames: [`read_frame`]/[`write_frame`] for blocking
//! streams and [`FramedConn`], the client-side connection with the
//! version handshake, serial calls and pipelined send/recv. All
//! encoding decisions live in the codec.

use crate::driver::RunOutcome;
use crate::error::PlatformResult;
use crate::push::Notification;
use crate::queue::TaskId;
use crate::user::ContributorKey;
use crate::wire::proto::v2::{self, DecodedReply, HEADER_LEN};
use crate::wire::proto::{Reply, Request};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Write one already-encoded frame (header included) to the stream.
pub fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> io::Result<()> {
    stream.write_all(frame)
}

/// Read exactly one frame off a blocking stream. Oversized or truncated
/// frames are `InvalidData`/`UnexpectedEof` — the connection is dead.
pub fn read_frame(stream: &mut TcpStream, max_frame: usize) -> io::Result<(u32, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let tag = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len == 0 || len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {len} bytes outside (0, {max_frame}]"),
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok((tag, body))
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A client-side framed connection: connected, version-checked, ready
/// for serial calls or pipelined send/recv. Tag allocation is internal —
/// tags only need to be unique among in-flight frames on one connection.
pub struct FramedConn {
    stream: TcpStream,
    max_frame: usize,
    next_tag: u32,
    /// Push frames that arrived while waiting for a call's response
    /// (server push rides tag 0 on the same stream).
    notes: Vec<Notification>,
    /// Raw bytes buffered by [`FramedConn::recv_notification`]'s
    /// timeout-tolerant reads, possibly holding a partial frame.
    pushbuf: Vec<u8>,
}

/// Records per continuation frame in a bulk upload. Small enough that a
/// mid-sequence connection kill loses little, large enough that framing
/// overhead stays negligible next to the columnar payload.
pub const BATCH_CHUNK: usize = 512;

impl FramedConn {
    /// Connect and run the Hello handshake. Any version disagreement is
    /// a hard `InvalidData` error.
    pub fn connect(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
        max_frame: usize,
    ) -> io::Result<FramedConn> {
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| bad(format!("address {addr:?} did not resolve")))?;
        let stream = TcpStream::connect_timeout(&sock, connect_timeout)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        stream.set_nodelay(true)?;
        let mut conn = FramedConn {
            stream,
            max_frame,
            next_tag: 1,
            notes: Vec::new(),
            pushbuf: Vec::new(),
        };
        write_frame(&mut conn.stream, &v2::encode_hello_frame(0))?;
        let (_, body) = read_frame(&mut conn.stream, max_frame)?;
        match v2::decode_reply(&body).map_err(bad)? {
            DecodedReply::Hello { version } if version == v2::PROTO_VERSION => Ok(conn),
            DecodedReply::Hello { version } => Err(bad(format!(
                "server speaks protocol {version}, client speaks {}",
                v2::PROTO_VERSION
            ))),
            DecodedReply::Outcome(_) | DecodedReply::Notification(_) => {
                Err(bad("expected hello, got a reply".into()))
            }
        }
    }

    /// Send one request, returning its tag for later matching.
    pub fn send(&mut self, req: &Request) -> io::Result<u32> {
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
        write_frame(&mut self.stream, &v2::encode_request_frame(tag, req))?;
        Ok(tag)
    }

    /// Receive the next response frame, whichever request it answers.
    /// Unsolicited push frames arriving in between are stashed (readable
    /// via [`FramedConn::recv_notification`]), never returned here.
    pub fn recv(&mut self) -> io::Result<(u32, PlatformResult<Reply>)> {
        loop {
            let (tag, body) = read_frame(&mut self.stream, self.max_frame)?;
            match v2::decode_reply(&body).map_err(bad)? {
                DecodedReply::Outcome(outcome) => return Ok((tag, outcome)),
                DecodedReply::Notification(n) => self.notes.push(n),
                DecodedReply::Hello { .. } => return Err(bad("unexpected mid-stream hello".into())),
            }
        }
    }

    /// One serial request/response exchange.
    pub fn call(&mut self, req: &Request) -> io::Result<PlatformResult<Reply>> {
        self.exchange(|conn| conn.send(req))
    }

    /// Write one request however `send` does — a single frame, or a bulk
    /// upload's continuation frames and summary — and read the response
    /// to its tag.
    pub fn exchange(
        &mut self,
        send: impl FnOnce(&mut FramedConn) -> io::Result<u32>,
    ) -> io::Result<PlatformResult<Reply>> {
        let sent = send(self)?;
        let (tag, outcome) = self.recv()?;
        if tag != sent {
            return Err(bad(format!(
                "response tag {tag} does not match request tag {sent}"
            )));
        }
        Ok(outcome)
    }

    /// Fault injection for the drop tests: write only the first half of
    /// the encoded frame, then slam the connection shut. The server must
    /// discard the partial frame without dispatching it.
    pub fn send_truncated(&mut self, req: &Request) -> io::Result<()> {
        let frame = v2::encode_request_frame(self.next_tag, req);
        let half = frame.len() / 2;
        self.stream.write_all(&frame[..half])?;
        self.stream.shutdown(std::net::Shutdown::Both)
    }

    /// Stream one bulk upload: all-but-the-last chunk as continuation
    /// frames, the remainder inline in the summary frame, all under one
    /// tag. The single ack (a `Reply::Batch`) answers for the whole
    /// sequence; read it with [`FramedConn::recv`].
    pub fn send_batch(
        &mut self,
        key: &ContributorKey,
        reports: &[(TaskId, RunOutcome)],
    ) -> io::Result<u32> {
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
        let mut chunks: Vec<&[(TaskId, RunOutcome)]> = reports.chunks(BATCH_CHUNK).collect();
        let inline = chunks.pop().unwrap_or(&[]);
        for part in chunks {
            write_frame(&mut self.stream, &v2::encode_batch_part_frame(tag, part))?;
        }
        write_frame(
            &mut self.stream,
            &v2::encode_batch_end_frame(tag, key, reports.len() as u32, inline),
        )?;
        Ok(tag)
    }

    /// Fault injection: stream the first half of a bulk upload as a
    /// complete continuation frame, start a second one, cut it off
    /// mid-frame and slam the connection shut. The summary frame never
    /// goes out, so the server must drop everything buffered — no
    /// partial batch may become visible.
    pub fn send_batch_truncated(&mut self, reports: &[(TaskId, RunOutcome)]) -> io::Result<()> {
        let tag = self.next_tag;
        let mid = reports.len() / 2;
        write_frame(
            &mut self.stream,
            &v2::encode_batch_part_frame(tag, &reports[..mid]),
        )?;
        let second = v2::encode_batch_part_frame(tag, &reports[mid..]);
        self.stream.write_all(&second[..second.len() / 2])?;
        self.stream.shutdown(std::net::Shutdown::Both)
    }

    /// Subscribe this connection to server-push notifications for `key`.
    /// After the ack, the server may send tag-0 push frames at any time.
    pub fn subscribe(&mut self, key: &ContributorKey) -> io::Result<()> {
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
        write_frame(&mut self.stream, &v2::encode_subscribe_frame(tag, key))?;
        let (rtag, outcome) = self.recv()?;
        if rtag != tag {
            return Err(bad(format!(
                "subscribe ack tag {rtag} does not match request tag {tag}"
            )));
        }
        outcome
            .map(|_| ())
            .map_err(|e| bad(format!("subscribe refused: {e}")))
    }

    /// Block up to `timeout` for the next push frame. `Ok(None)` means
    /// the wait timed out with nothing pushed. Meant for dedicated
    /// subscription connections: reads go through an internal buffer so
    /// a timeout mid-frame never loses framing.
    pub fn recv_notification(&mut self, timeout: Duration) -> io::Result<Option<Notification>> {
        if !self.notes.is_empty() {
            return Ok(Some(self.notes.remove(0)));
        }
        let deadline = Instant::now() + timeout;
        loop {
            if let Some((_, body)) = v2::take_frame(&mut self.pushbuf, self.max_frame)
                .map_err(|e| bad(e.to_string()))?
            {
                return match v2::decode_reply(&body).map_err(bad)? {
                    DecodedReply::Notification(n) => Ok(Some(n)),
                    _ => Err(bad(
                        "expected a push frame on the subscription connection".into(),
                    )),
                };
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some(deadline - now))?;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(bad("subscription connection closed".into())),
                Ok(n) => self.pushbuf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}
