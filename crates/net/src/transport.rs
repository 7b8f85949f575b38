//! Transport selection: TCP loopback or Unix-domain sockets behind one
//! connection/listener pair, so the node and orchestrator logic is
//! transport-agnostic.
//!
//! The container is fully offline and single-host, so "real transport"
//! means loopback — but it is still a genuine kernel network path:
//! frames cross socket buffers, writes can block on backpressure, and a
//! SIGKILLed peer produces a real half-closed connection, none of which
//! the DES models directly.
//!
//! **The buffer contract.** A [`Conn`] owns its socket plus one fixed-size
//! read buffer and one write buffer, each allocated on first use (a link
//! used in one direction pays for one). It is the `BufWriter`/`BufReader`
//! contract, stated here once:
//!
//! * `write` appends. A write that would overflow the buffer flushes it
//!   first, and one at least as large as the buffer then goes straight to
//!   the socket — so order is kept whatever the sizes. Nothing reaches
//!   the wire before `flush()` (one `write_all`), an overflow, or `Drop`,
//!   which flushes best-effort and discards the error.
//! * Who flushes: every sender in this crate — handshake, control plane
//!   and a node's per-link writer thread alike — uses [`Conn::send`]
//!   (write one frame, flush). The cluster is slot-paced, one packet per
//!   link per slot, so a link's queue holds one frame when its writer
//!   wakes (measured: 1.00–1.01 frames per wake-up across the four CI
//!   cluster smokes); the buffer pays off for bulk writers that call
//!   [`write_frame`] back to back and flush at the end. Everything else
//!   in the crate only reads.
//! * `read` serves from the buffer and refills it with one syscall (a
//!   destination at least as large as the buffer is read into directly),
//!   so a read timeout bounds the refill, not the frame.
//! * **Split rule.** [`Conn::split`] returns the read half and moves the
//!   read buffer into it: bytes the socket already handed over (a `Stop`
//!   coalesced behind the `Start` a handshake just consumed) are read by
//!   that half, not lost in the write half. After a split only the
//!   returned half reads.
//! * A failed flush discards what it could not send: after a write
//!   error the stream is at an unknown byte, so the only recovery is a
//!   new connection and whole frames again — which is what a link
//!   writer's single redial does with the frame it was sending.

use crate::frame::{read_frame, write_frame, Frame};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which socket family cluster links use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// TCP over 127.0.0.1 with ephemeral ports. The default.
    #[default]
    Tcp,
    /// Unix-domain stream sockets in a per-cluster temp directory.
    Uds,
}

impl Transport {
    /// CLI label (`--transport <label>`).
    pub fn label(&self) -> &'static str {
        match self {
            Transport::Tcp => "tcp",
            Transport::Uds => "uds",
        }
    }

    /// Parse a CLI label. The error lists the valid options, matching
    /// the `--engine`/`--queue` convention.
    pub fn parse(s: &str) -> Result<Transport, String> {
        match s {
            "tcp" => Ok(Transport::Tcp),
            "uds" => Ok(Transport::Uds),
            other => Err(format!(
                "unknown --transport `{other}`; valid options are: tcp, uds"
            )),
        }
    }
}

/// The socket under a [`Conn`].
#[derive(Debug)]
enum Socket {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Socket {
    fn try_clone(&self) -> io::Result<Socket> {
        Ok(match self {
            Socket::Tcp(s) => Socket::Tcp(s.try_clone()?),
            Socket::Uds(s) => Socket::Uds(s.try_clone()?),
        })
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.read(buf),
            Socket::Uds(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.write(buf),
            Socket::Uds(s) => s.write(buf),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => s.write_all(buf),
            Socket::Uds(s) => s.write_all(buf),
        }
    }
}

/// Size of each of a [`Conn`]'s two buffers, bytes: ~215 `Packet`
/// frames per syscall. Larger buys a few percent and costs resident
/// memory on every link of every node.
const BUF: usize = 8 << 10;

/// One established stream connection on either transport, buffered in
/// both directions (see the module header for the contract).
#[derive(Debug)]
pub struct Conn {
    sock: Socket,
    /// Read buffer: empty until the first read, then `BUF` bytes of
    /// which `rbuf[rpos..rend]` are fetched and not yet consumed.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// Write buffer: capacity `BUF` from the first write on, holding the
    /// bytes written and not yet flushed.
    wbuf: Vec<u8>,
}

impl From<TcpStream> for Conn {
    fn from(s: TcpStream) -> Conn {
        Conn::new(Socket::Tcp(s))
    }
}

impl From<UnixStream> for Conn {
    fn from(s: UnixStream) -> Conn {
        Conn::new(Socket::Uds(s))
    }
}

impl Conn {
    fn new(sock: Socket) -> Conn {
        Conn {
            sock,
            rbuf: Vec::new(),
            rpos: 0,
            rend: 0,
            wbuf: Vec::new(),
        }
    }

    /// Split off the read half: a second handle on the same socket that
    /// takes over this one's read buffer, bytes fetched but not yet
    /// consumed included. `self` stays the write half; one thread can
    /// then read while another writes.
    pub fn split(&mut self) -> io::Result<Conn> {
        let mut rd = Conn::new(self.sock.try_clone()?);
        rd.rbuf = std::mem::take(&mut self.rbuf);
        rd.rpos = std::mem::take(&mut self.rpos);
        rd.rend = std::mem::take(&mut self.rend);
        Ok(rd)
    }

    /// Write one frame and flush it onto the wire; returns the bytes it
    /// took there. After an error nothing of the frame stays buffered.
    pub fn send(&mut self, frame: &Frame) -> io::Result<usize> {
        let n = write_frame(self, frame)?;
        self.flush()?;
        Ok(n)
    }

    /// Set (or clear) the read timeout.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match &self.sock {
            Socket::Tcp(s) => s.set_read_timeout(t),
            Socket::Uds(s) => s.set_read_timeout(t),
        }
    }

    /// Read one control frame, waiting at most `timeout` (cleared again
    /// afterwards, on every path). A cleanly closed connection is the
    /// error `closed`.
    pub fn read_frame_within(&mut self, timeout: Duration, closed: &str) -> Result<Frame, String> {
        self.set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        let got = read_frame(self);
        let cleared = self.set_read_timeout(None);
        let got = got.map_err(|e| e.to_string())?;
        cleared.map_err(|e| e.to_string())?;
        got.map(|(frame, _)| frame).ok_or_else(|| closed.into())
    }

    /// Set (or clear) the write timeout — a gray peer that stops reading
    /// must surface as a send error the writer can react to, not a
    /// permanently parked writer thread.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match &self.sock {
            Socket::Tcp(s) => s.set_write_timeout(t),
            Socket::Uds(s) => s.set_write_timeout(t),
        }
    }

    /// Disable Nagle batching on TCP (slot deadlines are milliseconds;
    /// 40ms delayed-ACK stalls would swamp them). No-op on UDS.
    pub fn tune(&self) {
        if let Socket::Tcp(s) = &self.sock {
            let _ = s.set_nodelay(true);
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.rpos == self.rend {
            if buf.len() >= BUF {
                return self.sock.read(buf);
            }
            self.rbuf.resize(BUF, 0);
            // Empty first, so a failed refill leaves an empty buffer.
            (self.rpos, self.rend) = (0, 0);
            self.rend = self.sock.read(&mut self.rbuf)?;
        }
        let n = buf.len().min(self.rend - self.rpos);
        buf[..n].copy_from_slice(&self.rbuf[self.rpos..self.rpos + n]);
        self.rpos += n;
        Ok(n)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.wbuf.len() + buf.len() > BUF {
            self.flush()?;
        }
        if buf.len() >= BUF {
            return self.sock.write(buf);
        }
        if self.wbuf.capacity() == 0 {
            self.wbuf.reserve_exact(BUF);
        }
        self.wbuf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let sent = self.sock.write_all(&self.wbuf);
        // Emptied on failure too: the stream is then mid-frame at best,
        // and neither a retry nor `Drop` may add to it.
        self.wbuf.clear();
        sent
    }
}

impl Drop for Conn {
    /// Best effort: a caller that must know the bytes left calls
    /// `flush()` (or [`Conn::send`]) and checks the result.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// A bound listener on either transport, plus the address peers dial.
#[derive(Debug)]
pub enum NetListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener.
    Uds(UnixListener),
}

impl NetListener {
    /// Bind a listener: TCP on an ephemeral loopback port, or a Unix
    /// socket named `name` under `dir`. Returns the listener and the
    /// address string peers should `connect` to.
    pub fn bind(transport: Transport, dir: &Path, name: &str) -> io::Result<(NetListener, String)> {
        match transport {
            Transport::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                let addr = l.local_addr()?.to_string();
                Ok((NetListener::Tcp(l), addr))
            }
            Transport::Uds => {
                let path: PathBuf = dir.join(name);
                // A stale socket file from a crashed prior run blocks bind.
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)?;
                Ok((NetListener::Uds(l), path.to_string_lossy().into_owned()))
            }
        }
    }

    /// Accept one connection (blocking, unless the listener is
    /// non-blocking — see [`NetListener::set_nonblocking`]).
    pub fn accept(&self) -> io::Result<Conn> {
        let conn: Conn = match self {
            NetListener::Tcp(l) => l.accept()?.0.into(),
            NetListener::Uds(l) => l.accept()?.0.into(),
        };
        conn.tune();
        Ok(conn)
    }

    /// Toggle non-blocking accepts (the orchestrator polls with a
    /// deadline instead of parking a thread per listener).
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            NetListener::Tcp(l) => l.set_nonblocking(nb),
            NetListener::Uds(l) => l.set_nonblocking(nb),
        }
    }
}

/// Backoff floor for [`connect_retry`], microseconds.
const BACKOFF_START_US: u64 = 2_000;
/// Backoff ceiling for [`connect_retry`], microseconds.
const BACKOFF_CAP_US: u64 = 50_000;

/// Dial `addr`, retrying until `deadline` — peers start concurrently, so
/// a listener may not exist yet when its first client dials. Retries
/// back off exponentially (2ms doubling to a 50ms cap) with seeded
/// jitter derived from the address, so a whole cluster restarting does
/// not dial in lockstep yet any single node's retry schedule is
/// deterministic. Returns the connection and the number of failed
/// attempts (the reconnect counter feeding `net.reconnects`).
pub fn connect_retry(
    transport: Transport,
    addr: &str,
    deadline: Instant,
) -> io::Result<(Conn, u64)> {
    let mut failures = 0u64;
    // FNV-1a over the address: a stable per-destination jitter seed.
    let mut jitter_state = addr.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    let mut backoff_us = BACKOFF_START_US;
    loop {
        let attempt = match transport {
            Transport::Tcp => TcpStream::connect(addr).map(Conn::from),
            Transport::Uds => UnixStream::connect(addr).map(Conn::from),
        };
        match attempt {
            Ok(conn) => {
                conn.tune();
                return Ok((conn, failures));
            }
            Err(e) => {
                failures += 1;
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("connect to {addr} failed after {failures} attempts: {e}"),
                    ));
                }
                // xorshift64 step; jitter in [0, backoff/2).
                jitter_state ^= jitter_state << 13;
                jitter_state ^= jitter_state >> 7;
                jitter_state ^= jitter_state << 17;
                let jitter_us = jitter_state % (backoff_us / 2).max(1);
                std::thread::sleep(Duration::from_micros(backoff_us + jitter_us));
                backoff_us = (backoff_us * 2).min(BACKOFF_CAP_US);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::tests::frame_of_shape;
    use crate::frame::{read_frame, write_frame, Frame, FrameError};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn transport_labels_roundtrip() {
        for t in [Transport::Tcp, Transport::Uds] {
            assert_eq!(Transport::parse(t.label()), Ok(t));
        }
        let err = Transport::parse("smoke-signals").unwrap_err();
        assert!(err.contains("unknown --transport `smoke-signals`"), "{err}");
        assert!(err.contains("tcp, uds"), "{err}");
    }

    /// A listener under a scratch directory of its own (tests share the
    /// process id and run on parallel threads).
    fn listen(transport: Transport) -> (NetListener, String, PathBuf) {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "clustream-net-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (listener, addr) = NetListener::bind(transport, &dir, "t.sock").unwrap();
        (listener, addr, dir)
    }

    fn dial(transport: Transport, addr: &str) -> Conn {
        let deadline = Instant::now() + Duration::from_secs(5);
        connect_retry(transport, addr, deadline).unwrap().0
    }

    /// A `Conn` and the bare socket at its far end.
    fn conn_and_peer() -> (Conn, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        (Conn::from(a), b)
    }

    fn wire(frames: &[Frame]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for f in frames {
            write_frame(&mut bytes, f).unwrap();
        }
        bytes
    }

    fn read_all(conn: &mut Conn) -> (Vec<Frame>, usize) {
        let (mut frames, mut bytes) = (Vec::new(), 0);
        while let Some((frame, n)) = read_frame(conn).unwrap() {
            frames.push(frame);
            bytes += n;
        }
        (frames, bytes)
    }

    #[test]
    fn frames_cross_both_transports() {
        for transport in [Transport::Tcp, Transport::Uds] {
            let (listener, addr, dir) = listen(transport);
            let sent = Frame::Ready { node: 42 };
            let send = {
                let sent = sent.clone();
                std::thread::spawn(move || dial(transport, &addr).send(&sent).unwrap())
            };
            let mut server = listener.accept().unwrap();
            let (got, _) = read_frame(&mut server).unwrap().unwrap();
            assert_eq!(got, sent);
            assert!(read_frame(&mut server).unwrap().is_none(), "peer closed");
            send.join().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever the frames, wherever the writer flushes and however
        /// the bytes are cut up on their way to the reader, every frame
        /// arrives equal and in order, and the byte count is the sum of
        /// the frame sizes.
        #[test]
        fn any_frames_any_flush_points_any_chunking_arrive_in_order(
            specs in proptest::collection::vec(
                (0usize..11, 0u64..u64::MAX, 0usize..400, any::<bool>()),
                1..40,
            ),
            chunks in proptest::collection::vec(1usize..300, 1..16),
        ) {
            let frames: Vec<Frame> = specs
                .iter()
                .map(|&(shape, x, size, flag)| {
                    // Mostly short strings; one in eight runs to several
                    // KiB, past the buffer size.
                    let len = if size % 8 == 0 { size * 37 } else { size % 64 };
                    let text: Vec<u8> = (0..len).map(|i| (x as usize + i) as u8).collect();
                    frame_of_shape(shape, x as u32, (x >> 32) as u32, x, !x, x / 3, flag, &text)
                })
                .collect();
            let bytes = wire(&frames);
            for transport in [Transport::Tcp, Transport::Uds] {
                let (listener, addr, dir) = listen(transport);
                std::thread::scope(|scope| {
                    // A buffered writer flushing at the sampled points
                    // (and on drop), then a bare socket writing the same
                    // bytes in the sampled chunk sizes.
                    scope.spawn(|| {
                        let mut conn = dial(transport, &addr);
                        for (frame, &(.., flush)) in frames.iter().zip(&specs) {
                            write_frame(&mut conn, frame).unwrap();
                            if flush {
                                conn.flush().unwrap();
                            }
                        }
                        drop(conn);
                        let mut raw: Box<dyn Write> = match transport {
                            Transport::Tcp => Box::new(TcpStream::connect(&addr).unwrap()),
                            Transport::Uds => Box::new(UnixStream::connect(&addr).unwrap()),
                        };
                        let mut rest = bytes.as_slice();
                        for &chunk in chunks.iter().cycle() {
                            if rest.is_empty() {
                                break;
                            }
                            let (head, tail) = rest.split_at(chunk.min(rest.len()));
                            raw.write_all(head).unwrap();
                            rest = tail;
                        }
                    });
                    for _ in 0..2 {
                        let (got, n) = read_all(&mut listener.accept().unwrap());
                        assert_eq!(got, frames);
                        assert_eq!(n, bytes.len());
                    }
                });
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// The split rule: `Stop` arrives in the same segment as `Start`, so
    /// the handshake's read has already pulled it into the buffer; the
    /// read half must find it there.
    #[test]
    fn split_hands_buffered_bytes_to_the_read_half() {
        let (mut conn, mut peer) = conn_and_peer();
        peer.write_all(&wire(&[Frame::Start, Frame::Stop])).unwrap();
        let first = conn.read_frame_within(Duration::from_secs(5), "closed");
        assert_eq!(first, Ok(Frame::Start));
        let mut rd = conn.split().unwrap();
        // Nothing more will come: an empty read half would see EOF.
        peer.shutdown(std::net::Shutdown::Write).unwrap();
        let (second, _) = read_frame(&mut rd).unwrap().expect("Stop was buffered");
        assert_eq!(second, Frame::Stop);
        // The write half still writes.
        conn.send(&Frame::Ready { node: 1 }).unwrap();
        let mut peer = Conn::from(peer);
        assert_eq!(
            read_frame(&mut peer).unwrap().unwrap().0,
            Frame::Ready { node: 1 }
        );
    }

    #[test]
    fn nothing_is_sent_before_a_flush_and_drop_flushes() {
        let (mut conn, peer) = conn_and_peer();
        write_frame(&mut conn, &Frame::Start).unwrap();
        peer.set_nonblocking(true).unwrap();
        let early = (&peer).read(&mut [0u8; 8]).unwrap_err();
        assert_eq!(early.kind(), io::ErrorKind::WouldBlock, "still buffered");
        peer.set_nonblocking(false).unwrap();
        drop(conn);
        let (got, _) = read_all(&mut Conn::from(peer));
        assert_eq!(got, [Frame::Start]);
    }

    /// A send that fails keeps nothing back for a later flush or `Drop`
    /// to put behind whatever part of the frame did leave.
    #[test]
    fn a_failed_send_leaves_nothing_buffered() {
        let (mut conn, peer) = conn_and_peer();
        drop(peer);
        let err = conn.send(&Frame::Start).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(conn.wbuf.is_empty());
    }

    #[test]
    fn a_frame_larger_than_the_buffer_keeps_its_place() {
        let frames = [
            Frame::Ready { node: 1 },
            Frame::Config {
                payload: "c".repeat(3 * BUF),
            },
            Frame::Ready { node: 2 },
        ];
        let (mut conn, peer) = conn_and_peer();
        for f in &frames {
            write_frame(&mut conn, f).unwrap();
        }
        drop(conn);
        let (got, n) = read_all(&mut Conn::from(peer));
        assert_eq!(got, frames);
        assert_eq!(n, wire(&frames).len());
    }

    /// `read_frame_within` clears its timeout when the read fails too:
    /// the peer sends half a frame and stalls, and the same `Conn` then
    /// serves an untimed read.
    #[test]
    fn a_timed_out_read_leaves_no_timeout_armed() {
        let (mut conn, mut peer) = conn_and_peer();
        let ready = wire(&[Frame::Ready { node: 9 }]);
        peer.write_all(&ready[..6]).unwrap();
        let err = conn
            .read_frame_within(Duration::from_millis(20), "closed")
            .unwrap_err();
        assert_ne!(err, "closed");
        let Socket::Uds(sock) = &conn.sock else {
            unreachable!()
        };
        assert_eq!(sock.read_timeout().unwrap(), None);
        peer.write_all(&wire(&[Frame::Start])).unwrap();
        assert_eq!(read_frame(&mut conn).unwrap().unwrap().0, Frame::Start);
    }

    /// Read-side totality through the buffer: a length prefix that
    /// straddles two refills still reads as one frame.
    #[test]
    fn a_length_prefix_split_across_two_refills_is_one_frame() {
        let (mut conn, mut peer) = conn_and_peer();
        let bytes = wire(&[
            Frame::Start,
            Frame::Nack {
                from: 3,
                packet: 17,
            },
        ]);
        let cut = 5 + 2; // all of `Start`, half of the next prefix
        peer.write_all(&bytes[..cut]).unwrap();
        assert_eq!(read_frame(&mut conn).unwrap().unwrap().0, Frame::Start);
        assert_eq!(conn.rend - conn.rpos, 2, "half a prefix is buffered");
        peer.write_all(&bytes[cut..]).unwrap();
        let (got, n) = read_frame(&mut conn).unwrap().unwrap();
        assert_eq!(
            got,
            Frame::Nack {
                from: 3,
                packet: 17
            }
        );
        assert_eq!(n, bytes.len() - 5);
    }

    /// EOF in the middle of a body that is already in the buffer reports
    /// the same `needed`/`got` as the unbuffered reader did.
    #[test]
    fn eof_mid_body_inside_the_buffer_is_truncated() {
        let (mut conn, mut peer) = conn_and_peer();
        let ready = wire(&[Frame::Ready { node: 9 }]);
        peer.write_all(&ready[..4 + 2]).unwrap(); // promise 5, deliver 2
        drop(peer);
        let err = read_frame(&mut conn).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let inner = err.get_ref().and_then(|e| e.downcast_ref::<FrameError>());
        assert_eq!(inner, Some(&FrameError::Truncated { needed: 5, got: 2 }));
    }
}
