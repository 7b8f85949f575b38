//! Transport selection: TCP loopback or Unix-domain sockets behind one
//! connection/listener pair, so the node and orchestrator logic is
//! transport-agnostic.
//!
//! The container is fully offline and single-host, so "real transport"
//! means loopback — but it is still a genuine kernel network path:
//! frames cross socket buffers, writes can block on backpressure, and a
//! SIGKILLed peer produces a real half-closed connection, none of which
//! the DES models directly.

use crate::frame::{read_frame, Frame};
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

/// One established stream connection on either transport.
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    Uds(UnixStream),
}

impl Conn {
    /// Clone the underlying socket handle (shared file description), so
    /// one thread can read while another writes.
    pub fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Uds(s) => Conn::Uds(s.try_clone()?),
        })
    }

    /// Set (or clear) the read timeout.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Uds(s) => s.set_read_timeout(t),
        }
    }

    /// Read one control frame, waiting at most `timeout` (cleared again
    /// afterwards). A cleanly closed connection is the error `closed`.
    pub fn read_frame_within(&mut self, timeout: Duration, closed: &str) -> Result<Frame, String> {
        self.set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        let got = read_frame(self).map_err(|e| e.to_string())?;
        self.set_read_timeout(None).map_err(|e| e.to_string())?;
        got.map(|(frame, _)| frame).ok_or_else(|| closed.into())
    }

    /// Set (or clear) the write timeout — a gray peer that stops reading
    /// must surface as a send error the writer can react to, not a
    /// permanently parked writer thread.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            Conn::Uds(s) => s.set_write_timeout(t),
        }
    }

    /// Disable Nagle batching on TCP (slot deadlines are milliseconds;
    /// 40ms delayed-ACK stalls would swamp them). No-op on UDS.
    pub fn tune(&self) {
        if let Conn::Tcp(s) = self {
            let _ = s.set_nodelay(true);
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Uds(s) => s.flush(),
        }
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
        let conn = match self {
            NetListener::Tcp(l) => Conn::Tcp(l.accept()?.0),
            NetListener::Uds(l) => Conn::Uds(l.accept()?.0),
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
            Transport::Tcp => TcpStream::connect(addr).map(Conn::Tcp),
            Transport::Uds => UnixStream::connect(addr).map(Conn::Uds),
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
    use crate::frame::{read_frame, write_frame, Frame};

    #[test]
    fn transport_labels_roundtrip() {
        for t in [Transport::Tcp, Transport::Uds] {
            assert_eq!(Transport::parse(t.label()), Ok(t));
        }
        let err = Transport::parse("smoke-signals").unwrap_err();
        assert!(err.contains("unknown --transport `smoke-signals`"), "{err}");
        assert!(err.contains("tcp, uds"), "{err}");
    }

    #[test]
    fn frames_cross_both_transports() {
        let dir = std::env::temp_dir().join(format!("clustream-net-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for transport in [Transport::Tcp, Transport::Uds] {
            let (listener, addr) = NetListener::bind(transport, &dir, "t.sock").unwrap();
            let sent = Frame::Ready { node: 42 };
            let send = {
                let sent = sent.clone();
                std::thread::spawn(move || {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    let (mut conn, _) = connect_retry(transport, &addr, deadline).unwrap();
                    write_frame(&mut conn, &sent).unwrap();
                })
            };
            let mut server = listener.accept().unwrap();
            let (got, _) = read_frame(&mut server).unwrap().unwrap();
            assert_eq!(got, sent);
            assert!(read_frame(&mut server).unwrap().is_none(), "peer closed");
            send.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
