//! The frame pump: a writer thread sends frames to a reader thread over
//! a real socket, through `clustream_net`'s public API only — the way a
//! `clustream-node` data link moves packets, without the slot pacing.

use crate::workloads::Rng;
use clustream_net::{connect_retry, read_frame, write_frame, Frame, NetListener, Transport};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// The smallest data-path frame (34-byte body), its fields drawn from the
/// seed so the bytes on the wire differ between seeds and never repeat.
pub fn packet_frames(seed: u64) -> impl FnMut(u64) -> Frame {
    let mut rng = Rng(seed);
    move |i| {
        let r = rng.next();
        Frame::Packet {
            from: r as u32,
            to: (r >> 32) as u32,
            packet: i,
            slot: rng.next(),
            sent_ns: rng.next(),
            retransmit: false,
        }
    }
}

/// `Frame::Config` with a 4 KiB payload: the large-frame end, where bytes
/// moved dominate the per-frame cost.
pub fn config4k_frames(seed: u64) -> impl FnMut(u64) -> Frame {
    let mut rng = Rng(seed);
    move |_| Frame::Config {
        payload: (0..4096)
            .map(|_| char::from(b'a' + (rng.next() % 26) as u8))
            .collect(),
    }
}

pub struct PumpOutcome {
    pub received: u64,
    /// Frames that arrived at their position and decoded equal to what
    /// was sent.
    pub equal_in_order: u64,
    pub bytes: u64,
    pub elapsed: Duration,
}

/// Send `frames` frames, made by two identical generators, from a writer
/// thread to a reader on this thread. The clock runs from the first write
/// to the last read.
pub fn pump<G>(
    transport: Transport,
    dir: &Path,
    socket_name: &str,
    frames: u64,
    generators: (G, G),
) -> io::Result<PumpOutcome>
where
    G: FnMut(u64) -> Frame + Send,
{
    let (mut outgoing, mut expected) = generators;
    let (listener, addr) = NetListener::bind(transport, dir, socket_name)?;
    let outcome = std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> io::Result<Instant> {
            let deadline = Instant::now() + Duration::from_secs(10);
            let (mut conn, _) = connect_retry(transport, &addr, deadline)?;
            conn.tune();
            let start = Instant::now();
            for i in 0..frames {
                write_frame(&mut conn, &outgoing(i))?;
            }
            Ok(start)
        });
        let mut conn = listener.accept()?;
        let (mut received, mut equal_in_order, mut bytes) = (0u64, 0u64, 0u64);
        while let Some((frame, n)) = read_frame(&mut conn)? {
            equal_in_order += u64::from(frame == expected(received));
            received += 1;
            bytes += n as u64;
        }
        let end = Instant::now();
        let start = writer
            .join()
            .map_err(|_| io::Error::other("pump writer thread panicked"))??;
        Ok(PumpOutcome {
            received,
            equal_in_order,
            bytes,
            elapsed: end - start,
        })
    });
    if transport == Transport::Uds {
        let _ = std::fs::remove_file(dir.join(socket_name));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::scratch_dir;

    #[test]
    fn every_frame_arrives_in_order_on_both_transports() {
        let dir = scratch_dir("pump-test-order");
        for transport in [Transport::Uds, Transport::Tcp] {
            let out = pump(
                transport,
                &dir,
                "t.sock",
                500,
                (packet_frames(9), packet_frames(9)),
            )
            .unwrap();
            assert_eq!((out.received, out.equal_in_order), (500, 500));
            // 4-byte length prefix + 34-byte body.
            assert_eq!(out.bytes, 500 * 38);
        }
        assert!(!dir.join("t.sock").exists(), "socket file removed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_reader_expecting_other_frames_counts_mismatches() {
        let dir = scratch_dir("pump-test-mismatch");
        let out = pump(
            Transport::Uds,
            &dir,
            "t.sock",
            50,
            (packet_frames(1), packet_frames(2)),
        )
        .unwrap();
        assert_eq!(out.received, 50);
        assert_eq!(out.equal_in_order, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
