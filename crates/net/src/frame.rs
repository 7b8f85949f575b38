//! The length-prefixed wire format.
//!
//! Every message on a cluster link — control plane or data plane — is one
//! frame: a 4-byte little-endian body length followed by the body, whose
//! first byte is the frame tag. Integers are little-endian, strings are a
//! `u32` byte length followed by UTF-8. The format is deliberately
//! byte-level (not JSON) on the data path so a `Packet` frame costs a few
//! dozen bytes; the two bulky control messages ([`Frame::Config`] and
//! [`Frame::Report`]) carry a JSON payload as a single string field, so
//! the schedule structs keep their serde derivations.
//!
//! Decoding never panics: truncated, oversized and corrupt inputs all
//! surface as typed [`FrameError`]s (pinned by the unit tests below, and
//! a proptest round-trips every frame shape).
//!
//! **Flush contract.** [`write_frame`] hands the writer one whole frame
//! in a single `write_all` and never flushes: over a buffered writer —
//! [`crate::transport::Conn`] is one — the frame is on the wire only
//! after the caller's `flush()` (or the writer's `Drop`). Whoever needs a
//! frame delivered *now* flushes; see `transport.rs` for who does when.
//! [`read_frame`] asks its reader for exactly the bytes of one frame, so
//! whatever a buffered reader fetched beyond them stays in that reader.
//!
//! The data path does not touch the heap: a frame whose body fits 64
//! bytes (every fixed-size frame; a `Packet` is 34) is encoded into and
//! decoded from a stack array.

use std::io::{self, Read, Write};

/// Hard ceiling on a frame body, bytes. Large enough for a lowered
/// schedule for thousands of nodes, small enough that a corrupt length
/// prefix cannot ask the reader to allocate gigabytes.
pub const MAX_FRAME: usize = 1 << 22;

/// Largest body [`write_frame`] and [`read_frame`] stage on the stack
/// instead of the heap. Covers every frame without a string field.
const SMALL_BODY: usize = 64;

/// A decode failure. Distinct from [`io::Error`]: these are protocol
/// violations in bytes that did arrive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The body ended before the fields it promised.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The body exceeds [`MAX_FRAME`]: a received length prefix, or a
    /// frame [`write_frame`] refused to send.
    Oversized {
        /// The advertised body length.
        len: usize,
        /// The allowed maximum.
        max: usize,
    },
    /// Structurally invalid: unknown tag, trailing bytes, bad UTF-8.
    Corrupt(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// One wire message. Control-plane frames flow between the orchestrator
/// and nodes; `Packet`/`Nack` flow on the node-to-node data links.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Node → orchestrator, first frame on the control link: identifies
    /// the node and carries the address its own listener bound (the node
    /// binds an ephemeral port, so only it knows).
    Hello {
        /// The sender's node id.
        node: u32,
        /// The address the node's data listener is bound to.
        listen_addr: String,
    },
    /// Orchestrator → node: the node's lowered schedule and parameters,
    /// as a JSON-encoded [`crate::schedule::NodeConfig`].
    Config {
        /// JSON payload.
        payload: String,
    },
    /// Node → orchestrator: schedule installed, peer links connected.
    Ready {
        /// The sender's node id.
        node: u32,
    },
    /// Orchestrator → all nodes: slot 0 begins now.
    Start,
    /// Orchestrator → all nodes: stream over, report and exit.
    Stop,
    /// A stream packet on a data link.
    Packet {
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// Packet sequence number.
        packet: u64,
        /// The sender's slot when it sent.
        slot: u64,
        /// Sender wall clock, UNIX nanoseconds (same host, so comparable).
        sent_ns: u64,
        /// `true` for a NACK-triggered retransmission.
        retransmit: bool,
    },
    /// A retransmission request on a data link (receiver → source).
    Nack {
        /// The requesting node.
        from: u32,
        /// The missing packet.
        packet: u64,
    },
    /// Node → orchestrator: a watched upstream link has gone silent past
    /// the suspect timeout.
    Suspect {
        /// The node raising the suspicion.
        watcher: u32,
        /// The node suspected dead.
        subject: u32,
        /// Watcher wall clock at suspicion, UNIX nanoseconds.
        at_ns: u64,
    },
    /// Node → orchestrator: every tracked packet has arrived.
    Complete {
        /// The completing node.
        node: u32,
        /// Wall clock at completion, UNIX nanoseconds.
        at_ns: u64,
    },
    /// Node → orchestrator, sent on `Stop` (or at the horizon): final
    /// per-node statistics, as a JSON-encoded
    /// [`crate::schedule::NodeReport`].
    Report {
        /// JSON payload.
        payload: String,
    },
    /// Orchestrator → node after a confirmed failure: a healed calendar
    /// to splice in at a barrier slot, as a JSON-encoded
    /// [`crate::schedule::ScheduleUpdate`].
    ScheduleUpdate {
        /// JSON payload.
        payload: String,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_CONFIG: u8 = 2;
const TAG_READY: u8 = 3;
const TAG_START: u8 = 4;
const TAG_STOP: u8 = 5;
const TAG_PACKET: u8 = 6;
const TAG_NACK: u8 = 7;
const TAG_SUSPECT: u8 = 8;
const TAG_COMPLETE: u8 = 9;
const TAG_REPORT: u8 = 10;
const TAG_SCHEDULE_UPDATE: u8 = 11;

impl Frame {
    /// Encode the frame body (no length prefix) into an exactly sized
    /// `Vec`: one allocation.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(self.body_len());
        self.encode_to(&mut b);
        b
    }

    /// Exact length of the encoded body: the encoder run over a sink
    /// that only counts, so the layout is written down once.
    fn body_len(&self) -> usize {
        let mut n = Count(0);
        self.encode_to(&mut n);
        n.0
    }

    fn encode_to<S: Sink>(&self, b: &mut S) {
        match self {
            Frame::Hello { node, listen_addr } => {
                b.put(&[TAG_HELLO]);
                put_u32(b, *node);
                put_str(b, listen_addr);
            }
            Frame::Config { payload } => {
                b.put(&[TAG_CONFIG]);
                put_str(b, payload);
            }
            Frame::Ready { node } => {
                b.put(&[TAG_READY]);
                put_u32(b, *node);
            }
            Frame::Start => b.put(&[TAG_START]),
            Frame::Stop => b.put(&[TAG_STOP]),
            Frame::Packet {
                from,
                to,
                packet,
                slot,
                sent_ns,
                retransmit,
            } => {
                b.put(&[TAG_PACKET]);
                put_u32(b, *from);
                put_u32(b, *to);
                put_u64(b, *packet);
                put_u64(b, *slot);
                put_u64(b, *sent_ns);
                b.put(&[u8::from(*retransmit)]);
            }
            Frame::Nack { from, packet } => {
                b.put(&[TAG_NACK]);
                put_u32(b, *from);
                put_u64(b, *packet);
            }
            Frame::Suspect {
                watcher,
                subject,
                at_ns,
            } => {
                b.put(&[TAG_SUSPECT]);
                put_u32(b, *watcher);
                put_u32(b, *subject);
                put_u64(b, *at_ns);
            }
            Frame::Complete { node, at_ns } => {
                b.put(&[TAG_COMPLETE]);
                put_u32(b, *node);
                put_u64(b, *at_ns);
            }
            Frame::Report { payload } => {
                b.put(&[TAG_REPORT]);
                put_str(b, payload);
            }
            Frame::ScheduleUpdate { payload } => {
                b.put(&[TAG_SCHEDULE_UPDATE]);
                put_str(b, payload);
            }
        }
    }

    /// Decode one frame body (the bytes after the length prefix).
    /// Trailing bytes after the last field are corrupt, not ignored —
    /// silent slack would hide framing bugs forever.
    pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
        let mut cur = Cursor { buf: body, pos: 0 };
        let tag = cur.u8()?;
        let frame = match tag {
            TAG_HELLO => Frame::Hello {
                node: cur.u32()?,
                listen_addr: cur.string()?,
            },
            TAG_CONFIG => Frame::Config {
                payload: cur.string()?,
            },
            TAG_READY => Frame::Ready { node: cur.u32()? },
            TAG_START => Frame::Start,
            TAG_STOP => Frame::Stop,
            TAG_PACKET => Frame::Packet {
                from: cur.u32()?,
                to: cur.u32()?,
                packet: cur.u64()?,
                slot: cur.u64()?,
                sent_ns: cur.u64()?,
                retransmit: match cur.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(FrameError::Corrupt(format!(
                            "retransmit flag must be 0 or 1, got {other}"
                        )))
                    }
                },
            },
            TAG_NACK => Frame::Nack {
                from: cur.u32()?,
                packet: cur.u64()?,
            },
            TAG_SUSPECT => Frame::Suspect {
                watcher: cur.u32()?,
                subject: cur.u32()?,
                at_ns: cur.u64()?,
            },
            TAG_COMPLETE => Frame::Complete {
                node: cur.u32()?,
                at_ns: cur.u64()?,
            },
            TAG_REPORT => Frame::Report {
                payload: cur.string()?,
            },
            TAG_SCHEDULE_UPDATE => Frame::ScheduleUpdate {
                payload: cur.string()?,
            },
            other => return Err(FrameError::Corrupt(format!("unknown frame tag {other}"))),
        };
        if cur.pos != body.len() {
            return Err(FrameError::Corrupt(format!(
                "{} trailing bytes after a complete frame",
                body.len() - cur.pos
            )));
        }
        Ok(frame)
    }
}

/// Where the encoder puts bytes: a `Vec` that grows, a [`Stack`] that
/// cannot, or a [`Count`] that only measures.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Length prefix plus a body of at most [`SMALL_BODY`] bytes, on the
/// stack. `put` beyond that panics: callers check `body_len` first.
struct Stack {
    buf: [u8; 4 + SMALL_BODY],
    len: usize,
}

impl Sink for Stack {
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

struct Count(usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

fn put_u32<S: Sink>(b: &mut S, v: u32) {
    b.put(&v.to_le_bytes());
}

fn put_u64<S: Sink>(b: &mut S, v: u64) {
    b.put(&v.to_le_bytes());
}

fn put_str<S: Sink>(b: &mut S, s: &str) {
    put_u32(b, s.len() as u32);
    b.put(s.as_bytes());
}

/// Bounds-checked reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated {
            needed: usize::MAX,
            got: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated {
                needed: end,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| FrameError::Corrupt(format!("string field is not UTF-8: {e}")))
    }
}

/// Write one length-prefixed frame as a single `write_all`, without
/// flushing (see the module header). Returns the bytes written. A body
/// over [`MAX_FRAME`] — which the peer would reject — is refused here
/// with [`io::ErrorKind::InvalidInput`] wrapping
/// [`FrameError::Oversized`], and nothing is written.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<usize> {
    let len = frame.body_len();
    if len > MAX_FRAME {
        let e = FrameError::Oversized {
            len,
            max: MAX_FRAME,
        };
        return Err(io::Error::new(io::ErrorKind::InvalidInput, e));
    }
    // `len <= MAX_FRAME < 2^32`: the cast cannot truncate.
    let prefix = (len as u32).to_le_bytes();
    if len <= SMALL_BODY {
        let mut msg = Stack {
            buf: [0; 4 + SMALL_BODY],
            len: 0,
        };
        msg.put(&prefix);
        frame.encode_to(&mut msg);
        w.write_all(&msg.buf[..msg.len])?;
    } else {
        let mut msg = Vec::with_capacity(4 + len);
        msg.put(&prefix);
        frame.encode_to(&mut msg);
        w.write_all(&msg)?;
    }
    Ok(4 + len)
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (the peer closed between frames); EOF mid-frame is
/// [`FrameError::Truncated`] surfaced as an [`io::ErrorKind::InvalidData`]
/// error. The second tuple element is the bytes consumed.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<(Frame, usize)>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(FrameError::Truncated {
                needed: 4,
                got: filled,
            }
            .into());
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME,
        }
        .into());
    }
    let mut small = [0u8; SMALL_BODY];
    let mut large = Vec::new();
    let body = if len <= SMALL_BODY {
        &mut small[..len]
    } else {
        large.resize(len, 0);
        &mut large[..]
    };
    let mut got = 0;
    while got < len {
        let n = r.read(&mut body[got..])?;
        if n == 0 {
            return Err(FrameError::Truncated { needed: len, got }.into());
        }
        got += n;
    }
    let frame = Frame::decode_body(body)?;
    Ok(Some((frame, 4 + len)))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(f: &Frame) {
        let body = f.encode_body();
        assert_eq!(body.capacity(), body.len(), "body_len is exact");
        let back = Frame::decode_body(&body).expect("decodes");
        assert_eq!(*f, back);
        // And through the length-prefixed stream path.
        let mut wire = Vec::new();
        let written = write_frame(&mut wire, f).unwrap();
        assert_eq!(written, wire.len());
        let mut r = wire.as_slice();
        let (got, consumed) = read_frame(&mut r).unwrap().expect("one frame");
        assert_eq!(got, *f);
        assert_eq!(consumed, wire.len());
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after");
    }

    /// Build an ASCII string from sampled bytes (the wire format allows
    /// any UTF-8; sampling printable ASCII keeps failures readable).
    fn s(bytes: &[u8]) -> String {
        bytes.iter().map(|b| (b'!' + b % 90) as char).collect()
    }

    /// One of the eleven frame shapes, its fields filled from the
    /// sampled values.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn frame_of_shape(
        shape: usize,
        a: u32,
        b: u32,
        x: u64,
        y: u64,
        z: u64,
        flag: bool,
        text: &[u8],
    ) -> Frame {
        match shape {
            0 => Frame::Hello {
                node: a,
                listen_addr: s(text),
            },
            1 => Frame::Config { payload: s(text) },
            2 => Frame::Ready { node: a },
            3 => Frame::Start,
            4 => Frame::Stop,
            5 => Frame::Packet {
                from: a,
                to: b,
                packet: x,
                slot: y,
                sent_ns: z,
                retransmit: flag,
            },
            6 => Frame::Nack { from: a, packet: x },
            7 => Frame::Suspect {
                watcher: a,
                subject: b,
                at_ns: x,
            },
            8 => Frame::Complete { node: a, at_ns: x },
            9 => Frame::Report { payload: s(text) },
            _ => Frame::ScheduleUpdate { payload: s(text) },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn any_frame_roundtrips(
            shape in 0usize..11,
            a in 0u32..u32::MAX,
            b in 0u32..u32::MAX,
            x in 0u64..u64::MAX,
            y in 0u64..u64::MAX,
            z in 0u64..u64::MAX,
            flag in any::<bool>(),
            text in proptest::collection::vec(0u8..255, 0..64),
        ) {
            roundtrip(&frame_of_shape(shape, a, b, x, y, z, flag, &text));
        }

        /// Truncating a valid body anywhere never panics and never
        /// decodes to a frame that re-encodes differently.
        #[test]
        fn truncation_is_detected_or_harmless(
            a in 0u32..u32::MAX,
            x in 0u64..u64::MAX,
            cut in 0usize..64,
        ) {
            let body = Frame::Suspect { watcher: a, subject: a, at_ns: x }
                .encode_body();
            prop_assume!(cut < body.len());
            match Frame::decode_body(&body[..cut]) {
                Err(_) => {}
                Ok(f) => prop_assert_eq!(f.encode_body(), body[..cut].to_vec()),
            }
        }
    }

    #[test]
    fn empty_body_is_truncated_not_panic() {
        assert_eq!(
            Frame::decode_body(&[]),
            Err(FrameError::Truncated { needed: 1, got: 0 })
        );
    }

    #[test]
    fn truncated_fields_report_needed_and_got() {
        // A Ready frame missing its node id: tag present, 4 bytes absent.
        let err = Frame::decode_body(&[TAG_READY, 0, 1]).unwrap_err();
        assert_eq!(err, FrameError::Truncated { needed: 5, got: 3 });
        assert!(err.to_string().contains("needed 5 bytes, got 3"));
    }

    #[test]
    fn string_length_overrunning_body_is_truncated() {
        // Hello claiming a 100-byte address in a 2-byte remainder.
        let mut body = vec![TAG_HELLO];
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend_from_slice(&100u32.to_le_bytes());
        body.extend_from_slice(b"ab");
        let err = Frame::decode_body(&body).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn unknown_tag_is_corrupt() {
        let err = Frame::decode_body(&[200]).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("unknown frame tag 200"));
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut body = Frame::Start.encode_body();
        body.push(0xAB);
        let err = Frame::decode_body(&body).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn non_utf8_string_is_corrupt() {
        let mut body = vec![TAG_CONFIG];
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&[0xFF, 0xFE]);
        let err = Frame::decode_body(&body).unwrap_err();
        assert!(err.to_string().contains("not UTF-8"), "{err}");
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut body = Frame::Packet {
            from: 1,
            to: 2,
            packet: 3,
            slot: 4,
            sent_ns: 5,
            retransmit: false,
        }
        .encode_body();
        *body.last_mut().unwrap() = 7;
        let err = Frame::decode_body(&body).unwrap_err();
        assert!(err.to_string().contains("retransmit flag"), "{err}");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0; 16]);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("oversized frame"), "{err}");
    }

    /// A body the peer would refuse is refused by the sender, in release
    /// builds too, before a byte is written.
    #[test]
    fn oversized_body_is_refused_by_the_sender_and_nothing_is_written() {
        let frame = Frame::Config {
            // tag + string length + payload = MAX_FRAME + 1
            payload: "x".repeat(MAX_FRAME + 1 - 5),
        };
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let inner = err.get_ref().and_then(|e| e.downcast_ref::<FrameError>());
        assert_eq!(
            inner,
            Some(&FrameError::Oversized {
                len: MAX_FRAME + 1,
                max: MAX_FRAME
            })
        );
        assert!(wire.is_empty(), "wrote {} bytes", wire.len());
        // One byte less is the largest frame there is, and it goes.
        let Frame::Config { mut payload } = frame else {
            unreachable!()
        };
        payload.pop();
        let n = write_frame(&mut io::sink(), &Frame::Config { payload }).unwrap();
        assert_eq!(n, 4 + MAX_FRAME);
    }

    #[test]
    fn eof_mid_length_prefix_is_truncated() {
        let wire = [3u8, 0]; // half a length prefix, then EOF
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(err.to_string().contains("truncated frame"), "{err}");
    }

    #[test]
    fn eof_mid_body_is_truncated() {
        let mut wire = Vec::new();
        let body = Frame::Ready { node: 9 }.encode_body();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body[..2]); // promise 5 bytes, deliver 2
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(err.to_string().contains("truncated frame"), "{err}");
    }

    #[test]
    fn frames_stream_back_to_back() {
        let frames = [
            Frame::Hello {
                node: 3,
                listen_addr: "127.0.0.1:4000".into(),
            },
            Frame::Start,
            Frame::Nack {
                from: 3,
                packet: 17,
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = wire.as_slice();
        for f in &frames {
            let (got, _) = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(got, *f);
        }
        assert!(read_frame(&mut r).unwrap().is_none());
    }
}
