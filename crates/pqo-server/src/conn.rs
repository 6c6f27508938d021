//! Pure per-connection state machines: incremental frame reassembly from
//! arbitrarily fragmented reads, and a positioned write buffer for
//! arbitrarily short writes. No sockets and no clocks live here, so the
//! event loop's framing behaviour is deterministically unit-testable —
//! the tests below drive byte-at-a-time delivery and 1-byte writebacks
//! and assert byte equality with the blocking codec in [`crate::wire`].

use std::collections::VecDeque;

use crate::wire::{self, Request, Response, WireError};

/// Reassembly failure: the announced frame length exceeds the limit.
/// Framing cannot resynchronize after an oversized announcement, so the
/// caller must answer `MALFORMED` and close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The announced body length.
    pub announced: u32,
}

/// Incremental reassembler for the length-prefixed framing of
/// [`crate::wire`]: feed whatever byte slices the socket yields (down to
/// one byte at a time) and complete frame bodies come out, byte-identical
/// to what the blocking [`crate::wire::read_frame`] would have returned.
#[derive(Debug)]
pub struct FrameAssembler {
    max_frame: u32,
    header: [u8; 4],
    header_got: usize,
    body: Vec<u8>,
    body_got: usize,
    in_body: bool,
}

impl FrameAssembler {
    /// A fresh assembler enforcing `max_frame` on announced body lengths.
    pub fn new(max_frame: u32) -> FrameAssembler {
        FrameAssembler {
            max_frame,
            header: [0; 4],
            header_got: 0,
            body: Vec::new(),
            body_got: 0,
            in_body: false,
        }
    }

    /// Feed freshly-read bytes; every frame body completed by them is
    /// appended to `out` (zero or more per call).
    ///
    /// # Errors
    /// [`FrameTooLarge`] the moment an oversized length prefix completes;
    /// no body bytes are consumed past it.
    pub fn feed(&mut self, mut bytes: &[u8], out: &mut Vec<Vec<u8>>) -> Result<(), FrameTooLarge> {
        while !bytes.is_empty() {
            if !self.in_body {
                let take = (4 - self.header_got).min(bytes.len());
                self.header[self.header_got..self.header_got + take]
                    .copy_from_slice(&bytes[..take]);
                self.header_got += take;
                bytes = &bytes[take..];
                if self.header_got < 4 {
                    return Ok(());
                }
                let len = u32::from_le_bytes(self.header);
                if len > self.max_frame {
                    return Err(FrameTooLarge { announced: len });
                }
                self.in_body = true;
                self.body_got = 0;
                self.body.clear();
                self.body.resize(len as usize, 0);
            }
            let want = self.body.len() - self.body_got;
            let take = want.min(bytes.len());
            self.body[self.body_got..self.body_got + take].copy_from_slice(&bytes[..take]);
            self.body_got += take;
            bytes = &bytes[take..];
            if self.body_got == self.body.len() {
                out.push(std::mem::take(&mut self.body));
                self.in_body = false;
                self.header_got = 0;
                self.body_got = 0;
            }
        }
        // A zero-length frame completes without needing any body bytes.
        if self.in_body && self.body.is_empty() {
            out.push(Vec::new());
            self.in_body = false;
            self.header_got = 0;
        }
        Ok(())
    }

    /// Whether a frame is partially received (any header or body bytes
    /// pending) — the slow-loris signal.
    pub fn mid_frame(&self) -> bool {
        self.header_got > 0 || self.in_body
    }

    /// Approximate heap bytes held by reassembly state.
    pub fn buffer_bytes(&self) -> usize {
        self.body.capacity()
    }
}

/// Outbound byte queue with a consumed prefix, for nonblocking sockets
/// that accept partial writes. Frames pushed here serialize exactly as
/// [`crate::wire::write_frame`] would emit them.
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    /// An empty buffer.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Queue one frame (length prefix + body).
    pub fn push_frame(&mut self, body: &[u8]) {
        self.buf
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(body);
    }

    /// Queue `resp` as one frame, encoded in place: the length prefix is
    /// reserved, the body encoded behind it, the prefix patched.
    pub fn push_response(&mut self, resp: &Response) {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        wire::append_response(resp, &mut self.buf);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// The bytes still to be written.
    pub fn pending(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Note that `n` bytes of [`WriteBuf::pending`] were written.
    pub fn advance(&mut self, n: usize) {
        self.pos += n;
        debug_assert!(self.pos <= self.buf.len());
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 64 * 1024 {
            // Keep the consumed prefix from growing without bound under a
            // slow reader.
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Number of unwritten bytes.
    pub fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes held.
    pub fn buffer_bytes(&self) -> usize {
        self.buf.capacity()
    }
}

/// A decoded inbound frame awaiting dispatch: a request, or the decode
/// error that must earn a `MALFORMED` response in arrival order.
pub(crate) type Decoded = Result<Request, WireError>;

/// The dispatch-ordering queue of one connection: decoded frames are
/// answered strictly in arrival order, with at most one request in flight
/// in the worker pool per connection (the protocol is request/response,
/// but a pipelining or fuzzing client must still get ordered responses).
#[derive(Debug, Default)]
pub(crate) struct PendingQueue {
    items: VecDeque<Decoded>,
    in_flight: bool,
}

impl PendingQueue {
    pub fn push(&mut self, d: Decoded) {
        self.items.push_back(d);
    }

    /// The next frame to answer, unless one is already in flight.
    pub fn next(&mut self) -> Option<Decoded> {
        if self.in_flight {
            None
        } else {
            self.items.pop_front()
        }
    }

    pub fn set_in_flight(&mut self, v: bool) {
        self.in_flight = v;
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_idle(&self) -> bool {
        self.items.is_empty() && !self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, encode_request, encode_response, Request, WireChoice};

    fn frame_stream(requests: &[Request]) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut stream = Vec::new();
        let mut bodies = Vec::new();
        for req in requests {
            let mut body = Vec::new();
            encode_request(req, &mut body);
            wire::write_frame(&mut stream, &body).expect("vec write");
            bodies.push(body);
        }
        (stream, bodies)
    }

    fn sample_requests(tag: &str) -> Vec<Request> {
        vec![
            Request::Hello { version: 1 },
            Request::GetPlan {
                template: format!("{tag}_t"),
                values: vec![0.25, 0.5],
            },
            Request::GetPlanBatch {
                template: format!("{tag}_batch"),
                instances: vec![vec![0.1, 0.9], vec![0.3, 0.7], vec![0.5, 0.5]],
            },
            Request::Stats {
                template: tag.into(),
            },
            Request::Shutdown,
        ]
    }

    /// Satellite: two in-memory connection state machines driven through
    /// 1-byte delivery must reassemble exactly the frames the blocking
    /// decoder reads from the same streams.
    #[test]
    fn one_byte_delivery_matches_blocking_decoder() {
        let (stream_a, _) = frame_stream(&sample_requests("alpha"));
        let (stream_b, _) = frame_stream(&sample_requests("beta"));

        // Blocking-decoder ground truth.
        let blocking = |stream: &[u8]| -> Vec<Vec<u8>> {
            let mut r = stream;
            let mut out = Vec::new();
            let mut buf = Vec::new();
            while wire::read_frame(&mut r, wire::DEFAULT_MAX_FRAME_BYTES, &mut buf).expect("read") {
                out.push(buf.clone());
            }
            out
        };
        let want_a = blocking(&stream_a);
        let want_b = blocking(&stream_b);

        // Two interleaved state machines, each fed one byte at a time.
        let mut asm_a = FrameAssembler::new(wire::DEFAULT_MAX_FRAME_BYTES);
        let mut asm_b = FrameAssembler::new(wire::DEFAULT_MAX_FRAME_BYTES);
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        let longest = stream_a.len().max(stream_b.len());
        for i in 0..longest {
            if let Some(&b) = stream_a.get(i) {
                asm_a.feed(&[b], &mut got_a).expect("in-limit frame");
            }
            if let Some(&b) = stream_b.get(i) {
                asm_b.feed(&[b], &mut got_b).expect("in-limit frame");
            }
        }
        assert!(!asm_a.mid_frame() && !asm_b.mid_frame());
        assert_eq!(got_a, want_a, "1-byte reassembly diverged from decoder");
        assert_eq!(got_b, want_b, "1-byte reassembly diverged from decoder");
    }

    /// Chunked delivery at every split size yields the same frames as the
    /// whole stream at once.
    #[test]
    fn arbitrary_fragmentation_is_lossless() {
        let (stream, _) = frame_stream(&sample_requests("frag"));
        let mut whole = Vec::new();
        FrameAssembler::new(wire::DEFAULT_MAX_FRAME_BYTES)
            .feed(&stream, &mut whole)
            .expect("whole stream");
        for chunk in 1..=13usize {
            let mut asm = FrameAssembler::new(wire::DEFAULT_MAX_FRAME_BYTES);
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                asm.feed(piece, &mut got).expect("in-limit frame");
            }
            assert_eq!(got, whole, "chunk size {chunk} diverged");
        }
    }

    /// Zero-length frames complete without body bytes, even when the
    /// header arrives split.
    #[test]
    fn zero_length_frames_complete() {
        let mut stream = Vec::new();
        wire::write_frame(&mut stream, b"").unwrap();
        wire::write_frame(&mut stream, b"x").unwrap();
        wire::write_frame(&mut stream, b"").unwrap();
        let mut asm = FrameAssembler::new(64);
        let mut got = Vec::new();
        for b in &stream {
            asm.feed(&[*b], &mut got).unwrap();
        }
        assert_eq!(got, vec![b"".to_vec(), b"x".to_vec(), b"".to_vec()]);
        assert!(!asm.mid_frame());
    }

    /// An oversized announcement errors exactly when the 4th header byte
    /// lands, and reports the announced length.
    #[test]
    fn oversized_announcement_is_rejected_at_header() {
        let mut asm = FrameAssembler::new(16);
        let header = 64u32.to_le_bytes();
        let mut out = Vec::new();
        asm.feed(&header[..3], &mut out).expect("incomplete header");
        assert!(asm.mid_frame());
        let err = asm.feed(&header[3..], &mut out).unwrap_err();
        assert_eq!(err, FrameTooLarge { announced: 64 });
        assert!(out.is_empty());
    }

    /// Satellite: short (1-byte) writes drain the write buffer into
    /// exactly the byte stream the blocking writer produces.
    #[test]
    fn short_writes_match_blocking_writer() {
        let (want, bodies) = frame_stream(&sample_requests("writes"));
        let mut wbuf = WriteBuf::new();
        for body in &bodies {
            wbuf.push_frame(body);
        }
        let mut written = Vec::new();
        while !wbuf.is_empty() {
            // A socket accepting one byte per write call.
            written.push(wbuf.pending()[0]);
            wbuf.advance(1);
        }
        assert_eq!(written, want, "short-write stream diverged from writer");
        assert_eq!(wbuf.len(), 0);
    }

    /// A response encoded in place is the frame the blocking writer emits
    /// for the same response, also behind a partly drained buffer.
    #[test]
    fn responses_encoded_in_place_match_blocking_writer() {
        let responses = [
            Response::ShutdownOk,
            Response::Plan(WireChoice {
                fingerprint: 0xFEED_F00D,
                optimized: true,
                generation: 7,
            }),
            Response::Error {
                code: wire::code::TIMEOUT,
                message: "no progress within 400ms (mid-frame)".into(),
            },
            Response::SnapshotPush {
                template: "t".into(),
                generation: 9,
                record: vec![0xAB; 70_000],
            },
        ];
        let mut want = Vec::new();
        let mut body = Vec::new();
        let mut wbuf = WriteBuf::new();
        wire::write_frame(&mut want, b"earlier").unwrap();
        wbuf.push_frame(b"earlier");
        wbuf.advance(5);
        for resp in &responses {
            encode_response(resp, &mut body);
            wire::write_frame(&mut want, &body).unwrap();
            wbuf.push_response(resp);
        }
        assert_eq!(wbuf.pending(), &want[5..]);
    }

    /// The pending queue answers strictly in arrival order with one
    /// request in flight at a time.
    #[test]
    fn pending_queue_orders_dispatch() {
        let mut q = PendingQueue::default();
        q.push(Ok(Request::Shutdown));
        q.push(Err(WireError("bad".into())));
        q.push(Ok(Request::Hello { version: 1 }));
        assert_eq!(q.len(), 3);
        assert!(matches!(q.next(), Some(Ok(Request::Shutdown))));
        q.set_in_flight(true);
        assert!(q.next().is_none(), "in-flight must block the queue");
        q.set_in_flight(false);
        assert!(matches!(q.next(), Some(Err(_))));
        assert!(matches!(q.next(), Some(Ok(Request::Hello { .. }))));
        assert!(q.is_idle());
    }
}
