//! Per-connection byte plumbing: the incremental frame assembler and the
//! bounded outbound write queue.
//!
//! Both structures are fd-agnostic — they see only byte slices — so the
//! same code runs under the real epoll loop, the netsim connection-flood
//! scenario (100k virtual connections, no sockets), and the wire-path
//! fragmentation proptests.

use aipow_wire::codec::{self, DecodeError};
use aipow_wire::{Message, MAX_PAYLOAD_LEN};

/// Frame header length: `magic(2) ‖ version(1) ‖ type(1) ‖ len(4)`.
const HEADER_LEN: usize = 8;

/// Capacity above which an emptied buffer is released outright. An idle
/// connection that once carried a large frame must not pin that frame's
/// allocation forever — 100k idle connections times a 4 KiB remnant is
/// 400 MiB of dead heap. Client-to-server frames are ~100 bytes, so
/// steady-state capacity stays far below this and is kept (no realloc
/// churn); only outliers are trimmed.
const IDLE_SHRINK_BYTES: usize = 4096;

/// Accumulates raw stream bytes and yields complete wire frames.
///
/// The assembler validates the fixed header (magic, version, declared
/// length) as soon as 8 bytes are buffered, so garbage or an oversized
/// declaration is rejected *before* the peer is owed `len` more bytes —
/// a flood of bogus headers dies without buffering a payload. Complete
/// frames decode through [`aipow_wire::codec::decode`], the same
/// function the blocking path used, so the reactor cannot drift from the
/// protocol.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted when it grows past the live
    /// suffix.
    start: usize,
}

impl FrameAssembler {
    /// An empty assembler (no allocation until bytes arrive).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read from the stream.
    pub fn ingest(&mut self, bytes: &[u8]) {
        // Compact before growing: the consumed prefix is dead weight the
        // allocator would otherwise copy on reallocation anyway.
        if self.start > 0 && (self.start >= self.buf.len() || self.start >= MAX_PAYLOAD_LEN) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered and not yet consumed by a produced frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Heap bytes pinned by this assembler (the idle-memory metric the
    /// connflood scenario budgets).
    pub fn memory(&self) -> usize {
        self.buf.capacity()
    }

    /// Extracts the next complete frame, if one is fully buffered.
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeError`] for a malformed header or frame; the
    /// stream offset is unrecoverable after that, so the caller must
    /// reject-and-close, exactly as the blocking drain did.
    pub fn next_frame(&mut self) -> Result<Option<Message>, DecodeError> {
        let avail = self.buffered();
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let header = &self.buf[self.start..self.start + HEADER_LEN];
        // Fail fast on the fixed header so a bogus peer is cut off
        // before it is owed a payload's worth of buffering. The checks
        // mirror `codec::decode`'s, in the same order.
        let magic = u16::from_be_bytes([header[0], header[1]]);
        if magic != codec::MAGIC {
            return Err(DecodeError::BadMagic { got: magic });
        }
        if header[2] != codec::PROTOCOL_VERSION {
            return Err(DecodeError::UnsupportedVersion { got: header[2] });
        }
        let declared = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
        if declared > MAX_PAYLOAD_LEN {
            return Err(DecodeError::PayloadTooLarge { declared });
        }
        let total = HEADER_LEN + declared;
        if avail < total {
            return Ok(None);
        }
        let frame = &self.buf[self.start..self.start + total];
        let msg = codec::decode(frame)?;
        self.start += total;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
            if self.buf.capacity() > IDLE_SHRINK_BYTES {
                self.buf = Vec::new();
            }
        }
        Ok(Some(msg))
    }
}

/// What pushing onto a [`WriteQueue`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePush {
    /// The bytes were queued (or partially written by the caller first).
    Queued,
    /// The queue's byte bound would be exceeded: the peer is not reading
    /// its replies. The caller must close the connection — an unread
    /// backlog growing without bound is exactly the memory a slow-reader
    /// flood would otherwise cost.
    Overflow,
}

/// Bytes awaiting a writable socket, bounded.
///
/// Replies are encoded in place onto the tail
/// ([`push_message`](Self::push_message)); the event loop drains from the
/// front on writable readiness. The bound is bytes (not frames) because the
/// resource bodies dominate and that is what memory pressure is made of.
#[derive(Debug)]
pub struct WriteQueue {
    buf: Vec<u8>,
    start: usize,
    limit: usize,
}

impl WriteQueue {
    /// A queue holding at most `limit` pending bytes.
    pub fn new(limit: usize) -> Self {
        WriteQueue {
            buf: Vec::new(),
            start: 0,
            limit,
        }
    }

    /// Appends an encoded frame.
    #[must_use = "an Overflow must close the connection"]
    pub fn push(&mut self, frame: &[u8]) -> QueuePush {
        if self.pending_len() + frame.len() > self.limit {
            return QueuePush::Overflow;
        }
        self.reset_if_drained();
        self.buf.extend_from_slice(frame);
        QueuePush::Queued
    }

    /// Encodes `msg` straight onto the queue's tail — no intermediate
    /// frame buffer. A frame that would take the pending bytes past the
    /// limit is cut back off, so an `Overflow` leaves the queue exactly
    /// as it was: nothing partial is ever queued.
    #[must_use = "an Overflow must close the connection"]
    pub fn push_message(&mut self, msg: &Message) -> QueuePush {
        self.reset_if_drained();
        let before = self.buf.len();
        codec::encode_into(msg, &mut self.buf);
        if self.pending_len() > self.limit {
            self.buf.truncate(before);
            return QueuePush::Overflow;
        }
        QueuePush::Queued
    }

    /// Rewinds a fully written buffer so appends reuse its front.
    fn reset_if_drained(&mut self) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
    }

    /// The unwritten bytes, front first.
    pub fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Number of unwritten bytes.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether everything queued has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pending_len() == 0
    }

    /// Marks `n` front bytes as written.
    pub fn consume(&mut self, n: usize) {
        self.start += n.min(self.pending_len());
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
            if self.buf.capacity() > IDLE_SHRINK_BYTES {
                self.buf = Vec::new();
            }
        }
    }

    /// Heap bytes pinned by this queue.
    pub fn memory(&self) -> usize {
        self.buf.capacity()
    }
}

/// The fd-agnostic core of one connection: everything the reactor tracks
/// per peer except the socket itself. The netsim connection-flood
/// scenario holds 100k of these directly; the real event loop embeds one
/// per [`TcpStream`](std::net::TcpStream).
#[derive(Debug)]
pub struct ConnCore {
    /// The peer's address, the key for per-IP accounting and admission.
    pub peer_ip: std::net::IpAddr,
    /// Partial-frame accumulation.
    pub assembler: FrameAssembler,
    /// Replies awaiting socket writability.
    pub outbound: WriteQueue,
    /// Last inbound activity, server-clock milliseconds; the idle reaper
    /// compares this against its deadline.
    pub last_activity_ms: u64,
    /// Set once the connection is condemned (malformed frame, overflow):
    /// pending replies flush, nothing more is read, then it closes.
    pub closing: bool,
}

impl ConnCore {
    /// A fresh connection core.
    pub fn new(peer_ip: std::net::IpAddr, now_ms: u64, outbound_limit: usize) -> Self {
        ConnCore {
            peer_ip,
            assembler: FrameAssembler::new(),
            outbound: WriteQueue::new(outbound_limit),
            last_activity_ms: now_ms,
            closing: false,
        }
    }

    /// Heap bytes pinned by this connection beyond its own struct — the
    /// quantity the connflood scenario holds under a per-idle-connection
    /// budget.
    pub fn heap_memory(&self) -> usize {
        self.assembler.memory() + self.outbound.memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipow_wire::encode;

    #[test]
    fn whole_frame_roundtrip() {
        let mut asm = FrameAssembler::new();
        let msg = Message::Ping { token: 42 };
        asm.ingest(&encode(&msg));
        assert_eq!(asm.next_frame().unwrap(), Some(msg));
        assert_eq!(asm.next_frame().unwrap(), None);
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let mut asm = FrameAssembler::new();
        let msg = Message::RequestResource { path: "/r".into() };
        let bytes = encode(&msg);
        for (i, b) in bytes.iter().enumerate() {
            assert_eq!(asm.next_frame().unwrap(), None, "byte {i}");
            asm.ingest(std::slice::from_ref(b));
        }
        assert_eq!(asm.next_frame().unwrap(), Some(msg));
    }

    #[test]
    fn coalesced_frames_come_out_in_order() {
        let mut asm = FrameAssembler::new();
        let msgs = vec![
            Message::Ping { token: 1 },
            Message::RequestResource { path: "/a".into() },
            Message::Ping { token: 2 },
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(encode(m));
        }
        asm.ingest(&stream);
        for m in &msgs {
            assert_eq!(asm.next_frame().unwrap().as_ref(), Some(m));
        }
        assert_eq!(asm.next_frame().unwrap(), None);
    }

    #[test]
    fn bad_magic_rejected_from_header_alone() {
        let mut asm = FrameAssembler::new();
        asm.ingest(b"GET / HT"); // 8 bytes of HTTP, a classic misdial
        assert!(matches!(
            asm.next_frame(),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn stale_version_rejected_from_header_alone() {
        let mut asm = FrameAssembler::new();
        let mut bytes = encode(&Message::Ping { token: 3 });
        bytes[2] = codec::PROTOCOL_VERSION.wrapping_add(1);
        asm.ingest(&bytes[..HEADER_LEN]); // header only — no payload yet
        assert!(matches!(
            asm.next_frame(),
            Err(DecodeError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn oversized_declaration_rejected_before_payload() {
        let mut asm = FrameAssembler::new();
        let mut header = Vec::new();
        header.extend_from_slice(&codec::MAGIC.to_be_bytes());
        header.push(codec::PROTOCOL_VERSION);
        header.push(6); // ping
        header.extend_from_slice(&(u32::MAX).to_be_bytes());
        asm.ingest(&header);
        assert!(matches!(
            asm.next_frame(),
            Err(DecodeError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn idle_assembler_releases_large_buffers() {
        let mut asm = FrameAssembler::new();
        let big = Message::RequestResource {
            path: "x".repeat(16 * 1024),
        };
        asm.ingest(&encode(&big));
        assert!(asm.memory() > IDLE_SHRINK_BYTES);
        assert!(asm.next_frame().unwrap().is_some());
        assert_eq!(asm.memory(), 0, "large buffer must be released when idle");
        // Small traffic keeps its capacity (no realloc churn).
        asm.ingest(&encode(&Message::Ping { token: 1 }));
        assert!(asm.next_frame().unwrap().is_some());
        assert!(asm.memory() <= IDLE_SHRINK_BYTES);
    }

    #[test]
    fn write_queue_bounds_and_drains() {
        let mut q = WriteQueue::new(10);
        assert_eq!(q.push(b"hello"), QueuePush::Queued);
        assert_eq!(q.push(b"world!"), QueuePush::Overflow, "11 bytes > 10");
        assert_eq!(q.push(b"world"), QueuePush::Queued);
        assert_eq!(q.pending(), b"helloworld");
        q.consume(3);
        assert_eq!(q.pending(), b"loworld");
        // Freed room admits new bytes.
        assert_eq!(q.push(b"abc"), QueuePush::Queued);
        q.consume(q.pending_len());
        assert!(q.is_empty());
    }

    #[test]
    fn push_message_queues_the_encoded_frames_in_order() {
        let msgs = [
            Message::Ping { token: 1 },
            Message::Rejected {
                code: aipow_wire::RejectCode::NotFound,
                detail: "no such resource".into(),
            },
            Message::ResourceGranted {
                path: "/r".into(),
                body: vec![9; 300],
            },
        ];
        let mut q = WriteQueue::new(1 << 20);
        let mut want = Vec::new();
        for msg in &msgs {
            assert_eq!(q.push_message(msg), QueuePush::Queued);
            want.extend(encode(msg));
        }
        assert_eq!(q.pending(), want.as_slice());
        // A drained queue reuses its front for the next frame.
        q.consume(q.pending_len());
        assert_eq!(q.push_message(&msgs[0]), QueuePush::Queued);
        assert_eq!(q.pending(), encode(&msgs[0]).as_slice());
    }

    #[test]
    fn push_message_admits_a_frame_that_lands_exactly_on_the_limit() {
        let first = encode(&Message::Ping { token: 1 });
        let second = Message::Pong { token: 2 };
        let mut q = WriteQueue::new(first.len() + encode(&second).len());
        assert_eq!(q.push(&first), QueuePush::Queued);
        assert_eq!(q.push_message(&second), QueuePush::Queued);
        assert_eq!(q.pending_len(), q.limit);
    }

    #[test]
    fn push_message_overflow_leaves_the_queue_untouched() {
        let first = encode(&Message::Ping { token: 1 });
        let second = Message::Pong { token: 2 };
        // Part of the first frame is already written: the limit counts
        // pending bytes, and the frame would end one byte past it.
        let mut q = WriteQueue::new(first.len() - 3 + encode(&second).len() - 1);
        assert_eq!(q.push(&first), QueuePush::Queued);
        q.consume(3);
        let before = q.pending().to_vec();
        assert_eq!(q.push_message(&second), QueuePush::Overflow);
        assert_eq!(q.pending(), before.as_slice(), "no partial frame queued");
    }

    #[test]
    fn write_queue_releases_large_buffers_when_drained() {
        let mut q = WriteQueue::new(1 << 20);
        let big = vec![7u8; 64 * 1024];
        assert_eq!(q.push(&big), QueuePush::Queued);
        q.consume(big.len());
        assert_eq!(q.memory(), 0);
    }

    #[test]
    fn conn_core_idle_memory_is_zero() {
        let core = ConnCore::new("10.0.0.1".parse().unwrap(), 0, 1 << 20);
        assert_eq!(core.heap_memory(), 0, "an idle connection pins no heap");
    }
}
