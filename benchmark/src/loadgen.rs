//! The client side: framed connections, the per-window recorder, the
//! in-memory span log of the traced run, and the closed-loop engine that
//! keeps at most two connections busy from one thread.

use aipow_net::reactor::FrameAssembler;
use aipow_pow::{Challenge, Solution};
use aipow_wire::Message;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddrV4, TcpStream};
use std::time::{Duration, Instant};

use crate::proc::ReactorCpu;

/// Bound on every socket read, so a wedged server fails the run instead
/// of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Rates are counted, and the reactor's CPU read, per slice of this long.
const SLICE_NS: u64 = 1_000_000_000;

/// Raw spans kept for the trace file; every span still feeds the
/// per-step totals, so the aggregates cover the whole window.
const RAW_SPAN_CAP: usize = 40_000;

/// One framed client connection.
pub struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    buf: Vec<u8>,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// When set, time blocked in `read` and time spent decoding are
    /// accumulated for the span log.
    pub timed: bool,
    wait_ns: u64,
    decode_ns: u64,
}

impl Conn {
    pub fn open(addr: SocketAddrV4) -> io::Result<Conn> {
        Conn::from_stream(TcpStream::connect(addr)?)
    }

    pub fn from_stream(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            assembler: FrameAssembler::new(),
            buf: vec![0; 64 * 1024],
            bytes_out: 0,
            bytes_in: 0,
            timed: false,
            wait_ns: 0,
            decode_ns: 0,
        })
    }

    pub fn send(&mut self, frames: &[u8]) -> io::Result<()> {
        self.bytes_out += frames.len() as u64;
        self.stream.write_all(frames)
    }

    /// Blocks until one whole reply frame has arrived and decodes it.
    pub fn recv(&mut self) -> io::Result<Message> {
        loop {
            let t0 = self.timed.then(Instant::now);
            let frame = self
                .assembler
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if let Some(t0) = t0 {
                self.decode_ns += t0.elapsed().as_nanos() as u64;
            }
            if let Some(msg) = frame {
                return Ok(msg);
            }
            let t1 = self.timed.then(Instant::now);
            let n = self.stream.read(&mut self.buf)?;
            if let Some(t1) = t1 {
                self.wait_ns += t1.elapsed().as_nanos() as u64;
            }
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.bytes_in += n as u64;
            self.assembler.ingest(&self.buf[..n]);
        }
    }

    /// Returns and clears the accumulated (wait, decode) nanoseconds.
    pub fn take_timing(&mut self) -> (u64, u64) {
        let t = (self.wait_ns, self.decode_ns);
        self.wait_ns = 0;
        self.decode_ns = 0;
        t
    }
}

/// One recorded interval. `parent` is 0 for an op span and the op's id
/// for its steps, so a trace reader rebuilds the tree from two columns.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub duration_ns: u64,
    /// Protocol ops the span covers (a pipelined burst covers 32).
    pub ops: u32,
}

/// Loadgen spans of the traced window, kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    pub raw: Vec<Span>,
    /// Per span name: (spans, total ns).
    pub totals: BTreeMap<&'static str, (u64, u64)>,
    next_op: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            raw: Vec::new(),
            totals: BTreeMap::new(),
            next_op: 0,
        }
    }

    fn push(&mut self, span: Span) {
        let total = self.totals.entry(span.name).or_insert((0, 0));
        total.0 += 1;
        total.1 += span.duration_ns;
        if self.raw.len() < RAW_SPAN_CAP {
            self.raw.push(span);
        }
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.raw.len() * 96);
        for s in &self.raw {
            out.push_str(&format!(
                "{{\"op\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"duration_ns\":{},\"ops\":{}}}\n",
                s.op, s.parent, s.name, s.start_ns, s.duration_ns, s.ops
            ));
        }
        out
    }
}

/// The frame that submits `solution` for `path`.
pub fn submit(solution: &Solution, path: &str) -> Message {
    Message::SubmitSolution {
        challenge: solution.challenge.clone(),
        nonce: solution.nonce,
        width: solution.width,
        backend: solution.backend,
        path: path.to_string(),
    }
}

/// `challenge` with one bit of its MAC flipped: authentic in every field,
/// refused by the first check that matters.
pub fn forge_mac(challenge: &Challenge, byte: usize, bit: u32) -> Challenge {
    let mut tag = *challenge.tag();
    tag[byte % tag.len()] ^= 1 << (bit % 8);
    Challenge::from_parts_backend(
        challenge.version(),
        challenge.backend(),
        challenge.backend_param(),
        *challenge.seed(),
        challenge.issued_at_ms(),
        challenge.ttl_ms(),
        challenge.difficulty(),
        challenge.client_ip(),
        tag,
    )
}

/// Reject kinds `abuse_reject` submits, in the order of
/// [`ClientCounts::rejected`].
pub const ABUSE_KINDS: [&str; 4] = ["forged_mac", "bad_nonce", "replay", "expired"];

/// What the client saw, for the exact reconciliation against the
/// server's counter deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientCounts {
    pub challenges: u64,
    pub grants: u64,
    /// Rejected solutions by [`ABUSE_KINDS`] index.
    pub rejected: [u64; 4],
    pub rate_limited: u64,
    pub connects: u64,
}

/// Everything one phase (warm-up or measured window) observed.
pub struct Recorder {
    pub start: Instant,
    /// Correct ops per slice, binned by the op's clock instant.
    pub slices: Vec<u64>,
    /// Their latencies, per slice.
    pub lat_ns: Vec<Vec<u64>>,
    /// Reactor CPU read as each slice closes: `slice_cpu_ns[i]` is the
    /// reading at the end of slice `i` (0 until that slice has closed).
    pub slice_cpu_ns: Vec<u64>,
    cpu: Option<ReactorCpu>,
    open_slice: usize,
    pub challenge_ns: Vec<u64>,
    pub grant_ns: Vec<u64>,
    pub late_ns: Vec<u64>,
    /// Correct ops, including those that finished while draining after
    /// the deadline (they are in the server's counters too).
    pub completed: u64,
    pub failed: u64,
    /// Ops whose clock instant fell inside the window, per slice, and
    /// how many of them were correct and within the SLO.
    pub due: Vec<u64>,
    pub within_slo: Vec<u64>,
    slo_ns: u64,
    pub counts: ClientCounts,
    pub failures: Vec<String>,
    pub bytes: u64,
    pub spans: Option<SpanLog>,
    /// Span id of the burst the engine is handling; drivers attach
    /// their own steps (solve) to it.
    pub current_op: u64,
    /// Nanoseconds of driver steps recorded inside the engine's current
    /// `check` step, so the two do not cover the same interval twice.
    nested_ns: u64,
}

impl Recorder {
    pub fn new(seconds: u64, slo: Duration, traced: bool) -> Self {
        Recorder {
            start: Instant::now(),
            slices: vec![0; seconds as usize],
            lat_ns: vec![Vec::new(); seconds as usize],
            slice_cpu_ns: vec![0; seconds as usize],
            cpu: None,
            open_slice: 0,
            challenge_ns: Vec::new(),
            grant_ns: Vec::new(),
            late_ns: Vec::new(),
            completed: 0,
            failed: 0,
            due: vec![0; seconds as usize],
            within_slo: vec![0; seconds as usize],
            slo_ns: slo.as_nanos() as u64,
            counts: ClientCounts::default(),
            failures: Vec::new(),
            bytes: 0,
            spans: traced.then(SpanLog::new),
            current_op: 0,
            nested_ns: 0,
        }
    }

    /// Has the recorder read the reactor's CPU time at every slice
    /// boundary from here on.
    pub fn meter_cpu(&mut self, cpu: ReactorCpu) {
        self.cpu = Some(cpu);
    }

    /// The first op of a new slice closes the ones before it: their end
    /// reading is the reactor's CPU time now (late by at most that op).
    fn close_slices_before(&mut self, clock: Instant) {
        let now_in = self.slice_of(clock).unwrap_or(self.slices.len());
        if now_in > self.open_slice {
            if let Some(ns) = self.cpu.as_ref().and_then(|cpu| cpu.ns().ok()) {
                self.slice_cpu_ns[self.open_slice..now_in].fill(ns);
            }
            self.open_slice = now_in;
        }
    }

    pub fn deadline(&self) -> Instant {
        self.start + Duration::from_nanos(SLICE_NS * self.slices.len() as u64)
    }

    fn slice_of(&self, at: Instant) -> Option<usize> {
        let idx = (at.saturating_duration_since(self.start).as_nanos() as u64 / SLICE_NS) as usize;
        (idx < self.slices.len()).then_some(idx)
    }

    /// A correct op. `from` is where its latency starts (the write in a
    /// closed loop, the intended send instant in the open loop) and
    /// `clock` the instant that places it in the window (completion in a
    /// closed loop, the intended instant in the open loop).
    pub fn op_ok(&mut self, from: Instant, done: Instant, clock: Instant) {
        self.completed += 1;
        self.close_slices_before(clock);
        if let Some(slice) = self.slice_of(clock) {
            let lat = done.saturating_duration_since(from).as_nanos() as u64;
            self.slices[slice] += 1;
            self.due[slice] += 1;
            self.lat_ns[slice].push(lat);
            if lat <= self.slo_ns {
                self.within_slo[slice] += 1;
            }
        }
    }

    /// An op that errored, was refused, or failed the output check. It
    /// counts against the SLO like a late one.
    pub fn op_failed(&mut self, clock: Instant, why: String) {
        self.failed += 1;
        if let Some(slice) = self.slice_of(clock) {
            self.due[slice] += 1;
        }
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn tracing(&self) -> bool {
        self.spans.is_some()
    }

    /// Opens an op in the span log and returns its id (0 when untraced).
    pub fn begin_op(&mut self) -> u64 {
        match &mut self.spans {
            Some(log) => {
                log.next_op += 1;
                log.next_op
            }
            None => 0,
        }
    }

    pub fn step(&mut self, op: u64, name: &'static str, start: Instant, duration_ns: u64) {
        if let Some(log) = &mut self.spans {
            self.nested_ns += duration_ns;
            let start_ns = start.saturating_duration_since(log.epoch).as_nanos() as u64;
            log.push(Span {
                op,
                parent: op,
                name,
                start_ns,
                duration_ns,
                ops: 0,
            });
        }
    }

    pub fn end_op(&mut self, op: u64, start: Instant, end: Instant, ops: u32) {
        if let Some(log) = &mut self.spans {
            log.push(Span {
                op,
                parent: 0,
                name: "op",
                start_ns: start.saturating_duration_since(log.epoch).as_nanos() as u64,
                duration_ns: end.saturating_duration_since(start).as_nanos() as u64,
                ops,
            });
        }
    }
}

/// A workload that talks in bursts: write `n` frames, read `n` replies.
pub trait BurstDriver {
    /// Appends the next burst for idle connection `conn` to `out` and
    /// returns how many replies it will draw; 0 leaves the connection
    /// idle. Once `stopping`, a driver only finishes ops already begun.
    fn next_burst(
        &mut self,
        conn: usize,
        out: &mut Vec<u8>,
        stopping: bool,
        rec: &mut Recorder,
    ) -> usize;

    /// Every reply to the connection's outstanding burst has arrived.
    fn on_replies(
        &mut self,
        conn: usize,
        replies: &mut Vec<Message>,
        written: Instant,
        done: Instant,
        rec: &mut Recorder,
    );
}

/// Closed loop over the connections, in turn: collect the replies to a
/// connection's outstanding burst, hand them to the driver, write its
/// next burst, move on. While the loadgen works on one connection the
/// server works on the other's burst. Returns once the recorder's
/// deadline has passed and every op begun has finished, so the server is
/// quiescent.
pub fn run_closed(
    conns: &mut [Conn],
    driver: &mut dyn BurstDriver,
    rec: &mut Recorder,
) -> io::Result<()> {
    let deadline = rec.deadline();
    let traced = rec.tracing();
    let mut outstanding = vec![0usize; conns.len()];
    let mut written = vec![rec.start; conns.len()];
    // Traced run: each burst round trip is one op span (id, start).
    let mut span_ops = vec![(0u64, rec.start); conns.len()];
    let mut out = Vec::new();
    let mut replies = Vec::new();
    for conn in conns.iter_mut() {
        conn.timed = traced;
    }
    loop {
        let mut active = false;
        for (c, conn) in conns.iter_mut().enumerate() {
            if outstanding[c] > 0 {
                replies.clear();
                for _ in 0..outstanding[c] {
                    replies.push(conn.recv()?);
                }
                let done = Instant::now();
                let (op, op_start) = span_ops[c];
                if traced {
                    let (wait_ns, decode_ns) = conn.take_timing();
                    rec.step(op, "wait", written[c], wait_ns);
                    rec.step(op, "decode", done, decode_ns);
                }
                rec.current_op = op;
                rec.nested_ns = 0;
                driver.on_replies(c, &mut replies, written[c], done, rec);
                if traced {
                    let check_ns = (done.elapsed().as_nanos() as u64).saturating_sub(rec.nested_ns);
                    rec.step(op, "check", done, check_ns);
                    rec.end_op(op, op_start, Instant::now(), outstanding[c] as u32);
                }
                outstanding[c] = 0;
            }
            out.clear();
            let encode_start = Instant::now();
            let stopping = encode_start >= deadline;
            rec.current_op = if traced { rec.begin_op() } else { 0 };
            let expect = driver.next_burst(c, &mut out, stopping, rec);
            if expect > 0 {
                written[c] = Instant::now();
                conn.send(&out)?;
                outstanding[c] = expect;
                active = true;
                if traced {
                    let op = rec.current_op;
                    let encode_ns = written[c].duration_since(encode_start).as_nanos() as u64;
                    rec.step(op, "encode", encode_start, encode_ns);
                    rec.step(
                        op,
                        "write",
                        written[c],
                        written[c].elapsed().as_nanos() as u64,
                    );
                    span_ops[c] = (op, encode_start);
                }
            }
        }
        if !active {
            break;
        }
    }
    for conn in conns.iter_mut() {
        rec.bytes += conn.bytes_in + conn.bytes_out;
        conn.bytes_in = 0;
        conn.bytes_out = 0;
    }
    Ok(())
}
