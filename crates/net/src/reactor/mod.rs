//! The event-driven connection engine behind [`PowServer`](crate::PowServer).
//!
//! One readiness loop per shard serves every connection the shard owns:
//! nonblocking accept feeds a generation-keyed [`ConnTable`]; per-
//! connection [`FrameAssembler`]s accumulate bytes into frames that the
//! batch [`dispatch_frames`] path answers; replies drain through bounded
//! [`WriteQueue`]s with writable-interest re-registration for
//! backpressure; a lazy [`DeadlineWheel`] reaps idle peers; and an
//! [`AcceptGate`] prices connection floods out at the accept call, before
//! they cost a buffer or a table slot. The previous thread-per-connection
//! design pinned one OS thread (~8 MiB of stack address space and a
//! scheduler entry) per concurrent peer; here a peer at rest costs a
//! table slot and an empty buffer pair — the difference between serving
//! hundreds and serving 100k+ concurrent connections.
//!
//! Every component except the event loop itself is fd-agnostic, and the
//! loop is a thin shell over them. That split is load-bearing: the
//! `connflood` netsim scenario drives the same table/assembler/
//! queue/gate/wheel machinery with 100k *virtual* connections (no
//! sockets), proving the per-connection costs at a scale the test host's
//! descriptor limit cannot reach, while the TCP tests pin the shell to
//! real kernel readiness semantics at smaller scale.
//!
//! **No blocking syscalls in the event loop.** Every socket is
//! nonblocking; the only place a reactor thread parks is
//! [`Poller::wait`]. A blocking read, write, accept, or sleep here would
//! stall every connection the shard owns — `aipow-analyze` lints this
//! module's files for exactly that.

pub mod conn;
pub mod dispatch;
pub mod gate;
pub mod table;
pub mod wheel;

pub use conn::{ConnCore, FrameAssembler, QueuePush, WriteQueue};
pub use dispatch::dispatch_frames;
pub use gate::{AcceptGate, AdmitDecision};
pub use table::ConnTable;
pub use wheel::DeadlineWheel;

use aipow_core::{FeatureSource, Framework, RateLimiter};
use aipow_wire::{DecodeError, Message, RejectCode};
use polling::{Event, Interest, Poller};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller key of the listening socket (shard 0 only). Connection keys
/// carry their slab index in the low half, so they stay far below this.
const LISTENER_KEY: u64 = u64::MAX - 1;

/// Bytes read per `read` call on a ready connection.
const READ_CHUNK: usize = 16 * 1024;

/// Ceiling on bytes drained from one connection per readiness event.
/// Level-triggered polling re-reports the remainder on the next wakeup,
/// so the cap costs nothing in throughput; without it one firehose peer
/// could monopolize a wakeup while 10k ready peers wait.
const READ_BUDGET: usize = 256 * 1024;

/// Hard ceiling on bytes a connection's assembler may hold after frame
/// draining. A legitimate leftover is at most one partial frame — the
/// 8-byte header plus a payload the header already bounded at
/// [`aipow_wire::MAX_PAYLOAD_LEN`] — so exceeding this means per-peer
/// memory is being evaded and the connection is cut.
const ASSEMBLER_BACKLOG_CAP: usize = aipow_wire::MAX_PAYLOAD_LEN + 64;

/// Initial nap after an `accept()` error.
pub(crate) const ACCEPT_BACKOFF_FLOOR: Duration = Duration::from_millis(2);
/// Ceiling on the accept-error backoff: long enough that a persistent
/// EMFILE costs ~2 listener re-arms per second instead of a hot loop,
/// short enough that recovery (descriptors freed) is noticed promptly.
pub(crate) const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Doubles the accept-error backoff, capped at [`ACCEPT_BACKOFF_CAP`].
pub(crate) fn next_accept_backoff(current: Duration) -> Duration {
    (current * 2).min(ACCEPT_BACKOFF_CAP)
}

/// Everything the shards share: the protocol context and the admission
/// gate. One instance per server, behind an [`Arc`].
pub(crate) struct ReactorShared {
    pub framework: Arc<Framework>,
    pub features: Arc<dyn FeatureSource>,
    pub resources: Arc<HashMap<String, Vec<u8>>>,
    pub limiter: Arc<Option<RateLimiter>>,
    pub gate: Arc<AcceptGate>,
    pub shutdown: Arc<AtomicBool>,
    /// Idle reap deadline; `Duration::ZERO` disables reaping.
    pub idle_timeout: Duration,
    /// Per-connection outbound queue bound in bytes.
    pub outbound_limit: usize,
    /// One clock epoch for all shards; wheel and idle math use
    /// milliseconds since this instant.
    pub epoch: Instant,
}

/// A running reactor: the shard threads and their wakeup handles.
pub(crate) struct ReactorHandle {
    pub pollers: Vec<Arc<Poller>>,
    pub threads: Vec<JoinHandle<()>>,
}

/// A shard's inbox for connections accepted on shard 0.
struct Mailbox {
    tx: Sender<(TcpStream, IpAddr)>,
    poller: Arc<Poller>,
}

/// Spawns `shard_count` reactor threads; shard 0 owns `listener` and
/// round-robins admitted connections across all shards.
pub(crate) fn spawn_reactor(
    listener: TcpListener,
    shared: Arc<ReactorShared>,
    shard_count: usize,
) -> io::Result<ReactorHandle> {
    let shard_count = shard_count.max(1);
    let mut pollers = Vec::with_capacity(shard_count);
    let mut mailboxes = Vec::with_capacity(shard_count);
    let mut receivers = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let poller = Arc::new(Poller::new()?);
        let (tx, rx) = channel();
        mailboxes.push(Mailbox {
            tx,
            poller: Arc::clone(&poller),
        });
        pollers.push(poller);
        receivers.push(rx);
    }
    listener.set_nonblocking(true)?;
    let mut threads = Vec::with_capacity(shard_count);
    let mut listener = Some(listener);
    let mut mailboxes = Some(mailboxes);
    for (index, rx) in receivers.into_iter().enumerate() {
        let shard = Shard {
            index,
            poller: Arc::clone(&pollers[index]),
            rx,
            listener: if index == 0 { listener.take() } else { None },
            peers: if index == 0 {
                mailboxes.take().unwrap_or_default()
            } else {
                Vec::new()
            },
            shared: Arc::clone(&shared),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("aipow-reactor-{index}"))
                .spawn(move || shard.run())?,
        );
    }
    Ok(ReactorHandle { pollers, threads })
}

/// One connection as the event loop sees it: the socket plus the
/// fd-agnostic core, and the interest currently registered for it.
struct Connection {
    stream: TcpStream,
    core: ConnCore,
    interest: Interest,
}

/// What servicing a connection decided.
#[derive(PartialEq)]
enum Fate {
    /// Still live.
    Keep,
    /// Remove, deregister, release its gate slot.
    Close,
}

/// One reactor shard: poller, connection table, deadline wheel, and (on
/// shard 0) the listener plus the handoff mailboxes of every shard.
struct Shard {
    index: usize,
    poller: Arc<Poller>,
    rx: Receiver<(TcpStream, IpAddr)>,
    listener: Option<TcpListener>,
    peers: Vec<Mailbox>,
    shared: Arc<ReactorShared>,
}

impl Shard {
    fn now_ms(&self) -> u64 {
        self.shared.epoch.elapsed().as_millis() as u64
    }

    fn idle_ms(&self) -> u64 {
        self.shared.idle_timeout.as_millis() as u64
    }

    fn run(self) {
        let shared = Arc::clone(&self.shared);
        let metrics = shared.framework.metrics();
        let mut table: ConnTable<Connection> = ConnTable::new();
        // Wheel span ~ the idle timeout over 64 buckets: one revisit per
        // entry per timeout window, reap timing accurate to span/64.
        let mut wheel = DeadlineWheel::new(self.idle_ms().max(1_000), 64);
        let mut events: Vec<Event> = Vec::new();
        let mut rr = 0usize; // round-robin cursor over shards (shard 0)
        let mut accept_backoff = ACCEPT_BACKOFF_FLOOR;
        // While parked (after accept errors), the listener is out of the
        // poller; re-armed once this deadline passes.
        let mut parked_until: Option<u64> = None;

        if let Some(listener) = &self.listener {
            if self
                .poller
                .add(listener.as_raw_fd(), LISTENER_KEY, Interest::READABLE)
                .is_err()
            {
                // Without a listener registration shard 0 can never
                // accept; there is nothing useful to do but exit (start
                // already validated the fds, so this is unreachable in
                // practice).
                return;
            }
        }

        loop {
            // Cap the sleep at the wheel granularity so reaping stays on
            // schedule (a flat 250ms when reaping is disabled — no point
            // ticking an idle wheel), and shorter while a parked listener
            // waits to re-arm. notify() cuts all of this short for
            // shutdown and handoffs.
            let mut timeout = if self.idle_ms() > 0 {
                wheel.granularity_ms().min(250)
            } else {
                250
            };
            if let Some(until) = parked_until {
                timeout = timeout.min(until.saturating_sub(self.now_ms()).max(1));
            }
            // wait() appends; without the clear, every past event would
            // be re-serviced on every wakeup and the Vec would grow for
            // the life of the shard.
            events.clear();
            let _ = self
                .poller
                .wait(&mut events, Some(Duration::from_millis(timeout)));
            metrics.reactor_wakeups.inc();
            metrics.reactor_ready_events.add(events.len() as u64);

            // Acquire: pairs with the Release store in shutdown.
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }

            let now = self.now_ms();

            // Re-arm a parked listener once its backoff lapses. Un-park
            // only after the registration lands: a failed add with
            // parked_until cleared would never be retried, and the
            // server would silently stop accepting forever.
            if let Some(until) = parked_until {
                if now >= until {
                    let rearmed = match &self.listener {
                        Some(listener) => self
                            .poller
                            .add(listener.as_raw_fd(), LISTENER_KEY, Interest::READABLE)
                            .is_ok(),
                        None => true,
                    };
                    if rearmed {
                        parked_until = None;
                        metrics.accept_backoff_ms.set(0);
                    } else {
                        metrics.accept_errors.inc();
                        metrics
                            .accept_backoff_ms
                            .set(accept_backoff.as_millis() as i64);
                        parked_until = Some(now + accept_backoff.as_millis() as u64);
                        accept_backoff = next_accept_backoff(accept_backoff);
                    }
                }
            }

            // Connections handed off by shard 0.
            while let Ok((stream, ip)) = self.rx.try_recv() {
                self.register(&mut table, &mut wheel, stream, ip, now);
            }

            for &ev in &events {
                if ev.key == LISTENER_KEY {
                    if parked_until.is_none() {
                        self.accept_ready(
                            &mut table,
                            &mut wheel,
                            &mut rr,
                            &mut accept_backoff,
                            &mut parked_until,
                            now,
                        );
                    }
                } else {
                    self.service(&mut table, ev, now);
                }
            }

            // Reap idle connections: entries revalidate lazily, so an
            // active connection just refiles for its pushed-forward
            // deadline.
            if self.idle_ms() > 0 {
                let idle_ms = self.idle_ms();
                let poller = &self.poller;
                let gate = &shared.gate;
                wheel.expire(now, |key| {
                    let conn = table.get_mut(key)?;
                    let deadline = conn.core.last_activity_ms + idle_ms;
                    if now < deadline {
                        return Some(deadline);
                    }
                    if let Some(conn) = table.remove(key) {
                        let _ = poller.delete(conn.stream.as_raw_fd());
                        gate.release(conn.core.peer_ip);
                        metrics.reaped_idle.inc();
                        metrics.open_connections.set(gate.open_connections() as i64);
                    }
                    None
                });
            }
        }

        // Shutdown: every live connection closes and returns its slot.
        for key in table.keys() {
            self.close(&mut table, key);
        }
    }

    /// Accepts until `WouldBlock`, pricing floods out at the gate.
    fn accept_ready(
        &self,
        table: &mut ConnTable<Connection>,
        wheel: &mut DeadlineWheel,
        rr: &mut usize,
        backoff: &mut Duration,
        parked_until: &mut Option<u64>,
        now: u64,
    ) {
        let metrics = self.shared.framework.metrics();
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, addr)) => {
                    *backoff = ACCEPT_BACKOFF_FLOOR;
                    let ip = addr.ip();
                    match self.shared.gate.try_admit(ip) {
                        AdmitDecision::Admit => {
                            metrics.accepted_total.inc();
                            metrics
                                .open_connections
                                .set(self.shared.gate.open_connections() as i64);
                            self.place(table, wheel, rr, stream, ip, now);
                        }
                        AdmitDecision::MaxConnections => {
                            metrics.max_conn_rejections.inc();
                            reject_busy(stream);
                        }
                        AdmitDecision::PerIpCap => {
                            metrics.per_ip_cap_rejections.inc();
                            reject_busy(stream);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // EMFILE and kin report on *every* accept; with a
                    // level-triggered poller that is a hot spin. Park:
                    // pull the listener out of the poller and re-arm
                    // after an exponential backoff, surfacing the
                    // condition in telemetry either way.
                    metrics.accept_errors.inc();
                    metrics.accept_backoff_ms.set(backoff.as_millis() as i64);
                    let _ = self.poller.delete(listener.as_raw_fd());
                    *parked_until = Some(now + backoff.as_millis() as u64);
                    *backoff = next_accept_backoff(*backoff);
                    return;
                }
            }
        }
    }

    /// Routes one admitted connection: round-robin to a peer shard, or
    /// into this shard's own table.
    fn place(
        &self,
        table: &mut ConnTable<Connection>,
        wheel: &mut DeadlineWheel,
        rr: &mut usize,
        stream: TcpStream,
        ip: IpAddr,
        now: u64,
    ) {
        let shards = self.peers.len().max(1);
        let target = *rr % shards;
        *rr = (*rr + 1) % shards;
        if target == self.index {
            self.register(table, wheel, stream, ip, now);
            return;
        }
        let mailbox = &self.peers[target];
        if mailbox.tx.send((stream, ip)).is_ok() {
            let _ = mailbox.poller.notify();
        } else {
            // The shard is gone (only happens mid-shutdown); the stream
            // drops here and the slot frees.
            self.shared.gate.release(ip);
        }
    }

    /// Installs an admitted connection into this shard.
    fn register(
        &self,
        table: &mut ConnTable<Connection>,
        wheel: &mut DeadlineWheel,
        stream: TcpStream,
        ip: IpAddr,
        now: u64,
    ) {
        let metrics = self.shared.framework.metrics();
        if stream.set_nonblocking(true).is_err() {
            self.shared.gate.release(ip);
            metrics
                .open_connections
                .set(self.shared.gate.open_connections() as i64);
            return;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let key = table.insert(Connection {
            stream,
            core: ConnCore::new(ip, now, self.shared.outbound_limit),
            interest: Interest::READABLE,
        });
        if self.poller.add(fd, key, Interest::READABLE).is_err() {
            table.remove(key);
            self.shared.gate.release(ip);
            metrics
                .open_connections
                .set(self.shared.gate.open_connections() as i64);
            return;
        }
        if self.idle_ms() > 0 {
            wheel.schedule(key, now + self.idle_ms());
        }
    }

    /// Services one connection readiness event.
    fn service(&self, table: &mut ConnTable<Connection>, ev: Event, now: u64) {
        let Some(conn) = table.get_mut(ev.key) else {
            // Stale: the connection closed while this event was in
            // flight, and the generation tag kept it from misrouting.
            return;
        };
        let mut fate = Fate::Keep;
        if ev.readable || ev.hangup {
            // A hangup is serviced through the same read path: read()
            // returns 0 (or an error), which marks the connection
            // closing after any buffered frames are answered.
            fate = self.service_readable(conn, now);
        }
        if fate == Fate::Keep {
            fate = self.service_writable(conn, ev.key);
        }
        if fate == Fate::Close {
            self.close(table, ev.key);
        }
    }

    /// Drains readable bytes (bounded), assembles frames, dispatches
    /// them in `max_batch` groups, and queues the replies.
    fn service_readable(&self, conn: &mut Connection, now: u64) -> Fate {
        if conn.core.closing {
            // Condemned (malformed frame, overflow): the peer is owed
            // nothing but the pending rejection flush. Buffering its
            // bytes — or letting them count as activity that defers the
            // idle reaper — would hand a garbage-streaming peer
            // line-rate memory growth. Discard instead.
            return self.drain_condemned(conn);
        }
        let metrics = self.shared.framework.metrics();
        let max_batch = self.shared.framework.max_batch();
        let mut budget = READ_BUDGET;
        let mut saw_eof = false;
        let mut buf = [0u8; READ_CHUNK];
        while budget > 0 {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.core.assembler.ingest(&buf[..n]);
                    conn.core.last_activity_ms = now;
                    budget = budget.saturating_sub(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }

        loop {
            let mut frames = Vec::new();
            let mut decode_err: Option<DecodeError> = None;
            while frames.len() < max_batch {
                match conn.core.assembler.next_frame() {
                    Ok(Some(msg)) => frames.push(msg),
                    Ok(None) => break,
                    Err(e) => {
                        decode_err = Some(e);
                        break;
                    }
                }
            }
            let batch_full = frames.len() >= max_batch;
            if !frames.is_empty() {
                let replies = dispatch_frames(
                    frames,
                    conn.core.peer_ip,
                    &self.shared.framework,
                    &*self.shared.features,
                    &self.shared.resources,
                    &self.shared.limiter,
                );
                for reply in replies {
                    if conn.core.outbound.push_message(&reply) == QueuePush::Overflow {
                        // The peer is not reading its replies; holding
                        // more memory for it is exactly what a
                        // slow-reader flood wants.
                        metrics.outbound_overflow_closes.inc();
                        return Fate::Close;
                    }
                }
            }
            if let Some(e) = decode_err {
                // The stream offset is unrecoverable past a malformed
                // frame: answer what parsed, send the typed rejection,
                // flush, close. An old-version peer gets the actionable
                // ProtocolMismatch, garbage gets Malformed.
                let code = match e {
                    DecodeError::UnsupportedVersion { .. } => RejectCode::ProtocolMismatch,
                    _ => RejectCode::Malformed,
                };
                let _ = conn.core.outbound.push_message(&Message::Rejected {
                    code,
                    detail: e.to_string(),
                });
                conn.core.closing = true;
                break;
            }
            if !batch_full {
                break;
            }
        }

        if saw_eof {
            conn.core.closing = true;
        }
        // Invariant backstop: after draining, at most one partial frame
        // (header + a payload the header already bounded) may remain
        // buffered. Anything larger means the bound was evaded; cut the
        // connection rather than let it hold memory.
        if conn.core.assembler.buffered() > ASSEMBLER_BACKLOG_CAP {
            return Fate::Close;
        }
        Fate::Keep
    }

    /// Services readable readiness on a condemned connection: bytes are
    /// read and dropped (never buffered, never counted as activity), so
    /// the pending rejection can still flush while a hostile peer's
    /// stream costs the server nothing but the recv itself.
    fn drain_condemned(&self, conn: &mut Connection) -> Fate {
        let mut budget = READ_BUDGET;
        let mut buf = [0u8; READ_CHUNK];
        while budget > 0 {
            match conn.stream.read(&mut buf) {
                // EOF or a hard error: nobody is left to read the
                // rejection; close now instead of waiting on the flush.
                Ok(0) => return Fate::Close,
                Ok(n) => budget = budget.saturating_sub(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        Fate::Keep
    }

    /// Flushes the outbound queue; arms or disarms writable interest so
    /// backpressure is carried by the poller, not by blocking.
    fn service_writable(&self, conn: &mut Connection, key: u64) -> Fate {
        while !conn.core.outbound.is_empty() {
            match conn.stream.write(conn.core.outbound.pending()) {
                Ok(0) => return Fate::Close,
                Ok(n) => conn.core.outbound.consume(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !conn.interest.writable {
                        if self
                            .poller
                            .modify(conn.stream.as_raw_fd(), key, Interest::BOTH)
                            .is_err()
                        {
                            return Fate::Close;
                        }
                        conn.interest = Interest::BOTH;
                    }
                    return Fate::Keep;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        if conn.core.closing {
            return Fate::Close;
        }
        if conn.interest.writable {
            // Drained: drop writable interest or a level-triggered
            // poller would report this connection on every wakeup.
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), key, Interest::READABLE)
                .is_err()
            {
                return Fate::Close;
            }
            conn.interest = Interest::READABLE;
        }
        Fate::Keep
    }

    /// Removes a connection: table slot, poller registration, gate slot.
    fn close(&self, table: &mut ConnTable<Connection>, key: u64) {
        let metrics = self.shared.framework.metrics();
        if let Some(conn) = table.remove(key) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.shared.gate.release(conn.core.peer_ip);
            metrics
                .open_connections
                .set(self.shared.gate.open_connections() as i64);
        }
    }
}

/// Best-effort typed refusal for a connection the gate rejected: one
/// nonblocking write of `Rejected{ServerBusy}`, then the socket drops.
/// A fresh socket's send buffer is empty, so the write virtually always
/// lands; if it cannot, the peer simply sees the close — the accept path
/// must never block on a peer the server is refusing to serve.
fn reject_busy(stream: TcpStream) {
    let mut stream = stream;
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let frame = aipow_wire::encode(&Message::Rejected {
        code: RejectCode::ServerBusy,
        detail: "server at connection capacity".into(),
    });
    let _ = stream.write(&frame);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_doubles_and_caps() {
        let mut backoff = ACCEPT_BACKOFF_FLOOR;
        let mut total = Duration::ZERO;
        for _ in 0..20 {
            total += backoff;
            backoff = next_accept_backoff(backoff);
        }
        assert_eq!(backoff, ACCEPT_BACKOFF_CAP);
        // 20 consecutive failures park the listener for seconds, not a
        // poll-frequency spin: the first few double (2,4,8,...) then
        // plateau at the cap.
        assert!(total >= Duration::from_secs(5));
        assert!(next_accept_backoff(ACCEPT_BACKOFF_CAP) == ACCEPT_BACKOFF_CAP);
    }

    #[test]
    fn listener_key_clears_reserved_and_conn_space() {
        const { assert!(LISTENER_KEY < polling::RESERVED_KEY) }
        // Connection keys are `index | gen << 32`. With any reachable
        // slab (the table grows one slot per concurrent connection, so
        // index stays below max_connections) the generation would need
        // to wrap the full u32 on the topmost slot to graze the
        // listener key — out of range for any real process lifetime.
        let reachable = 1_000_000u64 | ((u32::MAX as u64) << 32);
        assert!(reachable < LISTENER_KEY);
    }
}
