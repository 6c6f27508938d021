//! The event-driven server core: one thread owns the nonblocking listener
//! and every accepted socket in a readiness set ([`crate::poller`]), drives
//! the per-connection state machines of [`crate::conn`], answers what the
//! published generation can answer, and hands the rest to a fixed worker
//! pool that calls the dispatch layer of [`crate::server`].
//!
//! ```text
//!            ┌───────────────────────────── event-loop thread ─────┐
//!  sockets ─▶│ poller.wait ─▶ read ─▶ FrameAssembler ─▶ decode ──┐ │
//!            │     ▲                                             ▼ │
//!            │     │          ┌── hit, control, bad frame ◀─ PendingQueue
//!            │     │          ▼                                  │ │
//!            │ completions ─▶ WriteBuf ─▶ write                  │ │
//!            └──────▲────────────────────────────────────────────┼─┘
//!                   │ waker       ┌──────────────────────────────▼─┐
//!                   └─────────────│ worker pool: miss, batch, …    │
//!                                 └────────────────────────────────┘
//! ```
//!
//! `GET_PLAN` is split at the miss. The selectivity and cost checks
//! ([`crate::server::serve_local`]) run here, where the frame was decoded:
//! one decide against the published generation, bounded by the technique
//! (≤ 3 µs at the corpus' longest instance lists), taking no lock a writer
//! holds and calling nothing that can block. A hit is encoded into the
//! connection's write buffer and flushed in the same iteration — no queue,
//! no condvar, no waker byte, no second wake-up. A miss goes to the pool
//! with what was computed for it, and so does everything that can take
//! long or block: the optimizer call and `manageCache`, a replica's
//! forward to its primary and the wait for the generation to apply,
//! batches, `EXPLAIN`, `STATS`, `HELLO`, `SHUTDOWN`.
//!
//! Ordering: each connection has at most one frame in flight in the pool
//! and nothing behind it is answered until it completes, so responses
//! return in request order even for a pipelining client, and a hit behind
//! a miss sees the generation the miss published. Backpressure: a
//! connection whose write buffer or pending queue
//! is over its bound loses read interest until the excess drains, so a
//! fast sender cannot balloon server memory. Deadlines: the loop sweeps
//! connections every `poll_interval`; no read progress for `read_timeout`
//! (idle or slow-loris) earns a `TIMEOUT` error frame and a close, and a
//! peer that stops draining responses for `write_timeout` is dropped.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

#[cfg(unix)]
use std::os::unix::io::AsRawFd;

use pqo_core::PqoService;
use pqo_optimizer::template::QueryInstance;

use crate::conn::{FrameAssembler, PendingQueue, WriteBuf};
use crate::poller::{Event, Interest, Poller, WakeReader};
use crate::server::{
    dispatch, flush_snapshots, plan_response, serve_local, serve_remote, Local, PlanMiss, Shared,
    StatCells,
};
use crate::wire::{
    code, decode_request, encode_response, error_code, Request, Response, WireError,
};

/// Token for the listening socket.
const TOKEN_LISTENER: usize = usize::MAX;
/// Token for the self-pipe wakeup fd.
const TOKEN_WAKER: usize = usize::MAX - 1;

/// What the event loop does not answer itself, on its way to the worker
/// pool.
struct Work {
    slot: usize,
    conn_id: u64,
    job: Job,
}

enum Job {
    /// A `GET_PLAN` the published generation could not answer: the remote
    /// half of [`crate::server`]'s serving path.
    Miss(PlanMiss),
    /// Any other request, dispatched whole.
    Frame(Request),
}

/// One encoded response on its way back from the worker pool.
struct Done {
    slot: usize,
    conn_id: u64,
    body: Vec<u8>,
    /// The response was `SHUTDOWN_OK`: flush it, then drain the server.
    shutdown_after: bool,
}

/// The decoded-frame queue the worker pool drains. Closing it releases
/// every blocked worker.
struct WorkQueue {
    inner: Mutex<(VecDeque<Work>, bool)>,
    ready: Condvar,
}

impl WorkQueue {
    fn new() -> WorkQueue {
        WorkQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, work: Work, stats: &StatCells) {
        let mut guard = self.inner.lock().expect("work queue lock");
        guard.0.push_back(work);
        stats.pool_frames.fetch_add(1, Ordering::Relaxed);
        let depth = guard.0.len() as u64;
        stats.queue_depth.store(depth, Ordering::Relaxed);
        stats.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
        drop(guard);
        self.ready.notify_one();
    }

    /// Block for the next item; `None` once closed and empty.
    fn pop(&self, stats: &StatCells) -> Option<Work> {
        let mut guard = self.inner.lock().expect("work queue lock");
        loop {
            if let Some(work) = guard.0.pop_front() {
                stats
                    .queue_depth
                    .store(guard.0.len() as u64, Ordering::Relaxed);
                return Some(work);
            }
            if guard.1 {
                return None;
            }
            guard = self.ready.wait(guard).expect("work queue wait");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("work queue lock").1 = true;
        self.ready.notify_all();
    }
}

/// State shared between the event loop and its worker pool.
struct LoopShared {
    queue: WorkQueue,
    completions: Mutex<Vec<Done>>,
}

impl LoopShared {
    /// Queue `job` for the pool as `conn`'s one frame in flight.
    fn hand_over(&self, conn: &mut Conn, slot: usize, job: Job, stats: &StatCells) {
        conn.pending.set_in_flight(true);
        let conn_id = conn.id;
        self.queue.push(Work { slot, conn_id, job }, stats);
    }
}

/// One live subscription on a connection: the generation stream of one
/// template. `sent == acked` means the subscriber is caught up with every
/// record we pushed; at most one unacknowledged push is in flight, which
/// both bounds the replica's apply backlog (the ≤ 1 generation-lag
/// guarantee) and keeps a slow subscriber from ballooning our write
/// buffer.
struct SubState {
    template: String,
    /// Highest generation pushed to (or reported owned by) the peer.
    sent: u64,
    /// Highest generation the peer acknowledged applying.
    acked: u64,
}

/// One connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// Monotone connection id guarding against completions addressed to a
    /// previous tenant of this slot.
    id: u64,
    assembler: FrameAssembler,
    wbuf: WriteBuf,
    pending: PendingQueue,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Flush outstanding responses, then close.
    close_after_flush: bool,
    /// Stop reading (poisoned framing, timeout sent, or draining).
    read_closed: bool,
    /// Rejected at admission (`BUSY`/`SHUTTING_DOWN`): input is read and
    /// discarded (so the close never RSTs away the error frame), nothing
    /// is dispatched, and the slot does not count against the connection
    /// limit. Closes on the peer's EOF or its read deadline.
    doomed: bool,
    /// Last moment any byte was read from the peer.
    last_read: Instant,
    /// Last moment the write buffer made progress (or became non-empty).
    last_write: Instant,
    /// Buffer bytes currently charged to the server-wide gauge.
    acct_bytes: u64,
    /// Generation-stream subscriptions held by this connection.
    subs: Vec<SubState>,
}

impl Conn {
    fn buffer_bytes(&self) -> u64 {
        (self.assembler.buffer_bytes() + self.wbuf.buffer_bytes()) as u64
    }

    /// Queue `resp` behind whatever is still unwritten; the write deadline
    /// starts when the buffer stops being empty.
    fn respond(&mut self, resp: &Response, stats: &StatCells, now: Instant) {
        if matches!(resp, Response::Error { .. }) {
            stats.error_frames.fetch_add(1, Ordering::Relaxed);
        }
        if self.wbuf.is_empty() {
            self.last_write = now;
        }
        self.wbuf.push_response(resp);
    }
}

/// Worker body: drain the queue, serve against the service, push encoded
/// responses back and wake the loop.
fn worker_loop(shared: &Shared, lshared: &LoopShared) {
    while let Some(work) = lshared.queue.pop(&shared.stats) {
        let (resp, shutdown_after) = match work.job {
            Job::Miss(miss) => (plan_response(shared, serve_remote(shared, miss)), false),
            Job::Frame(req) => {
                let is_shutdown = matches!(req, Request::Shutdown);
                let resp = dispatch(req, shared);
                let ack = is_shutdown && matches!(resp, Response::ShutdownOk);
                (resp, ack)
            }
        };
        if matches!(resp, Response::Error { .. }) {
            shared.stats.error_frames.fetch_add(1, Ordering::Relaxed);
        }
        let mut body = Vec::new();
        encode_response(&resp, &mut body);
        lshared
            .completions
            .lock()
            .expect("completions lock")
            .push(Done {
                slot: work.slot,
                conn_id: work.conn_id,
                body,
                shutdown_after,
            });
        shared.waker.wake();
    }
}

/// The event loop entry point: owns the listener and every connection
/// until shutdown completes (drain + snapshot flush).
pub(crate) fn run(listener: TcpListener, wake_rx: WakeReader, shared: Arc<Shared>) {
    let Ok(mut poller) = Poller::new() else {
        return; // unsupported platform: bind() already failed loudly
    };
    #[cfg(unix)]
    {
        if poller
            .register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_err()
            || poller
                .register(wake_rx.fd(), TOKEN_WAKER, Interest::READ)
                .is_err()
        {
            return;
        }
    }

    let lshared = Arc::new(LoopShared {
        queue: WorkQueue::new(),
        completions: Mutex::new(Vec::new()),
    });
    let workers: Vec<_> = (0..shared.config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let lshared = Arc::clone(&lshared);
            std::thread::Builder::new()
                .name(format!("pqo-worker-{i}"))
                .spawn(move || worker_loop(&shared, &lshared))
                .expect("spawn worker thread")
        })
        .collect();

    let mut el = EventLoop {
        listener,
        wake_rx,
        shared: Arc::clone(&shared),
        lshared: Arc::clone(&lshared),
        poller,
        conns: Vec::new(),
        free: Vec::new(),
        next_id: 0,
        scratch: vec![0u8; 64 * 1024],
        draining: false,
        drain_deadline: None,
    };
    el.run_loop();
    drop(el); // close every remaining socket before flushing

    lshared.queue.close();
    for w in workers {
        let _ = w.join();
    }
    flush_snapshots(&shared);
}

struct EventLoop {
    listener: TcpListener,
    wake_rx: WakeReader,
    shared: Arc<Shared>,
    lshared: Arc<LoopShared>,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_id: u64,
    scratch: Vec<u8>,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn run_loop(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if self
                .poller
                .wait(&mut events, Some(self.shared.config.poll_interval))
                .is_err()
            {
                return; // hard poller failure: tear down
            }
            self.shared
                .stats
                .poll_wakeups
                .fetch_add(1, Ordering::Relaxed);
            let now = Instant::now();

            for &ev in &events {
                match ev.token {
                    TOKEN_WAKER => self.wake_rx.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    slot => self.on_conn_event(slot, ev, now),
                }
            }

            self.apply_completions(now);
            self.pump_subscriptions(now);

            if self.shared.shutting_down() && !self.draining {
                self.begin_drain(now);
            }

            if now.duration_since(last_sweep) >= self.shared.config.poll_interval {
                self.sweep_deadlines(now);
                last_sweep = now;
            }

            if self.draining {
                if self.conns.iter().all(Option::is_none) {
                    return;
                }
                if self.drain_deadline.is_some_and(|d| now >= d) {
                    // Grace expired: drop stragglers (unflushed responses
                    // and all) rather than hang shutdown on a dead peer.
                    for slot in 0..self.conns.len() {
                        self.close_slot(slot);
                    }
                    return;
                }
            }
        }
    }

    /// Accept everything the listener has ready; reject with one error
    /// frame when over the connection limit or draining.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shared.shutting_down() {
                        self.admit(
                            stream,
                            Some((code::SHUTTING_DOWN, "server is shutting down")),
                        );
                        continue;
                    }
                    let open = self.shared.stats.open_connections.load(Ordering::Relaxed) as usize;
                    if open >= self.shared.config.max_connections {
                        self.shared
                            .stats
                            .connections_rejected_busy
                            .fetch_add(1, Ordering::Relaxed);
                        self.admit(
                            stream,
                            Some((code::BUSY, "connection limit reached, retry later")),
                        );
                        continue;
                    }
                    self.admit(stream, None);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient; the next readiness retries
            }
        }
    }

    /// Register an accepted connection in the readiness set. With
    /// `rejection` set, the connection is doomed: it carries exactly one
    /// error frame, discards all input, and closes on the peer's EOF —
    /// never before, so the error frame cannot be lost to a reset from
    /// unread input.
    fn admit(&mut self, stream: TcpStream, rejection: Option<(u16, &str)>) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        #[cfg(unix)]
        if self
            .poller
            .register(stream.as_raw_fd(), slot, Interest::READ)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let now = Instant::now();
        let mut conn = Conn {
            stream,
            id,
            assembler: FrameAssembler::new(self.shared.config.max_frame_bytes),
            wbuf: WriteBuf::new(),
            pending: PendingQueue::default(),
            interest: Interest::READ,
            close_after_flush: false,
            read_closed: false,
            doomed: rejection.is_some(),
            last_read: now,
            last_write: now,
            acct_bytes: 0,
            subs: Vec::new(),
        };
        let stats = &self.shared.stats;
        if let Some((code, message)) = rejection {
            let message = message.into();
            conn.respond(&Response::Error { code, message }, stats, now);
        } else {
            stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
            let open = stats.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
            stats.peak_connections.fetch_max(open, Ordering::Relaxed);
        }
        self.conns[slot] = Some(conn);
        self.settle(slot, now);
    }

    fn on_conn_event(&mut self, slot: usize, ev: Event, now: Instant) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // closed earlier in this batch
        };
        if ev.readable && !conn.read_closed {
            if !read_into(conn, &mut self.scratch, &self.shared) {
                self.close_slot(slot);
                return;
            }
        } else if ev.hangup && !ev.readable {
            // Error-only readiness (RST with nothing to read): drop.
            self.close_slot(slot);
            return;
        }
        self.settle(slot, now);
    }

    /// Apply every response the worker pool has finished: queue it on the
    /// owning connection (if it still exists and is the same tenant),
    /// flush, and dispatch that connection's next pending frame.
    fn apply_completions(&mut self, now: Instant) {
        let done = std::mem::take(&mut *self.lshared.completions.lock().expect("completions lock"));
        for d in done {
            if d.shutdown_after {
                self.shared.shutdown.store(true, Ordering::SeqCst);
            }
            let Some(conn) = self.conns.get_mut(d.slot).and_then(Option::as_mut) else {
                continue; // connection died while its request was in flight
            };
            if conn.id != d.conn_id {
                continue; // slot reused by a newer connection
            }
            conn.pending.set_in_flight(false);
            if conn.wbuf.is_empty() {
                conn.last_write = now;
            }
            conn.wbuf.push_frame(&d.body);
            if d.shutdown_after {
                conn.close_after_flush = true;
                conn.read_closed = true;
            }
            self.settle(d.slot, now);
        }
    }

    /// Push newly published generations to every caught-up subscriber.
    /// Runs each loop iteration; the probe per subscription is one
    /// published-snapshot load, so an idle fleet costs ~nothing. In steady
    /// state at most one unacknowledged push per subscription is in flight
    /// (the ≤ 1 generation-lag invariant). A resubscriber several
    /// generations behind gets one record: a delta spanning every missing
    /// generation while its base is still in the writer's log window, a
    /// full snapshot otherwise (see
    /// [`pqo_core::PqoService::generation_record`]). A connection over its
    /// buffer bound is skipped until it drains.
    fn pump_subscriptions(&mut self, now: Instant) {
        for slot in 0..self.conns.len() {
            let mut pushed = false;
            {
                let Some(conn) = self.conns[slot].as_mut() else {
                    continue;
                };
                if conn.subs.is_empty()
                    || conn.close_after_flush
                    || conn.wbuf.len() >= self.shared.config.max_conn_buffer
                {
                    continue;
                }
                let mut subs = std::mem::take(&mut conn.subs);
                for sub in &mut subs {
                    if sub.acked != sub.sent {
                        continue;
                    }
                    let Ok(current) = self.shared.service.generation(&sub.template) else {
                        continue;
                    };
                    if current <= sub.sent {
                        continue;
                    }
                    let Ok((record, generation)) = self
                        .shared
                        .service
                        .generation_record(&sub.template, Some(sub.sent))
                    else {
                        continue;
                    };
                    let stats = &self.shared.stats;
                    stats.gens_pushed.fetch_add(1, Ordering::Relaxed);
                    stats
                        .replication_bytes_out
                        .fetch_add(record.len() as u64, Ordering::Relaxed);
                    let push = Response::SnapshotPush {
                        template: sub.template.clone(),
                        generation,
                        record,
                    };
                    conn.respond(&push, stats, now);
                    sub.sent = generation;
                    pushed = true;
                }
                conn.subs = subs;
            }
            if pushed {
                self.settle(slot, now);
            }
        }
    }

    /// Flush what can be written, dispatch what can be dispatched, close
    /// if fully drained and marked, and reconcile poller interest.
    fn settle(&mut self, slot: usize, now: Instant) {
        let cfg = &self.shared.config;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };

        if !pump_write(conn, now) {
            self.close_slot(slot);
            return;
        }
        // Answered here, in arrival order (`pending.next()` yields nothing
        // while a request of this connection is in the pool): what only the
        // loop thread can do — subscription control mutates per-connection
        // state — and what is cheaper done than handed over — a frame that
        // did not decode, and the cached half of `GET_PLAN`. Everything
        // behind a frame that goes to the pool waits for its completion, and
        // so sees the generation it publishes.
        let stats = &self.shared.stats;
        let mut answered = false;
        while let Some(frame) = conn.pending.next() {
            let resp = match frame {
                Err(WireError(message)) => Response::Error {
                    code: code::MALFORMED,
                    message,
                },
                Ok(Request::Subscribe { template, since }) => {
                    subscribe(&mut conn.subs, &self.shared.service, template, since)
                }
                Ok(Request::GenAck {
                    template,
                    generation,
                }) => {
                    if let Some(s) = conn.subs.iter_mut().find(|s| s.template == template) {
                        s.acked = s.acked.max(generation);
                        s.sent = s.sent.max(s.acked);
                    }
                    continue;
                }
                Ok(Request::GetPlan { template, values }) => {
                    match serve_local(&self.shared, &template, QueryInstance::new(values)) {
                        Local::Served(served) => plan_response(&self.shared, served),
                        Local::Miss(miss) => {
                            self.lshared.hand_over(conn, slot, Job::Miss(miss), stats);
                            break;
                        }
                    }
                }
                Ok(other) => {
                    self.lshared.hand_over(conn, slot, Job::Frame(other), stats);
                    break;
                }
            };
            conn.respond(&resp, stats, now);
            answered = true;
        }
        if answered && !pump_write(conn, now) {
            self.close_slot(slot);
            return;
        }
        if conn.close_after_flush && conn.wbuf.is_empty() && conn.pending.is_idle() {
            self.close_slot(slot);
            return;
        }

        let backpressured =
            conn.wbuf.len() >= cfg.max_conn_buffer || conn.pending.len() >= cfg.max_pending_frames;
        let want = Interest {
            readable: !conn.read_closed && !backpressured,
            writable: !conn.wbuf.is_empty(),
        };
        #[cfg(unix)]
        if want != conn.interest {
            let _ = self.poller.modify(conn.stream.as_raw_fd(), slot, want);
            conn.interest = want;
        }

        // Reconcile this connection's share of the buffer-bytes gauge.
        let bytes = conn.buffer_bytes();
        let stats = &self.shared.stats;
        if bytes > conn.acct_bytes {
            stats
                .conn_buffer_bytes
                .fetch_add(bytes - conn.acct_bytes, Ordering::Relaxed);
        } else {
            stats
                .conn_buffer_bytes
                .fetch_sub(conn.acct_bytes - bytes, Ordering::Relaxed);
        }
        conn.acct_bytes = bytes;
    }

    /// Enforce read/write deadlines across all connections. Runs every
    /// `poll_interval`, so deadlines resolve within one interval of
    /// expiring.
    fn sweep_deadlines(&mut self, now: Instant) {
        let read_timeout = self.shared.config.read_timeout;
        let write_timeout = self.shared.config.write_timeout;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if !conn.wbuf.is_empty() && now.duration_since(conn.last_write) >= write_timeout {
                // Peer stopped draining responses: nothing can be sent, so
                // no error frame — just drop.
                self.shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                self.close_slot(slot);
                continue;
            }
            let idle = conn.wbuf.is_empty() && conn.pending.is_idle() && !conn.read_closed;
            if idle && conn.doomed && now.duration_since(conn.last_read) >= read_timeout {
                // A rejected peer that read its error frame but never
                // closed: reclaim the slot without further ceremony.
                self.shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                self.close_slot(slot);
                continue;
            }
            if idle && conn.subs.is_empty() && now.duration_since(conn.last_read) >= read_timeout {
                // Idle or stalled mid-frame (slow loris): one TIMEOUT error
                // frame, then close once it flushes. Other connections are
                // untouched — this is a per-connection deadline, not a
                // stall of the loop.
                let stats = &self.shared.stats;
                stats.timeouts.fetch_add(1, Ordering::Relaxed);
                let what = if conn.assembler.mid_frame() {
                    "mid-frame"
                } else {
                    "idle"
                };
                let timeout = Response::Error {
                    code: code::TIMEOUT,
                    message: format!("no progress within {read_timeout:?} ({what})"),
                };
                conn.respond(&timeout, stats, now);
                conn.read_closed = true;
                conn.close_after_flush = true;
                self.settle(slot, now);
            }
        }
    }

    /// Stop reading everywhere; every connection flushes its pending work
    /// and closes at its frame boundary. The listener stays registered so
    /// stragglers get a `SHUTTING_DOWN` frame instead of a hang.
    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline =
            Some(now + self.shared.config.shutdown_grace + self.shared.config.write_timeout);
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.read_closed = true;
                conn.close_after_flush = true;
                self.settle(slot, now);
            }
        }
    }

    fn close_slot(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        #[cfg(unix)]
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let stats = &self.shared.stats;
        if !conn.doomed {
            stats.open_connections.fetch_sub(1, Ordering::Relaxed);
        }
        stats
            .conn_buffer_bytes
            .fetch_sub(conn.acct_bytes, Ordering::Relaxed);
        self.free.push(slot);
        // conn drops here: socket closed. A response still in flight for
        // this conn is discarded by the id check in apply_completions.
    }
}

/// `SUBSCRIBE`: (re)start `template`'s subscription in `subs` at `since`.
fn subscribe(
    subs: &mut Vec<SubState>,
    service: &PqoService,
    template: String,
    since: u64,
) -> Response {
    let current = match service.generation(&template) {
        Ok(current) => current,
        Err(e) => {
            return Response::Error {
                code: error_code(&e),
                message: e.to_string(),
            }
        }
    };
    // A subscriber claiming a generation ahead of us (it outlived a primary
    // restart) restarts from 0 and gets a full snapshot to converge.
    let start = if since <= current { since } else { 0 };
    match subs.iter_mut().find(|s| s.template == template) {
        Some(s) => {
            s.sent = start;
            s.acked = start;
        }
        None => subs.push(SubState {
            template: template.clone(),
            sent: start,
            acked: start,
        }),
    }
    Response::SubscribeOk {
        template,
        generation: current,
    }
}

/// Read what the socket has (up to backpressure), feeding the assembler and
/// queueing decoded frames. A read that does not fill `scratch` drained the
/// socket: the poller is level-triggered, so whatever arrives next — bytes
/// or EOF — is a new readiness, and no `read` is spent on `WouldBlock`.
/// Returns `false` when the connection must close (EOF or hard error).
fn read_into(conn: &mut Conn, scratch: &mut [u8], shared: &Shared) -> bool {
    let cfg = &shared.config;
    loop {
        if conn.wbuf.len() >= cfg.max_conn_buffer || conn.pending.len() >= cfg.max_pending_frames {
            return true; // backpressure: settle() drops read interest
        }
        match conn.stream.read(scratch) {
            Ok(0) => return false,
            Ok(n) => {
                conn.last_read = Instant::now();
                // A rejected connection's input is discarded until EOF.
                if !conn.doomed && !feed(conn, &scratch[..n], shared) {
                    return true;
                }
                if n < scratch.len() {
                    return true;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Reassemble and decode `bytes` into `conn.pending`. Returns `false` once
/// framing is lost (an oversized announcement) and reading must stop.
fn feed(conn: &mut Conn, bytes: &[u8], shared: &Shared) -> bool {
    let stats = &shared.stats;
    let mut frames = Vec::new();
    let fed = conn.assembler.feed(bytes, &mut frames);
    for body in frames {
        stats.frames_served.fetch_add(1, Ordering::Relaxed);
        let decoded = decode_request(&body);
        if decoded.is_err() {
            stats.malformed_frames.fetch_add(1, Ordering::Relaxed);
        }
        conn.pending.push(decoded);
    }
    let Err(too_large) = fed else {
        return true;
    };
    // Answer MALFORMED (after anything already queued), stop reading, close
    // once flushed.
    stats.malformed_frames.fetch_add(1, Ordering::Relaxed);
    conn.pending.push(Err(WireError(format!(
        "frame of {} bytes exceeds limit {}",
        too_large.announced, shared.config.max_frame_bytes
    ))));
    conn.read_closed = true;
    conn.close_after_flush = true;
    false
}

/// Write as much buffered output as the socket accepts. Returns `false`
/// when the connection must close (peer gone).
fn pump_write(conn: &mut Conn, now: Instant) -> bool {
    while !conn.wbuf.is_empty() {
        match conn.stream.write(conn.wbuf.pending()) {
            Ok(0) => return false,
            Ok(n) => {
                conn.wbuf.advance(n);
                conn.last_write = now;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}
