//! The TCP server: configuration, counters, public handles and the serving
//! layer over a shared [`PqoService`] — `GET_PLAN` in its two halves
//! (`serve_local`, `serve_remote`), everything else in `dispatch`. The
//! concurrency substrate lives in the crate-private `event_loop` module.
//!
//! # Concurrency model
//!
//! One event-loop thread owns the nonblocking listener and every accepted
//! socket, registered in a readiness set (the crate-private `poller`:
//! `epoll` on Linux, `poll(2)` on other unix, picked by the platform).
//! Per-connection state machines
//! ([`crate::conn`]) reassemble frames from whatever fragments the socket
//! yields and buffer writebacks. A `GET_PLAN` that the published generation
//! answers — the paper's common case — is served on that thread, where it
//! was decoded: the service's snapshot-published read path takes no lock a
//! writer holds, so the loop cannot be made to wait. What can take long or
//! block goes to a fixed worker pool: a miss (the optimizer call and
//! `manageCache` on a primary; the forward to the primary and the wait for
//! its generation on a replica), batches, `EXPLAIN`, `STATS`, `HELLO`,
//! `SHUTDOWN`. An idle connection therefore costs a
//! poll-set slot and a few hundred buffer bytes instead of a parked OS
//! thread — the axis that lets one server hold 10k+ mostly-idle clients —
//! and the server adds no locks of its own around serving.
//!
//! # Robustness
//!
//! * **Max connections** — an accepted connection beyond the limit
//!   receives one [`code::BUSY`] error frame and is closed.
//! * **Max frame size** — a length prefix above the limit yields a
//!   [`code::MALFORMED`] error frame and closes the connection (framing
//!   cannot be resynchronized after an oversized announcement). A frame
//!   that *parses* as garbage yields `MALFORMED` and the connection
//!   survives.
//! * **Timeouts as deadlines** — a connection that makes no read progress
//!   for `read_timeout` (idle, or stalled mid-frame as a slow loris) is
//!   sent one [`code::TIMEOUT`] error frame and closed, without blocking
//!   any other connection. A peer that stops draining its responses for
//!   `write_timeout` is closed outright.
//! * **Backpressure** — reads pause while a connection's write buffer or
//!   decoded-frame queue is over its bound, so a fast sender cannot
//!   balloon server memory.
//!
//! # Graceful shutdown
//!
//! [`PqoServer::shutdown`] (or a client `SHUTDOWN` frame) sets the flag
//! and wakes the loop. The listener stops admitting work (stragglers get
//! one [`code::SHUTTING_DOWN`] frame), every decoded frame already queued
//! is served and its response flushed, connections close at their frame
//! boundary, the worker pool drains, and — if a snapshot directory is
//! configured — every template's published generation is flushed via
//! [`pqo_core::PqoService::save`] so a restart resumes warm.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pqo_core::persist;
use pqo_core::service::{Cached, MissTicket, PqoService};
use pqo_core::{PlanChoice, PqoError};
use pqo_optimizer::template::QueryInstance;

use crate::client::{ClientError, PqoClient, RemoteChoice};
use crate::event_loop;
use crate::poller::{self, Waker};
use crate::replica;
use crate::wire::{self, code, error_code, Request, Response, WireChoice, WireStats};

/// Server tuning knobs. The defaults suit a loopback or LAN deployment.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest accepted frame body; larger announcements get `MALFORMED`
    /// and the connection is closed.
    pub max_frame_bytes: u32,
    /// Concurrent connection limit; excess connections get one `BUSY`
    /// frame.
    pub max_connections: usize,
    /// Deadline on read progress: a connection that delivers no bytes for
    /// this long (idle or mid-frame) gets a `TIMEOUT` frame and is closed.
    pub read_timeout: Duration,
    /// Deadline on write progress to a peer that stops draining responses.
    pub write_timeout: Duration,
    /// Upper bound on the event loop's sleep, which paces deadline sweeps.
    pub poll_interval: Duration,
    /// Grace period for work already decoded when shutdown begins.
    pub shutdown_grace: Duration,
    /// Flush every template's published snapshot here on graceful shutdown,
    /// to `<dir>/` + [`snapshot_file_name`].
    pub snapshot_dir: Option<PathBuf>,
    /// Fixed worker pool size: the threads that serve what the event loop
    /// does not answer itself (misses, batches, everything but cache hits).
    pub workers: usize,
    /// Per-connection cap on buffered response bytes; reads pause above it.
    pub max_conn_buffer: usize,
    /// Per-connection cap on decoded frames awaiting dispatch; reads pause
    /// above it.
    pub max_pending_frames: usize,
    /// Run as a read replica of the primary at this address: subscribe to
    /// its generation stream, apply pushed generations into the local
    /// published snapshots, serve cache hits locally and forward misses.
    pub replica_of: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame_bytes: wire::DEFAULT_MAX_FRAME_BYTES,
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(50),
            shutdown_grace: Duration::from_millis(500),
            snapshot_dir: None,
            workers: 4,
            max_conn_buffer: 256 * 1024,
            max_pending_frames: 32,
            replica_of: None,
        }
    }
}

/// Point-in-time server counters (see [`PqoServer::stats`]); also the
/// summary returned by [`PqoServer::join`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Connections accepted into the readiness set.
    pub connections_accepted: u64,
    /// Connections turned away with a `BUSY` frame.
    pub connections_rejected_busy: u64,
    /// Frames decoded and dispatched.
    pub frames_served: u64,
    /// Frames handed to the worker pool: everything but subscription
    /// control and the `GET_PLAN`s the event loop answered from the cache.
    pub pool_frames: u64,
    /// Frames answered with `MALFORMED`.
    pub malformed_frames: u64,
    /// Plan decisions served (single + batched instances).
    pub plans_served: u64,
    /// `GET_PLAN_BATCH` frames served.
    pub batch_frames: u64,
    /// Error frames of any code sent.
    pub error_frames: u64,
    /// Snapshots flushed on shutdown.
    pub snapshots_flushed: u64,
    /// Readiness-wait returns taken by the event loop.
    pub poll_wakeups: u64,
    /// Connections closed for missing a read or write deadline.
    pub timeouts: u64,
    /// High-water mark of concurrently open connections.
    pub peak_connections: u64,
    /// Connections currently open (gauge).
    pub open_connections: u64,
    /// Decoded frames currently queued for the worker pool (gauge).
    pub queue_depth: u64,
    /// High-water mark of the worker-queue depth.
    pub peak_queue_depth: u64,
    /// Bytes currently held in per-connection buffers (gauge).
    pub conn_buffer_bytes: u64,
    /// Generation records pushed to subscribers (a primary's counter).
    pub gens_pushed: u64,
    /// Generation records applied from a primary (a replica's counter).
    pub gens_applied: u64,
    /// Replication record bytes pushed to subscribers.
    pub replication_bytes_out: u64,
    /// Replication record bytes applied from a primary.
    pub replication_bytes_in: u64,
}

#[derive(Default)]
pub(crate) struct StatCells {
    pub connections_accepted: AtomicU64,
    pub connections_rejected_busy: AtomicU64,
    pub frames_served: AtomicU64,
    pub pool_frames: AtomicU64,
    pub malformed_frames: AtomicU64,
    pub plans_served: AtomicU64,
    pub batch_frames: AtomicU64,
    pub error_frames: AtomicU64,
    pub snapshots_flushed: AtomicU64,
    pub poll_wakeups: AtomicU64,
    pub timeouts: AtomicU64,
    pub peak_connections: AtomicU64,
    pub open_connections: AtomicU64,
    pub queue_depth: AtomicU64,
    pub peak_queue_depth: AtomicU64,
    pub conn_buffer_bytes: AtomicU64,
    pub gens_pushed: AtomicU64,
    pub gens_applied: AtomicU64,
    pub replication_bytes_out: AtomicU64,
    pub replication_bytes_in: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_rejected_busy: self.connections_rejected_busy.load(Ordering::Relaxed),
            frames_served: self.frames_served.load(Ordering::Relaxed),
            pool_frames: self.pool_frames.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
            plans_served: self.plans_served.load(Ordering::Relaxed),
            batch_frames: self.batch_frames.load(Ordering::Relaxed),
            error_frames: self.error_frames.load(Ordering::Relaxed),
            snapshots_flushed: self.snapshots_flushed.load(Ordering::Relaxed),
            poll_wakeups: self.poll_wakeups.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            conn_buffer_bytes: self.conn_buffer_bytes.load(Ordering::Relaxed),
            gens_pushed: self.gens_pushed.load(Ordering::Relaxed),
            gens_applied: self.gens_applied.load(Ordering::Relaxed),
            replication_bytes_out: self.replication_bytes_out.load(Ordering::Relaxed),
            replication_bytes_in: self.replication_bytes_in.load(Ordering::Relaxed),
        }
    }
}

/// Replica-side shared state: what the subscriber thread has applied, what
/// it knows the primary holds, and the forwarding connection misses ride.
pub(crate) struct ReplicaState {
    /// Address of the primary this server replicates.
    pub primary: String,
    /// Per-template `(applied, primary)` generation pair, under one lock so
    /// lag reads are coherent.
    gens: Mutex<HashMap<String, (u64, u64)>>,
    /// Signalled whenever an `applied` generation advances; serving workers
    /// wait here for a forwarded decision's generation to land locally.
    applied_cv: Condvar,
    /// Lazily (re)connected client carrying forwarded cache misses to the
    /// primary. Serialized: the decision stream is sequential anyway.
    pub forward: Mutex<Option<PqoClient>>,
}

impl ReplicaState {
    pub(crate) fn new(primary: String) -> ReplicaState {
        ReplicaState {
            primary,
            gens: Mutex::new(HashMap::new()),
            applied_cv: Condvar::new(),
            forward: Mutex::new(None),
        }
    }

    /// Record that `template` is locally published at `generation`.
    pub(crate) fn note_applied(&self, template: &str, generation: u64) {
        let mut g = self.gens.lock().expect("replica gens lock");
        let e = g.entry(template.to_string()).or_insert((0, 0));
        e.0 = e.0.max(generation);
        e.1 = e.1.max(generation);
        drop(g);
        self.applied_cv.notify_all();
    }

    /// Record the newest generation the primary is known to hold.
    pub(crate) fn note_primary(&self, template: &str, generation: u64) {
        let mut g = self.gens.lock().expect("replica gens lock");
        let e = g.entry(template.to_string()).or_insert((0, 0));
        e.1 = e.1.max(generation);
    }

    /// Block until `template` has applied at least `generation`; `false` on
    /// timeout (the primary or the subscriber stream is stuck).
    pub(crate) fn wait_applied(&self, template: &str, generation: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.gens.lock().expect("replica gens lock");
        loop {
            if g.get(template)
                .is_some_and(|&(applied, _)| applied >= generation)
            {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .applied_cv
                .wait_timeout(g, deadline - now)
                .expect("replica gens wait");
            g = guard;
        }
    }

    /// Generations the primary holds that this replica has not applied.
    pub(crate) fn lag(&self, template: &str) -> u64 {
        let g = self.gens.lock().expect("replica gens lock");
        g.get(template)
            .map_or(0, |&(applied, primary)| primary.saturating_sub(applied))
    }
}

pub(crate) struct Shared {
    pub service: Arc<PqoService>,
    pub config: ServerConfig,
    pub addr: SocketAddr,
    pub shutdown: AtomicBool,
    pub stats: StatCells,
    /// Wakes the event loop out of its readiness wait (shutdown requests
    /// from other threads, completions from the worker pool).
    pub waker: Waker,
    /// `Some` when this server is a read replica.
    pub replica: Option<ReplicaState>,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Set the shutdown flag and nudge the event loop out of its wait.
    fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }
}

/// A cloneable remote-control for a running [`PqoServer`] (shutdown from
/// another thread, counter snapshots).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin graceful shutdown: stop accepting, drain queued work, flush
    /// snapshots. Idempotent.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Point-in-time server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }
}

/// A running TCP front end over a shared [`PqoService`].
pub struct PqoServer {
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
    subscriber: Option<JoinHandle<()>>,
}

impl PqoServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the event loop plus its worker pool.
    ///
    /// # Errors
    /// Propagates socket errors from bind/local_addr and wakeup-pipe
    /// creation.
    pub fn bind(
        service: Arc<PqoService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<PqoServer> {
        // Best effort: lift the soft fd limit toward the hard limit so a
        // high max_connections is actually reachable.
        let _ = poller::raise_nofile_limit();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let (waker, wake_rx) = poller::wake_pair()?;
        let replica_state = config.replica_of.clone().map(ReplicaState::new);
        let shared = Arc::new(Shared {
            service,
            config,
            addr: local,
            shutdown: AtomicBool::new(false),
            stats: StatCells::default(),
            waker,
            replica: replica_state,
        });
        let loop_shared = Arc::clone(&shared);
        let event_loop = std::thread::Builder::new()
            .name("pqo-event-loop".into())
            .spawn(move || event_loop::run(listener, wake_rx, loop_shared))
            .expect("spawn event-loop thread");
        let subscriber = if shared.replica.is_some() {
            let sub_shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("pqo-subscriber".into())
                    .spawn(move || replica::run(&sub_shared))
                    .expect("spawn subscriber thread"),
            )
        } else {
            None
        };
        Ok(PqoServer {
            shared,
            event_loop: Some(event_loop),
            subscriber,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A cloneable handle for shutdown/stats from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Begin graceful shutdown (non-blocking; pair with [`PqoServer::join`]).
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Point-in-time server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Block until the server has fully shut down (event loop exited,
    /// workers drained, snapshots flushed) and return the final counters.
    pub fn join(mut self) -> ServerStats {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        if let Some(h) = self.subscriber.take() {
            let _ = h.join();
        }
        self.shared.stats.snapshot()
    }
}

impl Drop for PqoServer {
    fn drop(&mut self) {
        // A dropped server must not leak its event loop; trigger and
        // detach (join() is the orderly path).
        if self.event_loop.is_some() {
            self.shared.trigger_shutdown();
        }
    }
}

/// Flush every template's published generation on graceful shutdown. A
/// snapshot that cannot be written leaves the previous file in place and is
/// reported on stderr.
pub(crate) fn flush_snapshots(shared: &Shared) {
    let Some(dir) = &shared.config.snapshot_dir else {
        return;
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("snapshot dir {}: {e}", dir.display());
        return;
    }
    for name in shared.service.templates() {
        let path = dir.join(snapshot_file_name(&name));
        let flushed = shared.service.snapshot(&name).map_err(|e| e.to_string());
        let flushed = flushed.and_then(|snapshot| {
            persist::save_file(&snapshot, snapshot.generation(), &path).map_err(|e| e.to_string())
        });
        match flushed {
            Ok(()) => {
                shared
                    .stats
                    .snapshots_flushed
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!("snapshot of {name} not flushed to {}: {e}", path.display()),
        }
    }
}

/// The file a template's snapshot is flushed to and restored from, inside
/// a snapshot directory. A name made only of `[A-Za-z0-9_-]` (every corpus
/// id) keeps itself: `<name>.pqo-cache`. Any other name — a
/// `--templates-dir` stem such as `orders.v2`, or one with a path separator
/// in it — is `~` and its bytes in lowercase hex. No plain name contains
/// `~` and hex decodes to one name, so no two templates share a file.
pub fn snapshot_file_name(name: &str) -> String {
    let plain = name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if plain {
        return format!("{name}.pqo-cache");
    }
    let mut file = String::from("~");
    for b in name.bytes() {
        let _ = write!(file, "{b:02x}");
    }
    file + ".pqo-cache"
}

pub(crate) fn dispatch(req: Request, shared: &Shared) -> Response {
    match req {
        Request::Hello { version } => {
            if version != wire::PROTOCOL_VERSION {
                Response::Error {
                    code: code::UNSUPPORTED_VERSION,
                    message: format!(
                        "client speaks protocol {version}, server speaks {}",
                        wire::PROTOCOL_VERSION
                    ),
                }
            } else {
                Response::HelloOk {
                    version: wire::PROTOCOL_VERSION,
                    templates: shared.service.templates(),
                }
            }
        }
        // The event loop answers `GET_PLAN` itself and sends the pool only
        // the miss ([`serve_remote`]); the arm keeps dispatch total.
        Request::GetPlan { template, values } => plan_response(
            shared,
            serve_one(shared, &template, QueryInstance::new(values)),
        ),
        Request::GetPlanBatch {
            template,
            instances,
        } => match serve_batch(shared, &template, instances) {
            Ok(choices) => {
                shared.stats.batch_frames.fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .plans_served
                    .fetch_add(choices.len() as u64, Ordering::Relaxed);
                Response::PlanBatch(choices)
            }
            Err(resp) => resp,
        },
        Request::Stats { template } => match gather_stats(shared, &template) {
            Ok(stats) => Response::Stats(stats),
            Err(e) => pqo_error_frame(&e),
        },
        Request::Shutdown => Response::ShutdownOk,
        Request::Explain {
            template,
            values,
            dialect_tag,
        } => match explain_one(shared, &template, values, dialect_tag) {
            Ok(resp) => {
                shared.stats.plans_served.fetch_add(1, Ordering::Relaxed);
                resp
            }
            Err(resp) => resp,
        },
        // Subscription control frames are handled inline by the event loop
        // (they mutate per-connection state the worker pool cannot see);
        // reaching dispatch means a logic error, answered defensively.
        Request::Subscribe { .. } | Request::GenAck { .. } => Response::Error {
            code: code::MALFORMED,
            message: "subscription frames are handled by the event loop".into(),
        },
    }
}

fn pqo_error_frame(e: &PqoError) -> Response {
    Response::Error {
        code: error_code(e),
        message: e.to_string(),
    }
}

/// A `GET_PLAN` the local cache could not answer, on its way to the pool.
pub(crate) struct PlanMiss {
    template: String,
    inst: QueryInstance,
    ticket: MissTicket,
}

/// What the local half of serving one instance came to: the answer (a
/// cache hit, or the refusal of an instance that fits no template), or the
/// miss the remote half finishes.
pub(crate) enum Local {
    Served(Result<WireChoice, Response>),
    Miss(PlanMiss),
}

fn wire_choice(choice: &PlanChoice, generation: u64) -> WireChoice {
    WireChoice {
        fingerprint: choice.plan.fingerprint().0,
        optimized: choice.optimized,
        generation,
    }
}

/// The local half of serving one instance, primary and replica alike: the
/// selectivity and cost checks against the published (on a replica: the
/// applied) generation. Bounded — one decide — and waiting on nothing a
/// writer holds, so the event loop runs it on its own thread; it never
/// calls the optimizer, takes the writer mutex or touches the network.
pub(crate) fn serve_local(shared: &Shared, template: &str, inst: QueryInstance) -> Local {
    match shared.service.serve_cached(template, &inst) {
        Ok(Cached::Hit { choice, generation }) => {
            Local::Served(Ok(wire_choice(&choice, generation)))
        }
        Ok(Cached::Miss(ticket)) => Local::Miss(PlanMiss {
            template: template.to_string(),
            inst,
            ticket,
        }),
        Err(e) => Local::Served(Err(pqo_error_frame(&e))),
    }
}

/// The remote half, on a pool worker — everything that can block. A
/// primary resumes the ticket: the optimizer call and `manageCache`, the
/// instance decided again only if a publication landed since the loop
/// decided it. A replica forwards to the primary (whose optimizer is the
/// single decision authority) and holds the reply until the generation the
/// primary's decision produced has been applied here — so the *next*
/// instance of this sequential stream observes it, keeping the replica's
/// decision stream byte-identical to the primary's at a generation lag of
/// at most one.
#[allow(clippy::result_large_err)]
pub(crate) fn serve_remote(shared: &Shared, miss: PlanMiss) -> Result<WireChoice, Response> {
    let PlanMiss {
        template,
        inst,
        ticket,
    } = miss;
    let Some(rep) = &shared.replica else {
        let (choice, generation) = shared.service.resume(ticket);
        return Ok(wire_choice(&choice, generation));
    };
    let remote = forward_to_primary(shared, rep, |c| c.get_plan(&template, &inst.values))?;
    relay(shared, rep, &template, remote)
}

/// Hold a decision the primary made for a forwarded miss until the
/// generation it produced has been applied here, then answer with it.
#[allow(clippy::result_large_err)]
fn relay(
    shared: &Shared,
    rep: &ReplicaState,
    template: &str,
    remote: RemoteChoice,
) -> Result<WireChoice, Response> {
    rep.note_primary(template, remote.generation);
    if !rep.wait_applied(template, remote.generation, shared.config.read_timeout) {
        return Err(Response::Error {
            code: code::PRIMARY_UNREACHABLE,
            message: format!(
                "generation {} from primary {} not applied within {:?}",
                remote.generation, rep.primary, shared.config.read_timeout
            ),
        });
    }
    Ok(WireChoice {
        fingerprint: remote.fingerprint.0,
        optimized: remote.optimized,
        generation: remote.generation,
    })
}

/// Both halves on one thread: how a worker serves the instances of a
/// replica's batch.
#[allow(clippy::result_large_err)]
fn serve_one(shared: &Shared, template: &str, inst: QueryInstance) -> Result<WireChoice, Response> {
    match serve_local(shared, template, inst) {
        Local::Served(served) => served,
        Local::Miss(miss) => serve_remote(shared, miss),
    }
}

/// The frame that answers one served instance, counted.
pub(crate) fn plan_response(shared: &Shared, served: Result<WireChoice, Response>) -> Response {
    match served {
        Ok(choice) => {
            shared.stats.plans_served.fetch_add(1, Ordering::Relaxed);
            Response::Plan(choice)
        }
        Err(error) => error,
    }
}

#[allow(clippy::result_large_err)]
fn serve_batch(
    shared: &Shared,
    template: &str,
    instances: Vec<Vec<f64>>,
) -> Result<Vec<WireChoice>, Response> {
    let insts: Vec<QueryInstance> = instances.into_iter().map(QueryInstance::new).collect();
    if shared.replica.is_some() {
        // A replica serves a batch as the sequential stream it is: each
        // instance sees every earlier instance's applied generation — so
        // an instance the service refuses ends the batch with an error
        // frame after the ones before it were served.
        return insts
            .into_iter()
            .map(|inst| serve_one(shared, template, inst))
            .collect();
    }
    let (choices, generation) = shared
        .service
        .get_plan_batch_with_generation(template, &insts)
        .map_err(|e| pqo_error_frame(&e))?;
    Ok(choices.iter().map(|c| wire_choice(c, generation)).collect())
}

/// Serve one instance and render the plan it is served as
/// dialect-specific hinted SQL (values inlined as literals). The instance
/// is decided once: a hit renders its own plan, a primary's miss resumes
/// and renders the plan the decision chose, and a replica's miss forwards
/// the `EXPLAIN` itself — the primary renders the plan it decided — then
/// holds the reply as a forwarded `GET_PLAN` is held.
#[allow(clippy::result_large_err)]
fn explain_one(
    shared: &Shared,
    template: &str,
    values: Vec<f64>,
    dialect_tag: u8,
) -> Result<Response, Response> {
    let Some(dialect) = pqo_sql::DialectKind::from_tag(dialect_tag) else {
        return Err(Response::Error {
            code: code::MALFORMED,
            message: format!("unknown dialect tag {dialect_tag} (0=postgres, 1=mysql, 2=duckdb)"),
        });
    };
    let inst = QueryInstance::new(values);
    let t = shared
        .service
        .template(template)
        .map_err(|e| pqo_error_frame(&e))?;
    let cached = shared
        .service
        .serve_cached(template, &inst)
        .map_err(|e| pqo_error_frame(&e))?;
    let (choice, generation) = match (cached, &shared.replica) {
        (Cached::Hit { choice, generation }, _) => (choice, generation),
        (Cached::Miss(ticket), None) => shared.service.resume(ticket),
        (Cached::Miss(_), Some(rep)) => {
            let remote = forward_to_primary(shared, rep, |c| {
                c.explain(template, &inst.values, dialect_tag)
            })?;
            let choice = relay(shared, rep, template, remote.choice)?;
            return Ok(Response::ExplainOk {
                choice,
                sql: remote.sql,
            });
        }
    };
    let sql = pqo_sql::emit::render(&t, &choice.plan, dialect, Some(&inst.values));
    Ok(Response::ExplainOk {
        choice: wire_choice(&choice, generation),
        sql,
    })
}

/// Make one call to the primary over the replica's lazily (re)connected
/// forwarding client. Any transport failure drops the connection so the
/// next miss redials.
#[allow(clippy::result_large_err)]
fn forward_to_primary<T>(
    shared: &Shared,
    rep: &ReplicaState,
    call: impl FnOnce(&mut PqoClient) -> Result<T, ClientError>,
) -> Result<T, Response> {
    let mut guard = rep.forward.lock().expect("forward lock");
    if guard.is_none() {
        match PqoClient::connect_with_timeout(&rep.primary, shared.config.read_timeout) {
            Ok(c) => *guard = Some(c),
            Err(e) => {
                return Err(Response::Error {
                    code: code::PRIMARY_UNREACHABLE,
                    message: format!("cannot reach primary {}: {e}", rep.primary),
                })
            }
        }
    }
    let client = guard.as_mut().expect("connected above");
    match call(client) {
        Ok(answer) => Ok(answer),
        Err(ClientError::Server { code, message }) => {
            // The primary answered; relay its typed error verbatim.
            Err(Response::Error { code, message })
        }
        Err(e) => {
            *guard = None;
            Err(Response::Error {
                code: code::PRIMARY_UNREACHABLE,
                message: format!("forwarding to primary {} failed: {e}", rep.primary),
            })
        }
    }
}

fn gather_stats(shared: &Shared, template: &str) -> Result<WireStats, PqoError> {
    let snapshot = shared.service.snapshot(template)?;
    let s = snapshot.stats();
    let srv = &shared.stats;
    let generation = snapshot.generation();
    let replica_lag = shared.replica.as_ref().map_or(0, |r| r.lag(template));
    Ok(WireStats {
        num_plans: snapshot.cache().num_plans() as u64,
        num_instances: snapshot.cache().num_instances() as u64,
        total_plans: shared.service.total_plans() as u64,
        selectivity_hits: s.selectivity_hits,
        cost_hits: s.cost_hits,
        optimizer_calls: s.optimizer_calls,
        getplan_recost_calls: s.getplan_recost_calls,
        recost_nanos: s.recost_nanos,
        optimize_nanos: s.optimize_nanos,
        snapshot_reloads: s.snapshot_reloads,
        batches_served: s.batches_served,
        batch_instances: s.batch_instances,
        max_batch_size: s.max_batch_size,
        open_connections: srv.open_connections.load(Ordering::Relaxed),
        peak_connections: srv.peak_connections.load(Ordering::Relaxed),
        conn_buffer_bytes: srv.conn_buffer_bytes.load(Ordering::Relaxed),
        queue_depth: srv.queue_depth.load(Ordering::Relaxed),
        peak_queue_depth: srv.peak_queue_depth.load(Ordering::Relaxed),
        workers: shared.config.workers as u64,
        index_shard_rebuilds: s.index_shard_rebuilds,
        index_points_rebuilt: s.index_points_rebuilt,
        publishes: s.publishes,
        publish_nanos: s.publish_nanos,
        generation,
        replica_lag,
        gens_pushed: srv.gens_pushed.load(Ordering::Relaxed),
        gens_applied: srv.gens_applied.load(Ordering::Relaxed),
        replication_bytes_out: srv.replication_bytes_out.load(Ordering::Relaxed),
        replication_bytes_in: srv.replication_bytes_in.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::snapshot_file_name;

    #[test]
    fn snapshot_file_names_are_injective_and_keep_plain_names() {
        assert_eq!(
            snapshot_file_name("tpch_skew_A_d2"),
            "tpch_skew_A_d2.pqo-cache"
        );
        assert_eq!(snapshot_file_name("a-b_C9"), "a-b_C9.pqo-cache");
        assert_eq!(snapshot_file_name("a.b"), "~612e62.pqo-cache");
        assert_eq!(snapshot_file_name("../x"), "~2e2e2f78.pqo-cache");
        let names = ["a_b", "a.b", "a b", "a/b", "~612e62", "612e62", "é", ""];
        let files: std::collections::HashSet<String> =
            names.iter().map(|n| snapshot_file_name(n)).collect();
        assert_eq!(files.len(), names.len(), "{files:?}");
        assert!(files.iter().all(|f| !f.contains('/')));
    }
}
