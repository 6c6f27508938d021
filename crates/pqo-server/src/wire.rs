//! The binary wire protocol: framing, opcodes, error codes and the pure
//! encode/decode layer (no I/O beyond length-prefixed frame helpers).
//!
//! # Framing
//!
//! Every message — in either direction — is one *frame*:
//!
//! ```text
//! ┌────────────┬──────────┬───────────────────────────────┐
//! │ len: u32 LE│ op: u8   │ payload (len − 1 bytes)       │
//! └────────────┴──────────┴───────────────────────────────┘
//! ```
//!
//! `len` counts the body (opcode + payload), little-endian like every other
//! integer on the wire. Strings are `u16` length + UTF-8 bytes; selectivity
//! parameter vectors are `u16` count + IEEE-754 `f64` LE values. The
//! protocol is versioned through the `HELLO` handshake: a client opens with
//! `HELLO{version}` and the server answers `HELLO_OK` only for versions it
//! speaks, so framing changes bump [`PROTOCOL_VERSION`] instead of silently
//! corrupting streams.
//!
//! # Robustness contract
//!
//! [`decode_request`] / [`decode_response`] never panic, whatever bytes they
//! are fed: every read is bounds-checked, counts are validated against the
//! remaining payload before any allocation, and trailing garbage is an
//! error. A decode failure maps to an [`code::MALFORMED`] error frame and
//! the connection survives (asserted by the seeded fuzz tests below).

use std::io::{self, IoSlice, Read, Write};

use pqo_optimizer::error::PqoError;

/// Wire protocol version, carried in the `HELLO` handshake.
///
/// v2: `STATS_OK` grew six server-wide fields (connection / queue-depth /
/// buffer gauges) and the [`code::TIMEOUT`] error code was published.
///
/// v3: `STATS_OK` grew four publication-cost fields (spatial-index shard
/// rebuilds, points rebuilt, snapshot publishes, publish nanos).
///
/// v4: replication. `PLAN`/`PLAN_BATCH` decisions carry the generation
/// they are valid at; `SUBSCRIBE`/`SUBSCRIBE_OK`/`SNAPSHOT_PUSH`/`GEN_ACK`
/// stream generation records to read replicas; `STATS_OK` grew six
/// replication fields (generation, lag, push/apply counts, bytes); the
/// [`code::PRIMARY_UNREACHABLE`] error code was published.
///
/// v5: the policy layer. `STATS_OK` grew three policy fields (the serving
/// [`pqo_core::PolicyId`] tag plus the policy-specific hit/reject decision
/// counters); replication records carry a policy tag (layout `PQG2`); the
/// [`code::POLICY_MISMATCH`] error code was published.
///
/// v6: the SQL frontend. `EXPLAIN`/`EXPLAIN_OK` serve one instance and
/// return the chosen cached plan rendered as dialect-specific hinted SQL
/// (the dialect is named by a `u8` tag: 0 = postgres, 1 = mysql,
/// 2 = duckdb) alongside the usual plan decision.
pub const PROTOCOL_VERSION: u16 = 6;

/// Default upper bound on one frame's body, enforced by server and client.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 1 << 20;

/// Frame-size bound for replication subscriber connections: a full
/// generation record embeds an entire snapshot, so subscribers read with a
/// far larger cap than the request/response default.
pub const REPLICATION_MAX_FRAME_BYTES: u32 = 64 << 20;

/// Frame opcodes. Requests use the low range, responses set the high bit.
pub mod opcode {
    /// Client → server: version handshake.
    pub const HELLO: u8 = 0x01;
    /// Client → server: one instance of one template.
    pub const GET_PLAN: u8 = 0x02;
    /// Client → server: a batch of instances of one template.
    pub const GET_PLAN_BATCH: u8 = 0x03;
    /// Client → server: counters for one template.
    pub const STATS: u8 = 0x04;
    /// Client → server: graceful server shutdown (drain + flush).
    pub const SHUTDOWN: u8 = 0x05;
    /// Client → server: subscribe this connection to one template's
    /// generation stream, starting after a given generation.
    pub const SUBSCRIBE: u8 = 0x06;
    /// Client → server: acknowledge an applied pushed generation,
    /// releasing the next push for that subscription.
    pub const GEN_ACK: u8 = 0x07;
    /// Client → server: serve one instance and render the chosen plan as
    /// dialect-specific hinted SQL.
    pub const EXPLAIN: u8 = 0x08;

    /// Server → client: handshake accepted.
    pub const HELLO_OK: u8 = 0x81;
    /// Server → client: one plan decision.
    pub const PLAN: u8 = 0x82;
    /// Server → client: per-instance plan decisions for a batch.
    pub const PLAN_BATCH: u8 = 0x83;
    /// Server → client: counter snapshot.
    pub const STATS_OK: u8 = 0x84;
    /// Server → client: shutdown acknowledged.
    pub const SHUTDOWN_OK: u8 = 0x85;
    /// Server → client: subscription accepted; reports the template's
    /// current generation.
    pub const SUBSCRIBE_OK: u8 = 0x86;
    /// Server → client: one generation record pushed to a subscriber.
    pub const SNAPSHOT_PUSH: u8 = 0x87;
    /// Server → client: plan decision plus rendered hinted SQL.
    pub const EXPLAIN_OK: u8 = 0x88;
    /// Server → client: typed error frame.
    pub const ERROR: u8 = 0xEE;
}

/// Stable wire error codes. These are a compatibility surface: once
/// published, a code never changes meaning (pinned by
/// `error_codes_are_pinned` below).
pub mod code {
    /// The frame could not be decoded (bad opcode, truncated payload,
    /// trailing bytes, invalid instance arity/values, oversized frame).
    pub const MALFORMED: u16 = 1;
    /// The server is at its connection limit; retry later.
    pub const BUSY: u16 = 2;
    /// The client's `HELLO` named a protocol version the server does not
    /// speak.
    pub const UNSUPPORTED_VERSION: u16 = 3;
    /// The server is draining for shutdown and no longer accepts work.
    pub const SHUTTING_DOWN: u16 = 4;
    /// The connection sat past its read deadline (idle, or mid-frame as a
    /// slow-loris) and is being closed.
    pub const TIMEOUT: u16 = 5;

    /// [`PqoError::UnknownTemplate`](super::PqoError::UnknownTemplate).
    pub const UNKNOWN_TEMPLATE: u16 = 16;
    /// [`PqoError::DuplicateTemplate`](super::PqoError::DuplicateTemplate).
    pub const DUPLICATE_TEMPLATE: u16 = 17;
    /// [`PqoError::InvalidLambda`](super::PqoError::InvalidLambda).
    pub const INVALID_LAMBDA: u16 = 18;
    /// [`PqoError::InvalidBudget`](super::PqoError::InvalidBudget).
    pub const INVALID_BUDGET: u16 = 19;
    /// [`PqoError::InvalidTemplate`](super::PqoError::InvalidTemplate).
    pub const INVALID_TEMPLATE: u16 = 20;
    /// [`PqoError::Persist`](super::PqoError::Persist).
    pub const PERSIST: u16 = 21;
    /// A replica could not forward a cache miss to its primary (or timed
    /// out waiting for the resulting generation to replicate).
    pub const PRIMARY_UNREACHABLE: u16 = 22;
    /// [`PqoError::PolicyMismatch`](super::PqoError::PolicyMismatch): a snapshot or replication stream was
    /// produced under a different serving policy than this service runs.
    pub const POLICY_MISMATCH: u16 = 23;
    /// A [`PqoError`](super::PqoError) variant this protocol version does not know
    /// (`PqoError` is `#[non_exhaustive]`).
    pub const INTERNAL: u16 = 31;
}

/// The stable error code for a [`PqoError`] variant. Every variant maps to
/// its own code so clients can match on semantics without parsing messages
/// — except [`PqoError::InvalidInstance`], which is what
/// [`code::MALFORMED`] has always meant for a frame that parses but does
/// not carry an instance of its template; variants added after this
/// protocol version fall back to [`code::INTERNAL`].
pub fn error_code(e: &PqoError) -> u16 {
    match e {
        PqoError::UnknownTemplate { .. } => code::UNKNOWN_TEMPLATE,
        PqoError::DuplicateTemplate { .. } => code::DUPLICATE_TEMPLATE,
        PqoError::InvalidLambda { .. } => code::INVALID_LAMBDA,
        PqoError::InvalidBudget { .. } => code::INVALID_BUDGET,
        PqoError::InvalidTemplate { .. } => code::INVALID_TEMPLATE,
        PqoError::Persist { .. } => code::PERSIST,
        PqoError::PolicyMismatch { .. } => code::POLICY_MISMATCH,
        // Wrong arity or a non-finite value: the frame parsed, but what it
        // carries is not an instance of the template.
        PqoError::InvalidInstance { .. } => code::MALFORMED,
        _ => code::INTERNAL,
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake; must be the first frame on a connection.
    Hello {
        /// The protocol version the client speaks.
        version: u16,
    },
    /// Serve one instance.
    GetPlan {
        /// Registered template name.
        template: String,
        /// Raw parameter values (`template.dimensions()` of them).
        values: Vec<f64>,
    },
    /// Serve a batch of instances through one snapshot load.
    GetPlanBatch {
        /// Registered template name.
        template: String,
        /// Per-instance parameter values.
        instances: Vec<Vec<f64>>,
    },
    /// Fetch the template's counter snapshot.
    Stats {
        /// Registered template name.
        template: String,
    },
    /// Drain connections, flush snapshots and stop the server.
    Shutdown,
    /// Subscribe this connection to one template's generation stream.
    Subscribe {
        /// Registered template name.
        template: String,
        /// The generation the subscriber already holds (0 for a cold
        /// start); the server pushes everything after it, as a delta when
        /// that base is still in its generation log.
        since: u64,
    },
    /// Acknowledge that a pushed generation was applied; the server keeps
    /// at most one unacknowledged push in flight per subscription.
    GenAck {
        /// Registered template name.
        template: String,
        /// The generation now applied on the subscriber.
        generation: u64,
    },
    /// Serve one instance and return the chosen plan rendered as hinted
    /// SQL in the named dialect (values inlined as literals).
    Explain {
        /// Registered template name.
        template: String,
        /// Raw parameter values (`template.dimensions()` of them).
        values: Vec<f64>,
        /// Dialect tag: 0 = postgres, 1 = mysql, 2 = duckdb
        /// (`pqo_sql::DialectKind::as_tag`).
        dialect_tag: u8,
    },
}

/// One plan decision as it crosses the wire: the plan's stable fingerprint,
/// whether this instance forced an optimizer call, and the generation the
/// decision is valid at (a replica that has applied at least this
/// generation holds every cache entry the decision depends on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireChoice {
    /// [`pqo_optimizer::plan::PlanFingerprint`] bits of the served plan.
    pub fingerprint: u64,
    /// Whether a full optimizer call was made for this instance.
    pub optimized: bool,
    /// Generation stamp this decision is valid at.
    pub generation: u64,
}

/// Defines [`WireStats`], [`STATS_FIELD_NAMES`] and the wire-order
/// conversions from ONE field list, so the encoder, the decoder and every
/// consumer (CLI printer, tests) iterate the same table and cannot drift.
/// Before v4 the field count was pinned by hand in three crates; now
/// appending a field here is the whole change (plus the protocol-version
/// bump asserted by `stats_layout_is_pinned_to_protocol_version`).
macro_rules! wire_stats {
    ($($(#[$meta:meta])* $name:ident,)+) => {
        /// Counter snapshot returned by the `STATS` opcode: the template's
        /// [`pqo_core::scr::ScrStats`] (including the batched-serving
        /// counters) plus cache sizes, the service-wide plan total and the
        /// replication gauges. Field order on the wire is declaration
        /// order; [`STATS_FIELD_NAMES`] is generated from the same list.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct WireStats {
            $($(#[$meta])* pub $name: u64,)+
        }

        /// The `STATS_OK` field names in wire order — the single source of
        /// truth for the payload layout.
        pub const STATS_FIELD_NAMES: &[&str] = &[$(stringify!($name)),+];

        /// Number of `u64` fields in a `STATS_OK` payload.
        pub const STATS_FIELD_COUNT: usize = STATS_FIELD_NAMES.len();

        impl WireStats {
            /// Field values in wire order, parallel to
            /// [`STATS_FIELD_NAMES`].
            pub fn to_fields(&self) -> [u64; STATS_FIELD_COUNT] {
                [$(self.$name),+]
            }

            /// Rebuild from field values in wire order.
            pub fn from_fields(fields: [u64; STATS_FIELD_COUNT]) -> WireStats {
                let mut it = fields.into_iter();
                WireStats {
                    $($name: it.next().expect("field table length"),)+
                }
            }

            /// `(name, value)` pairs in wire order — what the CLI stats
            /// printer iterates.
            pub fn named_fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                STATS_FIELD_NAMES.iter().copied().zip(self.to_fields())
            }
        }
    };
}

wire_stats! {
    /// Plans cached for this template.
    num_plans,
    /// Instance entries cached for this template.
    num_instances,
    /// Plans cached across *all* templates of the service.
    total_plans,
    /// Instances served by the selectivity check.
    selectivity_hits,
    /// Instances served by the cost check.
    cost_hits,
    /// Instances that required an optimizer call.
    optimizer_calls,
    /// Total Recost calls issued from `getPlan`.
    getplan_recost_calls,
    /// Cumulative nanoseconds spent in Recost work.
    recost_nanos,
    /// Cumulative nanoseconds spent inside optimizer calls.
    optimize_nanos,
    /// Published-generation re-loads taken by batched serving.
    snapshot_reloads,
    /// Batched frames served.
    batches_served,
    /// Instances that arrived through the batched path.
    batch_instances,
    /// Largest single batch served.
    max_batch_size,
    /// Connections currently open on the server (gauge).
    open_connections,
    /// High-water mark of concurrently open connections.
    peak_connections,
    /// Bytes currently held in per-connection read/write buffers (gauge).
    conn_buffer_bytes,
    /// Decoded frames currently queued for the worker pool (gauge).
    queue_depth,
    /// High-water mark of the worker queue depth.
    peak_queue_depth,
    /// Size of the server's worker pool.
    workers,
    /// Coordinate blocks this template's writer copied: tail blocks copied
    /// on write, blocks rebuilt by a compaction (the field predates the
    /// block store; its name and position are the v3 layout's).
    index_shard_rebuilds,
    /// Total rows copied with those blocks.
    index_points_rebuilt,
    /// Snapshot generations published by this template's writer.
    publishes,
    /// Cumulative nanoseconds spent capturing + installing generations.
    publish_nanos,
    /// This template's current published generation stamp.
    generation,
    /// Generations the primary has pushed but this server has not applied
    /// (0 on a primary; on a replica, bounded by the one-in-flight push).
    replica_lag,
    /// Generation records pushed to subscribers (server-wide).
    gens_pushed,
    /// Generation records applied from a primary (server-wide).
    gens_applied,
    /// Replication record bytes pushed to subscribers (server-wide).
    replication_bytes_out,
    /// Replication record bytes applied from a primary (server-wide).
    replication_bytes_in,
    /// The [`pqo_core::PolicyId`] tag the service serves under (0 = SCR,
    /// 1 = LEC, 2 = penalty).
    policy_id,
    /// Instances served by a non-SCR policy's decide step.
    policy_hits,
    /// Policy gate rejections that fell through to the optimizer.
    policy_rejects,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The protocol version the server will speak on this connection.
        version: u16,
        /// Registered template names, sorted.
        templates: Vec<String>,
    },
    /// Decision for one `GET_PLAN`.
    Plan(WireChoice),
    /// Per-instance decisions for one `GET_PLAN_BATCH`, in request order.
    PlanBatch(Vec<WireChoice>),
    /// Counter snapshot for one `STATS`.
    Stats(WireStats),
    /// Shutdown acknowledged; the server drains and exits.
    ShutdownOk,
    /// Subscription accepted for one template.
    SubscribeOk {
        /// The subscribed template.
        template: String,
        /// The template's current generation on the server (the subscriber
        /// is up to date once it has applied this).
        generation: u64,
    },
    /// Plan decision plus rendered hinted SQL for one `EXPLAIN`.
    ExplainOk {
        /// The served decision (same layout as a `PLAN` choice).
        choice: WireChoice,
        /// The chosen plan rendered as dialect-specific hinted SQL.
        sql: String,
    },
    /// One generation record pushed to a subscriber.
    SnapshotPush {
        /// The template this record belongs to.
        template: String,
        /// The generation applying this record produces (also stamped
        /// inside the record; duplicated here so acknowledgement
        /// bookkeeping never needs to parse the record).
        generation: u64,
        /// A [`pqo_core::replication`] generation record.
        record: Vec<u8>,
    },
    /// Typed error: a stable [`code`] plus a human-readable message.
    Error {
        /// Stable wire error code.
        code: u16,
        /// Human-readable cause.
        message: String,
    },
}

/// A decode failure (the frame was malformed). Never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn malformed(what: impl Into<String>) -> WireError {
    WireError(what.into())
}

// ---------------------------------------------------------------- encoding

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "wire string too long");
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn put_values(out: &mut Vec<u8>, values: &[f64]) {
    debug_assert!(
        values.len() <= u16::MAX as usize,
        "instance arity too large"
    );
    put_u16(out, values.len() as u16);
    for &v in values {
        put_f64(out, v);
    }
}

/// Encode a request body (opcode + payload; no length prefix).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    out.clear();
    match req {
        Request::Hello { version } => {
            out.push(opcode::HELLO);
            put_u16(out, *version);
        }
        Request::GetPlan { template, values } => {
            out.push(opcode::GET_PLAN);
            put_str(out, template);
            put_values(out, values);
        }
        Request::GetPlanBatch {
            template,
            instances,
        } => {
            out.push(opcode::GET_PLAN_BATCH);
            put_str(out, template);
            put_u32(out, instances.len() as u32);
            for inst in instances {
                put_values(out, inst);
            }
        }
        Request::Stats { template } => {
            out.push(opcode::STATS);
            put_str(out, template);
        }
        Request::Shutdown => out.push(opcode::SHUTDOWN),
        Request::Subscribe { template, since } => {
            out.push(opcode::SUBSCRIBE);
            put_str(out, template);
            put_u64(out, *since);
        }
        Request::GenAck {
            template,
            generation,
        } => {
            out.push(opcode::GEN_ACK);
            put_str(out, template);
            put_u64(out, *generation);
        }
        Request::Explain {
            template,
            values,
            dialect_tag,
        } => {
            out.push(opcode::EXPLAIN);
            put_str(out, template);
            put_values(out, values);
            out.push(*dialect_tag);
        }
    }
}

/// Encode a response body (opcode + payload; no length prefix).
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    out.clear();
    append_response(resp, out);
}

/// [`encode_response`] onto the end of `out` (what
/// [`crate::conn::WriteBuf::push_response`] encodes in place with).
pub(crate) fn append_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::HelloOk { version, templates } => {
            out.push(opcode::HELLO_OK);
            put_u16(out, *version);
            put_u16(out, templates.len() as u16);
            for t in templates {
                put_str(out, t);
            }
        }
        Response::Plan(choice) => {
            out.push(opcode::PLAN);
            put_choice(out, choice);
        }
        Response::PlanBatch(choices) => {
            out.push(opcode::PLAN_BATCH);
            put_u32(out, choices.len() as u32);
            for c in choices {
                put_choice(out, c);
            }
        }
        Response::Stats(s) => {
            out.push(opcode::STATS_OK);
            for v in s.to_fields() {
                put_u64(out, v);
            }
        }
        Response::ShutdownOk => out.push(opcode::SHUTDOWN_OK),
        Response::ExplainOk { choice, sql } => {
            out.push(opcode::EXPLAIN_OK);
            put_choice(out, choice);
            put_str(out, sql);
        }
        Response::SubscribeOk {
            template,
            generation,
        } => {
            out.push(opcode::SUBSCRIBE_OK);
            put_str(out, template);
            put_u64(out, *generation);
        }
        Response::SnapshotPush {
            template,
            generation,
            record,
        } => {
            out.push(opcode::SNAPSHOT_PUSH);
            put_str(out, template);
            put_u64(out, *generation);
            out.extend_from_slice(record);
        }
        Response::Error { code, message } => {
            out.push(opcode::ERROR);
            put_u16(out, *code);
            put_str(out, message);
        }
    }
}

fn put_choice(out: &mut Vec<u8>, c: &WireChoice) {
    put_u64(out, c.fingerprint);
    out.push(u8::from(c.optimized));
    put_u64(out, c.generation);
}

// ---------------------------------------------------------------- decoding

/// Bounds-checked reader over one frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(malformed(format!(
                "need {n} bytes at offset {}, frame has {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| malformed(format!("string is not UTF-8: {e}")))
    }

    fn values(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.u16()? as usize;
        // Validate the count against the payload actually present before
        // allocating, so a hostile count cannot balloon memory.
        if self.remaining() < n * 8 {
            return Err(malformed(format!(
                "value count {n} exceeds remaining payload"
            )));
        }
        (0..n).map(|_| self.f64()).collect()
    }

    /// Everything left in the frame (length-delimited by the framing
    /// itself, e.g. a pushed generation record).
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn finish<T>(self, v: T) -> Result<T, WireError> {
        if self.remaining() != 0 {
            return Err(malformed(format!(
                "{} trailing bytes after message",
                self.remaining()
            )));
        }
        Ok(v)
    }
}

/// Decode a request body. Never panics; any malformed input is an error.
pub fn decode_request(body: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(body);
    let op = c.u8().map_err(|_| malformed("empty frame"))?;
    match op {
        opcode::HELLO => {
            let version = c.u16()?;
            c.finish(Request::Hello { version })
        }
        opcode::GET_PLAN => {
            let template = c.str()?;
            let values = c.values()?;
            c.finish(Request::GetPlan { template, values })
        }
        opcode::GET_PLAN_BATCH => {
            let template = c.str()?;
            let count = c.u32()? as usize;
            // Each instance occupies at least its 2-byte arity prefix.
            if count > c.remaining() / 2 {
                return Err(malformed(format!(
                    "batch count {count} exceeds remaining payload"
                )));
            }
            let mut instances = Vec::with_capacity(count);
            for _ in 0..count {
                instances.push(c.values()?);
            }
            c.finish(Request::GetPlanBatch {
                template,
                instances,
            })
        }
        opcode::STATS => {
            let template = c.str()?;
            c.finish(Request::Stats { template })
        }
        opcode::SHUTDOWN => c.finish(Request::Shutdown),
        opcode::SUBSCRIBE => {
            let template = c.str()?;
            let since = c.u64()?;
            c.finish(Request::Subscribe { template, since })
        }
        opcode::GEN_ACK => {
            let template = c.str()?;
            let generation = c.u64()?;
            c.finish(Request::GenAck {
                template,
                generation,
            })
        }
        opcode::EXPLAIN => {
            let template = c.str()?;
            let values = c.values()?;
            let dialect_tag = c.u8()?;
            c.finish(Request::Explain {
                template,
                values,
                dialect_tag,
            })
        }
        other => Err(malformed(format!("unknown request opcode {other:#04x}"))),
    }
}

/// Decode a response body. Never panics; any malformed input is an error.
pub fn decode_response(body: &[u8]) -> Result<Response, WireError> {
    let mut c = Cursor::new(body);
    let op = c.u8().map_err(|_| malformed("empty frame"))?;
    match op {
        opcode::HELLO_OK => {
            let version = c.u16()?;
            let n = c.u16()? as usize;
            if n > c.remaining() / 2 {
                return Err(malformed(format!(
                    "template count {n} exceeds remaining payload"
                )));
            }
            let mut templates = Vec::with_capacity(n);
            for _ in 0..n {
                templates.push(c.str()?);
            }
            c.finish(Response::HelloOk { version, templates })
        }
        opcode::PLAN => {
            let choice = take_choice(&mut c)?;
            c.finish(Response::Plan(choice))
        }
        opcode::PLAN_BATCH => {
            let n = c.u32()? as usize;
            if c.remaining() < n * 17 {
                return Err(malformed(format!(
                    "choice count {n} exceeds remaining payload"
                )));
            }
            let mut choices = Vec::with_capacity(n);
            for _ in 0..n {
                choices.push(take_choice(&mut c)?);
            }
            c.finish(Response::PlanBatch(choices))
        }
        opcode::STATS_OK => {
            let mut f = [0u64; STATS_FIELD_COUNT];
            for slot in &mut f {
                *slot = c.u64()?;
            }
            c.finish(Response::Stats(WireStats::from_fields(f)))
        }
        opcode::SHUTDOWN_OK => c.finish(Response::ShutdownOk),
        opcode::EXPLAIN_OK => {
            let choice = take_choice(&mut c)?;
            let sql = c.str()?;
            c.finish(Response::ExplainOk { choice, sql })
        }
        opcode::SUBSCRIBE_OK => {
            let template = c.str()?;
            let generation = c.u64()?;
            c.finish(Response::SubscribeOk {
                template,
                generation,
            })
        }
        opcode::SNAPSHOT_PUSH => {
            let template = c.str()?;
            let generation = c.u64()?;
            let record = c.rest().to_vec();
            c.finish(Response::SnapshotPush {
                template,
                generation,
                record,
            })
        }
        opcode::ERROR => {
            let code = c.u16()?;
            let message = c.str()?;
            c.finish(Response::Error { code, message })
        }
        other => Err(malformed(format!("unknown response opcode {other:#04x}"))),
    }
}

fn take_choice(c: &mut Cursor<'_>) -> Result<WireChoice, WireError> {
    let fingerprint = c.u64()?;
    let optimized = match c.u8()? {
        0 => false,
        1 => true,
        other => return Err(malformed(format!("optimized flag is {other}, not 0/1"))),
    };
    let generation = c.u64()?;
    Ok(WireChoice {
        fingerprint,
        optimized,
        generation,
    })
}

// ------------------------------------------------------------- frame I/O

/// Write one frame (length prefix + body) to `w`, handing both to it in one
/// vectored call: on a `TCP_NODELAY` socket two `write`s are two syscalls
/// and two segments. A writer that accepts less is called again with what
/// is left.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let header = (body.len() as u32).to_le_bytes();
    let mut left = &mut [IoSlice::new(&header), IoSlice::new(body)][..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Blocking read of one frame body into `buf` (client side; the server uses
/// its own polled reader for shutdown responsiveness). Returns `Ok(false)`
/// on a clean EOF at a frame boundary; frames above `max_bytes` are
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read, max_bytes: u32, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut header = [0u8; 4];
    match r.read(&mut header) {
        Ok(0) => return Ok(false),
        Ok(n) => r.read_exact(&mut header[n..])?,
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(header);
    if len > max_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit {max_bytes}"),
        ));
    }
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqo_rand::{Rng, SeedableRng};

    fn roundtrip_request(req: &Request) {
        let mut body = Vec::new();
        encode_request(req, &mut body);
        let back = decode_request(&body).expect("own encoding decodes");
        assert_eq!(&back, req);
    }

    fn roundtrip_response(resp: &Response) {
        let mut body = Vec::new();
        encode_response(resp, &mut body);
        let back = decode_response(&body).expect("own encoding decodes");
        assert_eq!(&back, resp);
    }

    fn rand_string(rng: &mut pqo_rand::DefaultRng) -> String {
        let len = rng.gen_range(0usize..24);
        (0..len)
            .map(|_| char::from(b'a' + (rng.gen_range(0u32..26) as u8)))
            .collect()
    }

    fn rand_values(rng: &mut pqo_rand::DefaultRng) -> Vec<f64> {
        let d = rng.gen_range(0usize..9);
        (0..d).map(|_| rng.gen_range(-1e6f64..1e6)).collect()
    }

    /// Seeded property test: every message type round-trips through its
    /// encoding, across many random payload shapes.
    #[test]
    fn all_message_types_roundtrip() {
        let mut rng = pqo_rand::DefaultRng::seed_from_u64(0xF8A3E);
        for _ in 0..500 {
            roundtrip_request(&Request::Hello {
                version: rng.gen_range(0u32..u16::MAX as u32 + 1) as u16,
            });
            roundtrip_request(&Request::GetPlan {
                template: rand_string(&mut rng),
                values: rand_values(&mut rng),
            });
            let batch = (0..rng.gen_range(0usize..6))
                .map(|_| rand_values(&mut rng))
                .collect();
            roundtrip_request(&Request::GetPlanBatch {
                template: rand_string(&mut rng),
                instances: batch,
            });
            roundtrip_request(&Request::Stats {
                template: rand_string(&mut rng),
            });
            roundtrip_request(&Request::Shutdown);
            roundtrip_request(&Request::Subscribe {
                template: rand_string(&mut rng),
                since: rng.next_u64(),
            });
            roundtrip_request(&Request::GenAck {
                template: rand_string(&mut rng),
                generation: rng.next_u64(),
            });
            roundtrip_request(&Request::Explain {
                template: rand_string(&mut rng),
                values: rand_values(&mut rng),
                dialect_tag: rng.gen_range(0u32..4) as u8,
            });

            let choice = WireChoice {
                fingerprint: rng.next_u64(),
                optimized: rng.gen_bool(0.5),
                generation: rng.next_u64(),
            };
            roundtrip_response(&Response::HelloOk {
                version: PROTOCOL_VERSION,
                templates: (0..rng.gen_range(0usize..5))
                    .map(|_| rand_string(&mut rng))
                    .collect(),
            });
            roundtrip_response(&Response::Plan(choice));
            roundtrip_response(&Response::PlanBatch(
                (0..rng.gen_range(0usize..20))
                    .map(|_| WireChoice {
                        fingerprint: rng.next_u64(),
                        optimized: rng.gen_bool(0.5),
                        generation: rng.next_u64(),
                    })
                    .collect(),
            ));
            roundtrip_response(&Response::Stats(WireStats {
                num_plans: rng.next_u64(),
                batch_instances: rng.next_u64(),
                max_batch_size: rng.next_u64(),
                ..WireStats::default()
            }));
            roundtrip_response(&Response::ShutdownOk);
            roundtrip_response(&Response::ExplainOk {
                choice,
                sql: format!("-- plan: {:#x}\nSELECT count(*) FROM t", rng.next_u64()),
            });
            roundtrip_response(&Response::SubscribeOk {
                template: rand_string(&mut rng),
                generation: rng.next_u64(),
            });
            roundtrip_response(&Response::SnapshotPush {
                template: rand_string(&mut rng),
                generation: rng.next_u64(),
                record: (0..rng.gen_range(0usize..64))
                    .map(|_| rng.gen_range(0u32..256) as u8)
                    .collect(),
            });
            roundtrip_response(&Response::Error {
                code: rng.gen_range(0u32..u16::MAX as u32 + 1) as u16,
                message: rand_string(&mut rng),
            });
        }
    }

    /// Satellite: the STATS field layout has exactly one definition. The
    /// table drives both converters, its names are unique, and its length
    /// is pinned to the protocol version — growing the table without
    /// bumping [`PROTOCOL_VERSION`] (or vice versa) fails here.
    #[test]
    fn stats_layout_is_pinned_to_protocol_version() {
        assert_eq!(
            (PROTOCOL_VERSION, STATS_FIELD_COUNT),
            (6, 32),
            "STATS_OK layout changed: bump PROTOCOL_VERSION and re-pin this pair"
        );
        let unique: std::collections::HashSet<_> = STATS_FIELD_NAMES.iter().collect();
        assert_eq!(unique.len(), STATS_FIELD_COUNT, "duplicate field name");

        // The encoded payload is exactly the table, in table order.
        let mut s = WireStats::default();
        for (i, _) in STATS_FIELD_NAMES.iter().enumerate() {
            s = WireStats::from_fields({
                let mut f = s.to_fields();
                f[i] = 1000 + i as u64;
                f
            });
        }
        let mut body = Vec::new();
        encode_response(&Response::Stats(s), &mut body);
        assert_eq!(body.len(), 1 + 8 * STATS_FIELD_COUNT);
        for (i, (name, value)) in s.named_fields().enumerate() {
            let at = 1 + 8 * i;
            let wire = u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
            assert_eq!(wire, value, "field `{name}` not at table position {i}");
            assert_eq!(value, 1000 + i as u64);
        }
        match decode_response(&body).unwrap() {
            Response::Stats(back) => assert_eq!(back, s),
            other => panic!("expected STATS_OK, got {other:?}"),
        }
    }

    /// Arbitrary byte garbage never panics either decoder — it yields a
    /// `WireError` (→ `MALFORMED` on the wire) or, rarely, happens to be a
    /// valid message. Also attacks every truncation of valid encodings.
    #[test]
    fn garbage_never_panics_the_decoders() {
        let mut rng = pqo_rand::DefaultRng::seed_from_u64(0xBADF00D);
        for _ in 0..4000 {
            let len = rng.gen_range(0usize..200);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
        }
        // Truncations of a real message must error cleanly, never panic.
        let mut body = Vec::new();
        encode_request(
            &Request::GetPlanBatch {
                template: "tpch_skew_A_d2".into(),
                instances: vec![vec![0.25, 0.5], vec![0.75, 1.0]],
            },
            &mut body,
        );
        for cut in 0..body.len() {
            assert!(decode_request(&body[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is malformed, not silently ignored.
        body.push(0);
        assert!(decode_request(&body).is_err());

        // Same attack against the v6 EXPLAIN frame and its response.
        encode_request(
            &Request::Explain {
                template: "tpch_skew_A_d2".into(),
                values: vec![0.25, 0.5],
                dialect_tag: 2,
            },
            &mut body,
        );
        for cut in 0..body.len() {
            assert!(decode_request(&body[..cut]).is_err(), "cut at {cut}");
        }
        encode_response(
            &Response::ExplainOk {
                choice: WireChoice {
                    fingerprint: 7,
                    optimized: true,
                    generation: 3,
                },
                sql: "SELECT count(*) FROM t WHERE a <= $1".into(),
            },
            &mut body,
        );
        for cut in 0..body.len() {
            assert!(decode_response(&body[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// Hostile counts (batch / value counts far beyond the payload) are
    /// rejected before allocation.
    #[test]
    fn hostile_counts_are_rejected() {
        let mut body = Vec::new();
        encode_request(
            &Request::GetPlan {
                template: "t".into(),
                values: vec![0.5],
            },
            &mut body,
        );
        // Patch the value count (after opcode + 2-byte strlen + 1 byte "t")
        // to a huge number with no payload behind it.
        let count_at = 1 + 2 + 1;
        body[count_at..count_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        let err = decode_request(&body).unwrap_err();
        assert!(err.0.contains("exceeds"), "{err}");
    }

    /// The error-code ↔ variant mapping is a compatibility surface; this
    /// test pins every published code so a refactor cannot silently
    /// renumber the wire.
    #[test]
    fn error_codes_are_pinned() {
        assert_eq!(code::MALFORMED, 1);
        assert_eq!(code::BUSY, 2);
        assert_eq!(code::UNSUPPORTED_VERSION, 3);
        assert_eq!(code::SHUTTING_DOWN, 4);
        assert_eq!(code::TIMEOUT, 5);
        let cases = [
            (
                PqoError::UnknownTemplate { name: "x".into() },
                16,
                "UNKNOWN_TEMPLATE",
            ),
            (
                PqoError::DuplicateTemplate { name: "x".into() },
                17,
                "DUPLICATE_TEMPLATE",
            ),
            (
                PqoError::InvalidLambda {
                    lambda: 0.5,
                    what: "λ",
                },
                18,
                "INVALID_LAMBDA",
            ),
            (PqoError::InvalidBudget { budget: 0 }, 19, "INVALID_BUDGET"),
            (
                PqoError::InvalidTemplate {
                    name: "x".into(),
                    reason: "r".into(),
                },
                20,
                "INVALID_TEMPLATE",
            ),
            (
                PqoError::Persist {
                    message: "m".into(),
                },
                21,
                "PERSIST",
            ),
            (
                PqoError::PolicyMismatch {
                    expected: "scr".into(),
                    found: "lec".into(),
                },
                23,
                "POLICY_MISMATCH",
            ),
            (
                PqoError::InvalidInstance {
                    template: "x".into(),
                    reason: "r".into(),
                },
                1,
                "MALFORMED (invalid instance)",
            ),
        ];
        assert_eq!(code::PRIMARY_UNREACHABLE, 22);
        assert_eq!(code::POLICY_MISMATCH, 23);
        for (err, want, label) in cases {
            assert_eq!(error_code(&err), want, "{label} renumbered");
        }
    }

    #[test]
    fn frame_io_roundtrips_and_bounds_length() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = wire.as_slice();
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, 64, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut r, 64, &mut buf).unwrap());
        assert_eq!(buf, b"");
        assert!(!read_frame(&mut r, 64, &mut buf).unwrap(), "clean EOF");

        let mut oversized = Vec::new();
        write_frame(&mut oversized, &[0u8; 32]).unwrap();
        let err = read_frame(&mut oversized.as_slice(), 16, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
