//! A small blocking client for the wire protocol: one TCP connection, one
//! in-flight request at a time (the protocol is strictly request/response).
//! A round trip is two syscalls: the request leaves in one vectored `write`
//! ([`wire::write_frame`]) and the response is read through a buffer the
//! client owns, so header and body arrive in one `read` — as does a
//! `SNAPSHOT_PUSH` that shared the response's segment, which
//! [`PqoClient::poll_push`] therefore looks for in the buffer before it
//! waits on the socket.
//!
//! Used by `pqo-cli client`, the stack benchmark (`bench/`) and the
//! loopback stress tests; it is also the reference implementation for writing a
//! client in another language.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use pqo_optimizer::plan::PlanFingerprint;

use crate::wire::{
    self, decode_response, encode_request, Request, Response, WireChoice, WireStats,
};

/// Client-side failure: transport, protocol violation, or a typed error
/// frame from the server.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The server broke the protocol (wrong response type, undecodable
    /// frame, version mismatch).
    Protocol(String),
    /// The server answered with an error frame; `code` is one of
    /// [`wire::code`]'s stable values.
    Server {
        /// Stable wire error code.
        code: u16,
        /// Human-readable cause from the server.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected, handshaken client.
pub struct PqoClient {
    /// Reads go through the buffer, writes straight to the socket.
    stream: BufReader<TcpStream>,
    /// The connection's read deadline, which [`PqoClient::poll_push`]
    /// shortens for its wait and puts back.
    timeout: Duration,
    templates: Vec<String>,
    body: Vec<u8>,
    frame: Vec<u8>,
    /// Largest frame this client will read; raise to
    /// [`wire::REPLICATION_MAX_FRAME_BYTES`] before subscribing.
    max_frame: u32,
    /// Pushed generations that arrived interleaved with a request/response
    /// exchange; drained by [`PqoClient::poll_push`] before the socket.
    pushes: VecDeque<PushedGeneration>,
}

/// One `SNAPSHOT_PUSH` received on a subscribed connection.
#[derive(Debug, Clone)]
pub struct PushedGeneration {
    /// The template the record belongs to.
    pub template: String,
    /// Generation stamp of the pushed record.
    pub generation: u64,
    /// The replication record, as produced by
    /// `pqo_core::replication::encode_generation`.
    pub record: Vec<u8>,
}

impl PqoClient {
    /// Connect with default timeouts (10 s) and perform the `HELLO`
    /// handshake.
    ///
    /// # Errors
    /// [`ClientError::Io`] on transport failure; [`ClientError::Server`]
    /// if the server rejects us (e.g. [`wire::code::BUSY`] at the
    /// connection limit); [`ClientError::Protocol`] on a version mismatch.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<PqoClient, ClientError> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// [`PqoClient::connect`] with explicit read/write timeouts.
    ///
    /// # Errors
    /// As [`PqoClient::connect`].
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<PqoClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let mut client = PqoClient {
            stream: BufReader::new(stream),
            timeout,
            templates: Vec::new(),
            body: Vec::new(),
            frame: Vec::new(),
            max_frame: wire::DEFAULT_MAX_FRAME_BYTES,
            pushes: VecDeque::new(),
        };
        match client.call(&Request::Hello {
            version: wire::PROTOCOL_VERSION,
        })? {
            Response::HelloOk { version, templates } => {
                if version != wire::PROTOCOL_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "server answered HELLO with version {version}"
                    )));
                }
                client.templates = templates;
                Ok(client)
            }
            other => Err(ClientError::Protocol(format!(
                "expected HELLO_OK, got {other:?}"
            ))),
        }
    }

    /// Template names the server reported during the handshake.
    pub fn server_templates(&self) -> &[String] {
        &self.templates
    }

    /// One request/response exchange. On a subscribed connection, pushed
    /// generations may arrive between our request and its response; they
    /// are buffered for [`PqoClient::poll_push`], never dropped.
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        encode_request(req, &mut self.body);
        wire::write_frame(self.stream.get_mut(), &self.body)?;
        loop {
            if !wire::read_frame(&mut self.stream, self.max_frame, &mut self.frame)? {
                return Err(ClientError::Protocol(
                    "server closed the connection mid-exchange".into(),
                ));
            }
            let resp =
                decode_response(&self.frame).map_err(|e| ClientError::Protocol(e.to_string()))?;
            match resp {
                Response::SnapshotPush {
                    template,
                    generation,
                    record,
                } => self.pushes.push_back(PushedGeneration {
                    template,
                    generation,
                    record,
                }),
                Response::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                other => return Ok(other),
            }
        }
    }

    /// Serve one instance of `template` with raw parameter `values`.
    ///
    /// # Errors
    /// [`ClientError::Server`] with [`wire::code::UNKNOWN_TEMPLATE`] /
    /// [`wire::code::MALFORMED`] on bad input, plus transport errors.
    pub fn get_plan(
        &mut self,
        template: &str,
        values: &[f64],
    ) -> Result<RemoteChoice, ClientError> {
        match self.call(&Request::GetPlan {
            template: template.into(),
            values: values.to_vec(),
        })? {
            Response::Plan(c) => Ok(RemoteChoice::from(c)),
            other => Err(ClientError::Protocol(format!(
                "expected PLAN, got {other:?}"
            ))),
        }
    }

    /// Serve a batch of instances through one server-side snapshot load.
    /// Decisions come back in request order.
    ///
    /// # Errors
    /// As [`PqoClient::get_plan`].
    pub fn get_plan_batch(
        &mut self,
        template: &str,
        instances: &[Vec<f64>],
    ) -> Result<Vec<RemoteChoice>, ClientError> {
        match self.call(&Request::GetPlanBatch {
            template: template.into(),
            instances: instances.to_vec(),
        })? {
            Response::PlanBatch(cs) => Ok(cs.into_iter().map(RemoteChoice::from).collect()),
            other => Err(ClientError::Protocol(format!(
                "expected PLAN_BATCH, got {other:?}"
            ))),
        }
    }

    /// Serve one instance and fetch the chosen plan rendered as hinted SQL
    /// in `dialect` (parameter values inlined as literals).
    ///
    /// # Errors
    /// As [`PqoClient::get_plan`], plus [`wire::code::MALFORMED`] for an
    /// unknown dialect tag.
    pub fn explain(
        &mut self,
        template: &str,
        values: &[f64],
        dialect_tag: u8,
    ) -> Result<RemoteExplain, ClientError> {
        match self.call(&Request::Explain {
            template: template.into(),
            values: values.to_vec(),
            dialect_tag,
        })? {
            Response::ExplainOk { choice, sql } => Ok(RemoteExplain {
                choice: RemoteChoice::from(choice),
                sql,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected EXPLAIN_OK, got {other:?}"
            ))),
        }
    }

    /// Counter snapshot for `template`.
    ///
    /// # Errors
    /// As [`PqoClient::get_plan`].
    pub fn stats(&mut self, template: &str) -> Result<WireStats, ClientError> {
        match self.call(&Request::Stats {
            template: template.into(),
        })? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::Protocol(format!(
                "expected STATS_OK, got {other:?}"
            ))),
        }
    }

    /// Raise (or lower) the largest frame this client will read. A
    /// subscriber must raise it to [`wire::REPLICATION_MAX_FRAME_BYTES`]:
    /// full-snapshot pushes dwarf request/response frames.
    pub fn set_max_frame(&mut self, max: u32) {
        self.max_frame = max;
    }

    /// Subscribe to `template`'s generation stream from generation `since`
    /// onward; returns the generation currently published at the server.
    /// Pushes then arrive asynchronously — consume them with
    /// [`PqoClient::poll_push`] and acknowledge with
    /// [`PqoClient::ack_generation`] (the server keeps at most one
    /// unacknowledged push in flight per subscription).
    ///
    /// # Errors
    /// [`ClientError::Server`] with [`wire::code::UNKNOWN_TEMPLATE`] for an
    /// unregistered template, plus transport errors.
    pub fn subscribe(&mut self, template: &str, since: u64) -> Result<u64, ClientError> {
        match self.call(&Request::Subscribe {
            template: template.into(),
            since,
        })? {
            Response::SubscribeOk { generation, .. } => Ok(generation),
            other => Err(ClientError::Protocol(format!(
                "expected SUBSCRIBE_OK, got {other:?}"
            ))),
        }
    }

    /// Wait up to `idle` for the next pushed generation; `Ok(None)` when
    /// the wait elapses with no push pending (the connection is fine).
    ///
    /// # Errors
    /// Transport errors, a server error frame, or an unexpected response
    /// type on the subscription stream.
    pub fn poll_push(&mut self, idle: Duration) -> Result<Option<PushedGeneration>, ClientError> {
        if let Some(p) = self.pushes.pop_front() {
            return Ok(Some(p));
        }
        // A push that arrived in the same segment as a response is already
        // in the buffer; the socket has nothing to say about it.
        if self.stream.buffer().is_empty() {
            // Peek (no consumption) under the short deadline, so an idle
            // timeout can never strand a half-read frame on the stream —
            // and put the connection's own deadline back whatever the peek
            // said, so the frame below and every later call run under it.
            let socket = self.stream.get_ref();
            socket.set_read_timeout(Some(idle))?;
            let peeked = socket.peek(&mut [0u8; 1]);
            socket.set_read_timeout(Some(self.timeout))?;
            match peeked {
                Ok(0) => {
                    return Err(ClientError::Protocol(
                        "server closed the subscription stream".into(),
                    ))
                }
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e.into()),
            }
        }
        if !wire::read_frame(&mut self.stream, self.max_frame, &mut self.frame)? {
            return Err(ClientError::Protocol(
                "server closed the subscription stream".into(),
            ));
        }
        let resp =
            decode_response(&self.frame).map_err(|e| ClientError::Protocol(e.to_string()))?;
        match resp {
            Response::SnapshotPush {
                template,
                generation,
                record,
            } => Ok(Some(PushedGeneration {
                template,
                generation,
                record,
            })),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected SNAPSHOT_PUSH, got {other:?}"
            ))),
        }
    }

    /// Acknowledge that `generation` of `template` has been applied,
    /// releasing the server's next push. Fire-and-forget: `GEN_ACK` has no
    /// response frame.
    ///
    /// # Errors
    /// Transport errors on the write path.
    pub fn ack_generation(&mut self, template: &str, generation: u64) -> Result<(), ClientError> {
        encode_request(
            &Request::GenAck {
                template: template.into(),
                generation,
            },
            &mut self.body,
        );
        wire::write_frame(self.stream.get_mut(), &self.body)?;
        Ok(())
    }

    /// Request graceful server shutdown (drain + snapshot flush) and
    /// consume this connection.
    ///
    /// # Errors
    /// Transport errors; protocol violation if the ack is missing.
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected SHUTDOWN_OK, got {other:?}"
            ))),
        }
    }
}

/// A plan decision received over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteChoice {
    /// Fingerprint of the served plan (join it with a local plan cache or
    /// log it; the full plan stays server-side).
    pub fingerprint: PlanFingerprint,
    /// Whether this instance forced a full optimizer call on the server.
    pub optimized: bool,
    /// The snapshot generation the decision was served from (after any
    /// cache mutation the instance caused was published).
    pub generation: u64,
}

impl From<WireChoice> for RemoteChoice {
    fn from(c: WireChoice) -> Self {
        RemoteChoice {
            fingerprint: PlanFingerprint(c.fingerprint),
            optimized: c.optimized,
            generation: c.generation,
        }
    }
}

/// An `EXPLAIN` decision: the usual plan choice plus the server-rendered
/// dialect-specific hinted SQL.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteExplain {
    /// The served decision.
    pub choice: RemoteChoice,
    /// The chosen plan rendered as hinted SQL.
    pub sql: String,
}
