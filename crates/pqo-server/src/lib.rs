//! # pqo-server — the TCP serving subsystem
//!
//! A std-only network front end over [`pqo_core::PqoService`]: a threaded
//! TCP server speaking a length-prefixed binary wire protocol
//! (`HELLO` / `GET_PLAN` / `GET_PLAN_BATCH` / `STATS` / `SHUTDOWN`), plus a
//! small blocking client. The paper deploys SCR inside a database *server*
//! process; this crate is the missing layer between the in-process serving
//! API and real network clients, built to saturate the lock-free snapshot
//! read path (no server-side locks are added around `get_plan`).
//!
//! * [`wire`] — framing, opcodes, stable error codes, pure encode/decode.
//! * [`server`] — [`server::PqoServer`]: public API, dispatch layer,
//!   connection/frame limits with `BUSY`/`MALFORMED` error frames,
//!   deadlines with `TIMEOUT` frames, graceful drain + snapshot flush.
//! * `poller` — the readiness set, chosen by the platform (`epoll(7)` on
//!   Linux, `poll(2)` on other unix), plus the self-pipe waker. Both
//!   backends answer to one readiness contract test.
//! * [`conn`] — pure per-connection state machines (frame reassembly from
//!   fragmented reads, buffered writeback under short writes).
//! * `event_loop` — the single-threaded readiness loop, which answers
//!   cache hits itself, and the fixed worker pool it hands misses and
//!   every other request to.
//! * [`client`] — [`client::PqoClient`]: blocking request/response client,
//!   which also speaks the v4 subscription stream
//!   (`SUBSCRIBE` / `SNAPSHOT_PUSH` / `GEN_ACK`).
//! * `replica` — the subscriber thread a replica server runs: applies
//!   pushed generation records into the local published snapshots and
//!   reconnects (resuming from the applied generation) when the primary
//!   drops.
//!
//! ```no_run
//! use std::sync::Arc;
//! use pqo_core::{PqoService, scr::ScrConfig};
//! use pqo_server::{PqoServer, PqoClient, ServerConfig};
//! # fn template() -> Arc<pqo_optimizer::template::QueryTemplate> { unimplemented!() }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = Arc::new(PqoService::new());
//! service.register(template(), ScrConfig::new(2.0)?)?;
//! let server = PqoServer::bind(service, "127.0.0.1:0", ServerConfig::default())?;
//!
//! let mut client = PqoClient::connect(server.local_addr())?;
//! let choice = client.get_plan("my_template", &[1000.0, 42.5])?;
//! println!("{} (optimized: {})", choice.fingerprint, choice.optimized);
//! client.shutdown_server()?;          // graceful drain + snapshot flush
//! server.join();
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod conn;
mod event_loop;
mod poller;
mod replica;
pub mod server;
pub mod wire;

pub use client::{ClientError, PqoClient, PushedGeneration, RemoteChoice, RemoteExplain};
pub use server::{snapshot_file_name, PqoServer, ServerConfig, ServerHandle, ServerStats};
pub use wire::{WireChoice, WireStats, PROTOCOL_VERSION};
