//! The replica's subscriber thread: the consuming end of the generation
//! log.
//!
//! A server started with [`crate::ServerConfig::replica_of`] spawns one of
//! these next to its event loop. It connects to the primary, subscribes to
//! every locally registered template *from the generation already
//! published here* (so a warm restart from `--snapshot-dir` catches up
//! with deltas instead of refetching full snapshots), then loops applying
//! pushed records via `PqoService::apply_generation` and acknowledging
//! each one. The primary keeps at most one unacknowledged push in flight
//! per subscription, which bounds this replica's generation lag at one.
//!
//! Failure handling is a reconnect loop with capped exponential backoff:
//! every (re)subscription resumes from the generations the replica has
//! actually applied, so a primary crash, a network drop, or a primary
//! restart all converge without operator action — the replica keeps
//! serving its last applied generation throughout.

use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::client::{ClientError, PqoClient};
use crate::server::Shared;
use crate::wire;

/// Idle window per [`PqoClient::poll_push`] wait; also the cadence at
/// which the thread notices shutdown.
const POLL_IDLE: Duration = Duration::from_millis(50);
/// First reconnect delay; doubles per failure up to [`BACKOFF_MAX`].
const BACKOFF_START: Duration = Duration::from_millis(50);
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Thread body. Returns when shutdown is requested.
pub(crate) fn run(shared: &Shared) {
    let mut backoff = BACKOFF_START;
    while !shared.shutting_down() {
        match stream_from_primary(shared) {
            Ok(()) => return, // clean shutdown observed inside the loop
            Err(_) => {
                // Primary unreachable or stream broken: keep serving the
                // last applied generation, retry with backoff.
                let mut waited = Duration::ZERO;
                while waited < backoff && !shared.shutting_down() {
                    let step = POLL_IDLE.min(backoff - waited);
                    std::thread::sleep(step);
                    waited += step;
                }
                backoff = (backoff * 2).min(BACKOFF_MAX);
            }
        }
    }
}

/// One connection lifetime: subscribe to everything, apply pushes until
/// the stream breaks (`Err`) or shutdown is requested (`Ok`).
fn stream_from_primary(shared: &Shared) -> Result<(), ClientError> {
    let rep = shared
        .replica
        .as_ref()
        .expect("replica thread without state");
    let mut client = PqoClient::connect_with_timeout(&rep.primary, Duration::from_secs(5))?;
    client.set_max_frame(wire::REPLICATION_MAX_FRAME_BYTES);

    for template in shared.service.templates() {
        let since = shared.service.generation(&template).unwrap_or(0);
        match client.subscribe(&template, since) {
            Ok(primary_gen) => {
                rep.note_applied(&template, since);
                rep.note_primary(&template, primary_gen);
            }
            // A template the primary does not serve is not fatal: this
            // replica simply never receives generations for it.
            Err(ClientError::Server { .. }) => continue,
            Err(e) => return Err(e),
        }
    }

    loop {
        if shared.shutting_down() {
            return Ok(());
        }
        let Some(push) = client.poll_push(POLL_IDLE)? else {
            continue;
        };
        match shared
            .service
            .apply_generation(&push.template, &push.record)
        {
            Ok(applied) => {
                let stats = &shared.stats;
                stats.gens_applied.fetch_add(1, Ordering::Relaxed);
                stats
                    .replication_bytes_in
                    .fetch_add(push.record.len() as u64, Ordering::Relaxed);
                rep.note_primary(&push.template, push.generation);
                rep.note_applied(&push.template, applied);
                client.ack_generation(&push.template, applied)?;
            }
            Err(e) => {
                // A record we cannot apply (base mismatch after a missed
                // push, a retired policy's tag, corruption in transit):
                // drop the connection and resubscribe from the applied
                // generation, which yields a delta from a base both sides
                // agree on — or a full snapshot if the primary's log no
                // longer covers it. The cause is surfaced so a policy
                // mismatch is diagnosable from the replica's logs.
                return Err(ClientError::Protocol(format!(
                    "failed to apply generation {} of `{}`: {e}",
                    push.generation, push.template
                )));
            }
        }
    }
}
