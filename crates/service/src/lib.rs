//! # epi-service
//!
//! A long-running, multi-threaded auditing daemon over the `epi-audit`
//! decision machinery — the "auditing as infrastructure" deployment the
//! paper's introduction sketches: disclosures arrive continuously, each
//! must be judged against an audited property *before* more knowledge
//! accumulates, and the same expensive `(A, B)` decision recurs across
//! users and connections.
//!
//! The crate is std-only (threads, mutexes, condvars, TCP — no async
//! runtime) and layers as:
//!
//! * [`session`] — sharded concurrent per-user sessions holding
//!   cumulative knowledge as a world-set intersection (Section 3.3);
//! * [`cache`] — an LRU verdict cache keyed by the canonical
//!   `(A, B, prior)` triple;
//! * [`admission`] — adaptive AIMD admission control, the
//!   `Normal → Shedding → CacheOnly → Frozen` degradation ladder, and
//!   per-user fairness token buckets;
//! * [`worker`] — a worker pool with a bounded queue that coalesces
//!   identical in-flight decisions, so the solver pipeline runs once per
//!   distinct key;
//! * [`metrics`] — atomic counters plus per-stage latency histograms,
//!   exported as a [`metrics::Snapshot`];
//! * [`proto`] — newline-delimited JSON requests/responses;
//! * [`service`] — the in-process engine tying the above together;
//! * [`server`] / [`client`] — a TCP front-end and both TCP and
//!   in-process clients.
//!
//! # Persistence
//!
//! With a data directory configured ([`ServiceConfig::data_dir`] or
//! `EPI_WAL_DIR`), every session mutation is appended to a per-shard
//! write-ahead disclosure log (`epi-wal`) *before* it reaches memory or
//! a response line. Startup loads the latest compacted snapshot, replays
//! the log tail (truncating at most one torn final record per shard),
//! and refuses to serve on any deeper corruption — a recovered daemon
//! either reconstructs exactly the acknowledged knowledge state or does
//! not start. The `session` protocol op exposes each user's disclosure
//! sequence number and a CRC-32 knowledge digest so recovery fidelity
//! can be checked from outside. See `docs/PERSISTENCE.md`.
//!
//! # Fault tolerance
//!
//! The daemon is built to degrade, not hang: requests carry deadlines
//! and time out *fail-closed* (an undecided safety question is never
//! reported safe); worker panics are isolated per request
//! ([`worker::DecideError::WorkerFailed`]) and counted as respawns; a
//! full decision queue can shed load with a retryable `overloaded`
//! error; clients retry with seeded, deterministic backoff under
//! idempotent request ids ([`client::RetryPolicy`]); and every internal
//! lock recovers from poisoning so one crash cannot wedge the service.
//!
//! # Observability
//!
//! Requests may carry a client-minted `trace` id in the envelope; the
//! service threads it through every span it records for that request —
//! request handling, the wait for a handler thread, cache lookup, queue
//! wait, worker compute, and individual solver stages — into a bounded
//! in-memory ring
//! (`epi-trace`). The `trace` protocol op reads spans back (optionally
//! filtered by id, or the slow-decision log), and the `metrics` op
//! renders every counter and per-stage latency histogram in Prometheus
//! text exposition format ([`metrics::Snapshot::render_prometheus`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod metrics;
pub mod proto;
#[cfg(unix)]
mod reactor;
pub mod server;
pub mod service;
pub mod session;
pub mod worker;

pub use admission::{
    AdmissionController, AdmissionOptions, DegradationLadder, DegradationMode, LadderSignals,
    TokenBuckets,
};
pub use cache::{DecisionKey, VerdictCache};
pub use client::{AuditOutcome, Client, ClientError, LocalClient, RetryPolicy};
pub use epi_wal::{FsyncPolicy, RecoveryReport, WalError};
pub use metrics::{Metrics, Snapshot};
pub use proto::{
    BudgetInfo, ErrorCode, HealthInfo, Request, RequestMeta, Response, SessionInfo, WireSpan,
};
pub use server::{Server, ServerMode, ServerOptions};
pub use service::{AuditService, BudgetCompose, BudgetOptions, ServiceConfig};
pub use session::{knowledge_digest, ledger_digest, Session, SessionError, SessionStore};
pub use worker::{DecideError, DecisionPool, FaultHook, QueuePolicy};
