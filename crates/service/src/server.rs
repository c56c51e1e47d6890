//! Newline-delimited JSON over TCP, std threads only.
//!
//! The front-end is a readiness event loop (the crate-private `reactor`
//! module; Linux `epoll` through the `epoll-shim` poller) that multiplexes every
//! connection over one (or `EPI_REACTOR_THREADS`) reactor thread(s):
//! nonblocking sockets, bounded per-connection read buffers with
//! incremental frame scanning, bounded write queues drained on
//! writability, request pipelining, and per-connection backpressure.
//! Idle connections cost a few hundred bytes, not a thread. The reactor
//! answers every request that cannot block itself (reads, malformed
//! lines, disclosures that need no decision or whose verdict is cached)
//! and hands only the rest to [`ServerOptions::handler_threads`] handler
//! threads: disclosures that miss the verdict cache, every `cumulative`,
//! and — because a session shard's lock is held across the disclosure
//! log's fsync — every request on a durable store. On a target without
//! a poller backend [`Server::spawn_with`] fails with
//! [`std::io::ErrorKind::Unsupported`]; the in-process
//! [`AuditService`] and [`crate::LocalClient`] work everywhere.
//!
//! Each request line is parsed once and answered with one response
//! line, the same bytes whichever thread answers it. Malformed lines
//! produce an `error` response on the same connection rather than
//! tearing it down.
//!
//! # Fault tolerance
//!
//! A dead or silent peer cannot pin resources forever: the reactor
//! evicts connections idle past [`ServerOptions::idle_timeout`] and
//! evicts a *started* frame that has not completed within
//! [`ServerOptions::frame_timeout`], so a dribbling writer cannot hold a
//! buffer open indefinitely. Request lines are length-bounded so one
//! hostile client cannot balloon memory, accept-loop errors are
//! non-fatal, and connection counts are capped.

use crate::proto::{ErrorCode, Request, RequestMeta, Response};
use crate::service::AuditService;
use epi_json::{Deserialize, Json};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The front-end a [`Server`] runs. The readiness reactor is the only
/// one; the type stays so that callers which check
/// `server.mode() == ServerMode::Reactor` keep compiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerMode {
    /// The readiness reactor.
    Reactor,
}

/// Socket-level tunables of a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Maximum request-line length in bytes; longer lines get an error
    /// response and the connection is closed (the remainder of an
    /// oversized line cannot be resynchronized reliably).
    pub max_line_bytes: usize,
    /// Reactor threads multiplexing connections. `0` (default) reads
    /// `EPI_REACTOR_THREADS`, else uses 1.
    pub reactor_threads: usize,
    /// Threads finishing the requests the reactor cannot answer without
    /// blocking (they block on the decision pool's gate or a WAL fsync,
    /// so this bounds in-flight blocking work).
    pub handler_threads: usize,
    /// Per-connection cap on pipelined requests in flight; further
    /// frames wait (unread or undispatched) until replies drain.
    pub max_inflight_per_conn: usize,
    /// Per-connection write-queue size above which the reactor stops
    /// dispatching that connection's frames until the peer reads.
    pub write_high_water: usize,
    /// Per-connection write-queue hard cap; a connection that exceeds it
    /// (a peer that pipelines hard but never reads) is evicted.
    pub write_overflow: usize,
    /// Evict a connection with no activity, no buffered input and no
    /// in-flight work after this long (`None` = never). A peer that
    /// stops reading is caught here once its write queue stalls.
    pub idle_timeout: Option<Duration>,
    /// A started frame (bytes received, no terminating newline) must
    /// complete within this deadline or the connection is evicted — the
    /// slowloris guard (`None` = no deadline).
    pub frame_timeout: Option<Duration>,
    /// Hard cap on simultaneously open connections; accepts beyond it
    /// are closed immediately and counted as overflow evictions.
    pub max_connections: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            max_line_bytes: 1 << 20,
            reactor_threads: 0,
            handler_threads: 8,
            max_inflight_per_conn: 32,
            write_high_water: 256 << 10,
            write_overflow: 8 << 20,
            idle_timeout: Some(Duration::from_secs(60)),
            frame_timeout: Some(Duration::from_secs(60)),
            max_connections: 16 << 10,
        }
    }
}

impl ServerOptions {
    pub(crate) fn resolved_reactor_threads(&self) -> usize {
        if self.reactor_threads > 0 {
            return self.reactor_threads;
        }
        std::env::var("EPI_REACTOR_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1)
    }
}

/// A running TCP front-end over an [`AuditService`].
pub struct Server {
    addr: SocketAddr,
    #[cfg(unix)]
    reactor: crate::reactor::ReactorServer,
    /// Kept so [`Server::drain`] can flip the service-level drain flag
    /// and flush the WAL without the caller having to thread the
    /// service handle back in.
    service: Arc<AuditService>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) and starts
    /// accepting connections, with default [`ServerOptions`].
    pub fn spawn(service: Arc<AuditService>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        Self::spawn_with(service, addr, ServerOptions::default())
    }

    /// [`Server::spawn`] with explicit socket options. Fails with
    /// [`std::io::ErrorKind::Unsupported`] on a target without a poller
    /// backend.
    pub fn spawn_with(
        service: Arc<AuditService>,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        #[cfg(unix)]
        {
            let reactor =
                crate::reactor::ReactorServer::spawn(Arc::clone(&service), listener, &options)?;
            Ok(Server {
                addr,
                reactor,
                service,
            })
        }
        #[cfg(not(unix))]
        {
            let _ = (addr, service, options);
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the TCP front-end requires a poller backend (epoll)",
            ))
        }
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The front-end the server runs: always [`ServerMode::Reactor`].
    pub fn mode(&self) -> ServerMode {
        ServerMode::Reactor
    }

    /// Stops accepting and tears the front-end down, closing every open
    /// connection immediately. Dropping the server does the same.
    pub fn shutdown(self) {}

    /// Graceful drain, the orderly alternative to [`Server::shutdown`]:
    ///
    /// 1. flips the service into draining (new `disclose`/`cumulative`
    ///    requests get a non-retryable `draining` error),
    /// 2. stops accepting connections,
    /// 3. lets every already-accepted in-flight request complete and
    ///    flush its reply (frames arriving after the flip are answered
    ///    with `draining` refusals),
    /// 4. flushes and fsyncs the disclosure log,
    /// 5. tears the front-end down.
    ///
    /// Returns `true` when every connection drained before `timeout`;
    /// `false` when the deadline forced stragglers closed (the WAL is
    /// still flushed either way). The elapsed time lands in the
    /// `drain_micros` gauge.
    pub fn drain(mut self, timeout: Duration) -> bool {
        let started = Instant::now();
        self.service.set_draining(true);
        #[cfg(unix)]
        let clean = self.reactor.drain(timeout);
        #[cfg(not(unix))]
        let clean = {
            let _ = timeout;
            true
        };
        let _ = self.service.flush_wal();
        crate::metrics::Metrics::set_gauge(
            &self.service.metrics_registry().drain_micros,
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
        clean
    }
}

/// Parses one request line into its request and envelope. A line that
/// does not parse gets its `bad_request` reply line instead; the
/// envelope is read even when the op is bad, so that reply still echoes
/// the client's request id.
pub(crate) fn parse_line(line: &str) -> Result<(Request, RequestMeta), String> {
    let value = Json::parse(line.trim_end_matches(['\n', '\r'])).map_err(|e| {
        let refusal =
            Response::bad_request(format!("bad JSON at byte {}: {}", e.offset, e.message));
        reply_line(&refusal, None)
    })?;
    let meta = RequestMeta::from_json(&value).unwrap_or_default();
    match Request::from_json(&value) {
        Ok(request) => Ok((request, meta)),
        Err(e) => {
            let refusal = Response::bad_request(format!("bad request: {}", e.message));
            Err(reply_line(&refusal, meta.id.as_deref()))
        }
    }
}

/// Renders one reply line, echoing the request's envelope id.
pub(crate) fn reply_line(response: &Response, id: Option<&str>) -> String {
    let mut out = response.to_json_with_id(id).render();
    out.push('\n');
    out
}

/// The refusal line for an oversized request frame (carries no id —
/// the envelope of an oversized line is unreadable by construction).
pub(crate) fn oversize_refusal(max_line_bytes: usize) -> String {
    let refusal = Response::bad_request(format!("request line exceeds {} bytes", max_line_bytes));
    reply_line(&refusal, None)
}

/// The refusal line for a frame that arrived after drain began. Unlike
/// [`oversize_refusal`] the line itself is well-formed, so the envelope
/// `id` is parsed out and echoed — pipelining clients can still match
/// the refusal to the request they sent. `draining` is non-retryable
/// against this instance by design: the caller should re-resolve and
/// go elsewhere.
pub(crate) fn draining_refusal(line: &str) -> String {
    let id = Json::parse(line.trim_end_matches(['\n', '\r']))
        .ok()
        .and_then(|value| RequestMeta::from_json(&value).ok())
        .and_then(|meta| meta.id);
    let refusal = Response::Error {
        code: ErrorCode::Draining,
        message: "service is draining; no new audit work is accepted".to_owned(),
        retry_after_ms: None,
    };
    reply_line(&refusal, id.as_deref())
}
