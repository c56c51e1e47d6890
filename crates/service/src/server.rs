//! Newline-delimited JSON over TCP, std threads only.
//!
//! Two front-end implementations share one wire protocol:
//!
//! * **Reactor** (default on Linux) — a readiness event loop
//!   ([`crate::reactor`]) multiplexes every connection over one (or
//!   `EPI_REACTOR_THREADS`) reactor thread(s) using the `epoll-shim`
//!   poller: nonblocking sockets, bounded per-connection read buffers
//!   with incremental frame scanning, bounded write queues drained on
//!   writability, request pipelining, and per-connection backpressure.
//!   Idle connections cost a few hundred bytes, not a thread. The
//!   reactor answers every request that cannot block itself (reads,
//!   malformed lines, disclosures that need no decision or whose
//!   verdict is cached) and hands only the rest to
//!   [`ServerOptions::handler_threads`] handler threads: disclosures
//!   that miss the verdict cache, every `cumulative`, and — because a
//!   session shard's lock is held across the disclosure log's fsync —
//!   every request on a durable store.
//! * **Thread-per-connection** (legacy, and the fallback wherever the
//!   poller is unsupported) — one acceptor thread, one blocking thread
//!   per connection, which runs [`AuditService::handle_with_meta`].
//!
//! Either way each request line is parsed once and answered with one
//! response line, the same bytes whichever thread answers it.
//! Malformed lines produce an `error` response on the same connection
//! rather than tearing it down.
//!
//! # Fault tolerance
//!
//! A dead or silent peer cannot pin resources forever: the reactor
//! evicts connections idle past [`ServerOptions::idle_timeout`] and —
//! unlike the legacy per-syscall `read_timeout`, which silently reset
//! on every byte — evicts a *started* frame that has not completed
//! within [`ServerOptions::frame_timeout`], so a dribbling writer
//! cannot hold a buffer open indefinitely. Request lines are length-
//! bounded so one hostile client cannot balloon memory, accept-loop
//! errors are non-fatal, and connection counts are capped.

use crate::proto::{ErrorCode, Request, RequestMeta, Response};
use crate::service::AuditService;
use epi_json::{Deserialize, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which front-end implementation a [`Server`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerMode {
    /// Use the readiness reactor when the platform supports it (and
    /// `EPI_REACTOR` is not `0`/`off`), else fall back to
    /// thread-per-connection. The default.
    Auto,
    /// Require the readiness reactor; [`Server::spawn_with`] fails on
    /// platforms without a poller backend.
    Reactor,
    /// Force the legacy blocking thread-per-connection front-end.
    Threaded,
}

/// Socket-level tunables of a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Read timeout on accepted connections: an idle peer is disconnected
    /// after this long (`None` = wait forever, the pre-fault-tolerance
    /// behaviour). The reactor treats this as the default for
    /// [`ServerOptions::idle_timeout`] and
    /// [`ServerOptions::frame_timeout`]; the legacy front-end applies it
    /// per blocking read syscall.
    pub read_timeout: Option<Duration>,
    /// Write timeout on accepted connections (legacy front-end only; the
    /// reactor never blocks on writes — a peer that stops reading is
    /// caught by `idle_timeout` once its write queue stalls).
    pub write_timeout: Option<Duration>,
    /// Maximum request-line length in bytes; longer lines get an error
    /// response and the connection is closed (the remainder of an
    /// oversized line cannot be resynchronized reliably).
    pub max_line_bytes: usize,
    /// Front-end selection (see [`ServerMode`]).
    pub mode: ServerMode,
    /// Reactor threads multiplexing connections. `0` (default) reads
    /// `EPI_REACTOR_THREADS`, else uses 1.
    pub reactor_threads: usize,
    /// Threads finishing the requests the reactor cannot answer without
    /// blocking (they block on the decision pool's gate or a WAL fsync,
    /// so this bounds in-flight blocking work).
    pub handler_threads: usize,
    /// Bound on the reactor→handler dispatch queue; when full,
    /// connections stop being read (backpressure) instead of buffering
    /// without limit.
    pub dispatch_capacity: usize,
    /// Per-connection cap on pipelined requests in flight; further
    /// frames wait (unread or undispatched) until replies drain.
    pub max_inflight_per_conn: usize,
    /// Per-connection write-queue size above which the reactor stops
    /// dispatching that connection's frames until the peer reads.
    pub write_high_water: usize,
    /// Per-connection write-queue hard cap; a connection that exceeds it
    /// (a peer that pipelines hard but never reads) is evicted.
    pub write_overflow: usize,
    /// Reactor: evict a connection with no activity, no buffered input
    /// and no in-flight work after this long. `None` falls back to
    /// `read_timeout`.
    pub idle_timeout: Option<Duration>,
    /// Reactor: a started frame (bytes received, no terminating newline)
    /// must complete within this deadline or the connection is evicted —
    /// the slowloris guard. `None` falls back to `read_timeout`.
    pub frame_timeout: Option<Duration>,
    /// Hard cap on simultaneously open connections; accepts beyond it
    /// are closed immediately and counted as overflow evictions.
    pub max_connections: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            read_timeout: Some(Duration::from_secs(60)),
            write_timeout: Some(Duration::from_secs(60)),
            max_line_bytes: 1 << 20,
            mode: ServerMode::Auto,
            reactor_threads: 0,
            handler_threads: 8,
            dispatch_capacity: 128,
            max_inflight_per_conn: 32,
            write_high_water: 256 << 10,
            write_overflow: 8 << 20,
            idle_timeout: None,
            frame_timeout: None,
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

    fn reactor_disabled_by_env() -> bool {
        matches!(
            std::env::var("EPI_REACTOR").as_deref(),
            Ok("0") | Ok("off") | Ok("false") | Ok("legacy")
        )
    }
}

enum Inner {
    Threaded {
        shutdown: Arc<AtomicBool>,
        acceptor: Option<JoinHandle<()>>,
        connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    },
    #[cfg(unix)]
    Reactor(crate::reactor::ReactorServer),
}

/// A running TCP front-end over an [`AuditService`].
pub struct Server {
    addr: SocketAddr,
    mode: ServerMode,
    inner: Inner,
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

    /// [`Server::spawn`] with explicit socket options.
    pub fn spawn_with(
        service: Arc<AuditService>,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        #[cfg(unix)]
        {
            let want_reactor = match options.mode {
                ServerMode::Reactor => true,
                ServerMode::Auto => !ServerOptions::reactor_disabled_by_env(),
                ServerMode::Threaded => false,
            };
            if want_reactor {
                match crate::reactor::ReactorServer::spawn(
                    Arc::clone(&service),
                    listener.try_clone()?,
                    &options,
                ) {
                    Ok(reactor) => {
                        return Ok(Server {
                            addr,
                            mode: ServerMode::Reactor,
                            inner: Inner::Reactor(reactor),
                            service,
                        })
                    }
                    Err(e) if options.mode == ServerMode::Reactor => return Err(e),
                    // Auto: no poller backend here — fall through to the
                    // blocking front-end.
                    Err(_) => {}
                }
            }
        }
        #[cfg(not(unix))]
        if options.mode == ServerMode::Reactor {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "reactor mode requires a poller backend (epoll)",
            ));
        }
        // When the reactor path bailed out, the listener may have been
        // switched to nonblocking during the attempt; undo that for the
        // blocking accept loop.
        listener.set_nonblocking(false)?;
        Ok(Server {
            addr,
            mode: ServerMode::Threaded,
            inner: spawn_threaded(Arc::clone(&service), listener, options),
            service,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The front-end the server actually runs (never
    /// [`ServerMode::Auto`]).
    pub fn mode(&self) -> ServerMode {
        self.mode
    }

    /// Stops accepting and tears the front-end down. The reactor closes
    /// every open connection immediately; the legacy front-end waits for
    /// connection threads, which run until their peer closes or times
    /// out.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Graceful drain, the orderly alternative to [`Server::shutdown`]:
    ///
    /// 1. flips the service into draining (new `disclose`/`cumulative`
    ///    requests get a non-retryable `draining` error),
    /// 2. stops accepting connections,
    /// 3. lets every already-accepted in-flight request complete and
    ///    flush its reply (reactor front-end; frames arriving after the
    ///    flip are answered with `draining` refusals),
    /// 4. flushes and fsyncs the disclosure log,
    /// 5. tears the front-end down.
    ///
    /// Returns `true` when every connection drained before `timeout`;
    /// `false` when the deadline forced stragglers closed (the WAL is
    /// still flushed either way). The elapsed time lands in the
    /// `drain_micros` gauge. The legacy threaded front-end has no
    /// connection-level drain: its blocking threads already answer
    /// `draining` via the service flag, and teardown joins them as
    /// [`Server::shutdown`] does.
    pub fn drain(mut self, timeout: Duration) -> bool {
        let started = Instant::now();
        self.service.set_draining(true);
        #[cfg(unix)]
        let clean = if let Inner::Reactor(reactor) = &mut self.inner {
            reactor.drain(timeout)
        } else {
            self.stop();
            true
        };
        #[cfg(not(unix))]
        let clean = {
            let _ = timeout;
            self.stop();
            true
        };
        let _ = self.service.flush_wal();
        crate::metrics::Metrics::set_gauge(
            &self.service.metrics_registry().drain_micros,
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
        clean
    }

    fn stop(&mut self) {
        match &mut self.inner {
            Inner::Threaded {
                shutdown,
                acceptor,
                connections,
            } => {
                if shutdown.swap(true, Ordering::SeqCst) {
                    return;
                }
                // Nudge the acceptor out of `incoming()`.
                let _ = TcpStream::connect(self.addr);
                if let Some(acceptor) = acceptor.take() {
                    let _ = acceptor.join();
                }
                let handles: Vec<_> = connections
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .drain(..)
                    .collect();
                for h in handles {
                    let _ = h.join();
                }
            }
            #[cfg(unix)]
            Inner::Reactor(reactor) => reactor.stop(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn spawn_threaded(
    service: Arc<AuditService>,
    listener: TcpListener,
    options: ServerOptions,
) -> Inner {
    let shutdown = Arc::new(AtomicBool::new(false));
    let connections = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let connections = Arc::clone(&connections);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failures (EMFILE, aborted
                // handshakes…) must not kill the daemon.
                let Ok(stream) = stream else { continue };
                let metrics = service.metrics_registry();
                crate::metrics::Metrics::incr(&metrics.connections_accepted);
                crate::metrics::Metrics::incr(&metrics.connections_open);
                let service = Arc::clone(&service);
                let handle = std::thread::spawn(move || {
                    handle_connection(&service, stream, options);
                    crate::metrics::Metrics::decr(&metrics.connections_open);
                });
                let mut registry = connections.lock().unwrap_or_else(PoisonError::into_inner);
                registry.retain(|h: &JoinHandle<()>| !h.is_finished());
                registry.push(handle);
            }
        })
    };
    Inner::Threaded {
        shutdown,
        acceptor: Some(acceptor),
        connections,
    }
}

/// Reads one `\n`-terminated line of at most `limit` bytes.
///
/// `Ok(Some(line))` on success, `Ok(None)` at EOF or timeout,
/// `Err(())` when the line exceeded the limit (protocol violation).
fn read_bounded_line(
    reader: &mut std::io::Take<BufReader<TcpStream>>,
    limit: usize,
) -> Result<Option<String>, ()> {
    reader.set_limit(limit as u64 + 1);
    let mut buf = Vec::new();
    match reader.read_until(b'\n', &mut buf) {
        Ok(0) => Ok(None),
        Ok(_) => {
            if buf.last() != Some(&b'\n') && buf.len() > limit {
                // The limit cut the read before any newline: oversized.
                return Err(());
            }
            Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
        }
        // Timeouts surface as WouldBlock (unix) or TimedOut (windows);
        // either way the peer went silent past the grace period.
        Err(_) => Ok(None),
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

/// Parses one request line and produces the response line to send back,
/// recording the `server.handle` span — the blocking front-end's whole
/// request path.
fn respond_to_line(service: &AuditService, line: &str) -> String {
    match parse_line(line) {
        Ok((request, meta)) => {
            let response = {
                let _span = service
                    .tracer()
                    .start(meta.trace.as_deref(), "server.handle");
                service.handle_with_meta(&request, &meta)
            };
            reply_line(&response, meta.id.as_deref())
        }
        Err(refusal) => refusal,
    }
}

/// The refusal line for an oversized request frame (shared by both
/// front-ends; carries no id — the envelope of an oversized line is
/// unreadable by construction).
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

fn handle_connection(service: &AuditService, stream: TcpStream, options: ServerOptions) {
    // Best-effort: a socket that rejects timeout configuration still
    // serves, it just keeps the old wait-forever behaviour.
    let _ = stream.set_read_timeout(options.read_timeout);
    let _ = stream.set_write_timeout(options.write_timeout);
    let Ok(peer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(peer).take(0);
    let mut writer = stream;
    loop {
        let line = match read_bounded_line(&mut reader, options.max_line_bytes) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(()) => {
                let _ = writer.write_all(oversize_refusal(options.max_line_bytes).as_bytes());
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let out = respond_to_line(service, &line);
        if writer.write_all(out.as_bytes()).is_err() {
            break;
        }
        if writer.flush().is_err() {
            break;
        }
    }
}
