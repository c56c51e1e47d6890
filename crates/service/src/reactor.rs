//! The readiness-reactor front-end: thousands of connections, a handful
//! of threads. It is the daemon's only TCP front-end; where the poller
//! has no backend (any target but Linux), spawning it fails with
//! [`std::io::ErrorKind::Unsupported`].
//!
//! One (or `EPI_REACTOR_THREADS`) reactor thread(s) own the sockets. A
//! reactor never blocks on I/O: it sleeps in the poller
//! ([`epoll_shim::Poller`], level-triggered), reads whatever bytes are
//! ready into a bounded per-connection buffer, and scans them
//! incrementally for `\n`-terminated frames (a frame may span any number
//! of partial reads).
//!
//! # Which thread answers
//!
//! The reactor parses each complete frame and runs the request's first
//! step, [`AuditService::begin`], which answers it when nothing on the
//! way can block:
//!
//! * malformed frames, `ping`, `health`, `stats`, `metrics`, `trace`,
//!   `session` and `budget`;
//! * disclosures that need no decision (negative-gated, unparsable,
//!   a bad state mask, refused by budget or degradation) and
//!   disclosures whose verdict is already in the verdict cache.
//!
//! Such a reply goes onto the connection's write queue and out of the
//! socket in the same loop iteration. Everything else — a disclosure
//! that misses the cache, every `cumulative`, and every request on a
//! durable store — goes, parsed, to a bounded **dispatch queue**. Handler
//! threads pop it and run [`AuditService::finish`], which may block on
//! the decision pool's gate; that is why handlers are separate from
//! reactors. On a durable store even a `session` read can block: the
//! session shard's lock is held across the disclosure log's append and
//! fsync. A handler appends the rendered reply to the connection's write
//! queue and wakes the owning reactor, which drains the queue as the
//! socket accepts bytes (`EPOLLOUT`).
//!
//! # Pipelining and ordering
//!
//! A connection may have up to [`ServerOptions::max_inflight_per_conn`]
//! requests at the handlers; replies are written in **completion**
//! order, and clients match them to requests by envelope `id` (see
//! `docs/PROTOCOL.md`). A reply answered on the reactor completes at
//! once, so it can overtake an earlier request still at a handler. A
//! connection that never exceeds one in-flight request observes the
//! classic strict request→reply ordering.
//!
//! # Backpressure
//!
//! The reactor stops consuming from a connection when any of its
//! budgets is exhausted — in-flight cap reached, write queue past its
//! high-water mark (replies answered on the reactor count too), dispatch
//! queue full, or read buffer full — and resumes when the pressure
//! drains. Sockets are never read into unbounded memory, and one slow or
//! hostile peer only ever stalls itself: eviction (idle timeout, frame
//! deadline, write-queue overflow, connection cap) reclaims what
//! backpressure cannot.

use crate::metrics::Metrics;
use crate::proto::{Request, RequestMeta};
use crate::server::{draining_refusal, oversize_refusal, parse_line, reply_line, ServerOptions};
use crate::service::{AuditService, Deferred, Step};
use epi_trace::Recorder;
use epoll_shim::{Event, Interest, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
const READ_CHUNK: usize = 16 * 1024;
/// Bound on the reactor→handler dispatch queue; when full, connections
/// stop being read (backpressure) instead of buffering without limit.
const DISPATCH_CAPACITY: usize = 128;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn micros(elapsed: Duration) -> u64 {
    elapsed.as_micros().min(u128::from(u64::MAX)) as u64
}

/// [`ServerOptions`] resolved into the reactor's working limits.
#[derive(Clone, Copy)]
struct Tuning {
    max_line_bytes: usize,
    /// Read-buffer cap: one maximal frame plus its newline.
    read_cap: usize,
    max_inflight: usize,
    write_high_water: usize,
    write_overflow: usize,
    idle_timeout: Option<Duration>,
    frame_timeout: Option<Duration>,
    max_connections: usize,
    /// Poll timeout; doubles as the timeout-sweep granularity.
    tick: Duration,
}

impl Tuning {
    fn from_options(options: &ServerOptions) -> Tuning {
        let (idle_timeout, frame_timeout) = (options.idle_timeout, options.frame_timeout);
        let shortest = [idle_timeout, frame_timeout]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(Duration::from_secs(2));
        let tick = (shortest / 4).clamp(Duration::from_millis(10), Duration::from_millis(500));
        Tuning {
            max_line_bytes: options.max_line_bytes,
            read_cap: options.max_line_bytes.saturating_add(1),
            max_inflight: options.max_inflight_per_conn.max(1),
            write_high_water: options.write_high_water.max(1),
            write_overflow: options.write_overflow.max(options.write_high_water.max(1)),
            idle_timeout,
            frame_timeout,
            max_connections: options.max_connections.max(1),
            tick,
        }
    }
}

/// A request the reactor deferred, awaiting a handler thread.
struct Job {
    request: Request,
    meta: RequestMeta,
    deferred: Deferred,
    conn: Arc<ConnShared>,
    /// When the reactor queued it: the start of its `dispatch.wait` span.
    enqueued: Instant,
}

/// The bounded reactor→handler queue.
struct Dispatch {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    capacity: usize,
    shutdown: AtomicBool,
}

impl Dispatch {
    fn new(capacity: usize) -> Dispatch {
        Dispatch {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity,
            shutdown: AtomicBool::new(false),
        }
    }

    /// Enqueues without blocking; `false` when the queue is full (the
    /// caller leaves the frame buffered and pauses the connection).
    fn try_push(&self, job: Job) -> bool {
        {
            let mut queue = lock(&self.queue);
            if queue.len() >= self.capacity {
                return false;
            }
            queue.push_back(job);
        }
        self.ready.notify_one();
        true
    }

    /// Blocks for the next job; `None` once shut down and drained.
    fn pop(&self) -> Option<Job> {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }
}

/// Connection state shared with handler threads (everything a completed
/// request needs to deliver its reply).
struct ConnShared {
    token: u64,
    reactor: usize,
    /// Pending output bytes, appended by handlers, drained by the
    /// owning reactor.
    out: Mutex<Vec<u8>>,
    /// Requests dispatched but not yet completed.
    inflight: AtomicUsize,
    /// Set once the reactor closes the socket; late replies are dropped.
    closed: AtomicBool,
}

/// Per-reactor mailboxes: completion tokens from handlers, adopted
/// connections from the accepting reactor, and the wake pipe that gets
/// the reactor out of its poll sleep.
struct ReactorShared {
    completions: Mutex<Vec<u64>>,
    inbox: Mutex<Vec<TcpStream>>,
    waker: Mutex<UnixStream>,
}

impl ReactorShared {
    fn wake(&self) {
        // A full pipe means a wake is already pending: WouldBlock is
        // success here, and any other failure only costs latency (the
        // reactor still wakes on its next tick).
        let _ = (&*lock(&self.waker)).write(&[1u8]);
    }
}

fn handler_loop(
    service: Arc<AuditService>,
    dispatch: Arc<Dispatch>,
    shareds: Vec<Arc<ReactorShared>>,
) {
    let tracer = service.tracer();
    while let Some(job) = dispatch.pop() {
        let trace = job.meta.trace.as_deref();
        let waited = micros(job.enqueued.elapsed());
        tracer.record(
            trace.map(Arc::from),
            "dispatch.wait",
            tracer.now_micros().saturating_sub(waited),
            waited,
            None,
        );
        let response = {
            let _span = tracer.start(trace, "server.handle");
            service.finish(&job.request, &job.meta, job.deferred)
        };
        let reply = reply_line(&response, job.meta.id.as_deref());
        let conn = job.conn;
        if !conn.closed.load(Ordering::Acquire) {
            lock(&conn.out).extend_from_slice(reply.as_bytes());
        }
        conn.inflight.fetch_sub(1, Ordering::AcqRel);
        let shared = &shareds[conn.reactor];
        lock(&shared.completions).push(conn.token);
        shared.wake();
    }
}

/// Why a connection went away (metrics classification).
enum CloseKind {
    /// Orderly close, peer error, or shutdown — not an eviction.
    Normal,
    /// Idle timeout or frame deadline.
    Idle,
    /// Write-queue overflow (connection-cap overflow is counted at
    /// accept time, before a `Conn` exists).
    Overflow,
}

enum FlushOutcome {
    /// Write queue fully drained.
    Clean,
    /// Bytes remain; the socket would block.
    Pending,
    /// The socket is dead.
    Error,
}

struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    /// Bytes read but not yet consumed as frames (bounded by
    /// [`Tuning::read_cap`] plus one read chunk).
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already scanned and known newline-free, so
    /// partial frames are not rescanned per read.
    scanned: usize,
    /// A complete frame sits in `rbuf` waiting for capacity.
    pending_frame: bool,
    /// Currently counted as backpressure-stalled (edge-detects the
    /// `backpressure_stalls` counter).
    stalled: bool,
    /// When the current unterminated frame started arriving — the
    /// frame-deadline clock. `None` when the buffer tail is clean or
    /// the connection is backpressured (then the server, not the peer,
    /// is the bottleneck).
    frame_start: Option<Instant>,
    last_activity: Instant,
    interest: Interest,
    peer_eof: bool,
    close_after_flush: bool,
}

struct Reactor {
    idx: usize,
    poller: Poller,
    wake_rx: UnixStream,
    listener: Option<TcpListener>,
    shared: Arc<ReactorShared>,
    peers: Vec<Arc<ReactorShared>>,
    service: Arc<AuditService>,
    dispatch: Arc<Dispatch>,
    metrics: Arc<Metrics>,
    tuning: Tuning,
    conns: HashMap<u64, Conn>,
    /// Connections that failed to enqueue on a full dispatch queue,
    /// retried once per loop iteration.
    dispatch_retry: Vec<u64>,
    next_token: u64,
    next_reactor: usize,
    shutdown: Arc<AtomicBool>,
    open_count: Arc<AtomicUsize>,
    /// Graceful drain: stop accepting, finish in-flight requests, refuse
    /// late frames with `draining`, exit once every connection drains
    /// (or the deadline forces the rest closed).
    draining: Arc<AtomicBool>,
    drain_deadline: Arc<Mutex<Option<Instant>>>,
    /// Set by a reactor whose drain deadline expired with connections
    /// still open — the drain was forced, not clean.
    drain_forced: Arc<AtomicBool>,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            let _ = self.poller.wait(&mut events, Some(self.tuning.tick));
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let draining = self.draining.load(Ordering::SeqCst);
            if draining {
                // Stop accepting before processing events, so a pending
                // listener-readable event finds no listener and new
                // peers get connection-refused rather than silence.
                if let Some(listener) = self.listener.take() {
                    let _ = self.poller.delete(listener.as_raw_fd());
                }
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake(),
                    token => {
                        if ev.readable || ev.hangup || ev.error {
                            self.conn_read(token);
                        }
                        self.maintain(token);
                    }
                }
            }
            self.adopt_inbox();
            self.process_completions();
            self.retry_dispatch_blocked();
            if last_sweep.elapsed() >= self.tuning.tick {
                self.sweep();
                last_sweep = Instant::now();
            }
            if draining {
                self.drain_pass();
                if self.conns.is_empty() {
                    break;
                }
                let deadline = *lock(&self.drain_deadline);
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    // Connections still open at the deadline are forced
                    // closed by teardown; the drain was not clean.
                    self.drain_forced.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
        self.teardown();
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.as_ref().map(|l| l.accept()) {
                None => return,
                Some(Ok((stream, _))) => stream,
                Some(Err(e)) if e.kind() == ErrorKind::WouldBlock => break,
                Some(Err(e)) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept failures (EMFILE, aborted
                // handshakes…) must not kill the daemon.
                Some(Err(_)) => break,
            };
            Metrics::incr(&self.metrics.connections_accepted);
            if self.open_count.load(Ordering::Acquire) >= self.tuning.max_connections {
                Metrics::incr(&self.metrics.connections_evicted_overflow);
                drop(stream);
                continue;
            }
            self.open_count.fetch_add(1, Ordering::AcqRel);
            Metrics::incr(&self.metrics.connections_open);
            let target = self.next_reactor % self.peers.len();
            self.next_reactor = self.next_reactor.wrapping_add(1);
            if target == self.idx {
                self.adopt(stream);
            } else {
                let peer = &self.peers[target];
                lock(&peer.inbox).push(stream);
                peer.wake();
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        let undo_count = |open_count: &AtomicUsize, metrics: &Metrics| {
            open_count.fetch_sub(1, Ordering::AcqRel);
            Metrics::decr(&metrics.connections_open);
        };
        if stream.set_nonblocking(true).is_err() {
            undo_count(&self.open_count, &self.metrics);
            return;
        }
        // Replies are single short writes; Nagle only adds latency here.
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            undo_count(&self.open_count, &self.metrics);
            return;
        }
        let shared = Arc::new(ConnShared {
            token,
            reactor: self.idx,
            out: Mutex::new(Vec::new()),
            inflight: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        });
        self.conns.insert(
            token,
            Conn {
                stream,
                shared,
                rbuf: Vec::new(),
                scanned: 0,
                pending_frame: false,
                stalled: false,
                frame_start: None,
                last_activity: Instant::now(),
                interest: Interest::READ,
                peer_eof: false,
                close_after_flush: false,
            },
        );
    }

    fn adopt_inbox(&mut self) {
        let streams: Vec<TcpStream> = lock(&self.shared.inbox).drain(..).collect();
        for stream in streams {
            self.adopt(stream);
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn process_completions(&mut self) {
        let mut tokens = std::mem::take(&mut *lock(&self.shared.completions));
        if tokens.is_empty() {
            return;
        }
        tokens.sort_unstable();
        tokens.dedup();
        for token in tokens {
            self.maintain(token);
        }
    }

    fn retry_dispatch_blocked(&mut self) {
        if self.dispatch_retry.is_empty() {
            return;
        }
        let mut tokens = std::mem::take(&mut self.dispatch_retry);
        tokens.sort_unstable();
        tokens.dedup();
        for token in tokens {
            self.maintain(token);
        }
    }

    /// Nonblocking read into the bounded buffer; flags EOF and records
    /// the `conn.read` span.
    fn conn_read(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut span = self.service.tracer().start(None, "conn.read");
        let mut total = 0usize;
        let mut dead = false;
        loop {
            if conn.rbuf.len() >= self.tuning.read_cap {
                break;
            }
            let mut chunk = [0u8; READ_CHUNK];
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    total += n;
                    if n < READ_CHUNK {
                        // Short read: the socket is (almost certainly)
                        // drained; if not, level-triggering re-reports.
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        span.detail(format!("bytes={total}"));
        drop(span);
        if total > 0 {
            conn.last_activity = Instant::now();
            Metrics::observe_high_water(
                &self.metrics.read_buffer_high_water,
                conn.rbuf.len() as u64,
            );
        }
        if dead {
            self.close(token, CloseKind::Normal);
        }
    }

    /// The per-connection state pump: flush output, consume frames,
    /// settle close-vs-continue, update poller interest. Idempotent —
    /// called after reads, completions, writability, and retries.
    fn maintain(&mut self, token: u64) {
        let draining = self.draining.load(Ordering::SeqCst);
        let (flushed, blocked) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let tracer = self.service.tracer();
            match flush_conn(conn, tracer, &self.metrics) {
                FlushOutcome::Error => (FlushOutcome::Error, false),
                _ => {
                    let blocked = dispatch_frames(
                        conn,
                        &self.service,
                        &self.dispatch,
                        &self.metrics,
                        &self.tuning,
                        draining,
                    );
                    // Replies answered here go out now, not on the next
                    // `EPOLLOUT`.
                    (flush_conn(conn, tracer, &self.metrics), blocked)
                }
            }
        };
        if matches!(flushed, FlushOutcome::Error) {
            self.close(token, CloseKind::Normal);
            return;
        }
        if blocked {
            self.dispatch_retry.push(token);
        }
        let mut close_as = None;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let out_len = lock(&conn.shared.out).len();
            let inflight = conn.shared.inflight.load(Ordering::Acquire);
            let drained = out_len == 0 && inflight == 0;
            if out_len > self.tuning.write_overflow {
                close_as = Some(CloseKind::Overflow);
            } else if (conn.close_after_flush && drained)
                || (conn.peer_eof && drained && !conn.pending_frame && conn.rbuf.is_empty())
            {
                close_as = Some(CloseKind::Normal);
            } else {
                let rbuf_full = conn.rbuf.len() >= self.tuning.read_cap;
                let stalled = conn.pending_frame || rbuf_full;
                if stalled && !conn.stalled {
                    Metrics::incr(&self.metrics.backpressure_stalls);
                }
                conn.stalled = stalled;
                let want = Interest {
                    readable: !conn.peer_eof && !conn.close_after_flush && !rbuf_full,
                    writable: out_len > 0,
                };
                if want != conn.interest {
                    if self
                        .poller
                        .modify(conn.stream.as_raw_fd(), token, want)
                        .is_ok()
                    {
                        conn.interest = want;
                    } else {
                        close_as = Some(CloseKind::Normal);
                    }
                }
            }
        }
        if let Some(kind) = close_as {
            self.close(token, kind);
        }
    }

    /// Evicts dribblers past the frame deadline and quiescent
    /// connections past the idle timeout.
    fn sweep(&mut self) {
        let now = Instant::now();
        let mut evict: Vec<u64> = Vec::new();
        for (&token, conn) in &self.conns {
            if let (Some(deadline), Some(start)) = (self.tuning.frame_timeout, conn.frame_start) {
                if now.duration_since(start) > deadline {
                    evict.push(token);
                    continue;
                }
            }
            if let Some(idle) = self.tuning.idle_timeout {
                // "Idle" = the peer owes us the next move: nothing in
                // flight, no buffered frame awaiting capacity, and no
                // activity (reads *or* write progress) for the window.
                // A stalled write queue lands here too — `last_activity`
                // only advances when the peer actually accepts bytes.
                let inflight = conn.shared.inflight.load(Ordering::Acquire);
                if inflight == 0
                    && !conn.pending_frame
                    && now.duration_since(conn.last_activity) > idle
                {
                    evict.push(token);
                }
            }
        }
        for token in evict {
            self.close(token, CloseKind::Idle);
        }
    }

    /// One drain iteration: pump every connection (so buffered frames
    /// are refused and output keeps flushing even without fresh socket
    /// events), then close the ones with nothing left to deliver — no
    /// pending output, no requests in flight, no buffered frame.
    fn drain_pass(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.maintain(token);
        }
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                lock(&conn.shared.out).is_empty()
                    && conn.shared.inflight.load(Ordering::Acquire) == 0
                    && !conn.pending_frame
            })
            .map(|(&token, _)| token)
            .collect();
        for token in done {
            self.close(token, CloseKind::Normal);
        }
    }

    fn close(&mut self, token: u64, kind: CloseKind) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        conn.shared.closed.store(true, Ordering::Release);
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        self.open_count.fetch_sub(1, Ordering::AcqRel);
        Metrics::decr(&self.metrics.connections_open);
        match kind {
            CloseKind::Idle => Metrics::incr(&self.metrics.connections_evicted_idle),
            CloseKind::Overflow => Metrics::incr(&self.metrics.connections_evicted_overflow),
            CloseKind::Normal => {}
        }
    }

    fn teardown(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close(token, CloseKind::Normal);
        }
        let orphans: Vec<TcpStream> = lock(&self.shared.inbox).drain(..).collect();
        for stream in orphans {
            drop(stream);
            self.open_count.fetch_sub(1, Ordering::AcqRel);
            Metrics::decr(&self.metrics.connections_open);
        }
    }
}

/// Writes as much pending output as the socket accepts, recording the
/// `conn.write` span.
fn flush_conn(conn: &mut Conn, tracer: &Recorder, metrics: &Metrics) -> FlushOutcome {
    let mut out = lock(&conn.shared.out);
    if out.is_empty() {
        return FlushOutcome::Clean;
    }
    Metrics::observe_high_water(&metrics.write_buffer_high_water, out.len() as u64);
    let mut span = tracer.start(None, "conn.write");
    let mut written = 0usize;
    let mut dead = false;
    loop {
        match conn.stream.write(&out[written..]) {
            Ok(0) => {
                dead = true;
                break;
            }
            Ok(n) => {
                written += n;
                if written == out.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                dead = true;
                break;
            }
        }
    }
    out.drain(..written);
    span.detail(format!("bytes={written}"));
    drop(span);
    if written > 0 {
        conn.last_activity = Instant::now();
    }
    if dead {
        FlushOutcome::Error
    } else if out.is_empty() {
        FlushOutcome::Clean
    } else {
        FlushOutcome::Pending
    }
}

/// Consumes as many complete frames from `rbuf` as capacity allows,
/// answering each on the spot or submitting it to the dispatch queue
/// ([`try_submit`]). Returns `true` when a frame was held back
/// *specifically* by a full dispatch queue (the caller schedules a
/// retry). Also advances the frame-deadline clock.
///
/// While `draining`, frames are not submitted at all: each complete
/// frame is answered inline with a `draining` refusal (echoing the
/// envelope `id`), so every byte the peer managed to send still gets a
/// reply before the connection closes.
fn dispatch_frames(
    conn: &mut Conn,
    service: &AuditService,
    dispatch: &Dispatch,
    metrics: &Metrics,
    tuning: &Tuning,
    draining: bool,
) -> bool {
    if conn.close_after_flush {
        conn.rbuf.clear();
        conn.scanned = 0;
        conn.pending_frame = false;
        conn.frame_start = None;
        return false;
    }
    let mut consumed = 0usize;
    let mut blocked = false;
    conn.pending_frame = false;
    loop {
        let from = consumed.max(conn.scanned);
        let newline = if from >= conn.rbuf.len() {
            None
        } else {
            conn.rbuf[from..].iter().position(|&b| b == b'\n')
        };
        match newline {
            None => {
                conn.scanned = conn.rbuf.len();
                let tail = conn.rbuf.len() - consumed;
                if tail > tuning.max_line_bytes {
                    refuse_oversize(conn, tuning);
                    consumed = 0;
                } else if conn.peer_eof && tail > 0 {
                    if draining {
                        let end = conn.rbuf.len();
                        refuse_draining(conn, consumed, end);
                        consumed = end;
                        break;
                    }
                    // EOF with an unterminated final line: serve it, as
                    // the blocking front-end always has.
                    let end = conn.rbuf.len();
                    match try_submit(conn, service, dispatch, metrics, tuning, consumed, end) {
                        Submit::Sent => consumed = conn.rbuf.len(),
                        Submit::NoCapacity => conn.pending_frame = true,
                        Submit::QueueFull => {
                            conn.pending_frame = true;
                            blocked = true;
                        }
                    }
                }
                break;
            }
            Some(rel) => {
                let nl = from + rel;
                if nl - consumed > tuning.max_line_bytes {
                    refuse_oversize(conn, tuning);
                    consumed = 0;
                    break;
                }
                if conn.rbuf[consumed..nl]
                    .iter()
                    .all(|b| b.is_ascii_whitespace())
                {
                    consumed = nl + 1;
                    continue;
                }
                if draining {
                    refuse_draining(conn, consumed, nl);
                    consumed = nl + 1;
                    continue;
                }
                match try_submit(conn, service, dispatch, metrics, tuning, consumed, nl) {
                    Submit::Sent => consumed = nl + 1,
                    Submit::NoCapacity => {
                        conn.pending_frame = true;
                        break;
                    }
                    Submit::QueueFull => {
                        conn.pending_frame = true;
                        blocked = true;
                        break;
                    }
                }
            }
        }
    }
    if consumed > 0 {
        conn.rbuf.drain(..consumed);
        conn.scanned = conn.scanned.saturating_sub(consumed);
    }
    if conn.rbuf.is_empty() || conn.pending_frame || conn.close_after_flush {
        // Tail is clean, or the stall is ours (backpressure pauses the
        // peer's frame-deadline clock).
        conn.frame_start = None;
    } else if conn.frame_start.is_none() {
        conn.frame_start = Some(Instant::now());
    }
    blocked
}

enum Submit {
    Sent,
    /// This connection's own budget (in-flight cap or write queue) is
    /// exhausted; its completions will resume it.
    NoCapacity,
    /// The shared dispatch queue is full; a retry must be scheduled.
    QueueFull,
}

/// Serves one frame: answers it on the reactor when its first step can
/// ([`AuditService::begin`]), else queues it for a handler. A frame the
/// full dispatch queue turns away stays in `rbuf` to be parsed again:
/// its first step consumed nothing.
fn try_submit(
    conn: &mut Conn,
    service: &AuditService,
    dispatch: &Dispatch,
    metrics: &Metrics,
    tuning: &Tuning,
    start: usize,
    end: usize,
) -> Submit {
    if conn.shared.inflight.load(Ordering::Acquire) >= tuning.max_inflight {
        return Submit::NoCapacity;
    }
    if lock(&conn.shared.out).len() >= tuning.write_high_water {
        return Submit::NoCapacity;
    }
    let line = String::from_utf8_lossy(&conn.rbuf[start..end]);
    let (request, meta) = match parse_line(&line) {
        Ok(parsed) => parsed,
        Err(refusal) => {
            lock(&conn.shared.out).extend_from_slice(refusal.as_bytes());
            return Submit::Sent;
        }
    };
    let tracer = service.tracer();
    let (started, clock) = (tracer.now_micros(), Instant::now());
    let deferred = match service.begin(&request, &meta) {
        Step::Done(response) => {
            tracer.record(
                meta.trace.as_deref().map(Arc::from),
                "server.handle",
                started,
                micros(clock.elapsed()),
                None,
            );
            Metrics::incr(&metrics.requests_inline);
            let reply = reply_line(&response, meta.id.as_deref());
            lock(&conn.shared.out).extend_from_slice(reply.as_bytes());
            return Submit::Sent;
        }
        Step::Defer(deferred) => deferred,
    };
    // Count the request in flight *before* publishing it: the handler's
    // decrement must never observe the pre-increment value.
    conn.shared.inflight.fetch_add(1, Ordering::AcqRel);
    let job = Job {
        request,
        meta,
        deferred,
        conn: Arc::clone(&conn.shared),
        enqueued: Instant::now(),
    };
    if dispatch.try_push(job) {
        Submit::Sent
    } else {
        conn.shared.inflight.fetch_sub(1, Ordering::AcqRel);
        Submit::QueueFull
    }
}

/// Answers a frame that arrived after drain began with a `draining`
/// error (echoing its envelope `id`) instead of executing it.
fn refuse_draining(conn: &mut Conn, start: usize, end: usize) {
    let line = String::from_utf8_lossy(&conn.rbuf[start..end]).into_owned();
    lock(&conn.shared.out).extend_from_slice(draining_refusal(&line).as_bytes());
}

fn refuse_oversize(conn: &mut Conn, tuning: &Tuning) {
    lock(&conn.shared.out).extend_from_slice(oversize_refusal(tuning.max_line_bytes).as_bytes());
    conn.close_after_flush = true;
    conn.rbuf.clear();
    conn.scanned = 0;
    conn.pending_frame = false;
    conn.frame_start = None;
}

/// The running reactor front-end: reactor threads plus the handler
/// pool. Owned by [`crate::server::Server`].
pub(crate) struct ReactorServer {
    shutdown: Arc<AtomicBool>,
    dispatch: Arc<Dispatch>,
    shareds: Vec<Arc<ReactorShared>>,
    reactors: Vec<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    stopped: bool,
    draining: Arc<AtomicBool>,
    drain_deadline: Arc<Mutex<Option<Instant>>>,
    drain_forced: Arc<AtomicBool>,
}

impl ReactorServer {
    pub(crate) fn spawn(
        service: Arc<AuditService>,
        listener: TcpListener,
        options: &ServerOptions,
    ) -> io::Result<ReactorServer> {
        let tuning = Tuning::from_options(options);
        let threads = options.resolved_reactor_threads();
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let drain_deadline = Arc::new(Mutex::new(None));
        let drain_forced = Arc::new(AtomicBool::new(false));
        let open_count = Arc::new(AtomicUsize::new(0));
        let dispatch = Arc::new(Dispatch::new(DISPATCH_CAPACITY));
        let metrics = service.metrics_registry();

        let mut shareds = Vec::with_capacity(threads);
        let mut wake_rxs = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            shareds.push(Arc::new(ReactorShared {
                completions: Mutex::new(Vec::new()),
                inbox: Mutex::new(Vec::new()),
                waker: Mutex::new(tx),
            }));
            wake_rxs.push(rx);
        }

        // Build every poller before spawning anything, so an unsupported
        // platform (or fd exhaustion) fails the whole construction
        // cleanly, with no thread left behind.
        let mut pollers = Vec::with_capacity(threads);
        for (i, rx) in wake_rxs.iter().enumerate() {
            let poller = Poller::new()?;
            poller.add(rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
            if i == 0 {
                poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
            }
            pollers.push(poller);
        }

        let handlers: Vec<JoinHandle<()>> = (0..options.handler_threads.max(1))
            .map(|_| {
                let service = Arc::clone(&service);
                let dispatch = Arc::clone(&dispatch);
                let shareds = shareds.clone();
                std::thread::spawn(move || handler_loop(service, dispatch, shareds))
            })
            .collect();

        let mut listener_slot = Some(listener);
        let reactors: Vec<JoinHandle<()>> = pollers
            .into_iter()
            .zip(wake_rxs)
            .enumerate()
            .map(|(idx, (poller, wake_rx))| {
                let reactor = Reactor {
                    idx,
                    poller,
                    wake_rx,
                    listener: if idx == 0 { listener_slot.take() } else { None },
                    shared: Arc::clone(&shareds[idx]),
                    peers: shareds.clone(),
                    service: Arc::clone(&service),
                    dispatch: Arc::clone(&dispatch),
                    metrics: Arc::clone(&metrics),
                    tuning,
                    conns: HashMap::new(),
                    dispatch_retry: Vec::new(),
                    next_token: FIRST_CONN_TOKEN,
                    next_reactor: 0,
                    shutdown: Arc::clone(&shutdown),
                    open_count: Arc::clone(&open_count),
                    draining: Arc::clone(&draining),
                    drain_deadline: Arc::clone(&drain_deadline),
                    drain_forced: Arc::clone(&drain_forced),
                };
                std::thread::spawn(move || reactor.run())
            })
            .collect();

        Ok(ReactorServer {
            shutdown,
            dispatch,
            shareds,
            reactors,
            handlers,
            stopped: false,
            draining,
            drain_deadline,
            drain_forced,
        })
    }

    /// Gracefully drains the front-end: stops accepting, answers frames
    /// that arrive after this call with `draining` errors, lets every
    /// in-flight pipelined request complete and flush, then tears down.
    /// Returns `true` when every connection drained before `timeout`;
    /// `false` when the deadline forced the stragglers closed.
    pub(crate) fn drain(&mut self, timeout: Duration) -> bool {
        if self.stopped {
            return true;
        }
        self.stopped = true;
        *lock(&self.drain_deadline) = Some(Instant::now() + timeout);
        self.draining.store(true, Ordering::SeqCst);
        for shared in &self.shareds {
            shared.wake();
        }
        // Reactors exit on their own once drained (or at the deadline).
        // Handlers stay alive until the reactors are gone so in-flight
        // requests can still deliver their replies.
        for handle in self.reactors.drain(..) {
            let _ = handle.join();
        }
        self.dispatch.stop();
        for handle in self.handlers.drain(..) {
            let _ = handle.join();
        }
        !self.drain_forced.load(Ordering::SeqCst)
    }

    pub(crate) fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shutdown.store(true, Ordering::SeqCst);
        for shared in &self.shareds {
            shared.wake();
        }
        for handle in self.reactors.drain(..) {
            let _ = handle.join();
        }
        self.dispatch.stop();
        for handle in self.handlers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.stop();
    }
}
