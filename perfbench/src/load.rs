//! The load generator: one thread per connection drives a workload's
//! request stream over loopback TCP, closed- or open-loop, and checks
//! every reply against the oracle as it arrives.
//!
//! The same [`Conn`] also feeds requests to the daemon in-process
//! ([`Conn::prepare`] / [`Conn::settle`]), so the durable pre-written
//! log and the in-process reference timings go through exactly the
//! oracle the TCP path uses.

use crate::oracle::{check, Deferred, Expect, Outcome};
use crate::workload::{Op, Slot, SlotGen, Workload};
use epi_core::WorldSet;
use epi_service::knowledge_digest;
use epoll_shim::{Interest, Poller};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a phase may wait for its last replies before the stragglers
/// count as transport failures.
const DRAIN_CAP: Duration = Duration::from_secs(60);

/// Deferred checks each connection reserves room for up front. Only the
/// pages a run writes become resident, so `rss_peak_mb` grows with the
/// checks a run defers instead of jumping where the list would
/// reallocate.
const DEFERRED_RESERVE: usize = 1 << 18;

/// The oracle's model of one user's session.
#[derive(Clone)]
struct UserModel {
    disclosures: u64,
    knowledge: WorldSet,
    last_state: u32,
    in_flight: bool,
}

/// A prepared request: its line and what its reply must say.
pub struct Prepared {
    /// Stream position.
    pub j: u64,
    /// Connection-local user.
    pub user: usize,
    /// The NDJSON request line (no trailing newline).
    pub line: String,
    /// Whether the request is a read (`session`/`budget`/`cumulative`).
    pub read: bool,
    /// The oracle's expectation.
    pub expect: Expect,
    /// A disclosure's user model from before it, restored if the
    /// daemon refuses the disclosure (a refused disclosure is not
    /// recorded).
    undo: Option<UserModel>,
}

/// Counts over everything a connection sent.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// `error` replies (any code).
    pub error_replies: u64,
    /// Replies contradicting the oracle.
    pub mismatches: u64,
    /// Requests lost to transport errors or drain timeouts.
    pub transport: u64,
    /// Requests prepared while an earlier request of the same user was
    /// still unanswered (the stream's ordering assumption broke).
    pub user_conflicts: u64,
    /// Disclosures answered.
    pub disclosures: u64,
    /// Disclosures excused by the negative-result rule (cumulative
    /// reads the rule excuses are not counted).
    pub gated: u64,
    /// Disclosures whose verdict cites an SOS certificate.
    pub sos_certified: u64,
    /// Request bytes written, newlines included.
    pub bytes_out: u64,
    /// Reply bytes read, newlines included.
    pub bytes_in: u64,
}

impl Tally {
    /// Failed requests: error replies, mismatches and transport losses.
    pub fn failed(&self) -> u64 {
        self.error_replies + self.mismatches + self.transport
    }
}

/// One phase of a connection's run.
#[derive(Clone, Copy, Debug)]
pub enum Phase {
    /// Keep `window` requests in flight for `secs`. Only per-window
    /// completion counts are kept, so a fast closed loop does not grow
    /// the generator's memory with its throughput.
    Closed {
        /// Duration.
        secs: f64,
        /// Pipeline window.
        window: usize,
    },
    /// Send one request every `interval` on each connection (the
    /// connections staggered evenly) for `secs`; every reply's
    /// [`Sample`] is kept, its latency counted from the request's due
    /// time.
    Open {
        /// Duration.
        secs: f64,
        /// Gap between one connection's sends.
        interval: Duration,
    },
}

/// One successful reply, in nanoseconds from its phase's start.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the request was due (open loop) or sent (closed loop).
    pub due_ns: u64,
    /// When its reply arrived.
    pub done_ns: u64,
    /// Whether it was a read.
    pub read: bool,
}

impl Sample {
    /// Its latency, timed from when it was due.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }
}

/// What one phase measured on one connection.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Successful replies in the phase.
    pub ok: u64,
    /// Seconds from the phase start to its last reply.
    pub busy_secs: f64,
    /// Successful replies completed in each of the `WINDOWS` windows.
    pub done: [u64; WINDOWS],
    /// Every successful reply (open-loop phases).
    pub samples: Vec<Sample>,
    /// How late each open-loop send left, nanoseconds.
    pub late_ns: Vec<u64>,
    /// Requests still unanswered when the open-loop phase ended.
    pub backlog_end: u64,
    /// CPU time the hypervisor took from the benchmark's machine (steal) in each of
    /// the phase's `WINDOWS` windows, as a share of the window's CPU time.
    pub steal: Vec<f64>,
}

/// Equal windows each measured phase is split into.
pub const WINDOWS: usize = 20;

/// Machine-wide steal time so far, in clock ticks (`/proc/stat`); 0
/// where the kernel does not report it.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Records the steal share of each window as the sender crosses window
/// boundaries.
struct StealClock {
    start: Instant,
    width: Duration,
    last: u64,
    next: usize,
    shares: Vec<f64>,
}

impl StealClock {
    fn new(start: Instant, secs: f64) -> StealClock {
        StealClock {
            start,
            width: Duration::from_secs_f64(secs / WINDOWS as f64),
            last: steal_ticks(),
            next: 1,
            shares: Vec::with_capacity(WINDOWS),
        }
    }

    /// Closes every window that ended by now.
    fn tick(&mut self) {
        let now = Instant::now();
        while self.next <= WINDOWS && now >= self.start + self.width * self.next as u32 {
            let ticks = steal_ticks();
            // /proc/stat counts USER_HZ (100) ticks per CPU-second.
            let cpu_ticks = self.width.as_secs_f64() * 100.0 * crate::daemon::workers() as f64;
            self.shares
                .push(ticks.saturating_sub(self.last) as f64 / cpu_ticks);
            self.last = ticks;
            self.next += 1;
        }
    }

    /// The next window boundary, if any remain.
    fn boundary(&self) -> Option<Instant> {
        (self.next <= WINDOWS).then(|| self.start + self.width * self.next as u32)
    }
}

struct Outstanding {
    due: Instant,
    request: Prepared,
}

/// One connection's generator, oracle model and tallies.
#[derive(Clone)]
pub struct Conn {
    /// Connection index.
    pub c: usize,
    gen: SlotGen,
    users: Vec<UserModel>,
    /// Attach a `trace` id to every request.
    pub traced: bool,
    /// Keep up to this many request and reply lines (traced runs).
    pub keep_lines: usize,
    /// Kept request lines.
    pub request_lines: Vec<String>,
    /// Kept reply lines.
    pub reply_lines: Vec<String>,
    /// Flip the first checked expectation (oracle self-test).
    pub inject_wrong: bool,
    /// Counts.
    pub tally: Tally,
    /// Checks that need the offline pipeline, resolved after the run.
    pub deferred: Vec<Deferred>,
    /// The first few mismatch descriptions.
    pub mismatch_notes: Vec<String>,
}

impl Conn {
    /// Connection `c` of workload `wl`.
    pub fn new(wl: &Workload, c: usize) -> Conn {
        let universe = wl.cube.size();
        Conn {
            c,
            gen: SlotGen::new(wl, c),
            users: vec![
                UserModel {
                    disclosures: 0,
                    knowledge: WorldSet::full(universe),
                    last_state: 0,
                    in_flight: false,
                };
                wl.spec.users_per_conn
            ],
            traced: false,
            keep_lines: 0,
            request_lines: Vec::new(),
            reply_lines: Vec::new(),
            inject_wrong: false,
            tally: Tally::default(),
            deferred: Vec::with_capacity(DEFERRED_RESERVE),
            mismatch_notes: Vec::new(),
        }
    }

    /// Pairs the stream had to send a second time.
    pub fn pair_repeats(&self) -> u64 {
        self.gen.repeats
    }

    /// Every user this connection has disclosed for, with the oracle's
    /// disclosure count.
    pub fn known_users(&self) -> Vec<(usize, u64)> {
        self.users
            .iter()
            .enumerate()
            .filter(|(_, m)| m.disclosures > 0)
            .map(|(u, m)| (u, m.disclosures))
            .collect()
    }

    /// The oracle's knowledge digest of local user `u`.
    pub fn model_digest(&self, u: usize) -> String {
        format!("{:08x}", knowledge_digest(&self.users[u].knowledge))
    }

    /// Generates the next request, advances the oracle's model as the
    /// daemon will, and renders the request line.
    pub fn prepare(&mut self, wl: &Workload) -> Prepared {
        let Slot { j, user, op } = self.gen.next(wl);
        let name = Workload::user_name(self.c, user);
        let model = &mut self.users[user];
        if model.in_flight {
            self.tally.user_conflicts += 1;
        }
        let undo = matches!(op, Op::Disclose { .. }).then(|| model.clone());
        model.in_flight = true;
        let mut line = String::with_capacity(256);
        let (read, expect) = match op {
            Op::Disclose { pair, state } => {
                let p = pair.get(wl);
                let _ = write!(
                    line,
                    r#"{{"op":"disclose","user":"{name}","time":{j},"query":"{}","state_mask":{state},"audit_query":"{}""#,
                    p.query_text, p.audit_text
                );
                let disclosed = p.disclosed(state);
                model.disclosures += 1;
                model.knowledge.intersect_with(&disclosed);
                model.last_state = state;
                let answer = p.q.contains(epi_core::WorldId(state));
                let expect = if p.gated(state) {
                    Expect::Gated
                } else {
                    match p.expected[usize::from(answer)].clone() {
                        Some(finding) => Expect::Finding(finding),
                        None => Expect::Decide {
                            a: p.a.clone(),
                            b: disclosed,
                        },
                    }
                };
                (false, expect)
            }
            Op::Session => {
                let _ = write!(line, r#"{{"op":"session","user":"{name}""#);
                let expect = Expect::Session {
                    disclosures: model.disclosures,
                    digest: format!("{:08x}", knowledge_digest(&model.knowledge)),
                };
                (true, expect)
            }
            Op::Budget => {
                let _ = write!(line, r#"{{"op":"budget","user":"{name}""#);
                (
                    true,
                    Expect::Budget {
                        disclosures: model.disclosures,
                    },
                )
            }
            Op::Cumulative => {
                let audit = &wl.vocab[0];
                let _ = write!(
                    line,
                    r#"{{"op":"cumulative","user":"{name}","audit_query":"{}""#,
                    audit.audit_text
                );
                let expect = if model.disclosures < 2 {
                    Expect::NoCumulative
                } else if audit.gated(model.last_state) {
                    Expect::Gated
                } else {
                    Expect::Decide {
                        a: audit.a.clone(),
                        b: model.knowledge.clone(),
                    }
                };
                (true, expect)
            }
        };
        let id = format!("c{}-{j}", self.c);
        let _ = write!(line, r#","id":"{id}""#);
        if self.traced {
            let _ = write!(line, r#","trace":"{id}""#);
        }
        line.push('}');
        Prepared {
            j,
            user,
            line,
            read,
            expect,
            undo,
        }
    }

    /// Checks one reply against its expectation and tallies it; returns
    /// whether it counts as a success.
    pub fn settle(&mut self, request: &Prepared, reply: &str) -> bool {
        let (user, expect) = (request.user, &request.expect);
        self.users[user].in_flight = false;
        self.tally.bytes_in += reply.len() as u64 + 1;
        if self.reply_lines.len() < self.keep_lines {
            self.reply_lines.push(reply.to_owned());
        }
        let flip = self.inject_wrong && expect.is_verdict();
        if flip {
            self.inject_wrong = false;
        }
        match check(expect, reply, flip) {
            Outcome::Ok {
                disclosure,
                gated,
                sos,
            } => {
                if disclosure {
                    self.tally.disclosures += 1;
                }
                if gated && disclosure {
                    self.tally.gated += 1;
                }
                if sos {
                    self.tally.sos_certified += 1;
                }
                true
            }
            Outcome::Deferred(d) => {
                self.tally.disclosures += u64::from(d.disclosure);
                if d.sos {
                    self.tally.sos_certified += 1;
                }
                self.deferred.push(d);
                true
            }
            Outcome::ErrorReply(note) => {
                if let Some(before) = &request.undo {
                    self.users[user] = before.clone();
                }
                self.tally.error_replies += 1;
                self.note(note);
                false
            }
            Outcome::Mismatch(note) => {
                self.tally.mismatches += 1;
                self.note(note);
                false
            }
        }
    }

    /// Marks local user `u` as having nothing in flight (its request
    /// was lost).
    fn release(&mut self, u: usize) {
        self.users[u].in_flight = false;
    }

    fn note(&mut self, note: String) {
        if self.mismatch_notes.len() < 8 {
            self.mismatch_notes.push(note);
        }
    }
}

/// One connection's share of a run: its generator and oracle, the
/// write half of its socket, and the requests it has in flight.
struct Lane<'a> {
    conn: &'a mut Conn,
    writer: TcpStream,
    out: HashMap<u64, Outstanding>,
    stats: PhaseStats,
    phase_start: Instant,
    window_ns: f64,
    keep_samples: bool,
    /// Closed loop: keep `window` requests in flight until this instant.
    refill_until: Option<Instant>,
    window: usize,
    last_reply: Option<Instant>,
    broken: bool,
    pending: Vec<u8>,
}

impl Lane<'_> {
    fn queue(&mut self, wl: &Workload, due: Instant) {
        let p = self.conn.prepare(wl);
        if self.conn.request_lines.len() < self.conn.keep_lines {
            self.conn.request_lines.push(p.line.clone());
        }
        self.pending.extend_from_slice(p.line.as_bytes());
        self.pending.push(b'\n');
        self.conn.tally.attempted += 1;
        self.out.insert(p.j, Outstanding { due, request: p });
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if !self.broken && self.writer.write_all(&self.pending).is_err() {
            self.broken = true;
        }
        self.conn.tally.bytes_out += self.pending.len() as u64;
        self.pending.clear();
    }

    /// Tops the closed-loop window back up.
    fn refill(&mut self, wl: &Workload) {
        let Some(until) = self.refill_until else {
            return;
        };
        let now = Instant::now();
        if now >= until || self.broken {
            return;
        }
        while self.out.len() < self.window {
            self.queue(wl, now);
        }
        self.flush();
    }

    fn on_reply(&mut self, line: &str, got: Instant) {
        let c = self.conn.c;
        let Some(o) = reply_id(line, c).and_then(|j| self.out.remove(&j)) else {
            self.conn.tally.mismatches += 1;
            self.conn
                .note(format!("reply for no request in flight: {line}"));
            return;
        };
        self.last_reply = Some(got);
        if self.conn.settle(&o.request, line) {
            let since =
                |t: Instant| t.saturating_duration_since(self.phase_start).as_nanos() as u64;
            let sample = Sample {
                due_ns: since(o.due),
                done_ns: since(got),
                read: o.request.read,
            };
            self.stats.ok += 1;
            let window = (sample.done_ns as f64 / self.window_ns) as usize;
            if let Some(n) = self.stats.done.get_mut(window) {
                *n += 1;
            }
            if self.keep_samples {
                self.stats.samples.push(sample);
            }
        }
    }
}

fn lock<'l, 'a>(lane: &'l Mutex<Lane<'a>>) -> MutexGuard<'l, Lane<'a>> {
    lane.lock()
        .expect("a generator thread panicked while holding a lane")
}

/// Drives `conns`, one socket each, through `phases`.
///
/// The load comes from two threads: the calling thread sends (it sleeps
/// to each open-loop due time, and starts each closed-loop window), and
/// one receiver thread blocks in `epoll` on every socket, checks each
/// reply the moment it arrives and tops closed-loop windows back up.
/// Returns each connection's stats per phase.
pub fn drive(
    wl: &Workload,
    conns: &mut [Conn],
    streams: Vec<TcpStream>,
    phases: &[Phase],
) -> Result<Vec<Vec<PhaseStats>>, String> {
    let mut readers = Vec::with_capacity(streams.len());
    let mut lanes = Vec::with_capacity(streams.len());
    for (conn, writer) in conns.iter_mut().zip(streams) {
        let reader = writer
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        reader
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        writer
            .set_write_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("write timeout: {e}"))?;
        readers.push(reader);
        lanes.push(Mutex::new(Lane {
            conn,
            writer,
            out: HashMap::new(),
            stats: PhaseStats::default(),
            phase_start: Instant::now(),
            window_ns: 1.0,
            keep_samples: false,
            refill_until: None,
            window: 0,
            last_reply: None,
            broken: false,
            pending: Vec::new(),
        }));
    }
    let done = AtomicBool::new(false);
    let per_phase = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(wl, &lanes, readers, &done));
        let per_phase: Vec<Vec<PhaseStats>> =
            phases.iter().map(|&p| run_phase(wl, &lanes, p)).collect();
        done.store(true, Ordering::SeqCst);
        let received = receiver.join().expect("receiver thread panicked");
        received.map(|()| per_phase)
    })?;
    let mut by_lane: Vec<Vec<PhaseStats>> = vec![Vec::new(); lanes.len()];
    for phase in per_phase {
        for (i, s) in phase.into_iter().enumerate() {
            by_lane[i].push(s);
        }
    }
    Ok(by_lane)
}

fn run_phase(wl: &Workload, lanes: &[Mutex<Lane<'_>>], phase: Phase) -> Vec<PhaseStats> {
    let start = Instant::now();
    let secs = match phase {
        Phase::Closed { secs, .. } | Phase::Open { secs, .. } => secs,
    };
    let mut steal = StealClock::new(start, secs);
    for lane in lanes {
        let mut l = lock(lane);
        l.stats = PhaseStats::default();
        l.phase_start = start;
        l.window_ns = secs * 1e9 / WINDOWS as f64;
        l.keep_samples = matches!(phase, Phase::Open { .. });
        l.last_reply = None;
    }
    match phase {
        Phase::Closed { secs, window } => {
            let end = start + Duration::from_secs_f64(secs);
            for lane in lanes {
                let mut l = lock(lane);
                l.refill_until = Some(end);
                l.window = window;
                l.refill(wl);
            }
            while let Some(t) = steal.boundary() {
                sleep_until(t);
                steal.tick();
            }
            sleep_until(end);
            for lane in lanes {
                lock(lane).refill_until = None;
            }
        }
        Phase::Open { secs, interval } => {
            let end = start + Duration::from_secs_f64(secs);
            let n = lanes.len() as f64;
            let mut next: Vec<Instant> = (0..lanes.len())
                .map(|c| start + interval.mul_f64(c as f64 / n))
                .collect();
            loop {
                let (c, due) = next
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|&(_, t)| t)
                    .expect("at least one lane");
                if due >= end {
                    break;
                }
                if let Some(t) = steal.boundary().filter(|&t| t < due) {
                    sleep_until(t);
                    steal.tick();
                    continue;
                }
                sleep_until(due);
                let mut l = lock(&lanes[c]);
                if !l.broken {
                    let late = Instant::now().saturating_duration_since(due);
                    l.stats.late_ns.push(late.as_nanos() as u64);
                    l.queue(wl, due);
                    l.flush();
                }
                next[c] += interval;
            }
            while let Some(t) = steal.boundary() {
                sleep_until(t);
                steal.tick();
            }
            sleep_until(end);
            for lane in lanes {
                let mut l = lock(lane);
                l.stats.backlog_end = l.out.len() as u64;
            }
        }
    }
    let cap = Instant::now() + DRAIN_CAP;
    while Instant::now() < cap
        && lanes.iter().any(|lane| {
            let l = lock(lane);
            !l.out.is_empty() && !l.broken
        })
    {
        std::thread::sleep(Duration::from_micros(500));
    }
    lanes
        .iter()
        .map(|lane| {
            let mut l = lock(lane);
            // Whatever is still unanswered is lost.
            let lost: Vec<Outstanding> = l.out.drain().map(|(_, o)| o).collect();
            for o in lost {
                l.conn.release(o.request.user);
                l.conn.tally.transport += 1;
            }
            let mut stats = std::mem::take(&mut l.stats);
            stats.steal = steal.shares.clone();
            stats.busy_secs = l
                .last_reply
                .map_or(0.0, |t| t.saturating_duration_since(start).as_secs_f64());
            stats
        })
        .collect()
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The receiver thread: waits in `epoll` on every lane's socket and
/// settles replies as they arrive.
fn receive(
    wl: &Workload,
    lanes: &[Mutex<Lane<'_>>],
    readers: Vec<TcpStream>,
    done: &AtomicBool,
) -> Result<(), String> {
    let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    for (i, r) in readers.iter().enumerate() {
        poller
            .add(r.as_raw_fd(), i as u64, Interest::READ)
            .map_err(|e| format!("poller add: {e}"))?;
    }
    let mut readers: Vec<Option<TcpStream>> = readers.into_iter().map(Some).collect();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); readers.len()];
    let mut events = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    while !done.load(Ordering::SeqCst) {
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .map_err(|e| format!("poll: {e}"))?;
        for ev in &events {
            let i = ev.token as usize;
            let Some(reader) = readers[i].as_mut() else {
                continue;
            };
            let mut closed = false;
            loop {
                match reader.read(&mut chunk) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => bufs[i].extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            let got = Instant::now();
            let mut lane = lock(&lanes[i]);
            let mut start = 0;
            while let Some(pos) = bufs[i][start..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&bufs[i][start..start + pos]).into_owned();
                lane.on_reply(&line, got);
                start += pos + 1;
            }
            bufs[i].drain(..start);
            lane.refill(wl);
            if closed {
                lane.broken = true;
                if let Some(r) = readers[i].take() {
                    let _ = poller.delete(r.as_raw_fd());
                }
            }
        }
    }
    Ok(())
}

/// The stream position a reply's `id` names, when it is connection
/// `c`'s.
fn reply_id(line: &str, c: usize) -> Option<u64> {
    let at = line.rfind(r#""id":"c"#)?;
    let rest = &line[at + 7..];
    let (conn, rest) = rest.split_once('-')?;
    if conn.parse::<usize>().ok()? != c {
        return None;
    }
    rest[..rest.find('"')?].parse().ok()
}

/// Sends one request line and waits for its reply (window 1), returning
/// the reply and the round trip.
pub fn round_trip(stream: &mut TcpStream, line: &str) -> std::io::Result<(String, Duration)> {
    stream.set_read_timeout(Some(DRAIN_CAP))?;
    let started = Instant::now();
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 << 10];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let took = started.elapsed();
            return Ok((String::from_utf8_lossy(&buf[..pos]).into_owned(), took));
        }
    }
}
