//! Chaos suite: drives the full auditing daemon under seeded fault plans
//! ([`epi_faults::FaultPlan`]) and asserts the three fault-tolerance
//! contracts of the service layer:
//!
//! 1. **Liveness** — every request completes with a response or a typed
//!    error; no client ever hangs, even while workers panic and stall.
//! 2. **Fail-closed** — a decision that runs out of deadline is never
//!    reported `Safe`; it comes back inconclusive or as a typed
//!    `deadline_exceeded` error.
//! 3. **Determinism** — replies that *do* succeed under fault injection
//!    are byte-for-byte identical to a fault-free run.
//!
//! The seed matrix comes from `CHAOS_SEED` when set (the CI chaos job
//! runs one seed per matrix leg), otherwise three fixed seeds run.

use epi_audit::workload::hospital_scenario;
use epi_audit::{Finding, PriorAssumption, Schema};
use epi_faults::{FaultPlan, FrameFault, SlowClientFault};
use epi_json::{Json, Serialize};
use epi_service::{
    AuditOutcome, AuditService, Client, ClientError, ErrorCode, LocalClient, Request, RequestMeta,
    Response, RetryPolicy, Server, ServerOptions, ServiceConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The seed matrix: `CHAOS_SEED` (one seed, for CI matrix legs) or three
/// fixed defaults.
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![0xC0FFEE, 42, 7],
    }
}

/// Fault-free reference run: the rendered wire bytes of every hospital
/// replay entry, in disclosure order.
fn baseline_entries() -> Vec<String> {
    let w = hospital_scenario();
    let service = Arc::new(AuditService::new(
        w.schema.clone(),
        ServiceConfig {
            assumption: PriorAssumption::Product,
            workers: 2,
            ..ServiceConfig::default()
        },
    ));
    let mut client = LocalClient::new(service);
    let mut rendered = Vec::new();
    for (d, state) in w.log.entries_with_state() {
        let outcome = client
            .disclose(
                &d.user,
                d.time,
                &d.query.display(w.log.schema()).to_string(),
                state.mask(),
                "hiv_pos",
            )
            .expect("fault-free disclose succeeds");
        let AuditOutcome::Entry(entry) = outcome else {
            panic!("expected an entry for {}", d.user);
        };
        rendered.push(entry.to_json().render());
    }
    rendered
}

/// One chaos client: replays the hospital log under a user-namespace
/// prefix, retrying per `policy`. Returns, per disclosure, either the
/// rendered entry bytes (prefix stripped) or `None` when the request
/// settled with a typed error after retries.
fn chaos_replay(
    addr: std::net::SocketAddr,
    prefix: String,
    policy: RetryPolicy,
) -> Vec<Option<String>> {
    let w = hospital_scenario();
    let mut client = Client::connect(addr).expect("connect").with_retry(policy);
    let mut results = Vec::new();
    for (d, state) in w.log.entries_with_state() {
        let outcome = client.disclose(
            &format!("{prefix}{}", d.user),
            d.time,
            &d.query.display(w.log.schema()).to_string(),
            state.mask(),
            "hiv_pos",
        );
        match outcome {
            Ok(AuditOutcome::Entry(mut entry)) => {
                entry.user = entry
                    .user
                    .strip_prefix(&prefix)
                    .expect("service echoes the namespaced user")
                    .to_owned();
                results.push(Some(entry.to_json().render()));
            }
            Ok(other) => panic!("disclose returned a non-entry outcome: {other:?}"),
            Err(ClientError::Remote { code, .. }) => {
                // Liveness holds: the failure is a *typed* error. Only
                // pool-level faults are legitimate here — a bad_request
                // would mean the harness built a broken request.
                assert_ne!(code, ErrorCode::BadRequest, "chaos sent a bad request");
                results.push(None);
            }
            Err(e) => panic!("untyped client failure under worker faults: {e}"),
        }
    }
    results
}

/// Liveness + determinism under scripted worker panics and stalls:
/// three TCP clients replay the hospital log against a daemon whose
/// workers fail per the seeded plan; every request must settle, and
/// every success must match the fault-free bytes.
#[test]
fn worker_faults_preserve_liveness_and_byte_determinism() {
    let expected = baseline_entries();
    for seed in seeds() {
        // The replay coalesces heavily (few distinct decisions), so crank
        // the panic rate to make worker faults common on the short worker
        // stream the run actually consumes.
        let plan = FaultPlan {
            panic_per_mille: 350,
            ..FaultPlan::new(seed)
        };
        let w = hospital_scenario();
        let service = Arc::new(AuditService::with_fault_hook(
            w.schema.clone(),
            ServiceConfig {
                assumption: PriorAssumption::Product,
                workers: 2,
                queue_capacity: 8,
                ..ServiceConfig::default()
            },
            Some(plan.worker_hook()),
        ));
        let server = Server::spawn_with(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServerOptions {
                idle_timeout: Some(Duration::from_secs(10)),
                frame_timeout: Some(Duration::from_secs(10)),
                ..ServerOptions::default()
            },
        )
        .expect("bind");
        let addr = server.addr();

        // A retry budget above the plan's worst panic streak: a request
        // can then only fail if scheduling interleaves it with other
        // clients' faults, which the liveness contract must absorb.
        let budget = plan.max_consecutive_panics(2_000) + 3;
        let (tx, rx) = mpsc::channel();
        for i in 0..3u64 {
            let tx = tx.clone();
            let policy = RetryPolicy {
                max_attempts: budget,
                base_ms: 1,
                cap_ms: 8,
                // Distinct per client: request ids derive from the seed,
                // and the dedupe window must never cross clients.
                seed: seed ^ ((i + 1) << 32),
            };
            std::thread::spawn(move || {
                let results = chaos_replay(addr, format!("c{i}:"), policy);
                tx.send((i, results)).expect("main thread is waiting");
            });
        }
        drop(tx);

        let mut successes = 0usize;
        for _ in 0..3 {
            // The watchdog *is* the liveness assertion: a hung request
            // means its thread never reports.
            let (i, results) = rx
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("seed {seed:#x}: a chaos client hung (liveness)"));
            assert_eq!(results.len(), expected.len());
            for (got, want) in results.iter().zip(&expected) {
                if let Some(bytes) = got {
                    assert_eq!(
                        bytes, want,
                        "seed {seed:#x} client {i}: reply bytes diverged under faults"
                    );
                    successes += 1;
                }
            }
        }
        // The comparison must not be vacuous: under a 15% panic rate and
        // a retry budget past the worst streak, most requests succeed.
        assert!(
            successes >= expected.len(),
            "seed {seed:#x}: only {successes} successful replies"
        );

        // Exact cross-check against the script: the hook ran once per
        // computation attempt (successes + caught panics), and the pool
        // must have caught precisely the panics the plan scheduled on
        // that prefix of the worker stream — no more, no fewer.
        let stats = service.metrics();
        let attempts = stats.computed + stats.worker_respawns;
        let scripted = (0..attempts)
            .filter(|&i| plan.worker_fault(i) == Some(epi_faults::WorkerFault::Panic))
            .count() as u64;
        assert_eq!(
            stats.worker_respawns, scripted,
            "seed {seed:#x}: caught panics diverge from the fault script ({stats:?})"
        );
        server.shutdown();
    }
}

/// Fail-closed under deadlines: an expired budget short-circuits with a
/// typed `deadline_exceeded`, and a budget that expires mid-computation
/// yields an inconclusive finding — never `Safe`.
#[test]
fn expired_deadlines_are_never_reported_safe() {
    for seed in seeds() {
        // Stall-only plan: every computation sleeps well past the budget.
        let plan = FaultPlan {
            panic_per_mille: 0,
            stall_per_mille: 1000,
            stall: Duration::from_millis(15),
            frame_per_mille: 0,
            ..FaultPlan::new(seed)
        };
        let schema = Schema::from_names(&["hiv_pos", "transfusions"]).unwrap();
        let service = AuditService::with_fault_hook(
            schema,
            ServiceConfig {
                assumption: PriorAssumption::Product,
                workers: 1,
                ..ServiceConfig::default()
            },
            Some(plan.worker_hook()),
        );
        // A disclosure the negative-result gate cannot excuse: the
        // audited property is true, so a verdict needs the solver.
        let request = |user: &str| Request::Disclose {
            user: user.to_owned(),
            time: 1,
            query: "hiv_pos".to_owned(),
            state_mask: 0b11,
            audit_query: "hiv_pos".to_owned(),
        };

        // Already-expired budget: rejected before touching the queue.
        let response = service.handle_with_meta(
            &request("instant"),
            &RequestMeta {
                id: None,
                deadline_ms: Some(0),
                trace: None,
            },
        );
        let Response::Error { code, .. } = response else {
            panic!("seed {seed:#x}: expired deadline produced {response:?}");
        };
        assert_eq!(code, ErrorCode::DeadlineExceeded);

        // Budget that expires inside the stalled computation: the worker
        // still answers, but the undecided verdict must stay closed.
        for n in 0..4 {
            let response = service.handle_with_meta(
                &request(&format!("u{n}")),
                &RequestMeta {
                    id: None,
                    deadline_ms: Some(1),
                    trace: None,
                },
            );
            match response {
                Response::Entry(entry) => {
                    assert_ne!(
                        entry.finding,
                        Finding::Safe,
                        "seed {seed:#x}: timed-out decision reported Safe (fail-open!)"
                    );
                }
                Response::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::DeadlineExceeded, "seed {seed:#x}");
                }
                other => panic!("seed {seed:#x}: unexpected response {other:?}"),
            }
        }
        let stats = service.metrics();
        assert!(
            stats.deadline_exceeded >= 5,
            "seed {seed:#x}: deadline metric undercounts: {stats:?}"
        );
        // Transient verdicts must not poison the cache: a later request
        // with room to finish gets the real (Flagged) answer.
        let response = service.handle_with_meta(&request("patient"), &RequestMeta::default());
        let Response::Entry(entry) = response else {
            panic!("seed {seed:#x}: unbounded request failed: {response:?}");
        };
        assert_eq!(entry.finding, Finding::Flagged, "seed {seed:#x}");
    }
}

/// Writes `payload` to a fresh connection; when `read_reply`, returns the
/// single response line (the read is timeout-guarded so a silent server
/// fails the test instead of hanging it).
fn raw_exchange(addr: std::net::SocketAddr, payload: &[u8], read_reply: bool) -> Option<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(payload).expect("write");
    stream.flush().expect("flush");
    if !read_reply {
        return None;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("server replies in time");
    assert!(
        n > 0,
        "server closed instead of answering a well-formed frame"
    );
    Some(line)
}

/// Wire-level chaos: torn frames, invalid UTF-8 and connections dropped
/// at frame boundaries must each produce a typed reply or a clean close —
/// and must never take the server down for later clients.
#[test]
fn mangled_frames_never_kill_the_server() {
    let w = hospital_scenario();
    let service = Arc::new(AuditService::new(
        w.schema.clone(),
        ServiceConfig {
            assumption: PriorAssumption::Product,
            workers: 2,
            ..ServiceConfig::default()
        },
    ));
    let server = Server::spawn_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerOptions {
            // Short grace: torn-frame connections are reaped quickly.
            idle_timeout: Some(Duration::from_millis(500)),
            frame_timeout: Some(Duration::from_millis(500)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    let frame = Request::Disclose {
        user: "mallory".to_owned(),
        time: 1,
        query: "hiv_pos".to_owned(),
        state_mask: 0b11,
        audit_query: "hiv_pos".to_owned(),
    }
    .to_json()
    .render()
    .into_bytes();

    for seed in seeds() {
        // Crank the mangling rate: most frames are faulted somehow.
        let plan = FaultPlan {
            frame_per_mille: 750,
            ..FaultPlan::new(seed)
        };
        for i in 0..30u64 {
            let fault = plan.frame_fault(i, frame.len());
            let mangled = FaultPlan::apply_frame_fault(fault, &frame);
            match fault {
                FrameFault::Intact | FrameFault::CorruptUtf8 { .. } => {
                    let mut payload = mangled.expect("frame is sent");
                    payload.push(b'\n');
                    let reply = raw_exchange(addr, &payload, true).expect("reply requested");
                    // Liveness: whatever arrived, the answer is one valid
                    // JSON line (an entry, or a typed bad_request).
                    Json::parse(reply.trim_end())
                        .unwrap_or_else(|e| panic!("seed {seed:#x} frame {i}: bad reply: {e:?}"));
                }
                FrameFault::Truncate { .. } => {
                    // Torn frame: bytes stop mid-line and the connection
                    // drops. Nothing to read — the server must just cope.
                    raw_exchange(addr, &mangled.expect("torn prefix is sent"), false);
                }
                FrameFault::DropConnection => {
                    drop(TcpStream::connect(addr).expect("connect"));
                }
            }
        }
    }

    // The server is still fully alive for well-behaved clients.
    let mut client = Client::connect(addr).expect("connect after chaos");
    assert_eq!(
        client.call(&Request::Ping).expect("ping after chaos"),
        Response::Pong
    );
    let stats = client.stats().expect("stats after chaos");
    assert!(stats.requests > 0);
    drop(client);
    server.shutdown();
}

/// One scripted slow client: connects, misbehaves per its fault, and
/// never crashes regardless of how the server reacts.
fn run_slow_client(addr: std::net::SocketAddr, frame: &[u8], fault: SlowClientFault) {
    let mut stream = TcpStream::connect(addr).expect("slow client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    match fault {
        SlowClientFault::HalfFrameStall { keep, hold } => {
            stream.write_all(&frame[..keep]).expect("half frame sends");
            stream.flush().expect("flush");
            std::thread::sleep(hold);
            // The hold outlives the server's frame deadline, so by now
            // the connection is evicted: finishing the frame either
            // fails outright or is answered with a clean close (EOF),
            // never a verdict for the stalled half-request.
            let finish = stream
                .write_all(&frame[keep..])
                .and_then(|_| stream.write_all(b"\n"))
                .and_then(|_| stream.flush());
            if finish.is_ok() {
                let mut line = String::new();
                let got = BufReader::new(stream).read_line(&mut line);
                assert!(
                    matches!(got, Ok(0) | Err(_)),
                    "evicted half-frame still got a reply: {line:?}"
                );
            }
        }
        SlowClientFault::ByteAtATime { delay } => {
            // Hostile pacing but an honest frame: dribbled bytes that
            // finish inside the deadline still deserve a real reply.
            for byte in frame.iter().chain(b"\n") {
                stream.write_all(&[*byte]).expect("dribbled byte sends");
                stream.flush().expect("flush");
                std::thread::sleep(delay);
            }
            let mut line = String::new();
            let n = BufReader::new(stream)
                .read_line(&mut line)
                .expect("dribbled frame is answered");
            assert!(n > 0, "server closed on a complete (if slow) frame");
            Json::parse(line.trim_end()).expect("reply to dribbled frame is valid JSON");
        }
        SlowClientFault::DisconnectMidReply => {
            stream.write_all(frame).expect("frame sends");
            stream.write_all(b"\n").expect("newline sends");
            stream.flush().expect("flush");
            // Vanish without reading: the server discovers the dead
            // peer while writing the reply and must just cope.
            drop(stream);
        }
    }
}

/// Slowloris chaos: a pack of scripted slow clients — half-frames held
/// open past the frame deadline, byte-at-a-time dribblers, clients that
/// vanish before reading their reply — runs against the server while a
/// well-behaved client replays the hospital log. The good client's
/// replies must be byte-identical to the fault-free baseline (one slow
/// connection never stalls another), half-frame stallers must be
/// evicted on the frame deadline, and the server must end the run fully
/// alive.
#[test]
fn slow_clients_cannot_stall_other_connections() {
    let expected = baseline_entries();
    for seed in seeds() {
        let plan = FaultPlan {
            // Holds outlive the frame deadline below; dribbles don't.
            slow_hold: Duration::from_secs(2),
            slow_delay: Duration::from_millis(1),
            ..FaultPlan::new(seed)
        };
        let w = hospital_scenario();
        let service = Arc::new(AuditService::new(
            w.schema.clone(),
            ServiceConfig {
                assumption: PriorAssumption::Product,
                workers: 2,
                ..ServiceConfig::default()
            },
        ));
        let server = Server::spawn_with(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServerOptions {
                // A started frame must finish within 600 ms; half-frame
                // stalls (2 s holds) cross it, dribbles stay inside.
                frame_timeout: Some(Duration::from_millis(600)),
                idle_timeout: Some(Duration::from_secs(30)),
                ..ServerOptions::default()
            },
        )
        .expect("bind");
        let addr = server.addr();

        // Each slow client discloses for its own user so the stalled
        // sessions cannot perturb the good client's session state.
        let slow_count = 9u64;
        let mut stalled = 0u64;
        let mut slow_threads = Vec::new();
        for i in 0..slow_count {
            let frame = Request::Disclose {
                user: format!("slow{i}"),
                time: 1,
                query: "hiv_pos".to_owned(),
                state_mask: 0b11,
                audit_query: "hiv_pos".to_owned(),
            }
            .to_json()
            .render()
            .into_bytes();
            let fault = plan.slow_client_fault(i, frame.len());
            if matches!(fault, SlowClientFault::HalfFrameStall { .. }) {
                stalled += 1;
            }
            slow_threads.push(std::thread::spawn(move || {
                run_slow_client(addr, &frame, fault);
            }));
        }
        // Let the stalls take hold before the good client starts, so
        // its whole replay runs with slow connections mid-misbehavior.
        std::thread::sleep(Duration::from_millis(100));

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let results = chaos_replay(
                addr,
                "good:".to_owned(),
                RetryPolicy {
                    max_attempts: 3,
                    base_ms: 1,
                    cap_ms: 8,
                    seed,
                },
            );
            tx.send(results).expect("main thread is waiting");
        });
        let results = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("seed {seed:#x}: good client starved by slow clients"));
        assert_eq!(results.len(), expected.len());
        for (got, want) in results.iter().zip(&expected) {
            let bytes = got.as_ref().unwrap_or_else(|| {
                panic!("seed {seed:#x}: good client failed a fault-free request")
            });
            assert_eq!(
                bytes, want,
                "seed {seed:#x}: good client's bytes diverged beside slow clients"
            );
        }

        for handle in slow_threads {
            handle.join().expect("slow client panicked");
        }
        // Every half-frame staller crossed the frame deadline and must
        // have been evicted (the reactor counts those as idle kills).
        let mut client = Client::connect(addr).expect("connect after slowloris");
        let stats = client.stats().expect("stats after slowloris");
        assert!(
            stats.connections_evicted_idle >= stalled,
            "seed {seed:#x}: {stalled} stalled clients but only {} evictions",
            stats.connections_evicted_idle
        );
        assert_eq!(
            client.call(&Request::Ping).expect("ping after slowloris"),
            Response::Pong
        );
        server.shutdown();
    }
}
