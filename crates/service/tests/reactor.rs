//! Integration suite for the event-driven TCP front-end: pipelining,
//! out-of-order completion, per-connection backpressure, the two-clock
//! timeout semantics (idle vs. started-frame), oversize refusals, the
//! legacy threaded fallback, and a high-connection smoke.
//!
//! The smoke test scales with `EPI_SMOKE_CONNS` (default 256) so the CI
//! matrix can push the same test to thousands of connections.

use epi_audit::{PriorAssumption, Schema};
use epi_json::{opt_field, Deserialize, Json, Serialize};
use epi_service::{
    AuditService, Client, ErrorCode, FaultHook, Request, RequestMeta, Response, Server, ServerMode,
    ServerOptions, ServiceConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A four-atom schema: enough distinct state masks (1..16) to mint as
/// many distinct decision keys as a test needs.
fn schema() -> Schema {
    Schema::from_names(&["hiv_pos", "transfusions", "flu", "diabetes"]).expect("schema")
}

fn service(workers: usize) -> Arc<AuditService> {
    Arc::new(AuditService::new(
        schema(),
        ServiceConfig {
            assumption: PriorAssumption::Product,
            workers,
            ..ServiceConfig::default()
        },
    ))
}

/// A service whose every decision computation sleeps for `stall` first —
/// the simplest way to make worker latency dominate handler latency.
fn stalled_service(workers: usize, stall: Duration) -> Arc<AuditService> {
    let hook: FaultHook = Arc::new(move |_key| std::thread::sleep(stall));
    Arc::new(AuditService::with_fault_hook(
        schema(),
        ServiceConfig {
            assumption: PriorAssumption::Product,
            workers,
            ..ServiceConfig::default()
        },
        Some(hook),
    ))
}

fn disclose(user: &str, mask: u32) -> Request {
    Request::Disclose {
        user: user.to_owned(),
        time: 1,
        query: "hiv_pos".to_owned(),
        state_mask: mask,
        audit_query: "hiv_pos".to_owned(),
    }
}

fn entry_bytes(response: &Response) -> String {
    match response {
        Response::Entry(entry) => entry.to_json().render(),
        other => panic!("expected an entry, got {other:?}"),
    }
}

/// Pipelined replies come back in *completion* order on the wire: a
/// ping queued behind a stalled disclose overtakes it, each reply
/// carrying the id of the request it answers.
#[test]
fn pipelined_replies_arrive_in_completion_order() {
    let service = stalled_service(2, Duration::from_millis(400));
    let server =
        Server::spawn_with(service, "127.0.0.1:0", ServerOptions::default()).expect("bind");

    let slow = RequestMeta {
        id: Some("slow".to_owned()),
        deadline_ms: None,
        trace: None,
    }
    .decorate(disclose("ooo", 1).to_json())
    .render();
    let fast = RequestMeta {
        id: Some("fast".to_owned()),
        deadline_ms: None,
        trace: None,
    }
    .decorate(Request::Ping.to_json())
    .render();

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(format!("{slow}\n{fast}\n").as_bytes())
        .expect("write both frames");
    let mut reader = BufReader::new(stream);
    let mut ids = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("reply") > 0);
        let value = Json::parse(line.trim_end()).expect("reply is JSON");
        ids.push(
            opt_field::<String>(&value, "id")
                .expect("id member parses")
                .expect("reply carries its request's id"),
        );
    }
    assert_eq!(
        ids,
        ["fast", "slow"],
        "the quick ping should overtake the stalled disclose"
    );
    server.shutdown();
}

/// `Client::pipeline` hides the reordering: whatever order the wire
/// delivers, responses come back in request order.
#[test]
fn client_pipeline_returns_request_order_despite_reordering() {
    let service = stalled_service(2, Duration::from_millis(300));
    let server =
        Server::spawn_with(service, "127.0.0.1:0", ServerOptions::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let requests = vec![disclose("reorder", 2), Request::Ping];
    let responses = client.pipeline(&requests).expect("pipeline");
    assert_eq!(responses.len(), 2);
    let Response::Entry(entry) = &responses[0] else {
        panic!("slot 0 must hold the disclose verdict: {:?}", responses[0]);
    };
    assert_eq!(entry.user, "reorder");
    assert_eq!(responses[1], Response::Pong);
    server.shutdown();
}

/// Byte determinism: a pipelined batch produces exactly the bytes the
/// same requests produce one-at-a-time against an identical fresh
/// service.
#[test]
fn pipeline_matches_sequential_byte_for_byte() {
    let requests: Vec<Request> = (0..8)
        .map(|i| disclose(&format!("d{i}"), i % 3 + 1))
        .collect();

    let sequential_server =
        Server::spawn_with(service(2), "127.0.0.1:0", ServerOptions::default()).expect("bind");
    let mut sequential = Client::connect(sequential_server.addr()).expect("connect");
    let expected: Vec<String> = requests
        .iter()
        .map(|r| entry_bytes(&sequential.call(r).expect("sequential call")))
        .collect();
    sequential_server.shutdown();

    let pipelined_server =
        Server::spawn_with(service(2), "127.0.0.1:0", ServerOptions::default()).expect("bind");
    let mut pipelined = Client::connect(pipelined_server.addr()).expect("connect");
    let responses = pipelined.pipeline(&requests).expect("pipeline");
    let got: Vec<String> = responses.iter().map(entry_bytes).collect();
    assert_eq!(got, expected, "pipelined bytes diverged from sequential");
    pipelined_server.shutdown();
}

/// Backpressure: with one stalled worker and a two-request in-flight
/// cap, a ten-deep pipelined batch must pause reading (counted as a
/// stall), then drain completely with every verdict intact.
#[test]
fn backpressure_pauses_reads_and_recovers() {
    let service = stalled_service(1, Duration::from_millis(20));
    let server = Server::spawn_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerOptions {
            max_inflight_per_conn: 2,
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let requests: Vec<Request> = (0..10)
        .map(|i| disclose(&format!("bp{i}"), i + 1))
        .collect();
    let responses = client.pipeline(&requests).expect("pipeline drains");
    assert_eq!(responses.len(), 10);
    for (i, response) in responses.iter().enumerate() {
        let Response::Entry(entry) = response else {
            panic!("request {i} lost under backpressure: {response:?}");
        };
        assert_eq!(entry.user, format!("bp{i}"));
    }
    let stats = client.stats().expect("stats");
    assert!(
        stats.backpressure_stalls >= 1,
        "a 10-deep batch against a 2-slot cap never stalled: {stats:?}"
    );
    server.shutdown();
}

/// The frame deadline closes the legacy per-syscall loophole: a client
/// dribbling one byte per 120 ms used to reset the read timeout forever;
/// now a started frame must finish within `frame_timeout`, total.
#[test]
fn dribbling_writers_hit_the_frame_deadline() {
    let server = Server::spawn_with(
        service(1),
        "127.0.0.1:0",
        ServerOptions {
            read_timeout: Some(Duration::from_secs(10)),
            frame_timeout: Some(Duration::from_millis(300)),
            idle_timeout: Some(Duration::from_secs(10)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");

    let frame = disclose("dribbler", 1).to_json().render().into_bytes();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(&frame[..4]).expect("frame starts");
    let started = Instant::now();
    // Each byte lands well inside a 300 ms *per-read* window — only a
    // whole-frame deadline can end this connection early.
    for chunk in frame[4..].chunks(1) {
        std::thread::sleep(Duration::from_millis(120));
        if stream
            .write_all(chunk)
            .and_then(|_| stream.flush())
            .is_err()
        {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "dribbled for 8 s without the server hanging up"
        );
    }
    let mut rest = Vec::new();
    let got = stream.read_to_end(&mut rest);
    assert!(
        matches!(got, Ok(_) | Err(_)) && rest.is_empty(),
        "an unfinished frame must never be answered: {rest:?}"
    );

    let mut client = Client::connect(server.addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.connections_evicted_idle >= 1,
        "the dribbler was not evicted: {stats:?}"
    );
    server.shutdown();
}

/// Quiescent connections are evicted on the idle timeout — after a
/// completed request/response, not just on silent fresh connections.
#[test]
fn idle_connections_are_evicted() {
    let server = Server::spawn_with(
        service(1),
        "127.0.0.1:0",
        ServerOptions {
            read_timeout: Some(Duration::from_secs(10)),
            idle_timeout: Some(Duration::from_millis(250)),
            frame_timeout: Some(Duration::from_secs(10)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut ping = Request::Ping.to_json().render();
    ping.push('\n');
    stream.write_all(ping.as_bytes()).expect("ping");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("pong") > 0);

    // Now fall silent: the server owes us nothing and must hang up.
    line.clear();
    let n = reader
        .read_line(&mut line)
        .expect("clean close, not timeout");
    assert_eq!(n, 0, "idle connection survived: {line:?}");

    let mut client = Client::connect(server.addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.connections_evicted_idle >= 1,
        "no idle eviction counted: {stats:?}"
    );
    server.shutdown();
}

/// A frame past `max_line_bytes` gets a typed refusal and a close —
/// without waiting for the newline that may never come.
#[test]
fn oversize_frames_are_refused_and_closed() {
    let server = Server::spawn_with(
        service(1),
        "127.0.0.1:0",
        ServerOptions {
            max_line_bytes: 128,
            ..ServerOptions::default()
        },
    )
    .expect("bind");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(&[b'x'; 300]).expect("oversize blob");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("refusal") > 0);
    let value = Json::parse(line.trim_end()).expect("refusal is JSON");
    let Response::Error { code, .. } = Response::from_json(&value).expect("refusal parses") else {
        panic!("oversize frame got a non-error reply: {line:?}");
    };
    assert_eq!(code, ErrorCode::BadRequest);
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("close after refusal"),
        0,
        "connection stayed open after an oversize refusal"
    );
    server.shutdown();
}

/// The thread-per-connection fallback still serves — including
/// pipelined batches, which it answers strictly in order.
#[test]
fn legacy_threaded_mode_still_serves() {
    let server = Server::spawn_with(
        service(2),
        "127.0.0.1:0",
        ServerOptions {
            mode: ServerMode::Threaded,
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    assert_eq!(server.mode(), ServerMode::Threaded);

    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.call(&Request::Ping).expect("ping"), Response::Pong);
    let responses = client
        .pipeline(&[disclose("legacy", 1), Request::Ping])
        .expect("pipeline over the threaded front-end");
    assert!(matches!(responses[0], Response::Entry(_)));
    assert_eq!(responses[1], Response::Pong);
    let stats = client.stats().expect("stats");
    assert!(stats.connections_accepted >= 1, "{stats:?}");
    server.shutdown();
}

/// Graceful drain under pipelining: every request accepted before the
/// drain began is answered with its real verdict, a frame arriving
/// after it gets a `draining` refusal carrying its id, no reply is
/// dropped, and the drain completes cleanly inside its deadline.
#[test]
fn graceful_drain_answers_in_flight_and_refuses_late_frames() {
    let service = stalled_service(2, Duration::from_millis(300));
    let server = Server::spawn_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerOptions {
            mode: ServerMode::Reactor,
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Six pipelined disclosures, all in flight at once: two stalled
    // workers hold them for three 300 ms waves.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut batch = String::new();
    for i in 0..6u32 {
        let frame = RequestMeta {
            id: Some(format!("in-{i}")),
            deadline_ms: None,
            trace: None,
        }
        .decorate(disclose(&format!("drain{i}"), i % 3 + 1).to_json())
        .render();
        batch.push_str(&frame);
        batch.push('\n');
    }
    stream.write_all(batch.as_bytes()).expect("pipeline batch");
    // Let the reactor dispatch the batch before the drain flips.
    std::thread::sleep(Duration::from_millis(100));
    let drain = std::thread::spawn(move || server.drain(Duration::from_secs(30)));
    std::thread::sleep(Duration::from_millis(100));

    // A frame arriving mid-drain must be refused, not silently dropped
    // — and the refusal must echo the envelope id.
    let late = RequestMeta {
        id: Some("late".to_owned()),
        deadline_ms: None,
        trace: None,
    }
    .decorate(disclose("latecomer", 1).to_json())
    .render();
    stream
        .write_all(format!("{late}\n").as_bytes())
        .expect("late frame");

    let mut reader = BufReader::new(stream);
    let mut replies: Vec<(String, Response)> = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("drained reply") == 0 {
            break; // the server closed the connection once drained
        }
        let value = Json::parse(line.trim_end()).expect("reply is JSON");
        let id = opt_field::<String>(&value, "id")
            .expect("id member parses")
            .expect("every drained reply carries its request's id");
        replies.push((id, Response::from_json(&value).expect("reply parses")));
    }
    assert_eq!(replies.len(), 7, "a reply was dropped: {replies:?}");
    for i in 0..6u32 {
        let id = format!("in-{i}");
        let response = &replies
            .iter()
            .find(|(got, _)| *got == id)
            .unwrap_or_else(|| panic!("request {id} never answered"))
            .1;
        assert!(
            matches!(response, Response::Entry(_)),
            "in-flight request {id} lost its verdict to the drain: {response:?}"
        );
    }
    let late_reply = &replies
        .iter()
        .find(|(id, _)| id == "late")
        .expect("the late frame was never answered")
        .1;
    let Response::Error { code, .. } = late_reply else {
        panic!("the late frame was executed mid-drain: {late_reply:?}");
    };
    assert_eq!(*code, ErrorCode::Draining);

    assert!(
        drain.join().expect("drain thread"),
        "six in-flight requests should drain well inside the deadline"
    );
    assert!(
        TcpStream::connect(addr).is_err(),
        "the drained server is still accepting connections"
    );
    let snapshot = service.metrics();
    assert!(snapshot.drain_micros > 0, "drain duration not recorded");
    assert_eq!(
        snapshot.requests, 6,
        "the refused latecomer must never reach the service"
    );
}

/// High-connection smoke: `EPI_SMOKE_CONNS` sockets (default 256) all
/// held open and all answered, with the connection gauges tracking the
/// fanout and draining after the sockets drop.
#[test]
fn reactor_serves_a_high_connection_fanout() {
    let count: usize = std::env::var("EPI_SMOKE_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    let server =
        Server::spawn_with(service(2), "127.0.0.1:0", ServerOptions::default()).expect("bind");
    let addr = server.addr();

    let mut ping = Request::Ping.to_json().render();
    ping.push('\n');
    let conns: Vec<TcpStream> = (0..count)
        .map(|i| {
            let mut stream =
                TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}"));
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            stream
                .write_all(ping.as_bytes())
                .unwrap_or_else(|e| panic!("write {i}: {e}"));
            stream
        })
        .collect();
    // Every socket was written before any is read: the server is
    // holding `count` live conversations at once.
    for (i, stream) in conns.iter().enumerate() {
        let mut line = String::new();
        let n = BufReader::new(stream)
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("reply {i}: {e}"));
        assert!(n > 0, "connection {i} closed unanswered");
        let value = Json::parse(line.trim_end()).expect("pong is JSON");
        assert_eq!(
            Response::from_json(&value).expect("pong parses"),
            Response::Pong
        );
    }

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.connections_open as usize > count,
        "gauge below the open fanout: {stats:?}"
    );
    assert!(stats.connections_accepted as usize > count, "{stats:?}");
    // And the daemon still decides amid the fanout.
    let response = client.call(&disclose("smoke", 1)).expect("disclose");
    assert!(matches!(response, Response::Entry(_)));

    drop(conns);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats");
        // Just this client's connection (plus any raciness slack).
        if stats.connections_open <= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gauge never drained after sockets dropped: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
}

/// One request line with an envelope, as the wire carries it.
fn frame(request: &Request, meta: &RequestMeta) -> String {
    let mut line = meta.decorate(request.to_json()).render();
    line.push('\n');
    line
}

fn meta(id: &str) -> RequestMeta {
    RequestMeta {
        id: Some(id.to_owned()),
        deadline_ms: None,
        trace: None,
    }
}

/// Sends one frame and reads one reply line, failing instead of hanging
/// when no reply comes within the stream's read timeout.
fn exchange(reader: &mut BufReader<TcpStream>, line: &str) -> String {
    reader.get_mut().write_all(line.as_bytes()).expect("write");
    let mut reply = String::new();
    let n = reader
        .read_line(&mut reply)
        .unwrap_or_else(|e| panic!("no reply to {line:?}: {e}"));
    assert!(n > 0, "connection closed before replying to {line:?}");
    reply
}

fn connect(server: &Server) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    BufReader::new(stream)
}

/// With the only handler thread stuck inside a decision, requests that
/// cannot block are still answered: the reactor serves them itself.
#[test]
fn reactor_answers_cheap_requests_while_the_handler_is_stalled() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let stall = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicUsize::new(0));
    let (hook_stall, hook_entered) = (Arc::clone(&stall), Arc::clone(&entered));
    let hook: FaultHook = Arc::new(move |_key| {
        hook_entered.fetch_add(1, Ordering::SeqCst);
        while hook_stall.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let service = Arc::new(AuditService::with_fault_hook(
        schema(),
        ServiceConfig {
            assumption: PriorAssumption::Product,
            workers: 2,
            ..ServiceConfig::default()
        },
        Some(hook),
    ));
    let server = Server::spawn_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerOptions {
            mode: ServerMode::Reactor,
            handler_threads: 1,
            ..ServerOptions::default()
        },
    )
    .expect("bind");

    // Warm the verdict cache for `hiv_pos` disclosed while true.
    let mut second = connect(&server);
    let warm = exchange(&mut second, &frame(&disclose("warm", 1), &meta("warm")));
    assert!(warm.contains("\"kind\":\"entry\""), "{warm}");
    assert_eq!(entered.load(Ordering::SeqCst), 1);

    // Park the only handler inside a decision the cache cannot answer.
    stall.store(true, Ordering::SeqCst);
    let mut first = connect(&server);
    let uncached = Request::Disclose {
        user: "stuck".to_owned(),
        time: 1,
        query: "transfusions".to_owned(),
        state_mask: 0b11,
        audit_query: "hiv_pos".to_owned(),
    };
    first
        .get_mut()
        .write_all(frame(&uncached, &meta("stuck")).as_bytes())
        .expect("write");
    let started = Instant::now();
    while entered.load(Ordering::SeqCst) < 2 {
        assert!(started.elapsed() < Duration::from_secs(10), "never decided");
        std::thread::sleep(Duration::from_millis(1));
    }

    let hit = exchange(&mut second, &frame(&disclose("hit", 1), &meta("hit")));
    assert!(hit.contains("\"finding\":\"flagged\""), "{hit}");
    let gated = exchange(
        &mut second,
        &frame(&disclose("gated", 0b10), &meta("gated")),
    );
    assert!(gated.contains("not protected"), "{gated}");
    let session = Request::SessionInfo {
        user: "warm".to_owned(),
    };
    let read = exchange(&mut second, &frame(&session, &meta("read")));
    assert!(read.contains("\"disclosures\":1"), "{read}");
    assert!(service.metrics().requests_inline >= 3);

    stall.store(false, Ordering::SeqCst);
    let mut reply = String::new();
    first.read_line(&mut reply).expect("stalled reply");
    assert!(reply.contains("\"id\":\"stuck\""), "{reply}");
    server.shutdown();
}

/// A cached verdict answered on the reactor still honours an expired
/// deadline, with the very bytes the in-process path returns.
#[test]
fn expired_deadline_on_a_cached_verdict_matches_in_process_bytes() {
    let service = service(2);
    let server = Server::spawn_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .expect("bind");
    let mut conn = connect(&server);
    let warm = exchange(&mut conn, &frame(&disclose("warm", 1), &meta("warm")));
    assert!(warm.contains("\"kind\":\"entry\""), "{warm}");

    let expired = RequestMeta {
        id: Some("late".to_owned()),
        deadline_ms: Some(0),
        trace: None,
    };
    let request = disclose("late", 1);
    let inline_before = service.metrics().requests_inline;
    let over_tcp = exchange(&mut conn, &frame(&request, &expired));
    assert_eq!(service.metrics().requests_inline, inline_before + 1);
    let mut in_process = service
        .handle_with_meta(&request, &expired)
        .to_json_with_id(expired.id.as_deref())
        .render();
    in_process.push('\n');
    assert_eq!(over_tcp, in_process);
    assert!(over_tcp.contains("deadline_exceeded"), "{over_tcp}");
    server.shutdown();
}

/// On a durable store every request can wait on an fsync, so none is
/// answered on the reactor.
#[test]
fn durable_daemon_answers_nothing_on_the_reactor() {
    let dir = epi_wal::testdir::TempDir::new("reactor-durable");
    let service = Arc::new(
        AuditService::open(
            schema(),
            ServiceConfig {
                assumption: PriorAssumption::Product,
                workers: 2,
                data_dir: Some(dir.path().to_path_buf()),
                wal_fsync: epi_wal::FsyncPolicy::Never,
                ..ServiceConfig::default()
            },
        )
        .expect("open"),
    );
    let server = Server::spawn_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .expect("bind");
    let mut conn = connect(&server);
    let requests = [
        disclose("d", 1),
        disclose("d", 1),
        disclose("d", 0b10),
        Request::SessionInfo {
            user: "d".to_owned(),
        },
        Request::Ping,
        Request::Stats,
    ];
    for (i, request) in requests.iter().enumerate() {
        let reply = exchange(&mut conn, &frame(request, &meta(&format!("r{i}"))));
        assert!(!reply.contains("\"kind\":\"error\""), "{reply}");
    }
    let stats = service.metrics();
    assert_eq!(stats.requests, requests.len() as u64);
    assert_eq!(stats.requests_inline, 0);
    server.shutdown();
}

/// Every request is answered either on the reactor or after one
/// dispatch to a handler, whose wait is recorded as a `dispatch.wait`
/// span carrying the request's trace id.
#[test]
fn inline_and_dispatched_requests_add_up_on_a_replayed_workload() {
    use epi_audit::workload::hospital_scenario;
    let w = hospital_scenario();
    let service = Arc::new(AuditService::new(
        w.schema.clone(),
        ServiceConfig {
            assumption: PriorAssumption::Product,
            workers: 2,
            trace_capacity: 1 << 16,
            ..ServiceConfig::default()
        },
    ));
    let server = Server::spawn_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .expect("bind");
    let mut conn = connect(&server);
    let mut sent = 0u64;
    for round in 0..3 {
        for (d, state) in w.log.entries_with_state() {
            let user = format!("{round}-{}", d.user);
            let requests = [
                Request::Disclose {
                    user: user.clone(),
                    time: d.time,
                    query: d.query.display(w.log.schema()).to_string(),
                    state_mask: state.mask(),
                    audit_query: "hiv_pos".to_owned(),
                },
                Request::Cumulative {
                    user: user.clone(),
                    audit_query: "hiv_pos".to_owned(),
                },
                Request::SessionInfo { user },
            ];
            for request in requests {
                let envelope = RequestMeta {
                    id: None,
                    deadline_ms: None,
                    trace: Some(format!("t{sent}")),
                };
                let reply = exchange(&mut conn, &frame(&request, &envelope));
                assert!(!reply.contains("\"kind\":\"error\""), "{reply}");
                sent += 1;
            }
        }
    }
    let stats = service.metrics();
    assert_eq!(stats.requests, sent);
    assert_eq!(stats.trace_dropped, 0, "the span count below is complete");
    let dispatched: Vec<_> = service
        .tracer()
        .recent(None, usize::MAX)
        .into_iter()
        .filter(|s| s.label == "dispatch.wait")
        .collect();
    assert!(dispatched.iter().all(|s| s.trace.is_some()));
    assert!(stats.requests_inline > 0 && !dispatched.is_empty());
    assert_eq!(
        stats.requests_inline + dispatched.len() as u64,
        stats.requests
    );
    server.shutdown();
}
