//! Property tests for the protocol's malformed-input paths: truncated,
//! mutated, mistyped and oversized request frames must decode to *typed*
//! protocol errors — the daemon never panics on attacker-controlled
//! bytes, and the TCP front-end answers garbage with an error line (or a
//! clean close) instead of wedging the connection.

use epi_audit::{PriorAssumption, Schema};
use epi_json::{Deserialize, Json, Serialize};
use epi_service::{
    AuditService, ErrorCode, Request, RequestMeta, Response, Server, ServerOptions, ServiceConfig,
};
use proptest::collection;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A canonical, well-formed request line to truncate and mutate.
fn canonical_line() -> String {
    Request::Disclose {
        user: "mallory".to_owned(),
        time: 1,
        query: "hiv_pos & !transfusions".to_owned(),
        state_mask: 0b01,
        audit_query: "hiv_pos".to_owned(),
    }
    .to_json()
    .render()
}

/// Full decode path a server applies to one frame: parse, then envelope,
/// then operation. Returns whether each step succeeded — the property is
/// that getting here never panics.
fn decode(frame: &str) -> (bool, bool, bool) {
    match Json::parse(frame) {
        Err(_) => (false, false, false),
        Ok(value) => (
            true,
            RequestMeta::from_json(&value).is_ok(),
            Request::from_json(&value).is_ok(),
        ),
    }
}

proptest! {
    /// Arbitrary byte soup: the parser returns a typed error or a value,
    /// never panics, on any input whatsoever.
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(bytes in collection::vec(any::<u8>(), 64)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = decode(&text);
    }

    /// Every truncation of a valid frame is rejected with a typed error —
    /// a torn NDJSON frame can never decode as a (different) request.
    #[test]
    fn truncated_frames_are_typed_errors(cut in 0usize..58) {
        let line = canonical_line();
        prop_assume!(cut < line.len());
        let torn = &line[..cut];
        let (parsed, _, requested) = decode(torn);
        // `{` alone, or any prefix, must fail at parse or decode: the
        // only way to get a request out is the complete frame.
        prop_assert!(!requested, "torn frame decoded as a request: {torn:?}");
        if parsed {
            // A prefix that happens to parse (e.g. cut == 0 is excluded
            // by from_json needing an `op`) still fails decode above.
            prop_assert!(cut == 0 || torn.trim().is_empty());
        }
    }

    /// Single-byte corruption anywhere in a valid frame either leaves a
    /// decodable frame or fails with a typed error — never a panic, and
    /// never a *different* operation.
    #[test]
    fn mutated_frames_never_panic(pos in 0usize..58, byte in any::<u8>()) {
        let mut bytes = canonical_line().into_bytes();
        prop_assume!(pos < bytes.len());
        bytes[pos] = byte;
        let text = String::from_utf8_lossy(&bytes).into_owned();
        match Json::parse(&text) {
            Err(_) => {}
            Ok(value) => {
                if let Ok(request) = Request::from_json(&value) {
                    // Anything that still decodes must still be a
                    // disclose — the op tag pins the variant.
                    prop_assert!(matches!(request, Request::Disclose { .. }));
                }
                let _ = RequestMeta::from_json(&value);
            }
        }
    }

    /// Mistyped envelope members are protocol errors, not silent `None`s:
    /// a client that sends `"deadline_ms": "soon"` hears about it.
    #[test]
    fn mistyped_envelope_members_are_rejected(mistype_id in any::<bool>()) {
        let frame = if mistype_id {
            r#"{"op":"ping","id":12}"#
        } else {
            r#"{"op":"ping","deadline_ms":"soon"}"#
        };
        let value = Json::parse(frame).unwrap();
        prop_assert!(RequestMeta::from_json(&value).is_err());
        // The op itself is fine; only the envelope is mistyped.
        prop_assert!(Request::from_json(&value).is_ok());
    }

    /// The service layer answers syntactically-valid-but-nonsense
    /// requests with a typed bad_request: unparsable queries and
    /// out-of-range state masks for any mask value.
    #[test]
    fn nonsense_requests_get_bad_request(mask in any::<u32>(), garbage in any::<u64>()) {
        let schema = Schema::from_names(&["hiv_pos", "transfusions"]).unwrap();
        let service = AuditService::new(
            schema,
            ServiceConfig {
                assumption: PriorAssumption::Product,
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let response = service.handle(&Request::Disclose {
            user: "eve".to_owned(),
            time: 1,
            query: format!("no_such_field_{garbage}"),
            state_mask: mask,
            audit_query: "hiv_pos".to_owned(),
        });
        prop_assert!(
            matches!(&response, Response::Error { .. }),
            "unparsable query must be a typed error, got {response:?}"
        );
        let response = service.handle(&Request::Disclose {
            user: "eve".to_owned(),
            time: 1,
            query: "hiv_pos".to_owned(),
            state_mask: mask,
            audit_query: "hiv_pos".to_owned(),
        });
        if mask >= 4 {
            prop_assert!(
                matches!(&response, Response::Error { .. }),
                "out-of-range mask {mask:#b} must be a typed error"
            );
        }
    }
}

/// Sends raw bytes on a fresh connection and reads back one line (with a
/// timeout so a wedged server fails the test instead of hanging it).
fn raw_roundtrip(addr: std::net::SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(payload).expect("write");
    stream.flush().expect("flush");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("server answers garbage with an error line");
    line
}

#[test]
fn oversized_and_invalid_utf8_frames_get_error_lines_over_tcp() {
    let schema = Schema::from_names(&["hiv_pos", "transfusions"]).unwrap();
    let service = Arc::new(AuditService::new(
        schema,
        ServiceConfig {
            assumption: PriorAssumption::Product,
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    let server = Server::spawn_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerOptions {
            max_line_bytes: 256,
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // A line past the configured bound: refused with a typed error.
    let mut oversized = vec![b'x'; 1024];
    oversized.push(b'\n');
    let reply = raw_roundtrip(addr, &oversized);
    let value = Json::parse(reply.trim_end()).expect("error line is valid JSON");
    let Response::Error { message, .. } = Response::from_json(&value).expect("typed error") else {
        panic!("oversized line answered with a non-error: {reply}");
    };
    assert!(message.contains("exceeds 256 bytes"), "got: {message}");

    // An invalid-UTF-8 frame: still one typed error line, never a panic.
    let mut corrupt = canonical_line().into_bytes();
    corrupt[2] = 0xFF;
    corrupt.push(b'\n');
    let reply = raw_roundtrip(addr, &corrupt);
    let value = Json::parse(reply.trim_end()).expect("error line is valid JSON");
    assert!(
        matches!(Response::from_json(&value), Ok(Response::Error { .. })),
        "corrupt frame answered with a non-error: {reply}"
    );

    // The server is unharmed for the next well-behaved client.
    let mut fine = canonical_line().into_bytes();
    fine.push(b'\n');
    let reply = raw_roundtrip(addr, &fine);
    let value = Json::parse(reply.trim_end()).expect("reply is valid JSON");
    assert!(
        matches!(Response::from_json(&value), Ok(Response::Entry(_))),
        "well-formed disclose must still work: {reply}"
    );
    server.shutdown();
}

/// Deeply nested request lines — far inside the default line bound —
/// are answered with `bad_request` instead of overflowing a handler
/// thread's stack and aborting the daemon, and the connection that sent
/// them keeps being served.
#[test]
fn deeply_nested_lines_are_refused_and_the_connection_serves_on() {
    let schema = Schema::from_names(&["r0", "r1"]).unwrap();
    let service = Arc::new(AuditService::new(
        schema,
        ServiceConfig {
            assumption: PriorAssumption::Product,
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut call = |line: String| {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("the daemon answers");
        Response::from_json(&Json::parse(reply.trim_end()).expect("reply is JSON"))
            .expect("typed reply")
    };
    let disclose = |query: String| {
        Request::Disclose {
            user: "eve".to_owned(),
            time: 1,
            query,
            state_mask: 0b01,
            audit_query: "r0".to_owned(),
        }
        .to_json()
        .render()
    };
    let refusals = [
        (
            format!("{}{}", "[".repeat(20_000), "]".repeat(20_000)),
            "bad JSON at byte",
        ),
        (
            disclose(format!("{}r0", "!".repeat(20_000))),
            "nests deeper",
        ),
        (
            disclose(format!("{}r0", "r1|".repeat(30_000))),
            "nests deeper",
        ),
    ];
    for (line, why) in refusals {
        match call(line) {
            Response::Error {
                code: ErrorCode::BadRequest,
                message,
                ..
            } => assert!(message.contains(why), "expected `{why}`, got: {message}"),
            other => panic!("a deep line must be a bad_request, got {other:?}"),
        }
    }
    assert_eq!(call(Request::Ping.to_json().render()), Response::Pong);
    server.shutdown();
}
