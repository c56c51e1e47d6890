//! End-to-end observability suite: a client-minted trace id rides the
//! NDJSON envelope through the daemon, and the `trace` op returns the
//! request's span tree — connection handling, cache lookup, queue wait,
//! worker compute, and solver stages. The `metrics` op renders the full
//! registry in Prometheus text exposition format, and a zero slow
//! threshold routes every decision into the slow log.

use epi_audit::{PriorAssumption, Schema};
use epi_service::{
    AuditOutcome, AuditService, Client, LocalClient, Server, ServiceConfig, WireSpan,
};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::from_names(&["hiv_pos", "transfusions"]).unwrap()
}

fn service(config: ServiceConfig) -> Arc<AuditService> {
    Arc::new(AuditService::new(schema(), config))
}

fn labels(spans: &[WireSpan]) -> Vec<&str> {
    spans.iter().map(|s| s.label.as_str()).collect()
}

/// A disclosure tagged with a trace id must leave a fetchable span trail
/// covering every layer the request crossed, and the `trace` op must
/// filter spans to exactly that id.
#[test]
fn traced_disclosure_spans_cover_every_layer() {
    let service = service(ServiceConfig {
        assumption: PriorAssumption::Product,
        workers: 2,
        ..ServiceConfig::default()
    });
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // The audited property is true in the disclosed state, so the
    // verdict needs the solver: the trail must reach a solver stage.
    let outcome = client
        .disclose_traced("alice", 1, "hiv_pos", 0b11, "hiv_pos", "req-alice-1")
        .expect("traced disclose");
    assert!(matches!(outcome, AuditOutcome::Entry(_)));

    let spans = client.trace(Some("req-alice-1"), None).expect("trace op");
    assert!(!spans.is_empty(), "traced request recorded no spans");
    for span in &spans {
        assert_eq!(
            span.trace.as_deref(),
            Some("req-alice-1"),
            "trace filter leaked a foreign span: {span:?}"
        );
    }
    let got = labels(&spans);
    for wanted in [
        "server.handle",
        "cache.lookup",
        "queue.wait",
        "worker.compute",
    ] {
        assert!(got.contains(&wanted), "missing span {wanted:?} in {got:?}");
    }
    assert!(
        got.iter().any(|l| l.starts_with("solver.")),
        "no solver-stage span in {got:?}"
    );
    assert!(
        got.contains(&"session.apply"),
        "disclosure did not record a session span: {got:?}"
    );
    // The compute span names the width the solver ran at: disclosing
    // `hiv_pos` against itself depends on one of the schema's two records.
    let compute = spans
        .iter()
        .find(|s| s.label == "worker.compute")
        .expect("compute span");
    let detail = compute.detail.as_deref().unwrap_or_default();
    assert!(
        detail.starts_with("finding=") && detail.ends_with(" support=1/2"),
        "compute span detail {detail:?}"
    );

    // Spans arrive oldest-first with strictly increasing sequence
    // numbers, so the trail reads as a timeline.
    for pair in spans.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "spans out of order: {spans:?}");
    }

    // A second trace id stays isolated from the first.
    client
        .disclose_traced("bob", 1, "hiv_pos", 0b11, "hiv_pos", "req-bob-1")
        .expect("second traced disclose");
    let bob = client.trace(Some("req-bob-1"), None).expect("trace op");
    assert!(bob.iter().all(|s| s.trace.as_deref() == Some("req-bob-1")));
    // Bob's identical decision coalesces onto the cached verdict, so his
    // trail has a cache hit instead of a fresh compute.
    let bob_labels = labels(&bob);
    assert!(
        bob_labels.contains(&"cache.lookup"),
        "cache span missing: {bob_labels:?}"
    );

    // Unfiltered reads return the shared ring: both trails are visible.
    let all = client.trace(None, Some(1024)).expect("unfiltered trace");
    let ids: Vec<_> = all.iter().filter_map(|s| s.trace.as_deref()).collect();
    assert!(ids.contains(&"req-alice-1") && ids.contains(&"req-bob-1"));

    drop(client);
    server.shutdown();
}

/// The `metrics` op renders every counter and all seven per-stage
/// latency histograms in Prometheus text exposition format.
#[test]
fn metrics_exposition_covers_counters_and_stage_histograms() {
    let mut client = LocalClient::new(service(ServiceConfig {
        assumption: PriorAssumption::Product,
        workers: 1,
        ..ServiceConfig::default()
    }));
    client
        .disclose("carol", 1, "hiv_pos", 0b11, "hiv_pos")
        .expect("disclose");

    let text = client.metrics_text().expect("metrics op");
    for counter in [
        "epi_requests_total",
        "epi_decide_requests_total",
        "epi_cache_hits_total",
        "epi_cache_misses_total",
        "epi_cache_evictions_total",
        "epi_coalesced_total",
        "epi_computed_total",
        "epi_negative_gated_total",
        "epi_deadline_exceeded_total",
        "epi_shed_requests_total",
        "epi_worker_respawns_total",
        "epi_solver_micros_total",
        "epi_solver_boxes_total",
        "epi_pool_tasks_total",
        "epi_pool_steals_total",
        "epi_trace_spans_total",
        "epi_trace_dropped_total",
        "epi_slow_decisions_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {counter} counter")),
            "missing counter {counter} in exposition:\n{text}"
        );
    }
    for gauge in ["epi_queue_high_water", "epi_pool_workers"] {
        assert!(
            text.contains(&format!("# TYPE {gauge} gauge")),
            "missing gauge {gauge} in exposition:\n{text}"
        );
    }
    assert!(text.contains("# TYPE epi_stage_latency_micros histogram"));
    for stage in [
        "unconditional",
        "miklau_suciu",
        "monotonicity",
        "cancellation",
        "box_necessary",
        "branch_and_bound",
        "refutation_search",
    ] {
        assert!(
            text.contains(&format!(
                "epi_stage_latency_micros_count{{stage=\"{stage}\"}}"
            )),
            "missing stage histogram {stage:?} in exposition:\n{text}"
        );
        assert!(text.contains(&format!(
            "epi_stage_latency_micros_bucket{{stage=\"{stage}\",le=\"+Inf\"}}"
        )));
    }
    // The requests counter actually moved (the disclose, plus the
    // metrics request itself by the time the registry is rendered).
    let requests: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("epi_requests_total "))
        .expect("sample line for epi_requests_total")
        .parse()
        .expect("counter renders as an integer");
    assert!(requests >= 1, "exposition:\n{text}");
}

/// A zero slow threshold classifies every recorded span as slow, so the
/// slow log (the `trace` op with `slow: true`) captures the decision.
#[test]
fn zero_slow_threshold_routes_decisions_into_the_slow_log() {
    let mut client = LocalClient::new(service(ServiceConfig {
        assumption: PriorAssumption::Product,
        workers: 1,
        slow_threshold_micros: Some(0),
        ..ServiceConfig::default()
    }));
    client
        .disclose_traced("dave", 1, "hiv_pos", 0b11, "hiv_pos", "req-dave-1")
        .expect("disclose");

    let slow = client.slow_log(None).expect("slow log");
    assert!(!slow.is_empty(), "zero threshold captured nothing");
    assert!(
        slow.iter()
            .any(|s| s.trace.as_deref() == Some("req-dave-1")),
        "slow log lost the trace id: {slow:?}"
    );
    // The snapshot counts them too.
    let stats = client.stats().expect("stats");
    assert!(stats.slow_decisions > 0, "slow counter stayed zero");
    assert!(stats.trace_spans > 0, "span counter stayed zero");
}
