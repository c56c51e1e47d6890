//! The traced run: per-layer metrics, measured from outside the daemon.
//!
//! The same seeded requests are replayed with `trace` ids, and each layer
//! is timed by calling its public functions on the run's own inputs:
//!
//! | layer (module)              | how it is measured                                        |
//! |-----------------------------|-----------------------------------------------------------|
//! | `service::reactor`          | TCP round trip minus in-process `handle_with_meta`, same requests; bytes per request; `stats` backpressure stalls |
//! | `service::proto`/`epi-json` | decode and encode of the run's own request and reply lines |
//! | `audit::query`              | `parse` + `Query::compile` of each disclosure's formulas  |
//! | `service::admission`        | `stats` reject counters and the AIMD limit                |
//! | `service::cache`            | `stats` hit/eviction/coalesce counters; `VerdictCache::get` on the run's keys |
//! | `service::worker`           | the daemon's own `queue.wait`/`worker.compute` spans (`trace` op) |
//! | `solver::pipeline`          | `decide_product_pipeline_observed` on the run's pairs     |
//! | `solver::product`/`poly`/`par` | `decide_product_safety`, SOS off, 512-box budget       |
//! | `sos`/`sdp`/`linalg`        | `certify_nonneg_on_box_with(.., PairedBoxes)` on the gap  |
//! | `service::session`          | `SessionStore::apply_disclosure` (durable: with its WAL)  |
//! | `wal`                       | `stats` append/byte/fsync/snapshot counters, the fsync EWMA, `Wal::open` recovery |
//!
//! `trace.overhead_pct` compares closed-loop throughput of the traced
//! phase with the untraced phases around it; `trace.explained_share`
//! divides the summed layer times a lone disclosure crosses (query
//! compile, cache lookup, worker compute, session apply — each weighted
//! by the share of disclosures that cross it) by the in-process p50 of
//! `handle_with_meta` on disclosures, which is measured one request at
//! a time and so has no queue wait in it.

use crate::daemon::{config, copy_dir, handle_line, Daemon};
use crate::load::{self, round_trip, Conn, Phase, Tally};
use crate::report::{metric, percentile, print_section, result_line, Metric};
use crate::workload::{Workload, CONNECTIONS};
use crate::{oracle, prewrite, setup, total, Args};
use epi_audit::query::parse;
use epi_audit::{Decision, Finding, PriorAssumption};
use epi_core::{Deadline, WorldId, WorldSet};
use epi_json::{Deserialize, Json};
use epi_service::{
    AuditService, DecisionKey, Request, RequestMeta, Response, SessionStore, Snapshot, VerdictCache,
};
use epi_solver::pipeline::{decide_product_pipeline_observed, Stage};
use epi_solver::product::decide_product_safety;
use epi_solver::ProductSolverOptions;
use epi_wal::{Wal, WalConfig};
use std::collections::HashSet;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const STAGES: [Stage; 6] = [
    Stage::Unconditional,
    Stage::MiklauSuciu,
    Stage::Monotonicity,
    Stage::Cancellation,
    Stage::BoxNecessary,
    Stage::BranchAndBound,
];

/// Request and reply lines kept per connection for the proto, query,
/// cache and session timings.
const KEEP_LINES: usize = 2000;

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// p50 of nanosecond samples, in microseconds.
fn p50_us(ns: &[u64]) -> f64 {
    percentile(ns, 50.0) / 1000.0
}

/// A disclosure as the daemon sees it, recovered from a request line.
struct Disclosure {
    user: String,
    time: u64,
    query: String,
    audit: String,
    state: u32,
    a: WorldSet,
    disclosed: WorldSet,
}

fn disclosures(wl: &Workload, lines: &[String]) -> Vec<Disclosure> {
    lines
        .iter()
        .filter_map(|line| {
            let json = Json::parse(line).ok()?;
            let Request::Disclose {
                user,
                time,
                query,
                state_mask,
                audit_query,
            } = Request::from_json(&json).ok()?
            else {
                return None;
            };
            let a = parse(&audit_query, &wl.schema).ok()?.compile(&wl.schema);
            let q = parse(&query, &wl.schema).ok()?.compile(&wl.schema);
            let disclosed = if q.contains(WorldId(state_mask)) {
                q
            } else {
                q.complement()
            };
            Some(Disclosure {
                user,
                time,
                query,
                audit: audit_query,
                state: state_mask,
                a,
                disclosed,
            })
        })
        .collect()
}

/// Closed-loop throughput of one phase over both connections, with the
/// tallies before and after it.
fn closed_phase(
    wl: &Workload,
    daemon: &Daemon,
    conns: &mut [Conn],
    secs: f64,
    traced: bool,
) -> Result<(f64, Tally, Tally), String> {
    for c in conns.iter_mut() {
        c.traced = traced;
        c.keep_lines = if traced { KEEP_LINES } else { 0 };
    }
    let before = total(conns);
    let streams = conns
        .iter()
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let stats = load::drive(
        wl,
        conns,
        streams,
        &[Phase::Closed {
            secs,
            window: wl.spec.window,
        }],
    )?;
    let rps = stats
        .iter()
        .map(|s| s[0].ok as f64 / s[0].busy_secs.max(1e-9))
        .sum();
    Ok((rps, before, total(conns)))
}

fn stats_op(stream: &mut TcpStream) -> Result<Snapshot, String> {
    let (reply, _) = round_trip(stream, r#"{"op":"stats"}"#).map_err(|e| format!("stats: {e}"))?;
    match Json::parse(&reply)
        .ok()
        .and_then(|j| Response::from_json(&j).ok())
    {
        Some(Response::Stats(s)) => Ok(*s),
        _ => Err(format!("unexpected stats reply {reply}")),
    }
}

/// Per-request `queue.wait` and `worker.compute` span durations (ns)
/// from the daemon's trace ring, for this run's trace ids.
fn worker_spans(stream: &mut TcpStream) -> Result<(Vec<u64>, Vec<u64>), String> {
    let (reply, _) = round_trip(stream, r#"{"op":"trace","limit":1000000}"#)
        .map_err(|e| format!("trace: {e}"))?;
    let Some(Response::Trace(spans)) = Json::parse(&reply)
        .ok()
        .and_then(|j| Response::from_json(&j).ok())
    else {
        return Err("unexpected trace reply".to_owned());
    };
    let (mut wait, mut compute) = (Vec::new(), Vec::new());
    for s in spans.iter().filter(|s| s.trace.is_some()) {
        match s.label.as_str() {
            "queue.wait" => wait.push(s.duration_micros * 1000),
            "worker.compute" => compute.push(s.duration_micros * 1000),
            _ => {}
        }
    }
    Ok((wait, compute))
}

/// Runs `f` over `items` until `budget` is spent (always at least once).
fn within<T>(items: &[T], budget: Duration, mut f: impl FnMut(&T)) -> usize {
    let started = Instant::now();
    let mut n = 0;
    for item in items {
        if n > 0 && started.elapsed() >= budget {
            break;
        }
        f(item);
        n += 1;
    }
    n
}

/// The traced run of one workload.
pub fn run(wl: &Workload, args: &Args, dir: &Path) -> Result<i32, String> {
    let spec = &wl.spec;
    let secs = args.seconds;
    let mut conns: Vec<Conn> = (0..CONNECTIONS).map(|c| Conn::new(wl, c)).collect();
    conns[0].inject_wrong = args.inject_wrong;
    let pristine = dir.join("pristine");
    if spec.durable {
        prewrite(wl, &mut conns, &pristine)?;
    }
    let (daemon, _) = setup(wl, dir, 1)?;
    let mut out: Vec<Metric> = Vec::new();

    // Reactor: the same requests over TCP (one in flight) and
    // in-process on a twin daemon in the same state. The twin starts
    // from connection 0's model but with empty counts, so the oracle
    // summary below counts the pre-written history once.
    let mut twin_conn = conns[0].clone();
    twin_conn.inject_wrong = false;
    twin_conn.tally = Tally::default();
    twin_conn.deferred.clear();
    twin_conn.mismatch_notes.clear();
    let mut probe = daemon.connect()?;
    let mut tcp_ns = Vec::new();
    let budget = Duration::from_secs_f64(secs * 0.15);
    let started = Instant::now();
    while tcp_ns.len() < 4 || (started.elapsed() < budget && tcp_ns.len() < 4000) {
        let p = conns[0].prepare(wl);
        conns[0].tally.attempted += 1;
        let (reply, rtt) = round_trip(&mut probe, &p.line).map_err(|e| format!("probe: {e}"))?;
        conns[0].settle(&p, &reply);
        tcp_ns.push(ns(rtt));
    }
    let twin_dir = dir.join("twin");
    if spec.durable {
        copy_dir(&pristine, &twin_dir).map_err(|e| format!("copy log: {e}"))?;
    }
    let twin = AuditService::open(wl.schema.clone(), config(spec, Some(&twin_dir)))
        .map_err(|e| format!("twin: {e}"))?;
    let (mut inproc_ns, mut inproc_disclose_ns) = (Vec::new(), Vec::new());
    for _ in 0..tcp_ns.len() {
        let p = twin_conn.prepare(wl);
        twin_conn.tally.attempted += 1;
        let (reply, took) = handle_line(&twin, &p.line);
        twin_conn.settle(&p, &reply);
        inproc_ns.push(ns(took));
        if !p.read {
            inproc_disclose_ns.push(ns(took));
        }
    }
    drop(twin);

    // Untraced, traced, untraced closed-loop phases on the same daemon.
    let phase_secs = secs * 0.25;
    let (u1, _, _) = closed_phase(wl, &daemon, &mut conns, phase_secs, false)?;
    let before = stats_op(&mut probe)?;
    let (traced_rps, t0, t1) = closed_phase(wl, &daemon, &mut conns, phase_secs, true)?;
    let after = stats_op(&mut probe)?;
    let (wait_ns, compute_ns) = worker_spans(&mut probe)?;
    let (u2, _, _) = closed_phase(wl, &daemon, &mut conns, phase_secs, false)?;
    let untraced = (u1 + u2) / 2.0;
    let fsync_ewma = daemon.service.wal().map_or(0, |w| w.fsync_ewma_micros());
    daemon.stop();

    let requests = (t1.attempted - t0.attempted).max(1) as f64;
    let disclosed = (t1.disclosures - t0.disclosures).max(1) as f64;
    let d = |f: fn(&Snapshot) -> u64| f(&after).saturating_sub(f(&before)) as f64;

    // service::reactor
    out.push(metric(
        "reactor.overhead_us_p50",
        p50_us(&tcp_ns) - p50_us(&inproc_ns),
        "us",
    ));
    out.push(metric(
        "reactor.bytes_per_request",
        ((t1.bytes_out - t0.bytes_out) + (t1.bytes_in - t0.bytes_in)) as f64 / requests,
        "bytes",
    ));
    out.push(metric(
        "reactor.backpressure_stalls",
        d(|s| s.backpressure_stalls),
        "count",
    ));

    // service::proto / epi-json, audit::query
    let request_lines: Vec<String> = conns.iter().flat_map(|c| c.request_lines.clone()).collect();
    let reply_lines: Vec<String> = conns.iter().flat_map(|c| c.reply_lines.clone()).collect();
    let decode_ns: Vec<u64> = request_lines
        .iter()
        .map(|line| {
            let t = Instant::now();
            let json = Json::parse(line).expect("request lines are JSON");
            let request = Request::from_json(&json).expect("request lines decode");
            let meta = RequestMeta::from_json(&json).expect("request envelopes decode");
            std::hint::black_box((request, meta));
            ns(t.elapsed())
        })
        .collect();
    let encode_ns: Vec<u64> = reply_lines
        .iter()
        .filter_map(|line| {
            let json = Json::parse(line).ok()?;
            let response = Response::from_json(&json).ok()?;
            let id = oracle::str_member(line, "id").map(str::to_owned);
            let t = Instant::now();
            std::hint::black_box(response.to_json_with_id(id.as_deref()).render());
            Some(ns(t.elapsed()))
        })
        .collect();
    out.push(metric("proto.decode_us", p50_us(&decode_ns), "us"));
    out.push(metric("proto.encode_us", p50_us(&encode_ns), "us"));
    let sample = disclosures(wl, &request_lines);
    let compile_ns: Vec<u64> = sample
        .iter()
        .map(|x| {
            let t = Instant::now();
            for text in [&x.audit, &x.query] {
                let q = parse(text, &wl.schema).expect("generated formulas parse");
                std::hint::black_box(q.compile(&wl.schema));
            }
            ns(t.elapsed())
        })
        .collect();
    out.push(metric("audit.compile_us", p50_us(&compile_ns), "us"));

    // service::admission
    out.push(metric(
        "admission.rejects.limit",
        d(|s| s.admission_rejects_limit),
        "count",
    ));
    out.push(metric(
        "admission.rejects.deadline",
        d(|s| s.admission_rejects_deadline),
        "count",
    ));
    out.push(metric(
        "admission.rejects.fairness",
        d(|s| s.admission_rejects_fairness),
        "count",
    ));
    out.push(metric(
        "admission.rejects.degraded",
        d(|s| s.admission_rejects_degraded),
        "count",
    ));
    out.push(metric(
        "admission.limit",
        after.admission_limit as f64,
        "count",
    ));

    // service::cache
    let (hits, misses) = (d(|s| s.cache_hits), d(|s| s.cache_misses));
    out.push(metric(
        "cache.hit_rate",
        hits / (hits + misses).max(1.0),
        "share",
    ));
    out.push(metric("cache.evictions", d(|s| s.cache_evictions), "count"));
    out.push(metric("cache.coalesced", d(|s| s.coalesced), "count"));
    // Cached decisions carry an explanation like the run's own verdicts.
    let explanation = reply_lines
        .iter()
        .find_map(|l| oracle::str_member(l, "explanation"))
        .unwrap_or_default()
        .to_owned();
    let cache = VerdictCache::new(epi_service::ServiceConfig::default().cache_capacity);
    let lookup_ns: Vec<u64> = sample
        .iter()
        .filter(|x| x.a.contains(WorldId(x.state)))
        .map(|x| {
            let key = DecisionKey {
                audit: x.a.clone(),
                disclosed: x.disclosed.clone(),
                assumption: PriorAssumption::Product,
            };
            let t = Instant::now();
            let hit = cache.get(&key);
            let took = ns(t.elapsed());
            if hit.is_none() {
                cache.insert(
                    key,
                    Decision {
                        finding: Finding::Safe,
                        explanation: explanation.clone(),
                        stage: None,
                        boxes_processed: 0,
                        undecided: None,
                        risk_micros: 0,
                    },
                );
            }
            took
        })
        .collect();
    out.push(metric("cache.lookup_us", p50_us(&lookup_ns), "us"));

    // service::worker
    out.push(metric(
        "worker.queue_wait_us_p50",
        percentile(&wait_ns, 50.0) / 1000.0,
        "us",
    ));
    out.push(metric(
        "worker.queue_wait_us_p99",
        percentile(&wait_ns, 99.0) / 1000.0,
        "us",
    ));
    out.push(metric(
        "worker.compute_us_p50",
        percentile(&compute_ns, 50.0) / 1000.0,
        "us",
    ));
    out.push(metric(
        "worker.compute_us_p99",
        percentile(&compute_ns, 99.0) / 1000.0,
        "us",
    ));

    // solver::pipeline, solver::product/poly/par, sos/sdp/linalg
    let mut seen = HashSet::new();
    let pairs: Vec<(WorldSet, WorldSet)> = sample
        .iter()
        .filter(|x| x.a.contains(WorldId(x.state)))
        .filter(|x| seen.insert((x.a.blocks().to_vec(), x.disclosed.blocks().to_vec())))
        .map(|x| (x.a.clone(), x.disclosed.clone()))
        .collect();
    let mut stage_us = [0u64; 6];
    let mut decided = [0u64; 6];
    let mut tail: Vec<(WorldSet, WorldSet)> = Vec::new();
    let decisions = within(&pairs, Duration::from_secs_f64(secs * 0.2), |(a, b)| {
        let decision = decide_product_pipeline_observed(
            &wl.cube,
            a,
            b,
            ProductSolverOptions::default(),
            &Deadline::none(),
            &mut |stage, micros| {
                stage_us[STAGES
                    .iter()
                    .position(|&s| s == stage)
                    .expect("known stage")] += micros
            },
        );
        decided[STAGES
            .iter()
            .position(|&s| s == decision.stage)
            .expect("known stage")] += 1;
        if decision.stage == Stage::BranchAndBound {
            tail.push((a.clone(), b.clone()));
        }
    });
    for (i, stage) in STAGES.iter().enumerate() {
        let label = stage.metric_label();
        out.push(metric(
            format!("pipeline.share.{label}"),
            decided[i] as f64 / decisions.max(1) as f64,
            "share",
        ));
        out.push(metric(
            format!("pipeline.us.{label}"),
            stage_us[i] as f64 / decisions.max(1) as f64,
            "us",
        ));
    }
    let capped = ProductSolverOptions {
        sos_fallback: false,
        max_boxes: 512,
        ..ProductSolverOptions::default()
    };
    let (mut boxes, mut bnb_secs, mut bnb_ms) = (0u64, 0.0f64, Vec::new());
    let mut unresolved: Vec<(WorldSet, WorldSet)> = Vec::new();
    for (a, b) in &tail {
        let t = Instant::now();
        let (verdict, stats) = decide_product_safety(&wl.cube, a, b, capped);
        let took = t.elapsed();
        boxes += stats.boxes_processed as u64;
        bnb_secs += took.as_secs_f64();
        bnb_ms.push(ns(took));
        if verdict.is_unknown() {
            unresolved.push((a.clone(), b.clone()));
        }
    }
    out.push(metric(
        "product.boxes_per_decision",
        boxes as f64 / tail.len().max(1) as f64,
        "count",
    ));
    out.push(metric(
        "product.boxes_per_sec",
        boxes as f64 / bnb_secs.max(1e-9),
        "1/s",
    ));
    out.push(metric(
        "product.ms_p50",
        percentile(&bnb_ms, 50.0) / 1e6,
        "ms",
    ));
    let (mut sos_ns, mut certified) = (Vec::new(), 0u64);
    for (a, b) in &unresolved {
        let gap: epi_poly::Polynomial<f64> =
            epi_poly::indicator::safety_gap_polynomial(wl.spec.records, a, b);
        let t = Instant::now();
        let cert = epi_sos::certify_nonneg_on_box_with(
            &gap,
            0,
            epi_sdp::SdpOptions::default(),
            epi_sos::BoxMultipliers::PairedBoxes,
        );
        sos_ns.push(ns(t.elapsed()));
        certified += u64::from(cert.is_some());
    }
    out.push(metric(
        "sos.certify_ms_p50",
        percentile(&sos_ns, 50.0) / 1e6,
        "ms",
    ));
    out.push(metric("sos.attempts", sos_ns.len() as f64, "count"));
    out.push(metric(
        "sos.certified_share",
        certified as f64 / sos_ns.len().max(1) as f64,
        "share",
    ));

    // service::session (durable: through a WAL with the daemon's policy)
    let universe = wl.cube.size();
    let shards = epi_service::ServiceConfig::default().session_shards;
    let store = if spec.durable {
        let cfg = WalConfig::new(dir.join("apply"), shards, universe);
        let (wal, recovered) = Wal::open(cfg).map_err(|e| format!("wal: {e}"))?;
        SessionStore::durable(shards, universe, Arc::new(wal), recovered.shards)
    } else {
        SessionStore::new(shards, universe)
    };
    let apply_ns: Vec<u64> = sample
        .iter()
        .map(|x| {
            let t = Instant::now();
            let applied = store.apply_disclosure(&x.user, x.time, x.state, &x.disclosed, 0);
            let took = ns(t.elapsed());
            applied.expect("replayed disclosures apply");
            took
        })
        .collect();
    drop(store);
    out.push(metric("session.apply_us", p50_us(&apply_ns), "us"));

    // wal
    let appends = d(|s| s.wal_appends);
    out.push(metric(
        "wal.appends_per_disclosure",
        appends / disclosed,
        "count",
    ));
    out.push(metric(
        "wal.bytes_per_disclosure",
        d(|s| s.wal_bytes) / disclosed,
        "bytes",
    ));
    out.push(metric(
        "wal.fsyncs_per_append",
        d(|s| s.wal_fsyncs) / appends.max(1.0),
        "count",
    ));
    out.push(metric("wal.snapshots", d(|s| s.snapshot_count), "count"));
    out.push(metric("wal.fsync_ewma_us", fsync_ewma as f64, "us"));
    let (mut recovery_ms, mut recovery_records) = (0.0, 0.0);
    if spec.durable {
        let copy = dir.join("recover");
        copy_dir(&pristine, &copy).map_err(|e| format!("copy log: {e}"))?;
        let t = Instant::now();
        let (_, recovered) = Wal::open(WalConfig::new(&copy, shards, universe))
            .map_err(|e| format!("recover: {e}"))?;
        recovery_ms = t.elapsed().as_secs_f64() * 1e3;
        recovery_records = recovered.report.replayed_records as f64;
    }
    out.push(metric("wal.recovery_ms", recovery_ms, "ms"));
    out.push(metric("wal.recovery_records", recovery_records, "count"));

    // Trace overhead and explained share.
    out.push(metric(
        "trace.overhead_pct",
        (untraced - traced_rps) / untraced.max(1e-9) * 100.0,
        "%",
    ));
    // Per disclosure: every one compiles and applies; the ungated ones
    // look the cache up; the misses are computed by a worker.
    let ungated = 1.0 - (t1.gated - t0.gated) as f64 / disclosed;
    let computed = (misses / disclosed).min(1.0);
    let explained_us = p50_us(&compile_ns)
        + p50_us(&apply_ns)
        + ungated * p50_us(&lookup_ns)
        + computed * percentile(&compute_ns, 50.0) / 1000.0;
    out.push(metric(
        "trace.explained_share",
        explained_us / p50_us(&inproc_disclose_ns).max(1e-9),
        "share",
    ));

    // The oracle covers the traced run too.
    conns.push(twin_conn);
    let late = oracle::resolve(&wl.cube, conns.iter().map(|c| &c.deferred[..])).mismatches;
    let tally = total(&conns);
    for n in late
        .iter()
        .chain(conns.iter().flat_map(|c| c.mismatch_notes.iter()))
        .take(8)
    {
        eprintln!("oracle: {n}");
    }
    let failed = tally.failed() + late.len() as u64;
    let correct = tally.mismatches == 0 && tally.transport == 0 && late.is_empty();
    println!(
        "perfbench workload={} seed={} seconds={} trace=1 workers={} connections={}",
        spec.name,
        args.seed,
        secs,
        crate::daemon::workers(),
        CONNECTIONS
    );
    print_section("layer", &out);
    print_section(
        "sample",
        &[
            metric("sample.reactor_requests", tcp_ns.len() as f64, "count"),
            metric("sample.pipeline_decisions", decisions as f64, "count"),
            metric("sample.worker_spans", compute_ns.len() as f64, "count"),
            metric("sample.traced_rps", traced_rps, "1/s"),
            metric("sample.untraced_rps", untraced, "1/s"),
        ],
    );
    println!(
        "{}",
        result_line(correct, tally.attempted.max(1), failed, &out)
    );
    Ok(if correct { 0 } else { 1 })
}
