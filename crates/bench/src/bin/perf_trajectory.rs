//! Perf-trajectory harness for the solver engine: times the E8 (product
//! solver), E12 (audit composition), E14 (parallel scaling), E15
//! (incremental subdivision / zero-allocation hot path)
//! E16 (disclosure throughput vs. durability policy), E17
//! (concurrent-connection throughput of the reactor front-end), E18
//! (goodput under an overload storm with adaptive admission), E19
//! (O(1) exhausted-budget denial vs. the full solver path) and E20
//! (SIMD microkernel ns/element sweep plus batched single-core wave
//! throughput vs. the PR 5 recording) workloads against the recorded
//! baselines and writes the results to `BENCH_PR10.json` alongside the
//! human-readable tables, so future PRs can diff the numbers
//! machine-readably.
//!
//! Run:  `cargo run --release --bin perf_trajectory [-- out.json [baseline.json]]`
//!
//! The solver has one engine, so E8, E12 and E14 time it at several
//! thread counts. The retired ablation arms — the pre-engine `legacy_seq`
//! solver, E15's recompute-per-box path and E20's box-at-a-time path —
//! stay recorded in `BENCH_PR2.json`, `BENCH_PR5.json` and
//! `BENCH_PR10.json`. E15 compares the engine against the committed
//! `BENCH_PR2.json` numbers, reporting boxes/sec and — thanks to the
//! counting global allocator this binary installs — allocations/box.
//! When `available_parallelism` is 1 the thread-count sweep is flat; the
//! JSON records the core count so readers can tell.

use epi_bench::{hard_family, PairShape};
use epi_boolean::{generate, Cube};
use epi_core::WorldSet;
use epi_json::Json;
use epi_poly::{indicator, subdivision};
use epi_solver::{decide_product_safety, ProductSolverOptions, Verdict};
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Every allocation in this binary goes through the counting allocator,
/// so the E15 rows can report allocations per box on the solver hot path.
#[global_allocator]
static ALLOC: epi_bench::alloc::CountingAllocator = epi_bench::alloc::CountingAllocator;

/// Best-of-9 wall time in milliseconds. Box counts are deterministic —
/// only scheduling noise varies between runs — so the minimum is the
/// faithful estimate of a configuration's cost (a single descheduled
/// run would skew a mean, and can even skew a median-of-3).
fn time_ms(mut f: impl FnMut()) -> f64 {
    (0..9)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn verdict_tag(v: &Verdict<epi_solver::ProductWitness>) -> &'static str {
    match v {
        Verdict::Safe(_) => "safe",
        Verdict::Unsafe(_) => "unsafe",
        Verdict::Unknown => "unknown",
    }
}

fn e8(configs: &[(&str, ProductSolverOptions)]) -> Json {
    println!("\n## E8 — product solver, mixed workload (8 pairs per n)\n");
    let mut rows = Vec::new();
    for n in [3usize, 4, 5, 6] {
        let cube = Cube::new(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let pairs: Vec<(WorldSet, WorldSet)> = (0..8)
            .map(|i| PairShape::all()[i % 4].sample(&cube, &mut rng))
            .collect();
        let mut walls = Vec::new();
        for (tag, opts) in configs {
            let wall = time_ms(|| {
                for (a, b) in &pairs {
                    let _ = decide_product_safety(&cube, a, b, *opts);
                }
            });
            walls.push((*tag, wall));
        }
        let speedup = walls[0].1 / walls.last().unwrap().1;
        println!(
            "n={n}: {}  speedup_8t_vs_1t={speedup:.2}x",
            walls
                .iter()
                .map(|(t, w)| format!("{t}={w:.1}ms"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        rows.push(Json::obj(
            [
                ("n", Json::from(n)),
                ("speedup_8t_vs_1t", Json::from(speedup)),
            ]
            .into_iter()
            .chain(
                walls
                    .iter()
                    .map(|(t, w)| (*t, Json::obj([("wall_ms", Json::from(*w))]))),
            )
            .collect::<Vec<_>>(),
        ));
    }
    Json::arr(rows)
}

fn e12() -> Json {
    use epi_audit::auditor::{Auditor, PriorAssumption};
    use epi_audit::query::parse;
    use epi_audit::workload::{hospital_scenario, random_workload, WorkloadParams};

    println!("\n## E12 — audit composition, product-prior assumption\n");
    let mut rows = Vec::new();
    let scenario = hospital_scenario();
    let hiv = parse("hiv_pos", &scenario.schema).unwrap();
    let mut workloads = vec![("hospital_scenario", scenario.schema, scenario.log, hiv)];
    for records in [4usize, 5] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let w = random_workload(
            WorkloadParams {
                records,
                users: 3,
                disclosures: 12,
                ..Default::default()
            },
            &mut rng,
        );
        let q = parse("r0", &w.schema).unwrap();
        let name: &'static str = if records == 4 {
            "random_log_r4"
        } else {
            "random_log_r5"
        };
        workloads.push((name, w.schema, w.log, q));
    }
    for (name, _schema, log, query) in &workloads {
        let auditor = Auditor::new(PriorAssumption::Product);
        let wall = time_ms(|| {
            let _ = auditor.audit(log, query);
        });
        println!("{name}: engine={wall:.1}ms");
        rows.push(Json::obj([
            ("workload", Json::from(*name)),
            ("engine_wall_ms", Json::from(wall)),
        ]));
    }
    Json::arr(rows)
}

/// The E14 instance set: the structured hard family (Remark 5.12 tensors
/// whose gaps vanish on interior surfaces — box-search-bound) plus dense
/// monotone-no pairs (up-set vs. down-set, safe for every product prior by
/// FKG — construction-bound).
fn e14_instances() -> Vec<(String, Cube, WorldSet, WorldSet, usize)> {
    let mut out: Vec<(String, Cube, WorldSet, WorldSet, usize)> = hard_family()
        .into_iter()
        .map(|(name, cube, a, b)| {
            let budget = if cube.dims() >= 9 { 1_000 } else { 8_000 };
            (name.to_string(), cube, a, b, budget)
        })
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    for n in [9usize, 10, 12] {
        let cube = Cube::new(n);
        let (a, b) = PairShape::MonotoneNo.sample(&cube, &mut rng);
        out.push((format!("monotone_no_n{n}"), cube, a, b, 512));
    }
    out
}

fn e14() -> (Json, f64) {
    println!("\n## E14 — parallel engine thread sweep (hard family)\n");
    // Per-core normalization: an 8-thread request on a 2-core container
    // runs on 2 cores, so boxes/sec/core divides by the effective count,
    // not the requested one.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let eff_8t = 8.min(cores.max(1));
    let mut rows = Vec::new();
    let mut total_1t = 0.0;
    let mut total_8t = 0.0;
    for (name, cube, a, b, max_boxes) in e14_instances() {
        // Ascent and the SOS fallback are identical in both engines and
        // orthogonal to what E14 measures (gap assembly + box search);
        // E8 ablates them separately.
        let base = ProductSolverOptions {
            max_boxes,
            coordinate_ascent: false,
            sos_fallback: false,
            ..Default::default()
        };
        let configs = [
            ("dense_1t", ProductSolverOptions { threads: 1, ..base }),
            ("dense_2t", ProductSolverOptions { threads: 2, ..base }),
            ("dense_8t", ProductSolverOptions { threads: 8, ..base }),
        ];
        let mut walls = Vec::new();
        let mut verdicts = Vec::new();
        let mut boxes = 0usize;
        for (tag, opts) in configs {
            let wall = time_ms(|| {
                let _ = decide_product_safety(&cube, &a, &b, opts);
            });
            let (v, stats) = decide_product_safety(&cube, &a, &b, opts);
            boxes = stats.boxes_processed;
            verdicts.push(verdict_tag(&v));
            walls.push((tag, wall));
        }
        assert!(
            verdicts.iter().all(|v| *v == verdicts[0]),
            "{name}: deterministic engine must agree across configs"
        );
        let speedup = walls[0].1 / walls[2].1;
        total_1t += walls[0].1;
        total_8t += walls[2].1;
        println!(
            "{name} (n={}, {} boxes, {}): {}  speedup_8t={speedup:.2}x",
            cube.dims(),
            boxes,
            verdicts[0],
            walls
                .iter()
                .map(|(t, w)| format!("{t}={w:.1}ms"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        rows.push(Json::obj(
            [
                ("instance", Json::from(name.as_str())),
                ("n", Json::from(cube.dims())),
                ("max_boxes", Json::from(max_boxes)),
                ("boxes_processed", Json::from(boxes)),
                ("verdict", Json::from(verdicts[0])),
                ("speedup_8t_vs_1t", Json::from(speedup)),
                ("threads_effective_8t", Json::from(eff_8t)),
                (
                    "dense_8t_boxes_per_sec_per_core",
                    Json::from(boxes as f64 / (walls[2].1 / 1e3) / eff_8t as f64),
                ),
            ]
            .into_iter()
            .chain(
                walls
                    .iter()
                    .map(|(t, w)| (*t, Json::obj([("wall_ms", Json::from(*w))]))),
            )
            .collect::<Vec<_>>(),
        ));
    }
    let aggregate = total_1t / total_8t;
    println!("\naggregate speedup (Σ dense_1t / Σ dense_8t): {aggregate:.2}x");
    (Json::arr(rows), aggregate)
}

/// The E15 instance set: the adversarial (verdict-unknown) rows of the
/// E14 hard family — the instances where the branch-and-bound grinds its
/// full box budget, so per-box kernel cost is exactly what the wall
/// clock measures.
fn e15_instances() -> Vec<(String, Cube, WorldSet, WorldSet, usize)> {
    hard_family()
        .into_iter()
        .map(|(name, cube, a, b)| {
            let budget = if cube.dims() >= 9 { 1_000 } else { 8_000 };
            (name.to_string(), cube, a, b, budget)
        })
        .collect()
}

/// Per-instance `dense_1t` boxes/sec recorded in `BENCH_PR2.json`, keyed
/// by instance name. Missing file or rows simply yield no baseline (the
/// speedup fields are then omitted).
fn pr2_baseline(path: &str) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let Some(Json::Arr(rows)) = doc.get("e14") else {
        return Vec::new();
    };
    for row in rows {
        let (Some(name), Some(boxes), Some(wall_ms)) = (
            row.get("instance").and_then(Json::as_str),
            row.get("boxes_processed").and_then(Json::as_f64),
            row.get("dense_1t")
                .and_then(|w| w.get("wall_ms"))
                .and_then(Json::as_f64),
        ) else {
            continue;
        };
        if wall_ms > 0.0 {
            out.push((name.to_owned(), boxes / (wall_ms / 1e3)));
        }
    }
    out
}

fn e15(baseline_path: &str) -> (Json, f64, Option<f64>) {
    println!("\n## E15 — incremental subdivision kernel (adversarial hard family)\n");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let eff_8t = 8.min(cores.max(1));
    let baseline = pr2_baseline(baseline_path);
    let mut rows = Vec::new();
    let mut total_boxes = 0.0f64;
    let mut total_secs = 0.0f64;
    let mut total_base_secs = 0.0f64;
    let mut have_all_baselines = !baseline.is_empty();
    for (name, cube, a, b, max_boxes) in e15_instances() {
        let base = ProductSolverOptions {
            max_boxes,
            coordinate_ascent: false,
            sos_fallback: false,
            ..Default::default()
        };
        let configs = [
            (
                "incremental_1t",
                ProductSolverOptions { threads: 1, ..base },
            ),
            (
                "incremental_8t",
                ProductSolverOptions { threads: 8, ..base },
            ),
        ];
        let mut cells = Vec::new();
        let mut boxes = 0usize;
        let mut verdicts = Vec::new();
        for (tag, opts) in configs {
            // Warm the arenas first so the steady state is what's timed,
            // then measure allocations over one solve.
            let (v, stats) = decide_product_safety(&cube, &a, &b, opts);
            let allocs_before = epi_par::heap_allocations();
            let _ = decide_product_safety(&cube, &a, &b, opts);
            let allocs = epi_par::heap_allocations() - allocs_before;
            let wall = time_ms(|| {
                let _ = decide_product_safety(&cube, &a, &b, opts);
            });
            boxes = stats.boxes_processed;
            verdicts.push(verdict_tag(&v));
            let allocs_per_box = allocs as f64 / stats.boxes_processed.max(1) as f64;
            cells.push((tag, wall, allocs_per_box));
        }
        assert!(
            verdicts.iter().all(|v| *v == verdicts[0]),
            "{name}: thread counts must agree"
        );
        let inc_1t = cells[0].1;
        let inc_8t = cells[1].1;
        let boxes_per_sec_1t = boxes as f64 / (inc_1t / 1e3);
        total_boxes += boxes as f64;
        total_secs += inc_1t / 1e3;
        let base_bps = baseline
            .iter()
            .find(|(b_name, _)| b_name == &name)
            .map(|(_, bps)| *bps);
        if base_bps.is_none() {
            have_all_baselines = false;
        } else if let Some(bps) = base_bps {
            total_base_secs += boxes as f64 / bps;
        }
        println!(
            "{name} (n={}, {} boxes, {}): {}  boxes/sec_1t={boxes_per_sec_1t:.0}{}",
            cube.dims(),
            boxes,
            verdicts[0],
            cells
                .iter()
                .map(|(t, w, apb)| format!("{t}={w:.1}ms({apb:.2}allocs/box)"))
                .collect::<Vec<_>>()
                .join(" "),
            base_bps
                .map(|bps| format!(" speedup_vs_pr2={:.2}x", boxes_per_sec_1t / bps))
                .unwrap_or_default()
        );
        let mut fields = vec![
            ("instance", Json::from(name.as_str())),
            ("n", Json::from(cube.dims())),
            ("max_boxes", Json::from(max_boxes)),
            ("boxes_processed", Json::from(boxes)),
            ("verdict", Json::from(verdicts[0])),
            ("boxes_per_sec_1t", Json::from(boxes_per_sec_1t)),
            // threads=1 pins one core, so per-core == aggregate here;
            // the explicit field keeps the gate's metric uniform.
            ("boxes_per_sec_per_core_1t", Json::from(boxes_per_sec_1t)),
            ("speedup_8t_vs_1t", Json::from(inc_1t / inc_8t)),
            ("threads_effective_8t", Json::from(eff_8t)),
            (
                "incremental_8t_boxes_per_sec_per_core",
                Json::from(boxes as f64 / (inc_8t / 1e3) / eff_8t as f64),
            ),
        ];
        if let Some(bps) = base_bps {
            fields.push(("pr2_boxes_per_sec", Json::from(bps)));
            fields.push(("speedup_vs_pr2", Json::from(boxes_per_sec_1t / bps)));
        }
        fields.extend(cells.iter().map(|(t, w, apb)| {
            (
                *t,
                Json::obj([
                    ("wall_ms", Json::from(*w)),
                    ("allocs_per_box", Json::from(*apb)),
                ]),
            )
        }));
        rows.push(Json::obj(fields));
    }
    let aggregate_bps = total_boxes / total_secs;
    let aggregate_speedup =
        (have_all_baselines && total_base_secs > 0.0).then(|| total_base_secs / total_secs);
    println!("\naggregate incremental_1t throughput: {aggregate_bps:.0} boxes/sec");
    if let Some(s) = aggregate_speedup {
        println!("aggregate speedup vs PR2 dense_1t: {s:.2}x");
    }
    (Json::arr(rows), aggregate_bps, aggregate_speedup)
}

/// E16 — disclosure throughput under the three durability policies of
/// the write-ahead disclosure log. Every run gets a fresh data
/// directory and a fresh daemon; snapshots are disabled so the rows
/// isolate the append + fsync cost of the log itself (compaction is
/// amortised and measured nowhere near the hot path). `volatile` is the
/// pre-persistence daemon (no data dir), the baseline the fsync rows
/// are charged against.
fn e16() -> Json {
    use epi_audit::workload::hospital_scenario;
    use epi_audit::PriorAssumption;
    use epi_service::{AuditService, FsyncPolicy, Request, Response, ServiceConfig};
    use epi_wal::testdir::TempDir;
    use std::time::Duration;

    println!("\n## E16 — disclosure throughput vs durability policy\n");
    let w = hospital_scenario();
    let mut steps = Vec::new();
    for r in 0..12u64 {
        for (d, state) in w.log.entries_with_state() {
            steps.push((
                format!("r{r}:{}", d.user),
                d.time,
                d.query.display(w.log.schema()).to_string(),
                state.mask(),
            ));
        }
    }

    let configs: Vec<(&str, Option<FsyncPolicy>)> = vec![
        ("volatile", None),
        (
            "fsync_interval_100ms",
            Some(FsyncPolicy::Interval(Duration::from_millis(100))),
        ),
        ("fsync_always", Some(FsyncPolicy::Always)),
    ];
    let mut rows = Vec::new();
    let mut volatile_wall = f64::NAN;
    for (tag, fsync) in configs {
        let mut best = f64::INFINITY;
        let mut appends = 0u64;
        let mut fsyncs = 0u64;
        for run in 0..5 {
            let tmp = TempDir::new(&format!("e16-{tag}-{run}"));
            let config = ServiceConfig {
                assumption: PriorAssumption::Product,
                workers: 2,
                data_dir: fsync.as_ref().map(|_| tmp.path().to_path_buf()),
                wal_fsync: fsync.unwrap_or(FsyncPolicy::Never),
                wal_snapshot_every: 0,
                ..ServiceConfig::default()
            };
            let svc = AuditService::open(w.schema.clone(), config).expect("open daemon");
            let t = Instant::now();
            for (user, time, query, mask) in &steps {
                let resp = svc.handle(&Request::Disclose {
                    user: user.clone(),
                    time: *time,
                    query: query.clone(),
                    state_mask: *mask,
                    audit_query: "hiv_pos".to_owned(),
                });
                assert!(
                    matches!(resp, Response::Entry(_)),
                    "e16 disclosure for {user} failed: {resp:?}"
                );
            }
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
            let m = svc.metrics();
            appends = m.wal_appends;
            fsyncs = m.wal_fsyncs;
        }
        if tag == "volatile" {
            volatile_wall = best;
        }
        let per_sec = steps.len() as f64 / (best / 1e3);
        let slowdown = best / volatile_wall;
        println!(
            "{tag}: {best:.1}ms for {} disclosures ({per_sec:.0}/sec, {slowdown:.2}x vs volatile, \
             {appends} appends, {fsyncs} fsyncs)",
            steps.len()
        );
        rows.push(Json::obj([
            ("policy", Json::from(tag)),
            ("disclosures", Json::from(steps.len())),
            ("wall_ms", Json::from(best)),
            ("disclosures_per_sec", Json::from(per_sec)),
            ("slowdown_vs_volatile", Json::from(slowdown)),
            ("wal_appends", Json::from(appends)),
            ("wal_fsyncs", Json::from(fsyncs)),
        ]));
    }
    Json::arr(rows)
}

/// E17 — concurrent-connection throughput and per-connection memory
/// of the readiness reactor at 64, 512 and 2048 open connections. Each
/// run opens the fanout idle (the realistic shape of a large
/// deployment: most connections quiet), then 8 driver clients push
/// pipelined 16-deep disclose batches; the row reports aggregate
/// decisions/sec, the heap bytes the fanout cost (cumulative-allocation
/// delta over setup, divided by connections — an upper bound on
/// per-connection state), and the open-connection gauge.
fn e17() -> Json {
    use epi_audit::{PriorAssumption, Schema};
    use epi_service::{AuditService, Client, Request, Response, Server, ServiceConfig};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::Arc;
    use std::time::Duration;

    const DRIVERS: usize = 8;
    const BATCHES: usize = 6;
    const BATCH: usize = 16;

    fn drive(addr: SocketAddr, run: u64, batches: usize) {
        let handles: Vec<_> = (0..DRIVERS)
            .map(|d| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("driver connect");
                    for b in 0..batches {
                        let requests: Vec<Request> = (0..BATCH)
                            .map(|k| Request::Disclose {
                                user: format!("r{run}d{d}u{k}"),
                                time: (b + 1) as u64,
                                query: "hiv_pos".to_owned(),
                                state_mask: ((b + k) % 3 + 1) as u32,
                                audit_query: "hiv_pos".to_owned(),
                            })
                            .collect();
                        for response in client.pipeline(&requests).expect("pipeline") {
                            assert!(
                                matches!(response, Response::Entry(_)),
                                "e17 disclose failed: {response:?}"
                            );
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("driver thread");
        }
    }

    println!("\n## E17 — concurrent-connection throughput of the reactor\n");
    let schema = Schema::from_names(&["hiv_pos", "transfusions", "flu", "diabetes"]).unwrap();
    let mut rows = Vec::new();
    let mut run = 0u64;
    for conns in [64usize, 512, 2048] {
        run += 1;
        let service = Arc::new(AuditService::new(
            schema.clone(),
            ServiceConfig {
                assumption: PriorAssumption::Product,
                workers: 2,
                ..ServiceConfig::default()
            },
        ));
        let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let bytes_before = epi_par::heap_bytes_allocated();
        let idle: Vec<TcpStream> = (0..conns)
            .map(|_| TcpStream::connect(addr).expect("fanout connect"))
            .collect();
        // Let the server finish adopting the fanout before sampling
        // the allocation counter, so setup cost is fully included.
        std::thread::sleep(Duration::from_millis(100 + conns as u64 / 8));
        let bytes_per_conn = (epi_par::heap_bytes_allocated() - bytes_before) as f64 / conns as f64;
        let mut probe = Client::connect(addr).expect("probe connect");
        let open = probe.stats().expect("stats").connections_open;
        assert!(
            open as usize > conns,
            "reactor@{conns}: gauge reads {open} with the fanout open"
        );

        drive(addr, run, 1); // warm caches, sessions, driver paths
        run += 1;
        let t = Instant::now();
        drive(addr, run, BATCHES);
        let wall = t.elapsed().as_secs_f64();
        let decisions = DRIVERS * BATCHES * BATCH;
        let dps = decisions as f64 / wall;
        println!(
            "reactor@{conns}: {decisions} decisions in {:.1}ms ({dps:.0}/sec), \
             {bytes_per_conn:.0} heap bytes/conn, gauge={open}",
            wall * 1e3
        );
        rows.push(Json::obj([
            ("mode", Json::from("reactor")),
            ("connections", Json::from(conns)),
            ("decisions", Json::from(decisions)),
            ("wall_ms", Json::from(wall * 1e3)),
            ("decisions_per_sec", Json::from(dps)),
            ("heap_bytes_per_conn", Json::from(bytes_per_conn)),
            ("connections_open_gauge", Json::from(open)),
        ]));
        drop(idle);
        drop(probe);
        server.shutdown();
    }
    Json::obj([("rows", Json::arr(rows))])
}

fn e18() -> Json {
    use epi_audit::{PriorAssumption, Schema};
    use epi_faults::StormPlan;
    use epi_json::Serialize;
    use epi_service::{
        AdmissionOptions, AuditService, Client, ClientError, FaultHook, LocalClient, Request,
        Response, RetryPolicy, Server, ServiceConfig,
    };
    use std::sync::Arc;
    use std::time::Duration;

    const ATOMS: [&str; 8] = [
        "hiv_pos",
        "transfusions",
        "flu",
        "diabetes",
        "asthma",
        "anemia",
        "gout",
        "measles",
    ];
    const TOTAL: u64 = 240;
    const SEED: u64 = 0xBEE5;
    const DECISION_COST: Duration = Duration::from_millis(3);

    fn mix(i: u64, salt: u64) -> u64 {
        let mut z =
            SEED ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    // The same seeded storm shape the overload chaos suite replays:
    // skewed users, compound queries, every mask holding the audited
    // property so no request is excused by the negative-result gate.
    fn request(plan: &StormPlan, i: u64) -> Request {
        let a = ATOMS[mix(i, 1) as usize % ATOMS.len()];
        let b = ATOMS[mix(i, 2) as usize % ATOMS.len()];
        let op = if mix(i, 3).is_multiple_of(2) {
            '&'
        } else {
            '|'
        };
        Request::Disclose {
            user: format!("u{}", plan.user(i)),
            time: i + 1,
            query: if a == b {
                a.to_owned()
            } else {
                format!("{a} {op} {b}")
            },
            state_mask: plan.state_mask(i, 8) | 1,
            audit_query: "hiv_pos".to_owned(),
        }
    }

    fn service() -> Arc<AuditService> {
        let hook: FaultHook = Arc::new(|_key| std::thread::sleep(DECISION_COST));
        Arc::new(AuditService::with_fault_hook(
            Schema::from_names(&ATOMS).unwrap(),
            ServiceConfig {
                assumption: PriorAssumption::Product,
                workers: 2,
                retry_after_ms: 5,
                admission: AdmissionOptions {
                    target_wait_micros: 2_000,
                    min_limit: 2,
                    max_limit: 8,
                    ..AdmissionOptions::default()
                },
                ..ServiceConfig::default()
            },
            Some(hook),
        ))
    }

    println!("\n## E18 — goodput under a 4x-capacity request storm\n");
    let plan = StormPlan::new(SEED);

    // Unloaded reference: every request in order against an idle twin.
    let mut sequential = LocalClient::new(service());
    let t = Instant::now();
    let baseline: Vec<String> = (0..TOTAL)
        .map(|i| match sequential.call(&request(&plan, i)) {
            Ok(Response::Entry(entry)) => entry.to_json().render(),
            other => panic!("e18 baseline request {i} got {other:?}"),
        })
        .collect();
    let baseline_wall = t.elapsed().as_secs_f64();

    let storm_service = service();
    let server = Server::spawn(Arc::clone(&storm_service), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let t = Instant::now();
    let handles: Vec<_> = (0..plan.users)
        .map(|user_id| {
            let work: Vec<u64> = (0..TOTAL).filter(|&i| plan.user(i) == user_id).collect();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr)
                        .expect("storm connect")
                        .with_retry(RetryPolicy {
                            max_attempts: 8,
                            base_ms: 1,
                            cap_ms: 10,
                            seed: SEED ^ ((user_id + 1) << 32),
                        });
                let plan = StormPlan::new(SEED);
                let mut landed: Vec<(u64, String)> = Vec::new();
                for i in work {
                    match client.call(&request(&plan, i)) {
                        Ok(Response::Entry(entry)) => {
                            landed.push((i, entry.to_json().render()));
                        }
                        Ok(other) => panic!("e18 storm request {i} got {other:?}"),
                        Err(ClientError::Remote { .. }) => {}
                        Err(e) => panic!("e18 transport failure: {e}"),
                    }
                }
                landed
            })
        })
        .collect();
    let mut landed = 0u64;
    let mut divergent = 0u64;
    for handle in handles {
        for (i, bytes) in handle.join().expect("storm driver") {
            landed += 1;
            if bytes != baseline[i as usize] {
                divergent += 1;
            }
        }
    }
    let storm_wall = t.elapsed().as_secs_f64();
    let stats = storm_service.metrics();
    server.shutdown();

    let goodput = landed as f64 / TOTAL as f64;
    println!(
        "storm: {landed}/{TOTAL} landed ({:.0}% goodput) in {:.0}ms \
         (baseline {:.0}ms), {divergent} divergent verdicts",
        goodput * 100.0,
        storm_wall * 1e3,
        baseline_wall * 1e3
    );
    println!(
        "rejects: limit={} degraded={} fairness={} deadline={} (requests={} for {TOTAL} disclosures)",
        stats.admission_rejects_limit,
        stats.admission_rejects_degraded,
        stats.admission_rejects_fairness,
        stats.admission_rejects_deadline,
        stats.requests
    );
    Json::obj([
        ("seed", Json::from(SEED)),
        ("total", Json::from(TOTAL)),
        ("landed", Json::from(landed)),
        ("goodput", Json::from(goodput)),
        ("divergent_verdicts", Json::from(divergent)),
        ("storm_wall_ms", Json::from(storm_wall * 1e3)),
        ("baseline_wall_ms", Json::from(baseline_wall * 1e3)),
        ("requests_with_retries", Json::from(stats.requests)),
        ("rejects_limit", Json::from(stats.admission_rejects_limit)),
        (
            "rejects_degraded",
            Json::from(stats.admission_rejects_degraded),
        ),
        (
            "meets_acceptance",
            Json::from(goodput >= 0.7 && divergent == 0),
        ),
    ])
}

fn e19() -> Json {
    use epi_audit::{PriorAssumption, Schema};
    use epi_service::{
        AuditService, BudgetOptions, ErrorCode, LocalClient, Request, Response, ServiceConfig,
    };
    use std::sync::Arc;

    const ATOMS: [&str; 8] = [
        "hiv_pos",
        "transfusions",
        "flu",
        "diabetes",
        "asthma",
        "anemia",
        "gout",
        "measles",
    ];
    const FULL_SOLVES: u64 = 64;
    const DENIALS: u64 = 20_000;

    println!("\n## E19 — O(1) exhausted-user denial vs the full solver path\n");

    let service = Arc::new(AuditService::new(
        Schema::from_names(&ATOMS).unwrap(),
        ServiceConfig {
            assumption: PriorAssumption::Product,
            workers: 2,
            budget: BudgetOptions {
                cap_micros: 2_000_000,
                ..BudgetOptions::default()
            },
            ..ServiceConfig::default()
        },
    ));
    let mut client = LocalClient::new(Arc::clone(&service));

    // Full-solve reference: one fresh user per request and 64 distinct
    // `a & b` formulas (the diagonal collapses to the single atom), so
    // every disclosure misses the verdict cache and walks the whole
    // pipeline — compile, solve, certify, ledger fold.
    let decide_before = service.metrics().decide_requests;
    let t = Instant::now();
    for i in 0..FULL_SOLVES {
        let (a, b) = (ATOMS[(i % 8) as usize], ATOMS[(i / 8) as usize]);
        let request = Request::Disclose {
            user: format!("s{i}"),
            time: i + 1,
            query: if a == b {
                a.to_owned()
            } else {
                format!("{a} & {b}")
            },
            state_mask: 0xFF,
            audit_query: "hiv_pos".to_owned(),
        };
        match client.call(&request) {
            Ok(Response::Entry(_)) => {}
            other => panic!("e19 full-solve request {i} got {other:?}"),
        }
    }
    let full_wall = t.elapsed().as_secs_f64();
    let full_solves = service.metrics().decide_requests - decide_before;
    assert_eq!(
        full_solves, FULL_SOLVES,
        "every reference request must reach the solver"
    );

    // Exhaust one user: two direct hits at risk 1.0 each spend the whole
    // 2.0 cap, putting the user on the deny threshold.
    for t in 1..=2 {
        let request = Request::Disclose {
            user: "mallory".to_owned(),
            time: t,
            query: "hiv_pos".to_owned(),
            state_mask: 0xFF,
            audit_query: "hiv_pos".to_owned(),
        };
        match client.call(&request) {
            Ok(Response::Entry(_)) => {}
            other => panic!("e19 exhaustion disclosure {t} got {other:?}"),
        }
    }

    // Denial phase: every further request from the exhausted user must
    // be refused in O(1) — a session read and a threshold compare —
    // before the solver queue, so `decide_requests` stays flat.
    let decide_before = service.metrics().decide_requests;
    let denial = Request::Disclose {
        user: "mallory".to_owned(),
        time: 3,
        query: "hiv_pos | transfusions".to_owned(),
        state_mask: 0xFF,
        audit_query: "hiv_pos".to_owned(),
    };
    let t = Instant::now();
    for i in 0..DENIALS {
        match client.call(&denial) {
            Ok(Response::Error {
                code: ErrorCode::BudgetExhausted,
                ..
            }) => {}
            other => panic!("e19 denial {i} got {other:?}"),
        }
    }
    let denial_wall = t.elapsed().as_secs_f64();
    let stats = service.metrics();
    let decide_flat = stats.decide_requests == decide_before;

    let full_per_sec = full_solves as f64 / full_wall;
    let denials_per_sec = DENIALS as f64 / denial_wall;
    let speedup = denials_per_sec / full_per_sec;
    println!(
        "full solver path: {full_solves} disclosures in {:.1}ms ({full_per_sec:.0}/s)",
        full_wall * 1e3
    );
    println!(
        "exhausted-user denials: {DENIALS} in {:.1}ms ({denials_per_sec:.0}/s), \
         {speedup:.0}x the full path, decide_requests flat: {decide_flat}",
        denial_wall * 1e3
    );
    assert_eq!(
        stats.budget_exhausted_denials, DENIALS,
        "every denial must be counted"
    );
    Json::obj([
        ("full_solves", Json::from(full_solves)),
        ("full_wall_ms", Json::from(full_wall * 1e3)),
        ("full_solves_per_sec", Json::from(full_per_sec)),
        ("denials", Json::from(DENIALS)),
        ("denial_wall_ms", Json::from(denial_wall * 1e3)),
        ("denials_per_sec", Json::from(denials_per_sec)),
        ("fast_path_speedup", Json::from(speedup)),
        ("decide_requests_flat", Json::from(decide_flat)),
        (
            "meets_acceptance",
            Json::from(decide_flat && speedup >= 1.0),
        ),
    ])
}

/// Safety-gap Bernstein tensor of a random pair over `{0,1}ⁿ` — the same
/// construction the `e20_kernels` criterion bench uses, so the ns/elem
/// rows here and there measure the same data shape.
fn gap_tensor(n: usize) -> Vec<f64> {
    let cube = Cube::new(n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(20 + n as u64);
    let a = generate::random_nonempty_set(&cube, 0.4, &mut rng);
    let b = generate::random_nonempty_set(&cube, 0.4, &mut rng);
    let pow3 = indicator::safety_gap_pow3::<f64>(n, &a, &b);
    let mut bern = epi_solver::bernstein::DenseTensor::from_dense_pow3(&pow3)
        .coeffs()
        .to_vec();
    subdivision::pow3_to_bernstein(&mut bern, n);
    bern
}

/// Kernel ns/element across tensor sizes and every ISA this build and
/// CPU provide. All four kernels are linear passes over the `3ⁿ` tensor
/// (the probe `n`-linear), so ns/elem makes sizes comparable and the
/// ISA axis shows what the `simd` feature buys at each one.
fn e20_kernel_rows() -> Json {
    let mut rows = Vec::new();
    for n in [6usize, 9, 10] {
        let bern = gap_tensor(n);
        let len = bern.len();
        // Enough repetitions per timed pass that even the fastest
        // kernel×size cell is far above timer resolution.
        let reps = (1usize << 21) / len + 1;
        let axis = n / 2;
        for isa in [
            subdivision::Isa::Scalar,
            subdivision::Isa::Sse2,
            subdivision::Isa::Avx2,
        ] {
            if subdivision::force_isa(Some(isa)) != isa {
                continue; // not provided by this build / CPU
            }
            let per_elem = |wall_ms: f64| wall_ms * 1e6 / (reps * len) as f64;
            let range = per_elem(time_ms(|| {
                for _ in 0..reps {
                    black_box(subdivision::coefficient_range(black_box(&bern)));
                }
            }));
            let widest = per_elem(time_ms(|| {
                for _ in 0..reps {
                    black_box(subdivision::widest_derivative_axis(black_box(&bern), n));
                }
            }));
            let mut scratch = Vec::new();
            let probe = per_elem(time_ms(|| {
                for _ in 0..reps {
                    black_box(subdivision::midpoint_and_split_axis(
                        black_box(&bern),
                        n,
                        &mut scratch,
                    ));
                }
            }));
            let (mut l, mut r) = (Vec::new(), Vec::new());
            let split = per_elem(time_ms(|| {
                for _ in 0..reps {
                    black_box(subdivision::split_halves_min(
                        black_box(&bern),
                        n,
                        axis,
                        &mut l,
                        &mut r,
                    ));
                }
            }));
            println!(
                "n={n} ({len} elems) {}: range={range:.3} widest={widest:.3} \
                 probe={probe:.3} split={split:.3} ns/elem",
                isa.label()
            );
            rows.push(Json::obj([
                ("n", Json::from(n)),
                ("elems", Json::from(len)),
                ("isa", Json::from(isa.label())),
                ("coefficient_range_ns_per_elem", Json::from(range)),
                ("widest_derivative_axis_ns_per_elem", Json::from(widest)),
                ("midpoint_and_split_axis_ns_per_elem", Json::from(probe)),
                ("split_halves_min_ns_per_elem", Json::from(split)),
            ]));
        }
        subdivision::force_isa(None);
    }
    Json::arr(rows)
}

/// The PR 5 recording this PR's acceptance is measured against:
/// aggregate single-thread boxes/sec over the same adversarial family.
fn pr5_e15_baseline(path: &str) -> Option<f64> {
    let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    doc.get("e15_aggregate_boxes_per_sec_1t")
        .and_then(Json::as_f64)
}

/// E20 — the PR 10 tentpole measurement: single-core boxes/sec on the
/// adversarial hard family through the batched SoA wave sweep, under the
/// forced-scalar kernels and under the build's best ISA, against the
/// committed `BENCH_PR5.json` aggregate. Acceptance: the batched
/// best-ISA aggregate reaches ≥ 1.5x the PR 5 recording. With threads=1
/// the run pins one core, so every boxes/sec figure here *is* the
/// per-core figure the bench gate consumes.
///
/// Returns `(json, scalar_bps, active_bps)` so `main` can surface the
/// per-core gate baselines for both feature configurations.
fn e20(pr5_path: &str) -> (Json, f64, f64) {
    println!("\n## E20 — SIMD microkernels and batched wave throughput (single core)\n");
    let kernel_rows = e20_kernel_rows();
    let active = subdivision::active_isa();
    println!("\nbest ISA this build/CPU: {}\n", active.label());

    let mut rows = Vec::new();
    let mut total_boxes = 0.0f64;
    let mut secs_scalar = 0.0f64;
    let mut secs_active = 0.0f64;
    for (name, cube, a, b, max_boxes) in e15_instances() {
        let batched = ProductSolverOptions {
            max_boxes,
            coordinate_ascent: false,
            sos_fallback: false,
            threads: 1,
            ..Default::default()
        };
        // Forced-scalar batched: what a no-`simd` build measures.
        subdivision::force_isa(Some(subdivision::Isa::Scalar));
        let (v_scalar, stats) = decide_product_safety(&cube, &a, &b, batched);
        let wall_scalar = time_ms(|| {
            let _ = decide_product_safety(&cube, &a, &b, batched);
        });
        subdivision::force_isa(None);
        // Best-ISA batched (the tentpole).
        let (v_active, _) = decide_product_safety(&cube, &a, &b, batched);
        let wall_active = time_ms(|| {
            let _ = decide_product_safety(&cube, &a, &b, batched);
        });
        assert!(
            verdict_tag(&v_scalar) == verdict_tag(&v_active),
            "{name}: ISA must not change the verdict"
        );
        let boxes = stats.boxes_processed;
        total_boxes += boxes as f64;
        secs_scalar += wall_scalar / 1e3;
        secs_active += wall_active / 1e3;
        let bps = |wall_ms: f64| boxes as f64 / (wall_ms / 1e3);
        println!(
            "{name} (n={}, {} boxes, {}): scalar={:.0} {}={:.0} boxes/sec",
            cube.dims(),
            boxes,
            verdict_tag(&v_active),
            bps(wall_scalar),
            active.label(),
            bps(wall_active),
        );
        rows.push(Json::obj([
            ("instance", Json::from(name.as_str())),
            ("n", Json::from(cube.dims())),
            ("boxes_processed", Json::from(boxes)),
            ("verdict", Json::from(verdict_tag(&v_active))),
            ("batched_scalar_boxes_per_sec", Json::from(bps(wall_scalar))),
            (
                "batched_best_isa_boxes_per_sec",
                Json::from(bps(wall_active)),
            ),
        ]));
    }
    let scalar_bps = total_boxes / secs_scalar;
    let active_bps = total_boxes / secs_active;
    println!(
        "\naggregate 1t: batched_scalar={scalar_bps:.0} batched_{}={active_bps:.0} boxes/sec",
        active.label(),
    );
    let mut fields = vec![
        ("kernels", kernel_rows),
        ("best_isa", Json::from(active.label())),
        ("threads_effective", Json::from(1usize)),
        ("instances", Json::arr(rows)),
        (
            "batched_scalar_boxes_per_sec_per_core_1t",
            Json::from(scalar_bps),
        ),
        (
            "batched_best_isa_boxes_per_sec_per_core_1t",
            Json::from(active_bps),
        ),
    ];
    if let Some(pr5) = pr5_e15_baseline(pr5_path) {
        let speedup = active_bps / pr5;
        println!(
            "vs PR5 recording ({pr5:.0} boxes/sec): {speedup:.2}x \
             (acceptance: >= 1.50x on the batched best-ISA path)"
        );
        fields.push(("pr5_boxes_per_sec_1t", Json::from(pr5)));
        fields.push(("speedup_vs_pr5_1t", Json::from(speedup)));
        fields.push(("meets_acceptance", Json::from(speedup >= 1.5)));
    } else {
        println!("(no {pr5_path}; speedup-vs-PR5 fields omitted)");
    }
    (Json::obj(fields), scalar_bps, active_bps)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR10.json".to_string());
    let baseline_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_PR2.json".to_string());
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("# Perf trajectory — PR 10 SIMD microkernels and batched wave sweeps");
    println!("available_parallelism={cores}");

    let e8_configs: Vec<(&str, ProductSolverOptions)> = vec![
        (
            "dense_1t",
            ProductSolverOptions {
                threads: 1,
                ..Default::default()
            },
        ),
        (
            "dense_8t",
            ProductSolverOptions {
                threads: 8,
                ..Default::default()
            },
        ),
    ];
    let e8_json = e8(&e8_configs);
    let e12_json = e12();
    let (e14_json, aggregate) = e14();
    let (e15_json, e15_bps, e15_speedup) = e15(&baseline_path);
    let e16_json = e16();
    let e17_json = e17();
    let e18_json = e18();
    let e19_json = e19();
    let (e20_json, gate_scalar_bps, gate_simd_bps) = e20("BENCH_PR5.json");

    let mut fields = vec![
        ("pr", Json::from(10usize)),
        ("generated_by", Json::from("perf_trajectory")),
        ("available_parallelism", Json::from(cores)),
        (
            "pool_default_threads",
            Json::from(epi_par::Pool::global().threads()),
        ),
        (
            "note",
            Json::from(
                "E8, E12 and E14 time the one solver engine across thread counts (the \
                 retired legacy_seq, recompute and box-at-a-time arms stay in the \
                 BENCH_PR2/5/10 recordings); E15 compares the incremental Bernstein \
                 subdivision engine against the committed BENCH_PR2.json dense_1t \
                 numbers. On a single-core container the thread sweep is flat; allocs/box is \
                 measured by the counting global allocator over a warm (second) solve. \
                 E16 measures end-to-end disclosure throughput with the write-ahead \
                 disclosure log off (volatile), group-committed every 100ms, and \
                 fsynced on every acknowledgement; fsync cost is storage-dependent, \
                 so read the slowdown ratios, not the absolute numbers. E17 measures \
                 the TCP front-end: aggregate pipelined-disclose throughput and heap \
                 bytes per connection for the readiness reactor at a \
                 64/512/2048-connection fanout. \
                 E18 storms a daemon whose per-decision cost is pinned at 3ms with \
                 ~4x its capacity and reports goodput (acknowledged / offered) under \
                 AIMD admission control plus per-reason rejects; every acknowledged \
                 verdict is checked byte-identical to an unloaded sequential replay. \
                 E19 compares the O(1) exhausted-user refusal (a session read and a \
                 threshold compare, before the solver queue) against full cache-miss \
                 solves on the same daemon; decide_requests must stay flat across \
                 the denial phase. E20 sweeps the four Bernstein microkernels \
                 (ns/element, scalar vs every ISA the build and CPU provide) and \
                 measures single-core batched-wave throughput on the adversarial \
                 family against the committed BENCH_PR5.json aggregate; the bench_gate_baseline fields are the \
                 per-core boxes/sec the CI gate compares against, one per feature \
                 configuration (threads=1, so per-core equals aggregate)",
            ),
        ),
        ("e8", e8_json),
        ("e12", e12_json),
        ("e14", e14_json),
        ("e14_aggregate_speedup_8t_vs_1t", Json::from(aggregate)),
        ("e15", e15_json),
        ("e15_aggregate_boxes_per_sec_1t", Json::from(e15_bps)),
        ("e16", e16_json),
        ("e17", e17_json),
        ("e18", e18_json),
        ("e19", e19_json),
        ("e20", e20_json),
        (
            "bench_gate_baseline_boxes_per_sec_per_core_scalar",
            Json::from(gate_scalar_bps),
        ),
        (
            "bench_gate_baseline_boxes_per_sec_per_core_simd",
            Json::from(gate_simd_bps),
        ),
    ];
    if let Some(s) = e15_speedup {
        fields.push(("e15_aggregate_speedup_vs_pr2", Json::from(s)));
    }
    let doc = Json::obj(fields);
    std::fs::write(&out_path, doc.render() + "\n").expect("write BENCH json");
    println!("\nwrote {out_path}");
}
