//! Perf-trajectory harness for the solver engine: times the E8 (product
//! solver), E12 (audit composition), E14 (parallel scaling), E15
//! (incremental subdivision / zero-allocation hot path) and E20 (SIMD
//! microkernel ns/element sweep plus batched single-core wave throughput
//! vs. the `BENCH_PR5.json` recording) workloads against the recorded
//! baselines and writes the results to a JSON file alongside the
//! human-readable tables, so later changes can diff the numbers
//! machine-readably.
//!
//! Run:  `cargo run --release --features simd --bin perf_trajectory -- out.json [baseline.json]`
//!
//! The output path is required (no arguments prints usage and exits 2):
//! the committed `BENCH_PR10.json` holds the baselines `bench_gate`
//! reads, so replacing it must be asked for by name. A build without
//! `simd` records only the scalar gate baseline — its best ISA *is*
//! scalar, and storing that under the `_simd` key would lower the simd
//! gate's bar.
//!
//! The solver has one engine, so E8, E12 and E14 time it at several
//! thread counts. The retired ablation arms — the pre-engine `legacy_seq`
//! solver, E15's recompute-per-box path and E20's box-at-a-time path —
//! stay recorded in `BENCH_PR2.json`, `BENCH_PR5.json` and
//! `BENCH_PR10.json`; the retired daemon experiments E16–E19 in
//! `BENCH_PR6.json`–`BENCH_PR9.json` (the daemon's benchmark is
//! `perfbench/`). E15 compares the engine against the committed
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
    let mut args = std::env::args().skip(1);
    let Some(out_path) = args.next() else {
        eprintln!("usage: perf_trajectory OUT.json [BASELINE.json]  (baseline: BENCH_PR2.json)");
        std::process::exit(2);
    };
    let baseline_path = args.next().unwrap_or_else(|| "BENCH_PR2.json".to_string());
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
                 E20 sweeps the four Bernstein microkernels \
                 (ns/element, scalar vs every ISA the build and CPU provide) and \
                 measures single-core batched-wave throughput on the adversarial \
                 family against the committed BENCH_PR5.json aggregate; the bench_gate_baseline fields are the \
                 per-core boxes/sec the CI gate compares against, one per feature \
                 configuration, the simd one recorded only by a simd build \
                 (threads=1, so per-core equals aggregate)",
            ),
        ),
        ("e8", e8_json),
        ("e12", e12_json),
        ("e14", e14_json),
        ("e14_aggregate_speedup_8t_vs_1t", Json::from(aggregate)),
        ("e15", e15_json),
        ("e15_aggregate_boxes_per_sec_1t", Json::from(e15_bps)),
        ("e20", e20_json),
        (
            "bench_gate_baseline_boxes_per_sec_per_core_scalar",
            Json::from(gate_scalar_bps),
        ),
    ];
    if cfg!(feature = "simd") {
        fields.push((
            "bench_gate_baseline_boxes_per_sec_per_core_simd",
            Json::from(gate_simd_bps),
        ));
    }
    if let Some(s) = e15_speedup {
        fields.push(("e15_aggregate_speedup_vs_pr2", Json::from(s)));
    }
    let doc = Json::obj(fields);
    std::fs::write(&out_path, doc.render() + "\n").expect("write BENCH json");
    println!("\nwrote {out_path}");
}
