//! CI regression gate for solver throughput, per core.
//!
//! Reads the committed `BENCH_PR10.json`, re-measures the E15
//! adversarial instances with the incremental batched engine on one
//! thread (one pinned core, so per-core boxes/sec equals aggregate),
//! and **fails (exit 1) if the measured per-core boxes/sec drops below
//! 80% of the recorded number** — a >20% throughput regression. The
//! recording carries one baseline per feature configuration — kernels
//! differ by 1.5x+ between the scalar and `simd` builds, so each build
//! is gated against its own recording (`bench_gate_baseline_*_scalar`
//! or `*_simd`, chosen at compile time). CI machines are noisy, so the
//! gate compares aggregate throughput (box counts are deterministic;
//! only wall time varies) and uses the best of nine runs — matching
//! `perf_trajectory`'s timing methodology, so the recorded and measured
//! minima estimate the same quantity.
//!
//! Run:  `cargo run --release --bin bench_gate [-- BENCH_PR10.json]`
//!
//! An explicit path to an older recording (e.g. `BENCH_PR5.json`) still
//! works: the gate falls back to its `e15_aggregate_boxes_per_sec_1t`
//! field when the per-core baselines are absent.
//!
//! Skip in CI by including `[bench-skip]` in the commit message (the
//! workflow step checks the message, not this binary).

use epi_bench::hard_family;
use epi_json::Json;
use epi_solver::{decide_product_safety, ProductSolverOptions};
use std::time::Instant;

/// Regression threshold: fail below this fraction of recorded throughput.
const MIN_FRACTION: f64 = 0.8;

/// The per-core baseline matching this build's kernel configuration.
const BASELINE_KEY: &str = if cfg!(feature = "simd") {
    "bench_gate_baseline_boxes_per_sec_per_core_simd"
} else {
    "bench_gate_baseline_boxes_per_sec_per_core_scalar"
};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR10.json".to_string());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("bench gate: cannot read {path}: {e}"));
    let doc = Json::parse(&text).expect("bench gate: malformed BENCH json");
    let (key, recorded) = match doc.get(BASELINE_KEY).and_then(Json::as_f64) {
        Some(v) => (BASELINE_KEY, v),
        None => (
            "e15_aggregate_boxes_per_sec_1t",
            doc.get("e15_aggregate_boxes_per_sec_1t")
                .and_then(Json::as_f64)
                .expect("bench gate: no per-core or e15 aggregate baseline in recording"),
        ),
    };
    println!("baseline: {key} = {recorded:.0} boxes/sec/core from {path}");

    let mut total_boxes = 0.0f64;
    let mut total_secs = 0.0f64;
    for (name, cube, a, b) in hard_family() {
        let opts = ProductSolverOptions {
            max_boxes: if cube.dims() >= 9 { 1_000 } else { 8_000 },
            coordinate_ascent: false,
            sos_fallback: false,
            threads: 1,
            ..Default::default()
        };
        // Warm caches and arenas, then keep the best of nine runs — the
        // gate hunts real regressions, not scheduler noise, and the rep
        // count must match the recording side or the recorded minimum is
        // systematically deeper than the measured one.
        let (_, stats) = decide_product_safety(&cube, &a, &b, opts);
        let mut best = f64::INFINITY;
        for _ in 0..9 {
            let t = Instant::now();
            let _ = decide_product_safety(&cube, &a, &b, opts);
            best = best.min(t.elapsed().as_secs_f64());
        }
        println!(
            "{name}: {} boxes in {:.1}ms ({:.0} boxes/sec)",
            stats.boxes_processed,
            best * 1e3,
            stats.boxes_processed as f64 / best
        );
        total_boxes += stats.boxes_processed as f64;
        total_secs += best;
    }
    // threads=1 pins one core, so the measured aggregate IS per-core.
    let measured = total_boxes / total_secs;
    let fraction = measured / recorded;
    println!(
        "aggregate: measured {measured:.0} boxes/sec/core, recorded {recorded:.0} \
         ({:.0}% of recorded, gate at {:.0}%)",
        fraction * 100.0,
        MIN_FRACTION * 100.0
    );
    if fraction < MIN_FRACTION {
        eprintln!(
            "bench gate FAILED: throughput regressed more than {:.0}% \
             (commit with [bench-skip] to bypass on known-noisy changes)",
            (1.0 - MIN_FRACTION) * 100.0
        );
        std::process::exit(1);
    }
    println!("bench gate passed");
}
