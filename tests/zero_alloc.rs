//! Proves the steady-state branch-and-bound hot path stays off the heap.
//!
//! The test installs the counting global allocator, solves an E15
//! adversarial instance once so the buffer pools reach their high-water
//! population, then re-solves and measures the heap-allocation delta of
//! the warm run. With the incremental subdivision engine every per-box
//! buffer comes from an arena, so the warm solve may only allocate
//! (a) the per-solve setup — gap tensor, root Bernstein coefficients,
//! frontier vectors — whose count is independent of the number of boxes
//! processed, and (b) one allocation per recorded arena miss. A
//! regression that reintroduces per-box `Vec` churn shows up as
//! thousands of allocations and fails the bound immediately.

use epi_bench::hard_family;
use epi_solver::{decide_product_safety, ProductSolverOptions};

#[global_allocator]
static ALLOC: epi_bench::alloc::CountingAllocator = epi_bench::alloc::CountingAllocator;

/// Per-solve setup allocations that are legitimate and box-count
/// independent: gap construction, root tensor, stats plumbing, and the
/// amortized growth of the frontier vectors. Generous — the regression
/// this guards against costs *several allocations per box*, i.e. tens of
/// thousands on this workload.
const SETUP_BUDGET: u64 = 512;

#[test]
fn warm_solve_allocates_nothing_per_box() {
    // Also arm the solver's internal debug assertion (debug builds
    // compare per-box deltas; release builds ignore the variable).
    std::env::set_var("EPI_ASSERT_ZERO_ALLOC", "1");

    let (name, cube, a, b) = hard_family()
        .into_iter()
        .find(|(name, ..)| *name == "r512x2_n6")
        .expect("hard family provides r512x2_n6");
    let opts = ProductSolverOptions {
        max_boxes: 4_000,
        coordinate_ascent: false,
        sos_fallback: false,
        threads: 1,
        ..Default::default()
    };

    // Cold solve: populates the buffer pools (every checkout misses).
    let (_, cold_stats) = decide_product_safety(&cube, &a, &b, opts);
    assert!(
        cold_stats.boxes_processed > 1_000,
        "{name}: workload too small to exercise the hot path"
    );

    // Warm solve: pools are primed, so the box loop must stay on arenas.
    let misses_before = epi_par::stats().arena_misses;
    let allocs_before = epi_par::heap_allocations();
    let (_, warm_stats) = decide_product_safety(&cube, &a, &b, opts);
    let allocs = epi_par::heap_allocations() - allocs_before;
    let misses = epi_par::stats().arena_misses - misses_before;

    assert_eq!(
        warm_stats.boxes_processed, cold_stats.boxes_processed,
        "{name}: solver must be deterministic across repeat solves"
    );
    assert!(
        allocs <= SETUP_BUDGET + misses,
        "{name}: warm solve allocated {allocs} times over {} boxes \
         (budget {SETUP_BUDGET} + {misses} arena misses) — the hot path \
         is hitting the heap again",
        warm_stats.boxes_processed
    );
    // The bound above is the contract; this one documents the magnitude:
    // allocations must be sublinear in boxes by a wide margin.
    assert!(
        allocs < warm_stats.boxes_processed as u64 / 4,
        "{name}: {allocs} allocations for {} boxes is per-box churn",
        warm_stats.boxes_processed
    );
}
