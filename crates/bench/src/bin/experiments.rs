//! Regenerates every experiment table of EXPERIMENTS.md (experiments
//! E1–E12 of DESIGN.md). Timing-focused measurements live in the Criterion
//! benches; this binary produces the *result* tables — verdicts, counts,
//! acceptance rates, reproduction checks against the paper's reported
//! values.
//!
//! Run all experiments:  `cargo run --release --bin experiments`
//! Run a subset:         `cargo run --release --bin experiments -- e4 e7`

use epi_audit::auditor::{Auditor, PriorAssumption};
use epi_audit::query::parse;
use epi_audit::workload::{hospital_scenario, random_workload, WorkloadParams};
use epi_bench::{hiv_pair, remark_5_12_pair, PairShape};
use epi_boolean::criteria::{cancellation, miklau_suciu, monotonicity, necessary, supermodular};
use epi_boolean::distributions::{is_log_supermodular, IsingModel};
use epi_boolean::four_functions::{pointwise_condition, set_condition_exhaustive, CubeFn};
use epi_boolean::{Cube, MatchVector};
use epi_core::families::{RectangleFamily, TrivialFamily};
use epi_core::intervals::margin::SafetyMargin;
use epi_core::intervals::minimal::minimal_intervals;
use epi_core::intervals::{safe_via_intervals, IntervalOracle};
use epi_core::world::all_nonempty_subsets;
use epi_core::{possibilistic, preserving, unrestricted, PossKnowledge, WorldSet};
use epi_solver::hardness::{decide_cut_threshold, Graph};
use epi_solver::logsupermod::{self, SupermodularSearchOptions};
use epi_solver::{decide_product_pipeline, decide_product_safety, ProductSolverOptions, Stage};
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = [
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
    ];
    for a in &args {
        if !known.contains(&a.as_str()) {
            eprintln!("warning: unknown experiment {a:?} (known: e1..e12)");
        }
    }
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    println!("# Epistemic Privacy — experiment tables\n");
    if want("e1") {
        e1_hiv_example();
    }
    if want("e2") {
        e2_figure1();
    }
    if want("e3") {
        e3_unrestricted();
    }
    if want("e4") {
        e4_criteria_inclusion();
    }
    if want("e5") {
        e5_cancellation_gap();
    }
    if want("e6") {
        e6_preserving();
    }
    if want("e7") {
        e7_criteria_quality();
    }
    if want("e8") {
        e8_product_solver();
    }
    if want("e9") {
        e9_sos();
    }
    if want("e10") {
        e10_hardness();
    }
    if want("e11") {
        e11_four_functions();
    }
    if want("e12") {
        e12_composition();
    }
}

/// E1 — §1.1 possible-worlds table (the HIV/transfusion example).
fn e1_hiv_example() {
    println!("## E1 — §1.1 HIV example (possible-worlds table)\n");
    let (cube, a, b) = hiv_pair();
    println!("paper: disclosing `hiv -> transfusions` rules out one cell (✗) and");
    println!("can only lower the odds of A; safe despite a shared critical record.\n");
    println!(
        "ruled-out worlds |Ω − B| = {} (paper: 1), ruled-out ⊆ A: {}",
        b.complement().len(),
        b.complement().is_subset(&a)
    );
    println!(
        "unrestricted-prior safety (Thm 3.11): {}",
        unrestricted::safe_unrestricted(&a, &b)
    );
    println!(
        "Miklau–Suciu independence:            {} (paper: fails — shared record)",
        miklau_suciu::independent(&cube, &a, &b)
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut worst: f64 = f64::NEG_INFINITY;
    for _ in 0..100_000 {
        let p = epi_core::Distribution::from_unnormalized(
            (0..4).map(|_| rng.gen::<f64>() + 1e-9).collect(),
        )
        .unwrap();
        worst = worst.max(p.prob(&a.intersection(&b)) - p.prob(&a) * p.prob(&b));
    }
    println!("max gain over 100k arbitrary priors: {worst:.3e} (must be ≤ 0)\n");
}

/// E2 — Figure 1 (Example 4.9).
fn e2_figure1() {
    println!("## E2 — Figure 1 (integer-rectangle family, Example 4.9)\n");
    let f = RectangleFamily::figure1();
    let w1 = f.pixel(1, 1);
    let i1 = f.as_rect(&f.interval(w1, f.pixel(3, 3)).unwrap()).unwrap();
    let i2 = f.as_rect(&f.interval(w1, f.pixel(8, 2)).unwrap()).unwrap();
    println!("| quantity | paper | measured |");
    println!("|---|---|---|");
    println!(
        "| I_K(ω₁, ω₂)  | (1,1)–(4,4) | {:?}–{:?} |",
        i1.corner_form().0,
        i1.corner_form().1
    );
    println!(
        "| I_K(ω₁, ω₂′) | (1,1)–(9,3) | {:?}–{:?} |",
        i2.corner_form().0,
        i2.corner_form().1
    );
    let mut not_a = WorldSet::empty(f.universe_size());
    for (x, y) in [
        (3, 3),
        (4, 2),
        (5, 1),
        (4, 4),
        (5, 3),
        (6, 2),
        (6, 1),
        (5, 4),
        (6, 3),
        (7, 2),
        (7, 1),
        (6, 4),
        (7, 3),
        (8, 2),
        (8, 3),
        (7, 4),
        (8, 4),
        (9, 2),
        (9, 3),
    ] {
        not_a.insert(f.pixel(x, y));
    }
    let mut corners: Vec<String> = minimal_intervals(&f, w1, &not_a)
        .into_iter()
        .map(|m| {
            let r = f.as_rect(&m.interval).unwrap();
            format!("{:?}–{:?}", r.corner_form().0, r.corner_form().1)
        })
        .collect();
    corners.sort();
    println!(
        "| minimal intervals ω₁→Ā | (1,1)–(4,4), (1,1)–(5,3), (1,1)–(6,2) | {} |",
        corners.join(", ")
    );
    let a = not_a.complement();
    let margin = SafetyMargin::compute_checked(&f, &a);
    println!(
        "| tight intervals / exact β | yes (Cor 4.14 applies) | {} |\n",
        margin.is_exact()
    );
}

/// E3 — Theorem 3.11, validated exhaustively.
fn e3_unrestricted() {
    println!("## E3 — Theorem 3.11 (unrestricted priors), exhaustive validation\n");
    println!("| |Ω| | (A,B) pairs | closed form ⟺ Def 3.1 | refutations verified |");
    println!("|---|---|---|---|");
    for n in [2usize, 3, 4] {
        let k = PossKnowledge::unrestricted(n);
        let mut pairs = 0usize;
        let mut refutations = 0usize;
        let mut agree = true;
        for a in all_nonempty_subsets(n) {
            for b in all_nonempty_subsets(n) {
                pairs += 1;
                let closed = unrestricted::safe_unrestricted(&a, &b);
                agree &= closed == possibilistic::is_safe(&k, &a, &b);
                if let Some(r) = unrestricted::refute_unrestricted(&a, &b) {
                    refutations += 1;
                    assert!(r.posterior_confidence > r.prior_confidence);
                }
            }
        }
        println!("| {n} | {pairs} | {agree} | {refutations} |");
    }
    println!();
}

/// E4 — Theorem 5.11: criteria inclusion, exhaustive counts.
fn e4_criteria_inclusion() {
    println!("## E4 — Theorem 5.11 (criteria inclusion), exhaustive counts\n");
    println!(
        "| n | pairs | Miklau–Suciu | monotonicity | MS ∪ mono | cancellation | Thm 5.11 holds |"
    );
    println!("|---|---|---|---|---|---|---|");
    for n in [2usize, 3] {
        let cube = Cube::new(n);
        let (mut ms, mut mono, mut union, mut canc) = (0usize, 0usize, 0usize, 0usize);
        let mut pairs = 0usize;
        let mut holds = true;
        for a in all_nonempty_subsets(1 << n) {
            for b in all_nonempty_subsets(1 << n) {
                pairs += 1;
                let m = miklau_suciu::independent(&cube, &a, &b);
                let mo = monotonicity::safe_monotone(&cube, &a, &b);
                let c = cancellation::cancellation(&cube, &a, &b);
                ms += m as usize;
                mono += mo as usize;
                union += (m || mo) as usize;
                canc += c as usize;
                holds &= !(m || mo) || c;
            }
        }
        println!("| {n} | {pairs} | {ms} | {mono} | {union} | {canc} | {holds} |");
    }
    println!("\n(cancellation strictly dominates MS ∪ monotonicity, as Thm 5.11 claims)\n");
}

/// E5 — Remark 5.12: the cancellation gap and its §6 resolution.
fn e5_cancellation_gap() {
    println!("## E5 — Remark 5.12 (cancellation is not necessary)\n");
    let (cube, a, b) = remark_5_12_pair();
    let deficits = cancellation::cancellation_deficits(&cube, &a, &b);
    let all_stars = MatchVector::new(cube.full_mask(), 0);
    let d = deficits.iter().find(|d| d.vector == all_stars).unwrap();
    println!("| quantity | paper | measured |");
    println!("|---|---|---|");
    println!("| |AB̄×ĀB ∩ Circ(***)| | 0 | {} |", d.positive);
    println!("| |AB×ĀB̄ ∩ Circ(***)| | 2 | {} |", d.negative);
    println!(
        "| cancellation criterion | fails | {} |",
        if cancellation::cancellation(&cube, &a, &b) {
            "passes"
        } else {
            "fails"
        }
    );
    let t = Instant::now();
    let decision = decide_product_pipeline(&cube, &a, &b, ProductSolverOptions::default());
    println!(
        "| Safe_Πm0(A,B) | holds | {} via {} ({:?}) |",
        if decision.verdict.is_safe() {
            "holds"
        } else {
            "FAILS"
        },
        decision.stage.label(),
        t.elapsed()
    );
    println!("\n(gap polynomial factors as p₁(1−p₁)(p₃−p₂)² — zero on an interior");
    println!("surface; decided by the §6.2 SOS certificate, not by subdivision)\n");
}

/// E6 — Remark 4.2: K-preservation and composition.
fn e6_preserving() {
    println!("## E6 — Remark 4.2 / Prop 3.10 (K-preservation and composition)\n");
    let f = TrivialFamily::new(3);
    let k = f.to_knowledge();
    let a = WorldSet::from_indices(3, [2]);
    let b1 = WorldSet::from_indices(3, [0, 2]);
    let b2 = WorldSet::from_indices(3, [1, 2]);
    println!("| quantity | paper | measured |");
    println!("|---|---|---|");
    println!("| Safe(A,B₁) | yes | {} |", safe_via_intervals(&f, &a, &b1));
    println!("| Safe(A,B₂) | yes | {} |", safe_via_intervals(&f, &a, &b2));
    println!(
        "| Safe(A,B₁∩B₂) | **no** | {} |",
        safe_via_intervals(&f, &a, &b1.intersection(&b2))
    );
    println!(
        "| B₁ K-preserving | no | {} |",
        preserving::is_preserving_poss(&k, &b1)
    );
    // Composition always holds under the (preserving-closed) unrestricted K.
    let n = 4;
    let k = PossKnowledge::unrestricted(n);
    let mut checked = 0usize;
    let mut violations = 0usize;
    let subsets: Vec<WorldSet> = all_nonempty_subsets(n).collect();
    for a in &subsets {
        for b1 in &subsets {
            if !possibilistic::is_safe(&k, a, b1) {
                continue;
            }
            for b2 in &subsets {
                if possibilistic::is_safe(&k, a, b2) && b1.intersects(b2) {
                    checked += 1;
                    if !possibilistic::is_safe(&k, a, &b1.intersection(b2)) {
                        violations += 1;
                    }
                }
            }
        }
    }
    println!(
        "| Prop 3.10(2) over unrestricted K, n=4 | 0 violations | {violations} / {checked} |\n"
    );
}

/// E7 — criteria quality against the complete solver.
fn e7_criteria_quality() {
    println!("## E7 — criteria vs exact solver (acceptance and precision)\n");
    let trials = 300usize;
    println!("| n | shape | exact safe | MS | mono | canc | canc recall | nec-box refutes | stage: BnB/SOS used |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for n in [3usize, 4, 5] {
        let cube = Cube::new(n);
        for shape in PairShape::all() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(42 + n as u64);
            let (mut exact_safe, mut ms, mut mono, mut canc, mut canc_on_safe) =
                (0usize, 0usize, 0usize, 0usize, 0usize);
            let mut nec_refutes = 0usize;
            let mut deep_stage = 0usize;
            for _ in 0..trials {
                let (a, b) = shape.sample(&cube, &mut rng);
                let decision =
                    decide_product_pipeline(&cube, &a, &b, ProductSolverOptions::default());
                let safe = decision.verdict.is_safe();
                exact_safe += safe as usize;
                let c = cancellation::cancellation(&cube, &a, &b);
                ms += miklau_suciu::independent(&cube, &a, &b) as usize;
                mono += monotonicity::safe_monotone(&cube, &a, &b) as usize;
                canc += c as usize;
                canc_on_safe += (c && safe) as usize;
                nec_refutes += (!necessary::necessary_product(&cube, &a, &b)) as usize;
                deep_stage += (decision.stage == Stage::BranchAndBound) as usize;
            }
            let recall = if exact_safe > 0 {
                format!("{:.2}", canc_on_safe as f64 / exact_safe as f64)
            } else {
                "—".into()
            };
            println!(
                "| {n} | {} | {exact_safe}/{trials} | {ms} | {mono} | {canc} | {recall} | {nec_refutes} | {deep_stage} |",
                shape.label()
            );
        }
    }
    println!(
        "\n(canc recall = fraction of exactly-safe pairs the cancellation criterion certifies)\n"
    );
}

/// E8 — the product solver: verdict mix and ablations.
fn e8_product_solver() {
    println!("## E8 — product-distribution solver (§6.1 substitute)\n");
    println!("| n | trials | safe | unsafe | unknown | median boxes (safe) | total time |");
    println!("|---|---|---|---|---|---|---|");
    for n in [3usize, 4, 5, 6] {
        let cube = Cube::new(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7 + n as u64);
        let trials = 200usize;
        let (mut safe, mut unsafe_, mut unknown) = (0usize, 0usize, 0usize);
        let mut boxes: Vec<usize> = Vec::new();
        let t = Instant::now();
        for i in 0..trials {
            let shape = PairShape::all()[i % 4];
            let (a, b) = shape.sample(&cube, &mut rng);
            let (v, stats) = decide_product_safety(&cube, &a, &b, ProductSolverOptions::default());
            if v.is_safe() {
                safe += 1;
                boxes.push(stats.boxes_processed);
            } else if v.is_unsafe() {
                unsafe_ += 1;
            } else {
                unknown += 1;
            }
        }
        boxes.sort_unstable();
        let median = boxes.get(boxes.len() / 2).copied().unwrap_or(0);
        println!(
            "| {n} | {trials} | {safe} | {unsafe_} | {unknown} | {median} | {:?} |",
            t.elapsed()
        );
    }
    // Ablations on a fixed workload.
    println!("\nablations (n = 4, 100 mixed pairs):\n");
    println!("| configuration | agree with default | time |");
    println!("|---|---|---|");
    let cube = Cube::new(4);
    let base_opts = ProductSolverOptions::default();
    let configs: Vec<(&str, ProductSolverOptions)> = vec![
        ("default (Bernstein + ascent + SOS)", base_opts),
        (
            "no coordinate ascent",
            ProductSolverOptions {
                coordinate_ascent: false,
                ..base_opts
            },
        ),
        (
            "no SOS fallback",
            ProductSolverOptions {
                sos_fallback: false,
                ..base_opts
            },
        ),
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let pairs: Vec<_> = (0..100)
        .map(|i| PairShape::all()[i % 4].sample(&cube, &mut rng))
        .collect();
    let reference: Vec<bool> = pairs
        .iter()
        .map(|(a, b)| decide_product_safety(&cube, a, b, configs[0].1).0.is_safe())
        .collect();
    for (name, opts) in &configs {
        let t = Instant::now();
        let mut agree = 0usize;
        let mut decided = 0usize;
        for ((a, b), &ref_safe) in pairs.iter().zip(&reference) {
            let v = decide_product_safety(&cube, a, b, *opts).0;
            if !v.is_unknown() {
                decided += 1;
                agree += (v.is_safe() == ref_safe) as usize;
            }
        }
        println!("| {name} | {agree}/{decided} decided | {:?} |", t.elapsed());
    }
    println!();
}

/// E9 — the SOS heuristic: success rates and certificate quality.
fn e9_sos() {
    println!("## E9 — sum-of-squares heuristic (§6.2)\n");
    println!("\"works remarkably well in practice\", quantified on safe instances");
    println!("with non-trivial gap polynomials. Tier 1 = paired-box multipliers");
    println!("(fast); tier 2 = facet-product Schmüdgen multipliers (complete for");
    println!("more instances, larger SDPs). Instances are safe non-independent");
    println!("pairs sampled from the mixed workload shapes.\n");
    println!("| n | instances | tier-1 certified | tier-2 rescues (of attempts) | mean residual | time |");
    println!("|---|---|---|---|---|---|");
    for n in [2usize, 3, 4] {
        let cube = Cube::new(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut tier1 = 0usize;
        let mut tier2 = 0usize;
        let mut tier2_attempts = 0usize;
        let mut tried = 0usize;
        let mut residuals = Vec::new();
        let t = Instant::now();
        let mut attempts = 0;
        let target = if n >= 4 { 20 } else { 30 };
        let rescue_budget = 3;
        while tried < target && attempts < 4000 {
            attempts += 1;
            let shape = PairShape::all()[attempts % 4];
            let (a, b) = shape.sample(&cube, &mut rng);
            let no_sos = ProductSolverOptions {
                sos_fallback: false,
                max_boxes: 2000,
                ..Default::default()
            };
            let (v, _) = decide_product_safety(&cube, &a, &b, no_sos);
            if v.is_unsafe() {
                continue;
            }
            let gap = epi_poly::indicator::safety_gap_polynomial::<epi_num::Rational>(n, &a, &b)
                .map_coeffs(|c| c.to_f64());
            if gap.is_zero() {
                continue; // independence: trivially certified, not informative
            }
            tried += 1;
            let t1 = epi_sos::certify_nonneg_on_box_with(
                &gap,
                0,
                Default::default(),
                epi_sos::BoxMultipliers::PairedBoxes,
            );
            if let Some(c) = t1 {
                tier1 += 1;
                residuals.push(c.residual);
            } else if tier2_attempts < rescue_budget {
                tier2_attempts += 1;
                // Bounded tier-2 attempt: smaller block set and iteration
                // budget, so a stalled SDP costs seconds, not minutes.
                let opts = epi_sdp::SdpOptions {
                    max_iterations: 800,
                    ..Default::default()
                };
                if let Some(c) = epi_sos::certify_nonneg_on_box_with(
                    &gap,
                    0,
                    opts,
                    epi_sos::BoxMultipliers::FacetProducts { dim_budget: 140 },
                ) {
                    tier2 += 1;
                    residuals.push(c.residual);
                }
            }
        }
        let mean_res = if residuals.is_empty() {
            0.0
        } else {
            residuals.iter().sum::<f64>() / residuals.len() as f64
        };
        println!(
            "| {n} | {tried} | {tier1} | {tier2}/{tier2_attempts} | {mean_res:.2e} | {:?} |",
            t.elapsed()
        );
    }
    // The instance class that motivates the SOS stage: interior-zero
    // surfaces (Remark 5.12 and its liftings), where subdivision cannot
    // terminate but tier 1 certifies instantly.
    println!("\ninterior-zero-surface class (B&B-undecidable; the SOS stage's raison d'être):\n");
    println!("| instance | tier-1 certified | time |");
    println!("|---|---|---|");
    for n in [3usize, 4, 5] {
        let cube = Cube::new(n);
        let a = cube.set_from_predicate(|w| [0b011, 0b100, 0b110, 0b111].contains(&(w & 0b111)));
        let b = cube.set_from_predicate(|w| [0b010, 0b101, 0b110, 0b111].contains(&(w & 0b111)));
        let gap = epi_poly::indicator::safety_gap_polynomial::<epi_num::Rational>(n, &a, &b)
            .map_coeffs(|c| c.to_f64());
        let t = Instant::now();
        let cert = epi_sos::certify_nonneg_on_box_with(
            &gap,
            0,
            Default::default(),
            epi_sos::BoxMultipliers::PairedBoxes,
        );
        println!(
            "| Remark 5.12 lifted to n={n} | {} | {:?} |",
            cert.is_some(),
            t.elapsed()
        );
    }
    println!();
}

/// E10 — the MAX-CUT-flavored hard family (Theorem 6.2).
fn e10_hardness() {
    println!("## E10 — hard algebraic family (Theorem 6.2 flavor)\n");
    println!("Instances: G(t, 0.6) with k = maxcut + 1 (empty K); the psatz");
    println!("refutation step is where the Thm 6.2 hardness bites.\n");
    println!("| vertices | edges | maxcut | refuted at D=1 | refuted at D=2 | time (D=2) |");
    println!("|---|---|---|---|---|---|");
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    for t in [3usize, 4, 5, 6] {
        let g = Graph::random(t, 0.6, &mut rng);
        let mc = g.max_cut();
        let k = mc + 1;
        let d1 = decide_cut_threshold(&g, k, 1);
        let start = Instant::now();
        let d2 = decide_cut_threshold(&g, k, 2);
        let elapsed = start.elapsed();
        println!(
            "| {t} | {} | {mc} | {} | {} | {elapsed:?} |",
            g.edges.len(),
            d1.refuted,
            d2.refuted
        );
        assert!(!d1.feasible && !d2.feasible);
    }
    println!();
}

/// E11 — Four Functions Theorem and Π_m⁺ criteria validation.
fn e11_four_functions() {
    println!("## E11 — Four Functions Theorem (Thm 5.3) and Π_m⁺ criteria\n");
    let cube = Cube::new(3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let mut pointwise_pass = 0usize;
    let mut set_pass = 0usize;
    for _ in 0..50 {
        let p = IsingModel::random(3, 0.8, 1.2, &mut rng).to_distribution();
        let f = CubeFn::new(p.weights().to_vec());
        if pointwise_condition(&cube, &f, &f, &f, &f, 1e-12) {
            pointwise_pass += 1;
            if set_condition_exhaustive(&cube, &f, &f, &f, &f, 1e-9) {
                set_pass += 1;
            }
        }
    }
    println!("Ising priors passing the pointwise condition: {pointwise_pass}/50");
    println!("…of which satisfy the set-level conclusion:    {set_pass}/{pointwise_pass} (Thm 5.3 forward direction)\n");

    // Π_m⁺ criteria against the refuter.
    let mut rng2 = rand::rngs::StdRng::seed_from_u64(23);
    let (mut nec_fail, mut refuted_of_those, mut suf_pass, mut suf_contradicted) =
        (0usize, 0usize, 0usize, 0usize);
    for _ in 0..150 {
        let (a, b) = PairShape::Random.sample(&cube, &mut rng2);
        let suf = supermodular::sufficient_supermodular(&cube, &a, &b);
        let nec = supermodular::necessary_supermodular(&cube, &a, &b);
        let verdict = logsupermod::search_supermodular(
            &cube,
            &a,
            &b,
            SupermodularSearchOptions::default(),
            &mut rng2,
        );
        if !nec {
            nec_fail += 1;
            if verdict.is_unsafe() {
                refuted_of_those += 1;
            }
        }
        if suf {
            suf_pass += 1;
            if verdict.is_unsafe() {
                suf_contradicted += 1;
            }
        }
    }
    println!("| quantity | expected | measured |");
    println!("|---|---|---|");
    println!("| Prop 5.2 failures refuted by an explicit Π_m⁺ prior | all | {refuted_of_those}/{nec_fail} |");
    println!(
        "| Prop 5.4 passes contradicted by the refuter | 0 | {suf_contradicted}/{suf_pass} |\n"
    );
    if let Some(w) = logsupermod::search_supermodular(
        &cube,
        &cube.set_from_masks([0b111]),
        &cube.set_from_masks([0b111]),
        SupermodularSearchOptions::default(),
        &mut rng2,
    )
    .witness()
    {
        assert!(is_log_supermodular(&cube, &w.prior, 1e-9));
    }
}

/// E12 — audit-log composition (Section 3.3 / Prop 3.10 at scale).
fn e12_composition() {
    println!("## E12 — audit pipeline on logs (composition)\n");
    let scenario = hospital_scenario();
    let q = parse("hiv_pos", &scenario.schema).unwrap();
    println!("hospital scenario (intro timeline):");
    for assumption in [
        PriorAssumption::Unrestricted,
        PriorAssumption::Product,
        PriorAssumption::LogSupermodular,
    ] {
        let report = Auditor::new(assumption).audit(&scenario.log, &q);
        println!(
            "  {assumption:?}: flagged {:?} (paper: suspicion on Mallory only)",
            report.flagged_users()
        );
    }
    // Random logs: statistics of findings + cumulative-only breaches.
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let mut totals: HashMap<&'static str, usize> = HashMap::new();
    let mut cumulative_only = 0usize;
    let runs = 60usize;
    for _ in 0..runs {
        let w = random_workload(
            WorkloadParams {
                records: 4,
                users: 3,
                disclosures: 10,
                ..Default::default()
            },
            &mut rng,
        );
        let q = parse("r0", &w.schema).unwrap();
        let report = Auditor::new(PriorAssumption::Product).audit(&w.log, &q);
        let mut single_flagged: Vec<&str> = Vec::new();
        for e in &report.entries {
            let key = match e.finding {
                epi_audit::Finding::Safe => "safe",
                epi_audit::Finding::Flagged => "flagged",
                epi_audit::Finding::Inconclusive => "inconclusive",
            };
            *totals.entry(key).or_default() += 1;
            if e.finding == epi_audit::Finding::Flagged {
                if e.kind == epi_audit::auditor::EntryKind::Single {
                    single_flagged.push(e.user.as_str());
                } else if !single_flagged.contains(&e.user.as_str()) {
                    cumulative_only += 1;
                }
            }
        }
    }
    println!("\nrandom product-prior audits ({runs} logs × 10 disclosures):");
    let mut rows: Vec<_> = totals.iter().collect();
    rows.sort();
    for (k, v) in rows {
        println!("  {k:<13} {v}");
    }
    println!("  breaches visible only cumulatively: {cumulative_only}\n");
}
