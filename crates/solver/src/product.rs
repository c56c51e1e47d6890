//! Exact decision procedure for product-distribution safety (Section 6.1).
//!
//! `Safe_{Π_m⁰}(A, B)` holds iff the safety-gap polynomial
//! `gap(p) = P[A](p)·P[B](p) − P[AB](p)` is non-negative on `[0,1]ⁿ`
//! (Propositions 3.8 / 6.1). The paper decides this with quantifier
//! elimination (Basu–Pollack–Roy) in `N^{O(lg lg N)}` time; our substitute
//! (documented in DESIGN.md) is a **branch-and-bound over the unit box**
//! with Bernstein-coefficient bounds:
//!
//! * **Unsafe** verdicts are fully rigorous: the witness is a *rational*
//!   Bernoulli vector whose gap is evaluated in exact arithmetic and is
//!   strictly negative.
//! * **Safe** verdicts hold up to the configured margin `ε` (default
//!   `1e-9`): the procedure bounds `gap(p) ≥ −ε` on the whole box. The
//!   margin is unavoidable for subdivision methods because safe instances
//!   routinely attain `gap = 0` on faces of the box (e.g. whenever some
//!   `pᵢ` hits 0 or 1), where box bounds approach 0 only in the limit.
//!
//! The Bernstein bounds are computed in plain `f64`, not with outward
//! rounding. The gap polynomial has *integer* coefficients (sums of ±1
//! products), and the Bernstein conversion and de Casteljau halving only
//! divide by 2 or 4, so every coefficient stays exact while its
//! significand fits in 53 bits. Nothing checks that bound yet: deep
//! subdivision of a large-magnitude gap could round silently.
//!
//! The gap is assembled through the dense multilinear kernel
//! ([`epi_poly::indicator::safety_gap_pow3`]), which lands directly in the
//! Bernstein tensor layout; the exact rational copy used to verify
//! witnesses is built lazily, only when a violation candidate actually
//! appears.
//!
//! This module decides at the width of the cube it is given. The
//! production pipeline ([`crate::pipeline`]) first restricts a pair to
//! the records it depends on and calls in at that narrower width; calling
//! [`decide_product_safety`] directly does not project.
//!
//! # Search
//!
//! Every open box carries the Bernstein coefficients of the gap
//! restricted to it; a split halves them by de Casteljau, so each child
//! costs `O(3ⁿ)` and no box is re-derived from the root. The search is
//! *wave-synchronous*: the frontier of open boxes is evaluated in
//! parallel through batched structure-of-arrays kernel sweeps (a pure
//! function of each box), then committed **sequentially in frontier
//! order** — budget accounting, the SOS checkpoint, pruning, witness
//! acceptance, splits. Because parallelism only changes *who evaluates*
//! a box and never the commit order, the verdict, witness and statistics
//! are byte-for-byte identical at every thread count; one thread *is*
//! the sequential solver.
//!
//! A coordinate-ascent warm start (the gap restricted to one coordinate is
//! a quadratic, minimized in closed form) finds most violations before any
//! splitting happens; the ablation benchmark `e8_product_solver` measures
//! its effect.
//!
//! # Limits
//!
//! Every limit fails closed with `Unknown` and
//! [`UndecidedReason::BudgetExhausted`], a property of the instance alone:
//!
//! * the box budget ([`ProductSolverOptions::max_boxes`]);
//! * the tensor budget: before each wave, the frontier's tensors plus two
//!   children per evaluated box must fit in 768 MiB — at `n = 12` one
//!   tensor is 4.25 MB;
//! * supports wider than [`DensePow3::MAX_ARITY`] (12) records, refused
//!   before anything is allocated.
//!
//! The SOS fallback refuses programs whose dense constraint matrices
//! would exceed 64 MiB (see [`epi_sos::WeightedSosProgram::solve`]).

use crate::verdict::{SafeEvidence, UndecidedReason, Verdict};
use epi_boolean::Cube;
use epi_core::{Deadline, StopReason, WorldSet};
use epi_num::{Interval, Rational};
use epi_par::{give_scratch_f64, take_scratch_f64, BufferPool, ChunkPolicy, Pool};
use epi_poly::{indicator, subdivision, DensePow3, Polynomial};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// A rigorous refutation: a rational product prior with a strictly
/// negative gap.
#[derive(Clone, Debug, PartialEq)]
pub struct ProductWitness {
    /// The Bernoulli vector, as exact rationals in `[0, 1]`.
    pub probs: Vec<Rational>,
    /// The exact gap `P[A]·P[B] − P[AB]` (strictly negative).
    pub gap: Rational,
}

/// Bytes of Bernstein tensors a search may have in flight; a wave that
/// could exceed it stops the search with `Unknown` (see module docs).
const TENSOR_BUDGET_BYTES: usize = 768 << 20;

/// Options for [`decide_product_safety`].
#[derive(Clone, Copy, Debug)]
pub struct ProductSolverOptions {
    /// Safety margin `ε`: boxes whose lower bound is ≥ `−margin` are
    /// discarded; a Safe verdict proves `gap ≥ −margin` everywhere.
    pub margin: f64,
    /// Branch-and-bound box budget; exceeded ⟹ `Unknown`.
    pub max_boxes: usize,
    /// Run the coordinate-ascent violation search before splitting
    /// (ablation toggle).
    pub coordinate_ascent: bool,
    /// On box-budget exhaustion, attempt a sum-of-squares box certificate
    /// (Section 6.2) before giving up — the paper's heuristic, decisive for
    /// safe instances whose gap vanishes on interior surfaces (e.g. the
    /// Remark 5.12 pair, whose gap is `p₁(1−p₁)(p₃−p₂)²`).
    pub sos_fallback: bool,
    /// Worker threads for the box search; `0` means the [`epi_par`]
    /// default (`EPI_PAR_THREADS` or the machine's parallelism).
    pub threads: usize,
}

impl Default for ProductSolverOptions {
    fn default() -> Self {
        ProductSolverOptions {
            margin: 1e-9,
            max_boxes: 20_000,
            coordinate_ascent: true,
            sos_fallback: true,
            threads: 0,
        }
    }
}

/// Statistics from a solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProductSolverStats {
    /// Boxes committed by the branch-and-bound.
    pub boxes_processed: usize,
    /// Whether the witness came from the warm start (vs. box midpoints).
    pub witness_from_ascent: bool,
    /// Frontier waves committed.
    pub waves: usize,
    /// Set iff the verdict is `Unknown`: why the search gave up. Callers
    /// must treat any `Unknown` as unsafe regardless of the reason.
    pub undecided: Option<UndecidedReason>,
}

/// The exact rational gap, materialized only when a witness candidate
/// needs verification — safe instances never pay for it. `OnceLock`
/// keeps concurrent first uses building it exactly once.
struct LazyExactGap<'a> {
    n: usize,
    a: &'a WorldSet,
    b: &'a WorldSet,
    cell: OnceLock<Polynomial<Rational>>,
}

impl<'a> LazyExactGap<'a> {
    fn new(n: usize, a: &'a WorldSet, b: &'a WorldSet) -> Self {
        LazyExactGap {
            n,
            a,
            b,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &Polynomial<Rational> {
        self.cell
            .get_or_init(|| indicator::safety_gap_polynomial::<Rational>(self.n, self.a, self.b))
    }
}

/// Recycled `3ⁿ` coefficient tensors; child tensors are filled by
/// workers and returned when their box is pruned.
static BERN_POOL: BufferPool<f64> = BufferPool::new();
/// Recycled `n`-length box vectors.
static BOX_POOL: BufferPool<Interval> = BufferPool::new();
/// Recycled structure-of-arrays staging buffers for the batched wave
/// sweeps: per-survivor midpoint probe values.
static STAGE_POOL: BufferPool<f64> = BufferPool::new();
/// Recycled index buffers for the batched wave sweeps: survivor indices
/// and staged split axes.
static IDX_POOL: BufferPool<u32> = BufferPool::new();

/// Everything a box evaluation needs, shared read-only across workers.
struct SolveCtx<'a> {
    options: ProductSolverOptions,
    /// Arity of the gap polynomial.
    n: usize,
    /// The gap in the dense power basis: point evaluation for the warm
    /// start, and the source of the SOS fallback's sparse form.
    pow3: DensePow3<f64>,
    /// Bernstein coefficients of the gap over the unit box — the root
    /// node's tensor.
    root_bern: Vec<f64>,
    /// Precomputed `(tensor index, corner mask)` of every vertex
    /// coefficient, for the free rigorous witness scan.
    vertices: Vec<(usize, u32)>,
    /// Debug-only: assert steady-state waves stay off the heap
    /// (`EPI_ASSERT_ZERO_ALLOC`, read once here so the hot loop doesn't
    /// touch the environment).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    assert_zero_alloc: bool,
    exact: LazyExactGap<'a>,
}

impl SolveCtx<'_> {
    /// Point evaluation of the gap: the dense form contracts axis by
    /// axis — `O(3ⁿ)` with recycled scratch, versus `O(n·3ⁿ)`
    /// per-monomial decoding.
    fn eval_point(&self, p: &[f64]) -> f64 {
        let mut scratch = take_scratch_f64(self.pow3.coeffs().len());
        let v = subdivision::eval_pow3(self.pow3.coeffs(), self.n, p, &mut scratch);
        give_scratch_f64(scratch);
        v
    }
}

/// An open box on the search frontier. `bern` carries the Bernstein
/// coefficients of the gap restricted to `bx` (exactly maintained by de
/// Casteljau halving). Both vectors are checked out of the process-wide
/// arenas and returned when the box leaves the search.
struct BoxNode {
    bx: Vec<Interval>,
    bern: Vec<f64>,
    /// Minimum Bernstein coefficient of `bern` — the box's rigorous
    /// lower bound, computed for free by the parent's fused ranged
    /// halving ([`subdivision::split_halves_min_inplace`]) so no per-box
    /// range scan is needed.
    min: f64,
}

/// Return a retired node's buffers to the arenas. Tensors go back
/// *dirty* (contents and length intact): within a solve every tensor
/// has the same `3ⁿ` shape, so the next halving's resize into a recycled
/// buffer is a no-op instead of a `3ⁿ` zero-fill memset — on `n = 9`
/// tensors that memset costs as much as the halving kernel.
fn release_node(node: BoxNode) {
    BOX_POOL.checkin(node.bx);
    BERN_POOL.checkin_dirty(node.bern);
}

/// The root node: the unit box with the root Bernstein tensor.
fn root_node(ctx: &SolveCtx<'_>) -> BoxNode {
    let mut bx = BOX_POOL.checkout(ctx.n);
    bx.resize(ctx.n, Interval::UNIT);
    let mut bern = BERN_POOL.checkout(ctx.root_bern.len());
    bern.extend_from_slice(&ctx.root_bern);
    // The root is the one node without a parent to hand it a bound; one
    // range scan per solve is noise.
    let (min, _max) = subdivision::coefficient_range(&bern);
    BoxNode { bx, bern, min }
}

/// What evaluating one box concluded. A pure function of the box, so
/// frontier evaluations can run on any thread in any order.
enum BoxFate {
    /// Lower bound ≥ −margin: no breach of advantage > ε inside.
    Pruned,
    /// A rigorously verified rational violation.
    Witness(ProductWitness),
    /// Undecided: split into two children along the derivative-range
    /// axis.
    Split(BoxNode, BoxNode),
}

/// Decides `Safe_{Π_m⁰}(A, B)` by branch-and-bound (see module docs for
/// the exact semantics of each verdict).
pub fn decide_product_safety(
    cube: &Cube,
    a: &WorldSet,
    b: &WorldSet,
    options: ProductSolverOptions,
) -> (Verdict<ProductWitness>, ProductSolverStats) {
    decide_product_safety_deadline(cube, a, b, options, &Deadline::none())
}

/// [`decide_product_safety`] under a [`Deadline`]: the search checks it
/// at wave / box-commit boundaries and returns
/// `(Verdict::Unknown, stats)` with [`ProductSolverStats::undecided`]
/// set once it fires. A timed-out verdict is **not** a safety proof —
/// callers must fail closed. An unbounded deadline adds no overhead and
/// preserves byte-for-byte determinism.
pub fn decide_product_safety_deadline(
    cube: &Cube,
    a: &WorldSet,
    b: &WorldSet,
    options: ProductSolverOptions,
    deadline: &Deadline,
) -> (Verdict<ProductWitness>, ProductSolverStats) {
    let n = cube.dims();
    let mut stats = ProductSolverStats::default();
    if n > DensePow3::<f64>::MAX_ARITY {
        stats.undecided = Some(UndecidedReason::BudgetExhausted);
        return (Verdict::Unknown, stats);
    }

    // Butterfly indicators, product straight into the base-3 layout.
    // Coefficients are integers, so the f64 arithmetic is exact.
    let pow3 = indicator::safety_gap_pow3::<f64>(n, a, b);
    if pow3.coeffs().iter().all(|&c| c == 0.0) {
        // Independence: gap ≡ 0 (e.g. Miklau–Suciu pairs).
        return (
            Verdict::Safe(SafeEvidence::BranchAndBound { boxes_processed: 0 }),
            stats,
        );
    }
    let mut root_bern = pow3.coeffs().to_vec();
    subdivision::pow3_to_bernstein(&mut root_bern, n);
    let ctx = SolveCtx {
        options,
        n,
        pow3,
        root_bern,
        vertices: (0..1u32 << n)
            .map(|mask| (subdivision::vertex_index(n, mask), mask))
            .collect(),
        assert_zero_alloc: cfg!(debug_assertions)
            && std::env::var_os("EPI_ASSERT_ZERO_ALLOC").is_some(),
        exact: LazyExactGap::new(n, a, b),
    };

    // Warm start: coordinate ascent from a few deterministic starts.
    if options.coordinate_ascent {
        for start in starting_points(n) {
            if let Err(reason) = deadline.check() {
                stats.undecided = Some(reason.into());
                return (Verdict::Unknown, stats);
            }
            if let Some(witness) = coordinate_descend(&ctx, start) {
                stats.witness_from_ascent = true;
                return (Verdict::Unsafe(witness), stats);
            }
        }
    }

    wave_search(&ctx, Pool::new(options.threads), stats, deadline)
}

/// Build both children of `bx` along `dim`, consuming the parent's
/// tensor: the in-place halving turns the parent buffer itself into the
/// left child (its `b₀` slabs are already in place and still cache-hot
/// from the probe), so each split costs one pooled checkout and hands
/// each child its lower bound for free.
fn split_box(bx: &[Interval], dim: usize, bern: Vec<f64>) -> BoxFate {
    let n = bx.len();
    let (left_iv, right_iv) = bx[dim].split();
    let mut lb = bern;
    // Dirty checkout: the halving overwrites every element, and a
    // same-shape recycled buffer makes its resize a no-op — see
    // `release_node`.
    let mut rb = BERN_POOL.checkout_dirty(lb.len());
    let (lmin, rmin) = subdivision::split_halves_min_inplace(&mut lb, n, dim, &mut rb);
    let mut lbx = BOX_POOL.checkout(n);
    lbx.extend_from_slice(bx);
    lbx[dim] = left_iv;
    let mut rbx = BOX_POOL.checkout(n);
    rbx.extend_from_slice(bx);
    rbx[dim] = right_iv;
    BoxFate::Split(
        BoxNode {
            bx: lbx,
            bern: lb,
            min: lmin,
        },
        BoxNode {
            bx: rbx,
            bern: rb,
            min: rmin,
        },
    )
}

/// Resolves one survivor of the classify sweep (lower bound below
/// `−margin`) into its fate: vertex-witness scan, staged midpoint-probe
/// witness check, then the split.
fn assemble_survivor(ctx: &SolveCtx<'_>, node: &mut BoxNode, mid_val: f64, dim: usize) -> BoxFate {
    let bx = &node.bx[..];
    let bern = &node.bern[..];
    let n = bx.len();
    // Vertex coefficients are exact corner values, so the most negative
    // one is a free, rigorous violation candidate — no point evaluation
    // needed to discover it.
    let mut worst = -1e-12;
    let mut worst_mask = None;
    for &(idx, mask) in &ctx.vertices {
        if bern[idx] < worst {
            worst = bern[idx];
            worst_mask = Some(mask);
        }
    }
    if let Some(mask) = worst_mask {
        let mut corner = take_scratch_f64(n);
        corner.extend(bx.iter().enumerate().map(|(i, iv)| {
            if mask >> i & 1 == 1 {
                iv.hi()
            } else {
                iv.lo()
            }
        }));
        let witness = exact_witness(ctx.exact.get(), &corner);
        give_scratch_f64(corner);
        if let Some(w) = witness {
            return BoxFate::Witness(w);
        }
    }
    if mid_val < -1e-12 {
        let mut mid = take_scratch_f64(n);
        mid.extend(bx.iter().map(|iv| iv.midpoint()));
        let witness = exact_witness(ctx.exact.get(), &mid);
        give_scratch_f64(mid);
        if let Some(w) = witness {
            return BoxFate::Witness(w);
        }
    }
    let bern = std::mem::take(&mut node.bern);
    split_box(&node.bx, dim, bern)
}

/// Batched evaluation of one contiguous chunk of a wave. Instead of
/// interleaving every kernel per box, the chunk runs three
/// structure-of-arrays sweeps over its same-shape tensors: (1) classify
/// from the carried child bounds (no kernel work at all — the fused
/// ranged halving already paid for it), (2) one contiguous fused-probe
/// pass over the survivors — midpoint value and derivative-range split
/// axis from one contraction — with results staged into pooled SoA
/// buffers, (3) in-order fate assembly (witness probes + ranged splits).
/// Appends one fate per box to `fates` in box order.
///
/// Returns `Some(reason)` if *this* chunk hit the deadline (after
/// raising `stop` for its siblings); a chunk interrupted by `stop`
/// returns `None` after appending only the fates it finished — safe
/// because the caller abandons the wave and the cleanup pass releases
/// every staged split.
fn evaluate_wave_chunk(
    ctx: &SolveCtx<'_>,
    boxes: &mut [BoxNode],
    deadline: &Deadline,
    stop: &AtomicBool,
    fates: &mut Vec<BoxFate>,
) -> Option<StopReason> {
    let options = &ctx.options;
    let n = ctx.n;
    // Tensors at or above this size (3⁸ elements, 51 KiB) blow the L1/L2
    // budget once a wave holds more than a handful of boxes, so staging
    // every probe before any assembly would stream each tensor from
    // memory twice. For those the chunk runs probe + assembly fused per
    // box (the tensor is read by the split while the probe just left it
    // hot in cache); small tensors keep the pure SoA sweeps, where the
    // shared-kernel amortization is what matters. Same fates either way.
    const FUSE_LEN: usize = 6_561;
    if boxes.first().is_some_and(|b| b.bern.len() >= FUSE_LEN) {
        return evaluate_wave_chunk_fused(ctx, boxes, deadline, stop, fates);
    }
    // Sweep 1 — classify on the carried bounds alone. A NaN bound never
    // satisfies the prune comparison, so it survives to sweep 2.
    let mut survivors = IDX_POOL.checkout(boxes.len());
    for (i, node) in boxes.iter().enumerate() {
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must survive, not prune
        if !(node.min >= -options.margin) {
            survivors.push(i as u32);
        }
    }
    // Sweep 2 — fused midpoint/split-axis probes back-to-back over the
    // survivors' tensors, staged SoA; one shared tile scratch.
    let mut mids = STAGE_POOL.checkout(survivors.len());
    let mut dims = IDX_POOL.checkout(survivors.len());
    let mut scratch = take_scratch_f64(boxes.first().map_or(0, |b| b.bern.len()));
    let mut stopped = None;
    for &i in survivors.iter() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if let Err(reason) = deadline.check() {
            stop.store(true, Ordering::Relaxed);
            stopped = Some(reason);
            break;
        }
        let node = &boxes[i as usize];
        let (mid, dim) = subdivision::midpoint_and_split_axis(&node.bern, n, &mut scratch);
        mids.push(mid);
        dims.push(dim as u32);
    }
    give_scratch_f64(scratch);
    // Sweep 3 — assemble fates in box order: prunes interleave with the
    // staged survivors; stop at the first unprobed survivor if sweep 2
    // was interrupted.
    let staged = mids.len();
    let mut cursor = 0usize;
    for (i, node) in boxes.iter_mut().enumerate() {
        if cursor < survivors.len() && survivors[cursor] == i as u32 {
            if cursor == staged {
                break;
            }
            fates.push(assemble_survivor(
                ctx,
                node,
                mids[cursor],
                dims[cursor] as usize,
            ));
            cursor += 1;
        } else {
            fates.push(BoxFate::Pruned);
        }
        // The parent's tensor is dead the moment its fate exists;
        // recycling it *now* (dirty, see `release_node`) lets the very
        // next split in this wave check it out again while it is still
        // cache-hot, instead of growing the wave's working set.
        BERN_POOL.checkin_dirty(std::mem::take(&mut node.bern));
    }
    epi_par::record_batch_sweep();
    epi_par::record_soa_staged_bytes(
        (survivors.capacity() * 4 + dims.capacity() * 4 + mids.capacity() * 8) as u64,
    );
    IDX_POOL.checkin(survivors);
    IDX_POOL.checkin(dims);
    STAGE_POOL.checkin(mids);
    stopped
}

/// The large-tensor arm of [`evaluate_wave_chunk`]: identical fates in
/// identical order, but each survivor's probe is followed immediately
/// by its assembly so the `3ⁿ` tensor is split while the probe still
/// has it in cache, instead of being streamed from memory once per
/// sweep. No SoA staging is needed — the "stage" is one `(mid, dim)`
/// pair living in registers between the two halves of the iteration.
fn evaluate_wave_chunk_fused(
    ctx: &SolveCtx<'_>,
    boxes: &mut [BoxNode],
    deadline: &Deadline,
    stop: &AtomicBool,
    fates: &mut Vec<BoxFate>,
) -> Option<StopReason> {
    let options = &ctx.options;
    let n = ctx.n;
    let mut scratch = take_scratch_f64(boxes.first().map_or(0, |b| b.bern.len()));
    let mut stopped = None;
    for node in boxes.iter_mut() {
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must survive, not prune
        if !(node.min >= -options.margin) {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            if let Err(reason) = deadline.check() {
                stop.store(true, Ordering::Relaxed);
                stopped = Some(reason);
                break;
            }
            let (mid, dim) = subdivision::midpoint_and_split_axis(&node.bern, n, &mut scratch);
            fates.push(assemble_survivor(ctx, node, mid, dim));
        } else {
            fates.push(BoxFate::Pruned);
        }
        // Fate pushed ⇒ the parent tensor is dead; recycle it dirty so
        // the next box's child checkout hits the shelf (cache-hot from
        // this box's split reads) instead of growing the wave's working
        // set past the arena cap.
        BERN_POOL.checkin_dirty(std::mem::take(&mut node.bern));
    }
    give_scratch_f64(scratch);
    epi_par::record_batch_sweep();
    stopped
}

/// Attempts the Section 6.2 sum-of-squares certificate (tier-1
/// multipliers only: the instances that defeat subdivision — interior
/// zero surfaces — certify there in milliseconds, while the
/// facet-product tier can burn minutes of SDP time on instances
/// subdivision handles anyway).
fn try_sos(ctx: &SolveCtx<'_>) -> Option<SafeEvidence> {
    epi_sos::certify_nonneg_on_box_with(
        &ctx.pow3.to_polynomial(),
        0,
        epi_sdp::SdpOptions::default(),
        epi_sos::BoxMultipliers::PairedBoxes,
    )
    .map(|cert| SafeEvidence::SosCertificate {
        residual: cert.residual,
    })
}

/// Wave-synchronous deterministic search. Each wave evaluates the open
/// frontier in parallel (bounded by the remaining box budget), then
/// commits the outcomes sequentially in frontier order. The verdict is
/// a deterministic function of the instance — independent of thread
/// count and scheduling.
fn wave_search(
    ctx: &SolveCtx<'_>,
    pool: Pool,
    mut stats: ProductSolverStats,
    deadline: &Deadline,
) -> (Verdict<ProductWitness>, ProductSolverStats) {
    let options = &ctx.options;
    let sos_checkpoint = options.max_boxes.min(512);
    let mut sos_tried = false;
    let policy = ChunkPolicy::resolve(pool.threads());
    let tensor_bytes = std::mem::size_of_val(&ctx.root_bern[..]);
    let mut frontier: Vec<BoxNode> = vec![root_node(ctx)];
    let mut next: Vec<BoxNode> = Vec::new();
    let mut fates: Vec<BoxFate> = Vec::new();
    // Single-exit loop: every outcome `break`s so the cleanup below can
    // check leftover frontier/child buffers back into the arenas — an
    // early verdict (witness, budget, deadline) abandons a live frontier
    // whose tensors the next solve wants to reuse, not re-allocate.
    let verdict = 'search: loop {
        if frontier.is_empty() {
            break Verdict::Safe(SafeEvidence::BranchAndBound {
                boxes_processed: stats.boxes_processed,
            });
        }
        // Boxes beyond the budget are never inspected: the commit loop
        // below breaks with Unknown before reaching them.
        let eval_count = frontier
            .len()
            .min(options.max_boxes.saturating_sub(stats.boxes_processed));
        // Fail closed before a wave whose tensors might not fit: the
        // frontier's, plus two children per evaluated box.
        if (frontier.len() + 2 * eval_count).saturating_mul(tensor_bytes) > TENSOR_BUDGET_BYTES {
            stats.undecided = Some(UndecidedReason::BudgetExhausted);
            break 'search Verdict::Unknown;
        }
        stats.waves += 1;
        fates.clear();
        // Every wave runs the batched sweeps; the chunk policy only
        // decides whether it runs as one inline chunk or fans out.
        let stop = AtomicBool::new(false);
        if !policy.should_parallelize(eval_count, pool.threads()) {
            // Each box contributes exactly one fate; reserving up front
            // keeps vector growth out of the kernel sweeps (and out of
            // the zero-alloc accounting below).
            fates.reserve(eval_count);
            #[cfg(debug_assertions)]
            let before = (epi_par::heap_allocations(), epi_par::stats().arena_misses);
            let stopped = evaluate_wave_chunk(
                ctx,
                &mut frontier[..eval_count],
                deadline,
                &stop,
                &mut fates,
            );
            #[cfg(debug_assertions)]
            if ctx.assert_zero_alloc && !fates.iter().any(|f| matches!(f, BoxFate::Witness(_))) {
                // Steady-state discipline: with warm arenas (tensors,
                // boxes, SoA staging, tile scratch) an entire chunk must
                // stay off the heap. Cold chunks are excused wholesale:
                // beyond the missed buffers themselves, parking a freshly
                // created buffer can grow a shelf's spine vector, an
                // allocation with no miss of its own. Witness
                // verifications are exempt too: exact rational
                // arithmetic allocates, and they end the search.
                let allocs = epi_par::heap_allocations() - before.0;
                let misses = epi_par::stats().arena_misses - before.1;
                debug_assert!(
                    misses > 0 || allocs == 0,
                    "warm batched chunk allocated {allocs}× with no arena miss"
                );
            }
            if let Some(reason) = stopped {
                stats.undecided = Some(reason.into());
                break 'search Verdict::Unknown;
            }
        } else {
            // One contiguous range per worker: results concatenate in
            // frontier order, so the commit below is byte-identical to
            // the single-chunk path.
            let workers = pool.threads().max(1);
            let chunk_len = eval_count.div_ceil(workers);
            // Each worker owns one contiguous chunk mutably (the chunks
            // cannot alias, but `parallel_map_deadline` only shares
            // `&T`, so the exclusive reborrow goes through an
            // uncontended per-chunk mutex) — mutability is what lets a
            // chunk recycle its parents' tensors mid-wave.
            let chunks: Vec<Mutex<&mut [BoxNode]>> = frontier[..eval_count]
                .chunks_mut(chunk_len)
                .map(Mutex::new)
                .collect();
            let result = pool.parallel_map_deadline(
                &chunks,
                |chunk| {
                    let mut guard = chunk
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    let mut out = Vec::new();
                    let stopped = evaluate_wave_chunk(ctx, &mut guard, deadline, &stop, &mut out);
                    (out, stopped)
                },
                deadline,
            );
            match result {
                Ok(results) => {
                    let mut stopped = None;
                    for (chunk_fates, chunk_stop) in results {
                        fates.extend(chunk_fates);
                        stopped = stopped.or(chunk_stop);
                    }
                    if let Some(reason) = stopped {
                        stats.undecided = Some(reason.into());
                        break 'search Verdict::Unknown;
                    }
                }
                Err(reason) => {
                    stats.undecided = Some(reason.into());
                    break 'search Verdict::Unknown;
                }
            }
        }
        // Sequential commit in frontier order. Fates are popped off the
        // reversed vector (rather than drained) so an early break leaves
        // the uncommitted remainder in `fates` for the cleanup pass.
        next.clear();
        fates.reverse();
        for _ in 0..frontier.len() {
            stats.boxes_processed += 1;
            if options.sos_fallback
                && !sos_tried
                && (stats.boxes_processed > sos_checkpoint
                    || stats.boxes_processed > options.max_boxes)
            {
                sos_tried = true;
                if let Some(evidence) = try_sos(ctx) {
                    break 'search Verdict::Safe(evidence);
                }
            }
            if stats.boxes_processed > options.max_boxes {
                stats.undecided = Some(UndecidedReason::BudgetExhausted);
                break 'search Verdict::Unknown;
            }
            match fates.pop().expect("every committed box was evaluated") {
                BoxFate::Pruned => {}
                BoxFate::Witness(w) => break 'search Verdict::Unsafe(w),
                BoxFate::Split(bl, br) => {
                    next.push(bl);
                    next.push(br);
                }
            }
        }
        // Parents are dead: recycle their buffers for the next wave's
        // children before swapping the frontiers.
        for node in frontier.drain(..) {
            release_node(node);
        }
        std::mem::swap(&mut frontier, &mut next);
    };
    // Park every abandoned buffer: unevaluated frontier boxes, committed
    // children, and split pairs whose commit never happened.
    for node in frontier.drain(..).chain(next.drain(..)) {
        release_node(node);
    }
    for fate in fates.drain(..) {
        if let BoxFate::Split(bl, br) = fate {
            release_node(bl);
            release_node(br);
        }
    }
    (verdict, stats)
}

/// Deterministic starting points for the warm start: the center, plus
/// slightly off-center points biased toward each corner pattern of a small
/// fixed set.
fn starting_points(n: usize) -> Vec<Vec<f64>> {
    let mut out = vec![vec![0.5; n]];
    out.push(vec![0.25; n]);
    out.push(vec![0.75; n]);
    out.push((0..n).map(|i| if i % 2 == 0 { 0.2 } else { 0.8 }).collect());
    out.push((0..n).map(|i| if i % 2 == 0 { 0.8 } else { 0.2 }).collect());
    out
}

/// Coordinate descent on the gap: each coordinate restriction is a
/// quadratic minimized in closed form over `[0,1]`. On reaching a point
/// with a clearly negative `f64` gap, verify exactly.
fn coordinate_descend(ctx: &SolveCtx<'_>, mut point: Vec<f64>) -> Option<ProductWitness> {
    let n = point.len();
    let mut probe = take_scratch_f64(n);
    for _round in 0..20 {
        let mut improved = false;
        for i in 0..n {
            let current = ctx.eval_point(&point);
            // Quadratic in coordinate i through three evaluations.
            probe.clear();
            probe.extend_from_slice(&point);
            probe[i] = 0.0;
            let f0 = ctx.eval_point(&probe);
            probe[i] = 1.0;
            let f1 = ctx.eval_point(&probe);
            probe[i] = 0.5;
            let fh = ctx.eval_point(&probe);
            // f(t) = a·t² + b·t + c.
            let c = f0;
            let a = 2.0 * f1 + 2.0 * f0 - 4.0 * fh;
            let bcoef = f1 - f0 - a;
            let mut best_t = point[i];
            let mut best_v = current;
            for t in quadratic_candidates(a, bcoef) {
                let v = a * t * t + bcoef * t + c;
                if v < best_v - 1e-15 {
                    best_v = v;
                    best_t = t;
                }
            }
            if best_t != point[i] {
                point[i] = best_t;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    give_scratch_f64(probe);
    if ctx.eval_point(&point) < -1e-12 {
        exact_witness(ctx.exact.get(), &point)
    } else {
        None
    }
}

fn quadratic_candidates(a: f64, b: f64) -> Vec<f64> {
    let mut out = vec![0.0, 1.0];
    if a > 0.0 {
        let vertex = -b / (2.0 * a);
        if (0.0..=1.0).contains(&vertex) {
            out.push(vertex);
        }
    }
    out
}

/// Rounds an `f64` point to nearby dyadic rationals and verifies the
/// violation in exact arithmetic. The denominator shrinks with the arity
/// so that the `2n`-degree terms of the gap polynomial stay within `i128`
/// (each term multiplies up to `2n` point factors); a rejected rounding
/// simply sends the solver back to subdivision.
fn exact_witness(gap_exact: &Polynomial<Rational>, point: &[f64]) -> Option<ProductWitness> {
    let n = point.len().max(1);
    // 2n · bits ≲ 100 keeps every term's denominator inside i128 with room
    // for the numerator and the accumulating sum.
    let bits = (100 / (2 * n)).clamp(4, 20) as u32;
    let denom: i128 = 1 << bits;
    let probs: Vec<Rational> = point
        .iter()
        .map(|&x| {
            let clamped = x.clamp(0.0, 1.0);
            Rational::new((clamped * denom as f64).round() as i128, denom)
        })
        .collect();
    // Exact evaluation of the gap polynomial at the rational point.
    let gap = eval_exact(gap_exact, &probs)?;
    if gap.is_negative() {
        Some(ProductWitness { probs, gap })
    } else {
        // Rounding crossed back to the safe side; not a witness.
        None
    }
}

/// Exact evaluation of a rational polynomial at a rational point; `None`
/// on (extremely rare) i128 overflow, which callers treat as "no witness".
fn eval_exact(p: &Polynomial<Rational>, point: &[Rational]) -> Option<Rational> {
    let mut acc = Rational::ZERO;
    for (m, c) in p.terms() {
        let mut term = *c;
        for (i, &e) in m.exponents().iter().enumerate() {
            if e > 0 {
                term = term.checked_mul(point[i].checked_pow(e)?)?;
            }
        }
        acc = acc.checked_add(term)?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epi_boolean::criteria::{cancellation, necessary};
    use epi_boolean::ProductDist;
    use rand::{Rng, SeedableRng};

    fn decide(cube: &Cube, a: &WorldSet, b: &WorldSet) -> Verdict<ProductWitness> {
        decide_product_safety(cube, a, b, ProductSolverOptions::default()).0
    }

    #[test]
    fn hiv_example_safe() {
        let cube = Cube::new(2);
        let a = cube.set_from_masks([0b10, 0b11]);
        let b = cube.set_from_masks([0b00, 0b01, 0b11]);
        assert!(decide(&cube, &a, &b).is_safe());
    }

    #[test]
    fn direct_disclosure_unsafe_with_exact_witness() {
        let cube = Cube::new(2);
        let a = cube.set_from_masks([0b01, 0b11]);
        match decide(&cube, &a, &a) {
            Verdict::Unsafe(w) => {
                assert!(w.gap.is_negative());
                // The witness replays: exact evaluation is already done;
                // double-check numerically.
                let p = ProductDist::new(w.probs.iter().map(|r| r.to_f64()).collect()).unwrap();
                let gap = p.prob(&a) * p.prob(&a) - p.prob(&a.intersection(&a));
                assert!(gap < 1e-6, "numeric replay should agree, got {gap}");
            }
            other => panic!("expected unsafe, got {other:?}"),
        }
    }

    #[test]
    fn remark_5_12_pair_decided_safe() {
        // Cancellation fails on this pair, yet it is genuinely safe: the
        // complete procedure must say Safe.
        let cube = Cube::new(3);
        let a = cube.set_from_masks([0b011, 0b100, 0b110, 0b111]);
        let b = cube.set_from_masks([0b010, 0b101, 0b110, 0b111]);
        assert!(!cancellation::cancellation(&cube, &a, &b));
        assert!(decide(&cube, &a, &b).is_safe());
    }

    #[test]
    fn independent_pair_trivially_safe() {
        let cube = Cube::new(4);
        let a = cube.set_from_predicate(|w| w & 0b0011 == 0b0001);
        let b = cube.set_from_predicate(|w| w & 0b1100 != 0);
        let (verdict, stats) =
            decide_product_safety(&cube, &a, &b, ProductSolverOptions::default());
        assert!(verdict.is_safe());
        assert_eq!(stats.boxes_processed, 0, "gap ≡ 0 short-circuits");
    }

    #[test]
    fn agrees_with_criteria_on_random_pairs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(173);
        let cube = Cube::new(3);
        for _ in 0..60 {
            let a = cube.set_from_predicate(|_| rng.gen());
            let b = cube.set_from_predicate(|_| rng.gen());
            let verdict = decide(&cube, &a, &b);
            // Sufficient criterion fired ⟹ must not be refuted.
            if cancellation::cancellation(&cube, &a, &b) {
                assert!(!verdict.is_unsafe(), "A={a:?} B={b:?}");
            }
            // Necessary criterion failed ⟹ must not be certified safe.
            if !necessary::necessary_product(&cube, &a, &b) {
                assert!(!verdict.is_safe(), "A={a:?} B={b:?}");
            }
            // Verdicts must not be Unknown at this size.
            assert!(!verdict.is_unknown(), "budget must suffice for n = 3");
        }
    }

    #[test]
    fn witnesses_replay_against_sampling() {
        // Every Unsafe witness corresponds to a genuine breach; every Safe
        // verdict survives randomized sampling.
        let mut rng = rand::rngs::StdRng::seed_from_u64(179);
        let cube = Cube::new(3);
        for _ in 0..40 {
            let a = cube.set_from_predicate(|_| rng.gen());
            let b = cube.set_from_predicate(|_| rng.gen());
            match decide(&cube, &a, &b) {
                Verdict::Unsafe(w) => assert!(w.gap.is_negative()),
                Verdict::Safe(_) => {
                    for _ in 0..200 {
                        let p = ProductDist::random(3, &mut rng);
                        let gap = p.prob(&a) * p.prob(&b) - p.prob(&a.intersection(&b));
                        assert!(gap >= -1e-9, "sampled breach after Safe verdict");
                    }
                }
                Verdict::Unknown => panic!("unexpected Unknown at n = 3"),
            }
        }
    }

    #[test]
    fn ascent_ablation_agrees() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(181);
        let cube = Cube::new(3);
        for _ in 0..30 {
            let a = cube.set_from_predicate(|_| rng.gen());
            let b = cube.set_from_predicate(|_| rng.gen());
            let with = decide_product_safety(
                &cube,
                &a,
                &b,
                ProductSolverOptions {
                    coordinate_ascent: true,
                    ..Default::default()
                },
            )
            .0;
            let without = decide_product_safety(
                &cube,
                &a,
                &b,
                ProductSolverOptions {
                    coordinate_ascent: false,
                    ..Default::default()
                },
            )
            .0;
            assert_eq!(with.is_safe(), without.is_safe(), "A={a:?} B={b:?}");
            assert_eq!(with.is_unsafe(), without.is_unsafe());
        }
    }

    #[test]
    fn deterministic_mode_is_thread_count_invariant() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(197);
        let cube = Cube::new(3);
        for _ in 0..15 {
            let a = cube.set_from_predicate(|_| rng.gen());
            let b = cube.set_from_predicate(|_| rng.gen());
            let base = decide_product_safety(
                &cube,
                &a,
                &b,
                ProductSolverOptions {
                    threads: 1,
                    ..Default::default()
                },
            );
            for threads in [2, 8] {
                let got = decide_product_safety(
                    &cube,
                    &a,
                    &b,
                    ProductSolverOptions {
                        threads,
                        ..Default::default()
                    },
                );
                assert_eq!(got.0, base.0, "threads={threads} A={a:?} B={b:?}");
                assert_eq!(got.1, base.1, "threads={threads} A={a:?} B={b:?}");
            }
        }
    }

    #[test]
    fn supports_wider_than_the_dense_tensor_fail_closed() {
        let cube = Cube::new(13);
        let a = cube.set_from_predicate(|w| w.count_ones() % 3 == 0);
        let b = cube.set_from_predicate(|w| w & 1 == 1);
        let (verdict, stats) =
            decide_product_safety(&cube, &a, &b, ProductSolverOptions::default());
        assert!(verdict.is_unknown());
        assert_eq!(stats.undecided, Some(UndecidedReason::BudgetExhausted));
        assert_eq!(stats.boxes_processed, 0);
    }

    #[test]
    fn exact_evaluation_matches_f64() {
        let cube = Cube::new(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(191);
        let a = cube.set_from_predicate(|_| rng.gen());
        let b = cube.set_from_predicate(|_| rng.gen());
        let g_exact = indicator::safety_gap_polynomial::<Rational>(3, &a, &b);
        let g = g_exact.map_coeffs(|c| c.to_f64());
        for _ in 0..20 {
            let probs: Vec<Rational> = (0..3)
                .map(|_| Rational::new(rng.gen_range(0..=64), 64))
                .collect();
            let exact = eval_exact(&g_exact, &probs).unwrap().to_f64();
            let float = g.eval_f64(&probs.iter().map(|r| r.to_f64()).collect::<Vec<_>>());
            assert!((exact - float).abs() < 1e-9);
        }
    }
}
