//! Bernstein subdivision kernels: de Casteljau halving, range scans and
//! split-axis heuristics over dense coefficient tensors.
//!
//! The branch-and-bound solver keeps every open box as the Bernstein
//! coefficient tensor of the gap polynomial *restricted to that box*.
//! Splitting a box in half along one axis then never re-derives the
//! children from the root polynomial: the **de Casteljau algorithm at
//! `t = ½`** produces both children's exact coefficient tensors in a
//! single `O(3ⁿ)` pass over the parent's — versus the `O(n·3ⁿ)` affine
//! re-substitution (plus two fresh allocations) of the recompute path.
//!
//! All kernels here operate on raw `&[f64]` tensors in the [`DensePow3`]
//! index layout (`coeffs[Σ kᵢ·3ⁱ]`, per-variable degree ≤ 2) or the
//! [`Multilinear`] subset-mask layout (degree ≤ 1, `2ⁿ` corner values),
//! so callers can route the buffers through arenas without this crate
//! knowing about them.
//!
//! # Vector dispatch and bit-identity
//!
//! The four hot kernels — [`split_halves`] (and [`split_halves_min`]),
//! [`coefficient_range`], [`midpoint_and_split_axis`] and
//! [`widest_derivative_axis`] — run through a runtime-selected
//! instruction set ([`active_isa`]): portable scalar always, plus SSE2
//! and AVX2 `std::arch` microkernels under the `simd` feature on
//! x86_64. The scalar kernels in [`reference`](mod@reference) are the oracle; every
//! vector path is **bit-identical** to them on finite tensors (asserted
//! by proptest, not approximately), which is what keeps the solver's
//! deterministic wave mode byte-stable regardless of lane width. The
//! identity holds by construction, one argument per kernel class:
//!
//! * **Elementwise dyadic arithmetic** (halving, midpoint contraction):
//!   every path evaluates the same expression tree per element — same
//!   association, no FMA — so results are bitwise equal outright.
//! * **Swing reductions** (split-axis heuristics): the reduced values
//!   are `|a − b|` magnitudes, never `-0.0` and NaN-free for finite
//!   inputs, and `max` over a NaN-free multiset with no negative zeros
//!   is associativity- and order-free. Lane shape may differ per ISA;
//!   the reduced bits cannot.
//! * **Min/max coefficient scans**: the numeric extremum of a finite
//!   multiset is unique except for the sign of zero, so the kernels
//!   canonicalize `-0.0 → +0.0` at the reduction boundary and become
//!   order-free too.
//!
//! Non-finite coefficients (overflow to ±∞, NaN) void the cross-ISA
//! guarantee; the solver's tensors are finite by construction.
//!
//! # Cache blocking
//!
//! Tensors past ~L2 size are walked in L1-sized tiles: the `*_tiled`
//! kernel variants contract each tile through all its stages while hot
//! instead of making one full-width pass per stage, and the split-axis
//! scan computes every in-tile axis in a single pass over the tensor
//! (`1 + (n − t)` passes instead of `n` for tile exponent `t`). Tile
//! sizes come from a small compile-time table ([`auto_tile`]); the
//! `*_tiled` variants take an explicit tile length instead.
//! Tiling never changes results: tile boundaries only re-order the
//! order-free reductions above.
//!
//! [`DensePow3`]: crate::DensePow3
//! [`Multilinear`]: crate::Multilinear

use crate::{Coeff, Multilinear};
use std::sync::atomic::{AtomicU8, Ordering};

/// Hard cap on tensor arity for the split-axis kernels (a `3³²`-element
/// tensor is far beyond addressable memory, so this is never limiting).
const MAX_AXES: usize = 32;

// ---------------------------------------------------------------------------
// Instruction-set dispatch
// ---------------------------------------------------------------------------

/// Instruction set the subdivision kernels execute with.
///
/// Resolved once per process from CPU detection (and the `EPI_SIMD`
/// environment override) by [`active_isa`]; [`force_isa`] re-pins it for
/// tests and benchmarks. Every ISA produces bit-identical results on
/// finite tensors (see the module docs), so this is a throughput knob,
/// never a semantics knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Isa {
    /// Portable scalar kernels — the oracle, available everywhere.
    Scalar = 1,
    /// 128-bit SSE2 microkernels (x86_64 baseline, `simd` feature).
    Sse2 = 2,
    /// 256-bit AVX2 microkernels (runtime-detected, `simd` feature).
    Avx2 = 3,
}

impl Isa {
    /// Short stable label for logs and benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
        }
    }

    fn from_u8(v: u8) -> Option<Isa> {
        match v {
            1 => Some(Isa::Scalar),
            2 => Some(Isa::Sse2),
            3 => Some(Isa::Avx2),
            _ => None,
        }
    }
}

/// 0 = unresolved; otherwise the `Isa` discriminant. Relaxed ordering is
/// enough: resolution is idempotent and any racing resolver stores the
/// same value (modulo a concurrent `force_isa`, which wins either way).
static ISA_STATE: AtomicU8 = AtomicU8::new(0);

/// The widest ISA this build and this CPU can actually run.
fn best_available_isa() -> Isa {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        // SSE2 is part of the x86_64 baseline.
        Isa::Sse2
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    Isa::Scalar
}

/// Clamp a requested ISA to what this build/CPU supports.
fn clamp_isa(requested: Isa) -> Isa {
    let best = best_available_isa();
    if (requested as u8) <= (best as u8) {
        requested
    } else {
        best
    }
}

fn resolve_isa() -> Isa {
    match std::env::var("EPI_SIMD").ok().as_deref().map(str::trim) {
        Some(v) if v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("scalar") => Isa::Scalar,
        Some(v) if v.eq_ignore_ascii_case("sse2") => clamp_isa(Isa::Sse2),
        Some(v) if v.eq_ignore_ascii_case("avx2") => clamp_isa(Isa::Avx2),
        // Unset or unrecognized (including "auto"): widest available.
        _ => best_available_isa(),
    }
}

/// The instruction set the kernels currently dispatch to.
///
/// First call resolves it from the `EPI_SIMD` environment variable
/// (`off`/`scalar`, `sse2`, `avx2`, anything else = auto) clamped to
/// runtime CPU detection; without the `simd` feature this is always
/// [`Isa::Scalar`].
pub fn active_isa() -> Isa {
    match Isa::from_u8(ISA_STATE.load(Ordering::Relaxed)) {
        Some(isa) => isa,
        None => {
            let isa = resolve_isa();
            ISA_STATE.store(isa as u8, Ordering::Relaxed);
            isa
        }
    }
}

/// Pin the kernel ISA for this process (tests, benchmarks, A/B sweeps),
/// clamped to what the build and CPU support; `None` re-resolves from
/// the environment. Returns the ISA actually in effect — callers that
/// need a specific ISA must check the return value.
pub fn force_isa(isa: Option<Isa>) -> Isa {
    match isa {
        Some(requested) => {
            let effective = clamp_isa(requested);
            ISA_STATE.store(effective as u8, Ordering::Relaxed);
            effective
        }
        None => {
            ISA_STATE.store(0, Ordering::Relaxed);
            active_isa()
        }
    }
}

// ---------------------------------------------------------------------------
// Tiling
// ---------------------------------------------------------------------------

/// Compile-time tile table: `(tensor length at least, tile length)`,
/// widest first. Entries are powers of 3 so tiles align with contraction
/// stages. A `3¹²` tensor is 4 MiB — past typical L2 — and gets L1-sized
/// `3⁷` tiles (~17 KiB); half-megabyte tensors (`3¹⁰`–`3¹¹`) get `3⁸`
/// tiles (~51 KiB), trading tile-loop overhead for L2 headroom. Anything
/// L2-resident runs untiled.
const TILE_TABLE: &[(usize, usize)] = &[(531_441, 2_187), (59_049, 6_561)];

/// The tile length the compile-time table picks for a tensor of `len`
/// elements; `0` means untiled. Override per call via the `*_tiled`
/// kernel variants.
pub fn auto_tile(len: usize) -> usize {
    for &(at_least, tile) in TILE_TABLE {
        if len >= at_least {
            return tile;
        }
    }
    0
}

/// Resolve a caller-requested block size (`0` = auto) to `Some(tile)`
/// with `tile` a power of 3 in `[27, len)`, or `None` for untiled.
fn effective_tile(block: usize, len: usize) -> Option<usize> {
    let requested = if block == 0 { auto_tile(len) } else { block };
    if requested < 27 {
        return None;
    }
    // Round down to a power of 3 so tiles align with whole contraction
    // stages and axis blocks.
    let mut tile = 27usize;
    while tile <= requested / 3 {
        tile *= 3;
    }
    (tile < len).then_some(tile)
}

// ---------------------------------------------------------------------------
// Kernel primitives (per-ISA)
// ---------------------------------------------------------------------------

/// The per-ISA sweep primitives the drivers compose. Each method is one
/// full pass over its operand (never per-element), so the vector
/// implementations amortize the non-inlinable `target_feature` call
/// boundary. Implementations must uphold the bit-identity contract in
/// the module docs.
pub(crate) trait Kern {
    /// Min and max coefficient, `-0.0` canonicalized to `+0.0`.
    fn range(data: &[f64]) -> (f64, f64);
    /// Max `|adjacent difference|` over stride-1 triples (`len % 3 == 0`).
    fn swing3(data: &[f64]) -> f64;
    /// Max `|adjacent slab difference|` along an axis of the given
    /// stride: blocks of `3·stride` split into three `stride`-long slabs
    /// (`len % (3·stride) == 0`).
    fn swing_axis(data: &[f64], stride: usize) -> f64;
    /// Bernstein midpoint contraction with weights `(¼, ½, ¼)`:
    /// `dst[i] = 0.25·src[3i] + 0.5·src[3i+1] + 0.25·src[3i+2]`, with
    /// exactly that association.
    fn contract(src: &[f64], dst: &mut [f64]);
    /// De Casteljau halving along the axis of the given stride into
    /// pre-sized `left`/`right`, returning each child's minimum
    /// coefficient (canonicalized like [`Kern::range`]).
    fn split(parent: &[f64], stride: usize, left: &mut [f64], right: &mut [f64]) -> (f64, f64);
    /// [`Kern::split`] with the parent's buffer *becoming* the left
    /// child: `left` holds the parent tensor on entry and the left
    /// child on exit (the left child's `b₀` slabs are the parent's own
    /// coefficients, so a third of it is already in place). Only
    /// `right` needs a second buffer — on the solver's hot path this
    /// removes one full-tensor buffer acquisition and its cold-memory
    /// write per split. Same values, same canonicalized minima.
    fn split_inplace(left: &mut [f64], stride: usize, right: &mut [f64]) -> (f64, f64);
}

/// `minsd`-semantics minimum: `a` if `a < b`, else `b`. Matches the
/// per-lane behavior of the x86 `minpd` instruction so the scalar
/// kernels and the compiler's autovectorization agree with the explicit
/// vector paths.
#[inline(always)]
pub(crate) fn min_sd(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// `maxsd`-semantics maximum: `a` if `a > b`, else `b`.
#[inline(always)]
pub(crate) fn max_sd(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Canonicalize the sign of zero (`-0.0 → +0.0`, everything else
/// unchanged) so min/max reductions are fold-order-free. See the module
/// docs.
#[inline(always)]
pub(crate) fn canon(x: f64) -> f64 {
    x + 0.0
}

/// Portable scalar kernels — the oracle every vector path must match
/// bit-for-bit. The loops are written in stride-4 lane form (independent
/// accumulators, branchless `min_sd`/`max_sd`) so scalar builds
/// autovectorize well too.
pub(crate) struct ScalarK;

impl Kern for ScalarK {
    fn range(data: &[f64]) -> (f64, f64) {
        // Four independent accumulator lanes break the loop-carried
        // min/max dependency; this runs per box on the solver hot path.
        let mut mins = [f64::INFINITY; 4];
        let mut maxs = [f64::NEG_INFINITY; 4];
        let mut chunks = data.chunks_exact(4);
        for chunk in &mut chunks {
            for lane in 0..4 {
                mins[lane] = min_sd(mins[lane], chunk[lane]);
                maxs[lane] = max_sd(maxs[lane], chunk[lane]);
            }
        }
        for &c in chunks.remainder() {
            mins[0] = min_sd(mins[0], c);
            maxs[0] = max_sd(maxs[0], c);
        }
        (
            canon(min_sd(min_sd(mins[0], mins[1]), min_sd(mins[2], mins[3]))),
            canon(max_sd(max_sd(maxs[0], maxs[1]), max_sd(maxs[2], maxs[3]))),
        )
    }

    fn swing3(data: &[f64]) -> f64 {
        let mut lanes = [0.0f64; 4];
        let mut quads = data.chunks_exact(12);
        for quad in &mut quads {
            for (lane, t) in quad.chunks_exact(3).enumerate() {
                let d1 = (t[1] - t[0]).abs();
                let d2 = (t[2] - t[1]).abs();
                lanes[lane] = max_sd(max_sd(lanes[lane], d1), d2);
            }
        }
        for t in quads.remainder().chunks_exact(3) {
            let d1 = (t[1] - t[0]).abs();
            let d2 = (t[2] - t[1]).abs();
            lanes[0] = max_sd(max_sd(lanes[0], d1), d2);
        }
        max_sd(max_sd(lanes[0], lanes[1]), max_sd(lanes[2], lanes[3]))
    }

    fn swing_axis(data: &[f64], stride: usize) -> f64 {
        let block = stride * 3;
        let mut lanes = [0.0f64; 4];
        for b in data.chunks_exact(block) {
            // The three digit slabs of each block are contiguous runs of
            // `stride` elements; pairwise slice walks keep the loads
            // sequential and the `abs`/`max` chain branchless.
            let (s0, rest) = b.split_at(stride);
            let (s1, s2) = rest.split_at(stride);
            let mut i = 0;
            while i + 4 <= stride {
                for (lane, slot) in lanes.iter_mut().enumerate() {
                    let j = i + lane;
                    let d1 = (s1[j] - s0[j]).abs();
                    let d2 = (s2[j] - s1[j]).abs();
                    *slot = max_sd(max_sd(*slot, d1), d2);
                }
                i += 4;
            }
            while i < stride {
                let d1 = (s1[i] - s0[i]).abs();
                let d2 = (s2[i] - s1[i]).abs();
                lanes[0] = max_sd(max_sd(lanes[0], d1), d2);
                i += 1;
            }
        }
        max_sd(max_sd(lanes[0], lanes[1]), max_sd(lanes[2], lanes[3]))
    }

    fn contract(src: &[f64], dst: &mut [f64]) {
        debug_assert_eq!(src.len(), dst.len() * 3);
        for (d, t) in dst.iter_mut().zip(src.chunks_exact(3)) {
            *d = 0.25 * t[0] + 0.5 * t[1] + 0.25 * t[2];
        }
    }

    fn split(parent: &[f64], stride: usize, left: &mut [f64], right: &mut [f64]) -> (f64, f64) {
        let mut lmin = f64::INFINITY;
        let mut rmin = f64::INFINITY;
        if stride == 1 {
            // Axis 0: triples are interleaved, walk them as such.
            for ((t, l), r) in parent
                .chunks_exact(3)
                .zip(left.chunks_exact_mut(3))
                .zip(right.chunks_exact_mut(3))
            {
                let (b0, b1, b2) = (t[0], t[1], t[2]);
                let m01 = 0.5 * (b0 + b1);
                let m12 = 0.5 * (b1 + b2);
                let c = 0.5 * (m01 + m12);
                l[0] = b0;
                l[1] = m01;
                l[2] = c;
                r[0] = c;
                r[1] = m12;
                r[2] = b2;
                lmin = min_sd(lmin, min_sd(min_sd(b0, m01), c));
                rmin = min_sd(rmin, min_sd(min_sd(c, m12), b2));
            }
        } else {
            let block = stride * 3;
            let mut base = 0;
            while base < parent.len() {
                let (p0, rest) = parent[base..base + block].split_at(stride);
                let (p1, p2) = rest.split_at(stride);
                let (l0, lrest) = left[base..base + block].split_at_mut(stride);
                let (l1, l2) = lrest.split_at_mut(stride);
                let (r0, rrest) = right[base..base + block].split_at_mut(stride);
                let (r1, r2) = rrest.split_at_mut(stride);
                for j in 0..stride {
                    let (b0, b1, b2) = (p0[j], p1[j], p2[j]);
                    let m01 = 0.5 * (b0 + b1);
                    let m12 = 0.5 * (b1 + b2);
                    let c = 0.5 * (m01 + m12);
                    l0[j] = b0;
                    l1[j] = m01;
                    l2[j] = c;
                    r0[j] = c;
                    r1[j] = m12;
                    r2[j] = b2;
                    lmin = min_sd(lmin, min_sd(min_sd(b0, m01), c));
                    rmin = min_sd(rmin, min_sd(min_sd(c, m12), b2));
                }
                base += block;
            }
        }
        (canon(lmin), canon(rmin))
    }

    fn split_inplace(left: &mut [f64], stride: usize, right: &mut [f64]) -> (f64, f64) {
        let mut lmin = f64::INFINITY;
        let mut rmin = f64::INFINITY;
        if stride == 1 {
            // Axis 0: triples are interleaved. Each triple is read in
            // full before its `m01`/`c` slots are overwritten; the `b0`
            // slot never needs a store.
            for (t, r) in left.chunks_exact_mut(3).zip(right.chunks_exact_mut(3)) {
                let (b0, b1, b2) = (t[0], t[1], t[2]);
                let m01 = 0.5 * (b0 + b1);
                let m12 = 0.5 * (b1 + b2);
                let c = 0.5 * (m01 + m12);
                t[1] = m01;
                t[2] = c;
                r[0] = c;
                r[1] = m12;
                r[2] = b2;
                lmin = min_sd(lmin, min_sd(min_sd(b0, m01), c));
                rmin = min_sd(rmin, min_sd(min_sd(c, m12), b2));
            }
        } else {
            let block = stride * 3;
            let mut base = 0;
            while base < left.len() {
                let (l0, lrest) = left[base..base + block].split_at_mut(stride);
                let (l1, l2) = lrest.split_at_mut(stride);
                let (r0, rrest) = right[base..base + block].split_at_mut(stride);
                let (r1, r2) = rrest.split_at_mut(stride);
                for j in 0..stride {
                    let (b0, b1, b2) = (l0[j], l1[j], l2[j]);
                    let m01 = 0.5 * (b0 + b1);
                    let m12 = 0.5 * (b1 + b2);
                    let c = 0.5 * (m01 + m12);
                    l1[j] = m01;
                    l2[j] = c;
                    r0[j] = c;
                    r1[j] = m12;
                    r2[j] = b2;
                    lmin = min_sd(lmin, min_sd(min_sd(b0, m01), c));
                    rmin = min_sd(rmin, min_sd(min_sd(c, m12), b2));
                }
                base += block;
            }
        }
        (canon(lmin), canon(rmin))
    }
}

/// Dispatch a driver body over the active ISA's kernel primitives.
macro_rules! dispatch {
    (|$K:ident| $body:expr) => {{
        match active_isa() {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Isa::Sse2 => {
                type $K = crate::simd::Sse2K;
                $body
            }
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Isa::Avx2 => {
                type $K = crate::simd::Avx2K;
                $body
            }
            _ => {
                type $K = ScalarK;
                $body
            }
        }
    }};
}

// ---------------------------------------------------------------------------
// Drivers (ISA-generic)
// ---------------------------------------------------------------------------

fn split_d<K: Kern>(
    parent: &[f64],
    n: usize,
    dim: usize,
    left: &mut Vec<f64>,
    right: &mut Vec<f64>,
) -> (f64, f64) {
    debug_assert_eq!(parent.len(), 3usize.pow(n as u32));
    debug_assert!(dim < n);
    let len = parent.len();
    // No `clear()` first: the kernel overwrites every element, so a
    // recycled buffer that already has the right length skips the
    // zero-fill memset entirely (`resize` to the current length is a
    // no-op) — on big tensors that memset rivals the halving itself.
    left.resize(len, 0.0);
    right.resize(len, 0.0);
    K::split(parent, 3usize.pow(dim as u32), left, right)
}

fn split_d_inplace<K: Kern>(
    left: &mut [f64],
    n: usize,
    dim: usize,
    right: &mut Vec<f64>,
) -> (f64, f64) {
    debug_assert_eq!(left.len(), 3usize.pow(n as u32));
    debug_assert!(dim < n);
    // Same stale-reuse argument as `split_d`: every `right` element is
    // written by the kernel.
    right.resize(left.len(), 0.0);
    K::split_inplace(left, 3usize.pow(dim as u32), right)
}

fn mas_d<K: Kern>(coeffs: &[f64], n: usize, scratch: &mut Vec<f64>, block: usize) -> (f64, usize) {
    debug_assert_eq!(coeffs.len(), 3usize.pow(n as u32));
    assert!(n <= MAX_AXES, "tensor arity {n} exceeds kernel limit");
    if n == 0 {
        return (coeffs[0], 0);
    }
    let len = coeffs.len();
    let mut swings = [0.0f64; MAX_AXES];

    let mid = match effective_tile(block, len) {
        None => {
            // Untiled: one full-width swing + contraction per stage,
            // ping-ponging between two scratch regions (the contraction
            // is not expressible in-place over disjoint slices).
            // Stale contents are fine: every region is written by a
            // contraction before any swing reads it, so a recycled
            // scratch of the right length skips the zero-fill.
            scratch.resize(len / 3 + len / 9, 0.0);
            let (a, b) = scratch.split_at_mut(len / 3);
            swings[0] = K::swing3(coeffs);
            K::contract(coeffs, &mut a[..len / 3]);
            let mut cur_len = len / 3;
            let mut in_a = true;
            for swing in swings.iter_mut().take(n).skip(1) {
                let (cur, other) = if in_a {
                    (&mut *a, &mut *b)
                } else {
                    (&mut *b, &mut *a)
                };
                *swing = K::swing3(&cur[..cur_len]);
                let next_len = cur_len / 3;
                K::contract(&cur[..cur_len], &mut other[..next_len]);
                cur_len = next_len;
                in_a = !in_a;
            }
            debug_assert_eq!(cur_len, 1);
            if in_a {
                a[0]
            } else {
                b[0]
            }
        }
        Some(tile) => {
            // Tiled: contract each tile through all its stages while it
            // is cache-hot, collecting one value per tile; the remaining
            // stages run full-width on that contracted tensor. Tile
            // boundaries only re-order the order-free swing folds, so
            // results match the untiled pass bit-for-bit.
            let mut stages_in_tile = 0usize;
            let mut l = tile;
            while l > 1 {
                l /= 3;
                stages_in_tile += 1;
            }
            let out_len = len / tile;
            // Same stale-reuse argument as the untiled arm above.
            scratch.resize(out_len + out_len / 3 + tile / 3 + tile / 9, 0.0);
            let (out, rest) = scratch.split_at_mut(out_len);
            let (pong, rest) = rest.split_at_mut(out_len / 3);
            let (a, b) = rest.split_at_mut(tile / 3);
            for (c, seg) in coeffs.chunks_exact(tile).enumerate() {
                swings[0] = max_sd(swings[0], K::swing3(seg));
                K::contract(seg, &mut a[..tile / 3]);
                let mut cur_len = tile / 3;
                let mut in_a = true;
                for swing in swings.iter_mut().take(stages_in_tile).skip(1) {
                    let (cur, other) = if in_a {
                        (&mut *a, &mut *b)
                    } else {
                        (&mut *b, &mut *a)
                    };
                    *swing = max_sd(*swing, K::swing3(&cur[..cur_len]));
                    let next_len = cur_len / 3;
                    K::contract(&cur[..cur_len], &mut other[..next_len]);
                    cur_len = next_len;
                    in_a = !in_a;
                }
                debug_assert_eq!(cur_len, 1);
                out[c] = if in_a { a[0] } else { b[0] };
            }
            // Remaining axes on the per-tile contracted tensor.
            let mut cur_len = out_len;
            let mut in_out = true;
            for swing in swings.iter_mut().take(n).skip(stages_in_tile) {
                let (cur, other) = if in_out {
                    (&mut *out, &mut *pong)
                } else {
                    (&mut *pong, &mut *out)
                };
                *swing = K::swing3(&cur[..cur_len]);
                let next_len = cur_len / 3;
                K::contract(&cur[..cur_len], &mut other[..next_len]);
                cur_len = next_len;
                in_out = !in_out;
            }
            debug_assert_eq!(cur_len, 1);
            if in_out {
                out[0]
            } else {
                pong[0]
            }
        }
    };

    let mut best = f64::NEG_INFINITY;
    let mut best_axis = 0usize;
    for (axis, &s) in swings.iter().take(n).enumerate() {
        if s > best {
            best = s;
            best_axis = axis;
        }
    }
    (mid, best_axis)
}

fn widest_d<K: Kern>(coeffs: &[f64], n: usize, block: usize) -> usize {
    debug_assert_eq!(coeffs.len(), 3usize.pow(n as u32));
    assert!(n <= MAX_AXES, "tensor arity {n} exceeds kernel limit");
    if n <= 1 {
        return 0;
    }
    let len = coeffs.len();
    let tile_len = effective_tile(block, len).unwrap_or(len);
    let mut swings = [0.0f64; MAX_AXES];
    // One pass over the tensor computes every axis whose block fits the
    // tile while the tile is cache-hot; axes with wider blocks each get
    // a dedicated streaming pass below. Untiled (`tile_len == len`) this
    // degenerates to the classic per-axis scan.
    let mut in_tile_axes = 1usize; // axis 0 always fits (block 3 ≤ tile)
    {
        let mut stride = 3usize;
        while in_tile_axes < n && stride * 3 <= tile_len {
            in_tile_axes += 1;
            stride *= 3;
        }
    }
    for seg in coeffs.chunks_exact(tile_len) {
        swings[0] = max_sd(swings[0], K::swing3(seg));
        let mut stride = 3usize;
        for swing in swings.iter_mut().take(in_tile_axes).skip(1) {
            *swing = max_sd(*swing, K::swing_axis(seg, stride));
            stride *= 3;
        }
    }
    let mut stride = 3usize.pow(in_tile_axes as u32);
    for swing in swings.iter_mut().take(n).skip(in_tile_axes) {
        *swing = K::swing_axis(coeffs, stride);
        stride *= 3;
    }
    let mut best = f64::NEG_INFINITY;
    let mut best_axis = 0usize;
    for (axis, &s) in swings.iter().take(n).enumerate() {
        if s > best {
            best = s;
            best_axis = axis;
        }
    }
    best_axis
}

// ---------------------------------------------------------------------------
// Public kernels
// ---------------------------------------------------------------------------

/// Converts a degree-≤2 tensor from the power basis to the Bernstein
/// basis over `[0,1]ⁿ`, in place: per axis,
/// `(b₀, b₁, b₂) = (a₀, a₀ + a₁/2, a₀ + a₁ + a₂)`.
pub fn pow3_to_bernstein(coeffs: &mut [f64], n: usize) {
    debug_assert_eq!(coeffs.len(), 3usize.pow(n as u32));
    let mut stride = 1usize;
    for _ in 0..n {
        let block = stride * 3;
        for base in (0..coeffs.len()).step_by(block) {
            for inner in 0..stride {
                let i0 = base + inner;
                let i1 = i0 + stride;
                let i2 = i1 + stride;
                let (a0, a1, a2) = (coeffs[i0], coeffs[i1], coeffs[i2]);
                coeffs[i0] = a0;
                coeffs[i1] = a0 + 0.5 * a1;
                coeffs[i2] = a0 + a1 + a2;
            }
        }
        stride *= 3;
    }
}

/// De Casteljau halving of a degree-≤2 Bernstein tensor along `dim`:
/// writes both children's tensors in one pass over the parent.
///
/// Per axis-`dim` triple `(b₀, b₁, b₂)` the children are
/// `left = (b₀, (b₀+b₁)/2, (b₀+2b₁+b₂)/4)` and
/// `right = ((b₀+2b₁+b₂)/4, (b₁+b₂)/2, b₂)` — all divisions by powers of
/// two, so the halving is *exact* while coefficients stay within f64
/// dyadic range.
///
/// `left`/`right` are cleared and resized; pass recycled buffers to keep
/// the hot path allocation-free.
pub fn split_halves(
    parent: &[f64],
    n: usize,
    dim: usize,
    left: &mut Vec<f64>,
    right: &mut Vec<f64>,
) {
    dispatch!(|K| {
        split_d::<K>(parent, n, dim, left, right);
    })
}

/// [`split_halves`] fused with each child's minimum-coefficient scan:
/// returns `(left_min, right_min)` computed during the halving pass, so
/// the solver's per-child range pass disappears entirely. The minima
/// are numerically identical to `coefficient_range(child).0` (both
/// canonicalize `-0.0 → +0.0`).
pub fn split_halves_min(
    parent: &[f64],
    n: usize,
    dim: usize,
    left: &mut Vec<f64>,
    right: &mut Vec<f64>,
) -> (f64, f64) {
    dispatch!(|K| split_d::<K>(parent, n, dim, left, right))
}

/// [`split_halves_min`] with the parent buffer *becoming* the left
/// child: `left` holds the parent tensor on entry and the left child on
/// exit. The left child's `b₀` slabs are the parent's own coefficients,
/// so they are already in place and never stored; only `right` needs a
/// second buffer. Values and minima are bit-identical to the
/// out-of-place halving on every ISA. This is the solver's hot-path
/// variant: it turns one of the two cold child-buffer writes per split
/// into writes over the cache-hot parent.
pub fn split_halves_min_inplace(
    left: &mut [f64],
    n: usize,
    dim: usize,
    right: &mut Vec<f64>,
) -> (f64, f64) {
    dispatch!(|K| split_d_inplace::<K>(left, n, dim, right))
}

/// De Casteljau halving of a degree-≤1 (multilinear) Bernstein tensor —
/// `2ⁿ` corner values in subset-mask layout — along `dim`.
pub fn split_halves_deg1(
    parent: &[f64],
    n: usize,
    dim: usize,
    left: &mut Vec<f64>,
    right: &mut Vec<f64>,
) {
    debug_assert_eq!(parent.len(), 1usize << n);
    debug_assert!(dim < n);
    let len = parent.len();
    // Every element is written below, so skip the zero-fill when a
    // recycled buffer already has the right length (as in `split_d`).
    left.resize(len, 0.0);
    right.resize(len, 0.0);
    let stride = 1usize << dim;
    let block = stride * 2;
    for base in (0..len).step_by(block) {
        for inner in 0..stride {
            let i0 = base + inner;
            let i1 = i0 + stride;
            let (b0, b1) = (parent[i0], parent[i1]);
            let m = 0.5 * (b0 + b1);
            left[i0] = b0;
            left[i1] = m;
            right[i0] = m;
            right[i1] = b1;
        }
    }
}

/// Minimum and maximum coefficient — a rigorous range enclosure of the
/// polynomial over its box in either Bernstein layout. `-0.0` extrema
/// are canonicalized to `+0.0` so the result is independent of scan
/// order (and therefore of the active ISA).
pub fn coefficient_range(coeffs: &[f64]) -> (f64, f64) {
    dispatch!(|K| K::range(coeffs))
}

/// The tensor index of the vertex coefficient for the corner selected by
/// `mask` (bit `i` set ⟹ the high endpoint of axis `i`): digits are 0 or
/// 2, so `idx = Σ 2·3ⁱ` over set bits. Vertex coefficients equal the
/// polynomial's *exact* value at that corner.
pub fn vertex_index(n: usize, mask: u32) -> usize {
    let mut idx = 0usize;
    let mut stride = 1usize;
    for i in 0..n {
        if mask >> i & 1 == 1 {
            idx += 2 * stride;
        }
        stride *= 3;
    }
    idx
}

/// The split-axis with the widest derivative range: argmax over axes of
/// the largest adjacent Bernstein coefficient difference along that axis
/// (a sup bound on the scaled directional derivative, by the Bernstein
/// derivative formula). Halving the axis the polynomial varies fastest
/// along shrinks the enclosure fastest; ties break to the lowest axis so
/// the search stays deterministic.
///
/// Tensors past the [`auto_tile`] threshold are scanned in cache tiles:
/// every axis whose block fits the tile is computed in one shared pass,
/// `1 + (n − t)` passes total instead of `n`.
pub fn widest_derivative_axis(coeffs: &[f64], n: usize) -> usize {
    dispatch!(|K| widest_d::<K>(coeffs, n, 0))
}

/// [`widest_derivative_axis`] with an explicit tile length (`0` = the
/// [`auto_tile`] table; values round down to a power of 3, anything
/// below 27 or at least the tensor length means untiled).
pub fn widest_derivative_axis_tiled(coeffs: &[f64], n: usize, block: usize) -> usize {
    dispatch!(|K| widest_d::<K>(coeffs, n, block))
}

/// Evaluates a degree-≤2 Bernstein tensor at the box midpoint
/// (`t = ½` on every axis) by per-axis contraction with the Bernstein
/// weights `(¼, ½, ¼)` — `O(3ⁿ)` total, cheaper than a point evaluation
/// of the root polynomial and needing no global coordinates. `scratch`
/// is cleared and reused; pass a recycled buffer for an allocation-free
/// probe.
pub fn midpoint_value(coeffs: &[f64], n: usize, scratch: &mut Vec<f64>) -> f64 {
    debug_assert_eq!(coeffs.len(), 3usize.pow(n as u32));
    if n == 0 {
        return coeffs[0];
    }
    // First contraction reads straight from `coeffs` — no full-tensor
    // copy; the remaining rounds touch ≤ a third of the elements each.
    scratch.clear();
    scratch.extend(
        coeffs
            .chunks_exact(3)
            .map(|t| 0.25 * t[0] + 0.5 * t[1] + 0.25 * t[2]),
    );
    let mut len = scratch.len();
    for _ in 1..n {
        let mut w = 0usize;
        let mut r = 0usize;
        while r < len {
            scratch[w] = 0.25 * scratch[r] + 0.5 * scratch[r + 1] + 0.25 * scratch[r + 2];
            w += 1;
            r += 3;
        }
        len = w;
    }
    scratch[0]
}

/// Fused midpoint probe and split-axis heuristic: one shrinking
/// contraction pass returns both the box-midpoint value and the axis
/// with the widest derivative range, replacing a [`midpoint_value`]
/// call plus the `O(n·3ⁿ)` exact scan of [`widest_derivative_axis`]
/// with `O(3ⁿ)` total work — the difference between the solver's split
/// cost being dominated by the heuristic or getting it nearly free.
///
/// The swing of axis `k` is measured on the tensor already contracted
/// over axes `< k`, i.e. the Bernstein form of the polynomial's
/// restriction to the mid-slice of those axes (axis 0 is measured
/// exactly). That is a genuine derivative-range bound of the
/// restriction — an *averaged* variant of the exact heuristic, biased
/// toward variation near the box center, which is where the next
/// midpoint probes land anyway. Ties break to the lowest axis, so the
/// choice is deterministic.
///
/// Tensors past the [`auto_tile`] threshold are contracted tile by tile
/// while cache-hot (see the module docs); the result is bit-identical
/// either way. `scratch` is cleared and reused; pass a recycled buffer
/// (capacity ≥ `coeffs.len()` is always enough) to keep the probe
/// allocation-free.
pub fn midpoint_and_split_axis(coeffs: &[f64], n: usize, scratch: &mut Vec<f64>) -> (f64, usize) {
    dispatch!(|K| mas_d::<K>(coeffs, n, scratch, 0))
}

/// [`midpoint_and_split_axis`] with an explicit tile length (`0` = the
/// [`auto_tile`] table; values round down to a power of 3, anything
/// below 27 or at least the tensor length means untiled).
pub fn midpoint_and_split_axis_tiled(
    coeffs: &[f64],
    n: usize,
    scratch: &mut Vec<f64>,
    block: usize,
) -> (f64, usize) {
    dispatch!(|K| mas_d::<K>(coeffs, n, scratch, block))
}

/// Evaluates a degree-≤2 **power-basis** tensor (the [`DensePow3`]
/// layout) at `point` by per-axis Horner contraction: each round folds
/// the stride-1 axis as `c₀ + x·(c₁ + x·c₂)`, shrinking the tensor by
/// 3×. `O(3ⁿ)` total versus `O(n·3ⁿ)` per-monomial decoding; `scratch`
/// is cleared and reused, so a recycled buffer makes the evaluation
/// allocation-free.
///
/// [`DensePow3`]: crate::DensePow3
pub fn eval_pow3(coeffs: &[f64], n: usize, point: &[f64], scratch: &mut Vec<f64>) -> f64 {
    debug_assert_eq!(coeffs.len(), 3usize.pow(n as u32));
    debug_assert_eq!(point.len(), n);
    scratch.clear();
    scratch.extend_from_slice(coeffs);
    let mut len = scratch.len();
    for &x in point.iter().take(n) {
        let mut w = 0usize;
        let mut r = 0usize;
        while r < len {
            scratch[w] = scratch[r] + x * (scratch[r + 1] + x * scratch[r + 2]);
            w += 1;
            r += 3;
        }
        len = w;
    }
    scratch[0]
}

/// The `2ⁿ` corner values of a multilinear polynomial — its Bernstein
/// coefficients over `[0,1]ⁿ` — via the subset-sum (zeta) butterfly:
/// `v[mask] = Σ_{S ⊆ mask} coeffs[S]`, `O(n·2ⁿ)`.
pub fn multilinear_corners<C: Coeff>(m: &Multilinear<C>) -> Vec<f64> {
    let n = m.arity();
    let mut v: Vec<f64> = m.coeffs().iter().map(Coeff::to_f64).collect();
    for i in 0..n {
        let bit = 1usize << i;
        for mask in 0..v.len() {
            if mask & bit != 0 {
                v[mask] += v[mask ^ bit];
            }
        }
    }
    v
}

/// The portable scalar kernels, callable directly regardless of the
/// active ISA — the oracle the bit-identity proptests compare every
/// vector and tiled path against.
pub mod reference {
    use super::{mas_d, split_d, split_d_inplace, widest_d, Kern, ScalarK};

    /// Scalar [`coefficient_range`](super::coefficient_range).
    pub fn coefficient_range(coeffs: &[f64]) -> (f64, f64) {
        ScalarK::range(coeffs)
    }

    /// Scalar [`split_halves`](super::split_halves).
    pub fn split_halves(
        parent: &[f64],
        n: usize,
        dim: usize,
        left: &mut Vec<f64>,
        right: &mut Vec<f64>,
    ) {
        split_d::<ScalarK>(parent, n, dim, left, right);
    }

    /// Scalar [`split_halves_min`](super::split_halves_min).
    pub fn split_halves_min(
        parent: &[f64],
        n: usize,
        dim: usize,
        left: &mut Vec<f64>,
        right: &mut Vec<f64>,
    ) -> (f64, f64) {
        split_d::<ScalarK>(parent, n, dim, left, right)
    }

    /// Scalar [`split_halves_min_inplace`](super::split_halves_min_inplace).
    pub fn split_halves_min_inplace(
        left: &mut [f64],
        n: usize,
        dim: usize,
        right: &mut Vec<f64>,
    ) -> (f64, f64) {
        split_d_inplace::<ScalarK>(left, n, dim, right)
    }

    /// Scalar untiled
    /// [`midpoint_and_split_axis`](super::midpoint_and_split_axis).
    pub fn midpoint_and_split_axis(
        coeffs: &[f64],
        n: usize,
        scratch: &mut Vec<f64>,
    ) -> (f64, usize) {
        // `usize::MAX` rounds down to a tile ≥ the tensor ⟹ untiled.
        mas_d::<ScalarK>(coeffs, n, scratch, usize::MAX)
    }

    /// Scalar [`midpoint_and_split_axis_tiled`](super::midpoint_and_split_axis_tiled).
    pub fn midpoint_and_split_axis_tiled(
        coeffs: &[f64],
        n: usize,
        scratch: &mut Vec<f64>,
        block: usize,
    ) -> (f64, usize) {
        mas_d::<ScalarK>(coeffs, n, scratch, block)
    }

    /// Scalar untiled
    /// [`widest_derivative_axis`](super::widest_derivative_axis).
    pub fn widest_derivative_axis(coeffs: &[f64], n: usize) -> usize {
        widest_d::<ScalarK>(coeffs, n, usize::MAX)
    }

    /// Scalar [`widest_derivative_axis_tiled`](super::widest_derivative_axis_tiled).
    pub fn widest_derivative_axis_tiled(coeffs: &[f64], n: usize, block: usize) -> usize {
        widest_d::<ScalarK>(coeffs, n, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Polynomial;

    fn quad2() -> Polynomial<f64> {
        // f = 2x² − 3xy + y² + y − 1 over 2 vars: degree 2 per variable.
        let x = Polynomial::<f64>::var(2, 0);
        let y = Polynomial::<f64>::var(2, 1);
        x.pow(2)
            .scale(&2.0)
            .sub(&x.mul(&y).scale(&3.0))
            .add(&y.pow(2))
            .add(&y)
            .sub(&Polynomial::constant(2, 1.0))
    }

    fn pow3_coeffs(p: &Polynomial<f64>, n: usize) -> Vec<f64> {
        let mut coeffs = vec![0.0; 3usize.pow(n as u32)];
        for (m, c) in p.terms() {
            let mut idx = 0usize;
            let mut stride = 1usize;
            for i in 0..n {
                idx += m.exp(i) as usize * stride;
                stride *= 3;
            }
            coeffs[idx] += *c;
        }
        coeffs
    }

    #[test]
    fn bernstein_vertices_equal_corner_values() {
        let f = quad2();
        let mut b = pow3_coeffs(&f, 2);
        pow3_to_bernstein(&mut b, 2);
        for mask in 0u32..4 {
            let p = [(mask & 1) as f64, (mask >> 1 & 1) as f64];
            let idx = vertex_index(2, mask);
            assert!((b[idx] - f.eval_f64(&p)).abs() < 1e-12, "corner {mask}");
        }
    }

    #[test]
    fn halving_matches_direct_substitution() {
        let f = quad2();
        let mut b = pow3_coeffs(&f, 2);
        pow3_to_bernstein(&mut b, 2);
        let (mut l, mut r) = (Vec::new(), Vec::new());
        split_halves(&b, 2, 0, &mut l, &mut r);
        // Children's vertex coefficients are values at the halved corners.
        for (child, lo) in [(&l, 0.0), (&r, 0.5)] {
            for mask in 0u32..4 {
                let x = lo + 0.5 * (mask & 1) as f64;
                let y = (mask >> 1 & 1) as f64;
                let idx = vertex_index(2, mask);
                assert!((child[idx] - f.eval_f64(&[x, y])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ranged_halving_matches_child_ranges() {
        let f = quad2();
        let mut b = pow3_coeffs(&f, 2);
        pow3_to_bernstein(&mut b, 2);
        for dim in 0..2 {
            let (mut l, mut r) = (Vec::new(), Vec::new());
            let (lmin, rmin) = split_halves_min(&b, 2, dim, &mut l, &mut r);
            assert_eq!(lmin.to_bits(), coefficient_range(&l).0.to_bits());
            assert_eq!(rmin.to_bits(), coefficient_range(&r).0.to_bits());
        }
    }

    #[test]
    fn midpoint_contraction_matches_eval() {
        let f = quad2();
        let mut b = pow3_coeffs(&f, 2);
        pow3_to_bernstein(&mut b, 2);
        let mut scratch = Vec::new();
        let got = midpoint_value(&b, 2, &mut scratch);
        assert!((got - f.eval_f64(&[0.5, 0.5])).abs() < 1e-12);
    }

    #[test]
    fn derivative_axis_prefers_fast_variation() {
        // f = 9x² + y: varies much faster along x.
        let x = Polynomial::<f64>::var(2, 0);
        let y = Polynomial::<f64>::var(2, 1);
        let f = x.pow(2).scale(&9.0).add(&y);
        let mut b = pow3_coeffs(&f, 2);
        pow3_to_bernstein(&mut b, 2);
        assert_eq!(widest_derivative_axis(&b, 2), 0);
    }

    #[test]
    fn fused_probe_matches_midpoint_and_prefers_fast_variation() {
        // f = 9x² + y: varies much faster along x (axis 0).
        let x = Polynomial::<f64>::var(2, 0);
        let y = Polynomial::<f64>::var(2, 1);
        let f = x.pow(2).scale(&9.0).add(&y);
        let mut b = pow3_coeffs(&f, 2);
        pow3_to_bernstein(&mut b, 2);
        let mut scratch = Vec::new();
        let (mid, axis) = midpoint_and_split_axis(&b, 2, &mut scratch);
        assert!((mid - midpoint_value(&b, 2, &mut scratch)).abs() < 1e-12);
        assert_eq!(axis, 0);
        // And the mirrored polynomial prefers the other axis.
        let g = y.pow(2).scale(&9.0).add(&x);
        let mut b = pow3_coeffs(&g, 2);
        pow3_to_bernstein(&mut b, 2);
        let (_, axis) = midpoint_and_split_axis(&b, 2, &mut scratch);
        assert_eq!(axis, 1);
    }

    #[test]
    fn tiled_probe_is_bit_identical_to_untiled() {
        // Deterministic pseudo-random tensor, n = 7 (2187 elements) so a
        // forced 27-element tile exercises both phases of the tiled path.
        let n = 7usize;
        let mut state = 0x9e3779b97f4a7c15u64;
        let coeffs: Vec<f64> = (0..3usize.pow(n as u32))
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        let (mid_u, axis_u) = reference::midpoint_and_split_axis(&coeffs, n, &mut s1);
        for block in [27, 81, 243, 729] {
            let (mid_t, axis_t) =
                reference::midpoint_and_split_axis_tiled(&coeffs, n, &mut s2, block);
            assert_eq!(mid_u.to_bits(), mid_t.to_bits(), "tile {block}");
            assert_eq!(axis_u, axis_t, "tile {block}");
            assert_eq!(
                reference::widest_derivative_axis(&coeffs, n),
                reference::widest_derivative_axis_tiled(&coeffs, n, block),
                "tile {block}"
            );
        }
    }

    #[test]
    fn forced_isa_is_clamped_to_availability() {
        let prev = active_isa();
        let got = force_isa(Some(Isa::Scalar));
        assert_eq!(got, Isa::Scalar);
        // Re-resolve; on non-x86 or scalar-only builds this stays Scalar.
        let auto = force_isa(None);
        if cfg!(not(all(feature = "simd", target_arch = "x86_64"))) {
            assert_eq!(auto, Isa::Scalar);
        }
        force_isa(Some(prev));
    }

    #[test]
    fn pow3_contraction_matches_per_monomial_eval() {
        let f = quad2();
        let coeffs = pow3_coeffs(&f, 2);
        let mut scratch = Vec::new();
        for p in [[0.0, 0.0], [1.0, 1.0], [0.3, 0.7], [0.5, 0.125]] {
            let got = eval_pow3(&coeffs, 2, &p, &mut scratch);
            assert!((got - f.eval_f64(&p)).abs() < 1e-12, "at {p:?}");
        }
    }

    #[test]
    fn deg1_halving_and_corners_agree_with_eval() {
        let m = Multilinear::<f64>::var(3, 0)
            .add(&Multilinear::var(3, 1).scale(&-2.0))
            .add(&Multilinear::var(3, 2))
            .add(&Multilinear::constant(3, 0.25));
        let corners = multilinear_corners(&m);
        for (mask, corner) in corners.iter().enumerate() {
            let p: Vec<f64> = (0..3).map(|i| (mask >> i & 1) as f64).collect();
            assert!((corner - m.eval_f64(&p)).abs() < 1e-12);
        }
        let (mut l, mut r) = (Vec::new(), Vec::new());
        split_halves_deg1(&corners, 3, 1, &mut l, &mut r);
        for (child, lo) in [(&l, 0.0), (&r, 0.5)] {
            for (mask, value) in child.iter().enumerate() {
                let p: Vec<f64> = (0..3)
                    .map(|i| {
                        let t = (mask >> i & 1) as f64;
                        if i == 1 {
                            lo + 0.5 * t
                        } else {
                            t
                        }
                    })
                    .collect();
                assert!((value - m.eval_f64(&p)).abs() < 1e-12);
            }
        }
    }
}
