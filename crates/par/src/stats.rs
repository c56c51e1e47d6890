//! Process-wide execution counters, cheap enough to leave always-on.
//!
//! Monotonic relaxed atomics; consumers (epi-service's `stats`
//! operation) snapshot them and compute rates from deltas.

use std::sync::atomic::{AtomicU64, Ordering};

static STEALS: AtomicU64 = AtomicU64::new(0);
static MAPS: AtomicU64 = AtomicU64::new(0);
static ARENA_CHECKOUTS: AtomicU64 = AtomicU64::new(0);
static ARENA_MISSES: AtomicU64 = AtomicU64::new(0);
static ARENA_HIGH_WATER_BYTES: AtomicU64 = AtomicU64::new(0);
static WAVES_SEQUENTIAL: AtomicU64 = AtomicU64::new(0);
static WAVES_PARALLEL: AtomicU64 = AtomicU64::new(0);
static BATCH_SWEEPS: AtomicU64 = AtomicU64::new(0);
static SOA_STAGED_HIGH_WATER_BYTES: AtomicU64 = AtomicU64::new(0);

/// Point-in-time view of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Successful `parallel_map` range-half steals.
    pub steals: u64,
    /// `parallel_map` calls that actually fanned out (> 1 worker).
    pub parallel_maps: u64,
    /// Arena buffer checkouts (pooled tensors/boxes + thread scratch).
    pub arena_checkouts: u64,
    /// Checkouts that had to allocate — a warm hot path keeps this flat
    /// while `arena_checkouts` climbs.
    pub arena_misses: u64,
    /// High-water mark of bytes parked across all buffer pools.
    pub arena_high_water_bytes: u64,
    /// Frontier waves the chunk policy kept on the calling thread.
    pub waves_sequential: u64,
    /// Frontier waves the chunk policy fanned out across workers.
    pub waves_parallel: u64,
    /// Batched structure-of-arrays kernel sweeps over wave chunks (the
    /// solver's vectorized wave path).
    pub batch_sweeps: u64,
    /// High-water mark of bytes staged in structure-of-arrays wave
    /// buffers (survivor indices plus probe results) across all chunks.
    pub soa_staged_high_water_bytes: u64,
}

/// Snapshot the process-wide counters.
pub fn stats() -> StatsSnapshot {
    StatsSnapshot {
        steals: STEALS.load(Ordering::Relaxed),
        parallel_maps: MAPS.load(Ordering::Relaxed),
        arena_checkouts: ARENA_CHECKOUTS.load(Ordering::Relaxed),
        arena_misses: ARENA_MISSES.load(Ordering::Relaxed),
        arena_high_water_bytes: ARENA_HIGH_WATER_BYTES.load(Ordering::Relaxed),
        waves_sequential: WAVES_SEQUENTIAL.load(Ordering::Relaxed),
        waves_parallel: WAVES_PARALLEL.load(Ordering::Relaxed),
        batch_sweeps: BATCH_SWEEPS.load(Ordering::Relaxed),
        soa_staged_high_water_bytes: SOA_STAGED_HIGH_WATER_BYTES.load(Ordering::Relaxed),
    }
}

/// Record one batched structure-of-arrays sweep over a wave chunk.
pub fn record_batch_sweep() {
    BATCH_SWEEPS.fetch_add(1, Ordering::Relaxed);
}

/// Fold a chunk's staged SoA buffer footprint into the high-water mark.
pub fn record_soa_staged_bytes(bytes: u64) {
    SOA_STAGED_HIGH_WATER_BYTES.fetch_max(bytes, Ordering::Relaxed);
}

pub(crate) fn record_steal() {
    STEALS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_map() {
    MAPS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_arena_checkout(miss: bool) {
    ARENA_CHECKOUTS.fetch_add(1, Ordering::Relaxed);
    if miss {
        ARENA_MISSES.fetch_add(1, Ordering::Relaxed);
    }
}

pub(crate) fn record_arena_high_water(resident_bytes: u64) {
    ARENA_HIGH_WATER_BYTES.fetch_max(resident_bytes, Ordering::Relaxed);
}

pub(crate) fn record_wave(parallel: bool) {
    if parallel {
        WAVES_PARALLEL.fetch_add(1, Ordering::Relaxed);
    } else {
        WAVES_SEQUENTIAL.fetch_add(1, Ordering::Relaxed);
    }
}
