//! Std-only parallel execution engine for the epistemic-privacy stack.
//!
//! The decision procedures this workspace runs — branch-and-bound over
//! the unit box (§6.1), batch audits, exhaustive theorem sweeps — are
//! all fan-out-heavy and CPU-bound, but the build environment is
//! offline, so no rayon. This crate provides the primitive the rest of
//! the workspace needs, over nothing but `std::thread`:
//! [`Pool::parallel_map`] — order-preserving data parallelism over a
//! slice, with steal-half range stealing so uneven item costs (easy vs
//! hard solver instances) don't serialize the tail.
//!
//! Around them, two allocation-discipline helpers: [`BufferPool`] and
//! the thread-local scratch shelf ([`take_scratch_f64`]) recycle the
//! hot-path buffers of the box search, and [`ChunkPolicy`] decides when
//! a frontier wave is big enough to be worth fanning out at all.
//!
//! Worker counts resolve, in order: an explicit count passed to
//! [`Pool::new`], the `EPI_PAR_THREADS` environment variable, and
//! finally [`std::thread::available_parallelism`]. All pools are
//! value-types; threads are scoped (spawned per `parallel_map` call and
//! joined before it returns), so there is no global executor to shut
//! down and nested parallelism cannot deadlock — inner calls get their
//! own threads.
//!
//! # Fault tolerance
//!
//! All primitives are hardened for a long-lived daemon:
//!
//! * **Panic isolation** — a panic inside a mapped closure never kills
//!   a pool thread silently: peers finish their work,
//!   every internal thread is joined, and the first panic payload is
//!   re-raised on the calling thread.
//! * **Poison recovery** — internal locks recover from poisoning (the
//!   guarded state is always updated atomically under the lock), so one
//!   panicking closure cannot wedge subsequent calls.
//! * **Deadlines** — [`Pool::parallel_map_deadline`] stops cooperatively
//!   at item boundaries when a [`Deadline`] expires or its [`CancelToken`]
//!   fires, returning [`StopReason`] instead of hanging.

#![forbid(unsafe_code)]

mod arena;
mod chunk;
mod map;
mod stats;

pub use arena::{
    give_scratch_f64, heap_allocations, heap_bytes_allocated, record_heap_alloc, take_scratch_f64,
    BufferPool,
};
pub use chunk::ChunkPolicy;
pub use epi_core::{CancelToken, Deadline, StopReason};
pub use stats::{record_batch_sweep, record_soa_staged_bytes, stats, StatsSnapshot};

use std::sync::OnceLock;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "EPI_PAR_THREADS";

/// Upper bound on worker counts; guards against absurd overrides.
const MAX_THREADS: usize = 128;

/// Resolve the default worker count: `EPI_PAR_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(k) = raw.trim().parse::<usize>() {
            if k >= 1 {
                return k.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// A worker-count policy. Cheap to copy; owns no threads — each
/// [`Pool::parallel_map`] call spawns scoped workers and joins them
/// before returning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with an explicit worker count; `0` means "use the
    /// default" (see [`default_threads`]).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: if threads == 0 {
                default_threads()
            } else {
                threads.min(MAX_THREADS)
            },
        }
    }

    /// A single-worker pool: everything runs inline on the caller.
    pub fn sequential() -> Pool {
        Pool { threads: 1 }
    }

    /// The process-wide default pool. The worker count is resolved once
    /// (first call reads `EPI_PAR_THREADS`) and cached.
    pub fn global() -> Pool {
        static THREADS: OnceLock<usize> = OnceLock::new();
        Pool {
            threads: *THREADS.get_or_init(default_threads),
        }
    }

    /// Number of workers this pool uses (always ≥ 1). The caller's
    /// thread counts as one of them.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items` in parallel, returning outputs in input
    /// order. Falls back to a plain sequential map when the pool has
    /// one worker or the slice is short.
    pub fn parallel_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        map::parallel_map_impl(self.threads, items, &f)
    }

    /// [`Pool::parallel_map`] with a stop condition: workers check the
    /// [`Deadline`] between items and the call returns `Err(reason)` —
    /// discarding partial output — once it expires or its token is
    /// cancelled. An unbounded deadline adds no per-item cost.
    pub fn parallel_map_deadline<T, U, F>(
        &self,
        items: &[T],
        f: F,
        deadline: &Deadline,
    ) -> Result<Vec<U>, StopReason>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        map::parallel_map_deadline_impl(self.threads, items, &f, deadline)
    }
}

impl Default for Pool {
    fn default() -> Pool {
        Pool::global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_resolves_positive_worker_count() {
        assert!(Pool::new(0).threads() >= 1);
        assert_eq!(Pool::new(3).threads(), 3);
        assert_eq!(Pool::sequential().threads(), 1);
        assert!(Pool::global().threads() >= 1);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..997).collect();
        for threads in [1, 2, 4, 8] {
            let got = Pool::new(threads).parallel_map(&items, |x| x * x + 1);
            let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_handles_tiny_inputs() {
        let p = Pool::new(8);
        assert_eq!(p.parallel_map(&[] as &[u32], |x| *x), Vec::<u32>::new());
        assert_eq!(p.parallel_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_deadline_stops_early() {
        use std::time::Duration;
        let items: Vec<u32> = (0..256).collect();
        let p = Pool::new(4);
        // Already-expired deadline: no items should survive to output.
        let d = Deadline::within(Duration::ZERO);
        let got = p.parallel_map_deadline(&items, |&x| x + 1, &d);
        assert_eq!(got, Err(StopReason::DeadlineExceeded));
        // Unbounded deadline: identical to parallel_map.
        let got = p.parallel_map_deadline(&items, |&x| x + 1, &Deadline::none());
        let want: Vec<u32> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(got, Ok(want));
    }

    #[test]
    fn parallel_map_deadline_observes_cancellation() {
        let items: Vec<u32> = (0..64).collect();
        let token = CancelToken::new();
        token.cancel();
        let d = Deadline::none().with_token(token);
        let got = Pool::new(2).parallel_map_deadline(&items, |&x| x, &d);
        assert_eq!(got, Err(StopReason::Cancelled));
    }

    #[test]
    fn parallel_map_panic_propagates_with_payload() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).parallel_map(&items, |&x| {
                assert!(x != 13, "unlucky item");
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload is a string");
        assert!(msg.contains("unlucky item"), "got: {msg}");
    }

    #[test]
    fn uneven_work_is_stolen_not_serialized() {
        // One pathological item plus many cheap ones: order must hold.
        let items: Vec<u32> = (0..64).collect();
        let got = Pool::new(4).parallel_map(&items, |&x| {
            if x == 0 {
                let mut acc = 0u64;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_add(i * i);
                }
                acc as u32 ^ acc as u32 // 0, but data-dependent
            } else {
                x
            }
        });
        let want: Vec<u32> = (0..64).map(|x| if x == 0 { 0 } else { x }).collect();
        assert_eq!(got, want);
    }
}
