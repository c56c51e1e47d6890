//! Frontier chunk-granularity control: when is a wave worth fanning out?
//!
//! Pools in this crate spawn scoped threads *per call*, so a parallel
//! map over a handful of cheap items loses outright — thread spawn and
//! join overhead exceeds the work. E14 measured it: 8 "threads" on a
//! single-core box ran the adversarial matrix at 0.94× sequential. The
//! [`ChunkPolicy`] centralizes the fix: small waves stay sequential, and
//! on machines with no real parallelism *every* wave stays sequential
//! regardless of the configured worker count.

use crate::stats;

/// Decides, wave by wave, whether a frontier is big enough to justify
/// spawning workers. Resolved once per search from the machine's core
/// count and the pool's worker count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPolicy {
    /// Waves with fewer items than this run inline on the caller.
    pub min_parallel_items: usize,
}

impl ChunkPolicy {
    /// Resolve the policy: `usize::MAX` (never fan out) when the machine
    /// reports a single core — spawning cannot win there, only lose the
    /// E14 way — and `max(32, 4·threads)` otherwise, enough items to
    /// amortize one round of thread spawns.
    pub fn resolve(threads: usize) -> ChunkPolicy {
        let machine = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        ChunkPolicy {
            min_parallel_items: if machine <= 1 {
                usize::MAX
            } else {
                (4 * threads).max(32)
            },
        }
    }

    /// Whether a wave of `items` should fan out across `threads`
    /// workers. Records the decision in the process-wide wave counters.
    pub fn should_parallelize(&self, items: usize, threads: usize) -> bool {
        let fan_out = threads > 1 && items >= self.min_parallel_items;
        stats::record_wave(fan_out);
        fan_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_never_fans_out() {
        let p = ChunkPolicy::resolve(1);
        assert!(!p.should_parallelize(usize::MAX, 1));
    }

    #[test]
    fn auto_default_is_conservative_on_a_single_core() {
        let machine = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let p = ChunkPolicy::resolve(8);
        if machine <= 1 {
            assert_eq!(p.min_parallel_items, usize::MAX);
        } else {
            assert!(p.min_parallel_items >= 1);
        }
    }
}
