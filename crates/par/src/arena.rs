//! Reusable buffer arenas for allocation-free hot loops.
//!
//! The branch-and-bound solver touches two kinds of temporary storage on
//! every box it evaluates: big `3ⁿ` coefficient tensors and `n`-length
//! point/box vectors. Allocating them per box dominates the hot path at
//! small arities and shreds the allocator at large ones. This module
//! provides the two recycling shapes the workspace needs:
//!
//! * [`BufferPool`] — a process-wide shelf of buffers that *cross
//!   threads*: a worker checks a buffer out, fills it (a child box's
//!   tensor), and the commit thread checks it back in when the box is
//!   pruned. Lock-per-transfer, but the critical section is a `Vec`
//!   push/pop.
//! * [`take_scratch_f64`] / [`give_scratch_f64`] — thread-local scratch
//!   for temporaries that never escape the evaluating worker (midpoint
//!   contraction, corner coordinates). No locking at all.
//!
//! Both record checkout/miss counters and a high-water byte mark into
//! [`crate::stats`], surfaced through the service's Prometheus
//! exposition. The module also hosts the **heap-allocation gauge**: a
//! pair of counters a counting `GlobalAlloc` shim (epi-bench installs
//! one) bumps on every allocation, so benchmarks can report
//! allocations/box and debug builds can assert the steady-state search
//! really does stay off the heap.

use crate::stats;
use std::cell::RefCell;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Cap on bytes parked in any one [`BufferPool`]; beyond it, checked-in
/// buffers are simply dropped. Sized so a full E14 frontier of `3⁹`
/// tensors recycles without ever hitting it — a dropped checkin is not
/// just a future malloc but a round of page faults re-touching tens of
/// kilobytes, which at large arities costs more than the kernel work on
/// the box itself.
const MAX_RESIDENT_BYTES: usize = 1 << 30;

/// Cap on buffers parked per thread-local scratch shelf.
const MAX_SCRATCH_BUFS: usize = 16;

/// A process-wide shelf of reusable `Vec<T>` buffers, safe to check out
/// and in from different threads. Buffers come back empty with their
/// capacity intact; `checkout` hands out the most recently parked one
/// (warmest in cache).
pub struct BufferPool<T> {
    shelf: Mutex<Vec<Vec<T>>>,
    resident_bytes: AtomicU64,
}

impl<T> BufferPool<T> {
    /// An empty pool; usable in `static` position.
    pub const fn new() -> BufferPool<T> {
        BufferPool {
            shelf: Mutex::new(Vec::new()),
            resident_bytes: AtomicU64::new(0),
        }
    }

    /// Check out an empty buffer with capacity ≥ `capacity`, recycling a
    /// parked one when available. Counts a miss (and allocates) when the
    /// shelf is empty or the warmest buffer is too small.
    pub fn checkout(&self, capacity: usize) -> Vec<T> {
        let mut buf = self.checkout_dirty(capacity);
        buf.clear();
        buf
    }

    /// [`checkout`](BufferPool::checkout) without the clear: a buffer
    /// parked via [`checkin_dirty`](BufferPool::checkin_dirty) comes
    /// back with its stale contents and length intact, so a caller that
    /// overwrites every element (`resize` to the same length, then a
    /// full kernel write) pays no zero-fill.
    pub fn checkout_dirty(&self, capacity: usize) -> Vec<T> {
        let popped = self
            .shelf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        match popped {
            Some(mut buf) => {
                self.resident_bytes.fetch_sub(
                    (buf.capacity() * mem::size_of::<T>()) as u64,
                    Ordering::Relaxed,
                );
                let miss = buf.capacity() < capacity;
                stats::record_arena_checkout(miss);
                if miss {
                    buf.reserve(capacity - buf.len());
                }
                buf
            }
            None => {
                stats::record_arena_checkout(true);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Park a no-longer-needed buffer for reuse. The buffer is cleared;
    /// its capacity is retained unless the pool is already holding
    /// `MAX_RESIDENT_BYTES`, in which case it is dropped.
    pub fn checkin(&self, mut buf: Vec<T>) {
        buf.clear();
        self.checkin_dirty(buf);
    }

    /// Park a buffer *without* clearing it: contents and length survive
    /// the round trip. When every buffer in a pool has the same shape
    /// (the solver's `3ⁿ` tensors within one solve) this lets the next
    /// user skip the `resize` zero-fill entirely — `Vec::resize` to the
    /// length the buffer already has is a no-op, and on big tensors
    /// that memset is a large fraction of a box's whole evaluation
    /// cost. Only park buffers whose next user overwrites every element
    /// it reads; `checkout` hands stale contents back verbatim.
    pub fn checkin_dirty(&self, buf: Vec<T>) {
        let bytes = buf.capacity() * mem::size_of::<T>();
        if bytes == 0 {
            return;
        }
        let resident = self.resident_bytes.load(Ordering::Relaxed) as usize;
        if resident + bytes > MAX_RESIDENT_BYTES {
            return; // drop: the shelf is full enough
        }
        let new_resident = self
            .resident_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed)
            + bytes as u64;
        stats::record_arena_high_water(new_resident);
        self.shelf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(buf);
    }

    /// Bytes currently parked on the shelf.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes.load(Ordering::Relaxed) as usize
    }

    /// Drop every parked buffer (tests; memory-pressure relief).
    pub fn drain(&self) {
        let mut shelf = self.shelf.lock().unwrap_or_else(PoisonError::into_inner);
        self.resident_bytes.store(0, Ordering::Relaxed);
        shelf.clear();
    }
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        BufferPool::new()
    }
}

thread_local! {
    static SCRATCH_F64: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// Take a thread-local `f64` scratch buffer (empty, capacity ≥
/// `capacity`). Pair with [`give_scratch_f64`]; never crosses threads,
/// so there is no lock to take.
pub fn take_scratch_f64(capacity: usize) -> Vec<f64> {
    let popped = SCRATCH_F64.with(|s| s.borrow_mut().pop());
    match popped {
        Some(mut buf) => {
            let miss = buf.capacity() < capacity;
            stats::record_arena_checkout(miss);
            if miss {
                buf.reserve(capacity);
            }
            buf
        }
        None => {
            stats::record_arena_checkout(true);
            Vec::with_capacity(capacity)
        }
    }
}

/// Return a buffer taken with [`take_scratch_f64`] to this thread's
/// shelf (cleared, capacity kept; dropped if the shelf is full).
pub fn give_scratch_f64(mut buf: Vec<f64>) {
    if buf.capacity() == 0 {
        return;
    }
    buf.clear();
    SCRATCH_F64.with(|s| {
        let mut shelf = s.borrow_mut();
        if shelf.len() < MAX_SCRATCH_BUFS {
            shelf.push(buf);
        }
    });
}

static HEAP_ALLOCS: AtomicU64 = AtomicU64::new(0);
static HEAP_BYTES: AtomicU64 = AtomicU64::new(0);

/// Called by a counting `GlobalAlloc` shim on every allocation (and
/// every growing reallocation). Must not allocate: atomics only.
#[inline]
pub fn record_heap_alloc(bytes: usize) {
    HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
    HEAP_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Total heap allocations observed by the counting allocator; stays 0
/// when no counting allocator is installed.
#[inline]
pub fn heap_allocations() -> u64 {
    HEAP_ALLOCS.load(Ordering::Relaxed)
}

/// Total bytes requested from the heap, as observed by the counting
/// allocator.
#[inline]
pub fn heap_bytes_allocated() -> u64 {
    HEAP_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_recycles_capacity() {
        let pool: BufferPool<f64> = BufferPool::new();
        let mut a = pool.checkout(64);
        a.extend(std::iter::repeat_n(1.0, 64));
        let cap = a.capacity();
        pool.checkin(a);
        assert!(pool.resident_bytes() >= 64 * 8);
        let b = pool.checkout(64);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "the parked buffer came back");
        assert_eq!(pool.resident_bytes(), 0);
    }

    #[test]
    fn checkin_of_empty_buffer_is_a_noop() {
        let pool: BufferPool<u8> = BufferPool::new();
        pool.checkin(Vec::new());
        assert_eq!(pool.resident_bytes(), 0);
    }

    #[test]
    fn drain_empties_the_shelf() {
        let pool: BufferPool<u64> = BufferPool::new();
        pool.checkin(Vec::with_capacity(32));
        assert!(pool.resident_bytes() > 0);
        pool.drain();
        assert_eq!(pool.resident_bytes(), 0);
    }

    #[test]
    fn scratch_round_trips_on_one_thread() {
        let mut a = take_scratch_f64(16);
        a.push(3.0);
        let cap = a.capacity();
        give_scratch_f64(a);
        let b = take_scratch_f64(16);
        assert!(b.is_empty());
        assert!(b.capacity() >= cap.min(16));
        give_scratch_f64(b);
    }

    #[test]
    fn pool_transfers_across_threads() {
        static POOL: BufferPool<f64> = BufferPool::new();
        let mut buf = POOL.checkout(128);
        buf.push(1.0);
        std::thread::spawn(move || POOL.checkin(buf))
            .join()
            .unwrap();
        let back = POOL.checkout(128);
        assert!(back.is_empty());
        assert!(back.capacity() >= 128);
    }
}
