//! Worker pool with a bounded queue, request coalescing and fault
//! isolation.
//!
//! Safety decisions are the expensive part of serving an audit request —
//! a single branch-and-bound run can take milliseconds. The pool:
//!
//! 1. answers from the [`VerdictCache`] when the canonical `(A, B, prior)`
//!    key has been decided before;
//! 2. **coalesces** concurrent requests for the same key onto a single
//!    in-flight computation, so the decision pipeline runs once per
//!    distinct key no matter how many clients ask simultaneously;
//! 3. otherwise enqueues the key on a bounded queue from which `N`
//!    worker threads drain — blocking the caller when the queue is full
//!    ([`QueuePolicy::Block`], backpressure) or rejecting with
//!    [`DecideError::Overloaded`] ([`QueuePolicy::Shed`], load shedding).
//!
//! # Fault model
//!
//! Every request gets an answer, even when the solver misbehaves:
//!
//! * a panicking decision is caught ([`std::panic::catch_unwind`]); the
//!   waiting callers get [`DecideError::WorkerFailed`] and the worker
//!   thread keeps serving — a logical respawn counted in
//!   `worker_respawns`;
//! * every deadline-carrying request is also wired to the pool's
//!   shutdown [`CancelToken`], so a draining daemon interrupts in-flight
//!   solver runs instead of waiting out their box budgets;
//! * all internal locks recover from poisoning — one crashed computation
//!   cannot wedge the queue, the pending map, or any gate;
//! * decisions that came back *transiently* undecided (deadline expired,
//!   shutdown) are **never cached** — a retry after the incident should
//!   recompute, while budget-exhausted verdicts (deterministic for the
//!   instance) are cached like any other result.
//!
//! Everything is std-only: `Mutex` + `Condvar`, no async runtime.

use crate::admission::{AdmissionController, AdmissionOptions};
use crate::cache::{DecisionKey, VerdictCache};
use crate::metrics::Metrics;
use epi_audit::{Auditor, Decision};
use epi_boolean::Cube;
use epi_core::{CancelToken, Deadline};
use epi_solver::{Stage, UndecidedReason};
use epi_trace::Recorder;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Trace label for a solver stage span — `solver.` + the stage's metric
/// label, as static strings (span labels name code locations).
fn solver_span_label(stage: Stage) -> &'static str {
    match stage {
        Stage::Unconditional => "solver.unconditional",
        Stage::MiklauSuciu => "solver.miklau_suciu",
        Stage::Monotonicity => "solver.monotonicity",
        Stage::Cancellation => "solver.cancellation",
        Stage::BoxNecessary => "solver.box_necessary",
        Stage::BranchAndBound => "solver.branch_and_bound",
    }
}

/// Why a decision could not be produced. Each variant maps onto one
/// typed protocol error; none of them is ever reported as `Safe`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecideError {
    /// The decision queue was full and the pool runs in
    /// [`QueuePolicy::Shed`] mode; the request is retryable.
    Overloaded,
    /// Admission control predicted the request cannot meet its own
    /// deadline: the estimated queue wait already exceeds the remaining
    /// budget, so running it would only steal a worker from a request
    /// that could still succeed. Fail-closed; retry with a longer
    /// deadline or after backing off.
    AdmissionDeadline,
    /// The computation for this key panicked; retryable (the panic may
    /// have been transient, and the worker kept running).
    WorkerFailed,
    /// The pool is shutting down; the caller should not retry against
    /// this instance.
    Shutdown,
}

impl std::fmt::Display for DecideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecideError::Overloaded => write!(f, "decision queue is full"),
            DecideError::AdmissionDeadline => {
                write!(f, "estimated queue wait exceeds the request deadline")
            }
            DecideError::WorkerFailed => write!(f, "decision worker failed"),
            DecideError::Shutdown => write!(f, "service is shutting down"),
        }
    }
}

/// What the pool does when the bounded queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Block the submitting thread until a slot frees (backpressure).
    #[default]
    Block,
    /// Reject immediately with [`DecideError::Overloaded`] so the
    /// connection thread can send a retryable error instead of stalling
    /// the client.
    Shed,
}

/// A one-shot result slot that many threads can wait on. The contract
/// that makes waits safe: whoever takes responsibility for a gate
/// (worker, or the enqueuing path on failure) **always** sets it — a
/// panic between pop and set is converted into `Err(WorkerFailed)`.
struct Gate {
    slot: Mutex<Option<Result<Decision, DecideError>>>,
    ready: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// First set wins; later sets are ignored (a respawned worker and a
    /// shutdown drain can race benignly).
    fn set(&self, outcome: Result<Decision, DecideError>) {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(outcome);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Decision, DecideError> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A deterministic fault-injection hook: called by a worker right before
/// it computes a decision. The chaos harness uses this to panic or stall
/// inside the worker at scripted points; production pools leave it
/// `None`.
pub type FaultHook = Arc<dyn Fn(&DecisionKey) + Send + Sync>;

struct QueueItem {
    key: DecisionKey,
    gate: Arc<Gate>,
    deadline: Deadline,
    /// Trace id of the submitting request (coalesced waiters ride the
    /// first submitter's trace, like they ride its deadline).
    trace: Option<Arc<str>>,
    /// When the item entered the queue — the worker turns this into a
    /// `queue.wait` span at pop time.
    enqueued: Instant,
}

struct Queue {
    items: VecDeque<QueueItem>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    policy: QueuePolicy,
    pending: Mutex<HashMap<DecisionKey, Arc<Gate>>>,
    cache: VerdictCache,
    auditor: Auditor,
    cube: Cube,
    metrics: Arc<Metrics>,
    /// Cancelled when the pool drops: in-flight solver runs observe it
    /// through their deadline and settle as transient-undecided instead
    /// of running out their box budgets (bounded-grace drain).
    cancel: CancelToken,
    fault_hook: Option<FaultHook>,
    /// Span recorder shared with the service (a disabled recorder when
    /// the embedder did not opt into tracing — every call is a no-op).
    tracer: Arc<Recorder>,
    /// Adaptive admission: AIMD concurrency limit + queue-wait EWMA.
    admission: Arc<AdmissionController>,
    /// When set, the adaptive limit sheds even under
    /// [`QueuePolicy::Block`] — flipped by the service when the
    /// degradation ladder leaves `Normal`, so backpressure-mode callers
    /// keep their blocking semantics until the daemon is actually
    /// under pressure.
    shed_on_limit: AtomicBool,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The decision worker pool. Dropping it cancels in-flight solver runs,
/// drains the queue (every queued gate is still answered) and joins the
/// workers.
pub struct DecisionPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl DecisionPool {
    /// Spawns `workers` decision threads sharing one bounded queue of
    /// `queue_capacity` slots and one verdict cache of `cache_capacity`
    /// entries, blocking submitters when the queue is full.
    pub fn new(
        workers: usize,
        queue_capacity: usize,
        cache_capacity: usize,
        auditor: Auditor,
        cube: Cube,
        metrics: Arc<Metrics>,
    ) -> DecisionPool {
        Self::with_policy(
            workers,
            queue_capacity,
            cache_capacity,
            auditor,
            cube,
            metrics,
            QueuePolicy::Block,
            None,
        )
    }

    /// Full-control constructor: queue policy and an optional
    /// fault-injection hook (see [`FaultHook`]).
    #[allow(clippy::too_many_arguments)]
    pub fn with_policy(
        workers: usize,
        queue_capacity: usize,
        cache_capacity: usize,
        auditor: Auditor,
        cube: Cube,
        metrics: Arc<Metrics>,
        policy: QueuePolicy,
        fault_hook: Option<FaultHook>,
    ) -> DecisionPool {
        Self::with_policy_traced(
            workers,
            queue_capacity,
            cache_capacity,
            auditor,
            cube,
            metrics,
            policy,
            fault_hook,
            Arc::new(Recorder::disabled()),
        )
    }

    /// [`DecisionPool::with_policy`] sharing a span [`Recorder`] with the
    /// embedder: the pool then emits `cache.lookup`, `dedupe.coalesced`,
    /// `queue.wait`, `worker.compute` and `solver.*` spans, carrying the
    /// trace id of the request that submitted each decision.
    #[allow(clippy::too_many_arguments)]
    pub fn with_policy_traced(
        workers: usize,
        queue_capacity: usize,
        cache_capacity: usize,
        auditor: Auditor,
        cube: Cube,
        metrics: Arc<Metrics>,
        policy: QueuePolicy,
        fault_hook: Option<FaultHook>,
        tracer: Arc<Recorder>,
    ) -> DecisionPool {
        Self::with_admission(
            workers,
            queue_capacity,
            cache_capacity,
            auditor,
            cube,
            metrics,
            policy,
            fault_hook,
            tracer,
            AdmissionOptions::default(),
        )
    }

    /// [`DecisionPool::with_policy_traced`] with explicit
    /// [`AdmissionOptions`] for the adaptive concurrency limiter.
    #[allow(clippy::too_many_arguments)]
    pub fn with_admission(
        workers: usize,
        queue_capacity: usize,
        cache_capacity: usize,
        auditor: Auditor,
        cube: Cube,
        metrics: Arc<Metrics>,
        policy: QueuePolicy,
        fault_hook: Option<FaultHook>,
        tracer: Arc<Recorder>,
        admission: AdmissionOptions,
    ) -> DecisionPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: queue_capacity.max(1),
            policy,
            pending: Mutex::new(HashMap::new()),
            cache: VerdictCache::new(cache_capacity),
            auditor,
            cube,
            metrics,
            cancel: CancelToken::new(),
            fault_hook,
            tracer,
            admission: Arc::new(AdmissionController::new(admission)),
            shed_on_limit: AtomicBool::new(false),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(&shared))
            })
            .collect();
        DecisionPool { shared, workers }
    }

    /// The pool's shutdown token: cancelled when the pool starts
    /// dropping. Servers hand it to connection threads so long waits can
    /// observe the drain.
    pub fn cancel_token(&self) -> CancelToken {
        self.shared.cancel.clone()
    }

    /// The pool's adaptive admission controller (limit, in-flight count
    /// and queue-wait EWMA) — the service reads it for the `health` op
    /// and the degradation ladder's pressure signals.
    pub fn admission(&self) -> &AdmissionController {
        &self.shared.admission
    }

    /// Turns limit-based shedding on or off for [`QueuePolicy::Block`]
    /// pools. While off (the default), a blocked submitter waits for a
    /// queue slot exactly as before this controller existed; the service
    /// flips it on whenever the degradation ladder leaves `Normal`.
    pub fn set_shed_on_limit(&self, on: bool) {
        self.shared.shed_on_limit.store(on, Ordering::Relaxed);
    }

    /// Peeks the verdict cache without enqueueing or counting anything.
    /// A caller that answers from the peeked verdict hands it to
    /// [`DecisionPool::serve_hit`], which counts it.
    pub fn peek(&self, key: &DecisionKey) -> Option<Decision> {
        self.shared.cache.get(key)
    }

    /// Serves a verdict [`DecisionPool::peek`] found, recorded as the
    /// cache hit [`DecisionPool::decide_traced`] would have counted: a
    /// `cache.lookup` span and one `cache_hits`.
    pub fn serve_hit(&self, decision: Decision, trace: Option<&str>) -> Decision {
        let mut lookup = self.shared.tracer.start(trace, "cache.lookup");
        Metrics::incr(&self.shared.metrics.cache_hits);
        lookup.detail("hit");
        decision
    }

    /// Decides `(A, B)` under the pool's prior assumption, consulting the
    /// cache and coalescing with identical in-flight requests. Blocks the
    /// calling thread until the decision is available.
    pub fn decide(&self, key: DecisionKey) -> Result<Decision, DecideError> {
        self.decide_deadline(key, &Deadline::none())
    }

    /// [`DecisionPool::decide`] with a wall-clock budget for the solver
    /// run. The deadline travels with the queue item; the worker passes
    /// it (plus the pool's shutdown token) into the decision pipeline, so
    /// a timed-out computation settles as a transient Inconclusive
    /// decision — never `Safe`, and never cached. Coalesced requests
    /// share the first submitter's deadline.
    pub fn decide_deadline(
        &self,
        key: DecisionKey,
        deadline: &Deadline,
    ) -> Result<Decision, DecideError> {
        self.decide_traced(key, deadline, None)
    }

    /// [`DecisionPool::decide_deadline`] under a request trace id: the
    /// cache lookup, any coalescing, the queue wait and the worker
    /// computation (including individual solver stages) are recorded as
    /// spans carrying `trace`.
    pub fn decide_traced(
        &self,
        key: DecisionKey,
        deadline: &Deadline,
        trace: Option<&str>,
    ) -> Result<Decision, DecideError> {
        let shared = &self.shared;
        {
            let mut lookup = shared.tracer.start(trace, "cache.lookup");
            if let Some(hit) = shared.cache.get(&key) {
                Metrics::incr(&shared.metrics.cache_hits);
                lookup.detail("hit");
                return Ok(hit);
            }
            lookup.detail("miss");
        }
        Metrics::incr(&shared.metrics.cache_misses);

        let gate = {
            let mut pending = lock(&shared.pending);
            if let Some(gate) = pending.get(&key) {
                Metrics::incr(&shared.metrics.coalesced);
                shared.tracer.event(trace, "dedupe.coalesced", None);
                let gate = Arc::clone(gate);
                drop(pending);
                return gate.wait();
            }
            // The computation may have completed between the cache miss
            // and taking the pending lock; re-check before enqueueing.
            if let Some(hit) = shared.cache.get(&key) {
                Metrics::incr(&shared.metrics.cache_hits);
                shared
                    .tracer
                    .event(trace, "cache.lookup", Some("late hit".to_owned()));
                return Ok(hit);
            }
            // Deadline-aware admission: when the estimated queue wait
            // already exceeds the request's remaining budget, the
            // decision is doomed to settle as deadline-exceeded anyway —
            // reject it here, before it occupies a queue slot a
            // still-viable request could use.
            if shared.admission.options().enabled {
                if let Some(remaining) = deadline.remaining() {
                    let estimated = shared.admission.estimated_wait_micros();
                    if estimated > 0 && (remaining.as_micros() as u64) < estimated {
                        Metrics::incr(&shared.metrics.admission_rejects_deadline);
                        shared.tracer.event(
                            trace,
                            "admission.doomed",
                            Some(format!("estimated wait {estimated}us > budget")),
                        );
                        return Err(DecideError::AdmissionDeadline);
                    }
                }
            }
            let gate = Arc::new(Gate::new());
            pending.insert(key.clone(), Arc::clone(&gate));
            gate
        };

        // Count the decision against the adaptive limit. Under `Shed`
        // (or once the ladder left `Normal`) a full limit rejects
        // immediately; under plain `Block` the submitter keeps its
        // backpressure semantics and is only *counted*, so the limit
        // gauge and `health` stay truthful either way.
        let enforce_limit = matches!(shared.policy, QueuePolicy::Shed)
            || shared.shed_on_limit.load(Ordering::Relaxed);
        if enforce_limit {
            if !shared.admission.try_admit() {
                Metrics::incr(&shared.metrics.admission_rejects_limit);
                self.abandon(&key, &gate, DecideError::Overloaded);
                return Err(DecideError::Overloaded);
            }
        } else {
            shared.admission.admit_unchecked();
        }

        let mut queue = lock(&shared.queue);
        while queue.items.len() >= shared.capacity && !queue.shutdown {
            if matches!(shared.policy, QueuePolicy::Shed) {
                drop(queue);
                Metrics::incr(&shared.metrics.shed_requests);
                shared.admission.release();
                // The gate is registered in `pending`: any coalesced
                // waiter must be released with the same retryable error
                // before the key is freed for a later attempt.
                self.abandon(&key, &gate, DecideError::Overloaded);
                return Err(DecideError::Overloaded);
            }
            queue = shared
                .not_full
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if queue.shutdown {
            drop(queue);
            shared.admission.release();
            self.abandon(&key, &gate, DecideError::Shutdown);
            return Err(DecideError::Shutdown);
        }
        queue.items.push_back(QueueItem {
            key,
            gate: Arc::clone(&gate),
            deadline: deadline.clone(),
            trace: trace.map(Arc::from),
            enqueued: Instant::now(),
        });
        shared.metrics.observe_queue_depth(queue.items.len());
        drop(queue);
        shared.not_empty.notify_one();

        let outcome = gate.wait();
        shared.admission.release();
        outcome
    }

    /// Releases a gate that will never be served: resolve it with
    /// `error` for any coalesced waiters, then unregister the key.
    fn abandon(&self, key: &DecisionKey, gate: &Gate, error: DecideError) {
        gate.set(Err(error));
        lock(&self.shared.pending).remove(key);
    }

    fn worker_loop(shared: &Shared) {
        loop {
            let item = {
                let mut queue = lock(&shared.queue);
                loop {
                    if let Some(item) = queue.items.pop_front() {
                        shared.not_full.notify_one();
                        break item;
                    }
                    if queue.shutdown {
                        return;
                    }
                    queue = shared
                        .not_empty
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // The wait ends here: the start happened on the submitting
            // thread, so the span is recorded with explicit timing.
            let waited = item
                .enqueued
                .elapsed()
                .as_micros()
                .min(u128::from(u64::MAX)) as u64;
            shared.tracer.record(
                item.trace.clone(),
                "queue.wait",
                shared.tracer.now_micros().saturating_sub(waited),
                waited,
                None,
            );
            // Feed the observed wait into the AIMD loop.
            shared.admission.observe_wait(waited);
            // Isolate the computation: a solver panic must answer the
            // waiters and leave the worker serving (a logical respawn).
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Self::compute(shared, &item.key, &item.deadline, item.trace.as_deref())
            }));
            let outcome = match outcome {
                Ok(decision) => Ok(decision),
                Err(_panic) => {
                    Metrics::incr(&shared.metrics.worker_respawns);
                    shared.tracer.event(
                        item.trace.as_deref(),
                        "worker.panic",
                        Some("decision panicked; worker respawned".to_owned()),
                    );
                    Err(DecideError::WorkerFailed)
                }
            };
            lock(&shared.pending).remove(&item.key);
            item.gate.set(outcome);
        }
    }

    /// One decision computation, run on a worker thread under panic
    /// isolation.
    fn compute(
        shared: &Shared,
        key: &DecisionKey,
        deadline: &Deadline,
        trace: Option<&str>,
    ) -> Decision {
        let mut compute_span = shared.tracer.start(trace, "worker.compute");
        if let Some(hook) = &shared.fault_hook {
            hook(key);
        }
        // Wire the request deadline to the pool's shutdown token so a
        // draining daemon interrupts the solver promptly. (A token
        // supplied by the caller on the deadline itself is superseded.)
        let effective = match deadline.instant() {
            Some(at) => Deadline::at(at),
            None => Deadline::none(),
        }
        .with_token(shared.cancel.clone());
        let started = Instant::now();
        let decision = shared.auditor.decide_sets_observed(
            &shared.cube,
            &key.audit,
            &key.disclosed,
            &effective,
            &mut |stage, stage_micros| {
                shared.tracer.record(
                    trace.map(Arc::from),
                    solver_span_label(stage),
                    shared.tracer.now_micros().saturating_sub(stage_micros),
                    stage_micros,
                    None,
                );
            },
        );
        let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        if decision.stage.is_none() {
            // The log-supermodular refutation search runs outside the
            // staged pipeline, so the observer saw nothing; attribute the
            // whole decision to its own span.
            shared.tracer.record(
                trace.map(Arc::from),
                "solver.refutation_search",
                shared.tracer.now_micros().saturating_sub(micros),
                micros,
                None,
            );
        }
        compute_span.detail(format!(
            "finding={} support={}/{}",
            decision.finding,
            shared
                .auditor
                .support_dims(&shared.cube, &key.audit, &key.disclosed),
            shared.cube.dims()
        ));
        shared.metrics.record_decision(decision.stage, micros);
        if decision.boxes_processed > 0 {
            shared
                .metrics
                .record_solver_work(decision.boxes_processed as u64, micros);
        }
        Metrics::incr(&shared.metrics.computed);
        let transient = decision
            .undecided
            .is_some_and(UndecidedReason::is_transient);
        if transient {
            // Deadline expiry / shutdown is a property of this request,
            // not of the instance: a retry must recompute.
            Metrics::incr(&shared.metrics.deadline_exceeded);
        } else {
            let evicted = shared.cache.insert(key.clone(), decision.clone());
            shared
                .metrics
                .cache_evictions
                .fetch_add(evicted, std::sync::atomic::Ordering::Relaxed);
        }
        decision
    }
}

impl Drop for DecisionPool {
    fn drop(&mut self) {
        // Interrupt in-flight solver runs, then let workers drain what is
        // already queued (each queued gate still gets an answer — the
        // cancelled deadline makes those answers fast), then join.
        self.shared.cancel.cancel();
        {
            let mut queue = lock(&self.shared.queue);
            queue.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epi_audit::{Finding, PriorAssumption};
    use epi_boolean::Cube;
    use epi_core::WorldSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool(workers: usize) -> DecisionPool {
        DecisionPool::new(
            workers,
            8,
            64,
            Auditor::new(PriorAssumption::Product),
            Cube::new(2),
            Arc::new(Metrics::new()),
        )
    }

    fn key(audit_bits: &[u32], disclosed_bits: &[u32]) -> DecisionKey {
        DecisionKey {
            audit: WorldSet::from_indices(4, audit_bits.iter().copied()),
            disclosed: WorldSet::from_indices(4, disclosed_bits.iter().copied()),
            assumption: PriorAssumption::Product,
        }
    }

    #[test]
    fn decides_and_caches() {
        let p = pool(2);
        // §1.1 shape: A = hiv worlds {1,3}, B = implication {0,2,3} — safe.
        let k = key(&[1, 3], &[0, 2, 3]);
        let first = p.decide(k.clone()).unwrap();
        assert_eq!(first.finding, Finding::Safe);
        let second = p.decide(k).unwrap();
        assert_eq!(second, first);
        let m = p.shared.metrics.snapshot();
        assert_eq!(m.computed, 1);
        assert_eq!(m.cache_hits, 1);
    }

    #[test]
    fn concurrent_identical_requests_coalesce_or_hit_cache() {
        let p = Arc::new(pool(4));
        let k = key(&[1, 3], &[1, 3]); // direct hit: flagged
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let p = Arc::clone(&p);
                let k = k.clone();
                std::thread::spawn(move || p.decide(k).unwrap())
            })
            .collect();
        let findings: Vec<Decision> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(findings.iter().all(|d| d.finding == Finding::Flagged));
        assert!(findings.iter().all(|d| *d == findings[0]));
        let m = p.shared.metrics.snapshot();
        // Every request either computed (once), coalesced, or hit cache —
        // and the solver ran exactly once.
        assert_eq!(m.computed, 1);
        assert_eq!(m.cache_hits + m.coalesced + m.computed, 8);
    }

    #[test]
    fn distinct_keys_do_not_share_results() {
        let p = pool(2);
        let safe = p.decide(key(&[1, 3], &[0, 1, 2, 3])).unwrap();
        let flagged = p.decide(key(&[1, 3], &[1, 3])).unwrap();
        assert_eq!(safe.finding, Finding::Safe);
        assert_eq!(flagged.finding, Finding::Flagged);
        assert_eq!(
            p.shared.metrics.computed.load(Ordering::Relaxed),
            2,
            "two distinct keys, two computations"
        );
    }

    #[test]
    fn panicking_decision_fails_the_request_not_the_pool() {
        let hits = Arc::new(AtomicUsize::new(0));
        let hook_hits = Arc::clone(&hits);
        let hook: FaultHook = Arc::new(move |_k: &DecisionKey| {
            if hook_hits.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected solver panic");
            }
        });
        let metrics = Arc::new(Metrics::new());
        let p = DecisionPool::with_policy(
            2,
            8,
            64,
            Auditor::new(PriorAssumption::Product),
            Cube::new(2),
            Arc::clone(&metrics),
            QueuePolicy::Block,
            Some(hook),
        );
        // First request hits the injected panic: typed error, no hang.
        let k = key(&[1, 3], &[0, 2, 3]);
        assert_eq!(p.decide(k.clone()), Err(DecideError::WorkerFailed));
        // The pool survived; a retry on the same key succeeds.
        let retried = p.decide(k).unwrap();
        assert_eq!(retried.finding, Finding::Safe);
        assert_eq!(metrics.snapshot().worker_respawns, 1);
    }

    #[test]
    fn expired_deadline_is_transient_and_uncached() {
        let metrics = Arc::new(Metrics::new());
        // A stalling hook guarantees the deadline is past before the
        // solver starts, regardless of machine speed.
        let hook: FaultHook = Arc::new(|_k: &DecisionKey| {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let p = DecisionPool::with_policy(
            1,
            8,
            64,
            Auditor::new(PriorAssumption::Product),
            Cube::new(2),
            Arc::clone(&metrics),
            QueuePolicy::Block,
            Some(hook),
        );
        // A direct hit: refutations only come from the expensive tail,
        // which is the part an expired deadline skips. (The cheap safety
        // criteria intentionally still run to completion — their answers
        // are full proofs.)
        let k = key(&[1, 3], &[1, 3]);
        let d = p
            .decide_deadline(k.clone(), &Deadline::within(std::time::Duration::ZERO))
            .unwrap();
        assert_eq!(d.finding, Finding::Inconclusive, "fail closed");
        assert_eq!(d.undecided, Some(UndecidedReason::DeadlineExceeded));
        assert_eq!(metrics.snapshot().deadline_exceeded, 1);
        // Not cached: a retry without a deadline decides for real.
        let retried = p.decide(k).unwrap();
        assert_eq!(retried.finding, Finding::Flagged);
        assert_eq!(metrics.snapshot().cache_hits, 0);
    }

    #[test]
    fn shed_mode_rejects_when_full() {
        // One worker stalled by the hook + capacity-1 queue: a second
        // distinct request must shed, not block. Only the first
        // computation stalls — later ones (the queued item) run free.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let hook_gate = Arc::clone(&gate);
        let first_run = Arc::new(AtomicUsize::new(0));
        let hook_first = Arc::clone(&first_run);
        let hook: FaultHook = Arc::new(move |_k: &DecisionKey| {
            if hook_first.fetch_add(1, Ordering::SeqCst) == 0 {
                hook_gate.wait();
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
        });
        let metrics = Arc::new(Metrics::new());
        let p = Arc::new(DecisionPool::with_policy(
            1,
            1,
            64,
            Auditor::new(PriorAssumption::Product),
            Cube::new(2),
            Arc::clone(&metrics),
            QueuePolicy::Shed,
            Some(hook),
        ));
        // Occupy the worker...
        let p2 = Arc::clone(&p);
        let busy = std::thread::spawn(move || p2.decide(key(&[1, 3], &[0, 2, 3])));
        gate.wait(); // worker is now inside the stalled computation
                     // ...fill the queue slot...
        let p3 = Arc::clone(&p);
        let queued = std::thread::spawn(move || p3.decide(key(&[1, 3], &[1, 3])));
        // ...and wait until that item actually occupies the queue.
        for _ in 0..200 {
            if !lock(&p.shared.queue).items.is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let shed = p.decide(key(&[0, 1], &[0, 1]));
        assert_eq!(shed, Err(DecideError::Overloaded));
        assert_eq!(metrics.snapshot().shed_requests, 1);
        // The occupied and queued requests still complete normally.
        assert!(busy.join().unwrap().is_ok());
        assert!(queued.join().unwrap().is_ok());
    }

    #[test]
    fn doomed_deadline_is_rejected_at_admission() {
        let metrics = Arc::new(Metrics::new());
        let p = DecisionPool::with_policy(
            1,
            8,
            64,
            Auditor::new(PriorAssumption::Product),
            Cube::new(2),
            Arc::clone(&metrics),
            QueuePolicy::Block,
            None,
        );
        // Teach the EWMA that queued work waits ~50ms.
        for _ in 0..64 {
            p.shared.admission.observe_wait(50_000);
        }
        // A 1ms budget cannot survive a 50ms queue: rejected up front,
        // without occupying a queue slot or running the solver.
        let doomed = p.decide_deadline(
            key(&[1, 3], &[0, 2, 3]),
            &Deadline::within(std::time::Duration::from_millis(1)),
        );
        assert_eq!(doomed, Err(DecideError::AdmissionDeadline));
        let snap = metrics.snapshot();
        assert_eq!(snap.admission_rejects_deadline, 1);
        assert_eq!(snap.computed, 0, "the solver never ran");
        // The same key with headroom (or no deadline) decides normally.
        let fine = p.decide(key(&[1, 3], &[0, 2, 3])).unwrap();
        assert_eq!(fine.finding, Finding::Safe);
    }

    #[test]
    fn adaptive_limit_sheds_in_shed_mode() {
        use crate::admission::AdmissionOptions;
        // Limit pinned to 1 via min==max; a stalled worker holds the one
        // admission slot, so a second distinct request must shed at the
        // limit (not at the queue bound, which has plenty of room).
        let gate = Arc::new(std::sync::Barrier::new(2));
        let hook_gate = Arc::clone(&gate);
        let first_run = Arc::new(AtomicUsize::new(0));
        let hook_first = Arc::clone(&first_run);
        let hook: FaultHook = Arc::new(move |_k: &DecisionKey| {
            if hook_first.fetch_add(1, Ordering::SeqCst) == 0 {
                hook_gate.wait();
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
        });
        let metrics = Arc::new(Metrics::new());
        let p = Arc::new(DecisionPool::with_admission(
            1,
            8,
            64,
            Auditor::new(PriorAssumption::Product),
            Cube::new(2),
            Arc::clone(&metrics),
            QueuePolicy::Shed,
            Some(hook),
            Arc::new(Recorder::disabled()),
            AdmissionOptions {
                enabled: true,
                target_wait_micros: 1_000,
                min_limit: 1,
                max_limit: 1,
            },
        ));
        let p2 = Arc::clone(&p);
        let busy = std::thread::spawn(move || p2.decide(key(&[1, 3], &[0, 2, 3])));
        gate.wait(); // the worker is now inside the stalled computation
        let shed = p.decide(key(&[1, 3], &[1, 3]));
        assert_eq!(shed, Err(DecideError::Overloaded));
        assert_eq!(metrics.snapshot().admission_rejects_limit, 1);
        assert!(busy.join().unwrap().is_ok());
    }

    #[test]
    fn cached_peek_never_enqueues() {
        let p = pool(2);
        let k = key(&[1, 3], &[0, 2, 3]);
        assert!(p.peek(&k).is_none(), "cold cache peek is a miss");
        let decided = p.decide(k.clone()).unwrap();
        assert_eq!(p.peek(&k).unwrap(), decided);
        let m = p.shared.metrics.snapshot();
        assert_eq!(m.computed, 1);
        assert_eq!(m.cache_hits, 0, "a peek counts nothing");
    }

    #[test]
    fn drop_answers_queued_gates() {
        // Stall the single worker, queue another request, then drop the
        // pool from a third thread: the queued request must still get an
        // answer (drain-on-shutdown), not hang.
        let hook: FaultHook = Arc::new(|_k: &DecisionKey| {
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        let p = Arc::new(DecisionPool::with_policy(
            1,
            8,
            64,
            Auditor::new(PriorAssumption::Product),
            Cube::new(2),
            Arc::new(Metrics::new()),
            QueuePolicy::Block,
            Some(hook),
        ));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || p.decide(key(&[1, 3], &[i, 3])))
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(5));
        drop(p);
        for h in handles {
            // Every request resolved: either a decision (possibly
            // cancelled-inconclusive) or a typed error. No hangs.
            let _ = h.join().unwrap();
        }
    }
}
