//! Lock-free metrics registry for the auditing daemon.
//!
//! Counters are plain relaxed atomics: the daemon's hot path (cache
//! lookups, queue operations) only ever does `fetch_add`, and a
//! [`Snapshot`] is an unsynchronised read of all of them — fine for
//! monitoring, where a counter being one tick stale is irrelevant.
//! Per-stage latency is a power-of-two histogram in microseconds, one
//! histogram per pipeline [`Stage`] plus one slot for decisions made
//! outside the pipeline (the log-supermodular refutation search).

use epi_json::{field, opt_field, Deserialize, Json, JsonError, Serialize};
use epi_solver::Stage;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of latency-histogram buckets. Bucket `k` counts decisions whose
/// latency fell in `[2^k, 2^(k+1))` microseconds; the last bucket is a
/// catch-all, so the histogram spans ~1 µs to ~0.5 s before saturating.
pub const LATENCY_BUCKETS: usize = 20;

/// One latency slot per pipeline stage, plus one (the last) for
/// decisions reached outside the pipeline.
pub const STAGE_SLOTS: usize = 7;

/// Number of per-decision risk-histogram buckets: bucket `k` counts
/// decisions whose normalized risk score fell in `[k/10, (k+1)/10)`;
/// the last bucket also owns a risk of exactly 1.0.
pub const RISK_BUCKETS: usize = 10;

const STAGE_LABELS: [&str; STAGE_SLOTS] = [
    "unconditional",
    "miklau_suciu",
    "monotonicity",
    "cancellation",
    "box_necessary",
    "branch_and_bound",
    "refutation_search",
];

fn stage_slot(stage: Option<Stage>) -> usize {
    match stage {
        Some(Stage::Unconditional) => 0,
        Some(Stage::MiklauSuciu) => 1,
        Some(Stage::Monotonicity) => 2,
        Some(Stage::Cancellation) => 3,
        Some(Stage::BoxNecessary) => 4,
        Some(Stage::BranchAndBound) => 5,
        None => 6,
    }
}

#[derive(Default)]
struct StageStats {
    count: AtomicU64,
    total_micros: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

/// The daemon's counters. One instance is shared (behind an `Arc`) by the
/// session store, cache, worker pool and server.
#[derive(Default)]
pub struct Metrics {
    /// Protocol requests handled (all operations).
    pub requests: AtomicU64,
    /// Requests the reactor answered itself, without a handler thread
    /// (a subset of `requests`).
    pub requests_inline: AtomicU64,
    /// Requests that needed a safety decision (disclose/cumulative past
    /// the negative-result gate).
    pub decide_requests: AtomicU64,
    /// Disclosures answered `Safe` because the audited property was false
    /// at disclosure time — no solver work at all.
    pub negative_gated: AtomicU64,
    /// Verdict-cache hits.
    pub cache_hits: AtomicU64,
    /// Verdict-cache misses.
    pub cache_misses: AtomicU64,
    /// Verdict-cache evictions.
    pub cache_evictions: AtomicU64,
    /// Decisions that piggybacked on an identical in-flight decision
    /// instead of enqueueing their own.
    pub coalesced: AtomicU64,
    /// Decisions actually computed by a worker.
    pub computed: AtomicU64,
    /// High-water mark of the worker queue depth.
    pub queue_high_water: AtomicU64,
    /// Branch-and-bound boxes committed by computed decisions.
    pub solver_boxes: AtomicU64,
    /// Microseconds spent in decisions that ran the branch-and-bound
    /// (criterion-only decisions are excluded so boxes/sec stays honest).
    pub solver_micros: AtomicU64,
    /// Worker iterations that caught a solver panic and kept serving —
    /// each one is a logical worker respawn.
    pub worker_respawns: AtomicU64,
    /// Requests rejected with `overloaded` because the decision queue was
    /// full in shed mode.
    pub shed_requests: AtomicU64,
    /// Decisions that came back undecided because their deadline expired
    /// or the daemon was draining (always reported as *not* safe).
    pub deadline_exceeded: AtomicU64,
    /// Currently open TCP connections (gauge: incremented on accept,
    /// decremented on close).
    pub connections_open: AtomicU64,
    /// TCP connections accepted since startup.
    pub connections_accepted: AtomicU64,
    /// Connections evicted for inactivity — either fully idle past the
    /// idle timeout or dribbling a started frame past the frame deadline.
    pub connections_evicted_idle: AtomicU64,
    /// Connections evicted for overflow: accepted past the connection
    /// cap, or a write queue past its hard overflow limit.
    pub connections_evicted_overflow: AtomicU64,
    /// Times a connection's reads were paused for backpressure (full
    /// write queue, full dispatch queue, or the in-flight cap).
    pub backpressure_stalls: AtomicU64,
    /// High-water mark of any single connection's read buffer, bytes.
    pub read_buffer_high_water: AtomicU64,
    /// High-water mark of any single connection's write queue, bytes.
    pub write_buffer_high_water: AtomicU64,
    /// Requests rejected at admission because the estimated queue wait
    /// already exceeded their deadline (doomed work never enqueued).
    pub admission_rejects_deadline: AtomicU64,
    /// Requests rejected at admission by the adaptive concurrency limit.
    pub admission_rejects_limit: AtomicU64,
    /// Requests rejected by the per-user token-bucket fairness gate.
    pub admission_rejects_fairness: AtomicU64,
    /// Requests refused because the degradation ladder was in
    /// `cache_only` (uncached decision) or `frozen` (disclosure while
    /// the log is quarantined/stalled) mode.
    pub admission_rejects_degraded: AtomicU64,
    /// Current adaptive admission limit (gauge, written by the
    /// controller on every adjustment).
    pub admission_limit: AtomicU64,
    /// EWMA of decision-queue wait in microseconds (gauge).
    pub admission_wait_ewma_micros: AtomicU64,
    /// Degradation-ladder mode (gauge: 0 normal, 1 shedding,
    /// 2 cache_only, 3 frozen).
    pub degradation_mode: AtomicU64,
    /// Wall microseconds the last graceful drain took (gauge, zero until
    /// a drain runs).
    pub drain_micros: AtomicU64,
    /// Disclosures refused up front because the user's exposure budget
    /// crossed the deny threshold (O(1) fast path; never enqueued).
    pub budget_exhausted_denials: AtomicU64,
    /// Disclosures that crossed the budget warn threshold (still
    /// served).
    pub budget_warnings: AtomicU64,
    /// Largest per-user budget spend seen, in micro-units (gauge).
    pub budget_spent_high_water_micros: AtomicU64,
    /// Per-decision risk histogram: decisions scored, total risk in
    /// micro-units, and tenth-of-risk buckets.
    risk_count: AtomicU64,
    risk_sum_micros: AtomicU64,
    risk_buckets: [AtomicU64; RISK_BUCKETS],
    stages: [StageStats; STAGE_SLOTS],
}

impl Metrics {
    /// Creates a zeroed registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Bumps a counter by one (relaxed).
    pub fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements a gauge by one (relaxed, saturating at zero).
    pub fn decr(counter: &AtomicU64) {
        // fetch_update never fails with Relaxed/Relaxed + Some(..).
        let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Raises a high-water gauge to at least `value` (relaxed).
    pub fn observe_high_water(counter: &AtomicU64, value: u64) {
        counter.fetch_max(value, Ordering::Relaxed);
    }

    /// Overwrites a gauge with `value` (relaxed).
    pub fn set_gauge(gauge: &AtomicU64, value: u64) {
        gauge.store(value, Ordering::Relaxed);
    }

    /// Raises the queue high-water mark to at least `depth`.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.queue_high_water
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Records branch-and-bound work done by one decision (boxes the
    /// search committed and the wall time of the decision). Call only for
    /// decisions that actually entered the box search.
    pub fn record_solver_work(&self, boxes: u64, micros: u64) {
        self.solver_boxes.fetch_add(boxes, Ordering::Relaxed);
        self.solver_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Records one decided disclosure's normalized risk score
    /// (micro-units, clamped to `[0, 1_000_000]`) into the risk
    /// histogram.
    pub fn record_risk(&self, micros: u64) {
        let micros = micros.min(1_000_000);
        self.risk_count.fetch_add(1, Ordering::Relaxed);
        self.risk_sum_micros.fetch_add(micros, Ordering::Relaxed);
        let bucket = ((micros / 100_000) as usize).min(RISK_BUCKETS - 1);
        self.risk_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one computed decision: which stage settled it and how long
    /// the solver took.
    pub fn record_decision(&self, stage: Option<Stage>, micros: u64) {
        let s = &self.stages[stage_slot(stage)];
        s.count.fetch_add(1, Ordering::Relaxed);
        s.total_micros.fetch_add(micros, Ordering::Relaxed);
        let bucket = (64 - micros.max(1).leading_zeros() as usize - 1).min(LATENCY_BUCKETS - 1);
        s.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Reads every counter into a plain-data snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Snapshot {
            requests: read(&self.requests),
            requests_inline: read(&self.requests_inline),
            decide_requests: read(&self.decide_requests),
            negative_gated: read(&self.negative_gated),
            cache_hits: read(&self.cache_hits),
            cache_misses: read(&self.cache_misses),
            cache_evictions: read(&self.cache_evictions),
            coalesced: read(&self.coalesced),
            computed: read(&self.computed),
            queue_high_water: read(&self.queue_high_water),
            solver_boxes: read(&self.solver_boxes),
            solver_micros: read(&self.solver_micros),
            worker_respawns: read(&self.worker_respawns),
            shed_requests: read(&self.shed_requests),
            deadline_exceeded: read(&self.deadline_exceeded),
            connections_open: read(&self.connections_open),
            connections_accepted: read(&self.connections_accepted),
            connections_evicted_idle: read(&self.connections_evicted_idle),
            connections_evicted_overflow: read(&self.connections_evicted_overflow),
            backpressure_stalls: read(&self.backpressure_stalls),
            read_buffer_high_water: read(&self.read_buffer_high_water),
            write_buffer_high_water: read(&self.write_buffer_high_water),
            admission_rejects_deadline: read(&self.admission_rejects_deadline),
            admission_rejects_limit: read(&self.admission_rejects_limit),
            admission_rejects_fairness: read(&self.admission_rejects_fairness),
            admission_rejects_degraded: read(&self.admission_rejects_degraded),
            admission_limit: read(&self.admission_limit),
            admission_wait_ewma_micros: read(&self.admission_wait_ewma_micros),
            degradation_mode: read(&self.degradation_mode),
            drain_micros: read(&self.drain_micros),
            budget_exhausted_denials: read(&self.budget_exhausted_denials),
            budget_warnings: read(&self.budget_warnings),
            budget_spent_high_water_micros: read(&self.budget_spent_high_water_micros),
            risk_count: read(&self.risk_count),
            risk_sum_micros: read(&self.risk_sum_micros),
            risk_buckets: self.risk_buckets.iter().map(read).collect(),
            pool_workers: epi_par::Pool::global().threads() as u64,
            pool_steals: epi_par::stats().steals,
            pool_arena_checkouts: epi_par::stats().arena_checkouts,
            pool_arena_misses: epi_par::stats().arena_misses,
            pool_arena_high_water_bytes: epi_par::stats().arena_high_water_bytes,
            pool_waves_sequential: epi_par::stats().waves_sequential,
            pool_waves_parallel: epi_par::stats().waves_parallel,
            pool_batch_sweeps: epi_par::stats().batch_sweeps,
            pool_soa_high_water_bytes: epi_par::stats().soa_staged_high_water_bytes,
            // The trace ring lives beside the registry (in the service),
            // which overwrites these after snapshotting; a bare registry
            // reports zeros.
            trace_spans: 0,
            trace_dropped: 0,
            slow_decisions: 0,
            // Likewise for the disclosure log: the WAL keeps its own
            // atomics and the service folds them in after snapshotting.
            wal_appends: 0,
            wal_bytes: 0,
            wal_fsyncs: 0,
            snapshot_count: 0,
            recovery_replayed_records: 0,
            recovery_millis: 0,
            stages: self
                .stages
                .iter()
                .zip(STAGE_LABELS)
                .map(|(s, label)| StageSnapshot {
                    stage: label.to_owned(),
                    count: read(&s.count),
                    total_micros: read(&s.total_micros),
                    buckets: s.buckets.iter().map(read).collect(),
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of [`Metrics`] — what the `stats` protocol
/// operation returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Protocol requests handled.
    pub requests: u64,
    /// Requests the reactor answered without a handler thread.
    pub requests_inline: u64,
    /// Requests that needed a safety decision.
    pub decide_requests: u64,
    /// Disclosures short-circuited by the negative-result rule.
    pub negative_gated: u64,
    /// Verdict-cache hits.
    pub cache_hits: u64,
    /// Verdict-cache misses.
    pub cache_misses: u64,
    /// Verdict-cache evictions.
    pub cache_evictions: u64,
    /// Decisions coalesced onto an in-flight computation.
    pub coalesced: u64,
    /// Decisions computed by workers.
    pub computed: u64,
    /// Worker-queue depth high-water mark.
    pub queue_high_water: u64,
    /// Branch-and-bound boxes committed across computed decisions.
    pub solver_boxes: u64,
    /// Wall micros of the decisions that ran the branch-and-bound.
    pub solver_micros: u64,
    /// Worker iterations that recovered from a solver panic.
    pub worker_respawns: u64,
    /// Requests shed with `overloaded` under queue pressure.
    pub shed_requests: u64,
    /// Decisions undecided because of deadline expiry or shutdown.
    pub deadline_exceeded: u64,
    /// Currently open TCP connections.
    pub connections_open: u64,
    /// TCP connections accepted since startup.
    pub connections_accepted: u64,
    /// Connections evicted for idle/frame-deadline inactivity.
    pub connections_evicted_idle: u64,
    /// Connections evicted for overflow (connection cap or write-queue
    /// hard limit).
    pub connections_evicted_overflow: u64,
    /// Read pauses triggered by per-connection backpressure.
    pub backpressure_stalls: u64,
    /// High-water mark of any single connection's read buffer, bytes.
    pub read_buffer_high_water: u64,
    /// High-water mark of any single connection's write queue, bytes.
    pub write_buffer_high_water: u64,
    /// Requests rejected at admission: estimated queue wait exceeded the
    /// request's deadline.
    pub admission_rejects_deadline: u64,
    /// Requests rejected at admission by the adaptive concurrency limit.
    pub admission_rejects_limit: u64,
    /// Requests rejected by the per-user fairness token bucket.
    pub admission_rejects_fairness: u64,
    /// Requests refused in `cache_only`/`frozen` degradation modes.
    pub admission_rejects_degraded: u64,
    /// Current adaptive admission limit (gauge).
    pub admission_limit: u64,
    /// EWMA of decision-queue wait, microseconds (gauge).
    pub admission_wait_ewma_micros: u64,
    /// Degradation-ladder mode (gauge: 0 normal, 1 shedding,
    /// 2 cache_only, 3 frozen).
    pub degradation_mode: u64,
    /// Wall microseconds the last graceful drain took (gauge).
    pub drain_micros: u64,
    /// Disclosures refused up front by the exposure-budget deny
    /// threshold (never enqueued to the solver).
    pub budget_exhausted_denials: u64,
    /// Disclosures that crossed the budget warn threshold.
    pub budget_warnings: u64,
    /// Largest per-user budget spend seen, micro-units (gauge).
    pub budget_spent_high_water_micros: u64,
    /// Decisions scored into the risk histogram.
    pub risk_count: u64,
    /// Total risk across scored decisions, micro-units.
    pub risk_sum_micros: u64,
    /// Tenth-of-risk histogram buckets (`[k/10, (k+1)/10)`, last bucket
    /// owns 1.0).
    pub risk_buckets: Vec<u64>,
    /// Worker threads in the process-wide [`epi_par`] solver pool.
    pub pool_workers: u64,
    /// Work-stealing events in the solver pool (process lifetime).
    pub pool_steals: u64,
    /// Solver arena buffer checkouts (process lifetime).
    pub pool_arena_checkouts: u64,
    /// Arena checkouts that had to allocate — flat while `checkouts`
    /// climbs means the zero-allocation hot path is holding.
    pub pool_arena_misses: u64,
    /// High-water mark of bytes parked across the solver buffer pools.
    pub pool_arena_high_water_bytes: u64,
    /// Frontier waves the chunk policy kept sequential (process lifetime).
    pub pool_waves_sequential: u64,
    /// Frontier waves the chunk policy fanned out (process lifetime).
    pub pool_waves_parallel: u64,
    /// Batched structure-of-arrays kernel sweeps run by the wave engine.
    pub pool_batch_sweeps: u64,
    /// High-water mark of bytes staged at once in the wave engine's
    /// structure-of-arrays buffers (midpoints + split axes + survivor
    /// indices).
    pub pool_soa_high_water_bytes: u64,
    /// Spans recorded into the daemon's trace ring since startup.
    pub trace_spans: u64,
    /// Spans whose ring slot has since been overwritten (ring laps).
    pub trace_dropped: u64,
    /// Spans that crossed the slow-decision threshold since startup.
    pub slow_decisions: u64,
    /// Records appended to the durable disclosure log since startup
    /// (zero when the daemon runs without a data directory).
    pub wal_appends: u64,
    /// Bytes written to the disclosure log since startup (framing
    /// included).
    pub wal_bytes: u64,
    /// `fdatasync` calls issued by the disclosure log since startup.
    /// Under group commit this is typically far below `wal_appends`.
    pub wal_fsyncs: u64,
    /// Compacted snapshots written since startup.
    pub snapshot_count: u64,
    /// Log records replayed during the last startup recovery.
    pub recovery_replayed_records: u64,
    /// Wall milliseconds the last startup recovery took.
    pub recovery_millis: u64,
    /// Per-stage decision counts and latency histograms.
    pub stages: Vec<StageSnapshot>,
}

impl Snapshot {
    /// Cache hit rate in `[0, 1]`; `0` before any lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Branch-and-bound throughput in boxes per second over the decisions
    /// that ran the box search; `0` before any solver work.
    pub fn boxes_per_sec(&self) -> f64 {
        if self.solver_micros == 0 {
            0.0
        } else {
            self.solver_boxes as f64 / (self.solver_micros as f64 / 1e6)
        }
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (version 0.0.4): every counter, the gauges, and one
    /// `epi_stage_latency_micros` histogram series per pipeline stage
    /// with cumulative `le` buckets, `_sum` and `_count`.
    ///
    /// Bucket `k` of the internal power-of-two histogram counts
    /// latencies in `[2^k, 2^(k+1))` µs, so its exposition upper bound
    /// is `le="2^(k+1)"`; the saturating last bucket maps to `le="+Inf"`
    /// (which, being cumulative, always equals `_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        counter(
            "epi_requests_total",
            "Protocol requests handled.",
            self.requests,
        );
        counter(
            "epi_requests_inline_total",
            "Requests the reactor answered without a handler thread.",
            self.requests_inline,
        );
        counter(
            "epi_decide_requests_total",
            "Requests that needed a safety decision.",
            self.decide_requests,
        );
        counter(
            "epi_negative_gated_total",
            "Disclosures short-circuited by the negative-result rule.",
            self.negative_gated,
        );
        counter(
            "epi_cache_hits_total",
            "Verdict-cache hits.",
            self.cache_hits,
        );
        counter(
            "epi_cache_misses_total",
            "Verdict-cache misses.",
            self.cache_misses,
        );
        counter(
            "epi_cache_evictions_total",
            "Verdict-cache evictions.",
            self.cache_evictions,
        );
        counter(
            "epi_coalesced_total",
            "Decisions coalesced onto an in-flight computation.",
            self.coalesced,
        );
        counter(
            "epi_computed_total",
            "Decisions computed by workers.",
            self.computed,
        );
        counter(
            "epi_solver_boxes_total",
            "Branch-and-bound boxes committed across computed decisions.",
            self.solver_boxes,
        );
        counter(
            "epi_solver_micros_total",
            "Wall micros of decisions that ran the branch-and-bound.",
            self.solver_micros,
        );
        counter(
            "epi_worker_respawns_total",
            "Worker iterations that recovered from a solver panic.",
            self.worker_respawns,
        );
        counter(
            "epi_shed_requests_total",
            "Requests shed with `overloaded` under queue pressure.",
            self.shed_requests,
        );
        counter(
            "epi_deadline_exceeded_total",
            "Decisions undecided because of deadline expiry or shutdown.",
            self.deadline_exceeded,
        );
        counter(
            "epi_connections_accepted_total",
            "TCP connections accepted since startup.",
            self.connections_accepted,
        );
        counter(
            "epi_connections_evicted_idle_total",
            "Connections evicted for idle/frame-deadline inactivity.",
            self.connections_evicted_idle,
        );
        counter(
            "epi_connections_evicted_overflow_total",
            "Connections evicted for overflow (connection cap or write-queue hard limit).",
            self.connections_evicted_overflow,
        );
        counter(
            "epi_backpressure_stalls_total",
            "Read pauses triggered by per-connection backpressure.",
            self.backpressure_stalls,
        );
        counter(
            "epi_pool_steals_total",
            "Work-stealing events in the solver pool.",
            self.pool_steals,
        );
        counter(
            "epi_pool_arena_checkouts_total",
            "Solver arena buffer checkouts.",
            self.pool_arena_checkouts,
        );
        counter(
            "epi_pool_arena_misses_total",
            "Arena checkouts that had to allocate.",
            self.pool_arena_misses,
        );
        counter(
            "epi_pool_waves_sequential_total",
            "Frontier waves kept sequential by the chunk policy.",
            self.pool_waves_sequential,
        );
        counter(
            "epi_pool_waves_parallel_total",
            "Frontier waves fanned out by the chunk policy.",
            self.pool_waves_parallel,
        );
        counter(
            "epi_pool_batch_sweeps_total",
            "Batched structure-of-arrays kernel sweeps run by the wave engine.",
            self.pool_batch_sweeps,
        );
        counter(
            "epi_trace_spans_total",
            "Spans recorded into the trace ring.",
            self.trace_spans,
        );
        counter(
            "epi_trace_dropped_total",
            "Trace-ring spans overwritten by newer ones.",
            self.trace_dropped,
        );
        counter(
            "epi_slow_decisions_total",
            "Spans that crossed the slow-decision threshold.",
            self.slow_decisions,
        );
        counter(
            "epi_wal_appends_total",
            "Records appended to the durable disclosure log.",
            self.wal_appends,
        );
        counter(
            "epi_wal_bytes_total",
            "Bytes written to the disclosure log, framing included.",
            self.wal_bytes,
        );
        counter(
            "epi_wal_fsyncs_total",
            "fdatasync calls issued by the disclosure log.",
            self.wal_fsyncs,
        );
        counter(
            "epi_snapshots_total",
            "Compacted session snapshots written.",
            self.snapshot_count,
        );
        counter(
            "epi_admission_rejects_deadline_total",
            "Requests rejected at admission: queue wait exceeded deadline.",
            self.admission_rejects_deadline,
        );
        counter(
            "epi_admission_rejects_limit_total",
            "Requests rejected at admission by the adaptive concurrency limit.",
            self.admission_rejects_limit,
        );
        counter(
            "epi_admission_rejects_fairness_total",
            "Requests rejected by the per-user fairness token bucket.",
            self.admission_rejects_fairness,
        );
        counter(
            "epi_admission_rejects_degraded_total",
            "Requests refused in cache_only/frozen degradation modes.",
            self.admission_rejects_degraded,
        );
        counter(
            "epi_budget_exhausted_denials_total",
            "Disclosures refused by the exposure-budget deny threshold.",
            self.budget_exhausted_denials,
        );
        counter(
            "epi_budget_warnings_total",
            "Disclosures that crossed the exposure-budget warn threshold.",
            self.budget_warnings,
        );
        let mut gauge = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        gauge(
            "epi_queue_high_water",
            "Worker-queue depth high-water mark.",
            self.queue_high_water,
        );
        gauge(
            "epi_connections_open",
            "Currently open TCP connections.",
            self.connections_open,
        );
        gauge(
            "epi_read_buffer_high_water",
            "High-water mark of any single connection's read buffer, bytes.",
            self.read_buffer_high_water,
        );
        gauge(
            "epi_write_buffer_high_water",
            "High-water mark of any single connection's write queue, bytes.",
            self.write_buffer_high_water,
        );
        gauge(
            "epi_pool_workers",
            "Worker threads in the process-wide solver pool.",
            self.pool_workers,
        );
        gauge(
            "epi_pool_arena_high_water_bytes",
            "High-water mark of bytes parked in the solver buffer pools.",
            self.pool_arena_high_water_bytes,
        );
        gauge(
            "epi_pool_soa_high_water_bytes",
            "High-water mark of bytes staged in the wave engine's SoA buffers.",
            self.pool_soa_high_water_bytes,
        );
        gauge(
            "epi_recovery_replayed_records",
            "Log records replayed during the last startup recovery.",
            self.recovery_replayed_records,
        );
        gauge(
            "epi_recovery_millis",
            "Wall milliseconds the last startup recovery took.",
            self.recovery_millis,
        );
        gauge(
            "epi_admission_limit",
            "Current adaptive admission limit (concurrently admitted decisions).",
            self.admission_limit,
        );
        gauge(
            "epi_admission_wait_ewma_micros",
            "EWMA of decision-queue wait, microseconds.",
            self.admission_wait_ewma_micros,
        );
        gauge(
            "epi_degradation_mode",
            "Degradation-ladder mode (0 normal, 1 shedding, 2 cache_only, 3 frozen).",
            self.degradation_mode,
        );
        gauge(
            "epi_drain_micros",
            "Wall microseconds the last graceful drain took.",
            self.drain_micros,
        );
        gauge(
            "epi_budget_spent_high_water_micros",
            "Largest per-user exposure-budget spend seen, micro-units.",
            self.budget_spent_high_water_micros,
        );
        out.push_str(concat!(
            "# HELP epi_decision_risk Normalized per-decision risk score.\n",
            "# TYPE epi_decision_risk histogram\n",
        ));
        let mut cumulative = 0u64;
        for (k, &n) in self.risk_buckets.iter().enumerate() {
            cumulative += n;
            if k + 1 == self.risk_buckets.len() {
                out.push_str(&format!(
                    "epi_decision_risk_bucket{{le=\"+Inf\"}} {cumulative}\n"
                ));
            } else {
                out.push_str(&format!(
                    "epi_decision_risk_bucket{{le=\"0.{}\"}} {}\n",
                    k + 1,
                    cumulative
                ));
            }
        }
        out.push_str(&format!(
            "epi_decision_risk_sum {}\n",
            self.risk_sum_micros as f64 / 1e6
        ));
        out.push_str(&format!("epi_decision_risk_count {}\n", self.risk_count));
        out.push_str(concat!(
            "# HELP epi_stage_latency_micros Decision latency by deciding pipeline stage.\n",
            "# TYPE epi_stage_latency_micros histogram\n",
        ));
        for stage in &self.stages {
            let mut cumulative = 0u64;
            for (k, &n) in stage.buckets.iter().enumerate() {
                cumulative += n;
                if k + 1 == stage.buckets.len() {
                    out.push_str(&format!(
                        "epi_stage_latency_micros_bucket{{stage=\"{}\",le=\"+Inf\"}} {}\n",
                        stage.stage, cumulative
                    ));
                } else {
                    out.push_str(&format!(
                        "epi_stage_latency_micros_bucket{{stage=\"{}\",le=\"{}\"}} {}\n",
                        stage.stage,
                        1u64 << (k + 1),
                        cumulative
                    ));
                }
            }
            out.push_str(&format!(
                "epi_stage_latency_micros_sum{{stage=\"{}\"}} {}\n",
                stage.stage, stage.total_micros
            ));
            out.push_str(&format!(
                "epi_stage_latency_micros_count{{stage=\"{}\"}} {}\n",
                stage.stage, stage.count
            ));
        }
        out
    }
}

/// Per-stage slice of a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stage label (`branch_and_bound`, …, or `refutation_search`).
    pub stage: String,
    /// Decisions settled at this stage.
    pub count: u64,
    /// Total solver time spent in those decisions, microseconds.
    pub total_micros: u64,
    /// Power-of-two latency histogram (bucket `k` = `[2^k, 2^(k+1))` µs).
    pub buckets: Vec<u64>,
}

impl Serialize for StageSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("stage", Json::from(self.stage.as_str())),
            ("count", Json::from(self.count)),
            ("total_micros", Json::from(self.total_micros)),
            ("buckets", self.buckets.to_json()),
        ])
    }
}

impl Deserialize for StageSnapshot {
    fn from_json(v: &Json) -> Result<StageSnapshot, JsonError> {
        Ok(StageSnapshot {
            stage: field(v, "stage")?,
            count: field(v, "count")?,
            total_micros: field(v, "total_micros")?,
            buckets: field(v, "buckets")?,
        })
    }
}

impl Serialize for Snapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::from(self.requests)),
            ("requests_inline", Json::from(self.requests_inline)),
            ("decide_requests", Json::from(self.decide_requests)),
            ("negative_gated", Json::from(self.negative_gated)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("cache_evictions", Json::from(self.cache_evictions)),
            ("coalesced", Json::from(self.coalesced)),
            ("computed", Json::from(self.computed)),
            ("queue_high_water", Json::from(self.queue_high_water)),
            ("solver_boxes", Json::from(self.solver_boxes)),
            ("solver_micros", Json::from(self.solver_micros)),
            ("worker_respawns", Json::from(self.worker_respawns)),
            ("shed_requests", Json::from(self.shed_requests)),
            ("deadline_exceeded", Json::from(self.deadline_exceeded)),
            ("connections_open", Json::from(self.connections_open)),
            (
                "connections_accepted",
                Json::from(self.connections_accepted),
            ),
            (
                "connections_evicted_idle",
                Json::from(self.connections_evicted_idle),
            ),
            (
                "connections_evicted_overflow",
                Json::from(self.connections_evicted_overflow),
            ),
            ("backpressure_stalls", Json::from(self.backpressure_stalls)),
            (
                "read_buffer_high_water",
                Json::from(self.read_buffer_high_water),
            ),
            (
                "write_buffer_high_water",
                Json::from(self.write_buffer_high_water),
            ),
            (
                "admission_rejects_deadline",
                Json::from(self.admission_rejects_deadline),
            ),
            (
                "admission_rejects_limit",
                Json::from(self.admission_rejects_limit),
            ),
            (
                "admission_rejects_fairness",
                Json::from(self.admission_rejects_fairness),
            ),
            (
                "admission_rejects_degraded",
                Json::from(self.admission_rejects_degraded),
            ),
            ("admission_limit", Json::from(self.admission_limit)),
            (
                "admission_wait_ewma_micros",
                Json::from(self.admission_wait_ewma_micros),
            ),
            ("degradation_mode", Json::from(self.degradation_mode)),
            ("drain_micros", Json::from(self.drain_micros)),
            (
                "budget_exhausted_denials",
                Json::from(self.budget_exhausted_denials),
            ),
            ("budget_warnings", Json::from(self.budget_warnings)),
            (
                "budget_spent_high_water_micros",
                Json::from(self.budget_spent_high_water_micros),
            ),
            ("risk_count", Json::from(self.risk_count)),
            ("risk_sum_micros", Json::from(self.risk_sum_micros)),
            ("risk_buckets", self.risk_buckets.to_json()),
            ("pool_workers", Json::from(self.pool_workers)),
            ("pool_steals", Json::from(self.pool_steals)),
            (
                "pool_arena_checkouts",
                Json::from(self.pool_arena_checkouts),
            ),
            ("pool_arena_misses", Json::from(self.pool_arena_misses)),
            (
                "pool_arena_high_water_bytes",
                Json::from(self.pool_arena_high_water_bytes),
            ),
            (
                "pool_waves_sequential",
                Json::from(self.pool_waves_sequential),
            ),
            ("pool_waves_parallel", Json::from(self.pool_waves_parallel)),
            ("pool_batch_sweeps", Json::from(self.pool_batch_sweeps)),
            (
                "pool_soa_high_water_bytes",
                Json::from(self.pool_soa_high_water_bytes),
            ),
            ("trace_spans", Json::from(self.trace_spans)),
            ("trace_dropped", Json::from(self.trace_dropped)),
            ("slow_decisions", Json::from(self.slow_decisions)),
            ("wal_appends", Json::from(self.wal_appends)),
            ("wal_bytes", Json::from(self.wal_bytes)),
            ("wal_fsyncs", Json::from(self.wal_fsyncs)),
            ("snapshot_count", Json::from(self.snapshot_count)),
            (
                "recovery_replayed_records",
                Json::from(self.recovery_replayed_records),
            ),
            ("recovery_millis", Json::from(self.recovery_millis)),
            // Derived, for dashboards that read the JSON directly; the
            // deserializer recomputes them from the counters.
            ("cache_hit_rate", Json::from(self.cache_hit_rate())),
            ("boxes_per_sec", Json::from(self.boxes_per_sec())),
            ("stages", self.stages.to_json()),
        ])
    }
}

impl Deserialize for Snapshot {
    fn from_json(v: &Json) -> Result<Snapshot, JsonError> {
        Ok(Snapshot {
            requests: field(v, "requests")?,
            decide_requests: field(v, "decide_requests")?,
            // Absent in snapshots from daemons that answered every
            // request on a handler thread.
            requests_inline: opt_field(v, "requests_inline")?.unwrap_or(0),
            // Tolerant decode for counters that some daemon generations
            // omit: a snapshot from an older (or minimally-configured)
            // daemon must parse, with absent counters reading as zero.
            // Requiring these used to reject otherwise-valid snapshots.
            negative_gated: opt_field(v, "negative_gated")?.unwrap_or(0),
            cache_hits: field(v, "cache_hits")?,
            cache_misses: field(v, "cache_misses")?,
            cache_evictions: field(v, "cache_evictions")?,
            coalesced: opt_field(v, "coalesced")?.unwrap_or(0),
            computed: field(v, "computed")?,
            queue_high_water: opt_field(v, "queue_high_water")?.unwrap_or(0),
            // Absent in snapshots from pre-parallel-engine daemons.
            solver_boxes: opt_field(v, "solver_boxes")?.unwrap_or(0),
            solver_micros: opt_field(v, "solver_micros")?.unwrap_or(0),
            // Absent in snapshots from pre-fault-tolerance daemons.
            worker_respawns: opt_field(v, "worker_respawns")?.unwrap_or(0),
            shed_requests: opt_field(v, "shed_requests")?.unwrap_or(0),
            deadline_exceeded: opt_field(v, "deadline_exceeded")?.unwrap_or(0),
            // Absent in snapshots from pre-reactor daemons.
            connections_open: opt_field(v, "connections_open")?.unwrap_or(0),
            connections_accepted: opt_field(v, "connections_accepted")?.unwrap_or(0),
            connections_evicted_idle: opt_field(v, "connections_evicted_idle")?.unwrap_or(0),
            connections_evicted_overflow: opt_field(v, "connections_evicted_overflow")?
                .unwrap_or(0),
            backpressure_stalls: opt_field(v, "backpressure_stalls")?.unwrap_or(0),
            read_buffer_high_water: opt_field(v, "read_buffer_high_water")?.unwrap_or(0),
            write_buffer_high_water: opt_field(v, "write_buffer_high_water")?.unwrap_or(0),
            // Absent in snapshots from pre-overload-control daemons.
            admission_rejects_deadline: opt_field(v, "admission_rejects_deadline")?.unwrap_or(0),
            admission_rejects_limit: opt_field(v, "admission_rejects_limit")?.unwrap_or(0),
            admission_rejects_fairness: opt_field(v, "admission_rejects_fairness")?.unwrap_or(0),
            admission_rejects_degraded: opt_field(v, "admission_rejects_degraded")?.unwrap_or(0),
            admission_limit: opt_field(v, "admission_limit")?.unwrap_or(0),
            admission_wait_ewma_micros: opt_field(v, "admission_wait_ewma_micros")?.unwrap_or(0),
            degradation_mode: opt_field(v, "degradation_mode")?.unwrap_or(0),
            drain_micros: opt_field(v, "drain_micros")?.unwrap_or(0),
            // Absent in snapshots from pre-budget daemons: every budget
            // and risk member decodes to its zero state, and the absent
            // histogram reads as all-empty buckets so a decoded legacy
            // snapshot compares equal to a fresh registry's.
            budget_exhausted_denials: opt_field(v, "budget_exhausted_denials")?.unwrap_or(0),
            budget_warnings: opt_field(v, "budget_warnings")?.unwrap_or(0),
            budget_spent_high_water_micros: opt_field(v, "budget_spent_high_water_micros")?
                .unwrap_or(0),
            risk_count: opt_field(v, "risk_count")?.unwrap_or(0),
            risk_sum_micros: opt_field(v, "risk_sum_micros")?.unwrap_or(0),
            risk_buckets: opt_field(v, "risk_buckets")?.unwrap_or_else(|| vec![0; RISK_BUCKETS]),
            pool_workers: opt_field(v, "pool_workers")?.unwrap_or(0),
            pool_steals: opt_field(v, "pool_steals")?.unwrap_or(0),
            // Absent in snapshots from pre-arena daemons.
            pool_arena_checkouts: opt_field(v, "pool_arena_checkouts")?.unwrap_or(0),
            pool_arena_misses: opt_field(v, "pool_arena_misses")?.unwrap_or(0),
            pool_arena_high_water_bytes: opt_field(v, "pool_arena_high_water_bytes")?.unwrap_or(0),
            pool_waves_sequential: opt_field(v, "pool_waves_sequential")?.unwrap_or(0),
            pool_waves_parallel: opt_field(v, "pool_waves_parallel")?.unwrap_or(0),
            // Absent in snapshots from pre-batching daemons.
            pool_batch_sweeps: opt_field(v, "pool_batch_sweeps")?.unwrap_or(0),
            pool_soa_high_water_bytes: opt_field(v, "pool_soa_high_water_bytes")?.unwrap_or(0),
            trace_spans: opt_field(v, "trace_spans")?.unwrap_or(0),
            trace_dropped: opt_field(v, "trace_dropped")?.unwrap_or(0),
            slow_decisions: opt_field(v, "slow_decisions")?.unwrap_or(0),
            // Absent in snapshots from pre-persistence daemons.
            wal_appends: opt_field(v, "wal_appends")?.unwrap_or(0),
            wal_bytes: opt_field(v, "wal_bytes")?.unwrap_or(0),
            wal_fsyncs: opt_field(v, "wal_fsyncs")?.unwrap_or(0),
            snapshot_count: opt_field(v, "snapshot_count")?.unwrap_or(0),
            recovery_replayed_records: opt_field(v, "recovery_replayed_records")?.unwrap_or(0),
            recovery_millis: opt_field(v, "recovery_millis")?.unwrap_or(0),
            stages: field(v, "stages")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_lands_in_the_right_bucket() {
        let m = Metrics::new();
        m.record_decision(Some(Stage::Cancellation), 1); // bucket 0
        m.record_decision(Some(Stage::Cancellation), 5); // bucket 2: [4,8)
        m.record_decision(None, u64::MAX); // catch-all
        let snap = m.snapshot();
        let cancel = &snap.stages[3];
        assert_eq!(cancel.count, 2);
        assert_eq!(cancel.buckets[0], 1);
        assert_eq!(cancel.buckets[2], 1);
        let refute = &snap.stages[6];
        assert_eq!(refute.stage, "refutation_search");
        assert_eq!(refute.buckets[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn zero_micros_counts_as_fastest_bucket() {
        let m = Metrics::new();
        m.record_decision(Some(Stage::Unconditional), 0);
        assert_eq!(m.snapshot().stages[0].buckets[0], 1);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let m = Metrics::new();
        Metrics::incr(&m.requests);
        Metrics::incr(&m.cache_hits);
        m.observe_queue_depth(17);
        m.record_decision(Some(Stage::BranchAndBound), 900);
        m.record_solver_work(4096, 2_000_000);
        let snap = m.snapshot();
        let back = Snapshot::from_json(&Json::parse(&snap.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.queue_high_water, 17);
        assert!((back.cache_hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(back.solver_boxes, 4096);
        assert!((back.boxes_per_sec() - 2048.0).abs() < 1e-9);
    }

    #[test]
    fn pre_parallel_snapshots_default_solver_fields_to_zero() {
        // A snapshot serialized by a daemon that predates the parallel
        // engine has no solver/pool fields — and one from a minimal
        // daemon generation may also omit `negative_gated`, `coalesced`
        // and `queue_high_water`. All must decode to zero, not reject.
        let snap = Metrics::new().snapshot();
        let mut v = Json::parse(&snap.to_json().render()).unwrap();
        if let Json::Obj(fields) = &mut v {
            fields.retain(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "negative_gated"
                        | "coalesced"
                        | "queue_high_water"
                        | "solver_boxes"
                        | "solver_micros"
                        | "worker_respawns"
                        | "shed_requests"
                        | "deadline_exceeded"
                        | "connections_open"
                        | "connections_accepted"
                        | "connections_evicted_idle"
                        | "connections_evicted_overflow"
                        | "backpressure_stalls"
                        | "read_buffer_high_water"
                        | "write_buffer_high_water"
                        | "admission_rejects_deadline"
                        | "admission_rejects_limit"
                        | "admission_rejects_fairness"
                        | "admission_rejects_degraded"
                        | "admission_limit"
                        | "admission_wait_ewma_micros"
                        | "degradation_mode"
                        | "drain_micros"
                        | "budget_exhausted_denials"
                        | "budget_warnings"
                        | "budget_spent_high_water_micros"
                        | "risk_count"
                        | "risk_sum_micros"
                        | "risk_buckets"
                        | "pool_workers"
                        | "requests_inline"
                        | "pool_steals"
                        | "pool_arena_checkouts"
                        | "pool_arena_misses"
                        | "pool_arena_high_water_bytes"
                        | "pool_waves_sequential"
                        | "pool_waves_parallel"
                        | "pool_batch_sweeps"
                        | "pool_soa_high_water_bytes"
                        | "trace_spans"
                        | "trace_dropped"
                        | "slow_decisions"
                        | "wal_appends"
                        | "wal_bytes"
                        | "wal_fsyncs"
                        | "snapshot_count"
                        | "recovery_replayed_records"
                        | "recovery_millis"
                        | "cache_hit_rate"
                        | "boxes_per_sec"
                )
            });
        }
        let back = Snapshot::from_json(&v).unwrap();
        assert_eq!(back.negative_gated, 0);
        assert_eq!(back.requests_inline, 0);
        assert_eq!(back.connections_open, 0);
        assert_eq!(back.admission_rejects_deadline, 0);
        assert_eq!(back.admission_rejects_limit, 0);
        assert_eq!(back.admission_rejects_fairness, 0);
        assert_eq!(back.admission_rejects_degraded, 0);
        assert_eq!(back.admission_limit, 0);
        assert_eq!(back.admission_wait_ewma_micros, 0);
        assert_eq!(back.degradation_mode, 0);
        assert_eq!(back.drain_micros, 0);
        assert_eq!(back.connections_accepted, 0);
        assert_eq!(back.backpressure_stalls, 0);
        assert_eq!(back.read_buffer_high_water, 0);
        assert_eq!(back.coalesced, 0);
        assert_eq!(back.queue_high_water, 0);
        assert_eq!(back.solver_boxes, 0);
        assert_eq!(back.pool_workers, 0);
        assert_eq!(back.trace_spans, 0);
        assert_eq!(back.slow_decisions, 0);
        assert_eq!(back.pool_arena_checkouts, 0);
        assert_eq!(back.pool_waves_sequential, 0);
        assert_eq!(back.wal_appends, 0);
        assert_eq!(back.wal_fsyncs, 0);
        assert_eq!(back.snapshot_count, 0);
        assert_eq!(back.recovery_replayed_records, 0);
        assert_eq!(back.recovery_millis, 0);
        assert_eq!(back.boxes_per_sec(), 0.0);
        assert_eq!(back.budget_exhausted_denials, 0);
        assert_eq!(back.budget_warnings, 0);
        assert_eq!(back.budget_spent_high_water_micros, 0);
        assert_eq!(back.risk_count, 0);
        assert_eq!(back.risk_buckets, vec![0; RISK_BUCKETS]);

        // A daemon from before the best-first queue was retired also
        // sent two pool-queue counters, and one from before scoped tasks
        // were retired a task counter; their keys are ignored.
        if let Json::Obj(fields) = &mut v {
            fields.push(("pool_queue_waits".into(), Json::from(7u64)));
            fields.push(("pool_queue_wait_micros".into(), Json::from(31_000u64)));
            fields.push(("pool_tasks".into(), Json::from(4u64)));
        }
        assert_eq!(Snapshot::from_json(&v).unwrap(), back);
    }

    #[test]
    fn pre_budget_snapshots_default_budget_and_risk_fields_to_zero() {
        // Regression (PR 9): a snapshot line from a pre-budget daemon
        // carries none of the budget/risk members; it must parse with
        // every one of them zero-defaulted, exactly like the
        // negative_gated/coalesced defaults above.
        let snap = Metrics::new().snapshot();
        let mut v = Json::parse(&snap.to_json().render()).unwrap();
        if let Json::Obj(fields) = &mut v {
            fields.retain(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "budget_exhausted_denials"
                        | "budget_warnings"
                        | "budget_spent_high_water_micros"
                        | "risk_count"
                        | "risk_sum_micros"
                        | "risk_buckets"
                )
            });
        }
        let back = Snapshot::from_json(&v).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn risk_scores_land_in_tenth_buckets() {
        let m = Metrics::new();
        m.record_risk(0); // bucket 0
        m.record_risk(99_999); // bucket 0
        m.record_risk(100_000); // bucket 1
        m.record_risk(950_000); // bucket 9
        m.record_risk(1_000_000); // bucket 9 (owns 1.0)
        m.record_risk(u64::MAX); // clamped, bucket 9
        let snap = m.snapshot();
        assert_eq!(snap.risk_count, 6);
        assert_eq!(snap.risk_buckets[0], 2);
        assert_eq!(snap.risk_buckets[1], 1);
        assert_eq!(snap.risk_buckets[9], 3);
        assert_eq!(snap.risk_sum_micros, 99_999 + 100_000 + 950_000 + 2_000_000);
        let text = snap.render_prometheus();
        assert!(text.contains("epi_decision_risk_bucket{le=\"0.1\"} 2"));
        assert!(text.contains("epi_decision_risk_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("epi_decision_risk_count 6"));
    }

    #[test]
    fn exact_powers_of_two_land_in_their_own_bucket() {
        // Bucket `k` covers [2^k, 2^(k+1)): the lower boundary 2^k must
        // land in bucket k, and 2^k - 1 in bucket k-1.
        for k in 1..LATENCY_BUCKETS - 1 {
            let m = Metrics::new();
            m.record_decision(Some(Stage::BranchAndBound), 1u64 << k);
            m.record_decision(Some(Stage::BranchAndBound), (1u64 << k) - 1);
            let buckets = &m.snapshot().stages[5].buckets;
            assert_eq!(buckets[k], 1, "2^{k} must land in bucket {k}");
            assert_eq!(buckets[k - 1], 1, "2^{k}-1 must land in bucket {}", k - 1);
        }
    }

    #[test]
    fn last_bucket_saturates() {
        // 2^(LATENCY_BUCKETS-1) is the first latency the catch-all
        // bucket owns; everything above stays there instead of indexing
        // out of bounds.
        let m = Metrics::new();
        let edge = 1u64 << (LATENCY_BUCKETS - 1);
        m.record_decision(Some(Stage::Monotonicity), edge - 1);
        m.record_decision(Some(Stage::Monotonicity), edge);
        m.record_decision(Some(Stage::Monotonicity), edge * 2);
        m.record_decision(Some(Stage::Monotonicity), u64::MAX);
        let buckets = &m.snapshot().stages[2].buckets;
        assert_eq!(buckets[LATENCY_BUCKETS - 2], 1);
        assert_eq!(buckets[LATENCY_BUCKETS - 1], 3);
    }

    #[test]
    fn connection_gauges_track_accepts_and_closes() {
        let m = Metrics::new();
        for _ in 0..3 {
            Metrics::incr(&m.connections_accepted);
            Metrics::incr(&m.connections_open);
        }
        Metrics::decr(&m.connections_open);
        Metrics::observe_high_water(&m.read_buffer_high_water, 512);
        Metrics::observe_high_water(&m.read_buffer_high_water, 128); // no regression
        let snap = m.snapshot();
        assert_eq!(snap.connections_accepted, 3);
        assert_eq!(snap.connections_open, 2);
        assert_eq!(snap.read_buffer_high_water, 512);
        // The gauge saturates rather than wrapping if decrements race a
        // fresh registry.
        let m2 = Metrics::new();
        Metrics::decr(&m2.connections_open);
        assert_eq!(m2.snapshot().connections_open, 0);
        let back = Snapshot::from_json(&Json::parse(&snap.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_with_trace_fields_roundtrips() {
        let m = Metrics::new();
        Metrics::incr(&m.requests);
        m.record_decision(Some(Stage::Unconditional), 3);
        let mut snap = m.snapshot();
        // The service layer fills these from the trace recorder.
        snap.trace_spans = 12;
        snap.trace_dropped = 4;
        snap.slow_decisions = 2;
        // …and these from the disclosure log.
        snap.wal_appends = 40;
        snap.wal_bytes = 4_096;
        snap.wal_fsyncs = 9;
        snap.snapshot_count = 1;
        snap.recovery_replayed_records = 25;
        snap.recovery_millis = 3;
        // …and these from the admission controller and drain path.
        snap.admission_rejects_deadline = 6;
        snap.admission_rejects_limit = 11;
        snap.admission_rejects_fairness = 2;
        snap.admission_rejects_degraded = 1;
        snap.admission_limit = 48;
        snap.admission_wait_ewma_micros = 1_750;
        snap.degradation_mode = 2;
        snap.drain_micros = 81_000;
        // …and these from the budget ledger path.
        snap.budget_exhausted_denials = 3;
        snap.budget_warnings = 5;
        snap.budget_spent_high_water_micros = 1_900_000;
        let back = Snapshot::from_json(&Json::parse(&snap.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.admission_rejects_limit, 11);
        assert_eq!(back.degradation_mode, 2);
        assert_eq!(back.drain_micros, 81_000);
        assert_eq!(back.trace_spans, 12);
        assert_eq!(back.slow_decisions, 2);
        assert_eq!(back.wal_appends, 40);
        assert_eq!(back.recovery_replayed_records, 25);
        assert_eq!(back.budget_exhausted_denials, 3);
        assert_eq!(back.budget_warnings, 5);
        assert_eq!(back.budget_spent_high_water_micros, 1_900_000);
    }

    #[test]
    fn prometheus_exposition_covers_all_counters_and_stages() {
        let m = Metrics::new();
        Metrics::incr(&m.requests);
        Metrics::incr(&m.cache_hits);
        m.observe_queue_depth(5);
        m.record_decision(Some(Stage::BranchAndBound), 900); // bucket 9: [512, 1024)
        m.record_decision(None, 10);
        let mut snap = m.snapshot();
        snap.trace_spans = 3;
        let text = snap.render_prometheus();
        for name in [
            "epi_requests_total",
            "epi_requests_inline_total",
            "epi_decide_requests_total",
            "epi_negative_gated_total",
            "epi_cache_hits_total",
            "epi_cache_misses_total",
            "epi_cache_evictions_total",
            "epi_coalesced_total",
            "epi_computed_total",
            "epi_solver_boxes_total",
            "epi_solver_micros_total",
            "epi_worker_respawns_total",
            "epi_shed_requests_total",
            "epi_deadline_exceeded_total",
            "epi_connections_accepted_total",
            "epi_connections_evicted_idle_total",
            "epi_connections_evicted_overflow_total",
            "epi_backpressure_stalls_total",
            "epi_pool_steals_total",
            "epi_pool_arena_checkouts_total",
            "epi_pool_arena_misses_total",
            "epi_pool_waves_sequential_total",
            "epi_pool_waves_parallel_total",
            "epi_pool_batch_sweeps_total",
            "epi_trace_spans_total",
            "epi_trace_dropped_total",
            "epi_slow_decisions_total",
            "epi_wal_appends_total",
            "epi_wal_bytes_total",
            "epi_wal_fsyncs_total",
            "epi_snapshots_total",
            "epi_admission_rejects_deadline_total",
            "epi_admission_rejects_limit_total",
            "epi_admission_rejects_fairness_total",
            "epi_admission_rejects_degraded_total",
            "epi_budget_exhausted_denials_total",
            "epi_budget_warnings_total",
            "epi_budget_spent_high_water_micros",
            "epi_decision_risk",
            "epi_admission_limit",
            "epi_admission_wait_ewma_micros",
            "epi_degradation_mode",
            "epi_drain_micros",
            "epi_queue_high_water",
            "epi_connections_open",
            "epi_read_buffer_high_water",
            "epi_write_buffer_high_water",
            "epi_pool_workers",
            "epi_pool_arena_high_water_bytes",
            "epi_pool_soa_high_water_bytes",
            "epi_recovery_replayed_records",
            "epi_recovery_millis",
        ] {
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "missing {name} in exposition:\n{text}"
            );
        }
        // All 7 stage histograms appear with cumulative buckets.
        for label in STAGE_LABELS {
            assert!(
                text.contains(&format!(
                    "epi_stage_latency_micros_count{{stage=\"{label}\"}}"
                )),
                "missing stage {label}"
            );
            assert!(text.contains(&format!(
                "epi_stage_latency_micros_bucket{{stage=\"{label}\",le=\"+Inf\"}}"
            )));
        }
        // 900 µs lands in [512, 1024): cumulative count at le="1024" is 1,
        // at le="512" still 0.
        assert!(text
            .contains("epi_stage_latency_micros_bucket{stage=\"branch_and_bound\",le=\"512\"} 0"));
        assert!(text
            .contains("epi_stage_latency_micros_bucket{stage=\"branch_and_bound\",le=\"1024\"} 1"));
        assert!(text
            .contains("epi_stage_latency_micros_bucket{stage=\"branch_and_bound\",le=\"+Inf\"} 1"));
        assert!(text.contains("epi_stage_latency_micros_sum{stage=\"branch_and_bound\"} 900"));
        assert!(text.contains("epi_trace_spans_total 3"));
    }
}
