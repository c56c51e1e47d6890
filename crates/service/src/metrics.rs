//! Lock-free metrics registry for the auditing daemon.
//!
//! Counters are plain relaxed atomics: the daemon's hot path (cache
//! lookups, queue operations) only ever does `fetch_add`, and a
//! [`Snapshot`] is an unsynchronised read of all of them — fine for
//! monitoring, where a counter being one tick stale is irrelevant.
//! Per-stage latency is a power-of-two histogram in microseconds, one
//! histogram per pipeline [`Stage`] plus one slot for decisions made
//! outside the pipeline (the log-supermodular refutation search).
//!
//! Every scalar metric is declared once, as one row of the
//! `metrics_table!` invocation below: its JSON key (also the field
//! name), Prometheus name, kind, help text, whether a legacy snapshot
//! may omit it, and where its value comes from — a registry atomic, or
//! a value its owner keeps and a snapshot folds in (`Folded`). The
//! table generates the [`Metrics`] atomics, [`Metrics::snapshot`], the
//! [`Snapshot`] struct, its JSON form and the scalar half of
//! [`Snapshot::render_prometheus`]. Only the two histograms (risk and
//! per-stage latency) are written out by hand.

use crate::admission::{AdmissionController, DegradationMode};
use epi_json::{field, opt_field, Deserialize, Json, JsonError, Serialize};
use epi_solver::Stage;
use epi_trace::Recorder;
use epi_wal::{RecoveryReport, WalStats};
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

/// Prometheus metric type of a table row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// How [`Snapshot::from_json`] treats a snapshot that lacks a row's key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Legacy {
    /// Every daemon generation sends it; a snapshot without it is
    /// rejected.
    Required,
    /// Older (or minimally configured) daemons omit it; absent reads as
    /// zero.
    Zero,
}

/// One scalar row of the metrics table.
struct Row {
    /// JSON key, and the field name on [`Metrics`] and [`Snapshot`].
    key: &'static str,
    prom: &'static str,
    kind: Kind,
    help: &'static str,
    legacy: Legacy,
}

/// The values a snapshot folds in from outside the registry. Each is
/// kept by its owner — the solver pool, the trace ring, the disclosure
/// log, the startup recovery, the admission controller and the
/// degradation ladder — so it has no registry atomic. A bare registry
/// knows only the solver pool's; the service supplies the rest.
pub(crate) struct Folded<'a> {
    pub(crate) par: epi_par::StatsSnapshot,
    pub(crate) pool_threads: u64,
    pub(crate) tracer: Option<&'a Recorder>,
    pub(crate) wal: Option<WalStats>,
    pub(crate) recovery: Option<&'a RecoveryReport>,
    pub(crate) admission: Option<&'a AdmissionController>,
    pub(crate) mode: Option<DegradationMode>,
}

impl Folded<'_> {
    /// The process-wide solver pool's statistics (read once) and
    /// nothing else.
    pub(crate) fn solver_pool() -> Folded<'static> {
        Folded {
            par: epi_par::stats(),
            pool_threads: epi_par::Pool::global().threads() as u64,
            tracer: None,
            wal: None,
            recovery: None,
            admission: None,
            mode: None,
        }
    }
}

fn fold<'a>(folded: &Folded<'a>, read: impl Fn(&Folded<'a>) -> u64) -> u64 {
    read(folded)
}

/// Reads a JSON member that legacy snapshots may omit, as zero when
/// absent.
fn zero_default(v: &Json, key: &str) -> Result<u64, JsonError> {
    Ok(opt_field(v, key)?.unwrap_or(0))
}

/// Expands the table. A row reads
/// `key: Kind "prometheus_name" Legacy source "help";` where `source`
/// is `registry` (an atomic on [`Metrics`]) or a parenthesised closure
/// over [`Folded`]. `@risk_histogram;` marks where the risk histogram's
/// members sit in the JSON object.
macro_rules! metrics_table {
    (
        $( $(#[doc = $hdoc:literal])* $hkey:ident: $hkind:ident $hprom:literal $hlegacy:ident $hsrc:tt $hhelp:literal; )*
        @risk_histogram;
        $( $(#[doc = $tdoc:literal])* $tkey:ident: $tkind:ident $tprom:literal $tlegacy:ident $tsrc:tt $thelp:literal; )*
    ) => {
        metrics_table!(@emit [$($hkey)*]
            $( $(#[doc = $hdoc])* $hkey: $hkind $hprom $hlegacy $hsrc $hhelp; )*
            $( $(#[doc = $tdoc])* $tkey: $tkind $tprom $tlegacy $tsrc $thelp; )*);
    };
    (@emit [$($head:ident)*]
        $( $(#[doc = $doc:literal])* $key:ident: $kind:ident $prom:literal $legacy:ident $src:tt $help:literal; )*
    ) => {
        /// The table's rows, in JSON order.
        const ROWS: [Row; [$(stringify!($key)),*].len()] = [$(Row {
            key: stringify!($key),
            prom: $prom,
            kind: Kind::$kind,
            help: $help,
            legacy: Legacy::$legacy,
        }),*];

        /// Index in [`ROWS`] before which the risk histogram's JSON
        /// members go.
        const RISK_AT: usize = [$(stringify!($head)),*].len();

        metrics_table!(@registry [] $( $(#[doc = $doc])* $key $help $src; )*);

        /// A point-in-time copy of [`Metrics`] — what the `stats`
        /// protocol operation returns.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct Snapshot {
            $( #[doc = $help] $(#[doc = $doc])* pub $key: u64, )*
            /// Decisions scored into the risk histogram.
            pub risk_count: u64,
            /// Total risk across scored decisions, micro-units.
            pub risk_sum_micros: u64,
            /// Tenth-of-risk histogram buckets (`[k/10, (k+1)/10)`, last
            /// bucket owns 1.0).
            pub risk_buckets: Vec<u64>,
            /// Per-stage decision counts and latency histograms.
            pub stages: Vec<StageSnapshot>,
        }

        impl Metrics {
            /// The table's values, in row order: each registry row's
            /// atomic, each folded row's value from `folded`.
            fn read_rows(&self, folded: &Folded<'_>) -> [u64; ROWS.len()] {
                [$( metrics_table!(@read self, folded, $key, $src) ),*]
            }
        }

        impl Snapshot {
            /// The table's values, in row order.
            fn values(&self) -> [u64; ROWS.len()] {
                [$(self.$key),*]
            }

            fn from_values(
                values: [u64; ROWS.len()],
                risk_count: u64,
                risk_sum_micros: u64,
                risk_buckets: Vec<u64>,
                stages: Vec<StageSnapshot>,
            ) -> Snapshot {
                let [$($key),*] = values;
                Snapshot {
                    $($key,)*
                    risk_count,
                    risk_sum_micros,
                    risk_buckets,
                    stages,
                }
            }
        }
    };
    (@registry [$($field:tt)*]) => {
        /// The daemon's counters. One instance is shared (behind an
        /// `Arc`) by the session store, cache, worker pool and server.
        #[derive(Default)]
        pub struct Metrics {
            $($field)*
            /// Per-decision risk histogram: decisions scored, total risk
            /// in micro-units, and tenth-of-risk buckets.
            risk_count: AtomicU64,
            risk_sum_micros: AtomicU64,
            risk_buckets: [AtomicU64; RISK_BUCKETS],
            stages: [StageStats; STAGE_SLOTS],
        }
    };
    (@registry [$($field:tt)*] $(#[doc = $doc:literal])* $key:ident $help:literal registry; $($rest:tt)*) => {
        metrics_table!(@registry [$($field)* #[doc = $help] $(#[doc = $doc])* pub $key: AtomicU64,] $($rest)*);
    };
    (@registry [$($field:tt)*] $(#[doc = $doc:literal])* $key:ident $help:literal $src:tt; $($rest:tt)*) => {
        metrics_table!(@registry [$($field)*] $($rest)*);
    };
    (@read $metrics:expr, $folded:expr, $key:ident, registry) => {
        $metrics.$key.load(Ordering::Relaxed)
    };
    (@read $metrics:expr, $folded:expr, $key:ident, $src:tt) => {
        fold($folded, $src)
    };
}

metrics_table! {
    requests: Counter "epi_requests_total" Required registry
        "Protocol requests handled.";
    /// A subset of `requests`.
    requests_inline: Counter "epi_requests_inline_total" Zero registry
        "Requests the reactor answered without a handler thread.";
    /// Disclose/cumulative requests past the negative-result gate.
    decide_requests: Counter "epi_decide_requests_total" Required registry
        "Requests that needed a safety decision.";
    /// Answered `Safe` because the audited property was false at
    /// disclosure time — no solver work at all.
    negative_gated: Counter "epi_negative_gated_total" Zero registry
        "Disclosures short-circuited by the negative-result rule.";
    cache_hits: Counter "epi_cache_hits_total" Required registry
        "Verdict-cache hits.";
    cache_misses: Counter "epi_cache_misses_total" Required registry
        "Verdict-cache misses.";
    cache_evictions: Counter "epi_cache_evictions_total" Required registry
        "Verdict-cache evictions.";
    coalesced: Counter "epi_coalesced_total" Zero registry
        "Decisions coalesced onto an in-flight computation.";
    computed: Counter "epi_computed_total" Required registry
        "Decisions computed by workers.";
    queue_high_water: Gauge "epi_queue_high_water" Zero registry
        "Worker-queue depth high-water mark.";
    solver_boxes: Counter "epi_solver_boxes_total" Zero registry
        "Branch-and-bound boxes committed across computed decisions.";
    /// Criterion-only decisions are excluded, so boxes/sec stays honest.
    solver_micros: Counter "epi_solver_micros_total" Zero registry
        "Wall micros of decisions that ran the branch-and-bound.";
    /// Each one is a logical worker respawn.
    worker_respawns: Counter "epi_worker_respawns_total" Zero registry
        "Worker iterations that recovered from a solver panic.";
    /// The decision queue was full in shed mode.
    shed_requests: Counter "epi_shed_requests_total" Zero registry
        "Requests shed with `overloaded` under queue pressure.";
    /// Always reported as *not* safe.
    deadline_exceeded: Counter "epi_deadline_exceeded_total" Zero registry
        "Decisions undecided because of deadline expiry or shutdown.";
    /// Incremented on accept, decremented on close.
    connections_open: Gauge "epi_connections_open" Zero registry
        "Currently open TCP connections.";
    connections_accepted: Counter "epi_connections_accepted_total" Zero registry
        "TCP connections accepted since startup.";
    /// Fully idle past the idle timeout, or dribbling a started frame
    /// past the frame deadline.
    connections_evicted_idle: Counter "epi_connections_evicted_idle_total" Zero registry
        "Connections evicted for idle/frame-deadline inactivity.";
    connections_evicted_overflow: Counter "epi_connections_evicted_overflow_total" Zero registry
        "Connections evicted for overflow (connection cap or write-queue hard limit).";
    /// A full write queue, a full dispatch queue, or the in-flight cap.
    backpressure_stalls: Counter "epi_backpressure_stalls_total" Zero registry
        "Read pauses triggered by per-connection backpressure.";
    read_buffer_high_water: Gauge "epi_read_buffer_high_water" Zero registry
        "High-water mark of any single connection's read buffer, bytes.";
    write_buffer_high_water: Gauge "epi_write_buffer_high_water" Zero registry
        "High-water mark of any single connection's write queue, bytes.";
    /// Doomed work is never enqueued.
    admission_rejects_deadline: Counter "epi_admission_rejects_deadline_total" Zero registry
        "Requests rejected at admission: queue wait exceeded deadline.";
    admission_rejects_limit: Counter "epi_admission_rejects_limit_total" Zero registry
        "Requests rejected at admission by the adaptive concurrency limit.";
    admission_rejects_fairness: Counter "epi_admission_rejects_fairness_total" Zero registry
        "Requests rejected by the per-user fairness token bucket.";
    /// An uncached decision in `cache_only`, or a disclosure in `frozen`
    /// (the log is quarantined or stalled).
    admission_rejects_degraded: Counter "epi_admission_rejects_degraded_total" Zero registry
        "Requests refused in cache_only/frozen degradation modes.";
    admission_limit: Gauge "epi_admission_limit" Zero
        (|f| f.admission.map_or(0, |a| a.limit() as u64))
        "Current adaptive admission limit (concurrently admitted decisions).";
    admission_wait_ewma_micros: Gauge "epi_admission_wait_ewma_micros" Zero
        (|f| f.admission.map_or(0, AdmissionController::estimated_wait_micros))
        "EWMA of decision-queue wait, microseconds.";
    degradation_mode: Gauge "epi_degradation_mode" Zero
        (|f| f.mode.map_or(0, DegradationMode::as_gauge))
        "Degradation-ladder mode (0 normal, 1 shedding, 2 cache_only, 3 frozen).";
    /// Zero until a drain runs.
    drain_micros: Gauge "epi_drain_micros" Zero registry
        "Wall microseconds the last graceful drain took.";
    /// O(1) fast path; never enqueued to the solver.
    budget_exhausted_denials: Counter "epi_budget_exhausted_denials_total" Zero registry
        "Disclosures refused by the exposure-budget deny threshold.";
    /// Still served.
    budget_warnings: Counter "epi_budget_warnings_total" Zero registry
        "Disclosures that crossed the exposure-budget warn threshold.";
    budget_spent_high_water_micros: Gauge "epi_budget_spent_high_water_micros" Zero registry
        "Largest per-user exposure-budget spend seen, micro-units.";
    @risk_histogram;
    pool_workers: Gauge "epi_pool_workers" Zero (|f| f.pool_threads)
        "Worker threads in the process-wide solver pool.";
    /// Process lifetime, like every `pool_*` counter.
    pool_steals: Counter "epi_pool_steals_total" Zero (|f| f.par.steals)
        "Work-stealing events in the solver pool.";
    pool_arena_checkouts: Counter "epi_pool_arena_checkouts_total" Zero
        (|f| f.par.arena_checkouts)
        "Solver arena buffer checkouts.";
    /// Flat while `pool_arena_checkouts` climbs means the
    /// zero-allocation hot path is holding.
    pool_arena_misses: Counter "epi_pool_arena_misses_total" Zero (|f| f.par.arena_misses)
        "Arena checkouts that had to allocate.";
    pool_arena_high_water_bytes: Gauge "epi_pool_arena_high_water_bytes" Zero
        (|f| f.par.arena_high_water_bytes)
        "High-water mark of bytes parked in the solver buffer pools.";
    pool_waves_sequential: Counter "epi_pool_waves_sequential_total" Zero
        (|f| f.par.waves_sequential)
        "Frontier waves kept sequential by the chunk policy.";
    pool_waves_parallel: Counter "epi_pool_waves_parallel_total" Zero
        (|f| f.par.waves_parallel)
        "Frontier waves fanned out by the chunk policy.";
    pool_batch_sweeps: Counter "epi_pool_batch_sweeps_total" Zero (|f| f.par.batch_sweeps)
        "Batched structure-of-arrays kernel sweeps run by the wave engine.";
    /// Midpoints, split axes and survivor indices staged at once.
    pool_soa_high_water_bytes: Gauge "epi_pool_soa_high_water_bytes" Zero
        (|f| f.par.soa_staged_high_water_bytes)
        "High-water mark of bytes staged in the wave engine's SoA buffers.";
    trace_spans: Counter "epi_trace_spans_total" Zero
        (|f| f.tracer.map_or(0, Recorder::spans_recorded))
        "Spans recorded into the trace ring.";
    trace_dropped: Counter "epi_trace_dropped_total" Zero
        (|f| f.tracer.map_or(0, Recorder::spans_dropped))
        "Trace-ring spans overwritten by newer ones.";
    slow_decisions: Counter "epi_slow_decisions_total" Zero
        (|f| f.tracer.map_or(0, Recorder::slow_total))
        "Spans that crossed the slow-decision threshold.";
    /// Zero when the daemon runs without a data directory, like every
    /// disclosure-log row.
    wal_appends: Counter "epi_wal_appends_total" Zero (|f| f.wal.map_or(0, |w| w.appends))
        "Records appended to the durable disclosure log.";
    wal_bytes: Counter "epi_wal_bytes_total" Zero (|f| f.wal.map_or(0, |w| w.bytes))
        "Bytes written to the disclosure log, framing included.";
    /// Under group commit this is typically far below `wal_appends`.
    wal_fsyncs: Counter "epi_wal_fsyncs_total" Zero (|f| f.wal.map_or(0, |w| w.fsyncs))
        "fdatasync calls issued by the disclosure log.";
    snapshot_count: Counter "epi_snapshots_total" Zero (|f| f.wal.map_or(0, |w| w.snapshots))
        "Compacted session snapshots written.";
    recovery_replayed_records: Gauge "epi_recovery_replayed_records" Zero
        (|f| f.recovery.map_or(0, |r| r.replayed_records))
        "Log records replayed during the last startup recovery.";
    recovery_millis: Gauge "epi_recovery_millis" Zero (|f| f.recovery.map_or(0, |r| r.millis))
        "Wall milliseconds the last startup recovery took.";
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

    /// Reads every counter into a plain-data snapshot. The values the
    /// service folds in (trace ring, disclosure log, recovery,
    /// admission, ladder) read as zero; `AuditService::metrics` has them.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot_with(&Folded::solver_pool())
    }

    /// Reads every counter into a plain-data snapshot, folding in the
    /// values that `folded` holds.
    pub(crate) fn snapshot_with(&self, folded: &Folded<'_>) -> Snapshot {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Snapshot::from_values(
            self.read_rows(folded),
            read(&self.risk_count),
            read(&self.risk_sum_micros),
            self.risk_buckets.iter().map(read).collect(),
            self.stages
                .iter()
                .zip(STAGE_LABELS)
                .map(|(s, label)| StageSnapshot {
                    stage: label.to_owned(),
                    count: read(&s.count),
                    total_micros: read(&s.total_micros),
                    buckets: s.buckets.iter().map(read).collect(),
                })
                .collect(),
        )
    }
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
    /// (version 0.0.4): every counter and gauge of the table, then the
    /// risk histogram and one `epi_stage_latency_micros` histogram series
    /// per pipeline stage with cumulative `le` buckets, `_sum` and
    /// `_count`.
    ///
    /// Bucket `k` of the internal power-of-two histogram counts
    /// latencies in `[2^k, 2^(k+1))` µs, so its exposition upper bound
    /// is `le="2^(k+1)"`; the saturating last bucket maps to `le="+Inf"`
    /// (which, being cumulative, always equals `_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (row, value) in ROWS.iter().zip(self.values()) {
            let (name, help, kind) = (row.prom, row.help, row.kind.as_str());
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
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
        let mut members: Vec<(&str, Json)> = ROWS
            .iter()
            .zip(self.values())
            .map(|(row, value)| (row.key, Json::from(value)))
            .collect();
        members.splice(
            RISK_AT..RISK_AT,
            [
                ("risk_count", Json::from(self.risk_count)),
                ("risk_sum_micros", Json::from(self.risk_sum_micros)),
                ("risk_buckets", self.risk_buckets.to_json()),
            ],
        );
        members.extend([
            // Derived, for dashboards that read the JSON directly; the
            // deserializer recomputes them from the counters.
            ("cache_hit_rate", Json::from(self.cache_hit_rate())),
            ("boxes_per_sec", Json::from(self.boxes_per_sec())),
            ("stages", self.stages.to_json()),
        ]);
        Json::obj(members)
    }
}

impl Deserialize for Snapshot {
    /// Decodes snapshots of every daemon generation: a row marked
    /// `Zero` (and each risk-histogram member) may be absent and reads
    /// as zero, and keys no row names — such as the retired `pool_tasks`
    /// and `pool_queue_*` counters — are ignored.
    fn from_json(v: &Json) -> Result<Snapshot, JsonError> {
        let mut values = [0; ROWS.len()];
        for (value, row) in values.iter_mut().zip(&ROWS) {
            *value = match row.legacy {
                Legacy::Required => field(v, row.key)?,
                Legacy::Zero => zero_default(v, row.key)?,
            };
        }
        Ok(Snapshot::from_values(
            values,
            zero_default(v, "risk_count")?,
            zero_default(v, "risk_sum_micros")?,
            // An absent histogram reads as all-empty buckets, so a
            // decoded legacy snapshot compares equal to a fresh
            // registry's.
            opt_field(v, "risk_buckets")?.unwrap_or_else(|| vec![0; RISK_BUCKETS]),
            field(v, "stages")?,
        ))
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

    /// A snapshot whose every table row holds a distinct non-zero value
    /// (`1000 + row index`), set through the JSON decoder by key so that
    /// no row can be skipped.
    fn distinct_snapshot() -> Snapshot {
        let mut v = Json::parse(&Metrics::new().snapshot().to_json().render()).unwrap();
        let Json::Obj(members) = &mut v else {
            panic!("a snapshot renders as an object")
        };
        for (i, row) in ROWS.iter().enumerate() {
            let (_, value) = members.iter_mut().find(|(k, _)| k == row.key).unwrap();
            *value = Json::from(1_000 + i as u64);
        }
        Snapshot::from_json(&v).unwrap()
    }

    fn row_index(key: &str) -> u64 {
        ROWS.iter().position(|row| row.key == key).unwrap() as u64
    }

    #[test]
    fn every_table_row_roundtrips_in_table_order() {
        let snap = distinct_snapshot();
        // Spot-check the generated field mapping by name.
        assert_eq!(snap.requests, 1_000 + row_index("requests"));
        assert_eq!(snap.admission_limit, 1_000 + row_index("admission_limit"));
        assert_eq!(snap.pool_workers, 1_000 + row_index("pool_workers"));
        assert_eq!(snap.wal_fsyncs, 1_000 + row_index("wal_fsyncs"));
        assert_eq!(snap.recovery_millis, 1_000 + row_index("recovery_millis"));

        let text = snap.to_json().render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(Snapshot::from_json(&parsed).unwrap(), snap);
        let Json::Obj(members) = parsed else {
            panic!("a snapshot renders as an object")
        };
        let rendered: Vec<&str> = members
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| ROWS.iter().any(|row| row.key == *k))
            .collect();
        let table: Vec<&str> = ROWS.iter().map(|row| row.key).collect();
        assert_eq!(rendered, table);
        // The hand-written members keep their places: the risk histogram
        // after the budget rows, the derived rates and stages last.
        let all: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let at = all.iter().position(|k| *k == "risk_count").unwrap();
        assert_eq!(all[at - 1], "budget_spent_high_water_micros");
        assert_eq!(
            all[at..at + 4],
            [
                "risk_count",
                "risk_sum_micros",
                "risk_buckets",
                "pool_workers"
            ]
        );
        assert_eq!(
            all[all.len() - 3..],
            ["cache_hit_rate", "boxes_per_sec", "stages"]
        );

        let prom = snap.render_prometheus();
        for (i, row) in ROWS.iter().enumerate() {
            let (name, kind, value) = (row.prom, row.kind.as_str(), 1_000 + i);
            assert!(prom.contains(&format!("# TYPE {name} {kind}\n")), "{name}");
            assert!(prom.contains(&format!("\n{name} {value}\n")), "{name}");
        }
    }

    #[test]
    fn legacy_snapshots_may_omit_every_row_but_the_required_ones() {
        let text = distinct_snapshot().to_json().render();
        let mut required = Vec::new();
        for row in &ROWS {
            let mut v = Json::parse(&text).unwrap();
            if let Json::Obj(members) = &mut v {
                members.retain(|(k, _)| k != row.key);
            }
            match Snapshot::from_json(&v) {
                Ok(back) => {
                    assert_eq!(row.legacy, Legacy::Zero, "{}", row.key);
                    let i = row_index(row.key) as usize;
                    assert_eq!(back.values()[i], 0, "{} decodes as zero", row.key);
                }
                Err(_) => required.push(row.key),
            }
        }
        assert_eq!(
            required,
            [
                "requests",
                "decide_requests",
                "cache_hits",
                "cache_misses",
                "cache_evictions",
                "computed"
            ]
        );
    }

    #[test]
    fn protocol_doc_names_every_stats_key() {
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let hand_written = [
            "risk_count",
            "risk_sum_micros",
            "risk_buckets",
            "cache_hit_rate",
            "boxes_per_sec",
            "stages",
        ];
        for key in ROWS.iter().map(|row| row.key).chain(hand_written) {
            assert!(
                doc.contains(&format!("`{key}`")),
                "docs/PROTOCOL.md does not document the stats key `{key}`"
            );
        }
    }
}
