//! The in-process core of the auditing daemon.
//!
//! [`AuditService`] owns the schema, the sharded [`SessionStore`], the
//! [`DecisionPool`] and the [`Metrics`]
//! registry, and maps protocol [`Request`]s to [`Response`]s. The TCP
//! server in [`crate::server`] is a thin line-framing layer over
//! [`AuditService::handle_with_meta`], which its reactor runs in two
//! steps — the non-blocking `begin` on the reactor thread and, only
//! when that defers, the blocking `finish` on a handler thread; tests
//! and embedders can call it directly.
//!
//! # Fault tolerance
//!
//! Every request may carry a deadline ([`RequestMeta::deadline_ms`], or
//! [`ServiceConfig::default_deadline_ms`] when absent). Decisions that
//! time out come back as **inconclusive** findings — the fail-closed
//! posture: an auditor that cannot prove safety in time reports the
//! disclosure as unresolved, never as safe. Pool-level failures surface
//! as typed [`Response::Error`]s ([`ErrorCode::Overloaded`],
//! [`ErrorCode::WorkerFailed`], [`ErrorCode::Shutdown`]), and requests
//! carrying an id are de-duplicated so client retries are idempotent:
//! a replayed disclosure neither double-counts the session nor recomputes
//! a settled answer.

use crate::admission::{
    AdmissionController, AdmissionOptions, DegradationLadder, DegradationMode, LadderSignals,
    TokenBuckets,
};
use crate::cache::DecisionKey;
use crate::metrics::{Folded, Metrics, Snapshot};
use crate::proto::{
    BudgetInfo, ErrorCode, HealthInfo, Request, RequestMeta, Response, SessionInfo, WireSpan,
};
use crate::session::{knowledge_digest, ledger_digest, Session, SessionError, SessionStore};
use crate::worker::{DecideError, DecisionPool, FaultHook, QueuePolicy};
use epi_audit::auditor::{EntryKind, ReportEntry};
use epi_audit::query::parse;
use epi_audit::{Auditor, Decision, Finding, PriorAssumption, Query, Schema};
use epi_core::risk::RISK_SCALE;
use epi_core::{CancelToken, Deadline, WorldId, WorldSet};
use epi_solver::ProductSolverOptions;
use epi_trace::{Recorder, SpanRecord};
use epi_wal::{FsyncPolicy, RecoveryReport, Wal, WalConfig, WalError};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Tunables of an [`AuditService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Prior assumption every decision is made under.
    pub assumption: PriorAssumption,
    /// Product-solver options passed to the decision pipeline.
    pub product_options: ProductSolverOptions,
    /// Decision worker threads.
    pub workers: usize,
    /// Bounded decision-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Verdict-cache capacity in entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Session-store shard count.
    pub session_shards: usize,
    /// Deadline applied to requests that do not carry their own
    /// (`None` = unbounded, the pre-fault-tolerance behaviour).
    pub default_deadline_ms: Option<u64>,
    /// What happens when the decision queue is full: block the connection
    /// thread (backpressure) or shed with a retryable error.
    pub queue_policy: QueuePolicy,
    /// Backoff hint attached to [`ErrorCode::Overloaded`] errors.
    pub retry_after_ms: u64,
    /// Request-id de-duplication window, in remembered responses
    /// (`0` disables idempotent retries).
    pub dedupe_capacity: usize,
    /// Span-ring capacity of the request tracer (`0` disables tracing
    /// entirely — every span call becomes a no-op).
    pub trace_capacity: usize,
    /// Decisions (spans) at least this slow, in microseconds, are copied
    /// into the slow-decision log (`None` disables the slow log).
    pub slow_threshold_micros: Option<u64>,
    /// Data directory for the durable disclosure log (`None` = purely
    /// in-memory sessions, the pre-persistence behaviour).
    pub data_dir: Option<PathBuf>,
    /// Fsync policy for disclosure-log appends when `data_dir` is set.
    pub wal_fsync: FsyncPolicy,
    /// Compact the disclosure log into a snapshot after this many
    /// appends (`0` disables snapshotting; the log then only shrinks at
    /// restart).
    pub wal_snapshot_every: u64,
    /// Adaptive admission control for the decision pool (AIMD limit and
    /// deadline-aware enqueue). Enabled by default; the default limits
    /// are wide enough that an unloaded daemon behaves exactly as
    /// before.
    pub admission: AdmissionOptions,
    /// Per-user fairness: sustained disclose/cumulative rate each user
    /// may submit, in requests per second (`0` disables the gate — the
    /// default).
    pub fairness_rate_per_sec: u32,
    /// Per-user fairness burst (bucket capacity) when the gate is on.
    pub fairness_burst: u32,
    /// Freeze threshold for the disclosure log's fsync-duration EWMA, in
    /// microseconds: sustained syncs slower than this flip the
    /// degradation ladder to [`DegradationMode::Frozen`].
    pub freeze_fsync_stall_micros: u64,
    /// Per-user exposure-budget policy (disabled by default).
    pub budget: BudgetOptions,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            assumption: PriorAssumption::Product,
            product_options: ProductSolverOptions::default(),
            workers: 8,
            queue_capacity: 64,
            cache_capacity: 1024,
            session_shards: 16,
            default_deadline_ms: None,
            queue_policy: QueuePolicy::Block,
            retry_after_ms: 50,
            dedupe_capacity: 256,
            trace_capacity: 4096,
            slow_threshold_micros: None,
            data_dir: None,
            wal_fsync: FsyncPolicy::Always,
            wal_snapshot_every: 4096,
            admission: AdmissionOptions::default(),
            fairness_rate_per_sec: 0,
            fairness_burst: 32,
            freeze_fsync_stall_micros: 500_000,
            budget: BudgetOptions::default(),
        }
    }
}

impl ServiceConfig {
    /// Applies durability overrides from the environment, in the same
    /// spirit as `EPI_PAR_*`:
    ///
    /// * `EPI_WAL_DIR` — sets [`ServiceConfig::data_dir`] (empty value
    ///   clears it back to in-memory sessions);
    /// * `EPI_WAL_FSYNC` — `always`, `never`, `interval`, or
    ///   `interval:<millis>` ([`FsyncPolicy::parse`]); unparsable values
    ///   are ignored;
    /// * `EPI_WAL_SNAPSHOT_EVERY` — appends between snapshots
    ///   (`0` disables).
    ///
    /// And budget overrides, `EPI_BUDGET_*`:
    ///
    /// * `EPI_BUDGET_CAP` — exposure-budget cap in risk micro-units
    ///   (`0` disables enforcement, the default);
    /// * `EPI_BUDGET_COMPOSE` — `sum`, `max` or `product`;
    /// * `EPI_BUDGET_WARN` / `EPI_BUDGET_DENY` — warn/deny thresholds
    ///   in micro-units (default 80% of the cap, and the cap).
    ///
    /// Unparsable values are ignored, like the `EPI_WAL_*` family.
    pub fn with_env_overrides(mut self) -> ServiceConfig {
        if let Ok(dir) = std::env::var("EPI_WAL_DIR") {
            self.data_dir = if dir.is_empty() {
                None
            } else {
                Some(PathBuf::from(dir))
            };
        }
        if let Some(policy) = std::env::var("EPI_WAL_FSYNC")
            .ok()
            .as_deref()
            .and_then(FsyncPolicy::parse)
        {
            self.wal_fsync = policy;
        }
        if let Some(every) = std::env::var("EPI_WAL_SNAPSHOT_EVERY")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            self.wal_snapshot_every = every;
        }
        if let Some(cap) = std::env::var("EPI_BUDGET_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            self.budget.cap_micros = cap;
        }
        if let Some(compose) = std::env::var("EPI_BUDGET_COMPOSE")
            .ok()
            .as_deref()
            .and_then(BudgetCompose::parse)
        {
            self.budget.compose = compose;
        }
        if let Some(warn) = std::env::var("EPI_BUDGET_WARN")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            self.budget.warn_micros = Some(warn);
        }
        if let Some(deny) = std::env::var("EPI_BUDGET_DENY")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            self.budget.deny_micros = Some(deny);
        }
        self
    }
}

/// How per-disclosure risk scores compose into a single spent budget.
///
/// All three aggregates are always folded into the durable ledger; the
/// compose rule only selects which aggregate the budget *reads*, so an
/// operator can change it without a migration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BudgetCompose {
    /// Spent = saturating sum of per-disclosure risk scores (basic
    /// composition, the conservative default).
    #[default]
    Sum,
    /// Spent = the largest single-disclosure risk score.
    Max,
    /// Spent = `1 − ∏ (1 − rᵢ)` — the probability at least one
    /// disclosure was a breach, under independence.
    Product,
}

impl BudgetCompose {
    /// Stable wire/config spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetCompose::Sum => "sum",
            BudgetCompose::Max => "max",
            BudgetCompose::Product => "product",
        }
    }

    /// Parses a config spelling; unknown values are `None`.
    pub fn parse(text: &str) -> Option<BudgetCompose> {
        match text {
            "sum" => Some(BudgetCompose::Sum),
            "max" => Some(BudgetCompose::Max),
            "product" => Some(BudgetCompose::Product),
            _ => None,
        }
    }
}

/// Per-user exposure-budget policy. Disabled by default (`cap_micros ==
/// 0`): every pre-budget deployment behaves exactly as before, entries
/// carry no `budget_remaining` member, and no disclosure is ever
/// budget-denied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetOptions {
    /// Total budget cap in risk micro-units (`0` disables enforcement).
    pub cap_micros: u64,
    /// Which ledger aggregate the spent budget reads.
    pub compose: BudgetCompose,
    /// Spend at which `budget_warnings` starts counting (defaults to
    /// 80% of the cap when `None`).
    pub warn_micros: Option<u64>,
    /// Spend at or above which disclosures are denied up front
    /// (defaults to the cap when `None`).
    pub deny_micros: Option<u64>,
}

impl Default for BudgetOptions {
    fn default() -> BudgetOptions {
        BudgetOptions {
            cap_micros: 0,
            compose: BudgetCompose::Sum,
            warn_micros: None,
            deny_micros: None,
        }
    }
}

impl BudgetOptions {
    /// Whether budget enforcement is on at all.
    pub fn enabled(&self) -> bool {
        self.cap_micros > 0
    }

    /// The effective warn threshold.
    pub fn warn_threshold(&self) -> u64 {
        self.warn_micros.unwrap_or(self.cap_micros / 10 * 8)
    }

    /// The effective deny threshold.
    pub fn deny_threshold(&self) -> u64 {
        self.deny_micros.unwrap_or(self.cap_micros)
    }

    /// The budget a session has spent under the configured compose rule.
    pub fn spent(&self, session: &Session) -> u64 {
        match self.compose {
            BudgetCompose::Sum => session.risk_sum_micros,
            BudgetCompose::Max => session.risk_max_micros,
            BudgetCompose::Product => RISK_SCALE - session.survival_micros.min(RISK_SCALE),
        }
    }

    /// The budget remaining under the cap (0 when disabled).
    pub fn remaining(&self, session: &Session) -> u64 {
        self.cap_micros.saturating_sub(self.spent(session))
    }
}

/// FIFO-bounded memory of answered request ids, so a client retry of an
/// already-settled request replays the stored response instead of
/// re-executing (idempotency). Only *final* outcomes are remembered —
/// retryable errors must re-execute by definition.
struct DedupeCache {
    inner: Mutex<DedupeInner>,
    capacity: usize,
}

struct DedupeInner {
    responses: HashMap<String, Response>,
    order: VecDeque<String>,
}

impl DedupeCache {
    fn new(capacity: usize) -> DedupeCache {
        DedupeCache {
            inner: Mutex::new(DedupeInner {
                responses: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, DedupeInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, id: &str) -> Option<Response> {
        self.lock().responses.get(id).cloned()
    }

    fn store(&self, id: &str, response: &Response) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        if inner.responses.contains_key(id) {
            return;
        }
        inner.order.push_back(id.to_owned());
        inner.responses.insert(id.to_owned(), response.clone());
        while inner.order.len() > self.capacity {
            if let Some(victim) = inner.order.pop_front() {
                inner.responses.remove(&victim);
            }
        }
    }
}

/// What [`AuditService::begin`] made of a request.
pub(crate) enum Step {
    /// Answered without blocking.
    Done(Response),
    /// To be answered by [`AuditService::finish`] on a thread that may
    /// block. Nothing has been counted, taken or remembered for it yet.
    Defer(Deferred),
}

/// A deferred request's preparation: `None` on a durable store, where
/// the first step does nothing at all.
pub(crate) struct Deferred(Option<Prepared>);

/// What a request reads before it is answered.
struct Prepared {
    deadline: Deadline,
    mode: DegradationMode,
    /// A disclosure's compiled sets, or the reply to a disclosure that
    /// does not compile; `None` for every other request.
    disclosure: Option<Result<Compiled, Response>>,
}

/// A disclosure compiled against the schema.
struct Compiled {
    query: Query,
    /// The truthful answer to `query` in the disclosure's state.
    answer: bool,
    disclosed: WorldSet,
    /// The decision the disclosure needs; `None` when the negative-result
    /// rule excuses it.
    key: Option<DecisionKey>,
    /// The verdict the cache held for `key` when it was compiled.
    cached: Option<Decision>,
}

/// The auditing daemon's engine: session state, decision workers, cache
/// and metrics behind a single request-handling entry point.
pub struct AuditService {
    schema: Schema,
    assumption: PriorAssumption,
    sessions: SessionStore,
    pool: DecisionPool,
    metrics: Arc<Metrics>,
    tracer: Arc<Recorder>,
    default_deadline: Option<Duration>,
    retry_after_ms: u64,
    dedupe: DedupeCache,
    recovery: Option<RecoveryReport>,
    ladder: DegradationLadder,
    fairness: TokenBuckets,
    freeze_fsync_stall_micros: u64,
    budget: BudgetOptions,
    /// Set by [`AuditService::set_draining`]: disclose/cumulative get
    /// [`ErrorCode::Draining`] while reads keep serving, so a draining
    /// front-end can finish its in-flight pipeline without accepting new
    /// audit work.
    draining: AtomicBool,
}

/// Default span count returned by a `trace` request with no `limit`.
const DEFAULT_TRACE_LIMIT: usize = 256;

/// Maps a recorded span onto its wire shape.
fn wire_span(s: SpanRecord) -> WireSpan {
    WireSpan {
        seq: s.seq,
        trace: s.trace.as_deref().map(str::to_owned),
        label: s.label.to_owned(),
        start_micros: s.start_micros,
        duration_micros: s.duration_micros,
        detail: s.detail,
    }
}

impl AuditService {
    /// Builds a service over a fixed schema.
    ///
    /// # Panics
    ///
    /// When [`ServiceConfig::data_dir`] is set and recovery of the
    /// disclosure log fails — the daemon refuses to start over storage
    /// it cannot trust. Use [`AuditService::open`] to handle the error.
    pub fn new(schema: Schema, config: ServiceConfig) -> AuditService {
        Self::with_fault_hook(schema, config, None)
    }

    /// [`AuditService::new`] with a worker-side fault-injection hook —
    /// the entry point the chaos harness uses to script solver panics
    /// and stalls inside an otherwise-production service. Panics on
    /// recovery failure like [`AuditService::new`].
    pub fn with_fault_hook(
        schema: Schema,
        config: ServiceConfig,
        fault_hook: Option<FaultHook>,
    ) -> AuditService {
        Self::open_with_fault_hook(schema, config, fault_hook)
            .expect("disclosure-log recovery failed; refusing to serve untrusted session state")
    }

    /// Builds a service over a fixed schema, running disclosure-log
    /// recovery first when [`ServiceConfig::data_dir`] is set. Recovery
    /// happens here — before any connection can be accepted — and is
    /// fail-closed: corrupt storage is an error, not a degraded start.
    pub fn open(schema: Schema, config: ServiceConfig) -> Result<AuditService, WalError> {
        Self::open_with_fault_hook(schema, config, None)
    }

    /// [`AuditService::open`] with a worker-side fault-injection hook.
    pub fn open_with_fault_hook(
        schema: Schema,
        config: ServiceConfig,
        fault_hook: Option<FaultHook>,
    ) -> Result<AuditService, WalError> {
        let metrics = Arc::new(Metrics::new());
        let tracer = Arc::new(Recorder::new(config.trace_capacity));
        if let Some(threshold) = config.slow_threshold_micros {
            tracer.set_slow_threshold_micros(threshold);
        }
        let auditor = Auditor::new(config.assumption).with_product_options(config.product_options);
        let cube = schema.cube();
        let (sessions, recovery) = match &config.data_dir {
            Some(dir) => {
                let shards = config.session_shards.max(1);
                let (wal, recovered) = Wal::open(WalConfig {
                    fsync: config.wal_fsync,
                    snapshot_every: config.wal_snapshot_every,
                    ..WalConfig::new(dir.clone(), shards, cube.size())
                })?;
                (
                    SessionStore::durable(shards, cube.size(), Arc::new(wal), recovered.shards),
                    Some(recovered.report),
                )
            }
            None => (SessionStore::new(config.session_shards, cube.size()), None),
        };
        let pool = DecisionPool::with_admission(
            config.workers,
            config.queue_capacity,
            config.cache_capacity,
            auditor,
            cube,
            Arc::clone(&metrics),
            config.queue_policy,
            fault_hook,
            Arc::clone(&tracer),
            config.admission,
        );
        Ok(AuditService {
            sessions,
            schema,
            assumption: config.assumption,
            pool,
            metrics,
            tracer,
            default_deadline: config.default_deadline_ms.map(Duration::from_millis),
            retry_after_ms: config.retry_after_ms,
            dedupe: DedupeCache::new(config.dedupe_capacity),
            recovery,
            ladder: DegradationLadder::new(),
            fairness: TokenBuckets::new(config.fairness_rate_per_sec, config.fairness_burst, 4096),
            freeze_fsync_stall_micros: config.freeze_fsync_stall_micros,
            budget: config.budget,
            draining: AtomicBool::new(false),
        })
    }

    /// What disclosure-log recovery found at startup; `None` on
    /// in-memory services.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// The schema this service audits against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// A point-in-time copy of the service's counters, with the values
    /// their owners keep (trace ring, disclosure log, recovery,
    /// admission controller, degradation ladder) folded in.
    pub fn metrics(&self) -> Snapshot {
        self.metrics.snapshot_with(&Folded {
            tracer: Some(&self.tracer),
            wal: self.sessions.wal().map(|wal| wal.stats()),
            recovery: self.recovery.as_ref(),
            admission: Some(self.pool.admission()),
            mode: Some(self.ladder.current()),
            ..Folded::solver_pool()
        })
    }

    /// The service's span recorder — for embedders that want to read (or
    /// record into) the trace ring without going through the protocol.
    pub fn tracer(&self) -> &Recorder {
        &self.tracer
    }

    /// The live metrics registry, for front-ends (the TCP server) that
    /// maintain connection gauges alongside the request counters.
    pub fn metrics_registry(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// The decision pool's shutdown token: cancelled once the service
    /// (and its pool) starts dropping.
    pub fn cancel_token(&self) -> CancelToken {
        self.pool.cancel_token()
    }

    /// The decision pool's adaptive admission controller.
    pub fn admission(&self) -> &AdmissionController {
        self.pool.admission()
    }

    /// The degradation mode of the last ladder evaluation.
    pub fn degradation_mode(&self) -> DegradationMode {
        self.ladder.current()
    }

    /// The disclosure log behind this service's sessions, when durable —
    /// exposed for operational tooling and fault-injection harnesses.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.sessions.wal()
    }

    /// Syncs every disclosure-log shard's un-synced tail (no-op on an
    /// in-memory service). Graceful drain calls this last, so a drained
    /// daemon leaves nothing to the page cache.
    pub fn flush_wal(&self) -> Result<(), WalError> {
        self.sessions.flush_wal()
    }

    /// Flips the service-level drain flag: while set, disclose and
    /// cumulative requests get [`ErrorCode::Draining`] (never stored in
    /// the dedupe window — a re-routed retry must re-execute) and reads
    /// keep serving.
    pub fn set_draining(&self, on: bool) {
        self.draining.store(on, Ordering::Relaxed);
    }

    /// Whether the drain flag is set.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Folds the current pressure and storage signals into the
    /// degradation ladder, exports the mode gauge, and arms limit-based
    /// shedding whenever the mode leaves `Normal`. Runs on every request
    /// (all signal reads are atomic loads).
    fn evaluate_ladder(&self) -> DegradationMode {
        let admission = self.pool.admission();
        // A fully degraded service enqueues nothing, so without this
        // idle decay the wait EWMA could never fall back below the
        // de-escalation thresholds and `CacheOnly` would be permanent.
        admission.decay_wait_when_idle();
        // Same latch for the storage signal: `Frozen` refuses the very
        // disclosures whose syncs would refresh the fsync EWMA, so a
        // sync-idle log must decay it or a transient stall freezes the
        // service forever.
        if let Some(wal) = self.sessions.wal() {
            wal.decay_fsync_ewma_when_idle();
        }
        let signals = LadderSignals {
            queue_wait_micros: admission.estimated_wait_micros(),
            target_wait_micros: admission.options().target_wait_micros,
            limit_at_floor: admission.limit() <= admission.options().min_limit,
            wal_quarantined: self.sessions.quarantined_shards() > 0,
            wal_stalled: self
                .sessions
                .wal()
                .is_some_and(|wal| wal.fsync_ewma_micros() > self.freeze_fsync_stall_micros),
        };
        let mode = self.ladder.evaluate(signals);
        self.pool
            .set_shed_on_limit(mode >= DegradationMode::Shedding);
        mode
    }

    /// Handles one protocol request with no envelope (no id, default
    /// deadline). Never panics on malformed input — every user error
    /// comes back as [`Response::Error`].
    pub fn handle(&self, request: &Request) -> Response {
        self.handle_with_meta(request, &RequestMeta::default())
    }

    /// Handles one protocol request under its envelope: applies the
    /// request deadline (or the configured default), and replays the
    /// stored response for an id the service has already answered with a
    /// final (non-retryable) outcome. Runs the request's two steps, `begin`
    /// and, when that defers, `finish`, back to back.
    pub fn handle_with_meta(&self, request: &Request, meta: &RequestMeta) -> Response {
        match self.begin(request, meta) {
            Step::Done(response) => response,
            Step::Defer(deferred) => self.finish(request, meta, deferred),
        }
    }

    /// The first step of a request: answers it when no part of the
    /// answer can block, else defers it to [`AuditService::finish`] on a
    /// thread that may block.
    ///
    /// Only a disclosure whose verdict is not cached (in normal or
    /// shedding mode) and a `cumulative` wait on the decision pool. On a
    /// durable store everything is deferred: a session read or the
    /// degradation ladder's storage signal can wait on a WAL shard lock
    /// that is held across an fsync.
    ///
    /// The decision to defer reads state but changes none: the `requests`
    /// counter, the fairness token and the dedupe window are touched only
    /// by the step that answers, so a deferred request counts once.
    pub(crate) fn begin(&self, request: &Request, meta: &RequestMeta) -> Step {
        if self.sessions.wal().is_some() {
            return Step::Defer(Deferred(None));
        }
        let prepared = self.prepare(request, meta);
        if self.needs_pool(request, &prepared) {
            return Step::Defer(Deferred(Some(prepared)));
        }
        Step::Done(self.serve(request, meta, prepared))
    }

    /// The blocking step of a request [`AuditService::begin`] deferred.
    pub(crate) fn finish(
        &self,
        request: &Request,
        meta: &RequestMeta,
        deferred: Deferred,
    ) -> Response {
        let prepared = deferred.0.unwrap_or_else(|| self.prepare(request, meta));
        self.serve(request, meta, prepared)
    }

    /// Everything about a request that is read, not consumed: the
    /// deadline (its clock starts here), the degradation mode, and a
    /// disclosure's compiled sets with the verdict the cache holds.
    fn prepare(&self, request: &Request, meta: &RequestMeta) -> Prepared {
        let deadline = match meta
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.default_deadline)
        {
            Some(budget) => Deadline::within(budget),
            None => Deadline::none(),
        };
        let mode = self.evaluate_ladder();
        let disclosure = match request {
            Request::Disclose {
                query,
                state_mask,
                audit_query,
                ..
            } => Some(self.compile_disclosure(query, *state_mask, audit_query)),
            _ => None,
        };
        Prepared {
            deadline,
            mode,
            disclosure,
        }
    }

    /// Whether answering `request` would wait on the decision pool.
    /// Every early exit counted here as not waiting is one that cannot
    /// change before [`AuditService::serve`] runs: compiled sets, the
    /// prepared mode and cached verdict, and a budget spend, which only
    /// grows. A fairness rejection can; an uncached disclosure from a
    /// user over their rate is therefore deferred and refused there.
    fn needs_pool(&self, request: &Request, prepared: &Prepared) -> bool {
        match (request, &prepared.disclosure) {
            (Request::Cumulative { .. }, _) => true,
            (Request::Disclose { user, .. }, Some(Ok(compiled))) => {
                compiled.key.is_some()
                    && compiled.cached.is_none()
                    && prepared.mode < DegradationMode::CacheOnly
                    && self.budget_denial(user).is_none()
            }
            _ => false,
        }
    }

    /// Answers a prepared request, counting it, checking and filling the
    /// dedupe window, and deciding through the pool when it must.
    fn serve(&self, request: &Request, meta: &RequestMeta, prepared: Prepared) -> Response {
        Metrics::incr(&self.metrics.requests);
        let trace = meta.trace.as_deref();
        if let Some(id) = &meta.id {
            if let Some(replay) = self.dedupe.get(id) {
                self.tracer
                    .event(trace, "dedupe.replay", Some(format!("id={id}")));
                return replay;
            }
        }
        let Prepared {
            deadline,
            mode,
            disclosure,
        } = prepared;
        if self.is_draining()
            && matches!(
                request,
                Request::Disclose { .. } | Request::Cumulative { .. }
            )
        {
            // Returned before the dedupe store below on purpose: a
            // draining refusal is instance-local, and the same id
            // replayed against a healthy instance (or after restart)
            // must re-execute.
            return Response::Error {
                code: ErrorCode::Draining,
                message: "service is draining; no new audit work is accepted".to_owned(),
                retry_after_ms: None,
            };
        }
        let response = match request {
            Request::Disclose {
                user,
                time,
                state_mask,
                ..
            } => self.disclose(
                user,
                *time,
                *state_mask,
                disclosure.expect("every disclosure is compiled when prepared"),
                &deadline,
                trace,
                mode,
            ),
            Request::Cumulative { user, audit_query } => {
                self.cumulative(user, audit_query, &deadline, trace, mode)
            }
            Request::SessionInfo { user } => self.session_info(user),
            Request::Budget { user } => self.budget_info(user),
            Request::Stats => Response::Stats(Box::new(self.metrics())),
            Request::Trace {
                trace: wanted,
                limit,
                slow,
            } => self.read_trace(wanted.as_deref(), *limit, *slow),
            Request::MetricsText => Response::MetricsText(self.metrics().render_prometheus()),
            Request::Ping => Response::Pong,
            Request::Health => self.health(mode),
        };
        if let Some(id) = &meta.id {
            // Remember only settled outcomes: a retry of an overloaded or
            // worker-failed request must actually re-execute.
            if !response.is_retryable_error() {
                self.dedupe.store(id, &response);
            }
        }
        response
    }

    /// Serves a `health` request: liveness, readiness, the degradation
    /// mode and the admission state — the signal a shard router needs to
    /// keep or drop this instance from rotation. `ready` means the
    /// daemon is accepting new audit work at full fidelity (`normal` or
    /// `shedding`, not draining); a `cache_only`/`frozen`/draining
    /// instance is alive but should be routed around.
    fn health(&self, mode: DegradationMode) -> Response {
        let admission = self.pool.admission();
        let draining = self.is_draining();
        Response::Health(HealthInfo {
            live: true,
            ready: mode <= DegradationMode::Shedding && !draining,
            mode: mode.as_str().to_owned(),
            admission_limit: admission.limit() as u64,
            inflight: admission.inflight() as u64,
            draining,
        })
    }

    /// Per-user fairness gate: `Some(error)` when `user` is over their
    /// token-bucket rate.
    fn fairness_reject(&self, user: &str) -> Option<Response> {
        if self.fairness.try_take(user) {
            return None;
        }
        Metrics::incr(&self.metrics.admission_rejects_fairness);
        Some(Response::Error {
            code: ErrorCode::Overloaded,
            message: format!("user `{user}` is over the per-user request rate"),
            retry_after_ms: Some(self.retry_after_ms),
        })
    }

    /// Serves a `trace` request: recent spans (or the slow log) mapped
    /// onto their wire shape, oldest first.
    fn read_trace(&self, wanted: Option<&str>, limit: Option<u64>, slow: bool) -> Response {
        let limit = limit.map_or(DEFAULT_TRACE_LIMIT, |n| {
            usize::try_from(n).unwrap_or(usize::MAX)
        });
        let spans = if slow {
            // The slow log is small; filter by trace after the fact so
            // `limit` still bounds the response size.
            let mut spans = self.tracer.slow(usize::MAX);
            if let Some(t) = wanted {
                spans.retain(|s| s.trace.as_deref() == Some(t));
            }
            if spans.len() > limit {
                spans.drain(..spans.len() - limit);
            }
            spans
        } else {
            self.tracer.recent(wanted, limit)
        };
        Response::Trace(spans.into_iter().map(wire_span).collect())
    }

    fn parse(&self, text: &str) -> Result<Query, Response> {
        parse(text, &self.schema)
            .map_err(|e| Response::bad_request(format!("cannot parse `{text}`: {e}")))
    }

    /// Compiles a disclosure against the schema: the disclosed set (the
    /// query or its complement, as the truthful answer in `state_mask`
    /// has it) and, unless the negative-result rule excuses it, the
    /// decision it needs with any verdict the cache already holds.
    fn compile_disclosure(
        &self,
        query_text: &str,
        state_mask: u32,
        audit_text: &str,
    ) -> Result<Compiled, Response> {
        let audit_set = self.parse(audit_text)?.compile(&self.schema);
        let query = self.parse(query_text)?;
        let query_set = query.compile(&self.schema);
        if (state_mask as usize) >= query_set.universe_size() {
            return Err(Response::bad_request(format!(
                "state mask {state_mask:#b} does not denote a world of the {}-record schema",
                self.schema.len()
            )));
        }
        // The truthful answer, exactly as the offline log computes it.
        let answer = query_set.contains(WorldId(state_mask));
        let disclosed = if answer {
            query_set
        } else {
            query_set.complement()
        };
        // The negative-result rule: a disclosure made while the audited
        // property is false needs no decision at all — only the session
        // update.
        let key = audit_set
            .contains(WorldId(state_mask))
            .then(|| DecisionKey {
                audit: audit_set,
                disclosed: disclosed.clone(),
                assumption: self.assumption,
            });
        let cached = key.as_ref().and_then(|key| self.pool.peek(key));
        Ok(Compiled {
            query,
            answer,
            disclosed,
            key,
            cached,
        })
    }

    /// The verdict for `key`, translating pool-level failures into the
    /// typed error envelope. `cached` is what the verdict cache held when
    /// the request was prepared: a hit is served after the same checks,
    /// in the same order, as a hit inside the pool. Without one,
    /// `CacheOnly` fails closed, and otherwise the pool decides, which
    /// may block. An already-expired deadline short-circuits first.
    fn decide(
        &self,
        key: DecisionKey,
        cached: Option<Decision>,
        deadline: &Deadline,
        trace: Option<&str>,
        mode: DegradationMode,
    ) -> Result<Decision, Response> {
        if deadline.should_stop() {
            Metrics::incr(&self.metrics.deadline_exceeded);
            return Err(Response::Error {
                code: ErrorCode::DeadlineExceeded,
                message: "deadline expired before the decision was attempted".to_owned(),
                retry_after_ms: None,
            });
        }
        Metrics::incr(&self.metrics.decide_requests);
        let outcome = match cached {
            Some(hit) => Ok(self.pool.serve_hit(hit, trace)),
            // CacheOnly degradation: the queue is the resource being
            // protected, so a degraded answer is a cached one —
            // byte-identical to a healthy one — or a retryable refusal.
            None if mode == DegradationMode::CacheOnly => {
                Metrics::incr(&self.metrics.admission_rejects_degraded);
                return Err(Response::Error {
                    code: ErrorCode::Overloaded,
                    message: "service is degraded to cached verdicts only and has \
                              no cached verdict for this decision"
                        .to_owned(),
                    retry_after_ms: Some(self.retry_after_ms),
                });
            }
            None => self.pool.decide_traced(key, deadline, trace),
        };
        outcome.map_err(|e| {
            let (code, retry_after_ms) = match e {
                DecideError::Overloaded => (ErrorCode::Overloaded, Some(self.retry_after_ms)),
                // Admission predicted the deadline cannot be met: the
                // same typed outcome as an actually-expired deadline,
                // just decided before wasting a queue slot on it.
                DecideError::AdmissionDeadline => (ErrorCode::DeadlineExceeded, None),
                DecideError::WorkerFailed => (ErrorCode::WorkerFailed, None),
                DecideError::Shutdown => (ErrorCode::Shutdown, None),
            };
            Response::Error {
                code,
                message: e.to_string(),
                retry_after_ms,
            }
        })
    }

    /// The budget a user has spent, when it is at or past the deny
    /// threshold (always `None` with budgets disabled).
    fn budget_denial(&self, user: &str) -> Option<u64> {
        if !self.budget.enabled() {
            return None;
        }
        let spent = self.budget.spent(&self.sessions.get(user)?);
        (spent >= self.budget.deny_threshold()).then_some(spent)
    }

    #[allow(clippy::too_many_arguments)]
    fn disclose(
        &self,
        user: &str,
        time: u64,
        state_mask: u32,
        compiled: Result<Compiled, Response>,
        deadline: &Deadline,
        trace: Option<&str>,
        mode: DegradationMode,
    ) -> Response {
        if let Some(reject) = self.fairness_reject(user) {
            return reject;
        }
        if mode == DegradationMode::Frozen {
            // The disclosure log is quarantined or its fsyncs have
            // stalled: an acknowledgement could not be made durable, so
            // no disclosure is accepted at all. Reads keep serving.
            Metrics::incr(&self.metrics.admission_rejects_degraded);
            return Response::Error {
                code: ErrorCode::Storage,
                message: "disclosure log is unavailable (quarantined or stalled); \
                          disclosures are frozen"
                    .to_owned(),
                retry_after_ms: None,
            };
        }
        // The O(1) budget deny: a user past the deny threshold is
        // refused on a single session-store lookup — before anything
        // touches the admission path or the decision queue, so
        // near-budget users cost no solver work at all
        // (`decide_requests` and the queue metrics stay flat).
        if let Some(spent) = self.budget_denial(user) {
            Metrics::incr(&self.metrics.budget_exhausted_denials);
            return Response::Error {
                code: ErrorCode::BudgetExhausted,
                message: format!(
                    "user `{user}` has exhausted their exposure budget \
                     (spent {spent} of {} micro-units under the `{}` rule)",
                    self.budget.cap_micros,
                    self.budget.compose.as_str()
                ),
                retry_after_ms: None,
            };
        }
        let Compiled {
            query,
            answer,
            disclosed,
            key,
            cached,
        } = match compiled {
            Ok(compiled) => compiled,
            Err(resp) => return resp,
        };
        // The verdict is secured *before* the session is mutated. A
        // decision the pool sheds, times out, or loses to a worker panic
        // must leave no trace behind: the client is told to retry, and
        // the retried disclosure must be recorded exactly once, not once
        // per attempt. Deciding first is sound because the verdict
        // depends only on the `(audit, disclosed)` pair, never on the
        // session.
        let decision = match key {
            None => None,
            Some(key) => match self.decide(key, cached, deadline, trace, mode) {
                Ok(d) => Some(d),
                Err(resp) => return resp,
            },
        };
        // The decision's normalized risk score: zero for negative-gated
        // disclosures (nothing about the audited property was
        // revealed), the certified uniform-prior score otherwise.
        let risk_micros = decision.as_ref().map_or(0, |d| u64::from(d.risk_micros));
        // The session update happens unconditionally — cumulative
        // knowledge accumulates even when this disclosure is excused by
        // the negative-result rule, exactly like the offline log. On a
        // durable store the update is in the disclosure log before this
        // returns, so the answer below is never ahead of the log.
        let applied = {
            let _span = self.tracer.start(trace, "session.apply");
            self.sessions
                .apply_disclosure(user, time, state_mask, &disclosed, risk_micros)
        };
        let session = match applied {
            Ok(s) => s,
            Err(e @ SessionError::Storage { .. }) => {
                return Response::Error {
                    code: ErrorCode::Storage,
                    message: e.to_string(),
                    retry_after_ms: None,
                };
            }
            Err(e) => return Response::bad_request(e.to_string()),
        };
        // Budget accounting against the *post-apply* session — the live
        // ledger epoch, never a cached decision's view of it.
        let budget_remaining = self.budget_observe(&session);
        if let Err(e) = {
            let _span = self.tracer.start(trace, "wal.snapshot");
            self.sessions.maybe_snapshot()
        } {
            // Compaction failure is not a request failure — the
            // disclosure itself is already durable; the log just keeps
            // growing until a later snapshot succeeds.
            eprintln!("disclosure-log snapshot failed: {e}");
        }
        let Some(decision) = decision else {
            Metrics::incr(&self.metrics.negative_gated);
            return Response::Entry(ReportEntry {
                user: user.to_owned(),
                time,
                kind: EntryKind::Single,
                finding: Finding::Safe,
                explanation: "audited property was false at disclosure time (negative results are not protected)".into(),
                risk_micros: Some(0),
                budget_remaining_micros: budget_remaining,
            });
        };
        self.metrics.record_risk(risk_micros);
        Response::Entry(ReportEntry {
            user: user.to_owned(),
            time,
            kind: EntryKind::Single,
            finding: decision.finding,
            explanation: format!(
                "query `{}` answered {answer}: {}",
                query.display(&self.schema),
                decision.explanation
            ),
            risk_micros: Some(risk_micros),
            budget_remaining_micros: budget_remaining,
        })
    }

    /// Folds one post-apply session into the budget metrics (warn
    /// crossing and spend high-water) and returns the
    /// `budget_remaining` entry member — `Some` only when budget
    /// enforcement is enabled, so default-configured deployments keep
    /// byte-identical reply lines.
    fn budget_observe(&self, session: &Session) -> Option<u64> {
        if !self.budget.enabled() {
            return None;
        }
        let spent = self.budget.spent(session);
        Metrics::observe_high_water(&self.metrics.budget_spent_high_water_micros, spent);
        if spent >= self.budget.warn_threshold() && spent < self.budget.deny_threshold() {
            Metrics::incr(&self.metrics.budget_warnings);
        }
        Some(self.budget.remaining(session))
    }

    /// Serves a `budget` request: the user's exposure ledger, the
    /// spent/remaining budget under the configured compose rule, and a
    /// stable ledger digest. Read-only and O(1), like `session`.
    fn budget_info(&self, user: &str) -> Response {
        let Some(session) = self.sessions.get(user) else {
            return Response::bad_request(format!("unknown user `{user}`"));
        };
        Response::Budget(Box::new(BudgetInfo {
            user: user.to_owned(),
            disclosures: session.disclosures,
            risk_sum: session.risk_sum_micros,
            risk_max: session.risk_max_micros,
            survival: session.survival_micros,
            spent: self.budget.spent(&session),
            cap: self.budget.cap_micros,
            remaining: self.budget.remaining(&session),
            compose: self.budget.compose.as_str().to_owned(),
            digest: format!("{:08x}", ledger_digest(&session)),
        }))
    }

    /// Serves a `session` request: the user's session sequence number
    /// (disclosure count) and a stable digest of their knowledge set —
    /// enough for an operator to compare session state across restarts
    /// without shipping the set itself over the wire.
    fn session_info(&self, user: &str) -> Response {
        let Some(session) = self.sessions.get(user) else {
            return Response::bad_request(format!("unknown user `{user}`"));
        };
        Response::SessionInfo(SessionInfo {
            user: user.to_owned(),
            disclosures: session.disclosures,
            last_time: session.last_time,
            worlds: session.knowledge.len() as u64,
            digest: format!("{:08x}", knowledge_digest(&session.knowledge)),
        })
    }

    fn cumulative(
        &self,
        user: &str,
        audit_text: &str,
        deadline: &Deadline,
        trace: Option<&str>,
        mode: DegradationMode,
    ) -> Response {
        if let Some(reject) = self.fairness_reject(user) {
            return reject;
        }
        let audit_set = match self.parse(audit_text) {
            Ok(q) => q.compile(&self.schema),
            Err(resp) => return resp,
        };
        let Some(session) = self.sessions.get(user) else {
            return Response::bad_request(format!("unknown user `{user}`"));
        };
        if session.disclosures < 2 {
            // One disclosure: cumulative knowledge coincides with it, so
            // the offline report emits no cumulative entry either.
            return Response::NoCumulative {
                user: user.to_owned(),
                disclosures: session.disclosures,
            };
        }
        if !audit_set.contains(WorldId(session.last_state_mask)) {
            Metrics::incr(&self.metrics.negative_gated);
            return Response::Entry(ReportEntry {
                user: user.to_owned(),
                time: session.last_time,
                kind: EntryKind::Cumulative,
                finding: Finding::Safe,
                explanation: "audited property was false at the last disclosure (negative results are not protected)".into(),
                risk_micros: Some(0),
                budget_remaining_micros: self.budget.enabled().then(|| self.budget.remaining(&session)),
            });
        }
        let key = DecisionKey {
            audit: audit_set,
            disclosed: session.knowledge.clone(),
            assumption: self.assumption,
        };
        // Cumulative is read-only, so nothing needs un-mutating on a
        // refusal; the fail-closed rule is the same as for a disclosure.
        let cached = self.pool.peek(&key);
        let decision = match self.decide(key, cached, deadline, trace, mode) {
            Ok(d) => d,
            Err(resp) => return resp,
        };
        Response::Entry(ReportEntry {
            user: user.to_owned(),
            time: session.last_time,
            kind: EntryKind::Cumulative,
            finding: decision.finding,
            explanation: format!(
                "{} disclosures combined: {}",
                session.disclosures, decision.explanation
            ),
            // Cumulative audits are read-only: the risk reported is the
            // cumulative decision's own score; the ledger (and so the
            // remaining budget) is unchanged.
            risk_micros: Some(u64::from(decision.risk_micros)),
            budget_remaining_micros: self
                .budget
                .enabled()
                .then(|| self.budget.remaining(&session)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hospital_service(assumption: PriorAssumption) -> AuditService {
        let schema = Schema::from_names(&["hiv_pos", "transfusions"]).unwrap();
        AuditService::new(
            schema,
            ServiceConfig {
                assumption,
                workers: 2,
                ..ServiceConfig::default()
            },
        )
    }

    fn disclose(user: &str, time: u64, query: &str, state_mask: u32) -> Request {
        Request::Disclose {
            user: user.to_owned(),
            time,
            query: query.to_owned(),
            state_mask,
            audit_query: "hiv_pos".to_owned(),
        }
    }

    #[test]
    fn negative_results_are_not_protected() {
        let svc = hospital_service(PriorAssumption::Unrestricted);
        // Alice asks while Bob is healthy: state 0b00, hiv_pos false.
        let resp = svc.handle(&disclose("alice", 2005, "hiv_pos", 0b00));
        let Response::Entry(entry) = resp else {
            panic!("expected entry, got {resp:?}");
        };
        assert_eq!(entry.finding, Finding::Safe);
        assert!(entry.explanation.contains("not protected"));
        assert_eq!(svc.metrics().negative_gated, 1);
        assert_eq!(svc.metrics().decide_requests, 0);
    }

    #[test]
    fn direct_hit_is_flagged_and_then_cached() {
        let svc = hospital_service(PriorAssumption::Product);
        let r1 = svc.handle(&disclose("mallory", 2007, "hiv_pos", 0b11));
        let Response::Entry(e1) = r1 else {
            panic!("expected entry");
        };
        assert_eq!(e1.finding, Finding::Flagged);
        // A second user asking the same question reuses the verdict.
        let r2 = svc.handle(&disclose("trent", 2008, "hiv_pos", 0b11));
        let Response::Entry(e2) = r2 else {
            panic!("expected entry");
        };
        assert_eq!(e2.finding, Finding::Flagged);
        let m = svc.metrics();
        assert_eq!(m.computed, 1);
        assert_eq!(m.cache_hits, 1);
    }

    #[test]
    fn session_op_reports_sequence_and_digest() {
        let svc = hospital_service(PriorAssumption::Product);
        let resp = svc.handle(&Request::SessionInfo {
            user: "ghost".to_owned(),
        });
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "unknown users are a bad request, got {resp:?}"
        );
        svc.handle(&disclose("mallory", 2007, "hiv_pos", 0b11));
        svc.handle(&disclose("mallory", 2008, "hiv_pos | transfusions", 0b11));
        let resp = svc.handle(&Request::SessionInfo {
            user: "mallory".to_owned(),
        });
        let Response::SessionInfo(info) = resp else {
            panic!("expected session info, got {resp:?}");
        };
        assert_eq!(info.user, "mallory");
        assert_eq!(info.disclosures, 2);
        assert_eq!(info.last_time, 2008);
        let session = svc.sessions.get("mallory").unwrap();
        assert_eq!(info.worlds, session.knowledge.len() as u64);
        assert_eq!(
            info.digest,
            format!("{:08x}", knowledge_digest(&session.knowledge))
        );
    }

    #[test]
    fn durable_service_recovers_sessions_and_reports_metrics() {
        use epi_wal::testdir::TempDir;
        let tmp = TempDir::new("svc-recover");
        let schema = Schema::from_names(&["hiv_pos", "transfusions"]).unwrap();
        let config = ServiceConfig {
            assumption: PriorAssumption::Product,
            workers: 1,
            data_dir: Some(tmp.path().to_path_buf()),
            wal_fsync: FsyncPolicy::Never,
            ..ServiceConfig::default()
        };
        let digest_before = {
            let svc = AuditService::open(schema.clone(), config.clone()).unwrap();
            svc.handle(&disclose("mallory", 2007, "hiv_pos", 0b11));
            svc.handle(&disclose("mallory", 2008, "transfusions", 0b11));
            let resp = svc.handle(&Request::SessionInfo {
                user: "mallory".to_owned(),
            });
            let Response::SessionInfo(info) = resp else {
                panic!("expected session info, got {resp:?}");
            };
            let m = svc.metrics();
            assert!(m.wal_appends >= 3, "open + two discloses must be logged");
            assert!(m.wal_bytes > 0);
            info.digest
        };
        let svc = AuditService::open(schema, config).unwrap();
        let report = svc.recovery_report().unwrap();
        assert_eq!(report.sessions, 1);
        assert!(report.replayed_records >= 3);
        let resp = svc.handle(&Request::SessionInfo {
            user: "mallory".to_owned(),
        });
        let Response::SessionInfo(info) = resp else {
            panic!("expected session info after recovery, got {resp:?}");
        };
        assert_eq!(info.disclosures, 2);
        assert_eq!(
            info.digest, digest_before,
            "recovered knowledge must hash identically"
        );
        assert_eq!(
            svc.metrics().recovery_replayed_records,
            report.replayed_records
        );
    }

    #[test]
    fn cumulative_composes_disclosures() {
        let schema = Schema::from_names(&["secret", "marker_a", "marker_b"]).unwrap();
        let svc = AuditService::new(
            schema,
            ServiceConfig {
                assumption: PriorAssumption::Unrestricted,
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        let req = |time, query: &str| Request::Disclose {
            user: "eve".to_owned(),
            time,
            query: query.to_owned(),
            state_mask: 0b011,
            audit_query: "secret".to_owned(),
        };
        // Two disclosures whose intersection pins `secret`: the
        // cumulative entry must be flagged regardless of how the singles
        // are judged.
        let Response::Entry(_) = svc.handle(&req(1, "secret | marker_a")) else {
            panic!("entry expected");
        };
        let Response::Entry(_) = svc.handle(&req(2, "secret | !marker_a")) else {
            panic!("entry expected");
        };
        let resp = svc.handle(&Request::Cumulative {
            user: "eve".to_owned(),
            audit_query: "secret".to_owned(),
        });
        let Response::Entry(cum) = resp else {
            panic!("expected cumulative entry, got {resp:?}");
        };
        assert_eq!(cum.kind, EntryKind::Cumulative);
        assert_eq!(cum.finding, Finding::Flagged);
        assert!(cum.explanation.starts_with("2 disclosures combined:"));
    }

    #[test]
    fn single_disclosure_yields_no_cumulative_entry() {
        let svc = hospital_service(PriorAssumption::Unrestricted);
        svc.handle(&disclose("alice", 2005, "hiv_pos", 0b00));
        let resp = svc.handle(&Request::Cumulative {
            user: "alice".to_owned(),
            audit_query: "hiv_pos".to_owned(),
        });
        assert_eq!(
            resp,
            Response::NoCumulative {
                user: "alice".to_owned(),
                disclosures: 1
            }
        );
    }

    #[test]
    fn malformed_queries_become_errors() {
        let svc = hospital_service(PriorAssumption::Product);
        let resp = svc.handle(&disclose("alice", 1, "no_such_record", 0));
        assert!(matches!(resp, Response::Error { .. }));
        let resp = svc.handle(&Request::Cumulative {
            user: "nobody".to_owned(),
            audit_query: "hiv_pos".to_owned(),
        });
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn out_of_order_disclosures_rejected() {
        let svc = hospital_service(PriorAssumption::Unrestricted);
        svc.handle(&disclose("bob", 10, "hiv_pos", 0));
        let resp = svc.handle(&disclose("bob", 5, "hiv_pos", 0));
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn expired_deadline_short_circuits_with_a_typed_error() {
        let svc = hospital_service(PriorAssumption::Product);
        let meta = RequestMeta {
            id: None,
            deadline_ms: Some(0),
            trace: None,
        };
        let resp = svc.handle_with_meta(&disclose("mallory", 1, "hiv_pos", 0b11), &meta);
        let Response::Error { code, .. } = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(code, ErrorCode::DeadlineExceeded);
        assert_eq!(svc.metrics().deadline_exceeded, 1);
        // A failed decision leaves no trace: the client was told the
        // disclosure did not happen, so its retry must record it exactly
        // once, not once per attempt.
        assert!(svc.sessions.get("mallory").is_none());
    }

    #[test]
    fn request_ids_make_retries_idempotent() {
        let svc = hospital_service(PriorAssumption::Unrestricted);
        let meta = RequestMeta {
            id: Some("retry-1".to_owned()),
            deadline_ms: None,
            trace: None,
        };
        let req = disclose("alice", 5, "hiv_pos", 0b00);
        let first = svc.handle_with_meta(&req, &meta);
        assert!(matches!(first, Response::Entry(_)));
        let replay = svc.handle_with_meta(&req, &meta);
        assert_eq!(replay, first);
        // The replay came from the dedupe window: the session saw exactly
        // one disclosure, so a duplicate delivery cannot double-count.
        assert_eq!(svc.sessions.get("alice").unwrap().disclosures, 1);
        // A different id re-executes (and is rejected as out-of-order
        // only if the times regress — equal times are fine).
        let meta2 = RequestMeta {
            id: Some("retry-2".to_owned()),
            deadline_ms: None,
            trace: None,
        };
        let second = svc.handle_with_meta(&req, &meta2);
        assert!(matches!(second, Response::Entry(_)));
        assert_eq!(svc.sessions.get("alice").unwrap().disclosures, 2);
    }

    #[test]
    fn health_reports_mode_admission_and_drain() {
        let svc = hospital_service(PriorAssumption::Product);
        let Response::Health(h) = svc.handle(&Request::Health) else {
            panic!("expected health response");
        };
        assert!(h.live && h.ready && !h.draining);
        assert_eq!(h.mode, "normal");
        assert_eq!(h.admission_limit, svc.admission().limit() as u64);
        svc.set_draining(true);
        let Response::Health(h) = svc.handle(&Request::Health) else {
            panic!("expected health response");
        };
        assert!(h.live && !h.ready && h.draining, "draining is not ready");
    }

    #[test]
    fn draining_refuses_audit_work_serves_reads_and_skips_dedupe() {
        let svc = hospital_service(PriorAssumption::Unrestricted);
        svc.handle(&disclose("alice", 1, "hiv_pos", 0b00));
        svc.set_draining(true);
        let meta = RequestMeta {
            id: Some("drain-1".to_owned()),
            deadline_ms: None,
            trace: None,
        };
        let refused = svc.handle_with_meta(&disclose("alice", 2, "hiv_pos", 0b00), &meta);
        let Response::Error { code, .. } = &refused else {
            panic!("expected draining error, got {refused:?}");
        };
        assert_eq!(*code, ErrorCode::Draining);
        // Reads still serve while draining.
        assert!(matches!(
            svc.handle(&Request::SessionInfo {
                user: "alice".to_owned()
            }),
            Response::SessionInfo(_)
        ));
        assert!(matches!(svc.handle(&Request::Ping), Response::Pong));
        // The refusal was not remembered: once the flag clears (e.g. the
        // id is replayed against a healthy instance), it re-executes.
        svc.set_draining(false);
        let retried = svc.handle_with_meta(&disclose("alice", 2, "hiv_pos", 0b00), &meta);
        assert!(matches!(retried, Response::Entry(_)), "got {retried:?}");
        assert_eq!(svc.sessions.get("alice").unwrap().disclosures, 2);
    }

    #[test]
    fn cache_only_serves_cached_verdicts_and_fails_closed_on_misses() {
        let svc = hospital_service(PriorAssumption::Product);
        // Warm the verdict cache with a healthy decision.
        let warmed = svc.handle(&disclose("mallory", 1, "hiv_pos", 0b11));
        let Response::Entry(warmed) = warmed else {
            panic!("expected entry");
        };
        assert_eq!(warmed.finding, Finding::Flagged);
        // Teach the queue-wait EWMA sustained pressure far over 4x the
        // target: the ladder escalates to CacheOnly.
        let target = svc.admission().options().target_wait_micros;
        for _ in 0..64 {
            svc.admission().observe_wait(target * 16);
        }
        // A cached decision still serves — byte-identical to healthy.
        let resp = svc.handle(&disclose("trent", 2, "hiv_pos", 0b11));
        assert_eq!(svc.degradation_mode(), DegradationMode::CacheOnly);
        let Response::Entry(cached) = resp else {
            panic!("expected cached entry, got {resp:?}");
        };
        assert_eq!(cached.finding, Finding::Flagged);
        assert_eq!(cached.explanation, warmed.explanation);
        assert_eq!(svc.metrics().computed, 1, "nothing recomputed");
        // An uncached decision fails closed with a retry hint, and the
        // session is left untouched for the retry.
        let resp = svc.handle(&disclose("pat", 3, "transfusions", 0b11));
        let Response::Error {
            code,
            retry_after_ms,
            ..
        } = resp
        else {
            panic!("expected fail-closed error, got {resp:?}");
        };
        assert_eq!(code, ErrorCode::Overloaded);
        assert!(retry_after_ms.is_some());
        assert!(
            svc.sessions.get("pat").is_none(),
            "a refused disclosure must not mutate the session"
        );
        assert_eq!(svc.metrics().admission_rejects_degraded, 1);
    }

    #[test]
    fn fairness_throttles_one_user_without_starving_others() {
        let schema = Schema::from_names(&["hiv_pos", "transfusions"]).unwrap();
        let svc = AuditService::new(
            schema,
            ServiceConfig {
                assumption: PriorAssumption::Unrestricted,
                workers: 2,
                fairness_rate_per_sec: 1,
                fairness_burst: 2,
                retry_after_ms: 35,
                ..ServiceConfig::default()
            },
        );
        // Negative-gated disclosures: cheap, deterministic, no solver.
        for t in 1..=2 {
            let r = svc.handle(&disclose("storm", t, "hiv_pos", 0b00));
            assert!(matches!(r, Response::Entry(_)), "got {r:?}");
        }
        let resp = svc.handle(&disclose("storm", 3, "hiv_pos", 0b00));
        let Response::Error {
            code,
            retry_after_ms,
            ..
        } = resp
        else {
            panic!("expected fairness rejection, got {resp:?}");
        };
        assert_eq!(code, ErrorCode::Overloaded);
        assert_eq!(retry_after_ms, Some(35));
        assert_eq!(svc.metrics().admission_rejects_fairness, 1);
        // Another user's bucket is untouched.
        let r = svc.handle(&disclose("bystander", 1, "hiv_pos", 0b00));
        assert!(matches!(r, Response::Entry(_)), "got {r:?}");
    }

    #[test]
    fn fsync_stall_freezes_disclosures_but_not_reads() {
        use epi_wal::testdir::TempDir;
        let tmp = TempDir::new("svc-freeze");
        let schema = Schema::from_names(&["hiv_pos", "transfusions"]).unwrap();
        let svc = AuditService::open(
            schema,
            ServiceConfig {
                assumption: PriorAssumption::Unrestricted,
                workers: 1,
                data_dir: Some(tmp.path().to_path_buf()),
                wal_fsync: FsyncPolicy::Always,
                // 1ms EWMA threshold; the injected 20ms stall crosses it
                // after a single sync (20ms / 8 = 2.5ms).
                freeze_fsync_stall_micros: 1_000,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let r = svc.handle(&disclose("alice", 1, "hiv_pos", 0b00));
        assert!(matches!(r, Response::Entry(_)), "healthy disk: {r:?}");
        // The very first fsync on a cold file can be slow enough to
        // seed the EWMA above the 1ms threshold on its own. Read-only
        // probes run a ladder evaluation each, so the idle decay walks
        // the EWMA back down before the stall is injected.
        for _ in 0..500 {
            if svc.wal().unwrap().fsync_ewma_micros() < 1_000 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
            let _ = svc.handle(&Request::Health);
        }
        assert!(
            svc.wal().unwrap().fsync_ewma_micros() < 1_000,
            "fsync EWMA never settled on a healthy disk"
        );
        svc.wal()
            .unwrap()
            .set_fsync_stall(Some(Duration::from_millis(20)));
        // This disclosure still lands (slowly) — its syncs teach the
        // EWMA the disk has stalled.
        let r = svc.handle(&disclose("alice", 2, "hiv_pos", 0b00));
        assert!(matches!(r, Response::Entry(_)), "stall teaches: {r:?}");
        // The next one finds the ladder frozen and is refused up front.
        let resp = svc.handle(&disclose("alice", 3, "hiv_pos", 0b00));
        let Response::Error { code, .. } = resp else {
            panic!("expected frozen refusal, got {resp:?}");
        };
        assert_eq!(code, ErrorCode::Storage);
        assert_eq!(svc.degradation_mode(), DegradationMode::Frozen);
        assert_eq!(svc.sessions.get("alice").unwrap().disclosures, 2);
        // Reads keep serving while frozen.
        assert!(matches!(
            svc.handle(&Request::SessionInfo {
                user: "alice".to_owned()
            }),
            Response::SessionInfo(_)
        ));
        let Response::Health(h) = svc.handle(&Request::Health) else {
            panic!("expected health response");
        };
        assert_eq!(h.mode, "frozen");
        assert!(!h.ready);
        // Liveness: once the disk recovers, the freeze must not latch.
        // Frozen admits no disclosures (so no syncs, so no fresh EWMA
        // samples); read-only probes drive the idle decay until a
        // disclosure is admitted and durably recorded again.
        svc.wal().unwrap().set_fsync_stall(None);
        for _ in 0..500 {
            if svc.degradation_mode() != DegradationMode::Frozen {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
            let _ = svc.handle(&Request::Health);
        }
        let r = svc.handle(&disclose("alice", 3, "hiv_pos", 0b00));
        assert!(matches!(r, Response::Entry(_)), "thawed: {r:?}");
        assert_eq!(svc.sessions.get("alice").unwrap().disclosures, 3);
    }

    #[test]
    fn shed_mode_surfaces_overloaded_with_backoff_hint() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        // One worker that stalls on a flag, capacity-1 queue, shed mode.
        let stall = Arc::new(AtomicBool::new(true));
        let entered = Arc::new(AtomicUsize::new(0));
        let (hook_stall, hook_entered) = (Arc::clone(&stall), Arc::clone(&entered));
        let hook: FaultHook = Arc::new(move |_k| {
            hook_entered.fetch_add(1, Ordering::SeqCst);
            while hook_stall.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let schema = Schema::from_names(&["hiv_pos", "transfusions"]).unwrap();
        let svc = Arc::new(AuditService::with_fault_hook(
            schema,
            ServiceConfig {
                assumption: PriorAssumption::Product,
                workers: 1,
                queue_capacity: 1,
                queue_policy: QueuePolicy::Shed,
                retry_after_ms: 70,
                ..ServiceConfig::default()
            },
            Some(hook),
        ));
        // Occupy the worker with a first decision... (the three requests
        // disclose *different* sets — distinct decision keys, so none of
        // them coalesces with another)
        let svc1 = Arc::clone(&svc);
        let first = std::thread::spawn(move || {
            svc1.handle(&disclose("u0", 1, "hiv_pos | transfusions", 0b01))
        });
        while entered.load(Ordering::SeqCst) < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...fill the single queue slot with a second distinct one...
        let svc2 = Arc::clone(&svc);
        let second =
            std::thread::spawn(move || svc2.handle(&disclose("u1", 1, "transfusions", 0b11)));
        for _ in 0..500 {
            if svc.metrics().decide_requests >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // The second submission increments `decide_requests` just before
        // enqueueing; give it a beat to actually occupy the slot.
        std::thread::sleep(Duration::from_millis(10));
        let busy = [first, second];
        let resp = svc.handle(&disclose("mallory", 1, "hiv_pos", 0b11));
        let Response::Error {
            code,
            retry_after_ms,
            ..
        } = resp
        else {
            panic!("expected overloaded error, got {resp:?}");
        };
        assert_eq!(code, ErrorCode::Overloaded);
        assert_eq!(retry_after_ms, Some(70));
        assert_eq!(svc.metrics().shed_requests, 1);
        stall.store(false, Ordering::SeqCst);
        for h in busy {
            let r = h.join().unwrap();
            assert!(matches!(r, Response::Entry(_)), "got {r:?}");
        }
    }

    fn budget_service(budget: BudgetOptions) -> AuditService {
        let schema = Schema::from_names(&["hiv_pos", "transfusions"]).unwrap();
        AuditService::new(
            schema,
            ServiceConfig {
                assumption: PriorAssumption::Product,
                workers: 1,
                budget,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn budget_op_reports_ledger_spend_and_digest() {
        let svc = budget_service(BudgetOptions {
            cap_micros: 3_000_000,
            ..BudgetOptions::default()
        });
        let resp = svc.handle(&Request::Budget {
            user: "ghost".to_owned(),
        });
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "unknown users are a bad request, got {resp:?}"
        );
        // A direct hit carries the maximal risk score of 1.0.
        let r = svc.handle(&disclose("mallory", 1, "hiv_pos", 0b11));
        let Response::Entry(e) = r else {
            panic!("expected entry, got {r:?}");
        };
        assert_eq!(e.risk_micros, Some(1_000_000));
        assert_eq!(e.budget_remaining_micros, Some(2_000_000));
        let resp = svc.handle(&Request::Budget {
            user: "mallory".to_owned(),
        });
        let Response::Budget(info) = resp else {
            panic!("expected budget info, got {resp:?}");
        };
        assert_eq!(info.user, "mallory");
        assert_eq!(info.disclosures, 1);
        assert_eq!(info.risk_sum, 1_000_000);
        assert_eq!(info.risk_max, 1_000_000);
        assert_eq!(info.survival, 0, "a certain disclosure exhausts survival");
        assert_eq!(info.spent, 1_000_000);
        assert_eq!(info.cap, 3_000_000);
        assert_eq!(info.remaining, 2_000_000);
        assert_eq!(info.compose, "sum");
        let session = svc.sessions.get("mallory").unwrap();
        assert_eq!(info.digest, format!("{:08x}", ledger_digest(&session)));
    }

    #[test]
    fn exhausted_budget_denies_in_o1_without_touching_the_solver() {
        let svc = budget_service(BudgetOptions {
            cap_micros: 2_000_000,
            ..BudgetOptions::default()
        });
        for t in 1..=2 {
            let r = svc.handle(&disclose("mallory", t, "hiv_pos", 0b11));
            assert!(matches!(r, Response::Entry(_)), "got {r:?}");
        }
        let m = svc.metrics();
        assert_eq!(m.budget_exhausted_denials, 0);
        let decide_before = m.decide_requests;
        // Spent 2.0 of 2.0: the deny threshold (the cap, by default) is
        // reached, so the next disclosure is refused on a session-store
        // lookup alone — no compilation, no queueing, no solver work.
        let resp = svc.handle(&disclose("mallory", 3, "hiv_pos", 0b11));
        let Response::Error { code, message, .. } = resp else {
            panic!("expected budget denial, got {resp:?}");
        };
        assert_eq!(code, ErrorCode::BudgetExhausted);
        assert!(message.contains("mallory"), "names the user: {message}");
        let m = svc.metrics();
        assert_eq!(m.budget_exhausted_denials, 1);
        assert_eq!(m.decide_requests, decide_before, "solver path untouched");
        assert_eq!(
            svc.sessions.get("mallory").unwrap().disclosures,
            2,
            "a denied disclosure must not mutate the session"
        );
        // Other users still serve: the budget is per-user, not global.
        let r = svc.handle(&disclose("trent", 4, "hiv_pos", 0b11));
        assert!(matches!(r, Response::Entry(_)), "got {r:?}");
    }

    #[test]
    fn warn_threshold_crossing_counts_once_per_disclosure_past_it() {
        let svc = budget_service(BudgetOptions {
            cap_micros: 10_000_000,
            warn_micros: Some(1_500_000),
            ..BudgetOptions::default()
        });
        svc.handle(&disclose("mallory", 1, "hiv_pos", 0b11));
        assert_eq!(svc.metrics().budget_warnings, 0, "1.0 of 10.0: under warn");
        svc.handle(&disclose("mallory", 2, "hiv_pos", 0b11));
        assert_eq!(svc.metrics().budget_warnings, 1, "2.0 of 10.0: past warn");
        assert_eq!(svc.metrics().budget_spent_high_water_micros, 2_000_000);
        assert_eq!(svc.metrics().budget_exhausted_denials, 0);
    }

    #[test]
    fn cache_only_hits_serve_live_budget_not_the_cached_decisions() {
        // Regression (PR 9): the verdict cache stores decisions, and a
        // decision's risk depends only on the (audit, disclosed) pair —
        // but `budget_remaining` moves with every disclosure. A CacheOnly
        // hit must report the user's budget at *this* ledger epoch, never
        // the epoch the verdict was cached at.
        let svc = budget_service(BudgetOptions {
            cap_micros: 5_000_000,
            ..BudgetOptions::default()
        });
        let r = svc.handle(&disclose("mallory", 1, "hiv_pos", 0b11));
        let Response::Entry(warmed) = r else {
            panic!("expected entry, got {r:?}");
        };
        let target = svc.admission().options().target_wait_micros;
        for _ in 0..64 {
            svc.admission().observe_wait(target * 16);
        }
        let r1 = svc.handle(&disclose("trent", 2, "hiv_pos", 0b11));
        assert_eq!(svc.degradation_mode(), DegradationMode::CacheOnly);
        let r2 = svc.handle(&disclose("trent", 3, "hiv_pos", 0b11));
        let (Response::Entry(e1), Response::Entry(e2)) = (r1, r2) else {
            panic!("expected cached entries");
        };
        assert_eq!(svc.metrics().computed, 1, "both hits came from the cache");
        assert_eq!(e1.risk_micros, warmed.risk_micros, "risk is set-determined");
        assert_eq!(e2.risk_micros, warmed.risk_micros);
        assert_eq!(e1.budget_remaining_micros, Some(4_000_000));
        assert_eq!(
            e2.budget_remaining_micros,
            Some(3_000_000),
            "second hit reflects the ledger after the first"
        );
    }
}
