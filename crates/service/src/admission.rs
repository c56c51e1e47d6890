//! Adaptive overload control: AIMD admission limiting, the degradation
//! ladder, and per-user fairness token buckets.
//!
//! The daemon's original overload story was one static knob — the
//! bounded decision queue with [`crate::QueuePolicy::Shed`]. This module
//! replaces that cliff with a closed loop: an [`AdmissionController`]
//! tracks the observed queue wait as an EWMA and adjusts a concurrency
//! limit AIMD-style (additive increase while waits stay under the
//! target, multiplicative decrease when they overshoot), a
//! [`DegradationLadder`] maps sustained pressure and storage trouble to
//! an explicit serving mode, and [`TokenBuckets`] keeps one user's storm
//! from starving a shard's other users.
//!
//! Everything here **fails closed**: a degraded daemon may refuse to
//! answer, but it never answers `safe` because it was too busy to check
//! (the conservative stance the paper's §3.3 semantics demand of a
//! confidentiality gate).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Configuration for the [`AdmissionController`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionOptions {
    /// Master switch. Disabled, the controller admits everything and the
    /// limit gauge stays at `max_limit`.
    pub enabled: bool,
    /// Queue-wait target in microseconds: the latency the AIMD loop
    /// steers toward. Waits above it shrink the limit, waits below it
    /// grow it back.
    pub target_wait_micros: u64,
    /// Floor for the adaptive limit (never shed below this concurrency).
    pub min_limit: usize,
    /// Ceiling for the adaptive limit; also the initial limit, so an
    /// unloaded daemon behaves exactly like the pre-adaptive one.
    pub max_limit: usize,
}

impl Default for AdmissionOptions {
    fn default() -> AdmissionOptions {
        AdmissionOptions {
            enabled: true,
            target_wait_micros: 5_000,
            min_limit: 1,
            max_limit: 1024,
        }
    }
}

/// Adaptive concurrency limiter for the decision pool.
///
/// `inflight` counts admitted decisions (queued or computing). The limit
/// moves AIMD-style on every completed queue wait the pool reports via
/// [`AdmissionController::observe_wait`]: a wait over twice the target
/// halves the limit (at most once per in-flight generation, so one burst
/// doesn't collapse it to the floor), and a full limit's worth of
/// on-target waits grows it by one. The EWMA (α = 1/8) doubles as the
/// deadline-aware admission estimate: a request whose remaining budget
/// is below the estimated queue wait is rejected *before* it occupies a
/// queue slot, because it would time out anyway and steal a worker from
/// a request that could still succeed.
#[derive(Debug)]
pub struct AdmissionController {
    opts: AdmissionOptions,
    limit: AtomicUsize,
    inflight: AtomicUsize,
    /// EWMA of observed queue wait, microseconds (fixed-point ×16).
    wait_ewma_x16: AtomicU64,
    /// Observations since the last additive increase.
    below_target: AtomicU64,
    /// Observations since the last multiplicative decrease (cooldown).
    since_decrease: AtomicU64,
}

impl AdmissionController {
    /// Creates a controller starting wide open at `max_limit`.
    pub fn new(opts: AdmissionOptions) -> AdmissionController {
        AdmissionController {
            opts,
            limit: AtomicUsize::new(opts.max_limit.max(1)),
            inflight: AtomicUsize::new(0),
            wait_ewma_x16: AtomicU64::new(0),
            below_target: AtomicU64::new(0),
            since_decrease: AtomicU64::new(0),
        }
    }

    /// The options this controller runs with.
    pub fn options(&self) -> &AdmissionOptions {
        &self.opts
    }

    /// Current adaptive limit.
    pub fn limit(&self) -> usize {
        self.limit.load(Ordering::Relaxed)
    }

    /// Decisions currently admitted (queued or computing).
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Estimated queue wait for a newly admitted request, microseconds.
    pub fn estimated_wait_micros(&self) -> u64 {
        self.wait_ewma_x16.load(Ordering::Relaxed) / 16
    }

    /// Whether the observed queue wait exceeds the AIMD target — the
    /// ladder's pressure signal.
    pub fn over_target(&self) -> bool {
        self.opts.enabled && self.estimated_wait_micros() > self.opts.target_wait_micros
    }

    /// Admits one decision, or reports the concurrency limit is reached.
    /// Callers must pair a `true` return with exactly one
    /// [`AdmissionController::release`].
    pub fn try_admit(&self) -> bool {
        if !self.opts.enabled {
            self.inflight.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let limit = self.limit();
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= limit {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Admits one decision without consulting the limit — used by
    /// blocking (backpressure) submitters, which are only *counted* so
    /// the in-flight gauge stays truthful. Pair with
    /// [`AdmissionController::release`] like a successful
    /// [`AdmissionController::try_admit`].
    pub fn admit_unchecked(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Releases one admitted decision.
    pub fn release(&self) {
        let _ = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Feeds one observed queue wait into the EWMA and the AIMD loop.
    /// Returns the updated limit.
    pub fn observe_wait(&self, wait_micros: u64) -> usize {
        // EWMA with α = 1/8 in ×16 fixed point: new = old + (x - old)/8.
        let _ = self
            .wait_ewma_x16
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                let sample = wait_micros.saturating_mul(16);
                Some(old - old / 8 + sample / 8)
            });
        if !self.opts.enabled {
            return self.limit();
        }
        let limit = self.limit();
        if wait_micros > self.opts.target_wait_micros.saturating_mul(2) {
            // Multiplicative decrease, with a one-generation cooldown:
            // every wait observed while the queue drains one overloaded
            // burst reflects the *same* congestion event, and halving on
            // each would collapse the limit to the floor on one spike.
            let since = self.since_decrease.fetch_add(1, Ordering::Relaxed);
            if since >= limit as u64 {
                self.since_decrease.store(0, Ordering::Relaxed);
                self.below_target.store(0, Ordering::Relaxed);
                let next = (limit / 2).max(self.opts.min_limit);
                self.limit.store(next, Ordering::Relaxed);
                return next;
            }
        } else if wait_micros <= self.opts.target_wait_micros {
            // Additive increase once a full limit's worth of decisions
            // has cleared the queue on target.
            let below = self.below_target.fetch_add(1, Ordering::Relaxed) + 1;
            if below >= limit as u64 {
                self.below_target.store(0, Ordering::Relaxed);
                let next = (limit + 1).min(self.opts.max_limit);
                self.limit.store(next, Ordering::Relaxed);
                return next;
            }
        }
        limit
    }

    /// Decays the wait EWMA one step toward zero when no decision is in
    /// flight. The EWMA normally moves only when the pool dequeues
    /// work; once the ladder degrades to `CacheOnly`, nothing enqueues
    /// anymore, and without this decay the pressure reading would
    /// freeze above the de-escalation threshold and latch the
    /// degradation forever. The service invokes this on every ladder
    /// evaluation, so a degraded-but-idle daemon recovers at the pace
    /// requests keep probing it.
    pub fn decay_wait_when_idle(&self) {
        if self.inflight.load(Ordering::Relaxed) > 0 {
            return;
        }
        let _ = self
            .wait_ewma_x16
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some(old - old / 8)
            });
    }
}

/// The degradation ladder's serving modes, in order of severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationMode {
    /// Full service.
    Normal = 0,
    /// Queue waits are over target: requests beyond the admission limit
    /// are shed immediately with a retry hint instead of blocking.
    Shedding = 1,
    /// Sustained heavy pressure: decisions are answered from the verdict
    /// cache only; uncached decisions fail closed with a retry hint.
    CacheOnly = 2,
    /// The disclosure log is quarantined or its fsyncs have stalled:
    /// disclosures are refused outright (they could not be made durable);
    /// `session`, `stats`, `metrics`, `trace` and `health` still serve.
    Frozen = 3,
}

impl DegradationMode {
    /// Stable wire spelling, as the `health` op reports it.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradationMode::Normal => "normal",
            DegradationMode::Shedding => "shedding",
            DegradationMode::CacheOnly => "cache_only",
            DegradationMode::Frozen => "frozen",
        }
    }

    /// Gauge encoding for the metrics registry.
    pub fn as_gauge(self) -> u64 {
        self as u64
    }

    fn from_gauge(v: u64) -> DegradationMode {
        match v {
            1 => DegradationMode::Shedding,
            2 => DegradationMode::CacheOnly,
            3 => DegradationMode::Frozen,
            _ => DegradationMode::Normal,
        }
    }
}

/// Pressure signals the ladder folds into a mode, sampled by the service
/// on each evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct LadderSignals {
    /// EWMA of decision-queue wait, microseconds.
    pub queue_wait_micros: u64,
    /// The AIMD target those waits are steered toward.
    pub target_wait_micros: u64,
    /// The admission limit has been driven to its floor (the controller
    /// halved as far as it can — reactor/backpressure-grade overload).
    pub limit_at_floor: bool,
    /// One or more WAL shards are quarantined after an I/O failure.
    pub wal_quarantined: bool,
    /// The WAL's fsyncs have stalled past the freeze threshold.
    pub wal_stalled: bool,
}

/// Hysteretic state machine over [`DegradationMode`].
///
/// Escalation is immediate (overload must be answered now); de-escalation
/// requires the signal to fall to *half* the escalation threshold, so the
/// ladder doesn't flap around a boundary. `Frozen` is level-triggered by
/// the storage signals: it clears the moment the log is healthy again
/// (which, for a quarantine, means after a restart).
#[derive(Debug, Default)]
pub struct DegradationLadder {
    mode: AtomicU64,
}

impl DegradationLadder {
    /// Creates a ladder in [`DegradationMode::Normal`].
    pub fn new() -> DegradationLadder {
        DegradationLadder::default()
    }

    /// The mode of the last evaluation.
    pub fn current(&self) -> DegradationMode {
        DegradationMode::from_gauge(self.mode.load(Ordering::Relaxed))
    }

    /// Folds fresh signals into a mode and stores it.
    pub fn evaluate(&self, s: LadderSignals) -> DegradationMode {
        let prev = self.current();
        let target = s.target_wait_micros.max(1);
        let next = if s.wal_quarantined || s.wal_stalled {
            DegradationMode::Frozen
        } else {
            // CacheOnly: waits at 4x target, or the limit pinned to its
            // floor while still over target (shrinking further is
            // impossible, so shedding alone has failed).
            let cache_only_up = s.queue_wait_micros > target.saturating_mul(4)
                || (s.limit_at_floor && s.queue_wait_micros > target);
            let shedding_up = s.queue_wait_micros > target;
            let cache_only_down = s.queue_wait_micros > target.saturating_mul(2);
            let shedding_down = s.queue_wait_micros > target / 2;
            match prev {
                // De-escalate one rung at a time, and only once the
                // pressure has genuinely receded (hysteresis).
                DegradationMode::Frozen | DegradationMode::CacheOnly => {
                    if cache_only_up {
                        DegradationMode::CacheOnly
                    } else if cache_only_down || shedding_down {
                        DegradationMode::Shedding
                    } else {
                        DegradationMode::Normal
                    }
                }
                DegradationMode::Shedding => {
                    if cache_only_up {
                        DegradationMode::CacheOnly
                    } else if shedding_down {
                        DegradationMode::Shedding
                    } else {
                        DegradationMode::Normal
                    }
                }
                DegradationMode::Normal => {
                    if cache_only_up {
                        DegradationMode::CacheOnly
                    } else if shedding_up {
                        DegradationMode::Shedding
                    } else {
                        DegradationMode::Normal
                    }
                }
            }
        };
        self.mode.store(next.as_gauge(), Ordering::Relaxed);
        next
    }
}

/// Per-user token buckets: one user's request storm drains only their
/// own bucket, so a shard's other users keep being served.
///
/// Buckets refill at `rate_per_sec` up to `burst`; a user with no bucket
/// yet starts full. The map is bounded: when it reaches `capacity`, the
/// stalest bucket that is already full (i.e. carries no throttling
/// state) is evicted first, and if every bucket is mid-refill the oldest
/// is evicted anyway — an attacker cannot grow the map without bound by
/// minting user names.
#[derive(Debug)]
pub struct TokenBuckets {
    rate_per_sec: u32,
    burst: u32,
    capacity: usize,
    buckets: Mutex<HashMap<String, Bucket>>,
}

#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

impl TokenBuckets {
    /// Creates the fairness gate. `rate_per_sec == 0` disables it (every
    /// [`TokenBuckets::try_take`] succeeds).
    pub fn new(rate_per_sec: u32, burst: u32, capacity: usize) -> TokenBuckets {
        TokenBuckets {
            rate_per_sec,
            burst: burst.max(1),
            capacity: capacity.max(1),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Whether the gate is active.
    pub fn enabled(&self) -> bool {
        self.rate_per_sec > 0
    }

    /// Takes one token from `user`'s bucket. `false` means the user is
    /// over their rate and the request should be rejected with a retry
    /// hint.
    pub fn try_take(&self, user: &str) -> bool {
        if !self.enabled() {
            return true;
        }
        let now = Instant::now();
        let mut buckets = self
            .buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !buckets.contains_key(user) && buckets.len() >= self.capacity {
            let full = self.burst as f64;
            let victim = buckets
                .iter()
                .min_by(|(_, a), (_, b)| {
                    // Prefer evicting full (stateless) buckets; among
                    // those, the stalest.
                    let a_key = (a.tokens < full, a.refilled);
                    let b_key = (b.tokens < full, b.refilled);
                    a_key
                        .partial_cmp(&b_key)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(user, _)| user.clone());
            if let Some(victim) = victim {
                buckets.remove(&victim);
            }
        }
        let bucket = buckets.entry(user.to_owned()).or_insert(Bucket {
            tokens: self.burst as f64,
            refilled: now,
        });
        let elapsed = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.rate_per_sec as f64).min(self.burst as f64);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(target: u64, min: usize, max: usize) -> AdmissionOptions {
        AdmissionOptions {
            enabled: true,
            target_wait_micros: target,
            min_limit: min,
            max_limit: max,
        }
    }

    #[test]
    fn limit_halves_under_sustained_overshoot_and_recovers_on_target() {
        let c = AdmissionController::new(opts(1_000, 2, 16));
        assert_eq!(c.limit(), 16);
        // One generation of waits at 4x target: a single halving.
        for _ in 0..=16 {
            c.observe_wait(4_000);
        }
        assert_eq!(c.limit(), 8, "one congestion generation, one halving");
        // Sustained overshoot keeps halving down to the floor…
        for _ in 0..100 {
            c.observe_wait(10_000);
        }
        assert_eq!(c.limit(), 2, "floor holds");
        // …and on-target waits grow it back additively, one per limit's
        // worth of observations.
        for _ in 0..2 {
            c.observe_wait(500);
        }
        assert_eq!(c.limit(), 3);
        for _ in 0..200 {
            c.observe_wait(500);
        }
        assert_eq!(c.limit(), 16, "ceiling holds");
    }

    #[test]
    fn admission_respects_the_limit_and_releases() {
        let c = AdmissionController::new(opts(1_000, 1, 2));
        assert!(c.try_admit());
        assert!(c.try_admit());
        assert!(!c.try_admit(), "limit 2 admits exactly 2");
        c.release();
        assert!(c.try_admit());
        assert_eq!(c.inflight(), 2);
        // Disabled controller admits regardless.
        let off = AdmissionController::new(AdmissionOptions {
            enabled: false,
            ..opts(1_000, 1, 1)
        });
        for _ in 0..10 {
            assert!(off.try_admit());
        }
    }

    #[test]
    fn ewma_tracks_waits_and_estimates_admission_wait() {
        let c = AdmissionController::new(opts(1_000, 1, 64));
        assert_eq!(c.estimated_wait_micros(), 0);
        for _ in 0..64 {
            c.observe_wait(8_000);
        }
        let est = c.estimated_wait_micros();
        assert!(
            (7_000..=8_000).contains(&est),
            "EWMA converges toward the sample: {est}"
        );
        assert!(c.over_target());
    }

    #[test]
    fn idle_decay_unlatches_a_degraded_controller() {
        let c = AdmissionController::new(opts(1_000, 1, 16));
        for _ in 0..32 {
            c.observe_wait(10_000);
        }
        assert!(c.estimated_wait_micros() > 4_000, "pressure is latched");
        // In flight: the reading must hold — work is still queued, so
        // the pressure is real and decaying it would lie to the ladder.
        assert!(c.try_admit());
        let held = c.estimated_wait_micros();
        c.decay_wait_when_idle();
        assert_eq!(c.estimated_wait_micros(), held);
        c.release();
        // Idle: repeated probes (one ladder evaluation per incoming
        // request) walk the EWMA back below every ladder threshold.
        for _ in 0..64 {
            c.decay_wait_when_idle();
        }
        assert!(
            c.estimated_wait_micros() < 500,
            "idle decay must release the latch: {}",
            c.estimated_wait_micros()
        );
    }

    #[test]
    fn ladder_escalates_immediately_and_de_escalates_with_hysteresis() {
        let ladder = DegradationLadder::new();
        let sig = |wait: u64| LadderSignals {
            queue_wait_micros: wait,
            target_wait_micros: 1_000,
            ..LadderSignals::default()
        };
        assert_eq!(ladder.evaluate(sig(100)), DegradationMode::Normal);
        assert_eq!(ladder.evaluate(sig(1_500)), DegradationMode::Shedding);
        assert_eq!(ladder.evaluate(sig(5_000)), DegradationMode::CacheOnly);
        // Pressure drops below 4x but stays above 2x: hold at a rung
        // below, not straight to Normal.
        assert_eq!(ladder.evaluate(sig(3_000)), DegradationMode::Shedding);
        // And Shedding clears only below target/2.
        assert_eq!(ladder.evaluate(sig(700)), DegradationMode::Shedding);
        assert_eq!(ladder.evaluate(sig(400)), DegradationMode::Normal);
    }

    #[test]
    fn storage_trouble_freezes_and_clears_level_triggered() {
        let ladder = DegradationLadder::new();
        let quarantined = LadderSignals {
            target_wait_micros: 1_000,
            wal_quarantined: true,
            ..LadderSignals::default()
        };
        assert_eq!(ladder.evaluate(quarantined), DegradationMode::Frozen);
        let stalled = LadderSignals {
            target_wait_micros: 1_000,
            wal_stalled: true,
            ..LadderSignals::default()
        };
        assert_eq!(ladder.evaluate(stalled), DegradationMode::Frozen);
        // Healthy log, no queue pressure: steps down through the ladder.
        let healthy = LadderSignals {
            target_wait_micros: 1_000,
            ..LadderSignals::default()
        };
        assert_eq!(ladder.evaluate(healthy), DegradationMode::Normal);
    }

    #[test]
    fn limit_at_floor_escalates_to_cache_only() {
        let ladder = DegradationLadder::new();
        let s = LadderSignals {
            queue_wait_micros: 1_500, // over target but under 4x
            target_wait_micros: 1_000,
            limit_at_floor: true,
            ..LadderSignals::default()
        };
        assert_eq!(ladder.evaluate(s), DegradationMode::CacheOnly);
    }

    #[test]
    fn token_buckets_throttle_one_user_not_the_other() {
        let buckets = TokenBuckets::new(1, 3, 64);
        for _ in 0..3 {
            assert!(buckets.try_take("storm"));
        }
        assert!(!buckets.try_take("storm"), "burst exhausted");
        assert!(
            buckets.try_take("bystander"),
            "another user's bucket is untouched"
        );
        // rate 0 disables the gate entirely.
        let off = TokenBuckets::new(0, 1, 1);
        for _ in 0..100 {
            assert!(off.try_take("anyone"));
        }
    }

    #[test]
    fn bucket_map_stays_bounded_under_user_minting() {
        let buckets = TokenBuckets::new(1, 2, 8);
        for i in 0..1_000 {
            let _ = buckets.try_take(&format!("user{i}"));
        }
        let held = buckets
            .buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        assert!(held <= 8, "map grew to {held} despite capacity 8");
    }

    #[test]
    fn mode_strings_and_gauges_are_stable() {
        for (mode, s, g) in [
            (DegradationMode::Normal, "normal", 0),
            (DegradationMode::Shedding, "shedding", 1),
            (DegradationMode::CacheOnly, "cache_only", 2),
            (DegradationMode::Frozen, "frozen", 3),
        ] {
            assert_eq!(mode.as_str(), s);
            assert_eq!(mode.as_gauge(), g);
            assert_eq!(DegradationMode::from_gauge(g), mode);
        }
    }
}
