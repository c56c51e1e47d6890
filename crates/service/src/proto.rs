//! The daemon's wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! Each line on a connection is one JSON object. Requests carry an `"op"`
//! tag, responses a `"kind"` tag. A worked example lives in
//! `docs/PROTOCOL.md` at the repository root.
//!
//! # Fault-tolerance envelope
//!
//! Requests may carry two optional members next to the `"op"` tag
//! ([`RequestMeta`]):
//!
//! * `"id"` — an opaque client-chosen request identifier. The server
//!   echoes it on the response line and uses it to de-duplicate retries
//!   of non-retryable outcomes, making retries idempotent.
//! * `"deadline_ms"` — a wall-clock budget for the decision behind this
//!   request. Expired decisions fail *closed* (inconclusive, never
//!   `safe`).
//! * `"trace"` — a client-minted trace identifier. Every span the request
//!   produces inside the daemon (accept, session, cache, queue, solver
//!   stages) carries it, and the `trace` operation filters by it. Absent
//!   on pre-tracing clients; responses never echo it (the `id` member
//!   already correlates lines).
//!
//! Error responses carry a machine-readable [`ErrorCode`] and, when the
//! error is retryable, a `"retry_after_ms"` hint. Both are omitted from
//! plain bad-request errors so pre-fault-tolerance response lines stay
//! byte-identical.

use epi_audit::auditor::ReportEntry;
use epi_json::{field, opt_field, Deserialize, Json, JsonError, Serialize};

use crate::metrics::Snapshot;

/// One protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Record a disclosure for `user` and decide its safety against the
    /// audit query. The database state at disclosure time is carried as a
    /// record-presence mask, exactly as [`epi_audit::DatabaseState`]
    /// stores it; the service evaluates the truthful answer itself.
    Disclose {
        /// The user receiving the answer.
        user: String,
        /// Logical disclosure time (non-decreasing per user).
        time: u64,
        /// The question asked, in the `epi-audit` query language.
        query: String,
        /// Record-presence mask of the database at disclosure time.
        state_mask: u32,
        /// The audited property, in the same query language.
        audit_query: String,
    },
    /// Decide the safety of `user`'s cumulative knowledge (the
    /// intersection of everything disclosed to them so far).
    Cumulative {
        /// The user to audit cumulatively.
        user: String,
        /// The audited property.
        audit_query: String,
    },
    /// Fetch a user's session sequence number and knowledge digest —
    /// no solver work, no session mutation.
    SessionInfo {
        /// The user asked about.
        user: String,
    },
    /// Fetch a user's exposure-budget ledger: the per-component risk
    /// aggregates, the spent/remaining budget under the configured
    /// compose rule, and a stable ledger digest. No solver work, no
    /// session mutation.
    Budget {
        /// The user asked about.
        user: String,
    },
    /// Fetch a metrics snapshot.
    Stats,
    /// Fetch recent spans from the daemon's trace ring, optionally
    /// filtered by the trace id the client attached to earlier requests.
    Trace {
        /// Only spans carrying this trace id (all spans when `None`).
        trace: Option<String>,
        /// At most this many spans, newest kept (server default applies
        /// when `None`).
        limit: Option<u64>,
        /// Read the slow-decision log instead of the main ring.
        slow: bool,
    },
    /// Fetch the metrics registry rendered in Prometheus text exposition
    /// format.
    MetricsText,
    /// Liveness/readiness probe: degradation mode, admission limit and
    /// whether the instance should receive new traffic. Cheap enough for
    /// a router to poll on every balancing decision.
    Health,
    /// Liveness check.
    Ping,
}

/// Optional per-request envelope members, parsed from the same JSON
/// object as the [`Request`] itself. Absent members are `None`; a request
/// without any envelope members is handled exactly as before the
/// envelope existed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RequestMeta {
    /// Client-chosen request identifier, echoed on the response line and
    /// used for idempotent retry de-duplication.
    pub id: Option<String>,
    /// Wall-clock budget for the decision, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Client-minted trace identifier propagated onto every span this
    /// request produces inside the daemon.
    pub trace: Option<String>,
}

impl RequestMeta {
    /// Extracts the envelope from a request object. Missing members are
    /// fine; present-but-mistyped members are a protocol error.
    pub fn from_json(v: &Json) -> Result<RequestMeta, JsonError> {
        Ok(RequestMeta {
            id: opt_field(v, "id")?,
            deadline_ms: opt_field(v, "deadline_ms")?,
            trace: opt_field(v, "trace")?,
        })
    }

    /// Appends the envelope members to an encoded request object (the
    /// client-side counterpart of [`RequestMeta::from_json`]).
    pub fn decorate(&self, encoded: Json) -> Json {
        let Json::Obj(mut members) = encoded else {
            return encoded;
        };
        if let Some(id) = &self.id {
            members.push(("id".to_owned(), Json::from(id.as_str())));
        }
        if let Some(ms) = self.deadline_ms {
            members.push(("deadline_ms".to_owned(), Json::from(ms)));
        }
        if let Some(trace) = &self.trace {
            members.push(("trace".to_owned(), Json::from(trace.as_str())));
        }
        Json::Obj(members)
    }
}

impl Serialize for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Disclose {
                user,
                time,
                query,
                state_mask,
                audit_query,
            } => Json::obj([
                ("op", Json::from("disclose")),
                ("user", Json::from(user.as_str())),
                ("time", Json::from(*time)),
                ("query", Json::from(query.as_str())),
                ("state_mask", Json::from(*state_mask)),
                ("audit_query", Json::from(audit_query.as_str())),
            ]),
            Request::Cumulative { user, audit_query } => Json::obj([
                ("op", Json::from("cumulative")),
                ("user", Json::from(user.as_str())),
                ("audit_query", Json::from(audit_query.as_str())),
            ]),
            Request::SessionInfo { user } => Json::obj([
                ("op", Json::from("session")),
                ("user", Json::from(user.as_str())),
            ]),
            Request::Budget { user } => Json::obj([
                ("op", Json::from("budget")),
                ("user", Json::from(user.as_str())),
            ]),
            Request::Stats => Json::obj([("op", Json::from("stats"))]),
            Request::Trace { trace, limit, slow } => {
                let mut members = vec![("op", Json::from("trace"))];
                if let Some(trace) = trace {
                    members.push(("trace", Json::from(trace.as_str())));
                }
                if let Some(limit) = limit {
                    members.push(("limit", Json::from(*limit)));
                }
                if *slow {
                    members.push(("slow", Json::from(true)));
                }
                Json::obj(members)
            }
            Request::MetricsText => Json::obj([("op", Json::from("metrics"))]),
            Request::Health => Json::obj([("op", Json::from("health"))]),
            Request::Ping => Json::obj([("op", Json::from("ping"))]),
        }
    }
}

impl Deserialize for Request {
    fn from_json(v: &Json) -> Result<Request, JsonError> {
        match field::<String>(v, "op")?.as_str() {
            "disclose" => Ok(Request::Disclose {
                user: field(v, "user")?,
                time: field(v, "time")?,
                query: field(v, "query")?,
                state_mask: field(v, "state_mask")?,
                audit_query: field(v, "audit_query")?,
            }),
            "cumulative" => Ok(Request::Cumulative {
                user: field(v, "user")?,
                audit_query: field(v, "audit_query")?,
            }),
            "session" => Ok(Request::SessionInfo {
                user: field(v, "user")?,
            }),
            "budget" => Ok(Request::Budget {
                user: field(v, "user")?,
            }),
            "stats" => Ok(Request::Stats),
            "trace" => Ok(Request::Trace {
                trace: opt_field(v, "trace")?,
                limit: opt_field(v, "limit")?,
                slow: opt_field(v, "slow")?.unwrap_or(false),
            }),
            "metrics" => Ok(Request::MetricsText),
            "health" => Ok(Request::Health),
            "ping" => Ok(Request::Ping),
            other => Err(JsonError::decode(format!("unknown op {other:?}"))),
        }
    }
}

/// Machine-readable classification of an `error` response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The request itself was invalid (bad JSON, unknown op, unparsable
    /// query, state mask out of range, out-of-order disclosure…).
    /// Retrying the identical request cannot succeed.
    #[default]
    BadRequest,
    /// The decision queue was full under load-shedding; retry after the
    /// hinted backoff.
    Overloaded,
    /// The request's deadline expired before a decision was attempted.
    /// The caller set the budget, so retrying with the same budget is
    /// unlikely to help; treat as an inconclusive (unsafe) outcome.
    DeadlineExceeded,
    /// The decision computation failed (worker panic). Possibly
    /// transient; retryable.
    WorkerFailed,
    /// The service's decision pool has shut down; do not retry against
    /// this instance.
    Shutdown,
    /// The service is gracefully draining: in-flight requests are being
    /// finished but no new work is accepted. Do not retry against this
    /// instance — re-route to another replica.
    Draining,
    /// The durable disclosure log rejected the write, so the disclosure
    /// was not applied. Not retryable from the client's side: the log is
    /// failing for an operational reason (disk full, I/O error) that a
    /// resend cannot fix, and the session state is unchanged.
    Storage,
    /// The user's cumulative exposure budget has crossed the deny
    /// threshold: the disclosure was refused *before* any solver work
    /// was enqueued, and the session state is unchanged. Not retryable —
    /// only an administrative session reset or a raised cap can admit
    /// further disclosures for this user.
    BudgetExhausted,
}

impl ErrorCode {
    /// Stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::WorkerFailed => "worker_failed",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Draining => "draining",
            ErrorCode::Storage => "storage",
            ErrorCode::BudgetExhausted => "budget_exhausted",
        }
    }

    /// Whether a client retry of the same request can succeed.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::WorkerFailed)
    }
}

impl Serialize for ErrorCode {
    fn to_json(&self) -> Json {
        Json::from(self.as_str())
    }
}

impl Deserialize for ErrorCode {
    fn from_json(v: &Json) -> Result<ErrorCode, JsonError> {
        match v.as_str() {
            Some("bad_request") => Ok(ErrorCode::BadRequest),
            Some("overloaded") => Ok(ErrorCode::Overloaded),
            Some("deadline_exceeded") => Ok(ErrorCode::DeadlineExceeded),
            Some("worker_failed") => Ok(ErrorCode::WorkerFailed),
            Some("shutdown") => Ok(ErrorCode::Shutdown),
            Some("draining") => Ok(ErrorCode::Draining),
            Some("storage") => Ok(ErrorCode::Storage),
            Some("budget_exhausted") => Ok(ErrorCode::BudgetExhausted),
            _ => Err(JsonError::decode("unknown error code")),
        }
    }
}

/// One span from the daemon's trace ring, as the `trace` operation
/// returns it. Wire counterpart of `epi_trace::SpanRecord` with owned
/// strings so it round-trips through JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSpan {
    /// Ring sequence number: a total order on spans (monotonic, gapless
    /// per daemon lifetime even when the ring laps).
    pub seq: u64,
    /// The request's trace id, when the request carried one.
    pub trace: Option<String>,
    /// Stage label (`server.handle`, `queue.wait`, `solver.branch_and_bound`, …).
    pub label: String,
    /// Span start, microseconds since the daemon's trace epoch.
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub duration_micros: u64,
    /// Optional free-form annotation (cache outcome, finding, …).
    pub detail: Option<String>,
}

impl Serialize for WireSpan {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("seq", Json::from(self.seq)),
            ("label", Json::from(self.label.as_str())),
            ("start_micros", Json::from(self.start_micros)),
            ("duration_micros", Json::from(self.duration_micros)),
        ];
        if let Some(trace) = &self.trace {
            members.push(("trace", Json::from(trace.as_str())));
        }
        if let Some(detail) = &self.detail {
            members.push(("detail", Json::from(detail.as_str())));
        }
        Json::obj(members)
    }
}

impl Deserialize for WireSpan {
    fn from_json(v: &Json) -> Result<WireSpan, JsonError> {
        Ok(WireSpan {
            seq: field(v, "seq")?,
            trace: opt_field(v, "trace")?,
            label: field(v, "label")?,
            start_micros: field(v, "start_micros")?,
            duration_micros: field(v, "duration_micros")?,
            detail: opt_field(v, "detail")?,
        })
    }
}

/// A user's session summary, as the `session` operation returns it.
///
/// The digest is a stable fingerprint of the session's cumulative
/// knowledge set (CRC-32 over the universe size and the set's blocks,
/// rendered as eight lowercase hex digits). Two replicas that recovered
/// the same disclosure stream report the same digest, making this the
/// cheap way to check recovery fidelity from the outside.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionInfo {
    /// The user asked about.
    pub user: String,
    /// How many disclosures the session has absorbed (its sequence
    /// number in the durable log).
    pub disclosures: u64,
    /// Logical time of the most recent disclosure.
    pub last_time: u64,
    /// Number of possible worlds still in the knowledge set.
    pub worlds: u64,
    /// Eight-hex-digit CRC-32 fingerprint of the knowledge set.
    pub digest: String,
}

impl Serialize for SessionInfo {
    fn to_json(&self) -> Json {
        Json::obj([
            ("user", Json::from(self.user.as_str())),
            ("disclosures", Json::from(self.disclosures)),
            ("last_time", Json::from(self.last_time)),
            ("worlds", Json::from(self.worlds)),
            ("digest", Json::from(self.digest.as_str())),
        ])
    }
}

impl Deserialize for SessionInfo {
    fn from_json(v: &Json) -> Result<SessionInfo, JsonError> {
        Ok(SessionInfo {
            user: field(v, "user")?,
            disclosures: field(v, "disclosures")?,
            last_time: field(v, "last_time")?,
            worlds: field(v, "worlds")?,
            digest: field(v, "digest")?,
        })
    }
}

/// A user's exposure-budget ledger, as the `budget` operation returns
/// it. All risk quantities are integers in micro-units (`1_000_000` =
/// a risk of 1.0), the exact representation the ledger is folded and
/// persisted in — so two replicas that replayed the same disclosure
/// stream report identical numbers and an identical `digest`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetInfo {
    /// The user asked about.
    pub user: String,
    /// How many disclosures the ledger has absorbed.
    pub disclosures: u64,
    /// Sum aggregate: saturating sum of per-disclosure risk scores.
    pub risk_sum: u64,
    /// Max aggregate: largest single-disclosure risk score.
    pub risk_max: u64,
    /// Product aggregate: survival probability `∏ (1 − rᵢ)` in
    /// micro-units (starts at `1_000_000`).
    pub survival: u64,
    /// Budget spent under the configured compose rule.
    pub spent: u64,
    /// Configured budget cap (`0` = budget enforcement disabled).
    pub cap: u64,
    /// Remaining budget under the cap (`cap − spent`, floored at 0);
    /// equal to `0` when enforcement is disabled.
    pub remaining: u64,
    /// The configured compose rule: `sum`, `max` or `product`.
    pub compose: String,
    /// Eight-hex-digit CRC-32 fingerprint of the ledger (disclosure
    /// count and the three aggregates).
    pub digest: String,
}

impl Serialize for BudgetInfo {
    fn to_json(&self) -> Json {
        Json::obj([
            ("user", Json::from(self.user.as_str())),
            ("disclosures", Json::from(self.disclosures)),
            ("risk_sum", Json::from(self.risk_sum)),
            ("risk_max", Json::from(self.risk_max)),
            ("survival", Json::from(self.survival)),
            ("spent", Json::from(self.spent)),
            ("cap", Json::from(self.cap)),
            ("remaining", Json::from(self.remaining)),
            ("compose", Json::from(self.compose.as_str())),
            ("digest", Json::from(self.digest.as_str())),
        ])
    }
}

impl Deserialize for BudgetInfo {
    fn from_json(v: &Json) -> Result<BudgetInfo, JsonError> {
        Ok(BudgetInfo {
            user: field(v, "user")?,
            disclosures: field(v, "disclosures")?,
            risk_sum: field(v, "risk_sum")?,
            risk_max: field(v, "risk_max")?,
            survival: field(v, "survival")?,
            spent: field(v, "spent")?,
            cap: field(v, "cap")?,
            remaining: field(v, "remaining")?,
            compose: field(v, "compose")?,
            digest: field(v, "digest")?,
        })
    }
}

/// The daemon's health summary, as the `health` operation returns it.
///
/// `live` distinguishes "the process answers" (always `true` on a
/// produced reply) from `ready` — whether a router should send this
/// instance *new* traffic. A draining or `frozen` daemon is live but
/// not ready; a `shedding` or `cache_only` daemon is still ready (it
/// answers what it can, fail-closed), just degraded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthInfo {
    /// The process is up and answering the protocol.
    pub live: bool,
    /// Whether new traffic should be routed here.
    pub ready: bool,
    /// Degradation-ladder mode: `normal`, `shedding`, `cache_only` or
    /// `frozen`.
    pub mode: String,
    /// Current adaptive admission limit (concurrently admitted
    /// decisions).
    pub admission_limit: u64,
    /// Decisions currently admitted (queued or computing).
    pub inflight: u64,
    /// The instance is gracefully draining and will exit.
    pub draining: bool,
}

impl Serialize for HealthInfo {
    fn to_json(&self) -> Json {
        Json::obj([
            ("live", Json::from(self.live)),
            ("ready", Json::from(self.ready)),
            ("mode", Json::from(self.mode.as_str())),
            ("admission_limit", Json::from(self.admission_limit)),
            ("inflight", Json::from(self.inflight)),
            ("draining", Json::from(self.draining)),
        ])
    }
}

impl Deserialize for HealthInfo {
    fn from_json(v: &Json) -> Result<HealthInfo, JsonError> {
        Ok(HealthInfo {
            live: field(v, "live")?,
            ready: field(v, "ready")?,
            mode: field(v, "mode")?,
            admission_limit: field(v, "admission_limit")?,
            inflight: field(v, "inflight")?,
            draining: field(v, "draining")?,
        })
    }
}

/// One protocol response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A finding, in exactly the shape the offline auditor's report
    /// entries take.
    Entry(ReportEntry),
    /// A cumulative audit was requested for a user with fewer than two
    /// disclosures: the cumulative finding coincides with the single
    /// entry, so none is produced (mirroring the offline report).
    NoCumulative {
        /// The user asked about.
        user: String,
        /// How many disclosures they have.
        disclosures: u64,
    },
    /// A user's session summary, reply to [`Request::SessionInfo`].
    SessionInfo(SessionInfo),
    /// A user's exposure-budget ledger, reply to [`Request::Budget`].
    Budget(Box<BudgetInfo>),
    /// A metrics snapshot.
    Stats(Box<Snapshot>),
    /// Spans matching a [`Request::Trace`] query, oldest first.
    Trace(Vec<WireSpan>),
    /// The metrics registry in Prometheus text exposition format.
    MetricsText(String),
    /// The daemon's health summary, reply to [`Request::Health`].
    Health(HealthInfo),
    /// The request could not be served.
    Error {
        /// Machine-readable classification.
        code: ErrorCode,
        /// Human-readable reason.
        message: String,
        /// Backoff hint, set on retryable errors (currently
        /// [`ErrorCode::Overloaded`]).
        retry_after_ms: Option<u64>,
    },
    /// Reply to [`Request::Ping`].
    Pong,
}

impl Response {
    /// A plain [`ErrorCode::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> Response {
        Response::Error {
            code: ErrorCode::BadRequest,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Whether a retry of the originating request could change the
    /// outcome. Findings and bad requests are final; only explicitly
    /// retryable errors are not.
    pub fn is_retryable_error(&self) -> bool {
        matches!(self, Response::Error { code, .. } if code.is_retryable())
    }

    /// Encodes the response, echoing the client's request id when one was
    /// supplied ([`RequestMeta::id`]).
    pub fn to_json_with_id(&self, id: Option<&str>) -> Json {
        let encoded = self.to_json();
        match (id, encoded) {
            (Some(id), Json::Obj(mut members)) => {
                members.push(("id".to_owned(), Json::from(id)));
                Json::Obj(members)
            }
            (_, encoded) => encoded,
        }
    }
}

impl Serialize for Response {
    fn to_json(&self) -> Json {
        match self {
            Response::Entry(entry) => {
                Json::obj([("kind", Json::from("entry")), ("entry", entry.to_json())])
            }
            Response::NoCumulative { user, disclosures } => Json::obj([
                ("kind", Json::from("no_cumulative")),
                ("user", Json::from(user.as_str())),
                ("disclosures", Json::from(*disclosures)),
            ]),
            Response::SessionInfo(info) => {
                let Json::Obj(mut members) = info.to_json() else {
                    unreachable!("SessionInfo serializes to an object");
                };
                members.insert(0, ("kind".to_owned(), Json::from("session")));
                Json::Obj(members)
            }
            Response::Budget(info) => {
                let Json::Obj(mut members) = info.to_json() else {
                    unreachable!("BudgetInfo serializes to an object");
                };
                members.insert(0, ("kind".to_owned(), Json::from("budget")));
                Json::Obj(members)
            }
            Response::Stats(snapshot) => {
                Json::obj([("kind", Json::from("stats")), ("stats", snapshot.to_json())])
            }
            Response::Trace(spans) => {
                Json::obj([("kind", Json::from("trace")), ("spans", spans.to_json())])
            }
            Response::MetricsText(text) => Json::obj([
                ("kind", Json::from("metrics")),
                ("text", Json::from(text.as_str())),
            ]),
            Response::Health(info) => {
                let Json::Obj(mut members) = info.to_json() else {
                    unreachable!("HealthInfo serializes to an object");
                };
                members.insert(0, ("kind".to_owned(), Json::from("health")));
                Json::Obj(members)
            }
            Response::Error {
                code,
                message,
                retry_after_ms,
            } => {
                let mut members = vec![
                    ("kind", Json::from("error")),
                    ("message", Json::from(message.as_str())),
                ];
                // Both omitted on plain bad requests so legacy error
                // lines stay byte-identical.
                if *code != ErrorCode::BadRequest {
                    members.push(("code", code.to_json()));
                }
                if let Some(ms) = retry_after_ms {
                    members.push(("retry_after_ms", Json::from(*ms)));
                }
                Json::obj(members)
            }
            Response::Pong => Json::obj([("kind", Json::from("pong"))]),
        }
    }
}

impl Deserialize for Response {
    fn from_json(v: &Json) -> Result<Response, JsonError> {
        match field::<String>(v, "kind")?.as_str() {
            "entry" => Ok(Response::Entry(field(v, "entry")?)),
            "no_cumulative" => Ok(Response::NoCumulative {
                user: field(v, "user")?,
                disclosures: field(v, "disclosures")?,
            }),
            "session" => Ok(Response::SessionInfo(SessionInfo::from_json(v)?)),
            "budget" => Ok(Response::Budget(Box::new(BudgetInfo::from_json(v)?))),
            "stats" => Ok(Response::Stats(Box::new(field(v, "stats")?))),
            "trace" => Ok(Response::Trace(field(v, "spans")?)),
            "metrics" => Ok(Response::MetricsText(field(v, "text")?)),
            "health" => Ok(Response::Health(HealthInfo::from_json(v)?)),
            "error" => Ok(Response::Error {
                code: opt_field(v, "code")?.unwrap_or_default(),
                message: field(v, "message")?,
                retry_after_ms: opt_field(v, "retry_after_ms")?,
            }),
            "pong" => Ok(Response::Pong),
            other => Err(JsonError::decode(format!("unknown kind {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epi_audit::auditor::EntryKind;
    use epi_audit::Finding;

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Disclose {
                user: "mallory".to_owned(),
                time: 2007,
                query: "hiv_pos".to_owned(),
                state_mask: 0b11,
                audit_query: "hiv_pos".to_owned(),
            },
            Request::Cumulative {
                user: "eve".to_owned(),
                audit_query: "secret".to_owned(),
            },
            Request::SessionInfo {
                user: "eve".to_owned(),
            },
            Request::Budget {
                user: "eve".to_owned(),
            },
            Request::Stats,
            Request::Trace {
                trace: Some("t-42".to_owned()),
                limit: Some(16),
                slow: false,
            },
            Request::Trace {
                trace: None,
                limit: None,
                slow: true,
            },
            Request::MetricsText,
            Request::Health,
            Request::Ping,
        ];
        for r in reqs {
            let j = Json::parse(&r.to_json().render()).unwrap();
            assert_eq!(Request::from_json(&j).unwrap(), r);
        }
    }

    #[test]
    fn trace_envelope_member_roundtrips_and_stays_optional() {
        // A pre-tracing request line has no `trace` member and parses to
        // `None` — backward compatible.
        let bare = Json::parse(r#"{"op":"ping","id":"a-1"}"#).unwrap();
        assert_eq!(RequestMeta::from_json(&bare).unwrap().trace, None);
        let meta = RequestMeta {
            id: Some("a-1".to_owned()),
            deadline_ms: None,
            trace: Some("t-7".to_owned()),
        };
        let line = meta.decorate(Request::Ping.to_json()).render();
        assert_eq!(line, r#"{"op":"ping","id":"a-1","trace":"t-7"}"#);
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(RequestMeta::from_json(&parsed).unwrap(), meta);
        // Present-but-mistyped trace is a protocol error.
        let bad = Json::parse(r#"{"op":"ping","trace":17}"#).unwrap();
        assert!(RequestMeta::from_json(&bad).is_err());
    }

    #[test]
    fn trace_and_metrics_responses_roundtrip() {
        let resps = vec![
            Response::Trace(vec![
                WireSpan {
                    seq: 3,
                    trace: Some("t-42".to_owned()),
                    label: "queue.wait".to_owned(),
                    start_micros: 100,
                    duration_micros: 250,
                    detail: None,
                },
                WireSpan {
                    seq: 4,
                    trace: None,
                    label: "worker.compute".to_owned(),
                    start_micros: 350,
                    duration_micros: 9000,
                    detail: Some("finding=safe support=3/8".to_owned()),
                },
            ]),
            Response::Trace(Vec::new()),
            Response::MetricsText("# TYPE epi_requests_total counter\n".to_owned()),
        ];
        for r in resps {
            let j = Json::parse(&r.to_json().render()).unwrap();
            assert_eq!(Response::from_json(&j).unwrap(), r);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::Entry(ReportEntry {
                user: "mallory".to_owned(),
                time: 2007,
                kind: EntryKind::Single,
                finding: Finding::Flagged,
                explanation: "direct hit".to_owned(),
                risk_micros: Some(1_000_000),
                budget_remaining_micros: Some(250_000),
            }),
            Response::NoCumulative {
                user: "alice".to_owned(),
                disclosures: 1,
            },
            Response::SessionInfo(SessionInfo {
                user: "mallory".to_owned(),
                disclosures: 3,
                last_time: 2009,
                worlds: 4,
                digest: "00c0ffee".to_owned(),
            }),
            Response::Budget(Box::new(BudgetInfo {
                user: "mallory".to_owned(),
                disclosures: 3,
                risk_sum: 1_750_000,
                risk_max: 1_000_000,
                survival: 0,
                spent: 1_750_000,
                cap: 2_000_000,
                remaining: 250_000,
                compose: "sum".to_owned(),
                digest: "00c0ffee".to_owned(),
            })),
            Response::Error {
                code: ErrorCode::BudgetExhausted,
                message: "user `mallory` has exhausted their exposure budget".to_owned(),
                retry_after_ms: None,
            },
            Response::bad_request("unknown record `zzz`"),
            Response::Error {
                code: ErrorCode::Storage,
                message: "disclosure log write failed".to_owned(),
                retry_after_ms: None,
            },
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "decision queue is full".to_owned(),
                retry_after_ms: Some(50),
            },
            Response::Error {
                code: ErrorCode::WorkerFailed,
                message: "decision worker failed".to_owned(),
                retry_after_ms: None,
            },
            Response::Error {
                code: ErrorCode::Draining,
                message: "service is draining".to_owned(),
                retry_after_ms: None,
            },
            Response::Health(HealthInfo {
                live: true,
                ready: false,
                mode: "cache_only".to_owned(),
                admission_limit: 17,
                inflight: 9,
                draining: true,
            }),
            Response::Pong,
        ];
        for r in resps {
            let j = Json::parse(&r.to_json().render()).unwrap();
            assert_eq!(Response::from_json(&j).unwrap(), r);
        }
    }

    #[test]
    fn bad_request_errors_keep_the_legacy_wire_shape() {
        let line = Response::bad_request("nope").to_json().render();
        assert_eq!(line, r#"{"kind":"error","message":"nope"}"#);
        // And the legacy shape parses back (absent code defaults).
        let j = Json::parse(r#"{"kind":"error","message":"old daemon"}"#).unwrap();
        let Response::Error { code, .. } = Response::from_json(&j).unwrap() else {
            panic!("expected error");
        };
        assert_eq!(code, ErrorCode::BadRequest);
    }

    #[test]
    fn meta_parses_leniently_and_decorates() {
        let bare = Json::parse(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(
            RequestMeta::from_json(&bare).unwrap(),
            RequestMeta::default()
        );

        let meta = RequestMeta {
            id: Some("c0ffee-7".to_owned()),
            deadline_ms: Some(250),
            trace: None,
        };
        let line = meta.decorate(Request::Ping.to_json()).render();
        assert_eq!(line, r#"{"op":"ping","id":"c0ffee-7","deadline_ms":250}"#);
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(Request::from_json(&parsed).unwrap(), Request::Ping);
        assert_eq!(RequestMeta::from_json(&parsed).unwrap(), meta);

        // Present-but-mistyped members are a protocol error, not a panic.
        let bad = Json::parse(r#"{"op":"ping","deadline_ms":"soon"}"#).unwrap();
        assert!(RequestMeta::from_json(&bad).is_err());
    }

    #[test]
    fn responses_echo_request_ids() {
        let line = Response::Pong.to_json_with_id(Some("ab-1")).render();
        assert_eq!(line, r#"{"kind":"pong","id":"ab-1"}"#);
        let without = Response::Pong.to_json_with_id(None).render();
        assert_eq!(without, r#"{"kind":"pong"}"#);
    }

    #[test]
    fn retryability_follows_the_code() {
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::WorkerFailed.is_retryable());
        assert!(!ErrorCode::BadRequest.is_retryable());
        assert!(!ErrorCode::DeadlineExceeded.is_retryable());
        assert!(!ErrorCode::Shutdown.is_retryable());
        // Draining means "go away"; a retry against the same instance
        // cannot succeed, the client must re-route.
        assert!(!ErrorCode::Draining.is_retryable());
        assert!(!ErrorCode::Storage.is_retryable());
        // Budget exhaustion is a policy outcome, not a transient fault:
        // resending the same disclosure can never succeed.
        assert!(!ErrorCode::BudgetExhausted.is_retryable());
        assert!(Response::Error {
            code: ErrorCode::Overloaded,
            message: String::new(),
            retry_after_ms: Some(50),
        }
        .is_retryable_error());
        assert!(!Response::bad_request("x").is_retryable_error());
    }

    #[test]
    fn unknown_ops_rejected() {
        let j = Json::parse(r#"{"op":"fire_missiles"}"#).unwrap();
        assert!(Request::from_json(&j).is_err());
        let j = Json::parse(r#"{"kind":"shrug"}"#).unwrap();
        assert!(Response::from_json(&j).is_err());
    }
}
