//! The offline auditor: replaying a disclosure log against an audit query.
//!
//! The auditor is the paper's "meta-agent" (Section 2). Given
//!
//! * an **audit query** `A` (the sensitive property, e.g. `hiv_pos` —
//!   possibly itself sensitive, per the retroactive-auditing motivation),
//! * a **prior assumption** about users (which family `Π`/`Σ` their
//!   knowledge lives in),
//! * a **disclosure log**,
//!
//! she flags every disclosure that *could have* let its recipient gain
//! confidence in `A`. Only a positive answer to `A` is protected; negative
//! answers are not (Section 3: "a positive result of query `A` is
//! considered private … whereas a negative result is not protected"), so
//! entries are only audited when `A` was true in the database at disclosure
//! time. Each user's disclosures are also audited *cumulatively* — the
//! intersection of everything the user learned (Section 3.3) — which
//! catches composition breaches that no single query exhibits (Remark 4.2).

use crate::log::{AuditLog, Disclosure};
use crate::query::Query;
use epi_boolean::Cube;
use epi_core::risk::{UniformMargin, RISK_SCALE};
use epi_core::{unrestricted, Deadline, WorldId, WorldSet};
use epi_par::Pool;
use epi_solver::logsupermod::{self, SupermodularSearchOptions};
use epi_solver::{
    decide_product_pipeline_observed, ProductSolverOptions, SafeEvidence, Stage, StageObserver,
    UndecidedReason, Verdict,
};
use rand::SeedableRng;
use std::fmt;

/// The auditor's assumption about users' prior knowledge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PriorAssumption {
    /// No assumption at all (Theorem 3.11); also covers possibilistic
    /// users by the equivalence of conditions (1)–(3).
    Unrestricted,
    /// Users treat records independently (`Π_m⁰`, the Miklau–Suciu
    /// assumption) — decided by the full criteria pipeline.
    Product,
    /// Users' priors admit no negative correlations (`Π_m⁺`,
    /// log-supermodular) — criteria plus refutation search.
    LogSupermodular,
}

/// The auditor's finding for one disclosure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// The disclosure could not have increased any admissible user's
    /// confidence in the audited property.
    Safe,
    /// Some admissible prior gains confidence — the disclosure is flagged.
    Flagged,
    /// The decision procedure was inconclusive; the auditor flags these
    /// conservatively in reports but records the distinction.
    Inconclusive,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::Safe => write!(f, "safe"),
            Finding::Flagged => write!(f, "FLAGGED"),
            Finding::Inconclusive => write!(f, "inconclusive"),
        }
    }
}

/// One line of the audit report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportEntry {
    /// The user audited.
    pub user: String,
    /// Time of the disclosure (or of the last disclosure for cumulative
    /// entries).
    pub time: u64,
    /// Whether this entry audits a single disclosure or the user's
    /// cumulative knowledge.
    pub kind: EntryKind,
    /// The finding.
    pub finding: Finding,
    /// Explanation: the deciding criterion/stage, or the breach evidence.
    pub explanation: String,
    /// Normalized risk score of the decision in micro-units
    /// (`0 ..= 1_000_000`, see `epi_core::risk`): `Some(0)` for
    /// negative-gated entries (nothing protected was revealed), the
    /// uniform-prior confidence ratio for decided-safe entries, and
    /// saturated for flagged or inconclusive ones. `None` only on
    /// entries decoded from pre-risk reports.
    pub risk_micros: Option<u64>,
    /// Remaining exposure budget of the user's session in micro-units,
    /// after this entry was folded in. Only the service sets this (and
    /// only when a budget cap is configured); the offline auditor has no
    /// ledger, so offline reports carry `None`.
    pub budget_remaining_micros: Option<u64>,
}

/// What a report entry covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// One log entry.
    Single,
    /// The intersection of all of the user's disclosures up to `time`.
    Cumulative,
}

/// A completed audit.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// The audited property rendered against the schema.
    pub audit_query: String,
    /// The assumption used.
    pub assumption: PriorAssumption,
    /// Per-disclosure and per-user findings.
    pub entries: Vec<ReportEntry>,
}

impl AuditReport {
    /// The users with at least one flagged entry.
    pub fn flagged_users(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .entries
            .iter()
            .filter(|e| e.finding == Finding::Flagged)
            .map(|e| e.user.as_str())
            .collect();
        out.dedup();
        out
    }

    /// Renders a human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Audit of property `{}` under {:?} priors\n",
            self.audit_query, self.assumption
        );
        for e in &self.entries {
            let kind = match e.kind {
                EntryKind::Single => "disclosure",
                EntryKind::Cumulative => "cumulative",
            };
            out.push_str(&format!(
                "  [{:>12}] t={:<6} {:<10} {:<12} — {}\n",
                e.user,
                e.time,
                kind,
                e.finding.to_string(),
                e.explanation
            ));
        }
        out
    }
}

/// One safety decision for disclosing a world set `B` while the audited
/// property `A` holds.
///
/// This is the unit of work the auditing service batches, caches and
/// meters: [`Auditor::decide_sets`] produces one `Decision` per distinct
/// `(A, B)` pair, and [`Auditor::audit`] folds decisions into report
/// entries. `stage` records which pipeline stage settled the question
/// when the pipeline was involved (`None` for the log-supermodular
/// refutation search, which runs outside the pipeline).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Safe, flagged, or inconclusive.
    pub finding: Finding,
    /// Human-readable evidence: criterion name, witness prior, or budget.
    pub explanation: String,
    /// The pipeline stage that decided, when one did.
    pub stage: Option<Stage>,
    /// Branch-and-bound boxes the decision cost (0 when a criterion or a
    /// non-pipeline procedure decided) — the service's throughput metrics
    /// aggregate this.
    pub boxes_processed: usize,
    /// Set iff `finding` is [`Finding::Inconclusive`]: why the procedure
    /// gave up. Deadline/cancellation stops are transient (a retry may
    /// decide); budget exhaustion is deterministic. Callers must treat
    /// every inconclusive decision as unsafe regardless of the reason.
    pub undecided: Option<UndecidedReason>,
    /// Normalized risk score in micro-units (`0 ..= 1_000_000`): the
    /// uniform-prior confidence ratio `P[A|B]/P[A]` for safe decisions,
    /// saturated at `1_000_000` for flagged and inconclusive ones — an
    /// undecided question prices as if it breached (fail closed).
    pub risk_micros: u32,
}

/// The offline auditor.
pub struct Auditor {
    assumption: PriorAssumption,
    product_options: ProductSolverOptions,
    seed: u64,
}

impl Auditor {
    /// Creates an auditor with the given prior assumption.
    pub fn new(assumption: PriorAssumption) -> Auditor {
        Auditor {
            assumption,
            product_options: ProductSolverOptions::default(),
            seed: 0xE1F0,
        }
    }

    /// Overrides the product-solver options (budget/margin).
    pub fn with_product_options(mut self, options: ProductSolverOptions) -> Auditor {
        self.product_options = options;
        self
    }

    /// The prior assumption this auditor decides under.
    pub fn assumption(&self) -> PriorAssumption {
        self.assumption
    }

    /// The product-solver options this auditor passes to the pipeline.
    pub fn product_options(&self) -> ProductSolverOptions {
        self.product_options
    }

    /// Records the decision procedure for `(a, b)` runs over. Under
    /// product priors that is the pair's support
    /// ([`epi_solver::pipeline::support`]): the pipeline decides stages
    /// 2–6 on the restriction to it. The other assumptions run on the full
    /// schema.
    pub fn support_dims(&self, cube: &Cube, a: &WorldSet, b: &WorldSet) -> usize {
        match self.assumption {
            PriorAssumption::Product => {
                epi_solver::pipeline::support(cube, a, b).count_ones() as usize
            }
            PriorAssumption::Unrestricted | PriorAssumption::LogSupermodular => cube.dims(),
        }
    }

    /// Decides safety of disclosing `b` against audited set `a`.
    ///
    /// This is the reusable per-disclosure entry point: both sets are
    /// already compiled against `cube`'s schema, so callers that maintain
    /// their own disclosure state (e.g. a long-running service holding
    /// cumulative per-user knowledge) can invoke the decision procedure
    /// directly, once per distinct `(a, b)` pair, and reuse the result.
    /// The negative-result gate (`A` false at disclosure time) is the
    /// caller's responsibility — see [`Auditor::audit`].
    pub fn decide_sets(&self, cube: &Cube, a: &WorldSet, b: &WorldSet) -> Decision {
        self.decide_sets_deadline(cube, a, b, &Deadline::none())
    }

    /// [`Auditor::decide_sets`] under a [`Deadline`]: the expensive
    /// decision procedures stop cooperatively once it fires and the
    /// result is an [`Finding::Inconclusive`] decision with
    /// [`Decision::undecided`] set — never `Safe` (fail closed).
    pub fn decide_sets_deadline(
        &self,
        cube: &Cube,
        a: &WorldSet,
        b: &WorldSet,
        deadline: &Deadline,
    ) -> Decision {
        self.decide_sets_observed(cube, a, b, deadline, &mut |_, _| {})
    }

    /// [`Auditor::decide_sets_deadline`] reporting each attempted stage
    /// check and its wall time (in microseconds) to `observe`, so a
    /// caller building per-request traces or stage-latency histograms
    /// sees where a decision spent its time. Observation is a pure side
    /// channel: the decision is identical with any observer.
    ///
    /// The product pipeline reports every stage it attempted, including
    /// ones that did not decide (their rejection still cost time). The
    /// log-supermodular refutation search runs outside the staged
    /// pipeline and reports nothing here — callers wanting to time it
    /// should wrap this call and attribute the elapsed time to their
    /// own refutation-search bucket (the decision comes back with
    /// [`Decision::stage`] `None`, which identifies that path).
    pub fn decide_sets_observed(
        &self,
        cube: &Cube,
        a: &WorldSet,
        b: &WorldSet,
        deadline: &Deadline,
        observe: StageObserver<'_>,
    ) -> Decision {
        // The score of a *safe* decision is the uniform-prior confidence
        // ratio; anything not decided safe saturates. Computed once — it
        // is the same exact count arithmetic on every path.
        let safe_risk = UniformMargin::from_sets(a, b).risk_micros();
        let flagged_risk = RISK_SCALE as u32;
        match self.assumption {
            PriorAssumption::Unrestricted => {
                let started = std::time::Instant::now();
                let safe = unrestricted::safe_unrestricted(a, b);
                observe(
                    Stage::Unconditional,
                    started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                );
                if safe {
                    Decision {
                        finding: Finding::Safe,
                        explanation: SafeEvidence::Unconditional.to_string(),
                        stage: Some(Stage::Unconditional),
                        boxes_processed: 0,
                        undecided: None,
                        risk_micros: safe_risk,
                    }
                } else {
                    let r = unrestricted::refute_unrestricted(a, b)
                        .expect("refutation exists when the condition fails");
                    Decision {
                        finding: Finding::Flagged,
                        explanation: format!(
                            "two-point prior raises P[A] from {} to {}",
                            r.prior_confidence, r.posterior_confidence
                        ),
                        stage: Some(Stage::Unconditional),
                        boxes_processed: 0,
                        undecided: None,
                        risk_micros: flagged_risk,
                    }
                }
            }
            PriorAssumption::Product => {
                let decision = decide_product_pipeline_observed(
                    cube,
                    a,
                    b,
                    self.product_options,
                    deadline,
                    observe,
                );
                let boxes_processed = decision.boxes_processed;
                match decision.verdict {
                    Verdict::Safe(ev) => Decision {
                        finding: Finding::Safe,
                        explanation: format!("{} via {}", ev, decision.stage.label()),
                        stage: Some(decision.stage),
                        boxes_processed,
                        undecided: None,
                        risk_micros: safe_risk,
                    },
                    Verdict::Unsafe(w) => Decision {
                        finding: Finding::Flagged,
                        explanation: format!(
                            "product prior p = {:?} gains {} (stage {})",
                            w.probs.iter().map(|r| r.to_f64()).collect::<Vec<_>>(),
                            (-w.gap.to_f64()),
                            decision.stage.label()
                        ),
                        stage: Some(decision.stage),
                        boxes_processed,
                        undecided: None,
                        risk_micros: flagged_risk,
                    },
                    Verdict::Unknown => {
                        let reason = decision
                            .undecided
                            .unwrap_or(UndecidedReason::BudgetExhausted);
                        Decision {
                            finding: Finding::Inconclusive,
                            explanation: format!(
                                "{} at stage {}",
                                reason,
                                Stage::BranchAndBound.label()
                            ),
                            stage: Some(Stage::BranchAndBound),
                            boxes_processed,
                            undecided: Some(reason),
                            risk_micros: flagged_risk,
                        }
                    }
                }
            }
            PriorAssumption::LogSupermodular => {
                // The refutation search is not deadline-threaded; honor
                // the deadline up front so an already-expired request
                // fails closed instead of burning the whole budget.
                if let Err(reason) = deadline.check() {
                    let reason = UndecidedReason::from(reason);
                    return Decision {
                        finding: Finding::Inconclusive,
                        explanation: format!("{reason} before refutation search"),
                        stage: None,
                        boxes_processed: 0,
                        undecided: Some(reason),
                        risk_micros: flagged_risk,
                    };
                }
                let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
                let verdict = logsupermod::decide_supermodular(
                    cube,
                    a,
                    b,
                    SupermodularSearchOptions::default(),
                    &mut rng,
                );
                match verdict {
                    Verdict::Safe(ev) => Decision {
                        finding: Finding::Safe,
                        explanation: ev.to_string(),
                        stage: None,
                        boxes_processed: 0,
                        undecided: None,
                        risk_micros: safe_risk,
                    },
                    Verdict::Unsafe(w) => Decision {
                        finding: Finding::Flagged,
                        explanation: format!(
                            "log-supermodular prior gains {} ({:?})",
                            w.gain, w.source
                        ),
                        stage: None,
                        boxes_processed: 0,
                        undecided: None,
                        risk_micros: flagged_risk,
                    },
                    Verdict::Unknown => Decision {
                        finding: Finding::Inconclusive,
                        explanation: "criteria inconclusive and no refutation found".into(),
                        stage: None,
                        boxes_processed: 0,
                        undecided: Some(UndecidedReason::BudgetExhausted),
                        risk_micros: flagged_risk,
                    },
                }
            }
        }
    }

    /// Audits a log against the audit query `A`, producing per-disclosure
    /// and per-user cumulative findings.
    ///
    /// Entries where `A` was false at disclosure time are reported `Safe`
    /// with the "negative result not protected" explanation — this is the
    /// Alice/Cindy-vs-Mallory distinction of the introduction.
    pub fn audit(&self, log: &AuditLog, audit_query: &Query) -> AuditReport {
        let schema = log.schema();
        let cube = schema.cube();
        let a = audit_query.compile(schema);
        // Plan every report entry first: the gated ones (A false at
        // disclosure time) are already decided, the rest carry the
        // disclosed set to run through the decision procedure.
        struct Planned {
            user: String,
            time: u64,
            kind: EntryKind,
            prefix: String,
            disclosed: Option<WorldSet>,
        }
        let mut plan: Vec<Planned> = Vec::new();
        for (d, state) in log.entries_with_state() {
            if !a.contains(WorldId(state.mask())) {
                plan.push(Planned {
                    user: d.user.clone(),
                    time: d.time,
                    kind: EntryKind::Single,
                    prefix: "audited property was false at disclosure time (negative results are not protected)".into(),
                    disclosed: None,
                });
                continue;
            }
            plan.push(Planned {
                user: d.user.clone(),
                time: d.time,
                kind: EntryKind::Single,
                prefix: format!("query `{}` answered {}", d.query.display(schema), d.answer),
                disclosed: Some(d.disclosed_set(schema)),
            });
        }
        // Cumulative per user. The same protection rule as for single
        // entries applies: a positive result of A is protected, a negative
        // one is not — so the cumulative check is gated on A being true at
        // the user's last disclosure (the state their combined knowledge
        // refers to).
        for user in log.users() {
            let relevant: Vec<(&Disclosure, crate::schema::DatabaseState)> = log
                .entries_with_state()
                .filter(|(d, _)| d.user == user)
                .collect();
            let Some((last, last_state)) = relevant.last() else {
                continue;
            };
            if relevant.len() < 2 {
                continue; // cumulative coincides with the single entry
            }
            if !a.contains(WorldId(last_state.mask())) {
                plan.push(Planned {
                    user: user.to_owned(),
                    time: last.time,
                    kind: EntryKind::Cumulative,
                    prefix: "audited property was false at the last disclosure (negative results are not protected)".into(),
                    disclosed: None,
                });
                continue;
            }
            plan.push(Planned {
                user: user.to_owned(),
                time: last.time,
                kind: EntryKind::Cumulative,
                prefix: format!("{} disclosures combined", relevant.len()),
                disclosed: Some(log.cumulative_disclosure(user, last.time)),
            });
        }
        // Decide the open entries in parallel. `parallel_map` preserves
        // order and the default solver mode is deterministic, so the
        // report is the same at any worker count.
        let decisions: Vec<Option<Decision>> = Pool::global().parallel_map(&plan, |item| {
            item.disclosed
                .as_ref()
                .map(|b| self.decide_sets(&cube, &a, b))
        });
        let entries = plan
            .iter()
            .zip(decisions)
            .map(|(item, decision)| match decision {
                None => ReportEntry {
                    user: item.user.clone(),
                    time: item.time,
                    kind: item.kind,
                    finding: Finding::Safe,
                    explanation: item.prefix.clone(),
                    // A negative-gated entry revealed nothing protected.
                    risk_micros: Some(0),
                    budget_remaining_micros: None,
                },
                Some(d) => ReportEntry {
                    user: item.user.clone(),
                    time: item.time,
                    kind: item.kind,
                    finding: d.finding,
                    explanation: format!("{}: {}", item.prefix, d.explanation),
                    risk_micros: Some(u64::from(d.risk_micros)),
                    budget_remaining_micros: None,
                },
            })
            .collect();
        AuditReport {
            audit_query: audit_query.display(schema).to_string(),
            assumption: self.assumption,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse;
    use crate::schema::{DatabaseState, RecordId, Schema};

    fn schema() -> Schema {
        Schema::from_names(&["hiv_pos", "transfusions"]).unwrap()
    }

    /// The introduction's timeline: Alice and Cindy learn Bob's status
    /// before he contracts HIV; Mallory after. Only Mallory is flagged.
    #[test]
    fn intro_timeline_flags_only_mallory() {
        let schema = schema();
        let mut log = AuditLog::new(schema.clone());
        let healthy = DatabaseState::from_mask(0);
        let infected = healthy.with(RecordId(0));
        let q = parse("hiv_pos", &schema).unwrap();
        log.record("alice", 2005, q.clone(), healthy).unwrap();
        log.record("cindy", 2005, q.clone(), healthy).unwrap();
        log.record("mallory", 2007, q.clone(), infected).unwrap();

        let auditor = Auditor::new(PriorAssumption::Unrestricted);
        let report = auditor.audit(&log, &q);
        assert_eq!(report.flagged_users(), vec!["mallory"]);
        // Alice/Cindy entries cite the negative-result rule.
        let alice = report.entries.iter().find(|e| e.user == "alice").unwrap();
        assert_eq!(alice.finding, Finding::Safe);
        assert!(alice.explanation.contains("not protected"));
    }

    /// §1.1: disclosing `hiv_pos -> transfusions` is safe for `hiv_pos`
    /// under every assumption, even though they share a critical record.
    #[test]
    fn hiv_implication_safe_under_all_assumptions() {
        let schema = schema();
        let a = parse("hiv_pos", &schema).unwrap();
        let b = parse("hiv_pos -> transfusions", &schema).unwrap();
        let db = DatabaseState::from_present([RecordId(0), RecordId(1)]);
        for assumption in [
            PriorAssumption::Unrestricted,
            PriorAssumption::Product,
            PriorAssumption::LogSupermodular,
        ] {
            let mut log = AuditLog::new(schema.clone());
            log.record("alice", 1, b.clone(), db).unwrap();
            let report = Auditor::new(assumption).audit(&log, &a);
            assert!(
                report.flagged_users().is_empty(),
                "{assumption:?} must accept the implication disclosure:\n{}",
                report.render()
            );
        }
    }

    /// Asking `hiv_pos` directly while it is true is flagged under every
    /// assumption.
    #[test]
    fn direct_query_flagged() {
        let schema = schema();
        let a = parse("hiv_pos", &schema).unwrap();
        let db = DatabaseState::from_present([RecordId(0)]);
        for assumption in [
            PriorAssumption::Unrestricted,
            PriorAssumption::Product,
            PriorAssumption::LogSupermodular,
        ] {
            let mut log = AuditLog::new(schema.clone());
            log.record("mallory", 1, a.clone(), db).unwrap();
            let report = Auditor::new(assumption).audit(&log, &a);
            assert_eq!(report.flagged_users(), vec!["mallory"], "{assumption:?}");
        }
    }

    /// Composition: two individually-safe disclosures can combine into a
    /// breach; the cumulative entry catches it.
    #[test]
    fn cumulative_breach_detected() {
        let schema = Schema::from_names(&["secret", "marker_a", "marker_b"]).unwrap();
        let a = parse("secret", &schema).unwrap();
        // B₁ = secret | marker_a, B₂ = secret | !marker_a: each individually
        // allows confidence loss only… but their intersection pins `secret`.
        let b1 = parse("secret | marker_a", &schema).unwrap();
        let b2 = parse("secret | !marker_a", &schema).unwrap();
        let db = DatabaseState::from_present([RecordId(0), RecordId(1)]);
        let mut log = AuditLog::new(schema.clone());
        log.record("eve", 1, b1, db).unwrap();
        log.record("eve", 2, b2, db).unwrap();
        let report = Auditor::new(PriorAssumption::Unrestricted).audit(&log, &a);
        let cumulative = report
            .entries
            .iter()
            .find(|e| e.kind == EntryKind::Cumulative)
            .expect("cumulative entry present");
        assert_eq!(cumulative.finding, Finding::Flagged);
        assert!(report.render().contains("FLAGGED"));
    }

    /// A timed-out decision must fail closed: Inconclusive with the
    /// reason recorded, never Safe.
    #[test]
    fn expired_deadline_fails_closed() {
        use std::time::Duration;
        let schema = Schema::from_names(&["a", "b", "c"]).unwrap();
        let cube = schema.cube();
        // Remark 5.12 shape: defeats every criterion, forcing the
        // expensive tail where the deadline is consulted.
        let a = cube.set_from_masks([0b011, 0b100, 0b110, 0b111]);
        let b = cube.set_from_masks([0b010, 0b101, 0b110, 0b111]);
        let expired = Deadline::within(Duration::ZERO);
        for assumption in [PriorAssumption::Product, PriorAssumption::LogSupermodular] {
            let d = Auditor::new(assumption).decide_sets_deadline(&cube, &a, &b, &expired);
            assert_eq!(d.finding, Finding::Inconclusive, "{assumption:?}");
            assert_eq!(
                d.undecided,
                Some(UndecidedReason::DeadlineExceeded),
                "{assumption:?}"
            );
        }
        // Unrestricted decisions are closed-form and always complete.
        let d = Auditor::new(PriorAssumption::Unrestricted)
            .decide_sets_deadline(&cube, &a, &b, &expired);
        assert_ne!(d.finding, Finding::Inconclusive);
    }

    #[test]
    fn report_rendering_mentions_stage() {
        let schema = schema();
        let a = parse("hiv_pos", &schema).unwrap();
        let b = parse("hiv_pos -> transfusions", &schema).unwrap();
        let db = DatabaseState::from_present([RecordId(0), RecordId(1)]);
        let mut log = AuditLog::new(schema.clone());
        log.record("alice", 1, b, db).unwrap();
        let report = Auditor::new(PriorAssumption::Product).audit(&log, &a);
        let rendered = report.render();
        assert!(rendered.contains("hiv_pos"), "{rendered}");
        assert!(rendered.contains("safe"), "{rendered}");
    }
}
