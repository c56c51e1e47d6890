//! The correctness oracle: what each reply must say.
//!
//! A disclosure's finding must equal the offline pipeline decision for
//! the same `(A, B)` ([`epi_audit::Auditor::decide_sets`], the entry
//! point the daemon's workers call) or, when the audited property is
//! false at disclosure time, the negative-result rule's `safe`. Remark
//! 5.12 family members are safe by construction. The vocabulary is
//! decided before timing; `cold_mixed`'s random pairs after it. `session` replies must
//! match the oracle's own model of the user's knowledge; `budget` and
//! `cumulative` replies are checked the same way where the model
//! determines them.
//!
//! Replies are checked on the reply line itself with a few fixed-key
//! lookups (the daemon renders compact JSON with a fixed member order),
//! so the check costs the generator almost nothing inside the timed
//! window. Checks that need the pipeline are deferred and resolved
//! after the window ([`resolve`]).

use epi_audit::{Auditor, Finding, PriorAssumption};
use epi_boolean::Cube;
use epi_core::WorldSet;
use epi_solver::pipeline::Stage;
use std::collections::HashMap;

/// What a reply must say.
#[derive(Clone, Debug)]
pub enum Expect {
    /// An entry with this finding.
    Finding(Finding),
    /// An entry excused by the negative-result rule (`safe`).
    Gated,
    /// An entry whose finding is the offline decision for `(a, b)`.
    Decide {
        /// Audited set.
        a: WorldSet,
        /// Disclosed (or cumulative) set.
        b: WorldSet,
    },
    /// A `no_cumulative` reply.
    NoCumulative,
    /// A `session` reply with this count and knowledge digest.
    Session {
        /// Disclosure count.
        disclosures: u64,
        /// Knowledge digest, eight hex digits.
        digest: String,
    },
    /// A `budget` reply with this disclosure count.
    Budget {
        /// Disclosure count.
        disclosures: u64,
    },
}

impl Expect {
    /// Whether this expectation is about a verdict (the kind the
    /// self-test's injected wrong expectation targets).
    pub fn is_verdict(&self) -> bool {
        matches!(
            self,
            Expect::Finding(_) | Expect::Gated | Expect::Decide { .. }
        )
    }
}

/// A check resolved after the timed window.
#[derive(Clone, Debug)]
pub struct Deferred {
    /// Audited set.
    pub a: WorldSet,
    /// Disclosed or cumulative set.
    pub b: WorldSet,
    /// The finding the daemon replied with.
    pub got: Finding,
    /// Invert the expectation (oracle self-test).
    pub flip: bool,
    /// Whether the reply answered a disclosure (not a cumulative read).
    pub disclosure: bool,
    /// Whether the verdict cites an SOS certificate.
    pub sos: bool,
}

/// The result of checking one reply.
pub enum Outcome {
    /// The reply is right.
    Ok {
        /// It answered a disclosure.
        disclosure: bool,
        /// The disclosure was negative-gated.
        gated: bool,
        /// The verdict cites an SOS certificate.
        sos: bool,
    },
    /// Right so far; the verdict is checked after the window.
    Deferred(Deferred),
    /// An `error` reply.
    ErrorReply(String),
    /// The reply contradicts the oracle.
    Mismatch(String),
}

/// The string value of the first `"key":"…"` member.
pub fn str_member<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

/// The unsigned value of the first `"key":N` member.
pub fn u64_member(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|ch: char| !ch.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn finding_name(f: Finding) -> &'static str {
    match f {
        Finding::Safe => "safe",
        Finding::Flagged => "flagged",
        Finding::Inconclusive => "inconclusive",
    }
}

fn parse_finding(s: &str) -> Option<Finding> {
    match s {
        "safe" => Some(Finding::Safe),
        "flagged" => Some(Finding::Flagged),
        "inconclusive" => Some(Finding::Inconclusive),
        _ => None,
    }
}

fn flipped(f: Finding, flip: bool) -> Finding {
    match (flip, f) {
        (false, f) => f,
        (true, Finding::Safe) => Finding::Flagged,
        (true, _) => Finding::Safe,
    }
}

/// Checks `reply` against `expect`. `flip` inverts a verdict
/// expectation (the self-test's deliberately wrong expected finding).
pub fn check(expect: &Expect, reply: &str, flip: bool) -> Outcome {
    let kind = str_member(reply, "kind").unwrap_or("");
    if kind == "error" {
        return Outcome::ErrorReply(format!("error reply: {reply}"));
    }
    let mismatch =
        |why: &str| Outcome::Mismatch(format!("{why}: expected {expect:?}, got {reply}"));
    match expect {
        Expect::Finding(_) | Expect::Gated | Expect::Decide { .. } => {
            if kind != "entry" {
                return mismatch("not an entry");
            }
            let Some(got) = str_member(reply, "finding").and_then(parse_finding) else {
                return mismatch("no finding");
            };
            let single = reply.contains(r#""kind":"single""#);
            let sos = reply.contains("SOS certificate");
            let gated_reply = reply.contains("negative results are not protected");
            match expect {
                Expect::Finding(want) => {
                    let want = flipped(want.clone(), flip);
                    if got != want || gated_reply {
                        return mismatch("wrong finding");
                    }
                    Outcome::Ok {
                        disclosure: single,
                        gated: false,
                        sos,
                    }
                }
                Expect::Gated => {
                    if got != flipped(Finding::Safe, flip) || !gated_reply {
                        return mismatch("negative-result rule not applied");
                    }
                    Outcome::Ok {
                        disclosure: single,
                        gated: true,
                        sos: false,
                    }
                }
                Expect::Decide { a, b } => {
                    if gated_reply {
                        return mismatch("gated a decision the rule does not excuse");
                    }
                    Outcome::Deferred(Deferred {
                        a: a.clone(),
                        b: b.clone(),
                        got,
                        flip,
                        disclosure: single,
                        sos,
                    })
                }
                _ => unreachable!("verdict expectations only"),
            }
        }
        Expect::NoCumulative => {
            if kind != "no_cumulative" {
                return mismatch("expected no_cumulative");
            }
            Outcome::Ok {
                disclosure: false,
                gated: false,
                sos: false,
            }
        }
        Expect::Session {
            disclosures,
            digest,
        } => {
            if kind != "session"
                || u64_member(reply, "disclosures") != Some(*disclosures)
                || str_member(reply, "digest") != Some(digest.as_str())
            {
                return mismatch("session state differs from the oracle's model");
            }
            Outcome::Ok {
                disclosure: false,
                gated: false,
                sos: false,
            }
        }
        Expect::Budget { disclosures } => {
            if kind != "budget" || u64_member(reply, "disclosures") != Some(*disclosures) {
                return mismatch("budget ledger differs from the oracle's model");
            }
            Outcome::Ok {
                disclosure: false,
                gated: false,
                sos: false,
            }
        }
    }
}

/// What resolving the deferred checks found.
#[derive(Debug, Default)]
pub struct Resolved {
    /// Mismatch descriptions.
    pub mismatches: Vec<String>,
    /// Deferred disclosures the offline pipeline settled by
    /// branch-and-bound (on `cold_mixed` these are random pairs the
    /// three-record filter let through; expected 0).
    pub branch_and_bound: u64,
}

/// Resolves each list of deferred checks against the offline pipeline,
/// split over one thread per core (each distinct pair decided once per
/// thread).
pub fn resolve<'a>(cube: &Cube, lists: impl IntoIterator<Item = &'a [Deferred]>) -> Resolved {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parts: Vec<Resolved> = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .into_iter()
            .flat_map(|list| list.chunks(list.len().div_ceil(threads).max(1)))
            .map(|part| s.spawn(move || resolve_part(cube, part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut out = Resolved::default();
    for part in parts {
        out.mismatches.extend(part.mismatches);
        out.branch_and_bound += part.branch_and_bound;
    }
    out
}

fn resolve_part(cube: &Cube, deferred: &[Deferred]) -> Resolved {
    let auditor = Auditor::new(PriorAssumption::Product);
    let mut decided: HashMap<(Vec<u64>, Vec<u64>), (Finding, bool)> = HashMap::new();
    let mut out = Resolved::default();
    for d in deferred {
        let key = (d.a.blocks().to_vec(), d.b.blocks().to_vec());
        let (want, bnb) = decided
            .entry(key)
            .or_insert_with(|| {
                let decision = auditor.decide_sets(cube, &d.a, &d.b);
                (
                    decision.finding,
                    decision.stage == Some(Stage::BranchAndBound),
                )
            })
            .clone();
        if bnb && d.disclosure {
            out.branch_and_bound += 1;
        }
        let want = flipped(want, d.flip);
        if d.got != want {
            out.mismatches.push(format!(
                "daemon said {} where the offline pipeline says {}",
                finding_name(d.got.clone()),
                finding_name(want.clone())
            ));
        }
    }
    out
}
