//! JSON wire format for verdicts, stages and witnesses.
//!
//! Everything the audit service ships across a connection — or a tool
//! stores next to a report — round-trips through [`epi_json`]:
//! [`Stage`], [`SafeEvidence`], [`Verdict`], [`ProductWitness`] and
//! [`PipelineDecision`]. Encodings are
//! tagged objects (`{"kind": ...}`) or plain strings for fieldless enums,
//! so the format stays self-describing.

use crate::pipeline::{PipelineDecision, Stage};
use crate::product::ProductWitness;
use crate::verdict::{SafeEvidence, UndecidedReason, Verdict};
use epi_json::{field, opt_field, Deserialize, Json, JsonError, Serialize};
use epi_num::Rational;

impl Serialize for UndecidedReason {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_owned())
    }
}

impl Deserialize for UndecidedReason {
    fn from_json(v: &Json) -> Result<UndecidedReason, JsonError> {
        v.as_str()
            .and_then(UndecidedReason::parse)
            .ok_or_else(|| JsonError::decode("unknown undecided reason"))
    }
}

impl Serialize for Stage {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Stage::Unconditional => "unconditional",
                Stage::MiklauSuciu => "miklau_suciu",
                Stage::Monotonicity => "monotonicity",
                Stage::Cancellation => "cancellation",
                Stage::BoxNecessary => "box_necessary",
                Stage::BranchAndBound => "branch_and_bound",
            }
            .to_owned(),
        )
    }
}

impl Deserialize for Stage {
    fn from_json(v: &Json) -> Result<Stage, JsonError> {
        match v.as_str() {
            Some("unconditional") => Ok(Stage::Unconditional),
            Some("miklau_suciu") => Ok(Stage::MiklauSuciu),
            Some("monotonicity") => Ok(Stage::Monotonicity),
            Some("cancellation") => Ok(Stage::Cancellation),
            Some("box_necessary") => Ok(Stage::BoxNecessary),
            Some("branch_and_bound") => Ok(Stage::BranchAndBound),
            _ => Err(JsonError::decode("unknown pipeline stage")),
        }
    }
}

/// The criterion names that may appear inside
/// [`SafeEvidence::Criterion`]. Deserialization interns into this table
/// because the variant holds a `&'static str`.
const KNOWN_CRITERIA: &[&str] = &[
    "Miklau–Suciu",
    "miklau-suciu",
    "monotonicity",
    "cancellation",
    "supermodular-sufficient (Prop 5.4)",
];

impl Serialize for SafeEvidence {
    fn to_json(&self) -> Json {
        match self {
            SafeEvidence::Criterion(name) => Json::obj([
                ("kind", Json::from("criterion")),
                ("name", Json::from(*name)),
            ]),
            SafeEvidence::BranchAndBound { boxes_processed } => Json::obj([
                ("kind", Json::from("branch_and_bound")),
                ("boxes_processed", Json::from(*boxes_processed)),
            ]),
            SafeEvidence::SosCertificate { residual } => Json::obj([
                ("kind", Json::from("sos_certificate")),
                ("residual", Json::from(*residual)),
            ]),
            SafeEvidence::Unconditional => Json::obj([("kind", Json::from("unconditional"))]),
        }
    }
}

impl Deserialize for SafeEvidence {
    fn from_json(v: &Json) -> Result<SafeEvidence, JsonError> {
        match field::<String>(v, "kind")?.as_str() {
            "criterion" => {
                let name: String = field(v, "name")?;
                let interned = KNOWN_CRITERIA
                    .iter()
                    .find(|k| **k == name)
                    .ok_or_else(|| JsonError::decode(format!("unknown criterion name {name:?}")))?;
                Ok(SafeEvidence::Criterion(interned))
            }
            "branch_and_bound" => Ok(SafeEvidence::BranchAndBound {
                boxes_processed: field(v, "boxes_processed")?,
            }),
            "sos_certificate" => Ok(SafeEvidence::SosCertificate {
                residual: field(v, "residual")?,
            }),
            "unconditional" => Ok(SafeEvidence::Unconditional),
            other => Err(JsonError::decode(format!(
                "unknown evidence kind {other:?}"
            ))),
        }
    }
}

impl Serialize for ProductWitness {
    fn to_json(&self) -> Json {
        Json::obj([("probs", self.probs.to_json()), ("gap", self.gap.to_json())])
    }
}

impl Deserialize for ProductWitness {
    fn from_json(v: &Json) -> Result<ProductWitness, JsonError> {
        Ok(ProductWitness {
            probs: field(v, "probs")?,
            gap: field(v, "gap")?,
        })
    }
}

impl<W: Serialize> Serialize for Verdict<W> {
    fn to_json(&self) -> Json {
        match self {
            Verdict::Safe(ev) => {
                Json::obj([("verdict", Json::from("safe")), ("evidence", ev.to_json())])
            }
            Verdict::Unsafe(w) => {
                Json::obj([("verdict", Json::from("unsafe")), ("witness", w.to_json())])
            }
            Verdict::Unknown => Json::obj([("verdict", Json::from("unknown"))]),
        }
    }
}

impl<W: Deserialize> Deserialize for Verdict<W> {
    fn from_json(v: &Json) -> Result<Verdict<W>, JsonError> {
        match field::<String>(v, "verdict")?.as_str() {
            "safe" => Ok(Verdict::Safe(field(v, "evidence")?)),
            "unsafe" => Ok(Verdict::Unsafe(field(v, "witness")?)),
            "unknown" => Ok(Verdict::Unknown),
            other => Err(JsonError::decode(format!("unknown verdict tag {other:?}"))),
        }
    }
}

impl Serialize for PipelineDecision {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("verdict", self.verdict.to_json()),
            ("stage", self.stage.to_json()),
            ("boxes_processed", Json::from(self.boxes_processed)),
        ];
        // Emitted only when set so decided reports stay byte-identical
        // to pre-deadline builds.
        if self.waves > 0 {
            fields.push(("waves", Json::from(self.waves)));
        }
        if let Some(reason) = self.undecided {
            fields.push(("undecided", reason.to_json()));
        }
        // A zero margin is also what legacy decoders default an absent
        // member to, so ties stay off the wire like zero waves do.
        if !self.uniform_margin.is_zero() {
            fields.push(("uniform_margin", self.uniform_margin.to_json()));
        }
        if self.support_dims > 0 {
            fields.push(("support_dims", Json::from(self.support_dims)));
        }
        Json::obj(fields)
    }
}

impl Deserialize for PipelineDecision {
    fn from_json(v: &Json) -> Result<PipelineDecision, JsonError> {
        Ok(PipelineDecision {
            verdict: field(v, "verdict")?,
            stage: field(v, "stage")?,
            // Absent in pre-parallel-engine reports: those decisions
            // never counted boxes, so 0 is the faithful default.
            boxes_processed: opt_field(v, "boxes_processed")?.unwrap_or(0),
            waves: opt_field(v, "waves")?.unwrap_or(0),
            undecided: opt_field(v, "undecided")?,
            // Absent in pre-risk reports: margins were not recorded.
            uniform_margin: opt_field(v, "uniform_margin")?.unwrap_or(Rational::new(0, 1)),
            // Absent in pre-projection reports and for support-0 pairs.
            support_dims: opt_field(v, "support_dims")?.unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epi_num::Rational;

    /// The service moves verdicts and options between threads; lock the
    /// auto-traits in so a later edit can't silently lose them.
    #[test]
    fn solver_types_are_send_sync_clone() {
        fn check<T: Send + Sync + Clone>() {}
        check::<Stage>();
        check::<SafeEvidence>();
        check::<Verdict<ProductWitness>>();
        check::<ProductWitness>();
        check::<PipelineDecision>();
        check::<crate::ProductSolverOptions>();
    }

    #[test]
    fn stage_roundtrips() {
        for s in [
            Stage::Unconditional,
            Stage::MiklauSuciu,
            Stage::Monotonicity,
            Stage::Cancellation,
            Stage::BoxNecessary,
            Stage::BranchAndBound,
        ] {
            let j = Json::parse(&s.to_json().render()).unwrap();
            assert_eq!(Stage::from_json(&j).unwrap(), s);
        }
    }

    #[test]
    fn verdict_roundtrips() {
        let verdicts: Vec<Verdict<ProductWitness>> = vec![
            Verdict::Safe(SafeEvidence::Criterion("cancellation")),
            Verdict::Safe(SafeEvidence::BranchAndBound {
                boxes_processed: 42,
            }),
            Verdict::Safe(SafeEvidence::SosCertificate { residual: 1e-12 }),
            Verdict::Safe(SafeEvidence::Unconditional),
            Verdict::Unsafe(ProductWitness {
                probs: vec![Rational::new(1, 2), Rational::new(1, 4)],
                gap: Rational::new(-1, 16),
            }),
            Verdict::Unknown,
        ];
        for v in verdicts {
            let j = Json::parse(&v.to_json().render()).unwrap();
            let back = Verdict::<ProductWitness>::from_json(&j).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn legacy_decision_deserializes_without_box_count() {
        let j =
            Json::parse(r#"{"verdict":{"verdict":"unknown"},"stage":"branch_and_bound"}"#).unwrap();
        let d = PipelineDecision::from_json(&j).unwrap();
        assert_eq!(d.boxes_processed, 0);
        assert_eq!(d.waves, 0);
        assert_eq!(d.support_dims, 0);
        assert_eq!(d.stage, Stage::BranchAndBound);
        assert_eq!(d.undecided, None);
    }

    #[test]
    fn undecided_reason_roundtrips_and_stays_off_the_wire_when_absent() {
        let decided = PipelineDecision {
            verdict: Verdict::Safe(SafeEvidence::Unconditional),
            stage: Stage::Unconditional,
            boxes_processed: 0,
            waves: 0,
            undecided: None,
            uniform_margin: Rational::new(0, 1),
            support_dims: 0,
        };
        let rendered = decided.to_json().render();
        assert!(!rendered.contains("undecided"));
        assert!(!rendered.contains("waves"), "zero waves stay off the wire");
        assert!(
            !rendered.contains("uniform_margin"),
            "zero margins stay off the wire"
        );
        let timed_out = PipelineDecision {
            verdict: Verdict::Unknown,
            stage: Stage::BranchAndBound,
            boxes_processed: 17,
            waves: 5,
            undecided: Some(UndecidedReason::DeadlineExceeded),
            uniform_margin: Rational::new(-1, 16),
            support_dims: 3,
        };
        let j = Json::parse(&timed_out.to_json().render()).unwrap();
        let back = PipelineDecision::from_json(&j).unwrap();
        assert_eq!(back.undecided, Some(UndecidedReason::DeadlineExceeded));
        assert_eq!(back.waves, 5);
        assert_eq!(back.uniform_margin, Rational::new(-1, 16));
        assert_eq!(back.support_dims, 3);
        for reason in [
            UndecidedReason::BudgetExhausted,
            UndecidedReason::DeadlineExceeded,
            UndecidedReason::Cancelled,
        ] {
            let j = Json::parse(&reason.to_json().render()).unwrap();
            assert_eq!(UndecidedReason::from_json(&j).unwrap(), reason);
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let j = Json::parse(r#"{"verdict":"maybe"}"#).unwrap();
        assert!(Verdict::<ProductWitness>::from_json(&j).is_err());
        let j = Json::parse(r#""warp_drive""#).unwrap();
        assert!(Stage::from_json(&j).is_err());
        let j = Json::parse(r#"{"kind":"criterion","name":"made-up"}"#).unwrap();
        assert!(SafeEvidence::from_json(&j).is_err());
    }
}
