//! Typed solver errors.
//!
//! The stage solvers originally reported failures as `String`s, which
//! forced callers that *respond* to failure — most importantly the
//! service's replan/degradation ladder — to parse prose. The
//! [`SolveError`] enum keeps the failure cause machine-readable:
//! infeasibility (degrade further and retry) is distinguishable from
//! numerical pathology or caller bugs (stop retrying; escalate).

use serde::{Deserialize, Serialize};
use std::fmt;
use thermaware_lp::LpError;

/// Stage names appear in [`SolveError`] as `&'static str`
/// (`#[serde(with = "stage_name")]`): reading interns the string back to
/// the known constant (or a recognizable fallback — the set of stages is
/// closed, so hitting the fallback means the payload came from a newer
/// writer).
mod stage_name {
    use serde::{Error, Serialize, Sink, Source};

    const KNOWN: &[&str] = &[
        "stage1",
        "stage2",
        "stage3",
        "baseline",
        "minlp",
        "min_power",
        "crac_search",
    ];

    pub(super) fn serialize<S: Sink>(stage: &&'static str, sink: &mut S) {
        stage.serialize(sink);
    }

    pub(super) fn deserialize(src: &mut Source<'_>) -> Result<&'static str, Error> {
        let stage = src.str()?;
        Ok(KNOWN.iter().find(|k| **k == stage).copied().unwrap_or("unrecognized"))
    }
}

/// Why a stage solver could not produce a plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SolveError {
    /// No searched CRAC outlet combination admitted a feasible
    /// power/thermal assignment (a thermally unbuildable configuration).
    NoFeasibleOutlets {
        /// Which solver was searching (`"stage1"`, `"baseline"`, ...).
        #[serde(with = "stage_name")]
        stage: &'static str,
    },
    /// The outlet combination chosen during the search failed the exact
    /// clamped-model recheck when re-solved — the linearization was
    /// optimistic at precisely the winning point.
    OutletRecheckFailed {
        /// Which solver was rechecking.
        #[serde(with = "stage_name")]
        stage: &'static str,
    },
    /// An LP embedded in a stage failed.
    Lp {
        /// Which solver owned the LP.
        #[serde(with = "stage_name")]
        stage: &'static str,
        /// The solver-level cause.
        source: LpError,
    },
    /// Caller-supplied input was malformed (wrong vector length, empty
    /// candidate set, ...). Replaces `assert!` panics on public entry
    /// points so a supervisor driving the solvers never aborts.
    InvalidInput {
        /// What was wrong.
        what: String,
    },
}

impl SolveError {
    /// `true` when the failure means "this configuration admits no
    /// plan" — the caller may degrade the configuration and retry.
    /// `false` for caller bugs and numerical pathologies, where retrying
    /// the same way cannot help.
    pub fn is_infeasible(&self) -> bool {
        match self {
            SolveError::NoFeasibleOutlets { .. } | SolveError::OutletRecheckFailed { .. } => true,
            SolveError::Lp { source, .. } => matches!(source, LpError::Infeasible { .. }),
            SolveError::InvalidInput { .. } => false,
        }
    }

    /// Malformed-input constructor.
    pub fn invalid_input(what: impl Into<String>) -> SolveError {
        SolveError::InvalidInput { what: what.into() }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NoFeasibleOutlets { stage } => {
                write!(f, "{stage}: no feasible CRAC outlet combination")
            }
            SolveError::OutletRecheckFailed { stage } => {
                write!(f, "{stage}: best outlet combination became infeasible")
            }
            SolveError::Lp { stage, source } => write!(f, "{stage} LP: {source}"),
            SolveError::InvalidInput { what } => write!(f, "invalid input: {what}"),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Lp { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `v` printed and read back as a `SolveError`.
    fn read(v: &Value) -> Result<SolveError, serde::Error> {
        serde_json::from_str(&serde_json::to_string(v).expect("prints"))
    }

    #[test]
    fn infeasibility_classification() {
        assert!(SolveError::NoFeasibleOutlets { stage: "stage1" }.is_infeasible());
        assert!(SolveError::OutletRecheckFailed { stage: "baseline" }.is_infeasible());
        assert!(SolveError::Lp {
            stage: "stage3",
            source: LpError::Infeasible { residual: 0.1 },
        }
        .is_infeasible());
        assert!(!SolveError::Lp {
            stage: "stage3",
            source: LpError::IterationLimit { limit: 1000 },
        }
        .is_infeasible());
        assert!(!SolveError::invalid_input("short pstates").is_infeasible());
    }

    #[test]
    fn serde_round_trips_every_variant() {
        let cases = vec![
            SolveError::NoFeasibleOutlets { stage: "stage1" },
            SolveError::OutletRecheckFailed { stage: "baseline" },
            SolveError::Lp {
                stage: "stage3",
                source: LpError::Unbounded {
                    var: "tc_0_1".to_string(),
                },
            },
            SolveError::Lp {
                stage: "crac_search",
                source: LpError::Infeasible { residual: 1e-3 },
            },
            SolveError::invalid_input("short pstates"),
        ];
        for e in cases {
            let back = read(&e.to_value()).expect("round trip");
            assert_eq!(back, e);
        }
    }

    #[test]
    fn unknown_stage_interns_to_fallback() {
        let mut v = SolveError::NoFeasibleOutlets { stage: "stage1" }.to_value();
        if let Value::Object(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "stage" {
                    *val = Value::String("from_the_future".to_string());
                }
            }
        }
        let back = read(&v).expect("deserializes");
        assert_eq!(back, SolveError::NoFeasibleOutlets { stage: "unrecognized" });
    }

    #[test]
    fn unknown_kind_rejected() {
        let v = Value::Object(vec![("kind".to_string(), "gremlin".to_value())]);
        assert!(read(&v).is_err());
    }
}
