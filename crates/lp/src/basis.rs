//! The warm-start handle: an opaque snapshot of a simplex basis.
//!
//! A [`Basis`] captures which internal columns were basic and at which
//! bound every nonbasic column sat when a solve finished. Passing it back
//! into [`crate::Problem::solve_warm`] on a *structurally identical*
//! problem (same variables and bound-finiteness pattern, same rows and
//! operators — only costs, right-hand sides, and coefficient values may
//! differ) lets the revised simplex start from the previous optimum
//! instead of from scratch. A structural mismatch is detected via the
//! embedded signature and silently degrades to a cold solve — a stale
//! basis can cost nothing worse than the solve you would have done anyway.
//!
//! The handle is deliberately opaque (no public field access): its
//! contents are meaningless outside the internal column layout of the
//! problem that produced it. It is serializable so long-lived callers
//! (a fleet zone's persisted state) can carry it across
//! checkpoint/restore without replanning cold after a resume.

use crate::internal::{InternalForm, VarState};
use serde::{Deserialize, Serialize};

const ST_LOWER: u8 = 0;
const ST_UPPER: u8 = 1;
const ST_BASIC: u8 = 2;

/// Opaque warm-start snapshot of a simplex basis. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Basis {
    /// Structural signature of the internal form that produced this basis
    /// (48-bit, survives JSON round trips exactly).
    sig: u64,
    /// Basic column of each row.
    basic: Vec<usize>,
    /// Bound state of every internal column (`ST_*` codes).
    state: Vec<u8>,
}

impl Basis {
    /// Snapshot a finished solve's basis.
    pub(crate) fn capture(sig: u64, basic: &[usize], states: &[VarState]) -> Basis {
        Basis {
            sig,
            basic: basic.to_vec(),
            state: states
                .iter()
                .map(|s| match s {
                    VarState::Lower => ST_LOWER,
                    VarState::Upper => ST_UPPER,
                    VarState::Basic => ST_BASIC,
                })
                .collect(),
        }
    }

    /// Validate against an internal form and expand into engine state.
    ///
    /// Returns `None` when the basis does not belong to this structure:
    /// signature mismatch, dimension mismatch, or inconsistent
    /// basic/nonbasic bookkeeping. Callers treat `None` as "solve cold".
    pub(crate) fn restore(&self, f: &InternalForm) -> Option<(Vec<usize>, Vec<VarState>)> {
        if self.sig != f.signature
            || self.basic.len() != f.m()
            || self.state.len() != f.n_total
        {
            return None;
        }
        let mut states = Vec::with_capacity(f.n_total);
        for &code in &self.state {
            states.push(match code {
                ST_LOWER => VarState::Lower,
                ST_UPPER => VarState::Upper,
                ST_BASIC => VarState::Basic,
                _ => return None,
            });
        }
        let mut seen = vec![false; f.n_total];
        for &j in &self.basic {
            if j >= f.n_total || seen[j] || states[j] != VarState::Basic {
                return None;
            }
            seen[j] = true;
        }
        // Every column marked basic must actually be in the basis.
        if states.iter().filter(|&&s| s == VarState::Basic).count() != self.basic.len() {
            return None;
        }
        // A column can only rest at a finite bound.
        for (j, s) in states.iter().enumerate() {
            if *s == VarState::Upper && !f.upper[j].is_finite() {
                return None;
            }
        }
        Some((self.basic.clone(), states))
    }
}
