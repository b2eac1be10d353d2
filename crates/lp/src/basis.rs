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
///
/// `clone_from` copies into the storage the target has, so a caller
/// that chains solves keeps one basis and allocates nothing for it.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Basis {
    /// Structural signature of the internal form that produced this basis
    /// (48-bit, survives JSON round trips exactly).
    sig: u64,
    /// Basic column of each row.
    basic: Vec<usize>,
    /// Bound state of every internal column (`ST_*` codes).
    state: Vec<u8>,
}

impl Clone for Basis {
    fn clone(&self) -> Self {
        Basis { sig: self.sig, basic: self.basic.clone(), state: self.state.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.sig = source.sig;
        self.basic.clone_from(&source.basic);
        self.state.clone_from(&source.state);
    }
}

impl Basis {
    /// Snapshot a finished solve's basis into `into`, in the storage the
    /// basis there has.
    pub(crate) fn capture(into: &mut Option<Basis>, sig: u64, basic: &[usize], states: &[VarState]) {
        let b = into.get_or_insert_with(|| Basis { sig, basic: Vec::new(), state: Vec::new() });
        b.sig = sig;
        b.basic.clear();
        b.basic.extend_from_slice(basic);
        b.state.clear();
        b.state.extend(states.iter().map(|s| match s {
            VarState::Lower => ST_LOWER,
            VarState::Upper => ST_UPPER,
            VarState::Basic => ST_BASIC,
        }));
    }

    /// Validate against an internal form and expand into engine state,
    /// written into `basic` and `states` in the storage they have.
    ///
    /// Returns `false` when the basis does not belong to this structure:
    /// signature mismatch, dimension mismatch, or inconsistent
    /// basic/nonbasic bookkeeping. Callers treat `false` as "solve cold"
    /// (and `basic`, `states` as garbage).
    pub(crate) fn restore(
        &self,
        f: &InternalForm,
        basic: &mut Vec<usize>,
        states: &mut Vec<VarState>,
    ) -> bool {
        if self.sig != f.signature
            || self.basic.len() != f.m()
            || self.state.len() != f.n_total
        {
            return false;
        }
        states.clear();
        for &code in &self.state {
            states.push(match code {
                ST_LOWER => VarState::Lower,
                ST_UPPER => VarState::Upper,
                ST_BASIC => VarState::Basic,
                _ => return false,
            });
        }
        // Every basic column is in range, marked basic and listed once:
        // each one listed is unmarked as it is met, so a repeat finds its
        // mark gone.
        for &j in &self.basic {
            if j >= f.n_total || states[j] != VarState::Basic {
                return false;
            }
            states[j] = VarState::Lower;
        }
        // Every column marked basic must actually be in the basis.
        if states.contains(&VarState::Basic) {
            return false;
        }
        for &j in &self.basic {
            states[j] = VarState::Basic;
        }
        // A column can only rest at a finite bound.
        for (j, s) in states.iter().enumerate() {
            if *s == VarState::Upper && !f.upper[j].is_finite() {
                return false;
            }
        }
        basic.clone_from(&self.basic);
        true
    }
}
