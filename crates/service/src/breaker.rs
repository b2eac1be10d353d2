//! Circuit breaker around LP replans.
//!
//! State machine (all transitions happen inside the deterministic
//! engine step, driven by journaled [`crate::engine::ReplanVerdict`]s,
//! so replay reproduces every transition bit-for-bit):
//!
//! ```text
//!            N consecutive failures
//!   Closed ─────────────────────────▶ Open ── cooldown elapsed ──▶ HalfOpen
//!     ▲                                ▲                              │
//!     │        probe succeeded         │       probe failed           │
//!     └────────────────────────────────┼──────────────────────────────┤
//!                                      └──────── (cooldown ×2, capped)┘
//! ```
//!
//! While `Open` no solves are attempted at all: the daemon serves the
//! stale plan and the engine sheds the lowest-reward task type (the
//! PR-1 degradation ladder's last rung). `HalfOpen` admits exactly one
//! probe solve; success closes the breaker and unsheds everything,
//! failure reopens it with a doubled (capped) cooldown.

use serde::{Deserialize, Serialize};
use thermaware_runtime::degrade::back_off;

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failed/timed-out replans that open the breaker.
    pub failure_threshold: u32,
    /// Epochs the breaker stays open before the first half-open probe.
    pub cooldown_epochs: u32,
    /// Cap on the doubling cooldown.
    pub max_cooldown_epochs: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_epochs: 4,
            max_cooldown_epochs: 64,
        }
    }
}

/// Where the breaker is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Normal operation: solves allowed.
    Closed,
    /// Solves suppressed; serving the stale plan, shedding load.
    Open,
    /// Cooldown elapsed: one probe solve allowed.
    HalfOpen,
}

impl BreakerState {
    /// Lowercase name for stats/trace output.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// The breaker itself — plain serializable data, mutated only by the
/// engine's deterministic step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CircuitBreaker {
    /// Current state.
    pub state: BreakerState,
    /// Consecutive failures while closed.
    pub consecutive_failures: u32,
    /// Epochs left before an open breaker goes half-open.
    pub cooldown_left: u32,
    /// Cooldown the *next* reopen will use (doubles, capped).
    pub cooldown_len: u32,
    /// Times the breaker has opened over its life.
    pub opens: u64,
}

impl CircuitBreaker {
    /// A closed breaker with `cfg`'s initial cooldown.
    pub fn new(cfg: &BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_left: 0,
            cooldown_len: cfg.cooldown_epochs.max(1),
            opens: 0,
        }
    }

    /// May a solve be spawned right now? (`HalfOpen` allows the probe;
    /// the caller is responsible for spawning at most one at a time.)
    pub fn allows_solve(&self) -> bool {
        !matches!(self.state, BreakerState::Open)
    }

    /// Advance one epoch: count an open breaker's cooldown down and go
    /// half-open when it elapses. Returns `true` on the Open→HalfOpen
    /// transition.
    pub fn tick(&mut self) -> bool {
        if self.state == BreakerState::Open {
            self.cooldown_left = self.cooldown_left.saturating_sub(1);
            if self.cooldown_left == 0 {
                self.state = BreakerState::HalfOpen;
                return true;
            }
        }
        false
    }

    /// A replan succeeded. Returns `true` when this *closes* a
    /// half-open breaker (the caller unsheds everything).
    pub fn on_success(&mut self, cfg: &BreakerConfig) -> bool {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            self.cooldown_len = cfg.cooldown_epochs.max(1);
            return true;
        }
        false
    }

    /// A replan failed or timed out. Returns `true` when this *opens*
    /// the breaker (the caller sheds one task type).
    pub fn on_failure(&mut self, cfg: &BreakerConfig) -> bool {
        match self.state {
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                // Failed probe: reopen, double the cooldown.
                self.state = BreakerState::Open;
                back_off(
                    &mut self.cooldown_left,
                    &mut self.cooldown_len,
                    cfg.max_cooldown_epochs.max(1),
                );
                self.opens = self.opens.saturating_add(1);
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                if self.consecutive_failures >= cfg.failure_threshold.max(1) {
                    self.state = BreakerState::Open;
                    self.cooldown_left = self.cooldown_len;
                    self.opens = self.opens.saturating_add(1);
                    true
                } else {
                    false
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_and_recovers_via_probe() {
        let cfg = BreakerConfig { failure_threshold: 3, cooldown_epochs: 2, max_cooldown_epochs: 8 };
        let mut b = CircuitBreaker::new(&cfg);
        assert!(!b.on_failure(&cfg));
        assert!(!b.on_failure(&cfg));
        assert!(b.on_failure(&cfg), "third consecutive failure opens");
        assert_eq!(b.state, BreakerState::Open);
        assert!(!b.allows_solve());
        assert!(!b.tick());
        assert!(b.tick(), "cooldown elapsed: half-open");
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert!(b.allows_solve());
        assert!(b.on_success(&cfg), "probe success closes");
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.opens, 1);
    }

    #[test]
    fn failed_probe_doubles_cooldown_capped() {
        let cfg = BreakerConfig { failure_threshold: 1, cooldown_epochs: 2, max_cooldown_epochs: 5 };
        let mut b = CircuitBreaker::new(&cfg);
        assert!(b.on_failure(&cfg));
        let mut lens = vec![b.cooldown_left];
        for _ in 0..3 {
            while !b.tick() {}
            assert!(b.on_failure(&cfg), "failed probe reopens");
            lens.push(b.cooldown_left);
        }
        assert_eq!(lens, vec![2, 2, 4, 5], "doubling, capped at 5");
        assert_eq!(b.opens, 4);
    }

    #[test]
    fn round_trips_through_json() {
        let cfg = BreakerConfig::default();
        let mut b = CircuitBreaker::new(&cfg);
        for _ in 0..cfg.failure_threshold {
            b.on_failure(&cfg);
        }
        let json = serde_json::to_string(&b).expect("encode");
        let back: CircuitBreaker = serde_json::from_str(&json).expect("decode");
        assert_eq!(back, b);
        assert_eq!(serde_json::to_string(&back).expect("re-encode"), json);
    }
}
