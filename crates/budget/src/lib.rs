//! Cooperative execution budgets for long-running pipeline stages.
//!
//! A [`Budget`] bundles three independent limits:
//!
//! * a **wall-clock deadline** (absolute [`Instant`]),
//! * an **atomic cancel token** ([`CancelToken`]) that any thread can trip,
//! * an optional **work quota** (an abstract unit count — solver leaves,
//!   shot batches, characterization bins — charged via [`Budget::charge`]).
//!
//! The contract is *cooperative*: nothing is preempted. Long-running code
//! polls [`Budget::exhausted`] at coarse checkpoints (a decision point, a
//! shot-batch boundary, a characterization bin) and, when the budget is
//! gone, stops cleanly and returns its best-effort partial result tagged
//! with how far it got. Checkpoints are cheap — a relaxed atomic load plus
//! (at most) one `Instant::now` — so they can sit inside hot loops as long
//! as the loop body does real work between polls.
//!
//! Budgets are `Clone`: clones share the same cancel token and quota
//! counter, so a budget handed down through `core → smt/sim/charac` keeps
//! one coherent limit across layers.
//!
//! ```
//! use std::time::Duration;
//! use xtalk_budget::{Budget, Exhausted};
//!
//! let budget = Budget::with_deadline(Duration::from_millis(0));
//! std::thread::sleep(Duration::from_millis(1));
//! assert_eq!(budget.exhausted(), Some(Exhausted::Deadline));
//!
//! let budget = Budget::unlimited();
//! assert_eq!(budget.exhausted(), None);
//! budget.cancel_token().cancel();
//! assert_eq!(budget.exhausted(), Some(Exhausted::Cancelled));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budget stopped the work.
///
/// Ordered by how deliberate the stop was: an explicit cancel beats a
/// deadline beats a quota, and [`Budget::exhausted`] reports the first
/// one that holds in that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhausted {
    /// The cancel token was tripped (client cancel, server shutdown).
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
    /// The work quota was spent.
    Quota,
}

impl Exhausted {
    /// Stable wire/metric label (`"cancelled"`, `"deadline"`, `"quota"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Exhausted::Cancelled => "cancelled",
            Exhausted::Deadline => "deadline",
            Exhausted::Quota => "quota",
        }
    }
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A shareable cancellation flag.
///
/// Cheap to clone (one `Arc`); tripping it is sticky — there is no
/// un-cancel. The serve layer keeps one per in-flight job so a `cancel`
/// request can reach work already running on a worker thread.
#[derive(Clone, Default, Debug)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A cooperative execution budget: deadline + cancel token + work quota.
///
/// Clones share the cancel token and the quota counter; the deadline is a
/// plain `Instant` copied into each clone. [`Budget::unlimited`] never
/// exhausts (short of an explicit cancel) and is the default handed to
/// code paths with no caller-imposed limit.
#[derive(Clone, Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: CancelToken,
    /// Work units spent so far, shared across clones.
    spent: Arc<AtomicU64>,
    quota: Option<u64>,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no deadline and no quota; only an explicit cancel
    /// can exhaust it.
    pub fn unlimited() -> Budget {
        Budget {
            deadline: None,
            cancel: CancelToken::new(),
            spent: Arc::new(AtomicU64::new(0)),
            quota: None,
        }
    }

    /// A budget expiring `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Budget {
        Budget { deadline: Some(Instant::now() + timeout), ..Budget::unlimited() }
    }

    /// A budget expiring at an absolute instant (used by the serve layer
    /// to pin the deadline at request arrival, before queue wait).
    pub fn with_deadline_at(deadline: Instant) -> Budget {
        Budget { deadline: Some(deadline), ..Budget::unlimited() }
    }

    /// Adds a work quota (abstract units, charged via [`charge`]).
    ///
    /// [`charge`]: Budget::charge
    pub fn with_quota(mut self, quota: u64) -> Budget {
        self.quota = Some(quota);
        self
    }

    /// Replaces the cancel token with an externally held one, so a
    /// registry (e.g. the serve cancel table) can trip this budget.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Budget {
        self.cancel = token;
        self
    }

    /// The shared cancel token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline; `None` means unlimited. A deadline
    /// in the past yields `Some(Duration::ZERO)`.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Charges `units` of work against the quota. Returns the reason if
    /// the budget is now (or already was) exhausted. Charging is allowed
    /// to overshoot — the *next* checkpoint sees the quota spent.
    pub fn charge(&self, units: u64) -> Option<Exhausted> {
        self.spent.fetch_add(units, Ordering::Relaxed);
        self.exhausted()
    }

    /// The work quota, if any.
    pub fn quota(&self) -> Option<u64> {
        self.quota
    }

    /// Work units charged so far across all clones.
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// The checkpoint poll: `None` while the budget holds, or the first
    /// exhausted limit (cancel ≻ deadline ≻ quota).
    pub fn exhausted(&self) -> Option<Exhausted> {
        if self.cancel.is_cancelled() {
            return Some(Exhausted::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Exhausted::Deadline);
            }
        }
        if let Some(quota) = self.quota {
            if self.spent.load(Ordering::Relaxed) >= quota {
                return Some(Exhausted::Quota);
            }
        }
        None
    }

    /// `true` while the budget still holds.
    pub fn ok(&self) -> bool {
        self.exhausted().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        assert_eq!(b.exhausted(), None);
        assert!(b.ok());
        assert_eq!(b.remaining(), None);
        assert_eq!(b.charge(1 << 40), None);
    }

    #[test]
    fn past_deadline_exhausts() {
        let b = Budget::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.exhausted(), Some(Exhausted::Deadline));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_holds() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        assert_eq!(b.exhausted(), None);
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancel_is_sticky_and_shared() {
        let b = Budget::unlimited();
        let clone = b.clone();
        b.cancel_token().cancel();
        assert_eq!(clone.exhausted(), Some(Exhausted::Cancelled));
        // Cancel wins over a spent quota.
        let b = Budget::unlimited().with_quota(0);
        b.cancel_token().cancel();
        assert_eq!(b.exhausted(), Some(Exhausted::Cancelled));
    }

    #[test]
    fn quota_spends_across_clones() {
        let b = Budget::unlimited().with_quota(10);
        let clone = b.clone();
        assert_eq!(b.charge(4), None);
        assert_eq!(clone.charge(5), None);
        assert_eq!(b.charge(1), Some(Exhausted::Quota));
        assert_eq!(b.spent(), 10);
        assert_eq!(clone.exhausted(), Some(Exhausted::Quota));
    }

    #[test]
    fn external_token_reaches_budget() {
        let token = CancelToken::new();
        let b = Budget::with_deadline(Duration::from_secs(3600)).with_cancel_token(token.clone());
        assert!(b.ok());
        token.cancel();
        assert_eq!(b.exhausted(), Some(Exhausted::Cancelled));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Exhausted::Cancelled.to_string(), "cancelled");
        assert_eq!(Exhausted::Deadline.as_str(), "deadline");
        assert_eq!(Exhausted::Quota.as_str(), "quota");
    }
}
