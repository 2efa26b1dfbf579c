//! Cooperative cancellation: deadlines and deterministic work budgets.
//!
//! A compile job can hold a worker hostage indefinitely — GRAPE restarts,
//! duration-search probes, and QSearch frontiers are all unbounded in the
//! worst case. This module gives callers two ways to bound a job:
//!
//! * **Wall-clock deadline** (`deadline_ms`): checked at the same
//!   deterministic points as budgets, but time-dependent by nature — so a
//!   blown deadline *fails the whole job* with a typed error rather than
//!   degrading it. A job either completes byte-identically to an
//!   undeadlined run or fails typed; it never silently produces a
//!   schedule that depends on machine speed.
//! * **Work budgets** (`Budget`): caps counted in work units — GRAPE
//!   Adam iterations and QSearch node evaluations — charged per work item
//!   (per block) through a [`CancelScope`]. Budget exhaustion is *soft*:
//!   the optimizer stops early with whatever it has, and the existing
//!   recovery ladder degrades the block (ultimately to the digital
//!   fallback model). Because budgets are counted in work units, not
//!   time, budgeted outcomes — including the recovery rungs taken — are
//!   byte-identical at any worker count.
//!
//! An explicit [`CancelToken::cancel`] flag (epocd uses it for drain)
//! behaves like a deadline: hard, typed failure.
//!
//! The default token is inert: every poll is a no-op and the optimizer
//! hot loops stay branch-predictable, so unbudgeted compiles pay nothing.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a job was cancelled hard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The token's cancel flag was raised (e.g. service drain).
    Canceled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Canceled => write!(f, "canceled"),
            CancelReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// Deterministic per-work-item work budgets.
///
/// `None` means unlimited. Budgets apply *per block* (per
/// [`CancelScope`]), so a job's outcome does not depend on which worker
/// processed which block or in what order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Cap on total GRAPE Adam iterations per block (across restarts,
    /// duration-search probes, and recovery-ladder attempts).
    pub grape_iters: Option<u64>,
    /// Cap on QSearch node evaluations per block (across budget-escalation
    /// retries).
    pub qsearch_nodes: Option<u64>,
}

impl Budget {
    /// `true` when at least one cap is set.
    pub fn is_limited(&self) -> bool {
        self.grape_iters.is_some() || self.qsearch_nodes.is_some()
    }

    /// Parses a budget spec of the form
    /// `grape_iters=N,qsearch_nodes=M` (either key may be omitted).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for unknown keys or non-numeric
    /// values.
    pub fn parse_spec(spec: &str) -> Result<Budget, String> {
        let mut budget = Budget::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("budget clause '{part}' is not key=value"))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("budget value '{value}' is not a non-negative integer"))?;
            match key.trim() {
                "grape_iters" => budget.grape_iters = Some(n),
                "qsearch_nodes" => budget.qsearch_nodes = Some(n),
                other => return Err(format!("unknown budget key '{other}'")),
            }
        }
        Ok(budget)
    }
}

/// A cancellation token: optional cancel flag, optional wall-clock
/// deadline, optional work budgets. Cloning is cheap; clones share the
/// cancel flag.
///
/// # Examples
///
/// ```
/// use epoc_rt::cancel::{Budget, CancelToken};
///
/// let token = CancelToken::new()
///     .with_budget(Budget { grape_iters: Some(100), qsearch_nodes: None });
/// let scope = token.scope();
/// assert!(scope.spend_grape_iter().unwrap()); // within budget
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    budget: Budget,
}

impl CancelToken {
    /// A token with a cancel flag but no deadline and no budgets.
    pub fn new() -> Self {
        Self {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: None,
            budget: Budget::default(),
        }
    }

    /// Adds a wall-clock deadline `ms` milliseconds from now.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Instant::now() + Duration::from_millis(ms));
        self
    }

    /// Adds deterministic work budgets.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Raises the cancel flag: every scope of this token (and its
    /// clones) fails its next poll with [`CancelReason::Canceled`].
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// The token's work budgets.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// `true` when the token carries any work budget (callers use this
    /// to decide whether a degraded result may have been caused by a
    /// budget rather than the problem itself).
    pub fn has_budget(&self) -> bool {
        self.budget.is_limited()
    }

    /// `true` when the token can ever cancel or degrade anything —
    /// `false` for the inert default token.
    pub fn is_active(&self) -> bool {
        self.flag.is_some() || self.deadline.is_some() || self.budget.is_limited()
    }

    /// Checks the *hard* cancellation conditions (flag, deadline).
    /// Budgets are soft and live on the scope.
    pub fn hard_reason(&self) -> Option<CancelReason> {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Relaxed) {
                return Some(CancelReason::Canceled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(CancelReason::DeadlineExceeded);
            }
        }
        None
    }

    /// Opens a per-work-item scope charging against fresh budget
    /// counters. Each block of a compile gets its own scope, so budget
    /// accounting is independent of work distribution across threads.
    pub fn scope(&self) -> CancelScope {
        CancelScope {
            token: self.clone(),
            grape_spent: Cell::new(0),
            qsearch_spent: Cell::new(0),
        }
    }
}

/// Per-work-item cancellation scope: shares the token's flag/deadline,
/// owns fresh budget counters. Not `Sync` — create one scope per block,
/// inside the worker that processes it.
#[derive(Debug)]
pub struct CancelScope {
    token: CancelToken,
    grape_spent: Cell<u64>,
    qsearch_spent: Cell<u64>,
}

impl CancelScope {
    /// An inert scope (no flag, no deadline, no budgets) for callers
    /// that don't thread a token.
    pub fn none() -> Self {
        CancelToken::default().scope()
    }

    /// Polls the hard cancellation conditions.
    ///
    /// # Errors
    ///
    /// Returns the [`CancelReason`] when the token's flag is raised or
    /// its deadline has passed.
    pub fn poll(&self) -> Result<(), CancelReason> {
        match self.token.hard_reason() {
            Some(reason) => Err(reason),
            None => Ok(()),
        }
    }

    /// Charges one GRAPE Adam iteration against the scope's budget.
    ///
    /// Returns `Ok(true)` when the iteration is within budget,
    /// `Ok(false)` when the budget is exhausted (soft: the caller stops
    /// optimizing and lets the recovery ladder degrade the block).
    ///
    /// # Errors
    ///
    /// Returns the [`CancelReason`] on a hard cancel (flag or deadline).
    pub fn spend_grape_iter(&self) -> Result<bool, CancelReason> {
        if !self.token.is_active() {
            return Ok(true);
        }
        self.poll()?;
        match self.token.budget.grape_iters {
            None => Ok(true),
            Some(cap) => {
                if self.grape_spent.get() >= cap {
                    Ok(false)
                } else {
                    self.grape_spent.set(self.grape_spent.get() + 1);
                    Ok(true)
                }
            }
        }
    }

    /// Charges `n` QSearch node evaluations against the scope's budget.
    ///
    /// Returns `Ok(true)` when within budget, `Ok(false)` when
    /// exhausted (soft: the search stops expanding and returns its best
    /// partial result, exactly as if `max_nodes` had been reached).
    ///
    /// # Errors
    ///
    /// Returns the [`CancelReason`] on a hard cancel (flag or deadline).
    pub fn spend_qsearch_nodes(&self, n: u64) -> Result<bool, CancelReason> {
        if !self.token.is_active() {
            return Ok(true);
        }
        self.poll()?;
        match self.token.budget.qsearch_nodes {
            None => Ok(true),
            Some(cap) => {
                let spent = self.qsearch_spent.get();
                if spent >= cap {
                    Ok(false)
                } else {
                    self.qsearch_spent.set(spent.saturating_add(n));
                    Ok(true)
                }
            }
        }
    }

    /// GRAPE iterations charged so far.
    pub fn grape_spent(&self) -> u64 {
        self.grape_spent.get()
    }

    /// QSearch nodes charged so far.
    pub fn qsearch_spent(&self) -> u64 {
        self.qsearch_spent.get()
    }

    /// The token this scope charges against.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_is_inert() {
        let token = CancelToken::default();
        assert!(!token.is_active());
        assert!(token.hard_reason().is_none());
        let scope = token.scope();
        assert!(scope.poll().is_ok());
        assert_eq!(scope.spend_grape_iter(), Ok(true));
        assert_eq!(scope.spend_qsearch_nodes(100), Ok(true));
        // Inert scopes don't even count (fast path).
        assert_eq!(scope.grape_spent(), 0);
    }

    #[test]
    fn cancel_flag_is_shared_across_clones_and_scopes() {
        let token = CancelToken::new();
        let clone = token.clone();
        let scope = clone.scope();
        assert!(scope.poll().is_ok());
        token.cancel();
        assert_eq!(scope.poll(), Err(CancelReason::Canceled));
        assert_eq!(scope.spend_grape_iter(), Err(CancelReason::Canceled));
    }

    #[test]
    fn elapsed_deadline_fails_hard() {
        let token = CancelToken::new().with_deadline_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        let scope = token.scope();
        assert_eq!(scope.poll(), Err(CancelReason::DeadlineExceeded));
        assert_eq!(
            scope.spend_qsearch_nodes(1),
            Err(CancelReason::DeadlineExceeded)
        );
    }

    #[test]
    fn budgets_exhaust_softly_and_per_scope() {
        let token = CancelToken::default().with_budget(Budget {
            grape_iters: Some(2),
            qsearch_nodes: Some(3),
        });
        let scope = token.scope();
        assert_eq!(scope.spend_grape_iter(), Ok(true));
        assert_eq!(scope.spend_grape_iter(), Ok(true));
        assert_eq!(scope.spend_grape_iter(), Ok(false));
        assert_eq!(scope.grape_spent(), 2);
        assert_eq!(scope.spend_qsearch_nodes(2), Ok(true));
        assert_eq!(scope.spend_qsearch_nodes(2), Ok(true));
        assert_eq!(scope.spend_qsearch_nodes(2), Ok(false));
        // A fresh scope on the same token has a fresh budget.
        let fresh = token.scope();
        assert_eq!(fresh.spend_grape_iter(), Ok(true));
    }

    #[test]
    fn parse_spec_round_trips_both_keys() {
        let b = Budget::parse_spec("grape_iters=100,qsearch_nodes=50").unwrap();
        assert_eq!(b.grape_iters, Some(100));
        assert_eq!(b.qsearch_nodes, Some(50));
        let b = Budget::parse_spec("qsearch_nodes=7").unwrap();
        assert_eq!(b.grape_iters, None);
        assert_eq!(b.qsearch_nodes, Some(7));
        assert!(Budget::parse_spec("grape_iters=x").is_err());
        assert!(Budget::parse_spec("nodes=3").is_err());
        assert!(Budget::parse_spec("grape_iters").is_err());
        assert!(!Budget::parse_spec("").unwrap().is_limited());
    }

    #[test]
    fn reasons_display() {
        assert_eq!(CancelReason::Canceled.to_string(), "canceled");
        assert_eq!(CancelReason::DeadlineExceeded.to_string(), "deadline exceeded");
    }
}
