//! Resource governance: the [`Budget`] a caller sets, the [`Governor`] that
//! enforces it, and the [`Completion`] status every evaluator reports.
//!
//! A [`Budget`] declares up to three limits: a wall-clock deadline, a
//! derived-fact cap and a fixpoint-round cap. A [`Governor`] enforces them
//! at run time. Evaluators consult it at round boundaries *and* once per
//! block in the join's emission path, so even a single enormous round is
//! interruptible. On exhaustion they return a well-formed partial result
//! tagged [`Completion::BudgetExhausted`] — never a torn state, never an
//! error. What a run spent is recorded by the evaluators' own metrics
//! (`EvalMetrics`, `OldtMetrics`); the governor keeps only what enforcement
//! needs.
//!
//! ## Exactness of the fact budget
//!
//! The fact budget uses *claim-before-insert* semantics: an evaluator asks
//! the governor for a slot **before** materialising a fact it has verified
//! to be new. When the budget is exhausted the fact is refused and the run
//! stops, so a sequential run reports `BudgetExhausted { Facts }` **iff**
//! its database is a strict subset of the unbudgeted fixpoint (a refusal
//! witnesses a derivable missing fact; conversely, a fixpoint that fits the
//! budget never triggers a refusal). A fixpoint round need not claim one
//! fact at a time while the rows it has staged are fewer than
//! [`Governor::facts_left`] — no claim could be refused — so it claims its
//! new facts in bulk when it folds them in ([`Governor::claim_facts`]),
//! and claims per fact only from the emission that could exhaust the
//! budget on.
//!
//! When no limit is set, [`Governor::active`] is false and every check is a
//! single branch — governance costs nothing on the default path and the
//! relations/metrics determinism guarantees are untouched.

use std::fmt;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// The resource whose budget ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline passed.
    WallClock,
    /// The derived-fact budget was used up.
    Facts,
    /// The fixpoint-round / iteration budget was used up.
    Rounds,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::WallClock => "wall-clock",
            Resource::Facts => "facts",
            Resource::Rounds => "rounds",
        })
    }
}

/// How an evaluation ended. Mirrors (and generalises) the SLD engine's
/// `complete` flag: `Complete` means the result is the full model /
/// answer set; anything else means a well-formed *partial* result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Completion {
    /// The fixpoint (or search space) was fully computed.
    #[default]
    Complete,
    /// A resource budget ran out first; the result is a sound subset.
    BudgetExhausted { resource: Resource },
}

impl Completion {
    /// True iff the evaluation ran to the full fixpoint.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }
}

impl fmt::Display for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completion::Complete => f.write_str("complete"),
            Completion::BudgetExhausted { resource } => {
                write!(f, "budget exhausted ({resource})")
            }
        }
    }
}

/// Declarative resource limits for one evaluation. `Default` is unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit for the whole run.
    pub timeout: Option<Duration>,
    /// Maximum *new* facts the run may materialise (derived facts only;
    /// the seed EDB is free).
    pub max_facts: Option<u64>,
    /// Maximum fixpoint rounds / iterations.
    pub max_rounds: Option<u64>,
}

impl Budget {
    /// No limits at all.
    pub const UNLIMITED: Budget = Budget {
        timeout: None,
        max_facts: None,
        max_rounds: None,
    };

    /// True iff no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none() && self.max_facts.is_none() && self.max_rounds.is_none()
    }

    /// Builder: wall-clock limit in milliseconds.
    pub fn with_timeout_ms(mut self, ms: u64) -> Budget {
        self.timeout = Some(Duration::from_millis(ms));
        self
    }

    /// Builder: derived-fact limit.
    pub fn with_max_facts(mut self, n: u64) -> Budget {
        self.max_facts = Some(n);
        self
    }

    /// Builder: fixpoint-round limit.
    pub fn with_max_rounds(mut self, n: u64) -> Budget {
        self.max_rounds = Some(n);
        self
    }
}

// Stop reasons, encoded for the first-stop-wins CAS.
const STOP_NONE: u8 = 0;
const STOP_WALL: u8 = 1;
const STOP_FACTS: u8 = 2;
const STOP_ROUNDS: u8 = 3;

/// How many firings go by between wall-clock reads on the conditional
/// fixpoint's per-firing path. Reading the clock on every emission shows up
/// in profiles; amortising bounds the detection lag to ~a thousand
/// emissions. Round boundaries always read the clock.
const DEADLINE_STRIDE: u64 = 1024;

/// Run-time enforcement of a [`Budget`]. Shared by reference across round
/// workers (all state is atomic). The first limit to trip wins and is
/// sticky: every later check reports stop.
#[derive(Debug)]
pub struct Governor {
    deadline: Option<Instant>,
    max_facts: Option<u64>,
    max_rounds: Option<u64>,
    facts: AtomicU64,
    rounds: AtomicU64,
    firings: AtomicU64,
    stop: AtomicU8,
    active: bool,
}

impl Governor {
    /// Builds a governor for one run. The deadline clock starts here.
    pub fn new(budget: Budget) -> Governor {
        Governor {
            deadline: budget.timeout.map(|t| Instant::now() + t),
            max_facts: budget.max_facts,
            max_rounds: budget.max_rounds,
            facts: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            firings: AtomicU64::new(0),
            stop: AtomicU8::new(STOP_NONE),
            active: !budget.is_unlimited(),
        }
    }

    /// False when no limit is set: evaluators then skip governance entirely
    /// (pass `None` down the join).
    pub fn active(&self) -> bool {
        self.active
    }

    /// `Some(self)` when active — the form the join input wants.
    pub fn as_join_ref(&self) -> Option<&Governor> {
        if self.active {
            Some(self)
        } else {
            None
        }
    }

    fn trip(&self, reason: u8) -> ControlFlow<()> {
        // First stop wins; later trips keep the original reason.
        let _ = self
            .stop
            .compare_exchange(STOP_NONE, reason, Ordering::Relaxed, Ordering::Relaxed);
        ControlFlow::Break(())
    }

    /// True once any limit tripped.
    pub fn should_stop(&self) -> bool {
        self.active && self.stop.load(Ordering::Relaxed) != STOP_NONE
    }

    /// The deadline check. Callers have already verified the governor is
    /// active and not yet stopped.
    fn past_deadline(&self) -> ControlFlow<()> {
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => self.trip(STOP_WALL),
            _ => ControlFlow::Continue(()),
        }
    }

    /// Counts one firing of the conditional fixpoint's statement join and
    /// reads the clock every `DEADLINE_STRIDE` firings — that join hands
    /// over one binding row at a time, so it has no block boundary to
    /// check at.
    pub fn note_firing(&self) -> ControlFlow<()> {
        if !self.active {
            return ControlFlow::Continue(());
        }
        if self.stop.load(Ordering::Relaxed) != STOP_NONE {
            return ControlFlow::Break(());
        }
        let fired = self.firings.fetch_add(1, Ordering::Relaxed) + 1;
        if fired.is_multiple_of(DEADLINE_STRIDE) {
            self.past_deadline()
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Claims one slot of the fact budget **before** a verified-new fact is
    /// materialised. `Break` refuses the fact: the caller must drop it and
    /// stop. This claim-before-insert protocol is what makes sequential
    /// `BudgetExhausted { Facts }` equivalent to "strict subset of the
    /// fixpoint" (see the module docs).
    pub fn claim_fact(&self) -> ControlFlow<()> {
        if !self.active {
            return ControlFlow::Continue(());
        }
        if self.stop.load(Ordering::Relaxed) != STOP_NONE {
            return ControlFlow::Break(());
        }
        // `fetch_add` hands every concurrent claimer a distinct slot number,
        // so exactly `max` claims are granted — same semantics as a CAS
        // loop at the cost of a single RMW.
        match self.max_facts {
            Some(max) if self.facts.fetch_add(1, Ordering::Relaxed) >= max => self.trip(STOP_FACTS),
            _ => ControlFlow::Continue(()),
        }
    }

    /// How many more facts the fact budget admits; `None` without one.
    pub fn facts_left(&self) -> Option<u64> {
        let max = self.max_facts.filter(|_| self.active)?;
        Some(max.saturating_sub(self.facts.load(Ordering::Relaxed)))
    }

    /// Claims `n` slots at once for facts already materialised that the
    /// caller knows fit the budget (at most [`Governor::facts_left`] of
    /// them): a fixpoint round that stayed below its budget claims its new
    /// facts when it folds them in.
    pub fn claim_facts(&self, n: u64) {
        if let Some(max) = self.max_facts.filter(|_| self.active) {
            let before = self.facts.fetch_add(n, Ordering::Relaxed);
            debug_assert!(before + n <= max, "claimed past the fact budget");
        }
    }

    /// Charged at the top of every fixpoint round / iteration. `Break`
    /// means the round must not start.
    pub fn note_round(&self) -> ControlFlow<()> {
        if !self.active {
            return ControlFlow::Continue(());
        }
        if self.stop.load(Ordering::Relaxed) != STOP_NONE {
            return ControlFlow::Break(());
        }
        if let Some(max) = self.max_rounds {
            if self.rounds.fetch_add(1, Ordering::Relaxed) >= max {
                return self.trip(STOP_ROUNDS);
            }
        }
        self.past_deadline()
    }

    /// The deadline check for call sites that charge nothing: once per
    /// block in the executor's sink, once per resolution step in OLDT and
    /// QSQR.
    pub fn check_interrupt(&self) -> ControlFlow<()> {
        if !self.active {
            return ControlFlow::Continue(());
        }
        if self.stop.load(Ordering::Relaxed) != STOP_NONE {
            return ControlFlow::Break(());
        }
        self.past_deadline()
    }

    /// The status a finished run should report.
    pub fn completion(&self) -> Completion {
        let resource = match self.stop.load(Ordering::Relaxed) {
            STOP_NONE => return Completion::Complete,
            STOP_WALL => Resource::WallClock,
            STOP_FACTS => Resource::Facts,
            // invariant: `trip` only ever stores the codes above and
            // `STOP_ROUNDS`.
            _ => Resource::Rounds,
        };
        Completion::BudgetExhausted { resource }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_is_inactive_and_free() {
        let g = Governor::new(Budget::default());
        assert!(!g.active());
        assert!(g.as_join_ref().is_none());
        for _ in 0..10 {
            assert!(g.note_firing().is_continue());
            assert!(g.claim_fact().is_continue());
            assert!(g.note_round().is_continue());
        }
        assert_eq!(g.completion(), Completion::Complete);
    }

    #[test]
    fn fact_budget_refuses_the_overflowing_claim() {
        let g = Governor::new(Budget::default().with_max_facts(3));
        assert!(g.active());
        for _ in 0..3 {
            assert!(g.claim_fact().is_continue());
        }
        assert!(g.claim_fact().is_break(), "4th claim must be refused");
        assert_eq!(
            g.completion(),
            Completion::BudgetExhausted {
                resource: Resource::Facts
            }
        );
    }

    #[test]
    fn round_budget_trips_before_the_extra_round() {
        let g = Governor::new(Budget::default().with_max_rounds(2));
        assert!(g.note_round().is_continue());
        assert!(g.note_round().is_continue());
        assert!(g.note_round().is_break());
        assert_eq!(
            g.completion(),
            Completion::BudgetExhausted {
                resource: Resource::Rounds
            }
        );
    }

    #[test]
    fn expired_deadline_trips_at_a_round_boundary() {
        let g = Governor::new(Budget::default().with_timeout_ms(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(g.note_round().is_break());
        assert_eq!(
            g.completion(),
            Completion::BudgetExhausted {
                resource: Resource::WallClock
            }
        );
    }

    #[test]
    fn firings_observe_an_expired_deadline_within_one_stride() {
        let g = Governor::new(Budget::default().with_timeout_ms(0));
        let mut fired = 0u64;
        while g.note_firing().is_continue() {
            fired += 1;
            assert!(
                fired < DEADLINE_STRIDE,
                "per-firing path never observed the deadline"
            );
        }
        assert_eq!(
            fired,
            DEADLINE_STRIDE - 1,
            "the stride's last firing reads the clock"
        );
        assert!(g.should_stop());
        assert_eq!(
            g.completion(),
            Completion::BudgetExhausted {
                resource: Resource::WallClock
            }
        );
    }

    #[test]
    fn first_stop_reason_wins() {
        let g = Governor::new(Budget::default().with_max_facts(1).with_timeout_ms(0));
        assert!(g.claim_fact().is_continue());
        assert!(g.claim_fact().is_break()); // Facts trips first...
        std::thread::sleep(Duration::from_millis(2));
        assert!(g.note_round().is_break()); // ...the deadline passes later
        assert_eq!(
            g.completion(),
            Completion::BudgetExhausted {
                resource: Resource::Facts
            }
        );
    }

    #[test]
    fn budget_builders_compose() {
        let b = Budget::default()
            .with_timeout_ms(250)
            .with_max_facts(10)
            .with_max_rounds(3);
        assert_eq!(b.timeout, Some(Duration::from_millis(250)));
        assert_eq!(b.max_facts, Some(10));
        assert_eq!(b.max_rounds, Some(3));
        assert!(!b.is_unlimited());
        assert!(Budget::UNLIMITED.is_unlimited());
    }

    #[test]
    fn completion_displays() {
        assert_eq!(Completion::Complete.to_string(), "complete");
        assert_eq!(
            Completion::BudgetExhausted {
                resource: Resource::WallClock
            }
            .to_string(),
            "budget exhausted (wall-clock)"
        );
    }
}
