//! Evaluation strategies and their instrumentation reports.

use alexander_eval::{Completion, EvalMetrics};
use alexander_ir::Atom;
use alexander_topdown::OldtMetrics;
use std::fmt;

/// How a query is answered.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Strategy {
    /// Naive bottom-up fixpoint of the whole program.
    Naive,
    /// Semi-naive bottom-up fixpoint of the whole program.
    SemiNaive,
    /// Stratified semi-naive (programs with stratified negation).
    Stratified,
    /// Bry's conditional fixpoint (loosely/locally stratified programs and
    /// rewritten programs whose stratification the rewriting destroyed).
    ConditionalFixpoint,
    /// Generalized Magic Sets rewriting, then bottom-up.
    Magic,
    /// Supplementary Magic Sets rewriting, then bottom-up.
    SupplementaryMagic,
    /// Alexander templates rewriting, then bottom-up.
    Alexander,
    /// OLDT resolution (top-down with tabulation).
    Oldt,
    /// QSQR (Query-Subquery recursive: restart-based tabling).
    Qsqr,
}

impl Strategy {
    /// All strategies, in the order the harness tables report them.
    pub const ALL: [Strategy; 9] = [
        Strategy::Naive,
        Strategy::SemiNaive,
        Strategy::Stratified,
        Strategy::ConditionalFixpoint,
        Strategy::Magic,
        Strategy::SupplementaryMagic,
        Strategy::Alexander,
        Strategy::Oldt,
        Strategy::Qsqr,
    ];

    /// Short stable name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::SemiNaive => "seminaive",
            Strategy::Stratified => "stratified",
            Strategy::ConditionalFixpoint => "conditional",
            Strategy::Magic => "magic",
            Strategy::SupplementaryMagic => "supmagic",
            Strategy::Alexander => "alexander",
            Strategy::Oldt => "oldt",
            Strategy::Qsqr => "qsqr",
        }
    }

    /// The strategy whose [`Strategy::name`] is `name`; the error lists
    /// every valid name.
    pub fn from_name(name: &str) -> Result<Strategy, String> {
        Strategy::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
                format!("unknown strategy `{name}`; one of: {}", names.join(", "))
            })
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Instrumentation attached to a query result.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Bottom-up counters (absent for pure OLDT runs).
    pub eval: Option<EvalMetrics>,
    /// Top-down counters (OLDT runs only).
    pub oldt: Option<OldtMetrics>,
    /// Total facts materialised (IDB plus rewriting auxiliaries; excludes
    /// the EDB).
    pub facts_materialised: u64,
    /// Size of the demand set: magic/call facts (rewritings) or distinct
    /// tabled calls (OLDT).
    pub calls: Option<u64>,
    /// Atoms the conditional fixpoint left undefined (empty otherwise).
    pub undefined: Vec<Atom>,
    /// Number of rules actually evaluated (after rewriting).
    pub rules_evaluated: usize,
    /// Whether the evaluation ran to its full fixpoint / answer set. A
    /// non-`Complete` value means the answers are a sound *partial* result:
    /// everything reported holds, but more may be derivable.
    pub completion: Completion,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "facts={}", self.facts_materialised)?;
        if let Some(c) = self.calls {
            write!(f, " calls={c}")?;
        }
        if let Some(m) = &self.eval {
            write!(f, " [{m}]")?;
        }
        if let Some(m) = &self.oldt {
            write!(f, " [{m}]")?;
        }
        if !self.undefined.is_empty() {
            write!(f, " undefined={}", self.undefined.len())?;
        }
        if !self.completion.is_complete() {
            write!(f, " PARTIAL: {}", self.completion)?;
        }
        Ok(())
    }
}

/// Answers plus instrumentation.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Ground instances of the query, over the *original* predicate,
    /// sorted and deduplicated.
    pub answers: Vec<Atom>,
    pub strategy: Strategy,
    pub report: Report,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> =
            Strategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Strategy::ALL.len());
    }

    #[test]
    fn report_display_mentions_calls_when_present() {
        let r = Report {
            calls: Some(7),
            ..Report::default()
        };
        assert!(r.to_string().contains("calls=7"));
    }

    #[test]
    fn report_display_flags_partial_results() {
        let complete = Report::default();
        assert!(!complete.to_string().contains("PARTIAL"));
        let partial = Report {
            completion: Completion::BudgetExhausted {
                resource: alexander_eval::Resource::Facts,
            },
            ..Report::default()
        };
        let shown = partial.to_string();
        assert!(shown.contains("PARTIAL"), "{shown}");
        assert!(shown.contains("facts"), "{shown}");
    }
}
