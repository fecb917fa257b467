//! Naive bottom-up evaluation: apply every rule to the whole database until
//! saturation. The baseline every other strategy is measured against. Each
//! round is the shared executor's all-rules, no-delta round (see
//! [`crate::seminaive`]); staged facts only become visible next round.

use crate::error::EvalError;
use crate::govern::{Budget, Completion, Governor};
use crate::metrics::EvalMetrics;
use crate::seminaive::eval_semipositive;
use alexander_ir::{Polarity, Program};
use alexander_storage::Database;

/// Evaluator knobs.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Build hash indexes for the masks rules probe. Turning this off forces
    /// every probe into a filtered scan (ablation E10).
    pub use_indexes: bool,
    /// Resource limits for the run; unlimited by default. On exhaustion the
    /// evaluator stops cleanly and reports [`Completion::BudgetExhausted`]
    /// on its (partial but well-formed) result.
    pub budget: Budget,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            use_indexes: true,
            budget: Budget::UNLIMITED,
        }
    }
}

impl EvalOptions {
    /// Builder: attach a resource budget.
    pub fn with_budget(mut self, budget: Budget) -> EvalOptions {
        self.budget = budget;
        self
    }

    /// Builds the run-time governor for one evaluation under these options.
    pub(crate) fn governor(&self) -> Governor {
        Governor::new(self.budget)
    }
}

/// The outcome of a bottom-up run: the database (EDB + IDB) and the
/// counters. `completion` says whether `db` is the full fixpoint
/// ([`Completion::Complete`]) or a sound partial result cut short by a
/// budget.
#[derive(Clone, Debug)]
pub struct EvalResult {
    pub db: Database,
    pub metrics: EvalMetrics,
    pub completion: Completion,
}

/// Checks that negations only touch extensional predicates (the soundness
/// condition for naive and semi-naive runs; stratified programs go through
/// [`crate::stratified`]).
pub(crate) fn check_semipositive(program: &Program) -> Result<(), EvalError> {
    let idb = program.idb_predicates();
    for r in &program.rules {
        for l in &r.body {
            if l.polarity == Polarity::Negative && idb.contains(&l.atom.predicate()) {
                return Err(EvalError::NegatedIdb(l.atom.predicate()));
            }
        }
    }
    Ok(())
}

/// The evaluation's starting database: `edb` plus every inline fact of
/// `program`. An inline fact of an intensional predicate is a body-less rule
/// ([`Program::normalize`]), and seeding its head is exactly what firing
/// that rule does, so a bottom-up evaluator needs no normalised program.
pub(crate) fn seed_database(program: &Program, edb: &Database) -> Database {
    let mut db = edb.clone();
    for f in &program.facts {
        // invariant: `Program::validate` (run by every caller) rejects
        // non-ground facts before evaluation starts.
        db.insert_atom(f).expect("validated facts are ground");
    }
    db
}

/// Runs naive evaluation of a semipositive `program` over `edb`.
pub fn eval_naive(program: &Program, edb: &Database) -> Result<EvalResult, EvalError> {
    eval_naive_opts(program, edb, EvalOptions::default())
}

/// [`eval_naive`] with explicit options. Runs on the shared round executor
/// (see [`crate::seminaive`]), so `use_indexes`, the budget and panic
/// isolation behave exactly as they do for semi-naive evaluation.
pub fn eval_naive_opts(
    program: &Program,
    edb: &Database,
    opts: EvalOptions,
) -> Result<EvalResult, EvalError> {
    eval_semipositive(program, edb, &opts, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::Resource;
    use alexander_ir::Const;
    use alexander_parser::parse;

    fn run(src: &str) -> EvalResult {
        let parsed = parse(src).unwrap();
        let edb = Database::new();
        eval_naive(&parsed.program, &edb).unwrap()
    }

    #[test]
    fn transitive_closure_on_chain() {
        let r = run("
            e(a, b). e(b, c). e(c, d).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ");
        let tc = alexander_ir::Predicate::new("tc", 2);
        assert_eq!(r.db.len_of(tc), 6); // ab ac ad bc bd cd
        assert!(r
            .db
            .relation(tc)
            .unwrap()
            .contains_row(&[Const::sym("a"), Const::sym("d")]));
        assert!(r.completion.is_complete());
    }

    #[test]
    fn naive_iterations_track_chain_depth() {
        let r = run("
            e(a, b). e(b, c). e(c, d). e(d, e5).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ");
        // Depth-4 chain: tc grows for 4 rounds, +1 to detect saturation.
        assert!(r.metrics.iterations >= 4);
        assert!(r.metrics.duplicate_facts > 0, "naive re-derives facts");
    }

    #[test]
    fn semipositive_negation_on_edb_is_allowed() {
        let r = run("
            node(a). node(b). bad(b).
            good(X) :- node(X), !bad(X).
        ");
        let good = alexander_ir::Predicate::new("good", 1);
        assert_eq!(r.db.len_of(good), 1);
        assert!(r
            .db
            .relation(good)
            .unwrap()
            .contains_row(&[Const::sym("a")]));
    }

    #[test]
    fn negated_idb_is_rejected() {
        let parsed = parse(
            "
            p(X) :- q(X).
            r(X) :- q(X), !p(X).
            q(a).
        ",
        )
        .unwrap();
        let err = eval_naive(&parsed.program, &Database::new()).unwrap_err();
        assert!(matches!(err, EvalError::NegatedIdb(_)));
    }

    #[test]
    fn invalid_program_is_rejected() {
        let parsed = parse("p(X, Y) :- q(X).").unwrap();
        let err = eval_naive(&parsed.program, &Database::new()).unwrap_err();
        assert!(matches!(err, EvalError::Invalid(_)));
    }

    /// Several rules per round; the two `same` rules derive identical head
    /// rows, so the second rule's derivations are duplicates of the staging
    /// database.
    const VIEWS: &str = "
        e(a, b). e(b, c). e(c, d). e(d, e5).
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
        inv(Y, X) :- e(X, Y).
        two(X, Y) :- e(X, Z), e(Z, Y).
        same(X, X) :- e(X, Y).
        same(Y, Y) :- e(Y, Z).
    ";

    #[test]
    fn without_indexes_same_answers() {
        let parsed = parse(VIEWS).unwrap();
        let edb = Database::new();
        let run = |use_indexes| {
            let opts = EvalOptions {
                use_indexes,
                ..EvalOptions::default()
            };
            eval_naive_opts(&parsed.program, &edb, opts).unwrap()
        };
        let (indexed, scanned) = (run(true), run(false));
        for r in [&indexed, &scanned] {
            assert_eq!(r.db.len_of(alexander_ir::Predicate::new("same", 2)), 4);
            assert!(r.metrics.duplicate_facts >= 4, "{}", r.metrics);
            assert!(r.completion.is_complete());
        }
        assert_eq!(indexed.metrics.new_facts, scanned.metrics.new_facts);
        assert_eq!(indexed.db.predicates(), scanned.db.predicates());
        for p in indexed.db.predicates() {
            assert_eq!(indexed.db.atoms_of(p), scanned.db.atoms_of(p), "{p}");
        }
        // Unindexed probes scan.
        assert!(
            scanned.metrics.tuples_considered > indexed.metrics.tuples_considered,
            "unindexed rounds must consider more tuples"
        );
    }

    #[test]
    fn empty_program_terminates_immediately() {
        let r = run("");
        assert_eq!(r.db.total_tuples(), 0);
        assert_eq!(r.metrics.iterations, 1);
    }

    #[test]
    fn facts_only_program() {
        let r = run("p(a). p(b).");
        assert_eq!(r.db.len_of(alexander_ir::Predicate::new("p", 1)), 2);
    }

    const TC: &str = "
        e(a, b). e(b, c). e(c, d). e(d, e5).
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
    ";

    #[test]
    fn fact_budget_yields_strict_subset_and_exhausted() {
        let parsed = parse(TC).unwrap();
        let full = eval_naive(&parsed.program, &Database::new()).unwrap();
        let tc = alexander_ir::Predicate::new("tc", 2);
        let limited = eval_naive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default().with_budget(Budget::default().with_max_facts(3)),
        )
        .unwrap();
        assert_eq!(
            limited.completion,
            Completion::BudgetExhausted {
                resource: Resource::Facts
            }
        );
        assert_eq!(limited.db.len_of(tc), 3);
        assert!(limited.db.len_of(tc) < full.db.len_of(tc));
        for row in limited.db.relation(tc).unwrap().iter() {
            assert!(
                full.db.relation(tc).unwrap().contains_row(row),
                "subset violated"
            );
        }
    }

    #[test]
    fn exact_fact_budget_still_completes() {
        let parsed = parse(TC).unwrap();
        let full = eval_naive(&parsed.program, &Database::new()).unwrap();
        let derived = full.metrics.new_facts;
        let exact = eval_naive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default().with_budget(Budget::default().with_max_facts(derived)),
        )
        .unwrap();
        assert!(
            exact.completion.is_complete(),
            "a budget the fixpoint fits in must not report exhaustion"
        );
        assert_eq!(
            exact.db.len_of(alexander_ir::Predicate::new("tc", 2)),
            full.db.len_of(alexander_ir::Predicate::new("tc", 2))
        );
    }

    #[test]
    fn round_budget_stops_naive_loop() {
        let parsed = parse(TC).unwrap();
        let r = eval_naive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default().with_budget(Budget::default().with_max_rounds(1)),
        )
        .unwrap();
        assert_eq!(
            r.completion,
            Completion::BudgetExhausted {
                resource: Resource::Rounds
            }
        );
        assert_eq!(r.metrics.iterations, 1);
        // One naive round derives exactly the base tc facts.
        assert_eq!(r.db.len_of(alexander_ir::Predicate::new("tc", 2)), 4);
    }

    #[test]
    fn expired_deadline_before_start_yields_seed_only() {
        let parsed = parse(TC).unwrap();
        let r = eval_naive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default().with_budget(Budget::default().with_timeout_ms(0)),
        )
        .unwrap();
        assert_eq!(
            r.completion,
            Completion::BudgetExhausted {
                resource: Resource::WallClock
            }
        );
        assert_eq!(r.db.len_of(alexander_ir::Predicate::new("tc", 2)), 0);
        assert_eq!(r.db.len_of(alexander_ir::Predicate::new("e", 2)), 4);
    }
}
