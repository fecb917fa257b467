//! Stratified evaluation: stratify the program, then run semi-naive
//! evaluation stratum by stratum. Negative literals always refer to lower
//! strata, whose predicates are complete when the stratum runs — this
//! computes the perfect model of a stratified program.
//!
//! Under a budget the run may stop between (or inside) strata.
//! `strata_completed` records how many strata finished: facts of completed
//! strata are exactly the perfect model restricted to those strata, facts
//! of the stratum that was cut short are a sound subset (its negative
//! premises only read completed lower strata), and higher strata contribute
//! nothing — a partial stratified result is never silently presented as the
//! full perfect model because `completion` reports the trip.

use crate::error::EvalError;
use crate::govern::Completion;
use crate::metrics::EvalMetrics;
use crate::naive::{seed_database, EvalOptions, EvalResult};
use crate::seminaive::run_rules;
use alexander_ir::analysis::stratify;
use alexander_ir::{Program, Rule};
use alexander_storage::Database;

/// The result of a stratified run, with per-stratum bookkeeping.
#[derive(Clone, Debug)]
pub struct StratifiedResult {
    pub db: Database,
    pub metrics: EvalMetrics,
    /// Number of strata in the program.
    pub strata: usize,
    /// Number of strata that ran to their full per-stratum fixpoint. Equals
    /// `strata` when `completion` is `Complete`; on a budget stop it
    /// is a (conservative) count of the strata whose facts are final.
    pub strata_completed: usize,
    /// Whether the perfect model was fully computed.
    pub completion: Completion,
}

impl From<StratifiedResult> for EvalResult {
    fn from(r: StratifiedResult) -> EvalResult {
        EvalResult {
            db: r.db,
            metrics: r.metrics,
            completion: r.completion,
        }
    }
}

/// Runs stratified evaluation of `program` over `edb`.
pub fn eval_stratified(program: &Program, edb: &Database) -> Result<StratifiedResult, EvalError> {
    eval_stratified_opts(program, edb, EvalOptions::default())
}

/// [`eval_stratified`] with explicit options. The budget is global to the
/// run: one governor spans all strata.
pub fn eval_stratified_opts(
    program: &Program,
    edb: &Database,
    opts: EvalOptions,
) -> Result<StratifiedResult, EvalError> {
    program.validate().map_err(EvalError::Invalid)?;
    let strat = stratify(program)?;
    let mut db = seed_database(program, edb);
    let mut metrics = EvalMetrics::default();
    let gov = opts.governor();
    let mut strata_completed = 0;

    for layer in 0..strat.len() {
        if gov.should_stop() {
            break;
        }
        let rules: Vec<Rule> = program
            .rules
            .iter()
            .filter(|r| strat.stratum_of(r.head.predicate()) == layer)
            .cloned()
            .collect();
        if rules.is_empty() {
            strata_completed += 1;
            continue;
        }
        // Negatives read the running total: all negated predicates live in
        // lower strata and are complete by now.
        run_rules(&rules, &mut db, &mut metrics, &opts, None, Some(&gov))?;
        if gov.should_stop() {
            break;
        }
        strata_completed += 1;
    }
    Ok(StratifiedResult {
        db,
        metrics,
        strata: strat.len(),
        strata_completed,
        completion: gov.completion(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::{Budget, Resource};
    use alexander_ir::Predicate;
    use alexander_parser::parse;
    use alexander_storage::tuple_of_syms;

    #[test]
    fn reach_unreach_two_strata() {
        let parsed = parse(
            "
            edge(s, a). edge(a, b). node(s). node(a). node(b). node(z).
            reach(X) :- edge(s, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
        ",
        )
        .unwrap();
        let r = eval_stratified(&parsed.program, &Database::new()).unwrap();
        assert_eq!(r.strata, 2);
        assert_eq!(r.strata_completed, 2);
        assert!(r.completion.is_complete());
        let unreach = Predicate::new("unreach", 1);
        let got = r.db.atoms_of(unreach);
        let names: Vec<String> = got.iter().map(|a| a.to_string()).collect();
        // s has no incoming edge from s; z is isolated.
        assert!(names.contains(&"unreach(z)".to_string()));
        assert!(names.contains(&"unreach(s)".to_string()));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn win_move_is_rejected() {
        let parsed = parse(
            "
            move(a, b).
            win(X) :- move(X, Y), !win(Y).
        ",
        )
        .unwrap();
        assert!(matches!(
            eval_stratified(&parsed.program, &Database::new()),
            Err(EvalError::NotStratified(_))
        ));
    }

    #[test]
    fn three_strata_chain() {
        let parsed = parse(
            "
            base(a). base(b). mark(a).
            s0(X) :- base(X), mark(X).
            s1(X) :- base(X), !s0(X).
            s2(X) :- base(X), !s1(X).
        ",
        )
        .unwrap();
        let r = eval_stratified(&parsed.program, &Database::new()).unwrap();
        assert_eq!(r.strata, 3);
        assert_eq!(r.db.atoms_of(Predicate::new("s0", 1)).len(), 1); // a
        assert_eq!(r.db.atoms_of(Predicate::new("s1", 1)).len(), 1); // b
        assert_eq!(r.db.atoms_of(Predicate::new("s2", 1)).len(), 1); // a
        assert!(r
            .db
            .relation(Predicate::new("s2", 1))
            .unwrap()
            .contains(&tuple_of_syms(&["a"])));
    }

    #[test]
    fn definite_program_is_one_stratum() {
        let parsed = parse(
            "
            e(a, b). e(b, c).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let r = eval_stratified(&parsed.program, &Database::new()).unwrap();
        assert_eq!(r.strata, 1);
        assert_eq!(r.db.len_of(Predicate::new("tc", 2)), 3);
    }

    #[test]
    fn recursion_with_lower_stratum_negation() {
        // Paths avoiding blocked nodes; blocked is derived in stratum 0... via
        // negation it sits below `safe`.
        let parsed = parse(
            "
            e(a, b). e(b, c). e(c, d). bad(c).
            blocked(X) :- bad(X).
            safe(a).
            safe(Y) :- safe(X), e(X, Y), !blocked(Y).
        ",
        )
        .unwrap();
        let r = eval_stratified(&parsed.program, &Database::new()).unwrap();
        let safe = Predicate::new("safe", 1);
        let names: Vec<String> = r.db.atoms_of(safe).iter().map(|a| a.to_string()).collect();
        assert_eq!(names.len(), 2); // a, b — c blocked, d unreachable
        assert!(names.contains(&"safe(b)".to_string()));
    }

    #[test]
    fn agrees_with_seminaive_on_semipositive() {
        let parsed = parse(
            "
            n(a). n(b). f(b).
            g(X) :- n(X), !f(X).
        ",
        )
        .unwrap();
        let strat = eval_stratified(&parsed.program, &Database::new()).unwrap();
        let semi = crate::seminaive::eval_seminaive(&parsed.program, &Database::new()).unwrap();
        assert_eq!(
            strat.db.len_of(Predicate::new("g", 1)),
            semi.db.len_of(Predicate::new("g", 1))
        );
    }

    #[test]
    fn budget_exhaustion_marks_unfinished_strata() {
        // Stratum 0 derives 4 reach facts; a 2-fact budget stops inside it,
        // so no stratum may be reported complete and unreach must stay empty
        // (its negations would read an incomplete lower stratum).
        let parsed = parse(
            "
            edge(s, a). edge(a, b). edge(b, c). edge(c, d).
            node(s). node(a). node(b). node(z).
            reach(X) :- edge(s, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
        ",
        )
        .unwrap();
        let r = eval_stratified_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default().with_budget(Budget::default().with_max_facts(2)),
        )
        .unwrap();
        assert_eq!(
            r.completion,
            Completion::BudgetExhausted {
                resource: Resource::Facts
            }
        );
        assert_eq!(r.strata_completed, 0);
        assert_eq!(r.db.len_of(Predicate::new("reach", 1)), 2);
        assert_eq!(r.db.len_of(Predicate::new("unreach", 1)), 0);
    }

    #[test]
    fn ample_budget_completes_all_strata() {
        let parsed = parse(
            "
            edge(s, a). edge(a, b). node(s). node(a). node(b). node(z).
            reach(X) :- edge(s, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
        ",
        )
        .unwrap();
        let full = eval_stratified(&parsed.program, &Database::new()).unwrap();
        let budgeted = eval_stratified_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default()
                .with_budget(Budget::default().with_max_facts(full.metrics.new_facts)),
        )
        .unwrap();
        assert!(budgeted.completion.is_complete());
        assert_eq!(budgeted.strata_completed, budgeted.strata);
        for p in [Predicate::new("reach", 1), Predicate::new("unreach", 1)] {
            assert_eq!(full.db.len_of(p), budgeted.db.len_of(p), "{p}");
        }
    }
}
