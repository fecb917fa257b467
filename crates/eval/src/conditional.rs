//! The conditional fixpoint procedure (Bry, PODS 1989, §4).
//!
//! The immediate-consequence operator is non-monotonic on non-Horn programs.
//! Bry restores monotonicity by *delaying* negative literals: instead of
//! facts, the operator `T_c` produces **conditional statements**
//! `H ← ¬A₁ ∧ … ∧ ¬A_k` — the ground negative premises are recorded rather
//! than evaluated, and the conditions of any conditional premises used are
//! inherited. After the (now monotone) fixpoint is reached, a reduction
//! phase in the style of Davis–Putnam decides the delayed negations:
//!
//! * `¬A` is **true** (and removed from a condition) when `A` is neither a
//!   fact nor the head of any surviving statement;
//! * `¬A` is **false** (and kills its statement) when `A` is a fact;
//! * statements whose conditions all vanish become facts, which re-enables
//!   both rules — iterate to fixpoint.
//!
//! On stratified, locally stratified, and loosely stratified programs the
//! residue is empty and the computed facts form the perfect model. On
//! programs with genuinely cyclic negation (e.g. win–move on a cyclic move
//! graph) some statements survive with non-empty conditions; their heads are
//! reported as [`ConditionalResult::undefined`] — exactly the atoms the
//! well-founded model leaves undefined. (Bry handles such programs through
//! his inconsistency schemata instead; we report the residue, which is the
//! more informative behaviour for an engine.)
//!
//! Because every rule is range-restricted (safe), evaluation never needs the
//! `dom` predicates of Bry's Causal Predicate Calculus: rule bodies are
//! *constructively domain independent* and the `dom` proofs would be
//! redundant in the sense of his §5.2.
//!
//! ## Governance and partial results
//!
//! A budget can stop any phase. The degrade rule is strict about negation:
//! if the monotone statement fixpoint (phase 1) did not finish, the
//! Davis–Putnam reduction is **not** run — reducing a partial statement
//! store could declare `¬A` true merely because `A`'s statement had not
//! been derived yet. Instead the result falls back to the definite
//! core computed so far (always a sound subset of the perfect/well-founded
//! facts), with `completion` reporting the trip and `undefined` left empty.

use crate::error::EvalError;
use crate::exec::{exec_plan_bindings, ExecScratch};
use crate::govern::Completion;
use crate::join::{compile_rule, ensure_rule_indexes, CompiledRule, JoinInput};
use crate::metrics::EvalMetrics;
use crate::naive::seed_database;
use crate::plan::{compile_plans, RulePlan};
use alexander_ir::{Atom, FxHashMap, FxHashSet, Polarity, Program};
use alexander_storage::Database;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// A set of delayed ground negative premises, canonically ordered.
pub type Conditions = BTreeSet<Atom>;

/// The outcome of a conditional-fixpoint run.
#[derive(Clone, Debug)]
pub struct ConditionalResult {
    /// EDB plus every atom decided **true**.
    pub db: Database,
    /// Atoms left with surviving non-empty conditions: undefined under the
    /// well-founded reading. Empty for constructively consistent programs.
    /// Only meaningful when `completion` is `Complete`; a budgeted stop
    /// before the reduction leaves it empty.
    pub undefined: Vec<Atom>,
    pub metrics: EvalMetrics,
    /// Whether the conditional fixpoint and its reduction fully ran.
    pub completion: Completion,
}

impl ConditionalResult {
    /// True iff every atom was decided (no residue). A non-`Complete` run
    /// is never total in this sense even with an empty residue list.
    pub fn is_total(&self) -> bool {
        self.undefined.is_empty() && self.completion.is_complete()
    }
}

/// The statement store: ground head → antichain of minimal condition sets.
#[derive(Default)]
struct Statements {
    by_head: FxHashMap<Atom, Vec<Conditions>>,
}

impl Statements {
    /// Inserts `conds` for `head`, maintaining minimality: drop the insert if
    /// a subset is already present; evict supersets it subsumes. Returns
    /// whether the store changed.
    fn insert(&mut self, head: Atom, conds: Conditions) -> bool {
        let sets = self.by_head.entry(head).or_default();
        if sets.iter().any(|s| s.is_subset(&conds)) {
            return false;
        }
        sets.retain(|s| !conds.is_subset(s));
        sets.push(conds);
        true
    }
}

/// Runs the conditional fixpoint procedure on `program` over `edb`.
pub fn eval_conditional(program: &Program, edb: &Database) -> Result<ConditionalResult, EvalError> {
    eval_conditional_opts(program, edb, crate::naive::EvalOptions::default())
}

/// [`eval_conditional`] with explicit options. The options (indexes, budget)
/// govern the semi-naive run of the definite core.
pub fn eval_conditional_opts(
    program: &Program,
    edb: &Database,
    opts: crate::naive::EvalOptions,
) -> Result<ConditionalResult, EvalError> {
    program.validate().map_err(EvalError::Invalid)?;
    let mut static_db = seed_database(program, edb);
    let idb = program.idb_predicates();
    let mut metrics = EvalMetrics::default();
    let gov = opts.governor();
    let gov_ref = gov.as_join_ref();

    // ---- Phase 0: the definite core. ----
    // Predicates that never depend (even transitively, through positive
    // premises) on a negated intensional predicate can never carry
    // conditions: evaluate them with plain semi-naive first and treat their
    // facts as static. Only the *tainted* remainder pays the conditional
    // machinery — on a definite program that remainder is empty and this
    // evaluator degenerates to semi-naive.
    let tainted: FxHashSet<alexander_ir::Predicate> = {
        let mut tainted: FxHashSet<alexander_ir::Predicate> = FxHashSet::default();
        loop {
            let mut changed = false;
            for r in &program.rules {
                let head = r.head.predicate();
                if tainted.contains(&head) {
                    continue;
                }
                let dirty = r.body.iter().any(|l| match l.polarity {
                    Polarity::Negative => idb.contains(&l.atom.predicate()),
                    Polarity::Positive => tainted.contains(&l.atom.predicate()),
                });
                if dirty {
                    tainted.insert(head);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        tainted
    };
    let definite_rules: Vec<alexander_ir::Rule> = program
        .rules
        .iter()
        .filter(|r| !tainted.contains(&r.head.predicate()))
        .cloned()
        .collect();
    crate::seminaive::run_rules(
        &definite_rules,
        &mut static_db,
        &mut metrics,
        &opts,
        None,
        Some(&gov),
    )?;

    // Compile the remaining (tainted) rules. Negative literals over static
    // predicates (EDB and the definite core) are checked inline against the
    // static database; negative *tainted* literals are delayed — their atoms
    // are never in the static database, so the join's inline check passes
    // and the emit callback collects them as conditions.
    let compiled: Vec<CompiledRule> = program
        .rules
        .iter()
        .filter(|r| tainted.contains(&r.head.predicate()))
        .map(|r| compile_rule(r).map_err(EvalError::from))
        .collect::<Result<_, _>>()?;
    let plans: Vec<RulePlan> = compile_plans(&compiled, &mut metrics);

    // On a definite program (or one whose negations are all static) there
    // is nothing to delay: the phase-0 result IS the answer. Returning here
    // also keeps budget accounting identical to plain semi-naive.
    if compiled.is_empty() || gov.should_stop() {
        return Ok(ConditionalResult {
            db: static_db,
            undefined: Vec::new(),
            metrics,
            completion: gov.completion(),
        });
    }

    // ---- Phase 1: the monotone T_c fixpoint. ----
    let mut stmts = Statements::default();
    let mut scratch = ExecScratch::new();
    let mut stopped = false;
    // `known` carries the EDB plus every conditional head, so positive
    // premises can match conditional statements. Heads only grow: a round
    // joins against those stored before it began and adds its own at its
    // end, and the indexes, built once, follow the inserts.
    let mut known = static_db.clone();
    for r in &compiled {
        ensure_rule_indexes(r, &mut known);
    }
    'phase1: loop {
        if gov.note_round().is_break() {
            stopped = true;
            break 'phase1;
        }
        let mut changed = false;
        let mut stored: Vec<Atom> = Vec::new();
        for (rule, plan) in compiled.iter().zip(&plans) {
            let input = JoinInput {
                total: &known,
                delta: None,
                sides: None,
                negatives: Some(&static_db),
                governor: gov_ref,
            };
            // Collect matches first: `stmts` is mutated after the join.
            let mut matches: Vec<(Atom, Vec<Atom>, Conditions)> = Vec::new();
            let flow = exec_plan_bindings(
                plan,
                &input,
                &mut scratch,
                &mut metrics,
                &mut |row, metrics| {
                    metrics.firings += 1;
                    let head = rule.head.ground(row);
                    let mut premises = Vec::new();
                    let mut delayed = Conditions::new();
                    for lit in &rule.body {
                        let atom = lit.atom.ground(row);
                        match lit.polarity {
                            Polarity::Positive => {
                                if tainted.contains(&lit.atom.pred) {
                                    premises.push(atom);
                                }
                            }
                            Polarity::Negative => {
                                if tainted.contains(&lit.atom.pred) {
                                    delayed.insert(atom);
                                }
                                // Negations over static predicates (EDB and the
                                // definite core) were already decided inline.
                            }
                        }
                    }
                    matches.push((head, premises, delayed));
                    match gov_ref {
                        Some(g) => g.note_firing(),
                        None => ControlFlow::Continue(()),
                    }
                },
            );
            if flow.is_break() {
                stopped = true;
                break 'phase1;
            }

            for (head, premises, delayed) in matches {
                // Choices of condition sets per conditional premise. An
                // unconditionally known premise contributes the empty set.
                let mut combos: Vec<Conditions> = vec![delayed];
                let mut dead = false;
                for p in &premises {
                    if static_db.contains_atom(p) {
                        continue; // unconditional: adds nothing
                    }
                    let Some(sets) = stmts.by_head.get(p) else {
                        dead = true;
                        break;
                    };
                    let mut next = Vec::with_capacity(combos.len() * sets.len());
                    for c in &combos {
                        for s in sets {
                            let mut u = c.clone();
                            u.extend(s.iter().cloned());
                            next.push(u);
                        }
                    }
                    combos = next;
                }
                if dead {
                    continue;
                }
                for conds in combos {
                    if stmts.insert(head.clone(), conds) {
                        stored.push(head.clone());
                        metrics.conditional_statements += 1;
                        changed = true;
                        // A new statement is a (conditional) derived fact:
                        // charge the fact budget.
                        if gov.claim_fact().is_break() {
                            stopped = true;
                            break 'phase1;
                        }
                    }
                }
            }
        }
        for h in &stored {
            // invariant: statement heads are grounded against a full body
            // match, which only produces ground atoms.
            known.insert_atom(h).expect("statement heads are ground");
        }
        metrics.iterations += 1;
        if !changed {
            break;
        }
    }

    // A partial statement store must NOT be reduced: the reduction treats
    // "no surviving statement for A" as evidence that ¬A holds, which is
    // unsound if A's statement simply was not derived yet. Fall back to the
    // definite core, which is always sound.
    if stopped {
        return Ok(ConditionalResult {
            db: static_db,
            undefined: Vec::new(),
            metrics,
            completion: gov.completion(),
        });
    }

    // ---- Phase 2: reduction (Davis–Putnam style). ----
    // Only tainted predicates supply conditions and statement heads, so the
    // decided facts start from the static rows of tainted predicates (inline
    // facts of an un-normalised program) and grow by promoted heads.
    let mut facts: FxHashSet<Atom> = static_db
        .predicates()
        .into_iter()
        .filter(|p| tainted.contains(p))
        .flat_map(|p| static_db.atoms_of(p))
        .collect();
    let mut promoted: Vec<Atom> = Vec::new();
    let mut sets = stmts.by_head;
    let mut reduction_complete = true;
    loop {
        if gov.note_round().is_break() {
            // Facts promoted so far are sound (they followed from a complete
            // statement store); only the residue classification is unknown.
            reduction_complete = false;
            break;
        }
        let mut changed = false;
        let provable: FxHashSet<Atom> = facts
            .iter()
            .cloned()
            .chain(
                sets.iter()
                    .filter(|(_, s)| !s.is_empty())
                    .map(|(h, _)| h.clone()),
            )
            .collect();
        for (head, condsets) in sets.iter_mut() {
            let before = condsets.len();
            // ¬c false when c is a fact: the whole set dies.
            condsets.retain(|set| !set.iter().any(|c| facts.contains(c)));
            changed |= condsets.len() != before;
            for set in condsets.iter_mut() {
                // ¬c true when c is neither fact nor surviving head.
                let before_len = set.len();
                set.retain(|c| provable.contains(c));
                changed |= set.len() != before_len;
            }
            if condsets.iter().any(|s| s.is_empty()) && facts.insert(head.clone()) {
                promoted.push(head.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut db = static_db;
    for h in &promoted {
        // invariant: statement heads are grounded against a full body
        // match, which only produces ground atoms.
        db.insert_atom(h).expect("statement heads are ground");
    }
    let mut undefined: Vec<Atom> = if reduction_complete {
        sets.into_iter()
            .filter(|(h, s)| !facts.contains(h) && s.iter().any(|c| !c.is_empty()) && !s.is_empty())
            .map(|(h, _)| h)
            .collect()
    } else {
        // An interrupted reduction cannot distinguish "undefined" from
        // "not yet decided"; report nothing rather than guess.
        Vec::new()
    };
    undefined.sort_by_key(|a| a.to_string());

    Ok(ConditionalResult {
        db,
        undefined,
        metrics,
        completion: gov.completion(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stratified::eval_stratified;
    use alexander_ir::{Const, Predicate};
    use alexander_parser::parse;

    fn run(src: &str) -> ConditionalResult {
        let parsed = parse(src).unwrap();
        eval_conditional(&parsed.program, &Database::new()).unwrap()
    }

    #[test]
    fn definite_program_behaves_like_seminaive() {
        let r = run("
            e(a, b). e(b, c).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ");
        assert!(r.is_total());
        assert_eq!(r.db.len_of(Predicate::new("tc", 2)), 3);
    }

    #[test]
    fn win_move_on_chain_matches_game_theory() {
        // a -> b -> c: c has no move (lost), b wins, a loses.
        let r = run("
            move(a, b). move(b, c).
            win(X) :- move(X, Y), !win(Y).
        ");
        assert!(r.is_total());
        let win = Predicate::new("win", 1);
        let names: Vec<String> = r.db.atoms_of(win).iter().map(|a| a.to_string()).collect();
        assert_eq!(names, vec!["win(b)".to_string()]);
    }

    #[test]
    fn win_move_on_cycle_leaves_undefined() {
        let r = run("
            move(a, b). move(b, a).
            win(X) :- move(X, Y), !win(Y).
        ");
        assert!(!r.is_total());
        let names: Vec<String> = r.undefined.iter().map(|a| a.to_string()).collect();
        assert_eq!(names, vec!["win(a)".to_string(), "win(b)".to_string()]);
        assert_eq!(r.db.len_of(Predicate::new("win", 1)), 0);
    }

    #[test]
    fn draw_positions_coexist_with_decided_ones() {
        // Cycle a<->b plus a winning escape c -> d(stuck).
        let r = run("
            move(a, b). move(b, a). move(c, d).
            win(X) :- move(X, Y), !win(Y).
        ");
        let win = Predicate::new("win", 1);
        assert!(r.db.relation(win).unwrap().contains_row(&[Const::sym("c")]));
        assert_eq!(r.undefined.len(), 2); // win(a), win(b)
    }

    #[test]
    fn bry_fig1_acyclic_chain() {
        // p(x) :- q(x, y), !p(y): not loosely stratified in general, but on
        // an acyclic q the conditional fixpoint decides everything.
        let r = run("
            q(a, b). q(b, c).
            p(X) :- q(X, Y), !p(Y).
        ");
        assert!(r.is_total());
        let p = Predicate::new("p", 1);
        let names: Vec<String> = r.db.atoms_of(p).iter().map(|a| a.to_string()).collect();
        // p(c): no q(c,_) -> false. p(b) <- !p(c) -> true. p(a) <- !p(b) -> false.
        assert_eq!(names, vec!["p(b)".to_string()]);
    }

    #[test]
    fn agrees_with_stratified_evaluation() {
        let src = "
            edge(s, a). edge(a, b). node(s). node(a). node(b). node(z).
            reach(X) :- edge(s, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
        ";
        let parsed = parse(src).unwrap();
        let strat = eval_stratified(&parsed.program, &Database::new()).unwrap();
        let cond = eval_conditional(&parsed.program, &Database::new()).unwrap();
        assert!(cond.is_total());
        for p in [Predicate::new("reach", 1), Predicate::new("unreach", 1)] {
            assert_eq!(strat.db.len_of(p), cond.db.len_of(p), "{p}");
        }
    }

    #[test]
    fn conditions_propagate_through_positive_premises() {
        // s(X) depends on win(X) which is conditional; the condition must
        // travel into s's statements.
        let r = run("
            move(a, b). move(b, c).
            win(X) :- move(X, Y), !win(Y).
            s(X) :- win(X).
        ");
        assert!(r.is_total());
        let names: Vec<String> =
            r.db.atoms_of(Predicate::new("s", 1))
                .iter()
                .map(|a| a.to_string())
                .collect();
        assert_eq!(names, vec!["s(b)".to_string()]);
    }

    #[test]
    fn an_inline_fact_of_a_tainted_predicate_is_decided_true() {
        // `win(z).` beside the `win` rule: ¬win(z) stays false, so a's
        // only move loses, and the fact is never reported undefined even
        // though its statement hangs off the c <-> d draw.
        let r = run("
            move(a, z). move(z, c). move(c, d). move(d, c).
            win(z).
            win(X) :- move(X, Y), !win(Y).
        ");
        let win = Predicate::new("win", 1);
        let names: Vec<String> = r.db.atoms_of(win).iter().map(|a| a.to_string()).collect();
        assert_eq!(names, vec!["win(z)".to_string()]);
        let undefined: Vec<String> = r.undefined.iter().map(|a| a.to_string()).collect();
        assert_eq!(undefined, vec!["win(c)".to_string(), "win(d)".to_string()]);
    }

    #[test]
    fn metrics_count_conditional_statements() {
        let r = run("
            move(a, b).
            win(X) :- move(X, Y), !win(Y).
        ");
        assert!(r.metrics.conditional_statements >= 1);
    }

    #[test]
    fn loosely_stratified_program_is_decided() {
        // Bry's loose-stratification example shape: the a/b constant guard
        // keeps negation acyclic even though the predicate recursion is not.
        let r = run("
            q(c, d). s(e, c).
            p(X, a) :- q(X, Y), s(Z, X), !p(Z, b).
        ");
        assert!(r.is_total());
        let p = Predicate::new("p", 2);
        // p(e, b) is not derivable (no rule makes a `b` head), so !p(e, b)
        // holds and p(c, a) follows from q(c, d), s(e, c).
        assert!(r
            .db
            .relation(p)
            .unwrap()
            .contains_row(&[Const::sym("c"), Const::sym("a")]));
    }
}
