//! Plain SLD resolution — Prolog's strategy, *without* tabulation.
//!
//! This engine exists as the baseline OLDT is measured against (experiment
//! E11): depth-first resolution with no call table re-derives shared
//! subgoals exponentially often and loops forever on cyclic data. Both
//! failure modes are made observable rather than fatal: the engine takes a
//! resolution-step budget and reports whether the search space was
//! exhausted (`complete`) or the budget ran out first.
//!
//! Supports definite programs plus ground negation over extensional
//! predicates and built-ins (the same fragment as the naive evaluator).

use crate::front::{Clauses, TopdownError};
use crate::metrics::OldtMetrics;
use alexander_ir::{
    Atom, Builtin, Const, FxHashMap, FxHashSet, Literal, Polarity, Program, Rule, Subst, Term, Var,
};
use alexander_storage::Database;

/// Options for the SLD engine.
#[derive(Clone, Copy, Debug)]
pub struct SldOptions {
    /// Maximum resolution steps before giving up.
    pub step_budget: u64,
    /// Maximum derivation depth (guards against infinite left recursion
    /// even inside the budget).
    pub depth_limit: usize,
}

impl Default for SldOptions {
    fn default() -> SldOptions {
        SldOptions {
            step_budget: 1_000_000,
            depth_limit: 10_000,
        }
    }
}

/// The result of an SLD search.
#[derive(Clone, Debug)]
pub struct SldResult {
    /// Distinct ground answers found (within budget).
    pub answers: Vec<Atom>,
    /// True iff the whole search space was explored: the answer set is then
    /// complete. False means the budget or depth limit was hit.
    pub complete: bool,
    pub metrics: OldtMetrics,
}

/// One DFS node: remaining goals (with the depth that introduced each, for
/// depth accounting) and the environment.
struct Node {
    goals: Vec<(Literal, usize)>,
    subst: Subst,
}

/// [`alexander_ir::match_atom`] against a stored row: extends `s` so that
/// `goal` instantiated by it is `row`.
fn match_row(goal: &Atom, row: &[Const], s: &mut Subst) -> bool {
    goal.terms.iter().zip(row).all(|(&t, &c)| match s.walk(t) {
        Term::Const(x) => x == c,
        Term::Var(v) => {
            s.bind(v, Term::Const(c));
            true
        }
    })
}

/// Renames `rule` for use at `depth`: along one derivation path each depth
/// introduces at most one rule instance, so depth-indexed names are fresh
/// where it matters and keep the interner small across the exponential
/// search.
fn rename_at_depth(rule: &Rule, depth: usize) -> Rule {
    let mut map: FxHashMap<Var, Var> = FxHashMap::default();
    let mut rn = |t: Term| match t {
        Term::Const(_) => t,
        Term::Var(v) => Term::Var(
            *map.entry(v)
                .or_insert_with(|| Var::new(&format!("_D{depth}_{}", v.name()))),
        ),
    };
    Rule {
        head: Atom {
            pred: rule.head.pred,
            terms: rule.head.terms.iter().map(|&t| rn(t)).collect(),
        },
        body: rule
            .body
            .iter()
            .map(|l| Literal {
                atom: Atom {
                    pred: l.atom.pred,
                    terms: l.atom.terms.iter().map(|&t| rn(t)).collect(),
                },
                polarity: l.polarity,
            })
            .collect(),
    }
}

/// Answers `query` by plain SLD resolution under `opts`.
pub fn sld_query(
    program: &Program,
    edb: &Database,
    query: &Atom,
    opts: SldOptions,
) -> Result<SldResult, TopdownError> {
    let clauses = Clauses::new(program, edb)?;
    if let Some(p) = clauses.negated_idb {
        return Err(TopdownError::NegatedIdb(p));
    }

    let mut metrics = OldtMetrics::default();
    let mut answers: Vec<Atom> = Vec::new();
    let mut answer_set: FxHashSet<Atom> = FxHashSet::default();
    let mut complete = true;

    let mut stack: Vec<Node> = vec![Node {
        goals: vec![(Literal::pos(query.clone()), 0)],
        subst: Subst::new(),
    }];

    while let Some(mut node) = stack.pop() {
        if metrics.resolution_steps >= opts.step_budget {
            complete = false;
            break;
        }
        let Some((lit, depth)) = node.goals.pop() else {
            let answer = node.subst.apply_atom(query);
            if answer.is_ground() && answer_set.insert(answer.clone()) {
                answers.push(answer);
                metrics.answers += 1;
            }
            continue;
        };
        if depth >= opts.depth_limit {
            complete = false;
            continue;
        }
        let goal = node.subst.apply_atom(&lit.atom);

        // Built-ins.
        if let Some(b) = Builtin::of(goal.predicate()) {
            let Some(args) = goal.ground_args() else {
                return Err(TopdownError::NonGroundNegation(goal.to_string()));
            };
            metrics.resolution_steps += 1;
            if b.eval(args[0], args[1]) == (lit.polarity == Polarity::Positive) {
                stack.push(node);
            }
            continue;
        }

        match (lit.polarity, clauses.idb.contains(&goal.predicate())) {
            (Polarity::Negative, _) => {
                if !goal.is_ground() {
                    return Err(TopdownError::NonGroundNegation(goal.to_string()));
                }
                metrics.resolution_steps += 1;
                if !clauses.edb.contains_atom(&goal) {
                    stack.push(node);
                }
            }
            (Polarity::Positive, false) => {
                // No index either: one step per stored row, matched in place.
                let rows = clauses.edb.relation(goal.predicate()).into_iter();
                for row in rows.flat_map(|rel| rel.iter()) {
                    metrics.resolution_steps += 1;
                    let mut s = node.subst.clone();
                    if match_row(&goal, row, &mut s) {
                        stack.push(Node {
                            goals: node.goals.clone(),
                            subst: s,
                        });
                    }
                }
            }
            (Polarity::Positive, true) => {
                // No tabling: every occurrence re-resolves against the rules.
                // Push alternatives in reverse so the stack pops the FIRST
                // clause first (Prolog's clause order).
                for rule in clauses
                    .by_pred
                    .get(&goal.predicate())
                    .into_iter()
                    .flatten()
                    .rev()
                {
                    metrics.resolution_steps += 1;
                    let fresh = rename_at_depth(rule, depth + 1);
                    let mut s = node.subst.clone();
                    if alexander_ir::unify_atoms(&goal, &fresh.head, &mut s) {
                        let mut goals = node.goals.clone();
                        // Push body in reverse so it is solved left to right.
                        for l in fresh.body.iter().rev() {
                            goals.push((l.clone(), depth + 1));
                        }
                        stack.push(Node { goals, subst: s });
                    }
                }
            }
        }
    }

    answers.sort();
    Ok(SldResult {
        answers,
        complete,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_parser::{parse, parse_atom};

    fn run(src: &str, q: &str, opts: SldOptions) -> SldResult {
        let parsed = parse(src).unwrap();
        let edb = Database::from_program(&parsed.program);
        sld_query(&parsed.program, &edb, &parse_atom(q).unwrap(), opts).unwrap()
    }

    const ANCESTOR: &str = "
        par(a, b). par(b, c). par(c, d).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
    ";

    #[test]
    fn finds_all_answers_on_acyclic_data() {
        let r = run(ANCESTOR, "anc(a, X)", SldOptions::default());
        assert!(r.complete);
        let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(got, ["anc(a, b)", "anc(a, c)", "anc(a, d)"]);
    }

    #[test]
    fn cyclic_data_exhausts_the_budget() {
        let r = run(
            "
            e(a, b). e(b, a).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            ",
            "tc(a, X)",
            SldOptions {
                step_budget: 20_000,
                depth_limit: 500,
            },
        );
        assert!(!r.complete, "SLD must not terminate on a cycle");
        // It still finds the answers before looping (both a and b are
        // reachable).
        assert_eq!(r.answers.len(), 2);
    }

    #[test]
    fn depth_limit_cuts_left_recursion() {
        // Nonlinear tc(X,Y) :- tc(X,Z), tc(Z,Y) left-recurses immediately.
        let r = run(
            "
            e(a, b).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
            ",
            "tc(a, X)",
            SldOptions {
                step_budget: 50_000,
                depth_limit: 30,
            },
        );
        assert!(!r.complete);
        assert!(r.answers.iter().any(|a| a.to_string() == "tc(a, b)"));
    }

    #[test]
    fn sld_redoes_work_oldt_tables() {
        // Same-generation on a small tree: SLD revisits sg subgoals; OLDT
        // tables them. Compare step counts on identical inputs.
        let src = "
            up(a, g1). up(b, g1). up(g1, h1). up(g2, h1).
            flat(h1, h1). flat(g1, g2).
            down(h1, g3). down(g2, c). down(g3, d).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
        ";
        let sld = run(src, "sg(a, Y)", SldOptions::default());
        assert!(sld.complete);
        let parsed = parse(src).unwrap();
        let edb = Database::from_program(&parsed.program);
        let oldt = crate::oldt::oldt_query(&parsed.program, &edb, &parse_atom("sg(a, Y)").unwrap())
            .unwrap();
        let mut sld_ans: Vec<String> = sld.answers.iter().map(|a| a.to_string()).collect();
        let mut oldt_ans: Vec<String> = oldt.answers.iter().map(|a| a.to_string()).collect();
        sld_ans.sort();
        oldt_ans.sort();
        oldt_ans.dedup();
        assert_eq!(sld_ans, oldt_ans);
        assert!(
            sld.metrics.resolution_steps >= oldt.metrics.resolution_steps,
            "sld {} vs oldt {}",
            sld.metrics.resolution_steps,
            oldt.metrics.resolution_steps
        );
    }

    #[test]
    fn negation_on_edb_and_builtins() {
        let r = run(
            "
            v(1). v(2). v(3). bad(2).
            good(X) :- v(X), !bad(X), lt(X, 3).
            ",
            "good(X)",
            SldOptions::default(),
        );
        assert!(r.complete);
        let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(got, ["good(1)"]);
    }

    #[test]
    fn negated_idb_is_rejected() {
        let parsed = parse("q(a). p(X) :- q(X). r(X) :- q(X), !p(X).").unwrap();
        let edb = Database::from_program(&parsed.program);
        let err = sld_query(
            &parsed.program,
            &edb,
            &parse_atom("r(X)").unwrap(),
            SldOptions::default(),
        );
        assert!(matches!(err, Err(TopdownError::NegatedIdb(_))));
    }
}
