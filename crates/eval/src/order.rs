//! Evaluable body orderings.
//!
//! Negation as failure can only be decided on a *ground* literal, so a rule
//! body must be ordered such that every negative literal comes after positive
//! literals binding all its variables. Bry (PODS 1989, §3/§5.2) shows this
//! classically "procedural" requirement is exactly the restriction to
//! constructive proofs of *ordered conjunctions* — the `&` connective of his
//! constructive domain independence. The evaluators apply this reordering
//! internally; it never changes the set of answers, only evaluability.

use alexander_ir::{FxHashSet, Literal, Rule, Var};
use std::fmt;

/// Error: a rule body cannot be ordered so that negations are ground when
/// reached. Cannot happen for safe (range-restricted) rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unorderable {
    pub rule: String,
}

impl fmt::Display for Unorderable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule `{}` has a negative literal whose variables no positive literal binds",
            self.rule
        )
    }
}

impl std::error::Error for Unorderable {}

/// Reorders the body of `rule` so every negative literal appears after
/// positive literals binding all its variables. Positive literals keep their
/// relative order (the SIP chosen upstream is preserved); each negative
/// literal is placed at the earliest point where it is ground.
pub fn order_for_evaluation(rule: &Rule) -> Result<Rule, Unorderable> {
    match order_body(&rule.body, FxHashSet::default()) {
        Some(body) => Ok(Rule::new(rule.head.clone(), body)),
        None => Err(Unorderable {
            rule: rule.to_string(),
        }),
    }
}

/// [`order_for_evaluation`]'s ordering of `body` when the variables in
/// `bound` are bound before it runs (a top-down call's bound head
/// arguments): positives in their order, each negation or built-in at the
/// first point its variables are all bound. `None` when one never is.
pub fn order_body(body: &[Literal], mut bound: FxHashSet<Var>) -> Option<Vec<Literal>> {
    // Deferred literals are tests, not generators: negations and built-in
    // comparisons. Both need their variables ground before running.
    let deferred =
        |l: &&Literal| l.is_negative() || alexander_ir::Builtin::of(l.atom.predicate()).is_some();
    let mut pending_neg: Vec<&Literal> = body.iter().filter(deferred).collect();
    let positives: Vec<&Literal> = body.iter().filter(|l| !deferred(l)).collect();

    let mut out: Vec<Literal> = Vec::with_capacity(body.len());

    let flush_ready =
        |bound: &FxHashSet<Var>, pending: &mut Vec<&Literal>, out: &mut Vec<Literal>| {
            pending.retain(|l| {
                if l.vars().all(|v| bound.contains(&v)) {
                    out.push((*l).clone());
                    false
                } else {
                    true
                }
            });
        };

    flush_ready(&bound, &mut pending_neg, &mut out);
    for l in positives {
        out.push(l.clone());
        bound.extend(l.vars());
        flush_ready(&bound, &mut pending_neg, &mut out);
    }

    pending_neg.is_empty().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_ir::{atom, Term};

    #[test]
    fn negation_moves_after_binding_literal() {
        // p(X) :- !q(X), r(X).   =>   p(X) :- r(X), !q(X).
        let r = Rule::new(
            atom("p", [Term::var("X")]),
            vec![
                Literal::neg(atom("q", [Term::var("X")])),
                Literal::pos(atom("r", [Term::var("X")])),
            ],
        );
        let o = order_for_evaluation(&r).unwrap();
        assert_eq!(o.to_string(), "p(X) :- r(X), !q(X).");
    }

    #[test]
    fn already_ordered_body_is_unchanged() {
        let r = Rule::new(
            atom("win", [Term::var("X")]),
            vec![
                Literal::pos(atom("move", [Term::var("X"), Term::var("Y")])),
                Literal::neg(atom("win", [Term::var("Y")])),
            ],
        );
        let o = order_for_evaluation(&r).unwrap();
        assert_eq!(o, r);
    }

    #[test]
    fn ground_negation_can_come_first() {
        let r = Rule::new(
            atom("p", [Term::var("X")]),
            vec![
                Literal::neg(atom("q", [Term::sym("a")])),
                Literal::pos(atom("r", [Term::var("X")])),
            ],
        );
        let o = order_for_evaluation(&r).unwrap();
        // The ground negation has no variables: it may stay first.
        assert!(o.body[0].is_negative());
    }

    #[test]
    fn positive_order_is_preserved() {
        let r = Rule::new(
            atom("p", [Term::var("X")]),
            vec![
                Literal::pos(atom("a", [Term::var("X")])),
                Literal::pos(atom("b", [Term::var("X"), Term::var("Y")])),
                Literal::neg(atom("c", [Term::var("Y")])),
                Literal::pos(atom("d", [Term::var("Y")])),
            ],
        );
        let o = order_for_evaluation(&r).unwrap();
        let names: Vec<String> = o.body.iter().map(|l| l.atom.pred.to_string()).collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
    }

    #[test]
    fn unsafe_rule_is_unorderable() {
        let r = Rule::new(
            atom("p", [Term::var("X")]),
            vec![
                Literal::pos(atom("r", [Term::var("X")])),
                Literal::neg(atom("q", [Term::var("Z")])),
            ],
        );
        assert!(order_for_evaluation(&r).is_err());
    }

    #[test]
    fn a_negation_over_bound_variables_comes_first() {
        // With `X` bound by the caller, `!q(X)` is ground before `r(X, Y)`.
        let body = [
            Literal::pos(atom("r", [Term::var("X"), Term::var("Y")])),
            Literal::neg(atom("q", [Term::var("X")])),
        ];
        let x = FxHashSet::from_iter([Var::new("X")]);
        let o = order_body(&body, x).unwrap();
        assert!(o[0].is_negative());
        assert_eq!(order_body(&body, FxHashSet::default()).unwrap(), body);
    }
}
