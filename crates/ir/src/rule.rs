//! Rules (Horn clauses with negation-as-failure bodies).

use crate::atom::Atom;
use crate::hash::FxHashMap;
use crate::literal::Literal;
use crate::term::{Term, Var};
use std::fmt;

/// A rule `head :- l₁, …, lₙ.`  (`n = 0` makes it a fact-producing rule; true
/// ground facts are normally stored in the EDB instead).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    pub head: Atom,
    pub body: Vec<Literal>,
}

impl Rule {
    /// Builds a rule.
    pub fn new(head: Atom, body: Vec<Literal>) -> Rule {
        Rule { head, body }
    }

    /// All variables of the rule (head and body), deduplicated, in order of
    /// first occurrence (head first).
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = Vec::new();
        let mut push = |v: Var| {
            if !seen.contains(&v) {
                seen.push(v);
            }
        };
        for v in self.head.vars() {
            push(v);
        }
        for l in &self.body {
            for v in l.vars() {
                push(v);
            }
        }
        seen
    }

    /// True iff the rule is *safe* (range-restricted): every head variable,
    /// every variable of a negative body literal, and every variable of a
    /// built-in comparison occurs in some ordinary positive body literal
    /// (built-ins test bindings; they cannot generate them).
    pub fn is_safe(&self) -> bool {
        self.unsafe_vars().is_empty()
    }

    /// The variables violating safety (empty iff [`Rule::is_safe`]).
    pub fn unsafe_vars(&self) -> Vec<Var> {
        let positive: Vec<Var> = self
            .body
            .iter()
            .filter(|l| {
                l.is_positive() && crate::builtin::Builtin::of(l.atom.predicate()).is_none()
            })
            .flat_map(|l| l.vars())
            .collect();
        let mut bad = Vec::new();
        let mut check = |v: Var| {
            if !positive.contains(&v) && !bad.contains(&v) {
                bad.push(v);
            }
        };
        for v in self.head.vars() {
            check(v);
        }
        for l in self.body.iter().filter(|l| {
            l.is_negative() || crate::builtin::Builtin::of(l.atom.predicate()).is_some()
        }) {
            for v in l.vars() {
                check(v);
            }
        }
        bad
    }

    /// Renames every variable of the rule to a fresh one, preserving sharing.
    /// Used to rename rules apart before unification-based analyses.
    pub fn rectified(&self) -> Rule {
        let mut renaming: FxHashMap<Var, Var> = FxHashMap::default();
        let mut rename = |t: Term| -> Term {
            match t {
                Term::Const(_) => t,
                Term::Var(v) => Term::Var(
                    *renaming
                        .entry(v)
                        .or_insert_with(|| Var::fresh(v.name().as_str())),
                ),
            }
        };
        let head = Atom {
            pred: self.head.pred,
            terms: self.head.terms.iter().map(|&t| rename(t)).collect(),
        };
        let body = self
            .body
            .iter()
            .map(|l| Literal {
                atom: Atom {
                    pred: l.atom.pred,
                    terms: l.atom.terms.iter().map(|&t| rename(t)).collect(),
                },
                polarity: l.polarity,
            })
            .collect();
        Rule { head, body }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        write!(f, ".")
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::atom;

    fn anc_step() -> Rule {
        Rule::new(
            atom("anc", [Term::var("X"), Term::var("Y")]),
            vec![
                Literal::pos(atom("par", [Term::var("X"), Term::var("Z")])),
                Literal::pos(atom("anc", [Term::var("Z"), Term::var("Y")])),
            ],
        )
    }

    #[test]
    fn vars_in_first_occurrence_order() {
        let r = anc_step();
        let names: Vec<_> = r.vars().iter().map(|v| v.to_string()).collect();
        assert_eq!(names, ["X", "Y", "Z"]);
    }

    #[test]
    fn safety_detects_unrestricted_head_var() {
        let bad = Rule::new(
            atom("p", [Term::var("X"), Term::var("W")]),
            vec![Literal::pos(atom("q", [Term::var("X")]))],
        );
        assert!(!bad.is_safe());
        assert_eq!(bad.unsafe_vars(), vec![Var::new("W")]);
        assert!(anc_step().is_safe());
    }

    #[test]
    fn safety_detects_unrestricted_negative_var() {
        let bad = Rule::new(
            atom("p", [Term::var("X")]),
            vec![
                Literal::pos(atom("q", [Term::var("X")])),
                Literal::neg(atom("r", [Term::var("Z")])),
            ],
        );
        assert!(!bad.is_safe());
        assert_eq!(bad.unsafe_vars(), vec![Var::new("Z")]);
    }

    #[test]
    fn rectified_preserves_structure_and_sharing() {
        let r = anc_step();
        let r2 = r.rectified();
        assert_eq!(r2.head.pred, r.head.pred);
        assert_eq!(r2.body.len(), 2);
        // Shared variable Z must stay shared after renaming.
        let z1 = r2.body[0].atom.terms[1];
        let z2 = r2.body[1].atom.terms[0];
        assert_eq!(z1, z2);
        // But all variables must be fresh (different from the originals).
        assert!(r2.vars().iter().all(|v| !r.vars().contains(v)));
    }

    #[test]
    fn display_roundtrip_shape() {
        assert_eq!(anc_step().to_string(), "anc(X, Y) :- par(X, Z), anc(Z, Y).");
        let fact_rule = Rule::new(atom("p", [Term::sym("a")]), vec![]);
        assert_eq!(fact_rule.to_string(), "p(a).");
    }
}
