//! Substitutions: finite maps from variables to terms.

use crate::atom::Atom;
use crate::hash::FxHashMap;
use crate::literal::Literal;
use crate::rule::Rule;
use crate::term::{Term, Var};
use std::fmt;

/// A substitution `{X₁ ↦ t₁, …}`.
///
/// Bindings may map variables to variables (needed by unification during
/// adornment and loose-stratification analysis); [`Subst::walk`] follows
/// variable chains to the representative term.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Subst {
    map: FxHashMap<Var, Term>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The direct binding of `v`, if any (does not follow chains).
    pub fn get(&self, v: Var) -> Option<Term> {
        self.map.get(&v).copied()
    }

    /// Binds `v ↦ t`. Panics in debug builds if `v` is already bound to a
    /// different term — callers must walk first.
    pub fn bind(&mut self, v: Var, t: Term) {
        debug_assert!(
            self.map.get(&v).is_none_or(|old| *old == t),
            "rebinding {v} from {:?} to {t}",
            self.map[&v],
        );
        self.map.insert(v, t);
    }

    /// Follows variable chains starting from `t` until a constant or an
    /// unbound variable is reached.
    pub fn walk(&self, t: Term) -> Term {
        let mut cur = t;
        // Chains are acyclic because `bind` is only called on unbound
        // variables; bound is still checked to avoid infinite loops on
        // adversarial input.
        let mut steps = 0usize;
        while let Term::Var(v) = cur {
            match self.map.get(&v) {
                Some(&next) if next != cur => {
                    cur = next;
                    steps += 1;
                    if steps > self.map.len() {
                        break;
                    }
                }
                _ => break,
            }
        }
        cur
    }

    /// Applies the substitution to a term (walking chains).
    pub fn apply_term(&self, t: Term) -> Term {
        self.walk(t)
    }

    /// Applies the substitution to an atom.
    pub fn apply_atom(&self, a: &Atom) -> Atom {
        Atom {
            pred: a.pred,
            terms: a.terms.iter().map(|&t| self.apply_term(t)).collect(),
        }
    }

    /// Applies the substitution to a literal.
    pub fn apply_literal(&self, l: &Literal) -> Literal {
        Literal {
            atom: self.apply_atom(&l.atom),
            polarity: l.polarity,
        }
    }

    /// Applies the substitution to a whole rule.
    pub fn apply_rule(&self, r: &Rule) -> Rule {
        Rule {
            head: self.apply_atom(&r.head),
            body: r.body.iter().map(|l| self.apply_literal(l)).collect(),
        }
    }

    /// Iterates over the bindings in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Term)> + '_ {
        self.map.iter().map(|(&v, &t)| (v, t))
    }
}

impl fmt::Display for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut items: Vec<_> = self.map.iter().collect();
        items.sort_by_key(|(v, _)| v.0);
        write!(f, "{{")?;
        for (i, (v, t)) in items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} -> {t}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::atom;

    #[test]
    fn walk_follows_chains() {
        let mut s = Subst::new();
        s.bind(Var::new("X"), Term::var("Y"));
        s.bind(Var::new("Y"), Term::sym("a"));
        assert_eq!(s.walk(Term::var("X")), Term::sym("a"));
        assert_eq!(s.walk(Term::var("Z")), Term::var("Z"));
        assert_eq!(s.walk(Term::sym("b")), Term::sym("b"));
    }

    #[test]
    fn apply_atom_substitutes_all_positions() {
        let mut s = Subst::new();
        s.bind(Var::new("X"), Term::sym("a"));
        let a = atom("p", [Term::var("X"), Term::var("Y"), Term::sym("c")]);
        assert_eq!(s.apply_atom(&a).to_string(), "p(a, Y, c)");
    }

    #[test]
    fn display_is_sorted_and_readable() {
        let mut s = Subst::new();
        s.bind(Var::new("X"), Term::sym("a"));
        let shown = s.to_string();
        assert_eq!(shown, "{X -> a}");
    }
}
