//! Adornments: bound/free annotations on predicate arguments.
//!
//! An adornment records, for each argument position of a predicate, whether
//! the argument is *bound* (known when the subquery is issued) or *free*.
//! Adornments drive the magic-sets and Alexander rewritings and name the
//! specialised predicates they generate (`anc_bf`, `sg_fb`, …).

use crate::atom::{Atom, Predicate};
use crate::symbol::Symbol;
use crate::term::{Term, Var};
use std::fmt;

/// One argument position's binding status.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Bf {
    Bound,
    Free,
}

impl Bf {
    /// `'b'` or `'f'`.
    pub fn letter(self) -> char {
        match self {
            Bf::Bound => 'b',
            Bf::Free => 'f',
        }
    }
}

/// An adornment: one [`Bf`] per argument position.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Adornment(pub Vec<Bf>);

impl Adornment {
    /// Parses `"bf"`-style strings. Panics on characters other than `b`/`f`
    /// (programmer error in tests/benches).
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Adornment {
        Adornment(
            s.chars()
                .map(|c| match c {
                    'b' => Bf::Bound,
                    'f' => Bf::Free,
                    other => panic!("invalid adornment character {other:?}"),
                })
                .collect(),
        )
    }

    /// Computes the adornment of `query`: argument positions holding
    /// constants (or variables in `bound_vars`) are bound.
    pub fn of_atom(query: &Atom, bound_vars: &[Var]) -> Adornment {
        Adornment(
            query
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(_) => Bf::Bound,
                    Term::Var(v) => {
                        if bound_vars.contains(v) {
                            Bf::Bound
                        } else {
                            Bf::Free
                        }
                    }
                })
                .collect(),
        )
    }

    /// Number of argument positions.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Indices of the bound positions, ascending.
    pub fn bound_positions(&self) -> Vec<usize> {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, bf)| **bf == Bf::Bound)
            .map(|(i, _)| i)
            .collect()
    }

    /// The `"bf"` string form used in generated predicate names.
    pub fn suffix(&self) -> String {
        self.0.iter().map(|bf| bf.letter()).collect()
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.suffix())
    }
}

impl fmt::Debug for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A predicate paired with an adornment — the unit the rewritings specialise.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AdornedPredicate {
    pub pred: Predicate,
    pub adornment: Adornment,
}

impl AdornedPredicate {
    pub fn new(pred: Predicate, adornment: Adornment) -> AdornedPredicate {
        debug_assert_eq!(pred.arity, adornment.arity());
        AdornedPredicate { pred, adornment }
    }

    /// The interned name `p_bf` used for the specialised predicate in
    /// rewritten programs.
    pub fn mangled_name(&self) -> Symbol {
        Symbol::intern(&format!("{}_{}", self.pred.name, self.adornment.suffix()))
    }
}

impl fmt::Display for AdornedPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}^{}", self.pred, self.adornment)
    }
}

impl fmt::Debug for AdornedPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::atom;

    #[test]
    fn adornment_of_query_atom() {
        let q = atom("anc", [Term::sym("a"), Term::var("X")]);
        let ad = Adornment::of_atom(&q, &[]);
        assert_eq!(ad.suffix(), "bf");
        assert_eq!(ad.bound_positions(), vec![0]);
    }

    #[test]
    fn bound_vars_parameter_binds_variables() {
        let q = atom("sg", [Term::var("X"), Term::var("Y")]);
        let ad = Adornment::of_atom(&q, &[Var::new("X")]);
        assert_eq!(ad.suffix(), "bf");
    }

    #[test]
    fn from_str_roundtrips() {
        let ad = Adornment::from_str("bfb");
        assert_eq!(ad.to_string(), "bfb");
        assert_eq!(ad.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid adornment character")]
    fn from_str_rejects_garbage() {
        Adornment::from_str("bx");
    }

    #[test]
    fn mangled_names_are_stable() {
        let ap = AdornedPredicate::new(Predicate::new("anc", 2), Adornment::from_str("bf"));
        assert_eq!(ap.mangled_name().as_str(), "anc_bf");
        assert_eq!(ap.to_string(), "anc/2^bf");
    }
}
