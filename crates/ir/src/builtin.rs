//! Built-in comparison predicates.
//!
//! The names `eq/2`, `neq/2`, `lt/2`, `leq/2`, `gt/2`, `geq/2` are reserved:
//! they are evaluated natively by every engine instead of being looked up in
//! storage. Integers compare numerically; symbols lexicographically; across
//! the two sorts integers order before symbols (the same total order as
//! [`Const`]'s `Ord`, so `lt` agrees with sorting).
//!
//! Like negation, a built-in can only be *tested*, not used to generate
//! bindings: safety requires every variable of a built-in literal to occur
//! in an ordinary positive body literal, and the evaluators order bodies so
//! built-ins run once their arguments are ground.

use crate::atom::Predicate;
use crate::term::Const;
use std::cmp::Ordering;

/// The built-in comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Builtin {
    Eq,
    Neq,
    Lt,
    Leq,
    Gt,
    Geq,
}

impl Builtin {
    /// Recognises a predicate as a built-in (name and arity must match).
    pub fn of(pred: Predicate) -> Option<Builtin> {
        if pred.arity != 2 {
            return None;
        }
        Some(match pred.name.as_str() {
            "eq" => Builtin::Eq,
            "neq" => Builtin::Neq,
            "lt" => Builtin::Lt,
            "leq" => Builtin::Leq,
            "gt" => Builtin::Gt,
            "geq" => Builtin::Geq,
            _ => return None,
        })
    }

    /// Evaluates the comparison on ground arguments.
    pub fn eval(self, a: Const, b: Const) -> bool {
        let ord = compare(a, b);
        match self {
            Builtin::Eq => ord == Ordering::Equal,
            Builtin::Neq => ord != Ordering::Equal,
            Builtin::Lt => ord == Ordering::Less,
            Builtin::Leq => ord != Ordering::Greater,
            Builtin::Gt => ord == Ordering::Greater,
            Builtin::Geq => ord != Ordering::Less,
        }
    }

    /// The operator's conventional symbol (for messages).
    pub fn symbol(self) -> &'static str {
        match self {
            Builtin::Eq => "=",
            Builtin::Neq => "!=",
            Builtin::Lt => "<",
            Builtin::Leq => "<=",
            Builtin::Gt => ">",
            Builtin::Geq => ">=",
        }
    }
}

/// The total order built-ins compare by — [`Const`]'s own `Ord` (integers
/// numerically, then symbols lexicographically), so `lt` agrees with every
/// sorted output in the system.
fn compare(a: Const, b: Const) -> Ordering {
    a.cmp(&b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recognition_requires_name_and_arity() {
        assert_eq!(Builtin::of(Predicate::new("lt", 2)), Some(Builtin::Lt));
        assert_eq!(Builtin::of(Predicate::new("lt", 1)), None);
        assert_eq!(Builtin::of(Predicate::new("lt", 3)), None);
        assert_eq!(Builtin::of(Predicate::new("edge", 2)), None);
    }

    #[test]
    fn integer_comparisons() {
        assert!(Builtin::Lt.eval(Const::int(1), Const::int(2)));
        assert!(!Builtin::Lt.eval(Const::int(2), Const::int(2)));
        assert!(Builtin::Leq.eval(Const::int(2), Const::int(2)));
        assert!(Builtin::Gt.eval(Const::int(3), Const::int(-3)));
        assert!(Builtin::Geq.eval(Const::int(3), Const::int(3)));
        assert!(Builtin::Eq.eval(Const::int(0), Const::int(0)));
        assert!(Builtin::Neq.eval(Const::int(0), Const::int(1)));
    }

    #[test]
    fn symbol_comparisons_are_lexicographic() {
        assert!(Builtin::Lt.eval(Const::sym("apple"), Const::sym("banana")));
        assert!(Builtin::Neq.eval(Const::sym("a"), Const::sym("b")));
        assert!(Builtin::Eq.eval(Const::sym("a"), Const::sym("a")));
    }

    #[test]
    fn cross_sort_ordering_matches_const_ord() {
        assert!(Builtin::Lt.eval(Const::int(999), Const::sym("a")));
        assert!(Builtin::Gt.eval(Const::sym("a"), Const::int(999)));
        // Trichotomy holds across sorts.
        assert!(Builtin::Neq.eval(Const::int(1), Const::sym("1")));
    }

    #[test]
    fn operator_symbols() {
        assert_eq!(Builtin::Lt.symbol(), "<");
        assert_eq!(Builtin::Neq.symbol(), "!=");
    }
}
