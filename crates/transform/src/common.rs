//! Shared pieces of the magic/supplementary/Alexander rewritings.

use crate::adorn::Adorned;
use alexander_ir::{AdornedPredicate, Atom, Bf, Predicate, Program, Symbol, Term};

/// The output of a query-directed rewriting.
#[derive(Clone, Debug)]
pub struct Rewritten {
    /// The rewritten rules plus the seed fact.
    pub program: Program,
    /// The seed: the ground magic/call fact encoding the query bindings.
    pub seed: Atom,
    /// The atom to match against the saturated database to read answers
    /// (same argument terms as the original query).
    pub query: Atom,
    /// Predicate holding the query's answers.
    pub answer_pred: Predicate,
    /// The magic/call predicate of the query adornment (its extension is the
    /// set of subqueries issued — the quantity the power theorem compares
    /// with OLDT's call table).
    pub call_pred: Predicate,
    /// The adornment stage this rewriting was built from.
    pub adorned: Adorned,
}

/// `magic_p_bf`-style name derivation.
pub fn prefixed(prefix: &str, mangled: Symbol) -> Symbol {
    Symbol::intern(&format!("{prefix}{mangled}"))
}

/// The arguments of `atom` at the bound positions of `ap`'s adornment.
pub fn bound_args(atom: &Atom, ap: &AdornedPredicate) -> Vec<Term> {
    debug_assert_eq!(atom.terms.len(), ap.adornment.arity());
    atom.terms
        .iter()
        .zip(&ap.adornment.0)
        .filter(|(_, bf)| **bf == Bf::Bound)
        .map(|(t, _)| *t)
        .collect()
}

/// Builds the seed fact for a query: the magic/call atom over the query's
/// bound constants.
pub fn seed_atom(prefix: &str, query: &Atom, ap: &AdornedPredicate) -> Atom {
    Atom {
        pred: prefixed(
            prefix,
            Symbol::intern(&format!("{}_{}", ap.pred.name, ap.adornment)),
        ),
        terms: bound_args(query, ap),
    }
}

/// Matches `pattern` (an atom with variables, typically
/// [`Rewritten::query`]) against every stored atom of its predicate,
/// returning the matching ground atoms. This is how answers are read off a
/// saturated database: the answer relation holds answers to *every*
/// subquery of the same adornment, and the pattern's constants select the
/// original query's. Only matching rows become atoms; they come in the
/// relation's id order.
pub fn query_answers(db: &alexander_storage::Database, pattern: &Atom) -> Vec<Atom> {
    db.matching(pattern)
        .map(|row| alexander_storage::row_atom(pattern.pred, row))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_ir::{atom, Adornment};

    #[test]
    fn bound_args_follow_the_adornment() {
        let ap = AdornedPredicate::new(Predicate::new("p", 3), Adornment::from_str("bfb"));
        let a = atom("p", [Term::sym("a"), Term::var("X"), Term::var("Y")]);
        let b = bound_args(&a, &ap);
        assert_eq!(b, vec![Term::sym("a"), Term::var("Y")]);
    }

    #[test]
    fn seed_uses_query_constants() {
        let ap = AdornedPredicate::new(Predicate::new("anc", 2), Adornment::from_str("bf"));
        let q = atom("anc", [Term::sym("adam"), Term::var("X")]);
        let s = seed_atom("magic_", &q, &ap);
        assert_eq!(s.to_string(), "magic_anc_bf(adam)");
    }

    #[test]
    fn prefixed_names_are_stable() {
        let m = prefixed("call_", Symbol::intern("sg_bf"));
        assert_eq!(m.as_str(), "call_sg_bf");
    }
}
