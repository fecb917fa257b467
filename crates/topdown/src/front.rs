//! The front end the top-down engines share: one validation, one clause
//! table, one extensional store and one error type for OLDT, QSQR and SLD.
//!
//! Inline facts are read the way every strategy reads them
//! ([`Program::normalize`]): a fact of an intensional predicate is a
//! body-less clause of that predicate, resolved like any rule, and a fact of
//! an extensional predicate is a row of the store. Negation is each engine's
//! own business; `Clauses::negated_idb` is where its check starts.

use alexander_ir::analysis::NotStratified;
use alexander_ir::{Atom, Const, FxHashMap, FxHashSet, Predicate, Program, Rule};
use alexander_storage::{row_atom, Database, Mask};
use std::fmt;

/// Errors from the top-down engines.
#[derive(Clone, Debug)]
pub enum TopdownError {
    Invalid(Vec<alexander_ir::ProgramError>),
    /// Negation needs completed subquery tables, which OLDT and QSQR have
    /// only for stratified programs.
    NotStratified(NotStratified),
    /// SLD cannot negate an intensional predicate (it has no tables to
    /// complete): use OLDT.
    NegatedIdb(Predicate),
    /// A negative literal or built-in was selected while non-ground.
    NonGroundNegation(String),
}

impl fmt::Display for TopdownError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopdownError::Invalid(errs) => {
                write!(f, "invalid program:")?;
                for e in errs {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            TopdownError::NotStratified(e) => write!(f, "{e}"),
            TopdownError::NegatedIdb(p) => {
                write!(f, "SLD cannot negate intensional predicate {p}; use OLDT")
            }
            TopdownError::NonGroundNegation(l) => {
                write!(f, "negative literal `{l}` selected while non-ground")
            }
        }
    }
}

impl std::error::Error for TopdownError {}

/// A validated program as the top-down engines resolve it.
pub(crate) struct Clauses {
    /// The clauses of each intensional predicate: its rules, then its
    /// inline facts as body-less rules.
    pub by_pred: FxHashMap<Predicate, Vec<Rule>>,
    pub idb: FxHashSet<Predicate>,
    /// The caller's EDB plus the program's inline EDB rows.
    pub edb: Database,
    /// The first intensional predicate a rule negates, in program order:
    /// where each engine's own negation check starts.
    pub negated_idb: Option<Predicate>,
}

impl Clauses {
    pub(crate) fn new(program: &Program, edb: &Database) -> Result<Clauses, TopdownError> {
        program.validate().map_err(TopdownError::Invalid)?;
        let program = program.normalized();
        let mut by_pred: FxHashMap<Predicate, Vec<Rule>> = FxHashMap::default();
        for r in &program.rules {
            by_pred
                .entry(r.head.predicate())
                .or_default()
                .push(r.clone());
        }
        let mut store = edb.clone();
        for f in &program.facts {
            // invariant: `program.validate()` above rejects non-ground facts.
            store.insert_atom(f).expect("validated facts are ground");
        }
        let idb = program.idb_predicates();
        let negated_idb = program
            .rules
            .iter()
            .flat_map(|r| &r.body)
            .find(|l| l.is_negative() && idb.contains(&l.atom.predicate()))
            .map(|l| l.atom.predicate());
        Ok(Clauses {
            by_pred,
            idb,
            edb: store,
            negated_idb,
        })
    }

    /// The rows of `pred` whose `mask` columns equal `key`, in row order,
    /// through the index when one is built and by a scan otherwise.
    pub(crate) fn probe<'a>(
        &'a self,
        pred: Predicate,
        mask: Mask,
        key: &'a [Const],
    ) -> Box<dyn Iterator<Item = &'a [Const]> + 'a> {
        match self.edb.relation(pred) {
            Some(rel) => rel.probe(mask, key).0,
            None => Box::new(std::iter::empty()),
        }
    }

    /// The answers to an extensional `query`: the stored rows that equal
    /// its constants and repeat where it repeats a variable.
    pub(crate) fn lookup(&self, query: &Atom) -> Vec<Atom> {
        self.edb
            .matching(query)
            .map(|row| row_atom(query.pred, row))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{oldt_query, qsqr_query, sld_query, SldOptions};
    use alexander_parser::{parse, parse_atom};
    use alexander_storage::Database;

    #[test]
    fn intensional_inline_facts_are_clauses_for_every_engine() {
        let parsed = parse(
            "e(a, b). e(b, c). anc(z, z). anc(c, w).
             anc(X, Y) :- e(X, Y).
             anc(X, Y) :- e(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let edb = Database::from_program(&parsed.program);
        assert_eq!(edb.total_tuples(), 2, "an `anc` fact is no EDB row");
        let p = &parsed.program;
        // `anc(z, z)` answers its own call; `anc(c, w)` also feeds the
        // recursion, so `a` reaches `w`.
        for (q, want) in [
            ("anc(z, X)", &["anc(z, z)"][..]),
            ("anc(a, X)", &["anc(a, b)", "anc(a, c)", "anc(a, w)"][..]),
        ] {
            let q = parse_atom(q).unwrap();
            let show = |mut answers: Vec<alexander_ir::Atom>| -> Vec<String> {
                answers.sort();
                answers.iter().map(|a| a.to_string()).collect()
            };
            assert_eq!(show(oldt_query(p, &edb, &q).unwrap().answers), want);
            assert_eq!(show(qsqr_query(p, &edb, &q).unwrap().answers), want);
            let sld = sld_query(p, &edb, &q, SldOptions::default()).unwrap();
            assert!(sld.complete);
            assert_eq!(show(sld.answers), want);
        }
    }
}
