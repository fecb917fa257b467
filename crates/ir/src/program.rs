//! Programs: rule sets with EDB/IDB classification and validation.

use crate::atom::{Atom, Predicate};
use crate::hash::FxHashSet;
use crate::rule::Rule;
use crate::term::Var;
use std::borrow::Cow;
use std::fmt;

/// A Datalog program: a set of rules plus ground facts that were written in
/// the program text (facts are normally loaded into the database instead, but
/// the parser accepts inline facts for convenience). How every strategy reads
/// an inline fact is decided once, by [`Program::normalize`].
#[derive(Clone, Default, PartialEq)]
pub struct Program {
    pub rules: Vec<Rule>,
    pub facts: Vec<Atom>,
}

/// Validation failures, see [`Program::validate`].
#[derive(Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A rule is not range-restricted: the listed variables occur in the head
    /// or in a negative literal but in no positive body literal.
    UnsafeRule { rule: String, vars: Vec<Var> },
    /// An inline fact contains a variable.
    NonGroundFact { fact: String },
    /// A predicate is used with two different arities.
    ArityMismatch {
        pred: String,
        arities: (usize, usize),
    },
    /// A rule head is an EDB predicate (one that also appears as an inline
    /// fact or is declared extensional by the caller).
    EdbHead { pred: String, rule: String },
    /// A rule head or fact uses a reserved built-in predicate.
    BuiltinHead { rule: String },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnsafeRule { rule, vars } => {
                let vs: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
                write!(f, "unsafe rule `{rule}`: variables [{}] do not occur in any positive body literal", vs.join(", "))
            }
            ProgramError::NonGroundFact { fact } => {
                write!(f, "non-ground fact `{fact}`")
            }
            ProgramError::ArityMismatch { pred, arities } => {
                write!(
                    f,
                    "predicate `{pred}` used with arities {} and {}",
                    arities.0, arities.1
                )
            }
            ProgramError::EdbHead { pred, rule } => {
                write!(
                    f,
                    "EDB predicate `{pred}` appears as a rule head in `{rule}`"
                )
            }
            ProgramError::BuiltinHead { rule } => {
                write!(
                    f,
                    "built-in comparison predicate cannot be defined: `{rule}`"
                )
            }
        }
    }
}

impl fmt::Debug for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Builds a program from rules only.
    pub fn from_rules(rules: Vec<Rule>) -> Program {
        Program {
            rules,
            facts: Vec::new(),
        }
    }

    /// The *intensional* predicates: those defined by some rule head.
    pub fn idb_predicates(&self) -> FxHashSet<Predicate> {
        self.rules.iter().map(|r| r.head.predicate()).collect()
    }

    /// The *extensional* predicates: those that occur in rule bodies or as
    /// inline facts but are defined by no rule.
    pub fn edb_predicates(&self) -> FxHashSet<Predicate> {
        let idb = self.idb_predicates();
        let mut edb = FxHashSet::default();
        for r in &self.rules {
            for l in &r.body {
                let p = l.atom.predicate();
                if !idb.contains(&p) {
                    edb.insert(p);
                }
            }
        }
        for fa in &self.facts {
            let p = fa.predicate();
            if !idb.contains(&p) {
                edb.insert(p);
            }
        }
        edb
    }

    /// True iff `pred` is intensional in this program.
    pub fn is_idb(&self, pred: Predicate) -> bool {
        self.rules.iter().any(|r| r.head.predicate() == pred)
    }

    /// Rules whose head predicate is `pred`.
    pub fn rules_for(&self, pred: Predicate) -> impl Iterator<Item = &Rule> + '_ {
        self.rules
            .iter()
            .filter(move |r| r.head.predicate() == pred)
    }

    /// Applies the one reading of inline facts that every strategy shares:
    /// a fact of an extensional predicate is an EDB row, and a fact of an
    /// intensional predicate is a body-less rule. The latter move to the end
    /// of `rules`, so `facts` keeps only EDB rows. Idempotent, and the
    /// intensional predicates do not change.
    pub fn normalize(&mut self) {
        let idb = self.idb_predicates();
        let (heads, rows): (Vec<Atom>, Vec<Atom>) = std::mem::take(&mut self.facts)
            .into_iter()
            .partition(|f| idb.contains(&f.predicate()));
        self.facts = rows;
        self.rules
            .extend(heads.into_iter().map(|head| Rule::new(head, Vec::new())));
    }

    /// [`Program::normalize`] for a borrowed program: borrows it back when
    /// no inline fact names an intensional predicate (an already-normalised
    /// program costs one pass over its rules and one over its inline facts,
    /// and nothing when it has no inline facts).
    pub fn normalized(&self) -> Cow<'_, Program> {
        if self.facts.is_empty() {
            return Cow::Borrowed(self);
        }
        let idb = self.idb_predicates();
        if self.facts.iter().any(|f| idb.contains(&f.predicate())) {
            let mut program = self.clone();
            program.normalize();
            Cow::Owned(program)
        } else {
            Cow::Borrowed(self)
        }
    }

    /// Validates safety, groundness of inline facts, arity consistency, and
    /// that no rule redefines an inline-fact (EDB) predicate. Returns every
    /// violation rather than the first.
    pub fn validate(&self) -> Result<(), Vec<ProgramError>> {
        let mut errors = Vec::new();

        // Arity consistency: name -> first seen arity.
        let mut seen: crate::hash::FxHashMap<crate::symbol::Symbol, usize> =
            crate::hash::FxHashMap::default();
        let mut check_arity = |a: &Atom, errors: &mut Vec<ProgramError>| {
            let old = *seen.entry(a.pred).or_insert(a.terms.len());
            if old != a.terms.len() {
                errors.push(ProgramError::ArityMismatch {
                    pred: a.pred.to_string(),
                    arities: (old, a.terms.len()),
                });
            }
        };
        for r in &self.rules {
            check_arity(&r.head, &mut errors);
            for l in &r.body {
                check_arity(&l.atom, &mut errors);
            }
        }
        for fa in &self.facts {
            check_arity(fa, &mut errors);
        }

        for r in &self.rules {
            if crate::builtin::Builtin::of(r.head.predicate()).is_some() {
                errors.push(ProgramError::BuiltinHead {
                    rule: r.to_string(),
                });
            }
            let bad = r.unsafe_vars();
            if !bad.is_empty() {
                errors.push(ProgramError::UnsafeRule {
                    rule: r.to_string(),
                    vars: bad,
                });
            }
        }
        for fa in &self.facts {
            if !fa.is_ground() {
                errors.push(ProgramError::NonGroundFact {
                    fact: fa.to_string(),
                });
            }
            if crate::builtin::Builtin::of(fa.predicate()).is_some() {
                errors.push(ProgramError::BuiltinHead {
                    rule: fa.to_string(),
                });
            }
        }

        // Inline facts for IDB predicates are legal Datalog: they are
        // body-less rules (`normalize`). Rule heads over a caller-declared
        // extensional set are checked by `validate_with_edb`.
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Like [`Program::validate`], additionally checking that no rule head is
    /// in the caller-declared extensional set `edb`.
    pub fn validate_with_edb(&self, edb: &FxHashSet<Predicate>) -> Result<(), Vec<ProgramError>> {
        let mut errors = match self.validate() {
            Ok(()) => Vec::new(),
            Err(e) => e,
        };
        for r in &self.rules {
            let p = r.head.predicate();
            if edb.contains(&p) {
                errors.push(ProgramError::EdbHead {
                    pred: p.to_string(),
                    rule: r.to_string(),
                });
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// True iff no rule body contains a negative literal.
    pub fn is_definite(&self) -> bool {
        self.rules
            .iter()
            .all(|r| r.body.iter().all(|l| l.is_positive()))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for fa in &self.facts {
            writeln!(f, "{fa}.")?;
        }
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::atom;
    use crate::literal::Literal;
    use crate::term::Term;

    fn ancestor_program() -> Program {
        Program {
            rules: vec![
                Rule::new(
                    atom("anc", [Term::var("X"), Term::var("Y")]),
                    vec![Literal::pos(atom("par", [Term::var("X"), Term::var("Y")]))],
                ),
                Rule::new(
                    atom("anc", [Term::var("X"), Term::var("Y")]),
                    vec![
                        Literal::pos(atom("par", [Term::var("X"), Term::var("Z")])),
                        Literal::pos(atom("anc", [Term::var("Z"), Term::var("Y")])),
                    ],
                ),
            ],
            facts: vec![atom("par", [Term::sym("a"), Term::sym("b")])],
        }
    }

    #[test]
    fn idb_edb_classification() {
        let p = ancestor_program();
        assert!(p.is_idb(Predicate::new("anc", 2)));
        assert!(!p.is_idb(Predicate::new("par", 2)));
        assert!(p.edb_predicates().contains(&Predicate::new("par", 2)));
        assert!(p.idb_predicates().contains(&Predicate::new("anc", 2)));
    }

    #[test]
    fn valid_program_passes() {
        assert!(ancestor_program().validate().is_ok());
    }

    #[test]
    fn unsafe_rule_is_reported() {
        let p = Program::from_rules(vec![Rule::new(
            atom("p", [Term::var("X")]),
            vec![Literal::neg(atom("q", [Term::var("X")]))],
        )]);
        let errs = p.validate().unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(matches!(errs[0], ProgramError::UnsafeRule { .. }));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let p = Program::from_rules(vec![Rule::new(
            atom("p", [Term::var("X")]),
            vec![
                Literal::pos(atom("q", [Term::var("X")])),
                Literal::pos(atom("q", [Term::var("X"), Term::var("X")])),
            ],
        )]);
        let errs = p.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ProgramError::ArityMismatch { .. })));
    }

    #[test]
    fn non_ground_fact_is_reported() {
        let mut p = Program::new();
        p.facts.push(atom("par", [Term::var("X"), Term::sym("b")]));
        let errs = p.validate().unwrap_err();
        assert!(matches!(errs[0], ProgramError::NonGroundFact { .. }));
    }

    #[test]
    fn edb_head_is_reported_with_declared_edb() {
        let p = ancestor_program();
        let mut edb = FxHashSet::default();
        edb.insert(Predicate::new("anc", 2));
        let errs = p.validate_with_edb(&edb).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ProgramError::EdbHead { .. })));
    }

    #[test]
    fn intensional_facts_normalize_to_body_less_rules() {
        let mut p = ancestor_program();
        let loop_fact = atom("anc", [Term::sym("z"), Term::sym("z")]);
        p.facts.push(loop_fact.clone());
        let normalized = p.normalized().into_owned();
        assert_eq!(normalized.facts, ancestor_program().facts, "EDB rows stay");
        assert_eq!(normalized.rules.len(), 3);
        assert_eq!(normalized.rules[2], Rule::new(loop_fact, Vec::new()));
        assert_eq!(normalized.idb_predicates(), p.idb_predicates());
        assert!(normalized.validate().is_ok());
        // Nothing left to move: borrowed back, and `normalize` is a no-op.
        assert!(matches!(normalized.normalized(), Cow::Borrowed(_)));
        let mut again = normalized.clone();
        again.normalize();
        assert_eq!(again, normalized);
    }

    #[test]
    fn definiteness() {
        assert!(ancestor_program().is_definite());
        let p = Program::from_rules(vec![Rule::new(
            atom("p", [Term::var("X")]),
            vec![
                Literal::pos(atom("q", [Term::var("X")])),
                Literal::neg(atom("r", [Term::var("X")])),
            ],
        )]);
        assert!(!p.is_definite());
    }
}
