//! The front end the top-down engines share: one validation, one clause
//! table, one extensional store, one error type, one clause compiler for
//! OLDT, QSQR and SLD, and one report of the tabled engines' tables.
//!
//! Inline facts are read the way every strategy reads them
//! ([`Program::normalize`]): a fact of an intensional predicate is a
//! body-less clause of that predicate, resolved like any rule, and a fact of
//! an extensional predicate is a row of the store. Negation is each engine's
//! own business; `Clauses::negated_idb` is where its check starts.
//!
//! The compiler reads each clause once per call *pattern* reachable from
//! the query (a predicate and, per argument, a constant or the call's
//! `k`-th free class): the body in SIP order, variables and constants as
//! dense slots, head unification as slot loads and checks. The engines
//! differ in control (OLDT suspends, QSQR restarts, SLD re-resolves), not
//! in how a clause is read; the one thing they number differently is a
//! callee's free positions ([`Tabling`]).

use alexander_eval::order_body;
use alexander_ir::analysis::NotStratified;
use alexander_ir::{
    Atom, Builtin, Const, FxHashMap, FxHashSet, Polarity, Predicate, Program, Rule, Term,
};
use alexander_storage::{row_atom, Database, Mask, Relation};
use alexander_transform::sip_order;
use std::fmt;
use std::ops::Range;

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

/// How an engine numbers a call's free positions: the one place the
/// compiled forms of OLDT and QSQR differ.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Tabling {
    /// OLDT tables *variant* calls: a repeated variable shares its `k`.
    /// SLD, which tables nothing, calls the same patterns.
    Variant,
    /// QSQR tables *adornments*: every free position is its own `k`, and a
    /// repeat is checked when an answer is consumed (`Args::repeats`).
    Adornment,
}

impl Tabling {
    /// The shape of a call from each argument's free class (`None` where the
    /// argument is bound).
    fn shape<T: PartialEq>(self, args: impl IntoIterator<Item = Option<T>>) -> Shape {
        let mut seen: Vec<T> = Vec::new();
        let mut number = |class: T| {
            let shared = seen.iter().position(|s| *s == class);
            let k = shared
                .filter(|_| self == Tabling::Variant)
                .unwrap_or_else(|| {
                    seen.push(class);
                    seen.len() - 1
                });
            k as u32
        };
        args.into_iter().map(|a| a.map(&mut number)).collect()
    }
}

/// Per argument of a call: `None` for a constant, `Some(k)` for its `k`-th
/// free class. A predicate and a shape are a call *pattern*.
pub(crate) type Shape = Vec<Option<u32>>;

/// A call table as a tabled engine reports it: one call and the answer
/// rows it derived. OLDT reports one per variant call, QSQR one per input
/// of an adorned predicate; where no call repeats a variable the two are
/// the same calls, and their reports hold equal tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallTable {
    pub pred: Predicate,
    /// Per argument: `None` where the call passes a constant, `Some(k)`
    /// where it passes its `k`-th free class (under OLDT a repeated
    /// variable shares its `k`; under QSQR every free argument has its own).
    pub shape: Vec<Option<u32>>,
    /// The call's constants, in argument order.
    pub key: Vec<Const>,
    /// The answers, as full rows of `pred`.
    pub answers: Relation,
}

/// A literal's slots as its goal reads them: `key` at its bound positions;
/// `binds`, the `(column, slot)` of each free slot's first occurrence;
/// `repeats`, each later occurrence's `(column, first column)`.
#[derive(Default)]
pub(crate) struct Args {
    pub key: Vec<usize>,
    binds: Vec<(usize, usize)>,
    repeats: Vec<(usize, usize)>,
}

impl Args {
    /// Binds the free slots from `row` (a fact or an answer) unless `row`
    /// breaks a repeat; returns whether it bound them.
    pub(crate) fn bind(&self, row: &[Const], slots: &mut [Const]) -> bool {
        let fits = self.repeats.iter().all(|&(c, first)| row[c] == row[first]);
        if fits {
            self.binds.iter().for_each(|&(c, s)| slots[s] = row[c]);
        }
        fits
    }
}

/// A body literal, compiled for the slots bound when it is selected. A
/// negated literal is ground, so its key is the whole row.
pub(crate) enum Goal {
    /// A built-in over two bound slots; passes when it yields the bool.
    Test(Builtin, [usize; 2], bool),
    /// An extensional literal, probed on the mask's columns.
    Edb(Predicate, Mask, Args, Polarity),
    /// An intensional literal: a call of the given pattern.
    Call(usize, Args, Polarity),
    /// A negation or built-in selected while non-ground: an error if reached.
    NonGround(String),
}

/// A clause compiled for one call pattern: every variable class and every
/// constant of the rule is a slot.
pub(crate) struct Clause {
    /// The slots before head unification, constants in place.
    init: Vec<Const>,
    /// Per constant of the call, in order: `(slot, load)` stores it in the
    /// slot when `load`, else checks that the slot holds it.
    unify: Vec<(usize, bool)>,
    pub body: Vec<Goal>,
    /// The slots of the answer row.
    pub head: Vec<usize>,
}

impl Clause {
    /// The slots with the head unified with a call's constants `key`, or
    /// `None` if they clash.
    pub(crate) fn bind(&self, key: &[Const]) -> Option<Vec<Const>> {
        let mut slots = self.init.clone();
        let unifies = self.unify.iter().zip(key).all(|(&(s, load), &k)| {
            if load {
                slots[s] = k;
            }
            slots[s] == k
        });
        unifies.then_some(slots)
    }
}

/// The patterns reachable from the query's (pattern 0), each with its
/// clauses compiled: pattern `p`'s are `clauses[patterns[p].2]`.
pub(crate) struct Code {
    pub patterns: Vec<(Predicate, Shape, Range<usize>)>,
    pub clauses: Vec<Clause>,
}

impl Code {
    /// Compiles every clause for every pattern reachable from `query`, then
    /// indexes the probed columns in `front`'s private store (copy-on-write:
    /// the caller's database is never touched).
    pub(crate) fn compile(front: &mut Clauses, query: &Atom, tabling: Tabling, sip: bool) -> Code {
        let shape = tabling.shape(query.terms.iter().map(|t| t.as_var()));
        let mut code = Code {
            patterns: vec![(query.predicate(), shape, 0..0)],
            clauses: Vec::new(),
        };
        let mut p = 0;
        while let Some((pred, shape, _)) = code.patterns.get(p).cloned() {
            let start = code.clauses.len();
            for rule in front.by_pred.get(&pred).into_iter().flatten() {
                let clause = code.clause(front, tabling, sip, rule, &shape);
                code.clauses.extend(clause);
            }
            code.patterns[p].2 = start..code.clauses.len();
            p += 1;
        }
        for goal in code.clauses.iter().flat_map(|c| &c.body) {
            if let Goal::Edb(pred, mask, _, Polarity::Positive) = goal {
                front.edb.ensure_index(*pred, *mask);
            }
        }
        code
    }

    fn pattern(&mut self, pred: Predicate, shape: Shape) -> usize {
        let known = self
            .patterns
            .iter()
            .position(|p| (p.0, &p.1) == (pred, &shape));
        known.unwrap_or_else(|| {
            self.patterns.push((pred, shape, 0..0));
            self.patterns.len() - 1
        })
    }

    /// `rule` compiled for calls of `shape`; `None` if none unifies with it.
    fn clause(
        &mut self,
        front: &Clauses,
        tabling: Tabling,
        sip: bool,
        rule: &Rule,
        shape: &Shape,
    ) -> Option<Clause> {
        // Slots: the rule's variables, then its constants. The head terms a
        // repeated call variable meets share a slot; two constants clash.
        let vars = rule.vars();
        let atoms = std::iter::once(&rule.head).chain(rule.body.iter().map(|l| &l.atom));
        let consts: Vec<Const> = atoms
            .flat_map(|a| &a.terms)
            .filter_map(|t| t.as_const())
            .collect();
        let n = vars.len();
        let index = |t: &Term| match *t {
            Term::Var(v) => vars.iter().position(|&w| w == v).expect("a rule variable"),
            Term::Const(c) => n + consts.iter().position(|&d| d == c).expect("a constant"),
        };
        let head: Vec<usize> = rule.head.terms.iter().map(index).collect();
        let mut slot: Vec<usize> = (0..n + consts.len()).collect();
        for (i, k) in shape.iter().enumerate().filter(|(_, k)| k.is_some()) {
            let j = shape.iter().position(|b| b == k).expect("k occurs at i");
            let (a, b) = (slot[head[i]], slot[head[j]]);
            if a >= n && b >= n && a != b {
                return None;
            }
            let (from, to) = if a >= n { (b, a) } else { (a, b) };
            slot.iter_mut()
                .filter(|s| **s == from)
                .for_each(|s| *s = to);
        }
        let arg = |t: &Term| slot[index(t)];
        let mut bound: Vec<bool> = (0..slot.len()).map(|s| s >= n).collect();
        let mut unify = Vec::new();
        for i in (0..shape.len()).filter(|&i| shape[i].is_none()) {
            unify.push((slot[head[i]], !bound[slot[head[i]]]));
            bound[slot[head[i]]] = true;
        }
        let head_bound = vars.iter().copied().filter(|&v| bound[arg(&Term::Var(v))]);
        // Off, positives keep their textual order; a body no order can
        // ground stays textual and fails when its negation is reached.
        let body = match sip {
            true => sip_order(&rule.body, &head_bound.collect()),
            false => {
                order_body(&rule.body, head_bound.collect()).unwrap_or_else(|| rule.body.clone())
            }
        };

        let mut goals = Vec::with_capacity(body.len());
        for lit in &body {
            let (pred, positive) = (lit.atom.predicate(), lit.polarity == Polarity::Positive);
            let slots: Vec<usize> = lit.atom.terms.iter().map(arg).collect();
            let call = tabling.shape(slots.iter().map(|&s| (!bound[s]).then_some(s)));
            let mut args = Args::default();
            for (col, &s) in slots.iter().enumerate() {
                let first = args.binds.iter().position(|&(_, t)| t == s);
                match (bound[s], first) {
                    (true, _) => args.key.push(s),
                    (false, Some(k)) => args.repeats.push((col, args.binds[k].0)),
                    (false, None) => args.binds.push((col, s)),
                }
            }
            args.binds.iter().for_each(|&(_, s)| bound[s] = true);
            let builtin = Builtin::of(pred);
            let goal = if !args.binds.is_empty() && (!positive || builtin.is_some()) {
                Goal::NonGround(lit.atom.to_string())
            } else if let Some(b) = builtin {
                Goal::Test(b, [args.key[0], args.key[1]], positive)
            } else if front.idb.contains(&pred) {
                Goal::Call(self.pattern(pred, call), args, lit.polarity)
            } else {
                let cols: Vec<usize> = (0..call.len()).filter(|&c| call[c].is_none()).collect();
                Goal::Edb(pred, Mask::of_columns(&cols), args, lit.polarity)
            };
            goals.push(goal);
        }
        Some(Clause {
            init: vars.iter().map(|_| Const::Int(0)).chain(consts).collect(),
            unify,
            body: goals,
            head: head.iter().map(|&h| slot[h]).collect(),
        })
    }
}

/// The values `slots` holds at the slots `of`.
pub(crate) fn values(slots: &[Const], of: &[usize]) -> Vec<Const> {
    of.iter().map(|&s| slots[s]).collect()
}

/// Each table as `call=answers`, its call in the canonical text the golden
/// pins were written in (`_C<k>` at the `k`-th free class, the constants
/// elsewhere), sorted by that text.
#[cfg(test)]
pub(crate) fn canonical(tables: &[CallTable]) -> Vec<String> {
    let mut calls: Vec<(String, usize)> = (tables.iter())
        .map(|t| {
            let mut key = t.key.iter();
            let mut term = |a: &Option<u32>| match a {
                Some(k) => Term::Var(alexander_ir::Var::new(&format!("_C{k}"))),
                None => Term::Const(*key.next().expect("a constant per bound position")),
            };
            let terms = t.shape.iter().map(&mut term).collect();
            let call = Atom {
                pred: t.pred.name,
                terms,
            };
            (call.to_string(), t.answers.len())
        })
        .collect();
    calls.sort();
    calls
        .iter()
        .map(|(call, n)| format!("{call}={n}"))
        .collect()
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
