//! A database: one relation per predicate.

use crate::relation::{Mask, Relation};
use alexander_ir::{Atom, Const, FxHashMap, Predicate, Program, Symbol, Term};
use std::fmt;
use std::sync::Arc;

/// A set of named relations. Used for the EDB, for materialised IDB results,
/// and for every fact set of the incremental update path (its staging
/// stores, a batch's victims, DRed's doomed set), which removes from its
/// total with [`Database::remove_rows`].
///
/// Relations are held behind `Arc` with copy-on-write semantics: cloning a
/// database is O(#relations) refcount bumps, and a later mutation copies
/// only the relation it touches (`Arc::make_mut`). Value semantics are
/// unchanged — two clones never observe each other's writes — but an *epoch
/// snapshot* (clone the database, keep reading it while the original keeps
/// committing) costs nothing per row. On the unshared hot path
/// `Arc::make_mut` is a refcount check, not a copy.
#[derive(Clone, Default)]
pub struct Database {
    relations: FxHashMap<Predicate, Arc<Relation>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Loads the EDB rows among the inline facts of `program` into a fresh
    /// database. A fact of an intensional predicate is a body-less rule
    /// ([`Program::normalize`]), not a row, so it is left out.
    pub fn from_program(program: &Program) -> Database {
        let mut db = Database::new();
        for f in &program.normalized().facts {
            // invariant: `Program::validate` rejects non-ground facts, and
            // every caller validates before loading.
            db.insert_atom(f).expect("inline facts are ground");
        }
        db
    }

    /// The first intensional predicate of `program` (in predicate order)
    /// with rows stored here, if any. Derived facts are never stored: every
    /// door that takes a database for a program refuses one that names such
    /// a predicate.
    pub fn intensional_rows(&self, program: &Program) -> Option<Predicate> {
        self.predicates()
            .into_iter()
            .find(|&p| self.len_of(p) > 0 && program.is_idb(p))
    }

    /// The relation for `pred`, if it exists.
    pub fn relation(&self, pred: Predicate) -> Option<&Relation> {
        self.relations.get(&pred).map(Arc::as_ref)
    }

    /// The relation for `pred`, created empty on first access. If the
    /// relation's arena is shared with an epoch clone, it is copied here
    /// first (copy-on-write) so the clone's view stays frozen.
    pub fn relation_mut(&mut self, pred: Predicate) -> &mut Relation {
        Arc::make_mut(
            self.relations
                .entry(pred)
                .or_insert_with(|| Arc::new(Relation::new(pred.arity))),
        )
    }

    /// True iff `self` and `other` share `pred`'s arena physically (epoch
    /// clones share until one side writes). Diagnostic for tests; absent
    /// relations never count as shared.
    pub fn shares_relation(&self, other: &Database, pred: Predicate) -> bool {
        match (self.relations.get(&pred), other.relations.get(&pred)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Inserts a row for `pred`; returns `true` if new. The row is copied
    /// straight into the relation's arena.
    pub fn insert_row(&mut self, pred: Predicate, row: &[Const]) -> bool {
        self.relation_mut(pred).insert_row(row)
    }

    /// [`Database::insert_row`] with a caller-supplied [`hash_row`] digest
    /// (hash once, then membership-check and insert off the same digest).
    ///
    /// [`hash_row`]: alexander_ir::hash_row
    pub fn insert_row_hashed(&mut self, pred: Predicate, h: u64, row: &[Const]) -> bool {
        self.relation_mut(pred).insert_row_hashed(h, row)
    }

    /// [`Relation::push_new_row_hashed`] on `pred`'s relation: appends a row
    /// the caller has already proven absent (e.g. via
    /// [`Database::contains_row_hashed`] with the same digest), skipping the
    /// dedup find that [`Database::insert_row_hashed`] would repeat.
    ///
    /// [`Relation::push_new_row_hashed`]: crate::relation::Relation::push_new_row_hashed
    pub fn push_new_row_hashed(&mut self, pred: Predicate, h: u64, row: &[Const]) {
        self.relation_mut(pred).push_new_row_hashed(h, row);
    }

    /// True iff `pred` stores exactly this row.
    pub fn contains_row(&self, pred: Predicate, row: &[Const]) -> bool {
        self.relations
            .get(&pred)
            .is_some_and(|r| r.contains_row(row))
    }

    /// [`Database::contains_row`] with a caller-supplied [`hash_row`]
    /// digest.
    ///
    /// [`hash_row`]: alexander_ir::hash_row
    pub fn contains_row_hashed(&self, pred: Predicate, h: u64, row: &[Const]) -> bool {
        self.relations
            .get(&pred)
            .is_some_and(|r| r.contains_row_hashed(h, row))
    }

    /// Inserts a ground atom as a fact. Returns `Ok(true)` if new,
    /// `Ok(false)` if duplicate, `Err` if the atom has variables.
    pub fn insert_atom(&mut self, atom: &Atom) -> Result<bool, NonGround> {
        let row = atom
            .ground_args()
            .ok_or_else(|| NonGround(atom.to_string()))?;
        Ok(self.insert_row(atom.predicate(), &row))
    }

    /// True iff the ground atom is stored. Non-ground atoms are never
    /// "contained".
    pub fn contains_atom(&self, atom: &Atom) -> bool {
        atom.ground_args()
            .is_some_and(|row| self.contains_row(atom.predicate(), &row))
    }

    /// Number of tuples for `pred` (0 if absent).
    pub fn len_of(&self, pred: Predicate) -> usize {
        self.relations.get(&pred).map_or(0, |r| r.len())
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Iterates over `(predicate, relation)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Predicate, &Relation)> + '_ {
        self.relations.iter().map(|(&p, r)| (p, r.as_ref()))
    }

    /// The stored predicates, sorted for deterministic output.
    pub fn predicates(&self) -> Vec<Predicate> {
        let mut ps: Vec<Predicate> = self.relations.keys().copied().collect();
        ps.sort();
        ps
    }

    /// All facts of `pred` as ground atoms, in insertion order.
    pub fn atoms_of(&self, pred: Predicate) -> Vec<Atom> {
        self.relations
            .get(&pred)
            .map(|r| r.iter().map(|row| row_atom(pred.name, row)).collect())
            .unwrap_or_default()
    }

    /// The stored rows of `pattern`'s predicate that are instances of it,
    /// without building an atom (see [`Relation::matching`]).
    pub fn matching<'a>(&'a self, pattern: &'a Atom) -> impl Iterator<Item = &'a [Const]> + 'a {
        self.relation(pattern.predicate())
            .into_iter()
            .flat_map(|r| r.matching(&pattern.terms))
    }

    /// Merges every tuple of `other` into `self`; returns the number of new
    /// tuples. Rows are appended to the target arenas in `other`'s
    /// insertion order, so after a semi-naive merge the round's new facts
    /// occupy a contiguous id range per predicate (see [`DeltaSpans`]).
    pub fn merge(&mut self, other: &Database) -> usize {
        let mut added = 0;
        for (p, r) in other.iter() {
            let target = self.relation_mut(p);
            // Reuse the source relation's stored digests: a merge never
            // re-hashes what insertion already hashed.
            for (row, &h) in r.iter().zip(r.row_hashes()) {
                if target.insert_row_hashed(h, row) {
                    added += 1;
                }
            }
        }
        added
    }

    /// Ensures an index on `pred` for `mask`. An absent relation is created
    /// empty and indexed, so later inserts maintain the index. A relation
    /// that already has it is left alone: a clone sharing its arena stays
    /// shared instead of being copied for nothing.
    pub fn ensure_index(&mut self, pred: Predicate, mask: Mask) {
        if self
            .relation(pred)
            .is_some_and(|r| mask.is_empty() || r.has_index(mask))
        {
            return;
        }
        self.relation_mut(pred).ensure_index(mask);
    }

    /// Removes a ground atom; returns whether it was present. Non-ground
    /// atoms are never present.
    pub fn remove_atom(&mut self, atom: &Atom) -> bool {
        atom.ground_args()
            .is_some_and(|row| self.remove_row(atom.predicate(), &row))
    }

    /// Removes one row of `pred`; returns whether it was present. The row
    /// is looked up first, so removing an absent row never copies a
    /// relation shared with an epoch clone.
    pub fn remove_row(&mut self, pred: Predicate, row: &[Const]) -> bool {
        match self.relations.get_mut(&pred) {
            Some(r) if r.contains_row(row) => Arc::make_mut(r).remove_row(row),
            _ => false,
        }
    }

    /// Removes every row of `victims` from the relation of the same
    /// predicate (see [`Relation::remove_rows`]); returns how many were
    /// present.
    pub fn remove_rows(&mut self, victims: &Database) -> usize {
        let mut dropped = 0;
        for (p, v) in victims.iter() {
            if let Some(r) = self.relations.get_mut(&p).filter(|_| !v.is_empty()) {
                dropped += Arc::make_mut(r).remove_rows(v);
            }
        }
        dropped
    }
}

/// The ground atom of predicate name `pred` whose arguments are `row`: the
/// one row-to-atom conversion ([`Atom::ground_args`] is its inverse).
pub fn row_atom(pred: Symbol, row: &[Const]) -> Atom {
    Atom {
        pred,
        terms: row.iter().map(|&c| Term::Const(c)).collect(),
    }
}

/// A semi-naive delta as per-predicate id ranges into the *total* database:
/// after a round's new facts were appended (a fixpoint round's fold, or an
/// update batch's inserts), the round's delta is "ids `[lo, hi)` of each
/// touched relation", not a copied database.
/// Probing a delta literal then reuses the total's indexes (posting lists
/// are id-sorted, so the range restriction is two binary searches) and the
/// per-round delta-index builds of the old representation disappear.
#[derive(Clone, Debug, Default)]
pub struct DeltaSpans {
    spans: FxHashMap<Predicate, (u32, u32)>,
    total: u64,
}

impl DeltaSpans {
    /// Records that `pred`'s rows `[lo, hi)` are delta rows — a fold's
    /// span, `(len before, len after)`. An empty range records nothing.
    pub fn push(&mut self, pred: Predicate, lo: u32, hi: u32) {
        debug_assert!(lo <= hi && !self.spans.contains_key(&pred));
        if lo < hi {
            self.spans.insert(pred, (lo, hi));
            self.total += u64::from(hi - lo);
        }
    }

    /// The id range of `pred`'s delta rows, if it has any.
    #[inline]
    pub fn get(&self, pred: Predicate) -> Option<(u32, u32)> {
        self.spans.get(&pred).copied()
    }

    /// Number of delta rows for `pred`.
    pub fn len_of(&self, pred: Predicate) -> usize {
        self.get(pred).map_or(0, |(lo, hi)| (hi - lo) as usize)
    }

    /// Total delta rows across all predicates.
    pub fn total_tuples(&self) -> u64 {
        self.total
    }

    /// True iff the delta is empty (the fixpoint is reached).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// Error: tried to store a non-ground atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonGround(pub String);

impl fmt::Display for NonGround {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot store non-ground atom `{}`", self.0)
    }
}

impl std::error::Error for NonGround {}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ps = self.predicates();
        ps.truncate(8);
        write!(f, "Database({} tuples; ", self.total_tuples())?;
        for p in ps {
            write!(f, "{p}:{} ", self.len_of(p))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_ir::atom;

    fn syms(names: &[&str]) -> Vec<Const> {
        names.iter().map(|n| Const::sym(n)).collect()
    }

    #[test]
    fn insert_and_contains_atoms() {
        let mut db = Database::new();
        let a = atom("par", [Term::sym("a"), Term::sym("b")]);
        assert_eq!(db.insert_atom(&a), Ok(true));
        assert_eq!(db.insert_atom(&a), Ok(false));
        assert!(db.contains_atom(&a));
        assert!(!db.contains_atom(&atom("par", [Term::sym("b"), Term::sym("a")])));
        assert_eq!(db.len_of(Predicate::new("par", 2)), 1);
    }

    #[test]
    fn non_ground_insert_is_an_error() {
        let mut db = Database::new();
        let a = atom("par", [Term::sym("a"), Term::var("X")]);
        assert!(db.insert_atom(&a).is_err());
        assert!(!db.contains_atom(&a));
    }

    #[test]
    fn same_name_different_arity_are_separate() {
        let mut db = Database::new();
        db.insert_row(Predicate::new("p", 1), &syms(&["a"]));
        db.insert_row(Predicate::new("p", 2), &syms(&["a", "b"]));
        assert_eq!(db.len_of(Predicate::new("p", 1)), 1);
        assert_eq!(db.len_of(Predicate::new("p", 2)), 1);
        assert_eq!(db.total_tuples(), 2);
    }

    #[test]
    fn merge_counts_new_tuples_only() {
        let mut a = Database::new();
        a.insert_row(Predicate::new("e", 1), &syms(&["x"]));
        let mut b = Database::new();
        b.insert_row(Predicate::new("e", 1), &syms(&["x"]));
        b.insert_row(Predicate::new("e", 1), &syms(&["y"]));
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.len_of(Predicate::new("e", 1)), 2);
    }

    #[test]
    fn from_program_loads_inline_facts() {
        let mut p = Program::new();
        p.facts.push(atom("e", [Term::sym("a"), Term::sym("b")]));
        p.facts.push(atom("n", [Term::sym("a")]));
        let db = Database::from_program(&p);
        assert_eq!(db.total_tuples(), 2);
        // `n` defined by a rule: its inline fact is a body-less rule.
        p.rules.push(alexander_ir::Rule::new(
            atom("n", [Term::var("X")]),
            vec![alexander_ir::Literal::pos(atom(
                "e",
                [Term::var("X"), Term::var("Y")],
            ))],
        ));
        let db = Database::from_program(&p);
        assert_eq!(db.total_tuples(), 1);
        assert_eq!(db.len_of(Predicate::new("n", 1)), 0);
    }

    #[test]
    fn delta_spans_track_appended_suffixes() {
        let e = Predicate::new("e", 1);
        let f = Predicate::new("f", 1);
        let mut db = Database::new();
        db.insert_row(e, &syms(&["a"]));
        let mut spans = DeltaSpans::default();
        for (p, new) in [(e, &["b", "c"][..]), (f, &["x"])] {
            let lo = db.len_of(p) as u32;
            for &c in new {
                db.insert_row(p, &syms(&[c]));
            }
            spans.push(p, lo, db.len_of(p) as u32);
        }
        assert_eq!(spans.get(e), Some((1, 3)));
        assert_eq!(spans.get(f), Some((0, 1)));
        assert_eq!(spans.get(Predicate::new("ghost", 1)), None);
        assert_eq!(spans.len_of(e), 2);
        assert_eq!(spans.total_tuples(), 3);
        assert!(!spans.is_empty());
        // The ranged rows are exactly the delta rows, in order.
        let rows: Vec<_> = db.relation(e).unwrap().rows_in(1, 3).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], &syms(&["b"]));
        assert_eq!(DeltaSpans::default().total_tuples(), 0);
    }

    #[test]
    fn clones_share_arenas_until_written() {
        let e = Predicate::new("e", 2);
        let f = Predicate::new("f", 1);
        let mut db = Database::new();
        db.insert_row(e, &syms(&["a", "b"]));
        db.insert_row(f, &syms(&["x"]));

        // An epoch clone is O(#relations): every arena is shared.
        let epoch = db.clone();
        assert!(db.shares_relation(&epoch, e));
        assert!(db.shares_relation(&epoch, f));

        // Writing to one relation copies it — and only it.
        db.insert_row(e, &syms(&["b", "c"]));
        assert!(!db.shares_relation(&epoch, e));
        assert!(
            db.shares_relation(&epoch, f),
            "untouched arena still shared"
        );

        // The epoch's view is frozen at clone time (value semantics).
        assert_eq!(epoch.len_of(e), 1);
        assert_eq!(db.len_of(e), 2);

        // Removal also copies-on-write instead of mutating the shared arena.
        let epoch2 = db.clone();
        assert!(db.remove_atom(&atom("f", [Term::sym("x")])));
        assert_eq!(epoch2.len_of(f), 1);
        assert_eq!(db.len_of(f), 0);
        assert!(!db.shares_relation(&epoch2, f));
    }

    #[test]
    fn removing_an_absent_row_leaves_a_shared_relation_shared() {
        let e = Predicate::new("e", 2);
        let mut db = Database::new();
        db.insert_row(e, &syms(&["a", "b"]));
        let epoch = db.clone();
        assert!(!db.remove_atom(&atom("e", [Term::sym("b"), Term::sym("a")])));
        assert!(!db.remove_row(e, &syms(&["z", "z"])));
        assert!(!db.remove_row(e, &syms(&["a"])), "wrong arity");
        assert!(db.shares_relation(&epoch, e), "a miss copies nothing");
        // Removing a stored row copies the relation, as any write does.
        assert!(db.remove_row(e, &syms(&["a", "b"])));
        assert!(!db.shares_relation(&epoch, e));
        assert_eq!((db.len_of(e), epoch.len_of(e)), (0, 1));
    }

    #[test]
    fn remove_rows_removes_per_predicate_and_counts_hits() {
        let (e, f) = (Predicate::new("e", 1), Predicate::new("f", 1));
        let mut db = Database::new();
        for x in ["a", "b", "c"] {
            db.insert_row(e, &syms(&[x]));
            db.insert_row(f, &syms(&[x]));
        }
        let mut victims = Database::new();
        victims.insert_row(e, &syms(&["a"]));
        victims.insert_row(e, &syms(&["z"])); // absent
        victims.insert_row(f, &syms(&["b"]));
        victims.insert_row(Predicate::new("ghost", 1), &syms(&["a"]));
        assert_eq!(db.remove_rows(&victims), 2);
        assert_eq!((db.len_of(e), db.len_of(f)), (2, 2));
        assert!(!db.contains_row(e, &syms(&["a"])));
        assert!(!db.contains_row(f, &syms(&["b"])));
    }

    #[test]
    fn ensure_index_copies_a_shared_relation_only_to_add_an_index() {
        let e = Predicate::new("e", 2);
        let col0 = Mask::of_columns(&[0]);
        let mut db = Database::new();
        db.insert_row(e, &syms(&["a", "b"]));
        db.ensure_index(e, col0);

        // The clone already carries the index: nothing to build, nothing copied.
        let mut indexed = db.clone();
        indexed.ensure_index(e, col0);
        indexed.ensure_index(e, Mask(0));
        assert!(indexed.shares_relation(&db, e));

        // A missing index still copies, and the other clone keeps its view.
        let col1 = Mask::of_columns(&[1]);
        let mut extended = db.clone();
        extended.ensure_index(e, col1);
        assert!(!extended.shares_relation(&db, e));
        assert!(extended.relation(e).unwrap().has_index(col1));
        assert!(!db.relation(e).unwrap().has_index(col1));
        assert_eq!(db.len_of(e), 1);

        // An absent relation is created, indexed, and maintained on insert.
        let ghost = Predicate::new("ghost", 1);
        db.ensure_index(ghost, col0);
        db.insert_row(ghost, &syms(&["g"]));
        assert_eq!(
            db.relation(ghost)
                .unwrap()
                .probe(col0, &[Const::sym("g")])
                .0
                .count(),
            1
        );
    }

    #[test]
    fn matching_filters_constants_and_repeated_variables() {
        let p = Predicate::new("p", 3);
        let mut db = Database::new();
        for (a, b, c) in [
            ("a", "a", "x"),
            ("a", "b", "x"),
            ("b", "b", "y"),
            ("a", "a", "y"),
        ] {
            db.insert_row(p, &syms(&[a, b, c]));
        }
        let rows = |db: &Database, q: &str| -> Vec<String> {
            let terms: Vec<Term> = q
                .split(',')
                .map(|t| match t {
                    "X" | "Y" => Term::var(t),
                    _ => Term::sym(t),
                })
                .collect();
            let pattern = atom("p", terms);
            db.matching(&pattern)
                .map(|r| row_atom(pattern.pred, r).to_string())
                .collect()
        };
        assert_eq!(
            rows(&db, "X,X,Y"),
            ["p(a, a, x)", "p(b, b, y)", "p(a, a, y)"]
        );
        assert_eq!(
            rows(&db, "a,X,Y"),
            ["p(a, a, x)", "p(a, b, x)", "p(a, a, y)"]
        );
        assert_eq!(rows(&db, "X,X,y"), ["p(b, b, y)", "p(a, a, y)"]);
        assert_eq!(rows(&db, "a,b,x"), ["p(a, b, x)"]);
        assert!(rows(&db, "c,X,Y").is_empty());
        // Absent predicates and wrong arities match nothing.
        assert_eq!(db.matching(&atom("q", [Term::var("X")])).count(), 0);
        let rel = db.relation(p).unwrap();
        assert_eq!(rel.matching(&[Term::var("X")]).count(), 0);
    }

    #[test]
    fn atoms_of_roundtrip() {
        let mut db = Database::new();
        let a = atom("e", [Term::sym("a"), Term::sym("b")]);
        db.insert_atom(&a).unwrap();
        assert_eq!(db.atoms_of(Predicate::new("e", 2)), vec![a]);
        assert!(db.atoms_of(Predicate::new("zzz", 1)).is_empty());
    }
}
