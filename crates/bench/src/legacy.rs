//! The pre-arena evaluation engine: the workspace's one reference
//! implementation, and experiment F6's "before" side.
//!
//! This is a faithful copy of the storage layer and semi-naive loop the
//! workspace shipped before the arena rewrite: relations keep each tuple as
//! a boxed slice plus a hash-map entry keyed by a clone of it, indexes map
//! materialised `Vec<Const>` projections to posting lists, every probe
//! allocates its key, every firing allocates its head tuple, and each
//! round's delta is a separate database whose indexes are rebuilt from
//! scratch. It compiles rules through the *current* `compile_rule`, so both
//! engines evaluate literals in the same order and their firing, probe and
//! duplicate counters must agree exactly — F6 asserts that before trusting
//! the throughput comparison.
//!
//! Beyond that shared rule compilation it has nothing in common with the
//! arena engine: its own storage, its own indexes, its own tuple-at-a-time
//! `descend`. That independence is why it is the differential oracle for
//! the blocked executor (`alexander_eval::exec`, the only join kernel the
//! product runs): `tests/random_programs.rs` asserts model *and* counter
//! equality against it on random programs across rewriting strategies,
//! thread counts and budgets, and F6 asserts the same before timing.
//!
//! Nothing outside F6 and that differential test should use this module.

use alexander_eval::join::{AtomPat, CompiledRule, Pat};
use alexander_eval::{compile_rule, EvalMetrics};
use alexander_ir::{Const, FxHashMap, Polarity, Predicate, Program};
use alexander_storage::{Database, Mask};

/// A stored row in the legacy layout: boxed on its own, hashed and compared
/// as a slice.
type BoxedRow = Box<[Const]>;

/// The constants of `row` at `columns` (an index key, materialised).
fn project(row: &[Const], columns: &[usize]) -> Vec<Const> {
    columns.iter().map(|&c| row[c]).collect()
}

/// `pat` instantiated under a partial binding array; `None` if any slot is
/// unbound.
fn instantiate(pat: &AtomPat, bind: &[Option<Const>]) -> Option<BoxedRow> {
    pat.args
        .iter()
        .map(|p| match p {
            Pat::Const(c) => Some(*c),
            Pat::Var(v) => bind[*v as usize],
        })
        .collect()
}

/// One secondary index: key = constants at the mask's columns, value = ids
/// of matching tuples (the boxed-key scheme the arena rewrite replaced).
#[derive(Clone, Default)]
struct Index {
    columns: Vec<usize>,
    map: FxHashMap<Vec<Const>, Vec<u32>>,
}

/// A stored relation in the legacy layout: tuples in insertion order, a
/// hash map over cloned tuples for duplicate detection, and lazily built
/// boxed-key indexes maintained incrementally on insert.
#[derive(Clone, Default)]
pub struct LegacyRelation {
    by_id: Vec<BoxedRow>,
    ids: FxHashMap<BoxedRow, u32>,
    indexes: FxHashMap<Mask, Index>,
}

impl LegacyRelation {
    fn len(&self) -> usize {
        self.by_id.len()
    }

    fn insert(&mut self, t: BoxedRow) -> bool {
        if self.ids.contains_key(&t) {
            return false;
        }
        let id = u32::try_from(self.by_id.len()).expect("relation overflow");
        for index in self.indexes.values_mut() {
            let key = project(&t, &index.columns);
            index.map.entry(key).or_default().push(id);
        }
        self.ids.insert(t.clone(), id);
        self.by_id.push(t);
        true
    }

    fn contains(&self, t: &[Const]) -> bool {
        self.ids.contains_key(t)
    }

    fn ensure_index(&mut self, mask: Mask) {
        if self.indexes.contains_key(&mask) {
            return;
        }
        let columns: Vec<usize> = mask.columns().collect();
        let mut map: FxHashMap<Vec<Const>, Vec<u32>> = FxHashMap::default();
        for (id, t) in self.by_id.iter().enumerate() {
            map.entry(project(t, &columns)).or_default().push(id as u32);
        }
        self.indexes.insert(mask, Index { columns, map });
    }

    /// Probes the index for `mask`/`key`; `(candidates, indexed)`. Without
    /// an index the whole relation is the candidate list, as in the old
    /// fallback scan.
    fn probe(&self, mask: Mask, key: &[Const]) -> (&[u32], bool) {
        match self.indexes.get(&mask) {
            Some(index) => (
                index.map.get(key).map_or(&[][..], |ids| ids.as_slice()),
                true,
            ),
            None => (&[], false),
        }
    }
}

/// A database of legacy relations.
#[derive(Clone, Default)]
pub struct LegacyDb {
    relations: FxHashMap<Predicate, LegacyRelation>,
}

impl LegacyDb {
    /// Copies an arena database into the legacy layout (boxing every row).
    pub fn from_database(db: &Database) -> LegacyDb {
        let mut out = LegacyDb::default();
        for (pred, rel) in db.iter() {
            for row in rel.iter() {
                out.insert(pred, row.into());
            }
        }
        out
    }

    fn insert(&mut self, pred: Predicate, t: BoxedRow) -> bool {
        self.relations.entry(pred).or_default().insert(t)
    }

    fn relation(&self, pred: Predicate) -> Option<&LegacyRelation> {
        self.relations.get(&pred)
    }

    fn contains(&self, pred: Predicate, t: &[Const]) -> bool {
        self.relation(pred).is_some_and(|r| r.contains(t))
    }

    fn len_of(&self, pred: Predicate) -> usize {
        self.relation(pred).map_or(0, LegacyRelation::len)
    }

    /// Total stored tuples.
    pub fn total_tuples(&self) -> u64 {
        self.relations.values().map(|r| r.len() as u64).sum()
    }

    /// Every stored `(predicate, row)` pair, for differential tests that
    /// compare this engine's model against the arena engine's.
    pub fn iter(&self) -> impl Iterator<Item = (Predicate, &[Const])> {
        self.relations
            .iter()
            .flat_map(|(&p, r)| r.by_id.iter().map(move |t| (p, &t[..])))
    }

    fn ensure_index(&mut self, pred: Predicate, mask: Mask) {
        self.relations.entry(pred).or_default().ensure_index(mask);
    }

    fn merge(&mut self, other: &LegacyDb) {
        for (&pred, rel) in &other.relations {
            for t in &rel.by_id {
                self.insert(pred, t.clone());
            }
        }
    }
}

fn ensure_rule_indexes(rule: &CompiledRule, db: &mut LegacyDb) {
    for lit in &rule.body {
        if lit.polarity == Polarity::Positive && !lit.mask.is_empty() {
            db.ensure_index(lit.atom.pred, lit.mask);
        }
    }
}

/// The legacy nested-loop join: allocates a key vector per probe and a head
/// tuple per firing, exactly as the pre-arena kernel did.
#[allow(clippy::too_many_arguments)]
fn descend(
    rule: &CompiledRule,
    total: &LegacyDb,
    delta: Option<(usize, &LegacyDb)>,
    depth: usize,
    bind: &mut Vec<Option<Const>>,
    metrics: &mut EvalMetrics,
    emit: &mut dyn FnMut(BoxedRow, &mut EvalMetrics),
) {
    if depth == rule.body.len() {
        let head = instantiate(&rule.head, bind)
            .expect("safety guarantees a ground head after a full body match");
        emit(head, metrics);
        return;
    }

    let lit = &rule.body[depth];

    if let Some(b) = alexander_ir::Builtin::of(lit.atom.pred) {
        let t = instantiate(&lit.atom, bind).expect("ordering guarantees ground built-ins");
        metrics.probes += 1;
        let holds = b.eval(t[0], t[1]);
        if holds == (lit.polarity == Polarity::Positive) {
            descend(rule, total, delta, depth + 1, bind, metrics, emit);
        }
        return;
    }

    match lit.polarity {
        Polarity::Negative => {
            let t =
                instantiate(&lit.atom, bind).expect("ordering guarantees ground negative literals");
            metrics.probes += 1;
            if !total.contains(lit.atom.pred, &t) {
                descend(rule, total, delta, depth + 1, bind, metrics, emit);
            }
        }
        Polarity::Positive => {
            let db = match delta {
                Some((d, delta_db)) if d == depth => delta_db,
                _ => total,
            };
            let Some(relation) = db.relation(lit.atom.pred) else {
                return;
            };
            metrics.probes += 1;
            let match_candidate =
                |t: &[Const],
                 bind: &mut Vec<Option<Const>>,
                 metrics: &mut EvalMetrics,
                 emit: &mut dyn FnMut(BoxedRow, &mut EvalMetrics)| {
                    let mut trail: Vec<u32> = Vec::new();
                    let mut ok = true;
                    for (i, p) in lit.atom.args.iter().enumerate() {
                        match p {
                            Pat::Const(c) => {
                                if t[i] != *c {
                                    ok = false;
                                    break;
                                }
                            }
                            Pat::Var(v) => {
                                let v = *v as usize;
                                match bind[v] {
                                    Some(c) => {
                                        if t[i] != c {
                                            ok = false;
                                            break;
                                        }
                                    }
                                    None => {
                                        bind[v] = Some(t[i]);
                                        trail.push(v as u32);
                                    }
                                }
                            }
                        }
                    }
                    if ok {
                        descend(rule, total, delta, depth + 1, bind, metrics, emit);
                    }
                    for &v in &trail {
                        bind[v as usize] = None;
                    }
                };
            if lit.mask.is_empty() || !relation.indexes.contains_key(&lit.mask) {
                // Fallback scan: the whole relation is enumerated and that
                // cost is what `tuples_considered` measures.
                metrics.tuples_considered += relation.len() as u64;
                for id in 0..relation.by_id.len() {
                    match_candidate(&relation.by_id[id], bind, metrics, emit);
                }
            } else {
                // Indexed probe: project the bound positions into a fresh
                // key vector (the allocation the arena kernel eliminated).
                let cols: Vec<usize> = lit.mask.columns().collect();
                let key: Vec<Const> = cols
                    .iter()
                    .map(|&c| match lit.atom.args[c] {
                        Pat::Const(k) => k,
                        Pat::Var(v) => bind[v as usize].expect("masked position is bound"),
                    })
                    .collect();
                let (candidates, _) = relation.probe(lit.mask, &key);
                for &id in candidates {
                    metrics.tuples_considered += 1;
                    match_candidate(&relation.by_id[id as usize], bind, metrics, emit);
                }
            }
        }
    }
}

/// The result of a legacy run.
pub struct LegacyResult {
    pub db: LegacyDb,
    pub metrics: EvalMetrics,
}

/// Semi-naive evaluation with the legacy storage layout: per-round delta
/// databases, index rebuilds on every fresh delta, boxed tuples throughout.
/// Sequential only (the comparison pins the single-thread kernels against
/// each other).
pub fn eval_seminaive_legacy(program: &Program, edb: &Database) -> LegacyResult {
    program.validate().expect("benchmark programs are valid");
    let compiled: Vec<CompiledRule> = program
        .rules
        .iter()
        .map(|r| compile_rule(r).expect("benchmark rules are orderable"))
        .collect();
    let mut derived: Vec<Predicate> = compiled.iter().map(|r| r.head.pred).collect();
    derived.sort();
    derived.dedup();

    let mut db = LegacyDb::from_database(edb);
    for f in &program.facts {
        let t = f.ground_args().expect("validated facts are ground");
        db.insert(f.predicate(), t.into());
    }

    let mut metrics = EvalMetrics::default();

    // Round 0: full join over the seed database.
    metrics.iterations += 1;
    for r in &compiled {
        ensure_rule_indexes(r, &mut db);
    }
    let mut delta = LegacyDb::default();
    for rule in &compiled {
        run_task(rule, None, &db, &mut delta, &mut metrics);
    }
    db.merge(&delta);

    // Delta rounds: each fresh delta database gets its indexes rebuilt
    // before the round's variants run — the per-round cost the arena
    // engine's range deltas avoid.
    while delta.total_tuples() > 0 {
        metrics.iterations += 1;
        let mut next = LegacyDb::default();
        for r in &compiled {
            ensure_rule_indexes(r, &mut db);
            ensure_rule_indexes(r, &mut delta);
        }
        for rule in &compiled {
            for (i, lit) in rule.body.iter().enumerate() {
                if lit.polarity == Polarity::Positive
                    && derived.binary_search(&lit.atom.pred).is_ok()
                    && delta.len_of(lit.atom.pred) > 0
                {
                    run_task(rule, Some((i, &delta)), &db, &mut next, &mut metrics);
                }
            }
        }
        db.merge(&next);
        delta = next;
    }

    LegacyResult { db, metrics }
}

fn run_task(
    rule: &CompiledRule,
    delta: Option<(usize, &LegacyDb)>,
    db: &LegacyDb,
    staged: &mut LegacyDb,
    metrics: &mut EvalMetrics,
) {
    let mut bind: Vec<Option<Const>> = vec![None; rule.nvars];
    descend(
        rule,
        db,
        delta,
        0,
        &mut bind,
        metrics,
        &mut |head, metrics| {
            metrics.firings += 1;
            let pred = rule.head.pred;
            if db.contains(pred, &head) || !staged.insert(pred, head) {
                metrics.duplicate_facts += 1;
            } else {
                metrics.new_facts += 1;
            }
        },
    );
}
