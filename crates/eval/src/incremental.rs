//! Incremental view maintenance: keep a materialised IDB up to date under
//! EDB insertions and deletions without recomputing from scratch.
//!
//! ## Counting where sound, DRed where not
//!
//! The engine classifies head predicates by the SCC decomposition of the
//! dependency graph. A head in a singleton component with no self-loop is
//! **counted**: a fact of it cannot (transitively) support itself, so the
//! engine keeps its exact **firing count** — the number of distinct rule
//! firings currently deriving it — in a map of its own, keyed by row
//! content (content keys survive the id moves that storage removals make).
//! The counts ride the blocked executor's emit path:
//!
//! * **Insertion** runs semi-naive continuation rounds. The delta-position
//!   triangle ([`SideSources::InsertTriangle`]) enumerates each *new* firing
//!   exactly once, so a duplicate emission of a counted head is precisely
//!   "one more derivation of an existing fact": its count goes up instead of
//!   anything being re-derived.
//! * **Deletion** runs the mirrored triangle
//!   ([`SideSources::DeleteTriangle`]): with the victims physically removed
//!   first, each *lost* firing is enumerated exactly once and decrements its
//!   head's count. Only facts whose count reaches zero are retracted and
//!   cascade further — facts with surviving support are never overdeleted,
//!   never rederived, and never touch the join kernel again.
//!
//! Every other head (direct or mutual recursion) is maintained per SCC by
//! **DRed** (delete-and-rederive, Gupta–Mumick–Subrahmanian): its facts are
//! simply present or absent. Rederivation is asked per doomed fact as a
//! *head-seeded* indexed probe ([`crate::exec::exec_plan_seeded`]) instead
//! of a stratum re-join; nothing is remembered between cascades. The
//! choice is made from the SCCs alone; there is no mode to select.
//!
//! An insertion round — materialisation's naive round 0 and every delta
//! round after a batch — stages its derived rows and folds them once, in
//! the same sink and fold as every fixpoint round (`crate::seminaive`);
//! the counts stay here, in the round's emit closure. Every other fact set
//! on the update path — a batch's net inserts and its victims, a counted
//! component's zero-count rows, DRed's doomed set — is a storage
//! [`Database`]: membership tests and removals reuse the row digests the
//! executor already computed, and no fact is re-encoded.
//!
//! ## Batches
//!
//! [`IncrementalEngine::apply_batch`] is the one update entry point: it
//! applies a *mixed* batch of inserts and deletes as a single delete
//! cascade plus a single insertion fixpoint — not N sequential per-fact
//! fixpoints.
//!
//! Restricted to definite programs: deletions under negation flip truth in
//! both directions and need stratified counting, out of scope here.

use crate::error::EvalError;
use crate::exec::{exec_plan, ExecScratch};
use crate::join::{
    compile_rule, ensure_rule_indexes, CompiledRule, DeltaSource, Emitted, JoinInput, SideSources,
};
use crate::metrics::EvalMetrics;
use crate::naive::seed_database;
use crate::plan::{compile_plans, RulePlan};
use crate::provenance::Prover;
use crate::seminaive::{derived_predicates, fold_round, StagingSink};
use alexander_ir::analysis::{tarjan, DepGraph};
use alexander_ir::{Atom, Const, FxHashMap, FxHashSet, Predicate, Program};
use alexander_storage::{Database, DeltaSpans, StagedRows};
use std::ops::ControlFlow;

/// What one mixed update batch did to the database.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BatchOutcome {
    /// Facts added (base and derived).
    pub added: usize,
    /// Facts physically removed during the delete cascade, including the
    /// base facts themselves and any overdeletions later rederived.
    pub overdeleted: usize,
    /// Overdeleted facts restored because an alternative derivation
    /// survived.
    pub rederived: usize,
}

/// One strongly-connected component of the head predicates, with the rules
/// that derive into it. Components are kept in dependencies-first order.
struct SccGroup {
    /// Indices into the program's rule list.
    rules: Vec<usize>,
    /// True when a fact in this component can (transitively) support
    /// itself, so counting is unsound and deletions fall back to DRed.
    recursive: bool,
}

/// Exact firing counts of one counted head predicate's facts, keyed by row
/// content. Its keys are exactly the predicate's stored rows.
type Counts = FxHashMap<Box<[Const]>, u64>;

/// A materialised deductive database that stays consistent under updates.
pub struct IncrementalEngine {
    program: Program,
    compiled: Vec<CompiledRule>,
    /// One executor plan per compiled rule.
    plans: Vec<RulePlan>,
    /// DRed's per-fact rederivation probes.
    prover: Prover,
    /// EDB + all derived facts.
    total: Database,
    /// The extensional predicates (facts the user may insert/delete).
    edb_preds: FxHashSet<Predicate>,
    /// Firing counts of every counted head predicate (and only those).
    counts: FxHashMap<Predicate, Counts>,
    /// SCC groups of the rule set, dependencies first.
    groups: Vec<SccGroup>,
    metrics: EvalMetrics,
}

impl IncrementalEngine {
    /// Materialises `program` over `edb`. An inline fact of an intensional
    /// predicate is a body-less rule ([`Program::normalize`]): it fires
    /// once, so counting holds it at one firing, and DRed's head-seeded
    /// probe rederives it by itself. An `edb` holding rows of an
    /// intensional predicate is refused: derived facts are never stored.
    pub fn new(mut program: Program, edb: Database) -> Result<IncrementalEngine, EvalError> {
        program.validate().map_err(EvalError::Invalid)?;
        program.normalize();
        if let Some(pred) = edb.intensional_rows(&program) {
            return Err(EvalError::IdbUpdate(pred));
        }
        if !program.is_definite() {
            return Err(EvalError::NegatedIdb(
                program
                    .rules
                    .iter()
                    .flat_map(|r| r.body.iter())
                    .find(|l| l.is_negative())
                    .map(|l| l.atom.predicate())
                    // invariant: this branch only runs when the definiteness
                    // check already found a negative literal.
                    .expect("non-definite program has a negative literal"),
            ));
        }
        let compiled: Vec<CompiledRule> = program
            .rules
            .iter()
            .map(|r| compile_rule(r).map_err(EvalError::from))
            .collect::<Result<_, _>>()?;
        let total = seed_database(&program, &edb);
        let mut metrics = EvalMetrics::default();
        let plans: Vec<RulePlan> = compile_plans(&compiled, &mut metrics);
        let prover = Prover::new(&program, &mut metrics)?;
        let mut edb_preds: FxHashSet<Predicate> = edb.predicates().into_iter().collect();
        edb_preds.extend(program.facts.iter().map(|f| f.predicate()));
        let (groups, counts) = classify(&program);
        let mut engine = IncrementalEngine {
            program,
            compiled,
            plans,
            prover,
            total,
            edb_preds,
            counts,
            groups,
            metrics,
        };
        // Initial materialisation: the same counting rounds the insertion
        // path runs, from a naive round 0. Maintenance is not governed:
        // updates are small deltas and a partially-maintained view would be
        // permanently inconsistent.
        engine.insertion_rounds(None);
        // The DRed rederivation probes run head-seeded plans whose index
        // masks differ from the forward joins'. Build them now, while the
        // database is settled — inserts maintain them incrementally from
        // here on — so the first deletion's phase 2 doesn't pay an
        // O(|relation|) index build inside its cascade.
        engine.prover.ensure_indexes(&mut engine.total);
        Ok(engine)
    }

    /// The maintained database (EDB + IDB).
    pub fn db(&self) -> &Database {
        &self.total
    }

    /// The support of a fact: for a counted predicate, the exact number of
    /// distinct rule firings currently deriving it; for any other stored
    /// fact, 1. Zero iff the fact is absent.
    pub fn support_of(&self, fact: &Atom) -> u64 {
        let Some(row) = fact.ground_args() else {
            return 0;
        };
        match self.counts.get(&fact.predicate()) {
            Some(counts) => counts.get(row.as_slice()).copied().unwrap_or(0),
            None => u64::from(self.total.contains_row(fact.predicate(), &row)),
        }
    }

    /// True iff deletions on `pred` are maintained by exact firing counts
    /// (false means the per-SCC DRed fallback owns it).
    pub fn is_counted(&self, pred: Predicate) -> bool {
        self.counts.contains_key(&pred)
    }

    /// A copy of just the extensional store — the base facts from which the
    /// maintained database is derivable. Row hashes are reused from the
    /// maintained arenas rather than recomputed.
    pub fn edb(&self) -> Database {
        let mut out = Database::new();
        for &p in &self.edb_preds {
            let Some(rel) = self.total.relation(p) else {
                continue;
            };
            for (id, &h) in rel.row_hashes().iter().enumerate() {
                out.push_new_row_hashed(p, h, rel.row(id as u32));
            }
        }
        out
    }

    /// Accumulated counters.
    pub fn metrics(&self) -> EvalMetrics {
        self.metrics
    }

    /// The program being maintained.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Applies one mixed batch of updates (`true` = insert, `false` =
    /// delete) to the EDB as a single delete cascade followed by a single
    /// insertion fixpoint. Later operations on the same fact win; the net
    /// effect against the current database decides what actually runs, so
    /// inserting a present fact or deleting an absent one is a no-op. The
    /// batch is validated before anything changes: an intensional or
    /// non-ground fact refuses the whole batch.
    pub fn apply_batch(&mut self, ops: &[(bool, Atom)]) -> Result<BatchOutcome, EvalError> {
        // Netting happens in the two sets the batch runs on: an op on a
        // fact withdraws any earlier op on it from the other set, and lands
        // in its own only if it changes the database.
        let mut removed = Database::new();
        let mut delta = Database::new();
        for (insert, fact) in ops {
            let pred = fact.predicate();
            if self.program.is_idb(pred) {
                return Err(EvalError::IdbUpdate(pred));
            }
            let row = fact.ground_args().ok_or_else(|| {
                EvalError::Invalid(vec![alexander_ir::ProgramError::NonGroundFact {
                    fact: fact.to_string(),
                }])
            })?;
            let present = self.total.contains_row(pred, &row);
            let (set, other) = if *insert {
                (&mut delta, &mut removed)
            } else {
                (&mut removed, &mut delta)
            };
            other.remove_row(pred, &row);
            if present != *insert {
                set.insert_row(pred, &row);
            }
        }
        let mut out = BatchOutcome::default();
        if removed.total_tuples() > 0 {
            out.overdeleted += self.total.remove_rows(&removed);
            let (cascaded, rederived) = self.cascade_deletions(removed);
            out.overdeleted += cascaded;
            out.rederived = rederived;
        }
        if delta.total_tuples() > 0 {
            self.edb_preds
                .extend(delta.iter().filter(|(_, r)| !r.is_empty()).map(|(p, _)| p));
            // Every netted insert is absent from the total: append it, and
            // the appended rows are the first round's delta.
            let mut spans = DeltaSpans::default();
            for (p, rows) in delta.iter() {
                let lo = self.total.len_of(p);
                for (row, &h) in rows.iter().zip(rows.row_hashes()) {
                    self.total.push_new_row_hashed(p, h, row);
                }
                // invariant: relations cap at u32::MAX rows, so the
                // narrowing conversions are lossless.
                spans.push(p, lo as u32, self.total.len_of(p) as u32);
            }
            out.added = spans.total_tuples() as usize + self.insertion_rounds(Some(spans));
        }
        Ok(out)
    }

    /// Insertion rounds until one adds nothing, each staged in a
    /// `StagingSink` and folded once, as every fixpoint round is. `spans`
    /// is the first round's delta; `None` makes that round naive
    /// (materialisation's round 0). Every later round is semi-naive over
    /// the previous fold's spans through [`SideSources::InsertTriangle`],
    /// which enumerates each new firing exactly once, so a repeat emission
    /// of a counted head is exactly one more firing of it: the emit closure
    /// bumps its count and passes only its first firing to the sink.
    /// Returns the number of facts added.
    fn insertion_rounds(&mut self, mut spans: Option<DeltaSpans>) -> usize {
        let derived = derived_predicates(&self.compiled);
        let mut staged: Vec<StagedRows> =
            derived.iter().map(|p| StagedRows::new(p.arity)).collect();
        let mut scratch = ExecScratch::new();
        let mut added = 0u64;
        loop {
            self.metrics.iterations += 1;
            for r in &self.compiled {
                ensure_rule_indexes(r, &mut self.total);
            }
            let mut sink = StagingSink::new(&self.total, &derived, &mut staged, None);
            for (rule, plan) in self.compiled.iter().zip(&self.plans) {
                // invariant: `derived` holds every rule's head predicate.
                let slot = derived
                    .binary_search(&rule.head.pred)
                    .expect("a rule's head is derived");
                let mut counts = self.counts.get_mut(&rule.head.pred);
                let mut emit = |h: u64, row: &[Const]| {
                    if let Some(counts) = counts.as_deref_mut() {
                        if let Some(n) = counts.get_mut(row) {
                            *n += 1;
                            return Emitted::Duplicate;
                        }
                        counts.insert(row.into(), 1);
                    }
                    sink.emit(slot, h, row)
                };
                let mut run = |input: JoinInput<'_>| {
                    let _ = exec_plan(plan, &input, &mut scratch, &mut self.metrics, &mut emit);
                };
                let Some(spans) = &spans else {
                    run(JoinInput::naive(&self.total));
                    continue;
                };
                for (i, lit) in rule.body.iter().enumerate() {
                    if spans.len_of(lit.atom.pred) > 0 {
                        run(JoinInput {
                            total: &self.total,
                            delta: Some((i, DeltaSource::Spans(spans))),
                            sides: Some(SideSources::InsertTriangle),
                            negatives: None,
                            governor: None,
                        });
                    }
                }
            }
            self.metrics.duplicate_facts += sink.dropped;
            let (next, new) = fold_round(&mut self.total, &derived, &mut staged, &mut self.metrics);
            added += new;
            if new == 0 {
                return added as usize;
            }
            spans = Some(next);
        }
    }

    /// Retraction cascade over the SCC groups in dependencies-first order.
    /// `removed` holds the base victims, already removed from the total;
    /// it accumulates every fact the cascade retracts for good, so later
    /// components see the full `old − new` difference of everything below
    /// them. Returns `(facts removed, facts rederived)`.
    fn cascade_deletions(&mut self, mut removed: Database) -> (usize, usize) {
        let mut overdeleted = 0usize;
        let mut rederived = 0usize;
        let mut scratch = ExecScratch::new();
        let groups = std::mem::take(&mut self.groups);
        for group in &groups {
            if group
                .rules
                .iter()
                .all(|&ri| body_misses_removed(&self.compiled[ri], &removed))
            {
                continue;
            }
            if group.recursive {
                let (over, re) = self.dred_group(group, &mut removed, &mut scratch);
                overdeleted += over;
                rederived += re;
            } else {
                overdeleted += self.counted_group(group, &mut removed, &mut scratch);
            }
        }
        self.groups = groups;
        (overdeleted, rederived)
    }

    /// Counted component: one [`SideSources::DeleteTriangle`] pass per
    /// (rule, body position) enumerates every lost firing exactly once and
    /// decrements its head's count; rows whose count reaches zero are
    /// retracted and join the removed set. Facts with surviving support
    /// never touch the join kernel again. Returns facts removed.
    fn counted_group(
        &mut self,
        group: &SccGroup,
        removed: &mut Database,
        scratch: &mut ExecScratch,
    ) -> usize {
        self.metrics.iterations += 1;
        // Only decremented rows can newly hit zero, so collecting them as
        // they do keeps the sweep O(lost firings), not O(|relation|).
        let mut zero = Database::new();
        for &ri in &group.rules {
            let rule = &self.compiled[ri];
            ensure_rule_indexes(rule, &mut self.total);
            ensure_rule_indexes(rule, removed);
            let head = rule.head.pred;
            // invariant: a counted group's heads are counted predicates.
            let counts = self.counts.get_mut(&head).expect("counted head");
            for (i, lit) in rule.body.iter().enumerate() {
                if removed.len_of(lit.atom.pred) == 0 {
                    continue;
                }
                let input = JoinInput {
                    total: &self.total,
                    delta: Some((i, DeltaSource::Db(removed))),
                    sides: Some(SideSources::DeleteTriangle { removed }),
                    negatives: None,
                    governor: None,
                };
                let _ = exec_plan(
                    &self.plans[ri],
                    &input,
                    scratch,
                    &mut self.metrics,
                    &mut |h, row| {
                        // invariant: a lost firing's head was derived over
                        // the old state, so it holds a count of at least
                        // one per lost firing.
                        let n = counts.get_mut(row).expect("lost firing's head is counted");
                        *n -= 1;
                        if *n == 0 {
                            // Its count is gone with it: a row hits zero once.
                            counts.remove(row);
                            zero.push_new_row_hashed(head, h, row);
                        }
                        Emitted::Duplicate
                    },
                );
            }
        }
        let dropped = self.total.remove_rows(&zero);
        removed.merge(&zero);
        dropped
    }

    /// Recursive component: DRed. Phase 1 overdeletes every fact with a
    /// derivation through the removed set, joining non-delta positions
    /// against the *old* total ([`SideSources::OldTotal`]). Phase 2 asks
    /// each doomed fact, individually, whether it still has a derivation,
    /// with a head-seeded indexed probe. Returns `(facts removed, facts
    /// rederived)`.
    fn dred_group(
        &mut self,
        group: &SccGroup,
        removed: &mut Database,
        scratch: &mut ExecScratch,
    ) -> (usize, usize) {
        // ---- Phase 1: overdelete. ----
        let mut doomed = Database::new();
        let mut delta = Database::new();
        let mut first_round = true;
        loop {
            self.metrics.iterations += 1;
            let mut next = Database::new();
            for &ri in &group.rules {
                let rule = &self.compiled[ri];
                ensure_rule_indexes(rule, &mut self.total);
                ensure_rule_indexes(rule, removed);
                ensure_rule_indexes(rule, &mut delta);
                let head = rule.head.pred;
                let source: &Database = if first_round { removed } else { &delta };
                for (i, lit) in rule.body.iter().enumerate() {
                    if source.len_of(lit.atom.pred) == 0 {
                        continue;
                    }
                    let input = JoinInput {
                        total: &self.total,
                        delta: Some((i, DeltaSource::Db(source))),
                        sides: Some(SideSources::OldTotal { removed }),
                        negatives: None,
                        governor: None,
                    };
                    let doomed = &doomed;
                    let _ = exec_plan(
                        &self.plans[ri],
                        &input,
                        scratch,
                        &mut self.metrics,
                        &mut |h, row| {
                            if !doomed.contains_row_hashed(head, h, row)
                                && next.insert_row_hashed(head, h, row)
                            {
                                Emitted::New
                            } else {
                                Emitted::Duplicate
                            }
                        },
                    );
                }
            }
            first_round = false;
            if next.total_tuples() == 0 {
                break;
            }
            doomed.merge(&next);
            delta = next;
        }
        if doomed.total_tuples() == 0 {
            return (0, 0);
        }
        let overdeleted = self.total.remove_rows(&doomed);

        // ---- Phase 2: rederive. ----
        // Passes over the still-doomed facts until a full pass rederives
        // nothing: a fact may only become rederivable after a premise of
        // its alternative derivation came back, so this converges to
        // exactly the facts with support in the new state. A doomed fact
        // is back, in the total, at its first witness.
        let mut rederived = 0usize;
        let mut first = |_: usize, _: &[Const]| ControlFlow::Break(());
        loop {
            self.metrics.iterations += 1;
            self.prover.ensure_indexes(&mut self.total);
            let before = rederived;
            for (p, rel) in doomed.iter() {
                for (row, &h) in rel.iter().zip(rel.row_hashes()) {
                    if !self.total.contains_row_hashed(p, h, row)
                        && self
                            .prover
                            .witnesses(p, row, &self.total, scratch, &mut self.metrics, &mut first)
                            .is_break()
                    {
                        self.metrics.firings += 1;
                        self.total.push_new_row_hashed(p, h, row);
                        rederived += 1;
                        self.metrics.new_facts += 1;
                    }
                }
            }
            if rederived == before {
                break;
            }
        }
        for (p, rel) in doomed.iter() {
            for (row, &h) in rel.iter().zip(rel.row_hashes()) {
                if !self.total.contains_row_hashed(p, h, row) {
                    removed.push_new_row_hashed(p, h, row);
                }
            }
        }
        (overdeleted, rederived)
    }
}

/// True iff none of `rule`'s body predicates has rows in `removed` — the
/// cheap skip that keeps unaffected components out of the cascade entirely.
fn body_misses_removed(rule: &CompiledRule, removed: &Database) -> bool {
    rule.body
        .iter()
        .all(|lit| removed.len_of(lit.atom.pred) == 0)
}

/// SCC decomposition of the head predicates: groups in dependencies-first
/// order, plus an empty count map per counted (non-recursive) predicate.
fn classify(program: &Program) -> (Vec<SccGroup>, FxHashMap<Predicate, Counts>) {
    let graph = DepGraph::build(program);
    let scc = tarjan(graph.len(), &|v| {
        graph.succs[v].iter().map(|&(w, _)| w).collect()
    });
    let mut counts = FxHashMap::default();
    let mut groups = Vec::new();
    // `components` is already reverse topological — dependencies first.
    for comp in &scc.components {
        let preds: Vec<Predicate> = comp.iter().map(|&v| graph.vertices[v]).collect();
        let rules: Vec<usize> = program
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| preds.contains(&r.head.predicate()))
            .map(|(i, _)| i)
            .collect();
        if rules.is_empty() {
            continue; // purely extensional vertex
        }
        let recursive = comp.len() > 1
            || comp
                .iter()
                .any(|&v| graph.succs[v].iter().any(|&(w, _)| w == v));
        if !recursive {
            counts.extend(preds.iter().map(|&p| (p, Counts::default())));
        }
        groups.push(SccGroup { rules, recursive });
    }
    (groups, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seminaive::eval_seminaive;
    use alexander_parser::{parse, parse_atom};
    use alexander_workload as workload;

    fn snapshot(db: &Database) -> Vec<String> {
        let mut out: Vec<String> = db
            .predicates()
            .into_iter()
            .flat_map(|p| db.atoms_of(p))
            .map(|a| a.to_string())
            .collect();
        out.sort();
        out
    }

    fn from_scratch(program: &Program, edb: &Database) -> Vec<String> {
        snapshot(&eval_seminaive(program, edb).unwrap().db)
    }

    fn insert(inc: &mut IncrementalEngine, fact: &Atom) -> usize {
        inc.apply_batch(&[(true, fact.clone())]).unwrap().added
    }

    fn delete(inc: &mut IncrementalEngine, fact: &Atom) -> (usize, usize) {
        let out = inc.apply_batch(&[(false, fact.clone())]).unwrap();
        (out.overdeleted, out.rederived)
    }

    /// Asserts the support invariant: support > 0 iff the fact is stored,
    /// and for counted predicates the support equals the distinct rule
    /// firings over the final database.
    fn check_supports(inc: &IncrementalEngine) {
        let db = inc.db();
        // Expected firing counts per counted head fact, recomputed naively.
        let mut expected: FxHashMap<Atom, u64> = FxHashMap::default();
        let mut scratch = ExecScratch::new();
        let mut metrics = EvalMetrics::default();
        for rule in &inc.program().rules {
            let compiled = compile_rule(rule).unwrap();
            if !inc.is_counted(compiled.head.pred) {
                continue;
            }
            let head = &compiled.head;
            let _ = crate::exec::exec_plan_bindings(
                &crate::plan::compile_plan(&compiled),
                &JoinInput::naive(db),
                &mut scratch,
                &mut metrics,
                &mut |row, _| {
                    *expected.entry(head.ground(row)).or_insert(0) += 1;
                    ControlFlow::Continue(())
                },
            );
        }
        for p in db.predicates() {
            for fact in db.atoms_of(p) {
                let support = inc.support_of(&fact);
                if inc.is_counted(p) {
                    assert_eq!(support, expected[&fact], "{fact}: count drifted");
                } else {
                    assert_eq!(support, 1, "{fact}: a stored fact has support 1");
                }
            }
        }
        for fact in expected.keys() {
            assert!(db.contains_atom(fact), "{fact}: fired but not stored");
        }
    }

    #[test]
    fn insertion_matches_recompute() {
        let program = workload::transitive_closure();
        let mut edb = workload::chain("e", 5);
        let mut inc = IncrementalEngine::new(program.clone(), edb.clone()).unwrap();
        let new_edge = parse_atom("e(n5, n6)").unwrap();
        let added = insert(&mut inc, &new_edge);
        assert!(added > 1, "the new edge extends the closure");
        edb.insert_atom(&new_edge).unwrap();
        assert_eq!(snapshot(inc.db()), from_scratch(&program, &edb));
        check_supports(&inc);
    }

    #[test]
    fn deletion_splits_a_chain() {
        let program = workload::transitive_closure();
        let edb = workload::chain("e", 6);
        let mut inc = IncrementalEngine::new(program.clone(), edb.clone()).unwrap();
        let victim = parse_atom("e(n2, n3)").unwrap();
        let (over, re) = delete(&mut inc, &victim);
        assert!(over > 0);
        assert_eq!(re, 0, "a chain has no alternative derivations");

        let mut edb2 = edb;
        assert!(edb2.remove_atom(&victim));
        assert_eq!(snapshot(inc.db()), from_scratch(&program, &edb2));
        check_supports(&inc);
    }

    #[test]
    fn deletion_with_alternative_paths_rederives() {
        // Diamond: n0->n1->n3 and n0->n2->n3. Deleting one branch must keep
        // tc(n0, n3) via the other.
        let parsed = parse(
            "
            e(n0, n1). e(n1, n3). e(n0, n2). e(n2, n3).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let edb = Database::from_program(&parsed.program);
        let program = Program {
            rules: parsed.program.rules,
            facts: Vec::new(),
        };
        let mut inc = IncrementalEngine::new(program.clone(), edb.clone()).unwrap();
        let victim = parse_atom("e(n1, n3)").unwrap();
        let (over, re) = delete(&mut inc, &victim);
        assert!(over > 0);
        assert!(re > 0, "tc(n0, n3) must be rederived via n2");
        assert!(inc.db().contains_atom(&parse_atom("tc(n0, n3)").unwrap()));
        assert!(!inc.db().contains_atom(&parse_atom("tc(n1, n3)").unwrap()));

        let mut edb2 = edb;
        edb2.remove_atom(&victim);
        assert_eq!(snapshot(inc.db()), from_scratch(&program, &edb2));
    }

    #[test]
    fn delete_returns_the_true_overdeleted_count() {
        // chain n0->n1->n2: deleting e(n1, n2) removes the base fact plus
        // tc(n1, n2) and tc(n0, n2) — three facts, none rederived. The old
        // API under-reported this as 2 by excluding the base fact.
        let program = workload::transitive_closure();
        let edb = workload::chain("e", 2);
        let mut inc = IncrementalEngine::new(program, edb).unwrap();
        let (over, re) = delete(&mut inc, &parse_atom("e(n1, n2)").unwrap());
        assert_eq!((over, re), (3, 0));
    }

    #[test]
    fn counted_predicates_keep_surviving_support() {
        // join(X, Z) has two derivations for (a, c): via b1 and via b2.
        // Deleting one support must decrement, not retract.
        let parsed = parse(
            "
            e(a, b1). e(a, b2). f(b1, c). f(b2, c).
            join(X, Z) :- e(X, Y), f(Y, Z).
        ",
        )
        .unwrap();
        let edb = Database::from_program(&parsed.program);
        let program = Program {
            rules: parsed.program.rules,
            facts: Vec::new(),
        };
        let mut inc = IncrementalEngine::new(program.clone(), edb.clone()).unwrap();
        let j = Predicate::new("join", 2);
        assert!(inc.is_counted(j), "non-recursive head must be counted");
        let fact = parse_atom("join(a, c)").unwrap();
        assert_eq!(inc.support_of(&fact), 2);

        // Drop one branch: the fact survives on the other derivation, and
        // the cascade never overdeletes or rederives it.
        let (over, re) = delete(&mut inc, &parse_atom("e(a, b1)").unwrap());
        assert_eq!((over, re), (1, 0), "only the base fact goes");
        assert_eq!(inc.support_of(&fact), 1);
        assert!(inc.db().contains_atom(&fact));

        // Drop the last branch: now the count hits zero and it retracts.
        let (over, re) = delete(&mut inc, &parse_atom("f(b2, c)").unwrap());
        assert_eq!((over, re), (2, 0));
        assert!(!inc.db().contains_atom(&fact));

        let mut edb2 = edb;
        edb2.remove_atom(&parse_atom("e(a, b1)").unwrap());
        edb2.remove_atom(&parse_atom("f(b2, c)").unwrap());
        assert_eq!(snapshot(inc.db()), from_scratch(&program, &edb2));
        check_supports(&inc);
    }

    #[test]
    fn mixed_batch_applies_as_one_cascade() {
        let program = workload::transitive_closure();
        let mut edb = workload::chain("e", 8);
        let mut inc = IncrementalEngine::new(program.clone(), edb.clone()).unwrap();
        let ops: Vec<(bool, Atom)> = vec![
            (false, parse_atom("e(n3, n4)").unwrap()),
            (true, parse_atom("e(n3, n5)").unwrap()),
            (true, parse_atom("e(n8, n9)").unwrap()),
            (false, parse_atom("e(n0, n1)").unwrap()),
        ];
        let out = inc.apply_batch(&ops).unwrap();
        assert!(out.added > 0 && out.overdeleted > 0);
        for (insert, atom) in &ops {
            if *insert {
                edb.insert_atom(atom).unwrap();
            } else {
                edb.remove_atom(atom);
            }
        }
        assert_eq!(snapshot(inc.db()), from_scratch(&program, &edb));
        check_supports(&inc);
    }

    #[test]
    fn batch_nets_out_conflicting_ops_on_one_fact() {
        let program = workload::transitive_closure();
        let edb = workload::chain("e", 4);
        let mut inc = IncrementalEngine::new(program.clone(), edb.clone()).unwrap();
        // Delete-then-insert of a present fact nets to a no-op; insert-then-
        // delete of an absent fact nets to a no-op.
        let out = inc
            .apply_batch(&[
                (false, parse_atom("e(n1, n2)").unwrap()),
                (true, parse_atom("e(n1, n2)").unwrap()),
                (true, parse_atom("e(n9, n8)").unwrap()),
                (false, parse_atom("e(n9, n8)").unwrap()),
            ])
            .unwrap();
        assert_eq!(out, BatchOutcome::default());
        assert_eq!(snapshot(inc.db()), from_scratch(&program, &edb));
    }

    #[test]
    fn random_update_sequences_match_recompute() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let program = workload::transitive_closure();
        for seed in [1u64, 2, 3] {
            let mut edb = workload::random_graph("e", 10, 25, seed);
            let mut inc = IncrementalEngine::new(program.clone(), edb.clone()).unwrap();
            let mut rng = StdRng::seed_from_u64(seed * 100);
            for step in 0..12 {
                let a = rng.random_range(0..10);
                let b = rng.random_range(0..10);
                if a == b {
                    continue;
                }
                let atom = parse_atom(&format!("e(n{a}, n{b})")).unwrap();
                if step % 2 == 0 {
                    insert(&mut inc, &atom);
                    edb.insert_atom(&atom).unwrap();
                } else {
                    delete(&mut inc, &atom);
                    edb.remove_atom(&atom);
                }
                assert_eq!(
                    snapshot(inc.db()),
                    from_scratch(&program, &edb),
                    "seed {seed} step {step}"
                );
                check_supports(&inc);
            }
        }
    }

    #[test]
    fn cyclic_closure_survives_deletion_correctly() {
        // On a cycle, deleting one edge must shrink the closure exactly.
        let program = workload::transitive_closure();
        let edb = workload::cycle("e", 5);
        let mut inc = IncrementalEngine::new(program.clone(), edb.clone()).unwrap();
        let victim = parse_atom("e(n2, n3)").unwrap();
        delete(&mut inc, &victim);
        let mut edb2 = edb;
        edb2.remove_atom(&victim);
        assert_eq!(snapshot(inc.db()), from_scratch(&program, &edb2));
        check_supports(&inc);
    }

    #[test]
    fn rederivation_holds_across_repeated_deletions() {
        // Two parallel paths n0->n1->n3, n0->n2->n3 plus a third n0->n4->n3.
        // Delete branches one at a time: each cascade rederives tc(n0, n3)
        // from a branch the previous cascade did not use.
        let parsed = parse(
            "
            e(n0, n1). e(n1, n3). e(n0, n2). e(n2, n3). e(n0, n4). e(n4, n3).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let edb = Database::from_program(&parsed.program);
        let program = Program {
            rules: parsed.program.rules,
            facts: Vec::new(),
        };
        let mut inc = IncrementalEngine::new(program.clone(), edb.clone()).unwrap();
        let goal = parse_atom("tc(n0, n3)").unwrap();
        let mut edb2 = edb;
        for gone in ["e(n1, n3)", "e(n2, n3)"] {
            let victim = parse_atom(gone).unwrap();
            let (_, re) = delete(&mut inc, &victim);
            assert!(re > 0, "{gone}: tc(n0, n3) survives on another branch");
            assert!(inc.db().contains_atom(&goal));
            edb2.remove_atom(&victim);
            assert_eq!(snapshot(inc.db()), from_scratch(&program, &edb2));
        }
        // Removing the last branch retracts it for good.
        let victim = parse_atom("e(n4, n3)").unwrap();
        delete(&mut inc, &victim);
        assert!(!inc.db().contains_atom(&goal));
        edb2.remove_atom(&victim);
        assert_eq!(snapshot(inc.db()), from_scratch(&program, &edb2));
    }

    #[test]
    fn intensional_inline_facts_survive_the_delete_cascade() {
        // `tc(n5, n6)` and `hop(n5)` are body-less rules of the program, and
        // the edges derive them too. Deleting those edges overdeletes
        // `tc(n5, n6)` (DRed) and drops a support of `hop(n5)` (counting):
        // both must stay, and neither is part of the EDB.
        let parsed = parse(
            "
            tc(n5, n6). hop(n5).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            hop(X) :- e(X, Y).
        ",
        )
        .unwrap();
        let edb = workload::chain("e", 8);
        let cut = parse_atom("e(n5, n6)").unwrap();
        let mut after = edb.clone();
        after.remove_atom(&cut);
        let mut inc = IncrementalEngine::new(parsed.program.clone(), edb).unwrap();
        let hop = parse_atom("hop(n5)").unwrap();
        assert_eq!(inc.support_of(&hop), 2, "the inline fact and e(n5, n6)");
        delete(&mut inc, &cut);
        assert!(inc.db().contains_atom(&parse_atom("tc(n5, n6)").unwrap()));
        assert_eq!(inc.support_of(&hop), 1, "the inline fact's own firing");
        check_supports(&inc);
        assert_eq!(inc.edb().predicates(), vec![Predicate::new("e", 2)]);
        assert_eq!(snapshot(inc.db()), from_scratch(&parsed.program, &after));
    }

    #[test]
    fn idb_updates_are_rejected() {
        let program = workload::transitive_closure();
        let edb = workload::chain("e", 3);
        let mut inc = IncrementalEngine::new(program, edb).unwrap();
        let before = snapshot(inc.db());
        for op in [
            (true, parse_atom("tc(n0, n9)").unwrap()),
            (false, parse_atom("tc(n0, n1)").unwrap()),
        ] {
            // The valid edge insert ahead of the refused op never applies.
            let batch = [(true, parse_atom("e(n7, n8)").unwrap()), op];
            assert!(matches!(
                inc.apply_batch(&batch),
                Err(EvalError::IdbUpdate(p)) if p == Predicate::new("tc", 2)
            ));
            assert_eq!(snapshot(inc.db()), before);
        }
    }

    #[test]
    fn an_edb_with_rows_of_an_intensional_predicate_is_refused() {
        let mut edb = workload::chain("e", 3);
        edb.insert_atom(&parse_atom("tc(z, q)").unwrap()).unwrap();
        assert!(matches!(
            IncrementalEngine::new(workload::transitive_closure(), edb),
            Err(EvalError::IdbUpdate(p)) if p == Predicate::new("tc", 2)
        ));
    }

    #[test]
    fn non_definite_programs_are_rejected() {
        let parsed = parse("move(a, b). win(X) :- move(X, Y), !win(Y).").unwrap();
        let edb = Database::from_program(&parsed.program);
        let program = Program {
            rules: parsed.program.rules,
            facts: Vec::new(),
        };
        assert!(IncrementalEngine::new(program, edb).is_err());
    }

    /// `step`'s counters (firings new dup probes considered iterations) and
    /// outcome (added overdeleted rederived), then each maintained
    /// relation's rows in id order.
    fn transcript(step: &str, inc: &IncrementalEngine, out: BatchOutcome) -> Vec<String> {
        let m = inc.metrics();
        let mut lines = vec![format!(
            "{step}: {} {} {} {} {} {} / {} {} {}",
            m.firings,
            m.new_facts,
            m.duplicate_facts,
            m.probes,
            m.tuples_considered,
            m.iterations,
            out.added,
            out.overdeleted,
            out.rederived
        )];
        for p in inc.db().predicates() {
            let rel = inc.db().relation(p).unwrap();
            let row = |row: &[Const]| row.iter().map(|c| c.to_string()).collect::<String>();
            let rows: Vec<String> = rel.iter().map(row).collect();
            lines.push(format!("  {}: {}", p.name, rows.join(" ")));
        }
        lines
    }

    #[test]
    fn counters_outcomes_and_row_order_are_pinned() {
        // An op is `+fact` (insert) or `-fact` (delete). The inserts hold a
        // present fact, an absent delete and a netted pair; the deletes an
        // absent one and an insert.
        let batch = |ops: &str| -> Vec<(bool, Atom)> {
            let op = |op: &str| (op.starts_with('+'), parse_atom(&op[1..]).unwrap());
            ops.split_whitespace().map(op).collect()
        };
        let inserts = batch("+e(f,g) +e(a,c) +e(b,f) -e(g,a) +e(g,h) -e(g,h)");
        let deletes = batch("-e(b,c) -e(c,d) -e(h,a) +e(d,c)");
        let mut got = Vec::new();
        for text in [
            "e(a, b). e(b, c). e(c, d). e(d, f).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            "e(a, b). e(a, c). e(b, c). e(b, d). e(c, d). e(d, a). e(c, f). e(f, a).
             two(X, Z) :- e(X, Y), e(Y, Z). three(X, W) :- two(X, Z), e(Z, W).",
        ] {
            let program = parse(text).unwrap().program;
            let mut inc = IncrementalEngine::new(program, Database::new()).unwrap();
            got.extend(transcript("new", &inc, BatchOutcome::default()));
            let out = inc.apply_batch(&inserts).unwrap();
            got.extend(transcript("insert", &inc, out));
            let out = inc.apply_batch(&deletes).unwrap();
            got.extend(transcript("delete", &inc, out));
        }
        let want = [
            "new: 10 10 0 26 30 5 / 0 0 0",
            "  e: ab bc cd df",
            "  tc: ab bc cd df ac bd cf ad bf af",
            "insert: 21 15 6 55 65 9 / 8 0 0",
            "  e: ab bc cd df fg ac bf",
            "  tc: ab bc cd df ac bd cf ad bf af fg dg bg ag cg",
            "delete: 44 32 12 134 124 16 / 2 13 5",
            "  e: ab df fg ac bf dc",
            "  tc: ab df fg dg bf bg ac af ag dc",
            "new: 31 25 6 21 50 3 / 0 0 0",
            "  e: ab ac bc bd cd da cf fa",
            "  three: ad af aa ba bb bc cb cc dc dd df fc fd ff",
            "  two: ac ad af bd bf ba ca db dc fb fc",
            "insert: 39 29 10 48 81 5 / 6 0 0",
            "  e: ab ac bc bd cd da cf fa fg bf",
            "  three: ad af aa ba bb bc cb cc dc dd df fc fd ff ag bg",
            "  two: ac ad af bd bf ba ca db dc fb fc bg cg",
            "delete: 59 35 24 105 145 10 / 7 11 0",
            "  e: ab ac bd da cf fa fg bf dc",
            "  three: aa bb bc cb cc dd df fd ff ag ac da dg bf",
            "  two: ad af ba ca db dc fb fc bg cg df bc",
        ];
        assert_eq!(got, want);
        // A dense graph's rounds outgrow the staging buffers' compaction
        // threshold, so some duplicates never reach the fold.
        let dense = workload::random_graph("e", 100, 2000, 7);
        let inc = IncrementalEngine::new(workload::transitive_closure(), dense).unwrap();
        assert_eq!(
            transcript("dense", &inc, BatchOutcome::default())[0],
            "dense: 202000 10000 192000 8005 210000 4 / 0 0 0"
        );
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_noops() {
        let program = workload::transitive_closure();
        let edb = workload::chain("e", 3);
        let mut inc = IncrementalEngine::new(program, edb).unwrap();
        assert_eq!(insert(&mut inc, &parse_atom("e(n0, n1)").unwrap()), 0);
        assert_eq!(delete(&mut inc, &parse_atom("e(n8, n9)").unwrap()), (0, 0));
    }
}
