//! Incremental view maintenance: keep a materialised IDB up to date under
//! EDB insertions and deletions without recomputing from scratch.
//!
//! ## Counting (the default)
//!
//! Every derived fact carries a **support count** — the number of distinct
//! rule firings currently deriving it — stored as a parallel `u32` column in
//! the tuple arena ([`alexander_storage::Relation::supports`]). The counts
//! are maintained by the blocked executor's emit path:
//!
//! * **Insertion** runs semi-naive continuation rounds. The delta-position
//!   triangle ([`SideSources::InsertTriangle`]) enumerates each *new* firing
//!   exactly once, so a duplicate emission against the total is precisely
//!   "one more derivation of an existing fact": its count is incremented
//!   instead of re-deriving anything.
//! * **Deletion** runs the mirrored triangle
//!   ([`SideSources::DeleteTriangle`]): with the victims physically removed
//!   first, each *lost* firing is enumerated exactly once and decrements its
//!   head's count. Only facts whose count reaches zero are retracted and
//!   cascade further — facts with surviving support are never overdeleted,
//!   never rederived, and never touch the join kernel again.
//!
//! Pure counting is sound only where a fact cannot (transitively) support
//! itself, i.e. for predicates whose rules draw on strictly lower strata.
//! The engine classifies predicates by the SCC decomposition of the
//! dependency graph: a head predicate in a singleton component with no
//! self-loop is **counted**; everything else (direct or mutual recursion)
//! falls back per-SCC to **DRed** (delete-and-rederive,
//! Gupta–Mumick–Subrahmanian). The DRed fallback itself is accelerated two
//! ways: rederivation is asked per doomed fact as a *head-seeded* indexed
//! probe ([`crate::exec::exec_plan_seeded`]) instead of a stratum re-join,
//! and witnesses found that way are memoised as [`Justification`]s
//! (see [`crate::provenance`]) so the next deletion touching the same fact
//! re-checks the stored premises before joining at all.
//!
//! ## Batches
//!
//! [`IncrementalEngine::apply_batch`] applies one *mixed* batch of inserts
//! and deletes as a single delete cascade plus a single insertion fixpoint —
//! not N sequential per-fact fixpoints. The WAL replay path and the server
//! commit path feed whole batches through it.
//!
//! Restricted to definite programs: deletions under negation flip truth in
//! both directions and need stratified counting, out of scope here.

use crate::error::EvalError;
use crate::exec::{exec_plan, exec_plan_seeded, ExecScratch};
use crate::join::{
    compile_rule, compile_rule_seeded, ensure_rule_indexes, CompiledRule, DeltaSource, Emitted,
    JoinInput, SideSources,
};
use crate::metrics::EvalMetrics;
use crate::naive::seed_database;
use crate::plan::{compile_plans, RulePlan};
use crate::provenance::{Justification, Provenance};
use alexander_ir::analysis::{tarjan, DepGraph};
use alexander_ir::{Atom, FxHashMap, FxHashSet, Predicate, Program};
use alexander_storage::{Database, DeltaSpans, Tuple};
use std::ops::ControlFlow;

/// How deletions are maintained.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Maintenance {
    /// Support counting where sound, per-SCC DRed where recursion makes
    /// counting unsound. The default.
    #[default]
    Counting,
    /// Classic DRed for every predicate (counting disabled). Kept as the
    /// differential oracle: both modes must produce identical databases.
    Dred,
}

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

/// A materialised deductive database that stays consistent under updates.
pub struct IncrementalEngine {
    program: Program,
    compiled: Vec<CompiledRule>,
    /// One executor plan per compiled rule.
    plans: Vec<RulePlan>,
    /// Head-seeded compilations of the same rules, for per-fact
    /// rederivation probes during the DRed fallback.
    seeded: Vec<CompiledRule>,
    /// One executor plan per seeded compilation.
    seeded_plans: Vec<RulePlan>,
    /// EDB + all derived facts, with the support-count column live.
    total: Database,
    /// The extensional predicates (facts the user may insert/delete).
    edb_preds: FxHashSet<Predicate>,
    /// Head predicates maintained by exact firing counts.
    counted: FxHashSet<Predicate>,
    /// SCC groups of the rule set, dependencies first.
    groups: Vec<SccGroup>,
    /// Memoised rederivation witnesses (populated lazily by deletions).
    provenance: Provenance,
    metrics: EvalMetrics,
}

impl IncrementalEngine {
    /// Materialises `program` over `edb` with [`Maintenance::Counting`].
    pub fn new(program: Program, edb: Database) -> Result<IncrementalEngine, EvalError> {
        IncrementalEngine::with_mode(program, edb, Maintenance::Counting)
    }

    /// Materialises `program` over `edb` under an explicit maintenance mode.
    /// An inline fact of an intensional predicate is a body-less rule
    /// ([`Program::normalize`]): it fires once, so counting holds it at one
    /// support, and DRed's head-seeded probe rederives it by itself.
    pub fn with_mode(
        mut program: Program,
        edb: Database,
        mode: Maintenance,
    ) -> Result<IncrementalEngine, EvalError> {
        program.validate().map_err(EvalError::Invalid)?;
        program.normalize();
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
        let seeded: Vec<CompiledRule> = program
            .rules
            .iter()
            .map(|r| compile_rule_seeded(r).map_err(EvalError::from))
            .collect::<Result<_, _>>()?;
        let mut total = seed_database(&program, &edb);
        let mut metrics = EvalMetrics::default();
        let plans: Vec<RulePlan> = compile_plans(&compiled, &mut metrics);
        let seeded_plans: Vec<RulePlan> = compile_plans(&seeded, &mut metrics);
        let mut edb_preds: FxHashSet<Predicate> = edb.predicates().into_iter().collect();
        edb_preds.extend(program.facts.iter().map(|f| f.predicate()));
        // Every seeded row is externally supported: base facts hold because
        // they are stored, not because a rule fires.
        for p in total.predicates() {
            let rel = total.relation_mut(p);
            for id in 0..rel.len() as u32 {
                rel.set_support(id, 1);
            }
        }
        let (groups, counted) = classify(&program, mode);
        let mut engine = IncrementalEngine {
            program,
            compiled,
            plans,
            seeded,
            seeded_plans,
            total,
            edb_preds,
            counted,
            groups,
            provenance: Provenance::default(),
            metrics,
        };
        // Initial materialisation: the same counting fixpoint the insertion
        // path runs, seeded with a naive round 0. Maintenance is not
        // governed: updates are small deltas and a partially-maintained view
        // would be permanently inconsistent.
        engine.materialise();
        // The DRed rederivation probes run head-seeded plans whose index
        // masks differ from the forward joins'. Build them now, while the
        // database is settled — inserts maintain them incrementally from
        // here on — so the first deletion's phase 2 doesn't pay an
        // O(|relation|) index build inside its cascade.
        for ri in 0..engine.seeded.len() {
            ensure_rule_indexes(&engine.seeded[ri], &mut engine.total);
        }
        Ok(engine)
    }

    /// The maintained database (EDB + IDB).
    pub fn db(&self) -> &Database {
        &self.total
    }

    /// The support count of a fact: how many distinct rule firings (plus
    /// one for externally stored facts) currently derive it. Zero iff the
    /// fact is absent. Exact for counted predicates; recursive predicates
    /// report a presence marker maintained by the DRed fallback.
    pub fn support_of(&self, fact: &Atom) -> u32 {
        let Some(t) = Tuple::from_atom(fact) else {
            return 0;
        };
        self.total
            .relation(fact.predicate())
            .and_then(|r| r.id_of(t.values()))
            .map_or(0, |id| {
                // invariant: id came from this relation's dedup table.
                self.total
                    .relation(fact.predicate())
                    .expect("relation just resolved")
                    .support(id)
            })
    }

    /// True iff deletions on `pred` are maintained by exact support counts
    /// (false means the per-SCC DRed fallback owns it).
    pub fn is_counted(&self, pred: Predicate) -> bool {
        self.counted.contains(&pred)
    }

    /// A copy of just the extensional store — the base facts from which the
    /// maintained database is derivable. This is what durability snapshots
    /// persist: recovery reloads it and re-materialises, instead of trusting
    /// serialized derived state. Row hashes are reused from the maintained
    /// arenas rather than recomputed.
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

    /// Inserts an EDB fact; returns the number of facts (including derived
    /// ones) added to the database.
    pub fn insert(&mut self, fact: &Atom) -> Result<usize, EvalError> {
        self.insert_batch(std::slice::from_ref(fact))
    }

    /// Deletes an EDB fact; returns `(overdeleted, rederived)`.
    /// `overdeleted` is the true count of facts physically removed during
    /// the cascade — including the base fact itself and any facts later
    /// rederived; `rederived` of those were restored.
    pub fn delete(&mut self, fact: &Atom) -> Result<(usize, usize), EvalError> {
        self.delete_batch(std::slice::from_ref(fact))
    }

    /// Inserts a batch of EDB facts and propagates them in **one** shared
    /// fixpoint (not per-fact fixpoints); returns facts added, including
    /// derived ones. Facts already present are no-ops.
    pub fn insert_batch(&mut self, facts: &[Atom]) -> Result<usize, EvalError> {
        // Validate the whole batch before touching any state.
        let tuples: Vec<Tuple> = facts
            .iter()
            .map(|fact| {
                if self.program.is_idb(fact.predicate()) {
                    return Err(EvalError::IdbUpdate(fact.predicate()));
                }
                Tuple::from_atom(fact).ok_or_else(|| {
                    EvalError::Invalid(vec![alexander_ir::ProgramError::NonGroundFact {
                        fact: fact.to_string(),
                    }])
                })
            })
            .collect::<Result<_, _>>()?;
        let mut delta = Database::new();
        for (fact, t) in facts.iter().zip(tuples) {
            let pred = fact.predicate();
            if self.total.contains_atom(fact) {
                continue;
            }
            self.edb_preds.insert(pred);
            if delta.insert(pred, t) {
                let rel = delta.relation_mut(pred);
                let id = rel.len() as u32 - 1;
                rel.set_support(id, 1);
            }
        }
        if delta.total_tuples() == 0 {
            return Ok(0);
        }
        let base = self.total.merge(&delta);
        let spans = DeltaSpans::after_merge(&self.total, &delta);
        Ok(base + self.counting_rounds(spans))
    }

    /// Deletes a batch of EDB facts and retracts their consequences in
    /// **one** shared cascade; returns `(overdeleted, rederived)` as for
    /// [`IncrementalEngine::delete`]. Absent facts are no-ops.
    pub fn delete_batch(&mut self, facts: &[Atom]) -> Result<(usize, usize), EvalError> {
        let mut victims: FxHashMap<Predicate, FxHashSet<Tuple>> = FxHashMap::default();
        let mut removed = Database::new();
        for fact in facts {
            let pred = fact.predicate();
            if self.program.is_idb(pred) {
                return Err(EvalError::IdbUpdate(pred));
            }
            // invariant: a non-ground atom is never `contains_atom`, so
            // ungrounded deletes fall through as no-ops, like misses.
            if !self.total.contains_atom(fact) {
                continue;
            }
            let t = Tuple::from_atom(fact).expect("checked ground");
            if victims.entry(pred).or_default().insert(t.clone()) {
                removed.insert(pred, t);
            }
        }
        if removed.total_tuples() == 0 {
            return Ok((0, 0));
        }
        let mut overdeleted = 0usize;
        for (p, set) in &victims {
            overdeleted += self.total.remove_tuples(*p, set);
        }
        let (cascaded, rederived) = self.cascade_deletions(removed);
        Ok((overdeleted + cascaded, rederived))
    }

    /// Applies one mixed batch of updates (`true` = insert, `false` =
    /// delete) as a single delete cascade followed by a single insertion
    /// fixpoint. Later operations on the same fact win; the net effect
    /// against the current database decides what actually runs.
    pub fn apply_batch(&mut self, ops: &[(bool, Atom)]) -> Result<BatchOutcome, EvalError> {
        // Validate everything up front: a batch either applies or leaves
        // the database untouched.
        for (_, atom) in ops {
            let pred = atom.predicate();
            if self.program.is_idb(pred) {
                return Err(EvalError::IdbUpdate(pred));
            }
        }
        // Net effect per fact: the last operation wins.
        let mut order: Vec<&Atom> = Vec::new();
        let mut net: FxHashMap<&Atom, bool> = FxHashMap::default();
        for (insert, atom) in ops {
            if net.insert(atom, *insert).is_none() {
                order.push(atom);
            }
        }
        let mut deletes: Vec<Atom> = Vec::new();
        let mut inserts: Vec<Atom> = Vec::new();
        for atom in order {
            if net[atom] {
                inserts.push(atom.clone());
            } else {
                deletes.push(atom.clone());
            }
        }
        let (overdeleted, rederived) = self.delete_batch(&deletes)?;
        let added = self.insert_batch(&inserts)?;
        Ok(BatchOutcome {
            added,
            overdeleted,
            rederived,
        })
    }

    /// Initial materialisation: one naive round over the seed database,
    /// then the shared counting delta rounds.
    fn materialise(&mut self) {
        self.metrics.iterations += 1;
        for r in &self.compiled {
            ensure_rule_indexes(r, &mut self.total);
        }
        let mut scratch = ExecScratch::new();
        let mut staged = Database::new();
        let mut inc: Vec<(Predicate, u32)> = Vec::new();
        for (ri, rule) in self.compiled.iter().enumerate() {
            let input = JoinInput {
                total: &self.total,
                delta: None,
                sides: None,
                negatives: None,
                governor: None,
            };
            counting_emit_pass(
                &self.plans[ri],
                rule.head.pred,
                self.counted.contains(&rule.head.pred),
                &input,
                &self.total,
                &mut staged,
                &mut inc,
                &mut scratch,
                &mut self.metrics,
            );
        }
        self.apply_increments(&mut inc);
        self.total.absorb_staged(&staged);
        let spans = DeltaSpans::after_merge(&self.total, &staged);
        self.counting_rounds(spans);
    }

    /// Semi-naive delta rounds over contiguous id spans, with support
    /// counting riding the emit path. [`SideSources::InsertTriangle`]
    /// guarantees each new firing is enumerated exactly once, so duplicate
    /// emissions against the total are exactly the support increments.
    /// Returns the number of facts added.
    fn counting_rounds(&mut self, mut spans: DeltaSpans) -> usize {
        let mut added = 0usize;
        let mut scratch = ExecScratch::new();
        let mut staged = Database::new();
        let mut inc: Vec<(Predicate, u32)> = Vec::new();
        while !spans.is_empty() {
            self.metrics.iterations += 1;
            for r in &self.compiled {
                ensure_rule_indexes(r, &mut self.total);
            }
            staged.clear_retaining();
            for (ri, rule) in self.compiled.iter().enumerate() {
                for (i, lit) in rule.body.iter().enumerate() {
                    if spans.len_of(lit.atom.pred) == 0 {
                        continue;
                    }
                    let input = JoinInput {
                        total: &self.total,
                        delta: Some((i, DeltaSource::Spans(&spans))),
                        sides: Some(SideSources::InsertTriangle),
                        negatives: None,
                        governor: None,
                    };
                    counting_emit_pass(
                        &self.plans[ri],
                        rule.head.pred,
                        self.counted.contains(&rule.head.pred),
                        &input,
                        &self.total,
                        &mut staged,
                        &mut inc,
                        &mut scratch,
                        &mut self.metrics,
                    );
                }
            }
            self.apply_increments(&mut inc);
            added += self.total.absorb_staged(&staged);
            spans = DeltaSpans::after_merge(&self.total, &staged);
        }
        added
    }

    /// Applies deferred support increments (collected while the total was
    /// immutably borrowed by a join pass).
    fn apply_increments(&mut self, inc: &mut Vec<(Predicate, u32)>) {
        for (p, id) in inc.drain(..) {
            self.total.relation_mut(p).add_support(id, 1);
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
    /// decrements its head's support; rows whose count reaches zero are
    /// retracted and join the removed set. Facts with surviving support
    /// never touch the join kernel again. Returns facts removed.
    fn counted_group(
        &mut self,
        group: &SccGroup,
        removed: &mut Database,
        scratch: &mut ExecScratch,
    ) -> usize {
        self.metrics.iterations += 1;
        let mut dec: Vec<(Predicate, u32)> = Vec::new();
        for &ri in &group.rules {
            let rule = &self.compiled[ri];
            ensure_rule_indexes(rule, &mut self.total);
            ensure_rule_indexes(rule, removed);
            let head = rule.head.pred;
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
                let total_ref = &self.total;
                let _ = exec_plan(
                    &self.plans[ri],
                    &input,
                    scratch,
                    &mut self.metrics,
                    &mut |h, row| {
                        // invariant: a lost firing's head was derivable over
                        // the old state, and this component's rows are only
                        // removed below, after the passes.
                        let id = total_ref
                            .relation(head)
                            .and_then(|r| r.id_of_hashed(h, row))
                            .expect("lost firing's head is still stored");
                        dec.push((head, id));
                        Emitted::Duplicate
                    },
                );
            }
        }
        // Apply the decrements, then retract exactly the rows that lost
        // their last support. Only decremented ids can newly hit zero, so
        // the sweep is O(lost firings), not O(|relation|).
        let mut zero: FxHashMap<Predicate, FxHashSet<Tuple>> = FxHashMap::default();
        for &(p, id) in &dec {
            self.total.relation_mut(p).sub_support(id, 1);
        }
        for &(p, id) in &dec {
            // invariant: ids stay valid until `remove_tuples` below — the
            // decrement loop only touches the support column.
            let rel = self.total.relation(p).expect("decremented relation exists");
            if rel.support(id) == 0 {
                zero.entry(p).or_default().insert(Tuple::new(rel.row(id)));
            }
        }
        let mut dropped = 0usize;
        for (p, set) in &zero {
            dropped += self.total.remove_tuples(*p, set);
            for t in set {
                self.provenance.forget(&t.to_atom(p.name));
                removed.insert(*p, t.clone());
            }
        }
        dropped
    }

    /// Recursive component: DRed. Phase 1 overdeletes every fact with a
    /// derivation through the removed set, joining non-delta positions
    /// against the *old* total ([`SideSources::OldTotal`]). Phase 2 asks
    /// each doomed fact, individually, whether it still has a derivation:
    /// first by re-checking its memoised witness from a previous cascade,
    /// then with a head-seeded indexed probe; fresh witnesses are memoised.
    /// Returns `(facts removed, facts rederived)`.
    fn dred_group(
        &mut self,
        group: &SccGroup,
        removed: &mut Database,
        scratch: &mut ExecScratch,
    ) -> (usize, usize) {
        // ---- Phase 1: overdelete. ----
        let mut doomed: FxHashMap<Predicate, FxHashSet<Tuple>> = FxHashMap::default();
        let mut doomed_list: Vec<(Predicate, Tuple)> = Vec::new();
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
                    let doomed_ref = &doomed;
                    let _ = exec_plan(
                        &self.plans[ri],
                        &input,
                        scratch,
                        &mut self.metrics,
                        &mut |h, row| {
                            if doomed_ref
                                .get(&head)
                                .is_some_and(|s| s.contains(&Tuple::new(row)))
                            {
                                Emitted::Duplicate
                            } else if next.insert_row_hashed(head, h, row) {
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
            for p in next.predicates() {
                let set = doomed.entry(p).or_default();
                if let Some(rel) = next.relation(p) {
                    for row in rel.iter() {
                        let t = Tuple::new(row);
                        if set.insert(t.clone()) {
                            doomed_list.push((p, t));
                        }
                    }
                }
            }
            delta = next;
        }
        let mut overdeleted = 0usize;
        for (p, set) in &doomed {
            overdeleted += self.total.remove_tuples(*p, set);
        }
        if doomed_list.is_empty() {
            return (0, 0);
        }

        // ---- Phase 2: rederive. ----
        // Passes over the still-doomed facts until a full pass rederives
        // nothing: a fact may only become rederivable after a premise of
        // its alternative derivation came back, so this converges to
        // exactly the facts with support in the new state.
        let mut alive = vec![false; doomed_list.len()];
        let mut rederived = 0usize;
        loop {
            self.metrics.iterations += 1;
            for &ri in &group.rules {
                ensure_rule_indexes(&self.seeded[ri], &mut self.total);
            }
            let mut progress = false;
            for (idx, (p, t)) in doomed_list.iter().enumerate() {
                if alive[idx] {
                    continue;
                }
                let fact = t.to_atom(p.name);
                let mut witness = self
                    .provenance
                    .justification(&fact)
                    .filter(|j| j.premises.iter().all(|pr| self.total.contains_atom(pr)))
                    .cloned();
                if witness.is_none() {
                    for &ri in &group.rules {
                        let rule = &self.seeded[ri];
                        if rule.head.pred != *p {
                            continue;
                        }
                        let mut found: Option<Justification> = None;
                        exec_plan_seeded(
                            &self.seeded_plans[ri],
                            t.values(),
                            &JoinInput::naive(&self.total),
                            scratch,
                            &mut self.metrics,
                            &mut |row, metrics| {
                                metrics.firings += 1;
                                let premises =
                                    rule.body.iter().map(|lit| lit.atom.ground(row)).collect();
                                found = Some(Justification {
                                    rule: ri,
                                    premises,
                                    negatives: Vec::new(),
                                });
                                ControlFlow::Break(())
                            },
                        );
                        if found.is_some() {
                            witness = found;
                            break;
                        }
                    }
                }
                if let Some(j) = witness {
                    self.total.insert(*p, t.clone());
                    let rel = self.total.relation_mut(*p);
                    let id = rel.len() as u32 - 1;
                    rel.set_support(id, 1);
                    self.provenance.record(fact, j);
                    alive[idx] = true;
                    progress = true;
                    rederived += 1;
                    self.metrics.new_facts += 1;
                }
            }
            if !progress {
                break;
            }
        }
        for (idx, (p, t)) in doomed_list.iter().enumerate() {
            if !alive[idx] {
                self.provenance.forget(&t.to_atom(p.name));
                removed.insert(*p, t.clone());
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

/// One blocked-executor pass with the counting emit discipline:
///
/// * head absent everywhere → staged with support 1 (its first firing);
/// * head already staged → counted heads bump the staged support;
/// * head in the total → counted heads defer an increment (ids are taken
///   while the total is immutably borrowed, applied after the pass).
///
/// Recursive heads keep support 1 while present — a presence marker; their
/// retraction is decided by DRed, not by the counter.
#[allow(clippy::too_many_arguments)]
fn counting_emit_pass(
    plan: &RulePlan,
    head: Predicate,
    head_counted: bool,
    input: &JoinInput<'_>,
    total: &Database,
    staged: &mut Database,
    inc: &mut Vec<(Predicate, u32)>,
    scratch: &mut ExecScratch,
    metrics: &mut EvalMetrics,
) {
    let _ = exec_plan(plan, input, scratch, metrics, &mut |h, row| {
        if let Some(id) = total.relation(head).and_then(|r| r.id_of_hashed(h, row)) {
            if head_counted {
                inc.push((head, id));
            }
            Emitted::Duplicate
        } else if staged.insert_row_hashed(head, h, row) {
            let rel = staged.relation_mut(head);
            let id = rel.len() as u32 - 1;
            rel.set_support(id, 1);
            Emitted::New
        } else {
            if head_counted {
                let rel = staged.relation_mut(head);
                // invariant: the insert above found the row already staged.
                let id = rel.id_of_hashed(h, row).expect("duplicate row is staged");
                rel.add_support(id, 1);
            }
            Emitted::Duplicate
        }
    });
}

/// SCC decomposition of the head predicates: groups in dependencies-first
/// order, plus the set of counted predicates (empty under
/// [`Maintenance::Dred`]).
fn classify(program: &Program, mode: Maintenance) -> (Vec<SccGroup>, FxHashSet<Predicate>) {
    let graph = DepGraph::build(program);
    let scc = tarjan(graph.len(), &|v| {
        graph.succs[v].iter().map(|&(w, _)| w).collect()
    });
    let mut counted = FxHashSet::default();
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
        let self_dependent = comp.len() > 1
            || comp
                .iter()
                .any(|&v| graph.succs[v].iter().any(|&(w, _)| w == v));
        let recursive = match mode {
            Maintenance::Counting => self_dependent,
            Maintenance::Dred => true,
        };
        if !recursive {
            counted.extend(preds.iter().copied());
        }
        groups.push(SccGroup { rules, recursive });
    }
    (groups, counted)
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

    /// Asserts the support invariant: count > 0 iff the fact is stored, and
    /// for counted predicates the count equals the distinct rule firings
    /// over the final database (plus 1 when externally stored).
    fn check_supports(inc: &IncrementalEngine) {
        let db = inc.db();
        // Expected firing counts per counted head fact, recomputed naively.
        let mut expected: FxHashMap<(Predicate, Tuple), u32> = FxHashMap::default();
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
                    let t = Tuple::from_atom(&head.ground(row)).expect("ground");
                    *expected.entry((head.pred, t)).or_insert(0) += 1;
                    ControlFlow::Continue(())
                },
            );
        }
        for p in db.predicates() {
            let rel = db.relation(p).unwrap();
            let is_idb = inc.program().is_idb(p);
            for id in 0..rel.len() as u32 {
                let support = rel.support(id);
                assert!(support > 0, "{p}: stored row with zero support");
                if inc.is_counted(p) {
                    let t = Tuple::new(rel.row(id));
                    let external = u32::from(!is_idb);
                    let firings = expected.get(&(p, t)).copied().unwrap_or(0);
                    assert_eq!(
                        support,
                        firings + external,
                        "{p}: support drifted from firing count"
                    );
                }
            }
        }
    }

    #[test]
    fn insertion_matches_recompute() {
        let program = workload::transitive_closure();
        let mut edb = workload::chain("e", 5);
        let mut inc = IncrementalEngine::new(program.clone(), edb.clone()).unwrap();
        let new_edge = parse_atom("e(n5, n6)").unwrap();
        let added = inc.insert(&new_edge).unwrap();
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
        let (over, re) = inc.delete(&victim).unwrap();
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
        let (over, re) = inc.delete(&victim).unwrap();
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
        let (over, re) = inc.delete(&parse_atom("e(n1, n2)").unwrap()).unwrap();
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
        let (over, re) = inc.delete(&parse_atom("e(a, b1)").unwrap()).unwrap();
        assert_eq!((over, re), (1, 0), "only the base fact goes");
        assert_eq!(inc.support_of(&fact), 1);
        assert!(inc.db().contains_atom(&fact));

        // Drop the last branch: now the count hits zero and it retracts.
        let (over, re) = inc.delete(&parse_atom("f(b2, c)").unwrap()).unwrap();
        assert_eq!((over, re), (2, 0));
        assert!(!inc.db().contains_atom(&fact));

        let mut edb2 = edb;
        edb2.remove_atom(&parse_atom("e(a, b1)").unwrap());
        edb2.remove_atom(&parse_atom("f(b2, c)").unwrap());
        assert_eq!(snapshot(inc.db()), from_scratch(&program, &edb2));
        check_supports(&inc);
    }

    #[test]
    fn counting_and_dred_modes_agree() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let program = workload::transitive_closure();
        for seed in [7u64, 8] {
            let edb = workload::random_graph("e", 8, 18, seed);
            let mut counting = IncrementalEngine::new(program.clone(), edb.clone()).unwrap();
            let mut dred =
                IncrementalEngine::with_mode(program.clone(), edb, Maintenance::Dred).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..10 {
                let a = rng.random_range(0..8);
                let b = rng.random_range(0..8);
                let atom = parse_atom(&format!("e(n{a}, n{b})")).unwrap();
                if rng.random_range(0..2) == 0 {
                    counting.insert(&atom).unwrap();
                    dred.insert(&atom).unwrap();
                } else {
                    counting.delete(&atom).unwrap();
                    dred.delete(&atom).unwrap();
                }
                assert_eq!(snapshot(counting.db()), snapshot(dred.db()));
            }
        }
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
                    inc.insert(&atom).unwrap();
                    edb.insert_atom(&atom).unwrap();
                } else {
                    inc.delete(&atom).unwrap();
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
        inc.delete(&victim).unwrap();
        let mut edb2 = edb;
        edb2.remove_atom(&victim);
        assert_eq!(snapshot(inc.db()), from_scratch(&program, &edb2));
        check_supports(&inc);
    }

    #[test]
    fn memoised_witnesses_survive_repeated_deletions() {
        // Two parallel paths n0->n1->n3, n0->n2->n3 plus a third n0->n4->n3.
        // Delete branches one at a time: each cascade rederives tc(n0, n3)
        // and the second deletion can reuse (or replace) the stored witness.
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
            let (_, re) = inc.delete(&victim).unwrap();
            assert!(re > 0, "{gone}: tc(n0, n3) survives on another branch");
            assert!(inc.db().contains_atom(&goal));
            edb2.remove_atom(&victim);
            assert_eq!(snapshot(inc.db()), from_scratch(&program, &edb2));
        }
        // Removing the last branch retracts it for good.
        let victim = parse_atom("e(n4, n3)").unwrap();
        inc.delete(&victim).unwrap();
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
        for mode in [Maintenance::Counting, Maintenance::Dred] {
            let mut inc =
                IncrementalEngine::with_mode(parsed.program.clone(), edb.clone(), mode).unwrap();
            inc.delete(&cut).unwrap();
            assert!(inc.db().contains_atom(&parse_atom("tc(n5, n6)").unwrap()));
            assert!(inc.db().contains_atom(&parse_atom("hop(n5)").unwrap()));
            check_supports(&inc);
            assert_eq!(inc.edb().predicates(), vec![Predicate::new("e", 2)]);
            assert_eq!(snapshot(inc.db()), from_scratch(&parsed.program, &after));
        }
    }

    #[test]
    fn idb_updates_are_rejected() {
        let program = workload::transitive_closure();
        let edb = workload::chain("e", 3);
        let mut inc = IncrementalEngine::new(program, edb).unwrap();
        assert!(inc.insert(&parse_atom("tc(n0, n9)").unwrap()).is_err());
        assert!(inc.delete(&parse_atom("tc(n0, n1)").unwrap()).is_err());
        assert!(inc
            .apply_batch(&[(true, parse_atom("tc(n0, n9)").unwrap())])
            .is_err());
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

    #[test]
    fn duplicate_insert_and_missing_delete_are_noops() {
        let program = workload::transitive_closure();
        let edb = workload::chain("e", 3);
        let mut inc = IncrementalEngine::new(program, edb).unwrap();
        assert_eq!(inc.insert(&parse_atom("e(n0, n1)").unwrap()).unwrap(), 0);
        assert_eq!(
            inc.delete(&parse_atom("e(n8, n9)").unwrap()).unwrap(),
            (0, 0)
        );
    }
}
