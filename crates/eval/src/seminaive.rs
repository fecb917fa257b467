//! The fixpoint round executor, and semi-naive evaluation on top of it.
//!
//! Every bottom-up fixpoint in this crate — naive, semi-naive, each stratum
//! of the stratified evaluator, phase 0 of the conditional one — is the one
//! loop in `fixpoint`, and every round of it runs through one executor
//! (`run_round_tasks`) into one sink (`StagingSink`). Naive
//! and semi-naive differ only in which tasks a round holds: naive
//! applies every rule to the whole database every round; semi-naive, after
//! the first round, restricts one body literal per task to the facts the
//! previous round discovered (the *delta*), eliminating the bulk of naive
//! evaluation's re-derivations. The incremental engine's insertion rounds
//! stage into the same sink and fold (`fold_round`); its firing counts
//! ride its own emit closure in front of the sink.
//!
//! ## Range deltas
//!
//! Because a round's fold appends each relation's new rows as a contiguous
//! id suffix, a round's delta is not a separate database but a
//! [`DeltaSpans`] — per-predicate `(lo, hi)` id ranges into the total. A
//! delta-restricted literal probes the total's own indexes and narrows the
//! (id-sorted) posting list to the range with two binary searches, so no
//! per-round delta relations or delta indexes are ever built.
//!
//! ## One executor, one sink: stage raw, deduplicate once
//!
//! A round's total is read-only for the round's duration; all indexes are
//! built up front by the round's prelude. `run_round_tasks` runs the round's
//! tasks in order on the calling thread through the blocked executor and
//! hands every derived head row to `StagingSink::emit`. A task is one rule
//! — or, in a delta round, one `(rule, delta position)` variant — and knows
//! its head predicate's position among the fixpoint's derived predicates,
//! which is where its rows are staged: one [`StagedRows`] buffer per
//! derived predicate, so staging a row is an append and nothing else — no
//! probe of the total, no map lookup, no dedup insert.
//!
//! The round's end is where rows are classified. The fold inserts every
//! staged row into the total with one find-or-insert, in emission order,
//! so each relation's new ids — and hence the next round's delta spans —
//! are exactly those classifying at emission would give. The executor
//! counts firings; the fold (and the compactions below) count new and
//! duplicate facts, so every [`EvalMetrics`] counter is a function of the
//! round's input alone.
//!
//! Staged rows are firings, not facts. A buffer that outgrows both twice
//! its size after its last compaction and `COMPACT_ROWS` compacts in place
//! — rows the total holds and repeats of earlier rows go, first
//! occurrences stay in emission order — so a duplicate-heavy round stages
//! O(new facts) rows, not O(firings).
//!
//! A panic inside a round surfaces as [`EvalError::WorkerPanicked`], never as
//! an unwind through the caller: a served query that trips one gets an error
//! reply, not a dead session.
//!
//! ## Governance
//!
//! A [`Governor`] (from [`crate::govern`]) rides along when the options
//! carry a budget: rounds check it at their boundary and the executor's
//! sink checks the deadline once per block. The fact budget stays exact
//! without a claim per emission: while a round's staged rows are fewer
//! than the facts the budget still admits, no claim could be refused, and
//! the fold claims the round's new facts in bulk. When the staged rows
//! reach that room, every buffer is compacted, its rows (all new) are
//! claimed, and from then on each emission is classified against the total
//! and the buffer and claimed before it is staged — so a tripped budget
//! stops at the same emission, with the same admitted facts and counters,
//! as claiming every new fact as it is derived. On a trip the round's
//! staged facts are still folded in (they are sound) and the run reports a
//! non-`Complete` [`crate::Completion`].

use crate::error::EvalError;
use crate::exec::{exec_plan, ExecScratch, BLOCK_ROWS};
use crate::fail_point;
use crate::govern::Governor;
use crate::join::{
    compile_rule, ensure_rule_indexes, CompiledRule, DeltaSource, Emitted, JoinInput,
};
use crate::metrics::EvalMetrics;
use crate::naive::{check_semipositive, seed_database, EvalOptions, EvalResult};
use crate::plan::{compile_plans, RulePlan};
use alexander_ir::{Const, Polarity, Predicate, Program, Rule};
use alexander_storage::{Database, DeltaSpans, StagedRows};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Staged rows a buffer may hold before its first compaction. Past it, a
/// buffer compacts whenever it has doubled since its last compaction, so a
/// round stages at most about twice its new facts plus this many rows per
/// derived predicate. Four blocks: a duplicate-free round this small never
/// pays a compaction's probes (one block compacted the larger rounds of a
/// depth-12 tree's `anc` queries, ~10% of their time), while a
/// duplicate-heavy round holds at most 4096 unary rows (~100 KB, twice
/// that in capacity) past its new facts.
const COMPACT_ROWS: usize = 4 * BLOCK_ROWS;

/// Runs semi-naive evaluation of a semipositive `program` over `edb`.
pub fn eval_seminaive(program: &Program, edb: &Database) -> Result<EvalResult, EvalError> {
    eval_seminaive_opts(program, edb, EvalOptions::default())
}

/// [`eval_seminaive`] with explicit options.
pub fn eval_seminaive_opts(
    program: &Program,
    edb: &Database,
    opts: EvalOptions,
) -> Result<EvalResult, EvalError> {
    eval_semipositive(program, edb, &opts, true)
}

/// The fixpoint of a semipositive `program` over `edb`: semi-naive when
/// `delta_rounds`, naive otherwise.
pub(crate) fn eval_semipositive(
    program: &Program,
    edb: &Database,
    opts: &EvalOptions,
    delta_rounds: bool,
) -> Result<EvalResult, EvalError> {
    program.validate().map_err(EvalError::Invalid)?;
    check_semipositive(program)?;
    let mut db = seed_database(program, edb);
    let mut metrics = EvalMetrics::default();
    let gov = opts.governor();
    fixpoint(
        &program.rules,
        &mut db,
        &mut metrics,
        opts,
        None,
        Some(&gov),
        delta_rounds,
    )?;
    Ok(EvalResult {
        db,
        metrics,
        completion: gov.completion(),
    })
}

/// The semi-naive engine over an explicit rule set, mutating `db` in place:
/// [`fixpoint`] with delta rounds. The stratified evaluator calls this once
/// per stratum, the conditional one for its definite core.
pub(crate) fn run_rules(
    rules: &[Rule],
    db: &mut Database,
    metrics: &mut EvalMetrics,
    opts: &EvalOptions,
    negatives: Option<&Database>,
    gov: Option<&Governor>,
) -> Result<(), EvalError> {
    fixpoint(rules, db, metrics, opts, negatives, gov, true)
}

/// The fixpoint loop over an explicit rule set, mutating `db` in place.
///
/// Every round runs through [`run_round_tasks`], is folded into `db`, and
/// the loop ends when a round adds nothing. With `delta_rounds` the rounds
/// after the first are semi-naive — the delta tracks only the head
/// predicates of `rules`; facts of other predicates are static during the
/// run. Without it every round re-applies every rule to the whole database
/// (naive evaluation).
///
/// `negatives`: where negative literals are checked; `None` means the current
/// total (correct when negated predicates are already complete in `db`, as in
/// per-stratum evaluation).
///
/// `gov`: the run's governor, shared across calls when one logical run spans
/// several invocations (the stratified evaluator passes the same governor to
/// every stratum so the budget is global). On a governance stop the function
/// returns `Ok(())` with `db` holding the sound partial result; the caller
/// reads the verdict off the governor.
fn fixpoint(
    rules: &[Rule],
    db: &mut Database,
    metrics: &mut EvalMetrics,
    opts: &EvalOptions,
    negatives: Option<&Database>,
    gov: Option<&Governor>,
    delta_rounds: bool,
) -> Result<(), EvalError> {
    let compiled: Vec<CompiledRule> = rules
        .iter()
        .map(|r| compile_rule(r).map_err(EvalError::from))
        .collect::<Result<_, _>>()?;
    let derived = derived_predicates(&compiled);

    // Rule plans, compiled once and shared read-only by every round.
    let plans: Vec<RulePlan> = compile_plans(&compiled, metrics);

    let governor = gov.filter(|g| g.active());

    // One scratch, set of staging buffers and task list for the whole
    // fixpoint: round N+1 reuses round N's grown buffers (rows cleared,
    // allocations kept), so steady-state rounds stage and fold without
    // touching the allocator.
    let mut scratch = ExecScratch::new();
    let mut staged: Vec<StagedRows> = derived.iter().map(|p| StagedRows::new(p.arity)).collect();
    let mut tasks: Vec<RoundTask<'_>> = Vec::new();

    // The previous round's delta: the id ranges its fold appended. `None`
    // in the first round and in every naive round, which run one full-join
    // task per rule.
    let mut spans: Option<DeltaSpans> = None;
    loop {
        if governor.is_some_and(|g| g.note_round().is_break()) {
            return Ok(());
        }
        fail_point("round-start");
        metrics.iterations += 1;
        if opts.use_indexes {
            for r in &compiled {
                ensure_rule_indexes(r, db);
            }
        }
        tasks.clear();
        for (rule, plan) in compiled.iter().zip(&plans) {
            // A task's rows are staged at its head's position in `derived`.
            // invariant: `derived` holds every rule's head predicate.
            let head = derived
                .binary_search(&rule.head.pred)
                .expect("a rule's head is derived");
            let Some(spans) = &spans else {
                tasks.push(RoundTask {
                    plan,
                    head,
                    delta_pos: None,
                });
                continue;
            };
            // Every derived-predicate literal takes a turn as the delta
            // position; each (rule, position) pair is one task. The round
            // probes the total's indexes (kept fresh by the fold) and never
            // builds delta indexes.
            for (i, lit) in rule.body.iter().enumerate() {
                if lit.polarity == Polarity::Positive
                    && derived.binary_search(&lit.atom.pred).is_ok()
                    && spans.len_of(lit.atom.pred) > 0
                {
                    tasks.push(RoundTask {
                        plan,
                        head,
                        delta_pos: Some(i),
                    });
                }
            }
        }
        let mut sink = StagingSink::new(db, &derived, &mut staged, governor);
        let round = (spans.as_ref(), negatives);
        run_round_tasks(&tasks, round, &mut sink, &mut scratch, metrics)?;
        let exact = sink.exact;
        metrics.duplicate_facts += sink.dropped;
        // Facts staged before a governance stop are sound: keep them.
        let (next, added) = fold_round(db, &derived, &mut staged, metrics);
        // A round that never classified its emissions claims its facts now.
        if let Some(g) = governor.filter(|_| !exact) {
            g.claim_facts(added);
        }
        if added == 0 || governor.is_some_and(|g| g.should_stop()) {
            return Ok(());
        }
        if delta_rounds {
            spans = Some(next);
        }
    }
}

/// The head predicates of `rules`, sorted and deduplicated: a round stages
/// a rule's rows in the buffer at its head's position here.
pub(crate) fn derived_predicates(rules: &[CompiledRule]) -> Vec<Predicate> {
    let mut ps: Vec<Predicate> = rules.iter().map(|r| r.head.pred).collect();
    ps.sort_unstable();
    ps.dedup();
    ps
}

/// The round's end: folds every staged row into `db` in emission order,
/// counts the new and duplicate facts, and empties the buffers. Returns
/// the spans the fold appended and how many facts were new.
pub(crate) fn fold_round(
    db: &mut Database,
    derived: &[Predicate],
    staged: &mut [StagedRows],
    metrics: &mut EvalMetrics,
) -> (DeltaSpans, u64) {
    let mut spans = DeltaSpans::default();
    let mut added = 0u64;
    for (&pred, rows) in derived.iter().zip(staged) {
        if rows.is_empty() {
            continue;
        }
        let total = db.relation_mut(pred);
        let lo = total.len();
        let new = rows.fold_into(total);
        metrics.new_facts += new as u64;
        metrics.duplicate_facts += (rows.len() - new) as u64;
        // invariant: relations cap at u32::MAX rows (`Relation` asserts on
        // overflow), so the narrowing conversions are lossless.
        spans.push(pred, lo as u32, (lo + new) as u32);
        added += new as u64;
        rows.clear();
    }
    (spans, added)
}

/// One unit of per-round work: a rule's plan, the position of its head
/// predicate among the derived ones, and optionally a delta position (one
/// delta-rewriting variant).
struct RoundTask<'a> {
    plan: &'a RulePlan,
    head: usize,
    delta_pos: Option<usize>,
}

/// What a round's tasks read besides the total: the delta spans (delta
/// rounds only) and the negative-literal source.
type RoundSources<'a> = (Option<&'a DeltaSpans>, Option<&'a Database>);

/// Where every derived head row of a round lands: appended to its head's
/// buffer, or — once the fact budget could run out this round — classified
/// as duplicate, refused, or new and staged.
pub(crate) struct StagingSink<'a> {
    /// The round's total, immutable while the round runs.
    total: &'a Database,
    /// The fixpoint's derived predicates, sorted.
    derived: &'a [Predicate],
    /// One buffer per derived predicate, by position in `derived`.
    staged: &'a mut [StagedRows],
    governor: Option<&'a Governor>,
    /// The facts the budget admits at the round's start; `None` without a
    /// fact cap.
    room: Option<u64>,
    /// Rows staged across all buffers.
    buffered: u64,
    /// Set once `buffered` reached `room`: every buffer was compacted and
    /// its rows claimed, and each later emission is classified and claimed.
    exact: bool,
    /// Emissions compactions dropped: duplicates the fold never sees.
    pub(crate) dropped: u64,
}

impl<'a> StagingSink<'a> {
    pub(crate) fn new(
        total: &'a Database,
        derived: &'a [Predicate],
        staged: &'a mut [StagedRows],
        governor: Option<&'a Governor>,
    ) -> StagingSink<'a> {
        StagingSink {
            total,
            derived,
            staged,
            governor,
            room: governor.and_then(Governor::facts_left),
            buffered: 0,
            exact: false,
            dropped: 0,
        }
    }

    #[inline]
    pub(crate) fn emit(&mut self, slot: usize, h: u64, row: &[Const]) -> Emitted {
        if !self.exact {
            if self.room.is_none_or(|room| self.buffered < room) {
                let rows = &mut self.staged[slot];
                rows.push(h, row);
                self.buffered += 1;
                if rows.len() > COMPACT_ROWS.max(2 * rows.distinct()) {
                    self.compact(slot);
                }
                return Emitted::Staged;
            }
            self.classify_from_here();
        }
        let rows = &mut self.staged[slot];
        let total = self.total.relation(self.derived[slot]);
        if total.is_some_and(|t| t.contains_row_hashed(h, row)) || rows.contains(h, row) {
            return Emitted::Duplicate;
        }
        if self.governor.is_some_and(|g| g.claim_fact().is_break()) {
            return Emitted::Refused;
        }
        rows.push_distinct(h, row);
        Emitted::Staged
    }

    /// Compacts buffer `slot` against the total.
    fn compact(&mut self, slot: usize) {
        let dropped = self.staged[slot].compact(self.total.relation(self.derived[slot])) as u64;
        self.dropped += dropped;
        self.buffered -= dropped;
    }

    /// The staged rows reached the fact budget's room: compacts every
    /// buffer, claims the rows that remain (all new, and at most `room` of
    /// them), and switches to classifying each emission.
    #[cold]
    fn classify_from_here(&mut self) {
        for slot in 0..self.staged.len() {
            self.compact(slot);
        }
        if let Some(g) = self.governor {
            g.claim_facts(self.buffered);
        }
        self.exact = true;
    }
}

/// Maps a caught panic payload to [`EvalError::WorkerPanicked`].
fn round_panicked(payload: Box<dyn std::any::Any + Send>) -> EvalError {
    let payload = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    };
    EvalError::WorkerPanicked { payload }
}

/// Executes one round: runs `tasks` in order on the calling thread through
/// the blocked executor into `sink`, stopping at the first governance break.
/// A panic inside the round returns [`EvalError::WorkerPanicked`].
fn run_round_tasks(
    tasks: &[RoundTask<'_>],
    (spans, negatives): RoundSources<'_>,
    sink: &mut StagingSink<'_>,
    scratch: &mut ExecScratch,
    metrics: &mut EvalMetrics,
) -> Result<(), EvalError> {
    catch_unwind(AssertUnwindSafe(|| {
        for task in tasks {
            fail_point("round-task");
            let input = JoinInput {
                total: sink.total,
                // invariant: `fixpoint` sets `delta_pos` only on the tasks of
                // delta rounds, which always pass the round's spans.
                delta: task.delta_pos.map(|i| {
                    let spans = spans.expect("delta tasks only occur in delta rounds");
                    (i, DeltaSource::Spans(spans))
                }),
                sides: None,
                negatives,
                governor: sink.governor,
            };
            let head = task.head;
            let mut emit = |h: u64, row: &[Const]| sink.emit(head, h, row);
            if exec_plan(task.plan, &input, scratch, metrics, &mut emit).is_break() {
                break;
            }
        }
    }))
    .map_err(round_panicked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::{Budget, Completion, Resource};
    use crate::naive::eval_naive;
    use alexander_parser::parse;

    const TC: &str = "
        e(a, b). e(b, c). e(c, d). e(d, e5). e(e5, f).
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
    ";

    #[test]
    fn agrees_with_naive_on_tc() {
        let parsed = parse(TC).unwrap();
        let edb = Database::new();
        let naive = eval_naive(&parsed.program, &edb).unwrap();
        let semi = eval_seminaive(&parsed.program, &edb).unwrap();
        let tc = Predicate::new("tc", 2);
        assert_eq!(naive.db.len_of(tc), semi.db.len_of(tc));
        assert_eq!(semi.db.len_of(tc), 15); // C(6,2) pairs on a 6-node chain
        assert!(semi.completion.is_complete());
    }

    #[test]
    fn seminaive_rederives_less_than_naive() {
        let parsed = parse(TC).unwrap();
        let edb = Database::new();
        let naive = eval_naive(&parsed.program, &edb).unwrap();
        let semi = eval_seminaive(&parsed.program, &edb).unwrap();
        assert!(
            semi.metrics.duplicate_facts < naive.metrics.duplicate_facts,
            "semi-naive {} vs naive {}",
            semi.metrics.duplicate_facts,
            naive.metrics.duplicate_facts
        );
        assert_eq!(semi.metrics.new_facts, naive.metrics.new_facts);
    }

    #[test]
    fn nonlinear_rules_use_delta_at_each_position() {
        // Nonlinear transitive closure: tc(X,Y) :- tc(X,Z), tc(Z,Y).
        let parsed = parse(
            "
            e(a, b). e(b, c). e(c, d).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let r = eval_seminaive(&parsed.program, &Database::new()).unwrap();
        assert_eq!(r.db.len_of(Predicate::new("tc", 2)), 6);
        assert!(r
            .db
            .relation(Predicate::new("tc", 2))
            .unwrap()
            .contains_row(&[Const::sym("a"), Const::sym("d")]));
    }

    #[test]
    fn same_generation_nonrecursive_base() {
        let parsed = parse(
            "
            up(a, b). up(c, b). flat(b, b2). up(x, b). down(b2, y).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
        ",
        )
        .unwrap();
        let r = eval_seminaive(&parsed.program, &Database::new()).unwrap();
        let sg = Predicate::new("sg", 2);
        // sg(b, b2) from flat; sg(a,y), sg(c,y), sg(x,y) from the recursion.
        assert_eq!(r.db.len_of(sg), 4);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let parsed = parse(
            "
            e(a, b). e(b, a).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let r = eval_seminaive(&parsed.program, &Database::new()).unwrap();
        assert_eq!(r.db.len_of(Predicate::new("tc", 2)), 4); // aa ab ba bb
    }

    #[test]
    fn mutually_recursive_predicates() {
        // Even/odd distance from a.
        let parsed = parse(
            "
            e(a, b). e(b, c). e(c, d).
            even(a).
            odd(Y) :- even(X), e(X, Y).
            even(Y) :- odd(X), e(X, Y).
        ",
        )
        .unwrap();
        let r = eval_seminaive(&parsed.program, &Database::new()).unwrap();
        let even = Predicate::new("even", 1);
        let odd = Predicate::new("odd", 1);
        assert_eq!(r.db.len_of(even), 2); // a, c
        assert_eq!(r.db.len_of(odd), 2); // b, d
    }

    /// Emits the unary row `sym` of derived predicate `slot` through
    /// `sink`, as the executor would.
    fn emit(sink: &mut StagingSink<'_>, slot: usize, sym: &str) -> Emitted {
        let row = [Const::sym(sym)];
        sink.emit(slot, alexander_ir::hash_row(&row), &row)
    }

    /// The rendered rows of one staging buffer, in staged order.
    fn staged_rows(rows: &StagedRows) -> Vec<String> {
        (0..rows.len())
            .map(|i| rows.row(i)[0].to_string())
            .collect()
    }

    #[test]
    fn staging_sink_classifies_every_outcome() {
        let derived = [Predicate::new("p", 1), Predicate::new("q", 1)];
        let (p, q) = (0, 1);
        let mut total = Database::new();
        total.insert_row(derived[p], &[Const::sym("old")]);
        let buffers = || derived.map(|d| StagedRows::new(d.arity));

        // Below the budget's room every emission is staged unclassified,
        // and the fold classifies: a duplicate of the total, a repeat, and
        // three new rows in emission order.
        let roomy = Governor::new(Budget::default().with_max_facts(6));
        for governor in [None, Some(&roomy)] {
            let mut staged = buffers();
            let mut sink = StagingSink::new(&total, &derived, &mut staged, governor);
            for (slot, sym) in [(p, "old"), (p, "a"), (q, "a"), (p, "a"), (p, "b")] {
                assert_eq!(emit(&mut sink, slot, sym), Emitted::Staged);
            }
            assert!(!sink.exact);
            let mut db = total.clone();
            let mut m = EvalMetrics::default();
            let (spans, added) = fold_round(&mut db, &derived, &mut staged, &mut m);
            assert_eq!((added, m.new_facts, m.duplicate_facts), (3, 3, 2));
            assert_eq!(spans.get(derived[p]), Some((1, 3)));
            assert_eq!(db.relation(derived[p]).unwrap().row(2), &[Const::sym("b")]);
            assert!(staged.iter().all(StagedRows::is_empty), "the fold empties");
        }
        assert!(roomy.claim_fact().is_continue(), "staging claims nothing");

        // Once the staged rows reach the room, the buffers compact, their
        // rows are claimed, and every later emission is classified: against
        // the total, against the buffer, and refused past the budget.
        let tight = Governor::new(Budget::default().with_max_facts(3));
        let mut staged = buffers();
        let mut sink = StagingSink::new(&total, &derived, &mut staged, Some(&tight));
        for (slot, sym) in [(p, "old"), (p, "a"), (p, "a")] {
            assert_eq!(emit(&mut sink, slot, sym), Emitted::Staged);
        }
        assert_eq!(emit(&mut sink, q, "a"), Emitted::Staged, "new: claimed");
        assert!(sink.exact);
        assert_eq!(sink.dropped, 2, "the compaction dropped `old` and a repeat");
        assert_eq!(emit(&mut sink, p, "old"), Emitted::Duplicate, "vs total");
        assert_eq!(emit(&mut sink, p, "a"), Emitted::Duplicate, "vs staged");
        assert_eq!(emit(&mut sink, p, "b"), Emitted::Staged, "the last slot");
        assert_eq!(emit(&mut sink, p, "c"), Emitted::Refused);
        assert_eq!(emit(&mut sink, q, "a"), Emitted::Duplicate, "no claim");
        assert_eq!(staged_rows(&staged[p]), ["a", "b"]);
        assert_eq!(staged_rows(&staged[q]), ["a"]);
        assert_eq!(
            tight.completion(),
            Completion::BudgetExhausted {
                resource: Resource::Facts
            }
        );

        // A budget with no room left classifies from the first emission.
        let spent = Governor::new(Budget::default().with_max_facts(0));
        let mut staged = buffers();
        let mut sink = StagingSink::new(&total, &derived, &mut staged, Some(&spent));
        assert_eq!(emit(&mut sink, p, "old"), Emitted::Duplicate);
        assert_eq!(emit(&mut sink, p, "a"), Emitted::Refused);
        assert!(staged.iter().all(StagedRows::is_empty));
    }

    #[test]
    fn compaction_keeps_first_occurrences_and_drops_the_total() {
        let derived = [Predicate::new("p", 1)];
        let mut total = Database::new();
        total.insert_row(derived[0], &[Const::sym("n0")]);
        let mut staged = [StagedRows::new(1)];
        let mut sink = StagingSink::new(&total, &derived, &mut staged, None);
        // `n0` .. `n299` cyclically, newest last: the emission one past
        // `COMPACT_ROWS` compacts the buffer to the 299 first occurrences
        // the total lacks.
        let sym = |i: usize| format!("n{}", (i * 7) % 300);
        for i in 0..=COMPACT_ROWS {
            assert_eq!(emit(&mut sink, 0, &sym(i)), Emitted::Staged);
        }
        let dropped = sink.dropped;
        assert_eq!(dropped, (COMPACT_ROWS + 1 - 299) as u64);
        let mut want: Vec<String> = Vec::new();
        for i in 0..=COMPACT_ROWS {
            let s = sym(i);
            if s != "n0" && !want.contains(&s) {
                want.push(s);
            }
        }
        assert_eq!(staged_rows(&staged[0]), want, "first occurrences, in order");
        assert_eq!(staged[0].distinct(), 299);
    }

    #[test]
    fn negated_idb_is_rejected_here_too() {
        let parsed = parse("q(a). p(X) :- q(X). r(X) :- q(X), !p(X).").unwrap();
        assert!(matches!(
            eval_seminaive(&parsed.program, &Database::new()),
            Err(EvalError::NegatedIdb(_))
        ));
    }

    #[test]
    fn edb_passed_externally() {
        let parsed = parse("tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).").unwrap();
        let mut edb = Database::new();
        let e = Predicate::new("e", 2);
        for i in 0..20 {
            edb.insert_row(
                e,
                &[
                    Const::sym(&format!("n{i}")),
                    Const::sym(&format!("n{}", i + 1)),
                ],
            );
        }
        let r = eval_seminaive(&parsed.program, &edb).unwrap();
        assert_eq!(r.db.len_of(Predicate::new("tc", 2)), 20 * 21 / 2);
    }

    #[test]
    fn fact_budget_is_exact_sequentially() {
        let parsed = parse(TC).unwrap();
        let edb = Database::new();
        let full = eval_seminaive(&parsed.program, &edb).unwrap();
        let tc = Predicate::new("tc", 2);
        for budget in [1, 5, 10] {
            let limited = eval_seminaive_opts(
                &parsed.program,
                &edb,
                EvalOptions::default().with_budget(Budget::default().with_max_facts(budget)),
            )
            .unwrap();
            assert_eq!(
                limited.completion,
                Completion::BudgetExhausted {
                    resource: Resource::Facts
                }
            );
            assert_eq!(limited.db.len_of(tc), budget as usize);
            for row in limited.db.relation(tc).unwrap().iter() {
                assert!(full.db.relation(tc).unwrap().contains_row(row));
            }
        }
        // A budget the fixpoint exactly fits in must complete.
        let exact = eval_seminaive_opts(
            &parsed.program,
            &edb,
            EvalOptions::default()
                .with_budget(Budget::default().with_max_facts(full.metrics.new_facts)),
        )
        .unwrap();
        assert!(exact.completion.is_complete());
        assert_eq!(exact.db.len_of(tc), full.db.len_of(tc));
    }

    #[test]
    fn round_budget_limits_iterations() {
        let parsed = parse(TC).unwrap();
        let r = eval_seminaive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default().with_budget(Budget::default().with_max_rounds(2)),
        )
        .unwrap();
        assert_eq!(
            r.completion,
            Completion::BudgetExhausted {
                resource: Resource::Rounds
            }
        );
        assert_eq!(r.metrics.iterations, 2);
    }
}
