//! The fixpoint round executor, and semi-naive evaluation on top of it.
//!
//! Every bottom-up fixpoint in this crate — naive, semi-naive, each stratum
//! of the stratified evaluator, phase 0 of the conditional one — is the one
//! loop in `fixpoint`, and every round of it runs through one executor
//! (`run_round_tasks` → `run_chunk`) into one sink (`StagingSink`). Naive
//! and semi-naive differ only in which tasks a round holds: naive
//! applies every rule to the whole database every round; semi-naive, after
//! the first round, restricts one body literal per task to the facts the
//! previous round discovered (the *delta*), eliminating the bulk of naive
//! evaluation's re-derivations.
//!
//! ## Range deltas
//!
//! Because [`Database::merge`] appends each relation's new rows as a
//! contiguous id suffix, a round's delta is not a separate database but a
//! [`DeltaSpans`] — per-predicate `(lo, hi)` id ranges into the total. A
//! delta-restricted literal probes the total's own indexes and narrows the
//! (id-sorted) posting list to the range with two binary searches, so no
//! per-round delta relations or delta indexes are ever built.
//!
//! ## One executor, one sink
//!
//! A round's total is read-only for the round's duration; all indexes are
//! built up front by the single-threaded prelude. `run_chunk` runs a slice
//! of the round's tasks through the blocked executor and hands every derived
//! head row to `StagingSink::emit`, the single place a row is classified:
//! duplicate of the total, duplicate of the staging database, refused by the
//! fact budget, or new (and staged). With one thread (or one task) the chunk
//! is the whole round, run inline, staging straight into the round's output.
//!
//! With `EvalOptions::threads > 1` the tasks fan out over scoped workers
//! sharing one `&Database` of the total, which no one can write while they
//! hold it. A task is one rule — or, in a
//! delta round, one `(rule, delta position)` variant, so a program with
//! fewer rules than threads still splits. Each worker runs the same
//! `run_chunk` into a sink over a worker-local staging database that also
//! keeps an ordered log of what it staged.
//!
//! What the merge guarantees: workers are joined, then a single thread
//! replays their logs in task order into the round's output. A fact two
//! workers both staged was counted new by each; the merge demotes the later
//! copies to duplicates. So the output's insertion order, the relations and
//! every [`EvalMetrics`] counter are bit-identical to the one-thread run at
//! any thread count — `new_facts` counts the distinct facts absent from the
//! total, a property of the round's input, not of task scheduling.
//!
//! A panic in any chunk — inline or on a worker, after every sibling is
//! joined — surfaces as [`EvalError::WorkerPanicked`], never as an unwind
//! through the caller or a process abort.
//!
//! ## Governance
//!
//! A [`Governor`] (from [`crate::govern`]) rides along when the options
//! carry a budget: rounds check it at their boundary, the executor's sink
//! checks the deadline once per block, and new facts are claimed against
//! the fact budget *before* insertion. On a trip the current round's
//! accepted facts are still merged (they are sound) and the run reports a
//! non-`Complete` [`crate::Completion`].

use crate::error::EvalError;
use crate::exec::{exec_plan, ExecScratch};
use crate::fail_point;
use crate::govern::Governor;
use crate::join::{
    compile_rule, ensure_rule_indexes, CompiledRule, DeltaSource, Emitted, JoinInput,
};
use crate::metrics::EvalMetrics;
use crate::naive::{check_semipositive, seed_database, EvalOptions, EvalResult};
use crate::plan::{compile_plans, RulePlan};
use alexander_ir::{Const, Polarity, Predicate, Program, Rule};
use alexander_storage::{Database, DeltaSpans};
use std::panic::{catch_unwind, AssertUnwindSafe};

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
/// Every round runs through [`run_round_tasks`] and ends when a round adds
/// nothing. With `delta_rounds` the rounds after the first are semi-naive —
/// the delta tracks only the head predicates of `rules`; facts of other
/// predicates are static during the run. Without it every round re-applies
/// every rule to the whole database (naive evaluation).
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
    let derived: Vec<Predicate> = {
        let mut ps: Vec<Predicate> = compiled.iter().map(|r| r.head.pred).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    };

    // Rule plans, compiled once and shared read-only by every round and
    // worker.
    let plans: Vec<RulePlan> = compile_plans(&compiled, metrics);

    let governor = gov.filter(|g| g.active());
    let threads = opts.threads.max(1);

    // One scratch, staging database and task list for the whole fixpoint:
    // round N+1 reuses round N's grown buffers (rows cleared, allocations
    // kept), so steady-state rounds stage and merge without touching the
    // allocator. The parallel fan-out keeps per-worker scratches instead.
    let mut scratch = ExecScratch::new();
    let mut staged = Database::new();
    let mut tasks: Vec<RoundTask<'_>> = Vec::new();

    // The previous round's delta: the id ranges its merge appended. `None`
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
        staged.clear_retaining();
        tasks.clear();
        for (rule, plan) in compiled.iter().zip(&plans) {
            let Some(spans) = &spans else {
                tasks.push(RoundTask {
                    plan,
                    delta_pos: None,
                });
                continue;
            };
            // Every derived-predicate literal takes a turn as the delta
            // position; each (rule, position) pair is one task. The round
            // probes the total's indexes (kept fresh by `insert_row`) and
            // never builds delta indexes.
            for (i, lit) in rule.body.iter().enumerate() {
                if lit.polarity == Polarity::Positive
                    && derived.binary_search(&lit.atom.pred).is_ok()
                    && spans.len_of(lit.atom.pred) > 0
                {
                    tasks.push(RoundTask {
                        plan,
                        delta_pos: Some(i),
                    });
                }
            }
        }
        let mut sink = StagingSink {
            total: db,
            staged: &mut staged,
            log: None,
            governor,
        };
        let round = (spans.as_ref(), negatives);
        run_round_tasks(&tasks, round, threads, &mut sink, &mut scratch, metrics)?;
        // Facts staged before a governance stop are sound: keep them.
        if db.absorb_staged(&staged) == 0 || governor.is_some_and(|g| g.should_stop()) {
            return Ok(());
        }
        if delta_rounds {
            spans = Some(DeltaSpans::after_merge(db, &staged));
        }
    }
}

/// One unit of per-round work: a rule's plan, optionally specialised to a
/// delta position (one delta-rewriting variant).
struct RoundTask<'a> {
    plan: &'a RulePlan,
    delta_pos: Option<usize>,
}

/// What a round's tasks read besides the total: the delta spans (delta
/// rounds only) and the negative-literal source.
type RoundSources<'a> = (Option<&'a DeltaSpans>, Option<&'a Database>);

/// Where every derived head row of a round lands — the single place a row
/// is classified as duplicate, refused, or new.
struct StagingSink<'a> {
    /// The round's total, immutable while the round runs.
    total: &'a Database,
    /// Facts accepted so far this round; doubles as the dedup set.
    staged: &'a mut Database,
    /// Fan-out workers record each accepted row's `(predicate, staging id)`
    /// in emission order, so the merge can replay them deterministically.
    log: Option<Vec<(Predicate, u32)>>,
    governor: Option<&'a Governor>,
}

impl StagingSink<'_> {
    #[inline]
    fn emit(&mut self, pred: Predicate, h: u64, row: &[Const]) -> Emitted {
        if self.total.contains_row_hashed(pred, h, row) {
            return Emitted::Duplicate;
        }
        match self.governor {
            // Ungoverned: no claim can refuse, so newness comes straight off
            // the staging insert — one staging lookup, not a contains/insert
            // pair.
            None => {
                if !self.staged.insert_row_hashed(pred, h, row) {
                    return Emitted::Duplicate;
                }
            }
            Some(gov) => {
                if self.staged.contains_row_hashed(pred, h, row) {
                    return Emitted::Duplicate;
                }
                if gov.claim_fact().is_break() {
                    return Emitted::Refused;
                }
                // Both contains checks just proved the row absent, so skip
                // insert's dedup find.
                self.staged.push_new_row_hashed(pred, h, row);
            }
        }
        if let Some(log) = &mut self.log {
            log.push((pred, self.staged.len_of(pred) as u32 - 1));
        }
        Emitted::New
    }
}

/// Runs `tasks` in order through the blocked executor into `sink`, stopping
/// at the first governance break. The whole round when sequential; one
/// worker's share in the fan-out.
fn run_chunk(
    tasks: &[RoundTask<'_>],
    (spans, negatives): RoundSources<'_>,
    sink: &mut StagingSink<'_>,
    scratch: &mut ExecScratch,
    metrics: &mut EvalMetrics,
) {
    for task in tasks {
        fail_point("round-worker");
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
        let head = task.plan.head_pred;
        let mut emit = |h: u64, row: &[Const]| sink.emit(head, h, row);
        if exec_plan(task.plan, &input, scratch, metrics, &mut emit).is_break() {
            break;
        }
    }
}

/// Maps a caught panic payload to [`EvalError::WorkerPanicked`].
fn worker_panicked(payload: Box<dyn std::any::Any + Send>) -> EvalError {
    let payload = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    };
    EvalError::WorkerPanicked { payload }
}

/// Executes one round's tasks, staging fresh derivations through `sink`.
///
/// With one thread (or one task) the tasks run in order on the calling
/// thread straight into `sink`. Otherwise they fan out over scoped workers,
/// each running the same [`run_chunk`] into a worker-local sink, and a
/// single-threaded merge replays the workers' logs into `sink.staged`.
/// Either way the staged facts and every metrics counter come out identical
/// (see the module docs), and a panic in any chunk returns
/// [`EvalError::WorkerPanicked`] once every worker is joined.
fn run_round_tasks(
    tasks: &[RoundTask<'_>],
    round: RoundSources<'_>,
    threads: usize,
    sink: &mut StagingSink<'_>,
    scratch: &mut ExecScratch,
    metrics: &mut EvalMetrics,
) -> Result<(), EvalError> {
    if threads <= 1 || tasks.len() <= 1 {
        return catch_unwind(AssertUnwindSafe(|| {
            run_chunk(tasks, round, sink, scratch, metrics)
        }))
        .map_err(worker_panicked);
    }

    let (total, governor) = (sink.total, sink.governor);
    type WorkerOut = (EvalMetrics, Database, Vec<(Predicate, u32)>);
    let results: Vec<std::thread::Result<WorkerOut>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .chunks(tasks.len().div_ceil(threads))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut local = EvalMetrics::default();
                    let mut staged = Database::new();
                    let mut sink = StagingSink {
                        total,
                        staged: &mut staged,
                        log: Some(Vec::new()),
                        governor,
                    };
                    run_chunk(chunk, round, &mut sink, &mut ExecScratch::new(), &mut local);
                    let log = sink.log.unwrap_or_default();
                    (local, staged, log)
                })
            })
            .collect();
        // Joining every handle by hand hands a worker's panic back as its
        // `Err` payload; the scope only re-raises panics nobody collected.
        handles.into_iter().map(|h| h.join()).collect()
    });
    // All workers are drained at this point; surface the first panic as a
    // structured error instead of a process abort.
    let outs: Vec<WorkerOut> = results
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(worker_panicked)?;

    // Single-threaded merge, in task order so the staging insertion order
    // (and hence all downstream iteration) matches the sequential run. A
    // fact two workers both derived was provisionally counted new by each;
    // demote the later copies so the totals equal the sequential
    // classification.
    for (local, staged, log) in outs {
        *metrics += local;
        for (p, id) in log {
            // invariant: every log entry was appended right after its row
            // was inserted into the worker's staging database.
            let rel = staged
                .relation(p)
                .expect("logged predicate exists in staging");
            let (row, h) = (rel.row(id), rel.row_hashes()[id as usize]);
            if !sink.staged.insert_row_hashed(p, h, row) {
                metrics.new_facts -= 1;
                metrics.duplicate_facts += 1;
            }
        }
    }
    Ok(())
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

    #[test]
    fn thread_count_changes_neither_relations_nor_metrics() {
        // Nonlinear same-generation: multiple rules and delta positions per
        // round, so work genuinely splits across workers.
        let parsed = parse(
            "
            up(a, b). up(c, b). flat(b, b2). up(x, b). down(b2, y).
            e(a, b). e(b, c). e(c, d).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let edb = Database::new();
        let seq = eval_seminaive(&parsed.program, &edb).unwrap();
        for threads in [2, 4, 8] {
            let par =
                eval_seminaive_opts(&parsed.program, &edb, EvalOptions::with_threads(threads))
                    .unwrap();
            assert_eq!(seq.metrics, par.metrics, "metrics @ {threads} threads");
            assert_eq!(seq.db.predicates(), par.db.predicates());
            for p in seq.db.predicates() {
                assert_eq!(seq.db.atoms_of(p), par.db.atoms_of(p), "{p} @ {threads}");
            }
        }
    }

    /// Emits the unary row `pred(sym)` through `sink`, as the executor would.
    fn emit(sink: &mut StagingSink<'_>, pred: Predicate, sym: &str) -> Emitted {
        let row = [Const::sym(sym)];
        sink.emit(pred, alexander_ir::hash_row(&row), &row)
    }

    #[test]
    fn staging_sink_classifies_every_outcome() {
        let (p, q) = (Predicate::new("p", 1), Predicate::new("q", 1));
        let mut total = Database::new();
        total.insert_row(p, &[Const::sym("old")]);

        // Ungoverned, then governed with exactly the three new rows' worth
        // of budget: one classification.
        let exact = Governor::new(Budget::default().with_max_facts(3));
        for governor in [None, Some(&exact)] {
            let mut staged = Database::new();
            let mut sink = StagingSink {
                total: &total,
                staged: &mut staged,
                log: Some(Vec::new()),
                governor,
            };
            assert_eq!(emit(&mut sink, p, "old"), Emitted::Duplicate, "vs total");
            assert_eq!(emit(&mut sink, p, "a"), Emitted::New);
            assert_eq!(emit(&mut sink, q, "a"), Emitted::New);
            assert_eq!(emit(&mut sink, p, "a"), Emitted::Duplicate, "vs staged");
            assert_eq!(emit(&mut sink, p, "b"), Emitted::New);
            // The log holds each accepted row's staging id, in emission order.
            assert_eq!(sink.log, Some(vec![(p, 0), (q, 0), (p, 1)]));
            assert_eq!(staged.relation(p).unwrap().row(1), &[Const::sym("b")]);
            assert_eq!(staged.total_tuples(), 3);
        }
        // The three new rows took the whole budget; duplicates claimed nothing.
        assert!(exact.completion().is_complete());
        assert!(exact.claim_fact().is_break(), "duplicates claim nothing");

        // An exhausted fact budget refuses the next new row and stages
        // nothing for it; duplicates still classify without a claim.
        let spent = Governor::new(Budget::default().with_max_facts(1));
        let mut staged = Database::new();
        let mut sink = StagingSink {
            total: &total,
            staged: &mut staged,
            log: None,
            governor: Some(&spent),
        };
        assert_eq!(emit(&mut sink, p, "a"), Emitted::New);
        assert_eq!(emit(&mut sink, p, "b"), Emitted::Refused);
        assert_eq!(emit(&mut sink, p, "a"), Emitted::Duplicate);
        assert_eq!(emit(&mut sink, p, "old"), Emitted::Duplicate);
        assert_eq!(sink.log, None);
        assert_eq!(staged.total_tuples(), 1, "the refused row was not staged");
        assert_eq!(
            spent.completion(),
            Completion::BudgetExhausted {
                resource: Resource::Facts
            }
        );
    }

    #[test]
    fn two_thread_merge_matches_the_sequential_classification() {
        // Both rules derive the same three head rows. Sequentially the second
        // rule's derivations are duplicates of the staging database; with two
        // workers each rule stages all three and the merge must demote one
        // copy of each.
        let parsed = parse("n(a). n(b). n(c). same(X, X) :- n(X). same(Y, Y) :- n(Y).").unwrap();
        let mut total = seed_database(&parsed.program, &Database::new());
        let compiled: Vec<CompiledRule> = parsed
            .program
            .rules
            .iter()
            .map(|r| compile_rule(r).unwrap())
            .collect();
        for r in &compiled {
            ensure_rule_indexes(r, &mut total);
        }
        let plans: Vec<RulePlan> = compiled.iter().map(crate::plan::compile_plan).collect();
        let tasks: Vec<RoundTask<'_>> = plans
            .iter()
            .map(|plan| RoundTask {
                plan,
                delta_pos: None,
            })
            .collect();
        let round = |threads| {
            let (mut staged, mut metrics) = (Database::new(), EvalMetrics::default());
            let mut sink = StagingSink {
                total: &total,
                staged: &mut staged,
                log: None,
                governor: None,
            };
            let mut scratch = ExecScratch::new();
            run_round_tasks(
                &tasks,
                (None, None),
                threads,
                &mut sink,
                &mut scratch,
                &mut metrics,
            )
            .unwrap();
            (staged, metrics)
        };
        let (seq_staged, seq) = round(1);
        let (par_staged, par) = round(2);
        assert_eq!((seq.new_facts, seq.duplicate_facts), (3, 3));
        assert_eq!(par, seq, "merged counters equal the sequential ones");
        let same = Predicate::new("same", 2);
        assert_eq!(par_staged.atoms_of(same), seq_staged.atoms_of(same));
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
    fn fact_budget_in_parallel_rounds_yields_sound_subset() {
        let parsed = parse(TC).unwrap();
        let edb = Database::new();
        let full = eval_seminaive(&parsed.program, &edb).unwrap();
        let tc = Predicate::new("tc", 2);
        for threads in [2, 4, 8] {
            let opts =
                EvalOptions::with_threads(threads).with_budget(Budget::default().with_max_facts(6));
            let limited = eval_seminaive_opts(&parsed.program, &edb, opts).unwrap();
            assert!(!limited.completion.is_complete(), "@ {threads} threads");
            assert!(limited.db.len_of(tc) <= 6);
            for row in limited.db.relation(tc).unwrap().iter() {
                assert!(full.db.relation(tc).unwrap().contains_row(row));
            }
        }
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
