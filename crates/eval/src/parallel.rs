//! Parallel naive evaluation: within each fixpoint round, rules are joined
//! concurrently over the (immutable) current database using `std::thread`
//! scoped threads, and the per-rule results are merged afterwards.
//!
//! This exists as an ablation point: round-level parallelism is the natural
//! "free" parallelisation of bottom-up Datalog, and the benchmark harness
//! compares it against the sequential evaluators. The parallel *semi-naive*
//! evaluator lives in [`crate::seminaive`] and shares the same freeze →
//! fan-out → merge round structure, the same panic isolation (a worker
//! panic surfaces as [`EvalError::WorkerPanicked`], never an abort), and
//! the same governance checks (round boundary + per-emission).

use crate::error::EvalError;
use crate::exec::{exec_plan, ExecScratch};
use crate::fail_point;
use crate::govern::Governor;
use crate::join::{compile_rule, ensure_rule_indexes, CompiledRule, Emitted, JoinInput};
use crate::metrics::EvalMetrics;
use crate::naive::{check_semipositive, seed_database, EvalOptions, EvalResult};
use crate::plan::{compile_plans, RulePlan};
use crate::seminaive::payload_string;
use alexander_ir::{Predicate, Program};
use alexander_storage::Database;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs naive evaluation with `threads` worker threads per round.
pub fn eval_naive_parallel(
    program: &Program,
    edb: &Database,
    threads: usize,
) -> Result<EvalResult, EvalError> {
    eval_naive_parallel_opts(program, edb, &EvalOptions::with_threads(threads))
}

/// [`eval_naive_parallel`] with full options (budget, cancellation).
pub fn eval_naive_parallel_opts(
    program: &Program,
    edb: &Database,
    opts: &EvalOptions,
) -> Result<EvalResult, EvalError> {
    program.validate().map_err(EvalError::Invalid)?;
    check_semipositive(program)?;
    let rules: Vec<CompiledRule> = program
        .rules
        .iter()
        .map(|r| compile_rule(r).map_err(EvalError::from))
        .collect::<Result<_, _>>()?;
    let threads = opts.threads.max(1);
    let mut db = seed_database(program, edb);
    let mut metrics = EvalMetrics::default();
    let plans: Vec<RulePlan> = compile_plans(&rules, &mut metrics);
    let gov = Governor::new(opts.budget, opts.cancel.clone());
    let governor = gov.as_join_ref();

    loop {
        if gov.note_round().is_break() {
            break;
        }
        fail_point("round-start");
        metrics.iterations += 1;
        for r in &rules {
            ensure_rule_indexes(r, &mut db);
        }

        // Chunk the rules across workers; each worker derives candidate
        // tuples against the frozen database, deduplicating through a
        // worker-local staging database (plus an ordered derivation log) so
        // its own counters match what a sequential pass over the same rules
        // would report. Workers catch their own panics; a panic is surfaced
        // after all siblings drain.
        let chunk = plans.len().div_ceil(threads);
        let db_ref = &db;
        type WorkerOut = (EvalMetrics, Database, Vec<(Predicate, u32)>);
        let results: Vec<std::thread::Result<WorkerOut>> = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .chunks(chunk.max(1))
                .map(|chunk_plans| {
                    scope.spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| {
                            let mut local_metrics = EvalMetrics::default();
                            let mut staging = Database::new();
                            let mut log: Vec<(Predicate, u32)> = Vec::new();
                            let mut scratch = ExecScratch::new();
                            for plan in chunk_plans {
                                fail_point("round-worker");
                                let head = plan.head_pred;
                                let input = JoinInput {
                                    total: db_ref,
                                    delta: None,
                                    sides: None,
                                    negatives: None,
                                    governor,
                                };
                                let flow = exec_plan(
                                    plan,
                                    &input,
                                    &mut scratch,
                                    &mut local_metrics,
                                    &mut |h, row| {
                                        if db_ref.contains_row_hashed(head, h, row) {
                                            return Emitted::Duplicate;
                                        }
                                        if staging.contains_row_hashed(head, h, row) {
                                            return Emitted::Duplicate;
                                        }
                                        if governor.is_some_and(|g| g.claim_fact().is_break()) {
                                            return Emitted::Refused;
                                        }
                                        staging.insert_row_hashed(head, h, row);
                                        log.push((head, staging.len_of(head) as u32 - 1));
                                        Emitted::New
                                    },
                                );
                                if flow.is_break() {
                                    break;
                                }
                            }
                            (local_metrics, staging, log)
                        }))
                    })
                })
                .collect();
            handles
                .into_iter()
                // invariant: the worker catches its own panics via
                // catch_unwind, so the thread never terminates by panic.
                .map(|h| {
                    h.join()
                        .expect("worker panics are caught inside the worker")
                })
                .collect()
        });

        let mut panicked: Option<String> = None;
        let mut survived: Vec<WorkerOut> = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Ok(out) => survived.push(out),
                Err(p) => {
                    if panicked.is_none() {
                        panicked = Some(payload_string(p));
                    }
                }
            }
        }
        if let Some(payload) = panicked {
            return Err(EvalError::WorkerPanicked { payload });
        }

        let mut grew = false;
        for (m, staging, log) in survived {
            metrics += m;
            for (p, id) in log {
                // invariant: every log entry was appended right after its
                // row was inserted into the worker's staging database.
                let row = staging
                    .relation(p)
                    .expect("logged predicate exists in staging")
                    .row(id);
                if db.insert_row(p, row) {
                    grew = true;
                } else {
                    // Two workers derived the same fresh fact: the sequential
                    // evaluator would have counted the second derivation as a
                    // duplicate, so reclassify it at merge time. Metrics stay
                    // exactly equal to the sequential run.
                    metrics.new_facts -= 1;
                    metrics.duplicate_facts += 1;
                }
            }
        }
        if gov.should_stop() || !grew {
            break;
        }
    }
    Ok(EvalResult {
        db,
        metrics,
        completion: gov.completion(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::{Budget, Completion};
    use crate::naive::eval_naive;
    use alexander_ir::Predicate;
    use alexander_parser::parse;

    #[test]
    fn parallel_matches_sequential_answers() {
        let parsed = parse(
            "
            e(a, b). e(b, c). e(c, d). e(d, e5).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            inv(Y, X) :- e(X, Y).
            two(X, Y) :- e(X, Z), e(Z, Y).
        ",
        )
        .unwrap();
        let seq = eval_naive(&parsed.program, &Database::new()).unwrap();
        for threads in [1, 2, 4] {
            let par = eval_naive_parallel(&parsed.program, &Database::new(), threads).unwrap();
            for p in [
                Predicate::new("tc", 2),
                Predicate::new("inv", 2),
                Predicate::new("two", 2),
            ] {
                assert_eq!(seq.db.len_of(p), par.db.len_of(p), "{p} @ {threads}");
            }
            assert_eq!(seq.metrics, par.metrics, "metrics @ {threads} threads");
            assert!(par.completion.is_complete());
        }
    }

    #[test]
    fn cross_worker_duplicates_are_reclassified() {
        // Both rules derive same(X, X) from the same EDB; with 2 workers they
        // land in different chunks, so every fact is derived fresh by both
        // workers and the merge must reclassify one derivation as a duplicate.
        let parsed = parse(
            "
            n(a). n(b). n(c).
            same(X, X) :- n(X).
            same(Y, Y) :- n(Y).
        ",
        )
        .unwrap();
        let seq = eval_naive(&parsed.program, &Database::new()).unwrap();
        let par = eval_naive_parallel(&parsed.program, &Database::new(), 2).unwrap();
        assert_eq!(seq.db.len_of(Predicate::new("same", 2)), 3);
        assert_eq!(seq.metrics, par.metrics);
        assert!(par.metrics.duplicate_facts >= 3, "{}", par.metrics);
    }

    #[test]
    fn zero_threads_is_clamped() {
        let parsed = parse("e(a, b). p(X) :- e(X, Y).").unwrap();
        let r = eval_naive_parallel(&parsed.program, &Database::new(), 0).unwrap();
        assert_eq!(r.db.len_of(Predicate::new("p", 1)), 1);
    }

    #[test]
    fn fact_budget_stops_parallel_rounds_with_sound_subset() {
        let parsed = parse(
            "
            e(a, b). e(b, c). e(c, d). e(d, e5).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let full = eval_naive(&parsed.program, &Database::new()).unwrap();
        let tc = Predicate::new("tc", 2);
        for threads in [1, 2, 4] {
            let opts =
                EvalOptions::with_threads(threads).with_budget(Budget::default().with_max_facts(3));
            let r = eval_naive_parallel_opts(&parsed.program, &Database::new(), &opts).unwrap();
            assert!(
                matches!(r.completion, Completion::BudgetExhausted { .. }),
                "@ {threads} threads: {:?}",
                r.completion
            );
            assert!(r.db.len_of(tc) <= 3, "@ {threads} threads");
            for row in r.db.relation(tc).unwrap().iter() {
                assert!(full.db.relation(tc).unwrap().contains_row(row));
            }
        }
    }

    #[test]
    fn round_budget_stops_parallel_loop() {
        let parsed = parse(
            "
            e(a, b). e(b, c). e(c, d). e(d, e5).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let r = eval_naive_parallel_opts(
            &parsed.program,
            &Database::new(),
            &EvalOptions::with_threads(2).with_budget(Budget::default().with_max_rounds(1)),
        )
        .unwrap();
        assert!(!r.completion.is_complete());
        assert_eq!(r.metrics.iterations, 1);
    }
}
