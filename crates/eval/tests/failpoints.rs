//! Fault-injection tests, compiled only with `--features failpoints`.
//!
//! These drive the evaluators through the same entry points production code
//! uses, with panics and delays injected at the instrumented sites, and
//! assert the robustness contract: a panic inside a round becomes a
//! structured [`EvalError::WorkerPanicked`] (never an unwind through the
//! caller), and a slow round trips the wall-clock deadline into a sound
//! partial result.
#![cfg(feature = "failpoints")]

use std::time::{Duration, Instant};

use alexander_eval::failpoints::{self, Action};
use alexander_eval::{
    eval_naive_opts, eval_seminaive_opts, Budget, Completion, EvalError, EvalOptions, Resource,
};
use alexander_parser::parse;
use alexander_storage::Database;

const TC: &str = "
    e(a, b). e(b, c). e(c, d). e(d, e).
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
";

fn assert_worker_panicked(result: Result<alexander_eval::EvalResult, EvalError>, ctx: &str) {
    match result {
        Err(EvalError::WorkerPanicked { payload }) => {
            assert!(
                payload.contains("injected"),
                "{ctx}: payload should carry the injected message, got {payload:?}"
            );
        }
        Err(other) => panic!("{ctx}: expected WorkerPanicked, got {other}"),
        Ok(_) => panic!("{ctx}: expected WorkerPanicked, run succeeded"),
    }
}

#[test]
fn injected_worker_panic_is_a_structured_error() {
    let _guard = failpoints::scoped();
    failpoints::configure("round-task", Action::Panic("injected round panic".into()));
    let parsed = parse(TC).unwrap();
    let edb = Database::new();
    let opts = EvalOptions::default();
    assert_worker_panicked(
        eval_seminaive_opts(&parsed.program, &edb, opts.clone()),
        "seminaive",
    );
    // Naive rounds run on the same executor.
    assert_worker_panicked(eval_naive_opts(&parsed.program, &edb, opts), "naive");
}

#[test]
fn slow_rounds_trip_the_wall_clock_deadline_deterministically() {
    // A 40ms injected delay per round against a 60ms deadline: the run must
    // stop after a bounded number of rounds, well before the ungoverned
    // fixpoint's worth of slow rounds, and report the deadline.
    let _guard = failpoints::scoped();
    failpoints::configure("round-start", Action::Sleep(Duration::from_millis(40)));
    let parsed = parse(TC).unwrap();
    let opts = EvalOptions::default().with_budget(Budget::default().with_timeout_ms(60));
    let started = Instant::now();
    let r = eval_seminaive_opts(&parsed.program, &Database::new(), opts).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(
        r.completion,
        Completion::BudgetExhausted {
            resource: Resource::WallClock
        },
        "expected the deadline to trip, elapsed {elapsed:?}"
    );
    // The full fixpoint needs 5+ rounds (≥200ms of injected sleep); tripping
    // the deadline must cut that short. Generous bound for slow CI machines.
    assert!(
        elapsed < Duration::from_millis(160),
        "deadline overshot: {elapsed:?}"
    );
    // Partial results stay sound: whatever was derived is a subset of the
    // true fixpoint.
    failpoints::clear();
    let full =
        eval_seminaive_opts(&parsed.program, &Database::new(), EvalOptions::default()).unwrap();
    let tc = alexander_ir::Predicate::new("tc", 2);
    let partial: Vec<Vec<alexander_ir::Const>> =
        r.db.relation(tc)
            .map(|rel| rel.iter().map(<[_]>::to_vec).collect())
            .unwrap_or_default();
    for t in &partial {
        assert!(
            full.db.relation(tc).is_some_and(|rel| rel.contains_row(t)),
            "partial fact {t:?} not in the full fixpoint"
        );
    }
}

#[test]
fn alloc_pressure_rounds_still_complete() {
    // Heavy transient allocation per round must not change the result.
    let _guard = failpoints::scoped();
    failpoints::configure("round-start", Action::AllocPressure(4 << 20));
    let parsed = parse(TC).unwrap();
    let r = eval_seminaive_opts(&parsed.program, &Database::new(), EvalOptions::default()).unwrap();
    assert_eq!(r.completion, Completion::Complete);
    let tc = alexander_ir::Predicate::new("tc", 2);
    assert_eq!(r.db.len_of(tc), 10);
}
