//! Fault-injection tests, compiled only with `--features failpoints`.
//!
//! These drive the evaluators through the same entry points production code
//! uses, with panics and delays injected at the instrumented sites, and
//! assert the robustness contract: a panicking worker becomes a structured
//! [`EvalError::WorkerPanicked`] (never a process abort), and a slow round
//! trips the wall-clock deadline into a sound partial result.
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
fn injected_worker_panic_is_a_structured_error_at_every_thread_count() {
    let _guard = failpoints::scoped();
    failpoints::configure(
        "round-worker",
        Action::Panic("injected worker panic".into()),
    );
    let parsed = parse(TC).unwrap();
    let edb = Database::new();
    for threads in [1, 2, 4, 8] {
        let opts = EvalOptions::with_threads(threads);
        assert_worker_panicked(
            eval_seminaive_opts(&parsed.program, &edb, opts.clone()),
            &format!("seminaive, {threads} threads"),
        );
        // Naive rounds run on the same executor, inline at one thread.
        assert_worker_panicked(
            eval_naive_opts(&parsed.program, &edb, opts),
            &format!("naive, {threads} threads"),
        );
    }
}

#[test]
fn naive_rounds_fan_out_across_the_requested_threads() {
    // Four independent rules, each task entry delayed 60ms, two rounds: run
    // in order that is at least 480ms of injected sleep, fanned out over
    // four workers about 120ms. The sleeps are the work being parallelised,
    // so the bound holds however slow the machine is at everything else.
    let _guard = failpoints::scoped();
    failpoints::configure("round-worker", Action::Sleep(Duration::from_millis(60)));
    let parsed = parse(
        "e(a, b).
         v1(X) :- e(X, Y). v2(Y) :- e(X, Y). v3(X, X) :- e(X, Y). v4(Y, X) :- e(X, Y).",
    )
    .unwrap();
    let timed = |threads| {
        let started = Instant::now();
        let r = eval_naive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::with_threads(threads),
        )
        .unwrap();
        assert_eq!(r.metrics.iterations, 2);
        started.elapsed()
    };
    let (seq, par) = (timed(1), timed(4));
    assert!(seq >= Duration::from_millis(480), "sequential: {seq:?}");
    assert!(par * 2 < seq, "4 threads {par:?} vs 1 thread {seq:?}");
}

#[test]
fn injected_panic_surfaces_after_all_workers_drain() {
    // With many threads alive when one panics, the error must still come
    // back through the normal return path — repeatedly, without poisoning
    // any shared state for subsequent clean runs.
    let _guard = failpoints::scoped();
    let parsed = parse(TC).unwrap();
    let edb = Database::new();
    for _ in 0..3 {
        failpoints::configure("round-worker", Action::Panic("injected repeat".into()));
        assert_worker_panicked(
            eval_seminaive_opts(&parsed.program, &edb, EvalOptions::with_threads(4)),
            "repeat run",
        );
        failpoints::remove("round-worker");
        let clean = eval_seminaive_opts(&parsed.program, &edb, EvalOptions::with_threads(4))
            .expect("clean run after a panicked one must succeed");
        assert_eq!(clean.completion, Completion::Complete);
    }
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
