//! End-to-end resource governance through the public engine: an exploding
//! workload under a budget must come back as a sound partial result, on
//! every strategy, in time proportional to the budget — never the (much
//! larger) time of the full fixpoint.

use alexander_core::eval::{eval_seminaive_opts, Budget, Completion, EvalOptions, Resource};
use alexander_core::ir::{Const, Predicate};
use alexander_core::storage::Database;
use alexander_core::{Engine, Strategy};
use alexander_parser::parse_atom;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A 4-way cross product over `n` constants: `p` has n^4 tuples, far more
/// than the fact budgets below, so every strategy must hit the wall.
fn cross_product_source(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        writeln!(src, "d(c{i}).").unwrap();
    }
    src.push_str("p(X, Y, Z, W) :- d(X), d(Y), d(Z), d(W).\n");
    src
}

/// A single cycle of `n` nodes: `tc` has n^2 tuples and needs ~n rounds, so
/// an ungoverned run takes far longer than the deadlines below.
fn big_cycle_source(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        writeln!(src, "e(n{i}, n{}).", (i + 1) % n).unwrap();
    }
    src.push_str("tc(X, Y) :- e(X, Y).\n");
    src.push_str("tc(X, Y) :- e(X, Z), tc(Z, Y).\n");
    src
}

#[test]
fn fact_budget_bounds_every_strategy_at_one_and_four_threads() {
    // (The name predates the removal of the round fan-out; every strategy
    // now runs its rounds on the calling thread.)
    // 12^4 = 20736 potential answers against a 10_000-fact budget: the run
    // must stop early and say so, on every strategy. The 200ms deadline is a
    // belt-and-braces second trigger; the elapsed bound is what the issue's
    // acceptance criterion demands (well under 2x the wall budget).
    let src = cross_product_source(12);
    let query = parse_atom("p(X, Y, Z, W)").unwrap();
    let budget = Budget::default()
        .with_timeout_ms(200)
        .with_max_facts(10_000);
    let full = Engine::from_source(&src)
        .unwrap()
        .query(&query, Strategy::SemiNaive)
        .unwrap();
    assert_eq!(full.answers.len(), 20_736);

    for strategy in Strategy::ALL {
        let engine = Engine::from_source(&src).unwrap().with_budget(budget);
        let started = Instant::now();
        let result = engine.query(&query, strategy).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(400),
            "{strategy}: took {elapsed:?} against a 200ms budget"
        );
        assert!(
            !result.report.completion.is_complete(),
            "{strategy}: 10k-fact budget did not trip on a 20736-fact answer set"
        );
        assert!(
            result.answers.len() < full.answers.len(),
            "{strategy}: partial run returned every answer"
        );
        for a in &result.answers {
            assert!(full.answers.contains(a), "{strategy}: unsound answer {a}");
        }
    }
}

#[test]
fn wall_clock_deadline_cuts_a_deep_fixpoint_short() {
    // 900 nodes -> 810k transitive-closure facts over ~900 rounds; minutes
    // of work ungoverned. A 150ms deadline must bound the run regardless.
    let src = big_cycle_source(900);
    let query = parse_atom("tc(n0, Y)").unwrap();
    for strategy in [Strategy::Naive, Strategy::SemiNaive, Strategy::Stratified] {
        let engine = Engine::from_source(&src)
            .unwrap()
            .with_budget(Budget::default().with_timeout_ms(150));
        let started = Instant::now();
        let result = engine.query(&query, strategy).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(450),
            "{strategy}: took {elapsed:?} against a 150ms deadline"
        );
        assert!(
            !result.report.completion.is_complete(),
            "{strategy}: deadline did not trip"
        );
    }
}

#[test]
fn budget_consumption_is_reported() {
    let src = cross_product_source(8);
    let query = parse_atom("p(X, Y, Z, W)").unwrap();
    let engine = Engine::from_source(&src)
        .unwrap()
        .with_budget(Budget::default().with_max_facts(100));
    let result = engine.query(&query, Strategy::SemiNaive).unwrap();
    assert!(!result.report.completion.is_complete());
    let metrics = result.report.eval.expect("bottom-up run reports metrics");
    assert_eq!(metrics.new_facts, 100, "claims are exact");
    assert!(metrics.firings >= metrics.new_facts);
    let shown = result.report.to_string();
    assert!(shown.contains("PARTIAL"), "{shown}");

    // The report carries the plan-compilation statistics to prove the run
    // went through compiled plans.
    let stats = metrics.exec;
    assert!(stats.plans_compiled > 0, "no plans cached: {stats:?}");
    assert!(stats.blocks_executed > 0, "no blocks executed: {stats:?}");
    assert!(stats.rows_per_block() > 0.0, "{stats:?}");
}

#[test]
fn conditional_fixpoint_runs_compiled_plans_too() {
    // Win–move has a negated intensional literal, so the statement fixpoint
    // (not just the definite core) does the work — on the same executor.
    let engine = Engine::from_source(
        "move(a, b). move(b, c). move(c, d).
         win(X) :- move(X, Y), !win(Y).",
    )
    .unwrap();
    let query = parse_atom("win(X)").unwrap();
    let result = engine.query(&query, Strategy::ConditionalFixpoint).unwrap();
    assert_eq!(result.answers.len(), 2, "a and c win");
    let metrics = result.report.eval.expect("bottom-up run reports metrics");
    assert!(metrics.conditional_statements > 0, "{metrics}");
    let stats = metrics.exec;
    assert!(stats.plans_compiled > 0, "no plans cached: {stats:?}");
    assert!(stats.blocks_executed > 0, "no blocks executed: {stats:?}");
    assert!(stats.rows_per_block() > 0.0, "{stats:?}");
}

#[test]
fn blocked_budget_trip_is_exact_and_identical_across_thread_counts() {
    // The acceptance bar for the blocked path: a tripped fact budget claims
    // exactly `max` facts, and the materialised partial database carries
    // exactly the claimed number of answers. (The name predates the removal
    // of the round fan-out; the one-thread leg is all that is left.)
    let src = cross_product_source(8);
    let query = parse_atom("p(X, Y, Z, W)").unwrap();
    let engine = Engine::from_source(&src)
        .unwrap()
        .with_budget(Budget::default().with_max_facts(100));
    let result = engine.query(&query, Strategy::SemiNaive).unwrap();
    assert!(!result.report.completion.is_complete());
    assert_eq!(
        result
            .report
            .eval
            .expect("bottom-up run reports metrics")
            .new_facts,
        100,
        "claims are exact"
    );
    assert_eq!(
        result.answers.len(),
        100,
        "materialised facts match the claims"
    );
}

#[test]
fn a_budget_tripped_among_repeats_admits_the_first_facts_in_emission_order() {
    // `p(X) :- e(X, Y)` fires three times per `X`, so the five-fact cap
    // falls in a round whose emissions are two-thirds repeats: the budget
    // must count facts, not firings, and stop at the sixth new one.
    let mut src = String::new();
    for x in 0..8 {
        for y in 0..3 {
            writeln!(src, "e(x{x}, y{y}).").unwrap();
        }
    }
    src.push_str("p(X) :- e(X, Y).\n");
    let program = alexander_parser::parse(&src).unwrap().program;
    let edb = Database::from_program(&program);
    let p = Predicate::new("p", 1);
    let run = |opts: EvalOptions| eval_seminaive_opts(&program, &edb, opts).unwrap();
    let full = run(EvalOptions::default());
    let capped = run(EvalOptions::default().with_budget(Budget::default().with_max_facts(5)));

    assert_eq!(
        capped.completion,
        Completion::BudgetExhausted {
            resource: Resource::Facts
        }
    );
    let m = capped.metrics;
    assert_eq!(m.new_facts, 5, "claims are exact");
    // Three firings each for x0..x4; the refused sixth fact fires nothing.
    assert_eq!((m.firings, m.duplicate_facts), (15, 10));
    let rows = |db: &Database| -> Vec<Vec<Const>> {
        db.relation(p)
            .unwrap()
            .iter()
            .map(<[Const]>::to_vec)
            .collect()
    };
    let all = rows(&full.db);
    assert_eq!(all.len(), 8);
    assert_eq!(rows(&capped.db), all[..5], "the first five, in id order");
}
