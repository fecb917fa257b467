//! E12 (Table 12, ablation): round-level parallelism in naive evaluation.
//!
//! Within each naive round the rules are independent joins over a frozen
//! database, so they parallelise embarrassingly. This ablation measures how
//! much that buys on a many-rule workload — and shows the answers are
//! bit-identical at every thread count. Every row runs the one shared round
//! executor (`alexander_eval::seminaive`); the "sequential" and `1` rows are
//! the same code path, kept as a repeat-timing pair.

use crate::table::{ms, timed, Table};
use alexander_eval::{eval_naive, eval_naive_opts, EvalOptions};
use alexander_ir::Program;
use alexander_parser::parse;
use alexander_workload as workload;

/// A workload with enough independent rules to share out: one chain EDB,
/// many derived views of it.
fn many_rules() -> Program {
    parse(
        "
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
        inv(Y, X) :- e(X, Y).
        two(X, Y) :- e(X, Z), e(Z, Y).
        three(X, Y) :- two(X, Z), e(Z, Y).
        fan(X) :- e(X, Y), e(X, Z), neq(Y, Z).
        mid(Y) :- e(X, Y), e(Y, Z).
        endp(X) :- e(X, Y).
        endp(Y) :- e(X, Y).
        ",
    )
    .unwrap()
    .program
}

pub fn run() -> Table {
    let mut t = Table::new(
        "E12",
        "parallel ablation: naive evaluation with 1, 2, 4 worker threads",
        "Rules within a naive round are independent joins over a frozen \
         database; the shared round executor splits them across \
         std::thread::scope workers. The sequential and 1-thread rows are \
         the same code path (a repeat-timing pair). \
         Fact counts must be identical across rows — the correctness half. \
         Wall-clock only improves when per-round join work dwarfs thread \
         spawn/merge overhead; on small workloads the sequential row wins, \
         and the table reports that honestly.",
        &["workload", "threads", "facts", "iterations", "time_ms"],
    );

    let program = many_rules();
    let edb = workload::random_graph("e", 60, 220, 13);

    let (seq, d) = timed(|| eval_naive(&program, &edb).expect("runs"));
    t.row(vec![
        "views over random(60, 220)".into(),
        "sequential".into(),
        (seq.db.total_tuples() - edb.total_tuples()).to_string(),
        seq.metrics.iterations.to_string(),
        ms(d),
    ]);
    for threads in [1usize, 2, 4] {
        let opts = EvalOptions::with_threads(threads);
        let (par, d) = timed(|| eval_naive_opts(&program, &edb, opts).expect("runs"));
        t.row(vec![
            "views over random(60, 220)".into(),
            threads.to_string(),
            (par.db.total_tuples() - edb.total_tuples()).to_string(),
            par.metrics.iterations.to_string(),
            ms(d),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fact_counts_are_identical_across_thread_counts() {
        let t = run();
        let facts: Vec<&str> = t.rows.iter().map(|r| r[2].as_str()).collect();
        assert!(facts.iter().all(|f| *f == facts[0]), "{facts:?}");
        assert_eq!(t.rows.len(), 4);
    }
}
