//! E8 (Table 8): the magic rewriting destroys stratification but preserves
//! constructive consistency — the conditional fixpoint evaluates the
//! rewritten program to the same answers as stratified evaluation of the
//! original (Bry, Prop. 5.8).
//!
//! The source program puts the negation *inside* the recursion:
//!
//! ```text
//! s(X) :- b1(X).
//! s(Y) :- s(X), e(X, Y), !t(Y).
//! t(X) :- b2(X).
//! t(Y) :- t(X), f(X, Y).
//! ```
//!
//! `s` negates `t` and `t` never mentions `s`, so the source is stratified.
//! But under a bound query the magic rewriting derives the demand for the
//! negated subquery from the recursion's own prefix —
//! `magic_t_b(Y) :- magic_s_b(Y), e(X, Y), s_b(X)` — so `t_b` now depends
//! positively on `s_b` while `s_b` depends negatively on `t_b`: a negative
//! cycle. Stratified evaluation of the rewritten program is impossible; the
//! conditional fixpoint still decides it, and must agree with the direct
//! evaluation of the source.

use crate::table::{ms, timed, Table};
use alexander_eval::{eval_conditional, eval_stratified};
use alexander_ir::analysis::stratify;
use alexander_ir::{Predicate, Program};
use alexander_parser::{parse, parse_atom};
use alexander_storage::Database;
use alexander_transform::{magic_sets, query_answers, SipOptions};
use alexander_workload::node;

fn source_program() -> Program {
    parse(
        "
        s(X) :- b1(X).
        s(Y) :- s(X), e(X, Y), !t(Y).
        t(X) :- b2(X).
        t(Y) :- t(X), f(X, Y).
        ",
    )
    .unwrap()
    .program
}

/// EDB: an e-chain of `n` nodes seeded at n0, with every node divisible by
/// `block_every` in `t` (via b2, extended along a short f-chain).
fn edb(n: usize, block_every: usize) -> Database {
    let mut db = alexander_workload::chain("e", n);
    db.insert_row(Predicate::new("b1", 1), &[node(0)]);
    for i in (block_every..=n).step_by(block_every) {
        db.insert_row(Predicate::new("b2", 1), &[node(i)]);
    }
    // A few f edges so t's recursion is exercised too.
    db.insert_row(
        Predicate::new("f", 2),
        &[node(block_every), node(block_every + 1)],
    );
    db
}

fn case(name: &str, db: &Database, target: usize) -> Vec<String> {
    let program = source_program();
    let query = parse_atom(&format!("s(n{target})")).unwrap();

    let (direct, t_direct) = timed(|| eval_stratified(&program, db).expect("source is stratified"));
    let direct_yes = direct.db.contains_atom(&query);

    let rw = magic_sets(&program, &query, SipOptions::default()).unwrap();
    let rewritten_stratified = stratify(&rw.program).is_ok();
    let (cond, t_cond) = timed(|| eval_conditional(&rw.program, db).expect("conditional runs"));
    let rewritten_yes = !query_answers(&cond.db, &rw.query).is_empty();

    vec![
        name.to_string(),
        format!("s(n{target})"),
        yn(rewritten_stratified),
        yn(direct_yes),
        yn(rewritten_yes),
        yn(direct_yes == rewritten_yes && cond.is_total()),
        ms(t_direct),
        ms(t_cond),
    ]
}

fn yn(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

pub fn run() -> Table {
    let mut t = Table::new(
        "E8",
        "magic on a stratified program: rewritten program unstratified, conditional fixpoint still exact",
        "The source (recursion through a negated subgoal) is stratified; its \
         magic rewriting is not (`rewritten stratified` = no) because the \
         demand for the negated t-subquery is derived from the s-recursion's \
         own prefix. The conditional fixpoint evaluates the rewritten \
         program anyway and `agree` must read yes: the rewriting preserves \
         constructive consistency (Bry Prop. 5.8) even though it destroys \
         stratification.",
        &[
            "instance",
            "query",
            "rewritten stratified",
            "direct answer",
            "rewritten answer",
            "agree",
            "direct_ms",
            "rewritten_ms",
        ],
    );

    let small = edb(30, 7);
    // n5 reachable (before the first block at n7); n10 is past it — blocked.
    t.row(case("chain(30), block every 7", &small, 5));
    t.row(case("chain(30), block every 7", &small, 10));
    t.row(case("chain(30), block every 7", &small, 7)); // exactly a blocked node
    let large = edb(120, 11);
    t.row(case("chain(120), block every 11", &large, 10));
    t.row(case("chain(120), block every 11", &large, 60));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_is_stratified_but_rewriting_is_not() {
        let program = source_program();
        assert!(stratify(&program).is_ok());
        let q = parse_atom("s(n5)").unwrap();
        let rw = magic_sets(&program, &q, SipOptions::default()).unwrap();
        assert!(
            stratify(&rw.program).is_err(),
            "magic must break stratification here:\n{}",
            rw.program
        );
    }

    #[test]
    fn rewriting_agrees_on_every_row() {
        let t = run();
        for row in &t.rows {
            assert_eq!(row[2], "no", "rewritten must be unstratified: {row:?}");
            assert_eq!(row[5], "yes", "answers must agree: {row:?}");
        }
    }

    #[test]
    fn semantics_sanity_check() {
        // On chain(30) blocked at multiples of 7: s holds up to n6 and stops.
        let db = edb(30, 7);
        let direct = eval_stratified(&source_program(), &db).unwrap();
        let s = Predicate::new("s", 1);
        let names: std::collections::BTreeSet<String> = direct
            .db
            .atoms_of(s)
            .iter()
            .map(|a| a.terms[0].to_string())
            .collect();
        assert!(names.contains("n6"));
        assert!(!names.contains("n7"), "{names:?}");
        assert!(!names.contains("n10"));
    }
}
