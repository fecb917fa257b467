//! A repeated query interns nothing: whatever a strategy names while it
//! answers (rewritten predicates, call-table variables) it names once, so a
//! long-lived server does not grow the process-global interner per query.
//!
//! This binary holds exactly one test, so no concurrent test can intern
//! while the count is watched.

use alexander_core::{Engine, Strategy};
use alexander_ir::Symbol;
use alexander_parser::{parse, parse_atom};
use alexander_workload as workload;

#[test]
fn a_repeated_query_interns_nothing_under_any_strategy() {
    let program = parse(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap()
    .program;
    let (edb, _) = workload::tree("par", 2, 10);
    assert_eq!(edb.total_tuples(), 2046);
    let engine = Engine::new(program, edb).unwrap();
    let query = parse_atom("anc(n2, X)").unwrap();
    let run = |s: Strategy| {
        let r = engine.query(&query, s).unwrap();
        assert_eq!(r.answers.len(), 1022, "{s}");
    };
    for s in Strategy::ALL {
        run(s);
    }
    let before = Symbol::interned();
    for s in Strategy::ALL {
        for _ in 0..10 {
            run(s);
        }
        let now = Symbol::interned();
        assert_eq!(now, before, "{s} interned {} new symbols", now - before);
    }
}
