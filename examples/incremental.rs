//! Incremental view maintenance: a dependency graph whose transitive
//! closure stays materialised while edges come and go (DRed deletion for
//! the recursive closure, semi-naive insertion), one update batch at a time.
//!
//! ```text
//! cargo run --example incremental
//! ```

use alexander_eval::IncrementalEngine;
use alexander_ir::Predicate;
use alexander_parser::parse_atom;
use alexander_workload as workload;

fn main() {
    // A build-dependency graph: dep(A, B) = "A depends directly on B";
    // needs(A, B) is its transitive closure (everything A pulls in).
    let program = alexander_parser::parse(
        "
        needs(X, Y) :- dep(X, Y).
        needs(X, Y) :- dep(X, Z), needs(Z, Y).
        ",
    )
    .unwrap()
    .program;

    // Start from a chain of 6 packages: p0 -> p1 -> ... -> p6 (as n0..n6).
    let edb = workload::chain("dep", 6);
    let mut engine = IncrementalEngine::new(program, edb).expect("definite program");
    let needs = Predicate::new("needs", 2);
    println!(
        "initial: {} direct deps, {} transitive `needs` facts",
        engine.db().len_of(Predicate::new("dep", 2)),
        engine.db().len_of(needs)
    );

    // A new shortcut dependency appears: n0 -> n4.
    let added = engine
        .apply_batch(&[(true, parse_atom("dep(n0, n4)").unwrap())])
        .expect("edb insert")
        .added;
    println!("insert dep(n0, n4): {added} facts added (mostly none — the closure already knew)");

    // The n2 -> n3 edge is removed (a package drops a dependency). All
    // `needs` pairs that only went through it must disappear; anything with
    // an alternative route (via the new shortcut) must survive.
    let out = engine
        .apply_batch(&[(false, parse_atom("dep(n2, n3)").unwrap())])
        .expect("edb delete");
    println!(
        "delete dep(n2, n3): {} facts overdeleted, {} rederived via other paths",
        out.overdeleted, out.rederived
    );

    // n0 still needs n5: the shortcut n0 -> n4 -> n5 survives the cut.
    assert!(engine
        .db()
        .contains_atom(&parse_atom("needs(n0, n5)").unwrap()));
    // But n1 lost its route past the cut entirely.
    assert!(!engine
        .db()
        .contains_atom(&parse_atom("needs(n1, n5)").unwrap()));
    println!(
        "after updates: {} `needs` facts; n0 still reaches n5 via the shortcut, n1 does not",
        engine.db().len_of(needs)
    );
    println!("cumulative engine work: {}", engine.metrics());
}
