//! Genealogy at scale: the workload the paper's introduction motivates —
//! a large parent relation queried for one person's ancestors.
//!
//! Builds a synthetic 4-generation-deep random forest of 5000 people,
//! then shows why the query-directed strategies exist: a bound query on a
//! big database should not pay for the whole transitive closure.
//!
//! ```text
//! cargo run --release --example genealogy
//! ```

use alexander_core::{Engine, Strategy};
use alexander_ir::{Const, Predicate};
use alexander_parser::{parse, parse_atom};
use alexander_storage::Database;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

const PEOPLE: usize = 5000;
const GENERATIONS: usize = 12;

/// A layered random forest: each person in generation g+1 gets a parent in
/// generation g.
fn synthesize_families(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let par = Predicate::new("par", 2);
    let per_gen = PEOPLE / GENERATIONS;
    for g in 1..GENERATIONS {
        for i in 0..per_gen {
            let child = g * per_gen + i;
            let parent = (g - 1) * per_gen + rng.random_range(0..per_gen);
            db.insert_row(
                par,
                &[
                    Const::sym(&format!("p{parent}")),
                    Const::sym(&format!("p{child}")),
                ],
            );
        }
    }
    db
}

fn main() {
    let rules = parse(
        "
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
        desc(X, Y) :- anc(Y, X).
        ",
    )
    .unwrap()
    .program;
    let edb = synthesize_families(42);
    println!(
        "synthetic genealogy: {} parent edges over {PEOPLE} people, {GENERATIONS} generations\n",
        edb.len_of(Predicate::new("par", 2))
    );
    let engine = Engine::new(rules, edb).unwrap();

    // Descendants of one early-generation person (bound query).
    let query = parse_atom("desc(X, p3)").unwrap();
    println!("query: {query} (descendants of p3)\n");
    println!(
        "{:<12} {:>9} {:>12} {:>9} {:>10}",
        "strategy", "answers", "facts", "calls", "time"
    );
    for strategy in [
        Strategy::SemiNaive,
        Strategy::Magic,
        Strategy::SupplementaryMagic,
        Strategy::Alexander,
        Strategy::Oldt,
    ] {
        let t0 = Instant::now();
        let r = engine.query(&query, strategy).expect("runs");
        let dt = t0.elapsed();
        println!(
            "{:<12} {:>9} {:>12} {:>9} {:>8.1}ms",
            strategy.name(),
            r.answers.len(),
            r.report.facts_materialised,
            r.report
                .calls
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
            dt.as_secs_f64() * 1e3,
        );
    }

    println!(
        "\nThe rewritings and OLDT answer from the p3 subtree alone; \
         semi-naive pays for the ancestor closure of all {PEOPLE} people."
    );
}
