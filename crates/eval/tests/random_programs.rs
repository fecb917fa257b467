//! Differential property tests for incremental maintenance: random
//! insert/delete sequences applied in mixed batches must leave the engine
//! and a from-scratch recompute with bit-identical databases — and the
//! engine's supports must satisfy their invariant at every step: support > 0
//! iff the fact is derivable, and for counted (non-recursive) predicates the
//! support equals the distinct rule firings over the final database.

use alexander_eval::{
    compile_plan, compile_rule, eval_seminaive_opts, exec_plan_bindings, EvalMetrics, EvalOptions,
    ExecScratch, IncrementalEngine, JoinInput,
};
use alexander_ir::{Atom, Predicate, Program};
use alexander_parser::{parse, parse_atom};
use alexander_storage::Database;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Program templates spanning the maintenance regimes: purely counted
/// strata, a recursive SCC (the engine's DRed fallback), and
/// a counted stratum layered over a recursive one.
const TEMPLATES: [(&str, &[&str]); 3] = [
    (
        // Multi-rule counted head plus a counted head joining itself: plenty
        // of alternative derivations, zero recursion.
        "j(X, Z) :- e(X, Y), f(Y, Z).
         j(X, Y) :- g(X, Y).
         top(X, Z) :- j(X, Y), j(Y, Z).",
        &["e", "f", "g"],
    ),
    (
        // The classic recursive SCC: every idb fact may support itself.
        "tc(X, Y) :- e(X, Y).
         tc(X, Y) :- e(X, Z), tc(Z, Y).",
        &["e"],
    ),
    (
        // Counted stratum over a recursive one: the cascade crosses a
        // DRed group into a counting group.
        "tc(X, Y) :- e(X, Y).
         tc(X, Y) :- e(X, Z), tc(Z, Y).
         pair(X, Z) :- tc(X, Y), f(Y, Z).",
        &["e", "f"],
    ),
];

/// Constants the random facts draw from. Small on purpose: collisions are
/// what exercise duplicate support, net-out batches, and rederivation.
const UNIVERSE: usize = 5;

fn fact(pred: &str, a: usize, b: usize) -> Atom {
    parse_atom(&format!("{pred}(n{a}, n{b})")).unwrap()
}

fn snapshot(db: &Database) -> Vec<String> {
    let mut out: Vec<String> = db
        .predicates()
        .into_iter()
        .flat_map(|p| db.atoms_of(p))
        .map(|a| a.to_string())
        .collect();
    out.sort();
    out
}

/// Rebuilds the reference EDB from the model set of fact strings.
fn model_db(model: &BTreeSet<String>) -> Database {
    let mut db = Database::new();
    for f in model {
        db.insert_atom(&parse_atom(f).unwrap()).unwrap();
    }
    db
}

/// The support invariant, checked through the public API only: every atom
/// over the universe has support > 0 exactly when it is in `oracle`, and
/// counted predicates carry the exact firing count.
fn check_supports(inc: &IncrementalEngine, program: &Program, oracle: &Database) {
    let db = inc.db();
    // Distinct firings per counted head fact, recomputed by naive joins
    // over the oracle database.
    let mut firings: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    let mut scratch = ExecScratch::new();
    let mut metrics = EvalMetrics::default();
    for rule in &program.rules {
        let compiled = compile_rule(rule).unwrap();
        if !inc.is_counted(compiled.head.pred) {
            continue;
        }
        let head = &compiled.head;
        let _ = exec_plan_bindings(
            &compile_plan(&compiled),
            &JoinInput::naive(oracle),
            &mut scratch,
            &mut metrics,
            &mut |row, _| {
                *firings.entry(head.ground(row).to_string()).or_insert(0) += 1;
                ControlFlow::Continue(())
            },
        );
    }
    let mut preds: Vec<Predicate> = oracle.predicates();
    preds.extend(db.predicates());
    preds.sort();
    preds.dedup();
    for p in preds {
        for a in 0..UNIVERSE {
            for b in 0..UNIVERSE {
                let atom = fact(&p.name.to_string(), a, b);
                let support = inc.support_of(&atom);
                assert_eq!(
                    support > 0,
                    oracle.contains_atom(&atom),
                    "{atom}: support {support} disagrees with derivability"
                );
                if inc.is_counted(p) {
                    let expected = firings.get(&atom.to_string()).copied().unwrap_or(0);
                    assert_eq!(support, expected, "{atom}: support drifted");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_update_batches_match_recompute(
        template in 0usize..TEMPLATES.len(),
        ops in proptest::collection::vec(
            (proptest::bool::ANY, 0usize..8, 0usize..UNIVERSE, 0usize..UNIVERSE),
            1..40,
        ),
        batch in 1usize..6,
    ) {
        let (rules, edb_preds) = TEMPLATES[template];
        let program = parse(rules).unwrap().program;
        let mut model: BTreeSet<String> = BTreeSet::new();
        let mut inc = IncrementalEngine::new(program.clone(), Database::new()).unwrap();
        for chunk in ops.chunks(batch) {
            let batch_ops: Vec<(bool, Atom)> = chunk
                .iter()
                .map(|&(insert, p, a, b)| (insert, fact(edb_preds[p % edb_preds.len()], a, b)))
                .collect();
            for (insert, atom) in &batch_ops {
                if *insert {
                    model.insert(atom.to_string());
                } else {
                    model.remove(&atom.to_string());
                }
            }
            inc.apply_batch(&batch_ops).unwrap();

            let edb = model_db(&model);
            let seq = eval_seminaive_opts(&program, &edb, EvalOptions::default())
                .unwrap()
                .db;
            let expected = snapshot(&seq);
            prop_assert_eq!(&snapshot(inc.db()), &expected, "incremental diverged");
            check_supports(&inc, &program, &seq);
        }
    }
}
