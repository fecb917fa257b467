//! Property: a query pinned to epoch N returns bit-identical answers whether
//! or not epochs N+1..N+k commit mid-query.
//!
//! The oracle is a fresh [`Engine`] built over the exact EDB
//! of each generation; "bit-identical" means the rendered answer vectors are
//! equal as strings (the engine sorts and dedups, so equality is exact, not
//! set-ish).

use alexander_core::{Engine, Strategy};
use alexander_parser::{parse, parse_atom};
use alexander_server::{QueryService, ServerConfig};
use alexander_storage::Database;
use proptest::prelude::*;
use std::sync::Arc;

const RULES: &str = "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).";

/// Chain EDB `par(n0,n1) … par(n{len-1},n{len})`.
fn chain(len: usize) -> Database {
    let mut db = Database::new();
    for i in 0..len {
        db.insert_atom(&parse_atom(&format!("par(n{i}, n{})", i + 1)).unwrap())
            .unwrap();
    }
    db
}

/// Expected answers at generation `g` (chain length `base + g`), computed by
/// an independent single-threaded engine.
fn oracle(base: usize, g: usize, query: &alexander_ir::Atom) -> Vec<String> {
    let program = parse(RULES).unwrap().program;
    let engine = Engine::new(program, chain(base + g)).unwrap();
    let r = engine.query(query, Strategy::Alexander).unwrap();
    assert!(r.report.completion.is_complete());
    r.answers.iter().map(|a| a.to_string()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn pinned_reads_are_bit_identical_under_concurrent_commits(
        base in 2usize..10,
        commits in 1usize..5,
    ) {
        let query = parse_atom("anc(n0, X)").unwrap();
        let oracles: Vec<Vec<String>> =
            (0..=commits).map(|g| oracle(base, g, &query)).collect();

        let program = parse(RULES).unwrap().program;
        let service = Arc::new(
            QueryService::open(program, chain(base), None, ServerConfig::default()).unwrap(),
        );

        // Pin generation 0 before any writer activity.
        let pinned = service.pin();
        prop_assert_eq!(pinned.generation(), 0);

        // Writer: commit epochs 1..=commits while readers are in flight.
        let w = {
            let service = service.clone();
            std::thread::spawn(move || {
                for g in 1..=commits {
                    let edge = base + g;
                    service
                        .insert(&parse_atom(&format!("par(n{}, n{edge})", edge - 1)).unwrap())
                        .unwrap();
                    let info = service.commit().unwrap();
                    assert_eq!(info.generation, g as u64);
                }
            })
        };

        // Readers: every response must match the oracle for the generation
        // it reports — regardless of which epochs committed mid-query.
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let service = service.clone();
                let query = query.clone();
                let oracles = oracles.clone();
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        let resp = service.query(&format!("tenant{r}"), &query, None).unwrap();
                        assert!(resp.complete, "{}", resp.completion);
                        assert_eq!(
                            resp.answers, oracles[resp.generation as usize],
                            "generation {} answers diverged from the oracle",
                            resp.generation
                        );
                    }
                })
            })
            .collect();
        w.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }

        // The epoch pinned before the commits still answers exactly as the
        // generation-0 oracle: publications never leaked into the pin.
        let frozen = pinned.engine().query(&query, Strategy::Alexander).unwrap();
        let frozen: Vec<String> = frozen.answers.iter().map(|a| a.to_string()).collect();
        prop_assert_eq!(&frozen, &oracles[0]);

        // And the latest epoch matches the final oracle.
        let last = service.query("tenant0", &query, None).unwrap();
        prop_assert_eq!(last.generation, commits as u64);
        prop_assert_eq!(&last.answers, &oracles[commits]);
    }
}
