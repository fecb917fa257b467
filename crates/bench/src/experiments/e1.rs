//! E1 (Table 1): every strategy on the bound ancestor query over a chain.

use super::{strategy_row, STRATEGY_COLUMNS};
use crate::table::Table;
use alexander_core::{Engine, Strategy};
use alexander_parser::parse_atom;
use alexander_workload as workload;

/// Chain length used by the headline table.
pub const CHAIN: usize = 200;

pub fn run() -> Table {
    run_sized(CHAIN)
}

/// Parameterised variant (tests use a short chain).
pub fn run_sized(n: usize) -> Table {
    let mut edb = workload::chain("par", n);
    // An irrelevant island the goal-directed strategies must not touch.
    edb.merge(&{
        let mut d = alexander_storage::Database::new();
        for i in 0..n / 2 {
            d.insert_row(
                alexander_ir::Predicate::new("par", 2),
                &[
                    alexander_ir::Const::sym(&format!("m{i}")),
                    alexander_ir::Const::sym(&format!("m{}", i + 1)),
                ],
            );
        }
        d
    });
    let engine = Engine::new(workload::ancestor(), edb).expect("valid");
    let query = parse_atom(&format!("anc(n{}, X)", n / 2)).unwrap();

    let mut t = Table::new(
        "E1",
        &format!(
            "ancestor(n{}, X) on a {n}-edge chain plus an irrelevant {}-edge island",
            n / 2,
            n / 2
        ),
        "Bound-argument query. The goal-directed strategies (magic, supmagic, \
         alexander, oldt) touch only the suffix of the chain reachable from \
         the query constant; plain bottom-up materialises the full closure \
         of both components. Who wins: the rewritings, by an order of \
         magnitude in facts.",
        &STRATEGY_COLUMNS,
    );
    for s in Strategy::ALL {
        t.row(strategy_row(&engine, &query, s));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_strategies_and_consistent_answers() {
        let t = run_sized(40);
        assert_eq!(t.rows.len(), Strategy::ALL.len());
        // All strategies report the same number of answers (column 1).
        let answers: Vec<&str> = t.rows.iter().map(|r| r[1].as_str()).collect();
        assert!(answers.iter().all(|a| *a == answers[0]), "{answers:?}");
        assert_eq!(answers[0], "20"); // chain suffix from n20 to n40
    }

    #[test]
    fn qsqr_inferences_within_10x_of_oldt() {
        // The headline table: QSQR's incremental restarts must keep its
        // step count in the same decade as OLDT's suspension machinery.
        let t = run_sized(CHAIN);
        let inferences = |name: &str| -> u64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[4]
                .parse()
                .unwrap()
        };
        let (qs, ol) = (inferences("qsqr"), inferences("oldt"));
        assert!(qs <= ol * 10, "qsqr {qs} vs oldt {ol}: over 10x");
    }

    #[test]
    fn goal_directed_materialises_fewer_facts() {
        let t = run_sized(40);
        let facts = |name: &str| -> u64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[2]
                .parse()
                .unwrap()
        };
        assert!(facts("alexander") < facts("seminaive"));
        assert!(facts("magic") < facts("seminaive"));
    }
}
