//! E2 (Table 2): every strategy on the bound same-generation query over the
//! classical tree EDB.

use super::{strategy_row, STRATEGY_COLUMNS};
use crate::table::Table;
use alexander_core::{Engine, Strategy};
use alexander_ir::{Atom, Symbol, Term};
use alexander_workload as workload;

/// Tree depth used by the headline table.
pub const DEPTH: usize = 7;

pub fn run() -> Table {
    run_sized(DEPTH)
}

/// Parameterised variant.
pub fn run_sized(depth: usize) -> Table {
    let (edb, seed) = workload::sg_tree(depth);
    let engine = Engine::new(workload::same_generation(), edb).expect("valid");
    let query = Atom {
        pred: Symbol::intern("sg"),
        terms: vec![Term::Const(seed), Term::var("Y")],
    };

    let mut t = Table::new(
        "E2",
        &format!("same-generation(seed, Y) on a depth-{depth} binary tree"),
        "The same-generation recursion the magic-sets literature is built around \
         (linear: one recursive call between two joins). \
         Full bottom-up computes same-generation pairs for every level; the \
         goal-directed strategies only explore generations reachable from \
         the seed. The crossover with E5 shows this reverses on free \
         queries.",
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
    fn strategies_agree_on_answers() {
        let t = run_sized(4);
        let answers: Vec<&str> = t.rows.iter().map(|r| r[1].as_str()).collect();
        assert!(answers.iter().all(|a| *a == answers[0]), "{answers:?}");
        let n: usize = answers[0].parse().unwrap();
        assert!(n > 0, "seed must have same-generation partners");
    }
}
