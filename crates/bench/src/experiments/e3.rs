//! E3 (Table 3): the power theorem — Alexander-template bottom-up
//! evaluation materialises exactly OLDT's call and answer tables, compared
//! row for row.

use crate::table::Table;
use alexander_core::check_power_correspondence;
use alexander_ir::{Atom, Symbol, Term};
use alexander_parser::parse_atom;
use alexander_storage::Database;
use alexander_workload as workload;

pub fn run() -> Table {
    let mut t = Table::new(
        "E3",
        "power correspondence: |call_p^a| vs OLDT calls, |ans_p^a| vs OLDT answers",
        "The reproduced paper's headline result. For every adorned \
         predicate, the call/answer relations the Alexander-transformed \
         program materialises bottom-up must equal OLDT's call/answer \
         tables exactly — not approximately. The count columns are the \
         sizes of the sets compared; `holds` compares their contents \
         (call constants and answer rows) and must read `yes` on every row.",
        &[
            "workload",
            "adorned pred",
            "alex calls",
            "oldt calls",
            "alex answers",
            "oldt answers",
            "holds",
        ],
    );

    let cases: Vec<(&str, alexander_ir::Program, Database, Atom)> = vec![
        (
            "ancestor chain(100)",
            workload::ancestor(),
            workload::chain("par", 100),
            parse_atom("anc(n0, X)").unwrap(),
        ),
        (
            "sg tree(6)",
            workload::same_generation(),
            {
                let (db, _) = workload::sg_tree(6);
                db
            },
            {
                let (_, seed) = workload::sg_tree(6);
                Atom {
                    pred: Symbol::intern("sg"),
                    terms: vec![Term::Const(seed), Term::var("Y")],
                }
            },
        ),
        (
            "tc grid(6)",
            workload::transitive_closure(),
            workload::grid("e", 6),
            parse_atom("tc(n0, X)").unwrap(),
        ),
        (
            "tc random(60, 300, seed 11)",
            workload::transitive_closure(),
            workload::random_graph("e", 60, 300, 11),
            parse_atom("tc(n0, X)").unwrap(),
        ),
        (
            "anc all-free chain(30)",
            workload::ancestor(),
            workload::chain("par", 30),
            parse_atom("anc(X, Y)").unwrap(),
        ),
    ];

    for (name, program, edb, query) in cases {
        let c = check_power_correspondence(&program, &edb, &query).expect("both sides run");
        for row in &c.rows {
            t.row(vec![
                name.to_string(),
                format!("{}^{}", row.pred, row.adornment),
                row.alexander_calls.to_string(),
                row.oldt_calls.to_string(),
                row.alexander_answers.to_string(),
                row.oldt_answers.to_string(),
                if row.matches() {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_theorem_holds_on_every_row() {
        let t = run();
        assert!(!t.rows.is_empty());
        for row in &t.rows {
            assert_eq!(row[6], "yes", "{row:?}");
        }
    }
}
