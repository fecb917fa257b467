//! E13 (Table 13): the four-way power comparison — magic sets, Alexander
//! templates, OLDT and QSQR issue exactly the same subqueries.
//!
//! The demand set (which subqueries get asked) is *the* measure of a
//! goal-directed method's power: equal demand sets mean equal relevant
//! work. This table puts all four methods' demand and answer counts side by
//! side on the same workloads; they must agree column-for-column.

use crate::table::Table;
use alexander_eval::eval_seminaive;
use alexander_ir::{Atom, Program, Symbol, Term};
use alexander_parser::parse_atom;
use alexander_storage::Database;
use alexander_topdown::{oldt_query, qsqr_query};
use alexander_transform::{alexander, magic_sets, SipOptions};
use alexander_workload as workload;

fn row(name: &str, program: &Program, edb: &Database, query: &Atom) -> Vec<String> {
    let opts = SipOptions::default();
    let m = magic_sets(program, query, opts).unwrap();
    let rm = eval_seminaive(&m.program, edb).unwrap();
    let a = alexander(program, query, opts).unwrap();
    let ra = eval_seminaive(&a.program, edb).unwrap();
    let ol = oldt_query(program, edb, query).unwrap();
    let qs = qsqr_query(program, edb, query).unwrap();

    let magic_demand: u64 = rm
        .db
        .predicates()
        .iter()
        .filter(|p| p.name.as_str().starts_with("magic_"))
        .map(|p| rm.db.len_of(*p) as u64)
        .sum();
    let alex_demand: u64 = ra
        .db
        .predicates()
        .iter()
        .filter(|p| p.name.as_str().starts_with("call_"))
        .map(|p| ra.db.len_of(*p) as u64)
        .sum();
    // QSQR's input tables against OLDT's call tables by content: the same
    // calls, each with the same answer rows (no engine reports a call twice).
    let agree = magic_demand == alex_demand
        && alex_demand == ol.metrics.calls
        && ol.tables.len() == qs.tables.len()
        && ol.tables.iter().all(|t| qs.tables.contains(t));

    vec![
        name.to_string(),
        magic_demand.to_string(),
        alex_demand.to_string(),
        ol.metrics.calls.to_string(),
        qs.metrics.calls.to_string(),
        qs.restarts.to_string(),
        ol.metrics.resolution_steps.to_string(),
        qs.metrics.resolution_steps.to_string(),
        if agree { "yes".into() } else { "NO".into() },
    ]
}

pub fn run() -> Table {
    let mut t = Table::new(
        "E13",
        "four-way demand agreement: magic = alexander = oldt = qsqr subquery counts",
        "All four goal-directed methods, driven by the same SIP, issue \
         exactly the same set of subqueries on every workload — the \
         equal-power statement across the whole 1989 comparison field. \
         `agree` compares the demand counts and, call for call and answer \
         row for answer row, QSQR's input tables with OLDT's call \
         tables. `restarts` shows QSQR's completion mechanism (incremental \
         restarts instead of suspension; its step counts stay within a \
         small factor of OLDT's, its demand identical).",
        &[
            "workload",
            "magic demand",
            "alexander calls",
            "oldt calls",
            "qsqr inputs",
            "qsqr restarts",
            "oldt steps",
            "qsqr steps",
            "agree",
        ],
    );

    t.row(row(
        "ancestor chain(60), bf",
        &workload::ancestor(),
        &workload::chain("par", 60),
        &parse_atom("anc(n0, X)").unwrap(),
    ));
    let (edb, seed) = workload::sg_tree(6);
    t.row(row(
        "sg tree(6), bf",
        &workload::same_generation(),
        &edb,
        &Atom {
            pred: Symbol::intern("sg"),
            terms: vec![Term::Const(seed), Term::var("Y")],
        },
    ));
    t.row(row(
        "tc grid(6), bf",
        &workload::transitive_closure(),
        &workload::grid("e", 6),
        &parse_atom("tc(n0, X)").unwrap(),
    ));
    t.row(row(
        "tc cycle(12), bf",
        &workload::transitive_closure(),
        &workload::cycle("e", 12),
        &parse_atom("tc(n0, X)").unwrap(),
    ));
    t.row(row(
        "tc random(30, 90, seed 17), bf",
        &workload::transitive_closure(),
        &workload::random_graph("e", 30, 90, 17),
        &parse_atom("tc(n0, X)").unwrap(),
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_methods_agree_on_every_row() {
        let t = run();
        for row in &t.rows {
            assert_eq!(row[8], "yes", "{row:?}");
        }
    }

    #[test]
    fn qsqr_steps_within_10x_of_oldt_on_every_row() {
        let t = run();
        for row in &t.rows {
            let ol: u64 = row[6].parse().unwrap();
            let qs: u64 = row[7].parse().unwrap();
            assert!(
                qs <= ol * 10,
                "{}: qsqr {qs} vs oldt {ol}: over 10x",
                row[0]
            );
        }
    }
}
