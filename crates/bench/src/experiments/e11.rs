//! E11 (Table 11): why tabulation — plain SLD resolution vs OLDT.
//!
//! This is the motivation the Alexander method inherits from OLDT: without
//! a call table, top-down evaluation re-derives a repeated subgoal at every
//! occurrence and never terminates on cyclic data. Both engines resolve the
//! same compiled clauses with the same indexed probes and count steps the
//! same way, so the table isolates what tabling alone buys: nothing where
//! no subgoal repeats (the same-generation trees), an exponential factor
//! where subgoals repeat (diamonds in series), and termination on a
//! cycle.

use crate::table::{ms, timed, Table};
use alexander_ir::{Atom, Symbol, Term};
use alexander_parser::parse_atom;
use alexander_storage::Database;
use alexander_topdown::{oldt_query, sld_query, SldOptions};
use alexander_workload as workload;

fn row(
    name: &str,
    program: &alexander_ir::Program,
    edb: &Database,
    query: &Atom,
    opts: SldOptions,
) -> Vec<String> {
    let (sld, t_sld) = timed(|| sld_query(program, edb, query, opts).expect("sld runs"));
    let (oldt, t_oldt) = timed(|| oldt_query(program, edb, query).expect("oldt runs"));
    let mut oldt_answers: Vec<Atom> = oldt.answers.clone();
    oldt_answers.sort();
    oldt_answers.dedup();
    vec![
        name.to_string(),
        oldt_answers.len().to_string(),
        if sld.complete {
            sld.metrics.resolution_steps.to_string()
        } else {
            format!("{}+ (cut off)", sld.metrics.resolution_steps)
        },
        oldt.metrics.resolution_steps.to_string(),
        if sld.complete {
            "yes".into()
        } else {
            "NO".into()
        },
        ms(t_sld),
        ms(t_oldt),
    ]
}

pub fn run() -> Table {
    let mut t = Table::new(
        "E11",
        "why tabulation: plain SLD (Prolog strategy) vs OLDT on identical inputs",
        "Both engines resolve the same compiled clauses with the same \
         indexed probes and count steps alike, so the gap is tabling alone. \
         A leaf's query on the (linear) same-generation tree issues every \
         subgoal once: SLD needs no table there and takes fewer steps than \
         OLDT, which also pays for its suspensions. On k diamonds in series \
         the subgoal at the i-th junction is reached along 2^i paths: SLD \
         re-solves it on each, so its steps double per diamond while OLDT's \
         grow linearly. On cyclic data SLD does not terminate at all \
         (`terminates` = NO; it is cut off by its depth limit), while OLDT \
         completes. This gap is what the Alexander templates transport into \
         the bottom-up world.",
        &[
            "workload",
            "answers",
            "sld steps",
            "oldt steps",
            "terminates",
            "sld_ms",
            "oldt_ms",
        ],
    );

    let sg = workload::same_generation();
    for depth in [3usize, 4, 5, 6] {
        let (edb, seed) = workload::sg_tree(depth);
        let query = Atom {
            pred: Symbol::intern("sg"),
            terms: vec![Term::Const(seed), Term::var("Y")],
        };
        t.row(row(
            &format!("sg tree({depth})"),
            &sg,
            &edb,
            &query,
            SldOptions {
                step_budget: 5_000_000,
                depth_limit: 10_000,
            },
        ));
    }

    let tc = workload::transitive_closure();
    let from_n0 = parse_atom("tc(n0, X)").unwrap();
    for k in [4usize, 6, 8, 10] {
        t.row(row(
            &format!("tc diamonds({k})"),
            &tc,
            &workload::diamonds("e", k),
            &from_n0,
            SldOptions::default(),
        ));
    }
    t.row(row(
        "tc cycle(10)",
        &tc,
        &workload::cycle("e", 10),
        &from_n0,
        SldOptions {
            step_budget: 200_000,
            depth_limit: 500,
        },
    ));
    t.row(row(
        "tc chain(60)",
        &tc,
        &workload::chain("e", 60),
        &from_n0,
        SldOptions::default(),
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sld_explodes_and_oldt_does_not() {
        let t = run();
        // Where subgoals repeat both complete, but SLD steps grow much
        // faster, and SLD takes more steps than OLDT on every row.
        let steps = |name: &str, col: usize| -> u64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[col]
                .trim_end_matches("+ (cut off)")
                .parse()
                .unwrap()
        };
        let growth =
            |col| steps("tc diamonds(10)", col) as f64 / steps("tc diamonds(4)", col) as f64;
        let (sld_growth, oldt_growth) = (growth(2), growth(3));
        assert!(
            sld_growth > oldt_growth * 2.0,
            "sld {sld_growth:.1}x vs oldt {oldt_growth:.1}x"
        );
        for k in [4, 6, 8, 10] {
            let name = format!("tc diamonds({k})");
            let (sld, oldt) = (steps(&name, 2), steps(&name, 3));
            assert!(sld > oldt, "{name}: sld {sld} vs oldt {oldt}");
        }
        // Cyclic: SLD cut off, OLDT terminates.
        let cyc = t.rows.iter().find(|r| r[0] == "tc cycle(10)").unwrap();
        assert_eq!(cyc[4], "NO");
        assert_eq!(cyc[1], "10");
    }
}
