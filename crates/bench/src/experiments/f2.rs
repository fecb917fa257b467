//! F2 (Figure 2): runtime and facts vs same-generation tree depth.

use crate::table::{ms, timed, Table};
use alexander_core::{Engine, Strategy};
use alexander_ir::{Atom, Symbol, Term};
use alexander_workload as workload;

/// The sweep depths (binary tree: 2^(d+1)-1 nodes).
pub const DEPTHS: [usize; 4] = [4, 5, 6, 7];

/// The strategies plotted.
pub const SERIES: [Strategy; 5] = [
    Strategy::SemiNaive,
    Strategy::Magic,
    Strategy::SupplementaryMagic,
    Strategy::Alexander,
    Strategy::Oldt,
];

pub fn run() -> Table {
    run_with(&DEPTHS)
}

/// Parameterised sweep.
pub fn run_with(depths: &[usize]) -> Table {
    let mut t = Table::new(
        "F2",
        "figure: same-generation(seed, Y) vs tree depth (series = strategy)",
        "The same-generation recursion makes full bottom-up explode with the \
         square of the generation width while the goal-directed strategies \
         follow only the seed's ancestor path and its generations. Expected \
         shape: widening gap as depth grows, goal-directed series clustered.",
        &[
            "depth",
            "strategy",
            "answers",
            "facts",
            "inferences",
            "time_ms",
        ],
    );

    for &depth in depths {
        let (edb, seed) = workload::sg_tree(depth);
        let engine = Engine::new(workload::same_generation(), edb).unwrap();
        let q = Atom {
            pred: Symbol::intern("sg"),
            terms: vec![Term::Const(seed), Term::var("Y")],
        };
        for s in SERIES {
            let (r, d) = timed(|| engine.query(&q, s).unwrap());
            let inferences = r
                .report
                .eval
                .map(|m| m.firings)
                .or(r.report.oldt.map(|m| m.resolution_steps))
                .unwrap_or(0);
            t.row(vec![
                depth.to_string(),
                s.name().to_string(),
                r.answers.len().to_string(),
                r.report.facts_materialised.to_string(),
                inferences.to_string(),
                ms(d),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_agree_on_answers_per_depth() {
        let t = run_with(&[3, 4]);
        for depth in [3usize, 4] {
            let rows: Vec<_> = t
                .rows
                .iter()
                .filter(|r| r[0] == depth.to_string())
                .collect();
            assert_eq!(rows.len(), SERIES.len());
            let first = &rows[0][2];
            assert!(rows.iter().all(|r| &r[2] == first), "{rows:?}");
        }
    }

    #[test]
    fn goal_directed_beats_full_on_facts() {
        let t = run_with(&[5]);
        let facts = |name: &str| -> u64 {
            t.rows.iter().find(|r| r[1] == name).unwrap()[3]
                .parse()
                .unwrap()
        };
        assert!(facts("alexander") < facts("seminaive"));
    }
}
