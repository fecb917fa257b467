//! The power correspondence (experiment E3): bottom-up evaluation of the
//! Alexander-transformed program materialises exactly OLDT's call and answer
//! tables.
//!
//! For every adorned intensional predicate `p^a` reachable from the query,
//! the check compares contents, not counts:
//!
//! * the rows of `call_p^a` must be exactly the constants of OLDT's tabled
//!   calls to `p` whose shape binds the positions `a` binds;
//! * the rows of `ans_p^a` must be exactly the union of those tables'
//!   answer rows.
//!
//! [`check_power_correspondence`] builds both sides and reports them row
//! by row, with the size of each set; the integration tests and the harness
//! assert that every row agrees on definite programs.

use crate::engine::EngineError;
use alexander_eval::eval_seminaive;
use alexander_ir::{AdornedPredicate, Adornment, Atom, Bf, Predicate, Program};
use alexander_storage::{Database, Relation};
use alexander_topdown::oldt_query;
use alexander_transform::{alexander, SipOptions};
use std::fmt;

/// One adorned predicate's comparison row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PowerRow {
    /// The original predicate.
    pub pred: Predicate,
    /// The adornment under which it is called.
    pub adornment: String,
    /// Facts of `call_p^a` after bottom-up evaluation of the templates.
    pub alexander_calls: u64,
    /// Distinct OLDT tabled calls with this adornment shape.
    pub oldt_calls: u64,
    /// Facts of `ans_p^a`.
    pub alexander_answers: u64,
    /// Distinct OLDT answers across this adornment's tables.
    pub oldt_answers: u64,
    /// True iff `call_p^a` holds exactly OLDT's calls and `ans_p^a`
    /// exactly their answers, row for row.
    pub same_rows: bool,
}

impl PowerRow {
    /// True iff both sides hold the same calls and the same answers.
    pub fn matches(&self) -> bool {
        self.same_rows
    }
}

impl fmt::Display for PowerRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}^{}: calls {} vs {}, answers {} vs {}{}",
            self.pred,
            self.adornment,
            self.alexander_calls,
            self.oldt_calls,
            self.alexander_answers,
            self.oldt_answers,
            if self.matches() { "" } else { "  <-- MISMATCH" }
        )
    }
}

/// The full correspondence report.
#[derive(Clone, Debug)]
pub struct PowerCorrespondence {
    pub rows: Vec<PowerRow>,
    /// OLDT's total resolution steps (context for the tables).
    pub oldt_steps: u64,
    /// Bottom-up firings evaluating the templates (context).
    pub alexander_firings: u64,
}

impl PowerCorrespondence {
    /// True iff every row matches — the paper's theorem, checked.
    pub fn holds(&self) -> bool {
        self.rows.iter().all(|r| r.matches())
    }
}

impl fmt::Display for PowerCorrespondence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rows {
            writeln!(f, "{r}")?;
        }
        write!(
            f,
            "oldt steps={}, alexander firings={}",
            self.oldt_steps, self.alexander_firings
        )
    }
}

/// True iff `a` and `b` hold the same rows of `pred`.
fn same(a: &Database, b: &Database, pred: Predicate) -> bool {
    let (a, b) = (a.relation(pred), b.relation(pred));
    let nonempty = |r: &&Relation| !r.is_empty();
    a.filter(nonempty) == b.filter(nonempty)
}

/// Runs both sides and compares, for a **definite** program (the theorem as
/// stated; negation needs the conditional fixpoint and a completion-aware
/// OLDT, compared separately in E8). Either side can fail (validation,
/// stratification, …): the error is the engine's.
pub fn check_power_correspondence(
    program: &Program,
    edb: &Database,
    query: &Atom,
) -> Result<PowerCorrespondence, EngineError> {
    // Repeated variables inside an intensional subgoal make OLDT's
    // variant-based calls finer than the adornment abstraction the
    // rewritings use; normalise them away on *both* sides so the two
    // engines speak the same call language (see
    // `alexander_transform::normalize`).
    let program = alexander_transform::normalize_repeated_vars(program);
    let program = &program;

    // Bottom-up side: Alexander templates, semi-naive to saturation.
    let rw = alexander(program, query, SipOptions::default())?;
    let bu = eval_seminaive(&rw.program, edb)?;

    // Top-down side: instrumented OLDT.
    let td = oldt_query(program, edb, query)?;

    // OLDT's tables as the template relations they must equal: a call's
    // constants are a row of `call_p^a`, its answers rows of `ans_p^a`.
    let mut oldt = Database::new();
    for t in &td.tables {
        let bf = |a: &Option<u32>| if a.is_some() { Bf::Free } else { Bf::Bound };
        let adorned = AdornedPredicate::new(t.pred, Adornment(t.shape.iter().map(bf).collect()));
        let name = adorned.mangled_name();
        oldt.insert_row(Predicate::new(&format!("call_{name}"), t.key.len()), &t.key);
        let ans = Predicate::new(&format!("ans_{name}"), t.pred.arity);
        t.answers
            .iter()
            .for_each(|row| _ = oldt.insert_row(ans, row));
    }

    // Compare the template relations: one row per adorned predicate.
    let mut rows = Vec::new();
    let mut adorned: Vec<(&alexander_ir::Symbol, &AdornedPredicate)> =
        rw.adorned.map.iter().collect();
    adorned.sort_by_key(|(s, _)| s.as_str());
    for (mangled, ap) in adorned {
        let bound = ap.adornment.bound_positions().len();
        let call_pred = Predicate::new(&format!("call_{mangled}"), bound);
        let ans_pred = Predicate::new(&format!("ans_{mangled}"), ap.pred.arity);
        rows.push(PowerRow {
            pred: ap.pred,
            adornment: ap.adornment.suffix(),
            alexander_calls: bu.db.len_of(call_pred) as u64,
            oldt_calls: oldt.len_of(call_pred) as u64,
            alexander_answers: bu.db.len_of(ans_pred) as u64,
            oldt_answers: oldt.len_of(ans_pred) as u64,
            same_rows: same(&bu.db, &oldt, call_pred) && same(&bu.db, &oldt, ans_pred),
        });
    }

    Ok(PowerCorrespondence {
        rows,
        oldt_steps: td.metrics.resolution_steps,
        alexander_firings: bu.metrics.firings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_parser::{parse, parse_atom};
    use alexander_workload as workload;

    fn check(src: &str, q: &str) -> PowerCorrespondence {
        let parsed = parse(src).unwrap();
        let edb = Database::from_program(&parsed.program);
        check_power_correspondence(&parsed.program, &edb, &parse_atom(q).unwrap()).unwrap()
    }

    /// Equal sizes are not equal sets: a seed that bound the query's
    /// constants in reverse order demands `tc(_, n0)` where OLDT calls
    /// `tc(_, n3)` on a 6-cycle, six calls and six answers on each side.
    #[test]
    fn relations_compare_by_rows_not_by_size() {
        let call = Predicate::new("call_tc_bb", 2);
        let demand = |y: usize| {
            let mut db = Database::new();
            for z in 0..6 {
                db.insert_row(call, &[workload::node(z), workload::node(y)]);
            }
            db
        };
        assert!(same(&demand(3), &demand(3), call));
        assert!(!same(&demand(0), &demand(3), call));
        // An absent relation holds no rows.
        let mut empty = Database::new();
        empty.relation_mut(call);
        assert!(same(&Database::new(), &empty, call));
        assert!(!same(&Database::new(), &demand(3), call));
    }

    #[test]
    fn ancestor_chain_correspondence() {
        let c = check(
            "
            par(a, b). par(b, c). par(c, d). par(x, y).
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
            ",
            "anc(a, X)",
        );
        assert!(c.holds(), "{c}");
        assert_eq!(c.rows.len(), 1);
        assert_eq!(c.rows[0].alexander_calls, 4);
        assert_eq!(c.rows[0].alexander_answers, 6);
    }

    #[test]
    fn same_generation_on_tree() {
        let (edb, seed) = workload::sg_tree(4);
        let program = workload::same_generation();
        let q = Atom {
            pred: alexander_ir::Symbol::intern("sg"),
            terms: vec![
                alexander_ir::Term::Const(seed),
                alexander_ir::Term::var("Y"),
            ],
        };
        let c = check_power_correspondence(&program, &edb, &q).unwrap();
        assert!(c.holds(), "{c}");
        assert!(c.rows[0].alexander_calls > 1);
    }

    #[test]
    fn grid_path_correspondence() {
        let edb = workload::grid("e", 4);
        let program = workload::transitive_closure();
        let q = parse_atom("tc(n0, X)").unwrap();
        let c = check_power_correspondence(&program, &edb, &q).unwrap();
        assert!(c.holds(), "{c}");
        // Every cell is reachable from the corner: 15 answers for the seed.
        let row = &c.rows[0];
        assert_eq!(row.oldt_calls, 16); // one call per reachable cell
    }

    #[test]
    fn all_free_query_correspondence() {
        let c = check(
            "
            par(a, b). par(b, c).
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
            ",
            "anc(X, Y)",
        );
        assert!(c.holds(), "{c}");
        // ff call plus the bf calls its sideways bindings spawn.
        assert!(c.rows.len() >= 2, "{c}");
    }
}
