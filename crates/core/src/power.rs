//! The power correspondence (experiment E3): bottom-up evaluation of the
//! Alexander-transformed program materialises exactly OLDT's call and answer
//! tables.
//!
//! For every adorned intensional predicate `p^a` reachable from the query:
//!
//! * `|call_p^a|` (facts of the call predicate) must equal the number of
//!   distinct OLDT tabled calls to `p` whose canonical form binds exactly
//!   the positions `a` binds;
//! * `|ans_p^a|` must equal the number of distinct answers across those
//!   tables.
//!
//! [`check_power_correspondence`] computes both sides and reports them row
//! by row; the integration tests and the harness assert exact equality on
//! definite programs.

use crate::engine::EngineError;
use alexander_eval::eval_seminaive;
use alexander_ir::{AdornedPredicate, Adornment, Atom, Bf, FxHashMap, Predicate, Program};
use alexander_storage::Database;
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
}

impl PowerRow {
    /// True iff both counts agree.
    pub fn matches(&self) -> bool {
        self.alexander_calls == self.oldt_calls && self.alexander_answers == self.oldt_answers
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

/// The adornment shape of a canonical OLDT call: positions holding constants
/// are bound.
fn call_adornment(call: &Atom) -> Adornment {
    Adornment(
        call.terms
            .iter()
            .map(|t| if t.is_ground() { Bf::Bound } else { Bf::Free })
            .collect(),
    )
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

    // Group the OLDT call/answer tables by (predicate, adornment).
    let mut oldt_calls: FxHashMap<(Predicate, String), u64> = FxHashMap::default();
    let mut oldt_answers: FxHashMap<(Predicate, String), u64> = FxHashMap::default();
    for (call, n_answers) in td.tables() {
        let key = (call.predicate(), call_adornment(call).suffix());
        *oldt_calls.entry(key.clone()).or_default() += 1;
        *oldt_answers.entry(key).or_default() += n_answers;
    }

    // Read the template relations: one row per adorned predicate.
    let mut rows = Vec::new();
    let mut adorned: Vec<(&alexander_ir::Symbol, &AdornedPredicate)> =
        rw.adorned.map.iter().collect();
    adorned.sort_by_key(|(s, _)| s.as_str());
    for (mangled, ap) in adorned {
        let call_pred = Predicate {
            name: alexander_ir::Symbol::intern(&format!("call_{mangled}")),
            arity: ap.adornment.bound_positions().len(),
        };
        let ans_pred = Predicate {
            name: alexander_ir::Symbol::intern(&format!("ans_{mangled}")),
            arity: ap.pred.arity,
        };
        let key = (ap.pred, ap.adornment.suffix());
        rows.push(PowerRow {
            pred: ap.pred,
            adornment: ap.adornment.suffix(),
            alexander_calls: bu.db.len_of(call_pred) as u64,
            oldt_calls: oldt_calls.get(&key).copied().unwrap_or(0),
            alexander_answers: bu.db.len_of(ans_pred) as u64,
            oldt_answers: oldt_answers.get(&key).copied().unwrap_or(0),
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
