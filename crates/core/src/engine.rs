//! The engine: one program + EDB, queried under any [`Strategy`].

use crate::strategy::{QueryResult, Report, Strategy};
use alexander_eval::{
    eval_conditional_opts, eval_naive_opts, eval_seminaive_opts, eval_stratified_opts, Budget,
    CancelHandle, Completion, Consumption, EvalError, EvalOptions,
};
use alexander_ir::{
    match_atom, sort_atoms, sort_rows, Atom, Const, Polarity, Program, Subst, Symbol,
};
use alexander_parser::{parse, ParseError};
use alexander_storage::{row_atom, Database};
use alexander_topdown::{oldt_query_opts, qsqr_query_opts, OldtOptions, QsqrOptions, TopdownError};
use alexander_transform::{alexander, magic_sets, sup_magic_sets, Rewritten, SipOptions};
use std::fmt;

/// Everything that can go wrong constructing or querying an [`Engine`].
#[derive(Debug)]
pub enum EngineError {
    Parse(ParseError),
    Invalid(Vec<alexander_ir::ProgramError>),
    Eval(EvalError),
    Topdown(TopdownError),
    Adorn(alexander_transform::AdornError),
    /// The conditional fixpoint left atoms matching the query undefined; the
    /// answer set would be ill-defined.
    UndefinedAnswers(Vec<Atom>),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Invalid(errs) => {
                write!(f, "invalid program:")?;
                for e in errs {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            EngineError::Eval(e) => write!(f, "{e}"),
            EngineError::Topdown(e) => write!(f, "{e}"),
            EngineError::Adorn(e) => write!(f, "{e}"),
            EngineError::UndefinedAnswers(atoms) => {
                write!(f, "query answers are undefined (cyclic negation) for:")?;
                for a in atoms {
                    write!(f, " {a}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}
impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e)
    }
}
impl From<TopdownError> for EngineError {
    fn from(e: TopdownError) -> Self {
        EngineError::Topdown(e)
    }
}
impl From<alexander_transform::AdornError> for EngineError {
    fn from(e: alexander_transform::AdornError) -> Self {
        EngineError::Adorn(e)
    }
}

/// A loaded deductive database: rules plus extensional facts.
#[derive(Clone, Debug)]
pub struct Engine {
    program: Program,
    edb: Database,
    sip: SipOptions,
    opts: EvalOptions,
}

impl Engine {
    /// Builds an engine from a validated program and an extensional
    /// database. Inline facts are read once, here ([`Program::normalize`]):
    /// those of extensional predicates are merged into the EDB, and those of
    /// intensional predicates join the rules as body-less rules. An `edb`
    /// holding rows of an intensional predicate is refused, as
    /// [`Engine::insert_fact`] refuses one such fact: derived facts are
    /// never stored.
    pub fn new(mut program: Program, mut edb: Database) -> Result<Engine, EngineError> {
        program.validate().map_err(EngineError::Invalid)?;
        program.normalize();
        if let Some(pred) = edb.intensional_rows(&program) {
            return Err(EvalError::IdbUpdate(pred).into());
        }
        for f in std::mem::take(&mut program.facts) {
            // invariant: `Program::validate` (just above) rejects non-ground
            // facts.
            edb.insert_atom(&f).expect("validated facts are ground");
        }
        Ok(Engine {
            program,
            edb,
            sip: SipOptions::default(),
            opts: EvalOptions::default(),
        })
    }

    /// Parses `src` (rules + facts) into an engine.
    pub fn from_source(src: &str) -> Result<Engine, EngineError> {
        let parsed = parse(src)?;
        Engine::new(parsed.program, Database::new())
    }

    /// Overrides the SIP options used by the rewriting strategies.
    pub fn with_sip(mut self, sip: SipOptions) -> Engine {
        self.sip = sip;
        self
    }

    /// Sets the worker-thread count for the bottom-up fixpoint rounds
    /// (1 = sequential; answers and metrics are identical either way).
    pub fn with_threads(mut self, threads: usize) -> Engine {
        self.opts.threads = threads;
        self
    }

    /// Sets the resource budget every query runs under (wall-clock
    /// deadline, derived-fact cap, round cap, firing/step cap). On
    /// exhaustion queries return *partial* answers flagged in
    /// [`Report::completion`] rather than an error.
    pub fn with_budget(mut self, budget: Budget) -> Engine {
        self.opts.budget = budget;
        self
    }

    /// A cancellation handle for this engine's queries. Cancelling it from
    /// any thread makes in-flight (and future) queries stop cooperatively
    /// and return partial results tagged `Cancelled`; call
    /// [`CancelHandle::reset`] to reuse the engine afterwards.
    pub fn cancel_handle(&mut self) -> CancelHandle {
        self.opts
            .cancel
            .get_or_insert_with(CancelHandle::default)
            .clone()
    }

    /// The evaluator options bottom-up strategies run with.
    pub fn eval_options(&self) -> EvalOptions {
        self.opts.clone()
    }

    /// The loaded rules.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The extensional database.
    pub fn edb(&self) -> &Database {
        &self.edb
    }

    /// Adds a fact to the EDB; returns whether it was new. A fact of an
    /// intensional predicate is refused: derived facts are never stored.
    pub fn insert_fact(&mut self, atom: &Atom) -> Result<bool, EngineError> {
        if self.program.is_idb(atom.predicate()) {
            return Err(EvalError::IdbUpdate(atom.predicate()).into());
        }
        self.edb.insert_atom(atom).map_err(|e| {
            EngineError::Invalid(vec![alexander_ir::ProgramError::NonGroundFact {
                fact: e.0,
            }])
        })
    }

    /// Answers `query` under `strategy`. Answers are ground instances of the
    /// query over its original predicate, sorted and deduplicated.
    pub fn query(&self, query: &Atom, strategy: Strategy) -> Result<QueryResult, EngineError> {
        // Extensional queries are lookups under every strategy.
        if !self.program.is_idb(query.predicate()) {
            let answers = answers(&self.edb, query, query.pred);
            return Ok(QueryResult {
                answers,
                strategy,
                report: Report::default(),
            });
        }

        match strategy {
            Strategy::Naive => {
                let r = eval_naive_opts(&self.program, &self.edb, self.opts.clone())?;
                Ok(self.direct_result(query, strategy, r.db, r.metrics, r.completion))
            }
            Strategy::SemiNaive => {
                let r = eval_seminaive_opts(&self.program, &self.edb, self.opts.clone())?;
                Ok(self.direct_result(query, strategy, r.db, r.metrics, r.completion))
            }
            Strategy::Stratified => {
                let r = eval_stratified_opts(&self.program, &self.edb, self.opts.clone())?;
                Ok(self.direct_result(query, strategy, r.db, r.metrics, r.completion))
            }
            Strategy::ConditionalFixpoint => {
                let r = eval_conditional_opts(&self.program, &self.edb, self.opts.clone())?;
                let undefined_matching = normalise(matching(&r.undefined, query));
                if !undefined_matching.is_empty() {
                    return Err(EngineError::UndefinedAnswers(undefined_matching));
                }
                let mut out = self.direct_result(query, strategy, r.db, r.metrics, r.completion);
                out.report.undefined = r.undefined;
                Ok(out)
            }
            Strategy::Magic => {
                let rw = magic_sets(&self.program, query, self.sip)?;
                self.rewritten_result(query, strategy, rw)
            }
            Strategy::SupplementaryMagic => {
                let rw = sup_magic_sets(&self.program, query, self.sip)?;
                self.rewritten_result(query, strategy, rw)
            }
            Strategy::Alexander => {
                let rw = alexander(&self.program, query, self.sip)?;
                self.rewritten_result(query, strategy, rw)
            }
            Strategy::Oldt | Strategy::Qsqr => {
                let (budget, cancel) = (self.opts.budget, self.opts.cancel.clone());
                let (answers, metrics, completion, restarts) = if strategy == Strategy::Oldt {
                    let opts = OldtOptions {
                        budget,
                        cancel,
                        ..OldtOptions::default()
                    };
                    let r = oldt_query_opts(&self.program, &self.edb, query, opts)?;
                    (r.answers, r.metrics, r.completion, 0)
                } else {
                    let opts = QsqrOptions { budget, cancel };
                    let r = qsqr_query_opts(&self.program, &self.edb, query, opts)?;
                    (r.answers, r.metrics, r.completion, r.restarts)
                };
                Ok(QueryResult {
                    answers: normalise(answers),
                    strategy,
                    report: Report {
                        oldt: Some(metrics),
                        calls: Some(metrics.calls),
                        facts_materialised: metrics.answers,
                        rules_evaluated: self.program.rules.len(),
                        completion,
                        consumed: Consumption {
                            facts: metrics.answers,
                            rounds: restarts,
                            steps: metrics.resolution_steps,
                        },
                        ..Report::default()
                    },
                })
            }
        }
    }

    /// Result assembly for whole-program bottom-up strategies.
    fn direct_result(
        &self,
        query: &Atom,
        strategy: Strategy,
        db: Database,
        metrics: alexander_eval::EvalMetrics,
        completion: Completion,
    ) -> QueryResult {
        let answers = answers(&db, query, query.pred);
        QueryResult {
            answers,
            strategy,
            report: Report {
                eval: Some(metrics),
                facts_materialised: (db.total_tuples() - self.edb.total_tuples()) as u64,
                rules_evaluated: self.program.rules.len(),
                threads: self.opts.threads.max(1),
                completion,
                consumed: eval_consumption(&metrics),
                ..Report::default()
            },
        }
    }

    /// Result assembly for the rewriting strategies: evaluate the rewritten
    /// program (semi-naive when it is semipositive, conditional fixpoint
    /// otherwise — rewriting destroys stratification), then map answers back
    /// to the original predicate.
    fn rewritten_result(
        &self,
        query: &Atom,
        strategy: Strategy,
        rw: Rewritten,
    ) -> Result<QueryResult, EngineError> {
        let idb = rw.program.idb_predicates();
        let semipositive = rw.program.rules.iter().all(|r| {
            r.body
                .iter()
                .all(|l| l.polarity == Polarity::Positive || !idb.contains(&l.atom.predicate()))
        });
        let (db, metrics, undefined, completion) = if semipositive {
            let r = eval_seminaive_opts(&rw.program, &self.edb, self.opts.clone())?;
            (r.db, r.metrics, Vec::new(), r.completion)
        } else {
            let r = eval_conditional_opts(&rw.program, &self.edb, self.opts.clone())?;
            (r.db, r.metrics, r.undefined, r.completion)
        };

        let undefined_matching = matching(&undefined, &rw.query);
        if !undefined_matching.is_empty() {
            return Err(EngineError::UndefinedAnswers(undefined_matching));
        }
        // Map back: same terms, original predicate name.
        let answers = answers(&db, &rw.query, query.pred);
        let calls = db.len_of(rw.call_pred) as u64;
        Ok(QueryResult {
            answers,
            strategy,
            report: Report {
                eval: Some(metrics),
                facts_materialised: (db.total_tuples() - self.edb.total_tuples()) as u64,
                calls: Some(calls),
                undefined,
                rules_evaluated: rw.program.rules.len(),
                threads: self.opts.threads.max(1),
                completion,
                consumed: eval_consumption(&metrics),
                ..Report::default()
            },
        })
    }
}

fn eval_consumption(m: &alexander_eval::EvalMetrics) -> Consumption {
    Consumption {
        facts: m.new_facts,
        rounds: m.iterations,
        steps: m.firings,
    }
}

/// The instances of `pattern` stored in `db`, in `Atom` order, as atoms
/// over `pred` (a rewritten answer predicate maps back to the query's).
/// Only matching rows become atoms, and a relation holds no duplicates.
fn answers(db: &Database, pattern: &Atom, pred: Symbol) -> Vec<Atom> {
    let mut rows: Vec<&[Const]> = db.matching(pattern).collect();
    sort_rows(&mut rows);
    rows.into_iter().map(|row| row_atom(pred, row)).collect()
}

/// The atoms of a (short) undefined list that are instances of `pattern`.
fn matching(atoms: &[Atom], pattern: &Atom) -> Vec<Atom> {
    atoms
        .iter()
        .filter(|a| {
            a.predicate() == pattern.predicate() && match_atom(pattern, a, &mut Subst::new())
        })
        .cloned()
        .collect()
}

/// Top-down answers arrive unordered and possibly repeated.
fn normalise(mut atoms: Vec<Atom>) -> Vec<Atom> {
    sort_atoms(&mut atoms);
    atoms.dedup();
    atoms
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_ir::Predicate;
    use alexander_parser::parse_atom;

    const ANCESTOR: &str = "
        par(a, b). par(b, c). par(c, d). par(x, y).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
    ";

    fn engine() -> Engine {
        Engine::from_source(ANCESTOR).unwrap()
    }

    #[test]
    fn all_strategies_agree_on_ancestor_bf() {
        let e = engine();
        let q = parse_atom("anc(a, X)").unwrap();
        let baseline = e.query(&q, Strategy::SemiNaive).unwrap();
        let want: Vec<String> = baseline.answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(want, ["anc(a, b)", "anc(a, c)", "anc(a, d)"]);
        for s in Strategy::ALL {
            let r = e.query(&q, s).unwrap();
            let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
            assert_eq!(got, want, "strategy {s}");
        }
    }

    #[test]
    fn rewriting_strategies_report_calls() {
        let e = engine();
        let q = parse_atom("anc(a, X)").unwrap();
        for s in [
            Strategy::Magic,
            Strategy::SupplementaryMagic,
            Strategy::Alexander,
            Strategy::Oldt,
        ] {
            let r = e.query(&q, s).unwrap();
            assert_eq!(r.report.calls, Some(4), "strategy {s}"); // a, b, c, d
        }
    }

    #[test]
    fn goal_directed_strategies_materialise_fewer_facts() {
        let e = engine();
        let q = parse_atom("anc(a, X)").unwrap();
        let full = e.query(&q, Strategy::SemiNaive).unwrap();
        let alex = e.query(&q, Strategy::Alexander).unwrap();
        // Full closure materialises anc over the x->y island too; Alexander
        // only touches the reachable chain. (Absolute counts include the
        // rewriting's auxiliary facts.)
        assert!(full.answers.len() == 3 && alex.answers.len() == 3);
        assert!(alex.report.calls.unwrap() < 6);
    }

    #[test]
    fn ground_query_yes_no() {
        let e = engine();
        let yes = e
            .query(&parse_atom("anc(a, d)").unwrap(), Strategy::Alexander)
            .unwrap();
        assert_eq!(yes.answers.len(), 1);
        let no = e
            .query(&parse_atom("anc(d, a)").unwrap(), Strategy::Alexander)
            .unwrap();
        assert!(no.answers.is_empty());
    }

    #[test]
    fn edb_query_is_a_lookup_under_any_strategy() {
        let e = engine();
        let q = parse_atom("par(a, X)").unwrap();
        for s in Strategy::ALL {
            let r = e.query(&q, s).unwrap();
            assert_eq!(r.answers.len(), 1, "strategy {s}");
            assert_eq!(r.answers[0].to_string(), "par(a, b)");
        }
    }

    #[test]
    fn stratified_negation_via_engine() {
        let e = Engine::from_source(
            "
            edge(s, a). edge(a, b). node(s). node(a). node(b). node(z).
            source(s).
            reach(X) :- source(S), edge(S, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
        ",
        )
        .unwrap();
        let q = parse_atom("unreach(X)").unwrap();
        for s in [
            Strategy::Stratified,
            Strategy::ConditionalFixpoint,
            Strategy::Oldt,
        ] {
            let r = e.query(&q, s).unwrap();
            let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
            assert_eq!(got, ["unreach(s)", "unreach(z)"], "strategy {s}");
        }
    }

    #[test]
    fn win_move_conditional_and_undefined_detection() {
        let e = Engine::from_source(
            "
            move(a, b). move(b, c). move(d, d2). move(d2, d).
            win(X) :- move(X, Y), !win(Y).
        ",
        )
        .unwrap();
        // Decided part of the game works:
        let r = e
            .query(
                &parse_atom("win(b)").unwrap(),
                Strategy::ConditionalFixpoint,
            )
            .unwrap();
        assert_eq!(r.answers.len(), 1);
        assert!(!r.report.undefined.is_empty()); // the d-cycle is undefined
                                                 // Asking about the undefined cycle is an error, not a silent no.
        let err = e.query(
            &parse_atom("win(d)").unwrap(),
            Strategy::ConditionalFixpoint,
        );
        assert!(matches!(err, Err(EngineError::UndefinedAnswers(_))));
    }

    #[test]
    fn threads_change_neither_answers_nor_metrics() {
        let q = parse_atom("anc(a, X)").unwrap();
        let seq = engine();
        for threads in [2, 4, 8] {
            let par = Engine::from_source(ANCESTOR).unwrap().with_threads(threads);
            for s in [
                Strategy::SemiNaive,
                Strategy::Stratified,
                Strategy::Magic,
                Strategy::SupplementaryMagic,
                Strategy::Alexander,
            ] {
                let a = seq.query(&q, s).unwrap();
                let b = par.query(&q, s).unwrap();
                assert_eq!(a.answers, b.answers, "{s} @ {threads} threads");
                assert_eq!(a.report.eval, b.report.eval, "{s} @ {threads} threads");
                assert_eq!(b.report.threads, threads);
            }
        }
    }

    #[test]
    fn every_bottom_up_strategy_runs_compiled_plans() {
        let q = parse_atom("anc(a, X)").unwrap();
        for s in [
            Strategy::Naive,
            Strategy::SemiNaive,
            Strategy::Stratified,
            Strategy::ConditionalFixpoint,
            Strategy::Magic,
            Strategy::SupplementaryMagic,
            Strategy::Alexander,
        ] {
            let stats = engine().query(&q, s).unwrap().report.eval.unwrap().exec;
            assert!(stats.plans_compiled > 0, "{s} compiled no plans");
            assert!(stats.blocks_executed > 0, "{s} ran no blocks");
        }
    }

    #[test]
    fn fact_budget_gives_partial_answers_on_every_strategy() {
        let q = parse_atom("anc(X, Y)").unwrap();
        let full = engine().query(&q, Strategy::SemiNaive).unwrap();
        for s in Strategy::ALL {
            let e = engine().with_budget(Budget::default().with_max_facts(1));
            let r = e.query(&q, s).unwrap();
            assert!(
                !r.report.completion.is_complete(),
                "strategy {s}: {:?}",
                r.report.completion
            );
            for a in &r.answers {
                assert!(full.answers.contains(a), "strategy {s}: spurious {a}");
            }
            assert!(r.answers.len() < full.answers.len(), "strategy {s}");
        }
    }

    #[test]
    fn cancel_handle_stops_queries_until_reset() {
        let mut e = engine();
        let handle = e.cancel_handle();
        let q = parse_atom("anc(a, X)").unwrap();
        handle.cancel();
        let r = e.query(&q, Strategy::SemiNaive).unwrap();
        assert_eq!(r.report.completion, alexander_eval::Completion::Cancelled);
        handle.reset();
        let r = e.query(&q, Strategy::SemiNaive).unwrap();
        assert!(r.report.completion.is_complete());
        assert_eq!(r.answers.len(), 3);
    }

    #[test]
    fn report_carries_consumption_counters() {
        let e = engine();
        let q = parse_atom("anc(a, X)").unwrap();
        let r = e.query(&q, Strategy::SemiNaive).unwrap();
        assert!(r.report.consumed.facts > 0);
        assert!(r.report.consumed.rounds > 0);
        assert!(r.report.consumed.steps > 0);
        let o = e.query(&q, Strategy::Oldt).unwrap();
        assert!(o.report.consumed.steps > 0);
    }

    #[test]
    fn insert_fact_extends_the_edb() {
        let mut e = engine();
        let q = parse_atom("anc(a, X)").unwrap();
        assert_eq!(e.query(&q, Strategy::Alexander).unwrap().answers.len(), 3);
        e.insert_fact(&parse_atom("par(d, z)").unwrap()).unwrap();
        assert_eq!(e.query(&q, Strategy::Alexander).unwrap().answers.len(), 4);
    }

    #[test]
    fn intensional_inline_facts_are_rules_not_rows() {
        let mut e = Engine::from_source(
            "e(a, b). e(b, c). anc(z, z).
             anc(X, Y) :- e(X, Y).
             anc(X, Y) :- e(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let anc = Predicate::new("anc", 2);
        assert_eq!(e.edb().len_of(anc), 0, "no derived fact is stored");
        assert_eq!(e.program().rules.len(), 3, "`anc(z, z)` is a rule");
        assert!(e.program().facts.is_empty());
        assert!(matches!(
            e.insert_fact(&parse_atom("anc(a, z)").unwrap()),
            Err(EngineError::Eval(EvalError::IdbUpdate(_)))
        ));
        assert_eq!(e.edb().len_of(anc), 0);
    }

    #[test]
    fn an_edb_with_rows_of_an_intensional_predicate_is_refused() {
        let program = parse("anc(X, Y) :- e(X, Y).").unwrap().program;
        let mut edb = Database::new();
        edb.insert_atom(&parse_atom("e(a, b)").unwrap()).unwrap();
        assert!(Engine::new(program.clone(), edb.clone()).is_ok());
        edb.insert_atom(&parse_atom("anc(z, z)").unwrap()).unwrap();
        assert!(matches!(
            Engine::new(program, edb),
            Err(EngineError::Eval(EvalError::IdbUpdate(p))) if p == Predicate::new("anc", 2)
        ));
    }

    #[test]
    fn invalid_program_is_rejected_at_construction() {
        assert!(matches!(
            Engine::from_source("p(X, Y) :- q(X)."),
            Err(EngineError::Invalid(_))
        ));
    }

    #[test]
    fn repeated_variable_query() {
        let e = Engine::from_source(
            "
            e(a, a). e(a, b).
            p(X, Y) :- e(X, Y).
        ",
        )
        .unwrap();
        let q = parse_atom("p(X, X)").unwrap();
        for s in [Strategy::SemiNaive, Strategy::Oldt] {
            let r = e.query(&q, s).unwrap();
            assert_eq!(r.answers.len(), 1, "strategy {s}");
            assert_eq!(r.answers[0].to_string(), "p(a, a)");
        }
    }
}
