//! QSQR — Query-Subquery, recursive variant (Vieille 1986).
//!
//! The third member of the goal-directed family the 1989 literature
//! compares (Alexander templates, magic sets, QSQR/OLDT). Where OLDT
//! suspends consumers and resumes them answer by answer, QSQR keeps two
//! global tables per adorned predicate —
//!
//! * `input_p^a`: the bound-argument tuples of every subquery issued, and
//! * `ans_p^a`: the full answers derived for them —
//!
//! and processes subqueries *recursively*: meeting an intensional body
//! literal registers its input and recursively solves it before consuming
//! its answers. Recursive cycles are broken by an in-progress marker; an
//! outer loop restarts the whole process until neither table grows.
//!
//! Clauses are read by the compiler OLDT uses (`front.rs`), once per
//! adorned predicate reachable from the query: the body in SIP order,
//! variables and constants as slots, head unification as slot loads and
//! checks, extensional goals as probes of an index on their bound columns.
//! Its patterns are adornments, not variant calls: every free position is
//! its own class, and a repeated variable is checked as an answer is
//! consumed. A pattern's inputs are a [`Relation`] of the constants at its
//! bound positions, in registration order; its answers a `Relation`
//! indexed on those columns. A body runs depth-first over one slot array,
//! bound in place; atoms are built only for the answers.
//!
//! A naive restart re-joins every input against every answer ever derived,
//! which blows the step count up by orders of magnitude against OLDT on
//! deep recursions. Four refinements keep the restarts incremental while
//! leaving the input/answer tables (and hence the demand-set comparisons)
//! untouched:
//!
//! * a subquery consumes only the answers posted under its input (the
//!   answer index on the bound columns);
//! * each `(pattern, input)` pair remembers how many answers every pattern
//!   had when it last completed a pass, and later passes evaluate each
//!   clause as semi-naive delta variants — one positive intensional
//!   literal reads only the *new* answers, literals before it only the
//!   *old* ones;
//! * clauses whose bodies call no positive intensional literal derive
//!   nothing new after their first pass over an input and are skipped;
//! * a pattern's inputs are solved newest first. In a linear recursion the
//!   newest input is the deepest subquery, so its answers reach the older
//!   inputs within the same restart rather than one restart per level.
//!
//! Every order the engine follows is a registration order, never a hash
//! order, so its counters are a function of the program, the data and the
//! query alone: two runs that differ only in constant names or interning
//! history count the same steps and restarts.
//!
//! Its `input` tables must coincide with the magic/call demand sets and
//! with OLDT's call tables on the same SIP — asserted by the test suite and
//! experiment E13, the four-way power comparison. [`QsqrResult::tables`]
//! reports them in OLDT's form, one [`CallTable`] per input.

use crate::front::{values, CallTable, Clause, Clauses, Code, Goal, Tabling, TopdownError};
use crate::metrics::OldtMetrics;
use alexander_eval::{Budget, Completion, Governor};
use alexander_ir::{hash_row, Atom, Const, FxHashMap, Polarity, Program};
use alexander_storage::{row_atom, Database, Mask, Relation};
use std::cmp::Ordering;

/// The result of a QSQR run.
#[derive(Clone, Debug)]
pub struct QsqrResult {
    /// Ground instances of the query.
    pub answers: Vec<Atom>,
    pub metrics: OldtMetrics,
    /// Every input with the answers posted under it, by adorned predicate
    /// and then in registration order.
    pub tables: Vec<CallTable>,
    /// Number of global restarts until the tables stabilised.
    pub restarts: u64,
    /// Whether the tables stabilised. On a budget stop the answers
    /// are a subset of the complete run's answers (the engine derives
    /// answers in the same deterministic order and only adds, never
    /// retracts, so an early stop is a prefix of the full derivation).
    pub completion: Completion,
}

/// One adorned predicate's tables.
struct Table {
    /// The constants at the bound positions of every subquery, in
    /// registration order.
    inputs: Relation,
    /// The answers, indexed on `bound`.
    answers: Relation,
    /// The adornment's bound columns.
    bound: Mask,
}

impl Table {
    /// The ids of the answers to input `key`, ascending.
    fn answers_to(&self, key: &[Const]) -> Vec<u32> {
        if self.bound.is_empty() {
            return (0..self.answers.len() as u32).collect();
        }
        let eq = |rep: &[Const]| self.bound.columns().zip(key).all(|(c, k)| rep[c] == *k);
        let ids = self.answers.probe_ids(self.bound, hash_row(key), eq);
        ids.unwrap_or_default().to_vec()
    }
}

/// One pass of a clause over an input: the pattern it answers, and, for a
/// delta variant, the goal that reads only new answers and the input's
/// cursors that split each pattern's answers into old and new.
struct Pass<'c> {
    pattern: usize,
    clause: &'c Clause,
    delta: Option<usize>,
    cursors: &'c [usize],
}

struct Engine<'a> {
    code: &'a Code,
    front: &'a Clauses,
    tables: Vec<Table>,
    /// Per processed `(pattern, input id)`: every pattern's answer count at
    /// the start of its last *completed* pass. Answers at or past the
    /// cursor are that input's delta on the next pass.
    cursors: FxHashMap<(usize, u32), Vec<usize>>,
    /// Patterns currently being solved (cycle breaker).
    in_progress: Vec<bool>,
    metrics: OldtMetrics,
    changed: bool,
    gov: Governor,
    /// Latched once the governor trips; every recursion unwinds promptly.
    stopped: bool,
}

impl<'a> Engine<'a> {
    /// Governance check between resolution steps: latches `stopped` so the
    /// depth-first recursion unwinds without doing further work.
    fn tripped(&mut self) -> bool {
        if !self.stopped && self.gov.check_interrupt().is_break() {
            self.stopped = true;
        }
        self.stopped
    }

    /// Registers the subquery of `pattern` with the bound constants `key`.
    fn register(&mut self, pattern: usize, key: &[Const]) {
        if self.tables[pattern].inputs.insert_row(key) {
            self.metrics.calls += 1;
            self.changed = true;
        }
    }

    /// Solves every registered input of `pattern` against its clauses,
    /// newest first, recursing into subqueries. Idempotent within one
    /// restart; cycles fall through to the outer restart loop.
    ///
    /// The first pass over an input evaluates each clause in full. Later
    /// passes evaluate semi-naive delta variants: with the input's cursors
    /// splitting every answer table into old and new halves, variant `j`
    /// reads only new answers at the `j`-th positive intensional literal,
    /// only old ones before it, and everything after it. Combinations of
    /// purely old answers were joined by the previous completed pass, so a
    /// quiescent input costs one probe per variant rather than a re-join of
    /// the full tables.
    fn solve(&mut self, pattern: usize) -> Result<(), TopdownError> {
        if self.in_progress[pattern] || self.tripped() {
            return Ok(());
        }
        self.in_progress[pattern] = true;
        let code = self.code;
        // Inputs registered while solving are caught by the restart loop.
        for id in (0..self.tables[pattern].inputs.len() as u32).rev() {
            if self.tripped() {
                break;
            }
            let key = self.tables[pattern].inputs.row(id).to_vec();
            let snapshot: Vec<usize> = self.tables.iter().map(|t| t.answers.len()).collect();
            let cursors = self.cursors.remove(&(pattern, id));
            for clause in &code.clauses[code.patterns[pattern].2.clone()] {
                let calls: Vec<usize> = (clause.body.iter().enumerate())
                    .filter(|(_, g)| matches!(g, Goal::Call(_, _, Polarity::Positive)))
                    .map(|(i, _)| i)
                    .collect();
                if cursors.is_some() && calls.is_empty() {
                    // The body reads only static tables: the first pass
                    // already derived everything this clause can.
                    continue;
                }
                let Some(mut slots) = clause.bind(&key) else {
                    continue;
                };
                let Some(cursors) = &cursors else {
                    self.metrics.resolution_steps += 1;
                    let pass = Pass {
                        pattern,
                        clause,
                        delta: None,
                        cursors: &[],
                    };
                    self.body(&pass, 0, &mut slots)?;
                    continue;
                };
                for delta in calls {
                    if self.tripped() {
                        break;
                    }
                    self.metrics.resolution_steps += 1;
                    let pass = Pass {
                        pattern,
                        clause,
                        delta: Some(delta),
                        cursors,
                    };
                    self.body(&pass, 0, &mut slots.clone())?;
                }
            }
            if !self.stopped {
                self.cursors.insert((pattern, id), snapshot);
            }
        }
        self.in_progress[pattern] = false;
        Ok(())
    }

    /// Depth-first evaluation of `pass`'s body from goal `i` under `slots`,
    /// each candidate binding its free slots in place.
    fn body(&mut self, pass: &Pass, i: usize, slots: &mut [Const]) -> Result<(), TopdownError> {
        if self.tripped() {
            return Ok(());
        }
        let Some(goal) = pass.clause.body.get(i) else {
            let answer = values(slots, &pass.clause.head);
            let (h, answers) = (hash_row(&answer), &mut self.tables[pass.pattern].answers);
            if answers.contains_row_hashed(h, &answer) {
                return Ok(());
            }
            // Claim-before-insert, as in the bottom-up evaluators.
            if self.gov.claim_fact().is_break() {
                self.stopped = true;
                return Ok(());
            }
            answers.push_new_row_hashed(h, &answer);
            self.metrics.answers += 1;
            self.changed = true;
            return Ok(());
        };
        let passes = match goal {
            Goal::Test(builtin, [a, b], holds) => builtin.eval(slots[*a], slots[*b]) == *holds,
            Goal::Edb(pred, mask, args, Polarity::Positive) => {
                let front = self.front;
                for row in front.probe(*pred, *mask, &values(slots, &args.key)) {
                    self.metrics.resolution_steps += 1;
                    if args.bind(row, slots) {
                        self.body(pass, i + 1, slots)?;
                    }
                }
                return Ok(());
            }
            Goal::Edb(pred, _, args, Polarity::Negative) => {
                let row = values(slots, &args.key);
                !self.front.edb.contains_row(*pred, &row)
            }
            Goal::Call(sub, args, Polarity::Positive) => {
                let key = values(slots, &args.key);
                self.register(*sub, &key);
                self.solve(*sub)?;
                if self.stopped {
                    return Ok(());
                }
                let ids = self.tables[*sub].answers_to(&key);
                // Ids ascend, so the cursor splits them into old and new
                // with one binary search.
                let cut = pass.cursors.get(*sub).copied().unwrap_or(0);
                let split = ids.partition_point(|&id| (id as usize) < cut);
                let ids = match pass.delta.map(|d| i.cmp(&d)) {
                    Some(Ordering::Less) => &ids[..split],
                    Some(Ordering::Equal) => &ids[split..],
                    _ => &ids[..],
                };
                for &id in ids {
                    self.metrics.resolution_steps += 1;
                    if args.bind(self.tables[*sub].answers.row(id), slots) {
                        self.body(pass, i + 1, slots)?;
                    }
                }
                return Ok(());
            }
            Goal::Call(sub, args, Polarity::Negative) => {
                // Stratified: complete the subquery first. The outer restart
                // loop guarantees completion before the final verdict, and
                // stratification guarantees the recursion below terminates.
                let key = values(slots, &args.key);
                self.register(*sub, &key);
                self.solve(*sub)?;
                if self.stopped {
                    // The subquery's tables may be incomplete; a negative
                    // conclusion from them would be unsound. Drop the branch.
                    return Ok(());
                }
                !self.tables[*sub].answers.contains_row(&key)
            }
            Goal::NonGround(goal) => return Err(TopdownError::NonGroundNegation(goal.clone())),
        };
        self.metrics.resolution_steps += 1;
        if passes {
            self.body(pass, i + 1, slots)?;
        }
        Ok(())
    }
}

/// Answers `query` by recursive QSQR.
pub fn qsqr_query(
    program: &Program,
    edb: &Database,
    query: &Atom,
) -> Result<QsqrResult, TopdownError> {
    qsqr_query_opts(program, edb, query, Budget::UNLIMITED)
}

/// [`qsqr_query`] under a resource budget: `max_facts` bounds tabled
/// answers, `max_rounds` bounds global restarts, and the deadline is
/// checked between resolution steps.
pub fn qsqr_query_opts(
    program: &Program,
    edb: &Database,
    query: &Atom,
    budget: Budget,
) -> Result<QsqrResult, TopdownError> {
    let mut front = Clauses::new(program, edb)?;
    if front.negated_idb.is_some() {
        alexander_ir::analysis::stratify(program).map_err(TopdownError::NotStratified)?;
    }
    let code = Code::compile(&mut front, query, Tabling::Adornment, true);
    let tables = code.patterns.iter().map(|(pred, shape, _)| {
        let bound: Vec<usize> = (0..shape.len()).filter(|&c| shape[c].is_none()).collect();
        let (bound, mut answers) = (Mask::of_columns(&bound), Relation::new(pred.arity));
        answers.ensure_index(bound);
        let inputs = Relation::new(bound.count());
        Table {
            inputs,
            answers,
            bound,
        }
    });
    let mut engine = Engine {
        code: &code,
        front: &front,
        tables: tables.collect(),
        cursors: FxHashMap::default(),
        in_progress: vec![false; code.patterns.len()],
        metrics: OldtMetrics::default(),
        changed: false,
        gov: Governor::new(budget),
        stopped: false,
    };

    let mut restarts = 0u64;
    let mut answers: Vec<Atom> = if front.idb.contains(&query.predicate()) {
        let key: Vec<Const> = query.terms.iter().filter_map(|t| t.as_const()).collect();
        engine.register(0, &key);
        // Restart until neither inputs nor answers grow. A restart counts
        // as a "round" against the budget.
        loop {
            if engine.gov.note_round().is_break() {
                engine.stopped = true;
                break;
            }
            restarts += 1;
            engine.changed = false;
            // The patterns with inputs as the restart begins: one first
            // called meanwhile was solved at its call.
            let live: Vec<usize> = (0..code.patterns.len())
                .filter(|&p| !engine.tables[p].inputs.is_empty())
                .collect();
            for pattern in live {
                engine.solve(pattern)?;
            }
            if engine.stopped || !engine.changed {
                break;
            }
        }
        let rows = engine.tables[0].answers.matching(&query.terms);
        rows.map(|row| row_atom(query.pred, row)).collect()
    } else {
        front.lookup(query)
    };
    answers.sort();

    let tables = engine.tables.iter().zip(&code.patterns).flat_map(|(t, p)| {
        t.inputs.iter().map(|key| {
            let mut answers = Relation::new(p.0.arity);
            for id in t.answers_to(key) {
                answers.insert_row(t.answers.row(id));
            }
            CallTable {
                pred: p.0,
                shape: p.1.clone(),
                key: key.to_vec(),
                answers,
            }
        })
    });
    Ok(QsqrResult {
        answers,
        metrics: engine.metrics,
        tables: tables.collect(),
        restarts,
        completion: engine.gov.completion(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::canonical;
    use alexander_ir::{Predicate, Term};
    use alexander_parser::{parse, parse_atom};

    fn run(src: &str, q: &str) -> QsqrResult {
        let parsed = parse(src).unwrap();
        let edb = Database::from_program(&parsed.program);
        qsqr_query(&parsed.program, &edb, &parse_atom(q).unwrap()).unwrap()
    }

    const ANCESTOR: &str = "
        par(a, b). par(b, c). par(c, d). par(x, y).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
    ";

    #[test]
    fn bound_free_ancestor() {
        let r = run(ANCESTOR, "anc(a, X)");
        let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(got, ["anc(a, b)", "anc(a, c)", "anc(a, d)"]);
        // Demand set = the reachable chain, like OLDT and the templates.
        let want = [
            "anc(a, _C0)=3",
            "anc(b, _C0)=2",
            "anc(c, _C0)=1",
            "anc(d, _C0)=0",
        ];
        assert_eq!(canonical(&r.tables), want);
    }

    /// Where no call repeats a variable, OLDT's variant calls and QSQR's
    /// adorned inputs are the same calls: the tables agree call for call
    /// and answer row for answer row.
    #[test]
    fn agrees_with_oldt_tables() {
        let mut compared = 0;
        for g in golden_rows()
            .into_iter()
            .filter(|g| g.budget.is_unlimited())
        {
            let q = parse_atom(&g.query).unwrap();
            let qs = qsqr_query(&g.program, &g.edb, &q).unwrap();
            let ol = crate::oldt::oldt_query(&g.program, &g.edb, &q).unwrap();
            let mut answers = ol.answers.clone();
            answers.sort();
            assert_eq!(qs.answers, answers, "{}", g.name);
            let repeats = |t: &CallTable| {
                let free: Vec<u32> = t.shape.iter().flatten().copied().collect();
                (1..free.len()).any(|i| free[..i].contains(&free[i]))
            };
            if ol.tables.iter().any(repeats) {
                continue;
            }
            assert_eq!(qs.tables.len(), ol.tables.len(), "{}", g.name);
            for t in &ol.tables {
                assert!(qs.tables.contains(t), "{}: {t:?}", g.name);
            }
            assert_eq!(qs.metrics.calls, ol.metrics.calls, "{}", g.name);
            compared += 1;
        }
        assert_eq!(compared, 30);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let r = run(
            "
            e(a, b). e(b, a).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            ",
            "tc(a, X)",
        );
        let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(got, ["tc(a, a)", "tc(a, b)"]);
        assert!(r.restarts >= 2, "recursion needs at least one restart");
    }

    #[test]
    fn nonlinear_same_generation() {
        let r = run(
            "
            up(a, g1). up(b, g1).
            flat(g1, g1).
            down(g1, c). down(g1, d).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
            ",
            "sg(a, Y)",
        );
        let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(got, ["sg(a, c)", "sg(a, d)"]);
    }

    #[test]
    fn stratified_negation() {
        let r = run(
            "
            edge(s, a). edge(a, b). node(s). node(a). node(b). node(z).
            reach(X) :- edge(s, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
            ",
            "unreach(X)",
        );
        let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(got, ["unreach(s)", "unreach(z)"]);
    }

    #[test]
    fn unstratified_negation_is_rejected() {
        let parsed = parse("move(a, b). win(X) :- move(X, Y), !win(Y).").unwrap();
        let edb = Database::from_program(&parsed.program);
        assert!(matches!(
            qsqr_query(&parsed.program, &edb, &parse_atom("win(a)").unwrap()),
            Err(TopdownError::NotStratified(_))
        ));
    }

    #[test]
    fn fact_budget_yields_sound_answer_subset() {
        let parsed = parse(ANCESTOR).unwrap();
        let edb = Database::from_program(&parsed.program);
        let q = parse_atom("anc(X, Y)").unwrap();
        let full = qsqr_query(&parsed.program, &edb, &q).unwrap();
        assert!(full.completion.is_complete());
        for max in [0u64, 1, 3, 5] {
            let r = qsqr_query_opts(
                &parsed.program,
                &edb,
                &q,
                Budget::default().with_max_facts(max),
            )
            .unwrap();
            assert!(!r.completion.is_complete(), "max_facts {max}");
            for a in &r.answers {
                assert!(full.answers.contains(a), "spurious answer {a}");
            }
            assert!(r.answers.len() < full.answers.len());
        }
    }

    #[test]
    fn restart_budget_limits_restarts() {
        let parsed = parse(
            "
            e(a, b). e(b, a).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let edb = Database::from_program(&parsed.program);
        let r = qsqr_query_opts(
            &parsed.program,
            &edb,
            &parse_atom("tc(a, X)").unwrap(),
            Budget::default().with_max_rounds(1),
        )
        .unwrap();
        assert_eq!(r.restarts, 1);
        assert!(!r.completion.is_complete());
    }

    #[test]
    fn ground_and_free_queries() {
        let yes = run(ANCESTOR, "anc(a, d)");
        assert_eq!(yes.answers.len(), 1);
        let no = run(ANCESTOR, "anc(d, a)");
        assert!(no.answers.is_empty());
        let all = run(ANCESTOR, "anc(X, Y)");
        assert_eq!(all.answers.len(), 7);
    }

    /// One row of the counter pin: a program over an EDB, a query, a
    /// budget, and the expected `columns` of the run.
    struct Golden {
        name: &'static str,
        program: Program,
        edb: Database,
        query: String,
        budget: Budget,
        want: [&'static str; 5],
    }

    /// `items` joined by spaces, or their count and FNV-1a digest when the
    /// text would not fit a table row.
    fn digest(items: &[String]) -> String {
        let text = items.join(" ");
        if text.len() <= 160 {
            return text;
        }
        let fnv = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        format!("{} items fnv {fnv:016x}", items.len())
    }

    /// The pinned columns of a run: its table sizes and completion, each
    /// adorned predicate's `inputs/answers`, the sorted answers, every
    /// input table by content, and the work counters.
    fn columns(r: &QsqrResult) -> [String; 5] {
        let mut by_adornment: Vec<(String, u64, u64)> = Vec::new();
        for t in &r.tables {
            let ad: String = (t.shape.iter())
                .map(|a| if a.is_none() { 'b' } else { 'f' })
                .collect();
            let (key, n) = (format!("{}^{ad}", t.pred.name), t.answers.len() as u64);
            match by_adornment.iter_mut().find(|(k, ..)| *k == key) {
                Some((_, inputs, answers)) => (*inputs, *answers) = (*inputs + 1, *answers + n),
                None => by_adornment.push((key, 1, n)),
            }
        }
        let mut tables: Vec<String> = (by_adornment.iter())
            .map(|(key, inputs, answers)| format!("{key}={inputs}/{answers}"))
            .collect();
        tables.sort();
        let mut answers: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        answers.sort();
        let m = &r.metrics;
        let complete = r.completion.is_complete();
        [
            format!(
                "calls={} answers={} complete={complete}",
                m.calls, m.answers
            ),
            digest(&tables),
            digest(&answers),
            digest(&canonical(&r.tables)),
            format!("steps={} restarts={}", m.resolution_steps, r.restarts),
        ]
    }

    const CHAIN: &str = "
        par(c0, c1). par(c1, c2). par(c2, c3). par(c3, c4).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
    ";

    const SG: &str = "
        up(a, g1). up(b, g1). up(c, g2). up(g1, r). up(g2, r).
        flat(r, r).
        down(r, g1). down(r, g2). down(g1, a). down(g1, b). down(g2, c).
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
    ";

    const NEGATION: &str = "
        edge(s, a). edge(a, b). edge(z, s). node(s). node(a). node(b). node(z).
        blocked(a).
        reach(X) :- edge(s, X).
        reach(Y) :- reach(X), edge(X, Y).
        unreach(X) :- node(X), !reach(X).
        open(X, Y) :- edge(X, Y), !blocked(X).
    ";

    const BUILTINS: &str = "
        e(1, 2). e(2, 2). e(3, 1). e(2, 5).
        step(X, Y) :- e(X, Y), neq(X, Y).
        up(X, Y) :- e(X, Y), lt(X, Y).
        both(X, Y) :- step(X, Y), up(X, Y).
        low(X) :- e(X, Y), !lt(1, X).
    ";

    const REPEATED: &str = "
        e(a, b). e(b, a). e(b, c). e(c, c). e(d, d).
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, Z), t(Z, Y).
        self(X) :- t(X, X).
        loop(X) :- e(X, X).
        twice(X, Y) :- t(X, Y), t(Y, X).
    ";

    const HEAD_CONSTANTS: &str = "
        e(1). e(2). f(a). f(c). g(a). g(c). g(d).
        p(a, Y) :- e(Y).
        p(X, b) :- f(X).
        p(c, c).
        q(X, Y) :- g(X), p(X, Y).
    ";

    const INLINE: &str = "
        par(a, b). par(b, c). anc(z, z). anc(c, w).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
    ";

    const MUTUAL: &str = "
        zero(n0). succ(n0, n1). succ(n1, n2). succ(n2, n3). succ(n3, n4).
        even(X) :- zero(X).
        even(Y) :- succ(X, Y), odd(X).
        odd(Y) :- succ(X, Y), even(X).
    ";

    fn golden_rows() -> Vec<Golden> {
        use alexander_workload as w;
        let parsed = |src: &str| {
            let program = parse(src).unwrap().program;
            let edb = Database::from_program(&program);
            (program, edb)
        };
        let row = |name, (program, edb): (Program, Database), query: &str, want| Golden {
            name,
            program,
            edb,
            query: query.to_string(),
            budget: Budget::UNLIMITED,
            want,
        };
        let (sg_edb, sg_seed) = w::sg_tree(6);
        let sg_query = format!("sg({sg_seed}, Y)");
        vec![
            row(
                "e13 ancestor chain(60) bf",
                (w::ancestor(), w::chain("par", 60)),
                "anc(n0, X)",
                ["calls=61 answers=1830 complete=true", "anc^bf=61/1830", "60 items fnv 3fbdfdd8edce3c8f", "61 items fnv 7707949b69ccaa89", "steps=5672 restarts=61"],
            ),
            row(
                "e13 sg tree(6) bf",
                (w::same_generation(), sg_edb),
                &sg_query,
                ["calls=7 answers=120 complete=true", "sg^bf=7/120", "63 items fnv 42e7829ab276e457", "sg(n0, _C0)=0 sg(n1, _C0)=1 sg(n15, _C0)=15 sg(n3, _C0)=3 sg(n31, _C0)=31 sg(n63, _C0)=63 sg(n7, _C0)=7", "steps=239 restarts=7"],
            ),
            row(
                "e13 tc grid(6) bf",
                (w::transitive_closure(), w::grid("e", 6)),
                "tc(n0, X)",
                ["calls=36 answers=405 complete=true", "tc^bf=36/405", "35 items fnv ba3271e9f5ebf1f9", "36 items fnv 55d74e45c891aefc", "steps=1272 restarts=11"],
            ),
            row(
                "e13 tc cycle(12) bf",
                (w::transitive_closure(), w::cycle("e", 12)),
                "tc(n0, X)",
                ["calls=12 answers=144 complete=true", "tc^bf=12/144", "tc(n0, n0) tc(n0, n1) tc(n0, n10) tc(n0, n11) tc(n0, n2) tc(n0, n3) tc(n0, n4) tc(n0, n5) tc(n0, n6) tc(n0, n7) tc(n0, n8) tc(n0, n9)", "12 items fnv 39a869ddc447a3c7", "steps=348 restarts=13"],
            ),
            row(
                "e13 tc random(30, 90, 17) bf",
                (w::transitive_closure(), w::random_graph("e", 30, 90, 17)),
                "tc(n0, X)",
                ["calls=26 answers=650 complete=true", "tc^bf=26/650", "26 items fnv 90e1dc4ae2341599", "26 items fnv e128fb76d8c92d57", "steps=2717 restarts=8"],
            ),
            row(
                "ancestor tree(2, 10) bf",
                (w::ancestor(), w::tree("par", 2, 10).0),
                "anc(n2, X)",
                ["calls=1023 answers=8194 complete=true", "anc^bf=1023/8194", "1022 items fnv c775781a5c6d0752", "1023 items fnv 3b3567a34edf67b7", "steps=14301 restarts=10"],
            ),
            row(
                "ancestor chain(60) fb",
                (w::ancestor(), w::chain("par", 60)),
                "anc(X, n30)",
                ["calls=1 answers=30 complete=true", "anc^fb=1/30", "30 items fnv 5a5aff0948b934b2", "anc(_C0, n30)=30", "steps=93 restarts=30"],
            ),
            row(
                "nonlinear tc chain(8) bf",
                (w::transitive_closure_nonlinear(), w::chain("e", 8)),
                "tc(n0, X)",
                ["calls=9 answers=36 complete=true", "tc^bf=9/36", "tc(n0, n1) tc(n0, n2) tc(n0, n3) tc(n0, n4) tc(n0, n5) tc(n0, n6) tc(n0, n7) tc(n0, n8)", "tc(n0, _C0)=8 tc(n1, _C0)=7 tc(n2, _C0)=6 tc(n3, _C0)=5 tc(n4, _C0)=4 tc(n5, _C0)=3 tc(n6, _C0)=2 tc(n7, _C0)=1 tc(n8, _C0)=0", "steps=310 restarts=9"],
            ),
            row(
                "nonlinear tc cycle(5) ff",
                (w::transitive_closure_nonlinear(), w::cycle("e", 5)),
                "tc(X, Y)",
                ["calls=6 answers=50 complete=true", "tc^bf=5/25 tc^ff=1/25", "25 items fnv c3cd977773cbe88f", "tc(_C0, _C1)=25 tc(n0, _C0)=5 tc(n1, _C0)=5 tc(n2, _C0)=5 tc(n3, _C0)=5 tc(n4, _C0)=5", "steps=1777 restarts=3"],
            ),
            row("ancestor bf", parsed(ANCESTOR), "anc(a, X)", ["calls=4 answers=6 complete=true", "anc^bf=4/6", "anc(a, b) anc(a, c) anc(a, d)", "anc(a, _C0)=3 anc(b, _C0)=2 anc(c, _C0)=1 anc(d, _C0)=0", "steps=29 restarts=4"]),
            row("ancestor fb", parsed(ANCESTOR), "anc(X, d)", ["calls=1 answers=3 complete=true", "anc^fb=1/3", "anc(a, d) anc(b, d) anc(c, d)", "anc(_C0, d)=3", "steps=12 restarts=3"]),
            row("ancestor ff", parsed(ANCESTOR), "anc(X, Y)", ["calls=5 answers=10 complete=true", "anc^bf=4/3 anc^ff=1/7", "anc(a, b) anc(a, c) anc(a, d) anc(b, c) anc(b, d) anc(c, d) anc(x, y)", "anc(_C0, _C1)=7 anc(b, _C0)=2 anc(c, _C0)=1 anc(d, _C0)=0 anc(y, _C0)=0", "steps=109 restarts=3"]),
            row("ancestor bb yes", parsed(ANCESTOR), "anc(a, d)", ["calls=4 answers=3 complete=true", "anc^bb=4/3", "anc(a, d)", "anc(a, d)=1 anc(b, d)=1 anc(c, d)=1 anc(d, d)=0", "steps=26 restarts=4"]),
            row("ancestor bb no", parsed(ANCESTOR), "anc(d, a)", ["calls=1 answers=0 complete=true", "anc^bb=1/0", "", "anc(d, a)=0", "steps=2 restarts=1"]),
            row("chain ff", parsed(CHAIN), "anc(X, Y)", ["calls=5 answers=16 complete=true", "anc^bf=4/6 anc^ff=1/10", "anc(c0, c1) anc(c0, c2) anc(c0, c3) anc(c0, c4) anc(c1, c2) anc(c1, c3) anc(c1, c4) anc(c2, c3) anc(c2, c4) anc(c3, c4)", "anc(_C0, _C1)=10 anc(c1, _C0)=3 anc(c2, _C0)=2 anc(c3, _C0)=1 anc(c4, _C0)=0", "steps=128 restarts=3"]),
            row("same generation bf", parsed(SG), "sg(a, Y)", ["calls=3 answers=6 complete=true", "sg^bf=3/6", "sg(a, a) sg(a, b) sg(a, c)", "sg(a, _C0)=3 sg(g1, _C0)=2 sg(r, _C0)=1", "steps=28 restarts=4"]),
            row("same generation ff", parsed(SG), "sg(X, Y)", ["calls=4 answers=19 complete=true", "sg^bf=3/5 sg^ff=1/14", "sg(a, a) sg(a, b) sg(a, c) sg(b, a) sg(b, b) sg(b, c) sg(c, a) sg(c, b) sg(c, c) sg(g1, g1) sg(g1, g2) sg(g2, g1) sg(g2, g2) sg(r, r)", "sg(_C0, _C1)=14 sg(g1, _C0)=2 sg(g2, _C0)=2 sg(r, _C0)=1", "steps=147 restarts=3"]),
            row("idb negation", parsed(NEGATION), "unreach(X)", ["calls=5 answers=4 complete=true", "reach^b=4/2 unreach^f=1/2", "unreach(s) unreach(z)", "reach(a)=1 reach(b)=1 reach(s)=0 reach(z)=0 unreach(_C0)=2", "steps=43 restarts=2"]),
            row("edb negation", parsed(NEGATION), "open(X, Y)", ["calls=1 answers=2 complete=true", "open^ff=1/2", "open(s, a) open(z, s)", "open(_C0, _C1)=2", "steps=7 restarts=2"]),
            row("neq and lt", parsed(BUILTINS), "both(X, Y)", ["calls=5 answers=7 complete=true", "both^ff=1/2 step^ff=1/3 up^bb=3/2", "both(1, 2) both(2, 5)", "both(_C0, _C1)=2 step(_C0, _C1)=3 up(1, 2)=1 up(2, 5)=1 up(3, 1)=0", "steps=31 restarts=2"]),
            row("negated built-in", parsed(BUILTINS), "low(X)", ["calls=1 answers=1 complete=true", "low^f=1/1", "low(1)", "low(_C0)=1", "steps=9 restarts=2"]),
            row("repeated query", parsed(REPEATED), "t(X, X)", ["calls=5 answers=16 complete=true", "t^bf=4/8 t^ff=1/8", "t(a, a) t(b, b) t(c, c) t(d, d)", "t(_C0, _C1)=8 t(a, _C0)=3 t(b, _C0)=3 t(c, _C0)=1 t(d, _C0)=1", "steps=142 restarts=2"]),
            row("repeated body call", parsed(REPEATED), "self(X)", ["calls=6 answers=20 complete=true", "self^f=1/4 t^bf=4/8 t^ff=1/8", "self(a) self(b) self(c) self(d)", "self(_C0)=4 t(_C0, _C1)=8 t(a, _C0)=3 t(b, _C0)=3 t(c, _C0)=1 t(d, _C0)=1", "steps=211 restarts=2"]),
            row("repeated edb goal", parsed(REPEATED), "loop(X)", ["calls=1 answers=2 complete=true", "loop^f=1/2", "loop(c) loop(d)", "loop(_C0)=2", "steps=6 restarts=2"]),
            row("two calls, swapped", parsed(REPEATED), "twice(X, Y)", ["calls=14 answers=28 complete=true", "t^bb=8/6 t^bf=4/8 t^ff=1/8 twice^ff=1/6", "twice(a, a) twice(a, b) twice(b, a) twice(b, b) twice(c, c) twice(d, d)", "t(_C0, _C1)=8 t(a, _C0)=3 t(a, a)=1 t(a, b)=1 t(b, _C0)=3 t(b, a)=1 t(b, b)=1 t(c, _C0)=1 t(c, a)=0 t(c, b)=0 t(c, c)=1 t(d, _C0)=1 t(d, d)=1 twice(_C0, _C1)=6", "steps=571 restarts=2"]),
            row("head constants ff", parsed(HEAD_CONSTANTS), "q(X, Y)", ["calls=4 answers=10 complete=true", "p^bf=3/5 q^ff=1/5", "q(a, 1) q(a, 2) q(a, b) q(c, b) q(c, c)", "p(a, _C0)=3 p(c, _C0)=2 p(d, _C0)=0 q(_C0, _C1)=5", "steps=27 restarts=2"]),
            row("head constants bf", parsed(HEAD_CONSTANTS), "p(c, Y)", ["calls=1 answers=2 complete=true", "p^bf=1/2", "p(c, b) p(c, c)", "p(c, _C0)=2", "steps=3 restarts=2"]),
            row("head constants fb", parsed(HEAD_CONSTANTS), "p(X, b)", ["calls=1 answers=2 complete=true", "p^fb=1/2", "p(a, b) p(c, b)", "p(_C0, b)=2", "steps=4 restarts=2"]),
            row("intensional inline fact", parsed(INLINE), "anc(a, X)", ["calls=3 answers=6 complete=true", "anc^bf=3/6", "anc(a, b) anc(a, c) anc(a, w)", "anc(a, _C0)=3 anc(b, _C0)=2 anc(c, _C0)=1", "steps=25 restarts=4"]),
            row("mutual recursion", parsed(MUTUAL), "odd(X)", ["calls=8 answers=5 complete=true", "even^b=4/2 odd^b=3/1 odd^f=1/2", "odd(n1) odd(n3)", "even(n0)=1 even(n1)=0 even(n2)=1 even(n3)=0 odd(_C0)=2 odd(n0)=0 odd(n1)=1 odd(n2)=0", "steps=189 restarts=2"]),
            row("zero arity", parsed("yes. go :- yes."), "go", ["calls=1 answers=1 complete=true", "go^=1/1", "go", "go=1", "steps=2 restarts=2"]),
            row("edb query", parsed(ANCESTOR), "par(a, X)", ["calls=0 answers=0 complete=true", "", "par(a, b)", "", "steps=0 restarts=0"]),
            Golden {
                budget: Budget::default().with_max_facts(3),
                ..row("max_facts stop", parsed(ANCESTOR), "anc(X, Y)", ["calls=1 answers=3 complete=false", "anc^ff=1/3", "anc(a, b) anc(b, c) anc(c, d)", "anc(_C0, _C1)=3", "steps=6 restarts=1"])
            },
            Golden {
                budget: Budget::default().with_max_rounds(1),
                ..row(
                    "max_rounds stop",
                    (w::transitive_closure(), w::cycle("e", 12)),
                    "tc(n0, X)",
                    ["calls=2 answers=1 complete=false", "tc^bf=2/1", "tc(n0, n1)", "tc(n0, _C0)=1 tc(n1, _C0)=0", "steps=4 restarts=1"],
                )
            },
        ]
    }

    /// The table sizes, per-adornment tables and answers of every
    /// `golden_rows` case, pinned so a change to the engine's
    /// representation cannot move them.
    #[test]
    fn counters_call_tables_and_answers_are_pinned() {
        let mut mismatches = Vec::new();
        for g in golden_rows() {
            let query = parse_atom(&g.query).unwrap();
            let r = qsqr_query_opts(&g.program, &g.edb, &query, g.budget).unwrap();
            let got = columns(&r);
            if got != g.want {
                mismatches.push(format!("{}: {got:?}", g.name));
            }
        }
        assert!(mismatches.is_empty(), "\n{}", mismatches.join("\n"));
    }
    /// Two copies of a graph that differ only in their constants' names and
    /// interning order are the same query: every counter must agree.
    #[test]
    fn isomorphic_inputs_report_identical_counters() {
        let chain: Vec<(usize, usize)> = (0..60).map(|i| (i, i + 1)).collect();
        let tree: Vec<(usize, usize)> = (1..511).map(|i| ((i - 1) / 2, i)).collect();
        let program = alexander_workload::ancestor();
        for (shape, edges) in [("chain", chain), ("tree", tree)] {
            let n = edges.len() + 1;
            // Fresh names `iso_<shape>_<copy><i>`, interned in the order
            // `order` lists the nodes.
            let counters = |copy: &str, order: Vec<usize>| {
                let mut node = vec![Const::Int(0); n];
                for i in order {
                    node[i] = Const::sym(&format!("iso_{shape}_{copy}{i}"));
                }
                let mut edb = Database::new();
                for &(a, b) in &edges {
                    edb.insert_row(Predicate::new("par", 2), &[node[a], node[b]]);
                }
                let query = Atom {
                    pred: alexander_ir::Symbol::intern("anc"),
                    terms: vec![Term::Const(node[0]), Term::var("X")],
                };
                let r = qsqr_query(&program, &edb, &query).unwrap();
                (r.metrics, r.restarts)
            };
            let forward = counters("f", (0..n).collect());
            let reverse = counters("r", (0..n).rev().collect());
            assert_eq!(forward, reverse, "{shape}");
        }
    }
}
