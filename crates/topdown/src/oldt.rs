//! OLDT resolution: top-down (SLD) evaluation with tabulation
//! (Tamaki & Sato 1986).
//!
//! Calls to intensional predicates are *tabled*: the first occurrence of a
//! call (up to variable renaming) becomes a **generator** that resolves the
//! call against the program's clauses; later occurrences become **consumers**
//! suspended on the call's answer table. Every answer is delivered to every
//! consumer exactly once, so repeated subqueries cost table lookups instead
//! of recomputation — this is what makes top-down evaluation terminate on
//! recursive Datalog and what the Alexander templates simulate bottom-up.
//!
//! Clauses are compiled before resolution by the compiler QSQR shares
//! (`front.rs`), once per call *pattern* reachable from the query: a
//! predicate and, per argument, a constant or the call's `k`-th distinct
//! variable, so a repeated variable is part of the call (variant tabling).
//! A table, keyed by pattern and constants, holds its answer rows in a
//! [`Relation`]; a generator is a node (clause, next goal, slot array) and a
//! consumer a node parked at its call goal, resumed per answer with a bound
//! copy of its slots. Extensional goals probe an index on their bound
//! columns, built once per run on the private store. Nothing is renamed or
//! interned while resolving; atoms are built only for the answers.
//!
//! The engine is instrumented for the power comparison (experiment E3):
//! [`OldtResult::tables`] holds every tabled call with its answer rows,
//! moved out of the engine as they are, the calls and answers the
//! Alexander-transformed program materialises as `call_…` and `ans_…`
//! facts.
//!
//! Negation: ground negative literals over extensional predicates are
//! checked against the database; ground negative intensional literals force
//! the completion of their subquery's table first (admissible because the
//! program must be stratified — checked up front).

use crate::front::{values, Args, CallTable, Clause, Clauses, Code, Goal, Tabling, TopdownError};
use crate::metrics::OldtMetrics;
use alexander_eval::{Budget, Completion, Governor};
use alexander_ir::analysis::stratify;
use alexander_ir::{hash_row, Atom, Const, FxHashMap, Polarity, Program};
use alexander_storage::{row_atom, Database, Relation};

/// Options for the OLDT engine.
#[derive(Clone, Debug)]
pub struct OldtOptions {
    /// Select body literals with the same greedy SIP the rewritings use.
    /// When off, positive literals keep their textual order and each
    /// negation or built-in runs at the first point its variables are bound
    /// (ablation E9).
    pub reorder: bool,
    /// Resource limits. `max_facts` bounds tabled answers and the
    /// deadline is checked between resolution steps; rounds do not apply
    /// to OLDT.
    pub budget: Budget,
}

impl Default for OldtOptions {
    fn default() -> OldtOptions {
        OldtOptions {
            reorder: true,
            budget: Budget::UNLIMITED,
        }
    }
}

impl OldtOptions {
    /// Builder: attach a resource budget.
    pub fn with_budget(mut self, budget: Budget) -> OldtOptions {
        self.budget = budget;
        self
    }
}

/// The result of an OLDT query.
#[derive(Clone, Debug)]
pub struct OldtResult {
    /// Ground instances of the query atom, in discovery order.
    pub answers: Vec<Atom>,
    pub metrics: OldtMetrics,
    /// Every table, one per variant call, in the order the calls were
    /// first made.
    pub tables: Vec<CallTable>,
    /// Whether resolution ran to exhaustion. On a budget stop the
    /// `answers` are a sound subset of the complete answer set (every
    /// reported answer has a full derivation; negative conclusions are
    /// never drawn from tables the stop left incomplete).
    pub completion: Completion,
}

/// A resolution node: clause `clause` answering for table `table`, about to
/// select its goal `goal` under `slots`. A consumer is a node parked at its
/// call goal.
struct Node {
    table: usize,
    clause: usize,
    goal: usize,
    slots: Vec<Const>,
}

/// A call with its answers, and its consumers with their calls' arguments.
struct Table<'a> {
    call: CallTable,
    consumers: Vec<(Node, &'a Args)>,
}

struct Engine<'a> {
    code: &'a Code,
    front: &'a Clauses,
    /// Per pattern, its tables by the call's constants.
    table_of: Vec<FxHashMap<Box<[Const]>, usize>>,
    tables: Vec<Table<'a>>,
    work: Vec<Node>,
    metrics: OldtMetrics,
    gov: Governor,
}

/// Queues `node` moved on to its next goal, with a copy of its slots bound
/// from `row` (a fact or an answer) by `args`, unless `row` breaks a repeat.
fn advance(work: &mut Vec<Node>, node: &Node, args: &Args, row: &[Const]) {
    let mut slots = node.slots.clone();
    if args.bind(row, &mut slots) {
        let goal = node.goal + 1;
        work.push(Node {
            goal,
            slots,
            ..*node
        });
    }
}

impl<'a> Engine<'a> {
    /// The table of `pattern` for the call constants `key`; a new one seeds
    /// a generator per clause whose head unifies with the call.
    fn ensure_table(&mut self, pattern: usize, key: &[Const]) -> usize {
        if let Some(&t) = self.table_of[pattern].get(key) {
            return t;
        }
        let ((pred, shape, clauses), t) = (&self.code.patterns[pattern], self.tables.len());
        let call = CallTable {
            pred: *pred,
            shape: shape.clone(),
            key: key.to_vec(),
            answers: Relation::new(pred.arity),
        };
        let consumers = Vec::new();
        self.tables.push(Table { call, consumers });
        self.table_of[pattern].insert(key.into(), t);
        self.metrics.calls += 1;
        for clause in clauses.clone() {
            if let Some(slots) = self.code.clauses[clause].bind(key) {
                self.metrics.resolution_steps += 1;
                self.work.push(Node {
                    table: t,
                    clause,
                    goal: 0,
                    slots,
                });
            }
        }
        t
    }

    /// Records an answer in `table`; on novelty, resumes every consumer.
    fn add_answer(&mut self, table: usize, answer: &[Const]) {
        let (h, tab) = (hash_row(answer), &mut self.tables[table]);
        if tab.call.answers.contains_row_hashed(h, answer) {
            return;
        }
        // Claim-before-insert, as in the bottom-up evaluators: a refused
        // answer is dropped whole and the drain loop will observe the trip.
        if self.gov.claim_fact().is_break() {
            return;
        }
        tab.call.answers.push_new_row_hashed(h, answer);
        self.metrics.answers += 1;
        for (c, args) in &tab.consumers {
            self.metrics.resolution_steps += 1;
            advance(&mut self.work, c, args, answer);
        }
    }

    /// Drives the worklist to exhaustion — or to the budget. On a stop the
    /// remaining work is abandoned; answers recorded so far all have
    /// complete derivations, so the partial result is sound.
    fn drain(&mut self) -> Result<(), TopdownError> {
        while let Some(node) = self.work.pop() {
            if self.gov.check_interrupt().is_break() {
                return Ok(());
            }
            self.step(node)?;
        }
        Ok(())
    }

    fn step(&mut self, mut node: Node) -> Result<(), TopdownError> {
        let clause: &'a Clause = &self.code.clauses[node.clause];
        let Some(goal) = clause.body.get(node.goal) else {
            self.add_answer(node.table, &values(&node.slots, &clause.head));
            return Ok(());
        };
        let passes = match goal {
            Goal::Test(builtin, [a, b], holds) => {
                builtin.eval(node.slots[*a], node.slots[*b]) == *holds
            }
            Goal::Edb(pred, mask, args, Polarity::Positive) => {
                let key = values(&node.slots, &args.key);
                for row in self.front.probe(*pred, *mask, &key) {
                    self.metrics.resolution_steps += 1;
                    advance(&mut self.work, &node, args, row);
                }
                return Ok(());
            }
            Goal::Edb(pred, _, args, Polarity::Negative) => {
                let row = values(&node.slots, &args.key);
                !self.front.edb.contains_row(*pred, &row)
            }
            Goal::Call(pattern, args, Polarity::Positive) => {
                // Table the call, deliver what it has so far, and park the
                // node as a consumer for the rest.
                let t = self.ensure_table(*pattern, &values(&node.slots, &args.key));
                self.metrics.suspensions += 1;
                let tab = &mut self.tables[t];
                for answer in tab.call.answers.iter() {
                    self.metrics.resolution_steps += 1;
                    advance(&mut self.work, &node, args, answer);
                }
                tab.consumers.push((node, args));
                return Ok(());
            }
            Goal::Call(pattern, args, Polarity::Negative) => {
                // Complete the subquery's table (terminates: the program is
                // stratified, so the negated predicate's evaluation never
                // reaches back here).
                let t = self.ensure_table(*pattern, &values(&node.slots, &args.key));
                self.drain()?;
                if self.gov.should_stop() {
                    // The subquery's table may be incomplete; concluding
                    // `!goal` from an empty-so-far table would be unsound.
                    // Drop this branch instead.
                    return Ok(());
                }
                self.tables[t].call.answers.is_empty()
            }
            Goal::NonGround(goal) => return Err(TopdownError::NonGroundNegation(goal.clone())),
        };
        self.metrics.resolution_steps += 1;
        if passes {
            node.goal += 1;
            self.work.push(node);
        }
        Ok(())
    }
}

/// Answers `query` over `program` + `edb` by OLDT resolution.
pub fn oldt_query(
    program: &Program,
    edb: &Database,
    query: &Atom,
) -> Result<OldtResult, TopdownError> {
    oldt_query_opts(program, edb, query, OldtOptions::default())
}

/// [`oldt_query`] with explicit options.
pub fn oldt_query_opts(
    program: &Program,
    edb: &Database,
    query: &Atom,
    opts: OldtOptions,
) -> Result<OldtResult, TopdownError> {
    let mut front = Clauses::new(program, edb)?;
    if front.negated_idb.is_some() {
        stratify(program).map_err(TopdownError::NotStratified)?;
    }
    let key: Vec<Const> = query.terms.iter().filter_map(|t| t.as_const()).collect();
    let code = Code::compile(&mut front, query, Tabling::Variant, opts.reorder);
    let mut engine = Engine {
        code: &code,
        front: &front,
        table_of: vec![FxHashMap::default(); code.patterns.len()],
        tables: Vec::new(),
        work: Vec::new(),
        metrics: OldtMetrics::default(),
        gov: Governor::new(opts.budget),
    };
    let answers = if front.idb.contains(&query.predicate()) {
        let t = engine.ensure_table(0, &key);
        engine.drain()?;
        let rows = engine.tables[t].call.answers.iter();
        rows.map(|row| row_atom(query.pred, row)).collect()
    } else {
        front.lookup(query)
    };
    Ok(OldtResult {
        answers,
        metrics: engine.metrics,
        tables: engine.tables.into_iter().map(|t| t.call).collect(),
        completion: engine.gov.completion(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::canonical;
    use alexander_parser::{parse, parse_atom};

    fn run(src: &str, q: &str) -> OldtResult {
        let parsed = parse(src).unwrap();
        let edb = Database::from_program(&parsed.program);
        oldt_query(&parsed.program, &edb, &parse_atom(q).unwrap()).unwrap()
    }

    const ANCESTOR: &str = "
        par(a, b). par(b, c). par(c, d). par(x, y).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
    ";

    #[test]
    fn bound_free_ancestor() {
        let r = run(ANCESTOR, "anc(a, X)");
        let mut got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        got.sort();
        assert_eq!(got, ["anc(a, b)", "anc(a, c)", "anc(a, d)"]);
    }

    #[test]
    fn tabling_is_goal_directed() {
        let r = run(ANCESTOR, "anc(a, X)");
        // Calls: anc(a,_), anc(b,_), anc(c,_), anc(d,_). Never anc(x,_).
        // Answers: a->{b,c,d}, b->{c,d}, c->{d}, d->{}.
        let tables = canonical(&r.tables);
        let want = [
            "anc(a, _C0)=3",
            "anc(b, _C0)=2",
            "anc(c, _C0)=1",
            "anc(d, _C0)=0",
        ];
        assert_eq!(tables, want);
    }

    #[test]
    fn all_free_query() {
        let r = run(ANCESTOR, "anc(X, Y)");
        assert_eq!(r.answers.len(), 7); // 6 chain pairs + (x, y)
    }

    #[test]
    fn ground_query_success_and_failure() {
        let yes = run(ANCESTOR, "anc(a, d)");
        assert_eq!(yes.answers.len(), 1);
        let no = run(ANCESTOR, "anc(d, a)");
        assert!(no.answers.is_empty());
    }

    #[test]
    fn repeated_variable_query() {
        let r = run(
            "
            e(a, a). e(a, b).
            p(X, Y) :- e(X, Y).
            ",
            "p(X, X)",
        );
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].to_string(), "p(a, a)");
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
        let mut got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        got.sort();
        assert_eq!(got, ["tc(a, a)", "tc(a, b)"]);
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
        let mut got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        got.sort();
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
        let mut got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        got.sort();
        assert_eq!(got, ["unreach(s)", "unreach(z)"]);
    }

    #[test]
    fn unstratified_negation_is_rejected() {
        let parsed = parse(
            "
            move(a, b).
            win(X) :- move(X, Y), !win(Y).
        ",
        )
        .unwrap();
        let edb = Database::from_program(&parsed.program);
        let err = oldt_query(&parsed.program, &edb, &parse_atom("win(a)").unwrap());
        assert!(matches!(err, Err(TopdownError::NotStratified(_))));
    }

    #[test]
    fn extensional_query_is_a_lookup() {
        let r = run(ANCESTOR, "par(a, X)");
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.metrics.calls, 0);
    }

    #[test]
    fn canonicalization_shares_tables() {
        // Both recursive descents reach anc(c, _): one table, not two.
        let r = run(ANCESTOR, "anc(b, X)");
        assert_eq!(r.tables.len(), 3); // b, c, d
    }

    #[test]
    fn zero_arity_predicates() {
        let r = run("yes. go :- yes.", "go");
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn fact_budget_yields_sound_answer_subset() {
        let parsed = parse(ANCESTOR).unwrap();
        let edb = Database::from_program(&parsed.program);
        let q = parse_atom("anc(X, Y)").unwrap();
        let full = oldt_query(&parsed.program, &edb, &q).unwrap();
        assert!(full.completion.is_complete());
        for max in [0u64, 1, 3, 5] {
            let r = oldt_query_opts(
                &parsed.program,
                &edb,
                &q,
                OldtOptions::default().with_budget(Budget::default().with_max_facts(max)),
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
    fn answer_budget_caps_the_tables() {
        let r = {
            let parsed = parse(ANCESTOR).unwrap();
            let edb = Database::from_program(&parsed.program);
            oldt_query_opts(
                &parsed.program,
                &edb,
                &parse_atom("anc(X, Y)").unwrap(),
                OldtOptions::default().with_budget(Budget::default().with_max_facts(2)),
            )
            .unwrap()
        };
        assert!(!r.completion.is_complete());
        let tabled: usize = r.tables.iter().map(|t| t.answers.len()).sum();
        assert!(tabled <= 2, "{tabled} answers tabled under a 2-fact budget");
    }

    #[test]
    fn incomplete_negation_tables_draw_no_negative_conclusions() {
        // Every budget short of the full tables stops while some table is
        // still incomplete; no `unreach` answer may be emitted from the partial table.
        let src = "
            edge(s, a). edge(a, b). node(s). node(a). node(b). node(z).
            reach(X) :- edge(s, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
        ";
        let parsed = parse(src).unwrap();
        let edb = Database::from_program(&parsed.program);
        let full = oldt_query(&parsed.program, &edb, &parse_atom("unreach(X)").unwrap()).unwrap();
        let tabled: usize = full.tables.iter().map(|t| t.answers.len()).sum();
        for max in 0..tabled as u64 {
            let r = oldt_query_opts(
                &parsed.program,
                &edb,
                &parse_atom("unreach(X)").unwrap(),
                OldtOptions::default().with_budget(Budget::default().with_max_facts(max)),
            )
            .unwrap();
            assert!(!r.completion.is_complete(), "max_facts {max}");
            for a in &r.answers {
                assert!(full.answers.contains(a), "unsound {a} at max_facts {max}");
            }
        }
    }

    /// One row of the counter pin: a program, a query, the options, and the
    /// expected metrics, sorted call table and sorted answers.
    struct Golden {
        name: &'static str,
        src: &'static str,
        query: &'static str,
        reorder: bool,
        max_facts: Option<u64>,
        want: [&'static str; 3],
    }

    const CHAIN: &str = "
        par(c0, c1). par(c1, c2). par(c2, c3). par(c3, c4).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
    ";

    const TREE: &str = "
        par(t1, t2). par(t1, t3). par(t2, t4). par(t2, t5). par(t3, t6). par(t3, t7).
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
    ";

    const REPEATED: &str = "
        e(a, b). e(b, a). e(b, c). e(c, c). e(d, d).
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, Z), t(Z, Y).
        self(X) :- t(X, X).
    ";

    const INLINE: &str = "
        par(a, b). par(b, c). anc(z, z). anc(c, w).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
    ";

    const PERMUTED_SG: &str = "
        up(a, g1). up(b, g1). flat(g1, g1). down(g1, c). down(g1, d).
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- sg(U, V), down(V, Y), up(X, U).
    ";

    fn golden_rows() -> Vec<Golden> {
        let row = |name, src, query, want| Golden {
            name,
            src,
            query,
            reorder: true,
            max_facts: None,
            want,
        };
        vec![
            row(
                "chain bf",
                CHAIN,
                "anc(c0, X)",
                [
                    "calls=5 answers=10 steps=24 suspensions=4",
                    "anc(c0, _C0)=4 anc(c1, _C0)=3 anc(c2, _C0)=2 anc(c3, _C0)=1 anc(c4, _C0)=0",
                    "anc(c0, c1) anc(c0, c2) anc(c0, c3) anc(c0, c4)",
                ],
            ),
            row(
                "chain ff",
                CHAIN,
                "anc(X, Y)",
                [
                    "calls=5 answers=16 steps=33 suspensions=7",
                    "anc(_C0, _C1)=10 anc(c1, _C0)=3 anc(c2, _C0)=2 anc(c3, _C0)=1 anc(c4, _C0)=0",
                    "anc(c0, c1) anc(c0, c2) anc(c0, c3) anc(c0, c4) anc(c1, c2) anc(c1, c3) anc(c1, c4) anc(c2, c3) anc(c2, c4) anc(c3, c4)",
                ],
            ),
            row(
                "chain bb",
                CHAIN,
                "anc(c1, c4)",
                [
                    "calls=4 answers=3 steps=14 suspensions=3",
                    "anc(c1, c4)=1 anc(c2, c4)=1 anc(c3, c4)=1 anc(c4, c4)=0",
                    "anc(c1, c4)",
                ],
            ),
            row(
                "tree bf",
                TREE,
                "anc(t1, X)",
                [
                    "calls=7 answers=10 steps=30 suspensions=6",
                    "anc(t1, _C0)=6 anc(t2, _C0)=2 anc(t3, _C0)=2 anc(t4, _C0)=0 anc(t5, _C0)=0 anc(t6, _C0)=0 anc(t7, _C0)=0",
                    "anc(t1, t2) anc(t1, t3) anc(t1, t4) anc(t1, t5) anc(t1, t6) anc(t1, t7)",
                ],
            ),
            row(
                "tree ff",
                TREE,
                "anc(X, Y)",
                [
                    "calls=7 answers=14 steps=38 suspensions=10",
                    "anc(_C0, _C1)=10 anc(t2, _C0)=2 anc(t3, _C0)=2 anc(t4, _C0)=0 anc(t5, _C0)=0 anc(t6, _C0)=0 anc(t7, _C0)=0",
                    "anc(t1, t2) anc(t1, t3) anc(t1, t4) anc(t1, t5) anc(t1, t6) anc(t1, t7) anc(t2, t4) anc(t2, t5) anc(t3, t6) anc(t3, t7)",
                ],
            ),
            row(
                "tree bb",
                TREE,
                "anc(t1, t7)",
                [
                    "calls=7 answers=2 steps=22 suspensions=6",
                    "anc(t1, t7)=1 anc(t2, t7)=0 anc(t3, t7)=1 anc(t4, t7)=0 anc(t5, t7)=0 anc(t6, t7)=0 anc(t7, t7)=0",
                    "anc(t1, t7)",
                ],
            ),
            row(
                "same generation",
                SG,
                "sg(a, Y)",
                [
                    "calls=3 answers=6 steps=17 suspensions=2",
                    "sg(a, _C0)=3 sg(g1, _C0)=2 sg(r, _C0)=1",
                    "sg(a, a) sg(a, b) sg(a, c)",
                ],
            ),
            row(
                "idb negation",
                NEGATION,
                "unreach(X)",
                [
                    "calls=5 answers=4 steps=22 suspensions=3",
                    "reach(a)=1 reach(b)=1 reach(s)=0 reach(z)=0 unreach(_C0)=2",
                    "unreach(s) unreach(z)",
                ],
            ),
            row(
                "edb negation",
                NEGATION,
                "open(X, Y)",
                [
                    "calls=1 answers=2 steps=7 suspensions=0",
                    "open(_C0, _C1)=2",
                    "open(s, a) open(z, s)",
                ],
            ),
            row(
                "neq and lt",
                BUILTINS,
                "both(X, Y)",
                [
                    "calls=5 answers=7 steps=24 suspensions=4",
                    "both(_C0, _C1)=2 step(_C0, _C1)=3 up(1, 2)=1 up(2, 5)=1 up(3, 1)=0",
                    "both(1, 2) both(2, 5)",
                ],
            ),
            row(
                "repeated query",
                REPEATED,
                "t(X, X)",
                [
                    "calls=9 answers=10 steps=52 suspensions=15",
                    "t(_C0, _C0)=4 t(a, a)=1 t(a, b)=1 t(b, a)=1 t(b, b)=1 t(c, a)=0 t(c, b)=0 t(c, c)=1 t(d, d)=1",
                    "t(a, a) t(b, b) t(c, c) t(d, d)",
                ],
            ),
            row(
                "repeated body call",
                REPEATED,
                "self(X)",
                [
                    "calls=10 answers=14 steps=57 suspensions=16",
                    "self(_C0)=4 t(_C0, _C0)=4 t(a, a)=1 t(a, b)=1 t(b, a)=1 t(b, b)=1 t(c, a)=0 t(c, b)=0 t(c, c)=1 t(d, d)=1",
                    "self(a) self(b) self(c) self(d)",
                ],
            ),
            row(
                "intensional inline fact",
                INLINE,
                "anc(a, X)",
                [
                    "calls=3 answers=6 steps=14 suspensions=2",
                    "anc(a, _C0)=3 anc(b, _C0)=2 anc(c, _C0)=1",
                    "anc(a, b) anc(a, c) anc(a, w)",
                ],
            ),
            Golden {
                reorder: false,
                ..row(
                    "reorder off",
                    PERMUTED_SG,
                    "sg(a, Y)",
                    [
                        "calls=2 answers=7 steps=25 suspensions=2",
                        "sg(_C0, _C1)=5 sg(a, _C0)=2",
                        "sg(a, c) sg(a, d)",
                    ],
                )
            },
            Golden {
                max_facts: Some(5),
                ..row(
                    "max_facts stop",
                    CHAIN,
                    "anc(X, Y)",
                    [
                        "calls=4 answers=5 steps=20 suspensions=5",
                        "anc(_C0, _C1)=2 anc(c2, _C0)=2 anc(c3, _C0)=1 anc(c4, _C0)=0",
                        "anc(c1, c4) anc(c2, c4)",
                    ],
                )
            },
        ]
    }

    /// The counters, call tables and answers of every `golden_rows` case —
    /// the paper's units, pinned so a change to the engine's representation
    /// cannot move them.
    #[test]
    fn counters_call_tables_and_answers_are_pinned() {
        let mut mismatches = Vec::new();
        for g in golden_rows() {
            let parsed = parse(g.src).unwrap();
            let edb = Database::from_program(&parsed.program);
            let mut budget = Budget::default();
            if let Some(n) = g.max_facts {
                budget = budget.with_max_facts(n);
            }
            let opts = OldtOptions {
                reorder: g.reorder,
                budget,
            };
            let r = oldt_query_opts(&parsed.program, &edb, &parse_atom(g.query).unwrap(), opts)
                .unwrap();
            assert_eq!(
                r.completion.is_complete(),
                g.max_facts.is_none(),
                "{}",
                g.name
            );
            let mut tables = canonical(&r.tables);
            tables.sort();
            let mut answers: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
            answers.sort();
            let got = [r.metrics.to_string(), tables.join(" "), answers.join(" ")];
            if got != g.want {
                mismatches.push(format!("{}: {got:?}", g.name));
            }
        }
        assert!(mismatches.is_empty(), "\n{}", mismatches.join("\n"));
    }

    #[test]
    fn a_negation_written_before_its_binder_waits_for_it_in_either_order() {
        let parsed = parse("e(a, b). blocked(b). q(X) :- !blocked(X), e(X, Y).").unwrap();
        let edb = Database::from_program(&parsed.program);
        let q = parse_atom("q(X)").unwrap();
        for reorder in [false, true] {
            let opts = OldtOptions {
                reorder,
                ..OldtOptions::default()
            };
            let r = oldt_query_opts(&parsed.program, &edb, &q, opts).unwrap();
            assert_eq!(
                r.answers,
                [parse_atom("q(a)").unwrap()],
                "reorder={reorder}"
            );
        }
    }

    #[test]
    fn deep_chain_does_not_blow_the_stack() {
        let mut src = String::new();
        for i in 0..600 {
            src.push_str(&format!("e(n{i}, n{}).\n", i + 1));
        }
        src.push_str("tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).\n");
        let r = run(&src, "tc(n0, X)");
        assert_eq!(r.answers.len(), 600);
    }
}
