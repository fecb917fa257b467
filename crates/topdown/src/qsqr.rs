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
//! A naive restart re-joins every input against every answer ever derived,
//! which blows the step count up by orders of magnitude against OLDT on
//! deep recursions. Three refinements keep the restarts incremental while
//! leaving the input/answer tables (and hence the demand-set comparisons)
//! untouched:
//!
//! * answer tables keep insertion order and a posting list per bound-
//!   argument projection, so a subquery consumes only answers that can
//!   unify with its input;
//! * each `(key, input)` pair remembers how long every answer table was
//!   when it last completed a pass, and later passes evaluate each rule as
//!   semi-naive delta variants — one positive intensional literal reads
//!   only the *new* answers, literals before it only the *old* ones;
//! * rules whose bodies touch no positive intensional literal derive
//!   nothing new after their first pass over an input and are skipped.
//!
//! Its `input` tables must coincide with the magic/call demand sets and
//! with OLDT's call tables on the same SIP — asserted by the test suite and
//! experiment E13, the four-way power comparison.

use crate::front::{Clauses, TopdownError};
use crate::metrics::OldtMetrics;
use alexander_eval::{Budget, Completion, Governor};
use alexander_ir::{
    Adornment, Atom, Bf, Builtin, Const, FxHashMap, FxHashSet, Polarity, Predicate, Program, Subst,
    Term,
};
use alexander_storage::{Database, Mask};
use alexander_transform::sip_order;

/// The result of a QSQR run.
#[derive(Clone, Debug)]
pub struct QsqrResult {
    /// Ground instances of the query.
    pub answers: Vec<Atom>,
    pub metrics: OldtMetrics,
    /// Size of each input table: `(predicate, adornment) → #subqueries`.
    pub inputs_by_pred: FxHashMap<(Predicate, String), u64>,
    /// Size of each answer table.
    pub answers_by_pred: FxHashMap<(Predicate, String), u64>,
    /// Number of global restarts until the tables stabilised.
    pub restarts: u64,
    /// Whether the tables stabilised. On a budget stop the answers
    /// are a subset of the complete run's answers (the engine derives
    /// answers in the same deterministic order and only adds, never
    /// retracts, so an early stop is a prefix of the full derivation).
    pub completion: Completion,
}

type Key = (Predicate, Adornment);

/// The constants at an adornment's bound positions: a subquery's input, or
/// an answer's posting-list key.
type Row = Box<[Const]>;

/// Answer table for one adorned predicate. Insertion order is kept so the
/// per-input cursors below stay stable; `by_input` posts each answer under
/// its projection onto the adornment's bound positions, so consumption for
/// a subquery only ever touches answers that can unify with its input.
#[derive(Default)]
struct AnswerTable {
    list: Vec<Atom>,
    set: FxHashSet<Atom>,
    by_input: FxHashMap<Row, Vec<usize>>,
}

/// How a delta variant consumes one positive intensional literal: answers
/// older than the input's cursor, newer, or everything.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    All,
    Old,
    New,
}

struct Engine<'a> {
    clauses: &'a Clauses,
    inputs: FxHashMap<Key, FxHashSet<Row>>,
    answers: FxHashMap<Key, AnswerTable>,
    /// Per processed `(key, input)`: the length of every answer table at
    /// the start of its last *completed* pass. Answers at or past the
    /// cursor are that input's delta on the next pass.
    cursors: FxHashMap<(Key, Row), FxHashMap<Key, usize>>,
    /// Keys currently being solved (cycle breaker).
    in_progress: FxHashSet<Key>,
    metrics: OldtMetrics,
    changed: bool,
    gov: Governor,
    /// Latched once the governor trips; every recursion unwinds promptly.
    stopped: bool,
}

fn adornment_of(goal: &Atom, s: &Subst) -> Adornment {
    Adornment(
        goal.terms
            .iter()
            .map(|&t| {
                if s.walk(t).is_ground() {
                    Bf::Bound
                } else {
                    Bf::Free
                }
            })
            .collect(),
    )
}

fn bound_row(goal: &Atom, s: &Subst, ad: &Adornment) -> Row {
    goal.terms
        .iter()
        .zip(&ad.0)
        .filter(|(_, bf)| **bf == Bf::Bound)
        // invariant: the adornment marks a position Bound only when the
        // call substitution grounds it.
        .map(|(&t, _)| s.walk(t).as_const().expect("bound position is ground"))
        .collect()
}

/// The projection of a ground answer onto the adornment's bound positions —
/// the posting-list key its consumers probe with.
fn projection(answer: &Atom, ad: &Adornment) -> Row {
    answer
        .terms
        .iter()
        .zip(&ad.0)
        .filter(|(_, bf)| **bf == Bf::Bound)
        .map(|(&t, _)| t.as_const().expect("answers are ground"))
        .collect()
}

/// [`alexander_ir::match_atom`] against a stored row: extends `s` so that
/// `goal` instantiated by it is `row`.
fn match_row(goal: &Atom, row: &[Const], s: &mut Subst) -> bool {
    goal.terms.iter().zip(row).all(|(&t, &c)| match s.walk(t) {
        Term::Const(x) => x == c,
        Term::Var(v) => {
            s.bind(v, Term::Const(c));
            true
        }
    })
}

impl<'a> Engine<'a> {
    /// Governance check between resolution steps: latches `stopped` so the
    /// depth-first recursion unwinds without doing further work.
    fn tripped(&mut self) -> bool {
        if self.stopped {
            return true;
        }
        if self.gov.check_interrupt().is_break() {
            self.stopped = true;
        }
        self.stopped
    }

    /// Registers a subquery; returns its key and bound-argument row.
    fn register(&mut self, goal: &Atom, s: &Subst) -> (Key, Row) {
        let ad = adornment_of(goal, s);
        let key = (goal.predicate(), ad.clone());
        let t = bound_row(goal, s, &ad);
        if self
            .inputs
            .entry(key.clone())
            .or_default()
            .insert(t.clone())
        {
            self.metrics.calls += 1;
            self.changed = true;
        }
        (key, t)
    }

    /// Solves every registered input of `key` against the rules, recursing
    /// into subqueries. Idempotent within one restart; cycles fall through
    /// to the outer restart loop.
    ///
    /// The first pass over an input evaluates each rule in full. Later
    /// passes evaluate semi-naive delta variants: with the input's cursors
    /// splitting every answer table into old and new halves, variant `j`
    /// reads only new answers at the `j`-th positive intensional literal,
    /// only old ones before it, and everything after it. Combinations of
    /// purely old answers were joined by the previous completed pass, so a
    /// quiescent input costs one probe per variant rather than a re-join of
    /// the full tables.
    fn solve(&mut self, key: &Key) {
        if self.in_progress.contains(key) || self.tripped() {
            return;
        }
        self.in_progress.insert(key.clone());
        // Snapshot the inputs: new ones found while solving are caught by
        // the restart loop.
        let inputs: Vec<Row> = self
            .inputs
            .get(key)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default();
        let clauses = self.clauses;
        let rules = clauses.by_pred.get(&key.0).map_or(&[][..], Vec::as_slice);
        for input in inputs {
            if self.tripped() {
                break;
            }
            let snapshot: FxHashMap<Key, usize> = self
                .answers
                .iter()
                .map(|(k, t)| (k.clone(), t.list.len()))
                .collect();
            let meta = (key.clone(), input.clone());
            let prev = self.cursors.get(&meta).cloned();
            let first_pass = prev.is_none();
            let thresholds = prev.unwrap_or_default();
            for rule in rules {
                let has_pos_idb = rule.body.iter().any(|l| {
                    l.polarity == Polarity::Positive
                        && self.clauses.idb.contains(&l.atom.predicate())
                });
                if !first_pass && !has_pos_idb {
                    // The body reads only static tables: the first pass
                    // already derived everything this rule can.
                    continue;
                }
                // Bind the head's bound positions to the input row (its
                // constants: the rule needs no renaming apart).
                let mut s = Subst::new();
                let mut ok = true;
                let mut bi = 0usize;
                for (t, bf) in rule.head.terms.iter().zip(&key.1 .0) {
                    if *bf == Bf::Bound {
                        let c = Term::Const(input[bi]);
                        bi += 1;
                        if !alexander_ir::unify_terms(*t, c, &mut s) {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let bound_vars: FxHashSet<alexander_ir::Var> = rule
                    .head
                    .vars()
                    .filter(|v| s.walk(Term::Var(*v)).is_ground())
                    .collect();
                let goals = sip_order(&rule.body, &bound_vars);
                let idb_positions: Vec<usize> = goals
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| {
                        l.polarity == Polarity::Positive
                            && self.clauses.idb.contains(&l.atom.predicate())
                    })
                    .map(|(p, _)| p)
                    .collect();
                if first_pass || idb_positions.is_empty() {
                    self.metrics.resolution_steps += 1;
                    self.body(&rule.head, &goals, 0, s, key, &[], &thresholds);
                } else {
                    for delta_ord in 0..idb_positions.len() {
                        if self.tripped() {
                            break;
                        }
                        let mut modes = vec![Mode::All; goals.len()];
                        for (o, &p) in idb_positions.iter().enumerate() {
                            modes[p] = match o.cmp(&delta_ord) {
                                std::cmp::Ordering::Less => Mode::Old,
                                std::cmp::Ordering::Equal => Mode::New,
                                std::cmp::Ordering::Greater => Mode::All,
                            };
                        }
                        self.metrics.resolution_steps += 1;
                        self.body(&rule.head, &goals, 0, s.clone(), key, &modes, &thresholds);
                    }
                }
            }
            if !self.stopped {
                self.cursors.insert(meta, snapshot);
            }
        }
        self.in_progress.remove(key);
    }

    /// Depth-first body evaluation (tuple-at-a-time over posted tables).
    ///
    /// `modes` selects, per goal position, which half of a positive
    /// intensional literal's answer table to consume relative to
    /// `thresholds` (the input's cursors); an empty slice means everything.
    #[allow(clippy::too_many_arguments)]
    fn body(
        &mut self,
        head: &Atom,
        goals: &[alexander_ir::Literal],
        i: usize,
        s: Subst,
        key: &Key,
        modes: &[Mode],
        thresholds: &FxHashMap<Key, usize>,
    ) {
        if self.tripped() {
            return;
        }
        if i == goals.len() {
            let answer = s.apply_atom(head);
            debug_assert!(answer.is_ground());
            if self
                .answers
                .get(key)
                .is_some_and(|t| t.set.contains(&answer))
            {
                return;
            }
            // Claim-before-insert, as in the bottom-up evaluators.
            if self.gov.claim_fact().is_break() {
                self.stopped = true;
                return;
            }
            let table = self.answers.entry(key.clone()).or_default();
            let idx = table.list.len();
            table
                .by_input
                .entry(projection(&answer, &key.1))
                .or_default()
                .push(idx);
            table.set.insert(answer.clone());
            table.list.push(answer);
            self.metrics.answers += 1;
            self.changed = true;
            return;
        }
        let lit = &goals[i];
        let goal = s.apply_atom(&lit.atom);

        if let Some(b) = Builtin::of(goal.predicate()) {
            // invariant: SIP reordering schedules built-ins after their
            // variables are bound, and validation rejects unbindable ones.
            let args = goal.ground_args().expect("SIP grounds built-ins");
            self.metrics.resolution_steps += 1;
            if b.eval(args[0], args[1]) == (lit.polarity == Polarity::Positive) {
                self.body(head, goals, i + 1, s, key, modes, thresholds);
            }
            return;
        }

        match (lit.polarity, self.clauses.idb.contains(&goal.predicate())) {
            (Polarity::Positive, false) => {
                // Extensional: probe on the ground columns, as OLDT does.
                let (cols, row): (Vec<usize>, Vec<Const>) = goal
                    .terms
                    .iter()
                    .enumerate()
                    .filter_map(|(c, t)| Some((c, t.as_const()?)))
                    .unzip();
                let clauses = self.clauses;
                for fact in clauses.probe(goal.predicate(), Mask::of_columns(&cols), &row) {
                    self.metrics.resolution_steps += 1;
                    let mut s2 = s.clone();
                    if match_row(&goal, fact, &mut s2) {
                        self.body(head, goals, i + 1, s2, key, modes, thresholds);
                    }
                }
            }
            (Polarity::Positive, true) => {
                let (sub, input_t) = self.register(&goal, &s);
                self.solve(&sub);
                if self.stopped {
                    return;
                }
                let mode = modes.get(i).copied().unwrap_or(Mode::All);
                let cut = thresholds.get(&sub).copied().unwrap_or(0);
                let candidates: Vec<Atom> = self
                    .answers
                    .get(&sub)
                    .map(|t| {
                        let posting = t.by_input.get(&input_t).map_or(&[][..], |v| v.as_slice());
                        // Posting entries ascend, so the cursor splits the
                        // list into old and new with one binary search.
                        let split = posting.partition_point(|&idx| idx < cut);
                        let slice = match mode {
                            Mode::All => posting,
                            Mode::Old => &posting[..split],
                            Mode::New => &posting[split..],
                        };
                        slice.iter().map(|&idx| t.list[idx].clone()).collect()
                    })
                    .unwrap_or_default();
                for a in candidates {
                    self.metrics.resolution_steps += 1;
                    let mut s2 = s.clone();
                    if alexander_ir::match_atom(&goal, &a, &mut s2) {
                        self.body(head, goals, i + 1, s2, key, modes, thresholds);
                    }
                }
            }
            (Polarity::Negative, false) => {
                debug_assert!(goal.is_ground());
                self.metrics.resolution_steps += 1;
                if !self.clauses.edb.contains_atom(&goal) {
                    self.body(head, goals, i + 1, s, key, modes, thresholds);
                }
            }
            (Polarity::Negative, true) => {
                // Stratified: complete the subquery first. The outer restart
                // loop guarantees completion before the final verdict, and
                // stratification guarantees the recursion below terminates.
                debug_assert!(goal.is_ground());
                let (sub, _) = self.register(&goal, &s);
                self.solve(&sub);
                if self.stopped {
                    // The subquery's tables may be incomplete; a negative
                    // conclusion from them would be unsound. Drop the branch.
                    return;
                }
                self.metrics.resolution_steps += 1;
                let any = self
                    .answers
                    .get(&sub)
                    .is_some_and(|t| t.set.contains(&goal));
                if !any {
                    self.body(head, goals, i + 1, s, key, modes, thresholds);
                }
            }
        }
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
    let clauses = Clauses::new(program, edb)?;
    if clauses.negated_idb.is_some() {
        alexander_ir::analysis::stratify(program).map_err(TopdownError::NotStratified)?;
    }

    let mut engine = Engine {
        clauses: &clauses,
        inputs: FxHashMap::default(),
        answers: FxHashMap::default(),
        cursors: FxHashMap::default(),
        in_progress: FxHashSet::default(),
        metrics: OldtMetrics::default(),
        changed: false,
        gov: Governor::new(budget),
        stopped: false,
    };

    let mut restarts = 0u64;
    let answers: Vec<Atom> = if clauses.idb.contains(&query.predicate()) {
        let s = Subst::new();
        let (seed, _) = engine.register(query, &s);
        // Restart until neither inputs nor answers grow. A restart counts
        // as a "round" against the budget.
        loop {
            if engine.gov.note_round().is_break() {
                engine.stopped = true;
                break;
            }
            restarts += 1;
            engine.changed = false;
            let keys: Vec<Key> = engine.inputs.keys().cloned().collect();
            for k in keys {
                engine.solve(&k);
            }
            if engine.stopped || !engine.changed {
                break;
            }
        }
        engine
            .answers
            .get(&seed)
            .map(|t| {
                t.list
                    .iter()
                    .filter(|a| {
                        let mut s = Subst::new();
                        alexander_ir::match_atom(query, a, &mut s)
                    })
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    } else {
        clauses.lookup(query)
    };

    let mut answers = answers;
    answers.sort();

    let inputs_by_pred = engine
        .inputs
        .iter()
        .map(|(k, v)| ((k.0, k.1.suffix()), v.len() as u64))
        .collect();
    let answers_by_pred = engine
        .answers
        .iter()
        .map(|(k, v)| ((k.0, k.1.suffix()), v.list.len() as u64))
        .collect();

    Ok(QsqrResult {
        answers,
        metrics: engine.metrics,
        inputs_by_pred,
        answers_by_pred,
        restarts,
        completion: engine.gov.completion(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let key = (Predicate::new("anc", 2), "bf".to_string());
        assert_eq!(r.inputs_by_pred[&key], 4);
    }

    #[test]
    fn agrees_with_oldt_tables() {
        let parsed = parse(ANCESTOR).unwrap();
        let edb = Database::from_program(&parsed.program);
        let q = parse_atom("anc(a, X)").unwrap();
        let qs = qsqr_query(&parsed.program, &edb, &q).unwrap();
        let ol = crate::oldt::oldt_query(&parsed.program, &edb, &q).unwrap();
        assert_eq!(qs.metrics.calls, ol.metrics.calls);
        assert_eq!(qs.metrics.answers, ol.metrics.answers);
        let mut a1: Vec<String> = qs.answers.iter().map(|a| a.to_string()).collect();
        let mut a2: Vec<String> = ol.answers.iter().map(|a| a.to_string()).collect();
        a1.sort();
        a2.sort();
        a2.dedup();
        assert_eq!(a1, a2);
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
}
