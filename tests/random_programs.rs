//! Property tests over *randomly generated programs* (not just random data):
//! evaluator agreement on definite programs, and the stratification
//! hierarchy theorems from the analysis layer.

use alexander_bench::legacy::{eval_seminaive_legacy, LegacyDb};
use alexander_eval::{
    eval_conditional, eval_naive, eval_naive_opts, eval_seminaive, eval_seminaive_opts,
    eval_stratified, eval_stratified_opts, order_for_evaluation, prove, Budget, Completion,
    EvalMetrics, EvalOptions, ProofTree, Prover, Resource,
};
use alexander_ir::analysis::{locally_stratified, loosely_stratified, stratify};
use alexander_ir::{
    match_atom, Atom, Builtin, Literal, Polarity, Predicate, Program, Rule, Subst, Term,
};
use alexander_storage::Database;
use alexander_topdown::oldt_query;
use alexander_transform::{alexander, sup_magic_sets, SipOptions};
use proptest::prelude::*;

const CONSTS: [&str; 4] = ["a", "b", "c", "d"];
const VARS: [&str; 4] = ["X", "Y", "Z", "W"];

/// A random *safe* rule: body literals are generated first; the head only
/// uses variables bound by positive body literals (or constants), and
/// negative literals only use bound variables, so every rule is
/// range-restricted by construction.
fn safe_rule(
    idb: &'static [(&'static str, usize)],
    edb: &'static [(&'static str, usize)],
    allow_negation: bool,
) -> impl Strategy<Value = Rule> {
    let term = prop_oneof![
        (0..CONSTS.len()).prop_map(|i| Term::sym(CONSTS[i])),
        (0..VARS.len()).prop_map(|i| Term::var(VARS[i])),
    ];
    let body_atom = (
        0..(idb.len() + edb.len()),
        proptest::collection::vec(term, 2),
    )
        .prop_map(move |(pi, ts)| {
            let (name, arity) = if pi < idb.len() {
                idb[pi]
            } else {
                edb[pi - idb.len()]
            };
            Atom::new(name, ts.into_iter().take(arity).collect())
        });
    let lit = (body_atom, proptest::bool::ANY).prop_map(move |(a, neg)| Literal {
        atom: a,
        polarity: if neg && allow_negation {
            Polarity::Negative
        } else {
            Polarity::Positive
        },
    });
    (
        0..idb.len(),
        proptest::collection::vec(lit, 1..4),
        proptest::collection::vec(0..(CONSTS.len() + VARS.len()), 2),
    )
        .prop_map(move |(hi, mut body, head_picks)| {
            // Variables bound by positive body literals.
            let bound: Vec<_> = body
                .iter()
                .filter(|l| l.is_positive())
                .flat_map(|l| l.vars())
                .collect();
            // Repair negative literals: replace unbound variables by a
            // constant (keeps the rule safe without discarding the case).
            for l in &mut body {
                if l.is_negative() {
                    for t in &mut l.atom.terms {
                        if let Term::Var(v) = t {
                            if !bound.contains(v) {
                                *t = Term::sym(CONSTS[0]);
                            }
                        }
                    }
                }
            }
            let (name, arity) = idb[hi];
            let head_terms: Vec<Term> = head_picks
                .into_iter()
                .take(arity)
                .map(|p| {
                    if p < CONSTS.len() {
                        Term::sym(CONSTS[p])
                    } else if let Some(v) = bound.get(p - CONSTS.len()) {
                        Term::Var(*v)
                    } else if let Some(v) = bound.first() {
                        Term::Var(*v)
                    } else {
                        Term::sym(CONSTS[1])
                    }
                })
                .collect();
            // Pad arity if the picks vector was short.
            let mut head_terms = head_terms;
            while head_terms.len() < arity {
                head_terms.push(Term::sym(CONSTS[2]));
            }
            Rule::new(Atom::new(name, head_terms), body)
        })
}

const IDB: &[(&str, usize)] = &[("p", 2), ("q", 1), ("r", 2)];
const EDB: &[(&str, usize)] = &[("e", 2), ("f", 1)];

fn definite_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(safe_rule(IDB, EDB, false), 1..6).prop_map(Program::from_rules)
}

fn negation_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(safe_rule(IDB, EDB, true), 1..6).prop_map(Program::from_rules)
}

fn random_edb() -> impl Strategy<Value = Database> {
    (
        proptest::collection::vec((0..CONSTS.len(), 0..CONSTS.len()), 0..8),
        proptest::collection::vec(0..CONSTS.len(), 0..4),
    )
        .prop_map(|(es, fs)| {
            let mut db = Database::new();
            for (a, b) in es {
                db.insert_row(
                    Predicate::new("e", 2),
                    &[
                        alexander_ir::Const::sym(CONSTS[a]),
                        alexander_ir::Const::sym(CONSTS[b]),
                    ],
                );
            }
            for a in fs {
                db.insert_row(
                    Predicate::new("f", 1),
                    &[alexander_ir::Const::sym(CONSTS[a])],
                );
            }
            db
        })
}

fn legacy_snapshot(db: &LegacyDb) -> Vec<String> {
    let mut out: Vec<String> = db
        .iter()
        .map(|(p, row)| alexander_storage::row_atom(p.name, row).to_string())
        .collect();
    out.sort();
    out
}

fn db_snapshot(db: &Database) -> Vec<String> {
    let mut out: Vec<String> = db
        .predicates()
        .into_iter()
        .flat_map(|p| db.atoms_of(p))
        .map(|a| a.to_string())
        .collect();
    out.sort();
    out
}

/// Checks every node of `tree`: a leaf is an EDB row, and a `Derived` node
/// is a ground instance of the rule it names, built over `model` — its
/// children prove positive premises of the model, its built-ins hold and
/// its negative premises are absent from the model. Premises come in the
/// compiled (evaluation-ordered) body order.
fn check_proof(
    tree: &ProofTree,
    program: &Program,
    model: &Database,
    edb: &Database,
) -> Result<(), String> {
    let (atom, rule, children, builtins, negatives) = match tree {
        ProofTree::Fact(a) if edb.contains_atom(a) => return Ok(()),
        ProofTree::Fact(a) => return Err(format!("leaf {a} is not an EDB row")),
        ProofTree::Derived {
            atom,
            rule,
            children,
            builtins,
            negatives,
        } => (atom, *rule, children, builtins, negatives),
    };
    let ordered = order_for_evaluation(&program.rules[rule]).unwrap();
    let is_builtin = |l: &&Literal| Builtin::of(l.atom.predicate()).is_some();
    let want_builtins: Vec<&Literal> = ordered.body.iter().filter(is_builtin).collect();
    let (want_pos, want_neg): (Vec<&Literal>, Vec<&Literal>) = ordered
        .body
        .iter()
        .filter(|l| !is_builtin(l))
        .partition(|l| l.is_positive());
    let mut s = Subst::new();
    let matched = match_atom(&ordered.head, atom, &mut s)
        && want_pos.len() == children.len()
        && want_pos
            .iter()
            .zip(children)
            .all(|(l, c)| match_atom(&l.atom, c.atom(), &mut s))
        && want_builtins.len() == builtins.len()
        && want_builtins
            .iter()
            .zip(builtins)
            .all(|(l, b)| l.polarity == b.polarity && match_atom(&l.atom, &b.atom, &mut s))
        && want_neg.len() == negatives.len()
        && want_neg
            .iter()
            .zip(negatives)
            .all(|(l, n)| match_atom(&l.atom, n, &mut s));
    if !matched {
        return Err(format!("{atom} is no instance of rule {rule}: {ordered}"));
    }
    for b in builtins {
        let args = b.atom.ground_args().unwrap();
        if Builtin::of(b.atom.predicate())
            .unwrap()
            .eval(args[0], args[1])
            != b.is_positive()
        {
            return Err(format!("built-in {b} of {atom} does not hold"));
        }
    }
    if let Some(n) = negatives.iter().find(|n| model.contains_atom(n)) {
        return Err(format!("negative premise {n} of {atom} is in the model"));
    }
    for c in children {
        if !model.contains_atom(c.atom()) {
            return Err(format!(
                "premise {} of {atom} is not in the model",
                c.atom()
            ));
        }
        check_proof(c, program, model, edb)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All four bottom-up evaluators compute the same model on definite
    /// programs.
    #[test]
    fn evaluators_agree_on_definite_programs(
        program in definite_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        let naive = eval_naive(&program, &edb).unwrap();
        let semi = eval_seminaive(&program, &edb).unwrap();
        let strat = eval_stratified(&program, &edb).unwrap();
        let cond = eval_conditional(&program, &edb).unwrap();
        prop_assert!(cond.is_total());
        let want = db_snapshot(&naive.db);
        prop_assert_eq!(&db_snapshot(&semi.db), &want, "seminaive differs");
        prop_assert_eq!(&db_snapshot(&strat.db), &want, "stratified differs");
        prop_assert_eq!(&db_snapshot(&cond.db), &want, "conditional differs");
    }

    /// OLDT answers every query exactly like the materialised model.
    #[test]
    fn oldt_agrees_with_bottom_up_on_definite_programs(
        program in definite_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        let semi = eval_seminaive(&program, &edb).unwrap();
        for (name, arity) in IDB {
            let pred = Predicate::new(name, *arity);
            if !program.is_idb(pred) {
                continue;
            }
            let query = Atom::new(
                name,
                (0..*arity).map(|i| Term::var(VARS[i])).collect(),
            );
            let oldt = oldt_query(&program, &edb, &query).unwrap();
            let mut got: Vec<String> = oldt.answers.iter().map(|a| a.to_string()).collect();
            got.sort();
            got.dedup();
            let mut want: Vec<String> = semi
                .db
                .atoms_of(pred)
                .iter()
                .map(|a| a.to_string())
                .collect();
            want.sort();
            prop_assert_eq!(got, want, "predicate {}", pred);
        }
    }

    /// Bry's hierarchy, one direction each:
    /// stratified ⇒ loosely stratified ⇒ locally stratified (over any EDB).
    #[test]
    fn stratification_hierarchy(
        program in negation_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        let strat = stratify(&program).is_ok();
        let loose = loosely_stratified(&program).is_ok();
        if strat {
            prop_assert!(loose, "stratified program failed the loose test:\n{}", program);
        }
        if loose {
            // Fold the EDB into inline facts for the ground check.
            let mut with_facts = program.clone();
            for p in edb.predicates() {
                with_facts.facts.extend(edb.atoms_of(p));
            }
            prop_assert!(
                locally_stratified(&with_facts, &[]).is_ok(),
                "loosely stratified program failed the ground check:\n{}",
                program
            );
        }
    }

    /// Parallel semi-naive produces identical relations AND identical
    /// facts-derived metrics at 1, 2, 4 and 8 threads on random definite
    /// programs.
    #[test]
    fn parallel_seminaive_is_exact_on_definite_programs(
        program in definite_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        let seq = eval_seminaive(&program, &edb).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let par =
                eval_seminaive_opts(&program, &edb, EvalOptions::with_threads(threads)).unwrap();
            prop_assert_eq!(&db_snapshot(&par.db), &db_snapshot(&seq.db),
                "relations differ at {} threads", threads);
            prop_assert_eq!(par.metrics, seq.metrics,
                "metrics differ at {} threads", threads);
        }
    }

    /// The same exactness holds through stratified negation: random stratified
    /// programs evaluate to the same model with the same counters at any
    /// thread count.
    #[test]
    fn parallel_stratified_is_exact_on_stratified_programs(
        program in negation_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        prop_assume!(stratify(&program).is_ok());
        let seq = eval_stratified(&program, &edb).unwrap();
        for threads in [2usize, 4, 8] {
            let par =
                eval_stratified_opts(&program, &edb, EvalOptions::with_threads(threads)).unwrap();
            prop_assert_eq!(&db_snapshot(&par.db), &db_snapshot(&seq.db),
                "relations differ at {} threads", threads);
            prop_assert_eq!(par.metrics, seq.metrics,
                "metrics differ at {} threads", threads);
        }
    }

    /// The arena storage rewrite is semantics- and counter-preserving: on
    /// random definite programs the arena engine produces the same model,
    /// fact totals and inference counters as the pre-rewrite boxed-tuple
    /// engine, and stays bit-identical across rewriting strategies
    /// (base/alexander/supmagic) × {1,4} threads × budget/no-budget. The budget leg uses a non-binding
    /// budget — binding budgets legitimately truncate, and their soundness
    /// is covered by the budget properties below.
    #[test]
    fn arena_matches_legacy_across_strategies_threads_and_budgets(
        program in definite_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        let q = Atom::new("p", vec![Term::var("X"), Term::var("Y")]);
        let opts = SipOptions::default();
        let mut strategies: Vec<(&str, Program)> = vec![("base", program.clone())];
        if let Ok(r) = alexander(&program, &q, opts) {
            strategies.push(("alexander", r.program));
        }
        if let Ok(r) = sup_magic_sets(&program, &q, opts) {
            strategies.push(("supmagic", r.program));
        }
        for (sname, prog) in &strategies {
            let legacy = eval_seminaive_legacy(prog, &edb);
            let seq = eval_seminaive(prog, &edb).unwrap();
            let want = db_snapshot(&seq.db);
            prop_assert_eq!(&legacy_snapshot(&legacy.db), &want,
                "{}: legacy and arena models differ", sname);
            prop_assert_eq!(legacy.db.total_tuples(), seq.db.total_tuples() as u64,
                "{}: fact totals differ", sname);
            prop_assert_eq!(&legacy.metrics, &seq.metrics,
                "{}: inference counters differ", sname);
            let budgets = [None, Some(Budget::default().with_max_facts(u64::MAX))];
            for threads in [1usize, 4] {
                for budget in budgets {
                    let mut o = EvalOptions::with_threads(threads);
                    if let Some(b) = budget {
                        o = o.with_budget(b);
                    }
                    let r = eval_seminaive_opts(prog, &edb, o).unwrap();
                    prop_assert!(r.completion.is_complete(),
                        "{}/{} threads: non-binding budget cut the run",
                        sname, threads);
                    prop_assert_eq!(&db_snapshot(&r.db), &want,
                        "{}/{} threads/budget {}: model differs",
                        sname, threads, budget.is_some());
                    prop_assert_eq!(&r.metrics, &seq.metrics,
                        "{}/{} threads/budget {}: counters differ",
                        sname, threads, budget.is_some());
                }
            }
        }
    }

    /// A fact budget never invents facts: whatever a budgeted run derives is
    /// a subset of the unbudgeted fixpoint, on every evaluator and at every
    /// thread count (parallel runs may refuse a different subset, but never
    /// an unsound one).
    #[test]
    fn fact_budgeted_runs_are_sound_subsets(
        program in definite_program(),
        edb in random_edb(),
        max_facts in 1u64..6,
    ) {
        prop_assume!(program.validate().is_ok());
        let full = db_snapshot(&eval_seminaive(&program, &edb).unwrap().db);
        let budget = Budget::default().with_max_facts(max_facts);
        let mut results = Vec::new();
        for threads in [1usize, 4] {
            results.push((
                "seminaive",
                eval_seminaive_opts(
                    &program, &edb,
                    EvalOptions::with_threads(threads).with_budget(budget)).unwrap(),
            ));
            results.push((
                "naive",
                eval_naive_opts(
                    &program, &edb,
                    EvalOptions::with_threads(threads).with_budget(budget)).unwrap(),
            ));
        }
        for (name, r) in results {
            let part = db_snapshot(&r.db);
            for f in &part {
                prop_assert!(full.contains(f), "{name}: {f} not in the fixpoint");
            }
            if r.completion.is_complete() {
                prop_assert_eq!(&part, &full, "{} complete but smaller", name);
            }
        }
    }

    /// Sequential fact budgeting is *exact*: the run reports
    /// `BudgetExhausted(Facts)` precisely when the budget actually cut the
    /// fixpoint short (strict subset), and `Complete` precisely when it
    /// reached the full model.
    #[test]
    fn sequential_fact_exhaustion_iff_strict_subset(
        program in definite_program(),
        edb in random_edb(),
        max_facts in 1u64..8,
    ) {
        prop_assume!(program.validate().is_ok());
        let full = db_snapshot(&eval_seminaive(&program, &edb).unwrap().db);
        let r = eval_seminaive_opts(
            &program, &edb,
            EvalOptions::default().with_budget(Budget::default().with_max_facts(max_facts)),
        ).unwrap();
        let part = db_snapshot(&r.db);
        let strict = part.len() < full.len();
        match r.completion {
            Completion::Complete =>
                prop_assert!(!strict, "complete run missed {} facts", full.len() - part.len()),
            Completion::BudgetExhausted { resource: Resource::Facts } =>
                prop_assert!(strict, "exhausted run actually reached the fixpoint"),
            other => prop_assert!(false, "unexpected completion {:?}", other),
        }
    }

    /// Partial results are resumable: feeding a budget-cut database back in
    /// as the EDB and evaluating without a budget lands on exactly the
    /// fixpoint of the original run.
    #[test]
    fn resuming_a_partial_result_reaches_the_same_fixpoint(
        program in definite_program(),
        edb in random_edb(),
        max_facts in 1u64..4,
    ) {
        prop_assume!(program.validate().is_ok());
        let full = db_snapshot(&eval_seminaive(&program, &edb).unwrap().db);
        let partial = eval_seminaive_opts(
            &program, &edb,
            EvalOptions::default().with_budget(Budget::default().with_max_facts(max_facts)),
        ).unwrap();
        let resumed = eval_seminaive(&program, &partial.db).unwrap();
        prop_assert_eq!(db_snapshot(&resumed.db), full);
    }

    /// The conditional fixpoint agrees with stratified evaluation whenever
    /// the program stratifies.
    #[test]
    fn conditional_matches_stratified_when_stratified(
        program in negation_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        prop_assume!(stratify(&program).is_ok());
        let strat = eval_stratified(&program, &edb).unwrap();
        let cond = eval_conditional(&program, &edb).unwrap();
        prop_assert!(cond.is_total(), "stratified program left residue");
        prop_assert_eq!(db_snapshot(&strat.db), db_snapshot(&cond.db));
    }
}

proptest! {
    // A non-minimal proof needs a fact with two derivations of different
    // heights, which few small random programs have: this property runs more
    // cases than the rest.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Proofs are read off the stratified model: every atom of it has one,
    /// each node is an instance of its rule over the model with EDB rows at
    /// the leaves, and no other atom has one. On a definite program a
    /// proof's height is one more than the naive round that first derives
    /// the fact: the proof is of minimal height.
    #[test]
    fn every_model_atom_has_a_minimal_proof_over_the_model(
        program in prop_oneof![definite_program(), negation_program()],
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        prop_assume!(stratify(&program).is_ok());
        let mut model = eval_stratified(&program, &edb).unwrap().db;
        let prover = Prover::new(&program, &mut EvalMetrics::default()).unwrap();
        prover.ensure_indexes(&mut model);
        // Naive round k's database, for k = 0 (the EDB) until the model.
        let rounds: Vec<Database> = if program.is_definite() {
            let mut rounds = Vec::new();
            for k in 0.. {
                let budget = Budget::default().with_max_rounds(k);
                let db = eval_naive_opts(&program, &edb, EvalOptions::default().with_budget(budget))
                    .unwrap()
                    .db;
                let done = db.total_tuples() == model.total_tuples();
                rounds.push(db);
                if done {
                    break;
                }
            }
            rounds
        } else {
            Vec::new()
        };
        for p in model.predicates() {
            for atom in model.atoms_of(p) {
                let proof = prove(&prover, &model, &edb, &atom);
                prop_assert!(proof.is_some(), "no proof of {}", atom);
                let proof = proof.unwrap();
                prop_assert_eq!(proof.atom(), &atom);
                if let Err(e) = check_proof(&proof, &program, &model, &edb) {
                    prop_assert!(false, "{}\n{}", e, proof);
                }
                if !rounds.is_empty() {
                    let first = rounds.iter().position(|db| db.contains_atom(&atom)).unwrap();
                    prop_assert_eq!(proof.height(), first + 1, "{}", proof);
                }
            }
        }
        let preds = IDB.iter().chain(EDB).map(|&(name, arity)| Predicate::new(name, arity));
        for pred in preds {
            for i in 0..CONSTS.len().pow(pred.arity as u32) {
                let terms = (0..pred.arity)
                    .map(|j| Term::sym(CONSTS[i / CONSTS.len().pow(j as u32) % CONSTS.len()]))
                    .collect();
                let atom = Atom::new(pred.name.as_str(), terms);
                if !model.contains_atom(&atom) {
                    prop_assert_eq!(prove(&prover, &model, &edb, &atom), None, "{}", atom);
                }
            }
        }
    }
}
