//! Cross-crate invariant: every strategy returns the same answer set on the
//! same query, across graph shapes, query bindings and seeds — including
//! programs with inline facts of intensional predicates, which every
//! strategy reads as body-less rules.

use alexander_core::{Engine, Strategy};
use alexander_ir::{Atom, Program, Symbol, Term};
use alexander_parser::parse_atom;
use alexander_storage::{row_atom, Database};
use alexander_workload as workload;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// `program` plus random inline facts of its intensional `tc`, with
/// constants in the head: three between nodes `n0..n{nodes}`, one leading
/// out of the graph.
fn with_tc_facts(mut program: Program, nodes: usize, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let tc = Symbol::intern("tc");
    for _ in 0..3 {
        let (a, b) = (rng.random_range(0..nodes), rng.random_range(0..nodes));
        program
            .facts
            .push(row_atom(tc, &[workload::node(a), workload::node(b)]));
    }
    let a = rng.random_range(0..nodes);
    program.facts.push(row_atom(
        tc,
        &[workload::node(a), workload::node(nodes + 50)],
    ));
    program
}

fn assert_all_agree(engine: &Engine, query: &Atom, label: &str) {
    let baseline = engine
        .query(query, Strategy::SemiNaive)
        .unwrap_or_else(|e| panic!("{label}: baseline failed: {e}"));
    let want: Vec<String> = baseline.answers.iter().map(|a| a.to_string()).collect();
    for s in Strategy::ALL {
        let r = engine
            .query(query, s)
            .unwrap_or_else(|e| panic!("{label}/{s}: failed: {e}"));
        let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(got, want, "{label}: strategy {s} disagrees");
    }
}

#[test]
fn transitive_closure_on_shapes() {
    let cases: Vec<(&str, Database)> = vec![
        ("chain", workload::chain("e", 30)),
        ("cycle", workload::cycle("e", 20)),
        ("grid", workload::grid("e", 5)),
        ("tree", workload::tree("e", 3, 3).0),
        ("random-sparse", workload::random_graph("e", 25, 40, 1)),
        ("random-dense", workload::random_graph("e", 15, 120, 2)),
        ("dag", workload::random_dag("e", 25, 60, 3)),
    ];
    for (seed, (name, edb)) in cases.into_iter().enumerate() {
        let facts = with_tc_facts(workload::transitive_closure(), 12, seed as u64);
        for (program, name) in [
            (workload::transitive_closure(), name.to_string()),
            (facts, format!("{name}+facts")),
        ] {
            let engine = Engine::new(program, edb.clone()).unwrap();
            for q in [
                "tc(n0, X)",
                "tc(X, n3)",
                "tc(n1, n4)",
                "tc(X, Y)",
                "tc(X, X)",
            ] {
                let query = parse_atom(q).unwrap();
                assert_all_agree(&engine, &query, &format!("{name}/{q}"));
            }
        }
    }
}

#[test]
fn intensional_inline_facts_answer_under_every_strategy() {
    let engine = Engine::from_source(
        "e(a, b). e(b, c). anc(z, z).
         anc(X, Y) :- e(X, Y).
         anc(X, Y) :- e(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let query = parse_atom("anc(z, X)").unwrap();
    for s in Strategy::ALL {
        let got: Vec<String> = engine
            .query(&query, s)
            .unwrap()
            .answers
            .iter()
            .map(|a| a.to_string())
            .collect();
        assert_eq!(got, ["anc(z, z)"], "strategy {s}");
    }
}

#[test]
fn nonlinear_rules_agree_too() {
    for seed in [7u64, 8, 9] {
        let edb = workload::random_graph("e", 18, 45, seed);
        let facts = with_tc_facts(workload::transitive_closure_nonlinear(), 18, seed);
        for (program, name) in [
            (
                workload::transitive_closure_nonlinear(),
                format!("seed{seed}"),
            ),
            (facts, format!("seed{seed}+facts")),
        ] {
            let engine = Engine::new(program, edb.clone()).unwrap();
            for q in ["tc(n0, X)", "tc(X, Y)"] {
                assert_all_agree(&engine, &parse_atom(q).unwrap(), &format!("{name}/{q}"));
            }
        }
    }
}

#[test]
fn same_generation_agrees_across_depths() {
    for depth in [3usize, 4, 5] {
        let (edb, seed) = workload::sg_tree(depth);
        let engine = Engine::new(workload::same_generation(), edb).unwrap();
        let query = Atom {
            pred: Symbol::intern("sg"),
            terms: vec![Term::Const(seed), Term::var("Y")],
        };
        assert_all_agree(&engine, &query, &format!("sg depth {depth}"));
    }
}

#[test]
fn bound_second_argument_flips_the_sip() {
    // Querying tc(X, n5) exercises the fb adornment path everywhere.
    let edb = workload::chain("e", 12);
    let engine = Engine::new(workload::transitive_closure(), edb).unwrap();
    let query = parse_atom("tc(X, n5)").unwrap();
    assert_all_agree(&engine, &query, "fb query");
    let r = engine.query(&query, Strategy::Alexander).unwrap();
    assert_eq!(r.answers.len(), 5); // n0..n4
}

/// Semi-naive evaluation is deterministic: two engines over the same inputs
/// give the same answers, metrics and materialisation — on definite
/// workloads and through every strategy layered on the semi-naive engine.
/// (The name predates the removal of the round fan-out.)
#[test]
fn parallel_seminaive_matches_sequential_exactly() {
    let cases: Vec<(&str, Database)> = vec![
        ("chain", workload::chain("e", 40)),
        ("cycle", workload::cycle("e", 25)),
        ("grid", workload::grid("e", 5)),
        ("random", workload::random_graph("e", 20, 50, 5)),
    ];
    for (name, edb) in cases {
        for program in [
            workload::transitive_closure(),
            workload::transitive_closure_nonlinear(),
        ] {
            let seq = Engine::new(program.clone(), edb.clone()).unwrap();
            let par = Engine::new(program.clone(), edb.clone()).unwrap();
            for strat in [
                Strategy::SemiNaive,
                Strategy::Stratified,
                Strategy::Magic,
                Strategy::SupplementaryMagic,
                Strategy::Alexander,
            ] {
                let q = parse_atom("tc(n0, X)").unwrap();
                let a = seq.query(&q, strat).unwrap();
                let b = par.query(&q, strat).unwrap();
                let label = format!("{name}/{strat}");
                assert_eq!(a.answers, b.answers, "{label}: answers");
                assert_eq!(a.report.eval, b.report.eval, "{label}: metrics");
                assert_eq!(
                    a.report.facts_materialised, b.report.facts_materialised,
                    "{label}: materialisation"
                );
            }
        }
    }
}

/// The same identity holds under stratified negation: the strata run one by
/// one, and negative literals still read a frozen, complete lower stratum.
/// (The name predates the removal of the round fan-out.)
#[test]
fn parallel_seminaive_matches_sequential_with_negation() {
    for seed in [21u64, 22] {
        let mut edb = workload::random_graph("edge", 18, 36, seed);
        for i in 0..18 {
            edb.insert_row(
                alexander_ir::Predicate::new("node", 1),
                &[workload::node(i)],
            );
        }
        edb.insert_row(
            alexander_ir::Predicate::new("source", 1),
            &[workload::node(0)],
        );
        let program = workload::reach_unreach();
        let seq = Engine::new(program.clone(), edb.clone()).unwrap();
        let query = parse_atom("unreach(X)").unwrap();
        let base = seq.query(&query, Strategy::Stratified).unwrap();
        let par = Engine::new(program.clone(), edb.clone()).unwrap();
        for strat in [Strategy::Stratified, Strategy::ConditionalFixpoint] {
            let r = par.query(&query, strat).unwrap();
            assert_eq!(base.answers, r.answers, "seed {seed}/{strat}");
        }
        let strat_par = par.query(&query, Strategy::Stratified).unwrap();
        assert_eq!(
            base.report.eval, strat_par.report.eval,
            "seed {seed}: stratified metrics"
        );
    }
}

#[test]
fn stratified_negation_strategies_agree() {
    // reach/unreach over random graphs: the three evaluators that support
    // IDB negation must agree.
    for seed in [11u64, 12] {
        let mut edb = workload::random_graph("edge", 20, 40, seed);
        for i in 0..20 {
            edb.insert_row(
                alexander_ir::Predicate::new("node", 1),
                &[workload::node(i)],
            );
        }
        edb.insert_row(
            alexander_ir::Predicate::new("source", 1),
            &[workload::node(0)],
        );
        let engine = Engine::new(workload::reach_unreach(), edb).unwrap();
        let query = parse_atom("unreach(X)").unwrap();
        let strat = engine.query(&query, Strategy::Stratified).unwrap();
        let cond = engine.query(&query, Strategy::ConditionalFixpoint).unwrap();
        let oldt = engine.query(&query, Strategy::Oldt).unwrap();
        assert_eq!(strat.answers, cond.answers, "seed {seed}");
        assert_eq!(strat.answers, oldt.answers, "seed {seed}");
    }
}
