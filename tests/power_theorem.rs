//! The paper's power theorem, checked exactly across a battery of shapes:
//! bottom-up evaluation of the Alexander templates materialises OLDT's call
//! and answer tables, adorned predicate by adorned predicate.

use alexander_core::check_power_correspondence;
use alexander_ir::{Atom, Symbol, Term};
use alexander_parser::parse_atom;
use alexander_storage::Database;
use alexander_workload as workload;

fn assert_holds(program: &alexander_ir::Program, edb: &Database, q: &Atom, label: &str) {
    let c = check_power_correspondence(program, edb, q).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(c.holds(), "{label}:\n{c}");
}

#[test]
fn holds_on_chains_of_many_lengths() {
    for n in [1usize, 2, 5, 17, 64] {
        let edb = workload::chain("par", n);
        assert_holds(
            &workload::ancestor(),
            &edb,
            &parse_atom("anc(n0, X)").unwrap(),
            &format!("chain({n})"),
        );
    }
}

#[test]
fn holds_on_random_graphs_over_seeds() {
    for seed in 0..10u64 {
        let edb = workload::random_graph("e", 20, 55, seed);
        assert_holds(
            &workload::transitive_closure(),
            &edb,
            &parse_atom("tc(n1, X)").unwrap(),
            &format!("random seed {seed}"),
        );
    }
}

#[test]
fn holds_on_cycles_where_tabling_matters_most() {
    for n in [2usize, 3, 10] {
        let edb = workload::cycle("e", n);
        assert_holds(
            &workload::transitive_closure(),
            &edb,
            &parse_atom("tc(n0, X)").unwrap(),
            &format!("cycle({n})"),
        );
    }
}

#[test]
fn holds_on_same_generation_trees() {
    for depth in [2usize, 4, 6] {
        let (edb, seed) = workload::sg_tree(depth);
        let q = Atom {
            pred: Symbol::intern("sg"),
            terms: vec![Term::Const(seed), Term::var("Y")],
        };
        assert_holds(
            &workload::same_generation(),
            &edb,
            &q,
            &format!("sg({depth})"),
        );
    }
}

#[test]
fn holds_on_nonlinear_recursion() {
    for seed in [3u64, 4] {
        let edb = workload::random_graph("e", 12, 30, seed);
        assert_holds(
            &workload::transitive_closure_nonlinear(),
            &edb,
            &parse_atom("tc(n0, X)").unwrap(),
            &format!("nonlinear seed {seed}"),
        );
    }
}

#[test]
fn holds_on_ground_and_free_queries() {
    let edb = workload::chain("par", 10);
    let program = workload::ancestor();
    for q in ["anc(n2, n7)", "anc(X, Y)", "anc(X, n4)"] {
        assert_holds(&program, &edb, &parse_atom(q).unwrap(), q);
    }
}

#[test]
fn holds_on_empty_answer_queries() {
    // The query constant has no outgoing edges: 1 call, 0 answers — the
    // correspondence must hold on degenerate tables too.
    let edb = workload::chain("par", 5);
    assert_holds(
        &workload::ancestor(),
        &edb,
        &parse_atom("anc(n5, X)").unwrap(),
        "sink query",
    );
    assert_holds(
        &workload::ancestor(),
        &edb,
        &parse_atom("anc(zzz, X)").unwrap(),
        "unknown constant",
    );
}

mod random_program_correspondence {
    //! The theorem on random *programs*: safe definite rules generated from
    //! a small vocabulary, plus inline facts of the intensional predicates
    //! (body-less rules on both sides), queried bound-free. The strongest
    //! form of E3.

    use super::*;
    use alexander_core::Engine;
    use alexander_ir::{Literal, Program, Rule, Term};
    use alexander_storage::row_atom;
    use proptest::prelude::*;

    const VARS: [&str; 3] = ["X", "Y", "Z"];

    /// A random safe definite rule over `p/2`, `q/2` (IDB) and `e/2` (EDB):
    /// the head uses only variables bound by the body.
    fn rule() -> impl Strategy<Value = Rule> {
        let lit = (0u8..3, 0u8..3, 0u8..3).prop_map(|(p, a, b)| {
            let name = ["p", "q", "e"][p as usize];
            Literal::pos(alexander_ir::atom(
                name,
                [Term::var(VARS[a as usize]), Term::var(VARS[b as usize])],
            ))
        });
        (0u8..2, proptest::collection::vec(lit, 1..3), 0u8..3, 0u8..3).prop_map(
            |(h, body, ha, hb)| {
                let bound: Vec<_> = body.iter().flat_map(|l| l.vars()).collect();
                let pick = |i: u8| -> Term {
                    let v = alexander_ir::Var::new(VARS[i as usize]);
                    if bound.contains(&v) {
                        Term::Var(v)
                    } else {
                        Term::Var(bound[0])
                    }
                };
                Rule::new(
                    alexander_ir::atom(["p", "q"][h as usize], [pick(ha), pick(hb)]),
                    body,
                )
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn holds_on_random_programs(
            rules in proptest::collection::vec(rule(), 1..5),
            facts in proptest::collection::vec((0u8..2, 0usize..12, 0usize..12), 0..4),
            nodes in 2usize..10,
            extra in 0usize..15,
            seed in 0u64..200,
        ) {
            let mut program = Program::from_rules(rules);
            for (p, a, b) in facts {
                let pred = Symbol::intern(["p", "q"][p as usize]);
                let fact = row_atom(pred, &[workload::node(a), workload::node(b)]);
                if program.is_idb(fact.predicate()) {
                    program.facts.push(fact);
                }
            }
            prop_assume!(program.validate().is_ok());
            prop_assume!(program.is_idb(alexander_ir::Predicate::new("p", 2)));
            let edb = workload::random_graph("e", nodes, nodes + extra, seed);
            let q = parse_atom("tc_probe(n0, X)").unwrap();
            let q = Atom { pred: alexander_ir::Symbol::intern("p"), terms: q.terms };
            let c = check_power_correspondence(&program, &edb, &q)
                .expect("both sides run");
            prop_assert!(c.holds(), "{c}\nprogram:\n{program}");
            // Both sides also answer what the full fixpoint does.
            let engine = Engine::new(program.clone(), edb).expect("valid program");
            let want = engine.query(&q, alexander_core::Strategy::SemiNaive).unwrap().answers;
            for s in [alexander_core::Strategy::Alexander, alexander_core::Strategy::Oldt] {
                let got = engine.query(&q, s).unwrap().answers;
                prop_assert_eq!(got, want.clone(), "{}\nprogram:\n{}", s, program);
            }
        }
    }
}

#[test]
fn mutual_recursion_multiple_adornments() {
    // Odd/even paths: two predicates calling each other.
    let program = alexander_parser::parse(
        "
        odd(X, Y) :- e(X, Y).
        odd(X, Y) :- e(X, Z), even(Z, Y).
        even(X, Y) :- e(X, Z), odd(Z, Y).
        ",
    )
    .unwrap()
    .program;
    for seed in [5u64, 6] {
        let edb = workload::random_graph("e", 14, 30, seed);
        assert_holds(
            &program,
            &edb,
            &parse_atom("odd(n0, X)").unwrap(),
            &format!("odd/even seed {seed}"),
        );
    }
}
