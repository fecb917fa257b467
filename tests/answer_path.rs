//! Differential test of the answer path. `Engine::query` matches, orders
//! and builds answers straight from the evaluated relation; the reference
//! below is the way answers used to be read: every stored atom of the
//! predicate, `match_atom` under a fresh substitution, `sort`, `dedup`.
//! Over random definite programs and EDBs mixing integers (negative, of
//! different widths) with symbols interned out of lexical order, every
//! strategy must return exactly the reference list, in order, and render
//! it byte for byte as `Display` does. The programs carry inline facts of
//! intensional predicates, which every strategy reads as body-less rules.

use alexander_core::{Engine, Strategy};
use alexander_eval::eval_seminaive;
use alexander_ir::{
    match_atom, render_atoms, Atom, Const, Literal, Predicate, Program, Rule, Subst, Term,
};
use alexander_storage::{row_atom, Database};
use alexander_transform::{alexander, magic_sets, query_answers, sup_magic_sets, SipOptions};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

const EDB: [(&str, usize); 3] = [("ap_e", 2), ("ap_f", 2), ("ap_g", 1)];
const IDB: [(&str, usize); 3] = [("ap_p", 2), ("ap_q", 2), ("ap_r", 1)];
const VARS: [&str; 3] = ["X", "Y", "Z"];

/// The constants facts and queries draw from. The symbols are interned in
/// reverse lexical order (and `ap_y10` before `ap_y9`), so symbol ids order
/// them backwards.
fn universe() -> Vec<Const> {
    let mut u: Vec<Const> = ["ap_z", "ap_y9", "ap_y10", "ap_b", "ap_a"]
        .into_iter()
        .map(Const::sym)
        .collect();
    u.extend([-12, -3, 0, 9, 10, 100].map(Const::Int));
    u
}

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.random_range(0..xs.len())]
}

/// A random range-restricted definite rule: a body of one to three positive
/// literals over any predicate, a head over variables the body binds (or a
/// constant).
fn random_rule(rng: &mut StdRng, consts: &[Const]) -> Rule {
    let preds: Vec<(&str, usize)> = EDB.iter().chain(&IDB).copied().collect();
    let body: Vec<Literal> = (0..rng.random_range(1..4))
        .map(|_| {
            let (name, arity) = pick(rng, &preds);
            let terms = (0..arity)
                .map(|_| {
                    if rng.random_range(0..5) == 0 {
                        Term::Const(pick(rng, consts))
                    } else {
                        Term::var(pick(rng, &VARS))
                    }
                })
                .collect();
            Literal::pos(Atom::new(name, terms))
        })
        .collect();
    let bound: Vec<Term> = body
        .iter()
        .flat_map(|l| l.atom.vars())
        .map(Term::Var)
        .collect();
    let (name, arity) = pick(rng, &IDB);
    let head = (0..arity)
        .map(|_| {
            if bound.is_empty() || rng.random_range(0..6) == 0 {
                Term::Const(pick(rng, consts))
            } else {
                pick(rng, &bound)
            }
        })
        .collect();
    Rule::new(Atom::new(name, head), body)
}

/// A random definite program and EDB. The program's inline facts name
/// predicates its rules define, with constants in the head.
fn random_program(seed: u64) -> (Program, Database) {
    let consts = universe();
    let mut rng = StdRng::seed_from_u64(seed);
    let rules: Vec<Rule> = (0..rng.random_range(2..6))
        .map(|_| random_rule(&mut rng, &consts))
        .collect();
    let mut edb = Database::new();
    for (name, arity) in EDB {
        for _ in 0..rng.random_range(0..14) {
            let row: Vec<Const> = (0..arity).map(|_| pick(&mut rng, &consts)).collect();
            edb.insert_row(Predicate::new(name, arity), &row);
        }
    }
    let heads: Vec<Predicate> = rules.iter().map(|r| r.head.predicate()).collect();
    let facts = (0..rng.random_range(0..4))
        .map(|_| {
            let p = pick(&mut rng, &heads);
            let row: Vec<Const> = (0..p.arity).map(|_| pick(&mut rng, &consts)).collect();
            row_atom(p.name, &row)
        })
        .collect();
    (Program { rules, facts }, edb)
}

/// Every binding pattern of every predicate: free, each column bound, all
/// bound, and a repeated variable.
fn queries(consts: &[Const], rng: &mut StdRng) -> Vec<Atom> {
    let mut out = Vec::new();
    for (name, arity) in EDB.iter().chain(&IDB) {
        let c = |rng: &mut StdRng| Term::Const(pick(rng, consts));
        let (x, y) = (Term::var("X"), Term::var("Y"));
        let shapes: Vec<Vec<Term>> = if *arity == 1 {
            vec![vec![x], vec![c(rng)]]
        } else {
            vec![
                vec![x, y],
                vec![c(rng), y],
                vec![x, c(rng)],
                vec![c(rng), c(rng)],
                vec![x, x],
            ]
        };
        out.extend(shapes.into_iter().map(|t| Atom::new(name, t)));
    }
    out
}

/// The reference: the old `atoms_of → match_atom → sort → dedup`.
fn old_matching(db: &Database, pattern: &Atom) -> Vec<Atom> {
    db.atoms_of(pattern.predicate())
        .into_iter()
        .filter(|a| match_atom(pattern, a, &mut Subst::new()))
        .collect()
}

fn old_answers(db: &Database, pattern: &Atom) -> Vec<Atom> {
    let mut atoms = old_matching(db, pattern);
    atoms.sort();
    atoms.dedup();
    atoms
}

#[test]
fn every_strategy_answers_exactly_the_reference_in_order() {
    let consts = universe();
    let mut checked = 0;
    for seed in 0..60 {
        let (program, edb) = random_program(seed);
        let model = eval_seminaive(&program, &edb)
            .expect("definite programs evaluate")
            .db;
        let engine = Engine::new(program, edb).expect("generated rules are safe");
        for p in engine.program().idb_predicates() {
            assert_eq!(engine.edb().len_of(p), 0, "seed {seed}: {p} stored");
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5);
        for query in queries(&consts, &mut rng) {
            let want = old_answers(&model, &query);
            let want_text: Vec<String> = want.iter().map(Atom::to_string).collect();
            for s in Strategy::ALL {
                let got = engine
                    .query(&query, s)
                    .unwrap_or_else(|e| panic!("seed {seed} {query} {s}: {e}"))
                    .answers;
                assert_eq!(got, want, "seed {seed}: {query} under {s}");
                assert_eq!(
                    render_atoms(&got),
                    want_text,
                    "seed {seed}: {query} under {s}"
                );
                checked += got.len();
            }
        }
    }
    assert!(checked > 1000, "the random programs answer something");
}

#[test]
fn query_answers_equals_the_old_matcher_as_a_set() {
    let consts = universe();
    for seed in 0..60 {
        let (program, edb) = random_program(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A);
        for query in queries(&consts, &mut rng) {
            if !program.is_idb(query.predicate()) {
                continue;
            }
            let sip = SipOptions::default();
            for rw in [
                magic_sets(&program, &query, sip),
                sup_magic_sets(&program, &query, sip),
                alexander(&program, &query, sip),
            ] {
                let rw = rw.expect("definite programs rewrite");
                let db = eval_seminaive(&rw.program, &edb).unwrap().db;
                let new = query_answers(&db, &rw.query);
                let old = old_matching(&db, &rw.query);
                assert_eq!(new.len(), old.len(), "seed {seed}: {query}");
                let new: BTreeSet<Atom> = new.into_iter().collect();
                assert_eq!(new, old.into_iter().collect(), "seed {seed}: {query}");
            }
        }
    }
}
