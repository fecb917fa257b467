//! The benchmark program library: the recursive queries every paper in the
//! magic-sets literature evaluates on, parsed from embedded sources.

use alexander_ir::{Atom, Program};
use alexander_parser::{parse, parse_atom};

fn must_parse(src: &str) -> Program {
    // invariant: the sources are compiled-in literals, exercised by tests.
    let parsed = parse(src).expect("embedded program parses");
    debug_assert!(parsed.program.validate().is_ok());
    parsed.program
}

/// Transitive closure over `e/2`:
/// `tc(X,Y) :- e(X,Y).  tc(X,Y) :- e(X,Z), tc(Z,Y).`
pub fn transitive_closure() -> Program {
    must_parse(
        "
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
        ",
    )
}

/// Nonlinear transitive closure (`tc ∘ tc` recursion).
pub fn transitive_closure_nonlinear() -> Program {
    must_parse(
        "
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- tc(X, Z), tc(Z, Y).
        ",
    )
}

/// Ancestor over `par/2` — transitive closure under its classical name.
pub fn ancestor() -> Program {
    must_parse(
        "
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
        ",
    )
}

/// The same-generation program over `up/2`, `flat/2`, `down/2`: a linear
/// recursion (one recursive call, between an `up` and a `down` join).
pub fn same_generation() -> Program {
    must_parse(
        "
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
        ",
    )
}

/// The win–move game: `win(X) :- move(X, Y), !win(Y).` Not stratified; the
/// conditional fixpoint (or well-founded reading) decides it.
pub fn win_move() -> Program {
    must_parse(
        "
        win(X) :- move(X, Y), !win(Y).
        ",
    )
}

/// Reachability plus its stratified complement over `edge/2`, `node/1`,
/// with source `s`.
pub fn reach_unreach() -> Program {
    must_parse(
        "
        reach(X) :- source(S), edge(S, X).
        reach(Y) :- reach(X), edge(X, Y).
        unreach(X) :- node(X), !reach(X).
        ",
    )
}

/// Bry's loosely-stratified-but-unstratified shape: constant guards keep the
/// negative recursion acyclic at the atom level.
pub fn loose_guard() -> Program {
    must_parse(
        "
        p(X, a) :- q(X, Y), s(Z, X), !p(Z, b).
        ",
    )
}

/// A convenience bundle: a named program plus its canonical bound query.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub program: Program,
    pub query: Atom,
}

/// The standard suite used by the harness tables.
pub fn standard_suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "ancestor-bf",
            program: ancestor(),
            query: parse_atom("anc(n0, X)").unwrap(),
        },
        Workload {
            name: "tc-bf",
            program: transitive_closure(),
            query: parse_atom("tc(n0, X)").unwrap(),
        },
        Workload {
            name: "sg-bf",
            program: same_generation(),
            query: parse_atom("sg(n1, X)").unwrap(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_ir::analysis::{loosely_stratified, stratify};

    #[test]
    fn all_library_programs_validate() {
        for p in [
            transitive_closure(),
            transitive_closure_nonlinear(),
            ancestor(),
            same_generation(),
            win_move(),
            reach_unreach(),
            loose_guard(),
        ] {
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn stratification_statuses_are_as_documented() {
        assert!(stratify(&transitive_closure()).is_ok());
        assert!(stratify(&reach_unreach()).is_ok());
        assert!(stratify(&win_move()).is_err());
        assert!(stratify(&loose_guard()).is_err());
        assert!(loosely_stratified(&loose_guard()).is_ok());
        assert!(loosely_stratified(&win_move()).is_err());
    }

    #[test]
    fn standard_suite_queries_match_their_programs() {
        for w in standard_suite() {
            assert!(
                w.program.is_idb(w.query.predicate()),
                "{}: query predicate not defined",
                w.name
            );
        }
    }
}
