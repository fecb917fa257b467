//! The Alexander method (Rohmer, Lescoeur & Kerisit 1986) — the rewriting
//! whose *power* the reproduced paper analyses.
//!
//! The method turns a query into a "problem" (`call_p^a`) and decomposes
//! every rule at its intensional body atoms: each prefix becomes a
//! **continuation** (`cont`) carrying exactly the bindings needed to resume
//! once the subproblem is solved, each intensional atom spawns the
//! subproblem's `call`, and completed bodies produce **solutions**
//! (`ans_p^a`). Bottom-up evaluation of the template program then performs
//! precisely the work of a top-down interpreter with tabulation:
//!
//! * the extension of `call_p^a` is OLDT's call table — one fact per
//!   distinct (tabled) subquery;
//! * the extension of `ans_p^a` is OLDT's answer table;
//! * `cont` tuples are OLDT's suspended consumers.
//!
//! Experiment E3 verifies this correspondence exactly against the
//! instrumented OLDT engine; experiment E4 compares the same counts against
//! plain and supplementary magic sets (Alexander ≅ supplementary magic with
//! `ans` predicates split from the adorned predicates).
//!
//! Negative intensional literals are processed like positive ones (their
//! subproblem is spawned, the negation is checked against the completed
//! `ans` relation); the rewritten program is evaluated with the conditional
//! fixpoint procedure when the source has negation.

use crate::adorn::{adorn, AdornError, SipOptions};
use crate::common::{prefixed, seed_atom, Rewritten};
use crate::supmagic::{rewrite_rule, Naming};
use alexander_ir::{Atom, Program};

/// Applies the Alexander templates rewriting to `program` for `query`.
pub fn alexander(
    program: &Program,
    query: &Atom,
    opts: SipOptions,
) -> Result<Rewritten, AdornError> {
    let adorned = adorn(program, query, opts)?;
    let naming = Naming {
        demand: "call_",
        cont: "cont",
        answers_prefix: Some("ans_"),
    };
    let mut rules = Vec::new();
    for (ri, rule) in adorned.program.rules.iter().enumerate() {
        rewrite_rule(ri, rule, &adorned, &mut rules, &naming);
    }

    let seed = seed_atom("call_", query, &adorned.query_adorned);
    let call_pred = seed.predicate();
    let answer_query = Atom {
        pred: prefixed("ans_", adorned.query.pred),
        terms: adorned.query.terms.clone(),
    };
    let answer_pred = answer_query.predicate();
    let mut program_out = Program::from_rules(rules);
    program_out.facts.push(seed.clone());

    Ok(Rewritten {
        seed,
        query: answer_query,
        answer_pred,
        call_pred,
        program: program_out,
        adorned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_eval::{eval_conditional, eval_seminaive};
    use alexander_ir::Predicate;
    use alexander_parser::{parse, parse_atom};
    use alexander_storage::Database;

    fn ancestor_src() -> &'static str {
        "
        par(a, b). par(b, c). par(c, d). par(x, y).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
        "
    }

    #[test]
    fn template_shape_for_ancestor() {
        let p = parse(ancestor_src()).unwrap().program;
        let q = parse_atom("anc(a, X)").unwrap();
        let t = alexander(&p, &q, SipOptions::default()).unwrap();
        let printed = t.program.to_string();
        assert!(printed.contains("call_anc_bf(a)."), "{printed}");
        assert!(printed.contains("cont_1_0_anc_bf"), "{printed}");
        assert!(
            printed.contains("call_anc_bf(Z) :- cont_1_0_anc_bf"),
            "{printed}"
        );
        assert!(printed.contains("ans_anc_bf"), "{printed}");
        assert!(t.program.validate().is_ok(), "{printed}");
        // No adorned `anc_bf` predicate survives: only call/ans/cont.
        assert!(!printed.contains(" anc_bf("), "{printed}");
    }

    #[test]
    fn answers_match_direct_evaluation() {
        let parsed = parse(ancestor_src()).unwrap();
        let q = parse_atom("anc(a, X)").unwrap();
        let edb = Database::from_program(&parsed.program);
        let direct = eval_seminaive(&parsed.program, &edb).unwrap();
        let t = alexander(&parsed.program, &q, SipOptions::default()).unwrap();
        let r = eval_seminaive(&t.program, &edb).unwrap();

        let mut got: Vec<String> = crate::common::query_answers(&r.db, &t.query)
            .iter()
            .map(|a| a.terms[1].to_string())
            .collect();
        got.sort();
        let mut want: Vec<String> = direct
            .db
            .atoms_of(Predicate::new("anc", 2))
            .iter()
            .filter(|a| a.terms[0] == alexander_ir::Term::sym("a"))
            .map(|a| a.terms[1].to_string())
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn call_set_is_goal_directed() {
        // Only the chain reachable from `a` is called: a, b, c, d — never x.
        let parsed = parse(ancestor_src()).unwrap();
        let q = parse_atom("anc(a, X)").unwrap();
        let edb = Database::from_program(&parsed.program);
        let t = alexander(&parsed.program, &q, SipOptions::default()).unwrap();
        let r = eval_seminaive(&t.program, &edb).unwrap();
        let calls: Vec<String> =
            r.db.atoms_of(t.call_pred)
                .iter()
                .map(|a| a.to_string())
                .collect();
        assert_eq!(calls.len(), 4, "{calls:?}");
        assert!(!calls.iter().any(|c| c.contains('x')), "{calls:?}");
    }

    #[test]
    fn alexander_and_sup_magic_are_isomorphic_in_size() {
        // Same number of rewritten rules; identical call/magic extensions;
        // identical answer extensions. Both rewritings build their rules
        // with `supmagic::rewrite_rule` and differ only in `Naming`, so
        // this holds by construction: the test guards that sharing, it
        // does not compare two independent implementations.
        let parsed = parse(ancestor_src()).unwrap();
        let q = parse_atom("anc(a, X)").unwrap();
        let edb = Database::from_program(&parsed.program);
        let alex = alexander(&parsed.program, &q, SipOptions::default()).unwrap();
        let sup =
            crate::supmagic::sup_magic_sets(&parsed.program, &q, SipOptions::default()).unwrap();
        assert_eq!(alex.program.rules.len(), sup.program.rules.len());
        let ra = eval_seminaive(&alex.program, &edb).unwrap();
        let rs = eval_seminaive(&sup.program, &edb).unwrap();
        assert_eq!(
            ra.db.len_of(alex.call_pred),
            rs.db.len_of(sup.call_pred),
            "demand sets differ"
        );
        assert_eq!(
            ra.db.len_of(alex.answer_pred),
            rs.db.len_of(sup.answer_pred),
            "answer sets differ"
        );
        assert_eq!(ra.metrics.new_facts, rs.metrics.new_facts);
    }

    #[test]
    fn same_generation_with_trees() {
        let parsed = parse(
            "
            up(a, g1). up(b, g1). up(g1, h1). up(g2, h1).
            flat(h1, h1). flat(g1, g2).
            down(h1, g3). down(g2, c). down(g3, d).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
        ",
        )
        .unwrap();
        let q = parse_atom("sg(a, Y)").unwrap();
        let edb = Database::from_program(&parsed.program);
        let direct = eval_seminaive(&parsed.program, &edb).unwrap();
        let t = alexander(&parsed.program, &q, SipOptions::default()).unwrap();
        let r = eval_seminaive(&t.program, &edb).unwrap();
        let mut got: Vec<String> = crate::common::query_answers(&r.db, &t.query)
            .iter()
            .map(|a| a.terms[1].to_string())
            .collect();
        got.sort();
        got.dedup();
        let mut want: Vec<String> = direct
            .db
            .atoms_of(Predicate::new("sg", 2))
            .iter()
            .filter(|a| a.terms[0] == alexander_ir::Term::sym("a"))
            .map(|a| a.terms[1].to_string())
            .collect();
        want.sort();
        want.dedup();
        assert_eq!(got, want);
    }

    #[test]
    fn negation_through_templates_with_conditional_fixpoint() {
        let parsed = parse(
            "
            move(a, b). move(b, c).
            win(X) :- move(X, Y), !win(Y).
        ",
        )
        .unwrap();
        let q = parse_atom("win(a)").unwrap();
        let t = alexander(&parsed.program, &q, SipOptions::default()).unwrap();
        let edb = Database::from_program(&parsed.program);
        let r = eval_conditional(&t.program, &edb).unwrap();
        assert!(r.is_total());
        // a -> b -> c: b wins, so a does not: the query has no answers...
        assert!(crate::common::query_answers(&r.db, &t.query).is_empty());
        // ...but the win(b) subproblem was called and answered.
        let ans_b: Vec<String> =
            r.db.atoms_of(t.answer_pred)
                .iter()
                .map(|a| a.to_string())
                .collect();
        assert_eq!(ans_b, vec!["ans_win_b(b)".to_string()]);
    }

    #[test]
    fn all_free_query_still_works() {
        let parsed = parse(ancestor_src()).unwrap();
        let q = parse_atom("anc(X, Y)").unwrap();
        let t = alexander(&parsed.program, &q, SipOptions::default()).unwrap();
        let edb = Database::from_program(&parsed.program);
        let r = eval_seminaive(&t.program, &edb).unwrap();
        let direct = eval_seminaive(&parsed.program, &edb).unwrap();
        assert_eq!(
            r.db.len_of(t.answer_pred),
            direct.db.len_of(Predicate::new("anc", 2))
        );
    }
}
