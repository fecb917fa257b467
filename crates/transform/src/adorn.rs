//! Adornment: specialise a program for a query's binding pattern.
//!
//! Starting from the query's adornment, rules are rewritten so that every
//! intensional predicate occurrence carries the binding pattern under which
//! it will be called (`anc_bf`, `sg_fb`, …). Bindings propagate *sideways*
//! through rule bodies: a variable is bound at a literal if it is bound by
//! the head's bound arguments or appears in an earlier positive literal
//! (the sideways information passing, SIP).
//!
//! An optional SIP heuristic reorders each body to consume bound literals
//! first, maximising the bindings passed to recursive calls (ablation E9
//! measures its effect).

use alexander_ir::{
    AdornedPredicate, Adornment, Atom, FxHashMap, FxHashSet, Literal, Polarity, Predicate, Program,
    Rule, Symbol, Term, Var,
};
use std::collections::VecDeque;
use std::fmt;

/// Options for the adornment pass.
#[derive(Clone, Copy, Debug)]
pub struct SipOptions {
    /// Reorder body literals greedily by number of bound arguments. When
    /// off, bodies keep their textual order (bindings still propagate left
    /// to right).
    pub reorder: bool,
}

impl Default for SipOptions {
    fn default() -> SipOptions {
        SipOptions { reorder: true }
    }
}

/// The adorned program: rules over mangled predicate names, the adorned
/// query, and the mapping back to original predicates.
#[derive(Clone, Debug)]
pub struct Adorned {
    /// Rules whose IDB predicates are replaced by `name_adornment` variants.
    pub program: Program,
    /// The query with its predicate replaced by the adorned variant.
    pub query: Atom,
    /// The adorned predicate of the query.
    pub query_adorned: AdornedPredicate,
    /// Mangled name → original adorned predicate.
    pub map: FxHashMap<Symbol, AdornedPredicate>,
}

/// Errors from the adornment pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdornError {
    /// The query predicate is extensional: nothing to specialise.
    ExtensionalQuery(Predicate),
}

impl fmt::Display for AdornError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdornError::ExtensionalQuery(p) => {
                write!(f, "query predicate {p} is extensional; no adornment needed")
            }
        }
    }
}

impl std::error::Error for AdornError {}

/// Adorns `program` for `query` (constants in the query are the bound
/// positions). An inline fact of an intensional predicate is adorned as the
/// body-less rule it is ([`Program::normalize`]); the other inline facts are
/// EDB rows, which the caller's database holds.
pub fn adorn(program: &Program, query: &Atom, opts: SipOptions) -> Result<Adorned, AdornError> {
    let program = program.normalized();
    let idb = program.idb_predicates();
    let qpred = query.predicate();
    if !idb.contains(&qpred) {
        return Err(AdornError::ExtensionalQuery(qpred));
    }

    let query_ad = Adornment::of_atom(query, &[]);
    let query_adorned = AdornedPredicate::new(qpred, query_ad);

    let mut out_rules: Vec<Rule> = Vec::new();
    let mut map: FxHashMap<Symbol, AdornedPredicate> = FxHashMap::default();
    let mut seen: FxHashSet<AdornedPredicate> = FxHashSet::default();
    let mut work: VecDeque<AdornedPredicate> = VecDeque::new();
    seen.insert(query_adorned.clone());
    map.insert(query_adorned.mangled_name(), query_adorned.clone());
    work.push_back(query_adorned.clone());

    while let Some(ap) = work.pop_front() {
        for rule in program.rules_for(ap.pred) {
            let adorned_rule = adorn_rule(rule, &ap, &idb, opts, |new_ap: AdornedPredicate| {
                map.insert(new_ap.mangled_name(), new_ap.clone());
                if seen.insert(new_ap.clone()) {
                    work.push_back(new_ap);
                }
            });
            out_rules.push(adorned_rule);
        }
    }

    let adorned_query = Atom {
        pred: query_adorned.mangled_name(),
        terms: query.terms.clone(),
    };
    Ok(Adorned {
        program: Program::from_rules(out_rules),
        query: adorned_query,
        query_adorned,
        map,
    })
}

/// Adorns a single rule for head adornment `ap`, calling `on_idb` for every
/// intensional body adornment generated.
fn adorn_rule(
    rule: &Rule,
    ap: &AdornedPredicate,
    idb: &FxHashSet<Predicate>,
    opts: SipOptions,
    mut on_idb: impl FnMut(AdornedPredicate),
) -> Rule {
    // Bound variables: head variables at bound positions.
    let mut bound: FxHashSet<Var> = FxHashSet::default();
    for (i, t) in rule.head.terms.iter().enumerate() {
        if ap.adornment.0[i] == alexander_ir::Bf::Bound {
            if let Term::Var(v) = t {
                bound.insert(*v);
            }
        }
    }

    let ordered = if opts.reorder {
        sip_order(&rule.body, &bound)
    } else {
        rule.body.clone()
    };

    let mut body = Vec::with_capacity(ordered.len());
    for lit in ordered {
        let pred = lit.atom.predicate();
        let atom = if idb.contains(&pred) {
            let ad = Adornment::of_atom(&lit.atom, &bound.iter().copied().collect::<Vec<_>>());
            let bap = AdornedPredicate::new(pred, ad);
            let name = bap.mangled_name();
            on_idb(bap);
            Atom {
                pred: name,
                terms: lit.atom.terms.clone(),
            }
        } else {
            lit.atom.clone()
        };
        if lit.polarity == Polarity::Positive {
            bound.extend(lit.vars());
        }
        body.push(Literal {
            atom,
            polarity: lit.polarity,
        });
    }

    Rule {
        head: Atom {
            pred: ap.mangled_name(),
            terms: rule.head.terms.clone(),
        },
        body,
    }
}

/// Greedy SIP ordering: repeatedly pick the literal with the most bound
/// argument positions (constants count as bound), preferring textual order
/// on ties. Negative literals are only eligible once fully bound; safety
/// guarantees this terminates.
///
/// Public because the OLDT engine must select literals in exactly this
/// order for the power correspondence (E3) to be literal: the Alexander
/// templates encode this SIP, so a top-down engine with a different
/// selection rule would table different calls.
pub fn sip_order(body: &[Literal], initially_bound: &FxHashSet<Var>) -> Vec<Literal> {
    let mut bound = initially_bound.clone();
    let mut remaining: Vec<(usize, &Literal)> = body.iter().enumerate().collect();
    let mut out = Vec::with_capacity(body.len());

    while !remaining.is_empty() {
        let mut best: Option<(usize, usize, usize)> = None; // (score, neg-tiebreak, idx into remaining)
        for (slot, (orig_idx, lit)) in remaining.iter().enumerate() {
            let fully_bound = lit.vars().all(|v| bound.contains(&v));
            let is_test = lit.polarity == Polarity::Negative
                || alexander_ir::Builtin::of(lit.atom.predicate()).is_some();
            if is_test && !fully_bound {
                continue;
            }
            let score = lit
                .atom
                .terms
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
                .count();
            // Prefer higher score; tie-break on textual order (orig_idx).
            let key = (score, usize::MAX - orig_idx, slot);
            if best.is_none_or(|b| (key.0, key.1) > (b.0, b.1)) {
                best = Some(key);
            }
        }
        let slot = match best {
            Some((_, _, slot)) => slot,
            // Only unbound negative literals remain (unsafe rule): keep
            // textual order; the evaluator will reject the rule.
            None => 0,
        };
        let (_, lit) = remaining.remove(slot);
        if lit.polarity == Polarity::Positive {
            bound.extend(lit.vars());
        }
        out.push(lit.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_parser::{parse, parse_atom};

    fn ancestor() -> Program {
        parse(
            "
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
        ",
        )
        .unwrap()
        .program
    }

    #[test]
    fn bound_free_query_produces_bf_rules() {
        let q = parse_atom("anc(a, X)").unwrap();
        let a = adorn(&ancestor(), &q, SipOptions::default()).unwrap();
        assert_eq!(a.query.pred.as_str(), "anc_bf");
        assert_eq!(a.program.rules.len(), 2);
        let printed = a.program.to_string();
        assert!(printed.contains("anc_bf(X, Y) :- par(X, Y)."), "{printed}");
        assert!(
            printed.contains("anc_bf(X, Y) :- par(X, Z), anc_bf(Z, Y)."),
            "{printed}"
        );
    }

    #[test]
    fn all_free_query_binds_recursion_sideways() {
        let q = parse_atom("anc(X, Y)").unwrap();
        let a = adorn(&ancestor(), &q, SipOptions::default()).unwrap();
        assert_eq!(a.query.pred.as_str(), "anc_ff");
        // Even under an ff query, `par(X, Z)` binds Z before the recursive
        // call, so the recursion is adorned bf (and gets its own rules).
        let printed = a.program.to_string();
        assert!(
            printed.contains("anc_ff(X, Y) :- par(X, Z), anc_bf(Z, Y)."),
            "{printed}"
        );
        assert!(
            printed.contains("anc_bf(X, Y) :- par(X, Z), anc_bf(Z, Y)."),
            "{printed}"
        );
    }

    #[test]
    fn free_bound_query_on_same_generation_creates_two_adornments() {
        // sg with a bf query: recursive call sees sg(U, V) with U bound by
        // up(X, U): stays bf. With fb query the recursion flips.
        let p = parse(
            "
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
        ",
        )
        .unwrap()
        .program;
        let q = parse_atom("sg(john, Y)").unwrap();
        let a = adorn(&p, &q, SipOptions::default()).unwrap();
        assert_eq!(a.query.pred.as_str(), "sg_bf");
        // All recursive calls are bf: exactly one adornment.
        let names: FxHashSet<&str> = a.map.keys().map(|s| s.as_str()).collect();
        assert!(names.contains("sg_bf"));
        assert_eq!(names.len(), 1);
        assert_eq!(a.program.rules.len(), 2);
    }

    #[test]
    fn reorder_moves_bound_literal_first() {
        // Textual order calls rsg2 with nothing bound; SIP reordering pulls
        // up(X, U) (X bound by the query) ahead of it.
        let p = parse(
            "
            rsg(X, Y) :- rsg2(U, V), down(V, Y), up(X, U).
            rsg2(U, V) :- e(U, V).
        ",
        )
        .unwrap()
        .program;
        let q = parse_atom("rsg(a, Y)").unwrap();
        let a = adorn(&p, &q, SipOptions { reorder: true }).unwrap();
        let r = &a.program.rules[0];
        assert_eq!(r.body[0].atom.pred.as_str(), "up");
        // And the recursive call is then bound on its first argument.
        assert!(a.map.keys().any(|s| s.as_str() == "rsg2_bf"));
    }

    #[test]
    fn no_reorder_keeps_textual_order() {
        let p = parse(
            "
            rsg(X, Y) :- rsg2(U, V), down(V, Y), up(X, U).
            rsg2(U, V) :- e(U, V).
        ",
        )
        .unwrap()
        .program;
        let q = parse_atom("rsg(a, Y)").unwrap();
        let a = adorn(&p, &q, SipOptions { reorder: false }).unwrap();
        let r = &a.program.rules[0];
        assert_eq!(r.body[0].atom.pred.as_str(), "rsg2_ff");
        // Without reordering the recursive call sees only free arguments.
        assert!(a.map.keys().any(|s| s.as_str() == "rsg2_ff"));
    }

    #[test]
    fn negative_idb_literals_are_adorned_too() {
        let p = parse(
            "
            reach(X) :- edge(s, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
        ",
        )
        .unwrap()
        .program;
        let q = parse_atom("unreach(a)").unwrap();
        let a = adorn(&p, &q, SipOptions::default()).unwrap();
        let names: FxHashSet<&str> = a.map.keys().map(|s| s.as_str()).collect();
        assert!(names.contains("unreach_b"));
        assert!(names.contains("reach_b"));
        let printed = a.program.to_string();
        assert!(printed.contains("!reach_b(X)"), "{printed}");
    }

    #[test]
    fn extensional_query_is_an_error() {
        let q = parse_atom("par(a, X)").unwrap();
        assert!(matches!(
            adorn(&ancestor(), &q, SipOptions::default()),
            Err(AdornError::ExtensionalQuery(_))
        ));
    }

    #[test]
    fn constants_in_rule_bodies_count_as_bound() {
        let p = parse(
            "
            p(X) :- q(a, X).
            q(X, Y) :- e(X, Y).
        ",
        )
        .unwrap()
        .program;
        let q = parse_atom("p(X)").unwrap();
        let a = adorn(&p, &q, SipOptions::default()).unwrap();
        // q is called with its first argument a constant: adornment bf.
        assert!(a.map.keys().any(|s| s.as_str() == "q_bf"));
    }

    #[test]
    fn intensional_inline_facts_are_adorned_as_body_less_rules() {
        let mut p = ancestor();
        p.facts = parse("par(a, b). anc(z, z).").unwrap().program.facts;
        let q = parse_atom("anc(z, X)").unwrap();
        let a = adorn(&p, &q, SipOptions::default()).unwrap();
        assert_eq!(a.program.rules.len(), 3);
        assert!(a.program.facts.is_empty());
        let printed = a.program.to_string();
        assert!(printed.contains("anc_bf(z, z)."), "{printed}");
        assert!(!printed.contains("par(a, b)"), "{printed}");
    }

    #[test]
    fn map_tracks_original_predicates() {
        let q = parse_atom("anc(a, X)").unwrap();
        let a = adorn(&ancestor(), &q, SipOptions::default()).unwrap();
        let ap = &a.map[&Symbol::intern("anc_bf")];
        assert_eq!(ap.pred, Predicate::new("anc", 2));
        assert_eq!(ap.adornment.suffix(), "bf");
    }
}
