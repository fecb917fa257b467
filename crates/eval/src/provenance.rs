//! Proofs: *why* a fact holds, read off a computed model.
//!
//! Bry's proof-theoretic reading (PODS 1989, Prop. 5.1) characterises a
//! proof of a fact `F` as `F` itself when `F` is stored, or a rule instance
//! `Hσ ← Bσ` with `Hσ = F` together with proofs of `Bσ`'s positive premises
//! and failure witnesses for its negative ones. Over a computed model that
//! is a head-seeded probe ([`exec_plan_seeded`]): the [`Prover`] binds a
//! rule's head to `F` and runs the body over the model, so each binding it
//! yields is an instance deriving `F` whose premises hold there. DRed asks
//! it whether a doomed fact still has a witness; [`prove`] builds the
//! CLI's `--proof` trees from its witnesses. Nothing here applies rules
//! round after round.

use crate::error::EvalError;
use crate::exec::{exec_plan_seeded, ExecScratch};
use crate::join::{compile_rule_seeded, ensure_rule_indexes, CompiledRule, JoinInput};
use crate::metrics::EvalMetrics;
use crate::plan::{compile_plans, RulePlan};
use alexander_ir::{Atom, Builtin, Const, FxHashMap, Literal, Polarity, Predicate, Program};
use alexander_storage::Database;
use std::fmt;
use std::ops::ControlFlow;

/// Every rule of a program compiled head-seeded: answers "which rule
/// instances derive this row over this database?".
pub struct Prover {
    rules: Vec<CompiledRule>,
    plans: Vec<RulePlan>,
    /// Rule indices by head predicate, ascending.
    by_head: FxHashMap<Predicate, Vec<usize>>,
}

impl Prover {
    /// Compiles `program`'s rules, charging the plans to `metrics`. Fails
    /// only on a rule whose negations cannot be grounded.
    pub fn new(program: &Program, metrics: &mut EvalMetrics) -> Result<Prover, EvalError> {
        let rules: Vec<CompiledRule> = program
            .rules
            .iter()
            .map(compile_rule_seeded)
            .collect::<Result<_, _>>()?;
        let mut by_head: FxHashMap<Predicate, Vec<usize>> = FxHashMap::default();
        for (i, r) in rules.iter().enumerate() {
            by_head.entry(r.head.pred).or_default().push(i);
        }
        let plans = compile_plans(&rules, metrics);
        Ok(Prover {
            rules,
            plans,
            by_head,
        })
    }

    /// Builds in `db` the indexes the probes read (every head slot is bound
    /// from the start, so their masks differ from the forward joins').
    pub fn ensure_indexes(&self, db: &mut Database) {
        for r in &self.rules {
            ensure_rule_indexes(r, db);
        }
    }

    /// Probes each rule with head `pred`, seeded with `row`, over `db`,
    /// charging the probes to `metrics`. `emit` gets the rule's index and the
    /// binding row of every satisfying instance (a firing the caller counts),
    /// and may `Break`; returns `Break` iff it did.
    pub(crate) fn witnesses(
        &self,
        pred: Predicate,
        row: &[Const],
        db: &Database,
        scratch: &mut ExecScratch,
        metrics: &mut EvalMetrics,
        emit: &mut dyn FnMut(usize, &[Const]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let input = JoinInput::naive(db);
        for &ri in self.by_head.get(&pred).into_iter().flatten() {
            let mut emit = |b: &[Const], _: &mut EvalMetrics| emit(ri, b);
            if exec_plan_seeded(&self.plans[ri], row, &input, scratch, metrics, &mut emit)
                == Some(ControlFlow::Break(()))
            {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }
}

/// A constructive proof of one fact (Bry Prop. 5.1's tree, materialised).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofTree {
    /// A stored (extensional) fact: a proof of itself.
    Fact(Atom),
    /// An instance of rule `rule`: proofs of its positive premises, its
    /// built-ins (which hold) and its negative premises' atoms (absent from
    /// the model), each in compiled body order.
    Derived {
        atom: Atom,
        rule: usize,
        children: Vec<ProofTree>,
        builtins: Vec<Literal>,
        negatives: Vec<Atom>,
    },
}

impl ProofTree {
    /// The proven atom.
    pub fn atom(&self) -> &Atom {
        match self {
            ProofTree::Fact(a) => a,
            ProofTree::Derived { atom, .. } => atom,
        }
    }

    /// Tree height: 1 for a node without children.
    pub fn height(&self) -> usize {
        match self {
            ProofTree::Fact(_) => 1,
            ProofTree::Derived { children, .. } => {
                1 + children.iter().map(|c| c.height()).max().unwrap_or(0)
            }
        }
    }

    fn render(&self, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pad = "  ".repeat(indent);
        let ProofTree::Derived {
            atom,
            rule,
            children,
            builtins,
            negatives,
        } = self
        else {
            return writeln!(f, "{pad}{}  [fact]", self.atom());
        };
        // Only a body-less rule (an inline fact of the program) has no
        // premise at all: it is printed as the fact it was written as.
        if children.is_empty() && builtins.is_empty() && negatives.is_empty() {
            return writeln!(f, "{pad}{atom}  [fact]");
        }
        writeln!(f, "{pad}{atom}  [rule {rule}]")?;
        for b in builtins {
            writeln!(f, "{pad}  {b}  [holds]")?;
        }
        for n in negatives {
            writeln!(f, "{pad}  !{n}  [fails]")?;
        }
        children.iter().try_for_each(|c| c.render(indent + 1, f))
    }
}

impl fmt::Display for ProofTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(0, f)
    }
}

/// A minimal-height proof of `fact` over `model`, the model of the program
/// `prover` was built from over `edb`: a row of `edb` is a
/// [`ProofTree::Fact`], and `None` means `fact` is not in `model`. `model`
/// must hold the prover's indexes ([`Prover::ensure_indexes`]).
///
/// The search is height-bounded and memoised: a fact is tried at height
/// `k` only once it is known to have no proof of height `k - 1`. So every
/// proof found has minimal height, each (fact, height) pair is explored at
/// most once, and only facts this proof may need are probed.
pub fn prove(prover: &Prover, model: &Database, edb: &Database, fact: &Atom) -> Option<ProofTree> {
    if !model.contains_atom(fact) {
        return None;
    }
    let mut search = Search {
        prover,
        model,
        edb,
        memo: FxHashMap::default(),
    };
    // A minimal proof repeats no fact along a path, so it is no taller
    // than the model is large.
    search.within(fact, model.total_tuples())
}

/// One [`prove`] call's state.
struct Search<'a> {
    prover: &'a Prover,
    model: &'a Database,
    edb: &'a Database,
    /// Per fact: its minimal-height proof, or the largest height within
    /// which it is known to have none.
    memo: FxHashMap<Atom, Result<ProofTree, usize>>,
}

impl Search<'_> {
    /// A minimal-height proof of `fact`, if it is `height` tall or less.
    fn within(&mut self, fact: &Atom, height: usize) -> Option<ProofTree> {
        let from = match self.memo.get(fact) {
            Some(Ok(tree)) => return (tree.height() <= height).then(|| tree.clone()),
            Some(Err(failed)) => failed + 1,
            None => 1,
        };
        for k in from..=height {
            let tree = self.at(fact, k);
            self.memo.insert(fact.clone(), tree.clone().ok_or(k));
            if tree.is_some() {
                return tree;
            }
        }
        None
    }

    /// A proof of `fact` at most `height` tall: a leaf, or the first
    /// witnessing instance whose premises have proofs below `height`.
    fn at(&mut self, fact: &Atom, height: usize) -> Option<ProofTree> {
        if self.edb.contains_atom(fact) {
            return Some(ProofTree::Fact(fact.clone()));
        }
        let mut found: Vec<(usize, Box<[Const]>)> = Vec::new();
        let _ = self.prover.witnesses(
            fact.predicate(),
            &fact.ground_args()?,
            self.model,
            &mut ExecScratch::new(),
            &mut EvalMetrics::default(),
            &mut |ri, binding| {
                found.push((ri, binding.into()));
                ControlFlow::Continue(())
            },
        );
        let prover = self.prover;
        found.into_iter().find_map(|(rule, binding)| {
            let (mut children, mut builtins, mut negatives) = (Vec::new(), Vec::new(), Vec::new());
            for lit in &prover.rules[rule].body {
                let atom = lit.atom.ground(&binding);
                if Builtin::of(lit.atom.pred).is_some() {
                    let polarity = lit.polarity;
                    builtins.push(Literal { atom, polarity });
                } else if lit.polarity == Polarity::Negative {
                    negatives.push(atom);
                } else {
                    children.push(self.within(&atom, height - 1)?);
                }
            }
            Some(ProofTree::Derived {
                atom: fact.clone(),
                rule,
                children,
                builtins,
                negatives,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stratified::eval_stratified;
    use alexander_parser::{parse, parse_atom};

    /// The model of `src`'s rules over its facts, with a prover ready on it.
    struct Proofs {
        prover: Prover,
        model: Database,
        edb: Database,
    }

    impl Proofs {
        fn of(src: &str) -> Proofs {
            let parsed = parse(src).unwrap();
            let edb = Database::from_program(&parsed.program);
            let program = Program {
                rules: parsed.program.rules,
                facts: Vec::new(),
            };
            let mut model = eval_stratified(&program, &edb).unwrap().db;
            let prover = Prover::new(&program, &mut EvalMetrics::default()).unwrap();
            prover.ensure_indexes(&mut model);
            Proofs { prover, model, edb }
        }

        fn prove(&self, atom: &str) -> Option<ProofTree> {
            prove(
                &self.prover,
                &self.model,
                &self.edb,
                &parse_atom(atom).unwrap(),
            )
        }
    }

    fn shown(atoms: &[Atom]) -> Vec<String> {
        atoms.iter().map(Atom::to_string).collect()
    }

    /// Every atom `proof` *depends negatively on* (Bry Def. 5.1), anywhere
    /// in the tree.
    fn negative_dependencies(proof: &ProofTree) -> Vec<Atom> {
        let mut out = Vec::new();
        if let ProofTree::Derived {
            children,
            negatives,
            ..
        } = proof
        {
            out.extend(children.iter().flat_map(negative_dependencies));
            out.extend(negatives.iter().cloned());
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn proof_tree_of_a_chain_derivation() {
        let p = Proofs::of(
            "
            par(a, b). par(b, c). par(c, d).
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
        ",
        );
        assert_eq!(p.model.len_of(alexander_ir::Predicate::new("anc", 2)), 6);

        let proof = p.prove("anc(a, d)").expect("anc(a,d) holds");
        assert_eq!(proof.atom(), &parse_atom("anc(a, d)").unwrap());
        // a->d goes through the recursive rule twice, then the base rule.
        assert_eq!(proof.height(), 4, "{proof}");
        let shown = proof.to_string();
        assert!(shown.contains("anc(a, d)"), "{shown}");
        assert!(shown.contains("[fact]"), "{shown}");
    }

    #[test]
    fn edb_facts_prove_themselves() {
        let p = Proofs::of("par(a, b). anc(X, Y) :- par(X, Y).");
        let fact = parse_atom("par(a, b)").unwrap();
        assert_eq!(p.prove("par(a, b)"), Some(ProofTree::Fact(fact)));
    }

    #[test]
    fn non_facts_have_no_proof() {
        let p = Proofs::of("par(a, b). anc(X, Y) :- par(X, Y).");
        assert!(p.prove("anc(b, a)").is_none());
    }

    #[test]
    fn negative_dependencies_are_reported() {
        let p = Proofs::of(
            "
            node(a). node(b). bad(b).
            blocked(X) :- bad(X).
            good(X) :- node(X), !blocked(X).
        ",
        );
        let proof = p.prove("good(a)").expect("good(a) holds");
        assert_eq!(shown(&negative_dependencies(&proof)), ["blocked(a)"]);
        assert!(proof.to_string().contains("!blocked(a)  [fails]"));
    }

    #[test]
    fn a_proof_node_grounds_the_whole_body_instance() {
        // Positive premises, built-ins and negative premises apart, each in
        // body order: the ground instance of the firing.
        let p = Proofs::of(
            "
            e(a, b). e(b, b). e(c, d). blocked(c).
            q(X) :- e(X, Y), neq(X, Y), !blocked(X).
        ",
        );
        let Some(ProofTree::Derived {
            rule,
            children,
            builtins,
            negatives,
            ..
        }) = p.prove("q(a)")
        else {
            panic!("q(a) holds by a rule");
        };
        assert_eq!(rule, 0);
        assert_eq!(children, [ProofTree::Fact(parse_atom("e(a, b)").unwrap())]);
        let builtins: Vec<String> = builtins.iter().map(Literal::to_string).collect();
        assert_eq!(builtins, ["neq(a, b)"]);
        assert_eq!(shown(&negatives), ["blocked(a)"]);
        // b fails the builtin, c the negation: neither has a proof.
        assert!(p.prove("q(b)").is_none());
        assert!(p.prove("q(c)").is_none());
    }

    #[test]
    fn a_proof_node_names_the_rule_index() {
        let p = Proofs::of(
            "
            par(a, b). par(b, c).
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
        ",
        );
        let rule_and_premises = |atom: &str| match p.prove(atom) {
            Some(ProofTree::Derived { rule, children, .. }) => (rule, children.len()),
            other => panic!("{atom} is derived: {other:?}"),
        };
        assert_eq!(rule_and_premises("anc(a, b)"), (0, 1));
        assert_eq!(rule_and_premises("anc(a, c)"), (1, 2));
    }

    #[test]
    fn every_fact_of_a_cyclic_model_has_a_well_founded_proof() {
        let p = Proofs::of(
            "
            e(a, b). e(b, c). e(c, a). e(c, d).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ",
        );
        let tc = alexander_ir::Predicate::new("tc", 2);
        assert_eq!(p.model.len_of(tc), 12);
        // Every derived fact has a proof, and the proofs are well-founded
        // even on the cyclic graph: the longest shortest path is a→d
        // (three edges), so no proof is taller than 4.
        for a in p.model.atoms_of(tc) {
            let proof = prove(&p.prover, &p.model, &p.edb, &a)
                .unwrap_or_else(|| panic!("no proof for {a}"));
            assert!(proof.height() <= 4, "{proof}");
        }
    }

    #[test]
    fn proofs_in_higher_strata_reach_into_lower_ones() {
        let p = Proofs::of(
            "
            edge(s, a). edge(a, b). node(s). node(a). node(b). node(z).
            source(s).
            reach(X) :- source(S), edge(S, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
        ",
        );
        let proof = p.prove("unreach(z)").expect("z is unreachable");
        assert_eq!(shown(&negative_dependencies(&proof)), ["reach(z)"]);
        assert!(p.prove("unreach(a)").is_none());
    }
}
