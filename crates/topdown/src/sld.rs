//! Plain SLD resolution — Prolog's strategy, *without* tabulation: the
//! baseline OLDT is measured against (experiment E11).
//!
//! SLD resolves on the clauses OLDT compiles (`front.rs`), in Prolog's
//! order: clauses and positive literals as written, each negation or
//! built-in where `order_body` puts it (the first point its variables are
//! bound). It counts a step where OLDT does (a clause whose head unifies
//! with a call, a probed row, a test), so the two differ by tabling alone:
//! SLD resolves a repeated subgoal again at every occurrence and loops on
//! cyclic data. Both failure modes are observable rather than fatal: a step
//! budget and a depth limit bound the search, and `complete` reports
//! whether it was exhausted.
//!
//! Supports definite programs plus ground negation over extensional
//! predicates and built-ins (the same fragment as the naive evaluator).

use crate::front::{values, Clauses, Code, Goal, Tabling, TopdownError};
use crate::metrics::OldtMetrics;
use alexander_ir::{Atom, Const, Polarity, Program};
use alexander_storage::{row_atom, Database, Relation};

/// Options for the SLD engine.
#[derive(Clone, Copy, Debug)]
pub struct SldOptions {
    /// Maximum resolution steps before giving up.
    pub step_budget: u64,
    /// Maximum derivation depth (guards against infinite left recursion
    /// even inside the budget).
    pub depth_limit: usize,
}

impl Default for SldOptions {
    fn default() -> SldOptions {
        SldOptions {
            step_budget: 1_000_000,
            depth_limit: 10_000,
        }
    }
}

/// The result of an SLD search.
#[derive(Clone, Debug)]
pub struct SldResult {
    /// Distinct ground answers found (within budget).
    pub answers: Vec<Atom>,
    /// True iff the whole search space was explored: the answer set is then
    /// complete. False means the budget or depth limit was hit.
    pub complete: bool,
    pub metrics: OldtMetrics,
}

/// A clause frame: clause `clause` about to select its goal `goal`, its
/// slots from `base` in its node's slot array.
#[derive(Clone, Copy)]
struct Frame {
    clause: usize,
    goal: usize,
    base: usize,
}

/// A search node: a stack of clause frames over one slot array, each frame
/// below the top parked at the call goal the frame above it answers. The
/// frame count is the derivation depth.
#[derive(Clone, Default)]
struct Node {
    frames: Vec<Frame>,
    slots: Vec<Const>,
}

/// Pushes `node` per clause of `pattern` whose head unifies with the call
/// constants `key`, topped with that clause's frame; the first clause is
/// pushed last, so it is popped first (Prolog's clause order). Every
/// alternative but the last gets a copy of `node`; the last takes it.
fn call(code: &Code, pattern: usize, key: &[Const], node: Node, stack: &mut Vec<Node>) -> u64 {
    let push = |mut callee: Node, (clause, slots): (usize, Vec<Const>), stack: &mut Vec<Node>| {
        let base = callee.slots.len();
        callee.frames.push(Frame {
            clause,
            goal: 0,
            base,
        });
        callee.slots.extend(slots);
        stack.push(callee);
    };
    let mut steps = 0;
    let mut pending = None;
    for clause in code.patterns[pattern].2.clone().rev() {
        if let Some(slots) = code.clauses[clause].bind(key) {
            steps += 1;
            if let Some(earlier) = pending.replace((clause, slots)) {
                push(node.clone(), earlier, stack);
            }
        }
    }
    if let Some(last) = pending {
        push(node, last, stack);
    }
    steps
}

/// Answers `query` by plain SLD resolution under `opts`.
pub fn sld_query(
    program: &Program,
    edb: &Database,
    query: &Atom,
    opts: SldOptions,
) -> Result<SldResult, TopdownError> {
    let mut front = Clauses::new(program, edb)?;
    if let Some(p) = front.negated_idb {
        return Err(TopdownError::NegatedIdb(p));
    }
    let code = Code::compile(&mut front, query, Tabling::Variant, false);
    let mut metrics = OldtMetrics::default();
    let mut rows = Relation::new(query.terms.len());
    let mut complete = true;
    let mut stack = Vec::new();
    let key: Vec<Const> = query.terms.iter().filter_map(|t| t.as_const()).collect();
    metrics.resolution_steps += call(&code, 0, &key, Node::default(), &mut stack);

    while let Some(mut node) = stack.pop() {
        if metrics.resolution_steps >= opts.step_budget {
            complete = false;
            break;
        }
        let (top, depth) = (node.frames.len() - 1, node.frames.len());
        let Frame { clause, goal, base } = node.frames[top];
        let clause = &code.clauses[clause];
        let Some(goal) = clause.body.get(goal) else {
            // The frame is done: its head row answers the query or binds
            // its caller's call goal.
            let row = values(&node.slots[base..], &clause.head);
            node.frames.pop();
            node.slots.truncate(base);
            let Some(caller) = node.frames.last_mut() else {
                rows.insert_row(&row);
                continue;
            };
            let Goal::Call(_, args, _) = &code.clauses[caller.clause].body[caller.goal] else {
                unreachable!("a caller is parked at a call goal");
            };
            if args.bind(&row, &mut node.slots[caller.base..]) {
                caller.goal += 1;
                stack.push(node);
            }
            continue;
        };
        if depth >= opts.depth_limit {
            complete = false;
            continue;
        }
        let slots = &node.slots[base..];
        let passes = match goal {
            Goal::Test(builtin, [a, b], holds) => builtin.eval(slots[*a], slots[*b]) == *holds,
            Goal::Edb(pred, mask, args, Polarity::Positive) => {
                // Each row binds a copy of the node but the last, which
                // takes the node itself.
                let mut push = |mut next: Node, row: &[Const]| {
                    if args.bind(row, &mut next.slots[base..]) {
                        next.frames[top].goal += 1;
                        stack.push(next);
                    }
                };
                let key = values(slots, &args.key);
                let mut pending = None;
                for row in front.probe(*pred, *mask, &key) {
                    metrics.resolution_steps += 1;
                    if let Some(earlier) = pending.replace(row) {
                        push(node.clone(), earlier);
                    }
                }
                if let Some(last) = pending {
                    push(node, last);
                }
                continue;
            }
            Goal::Edb(pred, _, args, Polarity::Negative) => {
                !front.edb.contains_row(*pred, &values(slots, &args.key))
            }
            Goal::Call(pattern, args, Polarity::Positive) => {
                // No tabling: every occurrence resolves against the clauses.
                let key = values(slots, &args.key);
                metrics.resolution_steps += call(&code, *pattern, &key, node, &mut stack);
                continue;
            }
            Goal::Call(..) => unreachable!("a negated intensional literal is refused up front"),
            Goal::NonGround(goal) => return Err(TopdownError::NonGroundNegation(goal.clone())),
        };
        metrics.resolution_steps += 1;
        if passes {
            node.frames[top].goal += 1;
            stack.push(node);
        }
    }

    let mut answers = match front.idb.contains(&query.predicate()) {
        true => rows.iter().map(|row| row_atom(query.pred, row)).collect(),
        false => front.lookup(query),
    };
    answers.sort();
    metrics.answers = answers.len() as u64;
    Ok(SldResult {
        answers,
        complete,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_parser::{parse, parse_atom};

    fn run(src: &str, q: &str, opts: SldOptions) -> SldResult {
        let parsed = parse(src).unwrap();
        let edb = Database::from_program(&parsed.program);
        sld_query(&parsed.program, &edb, &parse_atom(q).unwrap(), opts).unwrap()
    }

    const ANCESTOR: &str = "
        par(a, b). par(b, c). par(c, d).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
    ";

    #[test]
    fn finds_all_answers_on_acyclic_data() {
        let r = run(ANCESTOR, "anc(a, X)", SldOptions::default());
        assert!(r.complete);
        let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(got, ["anc(a, b)", "anc(a, c)", "anc(a, d)"]);
    }

    #[test]
    fn cyclic_data_exhausts_the_budget() {
        let r = run(
            "
            e(a, b). e(b, a).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            ",
            "tc(a, X)",
            SldOptions {
                step_budget: 20_000,
                depth_limit: 500,
            },
        );
        assert!(!r.complete, "SLD must not terminate on a cycle");
        // It still finds the answers before looping (both a and b are
        // reachable).
        assert_eq!(r.answers.len(), 2);
    }

    #[test]
    fn depth_limit_cuts_left_recursion() {
        // Nonlinear tc(X,Y) :- tc(X,Z), tc(Z,Y) left-recurses immediately.
        let r = run(
            "
            e(a, b).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
            ",
            "tc(a, X)",
            SldOptions {
                step_budget: 50_000,
                depth_limit: 30,
            },
        );
        assert!(!r.complete);
        assert!(r.answers.iter().any(|a| a.to_string() == "tc(a, b)"));
    }

    #[test]
    fn sld_redoes_work_oldt_tables() {
        // Four diamonds in series: the call at the junction after the i-th
        // diamond is reached along 2^i paths. SLD resolves each occurrence
        // again; OLDT tables it. Compare step counts on identical inputs.
        let program = alexander_workload::transitive_closure();
        let edb = alexander_workload::diamonds("e", 4);
        let query = parse_atom("tc(n0, Y)").unwrap();
        let sld = sld_query(&program, &edb, &query, SldOptions::default()).unwrap();
        assert!(sld.complete);
        let oldt = crate::oldt::oldt_query(&program, &edb, &query).unwrap();
        let mut oldt_answers = oldt.answers.clone();
        oldt_answers.sort();
        assert_eq!(sld.answers, oldt_answers);
        assert!(
            sld.metrics.resolution_steps > oldt.metrics.resolution_steps,
            "sld {} vs oldt {}",
            sld.metrics.resolution_steps,
            oldt.metrics.resolution_steps
        );
    }

    #[test]
    fn negation_on_edb_and_builtins() {
        let r = run(
            "
            v(1). v(2). v(3). bad(2).
            good(X) :- v(X), !bad(X), lt(X, 3).
            ",
            "good(X)",
            SldOptions::default(),
        );
        assert!(r.complete);
        let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(got, ["good(1)"]);
    }

    #[test]
    fn negated_idb_is_rejected() {
        let parsed = parse("q(a). p(X) :- q(X). r(X) :- q(X), !p(X).").unwrap();
        let edb = Database::from_program(&parsed.program);
        let err = sld_query(
            &parsed.program,
            &edb,
            &parse_atom("r(X)").unwrap(),
            SldOptions::default(),
        );
        assert!(matches!(err, Err(TopdownError::NegatedIdb(_))));
    }
}
