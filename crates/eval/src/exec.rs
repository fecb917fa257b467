//! The blocked executor — the one join kernel every evaluator runs: it
//! drives a compiled [`RulePlan`] over the arena in fixed-size blocks of
//! binding rows.
//!
//! ## Shape
//!
//! A *binding block* is a row-major buffer of up to [`BLOCK_ROWS`] candidate
//! variable assignments, each row `nvars` wide (unbound slots carry a dummy
//! value the plan never reads). Execution starts from a single seed row and
//! pushes blocks through the plan's operators: an
//! [`Access`](crate::plan::PlanOp::Access) extends every input row with each
//! matching arena row (indexed probe, delta-narrowed posting list, or
//! contiguous scan), [`Builtin`](crate::plan::PlanOp::Builtin) and
//! [`Negative`](crate::plan::PlanOp::Negative) filter rows in place, and the
//! sink receives fully bound rows.
//!
//! When an operator's output block fills, the block is flushed through the
//! remaining operators *before* the operator resumes — downstream work for
//! earlier rows always completes before later rows are generated. Emissions
//! therefore occur in exactly the depth-first order of a nested-loop join
//! over the body literals with rows in id order, so the order rows are
//! staged and folded into the total, and hence delta spans and row ids, are
//! a function of the input alone, and the boxed-tuple reference engine in
//! `alexander-bench` reproduces it counter for counter.
//!
//! ## Entry points
//!
//! * [`exec_plan`] — the fixpoint sink: projects each bound row onto the
//!   head, hashes it **once** (the caller stages the digest beside the row,
//!   or reuses it for a duplicate check via the storage layer's `_hashed`
//!   entry points), counts the firing, and checks the governor's deadline
//!   once per block. Duplicates are counted where they are classified: here
//!   when `emit` classifies the row itself, at the fixpoint round's fold
//!   when it only stages it.
//! * [`exec_plan_bindings`] — the bindings sink: hands the caller the bound
//!   row itself, for evaluators that need the ground body instance and not
//!   just the head (conditional statements). The caller counts firings
//!   and consults the governor, and may `Break` at any row.
//! * [`exec_plan_seeded`] — the bindings sink started from a *pre-bound*
//!   seed row: the head slots are filled from a fact, so a plan lowered from
//!   [`compile_rule_seeded`](crate::join::compile_rule_seeded) answers
//!   "which rule instances derive this fact?" with indexed point lookups.
//!
//! ## Governance
//!
//! Budget checks are amortised per block, not per tuple: the governor's
//! deadline look happens once per block reaching [`exec_plan`]'s sink. Fact
//! claims stay with the caller (the fixpoint claims a round's facts in
//! bulk at its fold, or per emission once the budget could run out that
//! round), so a tripped fact budget admits exactly `max` new facts.
//!
//! All buffers live in an [`ExecScratch`] the caller keeps per worker; the
//! steady state allocates nothing.

use crate::join::{Emitted, JoinInput, Pat};
use crate::metrics::EvalMetrics;
use crate::plan::{PlanOp, RulePlan};
use alexander_ir::{hash_row, Const, RowHasher};
use alexander_storage::{extend_row, Database};
use std::ops::ControlFlow;

/// Rows per binding block. 1024 keeps a block of typical width (2–4 slots
/// × 16-byte `Const`) within L2 while amortising per-block overhead
/// (operator dispatch, governance looks) over enough rows to vanish.
pub const BLOCK_ROWS: usize = 1024;

/// A row-major block of binding rows, `stride` slots wide.
#[derive(Default)]
struct Block {
    stride: usize,
    len: usize,
    data: Vec<Const>,
}

impl Block {
    fn reset(&mut self, stride: usize) {
        self.stride = stride;
        self.len = 0;
        self.data.clear();
    }

    #[inline]
    fn row(&self, i: usize) -> &[Const] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.len >= BLOCK_ROWS
    }

    #[inline]
    fn clear_rows(&mut self) {
        self.len = 0;
        self.data.clear();
    }

    /// The executor's seed: one row of all-dummy slots (the first operator
    /// has nothing bound, or binds only constants the plan checks itself).
    fn push_seed_row(&mut self) {
        self.data.resize(self.stride, Const::int(0));
        self.len = 1;
    }

    /// A seed row with the slots of `head`'s variables pre-bound from
    /// `head_row`. Returns `false` — leaving the block unusable until the
    /// next reset — when the fact cannot match the head pattern: a constant
    /// differs, or a repeated variable would need two values.
    fn push_bound_seed_row(&mut self, head: &[Pat], head_row: &[Const]) -> bool {
        debug_assert_eq!(head.len(), head_row.len());
        self.push_seed_row();
        for (&p, &v) in head.iter().zip(head_row) {
            if let Pat::Var(s) = p {
                self.data[s as usize] = v;
            }
        }
        // Every head position must now read back its fact column: a
        // mismatched constant fails directly, a conflicting repeated
        // variable because the later write won.
        head.iter()
            .zip(head_row)
            .all(|(&p, &v)| resolve(p, &self.data) == v)
    }

    /// Appends `base` extended with the candidate row's `load` columns.
    #[inline]
    fn push_extended(&mut self, base: &[Const], cand: &[Const], load: &[(u32, u32)]) {
        let start = self.data.len();
        extend_row(&mut self.data, base);
        for &(col, slot) in load {
            self.data[start + slot as usize] = cand[col as usize];
        }
        self.len += 1;
    }
}

/// Reusable per-worker buffers for the blocked executor: the seed block,
/// one output block per plan operator, and the head-row scratch. One
/// `ExecScratch` serves a whole fixpoint run, and every entry point resets
/// what it uses — a run that stopped early leaves nothing behind.
#[derive(Default)]
pub struct ExecScratch {
    seed: Block,
    bufs: Vec<Block>,
    head: Vec<Const>,
}

impl ExecScratch {
    /// Fresh scratch buffers.
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }
}

/// Resolves a compiled term against a (full-width) binding row.
#[inline]
fn resolve(p: Pat, row: &[Const]) -> Const {
    match p {
        Pat::Const(c) => c,
        Pat::Var(v) => row[v as usize],
    }
}

/// What happens to a block of fully bound rows once it has passed every
/// operator.
type Sink<'a> = dyn FnMut(&Block, &mut EvalMetrics) -> ControlFlow<()> + 'a;

/// The callback the bindings entry points hand each satisfying assignment
/// to: the full binding row (slot `v` holds variable `v`'s constant; ground
/// any compiled atom against it with [`AtomPat::ground`]). Returning
/// [`ControlFlow::Break`] stops the run.
///
/// [`AtomPat::ground`]: crate::join::AtomPat::ground
pub type EmitBindings<'a> = dyn FnMut(&[Const], &mut EvalMetrics) -> ControlFlow<()> + 'a;

/// Executes `plan` over `input` blockwise, calling `emit` with each
/// instantiated head row and its [`hash_row`] digest (computed once here so
/// the sink can stage it, or reuse it for both the membership check and the
/// insert). The row lives in scratch and is only valid for the duration of
/// the call.
///
/// `emit` reports what became of the row: [`Emitted::New`] or
/// [`Emitted::Duplicate`] when it classified the row, [`Emitted::Staged`]
/// when it recorded the row for its caller to classify later (a fixpoint
/// round's fold counts those new or duplicate), or [`Emitted::Refused`] by
/// the fact budget. Every emission but a refused one counts a firing here,
/// and a classified one its new or duplicate fact. Returns
/// [`ControlFlow::Break`] when the run stopped early (fact refusal or
/// deadline).
pub fn exec_plan(
    plan: &RulePlan,
    input: &JoinInput<'_>,
    scratch: &mut ExecScratch,
    metrics: &mut EvalMetrics,
    emit: &mut dyn FnMut(u64, &[Const]) -> Emitted,
) -> ControlFlow<()> {
    let ExecScratch { seed, bufs, head } = scratch;
    seed.reset(plan.nvars);
    seed.push_seed_row();
    run(plan, input, seed, bufs, metrics, &mut |block, metrics| {
        // The per-block (amortised) deadline look: nothing is claimed per
        // firing, so a governed-but-unhit run costs the same as an
        // ungoverned one (experiment F5).
        if let Some(g) = input.governor {
            g.check_interrupt()?;
        }
        for i in 0..block.len {
            let row = block.row(i);
            head.clear();
            for &p in &plan.head {
                head.push(resolve(p, row));
            }
            let h = hash_row(head);
            match emit(h, head) {
                Emitted::New => {
                    metrics.firings += 1;
                    metrics.new_facts += 1;
                }
                Emitted::Duplicate => {
                    metrics.firings += 1;
                    metrics.duplicate_facts += 1;
                }
                Emitted::Staged => metrics.firings += 1,
                Emitted::Refused => return ControlFlow::Break(()),
            }
        }
        ControlFlow::Continue(())
    })
}

/// Like [`exec_plan`], but hands the bound row itself to `emit` on every
/// satisfying assignment, so callers can reconstruct body instances (the
/// conditional fixpoint needs the ground premises, not just the head).
/// `emit` is responsible for the firing/fact counters and for consulting
/// the governor. Returns [`ControlFlow::Break`] iff `emit` did.
pub fn exec_plan_bindings(
    plan: &RulePlan,
    input: &JoinInput<'_>,
    scratch: &mut ExecScratch,
    metrics: &mut EvalMetrics,
    emit: &mut EmitBindings<'_>,
) -> ControlFlow<()> {
    scratch.seed.reset(plan.nvars);
    scratch.seed.push_seed_row();
    run_bindings(plan, input, scratch, metrics, emit)
}

/// A head-seeded derivability probe: pre-binds the head slots from
/// `head_row` and runs the body over `input`, calling `emit` with the bound
/// row of each satisfying assignment (which may `Break` at the first
/// witness). This is the [`Prover`](crate::provenance::Prover)'s question —
/// "which instances of this rule derive *this specific* fact?" — asked as
/// indexed point lookups instead of a full rule join.
///
/// `plan` must be lowered from a [`compile_rule_seeded`] compilation: only
/// there do the operators treat the head slots as bound (probe keys) rather
/// than as variables to load.
///
/// Returns `None` (without joining) when `head_row` cannot match the head
/// pattern (constant mismatch or conflicting repeated variables); otherwise
/// the run's flow — `Break` iff `emit` broke. Candidates are enumerated a
/// block at a time, so a `Break` at the first witness may already have
/// charged `probes`/`tuples_considered` for later candidates of the same
/// block.
///
/// [`compile_rule_seeded`]: crate::join::compile_rule_seeded
pub fn exec_plan_seeded(
    plan: &RulePlan,
    head_row: &[Const],
    input: &JoinInput<'_>,
    scratch: &mut ExecScratch,
    metrics: &mut EvalMetrics,
    emit: &mut EmitBindings<'_>,
) -> Option<ControlFlow<()>> {
    scratch.seed.reset(plan.nvars);
    if !scratch.seed.push_bound_seed_row(&plan.head, head_row) {
        return None;
    }
    Some(run_bindings(plan, input, scratch, metrics, emit))
}

/// Runs `plan` from the seed row already in `scratch`, row-at-a-time into
/// `emit`.
fn run_bindings(
    plan: &RulePlan,
    input: &JoinInput<'_>,
    scratch: &mut ExecScratch,
    metrics: &mut EvalMetrics,
    emit: &mut EmitBindings<'_>,
) -> ControlFlow<()> {
    let ExecScratch { seed, bufs, .. } = scratch;
    run(plan, input, seed, bufs, metrics, &mut |block, metrics| {
        (0..block.len).try_for_each(|i| emit(block.row(i), metrics))
    })
}

/// Pushes the seed block through the whole plan into `sink`.
fn run(
    plan: &RulePlan,
    input: &JoinInput<'_>,
    seed: &Block,
    bufs: &mut Vec<Block>,
    metrics: &mut EvalMetrics,
    sink: &mut Sink<'_>,
) -> ControlFlow<()> {
    let neg_db = input.negatives.unwrap_or(input.total);
    if bufs.len() < plan.ops.len() {
        bufs.resize_with(plan.ops.len(), Block::default);
    }
    run_ops(
        plan,
        &plan.ops,
        &mut bufs[..plan.ops.len()],
        seed,
        input,
        neg_db,
        metrics,
        sink,
    )
}

/// Pushes `block` through the remaining operators. `bufs[0]` is this
/// stage's output block; flushing it recursively *before* generating more
/// rows is what keeps emissions in depth-first order.
#[allow(clippy::too_many_arguments)]
fn run_ops(
    plan: &RulePlan,
    ops: &[PlanOp],
    bufs: &mut [Block],
    block: &Block,
    input: &JoinInput<'_>,
    neg_db: &Database,
    metrics: &mut EvalMetrics,
    sink: &mut Sink<'_>,
) -> ControlFlow<()> {
    metrics.exec.blocks_executed += 1;
    metrics.exec.block_rows += block.len as u64;

    // Past the last operator every row is a full body match.
    let Some((op, rest_ops)) = ops.split_first() else {
        return sink(block, metrics);
    };

    let (out, rest_bufs) = bufs.split_first_mut().expect("one buffer per operator");
    out.reset(plan.nvars);

    // Flush the output block through the remaining operators, then make it
    // reusable. Invoked whenever it fills and once for the remainder.
    macro_rules! flush_full {
        () => {
            if out.is_full() {
                run_ops(plan, rest_ops, rest_bufs, out, input, neg_db, metrics, sink)?;
                out.clear_rows();
            }
        };
    }

    match op {
        PlanOp::Builtin { b, lhs, rhs, want } => {
            for i in 0..block.len {
                let row = block.row(i);
                metrics.probes += 1;
                if b.eval(resolve(*lhs, row), resolve(*rhs, row)) == *want {
                    out.push_extended(row, &[], &[]);
                    flush_full!();
                }
            }
        }
        PlanOp::Negative { pred, args } => {
            let rel = neg_db.relation(*pred);
            for i in 0..block.len {
                let row = block.row(i);
                let present = rel.is_some_and(|r| r.contains_with(|k| resolve(args[k], row)));
                metrics.probes += 1;
                if !present {
                    out.push_extended(row, &[], &[]);
                    flush_full!();
                }
            }
        }
        PlanOp::Access {
            lit,
            pred,
            mask,
            key,
            load,
            eqs,
        } => {
            // Resolve the (up to two) sources this access reads and the id
            // range the delta (if this is the delta position) restricts
            // each to — once per block. An unresolved access matches nothing
            // and charges no probe; a second source appears only under
            // counting-update side resolutions (total ∪ removed).
            let sources = crate::join::resolve_access(input, *lit, *pred);
            for (relation, range) in sources.into_iter().flatten() {
                let (lo, hi) = range.unwrap_or((0, relation.len() as u32));
                let eq_cols = |cand: &[Const]| {
                    eqs.iter()
                        .all(|&(c, c0)| cand[c as usize] == cand[c0 as usize])
                };

                if mask.is_empty() {
                    // Contiguous arena scan of the (possibly delta-restricted)
                    // id range — one slice of the pool, walked in stride-sized
                    // steps. `tuples_considered` charges the whole enumeration,
                    // which is what the index ablation (E10) measures.
                    // (Propositional relations have stride 0 and at most one
                    // row.)
                    let a = relation.arity();
                    for i in 0..block.len {
                        let row = block.row(i);
                        metrics.probes += 1;
                        metrics.tuples_considered += u64::from(hi - lo);
                        if a == 0 {
                            for _ in lo..hi {
                                out.push_extended(row, &[], load);
                                flush_full!();
                            }
                        } else {
                            let window = &relation.pool()[lo as usize * a..hi as usize * a];
                            for cand in window.chunks_exact(a) {
                                if eq_cols(cand) {
                                    out.push_extended(row, cand, load);
                                    flush_full!();
                                }
                            }
                        }
                    }
                } else if let Some(ip) = relation.index_probe(*mask) {
                    // Indexed probes: the index is resolved once for the whole
                    // block; each row hashes its bound columns in place — the
                    // same digest the index maintains (ascending column order).
                    for i in 0..block.len {
                        let row = block.row(i);
                        metrics.probes += 1;
                        let mut hsh = RowHasher::new();
                        for &(_, p) in key {
                            hsh.push(&resolve(p, row));
                        }
                        let ids = ip.probe_in(hsh.finish(), range, |rep| {
                            key.iter().all(|&(c, p)| rep[c as usize] == resolve(p, row))
                        });
                        // Group membership guarantees the key columns; only
                        // repeated-variable equalities remain.
                        for &id in ids {
                            metrics.tuples_considered += 1;
                            let cand = relation.row(id);
                            if eq_cols(cand) {
                                out.push_extended(row, cand, load);
                                flush_full!();
                            }
                        }
                    }
                } else {
                    // No index: filtered scan over the range per input row,
                    // charged like the unmasked scan above.
                    for i in 0..block.len {
                        let row = block.row(i);
                        metrics.probes += 1;
                        metrics.tuples_considered += u64::from(hi - lo);
                        for id in lo..hi {
                            let cand = relation.row(id);
                            if key
                                .iter()
                                .all(|&(c, p)| cand[c as usize] == resolve(p, row))
                                && eq_cols(cand)
                            {
                                out.push_extended(row, cand, load);
                                flush_full!();
                            }
                        }
                    }
                }
            }
        }
    }

    if out.len > 0 {
        run_ops(plan, rest_ops, rest_bufs, out, input, neg_db, metrics, sink)?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{compile_rule, compile_rule_seeded, CompiledRule, DeltaSource};
    use crate::plan::compile_plan;
    use alexander_ir::{atom, match_atom, Atom, Builtin, Literal, Predicate, Rule, Subst, Term};
    use alexander_storage::{row_atom, DeltaSpans, Mask};

    fn syms(names: &[&str]) -> Vec<Const> {
        names.iter().map(|n| Const::sym(n)).collect()
    }

    fn edb() -> Database {
        let mut db = Database::new();
        let e = Predicate::new("e", 2);
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")] {
            db.insert_row(e, &syms(&[a, b]));
        }
        db
    }

    fn rule(head: Atom, body: Vec<Literal>) -> CompiledRule {
        compile_rule(&Rule::new(head, body)).unwrap()
    }

    fn var(name: &str) -> Term {
        Term::var(name)
    }

    /// p(X, Y) :- e(X, Z), e(Z, Y).
    fn composition_rule() -> CompiledRule {
        rule(
            atom("p", [var("X"), var("Y")]),
            vec![
                Literal::pos(atom("e", [var("X"), var("Z")])),
                Literal::pos(atom("e", [var("Z"), var("Y")])),
            ],
        )
    }

    /// q(X) :- e(X, Y), neq(X, Y), !blocked(X).
    fn filtered_rule() -> CompiledRule {
        rule(
            atom("q", [var("X")]),
            vec![
                Literal::pos(atom("e", [var("X"), var("Y")])),
                Literal::pos(atom("neq", [var("X"), var("Y")])),
                Literal::neg(atom("blocked", [var("X")])),
            ],
        )
    }

    /// The stored rows literal `i` ranges over, in id order: the delta's
    /// at the delta position, the whole relation anywhere else.
    fn rows_of<'a>(input: &JoinInput<'a>, i: usize, pred: Predicate) -> Vec<&'a [Const]> {
        let (db, span) = match input.delta {
            Some((d, DeltaSource::Db(db))) if d == i => (db, None),
            Some((d, DeltaSource::Spans(sp))) if d == i => {
                (input.total, Some(sp.get(pred).unwrap_or((0, 0))))
            }
            _ => (input.total, None),
        };
        let Some(rel) = db.relation(pred) else {
            return Vec::new();
        };
        let (lo, hi) = span.unwrap_or((0, rel.len() as u32));
        rel.rows_in(lo, hi).collect()
    }

    /// The obviously-correct reference: nested loops over the (ordered)
    /// source literals, stored rows in id order, one substitution per
    /// match. Returns every satisfying substitution in depth-first order.
    fn brute_force(rule: &CompiledRule, input: &JoinInput<'_>) -> Vec<Subst> {
        fn go(r: &Rule, input: &JoinInput<'_>, i: usize, s: &Subst, out: &mut Vec<Subst>) {
            let Some(lit) = r.body.get(i) else {
                return out.push(s.clone());
            };
            let inst = s.apply_atom(&lit.atom);
            if let Some(b) = Builtin::of(inst.predicate()) {
                let (Term::Const(x), Term::Const(y)) = (inst.terms[0], inst.terms[1]) else {
                    panic!("builtin reached with unbound arguments");
                };
                if b.eval(x, y) == lit.is_positive() {
                    go(r, input, i + 1, s, out);
                }
            } else if lit.is_negative() {
                if !input.negatives.unwrap_or(input.total).contains_atom(&inst) {
                    go(r, input, i + 1, s, out);
                }
            } else {
                for row in rows_of(input, i, inst.predicate()) {
                    let mut s2 = s.clone();
                    if match_atom(&inst, &row_atom(inst.pred, row), &mut s2) {
                        go(r, input, i + 1, &s2, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        go(&rule.source, input, 0, &Subst::new(), &mut out);
        out
    }

    /// Runs the executor over `input` and asserts its emitted rows *and*
    /// their order against the brute-force reference, and its logical
    /// counters against the pinned `(probes, tuples_considered, firings)`.
    fn assert_matches_reference(
        rule: &CompiledRule,
        input: &JoinInput<'_>,
        pinned: (u64, u64, u64),
    ) -> Vec<Vec<Const>> {
        let want: Vec<Vec<Const>> = brute_force(rule, input)
            .iter()
            .map(|s| {
                s.apply_atom(&rule.source.head)
                    .ground_args()
                    .expect("ground head")
            })
            .collect();
        let plan = compile_plan(rule);
        let mut m = EvalMetrics::default();
        let mut out = Vec::new();
        let flow = exec_plan(
            &plan,
            input,
            &mut ExecScratch::new(),
            &mut m,
            &mut |h, row| {
                assert_eq!(h, hash_row(row), "sink digest must be the row hash");
                out.push(row.to_vec());
                Emitted::New
            },
        );
        assert!(flow.is_continue());
        assert_eq!(out, want, "emitted rows and their order");
        assert_eq!((m.probes, m.tuples_considered, m.firings), pinned);
        assert_eq!(m.new_facts, m.firings);
        assert!(m.exec.blocks_executed > 0, "executor must count blocks");
        out
    }

    #[test]
    fn naive_composition() {
        let db = edb();
        // Unindexed: the second literal is a filtered scan per binding, so
        // every probe charges the whole relation (4 + 4 × 4).
        let out = assert_matches_reference(&composition_rule(), &JoinInput::naive(&db), (5, 20, 2));
        assert_eq!(out, [syms(&["a", "c"]), syms(&["b", "d"])]);
    }

    #[test]
    fn indexes_and_delta_spans() {
        let e = Predicate::new("e", 2);
        let rule = composition_rule();
        let mut db = edb();
        db.ensure_index(e, Mask::of_columns(&[0]));
        let mut fresh = Database::new();
        fresh.insert_row(e, &[Const::sym("d"), Const::sym("q")]);
        db.merge(&fresh);
        let spans = DeltaSpans::after_merge(&db, &fresh);
        for (delta_pos, pinned, want) in [
            // d->q joined with q->? : nothing.
            (0, (2, 1, 0), vec![]),
            // ?->d joined with the delta d->q.
            (1, (6, 7, 2), vec![syms(&["c", "q"]), syms(&["a", "q"])]),
        ] {
            let input = JoinInput {
                delta: Some((delta_pos, DeltaSource::Spans(&spans))),
                ..JoinInput::naive(&db)
            };
            assert_eq!(assert_matches_reference(&rule, &input, pinned), want);
        }
    }

    #[test]
    fn delta_database_restricts_one_literal() {
        let db = edb();
        let mut delta = Database::new();
        delta.insert_row(Predicate::new("e", 2), &[Const::sym("b"), Const::sym("c")]);
        let input = JoinInput {
            delta: Some((0, DeltaSource::Db(&delta))),
            ..JoinInput::naive(&db)
        };
        let out = assert_matches_reference(&composition_rule(), &input, (2, 5, 1));
        assert_eq!(out, [syms(&["b", "d"])]);
    }

    #[test]
    fn constants_in_the_body_filter() {
        // p(Y) :- e(a, Y).
        let r = rule(
            atom("p", [var("Y")]),
            vec![Literal::pos(atom("e", [Term::sym("a"), var("Y")]))],
        );
        let db = edb();
        let out = assert_matches_reference(&r, &JoinInput::naive(&db), (1, 4, 2));
        assert_eq!(out, [syms(&["b"]), syms(&["d"])]);
    }

    #[test]
    fn negation_builtin_and_repeated_variables() {
        let mut db = edb();
        db.insert_row(Predicate::new("e", 2), &[Const::sym("z"), Const::sym("z")]);
        db.insert_row(Predicate::new("blocked", 1), &[Const::sym("a")]);
        // a is blocked, z->z fails neq: b and c survive.
        let out = assert_matches_reference(&filtered_rule(), &JoinInput::naive(&db), (10, 5, 2));
        assert_eq!(out, [syms(&["b"]), syms(&["c"])]);

        // loop(X) :- e(X, X): repeated free variable inside one literal.
        let r = rule(
            atom("loop", [var("X")]),
            vec![Literal::pos(atom("e", [var("X"), var("X")]))],
        );
        let out = assert_matches_reference(&r, &JoinInput::naive(&db), (1, 5, 1));
        assert_eq!(out, [syms(&["z"])]);
    }

    #[test]
    fn missing_relation_matches_nothing_and_counts_nothing() {
        let r = rule(
            atom("p", [var("X")]),
            vec![Literal::pos(atom("ghost", [var("X")]))],
        );
        let db = edb();
        let out = assert_matches_reference(&r, &JoinInput::naive(&db), (0, 0, 0));
        assert!(out.is_empty());
    }

    #[test]
    fn blocks_larger_than_block_rows_flush_in_order() {
        // A cross product wide enough to overflow BLOCK_ROWS several times:
        // emission order must still be depth-first, row for row.
        let d = Predicate::new("d", 1);
        let mut db = Database::new();
        for i in 0..70 {
            db.insert_row(d, &[Const::int(i)]);
        }
        // cross(X, Y) :- d(X), d(Y).   70 * 70 = 4900 > 4 * BLOCK_ROWS.
        let r = rule(
            atom("cross", [var("X"), var("Y")]),
            vec![
                Literal::pos(atom("d", [var("X")])),
                Literal::pos(atom("d", [var("Y")])),
            ],
        );
        let out = assert_matches_reference(&r, &JoinInput::naive(&db), (71, 4970, 4900));
        assert_eq!(out.len(), 4900);
    }

    #[test]
    fn refused_emission_stops_and_counts_nothing() {
        let plan = compile_plan(&composition_rule());
        let db = edb();
        let mut m = EvalMetrics::default();
        let mut s = ExecScratch::new();
        let mut calls = 0;
        let flow = exec_plan(
            &plan,
            &JoinInput::naive(&db),
            &mut s,
            &mut m,
            &mut |_, _| {
                calls += 1;
                if calls == 1 {
                    Emitted::New
                } else {
                    Emitted::Refused
                }
            },
        );
        assert!(flow.is_break());
        assert_eq!(calls, 2, "executor must stop right at the refusal");
        assert_eq!(m.firings, 1, "the refused emission counts no firing");
        assert_eq!((m.new_facts, m.duplicate_facts), (1, 0));
    }

    #[test]
    fn propositional_rules_execute() {
        // ok() :- d(X): an arity-0 head over a non-empty body.
        let d = Predicate::new("d", 1);
        let mut db = Database::new();
        db.insert_row(d, &[Const::int(1)]);
        let r = rule(atom("ok", []), vec![Literal::pos(atom("d", [var("X")]))]);
        let out = assert_matches_reference(&r, &JoinInput::naive(&db), (1, 1, 1));
        assert_eq!(out, vec![Vec::<Const>::new()]);
    }

    #[test]
    fn scratch_is_reused_across_rules_of_different_widths() {
        let wide = compile_plan(&composition_rule());
        let narrow = compile_plan(&rule(
            atom("q", [var("X")]),
            vec![Literal::pos(atom("e", [var("X"), var("Y")]))],
        ));
        let db = edb();
        let mut scratch = ExecScratch::new();
        let mut m = EvalMetrics::default();
        for _ in 0..3 {
            for (plan, want) in [(&wide, 2), (&narrow, 4)] {
                let mut n = 0;
                let flow = exec_plan(
                    plan,
                    &JoinInput::naive(&db),
                    &mut scratch,
                    &mut m,
                    &mut |_, _| {
                        n += 1;
                        Emitted::New
                    },
                );
                assert!(flow.is_continue());
                assert_eq!(n, want);
            }
        }
    }

    /// Grounds every body literal of `rule` under each bound row the
    /// bindings sink hands out.
    fn body_instances(rule: &CompiledRule, input: &JoinInput<'_>) -> Vec<Vec<Atom>> {
        let plan = compile_plan(rule);
        let mut m = EvalMetrics::default();
        let mut out = Vec::new();
        let flow = exec_plan_bindings(
            &plan,
            input,
            &mut ExecScratch::new(),
            &mut m,
            &mut |row, _| {
                out.push(rule.body.iter().map(|l| l.atom.ground(row)).collect());
                ControlFlow::Continue(())
            },
        );
        assert!(flow.is_continue());
        assert_eq!(m.firings, 0, "the bindings sink leaves counting to emit");
        out
    }

    #[test]
    fn bindings_sink_yields_the_ground_body_instances() {
        // A negative literal and a builtin: the sink must hand out exactly
        // the ground premises the conditional fixpoint records, in body
        // order.
        let r = filtered_rule();
        let mut db = edb();
        db.insert_row(Predicate::new("e", 2), &[Const::sym("z"), Const::sym("z")]);
        db.insert_row(Predicate::new("blocked", 1), &[Const::sym("a")]);
        let input = JoinInput::naive(&db);
        let want: Vec<Vec<Atom>> = brute_force(&r, &input)
            .iter()
            .map(|s| {
                r.source
                    .body
                    .iter()
                    .map(|l| s.apply_atom(&l.atom))
                    .collect()
            })
            .collect();
        let got = body_instances(&r, &input);
        assert_eq!(got, want);
        let shown: Vec<String> = got[0].iter().map(Atom::to_string).collect();
        assert_eq!(shown, ["e(b, c)", "neq(b, c)", "blocked(b)"]);
    }

    /// tc(X, Y) :- e(X, Z), tc(Z, Y), compiled head-seeded, over a database
    /// where tc(a, d) has two derivations (via b and via c).
    fn seeded_fixture() -> (CompiledRule, RulePlan, Database) {
        let seeded = compile_rule_seeded(&Rule::new(
            atom("tc", [var("X"), var("Y")]),
            vec![
                Literal::pos(atom("e", [var("X"), var("Z")])),
                Literal::pos(atom("tc", [var("Z"), var("Y")])),
            ],
        ))
        .unwrap();
        let plan = compile_plan(&seeded);
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("a", "c"), ("x", "y")] {
            db.insert_row(Predicate::new("e", 2), &syms(&[a, b]));
        }
        for (a, b) in [("b", "d"), ("c", "d"), ("y", "w")] {
            db.insert_row(Predicate::new("tc", 2), &syms(&[a, b]));
        }
        crate::join::ensure_rule_indexes(&seeded, &mut db);
        (seeded, plan, db)
    }

    #[test]
    fn seeded_probe_that_cannot_match_the_head_performs_no_join() {
        let db = edb();
        // p(X, k) :- e(X, Y): the fact's second column is not `k`.
        let constant_head = compile_plan(
            &compile_rule_seeded(&Rule::new(
                atom("p", [var("X"), Term::sym("k")]),
                vec![Literal::pos(atom("e", [var("X"), var("Y")]))],
            ))
            .unwrap(),
        );
        // same(X, X) :- e(X, Y): the fact's columns differ.
        let repeated_head = compile_plan(
            &compile_rule_seeded(&Rule::new(
                atom("same", [var("X"), var("X")]),
                vec![Literal::pos(atom("e", [var("X"), var("Y")]))],
            ))
            .unwrap(),
        );
        let mut scratch = ExecScratch::new();
        let mut m = EvalMetrics::default();
        for plan in [&constant_head, &repeated_head] {
            let flow = exec_plan_seeded(
                plan,
                &syms(&["a", "b"]),
                &JoinInput::naive(&db),
                &mut scratch,
                &mut m,
                &mut |_, _| panic!("no assignment can exist"),
            );
            assert!(flow.is_none());
        }
        assert_eq!((m.probes, m.tuples_considered), (0, 0));
        assert_eq!(m.exec.blocks_executed, 0);

        // The same plans do join when the fact fits the head.
        for (plan, fact) in [(&constant_head, ["a", "k"]), (&repeated_head, ["a", "a"])] {
            let mut hits = 0;
            let flow = exec_plan_seeded(
                plan,
                &syms(&fact),
                &JoinInput::naive(&db),
                &mut scratch,
                &mut m,
                &mut |_, _| {
                    hits += 1;
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(flow, Some(ControlFlow::Continue(())));
            assert_eq!(hits, 2, "a has two outgoing edges");
        }
    }

    #[test]
    fn seeded_probe_breaks_at_the_first_witness_and_scratch_stays_reusable() {
        let (seeded, plan, db) = seeded_fixture();
        let input = JoinInput::naive(&db);
        let mut scratch = ExecScratch::new();
        let mut m = EvalMetrics::default();
        let mut first_witness = |fact: [&str; 2], m: &mut EvalMetrics| {
            let mut witness = None;
            let flow = exec_plan_seeded(
                &plan,
                &syms(&fact),
                &input,
                &mut scratch,
                m,
                &mut |row, m| {
                    m.firings += 1;
                    witness = Some(
                        seeded
                            .body
                            .iter()
                            .map(|l| l.atom.ground(row).to_string())
                            .collect::<Vec<_>>(),
                    );
                    ControlFlow::Break(())
                },
            );
            (flow, witness)
        };

        // Two derivations exist; the sink stops the run at the first.
        let (flow, witness) = first_witness(["a", "d"], &mut m);
        assert_eq!(flow, Some(ControlFlow::Break(())));
        assert_eq!(witness.unwrap(), ["e(a, b)", "tc(b, d)"]);
        assert_eq!(m.firings, 1, "exactly one firing before the Break");

        // The interrupted run left nothing behind: the next probes on the
        // same scratch see only their own fact.
        let (flow, witness) = first_witness(["x", "w"], &mut m);
        assert_eq!(flow, Some(ControlFlow::Break(())));
        assert_eq!(witness.unwrap(), ["e(x, y)", "tc(y, w)"]);
        let (flow, witness) = first_witness(["x", "d"], &mut m);
        assert_eq!(flow, Some(ControlFlow::Continue(())));
        assert!(witness.is_none(), "x reaches only w");
        assert_eq!(m.firings, 2);
    }
}
