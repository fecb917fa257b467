//! # alexander-eval
//!
//! Bottom-up evaluation of Datalog programs:
//!
//! * [`eval_naive`] — apply every rule to the full database each round.
//! * [`eval_seminaive`] — delta-driven rounds (the standard fixpoint engine).
//! * [`eval_stratified`] — stratify, then semi-naive per stratum; computes
//!   the perfect model of stratified programs with negation.
//! * [`eval_conditional`] — Bry's conditional fixpoint (PODS 1989): delay
//!   negations into conditional statements, then reduce; decides loosely /
//!   locally stratified programs and reports a well-founded-style undefined
//!   residue on cyclic negation. This is the evaluator that runs
//!   magic-rewritten programs, whose stratification the rewriting destroys.
//!
//! All evaluators return machine-independent [`EvalMetrics`] counters; the
//! benchmark tables of the reproduction are built from these.
//!
//! There is one join kernel. Rule bodies are compiled once per run into
//! flat columnar plans ([`plan`]) and driven by the blocked executor
//! ([`exec`]), which moves fixed-size blocks of binding rows through the
//! operator pipeline. Its sink either projects and hashes each derived head
//! row exactly once (the fixpoint evaluators — this is also where the
//! governor's per-block deadline look and per-fact claims happen), or hands
//! the caller the bound row itself (conditional statements, and the
//! [`Prover`]'s head-seeded probes that DRed and [`prove`] ask). The independent
//! oracle is the boxed-tuple reference engine in `alexander-bench`, which
//! shares neither storage nor join code and must agree on the model and on
//! every [`EvalMetrics`] counter.
//!
//! There is likewise one fixpoint round. Naive and semi-naive evaluation
//! (and everything layered on them) share the round executor and the staging
//! sink in [`seminaive`]; they differ only in whether a round's tasks
//! restrict a body literal to the previous round's delta. The executor can
//! fan each round out across worker threads via [`EvalOptions::threads`];
//! the resulting relations *and* metrics are identical to a sequential run
//! at any thread count (see [`seminaive`] for the round protocol).
//!
//! Every evaluator is resource-governed: [`EvalOptions::budget`] bounds
//! wall-clock time, derived facts and rounds. On exhaustion the evaluators
//! return a well-formed *partial* result tagged with a non-`Complete`
//! [`Completion`] instead of an error (see [`govern`]); the metrics say
//! what the run spent. Rounds are panic-isolated at every thread count: a
//! panic inside a round surfaces as [`EvalError::WorkerPanicked`] after any
//! sibling workers drain, never as an unwind or a process abort.
//!
//! ```
//! use alexander_parser::parse;
//! use alexander_storage::Database;
//! use alexander_ir::Predicate;
//!
//! let parsed = parse("
//!     e(a, b). e(b, c).
//!     tc(X, Y) :- e(X, Y).
//!     tc(X, Y) :- e(X, Z), tc(Z, Y).
//! ").unwrap();
//! let result = alexander_eval::eval_seminaive(&parsed.program, &Database::new()).unwrap();
//! assert_eq!(result.db.len_of(Predicate::new("tc", 2)), 3);
//! ```
#![deny(clippy::redundant_clone)]
// Workspace lint note: `clippy::redundant_clone` is denied in the storage
// and eval crates (the two crates that own the allocation-free hot paths) so
// a stray `.clone()` of a tuple, row buffer, or database cannot land
// silently. It is a nursery lint, hence the per-crate opt-in rather than a
// [workspace.lints] entry; treat these two attributes as the deny-list.

pub mod conditional;
pub mod error;
pub mod exec;
#[cfg(feature = "failpoints")]
pub mod failpoints;
pub mod govern;
pub mod incremental;
pub mod join;
pub mod metrics;
pub mod naive;
pub mod order;
pub mod plan;
pub mod provenance;
pub mod seminaive;
pub mod stratified;

/// Fault-injection hook compiled into evaluator hot paths. A no-op unless
/// the test-only `failpoints` feature is enabled; see [`failpoints`].
#[cfg(feature = "failpoints")]
pub(crate) fn fail_point(site: &str) {
    failpoints::hit(site);
}

#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub(crate) fn fail_point(_site: &str) {}

pub use conditional::{eval_conditional, eval_conditional_opts, ConditionalResult, Conditions};
pub use error::EvalError;
pub use exec::{
    exec_plan, exec_plan_bindings, exec_plan_seeded, EmitBindings, ExecScratch, BLOCK_ROWS,
};
pub use govern::{Budget, Completion, Governor, Resource};
pub use incremental::{BatchOutcome, IncrementalEngine};
pub use join::{
    compile_rule, compile_rule_seeded, ensure_rule_indexes, CompiledRule, DeltaSource, Emitted,
    JoinInput, SideSources,
};
pub use metrics::{EvalMetrics, ExecStats};
pub use naive::{eval_naive, eval_naive_opts, EvalOptions, EvalResult};
pub use order::{order_body, order_for_evaluation, Unorderable};
pub use plan::{compile_plan, PlanOp, RulePlan};
pub use provenance::{prove, ProofTree, Prover};
pub use seminaive::{eval_seminaive, eval_seminaive_opts};
pub use stratified::{eval_stratified, eval_stratified_opts, StratifiedResult};
