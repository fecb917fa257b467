//! # alexander-topdown
//!
//! The goal-directed engines the Alexander templates are compared with.
//! OLDT resolution — top-down evaluation with tabulation (Tamaki & Sato
//! 1986) — is the strategy the templates simulate bottom-up; the engine is
//! instrumented so the call and answer tables can be compared
//! fact-for-fact with the `call_…` / `ans_…` relations of the transformed
//! program (the reproduced paper's power theorem, experiment E3). QSQR
//! (Vieille 1986) completes its tables by recursive restarts instead of
//! suspension, and plain SLD, without tables, is the baseline both are
//! measured against (E11).
//!
//! The three share one front end: one clause table (rules plus intensional
//! inline facts as body-less rules), one extensional store and one
//! [`TopdownError`]. OLDT and QSQR also share one compiled clause form,
//! read once per call pattern (slots, SIP order, indexed extensional
//! probes); they differ in control and in one numbering — OLDT tables
//! variant calls, QSQR adorned predicates — so both report their tables in
//! one canonical form ([`OldtResult::tables`], [`QsqrResult::tables`]).
//!
//! ```
//! use alexander_parser::{parse, parse_atom};
//! use alexander_storage::Database;
//!
//! let parsed = parse("
//!     par(a, b). par(b, c).
//!     anc(X, Y) :- par(X, Y).
//!     anc(X, Y) :- par(X, Z), anc(Z, Y).
//! ").unwrap();
//! let edb = Database::from_program(&parsed.program);
//! let r = alexander_topdown::oldt_query(
//!     &parsed.program, &edb, &parse_atom("anc(a, X)").unwrap()).unwrap();
//! assert_eq!(r.answers.len(), 2);
//! assert_eq!(r.metrics.calls, 3); // anc(a,_), anc(b,_), anc(c,_)
//! ```

mod front;
pub mod metrics;
pub mod oldt;
pub mod qsqr;
pub mod sld;

pub use front::TopdownError;
pub use metrics::OldtMetrics;
pub use oldt::{oldt_query, oldt_query_opts, OldtOptions, OldtResult};
pub use qsqr::{qsqr_query, qsqr_query_opts, QsqrResult};
pub use sld::{sld_query, SldOptions, SldResult};
