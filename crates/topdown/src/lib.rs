//! # alexander-topdown
//!
//! OLDT resolution — top-down evaluation with tabulation (Tamaki & Sato
//! 1986). This is the goal-directed strategy the Alexander templates
//! simulate bottom-up; the engine is instrumented so the call and answer
//! tables can be compared fact-for-fact with the `call_…` / `ans_…`
//! relations of the transformed program (the reproduced paper's power
//! theorem, experiment E3). QSQR and plain SLD share its front end: one
//! clause table (rules plus intensional inline facts as body-less rules),
//! one extensional store and one [`TopdownError`].
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
pub use qsqr::{qsqr_query, qsqr_query_opts, QsqrOptions, QsqrResult};
pub use sld::{sld_query, SldOptions, SldResult};
