//! # alexander-core
//!
//! The public facade of the *Alexander templates* reproduction: load a
//! Datalog program and an extensional database into an [`Engine`], then
//! answer queries under any [`Strategy`] — plain bottom-up (naive /
//! semi-naive / stratified / conditional fixpoint), the query-directed
//! rewritings (Generalized Magic Sets, Supplementary Magic Sets, Alexander
//! templates), or top-down OLDT resolution. Every result carries
//! machine-independent instrumentation ([`Report`]) so strategies can be
//! compared the way the paper compares them: in facts materialised and
//! inference steps, not just wall-clock time.
//!
//! The paper's headline claim — bottom-up evaluation of the
//! Alexander-transformed program does exactly the work of OLDT resolution —
//! is checkable on any program/query with
//! [`check_power_correspondence`].
//!
//! ```
//! use alexander_core::{Engine, Strategy};
//! use alexander_parser::parse_atom;
//!
//! let engine = Engine::from_source("
//!     par(adam, seth). par(seth, enos).
//!     anc(X, Y) :- par(X, Y).
//!     anc(X, Y) :- par(X, Z), anc(Z, Y).
//! ").unwrap();
//! let query = parse_atom("anc(adam, X)").unwrap();
//! let result = engine.query(&query, Strategy::Alexander).unwrap();
//! assert_eq!(result.answers.len(), 2);
//! assert_eq!(result.report.calls, Some(3)); // adam, seth, enos
//! ```

pub mod cli;
pub mod engine;
pub mod power;
pub mod strategy;

pub use engine::{Engine, EngineError};
pub use power::{check_power_correspondence, PowerCorrespondence, PowerRow};
pub use strategy::{QueryResult, Report, Strategy};

// Re-export the component crates so downstream users need one dependency.
pub use alexander_eval as eval;
pub use alexander_ir as ir;
pub use alexander_parser as parser;
pub use alexander_storage as storage;
pub use alexander_topdown as topdown;
pub use alexander_transform as transform;
pub use alexander_workload as workload;
