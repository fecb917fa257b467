//! # alexander-ir
//!
//! The intermediate representation shared by every crate of the *Alexander
//! templates* reproduction: interned symbols, function-free terms, atoms,
//! literals, rules and programs, plus unification, substitutions, adornments
//! and the static analyses (dependency graph, stratification, loose
//! stratification).
//!
//! The design keeps evaluation-hot values (`Symbol`, `Const`, `Term`) small
//! and `Copy`, with equality and hashing reduced to integer operations via a
//! global interner.
//!
//! ```
//! use alexander_ir::{Atom, Literal, Program, Rule, Term};
//!
//! // ancestor(X, Y) :- parent(X, Y).
//! // ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
//! let program = Program::from_rules(vec![
//!     Rule::new(
//!         Atom::new("ancestor", vec![Term::var("X"), Term::var("Y")]),
//!         vec![Literal::pos(Atom::new("parent", vec![Term::var("X"), Term::var("Y")]))],
//!     ),
//!     Rule::new(
//!         Atom::new("ancestor", vec![Term::var("X"), Term::var("Y")]),
//!         vec![
//!             Literal::pos(Atom::new("parent", vec![Term::var("X"), Term::var("Z")])),
//!             Literal::pos(Atom::new("ancestor", vec![Term::var("Z"), Term::var("Y")])),
//!         ],
//!     ),
//! ]);
//! assert!(program.validate().is_ok());
//! assert!(alexander_ir::analysis::stratify(&program).is_ok());
//! ```

pub mod adornment;
pub mod analysis;
pub mod answer;
pub mod atom;
pub mod builtin;
pub mod hash;
pub mod literal;
pub mod program;
pub mod rule;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod unify;

pub use adornment::{AdornedPredicate, Adornment, Bf};
pub use answer::{render_atoms, sort_atoms, sort_rows};
pub use atom::{atom, Atom, Predicate};
pub use builtin::Builtin;
pub use hash::{hash_row, FxBuildHasher, FxHashMap, FxHashSet, FxHasher, RowHasher};
pub use literal::{Literal, Polarity};
pub use program::{Program, ProgramError};
pub use rule::Rule;
pub use subst::Subst;
pub use symbol::Symbol;
pub use term::{Const, Term, Var};
pub use unify::{compatible, match_atom, mgu, unify_atoms, unify_terms};
