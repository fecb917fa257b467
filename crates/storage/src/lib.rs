//! # alexander-storage
//!
//! Relation storage for the Alexander-templates reproduction: duplicate-free
//! row sets per predicate, arena-backed (one flat `Vec<Const>` pool per
//! relation, rows addressed by dense `u32` ids), with lazily built
//! hash-of-projection indexes keyed by binding pattern ([`Mask`]). The
//! evaluators' join loops probe these indexes without materialising keys;
//! the EDB, the materialised IDB, the semi-naive deltas (id ranges, see
//! [`DeltaSpans`]) and the incremental engine's fact sets all live in
//! [`Database`]s, and a fixpoint round's derived rows wait in
//! [`StagedRows`] until the round folds them into its total. A fact is a
//! row (`&[Const]`) at every entry point — insert, membership, probe,
//! removal — and an atom meets storage through
//! one conversion each way: [`Atom::ground_args`] into a row, [`row_atom`]
//! back out ([`Database::insert_atom`], [`Database::contains_atom`] and
//! [`Database::remove_atom`] are the atom doors).
//!
//! [`Atom::ground_args`]: alexander_ir::Atom::ground_args
//!
//! ```
//! use alexander_ir::Predicate;
//! use alexander_storage::{Database, Mask};
//! use alexander_ir::Const;
//!
//! let edge = Predicate::new("edge", 2);
//! let mut db = Database::new();
//! db.insert_row(edge, &[Const::sym("a"), Const::sym("b")]);
//! db.ensure_index(edge, Mask::of_columns(&[0]));
//! let rel = db.relation(edge).unwrap();
//! let key = [Const::sym("a")];
//! let (hits, indexed) = rel.probe(Mask::of_columns(&[0]), &key);
//! assert!(indexed);
//! assert_eq!(hits.count(), 1);
//! ```
#![deny(clippy::redundant_clone)]
// Workspace lint note: `clippy::redundant_clone` is denied in the storage
// and eval crates (the two crates that own the allocation-free hot paths) so
// a stray `.clone()` of a tuple, row buffer, or database cannot land
// silently. It is a nursery lint, hence the per-crate opt-in rather than a
// [workspace.lints] entry; treat these two attributes as the deny-list.

pub mod database;
pub mod load;
pub mod relation;
pub mod staged;

pub use database::{row_atom, Database, DeltaSpans, NonGround};
pub use load::{load_delimited, load_file, LoadError};
pub use relation::{extend_row, IndexProbe, Mask, MaskColumns, Relation, Rows};
pub use staged::StagedRows;
