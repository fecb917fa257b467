//! # alexander-bench
//!
//! The benchmark harness: every table and figure of EXPERIMENTS.md is
//! regenerated by an experiment module here, and the `harness` binary
//! prints them (markdown by default, JSON with `--json`).
//!
//! ```text
//! cargo run --release -p alexander-bench --bin harness            # all
//! cargo run --release -p alexander-bench --bin harness -- e3     # one
//! cargo run --release -p alexander-bench --bin harness -- --json # JSON
//! ```
//!
//! The tables report counters plus one-shot timings; end-to-end serving is
//! measured by the separate `e2e` benchmark package, not here.

pub mod alloc;
#[cfg(feature = "failpoints")]
pub mod chaos;
pub mod experiments;
pub mod gate;
pub mod legacy;
pub mod loadgen;
pub mod retrograde;
pub mod table;

pub use table::{ms, timed, Table};
