//! # alexander-workload
//!
//! Synthetic EDB generators (chains, cycles, trees, grids, seeded random
//! digraphs, the same-generation tree) and the benchmark program library
//! (transitive closure, ancestor, same-generation, win–move, reach/unreach,
//! Bry's loosely-stratified guard example).
//!
//! ```
//! use alexander_ir::Predicate;
//! use alexander_workload::{graphs, programs};
//!
//! let edb = graphs::chain("e", 100);
//! assert_eq!(edb.len_of(Predicate::new("e", 2)), 100);
//! let program = programs::transitive_closure();
//! assert!(program.is_idb(Predicate::new("tc", 2)));
//! ```

pub mod graphs;
pub mod programs;

pub use graphs::{
    chain, cycle, diamonds, grid, merged, node, random_dag, random_graph, sg_tree, tree,
};
pub use programs::{
    ancestor, loose_guard, reach_unreach, same_generation, standard_suite, transitive_closure,
    transitive_closure_nonlinear, win_move, Workload,
};
