//! Synthetic EDB generators.
//!
//! All generators are deterministic: random graphs take an explicit seed.
//! Node names are interned symbols `n0, n1, …` so tuples stay cheap.

use alexander_ir::{Const, Predicate};
use alexander_storage::Database;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The node constant `n<i>`.
pub fn node(i: usize) -> Const {
    Const::sym(&format!("n{i}"))
}

fn insert_edges(db: &mut Database, pred: &str, edges: impl IntoIterator<Item = (usize, usize)>) {
    let p = Predicate::new(pred, 2);
    for (a, b) in edges {
        db.insert_row(p, &[node(a), node(b)]);
    }
}

/// A chain `n0 → n1 → … → n(len)` in relation `pred` (so `len` edges).
pub fn chain(pred: &str, len: usize) -> Database {
    let mut db = Database::new();
    insert_edges(&mut db, pred, (0..len).map(|i| (i, i + 1)));
    db
}

/// A cycle over `len` nodes in relation `pred`.
pub fn cycle(pred: &str, len: usize) -> Database {
    let mut db = Database::new();
    insert_edges(&mut db, pred, (0..len).map(|i| (i, (i + 1) % len)));
    db
}

/// A complete `k`-ary tree of the given depth: edges point parent → child in
/// `pred`. Returns the database and the number of nodes.
pub fn tree(pred: &str, k: usize, depth: usize) -> (Database, usize) {
    let mut db = Database::new();
    let mut edges = Vec::new();
    // Nodes are numbered in BFS order starting at 0.
    let mut next = 1usize;
    let mut frontier = vec![0usize];
    for _ in 0..depth {
        let mut newfrontier = Vec::with_capacity(frontier.len() * k);
        for &p in &frontier {
            for _ in 0..k {
                edges.push((p, next));
                newfrontier.push(next);
                next += 1;
            }
        }
        frontier = newfrontier;
    }
    insert_edges(&mut db, pred, edges);
    (db, next)
}

/// An `n × n` grid: edges right and down in `pred`. Node `(r, c)` is
/// `n(r*n + c)`.
pub fn grid(pred: &str, n: usize) -> Database {
    let mut db = Database::new();
    let mut edges = Vec::new();
    for r in 0..n {
        for c in 0..n {
            let id = r * n + c;
            if c + 1 < n {
                edges.push((id, id + 1));
            }
            if r + 1 < n {
                edges.push((id, id + n));
            }
        }
    }
    insert_edges(&mut db, pred, edges);
    db
}

/// A random digraph with `nodes` vertices and `edges` distinct edges (no
/// self-loops), deterministic in `seed`.
pub fn random_graph(pred: &str, nodes: usize, edges: usize, seed: u64) -> Database {
    assert!(nodes >= 2, "need at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let p = Predicate::new(pred, 2);
    let max_edges = nodes * (nodes - 1);
    let target = edges.min(max_edges);
    let mut inserted = 0usize;
    while inserted < target {
        let a = rng.random_range(0..nodes);
        let b = rng.random_range(0..nodes);
        if a == b {
            continue;
        }
        if db.insert_row(p, &[node(a), node(b)]) {
            inserted += 1;
        }
    }
    db
}

/// A random DAG: like [`random_graph`] but edges only go from lower to
/// higher node numbers, so the graph is acyclic (win–move over it is
/// locally stratified).
pub fn random_dag(pred: &str, nodes: usize, edges: usize, seed: u64) -> Database {
    assert!(nodes >= 2, "need at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let p = Predicate::new(pred, 2);
    let max_edges = nodes * (nodes - 1) / 2;
    let target = edges.min(max_edges);
    let mut inserted = 0usize;
    while inserted < target {
        let a = rng.random_range(0..nodes);
        let b = rng.random_range(0..nodes);
        if a == b {
            continue;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        if db.insert_row(p, &[node(lo), node(hi)]) {
            inserted += 1;
        }
    }
    db
}

/// The same-generation EDB used throughout the magic-sets literature: a
/// complete binary tree of the given depth with `up` edges child → parent,
/// `down` edges parent → child, and `flat` edges linking siblings at the
/// leaves' generation. Query constant: leaf `n<first_leaf>`.
pub fn sg_tree(depth: usize) -> (Database, Const) {
    let (tree_db, nodes) = tree("down", 2, depth);
    let mut db = Database::new();
    let up = Predicate::new("up", 2);
    let down = Predicate::new("down", 2);
    let flat = Predicate::new("flat", 2);
    // down edges from the tree; up edges are their reverses.
    if let Some(rel) = tree_db.relation(down) {
        for row in rel.iter() {
            db.insert_row(down, row);
            db.insert_row(up, &[row[1], row[0]]);
        }
    }
    // flat: adjacent siblings among all nodes sharing a parent, plus a
    // self-flat at the root's children to give the recursion a base.
    let first_leaf = nodes - (1 << depth).min(nodes);
    for i in (1..nodes).step_by(2) {
        if i + 1 < nodes {
            db.insert_row(flat, &[node(i), node(i + 1)]);
            db.insert_row(flat, &[node(i + 1), node(i)]);
        }
    }
    (db, node(first_leaf.max(1)))
}

/// Merges two databases (convenience for assembling multi-relation EDBs).
pub fn merged(a: Database, b: &Database) -> Database {
    let mut out = a;
    out.merge(b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_has_len_edges() {
        let db = chain("e", 10);
        assert_eq!(db.len_of(Predicate::new("e", 2)), 10);
    }

    #[test]
    fn cycle_wraps() {
        let db = cycle("e", 5);
        let rel = db.relation(Predicate::new("e", 2)).unwrap();
        assert!(rel.contains_row(&[node(4), node(0)]));
        assert_eq!(rel.len(), 5);
    }

    #[test]
    fn binary_tree_node_and_edge_counts() {
        let (db, nodes) = tree("down", 2, 3);
        assert_eq!(nodes, 15); // 1 + 2 + 4 + 8
        assert_eq!(db.len_of(Predicate::new("down", 2)), 14);
    }

    #[test]
    fn grid_edge_count() {
        let db = grid("e", 3);
        // 3x3 grid: 2*3 horizontal + 2*3 vertical = 12.
        assert_eq!(db.len_of(Predicate::new("e", 2)), 12);
    }

    #[test]
    fn random_graph_is_deterministic_in_seed() {
        let a = random_graph("e", 20, 50, 7);
        let b = random_graph("e", 20, 50, 7);
        let c = random_graph("e", 20, 50, 8);
        let pa: Vec<String> = a
            .atoms_of(Predicate::new("e", 2))
            .iter()
            .map(|x| x.to_string())
            .collect();
        let pb: Vec<String> = b
            .atoms_of(Predicate::new("e", 2))
            .iter()
            .map(|x| x.to_string())
            .collect();
        assert_eq!(pa, pb);
        let pc: Vec<String> = c
            .atoms_of(Predicate::new("e", 2))
            .iter()
            .map(|x| x.to_string())
            .collect();
        assert_ne!(pa, pc);
        assert_eq!(a.len_of(Predicate::new("e", 2)), 50);
    }

    #[test]
    fn random_graph_caps_at_max_edges() {
        let db = random_graph("e", 3, 100, 1);
        assert_eq!(db.len_of(Predicate::new("e", 2)), 6); // 3*2
    }

    #[test]
    fn random_dag_is_acyclic() {
        let db = random_dag("e", 30, 80, 3);
        // Every edge goes from a lower-numbered to a higher-numbered node.
        for a in db.atoms_of(Predicate::new("e", 2)) {
            let from: usize = a.terms[0].to_string()[1..].parse().unwrap();
            let to: usize = a.terms[1].to_string()[1..].parse().unwrap();
            assert!(from < to, "{a}");
        }
        assert_eq!(db.len_of(Predicate::new("e", 2)), 80);
    }

    #[test]
    fn sg_tree_has_all_three_relations() {
        let (db, seed) = sg_tree(3);
        assert!(db.len_of(Predicate::new("up", 2)) > 0);
        assert!(db.len_of(Predicate::new("down", 2)) > 0);
        assert!(db.len_of(Predicate::new("flat", 2)) > 0);
        assert_eq!(
            db.len_of(Predicate::new("up", 2)),
            db.len_of(Predicate::new("down", 2))
        );
        assert!(seed.to_string().starts_with('n'));
    }
}
