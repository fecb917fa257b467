//! The predicate dependency graph.
//!
//! Vertices are predicates; there is an edge `p → q` (with the polarity of
//! the occurrence) whenever a rule with head predicate `p` mentions `q` in
//! its body. Stratification and evaluation ordering are computed from this
//! graph.

use crate::atom::Predicate;
use crate::hash::FxHashMap;
use crate::literal::Polarity;
use crate::program::Program;

/// An edge `from → to` with the polarity of the body occurrence.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DepEdge {
    pub from: Predicate,
    pub to: Predicate,
    pub polarity: Polarity,
}

/// The predicate dependency graph of a program.
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    /// Dense vertex list in first-seen order (deterministic).
    pub vertices: Vec<Predicate>,
    index: FxHashMap<Predicate, usize>,
    /// Adjacency: for each vertex, outgoing `(target index, polarity)` pairs.
    pub succs: Vec<Vec<(usize, Polarity)>>,
}

impl DepGraph {
    /// Builds the dependency graph of `program`. Every predicate mentioned in
    /// any rule (heads and bodies) becomes a vertex; inline facts contribute
    /// vertices but no edges.
    pub fn build(program: &Program) -> DepGraph {
        let mut g = DepGraph::default();
        for r in &program.rules {
            let h = g.add_vertex(r.head.predicate());
            for l in &r.body {
                let b = g.add_vertex(l.atom.predicate());
                if !g.succs[h].contains(&(b, l.polarity)) {
                    g.succs[h].push((b, l.polarity));
                }
            }
        }
        for f in &program.facts {
            g.add_vertex(f.predicate());
        }
        g
    }

    fn add_vertex(&mut self, p: Predicate) -> usize {
        if let Some(&i) = self.index.get(&p) {
            return i;
        }
        let i = self.vertices.len();
        self.vertices.push(p);
        self.index.insert(p, i);
        self.succs.push(Vec::new());
        i
    }

    /// The vertex index of `p`, if present.
    pub fn vertex(&self, p: Predicate) -> Option<usize> {
        self.index.get(&p).copied()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True iff the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// All edges, flattened.
    pub fn edges(&self) -> impl Iterator<Item = DepEdge> + '_ {
        self.succs.iter().enumerate().flat_map(move |(from, outs)| {
            outs.iter().map(move |&(to, polarity)| DepEdge {
                from: self.vertices[from],
                to: self.vertices[to],
                polarity,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::atom;
    use crate::literal::Literal;
    use crate::rule::Rule;
    use crate::term::Term;

    fn win_move() -> Program {
        // win(X) :- move(X, Y), !win(Y).
        Program::from_rules(vec![Rule::new(
            atom("win", [Term::var("X")]),
            vec![
                Literal::pos(atom("move", [Term::var("X"), Term::var("Y")])),
                Literal::neg(atom("win", [Term::var("Y")])),
            ],
        )])
    }

    #[test]
    fn builds_vertices_and_edges() {
        let g = DepGraph::build(&win_move());
        assert_eq!(g.len(), 2);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 2);
        assert!(edges
            .iter()
            .any(|e| e.to == Predicate::new("move", 2) && e.polarity == Polarity::Positive));
        assert!(edges
            .iter()
            .any(|e| e.to == Predicate::new("win", 1) && e.polarity == Polarity::Negative));
    }

    #[test]
    fn parallel_edges_of_different_polarity_are_kept() {
        // p :- q, !q.  Both polarities must be present.
        let p = Program::from_rules(vec![Rule::new(
            atom("p", [Term::var("X")]),
            vec![
                Literal::pos(atom("q", [Term::var("X")])),
                Literal::neg(atom("q", [Term::var("X")])),
            ],
        )]);
        let g = DepGraph::build(&p);
        let pols: Vec<_> = g.edges().map(|e| e.polarity).collect();
        assert!(pols.contains(&Polarity::Positive));
        assert!(pols.contains(&Polarity::Negative));
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let p = Program::from_rules(vec![Rule::new(
            atom("p", [Term::var("X")]),
            vec![
                Literal::pos(atom("q", [Term::var("X")])),
                Literal::pos(atom("q", [Term::var("X")])),
            ],
        )]);
        let g = DepGraph::build(&p);
        assert_eq!(g.edges().count(), 1);
    }
}
