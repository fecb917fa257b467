//! The benchmark's own truth: an edge set per generation and a breadth-first
//! reference for `anc`, independent of every engine in the repository.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Which argument of `anc` the query binds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dir {
    /// `anc(n, X)`: everything reachable from `n`.
    Down,
    /// `anc(X, n)`: everything `n` is reachable from.
    Up,
}

/// A directed edge set over node ids, with both adjacencies kept current.
#[derive(Clone, Default)]
pub struct Model {
    edges: BTreeSet<(u32, u32)>,
    down: HashMap<u32, Vec<u32>>,
    up: HashMap<u32, Vec<u32>>,
}

impl Model {
    pub fn from_edges(edges: impl IntoIterator<Item = (u32, u32)>) -> Model {
        let mut m = Model::default();
        for (a, b) in edges {
            m.insert(a, b);
        }
        m
    }

    pub fn insert(&mut self, a: u32, b: u32) {
        if self.edges.insert((a, b)) {
            self.down.entry(a).or_default().push(b);
            self.up.entry(b).or_default().push(a);
        }
    }

    pub fn delete(&mut self, a: u32, b: u32) {
        if self.edges.remove(&(a, b)) {
            self.down.get_mut(&a).expect("adjacent").retain(|x| *x != b);
            self.up.get_mut(&b).expect("adjacent").retain(|x| *x != a);
        }
    }

    pub fn edges(&self) -> &BTreeSet<(u32, u32)> {
        &self.edges
    }

    /// Nodes reachable from `from` over one or more edges (`from` itself only
    /// when it lies on a cycle), in breadth-first order.
    pub fn reach(&self, from: u32, dir: Dir) -> Vec<u32> {
        let adj = match dir {
            Dir::Down => &self.down,
            Dir::Up => &self.up,
        };
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([from]);
        let mut out = Vec::new();
        while let Some(n) = queue.pop_front() {
            for next in adj.get(&n).map(Vec::as_slice).unwrap_or_default() {
                if seen.insert(*next) {
                    out.push(*next);
                    queue.push_back(*next);
                }
            }
        }
        out
    }
}

/// Order-independent digest of a set of answer lines: count, plus the
/// wrapping sum of each line's FNV-1a hash. The client folds it over `ANSWER`
/// lines as they arrive, so no reply is sorted or kept on the timed path; the
/// reference folds it over the lines it expects.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Digest {
    pub count: u32,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, line: &[u8]) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in line {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    pub fn of<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> Digest {
        let mut d = Digest::default();
        for l in lines {
            d.add(l.as_ref().as_bytes());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reach_follows_edges_in_both_directions() {
        let mut m = Model::from_edges([(1, 2), (1, 3), (2, 4), (2, 5)]);
        let sorted = |mut v: Vec<u32>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(m.reach(1, Dir::Down)), [2, 3, 4, 5]);
        assert_eq!(sorted(m.reach(5, Dir::Up)), [1, 2]);
        assert!(m.reach(4, Dir::Down).is_empty());
        m.delete(1, 2);
        assert_eq!(m.reach(1, Dir::Down), [3]);
        assert_eq!(m.reach(5, Dir::Up), [2]);
        m.insert(1, 2);
        m.insert(1, 2);
        assert_eq!(m.edges().len(), 4);
        assert_eq!(sorted(m.reach(1, Dir::Down)), [2, 3, 4, 5]);
    }

    #[test]
    fn a_cycle_reaches_its_own_start() {
        let m = Model::from_edges([(1, 2), (2, 1)]);
        let mut r = m.reach(1, Dir::Down);
        r.sort_unstable();
        assert_eq!(r, [1, 2]);
    }

    #[test]
    fn digest_ignores_order_but_not_content_or_multiplicity() {
        let a = Digest::of(["anc(a, b)", "anc(a, c)"]);
        assert_eq!(a, Digest::of(["anc(a, c)", "anc(a, b)"]));
        assert_ne!(a, Digest::of(["anc(a, b)", "anc(a, d)"]));
        assert_ne!(a, Digest::of(["anc(a, b)", "anc(a, c)", "anc(a, c)"]));
        assert_eq!(Digest::of(Vec::<&str>::new()), Digest::default());
    }
}
