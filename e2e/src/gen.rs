//! Seeded input generation: the RNG, the Zipf sampler and the graph shapes.
//! Everything the benchmark feeds the program is made here from `--seed`;
//! nothing comes from `alexander_workload`, so that crate can change without
//! moving the yardstick.

use alexander_ir::{Atom, Term};
use alexander_storage::Database;

/// splitmix64: tiny, seedable, and good enough to shuffle labels and draw
/// ranks.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Times the whole set-up is done in one run; the median is `setup_s`.
pub const SETUP_ROUNDS: usize = 3;

/// The RNG and the label prefix of one set-up round. Each round has labels of
/// its own, so each pays for interning them as a fresh process would.
pub fn round(seed: u64, round: usize) -> (Rng, &'static str) {
    let prefix = ["a", "b", "c"][round % SETUP_ROUNDS];
    (Rng::new(seed ^ (round as u64) << 48), prefix)
}

/// Zipf(1) over ranks `0..n`: rank `r` is drawn with weight `1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A complete binary tree in heap numbering: ids `1..=nodes()`, the parent of
/// `i` is `i / 2`, depth-`l` nodes are `2^l .. 2^(l+1)`. The seed only
/// permutes the labels, so the shape — and with it the cost of every query —
/// is the same for every seed.
pub struct Tree {
    pub depth: u32,
    prefix: String,
    label: Vec<u32>,
}

impl Tree {
    pub fn new(depth: u32, prefix: &str, rng: &mut Rng) -> Tree {
        let nodes = (1usize << (depth + 1)) - 1;
        let mut label: Vec<u32> = (0..=nodes as u32).collect();
        rng.shuffle(&mut label[1..]);
        Tree {
            depth,
            prefix: prefix.to_string(),
            label,
        }
    }

    pub fn nodes(&self) -> u32 {
        self.label.len() as u32 - 1
    }

    pub fn name(&self, id: u32) -> String {
        format!("{}{}", self.prefix, self.label[id as usize])
    }

    /// Ids at depth `l`.
    pub fn level(&self, l: u32) -> std::ops::Range<u32> {
        (1 << l)..(1 << (l + 1))
    }

    /// `(parent, child)` for every edge, root first.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> {
        (2..=self.nodes()).map(|c| (c / 2, c))
    }
}

pub fn fact(pred: &str, a: &str, b: &str) -> Atom {
    Atom::new(pred, vec![Term::sym(a), Term::sym(b)])
}

pub fn insert(db: &mut Database, pred: &str, a: &str, b: &str) {
    db.insert_atom(&fact(pred, a, b)).expect("ground fact");
}

pub const ANCESTOR: &str = "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).";
pub const SAME_GENERATION: &str =
    "sg(X, Y) :- flat(X, Y). sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).";
pub const WIN_MOVE: &str = "win(X) :- move(X, Y), !win(Y).";

/// `pred(c0,c1) … pred(c{n-1},c{n})` under seeded labels; returns the EDB and
/// the nodes' names in chain order.
pub fn chain(pred: &str, n: usize, prefix: &str, rng: &mut Rng) -> (Database, Vec<String>) {
    let mut label: Vec<usize> = (0..=n).collect();
    rng.shuffle(&mut label);
    let names: Vec<String> = label.iter().map(|l| format!("{prefix}{l}")).collect();
    let mut db = Database::new();
    for pair in names.windows(2) {
        insert(&mut db, pred, &pair[0], &pair[1]);
    }
    (db, names)
}

pub fn tree_edb(pred: &str, tree: &Tree) -> Database {
    let mut db = Database::new();
    for (p, c) in tree.edges() {
        insert(&mut db, pred, &tree.name(p), &tree.name(c));
    }
    db
}

/// The same-generation EDB of the magic-sets literature: `down` parent →
/// child, `up` its reverse, `flat` between siblings.
pub fn same_generation_edb(tree: &Tree) -> Database {
    let mut db = Database::new();
    for (p, c) in tree.edges() {
        insert(&mut db, "down", &tree.name(p), &tree.name(c));
        insert(&mut db, "up", &tree.name(c), &tree.name(p));
        if c % 2 == 0 {
            insert(&mut db, "flat", &tree.name(c), &tree.name(c + 1));
            insert(&mut db, "flat", &tree.name(c + 1), &tree.name(c));
        }
    }
    db
}

/// A layered `move` DAG as `(from, to)` names: every node of layer `i` moves
/// to `fanout` seeded nodes of layer `i + 1`, so every position is decided (no
/// draws) and the shape is the same for every seed. The first edge leaves a
/// first-layer node.
pub fn game_dag(
    layers: usize,
    width: usize,
    fanout: usize,
    prefix: &str,
    rng: &mut Rng,
) -> Vec<(String, String)> {
    let name = |l: usize, i: usize| format!("{prefix}{l}_{i}");
    let mut moves = Vec::new();
    for l in 0..layers - 1 {
        for i in 0..width {
            let mut targets: Vec<usize> = (0..width).collect();
            rng.shuffle(&mut targets);
            for t in &targets[..fanout.min(width)] {
                moves.push((name(l, i), name(l + 1, *t)));
            }
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        let labels = |seed| {
            let t = Tree::new(5, "n", &mut Rng::new(seed));
            (1..=t.nodes()).map(|i| t.name(i)).collect::<Vec<_>>()
        };
        assert_eq!(labels(7), labels(7));
        assert_ne!(labels(7), labels(8));
        let dag = |seed| game_dag(4, 6, 2, "g", &mut Rng::new(seed));
        assert_eq!(dag(3), dag(3));
        assert_ne!(dag(3), dag(4));
    }

    #[test]
    fn tree_shape_does_not_depend_on_the_seed() {
        let t = Tree::new(4, "n", &mut Rng::new(1));
        assert_eq!(t.nodes(), 31);
        assert_eq!(t.edges().count(), 30);
        assert_eq!(t.level(0), 1..2);
        assert_eq!(t.level(4), 16..32);
        let mut names: Vec<String> = (1..=t.nodes()).map(|i| t.name(i)).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 31, "labels are a permutation");
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(100);
        let mut rng = Rng::new(42);
        let mut hits = [0usize; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[9] && hits[9] > hits[99], "{hits:?}");
        // Rank 0 carries 1/H(100) = 19% of the mass.
        assert!((3_000..4_600).contains(&hits[0]), "{}", hits[0]);
        let one = Zipf::new(1);
        assert_eq!(one.sample(&mut rng), 0);
    }

    #[test]
    fn rng_ranges_hold() {
        let mut rng = Rng::new(0);
        for _ in 0..1_000 {
            assert!(rng.below(3) < 3);
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
