//! Retrograde analysis of the win–move game — the ground truth experiment
//! E6 checks the conditional fixpoint against.
//!
//! Classical game-theoretic labelling: a position with no moves is LOST for
//! the player to move; a position with a move to a LOST position is WON; a
//! position all of whose moves lead to WON positions is LOST; anything the
//! iteration never labels is a DRAW (the well-founded model's undefined
//! atoms).

use alexander_ir::{Const, FxHashMap, FxHashSet, Predicate};
use alexander_storage::Database;

/// The labelling of every position that appears in the move relation.
#[derive(Clone, Debug, Default)]
pub struct GameLabels {
    pub won: FxHashSet<Const>,
    pub lost: FxHashSet<Const>,
    pub drawn: FxHashSet<Const>,
}

/// Solves the game given by `move_pred` tuples in `db`.
pub fn solve(db: &Database, move_pred: Predicate) -> GameLabels {
    let mut succs: FxHashMap<Const, Vec<Const>> = FxHashMap::default();
    let mut preds: FxHashMap<Const, Vec<Const>> = FxHashMap::default();
    let mut positions: FxHashSet<Const> = FxHashSet::default();
    if let Some(rel) = db.relation(move_pred) {
        for row in rel.iter() {
            let (a, b) = (row[0], row[1]);
            succs.entry(a).or_default().push(b);
            preds.entry(b).or_default().push(a);
            positions.insert(a);
            positions.insert(b);
        }
    }

    let mut labels = GameLabels::default();
    // Remaining out-degree: when it hits zero and the position is unlabelled,
    // every move leads to WON, so the position is LOST.
    let mut outdeg: FxHashMap<Const, usize> = positions
        .iter()
        .map(|&p| (p, succs.get(&p).map_or(0, |v| v.len())))
        .collect();

    let mut queue: Vec<Const> = positions
        .iter()
        .copied()
        .filter(|p| outdeg[p] == 0)
        .collect();
    for &p in &queue {
        labels.lost.insert(p);
    }

    while let Some(p) = queue.pop() {
        let p_lost = labels.lost.contains(&p);
        for &q in preds.get(&p).into_iter().flatten() {
            if labels.won.contains(&q) || labels.lost.contains(&q) {
                continue;
            }
            if p_lost {
                // q can move to a lost position: q is won.
                labels.won.insert(q);
                queue.push(q);
            } else {
                // p is won: one fewer escape for q.
                let d = outdeg.get_mut(&q).expect("known position");
                *d -= 1;
                if *d == 0 {
                    labels.lost.insert(q);
                    queue.push(q);
                }
            }
        }
    }

    for &p in &positions {
        if !labels.won.contains(&p) && !labels.lost.contains(&p) {
            labels.drawn.insert(p);
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_of(edges: &[(&str, &str)]) -> Database {
        let mut db = Database::new();
        for (a, b) in edges {
            db.insert_row(Predicate::new("move", 2), &[Const::sym(a), Const::sym(b)]);
        }
        db
    }

    fn name(c: Const) -> String {
        c.to_string()
    }

    #[test]
    fn chain_alternates() {
        // a -> b -> c: c lost, b won, a lost.
        let l = solve(&db_of(&[("a", "b"), ("b", "c")]), Predicate::new("move", 2));
        assert!(l.lost.iter().map(|&c| name(c)).any(|n| n == "c"));
        assert!(l.won.iter().map(|&c| name(c)).any(|n| n == "b"));
        assert!(l.lost.iter().map(|&c| name(c)).any(|n| n == "a"));
        assert!(l.drawn.is_empty());
    }

    #[test]
    fn two_cycle_is_drawn() {
        let l = solve(&db_of(&[("a", "b"), ("b", "a")]), Predicate::new("move", 2));
        assert_eq!(l.drawn.len(), 2);
        assert!(l.won.is_empty());
        assert!(l.lost.is_empty());
    }

    #[test]
    fn escape_from_a_cycle_wins() {
        // a <-> b, plus b -> c (stuck): b can move to lost c, so b is won;
        // a's only move goes to won b, so a is lost.
        let l = solve(
            &db_of(&[("a", "b"), ("b", "a"), ("b", "c")]),
            Predicate::new("move", 2),
        );
        assert!(l.won.iter().map(|&c| name(c)).any(|n| n == "b"));
        assert!(l.lost.iter().map(|&c| name(c)).any(|n| n == "a"));
        assert!(l.lost.iter().map(|&c| name(c)).any(|n| n == "c"));
        assert!(l.drawn.is_empty());
    }

    #[test]
    fn empty_game() {
        let l = solve(&Database::new(), Predicate::new("move", 2));
        assert!(l.won.is_empty() && l.lost.is_empty() && l.drawn.is_empty());
    }
}
