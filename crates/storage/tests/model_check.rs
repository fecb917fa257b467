//! Model-checking the relation store: random operation sequences must agree
//! with a trivial reference implementation (a `BTreeSet` of rows), and the
//! atom doors of a `Database` must agree with its row doors.

use alexander_ir::{atom, Atom, Const, Predicate, Term};
use alexander_storage::{Database, Mask, Relation};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Clone, Debug)]
enum Op {
    Insert([u8; 2]),
    Remove([u8; 2]),
    RemoveRows(Vec<[u8; 2]>),
    EnsureIndex(u8),
    Probe(u8, [u8; 2]),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::array::uniform2(0u8..6).prop_map(Op::Insert),
        proptest::array::uniform2(0u8..6).prop_map(Op::Remove),
        // Up to 12 victims against at most 36 rows: batches land on both
        // sides of the one-eighth swap/compact switch.
        proptest::collection::vec(proptest::array::uniform2(0u8..6), 0..12)
            .prop_map(Op::RemoveRows),
        (0u8..4).prop_map(Op::EnsureIndex),
        ((0u8..4), proptest::array::uniform2(0u8..6)).prop_map(|(m, k)| Op::Probe(m, k)),
    ]
}

fn row(cells: [u8; 2]) -> Vec<Const> {
    cells.iter().map(|&c| Const::Int(c as i64)).collect()
}

/// One operation through a `Database`'s atom doors. A cell of 3 is the
/// variable `X`, so about half the atoms are not ground.
#[derive(Clone, Debug)]
enum AtomOp {
    Insert([u8; 2]),
    Contains([u8; 2]),
    Remove([u8; 2]),
    /// Take an epoch clone, which shares every relation until written.
    Snapshot,
}

fn atom_op() -> impl Strategy<Value = AtomOp> {
    let cells = || proptest::array::uniform2(0u8..4);
    prop_oneof![
        cells().prop_map(AtomOp::Insert),
        cells().prop_map(AtomOp::Contains),
        cells().prop_map(AtomOp::Remove),
        Just(AtomOp::Snapshot),
    ]
}

fn atom_of(cells: [u8; 2]) -> Atom {
    atom(
        "e",
        cells.map(|c| match c {
            3 => Term::var("X"),
            c => Term::int(c as i64),
        }),
    )
}

/// The row of `cells`, `None` when the atom has a variable.
fn row_if_ground(cells: [u8; 2]) -> Option<Vec<Const>> {
    cells.iter().all(|&c| c < 3).then(|| row(cells))
}

fn rows_of(db: &Database, pred: Predicate) -> Vec<Vec<Const>> {
    db.relation(pred)
        .map(|r| r.iter().map(<[Const]>::to_vec).collect())
        .unwrap_or_default()
}

fn mask_of(m: u8) -> Mask {
    // 0: empty, 1: col0, 2: col1, 3: both.
    Mask(m as u64 & 0b11)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn relation_agrees_with_reference_model(ops in proptest::collection::vec(op(), 0..60)) {
        let mut rel = Relation::new(2);
        let mut model: BTreeSet<Vec<Const>> = BTreeSet::new();

        for op in ops {
            match op {
                Op::Insert(cells) => {
                    let r = row(cells);
                    let fresh = rel.insert_row(&r);
                    prop_assert_eq!(fresh, model.insert(r));
                }
                Op::Remove(cells) => {
                    let r = row(cells);
                    let was = rel.remove_row(&r);
                    prop_assert_eq!(was, model.remove(&r));
                }
                Op::RemoveRows(victims) => {
                    let mut batch = Relation::new(2);
                    for v in &victims {
                        batch.insert_row(&row(*v));
                    }
                    let removed = rel.remove_rows(&batch);
                    let want = batch
                        .iter()
                        .filter(|&r| model.remove(r))
                        .count();
                    prop_assert_eq!(removed, want);
                }
                Op::EnsureIndex(m) => {
                    rel.ensure_index(mask_of(m));
                }
                Op::Probe(m, key_cells) => {
                    let mask = mask_of(m);
                    let cols: Vec<usize> = mask.columns().collect();
                    let key: Vec<Const> = cols
                        .iter()
                        .map(|&c| Const::Int(key_cells[c] as i64))
                        .collect();
                    let mut got: Vec<Vec<Const>> =
                        rel.probe(mask, &key).0.map(<[Const]>::to_vec).collect();
                    got.sort();
                    let want: Vec<Vec<Const>> = model
                        .iter()
                        .filter(|r| cols.iter().map(|&c| r[c]).eq(key.iter().copied()))
                        .cloned()
                        .collect();
                    prop_assert_eq!(got, want, "mask {:?}", mask);
                }
            }
            // Global invariants after every step.
            prop_assert_eq!(rel.len(), model.len());
        }
        // Final full-content check.
        let mut got: Vec<Vec<Const>> = rel.iter().map(<[Const]>::to_vec).collect();
        got.sort();
        let want: Vec<Vec<Const>> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn remove_rows_matches_one_remove_row_per_victim(
        rows in proptest::collection::vec(proptest::array::uniform2(0u8..6), 0..30),
        victims in proptest::collection::vec(proptest::array::uniform2(0u8..6), 0..10),
    ) {
        let mut a = Relation::new(2);
        let mut b = Relation::new(2);
        for r in &rows {
            a.insert_row(&row(*r));
            b.insert_row(&row(*r));
        }
        a.ensure_index(Mask::of_columns(&[0]));

        let mut batch = Relation::new(2);
        for v in &victims {
            batch.insert_row(&row(*v));
        }
        let removed = a.remove_rows(&batch);
        let mut removed_one_by_one = 0;
        for v in batch.iter() {
            removed_one_by_one += usize::from(b.remove_row(v));
        }
        prop_assert_eq!(removed, removed_one_by_one);
        prop_assert_eq!(a.len(), b.len());
        // Indexes survive deletion correctly.
        for key0 in 0u8..6 {
            let key = [Const::Int(key0 as i64)];
            let (hits, indexed) = a.probe(Mask::of_columns(&[0]), &key);
            prop_assert!(indexed);
            let got = hits.count();
            let want = b
                .iter()
                .filter(|row| row[0] == Const::Int(key0 as i64))
                .count();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn atom_doors_agree_with_row_doors(ops in proptest::collection::vec(atom_op(), 0..60)) {
        let e = Predicate::new("e", 2);
        let mut by_atom = Database::new();
        let mut by_row = Database::new();
        by_atom.insert_row(e, &row([0, 0]));
        by_row.insert_row(e, &row([0, 0]));
        let mut epoch = by_atom.clone();

        for op in ops {
            let (cells, before) = match op {
                AtomOp::Snapshot => {
                    epoch = by_atom.clone();
                    continue;
                }
                AtomOp::Insert(c) | AtomOp::Contains(c) | AtomOp::Remove(c) => (c, rows_of(&by_atom, e)),
            };
            let shared = by_atom.shares_relation(&epoch, e);
            let a = atom_of(cells);
            match (op, row_if_ground(cells)) {
                (AtomOp::Insert(_), Some(r)) => {
                    prop_assert_eq!(by_atom.insert_atom(&a), Ok(by_row.insert_row(e, &r)));
                }
                (AtomOp::Contains(_), Some(r)) => {
                    prop_assert_eq!(by_atom.contains_atom(&a), by_row.contains_row(e, &r));
                }
                (AtomOp::Remove(_), Some(r)) => {
                    prop_assert_eq!(by_atom.remove_atom(&a), by_row.remove_row(e, &r));
                }
                (AtomOp::Insert(_), None) => prop_assert!(by_atom.insert_atom(&a).is_err()),
                (AtomOp::Contains(_), None) => prop_assert!(!by_atom.contains_atom(&a)),
                (AtomOp::Remove(_), None) => prop_assert!(!by_atom.remove_atom(&a)),
                (AtomOp::Snapshot, _) => unreachable!("handled above"),
            }
            if row_if_ground(cells).is_none() {
                // A non-ground atom touches nothing, not even the sharing.
                prop_assert_eq!(rows_of(&by_atom, e), before);
                prop_assert_eq!(by_atom.shares_relation(&epoch, e), shared);
            }
            // Same operations in the same order: same rows in the same ids.
            prop_assert_eq!(rows_of(&by_atom, e), rows_of(&by_row, e));
            prop_assert_eq!(by_atom.total_tuples(), by_row.total_tuples());
        }
    }
}
