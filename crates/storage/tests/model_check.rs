//! Model-checking the relation store: random operation sequences must agree
//! with a trivial reference implementation (a `BTreeSet` of rows).

use alexander_ir::Const;
use alexander_storage::{Mask, Relation, Tuple};
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

fn tup(cells: [u8; 2]) -> Tuple {
    Tuple::new(vec![
        Const::Int(cells[0] as i64),
        Const::Int(cells[1] as i64),
    ])
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
        let mut model: BTreeSet<Tuple> = BTreeSet::new();

        for op in ops {
            match op {
                Op::Insert(cells) => {
                    let t = tup(cells);
                    let fresh = rel.insert(t.clone());
                    prop_assert_eq!(fresh, model.insert(t));
                }
                Op::Remove(cells) => {
                    let t = tup(cells);
                    let was = rel.remove_row(t.values());
                    prop_assert_eq!(was, model.remove(&t));
                }
                Op::RemoveRows(victims) => {
                    let mut batch = Relation::new(2);
                    for v in &victims {
                        batch.insert(tup(*v));
                    }
                    let removed = rel.remove_rows(&batch);
                    let want = batch
                        .iter()
                        .filter(|row| model.remove(&Tuple::new(*row)))
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
                    let mut got: Vec<Tuple> = rel.select(mask, &key);
                    got.sort();
                    let want: Vec<Tuple> = model
                        .iter()
                        .filter(|t| t.project(&cols) == key)
                        .cloned()
                        .collect();
                    prop_assert_eq!(got, want, "mask {:?}", mask);
                }
            }
            // Global invariants after every step.
            prop_assert_eq!(rel.len(), model.len());
        }
        // Final full-content check.
        let mut got: Vec<Tuple> = rel.iter().map(Tuple::new).collect();
        got.sort();
        let want: Vec<Tuple> = model.into_iter().collect();
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
            a.insert(tup(*r));
            b.insert(tup(*r));
        }
        a.ensure_index(Mask::of_columns(&[0]));

        let mut batch = Relation::new(2);
        for v in &victims {
            batch.insert(tup(*v));
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
}
