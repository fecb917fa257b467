//! Staged rows: a fixpoint round's derived rows of one predicate, appended
//! without a duplicate check and folded into the total once, at the round's
//! end.
//!
//! A round's total is immutable while the round runs, so a derived row need
//! not be classified when it is emitted. [`StagedRows::push`] appends the
//! row and its digest and nothing else; [`StagedRows::fold_into`] inserts
//! every staged row into the total with one find-or-insert, in emission
//! order, so the total's new ids are exactly those an insert-as-you-go
//! stage would have produced.
//!
//! Staged rows are firings, not facts, so a duplicate-heavy round would
//! hold many times its new facts. [`StagedRows::compact`] bounds that: in
//! place, it drops every row the total already holds and every repeat of
//! an earlier row, keeping first occurrences in emission order. The rows a
//! compaction keeps — the *distinct prefix* — are indexed by a dedup
//! table, so a caller that must classify each emission exactly (a fact
//! budget about to run out) can check [`StagedRows::contains`] and append
//! with [`StagedRows::push_distinct`] from then on.

use crate::relation::{extend_row, RawTable, Relation};
use alexander_ir::Const;

/// One predicate's staged rows: a flat arena of rows with their
/// [`alexander_ir::hash_row`] digests, appended unchecked, whose first
/// [`StagedRows::distinct`] rows are pairwise distinct and absent from the
/// relation they were last compacted against. See the module docs.
#[derive(Clone, Default)]
pub struct StagedRows {
    arity: usize,
    len: u32,
    pool: Vec<Const>,
    hashes: Vec<u64>,
    /// Rows `0..distinct` form the distinct prefix.
    distinct: u32,
    /// Exactly the distinct prefix's ids.
    dedup: RawTable,
}

impl StagedRows {
    /// No staged rows, of the given arity.
    pub fn new(arity: usize) -> StagedRows {
        StagedRows {
            arity,
            ..StagedRows::default()
        }
    }

    /// Number of staged rows, repeats included.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Length of the distinct prefix: the rows the last compaction kept,
    /// plus those appended with [`StagedRows::push_distinct`] since.
    pub fn distinct(&self) -> usize {
        self.distinct as usize
    }

    /// Staged row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Const] {
        &self.pool[i * self.arity..(i + 1) * self.arity]
    }

    /// Appends a row and its digest, unchecked. Panics on arity mismatch.
    #[inline]
    pub fn push(&mut self, h: u64, row: &[Const]) {
        assert_eq!(row.len(), self.arity, "tuple arity mismatch");
        debug_assert_eq!(h, alexander_ir::hash_row(row), "digest of the row");
        assert!(self.len != u32::MAX, "staged rows overflow");
        extend_row(&mut self.pool, row);
        self.hashes.push(h);
        self.len += 1;
    }

    /// True iff the distinct prefix holds `row` (digest `h`). Meaningful
    /// only while every staged row is in the prefix, as right after a
    /// compaction.
    #[inline]
    pub fn contains(&self, h: u64, row: &[Const]) -> bool {
        debug_assert_eq!(self.len, self.distinct, "compacted before classifying");
        let (pool, hashes, a) = (&self.pool, &self.hashes, self.arity);
        self.dedup
            .find(h, |id| {
                let i = id as usize;
                hashes[i] == h && &pool[i * a..(i + 1) * a] == row
            })
            .is_some()
    }

    /// Appends a row the caller has classified new — absent from the total
    /// and, by [`StagedRows::contains`], from these rows — extending the
    /// distinct prefix.
    pub fn push_distinct(&mut self, h: u64, row: &[Const]) {
        debug_assert!(!self.contains(h, row), "push_distinct of a staged row");
        let id = self.len;
        self.push(h, row);
        self.index(h, id);
        self.distinct = self.len;
    }

    /// Enters staged row `id` (digest `h`) into the dedup table.
    fn index(&mut self, h: u64, id: u32) {
        if self.dedup.needs_grow() {
            let hashes = &self.hashes;
            self.dedup.grow(|v| hashes[v as usize]);
        }
        self.dedup.insert_no_grow(h, id);
    }

    /// Compacts in place: of the rows past the distinct prefix, drops
    /// every one `total` holds and every repeat of an earlier staged row,
    /// keeping first occurrences in emission order. Afterwards every staged
    /// row is in the distinct prefix. Returns how many rows went.
    ///
    /// `total` is the relation [`StagedRows::fold_into`] will fold into
    /// (`None` while it does not exist), and must not change in between.
    pub fn compact(&mut self, total: Option<&Relation>) -> usize {
        let a = self.arity;
        let mut kept = self.distinct;
        for i in self.distinct..self.len {
            let h = self.hashes[i as usize];
            let at = i as usize * a;
            let row = &self.pool[at..at + a];
            let (pool, hashes) = (&self.pool, &self.hashes);
            let repeat = self.dedup.find(h, |id| {
                let j = id as usize;
                hashes[j] == h && &pool[j * a..(j + 1) * a] == row
            });
            if repeat.is_some() || total.is_some_and(|t| t.contains_row_hashed(h, row)) {
                continue;
            }
            // `kept <= i`: a kept row only ever moves left, over a dropped one.
            if kept != i {
                self.pool.copy_within(at..at + a, kept as usize * a);
                self.hashes[kept as usize] = h;
            }
            self.index(h, kept);
            kept += 1;
        }
        let dropped = (self.len - kept) as usize;
        self.pool.truncate(kept as usize * a);
        self.hashes.truncate(kept as usize);
        self.len = kept;
        self.distinct = kept;
        dropped
    }

    /// Inserts every staged row into `total`, in emission order, and
    /// returns how many were new; they are `total`'s new suffix. The
    /// distinct prefix is appended without a dedup probe (its rows were
    /// checked against `total` when they were compacted, and `total` has
    /// not changed since); every later row takes one find-or-insert.
    pub fn fold_into(&self, total: &mut Relation) -> usize {
        total.reserve(self.len());
        for i in 0..self.distinct as usize {
            total.push_new_row_hashed(self.hashes[i], self.row(i));
        }
        let mut new = self.distinct as usize;
        for i in self.distinct as usize..self.len() {
            new += usize::from(total.insert_row_hashed(self.hashes[i], self.row(i)));
        }
        new
    }

    /// Drops every staged row, keeping the allocations for the next round.
    pub fn clear(&mut self) {
        self.pool.clear();
        self.hashes.clear();
        self.dedup.clear_retaining();
        self.len = 0;
        self.distinct = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_ir::hash_row;

    fn stage(s: &mut StagedRows, xs: &[i64]) {
        for &x in xs {
            let row = [Const::int(x)];
            s.push(hash_row(&row), &row);
        }
    }

    fn ints(s: &StagedRows) -> Vec<i64> {
        (0..s.len())
            .map(|i| match s.row(i)[0] {
                Const::Int(x) => x,
                Const::Sym(_) => unreachable!("integer rows only"),
            })
            .collect()
    }

    #[test]
    fn compaction_keeps_first_occurrences_and_drops_the_total() {
        let mut total = Relation::new(1);
        total.insert_row(&[Const::int(7)]);
        let mut s = StagedRows::new(1);
        stage(&mut s, &[3, 7, 1, 3, 2, 1, 7, 4]);
        assert_eq!(s.compact(Some(&total)), 4);
        assert_eq!(ints(&s), [3, 1, 2, 4], "first occurrences, emission order");
        assert_eq!(s.distinct(), 4);
        // Rows staged after a compaction are checked against the prefix
        // and each other at the next one; the prefix is not revisited.
        stage(&mut s, &[5, 3, 5, 6]);
        assert_eq!(s.compact(Some(&total)), 2);
        assert_eq!(ints(&s), [3, 1, 2, 4, 5, 6]);
        // Without a total only repeats go.
        let mut bare = StagedRows::new(1);
        stage(&mut bare, &[7, 7, 8]);
        assert_eq!(bare.compact(None), 1);
        assert_eq!(ints(&bare), [7, 8]);
    }

    #[test]
    fn folding_gives_the_ids_inserting_in_order_gives() {
        let emitted = [4, 2, 9, 2, 4, 1, 9, 3];
        let mut base = Relation::new(1);
        base.insert_row(&[Const::int(1)]);
        let mut reference = base.clone();
        for x in emitted {
            reference.insert_row(&[Const::int(x)]);
        }
        // Uncompacted, compacted midway, and compacted at the end.
        for cut in [None, Some(3), Some(emitted.len())] {
            let mut total = base.clone();
            let mut s = StagedRows::new(1);
            let (head, tail) = emitted.split_at(cut.unwrap_or(0));
            stage(&mut s, head);
            if cut.is_some() {
                s.compact(Some(&total));
            }
            stage(&mut s, tail);
            let new = s.fold_into(&mut total);
            assert_eq!(new, reference.len() - base.len(), "cut {cut:?}");
            let rows: Vec<_> = total.iter().collect();
            assert_eq!(rows, reference.iter().collect::<Vec<_>>(), "cut {cut:?}");
        }
    }

    #[test]
    fn the_distinct_prefix_classifies_exactly() {
        let total = Relation::new(2);
        let mut s = StagedRows::new(2);
        let (a, b) = (
            [Const::int(1), Const::int(2)],
            [Const::int(2), Const::int(1)],
        );
        s.push(hash_row(&a), &a);
        s.push(hash_row(&a), &a);
        s.compact(Some(&total));
        assert!(s.contains(hash_row(&a), &a));
        assert!(!s.contains(hash_row(&b), &b));
        s.push_distinct(hash_row(&b), &b);
        assert!(s.contains(hash_row(&b), &b));
        assert_eq!((s.len(), s.distinct()), (2, 2));
        s.clear();
        assert!(s.is_empty());
        assert!(
            !s.contains(hash_row(&a), &a),
            "clear empties the dedup table"
        );
    }

    #[test]
    fn arity_zero_rows_stage_and_fold() {
        let mut s = StagedRows::new(0);
        s.push(hash_row::<Const>(&[]), &[]);
        s.push(hash_row::<Const>(&[]), &[]);
        let mut total = Relation::new(0);
        assert_eq!(s.fold_into(&mut total), 1);
        assert_eq!(total.len(), 1);
        s.clear();
        s.push(hash_row::<Const>(&[]), &[]);
        assert_eq!(s.compact(Some(&total)), 1, "the total already holds it");
    }
}
