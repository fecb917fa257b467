//! A single stored relation: an arena-backed column store with
//! binding-pattern indexes.
//!
//! ## Layout
//!
//! Rows live in one flat `Vec<Const>` pool with fixed stride = arity;
//! a row is addressed by its dense `u32` id and read back as the slice
//! `pool[id * arity .. (id + 1) * arity]`. Every row's 64-bit Fx hash is
//! precomputed at insert time (`hashes[id]`), so duplicate detection is an
//! open-addressing probe over ids — hash compare first, then a direct
//! column compare against the pool. No row is ever boxed, and no key is
//! ever materialised: probes hash the lookup values in place with
//! [`RowHasher`] and verify candidates by comparing columns in the arena.
//!
//! An index is three flat vectors: its columns, a table from projection
//! hash to group, and the groups. A group's posting list sits inside the
//! group up to three ids and spills to a heap `Vec` past that, so an index
//! of small groups builds, clones and drops without an allocation per key.
//!
//! ## Invariants
//!
//! - Ids are dense: rows occupy `0..len` with no holes. Inserts append in
//!   insertion order; a small deletion may swap the tail row into the
//!   vacated id, so relative order is only insertion order until the first
//!   removal. Iteration (and everything downstream: merge order, metrics,
//!   parallel-round determinism) follows ids, which stay deterministic for
//!   a deterministic operation sequence.
//! - `hashes[id]` is always the [`alexander_ir::hash_row`] digest of row
//!   `id`; the dedup table and every index group key off these digests.
//! - Index posting lists are sorted ascending by id, so a semi-naive
//!   delta — an id range `[lo, hi)` — restricts a posting list with two
//!   binary searches instead of probing a separate delta database.
//!   Appends keep lists sorted for free; deletions re-sort the two
//!   patched lists ([`Relation::remove_rows`]).
//! - Once an index exists, every insert *and every delete* maintains it in
//!   place: O(1) per (tuple, index) on insert, O(|group|) per victim on
//!   small deletes, one order-preserving remap pass on mass deletes —
//!   never a from-scratch rebuild.

use alexander_ir::{hash_row, Const, FxHashMap, RowHasher, Term};
use std::fmt;

/// A binding pattern over argument positions, as a bitmask: bit `i` set means
/// column `i` is bound (part of the lookup key). Arity is limited to 64.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Mask(pub u64);

impl Mask {
    /// The mask binding exactly `columns`.
    pub fn of_columns(columns: &[usize]) -> Mask {
        let mut m = 0u64;
        for &c in columns {
            assert!(c < 64, "arity limit is 64");
            m |= 1 << c;
        }
        Mask(m)
    }

    /// The bound columns, ascending. Iterates the set bits directly — no
    /// allocation, so the join's per-probe key construction stays on the
    /// stack.
    #[inline]
    pub fn columns(self) -> MaskColumns {
        MaskColumns(self.0)
    }

    /// Number of bound columns.
    #[inline]
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True iff no column is bound (full scan).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Iterator over a [`Mask`]'s bound columns, ascending (bit-scan, no heap).
#[derive(Clone, Copy, Debug)]
pub struct MaskColumns(u64);

impl Iterator for MaskColumns {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for MaskColumns {}

/// Sentinel for an unused open-addressing slot.
const EMPTY: u32 = u32::MAX;

/// A minimal open-addressing table of `u32` entries keyed by externally
/// supplied 64-bit hashes. The entries are indices into some side structure
/// (row ids for the dedup table, group ids for an index); equality
/// verification is delegated to the caller's closure, which compares columns
/// directly in the arena — the table itself stores no keys at all.
#[derive(Clone, Default)]
pub(crate) struct RawTable {
    slots: Vec<u32>,
    len: usize,
}

impl RawTable {
    /// True when the next insert would push the load factor past 7/8.
    #[inline]
    pub(crate) fn needs_grow(&self) -> bool {
        // The capacity is always a power of two; `* 8 / 7` keeps probes short.
        self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7
    }

    /// Doubles capacity and re-slots every entry; `hash_of` recovers an
    /// entry's hash (from the side structure that owns the real data).
    pub(crate) fn grow(&mut self, mut hash_of: impl FnMut(u32) -> u64) {
        let cap = (self.slots.len() * 2).max(16);
        let mut slots = vec![EMPTY; cap];
        for &v in self.slots.iter().filter(|&&v| v != EMPTY) {
            let mut i = hash_of(v) as usize & (cap - 1);
            while slots[i] != EMPTY {
                i = (i + 1) & (cap - 1);
            }
            slots[i] = v;
        }
        self.slots = slots;
    }

    /// Linear-probes for an entry with this hash accepted by `eq`.
    #[inline]
    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let cap = self.slots.len();
        let mut i = hash as usize & (cap - 1);
        loop {
            let v = self.slots[i];
            if v == EMPTY {
                return None;
            }
            if eq(v) {
                return Some(v);
            }
            i = (i + 1) & (cap - 1);
        }
    }

    /// Inserts an entry. The caller must have handled `needs_grow` first and
    /// established (via [`RawTable::find`]) that no equal entry exists.
    #[inline]
    pub(crate) fn insert_no_grow(&mut self, hash: u64, value: u32) {
        let cap = self.slots.len();
        let mut i = hash as usize & (cap - 1);
        while self.slots[i] != EMPTY {
            i = (i + 1) & (cap - 1);
        }
        self.slots[i] = value;
        self.len += 1;
    }

    /// Overwrites the slot holding `value` (an entry with hash `hash`) with
    /// `new`. The probe chain is untouched — `new` answers to the same hash.
    fn replace(&mut self, hash: u64, value: u32, new: u32) {
        let cap = self.slots.len();
        let mut i = hash as usize & (cap - 1);
        while self.slots[i] != value {
            debug_assert!(self.slots[i] != EMPTY, "entry to replace exists");
            i = (i + 1) & (cap - 1);
        }
        self.slots[i] = new;
    }

    /// Backward-shift deletion of the slot holding `value` (hash `hash`):
    /// entries later in the same probe chain slide back over the hole, so
    /// `find` never stops early at a spurious empty slot. `hash_of`
    /// recovers an entry's hash from the owning side structure. The entry
    /// must exist.
    fn delete(&mut self, hash: u64, value: u32, mut hash_of: impl FnMut(u32) -> u64) {
        let cap = self.slots.len();
        let mut hole = hash as usize & (cap - 1);
        while self.slots[hole] != value {
            debug_assert!(self.slots[hole] != EMPTY, "entry to delete exists");
            hole = (hole + 1) & (cap - 1);
        }
        let mut j = hole;
        loop {
            j = (j + 1) & (cap - 1);
            let v = self.slots[j];
            if v == EMPTY {
                break;
            }
            // `v` may slide into the hole iff its home slot is cyclically
            // outside `(hole, j]` — otherwise it is already as close to
            // home as the chain allows.
            let home = hash_of(v) as usize & (cap - 1);
            let in_gap = if hole <= j {
                home > hole && home <= j
            } else {
                home > hole || home <= j
            };
            if !in_gap {
                self.slots[hole] = v;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    /// Empties the table while keeping its slot array, so a recycled
    /// staging relation or buffer stays allocation-free round to round.
    pub(crate) fn clear_retaining(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }
}

/// Row `id` of an arena with the given stride, as a slice.
#[inline]
fn row_of(pool: &[Const], arity: usize, id: u32) -> &[Const] {
    &pool[id as usize * arity..id as usize * arity + arity]
}

/// Appends `row` to a flat arena. A row is a few constants wide, and
/// `extend_from_slice` of a length known only at run time calls libc's
/// `memcpy` once per row; a fixed width compiles to plain register moves,
/// so rows up to eight columns wide move column by column.
#[inline]
pub fn extend_row(dst: &mut Vec<Const>, row: &[Const]) {
    #[inline(always)]
    fn fixed<const N: usize>(dst: &mut Vec<Const>, row: &[Const]) {
        // invariant: the caller dispatched on `row.len() == N`.
        let row: &[Const; N] = row.try_into().expect("row width is N");
        dst.extend_from_slice(row);
    }
    match row.len() {
        0 => {}
        1 => fixed::<1>(dst, row),
        2 => fixed::<2>(dst, row),
        3 => fixed::<3>(dst, row),
        4 => fixed::<4>(dst, row),
        5 => fixed::<5>(dst, row),
        6 => fixed::<6>(dst, row),
        7 => fixed::<7>(dst, row),
        8 => fixed::<8>(dst, row),
        _ => dst.extend_from_slice(row),
    }
}

/// How many ids a posting list holds inline before it spills to the heap.
/// Three keeps a [`Group`] at 32 bytes, the size of a hash beside a bare
/// `Vec`: the inline form's 16 bytes fit around the spilled vector's niche.
/// A fourth inline id would grow every group to 40 bytes; on a tree's
/// indexes (one or two ids per key) the two capacities index and copy
/// equally fast.
const INLINE_IDS: usize = 3;

/// A key group's posting list: ascending row ids, inline while there are
/// at most [`INLINE_IDS`] of them and spilled to a `Vec` past that. A
/// spilled list stays spilled when deletions shrink it, so a group that
/// hovers at the boundary allocates once, not per crossing.
#[derive(Clone)]
enum Postings {
    /// The first `.0` entries of the array; the rest are ignored.
    Inline(u32, [u32; INLINE_IDS]),
    Spilled(Vec<u32>),
}

impl Postings {
    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            Postings::Inline(n, ids) => &ids[..*n as usize],
            Postings::Spilled(ids) => ids,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u32] {
        match self {
            Postings::Inline(n, ids) => &mut ids[..*n as usize],
            Postings::Spilled(ids) => ids,
        }
    }

    /// Appends `id`, spilling a full inline list to the heap.
    fn push(&mut self, id: u32) {
        match self {
            Postings::Inline(n, ids) if (*n as usize) < INLINE_IDS => {
                ids[*n as usize] = id;
                *n += 1;
            }
            Postings::Inline(_, ids) => {
                let mut spilled = Vec::with_capacity(2 * INLINE_IDS);
                spilled.extend_from_slice(ids);
                spilled.push(id);
                *self = Postings::Spilled(spilled);
            }
            Postings::Spilled(ids) => ids.push(id),
        }
    }

    /// Keeps the first `len` ids.
    fn truncate(&mut self, len: usize) {
        match self {
            Postings::Inline(n, _) => *n = (*n).min(len as u32),
            Postings::Spilled(ids) => ids.truncate(len),
        }
    }
}

/// One key group of an index: every row whose projection onto the index
/// columns hashes to `hash` *and* equals the group's representative
/// projection. Ids are ascending (insertion order), which is what lets a
/// delta probe narrow a group to an id range by binary search; the list is
/// inline or spilled ([`Postings`]), and every operation below works on
/// either form through its slice.
#[derive(Clone)]
struct Group {
    hash: u64,
    ids: Postings,
}

/// One secondary index: a hash-of-projection table. `table` maps a
/// projection hash to a group id; groups hold the matching row ids, inline
/// for small groups and spilled to the heap for large ones. Distinct
/// projections that collide on the 64-bit hash stay distinct groups (the
/// representative-row comparison separates them), so a probe's candidate set
/// is exactly the rows whose key columns equal the probe values.
#[derive(Clone)]
struct Index {
    /// The mask's columns, ascending, precomputed once.
    cols: Vec<u32>,
    table: RawTable,
    groups: Vec<Group>,
}

impl Index {
    fn new(mask: Mask) -> Index {
        Index {
            cols: mask.columns().map(|c| c as u32).collect(),
            table: RawTable::default(),
            groups: Vec::new(),
        }
    }

    /// Hash of `row` projected onto this index's columns.
    #[inline]
    fn projection_hash(&self, row: &[Const]) -> u64 {
        let mut h = RowHasher::new();
        for &c in &self.cols {
            h.push(&row[c as usize]);
        }
        h.finish()
    }

    /// Adds row `id` (whose data is `row`) to its key group, creating the
    /// group on first sight. `row_at` reads an existing row from the arena.
    fn add<'p>(&mut self, id: u32, row: &[Const], row_at: impl Fn(u32) -> &'p [Const]) {
        let h = self.projection_hash(row);
        let cols = &self.cols;
        let groups = &self.groups;
        let found = self.table.find(h, |g| {
            let grp = &groups[g as usize];
            grp.hash == h && {
                // invariant: groups are never empty — they are created with
                // their first id and deleted when their last one goes.
                let rep = row_at(grp.ids.as_slice()[0]);
                cols.iter().all(|&c| rep[c as usize] == row[c as usize])
            }
        });
        match found {
            Some(g) => self.groups[g as usize].ids.push(id),
            None => {
                let g = u32::try_from(self.groups.len()).expect("index group overflow");
                self.groups.push(Group {
                    hash: h,
                    ids: Postings::Inline(1, [id; INLINE_IDS]),
                });
                if self.table.needs_grow() {
                    let groups = &self.groups;
                    self.table.grow(|g| groups[g as usize].hash);
                }
                self.table.insert_no_grow(h, g);
            }
        }
    }

    /// Resolves the position in `groups` of the group holding `row` (which
    /// must be indexed; `row_at` reads representative rows from the arena).
    fn group_of<'p>(&self, row: &[Const], row_at: impl Fn(u32) -> &'p [Const]) -> u32 {
        let h = self.projection_hash(row);
        let cols = &self.cols;
        let groups = &self.groups;
        self.table
            .find(h, |g| {
                let grp = &groups[g as usize];
                grp.hash == h && {
                    let rep = row_at(grp.ids.as_slice()[0]);
                    cols.iter().all(|&c| rep[c as usize] == row[c as usize])
                }
            })
            .expect("indexed row's group exists")
    }

    /// Drops row `id` (data `row`) from its posting list; a group emptied
    /// by the drop is deleted, with the swapped-in tail group's table entry
    /// redirected. O(|group|) — independent of the relation's size.
    fn remove_id<'p>(&mut self, id: u32, row: &[Const], row_at: impl Fn(u32) -> &'p [Const]) {
        let g = self.group_of(row, &row_at);
        let grp = &mut self.groups[g as usize];
        let ids = grp.ids.as_mut_slice();
        let pos = ids.binary_search(&id).expect("indexed row in its group");
        ids.copy_within(pos + 1.., pos);
        let len = ids.len() - 1;
        grp.ids.truncate(len);
        if len != 0 {
            return;
        }
        let hash = grp.hash;
        let groups = &self.groups;
        self.table.delete(hash, g, |gg| groups[gg as usize].hash);
        self.groups.swap_remove(g as usize);
        let last = self.groups.len() as u32;
        if g != last {
            // The former tail group now lives at `g`.
            self.table.replace(self.groups[g as usize].hash, last, g);
        }
    }

    /// Renames row `old` to `new` in its posting list (`row` is its data).
    /// `old` must be the relation's current maximum id, so it is the last
    /// element of its ascending posting list; `new` re-inserts in sorted
    /// position. O(|group|).
    fn move_id<'p>(
        &mut self,
        old: u32,
        new: u32,
        row: &[Const],
        row_at: impl Fn(u32) -> &'p [Const],
    ) {
        let g = self.group_of(row, &row_at);
        let ids = self.groups[g as usize].ids.as_mut_slice();
        debug_assert_eq!(ids.last(), Some(&old), "max id ends its posting list");
        // `new < old`, so shifting the ids above `new` right by one slot
        // overwrites `old` and leaves the length alone.
        let pos = ids.partition_point(|&x| x < new);
        ids.copy_within(pos..ids.len() - 1, pos + 1);
        ids[pos] = new;
    }

    /// Rewrites the index after a bulk removal: `remap[old_id]` is a
    /// surviving row's new id, or [`EMPTY`] for a removed row. Survivors
    /// keep their relative order, so substituting ids in place preserves
    /// every posting list's ascending invariant — no projection is ever
    /// rehashed. Emptied groups are dropped and the group table re-slotted
    /// (group ids shift when groups die, and open addressing cannot delete
    /// in place anyway).
    fn remove_remap(&mut self, remap: &[u32]) {
        for grp in &mut self.groups {
            let ids = grp.ids.as_mut_slice();
            let mut kept = 0;
            for i in 0..ids.len() {
                let nid = remap[ids[i] as usize];
                if nid != EMPTY {
                    ids[kept] = nid;
                    kept += 1;
                }
            }
            grp.ids.truncate(kept);
        }
        self.groups.retain(|g| !g.ids.as_slice().is_empty());
        self.table.clear_retaining();
        for (g, grp) in self.groups.iter().enumerate() {
            self.table.insert_no_grow(grp.hash, g as u32);
        }
    }

    /// The ids whose projection hashes to `hash` and satisfies `key_eq`
    /// (checked against one representative row). Empty when no group
    /// matches.
    #[inline]
    fn probe<'p>(
        &self,
        hash: u64,
        row_at: impl Fn(u32) -> &'p [Const],
        mut key_eq: impl FnMut(&[Const]) -> bool,
    ) -> &[u32] {
        let groups = &self.groups;
        match self.table.find(hash, |g| {
            let grp = &groups[g as usize];
            grp.hash == hash && key_eq(row_at(grp.ids.as_slice()[0]))
        }) {
            Some(g) => self.groups[g as usize].ids.as_slice(),
            None => &[],
        }
    }
}

/// A stored relation: a duplicate-free set of ground tuples of a fixed
/// arity, arena-backed, with lazily built hash indexes per binding pattern.
///
/// See the module docs for the layout and its invariants. A fact is a row
/// (`&[Const]`) at every entry point: insert, membership, probe, removal.
#[derive(Clone, Default)]
pub struct Relation {
    arity: usize,
    /// Number of rows. Tracked separately from `pool.len() / arity` so
    /// arity-0 relations (the propositional edge case) still count to 1.
    len: u32,
    pool: Vec<Const>,
    hashes: Vec<u64>,
    dedup: RawTable,
    indexes: FxHashMap<Mask, Index>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            ..Relation::default()
        }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row with this id, as a slice into the arena.
    #[inline]
    pub fn row(&self, id: u32) -> &[Const] {
        let a = self.arity;
        &self.pool[id as usize * a..id as usize * a + a]
    }

    /// The whole arena: every row concatenated, stride = arity. Row `id`
    /// occupies `pool()[id * arity .. (id + 1) * arity]`. This is the
    /// contiguous surface blocked executors scan directly.
    #[inline]
    pub fn pool(&self) -> &[Const] {
        &self.pool
    }

    /// The precomputed [`hash_row`] digest of every row, indexed by id.
    #[inline]
    pub fn row_hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Inserts a row; returns `true` if it was new. Panics on arity
    /// mismatch.
    pub fn insert_row(&mut self, row: &[Const]) -> bool {
        self.insert_row_hashed(hash_row(row), row)
    }

    /// Inserts a row whose [`hash_row`] digest the caller already computed
    /// (blocked executors hash each head row once and reuse the digest for
    /// the membership check and the insert); returns `true` if it was new.
    /// Panics on arity mismatch.
    pub fn insert_row_hashed(&mut self, h: u64, row: &[Const]) -> bool {
        if self.find_id(h, row).is_some() {
            debug_assert_eq!(
                h,
                hash_row(row),
                "caller-supplied hash must be the row digest"
            );
            return false;
        }
        self.push_new_row_hashed(h, row);
        true
    }

    /// Appends a row the caller guarantees is **absent**, with its
    /// [`hash_row`] digest already computed — the dedup probe is skipped
    /// entirely. Round merges use it for rows that were membership-checked
    /// against the target while the target was immutable for the round (a
    /// compacted [`StagedRows`](crate::StagedRows) prefix, an incremental
    /// staging relation), where probing again would only repeat a lookup
    /// known to miss. Debug builds re-verify the absence.
    ///
    /// Panics on arity mismatch.
    pub fn push_new_row_hashed(&mut self, h: u64, row: &[Const]) {
        assert_eq!(row.len(), self.arity, "tuple arity mismatch");
        debug_assert_eq!(
            h,
            hash_row(row),
            "caller-supplied hash must be the row digest"
        );
        debug_assert!(
            self.find_id(h, row).is_none(),
            "push_new_row_hashed caller promised the row was absent"
        );
        // invariant: tuple ids are dense u32s; 2^32 tuples per relation
        // exceeds addressable memory for any workload this engine targets.
        let id = self.len;
        assert!(id != u32::MAX, "relation overflow");
        // Maintain every already-built index incrementally: one projection
        // hash and one table probe per index, O(|delta|) per round rather
        // than the O(|relation|) a lazy rebuild would cost.
        let (arity, pool) = (self.arity, &self.pool);
        for index in self.indexes.values_mut() {
            index.add(id, row, |rid| {
                &pool[rid as usize * arity..rid as usize * arity + arity]
            });
        }
        if self.dedup.needs_grow() {
            let hashes = &self.hashes;
            self.dedup.grow(|rid| hashes[rid as usize]);
        }
        self.dedup.insert_no_grow(h, id);
        extend_row(&mut self.pool, row);
        self.hashes.push(h);
        self.len = id + 1;
    }

    /// Reserves room for `additional` more rows, so a fold of known size
    /// grows the arena once.
    pub fn reserve(&mut self, additional: usize) {
        self.pool.reserve(additional * self.arity);
        self.hashes.reserve(additional);
    }

    /// The id of the stored row equal to `row` (whose hash is `h`), if any.
    #[inline]
    fn find_id(&self, h: u64, row: &[Const]) -> Option<u32> {
        self.dedup
            .find(h, |id| self.hashes[id as usize] == h && self.row(id) == row)
    }

    /// The id of the stored row equal to `row`, if present. Arity
    /// mismatches simply miss.
    #[cfg(test)]
    fn id_of(&self, row: &[Const]) -> Option<u32> {
        if row.len() != self.arity {
            return None;
        }
        self.find_id(hash_row(row), row)
    }

    /// Membership test for a row slice.
    #[inline]
    pub fn contains_row(&self, row: &[Const]) -> bool {
        row.len() == self.arity && self.find_id(hash_row(row), row).is_some()
    }

    /// Membership test for a row whose [`hash_row`] digest the caller
    /// already computed.
    #[inline]
    pub fn contains_row_hashed(&self, h: u64, row: &[Const]) -> bool {
        debug_assert_eq!(
            h,
            hash_row(row),
            "caller-supplied hash must be the row digest"
        );
        row.len() == self.arity && self.find_id(h, row).is_some()
    }

    /// Membership test without materialising the row: `get(i)` resolves the
    /// `i`-th value. This is how the join checks negative literals — the
    /// candidate is hashed and compared column by column straight from the
    /// binding array.
    #[inline]
    pub fn contains_with(&self, get: impl Fn(usize) -> Const) -> bool {
        let mut h = RowHasher::new();
        for i in 0..self.arity {
            h.push(&get(i));
        }
        self.dedup
            .find(h.finish(), |id| {
                let row = self.row(id);
                (0..self.arity).all(|i| row[i] == get(i))
            })
            .is_some()
    }

    /// Iterates over all rows in insertion (id) order.
    pub fn iter(&self) -> Rows<'_> {
        self.rows_in(0, self.len)
    }

    /// The rows with ids in `[lo, hi)` — delta slicing for semi-naive
    /// evaluation is an id range into the arena, never a copied relation.
    pub fn rows_in(&self, lo: u32, hi: u32) -> Rows<'_> {
        let hi = hi.min(self.len);
        Rows {
            rel: self,
            next: lo.min(hi),
            end: hi,
        }
    }

    /// Ensures a hash index for `mask` exists (no-op for the empty mask).
    pub fn ensure_index(&mut self, mask: Mask) {
        if mask.is_empty() || self.indexes.contains_key(&mask) {
            return;
        }
        let mut index = Index::new(mask);
        let (arity, pool) = (self.arity, &self.pool);
        for id in 0..self.len {
            let row = &pool[id as usize * arity..id as usize * arity + arity];
            index.add(id, row, |rid| {
                &pool[rid as usize * arity..rid as usize * arity + arity]
            });
        }
        self.indexes.insert(mask, index);
    }

    /// True iff an index for `mask` has been built.
    pub fn has_index(&self, mask: Mask) -> bool {
        self.indexes.contains_key(&mask)
    }

    /// The ids whose `mask` columns hash to `hash` and satisfy `key_eq`
    /// (invoked with a representative row; compare the mask's columns).
    /// `None` when no index exists for `mask` — the caller falls back to a
    /// scan. The returned ids are ascending, so a delta restriction is two
    /// `partition_point`s.
    ///
    /// `hash` must be a [`RowHasher`] digest of the bound values in
    /// ascending column order — the same digest the index maintains for its
    /// stored projections.
    #[inline]
    pub fn probe_ids(
        &self,
        mask: Mask,
        hash: u64,
        key_eq: impl FnMut(&[Const]) -> bool,
    ) -> Option<&[u32]> {
        let index = self.indexes.get(&mask)?;
        Some(index.probe(hash, |rid| self.row(rid), key_eq))
    }

    /// Resolves the index for `mask` once — `None` when no index exists
    /// (the caller falls back to a scan). Blocked executors hold the handle
    /// for a whole block of probes, so the per-probe mask lookup the
    /// tuple-at-a-time path pays disappears.
    #[inline]
    pub fn index_probe(&self, mask: Mask) -> Option<IndexProbe<'_>> {
        let index = self.indexes.get(&mask)?;
        Some(IndexProbe { rel: self, index })
    }

    /// Looks up the rows whose `mask` columns equal `key`. Uses the index
    /// when present, otherwise falls back to a filtered scan (the second
    /// element of the returned pair is `true` when the index was used).
    pub fn probe<'a>(
        &'a self,
        mask: Mask,
        key: &'a [Const],
    ) -> (Box<dyn Iterator<Item = &'a [Const]> + 'a>, bool) {
        if mask.is_empty() {
            return (Box::new(self.iter()), false);
        }
        if self.has_index(mask) {
            let hits = self
                .probe_ids(mask, hash_row(key), |rep| {
                    mask.columns().zip(key).all(|(c, k)| rep[c] == *k)
                })
                .unwrap_or(&[]);
            return (Box::new(hits.iter().map(move |&id| self.row(id))), true);
        }
        (
            Box::new(
                self.iter()
                    .filter(move |row| mask.columns().zip(key).all(|(c, k)| row[c] == *k)),
            ),
            false,
        )
    }

    /// The rows that match `pattern`, a query atom's arguments: equal to
    /// each constant, and equal across the columns of a repeated variable.
    /// In id order, allocating nothing; a pattern of the wrong arity
    /// matches nothing. When an index's mask is exactly the pattern's
    /// constant columns, only that key group's posting list is walked;
    /// otherwise the whole relation is scanned.
    pub fn matching<'a>(&'a self, pattern: &'a [Term]) -> impl Iterator<Item = &'a [Const]> + 'a {
        let (group, scan): (&[u32], _) = if pattern.len() != self.arity {
            (&[], 0..0)
        } else if let Some(ids) = self.constant_group(pattern) {
            (ids, 0..0)
        } else {
            (&[], 0..self.len)
        };
        let ids = group.iter().copied().chain(scan);
        ids.map(move |id| self.row(id))
            .filter(move |row| row_matches(pattern, row))
    }

    /// The posting list of the rows whose constant columns equal
    /// `pattern`'s constants, when an index has exactly those columns.
    fn constant_group(&self, pattern: &[Term]) -> Option<&[u32]> {
        if pattern.len() > 64 {
            return None;
        }
        let mut mask = 0u64;
        let mut h = RowHasher::new();
        for (c, t) in pattern.iter().enumerate() {
            if let Term::Const(k) = t {
                mask |= 1 << c;
                h.push(k);
            }
        }
        self.probe_ids(Mask(mask), h.finish(), |rep| {
            pattern
                .iter()
                .zip(rep)
                .all(|(t, v)| !matches!(t, Term::Const(k) if k != v))
        })
    }

    /// Removes every row of `victims` (a relation of the same arity; any
    /// other arity removes nothing); returns how many were present. The
    /// victims' stored digests are reused, so no victim is rehashed.
    ///
    /// Two strategies, picked by how much of the relation dies. A small
    /// victim set takes the O(|victims|) path: each victim is resolved
    /// through the dedup table and the current tail row swaps into its
    /// hole — the dedup table takes a backward-shift deletion plus one
    /// renamed entry, and each index patches two posting lists. Ids stay
    /// dense but the relative order of rows that crossed a removal is no
    /// longer insertion order (nothing downstream depends on order across
    /// a deletion; ascending posting lists are restored on insert).
    ///
    /// A large victim set (an eighth of the relation or more) amortises
    /// better as a compaction: survivors slide left in one pass preserving
    /// their order, the dedup table re-slots the surviving precomputed
    /// hashes, and posting lists substitute remapped ids. O(|relation|),
    /// but in cheap moves — no hash is recomputed and no row compared.
    pub fn remove_rows(&mut self, victims: &Relation) -> usize {
        if victims.arity != self.arity {
            return 0;
        }
        self.remove_hashed(victims.iter().zip(victims.row_hashes().iter().copied()))
    }

    /// Removes one row; returns whether it was present. The row takes the
    /// path [`Relation::remove_rows`] takes for a one-row victim set.
    pub fn remove_row(&mut self, row: &[Const]) -> bool {
        row.len() == self.arity && self.remove_hashed(std::iter::once((row, hash_row(row)))) == 1
    }

    /// [`Relation::remove_rows`] over distinct `(row, digest)` victims.
    fn remove_hashed<'v>(
        &mut self,
        victims: impl ExactSizeIterator<Item = (&'v [Const], u64)>,
    ) -> usize {
        if victims.len().saturating_mul(8) < self.len() {
            // Each swap renames the tail row, so a victim's id is resolved
            // only when its turn comes.
            let mut dropped = 0;
            for (row, h) in victims {
                if let Some(id) = self.find_id(h, row) {
                    self.swap_remove_id(h, id);
                    dropped += 1;
                }
            }
            dropped
        } else {
            let ids = victims
                .filter_map(|(row, h)| self.find_id(h, row))
                .collect();
            self.compact_without(ids)
        }
    }

    /// Removes row `id` (whose hash is `h`) by swapping the tail row into
    /// its slot. All derived structures are patched in place.
    fn swap_remove_id(&mut self, h: u64, id: u32) {
        let last = self.len - 1;
        let arity = self.arity;
        // Drop the victim from the dedup table and every index while its
        // row is still addressable.
        let hashes = &self.hashes;
        self.dedup.delete(h, id, |v| hashes[v as usize]);
        let pool = &self.pool;
        for index in self.indexes.values_mut() {
            index.remove_id(id, row_of(pool, arity, id), |rid| row_of(pool, arity, rid));
        }
        if id != last {
            // Rename the tail row to `id`: dedup entry first, then each
            // index's posting entry, then the arena columns.
            let lh = self.hashes[last as usize];
            self.dedup.replace(lh, last, id);
            for index in self.indexes.values_mut() {
                index.move_id(last, id, row_of(pool, arity, last), |rid| {
                    row_of(pool, arity, rid)
                });
            }
            self.pool.copy_within(
                last as usize * arity..(last as usize + 1) * arity,
                id as usize * arity,
            );
            self.hashes[id as usize] = lh;
        }
        self.pool.truncate(last as usize * arity);
        self.hashes.truncate(last as usize);
        self.len = last;
    }

    /// The mass-delete path: drops the rows with ids `victim_ids` (each
    /// stored, none repeated) in one order-preserving compaction pass,
    /// O(|relation|) in moves; returns how many went. See
    /// [`Relation::remove_rows`].
    fn compact_without(&mut self, mut victim_ids: Vec<u32>) -> usize {
        if victim_ids.is_empty() {
            return 0;
        }
        victim_ids.sort_unstable();
        // Dense remap: `remap[old] = new` for survivors, EMPTY for victims.
        // Survivors keep their relative (insertion) order.
        let mut remap = vec![EMPTY; self.len as usize];
        {
            let mut vi = 0;
            let mut next = 0u32;
            for old in 0..self.len {
                if vi < victim_ids.len() && victim_ids[vi] == old {
                    vi += 1;
                } else {
                    remap[old as usize] = next;
                    next += 1;
                }
            }
        }
        let new_len = self.len - victim_ids.len() as u32;
        // Compact the arena columns. Rows only ever move left, so the
        // destination slot is always dead (a victim or already moved).
        let arity = self.arity;
        for (old, &nid) in remap.iter().enumerate() {
            if nid == EMPTY || nid as usize == old {
                continue;
            }
            let nid = nid as usize;
            self.pool
                .copy_within(old * arity..old * arity + arity, nid * arity);
            self.hashes[nid] = self.hashes[old];
        }
        self.pool.truncate(new_len as usize * arity);
        self.hashes.truncate(new_len as usize);
        self.len = new_len;
        // Open addressing cannot delete in place; re-slot the surviving
        // hashes instead. No row is rehashed or compared — survivors are
        // distinct by the relation's own invariant.
        self.dedup.clear_retaining();
        for id in 0..new_len {
            self.dedup.insert_no_grow(self.hashes[id as usize], id);
        }
        for index in self.indexes.values_mut() {
            index.remove_remap(&remap);
        }
        victim_ids.len()
    }

    /// Removes every row while retaining the arena's and dedup table's
    /// allocations (indexes are dropped). The incremental engine recycles
    /// its staging relations through this, so the steady state stages
    /// rounds without allocating.
    pub fn clear_rows(&mut self) {
        self.pool.clear();
        self.hashes.clear();
        self.dedup.clear_retaining();
        self.indexes.clear();
        self.len = 0;
    }
}

/// A resolved `(relation, index)` pair: one mask lookup buys a whole block
/// of probes. See [`Relation::index_probe`].
#[derive(Clone, Copy)]
pub struct IndexProbe<'r> {
    rel: &'r Relation,
    index: &'r Index,
}

impl<'r> IndexProbe<'r> {
    /// [`Relation::probe_ids`] restricted to the id range `[lo, hi)` — the
    /// semi-naive delta restriction, at most two binary searches on the
    /// ascending posting list. Never `None`: holding the handle proves the
    /// index exists.
    #[inline]
    pub fn probe_in(
        &self,
        hash: u64,
        range: Option<(u32, u32)>,
        key_eq: impl FnMut(&[Const]) -> bool,
    ) -> &'r [u32] {
        let ids = self.index.probe(hash, |rid| self.rel.row(rid), key_eq);
        narrow(ids, range, self.rel.len)
    }
}

/// True iff `row` is an instance of `pattern` (see [`Relation::matching`]).
#[inline]
fn row_matches(pattern: &[Term], row: &[Const]) -> bool {
    pattern.iter().enumerate().all(|(i, &t)| match t {
        Term::Const(c) => row[i] == c,
        // A repeated variable must take the value its first occurrence took.
        Term::Var(_) => pattern[..i]
            .iter()
            .position(|&u| u == t)
            .is_none_or(|j| row[j] == row[i]),
    })
}

/// Restricts an ascending posting list to the id range `[lo, hi)`. Deltas
/// are suffixes of their relation, so `hi` is almost always the current
/// length and `lo == 0` means no lower restriction — both cases skip their
/// binary search.
#[inline]
fn narrow(ids: &[u32], range: Option<(u32, u32)>, len: u32) -> &[u32] {
    match range {
        Some((lo, hi)) => {
            let from = if lo == 0 {
                0
            } else {
                ids.partition_point(|&id| id < lo)
            };
            let to = if hi >= len {
                ids.len()
            } else {
                ids.partition_point(|&id| id < hi)
            };
            &ids[from..to]
        }
        None => ids,
    }
}

/// Iterator over a contiguous id range of a relation, yielding arena rows.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    rel: &'a Relation,
    next: u32,
    end: u32,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Const];

    #[inline]
    fn next(&mut self) -> Option<&'a [Const]> {
        if self.next >= self.end {
            return None;
        }
        let row = self.rel.row(self.next);
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// Two relations are equal when they hold the same rows, in any order: row
/// ids and built indexes are not compared.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.len == other.len
            && (self.iter().zip(&self.hashes)).all(|(row, &h)| other.contains_row_hashed(h, row))
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation(arity={}, {} tuples)", self.arity, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn syms(names: &[&str]) -> Vec<Const> {
        names.iter().map(|n| Const::sym(n)).collect()
    }

    #[test]
    fn equality_compares_rows_in_any_order() {
        let (mut a, mut b) = (Relation::new(2), Relation::new(2));
        for r in [["a", "b"], ["b", "c"], ["c", "a"]] {
            a.insert_row(&syms(&r));
        }
        for r in [["c", "a"], ["a", "b"], ["b", "c"]] {
            b.insert_row(&syms(&r));
        }
        b.ensure_index(Mask::of_columns(&[0]));
        assert_eq!(a, b);
        b.remove_row(&syms(&["a", "b"]));
        assert_ne!(a, b);
        b.insert_row(&syms(&["a", "c"]));
        assert_ne!(a, b, "same length, different rows");
        assert_ne!(Relation::new(1), Relation::new(2));
    }

    /// How many rows `key` finds under `mask`.
    fn hits(r: &Relation, mask: Mask, key: &[Const]) -> usize {
        r.probe(mask, key).0.count()
    }

    fn edges() -> Relation {
        let mut r = Relation::new(2);
        for (a, b) in [("a", "b"), ("b", "c"), ("a", "c")] {
            r.insert_row(&syms(&[a, b]));
        }
        r
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new(2);
        assert!(r.insert_row(&syms(&["a", "b"])));
        assert!(!r.insert_row(&syms(&["a", "b"])));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_is_enforced() {
        let mut r = Relation::new(2);
        r.insert_row(&syms(&["a"]));
    }

    #[test]
    fn probe_without_index_scans() {
        let r = edges();
        let mask = Mask::of_columns(&[0]);
        let key = [Const::sym("a")];
        let (it, indexed) = r.probe(mask, &key);
        assert!(!indexed);
        assert_eq!(it.count(), 2);
    }

    #[test]
    fn probe_with_index() {
        let mut r = edges();
        let mask = Mask::of_columns(&[0]);
        r.ensure_index(mask);
        assert!(r.has_index(mask));
        let key = [Const::sym("a")];
        let (it, indexed) = r.probe(mask, &key);
        assert!(indexed);
        let got: Vec<_> = it.collect();
        assert_eq!(got.len(), 2);
        // Missing key yields nothing.
        assert_eq!(hits(&r, mask, &[Const::sym("zzz")]), 0);
    }

    #[test]
    fn index_is_maintained_on_insert() {
        let mut r = edges();
        let mask = Mask::of_columns(&[1]);
        r.ensure_index(mask);
        r.insert_row(&syms(&["d", "c"]));
        assert_eq!(hits(&r, mask, &[Const::sym("c")]), 3);
    }

    #[test]
    fn empty_mask_probes_everything() {
        let r = edges();
        let (it, indexed) = r.probe(Mask(0), &[]);
        assert!(!indexed);
        assert_eq!(it.count(), 3);
    }

    #[test]
    fn multi_column_mask() {
        let mut r = edges();
        let mask = Mask::of_columns(&[0, 1]);
        r.ensure_index(mask);
        assert_eq!(hits(&r, mask, &[Const::sym("a"), Const::sym("c")]), 1);
        assert_eq!(mask.columns().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(mask.count(), 2);
    }

    #[test]
    fn rows_in_slices_new_tuples() {
        let mut r = edges();
        let watermark = r.len() as u32;
        r.insert_row(&syms(&["x", "y"]));
        assert_eq!(r.rows_in(watermark, u32::MAX).len(), 1);
        assert_eq!(r.rows_in(0, u32::MAX).len(), 4);
        assert_eq!(r.rows_in(999, u32::MAX).len(), 0);
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let r = edges();
        let first = r.iter().next().unwrap();
        assert_eq!(first, &syms(&["a", "b"]));
    }

    #[test]
    fn probe_ids_are_ascending_and_exact() {
        let mut r = Relation::new(2);
        for i in 0..100u32 {
            r.insert_row(&[Const::int(i64::from(i % 3)), Const::int(i64::from(i))]);
        }
        let mask = Mask::of_columns(&[0]);
        r.ensure_index(mask);
        let key = [Const::int(1)];
        let ids = r
            .probe_ids(mask, hash_row(&key), |rep| rep[0] == key[0])
            .unwrap();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "posting list sorted");
        assert_eq!(ids.len(), 33); // i % 3 == 1 for i in 0..100

        for &id in ids {
            assert_eq!(r.row(id)[0], Const::int(1));
        }
    }

    #[test]
    fn arity_zero_relation() {
        // The propositional edge case: one possible row, the empty one.
        let mut r = Relation::new(0);
        assert!(r.is_empty());
        assert!(!r.contains_row(&[]));
        assert!(r.insert_row(&[]));
        assert!(!r.insert_row(&[]), "the empty row is a duplicate of itself");
        assert_eq!(r.len(), 1);
        assert!(r.contains_row(&[]));
        assert_eq!(r.iter().count(), 1);
        assert_eq!(r.iter().next().unwrap(), &[] as &[Const]);
        assert!(r.remove_row(&[]));
        assert!(r.is_empty());
        assert!(!r.contains_row(&[]));
    }

    #[test]
    fn arity_sixtyfour_mask_limit() {
        // Mask bit 63 is the last legal column; a 64-column relation works
        // end to end (insert, dedup, index on the top column, probe).
        let row: Vec<Const> = (0..64).map(Const::int).collect();
        let mut r = Relation::new(64);
        assert!(r.insert_row(&row));
        assert!(!r.insert_row(&row));
        let mask = Mask::of_columns(&[63]);
        r.ensure_index(mask);
        assert_eq!(hits(&r, mask, &[Const::int(63)]), 1);
        assert_eq!(hits(&r, mask, &[Const::int(0)]), 0);
        let mut other = row.clone();
        other[63] = Const::int(999);
        assert!(r.insert_row(&other));
        assert_eq!(r.len(), 2);
        assert_eq!(hits(&r, mask, &[Const::int(999)]), 1);
    }

    #[test]
    #[should_panic(expected = "arity limit is 64")]
    fn mask_rejects_column_64() {
        Mask::of_columns(&[64]);
    }

    /// A relation of `arity` holding `rows` (integer cells).
    fn ints(arity: usize, rows: impl IntoIterator<Item = Vec<i64>>) -> Relation {
        let mut r = Relation::new(arity);
        for row in rows {
            r.insert_row(&row.into_iter().map(Const::int).collect::<Vec<_>>());
        }
        r
    }

    #[test]
    fn remove_rows_rebuilds_ids_indexes_and_dedup() {
        let mut r = Relation::new(2);
        let mask = Mask::of_columns(&[0]);
        r.ensure_index(mask);
        for i in 0..10 {
            r.insert_row(&[Const::int(i % 2), Const::int(i)]);
        }
        let victims = ints(2, (0..5).map(|i| vec![i % 2, i]));
        assert_eq!(r.remove_rows(&victims), 5);
        assert_eq!(r.len(), 5);
        // Ids are re-densified: the survivors are rows 0..5 in their old
        // relative order, the index reflects exactly them, and re-inserting
        // a victim succeeds (the dedup table forgot it).
        assert_eq!(hits(&r, mask, &[Const::int(1)]), 3); // 5, 7, 9
        assert!(!r.contains_row(&[Const::int(0), Const::int(4)]));
        assert!(r.insert_row(&[Const::int(0), Const::int(4)]));
        assert_eq!(hits(&r, mask, &[Const::int(0)]), 3); // 6, 8, new 4
    }

    #[test]
    fn both_removal_paths_agree_with_a_model() {
        // Remove the same victims as one batch (the compaction) and one row
        // at a time (tail swaps), and check every observable against a
        // model: length, membership, dedup (re-insertion), index probes.
        for compact in [false, true] {
            let mut r = Relation::new(2);
            let m0 = Mask::of_columns(&[0]);
            let m01 = Mask::of_columns(&[0, 1]);
            r.ensure_index(m0);
            r.ensure_index(m01);
            let mut model: Vec<(i64, i64)> = Vec::new();
            for i in 0..60 {
                r.insert_row(&[Const::int(i % 5), Const::int(i)]);
                model.push((i % 5, i));
            }
            // Every third row, plus one absent row.
            let victims: Vec<Vec<i64>> = (0..60)
                .step_by(3)
                .map(|i| vec![i % 5, i])
                .chain([vec![99, 99]])
                .collect();
            let dropped = if compact {
                assert!(victims.len() * 8 >= r.len(), "one compaction");
                r.remove_rows(&ints(2, victims))
            } else {
                victims
                    .into_iter()
                    .map(|v| {
                        assert!(8 < r.len(), "one tail swap");
                        r.remove_rows(&ints(2, [v]))
                    })
                    .sum()
            };
            assert_eq!(dropped, 20, "compact={compact}");
            assert_eq!(r.remove_rows(&ints(1, [vec![1]])), 0, "wrong arity");
            model.retain(|&(_, i)| i % 3 != 0);
            assert_eq!(r.len(), model.len());
            for &(k, i) in &model {
                let row = [Const::int(k), Const::int(i)];
                let id = r.id_of(&row).expect("survivor present");
                assert_eq!(r.row(id), row, "the id names its own row");
            }
            for k in 0..5i64 {
                let want = model.iter().filter(|&&(a, _)| a == k).count();
                assert_eq!(hits(&r, m0, &[Const::int(k)]), want, "k={k}");
            }
            // Posting lists stay ascending (binary-search probes rely on it).
            for index in r.indexes.values() {
                for grp in &index.groups {
                    let ids = grp.ids.as_slice();
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted postings");
                }
            }
            // The dedup table forgot the victims and still dedups survivors.
            assert!(r.insert_row(&[Const::int(0), Const::int(0)]));
            assert!(!r.insert_row(&[Const::int(1), Const::int(1)]));
        }
    }

    #[test]
    fn swap_removal_drops_emptied_groups_and_redirects_moved_ones() {
        // One group per key under the full mask: removals empty groups
        // constantly, exercising group swap_remove + table redirection.
        let mut r = Relation::new(2);
        let mask = Mask::of_columns(&[0, 1]);
        r.ensure_index(mask);
        for i in 0..40i64 {
            r.insert_row(&[Const::int(i), Const::int(-i)]);
        }
        for i in (0..20i64).rev().map(|k| 2 * k) {
            assert!(8 < r.len(), "one tail swap");
            assert!(r.remove_row(&[Const::int(i), Const::int(-i)]));
        }
        assert_eq!(r.len(), 20);
        for i in 0..40i64 {
            let key = [Const::int(i), Const::int(-i)];
            assert_eq!(hits(&r, mask, &key), usize::from(i % 2 == 1), "i={i}");
            assert_eq!(r.contains_row(&key), i % 2 == 1);
        }
    }

    #[test]
    fn removal_dispatch_covers_both_paths() {
        // Small victim sets take the swap path, large ones the compaction;
        // either way the observable result is the same set difference.
        let build = || {
            let mut r = ints(1, (0..100).map(|i| vec![i]));
            r.ensure_index(Mask::of_columns(&[0]));
            r
        };
        let mut small = build();
        assert_eq!(small.remove_rows(&ints(1, [vec![7]])), 1);
        assert_eq!(small.len(), 99);
        assert!(!small.contains_row(&[Const::int(7)]));

        let mut big = build();
        assert_eq!(big.remove_rows(&ints(1, (0..50).map(|i| vec![i]))), 50);
        assert_eq!(big.len(), 50);
        for i in 0..100i64 {
            assert_eq!(big.contains_row(&[Const::int(i)]), i >= 50);
        }
    }

    #[test]
    fn duplicate_heavy_stream_grows_nothing() {
        // Hammer the dedup path: many duplicates interleaved with few
        // distinct rows, with an index live so maintenance also dedups.
        let mut r = Relation::new(1);
        r.ensure_index(Mask::of_columns(&[0]));
        let mut new = 0;
        for i in 0..10_000u32 {
            if r.insert_row(&[Const::int(i64::from(i % 17))]) {
                new += 1;
            }
        }
        assert_eq!(new, 17);
        assert_eq!(r.len(), 17);
        for k in 0..17 {
            assert_eq!(hits(&r, Mask::of_columns(&[0]), &[Const::int(k)]), 1);
        }
    }

    #[test]
    fn arity_zero_removal_that_misses_keeps_the_row() {
        let mut r = Relation::new(0);
        r.insert_row(&[]);
        assert_eq!(r.remove_rows(&ints(1, [vec![9]])), 0);
        assert!(!r.remove_row(&[Const::int(9)]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn id_of_resolves_rows_and_misses_cleanly() {
        let r = edges();
        let id = r.id_of(&syms(&["b", "c"])).unwrap();
        assert_eq!(r.row(id), &syms(&["b", "c"]));
        assert!(r.id_of(&syms(&["z", "z"])).is_none());
        assert!(r.id_of(&[Const::sym("a")]).is_none(), "arity mismatch");
    }

    /// Checks every index of `r` against `model`: each posting list is
    /// ascending and non-empty, and `probe_ids` under column 0 returns
    /// exactly the model's rows of each key.
    fn agrees_with(r: &Relation, model: &BTreeSet<(i64, i64)>, keys: i64) {
        assert_eq!(r.len(), model.len());
        for index in r.indexes.values() {
            for grp in &index.groups {
                let ids = grp.ids.as_slice();
                assert!(!ids.is_empty(), "no empty group");
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted postings");
            }
        }
        let mask = Mask::of_columns(&[0]);
        for k in 0..keys {
            let key = [Const::int(k)];
            let ids = r.probe_ids(mask, hash_row(&key), |rep| rep[0] == key[0]);
            let got: BTreeSet<(i64, i64)> = ids
                .unwrap()
                .iter()
                .map(|&id| match r.row(id) {
                    [Const::Int(a), Const::Int(b)] => (*a, *b),
                    row => panic!("unexpected row {row:?}"),
                })
                .collect();
            let want: BTreeSet<_> = model
                .range((k, i64::MIN)..=(k, i64::MAX))
                .copied()
                .collect();
            assert_eq!(got, want, "key {k}");
        }
    }

    #[test]
    fn posting_lists_agree_with_a_model_across_the_spill_boundary() {
        // Key `k` owns `k` rows, for every group size from 1 to twice the
        // inline capacity plus one. Rows go in round-robin over the keys,
        // so every group grows through the spill while the others grow, and
        // the last round adds one row to every key, so the tail rows that
        // swap removals rename belong to groups of every size.
        let keys = 2 * INLINE_IDS as i64 + 2;
        let all: Vec<(i64, i64)> = (0..keys)
            .rev()
            .flat_map(|j| (j + 1..keys).map(move |k| (k, j)))
            .collect();
        let fill = |r: &mut Relation, model: &mut BTreeSet<(i64, i64)>| {
            for &(k, j) in &all {
                assert!(r.insert_row(&[Const::int(k), Const::int(j)]));
                model.insert((k, j));
            }
        };
        let spilled = |r: &Relation, row: &[Const]| {
            let index = &r.indexes[&Mask::of_columns(&[0])];
            let g = index.group_of(row, |id| r.row(id));
            matches!(index.groups[g as usize].ids, Postings::Spilled(_))
        };

        // Insert, with indexes built before the rows and after them.
        let mut r = Relation::new(2);
        let mut model = BTreeSet::new();
        r.ensure_index(Mask::of_columns(&[0]));
        fill(&mut r, &mut model);
        r.ensure_index(Mask::of_columns(&[0, 1]));
        agrees_with(&r, &model, keys);
        for k in 1..keys {
            let row = [Const::int(k), Const::int(0)];
            assert_eq!(spilled(&r, &row), k as usize > INLINE_IDS, "key {k}");
        }

        // Single removals take the swap path; note the form of the group
        // each renamed tail row lands in.
        let mut renamed = [false; 2];
        for (i, &(k, j)) in all.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
            assert!(8 < r.len(), "one tail swap");
            let tail = r.row(r.len() as u32 - 1).to_vec();
            if tail != [Const::int(k), Const::int(j)] {
                renamed[usize::from(spilled(&r, &tail))] = true;
            }
            assert!(r.remove_row(&[Const::int(k), Const::int(j)]), "row {i}");
            model.remove(&(k, j));
            agrees_with(&r, &model, keys);
        }
        assert_eq!(renamed, [true; 2], "tails renamed into both forms");

        // A batch of a third of the rows takes the compaction.
        let victims: Vec<(i64, i64)> = model.iter().copied().step_by(3).collect();
        assert!(victims.len() * 8 >= r.len(), "one compaction");
        let batch = ints(2, victims.iter().map(|&(k, j)| vec![k, j]));
        assert_eq!(r.remove_rows(&batch), victims.len());
        victims.iter().for_each(|v| _ = model.remove(v));
        agrees_with(&r, &model, keys);

        // Cleared rows drop the indexes; re-inserting rebuilds both forms.
        r.clear_rows();
        model.clear();
        agrees_with(&Relation::new(2), &model, 0);
        fill(&mut r, &mut model);
        r.ensure_index(Mask::of_columns(&[0]));
        agrees_with(&r, &model, keys);
    }

    #[test]
    fn a_group_is_a_hash_beside_a_vector() {
        assert_eq!(std::mem::size_of::<Group>(), 32);
    }

    #[test]
    fn hash_collisions_stay_distinct_groups() {
        // Even if two projections collided on the 64-bit hash, the
        // representative-row comparison keeps their groups apart. We cannot
        // easily force a collision, but we can at least verify that probes
        // with equal single-column values and different other columns group
        // correctly under a multi-column index.
        let mut r = Relation::new(2);
        let mask = Mask::of_columns(&[0, 1]);
        r.ensure_index(mask);
        for i in 0..50 {
            r.insert_row(&[Const::int(i / 10), Const::int(i % 10)]);
        }
        for i in 0..50 {
            let key = [Const::int(i / 10), Const::int(i % 10)];
            assert_eq!(hits(&r, mask, &key), 1, "key {key:?}");
        }
    }

    #[test]
    fn matching_through_an_index_equals_the_scan() {
        // Random rows over a small domain, so patterns hit groups of every
        // size; `indexed` carries an index for every binding pattern.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut scanned = Relation::new(3);
        for _ in 0..120 {
            let row = [0; 3].map(|_| Const::int(next(4) as i64));
            scanned.insert_row(&row);
        }
        let mut indexed = scanned.clone();
        for m in 1..8u64 {
            indexed.ensure_index(Mask(m));
        }
        let (x, y) = (Term::var("X"), Term::var("Y"));
        for _ in 0..500 {
            // A constant, `X` or `Y` per column: repeated variables and
            // constant-free patterns come up often.
            let pattern = [0; 3].map(|_| match next(6) {
                0 => x,
                1 => y,
                k => Term::Const(Const::int(k as i64 - 2)),
            });
            let consts = pattern.iter().filter(|t| matches!(t, Term::Const(_)));
            assert_eq!(
                indexed.constant_group(&pattern).is_some(),
                consts.count() > 0,
                "{pattern:?} takes the index exactly when it has a constant"
            );
            assert!(scanned.constant_group(&pattern).is_none());
            let got: Vec<&[Const]> = indexed.matching(&pattern).collect();
            let want: Vec<&[Const]> = scanned.matching(&pattern).collect();
            assert_eq!(got, want, "{pattern:?}");
        }
    }
}
