//! Index builds, copies and drops allocate a bounded number of times, not
//! once per key: a posting list of a few ids lives inside its key group.
//!
//! A counting global allocator sees every allocation in the process, so
//! this binary holds exactly one test — no other test can allocate while
//! it counts.

use alexander_ir::{Const, Predicate};
use alexander_storage::{Database, Mask};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and frees made by `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (a, d) = (ALLOCS.load(Ordering::SeqCst), FREES.load(Ordering::SeqCst));
    let out = f();
    let a = ALLOCS.load(Ordering::SeqCst) - a;
    let d = FREES.load(Ordering::SeqCst) - d;
    (out, a, d)
}

/// The bound every step below must stay under. Table and group vectors
/// grow by doubling, so an index build's count is logarithmic in the row
/// count (about 30 at 32,768 rows); one allocation per key would be
/// thousands.
const BOUND: usize = 64;

#[test]
fn index_build_clone_and_drop_allocate_a_bounded_number_of_times() {
    let par = Predicate::new("par", 2);
    let by_parent = Mask::of_columns(&[0]);
    for n in [1_024i64, 32_768] {
        // Two rows per key under `by_parent`, as in a binary tree's `par`.
        let mut db = Database::new();
        for i in 0..n {
            db.insert_row(par, &[Const::int(i / 2), Const::int(i)]);
        }

        let ((), built, _) = counted(|| db.ensure_index(par, by_parent));
        assert!(
            built <= BOUND,
            "n={n}: ensure_index allocated {built} times"
        );

        let (copy, cloned, _) = counted(|| {
            let mut copy = db.clone();
            copy.relation_mut(par);
            copy
        });
        assert!(!copy.shares_relation(&db, par), "the first write copies");
        assert!(
            cloned <= BOUND,
            "n={n}: clone + write allocated {cloned} times"
        );

        let ((), _, freed) = counted(|| drop(copy));
        assert!(freed <= BOUND, "n={n}: the drop freed {freed} blocks");

        let ((), _, freed) = counted(|| drop(db));
        assert!(
            freed <= BOUND,
            "n={n}: the original's drop freed {freed} blocks"
        );
    }
}
