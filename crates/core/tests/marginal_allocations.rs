//! An answer read walks the marginal table's tuple order; it neither sorts
//! nor iterates a hash map — pinned as allocation counts:
//!
//! * Recording crossings that name only tuples the table already holds
//!   allocates nothing: each is one hash probe and a run update, and the
//!   answer order has nothing to merge.
//! * `probabilities()` allocates exactly once, the returned `Vec` at its
//!   final size: no collected copy of the support to sort, no sort buffer.

use fgdb_core::{Crossing, MarginalTable};
use fgdb_relational::{tuple, CountedSet, Tuple};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's heap allocations and the bytes they request (the
/// test harness allocates on its own threads at will).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| {
        let (count, total) = n.get();
        n.set((count + 1, total + bytes as u64));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` made by `f` on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let (c0, b0) = ALLOCATIONS.with(Cell::get);
    let out = f();
    let (c1, b1) = ALLOCATIONS.with(Cell::get);
    ((c1 - c0, b1 - b0), out)
}

/// A two-column answer tuple, so the order compares strings first.
fn row(i: u64) -> Tuple {
    tuple![format!("w{}", i % 97), i as i64]
}

#[test]
fn known_crossings_and_answer_reads_allocate_only_the_answer() {
    const SUPPORT: u64 = 2_000;
    let mut table = MarginalTable::new();
    // Warm-up: every tuple enters, the odd ones leave again, and the
    // first read builds the answer order.
    table.record(&CountedSet::from_tuples((0..SUPPORT).map(row)));
    table.record(&CountedSet::from_tuples((0..SUPPORT).step_by(2).map(row)));
    let first = table.probabilities();
    assert_eq!(first.len(), SUPPORT as usize);

    // Known tuples only: odd ones re-enter, a third of the even ones leave.
    let crossings: Vec<Crossing> = (0..SUPPORT)
        .filter(|i| i % 2 == 1 || i % 3 == 0)
        .map(|i| Crossing {
            tuple: row(i),
            entered: i % 2 == 1,
        })
        .collect();
    for _ in 0..3 {
        let ((allocs, bytes), ()) = allocations_of(|| table.record_crossings(&crossings));
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "recording known tuples' crossings allocated"
        );
        let ((allocs, bytes), read) = allocations_of(|| table.probabilities());
        assert_eq!(read.len(), SUPPORT as usize);
        assert_eq!(
            (allocs, bytes as usize),
            (1, read.len() * std::mem::size_of::<(Tuple, f64)>()),
            "a read allocates its result and nothing else"
        );
        assert!(
            read.windows(2).all(|w| w[0].0 < w[1].0),
            "read in tuple order"
        );
    }
    assert_eq!(table.samples(), 5);
}
