//! An answer read walks the marginal table's tuple order; it neither sorts
//! nor iterates a hash map — pinned as allocation counts:
//!
//! * Recording crossings that name only tuples the table already holds
//!   allocates nothing: each is one hash probe and a run update, and the
//!   answer order has nothing to merge.
//! * `probabilities()` allocates exactly once, the returned `Vec` at its
//!   final size: no collected copy of the support to sort, no sort buffer.
//! * A warm `MembershipLog::diagnose` — its buffers grown to the window's
//!   events — allocates nothing: the verdict groups events and folds
//!   runs of ones in buffers the log keeps, never building a trace.

use fgdb_core::{Crossing, MarginalTable, MembershipLog};
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

#[test]
fn a_warm_window_verdict_allocates_nothing() {
    const WINDOW: usize = 64;
    const TUPLES: usize = 24;
    let tuples: Vec<Tuple> = (0..TUPLES as u64).map(row).collect();
    let mut present = [false; TUPLES];
    let mut log = MembershipLog::new(WINDOW);
    log.record(&[]);
    // Tuple i toggles at every sample s with s ≡ i (mod 4): six crossings
    // a sample, so once the window is full it always holds the same number
    // of events and every tuple the same number of runs.
    let mut sample = |log: &mut MembershipLog, s: usize| {
        let crossed: Vec<Crossing> = (0..TUPLES)
            .filter(|i| i % 4 == s % 4)
            .map(|i| {
                present[i] = !present[i];
                Crossing {
                    tuple: tuples[i].clone(),
                    entered: present[i],
                }
            })
            .collect();
        log.record(&crossed);
    };
    for s in 1..=2 * WINDOW {
        sample(&mut log, s);
        log.diagnose();
    }
    assert_eq!(log.events_in_window(), (WINDOW - 1) * TUPLES / 4);
    for s in 2 * WINDOW + 1..=3 * WINDOW {
        sample(&mut log, s);
        let ((allocs, bytes), (r_hat, ess)) = allocations_of(|| log.diagnose());
        assert_eq!((allocs, bytes), (0, 0), "a warm verdict allocated");
        assert!(r_hat.is_finite() && r_hat >= 0.0);
        assert!(ess > 0.0 && ess <= WINDOW as f64);
    }
}
