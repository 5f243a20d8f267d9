//! A scan builds a tuple only where something keeps the row — pinned as
//! allocation counts on a TOKEN relation at two sizes:
//!
//! * `execute(q2)` — a global filtered COUNT over a scan — allocates the
//!   same number of times, and the same bytes, at 10 K and at 100 K rows:
//!   the FILTER is evaluated over the stored `label` column in place.
//! * `execute(q1)` — π over σ over a scan — allocates per distinct answer
//!   row, not per surviving row: far below one allocation per four
//!   survivors, because π composes its output from the stored row and the
//!   answer multiset builds a tuple only for a row it does not hold yet.
//! * `MaterializedView::new(q2)` allocates the same number of times and
//!   the same bytes at both sizes: the circuit pushes the stored rows
//!   into the γ accumulators instead of seeding the view from a copy of
//!   the relation.
//! * One delta batch through the q1 view — a word relabelled B-PER and a
//!   name relabelled O — allocates a pinned, small number of times: the
//!   circuit walks each node's delta without boxing an iterator, and hands
//!   back its output Z-set's map as the answer delta instead of re-hashing
//!   it into a second one.
//! * A LINK row that arrives with a heap string (`Value::str("on")`, as
//!   e2e's `closure_links` builds it) costs two allocations for the
//!   string, one for the tuple, and none to insert: storage interns a row
//!   it owns in place.

use fgdb_relational::parser::paper_sql;
use fgdb_relational::{
    compile_query, execute, tuple, Database, DeltaSet, MaterializedView, Schema, Value, ValueType,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// Every tenth token is a person; person strings come from a 40-name
/// vocabulary, everything else from a 500-word one.
fn token_db(rows: i64) -> Database {
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[
        ("tok_id", ValueType::Int),
        ("doc_id", ValueType::Int),
        ("string", ValueType::Str),
        ("label", ValueType::Str),
        ("truth", ValueType::Str),
    ])
    .unwrap()
    .with_primary_key("tok_id")
    .unwrap();
    db.create_relation("TOKEN", schema).unwrap();
    let rel = db.relation_mut("TOKEN").unwrap();
    for i in 0..rows {
        let (string, label) = if i % 10 == 0 {
            (format!("name{}", (i / 10) % 40), "B-PER")
        } else {
            (format!("word{}", i % 500), "O")
        };
        rel.insert(tuple![i, i / 200, string, label, label])
            .unwrap();
    }
    db
}

const SIZES: [i64; 2] = [10_000, 100_000];

#[test]
fn a_filtered_count_over_a_scan_allocates_the_same_at_any_row_count() {
    let q2 = paper_sql::query2("TOKEN");
    let measured: Vec<(u64, u64)> = SIZES
        .iter()
        .map(|&n| {
            let db = token_db(n);
            let plan = compile_query(&q2, &db).unwrap();
            let (allocs, result) = allocations_of(|| execute(&plan, &db).unwrap());
            assert_eq!(result.0.rows.sorted_support(), vec![tuple![n / 10]]);
            allocs
        })
        .collect();
    assert_eq!(
        measured[0], measured[1],
        "(allocations, bytes) at 10 K vs 100 K rows"
    );
}

#[test]
fn a_projection_over_a_scan_allocates_per_distinct_answer_not_per_survivor() {
    let db = token_db(100_000);
    let plan = compile_query(&paper_sql::query1("TOKEN"), &db).unwrap();
    let ((allocs, _), (result, _)) = allocations_of(|| execute(&plan, &db).unwrap());
    let survivors = result.rows.total() as u64;
    assert_eq!(survivors, 10_000);
    assert_eq!(result.rows.distinct_len(), 40);
    assert!(
        allocs * 4 <= survivors,
        "{allocs} allocations for {survivors} surviving rows"
    );
}

#[test]
fn a_view_of_a_filtered_count_allocates_the_same_at_any_row_count() {
    let q2 = paper_sql::query2("TOKEN");
    let measured: Vec<(u64, u64)> = SIZES
        .iter()
        .map(|&n| {
            let db = token_db(n);
            let plan = compile_query(&q2, &db).unwrap();
            let (allocs, view) = allocations_of(|| MaterializedView::new(&plan, &db).unwrap());
            assert_eq!(view.result().sorted_support(), vec![tuple![n / 10]]);
            allocs
        })
        .collect();
    assert_eq!(
        measured[0], measured[1],
        "(allocations, bytes) at 10 K vs 100 K rows"
    );
}

#[test]
fn a_q1_delta_batch_allocates_a_pinned_count() {
    let db = token_db(10_000);
    let plan = compile_query(&paper_sql::query1("TOKEN"), &db).unwrap();
    let mut view = MaterializedView::new(&plan, &db).unwrap();
    let token: Arc<str> = Arc::from("TOKEN");
    // Token `i` relabelled from `from` to `to` (the stored row and its
    // image, as the sampler's write-back records them).
    let relabel = |delta: &mut DeltaSet, i: i64, from: &str, to: &str| {
        let string = if i % 10 == 0 {
            format!("name{}", (i / 10) % 40)
        } else {
            format!("word{}", i % 500)
        };
        let truth = if i % 10 == 0 { "B-PER" } else { "O" };
        delta.record_update(
            &token,
            tuple![i, i / 200, string.as_str(), from, truth],
            tuple![i, i / 200, string.as_str(), to, truth],
        );
    };
    let batch = |word: i64, name: i64| {
        let mut delta = DeltaSet::new();
        relabel(&mut delta, word, "O", "B-PER");
        relabel(&mut delta, name, "B-PER", "O");
        delta
    };
    // Warm-up: the view's state reaches the sizes the measured batch finds.
    let _ = view.try_apply_delta(&batch(1, 10)).unwrap();
    let delta = batch(3, 20);
    let ((allocs, _), out) = allocations_of(|| view.try_apply_delta(&delta).unwrap());
    assert_eq!(out.sorted_entries().len(), 2, "word3 enters, name2 leaves");
    assert_eq!(allocs, 5, "allocations of one q1 delta batch");
}

#[test]
fn a_link_row_with_a_heap_string_inserts_in_a_pinned_count() {
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[
        ("id", ValueType::Int),
        ("src", ValueType::Int),
        ("dst", ValueType::Int),
        ("state", ValueType::Str),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap();
    db.create_relation("LINK", schema).unwrap();
    let rel = db.relation_mut("LINK").unwrap();
    // Warm-up: the chunk, the key index's buckets and the `on` symbol exist.
    for id in 0..8i64 {
        rel.insert(tuple![id, id, id + 1, Value::str("on")])
            .unwrap();
    }
    let ((value, _), on) = allocations_of(|| Value::str("on"));
    let ((build, _), row) = allocations_of(|| tuple![8i64, 8i64, 9i64, on]);
    let ((insert, _), rid) = allocations_of(|| rel.insert(row).unwrap());
    assert_eq!(
        rel.get(rid).unwrap().to_tuple(),
        tuple![8i64, 8i64, 9i64, "on"]
    );
    assert_eq!(
        (value, build, insert),
        (2, 1, 0),
        "allocations of Value::str, the row's tuple, and its insert"
    );
}
