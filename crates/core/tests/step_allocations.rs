//! The Δ path allocates per changed row, not per stored row or per walk
//! step — pinned as an allocation budget on a warm NER database (skip-chain
//! CRF over a generated corpus, the paper's document-batch proposer):
//!
//! * every `ProbabilisticDB::step` allocates at most two times per net
//!   variable change plus three: the two images `update_field` hands back
//!   are one allocation each, and the interval's change list, image set
//!   and delta map are one each.

use fgdb_core::{build_ner_pdb, NerProposerConfig};
use fgdb_ie::{Corpus, CorpusConfig, Crf, TokenSeqData};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts this thread's heap allocations (the test harness allocates on
/// its own threads at will).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by `f` on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn a_warm_step_allocates_at_most_two_per_net_change_plus_three() {
    let mut cfg = CorpusConfig::with_total_tokens(4_000);
    cfg.seed = 7;
    let corpus = Corpus::generate(&cfg);
    let mut model = Crf::skip_chain(TokenSeqData::from_corpus(&corpus, 8));
    model.seed_from_truth(&corpus, 1.0);
    let mut pdb = build_ner_pdb(&corpus, Arc::new(model), &NerProposerConfig::default(), 11);
    // Warm-up: a burn-in of two sweeps, then intervals until the proposer
    // has loaded every batch size it will meet below.
    let n = corpus.num_tokens();
    pdb.step(2 * n).unwrap();
    for _ in 0..200 {
        pdb.step(100).unwrap();
    }

    let (mut changes, mut allocs) = (0, 0);
    for interval in 0..400 {
        let before = pdb.world().assignment().to_vec();
        let (a, _) = allocations_of(|| pdb.step(100).unwrap());
        let net = before
            .iter()
            .zip(pdb.world().assignment())
            .filter(|(b, a)| b != a)
            .count() as u64;
        assert!(
            a <= 2 * net + 3,
            "interval {interval}: {a} allocations for {net} net changes"
        );
        (changes, allocs) = (changes + net, allocs + a);
    }
    assert!(changes > 400, "the walk moves: {changes} net changes");
    println!("{allocs} allocations for {changes} net changes over 400 intervals");
}
