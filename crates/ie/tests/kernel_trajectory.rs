//! The MH step path's two contracts, pinned where a kernel change cannot
//! miss them:
//!
//! * **Trajectory** — at a fixed seed the chain visits exactly the worlds
//!   it visited before the step path was rewritten (PR 20): same RNG draws
//!   in the same order, bit-identical `log α`. The expected values below
//!   were captured at the parent commit (two neighbourhood passes, a fresh
//!   `Vec` per proposal) and must never be re-taken to make a kernel change
//!   pass — a different number here is a different sampler.
//! * **Allocation** — once `Chain::pending` has reached its working size, a
//!   `Chain::run` over a CRF allocates nothing: the kernel owns the proposal
//!   buffer, a relabel is scored as a delta in one pass, and the world is
//!   written only on acceptance.
//!
//! (The goldens go through `f64::ln` — weight seeding and the accept draw —
//! so they are pinned for a correctly rounded libm, which glibc's is.)

use fgdb_graph::{EvalStats, VariableId};
use fgdb_ie::{Corpus, CorpusConfig, Crf, TokenSeqData};
use fgdb_mcmc::{Chain, KernelStats, LocalityProposer, Proposer, UniformRelabel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts this thread's heap allocations (the test harness allocates on
/// its own threads at will).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        num_docs: 6,
        mean_doc_len: 40,
        common_vocab: 40,
        entities_per_type: 6,
        entity_rate: 0.25,
        repeat_rate: 0.6,
        cue_rate: 0.3,
        seed: 5,
    })
}

/// A skip-chain CRF chain over the tiny corpus: uniform relabelling over
/// every token, or the paper's document-locality batches.
fn chain(uniform: bool, seed: u64) -> Chain<Arc<Crf>> {
    let corpus = corpus();
    let data = TokenSeqData::from_corpus(&corpus, 8);
    assert!(data.num_skip_edges() > 0, "the goldens need skip factors");
    let mut crf = Crf::skip_chain(Arc::clone(&data));
    crf.seed_from_truth(&corpus, 1.0);
    let proposer: Box<dyn Proposer> = if uniform {
        Box::new(UniformRelabel::new(crf.variables()))
    } else {
        let groups = data
            .doc_ranges()
            .iter()
            .map(|r| r.clone().map(|t| VariableId(t as u32)).collect())
            .collect();
        Box::new(LocalityProposer::new(groups, 2, 150))
    };
    let world = crf.new_world();
    Chain::new(Arc::new(crf), proposer, world, seed)
}

fn fnv(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Everything a trajectory is observed through.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    world: u64,
    stats: KernelStats,
    rng: [u64; 4],
    /// Net changes reported over all intervals, and their hash.
    changes: (usize, u64),
}

/// 40 intervals of 100 steps, flushing `take_changes()` after each.
fn trajectory(uniform: bool, seed: u64) -> Golden {
    let mut chain = chain(uniform, seed);
    let mut changes = (0usize, 0xcbf2_9ce4_8422_2325u64);
    for _ in 0..40 {
        chain.run(100);
        for (v, old, new) in chain.take_changes() {
            changes.0 += 1;
            fnv(&mut changes.1, u64::from(v.0));
            fnv(&mut changes.1, old as u64);
            fnv(&mut changes.1, new as u64);
        }
    }
    let mut world = 0xcbf2_9ce4_8422_2325u64;
    for &label in chain.world().assignment() {
        fnv(&mut world, u64::from(label));
    }
    let state = chain.rng_state();
    let rng = std::array::from_fn(|i| {
        u64::from_le_bytes(state[i * 8..(i + 1) * 8].try_into().expect("8 bytes"))
    });
    Golden {
        world,
        stats: chain.stats(),
        rng,
        changes,
    }
}

fn stats(
    proposals: u64,
    accepted: u64,
    factors_evaluated: u64,
    neighborhood_scores: u64,
) -> KernelStats {
    KernelStats {
        proposals,
        accepted,
        eval: EvalStats {
            factors_evaluated,
            neighborhood_scores,
        },
    }
}

#[test]
fn uniform_relabel_trajectory_is_pinned() {
    assert_eq!(
        trajectory(true, 0x5eed),
        Golden {
            world: 13312649852245850183,
            stats: stats(4000, 1841, 45134, 8000),
            rng: [
                7178419662122506746,
                17413500128901747575,
                15960673333942021686,
                9572361809644416860,
            ],
            changes: (1241, 1553154032546221419),
        }
    );
}

#[test]
fn locality_proposer_trajectory_is_pinned() {
    assert_eq!(
        trajectory(false, 20),
        Golden {
            world: 5246577107216999779,
            stats: stats(4000, 1840, 44368, 8000),
            rng: [
                12178726429642352085,
                8265326154209692558,
                12426183112887663238,
                9191840392088587362,
            ],
            changes: (1025, 3266850683266907164),
        }
    );
}

#[test]
fn chain_run_over_a_crf_allocates_nothing() {
    for uniform in [true, false] {
        let mut chain = chain(uniform, 7);
        // Warm-up: `pending` grows (and sheds its tombstones) until it holds
        // every variable the walk can touch; flushing keeps that capacity.
        chain.run(200_000);
        let before = allocations();
        chain.run(10_000);
        assert_eq!(
            allocations() - before,
            0,
            "uniform = {uniform}: a step allocated with pending warm"
        );
        let flushed = chain.take_changes();
        let before = allocations();
        chain.run(10_000);
        assert_eq!(
            allocations() - before,
            0,
            "uniform = {uniform}: a step allocated after a flush"
        );
        assert!(!flushed.is_empty() && chain.stats().accepted > 0);
    }
}
