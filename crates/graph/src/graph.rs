//! An explicit factor graph — the bipartite `G = ⟨V, Ψ⟩` of §3.1.
//!
//! [`FactorGraph`] materializes factors and a variable→factor adjacency
//! index, and implements [`Model`] by summing adjacent factors. This is the
//! right representation for *small* graphs: pedagogical examples (Figure 1),
//! exact-inference tests, and unit-scale worlds. The large CRF models of the
//! `fgdb-ie` crate instead implement [`Model`] lazily — the paper is
//! explicit that MCMC lets it "avoid instantiating the factor graphs over
//! the entire database" (§3.3) — but both forms score identically, which the
//! test-suite exploits by cross-checking them on small instances.

use crate::factor::Factor;
use crate::model::{EvalStats, Model};
use crate::variable::VariableId;
use crate::world::World;
use std::cell::RefCell;

/// Reusable dedup scratch for [`FactorGraph::score_neighborhood`]: a
/// generation-stamped seen buffer. Marking a factor seen is one store;
/// resetting between calls is one generation bump — no clearing, no
/// per-step allocation, no O(d²) `Vec::contains` scans.
///
/// The scratch is **thread-local** (see [`SEEN`]): concurrent shard walkers
/// sharing one graph via `Arc` each get their own buffer, so the parallel
/// path never contends and never allocates in steady state. (An earlier
/// revision kept the scratch behind a `Mutex` with an allocating `try_lock`
/// fallback — under concurrent walkers every contended scorer silently
/// allocated per call.)
#[derive(Default)]
struct SeenScratch {
    /// `stamp[f] == gen` ⇔ factor f already scored in the current call.
    stamp: Vec<u32>,
    gen: u32,
    /// Diagnostic: times `stamp` grew. Steady state performs none — the
    /// contention regression test asserts this stays flat per thread.
    resizes: u64,
}

thread_local! {
    /// One dedup scratch per thread, shared by every graph scored on that
    /// thread: the per-call generation bump isolates calls, so stamps left
    /// by another graph are always stale.
    static SEEN: RefCell<SeenScratch> = RefCell::new(SeenScratch::default());
    /// Times this thread ran the re-entrancy fallback (see
    /// `score_neighborhood`). Kept outside [`SEEN`] because it is counted
    /// exactly when that cell is unavailable. Thread-locality makes
    /// cross-thread contention impossible, so this can only fire on
    /// re-entrant scoring from inside a factor — the contention regression
    /// test asserts zero under parallel load.
    static SEEN_FALLBACKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// This thread's `(resizes, fallbacks)` scratch counters — diagnostics for
/// the allocation-free-scoring regression test. Counters are per-thread, so
/// a test owns its workers' numbers regardless of what other threads do.
pub fn seen_scratch_counters() -> (u64, u64) {
    let resizes = SEEN.with(|cell| cell.borrow().resizes);
    let fallbacks = SEEN_FALLBACKS.with(std::cell::Cell::get);
    (resizes, fallbacks)
}

/// An explicit factor graph with adjacency indexing.
#[derive(Default)]
pub struct FactorGraph {
    factors: Vec<Box<dyn Factor>>,
    /// `adjacency[v]` lists the factor indexes touching variable v, each
    /// factor at most once (deduplicated at insertion).
    adjacency: Vec<Vec<u32>>,
}

impl FactorGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a factor, updating adjacency. Returns its index.
    pub fn add_factor(&mut self, factor: Box<dyn Factor>) -> usize {
        // Adjacency lists store factor indexes as `u32`; a graph past 2³²
        // factors is outside what this model size supports.
        let idx = u32::try_from(self.factors.len()).expect("factor indexes fit u32");
        let vars = factor.variables();
        for (i, v) in vars.iter().enumerate() {
            // A factor listing the same variable twice still appears once in
            // that variable's adjacency (it must be scored exactly once).
            if vars[..i].contains(v) {
                continue;
            }
            let vi = v.index();
            if self.adjacency.len() <= vi {
                self.adjacency.resize_with(vi + 1, Vec::new);
            }
            self.adjacency[vi].push(idx);
        }
        self.factors.push(factor);
        idx as usize
    }

    /// Number of factors.
    pub fn num_factors(&self) -> usize {
        self.factors.len()
    }

    /// Factors adjacent to a variable.
    pub fn factors_of(&self, v: VariableId) -> &[u32] {
        self.adjacency
            .get(v.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Degree of a variable (number of adjacent factors).
    pub fn degree(&self, v: VariableId) -> usize {
        self.factors_of(v).len()
    }

    /// The factor at an index.
    pub fn factor(&self, idx: usize) -> &dyn Factor {
        &*self.factors[idx]
    }
}

impl Model for FactorGraph {
    fn score_world(&self, world: &World, stats: &mut EvalStats) -> f64 {
        stats.factors_evaluated += self.factors.len() as u64;
        self.factors.iter().map(|f| f.log_score(world)).sum()
    }

    fn score_neighborhood(&self, world: &World, vars: &[VariableId], stats: &mut EvalStats) -> f64 {
        stats.neighborhood_scores += 1;
        let mut sum = 0.0;
        // Single-variable fast path (the common MH proposal): one variable's
        // adjacency never repeats a factor, so no dedup state is needed.
        if let [v] = vars {
            for &fi in self.factors_of(*v) {
                stats.factors_evaluated += 1;
                sum += self.factors[fi as usize].log_score(world);
            }
            return sum;
        }
        // Deduplicate factors shared between changed variables so each is
        // counted exactly once, as required by the MH ratio of Appendix 9.2.
        // The generation-stamped thread-local scratch makes this O(Σ degree)
        // with zero steady-state allocation on every thread — concurrent
        // shard walkers never contend. `try_borrow_mut` only fails on
        // re-entrant scoring (a factor's own `log_score` calling back into
        // `score_neighborhood`); that degenerate path falls back to a small
        // seen-list scan.
        SEEN.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => {
                scratch.gen = scratch.gen.wrapping_add(1);
                if scratch.gen == 0 {
                    // Generation counter wrapped: old stamps could alias. Reset.
                    scratch.stamp.iter_mut().for_each(|s| *s = 0);
                    scratch.gen = 1;
                }
                if scratch.stamp.len() < self.factors.len() {
                    scratch.resizes += 1;
                    let n = self.factors.len();
                    scratch.stamp.resize(n, 0);
                }
                let gen = scratch.gen;
                for v in vars {
                    for &fi in self.factors_of(*v) {
                        let slot = &mut scratch.stamp[fi as usize];
                        if *slot == gen {
                            continue;
                        }
                        *slot = gen;
                        stats.factors_evaluated += 1;
                        sum += self.factors[fi as usize].log_score(world);
                    }
                }
                sum
            }
            Err(_) => {
                SEEN_FALLBACKS.with(|c| c.set(c.get() + 1));
                let mut seen: Vec<u32> = Vec::with_capacity(vars.len() * 2);
                for v in vars {
                    for &fi in self.factors_of(*v) {
                        if seen.contains(&fi) {
                            continue;
                        }
                        seen.push(fi);
                        stats.factors_evaluated += 1;
                        sum += self.factors[fi as usize].log_score(world);
                    }
                }
                sum
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{FnFactor, TableFactor};
    use crate::variable::Domain;

    /// Chain of three binary variables with pairwise agreement factors and a
    /// bias on the first.
    fn chain() -> (FactorGraph, World) {
        let d = Domain::of_labels(&["0", "1"]);
        let w = World::new(vec![d.clone(), d.clone(), d]);
        let mut g = FactorGraph::new();
        let agree = |a: u32, b: u32| {
            TableFactor::new(
                vec![VariableId(a), VariableId(b)],
                vec![2, 2],
                // log-scores: agreement rewarded by +1
                vec![1.0, 0.0, 0.0, 1.0],
                format!("agree{a}{b}"),
            )
        };
        g.add_factor(Box::new(agree(0, 1)));
        g.add_factor(Box::new(agree(1, 2)));
        g.add_factor(Box::new(FnFactor::new(
            vec![VariableId(0)],
            |w: &World| if w.get(VariableId(0)) == 1 { 0.5 } else { 0.0 },
            "bias0",
        )));
        (g, w)
    }

    #[test]
    fn adjacency_tracks_factors() {
        let (g, _) = chain();
        assert_eq!(g.num_factors(), 3);
        assert_eq!(g.degree(VariableId(0)), 2); // agree01 + bias
        assert_eq!(g.degree(VariableId(1)), 2); // agree01 + agree12
        assert_eq!(g.degree(VariableId(2)), 1);
        assert_eq!(g.degree(VariableId(9)), 0); // unknown var: empty
    }

    #[test]
    fn world_score_sums_all_factors() {
        let (g, mut w) = chain();
        let mut s = EvalStats::default();
        // all zeros: both agreements fire (+1 each), bias0 off.
        assert_eq!(g.score_world(&w, &mut s), 2.0);
        w.set(VariableId(0), 1);
        // agree01 broken, bias on: 0 + 1 + 0.5
        assert_eq!(g.score_world(&w, &mut s), 1.5);
        assert_eq!(s.factors_evaluated, 6);
    }

    #[test]
    fn neighborhood_deduplicates_shared_factors() {
        let (g, w) = chain();
        let mut s = EvalStats::default();
        // Variables 0 and 1 share agree01; it must be scored once.
        let n = g.score_neighborhood(&w, &[VariableId(0), VariableId(1)], &mut s);
        assert_eq!(s.factors_evaluated, 3); // agree01, bias0, agree12
        assert_eq!(n, 2.0);
    }

    #[test]
    fn neighborhood_score_difference_equals_world_score_difference() {
        // The cancellation identity of Appendix 9.2 on the explicit graph.
        let (g, mut w) = chain();
        let mut s = EvalStats::default();
        let delta = [VariableId(1)];

        let full_before = g.score_world(&w, &mut s);
        let hood_before = g.score_neighborhood(&w, &delta, &mut s);
        w.set(VariableId(1), 1);
        let full_after = g.score_world(&w, &mut s);
        let hood_after = g.score_neighborhood(&w, &delta, &mut s);

        assert!(
            ((full_after - full_before) - (hood_after - hood_before)).abs() < 1e-12,
            "neighborhood delta must equal full delta"
        );
    }

    #[test]
    fn factor_accessor() {
        let (g, _) = chain();
        assert_eq!(g.factor(2).name(), "bias0");
    }

    #[test]
    fn neighborhood_scratch_is_reusable_across_calls() {
        // Repeated multi-variable scorings must keep deduplicating correctly
        // (each call bumps the generation instead of clearing the buffer).
        let (g, w) = chain();
        for _ in 0..100 {
            let mut s = EvalStats::default();
            let n = g.score_neighborhood(&w, &[VariableId(0), VariableId(1)], &mut s);
            assert_eq!(s.factors_evaluated, 3);
            assert_eq!(n, 2.0);
        }
    }

    #[test]
    fn concurrent_scoring_is_allocation_free_after_warmup() {
        // Regression test for the shared-`Mutex` scratch: under concurrent
        // walkers the old `try_lock` fallback silently allocated on every
        // contended multi-variable scoring. With the thread-local scratch,
        // after one warm-up call per thread, heavy parallel scoring must
        // perform zero scratch growth and never take any fallback path.
        use std::sync::Arc;
        let (g, w) = chain();
        let g = Arc::new(g);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                let w = w.clone();
                std::thread::spawn(move || {
                    let mut s = EvalStats::default();
                    // Warm up: the thread's scratch grows to graph size once.
                    g.score_neighborhood(&w, &[VariableId(0), VariableId(1)], &mut s);
                    let (resizes, fallbacks) = seen_scratch_counters();
                    for _ in 0..10_000 {
                        let mut s = EvalStats::default();
                        let n = g.score_neighborhood(&w, &[VariableId(0), VariableId(1)], &mut s);
                        // Dedup stays exact under concurrency.
                        assert_eq!(s.factors_evaluated, 3);
                        assert_eq!(n, 2.0);
                    }
                    let (resizes_after, fallbacks_after) = seen_scratch_counters();
                    assert_eq!(resizes_after, resizes, "scratch reallocated mid-run");
                    assert_eq!(fallbacks_after, fallbacks, "fallback path fired");
                    assert_eq!(fallbacks_after, 0, "no fallback may ever fire here");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn factor_repeating_a_variable_is_scored_once() {
        let d = Domain::of_labels(&["0", "1"]);
        let w = World::new(vec![d]);
        let mut g = FactorGraph::new();
        g.add_factor(Box::new(TableFactor::new(
            vec![VariableId(0), VariableId(0)],
            vec![2, 2],
            vec![1.0, 0.0, 0.0, 1.0],
            "self_pair",
        )));
        assert_eq!(g.degree(VariableId(0)), 1); // deduplicated adjacency
        let mut s = EvalStats::default();
        g.score_neighborhood(&w, &[VariableId(0)], &mut s);
        assert_eq!(s.factors_evaluated, 1);
    }
}
