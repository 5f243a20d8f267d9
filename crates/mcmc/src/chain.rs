//! A single MCMC chain with net-change tracking.
//!
//! Algorithm 3 of the paper alternates `MetropolisHastings(w, k)` — k walk
//! steps between query evaluations (thinning, §4.1) — with a query
//! evaluation over the resulting world. [`Chain`] packages the kernel, the
//! world, and a seeded RNG, and *accumulates the net variable changes* since
//! the last query evaluation: exactly the information the view-maintenance
//! evaluator needs to build its Δ⁻/Δ⁺ auxiliary tables (Fig. 2).
//!
//! Net-change compaction happens here at the variable level: a variable
//! flipped A→B→A contributes nothing, and A→B→C contributes a single (A, C)
//! record, keeping per-sample delta size bounded by the number of *distinct*
//! variables touched, not the number of accepted steps.
//!
//! The tracker is dense: a per-variable slot points at the variable's
//! entry, so an accepted change is one indexed write, and a flush walks
//! only the entries the interval touched — its cost is O(|Δ|), whatever
//! the world's size or how many variables an earlier interval touched.

use crate::kernel::{KernelStats, MetropolisHastings};
use crate::proposal::Proposer;
use crate::rng::DynRng;
use fgdb_graph::{Model, VariableId, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A net world change since the last flush: `(variable, old, new)` with
/// `old != new`.
pub type NetChange = (VariableId, usize, usize);

/// One MCMC chain over a world.
pub struct Chain<M> {
    kernel: MetropolisHastings<M>,
    world: World,
    rng: StdRng,
    pending: Pending,
    steps_taken: u64,
}

/// The changes since the last flush, one entry per touched variable.
struct Pending {
    /// Variable → 1 + its entry's position in `entries`; 0 = untouched.
    /// Zeroed, so pages of variables no interval touches are never written.
    slot: Vec<u32>,
    /// `(variable, index at last flush, current index)`, in first-touch
    /// order. An entry whose variable came back to its flush-time index
    /// keeps its slot but is not a net change.
    entries: Vec<NetChange>,
    /// Entries that are net changes (`old != new`).
    net: usize,
}

impl Pending {
    fn new(variables: usize) -> Self {
        Pending {
            slot: vec![0; variables],
            entries: Vec::new(),
            net: 0,
        }
    }

    /// Records one accepted change of `v` from `old` to `new` (`old !=
    /// new`, as the kernel reports it).
    #[inline]
    fn record(&mut self, v: VariableId, old: usize, new: usize) {
        let slot = &mut self.slot[v.index()];
        let e = match (*slot as usize).checked_sub(1) {
            Some(e) => e,
            None => {
                let e = self.entries.len();
                // One entry per variable, and variable ids are u32.
                *slot = u32::try_from(e + 1).expect("entry positions fit a u32");
                self.entries.push((v, old, old));
                e
            }
        };
        let entry = &mut self.entries[e];
        if entry.1 == entry.2 {
            // Untouched, or back at its flush-time index: the change starts
            // afresh from `old`, which an untracked write may have moved.
            entry.1 = old;
        } else {
            self.net -= 1;
        }
        entry.2 = new;
        self.net += usize::from(entry.1 != entry.2);
    }

    /// The net changes, sorted by variable; every slot is left untouched.
    fn take(&mut self) -> Vec<NetChange> {
        let mut out = Vec::with_capacity(self.net);
        for &(v, old, new) in &self.entries {
            self.slot[v.index()] = 0;
            if old != new {
                out.push((v, old, new));
            }
        }
        self.entries.clear();
        self.net = 0;
        // Each variable has one entry, so the unstable sort is deterministic.
        out.sort_unstable_by_key(|&(v, _, _)| v);
        out
    }
}

impl<M: Model> Chain<M> {
    /// Builds a chain with a deterministic seed.
    pub fn new(model: M, proposer: Box<dyn Proposer>, world: World, seed: u64) -> Self {
        Chain {
            kernel: MetropolisHastings::new(model, proposer),
            pending: Pending::new(world.num_variables()),
            world,
            rng: StdRng::seed_from_u64(seed),
            steps_taken: 0,
        }
    }

    /// The current world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the world (initialization only; changes made here
    /// are not tracked as deltas).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// The model.
    pub fn model(&self) -> &M {
        self.kernel.model()
    }

    /// Kernel statistics.
    pub fn stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    /// Total steps taken.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Runs `k` MH steps (the paper's walk between samples), accumulating
    /// net changes.
    pub fn run(&mut self, k: usize) {
        self.steps_taken += k as u64;
        let mut rng = DynRng::new(&mut self.rng);
        let pending = &mut self.pending;
        self.kernel
            .walk(&mut self.world, k, &mut rng, |v, old, new| {
                pending.record(v, old, new)
            });
    }

    /// Net changes since the last call, compacted and sorted by variable.
    /// Clears the pending set (Algorithm 1's "cleaning and refreshing of the
    /// tables … between deterministic query executions").
    pub fn take_changes(&mut self) -> Vec<NetChange> {
        self.pending.take()
    }

    /// True when uncommitted net changes exist.
    pub fn has_pending_changes(&self) -> bool {
        self.pending.net > 0
    }

    /// Serializes the chain RNG's internal state (32 bytes, little-endian
    /// xoshiro words). Feeding the bytes to [`Chain::restore_rng_state`] —
    /// or `StdRng::from_seed` — resumes the exact random stream, which is
    /// how crash recovery reproduces the pre-crash MCMC trajectory.
    pub fn rng_state(&self) -> [u8; 32] {
        self.rng.state()
    }

    /// Restores a previously captured RNG state (see [`Chain::rng_state`]).
    pub fn restore_rng_state(&mut self, state: [u8; 32]) {
        self.rng = StdRng::from_seed(state);
    }

    /// Restores persisted lifetime counters (total steps and kernel
    /// statistics). Used by crash recovery after replaying a WAL so the
    /// revived chain is indistinguishable from one that never crashed.
    ///
    /// # Panics
    /// Panics when changes are pending: counters may only be rewound at a
    /// thinning-interval boundary, where the world and store agree.
    pub fn restore_counters(&mut self, steps_taken: u64, stats: KernelStats) {
        assert!(
            !self.has_pending_changes(),
            "restore_counters mid-interval: unflushed chain changes"
        );
        self.steps_taken = steps_taken;
        self.kernel.restore_stats(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proposal::UniformRelabel;
    use fgdb_graph::{Domain, FactorGraph};

    fn free_model(n: usize) -> (FactorGraph, World, Vec<VariableId>) {
        // No factors: every proposal accepted (α = 1), maximizing churn.
        let d = Domain::of_labels(&["a", "b", "c"]);
        let w = World::new(vec![d; n]);
        let vars: Vec<_> = (0..n as u32).map(VariableId).collect();
        (FactorGraph::new(), w, vars)
    }

    #[test]
    fn run_accumulates_net_changes() {
        let (g, w, vars) = free_model(4);
        let mut chain = Chain::new(g, Box::new(UniformRelabel::new(vars)), w, 42);
        chain.run(100);
        assert_eq!(chain.steps_taken(), 100);
        let changes = chain.take_changes();
        assert!(!changes.is_empty());
        for (v, old, new) in &changes {
            assert_ne!(old, new);
            // The reported old value must be the *flush-time* value: all
            // worlds start at index 0.
            assert_eq!(*old, 0, "first old for {v} is the initial value");
            assert_eq!(chain.world().get(*v), *new);
        }
        // Pending cleared.
        assert!(!chain.has_pending_changes());
        assert!(chain.take_changes().is_empty());
    }

    #[test]
    fn changes_compact_across_runs_within_one_flush() {
        let (g, w, vars) = free_model(2);
        let mut chain = Chain::new(g, Box::new(UniformRelabel::new(vars)), w, 7);
        chain.run(50);
        chain.run(50);
        let changes = chain.take_changes();
        // Every variable appears at most once despite many flips.
        let mut seen = std::collections::HashSet::new();
        for (v, _, _) in &changes {
            assert!(seen.insert(*v), "variable {v} reported twice");
        }
    }

    #[test]
    fn take_changes_reflects_only_net_motion() {
        let (g, w, vars) = free_model(1);
        let mut chain = Chain::new(g, Box::new(UniformRelabel::new(vars)), w, 3);
        // Drive until the variable returns to its initial index, then flush.
        let mut saw_round_trip = false;
        for _ in 0..500 {
            chain.run(1);
            if chain.world().get(VariableId(0)) == 0 && chain.has_pending_changes() {
                unreachable!("pending change with old==new should have compacted away");
            }
            if chain.world().get(VariableId(0)) == 0 {
                saw_round_trip = true;
            }
        }
        assert!(saw_round_trip, "chain should revisit the initial state");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let (g, w, vars) = free_model(5);
            let mut chain = Chain::new(g, Box::new(UniformRelabel::new(vars)), w, seed);
            chain.run(200);
            chain.world().assignment().to_vec()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn rng_state_round_trip_resumes_the_stream() {
        let (g, w, vars) = free_model(3);
        let mut chain = Chain::new(g, Box::new(UniformRelabel::new(vars.clone())), w, 17);
        chain.run(40);
        let _ = chain.take_changes();
        let state = chain.rng_state();
        let stats = chain.stats();
        let steps = chain.steps_taken();

        // A second chain positioned at the same world with the captured RNG
        // state and counters continues bit-identically.
        let (g2, mut w2, _) = free_model(3);
        w2.restore(chain.world().assignment());
        let mut twin = Chain::new(g2, Box::new(UniformRelabel::new(vars)), w2, 0);
        twin.restore_rng_state(state);
        twin.restore_counters(steps, stats);
        assert_eq!(twin.steps_taken(), steps);
        assert_eq!(twin.stats(), stats);

        chain.run(60);
        twin.run(60);
        assert_eq!(chain.world().assignment(), twin.world().assignment());
        assert_eq!(chain.stats(), twin.stats());
        assert_eq!(chain.take_changes(), twin.take_changes());
    }

    #[test]
    fn world_mut_initialization_is_untracked() {
        let (g, w, vars) = free_model(2);
        let mut chain = Chain::new(g, Box::new(UniformRelabel::new(vars)), w, 1);
        chain.world_mut().set(VariableId(0), 2);
        assert!(!chain.has_pending_changes());
        assert_eq!(chain.model().num_factors(), 0);
    }
}
