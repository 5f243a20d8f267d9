//! Property test for the chain's net-change tracker: over random walks it
//! reports exactly what a map from variable to (value at last flush,
//! value after its last tracked change) reports — the tracker's reference
//! semantics. A twin kernel with the chain's seed replays the walk and
//! feeds every accepted change to the reference map.
//!
//! The scripts cover A→B→A compaction (few variables, two or three
//! labels), repeated flushes, untracked `world_mut` writes between runs,
//! `has_pending_changes`, and `restore_counters`, which must panic exactly
//! while a net change is pending.

use fgdb_graph::{Domain, FactorGraph, TableFactor, VariableId, World};
use fgdb_mcmc::{Chain, DynRng, MetropolisHastings, NetChange, UniformRelabel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The reference tracker: variable → (index at last flush, current index),
/// an entry dropped as soon as its variable is back at its flush-time index.
#[derive(Default)]
struct Reference(HashMap<VariableId, (usize, usize)>);

impl Reference {
    fn record(&mut self, v: VariableId, old: usize, new: usize) {
        let entry = self.0.entry(v).or_insert((old, new));
        entry.1 = new;
        if entry.0 == entry.1 {
            self.0.remove(&v);
        }
    }

    fn take(&mut self) -> Vec<NetChange> {
        let mut out: Vec<NetChange> = self.0.drain().map(|(v, (o, n))| (v, o, n)).collect();
        out.sort_by_key(|&(v, _, _)| v);
        out
    }
}

/// `n` variables over `labels` labels, with a random unary table on each so
/// that some proposals are rejected.
fn model(n: usize, labels: usize, weights: &[f64]) -> (FactorGraph, World) {
    let names = ["a", "b", "c"];
    let d = Domain::of_labels(&names[..labels]);
    let mut g = FactorGraph::new();
    for v in 0..n {
        let w = (0..labels)
            .map(|l| weights[(v * labels + l) % weights.len()])
            .collect();
        g.add_factor(Box::new(TableFactor::new(
            vec![VariableId(v as u32)],
            vec![labels],
            w,
            "unary",
        )));
    }
    (g, World::new(vec![d; n]))
}

proptest! {
    /// Each script op is `(kind, a, b)`: a run of `a` steps, a flush, an
    /// untracked write of label `b` to variable `a`, or a counter rewind.
    #[test]
    fn the_dense_tracker_matches_the_reference_map(
        n in 1usize..6,
        labels in 2usize..4,
        weights in prop::collection::vec(-1.5f64..1.5, 1..8),
        seed in any::<u64>(),
        script in prop::collection::vec((0u8..5, 0usize..24, 0usize..8), 1..40),
    ) {
        let vars: Vec<VariableId> = (0..n as u32).map(VariableId).collect();
        let (g, world) = model(n, labels, &weights);
        let mut chain = Chain::new(g, Box::new(UniformRelabel::new(vars.clone())), world, seed);
        let (g, mut twin_world) = model(n, labels, &weights);
        let mut twin = MetropolisHastings::new(g, Box::new(UniformRelabel::new(vars)));
        let mut twin_rng = StdRng::seed_from_u64(seed);
        let mut reference = Reference::default();

        for &(kind, a, b) in &script {
            match kind {
                // A run of `a` steps (zero included).
                0 | 1 => {
                    chain.run(a);
                    let mut rng = DynRng::new(&mut twin_rng);
                    twin.walk(&mut twin_world, a, &mut rng, |v, old, new| {
                        reference.record(v, old, new)
                    });
                    prop_assert_eq!(chain.world().assignment(), twin_world.assignment());
                }
                2 => prop_assert_eq!(chain.take_changes(), reference.take()),
                // An untracked write: the world moves, the tracker does not.
                3 => {
                    let (v, idx) = (VariableId((a % n) as u32), b % labels);
                    chain.world_mut().set(v, idx);
                    twin_world.set(v, idx);
                }
                _ => {
                    let (steps, stats) = (chain.steps_taken(), chain.stats());
                    let rewound = catch_unwind(AssertUnwindSafe(|| {
                        chain.restore_counters(steps, stats)
                    }));
                    prop_assert_eq!(rewound.is_err(), !reference.0.is_empty());
                    prop_assert_eq!(chain.steps_taken(), steps);
                }
            }
            prop_assert_eq!(chain.has_pending_changes(), !reference.0.is_empty());
        }
        prop_assert_eq!(chain.take_changes(), reference.take());
        prop_assert!(!chain.has_pending_changes());
        prop_assert!(chain.take_changes().is_empty());
    }
}
