//! Sharded intra-world sampling: one MH walker per shard, per-shard delta
//! queues, a single merge point.
//!
//! The §5.4 multi-chain engine (`fgdb_core::engine`) is parallel *across
//! replicas*: every chain owns a full independent world and their samples
//! are averaged.
//! Here the parallelism is *within one world*. A [`ShardMap`] partitions the
//! variables so that no factor spans shards (validated up front); then a
//! proposal inside shard `s` has a neighborhood score depending only on
//! shard-`s` variables, so a walker confined to shard `s` computes exactly
//! the acceptance ratios it would compute inside one global chain — other
//! shards' variables are frozen observations as far as it is concerned.
//! Per-shard walks therefore compose: applying every shard's net changes to
//! the master world yields a state each walker's own trajectory passes
//! through, and the merged delta stream drives view maintenance exactly as
//! a sequential chain's would.
//!
//! Concretely each shard walker owns a full [`Chain`] (world clone + RNG
//! stream + proposer restricted to its shard's variables). A
//! [`ShardedSampler::walk`] fans the walkers out on scoped threads; each
//! deposits its compacted net changes into its own **delta queue**
//! (multi-producer, no shared state). [`ShardedSampler::drain_merged`] is
//! the **single merge point**: it folds every queued batch, in per-shard
//! FIFO order, into one net-change map — preserving the coalescing laws
//! (A→B→A cancels, A→B→C compacts) across batches — and emits one sorted
//! interval batch for the store write-back.

use crate::chain::{Chain, NetChange};
use crate::kernel::KernelStats;
use crate::proposal::Proposer;
use crossbeam::thread;
use fgdb_graph::{Model, ShardError, ShardMap, VariableId, World};
use std::collections::{hash_map::Entry, HashMap, VecDeque};
use std::sync::Arc;

/// Derives shard `s`'s RNG seed from the sampler's base seed.
///
/// **Shard 0 uses the base seed itself**: a single-shard sampler is
/// bit-for-bit the sequential chain seeded with `base_seed` — the anchor of
/// the sharded ≡ sequential equivalence suite. Shards above 0 get
/// splitmix64-separated streams (a different mix than
/// `fgdb_core::engine::chain_seed`, so shard streams never collide with
/// replica streams).
pub fn shard_seed(base_seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        return base_seed;
    }
    let mut z = base_seed.wrapping_add((shard as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    z = (z ^ (z >> 32)).wrapping_mul(0xE703_7ED1_A0B4_28DB);
    z = (z ^ (z >> 29)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 32)
}

/// One shard's walker: a chain over its own world clone plus the delta
/// queue it produces into.
struct ShardWalker<M> {
    chain: Chain<M>,
    /// Per-shard delta queue: each [`ShardedSampler::walk`] pushes one
    /// compacted batch; the merge point drains in FIFO order.
    queue: VecDeque<Vec<NetChange>>,
}

/// Parallel intra-world sampler: one seeded MH walker per shard of a
/// validated [`ShardMap`], producing into per-shard delta queues that a
/// single merge point compacts into interval batches.
///
/// Each walker holds a full clone of the world (`2 bytes × |V|` per shard).
/// Because no factor spans shards, a walker's view of *other* shards going
/// stale is unobservable — its neighborhood scores never read them. Walkers
/// only ever mutate their own shard's variables, so per-shard batches touch
/// disjoint variables and merge without conflicts.
pub struct ShardedSampler<M> {
    map: Arc<ShardMap>,
    walkers: Vec<ShardWalker<M>>,
}

impl<M: Model + Clone> ShardedSampler<M> {
    /// Builds one walker per shard: the model is cloned per shard (share it
    /// via `Arc` — the clone is then a refcount bump), the world is cloned
    /// per shard, `proposer_for(shard, vars)` supplies a proposer confined
    /// to that shard's variables, and shard `s` is seeded with
    /// [`shard_seed`]`(base_seed, s)`.
    ///
    /// The map must already be validated against the model
    /// ([`ShardMap::validate`]); the `ProbabilisticDB::sharded_sampler`
    /// wrapper in `fgdb-core` does both.
    ///
    /// # Errors
    /// [`ShardError::WorldMismatch`] when the map covers a different number
    /// of variables than the world.
    pub fn new(
        model: &M,
        world: &World,
        map: Arc<ShardMap>,
        mut proposer_for: impl FnMut(usize, &[VariableId]) -> Box<dyn Proposer>,
        base_seed: u64,
    ) -> Result<Self, ShardError> {
        if map.num_variables() != world.num_variables() {
            return Err(ShardError::WorldMismatch {
                map_vars: map.num_variables(),
                world_vars: world.num_variables(),
            });
        }
        let walkers = (0..map.num_shards())
            .map(|s| {
                let proposer = proposer_for(s, map.variables(s));
                ShardWalker {
                    chain: Chain::new(
                        model.clone(),
                        proposer,
                        world.clone(),
                        shard_seed(base_seed, s),
                    ),
                    queue: VecDeque::new(),
                }
            })
            .collect();
        Ok(ShardedSampler { map, walkers })
    }

    /// Runs every shard's walker for `k` MH steps — on scoped threads when
    /// there is more than one shard, inline otherwise (so a single-shard
    /// sampler has zero threading overhead and matches the sequential path
    /// exactly). Each walker's compacted net changes land in its own delta
    /// queue; nothing is merged yet.
    ///
    /// # Panics
    /// Propagates panics from walker threads.
    pub fn walk(&mut self, k: usize) {
        if self.walkers.len() == 1 {
            let w = &mut self.walkers[0];
            w.chain.run(k);
            let batch = w.chain.take_changes();
            if !batch.is_empty() {
                w.queue.push_back(batch);
            }
            return;
        }
        thread::scope(|s| {
            let handles: Vec<_> = self
                .walkers
                .iter_mut()
                .map(|w| {
                    s.spawn(move |_| {
                        w.chain.run(k);
                        let batch = w.chain.take_changes();
                        if !batch.is_empty() {
                            w.queue.push_back(batch);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("shard walker thread panicked");
            }
        })
        .expect("thread scope failed");
    }

    /// The single merge point: drains every shard's delta queue and folds
    /// the batches into one net-change batch, compacted (A→B→A cancels,
    /// A→B→C becomes one record) and sorted by variable — the same contract
    /// as [`Chain::take_changes`], so the result feeds the existing
    /// validated store write-back unchanged.
    ///
    /// Batches from different shards touch disjoint variables (walkers only
    /// mutate their own shard), so cross-shard merge order is immaterial;
    /// within one shard, queued batches fold in FIFO order, preserving the
    /// chain's own chronology.
    pub fn drain_merged(&mut self) -> Vec<NetChange> {
        let mut net: HashMap<VariableId, (usize, usize)> = HashMap::new();
        for w in &mut self.walkers {
            while let Some(batch) = w.queue.pop_front() {
                for (v, old, new) in batch {
                    match net.entry(v) {
                        Entry::Occupied(mut e) => {
                            e.get_mut().1 = new;
                            if e.get().0 == e.get().1 {
                                e.remove();
                            }
                        }
                        Entry::Vacant(e) => {
                            e.insert((old, new));
                        }
                    }
                }
            }
        }
        let mut out: Vec<NetChange> = net
            .into_iter()
            .filter(|&(_, (old, new))| old != new)
            .map(|(v, (old, new))| (v, old, new))
            .collect();
        out.sort_by_key(|&(v, _, _)| v);
        out
    }

    /// One thinning interval: walk every shard `k` steps, then merge — the
    /// sharded analogue of `Chain::run(k)` + `take_changes()`.
    pub fn step(&mut self, k: usize) -> Vec<NetChange> {
        self.walk(k);
        self.drain_merged()
    }

    /// Resynchronizes every walker's world from the master world — the
    /// recovery path after a merge batch was rejected by store validation
    /// (walker worlds had already advanced past the rejected interval).
    /// Also clears any queued batches: they describe the abandoned
    /// trajectory.
    pub fn resync_from(&mut self, master: &World) {
        for w in &mut self.walkers {
            w.queue.clear();
            w.chain.world_mut().restore(master.assignment());
        }
    }

    /// The shard partition.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards (= walkers).
    pub fn num_shards(&self) -> usize {
        self.walkers.len()
    }

    /// Kernel statistics summed over all walkers.
    pub fn stats(&self) -> KernelStats {
        let mut total = KernelStats::default();
        for w in &self.walkers {
            let s = w.chain.stats();
            total.proposals += s.proposals;
            total.accepted += s.accepted;
            total.eval.absorb(s.eval);
        }
        total
    }

    /// One shard's kernel statistics.
    pub fn shard_stats(&self, shard: usize) -> KernelStats {
        self.walkers[shard].chain.stats()
    }

    /// Total MH steps across all walkers.
    pub fn steps_taken(&self) -> u64 {
        self.walkers.iter().map(|w| w.chain.steps_taken()).sum()
    }

    /// One shard's world (its own shard's slice is authoritative; other
    /// slices are frozen at sampler construction / last resync).
    pub fn shard_world(&self, shard: usize) -> &World {
        self.walkers[shard].chain.world()
    }

    /// One shard's serialized RNG state (for determinism tests and future
    /// durability of sharded chains).
    pub fn shard_rng_state(&self, shard: usize) -> [u8; 32] {
        self.walkers[shard].chain.rng_state()
    }

    /// Batches currently queued across all shards (drained by the merge
    /// point).
    pub fn queued_batches(&self) -> usize {
        self.walkers.iter().map(|w| w.queue.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proposal::UniformRelabel;
    use fgdb_graph::{Domain, FactorGraph, TableFactor};

    /// `n` variables over a 3-label domain with one unary bias factor each —
    /// trivially sharded any way (no pair factors).
    fn biased_model(n: usize) -> (Arc<FactorGraph>, World) {
        let d = Domain::of_labels(&["a", "b", "c"]);
        let w = World::new(vec![d; n]);
        let mut g = FactorGraph::new();
        for i in 0..n {
            g.add_factor(Box::new(TableFactor::new(
                vec![VariableId(i as u32)],
                vec![3],
                vec![0.4, 0.9, 0.2],
                "bias",
            )));
        }
        (Arc::new(g), w)
    }

    fn relabel(vars: &[VariableId]) -> Box<dyn Proposer> {
        Box::new(UniformRelabel::new(vars.to_vec()))
    }

    #[test]
    fn shard_zero_seed_is_the_base_seed() {
        assert_eq!(shard_seed(42, 0), 42);
        assert_ne!(shard_seed(42, 1), 42);
        assert_ne!(shard_seed(42, 1), shard_seed(42, 2));
        assert_ne!(shard_seed(42, 1), shard_seed(43, 1));
    }

    #[test]
    fn single_shard_matches_plain_chain_bit_for_bit() {
        let (g, w) = biased_model(6);
        let map = Arc::new(ShardMap::single(6).unwrap());
        let mut sampler = ShardedSampler::new(&g, &w, map, |_, vars| relabel(vars), 99).unwrap();

        let all: Vec<VariableId> = (0..6).map(VariableId).collect();
        let mut chain = Chain::new(Arc::clone(&g), relabel(&all), w, 99);

        for _ in 0..10 {
            let merged = sampler.step(50);
            chain.run(50);
            let reference = chain.take_changes();
            assert_eq!(merged, reference);
            assert_eq!(
                sampler.shard_world(0).assignment(),
                chain.world().assignment()
            );
        }
        assert_eq!(sampler.stats(), chain.stats());
        assert_eq!(sampler.steps_taken(), chain.steps_taken());
        assert_eq!(sampler.shard_rng_state(0), chain.rng_state());
    }

    #[test]
    fn walkers_only_touch_their_own_shard() {
        let (g, w) = biased_model(12);
        let map =
            Arc::new(ShardMap::from_assignment(vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]).unwrap());
        map.validate(&g).unwrap();
        let mut sampler =
            ShardedSampler::new(&g, &w, Arc::clone(&map), |_, vars| relabel(vars), 7).unwrap();
        for _ in 0..5 {
            sampler.walk(100);
        }
        let merged = sampler.drain_merged();
        assert!(!merged.is_empty());
        // Sorted by variable, each variable at most once, old != new.
        let mut prev: Option<VariableId> = None;
        for &(v, old, new) in &merged {
            assert_ne!(old, new);
            if let Some(p) = prev {
                assert!(v > p, "merged batch must be strictly sorted");
            }
            prev = Some(v);
        }
        // Every walker's world moved only inside its own shard.
        for s in 0..3 {
            let ws = sampler.shard_world(s);
            for v in 0..12u32 {
                let v = VariableId(v);
                if map.shard_of(v) != s as u32 {
                    assert_eq!(ws.get(v), 0, "shard {s} disturbed foreign {v}");
                }
            }
        }
    }

    #[test]
    fn queued_batches_compose_across_multiple_walks() {
        // Two walks before one drain: the merge point must fold FIFO batches
        // with the same compaction a single chain would apply.
        let (g, w) = biased_model(4);
        let map = Arc::new(ShardMap::single(4).unwrap());
        let mut sharded = ShardedSampler::new(&g, &w, map, |_, vars| relabel(vars), 3).unwrap();
        let all: Vec<VariableId> = (0..4).map(VariableId).collect();
        let mut chain = Chain::new(Arc::clone(&g), relabel(&all), w, 3);

        sharded.walk(40);
        sharded.walk(40);
        assert!(sharded.queued_batches() >= 1);
        let merged = sharded.drain_merged();
        assert_eq!(sharded.queued_batches(), 0);

        chain.run(40);
        // The reference chain flushes once over the same 80 steps.
        chain.run(40);
        assert_eq!(merged, chain.take_changes());
    }

    #[test]
    fn fixed_seeds_are_deterministic_across_runs() {
        let run = |seed: u64| {
            let (g, w) = biased_model(12);
            let map = Arc::new(
                ShardMap::from_assignment(
                    vec![0; 6]
                        .into_iter()
                        .chain(vec![1; 6])
                        .collect::<Vec<u32>>(),
                )
                .unwrap(),
            );
            let mut s = ShardedSampler::new(&g, &w, map, |_, vars| relabel(vars), seed).unwrap();
            let changes = s.step(200);
            let worlds: Vec<Vec<u16>> = (0..2)
                .map(|i| s.shard_world(i).assignment().to_vec())
                .collect();
            (changes, worlds, s.stats())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn resync_restores_master_state_and_clears_queues() {
        let (g, w) = biased_model(8);
        let map = Arc::new(ShardMap::from_assignment(vec![0, 0, 0, 0, 1, 1, 1, 1]).unwrap());
        let mut s = ShardedSampler::new(&g, &w, map, |_, vars| relabel(vars), 5).unwrap();
        s.walk(100);
        assert!(s.queued_batches() > 0);
        s.resync_from(&w);
        assert_eq!(s.queued_batches(), 0);
        for i in 0..2 {
            assert_eq!(s.shard_world(i).assignment(), w.assignment());
        }
    }

    #[test]
    fn world_mismatch_is_rejected() {
        let (g, w) = biased_model(4);
        let map = Arc::new(ShardMap::single(5).unwrap());
        let err = ShardedSampler::new(&g, &w, map, |_, vars| relabel(vars), 0)
            .err()
            .expect("mismatched map must be rejected");
        assert_eq!(
            err,
            ShardError::WorldMismatch {
                map_vars: 5,
                world_vars: 4
            }
        );
    }
}
