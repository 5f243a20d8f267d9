//! The probabilistic database: one stored world + a factor graph + MCMC.
//!
//! §3 of the paper: "the underlying relational database always represents a
//! single world, and an external factor graph encodes a distribution over
//! possible worlds". §5 describes the bridge our [`ProbabilisticDB`]
//! implements: "(1) retrieving tuples from disk and then instantiating the
//! corresponding random variables in memory, and (2) propagating changes to
//! random variables back to the tuples on disk. Statistical inference (MCMC)
//! is performed on variables in main memory while query execution is
//! performed on disk by the DBMS."
//!
//! A [`FieldBinding`] maps each hidden variable to a `(row, column)` of the
//! stored relation. After every thinning interval the chain's net variable
//! changes are written through to the relation, and the resulting tuple
//! pre/post-images become the Δ⁻/Δ⁺ [`DeltaSet`] that drives view
//! maintenance. Every source of such a batch — the chain, a shard merge,
//! WAL replay — goes through one validated write.

use crate::evaluate::EvaluateError;
use fgdb_graph::{FactorSpans, Model, ModelError, ShardMap, VariableId, World};
use fgdb_mcmc::{Chain, KernelStats, NetChange, Proposer, ShardedSampler};
use fgdb_relational::{
    compile_query, execute, CountedSet, Database, DeltaSet, ExecStats, QueryResult, Relation, RowId,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Maps hidden variables to uncertain fields of one relation.
///
/// Variable `i` controls column `column` of row `rows[i]`. The variable's
/// domain values are the field values written back.
#[derive(Clone)]
pub struct FieldBinding {
    /// Relation holding the uncertain fields.
    pub relation: Arc<str>,
    /// Column index of the uncertain attribute (e.g. LABEL).
    pub column: usize,
    /// Row of each variable, indexed by `VariableId`.
    pub rows: Vec<RowId>,
}

impl FieldBinding {
    /// Builds a binding after resolving the column name and validating the
    /// rows exist.
    pub fn new(
        db: &Database,
        relation: impl Into<Arc<str>>,
        column: &str,
        rows: Vec<RowId>,
    ) -> Result<Self, String> {
        let relation = relation.into();
        let rel = db
            .relation(&relation)
            .map_err(|e| format!("binding relation: {e}"))?;
        let column = rel
            .schema()
            .index_of(column)
            .ok_or_else(|| format!("no column `{column}` in {relation}"))?;
        let binding = FieldBinding {
            relation,
            column,
            rows,
        };
        binding.check(db)?;
        Ok(binding)
    }

    /// The binding's one validator: the relation exists, the column is one
    /// of its columns, and every bound row is live. Returns the relation.
    fn check<'a>(&self, db: &'a Database) -> Result<&'a Relation, String> {
        let rel = db
            .relation(&self.relation)
            .map_err(|e| format!("binding relation: {e}"))?;
        if self.column >= rel.schema().arity() {
            return Err(format!("no column {} in {}", self.column, self.relation));
        }
        match self.rows.iter().find(|&&r| rel.get(r).is_none()) {
            Some(r) => Err(format!("a variable is bound to dead row {r}")),
            None => Ok(rel),
        }
    }
}

/// Where a net-change batch comes from. The source decides two things only:
/// whether the world already holds the batch, and what a rejection undoes.
enum Source<'a> {
    /// The chain's interval: the world holds it; a rejection rolls it back.
    Chain,
    /// A logged interval: not in the world yet, whose old indexes it matches.
    Log,
    /// A shard merge: as a log; a rejection resyncs the walkers to the world.
    Shards(&'a mut dyn FnMut(&World)),
}

/// The batch validator's error for variable `v`.
fn rejected(variable: VariableId, value: String) -> EvaluateError {
    EvaluateError::Model(ModelError::ValueNotInDomain { variable, value })
}

/// A probabilistic database: deterministic store + model + MCMC chain.
pub struct ProbabilisticDB<M> {
    db: Database,
    chain: Chain<M>,
    binding: FieldBinding,
}

impl<M: Model> ProbabilisticDB<M> {
    /// Assembles a probabilistic database. The world must already agree with
    /// the stored field values (both are normally initialized to the same
    /// default, e.g. label "O").
    ///
    /// # Errors
    /// Returns an error when the binding names a missing relation, an
    /// out-of-range column or a dead row, disagrees with the world's
    /// variable count, or the stored values do not match the world.
    pub fn new(
        db: Database,
        model: M,
        proposer: Box<dyn Proposer>,
        world: World,
        binding: FieldBinding,
        seed: u64,
    ) -> Result<Self, String> {
        if binding.rows.len() != world.num_variables() {
            return Err(format!(
                "binding covers {} rows but world has {} variables",
                binding.rows.len(),
                world.num_variables()
            ));
        }
        let rel = binding.check(&db)?;
        for (v, &row) in world.variables().zip(&binding.rows) {
            let stored = rel.get(row).map(|r| r.get(binding.column));
            if let Some(stored) = stored.filter(|&s| s != world.value(v)) {
                let value = world.value(v);
                return Err(format!(
                    "world/database disagree at {v}: {stored} vs {value}"
                ));
            }
        }
        Ok(ProbabilisticDB {
            db,
            chain: Chain::new(model, proposer, world, seed),
            binding,
        })
    }

    /// The current deterministic world (for query execution).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Answers a SQL query against the *current* stored world: parse →
    /// optimize → one-shot execution. This is the deterministic query
    /// surface; for probabilistic (marginal) answers drive the same text
    /// through [`crate::evaluate::QueryEvaluator`] or
    /// [`crate::engine::ParallelEngine::query`].
    ///
    /// # Errors
    /// Returns [`EvaluateError::Query`] on malformed SQL or unresolvable
    /// names, [`EvaluateError::Exec`] on execution failures. Never panics on
    /// user input.
    pub fn query(&self, sql: &str) -> Result<QueryResult, EvaluateError> {
        self.query_with_stats(sql).map(|(r, _)| r)
    }

    /// [`Self::query`], also returning the executor's work counters (tuples
    /// scanned, rows processed, intermediate tuples built).
    pub fn query_with_stats(&self, sql: &str) -> Result<(QueryResult, ExecStats), EvaluateError> {
        let plan = compile_query(sql, &self.db)?;
        Ok(execute(&plan, &self.db)?)
    }

    /// The in-memory variable assignment.
    pub fn world(&self) -> &World {
        self.chain.world()
    }

    /// The model.
    pub fn model(&self) -> &M {
        self.chain.model()
    }

    /// Kernel statistics (proposals, acceptance, factor evaluations).
    pub fn kernel_stats(&self) -> KernelStats {
        self.chain.stats()
    }

    /// Total MCMC steps taken.
    pub fn steps_taken(&self) -> u64 {
        self.chain.steps_taken()
    }

    /// Runs `k` MH walk-steps (the thinning interval of Algorithm 3), then
    /// propagates the *net* variable changes to the stored relation and
    /// returns them as a Δ⁻/Δ⁺ delta set.
    ///
    /// The naive evaluator ignores the returned deltas and re-runs its
    /// query; the materialized evaluator feeds them to its views.
    ///
    /// # Errors
    /// [`EvaluateError::Storage`] on write-back failures;
    /// [`EvaluateError::Model`] when a proposal left a variable at an index
    /// outside its domain (a malformed proposer must surface as an error on
    /// the serving path, not abort the engine thread). The world is rolled
    /// back to the pre-interval state, so it stays usable.
    pub fn step(&mut self, k: usize) -> Result<DeltaSet, EvaluateError> {
        self.step_logged(k).map(|(deltas, _)| deltas)
    }

    /// [`Self::step`], additionally returning the net variable changes that
    /// produced the delta — the replay script the durability layer logs
    /// ahead of the interval's write-back (see [`crate::durable`]).
    pub fn step_logged(&mut self, k: usize) -> Result<(DeltaSet, Vec<NetChange>), EvaluateError> {
        self.chain.run(k);
        let changes = self.chain.take_changes();
        let deltas = self.write(&changes, Source::Chain)?;
        Ok((deltas, changes))
    }

    /// Replays one logged interval: applies the net changes to the
    /// in-memory world and writes them through to the store, returning the
    /// recomputed delta set. This is the WAL recovery path; it runs the
    /// same validated write as the live [`Self::step`], so a record that
    /// would have been rejected live is rejected on replay too.
    ///
    /// # Errors
    /// [`EvaluateError::Model`] when a change names a variable or domain
    /// index outside the world, or its old index disagrees with the current
    /// world (the log does not describe this state);
    /// [`EvaluateError::Storage`] on write-back failures.
    pub fn apply_logged_interval(
        &mut self,
        changes: &[NetChange],
    ) -> Result<DeltaSet, EvaluateError> {
        self.write(changes, Source::Log)
    }

    /// The one validated write every interval source takes: validates the
    /// whole batch, writes it through, and on an error undoes what the
    /// source needs undone.
    fn write(&mut self, changes: &[NetChange], src: Source) -> Result<DeltaSet, EvaluateError> {
        let held = matches!(src, Source::Chain);
        let written = self
            .validate(changes, held)
            .and_then(|()| self.write_back(changes, held));
        if written.is_err() {
            match src {
                // Reverse order unwinds repeated writes to one variable.
                Source::Chain => {
                    let n = self.chain.world().num_variables();
                    for &(v, old_idx, _) in changes.iter().rev().filter(|c| c.0.index() < n) {
                        self.chain.world_mut().set(v, old_idx);
                    }
                }
                Source::Log => {}
                Source::Shards(resync) => resync(self.chain.world()),
            }
        }
        written
    }

    /// The batch validator, run before anything is written: an error
    /// mid-batch must not leave the store holding updates whose deltas were
    /// discarded (views fed such a stream would silently diverge). Every
    /// change must name a variable of the world and an index in its domain;
    /// unless the world already `held` the batch, its old index must be the
    /// world's. The MH kernel already rejects malformed proposals, so for
    /// the chain this guards alternative kernels.
    fn validate(&self, changes: &[NetChange], held: bool) -> Result<(), EvaluateError> {
        let world = self.chain.world();
        for &(v, old_idx, new_idx) in changes {
            if v.index() >= world.num_variables() || world.domain(v).get(new_idx).is_none() {
                return Err(rejected(v, format!("<domain index {new_idx}>")));
            }
            let now = world.get(v);
            if !held && now != old_idx {
                let value = format!("<logged old index {old_idx} vs world {now}>");
                return Err(rejected(v, value));
            }
        }
        Ok(())
    }

    /// Writes a validated batch through to the world (unless it already
    /// `held` it) and the stored relation, returning the compacted delta.
    fn write_back(&mut self, changes: &[NetChange], held: bool) -> Result<DeltaSet, EvaluateError> {
        if !held {
            for &(v, _, new_idx) in changes {
                self.chain.world_mut().set(v, new_idx);
            }
        }
        let (world, binding) = (self.chain.world(), &self.binding);
        let rel = self
            .db
            .relation_mut(&binding.relation)
            // lint:allow(panic, `new` checked the binding's relation, and the store is never handed out mutably)
            .expect("binding validated at construction");
        // The one relation's Δ⁻/Δ⁺ images, sized for the batch up front: an
        // update's old image leaves the world, its new one enters it.
        let mut images = CountedSet::with_capacity(2 * changes.len());
        for &(v, _, new_idx) in changes {
            let (Some(&row), Some(value)) =
                (binding.rows.get(v.index()), world.domain(v).get(new_idx))
            else {
                return Err(rejected(v, format!("<domain index {new_idx}>")));
            };
            let (old, new) = rel
                .update_field(row, binding.column, value.clone())
                .map_err(EvaluateError::Storage)?;
            if old != new {
                images.add(old, -1);
                images.add(new, 1);
            }
        }
        // Interval-boundary compaction (the paper's "cleaning and refreshing
        // of the tables ... between deterministic query executions"): the
        // adds above are amortized O(1) and cancel exact ± pairs; a relation
        // whose images all cancelled is absent from the delta.
        if images.is_empty() {
            return Ok(DeltaSet::new());
        }
        let images = BTreeMap::from([(Arc::clone(&binding.relation), images)]);
        Ok(DeltaSet::from_parts(images))
    }

    /// Builds a sharded sampler over this database's model and current
    /// world: one independent MH walker per shard of `map`, each confined
    /// to its shard's variables (see [`fgdb_mcmc::sharded`]). The map is
    /// validated against the model first — a factor spanning two shards
    /// would let a walker score against stale foreign state, so such maps
    /// are rejected here rather than sampled incorrectly.
    ///
    /// The sampler runs *off* the database; drive it with
    /// [`Self::step_sharded_logged`] to merge its per-shard delta batches back
    /// into this store. Must be called at an interval boundary (no pending
    /// chain changes), which the public API guarantees.
    ///
    /// # Errors
    /// Returns an error when the map does not cover the world's variables
    /// or a factor's scope crosses a shard boundary.
    pub fn sharded_sampler(
        &self,
        map: Arc<ShardMap>,
        proposer_for: impl FnMut(usize, &[VariableId]) -> Box<dyn Proposer>,
        base_seed: u64,
    ) -> Result<ShardedSampler<M>, String>
    where
        M: Clone + FactorSpans,
    {
        map.validate(self.model())
            .map_err(|e| format!("shard map rejected: {e}"))?;
        ShardedSampler::new(self.model(), self.world(), map, proposer_for, base_seed)
            .map_err(|e| format!("sharded sampler: {e}"))
    }

    /// [`Self::step`] over a sharded sampler: runs `k` MH walk-steps in
    /// *every* shard, merges the per-shard net-change batches into one
    /// interval batch (disjoint by construction — each variable belongs to
    /// exactly one shard), and drives it through the same validated
    /// write-back as the sequential path. With a single shard this is
    /// bit-for-bit equivalent to [`Self::step`]. Returns the interval's
    /// deltas and the merged net changes — the same replay script
    /// [`Self::step_logged`] yields, so the durability layer logs sharded
    /// intervals identically.
    ///
    /// # Errors
    /// As [`Self::apply_logged_interval`]. On error the interval is rolled
    /// back *and* the sampler is re-synchronized from the master world, so
    /// both sides remain usable.
    pub fn step_sharded_logged(
        &mut self,
        sampler: &mut ShardedSampler<M>,
        k: usize,
    ) -> Result<(DeltaSet, Vec<NetChange>), EvaluateError>
    where
        M: Clone,
    {
        sampler.walk(k);
        let changes = sampler.drain_merged();
        // A rejection at the merge point (foreign sampler, desynced walker)
        // snaps every walker back to the master world, so the next interval
        // starts from agreed state.
        let resync = &mut |world: &World| sampler.resync_from(world);
        let deltas = self.write(&changes, Source::Shards(resync))?;
        Ok((deltas, changes))
    }

    /// The variable ↔ field binding.
    pub fn binding(&self) -> &FieldBinding {
        &self.binding
    }

    /// The chain RNG's serialized internal state (see [`Chain::rng_state`]).
    pub fn rng_state(&self) -> [u8; 32] {
        self.chain.rng_state()
    }

    /// Restores the chain position persisted by the durability layer: RNG
    /// state plus lifetime counters. Only meaningful at an interval
    /// boundary (no changes pending), which recovery guarantees.
    pub fn restore_chain_position(
        &mut self,
        rng_state: [u8; 32],
        steps_taken: u64,
        stats: KernelStats,
    ) {
        self.chain.restore_rng_state(rng_state);
        self.chain.restore_counters(steps_taken, stats);
    }

    /// Snapshots this probabilistic database into an independent replica —
    /// §5.4's "identical copies of the initial world". The stored world is
    /// shared copy-on-write (see [`Database::snapshot`]: a pointer bump per
    /// storage chunk, each side copying only the chunks it writes), the
    /// in-memory variable assignment is copied, the model is cloned (models
    /// meant for replication are `Arc`-shared, so this is a refcount bump),
    /// and the replica gets its own proposer and a fresh RNG stream seeded
    /// with `seed`. Replica MCMC steps never touch this database, and vice
    /// versa.
    ///
    /// Snapshots are taken at thinning-interval boundaries; the public API
    /// guarantees no MCMC changes are pending outside [`Self::step`], so the
    /// replica starts exactly synchronized.
    pub fn snapshot(&self, proposer: Box<dyn Proposer>, seed: u64) -> ProbabilisticDB<M>
    where
        M: Clone,
    {
        debug_assert!(
            !self.chain.has_pending_changes(),
            "snapshot mid-interval: unflushed chain changes would be lost"
        );
        ProbabilisticDB {
            db: self.db.snapshot(),
            chain: Chain::new(
                self.chain.model().clone(),
                proposer,
                self.chain.world().clone(),
                seed,
            ),
            binding: self.binding.clone(),
        }
    }

    /// Checks that every bound field equals its variable's value — the
    /// world/store synchronization invariant. Test and debugging aid.
    pub fn check_synchronized(&self) -> Result<(), String> {
        let rel = self
            .db
            .relation(&self.binding.relation)
            .map_err(|e| e.to_string())?;
        for (v, &row) in self.chain.world().variables().zip(&self.binding.rows) {
            let stored = rel
                .get(row)
                .ok_or_else(|| format!("row vanished for {v}"))?
                .get(self.binding.column);
            if stored != self.chain.world().value(v) {
                return Err(format!(
                    "desync at {v}: stored {stored} vs world {}",
                    self.chain.world().value(v)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdb_graph::{Domain, FactorGraph, TableFactor, VariableId};
    use fgdb_mcmc::UniformRelabel;
    use fgdb_relational::{Schema, Tuple, Value, ValueType};

    /// Two-row relation whose `state` field is uncertain over {"a","b"}.
    fn setup() -> (Database, World, Vec<RowId>, FactorGraph) {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[("id", ValueType::Int), ("state", ValueType::Str)])
            .unwrap()
            .with_primary_key("id")
            .unwrap();
        db.create_relation("T", schema).unwrap();
        let mut rows = Vec::new();
        for i in 0..2i64 {
            rows.push(
                db.relation_mut("T")
                    .unwrap()
                    .insert(Tuple::from_iter_values([Value::Int(i), Value::str("a")]))
                    .unwrap(),
            );
        }
        let d = Domain::of_labels(&["a", "b"]);
        let world = World::new(vec![d.clone(), d]);
        let mut g = FactorGraph::new();
        g.add_factor(Box::new(TableFactor::new(
            vec![VariableId(0)],
            vec![2],
            vec![0.0, 1.5],
            "bias",
        )));
        (db, world, rows, g)
    }

    fn build() -> ProbabilisticDB<FactorGraph> {
        let (db, world, rows, g) = setup();
        let binding = FieldBinding::new(&db, "T", "state", rows).unwrap();
        ProbabilisticDB::new(
            db,
            g,
            Box::new(UniformRelabel::new(vec![VariableId(0), VariableId(1)])),
            world,
            binding,
            42,
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_agreement() {
        let (db, mut world, rows, g) = setup();
        world.set(VariableId(0), 1); // world says "b", store says "a"
        let binding = FieldBinding::new(&db, "T", "state", rows).unwrap();
        let err = ProbabilisticDB::new(
            db,
            g,
            Box::new(UniformRelabel::new(vec![VariableId(0)])),
            world,
            binding,
            1,
        );
        assert!(err.is_err());
    }

    #[test]
    fn binding_validates_rows_and_columns() {
        let (db, _, mut rows, _) = setup();
        assert!(FieldBinding::new(&db, "T", "nope", rows.clone()).is_err());
        assert!(FieldBinding::new(&db, "U", "state", rows.clone()).is_err());
        rows.push(RowId(99));
        assert!(FieldBinding::new(&db, "T", "state", rows).is_err());
    }

    /// `FieldBinding`'s fields are public (recovery builds one from a
    /// decoded record), so `new` validates rows and column itself.
    #[test]
    fn new_rejects_a_dead_row_or_an_out_of_range_column() {
        for (dead, column) in [(true, 1), (false, 17)] {
            let (db, world, mut rows, g) = setup();
            if dead {
                rows[0] = RowId(999);
            }
            let binding = FieldBinding {
                relation: Arc::from("T"),
                column,
                rows,
            };
            let proposer = Box::new(UniformRelabel::new(vec![VariableId(0)]));
            let built = ProbabilisticDB::new(db, g, proposer, world, binding, 1);
            assert!(built.is_err(), "dead row {dead}, column {column}");
        }
    }

    #[test]
    fn binding_arity_must_match_world() {
        let (db, world, mut rows, g) = setup();
        rows.pop();
        let binding = FieldBinding::new(&db, "T", "state", rows).unwrap();
        assert!(ProbabilisticDB::new(
            db,
            g,
            Box::new(UniformRelabel::new(vec![VariableId(0)])),
            world,
            binding,
            1
        )
        .is_err());
    }

    #[test]
    fn step_keeps_world_and_store_synchronized() {
        let mut pdb = build();
        for _ in 0..20 {
            let deltas = pdb.step(10).unwrap();
            pdb.check_synchronized().unwrap();
            // Deltas touch only relation T.
            for r in deltas.relations() {
                assert_eq!(&**r, "T");
            }
        }
        assert_eq!(pdb.steps_taken(), 200);
        assert!(pdb.kernel_stats().proposals == 200);
    }

    #[test]
    fn deltas_reflect_net_field_changes() {
        let mut pdb = build();
        // Run until some delta appears (free variable 1 flips freely).
        let mut saw_delta = false;
        for _ in 0..50 {
            let deltas = pdb.step(5).unwrap();
            if !deltas.is_empty() {
                saw_delta = true;
                // Removed and added tuple counts balance (updates only).
                let removed = deltas.removed("T");
                let added = deltas.added("T");
                assert_eq!(removed.total(), added.total());
            }
        }
        assert!(saw_delta);
    }

    #[test]
    fn no_change_means_empty_delta() {
        let mut pdb = build();
        let d = pdb.step(0).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn snapshot_replicas_are_isolated() {
        let (db, world, rows, g) = setup();
        let binding = FieldBinding::new(&db, "T", "state", rows).unwrap();
        let vars = vec![VariableId(0), VariableId(1)];
        let pdb = ProbabilisticDB::new(
            db,
            Arc::new(g),
            Box::new(UniformRelabel::new(vars.clone())),
            world,
            binding,
            42,
        )
        .unwrap();
        let before: Vec<_> = pdb
            .database()
            .relation("T")
            .unwrap()
            .rows()
            .map(|r| r.to_tuple())
            .collect();

        let mut replica = pdb.snapshot(Box::new(UniformRelabel::new(vars)), 7);
        for _ in 0..30 {
            replica.step(5).unwrap();
            replica.check_synchronized().unwrap();
        }
        assert_eq!(replica.steps_taken(), 150);

        // Replica deltas never leak into the seed database.
        let after: Vec<_> = pdb
            .database()
            .relation("T")
            .unwrap()
            .rows()
            .map(|r| r.to_tuple())
            .collect();
        assert_eq!(before, after);
        pdb.check_synchronized().unwrap();
        assert_eq!(pdb.steps_taken(), 0);
    }

    #[test]
    fn malformed_proposer_cannot_abort_the_serving_path() {
        use fgdb_mcmc::{DynRng, Proposal};

        // A proposer emitting out-of-world variable ids and out-of-domain
        // indexes: the kernel rejects each proposal as a no-op move and
        // `step` returns an empty delta — no panic, store untouched.
        struct Hostile(Vec<VariableId>);
        impl fgdb_mcmc::Proposer for Hostile {
            fn propose(
                &mut self,
                _world: &fgdb_graph::World,
                _rng: &mut DynRng<'_>,
                out: &mut Proposal,
            ) {
                out.symmetric([(VariableId(7_000), 3), (VariableId(0), 999)]);
            }
            fn support(&self) -> &[VariableId] {
                &self.0
            }
        }

        let (db, world, rows, g) = setup();
        let binding = FieldBinding::new(&db, "T", "state", rows).unwrap();
        let mut pdb = ProbabilisticDB::new(
            db,
            g,
            Box::new(Hostile(vec![VariableId(0)])),
            world,
            binding,
            5,
        )
        .unwrap();
        let deltas = pdb.step(25).unwrap();
        assert!(deltas.is_empty());
        pdb.check_synchronized().unwrap();
        assert_eq!(pdb.kernel_stats().accepted, 0);
    }

    #[test]
    fn model_and_accessors() {
        let pdb = build();
        assert_eq!(pdb.model().num_factors(), 1);
        assert_eq!(pdb.world().num_variables(), 2);
        assert_eq!(pdb.database().relation("T").unwrap().len(), 2);
    }
}
