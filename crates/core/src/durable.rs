//! Durable probabilistic databases: WAL-backed stepping and crash recovery.
//!
//! [`ProbabilisticDB::open_durable`] wraps a probabilistic database in a
//! [`DurablePdb`] bound to an on-disk store directory (see
//! `fgdb-durability` and `docs/FORMAT.md`). From then on every committed
//! thinning interval — the Δ⁻/Δ⁺ delta set, the net variable changes that
//! produced it, and the post-interval chain position (RNG state + kernel
//! counters) — is appended to a checksummed write-ahead log before the call
//! returns. [`DurablePdb::checkpoint`] makes the state durable;
//! [`ProbabilisticDB::recover`] replays the base and the WAL after a crash.
//!
//! The checkpoint contract: the WAL is the incremental checkpoint. Every
//! record already holds what its interval changed, O(|Δ|), and nothing
//! mutates the store outside a logged step, so the base plus the logged
//! records always equals the live state. A checkpoint therefore syncs the
//! WAL (free when group commit left it clean) and writes nothing else until
//! the WAL outgrows the base ([`fgdb_durability::WAL_BASE_MULTIPLE`]); then
//! it compacts — the full-store encoder writes a new base and the WAL is
//! emptied — as [`DurablePdb::compact`] does on demand. The full-store
//! encoder runs only at [`ProbabilisticDB::open_durable`] and at
//! compaction. [`DurablePdb::last_checkpoint`] reports what a checkpoint
//! did.
//!
//! The recovery contract, asserted end-to-end by
//! `crates/core/tests/crash_recovery.rs`: a database recovered after a
//! crash (including a torn write mid-append) is *observationally
//! identical* to one that never crashed — same stored tuples, same query
//! answers, same kernel statistics, and the same subsequent MCMC
//! trajectory under the same seeds. Models and proposers are code, not
//! data: the caller supplies them again at recovery, exactly as it did at
//! construction (a stateful proposer must be re-supplied in its
//! snapshot-time state for trajectory identity; every proposer in this
//! workspace is stateless after construction).
//!
//! ```
//! use fgdb_core::{DurablePdb, FieldBinding, ProbabilisticDB};
//! use fgdb_durability::DurabilityConfig;
//! use fgdb_graph::{Domain, FactorGraph, TableFactor, VariableId, World};
//! use fgdb_mcmc::UniformRelabel;
//! use fgdb_relational::{Database, Schema, Tuple, Value, ValueType};
//!
//! // A two-row store whose `state` field is uncertain over {"a", "b"}.
//! let mut db = Database::new();
//! let schema = Schema::from_pairs(&[("id", ValueType::Int), ("state", ValueType::Str)])
//!     .unwrap()
//!     .with_primary_key("id")
//!     .unwrap();
//! db.create_relation("T", schema).unwrap();
//! let rows: Vec<_> = (0..2i64)
//!     .map(|i| {
//!         db.relation_mut("T")
//!             .unwrap()
//!             .insert(Tuple::from_iter_values([Value::Int(i), Value::str("a")]))
//!             .unwrap()
//!     })
//!     .collect();
//! let dom = Domain::of_labels(&["a", "b"]);
//! let world = World::new(vec![dom.clone(), dom]);
//! let mut g = FactorGraph::new();
//! g.add_factor(Box::new(TableFactor::new(vec![VariableId(0)], vec![2], vec![0.0, 1.0], "bias")));
//! let binding = FieldBinding::new(&db, "T", "state", rows).unwrap();
//! let vars = vec![VariableId(0), VariableId(1)];
//! let pdb = ProbabilisticDB::new(
//!     db, g, Box::new(UniformRelabel::new(vars.clone())), world, binding, 42,
//! ).unwrap();
//!
//! // Mount it durably, run intervals, checkpoint, drop ("crash"), recover.
//! let dir = fgdb_durability::test_dir("durable-doc");
//! let mut durable = pdb.open_durable(&dir, DurabilityConfig::default()).unwrap();
//! for _ in 0..5 {
//!     durable.step(20).unwrap();
//! }
//! let world_before = durable.world().assignment().to_vec();
//! drop(durable);
//!
//! let mut same_model = FactorGraph::new();
//! same_model.add_factor(Box::new(TableFactor::new(
//!     vec![VariableId(0)], vec![2], vec![0.0, 1.0], "bias",
//! )));
//! let (recovered, report) = ProbabilisticDB::recover(
//!     &dir,
//!     same_model,
//!     Box::new(UniformRelabel::new(vars)),
//!     DurabilityConfig::default(),
//! ).unwrap();
//! assert_eq!(report.replayed, 5);
//! assert_eq!(recovered.world().assignment(), &world_before[..]);
//! recovered.pdb().check_synchronized().unwrap();
//! ```

use crate::evaluate::EvaluateError;
use crate::pdb::{FieldBinding, ProbabilisticDB};
use fgdb_durability::format::{encode_delta, Enc};
use fgdb_durability::{
    real_io, BindingRec, ChainStateRec, CheckpointReport, DurabilityConfig, DurabilityError,
    DurableStore, IntervalRecord, RecoveryReport, Snapshot, SnapshotRef, StoreIo,
};
use fgdb_graph::{EvalStats, Model, VariableId, World};
use fgdb_mcmc::{KernelStats, NetChange, Proposer};
use fgdb_relational::{Database, DeltaSet, QueryResult, RowId};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Errors raised by the durable database layer.
#[derive(Debug)]
pub enum DurableError {
    /// Filesystem, format, or corruption failure in the storage engine.
    Durability(DurabilityError),
    /// Evaluation-layer failure (world/store write-back, query).
    Evaluate(EvaluateError),
    /// Recovered state failed validation against the supplied model or
    /// binding (e.g. the model's world shape disagrees with the snapshot).
    Invalid(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Durability(e) => write!(f, "durability error: {e}"),
            DurableError::Evaluate(e) => write!(f, "evaluate error: {e}"),
            DurableError::Invalid(m) => write!(f, "invalid recovered state: {m}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<DurabilityError> for DurableError {
    fn from(e: DurabilityError) -> Self {
        DurableError::Durability(e)
    }
}
impl From<EvaluateError> for DurableError {
    fn from(e: EvaluateError) -> Self {
        DurableError::Evaluate(e)
    }
}

/// Captures the chain position of a probabilistic database as plain data.
fn chain_state_of<M: Model>(pdb: &ProbabilisticDB<M>) -> ChainStateRec {
    let stats = pdb.kernel_stats();
    ChainStateRec {
        steps_taken: pdb.steps_taken(),
        rng: pdb.rng_state(),
        proposals: stats.proposals,
        accepted: stats.accepted,
        factors_evaluated: stats.eval.factors_evaluated,
        neighborhood_scores: stats.eval.neighborhood_scores,
    }
}

fn kernel_stats_from(rec: &ChainStateRec) -> KernelStats {
    KernelStats {
        proposals: rec.proposals,
        accepted: rec.accepted,
        eval: EvalStats {
            factors_evaluated: rec.factors_evaluated,
            neighborhood_scores: rec.neighborhood_scores,
        },
    }
}

/// The variable ↔ field binding of `pdb` as plain data.
fn binding_of<M: Model>(pdb: &ProbabilisticDB<M>) -> BindingRec {
    let binding = pdb.binding();
    BindingRec {
        relation: binding.relation.clone(),
        column: binding.column as u32,
        rows: binding.rows.iter().map(|r| r.0).collect(),
    }
}

/// The live state of `pdb` at `seq` as a checkpoint reads it: borrowed,
/// nothing cloned.
fn live_state<'a, M: Model>(
    pdb: &'a ProbabilisticDB<M>,
    binding: &'a BindingRec,
    chain: &'a ChainStateRec,
    seq: u64,
) -> SnapshotRef<'a> {
    SnapshotRef {
        seq,
        db: pdb.database(),
        world: pdb.world(),
        chain,
        binding,
    }
}

/// A probabilistic database whose committed intervals survive a crash.
///
/// Wraps a [`ProbabilisticDB`] plus an open [`DurableStore`]; every
/// [`DurablePdb::step`] appends the interval to the WAL before returning.
/// MCMC may only advance through this handle — the inner database is
/// reachable read-only ([`DurablePdb::pdb`]), so no world change can bypass
/// the log.
pub struct DurablePdb<M> {
    pdb: ProbabilisticDB<M>,
    store: DurableStore,
    /// The binding as persisted; fixed for the life of the handle.
    binding: BindingRec,
}

impl<M: Model> DurablePdb<M> {
    /// Runs one logged thinning interval: `k` MH walk-steps, write-back,
    /// then a WAL append + group commit of the resulting delta, the net
    /// changes, and the post-interval chain position. The delta is returned
    /// only after the log accepted it.
    ///
    /// # Errors
    /// [`DurableError::Evaluate`] on sampling/write-back failures (the
    /// interval is not logged); [`DurableError::Durability`] when the log
    /// write fails — the in-memory state has advanced but the interval is
    /// not durable, so callers should treat the store as poisoned.
    pub fn step(&mut self, k: usize) -> Result<DeltaSet, DurableError> {
        let seq = self.store.next_seq();
        let (delta, changes) = self.pdb.step_logged(k)?;
        // The record borrows nothing: the delta moves in for encoding and
        // moves back out to the caller afterwards — no per-interval clone
        // on the logged hot path.
        let rec = IntervalRecord {
            seq,
            changes: changes
                .iter()
                .map(|&(v, old, new)| (v.0, old as u16, new as u16))
                .collect(),
            delta,
            chain: chain_state_of(&self.pdb),
        };
        self.store.append_interval(&rec)?;
        Ok(rec.delta)
    }

    /// Makes the current state durable and bounds recovery time: syncs the
    /// WAL, and compacts into a new base when the WAL has outgrown the
    /// current one (see the module docs).
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        let (seq, chain) = (self.store.next_seq() - 1, chain_state_of(&self.pdb));
        let state = live_state(&self.pdb, &self.binding, &chain, seq);
        self.store.checkpoint(state)?;
        Ok(())
    }

    /// Checkpoints the current state as a new full base and empties the
    /// WAL — the compaction [`Self::checkpoint`] runs past its budget,
    /// forced.
    pub fn compact(&mut self) -> Result<(), DurableError> {
        let (seq, chain) = (self.store.next_seq() - 1, chain_state_of(&self.pdb));
        let state = live_state(&self.pdb, &self.binding, &chain, seq);
        self.store.compact(state)?;
        Ok(())
    }

    /// What the most recent checkpoint did: kept the WAL or wrote a base,
    /// and its bytes.
    pub fn last_checkpoint(&self) -> Option<&CheckpointReport> {
        self.store.last_checkpoint()
    }

    /// Forces every committed interval onto stable storage regardless of
    /// the group-commit policy.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.store.sync()?;
        Ok(())
    }

    /// Read access to the wrapped probabilistic database.
    pub fn pdb(&self) -> &ProbabilisticDB<M> {
        &self.pdb
    }

    /// The deterministic store (for query execution).
    pub fn database(&self) -> &Database {
        self.pdb.database()
    }

    /// The in-memory variable assignment.
    pub fn world(&self) -> &World {
        self.pdb.world()
    }

    /// Kernel statistics of the wrapped chain.
    pub fn kernel_stats(&self) -> KernelStats {
        self.pdb.kernel_stats()
    }

    /// Total MCMC steps taken.
    pub fn steps_taken(&self) -> u64 {
        self.pdb.steps_taken()
    }

    /// Answers a SQL query against the current stored world (see
    /// [`ProbabilisticDB::query`]).
    pub fn query(&self, sql: &str) -> Result<QueryResult, EvaluateError> {
        self.pdb.query(sql)
    }

    /// The store directory on disk.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The I/O layer the store routes through (the failpoint seam).
    pub fn io(&self) -> Arc<dyn StoreIo> {
        Arc::clone(self.store.io())
    }

    /// The durability configuration the store was opened with.
    pub fn durability_config(&self) -> DurabilityConfig {
        self.store.config()
    }

    /// The sequence number the next committed interval will carry.
    pub fn next_seq(&self) -> u64 {
        self.store.next_seq()
    }

    /// Unwraps the in-memory database, abandoning durability (the store
    /// directory keeps its last durable state; further steps on the
    /// returned database are not logged). The store's drop path flushes
    /// any pending group commit best-effort; use [`Self::close`] instead
    /// to *observe* that final flush.
    pub fn into_inner(self) -> ProbabilisticDB<M> {
        self.pdb
    }

    /// Dismounts the store after forcing the pending group commit onto
    /// stable storage, surfacing the flush error that a plain drop (or
    /// [`Self::into_inner`]) would have to swallow.
    ///
    /// Under [`FsyncPolicy::EveryN`](fgdb_durability::FsyncPolicy) up to
    /// N−1 acknowledged intervals may sit in the OS page cache between
    /// group fsyncs; an orderly shutdown must flush that tail *and learn
    /// whether the flush succeeded* before reporting the intervals as
    /// durable. [`Self::checkpoint`] gives the same guarantee mid-run (it
    /// syncs the WAL first).
    pub fn close(mut self) -> Result<ProbabilisticDB<M>, DurableError> {
        self.store.sync()?;
        Ok(self.pdb)
    }
}

impl<M: Model> ProbabilisticDB<M> {
    /// Mounts this database on a durable store at `dir`: writes an initial
    /// full snapshot of the current state and opens a fresh WAL. Subsequent
    /// intervals advance through [`DurablePdb::step`], each logged before
    /// it is acknowledged. Fails if `dir` already holds a store (recover it
    /// instead — silently clobbering a durable state defeats the point).
    pub fn open_durable(
        self,
        dir: &Path,
        config: DurabilityConfig,
    ) -> Result<DurablePdb<M>, DurableError> {
        self.open_durable_with_io(real_io(), dir, config)
    }

    /// [`ProbabilisticDB::open_durable`] through an explicit
    /// [`StoreIo`] — the chaos suite mounts stores over a
    /// [`FaultyIo`](fgdb_durability::FaultyIo) this way.
    pub fn open_durable_with_io(
        self,
        io: Arc<dyn StoreIo>,
        dir: &Path,
        config: DurabilityConfig,
    ) -> Result<DurablePdb<M>, DurableError> {
        let binding = binding_of(&self);
        let snap = Snapshot {
            seq: 0,
            db: self.database().snapshot(),
            world: self.world().clone(),
            chain: chain_state_of(&self),
            binding: binding.clone(),
        };
        let store = DurableStore::create_with_io(io, dir, &snap, config)?;
        Ok(DurablePdb {
            pdb: self,
            store,
            binding,
        })
    }

    /// Recovers a durable probabilistic database from `dir`: reads the
    /// base snapshot (and applies the chunk patches an older store may have
    /// left), truncates any torn patch or WAL tail (the expected artifact
    /// of a crash mid-append), replays every intact interval record through
    /// the normal batch-validation/write-back path, cross-checks each
    /// replayed delta against the logged one, and restores the chain RNG
    /// state and kernel counters of the last committed interval.
    ///
    /// `model` and `proposer` are supplied by the caller (they are code,
    /// not data) and must match what the store was built with; the world
    /// shape and stored values are re-validated against them.
    pub fn recover(
        dir: &Path,
        model: M,
        proposer: Box<dyn Proposer>,
        config: DurabilityConfig,
    ) -> Result<(DurablePdb<M>, RecoveryReport), DurableError> {
        Self::recover_with_io(real_io(), dir, model, proposer, config)
    }

    /// [`ProbabilisticDB::recover`] through an explicit [`StoreIo`]. The
    /// supervised sampler restarts through this after a storage fault,
    /// re-mounting the store over the same I/O handle it was spawned with
    /// (tests pass a fresh handle after an injected crash, like a
    /// restarted process would).
    pub fn recover_with_io(
        io: Arc<dyn StoreIo>,
        dir: &Path,
        model: M,
        proposer: Box<dyn Proposer>,
        config: DurabilityConfig,
    ) -> Result<(DurablePdb<M>, RecoveryReport), DurableError> {
        let (snap, records, store, report) = DurableStore::recover_with_io(io, dir, config)?;
        let binding = FieldBinding {
            relation: snap.binding.relation.clone(),
            column: snap.binding.column as usize,
            rows: snap.binding.rows.iter().map(|&r| RowId(r)).collect(),
        };
        // `new` revalidates everything: binding rows exist, world arity
        // matches, stored field values agree with the snapshot world.
        let mut pdb = ProbabilisticDB::new(snap.db, model, proposer, snap.world, binding, 0)
            .map_err(DurableError::Invalid)?;
        for rec in &records {
            let changes: Vec<NetChange> = rec
                .changes
                .iter()
                .map(|&(v, old, new)| (VariableId(v), old as usize, new as usize))
                .collect();
            // The recomputed delta must be the logged one: compared as
            // canonical encodings, which are equal exactly when the sets are.
            let replayed = pdb.apply_logged_interval(&changes)?;
            let mut encoded = Enc::new();
            encode_delta(&mut encoded, &replayed);
            if encoded.into_bytes() != rec.delta_bytes() {
                return Err(DurableError::Durability(DurabilityError::Corrupt(format!(
                    "replay divergence at seq {}: recomputed delta disagrees with logged delta",
                    rec.seq
                ))));
            }
        }
        let last = records.last().map(|r| &r.chain).unwrap_or(&snap.chain);
        pdb.restore_chain_position(last.rng, last.steps_taken, kernel_stats_from(last));
        Ok((
            DurablePdb {
                pdb,
                store,
                binding: snap.binding,
            },
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{biased_token_pdb, relabel_proposer};

    /// A base whose decoded binding names a dead row, or a column past the
    /// relation's arity, recovers to `Invalid` instead of panicking:
    /// `ProbabilisticDB::new` is the one validator of what recovery decodes.
    #[test]
    fn a_malformed_binding_in_a_base_recovers_to_invalid() {
        let pdb = biased_token_pdb(6, 3, 1);
        let good = binding_of(&pdb);
        let mut dead_row = good.clone();
        dead_row.rows[0] = 999;
        let wide_column = BindingRec {
            column: 17,
            ..good.clone()
        };
        for (name, binding) in [("dead_row", dead_row), ("wide_column", wide_column)] {
            let dir = fgdb_durability::test_dir(&format!("malformed_binding_{name}"));
            let snap = Snapshot {
                seq: 0,
                db: pdb.database().snapshot(),
                world: pdb.world().clone(),
                chain: chain_state_of(&pdb),
                binding,
            };
            DurableStore::create_with_io(real_io(), &dir, &snap, DurabilityConfig::default())
                .unwrap();
            let recovered = ProbabilisticDB::recover(
                &dir,
                Arc::clone(pdb.model()),
                relabel_proposer(6),
                DurabilityConfig::default(),
            );
            assert!(
                matches!(recovered, Err(DurableError::Invalid(_))),
                "{name}: {:?}",
                recovered.err()
            );
        }
    }
}
