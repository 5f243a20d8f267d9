#![warn(missing_docs)]
//! # fgdb-core — the probabilistic database of Wick, McCallum & Miklau
//! (VLDB 2010)
//!
//! Ties the substrates together into the paper's system:
//!
//! * [`pdb`] — one stored deterministic world, a factor-graph model, and an
//!   MCMC chain hypothesizing modifications that are written through to the
//!   store as Δ⁻/Δ⁺ deltas (§3, §5);
//! * [`marginals`] — per-tuple answer-membership estimation (Eq. 4/5);
//! * [`membership`] — the answer-membership crossings a view's output delta
//!   implies, and the crossing-driven log behind the R̂ / ESS diagnostics;
//! * [`status_table`] — a registered query's published answer and
//!   marginals as one ordered, chunk-shared table each epoch patches;
//! * [`evaluate`] — Algorithm 3 (naive re-execution) and Algorithm 1
//!   (materialized-view maintenance) query evaluators;
//! * [`engine`] — the §5.4 parallel multi-chain query engine: snapshot
//!   replication, checkpointed scoped-thread rounds, Gelman–Rubin-gated
//!   termination, confidence-tagged merged answers;
//! * [`metrics`] — squared-error loss, normalized loss curves, and
//!   time-to-half-loss (§5.2/§5.3);
//! * [`ner`] — assembly of the end-to-end NER pipeline on the synthetic
//!   corpus;
//! * [`durable`] — WAL-backed stepping and crash recovery on top of the
//!   `fgdb-durability` storage engine: `ProbabilisticDB::open_durable`,
//!   logged intervals, checkpoints, `ProbabilisticDB::recover`;
//! * [`serving`] — the live serving core: one [`Sampler`] handle
//!   ([`LiveSampler`] over the bare database, [`SupervisedSampler`] over a
//!   durable one) runs the two-stage loop on its own thread and publishes
//!   snapshot-isolated, convergence-tagged epochs to [`EpochReader`]s;
//! * [`supervise`] — the one sampler thread body: a supervisor that parks
//!   every fault where readers see it and, for the durable host, survives
//!   storage faults and panics by bounded restart-from-recovery, degrading
//!   (never corrupting) reader-visible state in between.

pub mod durable;
pub mod engine;
pub mod evaluate;
pub mod fixtures;
pub mod marginals;
pub mod membership;
pub mod metrics;
pub mod ner;
pub mod pdb;
pub mod serving;
pub mod status_table;
pub mod supervise;

pub use durable::{DurableError, DurablePdb};
pub use engine::{
    chain_seed, AnswerRow, ChainReport, EngineAnswer, EngineConfig, EngineError, EngineReport,
    ParallelEngine, RHatPoint,
};
pub use evaluate::{EvaluateError, QueryEvaluator, SampleWork};
pub use fgdb_durability::{
    CheckpointKind, CheckpointReport, DurabilityConfig, FsyncPolicy, RecoveryReport,
};
pub use fgdb_graph::{FactorSpans, ShardError, ShardMap};
pub use fgdb_mcmc::{shard_seed, ShardedSampler};
pub use fgdb_relational::{compile_query, optimize, QueryError};
pub use marginals::{MarginalTable, Run, ValueDistribution};
pub use membership::{convergence_verdict, crossings, Crossing, MembershipLog};
pub use metrics::{squared_error, time_to_half_loss, LossCurve, LossPoint};
pub use ner::{build_ner_pdb, ner_proposer, train_ner_model, truth_database, NerProposerConfig};
pub use pdb::{FieldBinding, ProbabilisticDB};
pub use serving::{
    EpochReader, EpochSnapshot, EpochStatus, LiveSampler, QueryStatus, Sampler, SamplerState,
    SamplerStatus, ServingConfig, ServingError,
};
pub use status_table::StatusTable;
pub use supervise::{ModelFactory, SupervisedSampler, SupervisorConfig};
