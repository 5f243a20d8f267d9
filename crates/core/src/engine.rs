//! The parallel multi-chain query engine with convergence-gated answers
//! (§5.4 of the paper).
//!
//! §5.4, *Parallelizing query evaluation*: "MCMC query evaluation can
//! easily be parallelized by running multiple query evaluators at once …
//! each query evaluator is given an identical copy of the initial world and
//! evaluates the query by averaging over the marginals returned by each
//! evaluator". The paper runs up to eight evaluators and observes the
//! averaged error fall "by slightly more than a factor of eight" —
//! *super-linear*, "because samples across chains are more independent than
//! samples within chains".
//!
//! [`ParallelEngine`] is that design as an engine-level subsystem rather
//! than a caller-level thread fan-out:
//!
//! 1. **Snapshot** — a seeded [`ProbabilisticDB`] is snapshotted into
//!    N independent replicas ([`ProbabilisticDB::snapshot`]): own
//!    copy-on-write [`Database`](fgdb_relational::Database), own world,
//!    own proposer and RNG stream (seeds derived via [`chain_seed`]), own
//!    incrementally maintained view.
//! 2. **Run** — replicas advance in *checkpointed rounds*
//!    ([`ParallelEngine::run_rounds`]): each round runs every chain on its
//!    own `std::thread::scope` thread, so within a round chains are
//!    lockstep-free (no per-thinning-interval synchronization); each chain
//!    logs its answer's membership crossings as it samples. A chain's error
//!    or panic ends the run as [`EngineError::Chain`], and the engine
//!    advances no further.
//! 3. **Gate** — termination is convergence-gated: at every round boundary
//!    the coordinator reads [`convergence_verdict`] over the chains' logs —
//!    Gelman–Rubin R̂ across the chains (split-R̂ for a single chain) and
//!    ESS summed over them, per toggled answer tuple, from its crossing
//!    positions, as the served loop does for one chain — and stops once
//!    max-R̂ drops below the configured threshold, with a hard per-chain
//!    sample budget as fallback.
//! 4. **Merge** — per-chain [`MarginalTable`]s are averaged
//!    ([`MarginalTable::average`]) into confidence-tagged [`AnswerRow`]s
//!    (probability, between-chain standard error, per-tuple R̂ and ESS),
//!    returned with an [`EngineReport`] (per-chain kernel stats, the R̂
//!    trajectory, samples used).
//!
//! Everything is deterministic in `(config, seed database)`: chains own
//! their RNG streams, rounds collect in chain order, and merging averages
//! in chain order — thread interleaving cannot change a single bit of the
//! answer.
//!
//! # Example
//!
//! ```
//! use fgdb_core::{EngineConfig, FieldBinding, ParallelEngine, ProbabilisticDB};
//! use fgdb_graph::{Domain, FactorGraph, TableFactor, VariableId, World};
//! use fgdb_mcmc::UniformRelabel;
//! use fgdb_relational::{Database, Schema, Tuple, Value, ValueType};
//! use std::sync::Arc;
//!
//! // A tiny uncertain TOKEN relation: two rows, label ∈ {O, B-PER}.
//! let mut db = Database::new();
//! let schema = Schema::from_pairs(&[("tok_id", ValueType::Int), ("label", ValueType::Str)])
//!     .unwrap()
//!     .with_primary_key("tok_id")
//!     .unwrap();
//! db.create_relation("TOKEN", schema).unwrap();
//! let rows: Vec<_> = (0..2i64)
//!     .map(|i| {
//!         db.relation_mut("TOKEN")
//!             .unwrap()
//!             .insert(Tuple::from_iter_values([Value::Int(i), Value::str("O")]))
//!             .unwrap()
//!     })
//!     .collect();
//! let dom = Domain::of_labels(&["O", "B-PER"]);
//! let world = World::new(vec![dom.clone(), dom]);
//! let mut g = FactorGraph::new();
//! g.add_factor(Box::new(TableFactor::new(
//!     vec![VariableId(0)], vec![2], vec![0.0, 1.2], "bias",
//! )));
//! let binding = FieldBinding::new(&db, "TOKEN", "label", rows).unwrap();
//! let vars = vec![VariableId(0), VariableId(1)];
//! let pdb = ProbabilisticDB::new(
//!     db, Arc::new(g), Box::new(UniformRelabel::new(vars.clone())), world, binding, 7,
//! ).unwrap();
//!
//! // Four chains answer Query-1-style SQL with a convergence gate.
//! let cfg = EngineConfig {
//!     chains: 4,
//!     thinning: 10,
//!     checkpoint_samples: 20,
//!     max_samples: 200,
//!     ..EngineConfig::default()
//! };
//! let mut engine = ParallelEngine::query(
//!     &pdb,
//!     "SELECT tok_id FROM TOKEN WHERE label = 'B-PER'",
//!     cfg,
//!     |_chain| Box::new(UniformRelabel::new(vars.clone())),
//! ).unwrap();
//! let answer = engine.run().unwrap();
//! for row in &answer.rows {
//!     assert!(row.probability > 0.0 && row.probability <= 1.0);
//! }
//! ```

use crate::evaluate::{EvaluateError, QueryEvaluator};
use crate::marginals::MarginalTable;
use crate::membership::{convergence_verdict, MembershipLog};
use crate::pdb::ProbabilisticDB;
use crate::serving::panic_message;
use fgdb_graph::Model;
use fgdb_mcmc::{KernelStats, Proposer};
use fgdb_relational::{FxHashMap, Plan, Tuple};
use std::collections::HashMap;
use std::fmt;
use std::thread;

/// Derives chain `i`'s RNG seed from the engine's base seed (splitmix64 of
/// the stream index) — well-separated streams, reproducible at any chain
/// count, and stable across runs: the engine's chain `i` is *defined* to be
/// the chain seeded with `chain_seed(base_seed, i)`, which is how the
/// determinism suite builds its plain single-chain reference.
pub fn chain_seed(base_seed: u64, chain: usize) -> u64 {
    let mut z = base_seed.wrapping_add((chain as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Engine configuration. The defaults suit interactive-scale workloads;
/// experiments override per figure.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Independent replicas/chains (the paper evaluates 1–8).
    pub chains: usize,
    /// Thinning interval k: MH walk-steps per sample (paper: 10 000).
    pub thinning: usize,
    /// Samples each chain draws between convergence checkpoints.
    pub checkpoint_samples: usize,
    /// Convergence gate: stop once the worst per-tuple R̂ falls below this
    /// (1.05–1.1 are conventional). Values ≤ 1 disable early stopping —
    /// enforced, not just conventional: R̂ legitimately dips below 1.0
    /// (identical chains give √((n−1)/n)), so the gate only arms for
    /// thresholds strictly greater than 1.
    pub r_hat_threshold: f64,
    /// Samples per chain required before the R̂ gate may fire (guards
    /// against the neutral R̂ of very short traces).
    pub min_samples: usize,
    /// Hard fallback budget: stop once every chain has this many samples
    /// even if R̂ has not converged (rounded up to a whole checkpoint).
    pub max_samples: usize,
    /// MH walk-steps each replica runs right after snapshotting, *before*
    /// its initial-world sample is recorded. §5.4's gains come from
    /// cross-chain samples being "more independent than samples within
    /// chains"; replicas snapshot the *same* world, so a short per-replica
    /// burn (on the chain's own RNG stream) disperses the starting points
    /// and decorrelates chains from sample one. It also makes R̂ more
    /// honest (over-dispersed starts are the diagnostic's intended
    /// regime). 0 keeps the paper's literal "identical copies" semantics.
    pub replica_burn_steps: usize,
    /// Base seed; chain `i` uses [`chain_seed`]`(base_seed, i)`.
    pub base_seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            chains: 4,
            thinning: 1_000,
            checkpoint_samples: 50,
            r_hat_threshold: 1.05,
            min_samples: 100,
            max_samples: 2_000,
            replica_burn_steps: 0,
            base_seed: 0x5EED,
        }
    }
}

/// Errors raised by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// The configuration is degenerate (zero chains, zero checkpoint
    /// interval, zero sample budget). Rejected up front so a served query
    /// can never take the process down.
    Config(String),
    /// Replica construction or evaluation failed.
    Evaluate(EvaluateError),
    /// A chain failed or panicked mid-round.
    Chain {
        /// Index of the failing chain.
        chain: usize,
        /// Rendered evaluation error, or the text the chain panicked with.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(message) => write!(f, "invalid engine config: {message}"),
            EngineError::Evaluate(e) => write!(f, "engine evaluation error: {e}"),
            EngineError::Chain { chain, message } => write!(f, "chain {chain} failed: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<EvaluateError> for EngineError {
    fn from(e: EvaluateError) -> Self {
        EngineError::Evaluate(e)
    }
}

/// One independent replica: snapshotted database + chain, its
/// incrementally maintained view, and its whole-run membership log (the
/// per-tuple 0/1 traces of `t ∈ Q(wᵢ)`, kept as crossing events).
struct Replica<M> {
    pdb: ProbabilisticDB<M>,
    eval: QueryEvaluator,
    trace: MembershipLog,
}

impl<M: Model> Replica<M> {
    /// Draws one sample (k walk-steps + incremental view maintenance) and
    /// extends the membership traces.
    fn draw(&mut self) -> Result<(), EvaluateError> {
        self.eval.sample(&mut self.pdb)?;
        self.trace.record(self.eval.last_crossings());
        Ok(())
    }
}

/// One point of the R̂ trajectory (recorded at every checkpoint).
#[derive(Clone, Copy, Debug)]
pub struct RHatPoint {
    /// Samples each chain had drawn at this checkpoint.
    pub samples_per_chain: u64,
    /// Worst (largest) per-tuple R̂ across the answer support.
    pub r_hat: f64,
    /// Smallest per-tuple effective sample size (summed over chains).
    pub min_ess: f64,
}

/// Per-chain section of the [`EngineReport`].
#[derive(Clone, Copy, Debug)]
pub struct ChainReport {
    /// Chain index.
    pub chain: usize,
    /// The chain's RNG seed ([`chain_seed`] of the base seed).
    pub seed: u64,
    /// MH walk-steps taken.
    pub steps: u64,
    /// Samples recorded (including the initial-world sample).
    pub samples: u64,
    /// Distinct answer tuples this chain ever observed.
    pub support: usize,
    /// Kernel counters (proposals, acceptance, factor evaluations).
    pub kernel: KernelStats,
}

/// What the engine did: convergence verdict, diagnostics trajectory, and
/// per-chain kernel statistics.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Number of chains run.
    pub chains: usize,
    /// Thinning interval k.
    pub thinning: usize,
    /// Samples per chain at termination (including the initial sample).
    pub samples_per_chain: u64,
    /// Total MH walk-steps across all chains.
    pub total_steps: u64,
    /// True when the R̂ gate fired (false: budget fallback or no run yet).
    pub converged: bool,
    /// Final worst-case per-tuple R̂.
    pub final_r_hat: f64,
    /// Final smallest per-tuple ESS (summed over chains).
    pub min_ess: f64,
    /// R̂ / ESS at every checkpoint, in order.
    pub r_hat_trajectory: Vec<RHatPoint>,
    /// Per-chain statistics, in chain order.
    pub per_chain: Vec<ChainReport>,
}

/// One merged, confidence-tagged answer tuple.
#[derive(Clone, Debug)]
pub struct AnswerRow {
    /// The answer tuple.
    pub tuple: Tuple,
    /// Chain-averaged membership probability (Eq. 5 averaged per §5.4).
    pub probability: f64,
    /// Standard error of the probability: between-chain standard error for
    /// ≥ 2 chains, binomial `√(p(1−p)/ESS)` for a single chain.
    pub std_error: f64,
    /// This tuple's own R̂ (cross-chain, or split-R̂ for one chain).
    pub r_hat: f64,
    /// This tuple's effective sample size, summed over chains.
    pub ess: f64,
    /// True when this tuple's R̂ passed the configured gate.
    pub converged: bool,
}

/// The engine's result: merged answer rows (sorted by tuple) plus the run
/// report.
#[derive(Clone, Debug)]
pub struct EngineAnswer {
    /// Confidence-tagged rows, sorted by tuple for deterministic reporting.
    pub rows: Vec<AnswerRow>,
    /// Run statistics.
    pub report: EngineReport,
}

impl EngineAnswer {
    /// The merged marginals as a map — the same exchange format as
    /// [`MarginalTable::as_map`], byte-identical to
    /// [`MarginalTable::average`] over the per-chain tables.
    pub fn merged(&self) -> HashMap<Tuple, f64> {
        self.rows
            .iter()
            .map(|r| (r.tuple.clone(), r.probability))
            .collect()
    }

    /// Merged membership probability of one tuple (0 when never observed).
    pub fn probability(&self, t: &Tuple) -> f64 {
        self.rows
            .iter()
            .find(|r| &r.tuple == t)
            .map(|r| r.probability)
            .unwrap_or(0.0)
    }

    /// Rows whose merged probability meets `threshold`.
    pub fn at_least(&self, threshold: f64) -> Vec<&AnswerRow> {
        self.rows
            .iter()
            .filter(|r| r.probability >= threshold)
            .collect()
    }
}

/// Runs `work(i, item)` for every item on its own scoped thread and joins
/// them in order. Returns the results in order, or the failure of the
/// first item, in order, that failed; a panic becomes
/// [`EngineError::Chain`] with its text and never unwinds into the caller.
fn fan_out<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    work: impl Fn(usize, T) -> Result<R, EngineError> + Sync,
) -> Result<Vec<R>, EngineError> {
    let work = &work;
    thread::scope(|s| {
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(chain, item)| (chain, s.spawn(move || work(chain, item))))
            .collect();
        handles
            .into_iter()
            .map(|(chain, handle)| {
                handle.join().unwrap_or_else(|payload| {
                    let message = panic_message(&*payload);
                    Err(EngineError::Chain { chain, message })
                })
            })
            .collect()
    })
}

/// The parallel multi-chain query engine. See the module docs for the
/// design; see [`EngineConfig`] for the knobs.
pub struct ParallelEngine<M> {
    replicas: Vec<Replica<M>>,
    config: EngineConfig,
    trajectory: Vec<RHatPoint>,
    converged: bool,
    /// The first chain failure, as `(chain, message)`. A failed chain may
    /// have stopped halfway through a sample, so the engine never advances
    /// again after one.
    failed: Option<(usize, String)>,
}

impl<M: Model + Clone> ParallelEngine<M> {
    /// Snapshots `seed_pdb` into `config.chains` independent replicas, each
    /// with a materialized evaluator for `plan` (the initial world's answer
    /// is recorded as every chain's first sample, as in Algorithm 1) and a
    /// proposer from `make_proposer(chain_index)`. Each replica's dispersal
    /// burn and view build run on its own scoped thread.
    ///
    /// # Errors
    /// Returns [`EngineError::Config`] on nonsensical configuration (zero
    /// chains, zero checkpoint interval, or `max_samples` of zero),
    /// [`EngineError::Evaluate`] when replica construction fails, and
    /// [`EngineError::Chain`] when it panics. Never panics: a served query
    /// must not take the process down.
    pub fn new(
        seed_pdb: &ProbabilisticDB<M>,
        plan: Plan,
        config: EngineConfig,
        mut make_proposer: impl FnMut(usize) -> Box<dyn Proposer>,
    ) -> Result<Self, EngineError> {
        if config.chains == 0 {
            return Err(EngineError::Config(
                "engine needs at least one chain".into(),
            ));
        }
        if config.checkpoint_samples == 0 {
            return Err(EngineError::Config("zero checkpoint interval".into()));
        }
        if config.max_samples == 0 {
            return Err(EngineError::Config("zero sample budget".into()));
        }
        // Snapshots and proposers come from the caller's thread (the
        // proposer factory is `FnMut`); each replica's dispersal burn and
        // view build run on its own scoped thread.
        let seeded: Vec<_> = (0..config.chains)
            .map(|i| seed_pdb.snapshot(make_proposer(i), chain_seed(config.base_seed, i)))
            .collect();
        let replicas = fan_out(seeded, |_, mut pdb| {
            if config.replica_burn_steps > 0 {
                // Dispersal burn on the replica's own stream; the deltas are
                // discarded (no view exists yet), the store stays in sync.
                pdb.step(config.replica_burn_steps)
                    .map_err(EngineError::Evaluate)?;
            }
            let eval = QueryEvaluator::materialized(plan.clone(), &pdb, config.thinning)
                .map_err(EngineError::Evaluate)?;
            // Sample 0: the initial answer enters from the empty answer, so
            // a tuple one chain holds from the start and another never sees
            // shows up as the disagreement it is.
            let mut trace = MembershipLog::new(usize::MAX);
            trace.record(eval.last_crossings());
            Ok(Replica { pdb, eval, trace })
        })?;
        Ok(ParallelEngine {
            replicas,
            config,
            trajectory: Vec::new(),
            converged: false,
            failed: None,
        })
    }

    /// [`Self::new`] from SQL text: the query is parsed and optimized
    /// against the seed database's catalog, then compiled into every
    /// replica's incrementally maintained view. The same text therefore
    /// drives both Algorithm 1 (each replica's view maintenance) and the
    /// §5.4 multi-chain merge.
    ///
    /// # Errors
    /// Returns [`EngineError::Evaluate`] wrapping the parse/plan error on
    /// malformed SQL; never panics on user input.
    pub fn query(
        seed_pdb: &ProbabilisticDB<M>,
        sql: &str,
        config: EngineConfig,
        make_proposer: impl FnMut(usize) -> Box<dyn Proposer>,
    ) -> Result<Self, EngineError> {
        let plan = fgdb_relational::compile_query(sql, seed_pdb.database())
            .map_err(|e| EngineError::Evaluate(EvaluateError::Query(e)))?;
        Self::new(seed_pdb, plan, config, make_proposer)
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Samples each chain has drawn so far (including the initial sample).
    /// Chains advance in lockstep rounds, so this is uniform; after a
    /// mid-round chain failure it reports the shortest chain, matching the
    /// common-prefix window the diagnostics compare.
    pub fn samples_per_chain(&self) -> usize {
        // Construction guarantees ≥ 1 replica; stay total regardless.
        self.replicas
            .iter()
            .map(|r| r.trace.samples() as usize)
            .min()
            .unwrap_or(0)
    }

    /// The R̂ / ESS trajectory recorded so far.
    pub fn r_hat_trajectory(&self) -> &[RHatPoint] {
        &self.trajectory
    }

    /// Per-chain marginal tables, in chain order.
    pub fn chain_marginals(&self) -> Vec<&MarginalTable> {
        self.replicas.iter().map(|r| r.eval.marginals()).collect()
    }

    /// The replica databases, in chain order (inspection/testing: e.g.
    /// asserting [`ProbabilisticDB::check_synchronized`] post-run).
    pub fn replica_dbs(&self) -> impl Iterator<Item = &ProbabilisticDB<M>> {
        self.replicas.iter().map(|r| &r.pdb)
    }

    /// Asserts the world/store synchronization invariant on every replica.
    pub fn check_all_synchronized(&self) -> Result<(), String> {
        for (i, r) in self.replicas.iter().enumerate() {
            r.pdb
                .check_synchronized()
                .map_err(|e| format!("replica {i}: {e}"))?;
        }
        Ok(())
    }

    /// Advances every chain by exactly `rounds` checkpointed rounds of
    /// `checkpoint_samples` samples each, extending the R̂ trajectory at
    /// every rendezvous. No convergence gating — callers wanting the gated
    /// loop use [`Self::run`]; experiment harnesses use this to observe the
    /// error trajectory at fixed budgets.
    ///
    /// A round runs each chain on its own scoped thread and joins them all
    /// in chain order. The first chain, in chain order, that fails or
    /// panics ends the call with [`EngineError::Chain`]; a panic never
    /// unwinds into the caller. A failed chain may have stopped halfway
    /// through a sample, so every later call returns the same error;
    /// [`Self::answer`] stays callable.
    pub fn run_rounds(&mut self, rounds: usize) -> Result<(), EngineError> {
        if let Some((chain, message)) = self.failed.clone() {
            return Err(EngineError::Chain { chain, message });
        }
        let per_round = self.config.checkpoint_samples;
        for _ in 0..rounds {
            let outcome = fan_out(self.replicas.iter_mut(), |chain, replica| {
                (0..per_round)
                    .try_for_each(|_| replica.draw())
                    .map_err(|e| {
                        let message = e.to_string();
                        EngineError::Chain { chain, message }
                    })
            });
            if let Err(e) = outcome {
                if let EngineError::Chain { chain, message } = &e {
                    self.failed = Some((*chain, message.clone()));
                }
                return Err(e);
            }
            let (r_hat, min_ess) = convergence_verdict(&self.logs(), |_, _, _| {});
            self.trajectory.push(RHatPoint {
                samples_per_chain: self.samples_per_chain() as u64,
                r_hat,
                min_ess,
            });
        }
        Ok(())
    }

    /// Runs the convergence-gated loop: checkpointed rounds until the worst
    /// per-tuple R̂ drops below `r_hat_threshold` (with at least
    /// `min_samples` per chain), falling back to the `max_samples` hard
    /// budget. Returns the merged, confidence-tagged answer.
    ///
    /// Calling `run` again resumes from the current state (the budget and
    /// gate are evaluated against cumulative samples).
    pub fn run(&mut self) -> Result<EngineAnswer, EngineError> {
        // A resumed run re-earns its verdict: a previously-fired gate does
        // not carry over if this continuation ends on the budget fallback.
        self.converged = false;
        let gate_armed = self.config.r_hat_threshold > 1.0;
        loop {
            self.run_rounds(1)?;
            // `run_rounds(1)` pushes a trajectory point on every Ok return;
            // fall back to the budget check rather than panicking if not.
            let Some(&last) = self.trajectory.last() else {
                break;
            };
            let samples = self.samples_per_chain();
            if gate_armed
                && samples >= self.config.min_samples
                && last.r_hat < self.config.r_hat_threshold
            {
                self.converged = true;
                break;
            }
            if samples >= self.config.max_samples {
                break;
            }
        }
        Ok(self.answer())
    }

    /// Every chain's membership log, in chain order.
    fn logs(&self) -> Vec<&MembershipLog> {
        self.replicas.iter().map(|r| &r.trace).collect()
    }

    /// Builds the merged, confidence-tagged answer from the current state
    /// without advancing any chain.
    pub fn answer(&self) -> EngineAnswer {
        let tables = self.chain_marginals();
        let merged = MarginalTable::average(&tables);
        let mut per_tuple = FxHashMap::default();
        let (final_r_hat, min_ess) = convergence_verdict(&self.logs(), |t, r_hat, ess| {
            per_tuple.insert(t, (r_hat, ess));
        });
        let m = tables.len() as f64;

        let mut rows: Vec<AnswerRow> = merged
            .into_iter()
            .map(|(tuple, probability)| {
                let (r_hat, ess) = per_tuple
                    .get(&tuple)
                    .copied()
                    .unwrap_or((1.0, (self.samples_per_chain() * tables.len()) as f64));
                let std_error = if tables.len() >= 2 {
                    let var = tables
                        .iter()
                        .map(|t| (t.probability(&tuple) - probability).powi(2))
                        .sum::<f64>()
                        / (m - 1.0);
                    (var / m).sqrt()
                } else {
                    (probability * (1.0 - probability) / ess.max(1.0)).sqrt()
                };
                AnswerRow {
                    converged: r_hat < self.config.r_hat_threshold,
                    tuple,
                    probability,
                    std_error,
                    r_hat,
                    ess,
                }
            })
            .collect();
        rows.sort_by(|a, b| a.tuple.cmp(&b.tuple));

        let per_chain: Vec<ChainReport> = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| ChainReport {
                chain: i,
                seed: chain_seed(self.config.base_seed, i),
                steps: r.pdb.steps_taken(),
                samples: r.eval.marginals().samples(),
                support: r.eval.marginals().support_size(),
                kernel: r.pdb.kernel_stats(),
            })
            .collect();
        let report = EngineReport {
            chains: self.replicas.len(),
            thinning: self.config.thinning,
            samples_per_chain: self.samples_per_chain() as u64,
            total_steps: per_chain.iter().map(|c| c.steps).sum(),
            converged: self.converged,
            final_r_hat,
            min_ess,
            r_hat_trajectory: self.trajectory.clone(),
            per_chain,
        };
        EngineAnswer { rows, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdb::FieldBinding;
    use fgdb_graph::{Domain, FactorGraph, TableFactor, VariableId, World};
    use fgdb_mcmc::UniformRelabel;
    use fgdb_relational::{tuple, Database, Expr, Schema, ValueType};
    use std::sync::Arc;

    /// A 3-row ITEM(id, state) relation with uncertain `state` ∈ {off,on}
    /// and per-variable bias weights; model Arc-shared for cheap snapshots.
    fn seed_pdb(weights: &[f64], seed: u64) -> ProbabilisticDB<Arc<FactorGraph>> {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[("id", ValueType::Int), ("state", ValueType::Str)])
            .unwrap()
            .with_primary_key("id")
            .unwrap();
        db.create_relation("ITEM", schema).unwrap();
        let mut rows = Vec::new();
        for i in 0..weights.len() as i64 {
            rows.push(
                db.relation_mut("ITEM")
                    .unwrap()
                    .insert(tuple![i, "off"])
                    .unwrap(),
            );
        }
        let d = Domain::of_labels(&["off", "on"]);
        let world = World::new(vec![d; weights.len()]);
        let mut g = FactorGraph::new();
        for (i, w) in weights.iter().enumerate() {
            g.add_factor(Box::new(TableFactor::new(
                vec![VariableId(i as u32)],
                vec![2],
                vec![0.0, *w],
                format!("bias{i}"),
            )));
        }
        let binding = FieldBinding::new(&db, "ITEM", "state", rows).unwrap();
        let vars: Vec<_> = (0..weights.len() as u32).map(VariableId).collect();
        ProbabilisticDB::new(
            db,
            Arc::new(g),
            Box::new(UniformRelabel::new(vars)),
            world,
            binding,
            seed,
        )
        .unwrap()
    }

    fn on_items() -> Plan {
        Plan::scan("ITEM")
            .filter(Expr::col("state").eq(Expr::lit("on")))
            .project(&["id"])
    }

    fn proposer_for(n: usize) -> Box<dyn Proposer> {
        Box::new(UniformRelabel::new((0..n as u32).map(VariableId).collect()))
    }

    #[test]
    fn degenerate_configs_are_errors_not_panics() {
        let seed = seed_pdb(&[0.2], 1);
        for (cfg, needle) in [
            (
                EngineConfig {
                    chains: 0,
                    ..EngineConfig::default()
                },
                "at least one chain",
            ),
            (
                EngineConfig {
                    checkpoint_samples: 0,
                    ..EngineConfig::default()
                },
                "checkpoint interval",
            ),
            (
                EngineConfig {
                    max_samples: 0,
                    ..EngineConfig::default()
                },
                "sample budget",
            ),
        ] {
            let err = ParallelEngine::new(&seed, on_items(), cfg, |_| proposer_for(1))
                .err()
                .expect("degenerate config must be rejected");
            assert!(
                matches!(&err, EngineError::Config(m) if m.contains(needle)),
                "unexpected error for {needle}: {err}"
            );
        }
    }

    #[test]
    fn non_materialized_answer_is_a_typed_error() {
        // A naive evaluator has no maintained answer between recomputes;
        // asking for it yields EvaluateError::NotMaterialized, not a panic.
        let pdb = seed_pdb(&[0.2], 2);
        let eval = QueryEvaluator::naive(on_items(), &pdb, 2).unwrap();
        assert!(eval.current_answer().is_none());
        let rendered = EvaluateError::NotMaterialized.to_string();
        assert!(rendered.contains("materialized"), "got: {rendered}");
    }

    #[test]
    fn chain_seed_streams_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..8).map(|i| chain_seed(42, i)).collect();
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), 8);
        assert_eq!(seeds, (0..8).map(|i| chain_seed(42, i)).collect::<Vec<_>>());
        assert_ne!(chain_seed(42, 0), chain_seed(43, 0));
    }

    #[test]
    fn engine_converges_on_a_fast_mixing_model() {
        let seed = seed_pdb(&[0.6, -0.3], 1);
        let cfg = EngineConfig {
            chains: 4,
            thinning: 4,
            checkpoint_samples: 50,
            r_hat_threshold: 1.2,
            min_samples: 100,
            max_samples: 3_000,
            replica_burn_steps: 0,
            base_seed: 9,
        };
        let mut engine = ParallelEngine::new(&seed, on_items(), cfg, |_| proposer_for(2)).unwrap();
        let answer = engine.run().unwrap();
        assert!(answer.report.converged, "fast-mixing chains must converge");
        assert!(answer.report.samples_per_chain < 3_000);
        assert!(answer.report.final_r_hat < 1.2);
        assert!(!answer.report.r_hat_trajectory.is_empty());
        // The merged estimate is near the exact marginal σ(0.6) ≈ 0.6457.
        let exact = 0.6f64.exp() / (1.0 + 0.6f64.exp());
        let p = answer.probability(&tuple![0i64]);
        assert!((p - exact).abs() < 0.08, "p = {p}, exact = {exact}");
        // Confidence tags are populated and sane.
        for row in &answer.rows {
            assert!((0.0..=1.0).contains(&row.probability));
            assert!(row.std_error >= 0.0);
            assert!(row.ess > 0.0);
            assert!(row.r_hat.is_finite());
        }
        // Report bookkeeping: 4 chains, steps = samples × k each.
        assert_eq!(answer.report.per_chain.len(), 4);
        for c in &answer.report.per_chain {
            assert_eq!(c.steps, (c.samples - 1) * 4);
            assert_eq!(c.kernel.proposals, c.steps);
        }
    }

    #[test]
    fn budget_fallback_stops_unconverged_runs() {
        let seed = seed_pdb(&[0.5], 3);
        let cfg = EngineConfig {
            chains: 2,
            thinning: 2,
            checkpoint_samples: 10,
            r_hat_threshold: 1.0, // ≤ 1 ⇒ gate disarmed (enforced, not luck)
            min_samples: 10,
            max_samples: 35,
            replica_burn_steps: 0,
            base_seed: 4,
        };
        let mut engine = ParallelEngine::new(&seed, on_items(), cfg, |_| proposer_for(1)).unwrap();
        let answer = engine.run().unwrap();
        assert!(!answer.report.converged);
        // Budget rounds up to whole checkpoints: 35 → 41 samples (1 + 4×10).
        assert_eq!(answer.report.samples_per_chain, 41);
    }

    #[test]
    fn answer_helpers_filter_and_lookup() {
        let seed = seed_pdb(&[3.0, -3.0], 5);
        let cfg = EngineConfig {
            chains: 2,
            thinning: 5,
            checkpoint_samples: 40,
            r_hat_threshold: 1.3,
            min_samples: 40,
            max_samples: 400,
            replica_burn_steps: 0,
            base_seed: 11,
        };
        let mut engine = ParallelEngine::new(&seed, on_items(), cfg, |_| proposer_for(2)).unwrap();
        let answer = engine.run().unwrap();
        // Item 0 (bias +3) is almost always on; item 1 almost never.
        assert!(answer.probability(&tuple![0i64]) > 0.8);
        assert!(answer.probability(&tuple![1i64]) < 0.2);
        assert!(answer.probability(&tuple![9i64]) == 0.0);
        let confident = answer.at_least(0.8);
        assert_eq!(confident.len(), 1);
        assert_eq!(confident[0].tuple, tuple![0i64]);
        // Merged map matches the row list.
        assert_eq!(answer.merged().len(), answer.rows.len());
    }

    #[test]
    fn replica_burn_disperses_starts_and_counts_steps() {
        let seed = seed_pdb(&[0.1, 0.1, 0.1], 8);
        let cfg = EngineConfig {
            chains: 3,
            thinning: 2,
            checkpoint_samples: 5,
            r_hat_threshold: 0.0,
            min_samples: 1,
            max_samples: 10,
            replica_burn_steps: 40,
            base_seed: 77,
        };
        let mut engine = ParallelEngine::new(&seed, on_items(), cfg, |_| proposer_for(3)).unwrap();
        // Distinct RNG streams during the burn → replicas start dispersed
        // (free-ish variables, 40 steps: identical worlds are vanishingly
        // unlikely, and determinism makes this assertion stable).
        let worlds: Vec<Vec<usize>> = engine
            .replica_dbs()
            .map(|p| p.world().variables().map(|v| p.world().get(v)).collect())
            .collect();
        assert!(
            worlds.iter().any(|w| w != &worlds[0]),
            "burn left all replicas identical: {worlds:?}"
        );
        engine.check_all_synchronized().unwrap();
        let answer = engine.run().unwrap();
        // Steps account for the burn: 40 + samples×2 each.
        for c in &answer.report.per_chain {
            assert_eq!(c.steps, 40 + (c.samples - 1) * 2);
        }
        // The seed database never advanced.
        assert_eq!(seed.steps_taken(), 0);
    }

    #[test]
    fn sql_engine_matches_plan_engine_bit_for_bit() {
        let cfg = EngineConfig {
            chains: 3,
            thinning: 3,
            checkpoint_samples: 20,
            r_hat_threshold: 1.3,
            min_samples: 40,
            max_samples: 200,
            replica_burn_steps: 0,
            base_seed: 31,
        };
        let seed = seed_pdb(&[0.7, -0.2], 2);
        let mut by_plan =
            ParallelEngine::new(&seed, on_items(), cfg.clone(), |_| proposer_for(2)).unwrap();
        let seed = seed_pdb(&[0.7, -0.2], 2);
        let mut by_sql =
            ParallelEngine::query(&seed, "SELECT id FROM ITEM WHERE state = 'on'", cfg, |_| {
                proposer_for(2)
            })
            .unwrap();
        let a = by_plan.run().unwrap();
        let b = by_sql.run().unwrap();
        assert_eq!(a.rows.len(), b.rows.len());
        for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(ra.tuple, rb.tuple);
            assert_eq!(ra.probability.to_bits(), rb.probability.to_bits());
            assert_eq!(ra.r_hat.to_bits(), rb.r_hat.to_bits());
        }
        assert_eq!(a.report.samples_per_chain, b.report.samples_per_chain);

        // Malformed SQL is a typed error from the engine too.
        let seed = seed_pdb(&[0.1], 4);
        assert!(ParallelEngine::query(
            &seed,
            "SELECT definitely FROM nowhere WHERE",
            EngineConfig::default(),
            |_| proposer_for(1),
        )
        .is_err());
    }

    #[test]
    fn run_rounds_advances_exactly_and_resumes() {
        let seed = seed_pdb(&[0.2], 6);
        let cfg = EngineConfig {
            chains: 3,
            thinning: 1,
            checkpoint_samples: 7,
            r_hat_threshold: 0.0,
            min_samples: 1,
            max_samples: 1_000,
            replica_burn_steps: 0,
            base_seed: 2,
        };
        let mut engine = ParallelEngine::new(&seed, on_items(), cfg, |_| proposer_for(1)).unwrap();
        assert_eq!(engine.samples_per_chain(), 1); // the initial sample
        engine.run_rounds(2).unwrap();
        assert_eq!(engine.samples_per_chain(), 15);
        assert_eq!(engine.r_hat_trajectory().len(), 2);
        engine.run_rounds(1).unwrap();
        assert_eq!(engine.samples_per_chain(), 22);
        assert_eq!(engine.chain_marginals().len(), 3);
        for t in engine.chain_marginals() {
            assert_eq!(t.samples(), 22);
        }
    }
}
