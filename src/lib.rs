//! # fgdb — Scalable Probabilistic Databases with Factor Graphs and MCMC
//!
//! A from-scratch Rust implementation of Wick, McCallum & Miklau,
//! *Scalable Probabilistic Databases with Factor Graphs and MCMC*
//! (VLDB 2010, arXiv:1005.1934).
//!
//! The system stores **one deterministic possible world** in an ordinary
//! relational database, represents the distribution over worlds with an
//! external **factor graph**, and recovers uncertainty by
//! **Metropolis–Hastings MCMC** — hypothesizing local modifications whose
//! acceptance ratio touches only the factors adjacent to changed variables.
//! Query marginals are estimated over sampled worlds; the headline systems
//! idea is evaluating queries by **materialized view maintenance** over the
//! Δ⁻/Δ⁺ tuple sets each MCMC interval produces, instead of re-running the
//! query per sample.
//!
//! ## Quick start
//!
//! ```
//! use fgdb::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A synthetic news corpus → the TOKEN relation, labels all "O".
//! let corpus = Corpus::generate(&CorpusConfig { num_docs: 8, ..Default::default() });
//!
//! // 2. A skip-chain CRF over the tokens (weights seeded from truth here;
//! //    use SampleRank for real training).
//! let data = TokenSeqData::from_corpus(&corpus, 8);
//! let mut model = Crf::skip_chain(data);
//! model.seed_from_truth(&corpus, 2.0);
//! let model = Arc::new(model);
//!
//! // 3. Mount as a probabilistic database and evaluate Query 1 with the
//! //    view-maintenance evaluator.
//! let mut pdb = build_ner_pdb(&corpus, model, &NerProposerConfig::default(), 42);
//! let plan = paper_queries::query1("TOKEN");
//! let mut eval = QueryEvaluator::materialized(plan, &pdb, 500).unwrap();
//! eval.run(&mut pdb, 20).unwrap();
//!
//! // 4. Tuples with their probabilities of being in the answer.
//! for (tuple, p) in eval.marginals().probabilities() {
//!     assert!(p > 0.0 && p <= 1.0);
//!     let _ = tuple;
//! }
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`fgdb_relational`] | typed relational engine: storage, algebra, executor, counted multisets, Δ-sets, incremental view maintenance |
//! | [`fgdb_graph`] | variables, worlds, factors, models, exact enumeration |
//! | [`fgdb_mcmc`] | Metropolis–Hastings kernel, proposers, chains, sharded sampling, diagnostics |
//! | [`fgdb_learn`] | SampleRank weight learning |
//! | [`fgdb_ie`] | BIO labels, synthetic corpus, linear/skip-chain CRFs, entity resolution |
//! | [`fgdb_durability`] | WAL + snapshot storage engine: versioned binary format (docs/FORMAT.md), group-commit log, crash recovery |
//! | [`fgdb_core`] | the probabilistic DB façade, naive & materialized evaluators, parallel engine, durable wrapper, live serving core, metrics |
//! | [`fgdb_serve`] | TCP serving layer: length-prefixed wire protocol carrying SQL over snapshot-isolated epochs of a live sampler |

pub use fgdb_core as core;
pub use fgdb_durability as durability;
pub use fgdb_graph as graph;
pub use fgdb_ie as ie;
pub use fgdb_learn as learn;
pub use fgdb_mcmc as mcmc;
pub use fgdb_relational as relational;
pub use fgdb_serve as serve;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use fgdb_core::{
        build_ner_pdb, chain_seed, ner_proposer, squared_error, train_ner_model, truth_database,
        AnswerRow, DurabilityConfig, DurableError, DurablePdb, EngineAnswer, EngineConfig,
        EngineReport, EpochReader, EpochSnapshot, FieldBinding, FsyncPolicy, LiveSampler,
        LossCurve, MarginalTable, NerProposerConfig, ParallelEngine, ProbabilisticDB,
        QueryEvaluator, QueryStatus, RecoveryReport, SamplerState, SamplerStatus, ServingConfig,
        ServingError, SupervisedSampler, SupervisorConfig, ValueDistribution,
    };
    pub use fgdb_graph::{
        Domain, EvalStats, FactorGraph, FeatureVector, Learnable, Model, TableFactor, VariableId,
        World,
    };
    pub use fgdb_ie::{
        label_domain, pairwise_scores, CorefModel, Corpus, CorpusConfig, Crf, EntityType, Label,
        MentionData, MentionMoveProposer, SplitMergeProposer, TokenSeqData,
    };
    pub use fgdb_learn::{HammingObjective, Objective, SampleRankConfig};
    pub use fgdb_mcmc::{
        document_closure, Chain, DynRng, GibbsRelabel, LocalityProposer, MetropolisHastings,
        Proposal, Proposer, TargetedProposer, UniformRelabel,
    };
    pub use fgdb_relational::algebra::paper_queries;
    pub use fgdb_relational::parser::paper_sql;
    pub use fgdb_relational::{
        compile_query, execute, execute_simple, optimize, parse, parse_plan, AggExpr, AggFunc,
        CircuitError, CircuitStats, CountedSet, Database, DeltaSet, Expr, MaterializedView,
        ParseError, Plan, PlannerReport, QueryError, QueryResult, Schema, SqlQuery, Tuple, Value,
        ValueType,
    };
    pub use fgdb_serve::{Client, Server};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let _ = CorpusConfig::default();
        let _ = Plan::scan("T");
    }
}
