//! # fgdb-mcmc — Metropolis–Hastings inference over possible worlds
//!
//! The inference layer of Wick, McCallum & Miklau (VLDB 2010, §3.4):
//! proposal distributions that hypothesize local world modifications
//! ([`proposal`]), the MH accept/reject kernel working purely on
//! neighborhood log-score differences so the #P-hard normalizer cancels
//! ([`kernel`]), chains with thinning and net-change tracking that feed the
//! Δ⁻/Δ⁺ machinery ([`chain`]), parallel multi-chain fan-out (§5.4,
//! [`parallel`]), sharded intra-world sampling with per-shard delta queues
//! ([`sharded`]), and convergence diagnostics ([`diagnostics`]).

pub mod chain;
pub mod diagnostics;
pub mod gibbs;
pub mod kernel;
pub mod parallel;
pub mod proposal;
pub mod rng;
pub mod sharded;
pub mod targeted;

pub use chain::{Chain, NetChange};
pub use diagnostics::{
    effective_sample_size, effective_sample_size_runs, gelman_rubin, split_r_hat, split_r_hat_runs,
    R_HAT_DIVERGED,
};
pub use gibbs::GibbsRelabel;
pub use kernel::{KernelStats, MetropolisHastings, StepOutcome};
pub use parallel::{average_estimates, run_chains, run_chains_checkpointed};
pub use proposal::{LocalityProposer, Proposal, Proposer, UniformRelabel};
pub use rng::DynRng;
pub use sharded::{shard_seed, ShardedSampler};
pub use targeted::{document_closure, TargetedProposer};
