//! # fgdb-mcmc — Metropolis–Hastings inference over possible worlds
//!
//! The inference layer of Wick, McCallum & Miklau (VLDB 2010, §3.4):
//! proposal distributions that hypothesize local world modifications
//! ([`proposal`]), the MH accept/reject kernel working purely on
//! neighborhood log-score differences so the #P-hard normalizer cancels
//! ([`kernel`]), chains with thinning and net-change tracking that feed the
//! Δ⁻/Δ⁺ machinery ([`chain`]), sharded intra-world sampling with
//! per-shard delta queues ([`sharded`]), and the convergence diagnostics
//! ([`diagnostics`]) the §5.4 multi-chain engine (`fgdb_core::engine`)
//! gates on.

pub mod chain;
pub mod diagnostics;
pub mod gibbs;
pub mod kernel;
pub mod proposal;
pub mod rng;
pub mod sharded;
pub mod targeted;

pub use chain::{Chain, NetChange};
pub use diagnostics::{
    effective_sample_size, effective_sample_size_runs, gelman_rubin, gelman_rubin_runs,
    split_r_hat, split_r_hat_runs, R_HAT_DIVERGED,
};
pub use gibbs::GibbsRelabel;
pub use kernel::{KernelStats, MetropolisHastings, StepOutcome};
pub use proposal::{LocalityProposer, Proposal, Proposer, UniformRelabel};
pub use rng::DynRng;
pub use sharded::{shard_seed, ShardedSampler};
pub use targeted::{document_closure, TargetedProposer};
