//! # fgdb-graph — factor graphs over database fields
//!
//! The representation layer of Wick, McCallum & Miklau (VLDB 2010, §3):
//! hidden random variables with finite domains ([`variable`]), possible
//! worlds as assignments ([`world`]), factors and log-linear scoring
//! ([`factor`]), explicit factor graphs with adjacency ([`graph`]), the lazy
//! [`model::Model`] abstraction whose `score_neighborhood` realizes the
//! factor-cancellation identity of Appendix 9.2, sparse features for
//! SampleRank learning ([`feature`]), exact inference by enumeration for
//! test-scale ground truth ([`enumerate`]), and variable partitioning with
//! no-factor-spans-shards validation for parallel intra-world sampling
//! ([`shard`]).

pub mod enumerate;
pub mod error;
pub mod factor;
pub mod feature;
pub mod graph;
pub mod model;
pub mod shard;
pub mod variable;
pub mod world;

pub use error::ModelError;
pub use factor::{log_linear, Factor, FnFactor, TableFactor};
pub use feature::{FeatureVector, Learnable};
pub use graph::FactorGraph;
pub use model::{score_change_by_apply, ChangeScratch, EvalStats, Model};
pub use shard::{FactorSpans, ShardError, ShardMap};
pub use variable::{Domain, VariableId};
pub use world::World;
