#![warn(missing_docs)]
//! # fgdb-relational — the deterministic relational substrate
//!
//! This crate is the "underlying relational database" of Wick, McCallum &
//! Miklau, *Scalable Probabilistic Databases with Factor Graphs and MCMC*
//! (VLDB 2010): an in-memory DBMS that always stores **one possible world**
//! and therefore evaluates arbitrary relational algebra directly.
//!
//! Layers:
//!
//! * [`value`] / [`schema`] / [`mod@tuple`] — typed rows;
//! * [`storage`] / [`database`] — slotted heap relations (column-major
//!   64-slot chunks) with primary-key and optional secondary indexes,
//!   field-granular updates that return pre/post images (the MCMC write
//!   path);
//! * [`mod@row`] — the row interface operators evaluate against, so a scan
//!   reads stored columns in place and builds a tuple only for rows it
//!   keeps;
//! * [`expr`] / [`algebra`] — predicates and plans (σ, π, ×, ⋈, γ, δ),
//!   including [`algebra::paper_queries`], the four evaluation queries of §5;
//! * [`parser`] / [`planner`] — the SQL text frontend
//!   ([`parser::paper_sql`] carries the §5 queries as text) and the rule- +
//!   cost-based optimizer (pushdown, product→join rewrite, projection
//!   pruning, cardinality-driven join ordering) that turn a query string
//!   into an executable plan ([`planner::compile_query`]);
//! * [`exec`] — full from-scratch execution with work accounting (what the
//!   *naive* sampling evaluator pays per sample);
//! * [`counted`] / [`delta`] / [`view`] — counted multisets, Δ⁻/Δ⁺ auxiliary
//!   tables, and incrementally maintained materialized views (Eq. 6 /
//!   Algorithm 1 of the paper — the headline systems contribution).

pub mod algebra;
pub mod circuit;
pub mod counted;
pub mod database;
pub mod delta;
pub mod exec;
pub mod expr;
pub mod fasthash;
pub mod parser;
pub mod planner;
pub mod row;
pub mod schema;
pub mod storage;
pub mod tuple;
pub mod value;
pub mod view;
pub mod zset;

pub use algebra::{AggExpr, AggFunc, Plan, PlanError, DEFAULT_FIXPOINT_CAP};
pub use circuit::{CircuitError, CircuitStats};
pub use counted::CountedSet;
pub use database::{CatalogError, Database};
pub use delta::DeltaSet;
pub use exec::{execute, execute_simple, ExecError, ExecStats, QueryResult};
pub use expr::{BoundExpr, CmpOp, Expr};
pub use fasthash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher, TupleMap};
pub use parser::{parse, parse_plan, ParseError, SqlQuery};
pub use planner::{compile_query, optimize, PlannerReport, QueryError};
pub use row::Row;
pub use schema::{Column, Schema, SchemaError};
pub use storage::{ChunkRef, RawHeap, RawSlots, Relation, RowId, RowRef, StorageError};
pub use tuple::Tuple;
pub use value::{Interner, Value, ValueType, F64};
pub use view::MaterializedView;
pub use zset::{NegativeWeight, ZSet};
