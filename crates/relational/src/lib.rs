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
//! * [`value`] / [`schema`] / [`mod@tuple`] — typed rows, sixteen bytes
//!   a value;
//! * [`symbol`] — the process-wide string interner: every stored string
//!   is a 4-byte symbol;
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
//! * [`counted`] / [`delta`] — counted multisets ([`CountedSet`], the one
//!   Z-set type: signed multiplicities, no zero entries) and the Δ⁻/Δ⁺
//!   auxiliary tables of a world change;
//! * [`circuit`] / [`view`] — the Z-set operator circuit and the
//!   incrementally maintained materialized view that owns it (Eq. 6 /
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
pub mod symbol;
pub mod tuple;
pub mod value;
pub mod view;

pub use algebra::{AggExpr, AggFunc, Plan, PlanError, DEFAULT_FIXPOINT_CAP};
pub use circuit::{CircuitError, CircuitStats};
pub use counted::{CountedSet, NegativeWeight};
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
pub use symbol::{Str, SymbolsExhausted};
pub use tuple::Tuple;
pub use value::{Value, ValueType, F64};
pub use view::MaterializedView;

/// The Z-set contract checked on [`CountedSet`], the crate's one Z-set
/// type, built the way the circuit builds its deltas: from weighted
/// entries.
#[cfg(test)]
mod zset {
    #[cfg(test)]
    mod tests {
        use crate::{tuple, CountedSet};

        #[test]
        fn weights_coalesce_to_zero_means_absent() {
            let mut z = CountedSet::new();
            z.add(tuple!["a"], 3);
            z.add(tuple!["a"], -3);
            assert!(z.is_empty());
            assert_eq!(z.count(&tuple!["a"]), 0);
            assert_eq!(z.distinct_len(), 0);
        }

        #[test]
        fn zero_weight_add_is_noop() {
            let mut z: CountedSet = vec![(tuple!["a"], 0)].into_iter().collect();
            assert!(z.is_empty());
            z.add(tuple!["b"], 0);
            assert!(z.is_empty());
            assert_eq!(z.distinct_len(), 0);
        }

        #[test]
        fn merge_owned_fast_path() {
            let mut a = CountedSet::new();
            a.merge_owned(vec![(tuple!["x"], 1)].into_iter().collect());
            assert_eq!(a.count(&tuple!["x"]), 1);
            a.merge_owned(
                vec![(tuple!["x"], 1), (tuple!["y"], -1)]
                    .into_iter()
                    .collect(),
            );
            assert_eq!(a.count(&tuple!["x"]), 2);
            assert_eq!(a.count(&tuple!["y"]), -1);
        }
    }
}
