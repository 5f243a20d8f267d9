//! Rule- and cost-based plan optimization.
//!
//! [`crate::parser`] lowers SQL to a deliberately naive [`Plan`] —
//! cross products under one big selection, exactly the shape the paper's
//! Query 4 takes as text. This module rewrites such plans into the form a
//! database would actually run:
//!
//! * **constant folding** — literal-only comparisons and boolean
//!   connectives collapse (three-valued: `NULL = 1` folds to `NULL`);
//!   `σ(TRUE)` disappears;
//! * **predicate pushdown** — conjuncts move through projections,
//!   distincts, grouping (group-key predicates only), set operations, and
//!   to the covering side of products and joins;
//! * **product → hash-join rewrite** — equality conjuncts spanning both
//!   sides of a product become equi-join conditions ([`Plan::Join`]),
//!   and further spanning equalities extend an existing join's condition
//!   list;
//! * **projection pruning** — adjacent projections collapse and identity
//!   projections vanish;
//! * **join ordering** — where an ancestor re-derives columns by name
//!   (π or γ), join inputs are swapped so the hash table is built on the
//!   side with the smaller estimated cardinality (estimates start from
//!   actual [`crate::storage::Relation`] row counts).
//!
//! Every rewrite preserves the query's multiset semantics *and* its output
//! column names; [`optimize`] re-validates the output schema and falls back
//! to the input plan if a rewrite ever disagreed (defense in depth — the
//! property suite asserts it never fires).
//!
//! # Example
//!
//! ```
//! use fgdb_relational::{optimize, parse_plan, Database, Schema, ValueType};
//!
//! let mut db = Database::new();
//! let schema = Schema::from_pairs(&[
//!     ("doc_id", ValueType::Int),
//!     ("label", ValueType::Str),
//! ]).unwrap();
//! db.create_relation("TOKEN", schema).unwrap();
//!
//! // SQL lowers to a cross product under one selection…
//! let naive = parse_plan(
//!     "SELECT T2.label FROM TOKEN T1, TOKEN T2 \
//!      WHERE T1.doc_id = T2.doc_id AND T1.label = 'B-ORG'",
//! ).unwrap();
//! assert!(naive.to_string().contains('×'));
//!
//! // …which the optimizer rewrites into a pushed-down hash join.
//! let optimized = optimize(&naive, &db).unwrap();
//! assert!(optimized.to_string().contains('⋈'), "{optimized}");
//! assert!(!optimized.to_string().contains('×'));
//! ```

use crate::algebra::{AggExpr, AggFunc, Plan, PlanError};
use crate::database::Database;
use crate::expr::{resolve_column, CmpOp, Expr};
use crate::parser::{self, ParseError};
use crate::value::{Value, ValueType};
use std::fmt;
use std::sync::Arc;

/// Errors from the text-to-plan pipeline ([`compile_query`]).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// SQL parsing or lowering failed.
    Parse(ParseError),
    /// The plan does not validate against the catalog.
    Plan(PlanError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "parse error: {e}"),
            QueryError::Plan(e) => write!(f, "plan error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<PlanError> for QueryError {
    fn from(e: PlanError) -> Self {
        QueryError::Plan(e)
    }
}

/// Counters describing what the optimizer did to a plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerReport {
    /// Conjuncts moved below at least one operator.
    pub predicates_pushed: u64,
    /// Cartesian products rewritten into equi-joins.
    pub products_to_joins: u64,
    /// Equality conjuncts folded into an existing join's conditions.
    pub join_conditions_added: u64,
    /// Join inputs swapped so the smaller estimated side builds the table.
    pub joins_reordered: u64,
    /// Expression nodes removed by constant folding.
    pub constants_folded: u64,
    /// Projection nodes removed (identity or merged into a parent).
    pub projections_pruned: u64,
}

impl PlannerReport {
    /// Total rewrites applied.
    pub fn total(&self) -> u64 {
        self.predicates_pushed
            + self.products_to_joins
            + self.join_conditions_added
            + self.joins_reordered
            + self.constants_folded
            + self.projections_pruned
    }
}

impl fmt::Display for PlannerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pushed {} predicate(s), {} product→join rewrite(s), {} join cond(s) merged, \
             {} join(s) reordered, {} constant(s) folded, {} projection(s) pruned",
            self.predicates_pushed,
            self.products_to_joins,
            self.join_conditions_added,
            self.joins_reordered,
            self.constants_folded,
            self.projections_pruned
        )
    }
}

/// Parses SQL, lowers it, and optimizes the plan against `db`'s catalog.
///
/// This is the text entry point the probabilistic evaluators build on: the
/// returned plan runs through either the one-shot executor
/// ([`crate::exec::execute`]) or the incremental path
/// ([`crate::view::MaterializedView`]).
pub fn compile_query(sql: &str, db: &Database) -> Result<Plan, QueryError> {
    let plan = parser::parse_plan(sql)?;
    // Validate the naive plan before rewriting so errors name the user's
    // query shape, not an intermediate one.
    plan.output_columns(db)?;
    Ok(optimize(&plan, db)?)
}

/// Optimizes a plan. The result computes the same [`crate::exec::QueryResult`]
/// (same columns, same multiset of rows) with no more intermediate tuples.
pub fn optimize(plan: &Plan, db: &Database) -> Result<Plan, PlanError> {
    optimize_with_report(plan, db).map(|(p, _)| p)
}

/// [`optimize`], also reporting which rewrites fired.
pub fn optimize_with_report(
    plan: &Plan,
    db: &Database,
) -> Result<(Plan, PlannerReport), PlanError> {
    let before = plan.output_columns(db)?;
    let mut rep = PlannerReport::default();
    let optimized = rewrite(plan.clone(), Scope { db, rec: None }, false, &mut rep)?;
    // Output-schema guard: a sound rewrite can never change the result
    // columns. If it somehow did, serve the original plan — correctness
    // beats cleverness.
    match optimized.output_columns(db) {
        Ok(after) if after == before => Ok((optimized, rep)),
        _ => Ok((plan.clone(), PlannerReport::default())),
    }
}

/// Estimated output cardinality of a plan, seeded by actual relation row
/// counts. Heuristic selectivities (equality 0.1, range 0.3, …) — only used
/// to pick join build sides, never for correctness.
pub fn estimate_rows(plan: &Plan, db: &Database) -> f64 {
    match plan {
        Plan::Scan { relation, .. } => db
            .relation(relation)
            .map(|r| r.len() as f64)
            .unwrap_or(1.0)
            .max(1.0),
        Plan::Select { input, predicate } => {
            (estimate_rows(input, db) * selectivity(predicate)).max(1.0)
        }
        Plan::Project { input, .. } => estimate_rows(input, db),
        Plan::Product { left, right } => estimate_rows(left, db) * estimate_rows(right, db),
        Plan::Join { left, right, on } => {
            let l = estimate_rows(left, db);
            let r = estimate_rows(right, db);
            // One equality level of fan-in per condition, floored at the
            // classic primary-key guess l·r / max(l, r).
            (l * r * 0.1f64.powi(i32::try_from(on.len()).unwrap_or(i32::MAX)))
                .max(l.min(r))
                .max(1.0)
        }
        Plan::Aggregate {
            input, group_by, ..
        } => {
            if group_by.is_empty() {
                1.0
            } else {
                (estimate_rows(input, db) / 2.0).max(1.0)
            }
        }
        Plan::Distinct { input } => (estimate_rows(input, db) * 0.5).max(1.0),
        Plan::Union { left, right } => estimate_rows(left, db) + estimate_rows(right, db),
        Plan::Difference { left, right: _ } => estimate_rows(left, db),
        Plan::Intersect { left, right } => estimate_rows(left, db).min(estimate_rows(right, db)),
        // A closure typically multiplies its seed by a small path factor;
        // the exact size is data-dependent, so stay deliberately coarse.
        Plan::Fixpoint { base, .. } => estimate_rows(base, db) * 4.0,
        // A Rec leaf's cardinality is the fixpoint's, unknowable locally.
        Plan::Rec { .. } => 100.0,
    }
}

fn selectivity(pred: &Expr) -> f64 {
    match pred {
        Expr::Cmp(CmpOp::Eq, ..) => 0.1,
        Expr::Cmp(CmpOp::Ne, ..) => 0.9,
        Expr::Cmp(..) => 0.3,
        Expr::And(a, b) => selectivity(a) * selectivity(b),
        Expr::Or(a, b) => {
            let (sa, sb) = (selectivity(a), selectivity(b));
            (sa + sb - sa * sb).min(1.0)
        }
        Expr::Not(a) => 1.0 - selectivity(a),
        Expr::IsNull(_) => 0.05,
        Expr::Literal(Value::Bool(true)) => 1.0,
        Expr::Literal(Value::Bool(false)) | Expr::Literal(Value::Null) => 0.0,
        Expr::Column(_) | Expr::Literal(_) => 0.5,
    }
}

/// What a rewrite resolves names and types against: the catalog and, inside
/// a fixpoint's step, the column types of the recursive relation it may
/// reference (`None` per column = unknown).
#[derive(Clone, Copy)]
struct Scope<'a> {
    db: &'a Database,
    rec: Option<(&'a str, &'a [Option<ValueType>])>,
}

/// Declared [`ValueType`] of `plan`'s output column `name` outside any
/// fixpoint (see [`declared_type`]); `None` means unknown. The executor
/// reads it to decide whether a SUM's partial sums add up exactly.
pub(crate) fn column_type(plan: &Plan, db: &Database, name: &str) -> Option<ValueType> {
    declared_type(plan, Scope { db, rec: None }, name)
}

/// Declared [`ValueType`] of one output column of a plan, when derivable by
/// walking down to the base schema. `None` means "unknown" — callers must
/// treat that conservatively. Used to gate the product→join rewrite:
/// strict join-key equality coincides with σ's widening `sql_cmp` only
/// when both sides share a declared type.
fn declared_type(plan: &Plan, sc: Scope<'_>, name: &str) -> Option<ValueType> {
    let db = sc.db;
    match plan {
        Plan::Scan { relation, .. } => {
            let rel = db.relation(relation).ok()?;
            let cols = plan.output_columns(db).ok()?;
            let idx = resolve_column(&cols, name)?;
            Some(rel.schema().columns()[idx].ty)
        }
        Plan::Select { input, .. } | Plan::Distinct { input } => declared_type(input, sc, name),
        Plan::Project { input, columns } => {
            let out = plan.output_columns(db).ok()?;
            let j = resolve_column(&out, name)?;
            declared_type(input, sc, &columns[j])
        }
        Plan::Product { left, right } | Plan::Join { left, right, .. } => {
            let l_cols = left.output_columns(db).ok()?;
            let mut combined = l_cols.clone();
            combined.extend(right.output_columns(db).ok()?);
            let idx = resolve_column(&combined, name)?;
            if idx < l_cols.len() {
                declared_type(left, sc, &combined[idx])
            } else {
                declared_type(right, sc, &combined[idx])
            }
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let out: Vec<Arc<str>> = group_by
                .iter()
                .cloned()
                .chain(aggs.iter().map(|a| Arc::clone(&a.name)))
                .collect();
            let j = resolve_column(&out, name)?;
            if j < group_by.len() {
                declared_type(input, sc, &group_by[j])
            } else {
                match &aggs[j - group_by.len()].func {
                    AggFunc::Count => Some(ValueType::Int),
                    AggFunc::Min(c) | AggFunc::Max(c) => declared_type(input, sc, c),
                    // SUM is Int for Int columns but may widen to Float on
                    // i64 overflow — conservatively unknown.
                    AggFunc::Sum(_) => None,
                }
            }
        }
        Plan::Union { left, right }
        | Plan::Difference { left, right }
        | Plan::Intersect { left, right } => {
            let l_cols = left.output_columns(db).ok()?;
            let r_cols = right.output_columns(db).ok()?;
            let j = resolve_column(&l_cols, name)?;
            let tl = declared_type(left, sc, &l_cols[j])?;
            let tr = declared_type(right, sc, r_cols.get(j)?)?;
            (tl == tr).then_some(tl)
        }
        Plan::Fixpoint {
            base,
            step,
            rec,
            columns,
            ..
        } => {
            let j = resolve_column(columns, name)?;
            rec_column_types(base, step, rec, sc).get(j).copied()?
        }
        // A Rec leaf has no catalog anchor: it is typed only by the
        // enclosing fixpoint, and unknown outside one.
        Plan::Rec { name: rec, columns } => match sc.rec {
            Some((bound, types)) if bound == rec.as_ref() => {
                types.get(resolve_column(columns, name)?).copied()?
            }
            _ => None,
        },
    }
}

/// Column types of the recursive relation `rec` = μ(`base` ∪ `step`): a
/// column has its base term's declared type when the step, reading the
/// recursive relation under that typing, produces the same type there, and
/// is unknown otherwise. Dropping one column's assumption can invalidate
/// another's (a step may permute columns), so the check repeats until it is
/// stable — at most once per column.
fn rec_column_types(base: &Plan, step: &Plan, rec: &str, sc: Scope<'_>) -> Vec<Option<ValueType>> {
    let (Ok(base_cols), Ok(step_cols)) = (base.output_columns(sc.db), step.output_columns(sc.db))
    else {
        return Vec::new();
    };
    let mut types: Vec<Option<ValueType>> = base_cols
        .iter()
        .map(|c| declared_type(base, sc, c))
        .collect();
    loop {
        let inner = Scope {
            db: sc.db,
            rec: Some((rec, &types)),
        };
        let kept: Vec<Option<ValueType>> = types
            .iter()
            .zip(&step_cols)
            .map(|(t, c)| t.filter(|t| declared_type(step, inner, c) == Some(*t)))
            .collect();
        if kept == types {
            return types;
        }
        types = kept;
    }
}

// -------------------------------------------------------------- rewrites --

/// Recursively optimizes a plan. `order_free` is true when an ancestor
/// re-derives its output columns *by name* (π or γ) with no positional
/// consumer in between, which licenses column-order-changing rewrites
/// (join input swaps) below.
fn rewrite(
    plan: Plan,
    sc: Scope<'_>,
    order_free: bool,
    rep: &mut PlannerReport,
) -> Result<Plan, PlanError> {
    let db = sc.db;
    match plan {
        Plan::Scan { .. } => Ok(plan),
        Plan::Select { input, predicate } => {
            let mut preds = Vec::new();
            split_conjuncts(fold_expr(&predicate, rep), &mut preds);
            let inner = rewrite(*input, sc, order_free, rep)?;
            push_preds(inner, preds, sc, order_free, rep)
        }
        Plan::Project { input, columns } => {
            let inner = rewrite(*input, sc, true, rep)?;
            let (inner, columns) = merge_projects(inner, columns, db, rep)?;
            // Identity projection: same names, same order as the input.
            if inner.output_columns(db)? == columns {
                rep.projections_pruned += 1;
                Ok(inner)
            } else {
                Ok(Plan::Project {
                    input: Box::new(inner),
                    columns,
                })
            }
        }
        Plan::Product { left, right } => {
            let left = rewrite(*left, sc, order_free, rep)?;
            let right = rewrite(*right, sc, order_free, rep)?;
            Ok(Plan::Product {
                left: Box::new(left),
                right: Box::new(right),
            })
        }
        Plan::Join { left, right, on } => {
            let left = rewrite(*left, sc, order_free, rep)?;
            let right = rewrite(*right, sc, order_free, rep)?;
            Ok(maybe_swap_join(left, right, on, db, order_free, rep))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let input = rewrite(*input, sc, true, rep)?;
            let aggs = aggs
                .into_iter()
                .map(|a| AggExpr {
                    filter: a.filter.map(|f| fold_expr(&f, rep)),
                    ..a
                })
                .collect();
            Ok(Plan::Aggregate {
                input: Box::new(input),
                group_by,
                aggs,
            })
        }
        Plan::Distinct { input } => {
            let inner = rewrite(*input, sc, order_free, rep)?;
            // δ∘δ = δ.
            if let Plan::Distinct { .. } = inner {
                return Ok(inner);
            }
            Ok(Plan::Distinct {
                input: Box::new(inner),
            })
        }
        Plan::Union { left, right } => Ok(Plan::Union {
            left: Box::new(rewrite(*left, sc, false, rep)?),
            right: Box::new(rewrite(*right, sc, false, rep)?),
        }),
        Plan::Difference { left, right } => Ok(Plan::Difference {
            left: Box::new(rewrite(*left, sc, false, rep)?),
            right: Box::new(rewrite(*right, sc, false, rep)?),
        }),
        Plan::Intersect { left, right } => Ok(Plan::Intersect {
            left: Box::new(rewrite(*left, sc, false, rep)?),
            right: Box::new(rewrite(*right, sc, false, rep)?),
        }),
        // A fixpoint is a rewrite barrier: its terms are optimized
        // independently (column order across iterations is positional, so
        // order-changing rewrites stay disabled), and nothing migrates
        // across the recursion boundary except the recursive relation's
        // column types, which let `σ(Rec × S)` become `Rec ⋈ S` in the step.
        Plan::Fixpoint {
            base,
            step,
            rec,
            columns,
            all,
            cap,
        } => {
            let base = rewrite(*base, sc, false, rep)?;
            let types = rec_column_types(&base, &step, &rec, sc);
            let inner = Scope {
                db,
                rec: Some((&rec, &types)),
            };
            let step = rewrite(*step, inner, false, rep)?;
            Ok(Plan::Fixpoint {
                base: Box::new(base),
                step: Box::new(step),
                rec,
                columns,
                all,
                cap,
            })
        }
        Plan::Rec { .. } => Ok(plan),
    }
}

/// Pushes a conjunct list into `plan` as deep as soundness allows, wrapping
/// whatever cannot sink as a selection on top. Conjunct order is preserved
/// wherever predicates recombine, so repeated optimization is stable.
fn push_preds(
    plan: Plan,
    preds: Vec<Expr>,
    sc: Scope<'_>,
    order_free: bool,
    rep: &mut PlannerReport,
) -> Result<Plan, PlanError> {
    // σ(TRUE) vanishes entirely.
    let preds: Vec<Expr> = preds
        .into_iter()
        .filter(|p| !matches!(p, Expr::Literal(Value::Bool(true))))
        .collect();
    if preds.is_empty() {
        return Ok(plan);
    }
    match plan {
        // Merge through an existing selection: its conjuncts sink first
        // (they were innermost), then ours.
        Plan::Select { input, predicate } => {
            let mut all = Vec::new();
            split_conjuncts(predicate, &mut all);
            all.extend(preds);
            push_preds(*input, all, sc, order_free, rep)
        }
        Plan::Project { input, columns } => {
            let out_names = &columns;
            let mut sunk = Vec::new();
            let mut kept = Vec::new();
            for p in preds {
                // A conjunct sinks when every referenced column maps through
                // the projection; references are rewritten to the projected
                // column names so resolution below stays unambiguous.
                match rewrite_refs(&p, |name| {
                    resolve_column(out_names, name).map(|j| Arc::clone(&columns[j]))
                }) {
                    Some(rewritten) => sunk.push(rewritten),
                    None => kept.push(p),
                }
            }
            if !sunk.is_empty() {
                rep.predicates_pushed += sunk.len() as u64;
            }
            let inner = push_preds(*input, sunk, sc, true, rep)?;
            Ok(wrap(
                Plan::Project {
                    input: Box::new(inner),
                    columns,
                },
                kept,
            ))
        }
        Plan::Product { left, right } => {
            push_into_pair(*left, *right, None, preds, sc, order_free, rep)
        }
        Plan::Join { left, right, on } => {
            push_into_pair(*left, *right, Some(on), preds, sc, order_free, rep)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // γ's output is its grouping columns followed by the aggregate
            // names — derivable without cloning the input subtree.
            let out_cols: Vec<Arc<str>> = group_by
                .iter()
                .cloned()
                .chain(aggs.iter().map(|a| Arc::clone(&a.name)))
                .collect();
            let mut sunk = Vec::new();
            let mut kept = Vec::new();
            for p in preds {
                // Only predicates over grouping columns commute with γ
                // (aggregate outputs do not exist below it). References are
                // rewritten to the group-by names, which resolve below.
                let mapped = rewrite_refs(&p, |name| {
                    resolve_column(&out_cols, name)
                        .filter(|j| *j < group_by.len())
                        .map(|j| Arc::clone(&group_by[j]))
                });
                match mapped {
                    Some(rewritten) if !group_by.is_empty() => sunk.push(rewritten),
                    _ => kept.push(p),
                }
            }
            if !sunk.is_empty() {
                rep.predicates_pushed += sunk.len() as u64;
            }
            let inner = push_preds(*input, sunk, sc, true, rep)?;
            Ok(wrap(
                Plan::Aggregate {
                    input: Box::new(inner),
                    group_by,
                    aggs,
                },
                kept,
            ))
        }
        // σ∘δ ≡ δ∘σ.
        Plan::Distinct { input } => {
            rep.predicates_pushed += preds.len() as u64;
            let inner = push_preds(*input, preds, sc, order_free, rep)?;
            Ok(Plan::Distinct {
                input: Box::new(inner),
            })
        }
        // σ distributes over ∪, ∖, and ∩ (the filter applies pointwise to
        // multiplicities on both sides). The right arm's columns may be
        // named differently: rewrite references positionally.
        Plan::Union { left, right } => {
            push_into_setop(*left, *right, SetOpShape::Union, preds, sc, rep)
        }
        Plan::Difference { left, right } => {
            push_into_setop(*left, *right, SetOpShape::Difference, preds, sc, rep)
        }
        Plan::Intersect { left, right } => {
            push_into_setop(*left, *right, SetOpShape::Intersect, preds, sc, rep)
        }
        Plan::Scan { .. } => Ok(wrap(plan, preds)),
        // Pushing predicates across the recursion boundary is unsound in
        // general (a predicate that prunes intermediate closure tuples
        // changes the fixpoint), so a fixpoint is a pushdown barrier.
        Plan::Fixpoint { .. } | Plan::Rec { .. } => Ok(wrap(plan, preds)),
    }
}

#[derive(Clone, Copy)]
enum SetOpShape {
    Union,
    Difference,
    Intersect,
}

/// Pushes conjuncts into both arms of a set operation. A conjunct sinks
/// only when its references rewrite positionally onto the right arm's
/// column names; the rest stays above.
fn push_into_setop(
    left: Plan,
    right: Plan,
    shape: SetOpShape,
    preds: Vec<Expr>,
    sc: Scope<'_>,
    rep: &mut PlannerReport,
) -> Result<Plan, PlanError> {
    let db = sc.db;
    let l_cols = left.output_columns(db)?;
    let r_cols = right.output_columns(db)?;
    let mut l_preds = Vec::new();
    let mut r_preds = Vec::new();
    let mut kept = Vec::new();
    for p in preds {
        let right_p = if l_cols.len() == r_cols.len() {
            rewrite_refs(&p, |name| {
                resolve_column(&l_cols, name).map(|j| Arc::clone(&r_cols[j]))
            })
        } else {
            None
        };
        match right_p {
            Some(rp) => {
                l_preds.push(p);
                r_preds.push(rp);
            }
            None => kept.push(p),
        }
    }
    rep.predicates_pushed += l_preds.len() as u64;
    let left = Box::new(push_preds(left, l_preds, sc, false, rep)?);
    let right = Box::new(push_preds(right, r_preds, sc, false, rep)?);
    let node = match shape {
        SetOpShape::Union => Plan::Union { left, right },
        SetOpShape::Difference => Plan::Difference { left, right },
        SetOpShape::Intersect => Plan::Intersect { left, right },
    };
    Ok(wrap(node, kept))
}

/// Partition conjuncts over a product/join pair, rewrite products with
/// spanning equalities into joins, push side-local conjuncts down, and
/// order the join inputs by estimated cardinality when allowed.
fn push_into_pair(
    left: Plan,
    right: Plan,
    join_on: Option<Vec<(Arc<str>, Arc<str>)>>,
    preds: Vec<Expr>,
    sc: Scope<'_>,
    order_free: bool,
    rep: &mut PlannerReport,
) -> Result<Plan, PlanError> {
    let db = sc.db;
    let l_cols = left.output_columns(db)?;
    let r_cols = right.output_columns(db)?;
    let mut combined = l_cols.clone();
    combined.extend(r_cols.iter().cloned());
    let nl = l_cols.len();

    let was_product = join_on.is_none();
    let mut on = join_on.unwrap_or_default();
    let mut l_preds = Vec::new();
    let mut r_preds = Vec::new();
    let mut kept = Vec::new();

    for p in preds {
        let mut refs = Vec::new();
        p.referenced_columns(&mut refs);
        let positions: Option<Vec<usize>> =
            refs.iter().map(|r| resolve_column(&combined, r)).collect();
        match positions {
            Some(pos) if !pos.is_empty() && pos.iter().all(|i| *i < nl) => l_preds.push(p),
            Some(pos) if !pos.is_empty() && pos.iter().all(|i| *i >= nl) => r_preds.push(p),
            Some(_) => {
                // Spanning: an equality between one column on each side
                // becomes a join condition — but only when both columns
                // share a declared type. σ compares via `sql_cmp`, which
                // widens Int = Float; the hash join matches keys by strict
                // `Value` equality, so a cross-type rewrite would silently
                // drop matching rows. Unknown or differing types keep the
                // predicate as a selection above (correct, just not joined).
                if let Expr::Cmp(CmpOp::Eq, a, b) = &p {
                    if let (Expr::Column(ca), Expr::Column(cb)) = (&**a, &**b) {
                        let (ia, ib) =
                            (resolve_column(&combined, ca), resolve_column(&combined, cb));
                        let types_match = |l_idx: usize, r_idx: usize| {
                            let tl = declared_type(&left, sc, &combined[l_idx]);
                            let tr = declared_type(&right, sc, &combined[r_idx]);
                            tl.is_some() && tl == tr
                        };
                        match (ia, ib) {
                            (Some(ia), Some(ib)) if ia < nl && ib >= nl && types_match(ia, ib) => {
                                on.push((Arc::clone(ca), Arc::clone(cb)));
                                rep.join_conditions_added += 1;
                                continue;
                            }
                            (Some(ia), Some(ib)) if ib < nl && ia >= nl && types_match(ib, ia) => {
                                on.push((Arc::clone(cb), Arc::clone(ca)));
                                rep.join_conditions_added += 1;
                                continue;
                            }
                            _ => {}
                        }
                    }
                }
                kept.push(p);
            }
            None => kept.push(p),
        }
    }

    rep.predicates_pushed += (l_preds.len() + r_preds.len()) as u64;
    let left = push_preds(left, l_preds, sc, order_free, rep)?;
    let right = push_preds(right, r_preds, sc, order_free, rep)?;

    let node = if on.is_empty() {
        Plan::Product {
            left: Box::new(left),
            right: Box::new(right),
        }
    } else {
        if was_product {
            rep.products_to_joins += 1;
            // The conditions themselves were already counted as merges;
            // converting counts once.
            rep.join_conditions_added -= on.len() as u64;
        }
        maybe_swap_join(left, right, on, db, order_free, rep)
    };
    Ok(wrap(node, kept))
}

/// Builds a join, swapping inputs when the context is order-free and the
/// estimated build side (the executor hashes the right input) is larger
/// than the probe side.
fn maybe_swap_join(
    left: Plan,
    right: Plan,
    on: Vec<(Arc<str>, Arc<str>)>,
    db: &Database,
    order_free: bool,
    rep: &mut PlannerReport,
) -> Plan {
    if order_free {
        let (el, er) = (estimate_rows(&left, db), estimate_rows(&right, db));
        if el < er {
            rep.joins_reordered += 1;
            return Plan::Join {
                left: Box::new(right),
                right: Box::new(left),
                on: on.into_iter().map(|(a, b)| (b, a)).collect(),
            };
        }
    }
    Plan::Join {
        left: Box::new(left),
        right: Box::new(right),
        on,
    }
}

/// Collapses `π_outer ∘ π_inner` into one projection by mapping the outer
/// names through the inner list.
fn merge_projects(
    inner: Plan,
    outer_columns: Vec<Arc<str>>,
    db: &Database,
    rep: &mut PlannerReport,
) -> Result<(Plan, Vec<Arc<str>>), PlanError> {
    if let Plan::Project {
        input,
        columns: inner_columns,
    } = &inner
    {
        let inner_out = inner.output_columns(db)?;
        let mapped: Option<Vec<Arc<str>>> = outer_columns
            .iter()
            .map(|c| resolve_column(&inner_out, c).map(|j| Arc::clone(&inner_columns[j])))
            .collect();
        if let Some(mapped) = mapped {
            rep.projections_pruned += 1;
            return Ok(((**input).clone(), mapped));
        }
    }
    Ok((inner, outer_columns))
}

fn wrap(plan: Plan, preds: Vec<Expr>) -> Plan {
    match preds.into_iter().reduce(Expr::and) {
        Some(p) => plan.filter(p),
        None => plan,
    }
}

/// Splits a predicate into conjuncts (flattening nested ANDs).
fn split_conjuncts(pred: Expr, out: &mut Vec<Expr>) {
    match pred {
        Expr::And(a, b) => {
            split_conjuncts(*a, out);
            split_conjuncts(*b, out);
        }
        p => out.push(p),
    }
}

/// Rewrites every column reference via `map`; `None` from `map` aborts the
/// whole rewrite (the predicate keeps its place).
fn rewrite_refs(e: &Expr, map: impl Fn(&str) -> Option<Arc<str>> + Copy) -> Option<Expr> {
    Some(match e {
        Expr::Column(c) => Expr::Column(map(c)?),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Cmp(op, a, b) => Expr::Cmp(
            *op,
            Box::new(rewrite_refs(a, map)?),
            Box::new(rewrite_refs(b, map)?),
        ),
        Expr::And(a, b) => Expr::And(
            Box::new(rewrite_refs(a, map)?),
            Box::new(rewrite_refs(b, map)?),
        ),
        Expr::Or(a, b) => Expr::Or(
            Box::new(rewrite_refs(a, map)?),
            Box::new(rewrite_refs(b, map)?),
        ),
        Expr::Not(a) => Expr::Not(Box::new(rewrite_refs(a, map)?)),
        Expr::IsNull(a) => Expr::IsNull(Box::new(rewrite_refs(a, map)?)),
    })
}

/// Constant-folds an expression under SQL three-valued semantics. Literal
/// comparisons collapse to `TRUE`/`FALSE`/`NULL`; boolean connectives
/// simplify around literal arms exactly as
/// [`crate::expr::BoundExpr::eval_truth`] would evaluate them.
pub fn fold_expr(e: &Expr, rep: &mut PlannerReport) -> Expr {
    match e {
        Expr::Column(_) | Expr::Literal(_) => e.clone(),
        Expr::Cmp(op, a, b) => {
            let (fa, fb) = (fold_expr(a, rep), fold_expr(b, rep));
            if let (Expr::Literal(va), Expr::Literal(vb)) = (&fa, &fb) {
                rep.constants_folded += 1;
                return match va.sql_cmp(vb) {
                    Some(ord) => Expr::Literal(Value::Bool(op.apply(ord))),
                    None => Expr::Literal(Value::Null),
                };
            }
            Expr::Cmp(*op, Box::new(fa), Box::new(fb))
        }
        Expr::And(a, b) => {
            let (fa, fb) = (fold_expr(a, rep), fold_expr(b, rep));
            match (truth_literal(&fa), truth_literal(&fb)) {
                (Some(Some(false)), _) | (_, Some(Some(false))) => {
                    rep.constants_folded += 1;
                    Expr::Literal(Value::Bool(false))
                }
                (Some(Some(true)), _) => {
                    rep.constants_folded += 1;
                    fb
                }
                (_, Some(Some(true))) => {
                    rep.constants_folded += 1;
                    fa
                }
                (Some(None), Some(None)) => {
                    rep.constants_folded += 1;
                    Expr::Literal(Value::Null)
                }
                _ => Expr::And(Box::new(fa), Box::new(fb)),
            }
        }
        Expr::Or(a, b) => {
            let (fa, fb) = (fold_expr(a, rep), fold_expr(b, rep));
            match (truth_literal(&fa), truth_literal(&fb)) {
                (Some(Some(true)), _) | (_, Some(Some(true))) => {
                    rep.constants_folded += 1;
                    Expr::Literal(Value::Bool(true))
                }
                (Some(Some(false)), _) => {
                    rep.constants_folded += 1;
                    fb
                }
                (_, Some(Some(false))) => {
                    rep.constants_folded += 1;
                    fa
                }
                (Some(None), Some(None)) => {
                    rep.constants_folded += 1;
                    Expr::Literal(Value::Null)
                }
                _ => Expr::Or(Box::new(fa), Box::new(fb)),
            }
        }
        Expr::Not(a) => {
            let fa = fold_expr(a, rep);
            match truth_literal(&fa) {
                Some(Some(b)) => {
                    rep.constants_folded += 1;
                    Expr::Literal(Value::Bool(!b))
                }
                Some(None) => {
                    rep.constants_folded += 1;
                    Expr::Literal(Value::Null)
                }
                None => Expr::Not(Box::new(fa)),
            }
        }
        Expr::IsNull(a) => {
            let fa = fold_expr(a, rep);
            if let Expr::Literal(v) = &fa {
                rep.constants_folded += 1;
                return Expr::Literal(Value::Bool(v.is_null()));
            }
            Expr::IsNull(Box::new(fa))
        }
    }
}

/// Three-valued truth of a literal expression: `Some(Some(b))` for booleans,
/// `Some(None)` for NULL (and non-boolean literals, which evaluate to
/// unknown), `None` for non-literals.
fn truth_literal(e: &Expr) -> Option<Option<bool>> {
    match e {
        Expr::Literal(Value::Bool(b)) => Some(Some(*b)),
        Expr::Literal(_) => Some(None),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::paper_queries;
    use crate::exec::execute;
    use crate::parser::paper_sql;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType;

    fn token_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[
            ("tok_id", ValueType::Int),
            ("doc_id", ValueType::Int),
            ("string", ValueType::Str),
            ("label", ValueType::Str),
            ("truth", ValueType::Str),
        ])
        .unwrap()
        .with_primary_key("tok_id")
        .unwrap();
        db.create_relation("TOKEN", schema).unwrap();
        let rows = vec![
            (1, 1, "Bill", "B-PER"),
            (2, 1, "said", "O"),
            (3, 1, "Boston", "B-ORG"),
            (4, 2, "Boston", "B-LOC"),
            (5, 2, "hired", "O"),
            (6, 2, "Ann", "B-PER"),
            (7, 3, "IBM", "B-ORG"),
            (8, 3, "Ann", "B-PER"),
        ];
        let rel = db.relation_mut("TOKEN").unwrap();
        for (id, doc, s, l) in rows {
            rel.insert(tuple![id as i64, doc as i64, s, l, l]).unwrap();
        }
        db
    }

    /// Optimization must preserve columns and rows exactly, and never
    /// construct more intermediate tuples.
    fn assert_equivalent_and_cheaper(plan: &Plan, db: &Database) -> (u64, u64) {
        let opt = optimize(plan, db).unwrap();
        let (naive_res, naive_stats) = execute(plan, db).unwrap();
        let (opt_res, opt_stats) = execute(&opt, db).unwrap();
        assert_eq!(
            naive_res.columns, opt_res.columns,
            "columns changed:\n{plan}\n{opt}"
        );
        assert_eq!(
            naive_res.rows.sorted_entries(),
            opt_res.rows.sorted_entries(),
            "rows changed:\n{plan}\n{opt}"
        );
        assert!(
            opt_stats.intermediate_tuples <= naive_stats.intermediate_tuples,
            "optimizer increased work ({} > {}):\n{plan}\n{opt}",
            opt_stats.intermediate_tuples,
            naive_stats.intermediate_tuples
        );
        (
            naive_stats.intermediate_tuples,
            opt_stats.intermediate_tuples,
        )
    }

    #[test]
    fn query4_text_recovers_hand_built_join_shape() {
        let db = token_db();
        let opt = compile_query(&paper_sql::query4("TOKEN"), &db).unwrap();
        // Pushdown + product→join: the optimized plan is a join of two
        // filtered scans under a projection (the hand-built Query 4 shape,
        // modulo join input order chosen by cardinality).
        let shape = opt.to_string();
        assert!(shape.contains('⋈'), "no join recovered: {shape}");
        assert!(!shape.contains('×'), "product survived: {shape}");
        let (res, _) = execute(&opt, &db).unwrap();
        let (want, _) = execute(&paper_queries::query4("TOKEN"), &db).unwrap();
        assert_eq!(res.rows.sorted_entries(), want.rows.sorted_entries());
    }

    #[test]
    fn paper_queries_optimize_to_identical_results() {
        let db = token_db();
        for sql in [
            paper_sql::query1("TOKEN"),
            paper_sql::query2("TOKEN"),
            paper_sql::query3("TOKEN"),
            paper_sql::query4("TOKEN"),
        ] {
            let naive = parser::parse_plan(&sql).unwrap();
            let hand = match sql.contains("T2") {
                true => paper_queries::query4("TOKEN"),
                false if sql.contains("n_person") => paper_queries::query2("TOKEN"),
                false if sql.contains("GROUP BY") => paper_queries::query3("TOKEN"),
                false => paper_queries::query1("TOKEN"),
            };
            assert_equivalent_and_cheaper(&naive, &db);
            let opt = optimize(&naive, &db).unwrap();
            let (a, _) = execute(&opt, &db).unwrap();
            let (b, _) = execute(&hand, &db).unwrap();
            assert_eq!(a.rows.sorted_entries(), b.rows.sorted_entries(), "{sql}");
        }
    }

    #[test]
    fn query4_join_workload_reduces_intermediate_tuples() {
        let db = token_db();
        let naive = parser::parse_plan(&paper_sql::query4("TOKEN")).unwrap();
        let (before, after) = assert_equivalent_and_cheaper(&naive, &db);
        assert!(
            after < before,
            "pushdown + join rewrite should strictly reduce: {before} -> {after}"
        );
    }

    #[test]
    fn pushdown_reaches_index_fast_path() {
        let mut db = token_db();
        db.relation_mut("TOKEN")
            .unwrap()
            .create_index("string")
            .unwrap();
        // Filter above a projection sinks below it, landing σ directly on
        // the scan where the secondary index applies.
        let plan = Plan::scan("TOKEN")
            .project(&["string", "label"])
            .filter(Expr::col("string").eq(Expr::lit("Ann")));
        let opt = optimize(&plan, &db).unwrap();
        let (res, stats) = execute(&opt, &db).unwrap();
        assert_eq!(res.rows.total(), 2);
        assert_eq!(stats.tuples_scanned, 2, "index probe not reached: {opt}");
    }

    #[test]
    fn constant_folding_three_valued() {
        let mut rep = PlannerReport::default();
        // 1 = 1 → TRUE
        let t = fold_expr(&Expr::lit(1i64).eq(Expr::lit(1i64)), &mut rep);
        assert_eq!(t, Expr::Literal(Value::Bool(true)));
        // NULL = 1 → NULL
        let n = fold_expr(&Expr::lit(Value::Null).eq(Expr::lit(1i64)), &mut rep);
        assert_eq!(n, Expr::Literal(Value::Null));
        // x AND FALSE → FALSE even with a column arm.
        let f = fold_expr(
            &Expr::col("x").eq(Expr::lit(1i64)).and(Expr::lit(false)),
            &mut rep,
        );
        assert_eq!(f, Expr::Literal(Value::Bool(false)));
        // x AND TRUE → x.
        let x = fold_expr(
            &Expr::col("x")
                .eq(Expr::lit(1i64))
                .and(Expr::lit(2i64).gt(Expr::lit(1i64))),
            &mut rep,
        );
        assert_eq!(x, Expr::col("x").eq(Expr::lit(1i64)));
        // NOT NULL → NULL; NULL IS NULL → TRUE.
        assert_eq!(
            fold_expr(&Expr::lit(Value::Null).not(), &mut rep),
            Expr::Literal(Value::Null)
        );
        assert_eq!(
            fold_expr(&Expr::lit(Value::Null).is_null(), &mut rep),
            Expr::Literal(Value::Bool(true))
        );
        assert!(rep.constants_folded >= 5);
    }

    #[test]
    fn sigma_true_is_dropped_sigma_false_is_kept_sound() {
        let db = token_db();
        let plan = Plan::scan("TOKEN")
            .filter(Expr::lit(1i64).eq(Expr::lit(1i64)))
            .project(&["string"]);
        let opt = optimize(&plan, &db).unwrap();
        assert_eq!(opt.to_string(), "π[string](Scan(TOKEN))");
        // A contradictory filter stays and yields the empty answer.
        let never = Plan::scan("TOKEN")
            .filter(Expr::lit(1i64).eq(Expr::lit(2i64)))
            .project(&["string"]);
        assert_equivalent_and_cheaper(&never, &db);
    }

    #[test]
    fn projection_chains_collapse() {
        let db = token_db();
        let plan = Plan::scan("TOKEN")
            .project(&["tok_id", "doc_id", "string", "label", "truth"]) // identity
            .project(&["string", "label"])
            .project(&["string"]);
        let (opt, rep) = optimize_with_report(&plan, &db).unwrap();
        assert_eq!(opt.to_string(), "π[string](Scan(TOKEN))");
        assert!(rep.projections_pruned >= 2);
        assert_equivalent_and_cheaper(&plan, &db);
    }

    #[test]
    fn pushdown_through_union_renames_positionally() {
        let db = token_db();
        // Right arm's output column is named differently (B.string); the
        // filter above the union must rewrite its reference for that arm.
        let plan = Plan::scan("TOKEN")
            .project(&["string"])
            .union(Plan::scan_as("TOKEN", "B").project(&["B.string"]))
            .filter(Expr::col("string").eq(Expr::lit("Ann")));
        let (before, after) = assert_equivalent_and_cheaper(&plan, &db);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn pushdown_through_aggregate_group_columns_only() {
        let db = token_db();
        // doc_id is a group column → sinks; the count predicate is not.
        let plan = Plan::scan("TOKEN")
            .aggregate(
                &["doc_id"],
                vec![AggExpr::new(crate::algebra::AggFunc::Count, "n")],
            )
            .filter(
                Expr::col("doc_id")
                    .le(Expr::lit(2i64))
                    .and(Expr::col("n").gt(Expr::lit(0i64))),
            );
        let (opt, rep) = optimize_with_report(&plan, &db).unwrap();
        assert!(rep.predicates_pushed >= 1, "{opt}");
        assert_equivalent_and_cheaper(&plan, &db);
        // Shape: σ(n>0) above γ, σ(doc_id≤2) below it.
        assert_eq!(opt.to_string(), "σ(γ[doc_id](σ(Scan(TOKEN))))");
    }

    #[test]
    fn join_reordered_by_estimated_cardinality_under_projection() {
        let mut db = token_db();
        // A second, much smaller relation.
        let schema =
            Schema::from_pairs(&[("doc", ValueType::Int), ("topic", ValueType::Str)]).unwrap();
        db.create_relation("DOC", schema).unwrap();
        db.relation_mut("DOC")
            .unwrap()
            .insert(tuple![1i64, "sports"])
            .unwrap();
        // Big side left, small side right already: no swap. Reversed: swap.
        let plan = Plan::scan_as("DOC", "D")
            .join_on(Plan::scan_as("TOKEN", "T"), &[("D.doc", "T.doc_id")])
            .project(&["T.string", "D.topic"]);
        let (opt, rep) = optimize_with_report(&plan, &db).unwrap();
        assert_eq!(rep.joins_reordered, 1, "{opt}");
        assert_equivalent_and_cheaper(&plan, &db);
        // Without a name-rederiving ancestor the swap must NOT fire.
        let positional = Plan::scan_as("DOC", "D")
            .join_on(Plan::scan_as("TOKEN", "T"), &[("D.doc", "T.doc_id")]);
        let (opt2, rep2) = optimize_with_report(&positional, &db).unwrap();
        assert_eq!(rep2.joins_reordered, 0, "{opt2}");
        assert_equivalent_and_cheaper(&positional, &db);
    }

    #[test]
    fn cross_type_equality_is_not_rewritten_into_a_join() {
        // σ compares Int(2) = Float(2.0) as equal (sql_cmp widens); a hash
        // join's strict key equality would not. The rewrite must therefore
        // refuse cross-type equalities — results stay identical, the
        // predicate simply remains a selection over the product.
        let mut db = Database::new();
        let a = Schema::from_pairs(&[("x", ValueType::Int)]).unwrap();
        let b = Schema::from_pairs(&[("y", ValueType::Float)]).unwrap();
        db.create_relation("A", a).unwrap();
        db.create_relation("B", b).unwrap();
        db.relation_mut("A").unwrap().insert(tuple![2i64]).unwrap();
        db.relation_mut("B")
            .unwrap()
            .insert(tuple![2.0f64])
            .unwrap();
        let plan = Plan::scan("A")
            .product(Plan::scan("B"))
            .filter(Expr::col("x").eq(Expr::col("y")));
        let (opt, rep) = optimize_with_report(&plan, &db).unwrap();
        assert_eq!(rep.products_to_joins, 0, "cross-type join formed: {opt}");
        let (res, _) = execute(&opt, &db).unwrap();
        assert_eq!(res.rows.total(), 1, "widened equality must still match");
        assert_equivalent_and_cheaper(&plan, &db);
        // Same-type equality still rewrites.
        let c = Schema::from_pairs(&[("z", ValueType::Int)]).unwrap();
        db.create_relation("C", c).unwrap();
        db.relation_mut("C").unwrap().insert(tuple![2i64]).unwrap();
        let joinable = Plan::scan("A")
            .product(Plan::scan("C"))
            .filter(Expr::col("x").eq(Expr::col("z")));
        let (opt, rep) = optimize_with_report(&joinable, &db).unwrap();
        assert_eq!(rep.products_to_joins, 1, "{opt}");
        assert_equivalent_and_cheaper(&joinable, &db);
    }

    /// LINK(id, src, dst, state) — the e2e `closure_links` shape.
    fn link_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[
            ("id", ValueType::Int),
            ("src", ValueType::Int),
            ("dst", ValueType::Int),
            ("state", ValueType::Str),
        ])
        .unwrap();
        db.create_relation("LINK", schema).unwrap();
        let rel = db.relation_mut("LINK").unwrap();
        for (id, (s, d, state)) in [(1, 2, "on"), (2, 3, "on"), (3, 4, "off"), (3, 1, "on")]
            .into_iter()
            .enumerate()
        {
            rel.insert(tuple![id as i64, s as i64, d as i64, state])
                .unwrap();
        }
        db
    }

    #[test]
    fn recursive_step_becomes_a_keyed_join() {
        let db = link_db();
        for sql in [
            // README's closure.
            "WITH RECURSIVE R (a, b) AS \
             (SELECT src, dst FROM LINK \
              UNION SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src) \
             SELECT a, b FROM R",
            // The e2e `closure_links` view.
            "WITH RECURSIVE R(a, b) AS (\
             SELECT src, dst FROM LINK WHERE state = 'on' \
             UNION SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src WHERE l.state = 'on') \
             SELECT * FROM R",
        ] {
            let naive = parser::parse_plan(sql).unwrap();
            let (opt, rep) = optimize_with_report(&naive, &db).unwrap();
            assert_eq!(rep.products_to_joins, 1, "{opt}");
            assert!(!opt.to_string().contains('×'), "product survived: {opt}");
            let (before, after) = assert_equivalent_and_cheaper(&naive, &db);
            assert!(after < before, "{before} -> {after}");
        }
    }

    #[test]
    fn recursive_column_whose_step_type_differs_stays_a_product() {
        // R.b starts Int (base) and turns Float (step), so `r.b = f.p` must
        // keep σ's widening comparison: Int 2 matches Float 2.0, which a
        // hash join's strict key equality would miss.
        let mut db = Database::new();
        let a = Schema::from_pairs(&[("x", ValueType::Int), ("y", ValueType::Int)]).unwrap();
        let f = Schema::from_pairs(&[("p", ValueType::Float), ("q", ValueType::Float)]).unwrap();
        db.create_relation("A", a).unwrap();
        db.create_relation("F", f).unwrap();
        db.relation_mut("A")
            .unwrap()
            .insert(tuple![1i64, 2i64])
            .unwrap();
        for (p, q) in [(2.0f64, 3.0f64), (3.0, 4.0)] {
            db.relation_mut("F").unwrap().insert(tuple![p, q]).unwrap();
        }
        let base = Plan::scan("A").project(&["x", "y"]);
        let step = Plan::rec("R", &["a", "b"])
            .product(Plan::scan("F"))
            .filter(Expr::col("b").eq(Expr::col("p")))
            .project(&["a", "q"]);
        let plan = base.clone().fixpoint(step, "R", &["a", "b"]);
        let (opt, rep) = optimize_with_report(&plan, &db).unwrap();
        assert_eq!(rep.products_to_joins, 0, "cross-type join formed: {opt}");
        let (res, _) = execute(&opt, &db).unwrap();
        assert_eq!(res.rows.total(), 3, "(1,2) (1,3.0) (1,4.0): {opt}");
        assert_equivalent_and_cheaper(&plan, &db);

        // The step feeds R.b into column a, so once b is untyped a is too:
        // `r.a = a2.x` may not become a join either.
        let permuting = Plan::rec("R", &["a", "b"])
            .product(Plan::scan("F"))
            .product(Plan::scan_as("A", "a2"))
            .filter(Expr::col("a").eq(Expr::col("a2.x")))
            .project(&["b", "q"]);
        let plan = base.fixpoint(permuting, "R", &["a", "b"]);
        let (opt, rep) = optimize_with_report(&plan, &db).unwrap();
        assert_eq!(rep.products_to_joins, 0, "{opt}");
        assert_equivalent_and_cheaper(&plan, &db);
    }

    #[test]
    fn report_renders_and_counts() {
        let db = token_db();
        let naive = parser::parse_plan(&paper_sql::query4("TOKEN")).unwrap();
        let (_, rep) = optimize_with_report(&naive, &db).unwrap();
        assert!(rep.products_to_joins == 1, "{rep}");
        assert!(rep.predicates_pushed >= 3, "{rep}");
        assert!(rep.total() >= 4);
        let s = rep.to_string();
        assert!(s.contains("product→join"));
    }

    #[test]
    fn estimates_scale_with_relation_sizes() {
        let db = token_db();
        let scan = Plan::scan("TOKEN");
        assert_eq!(estimate_rows(&scan, &db), 8.0);
        let filtered = scan.clone().filter(Expr::col("label").eq(Expr::lit("O")));
        assert!(estimate_rows(&filtered, &db) < 8.0);
        let prod = scan.clone().product(Plan::scan_as("TOKEN", "B"));
        assert_eq!(estimate_rows(&prod, &db), 64.0);
        let agg = scan.aggregate(&[], vec![]);
        assert_eq!(estimate_rows(&agg, &db), 1.0);
    }

    #[test]
    fn compile_query_reports_parse_and_plan_errors() {
        let db = token_db();
        assert!(matches!(
            compile_query("SELEC nope", &db),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            compile_query("SELECT x FROM MISSING", &db),
            Err(QueryError::Plan(_))
        ));
        assert!(matches!(
            compile_query("SELECT nope FROM TOKEN", &db),
            Err(QueryError::Plan(_))
        ));
    }

    #[test]
    fn set_ops_and_distinct_still_correct_after_rewrites() {
        let db = token_db();
        for sql in [
            "SELECT string FROM TOKEN WHERE label <> 'O' EXCEPT SELECT string FROM TOKEN \
             WHERE label = 'B-PER'",
            "SELECT DISTINCT string FROM TOKEN WHERE doc_id < 3 INTERSECT ALL \
             SELECT string FROM TOKEN",
            "SELECT string FROM TOKEN WHERE label = 'B-PER' UNION SELECT string FROM TOKEN \
             WHERE label = 'B-ORG'",
        ] {
            let naive = parser::parse_plan(sql).unwrap();
            assert_equivalent_and_cheaper(&naive, &db);
        }
    }
}
