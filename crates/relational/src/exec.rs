//! Full (from-scratch) query execution.
//!
//! This is the executor the *naive* sampling evaluator of Algorithm 3 calls
//! on every sampled world: it recomputes `Q(w)` by scanning base relations.
//! Its cost is Θ(|w|) per evaluation, which is exactly the cost the
//! view-maintenance evaluator (Algorithm 1 / [`crate::view`]) amortizes away.
//!
//! The executor reports [`ExecStats`] — tuples scanned and rows processed —
//! so experiments can compare *work* as well as wall-clock time between the
//! two evaluators, independent of machine speed.

use crate::algebra::{AggExpr, AggFunc, Plan, PlanError};
use crate::counted::CountedSet;
use crate::database::Database;
use crate::expr::{resolve_column, BoundExpr, Expr};
use crate::fasthash::FxHashMap;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Work counters for one query execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Base tuples read from storage (scan or index probe results).
    pub tuples_scanned: u64,
    /// Intermediate rows processed by operators above the scans.
    pub rows_processed: u64,
    /// Distinct tuples *constructed* into intermediate results by
    /// tuple-building operators (π, ×, ⋈, γ, δ, ∪, ∖, ∩). Scans and
    /// selections pass existing tuples through and do not count. This is
    /// the metric the [`crate::planner`] optimizer provably never
    /// increases: pushing a selection below a tuple-building operator can
    /// only shrink that operator's output.
    pub intermediate_tuples: u64,
}

impl ExecStats {
    /// Accumulates another stats record.
    pub fn absorb(&mut self, other: ExecStats) {
        self.tuples_scanned += other.tuples_scanned;
        self.rows_processed += other.rows_processed;
        self.intermediate_tuples += other.intermediate_tuples;
    }
}

/// A fully evaluated query answer: named columns and a counted multiset of
/// rows (multiset semantics per §4.2 of the paper).
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<Arc<str>>,
    /// Multiset of answer rows.
    pub rows: CountedSet,
}

impl QueryResult {
    /// Distinct answer tuples, sorted (deterministic reporting order).
    pub fn sorted_support(&self) -> Vec<Tuple> {
        self.rows.sorted_support()
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<_> = self.columns.iter().map(|c| c.to_string()).collect();
        writeln!(f, "{}", names.join(" | "))?;
        for t in self.rows.sorted_support() {
            let c = self.rows.count(&t);
            if c == 1 {
                writeln!(f, "{t}")?;
            } else {
                writeln!(f, "{t} ×{c}")?;
            }
        }
        Ok(())
    }
}

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Plan failed validation or binding.
    Plan(PlanError),
    /// A [`Plan::Fixpoint`] failed to converge within its iteration cap
    /// (divergent recursion — e.g. `UNION ALL` over a cyclic graph, or a
    /// non-monotone recursive term).
    FixpointLimit {
        /// The configured iteration cap that was exceeded.
        cap: usize,
    },
    /// A [`Plan::Rec`] leaf appeared outside any enclosing fixpoint binding
    /// its name.
    UnboundRecursion(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Plan(p) => write!(f, "plan error: {p}"),
            ExecError::FixpointLimit { cap } => {
                write!(f, "recursive query exceeded the iteration cap ({cap})")
            }
            ExecError::UnboundRecursion(name) => {
                write!(f, "recursive reference `{name}` outside its fixpoint")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<PlanError> for ExecError {
    fn from(p: PlanError) -> Self {
        ExecError::Plan(p)
    }
}

/// Executes a plan against the database, returning the answer multiset and
/// work statistics.
pub fn execute(plan: &Plan, db: &Database) -> Result<(QueryResult, ExecStats), ExecError> {
    let mut stats = ExecStats::default();
    let columns = plan.output_columns(db)?;
    let rows = eval(plan, db, None, &mut stats)?;
    Ok((QueryResult { columns, rows }, stats))
}

/// Executes a plan, discarding stats (convenience for tests and examples).
pub fn execute_simple(plan: &Plan, db: &Database) -> Result<QueryResult, ExecError> {
    execute(plan, db).map(|(r, _)| r)
}

/// One frame of the recursion environment: inside a fixpoint's step, the
/// recursive relation name is bound to the tuples accumulated so far.
/// Frames form a borrow-stack so nested fixpoints shadow correctly.
struct RecFrame<'a> {
    parent: Option<&'a RecFrame<'a>>,
    name: &'a str,
    rows: &'a CountedSet,
}

fn rec_lookup<'a>(env: Option<&'a RecFrame<'a>>, name: &str) -> Option<&'a CountedSet> {
    let mut cur = env;
    while let Some(frame) = cur {
        if frame.name == name {
            return Some(frame.rows);
        }
        cur = frame.parent;
    }
    None
}

fn eval(
    plan: &Plan,
    db: &Database,
    env: Option<&RecFrame<'_>>,
    stats: &mut ExecStats,
) -> Result<CountedSet, ExecError> {
    match plan {
        Plan::Scan { relation, .. } => {
            let rel = db
                .relation(relation)
                .map_err(|_| PlanError::UnknownRelation(relation.to_string()))?;
            stats.tuples_scanned += rel.len() as u64;
            Ok(rel.to_counted_set())
        }
        Plan::Select { input, predicate } => {
            // Index fast path: σ_{col = lit} directly over a scan probes the
            // secondary index when one exists (the paper's experiments run
            // without an index on STRING, so Query 1 takes the scan path).
            if let Plan::Scan { relation, .. } = &**input {
                if let Some(set) = try_index_probe(relation, predicate, input, db, stats)? {
                    return Ok(set);
                }
            }
            let in_cols = input.output_columns(db)?;
            let bound = bind(predicate, &in_cols)?;
            let rows = eval(input, db, env, stats)?;
            let mut out = CountedSet::new();
            for (t, c) in rows.iter() {
                stats.rows_processed += 1;
                if bound.matches(t) {
                    out.add(t.clone(), c);
                }
            }
            Ok(out)
        }
        Plan::Project { input, columns } => {
            let in_cols = input.output_columns(db)?;
            let indices = resolve_all(columns, &in_cols)?;
            let rows = eval(input, db, env, stats)?;
            let mut out = CountedSet::new();
            for (t, c) in rows.iter() {
                stats.rows_processed += 1;
                out.add(t.project(&indices), c);
            }
            stats.intermediate_tuples += out.distinct_len() as u64;
            Ok(out)
        }
        Plan::Product { left, right } => {
            let l = eval(left, db, env, stats)?;
            let r = eval(right, db, env, stats)?;
            let mut out = CountedSet::new();
            for (lt, lc) in l.iter() {
                for (rt, rc) in r.iter() {
                    stats.rows_processed += 1;
                    out.add(lt.concat(rt), lc * rc);
                }
            }
            stats.intermediate_tuples += out.distinct_len() as u64;
            Ok(out)
        }
        Plan::Join { left, right, on } => {
            let l_cols = left.output_columns(db)?;
            let r_cols = right.output_columns(db)?;
            let (lk, rk) = join_key_indices(on, &l_cols, &r_cols)?;
            let l = eval(left, db, env, stats)?;
            let r = eval(right, db, env, stats)?;
            // Hash join: build on the right, probe with the left. The table
            // keys hash via the tuples' cached fingerprints (see fasthash).
            let mut table: FxHashMap<Tuple, Vec<(&Tuple, i64)>> = FxHashMap::default();
            for (rt, rc) in r.iter() {
                table.entry(rt.project(&rk)).or_default().push((rt, rc));
            }
            let mut out = CountedSet::new();
            for (lt, lc) in l.iter() {
                stats.rows_processed += 1;
                let key = lt.project(&lk);
                if key.values().iter().any(Value::is_null) {
                    continue; // NULL never joins
                }
                if let Some(matches) = table.get(&key) {
                    for (rt, rc) in matches {
                        stats.rows_processed += 1;
                        out.add(lt.concat(rt), lc * rc);
                    }
                }
            }
            stats.intermediate_tuples += out.distinct_len() as u64;
            Ok(out)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let in_cols = input.output_columns(db)?;
            let group_idx = resolve_all(group_by, &in_cols)?;
            let specs = bind_aggs(aggs, &in_cols)?;
            let rows = eval(input, db, env, stats)?;
            let mut groups: FxHashMap<Tuple, Vec<AggAcc>> = FxHashMap::default();
            for (t, c) in rows.iter() {
                stats.rows_processed += 1;
                let key = t.project(&group_idx);
                let accs = groups
                    .entry(key)
                    .or_insert_with(|| specs.iter().map(AggAcc::new).collect());
                for (acc, spec) in accs.iter_mut().zip(&specs) {
                    acc.update(spec, t, c);
                }
            }
            // A global aggregate over an empty input still emits one row.
            if group_idx.is_empty() && groups.is_empty() {
                groups.insert(Tuple::new(vec![]), specs.iter().map(AggAcc::new).collect());
            }
            let mut out = CountedSet::new();
            for (key, accs) in groups {
                let mut vals: Vec<Value> = key.values().to_vec();
                vals.extend(accs.iter().map(AggAcc::finish));
                out.add(Tuple::new(vals), 1);
            }
            stats.intermediate_tuples += out.distinct_len() as u64;
            Ok(out)
        }
        Plan::Distinct { input } => {
            let rows = eval(input, db, env, stats)?;
            let mut out = CountedSet::new();
            for t in rows.support() {
                stats.rows_processed += 1;
                out.add(t.clone(), 1);
            }
            stats.intermediate_tuples += out.distinct_len() as u64;
            Ok(out)
        }
        Plan::Union { left, right } => {
            let mut l = eval(left, db, env, stats)?;
            let r = eval(right, db, env, stats)?;
            stats.rows_processed += r.distinct_len() as u64;
            l.merge_owned(r);
            stats.intermediate_tuples += l.distinct_len() as u64;
            Ok(l)
        }
        Plan::Difference { left, right } => {
            let l = eval(left, db, env, stats)?;
            let r = eval(right, db, env, stats)?;
            let mut out = CountedSet::new();
            for (t, lc) in l.iter() {
                stats.rows_processed += 1;
                let c = (lc - r.count(t)).max(0);
                out.add(t.clone(), c);
            }
            stats.intermediate_tuples += out.distinct_len() as u64;
            Ok(out)
        }
        Plan::Intersect { left, right } => {
            let l = eval(left, db, env, stats)?;
            let r = eval(right, db, env, stats)?;
            let mut out = CountedSet::new();
            for (t, lc) in l.iter() {
                stats.rows_processed += 1;
                let c = lc.min(r.count(t)).max(0);
                out.add(t.clone(), c);
            }
            stats.intermediate_tuples += out.distinct_len() as u64;
            Ok(out)
        }
        Plan::Fixpoint {
            base,
            step,
            rec,
            all,
            cap,
            ..
        } => {
            let base_rows = eval(base, db, env, stats)?;
            let rows = if *all {
                // Bag semantics (UNION ALL): working-table iteration. The
                // answer is the sum of every step application; on cyclic
                // data the working table never empties and the cap fires.
                let mut acc = base_rows.clone();
                let mut working = base_rows;
                let mut iters = 0usize;
                while !working.is_empty() {
                    iters += 1;
                    if iters > *cap {
                        return Err(ExecError::FixpointLimit { cap: *cap });
                    }
                    let produced = {
                        let frame = RecFrame {
                            parent: env,
                            name: rec,
                            rows: &working,
                        };
                        eval(step, db, Some(&frame), stats)?
                    };
                    acc.merge(&produced);
                    working = produced;
                }
                acc
            } else {
                // Set semantics (UNION): iterated naive fixpoint, the
                // differential oracle for the circuit's semi-naive variant.
                // Rᵢ₊₁ = δ(base ∪ step(Rᵢ)); stop when nothing new appears.
                let mut acc = CountedSet::new();
                for t in base_rows.support() {
                    acc.add(t.clone(), 1);
                }
                let mut iters = 0usize;
                loop {
                    iters += 1;
                    if iters > *cap {
                        return Err(ExecError::FixpointLimit { cap: *cap });
                    }
                    let produced = {
                        let frame = RecFrame {
                            parent: env,
                            name: rec,
                            rows: &acc,
                        };
                        eval(step, db, Some(&frame), stats)?
                    };
                    let mut grew = false;
                    for t in produced.support() {
                        if !acc.contains(t) {
                            acc.add(t.clone(), 1);
                            grew = true;
                        }
                    }
                    if !grew {
                        break;
                    }
                }
                acc
            };
            stats.intermediate_tuples += rows.distinct_len() as u64;
            Ok(rows)
        }
        Plan::Rec { name, .. } => match rec_lookup(env, name) {
            Some(rows) => {
                stats.rows_processed += rows.distinct_len() as u64;
                Ok(rows.clone())
            }
            None => Err(ExecError::UnboundRecursion(name.to_string())),
        },
    }
}

fn bind(expr: &Expr, cols: &[Arc<str>]) -> Result<BoundExpr, ExecError> {
    expr.bind(cols)
        .map_err(|c| ExecError::Plan(PlanError::UnknownColumn(c)))
}

fn resolve_all(names: &[Arc<str>], cols: &[Arc<str>]) -> Result<Vec<usize>, ExecError> {
    names
        .iter()
        .map(|n| {
            resolve_column(cols, n)
                .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(n.to_string())))
        })
        .collect()
}

/// Resolved join keys `(left positions, right positions)`.
pub(crate) fn join_key_indices(
    on: &[(Arc<str>, Arc<str>)],
    l_cols: &[Arc<str>],
    r_cols: &[Arc<str>],
) -> Result<(Vec<usize>, Vec<usize>), ExecError> {
    let mut lk = Vec::with_capacity(on.len());
    let mut rk = Vec::with_capacity(on.len());
    for (l, r) in on {
        lk.push(
            resolve_column(l_cols, l)
                .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(l.to_string())))?,
        );
        rk.push(
            resolve_column(r_cols, r)
                .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(r.to_string())))?,
        );
    }
    Ok((lk, rk))
}

/// Bound aggregate specification shared by the executor and the view layer.
#[derive(Clone, Debug)]
pub(crate) struct AggSpec {
    pub kind: AggKind,
    pub filter: Option<BoundExpr>,
}

#[derive(Clone, Debug)]
pub(crate) enum AggKind {
    Count,
    Sum(usize),
    Min(usize),
    Max(usize),
}

pub(crate) fn bind_aggs(aggs: &[AggExpr], cols: &[Arc<str>]) -> Result<Vec<AggSpec>, ExecError> {
    aggs.iter()
        .map(|a| {
            let kind = match &a.func {
                AggFunc::Count => AggKind::Count,
                AggFunc::Sum(c) => AggKind::Sum(
                    resolve_column(cols, c)
                        .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(c.to_string())))?,
                ),
                AggFunc::Min(c) => AggKind::Min(
                    resolve_column(cols, c)
                        .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(c.to_string())))?,
                ),
                AggFunc::Max(c) => AggKind::Max(
                    resolve_column(cols, c)
                        .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(c.to_string())))?,
                ),
            };
            let filter = match &a.filter {
                Some(f) => Some(
                    f.bind(cols)
                        .map_err(|c| ExecError::Plan(PlanError::UnknownColumn(c)))?,
                ),
                None => None,
            };
            Ok(AggSpec { kind, filter })
        })
        .collect()
}

/// Incremental aggregate accumulator (also used by the view layer, where
/// updates arrive with negative multiplicities on deletion).
#[derive(Clone, Debug)]
pub(crate) enum AggAcc {
    Count(i64),
    /// SUM keeps an exact `i128` accumulator for integer inputs (a delta
    /// stream can push partial sums far past 2⁵³, where an `f64` would
    /// silently round) and a separate float accumulator for float inputs.
    Sum {
        int: i128,
        float: f64,
        n: i64,
        saw_float: bool,
    },
    /// Min/Max keep a multiset of values so deletions can be undone.
    /// Retractions of never-seen values (Δ⁻ arriving before its Δ⁺ inside
    /// one view-maintenance batch) legitimately drive entries negative;
    /// such entries are bookkeeping only and must never win `finish`.
    Extremum {
        values: std::collections::BTreeMap<Value, i64>,
        max: bool,
    },
}

impl AggAcc {
    pub fn new(spec: &AggSpec) -> AggAcc {
        match spec.kind {
            AggKind::Count => AggAcc::Count(0),
            AggKind::Sum(_) => AggAcc::Sum {
                int: 0,
                float: 0.0,
                n: 0,
                saw_float: false,
            },
            AggKind::Min(_) => AggAcc::Extremum {
                values: Default::default(),
                max: false,
            },
            AggKind::Max(_) => AggAcc::Extremum {
                values: Default::default(),
                max: true,
            },
        }
    }

    /// Applies one input row with signed multiplicity `mult`.
    pub fn update(&mut self, spec: &AggSpec, row: &Tuple, mult: i64) {
        if let Some(f) = &spec.filter {
            if !f.matches(row) {
                return;
            }
        }
        match (self, &spec.kind) {
            (AggAcc::Count(n), AggKind::Count) => *n += mult,
            (
                AggAcc::Sum {
                    int,
                    float,
                    n,
                    saw_float,
                },
                AggKind::Sum(col),
            ) => match row.get(*col) {
                Value::Int(v) => {
                    *int += *v as i128 * mult as i128;
                    *n += mult;
                }
                Value::Float(f) => {
                    *float += f.get() * mult as f64;
                    *saw_float = true;
                    *n += mult;
                }
                // NULLs and non-numeric values are skipped, as before.
                _ => {}
            },
            (AggAcc::Extremum { values, .. }, AggKind::Min(col) | AggKind::Max(col)) => {
                let v = row.get(*col);
                if !v.is_null() {
                    let e = values.entry(v.clone()).or_insert(0);
                    *e += mult;
                    if *e == 0 {
                        values.remove(v);
                    }
                }
            }
            _ => unreachable!("accumulator/spec mismatch"),
        }
    }

    /// Current aggregate value.
    pub fn finish(&self) -> Value {
        match self {
            AggAcc::Count(n) => Value::Int(*n),
            AggAcc::Sum {
                int,
                float,
                n,
                saw_float,
            } => {
                if *n == 0 {
                    Value::Null
                } else if *saw_float {
                    // Mixed or float column: float semantics.
                    Value::float(*int as f64 + *float)
                } else {
                    // Pure integer column: exact. Only a sum that genuinely
                    // overflows i64 falls back to an approximate float.
                    match i64::try_from(*int) {
                        Ok(v) => Value::Int(v),
                        Err(_) => Value::float(*int as f64),
                    }
                }
            }
            AggAcc::Extremum { values, max } => {
                // Only entries with positive multiplicity are real members
                // of the group; negative entries are pending retractions of
                // values whose matching insertion has not been seen yet.
                let mut live = values.iter().filter(|(_, c)| **c > 0);
                let pick = if *max { live.next_back() } else { live.next() };
                match pick {
                    Some((v, _)) => v.clone(),
                    None => Value::Null,
                }
            }
        }
    }
}

/// Attempts an index probe for `σ_{col = lit}(Scan)`. Returns `Ok(None)` when
/// no usable index exists.
fn try_index_probe(
    relation: &Arc<str>,
    predicate: &Expr,
    scan: &Plan,
    db: &Database,
    stats: &mut ExecStats,
) -> Result<Option<CountedSet>, ExecError> {
    let rel = db
        .relation(relation)
        .map_err(|_| PlanError::UnknownRelation(relation.to_string()))?;
    // Only a single top-level `col = literal` comparison qualifies.
    let (col_name, lit) = match predicate {
        Expr::Cmp(crate::expr::CmpOp::Eq, a, b) => match (&**a, &**b) {
            (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) => {
                (Arc::clone(c), v.clone())
            }
            _ => return Ok(None),
        },
        _ => return Ok(None),
    };
    let cols = scan.output_columns(db)?;
    let Some(idx) = resolve_column(&cols, &col_name) else {
        return Err(ExecError::Plan(PlanError::UnknownColumn(
            col_name.to_string(),
        )));
    };
    let Some(rows) = rel.index_lookup(idx, &lit) else {
        return Ok(None);
    };
    let mut out = CountedSet::new();
    for rid in rows {
        if let Some(t) = rel.get(*rid) {
            stats.tuples_scanned += 1;
            out.add(t.clone(), 1);
        }
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::paper_queries;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType;

    /// Small TOKEN world used across executor tests:
    /// doc 1: "Bill"(B-PER) "said"(O) "Boston"(B-ORG)
    /// doc 2: "Boston"(B-LOC) "hired"(O) "Ann"(B-PER)
    /// doc 3: "IBM"(B-ORG) "Ann"(B-PER)
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

    #[test]
    fn query1_selects_person_strings() {
        let db = token_db();
        let (res, stats) = execute(&paper_queries::query1("TOKEN"), &db).unwrap();
        // Multiset: Ann appears twice.
        assert_eq!(res.rows.count(&tuple!["Ann"]), 2);
        assert_eq!(res.rows.count(&tuple!["Bill"]), 1);
        assert_eq!(res.rows.distinct_len(), 2);
        assert_eq!(stats.tuples_scanned, 8);
    }

    #[test]
    fn query2_counts_persons() {
        let db = token_db();
        let res = execute_simple(&paper_queries::query2("TOKEN"), &db).unwrap();
        assert_eq!(res.rows.sorted_support(), vec![tuple![3i64]]);
    }

    #[test]
    fn query2_on_empty_database_yields_zero_row() {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[
            ("tok_id", ValueType::Int),
            ("doc_id", ValueType::Int),
            ("string", ValueType::Str),
            ("label", ValueType::Str),
            ("truth", ValueType::Str),
        ])
        .unwrap();
        db.create_relation("TOKEN", schema).unwrap();
        let res = execute_simple(&paper_queries::query2("TOKEN"), &db).unwrap();
        assert_eq!(res.rows.sorted_support(), vec![tuple![0i64]]);
    }

    #[test]
    fn query3_doc_counts_balance() {
        let db = token_db();
        // doc 1: 1 PER, 1 ORG → balanced. doc 2: 1 PER, 0 ORG → no.
        // doc 3: 1 PER, 1 ORG → balanced.
        let res = execute_simple(&paper_queries::query3("TOKEN"), &db).unwrap();
        assert_eq!(res.rows.sorted_support(), vec![tuple![1i64], tuple![3i64]]);
    }

    #[test]
    fn query4_join_finds_cooccurring_persons() {
        let db = token_db();
        // Only doc 1 has Boston/B-ORG; its person is Bill.
        let res = execute_simple(&paper_queries::query4("TOKEN"), &db).unwrap();
        assert_eq!(res.rows.sorted_support(), vec![tuple!["Bill"]]);
    }

    #[test]
    fn product_multiplies_multiplicities() {
        let db = token_db();
        let p = Plan::scan_as("TOKEN", "A")
            .filter(Expr::col("A.label").eq(Expr::lit("B-PER")))
            .project(&["A.label"]) // 3 rows, 1 distinct
            .product(
                Plan::scan_as("TOKEN", "B")
                    .filter(Expr::col("B.label").eq(Expr::lit("B-ORG")))
                    .project(&["B.label"]), // 2 rows, 1 distinct
            );
        let res = execute_simple(&p, &db).unwrap();
        assert_eq!(res.rows.count(&tuple!["B-PER", "B-ORG"]), 6);
    }

    #[test]
    fn distinct_collapses_duplicates() {
        let db = token_db();
        let p = paper_queries::query1("TOKEN").distinct();
        let res = execute_simple(&p, &db).unwrap();
        assert_eq!(res.rows.count(&tuple!["Ann"]), 1);
        assert_eq!(res.rows.count(&tuple!["Bill"]), 1);
    }

    #[test]
    fn aggregate_min_max_sum() {
        let db = token_db();
        let p = Plan::scan("TOKEN").aggregate(
            &["doc_id"],
            vec![
                AggExpr::new(AggFunc::Min(Arc::from("tok_id")), "lo"),
                AggExpr::new(AggFunc::Max(Arc::from("tok_id")), "hi"),
                AggExpr::new(AggFunc::Sum(Arc::from("tok_id")), "s"),
            ],
        );
        let res = execute_simple(&p, &db).unwrap();
        // SUM over an INT column is exact and integer-typed.
        assert!(res.rows.contains(&tuple![1i64, 1i64, 3i64, 6i64]));
        assert!(res.rows.contains(&tuple![3i64, 7i64, 8i64, 15i64]));
    }

    #[test]
    fn integer_sum_is_exact_past_f64_precision() {
        // Two values of 2⁵³ + 1: the f64 path would round each to 2⁵³ and
        // report 2⁵⁴; the exact path reports 2⁵⁴ + 2.
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[("g", ValueType::Int), ("v", ValueType::Int)]).unwrap();
        db.create_relation("BIG", schema).unwrap();
        let big = (1i64 << 53) + 1;
        let rel = db.relation_mut("BIG").unwrap();
        rel.insert(tuple![1i64, big]).unwrap();
        rel.insert(tuple![1i64, big]).unwrap();
        let p = Plan::scan("BIG").aggregate(
            &["g"],
            vec![AggExpr::new(AggFunc::Sum(Arc::from("v")), "s")],
        );
        let res = execute_simple(&p, &db).unwrap();
        assert_eq!(
            res.rows.sorted_support(),
            vec![tuple![1i64, (1i64 << 54) + 2]],
            "integer SUM must not round through f64"
        );
    }

    #[test]
    fn float_sum_stays_float_and_empty_sum_is_null() {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[("g", ValueType::Int), ("v", ValueType::Float)]).unwrap();
        db.create_relation("F", schema).unwrap();
        let rel = db.relation_mut("F").unwrap();
        rel.insert(tuple![1i64, 0.5f64]).unwrap();
        rel.insert(tuple![1i64, 0.25f64]).unwrap();
        rel.insert(Tuple::new(vec![Value::Int(2), Value::Null]))
            .unwrap();
        let p = Plan::scan("F").aggregate(
            &["g"],
            vec![AggExpr::new(AggFunc::Sum(Arc::from("v")), "s")],
        );
        let res = execute_simple(&p, &db).unwrap();
        assert!(res.rows.contains(&tuple![1i64, 0.75f64]));
        // Group 2 has only a NULL input: SUM is NULL.
        assert!(res
            .rows
            .contains(&Tuple::new(vec![Value::Int(2), Value::Null])));
    }

    #[test]
    fn extremum_retraction_of_unseen_value_is_never_a_candidate() {
        // Regression: a Δ⁻ arriving before its Δ⁺ (legal inside one view
        // maintenance batch) drives a never-seen value to count −1. finish()
        // must ignore it rather than report a MIN/MAX outside the group.
        let cols: Vec<Arc<str>> = vec![Arc::from("v")];
        let specs = bind_aggs(&[AggExpr::new(AggFunc::Min(Arc::from("v")), "lo")], &cols).unwrap();
        let mut acc = AggAcc::new(&specs[0]);
        acc.update(&specs[0], &tuple![7i64], 1);
        // Retract value 3, which was never inserted.
        acc.update(&specs[0], &tuple![3i64], -1);
        assert_eq!(acc.finish(), Value::Int(7), "phantom MIN candidate");
        // The matching Δ⁺ arrives later in the batch: 3 becomes real.
        acc.update(&specs[0], &tuple![3i64], 2);
        assert_eq!(acc.finish(), Value::Int(3));
        // All positives retracted → NULL, even with negative entries left.
        acc.update(&specs[0], &tuple![3i64], -1);
        acc.update(&specs[0], &tuple![7i64], -1);
        acc.update(&specs[0], &tuple![99i64], -1);
        assert_eq!(acc.finish(), Value::Null);
    }

    #[test]
    fn index_probe_short_circuits_scan() {
        let mut db = token_db();
        db.relation_mut("TOKEN")
            .unwrap()
            .create_index("string")
            .unwrap();
        let p = Plan::scan("TOKEN").filter(Expr::col("string").eq(Expr::lit("Ann")));
        let (res, stats) = execute(&p, &db).unwrap();
        assert_eq!(res.rows.total(), 2);
        // Only the two matching tuples were read, not all 8.
        assert_eq!(stats.tuples_scanned, 2);
    }

    #[test]
    fn join_skips_null_keys() {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Str)]).unwrap();
        db.create_relation("L", schema.clone()).unwrap();
        db.create_relation("R", schema).unwrap();
        db.relation_mut("L")
            .unwrap()
            .insert(Tuple::new(vec![Value::Null, Value::str("l")]))
            .unwrap();
        db.relation_mut("R")
            .unwrap()
            .insert(Tuple::new(vec![Value::Null, Value::str("r")]))
            .unwrap();
        let p = Plan::scan_as("L", "a").join_on(Plan::scan_as("R", "b"), &[("a.k", "b.k")]);
        let res = execute_simple(&p, &db).unwrap();
        assert!(res.rows.is_empty());
    }

    #[test]
    fn union_difference_intersect_exec() {
        let db = token_db();
        let persons = paper_queries::query1("TOKEN");
        let orgs = Plan::scan("TOKEN")
            .filter(Expr::col("label").eq(Expr::lit("B-ORG")))
            .project(&["string"]);

        let u = execute_simple(&persons.clone().union(orgs.clone()), &db).unwrap();
        // Ann ×2, Bill, Boston, IBM.
        assert_eq!(u.rows.total(), 5);
        assert_eq!(u.rows.count(&tuple!["Ann"]), 2);
        assert_eq!(u.rows.count(&tuple!["IBM"]), 1);

        // non-O strings minus persons: Boston ×2, IBM (Ann and Bill removed).
        let non_o = Plan::scan("TOKEN")
            .filter(Expr::col("label").ne(Expr::lit("O")))
            .project(&["string"]);
        let d = execute_simple(&non_o.clone().difference(persons.clone()), &db).unwrap();
        assert_eq!(d.rows.count(&tuple!["Boston"]), 2);
        assert_eq!(d.rows.count(&tuple!["IBM"]), 1);
        assert_eq!(d.rows.count(&tuple!["Ann"]), 0);

        // persons ∩ non-O = persons (min of 2 and 2 for Ann, 1 and 1 Bill).
        let i = execute_simple(&persons.clone().intersect(non_o), &db).unwrap();
        assert_eq!(i.rows.count(&tuple!["Ann"]), 2);
        assert_eq!(i.rows.count(&tuple!["Bill"]), 1);
        assert_eq!(i.rows.count(&tuple!["Boston"]), 0);
    }

    #[test]
    fn stats_accumulate_rows_processed() {
        let db = token_db();
        let (_, stats) = execute(&paper_queries::query1("TOKEN"), &db).unwrap();
        assert!(stats.rows_processed > 0);
        let mut total = ExecStats::default();
        total.absorb(stats);
        total.absorb(stats);
        assert_eq!(total.tuples_scanned, 2 * stats.tuples_scanned);
    }
}
