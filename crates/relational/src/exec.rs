//! Full (from-scratch) query execution: a streaming push pipeline.
//!
//! This is the executor the *naive* sampling evaluator of Algorithm 3 calls
//! on every sampled world, and the one every ad hoc SQL statement runs
//! through: it recomputes `Q(w)` from the base relations. Rows are *pushed*:
//! a source hands each row and its multiplicity to the operator above it,
//! which hands what it produces to the next, up to the root, where the
//! answer [`CountedSet`] is built — once. No operator materialises its
//! output; only pipeline breakers hold state.
//!
//! **Rows are borrowed.** What flows is a [`Row`] read in place: a slot of
//! the column-major heap, a tuple some operator holds, or a row π, × or ⋈
//! *composes* from the rows they received (a projection of the input row,
//! a probe row followed by its build-side match) instead of building it.
//! Predicates, aggregate accumulators and key projections read only the
//! fields they name. A [`Tuple`] is built only where a row is kept: the
//! answer multiset (once per distinct row), a join's or product's build
//! side (unless it is a stored row, which stays borrowed from the heap for
//! the length of the query), δ/∖/∩ state, γ's group keys and output rows.
//!
//! **Sources.** A scan walks the relation's chunks in slot order, *a chunk
//! at a time*: a σ directly above it evaluates its predicate over the
//! chunk's columns at once ([`BoundExpr::select`] — a 64-bit mask of the
//! slots that pass), and a γ directly above either reads each aggregate's
//! FILTER the same way (a global `COUNT` adds a popcount); only the
//! selected rows are touched. A selection directly over a scan first looks
//! for a *probe*: a top-level conjunct `col = literal` whose column is the
//! primary key or carries a secondary index. The probe reads only the rows
//! the index names and the whole predicate is then applied to them as the
//! residual filter, so `WHERE tok_id = c` reads one row at any relation
//! size. A probe requires a non-NULL literal of the column's declared type
//! (an integral `Float` against an `Int` column is converted); any other
//! literal takes the scan, whose three-valued comparison is the reference.
//! A conjunct `col = NULL` is never true, so it answers with no rows
//! without touching storage. Inside a fixpoint's step, [`Plan::Rec`]
//! streams the rows the enclosing fixpoint has bound to its name.
//!
//! **Streaming operators** keep nothing: σ, π, ∪, and the probe (left) side
//! of × and ⋈. δ streams too — a row passes the first time it is seen — but
//! remembers what it has passed.
//!
//! **Pipeline breakers** hold exactly the state their semantics need: γ its
//! group table (one accumulator row for a global aggregate; the group of
//! the previous row is remembered, so a run of rows of one group costs a
//! key comparison each, not a hash probe), × and ⋈ their build (right)
//! side, ∖ and ∩ the consolidated left input (the right input streams
//! against it), μ its accumulator and working table.
//!
//! Every multiplicity that flows is positive: scans emit 1, products
//! multiply, γ and δ emit 1, ∖ and ∩ emit only what is left above zero.
//!
//! The executor reports [`ExecStats`] so experiments can compare *work* as
//! well as wall-clock time, independent of machine speed; a chunk-at-a-time
//! scan counts exactly what a row-at-a-time one would. It runs user SQL
//! from the wire on server threads, so nothing here may panic on any plan
//! or data (`fgdb-lint`'s panic rule covers this file).

use crate::algebra::{AggExpr, AggFunc, Plan, PlanError};
use crate::counted::CountedSet;
use crate::database::Database;
use crate::expr::{resolve_column, BoundExpr, CmpOp, Expr};
use crate::fasthash::{FxHashSet, TupleMap};
use crate::row::{Row, RowView};
use crate::storage::{ChunkRef, Relation, RowId, RowRef};
use crate::tuple::{fingerprint_values, Tuple};
use crate::value::{Value, ValueType};
use std::fmt;
use std::sync::Arc;

/// Work counters for one query execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Base tuples read from storage: every live row of a scanned relation,
    /// or just the rows a primary-key / secondary-index probe named.
    pub tuples_scanned: u64,
    /// Rows handed to an operator above the sources, counted once per
    /// operator that receives them (a build-side row counts where it is
    /// matched, not where it is stored).
    pub rows_processed: u64,
    /// Rows *constructed* by the row-building operators π, ×, ⋈ and γ —
    /// one per row they emit, whether or not a consumer goes on to build it
    /// into a tuple. Sources, σ, δ, the set operators and μ pass existing
    /// rows on and do not count. Operator outputs are streams, not sets, so
    /// this counts constructions, duplicates included (it used to count
    /// each operator's distinct output). It is the metric the
    /// [`crate::planner`] optimizer provably never increases: pushing a
    /// selection below a row-building operator can only shrink what that
    /// operator emits.
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
    let rows = collect(plan, db, None, &mut stats)?;
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

/// The consumer of an operator's output: called once per emitted row with
/// the row's (positive) multiplicity. The row is borrowed — from the
/// database `'db`, from an operator's state, or composed in flight by π /
/// × / ⋈ — and is built into a tuple only by a consumer that keeps it
/// beyond the query. The counters travel with the row because producer
/// and consumer both count.
type Sink<'s, 'db> = dyn FnMut(&mut ExecStats, &RowView<'db, '_>, i64) + 's;

/// A row a build side keeps for the length of the query: a stored row
/// stays borrowed from the heap, any other is built.
enum Kept<'db> {
    Stored(RowRef<'db>),
    Built(Tuple),
}

impl<'db> Kept<'db> {
    fn keep(row: &RowView<'db, '_>) -> Self {
        match row {
            RowView::Stored(r) => Kept::Stored(*r),
            other => Kept::Built(other.to_tuple()),
        }
    }

    fn view(&self) -> RowView<'db, '_> {
        match self {
            Kept::Stored(r) => RowView::Stored(*r),
            Kept::Built(t) => RowView::Tuple(t),
        }
    }
}

/// Runs `plan` and consolidates what it emits — the root's answer, and the
/// state of the operators that need a whole input before they can emit. A
/// row already present costs no allocation.
fn collect(
    plan: &Plan,
    db: &Database,
    env: Option<&RecFrame<'_>>,
    stats: &mut ExecStats,
) -> Result<CountedSet, ExecError> {
    let mut out = CountedSet::new();
    run(plan, db, env, stats, &mut |_, r, c| {
        out.add_row(r, c);
    })?;
    Ok(out)
}

/// Pushes every row of `plan`'s output into `sink`. Each operator binds its
/// own names first, so binding errors surface before any row flows.
fn run<'db>(
    plan: &Plan,
    db: &'db Database,
    env: Option<&RecFrame<'_>>,
    stats: &mut ExecStats,
    sink: &mut Sink<'_, 'db>,
) -> Result<(), ExecError> {
    if let Some(scan) = ScanBatches::of(plan, db)? {
        scan.for_each(stats, |stats, chunk, sel| {
            for (_, r) in chunk.rows(sel) {
                sink(stats, &RowView::Stored(r), 1);
            }
        });
        return Ok(());
    }
    match plan {
        Plan::Scan { .. } => Ok(()), // a scan always runs as batches
        Plan::Select { input, predicate } => {
            let bound = bind(predicate, &input.output_columns(db)?)?;
            if let Plan::Scan { relation, .. } = &**input {
                // σ over a scan an index answers (a scan that none answers
                // ran as batches): only the rows it names are read, and
                // the whole predicate is the residual filter.
                let rel = relation_of(db, relation)?;
                let named = probe(rel, &bound);
                for r in named
                    .iter()
                    .flat_map(|c| c.ids())
                    .filter_map(|rid| rel.get(*rid))
                {
                    stats.tuples_scanned += 1;
                    stats.rows_processed += 1;
                    if bound.matches(&r) {
                        sink(stats, &RowView::Stored(r), 1);
                    }
                }
                return Ok(());
            }
            run(input, db, env, stats, &mut |stats, r, c| {
                stats.rows_processed += 1;
                if bound.matches(r) {
                    sink(stats, r, c);
                }
            })
        }
        Plan::Project { input, columns } => {
            let indices = resolve_all(columns, &input.output_columns(db)?)?;
            run(input, db, env, stats, &mut |stats, r, c| {
                stats.rows_processed += 1;
                stats.intermediate_tuples += 1;
                sink(stats, &RowView::Project(r, &indices), c);
            })
        }
        Plan::Product { left, right } => {
            let mut build: Vec<(Kept<'db>, i64)> = Vec::new();
            run(right, db, env, stats, &mut |_, r, c| {
                build.push((Kept::keep(r), c))
            })?;
            run(left, db, env, stats, &mut |stats, lt, lc| {
                for (rt, rc) in &build {
                    stats.rows_processed += 1;
                    stats.intermediate_tuples += 1;
                    sink(stats, &RowView::Concat(lt, &rt.view()), lc * rc);
                }
            })
        }
        Plan::Join { left, right, on } => {
            let (lk, rk) =
                join_key_indices(on, &left.output_columns(db)?, &right.output_columns(db)?)?;
            // Hash join: build on the right, probe with the left. Keys are
            // projected into one scratch buffer; a key tuple is allocated
            // only when the table meets it for the first time.
            let mut key = Vec::new();
            let mut table: TupleMap<Vec<(Kept<'db>, i64)>> = TupleMap::new();
            run(right, db, env, stats, &mut |_, rt, rc| {
                rt.project_into(&rk, &mut key);
                // NULL never joins, so such a row could never be matched.
                if !key.iter().any(Value::is_null) {
                    table
                        .get_or_insert_with(fingerprint_values(&key), &key, Vec::new)
                        .push((Kept::keep(rt), rc));
                }
            })?;
            run(left, db, env, stats, &mut |stats, lt, lc| {
                stats.rows_processed += 1;
                lt.project_into(&lk, &mut key);
                for (rt, rc) in table
                    .get(fingerprint_values(&key), &key)
                    .into_iter()
                    .flatten()
                {
                    stats.rows_processed += 1;
                    stats.intermediate_tuples += 1;
                    sink(stats, &RowView::Concat(lt, &rt.view()), lc * rc);
                }
            })
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let in_cols = input.output_columns(db)?;
            let group_idx = resolve_all(group_by, &in_cols)?;
            let specs = bind_aggs(aggs, &in_cols)?;
            let mut groups = Groups::new(&group_idx, &specs);
            match ScanBatches::of(input, db)? {
                // Over a scan, each chunk's FILTER masks are computed once
                // from their columns; a global COUNT is a popcount.
                Some(scan) => {
                    let mut admitted = vec![0u64; specs.len()];
                    scan.for_each(stats, |stats, chunk, sel| {
                        stats.rows_processed += u64::from(sel.count_ones());
                        for (mask, spec) in admitted.iter_mut().zip(&specs) {
                            *mask = spec.admits(chunk, sel);
                        }
                        groups.feed_chunk(chunk, sel, &admitted);
                    });
                }
                None => run(input, db, env, stats, &mut |stats, r, c| {
                    stats.rows_processed += 1;
                    groups.feed(r, c);
                })?,
            }
            for (key, accs) in groups.iter() {
                let row = key.iter().cloned().chain(accs.iter().map(AggAcc::finish));
                stats.intermediate_tuples += 1;
                sink(stats, &RowView::Tuple(&Tuple::new(row.collect())), 1);
            }
            Ok(())
        }
        Plan::Distinct { input } => {
            let mut seen: FxHashSet<Tuple> = FxHashSet::default();
            run(input, db, env, stats, &mut |stats, r, _| {
                stats.rows_processed += 1;
                if !seen.contains(r as &dyn Row) {
                    seen.insert(r.to_tuple());
                    sink(stats, r, 1);
                }
            })
        }
        Plan::Union { left, right } => {
            run(left, db, env, stats, sink)?;
            run(right, db, env, stats, sink)
        }
        Plan::Difference { left, right } => {
            // Monus, `max(0, L(t) − R(t))`: the right input is subtracted
            // from the consolidated left row by row. A spent count is no
            // longer positive, so further right rows leave it alone.
            let mut rows = collect(left, db, env, stats)?;
            run(right, db, env, stats, &mut |stats, r, c| {
                stats.rows_processed += 1;
                if rows.count_row(r) > 0 {
                    rows.add_row(r, -c);
                }
            })?;
            emit_positive(&rows, stats, sink);
            Ok(())
        }
        Plan::Intersect { left, right } => {
            // `min(L(t), R(t))`: of the right input only the rows the left
            // holds are kept.
            let l = collect(left, db, env, stats)?;
            let mut r = CountedSet::new();
            run(right, db, env, stats, &mut |stats, row, c| {
                stats.rows_processed += 1;
                if l.count_row(row) > 0 {
                    r.add_row(row, c);
                }
            })?;
            for (t, rc) in r.iter() {
                sink(stats, &RowView::Tuple(t), rc.min(l.count(t)));
            }
            Ok(())
        }
        Plan::Fixpoint {
            base,
            step,
            rec,
            all,
            cap,
            ..
        } => {
            let mut acc = collect(base, db, env, stats)?;
            let mut iters = 0usize;
            if *all {
                // Bag semantics (UNION ALL): working-table iteration. The
                // answer is the sum of every step application; on cyclic
                // data the working table never empties and the cap fires.
                let mut working = acc.clone();
                while !working.is_empty() {
                    iters += 1;
                    if iters > *cap {
                        return Err(ExecError::FixpointLimit { cap: *cap });
                    }
                    let frame = RecFrame {
                        parent: env,
                        name: rec,
                        rows: &working,
                    };
                    let produced = collect(step, db, Some(&frame), stats)?;
                    acc.merge(&produced);
                    working = produced;
                }
            } else {
                // Set semantics (UNION): iterated naive fixpoint, the
                // differential oracle for the circuit's semi-naive variant.
                // Rᵢ₊₁ = δ(base ∪ step(Rᵢ)); stop when nothing new appears.
                // Of each application only the rows not yet derived are
                // kept.
                acc = acc.support().cloned().collect();
                loop {
                    iters += 1;
                    if iters > *cap {
                        return Err(ExecError::FixpointLimit { cap: *cap });
                    }
                    let mut fresh: FxHashSet<Tuple> = FxHashSet::default();
                    let frame = RecFrame {
                        parent: env,
                        name: rec,
                        rows: &acc,
                    };
                    run(step, db, Some(&frame), stats, &mut |_, r, _| {
                        if acc.count_row(r) <= 0 && !fresh.contains(r as &dyn Row) {
                            fresh.insert(r.to_tuple());
                        }
                    })?;
                    if fresh.is_empty() {
                        break;
                    }
                    for t in fresh {
                        acc.add(t, 1);
                    }
                }
            }
            emit_positive(&acc, stats, sink);
            Ok(())
        }
        Plan::Rec { name, .. } => {
            let rows = rec_lookup(env, name)
                .ok_or_else(|| ExecError::UnboundRecursion(name.to_string()))?;
            for (t, c) in rows.iter() {
                stats.rows_processed += 1;
                sink(stats, &RowView::Tuple(t), c);
            }
            Ok(())
        }
    }
}

/// Emits the entries of an operator's consolidated state that are left
/// above zero.
fn emit_positive(rows: &CountedSet, stats: &mut ExecStats, sink: &mut Sink<'_, '_>) {
    for (t, c) in rows.iter() {
        if c > 0 {
            sink(stats, &RowView::Tuple(t), c);
        }
    }
}

fn relation_of<'a>(db: &'a Database, name: &str) -> Result<&'a Relation, ExecError> {
    db.relation(name)
        .map_err(|_| ExecError::Plan(PlanError::UnknownRelation(name.to_string())))
}

/// Answers `σ_pred(rel)` from the primary-key index or a secondary index
/// when one can name the candidate rows: the first top-level conjunct of
/// `pred` of the form `col = literal` over such a column decides. The
/// candidates are a superset of the answer (they satisfy one conjunct), so
/// the caller still applies `pred`. `None` means no conjunct qualifies and
/// the relation must be scanned.
fn probe<'r>(rel: &'r Relation, pred: &BoundExpr) -> Option<Candidates<'r>> {
    let mut conjuncts = vec![pred];
    while let Some(e) = conjuncts.pop() {
        let (col, lit) = match e {
            BoundExpr::And(a, b) => {
                conjuncts.push(b);
                conjuncts.push(a);
                continue;
            }
            BoundExpr::Cmp(CmpOp::Eq, a, b) => match (&**a, &**b) {
                (BoundExpr::Column(c), BoundExpr::Literal(v))
                | (BoundExpr::Literal(v), BoundExpr::Column(c)) => (*c, v),
                _ => continue,
            },
            _ => continue,
        };
        if lit.is_null() {
            // `col = NULL` is unknown for every row, and a conjunction with
            // an unknown conjunct is never true.
            return Some(Candidates::Key(None));
        }
        let Some(key) = rel
            .schema()
            .columns()
            .get(col)
            .and_then(|c| probe_key(c.ty, lit))
        else {
            continue;
        };
        if rel.schema().primary_key() == Some(col) {
            return Some(Candidates::Key(rel.find_by_pk(&key)));
        }
        if let Some(rids) = rel.index_lookup(col, &key) {
            return Some(Candidates::Indexed(rids));
        }
    }
    None
}

/// The rows a primary-key or secondary-index probe names.
enum Candidates<'r> {
    Key(Option<RowId>),
    Indexed(&'r [RowId]),
}

impl Candidates<'_> {
    fn ids(&self) -> &[RowId] {
        match self {
            Candidates::Key(rid) => rid.as_slice(),
            Candidates::Indexed(rids) => rids,
        }
    }
}

/// A scan, under at most one σ that no index answers: the plan shape that
/// runs chunk-at-a-time. Each chunk's selected slots are computed from
/// the predicate's columns at once ([`BoundExpr::select`]); rows are
/// touched only where something reads them.
struct ScanBatches<'a> {
    rel: &'a Relation,
    pred: Option<BoundExpr>,
}

impl<'a> ScanBatches<'a> {
    /// `plan` as scan batches, when it has that shape.
    fn of(plan: &Plan, db: &'a Database) -> Result<Option<ScanBatches<'a>>, ExecError> {
        Ok(match plan {
            Plan::Scan { relation, .. } => Some(ScanBatches {
                rel: relation_of(db, relation)?,
                pred: None,
            }),
            Plan::Select { input, predicate } => match &**input {
                Plan::Scan { relation, .. } => {
                    let pred = bind(predicate, &input.output_columns(db)?)?;
                    let rel = relation_of(db, relation)?;
                    probe(rel, &pred).is_none().then_some(ScanBatches {
                        rel,
                        pred: Some(pred),
                    })
                }
                _ => None,
            },
            _ => None,
        })
    }

    /// Calls `f` with every chunk and the slots the σ (if any) selects,
    /// counting what the scan and the σ count row by row.
    fn for_each(
        &self,
        stats: &mut ExecStats,
        mut f: impl FnMut(&mut ExecStats, ChunkRef<'a>, u64),
    ) {
        stats.tuples_scanned += self.rel.len() as u64;
        for chunk in self.rel.chunks() {
            let sel = match &self.pred {
                Some(pred) => {
                    stats.rows_processed += u64::from(chunk.live().count_ones());
                    pred.select(chunk)
                }
                None => chunk.live(),
            };
            f(stats, chunk, sel);
        }
    }
}

/// The one stored value of a column declared `ty` that `lit` equals under
/// [`Value::sql_cmp`], when there is exactly one. An index is a map from
/// stored values, and a column stores only its declared type (or NULL), so
/// a literal of that type is its own key, and a `Float` against an `Int`
/// column is the integer it denotes — below 2⁵³, where `i64 → f64` is
/// exact and one-to-one. Everything else (fractional or huge floats, `-0.0`,
/// an `Int` against a `Float` column, mismatched types) has no single key.
fn probe_key(ty: ValueType, lit: &Value) -> Option<Value> {
    match lit {
        Value::Float(f) if ty == ValueType::Int => {
            let i = f.get() as i64;
            let exact = (i as f64).to_bits() == f.get().to_bits() && i.unsigned_abs() < 1 << 53;
            exact.then_some(Value::Int(i))
        }
        _ if lit.value_type() == ty => Some(lit.clone()),
        _ => None,
    }
}

fn bind(expr: &Expr, cols: &[Arc<str>]) -> Result<BoundExpr, ExecError> {
    expr.bind(cols)
        .map_err(|c| ExecError::Plan(PlanError::UnknownColumn(c)))
}

fn resolve(cols: &[Arc<str>], name: &str) -> Result<usize, ExecError> {
    resolve_column(cols, name)
        .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(name.to_string())))
}

fn resolve_all(names: &[Arc<str>], cols: &[Arc<str>]) -> Result<Vec<usize>, ExecError> {
    names.iter().map(|n| resolve(cols, n)).collect()
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
        lk.push(resolve(l_cols, l)?);
        rk.push(resolve(r_cols, r)?);
    }
    Ok((lk, rk))
}

/// Bound aggregate specification shared by the executor and the view layer.
#[derive(Clone, Debug)]
pub(crate) struct AggSpec {
    kind: AggKind,
    /// Position of the aggregated input column (unused by `COUNT(*)`).
    col: usize,
    filter: Option<BoundExpr>,
}

#[derive(Clone, Copy, Debug)]
enum AggKind {
    Count,
    Sum,
    Min,
    Max,
}

impl AggSpec {
    /// The slots among `sel` whose row this aggregate reads: its FILTER,
    /// evaluated column-at-a-time over the chunk.
    fn admits(&self, chunk: ChunkRef<'_>, sel: u64) -> u64 {
        self.filter.as_ref().map_or(sel, |f| f.select(chunk) & sel)
    }
}

/// γ's group table: one accumulator row per group key. Rows of one group
/// tend to arrive together (a document's tokens are consecutive slots), so
/// the last group found is remembered: such a row costs a comparison of
/// its key columns, not a projection, a fingerprint and a hash probe. A
/// global aggregate is one group, present even over an empty input: no
/// key, no table.
struct Groups<'s> {
    key_idx: &'s [usize],
    specs: &'s [AggSpec],
    index: TupleMap<usize>,
    accs: Vec<Vec<AggAcc>>,
    /// The group of the last row fed, and its key.
    last: Option<usize>,
    last_key: Vec<Value>,
    scratch: Vec<Value>,
}

impl<'s> Groups<'s> {
    fn new(key_idx: &'s [usize], specs: &'s [AggSpec]) -> Self {
        let mut groups = Groups {
            key_idx,
            specs,
            index: TupleMap::new(),
            accs: Vec::new(),
            last: None,
            last_key: Vec::new(),
            scratch: Vec::new(),
        };
        if key_idx.is_empty() {
            groups.last = Some(groups.group_of(&Tuple::new(Vec::new())));
        }
        groups
    }

    /// The index of `row`'s group, created on first sight.
    fn group_of<R: Row + ?Sized>(&mut self, row: &R) -> usize {
        if let Some(g) = self.last {
            let same = self
                .key_idx
                .iter()
                .zip(&self.last_key)
                .all(|(&c, v)| row.get(c) == v);
            if same {
                return g;
            }
        }
        row.project_into(self.key_idx, &mut self.scratch);
        let next = self.accs.len();
        let g = *self.index.get_or_insert_with(
            fingerprint_values(&self.scratch),
            &self.scratch,
            || next,
        );
        if g == next {
            self.accs.push(self.specs.iter().map(AggAcc::new).collect());
        }
        self.last = Some(g);
        std::mem::swap(&mut self.last_key, &mut self.scratch);
        g
    }

    /// Folds one row into its group.
    fn feed<R: Row + ?Sized>(&mut self, row: &R, mult: i64) {
        let g = self.group_of(row);
        let specs = self.specs;
        for (acc, spec) in self.accs.get_mut(g).into_iter().flatten().zip(specs) {
            acc.update(spec, row, mult);
        }
    }

    /// Folds the rows at `sel`'s slots of `chunk` into their groups, each
    /// aggregate reading the slots its FILTER admitted (`admitted`, one
    /// mask per spec).
    fn feed_chunk(&mut self, chunk: ChunkRef<'_>, sel: u64, admitted: &[u64]) {
        let specs = self.specs;
        if self.key_idx.is_empty() {
            for (acc, (spec, mask)) in self
                .accs
                .iter_mut()
                .flatten()
                .zip(specs.iter().zip(admitted))
            {
                acc.update_chunk(spec, chunk, *mask);
            }
            return;
        }
        for (slot, row) in chunk.rows(sel) {
            let g = self.group_of(&row);
            let accs = self.accs.get_mut(g).into_iter().flatten();
            for (acc, (spec, mask)) in accs.zip(specs.iter().zip(admitted)) {
                if (mask >> slot) & 1 == 1 {
                    acc.apply(spec, &row, 1);
                }
            }
        }
    }

    /// Every group's key and accumulators.
    fn iter(&self) -> impl Iterator<Item = (&[Value], &[AggAcc])> {
        self.index
            .iter()
            .filter_map(|(key, &g)| Some((key.values(), self.accs.get(g)?.as_slice())))
    }
}

pub(crate) fn bind_aggs(aggs: &[AggExpr], cols: &[Arc<str>]) -> Result<Vec<AggSpec>, ExecError> {
    aggs.iter()
        .map(|a| {
            let (kind, col) = match &a.func {
                AggFunc::Count => (AggKind::Count, 0),
                AggFunc::Sum(c) => (AggKind::Sum, resolve(cols, c)?),
                AggFunc::Min(c) => (AggKind::Min, resolve(cols, c)?),
                AggFunc::Max(c) => (AggKind::Max, resolve(cols, c)?),
            };
            let filter = a.filter.as_ref().map(|f| bind(f, cols)).transpose()?;
            Ok(AggSpec { kind, col, filter })
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
            AggKind::Sum => AggAcc::Sum {
                int: 0,
                float: 0.0,
                n: 0,
                saw_float: false,
            },
            AggKind::Min | AggKind::Max => AggAcc::Extremum {
                values: Default::default(),
                max: matches!(spec.kind, AggKind::Max),
            },
        }
    }

    /// Applies one input row with signed multiplicity `mult`. `spec` is the
    /// one this accumulator was built from; it supplies the filter and the
    /// input column.
    pub fn update<R: Row + ?Sized>(&mut self, spec: &AggSpec, row: &R, mult: i64) {
        if spec.filter.as_ref().is_none_or(|f| f.matches(row)) {
            self.apply(spec, row, mult);
        }
    }

    /// Applies the rows of `chunk` at the set bits of `admitted` — slots
    /// the spec's FILTER already passed ([`AggSpec::admits`]) — each with
    /// multiplicity one. A COUNT adds the popcount.
    fn update_chunk(&mut self, spec: &AggSpec, chunk: ChunkRef<'_>, admitted: u64) {
        match self {
            AggAcc::Count(n) => *n += i64::from(admitted.count_ones()),
            _ => {
                for (_, row) in chunk.rows(admitted) {
                    self.apply(spec, &row, 1);
                }
            }
        }
    }

    /// [`AggAcc::update`] past the filter.
    fn apply<R: Row + ?Sized>(&mut self, spec: &AggSpec, row: &R, mult: i64) {
        match self {
            AggAcc::Count(n) => *n += mult,
            AggAcc::Sum {
                int,
                float,
                n,
                saw_float,
            } => match row.get(spec.col) {
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
            AggAcc::Extremum { values, .. } => {
                let v = row.get(spec.col);
                if !v.is_null() {
                    let e = values.entry(v.clone()).or_insert(0);
                    *e += mult;
                    if *e == 0 {
                        values.remove(v);
                    }
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::paper_queries;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType;

    fn empty_token_db() -> Database {
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
        db
    }

    /// Small TOKEN world used across executor tests:
    /// doc 1: "Bill"(B-PER) "said"(O) "Boston"(B-ORG)
    /// doc 2: "Boston"(B-LOC) "hired"(O) "Ann"(B-PER)
    /// doc 3: "IBM"(B-ORG) "Ann"(B-PER)
    fn token_db() -> Database {
        let mut db = empty_token_db();
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
    fn index_probe_finds_its_conjunct_anywhere_in_a_conjunction() {
        let mut db = token_db();
        db.relation_mut("TOKEN")
            .unwrap()
            .create_index("string")
            .unwrap();
        // The indexed conjunct is second; the first is the residual.
        let p = Plan::scan("TOKEN").filter(
            Expr::col("label")
                .eq(Expr::lit("B-ORG"))
                .and(Expr::col("string").eq(Expr::lit("Boston"))),
        );
        let (res, stats) = execute(&p, &db).unwrap();
        assert_eq!(res.rows.total(), 1);
        assert_eq!(stats.tuples_scanned, 2, "both Bostons, nothing else");
    }

    /// TOKEN with `n` rows, `tok_id` = 0..n, every label `O`.
    fn sized_token_db(n: i64) -> Database {
        let mut db = empty_token_db();
        let rel = db.relation_mut("TOKEN").unwrap();
        for id in 0..n {
            rel.insert(tuple![id, id / 50, "w", "O", "O"]).unwrap();
        }
        db
    }

    fn run_sql(sql: &str, db: &Database) -> (QueryResult, ExecStats) {
        execute(&crate::planner::compile_query(sql, db).unwrap(), db).unwrap()
    }

    #[test]
    fn pk_lookup_reads_one_row_at_any_size() {
        for n in [1_000, 100_000] {
            let db = sized_token_db(n);
            let key = n / 2;
            for (residual, answers) in [("", 1), (" AND label = 'O'", 1), (" AND label = 'X'", 0)] {
                let sql = format!("SELECT string, label FROM TOKEN WHERE tok_id = {key}{residual}");
                let (res, stats) = run_sql(&sql, &db);
                assert_eq!(res.rows.total(), answers, "{sql}");
                assert_eq!(stats.tuples_scanned, 1, "{sql} at {n} rows");
            }
        }
    }

    #[test]
    fn pk_lookup_on_a_snapshot_reads_the_snapshots_own_index() {
        let mut db = sized_token_db(1_000);
        let snapshot = db.snapshot();
        // After the fork, row 500 is relabelled and then re-keyed.
        let rel = db.relation_mut("TOKEN").unwrap();
        let rid = rel.find_by_pk(&Value::Int(500)).unwrap();
        rel.update_field(rid, 3, Value::str("B-PER")).unwrap();
        rel.update_field(rid, 0, Value::Int(5_000)).unwrap();

        let by_key = |key: i64, db: &Database| {
            let sql = format!("SELECT tok_id, label FROM TOKEN WHERE tok_id = {key}");
            let (res, stats) = run_sql(&sql, db);
            (res.rows.sorted_support(), stats.tuples_scanned)
        };
        assert_eq!(by_key(500, &snapshot), (vec![tuple![500i64, "O"]], 1));
        assert_eq!(by_key(5_000, &snapshot), (vec![], 0));
        assert_eq!(by_key(500, &db), (vec![], 0));
        assert_eq!(by_key(5_000, &db), (vec![tuple![5_000i64, "B-PER"]], 1));
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
