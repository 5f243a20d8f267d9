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
//! # Parallel pipelines
//!
//! A *pipeline* is what feeds one breaker: the answer, a γ, or a × / ⋈
//! build side. Its *driving scan* is the scan at the bottom of its chain
//! of σ, π and probe (left) sides of × and ⋈. The breakers that chain
//! probes run first (a build side is itself a pipeline). Then, when the
//! driving scan holds at least two morsels of [`MORSEL_CHUNKS`] chunks,
//! the pipeline splits.
//!
//! * **Workers.** The calling thread and scoped helper threads pull
//!   morsels in order from one atomic counter. Each pushes them through
//!   the shared, already-bound operators into a breaker state of its own.
//!   There are min(cores, whole morsels) workers; the core count is read
//!   once per process. Each worker starts the next, so the calling
//!   thread spawns at most one helper.
//! * **Merging.** The partial states merge at the breaker. The answer's
//!   [`CountedSet`]s add. γ's group tables merge group by group: COUNT
//!   and integer SUM (`i128`) add, MIN/MAX add their value multisets. A ×
//!   or ⋈ build side is merged before its probe pipeline starts. A ∪ at a
//!   breaker's root feeds both of its pipelines into one state.
//! * **What stays on one worker.** The inputs of δ, ∖, ∩ and μ (so
//!   everything under a [`Plan::Rec`]), index and primary-key probes, and
//!   a γ with a SUM over a column not declared `Int`: float addition is
//!   not associative, and answers stay bit-identical.
//! * **Exactness.** Answers equal a one-worker run's as multisets, which
//!   is all any caller reads. [`ExecStats`] are equal field by field,
//!   because each row is counted by the one worker that reads it. Names
//!   bind before the split, so a binding error is the one it always was;
//!   of morsels that fail, the lowest wins. A helper that panics becomes
//!   [`ExecError::WorkerFailed`].
//! * **No knob.** The morsel size is derived from measured costs (see
//!   [`MORSEL_CHUNKS`]). There is no pool, environment variable or
//!   sequential path beside this one: a one-worker run is the same code
//!   with a team of one.
//! * **Views.** A view circuit's one full evaluation ([`crate::circuit`])
//!   drives these same pipelines into its own stateful nodes: each is a
//!   breaker state, and a node already built feeds the pipelines above it
//!   as a held source.
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
use crate::planner::column_type;
use crate::row::{Row, RowView};
use crate::storage::{ChunkRef, Relation, RowId, RowRef};
use crate::tuple::{fingerprint_values, Tuple};
use crate::value::{Value, ValueType};
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Scope;

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
    /// A helper thread of a split pipeline panicked.
    WorkerFailed,
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
            ExecError::WorkerFailed => write!(f, "a query worker thread failed"),
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
    execute_split(plan, db, Split::machine())
}

/// Executes a plan, discarding stats (convenience for tests and examples).
pub fn execute_simple(plan: &Plan, db: &Database) -> Result<QueryResult, ExecError> {
    execute(plan, db).map(|(r, _)| r)
}

/// [`execute`] with its pipelines split as `split` allows.
fn execute_split(
    plan: &Plan,
    db: &Database,
    split: Split,
) -> Result<(QueryResult, ExecStats), ExecError> {
    let mut stats = ExecStats::default();
    let columns = plan.output_columns(db)?;
    let rows = collect(plan, Ctx::new(db, split), &mut stats)?;
    Ok((QueryResult { columns, rows }, stats))
}

/// Heap chunks in one morsel — the unit of a driving scan that the workers
/// of a split pipeline pull, 4,096 rows — and, twice over, the least
/// driving relation that splits at all. Derived from two measurements on a
/// 2-vCPU x86-64 VM: spawning and joining a scoped helper thread costs
/// 20–55 µs (median 43 µs), and the cheapest scan pipelines (a σ under a
/// COUNT or a π) cost 0.5–0.7 µs per 64-row chunk of a 500 K-row TOKEN
/// relation. A 64-chunk morsel is therefore about one helper's spawn: the
/// smallest relation that splits is the smallest whose second half pays
/// for the thread that reads it. A constant, not a knob: both costs belong
/// to the code and the kind of machine, not to a deployment, and every
/// split answers what one worker answers.
pub const MORSEL_CHUNKS: usize = 64;

/// A helper thread's stack: the standard library's default, named so
/// that spawning one reads no environment variable.
const HELPER_STACK: usize = 2 << 20;

/// The machine's cores, read once per process (reading them allocates).
static CORES: OnceLock<usize> = OnceLock::new();

/// How a pipeline may split: across at most `workers` workers (the
/// machine's cores when `None`), which pull morsels of `morsel_chunks`
/// chunks.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Split {
    workers: Option<usize>,
    morsel_chunks: usize,
}

impl Split {
    /// The machine's: its cores and [`MORSEL_CHUNKS`].
    pub(crate) fn machine() -> Split {
        Split {
            workers: None,
            morsel_chunks: MORSEL_CHUNKS,
        }
    }
}

/// What the operators of one execution read: the database, the recursion
/// environment, and how their pipelines may split.
#[derive(Clone, Copy)]
pub(crate) struct Ctx<'q, 'db> {
    pub(crate) db: &'db Database,
    env: Option<&'q RecFrame<'q>>,
    split: Split,
}

impl<'db> Ctx<'_, 'db> {
    /// A context outside any recursion.
    pub(crate) fn new(db: &'db Database, split: Split) -> Self {
        Ctx {
            db,
            env: None,
            split,
        }
    }

    /// This context on one worker: what the inputs of δ, ∖, ∩ and μ, and
    /// of a γ with a float SUM, run in.
    pub(crate) fn sequential(self) -> Self {
        Ctx {
            split: Split {
                workers: Some(1),
                ..self.split
            },
            ..self
        }
    }
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
pub(crate) type Sink<'s, 'db> = dyn FnMut(&mut ExecStats, &RowView<'db, '_>, i64) + 's;

/// A row a build side keeps for the length of the query: a stored row
/// stays borrowed from the heap, any other is built.
pub(crate) enum Kept<'db> {
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

/// The state of a pipeline breaker, fed by the rows — or, straight off a
/// scan, the chunks — of its input pipeline. Each worker of a split
/// pipeline fills a partial state of its own; the partials merge into one.
pub(crate) trait Partial<'db>: Send {
    /// Folds in one row with its multiplicity.
    fn feed(&mut self, stats: &mut ExecStats, row: &RowView<'db, '_>, mult: i64);

    /// Folds in the rows at `sel`'s slots of a scanned chunk.
    fn feed_chunk(&mut self, stats: &mut ExecStats, chunk: ChunkRef<'db>, sel: u64) {
        for (_, r) in chunk.rows(sel) {
            self.feed(stats, &RowView::Stored(r), 1);
        }
    }

    /// Adds another worker's partial state to this one.
    fn merge(&mut self, other: Self);
}

/// The answer, or the consolidated input of ∖, ∩ or μ: multiplicities add.
impl<'db> Partial<'db> for CountedSet {
    fn feed(&mut self, _: &mut ExecStats, row: &RowView<'db, '_>, mult: i64) {
        self.add_row(row, mult);
    }

    fn merge(&mut self, other: Self) {
        self.merge_owned(other);
    }
}

/// A product's build side: every row, kept.
impl<'db> Partial<'db> for Vec<(Kept<'db>, i64)> {
    fn feed(&mut self, _: &mut ExecStats, row: &RowView<'db, '_>, mult: i64) {
        self.push((Kept::keep(row), mult));
    }

    fn merge(&mut self, other: Self) {
        self.extend(other);
    }
}

/// A hash join's build side: every kept row in one arena, each linked to
/// the next row of its join key, and per key its first and last row. Keys
/// are projected into one scratch buffer, and a row with a NULL key is
/// dropped. A new key costs one allocation (its tuple) and a row none;
/// two workers' tables merge by appending one arena to the other and
/// linking chains.
pub(crate) struct JoinTable<'db> {
    keys: Vec<usize>,
    scratch: Vec<Value>,
    heads: TupleMap<(usize, usize)>,
    rows: Vec<Chained<'db>>,
}

/// A build row, its multiplicity, and the position of its key's next row
/// ([`NO_ROW`] at the end of the chain).
struct Chained<'db> {
    row: Kept<'db>,
    mult: i64,
    next: usize,
}

/// The end of a key's chain of build rows.
const NO_ROW: usize = usize::MAX;

impl<'db> JoinTable<'db> {
    fn new(keys: Vec<usize>) -> Self {
        JoinTable {
            keys,
            scratch: Vec::new(),
            heads: TupleMap::new(),
            rows: Vec::new(),
        }
    }

    /// The build rows of key `(fp, key)`, in the order they were fed.
    fn matches(&self, fp: u64, key: &[Value]) -> impl Iterator<Item = &Chained<'db>> {
        let first = self.heads.get(fp, key).map_or(NO_ROW, |&(first, _)| first);
        std::iter::successors(self.rows.get(first), |r| self.rows.get(r.next))
    }
}

impl<'db> Partial<'db> for JoinTable<'db> {
    fn feed(&mut self, _: &mut ExecStats, row: &RowView<'db, '_>, mult: i64) {
        row.project_into(&self.keys, &mut self.scratch);
        // NULL never joins, so such a row could never be matched.
        if self.scratch.iter().any(Value::is_null) {
            return;
        }
        let at = self.rows.len();
        self.rows.push(Chained {
            row: Kept::keep(row),
            mult,
            next: NO_ROW,
        });
        let fp = fingerprint_values(&self.scratch);
        let (_, last) = self
            .heads
            .get_or_insert_with(fp, &self.scratch, || (at, at));
        if *last != at {
            if let Some(tail) = self.rows.get_mut(*last) {
                tail.next = at;
            }
            *last = at;
        }
    }

    fn merge(&mut self, other: Self) {
        let offset = self.rows.len();
        let shift = |at: usize| if at == NO_ROW { NO_ROW } else { at + offset };
        self.rows.extend(other.rows.into_iter().map(|r| Chained {
            next: shift(r.next),
            ..r
        }));
        for (key, (first, last)) in other.heads.into_entries() {
            let (first, last) = (first + offset, last + offset);
            let ends = self.heads.get_or_insert_tuple(key, || (first, last));
            if ends.0 != first {
                if let Some(tail) = self.rows.get_mut(ends.1) {
                    tail.next = first;
                }
                ends.1 = last;
            }
        }
    }
}

/// Consolidates `plan`'s output: the answer, or a breaker's whole input.
fn collect(plan: &Plan, ctx: Ctx<'_, '_>, stats: &mut ExecStats) -> Result<CountedSet, ExecError> {
    drive(plan, ctx, stats, &CountedSet::new)
}

/// Runs `plan`'s pipeline into a breaker's state, made by `fresh`: the
/// breakers the pipeline probes run first ([`Pipe::prepare`]), then the
/// pipeline is driven ([`Pipe::drive`]). A ∪ at the root feeds both of its
/// pipelines into one state.
fn drive<'db, P: Partial<'db>>(
    plan: &Plan,
    ctx: Ctx<'_, 'db>,
    stats: &mut ExecStats,
    fresh: &(impl Fn() -> P + Sync),
) -> Result<P, ExecError> {
    if let Plan::Union { left, right } = plan {
        let mut state = drive(left, ctx, stats, fresh)?;
        state.merge(drive(right, ctx, stats, fresh)?);
        return Ok(state);
    }
    Pipe::prepare(plan, ctx, stats)?.drive(ctx, stats, fresh)
}

/// One worker's share of a split pipeline — its partial state and
/// counters — or the failed morsel and its error.
type Share<P> = Result<(P, ExecStats), (usize, ExecError)>;

/// The workers of one split pipeline: as many as the machine's cores (or
/// `most`), but no more than the driving scan has whole morsels.
#[derive(Clone, Copy)]
struct Team {
    most: Option<usize>,
    whole_morsels: usize,
}

impl Team {
    /// Worker `rank`: starts worker `rank + 1` when the team is larger than
    /// that, runs its own share (`work`), and returns it merged with every
    /// later worker's. Each worker starts the next, so the calling thread
    /// (rank 0) spawns at most one helper at any team size, and the core
    /// count is first read on a helper: the caller, until it is known,
    /// assumes a second core. A helper that cannot be spawned leaves its
    /// morsels to the others.
    fn worker<'scope, 'env, 'db, P: Partial<'db> + 'scope>(
        self,
        scope: &'scope Scope<'scope, 'env>,
        rank: usize,
        work: &'env (impl Fn() -> Share<P> + Sync),
    ) -> Share<P> {
        let cores = match (self.most, rank) {
            (Some(most), _) => most,
            (None, 0) => CORES.get().copied().unwrap_or(2),
            (None, _) => *CORES
                .get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get)),
        };
        let next = (rank + 1 < cores.min(self.whole_morsels))
            .then(|| {
                std::thread::Builder::new()
                    .stack_size(HELPER_STACK)
                    .spawn_scoped(scope, move || self.worker(scope, rank + 1, work))
                    .ok()
            })
            .flatten();
        let mine = work();
        let Some(next) = next else {
            return mine;
        };
        let theirs = next.join().unwrap_or(Err((0, ExecError::WorkerFailed)));
        match (mine, theirs) {
            (Ok((mut state, mut own)), Ok((partial, counted))) => {
                state.merge(partial);
                own.absorb(counted);
                Ok((state, own))
            }
            // The lowest failed morsel is the error one worker meets first.
            (Err(a), Err(b)) => Err(if b.0 < a.0 { b } else { a }),
            (Err(e), Ok(_)) | (Ok(_), Err(e)) => Err(e),
        }
    }
}

/// Pushes every row of `plan`'s output into `sink` on the calling thread
/// (the breakers below it may still split).
fn run<'db>(
    plan: &Plan,
    ctx: Ctx<'_, 'db>,
    stats: &mut ExecStats,
    sink: &mut Sink<'_, 'db>,
) -> Result<(), ExecError> {
    Pipe::prepare(plan, ctx, stats)?.push(0..usize::MAX, ctx, stats, sink)
}

/// The streaming part of a pipeline, its breakers already run: a source
/// under the σ, π and probe sides of × and ⋈ above it. Every worker of a
/// split pipeline reads the one `Pipe`.
pub(crate) enum Pipe<'p, 'db> {
    /// A scan under at most one σ that no index answers: the pipeline's
    /// driving scan, read a morsel — a range of chunks — at a time.
    Scan(ScanBatches<'db>),
    /// σ over a scan an index answers: only the rows it names are read,
    /// and the whole predicate is the residual filter.
    Probe(&'db Relation, BoundExpr),
    /// Any other source — γ, δ, ∪, ∖, ∩, μ or a `Rec` — run whole.
    Source(&'p Plan),
    /// Rows some other owner already holds — a view circuit's node state —
    /// pushed whole.
    Held(HeldRows<'p, 'db>),
    Select(Box<Pipe<'p, 'db>>, BoundExpr),
    Project(Box<Pipe<'p, 'db>>, Vec<usize>),
    /// The left input and the right side's rows.
    Product(Box<Pipe<'p, 'db>>, Vec<(Kept<'db>, i64)>),
    /// The left input, its key positions, and the right side's table.
    Join(Box<Pipe<'p, 'db>>, Vec<usize>, JoinTable<'db>),
}

/// The rows of a [`Pipe::Held`] source: pushes each with its multiplicity.
pub(crate) type HeldRows<'p, 'db> = Box<dyn Fn(&mut ExecStats, &mut Sink<'_, 'db>) + Sync + 'p>;

impl<'p, 'db> Pipe<'p, 'db> {
    /// A scan of `rel` under the σ `pred`, if any: read a chunk at a time,
    /// or, when an index answers `pred`, only the rows the index names.
    pub(crate) fn scan(rel: &'db Relation, pred: Option<BoundExpr>) -> Self {
        match pred {
            Some(pred) if probe(rel, &pred).is_some() => Pipe::Probe(rel, pred),
            pred => Pipe::Scan(ScanBatches { rel, pred }),
        }
    }

    /// Binds `plan`'s streaming operators and runs the breakers they probe:
    /// a × or ⋈ builds its right side (itself split) before its probe
    /// pipeline starts. Names bind in the order the operators meet them
    /// streaming, so a plan fails with the error it always did.
    fn prepare(
        plan: &'p Plan,
        ctx: Ctx<'_, 'db>,
        stats: &mut ExecStats,
    ) -> Result<Self, ExecError> {
        let db = ctx.db;
        Ok(match plan {
            Plan::Scan { relation, .. } => Pipe::scan(relation_of(db, relation)?, None),
            Plan::Select { input, predicate } => {
                let bound = bind(predicate, &input.output_columns(db)?)?;
                match &**input {
                    Plan::Scan { relation, .. } => {
                        Pipe::scan(relation_of(db, relation)?, Some(bound))
                    }
                    _ => Pipe::Select(Box::new(Pipe::prepare(input, ctx, stats)?), bound),
                }
            }
            Plan::Project { input, columns } => {
                let indices = resolve_all(columns, &input.output_columns(db)?)?;
                Pipe::Project(Box::new(Pipe::prepare(input, ctx, stats)?), indices)
            }
            Plan::Product { left, right } => {
                let build = drive(right, ctx, stats, &Vec::new)?;
                Pipe::Product(Box::new(Pipe::prepare(left, ctx, stats)?), build)
            }
            Plan::Join { left, right, on } => {
                let (lk, rk) =
                    join_key_indices(on, &left.output_columns(db)?, &right.output_columns(db)?)?;
                let build = drive(right, ctx, stats, &|| JoinTable::new(rk.clone()))?;
                Pipe::Join(Box::new(Pipe::prepare(left, ctx, stats)?), lk, build)
            }
            _ => Pipe::Source(plan),
        })
    }

    /// Runs the pipeline into a breaker's state, made by `fresh`. Up to
    /// `ctx.split.workers` workers — the calling thread and scoped helpers
    /// — pull the driving scan's morsels in order and push each through
    /// the pipeline into a partial state of their own; the partials merge
    /// in the end. A pipeline splits only when a scan of at least two
    /// morsels drives it; otherwise the calling thread pushes the one
    /// morsel there is.
    ///
    /// A worker stops at the first morsel that fails, and of the failed
    /// morsels the lowest wins — the error a one-worker run meets first. A
    /// helper that panicked counts as a failure of the first morsel
    /// ([`ExecError::WorkerFailed`]).
    pub(crate) fn drive<P: Partial<'db>>(
        &self,
        ctx: Ctx<'_, 'db>,
        stats: &mut ExecStats,
        fresh: &(impl Fn() -> P + Sync),
    ) -> Result<P, ExecError> {
        let size = ctx.split.morsel_chunks.max(1);
        let chunks = self.driving_chunks();
        let morsels = chunks.div_ceil(size).max(1);
        let next = AtomicUsize::new(0);
        let work = || {
            let mut state = fresh();
            let mut own = ExecStats::default();
            loop {
                // lint:allow(sync, the counter only deals out morsel numbers; each worker's results reach the caller through its join)
                let m = next.fetch_add(1, Ordering::Relaxed);
                if m >= morsels {
                    return Ok((state, own));
                }
                self.push_into(m * size..(m + 1) * size, ctx, &mut own, &mut state)
                    .map_err(|e| (m, e))?;
            }
        };
        let team = Team {
            most: ctx.split.workers,
            whole_morsels: chunks / size,
        };
        let (state, own) =
            std::thread::scope(|scope| team.worker(scope, 0, &work)).map_err(|(_, e)| e)?;
        stats.absorb(own);
        Ok(state)
    }

    /// Chunks of the scan that drives the pipeline (none when another
    /// source does).
    fn driving_chunks(&self) -> usize {
        match self {
            Pipe::Scan(scan) => scan.rel.chunk_count(),
            Pipe::Select(input, _)
            | Pipe::Project(input, _)
            | Pipe::Product(input, _)
            | Pipe::Join(input, ..) => input.driving_chunks(),
            Pipe::Probe(..) | Pipe::Source(_) | Pipe::Held(_) => 0,
        }
    }

    /// Pushes the rows of the driving scan's chunks in `morsel` — or all
    /// of another source's rows — through the pipeline into `state`. A
    /// scan right below the breaker hands it whole chunks.
    fn push_into<P: Partial<'db>>(
        &self,
        morsel: Range<usize>,
        ctx: Ctx<'_, 'db>,
        stats: &mut ExecStats,
        state: &mut P,
    ) -> Result<(), ExecError> {
        match self {
            Pipe::Scan(scan) => {
                scan.for_each(morsel, stats, |stats, chunk, sel| {
                    state.feed_chunk(stats, chunk, sel)
                });
                Ok(())
            }
            _ => self.push(morsel, ctx, stats, &mut |stats, r, c| {
                state.feed(stats, r, c)
            }),
        }
    }

    /// [`Pipe::push_into`], row by row into `sink`.
    fn push(
        &self,
        morsel: Range<usize>,
        ctx: Ctx<'_, 'db>,
        stats: &mut ExecStats,
        sink: &mut Sink<'_, 'db>,
    ) -> Result<(), ExecError> {
        match self {
            Pipe::Scan(scan) => {
                scan.for_each(morsel, stats, |stats, chunk, sel| {
                    for (_, r) in chunk.rows(sel) {
                        sink(stats, &RowView::Stored(r), 1);
                    }
                });
                Ok(())
            }
            Pipe::Probe(rel, bound) => {
                let named = probe(rel, bound);
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
                Ok(())
            }
            Pipe::Source(plan) => run_source(plan, ctx, stats, sink),
            Pipe::Held(rows) => {
                rows(stats, sink);
                Ok(())
            }
            Pipe::Select(input, bound) => input.push(morsel, ctx, stats, &mut |stats, r, c| {
                stats.rows_processed += 1;
                if bound.matches(r) {
                    sink(stats, r, c);
                }
            }),
            Pipe::Project(input, indices) => input.push(morsel, ctx, stats, &mut |stats, r, c| {
                stats.rows_processed += 1;
                stats.intermediate_tuples += 1;
                sink(stats, &RowView::Project(r, indices), c);
            }),
            Pipe::Product(left, build) => left.push(morsel, ctx, stats, &mut |stats, lt, lc| {
                for (rt, rc) in build {
                    stats.rows_processed += 1;
                    stats.intermediate_tuples += 1;
                    sink(stats, &RowView::Concat(lt, &rt.view()), lc * rc);
                }
            }),
            Pipe::Join(left, lk, build) => {
                let mut key = Vec::new();
                left.push(morsel, ctx, stats, &mut |stats, lt, lc| {
                    stats.rows_processed += 1;
                    lt.project_into(lk, &mut key);
                    for r in build.matches(fingerprint_values(&key), &key) {
                        stats.rows_processed += 1;
                        stats.intermediate_tuples += 1;
                        sink(stats, &RowView::Concat(lt, &r.row.view()), lc * r.mult);
                    }
                })
            }
        }
    }
}

/// Pushes the rows of a source that is not a scan: a breaker's output, δ,
/// ∪ or a `Rec`. Each operator binds its own names first, so binding
/// errors surface before any row flows.
fn run_source<'db>(
    plan: &Plan,
    ctx: Ctx<'_, 'db>,
    stats: &mut ExecStats,
    sink: &mut Sink<'_, 'db>,
) -> Result<(), ExecError> {
    let db = ctx.db;
    match plan {
        // Streaming operators over their source: prepared as a `Pipe`.
        Plan::Scan { .. }
        | Plan::Select { .. }
        | Plan::Project { .. }
        | Plan::Product { .. }
        | Plan::Join { .. } => Ok(()),
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let in_cols = input.output_columns(db)?;
            let group_idx = resolve_all(group_by, &in_cols)?;
            let specs = bind_aggs(aggs, &in_cols)?;
            let ctx = if sums_add_exactly(&specs, input, db) {
                ctx
            } else {
                ctx.sequential()
            };
            let groups = drive(input, ctx, stats, &|| Groups::new(&group_idx, &specs))?;
            for (key, accs) in groups.iter() {
                let row = key.iter().cloned().chain(accs.iter().map(AggAcc::finish));
                stats.intermediate_tuples += 1;
                sink(stats, &RowView::Tuple(&Tuple::from_values(row)), 1);
            }
            Ok(())
        }
        Plan::Distinct { input } => {
            let mut seen: FxHashSet<Tuple> = FxHashSet::default();
            run(input, ctx.sequential(), stats, &mut |stats, r, _| {
                stats.rows_processed += 1;
                if !seen.contains(r as &dyn Row) {
                    seen.insert(r.to_tuple());
                    sink(stats, r, 1);
                }
            })
        }
        Plan::Union { left, right } => {
            run(left, ctx, stats, sink)?;
            run(right, ctx, stats, sink)
        }
        Plan::Difference { left, right } => {
            // Monus, `max(0, L(t) − R(t))`: the right input is subtracted
            // from the consolidated left row by row. A spent count is no
            // longer positive, so further right rows leave it alone.
            let ctx = ctx.sequential();
            let mut rows = collect(left, ctx, stats)?;
            run(right, ctx, stats, &mut |stats, r, c| {
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
            let ctx = ctx.sequential();
            let l = collect(left, ctx, stats)?;
            let mut r = CountedSet::new();
            run(right, ctx, stats, &mut |stats, row, c| {
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
            let ctx = ctx.sequential();
            let mut acc = collect(base, ctx, stats)?;
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
                        parent: ctx.env,
                        name: rec,
                        rows: &working,
                    };
                    let inner = Ctx {
                        env: Some(&frame),
                        ..ctx
                    };
                    let produced = collect(step, inner, stats)?;
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
                        parent: ctx.env,
                        name: rec,
                        rows: &acc,
                    };
                    let inner = Ctx {
                        env: Some(&frame),
                        ..ctx
                    };
                    run(step, inner, stats, &mut |_, r, _| {
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
            let rows = rec_lookup(ctx.env, name)
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

pub(crate) fn relation_of<'a>(db: &'a Database, name: &str) -> Result<&'a Relation, ExecError> {
    db.relation(name)
        .map_err(|_| ExecError::Plan(PlanError::UnknownRelation(name.to_string())))
}

/// True when γ's partial group tables add up to exactly what one table
/// would hold: every SUM reads a column its input declares `Int` (summed
/// in an `i128`), as the planner's type walker derives it. A float SUM is
/// not associative, so a γ with one, or with a SUM column the walker
/// cannot name unambiguously, reads its input on one worker and its answer
/// stays bit-identical.
pub(crate) fn sums_add_exactly(specs: &[AggSpec], input: &Plan, db: &Database) -> bool {
    let is_sum = |s: &AggSpec| matches!(s.kind, AggKind::Sum);
    if !specs.iter().any(is_sum) {
        return true;
    }
    let Ok(cols) = input.output_columns(db) else {
        return false;
    };
    specs.iter().filter(|s| is_sum(s)).all(|s| {
        cols.get(s.col).is_some_and(|name| {
            resolve_column(&cols, name) == Some(s.col)
                && column_type(input, db, name) == Some(ValueType::Int)
        })
    })
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
pub(crate) struct ScanBatches<'a> {
    rel: &'a Relation,
    pred: Option<BoundExpr>,
}

impl<'a> ScanBatches<'a> {
    /// Calls `f` with every chunk in `morsel` (a range of chunk positions)
    /// and the slots the σ (if any) selects, counting what the scan and
    /// the σ count row by row.
    fn for_each(
        &self,
        morsel: Range<usize>,
        stats: &mut ExecStats,
        mut f: impl FnMut(&mut ExecStats, ChunkRef<'a>, u64),
    ) {
        for chunk in self.rel.chunks(morsel) {
            let live = u64::from(chunk.live().count_ones());
            stats.tuples_scanned += live;
            let sel = match &self.pred {
                Some(pred) => {
                    stats.rows_processed += live;
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

pub(crate) fn bind(expr: &Expr, cols: &[Arc<str>]) -> Result<BoundExpr, ExecError> {
    expr.bind(cols)
        .map_err(|c| ExecError::Plan(PlanError::UnknownColumn(c)))
}

fn resolve(cols: &[Arc<str>], name: &str) -> Result<usize, ExecError> {
    resolve_column(cols, name)
        .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(name.to_string())))
}

pub(crate) fn resolve_all(names: &[Arc<str>], cols: &[Arc<str>]) -> Result<Vec<usize>, ExecError> {
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

/// One γ group: its accumulators, and the total multiplicity of its input
/// rows — what a maintained γ tests the group's existence by (n > 0,
/// except the global group, which always exists).
#[derive(Clone, Debug, Default)]
pub(crate) struct GroupState {
    pub(crate) n: i64,
    pub(crate) accs: Vec<AggAcc>,
}

impl GroupState {
    pub(crate) fn new(specs: &[AggSpec]) -> Self {
        GroupState {
            n: 0,
            accs: specs.iter().map(AggAcc::new).collect(),
        }
    }

    /// The group's output row, the key followed by each aggregate: one
    /// tuple allocation per call.
    pub(crate) fn output(&self, key: &[Value]) -> Tuple {
        let aggs = self.accs.iter().map(AggAcc::finish);
        Tuple::from_values(key.iter().cloned().chain(aggs))
    }
}

/// γ's group table: one [`GroupState`] per group key. Rows of one group
/// tend to arrive together (a document's tokens are consecutive slots), so
/// the last group found is remembered: such a row costs a comparison of
/// its key columns, not a projection, a fingerprint and a hash probe. A
/// global aggregate is one group, present even over an empty input: no
/// key, no table.
pub(crate) struct Groups<'s> {
    key_idx: &'s [usize],
    specs: &'s [AggSpec],
    index: TupleMap<usize>,
    groups: Vec<GroupState>,
    /// The group of the last row fed, and its key.
    last: Option<usize>,
    last_key: Vec<Value>,
    scratch: Vec<Value>,
    /// Per spec, the slots of the current chunk its FILTER admits.
    admitted: Vec<u64>,
}

impl<'s> Groups<'s> {
    pub(crate) fn new(key_idx: &'s [usize], specs: &'s [AggSpec]) -> Self {
        let mut groups = Groups {
            key_idx,
            specs,
            index: TupleMap::new(),
            groups: Vec::new(),
            last: None,
            last_key: Vec::new(),
            scratch: Vec::new(),
            admitted: vec![0; specs.len()],
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
        let next = self.groups.len();
        let g = *self.index.get_or_insert_with(
            fingerprint_values(&self.scratch),
            &self.scratch,
            || next,
        );
        if g == next {
            self.groups.push(GroupState::new(self.specs));
        }
        self.last = Some(g);
        std::mem::swap(&mut self.last_key, &mut self.scratch);
        g
    }

    /// Folds one row into its group.
    fn fold<R: Row + ?Sized>(&mut self, row: &R, mult: i64) {
        let g = self.group_of(row);
        let specs = self.specs;
        if let Some(group) = self.groups.get_mut(g) {
            group.n += mult;
            for (acc, spec) in group.accs.iter_mut().zip(specs) {
                acc.update(spec, row, mult);
            }
        }
    }

    /// Folds the rows at `sel`'s slots of `chunk` into their groups, each
    /// aggregate reading the slots its FILTER admits — evaluated over the
    /// chunk's columns once. A global COUNT adds a popcount.
    fn fold_chunk(&mut self, chunk: ChunkRef<'_>, sel: u64) {
        let specs = self.specs;
        for (mask, spec) in self.admitted.iter_mut().zip(specs) {
            *mask = spec.admits(chunk, sel);
        }
        if self.key_idx.is_empty() {
            for group in &mut self.groups {
                group.n += i64::from(sel.count_ones());
                for (acc, (spec, mask)) in
                    group.accs.iter_mut().zip(specs.iter().zip(&self.admitted))
                {
                    acc.update_chunk(spec, chunk, *mask);
                }
            }
            return;
        }
        for (slot, row) in chunk.rows(sel) {
            let g = self.group_of(&row);
            let Some(group) = self.groups.get_mut(g) else {
                continue;
            };
            group.n += 1;
            for (acc, (spec, mask)) in group.accs.iter_mut().zip(specs.iter().zip(&self.admitted)) {
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
            .filter_map(|(key, &g)| Some((key.values(), self.groups.get(g)?.accs.as_slice())))
    }

    /// Moves every group's key and state out.
    pub(crate) fn into_entries(mut self) -> impl Iterator<Item = (Tuple, GroupState)> {
        self.index
            .into_entries()
            .filter_map(move |(key, g)| Some((key, std::mem::take(self.groups.get_mut(g)?))))
    }
}

/// γ's input: rows fold into their groups, and two workers' tables merge
/// group by group.
impl<'db> Partial<'db> for Groups<'_> {
    fn feed(&mut self, stats: &mut ExecStats, row: &RowView<'db, '_>, mult: i64) {
        stats.rows_processed += 1;
        self.fold(row, mult);
    }

    fn feed_chunk(&mut self, stats: &mut ExecStats, chunk: ChunkRef<'db>, sel: u64) {
        stats.rows_processed += u64::from(sel.count_ones());
        self.fold_chunk(chunk, sel);
    }

    fn merge(&mut self, other: Self) {
        for (key, theirs) in other.into_entries() {
            let next = self.groups.len();
            let g = *self.index.get_or_insert_tuple(key, || next);
            if g == next {
                self.groups.push(theirs);
            } else if let Some(mine) = self.groups.get_mut(g) {
                mine.n += theirs.n;
                for (acc, partial) in mine.accs.iter_mut().zip(theirs.accs) {
                    acc.merge(partial);
                }
            }
        }
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

    /// Adds the accumulator of the same spec that another worker's group
    /// table holds: COUNT and integer SUM add integers, MIN/MAX add their
    /// value multisets — exact, so a split γ answers what one table would.
    /// (A float SUM adds its floats too, but a γ with one never splits:
    /// float addition is not associative.)
    fn merge(&mut self, other: AggAcc) {
        match (self, other) {
            (AggAcc::Count(n), AggAcc::Count(m)) => *n += m,
            (
                AggAcc::Sum {
                    int,
                    float,
                    n,
                    saw_float,
                },
                AggAcc::Sum {
                    int: their_int,
                    float: their_float,
                    n: their_n,
                    saw_float: their_saw_float,
                },
            ) => {
                *int += their_int;
                *n += their_n;
                if their_saw_float {
                    *float += their_float;
                    *saw_float = true;
                }
            }
            (AggAcc::Extremum { values, .. }, AggAcc::Extremum { values: theirs, .. }) => {
                for (v, c) in theirs {
                    let e = values.entry(v.clone()).or_insert(0);
                    *e += c;
                    if *e == 0 {
                        values.remove(&v);
                    }
                }
            }
            // Accumulators of one spec are of one kind.
            _ => {}
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
pub(crate) mod tests {
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

    // ------------------------------------------------ split ≡ sequential --

    /// Splitmix64: the seeded stream behind the random fixtures and plans.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n.max(1) as u64) as usize
        }

        pub(crate) fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len())]
        }
    }

    pub(crate) const LABELS: [&str; 4] = ["O", "B-PER", "B-ORG", "B-LOC"];
    const WORDS: [&str; 6] = ["Boston", "Ann", "Bill", "IBM", "said", "hired"];

    /// A TOKEN of `n` rows in the `sized_token_db` shape plus a `score`
    /// column whose magnitudes (1e16 beside fractions) make a float SUM
    /// depend on its order of addition, with every 13th row deleted so
    /// chunks have holes; and a cyclic `LINK` for the recursive queries.
    pub(crate) fn mixed_token_db(n: i64, seed: u64) -> Database {
        let mut rng = Rng(seed);
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[
            ("tok_id", ValueType::Int),
            ("doc_id", ValueType::Int),
            ("string", ValueType::Str),
            ("label", ValueType::Str),
            ("truth", ValueType::Str),
            ("score", ValueType::Float),
        ])
        .unwrap()
        .with_primary_key("tok_id")
        .unwrap();
        db.create_relation("TOKEN", schema).unwrap();
        let rel = db.relation_mut("TOKEN").unwrap();
        let mut ids = Vec::new();
        for id in 0..n {
            let score = match rng.below(5) {
                0 => Value::Null,
                1 => Value::float(1e16),
                2 => Value::float(-1e16),
                _ => Value::float(rng.below(9) as f64 * 0.1),
            };
            ids.push(
                rel.insert(Tuple::new(vec![
                    Value::Int(id),
                    Value::Int(id / 7),
                    Value::str(*rng.pick(&WORDS)),
                    Value::str(*rng.pick(&LABELS)),
                    Value::str(*rng.pick(&LABELS)),
                    score,
                ]))
                .unwrap(),
            );
        }
        for rid in ids.into_iter().step_by(13) {
            rel.delete(rid).unwrap();
        }
        let schema =
            Schema::from_pairs(&[("src", ValueType::Int), ("dst", ValueType::Int)]).unwrap();
        db.create_relation("LINK", schema).unwrap();
        let rel = db.relation_mut("LINK").unwrap();
        for _ in 0..300 {
            let s = rng.below(12) as i64;
            rel.insert(tuple![s, rng.below(12) as i64]).unwrap();
        }
        db
    }

    /// A scan of TOKEN as `alias`, under a random σ or none.
    fn random_leaf(rng: &mut Rng, alias: &str) -> Plan {
        let c = |name: &str| Expr::col(format!("{alias}.{name}"));
        let scan = Plan::scan_as("TOKEN", alias);
        match rng.below(5) {
            0 => scan,
            1 => scan.filter(c("label").eq(Expr::lit(*rng.pick(&LABELS)))),
            2 => scan.filter(c("string").ne(Expr::lit(*rng.pick(&WORDS)))),
            3 => scan.filter(c("doc_id").lt(Expr::lit(rng.below(400) as i64))),
            _ => scan.filter(
                c("label")
                    .ne(Expr::lit("O"))
                    .and(c("score").is_null().not()),
            ),
        }
    }

    /// A one-column bag of strings, nested through ∪ / ∖ / ∩ / δ / γ.
    fn random_bag(rng: &mut Rng, depth: usize) -> Plan {
        let leaf = random_leaf(rng, "b").project(&["b.string"]);
        if depth == 0 {
            return leaf;
        }
        let left = random_bag(rng, depth - 1);
        match rng.below(5) {
            0 => left.union(random_bag(rng, depth - 1)),
            1 => left.difference(random_bag(rng, depth - 1)),
            2 => left.intersect(random_bag(rng, depth - 1)),
            3 => left.distinct(),
            _ => left
                .aggregate(&["b.string"], vec![AggExpr::new(AggFunc::Count, "n")])
                .project(&["b.string"]),
        }
    }

    /// γ's aggregates: COUNT, a filtered COUNT, integer SUM, MIN and MAX.
    fn exact_aggs(alias: &str) -> Vec<AggExpr> {
        let col = |name: &str| Arc::from(format!("{alias}.{name}"));
        vec![
            AggExpr::new(AggFunc::Count, "n"),
            AggExpr::count_if(
                Expr::col(format!("{alias}.label")).eq(Expr::lit("B-PER")),
                "per",
            ),
            AggExpr::new(AggFunc::Sum(col("tok_id")), "s"),
            AggExpr::new(AggFunc::Min(col("tok_id")), "lo"),
            AggExpr::new(AggFunc::Max(col("string")), "hi"),
        ]
    }

    /// One random plan of a shape the executor splits, or keeps on one
    /// worker.
    fn random_plan(rng: &mut Rng) -> Plan {
        match rng.below(10) {
            0 => random_leaf(rng, "a").project(&["a.string", "a.label"]),
            1 => random_leaf(rng, "a").aggregate(&["a.doc_id"], exact_aggs("a")),
            2 => random_leaf(rng, "a").aggregate(&[], exact_aggs("a")),
            3 => random_leaf(rng, "a")
                .join_on(random_leaf(rng, "b"), &[("a.doc_id", "b.doc_id")])
                .project(&["a.string", "b.label"]),
            4 => random_leaf(rng, "a")
                .product(random_leaf(rng, "b").filter(Expr::col("b.tok_id").lt(Expr::lit(9i64))))
                .project(&["a.label", "b.string"]),
            5 => random_bag(rng, 2),
            // A float SUM: its γ reads its input on one worker.
            6 => {
                let group: &[&str] = if rng.below(2) == 0 {
                    &[]
                } else {
                    &["a.doc_id"]
                };
                random_leaf(rng, "a").aggregate(
                    group,
                    vec![AggExpr::new(AggFunc::Sum(Arc::from("a.score")), "s")],
                )
            }
            7 => random_leaf(rng, "a")
                .project(&["a.string"])
                .union(random_leaf(rng, "b").project(&["b.string"])),
            // A γ as a join's build side, joined back to its groups' rows.
            8 => random_leaf(rng, "a")
                .join_on(
                    random_leaf(rng, "b")
                        .aggregate(&["b.doc_id"], vec![AggExpr::new(AggFunc::Count, "n")]),
                    &[("a.doc_id", "b.doc_id")],
                )
                .project(&["a.string", "n"]),
            _ => {
                let step = Plan::rec("R", &["a", "b"])
                    .join_on(Plan::scan("LINK"), &[("b", "src")])
                    .project(&["a", "dst"]);
                Plan::scan("LINK")
                    .fixpoint(step, "R", &["a", "b"])
                    .aggregate(&["a"], vec![AggExpr::new(AggFunc::Count, "reach")])
            }
        }
    }

    pub(crate) fn split(workers: usize) -> Split {
        Split {
            workers: Some(workers),
            morsel_chunks: 1,
        }
    }

    /// Answers, counters and errors at 2, 3 and 8 workers over one-chunk
    /// morsels are the one-worker run's — and `execute`'s.
    fn assert_split_matches(plan: &Plan, db: &Database) {
        let entries = |r: Result<(QueryResult, ExecStats), ExecError>| {
            r.map(|(res, stats)| (res.columns, res.rows.sorted_entries(), stats))
        };
        let one = entries(execute_split(plan, db, split(1)));
        assert_eq!(
            entries(execute(plan, db)),
            one,
            "execute vs one worker: {plan}"
        );
        for workers in [2, 3, 8] {
            let got = entries(execute_split(plan, db, split(workers)));
            assert_eq!(got, one, "{workers} workers vs one: {plan}");
        }
    }

    #[test]
    fn split_pipelines_answer_like_one_worker() {
        for seed in 0..6 {
            let db = mixed_token_db(3_000, seed);
            let mut rng = Rng(seed ^ 0x5917);
            for plan in [
                paper_queries::query1("TOKEN"),
                paper_queries::query2("TOKEN"),
                paper_queries::query3("TOKEN"),
                paper_queries::query4("TOKEN"),
            ] {
                assert_split_matches(&plan, &db);
            }
            for _ in 0..12 {
                assert_split_matches(&random_plan(&mut rng), &db);
            }
        }
    }

    #[test]
    fn a_float_sum_is_read_on_one_worker() {
        let db = mixed_token_db(3_000, 1);
        let input = Plan::scan("TOKEN");
        let sum = |col: &str| {
            let cols = input.output_columns(&db).unwrap();
            bind_aggs(&[AggExpr::new(AggFunc::Sum(Arc::from(col)), "s")], &cols).unwrap()
        };
        assert!(sums_add_exactly(&sum("tok_id"), &input, &db));
        assert!(!sums_add_exactly(&sum("score"), &input, &db));
        // Bit-identical at every worker count, though the scores' order of
        // addition changes their sum.
        let plan = input.aggregate(
            &[],
            vec![AggExpr::new(AggFunc::Sum(Arc::from("score")), "s")],
        );
        assert_split_matches(&plan, &db);
    }

    #[test]
    fn split_pipelines_fail_like_one_worker() {
        let db = mixed_token_db(3_000, 2);
        let mut cyclic = Plan::scan("LINK").fixpoint(
            Plan::rec("R", &["a", "b"])
                .join_on(Plan::scan("LINK"), &[("b", "src")])
                .project(&["a", "dst"]),
            "R",
            &["a", "b"],
        );
        if let Plan::Fixpoint { all, cap, .. } = &mut cyclic {
            (*all, *cap) = (true, 4);
        }
        let failing = [
            // Divergent bag recursion.
            cyclic,
            // Unknown names on either side of a join, and under γ.
            Plan::scan_as("TOKEN", "a")
                .filter(Expr::col("a.nope").eq(Expr::lit(1i64)))
                .join_on(Plan::scan_as("TOKEN", "b"), &[("a.doc_id", "b.doc_id")]),
            Plan::scan_as("TOKEN", "a").join_on(
                Plan::scan_as("TOKEN", "b").filter(Expr::col("b.nope").is_null()),
                &[("a.doc_id", "b.doc_id")],
            ),
            Plan::scan("TOKEN").aggregate(
                &["doc_id"],
                vec![AggExpr::count_if(Expr::col("nope").is_null(), "n")],
            ),
            Plan::rec("R", &["a"]),
        ];
        for plan in failing {
            assert!(execute(&plan, &db).is_err(), "{plan}");
            assert_split_matches(&plan, &db);
        }
    }
}
