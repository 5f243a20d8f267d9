//! DBSP-style operator circuits: incremental view maintenance over Z-sets.
//!
//! This is Algorithm 1's view engine, the one every
//! [`MaterializedView`](crate::MaterializedView) owns. A circuit compiles a
//! [`Plan`] into a flat list of stateful operator nodes in topological
//! order. The one Z-set type is [`CountedSet`]: every node's state, join
//! index entry and per-batch delta is one, as are a fixpoint's derivation
//! counts and output and the view's answer. Applying a world delta is one
//! bottom-up sweep costing Θ(|Δ|), tested against naive re-execution.
//!
//! **Initialization runs on the executor.** The one-time full evaluation
//! (Algorithm 1's "run full query to get initial results") is not a sweep:
//! each node that keeps state — a join side's index, γ's group table, the
//! kept inputs of ×, δ, ∖ and ∩, a fixpoint, the answer — implements the
//! executor's [`Partial`](crate::exec) breaker state and is driven its
//! inputs by the executor's split pipelines. σ over a scan runs as chunk
//! masks (or an index probe), whole chunks reach a γ, and a scan of two
//! morsels or more splits across the cores, each worker filling a partial
//! state that merges with the others'. Float SUMs, index probes and
//! fixpoint inputs stay on one worker, so a build answers and counts
//! exactly what a one-worker build does. Only deltas take the circuit's own
//! sweep.
//!
//! Beyond the non-recursive algebra the circuit maintains *recursion*: a
//! [`Plan::Fixpoint`] compiles to a fixpoint node holding two nested
//! sub-circuits (the non-recursive base term and the recursive step term,
//! with [`Plan::Rec`] leaves compiled to a recursive-input port). Under set
//! semantics (`UNION`) the node keeps a *derivation count* for every tuple —
//! a Z-set weight: in how many ways base and step currently derive it — and,
//! when both terms are monotone and the step is linear in the recursive
//! relation, maintains the fixpoint by **delete-and-rederive** in time
//! proportional to the affected paths, never to the closure:
//!
//! * insertions propagate semi-naively — new edges derive new closure
//!   tuples, each iteration feeding exactly the newly derived frontier back
//!   into the step circuit;
//! * retractions are applied first. Counts alone cannot delete (a tuple on
//!   a cycle supports itself), so every output tuple that loses *any*
//!   derivation is over-deleted and retracted from the step's recursive
//!   input, transitively; what survives is derivable without them. An
//!   over-deleted tuple whose count is still positive is rederived from the
//!   survivors and re-enters through the same frontier loop;
//! * the node emits `out` after minus `out` before, so a tuple deleted and
//!   rederived in one batch is invisible downstream.
//!
//! Such a node never recomputes after initialization and keeps no copy of
//! its source relations. Non-monotone terms (γ, ∖) and steps with δ or ∩
//! above the recursive reference fall back to recompute-and-diff over
//! maintained relation copies. Bag semantics (`UNION ALL`) always recompute
//! via working-table iteration. Every iteration loop is bounded by the
//! fixpoint's cap; hitting it is a typed [`CircuitError::IterationLimit`],
//! never divergence.
//!
//! Errors are typed: an inconsistent delta stream (retracting a tuple that
//! was never inserted) surfaces as [`CircuitError::InconsistentDelta`] from
//! `distinct`/`aggregate` state or a fixpoint's derivation counts instead
//! of silently going negative. A circuit that has returned an error may
//! hold partially updated state and should be rebuilt.
//!
//! # Example: transitive closure, maintained incrementally
//!
//! ```
//! use fgdb_relational::{tuple, Database, DeltaSet, MaterializedView, Plan, Schema, ValueType};
//! use std::sync::Arc;
//!
//! let mut db = Database::new();
//! let schema = Schema::from_pairs(&[("src", ValueType::Int), ("dst", ValueType::Int)]).unwrap();
//! db.create_relation("LINK", schema).unwrap();
//! db.relation_mut("LINK").unwrap().insert(tuple![1i64, 2i64]).unwrap();
//! db.relation_mut("LINK").unwrap().insert(tuple![2i64, 3i64]).unwrap();
//!
//! // REACH = LINK ∪ π_{src,dst}(REACH ⋈_{dst=src} LINK)
//! let step = Plan::rec("REACH", &["a", "b"])
//!     .join_on(Plan::scan("LINK"), &[("b", "src")])
//!     .project(&["a", "dst"]);
//! let plan = Plan::scan("LINK").fixpoint(step, "REACH", &["a", "b"]);
//!
//! let mut view = MaterializedView::new(&plan, &db).unwrap();
//! assert_eq!(view.result().total(), 3); // 1→2, 2→3, 1→3
//!
//! // A new edge 3→4 extends every chain that reaches 3.
//! let rel: Arc<str> = Arc::from("LINK");
//! let mut delta = DeltaSet::new();
//! delta.record_insert(&rel, tuple![3i64, 4i64]);
//! let out = view.try_apply_delta(&delta).unwrap();
//! assert_eq!(out.total(), 3); // 3→4, 2→4, 1→4
//! assert_eq!(view.result().total(), 6);
//! ```

use crate::algebra::{Plan, PlanError};
use crate::counted::{CountedSet, NegativeWeight};
use crate::database::Database;
use crate::delta::DeltaSet;
use crate::exec::{
    bind, bind_aggs, join_key_indices, relation_of, resolve_all, sums_add_exactly, AggSpec, Ctx,
    ExecError, ExecStats, GroupState, Groups, Partial, Pipe, Split,
};
use crate::expr::BoundExpr;
use crate::fasthash::TupleMap;
use crate::row::{concat, Row, RowView};
use crate::tuple::{fingerprint_values, Tuple};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Typed error surface of view maintenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitError {
    /// Plan validation/binding failure (shared with the executor).
    Exec(ExecError),
    /// A fixpoint iteration loop exceeded its configured cap — divergent
    /// recursion (e.g. `UNION ALL` closure over a cyclic graph).
    IterationLimit {
        /// The configured iteration cap that was exceeded.
        cap: usize,
    },
    /// The recursive term references the recursive relation more than once
    /// (e.g. a self-join of the recursion). Only linear recursion is
    /// supported.
    NonLinearRecursion {
        /// The recursive relation's name.
        name: String,
    },
    /// A fixpoint appears inside another fixpoint's base or step term.
    NestedRecursion {
        /// The inner fixpoint's recursive name.
        name: String,
    },
    /// A [`Plan::Rec`] leaf appeared outside a fixpoint binding its name
    /// (including inside the base term, which must be non-recursive).
    UnboundRecursion {
        /// The unbound recursive name.
        name: String,
    },
    /// The recursive relation's name collides with a stored relation.
    ShadowedRelation {
        /// The colliding name.
        name: String,
    },
    /// A delta stream retracted more than it inserted: stateful operator
    /// state (distinct support, aggregate group multiplicity) would have
    /// gone negative. The circuit's state is no longer trustworthy.
    InconsistentDelta(NegativeWeight),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::Exec(e) => write!(f, "{e}"),
            CircuitError::IterationLimit { cap } => {
                write!(f, "recursive query exceeded the iteration cap ({cap})")
            }
            CircuitError::NonLinearRecursion { name } => write!(
                f,
                "non-linear recursion: `{name}` is referenced more than once in the recursive term"
            ),
            CircuitError::NestedRecursion { name } => {
                write!(f, "nested recursion (`{name}`) is not supported")
            }
            CircuitError::UnboundRecursion { name } => {
                write!(f, "recursive reference `{name}` outside its fixpoint")
            }
            CircuitError::ShadowedRelation { name } => {
                write!(f, "recursive name `{name}` shadows a stored relation")
            }
            CircuitError::InconsistentDelta(nw) => {
                write!(f, "inconsistent delta stream: {nw}")
            }
        }
    }
}

impl std::error::Error for CircuitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CircuitError::Exec(e) => Some(e),
            CircuitError::InconsistentDelta(nw) => Some(nw),
            _ => None,
        }
    }
}

impl From<ExecError> for CircuitError {
    fn from(e: ExecError) -> Self {
        CircuitError::Exec(e)
    }
}

impl From<PlanError> for CircuitError {
    fn from(e: PlanError) -> Self {
        CircuitError::Exec(ExecError::Plan(e))
    }
}

impl From<NegativeWeight> for CircuitError {
    fn from(e: NegativeWeight) -> Self {
        CircuitError::InconsistentDelta(e)
    }
}

/// Work counters for view maintenance (the |Δ|-proportional analogue of
/// [`crate::exec::ExecStats`], plus recursion counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CircuitStats {
    /// Delta batches applied.
    pub deltas_applied: u64,
    /// Base tuples read during initialization: the executor's
    /// [`ExecStats::tuples_scanned`] over every pipeline the build drove, so
    /// a relation a plan reads twice counts twice and an index probe counts
    /// the rows it names.
    pub init_tuples_scanned: u64,
    /// Delta rows processed across all operator nodes during `apply_delta`
    /// (the |Δ|-proportional cost the paper's Eq. 6 argues for).
    pub delta_rows_processed: u64,
    /// Fixpoint iterations run (over-deletion and frontier feeds and rebuild
    /// iterations alike).
    pub fixpoint_iterations: u64,
    /// Fixpoint rebuilds after initialization: every delta on a `UNION ALL`
    /// fixpoint or one whose terms are not monotone and linear in the
    /// recursive relation; never on the fixpoints maintained by
    /// delete-and-rederive.
    pub fixpoint_recomputes: u64,
    /// Tuples a retraction removed from a fixpoint's output because they
    /// lost a derivation, before rederivation. On a dense graph this can
    /// dwarf the output delta: it is the cost of delete-and-rederive.
    pub fixpoint_overdeleted: u64,
    /// Over-deleted tuples that another derivation brought back within the
    /// same batch (so they never reached the output delta).
    pub fixpoint_rederived: u64,
}

/// One delta batch flowing into a circuit sweep. Exactly one of `deltas`
/// (incremental maintenance) or `copies` (a rebuilding fixpoint's copies of
/// its source relations, fed as an insert-only delta from empty state) is
/// normally set; `rec` additionally binds the enclosing fixpoint's recursive
/// name to the current frontier when driving an inner step circuit.
struct BatchInput<'a> {
    deltas: Option<&'a DeltaSet>,
    copies: Option<&'a Copies>,
    rec: Option<(&'a str, &'a CountedSet)>,
}

/// A rebuilding fixpoint's full copies of its source relations.
type Copies = BTreeMap<Arc<str>, CountedSet>;

/// A borrowed or owned per-node output delta for one batch.
enum DOut<'a> {
    Empty,
    Borrowed(&'a CountedSet),
    Owned(CountedSet),
}

impl<'a> BatchInput<'a> {
    fn relation(&self, name: &str) -> Option<DOut<'a>> {
        if let Some((rn, z)) = self.rec {
            if rn == name {
                return Some(DOut::Borrowed(z));
            }
        }
        if let Some(rels) = self.copies {
            return rels.get(name).map(DOut::Borrowed);
        }
        self.deltas?.for_relation(name).map(DOut::Borrowed)
    }

    fn touches(&self, sources: &[Arc<str>]) -> bool {
        sources.iter().any(|r| self.relation(r).is_some())
    }
}

impl DOut<'_> {
    /// The delta, unless there is none.
    fn set(&self) -> Option<&CountedSet> {
        match self {
            DOut::Empty => None,
            DOut::Borrowed(s) => Some(s),
            DOut::Owned(s) => Some(s),
        }
    }

    /// The entries, through one iterator type for every variant: walking a
    /// batch boxes nothing.
    fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> + '_ {
        self.set().into_iter().flat_map(CountedSet::iter)
    }

    fn count(&self, t: &Tuple) -> i64 {
        self.set().map_or(0, |s| s.count(t))
    }

    fn distinct_len(&self) -> usize {
        self.set().map_or(0, CountedSet::distinct_len)
    }

    fn into_owned(self) -> CountedSet {
        match self {
            DOut::Empty => CountedSet::new(),
            DOut::Borrowed(s) => s.clone(),
            DOut::Owned(s) => s,
        }
    }
}

/// A flat operator pipeline in topological order (children strictly before
/// parents; the last node is the root). The flat layout is what lets one
/// sweep drive the whole circuit with per-node outputs in a side vector —
/// no recursion, no tree walks. A [`crate::MaterializedView`] owns one.
pub(crate) struct Flow {
    nodes: Vec<CNode>,
}

/// A stateful circuit node plus the base relations (and recursive names)
/// its subtree reads, for delta short-circuiting.
struct CNode {
    kind: CKind,
    sources: Vec<Arc<str>>,
}

/// The operator kinds. Children are indices into the flow's node list.
enum CKind {
    /// Base-relation delta input.
    Input {
        relation: Arc<str>,
    },
    /// Recursive-input port: receives the enclosing fixpoint's frontier.
    RecInput {
        name: Arc<str>,
    },
    Select {
        child: usize,
        pred: BoundExpr,
    },
    Project {
        child: usize,
        indices: Vec<usize>,
    },
    Product {
        left: usize,
        right: usize,
        left_state: CountedSet,
        right_state: CountedSet,
    },
    Join {
        left: usize,
        right: usize,
        join: JoinState,
    },
    Aggregate {
        child: usize,
        agg: AggState,
    },
    Distinct {
        child: usize,
        state: CountedSet,
    },
    Union {
        left: usize,
        right: usize,
    },
    SetOp {
        left: usize,
        right: usize,
        kind: SetOpKind,
        left_state: CountedSet,
        right_state: CountedSet,
    },
    Fixpoint(Box<FixpointNode>),
}

/// The μ node: two nested sub-circuits and the derivation counts of what
/// they derive.
struct FixpointNode {
    rec: Arc<str>,
    all: bool,
    cap: usize,
    /// Set semantics, monotone terms, step linear in the recursive relation:
    /// maintained by delete-and-rederive, never rebuilt after
    /// initialization. Every other fixpoint rebuilds on every delta.
    incremental: bool,
    sources: Vec<Arc<str>>,
    step_sources: Vec<Arc<str>>,
    base: Flow,
    step: Flow,
    /// Full copies of every source relation, for the fixpoints that rebuild
    /// (empty when `incremental`).
    rels: BTreeMap<Arc<str>, CountedSet>,
    /// Set semantics: derivation counts per tuple (how many ways it is
    /// currently derivable). Bag semantics: mirror of `out`.
    derived: CountedSet,
    /// The node's current output snapshot.
    out: CountedSet,
}

/// Adds `(t, c)` into a keyed index, dropping key entries that empty out so
/// stale keys never accumulate.
fn insert_keyed<R: Row + ?Sized>(
    state: &mut TupleMap<CountedSet>,
    fp: u64,
    key: &[Value],
    t: &R,
    c: i64,
) {
    let set = state.get_or_insert_with(fp, key, CountedSet::new);
    set.add(t.to_tuple(), c);
    if set.is_empty() {
        state.remove(fp, key);
    }
}

/// A maintained equi-join: both inputs indexed by join key. Each input row
/// costs one key projection and fingerprint, shared between the probe and
/// the insert; NULL join keys match nothing.
struct JoinState {
    left: JoinSide,
    right: JoinSide,
}

/// One input of a maintained join: its rows by join key.
struct JoinSide {
    keys: Vec<usize>,
    index: TupleMap<CountedSet>,
    scratch: Vec<Value>,
}

impl JoinSide {
    fn new(keys: Vec<usize>) -> Self {
        JoinSide {
            keys,
            index: TupleMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Projects `row`'s join key into the scratch buffer and returns its
    /// fingerprint, or `None` for a key with a NULL, which joins nothing.
    fn key_of<R: Row + ?Sized>(&mut self, row: &R) -> Option<u64> {
        row.project_into(&self.keys, &mut self.scratch);
        let null = self.scratch.iter().any(Value::is_null);
        (!null).then(|| fingerprint_values(&self.scratch))
    }
}

/// A join side at initialization: rows fold into their key's Z-set, and
/// two workers' indexes merge key by key.
impl<'db> Partial<'db> for JoinSide {
    fn feed(&mut self, _: &mut ExecStats, row: &RowView<'db, '_>, mult: i64) {
        if let Some(fp) = self.key_of(row) {
            insert_keyed(&mut self.index, fp, &self.scratch, row, mult);
        }
    }

    fn merge(&mut self, other: Self) {
        for (key, rows) in other.index.into_entries() {
            self.index
                .get_or_insert_tuple(key, CountedSet::new)
                .merge_owned(rows);
        }
    }
}

impl JoinState {
    /// One row of ΔL (`left`) or ΔR: joined with the other side's index —
    /// ΔL with R_old, ΔR with L_new, which supplies both L_old ⋈ ΔR and
    /// ΔL ⋈ ΔR — then folded into its own side's index.
    fn delta_row(
        &mut self,
        left: bool,
        t: &Tuple,
        c: i64,
        out: &mut CountedSet,
        stats: &mut CircuitStats,
    ) {
        stats.delta_rows_processed += 1;
        let (side, other) = match left {
            true => (&mut self.left, &self.right),
            false => (&mut self.right, &self.left),
        };
        let Some(fp) = side.key_of(t) else {
            return;
        };
        for (m, mc) in other
            .index
            .get(fp, &side.scratch)
            .into_iter()
            .flat_map(CountedSet::iter)
        {
            stats.delta_rows_processed += 1;
            let row = if left { concat(t, m) } else { concat(m, t) };
            out.add(row, c * mc);
        }
        insert_keyed(&mut side.index, fp, &side.scratch, t, c);
    }

    /// The join of both indexes: the output of a join initialized from
    /// empty state.
    fn output(&self) -> CountedSet {
        let rows = self.left.index.iter().filter_map(|(key, lts)| {
            let rts = self.right.index.get_tuple(key)?;
            Some(lts.iter().flat_map(move |(lt, lc)| {
                rts.iter().map(move |(rt, rc)| (concat(lt, rt), lc * rc))
            }))
        });
        rows.flatten().collect()
    }
}

/// Bag difference/intersection are *not* linear (monus/min), so both input
/// multisets are retained and touched tuples re-derived.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SetOpKind {
    Difference,
    Intersect,
}

impl SetOpKind {
    /// Output multiplicity of a tuple given its input multiplicities.
    fn out_count(self, l: i64, r: i64) -> i64 {
        match self {
            SetOpKind::Difference => (l - r).max(0),
            SetOpKind::Intersect => l.min(r).max(0),
        }
    }
}

/// A maintained γ: per group its accumulators, and per batch the groups
/// the batch touched with their output row from before it.
struct AggState {
    group_idx: Vec<usize>,
    specs: Vec<AggSpec>,
    /// Every SUM reads a column declared `Int`, so the partial group tables
    /// of a split initialization add up exactly; otherwise (a float SUM)
    /// the input is read on one worker.
    exact: bool,
    groups: TupleMap<GroupState>,
    scratch: Vec<Value>,
    touched: TupleMap<Option<Tuple>>,
}

impl AggState {
    fn global(&self) -> bool {
        self.group_idx.is_empty()
    }

    /// Starts a batch. From empty state (a rebuild from relation copies) the
    /// global group must exist, and emit its zero-state row, even over an
    /// empty input — COUNT(*) of nothing is 0, not absent. Once it exists it
    /// is never removed.
    fn begin(&mut self) {
        self.touched.clear();
        if self.global() && self.groups.is_empty() {
            let fp = fingerprint_values(&[]);
            self.touched.get_or_insert_with(fp, &[], || None);
            let specs = &self.specs;
            self.groups
                .get_or_insert_with(fp, &[], || GroupState::new(specs));
        }
    }

    /// Folds one input row into its group's accumulators, reading the
    /// grouping and aggregated columns in place.
    fn feed<R: Row + ?Sized>(&mut self, t: &R, c: i64) -> Result<(), CircuitError> {
        let global = self.global();
        let specs = &self.specs;
        t.project_into(&self.group_idx, &mut self.scratch);
        let fp = fingerprint_values(&self.scratch);
        if self.touched.get(fp, &self.scratch).is_none() {
            let old = match self.groups.get(fp, &self.scratch) {
                Some(g) => Some(g.output(&self.scratch)),
                // The global group exists implicitly with zero state.
                None => global.then(|| GroupState::new(specs).output(&self.scratch)),
            };
            self.touched.get_or_insert_with(fp, &self.scratch, || old);
        }
        let g = self
            .groups
            .get_or_insert_with(fp, &self.scratch, || GroupState::new(specs));
        g.n += c;
        if g.n < 0 {
            return Err(CircuitError::InconsistentDelta(NegativeWeight {
                tuple: Tuple::from_slice(&self.scratch),
                weight: g.n,
            }));
        }
        for (acc, spec) in g.accs.iter_mut().zip(specs.iter()) {
            acc.update(spec, t, c);
        }
        Ok(())
    }

    /// The batch's output delta: for each touched group its old row out
    /// and its new row in (nothing when the aggregates did not change);
    /// groups left empty are dropped.
    fn finish(&mut self) -> CountedSet {
        let global = self.global();
        let mut out = CountedSet::new();
        for (key, old) in self.touched.iter() {
            let fp = key.fingerprint();
            let alive = match self.groups.get(fp, key.values()) {
                Some(g) if g.n > 0 || global => {
                    let unchanged = old.as_ref().is_some_and(|o| {
                        let vals = &o.values()[key.arity()..];
                        g.accs
                            .iter()
                            .zip(vals)
                            .all(|(acc, prev)| acc.finish() == *prev)
                    });
                    if !unchanged {
                        let n = g.output(key.values());
                        if let Some(o) = old {
                            out.add(o.clone(), -1);
                        }
                        out.add(n, 1);
                    }
                    true
                }
                _ => {
                    if let Some(o) = old {
                        out.add(o.clone(), -1);
                    }
                    false
                }
            };
            if !alive && !global && self.groups.get(fp, key.values()).is_some() {
                self.groups.remove(fp, key.values());
            }
        }
        out
    }
}

fn merge_dout(state: &mut CountedSet, d: &DOut<'_>) {
    for (t, c) in d.iter() {
        state.add(t.clone(), c);
    }
}

/// Folds a produced delta into the fixpoint's derivation counts, recording
/// newly derived tuples (weight 1) in `out`, `newly`, and `out_delta`.
/// Inflationary: once a tuple enters `out` it stays (matching the
/// executor's iterated-naive accumulation), so non-monotone steps converge
/// to the same answer as the oracle or hit the cap.
fn absorb(
    d: CountedSet,
    derived: &mut CountedSet,
    out: &mut CountedSet,
    newly: &mut CountedSet,
    out_delta: Option<&mut CountedSet>,
) {
    let mut delta = out_delta;
    for (t, w) in d.iter() {
        let new_w = derived.add(t.clone(), w);
        if new_w > 0 && !out.contains(t) {
            out.add(t.clone(), 1);
            newly.add(t.clone(), 1);
            if let Some(od) = delta.as_deref_mut() {
                od.add(t.clone(), 1);
            }
        }
    }
}

/// A term circuit's first sweep from empty state, with the recursive
/// input bound to the given frontier (none for the base).
type FirstSweep<'f> = dyn FnMut(&mut Flow, Option<&CountedSet>, &mut CircuitStats) -> Result<CountedSet, CircuitError>
    + 'f;

impl FixpointNode {
    /// Initialization. A fixpoint that rebuilds on every delta first copies
    /// its source relations. The fixpoint is then evaluated from the stored
    /// relations: the base and the step's first iteration are initialized
    /// by driving their pipelines, on one worker as every input of a
    /// fixpoint is. Initialization is not delta work: the rebuild's later
    /// sweeps leave `delta_rows_processed` as they found it.
    fn init(
        &mut self,
        ctx: Ctx<'_, '_>,
        stats: &mut CircuitStats,
        scanned: &mut ExecStats,
    ) -> Result<(), CircuitError> {
        let db = ctx.db;
        if !self.incremental {
            self.rels = self
                .sources
                .iter()
                .filter_map(|r| {
                    let rows = db.relation(r).ok()?.rows().map(|row| row.to_tuple());
                    Some((Arc::clone(r), rows.collect()))
                })
                .collect();
        }
        let ctx = ctx.sequential();
        let counted = stats.delta_rows_processed;
        let built = self.rebuild(stats, &mut |flow, rec, stats| {
            flow.init(ctx, rec, stats, scanned)
        });
        stats.delta_rows_processed = counted;
        built
    }

    /// One maintenance batch: an incremental fixpoint is maintained in
    /// place and any other is rebuilt from its relation copies and diffed.
    fn step_batch(
        &mut self,
        input: &BatchInput<'_>,
        stats: &mut CircuitStats,
    ) -> Result<CountedSet, CircuitError> {
        let Some(deltas) = input.deltas else {
            return Ok(CountedSet::new());
        };
        if self.incremental {
            return self.maintain(deltas, stats);
        }
        for r in &self.sources {
            if let Some(d) = deltas.for_relation(r) {
                self.rels.entry(Arc::clone(r)).or_default().merge(d);
            }
        }
        stats.fixpoint_recomputes += 1;
        let old = std::mem::take(&mut self.out);
        let rels = std::mem::take(&mut self.rels);
        let rec = Arc::clone(&self.rec);
        let rebuilt = self.rebuild(stats, &mut |flow, frontier, stats| {
            let input = BatchInput {
                deltas: None,
                copies: Some(&rels),
                rec: frontier.map(|z| (&*rec, z)),
            };
            flow.run(&input, stats)
        });
        self.rels = rels;
        rebuilt?;
        Ok(self.out.minus(&old))
    }

    /// Full fixpoint evaluation, resetting both sub-circuits and rebuilding
    /// `derived`/`out`. `first` runs each term's first sweep from empty
    /// state — the base's, and the step's with the recursive input bound
    /// to the first frontier; later iterations feed the step circuit the
    /// frontier alone.
    fn rebuild(
        &mut self,
        stats: &mut CircuitStats,
        first: &mut FirstSweep<'_>,
    ) -> Result<(), CircuitError> {
        self.base.reset();
        self.step.reset();
        self.derived = CountedSet::new();
        self.out = CountedSet::new();
        let d_base = first(&mut self.base, None, stats)?;
        let rec_name: &str = self.rec.as_ref();
        let cap = self.cap;
        let step = &mut self.step;
        let derived = &mut self.derived;
        let out = &mut self.out;
        let mut sweep = |frontier: &CountedSet, is_first: bool, stats: &mut CircuitStats| {
            if is_first {
                return first(step, Some(frontier), stats);
            }
            let input = BatchInput {
                deltas: None,
                copies: None,
                rec: Some((rec_name, frontier)),
            };
            step.run(&input, stats)
        };

        if self.all {
            // Bag semantics (`UNION ALL`): working-table iteration. The
            // step circuit must see exactly the previous working table as
            // the recursive input, so each iteration feeds the *signed
            // difference* between consecutive working tables; the circuit's
            // own incrementality turns that into Δstep exactly.
            derived.merge(&d_base);
            out.merge(&d_base);
            let mut cur_step = CountedSet::new(); // = step(rels, working)
            let mut prev_working = CountedSet::new();
            let mut working = d_base;
            let mut first = true;
            let mut iters: usize = 0;
            while !working.is_empty() {
                iters += 1;
                if iters > cap {
                    return Err(CircuitError::IterationLimit { cap });
                }
                stats.fixpoint_iterations += 1;
                let rec_delta = working.minus(&prev_working);
                cur_step.merge_owned(sweep(&rec_delta, first, stats)?);
                out.merge(&cur_step);
                prev_working = working;
                working = cur_step.clone();
                first = false;
            }
            *derived = out.clone();
        } else {
            // Set semantics (`UNION`): semi-naive over derivation counts.
            // Each iteration feeds only the newly derived frontier.
            let mut frontier = CountedSet::new();
            absorb(d_base, derived, out, &mut frontier, None);
            let mut first = true;
            let mut iters: usize = 0;
            loop {
                iters += 1;
                if iters > cap {
                    return Err(CircuitError::IterationLimit { cap });
                }
                stats.fixpoint_iterations += 1;
                let d_step = sweep(&frontier, first, stats)?;
                let mut next = CountedSet::new();
                absorb(d_step, derived, out, &mut next, None);
                if next.is_empty() {
                    break;
                }
                frontier = next;
                first = false;
            }
        }
        Ok(())
    }

    /// Delete-and-rederive maintenance of an incremental fixpoint, with
    /// `derived` = base(world) + step(world, `out`) holding before and after.
    ///
    /// Retractions go first, on their own: a tuple that loses one derivation
    /// and gains another in the same batch must still be over-deleted, or a
    /// cycle it supports could keep itself alive (netting the two would hide
    /// the loss). Pushing Δ⁻ through base and step folds the lost
    /// derivations into `derived`; every output tuple that lost *any*
    /// derivation leaves `out` and is retracted from the step's recursive
    /// input, which makes further tuples lose derivations, until nothing in
    /// `out` does. What is left of `out` is derivable without the retracted
    /// tuples. Over-deleted tuples whose count stayed positive are
    /// derivable from it and re-enter as the first frontier; Δ⁺ then joins
    /// the ordinary semi-naive loop, which is all an insert-only batch runs.
    /// The emitted delta is `out` after minus `out` before, so a tuple
    /// deleted and rederived never reaches downstream nodes.
    fn maintain(
        &mut self,
        deltas: &DeltaSet,
        stats: &mut CircuitStats,
    ) -> Result<CountedSet, CircuitError> {
        let mut out_delta = CountedSet::new();
        let mut frontier = CountedSet::new();
        let mut overdeleted = Vec::new();
        let retracts = self
            .sources
            .iter()
            .filter_map(|r| deltas.for_relation(r))
            .any(|d| d.iter().any(|(_, c)| c < 0));
        let halves;
        let inserts = if retracts {
            halves = split_by_sign(deltas, &self.sources);
            self.overdelete(&halves.0, &mut overdeleted, stats)?;
            for t in &overdeleted {
                if self.derived.count(t) > 0 {
                    self.out.add(t.clone(), 1);
                    frontier.add(t.clone(), 1);
                    out_delta.add(t.clone(), 1);
                }
            }
            &halves.1
        } else {
            deltas
        };

        let rec_name: &str = self.rec.as_ref();
        let base_inp = BatchInput {
            deltas: Some(inserts),
            copies: None,
            rec: None,
        };
        let d_base = self.base.run(&base_inp, stats)?;
        absorb(
            d_base,
            &mut self.derived,
            &mut self.out,
            &mut frontier,
            Some(&mut out_delta),
        );
        let step_touched = self
            .step_sources
            .iter()
            .any(|r| inserts.for_relation(r).is_some());
        if step_touched || !frontier.is_empty() {
            let mut first = true;
            let mut iters: usize = 0;
            loop {
                iters += 1;
                if iters > self.cap {
                    return Err(CircuitError::IterationLimit { cap: self.cap });
                }
                stats.fixpoint_iterations += 1;
                let inp = BatchInput {
                    deltas: first.then_some(inserts),
                    copies: None,
                    rec: Some((rec_name, &frontier)),
                };
                let d_step = self.step.run(&inp, stats)?;
                let mut next = CountedSet::new();
                absorb(
                    d_step,
                    &mut self.derived,
                    &mut self.out,
                    &mut next,
                    Some(&mut out_delta),
                );
                if next.is_empty() {
                    break;
                }
                frontier = next;
                first = false;
            }
        }

        stats.fixpoint_overdeleted += overdeleted.len() as u64;
        for t in overdeleted {
            stats.fixpoint_rederived += u64::from(self.out.contains(&t));
            out_delta.add(t, -1);
        }
        Ok(out_delta)
    }

    /// The over-deletion half of [`FixpointNode::maintain`]: applies the
    /// retractions `removed` and moves every tuple that loses a derivation
    /// from `out` to `overdeleted`.
    fn overdelete(
        &mut self,
        removed: &DeltaSet,
        overdeleted: &mut Vec<Tuple>,
        stats: &mut CircuitStats,
    ) -> Result<(), CircuitError> {
        let rec_name: &str = self.rec.as_ref();
        let world = BatchInput {
            deltas: Some(removed),
            copies: None,
            rec: None,
        };
        let mut lost = self.base.run(&world, stats)?;
        lost.merge_owned(self.step.run(&world, stats)?);
        let mut iters: usize = 0;
        loop {
            let mut leaving = CountedSet::new();
            for (t, w) in lost.iter() {
                let left = self.derived.add(t.clone(), w);
                if left < 0 {
                    return Err(CircuitError::InconsistentDelta(NegativeWeight {
                        tuple: t.clone(),
                        weight: left,
                    }));
                }
                if self.out.contains(t) {
                    self.out.add(t.clone(), -1);
                    leaving.add(t.clone(), -1);
                    overdeleted.push(t.clone());
                }
            }
            if leaving.is_empty() {
                return Ok(());
            }
            iters += 1;
            if iters > self.cap {
                return Err(CircuitError::IterationLimit { cap: self.cap });
            }
            stats.fixpoint_iterations += 1;
            let inp = BatchInput {
                deltas: None,
                copies: None,
                rec: Some((rec_name, &leaving)),
            };
            lost = self.step.run(&inp, stats)?;
        }
    }
}

/// The retraction and insertion halves of `deltas` over `sources`, both
/// still signed.
fn split_by_sign(deltas: &DeltaSet, sources: &[Arc<str>]) -> (DeltaSet, DeltaSet) {
    let mut removed: BTreeMap<Arc<str>, CountedSet> = BTreeMap::new();
    let mut added: BTreeMap<Arc<str>, CountedSet> = BTreeMap::new();
    for r in sources {
        for (t, c) in deltas
            .for_relation(r)
            .into_iter()
            .flat_map(CountedSet::iter)
        {
            let half = if c < 0 { &mut removed } else { &mut added };
            half.entry(Arc::clone(r)).or_default().add(t.clone(), c);
        }
    }
    (DeltaSet::from_parts(removed), DeltaSet::from_parts(added))
}

impl CNode {
    /// Processes one batch, reading child outputs from `outs` (children are
    /// always earlier in the flow) and returning this node's output delta.
    fn step<'d>(
        &mut self,
        input: &BatchInput<'d>,
        outs: &[DOut<'d>],
        stats: &mut CircuitStats,
    ) -> Result<DOut<'d>, CircuitError> {
        if !input.touches(&self.sources) {
            return Ok(DOut::Empty);
        }
        Ok(match &mut self.kind {
            CKind::Input { relation: name } | CKind::RecInput { name } => {
                match input.relation(name) {
                    Some(d) => {
                        stats.delta_rows_processed += d.distinct_len() as u64;
                        d
                    }
                    None => DOut::Empty,
                }
            }
            CKind::Select { child, pred } => {
                let d = &outs[*child];
                let mut out = CountedSet::new();
                for (t, c) in d.iter() {
                    stats.delta_rows_processed += 1;
                    if pred.matches(t) {
                        out.add(t.clone(), c);
                    }
                }
                DOut::Owned(out)
            }
            CKind::Project { child, indices } => {
                let d = &outs[*child];
                let mut out = CountedSet::with_capacity(d.distinct_len());
                for (t, c) in d.iter() {
                    stats.delta_rows_processed += 1;
                    out.add(t.project(indices), c);
                }
                DOut::Owned(out)
            }
            CKind::Product {
                left,
                right,
                left_state,
                right_state,
            } => {
                let (dl, dr) = (&outs[*left], &outs[*right]);
                let mut out = CountedSet::new();
                // ΔL × R_old
                for (lt, lc) in dl.iter() {
                    for (rt, rc) in right_state.iter() {
                        stats.delta_rows_processed += 1;
                        out.add(lt.concat(rt), lc * rc);
                    }
                }
                merge_dout(left_state, dl); // left is now L_new
                                            // L_new × ΔR — supplies both L_old × ΔR and ΔL × ΔR.
                for (rt, rc) in dr.iter() {
                    for (lt, lc) in left_state.iter() {
                        stats.delta_rows_processed += 1;
                        out.add(lt.concat(rt), lc * rc);
                    }
                }
                merge_dout(right_state, dr);
                DOut::Owned(out)
            }
            CKind::Join { left, right, join } => {
                let mut out = CountedSet::new();
                // ΔL ⋈ R_old, folding ΔL into the left index as we go, then
                // L_new ⋈ ΔR.
                for (lt, lc) in outs[*left].iter() {
                    join.delta_row(true, lt, lc, &mut out, stats);
                }
                for (rt, rc) in outs[*right].iter() {
                    join.delta_row(false, rt, rc, &mut out, stats);
                }
                DOut::Owned(out)
            }
            CKind::Aggregate { child, agg } => {
                agg.begin();
                for (t, c) in outs[*child].iter() {
                    stats.delta_rows_processed += 1;
                    agg.feed(t, c)?;
                }
                DOut::Owned(agg.finish())
            }
            CKind::Distinct { child, state } => {
                let mut out = CountedSet::new();
                for (t, c) in outs[*child].iter() {
                    stats.delta_rows_processed += 1;
                    let old = state.count(t);
                    let new = state.add(t.clone(), c);
                    if new < 0 {
                        return Err(CircuitError::InconsistentDelta(NegativeWeight {
                            tuple: t.clone(),
                            weight: new,
                        }));
                    }
                    if old <= 0 && new > 0 {
                        out.add(t.clone(), 1);
                    } else if old > 0 && new <= 0 {
                        out.add(t.clone(), -1);
                    }
                }
                DOut::Owned(out)
            }
            CKind::Union { left, right } => {
                let dl = &outs[*left];
                let dr = &outs[*right];
                stats.delta_rows_processed += dr.distinct_len() as u64;
                let mut out = CountedSet::with_capacity(dl.distinct_len() + dr.distinct_len());
                merge_dout(&mut out, dl);
                merge_dout(&mut out, dr);
                DOut::Owned(out)
            }
            CKind::SetOp {
                left,
                right,
                kind,
                left_state,
                right_state,
            } => {
                let (dl, dr) = (&outs[*left], &outs[*right]);
                let mut out = CountedSet::new();
                // Re-derive the output count of every touched tuple.
                for t in dl.iter().map(|(t, _)| t).chain(dr.iter().map(|(t, _)| t)) {
                    stats.delta_rows_processed += 1;
                    if out.count(t) != 0 {
                        continue; // handled from the other delta already
                    }
                    let old = kind.out_count(left_state.count(t), right_state.count(t));
                    let new = kind.out_count(
                        left_state.count(t) + dl.count(t),
                        right_state.count(t) + dr.count(t),
                    );
                    out.add(t.clone(), new - old);
                }
                merge_dout(left_state, dl);
                merge_dout(right_state, dr);
                DOut::Owned(out)
            }
            CKind::Fixpoint(fx) => DOut::Owned(fx.step_batch(input, stats)?),
        })
    }

    /// Initializes this node's state from its inputs' outputs, the nodes
    /// below it (`before`, with their outputs `outs`) already initialized,
    /// and returns its own output — its first delta, from empty state — or
    /// `None` for a stateless node, whose rows stream through. Each input
    /// is driven into the state that keeps it: a join side's index, γ's
    /// group table, the kept inputs of ×, δ, ∖ and ∩; a fixpoint evaluates
    /// itself.
    fn init(
        &mut self,
        before: &[CNode],
        outs: &[Option<CountedSet>],
        ctx: Ctx<'_, '_>,
        rec: Option<&CountedSet>,
        stats: &mut CircuitStats,
        scanned: &mut ExecStats,
    ) -> Result<Option<CountedSet>, CircuitError> {
        let input = |idx: usize, scanned: &mut ExecStats| {
            drive_output(before, outs, idx, ctx, rec, scanned, &CountedSet::new)
        };
        Ok(Some(match &mut self.kind {
            CKind::Product {
                left,
                right,
                left_state,
                right_state,
            } => {
                *left_state = input(*left, scanned)?;
                *right_state = input(*right, scanned)?;
                let right_state = &*right_state;
                let rows = left_state.iter().flat_map(|(l, lc)| {
                    right_state
                        .iter()
                        .map(move |(r, rc)| (l.concat(r), lc * rc))
                });
                rows.collect()
            }
            CKind::Join { left, right, join } => {
                let (lk, rk) = (join.left.keys.clone(), join.right.keys.clone());
                let fresh_left = || JoinSide::new(lk.clone());
                join.left = drive_output(before, outs, *left, ctx, rec, scanned, &fresh_left)?;
                let fresh_right = || JoinSide::new(rk.clone());
                join.right = drive_output(before, outs, *right, ctx, rec, scanned, &fresh_right)?;
                join.output()
            }
            CKind::Aggregate { child, agg } => {
                let ctx = if agg.exact { ctx } else { ctx.sequential() };
                let fresh = || Groups::new(&agg.group_idx, &agg.specs);
                let groups = drive_output(before, outs, *child, ctx, rec, scanned, &fresh)?;
                // Every group holds a row, or is the global group.
                let mut out = CountedSet::new();
                for (key, group) in groups.into_entries() {
                    out.add(group.output(key.values()), 1);
                    agg.groups.get_or_insert_tuple(key, || group);
                }
                out
            }
            CKind::Distinct { child, state } => {
                *state = input(*child, scanned)?;
                state.distinct()
            }
            CKind::SetOp {
                left,
                right,
                kind,
                left_state,
                right_state,
            } => {
                *left_state = input(*left, scanned)?;
                *right_state = input(*right, scanned)?;
                // A tuple the left input lacks is output by neither ∖ nor ∩.
                let counts = left_state
                    .iter()
                    .map(|(t, l)| (t.clone(), kind.out_count(l, right_state.count(t))));
                counts.collect()
            }
            CKind::Fixpoint(fx) => {
                fx.init(ctx, stats, scanned)?;
                fx.out.clone()
            }
            CKind::Input { .. }
            | CKind::RecInput { .. }
            | CKind::Select { .. }
            | CKind::Project { .. }
            | CKind::Union { .. } => return Ok(None),
        }))
    }
}

/// Node `idx`'s output at initialization, as pipelines whose union it is.
/// A stored relation is scanned — a σ right above it runs as a chunk mask,
/// or as an index probe where an index answers it — σ and π wrap each
/// pipeline of their input, and a ∪ takes both inputs' pipelines. A node
/// that keeps state pushes the output its initialization returned (in
/// `outs`), and the recursive input pushes `rec`.
fn pipes<'a, 'db>(
    nodes: &[CNode],
    outs: &'a [Option<CountedSet>],
    idx: usize,
    db: &'db Database,
    rec: Option<&'a CountedSet>,
) -> Result<Vec<Pipe<'a, 'db>>, CircuitError> {
    let inner = |child: usize| pipes(nodes, outs, child, db, rec);
    let held = |rows: Option<&'a CountedSet>| -> Pipe<'a, 'db> {
        Pipe::Held(Box::new(move |stats, sink| {
            for (t, w) in rows.into_iter().flat_map(CountedSet::iter) {
                sink(stats, &RowView::Tuple(t), w);
            }
        }))
    };
    Ok(match &nodes[idx].kind {
        CKind::Input { relation } => vec![Pipe::scan(relation_of(db, relation)?, None)],
        CKind::Select { child, pred } => match &nodes[*child].kind {
            CKind::Input { relation } => {
                vec![Pipe::scan(relation_of(db, relation)?, Some(pred.clone()))]
            }
            _ => inner(*child)?
                .into_iter()
                .map(|p| Pipe::Select(Box::new(p), pred.clone()))
                .collect(),
        },
        CKind::Project { child, indices } => inner(*child)?
            .into_iter()
            .map(|p| Pipe::Project(Box::new(p), indices.clone()))
            .collect(),
        CKind::Union { left, right } => {
            let mut both = inner(*left)?;
            both.extend(inner(*right)?);
            both
        }
        CKind::RecInput { .. } => vec![held(rec)],
        _ => vec![held(outs[idx].as_ref())],
    })
}

/// Drives node `idx`'s output ([`pipes`]) into one state made by `fresh`.
fn drive_output<'db, P: Partial<'db>>(
    nodes: &[CNode],
    outs: &[Option<CountedSet>],
    idx: usize,
    ctx: Ctx<'_, 'db>,
    rec: Option<&CountedSet>,
    scanned: &mut ExecStats,
    fresh: &(impl Fn() -> P + Sync),
) -> Result<P, CircuitError> {
    let mut pipes = pipes(nodes, outs, idx, ctx.db, rec)?.into_iter();
    let mut state = match pipes.next() {
        Some(pipe) => pipe.drive(ctx, scanned, fresh)?,
        None => fresh(),
    };
    for pipe in pipes {
        state.merge(pipe.drive(ctx, scanned, fresh)?);
    }
    Ok(state)
}

impl Flow {
    fn compile(plan: &Plan, db: &Database, rec: Option<&Arc<str>>) -> Result<Flow, CircuitError> {
        let mut nodes = Vec::new();
        compile_into(plan, db, rec, &mut nodes)?;
        Ok(Flow { nodes })
    }

    /// Compiles `plan` and initializes it from `db` with the executor's
    /// pipelines, split as `split` allows: in flow order, each node that
    /// keeps state is driven its inputs' rows — stored relations read a
    /// chunk at a time under σ masks (or through an index probe) and
    /// streamed through σ and π, or the output of a node below that keeps
    /// state — and the answer is the root's output, driven the same way. A
    /// scan of two morsels or more splits across the cores, each worker
    /// filling a partial state, and the partials merge; a γ with a float
    /// SUM and a fixpoint's terms read their inputs on one worker.
    /// Afterwards every delta takes the circuit's own Δ path
    /// ([`Flow::apply`]). Returns the flow and its answer.
    pub(crate) fn build(
        plan: &Plan,
        db: &Database,
        split: Split,
        stats: &mut CircuitStats,
    ) -> Result<(Flow, CountedSet), CircuitError> {
        let mut flow = Flow::compile(plan, db, None)?;
        let mut scanned = ExecStats::default();
        let answer = flow.init(Ctx::new(db, split), None, stats, &mut scanned)?;
        stats.init_tuples_scanned = scanned.tuples_scanned;
        Ok((flow, answer))
    }

    /// Applies a world delta and returns the answer's own signed delta.
    /// Cost is Θ(|Δ|) plus join fan-out (and, for recursive plans, the
    /// affected paths — or a rebuild where the fixpoint is not maintained
    /// incrementally). On error the flow's state may be partially updated
    /// and should be rebuilt.
    pub(crate) fn apply(
        &mut self,
        deltas: &DeltaSet,
        stats: &mut CircuitStats,
    ) -> Result<CountedSet, CircuitError> {
        let input = BatchInput {
            deltas: Some(deltas),
            copies: None,
            rec: None,
        };
        self.run(&input, stats)
    }

    /// Initializes every node, in flow order, from the stored relations —
    /// and, in a fixpoint's step, the recursive input `rec` — and returns
    /// the root's output: the circuit's answer, or what a fixpoint's term
    /// derives. A root that keeps state returns what its initialization
    /// built; any other root's pipelines are driven into one counted set.
    fn init(
        &mut self,
        ctx: Ctx<'_, '_>,
        rec: Option<&CountedSet>,
        stats: &mut CircuitStats,
        scanned: &mut ExecStats,
    ) -> Result<CountedSet, CircuitError> {
        let mut outs = Vec::with_capacity(self.nodes.len());
        for i in 0..self.nodes.len() {
            let (before, rest) = self.nodes.split_at_mut(i);
            let out = rest[0].init(before, &outs, ctx, rec, stats, scanned)?;
            outs.push(out);
        }
        match outs.pop().flatten() {
            Some(out) => Ok(out),
            None => drive_output(
                &self.nodes,
                &outs,
                outs.len(),
                ctx,
                rec,
                scanned,
                &CountedSet::new,
            ),
        }
    }

    /// One bottom-up sweep: every node consumes its children's deltas (by
    /// index into `outs`) and appends its own. The root's delta is the
    /// circuit's output delta for this batch.
    fn run(
        &mut self,
        input: &BatchInput<'_>,
        stats: &mut CircuitStats,
    ) -> Result<CountedSet, CircuitError> {
        let mut outs: Vec<DOut<'_>> = Vec::with_capacity(self.nodes.len());
        for node in &mut self.nodes {
            let out = node.step(input, &outs, stats)?;
            outs.push(out);
        }
        Ok(outs.pop().map(DOut::into_owned).unwrap_or_default())
    }

    /// Clears all operator state, returning the flow to its pre-init form.
    fn reset(&mut self) {
        for node in &mut self.nodes {
            match &mut node.kind {
                CKind::Product {
                    left_state,
                    right_state,
                    ..
                } => {
                    *left_state = CountedSet::new();
                    *right_state = CountedSet::new();
                }
                CKind::Join { join, .. } => {
                    join.left.index.clear();
                    join.right.index.clear();
                }
                CKind::Aggregate { agg, .. } => {
                    agg.groups.clear();
                    agg.touched.clear();
                }
                CKind::Distinct { state, .. } => *state = CountedSet::new(),
                CKind::SetOp {
                    left_state,
                    right_state,
                    ..
                } => {
                    *left_state = CountedSet::new();
                    *right_state = CountedSet::new();
                }
                CKind::Fixpoint(fx) => {
                    fx.base.reset();
                    fx.step.reset();
                    fx.rels.clear();
                    fx.derived = CountedSet::new();
                    fx.out = CountedSet::new();
                }
                CKind::Input { .. }
                | CKind::RecInput { .. }
                | CKind::Select { .. }
                | CKind::Project { .. }
                | CKind::Union { .. } => {}
            }
        }
    }
}

fn union_sources(a: &[Arc<str>], b: &[Arc<str>]) -> Vec<Arc<str>> {
    let mut out: Vec<Arc<str>> = a.iter().chain(b.iter()).map(Arc::clone).collect();
    out.sort();
    out.dedup();
    out
}

/// Number of references to the recursive relation `name` within `plan`
/// (not descending into inner fixpoints that rebind the same name).
fn count_rec(plan: &Plan, name: &str) -> usize {
    match plan {
        Plan::Scan { .. } => 0,
        Plan::Select { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Distinct { input } => count_rec(input, name),
        Plan::Product { left, right }
        | Plan::Join { left, right, .. }
        | Plan::Union { left, right }
        | Plan::Difference { left, right }
        | Plan::Intersect { left, right } => count_rec(left, name) + count_rec(right, name),
        Plan::Fixpoint {
            base, step, rec, ..
        } => {
            if rec.as_ref() == name {
                count_rec(base, name)
            } else {
                count_rec(base, name) + count_rec(step, name)
            }
        }
        Plan::Rec { name: n, .. } => usize::from(n.as_ref() == name),
    }
}

/// True when the plan is monotone in its inputs: inserting tuples can only
/// insert (never retract) output tuples. Aggregates and bag difference are
/// the non-monotone operators.
fn is_monotone(plan: &Plan) -> bool {
    match plan {
        Plan::Aggregate { .. } | Plan::Difference { .. } => false,
        Plan::Scan { .. } | Plan::Rec { .. } => true,
        Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Distinct { input } => {
            is_monotone(input)
        }
        Plan::Product { left, right }
        | Plan::Join { left, right, .. }
        | Plan::Union { left, right }
        | Plan::Intersect { left, right } => is_monotone(left) && is_monotone(right),
        Plan::Fixpoint { base, step, .. } => is_monotone(base) && is_monotone(step),
    }
}

/// True when every operator between a reference to the recursive relation
/// `name` and the root of `plan` is linear (σ π × ⋈ ∪): each derivation
/// lost below shows as a negative weight at the root. δ and ∩ above such a
/// reference swallow a lost derivation while another remains, which is
/// exactly what over-deletion must see.
fn is_linear_in(plan: &Plan, name: &str) -> bool {
    match plan {
        Plan::Scan { .. } | Plan::Rec { .. } => true,
        Plan::Select { input, .. } | Plan::Project { input, .. } => is_linear_in(input, name),
        Plan::Product { left, right }
        | Plan::Join { left, right, .. }
        | Plan::Union { left, right } => is_linear_in(left, name) && is_linear_in(right, name),
        Plan::Aggregate { .. }
        | Plan::Distinct { .. }
        | Plan::Difference { .. }
        | Plan::Intersect { .. }
        | Plan::Fixpoint { .. } => count_rec(plan, name) == 0,
    }
}

fn compile_into(
    plan: &Plan,
    db: &Database,
    rec: Option<&Arc<str>>,
    nodes: &mut Vec<CNode>,
) -> Result<usize, CircuitError> {
    let (kind, sources) = match plan {
        Plan::Scan { relation, .. } => {
            db.relation(relation)
                .map_err(|_| PlanError::UnknownRelation(relation.to_string()))?;
            (
                CKind::Input {
                    relation: Arc::clone(relation),
                },
                vec![Arc::clone(relation)],
            )
        }
        Plan::Select { input, predicate } => {
            let pred = bind(predicate, &input.output_columns(db)?)?;
            let child = compile_into(input, db, rec, nodes)?;
            let src = nodes[child].sources.clone();
            (CKind::Select { child, pred }, src)
        }
        Plan::Project { input, columns } => {
            let indices = resolve_all(columns, &input.output_columns(db)?)?;
            let child = compile_into(input, db, rec, nodes)?;
            let src = nodes[child].sources.clone();
            (CKind::Project { child, indices }, src)
        }
        Plan::Product { left, right } => {
            let l = compile_into(left, db, rec, nodes)?;
            let r = compile_into(right, db, rec, nodes)?;
            let src = union_sources(&nodes[l].sources, &nodes[r].sources);
            (
                CKind::Product {
                    left: l,
                    right: r,
                    left_state: CountedSet::new(),
                    right_state: CountedSet::new(),
                },
                src,
            )
        }
        Plan::Join { left, right, on } => {
            let l_cols = left.output_columns(db)?;
            let r_cols = right.output_columns(db)?;
            let (lk, rk) = join_key_indices(on, &l_cols, &r_cols)?;
            let l = compile_into(left, db, rec, nodes)?;
            let r = compile_into(right, db, rec, nodes)?;
            let src = union_sources(&nodes[l].sources, &nodes[r].sources);
            (
                CKind::Join {
                    left: l,
                    right: r,
                    join: JoinState {
                        left: JoinSide::new(lk),
                        right: JoinSide::new(rk),
                    },
                },
                src,
            )
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let cols = input.output_columns(db)?;
            let group_idx = resolve_all(group_by, &cols)?;
            let specs = bind_aggs(aggs, &cols)?;
            let exact = sums_add_exactly(&specs, input, db);
            let child = compile_into(input, db, rec, nodes)?;
            let src = nodes[child].sources.clone();
            (
                CKind::Aggregate {
                    child,
                    agg: AggState {
                        group_idx,
                        specs,
                        exact,
                        groups: TupleMap::new(),
                        scratch: Vec::new(),
                        touched: TupleMap::new(),
                    },
                },
                src,
            )
        }
        Plan::Distinct { input } => {
            let child = compile_into(input, db, rec, nodes)?;
            let src = nodes[child].sources.clone();
            (
                CKind::Distinct {
                    child,
                    state: CountedSet::new(),
                },
                src,
            )
        }
        Plan::Union { left, right } => {
            plan.output_columns(db)?;
            let l = compile_into(left, db, rec, nodes)?;
            let r = compile_into(right, db, rec, nodes)?;
            let src = union_sources(&nodes[l].sources, &nodes[r].sources);
            (CKind::Union { left: l, right: r }, src)
        }
        Plan::Difference { left, right } | Plan::Intersect { left, right } => {
            plan.output_columns(db)?;
            let kind = if matches!(plan, Plan::Difference { .. }) {
                SetOpKind::Difference
            } else {
                SetOpKind::Intersect
            };
            let l = compile_into(left, db, rec, nodes)?;
            let r = compile_into(right, db, rec, nodes)?;
            let src = union_sources(&nodes[l].sources, &nodes[r].sources);
            (
                CKind::SetOp {
                    left: l,
                    right: r,
                    kind,
                    left_state: CountedSet::new(),
                    right_state: CountedSet::new(),
                },
                src,
            )
        }
        Plan::Fixpoint {
            base,
            step,
            rec: name,
            all,
            cap,
            ..
        } => {
            if rec.is_some() {
                return Err(CircuitError::NestedRecursion {
                    name: name.to_string(),
                });
            }
            plan.output_columns(db)?; // arity agreement across terms
            if db.relation(name).is_ok() {
                return Err(CircuitError::ShadowedRelation {
                    name: name.to_string(),
                });
            }
            if count_rec(step, name) > 1 {
                return Err(CircuitError::NonLinearRecursion {
                    name: name.to_string(),
                });
            }
            let base_flow = Flow::compile(base, db, None)?;
            let step_flow = Flow::compile(step, db, Some(name))?;
            let incremental =
                !*all && is_monotone(base) && is_monotone(step) && is_linear_in(step, name);
            let sources = union_sources(&base.base_relations(), &step.base_relations());
            let step_sources = step.base_relations();
            (
                CKind::Fixpoint(Box::new(FixpointNode {
                    rec: Arc::clone(name),
                    all: *all,
                    cap: *cap,
                    incremental,
                    sources: sources.clone(),
                    step_sources,
                    base: base_flow,
                    step: step_flow,
                    rels: BTreeMap::new(),
                    derived: CountedSet::new(),
                    out: CountedSet::new(),
                })),
                sources,
            )
        }
        Plan::Rec { name, .. } => match rec {
            Some(r) if r.as_ref() == name.as_ref() => (
                CKind::RecInput {
                    name: Arc::clone(name),
                },
                vec![Arc::clone(name)],
            ),
            _ => {
                return Err(CircuitError::UnboundRecursion {
                    name: name.to_string(),
                })
            }
        },
    };
    nodes.push(CNode { kind, sources });
    Ok(nodes.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{paper_queries, AggExpr, AggFunc, DEFAULT_FIXPOINT_CAP};
    use crate::exec::execute;
    use crate::exec::tests::{mixed_token_db, split, Rng, LABELS};
    use crate::expr::Expr;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType;
    use crate::view::MaterializedView;

    fn link_db(edges: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        let schema =
            Schema::from_pairs(&[("src", ValueType::Int), ("dst", ValueType::Int)]).unwrap();
        db.create_relation("LINK", schema).unwrap();
        for &(s, d) in edges {
            db.relation_mut("LINK")
                .unwrap()
                .insert(tuple![s, d])
                .unwrap();
        }
        db
    }

    fn closure_plan() -> Plan {
        let step = Plan::rec("REACH", &["a", "b"])
            .join_on(Plan::scan("LINK"), &[("b", "src")])
            .project(&["a", "dst"]);
        Plan::scan("LINK").fixpoint(step, "REACH", &["a", "b"])
    }

    fn insert(rel: &Arc<str>, s: i64, d: i64) -> DeltaSet {
        let mut ds = DeltaSet::new();
        ds.record_insert(rel, tuple![s, d]);
        ds
    }

    fn remove(rel: &Arc<str>, s: i64, d: i64) -> DeltaSet {
        let mut ds = DeltaSet::new();
        ds.record_delete(rel, tuple![s, d]);
        ds
    }

    fn delete_row(db: &mut Database, s: i64, d: i64) {
        let rel = db.relation_mut("LINK").unwrap();
        let rid = rel
            .iter()
            .find(|(_, t)| *t == tuple![s, d])
            .map(|(rid, _)| rid)
            .unwrap();
        rel.delete(rid).unwrap();
    }

    #[test]
    fn closure_matches_executor() {
        let db = link_db(&[(1, 2), (2, 3), (3, 4)]);
        let plan = closure_plan();
        let view = MaterializedView::new(&plan, &db).unwrap();
        let (oracle, _) = execute(&plan, &db).unwrap();
        assert_eq!(view.result().sorted_entries(), oracle.rows.sorted_entries());
        assert_eq!(view.result().total(), 6);
    }

    #[test]
    fn closure_incremental_insert_matches_recompute() {
        let mut db = link_db(&[(1, 2), (2, 3)]);
        let plan = closure_plan();
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        let rel: Arc<str> = Arc::from("LINK");
        let recomputes = view.stats().fixpoint_recomputes;
        view.try_apply_delta(&insert(&rel, 3, 4)).unwrap();
        // Insert-only deltas on a monotone closure never force a rebuild.
        assert_eq!(view.stats().fixpoint_recomputes, recomputes);
        db.relation_mut("LINK")
            .unwrap()
            .insert(tuple![3, 4])
            .unwrap();
        let (oracle, _) = execute(&plan, &db).unwrap();
        assert_eq!(view.result().sorted_entries(), oracle.rows.sorted_entries());
    }

    #[test]
    fn closure_incremental_retract_matches_recompute() {
        let mut db = link_db(&[(1, 2), (2, 3), (3, 4), (1, 4)]);
        let plan = closure_plan();
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        let rel: Arc<str> = Arc::from("LINK");
        view.try_apply_delta(&remove(&rel, 2, 3)).unwrap();
        assert_eq!(view.stats().fixpoint_recomputes, 0);
        delete_row(&mut db, 2, 3);
        let (oracle, _) = execute(&plan, &db).unwrap();
        assert_eq!(view.result().sorted_entries(), oracle.rows.sorted_entries());
    }

    fn assert_matches_executor(view: &MaterializedView, plan: &Plan, db: &Database) {
        let (oracle, _) = execute(plan, db).unwrap();
        assert_eq!(view.result().sorted_entries(), oracle.rows.sorted_entries());
    }

    #[test]
    fn retracting_the_bridge_to_a_cycle_removes_what_it_reached() {
        // The counter-example to deletion by derivation counts alone: 0
        // reaches the cycle 1⇄2 through one bridge, and (0,1) is derived
        // both from the bridge and, around the cycle, from itself.
        let mut db = link_db(&[(0, 1), (1, 2), (2, 1)]);
        let plan = closure_plan();
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        assert_eq!(view.result().total(), 6);
        let rel: Arc<str> = Arc::from("LINK");
        let out = view.try_apply_delta(&remove(&rel, 0, 1)).unwrap();
        assert_eq!(
            out.sorted_entries(),
            vec![(tuple![0i64, 1i64], -1), (tuple![0i64, 2i64], -1)]
        );
        delete_row(&mut db, 0, 1);
        assert_matches_executor(&view, &plan, &db);
        let stats = view.stats();
        assert_eq!(
            (
                stats.fixpoint_recomputes,
                stats.fixpoint_overdeleted,
                stats.fixpoint_rederived
            ),
            (0, 2, 0)
        );
    }

    #[test]
    fn a_derivation_gained_in_the_same_batch_does_not_hide_one_lost() {
        // Retracting the bridge while inserting the loop 1→1 gives (0,1) a
        // new derivation from itself for the one it loses; netted, it would
        // never be over-deleted and 0 would keep reaching the cycle.
        let mut db = link_db(&[(0, 1), (1, 2), (2, 1)]);
        let plan = closure_plan();
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        let rel: Arc<str> = Arc::from("LINK");
        let mut batch = remove(&rel, 0, 1);
        batch.record_insert(&rel, tuple![1i64, 1i64]);
        view.try_apply_delta(&batch).unwrap();
        delete_row(&mut db, 0, 1);
        db.relation_mut("LINK")
            .unwrap()
            .insert(tuple![1i64, 1i64])
            .unwrap();
        assert_matches_executor(&view, &plan, &db);
        assert_eq!(view.result().total(), 4);
        assert_eq!(view.stats().fixpoint_recomputes, 0);
    }

    #[test]
    fn a_retracted_edge_with_an_alternative_path_is_rederived() {
        // Diamond 1→{2,3}→4→5: without 2→4, node 1 still reaches 4 and 5
        // through 3, node 2 no longer does.
        let mut db = link_db(&[(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]);
        let plan = closure_plan();
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        let rel: Arc<str> = Arc::from("LINK");
        let out = view.try_apply_delta(&remove(&rel, 2, 4)).unwrap();
        // (1,4) and (1,5) were over-deleted and came back: downstream never
        // hears of them.
        assert_eq!(
            out.sorted_entries(),
            vec![(tuple![2i64, 4i64], -1), (tuple![2i64, 5i64], -1)]
        );
        delete_row(&mut db, 2, 4);
        assert_matches_executor(&view, &plan, &db);
        let stats = view.stats();
        assert_eq!(
            (
                stats.fixpoint_recomputes,
                stats.fixpoint_overdeleted,
                stats.fixpoint_rederived
            ),
            (0, 4, 2)
        );
    }

    /// `chains` disjoint paths of `links` edges, every link `on`, under the
    /// e2e `closure_links` view; returns the work one mid-chain flip costs.
    fn mid_chain_flip_work(chains: i64, links: i64) -> CircuitStats {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[
            ("id", ValueType::Int),
            ("src", ValueType::Int),
            ("dst", ValueType::Int),
            ("state", ValueType::Str),
        ])
        .unwrap();
        db.create_relation("LINK", schema).unwrap();
        let row = |c: i64, i: i64, state: &str| {
            let node = c * (links + 1) + i;
            tuple![c * links + i, node, node + 1, state]
        };
        for c in 0..chains {
            for i in 0..links {
                db.relation_mut("LINK")
                    .unwrap()
                    .insert(row(c, i, "on"))
                    .unwrap();
            }
        }
        let naive = crate::parser::parse_plan(
            "WITH RECURSIVE R(a, b) AS (\
             SELECT src, dst FROM LINK WHERE state = 'on' \
             UNION SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src WHERE l.state = 'on') \
             SELECT * FROM R",
        )
        .unwrap();
        let plan = crate::planner::optimize(&naive, &db).unwrap();
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        let rel: Arc<str> = Arc::from("LINK");
        let mut flip = DeltaSet::new();
        flip.record_update(&rel, row(0, links / 2, "on"), row(0, links / 2, "off"));
        let out = view.try_apply_delta(&flip).unwrap();
        // Every pair with the link between its ends leaves, nothing else.
        let severed = (links / 2 + 1) * (links - links / 2);
        assert_eq!(out.total(), -severed);
        assert_eq!(view.stats().fixpoint_overdeleted, severed as u64);
        assert_eq!(
            view.result().total(),
            chains * links * (links + 1) / 2 - severed
        );
        view.stats()
    }

    #[test]
    fn one_flip_costs_the_same_in_a_closure_ten_times_the_size() {
        let small = mid_chain_flip_work(12, 16);
        let large = mid_chain_flip_work(120, 16);
        assert_eq!(small.fixpoint_recomputes, 0);
        assert_eq!(small.delta_rows_processed, large.delta_rows_processed);
        assert_eq!(small.fixpoint_iterations, large.fixpoint_iterations);
        assert_eq!(small.fixpoint_overdeleted, 72);
        assert_eq!(
            CircuitStats {
                init_tuples_scanned: 0,
                ..small
            },
            CircuitStats {
                init_tuples_scanned: 0,
                ..large
            }
        );
    }

    #[test]
    fn closure_on_cycle_terminates() {
        // Set semantics converge on cyclic graphs.
        let db = link_db(&[(1, 2), (2, 3), (3, 1)]);
        let plan = closure_plan();
        let view = MaterializedView::new(&plan, &db).unwrap();
        assert_eq!(view.result().total(), 9); // complete digraph on the cycle
        let (oracle, _) = execute(&plan, &db).unwrap();
        assert_eq!(view.result().sorted_entries(), oracle.rows.sorted_entries());
    }

    #[test]
    fn bag_closure_on_cycle_hits_cap() {
        let db = link_db(&[(1, 2), (2, 1)]);
        let step = Plan::rec("REACH", &["a", "b"])
            .join_on(Plan::scan("LINK"), &[("b", "src")])
            .project(&["a", "dst"]);
        let mut plan = Plan::scan("LINK").fixpoint(step, "REACH", &["a", "b"]);
        if let Plan::Fixpoint { all, .. } = &mut plan {
            *all = true;
        }
        let plan = plan.with_fixpoint_cap(50);
        let err = MaterializedView::new(&plan, &db).err().unwrap();
        assert_eq!(err, CircuitError::IterationLimit { cap: 50 });
        // The executor oracle agrees that this diverges.
        assert!(matches!(
            execute(&plan, &db),
            Err(ExecError::FixpointLimit { cap: 50 })
        ));
    }

    #[test]
    fn non_linear_recursion_is_rejected() {
        let db = link_db(&[(1, 2)]);
        // REACH ⋈ REACH: two references to the recursive relation.
        let step = Plan::rec("REACH", &["a", "b"])
            .join_on(Plan::rec("REACH", &["c", "d"]), &[("b", "c")])
            .project(&["a", "d"]);
        let plan = Plan::scan("LINK").fixpoint(step, "REACH", &["a", "b"]);
        let err = MaterializedView::new(&plan, &db).err().unwrap();
        assert!(
            matches!(err, CircuitError::NonLinearRecursion { .. }),
            "{err}"
        );
    }

    #[test]
    fn shadowing_a_relation_is_rejected() {
        let db = link_db(&[(1, 2)]);
        let step = Plan::rec("LINK", &["src", "dst"]);
        let plan = Plan::scan("LINK").fixpoint(step, "LINK", &["src", "dst"]);
        let err = MaterializedView::new(&plan, &db).err().unwrap();
        assert!(
            matches!(err, CircuitError::ShadowedRelation { .. }),
            "{err}"
        );
    }

    #[test]
    fn unbound_rec_is_rejected() {
        let db = link_db(&[(1, 2)]);
        let plan = Plan::rec("GHOST", &["a", "b"]);
        let err = MaterializedView::new(&plan, &db).err().unwrap();
        assert!(
            matches!(err, CircuitError::UnboundRecursion { .. }),
            "{err}"
        );
    }

    #[test]
    fn nested_recursion_is_rejected() {
        let db = link_db(&[(1, 2)]);
        let inner =
            Plan::scan("LINK").fixpoint(Plan::rec("IN", &["src", "dst"]), "IN", &["src", "dst"]);
        let plan = Plan::scan("LINK").fixpoint(inner, "OUT", &["src", "dst"]);
        let err = MaterializedView::new(&plan, &db).err().unwrap();
        assert!(matches!(err, CircuitError::NestedRecursion { .. }), "{err}");
    }

    #[test]
    fn inconsistent_retraction_surfaces_typed_error() {
        let db = link_db(&[(1, 2)]);
        let plan = Plan::scan("LINK").distinct();
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        let rel: Arc<str> = Arc::from("LINK");
        let err = view.try_apply_delta(&remove(&rel, 9, 9)).unwrap_err();
        assert!(matches!(err, CircuitError::InconsistentDelta(_)), "{err}");
    }

    #[test]
    fn non_monotone_step_matches_executor() {
        // Recursive term with a difference: forces recompute-and-diff on
        // every delta, and the inflationary result must still match the
        // executor's iterated-naive accumulation.
        let db = link_db(&[(1, 2), (2, 3)]);
        let step = Plan::rec("R", &["a", "b"])
            .join_on(Plan::scan("LINK"), &[("b", "src")])
            .project(&["a", "dst"])
            .difference(Plan::scan("LINK"));
        let plan = Plan::scan("LINK").fixpoint(step, "R", &["a", "b"]);
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        let (oracle, _) = execute(&plan, &db).unwrap();
        assert_eq!(view.result().sorted_entries(), oracle.rows.sorted_entries());

        let rel: Arc<str> = Arc::from("LINK");
        view.try_apply_delta(&insert(&rel, 3, 4)).unwrap();
        assert!(view.stats().fixpoint_recomputes >= 1);
        let mut db2 = link_db(&[(1, 2), (2, 3), (3, 4)]);
        let (oracle2, _) = execute(&plan, &db2).unwrap();
        assert_eq!(
            view.result().sorted_entries(),
            oracle2.rows.sorted_entries()
        );
        delete_row(&mut db2, 1, 2);
        view.try_apply_delta(&remove(&rel, 1, 2)).unwrap();
        let (oracle3, _) = execute(&plan, &db2).unwrap();
        assert_eq!(
            view.result().sorted_entries(),
            oracle3.rows.sorted_entries()
        );
    }

    #[test]
    fn default_cap_is_generous() {
        let db = link_db(&[(1, 2)]);
        let plan = closure_plan();
        if let Plan::Fixpoint { cap, .. } = &plan {
            assert_eq!(*cap, DEFAULT_FIXPOINT_CAP);
        } else {
            panic!("expected fixpoint plan");
        }
        MaterializedView::new(&plan, &db).unwrap();
    }

    // ------------------------------------------- split build ≡ one worker --

    /// Rows of the split fixture: 94 heap chunks.
    const TOKENS: i64 = 6_000;

    /// A fixed stream of 32 batches, applied to `db` as recorded. Each
    /// relabels two tokens; every other one deletes the first token left in
    /// a document — its group's MIN(tok_id) — and inserts one; every fourth
    /// replaces a link; every eighth deletes a whole document, whose group
    /// was built from chunks two workers may have read.
    fn delta_stream(db: &mut Database) -> Vec<DeltaSet> {
        let (token, link): (Arc<str>, Arc<str>) = (Arc::from("TOKEN"), Arc::from("LINK"));
        let mut rng = Rng(0xDE17A);
        let mut stream = Vec::new();
        for b in 0..32i64 {
            let mut batch = DeltaSet::new();
            let rel = db.relation_mut("TOKEN").unwrap();
            for _ in 0..2 {
                let id = rng.below(TOKENS as usize) as i64;
                if let Some(rid) = rel.find_by_pk(&Value::Int(id)) {
                    let label = Value::str(*rng.pick(&LABELS));
                    let (old, new) = rel.update_field(rid, 3, label).unwrap();
                    batch.record_update(&token, old, new);
                }
            }
            let mut gone = Vec::new();
            if b % 2 == 0 {
                let doc = 3 * b;
                gone.push(doc * 7..doc * 7 + 7);
                let t = tuple![TOKENS + b, doc, "Ann", "B-PER", "O", 0.5f64];
                rel.insert(t.clone()).unwrap();
                batch.record_insert(&token, t);
            }
            if b % 8 == 7 {
                gone.extend((b * 70..b * 70 + 7).map(|id| id..id + 1));
            }
            for ids in gone {
                let rid = ids
                    .into_iter()
                    .find_map(|id| rel.find_by_pk(&Value::Int(id)));
                if let Some(rid) = rid {
                    batch.record_delete(&token, rel.delete(rid).unwrap());
                }
            }
            if b % 4 == 0 {
                let rel = db.relation_mut("LINK").unwrap();
                let (rid, _) = rel.iter().nth(rng.below(rel.len())).unwrap();
                batch.record_delete(&link, rel.delete(rid).unwrap());
                let t = tuple![rng.below(12) as i64, rng.below(12) as i64];
                rel.insert(t.clone()).unwrap();
                batch.record_insert(&link, t);
            }
            batch.compact();
            stream.push(batch);
        }
        stream
    }

    /// The initial answer, every answer delta of the stream, and the
    /// counters after it.
    type Run = (Vec<(Tuple, i64)>, Vec<Vec<(Tuple, i64)>>, CircuitStats);

    fn build_and_feed(plan: &Plan, split: Split) -> Result<Run, CircuitError> {
        let stream = delta_stream(&mut mixed_token_db(TOKENS, 7));
        let mut view = MaterializedView::build(plan, &mixed_token_db(TOKENS, 7), split)?;
        let initial = view.result().sorted_entries();
        let deltas = stream
            .iter()
            .map(|d| view.try_apply_delta(d).map(|out| out.sorted_entries()))
            .collect::<Result<_, _>>()?;
        Ok((initial, deltas, view.stats()))
    }

    /// Built at 2, 3 and 8 workers over one-chunk morsels — and at the
    /// machine's — a view answers, maintains and counts like one built
    /// on one worker. Returns the one-worker run.
    fn assert_split_builds_match(plan: &Plan) -> Result<Run, CircuitError> {
        let one = build_and_feed(plan, split(1));
        assert_eq!(
            build_and_feed(plan, Split::machine()),
            one,
            "machine: {plan}"
        );
        for workers in [2, 3, 8] {
            let got = build_and_feed(plan, split(workers));
            assert_eq!(got, one, "{workers} workers vs one: {plan}");
        }
        one
    }

    fn sql(query: &str) -> Plan {
        crate::planner::compile_query(query, &mixed_token_db(TOKENS, 7)).unwrap()
    }

    #[test]
    fn split_builds_answer_like_one_worker() {
        let link = |alias: &str| Plan::scan_as("LINK", alias);
        let step = Plan::rec("R", &["a", "b"])
            .join_on(link("s"), &[("b", "s.src")])
            .project(&["a", "s.dst"]);
        let persons = Plan::scan("TOKEN").filter(Expr::col("label").eq(Expr::lit("B-PER")));
        let plans = [
            paper_queries::query1("TOKEN"),
            paper_queries::query2("TOKEN"),
            paper_queries::query3("TOKEN"),
            paper_queries::query4("TOKEN"),
            // Grouped MIN/MAX: the stream retracts a group's minimum from
            // a table two workers built.
            sql(
                "SELECT doc_id, MIN(tok_id) AS lo, MAX(label) AS hi, MAX(string) AS s \
                 FROM TOKEN GROUP BY doc_id",
            ),
            sql("SELECT MIN(tok_id) AS lo, MAX(tok_id) AS hi, COUNT(*) AS n FROM TOKEN"),
            // NULL join keys: every fifth score is NULL.
            sql("SELECT T1.tok_id, T2.string FROM TOKEN T1 JOIN TOKEN T2 \
                 ON T1.score = T2.score WHERE T1.label = 'B-ORG' AND T2.doc_id < 20"),
            sql("SELECT doc_id, COUNT(*) AS n FROM TOKEN GROUP BY doc_id \
                 HAVING COUNT(*) FILTER (WHERE label = 'B-PER') >= 2"),
            sql("SELECT DISTINCT string, label FROM TOKEN"),
            sql("SELECT string FROM TOKEN WHERE label = 'B-PER' \
                 EXCEPT ALL SELECT string FROM TOKEN WHERE doc_id < 300"),
            sql("SELECT string FROM TOKEN WHERE label = 'B-ORG' \
                 INTERSECT SELECT string FROM TOKEN WHERE doc_id > 400"),
            sql("SELECT label FROM TOKEN WHERE doc_id < 9 UNION ALL SELECT label FROM TOKEN"),
            sql("SELECT T.string, L.dst FROM TOKEN T, LINK L \
                 WHERE T.doc_id < 30 AND T.label = 'B-PER' AND L.src = 3"),
            // A recursive view, joined to a scan that splits.
            link("l")
                .fixpoint(step.clone(), "R", &["a", "b"])
                .join_on(persons, &[("a", "doc_id")])
                .project(&["b", "string"]),
            // A fixpoint that rebuilds from its relation copies.
            link("l").fixpoint(step.difference(link("x")), "R", &["a", "b"]),
        ];
        let db = mixed_token_db(TOKENS, 7);
        for plan in plans {
            let (initial, _, _) = assert_split_builds_match(&plan).unwrap();
            let (oracle, _) = execute(&plan, &db).unwrap();
            assert_eq!(initial, oracle.rows.sorted_entries(), "{plan}");
        }
    }

    #[test]
    fn split_builds_keep_a_float_sum_on_one_worker() {
        for query in [
            "SELECT doc_id, SUM(score) AS s FROM TOKEN GROUP BY doc_id",
            "SELECT SUM(score) AS s, COUNT(*) AS n FROM TOKEN",
        ] {
            let plan = sql(query);
            let flow = Flow::compile(&plan, &mixed_token_db(TOKENS, 7), None).unwrap();
            let inexact = |n: &CNode| matches!(&n.kind, CKind::Aggregate { agg, .. } if !agg.exact);
            assert!(flow.nodes.iter().any(inexact), "{query}");
            // Bit-identical at every worker count, though the scores' order
            // of addition changes their sum.
            assert_split_builds_match(&plan).unwrap();
        }
    }

    #[test]
    fn split_builds_fail_like_one_worker() {
        let mut divergent = closure_plan();
        if let Plan::Fixpoint { all, .. } = &mut divergent {
            *all = true;
        }
        // The γ below the join is built, split, before the fixpoint beside
        // it diverges.
        let plan = Plan::scan("TOKEN")
            .aggregate(&["doc_id"], vec![AggExpr::new(AggFunc::Count, "n")])
            .join_on(divergent.with_fixpoint_cap(4), &[("doc_id", "a")]);
        let err = assert_split_builds_match(&plan).unwrap_err();
        assert_eq!(err, CircuitError::IterationLimit { cap: 4 });
        let err = assert_split_builds_match(&Plan::rec("R", &["a"])).unwrap_err();
        assert!(
            matches!(err, CircuitError::UnboundRecursion { .. }),
            "{err}"
        );
    }

    #[test]
    fn init_counts_every_scan_of_a_relation() {
        let db = mixed_token_db(TOKENS, 7);
        let rows = db.relation("TOKEN").unwrap().len() as u64;
        let scanned = |plan: Plan| {
            MaterializedView::new(&plan, &db)
                .unwrap()
                .stats()
                .init_tuples_scanned
        };
        // Query 4 reads TOKEN twice, a self-join.
        assert_eq!(scanned(paper_queries::query4("TOKEN")), 2 * rows);
        assert_eq!(scanned(paper_queries::query2("TOKEN")), rows);
        // A primary-key probe reads the one row it names.
        let probe = Plan::scan("TOKEN").filter(Expr::col("tok_id").eq(Expr::lit(7i64)));
        assert_eq!(scanned(probe), 1);
    }
}
