//! Incrementally maintained materialized views — Algorithm 1's engine.
//!
//! §4.2 of the paper: rather than re-running the query over each sampled
//! world, the answer is maintained under the world deltas produced by MCMC,
//! following Blakeley et al.'s view maintenance with multiset (counted)
//! semantics:
//!
//! ```text
//! Q(w') = Q(w) − Q'(w, Δ⁻) ∪ Q'(w, Δ⁺)                 (Eq. 6)
//! σ(w')   ≡ σ(w) − σ(Δ⁻) ∪ σ(Δ⁺)
//! w'.R₁ × w'.R₂ ≡ w.R₁ × w.R₂ − w.R₁ × Δ⁻.R₂ ∪ w.R₁ × Δ⁺.R₂
//! ```
//!
//! A [`MaterializedView`] compiles a [`Plan`] into a tree of stateful
//! operator nodes. Feeding it a [`DeltaSet`] propagates *signed counted
//! deltas* bottom-up and returns the delta of the answer set; the cost is
//! proportional to |Δ| (and the fan-out of joins touched), never to |w|.
//!
//! Supported operators: σ, π (multiset), ×, equi-⋈, γ (COUNT / filtered
//! COUNT / SUM / MIN / MAX, grouped or global), δ (distinct), ∪ (bag
//! union), ∖ (monus difference), ∩ (bag intersection). This covers all four
//! evaluation queries of §5 — including the aggregate queries the paper
//! highlights as trivially handled by sampling evaluation — and the full
//! algebra beyond them.
//!
//! # Example
//!
//! ```
//! use fgdb_relational::{
//!     tuple, Database, DeltaSet, Expr, MaterializedView, Plan, Schema, Value, ValueType,
//! };
//! use std::sync::Arc;
//!
//! let mut db = Database::new();
//! let schema = Schema::from_pairs(&[("id", ValueType::Int), ("label", ValueType::Str)])
//!     .unwrap();
//! db.create_relation("TOKEN", schema).unwrap();
//! db.relation_mut("TOKEN").unwrap().insert(tuple![1i64, "B-PER"]).unwrap();
//!
//! // Materialize σ(label = 'B-PER') and maintain it under a delta.
//! let plan = Plan::scan("TOKEN").filter(Expr::col("label").eq(Expr::lit("B-PER")));
//! let mut view = MaterializedView::new(&plan, &db).unwrap();
//! assert_eq!(view.result().total(), 1);
//!
//! let rel: Arc<str> = Arc::from("TOKEN");
//! let mut delta = DeltaSet::new();
//! delta.record_update(&rel, tuple![1i64, "B-PER"], tuple![1i64, "O"]);
//! view.apply_delta(&delta); // Θ(|Δ|), not Θ(|w|)
//! assert_eq!(view.result().total(), 0);
//! ```

use crate::algebra::{Plan, PlanError};
use crate::circuit::{Circuit, CircuitError, CircuitStats};
use crate::counted::CountedSet;
use crate::database::Database;
use crate::delta::DeltaSet;
use crate::exec::{bind_aggs, join_key_indices, AggAcc, AggSpec, ExecError};
use crate::expr::{resolve_column, BoundExpr};
use crate::fasthash::TupleMap;
use crate::row::Row;
use crate::tuple::{fingerprint_values, Tuple};
use crate::value::Value;
use std::sync::Arc;

/// Work counters for view maintenance (the |Δ|-proportional analogue of
/// [`crate::exec::ExecStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Delta batches applied.
    pub deltas_applied: u64,
    /// Delta rows processed across all operator nodes.
    pub delta_rows_processed: u64,
    /// Base tuples read during initialization (one full evaluation).
    pub init_tuples_scanned: u64,
}

/// Which maintenance engine services a [`MaterializedView`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ViewBackend {
    /// The original per-node operator tree. Battle-tested, but cannot
    /// express recursive plans and silently absorbs inconsistent deltas.
    Legacy,
    /// The Z-set operator circuit ([`crate::circuit`]): same incremental
    /// contract, plus recursion ([`Plan::Fixpoint`]) and typed errors.
    #[default]
    Circuit,
}

impl ViewBackend {
    /// Backend selection from the environment: `FGDB_VIEW_BACKEND=legacy`
    /// opts out of circuits; anything else (or unset) selects the circuit
    /// backend. Recursive plans always use circuits regardless.
    pub fn from_env() -> ViewBackend {
        match std::env::var("FGDB_VIEW_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("legacy") => ViewBackend::Legacy,
            _ => ViewBackend::Circuit,
        }
    }
}

/// A query answer maintained incrementally under world deltas, serviced by
/// either maintenance engine behind one registration API (the transition
/// selector the circuit rollout ships behind).
pub struct MaterializedView {
    inner: ViewImpl,
    poisoned: Option<CircuitError>,
}

enum ViewImpl {
    Legacy(LegacyView),
    Circuit(Circuit),
}

impl MaterializedView {
    /// Compiles `plan` and runs the one-time full evaluation over the
    /// initial world `w₀` (Algorithm 1 line 2: "run full query to get
    /// initial results"). The backend comes from [`ViewBackend::from_env`];
    /// recursive plans force the circuit backend.
    pub fn new(plan: &Plan, db: &Database) -> Result<Self, CircuitError> {
        let backend = if plan.is_recursive() {
            ViewBackend::Circuit
        } else {
            ViewBackend::from_env()
        };
        Self::with_backend(plan, db, backend)
    }

    /// Compiles `plan` on an explicitly chosen backend. Selecting
    /// [`ViewBackend::Legacy`] for a recursive plan is a typed error.
    pub fn with_backend(
        plan: &Plan,
        db: &Database,
        backend: ViewBackend,
    ) -> Result<Self, CircuitError> {
        let inner = match backend {
            ViewBackend::Legacy => ViewImpl::Legacy(LegacyView::new(plan, db)?),
            ViewBackend::Circuit => ViewImpl::Circuit(Circuit::new(plan, db)?),
        };
        Ok(MaterializedView {
            inner,
            poisoned: None,
        })
    }

    /// The engine servicing this view.
    pub fn backend(&self) -> ViewBackend {
        match &self.inner {
            ViewImpl::Legacy(_) => ViewBackend::Legacy,
            ViewImpl::Circuit(_) => ViewBackend::Circuit,
        }
    }

    /// Applies a world delta, updating the maintained answer and returning
    /// the answer's own signed delta (what Algorithm 1 line 5 consumes).
    ///
    /// A delta disjoint from the view's source relations short-circuits at
    /// the root: no operator recursion, no per-node allocation. A circuit
    /// error (inconsistent stream, iteration cap) poisons the view — see
    /// [`MaterializedView::error`] — and yields an empty delta; callers
    /// that need the typed error use [`MaterializedView::try_apply_delta`].
    pub fn apply_delta(&mut self, deltas: &DeltaSet) -> CountedSet {
        match self.try_apply_delta(deltas) {
            Ok(out) => out,
            Err(e) => {
                self.poisoned = Some(e);
                CountedSet::new()
            }
        }
    }

    /// Fallible delta application: the circuit backend's typed errors
    /// propagate instead of poisoning the view silently. The legacy
    /// backend is infallible.
    pub fn try_apply_delta(&mut self, deltas: &DeltaSet) -> Result<CountedSet, CircuitError> {
        match &mut self.inner {
            ViewImpl::Legacy(v) => Ok(v.apply_delta(deltas)),
            ViewImpl::Circuit(c) => c.apply_delta(deltas),
        }
    }

    /// The first error that poisoned this view via
    /// [`MaterializedView::apply_delta`], if any. A poisoned view's answer
    /// is no longer trustworthy and should be rebuilt.
    pub fn error(&self) -> Option<&CircuitError> {
        self.poisoned.as_ref()
    }

    /// The current maintained answer multiset.
    pub fn result(&self) -> &CountedSet {
        match &self.inner {
            ViewImpl::Legacy(v) => &v.result,
            ViewImpl::Circuit(c) => c.result(),
        }
    }

    /// Output column names.
    pub fn columns(&self) -> &[Arc<str>] {
        match &self.inner {
            ViewImpl::Legacy(v) => &v.columns,
            ViewImpl::Circuit(c) => c.columns(),
        }
    }

    /// Base relations this view reads (sorted, deduplicated). Deltas
    /// disjoint from this set are guaranteed no-ops.
    pub fn source_relations(&self) -> &[Arc<str>] {
        match &self.inner {
            ViewImpl::Legacy(v) => &v.root.sources,
            ViewImpl::Circuit(c) => c.source_relations(),
        }
    }

    /// Work counters (backend-agnostic subset).
    pub fn stats(&self) -> ViewStats {
        match &self.inner {
            ViewImpl::Legacy(v) => v.stats,
            ViewImpl::Circuit(c) => {
                let s = c.stats();
                ViewStats {
                    deltas_applied: s.deltas_applied,
                    delta_rows_processed: s.delta_rows_processed,
                    init_tuples_scanned: s.init_tuples_scanned,
                }
            }
        }
    }

    /// Circuit-specific counters (recursion iterations, rebuilds) when the
    /// circuit backend services this view.
    pub fn circuit_stats(&self) -> Option<CircuitStats> {
        match &self.inner {
            ViewImpl::Legacy(_) => None,
            ViewImpl::Circuit(c) => Some(c.stats()),
        }
    }
}

/// The original operator-tree engine (see module docs).
struct LegacyView {
    root: Node,
    result: CountedSet,
    columns: Vec<Arc<str>>,
    stats: ViewStats,
}

impl LegacyView {
    fn new(plan: &Plan, db: &Database) -> Result<Self, CircuitError> {
        let columns = plan.output_columns(db)?;
        let mut root = compile(plan, db)?;
        let mut stats = ViewStats::default();
        let result = root.init(db, &mut stats).map_err(CircuitError::Exec)?;
        Ok(LegacyView {
            root,
            result,
            columns,
            stats,
        })
    }

    fn apply_delta(&mut self, deltas: &DeltaSet) -> CountedSet {
        self.stats.deltas_applied += 1;
        let out = self
            .root
            .apply(deltas, &mut self.stats.delta_rows_processed)
            .into_counted();
        self.result.merge(&out);
        out
    }
}

/// A stateful operator node: the operator itself plus the set of base
/// relations its subtree reads. The source set is what lets `apply`
/// short-circuit — a delta disjoint from a subtree's sources can touch
/// nothing below it, so the node returns an empty output delta without
/// recursing or allocating.
struct Node {
    op: Op,
    /// Sorted, deduplicated base relations read by this subtree.
    sources: Vec<Arc<str>>,
}

/// This node's output delta for one batch. `Borrowed` lets a `Scan` hand
/// the per-relation delta straight through without cloning it; `Empty`
/// is the zero-allocation result of a short-circuited subtree.
enum DeltaOut<'a> {
    Empty,
    Borrowed(&'a CountedSet),
    Owned(CountedSet),
}

impl<'a> DeltaOut<'a> {
    fn as_set(&self) -> Option<&CountedSet> {
        match self {
            DeltaOut::Empty => None,
            DeltaOut::Borrowed(s) => Some(s),
            DeltaOut::Owned(s) => Some(s),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.as_set().map(CountedSet::iter).into_iter().flatten()
    }

    fn count(&self, t: &Tuple) -> i64 {
        self.as_set().map_or(0, |s| s.count(t))
    }

    fn distinct_len(&self) -> usize {
        self.as_set().map_or(0, CountedSet::distinct_len)
    }

    fn into_counted(self) -> CountedSet {
        match self {
            DeltaOut::Empty => CountedSet::new(),
            DeltaOut::Borrowed(s) => s.clone(),
            DeltaOut::Owned(s) => s,
        }
    }
}

/// The operator kinds.
#[allow(clippy::enum_variant_names)] // `SetOp` is the standard algebra term
enum Op {
    Scan {
        relation: Arc<str>,
    },
    Select {
        child: Box<Node>,
        pred: BoundExpr,
    },
    Project {
        child: Box<Node>,
        indices: Vec<usize>,
    },
    Product {
        left: Box<Node>,
        right: Box<Node>,
        left_state: CountedSet,
        right_state: CountedSet,
    },
    Join {
        left: Box<Node>,
        right: Box<Node>,
        lk: Vec<usize>,
        rk: Vec<usize>,
        /// Join key → multiset of tuples with that key, addressed by the
        /// key's fingerprint so per-row probes allocate nothing.
        left_state: TupleMap<CountedSet>,
        right_state: TupleMap<CountedSet>,
        /// Reusable key-projection buffer.
        scratch: Vec<Value>,
    },
    Aggregate {
        child: Box<Node>,
        group_idx: Vec<usize>,
        specs: Vec<AggSpec>,
        groups: TupleMap<GroupState>,
        /// Reusable group-key projection buffer.
        scratch: Vec<Value>,
        /// Reusable per-batch map of touched groups → pre-batch output.
        touched: TupleMap<Option<Tuple>>,
        /// Reusable output-row assembly buffer.
        row_buf: Vec<Value>,
    },
    Distinct {
        child: Box<Node>,
        state: CountedSet,
    },
    /// UNION ALL: multiplicities add — linear, stateless.
    Union {
        left: Box<Node>,
        right: Box<Node>,
    },
    /// Bag difference/intersection are *not* linear (monus/min), so both
    /// input multisets are retained and touched tuples re-derived.
    SetOp {
        left: Box<Node>,
        right: Box<Node>,
        kind: SetOpKind,
        left_state: CountedSet,
        right_state: CountedSet,
    },
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum SetOpKind {
    Difference,
    Intersect,
}

impl SetOpKind {
    /// Output multiplicity of a tuple given its input multiplicities.
    pub(crate) fn out_count(self, l: i64, r: i64) -> i64 {
        match self {
            SetOpKind::Difference => (l - r).max(0),
            SetOpKind::Intersect => l.min(r).max(0),
        }
    }
}

pub(crate) struct GroupState {
    /// Total input multiplicity in the group (existence test: n > 0, except
    /// the global group which always exists).
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

    /// Assembles the group's output row through a reusable buffer: one
    /// tuple allocation, no intermediate `Vec` per call.
    pub(crate) fn output(&self, key: &[Value], buf: &mut Vec<Value>) -> Tuple {
        buf.clear();
        buf.extend_from_slice(key);
        buf.extend(self.accs.iter().map(AggAcc::finish));
        Tuple::from_slice(buf)
    }
}

fn compile(plan: &Plan, db: &Database) -> Result<Node, CircuitError> {
    let op = match plan {
        Plan::Scan { relation, .. } => {
            // Verify the relation exists up front.
            db.relation(relation)
                .map_err(|_| PlanError::UnknownRelation(relation.to_string()))?;
            Op::Scan {
                relation: Arc::clone(relation),
            }
        }
        Plan::Select { input, predicate } => {
            let cols = input.output_columns(db)?;
            let pred = predicate
                .bind(&cols)
                .map_err(|c| ExecError::Plan(PlanError::UnknownColumn(c)))?;
            Op::Select {
                child: Box::new(compile(input, db)?),
                pred,
            }
        }
        Plan::Project { input, columns } => {
            let cols = input.output_columns(db)?;
            let indices = columns
                .iter()
                .map(|c| {
                    resolve_column(&cols, c)
                        .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(c.to_string())))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Op::Project {
                child: Box::new(compile(input, db)?),
                indices,
            }
        }
        Plan::Product { left, right } => Op::Product {
            left: Box::new(compile(left, db)?),
            right: Box::new(compile(right, db)?),
            left_state: CountedSet::new(),
            right_state: CountedSet::new(),
        },
        Plan::Join { left, right, on } => {
            let l_cols = left.output_columns(db)?;
            let r_cols = right.output_columns(db)?;
            let (lk, rk) = join_key_indices(on, &l_cols, &r_cols)?;
            Op::Join {
                left: Box::new(compile(left, db)?),
                right: Box::new(compile(right, db)?),
                lk,
                rk,
                left_state: TupleMap::new(),
                right_state: TupleMap::new(),
                scratch: Vec::new(),
            }
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let cols = input.output_columns(db)?;
            let group_idx = group_by
                .iter()
                .map(|c| {
                    resolve_column(&cols, c)
                        .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(c.to_string())))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let specs = bind_aggs(aggs, &cols)?;
            Op::Aggregate {
                child: Box::new(compile(input, db)?),
                group_idx,
                specs,
                groups: TupleMap::new(),
                scratch: Vec::new(),
                touched: TupleMap::new(),
                row_buf: Vec::new(),
            }
        }
        Plan::Distinct { input } => Op::Distinct {
            child: Box::new(compile(input, db)?),
            state: CountedSet::new(),
        },
        Plan::Union { left, right } => {
            // Validate arity agreement up front.
            plan.output_columns(db)?;
            Op::Union {
                left: Box::new(compile(left, db)?),
                right: Box::new(compile(right, db)?),
            }
        }
        Plan::Difference { left, right } => {
            plan.output_columns(db)?;
            Op::SetOp {
                left: Box::new(compile(left, db)?),
                right: Box::new(compile(right, db)?),
                kind: SetOpKind::Difference,
                left_state: CountedSet::new(),
                right_state: CountedSet::new(),
            }
        }
        Plan::Intersect { left, right } => {
            plan.output_columns(db)?;
            Op::SetOp {
                left: Box::new(compile(left, db)?),
                right: Box::new(compile(right, db)?),
                kind: SetOpKind::Intersect,
                left_state: CountedSet::new(),
                right_state: CountedSet::new(),
            }
        }
        Plan::Fixpoint { .. } | Plan::Rec { .. } => {
            return Err(CircuitError::Unsupported(
                "recursive plans require the circuit backend".into(),
            ))
        }
    };
    Ok(Node {
        op,
        sources: plan.base_relations(),
    })
}

impl Node {
    /// True when the delta batch touches any base relation of this subtree.
    fn touches(&self, deltas: &DeltaSet) -> bool {
        self.sources
            .iter()
            .any(|r| deltas.for_relation(r).is_some())
    }

    /// Full evaluation over the current database, populating operator state.
    fn init(&mut self, db: &Database, stats: &mut ViewStats) -> Result<CountedSet, ExecError> {
        Ok(match &mut self.op {
            Op::Scan { relation } => {
                let rel = db
                    .relation(relation)
                    .map_err(|_| PlanError::UnknownRelation(relation.to_string()))?;
                stats.init_tuples_scanned += rel.len() as u64;
                rel.rows().map(|r| r.to_tuple()).collect()
            }
            Op::Select { child, pred } => {
                let rows = child.init(db, stats)?;
                let mut out = CountedSet::new();
                for (t, c) in rows.iter() {
                    if pred.matches(t) {
                        out.add(t.clone(), c);
                    }
                }
                out
            }
            Op::Project { child, indices } => {
                let rows = child.init(db, stats)?;
                let mut out = CountedSet::new();
                for (t, c) in rows.iter() {
                    out.add(t.project(indices), c);
                }
                out
            }
            Op::Product {
                left,
                right,
                left_state,
                right_state,
            } => {
                *left_state = left.init(db, stats)?;
                *right_state = right.init(db, stats)?;
                let mut out = CountedSet::new();
                for (lt, lc) in left_state.iter() {
                    for (rt, rc) in right_state.iter() {
                        out.add(lt.concat(rt), lc * rc);
                    }
                }
                out
            }
            Op::Join {
                left,
                right,
                lk,
                rk,
                left_state,
                right_state,
                scratch,
            } => {
                let l = left.init(db, stats)?;
                let r = right.init(db, stats)?;
                left_state.clear();
                right_state.clear();
                for (t, c) in l.iter() {
                    insert_keyed_projecting(left_state, lk, t, c, scratch);
                }
                for (t, c) in r.iter() {
                    insert_keyed_projecting(right_state, rk, t, c, scratch);
                }
                let mut out = CountedSet::new();
                for (key, lts) in left_state.iter() {
                    if let Some(rts) = right_state.get_tuple(key) {
                        for (lt, lc) in lts.iter() {
                            for (rt, rc) in rts.iter() {
                                out.add(lt.concat(rt), lc * rc);
                            }
                        }
                    }
                }
                out
            }
            Op::Aggregate {
                child,
                group_idx,
                specs,
                groups,
                scratch,
                row_buf,
                ..
            } => {
                let rows = child.init(db, stats)?;
                groups.clear();
                for (t, c) in rows.iter() {
                    t.project_into(group_idx, scratch);
                    let fp = fingerprint_values(scratch);
                    let g = groups.get_or_insert_with(fp, scratch, || GroupState::new(specs));
                    g.n += c;
                    for (acc, spec) in g.accs.iter_mut().zip(specs.iter()) {
                        acc.update(spec, t, c);
                    }
                }
                // The global group always exists, even over an empty input.
                if group_idx.is_empty() && groups.is_empty() {
                    groups.get_or_insert_with(fingerprint_values(&[]), &[], || {
                        GroupState::new(specs)
                    });
                }
                let mut out = CountedSet::new();
                for (key, g) in groups.iter() {
                    out.add(g.output(key.values(), row_buf), 1);
                }
                out
            }
            Op::Distinct { child, state } => {
                *state = child.init(db, stats)?;
                let mut out = CountedSet::new();
                for t in state.support() {
                    out.add(t.clone(), 1);
                }
                out
            }
            Op::Union { left, right } => {
                let mut l = left.init(db, stats)?;
                l.merge_owned(right.init(db, stats)?);
                l
            }
            Op::SetOp {
                left,
                right,
                kind,
                left_state,
                right_state,
            } => {
                *left_state = left.init(db, stats)?;
                *right_state = right.init(db, stats)?;
                let mut out = CountedSet::new();
                for (t, lc) in left_state.iter() {
                    out.add(t.clone(), kind.out_count(lc, right_state.count(t)));
                }
                out
            }
        })
    }

    /// Propagates a base-relation delta batch, returning this node's output
    /// delta and updating internal state.
    ///
    /// When the batch is disjoint from this subtree's source relations the
    /// node returns [`DeltaOut::Empty`] immediately — no recursion into
    /// children, no `CountedSet` allocation, no work counted.
    fn apply<'d>(&mut self, deltas: &'d DeltaSet, work: &mut u64) -> DeltaOut<'d> {
        if !self.touches(deltas) {
            return DeltaOut::Empty;
        }
        match &mut self.op {
            Op::Scan { relation } => match deltas.for_relation(relation) {
                Some(set) => {
                    *work += set.distinct_len() as u64;
                    DeltaOut::Borrowed(set)
                }
                None => DeltaOut::Empty,
            },
            Op::Select { child, pred } => {
                let d = child.apply(deltas, work);
                // Lazy allocation: a selective predicate often passes nothing,
                // in which case no output set is ever allocated.
                let mut out = CountedSet::new();
                for (t, c) in d.iter() {
                    *work += 1;
                    if pred.matches(t) {
                        out.add(t.clone(), c);
                    }
                }
                DeltaOut::Owned(out)
            }
            Op::Project { child, indices } => {
                let d = child.apply(deltas, work);
                let mut out = CountedSet::with_capacity(d.distinct_len());
                for (t, c) in d.iter() {
                    *work += 1;
                    out.add(t.project(indices), c);
                }
                DeltaOut::Owned(out)
            }
            Op::Product {
                left,
                right,
                left_state,
                right_state,
            } => {
                let dl = left.apply(deltas, work);
                let dr = right.apply(deltas, work);
                let mut out = CountedSet::new();
                // ΔL × R_old
                for (lt, lc) in dl.iter() {
                    for (rt, rc) in right_state.iter() {
                        *work += 1;
                        out.add(lt.concat(rt), lc * rc);
                    }
                }
                if let Some(s) = dl.as_set() {
                    left_state.merge(s); // left is now L_new
                }
                // L_new × ΔR = (L_old + ΔL) × ΔR — supplies both remaining terms.
                for (rt, rc) in dr.iter() {
                    for (lt, lc) in left_state.iter() {
                        *work += 1;
                        out.add(lt.concat(rt), lc * rc);
                    }
                }
                if let Some(s) = dr.as_set() {
                    right_state.merge(s);
                }
                DeltaOut::Owned(out)
            }
            Op::Join {
                left,
                right,
                lk,
                rk,
                left_state,
                right_state,
                scratch,
            } => {
                let dl = left.apply(deltas, work);
                let dr = right.apply(deltas, work);
                let mut out = CountedSet::new();
                // ΔL ⋈ R_old, folding ΔL into the left state as we go — the
                // probe (into right_state) and the insert (into left_state)
                // share one key projection through the reusable scratch
                // buffer and one fingerprint: no per-row allocation. R_old is
                // intact throughout because ΔR only lands after this loop.
                for (lt, lc) in dl.iter() {
                    *work += 1;
                    lt.project_into(lk, scratch);
                    if scratch.iter().any(Value::is_null) {
                        continue;
                    }
                    let fp = fingerprint_values(scratch);
                    if let Some(rts) = right_state.get(fp, scratch) {
                        for (rt, rc) in rts.iter() {
                            *work += 1;
                            out.add(lt.concat(rt), lc * rc);
                        }
                    }
                    insert_keyed(left_state, fp, scratch, lt, lc);
                }
                // L_new ⋈ ΔR (left state already includes ΔL — this supplies
                // both the L_old × ΔR and ΔL × ΔR terms), folding ΔR in.
                for (rt, rc) in dr.iter() {
                    *work += 1;
                    rt.project_into(rk, scratch);
                    if scratch.iter().any(Value::is_null) {
                        continue;
                    }
                    let fp = fingerprint_values(scratch);
                    if let Some(lts) = left_state.get(fp, scratch) {
                        for (lt, lc) in lts.iter() {
                            *work += 1;
                            out.add(lt.concat(rt), lc * rc);
                        }
                    }
                    insert_keyed(right_state, fp, scratch, rt, rc);
                }
                DeltaOut::Owned(out)
            }
            Op::Aggregate {
                child,
                group_idx,
                specs,
                groups,
                scratch,
                touched,
                row_buf,
            } => {
                let d = child.apply(deltas, work);
                let global = group_idx.is_empty();
                // Single pass: snapshot the pre-batch output of each group at
                // first touch, then fold the update in. Group keys project
                // into the reusable scratch buffer; an owned key tuple is
                // built only once per *touched group*, not per row, and the
                // touched-map allocation itself is reused across batches.
                touched.clear();
                for (t, c) in d.iter() {
                    *work += 1;
                    t.project_into(group_idx, scratch);
                    let fp = fingerprint_values(scratch);
                    if touched.get(fp, scratch).is_none() {
                        let old = match groups.get(fp, scratch) {
                            Some(g) => Some(g.output(scratch, row_buf)),
                            // The global group exists implicitly with zero state.
                            None => global.then(|| GroupState::new(specs).output(scratch, row_buf)),
                        };
                        touched.get_or_insert_with(fp, scratch, || old);
                    }
                    let g = groups.get_or_insert_with(fp, scratch, || GroupState::new(specs));
                    g.n += c;
                    for (acc, spec) in g.accs.iter_mut().zip(specs.iter()) {
                        acc.update(spec, t, c);
                    }
                }
                // Diff old vs new output per touched group. A group whose
                // aggregate values ended up unchanged (e.g. an update moving
                // a row between two states no aggregate observes) is detected
                // by comparing the finished accumulators against the old
                // snapshot *before* allocating a new output row.
                let mut out = CountedSet::new();
                for (key, old) in touched.iter() {
                    let fp = key.fingerprint();
                    let alive = match groups.get(fp, key.values()) {
                        Some(g) if g.n > 0 || global => {
                            let unchanged = old.as_ref().is_some_and(|o| {
                                let vals = &o.values()[key.arity()..];
                                g.accs
                                    .iter()
                                    .zip(vals)
                                    .all(|(acc, prev)| acc.finish() == *prev)
                            });
                            if !unchanged {
                                let n = g.output(key.values(), row_buf);
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
                    // Drop groups whose support vanished (non-global only).
                    if !alive && !global && groups.get(fp, key.values()).is_some() {
                        groups.remove(fp, key.values());
                    }
                }
                DeltaOut::Owned(out)
            }
            Op::Distinct { child, state } => {
                let d = child.apply(deltas, work);
                let mut out = CountedSet::new();
                for (t, c) in d.iter() {
                    *work += 1;
                    let old = state.count(t);
                    let new = state.add(t.clone(), c);
                    if old <= 0 && new > 0 {
                        out.add(t.clone(), 1);
                    } else if old > 0 && new <= 0 {
                        out.add(t.clone(), -1);
                    }
                }
                DeltaOut::Owned(out)
            }
            Op::Union { left, right } => {
                let dl = left.apply(deltas, work);
                let dr = right.apply(deltas, work);
                *work += dr.distinct_len() as u64;
                let mut l = dl.into_counted();
                l.merge_owned(dr.into_counted());
                DeltaOut::Owned(l)
            }
            Op::SetOp {
                left,
                right,
                kind,
                left_state,
                right_state,
            } => {
                let dl = left.apply(deltas, work);
                let dr = right.apply(deltas, work);
                let mut out = CountedSet::new();
                // Re-derive the output count of every touched tuple.
                for t in dl.iter().map(|(t, _)| t).chain(dr.iter().map(|(t, _)| t)) {
                    *work += 1;
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
                if let Some(s) = dl.as_set() {
                    left_state.merge(s);
                }
                if let Some(s) = dr.as_set() {
                    right_state.merge(s);
                }
                DeltaOut::Owned(out)
            }
        }
    }
}

/// Adds `t` with multiplicity `c` to a keyed join state under an
/// already-projected, already-fingerprinted key (the caller owns the
/// projection so probe and insert share it). Key entries whose multiset
/// empties are removed. NULL keys must be filtered by the caller.
fn insert_keyed(state: &mut TupleMap<CountedSet>, fp: u64, key: &[Value], t: &Tuple, c: i64) {
    let set = state.get_or_insert_with(fp, key, CountedSet::new);
    set.add(t.clone(), c);
    if set.is_empty() {
        state.remove(fp, key);
    }
}

/// Projection + NULL-filter + fingerprint wrapper over [`insert_keyed`] for
/// the one-time full evaluation, where probe and insert are separate.
fn insert_keyed_projecting(
    state: &mut TupleMap<CountedSet>,
    keys: &[usize],
    t: &Tuple,
    c: i64,
    scratch: &mut Vec<Value>,
) {
    t.project_into(keys, scratch);
    if scratch.iter().any(Value::is_null) {
        return; // NULL keys never participate in equi-joins
    }
    let fp = fingerprint_values(scratch);
    insert_keyed(state, fp, scratch, t, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{paper_queries, AggExpr, AggFunc};
    use crate::exec::execute_simple;
    use crate::expr::Expr;
    use crate::schema::Schema;
    use crate::storage::RowId;
    use crate::tuple;
    use crate::value::ValueType;

    fn token_schema() -> Schema {
        Schema::from_pairs(&[
            ("tok_id", ValueType::Int),
            ("doc_id", ValueType::Int),
            ("string", ValueType::Str),
            ("label", ValueType::Str),
            ("truth", ValueType::Str),
        ])
        .unwrap()
        .with_primary_key("tok_id")
        .unwrap()
    }

    fn token_db() -> Database {
        let mut db = Database::new();
        db.create_relation("TOKEN", token_schema()).unwrap();
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

    /// Updates the label of `tok_id`, recording the delta.
    fn relabel(db: &mut Database, deltas: &mut DeltaSet, tok_id: i64, label: &str) {
        let rel = db.relation_mut("TOKEN").unwrap();
        let rid = rel.find_by_pk(&Value::Int(tok_id)).unwrap();
        let col = rel.schema().index_of("label").unwrap();
        let (old, new) = rel.update_field(rid, col, Value::str(label)).unwrap();
        let name = Arc::clone(rel.name());
        deltas.record_update(&name, old, new);
    }

    /// The central invariant: after any delta stream, the maintained view
    /// equals a from-scratch execution (Eq. 6 of the paper).
    fn assert_view_matches_exec(view: &MaterializedView, plan: &Plan, db: &Database) {
        let fresh = execute_simple(plan, db).unwrap();
        assert_eq!(
            view.result().sorted_entries(),
            fresh.rows.sorted_entries(),
            "maintained view diverged from recomputation"
        );
    }

    #[test]
    fn query1_view_tracks_relabels() {
        let mut db = token_db();
        let plan = paper_queries::query1("TOKEN");
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        assert_view_matches_exec(&view, &plan, &db);
        assert_eq!(view.result().count(&tuple!["Ann"]), 2);

        // Relabel "said" → B-PER, "Ann"(6) → O, within one batch.
        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 2, "B-PER");
        relabel(&mut db, &mut d, 6, "O");
        let out = view.apply_delta(&d);
        assert_eq!(out.count(&tuple!["said"]), 1);
        assert_eq!(out.count(&tuple!["Ann"]), -1);
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn cancelled_delta_produces_no_output() {
        let mut db = token_db();
        let plan = paper_queries::query1("TOKEN");
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 2, "B-PER");
        relabel(&mut db, &mut d, 2, "O"); // restore
        assert!(d.is_empty());
        let out = view.apply_delta(&d);
        assert!(out.is_empty());
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn global_aggregate_view_query2() {
        let mut db = token_db();
        let plan = paper_queries::query2("TOKEN");
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        assert_eq!(view.result().sorted_support(), vec![tuple![3i64]]);

        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 2, "B-PER");
        let out = view.apply_delta(&d);
        assert_eq!(out.count(&tuple![3i64]), -1);
        assert_eq!(out.count(&tuple![4i64]), 1);
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn global_aggregate_survives_reaching_zero() {
        let mut db = token_db();
        let plan = paper_queries::query2("TOKEN");
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        let mut d = DeltaSet::new();
        for tok in [1, 6, 8] {
            relabel(&mut db, &mut d, tok, "O");
        }
        view.apply_delta(&d);
        // COUNT drops to 0 but the row persists (global groups always exist).
        assert_eq!(view.result().sorted_support(), vec![tuple![0i64]]);
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn grouped_aggregate_view_query3() {
        let mut db = token_db();
        let plan = paper_queries::query3("TOKEN");
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        assert_eq!(
            view.result().sorted_support(),
            vec![tuple![1i64], tuple![3i64]]
        );

        // Make doc 2 balanced by labelling "Boston"(4) B-ORG.
        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 4, "B-ORG");
        let out = view.apply_delta(&d);
        assert_eq!(out.count(&tuple![2i64]), 1);
        assert_view_matches_exec(&view, &plan, &db);

        // Unbalance doc 1 by adding another person.
        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 2, "B-PER");
        view.apply_delta(&d);
        assert!(!view.result().contains(&tuple![1i64]));
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn join_view_query4() {
        let mut db = token_db();
        let plan = paper_queries::query4("TOKEN");
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        assert_eq!(view.result().sorted_support(), vec![tuple!["Bill"]]);

        // Relabel doc-2 "Boston"(4) to B-ORG → Ann co-occurs.
        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 4, "B-ORG");
        let out = view.apply_delta(&d);
        assert_eq!(out.count(&tuple!["Ann"]), 1);
        assert_view_matches_exec(&view, &plan, &db);

        // Remove doc-1 Boston's ORG label → Bill leaves the answer.
        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 3, "B-LOC");
        view.apply_delta(&d);
        assert!(!view.result().contains(&tuple!["Bill"]));
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn distinct_view_tracks_support_crossings() {
        let mut db = token_db();
        let plan = paper_queries::query1("TOKEN").distinct();
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        assert_eq!(view.result().count(&tuple!["Ann"]), 1);

        // Remove one of the two Ann mentions: distinct count unchanged.
        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 6, "O");
        let out = view.apply_delta(&d);
        assert!(out.is_empty());
        // Remove the second: Ann leaves.
        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 8, "O");
        let out = view.apply_delta(&d);
        assert_eq!(out.count(&tuple!["Ann"]), -1);
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn product_view_maintenance() {
        let mut db = token_db();
        let plan = Plan::scan_as("TOKEN", "A")
            .filter(Expr::col("A.label").eq(Expr::lit("B-ORG")))
            .project(&["A.string"])
            .product(
                Plan::scan_as("TOKEN", "B")
                    .filter(Expr::col("B.label").eq(Expr::lit("B-LOC")))
                    .project(&["B.string"]),
            );
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        assert_view_matches_exec(&view, &plan, &db);

        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 4, "B-ORG"); // moves a tuple across both sides
        view.apply_delta(&d);
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn insert_and_delete_tuples_through_view() {
        let mut db = token_db();
        let plan = paper_queries::query1("TOKEN");
        let mut view = MaterializedView::new(&plan, &db).unwrap();

        let mut d = DeltaSet::new();
        let t = tuple![9i64, 3i64, "Grace", "B-PER", "B-PER"];
        db.relation_mut("TOKEN").unwrap().insert(t.clone()).unwrap();
        d.record_insert(&Arc::from("TOKEN"), t);
        let out = view.apply_delta(&d);
        assert_eq!(out.count(&tuple!["Grace"]), 1);
        assert_view_matches_exec(&view, &plan, &db);

        let mut d = DeltaSet::new();
        let rel = db.relation_mut("TOKEN").unwrap();
        let rid = rel.find_by_pk(&Value::Int(9)).unwrap();
        let gone = rel.delete(rid).unwrap();
        d.record_delete(&Arc::from("TOKEN"), gone);
        view.apply_delta(&d);
        assert!(!view.result().contains(&tuple!["Grace"]));
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn min_max_aggregates_survive_deletion_of_extremum() {
        let mut db = token_db();
        let plan = Plan::scan("TOKEN").aggregate(
            &["doc_id"],
            vec![
                AggExpr::new(AggFunc::Min(Arc::from("tok_id")), "lo"),
                AggExpr::new(AggFunc::Max(Arc::from("tok_id")), "hi"),
            ],
        );
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        assert!(view.result().contains(&tuple![1i64, 1i64, 3i64]));

        // Delete tok 3 (the max of doc 1); view must fall back to tok 2.
        let mut d = DeltaSet::new();
        let rel = db.relation_mut("TOKEN").unwrap();
        let rid = rel.find_by_pk(&Value::Int(3)).unwrap();
        let gone = rel.delete(rid).unwrap();
        d.record_delete(&Arc::from("TOKEN"), gone);
        view.apply_delta(&d);
        assert!(view.result().contains(&tuple![1i64, 1i64, 2i64]));
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn group_disappears_when_last_row_leaves() {
        let mut db = token_db();
        let plan = Plan::scan("TOKEN")
            .filter(Expr::col("label").eq(Expr::lit("B-PER")))
            .aggregate(&["doc_id"], vec![AggExpr::new(AggFunc::Count, "n")]);
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        assert!(view.result().contains(&tuple![2i64, 1i64]));

        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 6, "O");
        let out = view.apply_delta(&d);
        assert_eq!(out.count(&tuple![2i64, 1i64]), -1);
        assert!(!view.result().contains(&tuple![2i64, 1i64]));
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn disjoint_relation_delta_does_no_work() {
        // A delta touching only relation OTHER must not advance
        // delta_rows_processed in a view reading only TOKEN — the root
        // short-circuits before any operator-tree recursion.
        let mut db = token_db();
        db.create_relation("OTHER", token_schema()).unwrap();
        for plan in [
            paper_queries::query1("TOKEN"),
            paper_queries::query2("TOKEN"),
            paper_queries::query3("TOKEN"),
            paper_queries::query4("TOKEN"),
        ] {
            let mut view = MaterializedView::new(&plan, &db).unwrap();
            assert_eq!(
                view.source_relations()
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>(),
                vec!["TOKEN"]
            );
            let before = view.stats();
            let mut d = DeltaSet::new();
            d.record_insert(
                &Arc::from("OTHER"),
                tuple![99i64, 9i64, "X", "B-PER", "B-PER"],
            );
            let out = view.apply_delta(&d);
            assert!(out.is_empty());
            let after = view.stats();
            assert_eq!(after.delta_rows_processed, before.delta_rows_processed);
            assert_eq!(after.deltas_applied, before.deltas_applied + 1);
            assert_view_matches_exec(&view, &plan, &db);
        }
    }

    #[test]
    fn uncompacted_cancelled_delta_short_circuits() {
        // Deferred compaction may leave an *empty* per-relation entry in the
        // DeltaSet; the view must treat it as untouched.
        let db = token_db();
        let plan = paper_queries::query1("TOKEN");
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        let mut d = DeltaSet::new();
        let t = tuple![50i64, 9i64, "Zed", "B-PER", "B-PER"];
        d.record_insert(&Arc::from("TOKEN"), t.clone());
        d.record_delete(&Arc::from("TOKEN"), t);
        // No compact() call — the empty TOKEN entry is still allocated.
        let before = view.stats().delta_rows_processed;
        let out = view.apply_delta(&d);
        assert!(out.is_empty());
        assert_eq!(view.stats().delta_rows_processed, before);
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn empty_delta_is_cheap_noop() {
        let db = token_db();
        let plan = paper_queries::query4("TOKEN");
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        let before = view.stats();
        let out = view.apply_delta(&DeltaSet::new());
        assert!(out.is_empty());
        let after = view.stats();
        assert_eq!(after.delta_rows_processed, before.delta_rows_processed);
        assert_eq!(after.deltas_applied, before.deltas_applied + 1);
    }

    #[test]
    fn delta_work_is_independent_of_db_size() {
        // The heart of Fig. 4(a): delta application work must not scale with
        // the relation size for selection/projection queries.
        let mut work_small = 0;
        let mut work_large = 0;
        for (n, work) in [(50usize, &mut work_small), (5000usize, &mut work_large)] {
            let mut db = Database::new();
            db.create_relation("TOKEN", token_schema()).unwrap();
            {
                let rel = db.relation_mut("TOKEN").unwrap();
                for i in 0..n {
                    rel.insert(tuple![i as i64, (i / 10) as i64, format!("w{i}"), "O", "O"])
                        .unwrap();
                }
            }
            let plan = paper_queries::query1("TOKEN");
            let mut view = MaterializedView::new(&plan, &db).unwrap();
            let mut d = DeltaSet::new();
            let rel = db.relation_mut("TOKEN").unwrap();
            let rid = rel.find_by_pk(&Value::Int(7)).unwrap();
            let col = rel.schema().index_of("label").unwrap();
            let (old, new) = rel.update_field(rid, col, Value::str("B-PER")).unwrap();
            d.record_update(&Arc::from("TOKEN"), old, new);
            view.apply_delta(&d);
            *work = view.stats().delta_rows_processed;
        }
        assert_eq!(work_small, work_large);
    }

    #[test]
    fn compile_rejects_unknown_relation() {
        let db = token_db();
        let plan = Plan::scan("MISSING");
        assert!(MaterializedView::new(&plan, &db).is_err());
    }

    #[test]
    fn row_id_type_is_reexported_in_tests() {
        // RowId participates in the relabel helper path; keep it referenced.
        let _ = RowId(0);
    }

    #[test]
    fn union_view_adds_multiplicities() {
        let mut db = token_db();
        let plan = paper_queries::query1("TOKEN").union(
            Plan::scan("TOKEN")
                .filter(Expr::col("label").eq(Expr::lit("B-ORG")))
                .project(&["string"]),
        );
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        assert_view_matches_exec(&view, &plan, &db);
        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 2, "B-ORG"); // "said" enters via the right arm
        let out = view.apply_delta(&d);
        assert_eq!(out.count(&tuple!["said"]), 1);
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn difference_view_monus_semantics() {
        let mut db = token_db();
        // Strings of non-O tokens minus strings of B-PER tokens.
        let plan = Plan::scan("TOKEN")
            .filter(Expr::col("label").ne(Expr::lit("O")))
            .project(&["string"])
            .difference(paper_queries::query1("TOKEN"));
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        assert_view_matches_exec(&view, &plan, &db);
        // "Ann"(6) flips to O: leaves the left side AND the subtrahend.
        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 6, "O");
        view.apply_delta(&d);
        assert_view_matches_exec(&view, &plan, &db);
        // Flip "Boston"(4) to B-PER: both sides change for one tuple.
        let mut d = DeltaSet::new();
        relabel(&mut db, &mut d, 4, "B-PER");
        view.apply_delta(&d);
        assert_view_matches_exec(&view, &plan, &db);
    }

    #[test]
    fn intersect_view_min_semantics() {
        let mut db = token_db();
        let plan = Plan::scan("TOKEN")
            .filter(Expr::col("label").ne(Expr::lit("O")))
            .project(&["string"])
            .intersect(
                Plan::scan("TOKEN")
                    .filter(Expr::col("doc_id").le(Expr::lit(2i64)))
                    .project(&["string"]),
            );
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        assert_view_matches_exec(&view, &plan, &db);
        for (tok, label) in [(7, "O"), (1, "O"), (5, "B-LOC")] {
            let mut d = DeltaSet::new();
            relabel(&mut db, &mut d, tok, label);
            view.apply_delta(&d);
            assert_view_matches_exec(&view, &plan, &db);
        }
    }

    #[test]
    fn set_op_arity_mismatch_rejected() {
        let db = token_db();
        let plan = Plan::scan("TOKEN")
            .project(&["string"])
            .union(Plan::scan_as("TOKEN", "B").project(&["B.string", "B.doc_id"]));
        assert!(MaterializedView::new(&plan, &db).is_err());
    }
}
