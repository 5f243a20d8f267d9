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
//! A [`MaterializedView`] compiles a [`Plan`] into a Z-set operator circuit
//! ([`crate::circuit`]) and owns it together with the answer it maintains:
//! a flat list of stateful nodes in topological order, each consuming and
//! producing signed [`CountedSet`] deltas, the one Z-set type from the
//! world deltas up to the answer. Feeding the view a
//! [`DeltaSet`] is one bottom-up sweep that returns the delta of the answer
//! set; the cost is proportional to |Δ| (and the fan-out of joins touched),
//! never to |w|. Building the view — the one full evaluation — is not a
//! sweep: the circuit's stateful nodes are filled by the same split scan
//! pipelines [`crate::execute`] runs, so a view costs about what one ad hoc
//! run of its query does.
//!
//! Supported operators: σ, π (multiset), ×, equi-⋈, γ (COUNT / filtered
//! COUNT / SUM / MIN / MAX, grouped or global), δ (distinct), ∪ (bag
//! union), ∖ (monus difference), ∩ (bag intersection), and linear recursion
//! ([`Plan::Fixpoint`]). This covers all four evaluation queries of §5 —
//! including the aggregate queries the paper highlights as trivially
//! handled by sampling evaluation — and the full algebra beyond them.
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

use crate::algebra::Plan;
use crate::circuit::{CircuitError, CircuitStats, Flow};
use crate::counted::CountedSet;
use crate::database::Database;
use crate::delta::DeltaSet;
use crate::exec::Split;
use std::sync::Arc;

/// A query answer maintained incrementally under world deltas: the compiled
/// operator circuit, the answer it maintains, and the work it has done.
pub struct MaterializedView {
    flow: Flow,
    result: CountedSet,
    columns: Vec<Arc<str>>,
    sources: Vec<Arc<str>>,
    stats: CircuitStats,
    poisoned: Option<CircuitError>,
}

impl MaterializedView {
    /// Compiles `plan` and runs the one-time full evaluation over the
    /// initial world `w₀` (Algorithm 1 line 2: "run full query to get
    /// initial results") with the executor's pipelines: a relation of two
    /// morsels or more ([`crate::exec::MORSEL_CHUNKS`] chunks each) is
    /// scanned on every core, and the result and [`MaterializedView::stats`]
    /// are those of a one-worker build.
    pub fn new(plan: &Plan, db: &Database) -> Result<Self, CircuitError> {
        MaterializedView::build(plan, db, Split::machine())
    }

    /// [`MaterializedView::new`] with the build split as `split` allows.
    pub(crate) fn build(plan: &Plan, db: &Database, split: Split) -> Result<Self, CircuitError> {
        let columns = plan.output_columns(db)?;
        let mut stats = CircuitStats::default();
        let (flow, result) = Flow::build(plan, db, split, &mut stats)?;
        Ok(MaterializedView {
            flow,
            result,
            columns,
            sources: plan.base_relations(),
            stats,
            poisoned: None,
        })
    }

    /// Applies a world delta, updating the maintained answer and returning
    /// the answer's own signed delta (what Algorithm 1 line 5 consumes).
    ///
    /// A delta disjoint from the view's source relations short-circuits at
    /// the root: no operator sweep, no per-node allocation. A circuit error
    /// (inconsistent stream, iteration cap) poisons the view — see
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

    /// Fallible delta application: the circuit's typed errors propagate
    /// instead of poisoning the view silently. On error the view's state
    /// may be partially updated and it should be rebuilt.
    pub fn try_apply_delta(&mut self, deltas: &DeltaSet) -> Result<CountedSet, CircuitError> {
        self.stats.deltas_applied += 1;
        if !self
            .sources
            .iter()
            .any(|r| deltas.for_relation(r).is_some())
        {
            return Ok(CountedSet::new());
        }
        let out = self.flow.apply(deltas, &mut self.stats)?;
        self.result.merge(&out);
        Ok(out)
    }

    /// The first error that poisoned this view via
    /// [`MaterializedView::apply_delta`], if any. A poisoned view's answer
    /// is no longer trustworthy and should be rebuilt.
    pub fn error(&self) -> Option<&CircuitError> {
        self.poisoned.as_ref()
    }

    /// The current maintained answer multiset.
    pub fn result(&self) -> &CountedSet {
        &self.result
    }

    /// Output column names.
    pub fn columns(&self) -> &[Arc<str>] {
        &self.columns
    }

    /// Base relations this view reads (sorted, deduplicated). Deltas
    /// disjoint from this set are guaranteed no-ops.
    pub fn source_relations(&self) -> &[Arc<str>] {
        &self.sources
    }

    /// Work counters: batches, delta rows, initialization scan, and the
    /// recursion counters of any fixpoint node.
    pub fn stats(&self) -> CircuitStats {
        self.stats
    }
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
    use crate::value::{Value, ValueType};

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
