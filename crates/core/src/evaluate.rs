//! The two sampling query evaluators — Algorithm 3 (naive) and Algorithm 1
//! (materialized-view maintenance) — plus the parallel evaluator of §5.4.
//!
//! Both evaluators interleave `k` MH walk-steps (thinning) with an answer
//! observation and share the marginal bookkeeping of [`MarginalTable`]; they
//! differ *only* in how the answer is obtained:
//!
//! * **naive** re-executes the full query over the stored world — Θ(|w|)
//!   per sample;
//! * **materialized** maintains the answer incrementally from the Δ⁻/Δ⁺
//!   sets produced by MCMC — Θ(|Δ|) per sample (Eq. 6).
//!
//! The paper's headline result (Fig. 4) is that the second is orders of
//! magnitude faster at scale while producing *identical* samples, which the
//! test-suite asserts literally: both evaluators driven by the same seed
//! yield byte-identical marginal tables.

use crate::marginals::MarginalTable;
use crate::membership::{crossings, Crossing};
use crate::pdb::ProbabilisticDB;
use fgdb_graph::{Model, ModelError};
use fgdb_relational::{
    compile_query, execute, CircuitError, CountedSet, ExecError, MaterializedView, Plan,
    QueryError, StorageError,
};
use std::fmt;

/// Errors raised during evaluation.
#[derive(Debug)]
pub enum EvaluateError {
    /// An operation needed the maintained answer of a materialized
    /// evaluator but the evaluator runs the naive strategy (no view to
    /// consult between full recomputations).
    NotMaterialized,
    /// Query planning/execution failure.
    Exec(ExecError),
    /// Storage failure while applying MCMC changes.
    Storage(StorageError),
    /// SQL parsing or plan compilation failure (the `query(&str)` path).
    Query(QueryError),
    /// Model/world addressing failure (malformed proposal or model) —
    /// surfaced as an error instead of aborting the engine thread.
    Model(ModelError),
    /// View-maintenance failure (circuit compile error, recursion cap,
    /// inconsistent delta stream).
    View(CircuitError),
}

impl fmt::Display for EvaluateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvaluateError::NotMaterialized => {
                write!(f, "operation requires a materialized evaluator")
            }
            EvaluateError::Exec(e) => write!(f, "execution error: {e}"),
            EvaluateError::Storage(e) => write!(f, "storage error: {e}"),
            EvaluateError::Query(e) => write!(f, "query error: {e}"),
            EvaluateError::Model(e) => write!(f, "model error: {e}"),
            EvaluateError::View(e) => write!(f, "view error: {e}"),
        }
    }
}

impl std::error::Error for EvaluateError {}

impl From<ExecError> for EvaluateError {
    fn from(e: ExecError) -> Self {
        EvaluateError::Exec(e)
    }
}
impl From<StorageError> for EvaluateError {
    fn from(e: StorageError) -> Self {
        EvaluateError::Storage(e)
    }
}
impl From<QueryError> for EvaluateError {
    fn from(e: QueryError) -> Self {
        EvaluateError::Query(e)
    }
}
impl From<ModelError> for EvaluateError {
    fn from(e: ModelError) -> Self {
        EvaluateError::Model(e)
    }
}
impl From<CircuitError> for EvaluateError {
    fn from(e: CircuitError) -> Self {
        EvaluateError::View(e)
    }
}

/// Work performed by one sampling iteration (machine-independent cost
/// measures, complementing wall-clock time).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SampleWork {
    /// Base tuples scanned by a full query execution (naive only).
    pub tuples_scanned: u64,
    /// Delta rows pushed through view operators (materialized only).
    pub delta_rows: u64,
    /// Net changed tuples in this thinning interval.
    pub delta_magnitude: u64,
    /// Answer rows read to observe this sample: the rows of the view's
    /// output delta (materialized) or of the re-executed answer (naive).
    pub answer_rows_touched: u64,
}

/// Cumulative work counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvaluatorWork {
    /// Sum of per-sample tuple scans.
    pub tuples_scanned: u64,
    /// Sum of per-sample delta rows.
    pub delta_rows: u64,
    /// Samples drawn.
    pub samples: u64,
    /// Sum of per-sample answer rows touched, plus the initial answer a
    /// materialized evaluator records once.
    pub answer_rows_touched: u64,
}

enum StrategyState {
    Naive,
    Materialized(Box<MaterializedView>),
}

/// A sampling query evaluator bound to one plan.
pub struct QueryEvaluator {
    plan: Plan,
    state: StrategyState,
    marginals: MarginalTable,
    /// Membership crossings of the most recently recorded sample.
    crossings: Vec<Crossing>,
    /// The view's output delta of the most recent sample (materialized
    /// only).
    answer_delta: CountedSet,
    /// Thinning interval k (steps per sample; the paper uses 10 000).
    k: usize,
    work: EvaluatorWork,
}

impl QueryEvaluator {
    /// Algorithm 3: the naive evaluator. No initialization work — each
    /// sample re-runs the query.
    pub fn naive<M: Model>(
        plan: Plan,
        _pdb: &ProbabilisticDB<M>,
        k: usize,
    ) -> Result<Self, EvaluateError> {
        Ok(QueryEvaluator {
            plan,
            state: StrategyState::Naive,
            marginals: MarginalTable::new(),
            crossings: Vec::new(),
            answer_delta: CountedSet::new(),
            k,
            work: EvaluatorWork::default(),
        })
    }

    /// [`Self::naive`] from SQL text: the query is parsed and optimized
    /// against the current catalog, then evaluated by full re-execution.
    pub fn naive_sql<M: Model>(
        sql: &str,
        pdb: &ProbabilisticDB<M>,
        k: usize,
    ) -> Result<Self, EvaluateError> {
        let plan = compile_query(sql, pdb.database())?;
        Self::naive(plan, pdb, k)
    }

    /// [`Self::materialized`] from SQL text: parse → optimize → compile the
    /// plan into an incrementally maintained view (Algorithm 1).
    pub fn materialized_sql<M: Model>(
        sql: &str,
        pdb: &ProbabilisticDB<M>,
        k: usize,
    ) -> Result<Self, EvaluateError> {
        let plan = compile_query(sql, pdb.database())?;
        Self::materialized(plan, pdb, k)
    }

    /// Algorithm 1: the view-maintenance evaluator. Runs the full query once
    /// over the initial world and records it as the first sample
    /// (Algorithm 1's initialization: `s ← Q(w₀)`, `z ← 1`).
    pub fn materialized<M: Model>(
        plan: Plan,
        pdb: &ProbabilisticDB<M>,
        k: usize,
    ) -> Result<Self, EvaluateError> {
        let view = MaterializedView::new(&plan, pdb.database())?;
        let mut marginals = MarginalTable::new();
        let crossings = marginals.diff(view.result());
        marginals.record_crossings(&crossings);
        let work = EvaluatorWork {
            samples: 1,
            tuples_scanned: view.stats().init_tuples_scanned,
            answer_rows_touched: view.result().distinct_len() as u64,
            ..Default::default()
        };
        Ok(QueryEvaluator {
            plan,
            state: StrategyState::Materialized(Box::new(view)),
            marginals,
            crossings,
            answer_delta: CountedSet::new(),
            k,
            work,
        })
    }

    /// The query plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Thinning interval.
    pub fn thinning(&self) -> usize {
        self.k
    }

    /// Current marginal estimates.
    pub fn marginals(&self) -> &MarginalTable {
        &self.marginals
    }

    /// Cumulative work counters.
    pub fn work(&self) -> EvaluatorWork {
        self.work
    }

    /// The answer-membership crossings of the most recently recorded
    /// sample: what every per-sample consumer of the answer — the marginal
    /// table here, a [`crate::MembershipLog`] downstream — is driven by.
    /// Right after construction a materialized evaluator reports its
    /// initial answer entering (Algorithm 1 records it as the first
    /// sample); a naive one, which has recorded nothing yet, reports none.
    pub fn last_crossings(&self) -> &[Crossing] {
        &self.crossings
    }

    /// The signed answer delta of the most recently recorded sample — every
    /// tuple whose multiplicity it changed, crossing or not. `None` for a
    /// naive evaluator, which re-reads the answer instead of maintaining
    /// one; empty right after construction (the initial answer is a whole
    /// answer, not a delta).
    pub fn last_answer_delta(&self) -> Option<&CountedSet> {
        match self.state {
            StrategyState::Materialized(_) => Some(&self.answer_delta),
            StrategyState::Naive => None,
        }
    }

    /// Draws one sample: k walk-steps, then observe the answer (by full
    /// execution or delta maintenance) and update the marginal counts.
    pub fn sample<M: Model>(
        &mut self,
        pdb: &mut ProbabilisticDB<M>,
    ) -> Result<SampleWork, EvaluateError> {
        let deltas = pdb.step(self.k)?;
        self.observe(&deltas, pdb.database())
    }

    /// The answer-observation half of [`Self::sample`], with the interval's
    /// delta produced externally: records one sample from `deltas` and the
    /// current stored world. This is how a durability-wrapped database
    /// drives an evaluator — `crate::durable::DurablePdb::step` logs the
    /// interval to the WAL and returns the same delta `sample` would have
    /// produced, which is then observed here:
    ///
    /// ```no_run
    /// # fn demo(
    /// #     durable: &mut fgdb_core::DurablePdb<fgdb_graph::FactorGraph>,
    /// #     eval: &mut fgdb_core::QueryEvaluator,
    /// # ) -> Result<(), Box<dyn std::error::Error>> {
    /// let deltas = durable.step(eval.thinning())?; // logged interval
    /// eval.observe(&deltas, durable.database())?; // marginal update
    /// # Ok(())
    /// # }
    /// ```
    pub fn observe(
        &mut self,
        deltas: &fgdb_relational::DeltaSet,
        db: &fgdb_relational::Database,
    ) -> Result<SampleWork, EvaluateError> {
        if let StrategyState::Materialized(_) = self.state {
            return self.observe_delta(deltas);
        }
        // Algorithm 3 line 5: s ← Q(w).
        let (result, stats) = execute(&self.plan, db)?;
        self.work.tuples_scanned += stats.tuples_scanned;
        self.crossings = self.marginals.diff(&result.rows);
        Ok(self.record(SampleWork {
            tuples_scanned: stats.tuples_scanned,
            delta_magnitude: deltas.magnitude() as u64,
            answer_rows_touched: result.rows.distinct_len() as u64,
            ..Default::default()
        }))
    }

    /// [`Self::observe`] for a materialized evaluator, which reads only the
    /// interval's delta, never the world it came from — so a stage that
    /// holds no world can run it. A naive evaluator is
    /// [`EvaluateError::NotMaterialized`].
    pub(crate) fn observe_delta(
        &mut self,
        deltas: &fgdb_relational::DeltaSet,
    ) -> Result<SampleWork, EvaluateError> {
        let StrategyState::Materialized(view) = &mut self.state else {
            return Err(EvaluateError::NotMaterialized);
        };
        // Algorithm 1 line 5: s ← s − Q'(w,Δ⁻) ∪ Q'(w,Δ⁺).
        let before = view.stats().delta_rows_processed;
        let answer_delta = view.try_apply_delta(deltas)?;
        let used = view.stats().delta_rows_processed - before;
        self.work.delta_rows += used;
        // Only a tuple of the answer's own delta can change membership;
        // the rest of the answer is never read.
        self.crossings = crossings(&answer_delta, view.result()).collect();
        let answer_rows_touched = answer_delta.distinct_len() as u64;
        self.answer_delta = answer_delta;
        Ok(self.record(SampleWork {
            delta_rows: used,
            delta_magnitude: deltas.magnitude() as u64,
            answer_rows_touched,
            ..Default::default()
        }))
    }

    /// Records the sample whose crossings `self.crossings` holds.
    fn record(&mut self, sample_work: SampleWork) -> SampleWork {
        self.marginals.record_crossings(&self.crossings);
        self.work.answer_rows_touched += sample_work.answer_rows_touched;
        self.work.samples += 1;
        sample_work
    }

    /// Draws `n` samples (the body of Algorithms 1/3).
    pub fn run<M: Model>(
        &mut self,
        pdb: &mut ProbabilisticDB<M>,
        n: usize,
    ) -> Result<(), EvaluateError> {
        for _ in 0..n {
            self.sample(pdb)?;
        }
        Ok(())
    }

    /// The maintained answer set (materialized evaluator only) — lets
    /// callers inspect the current world's deterministic answer.
    pub fn current_answer(&self) -> Option<&fgdb_relational::CountedSet> {
        match &self.state {
            StrategyState::Materialized(v) => Some(v.result()),
            StrategyState::Naive => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdb::FieldBinding;
    use fgdb_graph::enumerate::exact_event_probability;
    use fgdb_graph::{Domain, EvalStats, FactorGraph, TableFactor, VariableId, World};
    use fgdb_mcmc::UniformRelabel;
    use fgdb_relational::{tuple, Database, Expr, Schema, Tuple, ValueType};

    /// A 4-row relation ITEM(id, state) with uncertain `state` over
    /// {"off","on"}; variable i has a bias factor of strength `w[i]` toward
    /// "on", plus a coupling between variables 0 and 1.
    fn build_pdb(seed: u64) -> (ProbabilisticDB<FactorGraph>, World) {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[("id", ValueType::Int), ("state", ValueType::Str)])
            .unwrap()
            .with_primary_key("id")
            .unwrap();
        db.create_relation("ITEM", schema).unwrap();
        let mut rows = Vec::new();
        for i in 0..4i64 {
            rows.push(
                db.relation_mut("ITEM")
                    .unwrap()
                    .insert(tuple![i, "off"])
                    .unwrap(),
            );
        }
        let d = Domain::of_labels(&["off", "on"]);
        let world = World::new(vec![d.clone(), d.clone(), d.clone(), d]);
        let mut g = FactorGraph::new();
        for (i, w) in [0.8, -0.4, 1.2, 0.0].into_iter().enumerate() {
            g.add_factor(Box::new(TableFactor::new(
                vec![VariableId(i as u32)],
                vec![2],
                vec![0.0, w],
                format!("bias{i}"),
            )));
        }
        g.add_factor(Box::new(TableFactor::new(
            vec![VariableId(0), VariableId(1)],
            vec![2, 2],
            vec![0.5, 0.0, 0.0, 0.5],
            "couple",
        )));
        let binding = FieldBinding::new(&db, "ITEM", "state", rows).unwrap();
        let vars: Vec<_> = (0..4).map(VariableId).collect();
        let pdb = ProbabilisticDB::new(
            db,
            g,
            Box::new(UniformRelabel::new(vars)),
            world.clone(),
            binding,
            seed,
        )
        .unwrap();
        (pdb, world)
    }

    fn on_items_query() -> Plan {
        Plan::scan("ITEM")
            .filter(Expr::col("state").eq(Expr::lit("on")))
            .project(&["id"])
    }

    #[test]
    fn naive_and_materialized_agree_exactly() {
        // "the two approaches generate the same set of samples" (§5.3):
        // same seed → identical marginal tables.
        let (mut pdb_a, _) = build_pdb(77);
        let (mut pdb_b, _) = build_pdb(77);
        let mut naive = QueryEvaluator::naive(on_items_query(), &pdb_a, 3).unwrap();
        let mut mat = QueryEvaluator::materialized(on_items_query(), &pdb_b, 3).unwrap();
        // The materialized evaluator records the initial world as a sample;
        // record it for the naive one too so the z counters line up.
        {
            let (res, _) = execute(&on_items_query(), pdb_a.database()).unwrap();
            // Initial world has nothing "on" → empty answer, but z must advance.
            let mut m = MarginalTable::new();
            m.record(&res.rows);
            // Emulate by sampling zero steps: directly record through a
            // manual path — simplest is to compare probabilities scaled by
            // sample counts below instead.
            drop(m);
        }
        naive.run(&mut pdb_a, 60).unwrap();
        mat.run(&mut pdb_b, 60).unwrap();
        // Compare per-tuple counts: naive has 60 samples, materialized 61
        // (one initial). Probabilities must agree on the 60 shared samples;
        // since the initial world's answer is empty the counts are equal.
        assert_eq!(naive.marginals().samples(), 60);
        assert_eq!(mat.marginals().samples(), 61);
        for (t, p_naive) in naive.marginals().probabilities() {
            let count_naive = (p_naive * 60.0).round() as u64;
            let count_mat = (mat.marginals().probability(&t) * 61.0).round() as u64;
            assert_eq!(count_naive, count_mat, "counts differ for {t}");
        }
        // And the maintained answer equals a fresh execution at the end.
        let (fresh, _) = execute(&on_items_query(), pdb_b.database()).unwrap();
        assert_eq!(
            mat.current_answer().unwrap().sorted_entries(),
            fresh.rows.sorted_entries()
        );
    }

    #[test]
    fn marginals_converge_to_exact_probabilities() {
        let (mut pdb, world) = build_pdb(5);
        let mut eval = QueryEvaluator::materialized(on_items_query(), &pdb, 5).unwrap();
        eval.run(&mut pdb, 8000).unwrap();

        // Exact: P(item i on) from enumeration of the factor graph.
        let model = {
            // Rebuild the same graph for enumeration.
            let (pdb2, _) = build_pdb(5);
            // Use pdb2's model by scoring — we need an owned graph; rebuild:
            drop(pdb2);
            let mut g = FactorGraph::new();
            for (i, w) in [0.8, -0.4, 1.2, 0.0].into_iter().enumerate() {
                g.add_factor(Box::new(TableFactor::new(
                    vec![VariableId(i as u32)],
                    vec![2],
                    vec![0.0, w],
                    format!("bias{i}"),
                )));
            }
            g.add_factor(Box::new(TableFactor::new(
                vec![VariableId(0), VariableId(1)],
                vec![2, 2],
                vec![0.5, 0.0, 0.0, 0.5],
                "couple",
            )));
            g
        };
        let vars: Vec<_> = (0..4).map(VariableId).collect();
        let mut w = world.clone();
        for i in 0..4u32 {
            let exact =
                exact_event_probability(&model, &mut w, &vars, |wd| wd.get(VariableId(i)) == 1);
            let est = eval.marginals().probability(&tuple![i as i64]);
            assert!(
                (est - exact).abs() < 0.03,
                "item {i}: estimated {est:.3} vs exact {exact:.3}"
            );
        }
        let _ = EvalStats::default();
    }

    #[test]
    fn materialized_does_less_query_work() {
        let (mut pdb_a, _) = build_pdb(9);
        let (mut pdb_b, _) = build_pdb(9);
        let mut naive = QueryEvaluator::naive(on_items_query(), &pdb_a, 2).unwrap();
        let mut mat = QueryEvaluator::materialized(on_items_query(), &pdb_b, 2).unwrap();
        naive.run(&mut pdb_a, 100).unwrap();
        mat.run(&mut pdb_b, 100).unwrap();
        // Naive scans all 4 tuples per sample; materialized scans only at init.
        assert_eq!(naive.work().tuples_scanned, 400);
        assert_eq!(mat.work().tuples_scanned, 4);
        assert!(mat.work().delta_rows < naive.work().tuples_scanned);
    }

    #[test]
    fn per_sample_work_reports() {
        let (mut pdb, _) = build_pdb(4);
        let mut mat = QueryEvaluator::materialized(on_items_query(), &pdb, 5).unwrap();
        let w = mat.sample(&mut pdb).unwrap();
        assert_eq!(w.tuples_scanned, 0);
        assert!(w.delta_rows <= 20, "delta work bounded by changes");
        // Observation read the rows that crossed, not the answer.
        assert_eq!(w.answer_rows_touched, mat.last_crossings().len() as u64);
        let mut naive = QueryEvaluator::naive(on_items_query(), &pdb, 5).unwrap();
        let w = naive.sample(&mut pdb).unwrap();
        assert_eq!(w.tuples_scanned, 4);
        assert_eq!(w.delta_rows, 0);
        // Algorithm 3 re-reads the whole answer every sample.
        let (fresh, _) = execute(&on_items_query(), pdb.database()).unwrap();
        assert_eq!(w.answer_rows_touched, fresh.rows.distinct_len() as u64);
        assert!(naive.current_answer().is_none());
    }

    /// Sorted (tuple, probability) pairs for byte-exact table comparison.
    fn table_entries(t: &MarginalTable) -> Vec<(Tuple, u64)> {
        let mut v: Vec<(Tuple, u64)> = t
            .probabilities()
            .into_iter()
            .map(|(tup, p)| (tup, (p * t.samples() as f64).round() as u64))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn sql_text_drives_both_evaluators_byte_identically() {
        let sql = "SELECT id FROM ITEM WHERE state = 'on'";
        // Naive: plan-built vs SQL-built, same seeds.
        let (mut pdb_a, _) = build_pdb(21);
        let (mut pdb_b, _) = build_pdb(21);
        let mut by_plan = QueryEvaluator::naive(on_items_query(), &pdb_a, 3).unwrap();
        let mut by_sql = QueryEvaluator::naive_sql(sql, &pdb_b, 3).unwrap();
        by_plan.run(&mut pdb_a, 50).unwrap();
        by_sql.run(&mut pdb_b, 50).unwrap();
        assert_eq!(
            table_entries(by_plan.marginals()),
            table_entries(by_sql.marginals()),
            "naive: SQL text diverged from hand-built plan"
        );
        // Materialized: same exercise through the incremental path.
        let (mut pdb_a, _) = build_pdb(22);
        let (mut pdb_b, _) = build_pdb(22);
        let mut by_plan = QueryEvaluator::materialized(on_items_query(), &pdb_a, 3).unwrap();
        let mut by_sql = QueryEvaluator::materialized_sql(sql, &pdb_b, 3).unwrap();
        by_plan.run(&mut pdb_a, 50).unwrap();
        by_sql.run(&mut pdb_b, 50).unwrap();
        assert_eq!(
            table_entries(by_plan.marginals()),
            table_entries(by_sql.marginals()),
            "materialized: SQL text diverged from hand-built plan"
        );
        // And the maintained answer still equals a fresh execution.
        let (fresh, _) = execute(&on_items_query(), pdb_b.database()).unwrap();
        assert_eq!(
            by_sql.current_answer().unwrap().sorted_entries(),
            fresh.rows.sorted_entries()
        );
    }

    #[test]
    fn malformed_sql_is_an_error_not_a_panic() {
        let (pdb, _) = build_pdb(1);
        for bad in [
            "",
            "SELECT",
            "SELECT * FROM",
            "SELECT nope FROM ITEM",
            "SELECT id FROM MISSING",
            "SELECT id FROM ITEM WHERE COUNT(*) > 1",
            "SELECT id FROM ITEM WHERE state = ",
            "SELECT id FROM ITEM GROUP BY",
        ] {
            assert!(
                matches!(
                    QueryEvaluator::materialized_sql(bad, &pdb, 2),
                    Err(EvaluateError::Query(_))
                ),
                "`{bad}` must surface as EvaluateError::Query"
            );
            assert!(pdb.query(bad).is_err(), "`{bad}` must fail one-shot too");
        }
    }

    #[test]
    fn one_shot_query_answers_current_world() {
        let (mut pdb, _) = build_pdb(9);
        // Initial world: nothing on.
        let res = pdb.query("SELECT id FROM ITEM WHERE state = 'on'").unwrap();
        assert!(res.rows.is_empty());
        let res = pdb
            .query("SELECT COUNT(*) FILTER (WHERE state = 'off') AS n FROM ITEM")
            .unwrap();
        assert_eq!(res.rows.sorted_support(), vec![tuple![4i64]]);
        // After stepping, the one-shot answer tracks the stored world.
        pdb.step(50).unwrap();
        let (res, stats) = pdb
            .query_with_stats("SELECT id FROM ITEM WHERE state = 'on'")
            .unwrap();
        let (fresh, _) = execute(&on_items_query(), pdb.database()).unwrap();
        assert_eq!(res.rows.sorted_entries(), fresh.rows.sorted_entries());
        assert_eq!(stats.tuples_scanned, 4);
    }

    #[test]
    fn evaluator_accessors() {
        let (pdb, _) = build_pdb(1);
        let eval = QueryEvaluator::materialized(on_items_query(), &pdb, 7).unwrap();
        assert_eq!(eval.thinning(), 7);
        assert_eq!(eval.plan(), &on_items_query());
        assert_eq!(eval.marginals().samples(), 1);
        assert_eq!(eval.work().samples, 1);
    }
}
