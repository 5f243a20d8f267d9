//! Differential property suite for the Z-set circuit behind
//! [`MaterializedView`].
//!
//! The oracle is **naive re-execution** of the unoptimized plan from
//! scratch. On every database and every delta stream the maintained view
//! must equal it, and every emitted per-batch delta must equal the signed
//! difference of two re-executions, after minus before the batch.
//!
//! Random well-typed SQL reuses the planner suite's generators; recursive
//! queries additionally check delete-and-rederive maintenance (which never
//! recomputes a monotone `UNION` fixpoint) against the executor's
//! iterated-naive fixpoint and against from-scratch recompilation. Hostile recursion must surface typed
//! [`CircuitError`]s — never a panic, unbounded loop, or OOM.

mod common;

use common::{
    random_db, random_delta, random_link_db, random_link_delta, random_query,
    random_recursive_query, random_state_flips, random_state_link_db, Rng, STATE_CLOSURE_SQL,
};
use fgdb_relational::parser;
use fgdb_relational::planner::optimize;
use fgdb_relational::{
    execute, tuple, CircuitError, Database, DeltaSet, MaterializedView, Schema, Value, ValueType,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Drives one SQL query through a view and naive re-execution under
/// `rounds` random TOKEN delta batches. On every batch the emitted delta
/// must be `execute(after) − execute(before)` and the maintained answer
/// must be `execute(after)`.
fn check_differential(sql: &str, mut db: Database, rng: &mut Rng, rounds: usize) {
    let naive = parser::parse_plan(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    let opt = optimize(&naive, &db).unwrap();
    let mut view =
        MaterializedView::new(&opt, &db).unwrap_or_else(|e| panic!("compile `{sql}`: {e}"));
    let mut before = execute(&naive, &db).unwrap().0.rows;
    assert_eq!(
        view.result().sorted_entries(),
        before.sorted_entries(),
        "initial view diverged from naive re-execution for `{sql}`"
    );
    for round in 0..rounds {
        let deltas = random_delta(rng, &mut db);
        let emitted = view
            .try_apply_delta(&deltas)
            .unwrap_or_else(|e| panic!("apply `{sql}`: {e}"));
        let after = execute(&naive, &db).unwrap().0.rows;
        assert_eq!(
            emitted.sorted_entries(),
            after.minus(&before).sorted_entries(),
            "emitted delta is not the re-executed answer's change on round {round} for `{sql}`"
        );
        assert_eq!(
            view.result().sorted_entries(),
            after.sorted_entries(),
            "view diverged from naive re-execution on round {round} for `{sql}`"
        );
        before = after;
    }
}

/// A small database with a guaranteed cycle (for divergence tests).
fn cyclic_link_db() -> Database {
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[("src", ValueType::Int), ("dst", ValueType::Int)]).unwrap();
    db.create_relation("LINK", schema).unwrap();
    let rel = db.relation_mut("LINK").unwrap();
    for (s, d) in [(0i64, 1i64), (1, 2), (2, 0)] {
        rel.insert(tuple![s, d]).unwrap();
    }
    db
}

proptest! {
    /// Circuit ≡ naive re-execution on random non-recursive SQL — every
    /// operator (σ π × ⋈ γ δ ∪ ∖ ∩), random coalesced delta streams.
    #[test]
    fn circuit_matches_naive_on_random_sql(seed in 0u64..1u64 << 48) {
        let db = random_db(seed);
        let mut rng = Rng(seed ^ 0xC1C0);
        let sql = random_query(&mut rng);
        check_differential(&sql, db, &mut rng, 4);
    }

    /// The paper's four queries get the same treatment (these four back the
    /// committed bench baselines, so they deserve their own regression).
    #[test]
    fn circuit_matches_naive_on_paper_queries(seed in 0u64..1u64 << 48) {
        use fgdb_relational::parser::paper_sql;
        let mut rng = Rng(seed ^ 0x9A9E);
        for sql in [
            paper_sql::query1("TOKEN"),
            paper_sql::query2("TOKEN"),
            paper_sql::query3("TOKEN"),
            paper_sql::query4("TOKEN"),
        ] {
            check_differential(&sql, random_db(seed), &mut rng, 3);
        }
    }

    /// Recursive closure under edge churn (inserts *and* retractions):
    /// incremental circuit maintenance ≡ naive re-execution ≡ compiling a
    /// fresh view from the mutated database, without ever recomputing
    /// the fixpoint — cyclic graphs included.
    #[test]
    fn recursive_views_track_edge_churn(seed in 0u64..1u64 << 48) {
        let mut db = random_link_db(seed);
        let mut rng = Rng(seed ^ 0x4EC);
        let sql = random_recursive_query(&mut rng);
        let naive = parser::parse_plan(&sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        let opt = optimize(&naive, &db).unwrap();
        let mut view = MaterializedView::new(&opt, &db)
            .unwrap_or_else(|e| panic!("compile `{sql}`: {e}"));
        for round in 0..5 {
            let deltas = random_link_delta(&mut rng, &mut db, true);
            view.try_apply_delta(&deltas)
                .unwrap_or_else(|e| panic!("apply `{sql}`: {e}"));
            let fresh = execute(&naive, &db).unwrap().0;
            prop_assert_eq!(
                view.result().sorted_entries(),
                fresh.rows.sorted_entries(),
                "incremental diverged from re-execution on round {} for `{}`", round, sql
            );
            let scratch = MaterializedView::new(&opt, &db).unwrap();
            prop_assert_eq!(
                view.result().sorted_entries(),
                scratch.result().sorted_entries(),
                "incremental diverged from a from-scratch view on round {} for `{}`", round, sql
            );
        }
        let stats = view.stats();
        prop_assert_eq!(stats.fixpoint_recomputes, 0, "`{}`", sql);
        prop_assert!(stats.fixpoint_rederived <= stats.fixpoint_overdeleted);
    }

    /// The e2e `closure_links` shape: every MCMC flip of a link's `state`
    /// is a retraction plus an insertion of the same row, filtered by
    /// `WHERE state = 'on'` in both the base and the step.
    #[test]
    fn closure_of_on_links_tracks_state_flips(seed in 0u64..1u64 << 48) {
        let mut db = random_state_link_db(seed);
        let mut rng = Rng(seed ^ 0xF11B);
        let naive = parser::parse_plan(STATE_CLOSURE_SQL).unwrap();
        let opt = optimize(&naive, &db).unwrap();
        let mut view = MaterializedView::new(&opt, &db).unwrap();
        for round in 0..6 {
            let deltas = random_state_flips(&mut rng, &mut db);
            let before = view.result().clone();
            let emitted = view.try_apply_delta(&deltas).unwrap();
            let fresh = execute(&naive, &db).unwrap().0;
            prop_assert_eq!(
                view.result().sorted_entries(),
                fresh.rows.sorted_entries(),
                "diverged from re-execution on round {}", round
            );
            // The emitted delta is exactly what changed: rederived tuples
            // do not appear in it.
            prop_assert_eq!(
                emitted.sorted_entries(),
                fresh.rows.minus(&before).sorted_entries(),
                "emitted delta is not the answer's change on round {}", round
            );
        }
        let stats = view.stats();
        prop_assert_eq!(stats.fixpoint_recomputes, 0);
    }

    /// Insert-only streams on monotone closures take the semi-naive frontier
    /// path (zero recomputes) and still match the executor's iterated-naive
    /// oracle exactly.
    #[test]
    fn semi_naive_matches_iterated_naive_on_insert_streams(seed in 0u64..1u64 << 48) {
        let mut db = random_link_db(seed);
        let mut rng = Rng(seed ^ 0x5EA1);
        let sql = "WITH RECURSIVE R (a, b) AS \
                   (SELECT src, dst FROM LINK \
                    UNION SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src) \
                   SELECT * FROM R";
        let naive = parser::parse_plan(sql).unwrap();
        let opt = optimize(&naive, &db).unwrap();
        let mut view = MaterializedView::new(&opt, &db).unwrap();
        for _ in 0..5 {
            let deltas = random_link_delta(&mut rng, &mut db, false);
            view.try_apply_delta(&deltas).unwrap();
            let fresh = execute(&naive, &db).unwrap().0;
            prop_assert_eq!(
                view.result().sorted_entries(),
                fresh.rows.sorted_entries()
            );
        }
        let stats = view.stats();
        prop_assert_eq!(
            stats.fixpoint_recomputes, 0,
            "insert-only monotone maintenance must stay semi-naive"
        );
    }

    /// Hostile recursive SQL — self-joins in the recursive term, non-linear
    /// recursion, unbounded bag closure on cycles, shadowed relations —
    /// surfaces typed errors; it never panics, spins, or exhausts memory.
    #[test]
    fn hostile_recursion_yields_typed_errors(seed in 0u64..1u64 << 48) {
        let db = cyclic_link_db();
        let mut rng = Rng(seed);

        // Non-linear: the step references R twice (a self-join on R).
        let non_linear = "WITH RECURSIVE R (a, b) AS \
            (SELECT src, dst FROM LINK \
             UNION SELECT r1.a, r2.b FROM R r1 JOIN R r2 ON r1.b = r2.a) \
            SELECT * FROM R";
        let plan = parser::parse_plan(non_linear).unwrap();
        match MaterializedView::new(&plan, &db).err() {
            Some(CircuitError::NonLinearRecursion { name }) => prop_assert_eq!(&*name, "R"),
            other => panic!("expected NonLinearRecursion, got {other:?}"),
        }

        // Unbounded bag accumulation on a cyclic graph hits the cap.
        let divergent = "WITH RECURSIVE R (a, b) AS \
            (SELECT src, dst FROM LINK \
             UNION ALL SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src) \
            SELECT * FROM R";
        let plan = parser::parse_plan(divergent).unwrap().with_fixpoint_cap(64);
        match MaterializedView::new(&plan, &db).err() {
            Some(CircuitError::IterationLimit { cap }) => prop_assert_eq!(cap, 64),
            other => panic!("expected IterationLimit, got {other:?}"),
        }

        // A CTE shadowing a stored relation is rejected at compile time.
        let shadowed = "WITH RECURSIVE LINK (a, b) AS \
            (SELECT src, dst FROM LINK \
             UNION SELECT r.a, l.dst FROM LINK r JOIN LINK l ON r.b = l.src) \
            SELECT * FROM LINK";
        // The parser substitutes every LINK reference, so this either fails
        // at parse (base references the CTE) or downstream as a typed error;
        // nothing may panic.
        if let Ok(plan) = parser::parse_plan(shadowed) {
            prop_assert!(MaterializedView::new(&plan, &db).is_err());
        }

        // Set-semantics closure on the same cycle terminates fine and keeps
        // terminating under random insert churn near the cycle.
        let closure = "WITH RECURSIVE R (a, b) AS \
            (SELECT src, dst FROM LINK \
             UNION SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src) \
            SELECT * FROM R";
        let plan = parser::parse_plan(closure).unwrap();
        let mut db = db;
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        for _ in 0..3 {
            let deltas = random_link_delta(&mut rng, &mut db, true);
            view.try_apply_delta(&deltas).unwrap();
        }
        prop_assert!(view.result().distinct_len() <= 9 * 9);
    }

    /// Mutation fuzz over the `WITH RECURSIVE` grammar: truncations and
    /// hostile splices of valid recursive queries never panic anywhere in
    /// parse → lower → optimize → compile → maintain.
    #[test]
    fn mutated_recursive_sql_never_panics(seed in 0u64..1u64 << 48) {
        let mut rng = Rng(seed);
        let base = random_recursive_query(&mut rng);
        let cut = rng.below(base.len().max(1));
        let prefix: String = base.chars().take(cut).collect();
        let alphabet = ['(', ')', '\'', ',', '=', 'R', 'S', '9', ' ', '*', 'W', 'I', 'T', 'H'];
        let junk: String = (0..rng.below(24)).map(|_| *rng.pick(&alphabet)).collect();
        for sql in [prefix.clone(), format!("{prefix}{junk}"), format!("{junk}{base}")] {
            let Ok(ast) = parser::parse(&sql) else { continue };
            let printed = ast.to_string();
            prop_assert_eq!(&ast, &parser::parse(&printed).unwrap(), "`{}`", printed);
            let Ok(plan) = ast.to_plan() else { continue };
            let mut db = random_link_db(seed ^ 1);
            let Ok(opt) = optimize(&plan, &db) else { continue };
            let Ok(mut view) = MaterializedView::new(&opt, &db) else { continue };
            let deltas = random_link_delta(&mut rng, &mut db, true);
            // Typed errors are fine; panics are not.
            let _ = view.try_apply_delta(&deltas);
        }
    }

    /// A retraction the view never saw inserted must surface as a typed
    /// inconsistency through δ/γ state — and poison the infallible path
    /// rather than corrupt it.
    #[test]
    fn phantom_retraction_is_a_typed_error(seed in 0u64..1u64 << 48) {
        let db = random_db(seed);
        let plan = parser::parse_plan("SELECT DISTINCT string FROM TOKEN").unwrap();
        let opt = optimize(&plan, &db).unwrap();
        let mut view = MaterializedView::new(&opt, &db).unwrap();
        let mut deltas = DeltaSet::new();
        deltas.record_delete(
            &Arc::from("TOKEN"),
            tuple![99_999i64, 0i64, "ghost", "O", "O", Value::Null],
        );
        let err = view.try_apply_delta(&deltas).unwrap_err();
        prop_assert!(
            matches!(err, CircuitError::InconsistentDelta(_)),
            "got {:?}", err
        );
        // The infallible wrapper parks the same error instead of panicking.
        let mut view = MaterializedView::new(&opt, &db).unwrap();
        let emitted = view.apply_delta(&deltas);
        prop_assert!(emitted.is_empty());
        prop_assert!(view.error().is_some());
    }
}
