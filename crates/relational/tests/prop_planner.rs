//! Optimizer soundness and parser round-trip property suite.
//!
//! For random databases and random well-typed SQL queries (plus the paper's
//! queries 1–4 as text):
//!
//! * the optimized plan's `QueryResult` is *identical* to the naive plan's
//!   (same columns, same multiset of rows);
//! * the optimized plan constructs no more intermediate tuples than the
//!   naive plan ([`ExecStats::intermediate_tuples`]);
//! * the optimized plan drives a [`MaterializedView`] to the same answers
//!   as naive re-execution under random delta streams (the same text
//!   serves Algorithm 3 and Algorithm 1);
//! * the same holds for recursive queries over random link graphs, where
//!   the recursive step's `σ(Rec × S)` becomes a keyed join;
//! * `parse ∘ print` is a fixpoint of the SQL AST.

mod common;

use common::{
    random_db, random_delta, random_link_db, random_query, random_recursive_query,
    random_state_link_db, Rng, STATE_CLOSURE_SQL,
};
use fgdb_relational::algebra::paper_queries;
use fgdb_relational::parser::{self, paper_sql};
use fgdb_relational::planner::{optimize, optimize_with_report};
use fgdb_relational::{execute, Database, MaterializedView};
use proptest::prelude::*;

/// The soundness check: identical results, no more intermediate tuples.
fn check_optimizer_soundness(sql: &str, db: &Database) {
    let naive = match parser::parse_plan(sql) {
        Ok(p) => p,
        Err(e) => panic!("generated SQL must parse: `{sql}`: {e}"),
    };
    // Generated queries are well-typed by construction.
    naive
        .output_columns(db)
        .unwrap_or_else(|e| panic!("generated SQL must validate: `{sql}`: {e}"));
    let (opt, _rep) = optimize_with_report(&naive, db).unwrap();
    let (naive_res, naive_stats) = execute(&naive, db).unwrap();
    let (opt_res, opt_stats) = execute(&opt, db).unwrap();
    assert_eq!(
        naive_res.columns, opt_res.columns,
        "columns changed for `{sql}`:\n  naive: {naive}\n  opt:   {opt}"
    );
    assert_eq!(
        naive_res.rows.sorted_entries(),
        opt_res.rows.sorted_entries(),
        "rows changed for `{sql}`:\n  naive: {naive}\n  opt:   {opt}"
    );
    assert!(
        opt_stats.intermediate_tuples <= naive_stats.intermediate_tuples,
        "optimizer built more intermediate tuples ({} > {}) for `{sql}`:\n  naive: {naive}\n  opt: {opt}",
        opt_stats.intermediate_tuples,
        naive_stats.intermediate_tuples
    );
}

proptest! {
    /// Random well-typed queries: optimizing never changes the answer and
    /// never constructs more intermediate tuples.
    #[test]
    fn optimized_plans_are_sound_and_no_more_expensive(seed in 0u64..1u64 << 48) {
        let db = random_db(seed);
        let mut rng = Rng(seed ^ 0xABCD);
        for _ in 0..4 {
            let sql = random_query(&mut rng);
            check_optimizer_soundness(&sql, &db);
        }
    }

    /// Recursive queries over random (often cyclic) link graphs: typing the
    /// recursive relation from its base term must never change an answer.
    #[test]
    fn optimized_recursive_plans_are_sound_and_no_more_expensive(seed in 0u64..1u64 << 48) {
        let db = random_link_db(seed);
        let mut rng = Rng(seed ^ 0x4EC);
        for _ in 0..3 {
            check_optimizer_soundness(&random_recursive_query(&mut rng), &db);
        }
        check_optimizer_soundness(STATE_CLOSURE_SQL, &random_state_link_db(seed));
    }

    /// The paper's four queries as SQL text, over random databases: the
    /// optimized text query matches the hand-built plan exactly.
    #[test]
    fn paper_queries_as_text_match_hand_built_plans(seed in 0u64..1u64 << 48) {
        let db = random_db(seed);
        for (sql, hand) in [
            (paper_sql::query1("TOKEN"), paper_queries::query1("TOKEN")),
            (paper_sql::query2("TOKEN"), paper_queries::query2("TOKEN")),
            (paper_sql::query3("TOKEN"), paper_queries::query3("TOKEN")),
            (paper_sql::query4("TOKEN"), paper_queries::query4("TOKEN")),
        ] {
            check_optimizer_soundness(&sql, &db);
            let opt = optimize(&parser::parse_plan(&sql).unwrap(), &db).unwrap();
            let (text_res, _) = execute(&opt, &db).unwrap();
            let (hand_res, _) = execute(&hand, &db).unwrap();
            prop_assert_eq!(
                text_res.rows.sorted_entries(),
                hand_res.rows.sorted_entries(),
                "text vs hand-built diverged for `{}`", sql
            );
        }
    }

    /// The optimized plan drives incremental view maintenance to the same
    /// answers as naive re-execution under random delta streams — one text
    /// query serves both Algorithm 3 and Algorithm 1.
    #[test]
    fn optimized_views_track_deltas_identically(seed in 0u64..1u64 << 48) {
        let mut db = random_db(seed);
        let mut rng = Rng(seed ^ 0x5EED);
        let sql = random_query(&mut rng);
        let naive = parser::parse_plan(&sql).unwrap();
        let opt = optimize(&naive, &db).unwrap();
        let mut view = MaterializedView::new(&opt, &db).unwrap();
        for _ in 0..4 {
            let deltas = random_delta(&mut rng, &mut db);
            view.apply_delta(&deltas);
            let fresh = execute(&naive, &db).unwrap().0;
            prop_assert_eq!(
                view.result().sorted_entries(),
                fresh.rows.sorted_entries(),
                "optimized view diverged from naive re-execution for `{}`", sql
            );
        }
    }

    /// parse ∘ print is a fixpoint on random generated queries.
    #[test]
    fn parse_print_parse_is_a_fixpoint(seed in 0u64..1u64 << 48) {
        let mut rng = Rng(seed);
        for _ in 0..4 {
            let sql = random_query(&mut rng);
            let ast = parser::parse(&sql)
                .unwrap_or_else(|e| panic!("generated SQL must parse: `{sql}`: {e}"));
            let printed = ast.to_string();
            let reparsed = parser::parse(&printed)
                .unwrap_or_else(|e| panic!("printed SQL must re-parse: `{printed}`: {e}"));
            prop_assert_eq!(&ast, &reparsed, "fixpoint failed: `{}` vs `{}`", sql, printed);
            // And printing the reparsed AST is byte-stable.
            prop_assert_eq!(printed, reparsed.to_string());
        }
    }

    /// The parser never panics, whatever the input: mutate valid queries
    /// into garbage and feed raw junk.
    #[test]
    fn parser_never_panics_on_mutated_input(seed in 0u64..1u64 << 48) {
        let mut rng = Rng(seed);
        let base = random_query(&mut rng);
        // Truncations at every char boundary.
        let cut = rng.below(base.len().max(1));
        let prefix: String = base.chars().take(cut).collect();
        let _ = parser::parse(&prefix);
        // Random byte splice from a hostile alphabet.
        let alphabet = ['(', ')', '\'', '.', ',', '=', '<', 'S', '9', ' ', '*', '!', 'π'];
        let junk: String = (0..rng.below(30)).map(|_| *rng.pick(&alphabet)).collect();
        let _ = parser::parse(&junk);
        let spliced = format!("{prefix}{junk}");
        if let Ok(ast) = parser::parse(&spliced) {
            // Anything that parses must lower or error — never panic — and
            // anything that lowers must print round-trip.
            if let Ok(_plan) = ast.to_plan() {
                let _ = parser::parse(&ast.to_string()).unwrap();
            }
        }
    }
}
