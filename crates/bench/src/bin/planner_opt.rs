//! planner_opt — naive vs optimized plan execution on the fig8 join
//! workload.
//!
//! The SQL frontend lowers Query 4 ("person strings co-occurring with an
//! org-sense Boston") to its literal shape: a TOKEN × TOKEN cross product
//! under one conjunction. This harness measures what the cost-based planner
//! buys over executing that naive plan verbatim: predicate pushdown,
//! product→hash-join rewrite, and join ordering, on the same synthetic
//! TOKEN relation the fig8 experiment uses. Queries 1–3 ride along to show
//! the optimizer is a no-loss pass on plans that are already tight.
//!
//! Reported per query and variant: executor work counters (tuples scanned,
//! rows processed, intermediate tuples constructed) and median wall time
//! over `FGDB_BENCH_SAMPLES` runs (default 15). Emits
//! `BENCH_planner_opt.json`.
//!
//! Two work counts gate the run (counts, so the same on every machine): an
//! optimized plan never constructs more intermediate tuples than its naive
//! plan, and a primary-key point lookup scans exactly one tuple. A
//! violation exits non-zero after the report is written.
//!
//! ```sh
//! cargo run --release -p fgdb-bench --bin planner_opt
//! ```

use fgdb_bench::report::Report;
use fgdb_bench::{print_csv, print_table, scaled};
use fgdb_relational::parser::{paper_sql, parse_plan};
use fgdb_relational::planner::{compile_query, optimize_with_report, PlannerReport};
use fgdb_relational::{execute, Database, ExecStats, Plan, Schema, Tuple, Value, ValueType};
use std::time::Instant;

const LABELS: [&str; 4] = ["O", "B-PER", "B-ORG", "B-LOC"];

/// The fig8-style TOKEN world: periodic labels, a Zipf-ish vocabulary, and
/// a sprinkling of ambiguous "Boston" mentions.
fn build_token_db(n: usize) -> Database {
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
    let mut db = Database::new();
    db.create_relation("TOKEN", schema).unwrap();
    let rel = db.relation_mut("TOKEN").unwrap();
    for i in 0..n {
        let label = LABELS[i % 4];
        let string = if i % 97 == 0 {
            "Boston".to_string()
        } else {
            format!("w{}", i % 500)
        };
        rel.insert(Tuple::new(vec![
            Value::Int(i as i64),
            // 48-token documents: the 4-periodic labels balance exactly, so
            // Query 3 (B-PER count = B-ORG count) has a non-empty answer.
            Value::Int((i / 48) as i64),
            Value::str(string),
            Value::str(label),
            Value::str(label),
        ]))
        .unwrap();
    }
    db
}

fn samples() -> usize {
    std::env::var("FGDB_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(15)
        .max(1)
}

/// Median wall-clock milliseconds and the (identical-per-run) exec stats.
fn measure(plan: &Plan, db: &Database, reps: usize) -> (f64, ExecStats, usize) {
    let mut times: Vec<f64> = Vec::with_capacity(reps);
    let mut stats = ExecStats::default();
    let mut answer_rows = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (res, s) = execute(plan, db).expect("valid plan");
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        stats = s;
        answer_rows = res.rows.distinct_len();
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], stats, answer_rows)
}

fn main() {
    // The naive Query 4 plan materializes the full TOKEN × TOKEN product —
    // quadratic in the relation. 1k tokens (1M product pairs) keeps the
    // naive baseline measurable in seconds; FGDB_SCALE raises it (the
    // optimized plan would happily run at fig8's 30k, the baseline not).
    let tokens = scaled(1_000);
    let reps = samples();
    let db = build_token_db(tokens);
    println!(
        "planner_opt: naive vs optimized plans, {tokens} TOKEN tuples, {reps} runs per variant\n"
    );

    let queries = [
        ("q1", paper_sql::query1("TOKEN")),
        ("q2", paper_sql::query2("TOKEN")),
        ("q3", paper_sql::query3("TOKEN")),
        ("q4_fig8_join", paper_sql::query4("TOKEN")),
    ];

    let mut report = Report::new(
        "planner_opt",
        &[
            "query",
            "variant",
            "tuples_scanned",
            "rows_processed",
            "intermediate_tuples",
            "median_ms",
            "answer_rows",
        ],
    );
    report
        .param("tokens", tokens)
        .param("runs_per_variant", reps);

    let mut table_rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut record = |query: &str, variant: &str, ms: f64, stats: ExecStats, rows: usize| {
        let cells = vec![
            query.to_string(),
            variant.to_string(),
            stats.tuples_scanned.to_string(),
            stats.rows_processed.to_string(),
            stats.intermediate_tuples.to_string(),
            format!("{ms:.3}"),
            rows.to_string(),
        ];
        csv_rows.push(cells.join(","));
        report.row(cells.clone());
        table_rows.push(cells);
    };
    // Work-count gates (counts, not timings: the same on every run).
    let mut gate_failures: Vec<String> = Vec::new();
    for (name, sql) in &queries {
        let naive = parse_plan(sql).expect("paper SQL parses");
        let (opt, rewrites): (Plan, PlannerReport) =
            optimize_with_report(&naive, &db).expect("paper SQL optimizes");
        let (naive_ms, naive_stats, naive_rows) = measure(&naive, &db, reps);
        let (opt_ms, opt_stats, opt_rows) = measure(&opt, &db, reps);
        assert_eq!(naive_rows, opt_rows, "optimizer changed the answer");
        if opt_stats.intermediate_tuples > naive_stats.intermediate_tuples {
            gate_failures.push(format!(
                "{name}: optimized plan built {} intermediate tuples, naive {}",
                opt_stats.intermediate_tuples, naive_stats.intermediate_tuples
            ));
        }
        println!("{name}: {sql}");
        println!("  naive:     {naive}");
        println!("  optimized: {opt}   [{rewrites}]");
        record(name, "naive", naive_ms, naive_stats, naive_rows);
        record(name, "optimized", opt_ms, opt_stats, opt_rows);
        let dx = naive_stats.intermediate_tuples.max(1) as f64
            / opt_stats.intermediate_tuples.max(1) as f64;
        println!(
            "  intermediate tuples {} → {} ({dx:.1}×), median {naive_ms:.2} ms → {opt_ms:.2} ms\n",
            naive_stats.intermediate_tuples, opt_stats.intermediate_tuples
        );
    }

    // The point lookup reads the one row its key names, not the relation.
    let pk_sql = format!(
        "SELECT string, label FROM TOKEN WHERE tok_id = {}",
        tokens / 2
    );
    let pk_plan = compile_query(&pk_sql, &db).expect("pk lookup compiles");
    let (pk_ms, pk_stats, pk_rows) = measure(&pk_plan, &db, reps);
    println!("pk: {pk_sql}\n  optimized: {pk_plan}\n");
    if pk_stats.tuples_scanned != 1 {
        gate_failures.push(format!(
            "pk lookup scanned {} tuples of {tokens}, expected 1",
            pk_stats.tuples_scanned
        ));
    }
    record("pk", "optimized", pk_ms, pk_stats, pk_rows);

    print_table(
        "planner_opt: naive vs optimized executor work",
        &[
            "query",
            "variant",
            "scanned",
            "rows",
            "intermediate",
            "median_ms",
            "answers",
        ],
        &table_rows,
    );
    print_csv(
        "planner_opt",
        "query,variant,tuples_scanned,rows_processed,intermediate_tuples,median_ms,answer_rows",
        &csv_rows,
    );
    if let Some(path) = report.write_if_configured() {
        println!("\nwrote {}", path.display());
    }
    if !gate_failures.is_empty() {
        for failure in &gate_failures {
            eprintln!("planner_opt: GATE FAILED: {failure}");
        }
        std::process::exit(1);
    }
}
