//! View maintenance against re-execution: the paper queries, plus
//! recursive-closure curves.
//!
//! Three experiments back the view circuit's claims:
//!
//! 1. **Parity** — on the paper's four queries the view applies MCMC
//!    interval deltas and ends up equal to a full re-execution of the same
//!    plan, which is what the naive evaluator pays per sample; both costs
//!    are on file per batch.
//! 2. **Δ-proportionality** — incrementally maintaining a recursive
//!    transitive closure costs Θ(|Δ| · affected paths) per batch while full
//!    re-execution pays for the whole closure every time (Eq. 6's argument,
//!    extended to fixpoints by semi-naive evaluation and, for retractions,
//!    delete-and-rederive). Growth rows vary |Δ| at one closure size; flip
//!    rows cut and restore one mid-chain edge (|Δ| = 1, the MCMC shape) at
//!    two closure sizes, so flatness in the closure's size is on file.
//! 3. **Build** — a view's one full evaluation (`MaterializedView::new`)
//!    runs the executor's pipelines, so it costs about what `execute` of
//!    the same plan does: both are timed per paper query at 20 K and 100 K
//!    rows (median of nine alternating runs each).
//!
//! Emits `BENCH_view_circuit.json` to the workspace root (redirect or
//! disable via `FGDB_JSON_OUT`). Exits nonzero when a view differs from
//! re-execution after its last batch, or when a closure view recomputed its
//! fixpoint.

use fgdb_bench::{print_table, scaled, Report};
use fgdb_relational::algebra::paper_queries;
use fgdb_relational::parser::parse_plan;
use fgdb_relational::planner::optimize;
use fgdb_relational::{
    execute, Database, DeltaSet, MaterializedView, Plan, QueryResult, Schema, Tuple, Value,
    ValueType,
};
use std::sync::Arc;
use std::time::Instant;

const LABELS: [&str; 4] = ["O", "B-PER", "B-ORG", "B-LOC"];

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
            Value::Int((i / 50) as i64),
            Value::str(string),
            Value::str(label),
            Value::str(label),
        ]))
        .unwrap();
    }
    db
}

/// One MCMC-shaped interval delta: `delta_size` relabels, coalesced.
fn make_delta(db: &mut Database, delta_size: usize, tick: &mut usize) -> DeltaSet {
    let mut deltas = DeltaSet::new();
    let name: Arc<str> = Arc::from("TOKEN");
    let rel = db.relation_mut("TOKEN").unwrap();
    let n = rel.len();
    for j in 0..delta_size {
        *tick += 1;
        let rid = rel
            .find_by_pk(&Value::Int(((*tick * 31 + j) % n) as i64))
            .unwrap();
        let new_label = LABELS[(*tick + j) % 4];
        let (old, new) = rel.update_field(rid, 3, Value::str(new_label)).unwrap();
        deltas.record_update(&name, old, new);
    }
    deltas
}

/// Times applying `deltas` in order on a fresh view of `plan` over `db`;
/// returns µs per batch and the maintained view.
fn time_apply(plan: &Plan, db: &Database, deltas: &[DeltaSet]) -> (f64, MaterializedView) {
    let mut view = MaterializedView::new(plan, db).expect("compile view");
    let t = Instant::now();
    for d in deltas {
        std::hint::black_box(view.apply_delta(d));
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / deltas.len() as f64;
    assert!(
        view.error().is_none(),
        "maintenance errored: {:?}",
        view.error()
    );
    (us, view)
}

/// Times full re-execution of `plan` on `db` (µs per run, averaged over a
/// few runs) and returns the answer it computed.
fn time_reexec(plan: &Plan, db: &Database) -> (f64, QueryResult) {
    const REEXEC_REPS: usize = 3;
    let t = Instant::now();
    for _ in 1..REEXEC_REPS {
        std::hint::black_box(execute(plan, db).expect("full re-exec"));
    }
    let fresh = execute(plan, db).expect("full re-exec").0;
    (t.elapsed().as_secs_f64() * 1e6 / REEXEC_REPS as f64, fresh)
}

/// `chains` disjoint chains of `len` nodes each: LINK i→i+1 within a chain.
/// Node ids leave headroom so chains can grow during the experiment.
fn chain_db(chains: usize, len: usize, headroom: usize) -> Database {
    let schema = Schema::from_pairs(&[("src", ValueType::Int), ("dst", ValueType::Int)]).unwrap();
    let mut db = Database::new();
    db.create_relation("LINK", schema).unwrap();
    let stride = (len + headroom) as i64;
    let rel = db.relation_mut("LINK").unwrap();
    for c in 0..chains as i64 {
        for i in 0..(len as i64 - 1) {
            rel.insert(Tuple::new(vec![
                Value::Int(c * stride + i),
                Value::Int(c * stride + i + 1),
            ]))
            .unwrap();
        }
    }
    db
}

/// One closure run: maintenance per batch, re-execution per pass.
struct ClosureRun {
    circuit_us: f64,
    reexec_us: f64,
    closure_tuples: usize,
}

/// Maintains the closure of `db`'s LINK through `batches` deltas from
/// `next_batch` (which also applies them to `db`), then times full
/// re-execution of the same optimized plan on the final state — afterwards,
/// because a re-execution between two batches leaves the view's state cold
/// and the allocator churned, which is the oracle's cost, not maintenance's.
/// Records a violation if the view ever recomputed its fixpoint or ends up
/// different from re-execution.
fn run_closure(
    naive: &Plan,
    db: &mut Database,
    batches: usize,
    violations: &mut Vec<String>,
    mut next_batch: impl FnMut(&mut Database, usize) -> DeltaSet,
) -> ClosureRun {
    let opt = optimize(naive, db).expect("closure plan optimizes");
    let mut view = MaterializedView::new(&opt, db).expect("closure circuit compiles");
    let mut circuit_us = 0.0;
    for b in 0..batches {
        let deltas = next_batch(db, b);
        let t = Instant::now();
        view.try_apply_delta(&deltas).expect("closure maintenance");
        circuit_us += t.elapsed().as_secs_f64() * 1e6;
    }
    let (reexec_us, fresh) = time_reexec(&opt, db);

    let recomputes = view.stats().fixpoint_recomputes;
    if recomputes > 0 {
        violations.push(format!(
            "closure view recomputed its fixpoint {recomputes}×"
        ));
    }
    if view.result().sorted_entries() != fresh.rows.sorted_entries() {
        violations.push("closure view differs from re-execution".to_string());
    }
    ClosureRun {
        circuit_us: circuit_us / batches as f64,
        reexec_us,
        closure_tuples: fresh.rows.distinct_len(),
    }
}

/// The paper's four queries, named as the report names them.
fn paper_plans() -> [(&'static str, Plan); 4] {
    [
        ("query1_select_project", paper_queries::query1("TOKEN")),
        ("query2_distinct", paper_queries::query2("TOKEN")),
        ("query3_grouped_counts", paper_queries::query3("TOKEN")),
        ("query4_self_join", paper_queries::query4("TOKEN")),
    ]
}

/// Median of `runs` (sorts them).
fn median(runs: &mut [f64]) -> f64 {
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// Milliseconds `f` takes, not counting the drop of what it returns.
fn ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    let out = f();
    let elapsed = t.elapsed().as_secs_f64() * 1e3;
    drop(std::hint::black_box(out));
    elapsed
}

fn main() {
    let mut report = Report::new(
        "view_circuit",
        &[
            "section",
            "name",
            "delta_size",
            "circuit_us_per_batch",
            "reexec_us_per_batch",
            "closure_tuples",
            "db_rows",
            "build_ms",
            "execute_ms",
        ],
    );

    // ---------------------------------------------- parity: paper queries --
    let n = scaled(20_000);
    let rounds = scaled(300).max(20);
    let delta_size = 16;
    report
        .param("db_rows", n)
        .param("rounds", rounds)
        .param("delta_size", delta_size);

    let mut table = Vec::new();
    let mut violations = Vec::new();
    for (qname, plan) in paper_plans() {
        // Pre-produce the delta stream once, then replay it against a fresh
        // copy of the same (deterministic) initial database; `db` is left at
        // the state after the last batch, where re-execution runs.
        let mut db = build_token_db(n);
        let mut tick = 0usize;
        let deltas: Vec<DeltaSet> = (0..rounds)
            .map(|_| make_delta(&mut db, delta_size, &mut tick))
            .collect();
        let db0 = build_token_db(n);
        // Warm-up pass (page in the plan state), then the timed pass.
        let _ = time_apply(&plan, &db0, &deltas[..deltas.len().min(8)]);
        let (circuit_us, view) = time_apply(&plan, &db0, &deltas);
        let (reexec_us, fresh) = time_reexec(&plan, &db);

        if view.result().sorted_entries() != fresh.rows.sorted_entries() {
            violations.push(format!("{qname}: view differs from re-execution"));
        }
        table.push(vec![
            qname.to_string(),
            format!("{circuit_us:.2}"),
            format!("{reexec_us:.1}"),
            format!("{:.0}x", reexec_us / circuit_us.max(1e-9)),
        ]);
        report.row(vec![
            "parity".into(),
            qname.into(),
            delta_size.to_string(),
            format!("{circuit_us:.3}"),
            format!("{reexec_us:.3}"),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    print_table(
        &format!("view maintenance vs re-exec ({n} rows, |Δ|={delta_size}, {rounds} intervals)"),
        &["query", "circuit µs", "re-exec µs", "speedup"],
        &table,
    );

    // ------------------------------------- recursive closure: Δ vs re-exec --
    // Chain length is clamped: the *re-exec* baseline is quadratic in it
    // (iterated-naive fixpoint), so letting it scale freely makes the bench
    // measure the oracle, not the circuit.
    let chains = 8;
    let len = scaled(24).clamp(8, 24);
    let batches = 6;
    let closure_sql = "WITH RECURSIVE R (a, b) AS \
        (SELECT src, dst FROM LINK \
         UNION SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src) \
        SELECT * FROM R";
    report
        .param("closure_chains", chains)
        .param("closure_chain_len", len)
        .param("closure_batches", batches)
        .param("closure_flip_batches", 4 * batches);

    let naive = parse_plan(closure_sql).expect("closure SQL parses");
    let name: Arc<str> = Arc::from("LINK");
    let edge = |s: i64, d: i64| Tuple::new(vec![Value::Int(s), Value::Int(d)]);
    let mut table = Vec::new();
    let mut closure_row = |section: &str, delta: usize, run: ClosureRun| {
        table.push(vec![
            section.to_string(),
            delta.to_string(),
            run.closure_tuples.to_string(),
            format!("{:.1}", run.circuit_us),
            format!("{:.1}", run.reexec_us),
            format!("{:.0}x", run.reexec_us / run.circuit_us.max(1e-9)),
        ]);
        report.row(vec![
            section.into(),
            "transitive_closure".into(),
            delta.to_string(),
            format!("{:.3}", run.circuit_us),
            format!("{:.3}", run.reexec_us),
            run.closure_tuples.to_string(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    };

    // Growth: extend chains round-robin by `batch_edges` fresh edges.
    for batch_edges in [1usize, 2, 4, 8, 16] {
        let headroom = batches * batch_edges + 1;
        let mut db = chain_db(chains, len, headroom);
        let stride = (len + headroom) as i64;
        let mut tips: Vec<i64> = (0..chains as i64)
            .map(|c| c * stride + len as i64 - 1)
            .collect();
        let run = run_closure(&naive, &mut db, batches, &mut violations, |db, b| {
            let mut deltas = DeltaSet::new();
            let rel = db.relation_mut("LINK").unwrap();
            for e in 0..batch_edges {
                let c = (b * batch_edges + e) % chains;
                let t = edge(tips[c], tips[c] + 1);
                tips[c] += 1;
                rel.insert(t.clone()).unwrap();
                deltas.record_insert(&name, t);
            }
            deltas
        });
        closure_row("closure", batch_edges, run);
    }

    // Flips: cut one mid-chain edge, restore it the next batch — every
    // batch is |Δ| = 1 and severs or rejoins (len/2)² pairs, whatever the
    // number of chains.
    for flip_chains in [chains, 10 * chains] {
        let mut db = chain_db(flip_chains, len, 0);
        let run = run_closure(&naive, &mut db, 4 * batches, &mut violations, |db, b| {
            let mid = ((b / 2) % flip_chains * len + len / 2) as i64;
            let t = edge(mid - 1, mid);
            let mut deltas = DeltaSet::new();
            let rel = db.relation_mut("LINK").unwrap();
            if b % 2 == 0 {
                let rid = rel.iter().find(|(_, row)| *row == t).map(|(rid, _)| rid);
                rel.delete(rid.expect("edge present")).unwrap();
                deltas.record_delete(&name, t);
            } else {
                rel.insert(t.clone()).unwrap();
                deltas.record_insert(&name, t);
            }
            deltas
        });
        closure_row("closure_flip", 1, run);
    }
    print_table(
        &format!("recursive closure: incremental vs re-exec (chains of {len} nodes)"),
        &[
            "section",
            "|Δ| edges",
            "closure tuples",
            "circuit µs",
            "re-exec µs",
            "speedup",
        ],
        &table,
    );

    // ------------------------------------ build: view vs ad hoc execution --
    const BUILD_REPS: usize = 9;
    let mut table = Vec::new();
    for rows in [scaled(20_000), scaled(100_000)] {
        let db = build_token_db(rows);
        for (qname, plan) in paper_plans() {
            let (mut build, mut exec) = (Vec::new(), Vec::new());
            for _ in 0..BUILD_REPS {
                build.push(ms(|| {
                    MaterializedView::new(&plan, &db).expect("view builds")
                }));
                exec.push(ms(|| execute(&plan, &db).expect("query runs")));
            }
            let (build_ms, execute_ms) = (median(&mut build), median(&mut exec));
            table.push(vec![
                qname.to_string(),
                rows.to_string(),
                format!("{build_ms:.3}"),
                format!("{execute_ms:.3}"),
                format!("{:.2}x", build_ms / execute_ms.max(1e-9)),
            ]);
            report.row(vec![
                "build".into(),
                qname.into(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                rows.to_string(),
                format!("{build_ms:.3}"),
                format!("{execute_ms:.3}"),
            ]);
        }
    }
    print_table(
        &format!("view build vs execute (median of {BUILD_REPS})"),
        &["query", "rows", "build ms", "execute ms", "build / execute"],
        &table,
    );

    if let Some(path) = report.write_if_configured() {
        println!("\nwrote {}", path.display());
    }
    if !violations.is_empty() {
        eprintln!("\nVIEW CIRCUIT CHECKS FAILED:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
