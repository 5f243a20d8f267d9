//! Criterion bench: the full (naive) executor — the per-sample cost
//! Algorithm 3 pays, broken down by query shape. Linear growth here is the
//! denominator of Fig. 4's speedups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fgdb_relational::algebra::paper_queries;
use fgdb_relational::{execute_simple, Database, Expr, Plan, Schema, Tuple, Value, ValueType};

const LABELS: [&str; 4] = ["O", "B-PER", "B-ORG", "B-LOC"];

fn build_token_db(n: usize, with_string_index: bool) -> Database {
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
    {
        let rel = db.relation_mut("TOKEN").unwrap();
        for i in 0..n {
            let label = LABELS[i % 4];
            rel.insert(Tuple::new(vec![
                Value::Int(i as i64),
                Value::Int((i / 50) as i64),
                Value::str(format!("w{}", i % 300)),
                Value::str(label),
                Value::str(label),
            ]))
            .unwrap();
        }
        if with_string_index {
            rel.create_index("string").unwrap();
        }
    }
    db
}

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_exec");
    for &n in &[10_000usize, 50_000] {
        let db = build_token_db(n, false);
        for (name, plan) in [
            ("query1", paper_queries::query1("TOKEN")),
            ("query2", paper_queries::query2("TOKEN")),
            ("query3", paper_queries::query3("TOKEN")),
            ("query4", paper_queries::query4("TOKEN")),
        ] {
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new(name, n), &(), |b, ()| {
                b.iter(|| execute_simple(&plan, &db).unwrap());
            });
        }
    }
    group.finish();
}

fn bench_index_vs_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_vs_scan");
    let n = 50_000;
    let plan = Plan::scan("TOKEN").filter(Expr::col("string").eq(Expr::lit("w42")));
    for (name, indexed) in [("scan", false), ("index_probe", true)] {
        let db = build_token_db(n, indexed);
        group.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, ()| {
            b.iter(|| execute_simple(&plan, &db).unwrap());
        });
    }
    // A point lookup by primary key: one row read, whatever `n` is.
    let db = build_token_db(n, false);
    let plan = Plan::scan("TOKEN").filter(Expr::col("tok_id").eq(Expr::lit((n / 2) as i64)));
    group.bench_with_input(BenchmarkId::from_parameter("pk_probe"), &(), |b, ()| {
        b.iter(|| execute_simple(&plan, &db).unwrap());
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_queries, bench_index_vs_scan
}
criterion_main!(benches);
