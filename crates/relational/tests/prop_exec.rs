//! The streaming executor ≡ the materialise-everything oracle.
//!
//! `relational::exec` pushes rows between operators and consolidates only
//! at the root; [`common::oracle`] consolidates after every operator and
//! never consults an index. The two must agree *exactly* — rows,
//! multiplicities and error kinds — on:
//!
//! * random well-typed SQL, naive and optimised, over databases with and
//!   without secondary indexes (every `col = literal` the generators emit
//!   is a candidate probe);
//! * nests of ∖ / ∩ / ∪ / δ / γ over duplicate-producing projections,
//!   where a streamed input and a consolidated one could differ;
//! * recursive queries over random link graphs, set and bag semantics;
//! * plans that fail: divergent recursion, stray `Rec` leaves, unknown
//!   names;
//! * the paper queries and random SQL over a TOKEN of more than two
//!   morsels ([`MORSEL_CHUNKS`] heap chunks each), where `execute` splits
//!   its scan pipelines across the machine's cores.
//!
//! Separately, for every kind of literal against every kind of column, an
//! indexed database answers like an unindexed one.

mod common;

use common::{
    oracle, random_db, random_link_db, random_query, random_recursive_query, random_state_link_db,
    Rng, LABELS, STATE_CLOSURE_SQL, STRINGS,
};
use fgdb_relational::exec::MORSEL_CHUNKS;
use fgdb_relational::parser::paper_sql;
use fgdb_relational::planner::optimize;
use fgdb_relational::{
    compile_query, execute, parse_plan, tuple, AggExpr, AggFunc, Database, ExecError, Expr, Plan,
    PlanError, Relation, Schema, Tuple, Value, ValueType,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Rows and multiplicities — or the error — must be the oracle's.
fn assert_matches_oracle(plan: &Plan, db: &Database) {
    let got = execute(plan, db).map(|(res, _)| res.rows.sorted_entries());
    let want = oracle::eval(plan, db).map(|rows| rows.sorted_entries());
    assert_eq!(got, want, "executor diverged from the oracle on {plan}");
}

/// `random_db` with a random subset of TOKEN's columns indexed.
fn random_indexed_db(seed: u64) -> Database {
    let mut db = random_db(seed);
    let mut rng = Rng(seed ^ 0x1DE5);
    let rel = db.relation_mut("TOKEN").unwrap();
    for col in ["doc_id", "string", "label"] {
        if rng.chance(50) {
            rel.create_index(col).unwrap();
        }
    }
    db
}

/// A duplicate-producing leaf and its output column: π onto one
/// low-cardinality string column of an optionally filtered TOKEN.
fn random_bag_leaf(rng: &mut Rng) -> (Plan, &'static str) {
    let mut plan = Plan::scan("TOKEN");
    if rng.chance(60) {
        let pred = match rng.below(3) {
            0 => Expr::col("label").eq(Expr::lit(*rng.pick(LABELS))),
            1 => Expr::col("string").ne(Expr::lit(*rng.pick(STRINGS))),
            _ => Expr::col("doc_id").lt(Expr::lit(rng.below(4) as i64)),
        };
        plan = plan.filter(pred);
    }
    let col = *rng.pick(&["string", "label", "truth"]);
    (plan.project(&[col]), col)
}

/// Set operators, δ and a regrouping γ nested over bag leaves. Every node
/// is one string column wide (named after its leftmost leaf), so any two
/// compose.
fn random_bag_plan(rng: &mut Rng, depth: usize) -> (Plan, &'static str) {
    if depth == 0 {
        return random_bag_leaf(rng);
    }
    let (left, col) = random_bag_plan(rng, depth - 1);
    let plan = match rng.below(6) {
        0 => left.union(random_bag_plan(rng, depth - 1).0),
        1 => left.difference(random_bag_plan(rng, depth - 1).0),
        2 => left.intersect(random_bag_plan(rng, depth - 1).0),
        3 => left.distinct(),
        // Regroup on the column and keep it: multiplicities collapse to one
        // per group, like δ, but through γ's table.
        4 => left
            .aggregate(&[col], vec![AggExpr::new(AggFunc::Count, "n")])
            .project(&[col]),
        _ => left,
    };
    (plan, col)
}

/// An acyclic link graph (every edge goes up), so bag-semantics recursion
/// terminates and counts paths — multiplicities well above one.
fn random_dag_db(seed: u64) -> Database {
    let mut rng = Rng(seed);
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[("src", ValueType::Int), ("dst", ValueType::Int)]).unwrap();
    db.create_relation("LINK", schema).unwrap();
    let nodes = 2 + rng.below(6);
    let rel = db.relation_mut("LINK").unwrap();
    for _ in 0..rng.below(14) {
        let s = rng.below(nodes - 1);
        let d = s + 1 + rng.below(nodes - 1 - s);
        rel.insert(tuple![s as i64, d as i64]).unwrap();
    }
    db
}

/// `R = LINK ∪ π(R ⋈ LINK)` under bag semantics, capped low.
fn bag_closure(cap: usize) -> Plan {
    let step = Plan::rec("R", &["a", "b"])
        .join_on(Plan::scan("LINK"), &[("b", "src")])
        .project(&["a", "dst"]);
    Plan::Fixpoint {
        base: Box::new(Plan::scan("LINK")),
        step: Box::new(step),
        rec: Arc::from("R"),
        columns: vec![Arc::from("a"), Arc::from("b")],
        all: true,
        cap,
    }
}

proptest! {
    /// Random SQL, as parsed and as optimised, with and without indexes.
    #[test]
    fn random_queries_match_the_oracle(seed in 0u64..1u64 << 48) {
        let mut rng = Rng(seed ^ 0xE8EC);
        for db in [random_db(seed), random_indexed_db(seed)] {
            for _ in 0..4 {
                let sql = random_query(&mut rng);
                let naive = parse_plan(&sql).unwrap();
                assert_matches_oracle(&naive, &db);
                assert_matches_oracle(&optimize(&naive, &db).unwrap(), &db);
            }
        }
    }

    /// Multiplicities above one through ∖ / ∩ / ∪ / δ / γ, where the
    /// executor streams one input against the other's consolidated state.
    #[test]
    fn nested_bag_operators_match_the_oracle(seed in 0u64..1u64 << 48) {
        let db = random_indexed_db(seed);
        let mut rng = Rng(seed ^ 0xBA65);
        for _ in 0..4 {
            let (plan, _) = random_bag_plan(&mut rng, 3);
            assert_matches_oracle(&plan, &db);
            assert_matches_oracle(&optimize(&plan, &db).unwrap(), &db);
        }
    }

    /// Recursive queries: set semantics on cyclic graphs, bag semantics on
    /// DAGs (path counts) and on cyclic graphs (both must hit the cap).
    #[test]
    fn recursive_queries_match_the_oracle(seed in 0u64..1u64 << 48) {
        let mut rng = Rng(seed ^ 0x4EC);
        let links = random_link_db(seed);
        for _ in 0..3 {
            let naive = parse_plan(&random_recursive_query(&mut rng)).unwrap();
            assert_matches_oracle(&naive, &links);
            assert_matches_oracle(&optimize(&naive, &links).unwrap(), &links);
        }
        let closure = parse_plan(STATE_CLOSURE_SQL).unwrap();
        let states = random_state_link_db(seed);
        assert_matches_oracle(&closure, &states);
        assert_matches_oracle(&optimize(&closure, &states).unwrap(), &states);

        assert_matches_oracle(&bag_closure(16), &random_dag_db(seed));
        assert_matches_oracle(&bag_closure(16), &links);
        // The bag closure as an input: its multiplicities feed γ and ∖.
        let counted = bag_closure(16)
            .aggregate(&["a"], vec![AggExpr::new(AggFunc::Count, "paths")]);
        assert_matches_oracle(&counted, &random_dag_db(seed));
        let minus_links = bag_closure(16).difference(Plan::scan("LINK"));
        assert_matches_oracle(&minus_links, &random_dag_db(seed));
    }
}

/// `random_db`'s two relations at a size `execute` splits: TOKEN holds
/// three morsels and a half, 64 tokens to a document, so DOC has one row
/// per 64 tokens.
fn above_threshold_db(seed: u64) -> Database {
    let mut rng = Rng(seed);
    let mut db = random_db(seed);
    let rows = (7 * MORSEL_CHUNKS * Relation::CHUNK_ROWS / 2) as i64;
    let token = db.relation_mut("TOKEN").unwrap();
    let ids: Vec<_> = token.iter().map(|(rid, _)| rid).collect();
    for rid in ids {
        token.delete(rid).unwrap();
    }
    for i in 0..rows {
        let score = if rng.chance(20) {
            Value::Null
        } else {
            Value::float(rng.below(8) as f64 / 2.0)
        };
        token
            .insert(Tuple::new(vec![
                Value::Int(i),
                Value::Int(i / 64),
                Value::str(*rng.pick(STRINGS)),
                Value::str(*rng.pick(LABELS)),
                Value::str(*rng.pick(LABELS)),
                score,
            ]))
            .unwrap();
    }
    let doc = db.relation_mut("DOC").unwrap();
    for d in doc.len() as i64..rows / 64 {
        doc.insert(tuple![d, *rng.pick(common::TOPICS)]).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Above the split threshold: the paper queries, as compiled, and
    /// random SQL, as optimised.
    #[test]
    fn queries_above_the_split_threshold_match_the_oracle(seed in 0u64..1u64 << 48) {
        let db = above_threshold_db(seed);
        let token = db.relation("TOKEN").unwrap();
        assert!(token.chunk_count() > 2 * MORSEL_CHUNKS);
        for sql in [
            paper_sql::query1("TOKEN"),
            paper_sql::query2("TOKEN"),
            paper_sql::query3("TOKEN"),
            paper_sql::query4("TOKEN"),
        ] {
            assert_matches_oracle(&compile_query(&sql, &db).unwrap(), &db);
        }
        let mut rng = Rng(seed ^ 0xB16);
        let mut checked = 0;
        while checked < 6 {
            let sql = random_query(&mut rng);
            // The oracle joins by nested loops, and a TOKEN self-join is
            // quadratic in TOKEN at this size.
            if sql.contains("TOKEN T2") {
                continue;
            }
            assert_matches_oracle(&optimize(&parse_plan(&sql).unwrap(), &db).unwrap(), &db);
            checked += 1;
        }
    }
}

#[test]
fn failing_plans_fail_alike() {
    let db = random_db(7);
    let mut cyclic = Database::new();
    let schema = Schema::from_pairs(&[("src", ValueType::Int), ("dst", ValueType::Int)]).unwrap();
    cyclic.create_relation("LINK", schema).unwrap();
    let rel = cyclic.relation_mut("LINK").unwrap();
    rel.insert(tuple![0i64, 1i64]).unwrap();
    rel.insert(tuple![1i64, 0i64]).unwrap();

    let unknown_column = || ExecError::Plan(PlanError::UnknownColumn("nope".into()));
    let cases = [
        (bag_closure(8), &cyclic, ExecError::FixpointLimit { cap: 8 }),
        (
            Plan::rec("R", &["a", "b"]),
            &db,
            ExecError::UnboundRecursion("R".into()),
        ),
        (
            // A Rec leaf bound by no enclosing fixpoint of that name.
            Plan::scan("LINK").fixpoint(Plan::rec("S", &["a", "b"]), "R", &["a", "b"]),
            &cyclic,
            ExecError::UnboundRecursion("S".into()),
        ),
        (
            Plan::scan("NOPE"),
            &db,
            ExecError::Plan(PlanError::UnknownRelation("NOPE".into())),
        ),
        (
            Plan::scan("TOKEN").filter(Expr::col("nope").eq(Expr::lit(1i64))),
            &db,
            unknown_column(),
        ),
        (
            Plan::scan("TOKEN").project(&["nope"]),
            &db,
            unknown_column(),
        ),
        (
            Plan::scan_as("TOKEN", "a").join_on(Plan::scan("DOC"), &[("a.doc_id", "nope")]),
            &db,
            unknown_column(),
        ),
        (
            Plan::scan("TOKEN").aggregate(
                &["doc_id"],
                vec![AggExpr::count_if(Expr::col("nope").is_null(), "n")],
            ),
            &db,
            unknown_column(),
        ),
    ];
    for (plan, db, want) in cases {
        assert_eq!(execute(&plan, db).map(|_| ()), Err(want.clone()), "{plan}");
        assert_eq!(
            oracle::eval(&plan, db).map(|_| ()),
            Err(want),
            "oracle, {plan}"
        );
    }
}

/// `K(id pk, k, u, s)`: `k` and `s` carry secondary indexes in the indexed
/// database, `u` never does. The integer columns hold NULLs, small values
/// and the two neighbours at 2⁵³ that one `f64` stands for.
fn literal_db(indexed: bool) -> Database {
    const BIG: i64 = 1 << 53;
    let schema = Schema::from_pairs(&[
        ("id", ValueType::Int),
        ("k", ValueType::Int),
        ("u", ValueType::Int),
        ("s", ValueType::Str),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap();
    let mut db = Database::new();
    let rel = db.create_relation("K", schema).unwrap();
    let ints = [
        Value::Null,
        Value::Int(0),
        Value::Int(2),
        Value::Int(2),
        Value::Int(3),
        Value::Int(BIG),
        Value::Int(BIG + 1),
    ];
    for (i, v) in ints.iter().enumerate() {
        let id = match i {
            0 => Value::Int(2),
            5 => Value::Int(BIG),
            6 => Value::Int(BIG + 1),
            _ => Value::Int(10 + i as i64),
        };
        let s = if i == 1 {
            Value::Null
        } else {
            Value::str(format!("{}", i % 3))
        };
        rel.insert(Tuple::new(vec![id, v.clone(), v.clone(), s]))
            .unwrap();
    }
    if indexed {
        rel.create_index("k").unwrap();
        rel.create_index("s").unwrap();
    }
    db
}

#[test]
fn indexed_and_unindexed_databases_answer_every_literal_alike() {
    let (plain, indexed) = (literal_db(false), literal_db(true));
    let literals = [
        Value::Null,
        Value::Int(2),
        Value::Int(7),
        Value::float(2.0),
        Value::float(-0.0),
        Value::float(2.5),
        Value::float((1u64 << 53) as f64),
        Value::float(f64::NAN),
        Value::str("2"),
        Value::Bool(true),
    ];
    let mut matched = 0;
    for col in ["id", "k", "u", "s"] {
        for lit in &literals {
            let eq = Expr::col(col).eq(Expr::Literal(lit.clone()));
            let flipped = Expr::Literal(lit.clone()).eq(Expr::col(col));
            let residual = eq.clone().and(Expr::col("u").ne(Expr::lit(3i64)));
            for pred in [eq, flipped, residual] {
                let plan = Plan::scan("K").filter(pred);
                let want = oracle::eval(&plan, &plain).unwrap().sorted_entries();
                for db in [&plain, &indexed] {
                    let (got, stats) = execute(&plan, db).unwrap();
                    assert_eq!(got.rows.sorted_entries(), want, "{col} = {lit}");
                    if lit.is_null() {
                        assert_eq!(stats.tuples_scanned, 0, "`{col} = NULL` touched storage");
                    }
                }
                matched += want.len();
            }
        }
    }
    // The grid is not vacuous: 2, 2.0, 2⁵³ and '2' all have matches.
    assert!(matched > 20, "only {matched} matches over the whole grid");
}
