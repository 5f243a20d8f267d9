//! Shared generators for the relational property suites.
//!
//! One deterministic splitmix64 stream drives random databases, random
//! well-typed SQL, and random delta batches, so every suite shrinks to a
//! single reproducible seed. Extracted from `prop_planner.rs` once the
//! circuit suite needed the same machinery.

#![allow(dead_code)] // each test binary uses its own subset

pub mod oracle;

use fgdb_relational::{tuple, Database, DeltaSet, Schema, Tuple, Value, ValueType};
use std::sync::Arc;

// ------------------------------------------------------------ tiny PRNG --

/// Splitmix64 — deterministic, dependency-free stream for building random
/// databases and queries from one seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

pub const LABELS: &[&str] = &["O", "B-PER", "B-ORG", "B-LOC"];
pub const STRINGS: &[&str] = &["Boston", "Ann", "Bill", "IBM", "said", "hired"];
pub const TOPICS: &[&str] = &["sports", "business", "none"];

/// A random database: a TOKEN-shaped relation (so the paper queries run on
/// it too) plus a small DOC relation for cross-relation joins.
pub fn random_db(seed: u64) -> Database {
    let mut rng = Rng(seed);
    let mut db = Database::new();
    let token = Schema::from_pairs(&[
        ("tok_id", ValueType::Int),
        ("doc_id", ValueType::Int),
        ("string", ValueType::Str),
        ("label", ValueType::Str),
        ("truth", ValueType::Str),
        ("score", ValueType::Float),
    ])
    .unwrap()
    .with_primary_key("tok_id")
    .unwrap();
    db.create_relation("TOKEN", token).unwrap();
    let n_docs = 1 + rng.below(4);
    let n_tokens = rng.below(30);
    {
        let rel = db.relation_mut("TOKEN").unwrap();
        for i in 0..n_tokens {
            let score = if rng.chance(20) {
                Value::Null
            } else {
                Value::float(rng.below(8) as f64 / 2.0)
            };
            rel.insert(Tuple::new(vec![
                Value::Int(i as i64),
                Value::Int(rng.below(n_docs) as i64),
                Value::str(*rng.pick(STRINGS)),
                Value::str(*rng.pick(LABELS)),
                Value::str(*rng.pick(LABELS)),
                score,
            ]))
            .unwrap();
        }
    }
    let doc = Schema::from_pairs(&[("doc", ValueType::Int), ("topic", ValueType::Str)]).unwrap();
    db.create_relation("DOC", doc).unwrap();
    {
        let rel = db.relation_mut("DOC").unwrap();
        for d in 0..n_docs {
            rel.insert(tuple![d as i64, *rng.pick(TOPICS)]).unwrap();
        }
    }
    db
}

/// Columns available for predicates, per FROM shape: (name, is_string).
pub type Cols = Vec<(&'static str, bool)>;

pub fn token_cols(prefix: &str) -> Cols {
    match prefix {
        "" => vec![
            ("tok_id", false),
            ("doc_id", false),
            ("string", true),
            ("label", true),
            ("truth", true),
        ],
        "T1" => vec![
            ("T1.tok_id", false),
            ("T1.doc_id", false),
            ("T1.string", true),
            ("T1.label", true),
            ("T1.truth", true),
        ],
        "T2" => vec![
            ("T2.tok_id", false),
            ("T2.doc_id", false),
            ("T2.string", true),
            ("T2.label", true),
            ("T2.truth", true),
        ],
        _ => unreachable!("known prefixes only"),
    }
}

/// One random conjunct over the available columns (SQL text).
pub fn random_conjunct(rng: &mut Rng, cols: &Cols) -> String {
    let ops = ["=", "<>", "<", "<=", ">", ">="];
    match rng.below(6) {
        // Column vs literal, type-matched.
        0..=2 => {
            let (c, is_str) = *rng.pick(cols);
            let op = *rng.pick(&ops);
            if is_str {
                let pool: Vec<&str> = STRINGS.iter().chain(LABELS.iter()).copied().collect();
                format!("{c} {op} '{}'", rng.pick(&pool))
            } else {
                format!("{c} {op} {}", rng.below(8))
            }
        }
        // Column vs column of the same type.
        3 => {
            let (a, ta) = *rng.pick(cols);
            let same: Vec<(&str, bool)> = cols.iter().copied().filter(|(_, t)| *t == ta).collect();
            let (b, _) = *rng.pick(&same);
            format!("{a} = {b}")
        }
        // NULL tests and constants (fodder for constant folding).
        4 => {
            let (c, _) = *rng.pick(cols);
            if rng.chance(50) {
                format!("{c} IS NOT NULL")
            } else {
                format!("{c} IS NULL")
            }
        }
        _ => (*rng.pick(&[
            "TRUE",
            "1 = 1",
            "1 = 2",
            "NULL = 3",
            "NOT FALSE",
            "'a' = 'a'",
            "2 > 1 AND TRUE",
        ]))
        .to_string(),
    }
}

pub fn random_where(rng: &mut Rng, cols: &Cols, extra: Option<String>) -> String {
    let mut conjuncts: Vec<String> = extra.into_iter().collect();
    for _ in 0..rng.below(3) {
        conjuncts.push(random_conjunct(rng, cols));
    }
    if conjuncts.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conjuncts.join(" AND "))
    }
}

/// A random single SELECT statement (no set operations).
pub fn random_select(rng: &mut Rng) -> String {
    match rng.below(4) {
        // Single table, plain select or aggregate.
        0..=1 => {
            let cols = token_cols("");
            let where_sql = random_where(rng, &cols, None);
            if rng.chance(40) {
                // Aggregate query over doc_id groups (or global).
                let global = rng.chance(30);
                let group = if global { "" } else { " GROUP BY doc_id" };
                let mut items: Vec<String> = if global {
                    vec![]
                } else {
                    vec!["doc_id".into()]
                };
                let aggs = [
                    "COUNT(*)",
                    "COUNT(*) FILTER (WHERE label = 'B-PER')",
                    "SUM(tok_id)",
                    "MIN(tok_id)",
                    "MAX(string)",
                    "SUM(score)",
                ];
                let n_aggs = 1 + rng.below(2);
                for i in 0..n_aggs {
                    items.push(format!("{} AS a{i}", rng.pick(&aggs)));
                }
                let having = if rng.chance(40) {
                    " HAVING COUNT(*) FILTER (WHERE label = 'B-ORG') >= 1"
                } else {
                    ""
                };
                format!(
                    "SELECT {} FROM TOKEN{where_sql}{group}{having}",
                    items.join(", ")
                )
            } else {
                let distinct = if rng.chance(30) { "DISTINCT " } else { "" };
                let lists = ["string", "string, label", "doc_id, string", "*"];
                format!(
                    "SELECT {distinct}{} FROM TOKEN{where_sql}",
                    rng.pick(&lists)
                )
            }
        }
        // Self-join via comma FROM (the naive cross-product shape).
        2 => {
            let mut cols = token_cols("T1");
            cols.extend(token_cols("T2"));
            let equi = "T1.doc_id = T2.doc_id".to_string();
            let where_sql = random_where(rng, &cols, Some(equi));
            let lists = ["T2.string", "T1.string, T2.label", "T1.doc_id, T2.string"];
            format!(
                "SELECT {} FROM TOKEN T1, TOKEN T2{where_sql}",
                rng.pick(&lists)
            )
        }
        // Cross-relation JOIN ... ON.
        _ => {
            let mut cols = token_cols("T1");
            cols.push(("D.doc", false));
            cols.push(("D.topic", true));
            let where_sql = random_where(rng, &cols, None);
            format!(
                "SELECT T1.string, D.topic FROM TOKEN T1 JOIN DOC D ON T1.doc_id = D.doc{where_sql}"
            )
        }
    }
}

/// A random query: one select, or a set operation between two
/// single-column selects (guaranteed arity match).
pub fn random_query(rng: &mut Rng) -> String {
    if rng.chance(25) {
        let arm = |rng: &mut Rng| {
            let cols = token_cols("");
            let where_sql = random_where(rng, &cols, None);
            format!("SELECT string FROM TOKEN{where_sql}")
        };
        let op = *rng.pick(&["UNION", "UNION ALL", "EXCEPT", "EXCEPT ALL", "INTERSECT"]);
        format!("{} {op} {}", arm(rng), arm(rng))
    } else {
        random_select(rng)
    }
}

/// Applies a random relabeling delta batch to TOKEN, returning the deltas.
pub fn random_delta(rng: &mut Rng, db: &mut Database) -> DeltaSet {
    let mut deltas = DeltaSet::new();
    let rel = db.relation_mut("TOKEN").unwrap();
    let n = rel.len();
    if n == 0 {
        return deltas;
    }
    let label_col = rel.schema().index_of("label").unwrap();
    let ids: Vec<i64> = (0..n as i64).collect();
    for _ in 0..1 + rng.below(4) {
        let id = *rng.pick(&ids);
        let Some(rid) = rel.find_by_pk(&Value::Int(id)) else {
            continue;
        };
        let (old, new) = rel
            .update_field(rid, label_col, Value::str(*rng.pick(LABELS)))
            .unwrap();
        deltas.record_update(&Arc::from("TOKEN"), old, new);
    }
    deltas.compact();
    deltas
}

// -------------------------------------------------- recursive workloads --

/// A random binary link graph: LINK(src, dst) over a small node domain, so
/// cycles and multi-hop chains are common.
pub fn random_link_db(seed: u64) -> Database {
    let mut rng = Rng(seed);
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[("src", ValueType::Int), ("dst", ValueType::Int)]).unwrap();
    db.create_relation("LINK", schema).unwrap();
    let nodes = 2 + rng.below(7);
    let edges = rng.below(12);
    let rel = db.relation_mut("LINK").unwrap();
    for _ in 0..edges {
        let s = rng.below(nodes) as i64;
        let d = rng.below(nodes) as i64;
        let _ = rel.insert(tuple![s, d]);
    }
    db
}

/// A random edge insert/delete batch against LINK, returning the deltas.
/// `retract` enables deletions (retractions stress the circuit's
/// delete-and-rederive fixpoint path).
pub fn random_link_delta(rng: &mut Rng, db: &mut Database, retract: bool) -> DeltaSet {
    let mut deltas = DeltaSet::new();
    let name: Arc<str> = Arc::from("LINK");
    let rel = db.relation_mut("LINK").unwrap();
    for _ in 0..1 + rng.below(3) {
        let delete = retract && !rel.is_empty() && rng.chance(40);
        if delete {
            let victim = rng.below(rel.len());
            let (rid, _) = rel.iter().nth(victim).expect("victim in range");
            let t = rel.delete(rid).unwrap();
            deltas.record_delete(&name, t);
        } else {
            let s = rng.below(8) as i64;
            let d = rng.below(8) as i64;
            if rel.insert(tuple![s, d]).is_ok() {
                deltas.record_insert(&name, tuple![s, d]);
            }
        }
    }
    deltas.compact();
    deltas
}

/// A random set-semantics `WITH RECURSIVE` query over LINK. Every shape
/// terminates on cyclic data (UNION, not UNION ALL) and is well-typed by
/// construction.
pub fn random_recursive_query(rng: &mut Rng) -> String {
    let step = *rng.pick(&[
        // Right-linear closure, aliased.
        "SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src",
        // Right-linear closure, bare columns.
        "SELECT a, dst FROM R JOIN LINK ON b = src",
        // Left-linear closure.
        "SELECT l.src, r.b FROM LINK l JOIN R r ON l.dst = r.a",
        // Step-side filter.
        "SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src WHERE l.dst <> 0",
        // Step-side projection twist (swap breaks monotone growth patterns).
        "SELECT b, a FROM R",
    ]);
    let base = *rng.pick(&[
        "SELECT src, dst FROM LINK",
        "SELECT src, dst FROM LINK WHERE src <> dst",
        "SELECT src, dst FROM LINK UNION SELECT dst, src FROM LINK",
    ]);
    let body = *rng.pick(&[
        "SELECT * FROM R",
        "SELECT a FROM R",
        "SELECT a, b FROM R WHERE a < 6",
        "SELECT a, COUNT(*) AS n FROM R GROUP BY a",
        "SELECT * FROM R UNION SELECT src, dst FROM LINK",
    ]);
    format!("WITH RECURSIVE R (a, b) AS ({base} UNION {step}) {body}")
}

/// The e2e `closure_links` shape on a random graph: LINK(id, src, dst,
/// state) over a small node domain (cycles and parallel edges are common),
/// each link `on` or `off`.
pub fn random_state_link_db(seed: u64) -> Database {
    let mut rng = Rng(seed);
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[
        ("id", ValueType::Int),
        ("src", ValueType::Int),
        ("dst", ValueType::Int),
        ("state", ValueType::Str),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap();
    db.create_relation("LINK", schema).unwrap();
    let nodes = 2 + rng.below(6);
    let rel = db.relation_mut("LINK").unwrap();
    for id in 0..1 + rng.below(14) {
        let (s, d) = (rng.below(nodes) as i64, rng.below(nodes) as i64);
        let state = if rng.chance(70) { "on" } else { "off" };
        rel.insert(tuple![id as i64, s, d, state]).unwrap();
    }
    db
}

/// The closure of the `on` links (the e2e `closure_links` view).
pub const STATE_CLOSURE_SQL: &str = "WITH RECURSIVE R(a, b) AS (\
    SELECT src, dst FROM LINK WHERE state = 'on' \
    UNION SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src WHERE l.state = 'on') \
    SELECT * FROM R";

/// Flips the `state` of one to four random links, as an MCMC interval
/// would: each flip is a retraction of the old image plus an insertion of
/// the new one, coalesced per batch.
pub fn random_state_flips(rng: &mut Rng, db: &mut Database) -> DeltaSet {
    let mut deltas = DeltaSet::new();
    let name: Arc<str> = Arc::from("LINK");
    let rel = db.relation_mut("LINK").unwrap();
    for _ in 0..1 + rng.below(4) {
        let id = rng.below(rel.len()) as i64;
        let rid = rel.find_by_pk(&Value::Int(id)).expect("ids are dense");
        let on = rel.get(rid).expect("live row").get(3) == &Value::str("on");
        let flipped = Value::str(if on { "off" } else { "on" });
        let (old, new) = rel.update_field(rid, 3, flipped).unwrap();
        deltas.record_update(&name, old, new);
    }
    deltas.compact();
    deltas
}
