//! A view's initial state ≡ the nested-loop oracle, when built and after
//! maintenance.
//!
//! `MaterializedView::new` builds its circuit's state with the executor's
//! pipelines — the code `execute` runs — so `execute` cannot be the
//! reference for it. [`common::oracle`] is: it consolidates after every
//! operator, joins by nested loops and never consults an index. Every view
//! must equal it when built and after each of ten random delta batches
//! (relabels, deletions and insertions), on:
//!
//! * the paper queries and random SQL over a TOKEN of more than two
//!   morsels ([`MORSEL_CHUNKS`] heap chunks each), where the build splits
//!   its scans across the machine's cores and merges partial join indexes,
//!   group tables and answers. Documents straddle morsels, so a partial
//!   state merged wrong shows in the maintained answer even where the
//!   initial one is right;
//! * random SQL over small random databases, and recursive views over
//!   random link graphs under edge churn.

mod common;

use common::{
    oracle, random_db, random_link_db, random_link_delta, random_query, random_recursive_query,
    Rng, LABELS, STRINGS,
};
use fgdb_relational::exec::MORSEL_CHUNKS;
use fgdb_relational::parser::paper_sql;
use fgdb_relational::planner::optimize;
use fgdb_relational::{parse_plan, Database, DeltaSet, MaterializedView, Relation, Tuple, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a view of `sql` over `db` and holds it to the oracle, then does
/// so again after each of `rounds` batches `next` applies to `db`.
fn check_against_oracle(
    sql: &str,
    mut db: Database,
    rng: &mut Rng,
    rounds: usize,
    next: fn(&mut Rng, &mut Database) -> DeltaSet,
) {
    // The oracle reads the optimised plan: its nested loops over a TOKEN
    // self-join's unfiltered cross product would be quadratic in TOKEN.
    let plan = optimize(&parse_plan(sql).unwrap(), &db).unwrap();
    let expect = |db: &Database| oracle::eval(&plan, db).unwrap().sorted_entries();
    let mut view = MaterializedView::new(&plan, &db).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    assert_eq!(
        view.result().sorted_entries(),
        expect(&db),
        "initial view diverged from the oracle for `{sql}`"
    );
    for round in 0..rounds {
        let deltas = next(rng, &mut db);
        view.try_apply_delta(&deltas)
            .unwrap_or_else(|e| panic!("apply `{sql}`: {e}"));
        assert_eq!(
            view.result().sorted_entries(),
            expect(&db),
            "view diverged from the oracle on round {round} for `{sql}`"
        );
    }
}

/// `random_db`'s TOKEN grown to three morsels and a half, 96 tokens to a
/// document (so documents straddle chunks and morsels), with one DOC row
/// per document.
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
        token.insert(random_token(&mut rng, i, i / 96)).unwrap();
    }
    let doc = db.relation_mut("DOC").unwrap();
    for d in doc.len() as i64..rows / 96 + 1 {
        let topic = *rng.pick(common::TOPICS);
        doc.insert(Tuple::new(vec![Value::Int(d), Value::str(topic)]))
            .unwrap();
    }
    db
}

/// A TOKEN row in `random_db`'s shape.
fn random_token(rng: &mut Rng, id: i64, doc: i64) -> Tuple {
    let score = if rng.chance(20) {
        Value::Null
    } else {
        Value::float(rng.below(8) as f64 / 2.0)
    };
    Tuple::new(vec![
        Value::Int(id),
        Value::Int(doc),
        Value::str(*rng.pick(STRINGS)),
        Value::str(*rng.pick(LABELS)),
        Value::str(*rng.pick(LABELS)),
        score,
    ])
}

/// One to four TOKEN changes, applied and recorded: a relabel, the
/// deletion of a token (which can retract a group's extremum or empty a
/// group), or the insertion of a token past the end of a document.
fn token_churn(rng: &mut Rng, db: &mut Database) -> DeltaSet {
    let name: Arc<str> = Arc::from("TOKEN");
    let mut deltas = DeltaSet::new();
    let rel = db.relation_mut("TOKEN").unwrap();
    for _ in 0..1 + rng.below(4) {
        let live: Vec<_> = rel.iter().map(|(rid, _)| rid).collect();
        let Some(&rid) = live.get(rng.below(live.len())) else {
            break;
        };
        match rng.below(3) {
            0 => {
                let label = Value::str(*rng.pick(LABELS));
                let (old, new) = rel.update_field(rid, 3, label).unwrap();
                deltas.record_update(&name, old, new);
            }
            1 => deltas.record_delete(&name, rel.delete(rid).unwrap()),
            _ => {
                let doc = rel.get(rid).unwrap().get(1).as_int().unwrap();
                let id = 1_000_000 + rng.below(1 << 30) as i64;
                let t = random_token(rng, id, doc);
                if rel.insert(t.clone()).is_ok() {
                    deltas.record_insert(&name, t);
                }
            }
        }
    }
    deltas.compact();
    deltas
}

fn link_churn(rng: &mut Rng, db: &mut Database) -> DeltaSet {
    random_link_delta(rng, db, true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Above the split threshold: the paper queries and random SQL.
    #[test]
    fn split_builds_match_the_oracle(seed in 0u64..1u64 << 48) {
        let db = above_threshold_db(seed);
        assert!(db.relation("TOKEN").unwrap().chunk_count() > 2 * MORSEL_CHUNKS);
        let mut rng = Rng(seed ^ 0x1417);
        for sql in [
            paper_sql::query1("TOKEN"),
            paper_sql::query2("TOKEN"),
            paper_sql::query3("TOKEN"),
            paper_sql::query4("TOKEN"),
        ] {
            check_against_oracle(&sql, db.clone(), &mut rng, 10, token_churn);
        }
        let mut checked = 0;
        while checked < 4 {
            let sql = random_query(&mut rng);
            // The oracle joins by nested loops, and a TOKEN self-join is
            // quadratic in TOKEN at this size.
            if sql.contains("TOKEN T2") {
                continue;
            }
            check_against_oracle(&sql, db.clone(), &mut rng, 10, token_churn);
            checked += 1;
        }
    }
}

proptest! {
    /// Below the split threshold: random SQL, and recursive views under
    /// edge churn.
    #[test]
    fn small_builds_match_the_oracle(seed in 0u64..1u64 << 48) {
        let mut rng = Rng(seed ^ 0x5A11);
        let sql = random_query(&mut rng);
        check_against_oracle(&sql, random_db(seed), &mut rng, 10, token_churn);
        let sql = random_recursive_query(&mut rng);
        check_against_oracle(&sql, random_link_db(seed), &mut rng, 10, link_churn);
    }
}
