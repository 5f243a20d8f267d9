//! Multi-producer delta merging (the sharded-sampling merge point).
//!
//! Sharded sampling gives every shard its own `DeltaSet` producer over a
//! *disjoint* set of rows; `DeltaSet::merge_all` folds them into the one
//! interval delta the views consume. These properties pin the contract:
//! the merged delta is indistinguishable — through each of the four paper
//! queries' materialized views, whose emitted deltas must equal the signed
//! change of a naive re-execution, and tuple-for-tuple in its Δ⁻/Δ⁺ sets —
//! from the delta one sequential recorder would have produced observing
//! the same interleaved mutations. Exact ± cancellation inside any single
//! producer stays invisible after the merge (the compact contract), and
//! no tuple is double counted when several producers touch one relation.

use fgdb_relational::algebra::paper_queries;
use fgdb_relational::{
    execute_simple, Database, DeltaSet, MaterializedView, Plan, RowId, Schema, Tuple, Value,
    ValueType,
};
use proptest::prelude::*;
use std::sync::Arc;

const LABELS: [&str; 4] = ["O", "B-PER", "B-ORG", "B-LOC"];
const STRINGS: [&str; 5] = ["Bill", "said", "Boston", "Ann", "IBM"];

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

fn token_tuple(id: i64, doc: i64, s: usize, label: usize) -> Tuple {
    Tuple::new(vec![
        Value::Int(id),
        Value::Int(doc),
        Value::str(STRINGS[s % STRINGS.len()]),
        Value::str(LABELS[label % LABELS.len()]),
        Value::str(LABELS[label % LABELS.len()]),
    ])
}

/// One shard-local mutation. Indices are resolved against the shard's own
/// live-row list, so shards never touch each other's rows — the disjointness
/// the sharded sampler guarantees by construction.
#[derive(Debug, Clone)]
enum Step {
    Relabel { idx: usize, label: usize },
    Insert { doc: i64, s: usize, label: usize },
    Delete { idx: usize },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..64, 0usize..4).prop_map(|(idx, label)| Step::Relabel { idx, label }),
        (0i64..4, 0usize..5, 0usize..4).prop_map(|(doc, s, label)| Step::Insert { doc, s, label }),
        (0usize..64).prop_map(|idx| Step::Delete { idx }),
    ]
}

/// One shard's mutable view of the database: the rows it owns and its
/// private tok_id namespace for inserts.
struct ShardState {
    rows: Vec<RowId>,
    next_id: i64,
}

fn apply_step(db: &mut Database, deltas: &mut DeltaSet, shard: &mut ShardState, step: &Step) {
    let rel_name: Arc<str> = Arc::from("TOKEN");
    let rel = db.relation_mut("TOKEN").unwrap();
    match step {
        Step::Relabel { idx, label } => {
            if shard.rows.is_empty() {
                return;
            }
            let rid = shard.rows[idx % shard.rows.len()];
            let (old, new) = rel
                .update_field(rid, 3, Value::str(LABELS[*label]))
                .unwrap();
            deltas.record_update(&rel_name, old, new);
        }
        Step::Insert { doc, s, label } => {
            let t = token_tuple(shard.next_id, *doc, *s, *label);
            shard.next_id += 1;
            shard.rows.push(rel.insert(t.clone()).unwrap());
            deltas.record_insert(&rel_name, t);
        }
        Step::Delete { idx } => {
            if shard.rows.is_empty() {
                return;
            }
            let rid = shard.rows.swap_remove(idx % shard.rows.len());
            let gone = rel.delete(rid).unwrap();
            deltas.record_delete(&rel_name, gone);
        }
    }
}

fn build_db(n_rows: usize) -> Database {
    let mut db = Database::new();
    db.create_relation("TOKEN", token_schema()).unwrap();
    let rel = db.relation_mut("TOKEN").unwrap();
    for i in 0..n_rows as i64 {
        rel.insert(token_tuple(i, i % 3, i as usize, i as usize))
            .unwrap();
    }
    db
}

/// Round-robin assignment of the seed rows to shards; each shard gets a
/// tok_id namespace far from the seed ids and from other shards.
fn shard_states(db: &Database, n_rows: usize, num_shards: usize) -> Vec<ShardState> {
    let rel = db.relation("TOKEN").unwrap();
    let rids: Vec<RowId> = rel.iter().map(|(rid, _)| rid).collect();
    assert_eq!(rids.len(), n_rows);
    (0..num_shards)
        .map(|s| ShardState {
            rows: rids
                .iter()
                .enumerate()
                .filter(|(i, _)| i % num_shards == s)
                .map(|(_, &rid)| rid)
                .collect(),
            next_id: (s as i64 + 1) * 10_000,
        })
        .collect()
}

fn paper_plan(kind: u8) -> Plan {
    match kind % 4 {
        0 => paper_queries::query1("TOKEN"),
        1 => paper_queries::query2("TOKEN"),
        2 => paper_queries::query3("TOKEN"),
        _ => paper_queries::query4("TOKEN"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-shard delta producers merged with `merge_all` ≡ one sequential
    /// recorder observing the interleaved stream — through every paper
    /// query's materialized view and tuple-for-tuple in Δ⁻/Δ⁺.
    #[test]
    fn merged_shard_deltas_equal_a_sequential_recording(
        kind in 0u8..4,
        n_rows in 4usize..16,
        num_shards in 1usize..4,
        per_shard in prop::collection::vec(
            prop::collection::vec(step_strategy(), 0..16), 3),
    ) {
        let plan = paper_plan(kind);

        // Sequential reference: one recorder sees the shards' mutations
        // interleaved round-robin (any interleaving is equivalent — the
        // shards' row sets are disjoint).
        let mut db_seq = build_db(n_rows);
        let before = execute_simple(&plan, &db_seq).unwrap().rows;
        let mut view_seq = MaterializedView::new(&plan, &db_seq).unwrap();
        let mut shards_seq = shard_states(&db_seq, n_rows, num_shards);
        let mut seq = DeltaSet::new();
        let longest = per_shard.iter().take(num_shards).map(Vec::len).max().unwrap_or(0);
        for round in 0..longest {
            for s in 0..num_shards {
                if let Some(step) = per_shard[s].get(round) {
                    apply_step(&mut db_seq, &mut seq, &mut shards_seq[s], step);
                }
            }
        }
        seq.compact();
        let emitted_seq = view_seq.try_apply_delta(&seq).unwrap();

        // Sharded run: each shard records into its own DeltaSet (shard-major
        // application order — cross-shard order cannot matter), then the
        // merge point folds the producers.
        let mut db_sh = build_db(n_rows);
        let mut view_sh = MaterializedView::new(&plan, &db_sh).unwrap();
        let mut shards_sh = shard_states(&db_sh, n_rows, num_shards);
        let mut producers = Vec::new();
        for s in 0..num_shards {
            let mut d = DeltaSet::new();
            for step in &per_shard[s] {
                apply_step(&mut db_sh, &mut d, &mut shards_sh[s], step);
            }
            producers.push(d);
        }
        let merged = DeltaSet::merge_all(producers);
        let emitted_sh = view_sh.try_apply_delta(&merged).unwrap();

        // Tuple-for-tuple: no double counting across producers, and
        // intra-producer cancellation stays invisible after the merge.
        prop_assert_eq!(merged.added("TOKEN"), seq.added("TOKEN"));
        prop_assert_eq!(merged.removed("TOKEN"), seq.removed("TOKEN"));
        prop_assert_eq!(merged.is_empty(), seq.is_empty());

        // Both views emit exactly the change a from-scratch recomputation
        // sees, and both answers equal that recomputation.
        let after = execute_simple(&plan, &db_seq).unwrap().rows;
        let change = after.minus(&before).sorted_entries();
        prop_assert_eq!(
            emitted_seq.sorted_entries(),
            change.clone(),
            "sequential view's emitted delta is not the recomputed change"
        );
        prop_assert_eq!(
            emitted_sh.sorted_entries(),
            change,
            "merged shard deltas emitted a different change than the sequential recording"
        );
        prop_assert_eq!(
            view_seq.result().sorted_entries(),
            after.sorted_entries(),
            "sequential view diverged from recomputation"
        );
        prop_assert_eq!(
            view_sh.result().sorted_entries(),
            after.sorted_entries(),
            "sharded view diverged from recomputation"
        );
    }

    /// A producer whose effects fully cancel (A→B→A on every touched row)
    /// contributes nothing observable to the merged delta.
    #[test]
    fn fully_cancelled_producers_vanish_in_the_merge(
        n_rows in 2usize..10,
        labels in prop::collection::vec(1usize..4, 1..6),
    ) {
        let mut db = build_db(n_rows);
        let rel_name: Arc<str> = Arc::from("TOKEN");
        let rids: Vec<RowId> = db
            .relation("TOKEN")
            .unwrap()
            .iter()
            .map(|(rid, _)| rid)
            .collect();

        // Producer 0 relabels rows away and back; producer 1 is empty.
        let mut d0 = DeltaSet::new();
        for (i, &label) in labels.iter().enumerate() {
            let rid = rids[i % rids.len()];
            let rel = db.relation_mut("TOKEN").unwrap();
            let (old, mid) = rel
                .update_field(rid, 3, Value::str(LABELS[label]))
                .unwrap();
            d0.record_update(&rel_name, old.clone(), mid.clone());
            let (_, back) = rel.update_field(rid, 3, old.get(3).clone()).unwrap();
            d0.record_update(&rel_name, mid, back);
        }
        let merged = DeltaSet::merge_all(vec![d0, DeltaSet::new()]);
        prop_assert!(merged.is_empty(), "cancelled producer leaked: {merged:?}");
        prop_assert_eq!(merged.relations().count(), 0);
    }
}
