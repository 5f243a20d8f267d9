//! Stress and edge-case tests for the storage layer: slot reuse under heavy
//! insert/delete churn, index consistency across mixed workloads, snapshots
//! (structurally shared, copy-on-write) against independently rebuilt deep
//! copies, the exact sharing counts behind the O(|Δ|) snapshot claim, and
//! the algebra-level validation of the set operators.

use fgdb_relational::tuple::fingerprint_values;
use fgdb_relational::{
    execute_simple, Database, Expr, Plan, Relation, RowId, RowRef, Schema, Tuple, Value, ValueType,
};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::from_pairs(&[("id", ValueType::Int), ("s", ValueType::Str)])
        .unwrap()
        .with_primary_key("id")
        .unwrap()
}

/// `(id pk, s, n)`: one string and one integer payload column, either of
/// which may or may not carry a secondary index.
fn wide_schema() -> Schema {
    Schema::from_pairs(&[
        ("id", ValueType::Int),
        ("s", ValueType::Str),
        ("n", ValueType::Int),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap()
}

/// An independent relation holding exactly `rel`'s state — rebuilt from the
/// persisted parts, so it shares no chunk and no index with anything.
fn deep_copy(rel: &Relation) -> Relation {
    let copy = Relation::from_raw_parts(
        Arc::clone(rel.name()),
        rel.schema().clone(),
        rel.raw_slots().to_vec(),
        rel.free_slots().to_vec(),
        &rel.indexed_columns(),
    )
    .unwrap();
    assert_eq!(copy.chunks_shared_with(rel), 0);
    copy
}

const STRINGS: [&str; 4] = ["a", "b", "c", "d"];
/// Primary keys in play: enough rows for three chunks.
const IDS: i64 = 150;

/// One row read from a relation and from its shadow: the same values, the
/// same fingerprint, and that fingerprint the one its values hash to (a
/// write that left a stale fingerprint behind fails here).
fn same_row(row: Option<RowRef<'_>>, shadow: Option<RowRef<'_>>) -> Result<(), TestCaseError> {
    match (row, shadow) {
        (Some(a), Some(b)) => {
            let values: Vec<Value> = a.values().cloned().collect();
            prop_assert_eq!(&values, &b.values().cloned().collect::<Vec<_>>());
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
            prop_assert_eq!(a.fingerprint(), fingerprint_values(&values));
            prop_assert_eq!(a.to_tuple(), Tuple::new(values));
        }
        (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
    }
    Ok(())
}

/// Rows — read through `get`, `iter` and `raw_slots` — `RowId`s, free
/// list, primary-key and index lookups all agree.
fn check_same(rel: &Relation, deep: &Relation) -> Result<(), TestCaseError> {
    prop_assert_eq!(rel.len(), deep.len());
    prop_assert_eq!(rel.raw_slots(), deep.raw_slots());
    prop_assert_eq!(rel.raw_slots().len(), deep.raw_slots().len());
    for (a, b) in rel.raw_slots().iter().zip(deep.raw_slots().iter()) {
        same_row(a, b)?;
    }
    prop_assert_eq!(rel.free_slots(), deep.free_slots());
    prop_assert_eq!(rel.indexed_columns(), deep.indexed_columns());
    for slot in 0..rel.raw_slots().len() as u32 + 2 {
        same_row(rel.get(RowId(slot)), deep.get(RowId(slot)))?;
    }
    prop_assert_eq!(rel.iter().count(), deep.iter().count());
    for ((ra, a), (rb, b)) in rel.iter().zip(deep.iter()) {
        prop_assert_eq!(ra, rb);
        same_row(Some(a), Some(b))?;
    }
    for id in 0..IDS {
        prop_assert_eq!(
            rel.find_by_pk(&Value::Int(id)),
            deep.find_by_pk(&Value::Int(id))
        );
    }
    // Bucket order is insertion history, which a rebuilt copy does not
    // share: compare buckets as sets.
    let sorted = |hits: Option<&[RowId]>| {
        hits.map(|h| {
            let mut h = h.to_vec();
            h.sort();
            h
        })
    };
    for key in STRINGS
        .iter()
        .map(|s| Value::str(*s))
        .chain((0..4).map(Value::Int))
    {
        for col in 1..3 {
            prop_assert_eq!(
                sorted(rel.index_lookup(col, &key)),
                sorted(deep.index_lookup(col, &key))
            );
        }
    }
    Ok(())
}

proptest! {
    /// Random interleavings of insert / delete / update_field (payload,
    /// indexed and primary-key columns) / create_index, applied to a
    /// relation *and to snapshots of it taken at random points*, with each
    /// relation shadowed by a deep copy (`from_raw_parts`) forked at the
    /// same moment and fed the same operations. A snapshot shares storage
    /// with its origin, a deep copy shares nothing; after every operation
    /// every relation must equal its shadow — so no write ever leaks
    /// through a shared chunk or index, in either direction.
    #[test]
    fn snapshots_match_deep_copies_under_interleaved_writes(
        ops in prop::collection::vec((0u8..8, 0usize..8, 0i64..IDS, 0usize..4), 1..400),
    ) {
        let mut pool = vec![(
            Relation::new("T", wide_schema()),
            Relation::new("T", wide_schema()),
        )];
        for (op, target, id, k) in ops {
            let target = target % pool.len();
            if op == 7 {
                // Fork: a structurally shared snapshot and its deep shadow.
                if pool.len() < 6 {
                    let (rel, _) = &pool[target];
                    let snap = rel.snapshot();
                    prop_assert_eq!(snap.chunks_shared_with(rel), rel.chunk_count());
                    prop_assert!(snap.indexes_shared_with(rel));
                    pool.push((snap, deep_copy(rel)));
                }
                continue;
            }
            let (rel, deep) = &mut pool[target];
            let row = rel.find_by_pk(&Value::Int(id));
            prop_assert_eq!(row, deep.find_by_pk(&Value::Int(id)));
            // A row that does not exist: updates and deletes must fail
            // alike (and un-share nothing).
            let rid = row.unwrap_or(RowId(id as u32 + 1000));
            match op {
                0 | 1 => {
                    let t = Tuple::new(vec![
                        Value::Int(id),
                        Value::str(STRINGS[k]),
                        Value::Int(k as i64),
                    ]);
                    prop_assert_eq!(rel.insert(t.clone()), deep.insert(t));
                }
                2 => prop_assert_eq!(rel.delete(rid), deep.delete(rid)),
                3 => prop_assert_eq!(
                    rel.update_field(rid, 1, Value::str(STRINGS[k])),
                    deep.update_field(rid, 1, Value::str(STRINGS[k]))
                ),
                4 => prop_assert_eq!(
                    rel.update_field(rid, 2, Value::Int(k as i64)),
                    deep.update_field(rid, 2, Value::Int(k as i64))
                ),
                5 => {
                    // Re-key: succeeds onto a free key, fails onto a live one.
                    let key = Value::Int((id + k as i64 * 7) % IDS);
                    prop_assert_eq!(
                        rel.update_field(rid, 0, key.clone()),
                        deep.update_field(rid, 0, key)
                    );
                }
                _ => {
                    let column = ["s", "n"][k % 2];
                    prop_assert_eq!(rel.create_index(column), deep.create_index(column));
                }
            }
            for (rel, deep) in &pool {
                check_same(rel, deep)?;
            }
        }
    }

    /// Random interleavings of insert/delete/update keep the relation, its
    /// primary-key index, and its secondary index mutually consistent.
    #[test]
    fn mixed_churn_keeps_indexes_consistent(
        ops in prop::collection::vec((0u8..3, 0i64..24, 0usize..4), 1..120),
    ) {
        const STRINGS: [&str; 4] = ["a", "b", "c", "d"];
        let mut db = Database::new();
        db.create_relation("T", schema()).unwrap();
        let rel = db.relation_mut("T").unwrap();
        rel.create_index("s").unwrap();
        let mut live: std::collections::HashMap<i64, usize> = Default::default();

        for (op, id, si) in ops {
            match op {
                0 => {
                    // Insert if absent.
                    if let std::collections::hash_map::Entry::Vacant(e) = live.entry(id) {
                        rel.insert(Tuple::new(vec![
                            Value::Int(id),
                            Value::str(STRINGS[si]),
                        ]))
                        .unwrap();
                        e.insert(si);
                    } else {
                        prop_assert!(rel
                            .insert(Tuple::new(vec![Value::Int(id), Value::str("x")]))
                            .is_err());
                    }
                }
                1 => {
                    // Delete if present.
                    if live.remove(&id).is_some() {
                        let rid = rel.find_by_pk(&Value::Int(id)).unwrap();
                        rel.delete(rid).unwrap();
                    } else {
                        prop_assert!(rel.find_by_pk(&Value::Int(id)).is_none());
                    }
                }
                _ => {
                    // Update string if present.
                    if let Some(cur) = live.get_mut(&id) {
                        let rid = rel.find_by_pk(&Value::Int(id)).unwrap();
                        rel.update_field(rid, 1, Value::str(STRINGS[si])).unwrap();
                        *cur = si;
                    }
                }
            }
            // Cross-check invariants after every operation.
            prop_assert_eq!(rel.len(), live.len());
        }
        // Secondary index agrees with a scan for every string value.
        for (i, s) in STRINGS.iter().enumerate() {
            let via_index: usize = rel
                .index_lookup(1, &Value::str(*s))
                .map(|r| r.len())
                .unwrap_or(0);
            let via_model = live.values().filter(|&&v| v == i).count();
            prop_assert_eq!(via_index, via_model, "index drift for {}", s);
        }
        // Every live row is reachable by primary key.
        for (&id, &si) in &live {
            let rid = rel.find_by_pk(&Value::Int(id)).unwrap();
            prop_assert_eq!(
                rel.get(rid).unwrap().get(1).as_str().unwrap(),
                STRINGS[si]
            );
        }
    }
}

#[test]
fn set_operation_arity_validation() {
    let mut db = Database::new();
    db.create_relation("T", schema()).unwrap();
    db.relation_mut("T")
        .unwrap()
        .insert(Tuple::new(vec![Value::Int(1), Value::str("x")]))
        .unwrap();
    // Compatible arity works…
    let ok = Plan::scan("T")
        .project(&["s"])
        .union(Plan::scan_as("T", "B").project(&["B.s"]));
    assert!(execute_simple(&ok, &db).is_ok());
    // …mismatched arity does not.
    let bad = Plan::scan("T")
        .project(&["s"])
        .union(Plan::scan_as("T", "B"));
    assert!(bad.output_columns(&db).is_err());
    assert!(execute_simple(&bad, &db).is_err());
}

#[test]
fn set_operation_display_and_base_relations() {
    let p = Plan::scan("A")
        .difference(Plan::scan("B"))
        .intersect(Plan::scan("C"));
    assert_eq!(p.to_string(), "((Scan(A) ∖ Scan(B)) ∩ Scan(C))");
    let rels: Vec<String> = p.base_relations().iter().map(|r| r.to_string()).collect();
    assert_eq!(rels, vec!["A", "B", "C"]);
}

#[test]
fn self_difference_is_empty_and_self_intersect_is_identity() {
    let mut db = Database::new();
    db.create_relation("T", schema()).unwrap();
    let rel = db.relation_mut("T").unwrap();
    for i in 0..10i64 {
        rel.insert(Tuple::new(vec![Value::Int(i), Value::str("dup")]))
            .unwrap();
    }
    let proj = Plan::scan("T").project(&["s"]); // multiset of 10 × ("dup")
    let diff = execute_simple(&proj.clone().difference(proj.clone()), &db).unwrap();
    assert!(diff.rows.is_empty());
    let inter = execute_simple(&proj.clone().intersect(proj.clone()), &db).unwrap();
    assert_eq!(inter.rows.count(&Tuple::new(vec![Value::str("dup")])), 10);
    let filtered = Plan::scan("T")
        .filter(Expr::col("id").lt(Expr::lit(3i64)))
        .project(&["s"]);
    let partial = execute_simple(&proj.intersect(filtered), &db).unwrap();
    assert_eq!(partial.rows.count(&Tuple::new(vec![Value::str("dup")])), 3);
}

/// The cost of a snapshot as exact counts, at 1K and at 100K rows: taking
/// one shares every chunk and every index; `k` field updates in `k`
/// distinct chunks un-share exactly `k` chunks and no index; further
/// updates inside already-copied chunks are free; only a write to an
/// indexed column touches an index.
#[test]
fn snapshot_sharing_is_exactly_what_was_not_written() {
    for rows in [1_000usize, 100_000] {
        let mut rel = Relation::new("T", wide_schema());
        for i in 0..rows as i64 {
            rel.insert(Tuple::new(vec![
                Value::Int(i),
                Value::str(STRINGS[i as usize % 4]),
                Value::Int(0),
            ]))
            .unwrap();
        }
        rel.create_index("s").unwrap();
        let stride = Relation::CHUNK_ROWS;
        let chunks = rel.chunk_count();
        assert_eq!(chunks, rows.div_ceil(stride));

        let snap = rel.snapshot();
        let frozen = deep_copy(&snap);
        assert_eq!(snap.chunks_shared_with(&rel), chunks);
        assert!(snap.indexes_shared_with(&rel));

        let k = chunks / 3 + 1;
        for i in 0..k {
            let row = RowId((i * stride) as u32);
            rel.update_field(row, 2, Value::Int(1)).unwrap();
            assert_eq!(snap.chunks_shared_with(&rel), chunks - (i + 1));
        }
        assert!(
            snap.indexes_shared_with(&rel),
            "payload writes leave indexes shared"
        );
        // A second write into each already-copied chunk copies nothing.
        for i in 0..k {
            let row = RowId((i * stride + 1) as u32);
            rel.update_field(row, 2, Value::Int(2)).unwrap();
        }
        assert_eq!(snap.chunks_shared_with(&rel), chunks - k);
        // Failed writes copy nothing either.
        assert!(rel
            .update_field(RowId(rows as u32 + 5), 2, Value::Int(0))
            .is_err());
        assert!(rel
            .update_field(RowId((k * stride) as u32), 2, Value::str("x"))
            .is_err());
        assert!(rel.delete(RowId(rows as u32 + 5)).is_err());
        assert_eq!(snap.chunks_shared_with(&rel), chunks - k);
        assert!(snap.indexes_shared_with(&rel));

        // The snapshot never saw any of it.
        assert_eq!(snap.raw_slots(), frozen.raw_slots());
        assert_eq!(snap.get(RowId(0)).unwrap().get(2), &Value::Int(0));
        assert_eq!(rel.get(RowId(0)).unwrap().get(2), &Value::Int(1));

        // A write to the indexed column is the one thing that un-shares an
        // index, and a snapshot of the snapshot shares with both.
        let again = snap.snapshot();
        assert_eq!(again.chunks_shared_with(&snap), chunks);
        assert_eq!(again.chunks_shared_with(&rel), chunks - k);
        rel.update_field(RowId(0), 1, Value::str("z")).unwrap();
        assert!(!snap.indexes_shared_with(&rel));
        assert!(again.indexes_shared_with(&snap));
        assert_eq!(snap.index_lookup(1, &Value::str("z")).unwrap(), &[]);
        assert_eq!(rel.index_lookup(1, &Value::str("z")).unwrap(), &[RowId(0)]);
    }
}

/// Secondary-index maintenance under heavy fan-out: 100 K rows indexed on a
/// nine-value column (≈11 K rows per key), 10 K random `update_field`s on
/// that column, and every 1 K writes each key's `index_lookup` equal, as a
/// multiset, to that of a relation rebuilt from the raw parts. Removal from
/// a bucket is positional, so the writes cost O(1) each whatever the
/// fan-out; a position left stale by a `swap_remove` would drop or
/// duplicate a row here.
#[test]
fn index_lookups_survive_writes_to_a_low_cardinality_indexed_column() {
    const LABELS: [&str; 9] = [
        "O", "B-PER", "I-PER", "B-ORG", "I-ORG", "B-LOC", "I-LOC", "B-MISC", "I-MISC",
    ];
    const ROWS: u64 = 100_000;
    let mut rel = Relation::new("T", schema());
    for i in 0..ROWS as i64 {
        rel.insert(Tuple::new(vec![Value::Int(i), Value::str(LABELS[0])]))
            .unwrap();
    }
    rel.create_index("s").unwrap();
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let sorted = |hits: &[RowId]| {
        let mut h = hits.to_vec();
        h.sort();
        h
    };
    for write in 1..=10_000 {
        let row = RowId((next() % ROWS) as u32);
        let label = LABELS[(next() % LABELS.len() as u64) as usize];
        rel.update_field(row, 1, Value::str(label)).unwrap();
        if write % 1_000 == 0 {
            let rebuilt = Relation::from_raw_parts(
                Arc::clone(rel.name()),
                rel.schema().clone(),
                rel.raw_slots().to_vec(),
                rel.free_slots().to_vec(),
                &rel.indexed_columns(),
            )
            .unwrap();
            let mut total = 0;
            for label in LABELS {
                let key = Value::str(label);
                let hits = sorted(rel.index_lookup(1, &key).unwrap());
                assert_eq!(
                    hits,
                    sorted(rebuilt.index_lookup(1, &key).unwrap()),
                    "{label}"
                );
                total += hits.len();
            }
            assert_eq!(total, ROWS as usize);
        }
    }
}
