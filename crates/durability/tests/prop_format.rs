//! Round-trip property suite for the on-disk format.
//!
//! `docs/FORMAT.md` is the normative byte-level description of every
//! persisted structure; these properties are its executable cross-check:
//! `decode(encode(x)) == x` for every record type, on randomized inputs —
//! including the delta-specific corner cases the view-maintenance pipeline
//! produces (empty batches, batches whose operations all cancelled through
//! `DeltaSet::compact`, duplicate tuples with multiplicity).

use fgdb_durability::format::{
    decode_binding, decode_chain_state, decode_changes, decode_counted_set, decode_database,
    decode_delta, decode_tuple, decode_value, decode_world, encode_binding, encode_chain_state,
    encode_changes, encode_counted_set, encode_database, encode_delta, encode_tuple, encode_value,
    encode_world, BindingRec, ChainStateRec, Dec, Enc,
};
use fgdb_durability::{IntervalRecord, Snapshot};
use fgdb_graph::{Domain, World};
use fgdb_relational::{CountedSet, Database, DeltaSet, Relation, Schema, Tuple, Value, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    // The proptest shim has no `f64: Arbitrary` or regex-string strategies;
    // floats come from raw bit patterns (which also covers NaN, ±∞, -0.0)
    // and strings from a small alphabet.
    const ALPHABET: &[u8] = b"abcXYZ019 _-\xc3\xa9"; // includes a multi-byte é
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(|bits| Value::float(f64::from_bits(bits))),
        Just(Value::float(f64::NAN)),
        Just(Value::float(-0.0)),
        prop::collection::vec(0usize..ALPHABET.len() - 1, 0..12).prop_map(|idxs| {
            let bytes: Vec<u8> = idxs.iter().map(|&i| ALPHABET[i]).collect();
            Value::str(String::from_utf8_lossy(&bytes))
        }),
    ]
}

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(value_strategy(), 0..5).prop_map(Tuple::new)
}

/// Tuples drawn from a small pool so that delta operations collide (and
/// cancel) often.
fn pooled_tuple() -> impl Strategy<Value = Tuple> {
    (0i64..6, 0usize..3).prop_map(|(id, label)| {
        Tuple::from_iter_values([Value::Int(id), Value::str(["O", "B-PER", "B-ORG"][label])])
    })
}

#[derive(Debug, Clone)]
enum DeltaOp {
    Insert(Tuple),
    Delete(Tuple),
    Update(Tuple, Tuple),
    /// An op immediately followed by its inverse — guaranteed to cancel.
    Cancelled(Tuple),
}

fn delta_op() -> impl Strategy<Value = DeltaOp> {
    prop_oneof![
        pooled_tuple().prop_map(DeltaOp::Insert),
        pooled_tuple().prop_map(DeltaOp::Delete),
        (pooled_tuple(), pooled_tuple()).prop_map(|(a, b)| DeltaOp::Update(a, b)),
        pooled_tuple().prop_map(DeltaOp::Cancelled),
    ]
}

/// Builds a compacted delta batch the way the MCMC bridge does: record ops
/// (±-cancellation happens as they land), then `compact()` once at the
/// interval boundary.
fn build_delta(ops: &[(u8, DeltaOp)]) -> DeltaSet {
    let rels: [Arc<str>; 2] = [Arc::from("TOKEN"), Arc::from("DOC")];
    let mut d = DeltaSet::new();
    for (which, op) in ops {
        let rel = &rels[(*which % 2) as usize];
        match op {
            DeltaOp::Insert(t) => d.record_insert(rel, t.clone()),
            DeltaOp::Delete(t) => d.record_delete(rel, t.clone()),
            DeltaOp::Update(a, b) => d.record_update(rel, a.clone(), b.clone()),
            DeltaOp::Cancelled(t) => {
                d.record_insert(rel, t.clone());
                d.record_delete(rel, t.clone());
            }
        }
    }
    d.compact();
    d
}

fn delta_strategy() -> impl Strategy<Value = DeltaSet> {
    prop::collection::vec((0u8..2, delta_op()), 0..40).prop_map(|ops| build_delta(&ops))
}

fn chain_state_strategy() -> impl Strategy<Value = ChainStateRec> {
    (
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 32),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(steps, rng, p, a, f, n)| ChainStateRec {
            steps_taken: steps,
            rng: rng.try_into().expect("32 bytes"),
            proposals: p,
            accepted: a,
            factors_evaluated: f,
            neighborhood_scores: n,
        })
}

/// A random relation: schema with 2–4 typed columns (pk on column 0),
/// conforming rows, some deleted (to exercise dead slots + free list), and
/// an optional secondary index.
fn relation_strategy() -> impl Strategy<Value = Relation> {
    (
        2usize..5,
        prop::collection::vec((any::<bool>(), 0usize..4), 0..12),
        prop::collection::vec(any::<bool>(), 0..12),
        any::<bool>(),
    )
        .prop_map(|(arity, rows, deletions, index)| {
            let mut cols = vec![("id", ValueType::Int)];
            let extra = [
                ("s", ValueType::Str),
                ("f", ValueType::Float),
                ("b", ValueType::Bool),
            ];
            cols.extend(extra.iter().take(arity - 1).copied());
            let schema = Schema::from_pairs(&cols)
                .unwrap()
                .with_primary_key("id")
                .unwrap();
            let mut rel = Relation::new("R", schema);
            let mut rids = Vec::new();
            for (i, (flag, n)) in rows.iter().enumerate() {
                let mut vals = vec![Value::Int(i as i64)];
                for c in 1..arity {
                    vals.push(match c {
                        1 => {
                            if *flag {
                                Value::Null
                            } else {
                                Value::str(format!("s{n}"))
                            }
                        }
                        2 => Value::float(*n as f64 / 3.0),
                        _ => Value::Bool(*flag),
                    });
                }
                rids.push(rel.insert(Tuple::new(vals)).unwrap());
            }
            for (i, del) in deletions.iter().enumerate() {
                if *del && i < rids.len() && rel.get(rids[i]).is_some() {
                    rel.delete(rids[i]).unwrap();
                }
            }
            if index && arity > 1 {
                rel.create_index("s").unwrap();
            }
            rel
        })
}

fn world_strategy() -> impl Strategy<Value = World> {
    (
        1usize..4,
        prop::collection::vec((0usize..3, 0u16..4), 1..10),
    )
        .prop_map(|(n_domains, vars)| {
            let pool: Vec<Arc<Domain>> = (0..n_domains)
                .map(|i| {
                    let labels: Vec<String> =
                        (0..(i + 2) * 2).map(|j| format!("v{i}_{j}")).collect();
                    Domain::new(labels.into_iter().map(Value::str).collect())
                })
                .collect();
            let mut domains = Vec::new();
            let mut assignment = Vec::new();
            for (which, idx) in vars {
                let d = Arc::clone(&pool[which % pool.len()]);
                assignment.push(idx % d.len() as u16);
                domains.push(d);
            }
            World::from_parts(domains, assignment)
        })
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn delta_entries(d: &DeltaSet) -> Vec<(String, Vec<(Tuple, i64)>)> {
    d.relations()
        .map(|r| {
            (
                r.to_string(),
                d.for_relation(r).expect("nonempty").sorted_entries(),
            )
        })
        .collect()
}

fn db_of(rel: Relation) -> Database {
    let mut db = Database::new();
    db.adopt_relation(rel).unwrap();
    db
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FORMAT.md §Value: encode∘decode ≡ id, bit-exact (NaN and -0.0
    /// included — floats persist as raw IEEE bits).
    #[test]
    fn value_round_trips(v in value_strategy()) {
        let mut e = Enc::new();
        encode_value(&mut e, &v);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = decode_value(&mut d).unwrap();
        d.finish().unwrap();
        prop_assert_eq!(back, v);
    }

    /// FORMAT.md §Tuple: round-trip preserves values *and* the derived
    /// fingerprint (recomputed, not persisted).
    #[test]
    fn tuple_round_trips(t in tuple_strategy()) {
        let mut e = Enc::new();
        encode_tuple(&mut e, &t);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = decode_tuple(&mut d).unwrap();
        d.finish().unwrap();
        prop_assert_eq!(back.fingerprint(), t.fingerprint());
        prop_assert_eq!(back, t);
    }

    /// FORMAT.md §CountedSet: round-trip identity plus canonical bytes
    /// (re-encoding the decoded set reproduces the input encoding).
    #[test]
    fn counted_set_round_trips(
        entries in prop::collection::vec((pooled_tuple(), -4i64..5), 0..20),
    ) {
        let mut s = CountedSet::new();
        for (t, c) in entries {
            s.add(t, c);
        }
        let mut e = Enc::new();
        encode_counted_set(&mut e, &s);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = decode_counted_set(&mut d).unwrap();
        d.finish().unwrap();
        prop_assert_eq!(&back, &s);
        let mut e2 = Enc::new();
        encode_counted_set(&mut e2, &back);
        prop_assert_eq!(e2.into_bytes(), bytes);
    }

    /// The satellite property: encode∘decode ≡ id on random *compacted*
    /// delta batches — the exact structure `ProbabilisticDB::step` hands
    /// the WAL encoder, cancelled relations and all.
    #[test]
    fn compacted_delta_batches_round_trip(delta in delta_strategy()) {
        let mut e = Enc::new();
        encode_delta(&mut e, &delta);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = decode_delta(&mut d).unwrap();
        d.finish().unwrap();
        prop_assert_eq!(delta_entries(&back), delta_entries(&delta));
        prop_assert_eq!(back.is_empty(), delta.is_empty());
        prop_assert_eq!(back.magnitude(), delta.magnitude());
    }

    /// Deltas whose operations all cancelled (and the empty delta) encode
    /// to the same bytes as an empty delta and decode back to emptiness.
    #[test]
    fn all_cancelled_deltas_encode_empty(ts in prop::collection::vec(pooled_tuple(), 0..10)) {
        let rel: Arc<str> = Arc::from("TOKEN");
        let mut d = DeltaSet::new();
        for t in &ts {
            d.record_insert(&rel, t.clone());
        }
        for t in &ts {
            d.record_delete(&rel, t.clone());
        }
        // Note: deliberately *not* compacted — the encoder must still skip
        // the empty per-relation entry.
        let mut e = Enc::new();
        encode_delta(&mut e, &d);
        let bytes = e.into_bytes();
        let mut empty_enc = Enc::new();
        encode_delta(&mut empty_enc, &DeltaSet::new());
        prop_assert_eq!(&bytes, &empty_enc.into_bytes());
        let back = decode_delta(&mut Dec::new(&bytes)).unwrap();
        prop_assert!(back.is_empty());
    }

    /// FORMAT.md §Relation / §Database: slot-exact round trip — row ids,
    /// dead slots, free-list order, pk lookups, and index columns all
    /// survive.
    #[test]
    fn relation_round_trips(rel in relation_strategy()) {
        let raw_slots = rel.raw_slots().to_vec();
        let free = rel.free_slots().to_vec();
        let indexed = rel.indexed_columns();
        let db = db_of(rel);
        let mut e = Enc::new();
        encode_database(&mut e, &db);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = decode_database(&mut d).unwrap();
        d.finish().unwrap();
        let brel = back.relation("R").unwrap();
        prop_assert_eq!(brel.raw_slots(), &raw_slots[..]);
        prop_assert_eq!(brel.free_slots(), &free[..]);
        prop_assert_eq!(brel.indexed_columns(), indexed);
        prop_assert_eq!(brel.schema(), db.relation("R").unwrap().schema());
        // Canonical: re-encoding is byte-identical.
        let mut e2 = Enc::new();
        encode_database(&mut e2, &back);
        prop_assert_eq!(e2.into_bytes(), bytes);
    }

    /// FORMAT.md §World: assignment, domain contents, and domain *sharing*
    /// all round-trip.
    #[test]
    fn world_round_trips(w in world_strategy()) {
        let mut e = Enc::new();
        encode_world(&mut e, &w);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = decode_world(&mut d).unwrap();
        d.finish().unwrap();
        prop_assert_eq!(back.assignment(), w.assignment());
        prop_assert_eq!(back.num_variables(), w.num_variables());
        for (i, (bd, wd)) in back.domains().iter().zip(w.domains()).enumerate() {
            prop_assert_eq!(bd.values(), wd.values(), "domain {}", i);
            for j in 0..i {
                prop_assert_eq!(
                    Arc::ptr_eq(bd, &back.domains()[j]),
                    Arc::ptr_eq(wd, &w.domains()[j]),
                    "sharing of domains {} and {}",
                    i,
                    j
                );
            }
        }
    }

    /// FORMAT.md §Chain state / §Binding / §Net changes.
    #[test]
    fn chain_binding_changes_round_trip(
        chain in chain_state_strategy(),
        rows in prop::collection::vec(any::<u32>(), 0..20),
        column in any::<u32>(),
        changes in prop::collection::vec((any::<u32>(), any::<u16>(), any::<u16>()), 0..20),
    ) {
        let mut e = Enc::new();
        encode_chain_state(&mut e, &chain);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        prop_assert_eq!(decode_chain_state(&mut d).unwrap(), chain);
        d.finish().unwrap();

        let binding = BindingRec {
            relation: Arc::from("TOKEN"),
            column,
            rows,
        };
        let mut e = Enc::new();
        encode_binding(&mut e, &binding);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        prop_assert_eq!(decode_binding(&mut d).unwrap(), binding);
        d.finish().unwrap();

        let mut e = Enc::new();
        encode_changes(&mut e, &changes);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        prop_assert_eq!(decode_changes(&mut d).unwrap(), changes);
        d.finish().unwrap();
    }

    /// FORMAT.md §Interval record: the full WAL payload round-trips through
    /// the framed encode/decode pair.
    #[test]
    fn interval_record_round_trips(
        seq in any::<u64>(),
        changes in prop::collection::vec((any::<u32>(), any::<u16>(), any::<u16>()), 0..12),
        delta in delta_strategy(),
        chain in chain_state_strategy(),
    ) {
        let rec = IntervalRecord { seq, changes, delta, chain };
        let payload = rec.encode();
        let back = IntervalRecord::decode(&payload).unwrap();
        prop_assert_eq!(back.seq, rec.seq);
        prop_assert_eq!(back.changes, rec.changes);
        prop_assert_eq!(back.chain, rec.chain);
        prop_assert_eq!(delta_entries(&back.delta), delta_entries(&rec.delta));
    }

    /// Decoding arbitrary garbage never panics — it errors or (for a lucky
    /// prefix) produces a value, but must not bring the process down. This
    /// is the no-panic contract recovery relies on when walking a corrupt
    /// region that happened to checksum-collide.
    #[test]
    fn decoding_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_value(&mut Dec::new(&bytes));
        let _ = decode_tuple(&mut Dec::new(&bytes));
        let _ = decode_counted_set(&mut Dec::new(&bytes));
        let _ = decode_delta(&mut Dec::new(&bytes));
        let _ = decode_database(&mut Dec::new(&bytes));
        let _ = decode_world(&mut Dec::new(&bytes));
        let _ = decode_chain_state(&mut Dec::new(&bytes));
        let _ = decode_binding(&mut Dec::new(&bytes));
        let _ = decode_changes(&mut Dec::new(&bytes));
        let _ = IntervalRecord::decode(&bytes);
    }

    /// Snapshot files round-trip through the real file protocol (header,
    /// frame, checksum) for randomized states.
    #[test]
    fn snapshot_files_round_trip(
        rel in relation_strategy(),
        world in world_strategy(),
        chain in chain_state_strategy(),
        seq in any::<u64>(),
    ) {
        let dir = fgdb_durability::test_dir("prop-snap");
        let binding = BindingRec {
            relation: Arc::from("R"),
            column: 1,
            rows: (0..world.num_variables() as u32).collect(),
        };
        let snap = Snapshot { seq, db: db_of(rel), world, chain, binding };
        fgdb_durability::write_snapshot(&dir, &snap).unwrap();
        let back = fgdb_durability::read_snapshot(&dir).unwrap();
        prop_assert_eq!(back.seq, snap.seq);
        prop_assert_eq!(back.chain, snap.chain);
        prop_assert_eq!(back.binding, snap.binding);
        prop_assert_eq!(back.world.assignment(), snap.world.assignment());
        prop_assert_eq!(
            back.db.relation("R").unwrap().raw_slots(),
            snap.db.relation("R").unwrap().raw_slots()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
