//! Property suite for the Z-set algebra underneath the view circuit.
//!
//! [`ZSet`] must be a commutative group under merge (identity = empty,
//! inverse = negation), with eager zero-coalescing so equality is structural,
//! plus the checked-apply contract: a retraction with no matching insertion
//! is a typed, transactional error — and that same bug class surfaces as
//! [`CircuitError::InconsistentDelta`] when it reaches δ/γ operator state.

mod common;

use common::random_db;
use fgdb_relational::parser::parse_plan;
use fgdb_relational::planner::optimize;
use fgdb_relational::{tuple, CircuitError, DeltaSet, MaterializedView, Tuple, Value, ZSet};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a bag of (small tuple, small signed weight) entries, coalesced
/// into a Z-set by construction.
fn entries() -> impl Strategy<Value = Vec<(Tuple, i64)>> {
    prop::collection::vec(((0i64..4, 0i64..4), -3i64..=3), 0..24)
        .prop_map(|v| v.into_iter().map(|((a, b), w)| (tuple![a, b], w)).collect())
}

fn zset(v: Vec<(Tuple, i64)>) -> ZSet {
    ZSet::from_entries(v)
}

proptest! {
    /// Zero-coalescing: weights that cancel leave no entry behind, so no
    /// Z-set ever reports a zero weight as present.
    #[test]
    fn coalesce_to_zero_means_absent(v in entries()) {
        let z = zset(v.clone());
        for (t, w) in z.iter() {
            prop_assert_ne!(w, 0, "zero-weight entry for {:?}", t);
        }
        // Adding the negation of any entry removes it entirely.
        let first = z.iter().next().map(|(t, w)| (t.clone(), w));
        if let Some((t, w)) = first {
            let mut z2 = z.clone();
            z2.add(t.clone(), -w);
            prop_assert_eq!(z2.weight(&t), 0);
            prop_assert_eq!(z2.distinct_len(), z.distinct_len() - 1);
        }
    }

    /// Group laws: merge is commutative and associative, empty is the
    /// identity, and negation is the inverse.
    #[test]
    fn merge_is_a_commutative_group(a in entries(), b in entries(), c in entries()) {
        let (za, zb, zc) = (zset(a), zset(b), zset(c));

        let mut ab = za.clone(); ab.merge(&zb);
        let mut ba = zb.clone(); ba.merge(&za);
        prop_assert_eq!(ab.sorted_entries(), ba.sorted_entries(), "commutativity");

        let mut ab_c = ab.clone(); ab_c.merge(&zc);
        let mut bc = zb.clone(); bc.merge(&zc);
        let mut a_bc = za.clone(); a_bc.merge(&bc);
        prop_assert_eq!(ab_c.sorted_entries(), a_bc.sorted_entries(), "associativity");

        let mut id = za.clone(); id.merge(&ZSet::new());
        prop_assert_eq!(id.sorted_entries(), za.sorted_entries(), "identity");

        let mut inv = za.clone(); inv.merge(&za.negated());
        prop_assert!(inv.is_empty(), "inverse: {:?}", inv.sorted_entries());
        prop_assert_eq!(za.negated().negated(), za.clone(), "involution");

        // merge_owned agrees with merge.
        let mut owned = za.clone(); owned.merge_owned(zb.clone());
        let mut borrowed = za.clone(); borrowed.merge(&zb);
        prop_assert_eq!(owned, borrowed);

        // Totals are additive.
        prop_assert_eq!(ab.total_weight(), za.total_weight() + zb.total_weight());
    }

    /// δ projects onto unit-weight positive support, idempotently.
    #[test]
    fn distinct_is_idempotent_unit_support(v in entries()) {
        let z = zset(v);
        let d = z.distinct();
        prop_assert!(d.is_snapshot());
        prop_assert_eq!(d.distinct(), d.clone());
        prop_assert_eq!(d.sorted_support(), z.sorted_support());
        for (_, w) in d.iter() {
            prop_assert_eq!(w, 1);
        }
    }

    /// `apply_checked` either applies the whole delta (all weights stay
    /// non-negative) or rejects it leaving the state bit-identical.
    #[test]
    fn checked_apply_is_transactional(a in entries(), d in entries()) {
        // Snapshots have positive weights; build one via distinct + scaling.
        let mut state = ZSet::new();
        for (t, w) in zset(a).iter() {
            state.add(t.clone(), w.abs());
        }
        let delta = zset(d);
        let before = state.sorted_entries();
        match state.apply_checked(&delta) {
            Ok(()) => {
                prop_assert!(state.iter().all(|(_, w)| w >= 0));
                let mut expect = ZSet::from_entries(before);
                expect.merge(&delta);
                prop_assert_eq!(state.sorted_entries(), expect.sorted_entries());
            }
            Err(e) => {
                prop_assert!(e.weight < 0, "typed error carries the offending weight");
                prop_assert_eq!(state.sorted_entries(), before, "state must be untouched");
            }
        }
    }

    /// Round-tripping through the delta-transport `CountedSet` is lossless.
    #[test]
    fn counted_set_round_trip(v in entries()) {
        let z = zset(v);
        let back = ZSet::from_counted(&z.clone().into_counted());
        prop_assert_eq!(back, z);
    }
}

/// Regression: a retraction of a never-inserted tuple must surface as a
/// typed [`CircuitError::InconsistentDelta`] through *aggregate* operator
/// state (the δ path is covered in `prop_circuit.rs`), not as a panic or a
/// silently negative group count.
#[test]
fn phantom_retraction_through_aggregate_is_typed() {
    let db = random_db(7);
    let plan = parse_plan("SELECT doc_id, COUNT(*) AS n FROM TOKEN GROUP BY doc_id").unwrap();
    let opt = optimize(&plan, &db).unwrap();
    let mut view = MaterializedView::new(&opt, &db).unwrap();
    let mut deltas = DeltaSet::new();
    // doc_id 777 has no rows, so its COUNT would go negative — a phantom
    // retraction inside an existing group merely decrements, which is what
    // a legitimate delete looks like and must stay legal.
    deltas.record_delete(
        &Arc::from("TOKEN"),
        tuple![424_242i64, 777i64, "ghost", "O", "O", Value::Null],
    );
    let err = view.try_apply_delta(&deltas).unwrap_err();
    assert!(
        matches!(err, CircuitError::InconsistentDelta(_)),
        "expected InconsistentDelta, got {err:?}"
    );
}
