//! Property tests for counted-multiset algebra — the foundation of the
//! multiset semantics the paper's §4.2 Remark requires under projection,
//! and the Z-set algebra underneath the view circuit.
//!
//! [`CountedSet`] must be a commutative group under merge (identity =
//! empty, inverse = negation), with eager zero-coalescing so equality is
//! structural; and a retraction with no matching insertion must surface as
//! [`CircuitError::InconsistentDelta`] when it reaches δ/γ operator state.

mod common;

use common::random_db;
use fgdb_relational::parser::parse_plan;
use fgdb_relational::planner::optimize;
use fgdb_relational::{tuple, CircuitError, CountedSet, DeltaSet, MaterializedView, Tuple, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    (0i64..5, 0i64..3).prop_map(|(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
}

fn entries_strategy() -> impl Strategy<Value = Vec<(Tuple, i64)>> {
    prop::collection::vec((tuple_strategy(), -4i64..5), 0..24)
}

fn build(entries: &[(Tuple, i64)]) -> CountedSet {
    let mut s = CountedSet::new();
    for (t, c) in entries {
        s.add(t.clone(), *c);
    }
    s
}

proptest! {
    /// No zero-multiplicity entries survive any construction.
    #[test]
    fn no_zero_entries(entries in entries_strategy()) {
        let s = build(&entries);
        for (_, c) in s.iter() {
            prop_assert_ne!(c, 0);
        }
    }

    /// `merge` behaves as pointwise addition of multiplicities.
    #[test]
    fn merge_is_pointwise_addition(a in entries_strategy(), b in entries_strategy()) {
        let sa = build(&a);
        let sb = build(&b);
        let mut merged = sa.clone();
        merged.merge(&sb);
        // Check over the union of supports.
        for (t, _) in sa.iter().chain(sb.iter()) {
            prop_assert_eq!(merged.count(t), sa.count(t) + sb.count(t));
        }
        prop_assert_eq!(merged.total(), sa.total() + sb.total());
    }

    /// Merge is commutative.
    #[test]
    fn merge_commutative(a in entries_strategy(), b in entries_strategy()) {
        let mut ab = build(&a);
        ab.merge(&build(&b));
        let mut ba = build(&b);
        ba.merge(&build(&a));
        prop_assert_eq!(ab.sorted_entries(), ba.sorted_entries());
    }

    /// `minus` then `merge` round-trips: (a − b) + b == a.
    #[test]
    fn minus_merge_round_trip(a in entries_strategy(), b in entries_strategy()) {
        let sa = build(&a);
        let sb = build(&b);
        let mut back = sa.minus(&sb);
        back.merge(&sb);
        prop_assert_eq!(back.sorted_entries(), sa.sorted_entries());
    }

    /// Double negation is identity; x + (−x) is empty.
    #[test]
    fn negation_laws(a in entries_strategy()) {
        let sa = build(&a);
        prop_assert_eq!(sa.negated().negated().sorted_entries(), sa.sorted_entries());
        let mut zero = sa.clone();
        zero.merge(&sa.negated());
        prop_assert!(zero.is_empty());
    }

    /// `merge_owned` agrees with `merge`.
    #[test]
    fn merge_owned_agrees(a in entries_strategy(), b in entries_strategy()) {
        let mut by_ref = build(&a);
        by_ref.merge(&build(&b));
        let mut by_val = build(&a);
        by_val.merge_owned(build(&b));
        prop_assert_eq!(by_ref.sorted_entries(), by_val.sorted_entries());
    }

    /// Support contains exactly the positive entries.
    #[test]
    fn support_is_positive_part(a in entries_strategy()) {
        let sa = build(&a);
        let support: Vec<Tuple> = sa.sorted_support();
        for t in &support {
            prop_assert!(sa.count(t) > 0);
        }
        let n_positive = sa.iter().filter(|(_, c)| *c > 0).count();
        prop_assert_eq!(support.len(), n_positive);
    }

    /// `from_tuples` counts duplicates.
    #[test]
    fn from_tuples_counts(ts in prop::collection::vec(tuple_strategy(), 0..30)) {
        let s = CountedSet::from_tuples(ts.clone());
        prop_assert_eq!(s.total(), ts.len() as i64);
        for t in &ts {
            let expected = ts.iter().filter(|u| *u == t).count() as i64;
            prop_assert_eq!(s.count(t), expected);
        }
        prop_assert!(s.check_is_state().is_none());
    }

    /// Zero-coalescing: multiplicities that cancel leave no entry behind,
    /// and adding the negation of any entry removes it entirely.
    #[test]
    fn coalesce_to_zero_means_absent(a in entries_strategy()) {
        let s = build(&a);
        let first = s.iter().next().map(|(t, c)| (t.clone(), c));
        if let Some((t, c)) = first {
            let mut s2 = s.clone();
            s2.add(t.clone(), -c);
            prop_assert_eq!(s2.count(&t), 0);
            prop_assert_eq!(s2.distinct_len(), s.distinct_len() - 1);
        }
    }

    /// Group laws: merge is commutative and associative, empty is the
    /// identity, and negation is the inverse and an involution.
    #[test]
    fn merge_is_a_commutative_group(
        a in entries_strategy(),
        b in entries_strategy(),
        c in entries_strategy(),
    ) {
        let (sa, sb, sc) = (build(&a), build(&b), build(&c));

        let mut ab = sa.clone(); ab.merge(&sb);
        let mut ba = sb.clone(); ba.merge(&sa);
        prop_assert_eq!(ab.sorted_entries(), ba.sorted_entries(), "commutativity");

        let mut ab_c = ab.clone(); ab_c.merge(&sc);
        let mut bc = sb.clone(); bc.merge(&sc);
        let mut a_bc = sa.clone(); a_bc.merge(&bc);
        prop_assert_eq!(ab_c.sorted_entries(), a_bc.sorted_entries(), "associativity");

        let mut id = sa.clone(); id.merge(&CountedSet::new());
        prop_assert_eq!(id.sorted_entries(), sa.sorted_entries(), "identity");

        let mut inv = sa.clone(); inv.merge(&sa.negated());
        prop_assert!(inv.is_empty(), "inverse: {:?}", inv.sorted_entries());
        prop_assert_eq!(sa.negated().negated(), sa.clone(), "involution");

        // Totals are additive.
        prop_assert_eq!(ab.total(), sa.total() + sb.total());
    }

    /// δ projects onto unit-multiplicity positive support, idempotently.
    #[test]
    fn distinct_is_idempotent_unit_support(a in entries_strategy()) {
        let s = build(&a);
        let d = s.distinct();
        prop_assert!(d.check_is_state().is_none());
        prop_assert_eq!(d.distinct(), d.clone());
        prop_assert_eq!(d.sorted_support(), s.sorted_support());
        for (_, c) in d.iter() {
            prop_assert_eq!(c, 1);
        }
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
