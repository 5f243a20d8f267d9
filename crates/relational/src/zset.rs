//! Z-sets: weighted tuple collections, the algebra of incremental circuits.
//!
//! A Z-set maps tuples to signed `i64` weights. A *relation snapshot* is a
//! Z-set with strictly positive weights; a *delta* may carry weights of
//! either sign, where a negative weight is a retraction. This is the value
//! domain of DBSP-style incremental view maintenance: every circuit operator
//! consumes and produces Z-sets, and applying a delta to a snapshot is plain
//! addition.
//!
//! [`ZSet`] forms a commutative group under [`ZSet::merge`] (associative,
//! commutative, identity = empty, inverse = [`ZSet::negated`]); the property
//! suite `tests/prop_zset.rs` checks these laws on random values. Weights
//! that coalesce to zero are removed eagerly, so two Z-sets are equal iff
//! they contain the same weighted tuples — there are no hidden zero entries.
//!
//! The distinction from [`crate::counted::CountedSet`] is contractual, not
//! structural: `CountedSet` is the delta *transport* between the MCMC layer
//! and the views, while `ZSet` adds the checked state operations
//! ([`ZSet::apply_checked`]) that circuit operators use to detect
//! inconsistent streams (retracting a tuple that was never inserted) instead
//! of silently going negative through `distinct`/`aggregate` state.

use crate::counted::CountedSet;
use crate::fasthash::FxHashMap;
use crate::row::Row;
use crate::tuple::Tuple;
use std::collections::hash_map;
use std::fmt;

/// A tuple-to-weight map with no zero-weight entries.
///
/// Backed by the same fingerprint-keyed [`FxHashMap`] as
/// [`CountedSet`]: adding a tuple hashes one
/// cached `u64`, and an empty Z-set performs no heap allocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ZSet {
    weights: FxHashMap<Tuple, i64>,
}

/// Typed error for a checked state update that would drive a weight
/// negative: a retraction of a tuple the state never held (or held with a
/// smaller weight). On a consistent delta stream this cannot happen; seeing
/// it means the caller fed a Δ⁻ image that does not match the stored world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NegativeWeight {
    /// The tuple whose weight would have gone negative.
    pub tuple: Tuple,
    /// The weight the update would have produced (strictly negative).
    pub weight: i64,
}

impl fmt::Display for NegativeWeight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retraction without matching insertion: tuple {} would reach weight {}",
            self.tuple, self.weight
        )
    }
}

impl std::error::Error for NegativeWeight {}

impl ZSet {
    /// Creates an empty Z-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty Z-set with capacity for `n` tuples.
    pub fn with_capacity(n: usize) -> Self {
        ZSet {
            weights: FxHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// The backing map, for walks that must not box an iterator.
    pub(crate) fn map(&self) -> &FxHashMap<Tuple, i64> {
        &self.weights
    }

    /// Builds a Z-set from `(tuple, weight)` pairs (weights coalesce).
    pub fn from_entries<I: IntoIterator<Item = (Tuple, i64)>>(iter: I) -> Self {
        let mut z = ZSet::new();
        for (t, w) in iter {
            z.add(t, w);
        }
        z
    }

    /// Adds `w` to the weight of `tuple`, removing the entry when it
    /// coalesces to zero. Returns the new weight.
    pub fn add(&mut self, tuple: Tuple, w: i64) -> i64 {
        if w == 0 {
            return self.weight(&tuple);
        }
        match self.weights.entry(tuple) {
            hash_map::Entry::Occupied(mut e) => {
                let c = e.get_mut();
                *c += w;
                if *c == 0 {
                    e.remove();
                    0
                } else {
                    *c
                }
            }
            hash_map::Entry::Vacant(e) => {
                e.insert(w);
                w
            }
        }
    }

    /// [`ZSet::add`] for a row that is not (yet) a tuple: the row is built
    /// into a tuple only when the Z-set does not hold it already.
    pub fn add_row(&mut self, row: &dyn Row, w: i64) -> i64 {
        if w == 0 {
            return self.weights.get(row).copied().unwrap_or(0);
        }
        match self.weights.get_mut(row) {
            Some(c) => {
                *c += w;
                let c = *c;
                if c == 0 {
                    self.weights.remove(row);
                }
                c
            }
            None => {
                self.weights.insert(row.to_tuple(), w);
                w
            }
        }
    }

    /// Weight of a tuple (zero when absent).
    pub fn weight(&self, tuple: &Tuple) -> i64 {
        self.weights.get(tuple).copied().unwrap_or(0)
    }

    /// True when the tuple has positive weight (is in the answer set).
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.weight(tuple) > 0
    }

    /// True when no entries remain.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Number of distinct tuples with nonzero weight.
    pub fn distinct_len(&self) -> usize {
        self.weights.len()
    }

    /// Sum of all weights (may be negative for deltas).
    pub fn total_weight(&self) -> i64 {
        self.weights.values().sum()
    }

    /// Iterates `(tuple, weight)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.weights.iter().map(|(t, &w)| (t, w))
    }

    /// Iterates only tuples with positive weight.
    pub fn support(&self) -> impl Iterator<Item = &Tuple> {
        self.weights.iter().filter(|(_, &w)| w > 0).map(|(t, _)| t)
    }

    /// Merges another Z-set into this one (group addition).
    pub fn merge(&mut self, other: &ZSet) {
        for (t, w) in other.iter() {
            self.add(t.clone(), w);
        }
    }

    /// Merges, consuming the other Z-set (avoids tuple clones).
    pub fn merge_owned(&mut self, other: ZSet) {
        if self.weights.is_empty() {
            self.weights = other.weights;
            return;
        }
        for (t, w) in other.weights {
            self.add(t, w);
        }
    }

    /// The group inverse: every weight negated.
    pub fn negated(&self) -> ZSet {
        ZSet {
            weights: self.weights.iter().map(|(t, w)| (t.clone(), -w)).collect(),
        }
    }

    /// `distinct`: positive-support tuples at weight one — the Z-set image
    /// of set semantics. Negative entries are dropped.
    pub fn distinct(&self) -> ZSet {
        ZSet {
            weights: self
                .weights
                .iter()
                .filter(|(_, &w)| w > 0)
                .map(|(t, _)| (t.clone(), 1))
                .collect(),
        }
    }

    /// True when every weight is strictly positive (a valid snapshot).
    pub fn is_snapshot(&self) -> bool {
        self.weights.values().all(|&w| w > 0)
    }

    /// Checked state update: merges `delta` into this snapshot, requiring
    /// every resulting weight to stay non-negative. On violation the state is
    /// left **unchanged** (the update is transactional) and the offending
    /// tuple is reported — the typed surface for the "retraction of a
    /// never-inserted tuple" bug class.
    pub fn apply_checked(&mut self, delta: &ZSet) -> Result<(), NegativeWeight> {
        for (t, w) in delta.iter() {
            if w < 0 && self.weight(t) + w < 0 {
                return Err(NegativeWeight {
                    tuple: t.clone(),
                    weight: self.weight(t) + w,
                });
            }
        }
        self.merge(delta);
        Ok(())
    }

    /// Sorted `(tuple, weight)` snapshot of all entries (deterministic, for
    /// tests and experiment output).
    pub fn sorted_entries(&self) -> Vec<(Tuple, i64)> {
        let mut v: Vec<(Tuple, i64)> = self.iter().map(|(t, w)| (t.clone(), w)).collect();
        v.sort();
        v
    }

    /// Sorted snapshot of the positive support.
    pub fn sorted_support(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.support().cloned().collect();
        v.sort();
        v
    }

    /// Converts into the delta-transport representation. Both hold the
    /// same map under the same no-zero invariant, so the map moves over.
    pub fn into_counted(self) -> CountedSet {
        CountedSet::from_map(self.weights)
    }

    /// Builds a Z-set from the delta-transport representation.
    pub fn from_counted(set: &CountedSet) -> ZSet {
        let mut out = ZSet::with_capacity(set.distinct_len());
        for (t, w) in set.iter() {
            out.add(t.clone(), w);
        }
        out
    }
}

impl FromIterator<(Tuple, i64)> for ZSet {
    fn from_iter<I: IntoIterator<Item = (Tuple, i64)>>(iter: I) -> Self {
        ZSet::from_entries(iter)
    }
}

impl From<&CountedSet> for ZSet {
    fn from(set: &CountedSet) -> Self {
        ZSet::from_counted(set)
    }
}

impl From<ZSet> for CountedSet {
    fn from(z: ZSet) -> Self {
        z.into_counted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn weights_coalesce_to_zero_means_absent() {
        let mut z = ZSet::new();
        z.add(tuple!["a"], 3);
        z.add(tuple!["a"], -3);
        assert!(z.is_empty());
        assert_eq!(z.weight(&tuple!["a"]), 0);
        assert_eq!(z.distinct_len(), 0);
    }

    #[test]
    fn zero_weight_add_is_noop() {
        let mut z = ZSet::new();
        z.add(tuple!["a"], 0);
        assert!(z.is_empty());
    }

    #[test]
    fn negated_is_group_inverse() {
        let z = ZSet::from_entries(vec![(tuple!["a"], 2), (tuple!["b"], -1)]);
        let mut sum = z.clone();
        sum.merge(&z.negated());
        assert!(sum.is_empty());
    }

    #[test]
    fn distinct_clamps_to_unit_weight() {
        let z = ZSet::from_entries(vec![(tuple!["a"], 5), (tuple!["b"], -2)]);
        let d = z.distinct();
        assert_eq!(d.weight(&tuple!["a"]), 1);
        assert_eq!(d.weight(&tuple!["b"]), 0);
        assert!(d.is_snapshot());
    }

    #[test]
    fn checked_apply_rejects_unmatched_retraction() {
        let mut z = ZSet::from_entries(vec![(tuple!["present"], 1)]);
        let bad = ZSet::from_entries(vec![(tuple!["ghost"], -1)]);
        let err = z.apply_checked(&bad).unwrap_err();
        assert_eq!(err.tuple, tuple!["ghost"]);
        assert_eq!(err.weight, -1);
        // Transactional: the state is untouched.
        assert_eq!(z.sorted_entries(), vec![(tuple!["present"], 1)]);
        // A matched retraction passes.
        let good = ZSet::from_entries(vec![(tuple!["present"], -1)]);
        z.apply_checked(&good).unwrap();
        assert!(z.is_empty());
    }

    #[test]
    fn checked_apply_error_displays_tuple() {
        let mut z = ZSet::new();
        let bad = ZSet::from_entries(vec![(tuple!["ghost"], -2)]);
        let err = z.apply_checked(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("retraction without matching insertion"),
            "{msg}"
        );
        assert!(msg.contains("-2"), "{msg}");
    }

    #[test]
    fn counted_round_trip() {
        let z = ZSet::from_entries(vec![(tuple!["a"], 2), (tuple!["b"], -1)]);
        let c: CountedSet = z.clone().into();
        assert_eq!(c.sorted_entries(), z.sorted_entries());
        let back = ZSet::from(&c);
        assert_eq!(back, z);
    }

    #[test]
    fn merge_owned_fast_path() {
        let mut a = ZSet::new();
        a.merge_owned(ZSet::from_entries(vec![(tuple!["x"], 1)]));
        assert_eq!(a.weight(&tuple!["x"]), 1);
        a.merge_owned(ZSet::from_entries(vec![(tuple!["x"], 1)]));
        assert_eq!(a.weight(&tuple!["x"]), 2);
    }

    #[test]
    fn support_and_totals() {
        let z = ZSet::from_entries(vec![(tuple!["p"], 2), (tuple!["n"], -3)]);
        assert_eq!(z.sorted_support(), vec![tuple!["p"]]);
        assert_eq!(z.total_weight(), -1);
        assert!(!z.is_snapshot());
        assert!(z.contains(&tuple!["p"]));
        assert!(!z.contains(&tuple!["n"]));
    }
}
