//! Counted multisets of tuples: the one Z-set of the system.
//!
//! §4.2 of the paper remarks that in the presence of projections the set
//! difference/union of Eq. 6 "actually requires multiset semantics, because
//! counters need to be maintained" (Blakeley et al.). [`CountedSet`] is that
//! structure: a map from tuple to signed multiplicity — a Z-set in DBSP's
//! terms. A *relation state* is a counted set with strictly positive
//! multiplicities; a *delta* may carry multiplicities of either sign, where
//! a negative one is a retraction. Every unit passed between layers is one:
//! the MCMC layer's per-relation deltas, every view-circuit node's state and
//! output delta, and a view's maintained answer. Applying a delta to a state
//! is plain addition, so delta propagation through the operator tree is a
//! sequence of signed merges.
//!
//! [`CountedSet`] forms a commutative group under [`CountedSet::merge`]
//! (associative, commutative, identity = empty, inverse =
//! [`CountedSet::negated`]); the property suite `tests/prop_counted.rs`
//! checks these laws on random values. Multiplicities that coalesce to zero
//! are removed eagerly, so two counted sets are equal iff they hold the same
//! weighted tuples — there are no hidden zero entries. A state update that
//! would drive a multiplicity negative is reported by the view circuit as a
//! typed [`NegativeWeight`], never absorbed silently.

use crate::fasthash::FxHashMap;
use crate::row::Row;
use crate::tuple::Tuple;
use std::collections::hash_map;
use std::fmt;

/// A multiset of tuples with signed multiplicities.
///
/// Invariant: no entry has multiplicity zero (entries cancel out on merge).
/// A *relation state* has only positive multiplicities; a *delta* may have
/// entries of either sign.
///
/// Backed by an [`FxHashMap`] keyed on the tuples' cached fingerprints:
/// adding a tuple hashes one `u64`, not the row contents. An empty set
/// performs no heap allocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CountedSet {
    counts: FxHashMap<Tuple, i64>,
}

impl CountedSet {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty multiset with capacity.
    pub fn with_capacity(n: usize) -> Self {
        CountedSet {
            counts: FxHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Builds a state from tuples, each with multiplicity one per occurrence.
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut s = CountedSet::new();
        for t in iter {
            s.add(t, 1);
        }
        s
    }

    /// Adds `delta` to the multiplicity of `tuple`, removing the entry when
    /// it cancels to zero. Returns the new multiplicity.
    pub fn add(&mut self, tuple: Tuple, delta: i64) -> i64 {
        if delta == 0 {
            return self.count(&tuple);
        }
        match self.counts.entry(tuple) {
            hash_map::Entry::Occupied(mut e) => {
                let c = e.get_mut();
                *c += delta;
                if *c == 0 {
                    e.remove();
                    0
                } else {
                    *c
                }
            }
            hash_map::Entry::Vacant(e) => {
                e.insert(delta);
                delta
            }
        }
    }

    /// [`CountedSet::add`] for a row that is not (yet) a tuple: an existing
    /// entry is updated in place, and the row is built into a tuple only
    /// when it is new — so folding a stream of borrowed rows allocates per
    /// distinct row, not per row.
    pub fn add_row(&mut self, row: &dyn Row, delta: i64) -> i64 {
        if delta == 0 {
            return self.count_row(row);
        }
        match self.counts.get_mut(row) {
            Some(c) => {
                *c += delta;
                let c = *c;
                if c == 0 {
                    self.counts.remove(row);
                }
                c
            }
            None => {
                self.counts.insert(row.to_tuple(), delta);
                delta
            }
        }
    }

    /// Multiplicity of a tuple (zero when absent).
    pub fn count(&self, tuple: &Tuple) -> i64 {
        self.counts.get(tuple).copied().unwrap_or(0)
    }

    /// [`CountedSet::count`] of any row, without building it.
    pub fn count_row(&self, row: &dyn Row) -> i64 {
        self.counts.get(row).copied().unwrap_or(0)
    }

    /// True when the tuple has positive multiplicity ("in the answer set").
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.count(tuple) > 0
    }

    /// Number of distinct tuples with nonzero multiplicity.
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// Sum of all multiplicities (may be negative for deltas).
    pub fn total(&self) -> i64 {
        self.counts.values().sum()
    }

    /// True when no entries remain.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates `(tuple, multiplicity)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.counts.iter().map(|(t, &c)| (t, c))
    }

    /// Iterates only tuples with positive multiplicity — the answer-set view
    /// used when reporting marginals (the paper's `count(mᵢ) > 0` test).
    pub fn support(&self) -> impl Iterator<Item = &Tuple> {
        self.counts.iter().filter(|(_, &c)| c > 0).map(|(t, _)| t)
    }

    /// Merges another counted set into this one (signed union).
    pub fn merge(&mut self, other: &CountedSet) {
        for (t, c) in other.iter() {
            self.add(t.clone(), c);
        }
    }

    /// Merges, consuming the other set (avoids tuple clones).
    pub fn merge_owned(&mut self, other: CountedSet) {
        if self.counts.is_empty() {
            self.counts = other.counts;
            return;
        }
        for (t, c) in other.counts {
            self.add(t, c);
        }
    }

    /// Returns `self - other` as a new counted set.
    pub fn minus(&self, other: &CountedSet) -> CountedSet {
        let mut out = self.clone();
        for (t, c) in other.iter() {
            out.add(t.clone(), -c);
        }
        out
    }

    /// Negates every multiplicity (turns Δ⁺ into Δ⁻ and vice versa).
    pub fn negated(&self) -> CountedSet {
        CountedSet {
            counts: self.counts.iter().map(|(t, c)| (t.clone(), -c)).collect(),
        }
    }

    /// `distinct`: the positive-support tuples at multiplicity one — the
    /// Z-set image of set semantics. Negative entries are dropped.
    pub fn distinct(&self) -> CountedSet {
        CountedSet {
            counts: self
                .counts
                .iter()
                .filter(|(_, &c)| c > 0)
                .map(|(t, _)| (t.clone(), 1))
                .collect(),
        }
    }

    /// Sorted snapshot of the positive support (deterministic, for tests and
    /// experiment output).
    pub fn sorted_support(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.support().cloned().collect();
        v.sort();
        v
    }

    /// Sorted `(tuple, count)` snapshot of all entries.
    pub fn sorted_entries(&self) -> Vec<(Tuple, i64)> {
        let mut v: Vec<(Tuple, i64)> = self.iter().map(|(t, c)| (t.clone(), c)).collect();
        v.sort();
        v
    }

    /// Asserts the state invariant: all multiplicities strictly positive.
    /// Returns the first offending entry, if any.
    pub fn check_is_state(&self) -> Option<(&Tuple, i64)> {
        self.counts
            .iter()
            .find(|(_, &c)| c <= 0)
            .map(|(t, &c)| (t, c))
    }
}

impl FromIterator<Tuple> for CountedSet {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        CountedSet::from_tuples(iter)
    }
}

/// Builds a counted set from `(tuple, multiplicity)` pairs; multiplicities
/// of a repeated tuple coalesce.
impl FromIterator<(Tuple, i64)> for CountedSet {
    fn from_iter<I: IntoIterator<Item = (Tuple, i64)>>(iter: I) -> Self {
        let mut s = CountedSet::new();
        for (t, c) in iter {
            s.add(t, c);
        }
        s
    }
}

impl<'a> IntoIterator for &'a CountedSet {
    type Item = (&'a Tuple, &'a i64);
    type IntoIter = hash_map::Iter<'a, Tuple, i64>;
    fn into_iter(self) -> Self::IntoIter {
        self.counts.iter()
    }
}

/// Typed error for a state update that would drive a multiplicity
/// negative: a retraction of a tuple the state never held (or held with a
/// smaller multiplicity). On a consistent delta stream this cannot happen;
/// seeing it means the caller fed a Δ⁻ image that does not match the stored
/// world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NegativeWeight {
    /// The tuple whose multiplicity would have gone negative.
    pub tuple: Tuple,
    /// The multiplicity the update would have produced (strictly negative).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn add_and_cancel() {
        let mut s = CountedSet::new();
        assert_eq!(s.add(tuple!["a"], 2), 2);
        assert_eq!(s.add(tuple!["a"], -2), 0);
        assert!(s.is_empty());
        assert_eq!(s.count(&tuple!["a"]), 0);
        assert_eq!(s.distinct_len(), 0);
    }

    #[test]
    fn zero_delta_is_noop() {
        let mut s = CountedSet::new();
        s.add(tuple!["a"], 0);
        assert!(s.is_empty());
    }

    #[test]
    fn contains_requires_positive() {
        let mut s = CountedSet::new();
        s.add(tuple!["a"], -1);
        assert!(!s.contains(&tuple!["a"]));
        assert_eq!(s.distinct_len(), 1);
        s.add(tuple!["a"], 2);
        assert!(s.contains(&tuple!["a"]));
    }

    #[test]
    fn from_tuples_counts_duplicates() {
        let s = CountedSet::from_tuples(vec![tuple!["x"], tuple!["x"], tuple!["y"]]);
        assert_eq!(s.count(&tuple!["x"]), 2);
        assert_eq!(s.count(&tuple!["y"]), 1);
        assert_eq!(s.total(), 3);
        assert!(s.check_is_state().is_none());
    }

    #[test]
    fn merge_cancels() {
        let mut a = CountedSet::from_tuples(vec![tuple!["x"], tuple!["y"]]);
        let mut d = CountedSet::new();
        d.add(tuple!["x"], -1);
        d.add(tuple!["z"], 1);
        a.merge(&d);
        assert_eq!(a.count(&tuple!["x"]), 0);
        assert_eq!(a.count(&tuple!["y"]), 1);
        assert_eq!(a.count(&tuple!["z"]), 1);
    }

    #[test]
    fn merge_owned_fast_path() {
        let mut a = CountedSet::new();
        let b = CountedSet::from_tuples(vec![tuple!["x"]]);
        a.merge_owned(b);
        assert_eq!(a.count(&tuple!["x"]), 1);
        let c = CountedSet::from_tuples(vec![tuple!["x"]]);
        a.merge_owned(c);
        assert_eq!(a.count(&tuple!["x"]), 2);
    }

    #[test]
    fn minus_and_negated() {
        let a = CountedSet::from_tuples(vec![tuple!["x"], tuple!["x"]]);
        let b = CountedSet::from_tuples(vec![tuple!["x"], tuple!["y"]]);
        let d = a.minus(&b);
        assert_eq!(d.count(&tuple!["x"]), 1);
        assert_eq!(d.count(&tuple!["y"]), -1);
        let n = d.negated();
        assert_eq!(n.count(&tuple!["x"]), -1);
        assert_eq!(n.count(&tuple!["y"]), 1);
        assert!(n.check_is_state().is_some());
    }

    #[test]
    fn support_excludes_negative() {
        let mut s = CountedSet::new();
        s.add(tuple!["pos"], 1);
        s.add(tuple!["neg"], -1);
        let sup: Vec<_> = s.sorted_support();
        assert_eq!(sup, vec![tuple!["pos"]]);
    }

    #[test]
    fn sorted_entries_deterministic() {
        let mut s = CountedSet::new();
        s.add(tuple!["b"], 1);
        s.add(tuple!["a"], 2);
        assert_eq!(s.sorted_entries(), vec![(tuple!["a"], 2), (tuple!["b"], 1)]);
    }

    #[test]
    fn negated_is_group_inverse() {
        let s: CountedSet = vec![(tuple!["a"], 2), (tuple!["b"], -1)]
            .into_iter()
            .collect();
        let mut sum = s.clone();
        sum.merge(&s.negated());
        assert!(sum.is_empty());
    }

    #[test]
    fn distinct_clamps_to_unit_weight() {
        let s: CountedSet = vec![(tuple!["a"], 5), (tuple!["b"], -2)]
            .into_iter()
            .collect();
        let d = s.distinct();
        assert_eq!(d.count(&tuple!["a"]), 1);
        assert_eq!(d.count(&tuple!["b"]), 0);
        assert!(d.check_is_state().is_none());
    }

    #[test]
    fn support_and_totals() {
        let s: CountedSet = vec![(tuple!["p"], 2), (tuple!["n"], -3)]
            .into_iter()
            .collect();
        assert_eq!(s.sorted_support(), vec![tuple!["p"]]);
        assert_eq!(s.total(), -1);
        assert!(s.check_is_state().is_some());
        assert!(s.contains(&tuple!["p"]));
        assert!(!s.contains(&tuple!["n"]));
    }

    #[test]
    fn negative_weight_displays_tuple() {
        let err = NegativeWeight {
            tuple: tuple!["ghost"],
            weight: -2,
        };
        let msg = err.to_string();
        assert!(
            msg.contains("retraction without matching insertion"),
            "{msg}"
        );
        assert!(msg.contains("ghost") && msg.contains("-2"), "{msg}");
    }
}
