//! Rows wherever they live: the read interface every operator evaluates
//! against, and the rows that flow between operators without being built.
//!
//! A [`Row`] is anything with positional fields and a fingerprint: an owned
//! [`Tuple`], a slot of the column-major heap ([`crate::storage::RowRef`]),
//! or a row an operator composes in flight (a projection or concatenation
//! of the rows it received). Predicates
//! ([`crate::expr::BoundExpr`]), aggregate accumulators and key projections
//! are generic over it, so a scan, σ, π, a γ accumulator or a join probe
//! reads only the fields it names, in place. A [`Tuple`] is built
//! ([`Row::to_tuple`]) only where something keeps the row — an answer
//! multiset, a join's build side, δ/∖/∩ state, a delta image.
//!
//! Hash maps keyed by [`Tuple`] can be probed with any row: `dyn Row`
//! hashes as the tuple with the same values does (its fingerprint) and
//! compares by value, and `Tuple: Borrow<dyn Row>`.

use crate::tuple::{fingerprint_iter, Tuple};
use crate::value::Value;
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

/// Positional read access to one row.
pub trait Row {
    /// Number of fields.
    fn arity(&self) -> usize;

    /// Field `i`. Panics when `i` is out of range, like slice indexing;
    /// bound expressions and resolved key positions never are.
    fn get(&self, i: usize) -> &Value;

    /// The row's fingerprint: [`crate::tuple::fingerprint_values`] of its
    /// fields, equal to that of the [`Tuple`] [`Row::to_tuple`] builds.
    fn fingerprint(&self) -> u64;

    /// An owned tuple with this row's values — the one allocation a row
    /// costs, paid only by whoever keeps it.
    fn to_tuple(&self) -> Tuple;

    /// Projects the fields at `indices` into a reusable scratch buffer —
    /// the allocation-free key projection of joins, groupings and view
    /// maintenance.
    fn project_into(&self, indices: &[usize], out: &mut Vec<Value>) {
        out.clear();
        out.extend(indices.iter().map(|&i| self.get(i).clone()));
    }
}

impl Row for Tuple {
    #[inline]
    fn arity(&self) -> usize {
        Tuple::arity(self)
    }

    #[inline]
    fn get(&self, i: usize) -> &Value {
        Tuple::get(self, i)
    }

    #[inline]
    fn fingerprint(&self) -> u64 {
        Tuple::fingerprint(self)
    }

    /// A refcount bump: the tuple is already built.
    #[inline]
    fn to_tuple(&self) -> Tuple {
        self.clone()
    }
}

impl Hash for dyn Row + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // What `Tuple`'s `Hash` writes, so a tuple-keyed map finds it.
        state.write_u64(self.fingerprint());
    }
}

impl PartialEq for dyn Row + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint() == other.fingerprint()
            && self.arity() == other.arity()
            && (0..self.arity()).all(|i| self.get(i) == other.get(i))
    }
}

impl Eq for dyn Row + '_ {}

impl<'a> Borrow<dyn Row + 'a> for Tuple {
    fn borrow(&self) -> &(dyn Row + 'a) {
        self
    }
}

/// A row in flight between operators. Sources hand out borrowed rows; π,
/// × and ⋈ compose their output from their input rows instead of building
/// it, so a row costs an allocation only where an operator keeps it. A
/// stored row borrows the heap for `'s` — as long as the query reads the
/// database, so an operator may keep it without building it — and a
/// composed one borrows its parts for `'a`.
#[derive(Clone, Copy)]
pub(crate) enum RowView<'s, 'a> {
    /// A row some operator's state (or a delta) holds.
    Tuple(&'a Tuple),
    /// A slot of a stored relation.
    Stored(crate::storage::RowRef<'s>),
    /// The fields of a row at the given positions, in order.
    Project(&'a RowView<'s, 'a>, &'a [usize]),
    /// A probe row followed by the build-side row it matched.
    Concat(&'a RowView<'s, 'a>, &'a RowView<'s, 'a>),
}

impl Row for RowView<'_, '_> {
    fn arity(&self) -> usize {
        match self {
            RowView::Tuple(t) => t.arity(),
            RowView::Stored(r) => r.arity(),
            RowView::Project(_, indices) => indices.len(),
            RowView::Concat(l, r) => l.arity() + r.arity(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> &Value {
        match self {
            RowView::Tuple(t) => t.get(i),
            RowView::Stored(r) => r.get(i),
            RowView::Project(row, indices) => row.get(indices[i]),
            RowView::Concat(l, r) => {
                let split = l.arity();
                if i < split {
                    l.get(i)
                } else {
                    r.get(i - split)
                }
            }
        }
    }

    fn fingerprint(&self) -> u64 {
        match self {
            RowView::Tuple(t) => t.fingerprint(),
            RowView::Stored(r) => r.fingerprint(),
            RowView::Project(..) | RowView::Concat(..) => {
                fingerprint_iter((0..self.arity()).map(|i| self.get(i)))
            }
        }
    }

    fn to_tuple(&self) -> Tuple {
        match self {
            RowView::Tuple(t) => (*t).clone(),
            RowView::Stored(r) => r.to_tuple(),
            RowView::Project(..) | RowView::Concat(..) => {
                Tuple::from_values((0..self.arity()).map(|i| self.get(i).clone()))
            }
        }
    }
}

/// The tuple `l ++ r` (the output row of × and ⋈ that an operator keeps).
pub(crate) fn concat<L: Row + ?Sized, R: Row + ?Sized>(l: &L, r: &R) -> Tuple {
    let left = (0..l.arity()).map(|i| l.get(i).clone());
    Tuple::from_values(left.chain((0..r.arity()).map(|i| r.get(i).clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::CountedSet;
    use crate::tuple;

    #[test]
    fn composed_rows_read_fingerprint_and_build_like_their_tuples() {
        let a = tuple![1i64, "x", 2.5f64];
        let b = tuple!["y", false];
        let left = RowView::Tuple(&a);
        let right = RowView::Tuple(&b);
        let cat = RowView::Concat(&left, &right);
        assert_eq!(cat.to_tuple(), a.concat(&b));
        assert_eq!(Row::fingerprint(&cat), a.concat(&b).fingerprint());
        assert_eq!(concat(&a, &b), a.concat(&b));
        let proj = RowView::Project(&cat, &[3, 0]);
        assert_eq!(proj.arity(), 2);
        assert_eq!(proj.to_tuple(), tuple!["y", 1i64]);
        assert_eq!(Row::fingerprint(&proj), tuple!["y", 1i64].fingerprint());
    }

    #[test]
    fn a_tuple_keyed_map_is_probed_by_any_row() {
        let mut set = CountedSet::new();
        set.add(tuple!["x"], 2);
        let wide = tuple![7i64, "x"];
        let outer = RowView::Tuple(&wide);
        let x = RowView::Project(&outer, &[1]);
        assert_eq!(set.count_row(&x), 2);
        let other = tuple![7i64, "z"];
        let outer = RowView::Tuple(&other);
        assert_eq!(set.count_row(&RowView::Project(&outer, &[1])), 0);
        // Equal fingerprints alone never make rows equal.
        let (p, q) = (tuple![1i64], tuple![1i64, 2i64]);
        assert!((&p as &dyn Row) != (&q as &dyn Row));
    }
}
