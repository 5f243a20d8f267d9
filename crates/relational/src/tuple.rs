//! Tuples — deterministic rows of the single stored possible world.
//!
//! A [`Tuple`] is an immutable, cheaply clonable row. Interior `Arc` sharing
//! matters because the sampling evaluators copy tuples into Δ⁻/Δ⁺ auxiliary
//! tables and counted multisets on every MCMC step (§4.2).

use crate::fasthash::FxHasher;
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Computes the cached 64-bit fingerprint a [`Tuple`] over `values` carries.
///
/// The fingerprint is an FxHash fold over every value, computed once per
/// tuple *construction*; all subsequent hash-map operations (counted
/// multisets, join states, group-by maps) hash just this one `u64` instead
/// of re-walking the values — strings included — on every probe.
///
/// The fold is hand-specialized per variant (scalar values fold their type
/// tag into a single mixing step instead of hashing a discriminant
/// separately) because tuple construction itself is on the per-proposal
/// write path. A fingerprint collision is never a correctness hazard: every
/// consumer (`CountedSet`, `TupleMap`, join/group maps) still compares full
/// values on equality.
pub fn fingerprint_values(values: &[Value]) -> u64 {
    fingerprint_iter(values)
}

/// [`fingerprint_values`] over values in a sequence rather than a slice —
/// the fingerprint of a row whose fields are not contiguous (a heap row's
/// columns, a projection or concatenation composed in flight).
pub(crate) fn fingerprint_iter<'v>(values: impl IntoIterator<Item = &'v Value>) -> u64 {
    // Per-type tag constants folded into the value's own mixing step.
    const TAG_INT: u64 = 0x9E37_79B9_7F4A_7C15;
    const TAG_FLOAT: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let mut h = FxHasher::default();
    for v in values {
        match v {
            Value::Null => h.write_u8(0xF0),
            Value::Bool(b) => h.write_u8(0x01 | ((*b as u8) << 4)),
            Value::Int(i) => h.write_u64(TAG_INT ^ (*i as u64)),
            Value::Float(f) => h.write_u64(TAG_FLOAT ^ f.get().to_bits()),
            Value::Str(s) => {
                h.write(s.as_bytes());
                h.write_u8(0xFF);
            }
        }
    }
    h.finish()
}

/// An immutable row of values.
///
/// Cloning is O(1): the underlying buffer is shared. A tuple is never
/// mutated: a stored row is updated in place in the heap
/// ([`crate::storage::Relation::update_field`]), which hands the delta
/// machinery both images as tuples.
///
/// Each tuple carries a cached [fingerprint](Tuple::fingerprint) computed at
/// construction; `Hash` emits only that `u64`, so map probes in the delta
/// hot path cost one multiply instead of a full SipHash over the row.
/// Equality still compares values exactly (the fingerprint only serves as a
/// cheap inequality fast path), and ordering is lexicographic over values.
#[derive(Clone)]
pub struct Tuple {
    values: Arc<[Value]>,
    fp: u64,
}

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.fp == other.fp && self.values == other.values
    }
}
impl Eq for Tuple {}

impl Hash for Tuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fp);
    }
}

impl PartialOrd for Tuple {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tuple {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.values.cmp(&other.values)
    }
}

impl Tuple {
    /// Builds a tuple from values. The `Vec` is copied into the shared
    /// buffer, a second allocation; the crate's own constructors collect
    /// their values straight into the buffer instead
    /// (`Tuple::from_values`).
    pub fn new(values: Vec<Value>) -> Self {
        Tuple::from_values(values)
    }

    /// Builds a tuple by collecting `values` straight into the shared
    /// buffer: one allocation when the iterator's length is exact and
    /// trusted (std's `TrustedLen`: a slice's, a range's or an array's,
    /// mapped or chained), as every row built here is; any other iterator
    /// is gathered in a `Vec` first.
    pub(crate) fn from_values(values: impl IntoIterator<Item = Value>) -> Self {
        let values: Arc<[Value]> = values.into_iter().collect();
        let fp = fingerprint_values(&values);
        Tuple { values, fp }
    }

    /// Builds a tuple whose fingerprint was already computed (hot-path
    /// constructor used by [`crate::fasthash::TupleMap`] when promoting a
    /// scratch key buffer into an owned map key, and by the heap when it
    /// materialises a stored row). The caller must pass
    /// [`fingerprint_values`] of the same values.
    pub(crate) fn from_prehashed(values: impl Into<Arc<[Value]>>, fp: u64) -> Self {
        Tuple {
            values: values.into(),
            fp,
        }
    }

    /// The values for an in-place rewrite that keeps them equal (interning
    /// a heap string as its symbol), so the fingerprint stays: the buffer
    /// is copied only when another tuple shares it.
    pub(crate) fn values_mut(&mut self) -> &mut [Value] {
        Arc::make_mut(&mut self.values)
    }

    /// Consumes the tuple, handing its values in order to `f`: moved out of
    /// the buffer when this tuple is its only owner (a freshly built row
    /// going into the heap), cloned when the buffer is shared.
    pub(crate) fn into_values<R>(
        mut self,
        f: impl FnOnce(&mut dyn Iterator<Item = Value>) -> R,
    ) -> R {
        match Arc::get_mut(&mut self.values) {
            Some(values) => f(&mut values.iter_mut().map(|v| std::mem::replace(v, Value::Null))),
            None => f(&mut self.values.iter().cloned()),
        }
    }

    /// The cached FxHash fingerprint of this row.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Builds a tuple from anything convertible to values.
    pub fn from_iter_values<I, V>(iter: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Tuple::from_values(iter.into_iter().map(Into::into))
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Field accessor by position.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Checked field accessor.
    pub fn try_get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Concatenates two tuples (used by products and joins).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        crate::row::concat(self, other)
    }

    /// Builds a tuple by cloning a value slice — for hot paths assembling
    /// rows in a reusable scratch buffer.
    pub fn from_slice(values: &[Value]) -> Tuple {
        Tuple::from_prehashed(values, fingerprint_values(values))
    }

    /// Projects the tuple onto the given column positions.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::from_values(indices.iter().map(|&i| self.values[i].clone()))
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values.iter()).finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

/// Convenience macro for building tuples in tests and examples:
/// `tuple![1, "IBM", true]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::from_iter_values::<_, $crate::value::Value>([
            $($crate::value::Value::from($v)),*
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;

    #[test]
    fn construction_and_access() {
        let t = tuple![1i64, "IBM", "B-ORG"];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), &Value::Int(1));
        assert_eq!(t.get(1).as_str(), Some("IBM"));
        assert_eq!(t.try_get(5), None);
    }

    #[test]
    fn clone_shares_buffer() {
        let t = tuple![1i64, "x"];
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.values, &u.values));
        assert_eq!(t, u);
    }

    #[test]
    fn concat_and_project() {
        let a = tuple![1i64, "x"];
        let b = tuple![2i64, "y"];
        let c = a.concat(&b);
        assert_eq!(c.arity(), 4);
        assert_eq!(c.get(2), &Value::Int(2));
        let p = c.project(&[3, 0]);
        assert_eq!(p, tuple!["y", 1i64]);
    }

    #[test]
    fn hash_eq_consistency_for_multiset_keys() {
        use std::collections::HashMap;
        let mut m: HashMap<Tuple, i64> = HashMap::new();
        *m.entry(tuple!["a", 1i64]).or_insert(0) += 1;
        *m.entry(tuple!["a", 1i64]).or_insert(0) += 1;
        assert_eq!(m.len(), 1);
        assert_eq!(m[&tuple!["a", 1i64]], 2);
    }

    #[test]
    fn display_formats_row() {
        assert_eq!(tuple![1i64, "x"].to_string(), "(1, x)");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(tuple![1i64, "a"] < tuple![1i64, "b"]);
        assert!(tuple![0i64, "z"] < tuple![1i64, "a"]);
    }

    #[test]
    fn fingerprint_is_deterministic_and_value_based() {
        let a = tuple![1i64, "IBM"];
        let b = tuple![1i64, "IBM"];
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), fingerprint_values(a.values()));
        assert_ne!(a.fingerprint(), tuple![1i64, "AMD"].fingerprint());
        // Derived constructors keep the fingerprint consistent.
        let c = Tuple::from_slice(&[Value::Int(1), Value::str("AMD")]);
        assert_eq!(c.fingerprint(), tuple![1i64, "AMD"].fingerprint());
        let d = a.concat(&b);
        assert_eq!(
            d.fingerprint(),
            tuple![1i64, "IBM", 1i64, "IBM"].fingerprint()
        );
    }

    #[test]
    fn project_into_reuses_scratch() {
        let t = tuple![1i64, "x", 2i64, "y"];
        let mut scratch = Vec::new();
        t.project_into(&[3, 0], &mut scratch);
        assert_eq!(scratch, vec![Value::str("y"), Value::Int(1)]);
        assert_eq!(
            fingerprint_values(&scratch),
            t.project(&[3, 0]).fingerprint()
        );
        // A second projection reuses the buffer.
        t.project_into(&[1], &mut scratch);
        assert_eq!(scratch, vec![Value::str("x")]);
    }
}
