//! Typed scalar values stored in database fields.
//!
//! Every field of every tuple in the single stored possible world (§3 of the
//! paper) holds a [`Value`]. Values must be hashable and totally ordered so
//! they can serve as keys in counted multisets (needed by the view-maintenance
//! evaluator of §4.2) and in group-by maps. Floats are therefore wrapped in
//! [`F64`], which orders by IEEE total ordering and hashes by bit pattern.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::symbol::Str;

/// A hashable, totally ordered `f64` wrapper.
///
/// Equality and hashing use the raw bit pattern (so `NaN == NaN` and
/// `-0.0 != 0.0`); ordering uses [`f64::total_cmp`]. This is the standard
/// trick for using floating point values as map keys in query processing.
#[derive(Clone, Copy, Debug)]
pub struct F64(pub f64);

impl F64 {
    /// Returns the wrapped primitive.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for F64 {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for F64 {}

impl PartialOrd for F64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl Hash for F64 {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}
impl From<f64> for F64 {
    #[inline]
    fn from(v: f64) -> Self {
        F64(v)
    }
}
impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The type of a column or value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// SQL NULL; only produced by [`Value::Null`].
    Null,
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Null => "NULL",
            ValueType::Bool => "BOOL",
            ValueType::Int => "INT",
            ValueType::Float => "FLOAT",
            ValueType::Str => "STR",
        };
        f.write_str(s)
    }
}

/// A scalar value stored in a database field.
///
/// Sixteen bytes. A string is a [`Str`]: every stored string is a 4-byte
/// symbol in the process-wide interner (see [`crate::symbol`]), so copying
/// a row's values — which the sampling evaluators do constantly when moving
/// rows into Δ⁻/Δ⁺ auxiliary tables — copies its strings without touching
/// a reference count, and two stored strings compare as two `u32`s. Strings
/// only ad hoc SQL brings are thin shared heap strings. Both forms order,
/// hash and encode by content.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// SQL NULL. Compares less than every non-null value (derive order).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float with total ordering.
    Float(F64),
    /// UTF-8 string: an interned symbol or a heap string.
    Str(Str),
}

const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Builds a string value: a heap string, which storage interns when it
    /// stores it.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Str::heap(s.as_ref()))
    }

    /// This value with a heap string replaced by its symbol (see
    /// [`Str::intern`]). Should the interner be out of symbols the string
    /// stays a heap string, which storage then refuses with
    /// [`crate::StorageError::SymbolsExhausted`].
    pub fn interned(self) -> Value {
        match &self {
            Value::Str(s) if !s.is_symbol() => Str::intern(s).map_or(self, Value::Str),
            _ => self,
        }
    }

    /// This value with a heap string replaced by its symbol when the
    /// interner already holds it; never interns.
    pub(crate) fn canonical(&self) -> Value {
        match self {
            Value::Str(s) => Value::Str(s.canonical()),
            v => v.clone(),
        }
    }

    /// Builds a float value.
    pub fn float(f: f64) -> Self {
        Value::Float(F64(f))
    }

    /// The runtime type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
        }
    }

    /// True when this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer accessor.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Float accessor (also widens integers).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(f.0),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// SQL-style three-valued comparison: `None` when either side is NULL,
    /// otherwise the ordering. Cross-type numeric comparisons widen to f64;
    /// any other cross-type comparison is `None` (treated as unknown).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(a.cmp(b)),
            (Int(a), Float(b)) => Some((*a as f64).total_cmp(&b.0)),
            (Float(a), Int(b)) => Some(a.0.total_cmp(&(*b as f64))),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::str(v)
    }
}
impl<'a> From<Cow<'a, str>> for Value {
    fn from(v: Cow<'a, str>) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn f64_total_order_and_hash() {
        assert_eq!(F64(1.0), F64(1.0));
        assert_ne!(F64(1.0), F64(2.0));
        assert_eq!(F64(f64::NAN), F64(f64::NAN));
        assert!(F64(1.0) < F64(2.0));
        assert!(F64(-1.0) < F64(0.0));
        assert_eq!(hash_of(&F64(3.5)), hash_of(&F64(3.5)));
    }

    #[test]
    fn value_types() {
        assert_eq!(Value::Int(3).value_type(), ValueType::Int);
        assert_eq!(Value::str("x").value_type(), ValueType::Str);
        assert_eq!(Value::Null.value_type(), ValueType::Null);
        assert_eq!(Value::Bool(true).value_type(), ValueType::Bool);
        assert_eq!(Value::float(1.5).value_type(), ValueType::Float);
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_numeric_widening() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_strings() {
        assert_eq!(
            Value::str("abc").sql_cmp(&Value::str("abd")),
            Some(Ordering::Less)
        );
        // Cross-type string/int is unknown, not an error.
        assert_eq!(Value::str("1").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("hi").as_int(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display_round_trip_is_readable() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::float(0.5).to_string(), "0.5");
    }

    #[test]
    fn value_ordering_null_first() {
        let mut vals = [Value::Int(1), Value::Null, Value::Int(0)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
    }
}
