//! Random variables and their domains (§3.1 of the paper).
//!
//! Each uncertain database field is a hidden random variable `Yᵢ` with a
//! finite domain `DOM(Yᵢ)`; deterministic fields are observed variables fixed
//! to a constant. We represent hidden variables by dense integer ids and
//! their values by *indexes into a shared [`Domain`]* — a world is then a
//! compact vector of small integers, which keeps the MCMC inner loop free of
//! allocation.

use fgdb_relational::Value;
use std::fmt;
use std::sync::Arc;

/// Dense identifier of a hidden random variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VariableId(pub u32);

impl VariableId {
    /// Index into per-variable arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VariableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Y{}", self.0)
    }
}

/// A finite domain: the range of values a hidden variable may take.
///
/// Domains are shared (`Arc`) across the typically many variables that use
/// the same label set — e.g. all LABEL fields share the nine-value BIO
/// domain of §5.1.
#[derive(Debug, PartialEq, Eq)]
pub struct Domain {
    values: Vec<Value>,
}

impl Domain {
    /// Builds a domain from distinct values. String values are interned
    /// ([`Value::interned`]): the write-back stores them, so a stored label
    /// is always a symbol.
    ///
    /// # Panics
    /// Panics if values are empty or contain duplicates — a domain is a set.
    pub fn new(values: Vec<Value>) -> Arc<Self> {
        assert!(!values.is_empty(), "domain must be non-empty");
        let values: Vec<Value> = values.into_iter().map(Value::interned).collect();
        for (i, v) in values.iter().enumerate() {
            assert!(!values[..i].contains(v), "duplicate domain value {v}");
        }
        Arc::new(Domain { values })
    }

    /// Builds a string-valued domain from labels.
    pub fn of_labels(labels: &[&str]) -> Arc<Self> {
        Domain::new(labels.iter().map(|l| Value::str(*l)).collect())
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Domains are never empty, but clippy likes the pair.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Value at index.
    #[inline]
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Checked value lookup: `None` when `idx` is outside the domain (the
    /// non-panicking accessor for paths fed by untrusted proposals).
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Index of a value, if present.
    pub fn index_of(&self, v: &Value) -> Option<usize> {
        self.values.iter().position(|x| x == v)
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_round_trips_values() {
        let d = Domain::of_labels(&["O", "B-PER", "I-PER"]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.value(1).as_str(), Some("B-PER"));
        assert_eq!(d.index_of(&Value::str("I-PER")), Some(2));
        assert_eq!(d.index_of(&Value::str("nope")), None);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_domain_panics() {
        Domain::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_domain_value_panics() {
        Domain::of_labels(&["a", "a"]);
    }

    #[test]
    fn variable_id_display_and_index() {
        let v = VariableId(7);
        assert_eq!(v.to_string(), "Y7");
        assert_eq!(v.index(), 7);
    }

    #[test]
    fn mixed_type_domain() {
        let d = Domain::new(vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
        assert_eq!(d.index_of(&Value::Int(2)), Some(2));
        assert_eq!(d.values().len(), 3);
    }
}
