//! Fast non-cryptographic hashing for the delta hot path.
//!
//! Every MCMC step pushes tuples through counted multisets, join-key maps,
//! and group-by maps (§4.2's Δ⁻/Δ⁺ propagation). With the default `SipHash`
//! hasher each of those operations re-hashes the full tuple — including
//! string contents — per lookup. This module provides:
//!
//! * [`FxHasher`] — a hand-rolled FxHash-style multiply-rotate hasher (the
//!   firefox/rustc workhorse; no crates.io dependency), plus the
//!   [`FxHashMap`]/[`FxHashSet`] aliases;
//! * [`TupleMap`] — a map keyed by a tuple's *cached 64-bit fingerprint*
//!   (see [`crate::tuple::Tuple::fingerprint`]) with full-value verification
//!   on collision, so hot-path lookups need neither a rehash of the key
//!   values nor an allocated key `Tuple`: callers project key columns into a
//!   reusable scratch `Vec<Value>` and probe with `(fingerprint, &[Value])`.

use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (golden-ratio derived, as used by rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher: rotate, xor, multiply. Not DoS-resistant — fine for
/// in-process query state, which is what all users in this crate are.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add_to_hash(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            self.add_to_hash(u64::from(u32::from_le_bytes(
                bytes[..4].try_into().unwrap(),
            )));
            bytes = &bytes[4..];
        }
        if bytes.len() >= 2 {
            self.add_to_hash(u64::from(u16::from_le_bytes(
                bytes[..2].try_into().unwrap(),
            )));
            bytes = &bytes[2..];
        }
        if let Some(&b) = bytes.first() {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// A map from tuple keys to `V`, addressed by `(fingerprint, values)`.
///
/// The fingerprint is the primary key; genuine 64-bit collisions fall back
/// to a small in-bucket list verified by value equality, so semantics are
/// exact. Lookups take a borrowed `&[Value]` (typically a reusable scratch
/// buffer filled by [`crate::Row::project_into`]) — no `Tuple` allocation, no
/// re-hash of the values. An owning key `Tuple` is only constructed when a
/// *new* entry is inserted.
#[derive(Debug, Clone)]
pub struct TupleMap<V> {
    buckets: FxHashMap<u64, Bucket<V>>,
    len: usize,
}

#[derive(Debug, Clone)]
enum Bucket<V> {
    /// The overwhelmingly common case: one key per fingerprint.
    One((Tuple, V)),
    /// Fingerprint collision: linear list, verified by value equality.
    Many(Vec<(Tuple, V)>),
}

impl<V> Bucket<V> {
    fn as_slice(&self) -> &[(Tuple, V)] {
        match self {
            Bucket::One(pair) => std::slice::from_ref(pair),
            Bucket::Many(list) => list,
        }
    }
}

impl<V> Default for TupleMap<V> {
    fn default() -> Self {
        TupleMap {
            buckets: FxHashMap::default(),
            len: 0,
        }
    }
}

impl<V> TupleMap<V> {
    /// Creates an empty map (no allocation until first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all entries, keeping allocations.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.len = 0;
    }

    /// Looks up by precomputed fingerprint + key values.
    pub fn get(&self, fp: u64, key: &[Value]) -> Option<&V> {
        self.buckets
            .get(&fp)?
            .as_slice()
            .iter()
            .find(|(t, _)| t.values() == key)
            .map(|(_, v)| v)
    }

    /// Convenience lookup keyed by an existing tuple (uses its cached
    /// fingerprint; no re-hash).
    pub fn get_tuple(&self, key: &Tuple) -> Option<&V> {
        self.get(key.fingerprint(), key.values())
    }

    /// Returns the entry for the key, inserting `default()` under a key
    /// tuple built from `key` (the only place a key allocation happens).
    pub fn get_or_insert_with(
        &mut self,
        fp: u64,
        key: &[Value],
        default: impl FnOnce() -> V,
    ) -> &mut V {
        self.entry(fp, key, || Tuple::from_prehashed(key, fp), default)
    }

    /// [`TupleMap::get_or_insert_with`] for a key that is already a tuple:
    /// a new entry keeps `key` itself, no allocation.
    pub fn get_or_insert_tuple(&mut self, key: Tuple, default: impl FnOnce() -> V) -> &mut V {
        let probe = key.clone();
        self.entry(probe.fingerprint(), probe.values(), || key, default)
    }

    /// The entry for `(fp, key)`, inserting `default()` under the tuple
    /// `make_key` builds when there is none.
    fn entry(
        &mut self,
        fp: u64,
        key: &[Value],
        make_key: impl FnOnce() -> Tuple,
        default: impl FnOnce() -> V,
    ) -> &mut V {
        use std::collections::hash_map::Entry;
        match self.buckets.entry(fp) {
            Entry::Vacant(e) => {
                self.len += 1;
                let Bucket::One(pair) = e.insert(Bucket::One((make_key(), default()))) else {
                    unreachable!()
                };
                &mut pair.1
            }
            Entry::Occupied(e) => {
                let bucket = e.into_mut();
                let single_hit = matches!(&*bucket, Bucket::One(p) if p.0.values() == key);
                if single_hit {
                    let Bucket::One(pair) = bucket else {
                        unreachable!()
                    };
                    return &mut pair.1;
                }
                match bucket {
                    Bucket::One(_) => {
                        // Genuine fingerprint collision: degrade to a list.
                        let prev = std::mem::replace(bucket, Bucket::Many(Vec::with_capacity(2)));
                        let Bucket::One(pair) = prev else {
                            unreachable!()
                        };
                        let Bucket::Many(list) = bucket else {
                            unreachable!()
                        };
                        list.push(pair);
                        list.push((make_key(), default()));
                        self.len += 1;
                        &mut list.last_mut().unwrap().1
                    }
                    Bucket::Many(list) => {
                        if let Some(pos) = list.iter().position(|(t, _)| t.values() == key) {
                            &mut list[pos].1
                        } else {
                            list.push((make_key(), default()));
                            self.len += 1;
                            &mut list.last_mut().unwrap().1
                        }
                    }
                }
            }
        }
    }

    /// Removes and returns the value for the key, if present.
    pub fn remove(&mut self, fp: u64, key: &[Value]) -> Option<V> {
        let single_hit = match self.buckets.get(&fp)? {
            Bucket::One(pair) => {
                if pair.0.values() != key {
                    return None;
                }
                true
            }
            Bucket::Many(_) => false,
        };
        if single_hit {
            let Some(Bucket::One(pair)) = self.buckets.remove(&fp) else {
                unreachable!()
            };
            self.len -= 1;
            return Some(pair.1);
        }
        let Some(Bucket::Many(list)) = self.buckets.get_mut(&fp) else {
            unreachable!()
        };
        let pos = list.iter().position(|(t, _)| t.values() == key)?;
        let (_, v) = list.swap_remove(pos);
        self.len -= 1;
        if list.is_empty() {
            self.buckets.remove(&fp);
        }
        Some(v)
    }

    /// Iterates `(key, value)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &V)> {
        self.buckets
            .values()
            .flat_map(|b| b.as_slice().iter().map(|(t, v)| (t, v)))
    }

    /// Moves the `(key, value)` pairs out, in arbitrary order.
    pub fn into_entries(self) -> impl Iterator<Item = (Tuple, V)> {
        self.buckets.into_values().flat_map(|b| {
            let (one, many) = match b {
                Bucket::One(pair) => (Some(pair), Vec::new()),
                Bucket::Many(list) => (None, list),
            };
            one.into_iter().chain(many)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::tuple::fingerprint_values;

    #[test]
    fn fx_hasher_mixes_and_is_deterministic() {
        let mut a = FxHasher::default();
        a.write_u64(42);
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write_u64(43);
        assert_ne!(a.finish(), c.finish());
        let mut d = FxHasher::default();
        d.write(b"hello world, this is a longer byte string");
        assert_ne!(d.finish(), 0);
    }

    #[test]
    fn tuple_map_insert_get_remove() {
        let mut m: TupleMap<i64> = TupleMap::new();
        let k1 = tuple![1i64, "a"];
        let k2 = tuple![2i64, "b"];
        *m.get_or_insert_with(k1.fingerprint(), k1.values(), || 0) += 5;
        *m.get_or_insert_with(k2.fingerprint(), k2.values(), || 0) += 7;
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(k1.fingerprint(), k1.values()), Some(&5));
        assert_eq!(m.get_tuple(&k2), Some(&7));
        // Existing entry is reused, not duplicated.
        *m.get_or_insert_with(k1.fingerprint(), k1.values(), || 100) += 1;
        assert_eq!(m.get_tuple(&k1), Some(&6));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(k1.fingerprint(), k1.values()), Some(6));
        assert_eq!(m.get_tuple(&k1), None);
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn tuple_map_survives_forced_fingerprint_collision() {
        // Same fingerprint, different values: both entries must coexist and
        // resolve by value equality.
        let mut m: TupleMap<&'static str> = TupleMap::new();
        let a = tuple![1i64];
        let b = tuple![2i64];
        let fp = 0xdead_beef; // force a shared (wrong) fingerprint
        m.get_or_insert_with(fp, a.values(), || "a");
        m.get_or_insert_with(fp, b.values(), || "b");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(fp, a.values()), Some(&"a"));
        assert_eq!(m.get(fp, b.values()), Some(&"b"));
        assert_eq!(m.remove(fp, a.values()), Some("a"));
        assert_eq!(m.get(fp, b.values()), Some(&"b"));
        assert_eq!(m.remove(fp, b.values()), Some("b"));
        assert!(m.is_empty());
    }

    #[test]
    fn tuple_map_iterates_all_entries() {
        let mut m: TupleMap<i64> = TupleMap::new();
        for i in 0..10i64 {
            let k = tuple![i];
            m.get_or_insert_with(k.fingerprint(), k.values(), || i * 2);
        }
        let mut vals: Vec<i64> = m.iter().map(|(_, v)| *v).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        // A forced collision: both entries of the shared bucket move out.
        let fp = 0xdead_beef;
        m.get_or_insert_with(fp, tuple![100i64].values(), || 1_000);
        m.get_or_insert_with(fp, tuple![101i64].values(), || 1_001);
        let moved: Vec<(Vec<Value>, i64)> = m
            .into_entries()
            .map(|(k, v)| (k.values().to_vec(), v))
            .collect();
        assert_eq!(moved.len(), 12);
        assert!(moved.contains(&(vec![Value::Int(100)], 1_000)));
        assert!(moved.contains(&(vec![Value::Int(101)], 1_001)));
    }

    #[test]
    fn scratch_fingerprint_matches_tuple_construction() {
        let t = tuple![3i64, "x", 2.5f64];
        assert_eq!(fingerprint_values(t.values()), t.fingerprint());
    }
}
