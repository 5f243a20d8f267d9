//! Stored strings as symbols: the process-wide, append-only interner.
//!
//! The TOKEN relation of §5.1 holds millions of tokens whose `string` and
//! `label` fields draw on a small vocabulary and a nine-label domain. Every
//! string a relation stores is therefore a [`Str`] holding a 4-byte
//! *symbol*, an index into one process-wide table that holds each distinct
//! string once: copying a stored string copies four bytes, and two stored
//! strings are equal exactly when their symbols are.
//!
//! Strings enter the table at the storage boundary only: relation load,
//! insert and field update ([`crate::storage::Relation`]), domain
//! construction, and the durable decoder. Everything else — a SQL literal,
//! a test's value — is a *heap* string, one thin shared allocation, until
//! storage takes it. A literal is canonicalised at bind by a lookup, which
//! never inserts, so no client can grow the table.
//!
//! A symbol and a heap string of the same text are the same value: equality
//! compares content unless both sides are symbols, and `Ord`, `Hash`, the
//! row fingerprint and every encoder read the content. No symbol reaches
//! disk or the wire, and the table is never persisted.
//!
//! **Table.** Symbol `n`'s string sits in a slot of one of 27 segments of
//! doubling size (64, 128, 256, …). Each segment and each slot is a
//! [`OnceLock`], so resolving a symbol is two acquire loads and never
//! takes a lock. Inserts — a miss in the string → symbol map — are
//! serialised by one [`Mutex`]; storage interns a whole row or a whole
//! loaded heap under one acquisition. Running out of symbols (2³² − 1 of
//! them) is a typed error, [`SymbolsExhausted`].

use crate::fasthash::{FxBuildHasher, FxHashMap};
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Slots in the first segment; segment `k` holds `FIRST_SEGMENT << k`.
const FIRST_SEGMENT: usize = 64;

/// Segments in the table: `64 · (2²⁷ − 1)` slots cover every `u32` symbol.
const SEGMENTS: usize = 27;

/// One segment of string slots.
type Segment = Box<[OnceLock<Box<str>>]>;

/// Symbol `n`'s string (see [`locate`]). Written once under [`INDEX`],
/// read without a lock.
static SLOTS: [OnceLock<Segment>; SEGMENTS] = [const { OnceLock::new() }; SEGMENTS];

/// The string → symbol map and the next free symbol. FxHash-keyed: only
/// stored strings are inserted, and a client's literal only probes it.
static INDEX: Mutex<Index> = Mutex::new(Index {
    len: 0,
    map: FxHashMap::with_hasher(FxBuildHasher::new()),
});

/// The interner ran out of symbols: 2³² − 1 distinct strings are stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SymbolsExhausted;

impl fmt::Display for SymbolsExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("the string interner is out of symbols")
    }
}

impl std::error::Error for SymbolsExhausted {}

/// A string held by a [`Value::Str`]: an interned symbol or a heap string.
///
/// Eight bytes, so a [`Value`] is sixteen. Cloning a symbol is a copy;
/// cloning a heap string bumps one reference count. Equality, ordering and
/// hashing are those of the text ([`Str::as_str`]), whichever the form.
#[derive(Clone)]
pub struct Str(Repr);

#[derive(Clone)]
enum Repr {
    /// An index into the process-wide table.
    Sym(u32),
    /// A string the table does not (or did not, when made) hold.
    Heap(Arc<Box<str>>),
}

impl Str {
    /// A heap string: `s`, not interned.
    pub fn heap(s: &str) -> Str {
        Str(Repr::Heap(Arc::new(s.into())))
    }

    /// The symbol of `s`, inserting `s` into the table on first use.
    pub fn intern(s: &str) -> Result<Str, SymbolsExhausted> {
        index().intern(s).map(|sym| Str(Repr::Sym(sym)))
    }

    /// The symbol of `s` when the table already holds it; never inserts.
    fn lookup(s: &str) -> Option<Str> {
        index().map.get(s).map(|&sym| Str(Repr::Sym(sym)))
    }

    /// This string as a symbol when the table holds its text, else
    /// unchanged — the form a bound literal takes. Never inserts.
    pub(crate) fn canonical(&self) -> Str {
        match &self.0 {
            Repr::Sym(_) => self.clone(),
            Repr::Heap(s) => Str::lookup(s).unwrap_or_else(|| self.clone()),
        }
    }

    /// True when this string is a symbol.
    pub fn is_symbol(&self) -> bool {
        matches!(self.0, Repr::Sym(_))
    }

    /// The text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Sym(sym) => resolve(*sym),
            Repr::Heap(s) => s,
        }
    }
}

impl Deref for Str {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Str {
    #[inline]
    fn eq(&self, other: &Str) -> bool {
        match (&self.0, &other.0) {
            // The table holds each text once.
            (Repr::Sym(a), Repr::Sym(b)) => a == b,
            _ => self.as_str() == other.as_str(),
        }
    }
}

impl Eq for Str {}

impl PartialOrd for Str {
    #[inline]
    fn partial_cmp(&self, other: &Str) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    #[inline]
    fn cmp(&self, other: &Str) -> std::cmp::Ordering {
        match (&self.0, &other.0) {
            (Repr::Sym(a), Repr::Sym(b)) if a == b => std::cmp::Ordering::Equal,
            _ => self.as_str().cmp(other.as_str()),
        }
    }
}

impl Hash for Str {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Interns every heap string among `values` in place, taking the table's
/// lock once, and only when there is one. On error some strings may be
/// interned and the rest left as they were; the values are equal to what
/// they were either way.
pub(crate) fn intern_values<'v>(
    values: impl IntoIterator<Item = &'v mut Value>,
) -> Result<(), SymbolsExhausted> {
    let mut guard: Option<MutexGuard<'static, Index>> = None;
    for v in values {
        if let Value::Str(Str(Repr::Heap(s))) = v {
            let sym = guard.get_or_insert_with(index).intern(s)?;
            *v = Value::Str(Str(Repr::Sym(sym)));
        }
    }
    Ok(())
}

/// Number of symbols the table holds.
#[doc(hidden)]
pub fn symbol_count() -> usize {
    index().map.len()
}

/// The string → symbol map behind [`INDEX`].
struct Index {
    /// Symbols handed out; the next one is `len`.
    len: u32,
    map: FxHashMap<&'static str, u32>,
}

impl Index {
    fn intern(&mut self, s: &str) -> Result<u32, SymbolsExhausted> {
        if let Some(&sym) = self.map.get(s) {
            return Ok(sym);
        }
        let sym = self.len;
        if sym == u32::MAX {
            return Err(SymbolsExhausted);
        }
        let (k, at) = locate(sym);
        let segment = SLOTS
            .get(k)
            .ok_or(SymbolsExhausted)?
            .get_or_init(|| (0..FIRST_SEGMENT << k).map(|_| OnceLock::new()).collect());
        // Slot `sym` is written here, under the lock, and nowhere else.
        let stored: &'static str = segment
            .get(at)
            .ok_or(SymbolsExhausted)?
            .get_or_init(|| s.into());
        self.len = sym + 1;
        self.map.insert(stored, sym);
        Ok(sym)
    }
}

/// The table's insert lock. Nothing under it panics short of an allocation
/// failure, so a poisoned lock still guards a consistent map.
fn index() -> MutexGuard<'static, Index> {
    // lint:allow(sync, held for one probe, one insert or one storage batch; resolving a symbol and writing back a symbol never take it)
    INDEX.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(segment, slot)` of symbol `sym`: segment `k` starts at symbol
/// `64 · (2ᵏ − 1)`.
#[inline]
fn locate(sym: u32) -> (usize, usize) {
    let q = u64::from(sym) / FIRST_SEGMENT as u64 + 1;
    let k = q.ilog2() as usize;
    let start = FIRST_SEGMENT * ((1 << k) - 1);
    (k, sym as usize - start)
}

/// The text of a symbol. A symbol exists only once its slot is written
/// (the write happens before the symbol is handed out), so the fallback is
/// never taken.
#[inline]
fn resolve(sym: u32) -> &'static str {
    let (k, at) = locate(sym);
    SLOTS
        .get(k)
        .and_then(OnceLock::get)
        .and_then(|segment| segment.get(at))
        .and_then(OnceLock::get)
        .map_or("", |s| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_walks_doubling_segments() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        let (k, at) = locate(u32::MAX - 1);
        assert!(k < SEGMENTS && at < FIRST_SEGMENT << k);
    }

    #[test]
    fn a_symbol_resolves_to_its_text_and_equals_its_heap_form() {
        let a = Str::intern("symbol-test-a").unwrap();
        let again = Str::intern("symbol-test-a").unwrap();
        assert!(a.is_symbol());
        assert_eq!(a.as_str(), "symbol-test-a");
        assert_eq!(a, again);
        let heap = Str::heap("symbol-test-a");
        assert!(!heap.is_symbol());
        assert_eq!(a, heap);
        assert!(heap.canonical().is_symbol());
        assert_ne!(a, Str::intern("symbol-test-b").unwrap());
        assert!(Str::intern("symbol-test-a").unwrap() < Str::heap("symbol-test-b"));
    }

    #[test]
    fn lookup_never_inserts() {
        let text = "symbol-test-never-stored";
        assert!(Str::lookup(text).is_none());
        assert!(!Str::heap(text).canonical().is_symbol());
        assert!(Str::lookup(text).is_none());
    }

    #[test]
    fn intern_values_makes_every_string_a_symbol() {
        let mut row = vec![
            Value::Int(1),
            Value::str("symbol-test-row"),
            Value::Null,
            Value::str("symbol-test-row"),
        ];
        let copy = row.clone();
        intern_values(&mut row).unwrap();
        assert_eq!(row, copy);
        assert!(row.iter().all(|v| match v {
            Value::Str(s) => s.is_symbol(),
            _ => true,
        }));
    }
}
