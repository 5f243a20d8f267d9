//! Heap storage for relations.
//!
//! A [`Relation`] stores the deterministic tuples of the current possible
//! world in a slotted heap: rows get stable [`RowId`]s so the MCMC bridge can
//! address "the LABEL field of token 1234" as a random variable and write
//! sampled values back (§5 of the paper: "propagating changes to random
//! variables back to the tuples on disk").
//!
//! Updates are field-granular and return both the pre- and post-image of the
//! row; the delta tracker (see [`crate::delta`]) turns these into the Δ⁻/Δ⁺
//! auxiliary tables of §4.2.

use crate::counted::CountedSet;
use crate::fasthash::FxHashMap;
use crate::schema::{Schema, SchemaError};
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Stable identifier of a row slot within a relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row#{}", self.0)
    }
}

/// Errors raised by storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Schema validation failed.
    Schema(SchemaError),
    /// A primary key value is already present.
    DuplicateKey(String),
    /// The row id does not name a live row.
    NoSuchRow(RowId),
    /// Column index out of range.
    NoSuchColumn(usize),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Schema(e) => write!(f, "schema error: {e}"),
            StorageError::DuplicateKey(k) => write!(f, "duplicate primary key {k}"),
            StorageError::NoSuchRow(r) => write!(f, "no such row {r}"),
            StorageError::NoSuchColumn(c) => write!(f, "no such column index {c}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<SchemaError> for StorageError {
    fn from(e: SchemaError) -> Self {
        StorageError::Schema(e)
    }
}

/// A secondary hash index over one column.
///
/// The paper's scalability experiment deliberately runs *without* an index on
/// the STRING field (§5.3), so indexes are opt-in per column. When present,
/// the executor uses them for equality predicates.
#[derive(Clone, Debug, Default)]
struct HashIndex {
    column: usize,
    map: FxHashMap<Value, Vec<RowId>>,
}

impl HashIndex {
    fn build<'a>(column: usize, rows: impl Iterator<Item = (RowId, &'a Tuple)>) -> Self {
        let mut ix = HashIndex {
            column,
            map: FxHashMap::default(),
        };
        for (rid, t) in rows {
            ix.insert(rid, t);
        }
        ix
    }

    fn insert(&mut self, row: RowId, t: &Tuple) {
        self.map
            .entry(t.get(self.column).clone())
            .or_default()
            .push(row);
    }

    fn remove(&mut self, row: RowId, t: &Tuple) {
        if let Some(v) = self.map.get_mut(t.get(self.column)) {
            if let Some(pos) = v.iter().position(|r| *r == row) {
                v.swap_remove(pos);
            }
            if v.is_empty() {
                self.map.remove(t.get(self.column));
            }
        }
    }
}

/// One fixed-size run of consecutive slots; `None` is a dead (or, past the
/// relation's slot count, not yet allocated) slot.
type Chunk = [Option<Tuple>; Relation::CHUNK_ROWS];

const EMPTY_SLOT: Option<Tuple> = None;

/// Reads slot `i` (`None` when dead or out of range).
fn slot(chunks: &[Arc<Chunk>], i: usize) -> Option<&Tuple> {
    chunks.get(i / Relation::CHUNK_ROWS)?[i % Relation::CHUNK_ROWS].as_ref()
}

/// Write access to slot `i`, un-sharing its chunk first when a snapshot
/// still holds it (one uniqueness check otherwise).
fn slot_mut(chunks: &mut [Arc<Chunk>], i: usize) -> Option<&mut Option<Tuple>> {
    Some(&mut Arc::make_mut(chunks.get_mut(i / Relation::CHUNK_ROWS)?)[i % Relation::CHUNK_ROWS])
}

/// A named relation backed by a slotted heap.
///
/// The heap is an array of fixed-size slot chunks, each behind an `Arc`, and
/// the primary-key and secondary hash indexes sit behind `Arc`s of their
/// own. Cloning — the snapshot of §5.4's parallel evaluation ("identical
/// copies of the initial world") and of every published serving epoch — is
/// therefore *structural sharing*: one pointer bump per chunk and per
/// index, independent of how many rows the chunks hold. Writers copy on
/// write: `insert`/`delete`/`update_field` un-share exactly the chunk they
/// touch (and an index only when the write changes an indexed key), so a
/// clone and its original diverge at a cost proportional to what changed,
/// and neither ever observes the other's writes — replicas can be mutated by
/// independent MCMC chains without synchronization.
/// [`Relation::chunks_shared_with`] counts what two relations still share.
#[derive(Clone)]
pub struct Relation {
    name: Arc<str>,
    schema: Schema,
    /// Slot `i` lives at `chunks[i / CHUNK_ROWS][i % CHUNK_ROWS]`.
    chunks: Vec<Arc<Chunk>>,
    /// Slots handed out so far (live or dead): the `RowId` address space.
    slots: usize,
    free: Vec<u32>,
    live: usize,
    /// Primary-key lookup. FxHash-keyed: `find_by_pk` sits on the MCMC
    /// write path (one probe per accepted proposal).
    pk_index: Arc<FxHashMap<Value, RowId>>,
    secondary: Vec<Arc<HashIndex>>,
}

impl Relation {
    /// Slots per copy-on-write chunk of the heap: slot `i` lives in chunk
    /// `i / CHUNK_ROWS`. A constant, not a knob. At 64 a 100K-row relation
    /// is ≈1.6K chunks — a snapshot bumps that many pointers — while the
    /// first write into a chunk a snapshot still shares copies 64 slots (64
    /// tuple refcount bumps), so an epoch that changed ≈150 rows pays ≤ ≈9K.
    pub const CHUNK_ROWS: usize = 64;

    /// Creates an empty relation.
    pub fn new(name: impl Into<Arc<str>>, schema: Schema) -> Self {
        Relation {
            name: name.into(),
            schema,
            chunks: Vec::new(),
            slots: 0,
            free: Vec::new(),
            live: 0,
            pk_index: Arc::default(),
            secondary: Vec::new(),
        }
    }

    /// Relation name.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// Relation schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Creates a secondary hash index on `column` (by name), backfilling it
    /// from existing rows.
    pub fn create_index(&mut self, column: &str) -> Result<(), StorageError> {
        let col = self.schema.require(column)?;
        self.index_column(col);
        Ok(())
    }

    /// Builds the secondary index on column `col` unless it exists.
    fn index_column(&mut self, col: usize) {
        if !self.has_index_on(col) {
            let ix = HashIndex::build(col, self.iter());
            self.secondary.push(Arc::new(ix));
        }
    }

    /// True when a secondary index exists on `column` (by index).
    pub fn has_index_on(&self, column: usize) -> bool {
        self.secondary.iter().any(|ix| ix.column == column)
    }

    /// Looks up rows via the secondary index on `column`. Returns `None` when
    /// no such index exists (the caller must fall back to a scan).
    pub fn index_lookup(&self, column: usize, value: &Value) -> Option<&[RowId]> {
        self.secondary
            .iter()
            .find(|ix| ix.column == column)
            .map(|ix| ix.map.get(value).map(Vec::as_slice).unwrap_or(&[]))
    }

    /// Inserts a tuple, enforcing schema and primary-key uniqueness.
    pub fn insert(&mut self, tuple: Tuple) -> Result<RowId, StorageError> {
        self.schema.check(tuple.values())?;
        if let Some(pk) = self.schema.primary_key() {
            let key = tuple.get(pk);
            if self.pk_index.contains_key(key) {
                return Err(StorageError::DuplicateKey(key.to_string()));
            }
        }
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                if self.slots == self.chunks.len() * Self::CHUNK_ROWS {
                    self.chunks.push(Arc::new([EMPTY_SLOT; Self::CHUNK_ROWS]));
                }
                self.slots += 1;
                self.slots - 1
            }
        };
        let rid = RowId(slot as u32);
        Arc::make_mut(&mut self.chunks[slot / Self::CHUNK_ROWS])[slot % Self::CHUNK_ROWS] =
            Some(tuple.clone());
        if let Some(pk) = self.schema.primary_key() {
            Arc::make_mut(&mut self.pk_index).insert(tuple.get(pk).clone(), rid);
        }
        for ix in &mut self.secondary {
            Arc::make_mut(ix).insert(rid, &tuple);
        }
        self.live += 1;
        Ok(rid)
    }

    /// Deletes a row, returning its final image.
    pub fn delete(&mut self, row: RowId) -> Result<Tuple, StorageError> {
        // Checked before `slot_mut`: a failed delete must not un-share.
        if self.get(row).is_none() {
            return Err(StorageError::NoSuchRow(row));
        }
        let tuple = slot_mut(&mut self.chunks, row.0 as usize)
            .and_then(Option::take)
            .ok_or(StorageError::NoSuchRow(row))?;
        self.free.push(row.0);
        self.live -= 1;
        if let Some(pk) = self.schema.primary_key() {
            Arc::make_mut(&mut self.pk_index).remove(tuple.get(pk));
        }
        for ix in &mut self.secondary {
            Arc::make_mut(ix).remove(row, &tuple);
        }
        Ok(tuple)
    }

    /// Reads a row.
    pub fn get(&self, row: RowId) -> Option<&Tuple> {
        slot(&self.chunks, row.0 as usize)
    }

    /// Updates one field of a row, returning `(old_image, new_image)`.
    ///
    /// This is the write path used by MCMC when a proposal is accepted: one
    /// random-variable change maps to one field update here, and the returned
    /// images feed the Δ⁻/Δ⁺ tracker. Only the row's chunk is un-shared from
    /// any snapshot; the indexes are touched (and un-shared) only when
    /// `column` is the primary key or carries a secondary index.
    pub fn update_field(
        &mut self,
        row: RowId,
        column: usize,
        value: Value,
    ) -> Result<(Tuple, Tuple), StorageError> {
        if column >= self.schema.arity() {
            return Err(StorageError::NoSuchColumn(column));
        }
        // Field-granular validation: the stored row already satisfies the
        // schema, so only the incoming value needs a type check.
        self.schema.check_value(column, &value)?;
        // Every check comes before `slot_mut`: a failed update must leave
        // the row, the indexes and what a snapshot shares untouched.
        let i = row.0 as usize;
        let old_key = slot(&self.chunks, i)
            .ok_or(StorageError::NoSuchRow(row))?
            .get(column);
        if Some(column) == self.schema.primary_key() && &value != old_key {
            if self.pk_index.contains_key(&value) {
                return Err(StorageError::DuplicateKey(value.to_string()));
            }
            let pk_index = Arc::make_mut(&mut self.pk_index);
            pk_index.remove(old_key);
            pk_index.insert(value.clone(), row);
        }
        // Move the old image out of the slot (no refcount traffic — this is
        // the per-accepted-proposal hot path) and put the new one in.
        let slot = slot_mut(&mut self.chunks, i).ok_or(StorageError::NoSuchRow(row))?;
        let old = slot.take().ok_or(StorageError::NoSuchRow(row))?;
        let new = old.with_value(column, value);
        *slot = Some(new.clone());
        for ix in &mut self.secondary {
            if ix.column == column {
                let ix = Arc::make_mut(ix);
                ix.remove(row, &old);
                ix.insert(row, &new);
            }
        }
        Ok((old, new))
    }

    /// Looks up a row by primary key.
    pub fn find_by_pk(&self, key: &Value) -> Option<RowId> {
        self.pk_index.get(key).copied()
    }

    /// Iterates live rows in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Tuple)> {
        // Slots past `self.slots` are `None` like any dead slot, so whole
        // chunks can be walked without a length cut-off.
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            chunk.iter().enumerate().filter_map(move |(i, t)| {
                t.as_ref()
                    .map(|t| (RowId((c * Self::CHUNK_ROWS + i) as u32), t))
            })
        })
    }

    /// Iterates live tuples in slot order, borrowing — no snapshot `Vec`,
    /// no per-tuple clone. Callers that genuinely need owned tuples (e.g.
    /// seeding a materialized view) clone per element via `.cloned()`.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.chunks.iter().flat_map(|chunk| chunk.iter().flatten())
    }

    /// The live rows as a multiset, each with multiplicity one — what a
    /// scan hands the executor or seeds a view with. The table is sized up
    /// front from [`Relation::len`] (the chunked walk has no size hint to
    /// offer), so a scan pays one allocation instead of a doubling series.
    pub fn to_counted_set(&self) -> CountedSet {
        let mut rows = CountedSet::with_capacity(self.live);
        for t in self.tuples() {
            rows.add(t.clone(), 1);
        }
        rows
    }

    /// Snapshot: an independent relation with identical rows, row ids, and
    /// indexes, sharing every chunk and index with this one until either
    /// side writes to it. Named alias of `Clone` marking intent at the call
    /// site (see the type-level docs for the cost model).
    pub fn snapshot(&self) -> Relation {
        self.clone()
    }

    /// Number of slot chunks backing the heap.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many chunks this relation and `other` hold *by pointer identity*
    /// at the same position — what a snapshot has not yet had to copy.
    pub fn chunks_shared_with(&self, other: &Relation) -> usize {
        self.chunk_count() - self.chunks_not_shared_with(other).count()
    }

    /// Indexes of this relation's chunks that `other` does not hold by
    /// pointer identity at the same position (including chunks past the end
    /// of `other`): the dirty set an incremental checkpoint writes. Read by
    /// comparing pointers, never tracked on the write path.
    pub fn chunks_not_shared_with<'a>(
        &'a self,
        other: &'a Relation,
    ) -> impl Iterator<Item = usize> + 'a {
        self.chunks
            .iter()
            .enumerate()
            .filter(move |(c, chunk)| !other.chunks.get(*c).is_some_and(|o| Arc::ptr_eq(chunk, o)))
            .map(|(c, _)| c)
    }

    /// True when every index allocation (primary key and each secondary
    /// index) is the same allocation in `other`.
    pub fn indexes_shared_with(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.pk_index, &other.pk_index)
            && self.secondary.len() == other.secondary.len()
            && self
                .secondary
                .iter()
                .zip(&other.secondary)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// The raw slot array, dead slots included — the serialization accessor
    /// the durability layer uses to persist a relation with its `RowId`
    /// address space intact (slot *i* holds the row addressed by
    /// `RowId(i)`).
    pub fn raw_slots(&self) -> RawSlots<'_> {
        RawSlots {
            chunks: &self.chunks,
            len: self.slots,
        }
    }

    /// The free-slot stack in pop order (last entry is reused next). Part of
    /// the persisted state so that a recovered relation hands out the same
    /// `RowId` for the next insert as the original would have.
    pub fn free_slots(&self) -> &[u32] {
        &self.free
    }

    /// Columns carrying a secondary hash index, in creation order. The index
    /// *contents* are derived state and are not persisted; recovery rebuilds
    /// them from the rows via [`Relation::create_index`].
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.secondary.iter().map(|ix| ix.column).collect()
    }

    /// Rebuilds a relation from persisted parts: the raw slot array (see
    /// [`Relation::raw_slots`]), the free-slot stack, and the secondary-index
    /// column set. Primary-key and secondary indexes are re-derived from the
    /// slots in slot order; nothing is shared with any other relation.
    ///
    /// Validates everything an on-disk source could get wrong: every tuple
    /// re-checked against the schema, primary keys re-checked for
    /// uniqueness, and the free list required to name exactly the dead slots
    /// (each once, in range).
    pub fn from_raw_parts(
        name: impl Into<Arc<str>>,
        schema: Schema,
        slots: Vec<Option<Tuple>>,
        free: Vec<u32>,
        indexed_columns: &[usize],
    ) -> Result<Relation, StorageError> {
        let mut seen = vec![false; slots.len()];
        for &f in &free {
            let slot = seen
                .get_mut(f as usize)
                .ok_or(StorageError::NoSuchRow(RowId(f)))?;
            if *slot || slots[f as usize].is_some() {
                // A free entry naming a live or already-freed slot.
                return Err(StorageError::NoSuchRow(RowId(f)));
            }
            *slot = true;
        }
        let mut live = 0usize;
        let mut pk_index = FxHashMap::default();
        for (i, slot) in slots.iter().enumerate() {
            match slot {
                Some(t) => {
                    schema.check(t.values())?;
                    if let Some(pk) = schema.primary_key() {
                        let key = t.get(pk);
                        if pk_index.insert(key.clone(), RowId(i as u32)).is_some() {
                            return Err(StorageError::DuplicateKey(key.to_string()));
                        }
                    }
                    live += 1;
                }
                None => {
                    if !seen[i] {
                        // A dead slot missing from the free list would be
                        // unreachable for reuse forever.
                        return Err(StorageError::NoSuchRow(RowId(i as u32)));
                    }
                }
            }
        }
        let n_slots = slots.len();
        let mut slots = slots.into_iter();
        let chunks = (0..n_slots.div_ceil(Self::CHUNK_ROWS))
            .map(|_| Arc::new(std::array::from_fn(|_| slots.next().flatten())))
            .collect();
        let mut rel = Relation {
            name: name.into(),
            schema,
            chunks,
            slots: n_slots,
            free,
            live,
            pk_index: Arc::new(pk_index),
            secondary: Vec::new(),
        };
        for &col in indexed_columns {
            if col >= rel.schema.arity() {
                return Err(StorageError::NoSuchColumn(col));
            }
            rel.index_column(col);
        }
        Ok(rel)
    }
}

/// A borrowed view of a relation's slot array in `RowId` order, dead slots
/// (`None`) included — see [`Relation::raw_slots`]. Compares equal to
/// another view, or to a slice, holding the same slots.
#[derive(Clone, Copy)]
pub struct RawSlots<'a> {
    chunks: &'a [Arc<Chunk>],
    len: usize,
}

impl<'a> RawSlots<'a> {
    /// Number of slots, live and dead.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the relation never handed out a slot.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slots of chunk `c` (slots `c · CHUNK_ROWS ..`, cut at
    /// [`RawSlots::len`]); `None` past the last chunk.
    pub fn chunk(&self, c: usize) -> Option<&'a [Option<Tuple>]> {
        let start = c.checked_mul(Relation::CHUNK_ROWS)?;
        let n = self.len.checked_sub(start)?.min(Relation::CHUNK_ROWS);
        self.chunks.get(c).map(|chunk| &chunk[..n])
    }

    /// The slots in `RowId` order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Option<Tuple>> + 'a {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .take(self.len)
    }

    /// An owned copy of the slot array (the
    /// [`Relation::from_raw_parts`] input).
    pub fn to_vec(&self) -> Vec<Option<Tuple>> {
        self.iter().cloned().collect()
    }
}

impl PartialEq for RawSlots<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl PartialEq<&[Option<Tuple>]> for RawSlots<'_> {
    fn eq(&self, other: &&[Option<Tuple>]) -> bool {
        self.len == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for RawSlots<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Relation {} {} [{} rows]",
            self.name, self.schema, self.live
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::ValueType;

    fn token_relation() -> Relation {
        let schema = Schema::from_pairs(&[
            ("tok_id", ValueType::Int),
            ("string", ValueType::Str),
            ("label", ValueType::Str),
        ])
        .unwrap()
        .with_primary_key("tok_id")
        .unwrap();
        Relation::new("TOKEN", schema)
    }

    #[test]
    fn insert_get_len() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "IBM", "O"]).unwrap();
        let b = r.insert(tuple![2i64, "said", "O"]).unwrap();
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(a).unwrap().get(1).as_str(), Some("IBM"));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut r = token_relation();
        r.insert(tuple![1i64, "a", "O"]).unwrap();
        let err = r.insert(tuple![1i64, "b", "O"]).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey(_)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn delete_frees_slot_and_pk() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "a", "O"]).unwrap();
        let t = r.delete(a).unwrap();
        assert_eq!(t.get(0), &Value::Int(1));
        assert_eq!(r.len(), 0);
        assert!(r.get(a).is_none());
        assert!(r.find_by_pk(&Value::Int(1)).is_none());
        // Slot is reused and the pk becomes insertable again.
        let b = r.insert(tuple![1i64, "a2", "O"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn double_delete_is_an_error() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "a", "O"]).unwrap();
        r.delete(a).unwrap();
        assert!(matches!(r.delete(a), Err(StorageError::NoSuchRow(_))));
    }

    #[test]
    fn update_field_returns_both_images() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "IBM", "O"]).unwrap();
        let (old, new) = r.update_field(a, 2, Value::str("B-ORG")).unwrap();
        assert_eq!(old.get(2).as_str(), Some("O"));
        assert_eq!(new.get(2).as_str(), Some("B-ORG"));
        assert_eq!(r.get(a).unwrap().get(2).as_str(), Some("B-ORG"));
    }

    #[test]
    fn update_pk_moves_index_entry() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "x", "O"]).unwrap();
        r.update_field(a, 0, Value::Int(9)).unwrap();
        assert!(r.find_by_pk(&Value::Int(1)).is_none());
        assert_eq!(r.find_by_pk(&Value::Int(9)), Some(a));
        // Updating into an existing pk is rejected.
        r.insert(tuple![1i64, "y", "O"]).unwrap();
        assert!(matches!(
            r.update_field(a, 0, Value::Int(1)),
            Err(StorageError::DuplicateKey(_))
        ));
    }

    #[test]
    fn update_bad_column_or_type() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "x", "O"]).unwrap();
        assert!(matches!(
            r.update_field(a, 7, Value::Int(0)),
            Err(StorageError::NoSuchColumn(7))
        ));
        assert!(matches!(
            r.update_field(a, 1, Value::Int(0)),
            Err(StorageError::Schema(_))
        ));
    }

    #[test]
    fn secondary_index_tracks_updates() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "IBM", "O"]).unwrap();
        let b = r.insert(tuple![2i64, "IBM", "O"]).unwrap();
        r.insert(tuple![3i64, "said", "O"]).unwrap();
        r.create_index("string").unwrap();
        let col = r.schema().index_of("string").unwrap();
        assert!(r.has_index_on(col));

        let hits = r.index_lookup(col, &Value::str("IBM")).unwrap();
        let mut hits: Vec<_> = hits.to_vec();
        hits.sort();
        assert_eq!(hits, vec![a, b]);

        r.update_field(a, col, Value::str("Apple")).unwrap();
        assert_eq!(r.index_lookup(col, &Value::str("IBM")).unwrap(), &[b]);
        assert_eq!(r.index_lookup(col, &Value::str("Apple")).unwrap(), &[a]);

        r.delete(b).unwrap();
        assert!(r.index_lookup(col, &Value::str("IBM")).unwrap().is_empty());
        // No index on label → None signals "must scan".
        assert!(r.index_lookup(2, &Value::str("O")).is_none());
    }

    #[test]
    fn iter_skips_dead_slots() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "a", "O"]).unwrap();
        r.insert(tuple![2i64, "b", "O"]).unwrap();
        r.delete(a).unwrap();
        let rows: Vec<_> = r.iter().map(|(_, t)| t.get(0).as_int().unwrap()).collect();
        assert_eq!(rows, vec![2]);
    }

    #[test]
    fn snapshot_is_fully_independent() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "IBM", "O"]).unwrap();
        let b = r.insert(tuple![2i64, "said", "O"]).unwrap();
        r.create_index("string").unwrap();
        let col = r.schema().index_of("string").unwrap();

        let mut snap = r.snapshot();
        // Same rows, ids, and index contents at snapshot time.
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.get(a), r.get(a));
        assert_eq!(snap.find_by_pk(&Value::Int(2)), Some(b));
        assert_eq!(snap.index_lookup(col, &Value::str("IBM")).unwrap(), &[a]);

        // Mutating the snapshot leaves the original untouched — storage,
        // pk index, and secondary index all diverge independently.
        snap.update_field(a, 2, Value::str("B-ORG")).unwrap();
        snap.update_field(a, col, Value::str("Apple")).unwrap();
        snap.delete(b).unwrap();
        assert_eq!(r.get(a).unwrap().get(2).as_str(), Some("O"));
        assert_eq!(r.len(), 2);
        assert_eq!(r.find_by_pk(&Value::Int(2)), Some(b));
        assert_eq!(r.index_lookup(col, &Value::str("IBM")).unwrap(), &[a]);
        assert!(r
            .index_lookup(col, &Value::str("Apple"))
            .unwrap()
            .is_empty());

        // And vice versa: mutating the original is invisible to the snapshot.
        r.update_field(b, 2, Value::str("B-PER")).unwrap();
        assert!(snap.get(b).is_none());
        // Freed slot in the snapshot is reusable without touching the original.
        let b2 = snap.insert(tuple![3i64, "Boston", "O"]).unwrap();
        assert_eq!(b2, b);
        assert_eq!(r.get(b).unwrap().get(0), &Value::Int(2));
    }

    #[test]
    fn from_raw_parts_round_trips_with_dead_slots() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "IBM", "O"]).unwrap();
        let b = r.insert(tuple![2i64, "said", "O"]).unwrap();
        r.insert(tuple![3i64, "Boston", "O"]).unwrap();
        r.delete(b).unwrap();
        r.create_index("string").unwrap();
        let col = r.schema().index_of("string").unwrap();

        let rebuilt = Relation::from_raw_parts(
            Arc::clone(r.name()),
            r.schema().clone(),
            r.raw_slots().to_vec(),
            r.free_slots().to_vec(),
            &r.indexed_columns(),
        )
        .unwrap();
        assert_eq!(rebuilt.len(), r.len());
        assert_eq!(rebuilt.get(a), r.get(a));
        assert!(rebuilt.get(b).is_none());
        assert_eq!(
            rebuilt.find_by_pk(&Value::Int(3)),
            r.find_by_pk(&Value::Int(3))
        );
        assert_eq!(rebuilt.index_lookup(col, &Value::str("IBM")).unwrap(), &[a]);
        // The freed slot is reused identically on both sides.
        let mut r2 = rebuilt;
        let expect = r.insert(tuple![4i64, "x", "O"]).unwrap();
        let got = r2.insert(tuple![4i64, "x", "O"]).unwrap();
        assert_eq!(expect, got);
        assert_eq!(expect, b);
    }

    #[test]
    fn from_raw_parts_rejects_corrupt_parts() {
        let r = token_relation();
        let schema = r.schema().clone();
        let live = Some(tuple![1i64, "a", "O"]);
        // Free entry pointing at a live slot.
        assert!(
            Relation::from_raw_parts("T", schema.clone(), vec![live.clone()], vec![0], &[])
                .is_err()
        );
        // Free entry out of range.
        assert!(
            Relation::from_raw_parts("T", schema.clone(), vec![live.clone()], vec![5], &[])
                .is_err()
        );
        // Dead slot missing from the free list.
        assert!(Relation::from_raw_parts("T", schema.clone(), vec![None], vec![], &[]).is_err());
        // Duplicate free entry for one dead slot.
        assert!(
            Relation::from_raw_parts("T", schema.clone(), vec![None], vec![0, 0], &[]).is_err()
        );
        // Duplicate primary keys across slots.
        assert!(Relation::from_raw_parts(
            "T",
            schema.clone(),
            vec![live.clone(), Some(tuple![1i64, "b", "O"])],
            vec![],
            &[]
        )
        .is_err());
        // Schema violation inside a slot.
        assert!(Relation::from_raw_parts(
            "T",
            schema.clone(),
            vec![Some(tuple!["not-an-int", "a", "O"])],
            vec![],
            &[]
        )
        .is_err());
        // Index on a column the schema does not have.
        assert!(Relation::from_raw_parts("T", schema, vec![live], vec![], &[9]).is_err());
    }

    #[test]
    fn tuples_borrows_live_rows() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "a", "O"]).unwrap();
        r.insert(tuple![2i64, "b", "O"]).unwrap();
        r.delete(a).unwrap();
        let ids: Vec<i64> = r.tuples().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(ids, vec![2]);
        // The iterator borrows: the same tuple address is observed twice.
        let first = r.tuples().next().unwrap() as *const Tuple;
        let again = r.tuples().next().unwrap() as *const Tuple;
        assert_eq!(first, again);
    }
}
