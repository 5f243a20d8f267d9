//! Heap storage for relations.
//!
//! A [`Relation`] stores the deterministic tuples of the current possible
//! world in a slotted heap: rows get stable [`RowId`]s so the MCMC bridge can
//! address "the LABEL field of token 1234" as a random variable and write
//! sampled values back (§5 of the paper: "propagating changes to random
//! variables back to the tuples on disk").
//!
//! **Layout.** The heap is a vector of 64-slot chunks
//! ([`Relation::CHUNK_ROWS`]), each stored *column-major*: per column, the
//! 64 slots' [`Value`]s back to back, plus a `u64` liveness mask and each
//! live row's cached fingerprint. A scan that tests one column reads that
//! column's values contiguously and nothing else of the row; a relabel
//! writes one value into its row's own chunk, so rows never move. Readers
//! get a borrowed [`RowRef`] — column reads, the fingerprint, and
//! [`RowRef::to_tuple`] for the callers that keep the row. Chunks sit
//! behind `Arc`s, so a snapshot shares them (see [`Relation`]).
//!
//! Updates are field-granular and return both the pre- and post-image of the
//! row as tuples; the delta tracker (see [`crate::delta`]) turns these into
//! the Δ⁻/Δ⁺ auxiliary tables of §4.2.

use crate::fasthash::FxHashMap;
use crate::row::Row;
use crate::schema::{Schema, SchemaError};
use crate::symbol::{intern_values, SymbolsExhausted};
use crate::tuple::{fingerprint_values, Tuple};
use crate::value::Value;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Slots per chunk (see [`Relation::CHUNK_ROWS`]).
const CHUNK_ROWS: usize = 64;

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
    /// A string could not be stored: the interner is out of symbols.
    SymbolsExhausted,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Schema(e) => write!(f, "schema error: {e}"),
            StorageError::DuplicateKey(k) => write!(f, "duplicate primary key {k}"),
            StorageError::NoSuchRow(r) => write!(f, "no such row {r}"),
            StorageError::NoSuchColumn(c) => write!(f, "no such column index {c}"),
            StorageError::SymbolsExhausted => write!(f, "{SymbolsExhausted}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<SchemaError> for StorageError {
    fn from(e: SchemaError) -> Self {
        StorageError::Schema(e)
    }
}

impl From<SymbolsExhausted> for StorageError {
    fn from(_: SymbolsExhausted) -> Self {
        StorageError::SymbolsExhausted
    }
}

/// A secondary hash index over one column.
///
/// The paper's scalability experiment deliberately runs *without* an index on
/// the STRING field (§5.3), so indexes are opt-in per column. When present,
/// the executor uses them for equality predicates.
///
/// Maintenance is O(1) per write whatever the key's fan-out: `pos` records
/// where each row sits in its key's bucket, so removal is a `swap_remove`
/// plus one position fix-up, never a search of the bucket.
#[derive(Clone, Debug, Default)]
struct HashIndex {
    column: usize,
    map: FxHashMap<Value, Vec<RowId>>,
    /// `pos[slot]`: the index of `RowId(slot)` in its key's bucket
    /// (meaningful for indexed rows only).
    pos: Vec<u32>,
}

impl HashIndex {
    fn build<'a>(column: usize, rows: impl Iterator<Item = (RowId, RowRef<'a>)>) -> Self {
        let mut ix = HashIndex {
            column,
            ..HashIndex::default()
        };
        for (rid, row) in rows {
            ix.insert(rid, row.get(column));
        }
        ix
    }

    fn insert(&mut self, row: RowId, key: &Value) {
        let bucket = self.map.entry(key.clone()).or_default();
        let slot = row.0 as usize;
        if self.pos.len() <= slot {
            self.pos.resize(slot + 1, 0);
        }
        // A bucket holds each `RowId` at most once, and `RowId`s are `u32`.
        self.pos[slot] = u32::try_from(bucket.len()).expect("bucket positions fit a RowId");
        bucket.push(row);
    }

    fn remove(&mut self, row: RowId, key: &Value) {
        let Some(bucket) = self.map.get_mut(key) else {
            return;
        };
        let at = self.pos[row.0 as usize];
        debug_assert_eq!(bucket.get(at as usize), Some(&row), "index position drift");
        bucket.swap_remove(at as usize);
        if let Some(moved) = bucket.get(at as usize) {
            self.pos[moved.0 as usize] = at;
        }
        if bucket.is_empty() {
            self.map.remove(key);
        }
    }
}

/// One fixed-size run of consecutive slots, column-major: column `c` of
/// slot `i` is `values[c * CHUNK_ROWS + i]`. A dead slot (or one past the
/// relation's slot count) has its `live` bit clear and NULL in every
/// column, so it holds no reference to anything.
#[derive(Clone)]
struct Chunk {
    /// Bit `i` set ⇔ slot `i` holds a live row.
    live: u64,
    /// Each live slot's row fingerprint ([`crate::tuple::fingerprint_values`]).
    fps: [u64; CHUNK_ROWS],
    values: Box<[Value]>,
}

impl Chunk {
    fn new(arity: usize) -> Chunk {
        Chunk {
            live: 0,
            fps: [0; CHUNK_ROWS],
            values: vec![Value::Null; arity * CHUNK_ROWS].into_boxed_slice(),
        }
    }

    #[inline]
    fn arity(&self) -> usize {
        self.values.len() / CHUNK_ROWS
    }

    #[inline]
    fn is_live(&self, slot: usize) -> bool {
        (self.live >> slot) & 1 == 1
    }

    #[inline]
    fn row(&self, slot: usize) -> Option<RowRef<'_>> {
        self.is_live(slot).then_some(RowRef { chunk: self, slot })
    }

    /// Makes `slot` live, holding `values` (one per column) under `fp`.
    fn put(&mut self, slot: usize, values: impl IntoIterator<Item = Value>, fp: u64) {
        for (c, v) in values.into_iter().enumerate() {
            self.values[c * CHUNK_ROWS + slot] = v;
        }
        self.fps[slot] = fp;
        self.live |= 1 << slot;
    }

    /// Kills `slot`, moving its row out as a tuple.
    fn take(&mut self, slot: usize) -> Tuple {
        let values: Arc<[Value]> = (0..self.arity())
            .map(|c| std::mem::replace(&mut self.values[c * CHUNK_ROWS + slot], Value::Null))
            .collect();
        self.live &= !(1 << slot);
        Tuple::from_prehashed(values, self.fps[slot])
    }

    /// Kills `slot`, dropping its values.
    fn clear(&mut self, slot: usize) {
        for c in 0..self.arity() {
            self.values[c * CHUNK_ROWS + slot] = Value::Null;
        }
        self.live &= !(1 << slot);
    }
}

/// A borrowed live row of a relation: reads its columns in place in the
/// heap. Compares equal to another row reference, or to a [`Tuple`], with
/// the same values.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    chunk: &'a Chunk,
    slot: usize,
}

impl<'a> RowRef<'a> {
    /// Number of fields.
    #[inline]
    pub fn arity(&self) -> usize {
        self.chunk.arity()
    }

    /// Field `col` (panics when out of range, like [`Tuple::get`]).
    #[inline]
    pub fn get(&self, col: usize) -> &'a Value {
        &self.chunk.values[col * CHUNK_ROWS + self.slot]
    }

    /// The row's cached fingerprint (that of [`RowRef::to_tuple`]).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.chunk.fps[self.slot]
    }

    /// The fields in column order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &'a Value> + 'a {
        let (chunk, slot) = (self.chunk, self.slot);
        (0..chunk.arity()).map(move |c| &chunk.values[c * CHUNK_ROWS + slot])
    }

    /// The row as an owned tuple, with the stored fingerprint.
    pub fn to_tuple(&self) -> Tuple {
        let values: Arc<[Value]> = (0..self.arity()).map(|c| self.get(c).clone()).collect();
        Tuple::from_prehashed(values, self.fingerprint())
    }
}

impl Row for RowRef<'_> {
    #[inline]
    fn arity(&self) -> usize {
        RowRef::arity(self)
    }

    #[inline]
    fn get(&self, i: usize) -> &Value {
        RowRef::get(self, i)
    }

    #[inline]
    fn fingerprint(&self) -> u64 {
        RowRef::fingerprint(self)
    }

    fn to_tuple(&self) -> Tuple {
        RowRef::to_tuple(self)
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint() == other.fingerprint() && self.values().eq(other.values())
    }
}

impl PartialEq<Tuple> for RowRef<'_> {
    fn eq(&self, other: &Tuple) -> bool {
        self.fingerprint() == other.fingerprint() && self.values().eq(other.values())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

/// One chunk of a relation's heap, borrowed: what a scan reads
/// column-at-a-time ([`Relation::chunks`]). Slot `s` of the chunk is
/// `RowId(base + s)`.
#[derive(Clone, Copy)]
pub struct ChunkRef<'a> {
    chunk: &'a Chunk,
}

impl<'a> ChunkRef<'a> {
    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.chunk.arity()
    }

    /// The live slots: bit `s` set ⇔ slot `s` holds a row.
    #[inline]
    pub fn live(&self) -> u64 {
        self.chunk.live
    }

    /// Column `c` of every slot, back to back — NULL at dead slots (panics
    /// when `c` is out of range).
    #[inline]
    pub fn column(&self, c: usize) -> &'a [Value; CHUNK_ROWS] {
        self.chunk.values[c * CHUNK_ROWS..(c + 1) * CHUNK_ROWS]
            .try_into()
            .expect("a chunk column holds CHUNK_ROWS values")
    }

    /// The live rows among the set bits of `mask`, in slot order.
    #[inline]
    pub fn rows(&self, mask: u64) -> impl Iterator<Item = (usize, RowRef<'a>)> + 'a {
        let chunk = self.chunk;
        mask_slots(mask & chunk.live).map(move |slot| (slot, RowRef { chunk, slot }))
    }
}

/// The positions of the set bits of `mask`, ascending.
#[inline]
fn mask_slots(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let slot = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            slot
        })
    })
}

/// The live rows of a relation in slot order ([`Relation::iter`]): walks
/// each chunk's liveness mask, skipping dead slots without reading them.
struct Rows<'a> {
    chunks: std::iter::Enumerate<std::slice::Iter<'a, Arc<Chunk>>>,
    /// The chunk being walked and its first slot.
    current: Option<(usize, &'a Chunk)>,
    /// Its live slots not yet yielded.
    mask: u64,
}

impl<'a> Iterator for Rows<'a> {
    type Item = (RowId, RowRef<'a>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        while self.mask == 0 {
            let (c, chunk) = self.chunks.next()?;
            self.current = Some((c * CHUNK_ROWS, &**chunk));
            self.mask = chunk.live;
        }
        let (base, chunk) = self.current?;
        let slot = self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        Some((RowId((base + slot) as u32), RowRef { chunk, slot }))
    }
}

/// A named relation backed by a slotted heap.
///
/// The heap is an array of fixed-size column-major chunks, each behind an
/// `Arc`, and the primary-key and secondary hash indexes sit behind `Arc`s
/// of their own. Cloning — the snapshot of §5.4's parallel evaluation
/// ("identical copies of the initial world") and of every published serving
/// epoch — is therefore *structural sharing*: one pointer bump per chunk and
/// per index, independent of how many rows the chunks hold. Writers copy on
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
    /// Slot `i` lives in `chunks[i / CHUNK_ROWS]` at slot `i % CHUNK_ROWS`.
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
    /// first write into a chunk a snapshot still shares copies 64 slots
    /// (arity × 64 values), so an epoch that changed ≈150 rows copies at
    /// most ≈150 chunks.
    pub const CHUNK_ROWS: usize = CHUNK_ROWS;

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

    /// Inserts a tuple, enforcing schema and primary-key uniqueness. Its
    /// heap strings are stored as symbols.
    pub fn insert(&mut self, tuple: Tuple) -> Result<RowId, StorageError> {
        self.schema.check(tuple.values())?;
        let tuple = interned(tuple)?;
        if let Some(pk) = self.schema.primary_key() {
            let key = tuple.get(pk);
            if self.pk_index.contains_key(key) {
                return Err(StorageError::DuplicateKey(key.to_string()));
            }
        }
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                if self.slots == self.chunks.len() * CHUNK_ROWS {
                    self.chunks.push(Arc::new(Chunk::new(self.schema.arity())));
                }
                self.slots += 1;
                self.slots - 1
            }
        };
        let rid = RowId(slot as u32);
        if let Some(pk) = self.schema.primary_key() {
            Arc::make_mut(&mut self.pk_index).insert(tuple.get(pk).clone(), rid);
        }
        for ix in &mut self.secondary {
            let col = ix.column;
            Arc::make_mut(ix).insert(rid, tuple.get(col));
        }
        let chunk = Arc::make_mut(&mut self.chunks[slot / CHUNK_ROWS]);
        let fp = tuple.fingerprint();
        tuple.into_values(|values| chunk.put(slot % CHUNK_ROWS, values, fp));
        self.live += 1;
        Ok(rid)
    }

    /// Deletes a row, returning its final image.
    pub fn delete(&mut self, row: RowId) -> Result<Tuple, StorageError> {
        // Checked before un-sharing: a failed delete must not copy a chunk.
        if self.get(row).is_none() {
            return Err(StorageError::NoSuchRow(row));
        }
        let i = row.0 as usize;
        let tuple = Arc::make_mut(&mut self.chunks[i / CHUNK_ROWS]).take(i % CHUNK_ROWS);
        self.free.push(row.0);
        self.live -= 1;
        if let Some(pk) = self.schema.primary_key() {
            Arc::make_mut(&mut self.pk_index).remove(tuple.get(pk));
        }
        for ix in &mut self.secondary {
            let col = ix.column;
            Arc::make_mut(ix).remove(row, tuple.get(col));
        }
        Ok(tuple)
    }

    /// Reads a row in place.
    #[inline]
    pub fn get(&self, row: RowId) -> Option<RowRef<'_>> {
        let i = row.0 as usize;
        self.chunks.get(i / CHUNK_ROWS)?.row(i % CHUNK_ROWS)
    }

    /// Updates one field of a row, returning `(old_image, new_image)`. A
    /// heap string is stored as its symbol.
    ///
    /// This is the write path used by MCMC when a proposal is accepted: one
    /// random-variable change maps to one field update here, and the returned
    /// images feed the Δ⁻/Δ⁺ tracker. The value is written in place into
    /// the row's own chunk, which is un-shared from any snapshot first; the
    /// indexes are touched (and un-shared) only when `column` is the primary
    /// key or carries a secondary index. The replaced value moves into the
    /// old image, which keeps the stored fingerprint.
    pub fn update_field(
        &mut self,
        row: RowId,
        column: usize,
        mut value: Value,
    ) -> Result<(Tuple, Tuple), StorageError> {
        if column >= self.schema.arity() {
            return Err(StorageError::NoSuchColumn(column));
        }
        // Field-granular validation: the stored row already satisfies the
        // schema, so only the incoming value needs a type check.
        self.schema.check_value(column, &value)?;
        intern_values([&mut value])?;
        // Every check comes before the chunk is un-shared: a failed update
        // must leave the row, the indexes and what a snapshot shares
        // untouched.
        let i = row.0 as usize;
        let (c, slot) = (i / CHUNK_ROWS, i % CHUNK_ROWS);
        let stored = self
            .chunks
            .get(c)
            .and_then(|chunk| chunk.row(slot))
            .ok_or(StorageError::NoSuchRow(row))?
            .get(column);
        let is_pk = Some(column) == self.schema.primary_key();
        if is_pk || self.has_index_on(column) {
            let old_key = stored.clone();
            if is_pk && value != old_key {
                if self.pk_index.contains_key(&value) {
                    return Err(StorageError::DuplicateKey(value.to_string()));
                }
                let pk_index = Arc::make_mut(&mut self.pk_index);
                pk_index.remove(&old_key);
                pk_index.insert(value.clone(), row);
            }
            for ix in &mut self.secondary {
                if ix.column == column {
                    let ix = Arc::make_mut(ix);
                    ix.remove(row, &old_key);
                    ix.insert(row, &value);
                }
            }
        }
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        let mut value = Some(value);
        let old: Arc<[Value]> = (0..chunk.arity())
            .map(|col| {
                let at = &mut chunk.values[col * CHUNK_ROWS + slot];
                match value.take_if(|_| col == column) {
                    Some(v) => std::mem::replace(at, v),
                    None => at.clone(),
                }
            })
            .collect();
        let old = Tuple::from_prehashed(old, chunk.fps[slot]);
        let values = &chunk.values;
        let new: Arc<[Value]> = (0..chunk.arity())
            .map(|col| values[col * CHUNK_ROWS + slot].clone())
            .collect();
        let fp = fingerprint_values(&new);
        chunk.fps[slot] = fp;
        Ok((old, Tuple::from_prehashed(new, fp)))
    }

    /// Looks up a row by primary key.
    pub fn find_by_pk(&self, key: &Value) -> Option<RowId> {
        self.pk_index.get(key).copied()
    }

    /// Iterates live rows in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, RowRef<'_>)> {
        Rows {
            chunks: self.chunks.iter().enumerate(),
            current: None,
            mask: 0,
        }
    }

    /// Iterates live rows in slot order, without their ids — what a scan
    /// pushes into a pipeline. Borrowing: callers that keep a row build it
    /// with [`RowRef::to_tuple`].
    pub fn rows(&self) -> impl Iterator<Item = RowRef<'_>> {
        self.iter().map(|(_, row)| row)
    }

    /// The heap's chunks at positions `range` (clamped to the heap) in slot
    /// order, for column-at-a-time reads: chunk `c` holds slots
    /// `c · CHUNK_ROWS ..`. A scan split across workers reads a range — a
    /// morsel — each.
    pub fn chunks(&self, range: Range<usize>) -> impl Iterator<Item = ChunkRef<'_>> {
        let end = range.end.min(self.chunks.len());
        self.chunks[range.start.min(end)..end]
            .iter()
            .map(|chunk| ChunkRef { chunk })
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
    /// Read by comparing pointers, never tracked on the write path.
    pub fn chunks_shared_with(&self, other: &Relation) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
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
    /// [`Relation::raw_slots`]) as tuples, the free-slot stack, and the
    /// secondary-index column set — [`Relation::from_raw_heap`] over the
    /// same slots.
    pub fn from_raw_parts(
        name: impl Into<Arc<str>>,
        schema: Schema,
        slots: Vec<Option<Tuple>>,
        free: Vec<u32>,
        indexed_columns: &[usize],
    ) -> Result<Relation, StorageError> {
        let mut heap = RawHeap::new(schema.arity());
        for slot in slots {
            match slot {
                Some(t) => heap.push_live(&mut t.values().to_vec())?,
                None => heap.push_dead(),
            }
        }
        Relation::from_raw_heap(name, schema, heap, free, indexed_columns)
    }

    /// Rebuilds a relation from a slot array assembled in columns (what a
    /// decoder builds), the free-slot stack, and the secondary-index column
    /// set. Primary-key and secondary indexes are re-derived from the slots
    /// in slot order; nothing is shared with any other relation.
    ///
    /// Validates everything an on-disk source could get wrong: every row
    /// re-checked against the schema, primary keys re-checked for
    /// uniqueness, and the free list required to name exactly the dead slots
    /// (each once, in range). Heap strings are stored as symbols, under one
    /// acquisition of the interner's lock for the whole heap.
    pub fn from_raw_heap(
        name: impl Into<Arc<str>>,
        schema: Schema,
        heap: RawHeap,
        free: Vec<u32>,
        indexed_columns: &[usize],
    ) -> Result<Relation, StorageError> {
        let n_slots = heap.len;
        let arity = schema.arity();
        let mut chunks = heap.chunks;
        if heap.arity != arity {
            if chunks.iter().any(|c| c.live != 0) {
                return Err(StorageError::Schema(SchemaError::ArityMismatch {
                    expected: arity,
                    found: heap.arity,
                }));
            }
            chunks = chunks.iter().map(|_| Chunk::new(arity)).collect();
        }
        let live_at = |i: usize| chunks[i / CHUNK_ROWS].is_live(i % CHUNK_ROWS);
        let mut seen = vec![false; n_slots];
        for &f in &free {
            let slot = seen
                .get_mut(f as usize)
                .ok_or(StorageError::NoSuchRow(RowId(f)))?;
            if *slot || live_at(f as usize) {
                // A free entry naming a live or already-freed slot.
                return Err(StorageError::NoSuchRow(RowId(f)));
            }
            *slot = true;
        }
        if let Some(i) = (0..n_slots).find(|&i| !live_at(i) && !seen[i]) {
            // A dead slot missing from the free list would be unreachable
            // for reuse forever.
            return Err(StorageError::NoSuchRow(RowId(i as u32)));
        }
        intern_values(chunks.iter_mut().flat_map(|c| c.values.iter_mut()))?;
        let chunks: Vec<Arc<Chunk>> = chunks.into_iter().map(Arc::new).collect();
        let mut rel = Relation {
            name: name.into(),
            schema,
            chunks,
            slots: n_slots,
            free,
            live: 0,
            pk_index: Arc::default(),
            secondary: Vec::new(),
        };
        let mut pk_index = FxHashMap::default();
        let mut live = 0;
        for (rid, row) in rel.iter() {
            for (c, v) in row.values().enumerate() {
                rel.schema.check_value(c, v)?;
            }
            if let Some(pk) = rel.schema.primary_key() {
                let key = row.get(pk);
                if pk_index.insert(key.clone(), rid).is_some() {
                    return Err(StorageError::DuplicateKey(key.to_string()));
                }
            }
            live += 1;
        }
        rel.live = live;
        rel.pk_index = Arc::new(pk_index);
        for &col in indexed_columns {
            if col >= rel.schema.arity() {
                return Err(StorageError::NoSuchColumn(col));
            }
            rel.index_column(col);
        }
        Ok(rel)
    }
}

/// `tuple` with its heap strings as symbols, interned in place: the row is
/// copied only when it has a heap string and another tuple shares its
/// buffer. The fingerprint is by content and carries over.
fn interned(mut tuple: Tuple) -> Result<Tuple, SymbolsExhausted> {
    let heap = |v: &Value| matches!(v, Value::Str(s) if !s.is_symbol());
    if tuple.values().iter().any(heap) {
        intern_values(tuple.values_mut())?;
    }
    Ok(tuple)
}

/// A borrowed view of a relation's slot array in `RowId` order, dead slots
/// (`None`) included — see [`Relation::raw_slots`]. Compares equal to
/// another view, or to a slice of tuples, holding the same slots.
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

    /// Every chunk with its slot count, in `RowId` order — what an encoder
    /// walks to write the slots column by column.
    pub fn chunks(&self) -> impl Iterator<Item = (ChunkRef<'a>, usize)> + 'a {
        let len = self.len;
        self.chunks.iter().enumerate().map(move |(c, chunk)| {
            let n = len.saturating_sub(c * CHUNK_ROWS).min(CHUNK_ROWS);
            (ChunkRef { chunk }, n)
        })
    }

    /// The slots in `RowId` order.
    pub fn iter(&self) -> impl Iterator<Item = Option<RowRef<'a>>> + 'a {
        self.chunks
            .iter()
            .flat_map(|chunk| (0..CHUNK_ROWS).map(move |i| chunk.row(i)))
            .take(self.len)
    }

    /// An owned copy of the slot array (the
    /// [`Relation::from_raw_parts`] input).
    pub fn to_vec(&self) -> Vec<Option<Tuple>> {
        self.iter().map(|s| s.map(|r| r.to_tuple())).collect()
    }
}

impl PartialEq for RawSlots<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl PartialEq<&[Option<Tuple>]> for RawSlots<'_> {
    fn eq(&self, other: &&[Option<Tuple>]) -> bool {
        self.len == other.len()
            && self.iter().zip(other.iter()).all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => a == *b,
                (None, None) => true,
                _ => false,
            })
    }
}

impl fmt::Debug for RawSlots<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A relation's slot array under construction, outside any relation: the
/// same column-major chunks as the heap, no indexes. A decoder writes each
/// slot's values straight into their columns; [`Relation::from_raw_heap`]
/// validates the result and builds the relation around it.
#[derive(Clone)]
pub struct RawHeap {
    arity: usize,
    chunks: Vec<Chunk>,
    len: usize,
}

impl RawHeap {
    /// An empty slot array for rows of `arity` fields.
    pub fn new(arity: usize) -> RawHeap {
        RawHeap {
            arity,
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of slots, live and dead.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The next slot's chunk and position within it, growing the array.
    fn next_slot(&mut self) -> (&mut Chunk, usize) {
        if self.len == self.chunks.len() * CHUNK_ROWS {
            self.chunks.push(Chunk::new(self.arity));
        }
        self.len += 1;
        let i = self.len - 1;
        (&mut self.chunks[i / CHUNK_ROWS], i % CHUNK_ROWS)
    }

    /// Appends a dead slot.
    pub fn push_dead(&mut self) {
        self.next_slot();
    }

    /// Appends a live slot holding the values `values` holds (moved out,
    /// leaving it empty), which must be one per column (nothing is appended
    /// otherwise).
    pub fn push_live(&mut self, values: &mut Vec<Value>) -> Result<(), SchemaError> {
        if values.len() != self.arity {
            return Err(SchemaError::ArityMismatch {
                expected: self.arity,
                found: values.len(),
            });
        }
        let fp = fingerprint_values(values);
        let (chunk, slot) = self.next_slot();
        chunk.put(slot, values.drain(..), fp);
        Ok(())
    }

    /// Cuts the array to `n` slots, or extends it with dead slots to `n`.
    pub fn resize(&mut self, n: usize) {
        while self.len < n {
            self.push_dead();
        }
        self.chunks.truncate(n.div_ceil(CHUNK_ROWS));
        if let Some(last) = self
            .chunks
            .last_mut()
            .filter(|_| !n.is_multiple_of(CHUNK_ROWS))
        {
            for slot in n % CHUNK_ROWS..CHUNK_ROWS {
                last.clear(slot);
            }
        }
        self.len = n;
    }

    /// Overwrites slots `start ..` with the slots of `patch`, moving its
    /// values in. A patch with live rows must have this array's arity, and
    /// must fit below [`RawHeap::len`].
    pub fn overwrite(&mut self, start: usize, mut patch: RawHeap) -> Result<(), StorageError> {
        let fits = start
            .checked_add(patch.len)
            .is_some_and(|end| end <= self.len);
        if !fits {
            let at = u32::try_from(start).unwrap_or(u32::MAX);
            return Err(StorageError::NoSuchRow(RowId(at)));
        }
        if patch.arity != self.arity && patch.chunks.iter().any(|ch| ch.live != 0) {
            return Err(StorageError::Schema(SchemaError::ArityMismatch {
                expected: self.arity,
                found: patch.arity,
            }));
        }
        for i in 0..patch.len {
            let src = &mut patch.chunks[i / CHUNK_ROWS];
            let from = i % CHUNK_ROWS;
            let dst = &mut self.chunks[(start + i) / CHUNK_ROWS];
            let to = (start + i) % CHUNK_ROWS;
            if src.is_live(from) {
                let fp = src.fps[from];
                let values = (0..self.arity).map(|c| {
                    std::mem::replace(&mut src.values[c * CHUNK_ROWS + from], Value::Null)
                });
                dst.put(to, values, fp);
            } else {
                dst.clear(to);
            }
        }
        Ok(())
    }
}

impl fmt::Debug for RawHeap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let slots = self
            .chunks
            .iter()
            .flat_map(|chunk| (0..CHUNK_ROWS).map(move |i| chunk.row(i)))
            .take(self.len);
        f.debug_list().entries(slots).finish()
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
    fn rows_borrow_live_rows_in_place() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "a", "O"]).unwrap();
        r.insert(tuple![2i64, "b", "O"]).unwrap();
        r.delete(a).unwrap();
        let ids: Vec<i64> = r.rows().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(ids, vec![2]);
        // The iterator borrows: the same field address is observed twice.
        let first = r.rows().next().unwrap().get(1) as *const Value;
        let again = r.rows().next().unwrap().get(1) as *const Value;
        assert_eq!(first, again);
    }

    #[test]
    fn a_row_reads_its_columns_and_fingerprint_like_its_tuple() {
        let mut r = token_relation();
        let rows: Vec<Tuple> = (0..150i64)
            .map(|i| tuple![i, format!("w{}", i % 7), ["O", "B-PER"][i as usize % 2]])
            .collect();
        for t in &rows {
            r.insert(t.clone()).unwrap();
        }
        assert_eq!(r.chunk_count(), 3);
        for ((rid, row), t) in r.iter().zip(&rows) {
            assert_eq!(row, *t);
            assert_eq!(row.fingerprint(), t.fingerprint());
            assert_eq!(row.to_tuple(), *t);
            assert_eq!(r.get(rid), Some(row));
            assert_eq!(row.values().cloned().collect::<Vec<_>>(), t.values());
        }
    }

    #[test]
    fn update_field_writes_in_place_into_an_unshared_chunk() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "IBM", "O"]).unwrap();
        let before = Arc::as_ptr(&r.chunks[0]);
        let (old, new) = r.update_field(a, 2, Value::str("B-ORG")).unwrap();
        assert_eq!(Arc::as_ptr(&r.chunks[0]), before, "no copy when unshared");
        assert_eq!(old.fingerprint(), tuple![1i64, "IBM", "O"].fingerprint());
        assert_eq!(new, tuple![1i64, "IBM", "B-ORG"]);
        let row = r.get(a).unwrap();
        assert_eq!(row, new);
        assert_eq!(row.fingerprint(), new.fingerprint());
        // A snapshot holds the chunk: the next write copies it, once.
        let snap = r.snapshot();
        r.update_field(a, 2, Value::str("O")).unwrap();
        assert!(!Arc::ptr_eq(&r.chunks[0], &snap.chunks[0]));
        assert_eq!(snap.get(a).unwrap(), new);
        assert_eq!(r.get(a).unwrap(), tuple![1i64, "IBM", "O"]);
    }

    #[test]
    fn index_maintenance_finds_rows_by_position() {
        // One key shared by every row: each removal is a swap_remove whose
        // moved row must get its new position.
        let mut r = token_relation();
        let rids: Vec<RowId> = (0..200i64)
            .map(|i| r.insert(tuple![i, "same", "O"]).unwrap())
            .collect();
        r.create_index("string").unwrap();
        let col = r.schema().index_of("string").unwrap();
        for (k, rid) in rids.iter().enumerate().filter(|(k, _)| k % 3 != 1) {
            let to = if k % 2 == 0 { "even" } else { "odd" };
            r.update_field(*rid, col, Value::str(to)).unwrap();
        }
        r.delete(rids[1]).unwrap();
        for key in ["same", "even", "odd"] {
            let mut hits = r.index_lookup(col, &Value::str(key)).unwrap().to_vec();
            hits.sort();
            let mut want: Vec<RowId> = r
                .iter()
                .filter(|(_, row)| row.get(col).as_str() == Some(key))
                .map(|(rid, _)| rid)
                .collect();
            want.sort();
            assert_eq!(hits, want, "{key}");
        }
    }

    #[test]
    fn raw_heap_resizes_and_overwrites_slots() {
        let mut heap = RawHeap::new(3);
        for i in 0..70i64 {
            if i % 5 == 0 {
                heap.push_dead();
            } else {
                heap.push_live(&mut vec![Value::Int(i), Value::str("s"), Value::str("O")])
                    .unwrap();
            }
        }
        assert!(heap.push_live(&mut vec![Value::Int(0)]).is_err());
        assert_eq!(heap.len(), 70);
        let mut patch = RawHeap::new(3);
        patch
            .push_live(&mut vec![Value::Int(64), Value::str("p"), Value::str("O")])
            .unwrap();
        patch.push_dead();
        heap.overwrite(64, patch).unwrap();
        heap.resize(66);
        let free: Vec<u32> = (0..66u32)
            .filter(|i| i % 5 == 0 && *i < 64 || *i == 65)
            .collect();
        let rel = Relation::from_raw_heap("T", token_relation().schema().clone(), heap, free, &[])
            .unwrap();
        assert_eq!(rel.raw_slots().len(), 66);
        assert_eq!(rel.get(RowId(64)).unwrap(), tuple![64i64, "p", "O"]);
        assert!(rel.get(RowId(65)).is_none());
        assert_eq!(rel.get(RowId(63)).unwrap(), tuple![63i64, "s", "O"]);
        assert_eq!(rel.len(), 64 - 13 + 1);
        // A patch of another arity is refused; an all-dead one is not.
        let mut heap = RawHeap::new(3);
        heap.push_dead();
        let mut wide = RawHeap::new(4);
        wide.push_live(&mut (0..4i32).map(Value::from).collect())
            .unwrap();
        assert!(heap.overwrite(0, wide).is_err());
        let mut dead = RawHeap::new(4);
        dead.push_dead();
        heap.overwrite(0, dead).unwrap();
        let mut long = RawHeap::new(3);
        long.push_dead();
        long.push_dead();
        assert!(heap.overwrite(0, long).is_err());
    }
}
