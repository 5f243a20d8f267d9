//! The versioned binary encoding of every persisted fgdb structure.
//!
//! This module is the executable counterpart of `docs/FORMAT.md` — the
//! normative description of the on-disk format. Every encoder here produces
//! exactly the byte layout that document specifies, and the round-trip
//! property suite (`crates/durability/tests/prop_format.rs`) cross-checks
//! the two: `decode(encode(x)) == x` for every record type, on random
//! inputs.
//!
//! Design rules (§"Evolution policy" of FORMAT.md):
//!
//! * all multi-byte primitives are little-endian; variable-length integers
//!   use LEB128 (`u64`) and zigzag-LEB128 (`i64`);
//! * every composite is length-prefixed or tag-discriminated so a decoder
//!   for version N can skip structures it does not understand;
//! * encoders are **canonical**: hash-map-backed structures are written in
//!   sorted order, so equal values produce equal bytes (snapshots of equal
//!   states are byte-identical);
//! * decoding never panics on corrupt input — every failure surfaces as a
//!   [`FormatError`].

use fgdb_graph::{Domain, World};
use fgdb_relational::{
    ChunkRef, CountedSet, Database, DeltaSet, FxHashMap, RawHeap, Relation, Schema, Str, Tuple,
    Value, ValueType,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The current container format version, written in every file header.
pub const FORMAT_VERSION: u16 = 1;

/// Feature flags carried in every file header. None are defined yet; a
/// reader must reject flags it does not know (see FORMAT.md §Header).
pub const FEATURE_FLAGS: u32 = 0;

/// Decoding failure: the input does not describe a valid structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Input ended before the structure was complete.
    UnexpectedEof,
    /// A decoder finished with input left over (`n` unread bytes).
    Trailing(usize),
    /// A tag byte outside the defined range for `what`.
    BadTag {
        /// The structure being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A length or count exceeded its sanity bound.
    Oversized {
        /// The structure being decoded.
        what: &'static str,
    },
    /// Structurally invalid data (e.g. a relation whose free list
    /// contradicts its slots).
    Invalid {
        /// The structure being decoded.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// The input declares a version or feature this reader does not know.
    Unsupported {
        /// The structure being decoded.
        what: &'static str,
        /// The declared version/flag value.
        found: u32,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::UnexpectedEof => write!(f, "unexpected end of input"),
            FormatError::Trailing(n) => write!(f, "{n} trailing bytes after structure"),
            FormatError::BadTag { what, tag } => write!(f, "bad tag {tag:#04x} decoding {what}"),
            FormatError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            FormatError::Oversized { what } => write!(f, "{what} length exceeds sanity bound"),
            FormatError::Invalid { what, detail } => write!(f, "invalid {what}: {detail}"),
            FormatError::Unsupported { what, found } => {
                write!(f, "unsupported {what} {found}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// Upper bound on any single decoded collection length. Far above anything
/// the system produces; its purpose is to turn corrupt length prefixes into
/// errors instead of multi-gigabyte allocations.
const MAX_LEN: u64 = 1 << 32;

// ---------------------------------------------------------------------------
// Primitive writer/reader
// ---------------------------------------------------------------------------

/// Byte-buffer writer for the primitives of FORMAT.md §Primitives.
#[derive(Default, Debug)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` little-endian (fixed 2 bytes).
    pub fn u16_le(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` little-endian (fixed 4 bytes).
    pub fn u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a LEB128 variable-length `u64`.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8; // lint:allow(cast, masked to 7 bits; lossless by construction)
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a zigzag-LEB128 `i64`.
    pub fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes an `f64` as its 8 IEEE-754 bits, little-endian.
    pub fn f64_bits(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes raw bytes with a varint length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes a UTF-8 string (varint byte length + bytes).
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes raw bytes with no length prefix (fixed-size fields).
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Cursor-based reader over an encoded byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Every string value decoded so far, as the symbol it decodes to: the
    /// interner's lock is taken once per distinct string, not per cell.
    symbols: FxHashMap<&'a str, Str>,
}

impl<'a> Dec<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec {
            buf,
            pos: 0,
            symbols: FxHashMap::default(),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the whole input was consumed — every top-level decoder
    /// ends with this so trailing garbage is never silently accepted.
    pub fn finish(&self) -> Result<(), FormatError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(FormatError::Trailing(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let end = self.pos.checked_add(n).ok_or(FormatError::UnexpectedEof)?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or(FormatError::UnexpectedEof)?;
        self.pos = end;
        Ok(out)
    }

    /// Takes exactly `N` bytes as a fixed-size array — the checked form of
    /// `take(N)?.try_into().unwrap()`.
    fn take_n<const N: usize>(&mut self) -> Result<[u8; N], FormatError> {
        let s = self.take(N)?;
        <[u8; N]>::try_from(s).map_err(|_| FormatError::UnexpectedEof)
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, FormatError> {
        self.take_n().map(|[b]| b)
    }

    /// Reads a fixed little-endian `u16`.
    pub fn u16_le(&mut self) -> Result<u16, FormatError> {
        Ok(u16::from_le_bytes(self.take_n()?))
    }

    /// Reads a fixed little-endian `u32`.
    pub fn u32_le(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.take_n()?))
    }

    /// Reads a LEB128 `u64`.
    pub fn varint(&mut self) -> Result<u64, FormatError> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(FormatError::Oversized { what: "varint" });
            }
            out |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Reads a zigzag-LEB128 `i64`.
    pub fn zigzag(&mut self) -> Result<i64, FormatError> {
        let raw = self.varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Reads a varint that must fit `u32`, erroring (not truncating) when
    /// it does not — ids and indexes persisted as varints use this so a
    /// corrupt oversized value can never alias a valid small one.
    pub fn varint_u32(&mut self, what: &'static str) -> Result<u32, FormatError> {
        u32::try_from(self.varint()?).map_err(|_| FormatError::Oversized { what })
    }

    /// Reads a varint that must fit `usize`, erroring when it does not.
    pub fn varint_usize(&mut self, what: &'static str) -> Result<usize, FormatError> {
        usize::try_from(self.varint()?).map_err(|_| FormatError::Oversized { what })
    }

    /// Reads an `f64` from its 8 IEEE-754 bits.
    pub fn f64_bits(&mut self) -> Result<f64, FormatError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take_n()?)))
    }

    /// Reads a varint length prefix, bounds-checked against both a global
    /// sanity bound (`MAX_LEN`, 2³²)
    /// and the remaining input: with at least `unit_size` bytes per element,
    /// a count larger than `remaining / unit_size` is corrupt by
    /// construction, so a corrupt prefix turns into an error instead of a
    /// huge up-front allocation.
    pub fn len_prefix(
        &mut self,
        what: &'static str,
        unit_size: usize,
    ) -> Result<usize, FormatError> {
        let n = self.varint()?;
        let bound = (self.remaining() / unit_size.max(1)) as u64;
        if n > MAX_LEN || n > bound {
            return Err(FormatError::Oversized { what });
        }
        Ok(n as usize)
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], FormatError> {
        let n = self.len_prefix("bytes", 1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, FormatError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| FormatError::BadUtf8)
    }

    /// Reads a length-prefixed UTF-8 string as a stored string: its symbol
    /// ([`Str::intern`]), or — should the interner be out of symbols — a
    /// heap string, which storage then refuses with a typed error.
    fn symbol(&mut self) -> Result<Str, FormatError> {
        let s = self.str()?;
        if let Some(sym) = self.symbols.get(s) {
            return Ok(sym.clone());
        }
        let sym = Str::intern(s).unwrap_or_else(|_| Str::heap(s));
        self.symbols.insert(s, sym.clone());
        Ok(sym)
    }

    /// Reads `n` raw bytes (fixed-size fields).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        self.take(n)
    }
}

// ---------------------------------------------------------------------------
// Value / Tuple
// ---------------------------------------------------------------------------

/// Value tags (FORMAT.md §Value).
mod tag {
    pub const NULL: u8 = 0x00;
    pub const BOOL_FALSE: u8 = 0x01;
    pub const BOOL_TRUE: u8 = 0x02;
    pub const INT: u8 = 0x03;
    pub const FLOAT: u8 = 0x04;
    pub const STR: u8 = 0x05;
}

/// Encodes one [`Value`] (tag byte + payload).
pub fn encode_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(tag::NULL),
        Value::Bool(false) => e.u8(tag::BOOL_FALSE),
        Value::Bool(true) => e.u8(tag::BOOL_TRUE),
        Value::Int(i) => {
            e.u8(tag::INT);
            e.zigzag(*i);
        }
        Value::Float(f) => {
            e.u8(tag::FLOAT);
            e.f64_bits(f.get());
        }
        Value::Str(s) => {
            e.u8(tag::STR);
            e.str(s);
        }
    }
}

/// Decodes one [`Value`]; a string decodes as its interned symbol.
pub fn decode_value(d: &mut Dec<'_>) -> Result<Value, FormatError> {
    Ok(match d.u8()? {
        tag::NULL => Value::Null,
        tag::BOOL_FALSE => Value::Bool(false),
        tag::BOOL_TRUE => Value::Bool(true),
        tag::INT => Value::Int(d.zigzag()?),
        tag::FLOAT => Value::Float(d.f64_bits()?.into()),
        tag::STR => Value::Str(d.symbol()?),
        t => {
            return Err(FormatError::BadTag {
                what: "Value",
                tag: t,
            })
        }
    })
}

/// Type tags for [`ValueType`] (FORMAT.md §Schema).
fn encode_value_type(e: &mut Enc, t: ValueType) {
    e.u8(match t {
        ValueType::Null => 0,
        ValueType::Bool => 1,
        ValueType::Int => 2,
        ValueType::Float => 3,
        ValueType::Str => 4,
    });
}

fn decode_value_type(d: &mut Dec<'_>) -> Result<ValueType, FormatError> {
    Ok(match d.u8()? {
        0 => ValueType::Null,
        1 => ValueType::Bool,
        2 => ValueType::Int,
        3 => ValueType::Float,
        4 => ValueType::Str,
        t => {
            return Err(FormatError::BadTag {
                what: "ValueType",
                tag: t,
            })
        }
    })
}

/// Encodes a [`Tuple`] (varint arity + values). The cached fingerprint is
/// derived state and is recomputed on decode, never persisted.
pub fn encode_tuple(e: &mut Enc, t: &Tuple) {
    e.varint(t.arity() as u64);
    for v in t.values() {
        encode_value(e, v);
    }
}

/// Decodes a [`Tuple`].
pub fn decode_tuple(d: &mut Dec<'_>) -> Result<Tuple, FormatError> {
    let mut values = Vec::new();
    decode_values_into(d, &mut values)?;
    Ok(Tuple::new(values))
}

/// Decodes a tuple's values (varint arity + values) into `out`, replacing
/// its contents — the allocation-free form a slot decoder reuses.
fn decode_values_into(d: &mut Dec<'_>, out: &mut Vec<Value>) -> Result<(), FormatError> {
    let n = d.len_prefix("Tuple arity", 1)?;
    out.clear();
    out.reserve(n);
    for _ in 0..n {
        out.push(decode_value(d)?);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Schema / Relation / Database
// ---------------------------------------------------------------------------

/// Encodes a [`Schema`] (FORMAT.md §Schema).
pub fn encode_schema(e: &mut Enc, s: &Schema) {
    e.varint(s.arity() as u64);
    for c in s.columns() {
        e.str(&c.name);
        encode_value_type(e, c.ty);
    }
    match s.primary_key() {
        None => e.u8(0),
        Some(idx) => {
            e.u8(1);
            e.varint(idx as u64);
        }
    }
}

/// Decodes a [`Schema`].
pub fn decode_schema(d: &mut Dec<'_>) -> Result<Schema, FormatError> {
    let n = d.len_prefix("Schema columns", 2)?;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?.to_string();
        let ty = decode_value_type(d)?;
        cols.push((name, ty));
    }
    let schema = Schema::from_pairs(
        &cols
            .iter()
            .map(|(n, t)| (n.as_str(), *t))
            .collect::<Vec<_>>(),
    )
    .map_err(|err| FormatError::Invalid {
        what: "Schema",
        detail: err.to_string(),
    })?;
    match d.u8()? {
        0 => Ok(schema),
        1 => {
            let idx = d.varint_usize("Schema primary-key index")?;
            let name = schema
                .columns()
                .get(idx)
                .map(|c| c.name.to_string())
                .ok_or_else(|| FormatError::Invalid {
                    what: "Schema",
                    detail: format!("primary key index {idx} out of range"),
                })?;
            schema
                .with_primary_key(&name)
                .map_err(|err| FormatError::Invalid {
                    what: "Schema",
                    detail: err.to_string(),
                })
        }
        t => Err(FormatError::BadTag {
            what: "Schema primary-key flag",
            tag: t,
        }),
    }
}

/// Encodes a [`Relation`]: name, schema, the raw slot array (dead slots
/// included, preserving the `RowId` address space), the free-slot stack,
/// and the secondary-index column set. Index *contents* are derived state
/// and are rebuilt on decode (FORMAT.md §Relation). Each row is written
/// from the heap's columns as the tuple it holds.
pub fn encode_relation(e: &mut Enc, r: &Relation) {
    e.str(r.name());
    encode_schema(e, r.schema());
    let slots = r.raw_slots();
    e.varint(slots.len() as u64);
    for (chunk, n) in slots.chunks() {
        encode_chunk_slots(e, chunk, n);
    }
    encode_free_and_indexed(e, r);
}

/// Slots `0..n` of one heap chunk, each a presence flag and, when present,
/// the row as a [`Tuple`] (varint arity + values) — its values read from
/// the chunk's columns.
fn encode_chunk_slots(e: &mut Enc, chunk: ChunkRef<'_>, n: usize) {
    let columns: Vec<&[Value; Relation::CHUNK_ROWS]> =
        (0..chunk.arity()).map(|c| chunk.column(c)).collect();
    for slot in 0..n {
        if (chunk.live() >> slot) & 1 == 0 {
            e.u8(0);
            continue;
        }
        e.u8(1);
        e.varint(columns.len() as u64);
        for value in columns.iter().filter_map(|col| col.get(slot)) {
            encode_value(e, value);
        }
    }
}

/// Decodes one slot onto the end of `heap`, writing a present row's values
/// straight into their columns (`scratch` is the reused value buffer). A
/// row of another arity than the heap's is corrupt.
fn decode_slot_into(
    d: &mut Dec<'_>,
    heap: &mut RawHeap,
    scratch: &mut Vec<Value>,
) -> Result<(), FormatError> {
    match d.u8()? {
        0 => heap.push_dead(),
        1 => {
            decode_values_into(d, scratch)?;
            heap.push_live(scratch)
                .map_err(|err| FormatError::Invalid {
                    what: "Relation",
                    detail: err.to_string(),
                })?;
        }
        t => {
            return Err(FormatError::BadTag {
                what: "Relation slot flag",
                tag: t,
            })
        }
    }
    Ok(())
}

/// The free-slot stack and the secondary-index column set — the two
/// relation fields a base and a chunk patch both carry in full.
fn encode_free_and_indexed(e: &mut Enc, r: &Relation) {
    let free = r.free_slots();
    e.varint(free.len() as u64);
    for &f in free {
        e.varint(u64::from(f));
    }
    let indexed = r.indexed_columns();
    e.varint(indexed.len() as u64);
    for col in indexed {
        e.varint(col as u64);
    }
}

fn decode_free_and_indexed(d: &mut Dec<'_>) -> Result<(Vec<u32>, Vec<usize>), FormatError> {
    let n_free = d.len_prefix("Relation free list", 1)?;
    let mut free = Vec::with_capacity(n_free);
    for _ in 0..n_free {
        free.push(d.varint_u32("Relation free-list entry")?);
    }
    let n_indexed = d.len_prefix("Relation index set", 1)?;
    let mut indexed = Vec::with_capacity(n_indexed);
    for _ in 0..n_indexed {
        indexed.push(d.varint_usize("Relation index column")?);
    }
    Ok((free, indexed))
}

/// A decoded relation before its indexes are built: a base snapshot's
/// relation as persisted, which chunk patches then edit in place. Recovery
/// turns each into a [`Relation`] once, after the last patch
/// ([`RawRelation::build`]).
#[derive(Clone, Debug)]
pub(crate) struct RawRelation {
    /// Relation name.
    pub name: Arc<str>,
    /// Relation schema.
    pub schema: Schema,
    /// The slot array in `RowId` order, dead slots included, in columns.
    pub heap: RawHeap,
    /// The free-slot stack.
    pub free: Vec<u32>,
    /// Columns carrying a secondary index.
    pub indexed: Vec<usize>,
}

impl RawRelation {
    /// Validates the parts and builds the relation and its indexes
    /// ([`Relation::from_raw_heap`]).
    pub(crate) fn build(self) -> Result<Relation, FormatError> {
        Relation::from_raw_heap(self.name, self.schema, self.heap, self.free, &self.indexed)
            .map_err(|err| FormatError::Invalid {
                what: "Relation",
                detail: err.to_string(),
            })
    }
}

/// Decodes a relation's persisted parts without building it.
pub(crate) fn decode_raw_relation(d: &mut Dec<'_>) -> Result<RawRelation, FormatError> {
    let name: Arc<str> = Arc::from(d.str()?);
    let schema = decode_schema(d)?;
    let n_slots = d.len_prefix("Relation slots", 1)?;
    let mut heap = RawHeap::new(schema.arity());
    let mut scratch = Vec::new();
    for _ in 0..n_slots {
        decode_slot_into(d, &mut heap, &mut scratch)?;
    }
    let (free, indexed) = decode_free_and_indexed(d)?;
    Ok(RawRelation {
        name,
        schema,
        heap,
        free,
        indexed,
    })
}

/// Decodes a [`Relation`], re-validating schema conformance, primary-key
/// uniqueness, and free-list consistency, and rebuilding all indexes.
pub fn decode_relation(d: &mut Dec<'_>) -> Result<Relation, FormatError> {
    decode_raw_relation(d)?.build()
}

/// Encodes a [`Database`] (relation count + relations in name order —
/// canonical because the catalog is a `BTreeMap`).
pub fn encode_database(e: &mut Enc, db: &Database) {
    let rels = relations_in_order(db);
    e.varint(rels.len() as u64);
    for rel in rels {
        encode_relation(e, rel);
    }
}

/// Every relation of `db` in ascending name order. `filter_map` keeps a
/// written count and the loop over it in lockstep by construction, where a
/// lookup-and-expect would panic on a (impossible today, fatal on disk)
/// catalog/name mismatch.
fn relations_in_order(db: &Database) -> Vec<&Relation> {
    db.relation_names()
        .filter_map(|name| db.relation(name).ok())
        .collect()
}

/// Decodes a database's relations without building them, in file order.
pub(crate) fn decode_raw_database(d: &mut Dec<'_>) -> Result<Vec<RawRelation>, FormatError> {
    let n = d.len_prefix("Database relations", 1)?;
    let mut rels = Vec::with_capacity(n);
    for _ in 0..n {
        rels.push(decode_raw_relation(d)?);
    }
    Ok(rels)
}

/// Builds a [`Database`] from decoded relations: one
/// [`RawRelation::build`] each; duplicate names are corrupt.
pub(crate) fn build_database(rels: Vec<RawRelation>) -> Result<Database, FormatError> {
    let mut db = Database::new();
    for raw in rels {
        db.adopt_relation(raw.build()?)
            .map_err(|err| FormatError::Invalid {
                what: "Database",
                detail: err.to_string(),
            })?;
    }
    Ok(db)
}

/// Decodes a [`Database`].
pub fn decode_database(d: &mut Dec<'_>) -> Result<Database, FormatError> {
    build_database(decode_raw_database(d)?)
}

// ---------------------------------------------------------------------------
// Chunk patches (read-only: older stores wrote them, recovery applies them)
// ---------------------------------------------------------------------------

/// One relation's part of a decoded chunk patch.
#[derive(Clone, Debug)]
pub(crate) struct RelationPatch {
    /// Relation name (must match the patched relation).
    pub name: Arc<str>,
    /// Slot count at the checkpoint.
    pub n_slots: usize,
    /// The free-slot stack at the checkpoint.
    pub free: Vec<u32>,
    /// The secondary-index column set at the checkpoint.
    pub indexed: Vec<usize>,
    /// `(first slot, slots)` of every rewritten chunk, ascending.
    pub chunks: Vec<(usize, RawHeap)>,
}

/// Decodes one relation's part of a chunk patch whose chunks hold
/// `chunk_rows` slots. Chunk indexes must ascend strictly and name slots
/// below the slot count.
pub(crate) fn decode_relation_patch(
    d: &mut Dec<'_>,
    chunk_rows: usize,
) -> Result<RelationPatch, FormatError> {
    let invalid = |detail: String| FormatError::Invalid {
        what: "RelationPatch",
        detail,
    };
    let name: Arc<str> = Arc::from(d.str()?);
    let n_slots = d.varint_usize("RelationPatch slot count")?;
    let (free, indexed) = decode_free_and_indexed(d)?;
    let n_chunks = d.len_prefix("RelationPatch chunks", 1)?;
    let mut chunks = Vec::with_capacity(n_chunks);
    let mut next = 0usize;
    for _ in 0..n_chunks {
        let c = d.varint_usize("RelationPatch chunk index")?;
        let start = c
            .checked_mul(chunk_rows)
            .filter(|&s| c >= next && s < n_slots)
            .ok_or_else(|| invalid(format!("chunk {c} out of order or past {n_slots} slots")))?;
        let len = (n_slots - start).min(chunk_rows);
        // Every slot costs at least its flag byte: a length the input
        // cannot hold is corrupt, not an allocation request.
        if len > d.remaining() {
            return Err(FormatError::Oversized {
                what: "RelationPatch chunk",
            });
        }
        chunks.push((start, decode_patch_chunk(d, len)?));
        next = c + 1;
    }
    Ok(RelationPatch {
        name,
        n_slots,
        free,
        indexed,
        chunks,
    })
}

/// Decodes the `len` slots of one patched chunk. A patch does not carry
/// its relations' schemas (a stale one may predate them), so the chunk's
/// arity is that of its first present row, and every present row must
/// share it; a chunk of dead slots only takes any arity.
fn decode_patch_chunk(d: &mut Dec<'_>, len: usize) -> Result<RawHeap, FormatError> {
    let mut heap = RawHeap::new(0);
    let mut scratch = Vec::new();
    let mut sized = false;
    for _ in 0..len {
        match d.u8()? {
            0 => heap.push_dead(),
            1 => {
                decode_values_into(d, &mut scratch)?;
                if !sized {
                    // The first present row sizes the chunk.
                    let dead = heap.len();
                    heap = RawHeap::new(scratch.len());
                    heap.resize(dead);
                    sized = true;
                }
                heap.push_live(&mut scratch)
                    .map_err(|err| FormatError::Invalid {
                        what: "RelationPatch",
                        detail: err.to_string(),
                    })?;
            }
            t => {
                return Err(FormatError::BadTag {
                    what: "Relation slot flag",
                    tag: t,
                })
            }
        }
    }
    Ok(heap)
}

impl RelationPatch {
    /// Applies the patch to `raw`: the slot array takes the patch's slot
    /// count and rewritten chunks, the free list and index set are
    /// replaced. Validation of the result is [`RawRelation::build`]'s.
    pub(crate) fn apply(self, raw: &mut RawRelation) -> Result<(), FormatError> {
        let invalid = |detail: String| FormatError::Invalid {
            what: "RelationPatch",
            detail,
        };
        if self.name != raw.name {
            return Err(invalid(format!(
                "patch for `{}` applied to `{}`",
                self.name, raw.name
            )));
        }
        // Slots past the old count were all written since, so the patch
        // carries them: a count beyond both is corrupt (and is refused
        // before it becomes an allocation).
        let covered = self.chunks.last().map_or(0, |(start, s)| start + s.len());
        if self.n_slots > raw.heap.len().max(covered) {
            return Err(invalid(format!(
                "{} slots, but only {} are known",
                self.n_slots,
                raw.heap.len().max(covered)
            )));
        }
        raw.heap.resize(self.n_slots);
        for (start, slots) in self.chunks {
            let end = start + slots.len();
            raw.heap
                .overwrite(start, slots)
                .map_err(|err| invalid(format!("slots {start}..{end}: {err}")))?;
        }
        raw.free = self.free;
        raw.indexed = self.indexed;
        Ok(())
    }
}

/// Decodes world assignment changes; variables must ascend strictly.
pub(crate) fn decode_assignment_changes(d: &mut Dec<'_>) -> Result<Vec<(u32, u16)>, FormatError> {
    let n = d.len_prefix("Assignment changes", 2)?;
    let mut out: Vec<(u32, u16)> = Vec::with_capacity(n);
    for _ in 0..n {
        let v = d.varint_u32("Assignment change variable")?;
        let idx = u16::try_from(d.varint()?).map_err(|_| FormatError::Oversized {
            what: "Assignment change index",
        })?;
        if out.last().is_some_and(|&(prev, _)| prev >= v) {
            return Err(FormatError::Invalid {
                what: "Assignment changes",
                detail: format!("variable {v} out of order"),
            });
        }
        out.push((v, idx));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// CountedSet / DeltaSet
// ---------------------------------------------------------------------------

/// Encodes a [`CountedSet`] as sorted `(tuple, signed count)` entries —
/// sorted so equal sets produce equal bytes regardless of hash-map order.
pub fn encode_counted_set(e: &mut Enc, s: &CountedSet) {
    let entries = s.sorted_entries();
    e.varint(entries.len() as u64);
    for (t, c) in entries {
        encode_tuple(e, &t);
        e.zigzag(c);
    }
}

/// Decodes a [`CountedSet`]. Zero counts and duplicate tuples are rejected:
/// a canonical encoder never produces them.
pub fn decode_counted_set(d: &mut Dec<'_>) -> Result<CountedSet, FormatError> {
    let n = d.len_prefix("CountedSet entries", 2)?;
    let mut out = CountedSet::with_capacity(n);
    for _ in 0..n {
        let t = decode_tuple(d)?;
        let c = d.zigzag()?;
        if c == 0 {
            return Err(FormatError::Invalid {
                what: "CountedSet",
                detail: "zero multiplicity entry".into(),
            });
        }
        if out.count(&t) != 0 {
            return Err(FormatError::Invalid {
                what: "CountedSet",
                detail: format!("duplicate entry {t}"),
            });
        }
        out.add(t, c);
    }
    Ok(out)
}

/// Encodes a [`DeltaSet`] as `(relation name, counted set)` pairs in name
/// order, compacted (relations whose changes cancelled are absent).
pub fn encode_delta(e: &mut Enc, delta: &DeltaSet) {
    // `relations()` already skips per-relation entries whose changes have
    // fully cancelled, so the encoding is compact even when the in-memory
    // set still carries empty entries.
    let parts: Vec<_> = delta
        .relations()
        .filter_map(|r| delta.for_relation(r).map(|set| (r, set)))
        .collect();
    e.varint(parts.len() as u64);
    for (name, set) in parts {
        e.str(name);
        encode_counted_set(e, set);
    }
}

/// Decodes a [`DeltaSet`].
pub fn decode_delta(d: &mut Dec<'_>) -> Result<DeltaSet, FormatError> {
    let n = d.len_prefix("DeltaSet relations", 2)?;
    let mut parts: BTreeMap<Arc<str>, CountedSet> = BTreeMap::new();
    for _ in 0..n {
        let name: Arc<str> = Arc::from(d.str()?);
        let set = decode_counted_set(d)?;
        if parts.insert(name, set).is_some() {
            return Err(FormatError::Invalid {
                what: "DeltaSet",
                detail: "duplicate relation entry".into(),
            });
        }
    }
    Ok(DeltaSet::from_parts(parts))
}

/// Steps over one encoded [`DeltaSet`] without building it, checking that
/// its lengths, tags and strings are well formed — what recovery runs on a
/// logged delta it compares byte for byte instead of decoding (see
/// [`crate::store::LoggedInterval`]).
pub(crate) fn skip_delta(d: &mut Dec<'_>) -> Result<(), FormatError> {
    let n = d.len_prefix("DeltaSet relations", 2)?;
    for _ in 0..n {
        d.str()?;
        let entries = d.len_prefix("CountedSet entries", 2)?;
        for _ in 0..entries {
            let arity = d.len_prefix("Tuple arity", 1)?;
            for _ in 0..arity {
                match d.u8()? {
                    tag::NULL | tag::BOOL_FALSE | tag::BOOL_TRUE => {}
                    tag::INT => {
                        d.zigzag()?;
                    }
                    tag::FLOAT => {
                        d.f64_bits()?;
                    }
                    tag::STR => {
                        d.str()?;
                    }
                    t => {
                        return Err(FormatError::BadTag {
                            what: "Value",
                            tag: t,
                        })
                    }
                }
            }
            d.zigzag()?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

/// Encodes a [`World`]: the distinct domains (deduplicated by `Arc`
/// identity, in first-use order), each variable's domain reference, and the
/// assignment vector (FORMAT.md §World).
pub fn encode_world(e: &mut Enc, w: &World) {
    let domains = w.domains();
    let mut distinct: Vec<&Arc<Domain>> = Vec::new();
    let mut refs: Vec<u64> = Vec::with_capacity(domains.len());
    for d in domains {
        let id = distinct
            .iter()
            .position(|x| Arc::ptr_eq(x, d))
            .unwrap_or_else(|| {
                distinct.push(d);
                distinct.len() - 1
            });
        refs.push(id as u64);
    }
    e.varint(distinct.len() as u64);
    for d in &distinct {
        e.varint(d.len() as u64);
        for v in d.values() {
            encode_value(e, v);
        }
    }
    e.varint(refs.len() as u64);
    for r in refs {
        e.varint(r);
    }
    for &idx in w.assignment() {
        e.varint(idx as u64);
    }
}

/// Decodes a [`World`]. Domain sharing is restored exactly as encoded: one
/// `Arc` per distinct domain record.
pub fn decode_world(d: &mut Dec<'_>) -> Result<World, FormatError> {
    let n_domains = d.len_prefix("World domains", 1)?;
    let mut domains = Vec::with_capacity(n_domains);
    for _ in 0..n_domains {
        let len = d.len_prefix("Domain values", 1)?;
        if len == 0 {
            return Err(FormatError::Invalid {
                what: "Domain",
                detail: "empty domain".into(),
            });
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            let v = decode_value(d)?;
            if values.contains(&v) {
                return Err(FormatError::Invalid {
                    what: "Domain",
                    detail: format!("duplicate domain value {v}"),
                });
            }
            values.push(v);
        }
        if values.len() > u16::MAX as usize + 1 {
            return Err(FormatError::Oversized { what: "Domain" });
        }
        domains.push(Domain::new(values));
    }
    let n_vars = d.len_prefix("World variables", 1)?;
    let mut per_var = Vec::with_capacity(n_vars);
    for _ in 0..n_vars {
        let id = d.varint_usize("World domain reference")?;
        let dom = domains.get(id).ok_or_else(|| FormatError::Invalid {
            what: "World",
            detail: format!("domain reference {id} out of range"),
        })?;
        per_var.push(Arc::clone(dom));
    }
    let mut assignment = Vec::with_capacity(n_vars);
    for dom in &per_var {
        let idx = d.varint()?;
        // Convert before comparing: domain sizes are capped at u16::MAX+1
        // above, so any in-range index fits u16 — but the conversion, not
        // the comparison, is what must be checked.
        let small = u16::try_from(idx)
            .ok()
            .filter(|&s| usize::from(s) < dom.len())
            .ok_or_else(|| FormatError::Invalid {
                what: "World",
                detail: format!("assignment index {idx} outside domain"),
            })?;
        assignment.push(small);
    }
    Ok(World::from_parts(per_var, assignment))
}

// ---------------------------------------------------------------------------
// Chain state / binding / net changes
// ---------------------------------------------------------------------------

/// Persistable MCMC chain position: everything beyond the world itself that
/// the sampler needs to resume bit-identically. Plain data — the durability
/// layer stays independent of `fgdb-mcmc`; `fgdb-core` maps this to and
/// from a live `Chain`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainStateRec {
    /// Total MH steps taken.
    pub steps_taken: u64,
    /// The chain RNG's internal state (32 little-endian xoshiro bytes).
    pub rng: [u8; 32],
    /// Kernel counter: proposals drawn.
    pub proposals: u64,
    /// Kernel counter: proposals accepted.
    pub accepted: u64,
    /// Model counter: individual factor evaluations.
    pub factors_evaluated: u64,
    /// Model counter: neighborhood scorings.
    pub neighborhood_scores: u64,
}

/// Encodes a [`ChainStateRec`].
pub fn encode_chain_state(e: &mut Enc, c: &ChainStateRec) {
    e.varint(c.steps_taken);
    e.raw(&c.rng);
    e.varint(c.proposals);
    e.varint(c.accepted);
    e.varint(c.factors_evaluated);
    e.varint(c.neighborhood_scores);
}

/// Decodes a [`ChainStateRec`].
pub fn decode_chain_state(d: &mut Dec<'_>) -> Result<ChainStateRec, FormatError> {
    let steps_taken = d.varint()?;
    let rng: [u8; 32] = d.take_n()?;
    Ok(ChainStateRec {
        steps_taken,
        rng,
        proposals: d.varint()?,
        accepted: d.varint()?,
        factors_evaluated: d.varint()?,
        neighborhood_scores: d.varint()?,
    })
}

/// Persistable variable↔field binding: which relation/column each hidden
/// variable writes through to (`fgdb-core`'s `FieldBinding`, as plain data).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BindingRec {
    /// Relation holding the uncertain fields.
    pub relation: Arc<str>,
    /// Column index of the uncertain attribute.
    pub column: u32,
    /// Row of each variable, indexed by variable id.
    pub rows: Vec<u32>,
}

/// Encodes a [`BindingRec`].
pub fn encode_binding(e: &mut Enc, b: &BindingRec) {
    e.str(&b.relation);
    e.varint(b.column as u64);
    e.varint(b.rows.len() as u64);
    for &r in &b.rows {
        e.varint(r as u64);
    }
}

/// Decodes a [`BindingRec`].
pub fn decode_binding(d: &mut Dec<'_>) -> Result<BindingRec, FormatError> {
    let relation: Arc<str> = Arc::from(d.str()?);
    let column = d.varint_u32("Binding column")?;
    let n = d.len_prefix("Binding rows", 1)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(d.varint_u32("Binding row")?);
    }
    Ok(BindingRec {
        relation,
        column,
        rows,
    })
}

/// One net variable change of a thinning interval:
/// `(variable id, old domain index, new domain index)`.
pub type NetChangeRec = (u32, u16, u16);

/// Encodes a net-change list (sorted by variable id by the producer).
pub fn encode_changes(e: &mut Enc, changes: &[NetChangeRec]) {
    e.varint(changes.len() as u64);
    for &(v, old, new) in changes {
        e.varint(v as u64);
        e.varint(old as u64);
        e.varint(new as u64);
    }
}

/// Decodes a net-change list.
pub fn decode_changes(d: &mut Dec<'_>) -> Result<Vec<NetChangeRec>, FormatError> {
    let n = d.len_prefix("NetChange list", 3)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let v = d.varint_u32("NetChange variable id")?;
        let old = u16::try_from(d.varint()?).map_err(|_| FormatError::Oversized {
            what: "NetChange old index",
        })?;
        let new = u16::try_from(d.varint()?).map_err(|_| FormatError::Oversized {
            what: "NetChange new index",
        })?;
        out.push((v, old, new));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdb_relational::tuple;

    fn round_trip_value(v: Value) {
        let mut e = Enc::new();
        encode_value(&mut e, &v);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(decode_value(&mut d).unwrap(), v);
        d.finish().unwrap();
    }

    #[test]
    fn value_round_trips() {
        round_trip_value(Value::Null);
        round_trip_value(Value::Bool(true));
        round_trip_value(Value::Bool(false));
        round_trip_value(Value::Int(0));
        round_trip_value(Value::Int(i64::MIN));
        round_trip_value(Value::Int(i64::MAX));
        round_trip_value(Value::float(0.5));
        round_trip_value(Value::float(f64::NAN));
        round_trip_value(Value::float(-0.0));
        round_trip_value(Value::str(""));
        round_trip_value(Value::str("Boston — 波士顿"));
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut e = Enc::new();
            e.varint(v);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(d.varint().unwrap(), v);
            d.finish().unwrap();
        }
        // An 11-byte varint overflows u64.
        let mut d = Dec::new(&[0xFF; 11]);
        assert!(matches!(d.varint(), Err(FormatError::Oversized { .. })));
    }

    #[test]
    fn truncated_input_is_eof_not_panic() {
        let mut e = Enc::new();
        encode_tuple(&mut e, &tuple![1i64, "IBM", 2.5]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            // Any prefix must decode to an error, never a panic or a value.
            assert!(decode_tuple(&mut d).is_err() || d.finish().is_err());
        }
    }

    #[test]
    fn tuple_fingerprint_recomputed() {
        let t = tuple![7i64, "x"];
        let mut e = Enc::new();
        encode_tuple(&mut e, &t);
        let bytes = e.into_bytes();
        let back = decode_tuple(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.fingerprint(), t.fingerprint());
    }

    #[test]
    fn counted_set_is_canonical() {
        // Same logical set built in two insertion orders → same bytes.
        let mut a = CountedSet::new();
        a.add(tuple!["x"], 2);
        a.add(tuple!["y"], -1);
        let mut b = CountedSet::new();
        b.add(tuple!["y"], -1);
        b.add(tuple!["x"], 1);
        b.add(tuple!["x"], 1);
        let enc = |s: &CountedSet| {
            let mut e = Enc::new();
            encode_counted_set(&mut e, s);
            e.into_bytes()
        };
        assert_eq!(enc(&a), enc(&b));
        let back = decode_counted_set(&mut Dec::new(&enc(&a))).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn counted_set_rejects_zero_and_duplicates() {
        // Hand-built corrupt encodings.
        let mut e = Enc::new();
        e.varint(1);
        encode_tuple(&mut e, &tuple!["x"]);
        e.zigzag(0);
        assert!(decode_counted_set(&mut Dec::new(&e.into_bytes())).is_err());

        let mut e = Enc::new();
        e.varint(2);
        encode_tuple(&mut e, &tuple!["x"]);
        e.zigzag(1);
        encode_tuple(&mut e, &tuple!["x"]);
        e.zigzag(1);
        assert!(decode_counted_set(&mut Dec::new(&e.into_bytes())).is_err());
    }

    #[test]
    fn world_round_trip_preserves_sharing() {
        let shared = Domain::of_labels(&["O", "B-PER"]);
        let solo = Domain::new(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let mut w = World::new(vec![shared.clone(), shared, solo]);
        w.set(fgdb_graph::VariableId(2), 2);
        let mut e = Enc::new();
        encode_world(&mut e, &w);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = decode_world(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.assignment(), w.assignment());
        assert!(Arc::ptr_eq(&back.domains()[0], &back.domains()[1]));
        assert!(!Arc::ptr_eq(&back.domains()[0], &back.domains()[2]));
        assert_eq!(back.domains()[2].values(), w.domains()[2].values());
    }

    #[test]
    fn chain_state_and_binding_round_trip() {
        let c = ChainStateRec {
            steps_taken: 12345,
            rng: [7u8; 32],
            proposals: 99,
            accepted: 42,
            factors_evaluated: 1_000_000,
            neighborhood_scores: 200,
        };
        let mut e = Enc::new();
        encode_chain_state(&mut e, &c);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(decode_chain_state(&mut d).unwrap(), c);
        d.finish().unwrap();

        let b = BindingRec {
            relation: Arc::from("TOKEN"),
            column: 3,
            rows: vec![0, 1, 5, 9],
        };
        let mut e = Enc::new();
        encode_binding(&mut e, &b);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(decode_binding(&mut d).unwrap(), b);
        d.finish().unwrap();
    }
}
