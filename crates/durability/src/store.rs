//! The durable store: a directory holding a base snapshot, a log of chunk
//! patches against it, and a WAL, with crash-safe checkpointing and
//! recovery.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/snapshot.fgdb           the base: full state at some interval boundary (seq B)
//! <dir>/snapshot.patches.fgdb   chunk patches P₁ < P₂ < … above B, each holding what
//!                               changed since the checkpoint before it
//! <dir>/wal.fgdb                interval records since the last checkpoint
//! ```
//!
//! A checkpoint costs what changed, not what is stored. The store keeps the
//! state of its last durable checkpoint (a [`Database`] snapshot — which
//! shares every chunk the sampler has not written since — plus the world
//! assignment), and a checkpoint appends one *chunk patch* to the patch
//! log: the chain state, per relation the slot count, free list, index set
//! and every slot chunk not pointer-identical to the retained copy, and the
//! variables whose assignment moved. The dirty set is read by comparing
//! pointers at checkpoint time ([`fgdb_relational::Relation::chunks_not_shared_with`]);
//! nothing is tracked on the write path. When the patch log would outgrow
//! the base ([`PATCH_LOG_BASE_MULTIPLE`]) — or the state changed shape (a
//! relation, schema, domain or binding a patch cannot describe) — the
//! checkpoint *compacts* instead: it writes a new base and empties the log,
//! so recovery never reads more than about two bases' worth of bytes.
//!
//! Commit protocols (FORMAT.md §Checkpointing): both fsync the WAL first;
//! a patch is appended to the patch log and fsynced, a base is written to
//! `snapshot.fgdb.tmp`, fsynced, renamed over `snapshot.fgdb`, the
//! directory fsynced, and the patch log re-created empty; only then is the
//! WAL truncated. A crash between any two steps is recoverable: a torn
//! patch is truncated like a torn WAL record, patches and WAL records at
//! or below the recovered checkpoint's sequence number are skipped, and a
//! missing or header-less patch log or WAL reads as empty.

use crate::format::{
    build_database, decode_assignment_changes, decode_binding, decode_chain_state, decode_changes,
    decode_delta, decode_raw_database, decode_relation_patch, decode_world,
    encode_assignment_changes, encode_binding, encode_chain_state, encode_changes, encode_database,
    encode_delta, encode_relation_patch, encode_world, relations_in_order, BindingRec,
    ChainStateRec, Dec, Enc, FormatError, NetChangeRec, RawRelation, RelationPatch,
};
use crate::io::{real_io, StoreIo};
use crate::wal::{
    self, check_header, write_header, FsyncPolicy, WalScan, WalWriter, KIND_PATCHES, KIND_SNAPSHOT,
};
use fgdb_graph::{VariableId, World};
use fgdb_relational::{Database, DeltaSet, Relation};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Base snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.fgdb";
/// Chunk-patch log file name inside a store directory.
pub const PATCH_FILE: &str = "snapshot.patches.fgdb";
/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.fgdb";

/// Record type byte: an interval commit (FORMAT.md §Interval record).
pub const REC_INTERVAL: u8 = 0x01;
/// Record type byte: a full snapshot (only in base snapshot files).
pub const REC_SNAPSHOT: u8 = 0x10;
/// Record type byte: a chunk patch (only in patch logs).
pub const REC_PATCH: u8 = 0x11;
/// Version byte of the interval record body.
pub const INTERVAL_VERSION: u8 = 1;
/// Version byte of the snapshot record body.
pub const SNAPSHOT_VERSION: u8 = 1;
/// Version byte of the chunk-patch record body.
pub const PATCH_VERSION: u8 = 1;

/// How large the patch log may grow, as a multiple of the base snapshot
/// file, before a checkpoint compacts: a patch that would take the log past
/// `PATCH_LOG_BASE_MULTIPLE × base bytes` is written as a new base instead.
/// A constant, not a knob: at 1, recovery reads at most about two bases'
/// worth of bytes, and the full-store encoder runs once per base's worth of
/// changed chunks.
pub const PATCH_LOG_BASE_MULTIPLE: u64 = 1;

/// Errors raised by the durability layer.
#[derive(Debug)]
pub enum DurabilityError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A record or file failed structural decoding.
    Format(FormatError),
    /// The persisted data is internally inconsistent (bad magic, sequence
    /// gap, replay divergence, …).
    Corrupt(String),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "i/o error: {e}"),
            DurabilityError::Format(e) => write!(f, "format error: {e}"),
            DurabilityError::Corrupt(m) => write!(f, "corrupt store: {m}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}
impl From<FormatError> for DurabilityError {
    fn from(e: FormatError) -> Self {
        DurabilityError::Format(e)
    }
}

/// Full persisted state at an interval boundary.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Interval sequence number this snapshot reflects (0 = initial state).
    pub seq: u64,
    /// The deterministic store (every relation, slot-exact).
    pub db: Database,
    /// The in-memory variable assignment and domains.
    pub world: World,
    /// Chain position: RNG state + counters.
    pub chain: ChainStateRec,
    /// Variable ↔ field binding.
    pub binding: BindingRec,
}

/// The state a checkpoint persists, borrowed from its owner: what
/// [`DurableStore::checkpoint`] reads, so a live database is checkpointed
/// without cloning its world or binding.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotRef<'a> {
    /// Interval sequence number the state reflects.
    pub seq: u64,
    /// The deterministic store.
    pub db: &'a Database,
    /// The variable assignment and domains.
    pub world: &'a World,
    /// Chain position.
    pub chain: &'a ChainStateRec,
    /// Variable ↔ field binding.
    pub binding: &'a BindingRec,
}

impl<'a> From<&'a Snapshot> for SnapshotRef<'a> {
    fn from(s: &'a Snapshot) -> Self {
        SnapshotRef {
            seq: s.seq,
            db: &s.db,
            world: &s.world,
            chain: &s.chain,
            binding: &s.binding,
        }
    }
}

/// One committed thinning interval, as logged to the WAL.
#[derive(Clone, Debug)]
pub struct IntervalRecord {
    /// Monotonic interval sequence number (snapshot seq + k for the k-th
    /// interval after the snapshot).
    pub seq: u64,
    /// Net variable changes `(variable, old index, new index)`, sorted by
    /// variable id — the replay script.
    pub changes: Vec<NetChangeRec>,
    /// The Δ⁻/Δ⁺ delta set those changes produced through the store — the
    /// paper's auxiliary tables, logged so replay can cross-check that it
    /// reproduced the exact same world transition.
    pub delta: DeltaSet,
    /// Chain position *after* the interval.
    pub chain: ChainStateRec,
}

/// Reads a record's type and version bytes, refusing anything but `ty` at
/// `version`.
fn expect_record(d: &mut Dec<'_>, ty: u8, version: u8, what: &str) -> Result<(), DurabilityError> {
    let found = d.u8()?;
    if found != ty {
        return Err(DurabilityError::Corrupt(format!(
            "unexpected {what} record type {found:#04x}"
        )));
    }
    let ver = d.u8()?;
    if ver != version {
        return Err(DurabilityError::Corrupt(format!(
            "unsupported {what} record version {ver}"
        )));
    }
    Ok(())
}

impl IntervalRecord {
    /// Encodes the record payload (type + version + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(REC_INTERVAL);
        e.u8(INTERVAL_VERSION);
        e.varint(self.seq);
        encode_changes(&mut e, &self.changes);
        encode_delta(&mut e, &self.delta);
        encode_chain_state(&mut e, &self.chain);
        e.into_bytes()
    }

    /// Decodes a record payload produced by [`IntervalRecord::encode`].
    pub fn decode(payload: &[u8]) -> Result<IntervalRecord, DurabilityError> {
        let mut d = Dec::new(payload);
        expect_record(&mut d, REC_INTERVAL, INTERVAL_VERSION, "WAL")?;
        let seq = d.varint()?;
        let changes = decode_changes(&mut d)?;
        let delta = decode_delta(&mut d)?;
        let chain = decode_chain_state(&mut d)?;
        d.finish()?;
        Ok(IntervalRecord {
            seq,
            changes,
            delta,
            chain,
        })
    }
}

/// Encodes a full snapshot record payload — the base format, and the only
/// place the whole store is encoded (store creation and compaction).
pub fn encode_snapshot<'a>(s: impl Into<SnapshotRef<'a>>) -> Vec<u8> {
    let s = s.into();
    let mut e = Enc::new();
    e.u8(REC_SNAPSHOT);
    e.u8(SNAPSHOT_VERSION);
    e.varint(s.seq);
    encode_database(&mut e, s.db);
    encode_world(&mut e, s.world);
    encode_chain_state(&mut e, s.chain);
    encode_binding(&mut e, s.binding);
    e.into_bytes()
}

/// A decoded base (plus any patches applied to it) whose relations are not
/// yet built: recovery edits this in place and builds once.
struct RawSnapshot {
    seq: u64,
    relations: Vec<RawRelation>,
    world: World,
    chain: ChainStateRec,
    binding: BindingRec,
}

impl RawSnapshot {
    fn decode(payload: &[u8]) -> Result<RawSnapshot, DurabilityError> {
        let mut d = Dec::new(payload);
        expect_record(&mut d, REC_SNAPSHOT, SNAPSHOT_VERSION, "snapshot")?;
        let seq = d.varint()?;
        let relations = decode_raw_database(&mut d)?;
        let world = decode_world(&mut d)?;
        let chain = decode_chain_state(&mut d)?;
        let binding = decode_binding(&mut d)?;
        d.finish()?;
        Ok(RawSnapshot {
            seq,
            relations,
            world,
            chain,
            binding,
        })
    }

    /// Applies one chunk patch: relation by relation, then the assignment
    /// changes, then the chain position.
    fn apply(&mut self, patch: Patch) -> Result<(), DurabilityError> {
        if patch.relations.len() != self.relations.len() {
            return Err(DurabilityError::Corrupt(format!(
                "patch {} covers {} relations, the state has {}",
                patch.seq,
                patch.relations.len(),
                self.relations.len()
            )));
        }
        for (rp, raw) in patch.relations.into_iter().zip(&mut self.relations) {
            rp.apply(raw)?;
        }
        for (v, idx) in patch.changes {
            let var = VariableId(v);
            let in_domain = var.index() < self.world.num_variables()
                && usize::from(idx) < self.world.cardinality(var);
            if !in_domain {
                return Err(DurabilityError::Corrupt(format!(
                    "patch {} sets variable {v} to index {idx} outside the world",
                    patch.seq
                )));
            }
            self.world.set(var, usize::from(idx));
        }
        self.seq = patch.seq;
        self.chain = patch.chain;
        Ok(())
    }

    fn build(self) -> Result<Snapshot, DurabilityError> {
        Ok(Snapshot {
            seq: self.seq,
            db: build_database(self.relations)?,
            world: self.world,
            chain: self.chain,
            binding: self.binding,
        })
    }
}

/// A decoded chunk patch (FORMAT.md §Chunk patch).
struct Patch {
    seq: u64,
    /// The checkpoint this patch was taken against.
    prev: u64,
    chain: ChainStateRec,
    relations: Vec<RelationPatch>,
    changes: Vec<(u32, u16)>,
}

impl Patch {
    fn decode(payload: &[u8]) -> Result<Patch, DurabilityError> {
        let mut d = Dec::new(payload);
        expect_record(&mut d, REC_PATCH, PATCH_VERSION, "patch")?;
        let seq = d.varint()?;
        let prev = d.varint()?;
        let chain = decode_chain_state(&mut d)?;
        let chunk_rows = d.varint_usize("Patch chunk size")?;
        if chunk_rows == 0 {
            return Err(FormatError::Invalid {
                what: "Patch",
                detail: "zero chunk size".into(),
            }
            .into());
        }
        let n = d.len_prefix("Patch relations", 1)?;
        let mut relations = Vec::with_capacity(n);
        for _ in 0..n {
            relations.push(decode_relation_patch(&mut d, chunk_rows)?);
        }
        let changes = decode_assignment_changes(&mut d)?;
        d.finish()?;
        Ok(Patch {
            seq,
            prev,
            chain,
            relations,
            changes,
        })
    }
}

/// Writes a snapshot file crash-safely: temp file → fsync → rename →
/// directory fsync.
pub fn write_snapshot(dir: &Path, snapshot: &Snapshot) -> Result<u64, DurabilityError> {
    write_snapshot_with(&*real_io(), dir, snapshot)
}

/// [`write_snapshot`] through an explicit [`StoreIo`] — the failpoint seam
/// for checkpoint faults. Returns the bytes the file holds.
pub fn write_snapshot_with<'a>(
    io: &dyn StoreIo,
    dir: &Path,
    snapshot: impl Into<SnapshotRef<'a>>,
) -> Result<u64, DurabilityError> {
    let payload = encode_snapshot(snapshot);
    // The frame length is a u32; a state too large for it must error here,
    // before anything is written — a silently wrapped length would produce
    // a corrupt snapshot that checkpoint() then trusts enough to truncate
    // the WAL.
    let frame_len = u32::try_from(payload.len()).map_err(|_| {
        DurabilityError::Corrupt(format!(
            "snapshot payload {} bytes exceeds the u32 frame limit",
            payload.len()
        ))
    })?;
    let mut bytes = Vec::with_capacity(payload.len() + 32);
    write_header(&mut bytes, KIND_SNAPSHOT);
    bytes.extend_from_slice(&frame_len.to_le_bytes());
    bytes.extend_from_slice(&crate::checksum::crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let target = dir.join(SNAPSHOT_FILE);
    {
        let mut f = io.create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    io.rename(&tmp, &target)?;
    // Persist the rename itself. Directory fsync is not available on every
    // platform; failures degrade durability of the *rename*, not
    // correctness, so they are tolerated.
    let _ = io.sync_dir(dir);
    Ok(bytes.len() as u64)
}

/// Reads and validates a base snapshot file, returning it decoded (its
/// relations not yet built) and the file's length.
fn read_base(io: &dyn StoreIo, dir: &Path) -> Result<(RawSnapshot, u64), DurabilityError> {
    let bytes = io.read(&dir.join(SNAPSHOT_FILE))?;
    check_header(&bytes, KIND_SNAPSHOT)?;
    let rest = bytes
        .get(wal::HEADER_LEN as usize..)
        .ok_or_else(|| DurabilityError::Corrupt("snapshot frame truncated".into()))?;
    let (len, crc) = match (wal::le_u32(rest, 0), wal::le_u32(rest, 4)) {
        (Some(len), Some(crc)) => (len as usize, crc),
        _ => return Err(DurabilityError::Corrupt("snapshot frame truncated".into())),
    };
    let body = rest
        .get(8..8 + len)
        .ok_or_else(|| DurabilityError::Corrupt("snapshot payload truncated".into()))?;
    // A snapshot file is exactly one frame; trailing bytes mean a partial
    // overwrite or concatenation and are rejected, mirroring the WAL
    // scanner's strictness.
    if rest.len() != 8 + len {
        return Err(DurabilityError::Corrupt(format!(
            "{} trailing bytes after snapshot frame",
            rest.len() - 8 - len
        )));
    }
    if crate::checksum::crc32(body) != crc {
        return Err(DurabilityError::Corrupt(
            "snapshot checksum mismatch".into(),
        ));
    }
    Ok((RawSnapshot::decode(body)?, bytes.len() as u64))
}

/// Reads and validates a base snapshot file (patches not applied).
pub fn read_snapshot(dir: &Path) -> Result<Snapshot, DurabilityError> {
    read_snapshot_with(&*real_io(), dir)
}

/// [`read_snapshot`] through an explicit [`StoreIo`].
pub fn read_snapshot_with(io: &dyn StoreIo, dir: &Path) -> Result<Snapshot, DurabilityError> {
    read_base(io, dir)?.0.build()
}

/// Durability configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// When to fsync the WAL (see [`FsyncPolicy`]); group commit is
    /// `EveryN`.
    pub fsync: FsyncPolicy,
}

impl Default for DurabilityConfig {
    /// Group commit every 8 intervals, overridable via `FGDB_FSYNC`.
    fn default() -> Self {
        DurabilityConfig {
            fsync: FsyncPolicy::from_env(FsyncPolicy::EveryN(8)),
        }
    }
}

/// What recovery found and did.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Sequence number of the recovered checkpoint: the base's, or the
    /// last applied patch's.
    pub snapshot_seq: u64,
    /// Sequence number of the base snapshot file.
    pub base_seq: u64,
    /// Chunk patches applied on top of the base.
    pub patches: u64,
    /// Stale patches skipped (at or below the base's sequence number: a
    /// compaction crashed before it emptied the patch log).
    pub stale_patches: u64,
    /// Bytes of torn tail truncated from the patch log.
    pub patch_truncated_bytes: u64,
    /// Interval records replayed from the WAL.
    pub replayed: u64,
    /// Bytes of torn tail truncated from the WAL (0 when the log was
    /// clean).
    pub truncated_bytes: u64,
    /// Human-readable description of a torn tail or re-created log, when
    /// one was found.
    pub torn: Option<String>,
}

/// Whether a checkpoint appended a chunk patch or wrote a new base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A chunk patch appended to the patch log.
    Patch,
    /// A full base snapshot (store creation or compaction); the patch log
    /// was emptied.
    Base,
}

/// What one checkpoint wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Sequence number the checkpoint reflects.
    pub seq: u64,
    /// Patch or base.
    pub kind: CheckpointKind,
    /// Slot chunks written: the chunks not shared with the previous
    /// checkpoint for a patch, every chunk for a base.
    pub chunks: usize,
    /// Variable assignments written: the changed ones for a patch, all of
    /// them for a base.
    pub variables: usize,
    /// Bytes written for the checkpoint record (patch frame, or base file).
    pub bytes: u64,
    /// Patch log length after the checkpoint, header included.
    pub patch_log_bytes: u64,
    /// Base snapshot file length after the checkpoint.
    pub base_bytes: u64,
}

/// The state as of the last durable checkpoint — what the next patch is
/// taken against. Structurally shared with the live store: it holds only
/// the chunks the live side has un-shared since.
struct Retained {
    seq: u64,
    db: Database,
    world: World,
    binding: BindingRec,
}

impl Retained {
    fn of(s: SnapshotRef<'_>) -> Retained {
        Retained {
            seq: s.seq,
            db: s.db.snapshot(),
            world: s.world.clone(),
            binding: s.binding.clone(),
        }
    }

    /// The chunk patch taking this state to `s`. `None` when `s` has a
    /// shape a patch cannot describe (relations, schemas, domains or the
    /// binding changed), which calls for a new base.
    fn patch_to(&self, s: SnapshotRef<'_>) -> Option<EncodedPatch> {
        let (live_w, old_w) = (s.world, &self.world);
        let same_domains = live_w.num_variables() == old_w.num_variables()
            && live_w
                .domains()
                .iter()
                .zip(old_w.domains())
                .all(|(a, b)| Arc::ptr_eq(a, b));
        let (live, old) = (relations_in_order(s.db), relations_in_order(&self.db));
        let same_relations = live.len() == old.len()
            && live
                .iter()
                .zip(&old)
                .all(|(a, b)| a.name() == b.name() && a.schema() == b.schema());
        if !same_domains || !same_relations || s.binding != &self.binding {
            return None;
        }
        let changes = live_w
            .assignment()
            .iter()
            .zip(old_w.assignment())
            .enumerate()
            .filter(|(_, (now, then))| now != then)
            .map(|(v, (&now, _))| u32::try_from(v).map(|v| (v, now)))
            .collect::<Result<Vec<_>, _>>()
            .ok()?;
        let mut e = Enc::new();
        e.u8(REC_PATCH);
        e.u8(PATCH_VERSION);
        e.varint(s.seq);
        e.varint(self.seq);
        encode_chain_state(&mut e, s.chain);
        e.varint(Relation::CHUNK_ROWS as u64);
        e.varint(live.len() as u64);
        let mut chunks = 0;
        for (now, then) in live.iter().zip(&old) {
            let dirty: Vec<usize> = now.chunks_not_shared_with(then).collect();
            chunks += dirty.len();
            encode_relation_patch(&mut e, now, &dirty);
        }
        encode_assignment_changes(&mut e, &changes);
        Some(EncodedPatch {
            payload: e.into_bytes(),
            chunks,
            changes,
        })
    }
}

/// A chunk patch ready to append.
struct EncodedPatch {
    /// The record payload.
    payload: Vec<u8>,
    /// Slot chunks it carries.
    chunks: usize,
    /// The assignment changes it carries, `(variable, new index)`.
    changes: Vec<(u32, u16)>,
}

/// Bytes a framed record adds beyond its payload (length + CRC).
const FRAME_OVERHEAD: u64 = 8;

/// The durable store handle: owns the directory, the open WAL and patch
/// log, and the state of the last checkpoint.
pub struct DurableStore {
    dir: PathBuf,
    wal: WalWriter,
    patches: WalWriter,
    config: DurabilityConfig,
    next_seq: u64,
    io: Arc<dyn StoreIo>,
    retained: Retained,
    base_bytes: u64,
    last_checkpoint: Option<CheckpointReport>,
    /// Set while a checkpoint is between its first write and its last: a
    /// checkpoint that failed there may have left the WAL re-created under
    /// the open writer, so the store refuses appends until recovery.
    poisoned: bool,
}

impl DurableStore {
    /// Initializes a store directory with `snapshot` as the initial base,
    /// an empty patch log and an empty WAL. Creates the directory if
    /// needed; refuses to overwrite an existing store.
    pub fn create(
        dir: &Path,
        snapshot: &Snapshot,
        config: DurabilityConfig,
    ) -> Result<DurableStore, DurabilityError> {
        Self::create_with_io(real_io(), dir, snapshot, config)
    }

    /// [`DurableStore::create`] through an explicit [`StoreIo`]; the store
    /// keeps the handle and routes every later write, sync, and rename
    /// (appends, checkpoints) through it.
    pub fn create_with_io(
        io: Arc<dyn StoreIo>,
        dir: &Path,
        snapshot: &Snapshot,
        config: DurabilityConfig,
    ) -> Result<DurableStore, DurabilityError> {
        io.create_dir_all(dir)?;
        if [SNAPSHOT_FILE, PATCH_FILE, WAL_FILE]
            .iter()
            .any(|f| io.exists(&dir.join(f)))
        {
            return Err(DurabilityError::Corrupt(format!(
                "store already exists at {}",
                dir.display()
            )));
        }
        let base_bytes = write_snapshot_with(&*io, dir, snapshot)?;
        let patches = create_patch_log(&*io, dir)?;
        let wal = WalWriter::create_with(&*io, &dir.join(WAL_FILE), config.fsync)?;
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            wal,
            patches,
            config,
            next_seq: snapshot.seq + 1,
            io,
            retained: Retained::of(snapshot.into()),
            base_bytes,
            last_checkpoint: None,
            poisoned: false,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The I/O layer this store routes through.
    pub fn io(&self) -> &Arc<dyn StoreIo> {
        &self.io
    }

    /// The durability configuration the store was opened with.
    pub fn config(&self) -> DurabilityConfig {
        self.config
    }

    /// The sequence number the next interval record must carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// What the most recent checkpoint through this handle wrote.
    pub fn last_checkpoint(&self) -> Option<&CheckpointReport> {
        self.last_checkpoint.as_ref()
    }

    fn check_not_poisoned(&self) -> Result<(), DurabilityError> {
        if self.poisoned {
            return Err(DurabilityError::Corrupt(
                "store poisoned by a failed checkpoint; reopen it through recovery".into(),
            ));
        }
        Ok(())
    }

    /// Appends and commits one interval record. Sequence numbers must be
    /// dense: `rec.seq == self.next_seq()`.
    pub fn append_interval(&mut self, rec: &IntervalRecord) -> Result<(), DurabilityError> {
        self.check_not_poisoned()?;
        if rec.seq != self.next_seq {
            return Err(DurabilityError::Corrupt(format!(
                "interval seq {} but WAL expects {}",
                rec.seq, self.next_seq
            )));
        }
        self.wal.append(&rec.encode())?;
        self.wal.commit()?;
        self.next_seq += 1;
        Ok(())
    }

    /// Forces everything appended so far onto stable storage.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.wal.sync()
    }

    /// Checkpoints `state` (which must reflect sequence
    /// `self.next_seq() - 1`) and truncates the WAL. Appends a chunk patch
    /// against the previous checkpoint when one fits under
    /// [`PATCH_LOG_BASE_MULTIPLE`], and compacts into a new base otherwise
    /// (see the module docs); [`Self::last_checkpoint`] says which.
    ///
    /// A failure after the first write poisons the store: the files are
    /// recoverable, but the handle refuses appends until
    /// [`DurableStore::recover`] reopens them.
    pub fn checkpoint<'a>(
        &mut self,
        state: impl Into<SnapshotRef<'a>>,
    ) -> Result<(), DurabilityError> {
        let state = state.into();
        self.begin_checkpoint(state)?;
        // Patches are keyed by sequence number, so a second checkpoint at
        // the previous one's (nothing logged in between) is a base too.
        let patch = (state.seq > self.retained.seq)
            .then(|| self.retained.patch_to(state))
            .flatten()
            .filter(|p| {
                self.patches.len() + FRAME_OVERHEAD + p.payload.len() as u64
                    <= self.base_bytes.saturating_mul(PATCH_LOG_BASE_MULTIPLE)
            });
        let report = match patch {
            Some(EncodedPatch {
                payload,
                chunks,
                changes,
            }) => {
                // Step 2: the patch is durable before the WAL it replaces
                // is touched.
                self.patches.append(&payload)?;
                self.patches.sync()?;
                self.retained.seq = state.seq;
                self.retained.db = state.db.snapshot();
                for &(v, idx) in &changes {
                    self.retained.world.set(VariableId(v), usize::from(idx));
                }
                CheckpointReport {
                    seq: state.seq,
                    kind: CheckpointKind::Patch,
                    chunks,
                    variables: changes.len(),
                    bytes: FRAME_OVERHEAD + payload.len() as u64,
                    patch_log_bytes: self.patches.len(),
                    base_bytes: self.base_bytes,
                }
            }
            None => self.write_base(state)?,
        };
        self.finish_checkpoint(report)
    }

    /// Checkpoints `state` as a new base regardless of the patch log's
    /// size: the compaction [`Self::checkpoint`] falls back to, on demand.
    pub fn compact<'a>(
        &mut self,
        state: impl Into<SnapshotRef<'a>>,
    ) -> Result<(), DurabilityError> {
        let state = state.into();
        self.begin_checkpoint(state)?;
        let report = self.write_base(state)?;
        self.finish_checkpoint(report)
    }

    /// Step 1 of either protocol: every interval the checkpoint embodies is
    /// on disk before anything replaces it (otherwise a crash in between
    /// could lose acknowledged intervals). Poisons until
    /// [`Self::finish_checkpoint`].
    fn begin_checkpoint(&mut self, state: SnapshotRef<'_>) -> Result<(), DurabilityError> {
        if state.seq + 1 != self.next_seq {
            return Err(DurabilityError::Corrupt(format!(
                "checkpoint at seq {} but WAL is at {}",
                state.seq, self.next_seq
            )));
        }
        self.check_not_poisoned()?;
        self.poisoned = true;
        self.wal.sync()
    }

    /// Compaction, steps 2–3: the base goes through tmp → fsync → rename →
    /// directory fsync, then the patch log is re-created empty (patches it
    /// held are at or below the new base's sequence number, so a crash in
    /// between leaves them stale, never wrong).
    fn write_base(&mut self, state: SnapshotRef<'_>) -> Result<CheckpointReport, DurabilityError> {
        let bytes = write_snapshot_with(&*self.io, &self.dir, state)?;
        self.base_bytes = bytes;
        self.patches = create_patch_log(&*self.io, &self.dir)?;
        self.retained = Retained::of(state);
        Ok(CheckpointReport {
            seq: state.seq,
            kind: CheckpointKind::Base,
            chunks: relations_in_order(state.db)
                .iter()
                .map(|r| r.chunk_count())
                .sum(),
            variables: state.world.num_variables(),
            bytes,
            patch_log_bytes: self.patches.len(),
            base_bytes: bytes,
        })
    }

    /// The last step of either protocol: truncate the WAL. Its records are
    /// at or below the checkpoint's sequence number now and replay skips
    /// them, so this is an optimization, not a correctness step — safe to
    /// crash before, during, or after.
    fn finish_checkpoint(&mut self, report: CheckpointReport) -> Result<(), DurabilityError> {
        self.wal = WalWriter::create_with(&*self.io, &self.dir.join(WAL_FILE), self.config.fsync)?;
        self.poisoned = false;
        self.last_checkpoint = Some(report);
        Ok(())
    }

    /// Opens an existing store: reads the base, applies the patch log,
    /// scans the WAL, truncates any torn tail of either log, and returns
    /// the recovered checkpoint state, the interval records to replay
    /// (those above its sequence number, gap-checked), the reopened store
    /// handle, and a report of what was found. A store written before
    /// patch logs existed opens as one with zero patches.
    pub fn recover(
        dir: &Path,
        config: DurabilityConfig,
    ) -> Result<(Snapshot, Vec<IntervalRecord>, DurableStore, RecoveryReport), DurabilityError>
    {
        Self::recover_with_io(real_io(), dir, config)
    }

    /// [`DurableStore::recover`] through an explicit [`StoreIo`]. Recovery
    /// after an injected crash must come through a *fresh* I/O handle (a
    /// crashed [`crate::io::FaultyIo`] stays dead, like the process it
    /// models).
    pub fn recover_with_io(
        io: Arc<dyn StoreIo>,
        dir: &Path,
        config: DurabilityConfig,
    ) -> Result<(Snapshot, Vec<IntervalRecord>, DurableStore, RecoveryReport), DurabilityError>
    {
        let (mut state, base_bytes) = read_base(&*io, dir)?;
        let mut report = RecoveryReport {
            base_seq: state.seq,
            ..RecoveryReport::default()
        };

        // Patches: stale ones (a compaction crashed before emptying the
        // log) are skipped, the rest must chain from the base in order.
        let patch_path = dir.join(PATCH_FILE);
        let patch_log = scan_log(&*io, &patch_path, KIND_PATCHES)?;
        for payload in &patch_log.scan.records {
            let patch = Patch::decode(payload)?;
            if patch.seq <= report.base_seq {
                report.stale_patches += 1;
                continue;
            }
            if patch.seq <= state.seq {
                return Err(DurabilityError::Corrupt(format!(
                    "patch sequence regression: patch {} after checkpoint {}",
                    patch.seq, state.seq
                )));
            }
            if patch.prev != state.seq {
                return Err(DurabilityError::Corrupt(format!(
                    "patch {} was taken against checkpoint {}, but recovery is at {}",
                    patch.seq, patch.prev, state.seq
                )));
            }
            state.apply(patch)?;
            report.patches += 1;
        }
        report.patch_truncated_bytes = patch_log.truncated_bytes();
        let snapshot = state.build()?;
        report.snapshot_seq = snapshot.seq;

        // A crash while a checkpoint (or `create`) was re-creating the WAL
        // can leave it missing or shorter than the 11-byte header. The
        // checkpoint alone fully describes the state at that point, so a
        // header-less WAL recovers as "zero records" and is re-created —
        // erroring here would make the store unrecoverable over a file that
        // carries no information. A *full-length* header that fails
        // validation (foreign magic/kind, unknown version) is still a hard
        // error: that file holds something, just not ours. The patch log
        // follows the same rule.
        let wal_path = dir.join(WAL_FILE);
        let wal_log = scan_log(&*io, &wal_path, wal::KIND_WAL)?;
        report.truncated_bytes = wal_log.truncated_bytes();
        report.torn = wal_log.describe().or_else(|| {
            let torn = patch_log.scan.torn.as_ref();
            torn.map(|t| format!("patch log: {t}"))
        });
        let mut records = Vec::new();
        let mut expect = snapshot.seq + 1;
        for payload in &wal_log.scan.records {
            let rec = IntervalRecord::decode(payload)?;
            if rec.seq <= snapshot.seq {
                // Pre-checkpoint record in a WAL the checkpoint did not get
                // to truncate — already folded into the checkpoint.
                continue;
            }
            if rec.seq != expect {
                return Err(DurabilityError::Corrupt(format!(
                    "WAL sequence gap: found {}, expected {}",
                    rec.seq, expect
                )));
            }
            expect += 1;
            records.push(rec);
        }
        report.replayed = records.len() as u64;

        let patches = if patch_log.missing() {
            create_patch_log(&*io, dir)?
        } else {
            let torn = patch_log.truncated_bytes() > 0;
            WalWriter::reopen(
                &*io,
                &patch_path,
                patch_log.scan.valid_len,
                torn,
                FsyncPolicy::Never,
            )?
        };
        let wal = if wal_log.missing() {
            WalWriter::create_with(&*io, &wal_path, config.fsync)?
        } else {
            WalWriter::open_at_with(&*io, &wal_path, wal_log.scan.valid_len, config.fsync)?
        };
        let store = DurableStore {
            dir: dir.to_path_buf(),
            wal,
            patches,
            config,
            next_seq: expect,
            io,
            retained: Retained::of((&snapshot).into()),
            base_bytes,
            last_checkpoint: None,
            poisoned: false,
        };
        Ok((snapshot, records, store, report))
    }
}

/// Creates (truncating) an empty patch log. Patches are synced explicitly,
/// so the writer's own fsync policy is `Never`.
fn create_patch_log(io: &dyn StoreIo, dir: &Path) -> Result<WalWriter, DurabilityError> {
    WalWriter::create_kind(io, &dir.join(PATCH_FILE), KIND_PATCHES, FsyncPolicy::Never)
}

/// A framed log as recovery found it.
struct LogScan {
    scan: WalScan,
    /// File length before truncation (0 when missing).
    file_len: u64,
}

impl LogScan {
    /// Missing or shorter than the header: reads as empty, re-created.
    fn missing(&self) -> bool {
        self.file_len < wal::HEADER_LEN
    }

    fn truncated_bytes(&self) -> u64 {
        if self.missing() {
            0
        } else {
            self.file_len.saturating_sub(self.scan.valid_len)
        }
    }

    /// The WAL's torn tail, or its re-creation, as a report line.
    fn describe(&self) -> Option<String> {
        match &self.scan.torn {
            Some(t) => Some(t.to_string()),
            None => self
                .missing()
                .then(|| "WAL missing or header-less; re-created".into()),
        }
    }
}

/// Scans the framed log at `path` of file kind `kind`; a missing or
/// header-less file scans as empty.
fn scan_log(io: &dyn StoreIo, path: &Path, kind: u8) -> Result<LogScan, DurabilityError> {
    let file_len = io.file_len(path).unwrap_or(0);
    let scan = if file_len < wal::HEADER_LEN {
        WalScan {
            records: Vec::new(),
            valid_len: wal::HEADER_LEN,
            torn: None,
        }
    } else {
        wal::scan_kind(io, path, kind)?
    };
    Ok(LogScan { scan, file_len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use fgdb_graph::Domain;
    use fgdb_relational::{tuple, Schema, ValueType};
    use std::sync::Arc;

    fn tiny_snapshot(seq: u64) -> Snapshot {
        snapshot_of_rows(seq, 3)
    }

    /// Relation `T(id, state)` of `n` rows, one variable over {a, b} per
    /// row bound to its `state`.
    fn snapshot_of_rows(seq: u64, n: usize) -> Snapshot {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[("id", ValueType::Int), ("state", ValueType::Str)])
            .unwrap()
            .with_primary_key("id")
            .unwrap();
        db.create_relation("T", schema).unwrap();
        let mut rows = Vec::new();
        for i in 0..n as i64 {
            rows.push(
                db.relation_mut("T")
                    .unwrap()
                    .insert(tuple![i, "a"])
                    .unwrap(),
            );
        }
        let d = Domain::of_labels(&["a", "b"]);
        let world = World::new(vec![d; n]);
        Snapshot {
            seq,
            db,
            world,
            chain: ChainStateRec {
                steps_taken: seq * 10,
                rng: [3u8; 32],
                proposals: seq * 10,
                accepted: 4,
                factors_evaluated: 8,
                neighborhood_scores: 20,
            },
            binding: BindingRec {
                relation: Arc::from("T"),
                column: 1,
                rows: rows.iter().map(|r| r.0).collect(),
            },
        }
    }

    fn interval(seq: u64) -> IntervalRecord {
        let mut delta = DeltaSet::new();
        let rel: Arc<str> = Arc::from("T");
        delta.record_update(&rel, tuple![0i64, "a"], tuple![0i64, "b"]);
        IntervalRecord {
            seq,
            changes: vec![(0, 0, 1)],
            delta,
            chain: ChainStateRec {
                steps_taken: seq * 10,
                rng: [seq as u8; 32],
                proposals: seq * 10,
                accepted: seq,
                factors_evaluated: seq * 2,
                neighborhood_scores: seq * 4,
            },
        }
    }

    #[test]
    fn snapshot_file_round_trips() {
        let dir = test_dir("store_snapshot");
        let snap = tiny_snapshot(7);
        write_snapshot(&dir, &snap).unwrap();
        let back = read_snapshot(&dir).unwrap();
        assert_eq!(back.seq, 7);
        assert_eq!(back.chain, snap.chain);
        assert_eq!(back.binding, snap.binding);
        assert_eq!(back.world.assignment(), snap.world.assignment());
        assert_eq!(back.db.relation("T").unwrap().len(), 3);
        // Re-encoding the decoded snapshot is byte-identical (canonical).
        assert_eq!(encode_snapshot(&back), encode_snapshot(&snap));
    }

    #[test]
    fn snapshot_corruption_is_detected() {
        let dir = test_dir("store_snapshot_corrupt");
        write_snapshot(&dir, &tiny_snapshot(1)).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&dir),
            Err(DurabilityError::Corrupt(_)) | Err(DurabilityError::Format(_))
        ));
    }

    #[test]
    fn create_append_recover_cycle() {
        let dir = test_dir("store_cycle");
        let snap = tiny_snapshot(0);
        let mut store = DurableStore::create(
            &dir,
            &snap,
            DurabilityConfig {
                fsync: FsyncPolicy::Always,
            },
        )
        .unwrap();
        assert_eq!(store.next_seq(), 1);
        store.append_interval(&interval(1)).unwrap();
        store.append_interval(&interval(2)).unwrap();
        // Out-of-order sequence is rejected.
        assert!(store.append_interval(&interval(9)).is_err());
        drop(store);

        let (back, records, store, report) =
            DurableStore::recover(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(back.seq, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[1].seq, 2);
        assert_eq!(records[1].chain.rng, [2u8; 32]);
        assert_eq!(
            records[0].delta.added("T").sorted_support(),
            vec![tuple![0i64, "b"]]
        );
        assert_eq!(store.next_seq(), 3);
        assert_eq!(report.replayed, 2);
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.torn.is_none());
    }

    #[test]
    fn recovery_tolerates_missing_or_headerless_wal() {
        // The crash window while a checkpoint re-creates the WAL: the file
        // may be gone or shorter than its header. A valid snapshot fully
        // describes the state, so recovery must treat that as an empty log
        // and re-create it — not hard-fail.
        for shape in ["missing", "empty", "partial-header"] {
            let dir = test_dir("store_headerless");
            let mut store = DurableStore::create(
                &dir,
                &tiny_snapshot(0),
                DurabilityConfig {
                    fsync: FsyncPolicy::Never,
                },
            )
            .unwrap();
            store.append_interval(&interval(1)).unwrap();
            store.checkpoint(&tiny_snapshot(1)).unwrap();
            drop(store);
            let wal_path = dir.join(WAL_FILE);
            match shape {
                "missing" => std::fs::remove_file(&wal_path).unwrap(),
                "empty" => std::fs::write(&wal_path, b"").unwrap(),
                _ => std::fs::write(&wal_path, b"FGDB").unwrap(),
            }

            let (snap, records, mut store, report) =
                DurableStore::recover(&dir, DurabilityConfig::default()).unwrap();
            assert_eq!(snap.seq, 1, "{shape}");
            assert!(records.is_empty(), "{shape}");
            assert_eq!(report.replayed, 0, "{shape}");
            assert!(report.torn.is_some(), "{shape}: report mentions re-create");
            // The store works again end-to-end.
            assert_eq!(store.next_seq(), 2, "{shape}");
            store.append_interval(&interval(2)).unwrap();
            store.sync().unwrap();
            drop(store);
            let (_, records, _, _) =
                DurableStore::recover(&dir, DurabilityConfig::default()).unwrap();
            assert_eq!(records.len(), 1, "{shape}");
        }

        // A full-length foreign file at the WAL path is still a hard
        // error: it holds *something*, just not ours.
        let dir = test_dir("store_foreign_wal");
        DurableStore::create(
            &dir,
            &tiny_snapshot(0),
            DurabilityConfig {
                fsync: FsyncPolicy::Never,
            },
        )
        .unwrap();
        std::fs::write(dir.join(WAL_FILE), b"PNG\x89 definitely not a WAL").unwrap();
        assert!(DurableStore::recover(&dir, DurabilityConfig::default()).is_err());
    }

    #[test]
    fn recovery_truncates_torn_tail() {
        let dir = test_dir("store_torn");
        let mut store = DurableStore::create(
            &dir,
            &tiny_snapshot(0),
            DurabilityConfig {
                fsync: FsyncPolicy::Always,
            },
        )
        .unwrap();
        store.append_interval(&interval(1)).unwrap();
        drop(store);

        // Simulate a crash mid-append of interval 2: the frame is written
        // only half-way.
        let full = interval(2).encode();
        let mut torn_frame = Vec::new();
        torn_frame.extend_from_slice(&(full.len() as u32).to_le_bytes());
        torn_frame.extend_from_slice(&crate::checksum::crc32(&full).to_le_bytes());
        torn_frame.extend_from_slice(&full[..full.len() / 2]);
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes.extend_from_slice(&torn_frame);
        std::fs::write(&wal_path, &bytes).unwrap();

        let (_, records, mut store, report) =
            DurableStore::recover(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(records.len(), 1, "torn interval 2 discarded");
        assert!(report.torn.is_some());
        assert!(report.truncated_bytes > 0);
        assert_eq!(store.next_seq(), 2);
        // The store is usable again: interval 2 can be re-appended.
        store.append_interval(&interval(2)).unwrap();
        store.sync().unwrap();
        drop(store);
        let (_, records, _, report) =
            DurableStore::recover(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(records.len(), 2);
        assert!(report.torn.is_none());
    }

    #[test]
    fn checkpoint_truncates_and_skips_stale_records() {
        let dir = test_dir("store_checkpoint");
        let mut store = DurableStore::create(
            &dir,
            &tiny_snapshot(0),
            DurabilityConfig {
                fsync: FsyncPolicy::Never,
            },
        )
        .unwrap();
        store.append_interval(&interval(1)).unwrap();
        store.append_interval(&interval(2)).unwrap();
        // Mismatched checkpoint seq is rejected.
        assert!(store.checkpoint(&tiny_snapshot(9)).is_err());
        store.checkpoint(&tiny_snapshot(2)).unwrap();
        store.append_interval(&interval(3)).unwrap();
        store.sync().unwrap();
        drop(store);

        let (snap, records, _, _) =
            DurableStore::recover(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(snap.seq, 2);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 3);

        // A crash *before* the WAL truncation leaves stale records; replay
        // must skip them. Simulate by writing records 1..=3 into a fresh
        // WAL next to a seq-2 snapshot.
        let dir2 = test_dir("store_checkpoint_stale");
        let mut store = DurableStore::create(
            &dir2,
            &tiny_snapshot(0),
            DurabilityConfig {
                fsync: FsyncPolicy::Never,
            },
        )
        .unwrap();
        store.append_interval(&interval(1)).unwrap();
        store.append_interval(&interval(2)).unwrap();
        store.append_interval(&interval(3)).unwrap();
        store.sync().unwrap();
        drop(store);
        write_snapshot(&dir2, &tiny_snapshot(2)).unwrap();
        let (snap, records, _, report) =
            DurableStore::recover(&dir2, DurabilityConfig::default()).unwrap();
        assert_eq!(snap.seq, 2);
        assert_eq!(records.len(), 1, "records 1 and 2 skipped as stale");
        assert_eq!(records[0].seq, 3);
        assert_eq!(report.replayed, 1);
    }

    #[test]
    fn sequence_gap_is_corruption() {
        let dir = test_dir("store_gap");
        let mut store = DurableStore::create(
            &dir,
            &tiny_snapshot(0),
            DurabilityConfig {
                fsync: FsyncPolicy::Never,
            },
        )
        .unwrap();
        // Force a gap by encoding seq 1 then seq 3 through the raw WAL.
        store.append_interval(&interval(1)).unwrap();
        store.wal.append(&interval(3).encode()).unwrap();
        store.wal.commit().unwrap();
        store.sync().unwrap();
        drop(store);
        assert!(matches!(
            DurableStore::recover(&dir, DurabilityConfig::default()),
            Err(DurabilityError::Corrupt(m)) if m.contains("sequence gap")
        ));
    }

    #[test]
    fn create_refuses_to_clobber() {
        let dir = test_dir("store_clobber");
        let snap = tiny_snapshot(0);
        DurableStore::create(&dir, &snap, DurabilityConfig::default()).unwrap();
        assert!(DurableStore::create(&dir, &snap, DurabilityConfig::default()).is_err());
    }

    #[test]
    fn injected_fsync_failure_poisons_until_recovery() {
        use crate::io::{FaultKind, FaultSchedule, FaultyIo};

        let dir = test_dir("store_faulty_fsync");
        let fio = FaultyIo::new(FaultSchedule::none());
        let io: Arc<dyn StoreIo> = Arc::new(fio.clone());
        let mut store = DurableStore::create_with_io(
            Arc::clone(&io),
            &dir,
            &tiny_snapshot(0),
            DurabilityConfig {
                fsync: FsyncPolicy::Always,
            },
        )
        .unwrap();
        store.append_interval(&interval(1)).unwrap();

        // The fsync of interval 2 fails: the bytes are in the file, the
        // acknowledgement is not given, and the writer poisons itself so a
        // blind retry cannot append a duplicate sequence number.
        fio.inject_now(FaultKind::SyncErr);
        assert!(store.append_interval(&interval(2)).is_err());
        assert!(matches!(
            store.append_interval(&interval(2)),
            Err(DurabilityError::Corrupt(m)) if m.contains("poisoned")
        ));
        drop(store);

        // Recovery finds both intervals (the write preceded the failed
        // fsync) and the store resumes at seq 3.
        let (_, records, mut store, _) =
            DurableStore::recover_with_io(io, &dir, DurabilityConfig::default()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(store.next_seq(), 3);
        store.append_interval(&interval(3)).unwrap();
    }

    #[test]
    fn injected_torn_write_recovers_to_the_acknowledged_prefix() {
        use crate::io::{FaultKind, FaultPoint, FaultSchedule, FaultyIo};

        let dir = test_dir("store_faulty_torn");
        // `create` writes the snapshot tmp file (#1), the patch log header
        // (#2) and the WAL header (#3) — not WAL records, but every write
        // counts; interval commits are one write each, so write #5 is
        // interval 2.
        let fio = FaultyIo::new(FaultSchedule::new(vec![FaultPoint {
            at: 5,
            kind: FaultKind::ShortWrite,
        }]));
        let io: Arc<dyn StoreIo> = Arc::new(fio.clone());
        let mut store = DurableStore::create_with_io(
            Arc::clone(&io),
            &dir,
            &tiny_snapshot(0),
            DurabilityConfig {
                fsync: FsyncPolicy::Always,
            },
        )
        .unwrap();
        store.append_interval(&interval(1)).unwrap();
        let err = store.append_interval(&interval(2)).unwrap_err();
        assert!(matches!(err, DurabilityError::Io(_)), "torn write surfaces");
        drop(store);

        // The torn half-frame is truncated; interval 1 (acknowledged)
        // survives; interval 2 (never acknowledged) is gone and can be
        // re-appended.
        let (_, records, mut store, report) =
            DurableStore::recover_with_io(io, &dir, DurabilityConfig::default()).unwrap();
        assert_eq!(records.len(), 1);
        assert!(report.torn.is_some());
        assert!(report.truncated_bytes > 0);
        assert_eq!(store.next_seq(), 2);
        store.append_interval(&interval(2)).unwrap();
    }

    #[test]
    fn injected_crash_recovers_through_a_fresh_handle() {
        use crate::io::{FaultKind, FaultSchedule, FaultyIo};

        let dir = test_dir("store_faulty_crash");
        let fio = FaultyIo::new(FaultSchedule::none());
        let io: Arc<dyn StoreIo> = Arc::new(fio.clone());
        let mut store = DurableStore::create_with_io(
            Arc::clone(&io),
            &dir,
            &tiny_snapshot(0),
            DurabilityConfig {
                fsync: FsyncPolicy::Always,
            },
        )
        .unwrap();
        store.append_interval(&interval(1)).unwrap();
        fio.inject_now(FaultKind::Crash {
            partial_write: true,
        });
        assert!(store.append_interval(&interval(2)).is_err());
        // The crashed handle is dead — even recovery fails through it.
        drop(store);
        assert!(DurableStore::recover_with_io(io, &dir, DurabilityConfig::default()).is_err());

        // A fresh handle (the restarted process) recovers the acknowledged
        // prefix and truncates the torn tail the crash left.
        let (_, records, store, report) =
            DurableStore::recover(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(records.len(), 1);
        assert!(report.truncated_bytes > 0, "torn half-frame truncated");
        assert_eq!(store.next_seq(), 2);
    }

    /// Flips variable `row` of `s` and writes the new label through to its
    /// row, as a sampler's interval would.
    fn flip(s: &mut Snapshot, row: usize) {
        let v = VariableId(row as u32);
        let label = 1 - s.world.get(v);
        s.world.set(v, label);
        let value = s.world.value(v).clone();
        let rid = fgdb_relational::RowId(s.binding.rows[row]);
        s.db.relation_mut("T")
            .unwrap()
            .update_field(rid, 1, value)
            .unwrap();
    }

    fn never() -> DurabilityConfig {
        DurabilityConfig {
            fsync: FsyncPolicy::Never,
        }
    }

    /// Advances `live` to `seq` through the WAL: one logged interval and
    /// one flipped row.
    fn advance(store: &mut DurableStore, live: &mut Snapshot, seq: u64, row: usize) {
        store.append_interval(&interval(seq)).unwrap();
        flip(live, row);
        live.seq = seq;
        live.chain.steps_taken = seq * 10;
    }

    #[test]
    fn checkpoints_patch_the_changed_chunks_and_compact_past_the_base() {
        let dir = test_dir("store_patches");
        let mut live = snapshot_of_rows(0, 300); // five chunks
        let mut store = DurableStore::create(&dir, &live, never()).unwrap();
        let mut kinds = Vec::new();
        for seq in 1..=24u64 {
            advance(&mut store, &mut live, seq, (seq as usize * 67) % 300);
            store.checkpoint(&live).unwrap();
            let report = *store.last_checkpoint().unwrap();
            assert_eq!(report.seq, seq);
            match report.kind {
                CheckpointKind::Patch => {
                    assert_eq!((report.chunks, report.variables), (1, 1));
                    assert!(report.patch_log_bytes <= report.base_bytes);
                }
                CheckpointKind::Base => {
                    assert_eq!((report.chunks, report.variables), (5, 300));
                    assert_eq!(report.patch_log_bytes, wal::HEADER_LEN);
                }
            }
            kinds.push(report.kind);
            // Recovery rebuilds the live state byte for byte, with nothing
            // left to replay.
            let (back, records, _, rec) = DurableStore::recover(&dir, never()).unwrap();
            assert!(records.is_empty());
            assert_eq!(rec.snapshot_seq, seq);
            assert!(rec.torn.is_none());
            assert_eq!(encode_snapshot(&back), encode_snapshot(&live), "seq {seq}");
        }
        let patches = kinds
            .iter()
            .filter(|k| **k == CheckpointKind::Patch)
            .count();
        assert!(patches >= 12, "{kinds:?}");
        assert!(kinds.contains(&CheckpointKind::Base), "{kinds:?}");
        // A patch is a chunk, not the store.
        assert!(
            fs_len(&dir, PATCH_FILE) < fs_len(&dir, SNAPSHOT_FILE) * 2,
            "the log never outgrows the base"
        );
    }

    fn fs_len(dir: &Path, file: &str) -> u64 {
        std::fs::metadata(dir.join(file)).unwrap().len()
    }

    #[test]
    fn a_state_a_patch_cannot_describe_becomes_a_base() {
        let dir = test_dir("store_reshape");
        let mut live = snapshot_of_rows(0, 10);
        let mut store = DurableStore::create(&dir, &live, never()).unwrap();
        advance(&mut store, &mut live, 1, 3);
        let schema = Schema::from_pairs(&[("k", ValueType::Int)]).unwrap();
        live.db.create_relation("U", schema).unwrap();
        store.checkpoint(&live).unwrap();
        assert_eq!(store.last_checkpoint().unwrap().kind, CheckpointKind::Base);
        advance(&mut store, &mut live, 2, 4);
        live.binding.column = 0;
        store.checkpoint(&live).unwrap();
        assert_eq!(store.last_checkpoint().unwrap().kind, CheckpointKind::Base);
        let (back, _, _, _) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!(encode_snapshot(&back), encode_snapshot(&live));
    }

    /// The frames of a patch log, as byte ranges.
    fn frames(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::new();
        let mut at = wal::HEADER_LEN as usize;
        while at < bytes.len() {
            let len = wal::le_u32(bytes, at).unwrap() as usize;
            out.push(at..at + 8 + len);
            at += 8 + len;
        }
        out
    }

    #[test]
    fn stale_patches_are_skipped_and_a_broken_chain_is_corruption() {
        let dir = test_dir("store_stale");
        let mut live = snapshot_of_rows(0, 200);
        let mut store = DurableStore::create(&dir, &live, never()).unwrap();
        for seq in 1..=2u64 {
            advance(&mut store, &mut live, seq, seq as usize * 70);
            store.checkpoint(&live).unwrap();
        }
        let log = std::fs::read(dir.join(PATCH_FILE)).unwrap();
        assert_eq!(frames(&log).len(), 2);

        // A compaction that crashed after its rename but before emptying
        // the log leaves patches at or below the new base: skipped.
        advance(&mut store, &mut live, 3, 150);
        store.compact(&live).unwrap();
        drop(store);
        std::fs::write(dir.join(PATCH_FILE), &log).unwrap();
        let (back, records, mut store, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!((rec.base_seq, rec.stale_patches, rec.patches), (3, 2, 0));
        assert!(records.is_empty());
        assert_eq!(encode_snapshot(&back), encode_snapshot(&live));
        // Patches after the stale ones chain from the new base. (The
        // recovered state is what the reopened store patches against.)
        let mut live = back;
        advance(&mut store, &mut live, 4, 9);
        store.checkpoint(&live).unwrap();
        drop(store);
        let (back, _, _, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!(
            (rec.stale_patches, rec.patches, rec.snapshot_seq),
            (2, 1, 4)
        );
        assert_eq!(encode_snapshot(&back), encode_snapshot(&live));

        // Forged logs over the seq-0 base: a patch repeated after a later
        // one regresses, a patch whose predecessor is missing breaks the
        // chain. Both are typed corruption, never a panic.
        let dir = test_dir("store_forged");
        let live = snapshot_of_rows(0, 200);
        let base = DurableStore::create(&dir, &live, never()).unwrap();
        drop(base);
        let ranges = frames(&log);
        let header = &log[..wal::HEADER_LEN as usize];
        let (p1, p2) = (&log[ranges[0].clone()], &log[ranges[1].clone()]);
        for (forged, needle) in [
            ([header, p1, p2, p1].concat(), "regression"),
            ([header, p2].concat(), "taken against checkpoint 1"),
        ] {
            std::fs::write(dir.join(PATCH_FILE), &forged).unwrap();
            match DurableStore::recover(&dir, never()) {
                Err(DurabilityError::Corrupt(m)) => assert!(m.contains(needle), "{m}"),
                Err(e) => panic!("expected corruption, got {e}"),
                Ok(_) => panic!("a forged patch log must not recover"),
            }
        }
    }

    #[test]
    fn a_torn_patch_is_truncated_and_the_wal_replays_past_it() {
        let dir = test_dir("store_torn_patch");
        let mut live = snapshot_of_rows(0, 200);
        let mut store = DurableStore::create(&dir, &live, never()).unwrap();
        advance(&mut store, &mut live, 1, 5);
        store.checkpoint(&live).unwrap();
        advance(&mut store, &mut live, 2, 100);
        store.sync().unwrap();
        drop(store);
        // The next checkpoint died mid-append: half a frame, WAL intact.
        let path = dir.join(PATCH_FILE);
        let mut log = std::fs::read(&path).unwrap();
        let clean = log.len() as u64;
        log.extend_from_slice(&100u32.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        log.extend_from_slice(b"half-patch");
        std::fs::write(&path, &log).unwrap();

        let (back, records, mut store, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!((rec.snapshot_seq, rec.patches, rec.replayed), (1, 1, 1));
        assert_eq!(rec.patch_truncated_bytes, 18);
        assert!(rec.torn.as_deref().unwrap().contains("patch log"));
        assert_eq!(records[0].seq, 2);
        assert_eq!(fs_len(&dir, PATCH_FILE), clean, "torn tail truncated");
        // Replaying record 2 is the caller's part; here it is the flip
        // `advance` made. The reopened log appends behind the truncation
        // point.
        let mut back = back;
        assert_eq!(back.seq, 1);
        flip(&mut back, 100);
        back.seq = 2;
        back.chain.steps_taken = 20;
        assert_eq!(encode_snapshot(&back), encode_snapshot(&live));
        let live = back;
        store.checkpoint(&live).unwrap();
        assert_eq!(store.last_checkpoint().unwrap().kind, CheckpointKind::Patch);
        drop(store);
        let (back, _, _, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!((rec.patches, rec.patch_truncated_bytes), (2, 0));
        assert_eq!(encode_snapshot(&back), encode_snapshot(&live));
    }

    #[test]
    fn a_store_without_a_patch_log_opens_with_zero_patches() {
        // A store from before patch logs existed is a base and a WAL.
        let dir = test_dir("store_pre_patch");
        let mut live = snapshot_of_rows(0, 100);
        let mut store = DurableStore::create(&dir, &live, never()).unwrap();
        advance(&mut store, &mut live, 1, 7);
        store.sync().unwrap();
        drop(store);
        std::fs::remove_file(dir.join(PATCH_FILE)).unwrap();
        let (mut back, records, mut store, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!((rec.patches, rec.replayed), (0, 1));
        assert!(rec.torn.is_none());
        assert_eq!(records.len(), 1);
        flip(&mut back, 7);
        back.seq = 1;
        back.chain.steps_taken = 10;
        let live = back;
        store.checkpoint(&live).unwrap();
        assert_eq!(store.last_checkpoint().unwrap().kind, CheckpointKind::Patch);
        drop(store);
        let (back, _, _, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!(rec.patches, 1);
        assert_eq!(encode_snapshot(&back), encode_snapshot(&live));
    }

    /// Syncs `FaultyIo` counts over 64 interval commits and one patch
    /// checkpoint under `policy`, and the checkpoint's share of them.
    fn syncs_over_a_checkpoint_cycle(name: &str, policy: FsyncPolicy) -> (u64, u64) {
        use crate::io::{FaultSchedule, FaultyIo};

        let dir = test_dir(name);
        let fio = FaultyIo::new(FaultSchedule::none());
        let mut live = snapshot_of_rows(0, 300);
        let config = DurabilityConfig { fsync: policy };
        let mut store =
            DurableStore::create_with_io(Arc::new(fio.clone()), &dir, &live, config).unwrap();
        let created = fio.syncs();
        for seq in 1..=64u64 {
            advance(&mut store, &mut live, seq, (seq as usize * 67) % 300);
        }
        let committed = fio.syncs();
        store.checkpoint(&live).unwrap();
        assert_eq!(store.last_checkpoint().unwrap().kind, CheckpointKind::Patch);
        (fio.syncs() - created, fio.syncs() - committed)
    }

    #[test]
    fn a_clean_log_is_not_synced_again() {
        // EveryN(8): commits 8, 16, …, 64 sync the WAL. The checkpoint then
        // syncs the patch and the new WAL's header — and neither the WAL
        // the 64th commit just synced nor the replaced writer as it drops.
        let (cycle, checkpoint) =
            syncs_over_a_checkpoint_cycle("store_clean_every8", FsyncPolicy::EveryN(8));
        assert_eq!((cycle, checkpoint), (10, 2));
        // Under `Never` the WAL is dirty when the checkpoint begins, and it
        // is synced: 64 unsynced commits, then the patch, then the header.
        let (cycle, checkpoint) =
            syncs_over_a_checkpoint_cycle("store_clean_never", FsyncPolicy::Never);
        assert_eq!((cycle, checkpoint), (3, 3));
    }

    #[test]
    fn a_checkpoint_syncs_a_dirty_wal_before_it_writes() {
        use crate::io::{FaultKind, FaultSchedule, FaultyIo};

        let dir = test_dir("store_dirty_wal_first");
        let fio = FaultyIo::new(FaultSchedule::none());
        let mut live = snapshot_of_rows(0, 100);
        let mut store =
            DurableStore::create_with_io(Arc::new(fio.clone()), &dir, &live, never()).unwrap();
        advance(&mut store, &mut live, 1, 7);
        // The checkpoint's first sync fails before any patch byte is
        // written: that sync was the WAL's.
        let writes = fio.writes();
        fio.inject_now(FaultKind::SyncErr);
        assert!(store.checkpoint(&live).is_err());
        assert_eq!(
            fio.writes(),
            writes,
            "a patch byte preceded the WAL's fsync"
        );
    }

    #[test]
    fn a_log_reopened_without_truncation_starts_dirty() {
        use crate::io::{FaultSchedule, FaultyIo};
        use crate::wal::WalWriter;

        let dir = test_dir("store_reopen_dirty");
        let path = dir.join(WAL_FILE);
        let fio = FaultyIo::new(FaultSchedule::none());
        let mut wal = WalWriter::create_with(&fio, &path, FsyncPolicy::Never).unwrap();
        wal.append(b"record").unwrap();
        wal.commit().unwrap();
        let len = wal.len();
        wal.sync().unwrap();
        drop(wal);
        let synced = fio.syncs();
        // Truncated on reopen: cut, synced, clean.
        let mut wal = WalWriter::reopen(&fio, &path, len, true, FsyncPolicy::Never).unwrap();
        assert_eq!(fio.syncs(), synced + 1);
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(fio.syncs(), synced + 1, "a clean log was synced again");
        // Vouched for, not truncated: the bytes are not known durable.
        let mut wal = WalWriter::reopen(&fio, &path, len, false, FsyncPolicy::Never).unwrap();
        wal.sync().unwrap();
        assert_eq!(fio.syncs(), synced + 2);
    }

    #[test]
    fn a_failed_checkpoint_refuses_appends_until_recovery() {
        use crate::io::{FaultKind, FaultSchedule, FaultyIo};

        let dir = test_dir("store_failed_checkpoint");
        let fio = FaultyIo::new(FaultSchedule::none());
        let mut live = snapshot_of_rows(0, 100);
        let mut store =
            DurableStore::create_with_io(Arc::new(fio.clone()), &dir, &live, never()).unwrap();
        advance(&mut store, &mut live, 1, 7);
        fio.inject_now(FaultKind::ShortWrite);
        assert!(store.checkpoint(&live).is_err());
        assert!(matches!(
            store.append_interval(&interval(2)),
            Err(DurabilityError::Corrupt(m)) if m.contains("poisoned")
        ));
        drop(store);
        let (back, records, _, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!((back.seq, rec.replayed), (0, 1));
        assert_eq!(records[0].seq, 1);
        assert!(rec.patch_truncated_bytes > 0, "the torn patch is truncated");
    }
}
