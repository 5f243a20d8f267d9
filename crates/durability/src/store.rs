//! The durable store: a directory holding a base snapshot and a WAL, with
//! crash-safe compaction and recovery.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/snapshot.fgdb           the base: full state at some interval boundary (seq B)
//! <dir>/wal.fgdb                interval records since the base
//! <dir>/snapshot.patches.fgdb   chunk patches above B, read-only: written by older
//!                               stores, retired by their first compaction
//! ```
//!
//! The WAL is the incremental checkpoint. Each interval record already holds
//! exactly what changed (the net variable changes, their Δ⁻/Δ⁺ delta and
//! the chain position), so the base plus a replay of the WAL *is* the state,
//! and a checkpoint has nothing to re-encode: it syncs the WAL, which costs
//! nothing when group commit left it clean. Only when the WAL has outgrown
//! the base ([`WAL_BASE_MULTIPLE`]) does a checkpoint *compact*: it writes
//! the whole state as a new base and empties the WAL, so recovery never
//! reads more than about two bases' worth of bytes.
//!
//! Compaction protocol (FORMAT.md §Checkpointing): fsync the WAL, write the
//! base to `snapshot.fgdb.tmp`, fsync it, rename it over `snapshot.fgdb`,
//! fsync the directory, empty a legacy patch log, and only then re-create
//! the WAL. A crash between any two steps is recoverable: patches and WAL
//! records at or below the base's sequence number are skipped, a torn
//! patch is truncated like a torn WAL record, and a missing or header-less
//! WAL reads as empty.

use crate::format::{
    build_database, decode_assignment_changes, decode_binding, decode_chain_state, decode_changes,
    decode_delta, decode_raw_database, decode_relation_patch, decode_world, encode_binding,
    encode_chain_state, encode_changes, encode_database, encode_delta, encode_world, skip_delta,
    BindingRec, ChainStateRec, Dec, Enc, FormatError, NetChangeRec, RawRelation, RelationPatch,
};
use crate::io::{real_io, StoreIo};
use crate::wal::{
    self, check_header, write_header, FsyncPolicy, WalScan, WalWriter, KIND_PATCHES, KIND_SNAPSHOT,
};
use fgdb_graph::{VariableId, World};
use fgdb_relational::{Database, DeltaSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Base snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.fgdb";
/// Chunk-patch log file name inside a store directory (read-only: written
/// by older stores).
pub const PATCH_FILE: &str = "snapshot.patches.fgdb";
/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.fgdb";

/// Record type byte: an interval commit (FORMAT.md §Interval record).
pub const REC_INTERVAL: u8 = 0x01;
/// Record type byte: a full snapshot (only in base snapshot files).
pub const REC_SNAPSHOT: u8 = 0x10;
/// Record type byte: a chunk patch (only in patch logs older stores wrote).
pub const REC_PATCH: u8 = 0x11;
/// Version byte of the interval record body.
pub const INTERVAL_VERSION: u8 = 1;
/// Version byte of the snapshot record body.
pub const SNAPSHOT_VERSION: u8 = 1;
/// Version byte of the chunk-patch record body.
pub const PATCH_VERSION: u8 = 1;

/// How large the WAL may grow, as a multiple of the base snapshot file,
/// before a checkpoint compacts: a checkpoint that finds the WAL longer
/// than `WAL_BASE_MULTIPLE × base bytes` writes a new base and empties it.
/// A constant, not a knob, derived from two costs measured with `--bin
/// durability` on the 100 K-token NER store (2-vCPU x86-64 VM): a
/// compaction (the full-store encoder, one 2.5 MB base, three fsyncs) costs
/// 17–23 ms, and replaying one ≈630-byte logged interval ≈16 µs. At 1 the
/// encoder runs once per ≈4,100 intervals, ≈5 µs per interval, and a
/// recovery at the budget reads about two bases' worth of bytes in
/// 125–128 ms.
pub const WAL_BASE_MULTIPLE: u64 = 1;

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

/// An interval record as recovery hands it back: the replay script and the
/// chain position decoded, the logged delta kept as the bytes it was
/// logged as. Encoding is canonical (FORMAT.md §CountedSet, §DeltaSet:
/// equal delta sets encode to equal bytes), so replay cross-checks its
/// recomputed delta by encoding it and comparing bytes — exactly as strong
/// as decoding the logged one and comparing sets, at a fraction of the
/// cost.
#[derive(Clone, Debug)]
pub struct LoggedInterval {
    /// The record's sequence number.
    pub seq: u64,
    /// Net variable changes, the replay script.
    pub changes: Vec<NetChangeRec>,
    /// Chain position after the interval.
    pub chain: ChainStateRec,
    /// The record payload.
    payload: Vec<u8>,
    /// Where the logged delta lies in `payload`.
    delta: std::ops::Range<usize>,
}

impl LoggedInterval {
    /// Decodes a record payload produced by [`IntervalRecord::encode`],
    /// stepping over its delta (its framing checked, not its contents).
    fn decode(payload: Vec<u8>) -> Result<LoggedInterval, DurabilityError> {
        let mut d = Dec::new(&payload);
        expect_record(&mut d, REC_INTERVAL, INTERVAL_VERSION, "WAL")?;
        let seq = d.varint()?;
        let changes = decode_changes(&mut d)?;
        let start = payload.len() - d.remaining();
        skip_delta(&mut d)?;
        let delta = start..payload.len() - d.remaining();
        let chain = decode_chain_state(&mut d)?;
        d.finish()?;
        Ok(LoggedInterval {
            seq,
            changes,
            chain,
            payload,
            delta,
        })
    }

    /// The logged delta as it was encoded ([`crate::format::encode_delta`]).
    pub fn delta_bytes(&self) -> &[u8] {
        self.payload.get(self.delta.clone()).unwrap_or_default()
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
    /// last applied patch's (in a store an older release wrote).
    pub snapshot_seq: u64,
    /// Sequence number of the base snapshot file.
    pub base_seq: u64,
    /// Chunk patches an older release wrote, applied on top of the base.
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

/// Whether a checkpoint kept the WAL or wrote a new base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointKind {
    /// The WAL was synced and kept: it is under budget, and the base plus
    /// its records is the checkpoint. No file was created or written.
    Wal,
    /// A new base snapshot (compaction); the WAL and any legacy patch log
    /// were emptied.
    Base,
}

/// What one checkpoint did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Sequence number the checkpoint reflects.
    pub seq: u64,
    /// WAL kept, or base written.
    pub kind: CheckpointKind,
    /// WAL length when the checkpoint began, header included — what a
    /// recovery at that point replays.
    pub wal_bytes: u64,
    /// Base snapshot file length after the checkpoint.
    pub base_bytes: u64,
}

/// The durable store handle: owns the directory and the open WAL.
pub struct DurableStore {
    dir: PathBuf,
    wal: WalWriter,
    config: DurabilityConfig,
    next_seq: u64,
    io: Arc<dyn StoreIo>,
    base_bytes: u64,
    /// Recovery found chunk patches an older store wrote; the next
    /// compaction empties their log.
    legacy_patches: bool,
    last_checkpoint: Option<CheckpointReport>,
    /// Set while a checkpoint is between its first write and its last: a
    /// checkpoint that failed there may have left the WAL re-created under
    /// the open writer, so the store refuses appends until recovery.
    poisoned: bool,
}

impl DurableStore {
    /// Initializes a store directory with `snapshot` as the initial base
    /// and an empty WAL. Creates the directory if
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
        let wal = WalWriter::create_with(&*io, &dir.join(WAL_FILE), config.fsync)?;
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            wal,
            config,
            next_seq: snapshot.seq + 1,
            io,
            base_bytes,
            legacy_patches: false,
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

    /// Checkpoints `state`, which must reflect sequence
    /// `self.next_seq() - 1` and equal the base plus the logged records —
    /// the WAL is what makes it durable. Syncs the WAL (a no-op when the
    /// last group commit left it clean) and keeps it while it is within
    /// [`WAL_BASE_MULTIPLE`] × the base; past that, compacts as
    /// [`Self::compact`] does. [`Self::last_checkpoint`] says which.
    ///
    /// A failure after the first write poisons the store: the files are
    /// recoverable, but the handle refuses appends until
    /// [`DurableStore::recover`] reopens them.
    pub fn checkpoint<'a>(
        &mut self,
        state: impl Into<SnapshotRef<'a>>,
    ) -> Result<(), DurabilityError> {
        let state = state.into();
        let wal_bytes = self.wal.len();
        if wal_bytes > self.base_bytes.saturating_mul(WAL_BASE_MULTIPLE) {
            return self.compact(state);
        }
        self.begin_checkpoint(state)?;
        self.finish_checkpoint(CheckpointReport {
            seq: state.seq,
            kind: CheckpointKind::Wal,
            wal_bytes,
            base_bytes: self.base_bytes,
        });
        Ok(())
    }

    /// Checkpoints `state` as a new base regardless of the WAL's length and
    /// empties the WAL: the compaction [`Self::checkpoint`] runs past its
    /// budget, on demand. Protocol: WAL fsync, then the base through tmp →
    /// fsync → rename → directory fsync, then a legacy patch log emptied
    /// (its patches are at or below the new base's sequence number, so a
    /// crash in between leaves them stale, never wrong), then the WAL
    /// re-created.
    pub fn compact<'a>(
        &mut self,
        state: impl Into<SnapshotRef<'a>>,
    ) -> Result<(), DurabilityError> {
        let state = state.into();
        let wal_bytes = self.wal.len();
        self.begin_checkpoint(state)?;
        self.base_bytes = write_snapshot_with(&*self.io, &self.dir, state)?;
        if self.legacy_patches {
            create_patch_log(&*self.io, &self.dir)?;
            self.legacy_patches = false;
        }
        // The WAL's records are at or below the base's sequence number now
        // and replay skips them, so its re-creation is an optimization, not
        // a correctness step — safe to crash before, during, or after.
        self.wal = WalWriter::create_with(&*self.io, &self.dir.join(WAL_FILE), self.config.fsync)?;
        self.finish_checkpoint(CheckpointReport {
            seq: state.seq,
            kind: CheckpointKind::Base,
            wal_bytes,
            base_bytes: self.base_bytes,
        });
        Ok(())
    }

    /// The first step of either checkpoint: every interval the checkpoint
    /// embodies is on disk before anything replaces it (otherwise a crash
    /// in between could lose acknowledged intervals). Poisons until
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

    fn finish_checkpoint(&mut self, report: CheckpointReport) {
        self.poisoned = false;
        self.last_checkpoint = Some(report);
    }

    /// Opens an existing store: reads the base, applies a legacy patch log
    /// if an older store left one, scans the WAL, truncates any torn tail
    /// of either log, and returns the recovered checkpoint state, the
    /// interval records to replay (those above its sequence number,
    /// gap-checked), the reopened store handle, and a report of what was
    /// found. A store without a patch log opens with zero patches.
    pub fn recover(
        dir: &Path,
        config: DurabilityConfig,
    ) -> Result<(Snapshot, Vec<LoggedInterval>, DurableStore, RecoveryReport), DurabilityError>
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
    ) -> Result<(Snapshot, Vec<LoggedInterval>, DurableStore, RecoveryReport), DurabilityError>
    {
        let (mut state, base_bytes) = read_base(&*io, dir)?;
        let mut report = RecoveryReport {
            base_seq: state.seq,
            ..RecoveryReport::default()
        };

        // Patches (written by older stores): stale ones (a compaction
        // crashed before emptying the log) are skipped, the rest must chain
        // from the base in order.
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
        // follows the same rule, and is never re-created.
        let wal_path = dir.join(WAL_FILE);
        let mut wal_log = scan_log(&*io, &wal_path, wal::KIND_WAL)?;
        report.truncated_bytes = wal_log.truncated_bytes();
        report.torn = wal_log.describe().or_else(|| {
            let torn = patch_log.scan.torn.as_ref();
            torn.map(|t| format!("patch log: {t}"))
        });
        let mut records = Vec::new();
        let mut expect = snapshot.seq + 1;
        for payload in std::mem::take(&mut wal_log.scan.records) {
            let rec = LoggedInterval::decode(payload)?;
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

        if report.patch_truncated_bytes > 0 {
            WalWriter::reopen(
                &*io,
                &patch_path,
                patch_log.scan.valid_len,
                true,
                FsyncPolicy::Never,
            )?;
        }
        let wal = if wal_log.missing() {
            WalWriter::create_with(&*io, &wal_path, config.fsync)?
        } else {
            WalWriter::open_at_with(&*io, &wal_path, wal_log.scan.valid_len, config.fsync)?
        };
        let store = DurableStore {
            dir: dir.to_path_buf(),
            wal,
            config,
            next_seq: expect,
            io,
            base_bytes,
            legacy_patches: !patch_log.scan.records.is_empty(),
            last_checkpoint: None,
            poisoned: false,
        };
        Ok((snapshot, records, store, report))
    }
}

/// Empties a legacy patch log: re-creates it as a bare header.
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
        let logged = decode_delta(&mut Dec::new(records[0].delta_bytes())).unwrap();
        assert_eq!(logged.added("T").sorted_support(), vec![tuple![0i64, "b"]]);
        assert_eq!(records[0].delta_bytes(), {
            let mut e = Enc::new();
            encode_delta(&mut e, &interval(1).delta);
            e.into_bytes()
        });
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
            store.compact(&tiny_snapshot(1)).unwrap();
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
        store.compact(&tiny_snapshot(2)).unwrap();
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
        // `create` writes the snapshot tmp file (#1) and the WAL header
        // (#2) — not WAL records, but every write counts; interval commits
        // are one write each, so write #4 is interval 2.
        let fio = FaultyIo::new(FaultSchedule::new(vec![FaultPoint {
            at: 4,
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
    fn checkpoints_keep_the_wal_until_it_outgrows_the_base() {
        let dir = test_dir("store_wal_budget");
        let mut live = snapshot_of_rows(0, 300); // five chunks
        let mut store = DurableStore::create(&dir, &live, never()).unwrap();
        // The state the current base holds.
        let mut based = live.clone();
        let mut kinds = Vec::new();
        for seq in 1..=120u64 {
            advance(&mut store, &mut live, seq, (seq as usize * 67) % 300);
            let budget = fs_len(&dir, SNAPSHOT_FILE) * WAL_BASE_MULTIPLE;
            store.checkpoint(&live).unwrap();
            let report = *store.last_checkpoint().unwrap();
            assert_eq!(report.seq, seq);
            match report.kind {
                CheckpointKind::Wal => {
                    assert_eq!(report.base_bytes, budget / WAL_BASE_MULTIPLE);
                    assert!(report.wal_bytes <= budget);
                    assert_eq!(report.wal_bytes, fs_len(&dir, WAL_FILE));
                }
                CheckpointKind::Base => {
                    assert!(report.wal_bytes > budget);
                    assert_eq!(report.base_bytes, fs_len(&dir, SNAPSHOT_FILE));
                    assert_eq!(fs_len(&dir, WAL_FILE), wal::HEADER_LEN);
                    based = live.clone();
                }
            }
            kinds.push(report.kind);
            // Recovery returns the base byte for byte, and the WAL holds
            // every interval since it, densely.
            let (back, records, _, rec) = DurableStore::recover(&dir, never()).unwrap();
            assert_eq!(rec.snapshot_seq, based.seq);
            assert!(rec.torn.is_none());
            assert_eq!(encode_snapshot(&back), encode_snapshot(&based), "seq {seq}");
            let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
            assert_eq!(seqs, (based.seq + 1..=seq).collect::<Vec<_>>());
        }
        let bases = kinds.iter().filter(|k| **k == CheckpointKind::Base).count();
        assert!((1..=4).contains(&bases), "{kinds:?}");
        assert!(!dir.join(PATCH_FILE).exists(), "no patch log is written");
    }

    fn fs_len(dir: &Path, file: &str) -> u64 {
        std::fs::metadata(dir.join(file)).unwrap().len()
    }

    /// The store an older release wrote: a seq-0 base, two chunk patches
    /// (seqs 1 and 2) and WAL records 3–5 (`crates/core/tests/fixtures`).
    /// Returns a scratch copy and the live state at seq 5.
    fn legacy_store(label: &str) -> (PathBuf, Snapshot) {
        let fixture =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/fixtures/parent_store");
        let dir = test_dir(label);
        for f in [SNAPSHOT_FILE, PATCH_FILE, WAL_FILE] {
            std::fs::copy(fixture.join(f), dir.join(f)).unwrap();
        }
        let payload = std::fs::read(fixture.join("expected.snapshot")).unwrap();
        let live = RawSnapshot::decode(&payload).unwrap().build().unwrap();
        (dir, live)
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
        let (dir, live) = legacy_store("store_stale");
        let log = std::fs::read(dir.join(PATCH_FILE)).unwrap();
        assert_eq!(frames(&log).len(), 2);
        let (_, records, mut store, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!((rec.base_seq, rec.patches, rec.snapshot_seq), (0, 2, 2));
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), [3, 4, 5]);

        // A compaction that crashed after its rename but before emptying
        // the log leaves patches at or below the new base: skipped.
        store.compact(&live).unwrap();
        drop(store);
        assert_eq!(fs_len(&dir, PATCH_FILE), wal::HEADER_LEN, "log retired");
        std::fs::write(dir.join(PATCH_FILE), &log).unwrap();
        let (back, records, mut store, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!((rec.base_seq, rec.stale_patches, rec.patches), (5, 2, 0));
        assert!(records.is_empty());
        assert_eq!(encode_snapshot(&back), encode_snapshot(&live));
        // Stale patches are not live: a checkpoint under budget leaves
        // them, the next compaction retires them.
        store.checkpoint(&live).unwrap();
        assert_eq!(store.last_checkpoint().unwrap().kind, CheckpointKind::Wal);
        assert_eq!(fs_len(&dir, PATCH_FILE), log.len() as u64);
        store.compact(&live).unwrap();
        drop(store);
        assert_eq!(fs_len(&dir, PATCH_FILE), wal::HEADER_LEN);
        let (_, _, _, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!((rec.stale_patches, rec.patches), (0, 0));

        // Forged logs over the seq-0 base: a patch repeated after a later
        // one regresses, a patch whose predecessor is missing breaks the
        // chain. Both are typed corruption, never a panic.
        let (dir, _) = legacy_store("store_forged");
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
        let (dir, live) = legacy_store("store_torn_patch");
        // The older store's next checkpoint died mid-append: half a frame,
        // WAL intact.
        let path = dir.join(PATCH_FILE);
        let mut log = std::fs::read(&path).unwrap();
        let clean = log.len() as u64;
        log.extend_from_slice(&100u32.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        log.extend_from_slice(b"half-patch");
        std::fs::write(&path, &log).unwrap();

        let (back, records, mut store, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!((rec.snapshot_seq, rec.patches, rec.replayed), (2, 2, 3));
        assert_eq!(rec.patch_truncated_bytes, 18);
        assert!(rec.torn.as_deref().unwrap().contains("patch log"));
        assert_eq!((back.seq, records[0].seq), (2, 3));
        assert_eq!(fs_len(&dir, PATCH_FILE), clean, "torn tail truncated");
        // Replaying records 3–5 is the caller's part; `live` is its result.
        store.compact(&live).unwrap();
        drop(store);
        let (back, _, _, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!((rec.patches, rec.patch_truncated_bytes), (0, 0));
        assert_eq!(encode_snapshot(&back), encode_snapshot(&live));
    }

    #[test]
    fn a_store_without_a_patch_log_opens_with_zero_patches() {
        // A store is a base and a WAL: nothing writes a patch log.
        let dir = test_dir("store_pre_patch");
        let mut live = snapshot_of_rows(0, 100);
        let base = encode_snapshot(&live);
        let mut store = DurableStore::create(&dir, &live, never()).unwrap();
        advance(&mut store, &mut live, 1, 7);
        store.sync().unwrap();
        drop(store);
        assert!(!dir.join(PATCH_FILE).exists());
        let (back, records, mut store, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!((rec.patches, rec.replayed), (0, 1));
        assert!(rec.torn.is_none());
        assert_eq!(records.len(), 1);
        assert_eq!(encode_snapshot(&back), base);
        store.checkpoint(&live).unwrap();
        assert_eq!(store.last_checkpoint().unwrap().kind, CheckpointKind::Wal);
        drop(store);
        assert!(!dir.join(PATCH_FILE).exists());
        let (back, _, _, rec) = DurableStore::recover(&dir, never()).unwrap();
        assert_eq!((rec.patches, rec.replayed), (0, 1));
        assert_eq!(encode_snapshot(&back), base);
    }

    /// `FaultyIo` counters over 64 interval commits and one checkpoint
    /// under `policy`, and the checkpoint's share of them.
    fn ops_over_a_checkpoint_cycle(name: &str, policy: FsyncPolicy) -> (u64, (u64, u64, u64)) {
        use crate::io::{FaultSchedule, FaultyIo};

        let dir = test_dir(name);
        let fio = FaultyIo::new(FaultSchedule::none());
        // A base large enough that 64 records stay under budget.
        let mut live = snapshot_of_rows(0, 1000);
        let config = DurabilityConfig { fsync: policy };
        let mut store =
            DurableStore::create_with_io(Arc::new(fio.clone()), &dir, &live, config).unwrap();
        let created = fio.syncs();
        for seq in 1..=64u64 {
            advance(&mut store, &mut live, seq, (seq as usize * 67) % 300);
        }
        let (ops, writes, syncs) = (fio.ops(), fio.writes(), fio.syncs());
        store.checkpoint(&live).unwrap();
        assert_eq!(store.last_checkpoint().unwrap().kind, CheckpointKind::Wal);
        let during = (fio.ops() - ops, fio.writes() - writes, fio.syncs() - syncs);
        (fio.syncs() - created, during)
    }

    #[test]
    fn a_clean_log_is_not_synced_again() {
        // EveryN(8): commits 8, 16, …, 64 sync the WAL, and the checkpoint
        // finds it clean: no fsync, no file created or written.
        let (cycle, during) =
            ops_over_a_checkpoint_cycle("store_clean_every8", FsyncPolicy::EveryN(8));
        assert_eq!((cycle, during), (8, (0, 0, 0)));
        // Under `Never` the WAL is dirty when the checkpoint begins, and its
        // one fsync is the checkpoint's only operation.
        let (cycle, during) = ops_over_a_checkpoint_cycle("store_clean_never", FsyncPolicy::Never);
        assert_eq!((cycle, during), (1, (1, 0, 1)));
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
        // The compaction's first sync fails before any base byte is
        // written: that sync was the WAL's.
        let writes = fio.writes();
        fio.inject_now(FaultKind::SyncErr);
        assert!(store.compact(&live).is_err());
        assert_eq!(fio.writes(), writes, "a base byte preceded the WAL's fsync");
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

        // Under budget, the WAL's fsync is the checkpoint; past it, the
        // base write tears.
        for (fault, compact) in [(FaultKind::SyncErr, false), (FaultKind::ShortWrite, true)] {
            let dir = test_dir("store_failed_checkpoint");
            let fio = FaultyIo::new(FaultSchedule::none());
            let mut live = snapshot_of_rows(0, 100);
            let mut store =
                DurableStore::create_with_io(Arc::new(fio.clone()), &dir, &live, never()).unwrap();
            advance(&mut store, &mut live, 1, 7);
            fio.inject_now(fault);
            let failed = if compact {
                store.compact(&live)
            } else {
                store.checkpoint(&live)
            };
            assert!(failed.is_err(), "{fault}");
            assert!(matches!(
                store.append_interval(&interval(2)),
                Err(DurabilityError::Corrupt(m)) if m.contains("poisoned")
            ));
            drop(store);
            let (back, records, _, rec) = DurableStore::recover(&dir, never()).unwrap();
            assert_eq!((back.seq, rec.replayed), (0, 1), "{fault}");
            assert_eq!(records[0].seq, 1);
            assert!(rec.torn.is_none(), "{fault}: the torn base is a tmp file");
        }
    }
}
