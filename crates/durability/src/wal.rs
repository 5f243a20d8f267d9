//! The write-ahead log: checksummed, length-prefixed record frames with
//! group-commit batching and torn-tail detection.
//!
//! File layout (normative description in `docs/FORMAT.md`):
//!
//! ```text
//! header:  "FGDB" | kind: u8 ('W') | version: u16 le | feature flags: u32 le
//! record*: payload_len: u32 le | crc32(payload): u32 le | payload
//! payload: record_type: u8 | record_version: u8 | body…
//! ```
//!
//! A crash mid-append leaves a *torn tail*: a frame whose length field,
//! payload bytes, or checksum were only partially written. The reader
//! detects all three shapes (short frame header, length past EOF, checksum
//! mismatch), reports the byte offset where the valid prefix ends, and
//! recovery truncates the file there before appending again.

use crate::checksum::crc32;
use crate::format::{FEATURE_FLAGS, FORMAT_VERSION};
use crate::io::{RealIo, StoreFile, StoreIo};
use crate::store::DurabilityError;
use std::path::{Path, PathBuf};

/// The 4-byte magic opening every fgdb durability file.
pub const MAGIC: &[u8; 4] = b"FGDB";
/// File-kind byte for a write-ahead log.
pub const KIND_WAL: u8 = b'W';
/// File-kind byte for a snapshot.
pub const KIND_SNAPSHOT: u8 = b'S';
/// File-kind byte for a chunk-patch log: the same framing as a WAL,
/// carrying checkpoint patches instead of interval records (written by
/// older stores; read, and emptied at compaction, by this one).
pub const KIND_PATCHES: u8 = b'P';
/// Total header size: magic + kind + version + flags.
pub const HEADER_LEN: u64 = 4 + 1 + 2 + 4;

/// Upper bound on a single record's payload (64 MiB). A length field above
/// this is treated as corruption, not an allocation request.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

/// When to `fsync` the log (the durability/throughput trade-off knob).
///
/// Writes always reach the file at commit; the policy only governs how
/// often the OS cache is flushed to stable storage. Reading the knob from
/// the environment: `FGDB_FSYNC=always|never|every=N` (see
/// [`FsyncPolicy::from_env`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every commit — at most zero committed intervals lost
    /// on power failure, slowest.
    Always,
    /// Group commit: `fsync` once every `n` commits — at most `n-1`
    /// committed intervals lost on power failure (none on a process crash,
    /// since the writes themselves are not buffered in user space).
    EveryN(u32),
    /// Never `fsync` from the engine; the OS flushes on its own schedule.
    /// A process crash still loses nothing — only a kernel crash or power
    /// failure can.
    Never,
}

impl FsyncPolicy {
    /// Reads the policy from `FGDB_FSYNC` (`always`, `never`, `every=N`).
    /// Unset or unparsable values fall back to `default`.
    pub fn from_env(default: FsyncPolicy) -> FsyncPolicy {
        Self::parse(std::env::var("FGDB_FSYNC").ok().as_deref()).unwrap_or(default)
    }

    /// Parses a policy string (`always`, `never`, `every=N` with `N ≥ 1`);
    /// `None` for anything else. The pure half of [`FsyncPolicy::from_env`],
    /// split out so tests cover the parsing without touching the process
    /// environment.
    pub fn parse(s: Option<&str>) -> Option<FsyncPolicy> {
        match s? {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            s => s
                .strip_prefix("every=")
                .and_then(|n| n.parse::<u32>().ok())
                .filter(|&n| n > 0)
                .map(FsyncPolicy::EveryN),
        }
    }
}

/// Frames one record: `[len][crc][payload]`. Errors when the payload is
/// not describable by the u32 length field or exceeds [`MAX_RECORD_LEN`] —
/// checked here, at the byte boundary, so no caller can stage a silently
/// wrapped length.
fn frame(payload: &[u8]) -> Result<Vec<u8>, DurabilityError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_RECORD_LEN)
        .ok_or_else(|| {
            DurabilityError::Corrupt(format!(
                "record payload {} exceeds MAX_RECORD_LEN",
                payload.len()
            ))
        })?;
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Writes the common file header.
pub(crate) fn write_header(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(MAGIC);
    out.push(kind);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&FEATURE_FLAGS.to_le_bytes());
}

/// Reads a little-endian `u32` at byte offset `at`, `None` when the slice
/// is too short — the checked form of
/// `u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())`.
pub(crate) fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let arr: [u8; 4] = bytes.get(at..at.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// Validates a file header, returning the declared version.
pub(crate) fn check_header(bytes: &[u8], kind: u8) -> Result<u16, DurabilityError> {
    if bytes.len() < HEADER_LEN as usize {
        return Err(DurabilityError::Corrupt("file shorter than header".into()));
    }
    // lint:allow-start(panic, every index below is < HEADER_LEN, length-checked at entry)
    if &bytes[0..4] != MAGIC {
        return Err(DurabilityError::Corrupt("bad magic".into()));
    }
    if bytes[4] != kind {
        return Err(DurabilityError::Corrupt(format!(
            "wrong file kind: expected {:?}, found {:?}",
            kind as char, bytes[4] as char
        )));
    }
    let version = u16::from_le_bytes([bytes[5], bytes[6]]);
    if version == 0 || version > FORMAT_VERSION {
        return Err(DurabilityError::Corrupt(format!(
            "unsupported format version {version}"
        )));
    }
    let flags = u32::from_le_bytes([bytes[7], bytes[8], bytes[9], bytes[10]]);
    // lint:allow-end(panic)
    if flags & !FEATURE_FLAGS != 0 {
        return Err(DurabilityError::Corrupt(format!(
            "unknown feature flags {flags:#x}"
        )));
    }
    Ok(version)
}

/// Append handle over a WAL file.
///
/// `append` stages a framed record in user space; `commit` writes every
/// staged frame with one `write` call and applies the fsync policy. The
/// stage-then-commit split exists so a multi-record transaction can never
/// be half-visible in the file; the current engine commits after every
/// interval record.
pub struct WalWriter {
    file: Box<dyn StoreFile>,
    path: PathBuf,
    policy: FsyncPolicy,
    staged: Vec<u8>,
    commits_since_sync: u32,
    /// Bytes durably part of the log (header + committed records).
    len: u64,
    /// Set after a failed file write: the file may hold a partial frame at
    /// an unknown position, so further appends would land *behind* garbage
    /// and be acknowledged-then-silently-truncated by recovery. A poisoned
    /// writer refuses all further work; the caller must reopen via
    /// recovery, which truncates the partial frame.
    poisoned: bool,
}

impl WalWriter {
    /// Creates a fresh WAL at `path` (truncating any existing file) and
    /// syncs the header.
    pub fn create(path: &Path, policy: FsyncPolicy) -> Result<WalWriter, DurabilityError> {
        Self::create_with(&RealIo, path, policy)
    }

    /// [`WalWriter::create`] through an explicit [`StoreIo`] — the seam
    /// the failpoint harness injects faults through.
    pub fn create_with(
        io: &dyn StoreIo,
        path: &Path,
        policy: FsyncPolicy,
    ) -> Result<WalWriter, DurabilityError> {
        Self::create_kind(io, path, KIND_WAL, policy)
    }

    /// [`WalWriter::create_with`] for a framed log of file kind `kind`
    /// (the WAL, or the chunk-patch log).
    pub(crate) fn create_kind(
        io: &dyn StoreIo,
        path: &Path,
        kind: u8,
        policy: FsyncPolicy,
    ) -> Result<WalWriter, DurabilityError> {
        let mut header = Vec::new();
        write_header(&mut header, kind);
        let mut file = io.create(path)?;
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            staged: Vec::new(),
            commits_since_sync: 0,
            len: HEADER_LEN,
            poisoned: false,
        })
    }

    /// Opens an existing WAL for appending at `valid_len` (as reported by
    /// [`scan`]), truncating any torn tail beyond it.
    pub fn open_at(
        path: &Path,
        valid_len: u64,
        policy: FsyncPolicy,
    ) -> Result<WalWriter, DurabilityError> {
        Self::open_at_with(&RealIo, path, valid_len, policy)
    }

    /// [`WalWriter::open_at`] through an explicit [`StoreIo`].
    pub fn open_at_with(
        io: &dyn StoreIo,
        path: &Path,
        valid_len: u64,
        policy: FsyncPolicy,
    ) -> Result<WalWriter, DurabilityError> {
        Self::reopen(io, path, valid_len, true, policy)
    }

    /// Opens an existing log for appending at `valid_len`; with `truncate`
    /// the file is first cut to `valid_len` and synced (a scan found a torn
    /// tail), without it the caller vouches that the file ends there.
    pub(crate) fn reopen(
        io: &dyn StoreIo,
        path: &Path,
        valid_len: u64,
        truncate: bool,
        policy: FsyncPolicy,
    ) -> Result<WalWriter, DurabilityError> {
        let mut file = io.open_rw(path)?;
        if truncate {
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        file.seek_to(valid_len)?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            staged: Vec::new(),
            // Bytes the caller vouches for were never synced by this
            // writer: it starts dirty, so the next `sync` reaches the disk.
            commits_since_sync: u32::from(!truncate),
            len: valid_len,
            poisoned: false,
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes in the log, header included (staged-but-uncommitted records
    /// excluded).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len <= HEADER_LEN
    }

    fn check_not_poisoned(&self) -> Result<(), DurabilityError> {
        if self.poisoned {
            return Err(DurabilityError::Corrupt(
                "WAL writer poisoned by an earlier failed write; \
                 reopen the store through recovery"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Stages one record payload (framed with length + CRC) for the next
    /// [`WalWriter::commit`].
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DurabilityError> {
        self.check_not_poisoned()?;
        self.staged.extend_from_slice(&frame(payload)?);
        Ok(())
    }

    /// Pushes every staged byte into the file, poisoning the writer on
    /// failure: after a short write the file position and contents are
    /// unknown (a partial frame may sit at the tail), so any later append
    /// would land *behind* garbage and be acknowledged only to be silently
    /// truncated by the next recovery. Poisoning turns that silent loss
    /// into loud errors; recovery truncates the partial frame and reopens.
    fn write_staged(&mut self) -> Result<u64, DurabilityError> {
        let n = self.staged.len() as u64;
        if n > 0 {
            if let Err(e) = self.file.write_all(&self.staged) {
                self.poisoned = true;
                return Err(e.into());
            }
            self.staged.clear();
            self.len += n;
        }
        Ok(n)
    }

    /// `sync_data`, poisoning the writer on failure. By the time an fsync
    /// runs, the frame bytes are already in the file, so the caller's
    /// bookkeeping (e.g. the store's sequence counter, which only advances
    /// on success) has diverged from the file's contents — a retried append
    /// after a transient fsync error would write a *duplicate* sequence
    /// number behind the first copy, which recovery rejects as a gap.
    /// Poisoning forces the caller through recovery instead, which replays
    /// the first copy and resumes from the correct sequence.
    fn sync_data(&mut self) -> Result<(), DurabilityError> {
        if let Err(e) = self.file.sync_data() {
            self.poisoned = true;
            return Err(e.into());
        }
        self.commits_since_sync = 0;
        Ok(())
    }

    /// Writes all staged frames and applies the fsync policy. Returns the
    /// number of bytes written.
    pub fn commit(&mut self) -> Result<u64, DurabilityError> {
        self.check_not_poisoned()?;
        let n = self.write_staged()?;
        self.commits_since_sync += 1;
        match self.policy {
            FsyncPolicy::Always => self.sync_data()?,
            FsyncPolicy::EveryN(k) => {
                if self.commits_since_sync >= k {
                    self.sync_data()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(n)
    }

    /// Makes every committed and staged byte durable regardless of policy
    /// (checkpoint boundaries). A clean log — no commit since the last
    /// fsync, nothing staged — is already durable and is not synced again.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.check_not_poisoned()?;
        if self.commits_since_sync == 0 && self.staged.is_empty() {
            return Ok(());
        }
        self.write_staged()?;
        self.sync_data()
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best-effort flush of anything staged or unsynced (a clean log
        // costs no fsync); errors cannot be surfaced from Drop. Callers
        // that need certainty call `sync` explicitly.
        let _ = self.sync();
    }
}

/// Why a WAL scan stopped before end-of-file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TornTail {
    /// Fewer than 8 bytes of frame header remained.
    ShortFrameHeader,
    /// The frame declared more payload than the file holds.
    ShortPayload {
        /// Bytes the frame declared.
        declared: u32,
        /// Bytes actually present.
        present: u64,
    },
    /// The payload checksum did not match.
    ChecksumMismatch,
    /// The length field exceeded [`MAX_RECORD_LEN`].
    OversizedLength(u32),
}

impl std::fmt::Display for TornTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornTail::ShortFrameHeader => write!(f, "torn frame header"),
            TornTail::ShortPayload { declared, present } => {
                write!(f, "torn payload: declared {declared}, present {present}")
            }
            TornTail::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            TornTail::OversizedLength(n) => write!(f, "oversized length field {n}"),
        }
    }
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Every fully valid record payload, in file order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of valid prefix (header + intact records). Re-opening the log
    /// for append truncates to this.
    pub valid_len: u64,
    /// Present when the file ends in a torn or corrupt record.
    pub torn: Option<TornTail>,
}

/// Reads a WAL file, validating the header and every record frame, and
/// stopping (not erroring) at the first torn or corrupt record — that is
/// the expected state after a crash mid-append.
pub fn scan(path: &Path) -> Result<WalScan, DurabilityError> {
    scan_with(&RealIo, path)
}

/// [`scan`] through an explicit [`StoreIo`].
pub fn scan_with(io: &dyn StoreIo, path: &Path) -> Result<WalScan, DurabilityError> {
    scan_kind(io, path, KIND_WAL)
}

/// [`scan_with`] for a framed log of file kind `kind`.
pub(crate) fn scan_kind(
    io: &dyn StoreIo,
    path: &Path,
    kind: u8,
) -> Result<WalScan, DurabilityError> {
    let bytes = io.read(path)?;
    check_header(&bytes, kind)?;
    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut torn = None;
    while pos < bytes.len() {
        let (len, crc) = match (le_u32(&bytes, pos), le_u32(&bytes, pos + 4)) {
            (Some(len), Some(crc)) => (len, crc),
            _ => {
                torn = Some(TornTail::ShortFrameHeader);
                break;
            }
        };
        if len > MAX_RECORD_LEN {
            torn = Some(TornTail::OversizedLength(len));
            break;
        }
        let body_start = pos + 8;
        let body_end = body_start + len as usize;
        let Some(payload) = bytes.get(body_start..body_end) else {
            torn = Some(TornTail::ShortPayload {
                declared: len,
                present: (bytes.len().saturating_sub(body_start)) as u64,
            });
            break;
        };
        if crc32(payload) != crc {
            torn = Some(TornTail::ChecksumMismatch);
            break;
        }
        records.push(payload.to_vec());
        pos = body_end;
    }
    Ok(WalScan {
        records,
        valid_len: pos as u64,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    #[test]
    fn append_commit_scan_round_trip() {
        let dir = test_dir("wal_round_trip");
        let path = dir.join("wal.fgdb");
        let mut w = WalWriter::create(&path, FsyncPolicy::Always).unwrap();
        assert!(w.is_empty());
        w.append(b"alpha").unwrap();
        w.commit().unwrap();
        w.append(b"").unwrap();
        w.append(b"beta-beta").unwrap();
        w.commit().unwrap();
        assert!(!w.is_empty());
        drop(w);

        let s = scan(&path).unwrap();
        assert_eq!(
            s.records,
            vec![b"alpha".to_vec(), vec![], b"beta-beta".to_vec()]
        );
        assert_eq!(s.torn, None);
        assert_eq!(s.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_shapes_are_detected_and_truncatable() {
        let dir = test_dir("wal_torn");
        let path = dir.join("wal.fgdb");
        let mut w = WalWriter::create(&path, FsyncPolicy::Never).unwrap();
        w.append(b"good-one").unwrap();
        w.append(b"good-two").unwrap();
        w.commit().unwrap();
        w.sync().unwrap();
        let good_len = w.len();
        drop(w);
        let intact = std::fs::read(&path).unwrap();

        // Shape 1: a frame header cut mid-way.
        std::fs::write(&path, [&intact[..], &[0x21, 0x00, 0x00][..]].concat()).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.torn, Some(TornTail::ShortFrameHeader));
        assert_eq!(s.valid_len, good_len);

        // Shape 2: a full frame header whose payload never made it.
        let mut torn = intact.clone();
        torn.extend_from_slice(&100u32.to_le_bytes());
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.extend_from_slice(b"only-ten-b");
        std::fs::write(&path, &torn).unwrap();
        let s = scan(&path).unwrap();
        assert!(matches!(
            s.torn,
            Some(TornTail::ShortPayload { declared: 100, .. })
        ));
        assert_eq!(s.valid_len, good_len);

        // Shape 3: complete frame, corrupted payload byte.
        let mut corrupt = intact.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        std::fs::write(&path, &corrupt).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 1, "first record intact, second corrupt");
        assert_eq!(s.torn, Some(TornTail::ChecksumMismatch));

        // Shape 4: absurd length field.
        let mut oversized = intact.clone();
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        oversized.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &oversized).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.torn, Some(TornTail::OversizedLength(u32::MAX)));

        // Reopening at valid_len truncates the tail and appends cleanly.
        std::fs::write(&path, &torn).unwrap();
        let mut w = WalWriter::open_at(&path, good_len, FsyncPolicy::Always).unwrap();
        w.append(b"after-repair").unwrap();
        w.commit().unwrap();
        drop(w);
        let s = scan(&path).unwrap();
        assert_eq!(s.torn, None);
        assert_eq!(s.records.len(), 3);
        assert_eq!(s.records[2], b"after-repair");
    }

    #[test]
    fn header_validation_rejects_foreign_files() {
        let dir = test_dir("wal_header");
        let path = dir.join("not-a-wal");
        std::fs::write(&path, b"PNG\x89 pretending").unwrap();
        assert!(scan(&path).is_err());
        std::fs::write(&path, b"FG").unwrap();
        assert!(scan(&path).is_err());
        // Right magic, wrong kind byte.
        let mut h = Vec::new();
        write_header(&mut h, KIND_SNAPSHOT);
        std::fs::write(&path, &h).unwrap();
        assert!(scan(&path).is_err());
        // Future version.
        let mut h = Vec::new();
        write_header(&mut h, KIND_WAL);
        h[5] = 0xFF;
        h[6] = 0xFF;
        std::fs::write(&path, &h).unwrap();
        assert!(scan(&path).is_err());
    }

    #[test]
    fn fsync_policy_parsing() {
        // Pure parser — no env manipulation (tests run in parallel).
        assert_eq!(
            FsyncPolicy::parse(Some("always")),
            Some(FsyncPolicy::Always)
        );
        assert_eq!(FsyncPolicy::parse(Some("never")), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse(Some("every=3")),
            Some(FsyncPolicy::EveryN(3))
        );
        assert_eq!(
            FsyncPolicy::parse(Some("every=1")),
            Some(FsyncPolicy::EveryN(1))
        );
        // Rejected: zero group size, garbage, empty, unset.
        assert_eq!(FsyncPolicy::parse(Some("every=0")), None);
        assert_eq!(FsyncPolicy::parse(Some("every=")), None);
        assert_eq!(FsyncPolicy::parse(Some("every=-2")), None);
        assert_eq!(FsyncPolicy::parse(Some("EVERY=2")), None);
        assert_eq!(FsyncPolicy::parse(Some("")), None);
        assert_eq!(FsyncPolicy::parse(None), None);
    }
}
