#![warn(missing_docs)]
//! # fgdb-durability — write-ahead log + snapshot persistence
//!
//! The paper pitches its system as a *database*, and a database survives a
//! crash. This crate makes the fgdb reproduction durable: every committed
//! thinning interval of `ProbabilisticDB::step` — the Δ⁻/Δ⁺ delta set plus
//! the net variable changes and the post-interval chain position — is
//! appended to a checksummed, length-prefixed [write-ahead log](wal). The
//! log is the incremental checkpoint: a checkpoint syncs it, and only when
//! it has outgrown the [base snapshot](store::write_snapshot) does a
//! checkpoint persist the deterministic store, world, and RNG state as a
//! new base and empty the log. Recovery replays the base and the WAL (and
//! the chunk patches an older store may have left) to a state whose query
//! answers, kernel statistics, and *subsequent seeded MCMC trajectory* are
//! identical to a process that never crashed.
//!
//! Layers:
//!
//! * [`checksum`] — CRC-32/ISO-HDLC record checksums (slicing-by-8);
//! * [`io`] — the failpoint seam: every persisted byte goes through a
//!   [`StoreIo`], either the real filesystem or a seeded fault injector
//!   ([`FaultyIo`]) that tears writes, fails fsyncs, and simulates
//!   crash-at-syscall-K for the chaos suite;
//! * [`mod@format`] — the hand-rolled versioned binary encoding of every
//!   persisted structure (`Value`, `Tuple`, `Schema`, `Relation`,
//!   `Database`, `CountedSet`, `DeltaSet`, `World`, chain state, binding).
//!   `docs/FORMAT.md` is the normative byte-level description; the
//!   round-trip property suite cross-checks the two;
//! * [`wal`] — framed record append with group-commit fsync batching
//!   ([`wal::FsyncPolicy`]) and torn-tail detection, shared by the WAL and
//!   the legacy patch log;
//! * [`store`] — the base + WAL directory, crash-safe checkpointing and
//!   compaction, and the recovery scan
//!   ([`store::DurableStore::recover`]).
//!
//! The crate deliberately depends only on `fgdb-relational` and
//! `fgdb-graph`: chain state crosses the boundary as plain data
//! ([`format::ChainStateRec`]), and `fgdb-core` (which owns the live
//! `Chain`) maps it to and from the sampler. Nothing here comes from
//! crates.io — the encoding, checksums, and file protocol are all local,
//! per the workspace's offline-dependency policy.

pub mod checksum;
pub mod format;
pub mod io;
pub mod store;
pub mod wal;

pub use format::{BindingRec, ChainStateRec, FormatError, NetChangeRec};
pub use io::{real_io, FaultKind, FaultPoint, FaultSchedule, FaultyIo, RealIo, StoreFile, StoreIo};
pub use store::{
    encode_snapshot, read_snapshot, write_snapshot, CheckpointKind, CheckpointReport,
    DurabilityConfig, DurabilityError, DurableStore, IntervalRecord, LoggedInterval,
    RecoveryReport, Snapshot, SnapshotRef, WAL_BASE_MULTIPLE,
};
pub use wal::{FsyncPolicy, TornTail, WalScan};

/// Creates a unique, empty scratch directory for tests and benches. Placed
/// under the workspace `target/tmp/` when the calling binary lives in a
/// cargo `target/` tree (the normal case for test and bench executables),
/// and under the system temp directory otherwise. Callers treat the
/// directory as disposable; nothing cleans it eagerly so failures can be
/// inspected.
#[doc(hidden)]
pub fn test_dir(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let target_tmp = std::env::current_exe().ok().and_then(|exe| {
        exe.ancestors()
            .find(|p| p.file_name().is_some_and(|n| n == "target"))
            .map(|t| t.join("tmp"))
    });
    let base = target_tmp.unwrap_or_else(std::env::temp_dir);
    let unique = format!(
        "fgdb-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let dir = base.join(unique);
    // lint:allow(panic, test-scratch helper reachable only from tests and benches)
    std::fs::create_dir_all(&dir).expect("create test scratch dir");
    dir
}
