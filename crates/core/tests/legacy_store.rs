//! Stores written while checkpoints were chunk patches still recover.
//!
//! `fixtures/parent_store` was written by that release (its README holds
//! the program and the command): the 192-token `biased_token_pdb`, a base,
//! two chunk-patch checkpoints of one walk step each and a three-interval
//! WAL tail, plus the step count, kernel statistics and `encode_snapshot`
//! bytes of the live state it ended in. Recovery applies the patches and
//! replays the WAL to exactly that state, and the first compaction retires
//! the patch log.

use fgdb_core::fixtures::{biased_token_pdb, relabel_proposer};
use fgdb_core::{DurabilityConfig, FsyncPolicy, ProbabilisticDB};
use fgdb_durability::store::{PATCH_FILE, SNAPSHOT_FILE, WAL_FILE};
use fgdb_durability::{encode_snapshot, read_snapshot, test_dir};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const N_TOKENS: usize = 192;
const DOC_SIZE: usize = 4;
const SEED: u64 = 0xF1C5;

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_store")
}

fn cfg() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::Always,
    }
}

#[test]
fn a_store_with_chunk_patches_recovers_to_the_recorded_state() {
    let dir = test_dir("legacy-store");
    for f in [SNAPSHOT_FILE, PATCH_FILE, WAL_FILE] {
        std::fs::copy(fixture().join(f), dir.join(f)).unwrap();
    }
    let model = Arc::clone(biased_token_pdb(N_TOKENS, DOC_SIZE, SEED).model());
    let (mut d, report) =
        ProbabilisticDB::recover(&dir, model, relabel_proposer(N_TOKENS), cfg()).unwrap();
    assert_eq!(
        (
            report.base_seq,
            report.patches,
            report.snapshot_seq,
            report.replayed
        ),
        (0, 2, 2, 3)
    );
    assert!(report.torn.is_none());

    // The chain identity the writer recorded, and the world of a twin that
    // took the same steps (two intervals of one step, three of two).
    let identity = format!("{} {:?}\n", d.steps_taken(), d.kernel_stats());
    let recorded = std::fs::read_to_string(fixture().join("expected.identity")).unwrap();
    assert_eq!(identity, recorded);
    let mut twin = biased_token_pdb(N_TOKENS, DOC_SIZE, SEED);
    for k in [1, 1, 2, 2, 2] {
        twin.step(k).unwrap();
    }
    assert_eq!(d.world().assignment(), twin.world().assignment());
    d.pdb().check_synchronized().unwrap();

    // A compaction writes the recovered state as the base: its encoding is
    // the recorded one, byte for byte, and no patch is live after it.
    d.compact().unwrap();
    let recorded = std::fs::read(fixture().join("expected.snapshot")).unwrap();
    assert_eq!(encode_snapshot(&read_snapshot(&dir).unwrap()), recorded);
    drop(d);
    let header = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    assert_eq!(
        std::fs::metadata(dir.join(PATCH_FILE)).unwrap().len(),
        header
    );
    let model = Arc::clone(twin.model());
    let (d, report) =
        ProbabilisticDB::recover(&dir, model, relabel_proposer(N_TOKENS), cfg()).unwrap();
    assert_eq!(
        (
            report.base_seq,
            report.patches,
            report.stale_patches,
            report.replayed
        ),
        (5, 0, 0, 0)
    );
    assert_eq!(d.world().assignment(), twin.world().assignment());
}
