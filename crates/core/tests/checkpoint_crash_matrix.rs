//! Checkpoint crash matrix: a fault at *every* I/O operation of a
//! checkpoint under the WAL budget and of a compaction, for every fault kind
//! the failpoint layer injects — a crash (with and without a torn
//! half-write), a short write, ENOSPC, and a failed fsync.
//!
//! For each `(kind, operation)` pair a durable database replays the same
//! seeded prefix over a [`FaultyIo`] armed at that operation, attempts the
//! checkpoint, is dropped, and is recovered through a *fresh* handle, as a
//! restarted process would be. The oracle:
//!
//! * the fault fired inside the checkpoint (never in the prefix, never not
//!   at all), and surfaced as a typed error or was tolerated — no panic;
//! * the recovered database is observationally equal to an undamaged
//!   in-memory twin at the acknowledged prefix (a checkpoint acknowledges
//!   no interval, so that is every interval stepped);
//! * both continue on the same seeded trajectory for 8 more intervals, and
//!   a checkpoint after that recovers to the twin again — the files a fault
//!   left behind (a torn base tmp file, a stale WAL, a missing WAL) are
//!   healthy once recovery reopened them.
//!
//! A checkpoint under budget has one operation, the WAL's fsync, and none
//! at all when group commit left the WAL clean. The file-level cases
//! recovery must classify — torn tails, stale records, patch logs an older
//! store left (`fixtures/parent_store`, see `legacy_store.rs`) — are pinned
//! one by one in `fgdb-durability`'s store tests. The property test at the
//! bottom drives random inserts, deletes, updates, index creations and
//! variable flips through checkpoints, compactions and restarts, and holds
//! the full encoding of every recovered base to the state it was written
//! from, byte for byte.

use fgdb_core::fixtures::{biased_token_pdb, relabel_proposer};
use fgdb_core::{CheckpointKind, DurabilityConfig, DurablePdb, FsyncPolicy, ProbabilisticDB};
use fgdb_durability::format::{BindingRec, ChainStateRec};
use fgdb_durability::{
    encode_snapshot, test_dir, DurableStore, FaultKind, FaultPoint, FaultSchedule, FaultyIo,
    IntervalRecord, Snapshot, StoreIo,
};
use fgdb_graph::{Domain, FactorGraph, VariableId, World};
use fgdb_relational::parser::paper_sql;
use fgdb_relational::{tuple, Database, DeltaSet, Relation, RowId, Schema, Value, ValueType};
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

/// Ten 64-slot chunks, two walk steps per interval: a base of ≈25 KB,
/// far above the WAL the prefix logs, so its checkpoints stay under budget.
const N_TOKENS: usize = 640;
const DOC_SIZE: usize = 8;
const K: usize = 2;
const SEED: u64 = 0xC4EC_5EED;
/// Intervals before the first checkpoint, and again before the one under
/// test.
const SEGMENT: usize = 3;

fn cfg() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::Always,
    }
}

#[derive(Clone, Copy, Debug)]
enum Checkpoint {
    /// `checkpoint()` with the WAL under budget, over the served default
    /// of group commit every 8, so the prefix leaves the WAL dirty.
    UnderBudget,
    /// `compact()` with every commit synced.
    Compaction,
}

impl Checkpoint {
    fn run(self, d: &mut DurablePdb<Arc<FactorGraph>>) -> Result<(), fgdb_core::DurableError> {
        match self {
            Checkpoint::UnderBudget => d.checkpoint(),
            Checkpoint::Compaction => d.compact(),
        }
    }

    fn kind(self) -> CheckpointKind {
        match self {
            Checkpoint::UnderBudget => CheckpointKind::Wal,
            Checkpoint::Compaction => CheckpointKind::Base,
        }
    }

    fn config(self) -> DurabilityConfig {
        match self {
            Checkpoint::UnderBudget => DurabilityConfig {
                fsync: FsyncPolicy::EveryN(8),
            },
            Checkpoint::Compaction => cfg(),
        }
    }
}

/// Operation counters of a [`FaultyIo`], by fault class.
#[derive(Clone, Copy, Debug)]
struct Ops {
    all: u64,
    writes: u64,
    syncs: u64,
}

impl Ops {
    fn of(fio: &FaultyIo) -> Ops {
        Ops {
            all: fio.ops(),
            writes: fio.writes(),
            syncs: fio.syncs(),
        }
    }

    /// The counter a fault of `kind` is scheduled against.
    fn class(self, kind: FaultKind) -> u64 {
        match kind {
            FaultKind::Crash { .. } => self.all,
            FaultKind::ShortWrite | FaultKind::WriteErr => self.writes,
            FaultKind::SyncErr => self.syncs,
        }
    }
}

/// The seeded prefix: mount, a segment of intervals, one checkpoint under
/// budget (so the WAL spans a checkpoint), another segment. Every interval
/// is acknowledged.
fn prefix(io: Arc<dyn StoreIo>, dir: &Path, which: Checkpoint) -> DurablePdb<Arc<FactorGraph>> {
    let mut d = biased_token_pdb(N_TOKENS, DOC_SIZE, SEED)
        .open_durable_with_io(io, dir, which.config())
        .unwrap();
    for _ in 0..SEGMENT {
        d.step(K).unwrap();
    }
    d.checkpoint().unwrap();
    assert_eq!(d.last_checkpoint().unwrap().kind, CheckpointKind::Wal);
    for _ in 0..SEGMENT {
        d.step(K).unwrap();
    }
    d
}

/// The undamaged twin at the acknowledged prefix.
fn twin() -> ProbabilisticDB<Arc<FactorGraph>> {
    let mut t = biased_token_pdb(N_TOKENS, DOC_SIZE, SEED);
    for _ in 0..2 * SEGMENT {
        t.step(K).unwrap();
    }
    t
}

fn recover(dir: &Path) -> DurablePdb<Arc<FactorGraph>> {
    let model = Arc::clone(twin().model());
    ProbabilisticDB::recover(dir, model, relabel_proposer(N_TOKENS), cfg())
        .unwrap_or_else(|e| panic!("recovery through a fresh handle failed: {e}"))
        .0
}

fn assert_equal(
    a: &ProbabilisticDB<Arc<FactorGraph>>,
    b: &ProbabilisticDB<Arc<FactorGraph>>,
    at: &str,
) {
    assert_eq!(a.world().assignment(), b.world().assignment(), "{at}");
    assert_eq!(a.steps_taken(), b.steps_taken(), "{at}");
    assert_eq!(a.kernel_stats(), b.kernel_stats(), "{at}");
    a.check_synchronized().unwrap();
    for sql in [
        paper_sql::query1("TOKEN"),
        paper_sql::query2("TOKEN"),
        paper_sql::query3("TOKEN"),
        paper_sql::query4("TOKEN"),
    ] {
        assert_eq!(
            a.query(&sql).unwrap().rows.sorted_entries(),
            b.query(&sql).unwrap().rows.sorted_entries(),
            "{at}: {sql}"
        );
    }
}

/// The checkpoint's operations, counted on a clean run: the prefix's
/// counters, and the checkpoint's own.
fn dry_run(which: Checkpoint) -> (Ops, Ops) {
    let fio = FaultyIo::new(FaultSchedule::none());
    let mut d = prefix(Arc::new(fio.clone()), &test_dir("matrix-dry"), which);
    let before = Ops::of(&fio);
    which.run(&mut d).unwrap();
    assert_eq!(d.last_checkpoint().unwrap().kind, which.kind());
    let after = Ops::of(&fio);
    let during = Ops {
        all: after.all - before.all,
        writes: after.writes - before.writes,
        syncs: after.syncs - before.syncs,
    };
    (before, during)
}

fn matrix(which: Checkpoint) {
    let (before, during) = dry_run(which);
    match which {
        // The group-commit tail is dirty: its fsync is the checkpoint, and
        // nothing is created or written.
        Checkpoint::UnderBudget => assert_eq!(
            (during.all, during.writes, during.syncs),
            (1, 0, 1),
            "{which:?}"
        ),
        // Under `Always` the last commit left the WAL clean, so the
        // compaction syncs only what it writes: at least the base and the
        // new WAL's header.
        Checkpoint::Compaction => assert!(
            during.writes >= 2 && during.syncs >= 2,
            "{which:?}: {during:?}"
        ),
    }
    let mut cases = 0;
    for kind in [
        FaultKind::Crash {
            partial_write: true,
        },
        FaultKind::Crash {
            partial_write: false,
        },
        FaultKind::ShortWrite,
        FaultKind::WriteErr,
        FaultKind::SyncErr,
    ] {
        for i in 1..=during.class(kind) {
            let at = format!("{which:?}, {kind} at checkpoint operation {i}");
            let dir = test_dir("matrix");
            let fio = FaultyIo::new(FaultSchedule::new(vec![FaultPoint {
                at: before.class(kind) + i,
                kind,
            }]));
            let mut d = prefix(Arc::new(fio.clone()), &dir, which);
            assert!(fio.fired().is_empty(), "{at}: fired in the prefix");
            // Typed error or tolerated (a failed directory fsync only
            // weakens the rename's durability) — never a panic.
            let _ = which.run(&mut d);
            assert_eq!(fio.fired().len(), 1, "{at}: did not fire");
            drop(d);

            let mut recovered = recover(&dir);
            let mut t = twin();
            assert_equal(recovered.pdb(), &t, &at);
            for _ in 0..8 {
                recovered.step(K).unwrap();
                t.step(K).unwrap();
            }
            assert_equal(recovered.pdb(), &t, &at);
            recovered.checkpoint().unwrap();
            drop(recovered);
            assert_equal(recover(&dir).pdb(), &t, &at);
            cases += 1;
        }
    }
    // Under budget: a crash at the WAL's fsync (torn or not) and a failed
    // fsync. A compaction is eight operations (three creates and renames,
    // two writes, three syncs): 2 × 8 crashes + 2 × 2 write faults + 3
    // sync faults.
    match which {
        Checkpoint::UnderBudget => assert_eq!(cases, 3),
        Checkpoint::Compaction => assert!(cases >= 16, "only {cases} cases"),
    }
}

#[test]
fn every_fault_at_the_wal_sync_of_a_checkpoint_under_budget_recovers_to_the_twin() {
    matrix(Checkpoint::UnderBudget);
}

#[test]
fn every_fault_at_every_operation_of_a_compaction_recovers_to_the_twin() {
    matrix(Checkpoint::Compaction);
}

#[test]
fn after_a_restart_nothing_is_written_until_the_budget_is_reached() {
    let dir = test_dir("matrix-restart");
    drop(prefix(
        fgdb_durability::real_io(),
        &dir,
        Checkpoint::UnderBudget,
    ));
    let fio = FaultyIo::new(FaultSchedule::none());
    let model = Arc::clone(twin().model());
    let (mut d, report) = ProbabilisticDB::recover_with_io(
        Arc::new(fio.clone()),
        &dir,
        model,
        relabel_proposer(N_TOKENS),
        cfg(),
    )
    .unwrap();
    assert_eq!(report.replayed, 2 * SEGMENT as u64);
    let mut t = twin();
    let (mut kept, mut base_bytes) = (0, 0);
    loop {
        d.step(K).unwrap();
        t.step(K).unwrap();
        let (ops, syncs) = (fio.ops(), fio.syncs());
        d.checkpoint().unwrap();
        let report = *d.last_checkpoint().unwrap();
        if report.kind == CheckpointKind::Base {
            assert!(report.wal_bytes > base_bytes, "{report:?}");
            break;
        }
        // The WAL sync is the only operation: no file created or written.
        base_bytes = report.base_bytes;
        assert!(report.wal_bytes <= base_bytes, "{report:?}");
        assert_eq!(fio.ops() - ops, fio.syncs() - syncs, "{report:?}");
        kept += 1;
    }
    // The base is ≈25 KB, an interval record a few hundred bytes.
    assert!(kept >= 50, "compacted after {kept} checkpoints");
    drop(d);
    assert_equal(recover(&dir).pdb(), &t, "after the compaction");
}

// ------------------------------------------------------------ property ----

/// One step of the random store workload.
#[derive(Clone, Debug)]
enum Op {
    /// Insert `(key, label)` into `T` (skipped when the key exists).
    Insert(i64, u8),
    /// Delete the `n`-th live row of `T` (modulo its size).
    Delete(u16),
    /// Rewrite the label of the `n`-th live row of `T`.
    Update(u16, u8),
    /// Create a secondary index on column `c` of `T`.
    Index(u8),
    /// Flip bound variable `v` and write it through to `V`.
    Flip(u16),
    /// Checkpoint; with `true`, restart from recovery afterwards.
    Checkpoint(bool),
    /// Compact; with `true`, restart from recovery afterwards.
    Compact(bool),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..400, 0u8..3).prop_map(|(k, l)| Op::Insert(k, l)),
        any::<u16>().prop_map(Op::Delete),
        (any::<u16>(), 0u8..3).prop_map(|(n, l)| Op::Update(n, l)),
        (1u8..3).prop_map(Op::Index),
        any::<u16>().prop_map(Op::Flip),
        (0i64..400, 0u8..3).prop_map(|(k, l)| Op::Insert(k, l)),
        any::<u16>().prop_map(Op::Flip),
        any::<bool>().prop_map(Op::Checkpoint),
        any::<bool>().prop_map(Op::Compact),
    ]
}

const LABELS: [&str; 3] = ["O", "B-PER", "B-ORG"];
const BOUND: usize = 150;

/// `T(id, s, label)` with 100 rows, and `V(id, label)` whose `label`
/// column is bound to one variable per row.
fn initial() -> Snapshot {
    let mut db = Database::new();
    let t = Schema::from_pairs(&[
        ("id", ValueType::Int),
        ("s", ValueType::Str),
        ("label", ValueType::Str),
    ])
    .unwrap()
    .with_primary_key("id")
    .unwrap();
    db.create_relation("T", t).unwrap();
    for i in 0..100i64 {
        db.relation_mut("T")
            .unwrap()
            .insert(tuple![i, "x", "O"])
            .unwrap();
    }
    let v = Schema::from_pairs(&[("id", ValueType::Int), ("label", ValueType::Str)])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
    db.create_relation("V", v).unwrap();
    let rows: Vec<u32> = (0..BOUND as i64)
        .map(|i| {
            db.relation_mut("V")
                .unwrap()
                .insert(tuple![i, "O"])
                .unwrap()
                .0
        })
        .collect();
    let dom = Domain::of_labels(&LABELS);
    Snapshot {
        seq: 0,
        db,
        world: World::new(vec![dom; BOUND]),
        chain: ChainStateRec {
            steps_taken: 0,
            rng: [7; 32],
            proposals: 0,
            accepted: 0,
            factors_evaluated: 0,
            neighborhood_scores: 0,
        },
        binding: BindingRec {
            relation: Arc::from("V"),
            column: 1,
            rows,
        },
    }
}

fn table(s: &mut Snapshot) -> &mut Relation {
    s.db.relation_mut("T").unwrap()
}

/// The `n`-th live row of `T`, modulo its size.
fn nth_live(s: &Snapshot, n: u16) -> Option<RowId> {
    let rows: Vec<RowId> = s.db.relation("T").unwrap().iter().map(|(r, _)| r).collect();
    rows.get(usize::from(n) % rows.len().max(1)).copied()
}

/// Applies a data op to `s`; false for checkpoint ops and no-ops.
fn apply(s: &mut Snapshot, op: &Op) -> bool {
    match *op {
        Op::Insert(k, l) => table(s)
            .insert(tuple![k, "y", LABELS[usize::from(l)]])
            .is_ok(),
        Op::Delete(n) => nth_live(s, n).is_some_and(|r| table(s).delete(r).is_ok()),
        Op::Update(n, l) => nth_live(s, n).is_some_and(|r| {
            table(s)
                .update_field(r, 2, Value::str(LABELS[usize::from(l)]))
                .is_ok()
        }),
        Op::Index(c) => {
            let col = ["id", "s", "label"][usize::from(c)];
            table(s).create_index(col).unwrap();
            true
        }
        Op::Flip(n) => {
            let var = VariableId(u32::from(n) % BOUND as u32);
            let next = (s.world.get(var) + 1) % LABELS.len();
            s.world.set(var, next);
            let value = s.world.value(var).clone();
            let row = RowId(s.binding.rows[var.index()]);
            s.db.relation_mut("V")
                .unwrap()
                .update_field(row, 1, value)
                .unwrap();
            true
        }
        Op::Checkpoint(_) | Op::Compact(_) => false,
    }
}

/// A WAL record standing in for the interval that made a data op: the
/// store persists it, recovery hands it back, nothing here replays it.
fn interval(seq: u64) -> IntervalRecord {
    IntervalRecord {
        seq,
        changes: Vec::new(),
        delta: DeltaSet::new(),
        chain: ChainStateRec {
            steps_taken: seq,
            rng: [7; 32],
            proposals: seq,
            accepted: 0,
            factors_evaluated: 0,
            neighborhood_scores: 0,
        },
    }
}

/// Runs `ops` and returns how many checkpoints kept the WAL and how many
/// wrote a base. The data ops bypass the log (their records are
/// placeholders recovery cannot replay), so each recovered base is held
/// byte for byte to the state it was written from, and a restart first
/// compacts what the WAL holds into a base.
fn run_ops(ops: &[Op]) -> Result<(usize, usize), TestCaseError> {
    let dir = test_dir("matrix-prop");
    let never = DurabilityConfig {
        fsync: FsyncPolicy::Never,
    };
    let mut live = initial();
    let mut store = DurableStore::create(&dir, &live, never).unwrap();
    // The state the current base was written from.
    let mut based = encode_snapshot(&live);
    let mut base_seq = live.seq;
    let (mut kept, mut compacted) = (0, 0);
    for op in ops {
        if apply(&mut live, op) {
            live.seq += 1;
            live.chain.steps_taken = live.seq;
            live.chain.proposals = live.seq;
            store.append_interval(&interval(live.seq)).unwrap();
            continue;
        }
        let restart = match *op {
            Op::Checkpoint(restart) => {
                store.checkpoint(&live).unwrap();
                restart
            }
            Op::Compact(restart) => {
                store.compact(&live).unwrap();
                restart
            }
            _ => continue,
        };
        match store.last_checkpoint().unwrap().kind {
            CheckpointKind::Wal => kept += 1,
            CheckpointKind::Base => {
                compacted += 1;
                (based, base_seq) = (encode_snapshot(&live), live.seq);
            }
        }
        drop(store);
        let (back, records, reopened, _) = DurableStore::recover(&dir, never).unwrap();
        prop_assert_eq!(back.seq, base_seq);
        prop_assert_eq!(encode_snapshot(&back), based.clone());
        let logged: Vec<u64> = records.iter().map(|r| r.seq).collect();
        prop_assert_eq!(logged, (base_seq + 1..=live.seq).collect::<Vec<_>>());
        store = reopened;
        if restart {
            if !records.is_empty() {
                store.compact(&live).unwrap();
                compacted += 1;
                (based, base_seq) = (encode_snapshot(&live), live.seq);
                drop(store);
                let (_, _, reopened, _) = DurableStore::recover(&dir, never).unwrap();
                store = reopened;
            }
            // Continue from the recovered base, as a restarted process
            // would.
            let (back, records, reopened, _) = {
                drop(store);
                DurableStore::recover(&dir, never).unwrap()
            };
            prop_assert!(records.is_empty());
            prop_assert_eq!(encode_snapshot(&back), encode_snapshot(&live));
            live = back;
            store = reopened;
        }
    }
    // A final compaction covers whatever the run left in the WAL.
    store.compact(&live).unwrap();
    drop(store);
    let (back, records, _, report) = DurableStore::recover(&dir, never).unwrap();
    prop_assert!(records.is_empty());
    prop_assert_eq!(encode_snapshot(&back), encode_snapshot(&live));
    prop_assert!(report.snapshot_seq == live.seq && kept + compacted <= 2 * ops.len());
    Ok((kept, compacted))
}

proptest! {
    #[test]
    fn recovered_state_encodes_byte_equal_to_the_live_state(
        ops in prop::collection::vec(op(), 1..60),
    ) {
        run_ops(&ops)?;
    }
}

#[test]
fn the_property_sees_every_checkpoint_shape() {
    // A fixed run that keeps the WAL, compacts past the budget and on
    // demand, restarts, re-indexes and reuses freed slots — so the property
    // is not vacuous at low case counts.
    let mut ops = Vec::new();
    for i in 0..40u16 {
        ops.push(Op::Flip(i * 7));
        ops.push(Op::Delete(i));
        ops.push(Op::Insert(500 + i64::from(i), (i % 3) as u8));
        if i % 5 == 0 {
            ops.push(Op::Checkpoint(i % 10 == 0));
        }
        if i == 17 {
            ops.push(Op::Index(2));
            ops.push(Op::Compact(true));
        }
    }
    let (kept, compacted) = run_ops(&ops).unwrap();
    assert!(
        kept > 0 && compacted > 1,
        "{kept} kept, {compacted} compacted"
    );
}
