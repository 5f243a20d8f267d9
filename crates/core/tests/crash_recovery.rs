//! Crash-recovery integration suite: the acceptance test of the durability
//! tentpole.
//!
//! Scenario under test: a durable probabilistic database is killed
//! mid-interval — simulated by a *torn write*, i.e. the WAL's final record
//! frame is only partially on disk — and then recovered with
//! `ProbabilisticDB::recover`. The recovered database must be
//! observationally identical to an *undamaged twin* that ran the same
//! seeded chain and stopped at the last committed interval:
//!
//! * same stored tuples, row ids, and free slots (checked byte-for-byte by
//!   re-snapshotting both sides into identical files);
//! * same answers to the four paper queries (tier-1 query parity);
//! * same kernel statistics and step counts;
//! * the same *subsequent* MCMC trajectory: stepping both sides onward
//!   produces identical deltas, worlds, and marginal tables, interval for
//!   interval.

use fgdb_core::{DurabilityConfig, FsyncPolicy, ProbabilisticDB, QueryEvaluator};
use fgdb_graph::FactorGraph;
use fgdb_relational::parser::paper_sql;
use fgdb_relational::{DeltaSet, Tuple};
use std::path::Path;
use std::sync::Arc;

const N_TOKENS: usize = 24;
const DOC_SIZE: usize = 6;
const K: usize = 40; // walk steps per thinning interval

/// The shared fig8-style TOKEN fixture (same workload as the `durability`
/// bench binary, so CI's recovery smoke and this acceptance suite cannot
/// drift apart).
fn build_pdb(seed: u64) -> ProbabilisticDB<Arc<FactorGraph>> {
    fgdb_core::fixtures::biased_token_pdb(N_TOKENS, DOC_SIZE, seed)
}

fn proposer() -> Box<fgdb_mcmc::UniformRelabel> {
    fgdb_core::fixtures::relabel_proposer(N_TOKENS)
}

fn model_of(pdb: &ProbabilisticDB<Arc<FactorGraph>>) -> Arc<FactorGraph> {
    Arc::clone(pdb.model())
}

fn delta_entries(d: &DeltaSet) -> Vec<(String, Vec<(Tuple, i64)>)> {
    d.relations()
        .map(|r| {
            (
                r.to_string(),
                d.for_relation(r).expect("nonempty").sorted_entries(),
            )
        })
        .collect()
}

/// Asserts every observable of `a` equals `b`: world, counters,
/// synchronization, and the four paper queries.
fn assert_observationally_equal(
    a: &ProbabilisticDB<Arc<FactorGraph>>,
    b: &ProbabilisticDB<Arc<FactorGraph>>,
) {
    assert_eq!(a.world().assignment(), b.world().assignment());
    assert_eq!(a.steps_taken(), b.steps_taken());
    assert_eq!(a.kernel_stats(), b.kernel_stats());
    a.check_synchronized().unwrap();
    b.check_synchronized().unwrap();
    for sql in [
        paper_sql::query1("TOKEN"),
        paper_sql::query2("TOKEN"),
        paper_sql::query3("TOKEN"),
        paper_sql::query4("TOKEN"),
    ] {
        let ra = a.query(&sql).unwrap();
        let rb = b.query(&sql).unwrap();
        assert_eq!(
            ra.rows.sorted_entries(),
            rb.rows.sorted_entries(),
            "query parity failed for {sql}"
        );
    }
}

/// Tears the WAL at `dir`: keeps `keep_fraction` of the bytes past the last
/// committed prefix... simpler: truncates the final record frame in half.
fn tear_last_record(dir: &Path, bytes_before_last: u64) {
    let wal = dir.join("wal.fgdb");
    let full = std::fs::read(&wal).unwrap();
    assert!(
        (full.len() as u64) > bytes_before_last,
        "the last interval must have appended bytes"
    );
    let tail = full.len() as u64 - bytes_before_last;
    let cut = bytes_before_last + tail / 2;
    std::fs::write(&wal, &full[..cut as usize]).unwrap();
}

#[test]
fn torn_write_crash_recovers_to_undamaged_twin() {
    let dir = fgdb_durability::test_dir("crash-torn");
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Never, // sync explicitly; keeps the test fast
    };

    // The durable database and its in-memory twin run the same seeds.
    let seed_pdb = build_pdb(1234);
    let model = model_of(&seed_pdb);
    let mut durable = seed_pdb.open_durable(&dir, cfg).unwrap();
    let mut twin = build_pdb(1234);

    const COMMITTED: usize = 6;
    for _ in 0..COMMITTED {
        let d_delta = durable.step(K).unwrap();
        let t_delta = twin.step(K).unwrap();
        assert_eq!(delta_entries(&d_delta), delta_entries(&t_delta));
    }
    durable.sync().unwrap();
    let committed_len = std::fs::metadata(dir.join("wal.fgdb")).unwrap().len();

    // One more interval that will be *torn*: the process dies mid-append.
    durable.step(K).unwrap();
    drop(durable); // flushes the full record; the tear below undoes half
    tear_last_record(&dir, committed_len);

    // Recover. The torn interval must be discarded and truncated away.
    let (recovered, report) =
        ProbabilisticDB::recover(&dir, Arc::clone(&model), proposer(), cfg).unwrap();
    assert_eq!(report.replayed, COMMITTED as u64);
    assert!(report.torn.is_some(), "the torn tail must be detected");
    assert!(report.truncated_bytes > 0);

    // Tier-1 parity with the undamaged twin at the last committed interval.
    assert_observationally_equal(recovered.pdb(), &twin);

    // Byte-identical state: re-snapshotting both sides produces identical
    // snapshot files (modulo nothing — same seq, same bytes).
    let dir_a = fgdb_durability::test_dir("crash-resnap-a");
    let dir_b = fgdb_durability::test_dir("crash-resnap-b");
    let snap_a = recovered.into_inner().open_durable(&dir_a, cfg).unwrap();
    let snap_b = twin.open_durable(&dir_b, cfg).unwrap();
    let bytes_a = std::fs::read(dir_a.join("snapshot.fgdb")).unwrap();
    let bytes_b = std::fs::read(dir_b.join("snapshot.fgdb")).unwrap();
    assert_eq!(bytes_a, bytes_b, "recovered and twin snapshots differ");

    // The subsequent seeded trajectory is identical, interval for interval.
    let mut recovered = snap_a;
    let mut twin = snap_b.into_inner();
    for _ in 0..8 {
        let d = recovered.step(K).unwrap();
        let t = twin.step(K).unwrap();
        assert_eq!(delta_entries(&d), delta_entries(&t));
        assert_eq!(recovered.world().assignment(), twin.world().assignment());
    }
    assert_observationally_equal(recovered.pdb(), &twin);
}

#[test]
fn recovery_after_checkpoint_replays_only_the_wal_suffix() {
    let dir = fgdb_durability::test_dir("crash-checkpoint");
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Never,
    };
    let seed_pdb = build_pdb(77);
    let model = model_of(&seed_pdb);
    let mut durable = seed_pdb.open_durable(&dir, cfg).unwrap();
    let mut twin = build_pdb(77);

    for _ in 0..4 {
        durable.step(K).unwrap();
        twin.step(K).unwrap();
    }
    durable.checkpoint().unwrap();
    for _ in 0..3 {
        durable.step(K).unwrap();
        twin.step(K).unwrap();
    }
    durable.sync().unwrap();
    drop(durable);

    let (recovered, report) =
        ProbabilisticDB::recover(&dir, Arc::clone(&model), proposer(), cfg).unwrap();
    assert_eq!(report.snapshot_seq, 4);
    assert_eq!(
        report.replayed, 3,
        "only the post-checkpoint suffix replays"
    );
    assert!(report.torn.is_none());
    assert_observationally_equal(recovered.pdb(), &twin);
}

#[test]
fn recovered_marginal_evaluation_matches_twin() {
    // Algorithm 1 driven through the durable path (step → observe) must
    // produce the same marginal table as the classic in-memory loop on the
    // twin — before *and* after a crash boundary.
    let dir = fgdb_durability::test_dir("crash-marginals");
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::EveryN(4), // exercise group commit
    };
    let seed_pdb = build_pdb(5150);
    let model = model_of(&seed_pdb);
    let sql = paper_sql::query1("TOKEN");

    let mut durable = seed_pdb.open_durable(&dir, cfg).unwrap();
    let mut d_eval = QueryEvaluator::materialized_sql(&sql, durable.pdb(), K).unwrap();
    let mut twin = build_pdb(5150);
    let mut t_eval = QueryEvaluator::materialized_sql(&sql, &twin, K).unwrap();

    for _ in 0..5 {
        let delta = durable.step(K).unwrap();
        d_eval.observe(&delta, durable.database()).unwrap();
        t_eval.sample(&mut twin).unwrap();
    }
    assert_eq!(d_eval.marginals().as_map(), t_eval.marginals().as_map());
    durable.sync().unwrap();
    drop(durable);

    // Crash boundary: recover and rebuild the evaluator (marginals are
    // derived state; what must survive is the world that generates them).
    let (mut recovered, _) =
        ProbabilisticDB::recover(&dir, Arc::clone(&model), proposer(), cfg).unwrap();
    let mut r_eval = QueryEvaluator::materialized_sql(&sql, recovered.pdb(), K).unwrap();
    let mut t2_eval = QueryEvaluator::materialized_sql(&sql, &twin, K).unwrap();
    for _ in 0..5 {
        let delta = recovered.step(K).unwrap();
        r_eval.observe(&delta, recovered.database()).unwrap();
        t2_eval.sample(&mut twin).unwrap();
    }
    assert_eq!(r_eval.marginals().as_map(), t2_eval.marginals().as_map());
    assert_observationally_equal(recovered.pdb(), &twin);
}

#[test]
fn recovery_is_repeatable() {
    // Recovering twice from the same directory yields the same state: the
    // first recovery only truncates garbage, never valid records.
    let dir = fgdb_durability::test_dir("crash-repeat");
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Never,
    };
    let mut durable = build_pdb(9).open_durable(&dir, cfg).unwrap();
    durable.step(K).unwrap();
    durable.sync().unwrap();
    drop(durable);

    let (recovered, _) =
        ProbabilisticDB::recover(&dir, model_of(&build_pdb(9)), proposer(), cfg).unwrap();
    recovered.pdb().check_synchronized().unwrap();

    let (again, report) =
        ProbabilisticDB::recover(&dir, model_of(&build_pdb(9)), proposer(), cfg).unwrap();
    assert_eq!(report.replayed, 1);
    assert_eq!(again.world().assignment(), recovered.world().assignment());
    assert_eq!(again.kernel_stats(), recovered.kernel_stats());
}

#[test]
fn open_durable_refuses_to_clobber_an_existing_store() {
    let dir = fgdb_durability::test_dir("crash-clobber");
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Never,
    };
    let durable = build_pdb(1).open_durable(&dir, cfg).unwrap();
    drop(durable);
    assert!(build_pdb(1).open_durable(&dir, cfg).is_err());
}

#[test]
fn every_n_group_commit_is_flushed_by_close() {
    // Regression: under group commit (`EveryN`), acknowledged intervals sit
    // in the pending fsync group until the N-th commit. An orderly shutdown
    // must flush that group *and surface the flush result* — `close()` is
    // the observable version of what Drop can only attempt silently.
    let dir = fgdb_durability::test_dir("crash-group-close");
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::EveryN(64),
    };
    let seed_pdb = build_pdb(77);
    let model = model_of(&seed_pdb);
    let mut durable = seed_pdb.open_durable(&dir, cfg).unwrap();
    let mut twin = build_pdb(77);

    // 5 < 64: every interval of this run lives in one pending group.
    for _ in 0..5 {
        durable.step(K).unwrap();
        twin.step(K).unwrap();
    }
    let closed = durable.close().unwrap();
    assert_observationally_equal(&closed, &twin);

    let (recovered, report) = ProbabilisticDB::recover(&dir, model, proposer(), cfg).unwrap();
    assert_eq!(report.replayed, 5, "no interval of the pending group lost");
    assert_eq!(report.truncated_bytes, 0);
    assert_observationally_equal(recovered.pdb(), &twin);
}

#[test]
fn every_n_checkpoint_flushes_the_pending_group() {
    // Regression: `checkpoint()` must fsync the pending group *before*
    // replacing the snapshot — a crash right after the checkpoint (no Drop,
    // no explicit sync) may lose nothing that was acknowledged before it.
    let dir = fgdb_durability::test_dir("crash-group-ckpt");
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::EveryN(1000),
    };
    let seed_pdb = build_pdb(4242);
    let model = model_of(&seed_pdb);
    let mut durable = seed_pdb.open_durable(&dir, cfg).unwrap();
    let mut twin = build_pdb(4242);

    for _ in 0..3 {
        durable.step(K).unwrap();
        twin.step(K).unwrap();
    }
    durable.checkpoint().unwrap();
    // Two more acknowledged-but-unsynced intervals after the checkpoint,
    // then the process "dies" without running any destructor.
    for _ in 0..2 {
        durable.step(K).unwrap();
        twin.step(K).unwrap();
    }
    std::mem::forget(durable);

    let (recovered, report) = ProbabilisticDB::recover(&dir, model, proposer(), cfg).unwrap();
    // The snapshot carries seqs 1-3; the WAL replays the post-checkpoint
    // tail. A process crash loses no committed interval (the WAL is not
    // user-space buffered between commits); only the fsync horizon moves.
    assert_eq!(report.snapshot_seq, 3);
    assert_eq!(report.replayed, 2);
    assert_observationally_equal(recovered.pdb(), &twin);
}

#[test]
fn a_flipped_logged_delta_row_fails_replay_with_divergence() {
    // The replay cross-check: rewrite one logged delta row (its label, to
    // a string of the same length), re-frame the record with a valid
    // checksum, and recovery must refuse the log rather than trust either
    // side.
    use fgdb_durability::{checksum::crc32, wal, IntervalRecord};
    use fgdb_relational::{CountedSet, Value};
    use std::collections::BTreeMap;

    let dir = fgdb_durability::test_dir("crash-flipped-delta");
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Always,
    };
    let seed_pdb = build_pdb(606);
    let model = model_of(&seed_pdb);
    let mut durable = seed_pdb.open_durable(&dir, cfg).unwrap();
    for _ in 0..4 {
        durable.step(K).unwrap();
    }
    drop(durable.close().unwrap());

    let path = dir.join(fgdb_durability::store::WAL_FILE);
    let bytes = std::fs::read(&path).unwrap();
    let mut out = bytes[..wal::HEADER_LEN as usize].to_vec();
    for (i, payload) in wal::scan(&path).unwrap().records.iter().enumerate() {
        let mut rec = IntervalRecord::decode(payload).unwrap();
        if i == 2 {
            let mut parts = BTreeMap::new();
            for rel in rec.delta.relations() {
                let mut set = CountedSet::new();
                for (k, (t, c)) in rec
                    .delta
                    .for_relation(rel)
                    .unwrap()
                    .sorted_entries()
                    .into_iter()
                    .enumerate()
                {
                    let mut values = t.values().to_vec();
                    if k == 0 {
                        let label = values[3].as_str().unwrap().to_lowercase();
                        values[3] = Value::str(label.as_str());
                    }
                    set.add(Tuple::new(values), c);
                }
                parts.insert(Arc::clone(rel), set);
            }
            rec.delta = DeltaSet::from_parts(parts);
        }
        let payload = rec.encode();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    std::fs::write(&path, &out).unwrap();

    match ProbabilisticDB::recover(&dir, model, proposer(), cfg) {
        Err(e) => assert!(e.to_string().contains("replay divergence at seq 3"), "{e}"),
        Ok(_) => panic!("a flipped delta row must not recover"),
    }
}
