//! Chaos suite: seeded fault schedules driven through the failpoint I/O
//! layer, asserting the PR-5 recovery oracle under *injected* damage
//! instead of hand-torn files.
//!
//! Each schedule seeds a [`FaultSchedule`] that arms one deterministic
//! fault — a short write, an ENOSPC, a failed fsync, or a crash that
//! kills the I/O handle mid-syscall — at a pseudo-random operation
//! index. A durable database runs lock-step with an undamaged in-memory
//! twin until the fault fires (every storage failure must surface as a
//! typed error, never a panic), then the directory is recovered through
//! a fresh I/O handle, exactly as a restarted process would. The oracle,
//! for every seed:
//!
//! * **no acknowledged interval is lost** — recovery replays at least as
//!   many intervals as `step` acknowledged before the fault;
//! * **post-recovery ≡ undamaged twin** — the recovered database is
//!   observationally identical (world, counters, synchronization, the
//!   four paper queries) to the twin advanced to the same interval
//!   count;
//! * the recovered chain continues on the twin's exact trajectory.
//!
//! Knobs: `FGDB_CHAOS_SCHEDULES` (seeds per run, default 8) and
//! `FGDB_CHAOS_SEED` (base seed, default fixed) — the nightly sweep
//! widens both; any failure message carries the seed for replay.

use fgdb_core::supervise::{ModelFactory, SupervisedSampler, SupervisorConfig};
use fgdb_core::{
    DurabilityConfig, DurablePdb, FsyncPolicy, ProbabilisticDB, SamplerState, ServingConfig,
};
use fgdb_durability::{FaultKind, FaultSchedule, FaultyIo, StoreIo};
use fgdb_graph::FactorGraph;
use fgdb_relational::parser::paper_sql;
use std::sync::Arc;

const N_TOKENS: usize = 24;
const DOC_SIZE: usize = 6;
const K: usize = 40; // walk steps per thinning interval
const MAX_INTERVALS: usize = 20;
const CHECKPOINT_EVERY: usize = 5;
/// Operation window the scheduled fault index is drawn from. Sized so
/// most schedules fire inside the run (~1 write + 1 fsync per interval
/// plus mount and checkpoint traffic) while some stay clean — clean runs
/// must satisfy the same oracle.
const OP_WINDOW: u64 = 48;

fn build_pdb(seed: u64) -> ProbabilisticDB<Arc<FactorGraph>> {
    fgdb_core::fixtures::biased_token_pdb(N_TOKENS, DOC_SIZE, seed)
}

fn proposer() -> Box<fgdb_mcmc::UniformRelabel> {
    fgdb_core::fixtures::relabel_proposer(N_TOKENS)
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// The shared observational-equality oracle (same checks as the
/// crash-recovery acceptance suite).
fn assert_observationally_equal(
    a: &ProbabilisticDB<Arc<FactorGraph>>,
    b: &ProbabilisticDB<Arc<FactorGraph>>,
    seed: u64,
) {
    assert_eq!(
        a.world().assignment(),
        b.world().assignment(),
        "world divergence under schedule seed {seed:#x}"
    );
    assert_eq!(a.steps_taken(), b.steps_taken(), "seed {seed:#x}");
    assert_eq!(a.kernel_stats(), b.kernel_stats(), "seed {seed:#x}");
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
            "query parity failed for {sql} under schedule seed {seed:#x}"
        );
    }
}

/// What one seeded schedule did.
enum Outcome {
    /// The fault fired mid-run (or never fired); the oracle held.
    Verified { fault_fired: bool },
    /// The fault fired while *mounting* the store — nothing durable was
    /// ever acknowledged, and recovery reported a typed error.
    MountFailed,
}

/// Runs one seeded schedule end to end and asserts the oracle.
fn run_schedule(seed: u64) -> Outcome {
    let dir = fgdb_durability::test_dir(&format!("chaos-{seed:x}"));
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Always, // every acknowledged interval is synced
    };
    let fio = FaultyIo::new(FaultSchedule::from_seed(seed, OP_WINDOW));
    let io: Arc<dyn StoreIo> = Arc::new(fio.clone());

    let chain_seed = seed ^ 0x0BAD_5EED;
    let seed_pdb = build_pdb(chain_seed);
    let model = Arc::clone(seed_pdb.model());
    let mut twin = build_pdb(chain_seed);

    let mut durable: DurablePdb<Arc<FactorGraph>> =
        match seed_pdb.open_durable_with_io(io, &dir, cfg) {
            Ok(d) => d,
            Err(_) => {
                // The fault hit the mount itself. No interval was ever
                // acknowledged, so the sound outcomes are exactly two:
                // recovery fails typed (the snapshot never landed), or
                // recovery yields the *initial* state (the snapshot
                // landed and only the fresh WAL was damaged). Anything
                // in between — or a panic — is a bug.
                if let Ok((recovered, _)) =
                    ProbabilisticDB::recover(&dir, Arc::clone(&model), proposer(), cfg)
                {
                    assert_eq!(
                        recovered.steps_taken(),
                        0,
                        "a failed mount must not acknowledge intervals, seed {seed:#x}"
                    );
                    assert_observationally_equal(recovered.pdb(), &twin, seed);
                }
                return Outcome::MountFailed;
            }
        };

    // Lock-step until the fault (or a clean finish). The twin advances
    // only on *acknowledged* intervals — it is the ground truth for what
    // recovery owes us.
    let mut acked = 0u64;
    let mut faulted = false;
    for i in 0..MAX_INTERVALS {
        match durable.step(K) {
            Ok(_) => {
                twin.step(K).unwrap();
                acked += 1;
            }
            Err(_) => {
                faulted = true;
                break;
            }
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 && durable.checkpoint().is_err() {
            // A failed checkpoint must leave the store recoverable: the
            // old snapshot and the full WAL both survive (snapshots
            // replace via tmp+rename, never in place).
            faulted = true;
            break;
        }
    }
    // Crash semantics: drop the handle (its best-effort flush may itself
    // hit the dead I/O handle — that must be swallowed, not propagated)
    // and recover through a FRESH handle, as a restarted process would.
    drop(durable);
    let (mut recovered, _report) =
        ProbabilisticDB::recover(&dir, Arc::clone(&model), proposer(), cfg)
            .unwrap_or_else(|e| panic!("recovery failed under schedule seed {seed:#x}: {e}"));

    // Oracle 1: no acknowledged interval lost. Recovery may legitimately
    // find MORE than was acknowledged (a record fully written whose
    // fsync then failed is on disk but was never acked) — never fewer.
    let recovered_intervals = recovered.steps_taken() / K as u64;
    assert!(
        recovered_intervals >= acked,
        "acked interval lost under seed {seed:#x}: acked {acked}, recovered {recovered_intervals}"
    );
    assert!(
        recovered_intervals <= acked + 1,
        "recovery fabricated intervals under seed {seed:#x}"
    );

    // Oracle 2: post-recovery ≡ undamaged twin at the same interval.
    for _ in acked..recovered_intervals {
        twin.step(K).unwrap();
    }
    assert_observationally_equal(recovered.pdb(), &twin, seed);

    // Oracle 3: the recovered chain continues on the twin's trajectory.
    for _ in 0..3 {
        recovered.step(K).unwrap();
        twin.step(K).unwrap();
    }
    assert_observationally_equal(recovered.pdb(), &twin, seed);

    Outcome::Verified {
        fault_fired: faulted || !fio.fired().is_empty(),
    }
}

#[test]
fn seeded_fault_schedules_recover_to_the_undamaged_twin() {
    let schedules = env_u64("FGDB_CHAOS_SCHEDULES", 8);
    let base = env_u64("FGDB_CHAOS_SEED", 0xC4A0_5000);
    let mut fired = 0u64;
    let mut mount_failures = 0u64;
    for i in 0..schedules {
        match run_schedule(base.wrapping_add(i)) {
            Outcome::Verified { fault_fired: true } => fired += 1,
            Outcome::Verified { fault_fired: false } => {}
            Outcome::MountFailed => mount_failures += 1,
        }
    }
    // The sweep must not be vacuous: across the default seeds at least
    // one schedule injects damage mid-run. (Widened sweeps inherit the
    // property automatically — more seeds, more firings.)
    assert!(
        fired > 0,
        "no schedule fired a fault: widen OP_WINDOW or check the seed mix \
         (base {base:#x}, {schedules} schedules, {mount_failures} mount failures)"
    );
}

// ---------------------------------------------------------------------------
// Supervised serving under repeated transient faults.
// ---------------------------------------------------------------------------

fn supervised_fixture(
    io: Arc<dyn StoreIo>,
    dir: &std::path::Path,
) -> (DurablePdb<Arc<FactorGraph>>, ModelFactory<Arc<FactorGraph>>) {
    let pdb = build_pdb(0xFEED);
    let model = Arc::clone(pdb.model());
    let durable = pdb
        .open_durable_with_io(
            io,
            dir,
            DurabilityConfig {
                fsync: FsyncPolicy::Always,
            },
        )
        .unwrap();
    let factory: ModelFactory<Arc<FactorGraph>> =
        Box::new(move || (Arc::clone(&model), proposer()));
    (durable, factory)
}

#[test]
fn supervised_sampler_rides_out_a_burst_of_transient_faults() {
    let dir = fgdb_durability::test_dir("chaos-supervised");
    let fio = FaultyIo::new(FaultSchedule::none());
    let io: Arc<dyn StoreIo> = Arc::new(fio.clone());
    let (durable, factory) = supervised_fixture(io, &dir);
    let q1 = paper_sql::query1("TOKEN");
    let config = SupervisorConfig {
        serving: ServingConfig {
            thinning: 10,
            publish_every: 2,
            window: 32,
            ..ServingConfig::default()
        },
        max_restarts: 3,
        restart_backoff_ms: 1,
        checkpoint_every: 8,
    };
    let sampler =
        SupervisedSampler::spawn(durable, &[("q1", q1.as_str())], config, factory).unwrap();
    let reader = sampler.reader();
    while reader.status().epoch < 1 {
        std::thread::yield_now();
    }
    let pinned = reader.pin();
    let pinned_rows = pinned.query(&q1).unwrap().rows.sorted_entries();

    // Three distinct transient faults, one at a time. Each must degrade,
    // recover, clear its error, and resume publishing — the restart
    // budget refills once the loop publishes an epoch after a restart,
    // so surviving one fault never borrows attempts from the next.
    for kind in [
        FaultKind::WriteErr,
        FaultKind::SyncErr,
        FaultKind::ShortWrite,
    ] {
        let fired_before = fio.fired().len();
        fio.inject_now(kind);
        // First wait for the fault to actually fire — publishing can
        // race ahead of the injection, so epoch advance alone would be a
        // vacuous signal.
        while fio.fired().len() == fired_before {
            std::thread::yield_now();
        }
        // A faulted interval is never acknowledged, so any epoch
        // published after the firing proves a successful post-recovery
        // interval: the supervisor degraded, recovered, and resumed.
        let epoch_at_fire = reader.status().epoch;
        loop {
            let status = reader.status();
            if status.epoch > epoch_at_fire
                && status.state == SamplerState::Running
                && status.error.is_none()
            {
                break;
            }
            assert_ne!(
                status.state,
                SamplerState::Failed,
                "supervisor gave up on transient {kind:?}"
            );
            std::thread::yield_now();
        }
    }

    // The epoch pinned before the burst stayed immutable throughout.
    assert_eq!(
        pinned.query(&q1).unwrap().rows.sorted_entries(),
        pinned_rows
    );

    // Orderly shutdown still works, and what it acknowledged is on disk:
    // a fresh recovery replays to the stopped sampler's exact world.
    let durable = sampler.stop().unwrap();
    durable.pdb().check_synchronized().unwrap();
    let world = durable.world().assignment().to_vec();
    let steps = durable.steps_taken();
    let model = Arc::clone(durable.pdb().model());
    drop(durable);
    let (recovered, _) = ProbabilisticDB::recover(
        &dir,
        model,
        proposer(),
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
        },
    )
    .unwrap();
    assert_eq!(recovered.world().assignment(), &world[..]);
    assert_eq!(recovered.steps_taken(), steps);
    recovered.pdb().check_synchronized().unwrap();
}
