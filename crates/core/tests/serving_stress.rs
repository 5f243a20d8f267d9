//! Multi-threaded stress test of the serving core's snapshot-isolation
//! contract.
//!
//! N reader threads hammer a [`LiveSampler`] through clone-cheap
//! [`EpochReader`] handles while the sampler publishes epochs as fast as
//! it can. Each reader loops over the four paper queries and asserts, on
//! every iteration:
//!
//! * **Pinned repeatability** — re-running a query against a pinned
//!   [`EpochSnapshot`] returns byte-identical answers no matter how many
//!   epochs the sampler publishes meanwhile.
//! * **World consistency** — within any one pinned epoch, the label
//!   partition of TOKEN sums to exactly `n_tokens` (a torn read across a
//!   publication would break the sum).
//! * **Epoch monotonicity** — successive `pin()` calls on one reader
//!   never observe the epoch counter going backwards.
//! * **Bounded staleness** — the pinned epoch is never more than
//!   `3 · publish_every` samples behind the live counter read just before
//!   the pin (the bound `ServingConfig::publish_every` documents).
//!
//! Thread count defaults low enough for the 1-core CI container; the
//! nightly-deep job raises it via `FGDB_STRESS_THREADS`.

use fgdb_core::fixtures::biased_token_pdb;
use fgdb_core::{EpochReader, LiveSampler, ServingConfig};
use fgdb_relational::parser::paper_sql;
use fgdb_relational::{compile_query, execute, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const N_TOKENS: usize = 30;
const PUBLISH_EVERY: usize = 1;

fn stress_threads() -> usize {
    std::env::var("FGDB_STRESS_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// One reader thread's loop: pin, interrogate the pinned world, verify
/// invariants, repeat until the flag drops. Returns how many pinned
/// epochs it verified.
fn reader_loop(reader: EpochReader, queries: Arc<Vec<String>>, done: Arc<AtomicBool>) -> u64 {
    let partition_sql = "SELECT label, COUNT(*) FROM TOKEN GROUP BY label";
    let mut last_epoch = 0u64;
    let mut verified = 0u64;
    // Keep going until the main thread says stop, but always verify at
    // least a few epochs — on a loaded 1-core box the sampler can hit the
    // epoch target before a reader finishes its first iteration.
    while !done.load(Ordering::Acquire) || verified < 3 {
        let live = reader.status().samples;
        let snap = reader.pin();

        // Staleness: the sampler runs at most three epochs ahead of what
        // a reader can pin.
        assert!(
            live.saturating_sub(snap.samples) <= 3 * PUBLISH_EVERY as u64,
            "pinned epoch at {} samples, {live} drawn before the pin",
            snap.samples
        );

        // Epoch monotonicity per reader.
        assert!(
            snap.epoch >= last_epoch,
            "epoch went backwards: {} after {last_epoch}",
            snap.epoch
        );
        last_epoch = snap.epoch;

        // Pinned repeatability across all four paper queries: the answer
        // to a pinned epoch must be a pure function of the snapshot.
        for sql in queries.iter() {
            let first = snap.query(sql).expect("paper query on pinned epoch");
            let again = snap.query(sql).expect("repeat on pinned epoch");
            assert_eq!(
                first.rows.sorted_entries(),
                again.rows.sorted_entries(),
                "pinned answer drifted for {sql}"
            );
        }

        // World consistency: the label partition covers every token
        // exactly once — a torn snapshot would over- or under-count.
        let plan = compile_query(partition_sql, snap.database()).expect("compile partition");
        let (partition, _) = execute(&plan, snap.database()).expect("run partition");
        let total: i64 = partition
            .rows
            .sorted_entries()
            .iter()
            .map(|(tuple, _)| match tuple.values()[1] {
                Value::Int(n) => n,
                ref v => panic!("COUNT(*) should be an int, got {v:?}"),
            })
            .sum();
        assert_eq!(
            total, N_TOKENS as i64,
            "label partition must sum to n_tokens"
        );

        verified += 1;
    }
    verified
}

#[test]
fn concurrent_readers_see_consistent_pinned_epochs() {
    let pdb = biased_token_pdb(N_TOKENS, 6, 0x57AE55);
    let q2 = paper_sql::query2("TOKEN");
    let sampler = LiveSampler::spawn(
        pdb,
        &[("q2", q2.as_str())],
        ServingConfig {
            thinning: 10,
            publish_every: PUBLISH_EVERY,
            window: 64,
            ..Default::default()
        },
    )
    .expect("spawn sampler");

    let queries = Arc::new(vec![
        paper_sql::query1("TOKEN"),
        paper_sql::query2("TOKEN"),
        paper_sql::query3("TOKEN"),
        paper_sql::query4("TOKEN"),
    ]);
    let done = Arc::new(AtomicBool::new(false));
    let start_epoch = sampler.reader().status().epoch;

    let readers: Vec<_> = (0..stress_threads())
        .map(|i| {
            let reader = sampler.reader();
            let queries = Arc::clone(&queries);
            let done = Arc::clone(&done);
            std::thread::Builder::new()
                .name(format!("stress-reader-{i}"))
                .spawn(move || reader_loop(reader, queries, done))
                .expect("spawn reader")
        })
        .collect();

    // Run until the sampler has published a healthy number of epochs under
    // reader pressure (not wall-clock, so the test scales with the box).
    let target = start_epoch + 30;
    while sampler.reader().status().epoch < target {
        std::thread::yield_now();
    }
    done.store(true, Ordering::Release);

    let mut total_verified = 0;
    for handle in readers {
        total_verified += handle.join().expect("reader thread must not panic");
    }
    assert!(
        total_verified > 0,
        "readers must have verified at least one pinned epoch"
    );

    // The sampler survived the stampede and still stops cleanly, and its
    // registered query kept accumulating diagnostics throughout.
    let status = sampler
        .reader()
        .pin()
        .status("q2")
        .expect("registered query status")
        .clone();
    assert!(status.window_len >= 30);
    let pdb = sampler.stop().expect("clean stop after stress");
    assert!(pdb.steps_taken() > 0);
}
