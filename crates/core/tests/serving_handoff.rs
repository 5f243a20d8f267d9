//! The sampler → maintainer hand-off of the served loop, on both hosts
//! ([`LiveSampler`] and [`SupervisedSampler`]) at several publication
//! intervals. A reader thread pins every epoch it can while the loop runs
//! and holds each to what the epoch itself carries:
//!
//! * every registered status's answer is `execute(plan, epoch.database())`
//!   — the maintainer published the answer of exactly the store the
//!   sampler stamped the batch with;
//! * epoch numbers and sample counts rise strictly;
//! * the marginals count exactly the intervals the epoch has seen (plus
//!   the initial answer, Algorithm 1's first sample).
//!
//! Each loop runs long enough to time both arrangements of its two stages
//! (the maintainer on its own thread, then inline, twice) and go on with
//! the faster one, so the hand-off is checked across each switch too.
//!
//! After `stop()` the terminal epoch has seen every interval drawn, and
//! its marginals are bit-identical to a single-threaded replay of the same
//! seed through [`QueryEvaluator::observe`]: the two stages draw the same
//! chain and observe it in the same order as one loop would.

use fgdb_core::fixtures::{biased_token_pdb, relabel_proposer};
use fgdb_core::supervise::{ModelFactory, SupervisedSampler, SupervisorConfig};
use fgdb_core::{EpochReader, EpochSnapshot, LiveSampler, QueryEvaluator, ServingConfig};
use fgdb_durability::{DurabilityConfig, FsyncPolicy};
use fgdb_graph::FactorGraph;
use fgdb_relational::parser::paper_sql;
use fgdb_relational::{compile_query, execute, Tuple};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const N_TOKENS: usize = 120;
const DOC_SIZE: usize = 6;
const SEED: u64 = 0x4A4D;
const THINNING: usize = 5;
/// Intervals drawn before the loop is stopped (at least): past the loop's
/// trial of both arrangements of its two stages (four runs of 256
/// intervals, rounded up to whole batches), into the one it keeps.
const INTERVALS: u64 = 1_100;

fn queries() -> Vec<(String, String)> {
    vec![
        ("q1".into(), paper_sql::query1("TOKEN")),
        ("q2".into(), paper_sql::query2("TOKEN")),
        ("q3".into(), paper_sql::query3("TOKEN")),
        ("q4".into(), paper_sql::query4("TOKEN")),
    ]
}

fn config(publish_every: usize) -> ServingConfig {
    ServingConfig {
        thinning: THINNING,
        publish_every,
        window: 32,
        ..ServingConfig::default()
    }
}

/// Bits of `(tuple, probability)` pairs, so equality is bit-for-bit.
fn bits<'a>(xs: impl Iterator<Item = (&'a [fgdb_relational::Value], f64)>) -> Vec<(Tuple, u64)> {
    xs.map(|(vs, p)| (Tuple::from_slice(vs), p.to_bits()))
        .collect()
}

/// The epoch's registered statuses against its own store and its own
/// sample count.
fn check_epoch(snap: &EpochSnapshot) {
    for status in snap.registered() {
        let plan = compile_query(&status.sql, snap.database()).unwrap();
        let (result, _) = execute(&plan, snap.database()).unwrap();
        let answer: Vec<(Tuple, i64)> = status
            .answer()
            .map(|(vs, c)| (Tuple::from_slice(vs), c))
            .collect();
        assert_eq!(
            answer,
            result.rows.sorted_entries(),
            "{} at epoch {}: the answer is not the epoch store's",
            status.name,
            snap.epoch
        );
        assert_eq!(
            status.samples,
            snap.samples + 1,
            "{} at epoch {}: marginals count other intervals than the epoch saw",
            status.name,
            snap.epoch
        );
    }
}

/// Pins every epoch it can until `done` rises, then pins once more (the
/// terminal epoch, when `done` follows `stop()`). Returns the epochs seen.
fn watch(reader: EpochReader, done: Arc<AtomicBool>) -> u64 {
    let mut last: Option<(u64, u64)> = None;
    let mut seen = 0;
    loop {
        let finished = done.load(Ordering::Acquire);
        let snap = reader.pin();
        if last.map(|(epoch, _)| epoch) != Some(snap.epoch) {
            if let Some((epoch, samples)) = last {
                assert!(snap.epoch > epoch, "epoch {} after {epoch}", snap.epoch);
                assert!(
                    snap.samples > samples,
                    "epoch {}: {} samples after {samples}",
                    snap.epoch,
                    snap.samples
                );
            }
            check_epoch(&snap);
            last = Some((snap.epoch, snap.samples));
            seen += 1;
        }
        if finished {
            return seen;
        }
        std::thread::yield_now();
    }
}

/// The terminal epoch against a single-threaded replay of the same seed:
/// every interval drawn, marginals and answers bit for bit.
fn check_terminal(terminal: &EpochSnapshot, steps_taken: u64) {
    assert_eq!(
        terminal.steps, steps_taken,
        "the terminal epoch lags the chain"
    );
    assert_eq!(terminal.samples * THINNING as u64, steps_taken);
    assert!(terminal.samples >= INTERVALS);
    let mut pdb = biased_token_pdb(N_TOKENS, DOC_SIZE, SEED);
    let mut evals: Vec<QueryEvaluator> = queries()
        .iter()
        .map(|(_, sql)| QueryEvaluator::materialized_sql(sql, &pdb, THINNING).unwrap())
        .collect();
    for _ in 0..terminal.samples {
        let delta = pdb.step(THINNING).unwrap();
        for eval in &mut evals {
            eval.observe(&delta, pdb.database()).unwrap();
        }
    }
    for (status, eval) in terminal.registered().iter().zip(&evals) {
        let want: Vec<(Tuple, u64)> = eval
            .marginals()
            .probabilities()
            .into_iter()
            .map(|(t, p)| (t, p.to_bits()))
            .collect();
        assert_eq!(bits(status.marginals()), want, "{} marginals", status.name);
        let answer: Vec<(Tuple, i64)> = status
            .answer()
            .map(|(vs, c)| (Tuple::from_slice(vs), c))
            .collect();
        assert_eq!(answer, eval.current_answer().unwrap().sorted_entries());
    }
}

/// Runs `reader`'s loop past [`INTERVALS`] under a watching thread, stops
/// it with `stop`, and checks the terminal epoch.
fn drive(reader: EpochReader, stop: impl FnOnce() -> u64) {
    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let (reader, done) = (reader.clone(), Arc::clone(&done));
        std::thread::spawn(move || watch(reader, done))
    };
    while reader.status().samples < INTERVALS {
        std::thread::yield_now();
    }
    let steps_taken = stop();
    done.store(true, Ordering::Release);
    let seen = watcher.join().expect("the watcher's checks hold");
    assert!(seen >= 2, "the watcher saw {seen} epochs");
    check_terminal(&reader.pin(), steps_taken);
}

const PUBLISH_EVERY: [usize; 4] = [1, 2, 3, 8];

#[test]
fn live_sampler_hands_off_every_interval_in_order() {
    for every in PUBLISH_EVERY {
        let q = queries();
        let named: Vec<(&str, &str)> = q.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let pdb = biased_token_pdb(N_TOKENS, DOC_SIZE, SEED);
        let sampler = LiveSampler::spawn(pdb, &named, config(every)).unwrap();
        drive(sampler.reader(), || sampler.stop().unwrap().steps_taken());
    }
}

#[test]
fn supervised_sampler_hands_off_every_interval_in_order() {
    for every in PUBLISH_EVERY {
        let q = queries();
        let named: Vec<(&str, &str)> = q.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let dir = fgdb_durability::test_dir("serving_handoff");
        let pdb = biased_token_pdb(N_TOKENS, DOC_SIZE, SEED);
        let model = Arc::clone(pdb.model());
        let durable = pdb
            .open_durable(
                &dir,
                DurabilityConfig {
                    fsync: FsyncPolicy::Never,
                },
            )
            .unwrap();
        let factory: ModelFactory<Arc<FactorGraph>> =
            Box::new(move || (Arc::clone(&model), relabel_proposer(N_TOKENS)));
        let config = SupervisorConfig {
            serving: config(every),
            checkpoint_every: 16,
            ..SupervisorConfig::default()
        };
        let sampler = SupervisedSampler::spawn(durable, &named, config, factory).unwrap();
        drive(sampler.reader(), || sampler.stop().unwrap().steps_taken());
    }
}
