//! Property suite for published statuses: an epoch's [`EpochStatus`],
//! patched from the output-delta rows and crossings since the previous
//! epoch, must be indistinguishable from the status the previous build
//! published — a clone of the answer and the marginal table's sorted
//! `probabilities()` — and must cost what changed.
//!
//! The oracle is that old construction, kept here: a [`QueryStatus`] of
//! `answer.clone()` and `marginals.probabilities()`, encoded by the same
//! `status_frame`. Streams are seeded random *signed answer deltas* with
//! random publication points, so multiplicities above one, negative
//! support, leave-then-re-enter and empty epochs all occur, over a small
//! universe (collisions) and a large one (many chunks, splits); the case
//! count follows `PROPTEST_CASES` like the workspace's property suites. At
//! every publication:
//!
//! * the published answer iterates equal to `answer.sorted_entries()`, and
//!   the published marginals to `probabilities()` by `f64::to_bits`;
//! * the `STATUS` frame is byte-identical to the oracle's;
//! * the table copied at most one chunk per changed row, plus one per
//!   split: `chunks not shared with the previous epoch ≤ m + growth`.

use fgdb_core::{crossings, Crossing, EpochStatus, MarginalTable, QueryStatus, StatusTable};
use fgdb_relational::{tuple, CountedSet, Tuple};
use fgdb_serve::protocol::status_frame;
use fgdb_serve::EpochMeta;
use std::sync::Arc;

const META: EpochMeta = EpochMeta {
    epoch: 9,
    steps: 900,
    samples: 9,
};

/// The live side of one registered query, as the sampler thread holds it.
struct Live {
    answer: CountedSet,
    marginals: MarginalTable,
    table: StatusTable,
    touched: Vec<Tuple>,
}

impl Live {
    fn new(initial: CountedSet) -> Live {
        let mut marginals = MarginalTable::new();
        let entering = marginals.diff(&initial);
        marginals.record_crossings(&entering);
        let table = StatusTable::build(&initial, &marginals);
        Live {
            answer: initial,
            marginals,
            table,
            touched: Vec::new(),
        }
    }

    /// One interval: the view's output delta merged into the answer, its
    /// crossings into the marginals, its tuples into the touched rows.
    fn step(&mut self, delta: &CountedSet) {
        self.answer.merge(delta);
        let crossed: Vec<Crossing> = crossings(delta, &self.answer).collect();
        self.marginals.record_crossings(&crossed);
        self.touched.extend(delta.iter().map(|(t, _)| t.clone()));
    }

    /// Publishes, returning the status and the distinct touched rows `m`.
    fn publish(&mut self) -> (EpochStatus, usize) {
        let mut named = self.touched.clone();
        named.sort();
        named.dedup();
        self.table
            .patch(&mut self.touched, &self.answer, &self.marginals);
        assert!(self.touched.is_empty());
        let status = EpochStatus {
            name: Arc::from("q1"),
            sql: Arc::from("SELECT string FROM TOKEN WHERE label = 'B-PER'"),
            columns: vec![Arc::from("string")].into(),
            table: self.table.clone(),
            samples: self.marginals.samples(),
            r_hat: 1.0625,
            min_ess: 31.5,
            window_len: 64,
            converged: true,
        };
        (status, named.len())
    }

    /// The previous build's status: the answer cloned, the marginal
    /// support collected and sorted.
    fn oracle(&self, status: &EpochStatus) -> QueryStatus {
        QueryStatus {
            name: Arc::clone(&status.name),
            sql: Arc::clone(&status.sql),
            columns: status.columns.to_vec(),
            answer: self.answer.clone(),
            marginals: self.marginals.probabilities(),
            r_hat: status.r_hat,
            min_ess: status.min_ess,
            window_len: status.window_len,
            converged: status.converged,
        }
    }

    fn check(&self, status: &EpochStatus, at: &str) {
        let answer: Vec<(Tuple, i64)> = status
            .answer()
            .map(|(vs, c)| (Tuple::from_slice(vs), c))
            .collect();
        assert_eq!(status.answer().len(), answer.len(), "{at}");
        assert_eq!(answer, self.answer.sorted_entries(), "{at}");
        let bits = |xs: Vec<(Tuple, f64)>| -> Vec<(Tuple, u64)> {
            xs.into_iter().map(|(t, p)| (t, p.to_bits())).collect()
        };
        let marginals: Vec<(Tuple, f64)> = status
            .marginals()
            .map(|(vs, p)| (Tuple::from_slice(vs), p))
            .collect();
        assert_eq!(status.marginals().len(), marginals.len(), "{at}");
        assert_eq!(
            bits(marginals),
            bits(self.marginals.probabilities()),
            "{at}"
        );
        let oracle = self.oracle(status);
        assert_eq!(
            status_frame(&META, status).unwrap(),
            status_frame(&META, &oracle).unwrap(),
            "{at}"
        );
    }
}

/// A consolidated signed delta over a universe of `universe` tuples.
fn delta_of(changes: &[(u16, i64)], universe: u16) -> CountedSet {
    let mut delta = CountedSet::new();
    for &(i, w) in changes {
        delta.add(tuple![i64::from(i % universe)], w);
    }
    delta
}

/// Drives `stream`, publishing after every step whose flag is set, and
/// checks every publication against the oracle and the copy bound.
fn drive(initial: &[(u16, i64)], stream: &[(Vec<(u16, i64)>, bool)], universe: u16, at: &str) {
    let mut live = Live::new(delta_of(initial, universe));
    let (mut prev, _) = live.publish();
    live.check(&prev, at);
    for (i, (changes, publish)) in stream.iter().enumerate() {
        live.step(&delta_of(changes, universe));
        if !publish {
            continue;
        }
        let (cur, m) = live.publish();
        let at = format!("{at}, step {i}");
        live.check(&cur, &at);
        let fresh = cur.table.chunks_not_shared_with(&prev.table);
        let growth = cur.table.chunk_count() as i64 - prev.table.chunk_count() as i64;
        assert!(
            fresh as i64 <= m as i64 + growth.max(0),
            "{at}: {fresh} chunks copied for {m} changed rows ({} → {} chunks)",
            prev.table.chunk_count(),
            cur.table.chunk_count()
        );
        prev = cur;
    }
}

/// Cases per random suite: `PROPTEST_CASES` when set, else `default`.
fn cases(default: u64) -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// xorshift64: the suites' deterministic stream of draws.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n.max(1)
    }

    /// `n` signed changes over `universe` with weights in `-w..=w`.
    fn changes(&mut self, n: u64, universe: u16, w: i64) -> Vec<(u16, i64)> {
        (0..n)
            .map(|_| {
                let i = self.below(u64::from(universe)) as u16;
                let weight = self.below(2 * w as u64 + 1) as i64 - w;
                (i, weight)
            })
            .collect()
    }
}

/// One random case: an initial answer of up to `max_initial` rows, then up
/// to `max_steps` deltas of up to `max_changes` rows, each published with
/// probability ½.
fn random_case(seed: u64, universe: u16, max_initial: u64, max_steps: u64, max_changes: u64) {
    let mut d = Draws(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let n = d.below(max_initial + 1);
    let initial: Vec<(u16, i64)> = d
        .changes(n, universe, 2)
        .into_iter()
        .map(|(i, w)| (i, w.abs().max(1)))
        .collect();
    let steps = 1 + d.below(max_steps);
    let stream: Vec<(Vec<(u16, i64)>, bool)> = (0..steps)
        .map(|_| {
            let n = d.below(max_changes + 1);
            (d.changes(n, universe, 3), d.below(2) == 0)
        })
        .collect();
    drive(&initial, &stream, universe, &format!("seed {seed}"));
}

/// Small universe: collisions, cancellations, re-entry, negative and
/// multiple multiplicities, in one or two chunks.
#[test]
fn published_statuses_equal_the_clone_and_sort_construction() {
    for seed in 0..cases(256) {
        random_case(seed, 16, 10, 60, 5);
    }
}

/// Large universe: hundreds of rows, so patches land in many chunks and
/// chunks split.
#[test]
fn published_statuses_stay_equal_across_many_chunks() {
    for seed in 0..cases(32) {
        random_case(seed ^ 0x5EED, 3000, 600, 40, 40);
    }
}

/// Re-entry, multiplicity above one, a negative multiplicity, and an empty
/// epoch, spelled out; an empty epoch copies nothing at all.
#[test]
fn reentry_multiplicity_and_an_empty_epoch() {
    let x = |w: i64| vec![(0u16, w)];
    let stream: Vec<(Vec<(u16, i64)>, bool)> = vec![
        (x(1), true),          // 1 → 2: still present
        (x(-2), true),         // 2 → 0: leaves
        (x(1), false),         // re-enters…
        (vec![], true),        // …published with an empty step
        (vec![(2, -1)], true), // −1: in the answer, never a marginal
        (vec![], true),        // an empty epoch
        (vec![(2, 2)], true),  // −1 → 1: enters
    ];
    drive(&[(0, 1), (1, 1)], &stream, 16, "targeted");

    let mut live = Live::new(delta_of(&[(0, 1), (1, 1)], 16));
    let (prev, _) = live.publish();
    let (cur, m) = live.publish();
    assert_eq!(m, 0);
    assert_eq!(cur.table.chunks_not_shared_with(&prev.table), 0);
    assert_eq!(
        cur.answer()
            .map(|(vs, c)| (Tuple::from_slice(vs), c))
            .collect::<Vec<_>>(),
        vec![(tuple![0i64], 1), (tuple![1i64], 1)]
    );
}

/// At 12 000 rows and one changed row per epoch, a publication copies one
/// chunk of the ≈190 — a count, not a timing.
#[test]
fn a_publication_copies_the_chunks_its_rows_changed() {
    let initial: Vec<(u16, i64)> = (0..12_000u16).map(|i| (i, 1)).collect();
    let mut live = Live::new(delta_of(&initial, 12_000));
    let (mut prev, _) = live.publish();
    assert!(prev.table.chunk_count() >= 12_000 / StatusTable::CHUNK_ROWS);
    for i in 0..50u16 {
        live.step(&delta_of(&[(i * 211, -1)], 12_000));
        let (cur, m) = live.publish();
        assert_eq!(m, 1);
        assert_eq!(cur.table.chunks_not_shared_with(&prev.table), 1);
        prev = cur;
    }
    live.check(&prev, "12 000 rows");
}
