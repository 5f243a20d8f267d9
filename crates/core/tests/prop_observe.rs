//! Property suite for Δ-proportional answer observation: a marginal table
//! and a membership log driven by the *crossings* of a view's output delta
//! must be indistinguishable from ones that re-read the whole answer every
//! sample.
//!
//! (R̂ / ESS, which the logs compute from crossing positions without a
//! dense trace, are held to a relative 1e-9 instead of bit equality, with
//! the documented sentinels and the `converged` tags exact; the served
//! window's verdict is also pinned bit for bit to the run-length fold it
//! was before it read several logs. The marginals and the window length
//! stay bit-equal.)
//!
//! The oracles are the pre-crossing implementations, kept here verbatim as
//! test-only code: per-tuple counters bumped once per answer tuple per
//! sample ([`DenseCounts`]), the dense sliding 0/1 trace store of the
//! serving loop ([`DenseWindow`]) and the unbounded one of the multi-chain
//! engine ([`DenseTraces`]), read by the dense estimators
//! ([`dense_verdict`]). Streams are random *signed answer deltas* over
//! a small universe, so multiplicities above one, negative support, empty
//! deltas and leave-then-re-enter (inside and outside the window) all occur;
//! the targeted cases at the bottom pin the ones a reader should see spelled
//! out.

use fgdb_core::fixtures::{biased_token_pdb, relabel_proposer};
use fgdb_core::{
    chain_seed, convergence_verdict, crossings, Crossing, EngineConfig, MarginalTable,
    MembershipLog, ParallelEngine, QueryEvaluator,
};
use fgdb_mcmc::diagnostics::autocorrelation;
use fgdb_mcmc::{
    effective_sample_size, effective_sample_size_runs, gelman_rubin, split_r_hat, split_r_hat_runs,
    R_HAT_DIVERGED,
};
use fgdb_relational::{tuple, CountedSet, FxHashSet, Tuple};
use proptest::prelude::*;
use std::collections::HashMap;

// ------------------------------------------------------------ oracles ----

/// The marginal table as it was: one counter bump per answer tuple per
/// sample.
#[derive(Clone, Default)]
struct DenseCounts {
    counts: HashMap<Tuple, u64>,
    samples: u64,
}

impl DenseCounts {
    fn record(&mut self, answer: &CountedSet) {
        for t in answer.support() {
            *self.counts.entry(t.clone()).or_insert(0) += 1;
        }
        self.samples += 1;
    }

    fn probabilities(&self) -> Vec<(Tuple, f64)> {
        let mut v: Vec<(Tuple, f64)> = self
            .counts
            .iter()
            .map(|(t, &c)| (t.clone(), c as f64 / self.samples.max(1) as f64))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

/// The serving loop's diagnostic window as it was: a dense 0/1 trace per
/// tuple, pushed and shifted every sample.
struct DenseWindow {
    window: usize,
    len: usize,
    rows: HashMap<Tuple, Vec<f64>>,
}

impl DenseWindow {
    fn new(window: usize) -> Self {
        DenseWindow {
            window,
            len: 0,
            rows: HashMap::new(),
        }
    }

    fn record(&mut self, answer: &CountedSet) {
        for trace in self.rows.values_mut() {
            trace.push(0.0);
        }
        for t in answer.support() {
            match self.rows.get_mut(t) {
                Some(trace) => *trace.last_mut().unwrap() = 1.0,
                None => {
                    let mut trace = vec![0.0; self.len];
                    trace.push(1.0);
                    self.rows.insert(t.clone(), trace);
                }
            }
        }
        self.len += 1;
        if self.len > self.window {
            self.len = self.window;
            self.rows.retain(|_, trace| {
                trace.remove(0);
                trace.iter().any(|&x| x != 0.0)
            });
        }
    }

    /// `MembershipLog::diagnose` as the run-length fold it was before it
    /// read several logs: per tuple, `split_r_hat_runs` and
    /// `effective_sample_size_runs` of the window trace, folded by max / min
    /// from 1.0 and the window length. A tuple the log holds no event for
    /// has a constant trace here and folds in neutrally.
    fn run_length_fold(&self) -> (f64, f64) {
        let mut max_r_hat = 1.0f64;
        let mut min_ess = self.len as f64;
        for trace in self.rows.values() {
            let ones = runs_of(trace);
            max_r_hat = max_r_hat.max(split_r_hat_runs(self.len, &ones));
            min_ess = min_ess.min(effective_sample_size_runs(self.len, &ones));
        }
        (max_r_hat, min_ess)
    }
}

/// The engine's per-chain trace store as it was: dense, unbounded, zeros
/// backfilled for tuples first seen late.
#[derive(Default)]
struct DenseTraces {
    samples: usize,
    rows: HashMap<Tuple, Vec<f64>>,
}

impl DenseTraces {
    fn record(&mut self, answer: &CountedSet) {
        for trace in self.rows.values_mut() {
            trace.push(0.0);
        }
        for t in answer.support() {
            match self.rows.get_mut(t) {
                Some(trace) => *trace.last_mut().unwrap() = 1.0,
                None => {
                    let mut trace = vec![0.0; self.samples];
                    trace.push(1.0);
                    self.rows.insert(t.clone(), trace);
                }
            }
        }
        self.samples += 1;
    }
}

/// The runs of ones of a dense 0/1 trace.
fn runs_of(xs: &[f64]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut open = None;
    for (i, &x) in xs.iter().enumerate() {
        match (x != 0.0, open) {
            (true, None) => open = Some(i),
            (false, Some(a)) => {
                runs.push((a, i));
                open = None;
            }
            _ => {}
        }
    }
    runs.extend(open.map(|a| (a, xs.len())));
    runs
}

/// [`effective_sample_size`] with the truncation test at `pair <= 1e-12`
/// instead of `pair <= 0`. At a truncation tie — a lag pair whose
/// autocorrelations cancel exactly — the run-length ESS stops where the
/// integers say, while the dense f64 sum leaves ±1e-17 of rounding noise
/// and may run on; this is the dense estimator with that noise cut off.
fn effective_sample_size_noise_cut(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 4 {
        return n as f64;
    }
    let mut rho_sum = 0.0;
    let mut k = 1;
    while k + 1 < n {
        let pair = autocorrelation(xs, k) + autocorrelation(xs, k + 1);
        if pair <= 1e-12 {
            break;
        }
        rho_sum += pair;
        k += 2;
    }
    (n as f64 / (1.0 + 2.0 * rho_sum)).min(n as f64)
}

/// One tuple's dense diagnostics across the chains.
#[derive(Clone, Copy, Debug)]
struct DenseTuple {
    r_hat: f64,
    /// ESS summed over the chains, as the dense estimator computes it and
    /// with its truncation noise cut off.
    ess: f64,
    ess_cut: f64,
    /// The R̂ / the ESS is a documented sentinel (short or constant traces).
    r_hat_sentinel: bool,
    ess_sentinel: bool,
}

/// The dense verdict over chains of 0/1 traces, each compared over the
/// first `n` samples, a tuple a chain lacks all zeros there: per tuple of
/// the union support, split-R̂ (one chain) or Gelman–Rubin R̂ (several)
/// and ESS summed over the chains.
struct DenseVerdict {
    n: usize,
    chains: usize,
    per_tuple: HashMap<Tuple, DenseTuple>,
}

fn dense_verdict(chains: &[&HashMap<Tuple, Vec<f64>>], n: usize) -> DenseVerdict {
    let zeros = vec![0.0f64; n];
    let constant = |xs: &[f64]| xs.iter().all(|&x| x == xs[0]);
    let mut per_tuple = HashMap::new();
    for t in chains.iter().flat_map(|rows| rows.keys()) {
        let traces: Vec<&[f64]> = chains
            .iter()
            .map(|rows| rows.get(t).map_or(&zeros[..], |tr| &tr[..n]))
            .collect();
        let (r_hat, r_hat_sentinel) = match traces.as_slice() {
            [only] => {
                let half = n / 2;
                let frozen = n < 4 || (constant(&only[..half]) && constant(&only[n - half..]));
                (split_r_hat(only), frozen)
            }
            _ => (
                gelman_rubin(&traces),
                n < 2 || traces.iter().all(|tr| constant(tr)),
            ),
        };
        let dense = DenseTuple {
            r_hat,
            ess: traces.iter().map(|tr| effective_sample_size(tr)).sum(),
            ess_cut: traces
                .iter()
                .map(|tr| effective_sample_size_noise_cut(tr))
                .sum(),
            r_hat_sentinel,
            ess_sentinel: n < 4 || traces.iter().all(|tr| constant(tr)),
        };
        per_tuple.insert(t.clone(), dense);
    }
    DenseVerdict {
        n,
        chains: chains.len(),
        per_tuple,
    }
}

impl DenseVerdict {
    /// Worst R̂ and smallest ESS (as is), folded from the neutral verdict.
    fn folds(&self) -> (f64, f64) {
        let values = self.per_tuple.values();
        let max_r_hat = values.clone().fold(1.0f64, |m, d| m.max(d.r_hat));
        let min_ess = values.fold((self.n * self.chains) as f64, |m, d| m.min(d.ess));
        (max_r_hat, min_ess)
    }

    /// The values the min-ESS verdict may take. Per tuple the run-length
    /// ESS equals the dense estimator either as is or with its truncation
    /// noise cut off; the verdict is the minimum of one such choice per
    /// tuple, so it is one of those per-tuple values, no larger than every
    /// tuple's larger one. Without a tie this is `folds().1` alone.
    fn min_ess_candidates(&self) -> Vec<f64> {
        let mut ceiling = (self.n * self.chains) as f64;
        let mut candidates = vec![ceiling];
        for d in self.per_tuple.values() {
            ceiling = ceiling.min(d.ess.max(d.ess_cut));
            candidates.extend([d.ess, d.ess_cut]);
        }
        candidates.retain(|&c| c <= ceiling);
        candidates
    }
}

// ------------------------------------------------------------ streams ----

/// A consolidated signed delta from `(tuple index, weight)` pairs; repeated
/// indices add up and may cancel, exactly as a view's output delta would.
fn delta_of(changes: &[(u8, i64)]) -> CountedSet {
    let mut delta = CountedSet::new();
    for &(i, w) in changes {
        delta.add(tuple![i64::from(i)], w);
    }
    delta
}

fn bits(xs: &[(Tuple, f64)]) -> Vec<(Tuple, u64)> {
    xs.iter().map(|(t, p)| (t.clone(), p.to_bits())).collect()
}

fn sorted_bits(m: HashMap<Tuple, f64>) -> Vec<(Tuple, u64)> {
    let mut v: Vec<(Tuple, u64)> = m.into_iter().map(|(t, p)| (t, p.to_bits())).collect();
    v.sort();
    v
}

/// Equal to a relative error of 1e-9.
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// One R̂ against its dense value: within 1e-9, a sentinel bit for bit,
/// and the same `converged` tag at the default gate.
fn check_r_hat(r_hat: f64, dense: f64, sentinel: bool) -> Result<(), TestCaseError> {
    prop_assert!(close(r_hat, dense), "R̂ {} vs {}", r_hat, dense);
    prop_assert_eq!(r_hat == R_HAT_DIVERGED, dense == R_HAT_DIVERGED);
    prop_assert_eq!(r_hat < 1.1, dense < 1.1, "converged tag");
    if sentinel {
        prop_assert_eq!(r_hat.to_bits(), dense.to_bits(), "R̂ sentinel");
    }
    Ok(())
}

/// A run-length verdict against the dense one: the worst R̂ as
/// [`check_r_hat`] holds it, the smallest ESS within 1e-9 of one of its
/// candidate values, both bit for bit when every tuple's is a sentinel;
/// and, when given, every per-tuple `(R̂, ESS)` the same way, over the same
/// tuples.
fn check_verdict(
    (r_hat, ess): (f64, f64),
    per_tuple: Option<&HashMap<Tuple, (f64, f64)>>,
    dense: &DenseVerdict,
) -> Result<(), TestCaseError> {
    let (dense_r_hat, dense_ess) = dense.folds();
    let all = |f: fn(&DenseTuple) -> bool| dense.per_tuple.values().all(f);
    check_r_hat(r_hat, dense_r_hat, all(|d| d.r_hat_sentinel))?;
    if all(|d| d.ess_sentinel) {
        prop_assert_eq!(ess.to_bits(), dense_ess.to_bits(), "ESS sentinel");
    }
    let candidates = dense.min_ess_candidates();
    prop_assert!(
        candidates.iter().any(|&c| close(ess, c)),
        "ESS {} vs {} (as is or noise-cut: {:?})",
        ess,
        dense_ess,
        candidates
    );
    let Some(per_tuple) = per_tuple else {
        return Ok(());
    };
    prop_assert_eq!(per_tuple.len(), dense.per_tuple.len());
    for (t, &(r_hat, ess)) in per_tuple {
        let d = dense.per_tuple.get(t);
        prop_assert!(d.is_some(), "{:?} has no dense trace", t);
        let d = d.unwrap();
        check_r_hat(r_hat, d.r_hat, d.r_hat_sentinel)?;
        prop_assert!(
            close(ess, d.ess) || close(ess, d.ess_cut),
            "ESS {} vs {} / noise-cut {} of {:?}",
            ess,
            d.ess,
            d.ess_cut,
            t
        );
        if d.ess_sentinel {
            prop_assert_eq!(ess.to_bits(), d.ess.to_bits(), "ESS sentinel");
        }
    }
    Ok(())
}

/// The served window's verdict: against the dense estimators as
/// [`check_verdict`] holds it, and bit for bit against the run-length fold.
fn check_window(log: &MembershipLog, dense: &DenseWindow) -> Result<(), TestCaseError> {
    prop_assert_eq!(log.window_len(), dense.len as u64);
    let (r_hat, ess) = log.diagnose();
    let (fold_r_hat, fold_ess) = dense.run_length_fold();
    prop_assert_eq!(r_hat.to_bits(), fold_r_hat.to_bits(), "R̂ ≠ the fold");
    prop_assert_eq!(ess.to_bits(), fold_ess.to_bits(), "ESS ≠ the fold");
    check_verdict(
        (r_hat, ess),
        None,
        &dense_verdict(&[&dense.rows], dense.len),
    )
}

/// The verdict of `logs` with its per-tuple report, keyed by tuple.
fn verdict_of(logs: &[&MembershipLog]) -> ((f64, f64), HashMap<Tuple, (f64, f64)>) {
    let mut per_tuple = HashMap::new();
    let folds = convergence_verdict(logs, |t, r_hat, ess| {
        assert!(
            per_tuple.insert(t.clone(), (r_hat, ess)).is_none(),
            "{t:?} twice"
        );
    });
    (folds, per_tuple)
}

/// Everything that watches one answer stream, old way and new way side by
/// side. `step` plays the view: it merges the delta into the answer and
/// hands each watcher what it consumes.
struct Watchers {
    answer: CountedSet,
    by_crossings: MarginalTable,
    by_full_answer: MarginalTable,
    counts: DenseCounts,
    served_log: MembershipLog,
    served_dense: DenseWindow,
    engine_log: MembershipLog,
    engine_dense: DenseTraces,
}

impl Watchers {
    fn new(initial: CountedSet, window: usize) -> Self {
        let mut w = Watchers {
            answer: initial,
            by_crossings: MarginalTable::new(),
            by_full_answer: MarginalTable::new(),
            counts: DenseCounts::default(),
            served_log: MembershipLog::new(window),
            served_dense: DenseWindow::new(window),
            engine_log: MembershipLog::new(usize::MAX),
            engine_dense: DenseTraces::default(),
        };
        // Sample 0, as the evaluator, the serving loop and the engine each
        // record it.
        let entering = w.by_crossings.diff(&w.answer);
        w.by_crossings.record_crossings(&entering);
        w.served_log.record(&[]);
        w.engine_log.record(&entering);
        w.record_dense();
        w
    }

    fn record_dense(&mut self) {
        self.by_full_answer.record(&self.answer);
        self.counts.record(&self.answer);
        self.served_dense.record(&self.answer);
        self.engine_dense.record(&self.answer);
    }

    fn step(&mut self, delta: &CountedSet) {
        self.answer.merge(delta);
        let crossed: Vec<Crossing> = crossings(delta, &self.answer).collect();
        self.by_crossings.record_crossings(&crossed);
        self.served_log.record(&crossed);
        self.engine_log.record(&crossed);
        self.record_dense();
    }

    fn check(&self) -> Result<(), TestCaseError> {
        // Marginals: every reader, bit for bit.
        let (a, b) = (&self.by_crossings, &self.by_full_answer);
        prop_assert_eq!(a.samples(), b.samples());
        prop_assert_eq!(a.samples(), self.counts.samples);
        prop_assert_eq!(a.support_size(), b.support_size());
        prop_assert_eq!(a.support_size(), self.counts.counts.len());
        prop_assert_eq!(bits(&a.probabilities()), bits(&b.probabilities()));
        prop_assert_eq!(bits(&a.probabilities()), bits(&self.counts.probabilities()));
        prop_assert_eq!(bits(&a.top_k(3)), bits(&b.top_k(3)));
        prop_assert_eq!(sorted_bits(a.as_map()), sorted_bits(b.as_map()));
        for (t, p) in b.probabilities() {
            prop_assert_eq!(a.probability(&t).to_bits(), p.to_bits());
        }
        // The served window: same verdict, same length. The log computes
        // R̂ / ESS from run boundaries in integers, the oracle from a dense
        // f64 trace, so the two values agree to rounding, not to the bit.
        check_window(&self.served_log, &self.served_dense)?;
        // The engine's whole-run log, read alone: every tuple ever in the
        // answer, each against its dense trace.
        let (folds, per_tuple) = verdict_of(&[&self.engine_log]);
        let dense = &self.engine_dense;
        check_verdict(
            folds,
            Some(&per_tuple),
            &dense_verdict(&[&dense.rows], dense.samples),
        )
    }
}

proptest! {
    /// Random signed delta streams: every observable agrees with its dense
    /// oracle after every sample, through warm-up and eviction.
    #[test]
    fn crossing_driven_observation_matches_full_answer_observation(
        initial in prop::collection::vec((0u8..8, 1i64..3), 0..6),
        stream in prop::collection::vec(
            prop::collection::vec((0u8..8, -3i64..=3), 0..4),
            1..60,
        ),
        window in 4usize..12,
    ) {
        let mut w = Watchers::new(delta_of(&initial), window);
        w.check()?;
        for changes in &stream {
            w.step(&delta_of(changes));
            w.check()?;
        }
    }

    /// Run-length R̂ / ESS against the dense window at realistic sizes:
    /// windows of 4–300 samples (odd ones included), runs shorter and longer
    /// than the window so events are evicted at the window start, and three
    /// tuples that toggle rarely, sometimes and almost every sample.
    #[test]
    fn run_length_diagnostics_match_the_dense_window(
        window in 4usize..=300,
        // Per sample one draw; tuple j toggles when nibble j falls under its rate.
        draws in prop::collection::vec(0u16..4096, 1..500),
    ) {
        const RATES: [u16; 3] = [1, 4, 14];
        let mut answer = CountedSet::new();
        let mut log = MembershipLog::new(window);
        let mut dense = DenseWindow::new(window);
        log.record(&[]);
        dense.record(&answer);
        for (i, draw) in draws.iter().enumerate() {
            let mut delta = CountedSet::new();
            for (j, rate) in RATES.iter().enumerate() {
                if (draw >> (4 * j)) & 15 < *rate {
                    let t = tuple![j as i64];
                    let weight = if answer.contains(&t) { -1 } else { 1 };
                    delta.add(t, weight);
                }
            }
            answer.merge(&delta);
            let crossed: Vec<Crossing> = crossings(&delta, &answer).collect();
            log.record(&crossed);
            dense.record(&answer);
            // Every sample while the window fills and slides for the first
            // time, then a sparse sweep.
            if i < 2 * window.min(40) || i % 37 == 0 || i + 1 == draws.len() {
                check_window(&log, &dense)?;
            }
        }
    }

    /// `average` over crossing-driven tables is the average over
    /// full-answer tables (different supports, different lengths).
    #[test]
    fn averaging_is_unchanged(
        stream in prop::collection::vec(
            prop::collection::vec((0u8..6, -2i64..=2), 0..3),
            2..40,
        ),
    ) {
        let mut w = Watchers::new(CountedSet::new(), 8);
        let mut earlier = None;
        for (i, changes) in stream.iter().enumerate() {
            w.step(&delta_of(changes));
            if i == stream.len() / 2 {
                earlier = Some((w.by_crossings.clone(), w.by_full_answer.clone()));
            }
        }
        let (early_a, early_b) = earlier.expect("stream has a midpoint");
        prop_assert_eq!(
            sorted_bits(MarginalTable::average(&[early_a, w.by_crossings.clone()])),
            sorted_bits(MarginalTable::average(&[early_b, w.by_full_answer.clone()]))
        );
    }
}

proptest! {
    /// The k-log verdict against the dense estimators. One to four chains
    /// each follow their own random signed delta stream from their own
    /// initial answer, so supports and lengths differ, and log as the
    /// engine does: the whole run, sample 0 entering from the empty answer.
    /// After every step the worst R̂, the smallest ESS and every per-tuple
    /// `(R̂, ESS)` over the shortest chain's samples agree with split-R̂
    /// (one chain) or Gelman–Rubin (several) and the summed ESS of the
    /// dense traces, a tuple a chain never held all zeros there.
    #[test]
    fn the_k_log_verdict_matches_the_dense_estimators(
        chains in prop::collection::vec(
            (
                prop::collection::vec((0u8..8, 1i64..3), 0..6),
                prop::collection::vec(
                    prop::collection::vec((0u8..8, -3i64..=3), 0..4),
                    0..40,
                ),
            ),
            1..=4,
        ),
    ) {
        let mut answers = Vec::new();
        let mut logs = Vec::new();
        let mut dense = Vec::new();
        for (initial, _) in &chains {
            let answer = delta_of(initial);
            let mut log = MembershipLog::new(usize::MAX);
            log.record(&crossings(&answer, &answer).collect::<Vec<_>>());
            let mut traces = DenseTraces::default();
            traces.record(&answer);
            answers.push(answer);
            logs.push(log);
            dense.push(traces);
        }
        let longest = chains.iter().map(|(_, stream)| stream.len()).max().unwrap_or(0);
        for step in 0..=longest {
            for (j, (_, stream)) in chains.iter().enumerate() {
                let Some(changes) = step.checked_sub(1).and_then(|i| stream.get(i)) else {
                    continue;
                };
                let delta = delta_of(changes);
                answers[j].merge(&delta);
                let crossed: Vec<Crossing> = crossings(&delta, &answers[j]).collect();
                logs[j].record(&crossed);
                dense[j].record(&answers[j]);
            }
            let n = dense.iter().map(|traces| traces.samples).min().unwrap_or(0);
            let rows: Vec<_> = dense.iter().map(|traces| &traces.rows).collect();
            let (folds, per_tuple) = verdict_of(&logs.iter().collect::<Vec<_>>());
            check_verdict(folds, Some(&per_tuple), &dense_verdict(&rows, n))?;
        }
    }
}

// -------------------------------------------------------- answer order ----

/// Tuples `0..UNIVERSE` — wide enough that samples bring batches of fresh
/// tuples.
const UNIVERSE: u8 = 48;

/// One crossing-driven table beside its dense oracle. `step` plays the
/// view, like [`Watchers::step`], for this table alone.
#[derive(Clone)]
struct Ordered {
    answer: CountedSet,
    table: MarginalTable,
    counts: DenseCounts,
}

impl Ordered {
    fn new(initial: CountedSet) -> Self {
        let mut o = Ordered {
            answer: CountedSet::new(),
            table: MarginalTable::new(),
            counts: DenseCounts::default(),
        };
        o.step(&initial);
        o
    }

    fn step(&mut self, delta: &CountedSet) {
        self.answer.merge(delta);
        let crossed: Vec<Crossing> = crossings(delta, &self.answer).collect();
        self.table.record_crossings(&crossed);
        self.counts.record(&self.answer);
    }

    /// Every reader of the table against the oracle: the ordered walk,
    /// the ranking, the threshold filter and the point lookups over the
    /// whole universe (never-seen tuples included).
    fn check(&self, k: usize, threshold: f64) -> Result<(), TestCaseError> {
        let (t, dense) = (&self.table, self.counts.probabilities());
        prop_assert_eq!(t.samples(), self.counts.samples);
        prop_assert_eq!(t.support_size(), dense.len());
        prop_assert_eq!(bits(&t.probabilities()), bits(&dense));
        let mut ranked = dense.clone();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(k);
        prop_assert_eq!(bits(&t.top_k(k)), bits(&ranked));
        let confident: Vec<(Tuple, f64)> = dense
            .iter()
            .filter(|(_, p)| *p >= threshold)
            .cloned()
            .collect();
        prop_assert_eq!(bits(&t.at_least(threshold)), bits(&confident));
        for i in 0..UNIVERSE {
            let x = tuple![i64::from(i)];
            let count = self.counts.counts.get(&x).copied();
            prop_assert_eq!(t.run(&x).map(|r| r.count(t.samples())), count);
            let p = dense.iter().find(|(y, _)| *y == x).map_or(0.0, |(_, p)| *p);
            prop_assert_eq!(t.probability(&x).to_bits(), p.to_bits());
        }
        Ok(())
    }
}

proptest! {
    /// The answer order is built by the first read and kept up to date by
    /// every recording after it. Four tables see one stream: one read
    /// only at the end (the order is first built over a grown support),
    /// one after every step, one at random sample points, and a clone of
    /// the second taken once its order exists and then recorded further.
    /// Each agrees with the dense oracle wherever it is read.
    #[test]
    fn answer_order_reads_match_the_dense_oracle(
        initial in prop::collection::vec((0u8..UNIVERSE, 1i64..3), 0..24),
        stream in prop::collection::vec(
            prop::collection::vec((0u8..UNIVERSE, -3i64..=3), 0..16),
            1..40,
        ),
        reads in prop::collection::vec((any::<bool>(), 0usize..64, 0u8..=8), 40),
        fork_at in 0usize..40,
    ) {
        let read = |i: usize| reads[i % reads.len()];
        let threshold = |eighths: u8| f64::from(eighths) / 8.0;
        let mut never = Ordered::new(delta_of(&initial));
        let mut every = never.clone();
        let mut sometimes = never.clone();
        let mut fork: Option<Ordered> = None;
        for (i, changes) in stream.iter().enumerate() {
            let delta = delta_of(changes);
            never.step(&delta);
            every.step(&delta);
            sometimes.step(&delta);
            let (now, k, eighths) = read(i);
            every.check(k, threshold(eighths))?;
            if now {
                sometimes.check(k, threshold(eighths))?;
            }
            if let Some(f) = fork.as_mut() {
                f.step(&delta);
                if now {
                    f.check(k, threshold(eighths))?;
                }
            }
            if i == fork_at.min(stream.len() - 1) {
                fork = Some(every.clone());
            }
        }
        let (_, k, eighths) = read(stream.len());
        for table in [&never, &sometimes, &every].into_iter().chain(fork.as_ref()) {
            table.check(k, threshold(eighths))?;
        }
    }
}

// ----------------------------------------------------- targeted cases ----

/// Leave then re-enter, once with both toggles inside the window and once
/// with the leave already slid out; multiplicity moving above one and back
/// is not a crossing; a negative multiplicity is not membership.
#[test]
fn reentry_multiplicity_and_negative_support() {
    let x = |w: i64| delta_of(&[(0, w)]);
    let mut w = Watchers::new(delta_of(&[(0, 1), (1, 1)]), 4);
    let steps = [
        x(1),                 // 1 → 2: still present, no crossing
        x(-2),                // 2 → 0: leaves
        x(1),                 // re-enters, leave still inside the window
        delta_of(&[]),        // nothing happens
        delta_of(&[(2, -1)]), // a phantom retraction: count −1, never present
        delta_of(&[]),
        delta_of(&[]),
        x(-1), // leaves again…
        delta_of(&[]),
        delta_of(&[]),
        delta_of(&[]),
        delta_of(&[]),
        x(1),                // …and re-enters after the leave slid out
        delta_of(&[(2, 2)]), // −1 → 1: enters from negative support
    ];
    for delta in &steps {
        w.step(delta);
        w.check().unwrap();
    }
    assert_eq!(w.by_crossings.samples(), 15);
    // Tuple 0 was absent in samples 2, 8–12; tuple 2 present only in the last.
    assert_eq!(w.by_crossings.probability(&tuple![0i64]), 9.0 / 15.0);
    assert_eq!(w.by_crossings.probability(&tuple![1i64]), 1.0);
    assert_eq!(w.by_crossings.probability(&tuple![2i64]), 1.0 / 15.0);
}

// ------------------------------------------------------- the engine ----

const TOKENS: usize = 12;

/// `ParallelEngine`'s published R̂ / ESS trajectory and per-row tags agree
/// with the dense computation (as [`check_verdict`] holds a verdict) over
/// independently rebuilt chains (chain `i` of an
/// engine is by definition the chain seeded `chain_seed(base, i)`), with a
/// dispersal burn so the chains' initial supports differ.
#[test]
fn engine_trajectory_matches_dense_traces() {
    for chains in [1usize, 3] {
        let cfg = EngineConfig {
            chains,
            thinning: 3,
            checkpoint_samples: 15,
            r_hat_threshold: 0.0,
            min_samples: 1,
            max_samples: 60,
            replica_burn_steps: 9,
            base_seed: 0x0B5E,
        };
        let sql = "SELECT string FROM TOKEN WHERE label = 'B-PER'";
        let seed = biased_token_pdb(TOKENS, 4, 41);
        let mut engine =
            ParallelEngine::query(&seed, sql, cfg.clone(), |_| relabel_proposer(TOKENS)).unwrap();
        engine.run_rounds(4).unwrap();

        let mut replicas = Vec::new();
        let mut dense = Vec::new();
        for i in 0..chains {
            let mut pdb = seed.snapshot(relabel_proposer(TOKENS), chain_seed(cfg.base_seed, i));
            pdb.step(cfg.replica_burn_steps).unwrap();
            let eval = QueryEvaluator::materialized_sql(sql, &pdb, cfg.thinning).unwrap();
            let mut traces = DenseTraces::default();
            traces.record(eval.current_answer().unwrap());
            replicas.push((pdb, eval));
            dense.push(traces);
        }
        let trajectory = engine.r_hat_trajectory();
        assert_eq!(trajectory.len(), 4);
        for point in trajectory {
            for ((pdb, eval), traces) in replicas.iter_mut().zip(&mut dense) {
                for _ in 0..cfg.checkpoint_samples {
                    eval.sample(pdb).unwrap();
                    traces.record(eval.current_answer().unwrap());
                }
            }
            let n = dense[0].samples;
            let rows: Vec<_> = dense.iter().map(|traces| &traces.rows).collect();
            assert_eq!(point.samples_per_chain, n as u64);
            check_verdict((point.r_hat, point.min_ess), None, &dense_verdict(&rows, n))
                .unwrap_or_else(|e| panic!("{chains} chains, {n} samples: {e:?}"));
        }
        let rows: Vec<_> = dense.iter().map(|traces| &traces.rows).collect();
        let want = dense_verdict(&rows, dense[0].samples);
        let answer = engine.answer();
        let per_row: HashMap<Tuple, (f64, f64)> = answer
            .rows
            .iter()
            .map(|row| (row.tuple.clone(), (row.r_hat, row.ess)))
            .collect();
        assert_eq!(per_row.len(), answer.rows.len());
        let report = &answer.report;
        check_verdict((report.final_r_hat, report.min_ess), Some(&per_row), &want)
            .unwrap_or_else(|e| panic!("{chains} chains, answer: {e:?}"));
        for row in &answer.rows {
            let tagged = want.per_tuple[&row.tuple].r_hat < cfg.r_hat_threshold;
            assert_eq!(row.converged, tagged);
        }
        for (report, traces) in answer.report.per_chain.iter().zip(&dense) {
            assert_eq!(report.support, traces.rows.len());
            assert_eq!(report.samples, traces.samples as u64);
        }
    }
}

// ---------------------------------------------------- the cost claim ----

/// On a 12 000-row answer driven by one-proposal intervals, observation
/// reads exactly the rows that cross — a count, not a timing — and the
/// diagnostic window holds exactly the crossings inside it.
#[test]
fn observation_work_is_proportional_to_the_crossings() {
    const ROWS: usize = 12_000;
    const WINDOW: usize = 32;
    let mut pdb = biased_token_pdb(ROWS, 50, 9);
    // Every token starts 'O': the initial answer is the whole relation.
    let mut eval =
        QueryEvaluator::materialized_sql("SELECT tok_id FROM TOKEN WHERE label = 'O'", &pdb, 1)
            .unwrap();
    assert_eq!(eval.current_answer().unwrap().distinct_len(), ROWS);
    assert_eq!(eval.work().answer_rows_touched, ROWS as u64);
    let mut log = MembershipLog::new(WINDOW);
    log.record(&[]);

    let support = |e: &QueryEvaluator| -> FxHashSet<Tuple> {
        e.current_answer().unwrap().support().cloned().collect()
    };
    let mut before = support(&eval);
    let mut per_sample = Vec::new();
    let mut touched = 0u64;
    for _ in 0..240 {
        let work = eval.sample(&mut pdb).unwrap();
        log.record(eval.last_crossings());
        // Ground truth by brute force: the symmetric difference of supports.
        let after = support(&eval);
        let crossed = before.symmetric_difference(&after).count();
        before = after;
        assert!(crossed <= 1, "one proposal moves at most one answer row");
        assert_eq!(work.answer_rows_touched, crossed as u64);
        assert_eq!(eval.last_crossings().len(), crossed);
        touched += work.answer_rows_touched;
        per_sample.push(crossed);
        // The log holds the crossings of the samples after the window's
        // first one, and nothing else — never the 12 000 constant rows.
        let inside: usize = per_sample.iter().rev().take(WINDOW - 1).sum();
        assert_eq!(log.events_in_window(), inside);
    }
    assert!(touched > 20, "the walk must actually move the answer");
    assert_eq!(touched, per_sample.iter().sum::<usize>() as u64);
    assert_eq!(eval.work().answer_rows_touched, ROWS as u64 + touched);
    assert_eq!(eval.marginals().support_size(), ROWS);
}
