//! Membership crossings and the crossing-driven convergence log.
//!
//! Algorithm 1 maintains a query answer from Δ⁻/Δ⁺ alone; everything that
//! *watches* the answer — the marginal counts of [`crate::MarginalTable`]
//! and the per-tuple 0/1 membership traces behind R̂ / ESS — can be kept from
//! the same information. Between two consecutive samples only the tuples of
//! the view's output delta can change membership, and of those only the
//! ones whose multiplicity crosses zero do:
//!
//! ```text
//! entered:  count ≤ 0 → count > 0        left:  count > 0 → count ≤ 0
//! ```
//!
//! [`crossings`] extracts exactly those from a maintenance step's returned
//! delta plus the view's (already updated) answer, so observing a sample
//! costs O(|Δanswer|), never O(|answer|).
//!
//! [`MembershipLog`] is the trace side: a ring of crossing events over a
//! trailing window of samples. A tuple that does not toggle inside the
//! window has a constant trace, and a constant trace is *neutral* for both
//! diagnostics (`split_r_hat` = 1, `effective_sample_size` = n — the values
//! the max/min folds start from), so it needs no storage at all.
//!
//! [`convergence_verdict`] is the one reader of the events: the verdict of
//! k logs, one per chain — split-R̂ for one, Gelman–Rubin across the chains
//! for more, ESS summed over the chains. It is computed per toggled tuple
//! straight from its crossing positions — a 0/1 trace *is* its runs of
//! ones — in buffers the first log keeps, and never builds a trace. The
//! served loop reads it for one log ([`MembershipLog::diagnose`]), the
//! multi-chain engine for all of its chains; the dense estimators are the
//! test oracle.

use fgdb_mcmc::{effective_sample_size_runs, gelman_rubin_runs, split_r_hat_runs};
use fgdb_relational::{CountedSet, Tuple};
use std::cell::RefCell;
use std::collections::VecDeque;

/// One tuple crossing the answer-set boundary between two consecutive
/// samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Crossing {
    /// The answer tuple.
    pub tuple: Tuple,
    /// True when the tuple entered the answer (multiplicity ≤ 0 → > 0),
    /// false when it left (> 0 → ≤ 0).
    pub entered: bool,
}

/// The membership crossings of one maintenance step: `delta` is the signed
/// answer delta the step returned and `after` the answer with that delta
/// already merged in (so a tuple's previous multiplicity is
/// `after.count(t) − weight`). Multiplicity changes that stay on one side
/// of zero are not crossings.
pub fn crossings<'a>(
    delta: &'a CountedSet,
    after: &'a CountedSet,
) -> impl Iterator<Item = Crossing> + 'a {
    delta.iter().filter_map(move |(t, weight)| {
        let now = after.count(t);
        let entered = now > 0;
        ((now - weight > 0) != entered).then(|| Crossing {
            tuple: t.clone(),
            entered,
        })
    })
}

/// Per-tuple answer-membership history over the trailing `window` samples,
/// stored as the crossing events inside that window.
///
/// Recording a sample appends its crossings and drops the events the
/// window slid past; nothing is touched per tuple per sample, and state
/// exists only for tuples named in a crossing inside the window. A tuple
/// never named is constant over the whole log — present or absent, the log
/// does not know and the diagnostics do not care. A caller that must tell
/// the two apart (the multi-chain engine compares supports *across* logs)
/// records the first sample's answer as crossings from the empty answer
/// and keeps the whole run.
#[derive(Clone, Debug)]
pub struct MembershipLog {
    window: u64,
    samples: u64,
    /// `(sample index, crossing)`, oldest first; indices are non-decreasing.
    events: VecDeque<(u64, Crossing)>,
    /// [`convergence_verdict`]'s buffers, kept between calls.
    scratch: RefCell<Scratch>,
}

/// The buffers [`convergence_verdict`] reuses.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// `(tuple fingerprint, event position)` of every event in the
    /// windows, the logs' events numbered one after another, sorted: a
    /// tuple's events are contiguous, by log and in sample order, next to
    /// those of any tuple sharing its fingerprint.
    order: Vec<(u64, usize)>,
    /// One tuple's runs of ones, one list per log.
    ones: Vec<Vec<(usize, usize)>>,
}

impl MembershipLog {
    /// An empty log over the trailing `window` samples (`usize::MAX`: the
    /// whole run).
    pub fn new(window: usize) -> Self {
        MembershipLog {
            window: u64::try_from(window).unwrap_or(u64::MAX),
            samples: 0,
            events: VecDeque::new(),
            scratch: RefCell::default(),
        }
    }

    /// Records one sample whose answer differs from the previous sample's
    /// by exactly `crossings` (at most one per tuple). For the first sample
    /// the "previous answer" is the caller's choice of baseline: `&[]`
    /// takes the first answer itself as the baseline.
    pub fn record(&mut self, crossings: &[Crossing]) {
        let at = self.samples;
        self.events
            .extend(crossings.iter().map(|c| (at, c.clone())));
        self.samples += 1;
        // An event at or before the window's first sample changes nothing
        // inside the window: the tuple's trace is constant from there on.
        let start = self.start();
        if start > 0 {
            while self.events.front().is_some_and(|(at, _)| *at <= start) {
                self.events.pop_front();
            }
        }
    }

    /// Index of the oldest sample still inside the window.
    fn start(&self) -> u64 {
        self.samples.saturating_sub(self.window)
    }

    /// Samples recorded since the log was created.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Samples currently inside the window: `min(samples, window)`.
    pub fn window_len(&self) -> u64 {
        self.samples - self.start()
    }

    /// Crossing events currently held — the log's whole footprint.
    pub fn events_in_window(&self) -> usize {
        self.events.len()
    }

    /// Worst split-R̂ and smallest ESS over the window, across every tuple
    /// whose membership changed in it: [`convergence_verdict`] of this log
    /// alone. With no such tuple the answer is trivially converged with the
    /// full window as ESS. Allocates nothing once its buffers have grown to
    /// the window's events.
    pub fn diagnose(&self) -> (f64, f64) {
        convergence_verdict(&[self], |_, _, _| {})
    }
}

/// The convergence verdict of `logs`, one per chain, over the first `n`
/// samples of each window, `n` the shortest window: the worst R̂ and the
/// smallest ESS across every tuple with an event in any log, each tuple's
/// `(R̂, ESS)` also handed to `per_tuple`.
///
/// One log gives split-R̂ and ESS of its window. Several give Gelman–Rubin
/// R̂ across the chains and ESS summed over them; a tuple a log holds no
/// event for counts as absent throughout that log, which is why the
/// multi-chain engine's logs keep the whole run and record their first
/// answer from the empty one. The folds start from 1.0 and `n` times the
/// number of logs, the verdict of an answer no tuple toggles in.
///
/// Costs O(events · log) to group the events by tuple plus, per toggled
/// tuple and log, O(runs²) per autocorrelation lag — independent of the
/// window length and of the answer size. The buffers are the first log's.
pub fn convergence_verdict<'a>(
    logs: &[&'a MembershipLog],
    mut per_tuple: impl FnMut(&'a Tuple, f64, f64),
) -> (f64, f64) {
    let n = logs.iter().map(|log| log.window_len()).min().unwrap_or(0);
    let len = usize::try_from(n).unwrap_or(usize::MAX);
    let mut max_r_hat = 1.0f64;
    let mut min_ess = (len * logs.len()) as f64;
    let mut fresh = Scratch::default();
    let mut held = logs
        .first()
        .and_then(|log| log.scratch.try_borrow_mut().ok());
    let Scratch { order, ones } = held.as_deref_mut().unwrap_or(&mut fresh);
    order.clear();
    let events = logs.iter().flat_map(|log| &log.events).enumerate();
    order.extend(events.map(|(i, (_, c))| (c.tuple.fingerprint(), i)));
    order.sort_unstable();
    ones.resize_with(logs.len(), Vec::new);
    // Event `i` of the numbering: its log, sample index and crossing.
    let event = |&(_, mut i): &(u64, usize)| {
        for (l, log) in logs.iter().enumerate() {
            match log.events.get(i) {
                Some((at, c)) => return Some((l, *at, c)),
                None => i -= log.events.len(),
            }
        }
        None
    };
    for group in order.chunk_by(|a, b| a.0 == b.0) {
        for (k, entry) in group.iter().enumerate() {
            let Some((_, _, first)) = event(entry) else {
                continue;
            };
            // Tuples sharing a fingerprint share a group: each is walked
            // once, from its first event.
            let seen = group
                .iter()
                .take(k)
                .any(|e| event(e).is_some_and(|(_, _, c)| c.tuple == first.tuple));
            if seen {
                continue;
            }
            let events = group
                .iter()
                .skip(k)
                .filter_map(event)
                .filter(|(_, _, c)| c.tuple == first.tuple);
            for (l, (log, runs)) in logs.iter().zip(ones.iter_mut()).enumerate() {
                let mine = events.clone().filter(|e| e.0 == l);
                runs_of_ones(mine.map(|(_, at, c)| (at, c)), log.start(), len, runs);
            }
            let (r_hat, ess) = match ones.as_slice() {
                [only] => (
                    split_r_hat_runs(len, only),
                    effective_sample_size_runs(len, only),
                ),
                chains => (
                    gelman_rubin_runs(len, chains),
                    chains
                        .iter()
                        .map(|runs| effective_sample_size_runs(len, runs))
                        .sum(),
                ),
            };
            max_r_hat = max_r_hat.max(r_hat);
            min_ess = min_ess.min(ess);
            per_tuple(&first.tuple, r_hat, ess);
        }
    }
    (max_r_hat, min_ess)
}

/// The runs of ones (half-open, in window positions, cut at `len`) of one
/// tuple's trace into `ones`, from its events in sample order — the trace
/// in run-length form: the stretch before an event holds the membership
/// the event switched *from*, the stretch after the last one what it
/// switched *to*.
fn runs_of_ones<'a>(
    events: impl Iterator<Item = (u64, &'a Crossing)>,
    start: u64,
    len: usize,
    ones: &mut Vec<(usize, usize)>,
) {
    ones.clear();
    let (mut from, mut present) = (0, false);
    for (at, c) in events {
        let upto = usize::try_from(at - start).unwrap_or(len).min(len);
        if !c.entered && upto > from {
            ones.push((from, upto));
        }
        (from, present) = (upto, c.entered);
    }
    if present && len > from {
        ones.push((from, len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdb_relational::tuple;

    fn entered(t: &Tuple) -> Crossing {
        Crossing {
            tuple: t.clone(),
            entered: true,
        }
    }

    fn left(t: &Tuple) -> Crossing {
        Crossing {
            tuple: t.clone(),
            entered: false,
        }
    }

    #[test]
    fn crossings_are_sign_changes_of_the_multiplicity() {
        let (a, b, c, d) = (tuple!["a"], tuple!["b"], tuple!["c"], tuple!["d"]);
        // after: a=2 (was 1), b=1 (was 0), c gone (was 1), d=-1 (was 0).
        let mut after = CountedSet::new();
        after.add(a.clone(), 2);
        after.add(b.clone(), 1);
        after.add(d.clone(), -1);
        let mut delta = CountedSet::new();
        delta.add(a, 1);
        delta.add(b.clone(), 1);
        delta.add(c.clone(), -1);
        delta.add(d, -1);
        let mut got: Vec<Crossing> = crossings(&delta, &after).collect();
        got.sort_by(|x, y| x.tuple.cmp(&y.tuple));
        assert_eq!(got, vec![entered(&b), left(&c)]);
    }

    /// `(tuple, R̂, ESS)` per toggled tuple.
    type PerTuple = Vec<(Tuple, f64, f64)>;

    /// `convergence_verdict`'s folds and per-tuple report, sorted by tuple.
    fn per_tuple(logs: &[&MembershipLog]) -> ((f64, f64), PerTuple) {
        let mut seen = Vec::new();
        let folds = convergence_verdict(logs, |t, r_hat, ess| seen.push((t.clone(), r_hat, ess)));
        seen.sort_by(|a, b| a.0.cmp(&b.0));
        (folds, seen)
    }

    #[test]
    fn the_verdict_reads_each_tuple_as_its_runs_of_ones() {
        let (hot, cold, flip) = (tuple![1i64], tuple![2i64], tuple![3i64]);
        let mut log = MembershipLog::new(8);
        log.record(&[entered(&hot), entered(&cold)]); // sample 0
        log.record(&[left(&cold), entered(&flip)]); // sample 1
        log.record(&[left(&flip)]); // sample 2
        log.record(&[]); // sample 3
        assert_eq!(log.window_len(), 4);
        // hot 1111, cold 1000, flip 0100.
        let runs: [&[(usize, usize)]; 3] = [&[(0, 4)], &[(0, 1)], &[(1, 2)]];
        let want: Vec<_> = [&hot, &cold, &flip]
            .into_iter()
            .zip(runs)
            .map(|(t, ones)| {
                let (r_hat, ess) = (
                    split_r_hat_runs(4, ones),
                    effective_sample_size_runs(4, ones),
                );
                (t.clone(), r_hat, ess)
            })
            .collect();
        let ((max_r_hat, min_ess), got) = per_tuple(&[&log]);
        assert_eq!(got, want);
        assert_eq!((max_r_hat, min_ess), log.diagnose());

        // A second chain over five samples in which `cold` never appears
        // and `hot` leaves at sample 2: the verdict compares the first four
        // samples of each, `cold` absent throughout the second.
        let mut other = MembershipLog::new(usize::MAX);
        other.record(&[entered(&hot), entered(&flip)]);
        other.record(&[]);
        other.record(&[left(&hot)]);
        other.record(&[]);
        other.record(&[entered(&cold)]); // past the common prefix
        let theirs: [&[(usize, usize)]; 3] = [&[(0, 2)], &[], &[(0, 4)]];
        let want: Vec<_> = [&hot, &cold, &flip]
            .into_iter()
            .zip(runs.into_iter().zip(theirs))
            .map(|(t, (a, b))| {
                let ess = effective_sample_size_runs(4, a) + effective_sample_size_runs(4, b);
                (t.clone(), gelman_rubin_runs(4, &[a, b]), ess)
            })
            .collect();
        let ((max_r_hat, min_ess), got) = per_tuple(&[&log, &other]);
        assert_eq!(got, want);
        let worst = want.iter().fold(1.0f64, |m, w| m.max(w.1));
        let least = want.iter().fold(8.0f64, |m, w| m.min(w.2));
        assert_eq!((max_r_hat, min_ess), (worst, least));
        // No logs: nothing toggles, nothing was sampled.
        assert_eq!(convergence_verdict(&[], |_, _, _| {}), (1.0, 0.0));
    }

    #[test]
    fn window_slides_and_constant_tuples_cost_nothing() {
        let cold = tuple![2i64];
        let mut log = MembershipLog::new(8);
        // Sample 0's answer (say {hot, cold}) is the baseline: not stored.
        log.record(&[]);
        assert_eq!(log.events_in_window(), 0);
        log.record(&[left(&cold)]);
        for _ in 0..20 {
            log.record(&[]);
        }
        assert_eq!(log.samples(), 22);
        assert_eq!(log.window_len(), 8);
        // `hot` is present throughout, `cold` absent throughout the window:
        // neither holds any state, and the verdict is the neutral one.
        assert_eq!(log.events_in_window(), 0);
        assert_eq!(log.diagnose(), (1.0, 8.0));
        // A toggle inside the window is the only thing that is stored, and
        // the only tuple the verdict reads: 0000 0001.
        log.record(&[entered(&cold)]);
        assert_eq!(log.events_in_window(), 1);
        let ((r_hat, ess), got) = per_tuple(&[&log]);
        let ones = [(7, 8)];
        let want = (
            split_r_hat_runs(8, &ones),
            effective_sample_size_runs(8, &ones),
        );
        assert_eq!(got, vec![(cold, want.0, want.1)]);
        assert!(r_hat.is_finite());
        assert!(ess > 0.0 && ess <= 8.0);
    }
}
