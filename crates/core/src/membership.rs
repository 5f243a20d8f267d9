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
//! the max/min folds start from), so it needs no storage at all. The
//! window verdict ([`MembershipLog::diagnose`]) is computed per toggled
//! tuple straight from its crossing positions — a 0/1 trace *is* its runs
//! of ones — in buffers the log reuses, and never builds a trace; dense
//! 0/1 traces
//! ([`MembershipLog::traces`]) exist for the multi-chain engine, which
//! compares chains sample by sample, and as the test oracle.

use fgdb_mcmc::{effective_sample_size_runs, split_r_hat_runs};
use fgdb_relational::{CountedSet, FxHashMap, Tuple};
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
/// records the first sample's answer as crossings from the empty answer.
#[derive(Clone, Debug)]
pub struct MembershipLog {
    window: u64,
    samples: u64,
    /// `(sample index, crossing)`, oldest first; indices are non-decreasing.
    events: VecDeque<(u64, Crossing)>,
    /// [`Self::diagnose`]'s buffers, kept between calls.
    scratch: RefCell<Scratch>,
}

/// The buffers [`MembershipLog::diagnose`] reuses.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// `(tuple fingerprint, event position)` of every event in the window,
    /// sorted: a tuple's events are contiguous and in sample order, next to
    /// those of any tuple sharing its fingerprint.
    order: Vec<(u64, usize)>,
    /// One tuple's runs of ones.
    ones: Vec<(usize, usize)>,
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

    /// Materialises the 0/1 window trace (length [`Self::window_len`]) of
    /// every tuple with an event in the ring. Every other tuple's trace is
    /// constant.
    pub fn traces(&self) -> FxHashMap<&Tuple, Vec<f64>> {
        let start = self.start();
        let len = usize::try_from(self.window_len()).unwrap_or(usize::MAX);
        // Per tuple: the trace up to its latest event, and the membership
        // that event switched to.
        let mut open: FxHashMap<&Tuple, (Vec<f64>, f64)> = FxHashMap::default();
        for (at, c) in &self.events {
            let (before, after) = if c.entered { (0.0, 1.0) } else { (1.0, 0.0) };
            let upto = usize::try_from(at - start).unwrap_or(len).min(len);
            let (trace, now) = open
                .entry(&c.tuple)
                .or_insert_with(|| (Vec::with_capacity(len), after));
            trace.resize(upto, before);
            *now = after;
        }
        open.into_iter()
            .map(|(t, (mut trace, now))| {
                trace.resize(len, now);
                (t, trace)
            })
            .collect()
    }

    /// Worst split-R̂ and smallest ESS over the window, across every tuple
    /// whose membership changed in it. With no such tuple the answer is
    /// trivially converged with the full window as ESS. Costs O(events in
    /// the window · log) to group the events by tuple plus, per toggled
    /// tuple, O(runs²) per autocorrelation lag — independent of the window
    /// length and of the answer size — and allocates nothing once its
    /// buffers have grown to the window's events.
    pub fn diagnose(&self) -> (f64, f64) {
        let start = self.start();
        let len = usize::try_from(self.window_len()).unwrap_or(usize::MAX);
        let mut max_r_hat = 1.0f64;
        let mut min_ess = self.window_len() as f64;
        let mut fresh = Scratch::default();
        let mut held = self.scratch.try_borrow_mut();
        let Scratch { order, ones } = held.as_deref_mut().unwrap_or(&mut fresh);
        order.clear();
        order.extend(
            self.events
                .iter()
                .enumerate()
                .map(|(i, (_, c))| (c.tuple.fingerprint(), i)),
        );
        order.sort_unstable();
        let event = |i: usize| self.events.get(i).map(|(at, c)| (*at, c));
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            for (k, &(_, i)) in group.iter().enumerate() {
                let Some((_, first)) = event(i) else { continue };
                // Tuples sharing a fingerprint share a group: each is
                // walked once, from its first event.
                let seen = group
                    .iter()
                    .take(k)
                    .any(|&(_, j)| event(j).is_some_and(|(_, c)| c.tuple == first.tuple));
                if seen {
                    continue;
                }
                let events = group
                    .iter()
                    .skip(k)
                    .filter_map(|&(_, j)| event(j))
                    .filter(|(_, c)| c.tuple == first.tuple);
                runs_of_ones(events, start, len, ones);
                max_r_hat = max_r_hat.max(split_r_hat_runs(len, ones));
                min_ess = min_ess.min(effective_sample_size_runs(len, ones));
            }
        }
        (max_r_hat, min_ess)
    }
}

/// The runs of ones (half-open, in window positions) of one tuple's trace
/// into `ones`, from its events in sample order — the trace in run-length
/// form: the stretch before an event holds the membership the event
/// switched *from*, the stretch after the last one what it switched *to*.
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

    #[test]
    fn traces_rebuild_the_dense_window() {
        let (hot, cold, flip) = (tuple![1i64], tuple![2i64], tuple![3i64]);
        let mut log = MembershipLog::new(8);
        log.record(&[entered(&hot), entered(&cold)]); // sample 0
        log.record(&[left(&cold), entered(&flip)]); // sample 1
        log.record(&[left(&flip)]); // sample 2
        log.record(&[]); // sample 3
        assert_eq!(log.window_len(), 4);
        let traces = log.traces();
        assert_eq!(traces[&hot], vec![1.0, 1.0, 1.0, 1.0]);
        assert_eq!(traces[&cold], vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(traces[&flip], vec![0.0, 1.0, 0.0, 0.0]);
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
        // A toggle inside the window is the only thing that is stored.
        log.record(&[entered(&cold)]);
        assert_eq!(log.events_in_window(), 1);
        let traces = log.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[&cold], vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        let (r_hat, ess) = log.diagnose();
        assert!(r_hat.is_finite());
        assert!(ess > 0.0 && ess <= 8.0);
    }
}
