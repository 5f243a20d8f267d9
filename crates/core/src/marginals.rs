//! Marginal probability estimation from samples (Eq. 4 / Eq. 5).
//!
//! The evaluation problem: "return the set of tuples in the answer of a
//! query Q … along with their corresponding probabilities". Exact
//! computation sums over all possible worlds (Eq. 4, intractable); the
//! sampling estimator (Eq. 5) counts how often each tuple appears in the
//! answer over sampled worlds:
//!
//! ```text
//! Pr[t ∈ Q(W)] ≈ (1/n) Σᵢ 1{t ∈ Q(wᵢ)}
//! ```
//!
//! [`MarginalTable`] is the `m` / `z` bookkeeping of Algorithms 1 and 3;
//! the answer-set membership test under projections is `count(mᵢ) > 0`
//! (multiset semantics, §4.2 Remark).
//!
//! # Run-length accounting
//!
//! Consecutive samples differ by a handful of tuples, so the table does not
//! bump a counter per answer tuple per sample. It keeps, per tuple, the
//! samples counted in *closed* runs of presence plus the sample index at
//! which the current run began, and is driven by membership
//! [`Crossing`]s only:
//!
//! ```text
//! count(t) = closed + [present] · (samples − since)
//! ```
//!
//! A tuple that stays in (or out of) the answer costs nothing per sample;
//! recording a sample is O(crossings). [`MarginalTable::record`] — the
//! full-answer entry point the naive evaluator uses — derives the crossings
//! by diffing the answer against the present set and feeds the same path.
//!
//! # Answer order
//!
//! A read returns the support in tuple order, and it does not sort to do
//! so. The table keeps every tuple once, in a dense arena of
//! `(tuple, run)` slots in first-seen order, with a hash index from tuple
//! to slot — so recording a crossing of a known tuple is one hash probe —
//! and a list of slots in tuple order:
//!
//! * The order is built by the first read that needs it (one sort of the
//!   support then), not at registration: a table that is only recorded
//!   never pays for it.
//! * Once it exists, [`MarginalTable::record_crossings`] keeps it up to
//!   date. Crossings of known tuples leave it alone. The sample's fresh
//!   tuples are sorted among themselves and merged in from the back, each
//!   placed by binary search: one fresh tuple is a binary insertion, a
//!   batch of `k` is a sort of the batch and one back-to-front pass that
//!   moves every old slot at most once, O(n + k log(n + k)). Nothing is
//!   re-sorted.
//! * A read is one linear walk of the order: [`MarginalTable::probabilities`]
//!   is O(support) with one allocation, its result.

use crate::membership::Crossing;
use fgdb_relational::{CountedSet, FxHashMap, Tuple};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::OnceLock;

/// One tuple's presence history: samples counted in runs that have ended,
/// and the sample index at which the current run (if any) began. The unit
/// of the table's accounting, and what a published status carries per
/// tuple so readers compute the estimate with the same expression.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Run {
    closed: u64,
    since: Option<u64>,
}

impl Run {
    /// Samples, of `samples` recorded, in which the tuple was in the
    /// answer.
    pub fn count(&self, samples: u64) -> u64 {
        self.closed + self.since.map_or(0, |since| samples - since)
    }

    /// The Eq. 5 estimate after `samples` samples: `count / z` with
    /// `z = max(samples, 1)` — the one expression every reader of a
    /// marginal uses.
    pub fn probability(&self, samples: u64) -> f64 {
        self.count(samples) as f64 / samples.max(1) as f64
    }
}

/// Running per-tuple membership counts over sampled worlds.
#[derive(Clone, Debug, Default)]
pub struct MarginalTable {
    /// Every tuple ever observed with its run, in first-seen order.
    slots: Vec<(Tuple, Run)>,
    /// Tuple → its index in `slots`.
    index: FxHashMap<Tuple, u32>,
    /// Indices into `slots` in tuple order; built by the first ordered
    /// read and kept up to date by every recording after it.
    order: OnceLock<Vec<u32>>,
    samples: u64,
}

impl MarginalTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sampled world's answer set: every tuple with positive
    /// multiplicity gains one membership count, and `z` increments.
    pub fn record(&mut self, answer: &CountedSet) {
        let crossings = self.diff(answer);
        self.record_crossings(&crossings);
    }

    /// The crossings that take the previous sample's answer to `answer`:
    /// its support tuples not currently present enter, present tuples
    /// outside its support leave. O(|answer| + |support|).
    pub fn diff(&self, answer: &CountedSet) -> Vec<Crossing> {
        let present = |t: &Tuple| self.run(t).is_some_and(|r| r.since.is_some());
        let entered = answer.support().filter(|t| !present(t)).map(|t| (t, true));
        let left = self
            .slots
            .iter()
            .filter(|(t, r)| r.since.is_some() && !answer.contains(t))
            .map(|(t, _)| (t, false));
        entered
            .chain(left)
            .map(|(t, entered)| Crossing {
                tuple: t.clone(),
                entered,
            })
            .collect()
    }

    /// Records one sample whose answer differs from the previous sample's
    /// by exactly `crossings`; `z` increments. Tuples not named keep their
    /// membership, and with it gain (or do not gain) this sample's count.
    /// A crossing of a known tuple is one hash probe; the sample's fresh
    /// tuples, if the answer order exists, are merged into it.
    pub fn record_crossings(&mut self, crossings: &[Crossing]) {
        let at = self.samples;
        let known = self.slots.len();
        for c in crossings {
            match self.index.get(&c.tuple) {
                Some(&i) => {
                    let run = &mut self.slots[i as usize].1;
                    if c.entered {
                        run.since.get_or_insert(at);
                    } else if let Some(since) = run.since.take() {
                        run.closed += at - since;
                    }
                }
                None if c.entered => {
                    let i = u32::try_from(self.slots.len()).expect("support fits u32");
                    self.index.insert(c.tuple.clone(), i);
                    let run = Run {
                        closed: 0,
                        since: Some(at),
                    };
                    self.slots.push((c.tuple.clone(), run));
                }
                None => {}
            }
        }
        if let Some(order) = self.order.get_mut() {
            merge_fresh(order, &self.slots, known);
        }
        self.samples += 1;
    }

    /// Number of samples recorded (the normalizer `z`).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// `(tuple, probability)` for every tuple ever observed, in
    /// first-seen order.
    fn estimates(&self) -> impl Iterator<Item = (&Tuple, f64)> {
        self.slots
            .iter()
            .map(move |(t, run)| (t, run.probability(self.samples)))
    }

    /// `(tuple, probability)` for every tuple ever observed, in tuple
    /// order; builds the order if no read has yet.
    fn ordered(&self) -> impl Iterator<Item = (&Tuple, f64)> {
        let order = self.order.get_or_init(|| {
            let mut order: Vec<u32> = (0u32..).take(self.slots.len()).collect();
            order
                .sort_unstable_by(|&a, &b| self.slots[a as usize].0.cmp(&self.slots[b as usize].0));
            order
        });
        order.iter().map(move |&i| {
            let (t, run) = &self.slots[i as usize];
            (t, run.probability(self.samples))
        })
    }

    /// Estimated `Pr[t ∈ Q(W)]` (zero before any sample).
    pub fn probability(&self, t: &Tuple) -> f64 {
        self.run(t).map_or(0.0, |run| run.probability(self.samples))
    }

    /// The presence history of `t`; `None` when it was never in an
    /// answer (and so has no marginal entry).
    pub fn run(&self, t: &Tuple) -> Option<Run> {
        self.index.get(t).map(|&i| self.slots[i as usize].1)
    }

    /// All tuples ever observed in an answer, with probabilities, sorted by
    /// tuple for deterministic reporting. One walk of the answer order and
    /// one allocation (the result): O(support), no sort — except on the
    /// table's first ordered read, which builds the order.
    pub fn probabilities(&self) -> Vec<(Tuple, f64)> {
        self.ordered().map(|(t, p)| (t.clone(), p)).collect()
    }

    /// Probabilities as a map (ground-truth exchange format for loss
    /// computation).
    pub fn as_map(&self) -> HashMap<Tuple, f64> {
        self.estimates().map(|(t, p)| (t.clone(), p)).collect()
    }

    /// Every tuple ever observed in an answer, in first-seen order.
    pub(crate) fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.slots.iter().map(|(t, _)| t)
    }

    /// Number of distinct tuples observed.
    pub fn support_size(&self) -> usize {
        self.slots.len()
    }

    /// The k most probable answer tuples, ties broken by tuple order — the
    /// top-k ranking problem of Ré et al. (reference 22 of the paper) that MystiQ answers with
    /// dedicated multisimulation machinery falls out of the marginal table
    /// directly here. The ranking is a total order (tuples are distinct),
    /// so the k winners are selected in O(support) and only they are
    /// sorted: O(support + k log k).
    pub fn top_k(&self, k: usize) -> Vec<(Tuple, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let rank =
            |a: &(Tuple, f64), b: &(Tuple, f64)| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0));
        let mut v: Vec<(Tuple, f64)> = self.estimates().map(|(t, p)| (t.clone(), p)).collect();
        if k < v.len() {
            v.select_nth_unstable_by(k - 1, rank);
            v.truncate(k);
        }
        v.sort_unstable_by(rank);
        v
    }

    /// Tuples whose membership probability meets `threshold` — the answer a
    /// consumer would materialize at a chosen confidence — in tuple order.
    pub fn at_least(&self, threshold: f64) -> Vec<(Tuple, f64)> {
        self.ordered()
            .filter(|(_, p)| *p >= threshold)
            .map(|(t, p)| (t.clone(), p))
            .collect()
    }

    /// Merges per-chain tables by averaging probabilities (§5.4 parallel
    /// evaluation). Tables may have different supports; missing entries are
    /// zeros. Takes owned tables or references alike.
    pub fn average<T: Borrow<MarginalTable>>(tables: &[T]) -> HashMap<Tuple, f64> {
        assert!(!tables.is_empty(), "no tables to average");
        let n = tables.len() as f64;
        let mut out: HashMap<Tuple, f64> = HashMap::new();
        for table in tables {
            for (t, p) in table.borrow().estimates() {
                *out.entry(t.clone()).or_insert(0.0) += p / n;
            }
        }
        out
    }
}

/// Merges the slots from `fresh` on — tuples not in `order` yet — into
/// `order`, which holds every slot before `fresh` in tuple order. The
/// fresh slots are sorted among themselves, then placed from the back:
/// each one's position is a binary search in what is left of `order`, and
/// the slots behind it move up once. O(n + k log(n + k)) for `k` fresh
/// slots.
fn merge_fresh(order: &mut Vec<u32>, slots: &[(Tuple, Run)], fresh: usize) {
    if fresh == slots.len() {
        return;
    }
    let tuple = |i: u32| &slots[i as usize].0;
    let mut batch: Vec<u32> = (0u32..).take(slots.len()).skip(fresh).collect();
    batch.sort_unstable_by(|&a, &b| tuple(a).cmp(tuple(b)));
    let mut end = order.len();
    order.resize(end + batch.len(), 0);
    for (placed, &i) in batch.iter().enumerate().rev() {
        let at = order[..end].partition_point(|&j| tuple(j) < tuple(i));
        // `placed` fresh slots still to go before this one: the old slots
        // from `at` move up past them and this one.
        order.copy_within(at..end, at + placed + 1);
        order[at + placed] = i;
        end = at;
    }
}

/// A probability histogram over the values of a single-column answer —
/// Fig. 7's "person mention counts" distribution. Thin wrapper that orders
/// a marginal table's entries by value.
#[derive(Clone, Debug)]
pub struct ValueDistribution {
    entries: Vec<(Tuple, f64)>,
}

impl ValueDistribution {
    /// Builds from a marginal table.
    pub fn from_table(table: &MarginalTable) -> Self {
        ValueDistribution {
            entries: table.probabilities(),
        }
    }

    /// `(value tuple, probability)` pairs in value order.
    pub fn entries(&self) -> &[(Tuple, f64)] {
        &self.entries
    }

    /// Expected value, interpreting the first column as numeric.
    pub fn mean(&self) -> f64 {
        self.entries
            .iter()
            .filter_map(|(t, p)| t.get(0).as_float().map(|v| v * p))
            .sum()
    }

    /// Probability-weighted variance of the first column.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.entries
            .iter()
            .filter_map(|(t, p)| t.get(0).as_float().map(|v| (v - m).powi(2) * p))
            .sum()
    }

    /// The modal value.
    pub fn mode(&self) -> Option<&Tuple> {
        self.entries
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdb_relational::tuple;

    #[test]
    fn counts_and_normalizer() {
        let mut m = MarginalTable::new();
        assert_eq!(m.probability(&tuple!["x"]), 0.0);
        m.record(&CountedSet::from_tuples(vec![tuple!["x"], tuple!["y"]]));
        m.record(&CountedSet::from_tuples(vec![tuple!["x"]]));
        assert_eq!(m.samples(), 2);
        assert_eq!(m.probability(&tuple!["x"]), 1.0);
        assert_eq!(m.probability(&tuple!["y"]), 0.5);
        assert_eq!(m.probability(&tuple!["z"]), 0.0);
        assert_eq!(m.support_size(), 2);
    }

    #[test]
    fn multiplicity_counts_once_per_sample() {
        // A tuple occurring 5 times in one world's answer is still *in* the
        // answer once (membership probability, not expected multiplicity).
        let mut m = MarginalTable::new();
        let mut s = CountedSet::new();
        s.add(tuple!["x"], 5);
        m.record(&s);
        assert_eq!(m.probability(&tuple!["x"]), 1.0);
    }

    #[test]
    fn negative_support_is_not_membership() {
        let mut m = MarginalTable::new();
        let mut s = CountedSet::new();
        s.add(tuple!["x"], -1);
        m.record(&s);
        assert_eq!(m.probability(&tuple!["x"]), 0.0);
        assert_eq!(m.samples(), 1);
    }

    #[test]
    fn crossings_and_full_answers_account_identically() {
        let (x, y) = (tuple!["x"], tuple!["y"]);
        let answers = [
            vec![x.clone(), y.clone()],
            vec![x.clone()],
            vec![x.clone()],
            vec![],
            vec![y.clone()],
            vec![x.clone(), y.clone()],
        ];
        let mut full = MarginalTable::new();
        let mut runs = MarginalTable::new();
        for a in answers {
            let answer = CountedSet::from_tuples(a);
            let crossings = runs.diff(&answer);
            runs.record_crossings(&crossings);
            full.record(&answer);
            assert_eq!(runs.probabilities(), full.probabilities());
        }
        // x: samples 0,1,2,5; y: samples 0,4,5.
        assert_eq!(runs.probability(&x), 4.0 / 6.0);
        assert_eq!(runs.probability(&y), 3.0 / 6.0);
        // A leave for a tuple never seen, and a repeated enter, change nothing.
        let unseen = Crossing {
            tuple: tuple!["z"],
            entered: false,
        };
        let again = Crossing {
            tuple: x.clone(),
            entered: true,
        };
        runs.record_crossings(&[unseen, again]);
        assert_eq!(runs.support_size(), 2);
        assert_eq!(runs.probability(&x), 5.0 / 7.0);
    }

    #[test]
    fn probabilities_sorted() {
        let mut m = MarginalTable::new();
        m.record(&CountedSet::from_tuples(vec![tuple!["b"], tuple!["a"]]));
        let p = m.probabilities();
        assert_eq!(p[0].0, tuple!["a"]);
        assert_eq!(p[1].0, tuple!["b"]);
    }

    #[test]
    fn top_k_ranks_by_probability_then_tuple() {
        let mut m = MarginalTable::new();
        m.record(&CountedSet::from_tuples(vec![
            tuple!["a"],
            tuple!["b"],
            tuple!["c"],
        ]));
        m.record(&CountedSet::from_tuples(vec![tuple!["b"], tuple!["c"]]));
        m.record(&CountedSet::from_tuples(vec![tuple!["c"]]));
        let top = m.top_k(2);
        assert_eq!(top[0].0, tuple!["c"]);
        assert_eq!(top[1].0, tuple!["b"]);
        assert_eq!(m.top_k(10).len(), 3);
        assert!(m.top_k(0).is_empty());
        // Tie between a-prob… add tie case:
        let mut t = MarginalTable::new();
        t.record(&CountedSet::from_tuples(vec![tuple!["y"], tuple!["x"]]));
        let top = t.top_k(2);
        assert_eq!(top[0].0, tuple!["x"], "ties break by tuple order");
    }

    #[test]
    fn at_least_threshold_filters() {
        let mut m = MarginalTable::new();
        m.record(&CountedSet::from_tuples(vec![tuple!["hi"], tuple!["lo"]]));
        m.record(&CountedSet::from_tuples(vec![tuple!["hi"]]));
        let confident = m.at_least(0.75);
        assert_eq!(confident.len(), 1);
        assert_eq!(confident[0].0, tuple!["hi"]);
        assert_eq!(m.at_least(0.0).len(), 2);
    }

    #[test]
    fn average_handles_disjoint_supports() {
        let mut a = MarginalTable::new();
        a.record(&CountedSet::from_tuples(vec![tuple!["x"]]));
        let mut b = MarginalTable::new();
        b.record(&CountedSet::from_tuples(vec![tuple!["y"]]));
        let avg = MarginalTable::average(&[a, b]);
        assert_eq!(avg[&tuple!["x"]], 0.5);
        assert_eq!(avg[&tuple!["y"]], 0.5);
    }

    #[test]
    fn value_distribution_statistics() {
        let mut m = MarginalTable::new();
        // Simulate: counts 10 (p=.25), 20 (p=.5), 30 (p=.25) over 4 samples.
        m.record(&CountedSet::from_tuples(vec![tuple![10i64]]));
        m.record(&CountedSet::from_tuples(vec![tuple![20i64]]));
        m.record(&CountedSet::from_tuples(vec![tuple![20i64]]));
        m.record(&CountedSet::from_tuples(vec![tuple![30i64]]));
        let d = ValueDistribution::from_table(&m);
        assert_eq!(d.entries().len(), 3);
        assert!((d.mean() - 20.0).abs() < 1e-12);
        assert!((d.variance() - 50.0).abs() < 1e-12);
        assert_eq!(d.mode(), Some(&tuple![20i64]));
    }
}
