//! Entity resolution (coreference) — the second IE problem of Fig. 1.
//!
//! Mentions are clustered into real-world entities. Each mention carries a
//! hidden *cluster variable*; factors score pairs of mentions, rewarding
//! cohesive clusters and penalizing lumping dissimilar mentions together
//! (the paper's "mentions in clusters should be cohesive … mentions in
//! separate clusters should be distant").
//!
//! ## Canonical colorings
//!
//! The distribution of interest is over *partitions*, but worlds assign a
//! cluster id to every mention. We keep the two in bijection with a
//! **canonical coloring**: a cluster's id is the smallest mention index it
//! contains. Every proposer here restores canonical form, so exactly one
//! world represents each partition and partition statistics can be checked
//! against exact enumeration.
//!
//! ## Constraint preservation (§3.4)
//!
//! Because membership is represented directly (not as pairwise coreference
//! bits), transitivity holds *by construction* — the paper's point that a
//! split-merge proposer "avoid\[s\] the need to include the expensive cubic
//! number of deterministic transitivity factors".
//!
//! Two proposers are provided for the E9 ablation:
//! [`SplitMergeProposer`] (block moves over whole clusters, the paper's
//! example) and [`MentionMoveProposer`] (single-mention moves, the naive
//! baseline), both with exact Hastings ratios.

use fgdb_graph::{Domain, EvalStats, Model, VariableId, World};
use fgdb_mcmc::{DynRng, Proposal, Proposer};
use fgdb_relational::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Observed mention data: a dense pairwise affinity matrix in log space.
/// `affinity(i, j) > 0` favors placing i and j in the same cluster.
pub struct MentionData {
    n: usize,
    /// Row-major symmetric matrix; diagonal unused.
    affinity: Vec<f64>,
    /// Ground-truth entity of each mention (for objectives and metrics).
    truth: Vec<u32>,
}

impl MentionData {
    /// Builds mention data from an explicit affinity matrix.
    pub fn new(n: usize, affinity: Vec<f64>, truth: Vec<u32>) -> Arc<Self> {
        assert_eq!(affinity.len(), n * n);
        assert_eq!(truth.len(), n);
        Arc::new(MentionData { n, affinity, truth })
    }

    /// Generates a synthetic instance: `num_entities × mentions_per_entity`
    /// mentions; affinity `+cohesion` within a true entity and `−repulsion`
    /// across, perturbed by uniform noise of the given amplitude.
    pub fn generate(
        num_entities: usize,
        mentions_per_entity: usize,
        cohesion: f64,
        repulsion: f64,
        noise: f64,
        seed: u64,
    ) -> Arc<Self> {
        let n = num_entities * mentions_per_entity;
        assert!(n > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let truth: Vec<u32> = (0..n).map(|i| (i / mentions_per_entity) as u32).collect();
        let mut affinity = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let base = if truth[i] == truth[j] {
                    cohesion
                } else {
                    -repulsion
                };
                let eps = rng.gen_range(-noise..=noise);
                affinity[i * n + j] = base + eps;
                affinity[j * n + i] = base + eps;
            }
        }
        Arc::new(MentionData { n, affinity, truth })
    }

    /// Number of mentions.
    pub fn num_mentions(&self) -> usize {
        self.n
    }

    /// Pairwise log-affinity.
    #[inline]
    pub fn affinity(&self, i: usize, j: usize) -> f64 {
        self.affinity[i * self.n + j]
    }

    /// Ground-truth entity ids.
    pub fn truth(&self) -> &[u32] {
        &self.truth
    }
}

/// The coreference factor-graph model: pairwise same-cluster factors.
pub struct CorefModel {
    data: Arc<MentionData>,
    domain: Arc<Domain>,
}

impl CorefModel {
    /// Builds the model.
    pub fn new(data: Arc<MentionData>) -> Self {
        let domain = Domain::new((0..data.n as i64).map(Value::Int).collect());
        CorefModel { data, domain }
    }

    /// Mention data.
    pub fn data(&self) -> &Arc<MentionData> {
        &self.data
    }

    /// A world with every mention in its own singleton cluster (canonical).
    pub fn singleton_world(&self) -> World {
        let mut w = World::new(vec![Arc::clone(&self.domain); self.data.n]);
        for i in 0..self.data.n {
            w.set(VariableId(i as u32), i);
        }
        w
    }

    /// The canonical world for the ground-truth partition.
    pub fn truth_world(&self) -> World {
        let mut w = self.singleton_world();
        let assignment: Vec<usize> = (0..self.data.n)
            .map(|i| {
                (0..self.data.n)
                    .find(|&j| self.data.truth[j] == self.data.truth[i])
                    .expect("entity has at least one mention")
            })
            .collect();
        for (i, c) in assignment.iter().enumerate() {
            w.set(VariableId(i as u32), *c);
        }
        w
    }

    /// All cluster variables.
    pub fn variables(&self) -> Vec<VariableId> {
        (0..self.data.n as u32).map(VariableId).collect()
    }
}

impl Model for CorefModel {
    fn score_world(&self, world: &World, stats: &mut EvalStats) -> f64 {
        let n = self.data.n;
        let mut sum = 0.0;
        for i in 0..n {
            let ci = world.get(VariableId(i as u32));
            for j in (i + 1)..n {
                stats.factors_evaluated += 1;
                if ci == world.get(VariableId(j as u32)) {
                    sum += self.data.affinity(i, j);
                }
            }
        }
        sum
    }

    fn score_neighborhood(&self, world: &World, vars: &[VariableId], stats: &mut EvalStats) -> f64 {
        stats.neighborhood_scores += 1;
        let n = self.data.n;
        let in_vars = |m: usize| vars.iter().any(|v| v.index() == m);
        let mut sum = 0.0;
        for &v in vars {
            let i = v.index();
            let ci = world.get(v);
            for j in 0..n {
                if j == i {
                    continue;
                }
                // Pair (i, j) owned by the smaller index when both changed.
                if j < i && in_vars(j) {
                    continue;
                }
                stats.factors_evaluated += 1;
                if ci == world.get(VariableId(j as u32)) {
                    sum += self.data.affinity(i.min(j), i.max(j));
                }
            }
        }
        sum
    }

    fn score_neighborhood_whatif(
        &self,
        world: &World,
        var: VariableId,
        value: usize,
        stats: &mut EvalStats,
    ) -> f64 {
        stats.neighborhood_scores += 1;
        let n = self.data.n;
        let i = var.index();
        let mut sum = 0.0;
        for j in 0..n {
            if j == i {
                continue;
            }
            stats.factors_evaluated += 1;
            if value == world.get(VariableId(j as u32)) {
                sum += self.data.affinity(i.min(j), i.max(j));
            }
        }
        sum
    }
}

/// Members of each nonempty cluster under the current world.
fn clusters_of(world: &World, n: usize) -> std::collections::HashMap<usize, Vec<usize>> {
    let mut map: std::collections::HashMap<usize, Vec<usize>> = Default::default();
    for m in 0..n {
        map.entry(world.get(VariableId(m as u32)))
            .or_default()
            .push(m);
    }
    map
}

/// Re-id's the listed mentions so each cluster's id is its minimum member —
/// returns the change list (skipping no-ops).
fn canonical_changes(
    membership: &[(usize, usize)], // (mention, proposed cluster key)
    world: &World,
) -> Vec<(VariableId, usize)> {
    // Compute min member per proposed cluster key.
    let mut min_of: std::collections::HashMap<usize, usize> = Default::default();
    for &(m, key) in membership {
        let e = min_of.entry(key).or_insert(m);
        if m < *e {
            *e = m;
        }
    }
    membership
        .iter()
        .filter_map(|&(m, key)| {
            let id = min_of[&key];
            (world.get(VariableId(m as u32)) != id).then_some((VariableId(m as u32), id))
        })
        .collect()
}

/// The paper's split-merge proposer (§3.4): pick two mentions; merge their
/// clusters when distinct, split their shared cluster otherwise.
pub struct SplitMergeProposer {
    vars: Vec<VariableId>,
}

impl SplitMergeProposer {
    /// Proposer over `n` mentions.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "split-merge needs at least two mentions");
        SplitMergeProposer {
            vars: (0..n as u32).map(VariableId).collect(),
        }
    }
}

impl Proposer for SplitMergeProposer {
    fn propose(&mut self, world: &World, rng: &mut DynRng<'_>, out: &mut Proposal) {
        let n = self.vars.len();
        let i = rng.gen_range(0..n);
        let j = {
            let mut j = rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            j
        };
        let ci = world.get(VariableId(i as u32));
        let cj = world.get(VariableId(j as u32));
        let clusters = clusters_of(world, n);

        if ci == cj {
            // SPLIT cluster C: i seeds the new part, j anchors the old; the
            // rest flip fair coins. Hastings ratio: the reverse merge lacks
            // the (1/2)^{|C|−2} coin factor, so log q-ratio = (|C|−2)·ln 2.
            let members = &clusters[&ci];
            let c = members.len();
            let mut membership: Vec<(usize, usize)> = Vec::with_capacity(c);
            for &m in members {
                let part = if m == i {
                    1
                } else if m == j {
                    0
                } else if rng.gen::<bool>() {
                    1
                } else {
                    0
                };
                membership.push((m, part));
            }
            out.set(
                canonical_changes(&membership, world),
                (c as f64 - 2.0) * std::f64::consts::LN_2,
            );
        } else {
            // MERGE cluster(i) ∪ cluster(j). Reverse split pays the coin
            // factor: log q-ratio = −(|C|−2)·ln 2 for |C| = |A| + |B|.
            let a = &clusters[&ci];
            let b = &clusters[&cj];
            let c = a.len() + b.len();
            let membership: Vec<(usize, usize)> =
                a.iter().chain(b.iter()).map(|&m| (m, 0)).collect();
            out.set(
                canonical_changes(&membership, world),
                -(c as f64 - 2.0) * std::f64::consts::LN_2,
            );
        }
    }

    fn support(&self) -> &[VariableId] {
        &self.vars
    }
}

/// Naive single-mention proposer: move one mention to another mention's
/// cluster, or split it off as a singleton. The E9 baseline.
pub struct MentionMoveProposer {
    vars: Vec<VariableId>,
}

impl MentionMoveProposer {
    /// Proposer over `n` mentions.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "mention-move needs at least two mentions");
        MentionMoveProposer {
            vars: (0..n as u32).map(VariableId).collect(),
        }
    }
}

impl Proposer for MentionMoveProposer {
    fn propose(&mut self, world: &World, rng: &mut DynRng<'_>, out: &mut Proposal) {
        let n = self.vars.len();
        let i = rng.gen_range(0..n);
        let j = {
            let mut j = rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            j
        };
        let ci = world.get(VariableId(i as u32));
        let cj = world.get(VariableId(j as u32));
        let clusters = clusters_of(world, n);
        let a_size = clusters[&ci].len();

        if ci == cj {
            // Split i off as a singleton. Forward picks j among the |A|−1
            // cluster-mates; reverse (re-join) also picks one of them → the
            // ratio is 1.
            let mut membership: Vec<(usize, usize)> = clusters[&ci]
                .iter()
                .map(|&m| (m, usize::from(m == i)))
                .collect();
            membership.sort();
            out.symmetric(canonical_changes(&membership, world));
        } else {
            // Move i into cluster(j).
            let b_size = clusters[&cj].len();
            // Forward: pick j in B → |B| choices. Reverse: if i had
            // cluster-mates, re-join A\{i} → |A|−1 choices; if i was a
            // singleton, the reverse is a singleton split → |B| choices
            // (pick any mate in the merged cluster).
            let log_q_ratio = if a_size > 1 {
                ((a_size - 1) as f64 / b_size as f64).ln()
            } else {
                0.0
            };
            let mut membership: Vec<(usize, usize)> = Vec::new();
            for &m in &clusters[&cj] {
                membership.push((m, 0));
            }
            membership.push((i, 0));
            // A loses i; its remaining members may need re-iding.
            for &m in &clusters[&ci] {
                if m != i {
                    membership.push((m, 1));
                }
            }
            out.set(canonical_changes(&membership, world), log_q_ratio);
        }
    }

    fn support(&self) -> &[VariableId] {
        &self.vars
    }
}

/// Pairwise coreference metrics against the ground truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairwiseScores {
    /// Pairwise precision.
    pub precision: f64,
    /// Pairwise recall.
    pub recall: f64,
    /// Pairwise F1.
    pub f1: f64,
}

/// Computes pairwise precision/recall/F1 of a predicted clustering.
pub fn pairwise_scores(world: &World, data: &MentionData) -> PairwiseScores {
    let n = data.num_mentions();
    let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
    for i in 0..n {
        for j in (i + 1)..n {
            let pred = world.get(VariableId(i as u32)) == world.get(VariableId(j as u32));
            let truth = data.truth[i] == data.truth[j];
            match (pred, truth) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
    }
    let precision = if tp + fp == 0 {
        1.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fn_ == 0 {
        1.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    PairwiseScores {
        precision,
        recall,
        f1,
    }
}

/// Exact partition inference for small instances: enumerates all set
/// partitions and returns `P(mentions a and b share a cluster)` for every
/// pair, as a row-major matrix. Ground truth for sampler-convergence tests.
pub fn exact_pair_probabilities(data: &MentionData) -> Vec<f64> {
    let n = data.num_mentions();
    assert!(n <= 10, "Bell number explosion: n = {n}");
    let mut log_weights: Vec<(Vec<usize>, f64)> = Vec::new();
    // Enumerate partitions via restricted growth strings.
    let mut rgs = vec![0usize; n];
    loop {
        // Score this partition.
        let mut score = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                if rgs[i] == rgs[j] {
                    score += data.affinity(i, j);
                }
            }
        }
        log_weights.push((rgs.clone(), score));
        // Next restricted growth string.
        let mut k = n as isize - 1;
        loop {
            if k <= 0 {
                break;
            }
            let prefix_max = rgs[..k as usize].iter().copied().max().unwrap_or(0);
            if rgs[k as usize] <= prefix_max {
                rgs[k as usize] += 1;
                for v in rgs.iter_mut().skip(k as usize + 1) {
                    *v = 0;
                }
                break;
            }
            k -= 1;
        }
        if k <= 0 {
            break;
        }
    }
    let max = log_weights
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::NEG_INFINITY, f64::max);
    let z: f64 = log_weights.iter().map(|(_, s)| (s - max).exp()).sum();
    let mut out = vec![0.0; n * n];
    for (p, s) in &log_weights {
        let w = (s - max).exp() / z;
        for i in 0..n {
            for j in (i + 1)..n {
                if p[i] == p[j] {
                    out[i * n + j] += w;
                    out[j * n + i] += w;
                }
            }
        }
    }
    out
}

/// Checks the canonical-coloring invariant (every cluster id equals its
/// minimum member); used by tests after every proposal.
pub fn is_canonical(world: &World, n: usize) -> bool {
    clusters_of(world, n)
        .iter()
        .all(|(id, members)| members.iter().min() == Some(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdb_mcmc::MetropolisHastings;

    fn instance() -> Arc<MentionData> {
        MentionData::generate(2, 3, 2.0, 2.0, 0.3, 7)
    }

    #[test]
    fn generated_instance_shape() {
        let d = instance();
        assert_eq!(d.num_mentions(), 6);
        assert_eq!(d.truth(), &[0, 0, 0, 1, 1, 1]);
        // Symmetric affinities, cohesive within truth clusters.
        for i in 0..6 {
            for j in (i + 1)..6 {
                assert_eq!(d.affinity(i, j), d.affinity(j, i));
                if d.truth()[i] == d.truth()[j] {
                    assert!(d.affinity(i, j) > 0.0);
                } else {
                    assert!(d.affinity(i, j) < 0.0);
                }
            }
        }
    }

    #[test]
    fn truth_world_is_canonical_and_outscores_singletons() {
        let d = instance();
        let m = CorefModel::new(Arc::clone(&d));
        let truth = m.truth_world();
        assert!(is_canonical(&truth, 6));
        let singles = m.singleton_world();
        assert!(is_canonical(&singles, 6));
        let mut s = EvalStats::default();
        assert!(m.score_world(&truth, &mut s) > m.score_world(&singles, &mut s));
        let scores = pairwise_scores(&truth, &d);
        assert_eq!(scores.f1, 1.0);
    }

    #[test]
    fn neighborhood_identity_for_coref() {
        let d = instance();
        let m = CorefModel::new(Arc::clone(&d));
        let mut w = m.singleton_world();
        let mut stats = EvalStats::default();
        // Move mentions around and verify Appendix 9.2 cancellation.
        let moves: Vec<(usize, usize)> = vec![(1, 0), (2, 0), (4, 3), (2, 2)];
        for (mention, target) in moves {
            let vars = [VariableId(mention as u32)];
            let fb = m.score_world(&w, &mut stats);
            let hb = m.score_neighborhood(&w, &vars, &mut stats);
            w.set(VariableId(mention as u32), target);
            let fa = m.score_world(&w, &mut stats);
            let ha = m.score_neighborhood(&w, &vars, &mut stats);
            assert!(((fa - fb) - (ha - hb)).abs() < 1e-9);
        }
    }

    #[test]
    fn whatif_scoring_matches_actual_assignment() {
        let d = instance();
        let m = CorefModel::new(Arc::clone(&d));
        let mut w = m.singleton_world();
        w.set(VariableId(1), 0);
        w.set(VariableId(4), 3);
        let mut s = EvalStats::default();
        for (mention, target) in [(2usize, 0usize), (5, 3), (0, 0), (3, 3)] {
            let v = VariableId(mention as u32);
            let whatif = m.score_neighborhood_whatif(&w, v, target, &mut s);
            let old = w.set(v, target);
            let real = m.score_neighborhood(&w, &[v], &mut s);
            w.set(v, old);
            assert!((whatif - real).abs() < 1e-12);
        }
    }

    #[test]
    fn proposers_preserve_canonical_form() {
        let d = instance();
        let model = CorefModel::new(Arc::clone(&d));
        for use_split_merge in [true, false] {
            let proposer: Box<dyn Proposer> = if use_split_merge {
                Box::new(SplitMergeProposer::new(6))
            } else {
                Box::new(MentionMoveProposer::new(6))
            };
            let mut world = model.singleton_world();
            let mut kernel = MetropolisHastings::new(&model, proposer);
            let mut rng = StdRng::seed_from_u64(3);
            let mut rng = DynRng::from(&mut rng);
            for step in 0..2000 {
                kernel.step(&mut world, &mut rng);
                assert!(
                    is_canonical(&world, 6),
                    "non-canonical world at step {step} (split_merge={use_split_merge})"
                );
            }
            // The sampler should find the cohesive truth clustering often.
            let s = pairwise_scores(&world, &d);
            assert!(s.f1 > 0.5, "f1 = {} (split_merge={use_split_merge})", s.f1);
        }
    }

    #[test]
    fn split_merge_converges_to_exact_pair_probabilities() {
        // Weak affinities → genuinely uncertain posterior; compare sampled
        // pair probabilities with exact partition enumeration.
        let d = MentionData::generate(2, 2, 0.8, 0.8, 0.2, 11);
        let exact = exact_pair_probabilities(&d);
        let model = CorefModel::new(Arc::clone(&d));
        let mut world = model.singleton_world();
        let mut kernel = MetropolisHastings::new(&model, Box::new(SplitMergeProposer::new(4)));
        let mut rng = StdRng::seed_from_u64(21);
        let mut rng = DynRng::from(&mut rng);
        let n_samples = 200_000;
        let mut together = [0u64; 16];
        for _ in 0..n_samples {
            kernel.step(&mut world, &mut rng);
            for i in 0..4 {
                for j in (i + 1)..4 {
                    if world.get(VariableId(i)) == world.get(VariableId(j)) {
                        together[(i * 4 + j) as usize] += 1;
                    }
                }
            }
        }
        for i in 0..4usize {
            for j in (i + 1)..4 {
                let est = together[i * 4 + j] as f64 / n_samples as f64;
                let want = exact[i * 4 + j];
                assert!(
                    (est - want).abs() < 0.02,
                    "pair ({i},{j}): sampled {est:.3} vs exact {want:.3}"
                );
            }
        }
    }

    #[test]
    fn mention_move_converges_to_exact_pair_probabilities() {
        let d = MentionData::generate(2, 2, 0.6, 0.6, 0.1, 13);
        let exact = exact_pair_probabilities(&d);
        let model = CorefModel::new(Arc::clone(&d));
        let mut world = model.singleton_world();
        let mut kernel = MetropolisHastings::new(&model, Box::new(MentionMoveProposer::new(4)));
        let mut rng = StdRng::seed_from_u64(23);
        let mut rng = DynRng::from(&mut rng);
        let n_samples = 200_000;
        let mut together = [0u64; 16];
        for _ in 0..n_samples {
            kernel.step(&mut world, &mut rng);
            for i in 0..4 {
                for j in (i + 1)..4 {
                    if world.get(VariableId(i)) == world.get(VariableId(j)) {
                        together[(i * 4 + j) as usize] += 1;
                    }
                }
            }
        }
        for i in 0..4usize {
            for j in (i + 1)..4 {
                let est = together[i * 4 + j] as f64 / n_samples as f64;
                let want = exact[i * 4 + j];
                assert!(
                    (est - want).abs() < 0.02,
                    "pair ({i},{j}): sampled {est:.3} vs exact {want:.3}"
                );
            }
        }
    }

    #[test]
    fn exact_enumeration_counts_partitions() {
        // Bell(4) = 15 partitions; uniform scores → all pairs at the
        // fraction of partitions joining them: 5 contain any given pair...
        // P(i~j) = Bell(3)/Bell(4) = 5/15 = 1/3.
        let d = MentionData::new(4, vec![0.0; 16], vec![0, 1, 2, 3]);
        let p = exact_pair_probabilities(&d);
        for i in 0..4usize {
            for j in 0..4usize {
                if i != j {
                    assert!((p[i * 4 + j] - 1.0 / 3.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn pairwise_scores_degenerate_cases() {
        let d = MentionData::new(2, vec![0.0; 4], vec![0, 1]);
        let m = CorefModel::new(Arc::clone(&d));
        // Singletons vs truth-singletons: no predicted or true pairs.
        let s = pairwise_scores(&m.singleton_world(), &d);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        // Lump both together: one false-positive pair.
        let mut w = m.singleton_world();
        w.set(VariableId(1), 0);
        let s = pairwise_scores(&w, &d);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.f1, 0.0);
    }
}
