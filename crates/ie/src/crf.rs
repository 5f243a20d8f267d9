//! Linear-chain and skip-chain conditional random fields (§3.3, §5, Fig. 3).
//!
//! The NER factor graph has four templates:
//!
//! 1. **emission** — observed string ↔ hidden label at each position;
//! 2. **transition** — consecutive labels within a document (1st-order
//!    Markov);
//! 3. **bias** — per-label frequency;
//! 4. **skip** — labels of identical (skip-eligible) strings in the same
//!    document (Fig. 3). Skip edges make the graph cyclic, so exact
//!    inference is intractable and "approximate methods such as loopy belief
//!    propagation fail to converge" — the case the paper's MCMC evaluator is
//!    built for.
//!
//! [`Crf`] never materializes the unrolled graph. It scores *neighborhoods*:
//! for a set of changed label variables it enumerates exactly the adjacent
//! factors (emission, bias, the ≤ 2 incident transitions, and the token's
//! skip edges), deduplicating pair factors shared by two changed variables.
//! For the single-variable proposer of §5.1 this is a constant number of
//! factor evaluations regardless of corpus size — the claim of Appendix 9.2
//! that experiment E7 verifies through [`EvalStats`].
//!
//! That single relabel is also every step the sampler takes over this
//! model, so [`Crf`] overrides [`Model::score_change`] for it: one traversal
//! of the token's neighbourhood reads the observed data and the neighbours'
//! labels once and accumulates the score under the old and the new label
//! side by side, in the factor order of the two-pass default body — so the
//! two agree bit for bit and count the same [`EvalStats`]
//! (`tests/prop_relabel.rs`). Multi-variable change sets take the default.

use crate::bio::{Label, NUM_LABELS};
use crate::corpus::Corpus;
use fgdb_graph::{
    score_change_by_apply, ChangeScratch, Domain, EvalStats, FactorSpans, FeatureVector, Learnable,
    Model, ModelError, ShardError, ShardMap, VariableId, World,
};
use std::ops::Range;
use std::sync::Arc;

const L: usize = NUM_LABELS;

/// Immutable observed data: strings, document boundaries, skip edges.
///
/// Shared (`Arc`) between the model, proposers, and evaluators; the hidden
/// labels live in the [`World`], never here.
pub struct TokenSeqData {
    string_ids: Vec<u32>,
    doc_ranges: Vec<Range<usize>>,
    doc_of: Vec<u32>,
    /// CSR adjacency of skip edges: neighbors of token t are
    /// `skip_data[skip_offsets[t]..skip_offsets[t+1]]`.
    skip_offsets: Vec<u32>,
    skip_data: Vec<u32>,
    vocab_size: usize,
}

impl TokenSeqData {
    /// Extracts observed data from a corpus. `max_skip_neighbors` caps the
    /// per-token skip degree (the standard skip-chain construction links
    /// identical capitalized strings; common words are exempt by
    /// `skip_eligible`).
    pub fn from_corpus(corpus: &Corpus, max_skip_neighbors: usize) -> Arc<Self> {
        let n = corpus.num_tokens();
        let mut string_ids = Vec::with_capacity(n);
        let mut doc_of = vec![0u32; n];
        for (d, r) in corpus.documents.iter().enumerate() {
            for t in r.clone() {
                doc_of[t] = d as u32;
            }
        }
        for t in &corpus.tokens {
            string_ids.push(t.string_id);
        }

        // Skip edges: same skip-eligible string within one document.
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
        for r in &corpus.documents {
            let mut by_string: std::collections::HashMap<u32, Vec<u32>> = Default::default();
            for t in r.clone() {
                if corpus.tokens[t].skip_eligible {
                    by_string
                        .entry(corpus.tokens[t].string_id)
                        .or_default()
                        .push(t as u32);
                }
            }
            for positions in by_string.values() {
                if positions.len() < 2 {
                    continue;
                }
                for (i, &a) in positions.iter().enumerate() {
                    for &b in positions.iter().skip(i + 1) {
                        if neighbors[a as usize].len() < max_skip_neighbors
                            && neighbors[b as usize].len() < max_skip_neighbors
                        {
                            neighbors[a as usize].push(b);
                            neighbors[b as usize].push(a);
                        }
                    }
                }
            }
        }
        let mut skip_offsets = Vec::with_capacity(n + 1);
        let mut skip_data = Vec::new();
        skip_offsets.push(0u32);
        for ns in &neighbors {
            skip_data.extend_from_slice(ns);
            // Offsets index `u32` skip edges; a corpus past 2³² of them is
            // outside what this model size supports.
            skip_offsets.push(u32::try_from(skip_data.len()).expect("skip-edge offsets fit u32"));
        }

        Arc::new(TokenSeqData {
            string_ids,
            doc_ranges: corpus.documents.clone(),
            doc_of,
            skip_offsets,
            skip_data,
            vocab_size: corpus.vocab_size(),
        })
    }

    /// Number of tokens.
    pub fn num_tokens(&self) -> usize {
        self.string_ids.len()
    }

    /// Document token ranges (the proposer's locality groups).
    pub fn doc_ranges(&self) -> &[Range<usize>] {
        &self.doc_ranges
    }

    /// Document of a token.
    pub fn doc_of(&self, t: usize) -> usize {
        self.doc_of[t] as usize
    }

    /// Skip neighbors of a token.
    pub fn skip_neighbors(&self, t: usize) -> &[u32] {
        let a = self.skip_offsets[t] as usize;
        let b = self.skip_offsets[t + 1] as usize;
        &self.skip_data[a..b]
    }

    /// Total number of (undirected) skip edges.
    pub fn num_skip_edges(&self) -> usize {
        self.skip_data.len() / 2
    }

    fn same_doc(&self, a: usize, b: usize) -> bool {
        self.doc_of[a] == self.doc_of[b]
    }

    /// Partitions the token variables into `num_shards` contiguous,
    /// size-balanced shards along document boundaries — the paper's natural
    /// shard boundary: every pair factor of the NER model (transition,
    /// skip) lies within one document, so a by-document partition can never
    /// put a factor across shards. Validate against the concrete model with
    /// [`ShardMap::validate`] anyway; it is cheap and catches model
    /// variants that break the assumption.
    ///
    /// # Errors
    /// [`ShardError::TooManyShards`] when shards outnumber documents,
    /// [`ShardError::Empty`] on a degenerate corpus.
    pub fn shard_map(&self, num_shards: usize) -> Result<ShardMap, ShardError> {
        ShardMap::by_contiguous_groups(&self.doc_ranges, num_shards)
    }
}

/// Feature-id layout boundaries: each field is the *end* offset of its
/// segment (see [`Crf`] docs).
struct FeatureLayout {
    emission: u64, // [0, emission)
    transition: u64,
    bias: u64,
    skip: u64,
    prev: u64, // previous-word emission (observation window)
}

impl FeatureLayout {
    fn new(vocab: usize) -> Self {
        let emission = (vocab * L) as u64;
        let transition = emission + (L * L) as u64;
        let bias = transition + L as u64;
        let skip = bias + (L * L) as u64;
        let prev = skip + (vocab * L) as u64;
        FeatureLayout {
            emission,
            transition,
            bias,
            skip,
            prev,
        }
    }
}

/// Index of an unordered label pair in the skip table (symmetric
/// parametrization: the pair is canonicalized).
#[inline]
fn skip_index(la: usize, lb: usize) -> usize {
    let (lo, hi) = if la <= lb { (la, lb) } else { (lb, la) };
    lo * L + hi
}

/// A (skip-)chain CRF over a token sequence.
pub struct Crf {
    data: Arc<TokenSeqData>,
    emission: Vec<f64>,
    transition: Vec<f64>,
    bias: Vec<f64>,
    skip: Vec<f64>,
    /// Observation-window template: weight of (string at t−1, label at t).
    /// This is what lets cue words ("spokesman for …") inform the next
    /// label — the "user-specified features" freedom of §3.1.
    prev_emission: Vec<f64>,
    use_skip: bool,
    layout: FeatureLayout,
    label_domain: Arc<Domain>,
}

impl Crf {
    fn with_weights(data: Arc<TokenSeqData>, use_skip: bool) -> Self {
        let layout = FeatureLayout::new(data.vocab_size);
        Crf {
            emission: vec![0.0; data.vocab_size * L],
            transition: vec![0.0; L * L],
            bias: vec![0.0; L],
            skip: vec![0.0; L * L],
            prev_emission: vec![0.0; data.vocab_size * L],
            data,
            use_skip,
            layout,
            label_domain: crate::bio::label_domain(),
        }
    }

    /// Linear-chain CRF: templates 1–3 only (§3.3's baseline model).
    pub fn linear_chain(data: Arc<TokenSeqData>) -> Self {
        Crf::with_weights(data, false)
    }

    /// Skip-chain CRF: all four templates (§5, Fig. 3). Exact inference in
    /// this model is intractable.
    pub fn skip_chain(data: Arc<TokenSeqData>) -> Self {
        Crf::with_weights(data, true)
    }

    /// The observed data.
    pub fn data(&self) -> &Arc<TokenSeqData> {
        &self.data
    }

    /// Whether skip factors are active.
    pub fn uses_skip_edges(&self) -> bool {
        self.use_skip
    }

    /// A fresh world with one label variable per token, all initialized to
    /// "O" — mirroring the TOKEN relation's initial LABEL column.
    pub fn new_world(&self) -> World {
        debug_assert_eq!(Label::O.index(), 0);
        World::new(vec![Arc::clone(&self.label_domain); self.data.num_tokens()])
    }

    /// All label variables (one per token).
    pub fn variables(&self) -> Vec<VariableId> {
        (0..self.data.num_tokens() as u32).map(VariableId).collect()
    }

    /// Seeds weights from corpus truth counts (smoothed log-frequency
    /// estimates per template). This is a generative moment-matching
    /// initialization — handy for experiments that need a competent model
    /// without a training run; SampleRank training refines or replaces it.
    pub fn seed_from_truth(&mut self, corpus: &Corpus, scale: f64) {
        assert_eq!(corpus.num_tokens(), self.data.num_tokens());
        let smooth = 1.0;
        // Emission: log P(label | string) against the label prior.
        let mut string_label = vec![0.0f64; self.data.vocab_size * L];
        let mut label_count = [0.0f64; L];
        for (t, tok) in corpus.tokens.iter().enumerate() {
            let li = tok.truth.index();
            string_label[self.data.string_ids[t] as usize * L + li] += 1.0;
            label_count[li] += 1.0;
        }
        let total: f64 = label_count.iter().sum();
        for s in 0..self.data.vocab_size {
            let row = &string_label[s * L..(s + 1) * L];
            let row_total: f64 = row.iter().sum();
            if row_total == 0.0 {
                continue;
            }
            for li in 0..L {
                let p = (row[li] + smooth) / (row_total + smooth * L as f64);
                let prior = (label_count[li] + smooth) / (total + smooth * L as f64);
                self.emission[s * L + li] = scale * (p / prior).ln();
            }
        }
        // Bias: log label frequency.
        for (li, count) in label_count.iter().enumerate() {
            let p = (count + smooth) / (total + smooth * L as f64);
            self.bias[li] = scale * p.ln() / 4.0;
        }
        // Transition: log P(l2 | l1) within documents.
        let mut bigram = vec![0.0f64; L * L];
        for r in &corpus.documents {
            for t in r.start + 1..r.end {
                let a = corpus.tokens[t - 1].truth.index();
                let b = corpus.tokens[t].truth.index();
                bigram[a * L + b] += 1.0;
            }
        }
        for a in 0..L {
            let row_total: f64 = bigram[a * L..(a + 1) * L].iter().sum();
            for b in 0..L {
                let p = (bigram[a * L + b] + smooth) / (row_total + smooth * L as f64);
                self.transition[a * L + b] = scale * p.ln() / 4.0;
            }
        }
        // Previous-word emission: log P(label | previous string) vs prior.
        let mut prev_label = vec![0.0f64; self.data.vocab_size * L];
        for r in &corpus.documents {
            for t in r.start + 1..r.end {
                let psid = self.data.string_ids[t - 1] as usize;
                let li = corpus.tokens[t].truth.index();
                prev_label[psid * L + li] += 1.0;
            }
        }
        for sid in 0..self.data.vocab_size {
            let row = &prev_label[sid * L..(sid + 1) * L];
            let row_total: f64 = row.iter().sum();
            if row_total == 0.0 {
                continue;
            }
            for li in 0..L {
                let p = (row[li] + smooth) / (row_total + smooth * L as f64);
                let prior = (label_count[li] + smooth) / (total + smooth * L as f64);
                self.prev_emission[sid * L + li] = scale * (p / prior).ln() / 2.0;
            }
        }
        // Skip: reward agreement between identical strings.
        if self.use_skip {
            for a in 0..L {
                for b in 0..L {
                    self.skip[a * L + b] = if a == b { scale * 0.5 } else { -scale * 0.5 };
                }
            }
        }
    }

    /// Enumerates the factors adjacent to `vars`, each exactly once, calling
    /// `f(factor_kind, score_or_feature)`. The closure receives the factor's
    /// feature id and its current log-weight; both scoring and feature
    /// extraction are this one traversal.
    fn for_each_neighborhood_factor(
        &self,
        world: &World,
        vars: &[VariableId],
        f: impl FnMut(u64, f64),
    ) {
        self.for_each_neighborhood_factor_with(|t| world.get(VariableId(t as u32)), vars, f)
    }

    /// Getter-based variant: `get(token)` supplies the label index, which
    /// lets callers overlay hypothetical assignments without touching (or
    /// cloning) the world — the Gibbs what-if path.
    fn for_each_neighborhood_factor_with(
        &self,
        get: impl Fn(usize) -> usize,
        vars: &[VariableId],
        mut f: impl FnMut(u64, f64),
    ) {
        let in_vars = |t: usize| vars.iter().any(|v| v.index() == t);
        for &v in vars {
            let t = v.index();
            let lt = get(t);
            let sid = self.data.string_ids[t] as usize;
            // Emission + bias: unary, owned by t.
            f(((sid * L) + lt) as u64, self.emission[sid * L + lt]);
            f(self.layout.transition + lt as u64, self.bias[lt]);
            // Previous-word emission: unary on label t (the previous string
            // is observed, so this factor touches no other hidden variable).
            if t > 0 && self.data.same_doc(t - 1, t) {
                let psid = self.data.string_ids[t - 1] as usize;
                f(
                    self.layout.skip + (psid * L + lt) as u64,
                    self.prev_emission[psid * L + lt],
                );
            }
            // Transitions: pair (t-1, t) and (t, t+1), deduplicated by the
            // rule "owned by the lower endpoint if that endpoint is in vars".
            if t > 0 && self.data.same_doc(t - 1, t) && !in_vars(t - 1) {
                let lp = get(t - 1);
                f(
                    self.layout.emission + (lp * L + lt) as u64,
                    self.transition[lp * L + lt],
                );
            }
            if t + 1 < self.data.num_tokens() && self.data.same_doc(t, t + 1) {
                let ln = get(t + 1);
                f(
                    self.layout.emission + (lt * L + ln) as u64,
                    self.transition[lt * L + ln],
                );
            }
            // Skip edges: pair (t, j); owned by min unless min not in vars.
            if self.use_skip {
                for &j in self.data.skip_neighbors(t) {
                    let j = j as usize;
                    if j < t && in_vars(j) {
                        continue; // counted from j's side
                    }
                    let lj = get(j);
                    let pair = skip_index(lt, lj);
                    f(self.layout.bias + pair as u64, self.skip[pair]);
                }
            }
        }
    }
}

impl Model for Crf {
    fn score_world(&self, world: &World, stats: &mut EvalStats) -> f64 {
        let n = self.data.num_tokens();
        let mut sum = 0.0;
        for t in 0..n {
            let lt = world.get(VariableId(t as u32));
            let sid = self.data.string_ids[t] as usize;
            sum += self.emission[sid * L + lt] + self.bias[lt];
            stats.factors_evaluated += 2;
            if t > 0 && self.data.same_doc(t - 1, t) {
                let psid = self.data.string_ids[t - 1] as usize;
                sum += self.prev_emission[psid * L + lt];
                stats.factors_evaluated += 1;
            }
            if t + 1 < n && self.data.same_doc(t, t + 1) {
                let ln = world.get(VariableId((t + 1) as u32));
                sum += self.transition[lt * L + ln];
                stats.factors_evaluated += 1;
            }
            if self.use_skip {
                for &j in self.data.skip_neighbors(t) {
                    let j = j as usize;
                    if j > t {
                        let lj = world.get(VariableId(j as u32));
                        sum += self.skip[skip_index(lt, lj)];
                        stats.factors_evaluated += 1;
                    }
                }
            }
        }
        sum
    }

    fn score_neighborhood(&self, world: &World, vars: &[VariableId], stats: &mut EvalStats) -> f64 {
        stats.neighborhood_scores += 1;
        let mut sum = 0.0;
        self.for_each_neighborhood_factor(world, vars, |_, w| {
            sum += w;
            stats.factors_evaluated += 1;
        });
        sum
    }

    /// A single relabel is scored in one pass (see the module docs); the
    /// factor order — emission, bias, previous-word emission, left and right
    /// transition, skip edges — is `for_each_neighborhood_factor_with`'s, and
    /// must stay so.
    fn score_change(
        &self,
        world: &mut World,
        changes: &[(VariableId, usize)],
        scratch: &mut ChangeScratch,
        stats: &mut EvalStats,
    ) -> (f64, f64) {
        let &[(var, new)] = changes else {
            return score_change_by_apply(self, world, changes, scratch, stats);
        };
        let label = |t: usize| world.get(VariableId(t as u32));
        let data = &*self.data;
        let t = var.index();
        let old = label(t);
        let sid = data.string_ids[t] as usize;
        let mut before = 0.0;
        let mut after = 0.0;
        let mut both = |weights: &[f64], at_old: usize, at_new: usize| {
            before += weights[at_old];
            after += weights[at_new];
        };
        both(&self.emission, sid * L + old, sid * L + new);
        both(&self.bias, old, new);
        let mut factors = 2;
        if t > 0 && data.same_doc(t - 1, t) {
            let psid = data.string_ids[t - 1] as usize;
            both(&self.prev_emission, psid * L + old, psid * L + new);
            let lp = label(t - 1);
            both(&self.transition, lp * L + old, lp * L + new);
            factors += 2;
        }
        if t + 1 < data.num_tokens() && data.same_doc(t, t + 1) {
            let ln = label(t + 1);
            both(&self.transition, old * L + ln, new * L + ln);
            factors += 1;
        }
        if self.use_skip {
            for &j in data.skip_neighbors(t) {
                let lj = label(j as usize);
                both(&self.skip, skip_index(old, lj), skip_index(new, lj));
                factors += 1;
            }
        }
        stats.neighborhood_scores += 2;
        stats.factors_evaluated += 2 * factors;
        (before, after)
    }

    fn score_neighborhood_whatif(
        &self,
        world: &World,
        var: VariableId,
        value: usize,
        stats: &mut EvalStats,
    ) -> f64 {
        stats.neighborhood_scores += 1;
        let mut sum = 0.0;
        let target = var.index();
        self.for_each_neighborhood_factor_with(
            |t| {
                if t == target {
                    value
                } else {
                    world.get(VariableId(t as u32))
                }
            },
            &[var],
            |_, w| {
                sum += w;
                stats.factors_evaluated += 1;
            },
        );
        sum
    }
}

impl FactorSpans for Crf {
    /// Enumerates the CRF's pair-factor scopes: transitions between
    /// consecutive same-document tokens, and (when active) skip edges.
    /// Unary templates (emission, bias, previous-word emission) are skipped
    /// — a single-variable factor cannot span shards. Every scope emitted
    /// here lies within one document, which is what makes by-document
    /// sharding ([`TokenSeqData::shard_map`]) valid for this model.
    fn for_each_factor_span(&self, f: &mut dyn FnMut(&[VariableId])) {
        let n = self.data.num_tokens();
        for t in 0..n {
            if t + 1 < n && self.data.same_doc(t, t + 1) {
                f(&[VariableId(t as u32), VariableId((t + 1) as u32)]);
            }
            if self.use_skip {
                for &j in self.data.skip_neighbors(t) {
                    if (j as usize) > t {
                        f(&[VariableId(t as u32), VariableId(j)]);
                    }
                }
            }
        }
    }
}

impl Learnable for Crf {
    fn features_neighborhood(&self, world: &World, vars: &[VariableId]) -> FeatureVector {
        let mut fv = FeatureVector::new();
        self.for_each_neighborhood_factor(world, vars, |id, _| fv.add(id, 1.0));
        fv
    }

    fn apply_gradient(&mut self, grad: &FeatureVector, lr: f64) -> Result<(), ModelError> {
        // Validate every id first so a malformed gradient cannot leave the
        // weights half-updated (and cannot abort the thread, as the old
        // panic here did).
        for (id, _) in grad.iter() {
            if id >= self.layout.prev {
                return Err(ModelError::FeatureOutOfRange {
                    id,
                    num_features: self.layout.prev,
                });
            }
        }
        for (id, g) in grad.iter() {
            let delta = lr * g;
            if id < self.layout.emission {
                self.emission[id as usize] += delta;
            } else if id < self.layout.transition {
                self.transition[(id - self.layout.emission) as usize] += delta;
            } else if id < self.layout.bias {
                self.bias[(id - self.layout.transition) as usize] += delta;
            } else if id < self.layout.skip {
                self.skip[(id - self.layout.bias) as usize] += delta;
            } else {
                self.prev_emission[(id - self.layout.skip) as usize] += delta;
            }
        }
        Ok(())
    }

    fn weight(&self, id: u64) -> Result<f64, ModelError> {
        Ok(if id < self.layout.emission {
            self.emission[id as usize]
        } else if id < self.layout.transition {
            self.transition[(id - self.layout.emission) as usize]
        } else if id < self.layout.bias {
            self.bias[(id - self.layout.transition) as usize]
        } else if id < self.layout.skip {
            self.skip[(id - self.layout.bias) as usize]
        } else if id < self.layout.prev {
            self.prev_emission[(id - self.layout.skip) as usize]
        } else {
            return Err(ModelError::FeatureOutOfRange {
                id,
                num_features: self.layout.prev,
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_corpus() -> Corpus {
        Corpus::generate(&CorpusConfig {
            num_docs: 4,
            mean_doc_len: 30,
            common_vocab: 40,
            entities_per_type: 6,
            entity_rate: 0.25,
            repeat_rate: 0.6,
            cue_rate: 0.3,
            seed: 5,
        })
    }

    fn randomize(crf: &mut Crf, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for w in crf
            .emission
            .iter_mut()
            .chain(crf.transition.iter_mut())
            .chain(crf.bias.iter_mut())
            .chain(crf.skip.iter_mut())
        {
            *w = rng.gen_range(-1.0..1.0);
        }
    }

    #[test]
    fn neighborhood_delta_equals_world_delta_linear() {
        let c = tiny_corpus();
        let data = TokenSeqData::from_corpus(&c, 8);
        let mut crf = Crf::linear_chain(Arc::clone(&data));
        randomize(&mut crf, 1);
        check_cancellation(&crf);
    }

    #[test]
    fn neighborhood_delta_equals_world_delta_skip() {
        let c = tiny_corpus();
        let data = TokenSeqData::from_corpus(&c, 8);
        let mut crf = Crf::skip_chain(Arc::clone(&data));
        randomize(&mut crf, 2);
        assert!(data.num_skip_edges() > 0, "test needs skip edges");
        check_cancellation(&crf);
    }

    /// The Appendix-9.2 identity: for any single- or multi-variable change,
    /// the neighborhood score difference equals the full-world difference.
    fn check_cancellation(crf: &Crf) {
        let mut world = crf.new_world();
        let mut rng = StdRng::seed_from_u64(42);
        let n = crf.data().num_tokens();
        // Random starting assignment.
        for t in 0..n {
            world.set(VariableId(t as u32), rng.gen_range(0..L));
        }
        let mut stats = EvalStats::default();
        for trial in 0..60 {
            // 1–3 random variables changed at once.
            let k = 1 + trial % 3;
            let vars: Vec<VariableId> = (0..k)
                .map(|_| VariableId(rng.gen_range(0..n as u32)))
                .collect();
            let mut dedup = vars.clone();
            dedup.sort();
            dedup.dedup();

            let full_before = crf.score_world(&world, &mut stats);
            let hood_before = crf.score_neighborhood(&world, &dedup, &mut stats);
            let saved: Vec<usize> = dedup.iter().map(|&v| world.get(v)).collect();
            for &v in &dedup {
                world.set(v, rng.gen_range(0..L));
            }
            let full_after = crf.score_world(&world, &mut stats);
            let hood_after = crf.score_neighborhood(&world, &dedup, &mut stats);
            assert!(
                ((full_after - full_before) - (hood_after - hood_before)).abs() < 1e-9,
                "cancellation identity violated (trial {trial})"
            );
            for (&v, &s) in dedup.iter().zip(&saved) {
                world.set(v, s);
            }
        }
    }

    #[test]
    fn neighborhood_factor_count_constant_in_corpus_size() {
        // The Fig. 9 claim: per-proposal factor evaluations do not grow with
        // the number of tuples.
        let mut counts = Vec::new();
        for docs in [5usize, 50] {
            let c = Corpus::generate(&CorpusConfig {
                num_docs: docs,
                seed: 9,
                ..Default::default()
            });
            let data = TokenSeqData::from_corpus(&c, 8);
            let crf = Crf::skip_chain(data);
            let world = crf.new_world();
            let mut stats = EvalStats::default();
            // Score the same relative position (first token of doc 0).
            crf.score_neighborhood(&world, &[VariableId(0)], &mut stats);
            counts.push(stats.factors_evaluated);
        }
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn by_document_shard_map_validates_against_skip_chain() {
        let c = tiny_corpus();
        let data = TokenSeqData::from_corpus(&c, 8);
        let crf = Crf::skip_chain(Arc::clone(&data));
        assert!(data.num_skip_edges() > 0, "test needs skip edges");
        for shards in 1..=c.documents.len() {
            let map = data.shard_map(shards).expect("shard map");
            assert_eq!(map.num_shards(), shards);
            assert_eq!(map.num_variables(), data.num_tokens());
            map.validate(&crf)
                .expect("document shards must not split any CRF factor");
        }
    }

    #[test]
    fn mid_document_split_is_rejected_by_validate() {
        let c = tiny_corpus();
        let data = TokenSeqData::from_corpus(&c, 8);
        let crf = Crf::skip_chain(Arc::clone(&data));
        // Cut the corpus in half mid-document: some transition (or skip)
        // factor necessarily straddles the boundary.
        let n = data.num_tokens();
        let cut = data.doc_ranges[0].end + 1; // one token into doc 1
        let assignment: Vec<u32> = (0..n).map(|t| u32::from(t >= cut)).collect();
        let map = ShardMap::from_assignment(assignment).expect("dense map");
        let err = map
            .validate(&crf)
            .expect_err("mid-document cut must be rejected");
        assert!(matches!(err, ShardError::SpanningFactor { .. }), "{err}");
    }

    #[test]
    fn score_equals_features_dot_weights() {
        // score_neighborhood must equal φ · θ — the contract SampleRank
        // relies on.
        let c = tiny_corpus();
        let data = TokenSeqData::from_corpus(&c, 8);
        let mut crf = Crf::skip_chain(data);
        randomize(&mut crf, 3);
        let mut world = crf.new_world();
        let mut rng = StdRng::seed_from_u64(7);
        for t in 0..crf.data().num_tokens() {
            world.set(VariableId(t as u32), rng.gen_range(0..L));
        }
        let mut stats = EvalStats::default();
        for t in [0usize, 3, 10] {
            let vars = [VariableId(t as u32)];
            let score = crf.score_neighborhood(&world, &vars, &mut stats);
            let feats = crf.features_neighborhood(&world, &vars);
            let dot: f64 = feats
                .iter()
                .map(|(id, v)| v * crf.weight(id).unwrap())
                .sum();
            assert!((score - dot).abs() < 1e-9, "score {score} vs φ·θ {dot}");
        }
    }

    #[test]
    fn gradient_updates_round_trip() {
        let c = tiny_corpus();
        let data = TokenSeqData::from_corpus(&c, 8);
        let mut crf = Crf::skip_chain(data);
        let mut grad = FeatureVector::new();
        grad.add(0, 1.0); // first emission weight
        grad.add(crf.layout.emission, 2.0); // first transition weight
        grad.add(crf.layout.transition, 3.0); // first bias weight
        grad.add(crf.layout.bias, 4.0); // first skip weight
        crf.apply_gradient(&grad, 0.5).unwrap();
        assert_eq!(crf.weight(0).unwrap(), 0.5);
        assert_eq!(crf.weight(crf.layout.emission).unwrap(), 1.0);
        assert_eq!(crf.weight(crf.layout.transition).unwrap(), 1.5);
        assert_eq!(crf.weight(crf.layout.bias).unwrap(), 2.0);
    }

    #[test]
    fn out_of_range_feature_ids_error_without_partial_updates() {
        let c = tiny_corpus();
        let data = TokenSeqData::from_corpus(&c, 8);
        let mut crf = Crf::skip_chain(data);
        let bad_id = crf.layout.prev + 10;
        assert_eq!(
            crf.weight(bad_id),
            Err(ModelError::FeatureOutOfRange {
                id: bad_id,
                num_features: crf.layout.prev
            })
        );
        // A gradient mixing valid and invalid ids is rejected atomically:
        // no weight moves.
        let mut grad = FeatureVector::new();
        grad.add(0, 1.0);
        grad.add(bad_id, 1.0);
        assert!(crf.apply_gradient(&grad, 0.5).is_err());
        assert_eq!(crf.weight(0).unwrap(), 0.0, "no partial update on error");
    }

    #[test]
    fn seeded_weights_prefer_truth_world() {
        let c = tiny_corpus();
        let data = TokenSeqData::from_corpus(&c, 8);
        let mut crf = Crf::skip_chain(Arc::clone(&data));
        crf.seed_from_truth(&c, 1.0);
        let mut truth_world = crf.new_world();
        for (t, idx) in c.truth_indexes().iter().enumerate() {
            truth_world.set(VariableId(t as u32), *idx as usize);
        }
        let all_o = crf.new_world();
        let mut stats = EvalStats::default();
        assert!(
            crf.score_world(&truth_world, &mut stats) > crf.score_world(&all_o, &mut stats),
            "truth labelling must outscore the all-O initialization"
        );
    }

    #[test]
    fn linear_chain_ignores_skip_edges() {
        let c = tiny_corpus();
        let data = TokenSeqData::from_corpus(&c, 8);
        assert!(data.num_skip_edges() > 0);
        let mut lin = Crf::linear_chain(Arc::clone(&data));
        let mut skp = Crf::skip_chain(Arc::clone(&data));
        randomize(&mut lin, 4);
        randomize(&mut skp, 4); // identical weights
        assert!(!lin.uses_skip_edges() && skp.uses_skip_edges());
        // Find a token with skip neighbors; its neighborhood factor counts
        // must differ between the two models.
        let t = (0..data.num_tokens())
            .find(|&t| !data.skip_neighbors(t).is_empty())
            .unwrap();
        let world = lin.new_world();
        let mut s1 = EvalStats::default();
        let mut s2 = EvalStats::default();
        lin.score_neighborhood(&world, &[VariableId(t as u32)], &mut s1);
        skp.score_neighborhood(&world, &[VariableId(t as u32)], &mut s2);
        assert!(s2.factors_evaluated > s1.factors_evaluated);
    }

    #[test]
    fn skip_edges_are_symmetric_and_capped() {
        let c = tiny_corpus();
        let cap = 3;
        let data = TokenSeqData::from_corpus(&c, cap);
        for t in 0..data.num_tokens() {
            assert!(data.skip_neighbors(t).len() <= cap);
            for &j in data.skip_neighbors(t) {
                assert!(
                    data.skip_neighbors(j as usize).contains(&(t as u32)),
                    "skip edge must be symmetric"
                );
                assert_eq!(data.doc_of(t), data.doc_of(j as usize));
            }
        }
    }

    #[test]
    fn whatif_scoring_matches_actual_assignment() {
        let c = tiny_corpus();
        let data = TokenSeqData::from_corpus(&c, 8);
        let mut crf = Crf::skip_chain(data);
        randomize(&mut crf, 9);
        let mut world = crf.new_world();
        let mut rng = StdRng::seed_from_u64(31);
        for t in 0..crf.data().num_tokens() {
            world.set(VariableId(t as u32), rng.gen_range(0..L));
        }
        let mut s1 = EvalStats::default();
        let mut s2 = EvalStats::default();
        for _ in 0..50 {
            let v = VariableId(rng.gen_range(0..crf.data().num_tokens() as u32));
            let d = rng.gen_range(0..L);
            let whatif = crf.score_neighborhood_whatif(&world, v, d, &mut s1);
            let old = world.set(v, d);
            let real = crf.score_neighborhood(&world, &[v], &mut s2);
            world.set(v, old);
            assert!((whatif - real).abs() < 1e-12);
        }
        assert_eq!(s1.factors_evaluated, s2.factors_evaluated);
    }

    #[test]
    fn world_starts_all_o() {
        let c = tiny_corpus();
        let data = TokenSeqData::from_corpus(&c, 8);
        let crf = Crf::linear_chain(data);
        let w = crf.new_world();
        assert_eq!(w.num_variables(), c.num_tokens());
        for v in crf.variables() {
            assert_eq!(w.value(v).as_str(), Some("O"));
        }
    }
}
