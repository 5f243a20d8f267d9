//! One pass ≡ two passes, bit for bit: `Crf`'s single-traversal override of
//! [`Model::score_change`] must return exactly what the trait's default body
//! ([`score_change_by_apply`]: score, apply, score, undo) returns — the same
//! `(before, after)` by `f64::to_bits` and the same [`EvalStats`] — for every
//! token position and every new label, or swapping it in would change MCMC
//! trajectories. Multi-variable change sets (which take the default body)
//! must still satisfy the Appendix-9.2 identity with shared transition and
//! skip factors counted once.

use fgdb_graph::{
    score_change_by_apply, ChangeScratch, EvalStats, FeatureVector, Learnable, Model, ModelError,
    VariableId, World,
};
use fgdb_ie::{Corpus, CorpusConfig, Crf, TokenSeqData, NUM_LABELS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const MAX_SKIP: usize = 8;

/// A few short documents with heavily repeated entity strings, so tokens
/// carry anywhere from 0 to `MAX_SKIP` skip neighbours.
fn corpus(seed: u64) -> Corpus {
    Corpus::generate(&CorpusConfig {
        num_docs: 4,
        mean_doc_len: 36,
        common_vocab: 30,
        entities_per_type: 2,
        entity_rate: 0.35,
        repeat_rate: 0.8,
        cue_rate: 0.3,
        seed,
    })
}

/// A CRF over the corpus with every weight drawn from (−2, 2), and a world
/// with every label drawn uniformly.
fn random_model(corpus: &Corpus, skip: bool, seed: u64) -> (Crf, World) {
    let data = TokenSeqData::from_corpus(corpus, MAX_SKIP);
    let mut crf = if skip {
        Crf::skip_chain(data)
    } else {
        Crf::linear_chain(data)
    };
    let Err(ModelError::FeatureOutOfRange { num_features, .. }) = crf.weight(u64::MAX) else {
        panic!("no feature has id u64::MAX");
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weights = FeatureVector::new();
    for id in 0..num_features {
        weights.add(id, rng.gen_range(-2.0..2.0));
    }
    // Weights start at zero, so a unit step along `weights` sets them.
    crf.apply_gradient(&weights, 1.0).expect("ids are in range");
    let mut world = crf.new_world();
    for v in crf.variables() {
        world.set(v, rng.gen_range(0..NUM_LABELS));
    }
    (crf, world)
}

#[test]
fn generated_corpora_cover_the_neighbourhood_shapes() {
    // The property below sweeps every token of its corpus; this pins that
    // such a sweep meets document edges and the whole range of skip degrees.
    let c = corpus(1);
    let data = TokenSeqData::from_corpus(&c, MAX_SKIP);
    let degrees: Vec<usize> = (0..data.num_tokens())
        .map(|t| data.skip_neighbors(t).len())
        .collect();
    assert!(degrees.contains(&0) && degrees.contains(&MAX_SKIP));
    assert!((1..MAX_SKIP).filter(|d| degrees.contains(d)).count() >= 3);
    assert!(data.doc_ranges().len() > 1, "interior document boundaries");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn relabel_in_one_pass_equals_two_passes_bit_for_bit(
        corpus_seed in 0u64..1000,
        model_seed in any::<u64>(),
        skip in any::<bool>(),
    ) {
        let corpus = corpus(corpus_seed);
        let (crf, mut world) = random_model(&corpus, skip, model_seed);
        let snapshot = world.assignment().to_vec();
        let mut scratch = ChangeScratch::default();
        // Every token — first, last and interior of every document, every
        // skip degree the corpus has — under every new label, `new == old`
        // included.
        for var in crf.variables() {
            for new in 0..NUM_LABELS {
                let change = [(var, new)];
                let mut one = EvalStats::default();
                let mut two = EvalStats::default();
                let (b1, a1) = crf.score_change(&mut world, &change, &mut scratch, &mut one);
                let (b2, a2) =
                    score_change_by_apply(&crf, &mut world, &change, &mut scratch, &mut two);
                prop_assert_eq!(
                    (b1.to_bits(), a1.to_bits()),
                    (b2.to_bits(), a2.to_bits()),
                    "token {} -> label {}: ({}, {}) vs ({}, {})", var, new, b1, a1, b2, a2
                );
                prop_assert_eq!(one, two);
                prop_assert_eq!(one.neighborhood_scores, 2);
                if world.get(var) == new {
                    prop_assert_eq!(b1.to_bits(), a1.to_bits());
                }
            }
        }
        prop_assert_eq!(world.assignment(), &snapshot[..], "scoring must not move the world");
    }

    #[test]
    fn multi_variable_change_equals_the_world_score_difference(
        corpus_seed in 0u64..1000,
        model_seed in any::<u64>(),
        picks in prop::collection::vec((any::<u32>(), 0usize..3, 0usize..NUM_LABELS), 2..5),
    ) {
        let corpus = corpus(corpus_seed);
        let (crf, mut world) = random_model(&corpus, true, model_seed);
        let crf = Arc::new(crf); // through a wrapper, as the sampler holds it
        let n = crf.data().num_tokens();
        // Each pick is a token, or its right neighbour, or one of its skip
        // neighbours — so change sets share transition and skip factors, and
        // may name one variable twice.
        let changes: Vec<(VariableId, usize)> = picks
            .iter()
            .map(|&(raw, relation, new)| {
                let t = raw as usize % n;
                let skips = crf.data().skip_neighbors(t);
                let target = match relation {
                    1 if t + 1 < n => t + 1,
                    2 if !skips.is_empty() => skips[raw as usize % skips.len()] as usize,
                    _ => t,
                };
                (VariableId(target as u32), new)
            })
            .collect();

        let snapshot = world.assignment().to_vec();
        let mut stats = EvalStats::default();
        let mut scratch = ChangeScratch::default();
        let (before, after) = crf.score_change(&mut world, &changes, &mut scratch, &mut stats);
        prop_assert_eq!(world.assignment(), &snapshot[..]);
        prop_assert_eq!(stats.neighborhood_scores, 2);

        let mut ignored = EvalStats::default();
        let full_before = crf.score_world(&world, &mut ignored);
        for &(v, new) in &changes {
            world.set(v, new);
        }
        let full_after = crf.score_world(&world, &mut ignored);
        prop_assert!(
            ((after - before) - (full_after - full_before)).abs() < 1e-9,
            "neighbourhood delta {} vs world delta {} for {:?}",
            after - before, full_after - full_before, changes
        );
    }
}
