//! Criterion bench: MH walk-step cost vs database size.
//!
//! The flatness of these curves is the operational content of Fig. 9 /
//! Appendix 9.2 — a walk step evaluates a constant number of factors, so
//! its cost must not grow with the number of tuples. Benchmarks both the
//! linear-chain and the (denser) skip-chain model under the uniform
//! proposer, and the skip chain under the paper's document-locality
//! proposer (what the `views_100k`/`serve_100k` workloads of `e2e/` run).
//! What growth remains is the memory hierarchy, not the algorithm: up to
//! 100 K tokens the uniform proposer's working set sits in L2, at 500 K
//! (the `walk_500k` size) it does not; the locality proposer's batch of
//! five documents always does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fgdb_core::{ner_proposer, NerProposerConfig};
use fgdb_ie::{Corpus, CorpusConfig, Crf, TokenSeqData};
use fgdb_mcmc::Chain;
use std::sync::Arc;

fn bench_mh_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("mh_walk_step");
    for &tokens in &[2_000usize, 20_000, 100_000, 500_000] {
        let corpus = Corpus::generate(&CorpusConfig::with_total_tokens(tokens));
        let data = TokenSeqData::from_corpus(&corpus, 8);
        for (name, skip, uniform) in [
            ("linear_chain", false, true),
            ("skip_chain", true, true),
            ("skip_chain_locality", true, false),
        ] {
            let mut model = if skip {
                Crf::skip_chain(Arc::clone(&data))
            } else {
                Crf::linear_chain(Arc::clone(&data))
            };
            model.seed_from_truth(&corpus, 1.0);
            let model = Arc::new(model);
            let proposer = ner_proposer(
                &data,
                &NerProposerConfig {
                    uniform,
                    ..NerProposerConfig::default()
                },
            );
            let world = model.new_world();
            let mut chain = Chain::new(Arc::clone(&model), proposer, world, 7);
            group.throughput(Throughput::Elements(1_000));
            group.bench_with_input(BenchmarkId::new(name, corpus.num_tokens()), &(), |b, ()| {
                b.iter(|| chain.run(1_000));
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mh_step
}
criterion_main!(benches);
