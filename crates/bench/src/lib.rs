//! # fgdb-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md §4
//! and EXPERIMENTS.md). This library holds the shared plumbing: scaled
//! corpus construction, trained-model caching, ground-truth estimation by
//! long sampler runs (the paper's §5.2 methodology), and text/CSV reporting.
//!
//! Every binary accepts the `FGDB_SCALE` environment variable (default 1.0):
//! experiment sizes are multiplied by it, so `FGDB_SCALE=50` approaches
//! paper scale while the default finishes in minutes on a laptop.

pub mod report;

pub use report::Report;

use fgdb_core::{
    build_ner_pdb, ner_proposer, train_ner_model, EngineConfig, MarginalTable, NerProposerConfig,
    ParallelEngine, ProbabilisticDB, QueryEvaluator,
};
use fgdb_ie::{Corpus, CorpusConfig, Crf, TokenSeqData};
use fgdb_relational::{Plan, Tuple};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Reads the global scale factor from `FGDB_SCALE` (default 1.0).
pub fn scale_factor() -> f64 {
    std::env::var("FGDB_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scales a size by `FGDB_SCALE`.
pub fn scaled(n: usize) -> usize {
    ((n as f64) * scale_factor()).round().max(1.0) as usize
}

/// A corpus plus a trained skip-chain CRF at a given token count.
pub struct NerSetup {
    /// The synthetic corpus.
    pub corpus: Corpus,
    /// Shared observed data.
    pub data: Arc<TokenSeqData>,
    /// Trained model (shared across chains).
    pub model: Arc<Crf>,
}

impl NerSetup {
    /// Generates a corpus of ≈ `tokens` tokens and trains a skip-chain CRF
    /// with SampleRank (§5.2). Deterministic in `seed`.
    pub fn build(tokens: usize, seed: u64) -> NerSetup {
        let mut cfg = CorpusConfig::with_total_tokens(tokens);
        cfg.seed = seed;
        let corpus = Corpus::generate(&cfg);
        let data = TokenSeqData::from_corpus(&corpus, 8);
        let mut model = Crf::skip_chain(Arc::clone(&data));
        // Moment-matching initialization + a SampleRank refinement pass.
        model.seed_from_truth(&corpus, 2.0);
        let steps = 50_000.min(corpus.num_tokens() * 10);
        train_ner_model(&corpus, &mut model, steps, seed ^ 0x7a11).expect("SampleRank training");
        NerSetup {
            corpus,
            data,
            model: Arc::new(model),
        }
    }

    /// Like [`NerSetup::build`] but with a *softer* model: moment-matched
    /// weights only, no SampleRank sharpening. The posterior is flatter, so
    /// chains mix quickly — the right regime for experiments that study
    /// sampler variance (Fig. 5) rather than answer quality.
    pub fn build_soft(tokens: usize, seed: u64) -> NerSetup {
        let mut cfg = CorpusConfig::with_total_tokens(tokens);
        cfg.seed = seed;
        let corpus = Corpus::generate(&cfg);
        let data = TokenSeqData::from_corpus(&corpus, 8);
        let mut model = Crf::skip_chain(Arc::clone(&data));
        model.seed_from_truth(&corpus, 1.0);
        NerSetup {
            corpus,
            data,
            model: Arc::new(model),
        }
    }

    /// Mounts a fresh probabilistic database (its own copy of the stored
    /// world) with the given chain seed.
    pub fn pdb(&self, chain_seed: u64) -> ProbabilisticDB<Arc<Crf>> {
        build_ner_pdb(
            &self.corpus,
            Arc::clone(&self.model),
            &NerProposerConfig::default(),
            chain_seed,
        )
    }

    /// Mounts a probabilistic database and burns it in for `burn` MH steps
    /// before any evaluator attaches. All worlds start at the deterministic
    /// all-"O" labelling; discarding the approach to the stationary region
    /// keeps initialization bias out of marginal estimates (standard MCMC
    /// practice; the paper's very long runs amortize it implicitly).
    pub fn pdb_burned(&self, chain_seed: u64, burn: usize) -> ProbabilisticDB<Arc<Crf>> {
        let mut pdb = self.pdb(chain_seed);
        pdb.step(burn).expect("burn-in");
        pdb
    }

    /// A reasonable burn-in for this corpus: enough steps for several full
    /// sweeps over the hidden variables.
    pub fn default_burn(&self) -> usize {
        self.corpus.num_tokens() * 10
    }
}

/// Estimates ground-truth marginals the way the paper does (§5.2): a long
/// run of the (materialized) sampler, burned in. Returns the probability map.
pub fn estimate_ground_truth(
    setup: &NerSetup,
    plan: &Plan,
    samples: usize,
    k: usize,
    seed: u64,
) -> HashMap<Tuple, f64> {
    let mut pdb = setup.pdb_burned(seed, setup.default_burn());
    let mut eval = QueryEvaluator::materialized(plan.clone(), &pdb, k).expect("plan validates");
    eval.run(&mut pdb, samples).expect("ground truth run");
    eval.marginals().as_map()
}

/// Ground truth averaged over several burned-in chains (the paper obtains
/// its Fig. 5 reference "by averaging eight parallel chains"): a
/// [`ParallelEngine`] snapshots one database into `chains` replicas, burns
/// each in for [`NerSetup::default_burn`] steps on its own stream (chain
/// `i` seeded [`fgdb_core::chain_seed`]`(seed, i)`), draws one round of
/// `samples_per_chain` samples at thinning `k`, and averages the chains.
pub fn estimate_ground_truth_multichain(
    setup: &NerSetup,
    plan: &Plan,
    chains: usize,
    samples_per_chain: usize,
    k: usize,
    seed: u64,
) -> HashMap<Tuple, f64> {
    let cfg = EngineConfig {
        chains,
        thinning: k,
        checkpoint_samples: samples_per_chain,
        r_hat_threshold: 0.0,
        min_samples: 1,
        max_samples: samples_per_chain,
        replica_burn_steps: setup.default_burn(),
        base_seed: seed,
    };
    let mut engine = ParallelEngine::new(&setup.pdb(seed), plan.clone(), cfg, |_| {
        ner_proposer(&setup.data, &NerProposerConfig::default())
    })
    .expect("plan validates");
    engine.run_rounds(1).expect("truth chains");
    engine.answer().merged()
}

/// Squared error of a marginal table against a truth map.
pub fn loss_against(table: &MarginalTable, truth: &HashMap<Tuple, f64>) -> f64 {
    fgdb_core::squared_error(&table.as_map(), truth)
}

/// Pretty-prints an aligned table with a header.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Emits a CSV block to stdout, fenced so humans can grep it out.
pub fn print_csv(name: &str, header: &str, rows: &[String]) {
    println!("\n--- csv:{name} ---");
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
    println!("--- end:{name} ---");
}

/// Runs a closure and returns `(result, elapsed seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdb_relational::algebra::paper_queries;

    #[test]
    fn setup_builds_and_samples() {
        let setup = NerSetup::build(800, 1);
        assert!(setup.corpus.num_tokens() >= 400);
        let mut pdb = setup.pdb(2);
        let plan = paper_queries::query1("TOKEN");
        let mut eval = QueryEvaluator::materialized(plan.clone(), &pdb, 100).unwrap();
        eval.run(&mut pdb, 5).unwrap();
        assert_eq!(eval.marginals().samples(), 6);

        let truth = estimate_ground_truth(&setup, &plan, 20, 100, 3);
        let loss = loss_against(eval.marginals(), &truth);
        assert!(loss.is_finite());
    }

    #[test]
    fn scale_factor_defaults_to_one() {
        // May be overridden by the environment in CI; just sanity-check.
        let s = scale_factor();
        assert!(s > 0.0);
        assert_eq!(scaled(100), ((100_f64) * s).round() as usize);
    }
}
