//! Sharded intra-world sampling: samples/sec and view staleness as the
//! factor graph is partitioned by document.
//!
//! One seeded MH walker per shard runs against its own contiguous
//! document-block slice of the world (`TokenSeqData::shard_map`); the
//! merged per-shard delta batches drive the store write-back and a
//! materialized Query-1 view, exactly as in production
//! (`ProbabilisticDB::step_sharded_logged`). Walkers use *uniform* relabel
//! proposals: the single-shard baseline random-walks the entire corpus
//! working set (world + token arrays + skip CSR — tens of MB at 10⁶–10⁷
//! tokens, far beyond L2), while each of N shards touches only a 1/N
//! contiguous slice. On a single core the win is cache and TLB locality,
//! not parallelism; on multi-core hardware the scoped-thread walkers add
//! real concurrency on top.
//!
//! The comparison holds *total proposals per interval* fixed across shard
//! counts, so per-interval merge/write-back/view costs are identical and
//! any throughput difference is the sampling itself.
//!
//! Knobs: `FGDB_SHARDS` (comma list, default `1,2,4,8`), `FGDB_SCALE`
//! (multiplies the corpus sizes, default 1.0 → 10⁶ and 4·10⁶ tokens).
//! Emits `BENCH_sharded_sampling.json`.

use fgdb_bench::{print_csv, print_table, scale_factor, scaled, Report};
use fgdb_core::{MarginalTable, NerProposerConfig, ProbabilisticDB};
use fgdb_ie::{Corpus, CorpusConfig, Crf, TokenSeqData};
use fgdb_mcmc::{Proposer, UniformRelabel};
use fgdb_relational::algebra::paper_queries;
use fgdb_relational::MaterializedView;
use std::sync::Arc;
use std::time::Instant;

/// Proposals per thinning interval, summed over all shards — held fixed
/// across shard counts so interval-boundary costs cancel out of the
/// comparison.
const INTERVAL_PROPOSALS: usize = 32_000;
/// Measured intervals per configuration (plus one untimed warm-up).
const INTERVALS: usize = 14;

fn shard_counts() -> Vec<usize> {
    std::env::var("FGDB_SHARDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

struct Setup {
    corpus: Corpus,
    data: Arc<TokenSeqData>,
    pdb: ProbabilisticDB<Arc<Crf>>,
}

fn build(tokens: usize, seed: u64) -> Setup {
    let mut cfg = CorpusConfig::with_total_tokens(tokens);
    cfg.seed = seed;
    let corpus = Corpus::generate(&cfg);
    let data = TokenSeqData::from_corpus(&corpus, 8);
    let mut model = Crf::skip_chain(Arc::clone(&data));
    // Moment-matched weights (no SampleRank pass): sharpness is irrelevant
    // to throughput, and training at 10⁶⁺ tokens would dwarf the bench.
    model.seed_from_truth(&corpus, 2.0);
    let pdb = fgdb_core::build_ner_pdb(
        &corpus,
        Arc::new(model),
        &NerProposerConfig {
            uniform: true,
            ..Default::default()
        },
        seed,
    );
    Setup { corpus, data, pdb }
}

fn main() {
    let sizes: Vec<usize> = [1_000_000usize, 4_000_000]
        .iter()
        .map(|&n| scaled(n))
        .collect();
    let shards_list = shard_counts();
    println!("Sharded intra-world sampling: shards {shards_list:?}, corpus sizes {sizes:?}");
    println!(
        "interval = {INTERVAL_PROPOSALS} proposals (all shards), {INTERVALS} intervals/config"
    );

    let mut report = Report::new(
        "sharded_sampling",
        &[
            "tokens",
            "shards",
            "proposals",
            "elapsed_s",
            "samples_per_sec",
            "speedup_vs_1shard",
            "staleness_ms",
            "accept_rate",
        ],
    );
    report
        .param("scale", scale_factor())
        .param("shards", format!("{shards_list:?}"))
        .param("interval_proposals", INTERVAL_PROPOSALS)
        .param("intervals", INTERVALS)
        .param(
            "cores",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        );

    let plan = paper_queries::query1("TOKEN");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (si, &tokens) in sizes.iter().enumerate() {
        let (mut setup, build_s) = {
            let t0 = Instant::now();
            let s = build(tokens, 0xBEEF + si as u64);
            (s, t0.elapsed().as_secs_f64())
        };
        let n = setup.corpus.num_tokens();
        println!("\n[{n} tokens] built in {build_s:.1}s; burning in…");
        // One uniform sweep of burn-in so every shard configuration starts
        // from comparably stationary acceptance behaviour.
        setup.pdb.step(n).expect("burn-in");

        let mut baseline: Option<f64> = None;
        for &shards in &shards_list {
            let map = Arc::new(setup.data.shard_map(shards).expect("by-document shards"));
            let mut sampler = setup
                .pdb
                .sharded_sampler(
                    Arc::clone(&map),
                    |_, vars| Box::new(UniformRelabel::new(vars.to_vec())) as Box<dyn Proposer>,
                    42,
                )
                .expect("validated shard map");
            let mut view =
                MaterializedView::new(&plan, setup.pdb.database()).expect("query 1 view");
            let mut marginals = MarginalTable::new();
            let k = INTERVAL_PROPOSALS / shards;

            // Warm-up interval: page the shard slices in, untimed.
            let (d, _) = setup
                .pdb
                .step_sharded_logged(&mut sampler, k)
                .expect("warm-up");
            view.apply_delta(&d);
            let stats0 = sampler.stats();

            let mut staleness = Vec::with_capacity(INTERVALS);
            let t0 = Instant::now();
            for _ in 0..INTERVALS {
                let ti = Instant::now();
                let (d, _) = setup
                    .pdb
                    .step_sharded_logged(&mut sampler, k)
                    .expect("interval");
                view.apply_delta(&d);
                marginals.record(view.result());
                staleness.push(ti.elapsed().as_secs_f64());
            }
            let elapsed = t0.elapsed().as_secs_f64();
            let stats = sampler.stats();
            let proposals = stats.proposals - stats0.proposals;
            let accepted = stats.accepted - stats0.accepted;
            let sps = proposals as f64 / elapsed;
            let speedup = sps / *baseline.get_or_insert(sps);
            let stale_ms = staleness.iter().sum::<f64>() / staleness.len().max(1) as f64 * 1_000.0;
            let accept = accepted as f64 / proposals.max(1) as f64;

            // Guard against a dead sampler being reported as "fast".
            assert_eq!(marginals.samples() as usize, INTERVALS);
            assert!(
                shards_agree_with_master(&map, &sampler, setup.pdb.world()),
                "shard world diverged from the merged master world"
            );

            println!(
                "  {shards:>2} shards: {sps:>12.0} proposals/s  ({speedup:.2}x)  \
                 staleness {stale_ms:.1} ms  accept {accept:.3}"
            );
            rows.push(vec![
                n.to_string(),
                shards.to_string(),
                proposals.to_string(),
                format!("{elapsed:.3}"),
                format!("{sps:.0}"),
                format!("{speedup:.3}"),
                format!("{stale_ms:.2}"),
                format!("{accept:.4}"),
            ]);
            csv.push(format!(
                "{n},{shards},{proposals},{elapsed:.3},{sps:.0},{speedup:.3},{stale_ms:.2},{accept:.4}"
            ));
            report.row(rows.last().unwrap().clone());
        }
    }

    print_table(
        "Sharded sampling: proposals/sec by shard count",
        &[
            "tokens",
            "shards",
            "proposals",
            "elapsed_s",
            "samples/s",
            "speedup",
            "staleness_ms",
            "accept",
        ],
        &rows,
    );
    print_csv(
        "sharded_sampling",
        "tokens,shards,proposals,elapsed_s,samples_per_sec,speedup_vs_1shard,staleness_ms,accept_rate",
        &csv,
    );
    if let Some(path) = report.write_if_configured() {
        println!("\nreport: {}", path.display());
    }
}

/// Spot check of the correctness invariant the throughput claim rests on:
/// after the merge point, the master world agrees with every shard's world
/// on that shard's own variables (foreign slots in a shard world stay
/// frozen and never enter its acceptance ratios).
fn shards_agree_with_master(
    map: &fgdb_graph::ShardMap,
    sampler: &fgdb_mcmc::ShardedSampler<Arc<Crf>>,
    master: &fgdb_graph::World,
) -> bool {
    for s in 0..map.num_shards() {
        let local = sampler.shard_world(s).assignment();
        let global = master.assignment();
        let vars = map.variables(s);
        // Sample ~64 variables per shard instead of all 10⁶⁺.
        for &v in vars.iter().step_by(vars.len() / 64 + 1) {
            if local[v.0 as usize] != global[v.0 as usize] {
                return false;
            }
        }
    }
    true
}
