//! E3 — Figure 5: parallelizing query evaluation.
//!
//! Runs 1–8 parallel MCMC chains through the `ParallelEngine` (identical
//! copies of the initial world, distinct seeds, each burned in), 100
//! samples per chain on Query 1, and reports the squared error of the
//! averaged marginals against a multi-chain long-run ground truth (the
//! paper's own reference is "eight parallel chains for ten-thousand
//! samples each"), next to the ideal 1/n line.
//!
//! Paper-reported shape: error drops at least linearly with chains; eight
//! chains reduce it "by slightly more than a factor of eight" (super-linear,
//! because cross-chain samples are more independent than within-chain).

use fgdb_bench::{estimate_ground_truth_multichain, print_csv, print_table, scaled, NerSetup};
use fgdb_core::squared_error;
use fgdb_relational::algebra::paper_queries;

fn main() {
    let tokens = scaled(20_000);
    let k = 10_000;
    let samples_per_chain = 100;
    let max_chains = 8;
    println!(
        "E3 / Fig 5: parallel evaluation, Query 1, ~{tokens} tuples, \
         {samples_per_chain} samples/chain, k={k}"
    );

    let setup = NerSetup::build_soft(tokens, 5);
    let plan = paper_queries::query1("TOKEN");
    let truth = estimate_ground_truth_multichain(&setup, &plan, 8, 1_500, k, 90_000);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut err1 = None;
    for chains in 1..=max_chains {
        // The reference's own §5.4 average, at `samples_per_chain` samples.
        let avg =
            estimate_ground_truth_multichain(&setup, &plan, chains, samples_per_chain, k, 1_000);
        let err = squared_error(&avg, &truth);
        let base = *err1.get_or_insert(err);
        let ideal = base / chains as f64;
        rows.push(vec![
            chains.to_string(),
            format!("{err:.4}"),
            format!("{ideal:.4}"),
            format!("{:.2}", base / err),
        ]);
        csv.push(format!("{chains},{err:.6},{ideal:.6}"));
        println!("  {chains} chain(s): squared error {err:.4}");
    }
    print_table(
        "Fig 5: squared error vs number of chains",
        &["chains", "sq_error", "ideal_1_over_n", "improvement"],
        &rows,
    );
    print_csv("fig5", "chains,sq_error,ideal", &csv);

    println!(
        "\nExpected shape (paper): error at n chains tracks (or beats) the \
         ideal 1/n line — super-linear gains from cross-chain independence."
    );
}
