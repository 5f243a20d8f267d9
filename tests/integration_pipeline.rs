//! Cross-crate integration tests: the full paper pipeline at test scale.
//!
//! corpus → TOKEN relation → trained skip-chain CRF → probabilistic DB →
//! Queries 1–4 through both evaluators, with the central cross-checks:
//! evaluators agree with each other sample-for-sample, the maintained view
//! always equals a fresh execution, and marginals converge to exact
//! enumeration on a tiny instance.

use fgdb::prelude::*;
use std::sync::Arc;

fn tiny_setup(seed: u64) -> (Corpus, Arc<Crf>) {
    let corpus = Corpus::generate(&CorpusConfig {
        num_docs: 10,
        mean_doc_len: 50,
        common_vocab: 80,
        entities_per_type: 10,
        entity_rate: 0.2,
        repeat_rate: 0.5,
        cue_rate: 0.3,
        seed,
    });
    let data = TokenSeqData::from_corpus(&corpus, 8);
    let mut model = Crf::skip_chain(data);
    model.seed_from_truth(&corpus, 2.0);
    train_ner_model(&corpus, &mut model, 20_000, seed ^ 1).expect("training");
    (corpus, Arc::new(model))
}

#[test]
fn evaluators_agree_on_all_four_paper_queries() {
    let (corpus, model) = tiny_setup(3);
    for (qname, plan) in [
        ("q1", paper_queries::query1("TOKEN")),
        ("q2", paper_queries::query2("TOKEN")),
        ("q3", paper_queries::query3("TOKEN")),
        ("q4", paper_queries::query4("TOKEN")),
    ] {
        let k = 200;
        let n = 40;
        let mut pdb_a = build_ner_pdb(&corpus, Arc::clone(&model), &Default::default(), 77);
        let mut naive = QueryEvaluator::naive(plan.clone(), &pdb_a, k).unwrap();
        naive.run(&mut pdb_a, n).unwrap();

        let mut pdb_b = build_ner_pdb(&corpus, Arc::clone(&model), &Default::default(), 77);
        let mut mat = QueryEvaluator::materialized(plan.clone(), &pdb_b, k).unwrap();
        mat.run(&mut pdb_b, n).unwrap();

        // Same seed ⇒ same sampled worlds ⇒ identical per-sample counts
        // (the materialized table contains one extra init sample).
        let zn = naive.marginals().samples() as f64;
        let zm = mat.marginals().samples() as f64;
        assert_eq!(zn as u64 + 1, zm as u64, "{qname}: z mismatch");
        // Reconstruct raw counts and compare, accounting for the init
        // sample's contribution to the materialized counts.
        let init_answer = {
            let pdb = build_ner_pdb(&corpus, Arc::clone(&model), &Default::default(), 1);
            execute_simple(&plan, pdb.database()).unwrap().rows
        };
        let mut all: Vec<Tuple> = naive
            .marginals()
            .probabilities()
            .into_iter()
            .map(|(t, _)| t)
            .chain(mat.marginals().probabilities().into_iter().map(|(t, _)| t))
            .collect();
        all.sort();
        all.dedup();
        for t in all {
            let cn = (naive.marginals().probability(&t) * zn).round() as i64;
            let cm = (mat.marginals().probability(&t) * zm).round() as i64;
            let init = i64::from(init_answer.contains(&t));
            assert_eq!(cn + init, cm, "{qname}: count mismatch for {t}");
        }

        // The maintained answer equals a from-scratch execution at the end.
        let fresh = execute_simple(&plan, pdb_b.database()).unwrap();
        assert_eq!(
            mat.current_answer().unwrap().sorted_entries(),
            fresh.rows.sorted_entries(),
            "{qname}: view drifted from recomputation"
        );
        // Both PDBs stayed world/store synchronized.
        pdb_a.check_synchronized().unwrap();
        pdb_b.check_synchronized().unwrap();
    }
}

#[test]
fn query1_marginals_match_exact_enumeration_on_micro_world() {
    // A corpus small enough to enumerate exactly: with the nine-label BIO
    // domain the 20M-assignment enumeration cap allows at most 7 tokens
    // (9^7 ≈ 4.8M), and this seed yields a 6-token document.
    let corpus = Corpus::generate(&CorpusConfig {
        num_docs: 1,
        mean_doc_len: 7,
        common_vocab: 10,
        entities_per_type: 3,
        entity_rate: 0.4,
        repeat_rate: 0.5,
        cue_rate: 0.3,
        seed: 1,
    });
    let n = corpus.num_tokens();
    assert!(n <= 7, "need an enumerable document (9^n <= 20M), got {n}");
    let data = TokenSeqData::from_corpus(&corpus, 4);
    let mut model = Crf::skip_chain(data);
    model.seed_from_truth(&corpus, 1.0);
    let model = Arc::new(model);

    // Exact probability that each string appears with B-PER somewhere.
    let vars: Vec<VariableId> = (0..n as u32).map(VariableId).collect();
    let mut world = model.new_world();
    let b_per = Label::B(EntityType::Per).index();
    let strings: std::collections::HashSet<&str> =
        corpus.tokens.iter().map(|t| &*t.string).collect();
    let mut exact: std::collections::HashMap<String, f64> = Default::default();
    for s in strings {
        let p = fgdb::graph::enumerate::exact_event_probability(&*model, &mut world, &vars, |w| {
            corpus
                .tokens
                .iter()
                .enumerate()
                .any(|(i, t)| &*t.string == s && w.get(VariableId(i as u32)) == b_per)
        });
        exact.insert(s.to_string(), p);
    }

    // Sampled marginals via the full PDB stack.
    let mut pdb = build_ner_pdb(
        &corpus,
        Arc::clone(&model),
        &NerProposerConfig {
            uniform: true,
            ..Default::default()
        },
        13,
    );
    let plan = paper_queries::query1("TOKEN");
    let mut eval = QueryEvaluator::materialized(plan, &pdb, 20).unwrap();
    eval.run(&mut pdb, 30_000).unwrap();

    for (s, p_exact) in &exact {
        let p_est = eval
            .marginals()
            .probability(&Tuple::from_iter_values([s.as_str()]));
        assert!(
            (p_est - p_exact).abs() < 0.02,
            "string {s}: sampled {p_est:.4} vs exact {p_exact:.4}"
        );
    }
}

#[test]
fn aggregate_count_marginal_matches_expectation() {
    // Query 2's distribution mean should match the sum of per-token B-PER
    // marginals (linearity of expectation) on a micro world.
    let corpus = Corpus::generate(&CorpusConfig {
        num_docs: 1,
        mean_doc_len: 6,
        common_vocab: 8,
        entities_per_type: 3,
        entity_rate: 0.4,
        repeat_rate: 0.4,
        cue_rate: 0.3,
        seed: 9,
    });
    let n = corpus.num_tokens();
    assert!(n <= 10);
    let data = TokenSeqData::from_corpus(&corpus, 4);
    let mut model = Crf::skip_chain(data);
    model.seed_from_truth(&corpus, 1.0);
    let model = Arc::new(model);

    let vars: Vec<VariableId> = (0..n as u32).map(VariableId).collect();
    let mut world = model.new_world();
    let b_per = Label::B(EntityType::Per).index();
    let exact_marg = fgdb::graph::enumerate::exact_marginals(&*model, &mut world, &vars);
    let expected_count: f64 = exact_marg.iter().map(|m| m[b_per]).sum();

    let mut pdb = build_ner_pdb(
        &corpus,
        Arc::clone(&model),
        &NerProposerConfig {
            uniform: true,
            ..Default::default()
        },
        31,
    );
    let mut eval = QueryEvaluator::materialized(paper_queries::query2("TOKEN"), &pdb, 20).unwrap();
    eval.run(&mut pdb, 30_000).unwrap();
    let dist = ValueDistribution::from_table(eval.marginals());
    assert!(
        (dist.mean() - expected_count).abs() < 0.05,
        "sampled mean {:.3} vs exact expectation {expected_count:.3}",
        dist.mean()
    );
}

#[test]
fn parallel_chains_reduce_error() {
    let (corpus, model) = tiny_setup(8);
    let plan = paper_queries::query1("TOKEN");
    // Ground truth by a long single-chain run.
    let mut pdb = build_ner_pdb(&corpus, Arc::clone(&model), &Default::default(), 999);
    let mut truth_eval = QueryEvaluator::materialized(plan.clone(), &pdb, 100).unwrap();
    truth_eval.run(&mut pdb, 3_000).unwrap();
    let truth = truth_eval.marginals().as_map();

    // Error of a k-chain engine estimate against the long-run truth. A
    // single 40-sample estimate is noisy enough to flip the comparison on
    // an unlucky seed, so compare errors averaged over a few repetitions
    // with disjoint seed bases (still fully deterministic).
    let seed_pdb = build_ner_pdb(&corpus, Arc::clone(&model), &Default::default(), 999);
    let err_for = |chains: usize, base_seed: u64| {
        let cfg = EngineConfig {
            chains,
            thinning: 100,
            checkpoint_samples: 40,
            r_hat_threshold: 0.0,
            min_samples: 1,
            max_samples: 40,
            replica_burn_steps: 0,
            base_seed,
        };
        let mut engine = ParallelEngine::new(&seed_pdb, plan.clone(), cfg, |_| {
            ner_proposer(model.data(), &Default::default())
        })
        .unwrap();
        engine.run_rounds(1).unwrap();
        squared_error(&engine.answer().merged(), &truth)
    };
    let reps: [u64; 3] = [50, 450, 850];
    let e1: f64 = reps.iter().map(|&s| err_for(1, s)).sum::<f64>() / reps.len() as f64;
    let e4: f64 = reps.iter().map(|&s| err_for(4, s)).sum::<f64>() / reps.len() as f64;
    assert!(e4 < e1, "4 chains ({e4:.4}) should beat 1 chain ({e1:.4})");
}

#[test]
fn training_beats_untrained_model_on_truth_query() {
    let corpus = Corpus::generate(&CorpusConfig {
        num_docs: 12,
        mean_doc_len: 60,
        seed: 77,
        ..Default::default()
    });
    let data = TokenSeqData::from_corpus(&corpus, 8);
    // Untrained: zero weights → ~uniform labels.
    let untrained = Arc::new(Crf::skip_chain(Arc::clone(&data)));
    // Trained.
    let mut trained = Crf::skip_chain(Arc::clone(&data));
    train_ner_model(&corpus, &mut trained, 40_000, 2).expect("training");
    let trained = Arc::new(trained);

    // Deterministic truth answer of Query 1.
    let truth_db = truth_database(&corpus);
    let plan = paper_queries::query1("TOKEN");
    let truth_answer = execute_simple(&plan, &truth_db).unwrap();
    let truth_map: std::collections::HashMap<Tuple, f64> = truth_answer
        .rows
        .support()
        .map(|t| (t.clone(), 1.0))
        .collect();

    let loss_of = |model: Arc<Crf>| {
        let mut pdb = build_ner_pdb(&corpus, model, &Default::default(), 5);
        let mut eval = QueryEvaluator::materialized(plan.clone(), &pdb, 500).unwrap();
        eval.run(&mut pdb, 100).unwrap();
        squared_error(&eval.marginals().as_map(), &truth_map)
    };
    let loss_untrained = loss_of(untrained);
    let loss_trained = loss_of(trained);
    assert!(
        loss_trained < loss_untrained * 0.8,
        "trained loss {loss_trained:.2} vs untrained {loss_untrained:.2}"
    );
}

#[test]
fn incremental_views_match_recomputation_on_the_pdb_delta_stream() {
    // The paper's Algorithm 1 invariant, driven end-to-end through the PDB
    // write path instead of synthetic table edits: every MCMC interval
    // produces a Δ⁻/Δ⁺ set, and applying that *same* Δ sequence to
    // materialized views of all four paper queries must leave each view
    // identical to a from-scratch `execute_simple` of the stored world —
    // after every interval, not just at the end.
    let (corpus, model) = tiny_setup(21);
    let mut pdb = build_ner_pdb(&corpus, Arc::clone(&model), &Default::default(), 4242);
    let plans = [
        ("q1", paper_queries::query1("TOKEN")),
        ("q2", paper_queries::query2("TOKEN")),
        ("q3", paper_queries::query3("TOKEN")),
        ("q4", paper_queries::query4("TOKEN")),
    ];
    let mut views: Vec<MaterializedView> = plans
        .iter()
        .map(|(_, plan)| MaterializedView::new(plan, pdb.database()).unwrap())
        .collect();

    let mut accepted_any = false;
    for interval in 0..60 {
        // One interval = 25 MH steps; the returned DeltaSet is the compacted
        // net change of the stored world over the interval.
        let deltas = pdb.step(25).unwrap();
        accepted_any |= !deltas.is_empty();
        for ((qname, plan), view) in plans.iter().zip(views.iter_mut()) {
            view.apply_delta(&deltas);
            let fresh = execute_simple(plan, pdb.database()).unwrap();
            assert_eq!(
                view.result().sorted_entries(),
                fresh.rows.sorted_entries(),
                "{qname}: view drifted from recomputation at interval {interval}"
            );
        }
    }
    // The run must have exercised the maintenance path, not vacuously
    // compared empty deltas.
    assert!(accepted_any, "sampler accepted no proposals in 1500 steps");
    pdb.check_synchronized().unwrap();
}
