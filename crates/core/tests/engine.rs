//! Integration suite for the §5.4 parallel engine: determinism under
//! arbitrary thread interleavings, N=1 equivalence with a plain
//! [`ProbabilisticDB`] loop, snapshot isolation, and a chain's panic
//! surfacing as a typed error.

use fgdb_core::fixtures::{biased_token_pdb, relabel_proposer, PanicsAfter};
use fgdb_core::{
    chain_seed, EngineConfig, EngineError, FieldBinding, ParallelEngine, ProbabilisticDB,
    QueryEvaluator,
};
use fgdb_graph::{Domain, FactorGraph, TableFactor, VariableId, World};
use fgdb_mcmc::{Proposer, UniformRelabel};
use fgdb_relational::{tuple, Database, Expr, Plan, Schema, Tuple, ValueType};
use std::sync::Arc;

const NUM_VARS: usize = 4;

/// The evaluate.rs fixture: ITEM(id, state), state uncertain over
/// {off, on}, per-variable biases plus a coupling factor between 0 and 1.
fn build_seed(seed: u64) -> ProbabilisticDB<Arc<FactorGraph>> {
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("state", ValueType::Str)])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
    db.create_relation("ITEM", schema).unwrap();
    let mut rows = Vec::new();
    for i in 0..NUM_VARS as i64 {
        rows.push(
            db.relation_mut("ITEM")
                .unwrap()
                .insert(tuple![i, "off"])
                .unwrap(),
        );
    }
    let d = Domain::of_labels(&["off", "on"]);
    let world = World::new(vec![d; NUM_VARS]);
    let mut g = FactorGraph::new();
    for (i, w) in [0.8, -0.4, 1.2, 0.0].into_iter().enumerate() {
        g.add_factor(Box::new(TableFactor::new(
            vec![VariableId(i as u32)],
            vec![2],
            vec![0.0, w],
            format!("bias{i}"),
        )));
    }
    g.add_factor(Box::new(TableFactor::new(
        vec![VariableId(0), VariableId(1)],
        vec![2, 2],
        vec![0.5, 0.0, 0.0, 0.5],
        "couple",
    )));
    let binding = FieldBinding::new(&db, "ITEM", "state", rows).unwrap();
    let vars: Vec<_> = (0..NUM_VARS as u32).map(VariableId).collect();
    ProbabilisticDB::new(
        db,
        Arc::new(g),
        Box::new(UniformRelabel::new(vars)),
        world,
        binding,
        seed,
    )
    .unwrap()
}

fn on_items() -> Plan {
    Plan::scan("ITEM")
        .filter(Expr::col("state").eq(Expr::lit("on")))
        .project(&["id"])
}

fn proposer() -> Box<dyn Proposer> {
    Box::new(UniformRelabel::new(
        (0..NUM_VARS as u32).map(VariableId).collect(),
    ))
}

fn config(chains: usize) -> EngineConfig {
    EngineConfig {
        chains,
        thinning: 3,
        checkpoint_samples: 20,
        r_hat_threshold: 1.05,
        min_samples: 40,
        max_samples: 120,
        replica_burn_steps: 0,
        base_seed: 0xD15C,
    }
}

/// Bit patterns of one answer row: (tuple, probability, std error, R̂, ESS).
type RowBits = (Tuple, u64, u64, u64, u64);
/// Bit patterns of one trajectory point: (samples, R̂, min ESS).
type TrajBits = (u64, u64, u64);

/// Runs a fresh engine to completion, returning the bit-exact answer
/// fingerprint plus the trajectory bits.
fn run_fingerprint(chains: usize) -> (Vec<RowBits>, Vec<TrajBits>) {
    let seed = build_seed(77);
    let mut engine = ParallelEngine::new(&seed, on_items(), config(chains), |_| proposer())
        .expect("engine builds");
    let answer = engine.run().expect("engine runs");
    let rows = answer
        .rows
        .iter()
        .map(|r| {
            (
                r.tuple.clone(),
                r.probability.to_bits(),
                r.std_error.to_bits(),
                r.r_hat.to_bits(),
                r.ess.to_bits(),
            )
        })
        .collect();
    let traj = answer
        .report
        .r_hat_trajectory
        .iter()
        .map(|p| (p.samples_per_chain, p.r_hat.to_bits(), p.min_ess.to_bits()))
        .collect();
    (rows, traj)
}

/// Fixed seeds ⇒ bit-identical merged marginals across repeated runs,
/// regardless of how the OS interleaves the chain threads.
#[test]
fn determinism_across_repeated_runs() {
    for chains in [2, 4, 8] {
        let a = run_fingerprint(chains);
        let b = run_fingerprint(chains);
        assert_eq!(a, b, "{chains}-chain engine must be bit-deterministic");
        assert!(!a.0.is_empty(), "workload produces answers");
    }
}

/// Different chain counts genuinely change the estimate (sanity check that
/// the determinism above is not vacuous).
#[test]
fn chain_count_changes_the_estimate() {
    let a = run_fingerprint(2);
    let b = run_fingerprint(4);
    assert_ne!(a.0, b.0);
}

/// An N=1 engine is step-for-step the plain single-chain loop: same world
/// trajectory, same per-sample answers, same marginal table, same step
/// count.
#[test]
fn single_chain_engine_matches_plain_loop() {
    let seed = build_seed(123);
    let cfg = EngineConfig {
        chains: 1,
        thinning: 3,
        checkpoint_samples: 20,
        r_hat_threshold: 0.0, // gate off: run exactly to the budget
        min_samples: 1,
        max_samples: 80,
        replica_burn_steps: 0,
        base_seed: 0xBEEF,
    };
    let mut engine =
        ParallelEngine::new(&seed, on_items(), cfg.clone(), |_| proposer()).expect("engine");
    let answer = engine.run().expect("run");

    // The plain loop: snapshot the same seed database with the engine's
    // chain-0 seed and drive a materialized evaluator by hand.
    let mut plain = seed.snapshot(proposer(), chain_seed(cfg.base_seed, 0));
    let mut eval = QueryEvaluator::materialized(on_items(), &plain, cfg.thinning).unwrap();
    eval.run(&mut plain, 80).unwrap();

    // Same number of samples and MH steps.
    assert_eq!(answer.report.samples_per_chain, 81);
    assert_eq!(eval.marginals().samples(), 81);
    assert_eq!(answer.report.per_chain[0].steps, plain.steps_taken());
    assert_eq!(answer.report.per_chain[0].kernel, plain.kernel_stats());

    // Same final world, variable for variable.
    let engine_pdb = engine.replica_dbs().next().unwrap();
    for v in plain.world().variables() {
        assert_eq!(engine_pdb.world().get(v), plain.world().get(v));
    }

    // Bit-identical marginal tables.
    let engine_marginals = engine.chain_marginals()[0].probabilities();
    let plain_marginals = eval.marginals().probabilities();
    assert_eq!(engine_marginals.len(), plain_marginals.len());
    for ((ta, pa), (tb, pb)) in engine_marginals.iter().zip(&plain_marginals) {
        assert_eq!(ta, tb);
        assert_eq!(pa.to_bits(), pb.to_bits());
    }
    // And the merged answer of a 1-chain engine IS that table.
    for row in &answer.rows {
        assert_eq!(
            row.probability.to_bits(),
            eval.marginals().probability(&row.tuple).to_bits()
        );
    }
}

/// Post-run consistency (snapshot isolation): every replica still satisfies
/// the world/store synchronization invariant, and no replica delta ever
/// leaked into the seed database.
#[test]
fn replicas_stay_synchronized_and_seed_is_isolated() {
    let seed = build_seed(9);
    let before: Vec<Tuple> = seed
        .database()
        .relation("ITEM")
        .unwrap()
        .rows()
        .map(|r| r.to_tuple())
        .collect();
    let before_world: Vec<usize> = seed
        .world()
        .variables()
        .map(|v| seed.world().get(v))
        .collect();

    let mut engine =
        ParallelEngine::new(&seed, on_items(), config(6), |_| proposer()).expect("engine");
    engine.run().expect("run");

    // Every replica: world ↔ store synchronized after the full run.
    engine.check_all_synchronized().expect("replicas in sync");

    // The seed database and world are byte-for-byte untouched.
    let after: Vec<Tuple> = seed
        .database()
        .relation("ITEM")
        .unwrap()
        .rows()
        .map(|r| r.to_tuple())
        .collect();
    assert_eq!(before, after, "replica deltas leaked into the seed");
    let after_world: Vec<usize> = seed
        .world()
        .variables()
        .map(|v| seed.world().get(v))
        .collect();
    assert_eq!(before_world, after_world);
    seed.check_synchronized().expect("seed still consistent");
    assert_eq!(seed.steps_taken(), 0, "seed chain never advanced");

    // Replicas truly diverged from the seed (the run did something).
    let moved = engine.replica_dbs().any(|pdb| {
        pdb.database()
            .relation("ITEM")
            .unwrap()
            .rows()
            .map(|r| r.to_tuple())
            .collect::<Vec<_>>()
            != before
    });
    assert!(moved, "no replica ever changed state — degenerate run");
}

/// The merged answer equals `MarginalTable::average` over the per-chain
/// tables, its support is the union of chain supports, and all
/// probabilities are valid — the engine-level version of the pooled-stream
/// property suite.
#[test]
fn merged_answer_is_the_chain_average() {
    let seed = build_seed(31);
    let mut engine =
        ParallelEngine::new(&seed, on_items(), config(4), |_| proposer()).expect("engine");
    let answer = engine.run().expect("run");

    let tables: Vec<_> = engine.chain_marginals().into_iter().cloned().collect();
    let expected = fgdb_core::MarginalTable::average(&tables);
    assert_eq!(answer.rows.len(), expected.len());
    for row in &answer.rows {
        assert_eq!(row.probability.to_bits(), expected[&row.tuple].to_bits());
        assert!((0.0..=1.0).contains(&row.probability));
    }
    // Support ⊆ union of chain supports (and here, exactly the union).
    let union: std::collections::BTreeSet<Tuple> = tables
        .iter()
        .flat_map(|t| t.probabilities().into_iter().map(|(t, _)| t))
        .collect();
    let merged: std::collections::BTreeSet<Tuple> =
        answer.rows.iter().map(|r| r.tuple.clone()).collect();
    assert_eq!(merged, union);
}

/// §5.4's average over four chains estimates an uncoupled item's marginal:
/// P(item 2 on) = σ(1.2) ≈ 0.769.
#[test]
fn parallel_evaluation_averages_chains() {
    let seed = build_seed(1000);
    let cfg = EngineConfig {
        chains: 4,
        thinning: 5,
        checkpoint_samples: 500,
        r_hat_threshold: 0.0,
        min_samples: 1,
        max_samples: 500,
        replica_burn_steps: 0,
        base_seed: 1000,
    };
    let mut engine = ParallelEngine::new(&seed, on_items(), cfg, |_| proposer()).expect("engine");
    engine.run_rounds(1).expect("round");
    let exact = 1.2f64.exp() / (1.0 + 1.2f64.exp());
    let est = engine.answer().probability(&tuple![2i64]);
    assert!(
        (est - exact).abs() < 0.05,
        "parallel estimate {est:.3} vs exact {exact:.3}"
    );
}

/// A chain whose proposer panics ends the run with a typed error naming
/// that chain and the panic's text — chain 1 of three, and a lone chain —
/// a resumed run returns the same error, and the engine's answer stays
/// readable.
#[test]
fn a_panicking_chain_is_a_typed_error() {
    const TOKENS: usize = 24;
    for (chains, faulty) in [(3usize, 1usize), (1, 0)] {
        let seed = biased_token_pdb(TOKENS, 6, 5);
        let cfg = EngineConfig {
            chains,
            thinning: 5,
            checkpoint_samples: 20,
            r_hat_threshold: 1.05,
            min_samples: 40,
            max_samples: 400,
            replica_burn_steps: 0,
            base_seed: 17,
        };
        let mut engine = ParallelEngine::query(
            &seed,
            "SELECT tok_id FROM TOKEN WHERE label = 'B-PER'",
            cfg,
            |chain| -> Box<dyn Proposer> {
                if chain == faulty {
                    Box::new(PanicsAfter {
                        inner: relabel_proposer(TOKENS),
                        left: 130,
                    })
                } else {
                    relabel_proposer(TOKENS)
                }
            },
        )
        .expect("engine builds");
        match engine.run() {
            Err(EngineError::Chain { chain, message }) => {
                assert_eq!(chain, faulty, "{chains} chain(s)");
                assert!(
                    message.contains("injected proposer fault"),
                    "{chains} chain(s): message {message:?}"
                );
            }
            other => panic!("{chains} chain(s): expected a chain error, got {other:?}"),
        }
        // The faulted chain stopped mid-sample: the engine never resumes,
        // and no chain takes another step.
        let steps = |e: &ParallelEngine<_>| -> Vec<u64> {
            e.answer()
                .report
                .per_chain
                .iter()
                .map(|c| c.steps)
                .collect()
        };
        let before = steps(&engine);
        match engine.run() {
            Err(EngineError::Chain { chain, message }) => {
                assert_eq!(chain, faulty, "{chains} chain(s), resumed");
                assert!(message.contains("injected proposer fault"), "{message:?}");
            }
            other => panic!("{chains} chain(s): resumed run gave {other:?}"),
        }
        assert_eq!(steps(&engine), before, "{chains} chain(s)");
        let answer = engine.answer();
        assert_eq!(answer.report.chains, chains);
        for row in &answer.rows {
            assert!((0.0..=1.0).contains(&row.probability));
        }
    }
}
