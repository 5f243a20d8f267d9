//! Property tests for the MH kernel: rejection restores the world exactly,
//! acceptance applies exactly the proposal, and empirical marginals of a
//! random two-variable model converge to the exact distribution.

use fgdb_graph::enumerate::exact_marginals;
use fgdb_graph::{Domain, FactorGraph, TableFactor, VariableId, World};
use fgdb_mcmc::{DynRng, MetropolisHastings, Proposal, Proposer, UniformRelabel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A scripted proposer replaying a fixed list of multi-variable proposals.
struct Scripted {
    proposals: Vec<Proposal>,
    next: usize,
    support: Vec<VariableId>,
}

impl Proposer for Scripted {
    fn propose(&mut self, _world: &World, _rng: &mut DynRng<'_>, out: &mut Proposal) {
        out.clone_from(&self.proposals[self.next % self.proposals.len()]);
        self.next += 1;
    }
    fn support(&self) -> &[VariableId] {
        &self.support
    }
}

fn graph(weights: &[f64]) -> FactorGraph {
    // Two ternary variables: a pairwise table (9 weights) + a unary (3).
    let mut g = FactorGraph::new();
    g.add_factor(Box::new(TableFactor::new(
        vec![VariableId(0), VariableId(1)],
        vec![3, 3],
        weights[..9].to_vec(),
        "pair",
    )));
    g.add_factor(Box::new(TableFactor::new(
        vec![VariableId(0)],
        vec![3],
        weights[9..12].to_vec(),
        "unary",
    )));
    g
}

proptest! {
    /// Whatever the proposal stream, the world after each step is either
    /// the pre-step world (rejected) or the proposed world (accepted).
    #[test]
    fn step_is_all_or_nothing(
        weights in prop::collection::vec(-3.0f64..3.0, 12),
        script in prop::collection::vec(
            prop::collection::vec((0u32..2, 0usize..3), 1..4),
            1..30
        ),
        seed in any::<u64>(),
    ) {
        let d = Domain::of_labels(&["a", "b", "c"]);
        let mut world = World::new(vec![d.clone(), d]);
        let proposals: Vec<Proposal> = script
            .iter()
            .map(|chs| Proposal {
                changes: chs.iter().map(|(v, i)| (VariableId(*v), *i)).collect(),
                log_q_ratio: 0.0,
            })
            .collect();
        let scripted = Scripted {
            proposals: proposals.clone(),
            next: 0,
            support: vec![VariableId(0), VariableId(1)],
        };
        let mut kernel = MetropolisHastings::new(graph(&weights), Box::new(scripted));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rng = DynRng::from(&mut rng);
        for p in &proposals {
            let before = world.assignment().to_vec();
            let out = kernel.step(&mut world, &mut rng);
            if out.accepted {
                // World equals the proposal applied to `before`.
                let mut expect = before.clone();
                for (v, idx) in &p.changes {
                    expect[v.index()] = *idx as u16;
                }
                prop_assert_eq!(world.assignment(), &expect[..]);
            } else {
                prop_assert_eq!(world.assignment(), &before[..]);
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Long-run marginals match exact enumeration for random weights.
    /// (Coarse tolerance keeps this non-flaky across the case budget.)
    #[test]
    fn chain_marginals_converge(
        weights in prop::collection::vec(-1.5f64..1.5, 12),
    ) {
        let g = graph(&weights);
        let d = Domain::of_labels(&["a", "b", "c"]);
        let mut world = World::new(vec![d.clone(), d]);
        let vars = vec![VariableId(0), VariableId(1)];
        let exact = exact_marginals(&g, &mut world.clone(), &vars);

        let mut kernel =
            MetropolisHastings::new(g, Box::new(UniformRelabel::new(vars.clone())));
        let mut rng = StdRng::seed_from_u64(0xFEED);
        let mut rng = DynRng::from(&mut rng);
        let n = 60_000;
        let mut counts = [[0u64; 3]; 2];
        for _ in 0..n {
            kernel.step(&mut world, &mut rng);
            for (vi, &v) in vars.iter().enumerate() {
                counts[vi][world.get(v)] += 1;
            }
        }
        for vi in 0..2 {
            for s in 0..3 {
                let est = counts[vi][s] as f64 / n as f64;
                prop_assert!(
                    (est - exact[vi][s]).abs() < 0.05,
                    "var {} state {}: {} vs exact {}", vi, s, est, exact[vi][s]
                );
            }
        }
    }
}
