//! The Metropolis–Hastings transition kernel (§3.4, Algorithm 2).
//!
//! One step: draw `w' ~ q(·|w)`, accept with probability
//!
//! ```text
//! α(w', w) = min(1, π(w')/π(w) · q(w|w')/q(w'|w))          (Eq. 3)
//! ```
//!
//! The model ratio is computed **only over factors adjacent to the changed
//! variables** (the cancellation of Appendix 9.2) and entirely in log space,
//! so the #P-hard normalizer `Z_X` never appears and each step is O(1) in
//! the database size for constant-size proposals.
//!
//! There is one step path. The proposer fills a [`Proposal`] buffer the
//! kernel owns; the model scores that change set through its one primitive,
//! [`Model::score_change`], which returns the neighbourhood score before and
//! after *without committing the change*; the world is written only on
//! acceptance, and each write is handed to the caller's `on_change`. A step
//! allocates nothing — `walk` is that step in a loop, `step` is the same
//! step collecting its writes into a [`StepOutcome`]. How many passes over
//! the neighbourhood the scoring takes is the model's business (the generic
//! body takes two, the CRF one for a relabel); the kernel has no fork on
//! proposal shape.

use crate::proposal::{Proposal, Proposer};
use crate::rng::DynRng;
use fgdb_graph::{ChangeScratch, EvalStats, Model, VariableId, World};
use rand::Rng;

/// Counters for a kernel's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Proposals drawn.
    pub proposals: u64,
    /// Proposals accepted.
    pub accepted: u64,
    /// Factor-evaluation counters from the model: every scored proposal
    /// counts two neighbourhood scorings (the changed variables' factors
    /// under the current and under the proposed assignment), however many
    /// passes over the neighbourhood the model needed to compute them.
    pub eval: EvalStats,
}

impl KernelStats {
    /// Fraction of proposals accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposals == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposals as f64
        }
    }
}

/// The outcome of one MH step.
#[derive(Clone, Debug, PartialEq)]
pub struct StepOutcome {
    /// Whether the proposal was accepted (the world now reflects it).
    pub accepted: bool,
    /// Applied changes as `(variable, old index, new index)`; empty on
    /// rejection or for no-op proposals.
    pub changes: Vec<(VariableId, usize, usize)>,
}

/// A Metropolis–Hastings kernel binding a model and a proposer.
pub struct MetropolisHastings<M> {
    model: M,
    proposer: Box<dyn Proposer>,
    stats: KernelStats,
    /// The one proposal buffer: the proposer overwrites it every step.
    proposal: Proposal,
    /// Buffers for models that score a change set by applying it.
    scratch: ChangeScratch,
}

impl<M: Model> MetropolisHastings<M> {
    /// Builds a kernel.
    pub fn new(model: M, proposer: Box<dyn Proposer>) -> Self {
        MetropolisHastings {
            model,
            proposer,
            stats: KernelStats::default(),
            proposal: Proposal::default(),
            scratch: ChangeScratch::default(),
        }
    }

    /// The model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Lifetime counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Overwrites the lifetime counters — the crash-recovery path restoring
    /// a kernel to its persisted post-interval statistics.
    pub fn restore_stats(&mut self, stats: KernelStats) {
        self.stats = stats;
    }

    /// Variables the proposer may modify.
    pub fn support(&self) -> &[VariableId] {
        self.proposer.support()
    }

    /// The one MH step every entry point runs: draw a proposal into the
    /// kernel's buffer, have the model score it as a delta against the
    /// untouched world, and write the world only if it is accepted —
    /// reporting each write that changed a value to `on_change` as
    /// `(variable, old index, new index)`. Returns whether it was accepted.
    fn step_reporting(
        &mut self,
        world: &mut World,
        rng: &mut DynRng<'_>,
        mut on_change: impl FnMut(VariableId, usize, usize),
    ) -> bool {
        self.stats.proposals += 1;
        self.proposer.propose(world, rng, &mut self.proposal);
        let Proposal {
            changes,
            log_q_ratio,
        } = &self.proposal;

        // A malformed proposal — a variable id outside the world or a
        // domain index outside the variable's domain — must not abort the
        // engine thread applying it (indexing would panic even in release).
        // It is treated as a rejected no-op move.
        let malformed = changes
            .iter()
            .any(|&(v, idx)| v.index() >= world.num_variables() || idx >= world.cardinality(v));
        if malformed {
            return false;
        }

        // Only the factors next to the changed variables are scored; all
        // others cancel in the ratio (Appendix 9.2).
        let (before, after) =
            self.model
                .score_change(world, changes, &mut self.scratch, &mut self.stats.eval);
        let log_alpha = (after - before) + log_q_ratio;
        // u ~ U(0,1), drawn only when α < 1; accept iff log u < log α.
        // `gen::<f64>()` is in [0,1); ln(0) = -inf rejects only when α is 0.
        let accept = log_alpha >= 0.0 || rng.gen::<f64>().ln() < log_alpha;
        if accept {
            self.stats.accepted += 1;
            for &(v, new) in changes {
                let old = world.set(v, new);
                if old != new {
                    on_change(v, old, new);
                }
            }
        }
        accept
    }

    /// Executes one MH step in place, returning what (if anything) changed.
    /// The convenience form for tests and experiments that look at single
    /// steps; a sampler's hot loop is [`MetropolisHastings::walk`], which
    /// builds no outcome.
    pub fn step(&mut self, world: &mut World, rng: &mut DynRng<'_>) -> StepOutcome {
        let mut changes = Vec::new();
        let accepted = self.step_reporting(world, rng, |v, old, new| changes.push((v, old, new)));
        StepOutcome { accepted, changes }
    }

    /// Runs `n` steps (Algorithm 2's random walk), invoking `on_change` for
    /// every applied change.
    pub fn walk(
        &mut self,
        world: &mut World,
        n: usize,
        rng: &mut DynRng<'_>,
        mut on_change: impl FnMut(VariableId, usize, usize),
    ) {
        for _ in 0..n {
            self.step_reporting(world, rng, &mut on_change);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proposal::UniformRelabel;
    use fgdb_graph::enumerate::exact_marginals;
    use fgdb_graph::{Domain, FactorGraph, TableFactor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two coupled binary variables with a bias (same graph as the
    /// enumeration tests — lets us verify MCMC against exact marginals).
    fn ising2() -> (FactorGraph, World, Vec<VariableId>) {
        let d = Domain::of_labels(&["0", "1"]);
        let w = World::new(vec![d.clone(), d]);
        let mut g = FactorGraph::new();
        g.add_factor(Box::new(TableFactor::new(
            vec![VariableId(0), VariableId(1)],
            vec![2, 2],
            vec![1.2, 0.0, 0.0, 1.2],
            "couple",
        )));
        g.add_factor(Box::new(TableFactor::new(
            vec![VariableId(0)],
            vec![2],
            vec![0.0, 0.8],
            "bias",
        )));
        (g, w, vec![VariableId(0), VariableId(1)])
    }

    #[test]
    fn rejected_step_restores_world() {
        // A hard constraint makes flipping var 0 alone always rejected when
        // it breaks agreement.
        let d = Domain::of_labels(&["0", "1"]);
        let w0 = World::new(vec![d.clone(), d]);
        let mut g = FactorGraph::new();
        g.add_factor(Box::new(TableFactor::new(
            vec![VariableId(0), VariableId(1)],
            vec![2, 2],
            vec![0.0, f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0],
            "must-agree",
        )));
        let mut world = w0;
        let mut k = MetropolisHastings::new(g, Box::new(UniformRelabel::new(vec![VariableId(0)])));
        let mut rng = StdRng::seed_from_u64(5);
        let mut rng = DynRng::from(&mut rng);
        for _ in 0..100 {
            let out = k.step(&mut world, &mut rng);
            // Accepted steps can only be no-ops (0 → 0).
            assert!(out.changes.is_empty());
            assert_eq!(world.get(VariableId(0)), 0);
            assert_eq!(world.get(VariableId(1)), 0);
        }
    }

    #[test]
    fn chain_converges_to_exact_marginals() {
        let (g, mut world, vars) = ising2();
        let exact = exact_marginals(&g, &mut world.clone(), &vars);

        let mut k = MetropolisHastings::new(g, Box::new(UniformRelabel::new(vars.clone())));
        let mut rng = StdRng::seed_from_u64(11);
        let mut rng = DynRng::from(&mut rng);
        let n = 200_000usize;
        let mut counts = vec![[0u64; 2]; vars.len()];
        for _ in 0..n {
            k.step(&mut world, &mut rng);
            for (i, &v) in vars.iter().enumerate() {
                counts[i][world.get(v)] += 1;
            }
        }
        for (i, c) in counts.iter().enumerate() {
            let p1 = c[1] as f64 / n as f64;
            assert!(
                (p1 - exact[i][1]).abs() < 0.01,
                "variable {i}: sampled {p1:.4} vs exact {:.4}",
                exact[i][1]
            );
        }
    }

    #[test]
    fn acceptance_stats_track() {
        let (g, mut world, vars) = ising2();
        let mut k = MetropolisHastings::new(g, Box::new(UniformRelabel::new(vars)));
        let mut rng = StdRng::seed_from_u64(2);
        let mut rng = DynRng::from(&mut rng);
        for _ in 0..500 {
            k.step(&mut world, &mut rng);
        }
        let s = k.stats();
        assert_eq!(s.proposals, 500);
        assert!(s.accepted > 0 && s.accepted <= 500);
        let r = s.acceptance_rate();
        assert!(r > 0.0 && r <= 1.0);
        // Two neighborhood scorings per step.
        assert_eq!(s.eval.neighborhood_scores, 1000);
    }

    #[test]
    fn every_entry_point_counts_its_proposals() {
        // `step` and `walk` are the only ways to advance a kernel and share
        // one step, which counts the proposal before anything can accept
        // it: a caller can never observe accepted > proposals.
        let (g, mut world, vars) = ising2();
        let mut k = MetropolisHastings::new(g, Box::new(UniformRelabel::new(vars)));
        let mut rng = StdRng::seed_from_u64(4);
        let mut rng = DynRng::from(&mut rng);
        let mut reported = 0u64;
        for round in 1..=60u64 {
            reported += k.step(&mut world, &mut rng).changes.len() as u64;
            k.walk(&mut world, 4, &mut rng, |_, _, _| reported += 1);
            let s = k.stats();
            assert_eq!(s.proposals, 5 * round);
            assert!(reported <= s.accepted && s.accepted <= s.proposals);
            assert!(s.acceptance_rate() <= 1.0);
        }
        assert!(reported > 0);
    }

    #[test]
    fn walk_reports_changes() {
        let (g, mut world, vars) = ising2();
        let mut k = MetropolisHastings::new(g, Box::new(UniformRelabel::new(vars)));
        let mut rng = StdRng::seed_from_u64(8);
        let mut rng = DynRng::from(&mut rng);
        let mut n_changes = 0;
        let snapshot = world.assignment().to_vec();
        k.walk(&mut world, 200, &mut rng, |_, old, new| {
            assert_ne!(old, new);
            n_changes += 1;
        });
        // The world moved (with overwhelming probability at this seed).
        assert!(n_changes > 0);
        let _ = snapshot;
    }

    #[test]
    fn multi_variable_proposals_revert_in_order() {
        // A proposal writing the same variable twice must unwind correctly.
        struct DoubleWrite(Vec<VariableId>);
        impl Proposer for DoubleWrite {
            fn propose(&mut self, _world: &World, _rng: &mut DynRng<'_>, out: &mut Proposal) {
                // Force rejection via a hugely negative q-ratio.
                out.set([(VariableId(0), 1), (VariableId(0), 0)], -1e18);
            }
            fn support(&self) -> &[VariableId] {
                &self.0
            }
        }
        let (g, mut world, _) = ising2();
        let mut k = MetropolisHastings::new(g, Box::new(DoubleWrite(vec![VariableId(0)])));
        let mut rng = StdRng::seed_from_u64(1);
        let mut rng = DynRng::from(&mut rng);
        let out = k.step(&mut world, &mut rng);
        assert!(!out.accepted);
        assert_eq!(world.get(VariableId(0)), 0, "reverted to original");
    }

    #[test]
    fn malformed_proposals_are_rejected_not_panics() {
        // Out-of-range variable ids and domain indexes must be treated as
        // rejected no-op moves — a bad proposer cannot abort the thread.
        struct Malformed {
            support: Vec<VariableId>,
            mode: usize,
        }
        impl Proposer for Malformed {
            fn propose(&mut self, _world: &World, _rng: &mut DynRng<'_>, out: &mut Proposal) {
                let changes = match self.mode {
                    // Variable id beyond the world.
                    0 => vec![(VariableId(999), 0)],
                    // Domain index beyond the variable's domain.
                    1 => vec![(VariableId(0), 99)],
                    // Valid change mixed with an invalid one.
                    _ => vec![(VariableId(0), 1), (VariableId(999), 7)],
                };
                out.symmetric(changes);
            }
            fn support(&self) -> &[VariableId] {
                &self.support
            }
        }
        for mode in 0..3 {
            let (g, mut world, _) = ising2();
            let snapshot = world.assignment().to_vec();
            let mut k = MetropolisHastings::new(
                g,
                Box::new(Malformed {
                    support: vec![VariableId(0)],
                    mode,
                }),
            );
            let mut rng = StdRng::seed_from_u64(3);
            let mut rng = DynRng::from(&mut rng);
            let out = k.step(&mut world, &mut rng);
            assert!(!out.accepted, "mode {mode}");
            assert!(out.changes.is_empty(), "mode {mode}");
            assert_eq!(world.assignment(), &snapshot[..], "world untouched");
        }
    }

    #[test]
    fn no_op_accepted_changes_are_filtered() {
        struct NoOp(Vec<VariableId>);
        impl Proposer for NoOp {
            fn propose(&mut self, world: &World, _rng: &mut DynRng<'_>, out: &mut Proposal) {
                out.symmetric([(VariableId(0), world.get(VariableId(0)))]);
            }
            fn support(&self) -> &[VariableId] {
                &self.0
            }
        }
        let (g, mut world, _) = ising2();
        let mut k = MetropolisHastings::new(g, Box::new(NoOp(vec![VariableId(0)])));
        let mut rng = StdRng::seed_from_u64(1);
        let mut rng = DynRng::from(&mut rng);
        let out = k.step(&mut world, &mut rng);
        assert!(out.accepted); // α = 1 for identical worlds
        assert!(out.changes.is_empty());
    }
}
