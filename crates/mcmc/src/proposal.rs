//! Proposal distributions `q(·|w)` for Metropolis–Hastings (§3.4).
//!
//! A proposer hypothesizes a *local* modification to the current world —
//! "MCMC sampling provides efficiency by hypothesizing modifications to
//! possible worlds rather than generating entire worlds from scratch". The
//! kernel needs, along with the proposed changes, the log proposal ratio
//! `log q(w|w') − log q(w'|w)` that debiases asymmetric proposers in Eq. 3.
//!
//! A [`Proposal`] is a buffer, not a message: the kernel owns one for its
//! lifetime and every [`Proposer::propose`] overwrites it in place, so
//! drawing a proposal allocates nothing once the buffer has grown to the
//! largest change set the proposer emits (one entry, for a relabel).
//!
//! Two generic proposers live here:
//!
//! * [`UniformRelabel`] — §5.1's base move: pick a hidden variable uniformly,
//!   pick a new label uniformly from its domain (symmetric, ratio 0);
//! * [`LocalityProposer`] — §5.1's batching: variables come in groups
//!   (documents); up to `groups_per_batch` groups are drawn, proposals are
//!   confined to them for `steps_per_batch` steps, then a fresh batch is
//!   drawn. This models the paper's "loading a new batch of variables from
//!   the database: up to five documents worth".
//!
//! Model-specific constraint-preserving proposers (the split-merge move for
//! entity resolution) live with their models in `fgdb-ie`.

use crate::rng::DynRng;
use fgdb_graph::{VariableId, World};
use rand::Rng;

/// A hypothesized world modification; the default is the empty proposal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Proposal {
    /// `(variable, new domain index)` assignments to apply, in order.
    pub changes: Vec<(VariableId, usize)>,
    /// `log q(w|w') − log q(w'|w)`; zero for symmetric proposers.
    pub log_q_ratio: f64,
}

impl Proposal {
    /// Overwrites the buffer with `changes` and their Hastings correction,
    /// keeping its capacity.
    pub fn set(
        &mut self,
        changes: impl IntoIterator<Item = (VariableId, usize)>,
        log_q_ratio: f64,
    ) {
        self.changes.clear();
        self.changes.extend(changes);
        self.log_q_ratio = log_q_ratio;
    }

    /// Overwrites the buffer with a symmetric proposal.
    pub fn symmetric(&mut self, changes: impl IntoIterator<Item = (VariableId, usize)>) {
        self.set(changes, 0.0);
    }
}

/// A proposal distribution.
pub trait Proposer: Send {
    /// Draws a proposal conditioned on the current world into `out`,
    /// overwriting whatever the buffer held ([`Proposal::set`],
    /// [`Proposal::symmetric`]).
    fn propose(&mut self, world: &World, rng: &mut DynRng<'_>, out: &mut Proposal);

    /// Hidden variables this proposer may modify (used by evaluators to know
    /// which fields can change between samples).
    fn support(&self) -> &[VariableId];
}

/// Uniform single-variable relabeling: the paper's NER jump function.
pub struct UniformRelabel {
    vars: Vec<VariableId>,
}

impl UniformRelabel {
    /// Proposer over the given hidden variables.
    ///
    /// # Panics
    /// Panics when `vars` is empty — there would be nothing to sample.
    pub fn new(vars: Vec<VariableId>) -> Self {
        assert!(!vars.is_empty(), "proposer needs at least one variable");
        UniformRelabel { vars }
    }
}

impl Proposer for UniformRelabel {
    fn propose(&mut self, world: &World, rng: &mut DynRng<'_>, out: &mut Proposal) {
        let v = self.vars[rng.gen_range(0..self.vars.len())];
        let new = rng.gen_range(0..world.cardinality(v));
        out.symmetric([(v, new)]);
    }

    fn support(&self) -> &[VariableId] {
        &self.vars
    }
}

/// Document-locality batching around an inner uniform relabel move (§5.1):
/// "this process is repeated for 2000 proposals before L is changed by
/// loading a new batch of variables from the database: up to five documents
/// worth of variables may be selected".
pub struct LocalityProposer {
    /// Variable groups (e.g. one group per document).
    groups: Vec<Vec<VariableId>>,
    groups_per_batch: usize,
    steps_per_batch: usize,
    /// Flattened current batch.
    current: Vec<VariableId>,
    remaining: usize,
    /// Union of all groups, for [`Proposer::support`].
    all: Vec<VariableId>,
}

impl LocalityProposer {
    /// Builds the proposer. `groups_per_batch` is the paper's "up to five
    /// documents"; `steps_per_batch` is its 2000.
    ///
    /// # Panics
    /// Panics when there are no groups, or any group is empty, or the batch
    /// parameters are zero.
    pub fn new(
        groups: Vec<Vec<VariableId>>,
        groups_per_batch: usize,
        steps_per_batch: usize,
    ) -> Self {
        assert!(!groups.is_empty(), "need at least one group");
        assert!(
            groups.iter().all(|g| !g.is_empty()),
            "groups must be non-empty"
        );
        assert!(groups_per_batch > 0 && steps_per_batch > 0);
        let mut all: Vec<VariableId> = groups.iter().flatten().copied().collect();
        all.sort();
        all.dedup();
        LocalityProposer {
            groups,
            groups_per_batch,
            steps_per_batch,
            current: Vec::new(),
            remaining: 0,
            all,
        }
    }

    fn reload(&mut self, rng: &mut DynRng<'_>) {
        self.current.clear();
        let n = self.groups_per_batch.min(self.groups.len());
        for _ in 0..n {
            // Documents "selected uniformly at random from the database"
            // (with replacement, as in the paper's description).
            let g = rng.gen_range(0..self.groups.len());
            self.current.extend_from_slice(&self.groups[g]);
        }
        self.remaining = self.steps_per_batch;
    }

    /// Variables in the active batch (for tests).
    pub fn current_batch(&self) -> &[VariableId] {
        &self.current
    }
}

impl Proposer for LocalityProposer {
    fn propose(&mut self, world: &World, rng: &mut DynRng<'_>, out: &mut Proposal) {
        if self.remaining == 0 {
            self.reload(rng);
        }
        self.remaining -= 1;
        let v = self.current[rng.gen_range(0..self.current.len())];
        let new = rng.gen_range(0..world.cardinality(v));
        out.symmetric([(v, new)]);
    }

    fn support(&self) -> &[VariableId] {
        &self.all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdb_graph::Domain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world(n: usize) -> World {
        let d = Domain::of_labels(&["O", "B-PER", "I-PER"]);
        World::new(vec![d; n])
    }

    #[test]
    fn filling_the_buffer_overwrites_it() {
        let mut p = Proposal::default();
        p.set([(VariableId(3), 1), (VariableId(1), 0)], -0.5);
        assert_eq!(p.changes, [(VariableId(3), 1), (VariableId(1), 0)]);
        assert_eq!(p.log_q_ratio, -0.5);
        p.symmetric([(VariableId(2), 2)]);
        assert_eq!(p.changes, [(VariableId(2), 2)]);
        assert_eq!(p.log_q_ratio, 0.0);
    }

    #[test]
    fn uniform_relabel_stays_in_support_and_domain() {
        let w = world(10);
        let vars: Vec<_> = (0..10).map(VariableId).collect();
        let mut p = UniformRelabel::new(vars.clone());
        let mut rng = StdRng::seed_from_u64(7);
        let mut rng = DynRng::from(&mut rng);
        let mut prop = Proposal::default();
        for _ in 0..200 {
            p.propose(&w, &mut rng, &mut prop);
            assert_eq!(prop.changes.len(), 1);
            let (v, idx) = prop.changes[0];
            assert!(vars.contains(&v));
            assert!(idx < 3);
        }
    }

    #[test]
    fn uniform_relabel_eventually_proposes_every_label() {
        let w = world(1);
        let mut p = UniformRelabel::new(vec![VariableId(0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut rng = DynRng::from(&mut rng);
        let mut seen = [false; 3];
        let mut prop = Proposal::default();
        for _ in 0..100 {
            p.propose(&w, &mut rng, &mut prop);
            seen[prop.changes[0].1] = true;
        }
        assert!(seen.iter().all(|&s| s), "ergodicity over the label domain");
    }

    #[test]
    #[should_panic(expected = "at least one variable")]
    fn empty_uniform_relabel_panics() {
        UniformRelabel::new(vec![]);
    }

    #[test]
    fn locality_proposer_batches() {
        let w = world(30);
        let groups: Vec<Vec<VariableId>> = (0..3)
            .map(|g| (0..10).map(|i| VariableId(g * 10 + i)).collect())
            .collect();
        let mut p = LocalityProposer::new(groups, 1, 50);
        let mut rng = StdRng::seed_from_u64(3);
        let mut rng = DynRng::from(&mut rng);
        let mut out = Proposal::default();
        let mut draw = |p: &mut LocalityProposer| {
            p.propose(&w, &mut rng, &mut out);
            out.changes[0].0
        };
        // Within one batch, all proposals target the same group.
        let first = draw(&mut p);
        let batch: Vec<VariableId> = p.current_batch().to_vec();
        assert_eq!(batch.len(), 10);
        assert!(batch.contains(&first));
        for _ in 0..49 {
            let v = draw(&mut p);
            assert!(batch.contains(&v));
        }
        // Across many batches every group is visited.
        let mut seen_groups = [false; 3];
        for _ in 0..2000 {
            let v = draw(&mut p);
            seen_groups[(v.0 / 10) as usize] = true;
        }
        assert!(seen_groups.iter().all(|&s| s));
    }

    #[test]
    fn locality_support_is_union() {
        let groups = vec![
            vec![VariableId(0)],
            vec![VariableId(5)],
            vec![VariableId(0)],
        ];
        let p = LocalityProposer::new(groups, 2, 10);
        assert_eq!(p.support(), &[VariableId(0), VariableId(5)]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_group_panics() {
        LocalityProposer::new(vec![vec![]], 1, 1);
    }
}
