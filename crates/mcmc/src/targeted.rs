//! Query-targeted proposal distributions — §4.1's open question, realized.
//!
//! "Another interesting scientific question is how to inject query specific
//! knowledge directly into the proposal distribution. For example, a query
//! might target an isolated subset of the database, then the proposal
//! distribution only has to sample this subset; this can be (1) provided by
//! an expert with domain-specific knowledge, (2) generated by analyzing the
//! structure of the graph and query, or even (3) learned automatically."
//!
//! [`TargetedProposer`] implements option (1)/(2): it wraps any inner
//! proposer and focuses a fraction `1 − ε` of proposals on a *target*
//! variable set (e.g. the tokens of documents a selective query can touch),
//! spending the remaining ε on the full support so the chain still targets
//! the exact posterior over everything the query reads.
//!
//! Correctness: both the focused and background components are themselves
//! symmetric single-variable relabel moves, and the mixture weights do not
//! depend on the current world, so the mixture kernel is symmetric and the
//! Hastings ratio stays 0. (A mixture of valid MH kernels with
//! state-independent weights is a valid MH kernel.)

use crate::proposal::{Proposal, Proposer};
use crate::rng::DynRng;
use fgdb_graph::{VariableId, World};
use rand::Rng;

/// Focuses proposals on a query-relevant variable subset.
pub struct TargetedProposer {
    /// Query-relevant variables (sampled with probability `1 − epsilon`).
    target: Vec<VariableId>,
    /// All variables the posterior ranges over.
    all: Vec<VariableId>,
    /// Probability of proposing outside the target set.
    epsilon: f64,
}

impl TargetedProposer {
    /// Builds the proposer.
    ///
    /// # Panics
    /// Panics when either variable set is empty, the target is not a subset
    /// of `all`, or ε ∉ [0, 1].
    pub fn new(target: Vec<VariableId>, all: Vec<VariableId>, epsilon: f64) -> Self {
        assert!(!target.is_empty(), "empty target set");
        assert!(!all.is_empty(), "empty support");
        assert!((0.0..=1.0).contains(&epsilon), "epsilon out of range");
        assert!(
            target.iter().all(|v| all.contains(v)),
            "target must be a subset of the support"
        );
        TargetedProposer {
            target,
            all,
            epsilon,
        }
    }

    /// The focused fraction of proposals.
    pub fn focus(&self) -> f64 {
        1.0 - self.epsilon
    }
}

impl Proposer for TargetedProposer {
    fn propose(&mut self, world: &World, rng: &mut DynRng<'_>, out: &mut Proposal) {
        let pool: &[VariableId] = if rng.gen::<f64>() < self.epsilon {
            &self.all
        } else {
            &self.target
        };
        let v = pool[rng.gen_range(0..pool.len())];
        let new = rng.gen_range(0..world.cardinality(v));
        // The value choice is uniform and the variable-selection mixture is
        // world-independent → symmetric.
        out.symmetric([(v, new)]);
    }

    fn support(&self) -> &[VariableId] {
        &self.all
    }
}

/// Derives the target variable set for a token-per-variable NER query that
/// is selective on documents: all variables of documents containing any of
/// the `anchor` variables. This is the "analyzing the structure of the
/// graph and query" route: a query with an equality predicate on a rare
/// string (Query 4's `STRING='Boston'`) can only be affected by labels in
/// documents where that string occurs (joins stay within `DOC_ID`).
pub fn document_closure(
    doc_ranges: &[std::ops::Range<usize>],
    anchors: impl IntoIterator<Item = usize>,
) -> Vec<VariableId> {
    let mut docs: Vec<usize> = Vec::new();
    for a in anchors {
        let d = doc_ranges.partition_point(|r| r.end <= a);
        if d < doc_ranges.len() && !docs.contains(&d) {
            docs.push(d);
        }
    }
    docs.sort_unstable();
    let mut out = Vec::new();
    for d in docs {
        out.extend(doc_ranges[d].clone().map(|t| VariableId(t as u32)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::MetropolisHastings;
    use fgdb_graph::enumerate::exact_marginals;
    use fgdb_graph::{Domain, FactorGraph, TableFactor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn document_closure_expands_anchors_to_whole_docs() {
        let ranges = vec![0..5, 5..9, 9..14];
        let vars = document_closure(&ranges, [6, 10, 6]);
        // Docs 1 and 2 → variables 5..14.
        let expect: Vec<VariableId> = (5..14).map(|t| VariableId(t as u32)).collect();
        assert_eq!(vars, expect);
        // Out-of-range anchor is ignored.
        assert!(document_closure(&ranges, [99]).is_empty());
    }

    #[test]
    fn proposals_respect_mixture() {
        let d = Domain::of_labels(&["a", "b"]);
        let w = World::new(vec![d; 10]);
        let all: Vec<_> = (0..10).map(VariableId).collect();
        let target = vec![VariableId(3), VariableId(4)];
        let mut p = TargetedProposer::new(target.clone(), all, 0.2);
        assert!((p.focus() - 0.8).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(5);
        let mut rng = DynRng::from(&mut rng);
        let mut in_target = 0;
        let n = 5000;
        let mut prop = Proposal::default();
        for _ in 0..n {
            p.propose(&w, &mut rng, &mut prop);
            if target.contains(&prop.changes[0].0) {
                in_target += 1;
            }
            assert_eq!(prop.log_q_ratio, 0.0);
        }
        let frac = in_target as f64 / n as f64;
        // 0.8 focused + 0.2 × (2/10) background ≈ 0.84.
        assert!((frac - 0.84).abs() < 0.03, "target fraction {frac}");
    }

    #[test]
    fn targeted_chain_still_samples_the_exact_posterior() {
        // Three independent biased variables; target = {0}. Marginals of
        // *all* variables must still converge (ergodicity via ε).
        let d = Domain::of_labels(&["0", "1"]);
        let mut w = World::new(vec![d.clone(), d.clone(), d]);
        let mut g = FactorGraph::new();
        for (i, b) in [0.9, -0.6, 0.3].into_iter().enumerate() {
            g.add_factor(Box::new(TableFactor::new(
                vec![VariableId(i as u32)],
                vec![2],
                vec![0.0, b],
                format!("b{i}"),
            )));
        }
        let vars: Vec<_> = (0..3).map(VariableId).collect();
        let exact = exact_marginals(&g, &mut w.clone(), &vars);
        let p = TargetedProposer::new(vec![VariableId(0)], vars.clone(), 0.3);
        let mut kernel = MetropolisHastings::new(g, Box::new(p));
        let mut rng = StdRng::seed_from_u64(11);
        let mut rng = DynRng::from(&mut rng);
        let n = 300_000;
        let mut ones = [0u64; 3];
        for _ in 0..n {
            kernel.step(&mut w, &mut rng);
            for (i, &v) in vars.iter().enumerate() {
                ones[i] += w.get(v) as u64;
            }
        }
        for i in 0..3 {
            let est = ones[i] as f64 / n as f64;
            assert!(
                (est - exact[i][1]).abs() < 0.015,
                "var {i}: {est:.4} vs exact {:.4}",
                exact[i][1]
            );
        }
    }

    #[test]
    #[should_panic(expected = "subset")]
    fn target_outside_support_panics() {
        TargetedProposer::new(vec![VariableId(9)], vec![VariableId(0)], 0.1);
    }
}
