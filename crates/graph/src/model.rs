//! The model abstraction: a distribution over worlds, scored lazily.
//!
//! A factor graph defines `π(y|x) ∝ ∏ₖ ψₖ(yˢ, xᵗ)` (Eq. 1 of the paper). We
//! work throughout in **log space**: a model reports the log of the
//! unnormalized probability, and Metropolis–Hastings only ever needs
//! *differences* of log scores, so the #P-hard normalizer `Z_X` never
//! appears (§3.4).
//!
//! Crucially, [`Model::score_neighborhood`] scores only the factors adjacent
//! to a given set of variables. Appendix 9.2 shows that the MH acceptance
//! ratio reduces to `∏_{yᵢ∈δ} ψ(X, yᵢ') / ∏_{yᵢ∈δ} ψ(X, yᵢ)` — all factors
//! untouched by the proposal cancel. Models therefore never materialize the
//! full unrolled graph; they enumerate neighborhood factors on demand, which
//! is what makes a walk step O(1) in the database size (§5.3).
//!
//! The sampler does not call `score_neighborhood` itself. Its one scoring
//! primitive is [`Model::score_change`]: "score this hypothesized change
//! set, hand back `(before, after)`, leave the world as found". The default
//! body ([`score_change_by_apply`]) is the generic dance — score, apply,
//! score, undo — two neighbourhood passes that work for any model. A model
//! that can read both sums off one traversal overrides it (the CRF does for
//! a single relabel), and either way [`EvalStats`] counts what was computed:
//! two neighbourhood scorings per change set.

use crate::variable::VariableId;
use crate::world::World;

/// Instrumentation counters for factor evaluation.
///
/// Figure 9 / Appendix 9.2 claims the number of factors evaluated per
/// proposal is constant in the number of tuples; experiment E7 verifies this
/// by reading these counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Individual factor evaluations performed.
    pub factors_evaluated: u64,
    /// Neighborhood scorings performed.
    pub neighborhood_scores: u64,
}

impl EvalStats {
    /// Accumulates another counter set.
    pub fn absorb(&mut self, other: EvalStats) {
        self.factors_evaluated += other.factors_evaluated;
        self.neighborhood_scores += other.neighborhood_scores;
    }
}

/// Buffers [`score_change_by_apply`] works in. The caller owns one and
/// hands it to every [`Model::score_change`], so scoring a change set
/// allocates nothing once they have grown to the largest proposal seen.
#[derive(Debug, Default)]
pub struct ChangeScratch {
    /// Distinct changed variables, in order of first mention.
    touched: Vec<VariableId>,
    /// `(variable, index before the write)` per applied change.
    undo: Vec<(VariableId, usize)>,
}

/// Scores `changes` by doing them: neighbourhood score of the distinct
/// changed variables, apply the changes in order, score again, undo in
/// reverse order (so repeated writes to one variable unwind correctly).
/// Pair factors shared by two changed variables are counted once per pass
/// by [`Model::score_neighborhood`]'s contract. The default body of
/// [`Model::score_change`], public so an override can fall back to it for
/// the change sets it does not specialise.
pub fn score_change_by_apply<M: Model + ?Sized>(
    model: &M,
    world: &mut World,
    changes: &[(VariableId, usize)],
    scratch: &mut ChangeScratch,
    stats: &mut EvalStats,
) -> (f64, f64) {
    let ChangeScratch { touched, undo } = scratch;
    touched.clear();
    for (v, _) in changes {
        if !touched.contains(v) {
            touched.push(*v);
        }
    }
    let before = model.score_neighborhood(world, touched, stats);
    undo.clear();
    for &(v, new) in changes {
        undo.push((v, world.set(v, new)));
    }
    let after = model.score_neighborhood(world, touched, stats);
    for &(v, old) in undo.iter().rev() {
        world.set(v, old);
    }
    (before, after)
}

/// A probability model over worlds (unnormalized, log space).
pub trait Model: Send + Sync {
    /// Log of the unnormalized probability of the whole world:
    /// `log ∏ ψ = Σ log ψ`. Used by exact enumeration and tests; large
    /// models may implement it as a fold over all factors.
    fn score_world(&self, world: &World, stats: &mut EvalStats) -> f64;

    /// Sum of log-scores of every factor adjacent to at least one variable
    /// in `vars` (each such factor counted exactly once).
    ///
    /// MH computes `score_neighborhood(w', δ) − score_neighborhood(w, δ)`
    /// for the changed set δ; correctness requires that factor *structure*
    /// adjacent to δ depends only on observed data and on the variables in
    /// δ themselves (true for the CRF and coreference models here).
    fn score_neighborhood(&self, world: &World, vars: &[VariableId], stats: &mut EvalStats) -> f64;

    /// Scores a hypothesized change set — `(variable, new index)` writes,
    /// applied in order — without committing it: returns the neighbourhood
    /// score of the changed variables `(before, after)` the writes, with the
    /// world on return exactly as it was on entry. `after − before` is the
    /// log model ratio of Eq. 3; this is the only scoring call an MH step
    /// makes.
    ///
    /// Every write must name a variable of `world` and an index inside its
    /// domain (the kernel rejects malformed proposals before scoring).
    /// An override must return bit-for-bit what the default body returns —
    /// same factors, same summation order — and count the same
    /// [`EvalStats`] (two neighbourhood scorings), so that swapping it in
    /// never changes a trajectory.
    fn score_change(
        &self,
        world: &mut World,
        changes: &[(VariableId, usize)],
        scratch: &mut ChangeScratch,
        stats: &mut EvalStats,
    ) -> (f64, f64) {
        score_change_by_apply(self, world, changes, scratch, stats)
    }

    /// Neighborhood score of `var` *as if* it were set to `value`, without
    /// mutating the world — the primitive Gibbs full-conditional sampling
    /// needs once per candidate value.
    ///
    /// The default implementation clones the world, which is correct but
    /// O(#variables) per call; models over large worlds should override it
    /// with an overlay read (the CRF and coreference models do).
    fn score_neighborhood_whatif(
        &self,
        world: &World,
        var: VariableId,
        value: usize,
        stats: &mut EvalStats,
    ) -> f64 {
        let mut scratch = world.clone();
        scratch.set(var, value);
        self.score_neighborhood(&scratch, &[var], stats)
    }
}

/// Blanket impls so `&M` and boxed models are models too. Every method is
/// forwarded, overridable ones included: a wrapper that fell back to a
/// default body would silently bypass the wrapped model's override.
impl<M: Model + ?Sized> Model for &M {
    fn score_world(&self, world: &World, stats: &mut EvalStats) -> f64 {
        (**self).score_world(world, stats)
    }
    fn score_neighborhood(&self, world: &World, vars: &[VariableId], stats: &mut EvalStats) -> f64 {
        (**self).score_neighborhood(world, vars, stats)
    }
    fn score_change(
        &self,
        world: &mut World,
        changes: &[(VariableId, usize)],
        scratch: &mut ChangeScratch,
        stats: &mut EvalStats,
    ) -> (f64, f64) {
        (**self).score_change(world, changes, scratch, stats)
    }
    fn score_neighborhood_whatif(
        &self,
        world: &World,
        var: VariableId,
        value: usize,
        stats: &mut EvalStats,
    ) -> f64 {
        (**self).score_neighborhood_whatif(world, var, value, stats)
    }
}

impl<M: Model + ?Sized> Model for Box<M> {
    fn score_world(&self, world: &World, stats: &mut EvalStats) -> f64 {
        (**self).score_world(world, stats)
    }
    fn score_neighborhood(&self, world: &World, vars: &[VariableId], stats: &mut EvalStats) -> f64 {
        (**self).score_neighborhood(world, vars, stats)
    }
    fn score_change(
        &self,
        world: &mut World,
        changes: &[(VariableId, usize)],
        scratch: &mut ChangeScratch,
        stats: &mut EvalStats,
    ) -> (f64, f64) {
        (**self).score_change(world, changes, scratch, stats)
    }
    fn score_neighborhood_whatif(
        &self,
        world: &World,
        var: VariableId,
        value: usize,
        stats: &mut EvalStats,
    ) -> f64 {
        (**self).score_neighborhood_whatif(world, var, value, stats)
    }
}

impl<M: Model + ?Sized> Model for std::sync::Arc<M> {
    fn score_world(&self, world: &World, stats: &mut EvalStats) -> f64 {
        (**self).score_world(world, stats)
    }
    fn score_neighborhood(&self, world: &World, vars: &[VariableId], stats: &mut EvalStats) -> f64 {
        (**self).score_neighborhood(world, vars, stats)
    }
    fn score_change(
        &self,
        world: &mut World,
        changes: &[(VariableId, usize)],
        scratch: &mut ChangeScratch,
        stats: &mut EvalStats,
    ) -> (f64, f64) {
        (**self).score_change(world, changes, scratch, stats)
    }
    fn score_neighborhood_whatif(
        &self,
        world: &World,
        var: VariableId,
        value: usize,
        stats: &mut EvalStats,
    ) -> f64 {
        (**self).score_neighborhood_whatif(world, var, value, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::Domain;

    /// A trivial model preferring higher domain indexes.
    struct Prefer;

    impl Model for Prefer {
        fn score_world(&self, world: &World, stats: &mut EvalStats) -> f64 {
            stats.factors_evaluated += world.num_variables() as u64;
            world.variables().map(|v| world.get(v) as f64).sum()
        }
        fn score_neighborhood(
            &self,
            world: &World,
            vars: &[VariableId],
            stats: &mut EvalStats,
        ) -> f64 {
            stats.neighborhood_scores += 1;
            stats.factors_evaluated += vars.len() as u64;
            vars.iter().map(|&v| world.get(v) as f64).sum()
        }
    }

    #[test]
    fn stats_accumulate() {
        let d = Domain::of_labels(&["a", "b"]);
        let w = World::new(vec![d.clone(), d]);
        let m = Prefer;
        let mut s = EvalStats::default();
        m.score_world(&w, &mut s);
        m.score_neighborhood(&w, &[VariableId(0)], &mut s);
        assert_eq!(s.factors_evaluated, 3);
        assert_eq!(s.neighborhood_scores, 1);
        let mut t = EvalStats::default();
        t.absorb(s);
        t.absorb(s);
        assert_eq!(t.factors_evaluated, 6);
    }

    #[test]
    fn score_change_scores_both_sides_and_leaves_the_world_as_found() {
        let d = Domain::of_labels(&["a", "b", "c"]);
        let mut w = World::new(vec![d.clone(), d]);
        w.set(VariableId(1), 1);
        let mut s = EvalStats::default();
        let mut scratch = ChangeScratch::default();
        // Variable 0 written twice (0 → 2 → 1), variable 1 once (1 → 2):
        // before = 0 + 1, after = 1 + 2, two scorings over two variables.
        let changes = [(VariableId(0), 2), (VariableId(1), 2), (VariableId(0), 1)];
        let scored = Prefer.score_change(&mut w, &changes, &mut scratch, &mut s);
        assert_eq!(scored, (1.0, 3.0));
        assert_eq!(w.assignment(), &[0, 1]);
        assert_eq!(s.neighborhood_scores, 2);
        assert_eq!(s.factors_evaluated, 4);
    }

    #[test]
    fn wrappers_forward_a_score_change_override() {
        /// Overrides the primitive with something the default body could
        /// never return.
        struct Marked;
        impl Model for Marked {
            fn score_world(&self, _: &World, _: &mut EvalStats) -> f64 {
                0.0
            }
            fn score_neighborhood(&self, _: &World, _: &[VariableId], _: &mut EvalStats) -> f64 {
                0.0
            }
            fn score_change(
                &self,
                _: &mut World,
                _: &[(VariableId, usize)],
                _: &mut ChangeScratch,
                _: &mut EvalStats,
            ) -> (f64, f64) {
                (7.0, 9.0)
            }
        }
        let mut w = World::new(vec![Domain::of_labels(&["a", "b"])]);
        let mut s = EvalStats::default();
        let mut scratch = ChangeScratch::default();
        let change = [(VariableId(0), 1)];
        let boxed: Box<dyn Model> = Box::new(Marked);
        let arc = std::sync::Arc::new(Marked);
        let by_ref = &Marked;
        for scored in [
            boxed.score_change(&mut w, &change, &mut scratch, &mut s),
            arc.score_change(&mut w, &change, &mut scratch, &mut s),
            by_ref.score_change(&mut w, &change, &mut scratch, &mut s),
        ] {
            assert_eq!(scored, (7.0, 9.0));
        }
    }

    #[test]
    fn blanket_impls_delegate() {
        let d = Domain::of_labels(&["a", "b"]);
        let mut w = World::new(vec![d]);
        w.set(VariableId(0), 1);
        let mut s = EvalStats::default();
        let boxed: Box<dyn Model> = Box::new(Prefer);
        assert_eq!(boxed.score_world(&w, &mut s), 1.0);
        let arc = std::sync::Arc::new(Prefer);
        assert_eq!(arc.score_world(&w, &mut s), 1.0);
        let r = &Prefer;
        assert_eq!(r.score_neighborhood(&w, &[VariableId(0)], &mut s), 1.0);
    }
}
