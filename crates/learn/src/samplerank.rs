//! SampleRank — learning factor weights from atomic gradients (§5.2, reference 32 of the paper).
//!
//! "We train the model using one-million steps of SampleRank, a training
//! method based on MH. The method is extremely quick, learning all
//! parameters in a matter of minutes."
//!
//! SampleRank piggybacks on the MH walk: every proposal yields a *pair* of
//! neighboring worlds (w, w'). Whenever the model's ranking of the pair
//! (by neighborhood score) disagrees with the ground-truth objective's
//! ranking, the weights take a perceptron step toward the truth-preferred
//! world:
//!
//! ```text
//! θ ← θ + η · (φ(w_good) − φ(w_bad))
//! ```
//!
//! where φ are the neighborhood sufficient statistics — because the two
//! worlds differ only locally, the feature difference is sparse and each
//! update is O(|neighborhood|), independent of database size.

use crate::objective::Objective;
use fgdb_graph::{EvalStats, FeatureVector, Learnable, ModelError, VariableId, World};
use fgdb_mcmc::{DynRng, Proposal, Proposer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the training chain decides to move to the proposed world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// Move when the objective does not get worse (oracle-guided; fast,
    /// the common choice for SampleRank training runs).
    Objective,
    /// Move by the model's own MH accept test (uses the weights as they are
    /// being learned).
    Model,
}

/// Configuration for a SampleRank run.
#[derive(Clone, Debug)]
pub struct SampleRankConfig {
    /// Perceptron learning rate η.
    pub learning_rate: f64,
    /// Number of proposals (the paper uses one million).
    pub steps: usize,
    /// RNG seed.
    pub seed: u64,
    /// Chain transition policy.
    pub drive: Drive,
    /// Required score separation: the truth-preferred world must outscore
    /// the other by at least this much, or an update fires. A margin of 0
    /// reproduces the bare perceptron; positive margins keep pushing until
    /// wrong moves are *confidently* down-ranked, which is what makes the
    /// learned posterior sharp at query time.
    pub margin: f64,
}

impl Default for SampleRankConfig {
    fn default() -> Self {
        SampleRankConfig {
            learning_rate: 0.1,
            steps: 10_000,
            seed: 0x5a3717,
            drive: Drive::Objective,
            margin: 1.0,
        }
    }
}

/// Counters reported by a training run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrainStats {
    /// Proposals examined.
    pub steps: u64,
    /// Weight updates performed (model/objective ranking disagreements).
    pub updates: u64,
    /// Proposals the chain moved on.
    pub moves: u64,
    /// Objective value of the final world.
    pub final_objective: f64,
}

/// Trains `model` in place against `objective`, walking `world` with
/// `proposer`. Returns counters; the world ends wherever the chain left it.
///
/// # Errors
/// Propagates [`ModelError`] from the model's gradient application (e.g. a
/// feature id outside the weight layout). The walk stops at the failing
/// step; weights hold the last successfully applied update.
pub fn train<M, O>(
    model: &mut M,
    world: &mut World,
    proposer: &mut dyn Proposer,
    objective: &O,
    config: &SampleRankConfig,
) -> Result<TrainStats, ModelError>
where
    M: Learnable,
    O: Objective + ?Sized,
{
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut stats = TrainStats::default();
    let mut eval = EvalStats::default();
    let mut touched: Vec<VariableId> = Vec::new();
    let mut proposal = Proposal::default();

    for _ in 0..config.steps {
        stats.steps += 1;
        proposer.propose(world, &mut DynRng::from(&mut rng), &mut proposal);

        touched.clear();
        for (v, _) in &proposal.changes {
            if !touched.contains(v) {
                touched.push(*v);
            }
        }

        // Before-state: model score, objective, features over the touched
        // neighborhood.
        let score_before = model.score_neighborhood(world, &touched, &mut eval);
        let obj_before = objective.score_local(world, &touched);
        let feats_before = model.features_neighborhood(world, &touched);

        // Apply the proposal.
        let mut applied: Vec<(VariableId, usize)> = Vec::with_capacity(proposal.changes.len());
        for &(v, new) in &proposal.changes {
            let old = world.set(v, new);
            applied.push((v, old));
        }

        let score_after = model.score_neighborhood(world, &touched, &mut eval);
        let obj_after = objective.score_local(world, &touched);
        let feats_after = model.features_neighborhood(world, &touched);

        // Margin-perceptron update on ranking disagreement: the
        // truth-preferred world must win by at least `margin`.
        if obj_after > obj_before && score_after - score_before < config.margin {
            let grad = feats_after.minus(&feats_before);
            model.apply_gradient(&grad, config.learning_rate)?;
            stats.updates += 1;
        } else if obj_after < obj_before && score_before - score_after < config.margin {
            let grad = feats_before.minus(&feats_after);
            model.apply_gradient(&grad, config.learning_rate)?;
            stats.updates += 1;
        }

        // Chain transition.
        let accept = match config.drive {
            Drive::Objective => obj_after >= obj_before,
            Drive::Model => {
                let log_alpha = (score_after - score_before) + proposal.log_q_ratio;
                log_alpha >= 0.0 || rng.gen::<f64>().ln() < log_alpha
            }
        };
        if accept {
            stats.moves += 1;
        } else {
            for &(v, old) in applied.iter().rev() {
                world.set(v, old);
            }
        }
    }

    stats.final_objective = objective.score(world);
    Ok(stats)
}

/// Averaged-perceptron helper: accumulates weight snapshots so callers can
/// retrieve an averaged weight vector, which is markedly more stable than
/// the final iterate.
#[derive(Default, Debug, Clone)]
pub struct WeightAverager {
    sum: FeatureVector,
    snapshots: u64,
}

impl WeightAverager {
    /// Creates an empty averager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the current value of the listed features.
    ///
    /// # Errors
    /// Propagates [`ModelError`] for ids outside the model's layout. The
    /// failing snapshot contributes nothing — weights are read before any
    /// of them accumulate, so an error cannot leave a partial snapshot.
    pub fn record<M: Learnable>(
        &mut self,
        model: &M,
        feature_ids: impl Iterator<Item = u64>,
    ) -> Result<(), ModelError> {
        let mut read = Vec::new();
        for id in feature_ids {
            read.push((id, model.weight(id)?));
        }
        for (id, w) in read {
            self.sum.add(id, w);
        }
        self.snapshots += 1;
        Ok(())
    }

    /// Number of snapshots recorded.
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// Averaged weight of a feature.
    pub fn averaged(&self, feature: u64) -> f64 {
        if self.snapshots == 0 {
            0.0
        } else {
            self.sum.get(feature) / self.snapshots as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::HammingObjective;
    use fgdb_graph::{Domain, Model, VariableId};
    use fgdb_mcmc::UniformRelabel;

    /// A learnable unigram model: weight per (domain index) shared across
    /// variables; feature id = domain index; score of a neighborhood = sum
    /// of weights of the labels assigned there.
    struct Unigram {
        weights: Vec<f64>,
    }

    impl Model for Unigram {
        fn score_world(&self, world: &World, stats: &mut EvalStats) -> f64 {
            stats.factors_evaluated += world.num_variables() as u64;
            world.variables().map(|v| self.weights[world.get(v)]).sum()
        }
        fn score_neighborhood(
            &self,
            world: &World,
            vars: &[VariableId],
            stats: &mut EvalStats,
        ) -> f64 {
            stats.factors_evaluated += vars.len() as u64;
            vars.iter().map(|&v| self.weights[world.get(v)]).sum()
        }
    }

    impl Learnable for Unigram {
        fn features_neighborhood(&self, world: &World, vars: &[VariableId]) -> FeatureVector {
            let mut f = FeatureVector::new();
            for &v in vars {
                f.add(world.get(v) as u64, 1.0);
            }
            f
        }
        fn apply_gradient(&mut self, grad: &FeatureVector, lr: f64) -> Result<(), ModelError> {
            for (id, _) in grad.iter() {
                if id as usize >= self.weights.len() {
                    return Err(ModelError::FeatureOutOfRange {
                        id,
                        num_features: self.weights.len() as u64,
                    });
                }
            }
            for (id, g) in grad.iter() {
                self.weights[id as usize] += lr * g;
            }
            Ok(())
        }
        fn weight(&self, feature: u64) -> Result<f64, ModelError> {
            self.weights
                .get(feature as usize)
                .copied()
                .ok_or(ModelError::FeatureOutOfRange {
                    id: feature,
                    num_features: self.weights.len() as u64,
                })
        }
    }

    fn setup(n: usize) -> (Unigram, World, HammingObjective) {
        let d = Domain::of_labels(&["wrong", "right", "other"]);
        let w = World::new(vec![d; n]);
        // Truth: everything labelled index 1.
        let obj = HammingObjective::new(vec![1; n]);
        (
            Unigram {
                weights: vec![0.0; 3],
            },
            w,
            obj,
        )
    }

    #[test]
    fn samplerank_learns_truth_preferring_weights() {
        let (mut model, mut world, obj) = setup(20);
        let vars: Vec<_> = (0..20).map(VariableId).collect();
        let mut proposer = UniformRelabel::new(vars);
        let cfg = SampleRankConfig {
            steps: 5000,
            seed: 7,
            ..Default::default()
        };
        let stats = train(&mut model, &mut world, &mut proposer, &obj, &cfg).unwrap();
        assert!(
            stats.updates > 0,
            "ranking disagreements must trigger updates"
        );
        // The "right" label's weight must dominate.
        assert!(
            model.weight(1).unwrap() > model.weight(0).unwrap()
                && model.weight(1).unwrap() > model.weight(2).unwrap(),
            "weights: {:?}",
            model.weights
        );
        // Objective-driven chain should reach (near) perfect accuracy.
        assert!(
            obj.accuracy(&world) > 0.9,
            "accuracy {}",
            obj.accuracy(&world)
        );
    }

    #[test]
    fn learned_model_ranks_truth_above_corruption() {
        let (mut model, mut world, obj) = setup(10);
        let vars: Vec<_> = (0..10).map(VariableId).collect();
        let mut proposer = UniformRelabel::new(vars.clone());
        let cfg = SampleRankConfig {
            steps: 4000,
            seed: 3,
            ..Default::default()
        };
        train(&mut model, &mut world, &mut proposer, &obj, &cfg).unwrap();
        // Score the all-truth world vs one with a wrong label.
        let mut truth_world = world.clone();
        for &v in &vars {
            truth_world.set(v, 1);
        }
        let mut corrupted = truth_world.clone();
        corrupted.set(VariableId(0), 0);
        let mut s = EvalStats::default();
        assert!(model.score_world(&truth_world, &mut s) > model.score_world(&corrupted, &mut s));
    }

    #[test]
    fn model_drive_also_trains() {
        let (mut model, mut world, obj) = setup(15);
        let vars: Vec<_> = (0..15).map(VariableId).collect();
        let mut proposer = UniformRelabel::new(vars);
        let cfg = SampleRankConfig {
            steps: 8000,
            seed: 11,
            drive: Drive::Model,
            ..Default::default()
        };
        let stats = train(&mut model, &mut world, &mut proposer, &obj, &cfg).unwrap();
        assert!(stats.updates > 0);
        assert!(model.weight(1).unwrap() > model.weight(0).unwrap());
    }

    #[test]
    fn zero_steps_is_a_noop() {
        let (mut model, mut world, obj) = setup(5);
        let mut proposer = UniformRelabel::new((0..5).map(VariableId).collect());
        let cfg = SampleRankConfig {
            steps: 0,
            ..Default::default()
        };
        let stats = train(&mut model, &mut world, &mut proposer, &obj, &cfg).unwrap();
        assert_eq!(stats.steps, 0);
        assert_eq!(stats.updates, 0);
        assert_eq!(model.weight(0).unwrap(), 0.0);
    }

    #[test]
    fn weight_averager_averages() {
        let (mut model, _, _) = setup(1);
        let mut avg = WeightAverager::new();
        avg.record(&model, 0..3u64).unwrap();
        model.weights[1] = 2.0;
        avg.record(&model, 0..3u64).unwrap();
        assert!(avg.record(&model, 0..99u64).is_err());
        assert_eq!(avg.snapshots(), 2);
        assert_eq!(avg.averaged(1), 1.0);
        assert_eq!(avg.averaged(0), 0.0);
        assert_eq!(WeightAverager::new().averaged(5), 0.0);
    }
}
