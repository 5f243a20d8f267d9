//! Possible worlds as variable assignments.
//!
//! A [`World`] is a setting of every hidden variable — together with the
//! (implicit, constant) observed variables it determines one deterministic
//! database instance (§3.2). MCMC walks this space by flipping one or a few
//! entries at a time; the representation is a flat `Vec<u16>` of domain
//! indexes beside a flat `Vec<u32>` of domain sizes, so what a walk step
//! reads of the world is the changed variable's cardinality and the labels
//! of its factor neighbours — one cache line of each array for a chain
//! neighbourhood, one more per distant (skip) neighbour — and what it
//! writes, only when the proposal is accepted, is the changed entries.

use crate::error::ModelError;
use crate::variable::{Domain, VariableId};
use fgdb_relational::Value;
use std::sync::Arc;

/// An assignment of every hidden variable to a value of its domain.
#[derive(Clone, Debug)]
pub struct World {
    domains: Vec<Arc<Domain>>,
    /// `domains[v].len()`, flat: the proposer and the kernel ask for a
    /// cardinality every step and should not chase an `Arc` for it.
    cardinalities: Vec<u32>,
    assignment: Vec<u16>,
}

fn cardinality_of(domain: &Domain) -> u32 {
    match u32::try_from(domain.len()) {
        Ok(card) if card <= u32::from(u16::MAX) + 1 => card,
        _ => panic!("domain too large for u16 index"),
    }
}

impl World {
    /// Creates a world with every variable at domain index 0.
    pub fn new(domains: Vec<Arc<Domain>>) -> Self {
        let n = domains.len();
        World {
            cardinalities: domains.iter().map(|d| cardinality_of(d)).collect(),
            domains,
            assignment: vec![0; n],
        }
    }

    /// Adds a variable with the given domain and initial index, returning its id.
    pub fn add_variable(&mut self, domain: Arc<Domain>, initial: usize) -> VariableId {
        assert!(initial < domain.len(), "initial index out of domain");
        // Variable ids are `u32`; a world past 2³² variables is outside what
        // this model size supports.
        let id = VariableId(u32::try_from(self.domains.len()).expect("variable ids fit u32"));
        self.cardinalities.push(cardinality_of(&domain));
        self.domains.push(domain);
        self.assignment.push(initial as u16);
        id
    }

    /// Number of hidden variables.
    pub fn num_variables(&self) -> usize {
        self.assignment.len()
    }

    /// Current domain index of a variable.
    #[inline]
    pub fn get(&self, v: VariableId) -> usize {
        self.assignment[v.index()] as usize
    }

    /// Current value of a variable.
    #[inline]
    pub fn value(&self, v: VariableId) -> &Value {
        self.domains[v.index()].value(self.get(v))
    }

    /// Sets a variable to a domain index, returning the previous index.
    #[inline]
    pub fn set(&mut self, v: VariableId, idx: usize) -> usize {
        debug_assert!(idx < self.cardinality(v));
        let old = self.assignment[v.index()];
        self.assignment[v.index()] = idx as u16;
        old as usize
    }

    /// Sets a variable by value, returning the previous domain index.
    ///
    /// # Errors
    /// Returns [`ModelError::ValueNotInDomain`] when the value is not in the
    /// variable's domain — a malformed proposal must not abort the engine
    /// thread applying it.
    pub fn set_value(&mut self, v: VariableId, value: &Value) -> Result<usize, ModelError> {
        let idx = self.domains[v.index()].index_of(value).ok_or_else(|| {
            ModelError::ValueNotInDomain {
                variable: v,
                value: value.to_string(),
            }
        })?;
        Ok(self.set(v, idx))
    }

    /// Domain of a variable.
    pub fn domain(&self, v: VariableId) -> &Arc<Domain> {
        &self.domains[v.index()]
    }

    /// Number of values in a variable's domain (`domain(v).len()`, read
    /// from a flat array).
    #[inline]
    pub fn cardinality(&self, v: VariableId) -> usize {
        self.cardinalities[v.index()] as usize
    }

    /// Iterates all variable ids.
    pub fn variables(&self) -> impl Iterator<Item = VariableId> {
        // Variable ids are `u32`: a world past 2³² variables has none to give.
        let n = u32::try_from(self.assignment.len()).expect("variable ids fit u32");
        (0..n).map(VariableId)
    }

    /// Raw assignment snapshot (for hashing worlds in tests).
    pub fn assignment(&self) -> &[u16] {
        &self.assignment
    }

    /// Per-variable domains, indexed by `VariableId` — the serialization
    /// accessor the durability layer uses to persist a world. Domains shared
    /// between variables are the same `Arc`, which an encoder can detect by
    /// pointer identity to write each distinct domain once.
    pub fn domains(&self) -> &[Arc<Domain>] {
        &self.domains
    }

    /// Rebuilds a world from persisted parts: per-variable domains plus the
    /// assignment vector. Inverse of ([`World::domains`], [`World::assignment`]).
    ///
    /// # Panics
    /// Panics when the lengths differ, an index falls outside its domain, or
    /// a domain exceeds the `u16` index space — persisted state that fails
    /// these checks is corrupt, and the durability layer validates record
    /// checksums before ever calling this.
    pub fn from_parts(domains: Vec<Arc<Domain>>, assignment: Vec<u16>) -> Self {
        assert_eq!(
            domains.len(),
            assignment.len(),
            "world parts disagree: {} domains vs {} assignments",
            domains.len(),
            assignment.len()
        );
        let cardinalities: Vec<u32> = domains.iter().map(|d| cardinality_of(d)).collect();
        for (&card, &idx) in cardinalities.iter().zip(&assignment) {
            assert!(u32::from(idx) < card, "assignment index out of domain");
        }
        World {
            domains,
            cardinalities,
            assignment,
        }
    }

    /// Restores a previously captured assignment.
    pub fn restore(&mut self, assignment: &[u16]) {
        assert_eq!(assignment.len(), self.assignment.len());
        self.assignment.copy_from_slice(assignment);
    }

    /// Copies the named variables' assignments from `src`, leaving every
    /// other variable untouched — the shard-sync primitive: a sharded
    /// sampler refreshes one shard's slice of a walker's world without
    /// disturbing the walker's own variables.
    ///
    /// # Panics
    /// Panics when the worlds have different variable counts (they must be
    /// views of the same model).
    pub fn copy_assignments_from(&mut self, src: &World, vars: &[VariableId]) {
        assert_eq!(
            self.assignment.len(),
            src.assignment.len(),
            "shard sync between worlds of different size"
        );
        for &v in vars {
            self.assignment[v.index()] = src.assignment[v.index()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bio() -> Arc<Domain> {
        Domain::of_labels(&["O", "B-PER", "I-PER"])
    }

    #[test]
    fn construction_defaults_to_zero() {
        let w = World::new(vec![bio(), bio()]);
        assert_eq!(w.num_variables(), 2);
        assert_eq!(w.get(VariableId(0)), 0);
        assert_eq!(w.value(VariableId(1)).as_str(), Some("O"));
    }

    #[test]
    fn cardinality_is_the_domain_length_however_the_world_was_built() {
        let pair = Domain::of_labels(&["on", "off"]);
        let mut w = World::new(vec![bio(), pair.clone()]);
        w.add_variable(pair, 1);
        let rebuilt = World::from_parts(w.domains().to_vec(), w.assignment().to_vec());
        for world in [&w, &rebuilt] {
            for v in world.variables() {
                assert_eq!(world.cardinality(v), world.domain(v).len());
            }
        }
    }

    #[test]
    fn add_variable_grows_world() {
        let mut w = World::new(vec![]);
        let a = w.add_variable(bio(), 1);
        let b = w.add_variable(bio(), 2);
        assert_eq!(w.num_variables(), 2);
        assert_eq!(w.value(a).as_str(), Some("B-PER"));
        assert_eq!(w.value(b).as_str(), Some("I-PER"));
    }

    #[test]
    fn set_returns_old_index() {
        let mut w = World::new(vec![bio()]);
        let v = VariableId(0);
        assert_eq!(w.set(v, 2), 0);
        assert_eq!(w.set(v, 1), 2);
        assert_eq!(w.get(v), 1);
    }

    #[test]
    fn set_value_resolves_domain_index() {
        let mut w = World::new(vec![bio()]);
        let v = VariableId(0);
        assert_eq!(w.set_value(v, &Value::str("I-PER")), Ok(0));
        assert_eq!(w.get(v), 2);
    }

    #[test]
    fn set_value_rejects_foreign_value_without_panicking() {
        let mut w = World::new(vec![bio()]);
        w.set(VariableId(0), 1);
        let err = w.set_value(VariableId(0), &Value::str("B-ORG"));
        assert_eq!(
            err,
            Err(ModelError::ValueNotInDomain {
                variable: VariableId(0),
                value: "B-ORG".into()
            })
        );
        // The world is untouched by the failed assignment.
        assert_eq!(w.get(VariableId(0)), 1);
    }

    #[test]
    fn snapshot_and_restore() {
        let mut w = World::new(vec![bio(), bio()]);
        w.set(VariableId(0), 1);
        let snap = w.assignment().to_vec();
        w.set(VariableId(0), 2);
        w.set(VariableId(1), 1);
        w.restore(&snap);
        assert_eq!(w.get(VariableId(0)), 1);
        assert_eq!(w.get(VariableId(1)), 0);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut w = World::new(vec![bio(), bio()]);
        w.set(VariableId(0), 2);
        let rebuilt = World::from_parts(w.domains().to_vec(), w.assignment().to_vec());
        assert_eq!(rebuilt.assignment(), w.assignment());
        assert_eq!(rebuilt.value(VariableId(0)), w.value(VariableId(0)));
        // Shared domains stay shared through the accessor.
        assert!(
            Arc::ptr_eq(&rebuilt.domains()[0], &rebuilt.domains()[1])
                == Arc::ptr_eq(&w.domains()[0], &w.domains()[1])
        );
    }

    #[test]
    #[should_panic(expected = "world parts disagree")]
    fn from_parts_rejects_length_mismatch() {
        World::from_parts(vec![bio()], vec![0, 0]);
    }

    #[test]
    fn variables_iterator_covers_all() {
        let w = World::new(vec![bio(), bio(), bio()]);
        let ids: Vec<_> = w.variables().collect();
        assert_eq!(ids, vec![VariableId(0), VariableId(1), VariableId(2)]);
    }
}
