//! Deterministic probabilistic-database fixtures shared by integration
//! tests and benches.
//!
//! The crash-recovery acceptance suite (`crates/core/tests/crash_recovery.rs`)
//! and the `durability` bench binary exercise the same workload — a
//! fig8-style TOKEN relation with an uncertain `label` column under a
//! per-token bias factor graph. Keeping the builder here (rather than
//! copied into each harness) guarantees CI's recovery smoke and the
//! acceptance test stay on the same world as either evolves.

use crate::pdb::{FieldBinding, ProbabilisticDB};
use fgdb_graph::{Domain, FactorGraph, TableFactor, VariableId, World};
use fgdb_mcmc::{DynRng, Proposal, Proposer, UniformRelabel};
use fgdb_relational::{Database, Schema, Tuple, Value, ValueType};
use std::sync::Arc;

/// The BIO-style label set of the fixture's uncertain column.
pub const TOKEN_LABELS: [&str; 4] = ["O", "B-PER", "B-ORG", "B-LOC"];
/// The fixture's tiny vocabulary (includes the ambiguous "Boston" that
/// Query 4 pivots on).
pub const TOKEN_STRINGS: [&str; 6] = ["Bill", "said", "Boston", "Ann", "IBM", "met"];

/// Builds a fig8-style TOKEN probabilistic database: `n_tokens` rows over
/// documents of `doc_size` tokens, every `label` field bound to a hidden
/// variable over [`TOKEN_LABELS`], and one per-token bias factor (weights
/// `[0.4, 0.9, 0.2, 0.0]`) so MH acceptance is non-trivial. Deterministic
/// in `seed`; the proposer is a [`UniformRelabel`] over all variables
/// (stateless, so recovery can re-supply it — see [`crate::durable`]).
pub fn biased_token_pdb(
    n_tokens: usize,
    doc_size: usize,
    seed: u64,
) -> ProbabilisticDB<Arc<FactorGraph>> {
    let schema = Schema::from_pairs(&[
        ("tok_id", ValueType::Int),
        ("doc_id", ValueType::Int),
        ("string", ValueType::Str),
        ("label", ValueType::Str),
        ("truth", ValueType::Str),
    ])
    .unwrap()
    .with_primary_key("tok_id")
    .unwrap();
    let mut db = Database::new();
    db.create_relation("TOKEN", schema).unwrap();
    let rel = db.relation_mut("TOKEN").unwrap();
    // Interned once each, so an insert finds its strings stored already.
    let symbols = |texts: &[&str]| -> Vec<Value> {
        texts.iter().map(|s| Value::str(*s).interned()).collect()
    };
    let (strings, labels, o) = (
        symbols(&TOKEN_STRINGS),
        symbols(&TOKEN_LABELS),
        Value::str("O").interned(),
    );
    let mut rows = Vec::new();
    for i in 0..n_tokens {
        rows.push(
            rel.insert(Tuple::from_iter_values([
                Value::Int(i as i64),
                Value::Int((i / doc_size.max(1)) as i64),
                strings[i % strings.len()].clone(),
                o.clone(),
                labels[i % labels.len()].clone(),
            ]))
            .unwrap(),
        );
    }
    let dom = Domain::of_labels(&TOKEN_LABELS);
    let world = World::new(vec![dom; n_tokens]);
    let mut g = FactorGraph::new();
    for i in 0..n_tokens {
        g.add_factor(Box::new(TableFactor::new(
            vec![VariableId(i as u32)],
            vec![4],
            vec![0.4, 0.9, 0.2, 0.0],
            "bias",
        )));
    }
    let binding = FieldBinding::new(&db, "TOKEN", "label", rows).unwrap();
    ProbabilisticDB::new(
        db,
        Arc::new(g),
        relabel_proposer(n_tokens),
        world,
        binding,
        seed,
    )
    .unwrap()
}

/// A fresh [`UniformRelabel`] proposer over the fixture's `n_tokens`
/// variables — the same proposer [`biased_token_pdb`] installs, for
/// re-supplying at snapshot replication or crash recovery.
pub fn relabel_proposer(n_tokens: usize) -> Box<UniformRelabel> {
    Box::new(UniformRelabel::new(
        (0..n_tokens as u32).map(VariableId).collect(),
    ))
}

/// A relabelling proposer that panics once it has made `left` proposals:
/// the fault a sampler's supervisor must survive or report.
pub struct PanicsAfter {
    /// The proposer it delegates to until then.
    pub inner: Box<UniformRelabel>,
    /// Proposals left before the panic.
    pub left: usize,
}

impl Proposer for PanicsAfter {
    fn propose(&mut self, world: &World, rng: &mut DynRng<'_>, out: &mut Proposal) {
        self.left = self.left.checked_sub(1).expect("injected proposer fault");
        self.inner.propose(world, rng, out)
    }

    fn support(&self) -> &[VariableId] {
        self.inner.support()
    }
}
