//! Sharded-sampling acceptance suite.
//!
//! The anchor property: a **single-shard** sharded sampler is bit-for-bit
//! the sequential `ProbabilisticDB::step` path — same net changes, same
//! WAL bytes, same deltas, same stored world, same marginals, same kernel
//! statistics, same RNG stream. Plus N-shard determinism at fixed seeds,
//! shard-map rejection at the `ProbabilisticDB` boundary, and the
//! rejected-interval resync path.

use fgdb_core::{FieldBinding, MarginalTable, ProbabilisticDB, ShardMap};
use fgdb_durability::format::{encode_changes, Enc};
use fgdb_durability::NetChangeRec;
use fgdb_graph::{Domain, FactorGraph, TableFactor, VariableId, World};
use fgdb_mcmc::{DynRng, NetChange, Proposal, Proposer, UniformRelabel};
use fgdb_relational::{Database, Schema, Tuple, Value, ValueType};
use std::ops::Range;
use std::sync::Arc;

const LABELS: [&str; 4] = ["O", "B-PER", "B-ORG", "B-LOC"];
const STRINGS: [&str; 6] = ["Bill", "said", "Boston", "Ann", "IBM", "met"];

/// A TOKEN pdb whose graph has per-token bias factors *and* within-document
/// transition pair factors — so shard maps that split a document are
/// genuinely invalid, unlike the all-unary `fixtures::biased_token_pdb`.
fn chained_token_pdb(
    n_tokens: usize,
    doc_size: usize,
    seed: u64,
) -> ProbabilisticDB<Arc<FactorGraph>> {
    let schema = Schema::from_pairs(&[
        ("tok_id", ValueType::Int),
        ("doc_id", ValueType::Int),
        ("string", ValueType::Str),
        ("label", ValueType::Str),
    ])
    .unwrap()
    .with_primary_key("tok_id")
    .unwrap();
    let mut db = Database::new();
    db.create_relation("TOKEN", schema).unwrap();
    let rel = db.relation_mut("TOKEN").unwrap();
    let mut rows = Vec::new();
    for i in 0..n_tokens {
        rows.push(
            rel.insert(Tuple::from_iter_values([
                Value::Int(i as i64),
                Value::Int((i / doc_size) as i64),
                Value::str(STRINGS[i % STRINGS.len()]),
                Value::str("O"),
            ]))
            .unwrap(),
        );
    }
    let dom = Domain::of_labels(&LABELS);
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
    // Within-document transitions: mild same-label affinity.
    let mut trans = vec![0.0; 16];
    for l in 0..4 {
        trans[l * 4 + l] = 0.3;
    }
    for t in 0..n_tokens.saturating_sub(1) {
        if t / doc_size == (t + 1) / doc_size {
            g.add_factor(Box::new(TableFactor::new(
                vec![VariableId(t as u32), VariableId(t as u32 + 1)],
                vec![4, 4],
                trans.clone(),
                "trans",
            )));
        }
    }
    let binding = FieldBinding::new(&db, "TOKEN", "label", rows).unwrap();
    ProbabilisticDB::new(
        db,
        Arc::new(g),
        Box::new(UniformRelabel::new(
            (0..n_tokens as u32).map(VariableId).collect(),
        )),
        world,
        binding,
        seed,
    )
    .unwrap()
}

fn doc_ranges(n_tokens: usize, doc_size: usize) -> Vec<Range<usize>> {
    (0..n_tokens)
        .step_by(doc_size)
        .map(|s| s..(s + doc_size).min(n_tokens))
        .collect()
}

fn wal_bytes(changes: &[NetChange]) -> Vec<u8> {
    let recs: Vec<NetChangeRec> = changes
        .iter()
        .map(|&(v, old, new)| (v.0, old as u16, new as u16))
        .collect();
    let mut e = Enc::new();
    encode_changes(&mut e, &recs);
    e.into_bytes()
}

const Q1: &str = "SELECT string FROM TOKEN WHERE label = 'B-PER'";

#[test]
fn single_shard_sharded_step_is_bit_for_bit_sequential() {
    let n = 48;
    let mut seq = chained_token_pdb(n, 8, 11);
    let mut sh = chained_token_pdb(n, 8, 11);
    let map = Arc::new(ShardMap::single(n).unwrap());
    let mut sampler = sh
        .sharded_sampler(
            map,
            |_, vars| Box::new(UniformRelabel::new(vars.to_vec())) as Box<dyn Proposer>,
            11,
        )
        .unwrap();

    let mut m_seq = MarginalTable::new();
    let mut m_sh = MarginalTable::new();
    for interval in 0..12 {
        let (d1, c1) = seq.step_logged(25).unwrap();
        let (d2, c2) = sh.step_sharded_logged(&mut sampler, 25).unwrap();
        assert_eq!(c1, c2, "net changes diverged at interval {interval}");
        assert_eq!(
            wal_bytes(&c1),
            wal_bytes(&c2),
            "WAL encoding diverged at interval {interval}"
        );
        assert_eq!(d1.added("TOKEN"), d2.added("TOKEN"));
        assert_eq!(d1.removed("TOKEN"), d2.removed("TOKEN"));
        m_seq.record(&seq.query(Q1).unwrap().rows);
        m_sh.record(&sh.query(Q1).unwrap().rows);
    }

    assert_eq!(seq.world().assignment(), sh.world().assignment());
    assert_eq!(
        seq.world().assignment(),
        sampler.shard_world(0).assignment()
    );
    assert_eq!(seq.kernel_stats(), sampler.stats());
    assert_eq!(seq.steps_taken(), sampler.steps_taken());
    assert_eq!(seq.rng_state(), sampler.shard_rng_state(0));
    assert_eq!(m_seq.probabilities(), m_sh.probabilities());
    seq.check_synchronized().unwrap();
    sh.check_synchronized().unwrap();
}

#[test]
fn multi_shard_fixed_seed_is_deterministic() {
    let run = |seed: u64| {
        let n = 64;
        let mut pdb = chained_token_pdb(n, 8, seed);
        let map = Arc::new(ShardMap::by_contiguous_groups(&doc_ranges(n, 8), 4).unwrap());
        let mut sampler = pdb
            .sharded_sampler(
                map,
                |_, vars| Box::new(UniformRelabel::new(vars.to_vec())) as Box<dyn Proposer>,
                seed,
            )
            .unwrap();
        let mut all_changes = Vec::new();
        let mut marginals = MarginalTable::new();
        for _ in 0..6 {
            let (_, changes) = pdb.step_sharded_logged(&mut sampler, 50).unwrap();
            all_changes.push(changes);
            marginals.record(&pdb.query(Q1).unwrap().rows);
        }
        pdb.check_synchronized().unwrap();
        (
            all_changes,
            pdb.world().assignment().to_vec(),
            sampler.stats(),
            marginals.probabilities(),
        )
    };
    let a = run(21);
    assert_eq!(a, run(21), "same seed must reproduce the sharded run");
    assert_ne!(a.0, run(22).0, "different seeds must diverge");
}

#[test]
fn mid_document_shard_map_is_rejected_at_the_pdb_boundary() {
    let n = 16;
    let pdb = chained_token_pdb(n, 8, 3);
    // Cut one token into the second document: a transition factor spans it.
    let bad: Vec<u32> = (0..n).map(|t| u32::from(t >= 9)).collect();
    let map = Arc::new(ShardMap::from_assignment(bad).unwrap());
    let err = pdb
        .sharded_sampler(
            map,
            |_, vars| Box::new(UniformRelabel::new(vars.to_vec())) as Box<dyn Proposer>,
            0,
        )
        .err()
        .expect("spanning factor must be rejected");
    assert!(err.contains("shard map rejected"), "{err}");
}

/// Always proposes variable 0 → label index 1 ("B-PER", the highest bias
/// weight, so the move from any other label is always accepted).
struct PinZero;
impl Proposer for PinZero {
    fn propose(&mut self, _world: &World, _rng: &mut DynRng<'_>, out: &mut Proposal) {
        out.symmetric([(VariableId(0), 1)]);
    }
    fn support(&self) -> &[VariableId] {
        const V: [VariableId; 1] = [VariableId(0)];
        &V
    }
}

#[test]
fn rejected_interval_resynchronizes_the_sampler() {
    let n = 4;
    let mut pdb = chained_token_pdb(n, 2, 7);
    let map = Arc::new(ShardMap::from_assignment(vec![0, 0, 1, 1]).unwrap());
    let mut sampler = pdb
        .sharded_sampler(
            Arc::clone(&map),
            |s, vars| -> Box<dyn Proposer> {
                if s == 0 {
                    Box::new(PinZero)
                } else {
                    Box::new(UniformRelabel::new(vars.to_vec()))
                }
            },
            7,
        )
        .unwrap();

    // Desynchronize: advance the master world behind the sampler's back
    // (variable 0: "O" → "B-ORG"), as a foreign writer would.
    pdb.apply_logged_interval(&[(VariableId(0), 0, 2)]).unwrap();

    // Shard 0 now deterministically produces (v0, 0→1) from its stale
    // world; the merge point must reject it against the master's index 2.
    let err = pdb.step_sharded_logged(&mut sampler, 3);
    assert!(err.is_err(), "stale-walker batch must be rejected");
    pdb.check_synchronized()
        .expect("rejected interval must not desync world and store");

    // The sampler was resynced: walker worlds match the master, queues
    // are empty, and the next interval goes through cleanly.
    assert_eq!(sampler.queued_batches(), 0);
    for s in 0..2 {
        assert_eq!(
            sampler.shard_world(s).assignment(),
            pdb.world().assignment(),
            "shard {s} not resynced"
        );
    }
    let (_, changes) = pdb.step_sharded_logged(&mut sampler, 3).unwrap();
    assert!(changes.contains(&(VariableId(0), 2, 1)));
    pdb.check_synchronized().unwrap();
}
