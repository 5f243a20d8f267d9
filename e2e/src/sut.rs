//! The system under test, as the harness sees it.
//!
//! This is the only source file that names an `fgdb_*` path (a unit test in
//! `main.rs` enforces it), so an API change in the workspace is absorbed
//! here. It deliberately avoids everything ROADMAP item 3 plans to delete:
//! `ViewBackend`, `materialized_with_backend`, `LiveSampler`,
//! `step_logged`/`step_sharded*` and the `FGDB_VIEW_BACKEND` knob. Views are
//! built with `MaterializedView::new` / `QueryEvaluator::materialized_sql`
//! (the default backend), the served stack is `SupervisedSampler` at
//! `SupervisorConfig::default()`.
//!
//! It also never reads `ViewStats`, `CircuitStats`, `EvalStats`, `ExecStats`
//! or `WireStats` (ROADMAP item 2 replaces them): every count the harness
//! reports comes from public data — `DeltaSet::magnitude`, returned
//! `CountedSet`s, `KernelStats::{proposals, accepted}`, `EpochReader`.

use fgdb_core::{
    build_ner_pdb, ner_proposer, train_ner_model, DurablePdb, EpochReader, FieldBinding,
    MarginalTable, ModelFactory, NerProposerConfig, ProbabilisticDB, QueryEvaluator,
    SupervisedSampler, SupervisorConfig,
};
use fgdb_durability::DurabilityConfig;
pub use fgdb_durability::{real_io, StoreFile, StoreIo};
use fgdb_graph::{Domain, FactorGraph, TableFactor, VariableId, World};
use fgdb_ie::{Corpus, CorpusConfig, Crf, TokenSeqData};
use fgdb_mcmc::{Chain, KernelStats, Proposer, UniformRelabel};
use fgdb_relational::parser::paper_sql;
use fgdb_relational::{
    compile_query, execute, CountedSet, DeltaSet, MaterializedView, Schema, Tuple, Value, ValueType,
};
use fgdb_serve::{Client, Server, ServerConfig};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;

/// The stored world, passed through opaquely (the harness calls nothing on it).
pub use fgdb_relational::Database;
/// A compiled, optimized plan, passed through opaquely.
pub use fgdb_relational::Plan;

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- SQL ----

/// The four paper queries over TOKEN, with the names the metrics use.
pub fn paper_queries() -> Vec<(&'static str, String)> {
    vec![
        ("q1", paper_sql::query1("TOKEN")),
        ("q2", paper_sql::query2("TOKEN")),
        ("q3", paper_sql::query3("TOKEN")),
        ("q4", paper_sql::query4("TOKEN")),
    ]
}

// -------------------------------------------------------------- inputs ----

/// A generated NER corpus (`fgdb_ie` synthetic corpus, ≈ `tokens` tokens).
pub struct NerCorpus(Corpus);

impl NerCorpus {
    pub fn generate(tokens: usize, seed: u64) -> NerCorpus {
        let mut cfg = CorpusConfig::with_total_tokens(tokens);
        cfg.seed = seed;
        NerCorpus(Corpus::generate(&cfg))
    }

    pub fn num_tokens(&self) -> usize {
        self.0.num_tokens()
    }
}

/// How the CRF's weights are obtained.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Recipe {
    Soft,
    Trained,
}

/// A skip-chain CRF, shared between chains and recoveries.
#[derive(Clone)]
pub struct NerModel(Arc<Crf>);

impl NerModel {
    /// `Recipe::Trained`: the repo's standard recipe — moment-matched weights
    /// (`seed_from_truth(·, 2.0)`) sharpened by SampleRank for
    /// min(50 000, 10·tokens) steps. `Recipe::Soft`: moment-matched weights
    /// only (`seed_from_truth(·, 1.0)`), a flatter posterior under which
    /// many more proposals are accepted and deltas are ~10× larger.
    pub fn build(corpus: &NerCorpus, recipe: Recipe, seed: u64) -> Res<NerModel> {
        let data = TokenSeqData::from_corpus(&corpus.0, 8);
        let mut model = Crf::skip_chain(data);
        match recipe {
            Recipe::Soft => model.seed_from_truth(&corpus.0, 1.0),
            Recipe::Trained => {
                model.seed_from_truth(&corpus.0, 2.0);
                let steps = 50_000.min(corpus.0.num_tokens() * 10);
                train_ner_model(&corpus.0, &mut model, steps, seed ^ 0x7a11).map_err(err)?;
            }
        }
        Ok(NerModel(Arc::new(model)))
    }

    fn proposer(&self, uniform: bool) -> Box<dyn Proposer> {
        ner_proposer(self.0.data(), &proposer_config(uniform))
    }
}

/// Paper default (5 documents / 2000 proposals per batch), or uniform
/// relabeling over every variable.
fn proposer_config(uniform: bool) -> NerProposerConfig {
    NerProposerConfig {
        uniform,
        ..NerProposerConfig::default()
    }
}

/// Shape of the `LINK(id, src, dst, state)` relation: `chains` disjoint
/// paths of `links` edges each, every `state` bound to a hidden variable
/// over {on, off} with a per-link bias of `[3.0, 0.0]`.
///
/// The cost of this workload is heavy-tailed in the sampled world: a
/// retraction recomputes the whole closure, whose size swings with how many
/// chains happen to be fully on, and an interval without a retraction is
/// free. A run cannot average that out (measured: ±25 % in ad hoc time and
/// ±12 % in throughput from the seed alone), so the walk is fixed and the
/// seed varies what the relational layers see: the identifiers.
#[derive(Clone, Copy)]
pub struct LinkShape {
    pub chains: usize,
    pub links: usize,
}

impl LinkShape {
    /// The identifier `seed` gives the first node of chain `chain`.
    pub fn head_of_chain(&self, chain: usize, seed: u64) -> i64 {
        permutation(self.chains * (self.links + 1), seed)[chain * (self.links + 1)]
    }
}

const LINK_CHAIN_SEED: u64 = 0xC4A1;

/// A seeded permutation of `0..n` (splitmix64 + Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<i64> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut ids: Vec<i64> = (0..n as i64).collect();
    for i in (1..n).rev() {
        ids.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    ids
}

fn link_model(n: usize) -> Arc<FactorGraph> {
    let mut g = FactorGraph::new();
    for i in 0..n {
        g.add_factor(Box::new(TableFactor::new(
            vec![VariableId(i as u32)],
            vec![2],
            vec![3.0, 0.0],
            "bias",
        )));
    }
    Arc::new(g)
}

fn link_world(n: usize) -> World {
    World::new(vec![Domain::of_labels(&["on", "off"]); n])
}

fn link_proposer(n: usize) -> Box<dyn Proposer> {
    Box::new(UniformRelabel::new((0..n as u32).map(VariableId).collect()))
}

// ----------------------------------------------------------------- pdb ----

/// One interval's compacted Δ⁻/Δ⁺ set.
pub struct Delta(DeltaSet);

impl Delta {
    /// Net changed tuples (removed + added).
    pub fn magnitude(&self) -> usize {
        self.0.magnitude()
    }
}

/// A multiset of answer rows in canonical (sorted) order.
#[derive(PartialEq, Eq, Debug)]
pub struct Rows(Vec<(Tuple, i64)>);

impl Rows {
    fn of(set: &CountedSet) -> Rows {
        Rows(set.sorted_entries())
    }
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// A probabilistic database over one of the two models the workloads use.
pub enum Pdb {
    Token(ProbabilisticDB<Arc<Crf>>),
    Link(ProbabilisticDB<Arc<FactorGraph>>),
}

macro_rules! each {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            Pdb::Token($p) => $body,
            Pdb::Link($p) => $body,
        }
    };
}

impl Pdb {
    /// Loads the corpus as TOKEN and binds every `label` field to a
    /// variable of `model` (`build_ner_pdb`).
    pub fn mount_ner(corpus: &NerCorpus, model: &NerModel, uniform: bool, seed: u64) -> Pdb {
        Pdb::Token(build_ner_pdb(
            &corpus.0,
            Arc::clone(&model.0),
            &proposer_config(uniform),
            seed,
        ))
    }

    /// Builds and binds the LINK relation. Variable `c·links + j` is always
    /// link j of chain c; `seed` only relabels — node ids and link ids are
    /// seeded permutations — and the chain is seeded with a constant, so
    /// every seed walks the same structural trajectory (see `LinkShape`).
    pub fn mount_links(shape: LinkShape, seed: u64) -> Res<Pdb> {
        let n = shape.chains * shape.links;
        let schema = Schema::from_pairs(&[
            ("id", ValueType::Int),
            ("src", ValueType::Int),
            ("dst", ValueType::Int),
            ("state", ValueType::Str),
        ])
        .map_err(err)?
        .with_primary_key("id")
        .map_err(err)?;
        let mut db = Database::new();
        db.create_relation("LINK", schema).map_err(err)?;
        let rel = db.relation_mut("LINK").map_err(err)?;
        let node_ids = permutation(shape.chains * (shape.links + 1), seed);
        let link_ids = permutation(n, seed ^ 0x11);
        let mut rows = Vec::with_capacity(n);
        for c in 0..shape.chains {
            for j in 0..shape.links {
                // Chain c owns nodes c·(links+1) ..= c·(links+1)+links.
                let src = c * (shape.links + 1) + j;
                let row = rel
                    .insert(Tuple::from_iter_values([
                        Value::Int(link_ids[c * shape.links + j]),
                        Value::Int(node_ids[src]),
                        Value::Int(node_ids[src + 1]),
                        Value::str("on"),
                    ]))
                    .map_err(err)?;
                rows.push(row);
            }
        }
        let binding = FieldBinding::new(&db, "LINK", "state", rows)?;
        ProbabilisticDB::new(
            db,
            link_model(n),
            link_proposer(n),
            link_world(n),
            binding,
            LINK_CHAIN_SEED,
        )
        .map(Pdb::Link)
    }

    pub fn variables(&self) -> usize {
        each!(self, p => p.world().num_variables())
    }

    /// `ProbabilisticDB::step`: k walk-steps, write-back, Δ compaction.
    pub fn step(&mut self, k: usize) -> Res<Delta> {
        each!(self, p => p.step(k)).map(Delta).map_err(err)
    }

    pub fn database(&self) -> &Database {
        each!(self, p => p.database())
    }

    /// Registers `sql` as an incrementally maintained view with marginal
    /// bookkeeping (Algorithm 1), thinning `k`.
    pub fn register(&self, sql: &str, k: usize) -> Res<Registered> {
        each!(self, p => QueryEvaluator::materialized_sql(sql, p, k))
            .map(Registered)
            .map_err(err)
    }

    /// `ProbabilisticDB::query`: parse → optimize → one-shot execution.
    pub fn query(&self, sql: &str) -> Res<Rows> {
        each!(self, p => p.query(sql))
            .map(|r| Rows::of(&r.rows))
            .map_err(err)
    }

    pub fn check_synchronized(&self) -> Res<()> {
        each!(self, p => p.check_synchronized())
    }

    pub fn steps_taken(&self) -> u64 {
        each!(self, p => p.steps_taken())
    }

    /// (proposals, accepted) from `KernelStats`.
    pub fn proposals_accepted(&self) -> (u64, u64) {
        let s = each!(self, p => p.kernel_stats());
        (s.proposals, s.accepted)
    }

    /// `Database::snapshot` of the stored world.
    pub fn snapshot_database(&self) -> Database {
        self.database().snapshot()
    }
}

/// `compile_query`: parse, lower, optimize.
pub fn compile(sql: &str, db: &Database) -> Res<Plan> {
    compile_query(sql, db).map_err(err)
}

/// Naive re-execution (`execute(plan, db)`) — the view oracle.
pub fn run_plan(plan: &Plan, db: &Database) -> Res<Rows> {
    execute(plan, db)
        .map(|(r, _)| Rows::of(&r.rows))
        .map_err(err)
}

/// A registered query: maintained view + marginal table (`QueryEvaluator`).
pub struct Registered(QueryEvaluator);

impl Registered {
    /// Folds one interval's delta into the view and records a sample.
    pub fn observe(&mut self, delta: &Delta, db: &Database) -> Res<()> {
        self.0.observe(&delta.0, db).map(|_| ()).map_err(err)
    }

    /// The caller-visible probabilistic answer: tuples with their marginal
    /// probabilities (`marginals().probabilities()`); returns the row count.
    pub fn read_answer(&self) -> usize {
        std::hint::black_box(self.0.marginals().probabilities()).len()
    }

    /// Distinct tuples ever seen in the answer.
    pub fn support_rows(&self) -> usize {
        self.0.marginals().support_size()
    }

    /// The maintained answer equals naive re-execution on `db`.
    pub fn matches_naive(&self, db: &Database) -> Res<bool> {
        let naive = run_plan(self.0.plan(), db)?;
        let view = self.0.current_answer().ok_or("not materialized")?;
        Ok(Rows::of(view) == naive)
    }

    /// Order-independent content hash of the marginal table.
    pub fn marginal_hash(&self) -> u64 {
        let m = self.0.marginals();
        let mut acc = m.samples();
        for (t, p) in m.probabilities() {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            t.to_string().hash(&mut h);
            p.to_bits().hash(&mut h);
            acc = acc.wrapping_mul(0x100_0000_01b3) ^ h.finish();
        }
        acc
    }
}

/// A standalone maintained view plus marginal table, fed the same deltas as
/// the registered query it twins — times the view and marginal layers that
/// are only reachable inside `QueryEvaluator::observe`.
pub struct TwinView {
    view: MaterializedView,
    table: MarginalTable,
}

impl TwinView {
    /// `MaterializedView::new`: circuit compilation + initial materialisation.
    pub fn build(plan: &Plan, db: &Database) -> Res<TwinView> {
        Ok(TwinView {
            view: MaterializedView::new(plan, db).map_err(err)?,
            table: MarginalTable::new(),
        })
    }

    /// `try_apply_delta`; returns the number of output rows that changed.
    pub fn apply(&mut self, delta: &Delta) -> Res<usize> {
        self.view
            .try_apply_delta(&delta.0)
            .map(|out| out.distinct_len())
            .map_err(err)
    }

    /// `MarginalTable::record` of the current answer.
    pub fn record(&mut self) {
        self.table.record(self.view.result());
    }
}

/// A bare `Chain` seeded identically to a mounted database's, so its
/// `run` + `take_changes` time can be subtracted from `step`.
pub enum TwinChain {
    Token(Chain<Arc<Crf>>),
    Link(Chain<Arc<FactorGraph>>),
}

impl TwinChain {
    pub fn ner(model: &NerModel, uniform: bool, seed: u64) -> TwinChain {
        TwinChain::Token(Chain::new(
            Arc::clone(&model.0),
            model.proposer(uniform),
            model.0.new_world(),
            seed,
        ))
    }

    pub fn links(shape: LinkShape) -> TwinChain {
        let n = shape.chains * shape.links;
        TwinChain::Link(Chain::new(
            link_model(n),
            link_proposer(n),
            link_world(n),
            LINK_CHAIN_SEED,
        ))
    }

    /// `Chain::run(k)` then `take_changes()`; returns the net-change count.
    pub fn walk(&mut self, k: usize) -> usize {
        match self {
            TwinChain::Token(c) => {
                c.run(k);
                c.take_changes().len()
            }
            TwinChain::Link(c) => {
                c.run(k);
                c.take_changes().len()
            }
        }
    }
}

// ------------------------------------------------------------- durable ----

/// What a recovered store must reproduce.
#[derive(PartialEq, Eq, Debug)]
pub struct ChainIdentity {
    steps_taken: u64,
    kernel: KernelStats,
}

/// A WAL-backed TOKEN database (`DurablePdb`) at `DurabilityConfig::default()`.
pub struct Durable(DurablePdb<Arc<Crf>>);

impl Pdb {
    /// `open_durable_with_io` at the default durability config (group
    /// commit every 8). Only the TOKEN workloads are served.
    pub fn open_durable(self, dir: &Path, io: Arc<dyn StoreIo>) -> Res<Durable> {
        match self {
            Pdb::Token(p) => p
                .open_durable_with_io(io, dir, DurabilityConfig::default())
                .map(Durable)
                .map_err(err),
            Pdb::Link(_) => Err("LINK databases are not served".into()),
        }
    }
}

impl Durable {
    /// `ProbabilisticDB::recover_with_io`; returns the replayed-interval count.
    pub fn recover(
        dir: &Path,
        io: Arc<dyn StoreIo>,
        model: &NerModel,
        uniform: bool,
    ) -> Res<(Durable, u64)> {
        ProbabilisticDB::recover_with_io(
            io,
            dir,
            Arc::clone(&model.0),
            model.proposer(uniform),
            DurabilityConfig::default(),
        )
        .map(|(d, report)| (Durable(d), report.replayed))
        .map_err(err)
    }

    /// Logged interval: `step` + WAL append + group commit.
    pub fn step(&mut self, k: usize) -> Res<Delta> {
        self.0.step(k).map(Delta).map_err(err)
    }

    pub fn checkpoint(&mut self) -> Res<()> {
        self.0.checkpoint().map_err(err)
    }

    /// Flushes the group-commit tail and dismounts.
    pub fn close(self) -> Res<()> {
        self.0.close().map(|_| ()).map_err(err)
    }

    pub fn database(&self) -> &Database {
        self.0.database()
    }

    pub fn snapshot_database(&self) -> Database {
        self.0.database().snapshot()
    }

    pub fn register(&self, sql: &str, k: usize) -> Res<Registered> {
        QueryEvaluator::materialized_sql(sql, self.0.pdb(), k)
            .map(Registered)
            .map_err(err)
    }

    pub fn query(&self, sql: &str) -> Res<Rows> {
        self.0.query(sql).map(|r| Rows::of(&r.rows)).map_err(err)
    }

    pub fn check_synchronized(&self) -> Res<()> {
        self.0.pdb().check_synchronized()
    }

    pub fn identity(&self) -> ChainIdentity {
        ChainIdentity {
            steps_taken: self.0.steps_taken(),
            kernel: self.0.kernel_stats(),
        }
    }
}

// -------------------------------------------------------------- served ----

/// The served stack at its defaults: `SupervisedSampler` (thinning 100,
/// publish every 8, checkpoint every 64) behind `fgdb_serve::Server` on an
/// ephemeral loopback port.
pub struct Served {
    sampler: SupervisedSampler<Arc<Crf>>,
    server: Server,
    reader: EpochReader,
}

/// (thinning, publish_every, checkpoint_every) of `SupervisorConfig::default()`,
/// for the harness-side replica of the supervised loop.
pub fn supervisor_defaults() -> (usize, usize, usize) {
    let c = SupervisorConfig::default();
    (
        c.serving.thinning,
        c.serving.publish_every,
        c.checkpoint_every,
    )
}

/// Live sampler counters (`EpochReader::status`).
#[derive(Clone, Copy)]
pub struct Live {
    pub epoch: u64,
    pub steps: u64,
    pub samples: u64,
}

impl Served {
    pub fn spawn(
        durable: Durable,
        queries: &[(&str, &str)],
        model: &NerModel,
        uniform: bool,
    ) -> Res<Served> {
        let m = model.clone();
        let factory: ModelFactory<Arc<Crf>> =
            Box::new(move || (Arc::clone(&m.0), m.proposer(uniform)));
        let sampler =
            SupervisedSampler::spawn(durable.0, queries, SupervisorConfig::default(), factory)
                .map_err(err)?;
        let reader = sampler.reader();
        // `ServerConfig::default()` rather than `Server::start`, which
        // reads FGDB_MAX_CONNS / FGDB_RETRY_AFTER_MS from the environment.
        let server = Server::start_with(sampler.reader(), "127.0.0.1:0", ServerConfig::default())
            .map_err(err)?;
        Ok(Served {
            sampler,
            server,
            reader,
        })
    }

    pub fn connect(&self) -> Res<Conn> {
        Client::connect(self.server.addr()).map(Conn).map_err(err)
    }

    pub fn live(&self) -> Live {
        let s = self.reader.status();
        Live {
            epoch: s.epoch,
            steps: s.steps,
            samples: s.samples,
        }
    }

    /// The sampler's parked error, if the loop degraded or died.
    pub fn sampler_error(&self) -> Option<String> {
        self.reader.status().error.map(|e| e.to_string())
    }

    /// `EpochReader::pin`, dropped at once; returns the pinned epoch number.
    pub fn pin_epoch(&self) -> u64 {
        std::hint::black_box(self.reader.pin()).epoch
    }

    /// In-process ad hoc SQL on the freshest epoch (`EpochSnapshot::query`) —
    /// what `Client::query` does minus the wire.
    pub fn query_in_process(&self, sql: &str) -> Res<usize> {
        self.reader
            .pin()
            .query(sql)
            .map(|r| r.rows.distinct_len())
            .map_err(err)
    }

    /// Stops the server (drains workers), then the sampler; hands the
    /// durable database back with its group-commit tail flushed.
    pub fn stop(self) -> Res<Durable> {
        self.server.stop();
        self.sampler.stop().map(Durable).map_err(err)
    }
}

/// One blocking client connection.
pub struct Conn(Client);

/// Epoch provenance of a reply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Epoch {
    pub epoch: u64,
    pub steps: u64,
}

/// A `status(name)` reply: the registered query's current answer and
/// marginal probabilities.
pub struct StatusReply {
    pub at: Epoch,
    pub answer_rows: usize,
    pub marginal_rows: usize,
    answer: Vec<fgdb_serve::WireRow>,
}

/// A `query(sql)` reply.
pub struct TableReply {
    pub at: Epoch,
    rows: Vec<fgdb_serve::WireRow>,
}

impl StatusReply {
    /// The registered answer equals the ad hoc answer row for row.
    pub fn same_answer(&self, table: &TableReply) -> bool {
        self.answer == table.rows
    }
}

impl Conn {
    pub fn ping(&mut self) -> Res<()> {
        self.0.ping().map_err(err)
    }

    pub fn status(&mut self, name: &str) -> Res<StatusReply> {
        let (meta, status) = self.0.status(name).map_err(err)?;
        Ok(StatusReply {
            at: Epoch {
                epoch: meta.epoch,
                steps: meta.steps,
            },
            answer_rows: status.answer.len(),
            marginal_rows: status.marginals.len(),
            answer: status.answer,
        })
    }

    pub fn query(&mut self, sql: &str) -> Res<TableReply> {
        let t = self.0.query(sql).map_err(err)?;
        Ok(TableReply {
            at: Epoch {
                epoch: t.meta.epoch,
                steps: t.meta.steps,
            },
            rows: t.rows,
        })
    }

    pub fn pin(&mut self) -> Res<Epoch> {
        let m = self.0.pin().map_err(err)?;
        Ok(Epoch {
            epoch: m.epoch,
            steps: m.steps,
        })
    }

    pub fn unpin(&mut self) -> Res<()> {
        self.0.unpin().map_err(err)
    }
}
