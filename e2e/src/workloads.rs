//! The four workloads: their shapes, set-up, and one repetition of each.
//!
//! Work is fixed, not time: a repetition of an in-process workload rebuilds
//! everything from the seed and runs the same number of intervals, reads
//! and ad hoc passes, so its fingerprint must repeat exactly.

use crate::counting_io::ScratchDir;
use crate::stats;
use crate::sut::{
    self, Conn, Durable, LinkShape, NerCorpus, NerModel, Pdb, Recipe, Registered, Served, StoreIo,
    TwinChain, TwinView,
};
use crate::trace::{NoProbe, Probe};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["views_100k", "walk_500k", "closure_links", "serve_100k"];

/// The closure of the `on` links, maintained by the fixpoint node.
const CLOSURE_SQL: &str = "WITH RECURSIVE R(a, b) AS (\
    SELECT src, dst FROM LINK WHERE state = 'on' \
    UNION SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src WHERE l.state = 'on') \
    SELECT * FROM R";
fn reach_sql(source: i64) -> String {
    format!(
        "WITH RECURSIVE R(a, b) AS (\
         SELECT src, dst FROM LINK WHERE state = 'on' AND src = {source} \
         UNION SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src WHERE l.state = 'on') \
         SELECT * FROM R"
    )
}
const N_ON_SQL: &str = "SELECT COUNT(*) FILTER (WHERE state = 'on') AS n_on FROM LINK";

pub enum Source {
    /// Synthetic NER corpus → skip-chain CRF → TOKEN.
    Ner {
        tokens: usize,
        uniform: bool,
        recipe: Recipe,
    },
    /// `LINK(id, src, dst, state)` under a per-link bias.
    Links(LinkShape),
}

pub struct Spec {
    pub name: &'static str,
    pub source: Source,
    /// Thinning: MH walk-steps per interval.
    pub k: usize,
    /// In-process: intervals, answer-read rounds and ad hoc passes per
    /// repetition. Served: the fixed window instead.
    pub intervals: usize,
    /// Intervals per timed block of the sample phase (divides `intervals`).
    pub block: usize,
    /// Answer-read rounds after every block of the sample phase.
    pub reads_per_block: usize,
    pub adhoc_passes: usize,
    pub served_window: Option<Duration>,
    /// Names of the registered queries (SQL resolved at set-up).
    pub registered: &'static [&'static str],
}

/// Client period on `serve_100k`: one request every 10 ms, closed loop.
pub const CLIENT_PERIOD: Duration = Duration::from_millis(10);

pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let full = !smoke;
    Some(match name {
        "views_100k" => Spec {
            name: "views_100k",
            source: Source::Ner {
                tokens: if full { 100_000 } else { 3_000 },
                uniform: false,
                // The flat posterior gives |Δ| ≈ 18 rows per 100-step
                // interval, so write-back, views and marginals are most of
                // the interval; the trained model gives 1.7 and the walk
                // would dominate here as it does on walk_500k.
                recipe: Recipe::Soft,
            },
            k: 100,
            intervals: if full { 20_000 } else { 300 },
            block: if full { 500 } else { 100 },
            reads_per_block: 5,
            adhoc_passes: if full { 4 } else { 2 },
            served_window: None,
            registered: &["q1", "q2", "q3", "q4"],
        },
        "walk_500k" => Spec {
            name: "walk_500k",
            source: Source::Ner {
                tokens: if full { 500_000 } else { 6_000 },
                uniform: true,
                recipe: Recipe::Trained,
            },
            k: 20_000,
            intervals: if full { 150 } else { 10 },
            block: if full { 10 } else { 5 },
            reads_per_block: 5,
            // One pass costs ~0.7 s: as long as the sample phase.
            adhoc_passes: 2,
            served_window: None,
            registered: &["q2"],
        },
        "closure_links" => Spec {
            name: "closure_links",
            source: Source::Links(LinkShape {
                chains: if full { 12 } else { 4 },
                links: if full { 16 } else { 8 },
            }),
            k: 16,
            intervals: if full { 40 } else { 20 },
            block: 1,
            reads_per_block: 3,
            adhoc_passes: if full { 20 } else { 2 },
            served_window: None,
            registered: &["closure", "n_on"],
        },
        "serve_100k" => Spec {
            name: "serve_100k",
            source: Source::Ner {
                tokens: if full { 100_000 } else { 3_000 },
                uniform: false,
                // The views_100k database.
                recipe: Recipe::Soft,
            },
            k: sut::supervisor_defaults().0,
            intervals: 0,
            block: 1,
            reads_per_block: 0,
            adhoc_passes: 0,
            served_window: Some(Duration::from_millis(if full { 2_000 } else { 600 })),
            registered: &["q1", "q2", "q3", "q4"],
        },
        _ => return None,
    })
}

/// Seconds spent in each set-up phase.
#[derive(Clone, Copy, Default)]
pub struct Phases {
    pub corpus_s: f64,
    pub train_s: f64,
    pub load_s: f64,
    pub burnin_s: f64,
    pub materialize_s: f64,
    pub open_durable_s: f64,
    pub spawn_s: f64,
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The generated inputs of a workload: everything `--seed` decides.
pub struct Inputs {
    pub ner: Option<(NerCorpus, NerModel)>,
    /// (label, SQL): registered queries and the fixed ad hoc list.
    pub registered: Vec<(&'static str, String)>,
    pub adhoc: Vec<(&'static str, String)>,
    /// Executed by the traced run only (too slow or too unsteady to gate).
    pub traced_only: Vec<(&'static str, String)>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64, phases: &mut Phases) -> Result<Inputs, String> {
        match spec.source {
            Source::Ner { tokens, recipe, .. } => {
                let (corpus, s) = timed(|| NerCorpus::generate(tokens, seed));
                phases.corpus_s = s;
                let (model, s) = timed(|| NerModel::build(&corpus, recipe, seed));
                phases.train_s = s;
                let paper = sut::paper_queries();
                let mut adhoc = paper.clone();
                // A point lookup: uses `exec` differently from the scans.
                adhoc.push((
                    "pk",
                    format!(
                        "SELECT string, label FROM TOKEN WHERE tok_id = {}",
                        corpus.num_tokens() / 2
                    ),
                ));
                Ok(Inputs {
                    ner: Some((corpus, model?)),
                    registered: paper
                        .into_iter()
                        .filter(|(n, _)| spec.registered.contains(n))
                        .collect(),
                    adhoc,
                    traced_only: Vec::new(),
                })
            }
            Source::Links(shape) => {
                // Link ids are a permutation of 0..n, so this one exists
                // under every seed (and names a different link each time).
                let mid = shape.chains * shape.links / 2;
                let head = shape.head_of_chain(shape.chains / 2, seed);
                Ok(Inputs {
                    ner: None,
                    registered: vec![
                        ("closure", CLOSURE_SQL.to_string()),
                        ("n_on", N_ON_SQL.to_string()),
                    ],
                    adhoc: vec![
                        // What one node reaches: the recursive executor on
                        // a result of at most `links` rows. Re-executing the
                        // whole closure costs ~0.8 s and, being one long
                        // allocation-heavy piece, read 270–390 ms per list
                        // across ten runs of the same code; it stays a
                        // per-layer metric.
                        ("reach", reach_sql(head)),
                        ("n_on", N_ON_SQL.to_string()),
                        (
                            "pk",
                            format!("SELECT src, dst, state FROM LINK WHERE id = {mid}"),
                        ),
                    ],
                    traced_only: vec![("closure", CLOSURE_SQL.to_string())],
                })
            }
        }
    }

    pub fn uniform(spec: &Spec) -> bool {
        matches!(spec.source, Source::Ner { uniform: true, .. })
    }

    /// Loads the relation, binds the variables, and burns the chain in for
    /// 2 × (variables) MH steps.
    pub fn mount(&self, spec: &Spec, seed: u64, phases: &mut Phases) -> Result<Pdb, String> {
        let chain_seed = chain_seed(seed);
        let (pdb, s) = timed(|| match (&spec.source, &self.ner) {
            (Source::Ner { uniform, .. }, Some((corpus, model))) => {
                Ok(Pdb::mount_ner(corpus, model, *uniform, chain_seed))
            }
            (Source::Links(shape), _) => Pdb::mount_links(*shape, seed),
            _ => Err("NER workload without NER inputs".to_string()),
        });
        phases.load_s = s;
        let mut pdb = pdb?;
        let (burn, s) = timed(|| pdb.step(burn_in(&pdb)));
        phases.burnin_s = s;
        burn?;
        Ok(pdb)
    }

    /// A bare chain in the state `mount` leaves the database's chain in.
    pub fn twin_chain(
        &self,
        spec: &Spec,
        seed: u64,
        variables: usize,
    ) -> Result<TwinChain, String> {
        let mut twin = match &spec.source {
            Source::Links(shape) => TwinChain::links(*shape),
            Source::Ner { uniform, .. } => {
                TwinChain::ner(self.model()?, *uniform, chain_seed(seed))
            }
        };
        twin.walk(2 * variables);
        Ok(twin)
    }

    pub fn model(&self) -> Result<&NerModel, String> {
        self.ner
            .as_ref()
            .map(|(_, m)| m)
            .ok_or_else(|| "served workloads need a NER model".to_string())
    }
}

fn chain_seed(seed: u64) -> u64 {
    seed ^ 0xC4A1
}

fn burn_in(pdb: &Pdb) -> usize {
    2 * pdb.variables()
}

/// What must repeat exactly across repetitions of an in-process workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fingerprint {
    pub steps: u64,
    pub accepted: u64,
    pub delta_rows: u64,
    pub marginal_hash: u64,
}

/// One repetition's timings and bookkeeping. The timed phases are kept in
/// pieces that are the same work in every repetition (block b, round r,
/// query q of pass p — exactly the same in process; on `serve_100k` the
/// same request at the same tick since the sampler was spawned), so a run
/// can take each piece from the repetition that was disturbed least.
#[derive(Default)]
pub struct Rep {
    pub setup_s: f64,
    /// Wall seconds per MH walk-step, for each block of the sample phase
    /// (blocks hold equal steps; the served window is one block).
    pub sample_s_per_step: Vec<f64>,
    /// Per round over the registered queries: time ÷ queries, µs.
    pub answer_round_us: Vec<f64>,
    /// Per ad hoc query in list order, pass after pass, ms.
    pub adhoc_query_ms: Vec<f64>,
    pub adhoc_list_len: usize,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: Option<Fingerprint>,
    /// Failed correctness checks, in words.
    pub errors: Vec<String>,
}

impl Rep {
    pub fn steps_per_s(&self) -> f64 {
        self.sample_s_per_step.len() as f64 / self.sample_s_per_step.iter().sum::<f64>()
    }

    /// Median over rounds.
    pub fn answer_p50_us(&self) -> f64 {
        stats::median(&self.answer_round_us)
    }

    /// Median over passes of (pass time ÷ queries in the list).
    pub fn adhoc_p50_ms(&self) -> f64 {
        stats::median(&group_means(&self.adhoc_query_ms, self.adhoc_list_len))
    }
}

/// Runs `op`, counting it as attempted and, on error, as failed.
fn attempt<T>(rep: &mut Rep, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
    rep.attempted += 1;
    match op() {
        Ok(v) => Some(v),
        Err(e) => {
            rep.failed += 1;
            if rep.errors.len() < 8 {
                rep.errors.push(format!("{what}: {e}"));
            }
            None
        }
    }
}

// ------------------------------------------------------------ in-process ----

/// A mounted in-process workload, ready to sample.
pub struct Mounted {
    pub pdb: Pdb,
    pub regs: Vec<Registered>,
}

/// Standalone twins of the chain and of every registered view, fed the same
/// stream as the real loop (traced runs only).
pub struct Twins {
    pub chain: TwinChain,
    pub views: Vec<TwinView>,
    pub net_changes: u64,
    pub out_rows: u64,
}

pub fn setup_in_process(spec: &Spec, seed: u64) -> Result<(Inputs, Mounted, Phases, f64), String> {
    let t0 = Instant::now();
    let mut phases = Phases::default();
    let inputs = Inputs::generate(spec, seed, &mut phases)?;
    let pdb = inputs.mount(spec, seed, &mut phases)?;
    let (regs, s) = timed(|| {
        inputs
            .registered
            .iter()
            .map(|(_, sql)| pdb.register(sql, spec.k))
            .collect::<Result<Vec<_>, _>>()
    });
    phases.materialize_s = s;
    let mounted = Mounted { pdb, regs: regs? };
    Ok((inputs, mounted, phases, t0.elapsed().as_secs_f64()))
}

pub struct SampleOut {
    /// Wall time of each block of `spec.block` intervals.
    pub block_s: Vec<f64>,
    /// Per read round: time ÷ registered queries, µs.
    pub read_round_us: Vec<f64>,
    pub delta_rows: u64,
}

/// The whole in-process loop, `spec.intervals` times: propose → score →
/// write-back → Δ compaction (`step`), then every registered view and its
/// marginal observation (`observe`). After every block a caller reads the
/// probabilistic answers (`reads_per_block` rounds over the registered
/// queries, timed apart from the block), so answers are read while the
/// tables grow, not once at the end. With a recording probe, the twins
/// replay each interval right after it, outside the interval span.
pub fn sample_phase<P: Probe>(
    spec: &Spec,
    m: &mut Mounted,
    rep: &mut Rep,
    probe: &mut P,
    twins: &mut Option<Twins>,
) -> SampleOut {
    let n_interval = probe.name("interval");
    let n_step = probe.name("pdb.step");
    let n_walk = probe.name("mcmc.walk");
    let n_read = probe.name("marginals.read");
    let per_query: Vec<_> = spec
        .registered
        .iter()
        .map(|q| {
            (
                probe.name(&format!("evaluate.observe.{q}")),
                probe.name(&format!("view.apply.{q}")),
                probe.name(&format!("marginals.record.{q}")),
            )
        })
        .collect();
    let mut delta_rows = 0u64;
    let mut block_s = Vec::with_capacity(spec.intervals / spec.block);
    let mut read_round_us = Vec::new();
    let mut t0 = Instant::now();
    for i in 0..spec.intervals {
        let iv = probe.enter(n_interval, i);
        let s = probe.enter(n_step, i);
        let delta = attempt(rep, "step", || m.pdb.step(spec.k));
        probe.exit(s);
        let Some(delta) = delta else {
            probe.exit(iv);
            continue;
        };
        for (reg, names) in m.regs.iter_mut().zip(&per_query) {
            let s = probe.enter(names.0, i);
            // Not counted as a separate attempt: the interval is the operation.
            if let Err(e) = reg.observe(&delta, m.pdb.database()) {
                rep.failed += 1;
                rep.errors.push(format!("observe: {e}"));
            }
            probe.exit(s);
        }
        probe.exit(iv);
        delta_rows += delta.magnitude() as u64;
        if P::ON {
            if let Some(t) = twins.as_mut() {
                let s = probe.enter(n_walk, i);
                t.net_changes += t.chain.walk(spec.k) as u64;
                probe.exit(s);
                for (view, names) in t.views.iter_mut().zip(&per_query) {
                    let s = probe.enter(names.1, i);
                    match view.apply(&delta) {
                        Ok(rows) => t.out_rows += rows as u64,
                        Err(e) => rep.errors.push(format!("twin view: {e}")),
                    }
                    probe.exit(s);
                    let s = probe.enter(names.2, i);
                    view.record();
                    probe.exit(s);
                }
            }
        }
        if (i + 1) % spec.block == 0 {
            block_s.push(t0.elapsed().as_secs_f64());
            for _ in 0..spec.reads_per_block {
                let t = Instant::now();
                for reg in &m.regs {
                    let s = probe.enter(n_read, i);
                    reg.read_answer();
                    probe.exit(s);
                }
                read_round_us.push(t.elapsed().as_secs_f64() * 1e6 / m.regs.len() as f64);
                rep.attempted += m.regs.len() as u64;
            }
            t0 = Instant::now();
        }
    }
    SampleOut {
        block_s,
        read_round_us,
        delta_rows,
    }
}

/// `passes` passes through the fixed ad hoc list with
/// `ProbabilisticDB::query`; returns each query's time, in ms.
pub fn adhoc_phase(spec: &Spec, inputs: &Inputs, m: &Mounted, rep: &mut Rep) -> Vec<f64> {
    let mut per_query = Vec::with_capacity(spec.adhoc_passes * inputs.adhoc.len());
    for _ in 0..spec.adhoc_passes {
        for (label, sql) in &inputs.adhoc {
            let t0 = Instant::now();
            attempt(rep, label, || m.pdb.query(sql));
            per_query.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    per_query
}

/// The correctness gate of an in-process repetition, untimed: every view
/// equals naive re-execution on the final world, world and store agree.
pub fn check_in_process(m: &Mounted, rep: &mut Rep) {
    for (i, reg) in m.regs.iter().enumerate() {
        match reg.matches_naive(m.pdb.database()) {
            Ok(true) => {}
            Ok(false) => rep.errors.push(format!(
                "registered view #{i} differs from naive re-execution"
            )),
            Err(e) => rep.errors.push(format!("naive re-execution #{i}: {e}")),
        }
    }
    if let Err(e) = m.pdb.check_synchronized() {
        rep.errors.push(format!("check_synchronized: {e}"));
    }
}

pub fn fingerprint(m: &Mounted, delta_rows: u64) -> Fingerprint {
    Fingerprint {
        steps: m.pdb.steps_taken(),
        accepted: m.pdb.proposals_accepted().1,
        delta_rows,
        marginal_hash: m
            .regs
            .iter()
            .fold(0, |acc, r| acc.rotate_left(17) ^ r.marginal_hash()),
    }
}

/// One untraced repetition of an in-process workload, from a full rebuild.
/// `check` runs the naive re-execution gate; the fingerprint ties the
/// repetitions that skip it to the one that ran it.
pub fn run_in_process(spec: &Spec, seed: u64, check: bool) -> Rep {
    let mut rep = Rep::default();
    let (inputs, mut m, _, setup_s) = match setup_in_process(spec, seed) {
        Ok(ready) => ready,
        Err(e) => {
            rep.errors.push(format!("set-up: {e}"));
            return rep;
        }
    };
    rep.setup_s = setup_s;
    let out = sample_phase(spec, &mut m, &mut rep, &mut NoProbe, &mut None);
    let steps_per_block = (spec.block * spec.k) as f64;
    rep.sample_s_per_step = out.block_s.iter().map(|s| s / steps_per_block).collect();
    rep.answer_round_us = out.read_round_us;
    rep.adhoc_query_ms = adhoc_phase(spec, &inputs, &m, &mut rep);
    rep.adhoc_list_len = inputs.adhoc.len();
    if check {
        check_in_process(&m, &mut rep);
    }
    rep.fingerprint = Some(fingerprint(&m, out.delta_rows));
    rep
}

// ---------------------------------------------------------------- served ----

/// The served stack, ready for its client.
pub struct ServedSetup {
    pub served: Served,
    pub conn: Conn,
    pub phases: Phases,
    pub setup_s: f64,
    /// Dropped last: removes the store directory.
    pub scratch: ScratchDir,
}

/// seed → ready to serve: the `views_100k` database, `open_durable` into a
/// fresh store directory, sampler spawn (which compiles and materialises the
/// registered views), server bind, client connect.
pub fn setup_served(
    spec: &Spec,
    inputs_in: Option<Inputs>,
    seed: u64,
    io: Arc<dyn StoreIo>,
) -> Result<(Inputs, ServedSetup), String> {
    let t0 = Instant::now();
    let mut phases = Phases::default();
    let inputs = match inputs_in {
        Some(i) => i,
        None => Inputs::generate(spec, seed, &mut phases)?,
    };
    let pdb = inputs.mount(spec, seed, &mut phases)?;
    let scratch = ScratchDir::new(spec.name).map_err(|e| e.to_string())?;
    let (durable, s) = timed(|| pdb.open_durable(scratch.path(), io));
    phases.open_durable_s = s;
    let durable = durable?;
    let queries: Vec<(&str, &str)> = inputs
        .registered
        .iter()
        .map(|(n, s)| (*n, s.as_str()))
        .collect();
    let (ready, s) = timed(|| {
        let served = Served::spawn(durable, &queries, inputs.model()?, Inputs::uniform(spec))?;
        let conn = served.connect()?;
        Ok::<_, String>((served, conn))
    });
    phases.spawn_s = s;
    let (served, conn) = ready?;
    let setup = ServedSetup {
        served,
        conn,
        phases,
        setup_s: t0.elapsed().as_secs_f64(),
        scratch,
    };
    Ok((inputs, setup))
}

/// What the client saw during one window.
#[derive(Default)]
pub struct WindowOut {
    pub elapsed_s: f64,
    pub steps: u64,
    pub intervals: u64,
    pub epochs: u64,
    /// Per-request latencies in seconds, in send order.
    pub status_s: Vec<f64>,
    pub query_s: Vec<f64>,
    /// live steps − reply's epoch steps, per status reply.
    pub staleness_steps: Vec<f64>,
    pub answer_rows: u64,
    pub epoch_regressions: u64,
}

/// The closed-loop client: one request per 10 ms tick (the next tick after
/// the reply; a missed tick is skipped, not burst), nine `status(name)`
/// then one `query(sql)`, both round-robin.
pub fn serve_window<P: Probe>(
    window: Duration,
    inputs: &Inputs,
    s: &mut ServedSetup,
    rep: &mut Rep,
    probe: &mut P,
) -> WindowOut {
    let n_status = probe.name("wire.status");
    let n_query = probe.name("wire.query");
    let mut out = WindowOut::default();
    let live0 = s.served.live();
    let t0 = Instant::now();
    let (mut tick, mut si, mut qi) = (0usize, 0usize, 0usize);
    let mut last_epoch = 0u64;
    while t0.elapsed() < window {
        let at = if tick % 10 == 9 {
            let (_, sql) = &inputs.adhoc[qi % inputs.adhoc.len()];
            qi += 1;
            let sp = probe.enter(n_query, tick);
            let t = Instant::now();
            let reply = attempt(rep, "query", || s.conn.query(sql));
            out.query_s.push(t.elapsed().as_secs_f64());
            probe.exit(sp);
            reply.map(|r| r.at)
        } else {
            let (name, _) = &inputs.registered[si % inputs.registered.len()];
            si += 1;
            let sp = probe.enter(n_status, tick);
            let t = Instant::now();
            let reply = attempt(rep, "status", || s.conn.status(name));
            out.status_s.push(t.elapsed().as_secs_f64());
            probe.exit(sp);
            reply.map(|r| {
                out.answer_rows += (r.answer_rows + r.marginal_rows) as u64;
                out.staleness_steps
                    .push(s.served.live().steps.saturating_sub(r.at.steps) as f64);
                r.at
            })
        };
        if let Some(at) = at {
            if at.epoch < last_epoch {
                out.epoch_regressions += 1;
            }
            last_epoch = at.epoch;
        }
        tick += 1;
        // Sleep to the next period boundary after now.
        let next = CLIENT_PERIOD * (t0.elapsed().as_nanos() / CLIENT_PERIOD.as_nanos() + 1) as u32;
        if let Some(wait) = next.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
    }
    let live1 = s.served.live();
    out.elapsed_s = t0.elapsed().as_secs_f64();
    out.steps = live1.steps - live0.steps;
    out.intervals = live1.samples - live0.samples;
    out.epochs = live1.epoch - live0.epoch;
    if out.epoch_regressions > 0 {
        rep.errors.push(format!(
            "epoch went backwards {} times on one connection",
            out.epoch_regressions
        ));
    }
    out
}

/// Mean of each full group of `size` consecutive samples.
pub fn group_means(samples: &[f64], size: usize) -> Vec<f64> {
    samples
        .chunks_exact(size.max(1))
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// The served correctness gate: a `PIN` → `status(q)` → `query(q's SQL)`
/// triple agrees on one epoch; then, after `stop()`, recovering the store
/// directory reproduces the chain identity and the four paper answers.
pub fn check_served(
    inputs: &Inputs,
    spec: &Spec,
    mut s: ServedSetup,
    io: Arc<dyn StoreIo>,
    rep: &mut Rep,
) {
    let (name, sql) = &inputs.registered[0];
    let triple = (|| {
        let pinned = s.conn.pin()?;
        let status = s.conn.status(name)?;
        let table = s.conn.query(sql)?;
        s.conn.unpin()?;
        if status.at != pinned || table.at != pinned {
            return Err(format!(
                "pinned {pinned:?}, status at {:?}, query at {:?}",
                status.at, table.at
            ));
        }
        if !status.same_answer(&table) {
            return Err("status answer differs from the query answer on one epoch".into());
        }
        Ok(())
    })();
    rep.attempted += 4;
    if let Err(e) = triple {
        rep.failed += 1;
        rep.errors.push(format!("pin/status/query: {e}"));
    }
    if let Some(e) = s.served.sampler_error() {
        rep.errors.push(format!("sampler error: {e}"));
    }
    drop(s.conn);
    let recovered = (|| {
        let durable = s.served.stop()?;
        durable.check_synchronized()?;
        let before = durable.identity();
        let answers: Vec<_> = sut::paper_queries()
            .iter()
            .map(|(_, sql)| durable.query(sql))
            .collect::<Result<_, _>>()?;
        durable.close()?;
        let (again, _) =
            Durable::recover(s.scratch.path(), io, inputs.model()?, Inputs::uniform(spec))?;
        again.check_synchronized()?;
        if again.identity() != before {
            return Err(format!(
                "recovered {:?}, stopped with {before:?}",
                again.identity()
            ));
        }
        for ((label, sql), want) in sut::paper_queries().iter().zip(&answers) {
            if &again.query(sql)? != want {
                return Err(format!("recovered answer of {label} differs"));
            }
        }
        again.close()
    })();
    if let Err(e) = recovered {
        rep.errors.push(format!("stop/recover: {e}"));
    }
}

/// One untraced repetition of `serve_100k`: fresh store directory, sampler,
/// server and client; a fixed window; then the correctness gate.
pub fn run_served(spec: &Spec, seed: u64) -> Rep {
    let mut rep = Rep::default();
    let io = sut::real_io();
    let (inputs, mut s) = match setup_served(spec, None, seed, Arc::clone(&io)) {
        Ok(ready) => ready,
        Err(e) => {
            rep.errors.push(format!("set-up: {e}"));
            return rep;
        }
    };
    rep.setup_s = s.setup_s;
    let window = spec.served_window.expect("served spec has a window");
    let out = serve_window(window, &inputs, &mut s, &mut rep, &mut NoProbe);
    rep.sample_s_per_step = vec![out.elapsed_s / out.steps.max(1) as f64];
    rep.answer_round_us = group_means(&out.status_s, inputs.registered.len())
        .iter()
        .map(|s| s * 1e6)
        .collect();
    rep.adhoc_query_ms = out.query_s.iter().map(|s| s * 1e3).collect();
    rep.adhoc_list_len = inputs.adhoc.len();
    check_served(&inputs, spec, s, io, &mut rep);
    rep
}

/// One untraced repetition; `first` is true for a run's first repetition.
pub fn run(spec: &Spec, seed: u64, first: bool) -> Rep {
    if spec.served_window.is_some() {
        run_served(spec, seed)
    } else {
        run_in_process(spec, seed, first)
    }
}
