//! The concurrent serving core: a live MCMC sampler publishing
//! snapshot-isolated, convergence-tagged epochs to concurrent readers.
//!
//! The paper's central operational claim is that a factor-graph
//! probabilistic database *serves queries while inference runs
//! continuously* — the sampler is never paused for a reader and a reader
//! never observes a half-applied thinning interval. This module is that
//! claim as an `fgdb-core` subsystem:
//!
//! * [`LiveSampler::spawn`] moves a [`ProbabilisticDB`] onto a dedicated
//!   sampler thread ([`crate::SupervisedSampler::spawn`] a durable one: both
//!   are one [`Sampler`] handle over one supervised thread body, see
//!   [`crate::supervise`]). The serving loop runs there in two stages: the
//!   *sampler stage* draws thinning intervals ([`ProbabilisticDB::step`])
//!   and every `publish_every` samples hands the batch of their deltas,
//!   with the store as of the last one, to the *maintainer stage*, which
//!   folds each delta into every *registered query*'s materialized view
//!   (Algorithm 1) in order and publishes the batch's [`EpochSnapshot`].
//!   The MH kernel never reads a view, so the maintainer may run on its
//!   own thread while the sampler steps on. Whether it does is measured,
//!   not guessed: with a second core the loop first times both
//!   arrangements on its own intervals and keeps the faster (on one core
//!   the maintainer runs inline).
//! * An epoch is an immutable, internally consistent picture of one
//!   sampled world: a [`Database::snapshot`] plus each registered query's
//!   current answer, full-run marginal estimates, and windowed convergence
//!   diagnostics (split-R̂ / ESS over the last `window` samples). Epochs
//!   are published by swapping an `Arc` behind a brief write lock; they
//!   are never mutated afterwards.
//! * An epoch *is* its predecessor plus a delta, and publishing one costs
//!   accordingly. The snapshot shares every storage chunk and index with
//!   the live store — one pointer bump per chunk, not per row — and the
//!   sampler's later writes copy only the chunks they touch, so an epoch
//!   costs what changed since the last one, and retiring it frees only
//!   what it no longer shares (outside the publication lock).
//! * Per interval, a registered query costs O(|Δanswer|): the view folds
//!   the world delta in, and the marginal table and the diagnostic window
//!   ([`MembershipLog`]) are both driven by the membership crossings of the
//!   view's output delta — neither re-reads the answer. At publication the
//!   diagnostics are computed per toggled tuple from its crossing
//!   positions; no 0/1 trace is materialised.
//! * A published status is its predecessor plus the rows that changed.
//!   Each registered query keeps one ordered, chunk-shared
//!   [`StatusTable`] of `(tuple, answer multiplicity, marginal run)`; a
//!   publication patches the rows the output deltas named since the last
//!   one and hands readers a copy that shares every other chunk. No answer
//!   is cloned and no support is sorted at publication, and readers
//!   walk the rows in tuple order, so a `STATUS` reply sorts nothing
//!   either. What is still proportional to the support is the chunk-pointer
//!   copy (≈1.6K pointers at 100K rows) and, per `STATUS` request, the
//!   encoding of the whole answer.
//! * Readers hold an [`EpochReader`] — a cheap-clone, non-generic handle.
//!   [`EpochReader::pin`] clones the current `Arc` (a briefly held read
//!   lock, never the sampler's own state) and from then on the reader
//!   works against that pinned epoch exclusively: ad-hoc SQL via
//!   [`EpochSnapshot::query`] runs on the epoch's own database copy, so a
//!   long scan costs the sampler nothing and two queries in one pinned
//!   epoch can never observe different worlds (snapshot isolation).
//! * [`Sampler::stop`] is the graceful shutdown: it flags the loop, joins
//!   the thread, and hands the database back (or the error that killed the
//!   loop). A fault — an error or a panic of either stage — is parked
//!   where every reader sees it via [`EpochReader::status`] before any
//!   epoch queued behind it could publish, and the state reads
//!   [`SamplerState::Failed`] once the loop has given up.
//!
//! The design intentionally trades staleness for isolation: a reader sees
//! the world as of its pinned epoch, at most `3 · publish_every` samples
//! behind the live counter (see [`ServingConfig::publish_every`]), tagged
//! with exactly how trustworthy each registered answer is (per-tuple
//! split-R̂ gate, as in the engine's convergence gating).

use crate::evaluate::{EvaluateError, QueryEvaluator};
use crate::membership::MembershipLog;
use crate::pdb::ProbabilisticDB;
use crate::status_table::StatusTable;
use crate::supervise::{supervise, Recover, SupervisorConfig};
use fgdb_graph::Model;
use fgdb_relational::{
    compile_query, execute, CountedSet, Database, DeltaSet, QueryResult, Tuple, Value,
};
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-loop configuration.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Thinning interval k: MH walk-steps per sample.
    pub thinning: usize,
    /// Samples between epoch publications. Staleness bound: the maintainer
    /// stage publishes behind the sampler with one epoch queued and one in
    /// hand, so a running loop's pinned epoch is at most
    /// `3 · publish_every` samples behind the live counter
    /// ([`SamplerStatus::samples`]) read before the pin.
    pub publish_every: usize,
    /// Convergence-diagnostic window: split-R̂ / ESS are computed over the
    /// last `window` samples of each registered tuple's membership trace.
    /// Bounds the sampler's memory regardless of how long it serves.
    pub window: usize,
    /// Per-tuple split-R̂ gate for the `converged` tag (values ≤ 1 disarm
    /// the gate, exactly as in [`crate::EngineConfig`]).
    pub r_hat_threshold: f64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            thinning: 100,
            publish_every: 8,
            window: 256,
            r_hat_threshold: 1.1,
        }
    }
}

/// Errors raised by the serving layer.
///
/// `Clone` (heavy causes are `Arc`-wrapped) so one failure can be parked
/// where every reader's [`EpochReader::status`] sees it *and* returned
/// from [`Sampler::stop`]. Typed variants let callers make retry
/// decisions — a [`ServingError::Durable`] storage fault is the
/// supervisor's cue to attempt restart-from-recovery, while an
/// [`ServingError::Evaluate`] bug or [`ServingError::Config`] mistake is
/// not transient and retrying cannot help.
#[derive(Clone, Debug)]
pub enum ServingError {
    /// Registering a query, building its view, or maintaining it failed.
    Evaluate(Arc<EvaluateError>),
    /// The durable storage engine failed underneath a supervised sampler
    /// (WAL append, checkpoint, or restart-from-recovery).
    Durable(Arc<crate::durable::DurableError>),
    /// The sampler loop died for a non-evaluate reason (thread spawn
    /// failure, supervisor bookkeeping).
    Sampler(String),
    /// The sampler or the maintainer stage panicked; the payload carries
    /// the rendered panic message when it was a string (the common
    /// `panic!`/`unwrap` case).
    Panicked(String),
    /// Degenerate configuration (zero thinning/publish interval/window).
    Config(String),
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::Evaluate(e) => write!(f, "serving evaluate error: {e}"),
            ServingError::Durable(e) => write!(f, "durable store error: {e}"),
            ServingError::Sampler(m) => write!(f, "sampler loop failed: {m}"),
            ServingError::Panicked(m) if m.is_empty() => write!(f, "sampler thread panicked"),
            ServingError::Panicked(m) => write!(f, "sampler thread panicked: {m}"),
            ServingError::Config(m) => write!(f, "invalid serving config: {m}"),
        }
    }
}

impl std::error::Error for ServingError {}

impl From<EvaluateError> for ServingError {
    fn from(e: EvaluateError) -> Self {
        ServingError::Evaluate(Arc::new(e))
    }
}

impl From<crate::durable::DurableError> for ServingError {
    fn from(e: crate::durable::DurableError) -> Self {
        ServingError::Durable(Arc::new(e))
    }
}

/// The text a panic was raised with (`panic!`'s message, `expect`'s
/// argument), as caught by `catch_unwind` or a failed join; empty for a
/// payload of any other type.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// One registered query's status as detached, owned values: the answer
/// as a multiset and the marginals as a sorted list — what a caller
/// holding neither a sampler nor an epoch builds by hand. The wire encoder
/// writes it byte-identically to the [`EpochStatus`] it mirrors.
#[derive(Clone, Debug)]
pub struct QueryStatus {
    /// Registration name (e.g. `"q1"`).
    pub name: Arc<str>,
    /// The registered SQL text.
    pub sql: Arc<str>,
    /// Output column names of the registered plan.
    pub columns: Vec<Arc<str>>,
    /// The epoch world's deterministic answer (the maintained view's
    /// result at publication).
    pub answer: CountedSet,
    /// Full-run MCMC marginal estimates: `(tuple, membership probability)`
    /// sorted by tuple (Eq. 5 running averages since spawn).
    pub marginals: Vec<(Tuple, f64)>,
    /// Worst per-tuple split-R̂ over the diagnostic window.
    pub r_hat: f64,
    /// Smallest per-tuple effective sample size over the window.
    pub min_ess: f64,
    /// Samples in the diagnostic window at publication.
    pub window_len: u64,
    /// True when the window is warm (≥ 16 samples) and every tuple's R̂
    /// passed the configured gate.
    pub converged: bool,
}

/// One registered query's state inside an [`EpochSnapshot`]:
/// convergence-tagged answer and marginal estimates, frozen at
/// publication. The answer and the marginals are one [`StatusTable`]
/// shared chunk-wise with the previous epoch's; both read in tuple order.
#[derive(Clone, Debug)]
pub struct EpochStatus {
    /// Registration name (e.g. `"q1"`).
    pub name: Arc<str>,
    /// The registered SQL text.
    pub sql: Arc<str>,
    /// Output column names of the registered plan.
    pub columns: Arc<[Arc<str>]>,
    /// Answer multiplicities and marginal runs at publication.
    pub table: StatusTable,
    /// Samples the marginals count (the Eq. 5 normalizer `z`).
    pub samples: u64,
    /// Worst per-tuple split-R̂ over the diagnostic window.
    pub r_hat: f64,
    /// Smallest per-tuple effective sample size over the window.
    pub min_ess: f64,
    /// Samples in the diagnostic window at publication.
    pub window_len: u64,
    /// True when the window is warm (≥ 16 samples) and every tuple's R̂
    /// passed the configured gate.
    pub converged: bool,
}

impl EpochStatus {
    /// The epoch world's deterministic answer (the maintained view's
    /// result at publication), `(tuple values, multiplicity)` in tuple
    /// order.
    pub fn answer(&self) -> impl ExactSizeIterator<Item = (&[Value], i64)> {
        self.table.answer()
    }

    /// Full-run MCMC marginal estimates, `(tuple values, membership
    /// probability)` in tuple order (Eq. 5 running averages since spawn).
    pub fn marginals(&self) -> impl ExactSizeIterator<Item = (&[Value], f64)> {
        self.table.marginals(self.samples)
    }
}

/// An immutable, internally consistent picture of one published sampler
/// state: pin it and every read — registered statuses and ad-hoc SQL
/// alike — observes the same world (snapshot isolation by construction:
/// the epoch owns a [`Database::snapshot`], and the live store copies a
/// chunk before its first write to it, so no later interval ever touches
/// what the epoch sees).
#[derive(Debug)]
pub struct EpochSnapshot {
    /// Publication number (0 = the initial pre-sampling epoch).
    pub epoch: u64,
    /// Total MH walk-steps the chain had taken at publication.
    pub steps: u64,
    /// Total samples (thinning intervals) drawn at publication.
    pub samples: u64,
    db: Database,
    queries: Vec<EpochStatus>,
}

impl EpochSnapshot {
    /// Every registered query's status, in registration order.
    pub fn registered(&self) -> &[EpochStatus] {
        &self.queries
    }

    /// One registered query's status by name.
    pub fn status(&self, name: &str) -> Option<&EpochStatus> {
        self.queries.iter().find(|q| &*q.name == name)
    }

    /// Answers ad-hoc SQL against this epoch's pinned world. Runs entirely
    /// on the epoch's own database copy: it cannot block the sampler, and
    /// repeated calls within one pinned epoch always see the same world.
    pub fn query(&self, sql: &str) -> Result<QueryResult, EvaluateError> {
        let plan = compile_query(sql, &self.db)?;
        let (result, _) = execute(&plan, &self.db)?;
        Ok(result)
    }

    /// The pinned deterministic store (read-only).
    pub fn database(&self) -> &Database {
        &self.db
    }
}

/// The swap cell epochs are published through: readers clone the `Arc`
/// under a briefly held read lock, the maintainer stage replaces it under
/// a write lock only at publication instants — never while observing,
/// so readers cannot stall the loop (nor vice versa).
pub(crate) struct EpochCell<T = EpochSnapshot> {
    current: RwLock<Arc<T>>,
}

impl<T> EpochCell<T> {
    pub(crate) fn new(initial: T) -> EpochCell<T> {
        EpochCell {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    pub(crate) fn load(&self) -> Arc<T> {
        // lint:allow(sync, readers hold this only long enough to clone an Arc; never across a query)
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Swaps `snap` in and hands the previous epoch back. The swap is all
    /// that happens under the lock: when no reader pins the previous epoch
    /// the returned `Arc` is its last reference, and its destructor (every
    /// chunk and answer it no longer shares) must not run while `load`
    /// callers wait.
    pub(crate) fn swap(&self, snap: Arc<T>) -> Arc<T> {
        // lint:allow(sync, one pointer swap per publish interval, not per step; readers block for the swap only)
        let mut current = self.current.write().unwrap_or_else(|e| e.into_inner());
        std::mem::replace(&mut *current, snap)
    }

    pub(crate) fn store(&self, snap: Arc<T>) {
        drop(self.swap(snap));
    }
}

/// The sampler lifecycle as readers observe it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplerState {
    /// Stepping and publishing normally.
    Running,
    /// A storage fault or panic stopped stepping and a supervisor is
    /// attempting restart-from-recovery (`attempt` of `max_restarts`).
    /// Already-published epochs stay pinnable and readable throughout —
    /// degradation is about freshness, never about consistency.
    Degraded {
        /// The restart attempt currently underway (1-based).
        attempt: u32,
        /// Attempts the supervisor will make before giving up.
        max_restarts: u32,
    },
    /// Stopped cleanly (graceful shutdown).
    Stopped,
    /// Dead: the loop failed terminally, or every restart attempt was
    /// exhausted. The parked [`SamplerStatus::error`] says why.
    Failed,
}

impl SamplerState {
    /// True while a supervisor is mid-recovery.
    pub fn is_degraded(&self) -> bool {
        matches!(self, SamplerState::Degraded { .. })
    }
}

impl fmt::Display for SamplerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplerState::Running => write!(f, "running"),
            SamplerState::Degraded {
                attempt,
                max_restarts,
            } => write!(f, "degraded (restart {attempt}/{max_restarts})"),
            SamplerState::Stopped => write!(f, "stopped"),
            SamplerState::Failed => write!(f, "failed"),
        }
    }
}

/// Shared sampler counters (updated with relaxed atomics on the hot loop;
/// readers only ever need a monotonic, eventually fresh picture).
pub(crate) struct SharedStats {
    pub(crate) steps: AtomicU64,
    pub(crate) samples: AtomicU64,
    running: AtomicBool,
    state: Mutex<SamplerState>,
    error: Mutex<Option<ServingError>>,
}

impl SharedStats {
    pub(crate) fn new(steps: u64) -> SharedStats {
        SharedStats {
            steps: AtomicU64::new(steps),
            samples: AtomicU64::new(0),
            running: AtomicBool::new(true),
            state: Mutex::new(SamplerState::Running),
            error: Mutex::new(None),
        }
    }

    /// Publishes a lifecycle transition (`running` is kept derived:
    /// true exactly in [`SamplerState::Running`]).
    pub(crate) fn set_state(&self, state: SamplerState) {
        // lint:allow(sync, lifecycle transitions are rare; never taken on the per-step path)
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = state;
        self.running
            .store(state == SamplerState::Running, Ordering::Release);
    }

    pub(crate) fn state(&self) -> SamplerState {
        // lint:allow(sync, reader-side status probe; copies one enum under the lock)
        *self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parks (or clears) the error readers see in their status.
    pub(crate) fn set_error(&self, error: Option<ServingError>) {
        // lint:allow(sync, written only on sampler failure/recovery, never per step)
        *self.error.lock().unwrap_or_else(|e| e.into_inner()) = error;
    }
}

/// A point-in-time picture of the sampler, via [`EpochReader::status`].
#[derive(Clone, Debug)]
pub struct SamplerStatus {
    /// Latest published epoch number.
    pub epoch: u64,
    /// Total MH walk-steps taken (live counter, ahead of the epoch).
    pub steps: u64,
    /// Total samples drawn (live counter).
    pub samples: u64,
    /// True while the sampler loop is stepping normally (equivalent to
    /// `state == SamplerState::Running`, kept for cheap checks).
    pub running: bool,
    /// Lifecycle state, including mid-recovery degradation.
    pub state: SamplerState,
    /// The typed error that degraded or killed the loop. Transient faults
    /// a supervisor recovered from are cleared on resume.
    pub error: Option<ServingError>,
}

/// The cheap-clone reader handle: pin epochs and observe sampler health.
/// Deliberately non-generic (no model parameter) so serving layers can
/// hold it without knowing the model type.
#[derive(Clone)]
pub struct EpochReader {
    cell: Arc<EpochCell>,
    stats: Arc<SharedStats>,
}

impl EpochReader {
    /// Pins the latest published epoch. The returned snapshot is immutable
    /// and stays valid (and consistent) for as long as the reader holds
    /// the `Arc`, regardless of how far the live chain advances.
    pub fn pin(&self) -> Arc<EpochSnapshot> {
        self.cell.load()
    }

    /// Live sampler counters and health. The epoch number is read from
    /// the publication cell itself, so it can never lag behind what a
    /// concurrent [`EpochReader::pin`] returns.
    pub fn status(&self) -> SamplerStatus {
        let state = self.stats.state();
        SamplerStatus {
            epoch: self.cell.load().epoch,
            // lint:allow-start(sync, monotonic counters; `samples` is acquired so an epoch pinned after this read is within the staleness bound of it)
            steps: self.stats.steps.load(Ordering::Relaxed),
            samples: self.stats.samples.load(Ordering::Acquire),
            // lint:allow-end(sync)
            running: state == SamplerState::Running,
            state,
            error: self
                .stats
                .error
                // lint:allow(sync, reader-side status probe; clones a small Option under the lock)
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
        }
    }
}

/// One registered query's live machinery, owned by the maintainer stage.
pub(crate) struct Registered {
    pub(crate) name: Arc<str>,
    pub(crate) sql: Arc<str>,
    columns: Arc<[Arc<str>]>,
    eval: QueryEvaluator,
    traces: MembershipLog,
    /// The status table as of the last publication.
    table: StatusTable,
    /// Tuples the output deltas named since the last publication.
    touched: Vec<Tuple>,
}

impl Registered {
    /// Folds one interval's output delta into the view, the marginals, the
    /// diagnostic window and the rows the next publication patches.
    fn observe(&mut self, delta: &DeltaSet) -> Result<(), EvaluateError> {
        self.eval.observe_delta(delta)?;
        self.traces.record(self.eval.last_crossings());
        let answer_delta = self
            .eval
            .last_answer_delta()
            .ok_or(EvaluateError::NotMaterialized)?;
        self.touched
            .extend(answer_delta.iter().map(|(t, _)| t.clone()));
        Ok(())
    }

    /// This query's status for the next epoch: the table patched with the
    /// touched rows, shared chunk-wise with the last epoch's.
    fn status(&mut self, threshold: f64) -> Result<EpochStatus, EvaluateError> {
        let answer = self
            .eval
            .current_answer()
            .ok_or(EvaluateError::NotMaterialized)?;
        let marginals = self.eval.marginals();
        self.table.patch(&mut self.touched, answer, marginals);
        let (r_hat, min_ess) = self.traces.diagnose();
        let window_len = self.traces.window_len();
        Ok(EpochStatus {
            name: Arc::clone(&self.name),
            sql: Arc::clone(&self.sql),
            columns: Arc::clone(&self.columns),
            table: self.table.clone(),
            samples: marginals.samples(),
            r_hat,
            min_ess,
            window_len,
            converged: threshold > 1.0 && window_len >= 16 && r_hat < threshold,
        })
    }
}

/// The sampler handle, one for every host: owns the sampler thread and
/// hands the host back at [`Sampler::stop`]. Dropping it without `stop`
/// flags and joins the thread (best effort, result discarded).
pub struct Sampler<H> {
    reader: EpochReader,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<H, ServingError>>>,
}

/// The in-memory sampler: the served loop steps a bare
/// [`ProbabilisticDB`]. It has no durability to recover from, so its
/// supervisor restarts nothing: any fault ends in [`SamplerState::Failed`]
/// with the error parked.
pub type LiveSampler<M> = Sampler<ProbabilisticDB<M>>;

/// Rejects degenerate serving knobs.
fn validate_config(config: &ServingConfig) -> Result<(), ServingError> {
    if config.thinning == 0 {
        return Err(ServingError::Config("zero thinning interval".into()));
    }
    if config.publish_every == 0 {
        return Err(ServingError::Config("zero publish interval".into()));
    }
    if config.window < 4 {
        return Err(ServingError::Config(
            "diagnostic window must hold at least 4 samples".into(),
        ));
    }
    Ok(())
}

/// Compiles and materializes every `(name, sql)` pair as an incrementally
/// maintained view over `pdb`, with a fresh diagnostic window seeded from
/// the initial answer.
pub(crate) fn build_registered<M: Model>(
    pdb: &ProbabilisticDB<M>,
    queries: &[(&str, &str)],
    config: &ServingConfig,
) -> Result<Vec<Registered>, ServingError> {
    let mut registered = Vec::with_capacity(queries.len());
    for (name, sql) in queries {
        let plan = compile_query(sql, pdb.database())
            .map_err(|e| ServingError::from(EvaluateError::Query(e)))?;
        let columns = plan
            .output_columns(pdb.database())
            .map_err(|e| ServingError::from(EvaluateError::Exec(e.into())))?;
        let eval = QueryEvaluator::materialized(plan, pdb, config.thinning)?;
        // The initial answer is the window's baseline, not a set of
        // crossings: a tuple present from the first sample on has a
        // constant trace, which the diagnostics never need to see.
        let mut traces = MembershipLog::new(config.window);
        traces.record(&[]);
        let answer = eval
            .current_answer()
            .ok_or(EvaluateError::NotMaterialized)?;
        let table = StatusTable::build(answer, eval.marginals());
        registered.push(Registered {
            name: Arc::from(*name),
            sql: Arc::from(*sql),
            columns: columns.into(),
            eval,
            traces,
            table,
            touched: Vec::new(),
        });
    }
    Ok(registered)
}

impl<M: Model + 'static> LiveSampler<M> {
    /// Validates and registers `queries` (`(name, sql)` pairs, each
    /// becoming an incrementally maintained view), publishes epoch 0 from
    /// the initial world, and starts the sampler loop on its own thread.
    ///
    /// # Errors
    /// [`ServingError::Config`] on degenerate knobs and
    /// [`ServingError::Evaluate`] when a registered query fails to parse,
    /// plan, or materialize — all before any thread is spawned.
    pub fn spawn(
        pdb: ProbabilisticDB<M>,
        queries: &[(&str, &str)],
        config: ServingConfig,
    ) -> Result<Self, ServingError> {
        // No durability, no restarts.
        let policy = SupervisorConfig {
            serving: config,
            max_restarts: 0,
            ..SupervisorConfig::default()
        };
        let recover: Recover<ProbabilisticDB<M>> =
            Box::new(|| Err(ServingError::Sampler("nothing to recover from".into())));
        start(pdb, queries, policy, recover)
    }
}

/// Validates the config, builds the registered views over the host's
/// database, publishes epoch 0 and starts [`supervise`] on its own
/// thread.
pub(crate) fn start<H: Host>(
    host: H,
    queries: &[(&str, &str)],
    config: SupervisorConfig,
    recover: Recover<H>,
) -> Result<Sampler<H>, ServingError> {
    validate_config(&config.serving)?;
    let mut registered = build_registered(host.pdb(), queries, &config.serving)?;
    let epoch0 = EpochSnapshot::of(host.pdb(), 0, 0);
    let epoch0 = publish_snapshot(&mut registered, &config.serving, epoch0)?;
    let steps = host.pdb().steps_taken();
    let shared = Shared::new(config, epoch0, steps);
    let (reader, stop) = (shared.reader(), Arc::clone(&shared.stop));
    let handle = std::thread::Builder::new()
        .name("fgdb-sampler".into())
        .spawn(move || supervise(host, registered, shared, recover))
        .map_err(|e| ServingError::Sampler(format!("spawn failed: {e}")))?;
    Ok(Sampler {
        reader,
        stop,
        handle: Some(handle),
    })
}

impl<H> Sampler<H> {
    /// A reader handle (clone freely; hand to server worker threads).
    pub fn reader(&self) -> EpochReader {
        self.reader.clone()
    }

    /// Graceful shutdown: flags the loop, joins the thread, and returns
    /// the host at its final position (a durable one with its group-commit
    /// tail flushed) — or the error that had already killed the loop.
    /// Every interval drawn is published first: the last epoch a reader
    /// can pin afterwards has seen them all.
    pub fn stop(mut self) -> Result<H, ServingError> {
        self.stop.store(true, Ordering::Release);
        match self.handle.take() {
            None => Err(ServingError::Panicked(String::new())),
            Some(h) => h
                .join()
                .unwrap_or_else(|p| Err(ServingError::Panicked(panic_message(&*p)))),
        }
    }
}

impl<H> Drop for Sampler<H> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl EpochSnapshot {
    /// `pdb` as it stands, as epoch `epoch` after `samples` intervals,
    /// before any registered status is added.
    pub(crate) fn of<M: Model>(pdb: &ProbabilisticDB<M>, epoch: u64, samples: u64) -> Self {
        EpochSnapshot {
            epoch,
            steps: pdb.steps_taken(),
            samples,
            db: pdb.database().snapshot(),
            queries: Vec::new(),
        }
    }
}

/// Completes epoch `snap` with every registered query's status.
pub(crate) fn publish_snapshot(
    registered: &mut [Registered],
    config: &ServingConfig,
    mut snap: EpochSnapshot,
) -> Result<EpochSnapshot, EvaluateError> {
    snap.queries = registered
        .iter_mut()
        .map(|r| r.status(config.r_hat_threshold))
        .collect::<Result<_, _>>()?;
    Ok(snap)
}

/// What the two stages of a served loop and its supervisor share with each
/// other and with the readers: the knobs, the publication cell, the live
/// counters and the stop flag.
pub(crate) struct Shared {
    pub(crate) config: SupervisorConfig,
    pub(crate) cell: Arc<EpochCell>,
    pub(crate) stats: Arc<SharedStats>,
    pub(crate) stop: Arc<AtomicBool>,
}

impl Shared {
    /// Publishes `epoch0` and starts the counters at `steps` walk-steps.
    pub(crate) fn new(config: SupervisorConfig, epoch0: EpochSnapshot, steps: u64) -> Shared {
        Shared {
            config,
            cell: Arc::new(EpochCell::new(epoch0)),
            stats: Arc::new(SharedStats::new(steps)),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    pub(crate) fn reader(&self) -> EpochReader {
        EpochReader {
            cell: Arc::clone(&self.cell),
            stats: Arc::clone(&self.stats),
        }
    }

    /// Publishes `snap` unless a fault is parked: the park and the swap
    /// are ordered by one lock, so no epoch becomes visible after the
    /// fault that ended its loop and no reader takes it for a healthy one.
    /// The retired epoch drops outside both locks.
    fn publish(&self, snap: EpochSnapshot) {
        // lint:allow(sync, once per publication, never per step; held for the pointer swap only)
        let parked = self.stats.error.lock().unwrap_or_else(|e| e.into_inner());
        if parked.is_some() {
            return;
        }
        let retired = self.cell.swap(Arc::new(snap));
        drop(parked);
        drop(retired);
    }

    /// Runs `f` — a host call, an inline maintenance, a recovery — as the
    /// loop's one unwind boundary: a panic becomes
    /// [`ServingError::Panicked`], and a fault is parked at once, before
    /// any epoch queued behind it can publish.
    pub(crate) fn caught<T>(
        &self,
        f: impl FnOnce() -> Result<T, ServingError>,
    ) -> Result<T, ServingError> {
        let result = catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|p| Err(ServingError::Panicked(panic_message(&*p))));
        if let Err(e) = &result {
            self.stats.set_error(Some(e.clone()));
        }
        result
    }
}

/// What a served loop steps: the bare database, or a durable one that logs
/// every interval before it is handed on.
pub(crate) trait Host: Send + 'static {
    /// The factor-graph model the host's database samples.
    type Model: Model;
    /// Draws one thinning interval of `k` walk-steps, then, when asked
    /// (every [`SupervisorConfig::checkpoint_every`] intervals), bounds
    /// recovery time with a checkpoint.
    fn interval(&mut self, k: usize, checkpoint: bool) -> Result<DeltaSet, ServingError>;
    /// The database as the last interval left it.
    fn pdb(&self) -> &ProbabilisticDB<Self::Model>;
    /// Runs once a stop is seen, before the terminal epoch is handed on.
    fn flush(&mut self) -> Result<(), ServingError> {
        Ok(())
    }
}

impl<M: Model + 'static> Host for ProbabilisticDB<M> {
    type Model = M;

    fn interval(&mut self, k: usize, _: bool) -> Result<DeltaSet, ServingError> {
        Ok(self.step(k)?)
    }

    fn pdb(&self) -> &ProbabilisticDB<M> {
        self
    }
}

/// One epoch's hand-off from the sampler stage to the maintainer stage:
/// its intervals' deltas in order, and the epoch as the last one left it.
type Batch = (Vec<DeltaSet>, EpochSnapshot);

/// Intervals each arrangement of the two stages draws per trial.
const TRIAL_INTERVALS: usize = 256;
/// Trials' worth of intervals the faster arrangement draws before the next
/// measurement (readers beside the loop come and go).
const KEPT_TRIALS: usize = 64;

/// The served loop, in two stages: the sampler stage (the calling thread)
/// draws intervals from `host` until a stop, and every `publish_every`
/// hands the maintainer stage one [`Batch`] to observe in order through
/// every registered view and publish. The maintainer runs on its own
/// thread or inline, whichever the loop measures faster (a store whose
/// interval is tens of µs of compute loses more to the hand-off than the
/// overlap saves): with a second core it runs each twice for
/// [`TRIAL_INTERVALS`], alternating, keeps the one with the faster trial
/// [`KEPT_TRIALS`] times as long, and measures again. The chain and every published answer are
/// the one-thread loop's. `Ok` once stopped with every interval drawn
/// published; else the first fault of either stage.
pub(crate) fn serve(
    host: &mut impl Host,
    registered: &mut [Registered],
    shared: &Shared,
) -> Result<(), ServingError> {
    let trials = match std::thread::available_parallelism().map_or(1, NonZeroUsize::get) {
        1 => 0,
        _ => 4,
    };
    let batches = TRIAL_INTERVALS.div_ceil(shared.config.serving.publish_every);
    loop {
        // Each arrangement's faster trial: one fsync stall does not decide.
        let (mut inline, mut threaded) = (Duration::MAX, Duration::MAX);
        for trial in 0..trials {
            let started = Instant::now();
            if segment(host, registered, shared, trial % 2 == 0, batches)? {
                return Ok(());
            }
            let took = started.elapsed();
            match trial % 2 {
                0 => threaded = threaded.min(took),
                _ => inline = inline.min(took),
            }
        }
        let faster = threaded < inline;
        if segment(host, registered, shared, faster, KEPT_TRIALS * batches)? {
            return Ok(());
        }
    }
}

/// Runs the two stages, the maintainer on its own thread or inline, for
/// `batches` hand-offs or until a stop: `Ok(true)` once stopped.
///
/// Staleness, threaded: the sampler starts an interval of batch `b` only
/// after the one-batch queue took `b − 1`, so after the maintainer took
/// `b − 2` and published `b − 3`: the live counter is at most
/// `3 · publish_every` samples ahead (inline, `publish_every`). A
/// maintainer error or panic (caught, as [`ServingError::Panicked`]) ends
/// the segment; a sampler fault abandons the queued epochs.
fn segment(
    host: &mut impl Host,
    registered: &mut [Registered],
    shared: &Shared,
    threaded: bool,
    batches: usize,
) -> Result<bool, ServingError> {
    let maintain = |registered: &mut [Registered], (deltas, snap): Batch| {
        for delta in &deltas {
            for r in registered.iter_mut() {
                r.observe(delta)?;
            }
        }
        shared.publish(publish_snapshot(registered, &shared.config.serving, snap)?);
        Ok(())
    };
    if !threaded {
        return sample(host, shared, batches, |batch| {
            shared.caught(|| maintain(registered, batch))
        });
    }
    let abandon = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Made inside the scope: a panicking sampler stage drops `tx` as
        // it unwinds, which ends the maintainer before the scope joins it.
        let (tx, rx) = std::sync::mpsc::sync_channel::<Batch>(1);
        let abandon = &abandon;
        let maintainer = std::thread::Builder::new()
            .name("fgdb-maintainer".into())
            .spawn_scoped(scope, move || {
                for batch in rx {
                    if abandon.load(Ordering::Acquire) {
                        break;
                    }
                    maintain(registered, batch)?;
                }
                Ok(())
            })
            .map_err(|e| ServingError::Sampler(format!("spawn failed: {e}")))?;
        let sampled = sample(host, shared, batches, |batch| {
            tx.send(batch)
                .map_err(|_| ServingError::Sampler("the maintainer stage ended".into()))
        });
        abandon.store(sampled.is_err(), Ordering::Release);
        drop(tx);
        match maintainer.join() {
            Err(payload) => Err(ServingError::Panicked(panic_message(&*payload))),
            Ok(Err(e)) => Err(e),
            Ok(Ok(())) => sampled,
        }
    })
}

/// The sampler stage of [`segment`]: steps, counts, and hands `batches`
/// completed batches — and at stop, after [`Host::flush`], the partial
/// one — to `hand_off`. Epoch numbers and the sample count continue from
/// the published ones.
fn sample(
    host: &mut impl Host,
    shared: &Shared,
    batches: usize,
    mut hand_off: impl FnMut(Batch) -> Result<(), ServingError>,
) -> Result<bool, ServingError> {
    let every = shared.config.serving.publish_every;
    let every_checkpoint = shared.config.checkpoint_every as u64;
    let live = shared.reader().status();
    let (mut epoch, mut samples, mut handed) = (live.epoch, live.samples, 0);
    let mut deltas = Vec::with_capacity(every);
    loop {
        let stop = shared.stop.load(Ordering::Acquire);
        if stop {
            shared.caught(|| host.flush())?;
        }
        if !deltas.is_empty() && (stop || deltas.len() == every) {
            epoch += 1;
            let snap = EpochSnapshot::of(host.pdb(), epoch, samples);
            hand_off((
                std::mem::replace(&mut deltas, Vec::with_capacity(every)),
                snap,
            ))?;
            handed += 1;
        }
        if stop || handed == batches {
            return Ok(stop);
        }
        samples += 1;
        let checkpoint = every_checkpoint > 0 && samples % every_checkpoint == 0;
        let k = shared.config.serving.thinning;
        deltas.push(shared.caught(|| host.interval(k, checkpoint))?);
        // lint:allow-start(sync, per-interval counter bumps; `samples` is released so a reader that sees it also sees the epochs its bound promises)
        shared
            .stats
            .steps
            .store(host.pdb().steps_taken(), Ordering::Relaxed);
        shared.stats.samples.store(samples, Ordering::Release);
        // lint:allow-end(sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{biased_token_pdb, relabel_proposer, PanicsAfter};
    use fgdb_relational::parser::paper_sql;

    const N: usize = 12;

    /// One interval drawn and observed by every registered query on this
    /// thread, as the maintainer stage observes it.
    fn step_once<M: Model>(
        pdb: &mut ProbabilisticDB<M>,
        registered: &mut [Registered],
        config: &ServingConfig,
    ) -> Result<(), EvaluateError> {
        let delta = pdb.step(config.thinning)?;
        registered.iter_mut().try_for_each(|r| r.observe(&delta))
    }

    fn spawn_fixture(config: ServingConfig) -> LiveSampler<Arc<fgdb_graph::FactorGraph>> {
        let pdb = biased_token_pdb(N, 4, 99);
        let q1 = paper_sql::query1("TOKEN");
        let q2 = paper_sql::query2("TOKEN");
        LiveSampler::spawn(pdb, &[("q1", &q1), ("q2", &q2)], config).unwrap()
    }

    /// An epoch whose destructor reads the cell from another thread, as a
    /// concurrent `pin()` would, and reports what that reader saw.
    struct ObservedEpoch {
        id: u32,
        cell: std::sync::OnceLock<std::sync::Weak<EpochCell<ObservedEpoch>>>,
        report: std::sync::mpsc::Sender<(Option<u32>, JoinHandle<()>)>,
    }

    impl Drop for ObservedEpoch {
        fn drop(&mut self) {
            let Some(cell) = self.cell.get().and_then(std::sync::Weak::upgrade) else {
                return;
            };
            let (tx, rx) = std::sync::mpsc::channel();
            let reader = std::thread::spawn(move || {
                let _ = tx.send(cell.load().id);
            });
            // The timeout is the failure path only: a reader blocked behind
            // the write lock cannot answer until this destructor returns.
            let seen = rx.recv_timeout(std::time::Duration::from_secs(2)).ok();
            let _ = self.report.send((seen, reader));
        }
    }

    #[test]
    fn store_drops_the_previous_epoch_outside_the_write_lock() {
        let (report, reports) = std::sync::mpsc::channel();
        let epoch = |id| ObservedEpoch {
            id,
            cell: std::sync::OnceLock::new(),
            report: report.clone(),
        };
        let cell = Arc::new(EpochCell::new(epoch(0)));
        let _ = cell.load().cell.set(Arc::downgrade(&cell));
        // Nobody pins epoch 0, so `store` holds its last reference.
        cell.store(Arc::new(epoch(1)));
        let (seen, reader) = reports.try_recv().expect("epoch 0 was dropped by store");
        reader.join().unwrap();
        assert_eq!(
            seen,
            Some(1),
            "load() must succeed, and see the new epoch, while the old one is being dropped"
        );
    }

    #[test]
    fn epochs_advance_and_stop_returns_the_db() {
        let sampler = spawn_fixture(ServingConfig {
            thinning: 5,
            publish_every: 2,
            ..ServingConfig::default()
        });
        let reader = sampler.reader();
        let first = reader.pin();
        // Epoch 0 exists before any stepping.
        assert_eq!(first.registered().len(), 2);
        assert!(first.status("q1").is_some());
        assert!(first.status("nope").is_none());
        // Wait until at least two epochs are published.
        while reader.status().epoch < 2 {
            std::thread::yield_now();
        }
        let pinned = reader.pin();
        assert!(pinned.epoch >= 2);
        assert!(pinned.steps >= pinned.samples * 5);
        let pdb = sampler.stop().unwrap();
        assert!(pdb.steps_taken() > 0);
        pdb.check_synchronized().unwrap();
        assert!(!reader.status().running);
        assert!(reader.status().error.is_none());
    }

    /// The publication path itself, stepped on this thread so every pair
    /// is consecutive: an epoch's database shares every storage chunk with
    /// its predecessor's except those a write landed in.
    #[test]
    fn a_published_epoch_shares_all_but_the_written_chunks_with_its_predecessor() {
        const ROWS: usize = 4_096;
        let config = ServingConfig {
            thinning: 8,
            publish_every: 2,
            ..ServingConfig::default()
        };
        let mut pdb = biased_token_pdb(ROWS, 4, 99);
        let q1 = paper_sql::query1("TOKEN");
        let mut registered = build_registered(&pdb, &[("q1", &q1)], &config).unwrap();
        let mut prev =
            publish_snapshot(&mut registered, &config, EpochSnapshot::of(&pdb, 0, 0)).unwrap();
        let mut wrote = 0;
        for epoch in 1..=64u64 {
            for _ in 0..config.publish_every {
                step_once(&mut pdb, &mut registered, &config).unwrap();
            }
            let samples = epoch * config.publish_every as u64;
            let cur = publish_snapshot(
                &mut registered,
                &config,
                EpochSnapshot::of(&pdb, epoch, samples),
            )
            .unwrap();
            let (a, b) = (
                prev.database().relation("TOKEN").unwrap(),
                cur.database().relation("TOKEN").unwrap(),
            );
            let rewritten = a
                .raw_slots()
                .iter()
                .zip(b.raw_slots().iter())
                .filter(|(x, y)| match (x, y) {
                    (Some(x), Some(y)) => x != y,
                    (None, None) => false,
                    _ => true,
                })
                .count();
            assert!(rewritten <= config.thinning * config.publish_every);
            assert!(
                b.chunks_shared_with(a) + rewritten >= b.chunk_count(),
                "epoch {epoch}: {} of {} chunks shared after {rewritten} writes",
                b.chunks_shared_with(a),
                b.chunk_count()
            );
            assert!(b.indexes_shared_with(a), "label writes touch no index");
            wrote += rewritten;
            prev = cur;
        }
        assert!(wrote > 0, "the sampler must have written something");
    }

    /// The publication path stepped on this thread: every registered
    /// status an epoch carries reads exactly what its evaluator holds —
    /// the maintained answer in tuple order, and the marginal table's
    /// probabilities bit for bit.
    #[test]
    fn published_statuses_read_exactly_the_evaluators_answer_and_marginals() {
        let config = ServingConfig {
            thinning: 6,
            publish_every: 3,
            ..ServingConfig::default()
        };
        let mut pdb = biased_token_pdb(300, 4, 17);
        let q1 = paper_sql::query1("TOKEN");
        let q2 = paper_sql::query2("TOKEN");
        let mut registered = build_registered(&pdb, &[("q1", &q1), ("q2", &q2)], &config).unwrap();
        for epoch in 0..40u64 {
            let snap =
                publish_snapshot(&mut registered, &config, EpochSnapshot::of(&pdb, epoch, 0))
                    .unwrap();
            for (status, r) in snap.registered().iter().zip(&registered) {
                let answer: Vec<(Tuple, i64)> = status
                    .answer()
                    .map(|(vs, c)| (Tuple::from_slice(vs), c))
                    .collect();
                let want = r.eval.current_answer().unwrap().sorted_entries();
                assert_eq!(answer, want, "{} at epoch {epoch}", status.name);
                let bits = |xs: Vec<(Tuple, f64)>| -> Vec<(Tuple, u64)> {
                    xs.into_iter().map(|(t, p)| (t, p.to_bits())).collect()
                };
                let marginals = status
                    .marginals()
                    .map(|(vs, p)| (Tuple::from_slice(vs), p))
                    .collect();
                assert_eq!(
                    bits(marginals),
                    bits(r.eval.marginals().probabilities()),
                    "{} at epoch {epoch}",
                    status.name
                );
            }
            for _ in 0..config.publish_every {
                step_once(&mut pdb, &mut registered, &config).unwrap();
            }
        }
    }

    #[test]
    fn pinned_epochs_are_snapshot_isolated() {
        let sampler = spawn_fixture(ServingConfig {
            thinning: 3,
            publish_every: 1,
            ..ServingConfig::default()
        });
        let reader = sampler.reader();
        while reader.status().epoch < 1 {
            std::thread::yield_now();
        }
        let pinned = reader.pin();
        // Repeated ad-hoc queries against a pinned epoch are identical even
        // while the sampler keeps rewriting the live store.
        let q = paper_sql::query1("TOKEN");
        let a = pinned.query(&q).unwrap();
        for _ in 0..20 {
            let b = pinned.query(&q).unwrap();
            assert_eq!(a.rows.sorted_entries(), b.rows.sorted_entries());
        }
        // Label partition: counting every label in the pinned world sums to
        // the relation size — a torn snapshot could not guarantee this.
        let counts = pinned
            .query("SELECT label, COUNT(*) AS n FROM TOKEN GROUP BY label")
            .unwrap();
        let total: i64 = counts
            .rows
            .sorted_entries()
            .iter()
            .map(|(t, _)| match t.values().get(1) {
                Some(fgdb_relational::Value::Int(n)) => *n,
                other => panic!("count column must be Int, got {other:?}"),
            })
            .sum();
        assert_eq!(total, N as i64);
        sampler.stop().unwrap();
    }

    #[test]
    fn registered_statuses_carry_convergence_tags() {
        let sampler = spawn_fixture(ServingConfig {
            thinning: 4,
            publish_every: 4,
            window: 64,
            r_hat_threshold: 1.5,
        });
        let reader = sampler.reader();
        while reader.status().samples < 40 {
            std::thread::yield_now();
        }
        let pinned = reader.pin();
        for status in pinned.registered() {
            assert!(status.r_hat.is_finite());
            assert!(status.min_ess >= 0.0);
            assert!(status.window_len <= 64);
            for (_, p) in status.marginals() {
                assert!((0.0..=1.0).contains(&p));
            }
            assert!(!status.columns.is_empty());
        }
        // q2 (the COUNT query) always has exactly one answer row.
        let q2 = pinned.status("q2").unwrap();
        assert_eq!(q2.answer().len(), 1);
        sampler.stop().unwrap();
    }

    /// Steps `pdb`, but hands the maintainer `bad` as its `at`-th interval.
    struct Faulty<M> {
        pdb: ProbabilisticDB<M>,
        at: u64,
        bad: DeltaSet,
        drawn: u64,
    }

    impl<M: Model + 'static> Host for Faulty<M> {
        type Model = M;

        fn interval(&mut self, k: usize, _: bool) -> Result<DeltaSet, ServingError> {
            let delta = self.pdb.step(k)?;
            self.drawn += 1;
            Ok(match self.drawn == self.at {
                true => self.bad.clone(),
                false => delta,
            })
        }

        fn pdb(&self) -> &ProbabilisticDB<M> {
            &self.pdb
        }
    }

    /// A maintainer error, or panic, ends either arrangement of the two
    /// stages with that fault, and the batch that raised it is never
    /// published.
    #[test]
    fn a_maintainer_fault_ends_either_arrangement_with_its_error() {
        let token: Arc<str> = Arc::from("TOKEN");
        let mut never_inserted = DeltaSet::new();
        never_inserted.record_delete(
            &token,
            Tuple::from_iter_values([
                Value::Int(999),
                Value::Int(0),
                Value::str("nobody"),
                Value::str("B-PER"),
                Value::str("O"),
            ]),
        );
        let mut misshapen = DeltaSet::new();
        misshapen.record_insert(&token, Tuple::from_iter_values([Value::Int(999)]));
        let config = ServingConfig {
            thinning: 5,
            publish_every: 2,
            ..ServingConfig::default()
        };
        // A DISTINCT view checks that no retraction drives a row negative.
        let sql = "SELECT DISTINCT string FROM TOKEN WHERE label = 'B-PER'";
        for threaded in [false, true] {
            for (bad, panics) in [(&never_inserted, false), (&misshapen, true)] {
                let pdb = biased_token_pdb(N, 4, 99);
                let mut registered = build_registered(&pdb, &[("names", sql)], &config).unwrap();
                let epoch0 =
                    publish_snapshot(&mut registered, &config, EpochSnapshot::of(&pdb, 0, 0))
                        .unwrap();
                let policy = SupervisorConfig {
                    serving: config.clone(),
                    ..SupervisorConfig::default()
                };
                let shared = Shared::new(policy, epoch0, 0);
                let mut host = Faulty {
                    pdb,
                    at: 5,
                    bad: bad.clone(),
                    drawn: 0,
                };
                let err = segment(&mut host, &mut registered, &shared, threaded, 8)
                    .expect_err("the bad interval must fault");
                assert_eq!(
                    matches!(err, ServingError::Panicked(_)),
                    panics,
                    "threaded {threaded}: {err}"
                );
                assert!(panics || matches!(err, ServingError::Evaluate(_)), "{err}");
                assert_eq!(shared.cell.load().epoch, 2, "threaded {threaded}");
            }
        }
    }

    /// A publication and a parked fault take one lock, so once a fault
    /// is parked no epoch publishes — not even one the maintainer held.
    #[test]
    fn no_epoch_publishes_once_a_fault_is_parked() {
        let pdb = biased_token_pdb(N, 4, 99);
        let shared = Shared::new(
            SupervisorConfig::default(),
            EpochSnapshot::of(&pdb, 0, 0),
            0,
        );
        shared.publish(EpochSnapshot::of(&pdb, 1, 1));
        assert_eq!(shared.cell.load().epoch, 1);
        let fault = shared.caught::<()>(|| Err(ServingError::Sampler("fault".into())));
        assert!(fault.is_err() && shared.reader().status().error.is_some());
        shared.publish(EpochSnapshot::of(&pdb, 2, 2));
        assert_eq!(shared.cell.load().epoch, 1, "published after the park");
    }

    /// The bare database has nothing to recover from: a panicking
    /// proposer ends its sampler in `Failed` with the panic parked, no
    /// epoch publishes once the fault is parked, and `stop` returns it.
    #[test]
    fn an_in_memory_sampler_that_panics_reads_as_failed() {
        let config = ServingConfig {
            thinning: 5,
            publish_every: 2,
            ..ServingConfig::default()
        };
        // Some epochs publish first, then the proposer panics mid-interval.
        let proposer = Box::new(PanicsAfter {
            inner: relabel_proposer(N),
            left: 20 * config.thinning * config.publish_every + 3,
        });
        let pdb = biased_token_pdb(N, 4, 99).snapshot(proposer, 7);
        let q1 = paper_sql::query1("TOKEN");
        let sampler = LiveSampler::spawn(pdb, &[("q1", &q1)], config).unwrap();
        let reader = sampler.reader();
        let deadline = Instant::now() + Duration::from_secs(30);
        while reader.status().error.is_none() {
            assert!(Instant::now() < deadline, "the panic was never parked");
            std::thread::yield_now();
        }
        // Pinned after the park was seen: every epoch published before it.
        let parked_at = reader.pin().epoch;
        assert!(parked_at > 0, "epochs published before the fault");
        while reader.status().state != SamplerState::Failed {
            let state = reader.status().state;
            assert!(Instant::now() < deadline, "state stayed {state}");
            std::thread::yield_now();
        }
        let status = reader.status();
        assert!(!status.running);
        assert!(matches!(status.error, Some(ServingError::Panicked(_))));
        assert_eq!(status.epoch, parked_at, "published after the fault");
        match sampler.stop() {
            Err(ServingError::Panicked(m)) => assert!(m.contains("injected"), "{m}"),
            Err(e) => panic!("stop returned {e}"),
            Ok(_) => panic!("a panicked sampler must not stop cleanly"),
        }
    }

    #[test]
    fn degenerate_configs_and_bad_sql_fail_at_spawn() {
        let pdb = biased_token_pdb(4, 2, 1);
        let bad = ServingConfig {
            thinning: 0,
            ..ServingConfig::default()
        };
        assert!(matches!(
            LiveSampler::spawn(pdb, &[], bad),
            Err(ServingError::Config(_))
        ));
        let pdb = biased_token_pdb(4, 2, 1);
        let err = LiveSampler::spawn(
            pdb,
            &[("bad", "SELECT nope FROM ☃")],
            ServingConfig::default(),
        );
        assert!(matches!(err, Err(ServingError::Evaluate(_))));
    }

    #[test]
    fn no_registered_query_still_honours_thinning_and_counts_samples() {
        let pdb = biased_token_pdb(N, 4, 5);
        let sampler = LiveSampler::spawn(
            pdb,
            &[],
            ServingConfig {
                thinning: 7,
                publish_every: 2,
                ..ServingConfig::default()
            },
        )
        .unwrap();
        let reader = sampler.reader();
        while reader.status().epoch < 3 {
            std::thread::yield_now();
        }
        let pinned = reader.pin();
        assert!(pinned.samples >= 6, "samples stuck at {}", pinned.samples);
        assert_eq!(pinned.steps, pinned.samples * 7);
        let pdb = sampler.stop().unwrap();
        let last = reader.pin();
        assert_eq!(last.steps, pdb.steps_taken());
        assert_eq!(last.steps, last.samples * 7);
        assert_eq!(reader.status().samples, last.samples);
    }
}
