//! The supervised sampler: the one thread body behind every
//! [`Sampler`] handle, and the durable host it restarts.
//!
//! The thread body (`supervise`) runs the two-stage serving loop
//! ([`crate::serving`]) over its host until a stop or a fault. The sampler
//! stage makes every host call — an interval, a checkpoint, the final
//! flush — inside one `catch_unwind` and parks its fault where every
//! reader's [`crate::EpochReader::status`] sees it before any epoch queued behind
//! it can publish; the maintainer stage's errors and panics come back
//! through its join. Either way a fault takes the same route:
//!
//! * a **transient storage fault** (WAL append error, failed fsync,
//!   checkpoint I/O error) or a **panic** flips the state to
//!   [`SamplerState::Degraded`] and attempts bounded
//!   restart-from-recovery: re-open the store via
//!   [`ProbabilisticDB::recover_with_io`] (which truncates any torn WAL
//!   tail), verify the recovered state is internally synchronized,
//!   rebuild the registered views, and resume publishing epochs — the
//!   epoch counter keeps rising monotonically across recoveries, so a
//!   pinned pre-fault epoch and a post-recovery epoch are ordered;
//! * an **evaluate or configuration error** is deterministic — retrying
//!   replays the same bug — so the supervisor fails fast to
//!   [`SamplerState::Failed`] without burning restart attempts;
//! * after `max_restarts` restarts in a row that end in a failed
//!   recovery or in a fault before the loop published an epoch, the
//!   supervisor gives up: state [`SamplerState::Failed`], error parked,
//!   thread ends. A published epoch refills the restart budget, so a
//!   sampler that recovers and serves for hours is not one fault away
//!   from giving up because of faults it already survived, while a fault
//!   that recurs on either stage before every publication does give up;
//! * a fault seen once a stop was requested (a failed final flush among
//!   them) is not retried: state [`SamplerState::Failed`], and no terminal
//!   epoch is published ahead of the flush.
//!
//! Restarting is a policy value, not a second loop: the durable host
//! ([`SupervisedSampler`]) recovers through the model factory, while the
//! bare database ([`crate::LiveSampler`]) has nothing to recover from and
//! runs with `max_restarts = 0` — any fault ends in
//! [`SamplerState::Failed`] with the error parked.
//!
//! Throughout every degraded window the already-published epochs remain
//! pinnable and consistent — readers lose *freshness*, never
//! *consistency* — which is what lets `fgdb-serve` answer `Unavailable`
//! with a retry hint instead of hanging or dying.
//!
//! What recovery deliberately resets: the registered views are rebuilt
//! from the recovered world, so full-run marginal averages and the
//! convergence window restart warm-up (the logged chain position
//! preserves the *trajectory*; the serving-layer diagnostics are
//! derived state and rebuild quickly). Durability is unaffected.

use crate::durable::{DurableError, DurablePdb};
use crate::pdb::ProbabilisticDB;
use crate::serving::{
    build_registered, publish_snapshot, serve, start, EpochSnapshot, Host, Registered, Sampler,
    SamplerState, ServingConfig, ServingError, Shared,
};
use fgdb_graph::Model;
use fgdb_mcmc::Proposer;
use fgdb_relational::DeltaSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Supervision knobs on top of the serving loop.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// The serving loop itself (thinning, publication, diagnostics).
    pub serving: ServingConfig,
    /// Consecutive failed recovery attempts before the supervisor gives
    /// up ([`SamplerState::Failed`]). An epoch published after a restart
    /// resets the count.
    pub max_restarts: u32,
    /// Base pause before recovery attempt `n` (the pause is
    /// `restart_backoff_ms × n`, checked against the stop flag every few
    /// milliseconds so shutdown is never blocked on a backoff).
    pub restart_backoff_ms: u64,
    /// Committed intervals between automatic checkpoints; `0` disables
    /// them. A checkpoint under the WAL budget only syncs the WAL, so this
    /// is how often the budget is checked: the WAL grows past its budget
    /// (one base's worth of bytes) by at most this many intervals before a
    /// checkpoint compacts it, which bounds recovery time.
    pub checkpoint_every: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            serving: ServingConfig::default(),
            max_restarts: 3,
            restart_backoff_ms: 25,
            checkpoint_every: 64,
        }
    }
}

/// A model + proposer factory: recovery needs both again (they are code,
/// not data — exactly the [`ProbabilisticDB::recover`] contract).
pub type ModelFactory<M> = Box<dyn Fn() -> (M, Box<dyn Proposer>) + Send>;

/// Rebuilds a host from what survives a fault (for the durable host, the
/// store directory).
pub(crate) type Recover<H> = Box<dyn Fn() -> Result<H, ServingError> + Send>;

/// The supervised sampler: the served loop steps a [`DurablePdb`] —
/// every interval WAL-appended (and group-committed) before it is handed
/// on, so no epoch is published ahead of its log; a checkpoint every
/// `checkpoint_every` intervals; the group-commit tail flushed before the
/// terminal epoch — and survives storage faults by bounded
/// restart-from-recovery. [`Sampler::stop`] hands the durable database
/// back with its tail flushed; after an `Err`, the store directory still
/// holds the last durable state and can be recovered offline.
pub type SupervisedSampler<M> = Sampler<DurablePdb<M>>;

impl<M: Model + 'static> SupervisedSampler<M> {
    /// Validates and registers `queries`, publishes epoch 0 from the
    /// durable database's current state, and starts the supervised loop
    /// on its own thread. `factory` re-supplies the model and proposer at
    /// each recovery.
    pub fn spawn(
        durable: DurablePdb<M>,
        queries: &[(&str, &str)],
        config: SupervisorConfig,
        factory: ModelFactory<M>,
    ) -> Result<Self, ServingError> {
        // Recovery inputs, captured before the store can be lost to a
        // fault: directory, I/O handle, durability config.
        let dir = durable.dir().to_path_buf();
        let (io, dconfig) = (durable.io(), durable.durability_config());
        let recover: Recover<DurablePdb<M>> = Box::new(move || {
            let (model, proposer) = factory();
            let io = Arc::clone(&io);
            Ok(ProbabilisticDB::recover_with_io(io, &dir, model, proposer, dconfig)?.0)
        });
        start(durable, queries, config, recover)
    }
}

impl<M: Model + 'static> Host for DurablePdb<M> {
    type Model = M;

    fn interval(&mut self, k: usize, checkpoint: bool) -> Result<DeltaSet, ServingError> {
        let delta = self.step(k)?;
        if checkpoint {
            self.checkpoint()?;
        }
        Ok(delta)
    }

    fn pdb(&self) -> &ProbabilisticDB<M> {
        DurablePdb::pdb(self)
    }

    fn flush(&mut self) -> Result<(), ServingError> {
        Ok(self.sync()?)
    }
}

/// Whether a fault is worth a restart-from-recovery. Storage faults and
/// panics are (transient media errors, torn state a recovery repairs);
/// evaluate/config errors are deterministic bugs a retry only replays.
fn retryable(e: &ServingError) -> bool {
    match e {
        ServingError::Durable(d) => !matches!(&**d, DurableError::Evaluate(_)),
        ServingError::Panicked(_) => true,
        ServingError::Evaluate(_) | ServingError::Sampler(_) | ServingError::Config(_) => false,
    }
}

/// The sampler thread body, for every host: [`serve`] until a stop or a
/// fault; on a retryable fault, up to `max_restarts` recoveries in a row
/// through `recover`; the lifecycle state readers see throughout.
pub(crate) fn supervise<H: Host>(
    mut host: H,
    mut registered: Vec<Registered>,
    shared: Shared,
    recover: Recover<H>,
) -> Result<H, ServingError> {
    let (stats, config) = (&shared.stats, &shared.config);
    let mut attempt = 0u32;
    loop {
        let resumed_at = shared.cell.load().epoch;
        let fault = match serve(&mut host, &mut registered, &shared) {
            // Orderly shutdown: every interval drawn was published, after
            // the host's flush.
            Ok(()) => {
                stats.set_state(SamplerState::Stopped);
                return Ok(host);
            }
            Err(fault) => fault,
        };
        // An epoch published since the (re)start refills the restart
        // budget: only faults that recur before the loop publishes — on
        // either stage — count as consecutive.
        if shared.cell.load().epoch > resumed_at {
            attempt = 0;
        }
        stats.set_error(Some(fault.clone()));
        // A fault on the way out (the final flush included) is final.
        if !retryable(&fault) || shared.stop.load(Ordering::Acquire) {
            stats.set_state(SamplerState::Failed);
            return Err(fault);
        }
        // The faulted host is dropped (a durable store's drop path flushes
        // best effort; a poisoned WAL refuses further writes anyway). From
        // here until a recovery succeeds, the on-disk directory is the
        // single source of truth — exactly the crash contract.
        drop(host);
        host = loop {
            attempt += 1;
            if attempt > config.max_restarts {
                stats.set_state(SamplerState::Failed);
                return Err(fault);
            }
            stats.set_state(SamplerState::Degraded {
                attempt,
                max_restarts: config.max_restarts,
            });
            if !backoff(&shared, attempt) {
                // Stop requested mid-recovery: there is no live host to
                // hand back, but the directory remains recoverable.
                stats.set_state(SamplerState::Stopped);
                return Err(fault);
            }
            if let Ok(recovered) = shared.caught(&recover) {
                break recovered;
            }
        };
        // Verify, rebuild, publish: a failure past a successful recovery
        // is fatal, not something to serve from.
        match resume(&host, &registered, &shared) {
            Ok(rebuilt) => registered = rebuilt,
            Err(error) => {
                stats.set_error(Some(error.clone()));
                stats.set_state(SamplerState::Failed);
                return Err(error);
            }
        }
        stats.set_error(None);
        stats.set_state(SamplerState::Running);
    }
}

/// Readies a recovered host to serve: checks it agrees with its own store,
/// rebuilds the registered views over it, and publishes its epoch at once
/// — monotonically above every pre-fault epoch, the readers' first signal
/// that service resumed.
fn resume<H: Host>(
    host: &H,
    registered: &[Registered],
    shared: &Shared,
) -> Result<Vec<Registered>, ServingError> {
    let pdb = host.pdb();
    pdb.check_synchronized()
        .map_err(|m| ServingError::Sampler(format!("recovered state failed verification: {m}")))?;
    let queries: Vec<(&str, &str)> = registered.iter().map(|r| (&*r.name, &*r.sql)).collect();
    let mut rebuilt = build_registered(pdb, &queries, &shared.config.serving)?;
    let live = shared.reader().status();
    let at = EpochSnapshot::of(pdb, live.epoch + 1, live.samples);
    let snap = publish_snapshot(&mut rebuilt, &shared.config.serving, at)?;
    shared.cell.store(Arc::new(snap));
    Ok(rebuilt)
}

/// Sleeps `restart_backoff_ms × attempt` (rounded up to 5 ms), polling the
/// stop flag every 5 ms. Returns false when stop was requested.
fn backoff(shared: &Shared, attempt: u32) -> bool {
    let total = shared
        .config
        .restart_backoff_ms
        .saturating_mul(attempt.into());
    for _ in 0..total.div_ceil(5) {
        if shared.stop.load(Ordering::Acquire) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    !shared.stop.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{biased_token_pdb, relabel_proposer, PanicsAfter};
    use fgdb_durability::{
        DurabilityConfig, FaultKind, FaultSchedule, FaultyIo, FsyncPolicy, StoreIo,
    };
    use fgdb_graph::FactorGraph;
    use fgdb_relational::parser::paper_sql;

    const N: usize = 12;

    fn durable_fixture(
        io: Arc<dyn StoreIo>,
        dir: &std::path::Path,
    ) -> (DurablePdb<Arc<FactorGraph>>, ModelFactory<Arc<FactorGraph>>) {
        let pdb = biased_token_pdb(N, 4, 0xFA17);
        let model = Arc::clone(pdb.model());
        let durable = pdb
            .open_durable_with_io(
                io,
                dir,
                DurabilityConfig {
                    fsync: FsyncPolicy::Always,
                },
            )
            .unwrap();
        let factory: ModelFactory<Arc<FactorGraph>> =
            Box::new(move || (Arc::clone(&model), relabel_proposer(N)));
        (durable, factory)
    }

    fn config() -> SupervisorConfig {
        SupervisorConfig {
            serving: ServingConfig {
                thinning: 5,
                publish_every: 2,
                window: 32,
                ..ServingConfig::default()
            },
            max_restarts: 3,
            restart_backoff_ms: 1,
            checkpoint_every: 8,
        }
    }

    #[test]
    fn supervised_sampler_serves_and_stops_cleanly() {
        let dir = fgdb_durability::test_dir("supervise_clean");
        let (durable, factory) = durable_fixture(fgdb_durability::real_io(), &dir);
        let q1 = paper_sql::query1("TOKEN");
        let sampler =
            SupervisedSampler::spawn(durable, &[("q1", q1.as_str())], config(), factory).unwrap();
        let reader = sampler.reader();
        while reader.status().epoch < 2 {
            std::thread::yield_now();
        }
        assert_eq!(reader.status().state, SamplerState::Running);
        let durable = sampler.stop().unwrap();
        assert!(durable.steps_taken() > 0);
        durable.pdb().check_synchronized().unwrap();
        assert_eq!(reader.status().state, SamplerState::Stopped);
        // Everything acknowledged is on disk: a recovery replays to the
        // same world.
        let world = durable.world().assignment().to_vec();
        let model = Arc::clone(durable.pdb().model());
        drop(durable);
        let (recovered, _) = ProbabilisticDB::recover(
            &dir,
            model,
            relabel_proposer(N),
            DurabilityConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered.world().assignment(), &world[..]);
    }

    #[test]
    fn transient_fault_degrades_then_auto_resumes() {
        let dir = fgdb_durability::test_dir("supervise_transient");
        let fio = FaultyIo::new(FaultSchedule::none());
        let io: Arc<dyn StoreIo> = Arc::new(fio.clone());
        let (durable, factory) = durable_fixture(io, &dir);
        let q1 = paper_sql::query1("TOKEN");
        let sampler =
            SupervisedSampler::spawn(durable, &[("q1", q1.as_str())], config(), factory).unwrap();
        let reader = sampler.reader();
        while reader.status().epoch < 1 {
            std::thread::yield_now();
        }
        let pinned = reader.pin();
        let pinned_answer = pinned.query(&paper_sql::query1("TOKEN")).unwrap();
        let epoch_before = pinned.epoch;

        // One transient WAL write failure. The supervisor must degrade,
        // recover, and resume publishing — without outside help.
        fio.inject_now(FaultKind::WriteErr);
        // Batches handed to the maintainer before the fault may still be
        // published after the injection, so wait for the fault itself. At
        // most the batch in the maintainer's hands publishes after it, then
        // the recovery's epoch: a third proves the resumed loop publishes.
        while fio.fired().is_empty() {
            std::thread::yield_now();
        }
        let epoch_at_fire = reader.status().epoch;
        while reader.status().epoch <= epoch_at_fire + 2 {
            assert_ne!(reader.status().state, SamplerState::Failed);
            std::thread::yield_now();
        }
        // Saw new epochs after the fault; state is Running again and the
        // transient error was cleared on resume.
        let status = reader.status();
        assert_eq!(status.state, SamplerState::Running);
        assert!(status.error.is_none(), "recovered error must be cleared");
        // The pre-fault pinned epoch stayed immutable through recovery.
        let again = pinned.query(&paper_sql::query1("TOKEN")).unwrap();
        assert_eq!(
            pinned_answer.rows.sorted_entries(),
            again.rows.sorted_entries()
        );
        assert_eq!(pinned.epoch, epoch_before);
        let durable = sampler.stop().unwrap();
        durable.pdb().check_synchronized().unwrap();
    }

    /// After a fault, every restart steps a healthy interval and then
    /// panics before the loop can publish: the budget is never refilled,
    /// so the supervisor gives up instead of restarting forever.
    #[test]
    fn a_fault_that_recurs_before_every_publication_exhausts_restarts() {
        let dir = fgdb_durability::test_dir("supervise_recurring");
        let fio = FaultyIo::new(FaultSchedule::none());
        let io: Arc<dyn StoreIo> = Arc::new(fio.clone());
        let (durable, _) = durable_fixture(io, &dir);
        let model = Arc::clone(durable.pdb().model());
        let config = config();
        // One interval's proposals and part of the next: never an epoch.
        let left = config.serving.thinning * config.serving.publish_every - 2;
        let factory: ModelFactory<Arc<FactorGraph>> = Box::new(move || {
            let inner = relabel_proposer(N);
            (Arc::clone(&model), Box::new(PanicsAfter { inner, left }))
        });
        let q1 = paper_sql::query1("TOKEN");
        let sampler =
            SupervisedSampler::spawn(durable, &[("q1", q1.as_str())], config, factory).unwrap();
        let reader = sampler.reader();
        while reader.status().epoch < 1 {
            std::thread::yield_now();
        }
        fio.inject_now(FaultKind::WriteErr);
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while reader.status().state != SamplerState::Failed {
            assert!(
                std::time::Instant::now() < deadline,
                "restarted forever: {}",
                reader.status().state
            );
            std::thread::yield_now();
        }
        assert!(matches!(sampler.stop(), Err(ServingError::Panicked(_))));
    }

    #[test]
    fn sticky_crash_exhausts_restarts_and_fails_without_hanging() {
        let dir = fgdb_durability::test_dir("supervise_crash");
        let fio = FaultyIo::new(FaultSchedule::none());
        let io: Arc<dyn StoreIo> = Arc::new(fio.clone());
        let (durable, factory) = durable_fixture(io, &dir);
        let q1 = paper_sql::query1("TOKEN");
        let sampler =
            SupervisedSampler::spawn(durable, &[("q1", q1.as_str())], config(), factory).unwrap();
        let reader = sampler.reader();
        while reader.status().epoch < 1 {
            std::thread::yield_now();
        }
        // A sticky crash: every recovery through this I/O handle fails
        // too, so the supervisor must exhaust its budget and park Failed.
        fio.inject_now(FaultKind::Crash {
            partial_write: true,
        });
        while reader.status().state != SamplerState::Failed {
            std::thread::yield_now();
        }
        let status = reader.status();
        assert!(status.error.is_some(), "terminal error is parked");
        assert!(!status.running);
        // stop() returns promptly with the typed error — no hang.
        let err = match sampler.stop() {
            Ok(_) => panic!("a failed sampler must not stop cleanly"),
            Err(e) => e,
        };
        assert!(matches!(
            err,
            ServingError::Durable(_) | ServingError::Sampler(_)
        ));
        // The directory is still recoverable offline through a fresh
        // handle, with no acknowledged interval lost.
        let pdb = biased_token_pdb(N, 4, 0xFA17);
        let model = Arc::clone(pdb.model());
        drop(pdb);
        let (recovered, _) = ProbabilisticDB::recover(
            &dir,
            model,
            relabel_proposer(N),
            DurabilityConfig::default(),
        )
        .unwrap();
        recovered.pdb().check_synchronized().unwrap();
    }
}
