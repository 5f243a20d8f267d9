//! The supervised durable sampler: the two-stage serving loop of
//! [`crate::LiveSampler`] (the same driver) stepped through a
//! [`DurablePdb`] under a supervisor that survives storage faults and
//! panics by restart-from-recovery.
//!
//! The supervisor thread is the sampler stage: its host runs
//! [`DurablePdb::step`] (every interval WAL-appended, and group-committed,
//! before it is handed on — so an epoch is never published ahead of its
//! log), the checkpoint cadence and, at stop, the final flush before the
//! terminal epoch, each inside `catch_unwind`. The maintainer stage
//! observes and publishes behind it (or inline); its errors and panics
//! come back through its join. Either way a fault takes the same route:
//!
//! * a **transient storage fault** (WAL append error, failed fsync,
//!   checkpoint I/O error) or a **panic** parks the typed error where
//!   every reader's [`EpochReader::status`] sees it, flips the state to
//!   [`SamplerState::Degraded`], and attempts bounded
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
    build_registered, publish_snapshot, serve, validate_config, EpochReader, EpochSnapshot, Host,
    Registered, SamplerState, ServingConfig, ServingError, Shared,
};
use fgdb_durability::{DurabilityConfig, StoreIo};
use fgdb_graph::Model;
use fgdb_mcmc::Proposer;
use fgdb_relational::DeltaSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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

/// The supervised sampler handle: like [`crate::LiveSampler`], but the
/// loop steps a [`DurablePdb`] and survives storage faults by bounded
/// restart-from-recovery.
pub struct SupervisedSampler<M> {
    reader: EpochReader,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<DurablePdb<M>, ServingError>>>,
}

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
        validate_config(&config.serving)?;
        let mut registered = build_registered(durable.pdb(), queries, &config.serving)?;
        let epoch0 = publish_snapshot(
            &mut registered,
            &config.serving,
            EpochSnapshot::of(durable.pdb(), 0, 0),
        )?;
        let shared = Shared::new(config.serving.clone(), epoch0, durable.steps_taken());
        let reader = shared.reader();
        let stop = Arc::clone(&shared.stop);

        let owned: Vec<(String, String)> = queries
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect();
        let handle = std::thread::Builder::new()
            .name("fgdb-supervised-sampler".into())
            .spawn(move || {
                Supervisor {
                    queries: owned,
                    config,
                    shared,
                    factory,
                }
                .run(durable, registered)
            })
            .map_err(|e| ServingError::Sampler(format!("spawn failed: {e}")))?;

        Ok(SupervisedSampler {
            reader,
            stop,
            handle: Some(handle),
        })
    }

    /// A reader handle (clone freely; hand to server worker threads).
    pub fn reader(&self) -> EpochReader {
        self.reader.clone()
    }

    /// Graceful shutdown: flags the loop, joins the thread, and returns
    /// the durable database with its group-commit tail flushed — or the
    /// error that had already killed (or was mid-way through degrading)
    /// the loop. Every logged interval is published first. After an `Err`,
    /// the store directory still holds the last durable state and can be
    /// recovered offline.
    pub fn stop(mut self) -> Result<DurablePdb<M>, ServingError> {
        self.stop.store(true, Ordering::Release);
        match self.handle.take() {
            None => Err(ServingError::Panicked(String::new())),
            Some(h) => match h.join() {
                Err(payload) => Err(ServingError::from_panic(payload)),
                Ok(result) => result,
            },
        }
    }
}

impl<M> Drop for SupervisedSampler<M> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The supervisor thread's state bundle.
struct Supervisor<M> {
    queries: Vec<(String, String)>,
    config: SupervisorConfig,
    shared: Shared,
    factory: ModelFactory<M>,
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

/// Runs one durable-store call, turning a panic into a retryable fault.
fn guarded<T>(f: impl FnOnce() -> Result<T, DurableError>) -> Result<T, ServingError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => Ok(result?),
        Err(payload) => Err(ServingError::from_panic(payload)),
    }
}

/// The supervised host of the served loop: every interval WAL-appended
/// (and group-committed) before it is handed on, so no epoch is published
/// ahead of its log; a checkpoint every `every` intervals (`0`: none); the
/// group-commit tail flushed before the terminal epoch. Each store call
/// runs [`guarded`].
struct Logged<'a, M> {
    durable: &'a mut DurablePdb<M>,
    every: usize,
    since_checkpoint: usize,
}

impl<M: Model> Host<M> for Logged<'_, M> {
    fn interval(&mut self, k: usize) -> Result<DeltaSet, ServingError> {
        let delta = guarded(|| self.durable.step(k))?;
        self.since_checkpoint += 1;
        if self.every > 0 && self.since_checkpoint >= self.every {
            self.since_checkpoint = 0;
            guarded(|| self.durable.checkpoint())?;
        }
        Ok(delta)
    }

    fn pdb(&self) -> &ProbabilisticDB<M> {
        self.durable.pdb()
    }

    fn flush(&mut self) -> Result<(), ServingError> {
        guarded(|| self.durable.sync())
    }
}

impl<M: Model + 'static> Supervisor<M> {
    fn run(
        self,
        mut durable: DurablePdb<M>,
        mut registered: Vec<Registered>,
    ) -> Result<DurablePdb<M>, ServingError> {
        // Recovery inputs, captured before the store can be lost to a
        // fault: directory, I/O handle, durability config.
        let dir: PathBuf = durable.dir().to_path_buf();
        let io: Arc<dyn StoreIo> = durable.io();
        let dconfig: DurabilityConfig = durable.durability_config();
        let stats = &self.shared.stats;

        let mut attempt = 0u32;

        loop {
            // ---- the serving loop, until stop or a fault -------------
            let resumed_at = self.shared.cell.load().epoch;
            let served = serve(
                &mut Logged {
                    durable: &mut durable,
                    every: self.config.checkpoint_every,
                    since_checkpoint: 0,
                },
                &mut registered,
                &self.shared,
            );
            let fault = match served {
                // Orderly shutdown: the group-commit tail was flushed
                // before the terminal epoch was published.
                Ok(()) => {
                    stats.set_state(SamplerState::Stopped);
                    return Ok(durable);
                }
                Err(fault) => fault,
            };
            // An epoch published since the (re)start refills the restart
            // budget: only faults that recur before the loop publishes —
            // on either stage — count as consecutive.
            if self.shared.cell.load().epoch > resumed_at {
                attempt = 0;
            }

            // ---- degrade, then bounded restart-from-recovery ---------
            stats.set_error(Some(fault.clone()));
            // A fault on the way out (the final flush included) is final.
            if !retryable(&fault) || self.shared.stop.load(Ordering::Acquire) {
                stats.set_state(SamplerState::Failed);
                return Err(fault);
            }
            // The faulted store is dropped (its drop path flushes best
            // effort; a poisoned WAL refuses further writes anyway). From
            // here until a recovery succeeds, the on-disk directory is
            // the single source of truth — exactly the crash contract.
            drop(durable);
            loop {
                attempt += 1;
                if attempt > self.config.max_restarts {
                    stats.set_state(SamplerState::Failed);
                    return Err(fault);
                }
                stats.set_state(SamplerState::Degraded {
                    attempt,
                    max_restarts: self.config.max_restarts,
                });
                if !self.backoff(attempt) {
                    // Stop requested mid-recovery: there is no live store
                    // to hand back, but the directory remains recoverable.
                    stats.set_state(SamplerState::Stopped);
                    return Err(fault);
                }
                let (model, proposer) = (self.factory)();
                let recovered = catch_unwind(AssertUnwindSafe(|| {
                    ProbabilisticDB::recover_with_io(
                        Arc::clone(&io),
                        &dir,
                        model,
                        proposer,
                        dconfig,
                    )
                }));
                match recovered {
                    Ok(Ok((d2, _report))) => {
                        // Verify before resuming: a recovered world that
                        // disagrees with its own store is fatal, not
                        // something to serve from.
                        if let Err(m) = d2.pdb().check_synchronized() {
                            let error = ServingError::Sampler(format!(
                                "recovered state failed verification: {m}"
                            ));
                            stats.set_error(Some(error.clone()));
                            stats.set_state(SamplerState::Failed);
                            return Err(error);
                        }
                        let q: Vec<(&str, &str)> = self
                            .queries
                            .iter()
                            .map(|(n, s)| (n.as_str(), s.as_str()))
                            .collect();
                        match build_registered(d2.pdb(), &q, &self.shared.config) {
                            Ok(r) => registered = r,
                            Err(e) => {
                                stats.set_error(Some(e.clone()));
                                stats.set_state(SamplerState::Failed);
                                return Err(e);
                            }
                        }
                        durable = d2;
                        // Publish immediately: readers see a fresh epoch
                        // (monotonically above every pre-fault epoch) as
                        // the first signal that service resumed.
                        let live = self.shared.reader().status();
                        let at = EpochSnapshot::of(durable.pdb(), live.epoch + 1, live.samples);
                        match publish_snapshot(&mut registered, &self.shared.config, at) {
                            Ok(snap) => self.shared.cell.store(Arc::new(snap)),
                            Err(e) => {
                                let error = ServingError::from(e);
                                stats.set_error(Some(error.clone()));
                                stats.set_state(SamplerState::Failed);
                                return Err(error);
                            }
                        }
                        stats.set_error(None);
                        stats.set_state(SamplerState::Running);
                        break; // back to the serving loop
                    }
                    Ok(Err(e)) => {
                        stats.set_error(Some(ServingError::from(e)));
                    }
                    Err(payload) => {
                        stats.set_error(Some(ServingError::from_panic(payload)));
                    }
                }
            }
        }
    }

    /// Sleeps `restart_backoff_ms × attempt`, polling the stop flag.
    /// Returns false when stop was requested.
    fn backoff(&self, attempt: u32) -> bool {
        let total = self
            .config
            .restart_backoff_ms
            .saturating_mul(attempt as u64);
        let mut slept = 0u64;
        while slept < total {
            if self.shared.stop.load(Ordering::Acquire) {
                return false;
            }
            let chunk = (total - slept).min(5);
            std::thread::sleep(Duration::from_millis(chunk));
            slept += chunk;
        }
        !self.shared.stop.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{biased_token_pdb, relabel_proposer};
    use fgdb_durability::{FaultKind, FaultSchedule, FaultyIo, FsyncPolicy};
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

    /// A relabelling proposer that panics once it has made `left`
    /// proposals.
    struct PanicsAfter {
        inner: Box<fgdb_mcmc::UniformRelabel>,
        left: usize,
    }

    impl Proposer for PanicsAfter {
        fn propose(
            &mut self,
            world: &fgdb_graph::World,
            rng: &mut fgdb_mcmc::DynRng<'_>,
            out: &mut fgdb_mcmc::Proposal,
        ) {
            self.left = self.left.checked_sub(1).expect("injected proposer fault");
            self.inner.propose(world, rng, out)
        }

        fn support(&self) -> &[fgdb_graph::VariableId] {
            self.inner.support()
        }
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
