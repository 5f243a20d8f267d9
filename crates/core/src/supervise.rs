//! The supervised durable sampler: the live serving loop of
//! [`crate::LiveSampler`] stepped through a [`DurablePdb`] (every interval
//! WAL-logged before acknowledgement) under a supervisor that survives
//! storage faults and panics by restart-from-recovery.
//!
//! Durable stepping and in-memory serving existed separately; this module
//! composes the two and adds the failure story. The
//! supervisor thread runs the serving loop inside `catch_unwind` plus
//! typed-error handling:
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
//! * after `max_restarts` consecutive failed recoveries the supervisor
//!   gives up: state [`SamplerState::Failed`], error parked, thread ends.
//!   A healthy interval refills the restart budget, so a sampler that
//!   recovers and serves for hours is not one fault away from giving up
//!   because of faults it already survived.
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
    build_registered, observe_delta, publish_snapshot, validate_config, EpochCell, EpochReader,
    Registered, SamplerState, ServingConfig, ServingError, SharedStats,
};
use fgdb_durability::{DurabilityConfig, StoreIo};
use fgdb_graph::Model;
use fgdb_mcmc::Proposer;
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
    /// up ([`SamplerState::Failed`]). A healthy interval resets the count.
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
        let epoch0 = publish_snapshot(durable.pdb(), &mut registered, &config.serving, 0, 0)?;
        let cell = Arc::new(EpochCell::new(epoch0));
        let stats = Arc::new(SharedStats::new(durable.steps_taken()));
        let stop = Arc::new(AtomicBool::new(false));
        let reader = EpochReader::new(Arc::clone(&cell), Arc::clone(&stats));

        let owned: Vec<(String, String)> = queries
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect();
        let t_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("fgdb-supervised-sampler".into())
            .spawn(move || {
                Supervisor {
                    queries: owned,
                    config,
                    cell,
                    stats,
                    stop: t_stop,
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
    /// the loop. After an `Err`, the store directory still holds the last
    /// durable state and can be recovered offline.
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
    cell: Arc<EpochCell>,
    stats: Arc<SharedStats>,
    stop: Arc<AtomicBool>,
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

        let mut epoch = 0u64;
        let mut samples = 0u64;
        let mut since_publish = 0usize;
        let mut since_checkpoint = 0usize;
        let mut attempt = 0u32;

        loop {
            // ---- the serving loop, until stop or a fault -------------
            let fault: ServingError = loop {
                if self.stop.load(Ordering::Acquire) {
                    // Orderly shutdown: flush the group-commit tail so
                    // every acknowledged interval is durable, publish the
                    // terminal state, report Stopped.
                    if let Err(e) = durable.sync() {
                        let error = ServingError::from(e);
                        self.stats.set_error(Some(error.clone()));
                        self.stats.set_state(SamplerState::Failed);
                        return Err(error);
                    }
                    if since_publish > 0 {
                        epoch += 1;
                        if let Ok(snap) = publish_snapshot(
                            durable.pdb(),
                            &mut registered,
                            &self.config.serving,
                            epoch,
                            samples,
                        ) {
                            self.cell.store(Arc::new(snap));
                        }
                    }
                    self.stats.set_state(SamplerState::Stopped);
                    return Ok(durable);
                }
                let k = self.config.serving.thinning;
                match catch_unwind(AssertUnwindSafe(|| durable.step(k))) {
                    Ok(Ok(delta)) => {
                        if let Err(e) = observe_delta(&mut registered, &delta, durable.database()) {
                            break ServingError::from(e);
                        }
                        samples += 1;
                        self.stats
                            .steps
                            .store(durable.steps_taken(), Ordering::Relaxed);
                        self.stats.samples.store(samples, Ordering::Relaxed);
                        // A healthy, logged interval refills the restart
                        // budget: only *consecutive* failures give up.
                        attempt = 0;
                        since_publish += 1;
                        since_checkpoint += 1;
                        if since_publish >= self.config.serving.publish_every {
                            since_publish = 0;
                            epoch += 1;
                            match publish_snapshot(
                                durable.pdb(),
                                &mut registered,
                                &self.config.serving,
                                epoch,
                                samples,
                            ) {
                                Ok(snap) => self.cell.store(Arc::new(snap)),
                                Err(e) => break ServingError::from(e),
                            }
                        }
                        if self.config.checkpoint_every > 0
                            && since_checkpoint >= self.config.checkpoint_every
                        {
                            since_checkpoint = 0;
                            match catch_unwind(AssertUnwindSafe(|| durable.checkpoint())) {
                                Ok(Ok(())) => {}
                                Ok(Err(e)) => break ServingError::from(e),
                                Err(payload) => break ServingError::from_panic(payload),
                            }
                        }
                    }
                    Ok(Err(e)) => break ServingError::from(e),
                    Err(payload) => break ServingError::from_panic(payload),
                }
            };

            // ---- degrade, then bounded restart-from-recovery ---------
            self.stats.set_error(Some(fault.clone()));
            if !retryable(&fault) {
                self.stats.set_state(SamplerState::Failed);
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
                    self.stats.set_state(SamplerState::Failed);
                    return Err(fault);
                }
                self.stats.set_state(SamplerState::Degraded {
                    attempt,
                    max_restarts: self.config.max_restarts,
                });
                if !self.backoff(attempt) {
                    // Stop requested mid-recovery: there is no live store
                    // to hand back, but the directory remains recoverable.
                    self.stats.set_state(SamplerState::Stopped);
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
                            self.stats.set_error(Some(error.clone()));
                            self.stats.set_state(SamplerState::Failed);
                            return Err(error);
                        }
                        let q: Vec<(&str, &str)> = self
                            .queries
                            .iter()
                            .map(|(n, s)| (n.as_str(), s.as_str()))
                            .collect();
                        match build_registered(d2.pdb(), &q, &self.config.serving) {
                            Ok(r) => registered = r,
                            Err(e) => {
                                self.stats.set_error(Some(e.clone()));
                                self.stats.set_state(SamplerState::Failed);
                                return Err(e);
                            }
                        }
                        durable = d2;
                        // Publish immediately: readers see a fresh epoch
                        // (monotonically above every pre-fault epoch) as
                        // the first signal that service resumed.
                        epoch += 1;
                        match publish_snapshot(
                            durable.pdb(),
                            &mut registered,
                            &self.config.serving,
                            epoch,
                            samples,
                        ) {
                            Ok(snap) => self.cell.store(Arc::new(snap)),
                            Err(e) => {
                                let error = ServingError::from(e);
                                self.stats.set_error(Some(error.clone()));
                                self.stats.set_state(SamplerState::Failed);
                                return Err(error);
                            }
                        }
                        self.stats.set_error(None);
                        self.stats.set_state(SamplerState::Running);
                        since_publish = 0;
                        since_checkpoint = 0;
                        break; // back to the serving loop
                    }
                    Ok(Err(e)) => {
                        self.stats.set_error(Some(ServingError::from(e)));
                    }
                    Err(payload) => {
                        self.stats
                            .set_error(Some(ServingError::from_panic(payload)));
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
            if self.stop.load(Ordering::Acquire) {
                return false;
            }
            let chunk = (total - slept).min(5);
            std::thread::sleep(Duration::from_millis(chunk));
            slept += chunk;
        }
        !self.stop.load(Ordering::Acquire)
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
        while reader.status().epoch <= epoch_before + 1 {
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
