//! durability — what a checkpoint, a compaction and a recovery cost on the
//! NER store the served workload runs (100 K tokens at scale 1,
//! moment-matched CRF, document-locality proposer, 100 walk steps per
//! interval, group commit every 8).
//!
//! Rows:
//!
//! * **checkpoint under budget every 8 / 64 / 512 intervals** — the
//!   medians, over several checkpoints, of the fsyncs and wall time of a
//!   checkpoint that keeps the WAL (it syncs the group-commit tail, if
//!   any, and writes nothing);
//! * **full base** — a forced compaction: the whole store encoded and
//!   written through tmp → fsync → rename, the WAL re-created;
//! * **compaction at the budget** — the checkpoint that found the WAL
//!   longer than the base and compacted;
//! * **recovery** — base + 64 WAL records against base + the WAL at the
//!   budget: every interval since the base, up to the one that takes the
//!   WAL past it (the most a recovery replays).
//!
//! The chunk-patch checkpoints this replaced recovered at most base + a
//! patch log of the base's size + 64 WAL records; that row is taken by this
//! binary at the commit before the change, in the same session, and
//! recorded next to these in `BENCH_durability.json`.
//!
//! Gates (non-zero exit): every recovery must equal the live state it
//! recovers (world, step count, kernel statistics, the four paper
//! queries), and a checkpoint under budget must create and write no file.
//!
//! Scales with `FGDB_SCALE` (default 1.0); `FGDB_BENCH_SAMPLES` sets the
//! recovery repetitions (default 5). Emits `BENCH_durability.json`.
//!
//! ```sh
//! cargo run --release -p fgdb-bench --bin durability
//! ```

use fgdb_bench::report::Report;
use fgdb_bench::{print_table, scaled, timed, NerSetup};
use fgdb_core::{CheckpointKind, DurabilityConfig, DurablePdb, FsyncPolicy, ProbabilisticDB};
use fgdb_durability::store::{SNAPSHOT_FILE, WAL_FILE};
use fgdb_durability::{FaultSchedule, FaultyIo};
use fgdb_ie::Crf;
use fgdb_relational::parser::paper_sql;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Walk steps per interval: the served loop's default thinning.
const K: usize = 100;
/// WAL records left for recovery to replay, and the served loop's default
/// checkpoint period.
const WAL_TAIL: usize = 64;
const SEED: u64 = 7;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(f64::NAN)
}

fn cfg() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::EveryN(8),
    }
}

fn file_len(dir: &Path, file: &str) -> u64 {
    std::fs::metadata(dir.join(file)).map_or(0, |m| m.len())
}

/// Everything a recovered store must reproduce.
#[derive(PartialEq, Debug)]
struct Observed {
    world: Vec<u16>,
    steps: u64,
    kernel: String,
    answers: Vec<String>,
}

fn observe(pdb: &ProbabilisticDB<Arc<Crf>>) -> Observed {
    Observed {
        world: pdb.world().assignment().to_vec(),
        steps: pdb.steps_taken(),
        kernel: format!("{:?}", pdb.kernel_stats()),
        answers: [
            paper_sql::query1("TOKEN"),
            paper_sql::query2("TOKEN"),
            paper_sql::query3("TOKEN"),
            paper_sql::query4("TOKEN"),
        ]
        .iter()
        .map(|sql| format!("{:?}", pdb.query(sql).map(|r| r.rows.sorted_entries())))
        .collect(),
    }
}

/// Shared state of one bench run: the model, and the failures seen.
struct Bench {
    setup: NerSetup,
    failures: Vec<String>,
}

/// One checkpoint, timed and counted.
struct Taken {
    kind: CheckpointKind,
    fsyncs: u64,
    ms: f64,
}

impl Bench {
    /// A fresh store at `dir` over a counting (never faulting) I/O layer.
    fn mount(&self, dir: &Path) -> (DurablePdb<Arc<Crf>>, FaultyIo) {
        let fio = FaultyIo::new(FaultSchedule::none());
        let d = self
            .setup
            .pdb(SEED)
            .open_durable_with_io(Arc::new(fio.clone()), dir, cfg())
            .expect("fresh bench directory");
        (d, fio)
    }

    /// Checkpoints `d`, checking that one under budget creates and writes
    /// no file.
    fn checkpoint(&mut self, d: &mut DurablePdb<Arc<Crf>>, fio: &FaultyIo) -> Taken {
        let (ops, writes, syncs) = (fio.ops(), fio.writes(), fio.syncs());
        let ((), s) = timed(|| d.checkpoint().expect("checkpoint"));
        let r = *d.last_checkpoint().expect("a checkpoint was taken");
        let (ops, writes, fsyncs) = (fio.ops() - ops, fio.writes() - writes, fio.syncs() - syncs);
        if r.kind == CheckpointKind::Wal && (writes > 0 || ops != fsyncs) {
            self.failures.push(format!(
                "checkpoint under budget at seq {} did {ops} operations, {writes} writes",
                r.seq
            ));
        }
        Taken {
            kind: r.kind,
            fsyncs,
            ms: s * 1e3,
        }
    }

    /// Steps `d` for `n` intervals.
    fn step(d: &mut DurablePdb<Arc<Crf>>, n: usize) {
        for _ in 0..n {
            d.step(K).expect("logged interval");
        }
    }

    /// Drops `d` after a final sync and recovers `dir`, timed; checks the
    /// recovered state against the live one.
    fn recover(&mut self, d: DurablePdb<Arc<Crf>>, dir: &Path, label: &str) -> f64 {
        let live = observe(d.pdb());
        drop(d.close().expect("final sync"));
        let model = Arc::clone(&self.setup.model);
        let proposer = fgdb_core::ner_proposer(&self.setup.data, &Default::default());
        let (recovered, s) =
            timed(|| ProbabilisticDB::recover(dir, model, proposer, cfg()).map(|(r, _)| r));
        match recovered {
            Ok(r) if observe(r.pdb()) == live => {}
            Ok(_) => self.failures.push(format!(
                "{label}: recovered state differs from the live one"
            )),
            Err(e) => self.failures.push(format!("{label}: recovery failed: {e}")),
        }
        s * 1e3
    }
}

/// The CPU model and count, so a committed baseline says what it ran on.
fn machine() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".into());
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{model} x{cpus}")
}

fn main() -> ExitCode {
    let tokens = scaled(100_000);
    let runs = std::env::var("FGDB_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5usize)
        .max(1);
    let mut bench = Bench {
        setup: NerSetup::build_soft(tokens, SEED),
        failures: Vec::new(),
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |what: &str, intervals: String, fsyncs: String, bytes: String, ms: f64| {
        rows.push(vec![
            what.to_string(),
            intervals,
            fsyncs,
            bytes,
            format!("{ms:.3}"),
        ]);
    };

    // Checkpoint cost under budget at three periods.
    for every in [8usize, 64, 512] {
        let dir = fgdb_durability::test_dir("bench-durability-ckpt");
        let (mut d, fio) = bench.mount(&dir);
        let (mut fsyncs, mut ms, mut compacted) = (Vec::new(), Vec::new(), 0);
        for _ in 0..8 {
            Bench::step(&mut d, every);
            let t = bench.checkpoint(&mut d, &fio);
            if t.kind == CheckpointKind::Wal {
                fsyncs.push(t.fsyncs as f64);
                ms.push(t.ms);
            } else {
                compacted += 1;
            }
        }
        // At small scales a long period outgrows the base: say so rather
        // than report the compactions as checkpoints under budget.
        let label = match compacted {
            0 => format!("checkpoint under budget every {every}"),
            n => format!("checkpoint under budget every {every} ({n} of 8 compacted)"),
        };
        row(
            &label,
            every.to_string(),
            format!("{:.0}", median(fsyncs)),
            "0".into(),
            median(ms),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // A full base, forced.
    let dir = fgdb_durability::test_dir("bench-durability-base");
    let (mut d, fio) = bench.mount(&dir);
    Bench::step(&mut d, WAL_TAIL);
    let (mut base_ms, mut base_fsyncs) = (Vec::new(), Vec::new());
    let mut base_bytes = 0;
    for _ in 0..runs {
        let syncs = fio.syncs();
        let ((), s) = timed(|| d.compact().expect("compaction"));
        base_ms.push(s * 1e3);
        base_fsyncs.push((fio.syncs() - syncs) as f64);
        base_bytes = d.last_checkpoint().map_or(0, |r| r.base_bytes);
    }
    drop(d);
    std::fs::remove_dir_all(&dir).ok();
    row(
        "full base (forced compaction)",
        "-".into(),
        format!("{:.0}", median(base_fsyncs)),
        base_bytes.to_string(),
        median(base_ms),
    );

    // Recovery: base + a short WAL against base + the WAL at the budget,
    // each over fresh stores. Reaching the budget, a checkpoint every
    // `WAL_TAIL` intervals, also yields the compaction at the budget.
    let (mut plain_ms, mut budget_ms) = (Vec::new(), Vec::new());
    let (mut compaction_ms, mut compaction_fsyncs) = (Vec::new(), Vec::new());
    let mut at_budget = (0usize, 0u64);
    for run in 0..runs {
        let dir = fgdb_durability::test_dir("bench-durability-recover");
        let (mut d, _) = bench.mount(&dir);
        Bench::step(&mut d, WAL_TAIL);
        plain_ms.push(bench.recover(d, &dir, &format!("base + WAL, run {run}")));
        std::fs::remove_dir_all(&dir).ok();

        let dir = fgdb_durability::test_dir("bench-durability-recover");
        let (mut d, fio) = bench.mount(&dir);
        let (mut intervals, mut compacted) = (0, false);
        loop {
            Bench::step(&mut d, WAL_TAIL);
            intervals += WAL_TAIL;
            // After one compaction, stop where the next checkpoint would
            // compact: the WAL holds every interval since the base, the
            // most it ever holds.
            let (wal, base) = (file_len(&dir, WAL_FILE), file_len(&dir, SNAPSHOT_FILE));
            if compacted && wal > base {
                at_budget = (intervals, wal + base);
                break;
            }
            let t = bench.checkpoint(&mut d, &fio);
            if t.kind == CheckpointKind::Base {
                compaction_ms.push(t.ms);
                compaction_fsyncs.push(t.fsyncs as f64);
                (intervals, compacted) = (0, true);
            }
        }
        budget_ms.push(bench.recover(d, &dir, &format!("base + WAL at the budget, run {run}")));
        std::fs::remove_dir_all(&dir).ok();
    }
    row(
        "compaction at the budget",
        "-".into(),
        format!("{:.0}", median(compaction_fsyncs)),
        base_bytes.to_string(),
        median(compaction_ms),
    );
    row(
        &format!("recover base + {WAL_TAIL} WAL records"),
        WAL_TAIL.to_string(),
        "-".into(),
        base_bytes.to_string(),
        median(plain_ms),
    );
    row(
        &format!("recover at the budget: base + {} WAL records", at_budget.0),
        at_budget.0.to_string(),
        "-".into(),
        at_budget.1.to_string(),
        median(budget_ms),
    );

    let columns = ["row", "intervals", "fsyncs", "bytes", "ms"];
    let mut report = Report::new("durability", &columns);
    report
        .param("tokens", tokens)
        .param("k", K)
        .param("runs", runs)
        .param("machine", machine());
    for r in &rows {
        report.row(r.clone());
    }
    print_table(
        "durability: checkpoints, compaction, recovery (state-checked)",
        &columns,
        &rows,
    );
    report.write_if_configured();
    if bench.failures.is_empty() {
        println!("\nrecovery parity and write-free checkpoints under budget: OK");
        ExitCode::SUCCESS
    } else {
        for f in &bench.failures {
            eprintln!("GATE FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
