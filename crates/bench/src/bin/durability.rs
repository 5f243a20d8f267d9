//! durability — what a checkpoint and a recovery cost on the NER store the
//! served workload runs (100 K tokens at scale 1, moment-matched CRF,
//! document-locality proposer, 100 walk steps per interval).
//!
//! Rows:
//!
//! * **checkpoint every 8 / 64 / 512 intervals** — the medians, over
//!   several checkpoints, of the chunks a patch carried, its bytes, and its
//!   wall time (WAL fsync, patch append + fsync, WAL re-creation included);
//! * **full base** — a forced compaction: the whole store encoded and
//!   written through tmp → fsync → rename;
//! * **compaction at the threshold** — the checkpoint that found the patch
//!   log about to outgrow the base and wrote a base instead;
//! * **recovery** — base + 64 WAL records (the full-snapshot recovery every
//!   checkpoint used to leave behind) against base + a patch log at the
//!   compaction threshold + 64 WAL records (the most a recovery reads).
//!
//! Gates (non-zero exit): every recovery must equal the live state it
//! recovers (world, step count, kernel statistics, the four paper
//! queries), and every patch must carry exactly the chunks the live store
//! no longer shares with the previous checkpoint — counted here,
//! independently, by pointer identity against a snapshot taken at that
//! checkpoint.
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
use fgdb_ie::Crf;
use fgdb_relational::parser::paper_sql;
use fgdb_relational::Database;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Walk steps per interval: the served loop's default thinning.
const K: usize = 100;
/// WAL records left for recovery to replay.
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

/// Chunks of `live` not held by pointer identity in `prev`.
fn unshared_chunks(live: &Database, prev: &Database) -> usize {
    live.relation_names()
        .filter_map(|n| Some((live.relation(n).ok()?, prev.relation(n).ok()?)))
        .map(|(a, b)| a.chunks_not_shared_with(b).count())
        .sum()
}

/// Shared state of one bench run: the model, and the failures seen.
struct Bench {
    setup: NerSetup,
    failures: Vec<String>,
}

/// One checkpoint, timed and cross-checked.
struct Taken {
    kind: CheckpointKind,
    chunks: usize,
    bytes: u64,
    ms: f64,
    patch_log_bytes: u64,
    base_bytes: u64,
}

impl Bench {
    fn mount(&self, dir: &Path) -> DurablePdb<Arc<Crf>> {
        self.setup
            .pdb(SEED)
            .open_durable(dir, cfg())
            .expect("fresh bench directory")
    }

    /// Checkpoints `d`, checking the patch against the chunks `prev` (a
    /// snapshot of the previous checkpoint) no longer shares.
    fn checkpoint(&mut self, d: &mut DurablePdb<Arc<Crf>>, prev: &mut Database) -> Taken {
        let expected = unshared_chunks(d.database(), prev);
        let ((), s) = timed(|| d.checkpoint().expect("checkpoint"));
        let r = *d.last_checkpoint().expect("a checkpoint was taken");
        if r.kind == CheckpointKind::Patch && r.chunks != expected {
            self.failures.push(format!(
                "patch at seq {} carried {} chunks, {expected} are not shared",
                r.seq, r.chunks
            ));
        }
        *prev = d.database().snapshot();
        Taken {
            kind: r.kind,
            chunks: r.chunks,
            bytes: r.bytes,
            ms: s * 1e3,
            patch_log_bytes: r.patch_log_bytes,
            base_bytes: r.base_bytes,
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
    let chunks_total = bench
        .setup
        .pdb(SEED)
        .database()
        .relation("TOKEN")
        .map(|r| r.chunk_count())
        .unwrap_or(0);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |what: &str, intervals: String, chunks: String, bytes: String, ms: f64| {
        rows.push(vec![
            what.to_string(),
            intervals,
            chunks,
            bytes,
            format!("{ms:.3}"),
        ]);
    };

    // Checkpoint cost at three periods.
    let mut compactions = Vec::new();
    for every in [8usize, 64, 512] {
        let dir = fgdb_durability::test_dir("bench-durability-ckpt");
        let mut d = bench.mount(&dir);
        let mut prev = d.database().snapshot();
        let (mut chunks, mut bytes, mut ms) = (Vec::new(), Vec::new(), Vec::new());
        // At 512 intervals a patch is ≈¼ of the base: eight checkpoints
        // cross the threshold once, which is the compaction row.
        for _ in 0..8 {
            Bench::step(&mut d, every);
            let t = bench.checkpoint(&mut d, &mut prev);
            match t.kind {
                CheckpointKind::Patch => {
                    chunks.push(t.chunks as f64);
                    bytes.push(t.bytes as f64);
                    ms.push(t.ms);
                }
                CheckpointKind::Base => compactions.push(t.ms),
            }
        }
        row(
            &format!("checkpoint every {every} (patch)"),
            every.to_string(),
            format!("{:.0}", median(chunks)),
            format!("{:.0}", median(bytes)),
            median(ms),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // A full base, forced.
    let dir = fgdb_durability::test_dir("bench-durability-base");
    let mut d = bench.mount(&dir);
    Bench::step(&mut d, 64);
    let mut base_ms = Vec::new();
    let mut base_bytes = 0;
    for _ in 0..runs {
        let ((), s) = timed(|| d.compact().expect("compaction"));
        base_ms.push(s * 1e3);
        base_bytes = d.last_checkpoint().map_or(0, |r| r.bytes);
    }
    drop(d);
    std::fs::remove_dir_all(&dir).ok();
    row(
        "full base (forced compaction)",
        "-".into(),
        chunks_total.to_string(),
        base_bytes.to_string(),
        median(base_ms),
    );

    // Recovery: base + WAL against base + a patch log at the threshold +
    // WAL, each over fresh stores.
    let (mut plain_ms, mut patched_ms) = (Vec::new(), Vec::new());
    let mut patched = (0usize, 0u64);
    for run in 0..runs {
        let dir = fgdb_durability::test_dir("bench-durability-recover");
        let mut d = bench.mount(&dir);
        Bench::step(&mut d, WAL_TAIL);
        plain_ms.push(bench.recover(d, &dir, &format!("base + WAL, run {run}")));
        std::fs::remove_dir_all(&dir).ok();

        let dir = fgdb_durability::test_dir("bench-durability-recover");
        let mut d = bench.mount(&dir);
        let mut prev = d.database().snapshot();
        let mut patches = 0;
        loop {
            Bench::step(&mut d, 64);
            let t = bench.checkpoint(&mut d, &mut prev);
            if t.kind == CheckpointKind::Base {
                compactions.push(t.ms);
                patches = 0;
                continue;
            }
            patches += 1;
            // Stop when another patch this size would not fit.
            if t.patch_log_bytes + t.bytes > t.base_bytes {
                patched = (patches, t.patch_log_bytes + t.base_bytes);
                break;
            }
        }
        Bench::step(&mut d, WAL_TAIL);
        patched_ms.push(bench.recover(d, &dir, &format!("base + patches + WAL, run {run}")));
        std::fs::remove_dir_all(&dir).ok();
    }
    row(
        "compaction at the threshold",
        "-".into(),
        chunks_total.to_string(),
        base_bytes.to_string(),
        median(compactions),
    );
    row(
        &format!("recover base + {WAL_TAIL} WAL records"),
        WAL_TAIL.to_string(),
        "-".into(),
        base_bytes.to_string(),
        median(plain_ms),
    );
    row(
        &format!(
            "recover base + {} patches + {WAL_TAIL} WAL records",
            patched.0
        ),
        WAL_TAIL.to_string(),
        "-".into(),
        patched.1.to_string(),
        median(patched_ms),
    );

    let columns = ["row", "intervals", "chunks", "bytes", "ms"];
    let mut report = Report::new("durability", &columns);
    report
        .param("tokens", tokens)
        .param("chunks", chunks_total)
        .param("k", K)
        .param("runs", runs)
        .param("machine", machine());
    for r in &rows {
        report.row(r.clone());
    }
    print_table(
        "durability: checkpoint patches, compaction, recovery (state- and chunk-checked)",
        &columns,
        &rows,
    );
    report.write_if_configured();
    if bench.failures.is_empty() {
        println!("\nrecovery parity and patch chunk counts: OK");
        ExitCode::SUCCESS
    } else {
        for f in &bench.failures {
            eprintln!("GATE FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
