//! serving — concurrent read latency over a live sampler, and the
//! sampler-throughput cost of serving.
//!
//! Reproduces the PR-6 serving deliverable: a [`LiveSampler`] publishes
//! snapshot-isolated epochs while `fgdb-serve` fronts it on localhost TCP
//! and N concurrent clients issue the paper's SQL at a fixed pace.
//! Measures:
//!
//! * **unserved baseline** — sampler walk-steps/second with no server and
//!   no clients attached;
//! * **serving** — client-observed request latency (p50/p95/p99) and
//!   aggregate queries/second at N concurrent connections, plus the
//!   sampler's walk-steps/second *during* that load;
//! * **degradation** — the serving-vs-baseline sampler throughput drop.
//!   The acceptance bound for this PR is ≤ 25% under paced load (the
//!   harness machine is single-core, so clients and sampler share one
//!   CPU; an unpaced closed loop would measure CPU division, not serving
//!   overhead — the `saturate` row reports that regime separately, as
//!   the median of [`SATURATE_WINDOWS`] windows with their min–max in the
//!   `saturate_*` params, since one window's figure swings between runs);
//! * **degraded mode** — the `degraded` row runs a [`SupervisedSampler`]
//!   over a faulty WAL parked in its restart-backoff window: pinned
//!   clients keep reading their immutable epochs (their latency is the
//!   row), fresh-state requests shed with typed `Unavailable` frames
//!   (counted in the `degraded_sheds` param), and the sampler's steps/s
//!   is ~0 by construction, so its 100% degradation is reported but
//!   exempt from the 25% bound;
//! * **epoch sharing** — the O(|Δ|) publication claim as a count, not a
//!   timing: over a larger store, 256 publications are replayed in
//!   process (step `publish_every` intervals, snapshot) and every epoch is
//!   compared with its predecessor — storage chunks still shared (pointer
//!   identity) and slots rewritten in between — and the run exits non-zero
//!   if any epoch shares fewer than `chunks − rewritten slots` (each write
//!   may cost at most the one chunk it lands in; a snapshot that copies
//!   more has regressed to O(|w|)), or if no epoch's writes were few
//!   enough for that bound to bind.
//!
//! Scales with `FGDB_SCALE` (default 1.0); `FGDB_SERVE_CLIENTS` overrides
//! the client count (default 8). Emits `BENCH_serving.json`.
//!
//! ```sh
//! cargo run --release -p fgdb-bench --bin serving
//! ```

use fgdb_bench::report::Report;
use fgdb_bench::{print_csv, print_table, scaled};
use fgdb_core::fixtures::{biased_token_pdb, relabel_proposer};
use fgdb_core::supervise::{ModelFactory, SupervisedSampler, SupervisorConfig};
use fgdb_core::{DurabilityConfig, FsyncPolicy, LiveSampler, ServingConfig};
use fgdb_durability::{FaultKind, FaultSchedule, FaultyIo, StoreIo};
use fgdb_graph::FactorGraph;
use fgdb_relational::parser::paper_sql;
use fgdb_serve::{Client, ClientError, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DOC_SIZE: usize = 24;
/// Pace between requests on each client connection (paced regime).
const PACE: Duration = Duration::from_millis(25);
/// Windows the `saturate` row is the median of. Under unpaced clients one
/// window's sampler steps/s swings between runs of one binary (the served
/// loop's arrangement trial can overlap the clients' start), so a single
/// window cannot tell two builds apart.
const SATURATE_WINDOWS: usize = 5;

fn build_sampler(n_tokens: usize, config: &ServingConfig) -> LiveSampler<Arc<FactorGraph>> {
    let pdb = biased_token_pdb(n_tokens, DOC_SIZE, 0xBE7C);
    let q1 = paper_sql::query1("TOKEN");
    LiveSampler::spawn(pdb, &[("q1", q1.as_str())], config.clone()).expect("spawn sampler")
}

/// Sampler walk-steps/second over a sleep window.
fn steps_per_sec(sampler: &LiveSampler<Arc<FactorGraph>>, window: Duration) -> f64 {
    let start = sampler.reader().status().steps;
    let t0 = Instant::now();
    std::thread::sleep(window);
    let steps = sampler.reader().status().steps - start;
    steps as f64 / t0.elapsed().as_secs_f64()
}

/// One client thread: issue the query mix against `addr` until the
/// deadline, optionally pacing between requests. Returns per-request
/// latencies in milliseconds.
fn client_loop(
    addr: &str,
    queries: &[String],
    deadline: Instant,
    pace: Option<Duration>,
) -> Vec<f64> {
    let mut client = Client::connect(addr).expect("client connect");
    let mut latencies = Vec::new();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let sql = &queries[i % queries.len()];
        i += 1;
        let t0 = Instant::now();
        client.query(sql).expect("query under load");
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(p) = pace {
            std::thread::sleep(p);
        }
    }
    latencies
}

/// Epoch pairs the sharing gate replays.
const SHARING_EPOCHS: usize = 256;

/// One published epoch against the one published before it.
struct EpochSharing {
    epoch: u64,
    chunks: usize,
    /// Chunks the two epochs hold by pointer identity.
    shared: usize,
    /// Slots whose row differs in value (or liveness) between the two
    /// epochs — every write in between that changed a row.
    rewritten: usize,
}

/// Replays [`SHARING_EPOCHS`] publications over `n_tokens` rows on this
/// thread — `publish_every` intervals of `thinning` walk-steps, then
/// `Database::snapshot()`, which is what the sampler loop publishes as an
/// epoch's database — and compares each epoch's TOKEN relation with its
/// predecessor's. Stepping the sampler here rather than watching a live
/// one makes every pair consecutive by construction, so the gate counts
/// the same epochs on every run and every box. The slot-by-slot
/// comparison is O(|w|) per epoch — this is the checker, not a timed path.
fn run_epoch_sharing(n_tokens: usize, config: &ServingConfig) -> Vec<EpochSharing> {
    let mut pdb = biased_token_pdb(n_tokens, DOC_SIZE, 0xBE7C);
    let mut observed = Vec::with_capacity(SHARING_EPOCHS);
    let mut prev = pdb.database().snapshot();
    for epoch in 1..=SHARING_EPOCHS as u64 {
        for _ in 0..config.publish_every {
            pdb.step(config.thinning).expect("sampler interval");
        }
        let cur = pdb.database().snapshot();
        let (a, b) = (
            prev.relation("TOKEN").expect("TOKEN relation"),
            cur.relation("TOKEN").expect("TOKEN relation"),
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
        observed.push(EpochSharing {
            epoch,
            chunks: b.chunk_count(),
            shared: b.chunks_shared_with(a),
            rewritten,
        });
        prev = cur;
    }
    observed
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Drives one serving regime; returns (latencies_ms sorted, qps, sampler steps/s).
fn run_regime(
    n_tokens: usize,
    config: &ServingConfig,
    n_clients: usize,
    window: Duration,
    pace: Option<Duration>,
) -> (Vec<f64>, f64, f64) {
    let sampler = build_sampler(n_tokens, config);
    let server = Server::start(sampler.reader(), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let queries: Arc<Vec<String>> = Arc::new(vec![
        paper_sql::query1("TOKEN"),
        paper_sql::query2("TOKEN"),
        paper_sql::query3("TOKEN"),
        paper_sql::query4("TOKEN"),
    ]);

    let t0 = Instant::now();
    let deadline = t0 + window;
    let handles: Vec<_> = (0..n_clients)
        .map(|_| {
            let addr = addr.clone();
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || client_loop(&addr, &queries, deadline, pace))
        })
        .collect();

    let steps_start = sampler.reader().status().steps;
    let mut latencies: Vec<f64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let steps = sampler.reader().status().steps - steps_start;

    server.stop();
    sampler.stop().expect("clean sampler stop");

    let qps = latencies.len() as f64 / elapsed;
    latencies.sort_by(f64::total_cmp);
    (latencies, qps, steps as f64 / elapsed)
}

/// Degraded-mode regime: a supervised sampler over a faulty WAL, parked
/// in a restart backoff longer than the measurement window. Pinned
/// clients pace queries against their immutable epochs (these must all
/// answer); an unpinned probe counts typed sheds. Returns
/// (pinned latencies ms sorted, qps, sampler steps/s, sheds).
fn run_degraded(
    n_tokens: usize,
    config: &ServingConfig,
    n_clients: usize,
    window: Duration,
) -> (Vec<f64>, f64, f64, u64) {
    let dir = fgdb_durability::test_dir("bench-serving-degraded");
    let fio = FaultyIo::new(FaultSchedule::none());
    let io: Arc<dyn StoreIo> = Arc::new(fio.clone());
    let pdb = biased_token_pdb(n_tokens, DOC_SIZE, 0xBE7C);
    let model = Arc::clone(pdb.model());
    let durable = pdb
        .open_durable_with_io(
            io,
            &dir,
            DurabilityConfig {
                fsync: FsyncPolicy::Always,
            },
        )
        .expect("mount durable store");
    let factory: ModelFactory<Arc<FactorGraph>> =
        Box::new(move || (Arc::clone(&model), relabel_proposer(n_tokens)));
    let q1 = paper_sql::query1("TOKEN");
    let sampler = SupervisedSampler::spawn(
        durable,
        &[("q1", q1.as_str())],
        SupervisorConfig {
            serving: config.clone(),
            max_restarts: 3,
            // Park the degraded window wide open: the whole measurement
            // happens inside the first restart backoff.
            restart_backoff_ms: window.as_millis() as u64 * 4,
            checkpoint_every: 0,
        },
        factory,
    )
    .expect("spawn supervised sampler");
    let server = Server::start(sampler.reader(), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();

    // Pin every measurement client while the sampler is still healthy.
    let mut pinned: Vec<Client> = (0..n_clients)
        .map(|_| {
            let mut c = Client::connect(&addr).expect("client connect");
            c.pin().expect("pin a healthy epoch");
            c
        })
        .collect();

    // Break the WAL, then wait for the supervisor to park degraded.
    fio.inject_now(FaultKind::WriteErr);
    let mut probe = Client::connect(&addr).expect("probe connect");
    while !probe.stats().expect("stats while degrading").degraded {
        std::thread::sleep(Duration::from_millis(2));
    }

    let queries: Arc<Vec<String>> = Arc::new(vec![
        paper_sql::query1("TOKEN"),
        paper_sql::query2("TOKEN"),
        paper_sql::query3("TOKEN"),
        paper_sql::query4("TOKEN"),
    ]);
    let t0 = Instant::now();
    let deadline = t0 + window;
    let steps_start = probe.stats().expect("stats").steps;
    let handles: Vec<_> = pinned
        .drain(..)
        .map(|mut client| {
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let mut latencies = Vec::new();
                let mut i = 0usize;
                while Instant::now() < deadline {
                    let sql = &queries[i % queries.len()];
                    i += 1;
                    let t = Instant::now();
                    client.query(sql).expect("pinned read while degraded");
                    latencies.push(t.elapsed().as_secs_f64() * 1e3);
                    std::thread::sleep(PACE);
                }
                latencies
            })
        })
        .collect();

    // Meanwhile, fresh-state requests must shed typed — count them.
    let mut sheds = 0u64;
    while Instant::now() < deadline {
        match probe.query(&queries[0]) {
            Err(ClientError::Unavailable { .. }) => sheds += 1,
            Ok(_) => {} // supervisor recovered early; freshness is back
            Err(e) => panic!("degraded server must shed, not fail: {e}"),
        }
        std::thread::sleep(PACE);
    }

    let mut latencies: Vec<f64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("pinned client thread"));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let steps = probe.stats().expect("stats").steps - steps_start;

    server.stop();
    // Stopping mid-backoff surfaces the parked fault — expected here.
    let _ = sampler.stop();

    let qps = latencies.len() as f64 / elapsed;
    latencies.sort_by(f64::total_cmp);
    (latencies, qps, steps as f64 / elapsed, sheds)
}

fn main() {
    let n_tokens = scaled(400).max(24);
    let window = Duration::from_millis(scaled(3_000).max(500) as u64);
    let n_clients = std::env::var("FGDB_SERVE_CLIENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8usize)
        .max(1);
    let config = ServingConfig {
        thinning: 50,
        publish_every: 4,
        window: 128,
        ..Default::default()
    };

    // Unserved baseline: the sampler alone on the box.
    let baseline = build_sampler(n_tokens, &config);
    std::thread::sleep(window / 4); // warm-up: JIT-free but cache-warm
    let baseline_sps = steps_per_sec(&baseline, window);
    baseline.stop().expect("clean baseline stop");

    let mut report = Report::new(
        "serving",
        &[
            "regime",
            "clients",
            "queries",
            "qps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "sampler_steps_per_s",
            "degradation_pct",
        ],
    );
    report
        .param("n_tokens", n_tokens)
        .param("window_ms", window.as_millis())
        .param("pace_ms", PACE.as_millis())
        .param("thinning", config.thinning)
        .param("publish_every", config.publish_every)
        .param("baseline_steps_per_s", format!("{baseline_sps:.0}"));

    let mut rows = Vec::new();
    let mut paced_degradation = f64::NAN;
    for (regime, pace) in [("paced", Some(PACE)), ("saturate", None)] {
        let runs = if pace.is_some() { 1 } else { SATURATE_WINDOWS };
        let mut windows: Vec<_> = (0..runs)
            .map(|_| run_regime(n_tokens, &config, n_clients, window, pace))
            .collect();
        windows.sort_by(|a, b| a.2.total_cmp(&b.2));
        if runs > 1 {
            let qps = windows.iter().map(|w| w.1);
            let (qps_min, qps_max) = (
                qps.clone().fold(f64::MAX, f64::min),
                qps.fold(0.0, f64::max),
            );
            report
                .param("saturate_windows", runs)
                .param("saturate_steps_per_s_min", format!("{:.0}", windows[0].2))
                .param(
                    "saturate_steps_per_s_max",
                    format!("{:.0}", windows[runs - 1].2),
                )
                .param("saturate_qps_min", format!("{qps_min:.1}"))
                .param("saturate_qps_max", format!("{qps_max:.1}"));
        }
        // The window with the median sampler steps/s is the row.
        let (lat, qps, sps) = windows.swap_remove(runs / 2);
        let degradation = (1.0 - sps / baseline_sps) * 100.0;
        if regime == "paced" {
            paced_degradation = degradation;
        }
        rows.push(vec![
            regime.to_string(),
            n_clients.to_string(),
            lat.len().to_string(),
            format!("{qps:.1}"),
            format!("{:.3}", percentile(&lat, 0.50)),
            format!("{:.3}", percentile(&lat, 0.95)),
            format!("{:.3}", percentile(&lat, 0.99)),
            format!("{sps:.0}"),
            format!("{degradation:.1}"),
        ]);
    }

    // Degraded mode: pinned reads stay served while the sampler is down.
    // Its ~100% sampler degradation is by construction and exempt from
    // the paced bound.
    let (lat, qps, sps, sheds) = run_degraded(n_tokens, &config, n_clients, window);
    report.param("degraded_sheds", sheds);
    rows.push(vec![
        "degraded".to_string(),
        n_clients.to_string(),
        lat.len().to_string(),
        format!("{qps:.1}"),
        format!("{:.3}", percentile(&lat, 0.50)),
        format!("{:.3}", percentile(&lat, 0.95)),
        format!("{:.3}", percentile(&lat, 0.99)),
        format!("{sps:.0}"),
        format!("{:.1}", (1.0 - sps / baseline_sps) * 100.0),
    ]);

    // Epoch sharing: a store large enough that one epoch's writes are a
    // small fraction of its chunks.
    let sharing_tokens = scaled(40_000).max(20_000);
    let sharing = run_epoch_sharing(sharing_tokens, &config);
    let violations = sharing
        .iter()
        .filter(|e| e.shared + e.rewritten < e.chunks)
        .count();
    // The bound says something only where an epoch wrote, and wrote fewer
    // slots than there are chunks.
    let binding = sharing
        .iter()
        .filter(|e| 0 < e.rewritten && e.rewritten < e.chunks)
        .count();
    report
        .param("sharing_tokens", sharing_tokens)
        .param("sharing_epochs", sharing.len())
        .param("sharing_chunks", sharing.first().map_or(0, |e| e.chunks))
        .param(
            "sharing_min_chunks_shared",
            sharing.iter().map(|e| e.shared).min().unwrap_or(0),
        )
        .param(
            "sharing_max_slots_rewritten",
            sharing.iter().map(|e| e.rewritten).max().unwrap_or(0),
        )
        .param("sharing_violations", violations);

    for r in &rows {
        report.row(r.clone());
    }
    print_table(
        "serving: concurrent read latency + sampler cost",
        &[
            "regime",
            "clients",
            "queries",
            "qps",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "sampler steps/s",
            "degradation %",
        ],
        &rows,
    );
    print_csv(
        "serving",
        "regime,clients,queries,qps,p50_ms,p95_ms,p99_ms,sampler_steps_per_s,degradation_pct",
        &rows.iter().map(|r| r.join(",")).collect::<Vec<_>>(),
    );
    print_csv(
        "serving_epoch_sharing",
        "epoch,chunks,chunks_shared_with_predecessor,slots_rewritten",
        &sharing
            .iter()
            .map(|e| format!("{},{},{},{}", e.epoch, e.chunks, e.shared, e.rewritten))
            .collect::<Vec<_>>(),
    );
    report.write_if_configured();
    println!(
        "\nepoch sharing: {} consecutive epochs over {sharing_tokens} rows, {violations} sharing fewer than chunks − rewritten slots",
        sharing.len()
    );
    if violations > 0 {
        eprintln!(
            "ERROR: epoch publication is not O(|Δ|): a snapshot copied chunks no write touched"
        );
        std::process::exit(1);
    }
    if binding < sharing.len() / 2 {
        eprintln!("ERROR: the epoch-sharing gate is vacuous: only {binding} of {} epochs rewrote between 1 and chunks − 1 slots", sharing.len());
        std::process::exit(1);
    }
    println!(
        "\nbaseline sampler: {baseline_sps:.0} steps/s; paced degradation: {paced_degradation:.1}% (bound: 25%)"
    );
    if paced_degradation > 25.0 {
        eprintln!("WARNING: paced serving degraded the sampler beyond the 25% bound");
        std::process::exit(1);
    }
}
