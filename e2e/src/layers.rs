//! The traced run: per-layer metrics from spans around each layer's public
//! calls. A layer only reachable inside another public call is timed on an
//! identically seeded twin and subtracted. None of these numbers gate a PR.

use crate::counting_io::{CountingIo, ScratchDir};
use crate::stats;
use crate::sut::{self, Durable, StoreIo, TwinView};
use crate::trace::{Probe, Tracer};
use crate::workloads::{
    self as wl, group_means, timed, Inputs, Phases, Rep, Spec, Twins, CLIENT_PERIOD,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric: (name, unit, better). Each traced run prints
/// all of them; one that the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("mcmc.walk_ns_per_step", "ns", "lower"),
    ("mcmc.accept_ratio", "ratio", "higher"),
    ("mcmc.net_changes_per_interval", "count", "lower"),
    ("pdb.step_us_per_interval", "us", "lower"),
    ("pdb.writeback_us_per_interval", "us", "lower"),
    ("pdb.writeback_ns_per_row", "ns", "lower"),
    ("delta.rows_per_interval", "count", "lower"),
    ("view.apply_us.q1", "us", "lower"),
    ("view.apply_us.q2", "us", "lower"),
    ("view.apply_us.q3", "us", "lower"),
    ("view.apply_us.q4", "us", "lower"),
    ("view.apply_us.closure", "us", "lower"),
    ("view.apply_us.n_on", "us", "lower"),
    ("view.build_ms.q1", "ms", "lower"),
    ("view.build_ms.q2", "ms", "lower"),
    ("view.build_ms.q3", "ms", "lower"),
    ("view.build_ms.q4", "ms", "lower"),
    ("view.build_ms.closure", "ms", "lower"),
    ("view.build_ms.n_on", "ms", "lower"),
    ("view.out_rows_per_interval", "count", "lower"),
    ("marginals.record_us_per_interval", "us", "lower"),
    ("marginals.support_rows", "count", "lower"),
    ("marginals.read_us", "us", "lower"),
    ("evaluate.observe_us_per_interval", "us", "lower"),
    ("interval.p50_us", "us", "lower"),
    ("interval.p95_us", "us", "lower"),
    ("interval.max_us", "us", "lower"),
    ("interval.unattributed_pct", "%", "lower"),
    ("sql.compile_us", "us", "lower"),
    ("exec.run_ms.q1", "ms", "lower"),
    ("exec.run_ms.q2", "ms", "lower"),
    ("exec.run_ms.q3", "ms", "lower"),
    ("exec.run_ms.q4", "ms", "lower"),
    ("exec.run_ms.pk", "ms", "lower"),
    ("exec.run_ms.closure", "ms", "lower"),
    ("snapshot.clone_ms", "ms", "lower"),
    ("snapshot.drop_ms", "ms", "lower"),
    ("wal.append_us_per_interval", "us", "lower"),
    ("wal.bytes_per_interval", "bytes", "lower"),
    ("wal.fsyncs_per_1k_intervals", "count", "lower"),
    ("checkpoint.ms", "ms", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("recover.ms", "ms", "lower"),
    ("recover.us_per_replayed_interval", "us", "lower"),
    ("serving.intervals_per_s", "1/s", "higher"),
    ("serving.epochs_per_s", "1/s", "higher"),
    ("serving.epoch_age_p50_ms", "ms", "lower"),
    ("serving.pin_us", "us", "lower"),
    ("serving.replica_us_per_interval", "us", "lower"),
    ("serving.unattributed_us_per_interval", "us", "lower"),
    ("serving.load_cost_pct", "%", "lower"),
    ("wire.ping_p50_us", "us", "lower"),
    ("wire.status_minus_ping_us", "us", "lower"),
    ("wire.adhoc_overhead_ms", "ms", "lower"),
    ("wire.answer_p95_us", "us", "lower"),
    ("wire.adhoc_p95_ms", "ms", "lower"),
    ("wire.answer_rows", "count", "lower"),
    ("wire.failed_requests", "count", "lower"),
    ("setup.corpus_s", "s", "lower"),
    ("setup.train_s", "s", "lower"),
    ("setup.load_s", "s", "lower"),
    ("setup.burnin_s", "s", "lower"),
    ("setup.materialize_s", "s", "lower"),
    ("setup.open_durable_s", "s", "lower"),
    ("setup.spawn_s", "s", "lower"),
    ("mem.rss_after_setup_mb", "MB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Intervals logged before the timed recovery, and run by the replica of
/// the supervised loop.
const LOGGED_INTERVALS: usize = 512;

/// The per-layer values of one traced run.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    pub rep: Rep,
    /// Written to `e2e/out/trace-<workload>.json` by the caller.
    pub tracer: Tracer,
}

impl Layers {
    fn new() -> Layers {
        Layers {
            values: BTreeMap::new(),
            rep: Rep::default(),
            tracer: Tracer::new(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        match PER_LAYER.iter().find(|(n, _, _)| *n == name) {
            Some((n, _, _)) => {
                self.values.insert(n, value);
            }
            None => self
                .rep
                .errors
                .push(format!("`{name}` is not a declared per-layer metric")),
        }
    }

    fn set_phases(&mut self, p: &Phases) {
        self.set("setup.corpus_s", p.corpus_s);
        self.set("setup.train_s", p.train_s);
        self.set("setup.load_s", p.load_s);
        self.set("setup.burnin_s", p.burnin_s);
        self.set("setup.materialize_s", p.materialize_s);
        self.set("setup.open_durable_s", p.open_durable_s);
        self.set("setup.spawn_s", p.spawn_s);
        self.set("mem.rss_after_setup_mb", rss_mb());
    }

    /// Every declared metric in declaration order; 0 where not exercised.
    pub fn all(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|(n, unit, _)| (*n, *unit, self.values.get(n).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Resident set size from /proc/self/status, in MB (0 where unavailable).
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn trace(spec: &Spec, seed: u64) -> Layers {
    let mut layers = Layers::new();
    let result = if spec.served_window.is_some() {
        trace_served(spec, seed, &mut layers)
    } else {
        trace_in_process(spec, seed, &mut layers)
    };
    if let Err(e) = result {
        layers.rep.errors.push(e);
    }
    layers
}

// ------------------------------------------------------------ in-process ----

fn trace_in_process(spec: &Spec, seed: u64, l: &mut Layers) -> Result<(), String> {
    // Tracing off first: the reference `trace.overhead_pct` compares with.
    let untraced = wl::run_in_process(spec, seed, false);
    let untraced_steps_per_s = untraced.steps_per_s();
    l.rep.errors.extend(untraced.errors);

    let (inputs, mut m, phases, _) = wl::setup_in_process(spec, seed)?;
    // The registered views were materialised inside `register`; the twins
    // time compilation + initial materialisation one view at a time.
    let mut views = Vec::new();
    for (name, sql) in &inputs.registered {
        let plan = sut::compile(sql, m.pdb.database())?;
        let (view, s) = timed(|| TwinView::build(&plan, m.pdb.database()));
        l.set(&format!("view.build_ms.{name}"), s * 1e3);
        views.push(view?);
    }
    l.set_phases(&phases);
    let mut twins = Some(Twins {
        chain: inputs.twin_chain(spec, seed, m.pdb.variables())?,
        views,
        net_changes: 0,
        out_rows: 0,
    });

    let (proposals0, accepted0) = m.pdb.proposals_accepted();
    let out = wl::sample_phase(spec, &mut m, &mut l.rep, &mut l.tracer, &mut twins);
    let (proposals1, accepted1) = m.pdb.proposals_accepted();
    let twins = twins.expect("set above");
    let n = spec.intervals as f64;
    let steps = n * spec.k as f64;
    let t = &l.tracer;
    let (interval_s, step_s, walk_s) = (
        t.total_s("interval"),
        t.total_s("pdb.step"),
        t.total_s("mcmc.walk"),
    );
    let apply_s = t.total_prefix_s("view.apply.");
    let record_s = t.total_prefix_s("marginals.record.");
    let observe_s = t.total_prefix_s("evaluate.observe.");
    let per_query: Vec<(String, f64)> = spec
        .registered
        .iter()
        .map(|q| {
            (
                format!("view.apply_us.{q}"),
                t.total_s(&format!("view.apply.{q}")) / n * 1e6,
            )
        })
        .collect();
    let (p50, p95, max) = (
        t.percentile_s("interval", 0.5),
        t.percentile_s("interval", 0.95),
        t.percentile_s("interval", 1.0),
    );
    l.set("mcmc.walk_ns_per_step", walk_s / steps * 1e9);
    l.set(
        "mcmc.accept_ratio",
        (accepted1 - accepted0) as f64 / (proposals1 - proposals0).max(1) as f64,
    );
    l.set(
        "mcmc.net_changes_per_interval",
        twins.net_changes as f64 / n,
    );
    l.set("pdb.step_us_per_interval", step_s / n * 1e6);
    // Write-back is only reachable inside `step`: step − twin walk.
    l.set("pdb.writeback_us_per_interval", (step_s - walk_s) / n * 1e6);
    l.set(
        "pdb.writeback_ns_per_row",
        (step_s - walk_s) / out.delta_rows.max(1) as f64 * 1e9,
    );
    l.set("delta.rows_per_interval", out.delta_rows as f64 / n);
    for (name, us) in per_query {
        l.set(&name, us);
    }
    l.set("view.out_rows_per_interval", twins.out_rows as f64 / n);
    l.set("marginals.record_us_per_interval", record_s / n * 1e6);
    l.set(
        "marginals.support_rows",
        m.regs.iter().map(|r| r.support_rows()).sum::<usize>() as f64,
    );
    l.set("evaluate.observe_us_per_interval", observe_s / n * 1e6);
    l.set("interval.p50_us", p50 * 1e6);
    l.set("interval.p95_us", p95 * 1e6);
    l.set("interval.max_us", max * 1e6);
    // What the twins do not explain: evaluator glue around view and
    // marginal table, span bookkeeping, loop overhead.
    l.set(
        "interval.unattributed_pct",
        (interval_s - step_s - apply_s - record_s) / interval_s * 100.0,
    );
    let traced_steps_per_s = steps / interval_s;
    l.set(
        "trace.overhead_pct",
        (untraced_steps_per_s - traced_steps_per_s) / untraced_steps_per_s * 100.0,
    );

    l.set(
        "marginals.read_us",
        l.tracer.percentile_s("marginals.read", 0.5) * 1e6,
    );

    trace_adhoc(spec, &inputs, m.pdb.database(), l)?;
    trace_snapshot(&m.pdb, l);
    wl::check_in_process(&m, &mut l.rep);
    Ok(())
}

/// `compile_query` and `execute` timed apart, per query of the ad hoc list.
fn trace_adhoc(
    spec: &Spec,
    inputs: &Inputs,
    db: &sut::Database,
    l: &mut Layers,
) -> Result<(), String> {
    let n_compile = l.tracer.name("sql.compile");
    let mut run_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for pass in 0..spec.adhoc_passes.clamp(1, 2) {
        for (label, sql) in inputs.adhoc.iter().chain(&inputs.traced_only) {
            let s = l.tracer.enter(n_compile, pass);
            let plan = sut::compile(sql, db);
            l.tracer.exit(s);
            let n_run = l.tracer.name(&format!("exec.run.{label}"));
            let s = l.tracer.enter(n_run, pass);
            let (rows, secs) = timed(|| sut::run_plan(&plan?, db));
            l.tracer.exit(s);
            std::hint::black_box(rows?.len());
            run_ms.entry(label).or_default().push(secs * 1e3);
        }
    }
    l.set(
        "sql.compile_us",
        l.tracer.percentile_s("sql.compile", 0.5) * 1e6,
    );
    for (label, ms) in run_ms {
        // The LINK list's count and reachability queries have no metric of
        // their own.
        let name = format!("exec.run_ms.{label}");
        if PER_LAYER.iter().any(|(n, _, _)| *n == name) {
            l.set(&name, stats::median(&ms));
        }
    }
    Ok(())
}

/// `Database::snapshot` is O(|store|): what every epoch publication pays.
fn trace_snapshot(pdb: &sut::Pdb, l: &mut Layers) {
    let (mut clone_ms, mut drop_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (snap, s) = timed(|| pdb.snapshot_database());
        clone_ms.push(s * 1e3);
        let ((), s) = timed(|| drop(snap));
        drop_ms.push(s * 1e3);
    }
    l.set("snapshot.clone_ms", stats::median(&clone_ms));
    l.set("snapshot.drop_ms", stats::median(&drop_ms));
}

// ---------------------------------------------------------------- served ----

fn trace_served(spec: &Spec, seed: u64, l: &mut Layers) -> Result<(), String> {
    let window = spec.served_window.expect("served spec has a window");
    // Tracing off first (client-side spans cost the sampler nothing, but the
    // comparison is made the same way on every workload).
    let untraced = wl::run_served(spec, seed);
    let untraced_steps_per_s = untraced.steps_per_s();
    l.rep.errors.extend(untraced.errors);

    let mut phases = Phases::default();
    let inputs = Inputs::generate(spec, seed, &mut phases)?;
    trace_durability(spec, &inputs, seed, l)?;
    let replica_us = trace_replica(spec, &inputs, seed, l)?;

    // The served repetition again, with spans around every client call.
    let io: Arc<dyn StoreIo> = CountingIo::over_real();
    let (inputs, mut s) = wl::setup_served(spec, Some(inputs), seed, Arc::clone(&io))?;
    s.phases.corpus_s = phases.corpus_s;
    s.phases.train_s = phases.train_s;
    l.set_phases(&s.phases);
    let mut rep = Rep::default();
    let out = wl::serve_window(window, &inputs, &mut s, &mut rep, &mut l.tracer);
    let steps_per_s = out.steps as f64 / out.elapsed_s;
    let intervals_per_s = out.intervals as f64 / out.elapsed_s;
    l.set("serving.intervals_per_s", intervals_per_s);
    l.set("serving.epochs_per_s", out.epochs as f64 / out.elapsed_s);
    l.set(
        "serving.epoch_age_p50_ms",
        stats::median(&out.staleness_steps) / steps_per_s * 1e3,
    );
    l.set("serving.replica_us_per_interval", replica_us);
    // Real served interval − replica: status cloning, the epoch swap, and
    // contention with the client — what only spans inside the program
    // (ROADMAP item 2) can split further.
    l.set(
        "serving.unattributed_us_per_interval",
        1e6 / intervals_per_s - replica_us,
    );
    l.set(
        "trace.overhead_pct",
        (untraced_steps_per_s - steps_per_s) / untraced_steps_per_s * 100.0,
    );
    let status_us: Vec<f64> = out.status_s.iter().map(|s| s * 1e6).collect();
    let query_ms: Vec<f64> = out.query_s.iter().map(|s| s * 1e3).collect();
    l.set("wire.answer_p95_us", stats::percentile(&status_us, 0.95));
    l.set("wire.adhoc_p95_ms", stats::percentile(&query_ms, 0.95));
    l.set("wire.answer_rows", out.answer_rows as f64);

    // Paced pings on the same connection, sampler still running.
    let n_ping = l.tracer.name("wire.ping");
    let t0 = Instant::now();
    let mut tick = 0u32;
    while t0.elapsed() < window / 3 {
        let sp = l.tracer.enter(n_ping, tick as usize);
        rep.attempted += 1;
        if let Err(e) = s.conn.ping() {
            rep.failed += 1;
            rep.errors.push(format!("ping: {e}"));
        }
        l.tracer.exit(sp);
        tick += 1;
        if let Some(wait) = (CLIENT_PERIOD * tick).checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
    }
    let ping_us = l.tracer.percentile_s("wire.ping", 0.5) * 1e6;
    l.set("wire.ping_p50_us", ping_us);
    l.set(
        "wire.status_minus_ping_us",
        stats::median(&status_us) - ping_us,
    );

    // The same ad hoc list in process on the freshest epoch: the wire's share.
    let n_pin = l.tracer.name("serving.pin");
    let mut in_process_ms = Vec::new();
    for pass in 0..2 {
        for (label, sql) in &inputs.adhoc {
            let sp = l.tracer.enter(n_pin, pass);
            std::hint::black_box(s.served.pin_epoch());
            l.tracer.exit(sp);
            let (rows, secs) = timed(|| s.served.query_in_process(sql));
            if let Err(e) = rows {
                rep.errors.push(format!("in-process {label}: {e}"));
            }
            in_process_ms.push(secs * 1e3);
            std::thread::sleep(CLIENT_PERIOD);
        }
    }
    l.set(
        "serving.pin_us",
        l.tracer.percentile_s("serving.pin", 0.5) * 1e6,
    );
    let per_list = group_means(&query_ms, inputs.adhoc.len());
    l.set(
        "wire.adhoc_overhead_ms",
        stats::median(&per_list) - stats::median(&group_means(&in_process_ms, inputs.adhoc.len())),
    );
    wl::check_served(&inputs, spec, s, io, &mut rep);
    l.set("wire.failed_requests", rep.failed as f64);

    // One repetition with no client at all: what serving the client costs.
    let (_, s) = wl::setup_served(spec, Some(inputs), seed, sut::real_io())?;
    let (steps0, t0) = (s.served.live().steps, Instant::now());
    std::thread::sleep(window);
    let idle_steps_per_s = (s.served.live().steps - steps0) as f64 / t0.elapsed().as_secs_f64();
    l.set(
        "serving.load_cost_pct",
        (idle_steps_per_s - steps_per_s) / idle_steps_per_s * 100.0,
    );
    drop(s.conn);
    s.served.stop()?.close()?;

    l.rep.attempted += rep.attempted;
    l.rep.failed += rep.failed;
    l.rep.errors.extend(rep.errors);
    Ok(())
}

/// WAL, checkpoint and recovery: a durable database over the counting I/O
/// and an identically seeded plain twin, `LOGGED_INTERVALS` intervals each.
fn trace_durability(spec: &Spec, inputs: &Inputs, seed: u64, l: &mut Layers) -> Result<(), String> {
    let mut phases = Phases::default();
    let scratch = ScratchDir::new("durability").map_err(|e| e.to_string())?;
    let io = CountingIo::over_real();
    let dyn_io: Arc<dyn StoreIo> = io.clone();
    let mut plain = inputs.mount(spec, seed, &mut phases)?;
    let mut durable = inputs
        .mount(spec, seed, &mut phases)?
        .open_durable(scratch.path(), Arc::clone(&dyn_io))?;
    let wal0 = io.totals("wal");
    let (n_durable, n_plain) = (l.tracer.name("durable.step"), l.tracer.name("pdb.step"));
    for i in 0..LOGGED_INTERVALS {
        let s = l.tracer.enter(n_durable, i);
        durable.step(spec.k)?;
        l.tracer.exit(s);
        let s = l.tracer.enter(n_plain, i);
        plain.step(spec.k)?;
        l.tracer.exit(s);
    }
    let n = LOGGED_INTERVALS as f64;
    let wal = io.totals("wal") - wal0;
    let (durable_s, plain_s) = (
        l.tracer.total_s("durable.step"),
        l.tracer.total_s("pdb.step"),
    );
    l.set("pdb.step_us_per_interval", plain_s / n * 1e6);
    // The append is only reachable inside `DurablePdb::step`: − twin step.
    l.set(
        "wal.append_us_per_interval",
        (durable_s - plain_s) / n * 1e6,
    );
    l.set("wal.bytes_per_interval", wal.bytes as f64 / n);
    l.set("wal.fsyncs_per_1k_intervals", wal.fsyncs as f64 / n * 1e3);
    let identity = durable.identity();
    durable.close()?;

    let (model, uniform) = (inputs.model()?, Inputs::uniform(spec));
    let ((mut durable, replayed), with_log_s) =
        timed_ok(|| Durable::recover(scratch.path(), Arc::clone(&dyn_io), model, uniform))?;
    if replayed != LOGGED_INTERVALS as u64 || durable.identity() != identity {
        l.rep.errors.push(format!(
            "recovery replayed {replayed} of {LOGGED_INTERVALS} intervals, identity {:?} vs {identity:?}",
            durable.identity()
        ));
    }
    l.set("recover.ms", with_log_s * 1e3);
    let snap0 = io.totals("snapshot");
    let ((), checkpoint_s) = timed_ok(|| durable.checkpoint())?;
    l.set("checkpoint.ms", checkpoint_s * 1e3);
    l.set(
        "checkpoint.bytes",
        (io.totals("snapshot") - snap0).bytes as f64,
    );
    durable.close()?;
    // Snapshot only: the difference is what replaying the log costs.
    let ((durable, _), snapshot_only_s) =
        timed_ok(|| Durable::recover(scratch.path(), dyn_io, model, uniform))?;
    l.set(
        "recover.us_per_replayed_interval",
        (with_log_s - snapshot_only_s) / n * 1e6,
    );
    durable.close()
}

fn timed_ok<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let (out, s) = timed(f);
    out.map(|v| (v, s))
}

/// A harness-side replica of the supervised loop, from public calls only:
/// durable step + observe every registered view + `snapshot()` every
/// `publish_every` + `checkpoint()` every `checkpoint_every`. Returns µs
/// per interval.
fn trace_replica(spec: &Spec, inputs: &Inputs, seed: u64, l: &mut Layers) -> Result<f64, String> {
    let (k, publish_every, checkpoint_every) = sut::supervisor_defaults();
    let mut phases = Phases::default();
    let scratch = ScratchDir::new("replica").map_err(|e| e.to_string())?;
    let mut durable = inputs
        .mount(spec, seed, &mut phases)?
        .open_durable(scratch.path(), sut::real_io())?;
    let mut regs = inputs
        .registered
        .iter()
        .map(|(_, sql)| durable.register(sql, k))
        .collect::<Result<Vec<_>, _>>()?;
    let names = [
        "replica.interval",
        "replica.observe",
        "replica.snapshot",
        "replica.snapshot_drop",
        "replica.checkpoint",
    ]
    .map(|n| l.tracer.name(n));
    for i in 1..=LOGGED_INTERVALS {
        let iv = l.tracer.enter(names[0], i);
        let delta = durable.step(k)?;
        let s = l.tracer.enter(names[1], i);
        for reg in &mut regs {
            reg.observe(&delta, durable.database())?;
        }
        l.tracer.exit(s);
        if i % publish_every == 0 {
            let s = l.tracer.enter(names[2], i);
            let snap = durable.snapshot_database();
            l.tracer.exit(s);
            let s = l.tracer.enter(names[3], i);
            drop(snap);
            l.tracer.exit(s);
        }
        if checkpoint_every > 0 && i % checkpoint_every == 0 {
            let s = l.tracer.enter(names[4], i);
            durable.checkpoint()?;
            l.tracer.exit(s);
        }
        l.tracer.exit(iv);
    }
    let n = LOGGED_INTERVALS as f64;
    let t = &l.tracer;
    let per_interval_us = t.total_s("replica.interval") / n * 1e6;
    let (clone_ms, drop_ms, observe_us) = (
        t.percentile_s("replica.snapshot", 0.5) * 1e3,
        t.percentile_s("replica.snapshot_drop", 0.5) * 1e3,
        t.total_s("replica.observe") / n * 1e6,
    );
    l.set("snapshot.clone_ms", clone_ms);
    l.set("snapshot.drop_ms", drop_ms);
    l.set("evaluate.observe_us_per_interval", observe_us);
    durable.close()?;
    Ok(per_interval_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in PER_LAYER {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(["higher", "lower"].contains(better));
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
