//! fgdb's end-to-end, layer-attributed benchmark. See README.md.
//!
//! ```text
//! e2e [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--report PATH]
//! e2e --compare a.json… -- b.json…
//! ```

mod counting_io;
mod json;
mod layers;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::Json;
use report::WorkloadResult;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Rep, Spec};

const USAGE: &str = "usage: e2e [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
[--smoke] [--report PATH]\n       e2e --compare a.json… -- b.json…\n\
workloads: views_100k walk_500k closure_links serve_100k (default: all, interleaved)";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    /// Measuring budget per workload: repetitions start while it lasts.
    seconds: f64,
    trace: bool,
    smoke: bool,
    report: Option<PathBuf>,
    compare: Option<(Vec<String>, Vec<String>)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        report: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if workloads::spec(&name, true).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workloads.push(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            // `--trace` alone means on; the pipeline passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--report" => args.report = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                let rest: Vec<String> = it.by_ref().cloned().collect();
                let mut sets = rest.split(|a| a == "--");
                let a = sets.next().unwrap_or_default().to_vec();
                let b = sets.next().unwrap_or_default().to_vec();
                if a.is_empty() || b.is_empty() {
                    return Err("--compare needs two sets of reports separated by `--`".into());
                }
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = workloads::NAMES.map(String::from).to_vec();
    }
    Ok(args)
}

/// No knob may leak into a run: the program under test receives only the
/// generated inputs, never FGDB_VIEW_BACKEND, FGDB_FSYNC, FGDB_SCALE, ….
fn scrub_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("FGDB_") {
            std::env::remove_var(key);
        }
    }
}

/// Where the numbers were taken, so reports from different boxes are never
/// compared silently.
fn machine(args: &Args) -> Json {
    let command = |program: &str, argv: &[&str]| {
        std::process::Command::new(program)
            .args(argv)
            .current_dir(counting_io::out_dir().join(".."))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu", Json::Str(cpu)),
        (
            "commit",
            Json::Str(command("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::Str(command("rustc", &["-V"]))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
    ])
}

/// The repetitions of one workload within an invocation.
struct Running {
    spec: Spec,
    reps: Vec<Rep>,
    spent_s: f64,
}

impl Running {
    fn finish(self) -> WorkloadResult {
        let mut errors: Vec<String> = self.reps.iter().flat_map(|r| r.errors.clone()).collect();
        // Work is fixed: the same seed must leave the same fingerprint.
        let prints: Vec<_> = self.reps.iter().filter_map(|r| r.fingerprint).collect();
        if prints.windows(2).any(|w| w[0] != w[1]) {
            errors.push(format!(
                "fingerprints differ across repetitions: {prints:?}"
            ));
        }
        WorkloadResult {
            name: self.spec.name,
            repetitions: self.reps.len(),
            attempted: self.reps.iter().map(|r| r.attempted).sum(),
            failed: self.reps.iter().map(|r| r.failed).sum(),
            errors,
            fingerprint: prints.first().copied(),
            end_to_end: report::summarize(&self.reps),
            per_layer: Vec::new(),
        }
    }
}

/// Identical repetitions, interleaved round-robin across the selected
/// workloads (A B C D, A B C D, …) so each samples the whole invocation's
/// time span; a workload stops starting repetitions once its own have
/// used up the budget.
fn run_untraced(specs: Vec<Spec>, args: &Args) -> Vec<WorkloadResult> {
    let mut running: Vec<Running> = specs
        .into_iter()
        .map(|spec| Running {
            spec,
            reps: Vec::new(),
            spent_s: 0.0,
        })
        .collect();
    loop {
        let mut progressed = false;
        for r in &mut running {
            let within_budget = if args.smoke {
                r.reps.is_empty()
            } else {
                r.spent_s < args.seconds
            };
            if within_budget {
                let t0 = Instant::now();
                let rep = workloads::run(&r.spec, args.seed, r.reps.is_empty());
                r.spent_s += t0.elapsed().as_secs_f64();
                eprintln!(
                    "{} rep {}: setup {:.3} s, {:.0} steps/s, answer {:.2} us, ad hoc {:.3} ms ({:.1} s)",
                    r.spec.name,
                    r.reps.len() + 1,
                    rep.setup_s,
                    rep.steps_per_s(),
                    rep.answer_p50_us(),
                    rep.adhoc_p50_ms(),
                    t0.elapsed().as_secs_f64()
                );
                r.reps.push(rep);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    running.into_iter().map(Running::finish).collect()
}

/// One traced run per selected workload; spans go to
/// `e2e/out/trace-<workload>.json`.
fn run_traced(specs: Vec<Spec>, args: &Args) -> Vec<WorkloadResult> {
    specs
        .into_iter()
        .map(|spec| {
            let mut layers = layers::trace(&spec, args.seed);
            let path = counting_io::out_dir().join(format!("trace-{}.json", spec.name));
            if let Err(e) = std::fs::write(&path, layers.tracer.to_json().render()) {
                layers.rep.errors.push(format!("{}: {e}", path.display()));
            }
            WorkloadResult {
                name: spec.name,
                repetitions: 1,
                attempted: layers.rep.attempted.max(1),
                failed: layers.rep.failed,
                per_layer: layers.all(),
                errors: layers.rep.errors,
                fingerprint: None,
                end_to_end: Vec::new(),
            }
        })
        .collect()
}

fn print_result(w: &WorkloadResult) {
    println!(
        "\n== {} — {} repetition(s), {} attempted, {} failed, {} ==",
        w.name,
        w.repetitions,
        w.attempted,
        w.failed,
        if w.correct() { "correct" } else { "INCORRECT" }
    );
    for e in &w.errors {
        println!("  ! {e}");
    }
    for s in &w.end_to_end {
        println!(
            "  {:<16} {:>16.4} {:<4}  (median {:.4}, q1 {:.4}, q3 {:.4} over {} repetitions)",
            s.name,
            s.value,
            s.unit,
            s.median,
            s.q1,
            s.q3,
            s.per_rep.len()
        );
    }
    for (name, unit, value) in &w.per_layer {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
}

fn main() -> ExitCode {
    scrub_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("e2e: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(counting_io::out_dir()) {
        eprintln!("e2e: {}: {e}", counting_io::out_dir().display());
        return ExitCode::from(2);
    }
    let specs: Vec<Spec> = args
        .workloads
        .iter()
        .filter_map(|w| workloads::spec(w, args.smoke))
        .collect();
    let results = if args.trace {
        run_traced(specs, &args)
    } else {
        run_untraced(specs, &args)
    };

    results.iter().for_each(print_result);
    let correct = results.iter().all(WorkloadResult::correct);
    if let Some(path) = &args.report {
        let report = Json::obj([
            ("benchmark", Json::str("e2e")),
            ("machine", machine(&args)),
            ("trace", Json::Bool(args.trace)),
            (
                "workloads",
                Json::obj(results.iter().map(|w| (w.name, w.to_json()))),
            ),
            // This benchmark measures; it claims no gain.
            ("claim", Json::Null),
        ]);
        if let Err(e) = std::fs::write(path, report.render() + "\n") {
            eprintln!("e2e: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    // One workload: metrics by their plain names, as BENCHMARK.json lists
    // them. Several: prefixed with the workload.
    let single = results.len() == 1;
    let metrics = results.iter().flat_map(|w| {
        w.metrics().into_iter().map(move |(name, v)| {
            if single {
                (name, v)
            } else {
                (format!("{}.{name}", w.name), v)
            }
        })
    });
    let last = Json::obj([
        ("correct", Json::Bool(correct)),
        (
            "attempted",
            Json::Num(results.iter().map(|w| w.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::Num(results.iter().map(|w| w.failed).sum::<u64>() as f64),
        ),
        ("metrics", Json::Obj(metrics.collect())),
    ]);
    println!("{}", last.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sut.rs` is the one adapter: no other source file may name a crate
    /// of the system under test, so planned API deletions cannot reach the
    /// harness.
    #[test]
    fn only_the_adapter_names_the_system_under_test() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let needle = ["fgdb", "_"].concat();
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap() == "sut.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(
                !text.contains(&needle),
                "{} names an {needle}* path; route it through sut.rs",
                path.display()
            );
        }
    }

    #[test]
    fn the_pipelines_command_line_parses() {
        let argv: Vec<String> = "--workload walk_500k --seed 7 --seconds 20 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workloads, ["walk_500k"]);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 20.0, false));
        let bare: Vec<String> = ["--trace", "--smoke"].map(String::from).to_vec();
        let args = parse_args(&bare).unwrap();
        assert!(args.trace && args.smoke && args.workloads.len() == 4);
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--compare".into(), "a.json".into()]).is_err());
    }
}
