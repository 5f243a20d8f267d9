//! Runs the real binary at `--smoke` sizes (R = 1, a few seconds) and holds
//! its output to the contract `BENCHMARK.json` describes.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["views_100k", "walk_500k", "closure_links", "serve_100k"];
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("answer_p50_us", "us"),
    ("adhoc_p50_ms", "ms"),
];

/// `{"name":{"value":V,"unit":"U"},…}` → name → (V, U), failing on a name
/// that occurs twice. Metric objects are flat, so a scan is enough here;
/// the binary's own parser is unit-tested in `json.rs`.
fn metrics(last_line: &str) -> BTreeMap<String, (f64, String)> {
    let body = last_line
        .split_once("\"metrics\":{")
        .expect("final line has a metrics object")
        .1;
    let mut out = BTreeMap::new();
    for entry in body.split("},") {
        let entry = entry.trim_end_matches('}');
        if entry.is_empty() {
            continue;
        }
        let (name, rest) = entry.split_once("\":{\"value\":").expect("name:{value");
        let (value, unit) = rest.split_once(",\"unit\":\"").expect("value,unit");
        let previous = out.insert(
            name.trim_start_matches('"').to_string(),
            (
                value.parse::<f64>().expect("numeric value"),
                unit.trim_end_matches('"').to_string(),
            ),
        );
        assert!(previous.is_none(), "{name} printed twice");
    }
    out
}

/// Runs `e2e --smoke <args>`; returns (whole stdout, last line).
fn smoke(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .arg("--smoke")
        .args(args)
        .output()
        .expect("run e2e");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "e2e --smoke {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output").to_string();
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":") && last.contains(",\"failed\":0,"),
        "final line: {last}"
    );
    (stdout, last)
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    // All four at once: metrics carry the workload as a prefix.
    let (stdout, last) = smoke(&[]);
    let m = metrics(&last);
    assert_eq!(m.len(), 16, "{last}");
    for w in WORKLOADS {
        assert!(
            stdout.contains(&format!("== {w} — 1 repetition(s)")),
            "{stdout}"
        );
        for (name, unit) in END_TO_END {
            let (value, got_unit) = &m[&format!("{w}.{name}")];
            assert_eq!(got_unit, unit, "{w}.{name}");
            assert!(value.is_finite() && *value > 0.0, "{w}.{name} = {value}");
        }
    }
}

#[test]
fn one_workload_prints_plain_names_as_the_pipeline_invokes_it() {
    let (_, last) = smoke(&[
        "--workload",
        "closure_links",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    let m = metrics(&last);
    let names: Vec<&str> = m.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        ["adhoc_p50_ms", "answer_p50_us", "setup_s", "steps_per_s"]
    );
}

#[test]
fn a_traced_run_prints_every_per_layer_metric_exactly_once() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    // What each workload must actually exercise (non-zero), by prefix.
    let exercised: [(&str, &[&str]); 4] = [
        (
            "views_100k",
            &[
                "mcmc.",
                "pdb.",
                "view.apply_us.q4",
                "view.build_ms.q1",
                "marginals.",
                "interval.p50_us",
                "exec.run_ms.pk",
                "snapshot.",
                "setup.load_s",
            ],
        ),
        (
            "walk_500k",
            &[
                "mcmc.",
                "pdb.",
                "view.apply_us.q2",
                "marginals.read_us",
                "exec.run_ms.q3",
                "setup.train_s",
            ],
        ),
        (
            "closure_links",
            &[
                "view.apply_us.closure",
                "view.apply_us.n_on",
                "view.build_ms.closure",
                "exec.run_ms.closure",
                "interval.max_us",
            ],
        ),
        (
            "serve_100k",
            &[
                "wal.",
                "checkpoint.",
                "recover.ms",
                "serving.intervals_per_s",
                "serving.replica_us_per_interval",
                "wire.ping_p50_us",
                "wire.answer_rows",
                "setup.open_durable_s",
                "setup.spawn_s",
                "snapshot.clone_ms",
            ],
        ),
    ];
    for (w, prefixes) in exercised {
        let (_, last) = smoke(&["--workload", w, "--trace", "1"]);
        let m = metrics(&last);
        // Exactly the per-layer names BENCHMARK.json declares — no more
        // (no end-to-end metric in a traced run), no fewer.
        for name in m.keys() {
            assert!(
                declared.contains(&format!(
                    "{{\"name\": \"{name}\", \"unit\": \"{}\"",
                    m[name].1
                )),
                "{w}: {name} ({}) is not declared in BENCHMARK.json per_layer",
                m[name].1
            );
        }
        let per_layer = declared
            .split_once("\"per_layer\"")
            .expect("per_layer section")
            .1;
        assert_eq!(m.len(), per_layer.matches("\"name\":").count(), "{w}");
        for prefix in prefixes {
            let hit: Vec<_> = m.iter().filter(|(n, _)| n.starts_with(prefix)).collect();
            assert!(!hit.is_empty(), "{w}: nothing under {prefix}");
            for (name, (value, _)) in hit {
                assert!(value.is_finite() && *value != 0.0, "{w}: {name} = {value}");
            }
        }
        let trace =
            std::fs::read_to_string(format!("{}/out/trace-{w}.json", env!("CARGO_MANIFEST_DIR")))
                .expect("trace file written");
        assert!(
            trace.starts_with("{\"names\":[") && trace.contains("\"spans\":[["),
            "{w}"
        );
    }
}

#[test]
fn scratch_directories_do_not_outlive_the_run() {
    smoke(&["--workload", "serve_100k"]);
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    for entry in std::fs::read_dir(out).expect("e2e/out exists") {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        // Concurrent tests own scratch dirs while they run; none may be
        // left by a process that has exited.
        if let Some(rest) = name.strip_prefix("scratch-") {
            let pid = rest
                .split('-')
                .rev()
                .nth(1)
                .and_then(|p| p.parse::<u32>().ok());
            let alive = pid.is_some_and(|p| std::path::Path::new(&format!("/proc/{p}")).exists());
            assert!(alive, "{name} was left behind");
        }
    }
}
