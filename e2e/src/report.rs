//! End-to-end metric definitions, per-run summaries, the JSON report, and
//! the `--compare` noise comparator.

use crate::json::Json;
use crate::stats;
use crate::workloads::{Fingerprint, Rep, NAMES};

/// The four end-to-end metrics: (name, unit, higher is better).
pub const END_TO_END: [(&str, &str, bool); 4] = [
    ("setup_s", "s", false),
    ("steps_per_s", "1/s", true),
    ("answer_p50_us", "us", false),
    ("adhoc_p50_ms", "ms", false),
];

/// The share of the other side's median by which a metric may be worse
/// before `--compare` fails: the issue's starting values, widened where
/// NOISE.md's studies saw more than half of them (`walk_500k` throughput
/// and ad hoc time, `closure_links` throughput). `BENCHMARK.json` can carry
/// only one bound per metric; see NOISE.md for how it was chosen.
pub fn bound(workload: &str, metric: &str) -> f64 {
    match (metric, workload) {
        ("setup_s", "closure_links") => 0.20,
        ("setup_s", _) => 0.15,
        ("steps_per_s", "views_100k") => 0.08,
        ("steps_per_s", "closure_links") => 0.15,
        ("steps_per_s", _) => 0.12,
        ("adhoc_p50_ms", "walk_500k") => 0.20,
        (_, "serve_100k") => 0.15,
        _ => 0.10,
    }
}

fn rep_value(rep: &Rep, metric: &str) -> f64 {
    match metric {
        "setup_s" => rep.setup_s,
        "steps_per_s" => rep.steps_per_s(),
        "answer_p50_us" => rep.answer_p50_us(),
        _ => rep.adhoc_p50_ms(),
    }
}

/// One metric over the repetitions of a run.
pub struct Summary {
    pub name: &'static str,
    pub unit: &'static str,
    /// The run's value: the least-disturbed measurement. Interference on
    /// this box only ever slows work down, so the fastest instance of a
    /// piece of work is the closest to its undisturbed cost.
    pub value: f64,
    /// Over the repetitions' own values, so the spread stays visible.
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub per_rep: Vec<f64>,
}

/// Element-wise minimum; pieces are compared only where every repetition
/// has them (a failed repetition may be short).
fn least_disturbed(rows: &[&Vec<f64>]) -> Vec<f64> {
    let len = rows.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| stats::min(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// The repetitions did the same work piece by piece, so the run is
/// assembled from each piece's least-disturbed repetition — a disturbance
/// lasting seconds then costs the pieces it hit, not a whole repetition.
/// An ad hoc query is the same work in every pass too (it reads; the store
/// keeps its size), so its piece is the statement, over passes and
/// repetitions alike.
pub fn summarize(reps: &[Rep]) -> Vec<Summary> {
    let pieces =
        |of: fn(&Rep) -> &Vec<f64>| least_disturbed(&reps.iter().map(of).collect::<Vec<_>>());
    let list_len = reps.first().map_or(1, |r| r.adhoc_list_len.max(1));
    let passes: Vec<Vec<f64>> = reps
        .iter()
        .flat_map(|r| r.adhoc_query_ms.chunks_exact(list_len))
        .map(<[f64]>::to_vec)
        .collect();
    let assembled = Rep {
        setup_s: stats::min(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        sample_s_per_step: pieces(|r| &r.sample_s_per_step),
        answer_round_us: pieces(|r| &r.answer_round_us),
        adhoc_query_ms: least_disturbed(&passes.iter().collect::<Vec<_>>()),
        adhoc_list_len: list_len,
        ..Rep::default()
    };
    END_TO_END
        .iter()
        .map(|&(name, unit, _)| {
            let per_rep: Vec<f64> = reps.iter().map(|r| rep_value(r, name)).collect();
            let (q1, q3) = stats::quartiles(&per_rep);
            Summary {
                name,
                unit,
                value: rep_value(&assembled, name),
                median: stats::median(&per_rep),
                q1,
                q3,
                per_rep,
            }
        })
        .collect()
}

/// A finished workload of one invocation.
pub struct WorkloadResult {
    pub name: &'static str,
    pub repetitions: usize,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub fingerprint: Option<Fingerprint>,
    pub end_to_end: Vec<Summary>,
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// `{name: {value, unit}}` for the final JSON line.
    pub fn metrics(&self) -> Vec<(String, Json)> {
        let pair =
            |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        self.end_to_end
            .iter()
            .map(|s| (s.name.to_string(), pair(s.value, s.unit)))
            .chain(
                self.per_layer
                    .iter()
                    .map(|(n, unit, v)| (n.to_string(), pair(*v, unit))),
            )
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        Json::obj([
            ("repetitions", Json::Num(self.repetitions as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("correct", Json::Bool(self.correct())),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
            (
                "fingerprint",
                self.fingerprint.map_or(Json::Null, |f| {
                    Json::obj([
                        ("steps", Json::Num(f.steps as f64)),
                        ("accepted", Json::Num(f.accepted as f64)),
                        ("delta_rows", Json::Num(f.delta_rows as f64)),
                        // 64 bits do not fit a JSON number.
                        (
                            "marginal_hash",
                            Json::str(format!("{:016x}", f.marginal_hash)),
                        ),
                    ])
                }),
            ),
            (
                "end_to_end",
                Json::obj(self.end_to_end.iter().map(|s| {
                    (
                        s.name,
                        Json::obj([
                            ("value", Json::Num(s.value)),
                            ("unit", Json::str(s.unit)),
                            ("median", Json::Num(s.median)),
                            ("q1", Json::Num(s.q1)),
                            ("q3", Json::Num(s.q3)),
                            ("repetitions", nums(&s.per_rep)),
                        ]),
                    )
                })),
            ),
            (
                "per_layer",
                Json::obj(self.per_layer.iter().map(|(n, unit, v)| {
                    (
                        *n,
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }
}

// --------------------------------------------------------------- compare ----

struct Side {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

fn side(reports: &[Json], workload: &str, metric: &str) -> Option<Side> {
    let values: Vec<f64> = reports
        .iter()
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect();
    if values.is_empty() {
        return None;
    }
    let (q1, q3) = stats::quartiles(&values);
    Some(Side {
        median: stats::median(&values),
        q1,
        q3,
        n: values.len(),
    })
}

/// Four significant digits, without exponent.
fn sig(x: f64) -> String {
    let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{x:.decimals$}")
}

fn load(paths: &[String]) -> Result<Vec<Json>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

/// The exact counts of the in-process workloads must agree across every
/// report of both sets.
fn fingerprints_agree(reports: &[Json], workload: &str) -> bool {
    let mut prints = reports.iter().filter_map(|r| {
        Some(
            r.get("workloads")?
                .get(workload)?
                .get("fingerprint")?
                .render(),
        )
    });
    match prints.next() {
        Some(first) => prints.all(|p| p == first),
        None => true,
    }
}

/// Prints, per workload × metric, each set's median and quartiles and how
/// much worse the worse set's median is, as a share of the better one.
/// Returns false when any disagreement exceeds its bound (or the sets'
/// seeds or fingerprints differ).
pub fn compare(a_paths: &[String], b_paths: &[String]) -> Result<bool, String> {
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let mut ok = true;
    println!(
        "| workload | metric | A median [q1, q3] (n) | B median [q1, q3] (n) | disagreement | bound | bound ÷ disagreement |"
    );
    println!("|---|---|---|---|---|---|---|");
    for workload in NAMES {
        for (metric, unit, higher) in END_TO_END {
            let (Some(sa), Some(sb)) = (side(&a, workload, metric), side(&b, workload, metric))
            else {
                continue;
            };
            let (better, worse) = if (sa.median > sb.median) == higher {
                (sa.median, sb.median)
            } else {
                (sb.median, sa.median)
            };
            let disagreement = (worse - better).abs() / better;
            let limit = bound(workload, metric);
            let verdict = if disagreement > limit {
                ok = false;
                " **exceeds**"
            } else {
                ""
            };
            let cell =
                |s: &Side| format!("{} [{}, {}] ({})", sig(s.median), sig(s.q1), sig(s.q3), s.n);
            println!(
                "| {workload} | {metric} ({unit}) | {} | {} | {:.2} %{verdict} | {:.0} % | {:.1}× |",
                cell(&sa),
                cell(&sb),
                disagreement * 100.0,
                limit * 100.0,
                limit / disagreement
            );
        }
        let all: Vec<Json> = a.iter().chain(&b).cloned().collect();
        if !fingerprints_agree(&all, workload) {
            println!("fingerprint of {workload} differs between reports");
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_is_assembled_from_its_least_disturbed_pieces() {
        let rep = |blocks: [f64; 2], setup: f64| Rep {
            sample_s_per_step: blocks.to_vec(),
            setup_s: setup,
            answer_round_us: vec![1.0],
            adhoc_query_ms: vec![1.0],
            adhoc_list_len: 1,
            ..Rep::default()
        };
        // The first repetition was disturbed in block 0, the second in block 1.
        let mut reps = [rep([0.04, 0.01], 3.0), rep([0.01, 0.04], 1.0)];
        assert_eq!(reps[0].steps_per_s(), 40.0);
        // Two passes over a two-statement list; each statement's best
        // instance is in a different pass and repetition.
        reps[0].adhoc_query_ms = vec![1.0, 9.0, 5.0, 9.0];
        reps[1].adhoc_query_ms = vec![5.0, 9.0, 5.0, 3.0];
        reps.iter_mut().for_each(|r| r.adhoc_list_len = 2);
        assert_eq!(reps[0].adhoc_p50_ms(), 6.0);
        let s = summarize(&reps);
        let by = |n: &str| s.iter().find(|m| m.name == n).unwrap();
        assert_eq!(by("steps_per_s").value, 100.0);
        assert_eq!(by("steps_per_s").median, 40.0);
        assert_eq!(by("setup_s").value, 1.0);
        assert_eq!(by("adhoc_p50_ms").value, 2.0);
    }

    #[test]
    fn every_pair_has_a_bound_within_the_contract() {
        for w in NAMES {
            for (m, _, _) in END_TO_END {
                let b = bound(w, m);
                assert!(b > 0.0 && b <= 0.25, "{w}/{m}: {b}");
            }
        }
    }
}
