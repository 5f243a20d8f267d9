//! Machine-readable experiment reports.
//!
//! Every harness binary prints human tables and fenced CSV, and by default
//! additionally writes a structured `BENCH_<experiment>.json` report to the
//! current directory (the repo root under `cargo run`/`cargo bench`), so
//! perf numbers accrue per run without scraping stdout. Set the
//! `FGDB_JSON_OUT` environment variable to redirect the output directory,
//! or to the empty string to disable file output.

use std::path::PathBuf;

/// One experiment's structured result: a named table of rows.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. "fig4a").
    pub experiment: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Data rows, stringly-typed to match the CSV the binaries print.
    pub rows: Vec<Vec<String>>,
    /// Free-form parameters (scale factor, k, sizes…).
    pub params: Vec<(String, String)>,
}

impl Report {
    /// Creates a report.
    pub fn new(experiment: &str, columns: &[&str]) -> Self {
        Report {
            experiment: experiment.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            params: Vec::new(),
        }
    }

    /// Records a parameter.
    pub fn param(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.params.push((key.to_string(), value.to_string()));
        self
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
        self
    }

    /// Serializes to a JSON string: a small fixed-shape emitter (the build
    /// has no JSON crate). All leaf values are strings; escaping covers the
    /// JSON string escapes.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let str_list = |items: &[String]| {
            items
                .iter()
                .map(|s| format!("\"{}\"", esc(s)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let rows = self
            .rows
            .iter()
            .map(|r| format!("    [{}]", str_list(r)))
            .collect::<Vec<_>>()
            .join(",\n");
        let params = self
            .params
            .iter()
            .map(|(k, v)| format!("    {{\"key\": \"{}\", \"value\": \"{}\"}}", esc(k), esc(v)))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"experiment\": \"{}\",\n  \"columns\": [{}],\n  \"rows\": [\n{}\n  ],\n  \"params\": [\n{}\n  ]\n}}\n",
            esc(&self.experiment),
            str_list(&self.columns),
            rows,
            params
        )
    }

    /// Writes `<dir>/BENCH_<experiment>.json`, where `dir` defaults to the
    /// workspace root and can be redirected via the `FGDB_JSON_OUT`
    /// environment variable (empty value disables file output) — the same
    /// resolution the criterion shim uses, via [`criterion::json_out_dir`].
    /// Returns the path written.
    pub fn write_if_configured(&self) -> Option<PathBuf> {
        let dir = criterion::json_out_dir()?;
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, self.to_json()).ok()?;
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("fig_test", &["x", "y"]);
        r.param("k", 2000).param("scale", 1.0);
        r.row(vec!["1".into(), "2.5".into()]);
        r.row(vec!["2".into(), "1.25".into()]);
        r
    }

    #[test]
    fn json_round_trips_structure() {
        let j = sample().to_json();
        assert!(j.contains("\"experiment\": \"fig_test\""));
        assert!(j.contains("\"columns\""));
        assert!(j.contains("2.5"));
        assert!(j.contains("\"k\""));
    }

    #[test]
    fn write_respects_env() {
        let dir = std::env::temp_dir().join("fgdb_report_test");
        // Empty value → explicit opt-out.
        std::env::set_var("FGDB_JSON_OUT", "");
        assert!(sample().write_if_configured().is_none());
        // Set → BENCH_-prefixed file written there.
        std::env::set_var("FGDB_JSON_OUT", &dir);
        let path = sample().write_if_configured().expect("written");
        assert!(path.ends_with("BENCH_fig_test.json"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("fig_test"));
        std::env::remove_var("FGDB_JSON_OUT");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
