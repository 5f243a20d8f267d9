//! `fgdb-lint`: workspace static analysis that mechanizes the repo's
//! bug-class invariants.
//!
//! PR 8 found silently-truncating length casts in the wire encoder by
//! hand; this crate turns that class of review finding — and the
//! panic-free-serving, annotated-synchronization, and documented-knob
//! invariants from PRs 5–8 — into a mechanical, ratcheted gate. See
//! [`rules`] for the rule catalogue, [`lexer`] for why the lexer is
//! hand-rolled, and [`baseline`] for the ratchet semantics.
//!
//! The crate is self-contained on purpose (no crates.io deps, in the
//! spirit of `shims/`): the gate itself can never be broken by a
//! dependency the offline container cannot fetch.

pub mod baseline;
pub mod lexer;
pub mod rules;

use rules::{Rule, Violation};
use std::fs;
use std::path::{Path, PathBuf};

/// How a run is configured; mirrors the CLI flags.
#[derive(Debug)]
pub struct Options {
    /// Workspace root (the directory holding the top-level `Cargo.toml`).
    pub root: PathBuf,
    /// Baseline file to match against; `None` disables the baseline
    /// (`--no-baseline`), so every violation reports as fresh.
    pub baseline_path: Option<PathBuf>,
    /// Regenerate the baseline from the current tree instead of gating.
    pub write_baseline: bool,
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not absorbed by the baseline, in walk order.
    pub fresh: Vec<Violation>,
    /// How many violations the baseline absorbed.
    pub baselined: usize,
    /// Baseline entries whose violation no longer exists (burn-down to
    /// commit).
    pub stale: Vec<baseline::Entry>,
    /// Total violations before baseline matching.
    pub total: usize,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
    /// Path the baseline was written to, when `write_baseline` was set.
    pub wrote_baseline: Option<PathBuf>,
}

impl Report {
    /// True when the gate should fail under `--deny`: any fresh violation,
    /// or any stale baseline entry (burn-downs must be committed).
    pub fn deny(&self) -> bool {
        !self.fresh.is_empty() || !self.stale.is_empty()
    }
}

/// Collects every workspace production source file: `src/` trees of the
/// root crate, `crates/*`, and `shims/*`. Tests/benches/examples dirs are
/// out of scope by construction — R1–R3 are production-path invariants,
/// and in-file `#[cfg(test)]` modules are exempted at the rule layer.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    member_files(root, "src")
}

/// Every `.rs` file under the `sub` directory (`src`, `tests`) of the root
/// crate and of each `crates/*` and `shims/*` member.
fn member_files(root: &Path, sub: &str) -> Result<Vec<PathBuf>, String> {
    let mut dirs = vec![root.join(sub)];
    for group in ["crates", "shims"] {
        let dir = root.join(group);
        if !dir.is_dir() {
            continue;
        }
        for member in read_dir_sorted(&dir)? {
            dirs.push(member.join(sub));
        }
    }
    let mut files = Vec::new();
    for dir in dirs {
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    Ok(files)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes — the form rule scoping
/// and baselines key on, stable across platforms.
pub fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Committed bench baselines (`BENCH_*.json` in the workspace root), for
/// rule R4's README check.
pub fn bench_baselines(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for path in read_dir_sorted(root)? {
        if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
            if name.starts_with("BENCH_") && name.ends_with(".json") && path.is_file() {
                out.push(name.to_string());
            }
        }
    }
    Ok(out)
}

/// Runs the full pass: walk, lex, rules, R4 doc checks, baseline match.
pub fn run(opts: &Options) -> Result<Report, String> {
    let files = workspace_files(&opts.root)?;
    let mut violations: Vec<Violation> = Vec::new();
    let mut knob_sites: Vec<(String, String, usize)> = Vec::new();
    let mut files_scanned = 0usize;
    for file in &files {
        let src = fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let rel = rel_path(&opts.root, file);
        let analysis = rules::analyze_source(&rel, &src);
        violations.extend(analysis.violations);
        for (knob, line) in analysis.knobs {
            knob_sites.push((knob, rel.clone(), line));
        }
        files_scanned += 1;
    }

    // Knobs only a test reads (stress-test thread counts) keep their
    // README row live; test files are not otherwise linted.
    let mut test_knobs: Vec<String> = Vec::new();
    for file in member_files(&opts.root, "tests")? {
        let src = fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let analysis = rules::analyze_source(&rel_path(&opts.root, &file), &src);
        test_knobs.extend(analysis.knobs.into_iter().map(|(knob, _)| knob));
    }

    let readme_path = opts.root.join("README.md");
    let readme = fs::read_to_string(&readme_path)
        .map_err(|e| format!("read {}: {e}", readme_path.display()))?;
    violations.extend(rules::check_docs(
        &readme,
        &knob_sites,
        &test_knobs,
        &bench_baselines(&opts.root)?,
    ));

    // Walk order is deterministic, but R4 findings land last; sort so
    // output and baselines group by file regardless of rule.
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let total = violations.len();

    if opts.write_baseline {
        let path = opts
            .baseline_path
            .clone()
            .unwrap_or_else(|| opts.root.join(BASELINE_FILE));
        fs::write(&path, baseline::render(&violations))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        return Ok(Report {
            fresh: Vec::new(),
            baselined: total,
            stale: Vec::new(),
            total,
            files_scanned,
            wrote_baseline: Some(path),
        });
    }

    let matched = match &opts.baseline_path {
        Some(path) => {
            let text = match fs::read_to_string(path) {
                Ok(t) => t,
                // A missing baseline is an empty one: first run fails on
                // everything until `--write-baseline` commits the debt.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
                Err(e) => return Err(format!("read {}: {e}", path.display())),
            };
            baseline::apply(violations, &baseline::parse(&text)?)
        }
        None => baseline::Matched {
            fresh: violations,
            ..Default::default()
        },
    };
    Ok(Report {
        fresh: matched.fresh,
        baselined: matched.baselined,
        stale: matched.stale,
        total,
        files_scanned,
        wrote_baseline: None,
    })
}

/// Default committed baseline filename, relative to the workspace root.
pub const BASELINE_FILE: &str = "fgdb-lint.baseline";

/// Per-rule fresh-violation counts, for summaries.
pub fn count_by_rule(violations: &[Violation]) -> Vec<(Rule, usize)> {
    let mut counts: Vec<(Rule, usize)> = Vec::new();
    for v in violations {
        match counts.iter_mut().find(|(r, _)| *r == v.rule) {
            Some((_, n)) => *n += 1,
            None => counts.push((v.rule, 1)),
        }
    }
    counts.sort_by_key(|&(r, _)| r);
    counts
}
