//! The rule engine: fgdb's bug-class invariants as token-window checks.
//!
//! Four rules, each mechanizing an invariant a past PR established by hand
//! (see `docs/ARCHITECTURE.md` §Static analysis for the catalogue):
//!
//! * **cast** (R1) — no narrowing `as` casts on the persisted-format and
//!   wire paths, and no `len() as <narrow>` anywhere: the PR-8
//!   wire-truncation bug class. Checked `try_from`/`len_u32`-style paths
//!   are the required alternative.
//! * **panic** (R2) — no `unwrap`/`expect`/`panic!`-family calls and no
//!   bare slice indexing in the panic-free serving/durability modules.
//! * **sync** (R3) — every `Ordering::Relaxed` and every zero-argument
//!   lock acquisition in hot-path modules must carry a
//!   `lint:allow(sync, reason)` naming why it is safe.
//! * **docs** (R4) — every `FGDB_*` knob string in code must appear in
//!   README's knob table, and every knob-table row must name a knob some
//!   source or test reads; every committed `BENCH_*.json` must appear in
//!   README's baseline table.
//!
//! Test code (`#[cfg(test)]` / `#[test]` items) and doc-comment examples
//! are exempt from R1–R3; R4 spans everything, tests included — a knob
//! only a stress test reads still deserves its README row.

use crate::lexer::{lex, Lexed, SuppKind, Tok, TokKind};

/// Rule identifiers — the names `lint:allow(rule, …)` refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: narrowing `as` casts on length/wire/format paths.
    Cast,
    /// R2: panic paths (unwrap/expect/panic!/bare indexing) in panic-free
    /// modules.
    Panic,
    /// R3: unannotated `Ordering::Relaxed` / lock acquisition in hot-path
    /// modules.
    Sync,
    /// R4: README drift (knob table, bench baseline table).
    Docs,
    /// Meta: a malformed `lint:allow` (missing reason, unknown rule…).
    Suppression,
}

impl Rule {
    /// The stable id used in suppressions, baselines, and JSON output.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Cast => "cast",
            Rule::Panic => "panic",
            Rule::Sync => "sync",
            Rule::Docs => "docs",
            Rule::Suppression => "suppression",
        }
    }

    fn from_id(s: &str) -> Option<Rule> {
        Some(match s {
            "cast" => Rule::Cast,
            "panic" => Rule::Panic,
            "sync" => Rule::Sync,
            "docs" => Rule::Docs,
            "suppression" => Rule::Suppression,
            _ => return None,
        })
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Violation {
    pub rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The offending source line, whitespace-normalized (the baseline key).
    pub snippet: String,
    pub message: String,
}

/// Everything `analyze_source` learned about one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    pub violations: Vec<Violation>,
    /// `FGDB_*` knob names found in string literals, with first-use line.
    pub knobs: Vec<(String, usize)>,
}

// ---------------------------------------------------------------------------
// Scopes: which invariant applies where
// ---------------------------------------------------------------------------

/// R1 file scope: the wire encoder and the durable format/WAL/store — the
/// modules whose length fields reach disk or the network.
fn cast_scoped(path: &str) -> bool {
    matches!(
        path,
        "crates/serve/src/protocol.rs"
            | "crates/durability/src/format.rs"
            | "crates/durability/src/wal.rs"
            | "crates/durability/src/store.rs"
    )
}

/// R2 file scope: the panic-free serving and recovery loops (including
/// the status table every publication patches, and the validated write
/// every interval source and every recovery goes through), the §5.4
/// multi-chain engine, which promises never to panic on a served query,
/// the query executor, which runs user SQL from the wire on server
/// threads, and the string interner every load, write-back and recovery
/// stores through.
fn panic_scoped(path: &str) -> bool {
    (path.starts_with("crates/serve/src/") && path.ends_with(".rs"))
        || (path.starts_with("crates/durability/src/") && path.ends_with(".rs"))
        || path == "crates/core/src/engine.rs"
        || path == "crates/core/src/pdb.rs"
        || path == "crates/core/src/serving.rs"
        || path == "crates/core/src/supervise.rs"
        || path == "crates/core/src/membership.rs"
        || path == "crates/core/src/status_table.rs"
        || path == "crates/relational/src/exec.rs"
        || path == "crates/relational/src/symbol.rs"
}

/// R3 file scope: hot-path modules where a mis-ordered atomic or a lock on
/// the sampling path is a real (and silent) scalability bug — the string
/// interner's lock included, which every stored string went through.
fn sync_scoped(path: &str) -> bool {
    (path.starts_with("crates/graph/src/") && path.ends_with(".rs"))
        || (path.starts_with("crates/mcmc/src/") && path.ends_with(".rs"))
        || path == "crates/core/src/serving.rs"
        || path == "crates/core/src/supervise.rs"
        || path == "crates/relational/src/symbol.rs"
}

/// Cast targets R1 flags: every integer type strictly narrower than 64
/// bits. 64/128-bit targets are widening from any integer the format and
/// wire paths carry; `usize` is exempt because the servers this repo
/// targets are 64-bit and every decoded `usize` is bounds-checked at its
/// decode site (see ARCHITECTURE.md §Static analysis for the heuristic's
/// boundary).
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Zero-argument acquisition methods R3 tracks.
const LOCK_METHODS: [&str; 6] = ["lock", "try_lock", "read", "try_read", "write", "try_write"];

/// Keywords that may legitimately precede `[` without it being an index
/// expression (array types, slice patterns, array literals after these).
const NON_INDEX_KEYWORDS: [&str; 14] = [
    "mut", "ref", "dyn", "in", "return", "break", "else", "match", "if", "while", "loop", "move",
    "let", "const",
];

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Line ranges (inclusive) covered by `#[cfg(test)]` / `#[test]` items.
fn test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct(b'#') && toks.get(i + 1).is_some_and(|t| t.is_punct(b'[')) {
            let attr_line = toks[i].line;
            let (is_test, after_attr) = scan_attribute(toks, i + 1);
            if is_test {
                let end = item_end(toks, after_attr);
                let end_line = toks
                    .get(end.saturating_sub(1).min(toks.len().saturating_sub(1)))
                    .map_or(attr_line, |t| t.line);
                regions.push((attr_line, end_line));
                i = end;
                continue;
            }
            i = after_attr;
            continue;
        }
        i += 1;
    }
    regions
}

/// Parses one `[…]` attribute starting at its `[`. Returns whether it is a
/// test gate and the index just past the closing `]`.
fn scan_attribute(toks: &[Tok], open: usize) -> (bool, usize) {
    let mut depth = 0usize;
    let mut first_ident: Option<&str> = None;
    let mut saw_test = false;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b']') => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            TokKind::Ident => {
                if first_ident.is_none() {
                    first_ident = Some(&toks[i].text);
                }
                if toks[i].text == "test" {
                    saw_test = true;
                }
            }
            _ => {}
        }
        i += 1;
    }
    let is_test = match first_ident {
        Some("test") => true,
        Some("cfg") | Some("cfg_attr") => saw_test,
        _ => false,
    };
    (is_test, i)
}

/// Finds the end of the item following an attribute: skips further
/// attributes, then consumes to the matching `}` of the first top-level
/// brace (or to a terminating `;` for braceless items). Returns the index
/// just past the item.
fn item_end(toks: &[Tok], mut i: usize) -> usize {
    // Skip stacked attributes (`#[cfg(test)] #[allow(…)] fn …`).
    while i < toks.len()
        && toks[i].is_punct(b'#')
        && toks.get(i + 1).is_some_and(|t| t.is_punct(b'['))
    {
        let (_, after) = scan_attribute(toks, i + 1);
        i = after;
    }
    let mut paren = 0i64;
    let mut bracket = 0i64;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'(') => paren += 1,
            TokKind::Punct(b')') => paren -= 1,
            TokKind::Punct(b'[') => bracket += 1,
            TokKind::Punct(b']') => bracket -= 1,
            TokKind::Punct(b';') if paren == 0 && bracket == 0 => return i + 1,
            TokKind::Punct(b'{') if paren == 0 && bracket == 0 => {
                let mut depth = 0i64;
                while i < toks.len() {
                    match toks[i].kind {
                        TokKind::Punct(b'{') => depth += 1,
                        TokKind::Punct(b'}') => {
                            depth -= 1;
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------------
// Suppression resolution
// ---------------------------------------------------------------------------

/// Per-file suppression index: which (rule, line) pairs are covered, and
/// which suppressions were used (for honest reporting).
struct Allows {
    /// `(rule, line)` covered by line-form suppressions.
    line_allows: Vec<(Rule, usize)>,
    /// `(rule, start, end)` regions from start/end pairs.
    regions: Vec<(Rule, usize, usize)>,
}

fn build_allows(lexed: &Lexed, file: &str, out: &mut Vec<Violation>) -> Allows {
    let mut line_allows = Vec::new();
    let mut regions: Vec<(Rule, usize, usize)> = Vec::new();
    let mut open: Vec<(Rule, usize)> = Vec::new();
    for s in &lexed.suppressions {
        let Some(rule) = Rule::from_id(&s.rule) else {
            out.push(Violation {
                rule: Rule::Suppression,
                file: file.to_string(),
                line: s.line,
                snippet: snippet_of(lexed, s.line),
                message: format!(
                    "lint:allow names unknown rule `{}` (known: cast, panic, sync, docs)",
                    s.rule
                ),
            });
            continue;
        };
        match s.kind {
            SuppKind::Line => {
                let target = if s.standalone {
                    lexed.next_code_line(s.line + 1).unwrap_or(s.line)
                } else {
                    s.line
                };
                line_allows.push((rule, target));
            }
            SuppKind::Start => open.push((rule, s.line)),
            SuppKind::End => {
                // Close the innermost open region for this rule.
                match open.iter().rposition(|(r, _)| *r == rule) {
                    Some(idx) => {
                        let (r, start) = open.remove(idx);
                        regions.push((r, start, s.line));
                    }
                    None => out.push(Violation {
                        rule: Rule::Suppression,
                        file: file.to_string(),
                        line: s.line,
                        snippet: snippet_of(lexed, s.line),
                        message: format!("lint:allow-end({}) without a matching start", s.rule),
                    }),
                }
            }
        }
    }
    for (rule, start) in open {
        out.push(Violation {
            rule: Rule::Suppression,
            file: file.to_string(),
            line: start,
            snippet: snippet_of(lexed, start),
            message: format!("lint:allow-start({}) never closed", rule.id()),
        });
        // Fail closed: honoring an unclosed start to end-of-file would let
        // one stray comment disable a rule for a whole module, so it is
        // dropped entirely.
    }
    Allows {
        line_allows,
        regions,
    }
}

impl Allows {
    fn covered(&self, rule: Rule, line: usize) -> bool {
        self.line_allows
            .iter()
            .any(|&(r, l)| r == rule && l == line)
            || self
                .regions
                .iter()
                .any(|&(r, s, e)| r == rule && s <= line && line <= e)
    }
}

fn snippet_of(lexed: &Lexed, line: usize) -> String {
    lexed
        .lines
        .get(line.saturating_sub(1))
        .map(|l| normalize(l))
        .unwrap_or_default()
}

/// Whitespace-normalizes a source line: the stable key baselines match on
/// (line numbers drift with every edit; the text of a violation does not).
pub fn normalize(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut last_space = true;
    for ch in line.trim().chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(ch);
            last_space = false;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The per-file pass
// ---------------------------------------------------------------------------

/// Runs every token rule over one file. `path` must be workspace-relative
/// with forward slashes — scoping is path-based.
pub fn analyze_source(path: &str, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let mut violations = Vec::new();
    for m in &lexed.malformed {
        violations.push(Violation {
            rule: Rule::Suppression,
            file: path.to_string(),
            line: m.line,
            snippet: snippet_of(&lexed, m.line),
            message: m.problem.clone(),
        });
    }
    let allows = build_allows(&lexed, path, &mut violations);
    let regions = test_regions(&lexed.toks);
    let in_test = |line: usize| regions.iter().any(|&(s, e)| s <= line && line <= e);

    let toks = &lexed.toks;
    let mut knobs: Vec<(String, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        // R4 collection: exact FGDB_* knob literals, everywhere.
        if t.kind == TokKind::Str
            && is_knob_literal(&t.text)
            && !knobs.iter().any(|(k, _)| k == &t.text)
        {
            knobs.push((t.text.clone(), t.line));
        }
        if in_test(t.line) {
            continue;
        }

        // R1: `as <narrow-int>` in scoped files; `len() as <narrow-int>`
        // everywhere.
        if t.is_ident("as") {
            if let Some(ty) = toks.get(i + 1) {
                if ty.kind == TokKind::Ident && NARROW_INTS.contains(&ty.text.as_str()) {
                    let feeds_len = i >= 3
                        && toks[i - 1].is_punct(b')')
                        && toks[i - 2].is_punct(b'(')
                        && toks[i - 3].is_ident("len");
                    if feeds_len || cast_scoped(path) {
                        push_unless_allowed(
                            &mut violations,
                            &allows,
                            &lexed,
                            Rule::Cast,
                            path,
                            t.line,
                            if feeds_len {
                                format!(
                                    "length expression truncated by `as {}` — use a checked \
                                     `{}::try_from` (len_u32-style) conversion",
                                    ty.text, ty.text
                                )
                            } else {
                                format!(
                                    "narrowing `as {}` on a format/wire path — use `{}::try_from` \
                                     with a typed error",
                                    ty.text, ty.text
                                )
                            },
                        );
                    }
                }
            }
        }

        if panic_scoped(path) {
            // R2: `.unwrap()` / `.expect(` method calls.
            if t.is_punct(b'.') {
                if let Some(m) = toks.get(i + 1) {
                    let unwrap_call = m.is_ident("unwrap")
                        && toks.get(i + 2).is_some_and(|t| t.is_punct(b'('))
                        && toks.get(i + 3).is_some_and(|t| t.is_punct(b')'));
                    let expect_call =
                        m.is_ident("expect") && toks.get(i + 2).is_some_and(|t| t.is_punct(b'('));
                    if unwrap_call || expect_call {
                        push_unless_allowed(
                            &mut violations,
                            &allows,
                            &lexed,
                            Rule::Panic,
                            path,
                            t.line,
                            format!(
                                "`.{}()` in a panic-free module — return the module's typed \
                                 error instead",
                                m.text
                            ),
                        );
                    }
                }
            }
            // R2: panic-family macros.
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && toks.get(i + 1).is_some_and(|n| n.is_punct(b'!'))
            {
                push_unless_allowed(
                    &mut violations,
                    &allows,
                    &lexed,
                    Rule::Panic,
                    path,
                    t.line,
                    format!(
                        "`{}!` in a panic-free module — return a typed error",
                        t.text
                    ),
                );
            }
            // R2: bare slice indexing `expr[…]`.
            if t.is_punct(b'[') && i > 0 {
                let prev = &toks[i - 1];
                let indexes = match &prev.kind {
                    TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                    TokKind::Punct(b')') | TokKind::Punct(b']') => true,
                    _ => false,
                };
                if indexes {
                    push_unless_allowed(
                        &mut violations,
                        &allows,
                        &lexed,
                        Rule::Panic,
                        path,
                        t.line,
                        "bare slice indexing in a panic-free module — use `.get(…)` or a \
                         length-checked helper"
                            .to_string(),
                    );
                }
            }
        }

        if sync_scoped(path) {
            // R3: Ordering::Relaxed must be annotated.
            if t.is_ident("Relaxed")
                && i >= 3
                && toks[i - 1].is_punct(b':')
                && toks[i - 2].is_punct(b':')
                && toks[i - 3].is_ident("Ordering")
                && !allows.covered(Rule::Sync, t.line)
            {
                violations.push(Violation {
                    rule: Rule::Sync,
                    file: path.to_string(),
                    line: t.line,
                    snippet: snippet_of(&lexed, t.line),
                    message: "`Ordering::Relaxed` in a hot-path module must carry \
                              `lint:allow(sync, reason)` naming why relaxed ordering is safe"
                        .to_string(),
                });
            }
            // R3: zero-argument lock acquisitions must be annotated.
            if t.is_punct(b'.') {
                if let Some(m) = toks.get(i + 1) {
                    if m.kind == TokKind::Ident
                        && LOCK_METHODS.contains(&m.text.as_str())
                        && toks.get(i + 2).is_some_and(|t| t.is_punct(b'('))
                        && toks.get(i + 3).is_some_and(|t| t.is_punct(b')'))
                        && !allows.covered(Rule::Sync, m.line)
                    {
                        violations.push(Violation {
                            rule: Rule::Sync,
                            file: path.to_string(),
                            line: m.line,
                            snippet: snippet_of(&lexed, m.line),
                            message: format!(
                                "`.{}()` acquisition in a hot-path module must carry \
                                 `lint:allow(sync, reason)` naming why it cannot stall sampling",
                                m.text
                            ),
                        });
                    }
                }
            }
        }
    }

    // One violation per (rule, line): `a[0][1]` or a line with two casts
    // reads as one finding, keeping baselines stable under rewrites that
    // merge or split expressions on a line.
    violations.dedup_by(|a, b| a.rule == b.rule && a.line == b.line && a.file == b.file);
    FileAnalysis { violations, knobs }
}

fn push_unless_allowed(
    violations: &mut Vec<Violation>,
    allows: &Allows,
    lexed: &Lexed,
    rule: Rule,
    path: &str,
    line: usize,
    message: String,
) {
    if allows.covered(rule, line) {
        return;
    }
    violations.push(Violation {
        rule,
        file: path.to_string(),
        line,
        snippet: snippet_of(lexed, line),
        message,
    });
}

/// True for a string literal that *is* a knob name (`FGDB_FSYNC`), as
/// opposed to prose that merely mentions one.
fn is_knob_literal(s: &str) -> bool {
    s.strip_prefix("FGDB_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    })
}

// ---------------------------------------------------------------------------
// R4: cross-file doc-drift checks
// ---------------------------------------------------------------------------

/// Checks every collected knob and committed bench baseline against
/// README's tables, and every knob-table row against the collected knobs.
/// A "table row" is any README line starting with `|` that names the item
/// in backticks — mentioning a knob in prose does not count; the tables are
/// the contract. A knob-table row is one whose first cell is a backticked
/// `FGDB_*` name; a row that neither a source site nor one of `test_knobs`
/// (literals under `tests/` dirs, which only keep rows live: the lint's
/// own tests hold made-up knob names) reads documents a dead knob.
pub fn check_docs(
    readme: &str,
    knob_sites: &[(String, String, usize)], // (knob, file, line)
    test_knobs: &[String],
    bench_files: &[String],
) -> Vec<Violation> {
    let table_rows: Vec<&str> = readme
        .lines()
        .filter(|l| l.trim_start().starts_with('|'))
        .collect();
    let in_table = |name: &str| {
        let ticked = format!("`{name}`");
        table_rows.iter().any(|row| row.contains(&ticked))
    };
    let mut out = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for (knob, file, line) in knob_sites {
        if seen.contains(&knob.as_str()) {
            continue;
        }
        seen.push(knob);
        if !in_table(knob) {
            out.push(Violation {
                rule: Rule::Docs,
                file: file.clone(),
                line: *line,
                snippet: knob.clone(),
                message: format!(
                    "env knob `{knob}` is read here but missing from README's knob table"
                ),
            });
        }
    }
    for (i, row) in readme.lines().enumerate() {
        let Some(knob) = knob_row_name(row) else {
            continue;
        };
        if !knob_sites.iter().any(|(k, _, _)| k == knob) && !test_knobs.iter().any(|k| k == knob) {
            out.push(Violation {
                rule: Rule::Docs,
                file: "README.md".to_string(),
                line: i + 1,
                snippet: knob.to_string(),
                message: format!(
                    "README's knob table documents `{knob}` but no source or test reads it"
                ),
            });
        }
    }
    for bench in bench_files {
        if !in_table(bench) {
            out.push(Violation {
                rule: Rule::Docs,
                file: "README.md".to_string(),
                line: 1,
                snippet: bench.clone(),
                message: format!(
                    "committed baseline `{bench}` is missing from README's bench baseline table"
                ),
            });
        }
    }
    out
}

/// The knob a README knob-table row documents: its first cell, when that
/// cell is exactly one backticked `FGDB_*` name.
fn knob_row_name(row: &str) -> Option<&str> {
    let first = row
        .trim_start()
        .strip_prefix('|')?
        .split('|')
        .next()?
        .trim();
    let name = first.strip_prefix('`')?.strip_suffix('`')?;
    is_knob_literal(name).then_some(name)
}
