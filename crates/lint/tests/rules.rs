//! Fixture-driven rule tests: each fixture under `tests/fixtures/` is
//! analyzed under a pretend in-scope workspace path (fixtures are data,
//! never compiled). Per rule: positives fire, suppressed sites stay
//! silent, and the false-positive guards — raw strings, nested comments,
//! doc examples, `#[cfg(test)]` blocks — stay silent too.

use fgdb_lint::rules::{analyze_source, check_docs, Rule};

fn rule_lines(path: &str, src: &str, rule: Rule) -> Vec<usize> {
    analyze_source(path, src)
        .violations
        .into_iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

fn count(path: &str, src: &str, rule: Rule) -> usize {
    rule_lines(path, src, rule).len()
}

const CAST_FIXTURE: &str = include_str!("fixtures/cast.rs");
const PANIC_FIXTURE: &str = include_str!("fixtures/panic.rs");
const SYNC_FIXTURE: &str = include_str!("fixtures/sync.rs");
const SUPP_FIXTURE: &str = include_str!("fixtures/suppression.rs");

#[test]
fn cast_fixture_positives_fire_and_guards_do_not() {
    let path = "crates/durability/src/format.rs";
    let lines = rule_lines(path, CAST_FIXTURE, Rule::Cast);
    // Exactly the three positives: suppressed sites, widening casts, raw
    // strings, nested comments, and the #[cfg(test)] module are silent.
    assert_eq!(lines.len(), 3, "cast lines: {lines:?}");
    for line in &lines {
        let text = CAST_FIXTURE.lines().nth(line - 1).unwrap_or("");
        assert!(
            text.contains("VIOLATION"),
            "unexpected cast at line {line}: {text}"
        );
    }
    assert_eq!(count(path, CAST_FIXTURE, Rule::Panic), 0);
    assert_eq!(count(path, CAST_FIXTURE, Rule::Suppression), 0);
}

#[test]
fn cast_rule_is_scoped_but_len_pattern_is_workspace_wide() {
    // Out of the scoped file set, plain narrowing casts pass…
    let src = "pub fn f(n: usize) -> u16 { n as u16 }\n";
    assert_eq!(count("crates/graph/src/graph.rs", src, Rule::Cast), 0);
    // …but a length expression feeding a narrowing cast fires anywhere.
    let src = "pub fn f(v: &[u8]) -> u32 { v.len() as u32 }\n";
    assert_eq!(count("crates/graph/src/graph.rs", src, Rule::Cast), 1);
}

#[test]
fn cast_rule_redetects_the_pr8_wire_truncation_bug_class() {
    // The exact shape PR 8 fixed by hand: a frame length silently
    // truncated while encoding. Reverting that fix must fail the lint.
    let reverted = "fn frame(payload: &[u8], out: &mut Vec<u8>) {\n\
                    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());\n\
                    }\n";
    assert_eq!(
        count("crates/serve/src/protocol.rs", reverted, Rule::Cast),
        1
    );
    // And the same expression is caught even outside the scoped files,
    // via the workspace-wide len-feeding pattern.
    assert_eq!(count("crates/bench/src/lib.rs", reverted, Rule::Cast), 1);
}

#[test]
fn panic_fixture_positives_fire_and_guards_do_not() {
    let path = "crates/serve/src/server.rs";
    let lines = rule_lines(path, PANIC_FIXTURE, Rule::Panic);
    assert_eq!(lines.len(), 7, "panic lines: {lines:?}");
    for line in &lines {
        let text = PANIC_FIXTURE.lines().nth(line - 1).unwrap_or("");
        assert!(
            text.contains("VIOLATION"),
            "unexpected panic at line {line}: {text}"
        );
    }
    // The trailing/standalone/region suppressions all carry reasons.
    assert_eq!(count(path, PANIC_FIXTURE, Rule::Suppression), 0);
    // The same file outside the panic-free scope is silent.
    assert_eq!(
        count(
            "crates/relational/src/planner.rs",
            PANIC_FIXTURE,
            Rule::Panic
        ),
        0
    );
    // The query executor runs user SQL on server threads: in scope.
    assert_eq!(
        count("crates/relational/src/exec.rs", PANIC_FIXTURE, Rule::Panic),
        7
    );
}

#[test]
fn sync_fixture_positives_fire_and_guards_do_not() {
    let path = "crates/mcmc/src/walker.rs";
    let lines = rule_lines(path, SYNC_FIXTURE, Rule::Sync);
    assert_eq!(lines.len(), 5, "sync lines: {lines:?}");
    for line in &lines {
        let text = SYNC_FIXTURE.lines().nth(line - 1).unwrap_or("");
        assert!(
            text.contains("VIOLATION"),
            "unexpected sync at line {line}: {text}"
        );
    }
    assert_eq!(count(path, SYNC_FIXTURE, Rule::Suppression), 0);
    // Outside the hot-path scope nothing fires.
    assert_eq!(
        count("crates/serve/src/server.rs", SYNC_FIXTURE, Rule::Sync),
        0
    );
}

#[test]
fn malformed_suppressions_are_themselves_violations() {
    let path = "crates/graph/src/shard.rs";
    let lines = rule_lines(path, SUPP_FIXTURE, Rule::Suppression);
    // Two malformed forms, one unknown rule, one dangling end, one
    // unclosed start.
    assert_eq!(lines.len(), 5, "suppression lines: {lines:?}");
}

#[test]
fn lexer_handles_constructs_that_break_naive_linters() {
    // An unwrap hidden in a raw string plus a real one after a nested
    // comment: exactly one finding, on the right line.
    let src = "pub fn f(o: Option<u32>) -> u32 {\n\
               let s = r#\"prose: o.unwrap() and buf[0]\"#;\n\
               /* outer /* nested .expect( */ still comment */\n\
               let _ = s;\n\
               o.unwrap()\n\
               }\n";
    let lines = rule_lines("crates/serve/src/server.rs", src, Rule::Panic);
    assert_eq!(lines, vec![5], "panic lines: {lines:?}");
}

#[test]
fn docs_rule_flags_missing_knobs_and_benches() {
    let readme = "# repo\n\
                  | knob | default |\n\
                  |---|---|\n\
                  | `FGDB_DOCUMENTED` | 1.0 |\n\
                  | `BENCH_listed.json` | bench |\n";
    let knobs = vec![
        (
            "FGDB_DOCUMENTED".to_string(),
            "crates/a/src/lib.rs".to_string(),
            3,
        ),
        (
            "FGDB_MISSING".to_string(),
            "crates/a/src/lib.rs".to_string(),
            9,
        ),
    ];
    let benches = vec![
        "BENCH_listed.json".to_string(),
        "BENCH_orphan.json".to_string(),
    ];
    let violations = check_docs(readme, &knobs, &[], &benches);
    assert_eq!(violations.len(), 2, "{violations:?}");
    assert!(violations.iter().all(|v| v.rule == Rule::Docs));
    assert!(violations
        .iter()
        .any(|v| v.message.contains("FGDB_MISSING")));
    assert!(violations
        .iter()
        .any(|v| v.message.contains("BENCH_orphan.json")));
    // Prose mentions (non-table lines) do not count as documentation.
    let prose = "FGDB_MISSING is documented only in prose, `FGDB_MISSING` even in backticks\n";
    let violations = check_docs(prose, &knobs[1..], &[], &[]);
    assert_eq!(violations.len(), 1, "{violations:?}");
}

#[test]
fn docs_rule_flags_knob_rows_nothing_reads() {
    let readme = "| knob | default |\n\
                  |---|---|\n\
                  | `FGDB_LIVE` | read by a binary |\n\
                  | `FGDB_STALE` | its reader was deleted |\n\
                  | `BENCH_x.json` | mentions `FGDB_LIVE` outside the first cell |\n";
    let knobs = vec![(
        "FGDB_LIVE".to_string(),
        "crates/a/src/lib.rs".to_string(),
        3,
    )];
    let violations = check_docs(readme, &knobs, &[], &[]);
    assert_eq!(violations.len(), 1, "{violations:?}");
    let v = &violations[0];
    assert_eq!(v.rule, Rule::Docs);
    assert_eq!((v.file.as_str(), v.line), ("README.md", 4));
    assert!(v.message.contains("FGDB_STALE"), "{}", v.message);
    // Once a test or a source reads the knob, its row is live.
    let test_knobs = vec!["FGDB_STALE".to_string()];
    assert!(check_docs(readme, &knobs, &test_knobs, &[]).is_empty());
    let mut knobs = knobs;
    knobs.push((
        "FGDB_STALE".to_string(),
        "crates/b/src/lib.rs".to_string(),
        7,
    ));
    assert!(check_docs(readme, &knobs, &[], &[]).is_empty());
}

#[test]
fn knob_collection_finds_env_var_literals() {
    let src = "pub fn knob() -> Option<String> {\n\
               std::env::var(\"FGDB_FIXTURE_KNOB\").ok()\n\
               }\n";
    let analysis = analyze_source("crates/a/src/lib.rs", src);
    assert_eq!(analysis.knobs, vec![("FGDB_FIXTURE_KNOB".to_string(), 2)]);
}
