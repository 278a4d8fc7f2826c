//! Golden-file tests for the lint engine, plus the live-workspace
//! self-check: the real repository must lint clean at all times.
//!
//! Each fixture under `tests/fixtures/` starts with a
//! `// lint-fixture-path: <fake workspace path>` header so rule scoping
//! (hot-path lists, precision boundary, crate roots) applies to it, and
//! pairs with a `.expected` file holding the exact diagnostics.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use tcevd_lint::{analyze_files, lint_source, lint_workspace, parse_registry, rules, Registry};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A two-label registry shared by all fixtures.
fn fixture_registry() -> Registry {
    parse_registry(r#"pub const GEMM_LABELS: &[&str] = &["sbr_panel_update", "zy_aw"];"#)
}

fn run_fixture(name: &str) -> (Vec<String>, Vec<String>) {
    let dir = fixtures_dir();
    let src = std::fs::read_to_string(dir.join(format!("{name}.rs")))
        .unwrap_or_else(|e| panic!("fixture {name}.rs unreadable: {e}"));
    let fake_path = src
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("// lint-fixture-path: "))
        .unwrap_or_else(|| panic!("fixture {name}.rs lacks a lint-fixture-path header"))
        .trim()
        .to_string();
    let reg = fixture_registry();
    let mut used = BTreeSet::new();
    let mut out = Vec::new();
    lint_source(&fake_path, &src, &reg, &mut used, &mut out);
    out.sort();
    let got = out.iter().map(|d| d.to_string()).collect();
    let expected = std::fs::read_to_string(dir.join(format!("{name}.expected")))
        .unwrap_or_else(|e| panic!("golden {name}.expected unreadable: {e}"))
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect();
    (got, expected)
}

/// Multi-file fixtures for the call-graph rules (R8/R9): the fixture is
/// split on `//@file: <fake path>` marker lines into separate sources,
/// and every line after a marker is numbered from 1 within its section.
fn run_multi_fixture(name: &str) -> (Vec<String>, Vec<String>) {
    let dir = fixtures_dir();
    let src = std::fs::read_to_string(dir.join(format!("{name}.rs")))
        .unwrap_or_else(|e| panic!("fixture {name}.rs unreadable: {e}"));
    let mut files: Vec<(String, String)> = Vec::new();
    for line in src.lines() {
        if let Some(p) = line.strip_prefix("//@file:") {
            files.push((p.trim().to_string(), String::new()));
        } else {
            let (_, body) = files
                .last_mut()
                .unwrap_or_else(|| panic!("fixture {name}.rs must start with a //@file: marker"));
            body.push_str(line);
            body.push('\n');
        }
    }
    let reg = fixture_registry();
    let mut used = BTreeSet::new();
    let mut out = analyze_files(&files, &reg, &mut used);
    out.sort();
    let got = out.iter().map(|d| d.to_string()).collect();
    let expected = std::fs::read_to_string(dir.join(format!("{name}.expected")))
        .unwrap_or_else(|e| panic!("golden {name}.expected unreadable: {e}"))
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect();
    (got, expected)
}

fn assert_golden(name: &str) {
    let (got, expected) = run_fixture(name);
    assert_eq!(
        got,
        expected,
        "fixture {name}: diagnostics diverge from {name}.expected\n\
         got:\n  {}\nexpected:\n  {}",
        got.join("\n  "),
        expected.join("\n  ")
    );
}

#[test]
fn r1_gemm_label_fixture_matches_golden() {
    assert_golden("r1");
}

#[test]
fn r2_precision_boundary_fixture_matches_golden() {
    assert_golden("r2");
}

#[test]
fn r3_hot_path_fixture_matches_golden() {
    assert_golden("r3");
}

#[test]
fn r4_result_surface_fixture_matches_golden() {
    assert_golden("r4");
}

#[test]
fn r5_forbid_unsafe_fixture_matches_golden() {
    assert_golden("r5");
}

#[test]
fn r7_serve_hygiene_fixture_matches_golden() {
    assert_golden("r7");
}

#[test]
fn clean_fixture_produces_no_findings() {
    assert_golden("clean");
}

/// R8/R9 are whole-workspace call-graph rules, so their fixtures span
/// multiple `//@file:` sections and run through `analyze_files`.
fn assert_multi_golden(name: &str) {
    let (got, expected) = run_multi_fixture(name);
    assert_eq!(
        got,
        expected,
        "fixture {name}: diagnostics diverge from {name}.expected\n\
         got:\n  {}\nexpected:\n  {}",
        got.join("\n  "),
        expected.join("\n  ")
    );
}

#[test]
fn r8_transitive_panic_fixture_matches_golden() {
    assert_multi_golden("r8");
}

#[test]
fn r8_unreachable_panic_stays_silent() {
    // The fixture's `never_called_from_hot_paths` contains the identical
    // `.unwrap()` as `helper_bad` but has no hot-path caller: exactly one
    // R8 finding proves reachability (not mere presence) is what fires.
    let (got, _) = run_multi_fixture("r8");
    assert_eq!(
        got.iter().filter(|l| l.contains("R8")).count(),
        1,
        "{got:?}"
    );
}

#[test]
fn r9_cancel_seam_fixture_matches_golden() {
    assert_multi_golden("r9");
}

#[test]
fn r10_determinism_fixture_matches_golden() {
    assert_golden("r10");
}

#[test]
fn r11_lock_discipline_fixture_matches_golden() {
    assert_golden("r11");
}

#[test]
fn w1_dead_waiver_fixture_matches_golden() {
    assert_golden("w1");
}

#[test]
fn unused_registry_entries_are_flagged() {
    let reg = parse_registry(
        r#"pub const GEMM_LABELS: &[&str] = &[
    "sbr_panel_update",
    "dead_entry",
];"#,
    );
    let mut used = BTreeSet::new();
    used.insert("sbr_panel_update".to_string());
    let mut out = Vec::new();
    rules::r1_unused_entries(&reg, &used, &mut out);
    assert_eq!(
        out.len(),
        1,
        "exactly the dead entry should be flagged: {out:?}"
    );
    assert_eq!(out[0].rule, "R1");
    assert_eq!(out[0].line, 3);
    assert!(
        out[0].message.contains("\"dead_entry\""),
        "message should name the dead entry: {}",
        out[0].message
    );
}

/// R13: a path-list entry that matches no workspace file is a finding at
/// the entry's own line; exact entries and `/`-prefix entries that still
/// match stay silent.
#[test]
fn r13_stale_file_list_entries_are_flagged() {
    let src = "\
pub const R3_FILES: &[&str] = &[
    \"crates/a/src/kept.rs\",
    \"crates/a/src/gone.rs\",
];
pub const R9_FILES: &[&str] = &[\"crates/a/src/gone.rs\", \"crates/a/\", \"crates/b/\"];
";
    let lists: &[(&str, &[&str])] = &[
        (
            "R3_FILES",
            &["crates/a/src/kept.rs", "crates/a/src/gone.rs"],
        ),
        (
            "R9_FILES",
            &["crates/a/src/gone.rs", "crates/a/", "crates/b/"],
        ),
    ];
    let paths = vec![
        "crates/a/src/kept.rs".to_string(),
        "crates/a/src/lib.rs".to_string(),
    ];
    let mut out = Vec::new();
    rules::r13_stale_file_lists(lists, &paths, src, &mut out);
    let got: Vec<String> = out.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        got,
        [
            "crates/lint/src/rules.rs:3: R13: R3_FILES entry \"crates/a/src/gone.rs\" \
             matches no workspace file — drop it, or name the file that replaced it",
            "crates/lint/src/rules.rs:5: R13: R9_FILES entry \"crates/a/src/gone.rs\" \
             matches no workspace file — drop it, or name the file that replaced it",
            "crates/lint/src/rules.rs:5: R13: R9_FILES entry \"crates/b/\" \
             matches no workspace file — drop it, or name the file that replaced it",
        ]
    );
}

/// The self-check: linting the actual workspace this crate lives in must
/// produce zero findings. Any regression in the real pipeline sources
/// fails this test before CI even reaches the dedicated lint job.
#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = lint_workspace(&root);
    assert!(
        diags.is_empty(),
        "live workspace has lint findings:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
