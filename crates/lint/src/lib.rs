#![forbid(unsafe_code)]
//! `tcevd-lint` — repo-specific static analysis for the Tensor-Core EVD
//! workspace.
//!
//! The engine is deliberately dependency-free: a hand-rolled token-level
//! lexer ([`lexer`]) feeds a small set of rules ([`rules`]) that encode
//! invariants no off-the-shelf linter knows about:
//!
//! - **R1** every `GemmContext::gemm` / `syr2k_update` call site passes a
//!   static string label drawn from the registry in
//!   `crates/tensorcore/src/labels.rs`; the dry-run trace model uses the
//!   same label set; no registry entry is dead.
//! - **R2** lossy precision conversions (`round_through_f16`,
//!   `truncate_f16`, `round_to_tf32`, `F16::from_f32`) appear only inside
//!   the precision boundary (`crates/matrix/src/f16.rs` and
//!   `crates/tensorcore`).
//! - **R3** hot-path files contain no `unwrap`/`expect`/`panic!`-family
//!   macros and no `[...]` indexing outside test code.
//! - **R4** public functions in pipeline modules return `Result`.
//! - **R5** every crate root carries `#![forbid(unsafe_code)]` and the
//!   `unsafe` keyword never appears.
//! - **R7** the R3 hygiene bar extended to the service layer
//!   (`crates/serve/`): the scheduler holds other jobs' work, so its
//!   non-test code must never `unwrap`, `panic!`, or `[...]`-index.
//!
//! On top of the token-level rules, an item-level parser ([`parser`]) and
//! a workspace call graph ([`callgraph`]) power four transitive rule
//! families:
//!
//! - **R8** transitive hot-path panic-freedom: a panic-family call
//!   anywhere the R3/R7 roots can reach through the call graph is
//!   flagged at the panic site, with the call chain in the message.
//! - **R9** cancellation-seam coverage: every loop that transitively
//!   performs GEMM-scale work (in SBR, bulge chasing, the pipeline
//!   driver, or the service layer) must reach a `CancelToken` check
//!   within one iteration.
//! - **R10** determinism discipline: no thread-coordination primitives
//!   inside `for_each_chunk`/`join` parallel regions, no
//!   `HashMap`/`HashSet` iteration in non-test code, and counters fed by
//!   wall-clock/thread-identity data only in the determinism-exempt
//!   `time.`/`par.` namespaces.
//! - **R11** serve lock discipline: canonical Mutex acquisition order
//!   (`state → cache → workers`), condvar waits only inside predicate
//!   loops, and only the poison-recovering `lock()` helper.
//!
//! One rule checks the rules' own configuration:
//!
//! - **R13** every entry of a rule's path list (`R3_FILES`, `R9_FILES`,
//!   …) matches a workspace file, so deleting or renaming a file cannot
//!   silently take a rule's coverage with it.
//!
//! Findings can be waived line-locally with a
//! `// tcevd-lint: allow(R3)` comment; the waiver covers the comment's
//! line and the two lines after it. Waivers are applied centrally, after
//! all rules ran, so a waiver that suppresses nothing is itself reported
//! (**W1** — dead waiver).
//!
//! Run it with `cargo run -p tcevd-lint`; it exits non-zero when any
//! diagnostic fires and prints `file:line: RULE: message` lines
//! (`--json` emits the same findings machine-readably).

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;

use callgraph::{FileUnit, Graph};

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use lexer::Kind;

/// One lint finding, addressed by workspace-relative path (forward
/// slashes) and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The GEMM label registry parsed out of `crates/tensorcore/src/labels.rs`:
/// every string literal inside the `GEMM_LABELS` array, with its line.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Workspace-relative path of the registry source file.
    pub path: String,
    /// `(label, line)` pairs in declaration order.
    pub labels: Vec<(String, usize)>,
}

/// Path of the registry source, relative to the workspace root.
pub const REGISTRY_PATH: &str = "crates/tensorcore/src/labels.rs";

/// Parse the `GEMM_LABELS` array from registry source text.
///
/// Token-level: finds the `GEMM_LABELS` identifier, skips to the first `[`
/// after it, and collects every string literal until the matching `]`.
pub fn parse_registry(src: &str) -> Registry {
    let lx = lexer::lex(src, false);
    let toks = &lx.tokens;
    let mut reg = Registry {
        path: REGISTRY_PATH.to_string(),
        labels: Vec::new(),
    };
    let Some(start) = toks.iter().position(|t| t.is_ident("GEMM_LABELS")) else {
        return reg;
    };
    // Skip past the `=` so the `[` in the `&[&str]` type annotation is not
    // mistaken for the array opener.
    let Some(eq) = toks[start..].iter().position(|t| t.is_punct('=')) else {
        return reg;
    };
    let Some(open) = toks[start + eq..].iter().position(|t| t.is_punct('[')) else {
        return reg;
    };
    let mut depth = 0usize;
    for t in &toks[start + eq + open..] {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == Kind::Str && depth == 1 {
            reg.labels.push((t.text.clone(), t.line));
        }
    }
    reg
}

/// True when a workspace-relative path holds code that is test-only in its
/// entirety (integration tests, benches, examples): R1's literal-label and
/// R3's hygiene requirements do not apply there.
pub fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples")
}

/// Analyze a set of in-memory files together: all file-local rules, the
/// cross-file call-graph rules (R8–R11), then central waiver filtering
/// with dead-waiver detection (W1). `used` collects the GEMM labels the
/// files consume (for the registry dead-entry check, which stays with
/// [`lint_workspace`]).
pub fn analyze_files(
    files: &[(String, String)],
    reg: &Registry,
    used: &mut BTreeSet<String>,
) -> Vec<Diagnostic> {
    let units: Vec<FileUnit> = files
        .iter()
        .map(|(path, src)| FileUnit::new(path, src))
        .collect();
    let mut raw = Vec::new();
    for u in &units {
        let (path, lx) = (u.path.as_str(), &u.lx);
        rules::r1_call_sites(path, lx, reg, used, &mut raw);
        rules::r1_trace_model(path, lx, reg, &mut raw);
        rules::r2_precision_boundary(path, lx, &mut raw);
        rules::r3_hot_path(path, lx, &mut raw);
        rules::r7_serve_hygiene(path, lx, &mut raw);
        rules::r4_result_surface(path, lx, &mut raw);
        if path.ends_with("src/lib.rs") {
            rules::r5_forbid_unsafe_attr(path, lx, &mut raw);
        }
        rules::r5_no_unsafe(path, lx, &mut raw);
        rules::r10_parallel_sync(path, u, &mut raw);
        rules::r10_hash_iteration(path, u, &mut raw);
        rules::r10_counter_namespace(path, u, &mut raw);
        rules::r11_serve_locks(path, u, &mut raw);
    }
    let graph = Graph::build(&units);
    rules::r8_transitive_panics(&units, &graph, &mut raw);
    rules::r9_cancel_seams(&units, &graph, &mut raw);

    // Central waiver pass: suppress waived findings, then report every
    // waiver that suppressed nothing (W1 — dead waiver).
    let index: std::collections::BTreeMap<&str, usize> = units
        .iter()
        .enumerate()
        .map(|(i, u)| (u.path.as_str(), i))
        .collect();
    let mut waiver_used: Vec<Vec<bool>> = units
        .iter()
        .map(|u| vec![false; u.lx.waivers.len()])
        .collect();
    let mut out = Vec::new();
    for d in raw {
        let mut suppressed = false;
        if let Some(&ui) = index.get(d.file.as_str()) {
            for (wi, w) in units[ui].lx.waivers.iter().enumerate() {
                if w.rule == d.rule && w.line <= d.line && d.line <= w.line + 2 {
                    waiver_used[ui][wi] = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            out.push(d);
        }
    }
    for (ui, u) in units.iter().enumerate() {
        for (wi, w) in u.lx.waivers.iter().enumerate() {
            if !waiver_used[ui][wi] {
                out.push(Diagnostic {
                    file: u.path.clone(),
                    line: w.line,
                    rule: "W1",
                    message: format!(
                        "dead waiver: `allow({})` suppresses nothing on lines \
                         {}-{} — remove it or fix the rule id",
                        w.rule,
                        w.line,
                        w.line + 2
                    ),
                });
            }
        }
    }
    out
}

/// Lint one source file given its workspace-relative path. `used` collects
/// the GEMM labels this file consumes (for the registry dead-entry check).
///
/// Thin wrapper over [`analyze_files`] with a single file: call-graph
/// rules see only this file's definitions.
pub fn lint_source(
    path: &str,
    src: &str,
    reg: &Registry,
    used: &mut BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    out.extend(analyze_files(
        &[(path.to_string(), src.to_string())],
        reg,
        used,
    ));
}

/// Every `.rs` file the lint covers, workspace-relative with forward
/// slashes, sorted. Skips `target/`, hidden directories, and the lint
/// crate itself (it must mention banned tokens to detect them).
pub fn workspace_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                if p == root.join("crates").join("lint") {
                    continue;
                }
                stack.push(p);
            } else if name.ends_with(".rs") {
                if let Some(rel) = relative(root, &p) {
                    files.push(rel);
                }
            }
        }
    }
    files.sort();
    files
}

fn relative(root: &Path, p: &Path) -> Option<String> {
    let rel = p.strip_prefix(root).ok()?;
    let mut s = String::new();
    for c in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&c.as_os_str().to_string_lossy());
    }
    Some(s)
}

/// Lint the whole workspace rooted at `root`. Returns all diagnostics,
/// sorted by (file, line, rule).
///
/// `filters`, when non-empty, restricts per-file findings to paths with
/// one of the given prefixes (workspace-relative, forward slashes). The
/// whole workspace is still loaded — the call graph must be global for
/// R8/R9 — but only filtered files' findings are reported, and the
/// registry-global checks (R1c dead labels, R13 stale file lists) are
/// skipped, since a partial view cannot prove a label unused.
pub fn lint_workspace_filtered(root: &Path, filters: &[String]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let reg_src = std::fs::read_to_string(root.join(REGISTRY_PATH)).unwrap_or_default();
    let reg = parse_registry(&reg_src);
    if reg.labels.is_empty() {
        out.push(Diagnostic {
            file: REGISTRY_PATH.to_string(),
            line: 1,
            rule: "R1",
            message: "GEMM label registry is missing or empty".to_string(),
        });
        return out;
    }
    let mut used = BTreeSet::new();
    let files: Vec<(String, String)> = workspace_files(root)
        .into_iter()
        .filter_map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel)).ok()?;
            Some((rel, src))
        })
        .collect();
    let mut diags = analyze_files(&files, &reg, &mut used);
    if filters.is_empty() {
        let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
        let rules_src = include_str!("rules.rs");
        rules::r13_stale_file_lists(rules::FILE_LISTS, &paths, rules_src, &mut diags);
        rules::r1_unused_entries(&reg, &used, &mut diags);
    } else {
        diags.retain(|d| filters.iter().any(|f| d.file.starts_with(f.as_str())));
    }
    out.extend(diags);
    out.sort();
    out
}

/// [`lint_workspace_filtered`] with no path filters: the full rule set,
/// including the registry-global checks.
pub fn lint_workspace(root: &Path) -> Vec<Diagnostic> {
    lint_workspace_filtered(root, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_parses_labels_with_lines() {
        let src = r#"
pub const GEMM_LABELS: &[&str] = &[
    "sbr_panel_update",
    "zy_aw",
];
pub fn is_registered(l: &str) -> bool { GEMM_LABELS.contains(&l) }
"#;
        let reg = parse_registry(src);
        assert_eq!(
            reg.labels,
            vec![
                ("sbr_panel_update".to_string(), 3),
                ("zy_aw".to_string(), 4)
            ]
        );
    }

    #[test]
    fn test_paths_are_recognised() {
        assert!(is_test_path("tests/full_pipeline.rs"));
        assert!(is_test_path("crates/bench/benches/gemm.rs"));
        assert!(is_test_path("examples/demo.rs"));
        assert!(!is_test_path("crates/core/src/pipeline.rs"));
    }

    #[test]
    fn diagnostics_render_as_file_line_rule() {
        let d = Diagnostic {
            file: "a/b.rs".to_string(),
            line: 7,
            rule: "R3",
            message: "nope".to_string(),
        };
        assert_eq!(d.to_string(), "a/b.rs:7: R3: nope");
    }
}
