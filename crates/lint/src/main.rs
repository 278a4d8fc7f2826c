#![forbid(unsafe_code)]
//! CLI entry point: `cargo run -p tcevd-lint` from anywhere in the
//! workspace.
//!
//! ```text
//! tcevd-lint [--json] [--root <dir>] [path-prefix …]
//! ```
//!
//! Prints `file:line: RULE: message` per finding (or a JSON array with
//! `--json`) and exits non-zero when anything fires. Positional arguments
//! are workspace-relative path prefixes (e.g. `crates/serve`) that
//! restrict which files' findings are reported — the call graph is still
//! built from the whole workspace, so transitive rules stay sound, but
//! the registry-global dead-label check is skipped.

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // The binary is compiled from crates/lint; the workspace root is two
    // levels up from its manifest. Falls back to the current directory so
    // a copied binary can still run from a checkout root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let candidate = manifest.join("..").join("..");
    if candidate.join("Cargo.toml").is_file() {
        return candidate;
    }
    PathBuf::from(".")
}

fn json_escape(s: &str) -> String {
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

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut filters: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("usage: tcevd-lint [--json] [--root <dir>] [path-prefix ...]");
                return ExitCode::SUCCESS;
            }
            _ => filters.push(a.trim_end_matches('/').to_string()),
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    let diags = tcevd_lint::lint_workspace_filtered(&root, &filters);
    if json {
        let mut lines = Vec::with_capacity(diags.len());
        for d in &diags {
            lines.push(format!(
                "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&d.file),
                d.line,
                json_escape(d.rule),
                json_escape(&d.message)
            ));
        }
        if lines.is_empty() {
            println!("[]");
        } else {
            println!("[\n{}\n]", lines.join(",\n"));
        }
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            println!("tcevd-lint: clean");
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("tcevd-lint: {} finding(s)", diags.len());
        ExitCode::FAILURE
    }
}
