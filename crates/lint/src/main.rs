//! The `nomc-lint` binary: lints workspace trees and single files,
//! printing diagnostics in the machine-readable
//! `file:line: rule-id: message` format or as a JSON report.
//!
//! Usage: `nomc-lint [--list-rules] [--format text|json] [PATH ...]`
//! (paths default to `.`; directories are walked, files are linted
//! directly).
//!
//! Exit status: 0 clean, 1 diagnostics found, 2 usage error or
//! missing/unreadable path. IO failures are *hard* errors reported as
//! typed `io` diagnostics — a glob that matches nothing must never
//! pass the gate silently. Nor may a subdirectory or a single file: the
//! workspace-wide rules it did not judge are named on stderr and under
//! `not_judged` in the JSON report.

use nomc_lint::{Diagnostic, LintReport};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Pseudo-rule id for path/IO failures. Not a lint rule (it has no
/// allow escape and never appears in `--list-rules`): it exists so IO
/// failures surface in the same typed diagnostic stream CI parses.
const IO_RULE: &str = "io";

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list-rules" => {
                for rule in nomc_lint::rules::ALL {
                    println!("{rule}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("usage: nomc-lint [--list-rules] [--format text|json] [PATH ...]");
                return ExitCode::SUCCESS;
            }
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!(
                        "nomc-lint: --format expects `text` or `json`, got {}",
                        other.map_or_else(|| "nothing".to_string(), |o| format!("`{o}`"))
                    );
                    return ExitCode::from(2);
                }
            },
            _ if arg.starts_with('-') => {
                eprintln!("nomc-lint: unknown option `{arg}`");
                return ExitCode::from(2);
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    if paths.is_empty() {
        paths.push(PathBuf::from("."));
    }

    let mut report = LintReport {
        diagnostics: Vec::new(),
        allows: Vec::new(),
        workspace_rules_judged: true,
        files_scanned: 0,
    };
    let mut io_error = false;
    for path in &paths {
        if let Err(d) = lint_path(path, &mut report) {
            io_error = true;
            report.diagnostics.push(d);
        }
    }
    report.diagnostics.sort();
    report.diagnostics.dedup();
    report.allows.sort();
    report.allows.dedup();

    if json {
        println!("{}", report.to_json().dump_pretty());
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
    }
    if !report.workspace_rules_judged {
        let rules = nomc_lint::rules::WORKSPACE.join(", ");
        eprintln!("nomc-lint: {rules} not judged: {}", nomc_lint::NOT_JUDGED);
    }
    if io_error {
        eprintln!("nomc-lint: aborted by path error(s)");
        return ExitCode::from(2);
    }
    if report.diagnostics.is_empty() {
        eprintln!("nomc-lint: clean ({} files scanned)", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "nomc-lint: {} diagnostic(s) across {} files",
            report.diagnostics.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}

/// Lints one CLI path (directory walk or single file) into `report`.
/// A missing or unreadable path is a typed `io` diagnostic, not a
/// silent skip.
fn lint_path(path: &Path, report: &mut LintReport) -> Result<(), Diagnostic> {
    let display = path.display().to_string();
    if path.is_dir() {
        let sub = nomc_lint::lint_workspace(path)
            .map_err(|e| Diagnostic::new(&display, 0, IO_RULE, format!("cannot walk: {e}")))?;
        report.diagnostics.extend(sub.diagnostics);
        report.allows.extend(sub.allows);
        report.workspace_rules_judged &= sub.workspace_rules_judged;
        report.files_scanned += sub.files_scanned;
        return Ok(());
    }
    let content = std::fs::read_to_string(path)
        .map_err(|e| Diagnostic::new(&display, 0, IO_RULE, format!("cannot read: {e}")))?;
    let rel = display.replace('\\', "/");
    let file = if rel.ends_with("Cargo.toml") {
        nomc_lint::lint_manifest_full(&rel, &content)
    } else {
        nomc_lint::lint_source_full(&rel, &content)
    };
    report.workspace_rules_judged &= rel.ends_with("Cargo.toml");
    report.diagnostics.extend(file.diagnostics);
    report.allows.extend(file.allows);
    report.files_scanned += 1;
    Ok(())
}
