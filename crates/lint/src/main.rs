//! The `ppa-lint` CLI.
//!
//! ```text
//! cargo run -p ppa-lint                         # fail on any finding or pragma error
//! cargo run -p ppa-lint -- --json lint.json     # also write the JSON report
//! ```
//!
//! Exit codes: 0 clean; 1 findings or malformed/useless pragmas (each one
//! printed); 2 usage or I/O error.

use ppa_lint::{analyze_workspace, render_json};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: ppa-lint [--root DIR] [--json PATH]";

struct Opts {
    root: PathBuf,
    json_path: Option<PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        json_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--root needs a path".to_string())?,
                );
            }
            "--json" => {
                opts.json_path = Some(PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--json needs a path".to_string())?,
                ));
            }
            "--help" | "-h" => {
                println!("{USAGE}\n\nrules:");
                for rule in ppa_lint::rules::registry() {
                    println!("  {}  {}", rule.id, rule.summary);
                }
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    if !opts.root.join("Cargo.toml").is_file() {
        eprintln!(
            "ppa-lint: {} does not look like the workspace root (no Cargo.toml); \
             run from the repo root or pass --root",
            opts.root.display()
        );
        return ExitCode::from(2);
    }

    let analysis = match analyze_workspace(&opts.root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ppa-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.json_path {
        if let Err(e) = fs::write(path, render_json(&analysis)) {
            eprintln!("ppa-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for e in &analysis.errors {
        eprintln!("{e}");
    }
    for f in &analysis.findings {
        eprintln!("{f}");
    }
    if analysis.passed() {
        eprintln!(
            "ppa-lint: clean — {} file(s), {} suppressed",
            analysis.files,
            analysis.suppressed.len(),
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "ppa-lint: {} finding(s) and {} error(s) in {} file(s) — fix each finding or \
             suppress it with `// ppa-lint: allow(RULE, reason = \"...\")`",
            analysis.findings.len(),
            analysis.errors.len(),
            analysis.files,
        );
        ExitCode::FAILURE
    }
}
