//! Workspace walking and per-file analysis: collect the lintable `.rs`
//! files, tokenize, run the rules, apply pragma suppressions.

use crate::findings::{Finding, LintError};
use crate::lexer::lex;
use crate::pragma::parse_pragmas;
use crate::rules::check_file;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory roots (relative to the workspace root) that are linted.
const SCAN_ROOTS: [&str; 3] = ["crates", "src", "tests"];

/// Path prefixes excluded from the scan:
/// * `crates/shims/` — vendored stand-ins for external crates (the `rand`
///   shim *implements* seeding, it does not consume it);
/// * `crates/lint/tests/fixtures/` — deliberate rule violations used as
///   the linter's own test corpus;
/// * `target/` — build output.
const EXCLUDE_PREFIXES: [&str; 3] = ["crates/shims/", "crates/lint/tests/fixtures/", "target/"];

/// Whether a workspace-relative path is in scope for linting.
pub fn in_scope(rel: &str) -> bool {
    rel.ends_with(".rs") && !EXCLUDE_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// Recursively collects lintable files under `root`, returning sorted
/// workspace-relative paths (forward slashes) so every run and every
/// report lists files in the same order.
pub fn collect_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if let Some(rel) = relative(root, &path) {
            if in_scope(&rel) {
                out.push(rel);
            }
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> Option<String> {
    let rel: PathBuf = path.strip_prefix(root).ok()?.to_path_buf();
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    Some(parts.join("/"))
}

/// Everything the analysis of one workspace produces.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Findings still active after pragma suppression, in (file, line,
    /// rule) order.
    pub findings: Vec<Finding>,
    /// Findings silenced by a scoped allow pragma (reported in `--json`
    /// for auditability, never gated on).
    pub suppressed: Vec<(Finding, String)>,
    /// Hard errors (malformed pragmas, unreadable files): always fail.
    pub errors: Vec<LintError>,
    /// Number of files analyzed.
    pub files: usize,
}

impl Analysis {
    /// The gate: no active finding and no hard error.
    pub fn passed(&self) -> bool {
        self.findings.is_empty() && self.errors.is_empty()
    }
}

/// Analyzes one file's source. `rel` is the workspace-relative path the
/// rules scope on.
pub fn analyze_source(rel: &str, src: &str, analysis: &mut Analysis) {
    let toks = lex(src);
    let (pragmas, mut pragma_errors) = parse_pragmas(rel, &toks);
    analysis.errors.append(&mut pragma_errors);
    let mut suppressed_here: Vec<(Finding, String)> = Vec::new();
    for finding in check_file(rel, &toks) {
        match pragmas.iter().find(|p| p.covers(&finding)) {
            Some(p) => suppressed_here.push((finding, p.reason.clone())),
            None => analysis.findings.push(finding),
        }
    }
    analysis.files += 1;
    // Suppressions that never fire would silently rot; surface them.
    for p in &pragmas {
        if !suppressed_here.iter().any(|(f, _)| p.covers(f)) {
            analysis.errors.push(LintError {
                file: rel.to_string(),
                line: p.line,
                message: format!(
                    "allow pragma suppresses nothing (rules {}) — delete it",
                    p.rules
                        .iter()
                        .map(|r| r.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }
    analysis.suppressed.append(&mut suppressed_here);
}

/// Analyzes the whole workspace under `root`.
pub fn analyze_workspace(root: &Path) -> Result<Analysis, String> {
    let mut analysis = Analysis::default();
    for rel in collect_files(root)? {
        match fs::read_to_string(root.join(&rel)) {
            Ok(src) => analyze_source(&rel, &src, &mut analysis),
            Err(e) => analysis.errors.push(LintError {
                file: rel,
                line: 0,
                message: format!("cannot read file: {e}"),
            }),
        }
    }
    analysis
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_excludes_shims_fixtures_and_benches() {
        assert!(in_scope("crates/engine/src/feed.rs"));
        assert!(in_scope("tests/control_plane.rs"));
        assert!(!in_scope("crates/shims/rand/src/lib.rs"));
        assert!(!in_scope("crates/lint/tests/fixtures/d001_pos.rs"));
        assert!(!in_scope("crates/engine/src/notes.md"));
    }

    #[test]
    fn suppressed_findings_do_not_gate() {
        let mut a = Analysis::default();
        analyze_source(
            "crates/engine/src/x.rs",
            "// ppa-lint: allow(D001, reason = \"membership only\")\nuse std::collections::HashSet;",
            &mut a,
        );
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.suppressed.len(), 1);
        assert_eq!(a.suppressed[0].1, "membership only");
        assert!(a.errors.is_empty(), "{:?}", a.errors);
    }

    #[test]
    fn useless_pragma_is_an_error() {
        let mut a = Analysis::default();
        analyze_source(
            "crates/engine/src/x.rs",
            "// ppa-lint: allow(D001, reason = \"nothing here\")\nlet x = 1;",
            &mut a,
        );
        assert_eq!(a.errors.len(), 1);
        assert!(a.errors[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn trailing_pragma_covers_its_own_line() {
        let mut a = Analysis::default();
        analyze_source(
            "crates/engine/src/x.rs",
            "use std::collections::HashSet; // ppa-lint: allow(D001, reason = \"dedup only\")",
            &mut a,
        );
        assert!(a.findings.is_empty());
        assert_eq!(a.suppressed.len(), 1);
    }
}
