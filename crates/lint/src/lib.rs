//! # ppa-lint — workspace-native determinism & robustness linter
//!
//! The repo's load-bearing guarantee is byte-identical stdout for every
//! figure and sweep at any `--jobs` count. End-to-end smoke runs catch a
//! nondeterminism bug only *after* it ships; this crate rejects the bug
//! classes at review time with six token-level rules:
//!
//! | Rule | Catches |
//! |------|---------|
//! | D001 | `HashMap`/`HashSet` whose iteration order can escape into plans, reports or stdout |
//! | D002 | Ambient wall-clock time (`SystemTime`/`Instant`) outside the stopwatch module |
//! | D003 | Ambient randomness (entropy-seeded RNG construction) |
//! | D004 | Ambient concurrency (`thread::spawn`, `static mut`, sync primitives) in the deterministic crates |
//! | D005 | `unwrap`/`expect`/`panic!` outside `#[cfg(test)]` items in the deterministic crates |
//! | D006 | `{:?}` Debug formatting flowing into output paths |
//!
//! Built on a real tokenizer ([`lexer`]) — comments, strings and raw
//! strings are handled, so `unwrap()` in a doc comment is not a finding.
//! Nothing is tolerated: a finding is fixed or carries a scoped pragma
//! with a mandatory reason ([`pragma`]):
//!
//! ```text
//! let seen: HashSet<u32> = ... // ppa-lint: allow(D001, reason = "membership-only dedup")
//! ```
//!
//! Run `cargo run -p ppa-lint` from the workspace root; see `--help`.

pub mod findings;
pub mod lexer;
pub mod pragma;
pub mod rules;
pub mod scan;

pub use findings::{Finding, LintError, RuleId};
pub use scan::{analyze_source, analyze_workspace, Analysis};

use std::fmt::Write as _;

/// Renders an analysis as the machine-readable `--json` document
/// (dependency-free writer, stable key order).
pub fn render_json(analysis: &Analysis) -> String {
    let findings = json_array("findings", &analysis.findings, |f| {
        format!(
            "{{\"rule\": \"{}\", \"file\": {}, \"line\": {}, \"message\": {}}}",
            f.rule,
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        )
    });
    let suppressed = json_array("suppressed", &analysis.suppressed, |(f, reason)| {
        format!(
            "{{\"rule\": \"{}\", \"file\": {}, \"line\": {}, \"reason\": {}}}",
            f.rule,
            json_str(&f.file),
            f.line,
            json_str(reason)
        )
    });
    let errors = json_array("errors", &analysis.errors, |e| {
        format!(
            "{{\"file\": {}, \"line\": {}, \"message\": {}}}",
            json_str(&e.file),
            e.line,
            json_str(&e.message)
        )
    });
    format!(
        "{{\n  \"files\": {},\n  \"passed\": {},\n{findings},\n{suppressed},\n{errors}\n}}\n",
        analysis.files,
        analysis.passed()
    )
}

/// Renders `"key": [ … ]`, one item per line.
fn json_array<T>(key: &str, items: &[T], render: impl Fn(&T) -> String) -> String {
    let mut out = format!("  \"{key}\": [\n");
    for (i, item) in items.iter().enumerate() {
        let comma = if i + 1 < items.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", render(item));
    }
    out.push_str("  ]");
    out
}

/// Escapes a string as a JSON literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed_for_empty_and_nonempty_results() {
        assert_eq!(
            render_json(&Analysis::default()),
            "{\n  \"files\": 0,\n  \"passed\": true,\n  \"findings\": [\n  ],\n  \
             \"suppressed\": [\n  ],\n  \"errors\": [\n  ]\n}\n"
        );

        let mut analysis = Analysis::default();
        scan::analyze_source(
            "crates/engine/src/x.rs",
            "let m: HashMap<u8, \"quote\\\"d\"> = x.unwrap();",
            &mut analysis,
        );
        let doc = render_json(&analysis);
        assert!(doc.contains("\"passed\": false"));
        assert!(doc.contains(
            "  \"findings\": [\n    {\"rule\": \"D001\", \"file\": \"crates/engine/src/x.rs\", \
             \"line\": 1, \"message\": "
        ));
        assert!(doc.contains("\"rule\": \"D005\""));
        assert!(!doc.contains("breaches"));
    }

    #[test]
    fn json_strings_escape_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
