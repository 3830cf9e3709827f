//! Scoped suppressions: `// ppa-lint: allow(D001, reason = "...")`.
//!
//! A pragma suppresses matching findings on **its own line** (trailing
//! comment) or on **the line immediately below** (standalone comment
//! above the offending statement). The `reason` is mandatory and must be
//! non-empty: a suppression without a recorded justification is itself a
//! hard error — the gate tolerates no finding, so every remaining hazard
//! must be explained.

use crate::findings::{Finding, LintError, RuleId};
use crate::lexer::{Tok, TokKind};

/// One parsed `allow` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// Line the pragma comment starts on.
    pub line: u32,
    pub rules: Vec<RuleId>,
    pub reason: String,
}

impl Pragma {
    /// Whether this pragma covers `finding` (same line or the line below
    /// the pragma, and a matching rule id).
    pub fn covers(&self, finding: &Finding) -> bool {
        (finding.line == self.line || finding.line == self.line + 1)
            && self.rules.contains(&finding.rule)
    }
}

/// Extracts every pragma from a file's comment tokens. Malformed pragmas
/// (unparsable directive, unknown rule id, missing or empty reason) are
/// reported as [`LintError`]s, which always fail the run.
pub fn parse_pragmas(file: &str, toks: &[Tok]) -> (Vec<Pragma>, Vec<LintError>) {
    let mut pragmas = Vec::new();
    let mut errors = Vec::new();
    for t in toks {
        if t.kind != TokKind::Comment {
            continue;
        }
        // Doc comments are documentation *about* pragmas, never pragmas
        // themselves — only plain `//` / `/*` comments carry directives.
        if t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = t.text.find("ppa-lint:") else {
            continue;
        };
        let directive = t.text[pos + "ppa-lint:".len()..].trim();
        match parse_allow(directive) {
            Ok((rules, reason)) => pragmas.push(Pragma {
                line: t.line,
                rules,
                reason,
            }),
            Err(msg) => errors.push(LintError {
                file: file.to_string(),
                line: t.line,
                message: msg,
            }),
        }
    }
    (pragmas, errors)
}

/// Parses `allow(D001, D005, reason = "...")` after the `ppa-lint:` marker.
fn parse_allow(directive: &str) -> Result<(Vec<RuleId>, String), String> {
    let rest = directive
        .strip_prefix("allow")
        .ok_or_else(|| format!("unknown ppa-lint directive `{directive}` (expected `allow(...)`)"))?
        .trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| "malformed pragma: expected `allow(...)`".to_string())?;
    let inner = rest
        .rfind(')')
        .map(|end| &rest[..end])
        .ok_or_else(|| "malformed pragma: missing closing `)`".to_string())?;

    let mut rules = Vec::new();
    let mut reason: Option<String> = None;
    // `reason = "..."` may itself contain commas, so split only until the
    // reason key is seen.
    let mut remaining = inner;
    while !remaining.trim().is_empty() {
        let part;
        if let Some(idx) = remaining.find(',') {
            part = remaining[..idx].trim();
            remaining = &remaining[idx + 1..];
        } else {
            part = remaining.trim();
            remaining = "";
        }
        if let Some(value) = part.strip_prefix("reason") {
            let value = value.trim_start();
            let value = value
                .strip_prefix('=')
                .ok_or_else(|| "malformed pragma: expected `reason = \"...\"`".to_string())?;
            // The reason runs to the closing paren; re-attach what the
            // comma split may have taken off.
            let full = if remaining.is_empty() {
                value.trim().to_string()
            } else {
                format!("{},{}", value.trim_start(), remaining)
            };
            let full = full.trim();
            let quoted = full
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| {
                    "malformed pragma: reason must be a \"quoted string\"".to_string()
                })?;
            if quoted.trim().is_empty() {
                return Err("suppression reason must not be empty".to_string());
            }
            reason = Some(quoted.to_string());
            remaining = "";
        } else if !part.is_empty() {
            let id = RuleId::parse(part)
                .ok_or_else(|| format!("unknown rule id `{part}` in allow pragma"))?;
            rules.push(id);
        }
    }
    if rules.is_empty() {
        return Err("allow pragma names no rule ids".to_string());
    }
    let reason = reason
        .ok_or_else(|| "allow pragma is missing the mandatory `reason = \"...\"`".to_string())?;
    Ok((rules, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> (Vec<Pragma>, Vec<LintError>) {
        parse_pragmas("f.rs", &lex(src))
    }

    #[test]
    fn well_formed_pragma_parses() {
        let (p, e) = parse("// ppa-lint: allow(D001, reason = \"membership-only set\")\nx");
        assert!(e.is_empty(), "{e:?}");
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].rules, vec![RuleId::D001]);
        assert_eq!(p[0].reason, "membership-only set");
        assert_eq!(p[0].line, 1);
    }

    #[test]
    fn multiple_rules_and_commas_inside_reason() {
        let (p, e) = parse("// ppa-lint: allow(D001, D005, reason = \"a, b, and c\")");
        assert!(e.is_empty(), "{e:?}");
        assert_eq!(p[0].rules, vec![RuleId::D001, RuleId::D005]);
        assert_eq!(p[0].reason, "a, b, and c");
    }

    #[test]
    fn missing_reason_is_a_hard_error() {
        let (p, e) = parse("// ppa-lint: allow(D001)");
        assert!(p.is_empty());
        assert_eq!(e.len(), 1);
        assert!(e[0].message.contains("reason"), "{}", e[0].message);
    }

    #[test]
    fn empty_reason_is_a_hard_error() {
        let (_, e) = parse("// ppa-lint: allow(D002, reason = \"  \")");
        assert_eq!(e.len(), 1);
        assert!(e[0].message.contains("empty"), "{}", e[0].message);
    }

    #[test]
    fn unknown_rule_id_is_a_hard_error() {
        let (_, e) = parse("// ppa-lint: allow(D099, reason = \"x\")");
        assert_eq!(e.len(), 1);
        assert!(e[0].message.contains("D099"), "{}", e[0].message);
    }

    #[test]
    fn pragma_covers_same_line_and_next_line_only() {
        let p = Pragma {
            line: 10,
            rules: vec![RuleId::D001],
            reason: "r".into(),
        };
        let f = |line, rule| Finding {
            rule,
            file: "f.rs".into(),
            line,
            message: String::new(),
        };
        assert!(p.covers(&f(10, RuleId::D001)));
        assert!(p.covers(&f(11, RuleId::D001)));
        assert!(!p.covers(&f(12, RuleId::D001)));
        assert!(!p.covers(&f(9, RuleId::D001)));
        assert!(!p.covers(&f(10, RuleId::D005)));
    }

    #[test]
    fn pragma_text_inside_string_literals_is_ignored() {
        let (p, e) = parse(r#"let s = "ppa-lint: allow(D001)";"#);
        assert!(p.is_empty());
        assert!(e.is_empty(), "strings are not comments: {e:?}");
    }
}
