//! Finding and rule-identifier types shared by the rules, the pragma
//! parser and the reporters.

use std::fmt;

/// Stable rule identifiers. The numeric namespace is `D` for
/// *determinism & robustness*; ids are load-bearing: they appear in
/// `// ppa-lint: allow(...)` pragmas and in CI output, so they must never
/// be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Nondeterministic iteration: `HashMap`/`HashSet` in code whose
    /// iteration order can escape into plans, reports or stdout.
    D001,
    /// Ambient wall-clock time (`SystemTime`/`Instant`) outside the
    /// sanctioned stopwatch module.
    D002,
    /// Ambient randomness: RNG construction not threaded from the seeded
    /// in-tree RNG.
    D003,
    /// Ambient concurrency primitives inside the deterministic crates.
    D004,
    /// `unwrap`/`expect`/`panic!` outside `#[cfg(test)]` items in the
    /// deterministic crates (the typed `EngineError` policy).
    D005,
    /// `{:?}` Debug formatting flowing into report/stdout paths.
    D006,
}

impl RuleId {
    pub const ALL: [RuleId; 6] = [
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::D005,
        RuleId::D006,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::D005 => "D005",
            RuleId::D006 => "D006",
        }
    }

    /// Parses `"D001"`-style ids (as written in pragmas).
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.as_str() == s)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: RuleId,
    /// Workspace-relative path with forward slashes (stable across OSes).
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A diagnostic about the lint apparatus itself (malformed pragma, an
/// unreadable file). Any of these fails the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintError {
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: error: {}", self.file, self.line, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for id in RuleId::ALL {
            assert_eq!(RuleId::parse(id.as_str()), Some(id));
        }
        assert_eq!(RuleId::parse("D999"), None);
        assert_eq!(RuleId::parse("d001"), None, "ids are case-sensitive");
    }

    #[test]
    fn findings_render_grep_style() {
        let f = Finding {
            rule: RuleId::D005,
            file: "crates/engine/src/feed.rs".into(),
            line: 42,
            message: "`.unwrap()` in deterministic crate".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/engine/src/feed.rs:42: D005 `.unwrap()` in deterministic crate"
        );
    }
}
