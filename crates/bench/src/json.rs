//! A tiny dependency-free JSON document model and writer.
//!
//! The build environment is offline, so the harness cannot pull in
//! `serde_json`; this module provides the small subset the reporter needs:
//! ordered objects (deterministic output), arrays, strings, integers and
//! floats. Non-finite floats serialize as `null` — an unrecovered run's
//! latency is *absent*, not a number.

use std::fmt::Write;

/// A JSON value. Object keys keep insertion order so serialization is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    /// Finite floats render with Rust's shortest round-trip formatting;
    /// NaN and infinities render as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `Some(x)` → number (or null if non-finite); `None` → null.
    pub(crate) fn opt_num(v: Option<f64>) -> Json {
        match v {
            Some(x) if x.is_finite() => Json::Num(x),
            _ => Json::Null,
        }
    }

    /// Convenience: an object from key/value pairs.
    pub(crate) fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` on f64 is shortest round-trip, but bare integers
                    // ("3") are still valid JSON numbers — keep them.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    ppa_obs::escape_json(s, out);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.to_pretty(), "null\n");
        assert_eq!(Json::Bool(true).to_pretty(), "true\n");
        assert_eq!(Json::Int(-3).to_pretty(), "-3\n");
        assert_eq!(Json::Num(1.5).to_pretty(), "1.5\n");
        assert_eq!(Json::str("a\"b\n").to_pretty(), "\"a\\\"b\\n\"\n");
    }

    #[test]
    fn non_finite_is_null() {
        assert_eq!(Json::Num(f64::NAN).to_pretty(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).to_pretty(), "null\n");
        assert_eq!(Json::opt_num(None), Json::Null);
        assert_eq!(Json::opt_num(Some(f64::NAN)), Json::Null);
        assert_eq!(Json::opt_num(Some(2.0)), Json::Num(2.0));
    }

    #[test]
    fn nested_structure() {
        let doc = Json::obj(vec![
            ("id", Json::str("fig08")),
            ("points", Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = doc.to_pretty();
        assert!(s.contains("\"id\": \"fig08\""));
        assert!(s.contains("\"empty\": []"));
        // Key order is insertion order.
        assert!(s.find("id").unwrap() < s.find("points").unwrap());
    }

    #[test]
    fn floats_round_trip_shortest() {
        assert_eq!(Json::Num(0.1).to_pretty(), "0.1\n");
        assert_eq!(Json::Num(3.0).to_pretty(), "3\n");
    }
}
