//! The rule registry: six token-level rules targeting this workspace's
//! actual invariants (byte-identical stdout at any `--jobs` count, typed
//! errors in the engine, seeded randomness everywhere).
//!
//! Rules are scoped by path. The *deterministic crates* — `core`, `sim`,
//! `faults`, `engine`, `obs`, `workloads`, `chaos` — carry the
//! reproduction's correctness guarantee; the `bench` harness owns
//! wall-clock timing (stderr only) and real threads (its worker pool), so
//! some rules exempt it.

use crate::findings::{Finding, RuleId};
use crate::lexer::{Tok, TokKind};

/// Per-file context handed to every rule.
pub struct FileCx<'a> {
    /// Workspace-relative path, forward slashes.
    pub path: &'a str,
    /// Full token stream (rules usually iterate [`FileCx::sig`]).
    pub toks: &'a [Tok],
}

impl FileCx<'_> {
    /// Significant tokens: everything except comments.
    pub fn sig(&self) -> Vec<&Tok> {
        self.toks
            .iter()
            .filter(|t| t.kind != TokKind::Comment)
            .collect()
    }
}

/// One registered rule.
pub struct Rule {
    pub id: RuleId,
    /// One-line description for `--help` and the README catalog.
    pub summary: &'static str,
    pub check: fn(&FileCx) -> Vec<Finding>,
}

/// The rule registry, in id order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            id: RuleId::D001,
            summary: "HashMap/HashSet iteration order can escape into plans, reports or stdout \
                      — use BTreeMap/BTreeSet or a sorted collect",
            check: d001_nondeterministic_iteration,
        },
        Rule {
            id: RuleId::D002,
            summary: "ambient wall-clock time (SystemTime/Instant) outside \
                      crates/bench/src/stopwatch.rs",
            check: d002_ambient_time,
        },
        Rule {
            id: RuleId::D003,
            summary: "ambient randomness (thread_rng/from_entropy/OsRng) not threaded from the \
                      seeded in-tree RNG",
            check: d003_ambient_randomness,
        },
        Rule {
            id: RuleId::D004,
            summary: "ambient concurrency (thread::spawn/scope, static mut, sync primitives) \
                      in a deterministic crate — no sanctioned surface inside a run",
            check: d004_ambient_concurrency,
        },
        Rule {
            id: RuleId::D005,
            summary: "unwrap/expect/panic! outside #[cfg(test)] items in the deterministic \
                      crates — use typed errors (EngineError/CoreError/PlacementError)",
            check: d005_panic_paths,
        },
        Rule {
            id: RuleId::D006,
            summary: "{:?} Debug formatting in print!/println!/write!/writeln! — Debug output \
                      is not a stable format for reports or stdout",
            check: d006_debug_format,
        },
    ]
}

/// The crates whose behaviour must be bit-reproducible.
const DETERMINISTIC_CRATES: [&str; 7] = [
    "crates/core/src/",
    "crates/sim/src/",
    "crates/faults/src/",
    "crates/engine/src/",
    "crates/obs/src/",
    "crates/workloads/src/",
    "crates/chaos/src/",
];

fn in_deterministic_crate(path: &str) -> bool {
    DETERMINISTIC_CRATES.iter().any(|p| path.starts_with(p))
}

fn finding(rule: RuleId, cx: &FileCx, line: u32, message: impl Into<String>) -> Finding {
    Finding {
        rule,
        file: cx.path.to_string(),
        line,
        message: message.into(),
    }
}

/// D001 — `HashMap`/`HashSet` in the deterministic crates, the harness
/// and the facade. `RandomState` hashing makes every iteration order a
/// fresh coin flip per process; the only safe uses are membership-only
/// sets (annotate with an allow pragma explaining why order never
/// escapes) — anything iterated should be a B-tree or sorted first.
fn d001_nondeterministic_iteration(cx: &FileCx) -> Vec<Finding> {
    let scoped = in_deterministic_crate(cx.path)
        || cx.path.starts_with("crates/bench/src/")
        || cx.path.starts_with("src/");
    if !scoped {
        return Vec::new();
    }
    cx.sig()
        .iter()
        .filter(|t| t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet"))
        .map(|t| {
            finding(
                RuleId::D001,
                cx,
                t.line,
                format!(
                    "`{}` iteration order is randomized per process; use BTreeMap/BTreeSet or \
                     sort before iterating (allow only with a reason if order never escapes)",
                    t.text
                ),
            )
        })
        .collect()
}

/// D002 — `SystemTime`/`Instant` anywhere but the stopwatch module.
/// Simulated time (`SimTime`) drives every observable output; wall-clock
/// reads are for stderr diagnostics only and live in one sanctioned file.
fn d002_ambient_time(cx: &FileCx) -> Vec<Finding> {
    if cx.path == "crates/bench/src/stopwatch.rs" {
        return Vec::new();
    }
    cx.sig()
        .iter()
        .filter(|t| t.kind == TokKind::Ident && (t.text == "SystemTime" || t.text == "Instant"))
        .map(|t| {
            finding(
                RuleId::D002,
                cx,
                t.line,
                format!(
                    "ambient wall-clock `{}`; use SimTime for simulated time or route timing \
                     through crates/bench/src/stopwatch.rs",
                    t.text
                ),
            )
        })
        .collect()
}

/// Entropy-sourced RNG constructors. The workspace's only legitimate RNG
/// is the seeded shim (`StdRng::seed_from_u64`), threaded from each
/// scenario's seed.
const AMBIENT_RNG: [&str; 6] = [
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "SystemRandom",
];

/// D003 — RNG construction not threaded from the seeded in-tree RNG.
fn d003_ambient_randomness(cx: &FileCx) -> Vec<Finding> {
    cx.sig()
        .iter()
        .filter(|t| t.kind == TokKind::Ident && AMBIENT_RNG.contains(&t.text.as_str()))
        .map(|t| {
            finding(
                RuleId::D003,
                cx,
                t.line,
                format!(
                    "ambient randomness `{}`; thread a seeded StdRng (seed_from_u64) from the \
                     scenario instead",
                    t.text
                ),
            )
        })
        .collect()
}

/// Concurrency identifiers that have no business inside the
/// single-threaded deterministic event loop.
const SYNC_PRIMITIVES: [&str; 13] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "mpsc",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU32",
    "AtomicU64",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
];

/// D004 — ambient concurrency inside the deterministic crates: spawned
/// or scoped threads, `static mut`, or shared-state sync primitives. The
/// harness (`bench`) parallelizes *across* runs; there is no sanctioned
/// surface inside a run.
fn d004_ambient_concurrency(cx: &FileCx) -> Vec<Finding> {
    if !in_deterministic_crate(cx.path) {
        return Vec::new();
    }
    let sig = cx.sig();
    let mut out = Vec::new();
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let msg = if (t.text == "spawn" || t.text == "scope") && path_prefix_is(&sig, i, "thread") {
            Some(format!("`thread::{}` in a deterministic crate", t.text))
        } else if t.text == "static" && next_ident_is(&sig, i, "mut") {
            Some("`static mut` shared state in a deterministic crate".to_string())
        } else if SYNC_PRIMITIVES.contains(&t.text.as_str()) {
            Some(format!(
                "sync primitive `{}` in a deterministic crate",
                t.text
            ))
        } else {
            None
        };
        if let Some(m) = msg {
            out.push(finding(
                RuleId::D004,
                cx,
                t.line,
                format!("{m}; runs must stay single-threaded and deterministic"),
            ));
        }
    }
    out
}

/// D005 — `.unwrap()`, `.expect(...)` and `panic!(...)` in the library
/// code of the deterministic crates, which returns typed errors
/// (`EngineError`, `PlacementError`, `CoreError`). Items gated by
/// `#[cfg(test)]` are skipped: a test's `unwrap` is an assertion.
fn d005_panic_paths(cx: &FileCx) -> Vec<Finding> {
    if !in_deterministic_crate(cx.path) {
        return Vec::new();
    }
    let sig = cx.sig();
    let in_test = cfg_test_items(&sig);
    let mut out = Vec::new();
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] {
            continue;
        }
        let hit = match t.text.as_str() {
            // `.unwrap()` exactly — unwrap_or / unwrap_err etc. lex as
            // different identifiers and are fine.
            "unwrap" => {
                prev_is_punct(&sig, i, ".")
                    && next_is_punct(&sig, i, "(")
                    && nth_is_punct(&sig, i + 2, ")")
            }
            "expect" => prev_is_punct(&sig, i, ".") && next_is_punct(&sig, i, "("),
            "panic" => next_is_punct(&sig, i, "!"),
            _ => false,
        };
        if hit {
            out.push(finding(
                RuleId::D005,
                cx,
                t.line,
                format!(
                    "`{}` is a panic path; return a typed error",
                    match t.text.as_str() {
                        "unwrap" => ".unwrap()",
                        "expect" => ".expect(...)",
                        _ => "panic!",
                    }
                ),
            ));
        }
    }
    out
}

/// Marks the significant tokens of every `#[cfg(test)]` item: from the
/// attribute through the item's matching `}`, or through its `;` when it
/// has no body (`mod tests;` therefore covers only itself).
fn cfg_test_items(sig: &[&Tok]) -> Vec<bool> {
    const ATTR: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut mask = vec![false; sig.len()];
    let mut i = 0;
    while i < sig.len() {
        let is_attr = ATTR.iter().enumerate().all(|(k, p)| {
            sig.get(i + k)
                .is_some_and(|t| matches!(t.kind, TokKind::Ident | TokKind::Punct) && t.text == *p)
        });
        if !is_attr {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut end = sig.len();
        for (j, t) in sig.iter().enumerate().skip(i + ATTR.len()) {
            if t.kind != TokKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                _ => {}
            }
            if depth == 0 && (t.text == "}" || t.text == ";") {
                end = j + 1;
                break;
            }
        }
        mask[i..end].fill(true);
        i = end;
    }
    mask
}

/// Macros whose first format argument feeds stdout or a written report.
/// (`eprintln!`/`eprint!` go to stderr — diagnostics may Debug-format.)
const OUTPUT_MACROS: [&str; 4] = ["print", "println", "write", "writeln"];

/// D006 — `{:?}` Debug specs in output-bound format strings. `Debug`
/// output is unstable across rustc versions and type changes; reports
/// and stdout must only carry hand-formatted (`Display`) values.
fn d006_debug_format(cx: &FileCx) -> Vec<Finding> {
    let sig = cx.sig();
    let mut out = Vec::new();
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokKind::Ident || !OUTPUT_MACROS.contains(&t.text.as_str()) {
            continue;
        }
        if !next_is_punct(&sig, i, "!") || !nth_is_punct(&sig, i + 2, "(") {
            continue;
        }
        // write!/writeln! take the writer first: their format string is
        // the first string literal after the first top-level comma.
        let needs_writer_skip = t.text.starts_with("write");
        if let Some(fmt) = format_string(&sig, i + 3, needs_writer_skip) {
            if let Some(spec) = first_debug_spec(&fmt.text) {
                // Anchor at the macro name, not the format string: the
                // invocation may wrap, and a pragma sits above the call.
                out.push(finding(
                    RuleId::D006,
                    cx,
                    t.line,
                    format!(
                        "`{{{spec}}}` Debug-formats into a {}! output path; implement or use \
                         Display formatting instead",
                        t.text
                    ),
                ));
            }
        }
    }
    out
}

/// Finds the format-string literal of a macro invocation whose argument
/// list starts at `start` (the token right after the opening paren).
fn format_string<'a>(sig: &[&'a Tok], start: usize, skip_writer: bool) -> Option<&'a Tok> {
    let mut depth = 1i32;
    let mut seen_comma = !skip_writer;
    for t in sig.iter().skip(start) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(" | "[" | "{") => depth += 1,
            (TokKind::Punct, ")" | "]" | "}") => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            (TokKind::Punct, ",") if depth == 1 => seen_comma = true,
            (TokKind::Str, _) if depth == 1 && seen_comma => return Some(t),
            _ => {}
        }
    }
    None
}

/// Returns the first `{...:?...}` Debug spec inside a format string, if
/// any (`{:?}`, `{:#?}`, `{x:?}`, `{:>8.1?}` all count; `{{` escapes are
/// honoured).
fn first_debug_spec(fmt: &str) -> Option<String> {
    let bytes = fmt.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            if bytes.get(i + 1) == Some(&b'{') {
                i += 2; // escaped brace
                continue;
            }
            let end = fmt[i..].find('}').map(|e| i + e)?;
            let inner = &fmt[i + 1..end];
            if let Some(colon) = inner.find(':') {
                if inner[colon..].contains('?') {
                    return Some(inner.to_string());
                }
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    None
}

fn prev_is_punct(sig: &[&Tok], i: usize, p: &str) -> bool {
    i > 0 && sig[i - 1].kind == TokKind::Punct && sig[i - 1].text == p
}

fn next_is_punct(sig: &[&Tok], i: usize, p: &str) -> bool {
    nth_is_punct(sig, i + 1, p)
}

fn nth_is_punct(sig: &[&Tok], n: usize, p: &str) -> bool {
    sig.get(n)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
}

fn next_ident_is(sig: &[&Tok], i: usize, name: &str) -> bool {
    sig.get(i + 1)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
}

/// Whether `sig[i]` is preceded by `name ::` (e.g. `thread :: spawn`).
fn path_prefix_is(sig: &[&Tok], i: usize, name: &str) -> bool {
    i >= 3
        && nth_is_punct(sig, i - 1, ":")
        && nth_is_punct(sig, i - 2, ":")
        && sig[i - 3].kind == TokKind::Ident
        && sig[i - 3].text == name
}

/// Runs every registered rule over one tokenized file.
pub fn check_file(path: &str, toks: &[Tok]) -> Vec<Finding> {
    let cx = FileCx { path, toks };
    let mut out: Vec<Finding> = registry().iter().flat_map(|r| (r.check)(&cx)).collect();
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_at(path: &str, src: &str) -> Vec<Finding> {
        check_file(path, &lex(src))
    }

    const ENGINE: &str = "crates/engine/src/x.rs";

    #[test]
    fn d001_flags_hash_collections_in_scope_only() {
        let src = "use std::collections::HashMap;\nlet s: HashSet<u32> = HashSet::new();";
        let f = run_at(ENGINE, src);
        assert_eq!(f.iter().filter(|f| f.rule == RuleId::D001).count(), 3);
        assert!(
            run_at("crates/lint/src/x.rs", src).is_empty(),
            "out of D001 scope"
        );
    }

    #[test]
    fn d002_flags_instant_everywhere_but_stopwatch() {
        let src = "let t = Instant::now(); let s = SystemTime::now();";
        assert_eq!(run_at("crates/bench/src/runner.rs", src).len(), 2);
        assert!(run_at("crates/bench/src/stopwatch.rs", src).is_empty());
    }

    #[test]
    fn d003_flags_entropy_rngs() {
        let f = run_at(ENGINE, "let mut rng = rand::thread_rng();");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::D003);
        assert!(run_at(ENGINE, "StdRng::seed_from_u64(7)").is_empty());
    }

    #[test]
    fn d004_flags_threads_and_sync_in_deterministic_crates() {
        let src = "std::thread::spawn(|| {}); static mut X: u32 = 0; let m = Mutex::new(0); \
                   thread::scope(|s| {});";
        let f = run_at("crates/sim/src/x.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == RuleId::D004).count(), 4);
        // The bench harness's worker pool is allowed to use threads.
        assert!(run_at("crates/bench/src/pool.rs", src).is_empty());
        // No path inside a deterministic crate is exempt.
        let f = run_at("crates/engine/src/runtime/lane.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == RuleId::D004).count(), 4);
    }

    #[test]
    fn d005_flags_exact_panic_shapes_only() {
        let f = run_at(
            ENGINE,
            "a.unwrap(); b.expect(\"x\"); panic!(\"boom\"); c.unwrap_or(0); d.unwrap_err();",
        );
        assert_eq!(f.iter().filter(|f| f.rule == RuleId::D005).count(), 3);
    }

    #[test]
    fn d005_ignores_comments_and_strings() {
        let src = "// calls .unwrap() internally\nlet s = \"panic!(never)\"; /* a.expect(1) */";
        assert!(run_at(ENGINE, src).is_empty());
    }

    #[test]
    fn d006_flags_debug_specs_in_output_macros() {
        let f = run_at(ENGINE, "println!(\"{:?}\", x);");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains(":?"));
        // Named and pretty specs count too; the writer arg is skipped.
        assert_eq!(run_at(ENGINE, "writeln!(w, \"{v:#?}\")").len(), 1);
        // Display formatting and stderr diagnostics are fine.
        assert!(run_at(ENGINE, "println!(\"{}\", x);").is_empty());
        assert!(run_at(ENGINE, "eprintln!(\"{:?}\", x);").is_empty());
        // Escaped braces are not specs.
        assert!(run_at(ENGINE, "println!(\"{{:?}}\");").is_empty());
    }

    #[test]
    fn findings_sorted_by_line_then_rule() {
        let f = run_at(ENGINE, "let x = Instant::now();\nlet m: HashMap<u8, u8>;");
        assert_eq!(f[0].rule, RuleId::D002);
        assert_eq!(f[1].rule, RuleId::D001);
    }
}
