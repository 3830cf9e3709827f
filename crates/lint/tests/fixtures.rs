//! The fixture corpus: deliberate rule violations and near-misses under
//! `tests/fixtures/` (excluded from the workspace scan), each asserted
//! exactly — rule, line, and count — plus the gate run against the
//! repository itself.

use ppa_lint::{analyze_source, Analysis, RuleId};
use std::path::{Path, PathBuf};

/// Virtual path inside a deterministic crate: every rule is in scope.
const ENGINE: &str = "crates/engine/src/fixture.rs";

fn fixture_src(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

/// Analyzes a fixture as if it lived at `virtual_path` in the workspace.
fn analyze_at(name: &str, virtual_path: &str) -> Analysis {
    let mut a = Analysis::default();
    analyze_source(virtual_path, &fixture_src(name), &mut a);
    a
}

fn rule_lines(a: &Analysis) -> Vec<(RuleId, u32)> {
    a.findings.iter().map(|f| (f.rule, f.line)).collect()
}

fn assert_clean(a: &Analysis) {
    assert!(
        a.findings.is_empty(),
        "unexpected findings: {:?}",
        a.findings
    );
    assert!(a.errors.is_empty(), "unexpected errors: {:?}", a.errors);
    assert!(
        a.suppressed.is_empty(),
        "unexpected suppressions: {:?}",
        a.suppressed
    );
}

#[test]
fn d001_positives_flag_every_hash_collection_token() {
    use RuleId::D001;
    let a = analyze_at("d001_pos.rs", ENGINE);
    assert_eq!(
        rule_lines(&a),
        vec![
            (D001, 2),
            (D001, 3),
            (D001, 6),
            (D001, 6),
            (D001, 7),
            (D001, 7)
        ]
    );
    assert!(a.errors.is_empty());
}

#[test]
fn d001_negatives_and_out_of_scope_paths_are_clean() {
    assert_clean(&analyze_at("d001_neg.rs", ENGINE));
    // The same positives outside D001's scope produce nothing.
    assert_clean(&analyze_at("d001_pos.rs", "crates/lint/src/fixture.rs"));
}

#[test]
fn d002_positives_flag_instant_and_systemtime() {
    use RuleId::D002;
    let a = analyze_at("d002_pos.rs", ENGINE);
    assert_eq!(
        rule_lines(&a),
        vec![(D002, 2), (D002, 2), (D002, 5), (D002, 6)]
    );
}

#[test]
fn d002_sanctions_the_stopwatch_module_only() {
    assert_clean(&analyze_at("d002_pos.rs", "crates/bench/src/stopwatch.rs"));
    assert_clean(&analyze_at("d002_neg.rs", ENGINE));
}

#[test]
fn d003_positives_flag_entropy_rngs_everywhere() {
    use RuleId::D003;
    let a = analyze_at("d003_pos.rs", ENGINE);
    assert_eq!(rule_lines(&a), vec![(D003, 3), (D003, 4), (D003, 5)]);
    // D003 is workspace-wide, not crate-scoped.
    let b = analyze_at("d003_pos.rs", "crates/bench/src/fixture.rs");
    assert_eq!(rule_lines(&b), vec![(D003, 3), (D003, 4), (D003, 5)]);
}

#[test]
fn d003_seeded_rng_is_clean() {
    assert_clean(&analyze_at("d003_neg.rs", ENGINE));
}

#[test]
fn d004_positives_flag_threads_statics_and_sync() {
    use RuleId::D004;
    let a = analyze_at("d004_pos.rs", ENGINE);
    assert_eq!(
        rule_lines(&a),
        vec![(D004, 3), (D004, 4), (D004, 5), (D004, 8)]
    );
}

#[test]
fn d004_spares_the_bench_harness_and_near_misses() {
    // The harness's worker pool legitimately uses threads.
    assert_clean(&analyze_at("d004_pos.rs", "crates/bench/src/pool.rs"));
    assert_clean(&analyze_at("d004_neg.rs", ENGINE));
}

#[test]
fn d005_positives_flag_the_three_panic_shapes() {
    use RuleId::D005;
    let a = analyze_at("d005_pos.rs", ENGINE);
    assert_eq!(rule_lines(&a), vec![(D005, 3), (D005, 4), (D005, 6)]);
}

#[test]
fn d005_unwrap_family_near_misses_are_clean() {
    assert_clean(&analyze_at("d005_neg.rs", ENGINE));
    // Outside the deterministic crates, unwrap is the harness's business.
    assert_clean(&analyze_at("d005_pos.rs", "crates/bench/src/fixture.rs"));
}

#[test]
fn d005_skips_cfg_test_items_and_nothing_else() {
    use RuleId::D005;
    let a = analyze_at("d005_test_items.rs", ENGINE);
    assert_eq!(
        rule_lines(&a),
        vec![(D005, 2), (D005, 23), (D005, 33), (D005, 38), (D005, 41)]
    );
    assert!(a.errors.is_empty(), "{:?}", a.errors);
}

#[test]
fn d006_positives_flag_debug_specs_in_output_macros() {
    use RuleId::D006;
    let a = analyze_at("d006_pos.rs", ENGINE);
    assert_eq!(
        rule_lines(&a),
        vec![(D006, 3), (D006, 4), (D006, 5), (D006, 6)]
    );
}

#[test]
fn d006_display_and_stderr_are_clean() {
    assert_clean(&analyze_at("d006_neg.rs", ENGINE));
}

#[test]
fn pragmas_suppress_their_own_line_and_the_line_below() {
    use RuleId::D001;
    let a = analyze_at("allow_pragma.rs", ENGINE);
    // Line 3 (trailing) and both line-6 sites (standalone above) are
    // suppressed; the bare `HashSet::new()` on line 7 stays active.
    assert_eq!(rule_lines(&a), vec![(D001, 7)]);
    let mut suppressed: Vec<(u32, &str)> = a
        .suppressed
        .iter()
        .map(|(f, reason)| (f.line, reason.as_str()))
        .collect();
    suppressed.sort();
    assert_eq!(
        suppressed,
        vec![
            (3, "trailing: covers its own line"),
            (6, "standalone: covers the next line"),
            (6, "standalone: covers the next line"),
        ]
    );
    assert!(a.errors.is_empty(), "{:?}", a.errors);
}

#[test]
fn malformed_and_useless_pragmas_are_hard_errors() {
    use RuleId::D001;
    let a = analyze_at("pragma_errors.rs", ENGINE);
    // The malformed pragmas suppress nothing, so their sites stay active.
    assert_eq!(rule_lines(&a), vec![(D001, 2), (D001, 3)]);
    let error_lines: Vec<u32> = a.errors.iter().map(|e| e.line).collect();
    assert_eq!(error_lines, vec![2, 3, 4, 5], "{:?}", a.errors);
    assert!(a.errors[0].message.contains("reason"), "{:?}", a.errors[0]);
    assert!(a.errors[2].message.contains("D999"), "{:?}", a.errors[2]);
    assert!(
        a.errors[3].message.contains("suppresses nothing"),
        "{:?}",
        a.errors[3]
    );
}

#[test]
fn tricky_tokenization_yields_exactly_one_finding() {
    let a = analyze_at("tricky_tokenization.rs", ENGINE);
    assert_eq!(
        rule_lines(&a),
        vec![(RuleId::D005, 15)],
        "strings, raw strings, byte strings, nested comments, chars, \
         lifetimes, ranges and float-method calls must all be inert: {:?}",
        a.findings
    );
}

/// The workspace root, two levels up from this crate.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn the_workspace_passes_the_gate_with_the_committed_baseline() {
    // No baseline file is read: the gate tolerates no finding and no error.
    let a = ppa_lint::analyze_workspace(&workspace_root()).expect("workspace scan succeeds");
    let report: Vec<String> = a
        .findings
        .iter()
        .map(|f| f.to_string())
        .chain(a.errors.iter().map(|e| e.to_string()))
        .collect();
    assert!(
        a.findings.is_empty() && a.errors.is_empty(),
        "ppa-lint must be clean:\n{}",
        report.join("\n")
    );
}
