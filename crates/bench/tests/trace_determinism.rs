//! Trace-recording invariants: `--trace-dir` output is byte-identical
//! across worker counts, and every run's recorded event stream agrees
//! with its run log's outage accounting.

use ppa_bench::{run_experiments, RunOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ppa_trace_determinism_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_refail_sweep(jobs: usize, dir: &Path) -> ppa_bench::RunSummary {
    let summary = run_experiments(&RunOptions {
        quick: true,
        jobs,
        only: vec!["refail_sweep".into()],
        trace_dir: Some(dir.to_path_buf()),
        ..RunOptions::default()
    });
    assert_eq!(summary.results.len(), 1, "exactly refail_sweep ran");
    summary
}

/// All trace files under `dir`, name → contents.
fn slurp(dir: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir.join("refail_sweep")).expect("trace dir exists") {
        let entry = entry.expect("readable entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let body = std::fs::read_to_string(entry.path()).expect("readable trace");
        out.insert(name, body);
    }
    out
}

/// Mirrors the runner's label → filename collapse.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

#[test]
fn refail_sweep_traces_are_byte_identical_across_job_counts() {
    let dir_serial = scratch_dir("serial");
    let dir_parallel = scratch_dir("parallel");
    run_refail_sweep(1, &dir_serial);
    run_refail_sweep(4, &dir_parallel);

    let serial = slurp(&dir_serial);
    let parallel = slurp(&dir_parallel);
    assert!(!serial.is_empty(), "refail_sweep recorded traces");
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "same trace file set for any worker count"
    );
    for (name, body) in &serial {
        assert_eq!(
            body, &parallel[name],
            "{name} differs between --jobs 1 and --jobs 4"
        );
    }

    let _ = std::fs::remove_dir_all(&dir_serial);
    let _ = std::fs::remove_dir_all(&dir_parallel);
}

#[test]
fn trace_event_counts_match_the_run_log_outage_accounting() {
    let dir = scratch_dir("counts");
    let summary = run_refail_sweep(2, &dir);
    let result = &summary.results[0];
    assert!(!result.runs.is_empty(), "refail_sweep logged runs");

    // Run logs and trace files are both sorted by the same
    // (scenario, strategy, fail_at_s, kill_nodes) key, and every driven
    // run records exactly one trace — so replaying the runner's
    // index-suffix naming over the sorted logs recovers each run's file.
    let mut used: BTreeMap<String, usize> = BTreeMap::new();
    let mut total_outages = 0;
    for log in &result.runs {
        let base = sanitize(&format!("{}__{}", log.scenario, log.strategy));
        let n = used.entry(base.clone()).or_insert(0);
        let name = if *n == 0 {
            base.clone()
        } else {
            format!("{base}__{n}")
        };
        *n += 1;

        let jsonl = std::fs::read_to_string(dir.join("refail_sweep").join(format!("{name}.jsonl")))
            .unwrap_or_else(|e| panic!("missing trace {name}.jsonl for run log: {e}"));
        let count = |needle: &str| jsonl.lines().filter(|l| l.contains(needle)).count();

        assert_eq!(
            count("\"kind\":\"outage_opened\""),
            log.outages,
            "{name}: opened-outage events vs run log"
        );
        assert_eq!(
            count("\"refail\":true"),
            log.refails,
            "{name}: refail events vs run log"
        );
        assert_eq!(
            count("\"kind\":\"replica_activated\"") + count("\"kind\":\"restore_done\""),
            log.outages_recovered,
            "{name}: closing events vs recovered outages"
        );
        total_outages += log.outages;

        // The Chrome export rides along and wraps the same stream.
        let chrome =
            std::fs::read_to_string(dir.join("refail_sweep").join(format!("{name}.chrome.json")))
                .unwrap_or_else(|e| panic!("missing trace {name}.chrome.json: {e}"));
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert_eq!(
            chrome.matches("\"name\":\"outage\"").count()
                + chrome.matches("\"name\":\"refail outage\"").count(),
            log.outages,
            "{name}: one Chrome span per outage"
        );
    }
    assert!(
        total_outages > 0,
        "the sweep's kill waves must open outages"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
