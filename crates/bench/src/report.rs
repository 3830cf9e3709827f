//! The `--json` reporter: serializes a whole harness run — every figure's
//! series, per-run recovery latencies, and wall-clock timings — to a
//! machine-readable document (`BENCH_repro.json` by convention), seeding
//! the repo's performance trajectory across PRs.

use crate::json::Json;
use crate::runner::RunSummary;

/// Schema identifier; bump when the document shape changes.
pub(crate) const SCHEMA: &str = "ppa-bench/1";

/// Builds the full JSON document for a finished run.
pub fn to_json(summary: &RunSummary) -> Json {
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        (
            "paper",
            Json::str(
                "Su & Zhou, Tolerating Correlated Failures in Massively Parallel \
                 Stream Processing Engines, ICDE 2016",
            ),
        ),
        (
            "mode",
            Json::str(if summary.quick { "quick" } else { "full" }),
        ),
        ("jobs", Json::Int(summary.jobs as i64)),
        ("total_wall_s", Json::Num(summary.total_wall.as_secs_f64())),
        (
            "experiments",
            Json::Arr(
                summary
                    .results
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("id", Json::str(r.id)),
                            ("description", Json::str(r.description)),
                            ("section", Json::str(r.section)),
                            ("wall_s", Json::Num(r.wall.as_secs_f64())),
                            (
                                "figures",
                                Json::Arr(r.figures.iter().map(|f| f.to_json()).collect()),
                            ),
                            (
                                "runs",
                                Json::Arr(r.runs.iter().map(|l| l.to_json_timed()).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Serializes and writes the report to `path`. The error carries the
/// target path, so callers surfacing it (or unwrapping it in scripts) name
/// the file that could not be written, not just the OS error.
pub fn write_json(summary: &RunSummary, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_json(summary).to_pretty()).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("writing report to {}: {e}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ExperimentResult, RecoveryRecord, RunLog};
    use crate::{Figure, Series};
    use std::time::Duration;

    fn tiny_summary() -> RunSummary {
        let mut fig = Figure::new("fig99", "t", "x", "y");
        let mut s = Series::new("A");
        s.push("p", 1.0);
        s.push("q", f64::NAN);
        fig.series.push(s);
        RunSummary {
            quick: true,
            jobs: 4,
            total_wall: Duration::from_millis(1500),
            results: vec![ExperimentResult {
                id: "fig99",
                description: "test experiment",
                section: "§0",
                figures: vec![fig],
                runs: vec![RunLog {
                    scenario: "s".into(),
                    strategy: "Storm".into(),
                    fail_at_s: 40,
                    kill_nodes: vec![4, 5],
                    events: 123,
                    tuples_moved: 4567,
                    outages: 2,
                    refails: 1,
                    outages_recovered: 1,
                    wall_s: 0.25,
                    recoveries: vec![
                        RecoveryRecord {
                            task: 7,
                            via_replica: false,
                            detected_s: 45.0,
                            latency_s: Some(12.5),
                        },
                        RecoveryRecord {
                            task: 8,
                            via_replica: true,
                            detected_s: 45.0,
                            latency_s: None,
                        },
                    ],
                }],
                wall: Duration::from_millis(700),
            }],
        }
    }

    #[test]
    fn document_shape() {
        let doc = to_json(&tiny_summary()).to_pretty();
        assert!(doc.contains("\"schema\": \"ppa-bench/1\""));
        assert!(doc.contains("\"mode\": \"quick\""));
        assert!(doc.contains("\"jobs\": 4"));
        assert!(doc.contains("\"id\": \"fig99\""));
        assert!(doc.contains("\"wall_s\": 0.7"));
        // Per-run timing rides in the report via to_json_timed...
        assert!(doc.contains("\"wall_s\": 0.25"));
        assert!(doc.contains("\"refails\": 1"));
        assert!(doc.contains("\"latency_s\": 12.5"));
        // Unrecovered runs serialize as null, never NaN.
        assert!(doc.contains("\"latency_s\": null"));
        assert!(doc.contains("\"y\": null"));
        assert!(!doc.contains("NaN"));
    }

    #[test]
    fn write_json_error_names_the_path() {
        let path = std::path::Path::new("/nonexistent-dir-ppa/out.json");
        let err = write_json(&tiny_summary(), path).unwrap_err();
        assert!(
            err.to_string().contains("/nonexistent-dir-ppa/out.json"),
            "error must name the target path: {err}"
        );
    }

    #[test]
    fn write_json_round_trips_to_disk() {
        let dir = std::env::temp_dir().join("ppa_bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_json(&tiny_summary(), &path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with('{') && body.trim_end().ends_with('}'));
        std::fs::remove_file(&path).ok();
    }
}
