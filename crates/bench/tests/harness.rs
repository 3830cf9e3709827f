//! Harness integration tests: every registered experiment must run at quick
//! scale, and the parallel runner must be observably deterministic — the
//! rendered report and serialized figures/run logs may not depend on the
//! worker count.

use ppa_bench::RunSummary;
use ppa_bench::{registry, render_markdown, report, run_experiments, Figure, RunOptions};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn opts(jobs: usize) -> RunOptions {
    RunOptions {
        quick: true,
        jobs,
        ..RunOptions::default()
    }
}

/// Where the shared run writes its traces (read by the trace-digest
/// test only).
fn trace_dir() -> PathBuf {
    std::env::temp_dir().join(format!("ppa_harness_traces_{}", std::process::id()))
}

/// The whole quick registry at `--jobs 4`, traced, run once and shared by
/// the shape test, the golden tests, the claim tests and (as the parallel
/// side, against an untraced serial run) the determinism test.
fn summary() -> &'static RunSummary {
    static SUMMARY: OnceLock<RunSummary> = OnceLock::new();
    SUMMARY.get_or_init(|| {
        let dir = trace_dir();
        let _ = std::fs::remove_dir_all(&dir);
        run_experiments(&RunOptions {
            trace_dir: Some(dir),
            ..opts(4)
        })
    })
}

/// Figure `figure` of experiment `experiment` in the shared run.
fn figure(experiment: &str, figure: &str) -> &'static Figure {
    let result = summary()
        .results
        .iter()
        .find(|r| r.id == experiment)
        .unwrap_or_else(|| panic!("experiment {experiment} missing"));
    result
        .figures
        .iter()
        .find(|f| f.id == figure)
        .unwrap_or_else(|| panic!("{experiment}: figure {figure} missing"))
}

/// The points of the series labelled `label`.
fn points(fig: &'static Figure, label: &str) -> &'static [(String, f64)] {
    &fig.series
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| panic!("{}: {label} series missing", fig.id))
        .points
}

#[test]
fn every_registry_entry_runs_quick_and_yields_figures() {
    let summary = summary();
    assert_eq!(
        summary.results.len(),
        registry().len(),
        "every experiment ran"
    );
    for result in &summary.results {
        assert!(
            !result.figures.is_empty(),
            "{} returned no figures",
            result.id
        );
        for fig in &result.figures {
            assert!(
                !fig.series.is_empty(),
                "{}: figure {} has no series",
                result.id,
                fig.id
            );
            for series in &fig.series {
                assert!(
                    !series.points.is_empty(),
                    "{}: figure {} series {} has no points",
                    result.id,
                    fig.id,
                    series.label
                );
            }
        }
    }
    // The recovery experiments must also have logged their runs.
    for id in [
        "fig07",
        "fig08",
        "fig09",
        "fig10",
        "tentative",
        "corr_sweep",
        "placement_sweep",
        "adaptive_sweep",
        "refail_sweep",
        "approx_sweep",
    ] {
        let result = summary.results.iter().find(|r| r.id == id).unwrap();
        assert!(
            !result.runs.is_empty(),
            "{id} logged no runs for the JSON reporter"
        );
    }
}

/// "Same bytes out", checked by the repository: the quick registry's JSON
/// report equals the committed `BENCH_repro.json` once the wall-clock
/// lines are dropped from both. A behaviour change *is* its diff in that
/// file; regenerate with `reproduce --quick --jobs 4 --json BENCH_repro.json`.
#[test]
fn quick_report_matches_the_committed_golden_outside_timing_lines() {
    const TIMING_KEYS: [&str; 5] = [
        "\"wall_s\"",
        "\"events_per_sec\"",
        "\"tuples_per_sec\"",
        "\"total_wall_s\"",
        "\"jobs\"",
    ];
    let untimed = |doc: &str| -> Vec<String> {
        doc.lines()
            .filter(|line| !TIMING_KEYS.iter().any(|key| line.contains(key)))
            .map(str::to_string)
            .collect()
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
    let golden = untimed(&std::fs::read_to_string(path).expect("BENCH_repro.json is committed"));
    let actual = untimed(&report::to_json(summary()).to_pretty());

    let Some(at) = (0..golden.len().max(actual.len())).find(|&i| golden.get(i) != actual.get(i))
    else {
        return;
    };
    // An experiment's own "id" sits at the experiments-array indent;
    // figure ids are nested deeper.
    let experiment = actual[..at.min(actual.len())]
        .iter()
        .rev()
        .find_map(|line| line.strip_prefix("      \"id\": "))
        .map(|id| id.trim_end_matches(','))
        .unwrap_or("(document header)");
    let context = |doc: &[String]| -> String {
        let from = at.saturating_sub(3);
        doc.iter()
            .enumerate()
            .skip(from)
            .take(at - from + 3)
            .map(|(i, line)| format!("{} {line}\n", if i == at { ">" } else { " " }))
            .collect()
    };
    panic!(
        "quick report diverges from BENCH_repro.json at untimed line {} inside experiment {experiment}\n\
         --- golden\n{}--- this run\n{}\
         (an intended change: reproduce --quick --jobs 4 --json BENCH_repro.json)",
        at + 1,
        context(&golden),
        context(&actual),
    );
}

/// "Same bytes out" for stdout: the shared run renders exactly the
/// committed `BENCH_quick.md`; regenerate with
/// `reproduce --quick --jobs 1 > BENCH_quick.md`.
#[test]
fn quick_stdout_matches_the_committed_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quick.md");
    let golden = std::fs::read_to_string(path).expect("BENCH_quick.md is committed");
    let actual = render_markdown(summary());
    if golden == actual {
        return;
    }
    let at = golden
        .lines()
        .zip(actual.lines())
        .take_while(|(g, a)| g == a)
        .count();
    panic!(
        "quick stdout diverges from BENCH_quick.md at line {}: golden {:?}, this run {:?} \
         (an intended change: reproduce --quick --jobs 1 > BENCH_quick.md)",
        at + 1,
        golden.lines().nth(at),
        actual.lines().nth(at),
    );
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `<digest>  <experiment>/<file>` for every file under `dir`, sorted by
/// path.
fn digest_lines(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    for experiment in std::fs::read_dir(dir)? {
        let experiment = experiment?;
        for file in std::fs::read_dir(experiment.path())? {
            let file = file?;
            let path = format!(
                "{}/{}",
                experiment.file_name().to_string_lossy(),
                file.file_name().to_string_lossy()
            );
            files.push((path, fnv1a64(&std::fs::read(file.path())?)));
        }
    }
    files.sort();
    Ok(files
        .into_iter()
        .map(|(path, digest)| format!("{digest:016x}  {path}"))
        .collect())
}

/// "Same bytes out" for traces: every `--trace-dir` file of the shared
/// run digests to its line in the committed `BENCH_traces.txt`. The
/// untimed-JSON golden and the determinism test already hold the traced
/// run's report to an untraced one.
#[test]
fn quick_traces_match_the_committed_digests() {
    summary();
    let dir = trace_dir();
    let actual = digest_lines(&dir).expect("the shared run wrote its traces");
    let _ = std::fs::remove_dir_all(&dir);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_traces.txt");
    let golden = std::fs::read_to_string(path).expect("BENCH_traces.txt is committed");
    let golden: Vec<&str> = golden.lines().collect();
    if golden == actual {
        return;
    }
    let fresh = std::env::temp_dir().join(format!("BENCH_traces_{}.txt", std::process::id()));
    std::fs::write(&fresh, actual.join("\n") + "\n").expect("write the fresh digests");
    let at = (0..golden.len().max(actual.len()))
        .find(|&i| golden.get(i).copied() != actual.get(i).map(String::as_str))
        .unwrap_or(0);
    panic!(
        "trace digests diverge from BENCH_traces.txt at line {}: golden {:?}, this run {:?} \
         ({} vs {} files; an intended change copies {} over BENCH_traces.txt)",
        at + 1,
        golden.get(at),
        actual.get(at),
        golden.len(),
        actual.len(),
        fresh.display(),
    );
}

/// The placement sweep's headline claim: fault-domain anti-affinity
/// strictly beats the packed adversarial baseline on post-burst output
/// fidelity in at least one swept cell.
#[test]
fn placement_sweep_domain_spread_beats_packed() {
    let fig = figure("placement_sweep", "placement_sweep");
    let packed = points(fig, "Packed");
    let spread = points(fig, "DomainSpread");
    assert_eq!(packed.len(), spread.len());
    assert!(
        packed
            .iter()
            .zip(spread)
            .any(|((_, p), (_, s))| s > &(p + 1e-9)),
        "DomainSpread never strictly dominated Packed on fidelity: \
         packed={packed:?} spread={spread:?}"
    );
}

/// The adaptive sweep's headline claim: the domain-health control policy
/// strictly beats the static (no-control-plane) baseline on post-failure
/// fidelity in at least one cell, and never does worse.
#[test]
fn adaptive_sweep_domain_health_dominates_static() {
    let fig = figure("adaptive_sweep", "adaptive_sweep");
    let static_series = points(fig, "static");
    let adaptive = points(fig, "domain-health");
    assert_eq!(static_series.len(), adaptive.len());
    assert!(
        static_series
            .iter()
            .zip(adaptive)
            .any(|((_, s), (_, a))| a > &(s + 1e-9)),
        "domain-health never strictly beat static on fidelity: \
         static={static_series:?} adaptive={adaptive:?}"
    );
    assert!(
        static_series
            .iter()
            .zip(adaptive)
            .all(|((_, s), (_, a))| a >= &(s - 1e-9)),
        "domain-health fell below static in a cell: \
         static={static_series:?} adaptive={adaptive:?}"
    );
}

/// The refail sweep's headline claim, first half: killing activated
/// replicas in a second cascade wave opens honest second outages (the
/// pre-lifecycle runtime recorded none), and only the control plane
/// closes them.
#[test]
fn refail_sweep_second_outages_open_and_only_the_control_plane_closes_them() {
    let histories = figure("refail_sweep", "refail_sweep_outages");
    assert!(
        points(histories, "second outages (static)")
            .iter()
            .any(|(_, v)| *v > 0.0),
        "no second outages recorded under static: {histories:?}"
    );
    assert!(
        points(histories, "second recoveries (static)")
            .iter()
            .all(|(_, v)| *v == 0.0),
        "static cannot close a second outage with passive recovery down: {histories:?}"
    );
    assert!(
        points(histories, "second recoveries (domain-health)")
            .iter()
            .any(|(_, v)| *v > 0.0),
        "domain-health must re-establish replicas for re-failed tasks: {histories:?}"
    );
}

/// The refail sweep's headline claim, second half: that gap is visible in
/// the second outage window's fidelity.
#[test]
fn refail_sweep_domain_health_dominates_inside_the_refailure_window() {
    let fidelity = figure("refail_sweep", "refail_sweep");
    let static_w2 = points(fidelity, "static");
    let adaptive_w2 = points(fidelity, "domain-health");
    assert_eq!(static_w2.len(), adaptive_w2.len());
    assert!(
        static_w2
            .iter()
            .zip(adaptive_w2)
            .all(|((_, s), (_, a))| a >= &(s - 1e-9))
            && static_w2
                .iter()
                .zip(adaptive_w2)
                .any(|((_, s), (_, a))| a > &(s + 1e-9)),
        "domain-health must dominate static inside the re-failure window: \
         static={static_w2:?} adaptive={adaptive_w2:?}"
    );
}

/// The approx sweep's headline claim: in at least one swept cell an
/// approximate strategy strictly beats exact checkpointing on recovery
/// completion latency, and pays for it in that same cell with strictly
/// lower measured fidelity against its golden run.
#[test]
fn approx_sweep_trades_latency_for_measured_fidelity() {
    let latency = figure("approx_sweep", "approx_sweep");
    let fidelity = figure("approx_sweep", "approx_sweep_fidelity");
    let checkpoint = points(latency, "Checkpoint-5s");
    let checkpoint_fidelity = points(fidelity, "Checkpoint-5s");
    assert_eq!(checkpoint_fidelity.len(), checkpoint.len());
    let approx_labels: Vec<&str> = latency
        .series
        .iter()
        .map(|s| s.label.as_str())
        .filter(|l| l.starts_with("Approx-"))
        .collect();
    assert!(!approx_labels.is_empty(), "no approximate series swept");
    let won = approx_labels.iter().any(|label| {
        let approx = points(latency, label);
        let approx_fidelity = points(fidelity, label);
        assert_eq!(approx.len(), checkpoint.len());
        assert_eq!(approx_fidelity.len(), checkpoint.len());
        checkpoint
            .iter()
            .zip(approx)
            .zip(checkpoint_fidelity.iter().zip(approx_fidelity))
            .any(|(((_, cp), (_, ap)), ((_, cp_fid), (_, ap_fid)))| {
                ap + 1e-9 < *cp && ap_fid + 1e-9 < *cp_fid
            })
    });
    assert!(
        won,
        "no cell where an approximate strategy beat Checkpoint-5s on completion \
         latency at a measured fidelity cost: {latency:?} {fidelity:?}"
    );
}

#[test]
fn filter_restricts_a_run_to_matching_ids() {
    let summary = run_experiments(&RunOptions {
        only: vec!["fig07".into(), "fig14".into()],
        filter: Some("14".into()),
        ..opts(2)
    });
    assert_eq!(
        summary.results.iter().map(|r| r.id).collect::<Vec<_>>(),
        vec!["fig14"],
        "--filter composes with explicit ids"
    );
}

#[test]
fn filter_matching_nothing_exits_nonzero_listing_known_ids() {
    let reproduce = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("spawn reproduce")
    };
    let out = reproduce(&["--quick", "--filter", "zzz-no-such-experiment"]);
    assert!(
        !out.status.success(),
        "a zero-match filter must exit nonzero, not silently run nothing"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--filter \"zzz-no-such-experiment\" matched no experiment"),
        "stderr names the filter: {stderr}"
    );
    assert!(
        stderr.contains("fig08"),
        "stderr lists the known ids: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no report on stdout");

    // A flag the CLI no longer has is rejected like any unknown flag, not
    // silently accepted.
    let out = reproduce(&["--quick", "--shards", "4", "fig08"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --shards") && stderr.contains("usage: reproduce"),
        "stderr names the flag and prints the usage line: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no report on stdout");
}

#[test]
fn unwritable_trace_dir_exits_1_before_any_experiment_runs() {
    // A directory under a regular file can never be created.
    let file = std::env::temp_dir().join(format!("ppa-trace-dir-{}", std::process::id()));
    std::fs::write(&file, b"").expect("write the blocking file");
    let dir = file.join("traces");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--quick", "--jobs", "1", "--trace-dir"])
        .arg(&dir)
        .arg("fig07")
        .output()
        .expect("spawn reproduce");
    std::fs::remove_file(&file).expect("remove the blocking file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!(
            "error: creating trace directory {}",
            dir.display()
        )),
        "stderr names the directory: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic: {stderr}");
    assert!(
        !stderr.contains(">> running"),
        "no experiment ran: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no report on stdout");
}

#[test]
fn jobs_1_and_jobs_4_produce_identical_serialized_output() {
    let serial = run_experiments(&opts(1));
    let parallel = summary();

    // The stdout report is byte-identical.
    assert_eq!(render_markdown(&serial), render_markdown(parallel));

    // So is every figure's and every run log's serialization (wall-clock
    // timings are deliberately outside the compared payload).
    assert_eq!(serial.results.len(), parallel.results.len());
    for (a, b) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(a.id, b.id, "registry order is preserved");
        let figs_a: Vec<String> = a.figures.iter().map(|f| f.to_json().to_pretty()).collect();
        let figs_b: Vec<String> = b.figures.iter().map(|f| f.to_json().to_pretty()).collect();
        assert_eq!(figs_a, figs_b, "{}: figures differ across job counts", a.id);
        let runs_a: Vec<String> = a.runs.iter().map(|l| l.to_json().to_pretty()).collect();
        let runs_b: Vec<String> = b.runs.iter().map(|l| l.to_json().to_pretty()).collect();
        assert_eq!(
            runs_a, runs_b,
            "{}: run logs differ across job counts",
            a.id
        );
    }
}
