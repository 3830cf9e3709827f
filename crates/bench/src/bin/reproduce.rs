//! Reproduces the paper's evaluation figures: markdown tables on stdout,
//! progress and timings on stderr, and (optionally) a machine-readable
//! report on disk.
//!
//! ```text
//! reproduce [--quick] [--jobs N] [--seed S] [--swarm N] [--json PATH]
//!           [--trace-dir DIR] [--list] [--filter SUBSTR]
//!           [EXPERIMENT.. | all]
//! ```
//!
//! `--list` prints the experiment ids, descriptions and paper sections
//! (the registry is the only list).
//!
//! Experiments run concurrently on a bounded worker pool (`--jobs`,
//! default = available parallelism); stdout is byte-identical for any job
//! count — timings never touch it. `--trace-dir` records every driven
//! run's engine-event stream under `DIR/<experiment>/` as JSONL + Chrome
//! `trace_event` files, themselves byte-identical for any job count.
//! `--seed` re-roots the chaos swarm's scenario stream and
//! `--swarm` overrides its scenario count (`reproduce --seed S --swarm N
//! chaos_swarm` replays exactly the swarm a CI failure named).

use ppa_bench::{registry, render_markdown, run_experiments, RunOptions};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: reproduce [--quick] [--jobs N] [--seed S] \
     [--swarm N] [--json PATH] [--trace-dir DIR] [--list] [--filter SUBSTR] \
     [EXPERIMENT.. | all]";

fn main() -> ExitCode {
    let mut opts = RunOptions {
        progress: true,
        ..RunOptions::default()
    };
    let mut json_path: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => opts.quick = true,
            "--jobs" | "-j" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--jobs needs a positive integer\n{USAGE}");
                    return ExitCode::from(2);
                };
                if n == 0 {
                    eprintln!("--jobs must be at least 1\n{USAGE}");
                    return ExitCode::from(2);
                }
                opts.jobs = n;
            }
            "--seed" => {
                let Some(raw) = args.next() else {
                    eprintln!("--seed needs an unsigned 64-bit integer\n{USAGE}");
                    return ExitCode::from(2);
                };
                let Ok(s) = raw.parse::<u64>() else {
                    eprintln!("--seed needs an unsigned 64-bit integer, got \"{raw}\"\n{USAGE}");
                    return ExitCode::from(2);
                };
                opts.seed = Some(s);
            }
            "--swarm" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--swarm needs a positive integer\n{USAGE}");
                    return ExitCode::from(2);
                };
                if n == 0 {
                    eprintln!("--swarm must be at least 1\n{USAGE}");
                    return ExitCode::from(2);
                }
                opts.swarm = Some(n);
            }
            "--json" => {
                let Some(p) = args.next() else {
                    eprintln!("--json needs a path\n{USAGE}");
                    return ExitCode::from(2);
                };
                json_path = Some(PathBuf::from(p));
            }
            "--trace-dir" => {
                let Some(d) = args.next() else {
                    eprintln!("--trace-dir needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                };
                opts.trace_dir = Some(PathBuf::from(d));
            }
            "--filter" | "-f" => {
                let Some(f) = args.next() else {
                    eprintln!("--filter needs an id substring\n{USAGE}");
                    return ExitCode::from(2);
                };
                opts.filter = Some(f);
            }
            "--list" | "-l" => {
                // Discovery without reading experiments/mod.rs: one line
                // per experiment, id first (stable column for scripts),
                // then what it reproduces and the paper section.
                for e in registry() {
                    println!("{:16} {} [{}]", e.id, e.description, e.section);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}\n\nknown experiments:");
                for e in registry() {
                    println!("  {:10} {} [{}]", e.id, e.description, e.section);
                }
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            id => {
                // Dedupe repeated selectors: `reproduce fig08 fig08` runs
                // fig08 once, not twice.
                let id = id.to_lowercase();
                if !opts.only.contains(&id) {
                    opts.only.push(id);
                }
            }
        }
    }

    if let Err(err) = ppa_bench::select(&opts.only, opts.filter.as_deref()) {
        eprintln!("{err}; known ids:");
        for e in registry() {
            eprintln!("  {:10} {}", e.id, e.description);
        }
        return ExitCode::from(2);
    }
    // Made before any experiment runs, so an unwritable directory costs
    // nothing and reports like an unwritable `--json` path.
    if let Some(dir) = &opts.trace_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("error: creating trace directory {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let summary = run_experiments(&opts);
    print!("{}", render_markdown(&summary));

    eprintln!(
        "== {} experiment(s) in {:.3}s on {} worker(s)",
        summary.results.len(),
        summary.total_wall.as_secs_f64(),
        summary.jobs
    );
    for result in &summary.results {
        eprintln!("   {:10} {:.3}s", result.id, result.wall.as_secs_f64());
    }

    if let Some(path) = json_path {
        if let Err(err) = ppa_bench::report::write_json(&summary, &path) {
            // write_json's error already names the target path.
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
