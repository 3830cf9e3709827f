//! The repo's benchmark: four fixed-work workloads over the PPA
//! reproduction, end-to-end metrics from the untraced `bench` binary and
//! per-layer metrics from the `traced` one. See `README.md` beside this
//! crate's manifest for the workloads, the metrics and how they interact.

pub mod alloc_count;
pub mod clock;
pub mod env;
pub mod harness;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;

/// Where the benchmark writes its files, and the only place it writes:
/// `benchmark/out/` under the checkout's root, which is where `run.sh` and
/// the driver run it from (or `out/` when run from the crate's own
/// directory).
pub fn out_dir() -> PathBuf {
    let crate_dir = PathBuf::from("benchmark");
    let dir = if crate_dir.join("Cargo.toml").is_file() {
        crate_dir.join("out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir).expect("the benchmark's out directory can be created");
    dir
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
