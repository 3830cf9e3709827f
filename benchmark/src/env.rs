//! The measurement environment, reported with every result so a number can
//! be read against the host it came from.

use crate::json_str;
use std::process::Command;

pub struct Environment {
    pub load_start: f64,
}

/// The 1-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0)
}

/// First line of a command's standard output; `unknown` when the command
/// is missing or fails (a benchmark checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Environment {
    /// Call at process start, so `load_start` is the load before the
    /// benchmark added its own. Everything else is read when the block is
    /// written, after the timing: two of the fields start a process each.
    pub fn read() -> Self {
        Environment {
            load_start: load_average(),
        }
    }

    /// The block as JSON fields (no braces), closing the load bracket now.
    pub fn json_fields(&self) -> String {
        let load_end = load_average();
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let noisy = self.load_start.max(load_end) > nproc as f64;
        format!(
            "\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": \"{profile}\", \
             \"git_rev\": {}, \"load_start\": {}, \"load_end\": {load_end}, \
             \"noisy_host\": {noisy}",
            json_str(&cpu_model),
            json_str(&first_line("rustc", &["-V"])),
            json_str(&first_line("git", &["rev-parse", "HEAD"])),
            self.load_start,
        )
    }
}
