//! The host's clocks and resource counters, read from outside the program
//! under test: wall time from `Instant`, process CPU time from
//! `clock_gettime`, user/system split and page faults from `getrusage`, and
//! the resident-set high-water mark from `/proc/self/status`.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as 64-bit Linux lays it out.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;

/// CPU seconds (user + system, all threads) this process has consumed.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`, and the clock id is one
    // every Linux kernel supports; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A reading of the process's resource usage.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `rusage` of the layout the 64-bit
    // Linux ABI defines; the call writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: &Timeval| tv.tv_sec as f64 + tv.tv_usec as f64 * 1e-6;
    Usage {
        user_s: secs(&ru.ru_utime),
        sys_s: secs(&ru.ru_stime),
        minor_faults: ru.ru_minflt.max(0) as u64,
    }
}

/// `VmHWM` in MiB: the most memory the process ever had resident.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Wall and CPU time of one call.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let cpu0 = process_cpu_s();
    let wall0 = Instant::now();
    let out = f();
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (out, Timed { wall_s, cpu_s })
}
