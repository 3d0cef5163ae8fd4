//! What the benchmark reads from the host: process CPU time, peak resident
//! set, and the build/host facts every output file records.

use std::process::Command;
use std::sync::OnceLock;

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ` is
/// 100 on every Linux ABI this repo builds for.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads, including
/// ones already joined).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    (ticks() + ticks()) / USER_HZ
}

/// `VmHWM`: the process's peak resident set so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a helper command's output, or "unknown" (the driver's
/// checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line("rustc", &["-V"])
}

pub fn git_sha() -> String {
    first_line("git", &["rev-parse", "HEAD"])
}

/// CPUs the process may run on, read once from `Cpus_allowed_list` in
/// /proc/self/status (which describes the main thread) before any thread is
/// bound.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .expect("Cpus_allowed_list in /proc/self/status");
        let mut cpus = Vec::new();
        for part in list.trim().split(',') {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            let lo: usize = lo.parse().expect("cpu number");
            let hi: usize = hi.parse().expect("cpu number");
            cpus.extend(lo..=hi);
        }
        cpus
    })
}

extern "C" {
    /// `sched_setaffinity(2)`; pid 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn set_affinity(cpus: &[usize]) {
    // 1024 bits, the size of glibc's cpu_set_t.
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        assert!(cpu < 1024, "cpu {cpu} does not fit a cpu_set_t");
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialised buffer of exactly the
    // `size_of_val(&mask)` bytes passed as its length; the kernel only reads
    // it, for the duration of the call.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity({cpus:?}) failed");
}

/// Binds the calling thread to the `slot`-th CPU the process may use (modulo
/// their number). Threads it creates afterwards inherit the binding.
pub fn bind_this_thread(slot: usize) {
    let cpus = allowed_cpus();
    set_affinity(&[cpus[slot % cpus.len()]]);
}

/// Gives the calling thread back every CPU the process may use.
pub fn unbind_this_thread() {
    set_affinity(allowed_cpus());
}
