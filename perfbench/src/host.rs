//! Host descriptor and process memory.

use crate::json::{obj, Json};
use std::path::Path;

/// Reset this process's peak resident set size to its current one
/// (Linux `clear_refs` 5), so the next [`peak_rss_mb`] covers only what
/// runs from here on. Where the kernel refuses, the peak stays the
/// process's whole-life peak, which is still an upper bound.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The source revision of the checkout `exe` was built in, when it is a
/// git checkout.
fn git_commit(exe: &Path) -> String {
    let dir = exe.parent().unwrap_or(Path::new("."));
    std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// Everything a result needs to say about where it was measured and
/// with which build: this host, this build's toolchain and profile, and
/// the benchmark executable `exe` and its revision.
pub fn descriptor(exe: &Path) -> Json {
    obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("profile", Json::str(env!("PERFBENCH_PROFILE"))),
        ("exe", Json::str(exe.display().to_string())),
        ("git_commit", Json::str(git_commit(exe))),
    ])
}
