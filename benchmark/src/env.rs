//! The environment every result records: parallelism, CPU, compiler,
//! source revision, build profile and seed.

use std::path::Path;

use crate::gitrev::read_git_rev;

/// Worker threads the workloads use: `nproc`, capped at the two the
/// workloads were sized for, so a bigger machine runs the same load.
pub fn worker_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The source revision: read from `.git` in the working directory, else
/// the one the build script saw beside the benchmark's sources, else
/// `unknown` (a source export without `.git`).
fn git_rev() -> String {
    read_git_rev(Path::new(".git"))
        .or_else(|| Some(env!("NFBENCH_GIT_REV").to_string()).filter(|r| !r.is_empty()))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide `(total, steal)` CPU ticks from `/proc/stat`. On a shared
/// virtual machine, steal is time the hypervisor ran other guests on
/// this guest's CPUs: it stretches every wall-clock metric.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Share of host CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_fraction(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> Option<f64> {
    let ((t0, s0), (t1, s1)) = (start?, end?);
    (t1 > t0).then(|| s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

pub fn capture(seed: u64) -> Vec<(String, String)> {
    vec![
        ("nproc".into(), nproc().to_string()),
        ("worker_threads".into(), worker_threads().to_string()),
        ("cpu".into(), cpu_model()),
        ("rustc".into(), env!("NFBENCH_RUSTC").into()),
        ("git_rev".into(), git_rev()),
        ("profile".into(), env!("NFBENCH_PROFILE").into()),
        ("seed".into(), seed.to_string()),
    ]
}
