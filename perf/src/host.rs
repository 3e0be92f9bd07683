//! Host facts every result carries: core counts, toolchain, source
//! revision, and the process's peak resident set.

use serde::{Deserialize, Serialize};
use std::process::Command;

/// Upper limit on the one concurrency number the workloads use.
const MAX_CLIENTS: usize = 4;

/// Where a result was measured.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostFingerprint {
    /// Cores the OS reports online (`nproc`).
    pub nproc: usize,
    /// `std::thread::available_parallelism` (respects cgroup limits).
    pub available_parallelism: usize,
    /// `C = min(nproc, 4)`: client threads and service workers of
    /// `serve_mixed`; the other workloads use one client.
    pub clients: usize,
    pub rustc: String,
    /// `git rev-parse --short HEAD`, or `unversioned` outside a git
    /// checkout (the driver's checkouts are not repositories).
    pub git_rev: String,
    pub os: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// Online cores from `/proc/cpuinfo` (what `nproc --all` counts).
fn online_cores() -> Option<usize> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let n = info.lines().filter(|l| l.starts_with("processor")).count();
    (n > 0).then_some(n)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `C`: client threads and service workers of `serve_mixed`.
pub fn clients() -> usize {
    available_parallelism().min(MAX_CLIENTS)
}

impl HostFingerprint {
    pub fn collect() -> Self {
        let available_parallelism = available_parallelism();
        let nproc = online_cores().unwrap_or(available_parallelism);
        HostFingerprint {
            nproc,
            available_parallelism,
            clients: clients(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unversioned".into()),
            os: format!("{} {}", std::env::consts::OS, std::env::consts::ARCH),
        }
    }
}

/// Parse the `VmHWM` line of a `/proc/<pid>/status` document into MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let kib: f64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(kib / 1024.0),
        _ => None,
    }
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_status_format() {
        let status =
            "Name:\tdio-perf\nVmPeak:\t  300000 kB\nVmHWM:\t  131072 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(128.0));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 10 pages\n"), None);
        assert_eq!(parse_vm_hwm_mib(""), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(peak_rss_mib().expect("linux procfs") > 0.0);
    }

    #[test]
    fn client_count_is_capped() {
        let h = HostFingerprint::collect();
        assert!(h.clients >= 1 && h.clients <= MAX_CLIENTS);
        assert!(h.clients <= h.available_parallelism);
    }
}
