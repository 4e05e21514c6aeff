//! Host fingerprint and memory high-water mark.

use std::fs;

/// Which host and build produced a result.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Hardware threads the OS reports.
    pub hw_threads: usize,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile kind (`release` or `debug`).
    pub profile: &'static str,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub git_commit: String,
}

impl Fingerprint {
    /// Fingerprint of this process, reading `.git` under the working
    /// directory when there is one.
    pub fn current() -> Self {
        Fingerprint {
            hw_threads: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hw_threads\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \"git_commit\": \"{}\"}}",
            self.hw_threads,
            self.rustc.replace('"', "'"),
            self.profile,
            self.git_commit
        )
    }
}

/// Resolve `.git/HEAD` without running git: a detached hash, or a ref
/// looked up as a loose file or in `packed-refs`.
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(h) = fs::read_to_string(format!(".git/{r}")) {
        return Some(h.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
}

/// Peak resident set size (`VmHWM`) of this process in MiB, if the OS
/// exposes it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
