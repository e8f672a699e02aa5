//! Process introspection and the stamp every result set carries.

use std::process::Command;

fn proc_field(file: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident memory of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes this process has passed to `write` so far.
pub fn bytes_written() -> f64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0.0)
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line(cmd: &str, args: &[&str]) -> String {
    // Keep git from searching above the working directory for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    Command::new(cmd)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What a result set was measured on and with.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub git_sha: String,
    pub nproc: usize,
    pub rustc: String,
    pub seed: u64,
    pub shards: usize,
    pub scale: String,
}

impl Stamp {
    pub fn collect(seed: u64, shards: usize, scale: String) -> Self {
        Self {
            git_sha: first_line("git", &["rev-parse", "--short=12", "HEAD"]),
            nproc: skyscraper::detect_cores(),
            rustc: first_line("rustc", &["--version"]),
            seed,
            shards,
            scale,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "git_sha={} nproc={} rustc=\"{}\" seed={} shards={} scale=\"{}\"",
            self.git_sha, self.nproc, self.rustc, self.seed, self.shards, self.scale
        )
    }
}
