//! Driving the user-facing `fleet` CLI.
//!
//! The fleet workloads launch the `fleet` binary exactly as a user
//! would and read back the two lines of its output the benchmark
//! depends on:
//!
//! ```text
//! ... report digest 8cf467045efaa947
//! peak RSS 16.0 MiB
//! ```

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one `fleet` launch printed that the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetOutput {
    /// The fleet's report digest.
    pub digest: u64,
    /// The child's peak resident set (`VmHWM`), MiB.
    pub peak_rss_mib: f64,
}

/// Read the digest and peak-RSS lines out of `fleet`'s stdout.
pub fn parse(stdout: &str) -> Result<FleetOutput, String> {
    let digest = stdout
        .lines()
        .find_map(|l| l.split_once("report digest ").map(|(_, hex)| hex.trim()))
        .ok_or("no `report digest` line in fleet output")?;
    let digest = u64::from_str_radix(digest, 16).map_err(|_| format!("bad digest {digest:?}"))?;
    let rss = stdout
        .lines()
        .find_map(|l| l.strip_prefix("peak RSS ")?.strip_suffix(" MiB"))
        .ok_or("no `peak RSS` line in fleet output")?;
    let peak_rss_mib = rss.trim().parse().map_err(|_| format!("bad peak RSS {rss:?}"))?;
    Ok(FleetOutput { digest, peak_rss_mib })
}

/// The digest pinned in the `## {section} ` section of
/// `EXPERIMENTS.md`: the `digest <16 hex>` line before the next section.
pub fn pinned_digest(experiments_md: &str, section: &str) -> Option<u64> {
    let heading = format!("## {section} ");
    experiments_md
        .lines()
        .skip_while(|l| !l.starts_with(&heading))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .find_map(|l| l.strip_prefix("digest "))
        .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
}

/// The `fleet` binary next to this one.
pub struct Fleet {
    bin: PathBuf,
}

impl Fleet {
    /// Find the sibling `fleet` binary, or explain how to build it.
    pub fn locate() -> Result<Fleet, String> {
        let me = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
        let bin = me.with_file_name("fleet");
        if bin.is_file() {
            Ok(Fleet { bin })
        } else {
            Err(format!(
                "missing {}: build it next to the benchmark with \
                 `cargo build --release -p threegol-bench --bin fleet` \
                 (benchmark/run.sh builds both)",
                bin.display()
            ))
        }
    }

    /// Launch `fleet` with `args`, wait for it, and return its output
    /// and its wall time in seconds, launch to exit.
    pub fn run(&self, args: &[String]) -> Result<(FleetOutput, f64), String> {
        let start = Instant::now();
        let out = Command::new(&self.bin)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot launch fleet: {e}"))?;
        let wall = start.elapsed().as_secs_f64();
        if !out.status.success() {
            return Err(format!("`fleet {}` exited with {}", args.join(" "), out.status));
        }
        Ok((parse(&String::from_utf8_lossy(&out.stdout))?, wall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_two_lines_the_benchmark_reads() {
        let stdout = "fleet: 200 homes (virtual net, virtual time)\n\
            200 homes on 2 worker(s), chunk 64: 0.23 s wall (878 homes/s, 44598 net events/s); \
            report digest 8cf467045efaa947\n\
            peak RSS 16.0 MiB\n\
            per-home cost: 0.6 µs setup + 1931.2 µs workload + 1.4 µs teardown\n";
        let out = parse(stdout).unwrap();
        assert_eq!(out.digest, 0x8cf4_6704_5efa_a947);
        assert_eq!(out.peak_rss_mib, 16.0);
        assert!(parse("peak RSS 16.0 MiB\n").is_err());
        assert!(parse("report digest 8cf467045efaa947\n").is_err());
        assert!(parse("report digest zz\npeak RSS 1 MiB\n").is_err());
    }

    #[test]
    fn finds_pinned_digests_by_section() {
        let md = "## fleet — live\n\n```text\nfleet: 200 homes\ndigest 8cf467045efaa947\n```\n\
                  ## fig11-fleet — cells\ndigest 0000000000000001\n\
                  ## scenario — week\ntext\ndigest 75d422a7ed8b8927\n";
        assert_eq!(pinned_digest(md, "fleet"), Some(0x8cf4_6704_5efa_a947));
        assert_eq!(pinned_digest(md, "scenario"), Some(0x75d4_22a7_ed8b_8927));
        assert_eq!(pinned_digest(md, "fig11-fleet"), Some(1));
        assert_eq!(pinned_digest(md, "cells"), None);
    }
}
