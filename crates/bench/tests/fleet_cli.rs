//! The `fleet` command line: stray arguments are refused, and a run
//! prints the two lines the repository benchmark parses.

use std::process::Command;

fn fleet(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fleet")).args(args).output().expect("fleet binary runs")
}

#[test]
fn stray_arguments_exit_2_with_usage() {
    for args in [&["4", "1", "4", "9"][..], &["4", "--bogus"], &["4", "--seed"]] {
        let out = fleet(args);
        assert_eq!(out.status.code(), Some(2), "fleet {args:?} should exit 2");
        assert!(out.stdout.is_empty(), "fleet {args:?} ran anyway");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: fleet"), "fleet {args:?} printed no usage: {stderr}");
    }
}

#[test]
fn run_prints_the_lines_the_benchmark_parses() {
    let out = fleet(&["4", "1"]);
    assert!(out.status.success(), "fleet 4 1 failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let hex = stdout
        .lines()
        .find_map(|l| l.split_once("report digest ").map(|(_, hex)| hex.trim()))
        .expect("a `report digest` line");
    assert_eq!(hex.len(), 16);
    assert!(u64::from_str_radix(hex, 16).is_ok(), "digest {hex:?} is not hex");
    if cfg!(target_os = "linux") {
        let rss = stdout
            .lines()
            .find_map(|l| l.strip_prefix("peak RSS ")?.strip_suffix(" MiB"))
            .expect("a `peak RSS <x> MiB` line");
        assert!(rss.parse::<f64>().is_ok_and(|mib| mib > 0.0), "bad peak RSS {rss:?}");
    }
}
