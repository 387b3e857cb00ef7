//! The two command lines. `fleet` refuses stray arguments and prints
//! the two lines the repository benchmark parses; `repro_all` runs
//! only the experiments it is given by id and refuses bad arguments.

use std::process::{Command, Output};

use threegol_bench::{registry, Scale};

fn fleet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleet")).args(args).output().expect("fleet binary runs")
}

fn repro_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(args)
        .output()
        .expect("repro_all binary runs")
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

/// The hex after `report digest` in a successful run's output.
fn report_digest(args: &[&str]) -> String {
    let out = fleet(args);
    assert!(
        out.status.success(),
        "fleet {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let (_, hex) = stdout.lines().find_map(|l| l.split_once("report digest ")).expect("a digest");
    hex.trim().to_string()
}

#[test]
fn a_chunk_past_u32_runs_the_fleet_as_one_chunk() {
    // 2^32 once narrowed to a zero step and 2^32 + 1 to one-home chunks.
    let whole = report_digest(&["4", "1", "4"]);
    assert_eq!(report_digest(&["4", "1", "4294967296"]), whole);
    assert_eq!(report_digest(&["4", "1", "4294967297"]), whole);
}

#[test]
fn repro_all_prints_only_the_named_sections_in_registry_order() {
    let out = repro_all(&["0.2", "1", "fig01", "cap02"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro_all 0.2 1 fig01 cap02 failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let headings: Vec<&str> = stdout.lines().filter(|l| l.starts_with("## ")).collect();
    assert_eq!(headings.len(), 2, "{headings:?}");
    assert!(headings[0].starts_with("## cap02 ") && headings[1].starts_with("## fig01 "));
    let scale = Scale::new(0.2).unwrap();
    let expected: String = ["cap02", "fig01"]
        .iter()
        .map(|id| registry().get(id).expect("registered").run_serial(scale).render_markdown())
        .collect();
    assert_eq!(stdout, expected);
}

#[test]
fn repro_all_bad_arguments_exit_2_with_usage() {
    for args in [&["0.2", "1", "nope"][..], &["2"], &["0.2", "0"], &["fleet"]] {
        let out = repro_all(args);
        assert_eq!(out.status.code(), Some(2), "repro_all {args:?} should exit 2");
        assert!(out.stdout.is_empty(), "repro_all {args:?} ran anyway");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro_all"), "repro_all {args:?}: no usage: {stderr}");
        assert!(stderr.contains("fig06"), "repro_all {args:?}: no valid ids: {stderr}");
    }
}
