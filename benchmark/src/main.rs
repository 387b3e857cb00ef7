//! The repository benchmark: end-to-end workloads over the live
//! prototype and the fluid simulator, and a traced run that prices each
//! layer. `README.md` in this directory describes the workloads, the
//! metrics and how to read the trace.
//!
//! ```text
//! bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! bash benchmark/run.sh run [--seed N] [--seconds S]
//! bash benchmark/run.sh trace [--seed N]
//! bash benchmark/run.sh stability [--seed N] [--seconds S]
//! ```

mod fleet_cli;
mod json;
mod layers;
mod relay;
mod stats;
mod sweep;
mod trace;
mod workloads;

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use json::{result_line, Json};
use layers::LayerRun;
use stats::{median, quartiles};
use workloads::{Workload, WORKERS};

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1
  benchmark run [--seed N] [--seconds S]
  benchmark trace [--seed N]
  benchmark stability [--seed N] [--seconds S]
workloads: paper_street scenario_month relay_down relay_up relay_small sim_sweep";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = cli(&args).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        2
    });
    std::process::exit(code);
}

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: threegol_traces::DEFAULT_SCENARIO_SEED,
        seconds: None,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("invalid {flag} {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => o.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                o.seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                o.seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(o)
}

fn cli(args: &[String]) -> Result<i32, String> {
    let (command, rest) = match args.first() {
        Some(c) if !c.starts_with("--") => (c.as_str(), &args[1..]),
        _ => ("", args),
    };
    let o = parse_options(rest)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if WORKERS > nproc {
        return Err(format!(
            "the workloads run {WORKERS} worker threads but this machine offers {nproc}; \
             refusing to oversubscribe it"
        ));
    }
    match command {
        "" if o.trace => one_trace(o.seed),
        "" => {
            let workload = o.workload.ok_or(format!("--workload is required\n{USAGE}"))?;
            let seconds = o.seconds.ok_or(format!("--seconds is required\n{USAGE}"))?;
            one_run(workload, o.seed, seconds)
        }
        "run" => run_all(&o),
        "trace" => one_trace(o.seed),
        "stability" => stability(&o),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Where builds go: `$CARGO_TARGET_DIR`, else `target`.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// The commit `.git/HEAD` names, read without leaving the checkout.
fn git_head() -> Option<String> {
    let git = Path::new(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(hash) = fs::read_to_string(git.join(name)) {
        return Some(hash.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.split_once(' ').filter(|(_, r)| *r == name).map(|(h, _)| h.to_string()))
}

/// The line every result carries: the machine, the compiler, the
/// commit and the seed.
fn provenance(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = Command::new(std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into()))
        .arg("-V")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let commit = git_head().unwrap_or_else(|| "unknown".to_string());
    format!("provenance nproc={nproc} rustc=\"{rustc}\" commit={commit} seed={seed}")
}

fn row(name: &str, unit: &str, xs: &[f64]) -> String {
    let (lo, hi) =
        xs.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &x| (l.min(x), h.max(x)));
    format!("{name:<14} {unit:<8} {:>4} {:>16.6} {:>16.6} {:>16.6}", xs.len(), median(xs), lo, hi)
}

/// The end-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 3] =
    [("throughput", "items/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// One untraced run of one workload, ending in its result line.
fn one_run(workload: Workload, seed: u64, seconds: f64) -> Result<i32, String> {
    let out = workload.run(seed, seconds)?;
    let samples = [&out.throughput, &out.setup_s, &out.peak_rss_mib];
    println!(
        "== {} (seed {seed}): throughput counts {} per second",
        workload.name(),
        workload.item()
    );
    println!(
        "{:<14} {:<8} {:>4} {:>16} {:>16} {:>16}",
        "metric", "unit", "n", "median", "min", "max"
    );
    for ((name, unit), xs) in END_TO_END.iter().zip(samples) {
        println!("{}", row(name, unit, xs));
    }
    println!("digest {} {}", workload.name(), out.digest);
    for p in &out.problems {
        println!("check failed: {p}");
    }
    println!("{}", provenance(seed));
    let correct = out.failed == 0 && out.problems.is_empty();
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(samples)
        .map(|(&(name, unit), xs)| (name, median(xs), unit))
        .collect();
    println!("{}", result_line(correct, out.attempted, out.failed, &metrics));
    Ok(if correct { 0 } else { 1 })
}

/// The traced run: every per-layer metric, the span table, and the
/// span file.
fn one_trace(seed: u64) -> Result<i32, String> {
    let md = workloads::experiments_md()?;
    let run = LayerRun::run(seed, &md)?;
    println!("== traced run (seed {seed}): spans");
    print!("{}", trace::table(run.tracer.spans()));
    println!("== per-layer metrics");
    println!("{:<40} {:<6} {:>14} {:>6} {:>18}", "metric", "unit", "value", "n", "tail");
    for m in &run.metrics {
        let (n, tail) = match &m.timing {
            Some(t) => {
                (t.n.to_string(), t.tail.map_or("-".into(), |(p, v)| format!("p{p} {v:.4}")))
            }
            None if m.exact => ("-".into(), "exact".into()),
            None => ("-".into(), "-".into()),
        };
        println!("{:<40} {:<6} {:>14.4} {n:>6} {tail:>18}", m.name, m.unit, m.value);
    }
    for m in run.metrics.iter().filter(|m| m.exact) {
        println!("count {} {}", m.name, m.value);
    }
    for (name, digest) in &run.digests {
        println!("digest {name} {digest}");
    }
    for p in &run.problems {
        println!("check failed: {p}");
    }
    let path = target_dir().join("benchmark").join(format!("trace-{seed}.jsonl"));
    trace::write_jsonl(run.tracer.spans(), &path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    println!("{}", provenance(seed));
    let correct = run.failed == 0 && run.problems.is_empty();
    let metrics: Vec<(&str, f64, &str)> =
        run.metrics.iter().map(|m| (m.name.as_str(), m.value, m.unit)).collect();
    println!("{}", result_line(correct, run.attempted, run.failed, &metrics));
    Ok(if correct { 0 } else { 1 })
}

/// What a child run printed: its result line, digests and exact counts.
struct ChildRun {
    correct: bool,
    metrics: Vec<(String, f64)>,
    /// `digest` and `count` lines, as `(kind name, value)`.
    invariants: Vec<(String, String)>,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Run this binary with `args` in a child process, so its peak memory
/// and set-up belong to one workload, and read its result line.
fn child(args: &[String], echo: bool) -> Result<ChildRun, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut proc = Command::new(me)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = proc.stdout.take().expect("child stdout is piped");
    let (mut last, mut invariants) = (String::new(), Vec::new());
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading a child run: {e}"))?;
        if echo {
            println!("{line}");
        }
        if let Some((kind, rest)) =
            line.split_once(' ').filter(|(k, _)| *k == "digest" || *k == "count")
        {
            if let Some((name, value)) = rest.rsplit_once(' ') {
                invariants.push((format!("{kind} {name}"), value.to_string()));
            }
        }
        last = line;
    }
    let status = proc.wait().map_err(|e| format!("waiting for a child run: {e}"))?;
    let doc = Json::parse(&last)
        .map_err(|e| format!("`benchmark {}` ({status}) printed no result: {e}", args.join(" ")))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let correct = status.success() && doc.get("correct") == Some(&Json::Bool(true));
    Ok(ChildRun { correct, metrics, invariants })
}

fn child_args(workload: Option<Workload>, seed: u64, seconds: f64, trace: bool) -> Vec<String> {
    let mut args = Vec::new();
    if let Some(w) = workload {
        args.extend(["--workload".to_string(), w.name().to_string()]);
    }
    args.extend([
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ]);
    args
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct EndToEnd {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// What `BENCHMARK.json` declares.
struct Declared {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<String>,
}

fn names(doc: &Json, key: &str) -> Option<Vec<String>> {
    doc.get(key)?.as_array()?.iter().map(|m| Some(m.get("name")?.as_str()?.to_string())).collect()
}

fn declared_in(text: &str) -> Result<Declared, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let end_to_end = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Some(EndToEnd {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: an end_to_end entry lacks name, unit, better or bound")?;
    Ok(Declared {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        workloads: names(&doc, "workloads").ok_or("BENCHMARK.json: bad workloads list")?,
        end_to_end,
        per_layer: names(&doc, "per_layer").ok_or("BENCHMARK.json: bad per_layer list")?,
    })
}

/// The checked-out `BENCHMARK.json`.
fn declared() -> Result<Declared, String> {
    let text = fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    declared_in(&text)
}

/// Every workload once, each in its own child process.
fn run_all(o: &Options) -> Result<i32, String> {
    let seconds = match o.seconds {
        Some(s) => s,
        None => declared()?.run_seconds,
    };
    let mut results = Vec::new();
    for w in Workload::ALL {
        results.push((w, child(&child_args(Some(w), o.seed, seconds, false), true)?));
    }
    println!("== summary (seed {}, {seconds} s per workload)", o.seed);
    let mut all_correct = true;
    for (w, r) in &results {
        all_correct &= r.correct;
        let metrics: Vec<String> = r.metrics.iter().map(|(n, v)| format!("{n}={v:.6}")).collect();
        let verdict = if r.correct { "ok" } else { "CHECKS FAILED" };
        println!("{:<15} {verdict:<13} {}", w.name(), metrics.join(" "));
    }
    Ok(if all_correct { 0 } else { 1 })
}

/// Seeds per workload and set in a stability run.
const STABILITY_RUNS: u64 = 10;

/// One set of a stability run: every workload at [`STABILITY_RUNS`] seeds, plus a
/// traced run.
struct Set {
    /// `(workload, seed index)` → result.
    runs: Vec<((Workload, u64), ChildRun)>,
    trace: ChildRun,
}

fn run_set(o: &Options, seconds: f64, label: &str) -> Result<Set, String> {
    let mut runs = Vec::new();
    for w in Workload::ALL {
        for i in 0..STABILITY_RUNS {
            let seed = o.seed + i;
            let r = child(&child_args(Some(w), seed, seconds, false), false)?;
            let metrics: Vec<String> =
                r.metrics.iter().map(|(n, v)| format!("{n}={v:.6}")).collect();
            eprintln!("{label} {} seed {seed}: {}", w.name(), metrics.join(" "));
            runs.push(((w, i), r));
        }
    }
    eprintln!("{label} traced run, seed {}", o.seed);
    let trace = child(&child_args(None, o.seed, seconds, true), false)?;
    Ok(Set { runs, trace })
}

/// Two full sets back to back: for each end-to-end metric, each set's
/// median and quartiles and the second set's change against the
/// metric's bound; digests and exact counts side by side. Exits nonzero
/// if a spread or a change exceeds its bound, a digest or count
/// differs, or a check failed.
fn stability(o: &Options) -> Result<i32, String> {
    let declared = declared()?;
    if declared.workloads.iter().map(String::as_str).ne(Workload::ALL.map(Workload::name)) {
        return Err("BENCHMARK.json lists other workloads than this binary runs".into());
    }
    let seconds = o.seconds.unwrap_or(declared.run_seconds);
    let sets = [run_set(o, seconds, "set 1")?, run_set(o, seconds, "set 2")?];
    let mut bad = Vec::new();
    if sets[0].trace.metrics.iter().map(|(n, _)| n).ne(declared.per_layer.iter()) {
        bad.push(
            "the traced run's metrics differ from BENCHMARK.json's per_layer list".to_string(),
        );
    }

    println!(
        "== end-to-end metrics: {} runs per workload and set, seeds {}..{}",
        STABILITY_RUNS,
        o.seed,
        o.seed + STABILITY_RUNS - 1
    );
    println!(
        "{:<15} {:<13} {:>40} {:>40} {:>8} {:>6}",
        "workload",
        "metric",
        "set 1: median [q1, q3] spread",
        "set 2: median [q1, q3] spread",
        "change",
        "bound"
    );
    for w in Workload::ALL {
        for d in &declared.end_to_end {
            let values = |set: &Set| -> Vec<f64> {
                set.runs
                    .iter()
                    .filter(|((rw, _), _)| *rw == w)
                    .filter_map(|(_, r)| r.metric(&d.name))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.is_empty() || b.is_empty() {
                bad.push(format!("{} {}: missing from a result", w.name(), d.name));
                continue;
            }
            // (median, "median [q1, q3] spread"), spread = (q3 − q1) / median.
            let summary = |xs: &[f64]| {
                let (m, (q1, q3)) = (median(xs), quartiles(xs));
                let spread = (q3 - q1) / m;
                (m, spread, format!("{m:.6} [{q1:.6}, {q3:.6}] {spread:.4}"))
            };
            let ((ma, sa, ta), (mb, sb, tb)) = (summary(&a), summary(&b));
            let change = if d.lower_is_better { mb / ma - 1.0 } else { ma / mb - 1.0 };
            // Set-up time is exempt from the spread rule, not from the
            // change rule.
            let judged_spread = if d.name == "setup_s" { 0.0 } else { sa.max(sb) };
            let mut verdict = Vec::new();
            if judged_spread > d.bound {
                verdict.push("SPREAD > BOUND");
            } else if judged_spread > d.bound / 3.0 {
                verdict.push("spread > bound/3");
            }
            if change > d.bound {
                verdict.push("WORSE > BOUND");
            }
            if judged_spread > d.bound || change > d.bound {
                bad.push(format!("{} {}: {}", w.name(), d.name, verdict.join(", ")));
            }
            println!(
                "{:<15} {:<13} {ta:>40} {tb:>40} {change:>+8.4} {:>6.3} {} {}",
                w.name(),
                d.name,
                d.bound,
                d.unit,
                verdict.join(", ")
            );
        }
    }

    println!("== digests and exact counts, set 1 | set 2");
    let pairs = sets[0]
        .runs
        .iter()
        .zip(&sets[1].runs)
        .map(|((key, a), (_, b))| (format!("{} seed {}", key.0.name(), o.seed + key.1), a, b));
    let traced =
        std::iter::once((format!("traced seed {}", o.seed), &sets[0].trace, &sets[1].trace));
    for (label, a, b) in pairs.chain(traced) {
        if !a.correct || !b.correct {
            bad.push(format!("{label}: an output check failed"));
        }
        for ((name, va), (_, vb)) in a.invariants.iter().zip(&b.invariants) {
            let same = va == vb;
            println!(
                "{label:<28} {name:<42} {va:>18} | {vb:<18} {}",
                if same { "" } else { "DIFFERS" }
            );
            if !same {
                bad.push(format!("{label} {name} differs"));
            }
        }
        if a.invariants.len() != b.invariants.len() {
            bad.push(format!("{label}: the sets printed different digests or counts"));
        }
    }
    for b in &bad {
        println!("unstable: {b}");
    }
    Ok(if bad.is_empty() { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let text = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let d = declared_in(&text).unwrap();
        assert_eq!(d.workloads, Workload::ALL.map(|w| w.name().to_string()));
        let e2e: Vec<(&str, &str)> =
            d.end_to_end.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
        assert_eq!(e2e, END_TO_END);
        assert!(d.end_to_end.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for e in threegol_bench::registry().all() {
            assert!(d.per_layer.contains(&format!("experiments.{}_ms", e.id())), "{}", e.id());
        }
    }

    #[test]
    fn options_parse_a_single_run() {
        let args: Vec<String> =
            ["--workload", "relay_up", "--seed", "7", "--seconds", "15", "--trace", "1"]
                .map(String::from)
                .to_vec();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.workload, Some(Workload::RelayUp));
        assert_eq!((o.seed, o.seconds, o.trace), (7, Some(15.0), true));
        for bad in
            [&["--seconds", "0"][..], &["--trace", "2"], &["--workload", "nope"], &["--seed"]]
        {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_options(&bad).is_err(), "{bad:?}");
        }
    }
}
