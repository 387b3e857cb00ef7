//! Run a fleet of live-prototype households, streamed through the
//! worker pool, and print the fleet digest.
//!
//! Every home is a full `threegol-proxy` household — origin, device
//! proxies with quota-gated discovery, client-side HLS proxy, and a
//! concurrent VoD prebuffer + photo upload — on its own virtual
//! network under virtual time. Homes stream through the workers in
//! chunks and fold into a mergeable digest, so memory stays flat in
//! the fleet size (a million homes run in tens of megabytes) and the
//! digest is byte-identical for any worker count or chunk size.
//!
//! ```text
//! cargo run -p threegol-bench --release --bin fleet \
//!     [homes] [workers] [chunk] [--cells N] [--scenario week|DAYS] [--seed S]
//! ```
//!
//! A fourth positional argument or an unknown `--flag` exits 2 with a
//! usage line. The last two lines of a run, `… report digest <hex>` and
//! `peak RSS <x> MiB`, are what the repository benchmark parses.
//!
//! With `--cells N` the homes share `N` 3G cells through the
//! fixed-point cellular coupling (paper §6 / Fig 11): the fleet runs
//! repeatedly, each pass's per-cell onload feeding back as the next
//! pass's per-phone capacity shares, until the shares settle. The
//! printed digest is the converged pass's — still byte-identical
//! across worker counts and chunk sizes.
//!
//! With `--scenario week` (or `--scenario DAYS` for 1..=35 days) each
//! home runs the trace-driven multi-day scenario engine instead of the
//! fixed paper script: diurnal VoD/upload schedules, device churn, and
//! the live §6 allowance loop debiting daily 3GOLa(t) grants. The
//! digest grows per-day/per-hour onload rows and overrun counters, and
//! stays byte-identical across worker counts, chunk sizes, and runtime
//! modes. `--seed S` reseeds the whole street.

use threegol_bench::fleet::{
    home_spec, peak_rss_bytes, run_cell_fleet, scenario_spec, CellFleetConfig, Fleet,
    DEFAULT_CHUNK, MAX_CELLS,
};
use threegol_bench::{resolve_workers, Pool};
use threegol_proxy::MAX_SCENARIO_DAYS;
use threegol_traces::DEFAULT_SCENARIO_SEED;

const USAGE: &str =
    "usage: fleet [homes] [workers] [chunk] [--cells N] [--scenario week|DAYS] [--seed S]";

/// Print `message` and the usage line, then exit 2.
fn fail(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`, which must be present.
fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str, expected: &str) -> String {
    args.next().unwrap_or_else(|| fail(&format!("{flag} needs a value: {expected}")))
}

fn parse_positive(raw: &str, what: &str) -> usize {
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => fail(&format!("invalid {what} {raw:?}: expected a positive integer")),
    }
}

fn main() {
    let mut positional = Vec::new();
    let mut cells: Option<u32> = None;
    let mut scenario_days: Option<u16> = None;
    let mut seed = DEFAULT_SCENARIO_SEED;
    let mut args = std::env::args().skip(1);
    while let Some(raw) = args.next() {
        match raw.as_str() {
            "--cells" => {
                let value = flag_value(&mut args, "--cells", &format!("1..={MAX_CELLS}"));
                let n = parse_positive(&value, "cell count");
                if n > MAX_CELLS {
                    fail(&format!(
                        "invalid cell count {n}: the digest tracks at most {MAX_CELLS} cells"
                    ));
                }
                cells = Some(n as u32);
            }
            "--scenario" => {
                let expected = format!("week, or a day count 1..={MAX_SCENARIO_DAYS}");
                let value = flag_value(&mut args, "--scenario", &expected);
                let days =
                    if value == "week" { 7 } else { parse_positive(&value, "scenario day count") };
                if days > MAX_SCENARIO_DAYS {
                    fail(&format!(
                        "invalid scenario length {days}: at most {MAX_SCENARIO_DAYS} days"
                    ));
                }
                scenario_days = Some(days as u16);
            }
            "--seed" => {
                let value = flag_value(&mut args, "--seed", "a u64");
                seed = value
                    .parse::<u64>()
                    .unwrap_or_else(|_| fail(&format!("invalid seed {value:?}: expected a u64")));
            }
            flag if flag.starts_with("--") => fail(&format!("unknown flag {flag:?}")),
            _ if positional.len() == 3 => fail(&format!("unexpected argument {raw:?}")),
            _ => positional.push(raw),
        }
    }
    if scenario_days.is_some() && cells.is_some() {
        fail("--scenario and --cells are separate modes; pick one");
    }
    let mut positional = positional.into_iter();
    let homes = positional.next().map_or(100, |raw| parse_positive(&raw, "home count"));
    let workers_arg = positional.next().map(|raw| parse_positive(&raw, "worker count"));
    let chunk = positional.next().map_or(DEFAULT_CHUNK, |raw| parse_positive(&raw, "chunk size"));
    let workers = resolve_workers(workers_arg).min(homes);

    let start = std::time::Instant::now();
    let (digest, cell_run) = Pool::with(workers, |pool| match (cells, scenario_days) {
        (Some(cells), _) => {
            let config = CellFleetConfig { cells, ..CellFleetConfig::default() };
            let run = run_cell_fleet(homes, chunk, pool, &config);
            (run.digest, Some(run))
        }
        (None, Some(days)) => {
            let spec = move |index| scenario_spec(index, days, seed);
            (Fleet { chunk, ..Fleet::new(homes, spec) }.run(pool), None)
        }
        (None, None) => (Fleet { chunk, ..Fleet::new(homes, home_spec) }.run(pool), None),
    });
    let wall = start.elapsed().as_secs_f64();

    print!("{}", digest.render());
    if let Some(run) = &cell_run {
        print!("{}", run.render());
    }
    println!(
        "{homes} homes on {workers} worker(s), chunk {chunk}: {wall:.2} s wall \
         ({:.0} homes/s, {:.0} net events/s); report digest {:016x}",
        homes as f64 / wall,
        digest.net_events as f64 / wall,
        digest.digest()
    );
    if let Some(rss) = peak_rss_bytes() {
        println!("peak RSS {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
    }
}
