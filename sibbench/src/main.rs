//! `sibbench` — the end-to-end benchmark of the sibling-prefix system.
//!
//! ```text
//! sibbench --workload W --seed N --seconds S --trace 0|1
//! sibbench compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Run from the repository root. It builds the release `sibling-cli`,
//! exports the paper world's store, and runs one workload:
//!
//! * `batch-window` — `batch --store` over the 49-month paper window;
//! * `serve-read` — a static daemon over TCP loopback, read traffic;
//! * `live-replicated` — a primary and a follower on unix sockets,
//!   seeded retargets and month appends, reads on the follower.
//!
//! With `--trace 0` the program runs as child processes and the result
//! line carries the end-to-end metrics; with `--trace 1` the workloads'
//! seeded inputs are replayed in process through the layers' public
//! functions, and the result line carries the per-layer metrics. Human
//! readable output goes to stderr; the last stdout line is the result
//! (`correct`, `attempted`, `failed`, `metrics`). Every run also appends
//! a full record to `.sibbench/results.jsonl`, which `compare` reads.

mod compare;
mod e2e;
mod json;
mod proc;
mod report;
mod stats;
mod trace;
mod traced;
mod window;

use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["batch-window", "serve-read", "live-replicated"];

/// Every run ends inside this limit, children killed, however it fares.
const RUN_LIMIT: Duration = Duration::from_secs(170);

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = number()?,
            "--seconds" => run.seconds = number()?.max(1),
            "--trace" => run.trace = number()? != 0,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            run.workload
        ));
    }
    Ok(run)
}

fn run(args: &RunArgs) -> Result<report::Outcome, String> {
    let cli = proc::build_cli()?;
    let work = proc::WorkDir::create()?;
    if args.trace {
        return traced::run(&cli, &work, &args.workload, args.seed, args.seconds);
    }
    match args.workload.as_str() {
        "batch-window" => e2e::batch_window(&cli, &work, args.seconds),
        "serve-read" => e2e::serve_read(&cli, &work, args.seconds, args.seed),
        _ => e2e::live_replicated(&cli, &work, args.seconds, args.seed),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::run(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sibbench compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_run(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "sibbench: {e}\nusage: sibbench --workload W --seed N --seconds S --trace 0|1\n       \
                 sibbench compare PARENT.jsonl CHANGE.jsonl"
            );
            return ExitCode::FAILURE;
        }
    };
    proc::start_watchdog(RUN_LIMIT);
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("sibbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    outcome.print(&args.workload, args.seed, args.trace);
    if let Err(e) = outcome.append_record(&args.workload, args.seed, args.trace) {
        eprintln!("sibbench: {e}");
    }
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
