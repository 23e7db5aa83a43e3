//! The three end-to-end workloads, run against the release
//! `sibling-cli`: its batch runs and daemons are child processes,
//! reached over stdout and real sockets. Each workload checks every
//! output against an in-process oracle.
//!
//! Headline metrics (the result line) are the same four on every
//! workload, each meaning that workload's unit of work:
//!
//! | metric        | batch-window        | serve-read            | live-replicated        |
//! |---------------|---------------------|-----------------------|------------------------|
//! | `setup_s`     | `world export`      | spawn → `listening`   | spawn → both ready     |
//! | `peak_rss_mb` | batch process       | daemon                | primary or follower    |
//! | `op_p50_ms`   | `batch_s` (median)  | `read_closed_p50_us`  | `ingest_ack_p50_ms`    |
//! | `op_per_s`    | window runs / s     | `read_qps`            | acks/s, median group   |
//!
//! serve-read pools the three daemons it sets up, live-replicated its
//! [`LIVE_PAIRS`] daemon pairs, each timed for an equal share of the run.
//!
//! On live-replicated both op metrics count retargets only: the month
//! appends run before the timed phase and are reported on their own
//! (`ingest_append_ack_*`). The workload-specific metrics of each
//! workload are printed and recorded by their own names beside these.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sibling_core::query::WindowQueryIndex;
use sibling_core::{EngineConfig, EpochState};
use sibling_net_types::MonthDate;
use sibling_service::{Client, QueryPlanner, Response};

use crate::proc::{self, Daemon, WorkDir};
use crate::report::{Metric, Outcome};
use crate::stats::{median, sorted, Rng};
use crate::window::{self, DeltaStream, ReadPool, Stored};

/// How many times a run sets up, for the median `setup_s`.
pub const SETUPS: usize = 3;
/// Daemon pairs of a live-replicated run, each set up and timed for an
/// equal share of it.
pub const LIVE_PAIRS: usize = 4;
/// The serve-read window: the last 24 months of the paper window.
pub const SERVE_FROM: (u16, u8) = (2022, 10);
/// The live window the daemons bootstrap: 36 months, leaving 12
/// stored months to append.
pub const LIVE_FROM: (u16, u8) = (2020, 10);
/// Last bootstrapped month of the live window.
pub const LIVE_TO: (u16, u8) = (2023, 9);
/// Distinct requests in a read pool.
pub const POOL_SIZE: usize = 4096;
/// Paced-phase send rate of each serve-read connection.
pub const PACED_PER_CONN_PER_S: u64 = 1000;
/// Connections of the serve-read workload.
pub const READ_CONNS: usize = 2;
/// Requests each serve-read connection sends at once in the closed-loop
/// phase before reading their answers.
pub const PIPELINE: usize = 16;
/// Pause between the live workload's probe pairs (a read, then an
/// `epoch` probe) on the follower: short next to the visible lag it
/// resolves, long enough that probing takes little CPU from the two
/// daemons' ingest.
pub const PROBE_GAP: Duration = Duration::from_millis(2);
/// Deltas sent before the timed window, so the follower has connected
/// and the writer path is warm.
pub const WARMUP_DELTAS: usize = 3;

fn month((y, m): (u16, u8)) -> MonthDate {
    MonthDate::new(y, m)
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Length of the slices throughput is counted in.
pub const SLICE_S: f64 = 0.5;

/// Completions per second of each whole slice of a phase (the last,
/// partial slice is dropped). Their median moves little for a stall in
/// one slice.
pub fn slice_rates(per_slice: &[u64]) -> Vec<f64> {
    let whole = match per_slice.len() {
        0 | 1 => per_slice,
        n => &per_slice[..n - 1],
    };
    whole.iter().map(|&n| n as f64 / SLICE_S).collect()
}

/// Timed retargets per group in the live writer's rate.
pub const ACK_GROUP: usize = 16;

/// Completions per second of consecutive groups of `group` completions
/// of one closed loop, `done` being each completion's time in seconds
/// since the loop started (ascending). Each group's rate is its count
/// over the time from the previous group's last completion to its own; a
/// last, partial group is dropped. As with [`slice_rates`], their median
/// moves little for a stall in one group; unlike a count per slice, it is
/// not rounded to whole completions.
pub fn group_rates(done: &[f64], group: usize) -> Vec<f64> {
    let group = group.max(1);
    done.chunks_exact(group)
        .enumerate()
        .map(|(j, chunk)| {
            let begin = if j == 0 { 0.0 } else { done[j * group - 1] };
            group as f64 / (chunk[group - 1] - begin)
        })
        .collect()
}

fn median_secs(walls: &[Duration]) -> f64 {
    median(&sorted(
        &walls.iter().map(Duration::as_secs_f64).collect::<Vec<_>>(),
    ))
}

/// Conditions every workload records.
fn common_conditions(outcome: &mut Outcome, seconds: u64) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    outcome.condition("available_parallelism", cores);
    outcome.condition(
        "world",
        format!("{} seed {}", proc::WORLD_PRESET, proc::WORLD_SEED),
    );
    outcome.condition("run_seconds", seconds);
}

/// `batch-window`: `sibling-cli batch --store` over the 49-month paper
/// window, repeated for `seconds`, every stdout compared with the
/// per-month `detect` oracle.
pub fn batch_window(cli: &Path, work: &WorkDir, seconds: u64) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    common_conditions(&mut outcome, seconds);
    outcome.condition("transport", "stdout pipe");
    let mut setups = Vec::new();
    for k in 0..SETUPS {
        setups.push(proc::export_store(cli, &work.join(&format!("store-{k}")))?);
    }
    let store = work.join("store-0");
    let (from, to) = proc::paper_window();
    let expected = window::batch_oracle(&Stored::open(&store)?, from, to)?;
    let args = batch_args(&store, from, to);
    // One untimed run warms the page cache and checks the set-up.
    let warm = proc::run_to_end(cli, &args)?;
    if !warm.ok || warm.stdout != expected {
        return Err("warm-up batch run failed or differs from the detect oracle".into());
    }
    let (mut walls, mut peak) = (Vec::new(), warm.peak_rss);
    let start = Instant::now();
    while walls.len() < 3 || start.elapsed() < Duration::from_secs(seconds) {
        let run = proc::run_to_end(cli, &args)?;
        outcome.attempted += 1;
        if !run.ok || run.stdout != expected {
            outcome.failed += 1;
            outcome.fail(format!(
                "batch run {} differs from the detect oracle",
                walls.len()
            ));
        }
        peak = peak.max(run.peak_rss);
        walls.push(run.wall.as_secs_f64());
    }
    let busy: f64 = walls.iter().sum();
    let s = sorted(&walls);
    outcome.headline = vec![
        Metric::new("setup_s", "s", median_secs(&setups), setups.len()),
        Metric::new("peak_rss_mb", "MB", mb(peak), walls.len() + 1),
        Metric::new("op_p50_ms", "ms", median(&s) * 1e3, s.len()),
        Metric::new("op_per_s", "1/s", walls.len() as f64 / busy, s.len()),
    ];
    outcome
        .detail
        .push(Metric::new("batch_s", "s", median(&s), s.len()));
    let months = from.range_to(to).len() as f64;
    outcome.detail.push(Metric::new(
        "batch_months_per_s",
        "1/s",
        months * walls.len() as f64 / busy,
        s.len(),
    ));
    Ok(outcome)
}

/// `sibling-cli` arguments of one `batch --store` run over `from..=to`.
pub fn batch_args(store: &Path, from: MonthDate, to: MonthDate) -> Vec<String> {
    [
        "batch",
        "--store",
        &store.display().to_string(),
        "--from",
        &from.to_string(),
        "--to",
        &to.to_string(),
        "--preset",
        proc::WORLD_PRESET,
        "--seed",
        &proc::WORLD_SEED.to_string(),
    ]
    .map(String::from)
    .to_vec()
}

/// Busy-waits the last stretch before `due`, sleeping the rest, so the
/// send happens on time without the timer's slack.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Per-connection tallies of a serve-read phase.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    latencies_us: Vec<f64>,
    lateness_us: Vec<f64>,
    /// Completions per [`SLICE_S`] slice of the phase.
    per_slice: Vec<u64>,
}

/// `serve-read`: a static daemon over TCP loopback, a closed-loop phase
/// for capacity and a paced phase for latency, every answer compared
/// with an in-process planner's.
pub fn serve_read(cli: &Path, work: &WorkDir, seconds: u64, seed: u64) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    common_conditions(&mut outcome, seconds);
    outcome.condition("transport", "tcp loopback");
    outcome.condition("connections", READ_CONNS);
    outcome.condition("paced_rate_per_s", PACED_PER_CONN_PER_S * READ_CONNS as u64);
    let store = work.join("store");
    proc::export_store(cli, &store)?;
    let (from, to) = (month(SERVE_FROM), proc::paper_window().1);
    let stored = Stored::open(&store)?;
    let index =
        WindowQueryIndex::publish(&stored.run_window(from, to)?).map_err(|e| e.to_string())?;
    let pool = Arc::new(window::read_pool(&index, seed, POOL_SIZE)?);
    drop((stored, index));
    let args: Vec<String> = [
        "--listen",
        "127.0.0.1:0",
        "--readers",
        "2",
        "--store",
        &store.display().to_string(),
        "--from",
        &from.to_string(),
        "--to",
        &to.to_string(),
        "--preset",
        proc::WORLD_PRESET,
        "--seed",
        &proc::WORLD_SEED.to_string(),
    ]
    .map(String::from)
    .to_vec();
    // Each set-up daemon serves an equal share of the run, half closed
    // loop and half paced, and the figures pool them, so that a run
    // depends less on any one daemon process.
    let half = Duration::from_secs(seconds.max(SETUPS as u64)) / (2 * SETUPS as u32);
    let interval = Duration::from_nanos(1_000_000_000 / PACED_PER_CONN_PER_S);
    let (mut setups, mut peak, mut rates) = (Vec::new(), 0u64, Vec::new());
    let (mut closed, mut paced) = (Vec::new(), Vec::new());
    let counters = ["served", "shed-requests", "timeouts"];
    let mut counted = [0u64; 3];
    for k in 0..SETUPS {
        let start = Instant::now();
        let mut daemon = Daemon::start(cli, &args, &work.join(&format!("serve-{k}.log")))?;
        daemon.wait_listening()?;
        setups.push(start.elapsed());
        let mut pipes = (0..READ_CONNS)
            .map(|_| Pipe::connect(&daemon.endpoint))
            .collect::<Result<Vec<_>, _>>()?;
        let health_before = health(pipes[0].roundtrip("health"))?;
        for (c, pipe) in pipes.iter_mut().enumerate() {
            for i in 0..500 {
                let j = (i * 7 + c * 13) % pool.lines.len();
                outcome.attempted += 1;
                if !matches!(pipe.roundtrip(&pool.lines[j]), Ok(ref got) if *got == pool.expected[j])
                {
                    outcome.failed += 1;
                }
            }
        }
        let seed = seed ^ ((k as u64) << 48);
        // Closed loop: each connection sends its next PIPELINE requests
        // when the previous ones are answered. One request at a time,
        // the round trip is mostly the two threads' wake-ups, which on a
        // shared 2-core host varied by a quarter between runs of the
        // same code.
        let tallies = phase(&mut pipes, &pool, seed, half, None);
        let slices = tallies.iter().map(|t| t.per_slice.len()).max().unwrap_or(0);
        let per_slice: Vec<u64> = (0..slices)
            .map(|i| {
                tallies
                    .iter()
                    .map(|t| t.per_slice.get(i).copied().unwrap_or(0))
                    .sum()
            })
            .collect();
        rates.extend(slice_rates(&per_slice));
        closed.extend(tallies);
        // Paced: the same connections send on a fixed schedule; latency
        // is timed from each request's due time.
        paced.extend(phase(
            &mut pipes,
            &pool,
            seed ^ 0x5eed,
            half,
            Some(interval),
        ));
        let health_after = health(pipes[0].roundtrip("health"))?;
        drop(pipes);
        peak = peak.max(daemon.stop()?);
        for (n, key) in counted.iter_mut().zip(counters) {
            *n += counter(&health_after, key).saturating_sub(counter(&health_before, key));
        }
    }
    let closed_ops: u64 = closed.iter().map(|t| t.ops).sum();
    for t in closed.iter().chain(&paced) {
        outcome.attempted += t.ops;
        outcome.failed += t.failed;
    }
    if outcome.failed > 0 {
        outcome.fail(format!(
            "{} answers differ from the in-process planner",
            outcome.failed
        ));
    }
    let closed_latencies: Vec<f64> = closed
        .iter()
        .flat_map(|t| t.latencies_us.iter().copied())
        .collect();
    let latencies: Vec<f64> = paced
        .iter()
        .flat_map(|t| t.latencies_us.iter().copied())
        .collect();
    let lateness: Vec<f64> = paced
        .iter()
        .flat_map(|t| t.lateness_us.iter().copied())
        .collect();
    let lat = sorted(&closed_latencies);
    let qps = median(&sorted(&rates));
    outcome.headline = vec![
        Metric::new("setup_s", "s", median_secs(&setups), setups.len()),
        Metric::new("peak_rss_mb", "MB", mb(peak), SETUPS),
        Metric::new("op_p50_ms", "ms", median(&lat) / 1e3, lat.len()),
        Metric::new("op_per_s", "1/s", qps, closed_ops as usize),
    ];
    outcome
        .detail
        .push(Metric::new("read_qps", "qps", qps, closed_ops as usize));
    outcome.latency("read", "us", &latencies);
    outcome.latency("read_closed", "us", &closed_latencies);
    outcome.latency("generator_lateness", "us", &lateness);
    for (name, n) in [
        "service.server.served",
        "service.server.shed_requests",
        "service.server.timeouts",
    ]
    .into_iter()
    .zip(counted)
    {
        outcome.detail.push(Metric::new(name, "count", n as f64, 1));
    }
    Ok(outcome)
}

/// A TCP protocol connection that can send several requests before
/// reading their answers: the daemon answers one connection's requests
/// in order, one line at a time.
struct Pipe {
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl Pipe {
    fn connect(endpoint: &str) -> Result<Pipe, String> {
        let addr = endpoint.strip_prefix("tcp://").unwrap_or(endpoint);
        let stream = TcpStream::connect(addr).map_err(|e| format!("dialing {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("dialing {addr}: {e}"))?;
        Ok(Pipe {
            reader: BufReader::new(stream),
            out: Vec::new(),
        })
    }

    /// Sends `lines` in one write, then reads their answers in order,
    /// handing each to `each` with its index as it arrives.
    fn batch(
        &mut self,
        lines: &[&str],
        mut each: impl FnMut(usize, Response),
    ) -> std::io::Result<()> {
        self.out.clear();
        for line in lines {
            self.out.extend_from_slice(line.as_bytes());
            self.out.push(b'\n');
        }
        self.reader.get_mut().write_all(&self.out)?;
        for i in 0..lines.len() {
            let response = self.read_response()?;
            each(i, response);
        }
        Ok(())
    }

    fn roundtrip(&mut self, line: &str) -> std::io::Result<Response> {
        let mut answer = None;
        self.batch(&[line], |_, response| answer = Some(response))?;
        Ok(answer.expect("one answer per request"))
    }

    fn read_line(&mut self, line: &mut String) -> std::io::Result<()> {
        line.clear();
        if self.reader.read_line(line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let mut line = String::new();
        self.read_line(&mut line)?;
        let count = match Response::decode_header(&line)? {
            Ok(count) => count,
            Err(error) => return Ok(error),
        };
        let mut data = Vec::with_capacity(count);
        for _ in 0..count {
            self.read_line(&mut line)?;
            data.push(line.trim_end_matches('\n').to_string());
        }
        Ok(Response::Ok(data))
    }
}

/// Runs one phase on every connection in parallel for `length`: closed
/// loop when `interval` is `None`, each connection sending its next
/// [`PIPELINE`] requests when the previous ones are answered; else one
/// request per `interval` per connection.
fn phase(
    pipes: &mut [Pipe],
    pool: &Arc<ReadPool>,
    seed: u64,
    length: Duration,
    interval: Option<Duration>,
) -> Vec<Tally> {
    let depth = if interval.is_some() { 1 } else { PIPELINE };
    std::thread::scope(|scope| {
        let handles: Vec<_> = pipes
            .iter_mut()
            .enumerate()
            .map(|(c, pipe)| {
                let pool = Arc::clone(pool);
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, 100 + c as u64);
                    let mut tally = Tally::default();
                    // Connections' schedules are offset by an equal share
                    // of the interval, so sends are evenly spaced.
                    let start = Instant::now()
                        + interval
                            .map_or(Duration::ZERO, |step| step * c as u32 / READ_CONNS as u32);
                    let end = start + length;
                    let mut i = 0u32;
                    let mut ks = Vec::with_capacity(depth);
                    loop {
                        let due = match interval {
                            Some(step) => {
                                let due = start + step * i;
                                if due >= end {
                                    break;
                                }
                                wait_until(due);
                                due
                            }
                            None => {
                                if Instant::now() >= end {
                                    break;
                                }
                                Instant::now()
                            }
                        };
                        i += 1;
                        ks.clear();
                        ks.extend((0..depth).map(|_| rng.below(pool.lines.len())));
                        let lines: Vec<&str> = ks.iter().map(|&k| pool.lines[k].as_str()).collect();
                        let sent = Instant::now();
                        let sent_ops = tally.ops;
                        let result = pipe.batch(&lines, |j, response| {
                            let done = Instant::now();
                            let k = ks[j];
                            tally.ops += 1;
                            tally.failed += u64::from(response != pool.expected[k]);
                            let slice = ((done - start).as_secs_f64() / SLICE_S) as usize;
                            if tally.per_slice.len() <= slice {
                                tally.per_slice.resize(slice + 1, 0);
                            }
                            tally.per_slice[slice] += 1;
                            tally.latencies_us.push((done - due).as_secs_f64() * 1e6);
                            if interval.is_some() {
                                tally.lateness_us.push((sent - due).as_secs_f64() * 1e6);
                            }
                        });
                        if result.is_err() {
                            // Unanswered requests of the batch count as
                            // failed, and the connection is gone.
                            let answered = tally.ops - sent_ops;
                            tally.ops += depth as u64 - answered;
                            tally.failed += depth as u64 - answered;
                            break;
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// The `key value` lines of a `health` answer.
fn health(answer: std::io::Result<Response>) -> Result<Vec<String>, String> {
    match answer {
        Ok(Response::Ok(lines)) => Ok(lines),
        other => Err(format!("health: {other:?}")),
    }
}

/// The value of `key` in `health` lines (0 when absent).
fn counter(lines: &[String], key: &str) -> u64 {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(key)?.trim().parse().ok())
        .unwrap_or(0)
}

/// The single `ok` data line of an answer, parsed.
fn single<T: std::str::FromStr>(response: std::io::Result<Response>) -> Result<T, String> {
    match response {
        Ok(Response::Ok(lines)) if lines.len() == 1 => lines[0]
            .parse()
            .map_err(|_| format!("unparsable answer {lines:?}")),
        other => Err(format!("unexpected answer {other:?}")),
    }
}

/// One acknowledged delta.
pub struct Ack {
    /// The epoch the primary acknowledged.
    pub epoch: u64,
    /// When the `ingest` line was sent.
    pub sent: Instant,
    /// When the acknowledgement arrived.
    pub acked: Instant,
}

impl Ack {
    /// Send-to-acknowledgement latency in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.acked - self.sent).as_secs_f64() * 1e3
    }
}

/// Sends `delta` on `writer` and checks that the acknowledged epoch is
/// the one after `epoch`, which it then becomes.
pub fn ingest(
    writer: &mut Client,
    delta: &sibling_dns::SnapshotDelta,
    epoch: &mut u64,
) -> Result<Ack, String> {
    let line = window::ingest_line(delta);
    let sent = Instant::now();
    let got: u64 = single(writer.roundtrip(&line))?;
    let acked = Instant::now();
    if got != *epoch + 1 {
        return Err(format!(
            "acked epoch {got} after {epoch}; epochs must rise by one"
        ));
    }
    *epoch = got;
    Ok(Ack {
        epoch: got,
        sent,
        acked,
    })
}

/// `live-replicated`: a primary and a follower on unix sockets; a writer
/// appends the stored months after the window, then streams seeded
/// retargets into the primary while a probe reads from the follower and
/// polls its epoch. Only the retargets are timed, so every timed delta
/// runs on the same 48-month window. Each of the [`LIVE_PAIRS`] daemon
/// pairs runs this for an equal share of the run and the figures pool
/// them, so that a run depends less on any one pair of processes. After
/// each share, the primary's and the follower's `stats` must equal an
/// in-process `EpochState` fed the same deltas.
pub fn live_replicated(
    cli: &Path,
    work: &WorkDir,
    seconds: u64,
    seed: u64,
) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    common_conditions(&mut outcome, seconds);
    outcome.condition("transport", "unix socket");
    outcome.condition("flush_policy", "fsync per ingest");
    outcome.condition("timed_pairs", LIVE_PAIRS);
    let master = work.join("store");
    proc::export_store(cli, &master)?;
    let (from, to, last) = (month(LIVE_FROM), month(LIVE_TO), proc::paper_window().1);
    let stored = Stored::open(&master)?;
    let run = stored.run_window(from, to)?;
    let index = WindowQueryIndex::publish(&run).map_err(|e| e.to_string())?;
    let pool = window::read_pool(&index, seed, POOL_SIZE)?;
    drop(index);

    let share = Duration::from_secs(seconds.max(LIVE_PAIRS as u64)) / LIVE_PAIRS as u32;
    let (mut setups, mut peak, mut segments) = (Vec::new(), 0u64, Vec::new());
    for k in 0..LIVE_PAIRS {
        let (p_store, f_store) = (work.join(&format!("p{k}")), work.join(&format!("f{k}")));
        proc::copy_store(&master, &p_store, from, to)?;
        proc::copy_store(&master, &f_store, from, to)?;
        let p_sock = work.join(&format!("p{k}.sock"));
        let window = |store: &Path, journal: String| -> Vec<String> {
            [
                "--ingest",
                &journal,
                "--store",
                &store.display().to_string(),
                "--readers",
                "2",
                "--from",
                &from.to_string(),
                "--to",
                &to.to_string(),
                "--preset",
                proc::WORLD_PRESET,
                "--seed",
                &proc::WORLD_SEED.to_string(),
            ]
            .map(String::from)
            .to_vec()
        };
        let mut p_args = window(
            &p_store,
            work.join(&format!("p{k}.jrnl")).display().to_string(),
        );
        p_args.extend(["--socket".into(), p_sock.display().to_string()]);
        let mut f_args = window(
            &f_store,
            work.join(&format!("f{k}.jrnl")).display().to_string(),
        );
        f_args.extend([
            "--socket".into(),
            work.join(&format!("f{k}.sock")).display().to_string(),
            "--follow".into(),
            format!("unix://{}", p_sock.display()),
        ]);
        let start = Instant::now();
        let mut primary = Daemon::start(cli, &p_args, &work.join(&format!("p{k}.log")))?;
        let mut follower = Daemon::start(cli, &f_args, &work.join(&format!("f{k}.log")))?;
        primary.wait_listening()?;
        follower.wait_listening()?;
        let mut probe =
            Client::connect(&follower.endpoint).map_err(|e| format!("dialing follower: {e}"))?;
        while counter(&health(probe.roundtrip("health"))?, "epoch-lag") != 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        setups.push(start.elapsed());
        let stream = DeltaStream::new(&stored, to, last, seed)?;
        let probe_seed = seed.wrapping_add(k as u64);
        let segment = live_segment(&primary, &mut probe, stream, &pool, probe_seed, share)?;
        drop(probe);
        peak = peak.max(primary.stop()?).max(follower.stop()?);
        segments.push(segment);
    }

    // The oracle: one in-process replay of the stream every pair was
    // sent a prefix of, its `stats` taken at each pair's length.
    let (mut state, _) = EpochState::seed(
        EngineConfig::default(),
        stored.archive(),
        run.results,
        Arc::new(stored.snapshot(to)?),
    )
    .map_err(|e| e.to_string())?;
    let mut stream = DeltaStream::new(&stored, to, last, seed)?;
    let longest = segments.iter().map(|g| g.sent).max().unwrap_or(0);
    let mut oracle = BTreeMap::new();
    for n in 1..=longest {
        let delta = match stream.next_append()? {
            Some(delta) => delta,
            None => stream.next_retarget(),
        };
        let index = state.ingest(&delta, || Ok(())).map_err(|e| e.to_string())?;
        if segments.iter().any(|g| g.sent == n) {
            let mut wire = String::new();
            QueryPlanner::new(index).answer_line("stats", &mut wire);
            oracle.insert(n, window::wire_to_response(&wire)?);
        }
    }

    let (mut ack_ms, mut append_ms, mut rates, mut visible_ms, mut read_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut served, mut writer_requests, mut write_secs) = (0u64, 0u64, 0f64);
    for (k, g) in segments.iter().enumerate() {
        outcome.attempted += g.sent as u64 + g.probed.reads as u64 + 2;
        outcome.failed += g.probed.failed_reads as u64;
        if let Some(e) = &g.write_error {
            outcome.failed += 1;
            outcome.fail(format!("pair {k} writer: {e}"));
        }
        if g.probed.failed_reads > 0 {
            outcome.fail(format!(
                "pair {k}: {} follower reads failed",
                g.probed.failed_reads
            ));
        }
        let want = oracle.get(&g.sent);
        for (who, got) in [
            ("primary", &g.primary_stats),
            ("follower", &g.follower_stats),
        ] {
            if want != Some(got) {
                outcome.failed += 1;
                outcome.fail(format!(
                    "pair {k}: {who} stats differ from the in-process EpochState"
                ));
            }
        }
        ack_ms.extend(g.acks.iter().map(Ack::ms));
        append_ms.extend(&g.append_ms);
        let done: Vec<f64> = g
            .acks
            .iter()
            .map(|a| (a.acked - g.start).as_secs_f64())
            .collect();
        rates.extend(group_rates(&done, ACK_GROUP));
        visible_ms.extend(visibility_ms(&g.acks, &g.probed.epochs));
        read_us.extend(&g.probed.read_us);
        served += g.served;
        // Every timed delta, and `health_before` itself, which is
        // counted once its answer is written.
        writer_requests += g.acks.len() as u64 + 1;
        write_secs += done.last().copied().unwrap_or(0.0);
    }
    let acked = ack_ms.len();
    let dps = acked as f64 / write_secs.max(1e-9);
    outcome.headline = vec![
        Metric::new("setup_s", "s", median_secs(&setups), setups.len()),
        Metric::new("peak_rss_mb", "MB", mb(peak), LIVE_PAIRS * 2),
        Metric::new("op_p50_ms", "ms", median(&sorted(&ack_ms)), acked),
        Metric::new("op_per_s", "1/s", median(&sorted(&rates)), acked),
    ];
    outcome
        .detail
        .push(Metric::new("ingest_dps", "deltas/s", dps, acked));
    outcome.latency("ingest_ack", "ms", &ack_ms);
    outcome.latency("ingest_append_ack", "ms", &append_ms);
    outcome.latency("visible", "ms", &visible_ms);
    outcome.latency("live_read", "us", &read_us);
    // Requests the primaries served during the timed phases, less the
    // writer's: the rest were feed polls.
    outcome.detail.push(Metric::new(
        "service.replicate.polls_per_delta",
        "ratio",
        crate::traced::polls_per_delta(served, writer_requests, acked),
        acked,
    ));
    outcome.condition("appends_before_timing", append_ms.len() / LIVE_PAIRS);
    outcome.condition(
        "timed_window_months",
        from.range_to(state.tail_date()).len(),
    );
    Ok(outcome)
}

/// One daemon pair's share of the live workload.
struct Segment {
    /// Deltas acknowledged, the untimed prelude's included.
    sent: usize,
    append_ms: Vec<f64>,
    /// The timed retargets.
    acks: Vec<Ack>,
    /// When the timed phase began.
    start: Instant,
    probed: Probed,
    write_error: Option<String>,
    /// Requests the primary served in the timed phase.
    served: u64,
    primary_stats: Response,
    follower_stats: Response,
}

/// Runs the live workload on one pair for `length`: the untimed prelude
/// of appends and warm-up retargets, then the timed retargets with the
/// probe on the follower, then both daemons' `stats`.
fn live_segment(
    primary: &Daemon,
    probe: &mut Client,
    mut stream: DeltaStream,
    pool: &ReadPool,
    seed: u64,
    length: Duration,
) -> Result<Segment, String> {
    let mut writer =
        Client::connect(&primary.endpoint).map_err(|e| format!("dialing primary: {e}"))?;
    let mut sent = 0;
    let mut epoch: u64 = single(writer.roundtrip("epoch"))?;
    // Untimed prelude: every stored month after the window, then a few
    // retargets to warm the writer path; the follower catches up.
    let mut append_ms = Vec::new();
    while let Some(delta) = stream.next_append()? {
        append_ms.push(ingest(&mut writer, &delta, &mut epoch)?.ms());
        sent += 1;
    }
    for _ in 0..WARMUP_DELTAS {
        ingest(&mut writer, &stream.next_retarget(), &mut epoch)?;
        sent += 1;
    }
    wait_for_epoch(probe, epoch, Duration::from_secs(60))?;
    let health_before = health(writer.roundtrip("health"))?;

    let stop = AtomicBool::new(false);
    let seen = AtomicU64::new(epoch);
    let start = Instant::now();
    let (acks, write_error, probed) = std::thread::scope(|scope| {
        let prober = scope.spawn(|| probe_loop(probe, pool, seed, &stop, &seen));
        let mut acks = Vec::new();
        let mut error = None;
        while start.elapsed() < length {
            match ingest(&mut writer, &stream.next_retarget(), &mut epoch) {
                Ok(ack) => acks.push(ack),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
            sent += 1;
        }
        // Let the follower catch up to the last acked epoch while the
        // probe keeps recording, then stop it.
        let catch_up = Instant::now();
        while seen.load(Ordering::SeqCst) < epoch && catch_up.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
        let probed = prober.join().expect("probe thread panicked");
        (acks, error, probed)
    });
    let probed = probed?;

    // End-of-share checks reuse the open connections: the primary's
    // readers are held by the writer and the follower's feed.
    let primary_health = health(writer.roundtrip("health"))?;
    let primary_stats = writer.roundtrip("stats").map_err(|e| e.to_string())?;
    wait_for_epoch(probe, epoch, Duration::from_secs(30))?;
    let follower_stats = probe.roundtrip("stats").map_err(|e| e.to_string())?;
    Ok(Segment {
        sent,
        append_ms,
        acks,
        start,
        probed,
        write_error,
        served: counter(&primary_health, "served")
            .saturating_sub(counter(&health_before, "served")),
        primary_stats,
        follower_stats,
    })
}

/// What the follower probe observed.
struct Probed {
    reads: usize,
    failed_reads: usize,
    read_us: Vec<f64>,
    /// `(answer time, epoch read)`, ascending.
    epochs: Vec<(Instant, u64)>,
}

/// Alternates a read from the pool with an `epoch` probe on the
/// follower until `stop`, publishing each epoch read in `seen`.
fn probe_loop(
    probe: &mut Client,
    pool: &ReadPool,
    seed: u64,
    stop: &AtomicBool,
    seen: &AtomicU64,
) -> Result<Probed, String> {
    let mut rng = Rng::new(seed, 200);
    let mut out = Probed {
        reads: 0,
        failed_reads: 0,
        read_us: Vec::new(),
        epochs: Vec::new(),
    };
    while !stop.load(Ordering::SeqCst) {
        let line = &pool.lines[rng.below(pool.lines.len())];
        let t0 = Instant::now();
        let answer = probe.roundtrip(line);
        out.read_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.reads += 1;
        if !matches!(answer, Ok(Response::Ok(_))) {
            out.failed_reads += 1;
        }
        let epoch: u64 = single(probe.roundtrip("epoch"))?;
        out.epochs.push((Instant::now(), epoch));
        seen.store(epoch, Ordering::SeqCst);
        std::thread::sleep(PROBE_GAP);
    }
    Ok(out)
}

/// Blocks until the follower behind `probe` serves `epoch`.
fn wait_for_epoch(probe: &mut Client, epoch: u64, limit: Duration) -> Result<(), String> {
    let start = Instant::now();
    while single::<u64>(probe.roundtrip("epoch"))? < epoch {
        if start.elapsed() > limit {
            return Err(format!(
                "follower did not reach epoch {epoch} within {limit:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// For each acked epoch, the time from its ack until the first probe
/// answer reading it (or later); zero when the probe saw it first.
pub fn visibility_ms(acks: &[Ack], probes: &[(Instant, u64)]) -> Vec<f64> {
    let mut out = Vec::with_capacity(acks.len());
    let mut j = 0;
    for ack in acks {
        while j < probes.len() && probes[j].1 < ack.epoch {
            j += 1;
        }
        if let Some(&(seen, _)) = probes.get(j) {
            out.push(seen.saturating_duration_since(ack.acked).as_secs_f64() * 1e3);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_rates_drop_the_partial_slice() {
        // Slices of 0.5 s: 100, 110, 5000 (a burst), 90 (partial, dropped).
        assert_eq!(slice_rates(&[100, 110, 5000, 90]), [200.0, 220.0, 10000.0]);
        assert_eq!(slice_rates(&[40]), [80.0]);
        assert!(slice_rates(&[]).is_empty());
    }

    #[test]
    fn group_rates_drop_the_partial_group() {
        // Groups of 2: [0, 1] in 1 s, [1, 3] in 2 s, [3, 3.5] in 0.5 s;
        // the lone 10.0 is a partial group.
        let done = [0.5, 1.0, 2.0, 3.0, 3.25, 3.5, 10.0];
        assert_eq!(group_rates(&done, 2), [2.0, 1.0, 4.0]);
        assert!(group_rates(&[1.0, 2.0], 4).is_empty());
    }

    #[test]
    fn visibility_is_the_first_probe_at_or_past_each_epoch() {
        let t = Instant::now();
        let ms = |n: u64| t + Duration::from_millis(n);
        let acks = [
            Ack {
                epoch: 2,
                sent: ms(0),
                acked: ms(10),
            },
            Ack {
                epoch: 3,
                sent: ms(10),
                acked: ms(20),
            },
            Ack {
                epoch: 4,
                sent: ms(20),
                acked: ms(30),
            },
        ];
        // The probe reads 1, then 3 (skipping 2), then 4.
        let probes = [(ms(5), 1), (ms(70), 3), (ms(90), 4)];
        assert_eq!(visibility_ms(&acks, &probes), vec![60.0, 50.0, 60.0]);
        // A probe answer can beat the writer's ack: that counts as zero.
        let early = [(ms(15), 2), (ms(16), 4)];
        assert_eq!(visibility_ms(&acks, &early), vec![5.0, 0.0, 0.0]);
    }
}
