//! The traced run: each workload's seeded inputs replayed in process
//! through the layers' public functions, with a span around every call.
//! Every replay also runs untraced, through the same code with a
//! disabled recorder, so the tracing overhead is stated. Spans are kept
//! in memory and written to `.sibbench/spans.tsv` at the end.
//!
//! What the benchmark cannot see from outside the program is derived
//! and labelled as such:
//! * `service.server.transport_us` is a round trip minus the parse and
//!   answer of the same line, replayed on the benchmark's own planner;
//! * `service.ingest.queue_ms` is the ack latency minus the sink span;
//! * `service.replicate.poll_wait_ms` is the visible lag minus the
//!   collect and apply times of the stage replay.
//!
//! The `trace.*_coverage` ratios check the blocking path of each
//! workload against a time measured on its own: the batch stages
//! against real `sibling-cli batch` runs, a one-line read's answer plus
//! a `ping` round trip against its round trip, and an ingest's sink,
//! parse and `ping` round trip against its ack.
//!
//! A traced run replays all three workloads, whichever `--workload`
//! names, so every per-layer metric is measured on every trace run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sibling_core::query::WindowQueryIndex;
use sibling_core::{DetectEngine, EngineConfig, EpochState};
use sibling_dns::{decode_delta, IngestJournal, SnapshotDelta, SnapshotStore};
use sibling_executor::ThreadPool;
use sibling_service::protocol::from_hex;
use sibling_service::{
    parse_request, Client, DeltaFeed, Endpoint, FollowerOptions, HealthGauges, IngestSink,
    LiveWindow, QueryPlanner, ServeOptions, Server,
};
use sibling_store::{StoredRib, WorldStore};

use crate::e2e::{self, LIVE_FROM, LIVE_TO, POOL_SIZE, SERVE_FROM, WARMUP_DELTAS};
use crate::proc::{self, WorkDir};
use crate::report::{Metric, Outcome};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::window::{self, DeltaStream, Stored};

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const LAYER_METRICS: [(&str, &str); 48] = [
    ("store.world_open_us", "us"),
    ("dns.store.snapshot_load_us", "us"),
    ("dns.store.write_ms", "ms"),
    ("core.engine.run_window_ms", "ms"),
    ("core.engine.patch_chain_ms", "ms"),
    ("core.engine.settle_ms", "ms"),
    ("core.engine.rescored_share", "ratio"),
    ("core.engine.dedup_hits", "count"),
    ("core.longitudinal.render_ms", "ms"),
    ("core.query.index_build_ms", "ms"),
    ("core.query.total_pairs", "count"),
    ("core.epoch.ingest_retarget_ms", "ms"),
    ("core.epoch.ingest_append_ms", "ms"),
    ("dns.delta.apply_ms", "ms"),
    ("dns.delta.changes", "count"),
    ("dns.journal.append_us", "us"),
    ("dns.journal.bytes_per_delta", "bytes"),
    ("service.protocol.parse_read_ns", "ns"),
    ("service.protocol.parse_ingest_us", "us"),
    ("service.protocol.ingest_line_bytes", "bytes"),
    ("service.planner.answer_ns.point.p50", "ns"),
    ("service.planner.answer_ns.point.p99", "ns"),
    ("service.planner.answer_ns.partners.p50", "ns"),
    ("service.planner.answer_ns.partners.p99", "ns"),
    ("service.planner.answer_ns.history.p50", "ns"),
    ("service.planner.answer_ns.history.p99", "ns"),
    ("service.planner.answer_ns.stats.p50", "ns"),
    ("service.planner.answer_ns.stats.p99", "ns"),
    ("service.server.transport_us", "us"),
    ("service.server.served", "count"),
    ("service.server.shed_requests", "count"),
    ("service.server.timeouts", "count"),
    ("service.ingest.sink_ms", "ms"),
    ("service.ingest.queue_ms", "ms"),
    ("service.replicate.publish_us", "us"),
    ("service.replicate.collect_us", "us"),
    ("service.replicate.apply_ms", "ms"),
    ("service.replicate.poll_wait_ms", "ms"),
    ("service.replicate.polls_per_delta", "ratio"),
    ("trace.batch_s", "s"),
    ("trace.batch_coverage", "ratio"),
    ("trace.read_rt_us", "us"),
    ("trace.read_coverage", "ratio"),
    ("trace.ingest_ack_ms", "ms"),
    ("trace.ingest_coverage", "ratio"),
    ("trace.ingest_stage_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.follower_visible_ms", "ms"),
];

/// What every replay shares: where it works, its seed, and how long and
/// against which clock it measures.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    cli: &'a Path,
    work: &'a WorkDir,
    store: &'a Path,
    seed: u64,
    budget: Duration,
    origin: Instant,
}

/// Collected per-layer values, by metric name.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }
}

/// Sorted nanosecond self times of every span named `name`.
fn self_ns(by_name: &BTreeMap<&'static str, Vec<(u64, u64)>>, name: &str) -> Vec<f64> {
    sorted(
        &by_name
            .get(name)
            .map(|v| v.iter().map(|(ns, _)| *ns as f64).collect::<Vec<_>>())
            .unwrap_or_default(),
    )
}

/// Runs the three replays and reports every per-layer metric.
pub fn run(
    cli: &Path,
    work: &WorkDir,
    workload: &str,
    seed: u64,
    seconds: u64,
) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    outcome.condition("available_parallelism", cores);
    outcome.condition(
        "world",
        format!("{} seed {}", proc::WORLD_PRESET, proc::WORLD_SEED),
    );
    outcome.condition(
        "replayed",
        "batch-window, serve-read, live-replicated (in process)",
    );
    outcome.condition("requested_workload", workload);
    let store = work.join("store");
    proc::export_store(cli, &store)?;
    let budget = Duration::from_secs(seconds.max(3)) / 3;
    let origin = Instant::now();
    let mut trace = Tracer::new(origin);
    let mut layers = Layers::default();
    let ctx = Ctx {
        cli,
        work,
        store: &store,
        seed,
        budget,
        origin,
    };
    let overheads = [
        batch(&ctx, &mut trace, &mut layers, &mut outcome)?,
        serve(&ctx, &mut trace, &mut layers, &mut outcome)?,
        live(&ctx, &mut trace, &mut layers, &mut outcome)?,
    ];
    let overhead = median(&sorted(&overheads));
    layers.set("trace.overhead_share", overhead, overheads.len());
    std::fs::write(".sibbench/spans.tsv", trace.to_tsv())
        .map_err(|e| format!("writing .sibbench/spans.tsv: {e}"))?;
    for (name, unit) in LAYER_METRICS {
        let (value, samples) = layers
            .values
            .get(name)
            .copied()
            .ok_or_else(|| format!("the traced run did not measure {name}"))?;
        outcome
            .headline
            .push(Metric::new(name, unit, value, samples));
    }
    Ok(outcome)
}

/// Pause between the live replay's looks at the follower's epoch.
const WATCH_GAP: Duration = Duration::from_micros(250);

/// Relative cost of tracing: traced over untraced, minus one.
fn overhead(traced: f64, untraced: f64) -> f64 {
    traced / untraced - 1.0
}

/// Replays `batch --store` over the paper window: world open, snapshot
/// loads, the engine's window walk and the row rendering, in rotation
/// with real `sibling-cli batch` runs, whose wall time the stages must
/// account for. Returns the tracing overhead share.
fn batch(
    ctx: &Ctx,
    trace: &mut Tracer,
    layers: &mut Layers,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    let Ctx {
        cli,
        store,
        budget,
        origin,
        ..
    } = *ctx;
    let (from, to) = proc::paper_window();
    let expected = window::batch_oracle(&Stored::open(store)?, from, to)?;
    let args = e2e::batch_args(store, from, to);
    let mut last_run = None;
    let mut walls = [Vec::new(), Vec::new()];
    let mut cli_walls = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while i < 9 || start.elapsed() < budget {
        // Rotate untraced, traced and real runs, so all three see the
        // same machine state.
        if i % 3 == 2 {
            let run = proc::run_to_end(cli, &args)?;
            outcome.attempted += 1;
            if !run.ok || run.stdout != expected {
                outcome.failed += 1;
                outcome.fail(format!("batch run {i} differs from the detect oracle"));
            }
            cli_walls.push(run.wall.as_secs_f64());
            i += 1;
            continue;
        }
        let traced = i % 3 == 1;
        let mut local = if traced {
            Tracer::new(origin)
        } else {
            Tracer::disabled(origin)
        };
        let t0 = Instant::now();
        let root = local.open("batch.window", None, i);
        let world = local
            .time("store.world_open", Some(root), i, || {
                WorldStore::open(store, None)
            })
            .map_err(|e| e.to_string())?;
        let files = local.time("dns.store.snapshot_load", Some(root), i, || {
            let snaps = SnapshotStore::open(store).map_err(|e| e.to_string())?;
            from.range_to(to)
                .into_iter()
                .map(|d| Ok((d, snaps.load(d).map_err(|e| e.to_string())?)))
                .collect::<Result<BTreeMap<_, _>, String>>()
        })?;
        let run = local.time("core.engine.run_window", Some(root), i, || {
            DetectEngine::new(EngineConfig::default()).run_window(
                from,
                to,
                &world.rib_archive(),
                |d| Arc::clone(&files[&d]),
            )
        })?;
        let rows = local.time("core.longitudinal.render", Some(root), i, || {
            window::render_batch(&run.results)
        });
        local.close(root);
        walls[usize::from(traced)].push(t0.elapsed().as_secs_f64());
        outcome.attempted += 1;
        if rows != expected {
            outcome.failed += 1;
            outcome.fail(format!("replayed batch {i} differs from the detect oracle"));
        }
        trace.merge(local);
        last_run = Some(run);
        i += 1;
    }
    let run = last_run.expect("ran at least once");
    let by_name = trace.self_times();
    let ms = |name: &str| median(&self_ns(&by_name, name)) / 1e6;
    let world_open = self_ns(&by_name, "store.world_open");
    layers.set(
        "store.world_open_us",
        median(&world_open) / 1e3,
        world_open.len(),
    );
    let loads = self_ns(&by_name, "dns.store.snapshot_load");
    layers.set(
        "dns.store.snapshot_load_us",
        median(&loads) / 1e3,
        loads.len(),
    );
    layers.set(
        "core.engine.run_window_ms",
        ms("core.engine.run_window"),
        loads.len(),
    );
    layers.set(
        "core.longitudinal.render_ms",
        ms("core.longitudinal.render"),
        loads.len(),
    );
    let patch: u64 = run.timings.iter().map(|t| t.patch_ns).sum();
    let settle: u64 = run.timings.iter().map(|t| t.settle_ns).sum();
    layers.set(
        "core.engine.patch_chain_ms",
        patch as f64 / 1e6,
        run.timings.len(),
    );
    layers.set(
        "core.engine.settle_ms",
        settle as f64 / 1e6,
        run.timings.len(),
    );
    let (dirty, total) = run
        .churn
        .iter()
        .filter(|c| !c.full_rebuild)
        .fold((0, 0), |(d, t), c| (d + c.dirty_shards, t + c.total_shards));
    layers.set(
        "core.engine.rescored_share",
        dirty as f64 / total.max(1) as f64,
        run.churn.len(),
    );
    layers.set("core.engine.dedup_hits", run.stats.dedup_hits as f64, 1);
    // Blocking path: the four stages' self times against the wall time
    // of the real `batch` process, which also pays for its start-up and
    // for writing stdout.
    let traced_s = median(&sorted(&walls[1]));
    let cli_s = median(&sorted(&cli_walls));
    let stages = ms("store.world_open")
        + ms("dns.store.snapshot_load")
        + ms("core.engine.run_window")
        + ms("core.longitudinal.render");
    layers.set("trace.batch_s", traced_s, walls[1].len());
    layers.set(
        "trace.batch_coverage",
        stages / 1e3 / cli_s,
        cli_walls.len(),
    );
    eprintln!(
        "  trace batch-window: traced {:.4} s, untraced {:.4} s, sibling-cli batch {cli_s:.4} s; \
         stages {:.4} s",
        traced_s,
        median(&sorted(&walls[0])),
        stages / 1e3
    );
    Ok(overhead(traced_s, median(&sorted(&walls[0]))))
}

/// Replays the serve-read mix against an in-process server: per request
/// the benchmark parses and answers the line on its own planner, then
/// round-trips it through the server. Returns the tracing overhead.
fn serve(
    ctx: &Ctx,
    trace: &mut Tracer,
    layers: &mut Layers,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    let Ctx {
        work,
        store,
        seed,
        budget,
        origin,
        ..
    } = *ctx;
    let (from, to) = (
        sibling_net_types::MonthDate::new(SERVE_FROM.0, SERVE_FROM.1),
        proc::paper_window().1,
    );
    let stored = Stored::open(store)?;
    let index =
        WindowQueryIndex::publish(&stored.run_window(from, to)?).map_err(|e| e.to_string())?;
    let pool = window::read_pool(&index, seed, POOL_SIZE)?;
    let planner = QueryPlanner::new(Arc::clone(&index));
    let server = Server::bind(&Endpoint::Unix(work.join("trace-serve.sock")))
        .map_err(|e| format!("binding the in-process server: {e}"))?;
    let handle = server
        .start_with(
            QueryPlanner::new(Arc::clone(&index)),
            ThreadPool::with_threads(1),
            2,
            ServeOptions::default(),
        )
        .map_err(|e| e.to_string())?;
    let mut client = Client::connect(handle.endpoint()).map_err(|e| e.to_string())?;
    let before = handle.stats();
    let mut rts = [Vec::new(), Vec::new()];
    let mut kinds = BTreeMap::new();
    let mut wire = String::new();
    let mut rng = crate::stats::Rng::new(seed, 300);
    let start = Instant::now();
    let mut id = 0u64;
    let mut local = Tracer::new(origin);
    let mut quiet = Tracer::disabled(origin);
    while start.elapsed() < budget {
        for _ in 0..64 {
            let traced = id % 2 == 1;
            let t = if traced { &mut local } else { &mut quiet };
            let k = rng.below(pool.lines.len());
            let line = &pool.lines[k];
            kinds.insert(id, pool.kinds[k]);
            t.time("service.protocol.parse_request", None, id, || {
                black_box(parse_request(black_box(line)).is_ok())
            });
            t.time("service.planner.answer_line", None, id, || {
                planner.answer_line(black_box(line), &mut wire)
            });
            if id % 16 == 15 {
                // In place of this line's round trip, a `ping` after the
                // same local work: the transport alone, with the same
                // idle time before it as every other round trip.
                t.time("service.server.ping_roundtrip", None, id, || {
                    client.roundtrip("ping")
                })
                .map_err(|e| e.to_string())?;
                id += 1;
                continue;
            }
            let t0 = Instant::now();
            let got = t.time("service.server.roundtrip", None, id, || {
                client.roundtrip(line)
            });
            rts[usize::from(traced)].push(t0.elapsed().as_secs_f64() * 1e6);
            outcome.attempted += 1;
            if !matches!(got, Ok(ref r) if *r == pool.expected[k]) {
                outcome.failed += 1;
                outcome.fail(format!("in-process server answered {line:?} wrongly"));
            }
            id += 1;
        }
    }
    let after = handle.stats();
    drop(client);
    drop(handle);
    let by_name = local.self_times();
    let parse = self_ns(&by_name, "service.protocol.parse_request");
    layers.set(
        "service.protocol.parse_read_ns",
        median(&parse),
        parse.len(),
    );
    let mut per_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(ns, id) in &by_name["service.planner.answer_line"] {
        per_class
            .entry(kinds[&id].class())
            .or_default()
            .push(ns as f64);
    }
    for (class, p50, p99) in [
        (
            "point",
            "service.planner.answer_ns.point.p50",
            "service.planner.answer_ns.point.p99",
        ),
        (
            "partners",
            "service.planner.answer_ns.partners.p50",
            "service.planner.answer_ns.partners.p99",
        ),
        (
            "history",
            "service.planner.answer_ns.history.p50",
            "service.planner.answer_ns.history.p99",
        ),
        (
            "stats",
            "service.planner.answer_ns.stats.p50",
            "service.planner.answer_ns.stats.p99",
        ),
    ] {
        let s = sorted(per_class.get(class).map(Vec::as_slice).unwrap_or(&[]));
        layers.set(p50, median(&s), s.len());
        layers.set(p99, percentile(&s, 99.0), s.len());
    }
    // Transport per request: the round trip minus the parse and answer
    // of the same line.
    let spent: BTreeMap<u64, f64> = [
        "service.protocol.parse_request",
        "service.planner.answer_line",
    ]
    .iter()
    .flat_map(|name| by_name[name].iter())
    .fold(BTreeMap::new(), |mut acc, &(ns, id)| {
        *acc.entry(id).or_insert(0.0) += ns as f64;
        acc
    });
    let transport = sorted(
        &by_name["service.server.roundtrip"]
            .iter()
            .map(|&(ns, id)| (ns as f64 - spent[&id]) / 1e3)
            .collect::<Vec<_>>(),
    );
    layers.set(
        "service.server.transport_us",
        median(&transport),
        transport.len(),
    );
    for (name, value) in [
        ("service.server.served", after.served - before.served),
        (
            "service.server.shed_requests",
            after.shed_requests - before.shed_requests,
        ),
        ("service.server.timeouts", after.timeouts - before.timeouts),
    ] {
        layers.set(name, value as f64, 1);
    }
    // Blocking path of the one-line answers (point lookups and stats):
    // the planner's answer, which parses the line itself, plus the
    // transport, taken independently from the `ping` round trips, whose
    // own answer is negligible; against their median round trip.
    let one_line = |id: &u64| matches!(kinds[id].class(), "point" | "stats");
    let of = |name: &str| -> Vec<f64> {
        sorted(
            &by_name[name]
                .iter()
                .filter(|(_, id)| one_line(id))
                .map(|(ns, _)| *ns as f64)
                .collect::<Vec<_>>(),
        )
    };
    let rt = of("service.server.roundtrip");
    let ping = self_ns(&by_name, "service.server.ping_roundtrip");
    let coverage = (median(&of("service.planner.answer_line")) + median(&ping)) / median(&rt);
    layers.set("trace.read_coverage", coverage, rt.len());
    let (traced, untraced) = (median(&sorted(&rts[1])), median(&sorted(&rts[0])));
    layers.set("trace.read_rt_us", traced, rts[1].len());
    eprintln!("  trace serve-read: round trip traced {traced:.2} us, untraced {untraced:.2} us");
    for class in ["point", "partners", "history", "stats"] {
        let of_class = |name: &str| {
            median(&sorted(
                &by_name[name]
                    .iter()
                    .filter(|(_, id)| kinds[id].class() == class)
                    .map(|(ns, _)| *ns as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ))
        };
        eprintln!(
            "    {class}: round trip {:.2} us = ping {:.2} us + answer {:.2} us + {:.2} us",
            of_class("service.server.roundtrip"),
            median(&ping) / 1e3,
            of_class("service.planner.answer_line"),
            of_class("service.server.roundtrip")
                - median(&ping) / 1e3
                - of_class("service.planner.answer_line")
        );
    }
    trace.merge(local);
    Ok(overhead(traced, untraced))
}

/// Wraps the primary's [`LiveWindow`] so the server's writer thread
/// records a span around each [`IngestSink::ingest`] call.
struct TracedSink<S> {
    inner: S,
    next_id: u64,
    origin: Instant,
    spans: Arc<Mutex<Vec<(u64, u64, u64)>>>,
}

/// Whether the live delta `id` (0-based, appends included) is traced.
/// Deltas go in pairs, traced then untraced: the retargets alternate a
/// move and its undo, so each half holds as many of either.
pub fn traced_delta(id: u64) -> bool {
    (id / 2) % 2 == 1
}

impl<S: IngestSink> IngestSink for TracedSink<S> {
    /// Deltas for which [`traced_delta`] holds are traced; the others
    /// pass straight through and are the untraced baseline.
    fn ingest(&mut self, delta: &SnapshotDelta) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        if !traced_delta(id) {
            return self.inner.ingest(delta);
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = self.inner.ingest(delta);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("sink spans poisoned")
            .push((id, start, end));
        out
    }
}

/// Replays the live workload in process: the seeded delta stream goes
/// over a socket into an in-process primary whose sink is traced, while
/// the program's own replication thread ([`sibling_service::follow`])
/// polls the primary's feed over its socket and a watcher notes when
/// each epoch becomes visible on the follower. As end to end, the month
/// appends go in first and only the retargets after them are timed.
/// Afterwards the same deltas are replayed stage by stage (parse,
/// journal, epoch ingest, compaction, publish, then the follower's
/// collect and apply) on windows of their own, which are also the
/// oracle.
fn live(
    ctx: &Ctx,
    trace: &mut Tracer,
    layers: &mut Layers,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    let Ctx {
        work,
        store,
        seed,
        budget,
        origin,
        ..
    } = *ctx;
    let (from, to) = (
        sibling_net_types::MonthDate::new(LIVE_FROM.0, LIVE_FROM.1),
        sibling_net_types::MonthDate::new(LIVE_TO.0, LIVE_TO.1),
    );
    let last = proc::paper_window().1;
    let stored = Stored::open(store)?;
    let run = stored.run_window(from, to)?;
    let tail = Arc::new(stored.snapshot(to)?);
    let open_window = |name: &str,
                       feed: Option<Arc<DeltaFeed>>|
     -> Result<LiveWindow<StoredRib>, String> {
        let dir = work.join(name);
        proc::copy_store(store, &dir, from, to)?;
        let (epoch, index) = EpochState::seed(
            EngineConfig::default(),
            stored.archive(),
            run.results.clone(),
            Arc::clone(&tail),
        )
        .map_err(|e| e.to_string())?;
        let snaps = SnapshotStore::open(&dir).map_err(|e| e.to_string())?;
        let journal = work.join(&format!("{name}.jrnl"));
        LiveWindow::recover_replicating(epoch, index, &journal, Some(snaps), feed).map(|(w, _)| w)
    };
    let feed = Arc::new(DeltaFeed::new());
    let primary = open_window("trace-primary", Some(Arc::clone(&feed)))?;
    let follower = open_window("trace-follower", None)?;
    let follower_window = follower.published();
    let primary_window = primary.published();
    let sink_spans = Arc::new(Mutex::new(Vec::new()));
    let sink = TracedSink {
        inner: primary,
        next_id: 0,
        origin,
        spans: Arc::clone(&sink_spans),
    };
    let mut planner = QueryPlanner::live(Arc::clone(&primary_window));
    planner.attach_feed(feed);
    let server = Server::bind(&Endpoint::Unix(work.join("trace-live.sock")))
        .map_err(|e| format!("binding the in-process primary: {e}"))?;
    let handle = server
        .start_live(
            planner,
            ThreadPool::with_threads(1),
            2,
            ServeOptions::default(),
            Box::new(sink),
        )
        .map_err(|e| e.to_string())?;
    let mut writer = Client::connect(handle.endpoint()).map_err(|e| e.to_string())?;
    let following = sibling_service::follow(
        follower,
        handle.endpoint(),
        HealthGauges::follower(),
        FollowerOptions::default(),
    )
    .map_err(|e| format!("starting the follower: {e}"))?;

    // Untimed prelude: the appends, then warm-up retargets.
    let mut stream = DeltaStream::new(&stored, to, last, seed)?;
    let mut sent: Vec<SnapshotDelta> = Vec::new();
    let mut epoch = primary_window.epoch();
    while let Some(delta) = stream.next_append()? {
        sent.push(delta);
    }
    for _ in 0..WARMUP_DELTAS {
        sent.push(stream.next_retarget());
    }
    for delta in &sent {
        outcome.attempted += 1;
        e2e::ingest(&mut writer, delta, &mut epoch)?;
    }
    let caught_up = |epoch: u64| {
        let start = Instant::now();
        while follower_window.epoch() < epoch {
            if start.elapsed() > Duration::from_secs(60) {
                return Err(format!("the follower did not reach epoch {epoch}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    };
    caught_up(epoch)?;
    let timed_from = sent.len();
    let served_before = handle.stats().served;
    let stop = AtomicBool::new(false);
    let mut acks = Vec::new();
    let mut ping_ns = Vec::new();
    let seen = std::thread::scope(|scope| -> Result<_, String> {
        let watcher = scope.spawn(|| {
            let mut seen = Vec::new(); // (first seen, epoch)
            let mut last = 0;
            while !stop.load(Ordering::SeqCst) {
                let epoch = follower_window.epoch();
                if epoch > last {
                    seen.push((Instant::now(), epoch));
                    last = epoch;
                }
                std::thread::sleep(WATCH_GAP);
            }
            seen
        });
        let start = Instant::now();
        let written = (|| -> Result<(), String> {
            while start.elapsed() < budget {
                let delta = stream.next_retarget();
                outcome.attempted += 1;
                acks.push(e2e::ingest(&mut writer, &delta, &mut epoch)?);
                sent.push(delta);
                if acks.len() % 8 == 0 {
                    // The socket round trip alone, on the same connection.
                    let t0 = Instant::now();
                    writer.roundtrip("ping").map_err(|e| e.to_string())?;
                    ping_ns.push(t0.elapsed().as_nanos() as f64);
                }
            }
            caught_up(epoch)
        })();
        stop.store(true, Ordering::SeqCst);
        let seen = watcher.join().expect("watcher thread panicked");
        written.map(|()| seen)
    });
    let served = handle.stats().served - served_before;
    following.stop();
    drop(writer);
    drop(handle);
    let seen = seen?;

    // Sink and queue of each traced timed retarget.
    let sinks: BTreeMap<u64, (u64, u64)> = sink_spans
        .lock()
        .expect("sink spans poisoned")
        .iter()
        .map(|&(id, s0, s1)| (id, (s0, s1)))
        .collect();
    let ns = |at: Instant| at.duration_since(origin).as_nanos() as u64;
    let mut traced_ids = Vec::new();
    let (mut sink_ms, mut queue_ms, mut ack_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (k, ack) in acks.iter().enumerate() {
        let id = (timed_from + k) as u64;
        let Some(&(s0, s1)) = sinks.get(&id) else {
            continue;
        };
        let sink = (s1 - s0) as f64 / 1e6;
        trace.record("service.ingest.ack", ns(ack.sent), ns(ack.acked), id);
        trace.record("service.ingest.sink", s0, s1, id);
        traced_ids.push(id);
        sink_ms.push(sink);
        queue_ms.push(ack.ms() - sink);
        ack_ms.push(ack.ms());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (sink_mean, ack_mean) = (mean(&sink_ms), mean(&ack_ms));
    let (sink_ms, queue_ms, ack_ms) = (sorted(&sink_ms), sorted(&queue_ms), sorted(&ack_ms));
    layers.set("service.ingest.sink_ms", median(&sink_ms), sink_ms.len());
    layers.set("service.ingest.queue_ms", median(&queue_ms), queue_ms.len());
    layers.set("trace.ingest_ack_ms", median(&ack_ms), ack_ms.len());
    let visible = sorted(&e2e::visibility_ms(&acks, &seen));
    layers.set("trace.follower_visible_ms", median(&visible), visible.len());
    layers.set(
        "service.replicate.polls_per_delta",
        polls_per_delta(served, (acks.len() + ping_ns.len()) as u64, acks.len()),
        acks.len(),
    );

    // Stage-by-stage replay of the same deltas: the primary's stages on
    // an `EpochState`, its store copy and journal; the follower's
    // collect and apply on a window of its own.
    let mut state = EpochState::seed(
        EngineConfig::default(),
        stored.archive(),
        run.results.clone(),
        Arc::clone(&tail),
    )
    .map_err(|e| e.to_string())?
    .0;
    let dir = work.join("trace-stages");
    proc::copy_store(store, &dir, from, to)?;
    let snaps = SnapshotStore::open(&dir).map_err(|e| e.to_string())?;
    let (mut journal, _) =
        IngestJournal::open(&work.join("trace-stages.jrnl")).map_err(|e| e.to_string())?;
    let stage_feed = DeltaFeed::new();
    let mut stage_follower = open_window("trace-stage-follower", None)?;
    let mut t = Tracer::new(origin);
    let mut index = None;
    let (mut line_bytes, mut journal_bytes, mut changes) = (0usize, 0u64, 0usize);
    let mut stage_roots = Vec::new();
    for (k, delta) in sent.iter().enumerate() {
        let id = k as u64;
        let line = window::ingest_line(delta);
        line_bytes += line.len();
        changes += delta.changes().len();
        let old_tail = Arc::clone(state.tail_snapshot());
        let append = delta.to_date() > delta.from_date();
        t.time("service.protocol.parse_ingest", None, id, || {
            black_box(parse_request(&line))
        })
        .map_err(|e| e.to_string())?;
        // What the primary's sink does, in its order.
        let root = t.open("stages.ingest", None, id);
        let before = journal.record_bytes();
        t.time("dns.journal.append", Some(root), id, || {
            journal.append(delta)
        })
        .map_err(|e| e.to_string())?;
        journal_bytes += journal.record_bytes() - before;
        let name = if append {
            "core.epoch.ingest_append"
        } else {
            "core.epoch.ingest_retarget"
        };
        let built = t
            .time(name, Some(root), id, || state.ingest(delta, || Ok(())))
            .map_err(|e| e.to_string())?;
        if append {
            t.time("dns.store.write", Some(root), id, || {
                snaps
                    .write(&*old_tail)
                    .and_then(|_| snaps.write(&**state.tail_snapshot()))
            })
            .map_err(|e| e.to_string())?;
            t.time("dns.journal.reset", Some(root), id, || journal.reset())
                .map_err(|e| e.to_string())?;
        }
        t.time("service.replicate.publish", Some(root), id, || {
            stage_feed.publish(id + 2, delta)
        });
        t.close(root);
        stage_roots.push(root);
        // The follower's side, as its replication thread handles each
        // delta of a `sub` answer: collect, decode, apply.
        let batch = t.time("service.replicate.collect", None, id, || {
            stage_feed.collect_since(id + 1)
        });
        t.time("service.replicate.apply", None, id, || {
            batch.deltas.iter().try_for_each(|(epoch, hex)| {
                let delta = from_hex(hex)
                    .and_then(|bytes| decode_delta(&bytes).ok())
                    .ok_or_else(|| format!("undecodable feed entry at epoch {epoch}"))?;
                stage_follower.ingest_feed(&delta).map(|_| ())
            })
        })?;
        // Inner steps of the epoch ingest, replayed on their own.
        t.time("dns.delta.apply", None, id, || {
            black_box(delta.apply(&old_tail))
        });
        t.time("core.query.index_build", None, id, || {
            black_box(WindowQueryIndex::build(state.results()).map(|_| ()))
        })
        .map_err(|e| e.to_string())?;
        index = Some(built);
    }
    let index = index.ok_or("the live replay sent no delta")?;
    let by_name = t.self_times();
    let ms = |name: &str| median(&self_ns(&by_name, name)) / 1e6;
    let us = |name: &str| median(&self_ns(&by_name, name)) / 1e3;
    let n = sent.len();
    layers.set(
        "service.protocol.parse_ingest_us",
        us("service.protocol.parse_ingest"),
        n,
    );
    layers.set(
        "service.protocol.ingest_line_bytes",
        line_bytes as f64 / n as f64,
        n,
    );
    layers.set("dns.journal.append_us", us("dns.journal.append"), n);
    layers.set(
        "dns.journal.bytes_per_delta",
        journal_bytes as f64 / n as f64,
        n,
    );
    layers.set("dns.delta.apply_ms", ms("dns.delta.apply"), n);
    layers.set("dns.delta.changes", changes as f64 / n as f64, n);
    layers.set("core.query.index_build_ms", ms("core.query.index_build"), n);
    layers.set("core.query.total_pairs", index.total_pairs() as f64, 1);
    let appends = self_ns(&by_name, "core.epoch.ingest_append").len();
    layers.set(
        "core.epoch.ingest_retarget_ms",
        ms("core.epoch.ingest_retarget"),
        n - appends,
    );
    layers.set(
        "core.epoch.ingest_append_ms",
        ms("core.epoch.ingest_append"),
        appends,
    );
    layers.set("dns.store.write_ms", ms("dns.store.write"), appends);
    layers.set(
        "service.replicate.publish_us",
        us("service.replicate.publish"),
        n,
    );
    layers.set(
        "service.replicate.collect_us",
        us("service.replicate.collect"),
        n,
    );
    layers.set(
        "service.replicate.apply_ms",
        ms("service.replicate.apply"),
        n,
    );
    layers.set(
        "service.replicate.poll_wait_ms",
        poll_wait_ms(
            median(&visible),
            ms("service.replicate.collect"),
            ms("service.replicate.apply"),
        ),
        visible.len(),
    );
    // Over the traced timed retargets: how much of the sink the stages
    // explain when replayed alone (the rest is contention with the
    // follower and the readers), and how much of the ack the sink, the
    // line's parse and the bare socket round trip explain.
    let parse_ns: BTreeMap<u64, u64> = by_name["service.protocol.parse_ingest"]
        .iter()
        .map(|&(ns, id)| (id, ns))
        .collect();
    let stage_ms: Vec<f64> = traced_ids
        .iter()
        .map(|&id| t.spans()[stage_roots[id as usize]].duration_ns() as f64 / 1e6)
        .collect();
    let parse_ms: Vec<f64> = traced_ids
        .iter()
        .map(|id| parse_ns[id] as f64 / 1e6)
        .collect();
    let ping_ms = median(&sorted(&ping_ns)) / 1e6;
    layers.set(
        "trace.ingest_stage_share",
        mean(&stage_ms) / sink_mean,
        traced_ids.len(),
    );
    layers.set(
        "trace.ingest_coverage",
        (sink_mean + mean(&parse_ms) + ping_ms) / ack_mean,
        traced_ids.len(),
    );
    trace.merge(t);

    // Oracle: the primary, the follower and the stage follower agree
    // with the stage replay's state.
    let mut want = String::new();
    QueryPlanner::new(index).answer_line("stats", &mut want);
    for (who, window) in [
        ("primary", &primary_window),
        ("follower", &follower_window),
        ("stage follower", &stage_follower.published()),
    ] {
        let mut got = String::new();
        QueryPlanner::live(Arc::clone(window)).answer_line("stats", &mut got);
        outcome.attempted += 1;
        if got != want {
            outcome.failed += 1;
            outcome.fail(format!(
                "in-process {who} stats differ from the stage replay"
            ));
        }
    }
    // Timed retargets only, with and without the sink span.
    let half = |traced: bool| {
        sorted(
            &acks
                .iter()
                .enumerate()
                .filter(|(k, _)| traced_delta((timed_from + k) as u64) == traced)
                .map(|(_, ack)| ack.ms())
                .collect::<Vec<_>>(),
        )
    };
    let (traced, untraced) = (median(&half(true)), median(&half(false)));
    eprintln!(
        "  trace live-replicated: ack traced {traced:.3} ms, untraced {untraced:.3} ms; \
         ping {ping_ms:.3} ms"
    );
    Ok(overhead(traced, untraced))
}

/// The visible lag left after collecting and applying: time the
/// follower spent waiting for its next poll.
pub fn poll_wait_ms(visible_ms: f64, collect_ms: f64, apply_ms: f64) -> f64 {
    visible_ms - collect_ms - apply_ms
}

/// Feed polls per delta: everything the primary served except the
/// writer's own requests, divided by the deltas acked.
pub fn polls_per_delta(served: u64, writer_requests: u64, deltas: usize) -> f64 {
    served.saturating_sub(writer_requests) as f64 / deltas.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_replication_ratios() {
        // 120 ms visible, of which 0.5 ms collect and 20 ms apply.
        assert!((poll_wait_ms(120.0, 0.5, 20.0) - 99.5).abs() < 1e-9);
        // 700 requests served, 500 of them the writer's, 400 deltas.
        assert_eq!(polls_per_delta(700, 500, 400), 0.5);
        // A writer that issued more than was served never goes negative.
        assert_eq!(polls_per_delta(10, 20, 5), 0.0);
        assert_eq!(polls_per_delta(10, 0, 0), 10.0);
    }

    #[test]
    fn layer_metric_names_are_unique_and_valid() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        assert!(names.iter().all(|n| n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
    }

    #[test]
    fn manifest_lists_every_layer_metric_in_order() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(&str, &str)> = manifest
            .get("per_layer")
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(crate::json::Value::as_str).unwrap();
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(listed, LAYER_METRICS);
        let headline: Vec<&str> = manifest
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .map(|m| m.get("name").and_then(crate::json::Value::as_str).unwrap())
            .collect();
        assert_eq!(
            headline,
            ["setup_s", "peak_rss_mb", "op_p50_ms", "op_per_s"]
        );
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_run() {
        assert!((overhead(1.05, 1.0) - 0.05).abs() < 1e-12);
        assert!((overhead(0.98, 1.0) + 0.02).abs() < 1e-12);
    }
}
