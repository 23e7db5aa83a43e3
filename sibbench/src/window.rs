//! The benchmark's in-process view of the data: windows scored from the
//! exported store, the batch oracle, and the seeded inputs every
//! workload sends (read mixes and delta streams).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use sibling_bgp::RibArchive;
use sibling_core::longitudinal::PairLedger;
use sibling_core::query::{MonthStats, WindowQueryIndex};
use sibling_core::{BatchRun, DetectEngine, EngineConfig, SiblingSet};
use sibling_dns::{DnsSnapshot, DomainChange, DomainId, SnapshotDelta, SnapshotStore};
use sibling_net_types::MonthDate;
use sibling_service::{QueryPlanner, Request, Response};
use sibling_store::{StoredRib, StoredWorld, WorldStore};

use crate::stats::Rng;

/// The exported store, opened in process.
pub struct Stored {
    /// World tables (routing archive).
    pub world: StoredWorld,
    /// Monthly snapshots.
    pub snaps: SnapshotStore,
}

impl Stored {
    /// Opens the world file and snapshot store in `dir`.
    pub fn open(dir: &Path) -> Result<Self, String> {
        Ok(Self {
            world: WorldStore::open(dir, None).map_err(|e| e.to_string())?,
            snaps: SnapshotStore::open(dir).map_err(|e| e.to_string())?,
        })
    }

    /// The routing archive.
    pub fn archive(&self) -> RibArchive<StoredRib> {
        self.world.rib_archive()
    }

    /// Scores `from..=to` with the default engine, as `batch` does.
    pub fn run_window(&self, from: MonthDate, to: MonthDate) -> Result<BatchRun, String> {
        let files = from
            .range_to(to)
            .into_iter()
            .map(|d| Ok((d, self.snaps.load(d).map_err(|e| e.to_string())?)))
            .collect::<Result<BTreeMap<_, _>, String>>()?;
        DetectEngine::new(EngineConfig::default())
            .run_window(from, to, &self.archive(), |d| Arc::clone(&files[&d]))
    }

    /// The month's snapshot as an owned map.
    pub fn snapshot(&self, date: MonthDate) -> Result<DnsSnapshot, String> {
        let file = self.snaps.load(date).map_err(|e| e.to_string())?;
        Ok(DnsSnapshot::materialize(&*file))
    }
}

/// The expected `batch` stdout for `from..=to`, computed month by month
/// with [`DetectEngine::detect`] — the serial per-month oracle, which
/// shares nothing with the window walk `batch` uses but the scorer.
pub fn batch_oracle(stored: &Stored, from: MonthDate, to: MonthDate) -> Result<String, String> {
    let archive = stored.archive();
    let engine = DetectEngine::new(EngineConfig::default());
    let mut results = Vec::new();
    for date in from.range_to(to) {
        let file = stored.snaps.load(date).map_err(|e| e.to_string())?;
        let rib = archive
            .at_or_before(date)
            .ok_or_else(|| format!("no routing table at or before {date}"))?;
        let index = engine.build_index_source(&*file, &rib);
        results.push((date, engine.detect(&index)));
    }
    Ok(render_batch(&results))
}

/// `batch`'s stdout for per-month results: the header, one row per
/// month with month-over-month deltas from a carried ledger, and the
/// totals line.
pub fn render_batch(results: &[(MonthDate, SiblingSet)]) -> String {
    let mut out = MonthStats::batch_header();
    out.push('\n');
    let mut ledger = PairLedger::new();
    let mut total = 0;
    for (i, (date, set)) in results.iter().enumerate() {
        let (v4_prefixes, v6_prefixes) = set.unique_prefix_counts();
        let delta = ledger.advance(set);
        let (n, u, c, _) = delta.counts();
        let stats = MonthStats {
            date: *date,
            pairs: set.len(),
            v4_prefixes,
            v6_prefixes,
            perfect_share: set.perfect_match_share(),
            delta: (i > 0).then_some((n, u, c)),
        };
        out.push_str(&stats.batch_row());
        out.push('\n');
        total += set.len();
    }
    out.push_str(&format!(
        "\n{} months, {total} pairs total\n",
        results.len()
    ));
    out
}

/// The read verbs of a request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `siblings P4 P6 M` for a pair the month has.
    Hit,
    /// `siblings P4 P6 M` pairing sides of two different pairs.
    Miss,
    /// `partners P M 5`.
    Partners,
    /// `pair P4 P6 FROM..TO` over the whole window.
    History,
    /// `stats M`.
    Stats,
}

impl Kind {
    /// Layer-metric label: the planner's answer path the verb takes.
    pub fn class(self) -> &'static str {
        match self {
            Kind::Hit | Kind::Miss => "point",
            Kind::Partners => "partners",
            Kind::History => "history",
            Kind::Stats => "stats",
        }
    }
}

/// The read mix, as relative weights: an equal share for each read verb
/// of the protocol (`siblings`, `partners`, `pair`, `stats`), with
/// `siblings` split evenly between hits and misses. No usage figures for
/// these verbs exist in the project, so the mix is an assumption that
/// favours no verb rather than a model of real traffic.
pub const MIX: [(Kind, usize); 5] = [
    (Kind::Hit, 1),
    (Kind::Miss, 1),
    (Kind::Partners, 2),
    (Kind::History, 2),
    (Kind::Stats, 2),
];

/// A seeded pool of read requests with the answers an in-process
/// planner over the same window gives.
pub struct ReadPool {
    /// Request lines.
    pub lines: Vec<String>,
    /// Verb of each line.
    pub kinds: Vec<Kind>,
    /// Expected response of each line.
    pub expected: Vec<Response>,
}

/// Turns a planner's wire answer back into the [`Response`] a client
/// decodes from it.
pub fn wire_to_response(wire: &str) -> Result<Response, String> {
    let mut lines = wire.lines();
    let header = lines.next().ok_or("empty answer")?;
    match Response::decode_header(header).map_err(|e| e.to_string())? {
        Ok(count) => {
            let data: Vec<String> = lines.map(str::to_string).collect();
            if data.len() == count {
                Ok(Response::Ok(data))
            } else {
                Err(format!(
                    "answer announces {count} lines, has {}",
                    data.len()
                ))
            }
        }
        Err(error) => Ok(error),
    }
}

/// Draws `size` requests from the mix over `index`'s months, seeded.
pub fn read_pool(
    index: &Arc<WindowQueryIndex>,
    seed: u64,
    size: usize,
) -> Result<ReadPool, String> {
    let months = index.months().to_vec();
    let (first, last) = index.bounds();
    let planner = QueryPlanner::new(Arc::clone(index));
    let mut rng = Rng::new(seed, 11);
    let mut pool = ReadPool {
        lines: Vec::with_capacity(size),
        kinds: Vec::with_capacity(size),
        expected: Vec::with_capacity(size),
    };
    let mut wire = String::new();
    while pool.lines.len() < size {
        let month = months[rng.below(months.len())];
        let set = index.month(month).expect("listed month").set();
        if set.len() < 2 {
            continue;
        }
        let pick = |rng: &mut Rng| set.iter().nth(rng.below(set.len())).expect("in range");
        let mut roll = rng.below(MIX.iter().map(|(_, weight)| weight).sum());
        let kind = MIX
            .iter()
            .find(|(_, weight)| {
                let hit = roll < *weight;
                roll = roll.saturating_sub(*weight);
                hit
            })
            .map(|(kind, _)| *kind)
            .expect("the roll is below the weights' sum");
        let a = pick(&mut rng);
        let line = match kind {
            Kind::Hit => format!("siblings {} {} {month}", a.v4, a.v6),
            Kind::Miss => format!("siblings {} {} {month}", a.v4, pick(&mut rng).v6),
            Kind::Partners if rng.below(2) == 0 => format!("partners {} {month} 5", a.v4),
            Kind::Partners => format!("partners {} {month} 5", a.v6),
            Kind::History => format!("pair {} {} {first}..{last}", a.v4, a.v6),
            Kind::Stats => format!("stats {month}"),
        };
        planner.answer_line(&line, &mut wire);
        let expected = wire_to_response(&wire)?;
        if let Response::Err { code, message } = &expected {
            return Err(format!(
                "generated request {line:?} fails: {code} {message}"
            ));
        }
        pool.lines.push(line);
        pool.kinds.push(kind);
        pool.expected.push(expected);
    }
    Ok(pool)
}

/// Most domains one retarget moves.
pub const MAX_MOVES: usize = 64;

/// The seeded writer stream of the live workload: first the month
/// appends, each diffed against the stored next month, until the last
/// month of the paper window is in; then tail retargets in pairs, a
/// move of 1–64 domains each onto another domain's addresses and then
/// its undo. Appending first keeps the window every retarget runs on
/// the same size, and undoing each move keeps the tail month it
/// rewrites the same, whatever the writer's speed: moves left standing
/// would pile up, make ever more domains share addresses, and change
/// the work per delta over a run by how many deltas it got through.
/// Deterministic in the seed.
pub struct DeltaStream<'a> {
    stored: &'a Stored,
    last: MonthDate,
    tail: DnsSnapshot,
    domains: Vec<DomainId>,
    rng: Rng,
    /// The last move's changes, until its undo is sent.
    undo: Option<Vec<DomainChange>>,
}

impl<'a> DeltaStream<'a> {
    /// A stream continuing from the stored tail month `tail` and
    /// appending through `last`.
    pub fn new(
        stored: &'a Stored,
        tail: MonthDate,
        last: MonthDate,
        seed: u64,
    ) -> Result<Self, String> {
        let tail = stored.snapshot(tail)?;
        let domains = tail.entries().map(|(d, _)| d).collect();
        Ok(Self {
            stored,
            last,
            tail,
            domains,
            rng: Rng::new(seed, 23),
            undo: None,
        })
    }

    /// The next month append, or `None` once the tail is the last month.
    pub fn next_append(&mut self) -> Result<Option<SnapshotDelta>, String> {
        let date = self.tail.date();
        if date >= self.last {
            return Ok(None);
        }
        let next = self.stored.snapshot(date.add_months(1))?;
        let delta = SnapshotDelta::diff(&self.tail, &next);
        self.domains = next.entries().map(|(d, _)| d).collect();
        self.tail = next;
        Ok(Some(delta))
    }

    /// The next tail retarget: a seeded move, or the undo of the last.
    pub fn next_retarget(&mut self) -> SnapshotDelta {
        let date = self.tail.date();
        if let Some(moved) = self.undo.take() {
            let changes: Vec<DomainChange> = moved
                .into_iter()
                .map(|c| DomainChange {
                    domain: c.domain,
                    old: c.new,
                    new: c.old,
                })
                .collect();
            self.retarget(&changes);
            return SnapshotDelta::from_changes(date, date, changes);
        }
        let moves = 1 + self.rng.below(MAX_MOVES);
        let mut targets = BTreeSet::new();
        while targets.len() < moves {
            targets.insert(self.domains[self.rng.below(self.domains.len())]);
        }
        let mut changes = Vec::with_capacity(moves);
        for domain in targets {
            let old = self.tail.get(domain).cloned();
            let donor = self.domains[self.rng.below(self.domains.len())];
            let new = self.tail.get(donor).cloned();
            if old != new {
                changes.push(DomainChange { domain, old, new });
            }
        }
        self.retarget(&changes);
        self.undo = Some(changes.clone());
        SnapshotDelta::from_changes(date, date, changes)
    }

    fn retarget(&mut self, changes: &[DomainChange]) {
        for change in changes {
            let addrs = change.new.clone().expect("moved domains are present");
            self.tail.insert(change.domain, addrs);
        }
    }
}

/// The wire line carrying `delta`.
pub fn ingest_line(delta: &SnapshotDelta) -> String {
    Request::Ingest(delta.clone()).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_weighs_every_read_verb_alike() {
        let weight = |class: &str| -> usize {
            MIX.iter()
                .filter(|(kind, _)| kind.class() == class)
                .map(|(_, w)| w)
                .sum()
        };
        let verbs = ["point", "partners", "history", "stats"];
        assert!(verbs.iter().all(|v| weight(v) == weight("point")));
        // `siblings` splits evenly between hits and misses.
        assert_eq!(MIX[0], (Kind::Hit, 1));
        assert_eq!(MIX[1], (Kind::Miss, 1));
    }
}
