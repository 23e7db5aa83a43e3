//! End-to-end contract of the cross-month window scheduler: over a
//! synthetic world's organic churn, `run_window` must produce exactly
//! the same per-month `SiblingSet`s (and churn accounting) at every
//! `threads` setting — equal to per-date `detect` — against regenerated
//! and store-backed (mmap) snapshots, and the delta-native `PairLedger`
//! must report the same month-over-month categories as the stateless
//! `compare`.

use std::sync::Arc;

use sibling_core::longitudinal::{compare, PairLedger};
use sibling_core::{
    detect, BatchRun, BestMatchPolicy, DetectEngine, EngineConfig, PrefixDomainIndex, SiblingSet,
    SimilarityMetric,
};
use sibling_dns::SnapshotStore;
use sibling_worldgen::{World, WorldConfig};

fn assert_sets_equal(got: &SiblingSet, want: &SiblingSet, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: pair count");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!((g.v4, g.v6), (w.v4, w.v6), "{what}: identity");
        assert_eq!(g.similarity, w.similarity, "{what}: similarity");
        assert_eq!(g.shared_domains, w.shared_domains, "{what}");
        assert_eq!(g.v4_domains, w.v4_domains, "{what}");
        assert_eq!(g.v6_domains, w.v6_domains, "{what}");
    }
}

/// Per-month oracle: a fresh index and the reference `detect` per date.
fn per_date_detect(world: &World, run: &BatchRun) -> Vec<SiblingSet> {
    run.results
        .iter()
        .map(|(date, _)| {
            let index = PrefixDomainIndex::build(&world.snapshot(*date), world.rib());
            detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union)
        })
        .collect()
}

fn assert_runs_equal(got: &BatchRun, want: &BatchRun, what: &str) {
    assert_eq!(got.results.len(), want.results.len(), "{what}");
    for ((d_got, g_set), (d_want, w_set)) in got.results.iter().zip(want.results.iter()) {
        assert_eq!(d_got, d_want, "{what}");
        assert_sets_equal(g_set, w_set, &format!("{what} at {d_got}"));
    }
    for (g, w) in got.churn.iter().zip(want.churn.iter()) {
        assert_eq!(g.full_rebuild, w.full_rebuild, "{what}");
        assert_eq!(g.changed_effective, w.changed_effective, "{what}");
        assert_eq!(g.dirty_shards, w.dirty_shards, "{what}");
        assert_eq!(g.total_shards, w.total_shards, "{what}");
    }
    assert_eq!(
        got.stats.distinct_sets, want.stats.distinct_sets,
        "{what}: live arena sets"
    );
}

#[test]
fn window_is_bit_identical_across_thread_counts() {
    let world = World::generate(WorldConfig::test_small(23));
    let to = world.config.end;
    let from = to.add_months(-5);
    let archive = world.rib_archive();

    let mut reference: Option<BatchRun> = None;
    for threads in [1usize, 2, 4] {
        let mut engine = DetectEngine::new(EngineConfig {
            threads,
            // Pinned: the auto shard count scales with the worker count,
            // which keeps results identical but would make the
            // churn-accounting comparison vacuous.
            shards: 32,
            ..EngineConfig::default()
        });
        let run = engine
            .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
            .expect("window covered by the world's archive");
        assert_eq!(run.results.len(), 6);
        assert_eq!(run.timings.len(), run.results.len(), "one timing/month");
        assert!(
            !run.results[0].1.is_empty(),
            "synthetic world detects pairs"
        );
        match &reference {
            Some(want) => assert_runs_equal(&run, want, &format!("threads={threads}")),
            None => {
                let oracle = per_date_detect(&world, &run);
                for ((date, got), want) in run.results.iter().zip(&oracle) {
                    assert_sets_equal(got, want, &format!("detect oracle at {date}"));
                }
                reference = Some(run);
            }
        }
    }
}

#[test]
fn store_backed_window_matches_regeneration_across_threads() {
    let world = World::generate(WorldConfig::test_small(29));
    let to = world.config.end;
    let from = to.add_months(-5);
    let archive = world.rib_archive();

    let dir = std::env::temp_dir().join(format!(
        "sibling-window-par-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let store = SnapshotStore::create(&dir).expect("create store");
    world
        .export_snapshots(&store, from, to, false)
        .expect("export window");

    let mut regen = DetectEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let want = regen
        .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
        .unwrap();

    for threads in [1usize, 4] {
        let files: std::collections::BTreeMap<_, _> = from
            .range_to(to)
            .into_iter()
            .map(|d| (d, store.load(d).expect("stored month")))
            .collect();
        let mut engine = DetectEngine::new(EngineConfig {
            threads,
            ..EngineConfig::default()
        });
        let run = engine
            .run_window(from, to, &archive, |date| files[&date].clone())
            .unwrap();
        // Shard accounting may differ from the regeneration run when the
        // auto shard count differs across thread counts — compare the
        // detection output only.
        assert_eq!(run.results.len(), want.results.len());
        for ((d_got, g_set), (d_want, w_set)) in run.results.iter().zip(want.results.iter()) {
            assert_eq!(d_got, d_want);
            assert_sets_equal(g_set, w_set, &format!("store-backed at {d_got}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ledger_deltas_match_stateless_compare_over_a_window() {
    let world = World::generate(WorldConfig::test_small(31));
    let to = world.config.end;
    let from = to.add_months(-4);
    let archive = world.rib_archive();
    let mut engine = DetectEngine::default();
    let run = engine
        .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
        .unwrap();

    let mut ledger = PairLedger::new();
    let mut prev = SiblingSet::default();
    for (date, set) in &run.results {
        let want = compare(&prev, set);
        let got = ledger.advance(set);
        assert_eq!(got.counts(), want.counts(), "category counts at {date}");
        let sorted = |v: &[f64]| {
            let mut v: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&got.new), sorted(&want.new), "{date}");
        assert_eq!(sorted(&got.unchanged), sorted(&want.unchanged), "{date}");
        assert_eq!(
            sorted(&got.changed_current),
            sorted(&want.changed_current),
            "{date}"
        );
        assert_eq!(sorted(&got.vanished), sorted(&want.vanished), "{date}");
        assert_eq!(ledger.len(), set.len());
        prev = set.clone();
    }
}
