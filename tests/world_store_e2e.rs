//! End-to-end contract of the world store: a directory holding both the
//! `SIBSNAP` snapshot files and the `SIBWORLD` world file (RIB archive +
//! org tables) drives the batch engine and the analysis context to
//! **bit-identical** sibling sets versus the in-memory world — with
//! **zero** `World::generate` calls once the store is open. The whole
//! contract lives in one test function on purpose: the zero-generate
//! assertion reads the process-global worldgen counter, and a sibling
//! test generating a world concurrently would race it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use sibling_analysis::{AnalysisContext, StoreBackedWorld};
use sibling_core::{
    detect, BestMatchPolicy, DetectEngine, PrefixDomainIndex, SiblingSet, SimilarityMetric,
};
use sibling_dns::{LoadMode, SnapshotStore};
use sibling_net_types::MonthDate;
use sibling_store::{check_months, WorldStore};
use sibling_worldgen::{World, WorldConfig};

/// A unique scratch directory per test (removed best-effort on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sibworld-e2e-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn assert_sets_equal(got: &SiblingSet, want: &SiblingSet, what: &str) {
    assert_eq!(got.len(), want.len(), "pair count: {what}");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!((g.v4, g.v6), (w.v4, w.v6), "pair identity: {what}");
        assert_eq!(g.similarity, w.similarity, "similarity: {what}");
        assert_eq!(g.shared_domains, w.shared_domains, "{what}");
    }
}

#[test]
fn store_backed_window_runs_with_zero_worldgen_and_identical_output() {
    let scratch = Scratch::new("window");
    let config = WorldConfig::test_small(31);
    let fingerprint = config.fingerprint();
    let world = World::generate(config);
    let to = world.config.end;
    let from = to.add_months(-3);
    let window: Vec<MonthDate> = from.range_to(to);

    // Export everything a store-backed run needs: the monthly snapshots
    // plus the world file with the RIB archive and org tables.
    let snapshots = SnapshotStore::create(&scratch.0).unwrap();
    world.export_snapshots(&snapshots, from, to, false).unwrap();
    WorldStore::write(
        &scratch.0,
        fingerprint,
        &world.rib_archive(),
        world.as_org(),
        world.asdb(),
        world.hg_cdn(),
    )
    .unwrap();

    // The per-month oracle — a fresh index and the reference `detect`
    // per date — and the window run from the in-memory world.
    let oracle: BTreeMap<MonthDate, SiblingSet> = window
        .iter()
        .map(|&d| {
            let index = PrefixDomainIndex::build(&world.snapshot(d), world.rib());
            let set = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union);
            (d, set)
        })
        .collect();
    let archive = world.rib_archive();
    let mut engine = DetectEngine::default();
    let run = engine
        .run_window(from, to, &archive, |d| Arc::new(world.snapshot(d)))
        .unwrap();
    assert!(run.results.iter().all(|(_, s)| !s.is_empty()));
    for (d, got) in &run.results {
        assert_sets_equal(got, &oracle[d], &format!("{d} (in-memory vs detect)"));
    }
    let world_day0_pairs = {
        let ctx = AnalysisContext::new(world);
        let pairs = ctx.default_pairs(ctx.day0());
        Arc::try_unwrap(pairs).unwrap_or_else(|p| (*p).clone())
    };

    // From this point on, worldgen must never run again: everything the
    // engine and the analysis context consume is mapped off the store.
    let calls_before = World::generate_calls();

    let stored = WorldStore::open(&scratch.0, Some(fingerprint)).unwrap();
    check_months(&stored, &window).unwrap();
    let archive = stored.rib_archive();
    let mut engine = DetectEngine::default();
    let run = engine
        .run_window(from, to, &archive, |d| snapshots.load(d).unwrap())
        .unwrap();
    assert_eq!(run.results.len(), oracle.len());
    for (d, got) in &run.results {
        assert_sets_equal(got, &oracle[d], &format!("{d} (store-backed vs detect)"));
    }

    // The full analysis context over the store agrees with the one over
    // the generated world.
    let store_ctx = AnalysisContext::new(
        StoreBackedWorld::open(&scratch.0, Some(fingerprint), LoadMode::Mmap).unwrap(),
    );
    assert_eq!(store_ctx.day0(), to);
    let store_day0_pairs = store_ctx.default_pairs(to);
    assert_sets_equal(
        &store_day0_pairs,
        &world_day0_pairs,
        "analysis context at day 0",
    );

    assert_eq!(
        World::generate_calls(),
        calls_before,
        "store-backed runs must perform zero World::generate calls"
    );
}
