//! CLI-level oracle for `batch`: the binary's stdout must equal, byte
//! for byte, the table rendered from the reference `detect` run on a
//! fresh index per month — at every `--window-threads` count. This is
//! the end-to-end check that the window scheduler (deltas, in-place
//! index patching, dirty-shard rescoring, cross-month overlap on the
//! pool) and the table formatting agree with the plain per-date
//! pipeline.

use std::process::Command;

use sibling_core::longitudinal::PairLedger;
use sibling_core::query::MonthStats;
use sibling_core::{detect, BestMatchPolicy, PrefixDomainIndex, SimilarityMetric};
use sibling_net_types::MonthDate;
use sibling_worldgen::{World, WorldConfig};

const SEED: u64 = 7;

/// `sibling-cli batch --preset small --seed 7` over `from..=to`.
fn batch_stdout(from: &str, to: &str, window_threads: usize) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_sibling-cli"))
        .args(["batch", "--preset", "small", "--seed", &SEED.to_string()])
        .args(["--from", from, "--to", to])
        .args(["--window-threads", &window_threads.to_string()])
        .output()
        .expect("spawn sibling-cli");
    assert!(
        output.status.success(),
        "batch failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// The table `batch` prints, rendered from per-month `detect`: the
/// header, one row per month with month-over-month deltas from a
/// carried ledger, and the totals line.
fn oracle(world: &World, from: &str, to: &str) -> String {
    let from: MonthDate = from.parse().unwrap();
    let to: MonthDate = to.parse().unwrap();
    let mut out = format!("{}\n", MonthStats::batch_header());
    let mut ledger = PairLedger::new();
    let (mut months, mut total) = (0, 0);
    for date in from.range_to(to) {
        let index = PrefixDomainIndex::build(&world.snapshot(date), world.rib());
        let set = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union);
        let (v4_prefixes, v6_prefixes) = set.unique_prefix_counts();
        let (new, unchanged, changed, _) = ledger.advance(&set).counts();
        let stats = MonthStats {
            date,
            pairs: set.len(),
            v4_prefixes,
            v6_prefixes,
            perfect_share: set.perfect_match_share(),
            delta: (months > 0).then_some((new, unchanged, changed)),
        };
        out.push_str(&format!("{}\n", stats.batch_row()));
        months += 1;
        total += set.len();
    }
    out.push_str(&format!("\n{months} months, {total} pairs total\n"));
    out
}

#[test]
fn batch_stdout_equals_per_month_detect_at_every_thread_count() {
    let world = World::generate(WorldConfig::test_small(SEED));
    for (from, to) in [("2024-07", "2024-09"), ("2024-04", "2024-09")] {
        let want = oracle(&world, from, to);
        for threads in [1, 4] {
            assert_eq!(
                batch_stdout(from, to, threads),
                want,
                "batch {from}..{to} --window-threads {threads}"
            );
        }
    }
}
