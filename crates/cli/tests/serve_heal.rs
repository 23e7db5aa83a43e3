//! `serve --ingest --store` loads its window the way `batch --store`
//! does: a corrupt stored month is quarantined aside to `*.corrupt`,
//! rewritten from the world and the daemon starts; a store holding a
//! world file skips worldgen (generating the world lazily, once, only
//! to heal); and a window month the store lacks is the same typed
//! error `batch --store` gives, never a month filled in from worldgen.

use std::path::Path;
use std::process::{Command, Output};

use sibling_dns::SnapshotStore;
use sibling_net_types::MonthDate;

const WORLD: [&str; 4] = ["--preset", "small", "--seed", "7"];
const WINDOW: [&str; 4] = ["--from", "2024-07", "--to", "2024-09"];

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sibling-cli"))
        .args(args)
        .output()
        .expect("spawn sibling-cli")
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 scratch path")
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sibling-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `snapshot export` or `world export` of the test window into `store`.
fn export(kind: &str, store: &Path) {
    let export = cli(&[
        &[kind, "export", "--store", arg(store)][..],
        &WORLD,
        &WINDOW,
    ]
    .concat());
    assert!(
        export.status.success(),
        "{kind} export failed: {}",
        String::from_utf8_lossy(&export.stderr)
    );
}

/// `serve --ingest` over `store` for 50 ms, journaling next to it.
fn serve_live(dir: &Path, store: &Path) -> Output {
    let (journal, socket) = (store.with_extension("sibjrnl"), dir.join("serve.sock"));
    cli(&[
        &["serve", "--store", arg(store), "--ingest", arg(&journal)][..],
        &["--socket", arg(&socket), "--serve-ms", "50"],
        &WORLD,
        &WINDOW,
    ]
    .concat())
}

#[test]
fn live_serve_quarantines_and_regenerates_a_corrupt_stored_month() {
    let dir = scratch("serve-heal");
    // A snapshot-only store, then one with a world file.
    for kind in ["snapshot", "world"] {
        let store = dir.join(format!("{kind}-store"));
        export(kind, &store);
        let month = store.join("snap-2024-08.sibsnap");
        let mut bytes = std::fs::read(&month).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xFF;
        std::fs::write(&month, &bytes).unwrap();

        let serve = serve_live(&dir, &store);
        let stderr = String::from_utf8_lossy(&serve.stderr);
        assert!(serve.status.success(), "{kind}: serve failed: {stderr}");
        assert!(stderr.contains("quarantined"), "{kind}: {stderr}");
        assert!(
            store.join("snap-2024-08.sibsnap.corrupt").is_file(),
            "{kind}: corrupt month kept for forensics"
        );
        let date = MonthDate::new(2024, 8);
        let healed = SnapshotStore::open(&store).unwrap().load(date).unwrap();
        assert_eq!(
            healed.date(),
            date,
            "{kind}: the slot holds a valid month again"
        );
        // Without a world file the world is generated for its routing
        // tables; with one, only lazily to heal the month — once either
        // way.
        assert_eq!(
            stderr.matches("generating world").count(),
            1,
            "{kind}: {stderr}"
        );
        if kind == "world" {
            assert!(stderr.contains("worldgen skipped"), "{stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_serve_refuses_a_store_missing_a_window_month_like_batch() {
    let dir = scratch("serve-missing");
    let store = dir.join("store");
    export("world", &store);
    std::fs::remove_file(store.join("snap-2024-08.sibsnap")).unwrap();

    let serve = serve_live(&dir, &store);
    let serve_err = String::from_utf8_lossy(&serve.stderr);
    assert!(!serve.status.success(), "serve filled the gap: {serve_err}");
    let batch = cli(&[&["batch", "--store", arg(&store)][..], &WORLD, &WINDOW].concat());
    let batch_err = String::from_utf8_lossy(&batch.stderr);
    assert!(!batch.status.success(), "{batch_err}");
    let error = |stderr: &str| {
        stderr
            .lines()
            .find(|line| line.starts_with("error: "))
            .map(str::to_string)
    };
    let expected = error(&batch_err).expect("batch names its error");
    assert!(
        expected.contains("missing 1 month(s): 2024-08"),
        "{expected}"
    );
    assert_eq!(error(&serve_err), Some(expected), "{serve_err}");
    assert!(
        !serve_err.contains("generating world"),
        "a missing month is not filled from worldgen: {serve_err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
