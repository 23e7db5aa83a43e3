//! `serve --ingest --store` heals a corrupt stored month the way `batch`
//! and plain `serve` do: the month is quarantined aside to `*.corrupt`,
//! rewritten from the generated world, and the daemon starts.

use std::path::Path;
use std::process::{Command, Output};

use sibling_dns::SnapshotStore;
use sibling_net_types::MonthDate;

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sibling-cli"))
        .args(args)
        .output()
        .expect("spawn sibling-cli")
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 scratch path")
}

#[test]
fn live_serve_quarantines_and_regenerates_a_corrupt_stored_month() {
    let dir = std::env::temp_dir().join(format!("sibling-cli-serve-heal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let world = ["--preset", "small", "--seed", "7"];
    let window = ["--from", "2024-07", "--to", "2024-09"];

    let export = cli(&[
        &["snapshot", "export", "--store", arg(&store)][..],
        &world,
        &window,
    ]
    .concat());
    assert!(
        export.status.success(),
        "export failed: {}",
        String::from_utf8_lossy(&export.stderr)
    );
    let month = store.join("snap-2024-08.sibsnap");
    let mut bytes = std::fs::read(&month).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0xFF;
    std::fs::write(&month, &bytes).unwrap();

    let (journal, socket) = (dir.join("ingest.sibjrnl"), dir.join("serve.sock"));
    let serve = cli(&[
        &["serve", "--store", arg(&store), "--ingest", arg(&journal)][..],
        &["--socket", arg(&socket), "--serve-ms", "50"],
        &world,
        &window,
    ]
    .concat());
    let stderr = String::from_utf8_lossy(&serve.stderr);
    assert!(serve.status.success(), "serve failed: {stderr}");
    assert!(stderr.contains("quarantined"), "{stderr}");
    assert!(
        store.join("snap-2024-08.sibsnap.corrupt").is_file(),
        "corrupt month kept for forensics"
    );
    let date = MonthDate::new(2024, 8);
    let healed = SnapshotStore::open(&store).unwrap().load(date).unwrap();
    assert_eq!(healed.date(), date, "the slot holds a valid month again");
    std::fs::remove_dir_all(&dir).ok();
}
