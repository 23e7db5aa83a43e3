//! Child processes: building `sibling-cli`, exporting and copying
//! stores, spawning daemons, and reaping them with their peak memory.
//! Every child is registered with a watchdog that kills it if the run
//! overstays its time limit, so the benchmark never leaves processes
//! behind.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sibling_dns::SnapshotStore;
use sibling_net_types::MonthDate;
use sibling_store::WORLD_FILE_NAME;

/// The world every workload runs on. Fixed, so that `--seed` varies the
/// traffic and not the data set; recorded beside every result.
pub const WORLD_PRESET: &str = "paper";
/// Seed of the world (not of the workload traffic).
pub const WORLD_SEED: u64 = 7;

/// Pids of running children, for the watchdog.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

const SIGKILL: i32 = 9;

/// `struct rusage` from `<sys/resource.h>` on 64-bit Linux: two
/// `timeval`s, then fourteen `long`s of which `ru_maxrss` is the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

fn register(pid: u32) {
    CHILDREN.lock().expect("child registry poisoned").push(pid);
}

fn unregister(pid: u32) {
    CHILDREN
        .lock()
        .expect("child registry poisoned")
        .retain(|&p| p != pid);
}

/// Starts a thread that kills every registered child and exits with
/// status 3 once `limit` has passed.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("sibbench: run exceeded {limit:?}; killing children");
        for &pid in CHILDREN.lock().expect("child registry poisoned").iter() {
            // SAFETY: `kill` takes plain integers and has no memory
            // effects; a stale pid at worst yields ESRCH.
            unsafe { kill(pid as i32, SIGKILL) };
        }
        std::process::exit(3);
    });
}

/// Waits for `child` and returns (exit success, peak resident set in
/// bytes). Reaps through `wait4` so the peak is this child's own.
fn reap(child: Child) -> Result<(bool, u64), String> {
    let pid = child.id();
    let mut status = 0i32;
    let mut usage = RUsage::default();
    // SAFETY: both pointers reference live, properly aligned locals for
    // the duration of the call, and `RUsage` matches the kernel's
    // `struct rusage` layout on 64-bit Linux. The pid is our own
    // unreaped child, so no other waiter races this call.
    let reaped = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
    unregister(pid);
    // `std::process::Child` never waits on drop, so dropping it after
    // reaping it here is harmless.
    drop(child);
    if reaped != pid as i32 {
        return Err(format!("wait4({pid}) failed"));
    }
    let exited_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((exited_ok, usage.maxrss_kb.max(0) as u64 * 1024))
}

/// Builds the release `sibling-cli` from the checkout in the current
/// directory and returns the binary's path.
pub fn build_cli() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/cli").is_dir() {
        return Err("run from the repository root (no Cargo.toml / crates/cli here)".into());
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "sibling-cli",
        ])
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of sibling-cli failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let cli = target.join("release").join("sibling-cli");
    if cli.is_file() {
        std::fs::canonicalize(&cli).map_err(|e| format!("{}: {e}", cli.display()))
    } else {
        Err(format!("built binary missing at {}", cli.display()))
    }
}

/// Runs `sibling-cli world export` for the full paper window into
/// `dir` and returns its wall time.
pub fn export_store(cli: &Path, dir: &Path) -> Result<Duration, String> {
    let (from, to) = paper_window();
    let start = Instant::now();
    let out = Command::new(cli)
        .args(["world", "export", "--store"])
        .arg(dir)
        .args(["--from", &from.to_string(), "--to", &to.to_string()])
        .args(["--preset", WORLD_PRESET, "--seed", &WORLD_SEED.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("running world export: {e}"))?;
    let took = start.elapsed();
    if !out.status.success() {
        return Err(format!(
            "world export failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(took)
}

/// The paper's 49-month window, which the exported store covers.
pub fn paper_window() -> (MonthDate, MonthDate) {
    (MonthDate::new(2020, 9), MonthDate::new(2024, 9))
}

/// Copies the world file and the snapshots of `from..=to` (and no other
/// month) from `master` into a fresh `dest`. A live daemon extends its
/// window through every contiguous stored month, so a copy holding
/// later months would leave nothing to append.
pub fn copy_store(
    master: &Path,
    dest: &Path,
    from: MonthDate,
    to: MonthDate,
) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("copying store to {}: {e}", dest.display());
    std::fs::create_dir_all(dest).map_err(fail)?;
    std::fs::copy(master.join(WORLD_FILE_NAME), dest.join(WORLD_FILE_NAME)).map_err(fail)?;
    let source = SnapshotStore::open(master).map_err(|e| e.to_string())?;
    for date in from.range_to(to) {
        let path = source.path_of(date);
        let name = path.file_name().expect("snapshot paths name a file");
        std::fs::copy(&path, dest.join(name)).map_err(fail)?;
    }
    Ok(())
}

/// A one-shot `sibling-cli` run whose stdout is captured.
pub struct Finished {
    /// Captured standard output.
    pub stdout: String,
    /// Wall time from spawn to exit.
    pub wall: Duration,
    /// Peak resident set of the process, bytes.
    pub peak_rss: u64,
    /// Whether it exited with status 0.
    pub ok: bool,
}

/// Runs `cli args…` to completion, capturing stdout (stderr discarded).
pub fn run_to_end(cli: &Path, args: &[String]) -> Result<Finished, String> {
    let start = Instant::now();
    let mut child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
    register(child.id());
    let mut stdout = String::new();
    let read =
        std::io::Read::read_to_string(child.stdout.as_mut().expect("stdout is piped"), &mut stdout);
    let (ok, peak_rss) = reap(child)?;
    let wall = start.elapsed();
    read.map_err(|e| format!("reading child stdout: {e}"))?;
    Ok(Finished {
        stdout,
        wall,
        peak_rss,
        ok,
    })
}

/// A running daemon.
pub struct Daemon {
    /// `None` once stopped.
    child: Option<Child>,
    /// Kept open so the daemon never sees a broken stdout pipe.
    stdout: BufReader<ChildStdout>,
    /// The endpoint from its `listening` line, once seen.
    pub endpoint: String,
}

impl Daemon {
    /// Spawns `sibling-cli serve args…` with stderr going to `log`.
    pub fn start(cli: &Path, args: &[String], log: &Path) -> Result<Self, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(cli)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning serve: {e}"))?;
        register(child.id());
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Self {
            child: Some(child),
            stdout,
            endpoint: String::new(),
        })
    }

    /// Blocks until the daemon prints `listening ENDPOINT`.
    pub fn wait_listening(&mut self) -> Result<(), String> {
        let mut line = String::new();
        let read = self.stdout.read_line(&mut line);
        match (read, line.trim().strip_prefix("listening ")) {
            (Ok(_), Some(endpoint)) => {
                self.endpoint = endpoint.to_string();
                Ok(())
            }
            (read, _) => Err(format!(
                "daemon did not report listening ({read:?}, {line:?}); see its log"
            )),
        }
    }

    /// Kills the daemon and returns its peak resident set, bytes.
    pub fn stop(mut self) -> Result<u64, String> {
        reap_killed(self.child.take().expect("stopped once"))
    }
}

impl Drop for Daemon {
    /// A daemon abandoned on an error path is still killed and reaped.
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            let _ = reap_killed(child);
        }
    }
}

fn reap_killed(child: Child) -> Result<u64, String> {
    // SAFETY: `kill` takes plain integers and has no memory effects.
    unsafe { kill(child.id() as i32, SIGKILL) };
    reap(child).map(|(_, rss)| rss)
}

/// The work directory of one run, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `.sibbench/work-<pid>` under the current directory.
    pub fn create() -> Result<Self, String> {
        let dir = PathBuf::from(".sibbench").join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// A path inside the work directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
