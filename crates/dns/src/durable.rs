//! The durable-file layer under every file the system publishes: the
//! `SIBSNAP` snapshot store ([`crate::SnapshotStore`]), the `SIBWORLD`
//! world store (`sibling-store`), the `SIBJRNL` ingest journal
//! ([`crate::IngestJournal`]) and the CLI's published list. Each format
//! keeps only its own encoding and offsets:
//!
//! * [`replace`] publishes a file atomically (hidden `.{name}.tmp`, fsync,
//!   rename, directory fsync); [`sweep`] removes the temp files a crash
//!   left behind when a store or journal opens.
//! * [`load`] maps or reads a file; [`quarantine`] moves one that failed
//!   validation aside to `*.corrupt`, kept for forensics.
//! * [`put_prelude`]/[`check_prelude`] (magic, version and [`ENDIAN_TAG`]
//!   in bytes 0..16) and [`seal`]/[`check_sealed`] (the file length and
//!   the FNV-1a 64 checksum with its own field skipped) are the header
//!   discipline all formats share.
//!
//! Failpoint sites (`--features failpoints`): [`replace`] evaluates its
//! format's [`Sites`], [`load`] the format's `open` site (short reads).

use std::ffi::OsString;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use sibling_net_types::MonthDate;

use crate::wire::{self, put_u32, put_u64, read_u32, read_u64, ENDIAN_TAG};

/// Why a store or journal file failed to write, load, or validate.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(io::Error),
    /// The file does not start with its format's magic.
    BadMagic,
    /// The file's endianness tag does not match this host (the zero-copy
    /// casts require native byte order).
    BadEndian,
    /// The file carries an unsupported format version.
    BadVersion(u32),
    /// The file is shorter than its header claims (or than a header).
    Truncated {
        /// Bytes the header (or the fixed header size) requires.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The file checksum (header + payload) does not match.
    ChecksumMismatch,
    /// A structural invariant does not hold (sections inconsistent with
    /// counts, unsorted domain table, non-monotone offsets, …).
    Corrupt(&'static str),
    /// The requested month is not present in the store.
    Missing(MonthDate),
    /// A window run asked the store for months it does not hold — all of
    /// them, listed, so one failed `batch --store` names every gap
    /// instead of the first.
    MissingMonths {
        /// Every requested month absent from the store, ascending.
        missing: Vec<MonthDate>,
    },
    /// The store was produced under a different worldgen configuration
    /// than the one the run derives its remaining state from (mixing the
    /// two would silently pair mismatched worlds).
    BadFingerprint {
        /// The fingerprint of the configuration this run uses.
        expected: u64,
        /// The fingerprint stamped into the store file.
        found: u64,
    },
    /// A store file's embedded date disagrees with the month its file
    /// name claims (e.g. a renamed or miscopied file).
    DateMismatch {
        /// The month the store was asked for.
        expected: MonthDate,
        /// The month the file actually carries.
        found: MonthDate,
    },
    /// A corrupt store file was moved aside (renamed to `*.corrupt`) by
    /// [`quarantine`] so the caller may regenerate into a clean slot.
    /// Only the quarantining open paths raise it
    /// ([`crate::SnapshotStore::load_quarantining`] and the world store's
    /// equivalent); the plain loaders return the corruption untouched.
    Quarantined {
        /// Where the corrupt file now lives.
        path: PathBuf,
        /// The corruption that condemned it.
        reason: Box<StoreError>,
    },
}

impl StoreError {
    /// Whether this error condemns the file's bytes — the quarantine
    /// predicate. Environmental errors (I/O, missing months) and
    /// configuration mismatches ([`StoreError::BadFingerprint`] — the
    /// file may be a perfectly good store for some *other* config) are
    /// not corruption and must never trigger a rename.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StoreError::BadMagic
                | StoreError::BadEndian
                | StoreError::BadVersion(_)
                | StoreError::Truncated { .. }
                | StoreError::ChecksumMismatch
                | StoreError::Corrupt(_)
                | StoreError::DateMismatch { .. }
        )
    }
}

/// The wording names no format: callers prefix the path or the format
/// (`ingest journal X: …`, `world store: …`).
impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a file of the expected format (bad magic)"),
            StoreError::BadEndian => write!(f, "file written on a foreign-endian host"),
            StoreError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            StoreError::Truncated { expected, got } => {
                write!(f, "file truncated: {got} bytes, expected {expected}")
            }
            StoreError::ChecksumMismatch => write!(f, "file checksum mismatch"),
            StoreError::Corrupt(what) => write!(f, "corrupt file: {what}"),
            StoreError::Missing(date) => write!(f, "no stored snapshot for {date}"),
            StoreError::MissingMonths { missing } => {
                write!(f, "store is missing {} month(s):", missing.len())?;
                for date in missing {
                    write!(f, " {date}")?;
                }
                Ok(())
            }
            StoreError::BadFingerprint { expected, found } => {
                write!(
                    f,
                    "store written under a different world config: \
                     fingerprint {found:#018x}, expected {expected:#018x}"
                )
            }
            StoreError::DateMismatch { expected, found } => {
                write!(f, "stored snapshot carries {found}, expected {expected}")
            }
            StoreError::Quarantined { path, reason } => {
                write!(
                    f,
                    "corrupt store file quarantined to {}: {reason}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// How [`load`] should back a file's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// `mmap(2)` the file read-only (plain read on non-unix targets or
    /// mapping failure) — the milliseconds path.
    #[default]
    Mmap,
    /// Read into an aligned heap buffer (no mmap involved at all).
    Read,
}

impl LoadMode {
    /// Parses a user-facing mode name (`mmap` or `read`), as the CLI's
    /// `--load-mode` flag takes it.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "mmap" => Ok(LoadMode::Mmap),
            "read" => Ok(LoadMode::Read),
            other => Err(format!(
                "unknown load mode {other:?} (valid values: mmap, read)"
            )),
        }
    }
}

/// The failpoint sites of one format's [`replace`] path. Each format
/// declares its family as a constant, so a write builds no strings.
#[derive(Debug)]
pub struct Sites {
    /// Before the data write (`truncate(N)`: a torn write).
    pub write: &'static str,
    /// Before the data fsync.
    pub sync: &'static str,
    /// Before the rename.
    pub rename: &'static str,
    /// After the rename has landed, before the directory fsync.
    pub sync_dir: &'static str,
}

/// What [`replace`] hands back once its rename has landed. The directory
/// fsync's outcome is separate because the path already names `file`: a
/// caller holding the old file must switch to it even if the sync failed.
#[derive(Debug)]
pub struct Replaced {
    /// The new file, open for reading and writing.
    pub file: File,
    /// The directory fsync that makes the rename durable.
    pub dir_synced: Result<(), StoreError>,
}

/// Where [`replace`] stages `path`: the hidden `.{name}.tmp` beside it.
pub(crate) fn temp_path(path: &Path) -> PathBuf {
    let mut name = OsString::from(".");
    name.push(path.file_name().unwrap_or_default());
    name.push(".tmp");
    path.with_file_name(name)
}

/// An empty directory path — the `parent()` of a bare file name — is
/// the working directory.
fn or_cwd(dir: &Path) -> &Path {
    if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    }
}

/// Replaces `path` with `bytes` atomically: write the temp file, fsync
/// it, rename it over `path`, fsync the directory — one data fsync, one
/// rename, one directory fsync. Any failure before the rename leaves
/// `path` untouched and the temp file for [`sweep`]; once the rename has
/// landed the result is `Ok`, with the directory fsync's outcome in
/// [`Replaced::dir_synced`].
pub fn replace(path: &Path, bytes: &[u8], sites: &Sites) -> Result<Replaced, StoreError> {
    let tmp = temp_path(path);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    write_synced(&mut file, bytes, sites.write, sites.sync)?;
    if sibling_failpoint::point(sites.rename) {
        return Err(sibling_failpoint::injected(sites.rename).into());
    }
    std::fs::rename(&tmp, path)?;
    let dir_synced = sibling_failpoint::io_point(sites.sync_dir)
        .and_then(|_| sync_dir(path.parent().unwrap_or(Path::new(""))))
        .map_err(StoreError::from);
    Ok(Replaced { file, dir_synced })
}

/// Writes `bytes` at `file`'s cursor and fsyncs it — the one data write
/// of [`replace`] and of every journal append. At `write_site`,
/// `truncate(N)` persists only N bytes and fails: a torn write.
pub(crate) fn write_synced(
    file: &mut File,
    bytes: &[u8],
    write_site: &str,
    sync_site: &str,
) -> Result<(), StoreError> {
    match sibling_failpoint::io_point(write_site)? {
        None => file.write_all(bytes)?,
        Some(n) => {
            file.write_all(&bytes[..n.min(bytes.len())])?;
            file.sync_all()?;
            return Err(sibling_failpoint::injected(write_site).into());
        }
    }
    sibling_failpoint::io_point(sync_site)?;
    Ok(file.sync_all()?)
}

/// Removes the orphaned temp files an interrupted [`replace`] left in
/// `dir` for every target name `owns` claims. Called when a store or
/// journal opens, so torn writes never accumulate.
pub fn sweep(dir: &Path, owns: impl Fn(&str) -> bool) -> Result<(), StoreError> {
    for entry in std::fs::read_dir(or_cwd(dir))? {
        let entry = entry?;
        let name = entry.file_name();
        let target = name
            .to_str()
            .and_then(|n| n.strip_prefix('.'))
            .and_then(|n| n.strip_suffix(".tmp"));
        if target.is_some_and(&owns) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Maps (or reads) `path` for validation. The format's `open_site`
/// failpoint simulates a short read: `truncate(N)` surfaces as the
/// truncation error a really-truncated file would produce.
pub fn load(path: &Path, mode: LoadMode, open_site: &str) -> Result<mapfile::MapFile, StoreError> {
    let map = match mode {
        LoadMode::Mmap => mapfile::MapFile::open(path)?,
        LoadMode::Read => mapfile::MapFile::read(path)?,
    };
    match sibling_failpoint::io_point(open_site)? {
        Some(n) if n < map.len() => Err(StoreError::Truncated {
            expected: map.len() as u64,
            got: n as u64,
        }),
        _ => Ok(map),
    }
}

/// Moves `path` aside to `path.corrupt` when `reason` condemns its bytes
/// ([`StoreError::is_corruption`]) and reports it as
/// [`StoreError::Quarantined`], leaving the slot clean for regeneration.
/// Any other error comes back unchanged and moves nothing.
pub fn quarantine(path: &Path, reason: StoreError) -> StoreError {
    if !reason.is_corruption() {
        return reason;
    }
    let mut moved = path.as_os_str().to_os_string();
    moved.push(".corrupt");
    let moved = PathBuf::from(moved);
    // Best-effort: if the rename itself fails, the caller's regeneration
    // still lands atomically over the bad file.
    let _ = std::fs::rename(path, &moved);
    StoreError::Quarantined {
        path: moved,
        reason: Box::new(reason),
    }
}

/// Writes the 16-byte prelude every format starts with: `magic`,
/// `version`, and the endianness tag.
pub fn put_prelude(buf: &mut [u8], magic: &[u8; 8], version: u32) {
    buf[..8].copy_from_slice(magic);
    put_u32(buf, 8, version);
    put_u32(buf, 12, ENDIAN_TAG);
}

/// Checks what [`put_prelude`] wrote, after checking that `bytes` holds
/// a whole `header_len`-byte header: truncation, then magic, endianness
/// and version, in that order.
pub fn check_prelude(
    bytes: &[u8],
    magic: &[u8; 8],
    version: u32,
    header_len: usize,
) -> Result<(), StoreError> {
    if bytes.len() < header_len {
        return Err(StoreError::Truncated {
            expected: header_len as u64,
            got: bytes.len() as u64,
        });
    }
    if bytes[..8] != magic[..] {
        return Err(StoreError::BadMagic);
    }
    if read_u32(bytes, 12) != ENDIAN_TAG {
        return Err(StoreError::BadEndian);
    }
    let found = read_u32(bytes, 8);
    if found != version {
        return Err(StoreError::BadVersion(found));
    }
    Ok(())
}

/// Seals a whole-file image: its length goes in the `u64` at `len_at`,
/// then the checksum of everything but `checksum` (an 8-byte field) goes
/// in that field. Covering the header means a corrupted date, count or
/// length field is caught as a mismatch, never silently believed.
pub fn seal(buf: &mut [u8], len_at: usize, checksum: Range<usize>) {
    put_u64(buf, len_at, buf.len() as u64);
    let sum = wire::checksum_skipping(buf, checksum.clone());
    put_u64(buf, checksum.start, sum);
}

/// Checks what [`seal`] wrote: the stored length equals the file's
/// length, then the checksum matches. The caller has already checked
/// that the header is present ([`check_prelude`]).
pub fn check_sealed(bytes: &[u8], len_at: usize, checksum: Range<usize>) -> Result<(), StoreError> {
    let expected = read_u64(bytes, len_at);
    if expected != bytes.len() as u64 {
        return Err(StoreError::Truncated {
            expected,
            got: bytes.len() as u64,
        });
    }
    if wire::checksum_skipping(bytes, checksum.clone()) != read_u64(bytes, checksum.start) {
        return Err(StoreError::ChecksumMismatch);
    }
    Ok(())
}

/// Flushes a directory after a rename so the new entry is durable. An
/// empty path — the `parent()` of a bare file name — is the working
/// directory. No-op where directories cannot be opened (non-unix).
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(or_cwd(dir))?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SITES: Sites = Sites {
        write: "durable-test::write",
        sync: "durable-test::sync",
        rename: "durable-test::rename",
        sync_dir: "durable-test::sync-dir",
    };

    fn scratch(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sibling-durable-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sync_dir_treats_an_empty_path_as_the_working_directory() {
        // `Path::new("bare.jrnl").parent()` is `""`: journals opened by
        // a bare file name sync the directory they live in.
        assert_eq!(Path::new("bare.jrnl").parent(), Some(Path::new("")));
        sync_dir(Path::new("")).unwrap();
    }

    #[test]
    fn replace_publishes_whole_files_and_sweep_removes_only_owned_orphans() {
        let dir = scratch("replace");
        let path = dir.join("a.bin");
        assert_eq!(temp_path(&path), dir.join(".a.bin.tmp"));
        std::fs::write(&path, b"old").unwrap();
        let mut replaced = replace(&path, b"new bytes", &TEST_SITES).unwrap();
        replaced.dir_synced.unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new bytes");
        assert!(
            !temp_path(&path).exists(),
            "the temp file became the target"
        );
        // The handed-back file is the published one, open for writing.
        replaced.file.write_all(b"!").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new bytes!");

        // Orphans of owned names go; everything else stays.
        for name in [".a.bin.tmp", ".b.bin.tmp", "a.bin.tmp", ".c.txt.tmp"] {
            std::fs::write(dir.join(name), b"torn").unwrap();
        }
        sweep(&dir, |name| name.ends_with(".bin")).unwrap();
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, [".c.txt.tmp", "a.bin", "a.bin.tmp"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
