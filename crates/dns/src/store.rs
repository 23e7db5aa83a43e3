//! The zero-copy on-disk snapshot store.
//!
//! Worldgen-derived [`DnsSnapshot`]s are expensive to recompute — every
//! CLI invocation, test and bench used to pay full zone resolution per
//! month before scoring a single prefix. This module turns a snapshot
//! into a **load-once, map-many artifact**: a versioned, checksummed,
//! section-aligned binary file that [`SnapshotFile`] maps back into the
//! process (via the vendored [`mapfile`] wrapper, with a plain-read
//! fallback) and exposes as a borrowing [`SnapshotView`] — no
//! `BTreeMap`, no per-entry allocation, the address arrays are the
//! mapped bytes themselves.
//!
//! # On-disk layout (version 1)
//!
//! All integers are **native-endian** (an endianness tag in the header
//! rejects foreign files — the zero-copy casts require host order); every
//! section starts on a 16-byte boundary so the `u32`/`u128` arrays can be
//! reinterpreted in place:
//!
//! ```text
//! offset   size            field
//! 0        8               magic "SIBSNAP\0"
//! 8        4               version (= 1)
//! 12       4               endianness tag (0x0A0B0C0D, native order)
//! 16       4               date (months since year 0: year*12 + month-1)
//! 20       4               domain count N
//! 24       8               total v4 address count
//! 32       8               total v6 address count
//! 40       8               FNV-1a 64 checksum of the whole file with
//!                          this field skipped (header corruption —
//!                          date, counts, length — is caught too)
//! 48       8               file_len (total file size, truncation check)
//! 56       8               reserved (0)
//! 64       N*4             domain ids, strictly ascending
//! align16  (N+1)*4         v4 offsets (prefix sums into the v4 array)
//! align16  (N+1)*4         v6 offsets (prefix sums into the v6 array)
//! align16  v4_total*4      v4 addresses (per-domain runs, sorted)
//! align16  v6_total*16     v6 addresses (per-domain runs, sorted)
//! ```
//!
//! Domain `i`'s addresses are `v4[v4_off[i]..v4_off[i+1]]` and
//! `v6[v6_off[i]..v6_off[i+1]]`. Every structural invariant the view
//! relies on — sorted domain table, monotone offsets closing exactly on
//! the totals, section lengths consistent with the header counts and the
//! file length — is verified once at load, so view accessors can never
//! panic and corrupt input is always a typed [`StoreError`], never UB
//! (the property and corruption tests below pin this).
//!
//! Files are written to a temp name and `rename`d into place, so a
//! concurrently-opening reader never maps a half-written file.

use std::fmt;
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sibling_net_types::MonthDate;

use crate::name::DomainId;
use crate::snapshot::{DnsSnapshot, ResolvedAddrs};
use crate::source::{AddrEntry, SnapshotSource};
use crate::wire::{self, put_u32, read_u32, read_u64, ENDIAN_TAG};

const MAGIC: [u8; 8] = *b"SIBSNAP\0";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 64;

/// Why a snapshot file failed to write, load, or validate.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(io::Error),
    /// The file does not start with the snapshot magic.
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
    /// A corrupt store file was moved aside (renamed to `*.corrupt`) so
    /// the caller may regenerate into a clean slot. Only raised by the
    /// quarantining open paths ([`SnapshotStore::load_quarantining`] and
    /// the world store's equivalent); the plain loaders keep returning
    /// the underlying corruption error untouched.
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

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            StoreError::BadEndian => write!(f, "snapshot file written on a foreign-endian host"),
            StoreError::BadVersion(v) => write!(f, "unsupported snapshot format version {v}"),
            StoreError::Truncated { expected, got } => {
                write!(
                    f,
                    "snapshot file truncated: {got} bytes, expected {expected}"
                )
            }
            StoreError::ChecksumMismatch => write!(f, "snapshot file checksum mismatch"),
            StoreError::Corrupt(what) => write!(f, "corrupt snapshot file: {what}"),
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

/// The file checksum: FNV-1a 64 over the header with the checksum field
/// skipped, then the payload. Covering the header means a corrupted
/// date/count/length field is caught as [`StoreError::ChecksumMismatch`],
/// not silently attributed to the wrong month or shape.
fn file_checksum(bytes: &[u8]) -> u64 {
    wire::checksum_skipping(bytes, 40..48)
}

fn encode_date(date: MonthDate) -> u32 {
    wire::encode_date(date)
}

fn decode_date(raw: u32) -> Result<MonthDate, StoreError> {
    wire::decode_date(raw).ok_or(StoreError::Corrupt("date out of range"))
}

fn align16(offset: u64) -> u64 {
    wire::align16(offset)
}

/// Byte ranges of the five sections, derived purely from the header
/// counts (the layout is canonical — nothing else is stored).
#[derive(Debug, Clone)]
struct Layout {
    domains: Range<usize>,
    v4_off: Range<usize>,
    v6_off: Range<usize>,
    v4: Range<usize>,
    v6: Range<usize>,
    file_len: u64,
}

impl Layout {
    /// Computes the layout, or `None` on arithmetic overflow (absurd
    /// counts in a corrupt header must not panic).
    fn compute(domains: u64, v4_total: u64, v6_total: u64) -> Option<Layout> {
        let section = |start: u64, len: u64| -> Option<(Range<usize>, u64)> {
            let end = start.checked_add(len)?;
            let range = usize::try_from(start).ok()?..usize::try_from(end).ok()?;
            Some((range, end))
        };
        let (domains_r, end) = section(HEADER_LEN as u64, domains.checked_mul(4)?)?;
        let offsets_len = domains.checked_add(1)?.checked_mul(4)?;
        let (v4_off, end) = section(align16(end), offsets_len)?;
        let (v6_off, end) = section(align16(end), offsets_len)?;
        let (v4, end) = section(align16(end), v4_total.checked_mul(4)?)?;
        let (v6, end) = section(align16(end), v6_total.checked_mul(16)?)?;
        Some(Layout {
            domains: domains_r,
            v4_off,
            v6_off,
            v4,
            v6,
            file_len: end,
        })
    }
}

/// Serialises a snapshot source into the version-1 byte format.
pub fn encode_snapshot<S: SnapshotSource + ?Sized>(src: &S) -> Result<Vec<u8>, StoreError> {
    let n = src.domain_count() as u64;
    let mut v4_total = 0u64;
    let mut v6_total = 0u64;
    for (_, v4, v6) in src.addr_entries() {
        v4_total += v4.len() as u64;
        v6_total += v6.len() as u64;
    }
    if v4_total > u32::MAX as u64 || v6_total > u32::MAX as u64 {
        return Err(StoreError::Corrupt("address count exceeds u32 offsets"));
    }
    let layout = Layout::compute(n, v4_total, v6_total)
        .ok_or(StoreError::Corrupt("snapshot too large to lay out"))?;
    let file_len =
        usize::try_from(layout.file_len).map_err(|_| StoreError::Corrupt("snapshot too large"))?;

    let mut buf = vec![0u8; file_len];
    buf[0..8].copy_from_slice(&MAGIC);
    buf[8..12].copy_from_slice(&VERSION.to_ne_bytes());
    buf[12..16].copy_from_slice(&ENDIAN_TAG.to_ne_bytes());
    buf[16..20].copy_from_slice(&encode_date(src.snapshot_date()).to_ne_bytes());
    buf[20..24].copy_from_slice(&(n as u32).to_ne_bytes());
    buf[24..32].copy_from_slice(&v4_total.to_ne_bytes());
    buf[32..40].copy_from_slice(&v6_total.to_ne_bytes());
    // checksum patched below
    buf[48..56].copy_from_slice(&layout.file_len.to_ne_bytes());

    let mut prev_domain: Option<u32> = None;
    let mut v4_cursor = 0u32;
    let mut v6_cursor = 0u32;
    for (i, (domain, v4, v6)) in src.addr_entries().enumerate() {
        if prev_domain.is_some_and(|p| p >= domain.0) {
            return Err(StoreError::Corrupt("source entries not strictly ascending"));
        }
        prev_domain = Some(domain.0);
        put_u32(&mut buf, layout.domains.start + i * 4, domain.0);
        put_u32(&mut buf, layout.v4_off.start + i * 4, v4_cursor);
        put_u32(&mut buf, layout.v6_off.start + i * 4, v6_cursor);
        for (k, &addr) in v4.iter().enumerate() {
            put_u32(
                &mut buf,
                layout.v4.start + (v4_cursor as usize + k) * 4,
                addr,
            );
        }
        for (k, &addr) in v6.iter().enumerate() {
            let at = layout.v6.start + (v6_cursor as usize + k) * 16;
            buf[at..at + 16].copy_from_slice(&addr.to_ne_bytes());
        }
        v4_cursor += v4.len() as u32;
        v6_cursor += v6.len() as u32;
    }
    put_u32(&mut buf, layout.v4_off.start + n as usize * 4, v4_cursor);
    put_u32(&mut buf, layout.v6_off.start + n as usize * 4, v6_cursor);

    let checksum = file_checksum(&buf);
    buf[40..48].copy_from_slice(&checksum.to_ne_bytes());
    Ok(buf)
}

/// Validates a snapshot byte image end to end and returns its date and
/// section layout. Every later view access relies only on invariants
/// established here.
fn validate(bytes: &[u8]) -> Result<(MonthDate, Layout), StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            expected: HEADER_LEN as u64,
            got: bytes.len() as u64,
        });
    }
    if bytes[0..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    if read_u32(bytes, 12) != ENDIAN_TAG {
        return Err(StoreError::BadEndian);
    }
    let version = read_u32(bytes, 8);
    if version != VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let date = decode_date(read_u32(bytes, 16))?;
    let n = read_u32(bytes, 20) as u64;
    let v4_total = read_u64(bytes, 24);
    let v6_total = read_u64(bytes, 32);
    let checksum = read_u64(bytes, 40);
    let file_len = read_u64(bytes, 48);
    if file_len != bytes.len() as u64 {
        return Err(StoreError::Truncated {
            expected: file_len,
            got: bytes.len() as u64,
        });
    }
    let layout = Layout::compute(n, v4_total, v6_total)
        .ok_or(StoreError::Corrupt("header counts overflow"))?;
    if layout.file_len != bytes.len() as u64 {
        return Err(StoreError::Corrupt("sections disagree with file length"));
    }
    if file_checksum(bytes) != checksum {
        return Err(StoreError::ChecksumMismatch);
    }
    // Structural invariants the view's accessors assume.
    let domains = section_u32s(bytes, &layout.domains)?;
    if !domains.windows(2).all(|w| w[0] < w[1]) {
        return Err(StoreError::Corrupt("domain table not strictly ascending"));
    }
    let v4_off = section_u32s(bytes, &layout.v4_off)?;
    let v6_off = section_u32s(bytes, &layout.v6_off)?;
    for (offsets, total, bad) in [
        (v4_off, v4_total, "v4 offsets not a closed prefix sum"),
        (v6_off, v6_total, "v6 offsets not a closed prefix sum"),
    ] {
        let monotone = offsets.windows(2).all(|w| w[0] <= w[1]);
        let closed = offsets.first().copied() == Some(0)
            && offsets.last().copied().map(u64::from) == Some(total);
        if !(monotone && closed) {
            return Err(StoreError::Corrupt(bad));
        }
    }
    Ok((date, layout))
}

fn section_u32s<'a>(bytes: &'a [u8], range: &Range<usize>) -> Result<&'a [u32], StoreError> {
    mapfile::as_u32s(&bytes[range.clone()]).ok_or(StoreError::Corrupt("misaligned u32 section"))
}

fn section_u128s<'a>(bytes: &'a [u8], range: &Range<usize>) -> Result<&'a [u128], StoreError> {
    mapfile::as_u128s(&bytes[range.clone()]).ok_or(StoreError::Corrupt("misaligned u128 section"))
}

/// A borrowing, zero-copy view of one stored snapshot: the domain table
/// and address arrays are slices straight into the mapped file bytes.
///
/// Implements [`SnapshotSource`], so index building and snapshot diffing
/// consume it directly — an owned [`DnsSnapshot`] is never materialized
/// unless [`SnapshotView::to_snapshot`] is called explicitly.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    date: MonthDate,
    domains: &'a [u32],
    v4_off: &'a [u32],
    v6_off: &'a [u32],
    v4: &'a [u32],
    v6: &'a [u128],
}

impl<'a> SnapshotView<'a> {
    /// Parses and validates a snapshot byte image (e.g. a mapped file).
    pub fn parse(bytes: &'a [u8]) -> Result<Self, StoreError> {
        let (date, layout) = validate(bytes)?;
        Self::from_validated(bytes, date, &layout)
    }

    /// Builds the view over an image `validate` already accepted.
    fn from_validated(
        bytes: &'a [u8],
        date: MonthDate,
        layout: &Layout,
    ) -> Result<Self, StoreError> {
        Ok(Self {
            date,
            domains: section_u32s(bytes, &layout.domains)?,
            v4_off: section_u32s(bytes, &layout.v4_off)?,
            v6_off: section_u32s(bytes, &layout.v6_off)?,
            v4: section_u32s(bytes, &layout.v4)?,
            v6: section_u128s(bytes, &layout.v6)?,
        })
    }

    /// The snapshot's month.
    pub fn date(&self) -> MonthDate {
        self.date
    }

    /// Total number of resolved domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Whether the snapshot holds no domains.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    fn entry_at(&self, i: usize) -> AddrEntry<'a> {
        // In-bounds and monotone by the load-time validation: offset
        // tables have `domains.len() + 1` entries closing on the totals.
        let v4 = &self.v4[self.v4_off[i] as usize..self.v4_off[i + 1] as usize];
        let v6 = &self.v6[self.v6_off[i] as usize..self.v6_off[i + 1] as usize];
        (DomainId(self.domains[i]), v4, v6)
    }

    /// The addresses of `domain`, if present.
    pub fn get(&self, domain: DomainId) -> Option<(&'a [u32], &'a [u128])> {
        let i = self.domains.binary_search(&domain.0).ok()?;
        let (_, v4, v6) = self.entry_at(i);
        Some((v4, v6))
    }

    /// All entries in ascending domain-id order.
    pub fn iter(&self) -> impl Iterator<Item = AddrEntry<'a>> + '_ {
        (0..self.domains.len()).map(|i| self.entry_at(i))
    }

    /// Dual-stack entries only.
    pub fn ds_iter(&self) -> impl Iterator<Item = AddrEntry<'a>> + '_ {
        self.iter()
            .filter(|(_, v4, v6)| !v4.is_empty() && !v6.is_empty())
    }

    /// Materialises an owned [`DnsSnapshot`] (for callers that need the
    /// mutable BTreeMap form — the pipeline itself does not).
    pub fn to_snapshot(&self) -> DnsSnapshot {
        let mut snap = DnsSnapshot::new(self.date);
        for (domain, v4, v6) in self.iter() {
            snap.insert(
                domain,
                ResolvedAddrs {
                    v4: v4.to_vec(),
                    v6: v6.to_vec(),
                },
            );
        }
        snap
    }
}

impl SnapshotSource for SnapshotView<'_> {
    fn snapshot_date(&self) -> MonthDate {
        self.date
    }

    fn domain_count(&self) -> usize {
        self.domains.len()
    }

    fn addr_entries(&self) -> impl Iterator<Item = AddrEntry<'_>> + '_ {
        self.iter()
    }
}

/// How [`SnapshotFile::open_with`] should back the bytes.
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
    /// Parses a user-facing mode name (`mmap` or `read`) — the one
    /// selection helper the CLI's `--load-mode` flag and the bench
    /// suite's `SIBLING_BENCH_LOAD_MODE` override share.
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

impl std::str::FromStr for LoadMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        LoadMode::parse(s)
    }
}

/// One loaded snapshot file: owns the mapping (or heap buffer) and the
/// validated layout, and hands out [`SnapshotView`]s borrowing from it.
///
/// Cheap to share as `Arc<SnapshotFile>`, which implements
/// [`SnapshotSource`] via the blanket impl — the engine's window driver
/// takes these as its zero-copy snapshot handles.
#[derive(Debug)]
pub struct SnapshotFile {
    map: mapfile::MapFile,
    date: MonthDate,
    layout: Layout,
}

impl SnapshotFile {
    /// Opens and fully validates `path` via mmap (with read fallback).
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Self::open_with(path, LoadMode::Mmap)
    }

    /// Opens and fully validates `path` with an explicit backing mode.
    pub fn open_with(path: &Path, mode: LoadMode) -> Result<Self, StoreError> {
        let map = match mode {
            LoadMode::Mmap => mapfile::MapFile::open(path)?,
            LoadMode::Read => mapfile::MapFile::read(path)?,
        };
        // Failpoint: a short read surfaces as the same truncation error a
        // really-truncated file would produce.
        let visible = match sibling_failpoint::io_point("snapshot-store::open")? {
            Some(n) => &map.bytes()[..n.min(map.len())],
            None => map.bytes(),
        };
        let (date, layout) = validate(visible)?;
        Ok(Self { map, date, layout })
    }

    /// The snapshot's month.
    pub fn date(&self) -> MonthDate {
        self.date
    }

    /// Total number of resolved domains.
    pub fn domain_count(&self) -> usize {
        self.layout.domains.len() / 4
    }

    /// Which backing holds the bytes (mmap or heap fallback).
    pub fn backing(&self) -> mapfile::Backing {
        self.map.backing()
    }

    /// File size in bytes.
    pub fn byte_len(&self) -> usize {
        self.map.len()
    }

    /// A zero-copy view borrowing this file's bytes.
    pub fn view(&self) -> SnapshotView<'_> {
        // The layout was validated at open and the bytes are immutable,
        // so re-slicing cannot fail.
        SnapshotView::from_validated(self.map.bytes(), self.date, &self.layout)
            .expect("layout validated at open")
    }
}

impl SnapshotSource for SnapshotFile {
    fn snapshot_date(&self) -> MonthDate {
        self.date
    }

    fn domain_count(&self) -> usize {
        SnapshotFile::domain_count(self)
    }

    fn addr_entries(&self) -> impl Iterator<Item = AddrEntry<'_>> + '_ {
        let view = self.view();
        (0..view.domain_count()).map(move |i| view.entry_at(i))
    }
}

/// A directory of per-month snapshot files (`snap-YYYY-MM.sibsnap`).
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens `dir` as a store, creating the directory if needed. Sweeps
    /// orphaned temp files from interrupted writes.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = Self { dir };
        store.sweep_orphans()?;
        Ok(store)
    }

    /// Opens an existing store directory. Sweeps orphaned temp files
    /// from interrupted writes.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        if !dir.is_dir() {
            return Err(StoreError::Io(io::Error::new(
                io::ErrorKind::NotFound,
                format!("snapshot store directory {} not found", dir.display()),
            )));
        }
        let store = Self { dir };
        store.sweep_orphans()?;
        Ok(store)
    }

    /// Removes orphaned `.snap-*.sibsnap.tmp` files left behind by an
    /// interrupted [`SnapshotStore::write`] (the crash window is between
    /// temp-file creation and rename). Returns the removed paths. Called
    /// at every store open, so torn writes never accumulate and can
    /// never be mistaken for live data — temp names are hidden and never
    /// parsed by [`SnapshotStore::dates`], so this is pure hygiene.
    pub fn sweep_orphans(&self) -> Result<Vec<PathBuf>, StoreError> {
        let mut removed = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(".snap-") && name.ends_with(".sibsnap.tmp") {
                std::fs::remove_file(entry.path())?;
                removed.push(entry.path());
            }
        }
        Ok(removed)
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path a month is stored at.
    pub fn path_of(&self, date: MonthDate) -> PathBuf {
        self.dir.join(format!("snap-{date}.sibsnap"))
    }

    /// Whether a snapshot for `date` is present.
    pub fn contains(&self, date: MonthDate) -> bool {
        self.path_of(date).is_file()
    }

    /// The months present in the store, ascending.
    pub fn dates(&self) -> Result<Vec<MonthDate>, StoreError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(date) = name
                .strip_prefix("snap-")
                .and_then(|rest| rest.strip_suffix(".sibsnap"))
            {
                if let Ok(date) = date.parse::<MonthDate>() {
                    out.push(date);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Serialises `src` into the store (atomically: temp file, fsync,
    /// rename, directory fsync), returning the final path. Overwrites an
    /// existing month. A crash at any point leaves either the old file
    /// or the new one, never a mix — the worst residue is an orphaned
    /// temp file the next open sweeps.
    pub fn write<S: SnapshotSource + ?Sized>(&self, src: &S) -> Result<PathBuf, StoreError> {
        let bytes = encode_snapshot(src)?;
        let path = self.path_of(src.snapshot_date());
        let tmp = self
            .dir
            .join(format!(".snap-{}.sibsnap.tmp", src.snapshot_date()));
        {
            let mut file = std::fs::File::create(&tmp)?;
            // Failpoint: a torn write persists a prefix of the image and
            // fails, leaving the orphaned temp file for the sweep.
            match sibling_failpoint::io_point("snapshot-store::write") {
                Ok(None) => file.write_all(&bytes)?,
                Ok(Some(n)) => {
                    file.write_all(&bytes[..n.min(bytes.len())])?;
                    file.sync_all()?;
                    return Err(sibling_failpoint::injected("snapshot-store::write").into());
                }
                Err(e) => return Err(e.into()),
            }
            sibling_failpoint::io_point("snapshot-store::sync")?;
            file.sync_all()?;
        }
        if sibling_failpoint::point("snapshot-store::rename") {
            return Err(sibling_failpoint::injected("snapshot-store::rename").into());
        }
        std::fs::rename(&tmp, &path)?;
        sync_dir(&self.dir)?;
        Ok(path)
    }

    /// Loads (and fully validates) the snapshot for `date` via mmap.
    pub fn load(&self, date: MonthDate) -> Result<Arc<SnapshotFile>, StoreError> {
        self.load_with(date, LoadMode::Mmap)
    }

    /// [`SnapshotStore::load`] with an explicit backing mode.
    pub fn load_with(
        &self,
        date: MonthDate,
        mode: LoadMode,
    ) -> Result<Arc<SnapshotFile>, StoreError> {
        let path = self.path_of(date);
        if !path.is_file() {
            return Err(StoreError::Missing(date));
        }
        let file = SnapshotFile::open_with(&path, mode)?;
        // A renamed/miscopied file must not be attributed to the month
        // its name claims — the engine's delta walk relies on dates.
        if file.date() != date {
            return Err(StoreError::DateMismatch {
                expected: date,
                found: file.date(),
            });
        }
        Ok(Arc::new(file))
    }

    /// [`SnapshotStore::load_with`], but a month whose file fails
    /// validation is **quarantined**: renamed to `snap-YYYY-MM.sibsnap.corrupt`
    /// and reported as [`StoreError::Quarantined`], leaving the month's
    /// slot clean for regeneration. Environmental errors (I/O, missing
    /// months) pass through unchanged.
    pub fn load_quarantining(
        &self,
        date: MonthDate,
        mode: LoadMode,
    ) -> Result<Arc<SnapshotFile>, StoreError> {
        match self.load_with(date, mode) {
            Err(reason) if reason.is_corruption() => {
                let path = self.path_of(date);
                let mut quarantined = path.clone().into_os_string();
                quarantined.push(".corrupt");
                let quarantined = PathBuf::from(quarantined);
                // Best-effort: if the rename itself fails, the caller's
                // regeneration still lands atomically over the bad file.
                let _ = std::fs::rename(&path, &quarantined);
                Err(StoreError::Quarantined {
                    path: quarantined,
                    reason: Box::new(reason),
                })
            }
            other => other,
        }
    }
}

/// Flushes a directory after a rename so the new directory entry is
/// durable, completing the fsync → rename → dir-fsync sequence the
/// atomic store writes rely on. An empty path — the `parent()` of a
/// bare file name — is the working directory. No-op where directories
/// cannot be opened (non-unix).
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        std::fs::File::open(dir)?.sync_all()
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
    use crate::source::SnapshotSource;

    fn d(i: u32) -> DomainId {
        DomainId(i)
    }

    const A4: u32 = 0x0808_0808;
    const B4: u32 = 0xCB00_7101;
    const A6: u128 = 0x2001_4860_4860_0000_0000_0000_0000_8888;

    /// A unique scratch directory per test (removed best-effort).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(label: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("sibsnap-store-{}-{label}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn sample_snapshot(date: MonthDate) -> DnsSnapshot {
        let mut snap = DnsSnapshot::new(date);
        snap.merge(d(0), vec![A4, B4], vec![A6]);
        snap.merge(d(3), vec![], vec![A6 + 1, A6 + 2]);
        snap.merge(d(7), vec![B4 + 9], vec![]);
        snap.merge(d(8), vec![A4 + 1], vec![A6 + 3]);
        snap
    }

    /// Flips payload bytes and re-seals the checksum, so structural
    /// validation (not the checksum) is what rejects the file.
    fn reseal(bytes: &mut [u8]) {
        let checksum = file_checksum(bytes);
        bytes[40..48].copy_from_slice(&checksum.to_ne_bytes());
    }

    fn write_file(dir: &Path, name: &str, bytes: &[u8]) -> PathBuf {
        let path = dir.join(name);
        std::fs::File::create(&path)
            .unwrap()
            .write_all(bytes)
            .unwrap();
        path
    }

    #[test]
    fn sync_dir_treats_an_empty_path_as_the_working_directory() {
        // `Path::new("bare.jrnl").parent()` is `""`: journals opened by
        // a bare file name sync the directory they live in.
        assert_eq!(Path::new("bare.jrnl").parent(), Some(Path::new("")));
        sync_dir(Path::new("")).unwrap();
    }

    #[test]
    fn round_trip_through_mmap_and_read() {
        let scratch = Scratch::new("roundtrip");
        let date = MonthDate::new(2024, 9);
        let snap = sample_snapshot(date);
        let store = SnapshotStore::create(scratch.path()).unwrap();
        store.write(&snap).unwrap();
        for mode in [LoadMode::Mmap, LoadMode::Read] {
            let file = store.load_with(date, mode).unwrap();
            assert_eq!(file.date(), date);
            assert_eq!(file.domain_count(), snap.domain_count());
            let view = file.view();
            assert_eq!(view.to_snapshot(), snap);
            // Zero-copy accessors agree with the owned snapshot.
            let (v4, v6) = view.get(d(0)).unwrap();
            assert_eq!(v4, &[A4, B4]);
            assert_eq!(v6, &[A6]);
            assert!(view.get(d(1)).is_none());
            assert_eq!(view.ds_iter().count(), 2);
            assert_eq!(view.iter().count(), 4);
        }
        let mapped = store.load(date).unwrap();
        #[cfg(unix)]
        assert_eq!(mapped.backing(), mapfile::Backing::Mmap);
        assert_eq!(
            store.load_with(date, LoadMode::Read).unwrap().backing(),
            mapfile::Backing::Heap
        );
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let scratch = Scratch::new("empty");
        let date = MonthDate::new(2020, 1);
        let snap = DnsSnapshot::new(date);
        let store = SnapshotStore::create(scratch.path()).unwrap();
        store.write(&snap).unwrap();
        let file = store.load(date).unwrap();
        assert_eq!(file.domain_count(), 0);
        assert!(file.view().is_empty());
        assert_eq!(file.view().to_snapshot(), snap);
    }

    #[test]
    fn store_dates_and_missing() {
        let scratch = Scratch::new("dates");
        let store = SnapshotStore::create(scratch.path()).unwrap();
        let months = [
            MonthDate::new(2024, 9),
            MonthDate::new(2024, 7),
            MonthDate::new(2024, 8),
        ];
        for &m in &months {
            store.write(&sample_snapshot(m)).unwrap();
        }
        assert_eq!(
            store.dates().unwrap(),
            vec![
                MonthDate::new(2024, 7),
                MonthDate::new(2024, 8),
                MonthDate::new(2024, 9)
            ]
        );
        assert!(store.contains(MonthDate::new(2024, 8)));
        assert!(!store.contains(MonthDate::new(2023, 8)));
        assert!(matches!(
            store.load(MonthDate::new(2023, 8)),
            Err(StoreError::Missing(_))
        ));
        assert!(matches!(
            SnapshotStore::open(scratch.path().join("nope")),
            Err(StoreError::Io(_))
        ));
    }

    #[test]
    fn view_feeds_diff_without_materializing() {
        let scratch = Scratch::new("diff");
        let a = sample_snapshot(MonthDate::new(2024, 8));
        let mut b = sample_snapshot(MonthDate::new(2024, 9));
        b.remove(d(7));
        b.merge(d(9), vec![B4], vec![A6 + 9]);
        let store = SnapshotStore::create(scratch.path()).unwrap();
        store.write(&a).unwrap();
        store.write(&b).unwrap();
        let fa = store.load(a.date()).unwrap();
        let fb = store.load(b.date()).unwrap();
        let from_views = crate::SnapshotDelta::diff_sources(&fa.view(), &fb.view());
        let from_snaps = crate::SnapshotDelta::diff(&a, &b);
        assert_eq!(from_views, from_snaps);
        assert_eq!(from_views.apply(&a), b);
    }

    #[test]
    fn truncated_file_errors() {
        let scratch = Scratch::new("truncated");
        let bytes = encode_snapshot(&sample_snapshot(MonthDate::new(2024, 9))).unwrap();
        // Cut mid-section and mid-header.
        for cut in [bytes.len() - 1, bytes.len() / 2, HEADER_LEN, 10, 0] {
            let path = write_file(scratch.path(), "cut.sibsnap", &bytes[..cut]);
            let err = SnapshotFile::open(&path).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_errors() {
        let scratch = Scratch::new("magic");
        let mut bytes = encode_snapshot(&sample_snapshot(MonthDate::new(2024, 9))).unwrap();
        bytes[0] ^= 0xFF;
        let path = write_file(scratch.path(), "magic.sibsnap", &bytes);
        assert!(matches!(
            SnapshotFile::open(&path).unwrap_err(),
            StoreError::BadMagic
        ));
    }

    #[test]
    fn wrong_version_errors() {
        let scratch = Scratch::new("version");
        let mut bytes = encode_snapshot(&sample_snapshot(MonthDate::new(2024, 9))).unwrap();
        bytes[8..12].copy_from_slice(&2u32.to_ne_bytes());
        let path = write_file(scratch.path(), "version.sibsnap", &bytes);
        assert!(matches!(
            SnapshotFile::open(&path).unwrap_err(),
            StoreError::BadVersion(2)
        ));
    }

    #[test]
    fn foreign_endianness_errors() {
        let scratch = Scratch::new("endian");
        let mut bytes = encode_snapshot(&sample_snapshot(MonthDate::new(2024, 9))).unwrap();
        let tag = ENDIAN_TAG.swap_bytes();
        bytes[12..16].copy_from_slice(&tag.to_ne_bytes());
        let path = write_file(scratch.path(), "endian.sibsnap", &bytes);
        assert!(matches!(
            SnapshotFile::open(&path).unwrap_err(),
            StoreError::BadEndian
        ));
    }

    #[test]
    fn checksum_mismatch_errors() {
        let scratch = Scratch::new("checksum");
        let mut bytes = encode_snapshot(&sample_snapshot(MonthDate::new(2024, 9))).unwrap();
        // Flip one payload byte without resealing.
        let at = HEADER_LEN + 5;
        bytes[at] ^= 0x01;
        let path = write_file(scratch.path(), "sum.sibsnap", &bytes);
        assert!(matches!(
            SnapshotFile::open(&path).unwrap_err(),
            StoreError::ChecksumMismatch
        ));
    }

    #[test]
    fn renamed_file_reports_date_mismatch() {
        let scratch = Scratch::new("rename");
        let store = SnapshotStore::create(scratch.path()).unwrap();
        let real = MonthDate::new(2024, 8);
        let claimed = MonthDate::new(2024, 9);
        store.write(&sample_snapshot(real)).unwrap();
        std::fs::copy(store.path_of(real), store.path_of(claimed)).unwrap();
        assert_eq!(store.load(real).unwrap().date(), real);
        assert!(matches!(
            store.load(claimed).unwrap_err(),
            StoreError::DateMismatch { expected, found }
                if expected == claimed && found == real
        ));
    }

    #[test]
    fn header_date_corruption_fails_the_checksum() {
        // Flipping the date to another *valid* month without resealing
        // must be caught — the checksum covers the header.
        let scratch = Scratch::new("header-date");
        let mut bytes = encode_snapshot(&sample_snapshot(MonthDate::new(2024, 9))).unwrap();
        let cur = read_u32(&bytes, 16);
        bytes[16..20].copy_from_slice(&(cur - 1).to_ne_bytes());
        let path = write_file(scratch.path(), "redate.sibsnap", &bytes);
        assert!(matches!(
            SnapshotFile::open(&path).unwrap_err(),
            StoreError::ChecksumMismatch
        ));
    }

    #[test]
    fn structural_corruption_errors_not_panics() {
        let scratch = Scratch::new("structure");
        let snap = sample_snapshot(MonthDate::new(2024, 9));
        let bytes = encode_snapshot(&snap).unwrap();

        // Unsorted domain table (swap the first two ids).
        let mut unsorted = bytes.clone();
        let (a, b) = (HEADER_LEN, HEADER_LEN + 4);
        let first: [u8; 4] = unsorted[a..a + 4].try_into().unwrap();
        let second: [u8; 4] = unsorted[b..b + 4].try_into().unwrap();
        unsorted[a..a + 4].copy_from_slice(&second);
        unsorted[b..b + 4].copy_from_slice(&first);
        reseal(&mut unsorted);
        let path = write_file(scratch.path(), "unsorted.sibsnap", &unsorted);
        assert!(matches!(
            SnapshotFile::open(&path).unwrap_err(),
            StoreError::Corrupt("domain table not strictly ascending")
        ));

        // Offsets that do not close on the totals: bump the final v4
        // prefix sum. The layout is re-derived from the header counts,
        // exactly as the loader does.
        let n = snap.domain_count() as u64;
        let layout = Layout::compute(n, read_u64(&bytes, 24), read_u64(&bytes, 32)).unwrap();
        let last_off = layout.v4_off.end - 4;
        let mut open = bytes.clone();
        let cur = read_u32(&open, last_off);
        open[last_off..last_off + 4].copy_from_slice(&(cur + 1).to_ne_bytes());
        reseal(&mut open);
        let path = write_file(scratch.path(), "open.sibsnap", &open);
        assert!(matches!(
            SnapshotFile::open(&path).unwrap_err(),
            StoreError::Corrupt("v4 offsets not a closed prefix sum")
        ));

        // Absurd counts in the header (overflow the layout arithmetic).
        let mut absurd = bytes.clone();
        absurd[24..32].copy_from_slice(&u64::MAX.to_ne_bytes());
        let path = write_file(scratch.path(), "absurd.sibsnap", &absurd);
        let err = SnapshotFile::open(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt(_) | StoreError::Truncated { .. }),
            "absurd counts: {err}"
        );

        // Header claiming a longer file than present.
        let mut longer = bytes.clone();
        let claimed = (bytes.len() + 64) as u64;
        longer[48..56].copy_from_slice(&claimed.to_ne_bytes());
        let path = write_file(scratch.path(), "longer.sibsnap", &longer);
        assert!(matches!(
            SnapshotFile::open(&path).unwrap_err(),
            StoreError::Truncated { .. }
        ));

        // Date out of range.
        let mut dated = bytes;
        dated[16..20].copy_from_slice(&u32::MAX.to_ne_bytes());
        let path = write_file(scratch.path(), "dated.sibsnap", &dated);
        assert!(matches!(
            SnapshotFile::open(&path).unwrap_err(),
            StoreError::Corrupt("date out of range")
        ));
    }

    #[test]
    fn garbage_bytes_error_cleanly() {
        let scratch = Scratch::new("garbage");
        // A few deterministic pseudo-random byte soups of various sizes:
        // loading must return an error, never panic.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for (i, len) in [0usize, 7, 63, 64, 200, 4096].into_iter().enumerate() {
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                bytes.push((x >> 56) as u8);
            }
            let path = write_file(scratch.path(), &format!("garbage-{i}.sibsnap"), &bytes);
            assert!(SnapshotFile::open(&path).is_err(), "garbage len {len}");
        }
    }

    /// Property: `write → load (mmap and read) → view` reproduces the
    /// source snapshot exactly across both address families, including
    /// empty families, empty snapshots and duplicate-free sorted runs.
    #[test]
    fn prop_store_round_trip() {
        use proptest::test_runner::TestRunner;
        let scratch = Scratch::new("prop");
        let store = SnapshotStore::create(scratch.path()).unwrap();
        let mut runner = TestRunner::default();
        // Per domain: (id, v4 count 0..3, v6 count 0..3).
        let entry = || (0u32..40, 0u8..3, 0u8..3);
        let strategy = proptest::collection::vec(entry(), 0..32);
        runner
            .run(&strategy, |entries| {
                let date = MonthDate::new(2023, 1 + (entries.len() % 12) as u8);
                let mut snap = DnsSnapshot::new(date);
                for (id, v4, v6) in &entries {
                    let v4: Vec<u32> = (0..*v4).map(|k| A4 + *id * 8 + k as u32).collect();
                    let v6: Vec<u128> = (0..*v6)
                        .map(|k| A6 + (*id as u128) * 8 + k as u128)
                        .collect();
                    snap.merge(d(*id), v4, v6);
                }
                store.write(&snap).unwrap();
                for mode in [LoadMode::Mmap, LoadMode::Read] {
                    let file = store.load_with(date, mode).unwrap();
                    let view = file.view();
                    assert_eq!(view.to_snapshot(), snap, "{mode:?}");
                    // Entry-for-entry equality through the trait too.
                    let a: Vec<(DomainId, Vec<u32>, Vec<u128>)> = view
                        .addr_entries()
                        .map(|(d, v4, v6)| (d, v4.to_vec(), v6.to_vec()))
                        .collect();
                    let b: Vec<(DomainId, Vec<u32>, Vec<u128>)> = snap
                        .addr_entries()
                        .map(|(d, v4, v6)| (d, v4.to_vec(), v6.to_vec()))
                        .collect();
                    assert_eq!(a, b, "{mode:?}");
                }
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn orphaned_tmp_files_are_swept_at_open() {
        let scratch = Scratch::new("sweep");
        let date = MonthDate::new(2024, 2);
        {
            let store = SnapshotStore::create(scratch.path()).unwrap();
            store.write(&sample_snapshot(date)).unwrap();
        }
        let orphan = write_file(scratch.path(), ".snap-2024-03.sibsnap.tmp", b"torn");
        let store = SnapshotStore::open(scratch.path()).unwrap();
        assert!(!orphan.exists(), "open must sweep orphaned temp files");
        // Live data and unrelated files are untouched.
        assert!(store.load(date).is_ok());
        assert_eq!(store.dates().unwrap(), vec![date]);
    }

    #[test]
    fn quarantine_moves_corrupt_files_aside_and_spares_the_rest() {
        let scratch = Scratch::new("quarantine");
        let date = MonthDate::new(2024, 5);
        let store = SnapshotStore::create(scratch.path()).unwrap();
        let path = store.write(&sample_snapshot(date)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 1] ^= 0xFF;
        write_file(scratch.path(), "snap-2024-05.sibsnap", &bytes);
        let quarantined = match store.load_quarantining(date, LoadMode::Mmap) {
            Err(StoreError::Quarantined { path, reason }) => {
                assert!(reason.is_corruption(), "{reason}");
                path
            }
            other => panic!("expected Quarantined, got {other:?}"),
        };
        assert!(quarantined.ends_with("snap-2024-05.sibsnap.corrupt"));
        assert!(quarantined.is_file());
        assert!(!path.exists(), "slot left clean for regeneration");
        // A missing month is environmental, not corruption: no rename.
        assert!(matches!(
            store.load_quarantining(date, LoadMode::Mmap),
            Err(StoreError::Missing(_))
        ));
        // Regenerate into the clean slot; reopen must be clean.
        store.write(&sample_snapshot(date)).unwrap();
        assert!(store.load_quarantining(date, LoadMode::Mmap).is_ok());
    }

    /// Property: wherever a single-byte corruption lands, the month
    /// round-trips through quarantine — corrupt → `.corrupt` rename →
    /// regenerate → clean reopen — in both load modes, and the failure
    /// is always a typed corruption error, never a panic.
    #[test]
    fn prop_quarantine_round_trip_under_random_corruption() {
        use proptest::test_runner::TestRunner;
        let scratch = Scratch::new("prop-quarantine");
        let date = MonthDate::new(2024, 7);
        let store = SnapshotStore::create(scratch.path()).unwrap();
        let pristine = {
            let path = store.write(&sample_snapshot(date)).unwrap();
            std::fs::read(path).unwrap()
        };
        let mut runner = TestRunner::default();
        let strategy = (0usize..pristine.len(), 1u8..=255);
        runner
            .run(&strategy, |(offset, flip)| {
                let mut bytes = pristine.clone();
                bytes[offset] ^= flip;
                write_file(scratch.path(), "snap-2024-07.sibsnap", &bytes);
                for mode in [LoadMode::Mmap, LoadMode::Read] {
                    match store.load_quarantining(date, mode) {
                        Err(StoreError::Quarantined { path, reason }) => {
                            assert!(reason.is_corruption(), "{reason}");
                            assert!(path.is_file());
                            std::fs::remove_file(path).unwrap();
                            // Regenerate; the reopen must be clean.
                            store.write(&sample_snapshot(date)).unwrap();
                            store.load_quarantining(date, mode).unwrap();
                            // Re-corrupt for the second mode's turn.
                            write_file(scratch.path(), "snap-2024-07.sibsnap", &bytes);
                        }
                        // A flip the validators cannot distinguish from an
                        // intact file must still yield a readable view.
                        Ok(file) => drop(file.view().to_snapshot()),
                        Err(other) => panic!("byte {offset} flip {flip:#04x}: {other}"),
                    }
                }
                Ok(())
            })
            .unwrap();
    }
}
