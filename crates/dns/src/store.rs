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
//! This module keeps only the `SIBSNAP` encoding and its offsets: files
//! are published atomically, swept, quarantined and header-checked by
//! [`crate::durable`], so a reader never maps a half-written file.

use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sibling_net_types::MonthDate;

use crate::durable::{self, LoadMode, Sites, StoreError};
use crate::name::DomainId;
use crate::snapshot::{DnsSnapshot, ResolvedAddrs};
use crate::source::{AddrEntry, SnapshotSource};
use crate::wire::{self, put_u32, read_u32, read_u64};

const MAGIC: [u8; 8] = *b"SIBSNAP\0";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 64;
const LEN_AT: usize = 48;
const CHECKSUM_RANGE: Range<usize> = 40..48;
/// Failpoint sites of [`SnapshotStore::write`] and, for short reads,
/// of [`SnapshotFile::open_with`].
const SITES: Sites = Sites {
    write: "snapshot-store::write",
    sync: "snapshot-store::sync",
    rename: "snapshot-store::rename",
    sync_dir: "snapshot-store::sync-dir",
};
const OPEN_SITE: &str = "snapshot-store::open";

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
        let (v4_off, end) = section(wire::align16(end), offsets_len)?;
        let (v6_off, end) = section(wire::align16(end), offsets_len)?;
        let (v4, end) = section(wire::align16(end), v4_total.checked_mul(4)?)?;
        let (v6, end) = section(wire::align16(end), v6_total.checked_mul(16)?)?;
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
    durable::put_prelude(&mut buf, &MAGIC, VERSION);
    buf[16..20].copy_from_slice(&wire::encode_date(src.snapshot_date()).to_ne_bytes());
    buf[20..24].copy_from_slice(&(n as u32).to_ne_bytes());
    buf[24..32].copy_from_slice(&v4_total.to_ne_bytes());
    buf[32..40].copy_from_slice(&v6_total.to_ne_bytes());

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

    durable::seal(&mut buf, LEN_AT, CHECKSUM_RANGE);
    Ok(buf)
}

/// Validates a snapshot byte image end to end and returns its date and
/// section layout. Every later view access relies only on invariants
/// established here.
fn validate(bytes: &[u8]) -> Result<(MonthDate, Layout), StoreError> {
    durable::check_prelude(bytes, &MAGIC, VERSION, HEADER_LEN)?;
    let date =
        wire::decode_date(read_u32(bytes, 16)).ok_or(StoreError::Corrupt("date out of range"))?;
    let n = read_u32(bytes, 20) as u64;
    let v4_total = read_u64(bytes, 24);
    let v6_total = read_u64(bytes, 32);
    let layout = Layout::compute(n, v4_total, v6_total)
        .ok_or(StoreError::Corrupt("header counts overflow"))?;
    durable::check_sealed(bytes, LEN_AT, CHECKSUM_RANGE)?;
    if layout.file_len != bytes.len() as u64 {
        return Err(StoreError::Corrupt("sections disagree with file length"));
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
        let map = durable::load(path, mode, OPEN_SITE)?;
        let (date, layout) = validate(map.bytes())?;
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
        durable::sweep(&dir, is_month_file)?;
        Ok(Self { dir })
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
        durable::sweep(&dir, is_month_file)?;
        Ok(Self { dir })
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
            if let Some(date) = name.to_str().and_then(month_of) {
                out.push(date);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Serialises `src` into the store through [`durable::replace`]
    /// (temp file, fsync, rename, directory fsync), returning the final
    /// path. Overwrites an existing month. A crash at any point leaves
    /// either the old file or the new one, never a mix — the worst
    /// residue is an orphaned temp file the next open sweeps.
    pub fn write<S: SnapshotSource + ?Sized>(&self, src: &S) -> Result<PathBuf, StoreError> {
        let bytes = encode_snapshot(src)?;
        let path = self.path_of(src.snapshot_date());
        durable::replace(&path, &bytes, &SITES)?.dir_synced?;
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
        self.load_with(date, mode)
            .map_err(|reason| durable::quarantine(&self.path_of(date), reason))
    }
}

/// The month a store file's name (`snap-YYYY-MM.sibsnap`) claims.
fn month_of(name: &str) -> Option<MonthDate> {
    name.strip_prefix("snap-")?
        .strip_suffix(".sibsnap")?
        .parse()
        .ok()
}

/// Whether `name` names a month file — the targets whose orphaned temp
/// files the store sweeps at open.
fn is_month_file(name: &str) -> bool {
    month_of(name).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SnapshotSource;
    use crate::wire::ENDIAN_TAG;
    use std::io::Write;

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
        let checksum = wire::checksum_skipping(bytes, CHECKSUM_RANGE);
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
