//! Zero-copy world store — the `SIBWORLD` on-disk format.
//!
//! The snapshot store (`SIBSNAP`, in `sibling-dns`) eliminated per-run DNS
//! snapshot regeneration; this crate does the same for everything *else* a
//! window run needs from the generated world: the dated RIB archive
//! (per-month, per-family announce tables), both AS→organization era
//! tables, the hypergiant/CDN list, and the ASdb business-type dataset.
//! With both stores present, `batch --store` runs perform **zero**
//! `World::generate` calls.
//!
//! # File layout
//!
//! One file, `world.sibworld`, beside the snapshot files. A 64-byte header
//! (magic `SIBWORLD`, version, endianness tag, worldgen-config
//! fingerprint, whole-file FNV-1a checksum with its own field skipped,
//! file length, section counts) is followed by 16-byte-aligned sections.
//! Publishing, sweeping, quarantine and the header checks are
//! [`sibling_dns::durable`]'s; this crate keeps only the encoding:
//!
//! ```text
//! months     M × { date, table }           which table serves each month
//! table dir  T × { v4, v6, origins, _ }    per-table record counts
//! era dir    2 × { pairs, orgs }           CAIDA then Chen et al.
//! tables     T × ( RibRecord4[] ∥ RibRecord6[] ∥ u32 origin pool )
//! eras       2 × ( AsnOrgRecord[] ∥ OrgNameRecord[] )
//! hg/cdn     HgRecord[]
//! asdb       AsdbRecord[]
//! names      UTF-8 blob (all org/list names, range-referenced)
//! ```
//!
//! RIB tables are **deduplicated**: months sharing one announce table (the
//! common case — the archive enters one `Arc<Rib>` per churn epoch) share
//! one stored table, referenced by index from the month directory.
//!
//! # Binary search over mmap
//!
//! Announce tables are sorted arrays of the len-first typed records from
//! `sibling-net-types` ([`RibRecord4`]/[`RibRecord6`]): the prefix length
//! precedes the network bits, so raw-field order equals `(length, bits)`
//! order and each length's records form a contiguous, bits-sorted run.
//! [`StoredRib`] resolves an address by walking the present lengths
//! longest-first and binary-searching the masked address inside that
//! length's run — directly over the mapped bytes, no trie, no decode.
//!
//! Every structural invariant the search relies on (strictly sorted keys,
//! canonical prefixes, in-bounds origin ranges, valid UTF-8 name ranges)
//! is validated **once at open**; the record views afterwards are
//! infallible. All `unsafe` stays in the vendored `mapfile` crate — this
//! crate is `forbid(unsafe_code)` and reinterprets bytes only through
//! `mapfile`'s checked casts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mapfile::{record_bytes, MapFile};
use sibling_as_org::{
    AsOrgMap, AsOrgSource, AsdbDataset, BusinessType, HgCdnClass, HgCdnList, MappingEra, OrgId,
};
use sibling_bgp::{Rib, RibArchive, RibSource};
use sibling_dns::durable::{self, Sites};
use sibling_dns::wire::{self, put_u32, put_u64, read_u32, read_u64};
use sibling_dns::{LoadMode, StoreError};
use sibling_net_types::{
    AddressFamily, Asn, Bits, IpFamily, MonthDate, Prefix, RibRecord4, RibRecord6,
};

const MAGIC: &[u8; 8] = b"SIBWORLD";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 64;
/// Byte range of the checksum field within the header (skipped when
/// checksumming).
const CHECKSUM_RANGE: std::ops::Range<usize> = 24..32;
const LEN_AT: usize = 32;
/// Failpoint sites of [`WorldStore::write`] and, for short reads,
/// of [`WorldStore::open_with`].
const SITES: Sites = Sites {
    write: "world-store::write",
    sync: "world-store::sync",
    rename: "world-store::rename",
    sync_dir: "world-store::sync-dir",
};
const OPEN_SITE: &str = "world-store::open";
/// The store file's name inside a store directory.
pub const WORLD_FILE_NAME: &str = "world.sibworld";

mapfile::plain_struct! {
    /// Month directory entry: which stored table serves a month.
    struct MonthRecord {
        date: u32,
        table: u32,
    }
}

mapfile::plain_struct! {
    /// Table directory entry: per-table record counts.
    struct TableDirRecord {
        v4_count: u32,
        v6_count: u32,
        origins_count: u32,
        reserved: u32,
    }
}

mapfile::plain_struct! {
    /// Era directory entry: per-era assignment and org-name counts.
    struct EraDirRecord {
        pair_count: u32,
        org_count: u32,
    }
}

mapfile::plain_struct! {
    /// One AS → organization assignment.
    struct AsnOrgRecord {
        asn: u32,
        org: u32,
    }
}

mapfile::plain_struct! {
    /// One organization display name (range into the names blob).
    struct OrgNameRecord {
        org: u32,
        name_start: u32,
        name_end: u32,
        reserved: u32,
    }
}

mapfile::plain_struct! {
    /// One hypergiant/CDN list entry.
    struct HgRecord {
        name_start: u32,
        name_end: u32,
        class: u32,
        reserved: u32,
    }
}

mapfile::plain_struct! {
    /// One ASdb entry: a bitmask over the 17 business categories.
    struct AsdbRecord {
        asn: u32,
        mask: u32,
    }
}

fn class_code(class: HgCdnClass) -> u32 {
    match class {
        HgCdnClass::Hypergiant => 0,
        HgCdnClass::Cdn => 1,
        HgCdnClass::Both => 2,
        HgCdnClass::Other => 3,
    }
}

fn class_from_code(code: u32) -> Option<HgCdnClass> {
    match code {
        0 => Some(HgCdnClass::Hypergiant),
        1 => Some(HgCdnClass::Cdn),
        2 => Some(HgCdnClass::Both),
        3 => Some(HgCdnClass::Other),
        _ => None,
    }
}

fn business_mask(types: &[BusinessType]) -> u32 {
    let mut mask = 0u32;
    for t in types {
        let pos = BusinessType::ALL
            .iter()
            .position(|c| c == t)
            .expect("ALL lists every category");
        mask |= 1 << pos;
    }
    mask
}

fn business_types(mask: u32) -> Vec<BusinessType> {
    BusinessType::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, t)| *t)
        .collect()
}

/// Deduplicating builder for the shared names blob.
#[derive(Default)]
struct NameBlob {
    bytes: Vec<u8>,
    seen: BTreeMap<String, (u32, u32)>,
}

impl NameBlob {
    fn intern(&mut self, name: &str) -> (u32, u32) {
        if let Some(&range) = self.seen.get(name) {
            return range;
        }
        let start = self.bytes.len() as u32;
        self.bytes.extend_from_slice(name.as_bytes());
        let range = (start, self.bytes.len() as u32);
        self.seen.insert(name.to_string(), range);
        range
    }
}

/// One serialized announce table (both families plus the origin pool).
struct TableImage {
    v4: Vec<RibRecord4>,
    v6: Vec<RibRecord6>,
    origins: Vec<u32>,
}

fn encode_table(rib: &Rib) -> TableImage {
    let mut origins: Vec<u32> = Vec::new();
    let mut push_origins = |asns: &[Asn]| -> std::ops::Range<u32> {
        let start = origins.len() as u32;
        origins.extend(asns.iter().map(|a| a.0));
        start..origins.len() as u32
    };
    let mut v4_prefixes: Vec<_> = rib.prefixes::<u32>().collect();
    v4_prefixes.sort_by_key(|p| (p.len(), p.bits()));
    let v4 = v4_prefixes
        .into_iter()
        .map(|p| {
            let info = rib.origin_of(&p).expect("announced prefix has origins");
            RibRecord4::new(p, push_origins(&info.origins))
        })
        .collect();
    let mut v6_prefixes: Vec<_> = rib.prefixes::<u128>().collect();
    v6_prefixes.sort_by_key(|p| (p.len(), p.bits()));
    let v6 = v6_prefixes
        .into_iter()
        .map(|p| {
            let info = rib.origin_of(&p).expect("announced prefix has origins");
            RibRecord6::new(p, push_origins(&info.origins))
        })
        .collect();
    TableImage { v4, v6, origins }
}

fn pad16(buf: &mut Vec<u8>) {
    while !buf.len().is_multiple_of(wire::ALIGN as usize) {
        buf.push(0);
    }
}

fn append_records<T: mapfile::Plain>(buf: &mut Vec<u8>, records: &[T]) {
    pad16(buf);
    for r in records {
        buf.extend_from_slice(record_bytes(r));
    }
}

/// The world store: writer and opener for `world.sibworld` files.
///
/// A store directory (usually shared with the [`sibling_dns::SnapshotStore`])
/// holds at most one world file; [`WorldStore::exists`] is the auto-detect
/// check `batch --store` uses.
pub struct WorldStore;

impl WorldStore {
    /// The world file's path inside store directory `dir`.
    pub fn path_of(dir: &Path) -> PathBuf {
        dir.join(WORLD_FILE_NAME)
    }

    /// Whether `dir` holds a world file.
    pub fn exists(dir: &Path) -> bool {
        Self::path_of(dir).is_file()
    }

    /// Serializes the world's routing and organization tables into
    /// `dir/world.sibworld`, stamped with `fingerprint` (the worldgen
    /// configuration's [`fingerprint`](#) — the loader refuses files
    /// written under a different configuration).
    ///
    /// Months in `archive` that share one table (`Arc::ptr_eq`) share one
    /// stored table. The write is atomic ([`durable::replace`]): a hidden
    /// temp file is renamed into place, so a concurrent reader never maps
    /// a half-written file.
    pub fn write(
        dir: &Path,
        fingerprint: u64,
        archive: &RibArchive<Arc<Rib>>,
        as_org: &AsOrgSource,
        asdb: &AsdbDataset,
        hg_cdn: &HgCdnList,
    ) -> Result<PathBuf, StoreError> {
        fs::create_dir_all(dir)?;

        // Deduplicate announce tables by identity, preserving first-seen
        // order so equal worlds serialize byte-identically.
        let mut tables: Vec<Arc<Rib>> = Vec::new();
        let mut months: Vec<MonthRecord> = Vec::new();
        for date in archive.dates() {
            let rib = archive.at(date).expect("listed date is present");
            let table = match tables.iter().position(|t| Arc::ptr_eq(t, &rib)) {
                Some(idx) => idx,
                None => {
                    tables.push(rib);
                    tables.len() - 1
                }
            };
            months.push(MonthRecord {
                date: wire::encode_date(date),
                table: table as u32,
            });
        }
        let images: Vec<TableImage> = tables.iter().map(|t| encode_table(t)).collect();

        let mut names = NameBlob::default();
        let mut era_dir: Vec<EraDirRecord> = Vec::new();
        let mut era_pairs: Vec<Vec<AsnOrgRecord>> = Vec::new();
        let mut era_orgs: Vec<Vec<OrgNameRecord>> = Vec::new();
        for era in [MappingEra::Caida, MappingEra::ChenEtAl] {
            let map = as_org.map_for_era(era);
            let pairs: Vec<AsnOrgRecord> = map
                .assignments()
                .map(|(asn, org)| AsnOrgRecord {
                    asn: asn.0,
                    org: org.0,
                })
                .collect();
            let orgs: Vec<OrgNameRecord> = map
                .org_names()
                .map(|(org, name)| {
                    let (name_start, name_end) = names.intern(name);
                    OrgNameRecord {
                        org: org.0,
                        name_start,
                        name_end,
                        reserved: 0,
                    }
                })
                .collect();
            era_dir.push(EraDirRecord {
                pair_count: pairs.len() as u32,
                org_count: orgs.len() as u32,
            });
            era_pairs.push(pairs);
            era_orgs.push(orgs);
        }
        let hg_records: Vec<HgRecord> = hg_cdn
            .entries()
            .map(|(name, class)| {
                let (name_start, name_end) = names.intern(name);
                HgRecord {
                    name_start,
                    name_end,
                    class: class_code(class),
                    reserved: 0,
                }
            })
            .collect();
        let asdb_records: Vec<AsdbRecord> = asdb
            .entries()
            .map(|(asn, types)| AsdbRecord {
                asn: asn.0,
                mask: business_mask(types),
            })
            .collect();

        let mut buf = vec![0u8; HEADER_LEN as usize];
        append_records(&mut buf, &months);
        let table_dir: Vec<TableDirRecord> = images
            .iter()
            .map(|img| TableDirRecord {
                v4_count: img.v4.len() as u32,
                v6_count: img.v6.len() as u32,
                origins_count: img.origins.len() as u32,
                reserved: 0,
            })
            .collect();
        append_records(&mut buf, &table_dir);
        append_records(&mut buf, &era_dir);
        for img in &images {
            append_records(&mut buf, &img.v4);
            append_records(&mut buf, &img.v6);
            append_records(&mut buf, &img.origins);
        }
        for (pairs, orgs) in era_pairs.iter().zip(&era_orgs) {
            append_records(&mut buf, pairs);
            append_records(&mut buf, orgs);
        }
        append_records(&mut buf, &hg_records);
        append_records(&mut buf, &asdb_records);
        pad16(&mut buf);
        buf.extend_from_slice(&names.bytes);

        durable::put_prelude(&mut buf, MAGIC, VERSION);
        put_u64(&mut buf, 16, fingerprint);
        put_u32(&mut buf, 40, months.len() as u32);
        put_u32(&mut buf, 44, images.len() as u32);
        put_u32(&mut buf, 48, hg_records.len() as u32);
        put_u32(&mut buf, 52, asdb_records.len() as u32);
        put_u32(&mut buf, 56, names.bytes.len() as u32);
        durable::seal(&mut buf, LEN_AT, CHECKSUM_RANGE);

        let path = Self::path_of(dir);
        durable::replace(&path, &buf, &SITES)?.dir_synced?;
        Ok(path)
    }

    /// Opens and fully validates `dir/world.sibworld`, mapping the file
    /// read-only (heap-read fallback where mmap is unavailable).
    ///
    /// When `expected_fingerprint` is given, a store written under a
    /// different worldgen configuration is rejected with
    /// [`StoreError::BadFingerprint`].
    pub fn open(dir: &Path, expected_fingerprint: Option<u64>) -> Result<StoredWorld, StoreError> {
        Self::open_with(dir, expected_fingerprint, LoadMode::Mmap)
    }

    /// [`WorldStore::open`] with an explicit backing mode. Sweeps an
    /// orphaned temp file from an interrupted write before mapping.
    pub fn open_with(
        dir: &Path,
        expected_fingerprint: Option<u64>,
        mode: LoadMode,
    ) -> Result<StoredWorld, StoreError> {
        durable::sweep(dir, |name| name == WORLD_FILE_NAME)?;
        let file = durable::load(&Self::path_of(dir), mode, OPEN_SITE)?;
        StoredWorld::from_file(file, expected_fingerprint)
    }

    /// [`WorldStore::open_with`], but a world file that fails validation
    /// is **quarantined**: renamed to `world.sibworld.corrupt` and
    /// reported as [`StoreError::Quarantined`], leaving the slot clean
    /// for regeneration. Environmental errors (I/O) and fingerprint
    /// mismatches (a valid store for a different config) pass through
    /// unchanged.
    pub fn open_quarantining(
        dir: &Path,
        expected_fingerprint: Option<u64>,
        mode: LoadMode,
    ) -> Result<StoredWorld, StoreError> {
        Self::open_with(dir, expected_fingerprint, mode)
            .map_err(|reason| durable::quarantine(&Self::path_of(dir), reason))
    }
}

/// A per-length record run: `records[start..end]` all have prefix length
/// `len`, sorted ascending by network bits. Runs are kept longest-first,
/// the probe order of longest-prefix match.
#[derive(Debug, Clone, Copy)]
struct LenRun {
    len: u8,
    start: usize,
    end: usize,
}

/// Byte offsets and derived search structure of one stored table.
struct TableMeta {
    v4_off: usize,
    v4_len: usize,
    v6_off: usize,
    v6_len: usize,
    v4_runs: Vec<LenRun>,
    v6_runs: Vec<LenRun>,
    v4_count: usize,
    v6_count: usize,
}

/// The validated, shared innards of an open world store.
struct WorldInner {
    file: MapFile,
    fingerprint: u64,
    months: Vec<(MonthDate, u32)>,
    tables: Vec<TableMeta>,
    as_org: AsOrgSource,
    asdb: AsdbDataset,
    hg_cdn: HgCdnList,
}

impl WorldInner {
    fn v4_records(&self, meta: &TableMeta) -> &[RibRecord4] {
        mapfile::as_records(&self.file.bytes()[meta.v4_off..meta.v4_off + meta.v4_len])
            .expect("section alignment validated at open")
    }

    fn v6_records(&self, meta: &TableMeta) -> &[RibRecord6] {
        mapfile::as_records(&self.file.bytes()[meta.v6_off..meta.v6_off + meta.v6_len])
            .expect("section alignment validated at open")
    }
}

/// Incrementing cursor over the validated file's section offsets; the
/// writer's `append_records` and this walk must agree byte-for-byte.
struct SectionWalk<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> SectionWalk<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            off: HEADER_LEN as usize,
        }
    }

    /// The next `count`-record section of type `T`, advancing the cursor.
    fn records<T: mapfile::Plain>(&mut self, count: usize) -> Result<&'a [T], StoreError> {
        let (off, len) = self.raw(count * std::mem::size_of::<T>())?;
        mapfile::as_records(&self.bytes[off..off + len])
            .ok_or(StoreError::Corrupt("misaligned record section"))
    }

    /// The next `len`-byte section, returning its offset.
    fn raw(&mut self, len: usize) -> Result<(usize, usize), StoreError> {
        let off = wire::align16(self.off as u64) as usize;
        let end = off.checked_add(len).ok_or(StoreError::Corrupt(
            "section extends past the addressable range",
        ))?;
        if end > self.bytes.len() {
            return Err(StoreError::Truncated {
                expected: end as u64,
                got: self.bytes.len() as u64,
            });
        }
        self.off = end;
        Ok((off, len))
    }
}

/// Splits a sorted record array into per-length runs (longest first) and
/// verifies strict key order, canonical prefixes, and origin ranges.
fn index_runs<T, K: Ord + Copy>(
    records: &[T],
    origins: &[u32],
    key: impl Fn(&T) -> (u32, K),
    canonical: impl Fn(&T) -> bool,
    origin_range: impl Fn(&T) -> std::ops::Range<usize>,
    max_len: u8,
) -> Result<Vec<LenRun>, StoreError> {
    let mut runs: Vec<LenRun> = Vec::new();
    let mut prev: Option<(u32, K)> = None;
    for (i, rec) in records.iter().enumerate() {
        let k = key(rec);
        if prev.is_some_and(|p| p >= k) {
            return Err(StoreError::Corrupt("announce table keys out of order"));
        }
        prev = Some(k);
        if k.0 > max_len as u32 || !canonical(rec) {
            return Err(StoreError::Corrupt("non-canonical prefix record"));
        }
        let range = origin_range(rec);
        if range.start >= range.end || range.end > origins.len() {
            return Err(StoreError::Corrupt("origin range out of bounds"));
        }
        if origins[range.clone()].windows(2).any(|w| w[0] >= w[1]) {
            return Err(StoreError::Corrupt("origin set not strictly ascending"));
        }
        let len = k.0 as u8;
        match runs.last_mut() {
            Some(run) if run.len == len => run.end = i + 1,
            _ => runs.push(LenRun {
                len,
                start: i,
                end: i + 1,
            }),
        }
    }
    // Keys ascend, so runs were built shortest-first; LPM probes longest
    // lengths first.
    runs.reverse();
    Ok(runs)
}

fn name_slice(blob: &[u8], start: u32, end: u32) -> Result<&str, StoreError> {
    let (start, end) = (start as usize, end as usize);
    if start > end || end > blob.len() {
        return Err(StoreError::Corrupt("name range out of bounds"));
    }
    std::str::from_utf8(&blob[start..end]).map_err(|_| StoreError::Corrupt("name is not UTF-8"))
}

/// An open, validated world store.
///
/// Cheap to clone (one `Arc`); the RIB tables stay in the mapped file and
/// are searched in place, while the small organization tables are
/// materialized once at open.
#[derive(Clone)]
pub struct StoredWorld {
    inner: Arc<WorldInner>,
}

impl StoredWorld {
    fn from_file(file: MapFile, expected_fingerprint: Option<u64>) -> Result<Self, StoreError> {
        let bytes = file.bytes();
        durable::check_prelude(bytes, MAGIC, VERSION, HEADER_LEN as usize)?;
        durable::check_sealed(bytes, LEN_AT, CHECKSUM_RANGE)?;
        let fingerprint = read_u64(bytes, 16);
        if let Some(expected) = expected_fingerprint {
            if fingerprint != expected {
                return Err(StoreError::BadFingerprint {
                    expected,
                    found: fingerprint,
                });
            }
        }
        let month_count = read_u32(bytes, 40) as usize;
        let table_count = read_u32(bytes, 44) as usize;
        let hg_count = read_u32(bytes, 48) as usize;
        let asdb_count = read_u32(bytes, 52) as usize;
        let names_len = read_u32(bytes, 56) as usize;

        let mut walk = SectionWalk::new(bytes);
        let month_records = walk.records::<MonthRecord>(month_count)?;
        let mut months = Vec::with_capacity(month_count);
        for rec in month_records {
            let date = wire::decode_date(rec.date)
                .ok_or(StoreError::Corrupt("month date out of range"))?;
            if months.last().is_some_and(|(prev, _)| *prev >= date) {
                return Err(StoreError::Corrupt("month directory not ascending"));
            }
            if rec.table as usize >= table_count {
                return Err(StoreError::Corrupt("month references a missing table"));
            }
            months.push((date, rec.table));
        }
        let table_dir = walk.records::<TableDirRecord>(table_count)?.to_vec();
        let era_dir = walk.records::<EraDirRecord>(2)?.to_vec();

        let mut tables = Vec::with_capacity(table_count);
        for dir in &table_dir {
            let v4 = walk.records::<RibRecord4>(dir.v4_count as usize)?;
            let (v4_off, v4_len) = (
                walk.off - std::mem::size_of_val(v4),
                std::mem::size_of_val(v4),
            );
            let v6 = walk.records::<RibRecord6>(dir.v6_count as usize)?;
            let (v6_off, v6_len) = (
                walk.off - std::mem::size_of_val(v6),
                std::mem::size_of_val(v6),
            );
            let origins = walk.records::<u32>(dir.origins_count as usize)?;
            let v4_runs = index_runs(
                v4,
                origins,
                |r| r.key(),
                |r| r.prefix().is_some(),
                |r| r.origins(),
                32,
            )?;
            let v6_runs = index_runs(
                v6,
                origins,
                |r| r.key(),
                |r| r.prefix().is_some(),
                |r| r.origins(),
                128,
            )?;
            tables.push(TableMeta {
                v4_off,
                v4_len,
                v6_off,
                v6_len,
                v4_runs,
                v6_runs,
                v4_count: v4.len(),
                v6_count: v6.len(),
            });
        }

        let mut era_sections = Vec::with_capacity(2);
        for dir in &era_dir {
            let pairs = walk.records::<AsnOrgRecord>(dir.pair_count as usize)?;
            if pairs.windows(2).any(|w| w[0].asn >= w[1].asn) {
                return Err(StoreError::Corrupt("era assignments not ascending"));
            }
            let orgs = walk.records::<OrgNameRecord>(dir.org_count as usize)?;
            if orgs.windows(2).any(|w| w[0].org >= w[1].org) {
                return Err(StoreError::Corrupt("era org names not ascending"));
            }
            era_sections.push((pairs, orgs));
        }
        let hg_records = walk.records::<HgRecord>(hg_count)?;
        let asdb_records = walk.records::<AsdbRecord>(asdb_count)?;
        if asdb_records.windows(2).any(|w| w[0].asn >= w[1].asn) {
            return Err(StoreError::Corrupt("asdb entries not ascending"));
        }
        let (names_off, _) = walk.raw(names_len)?;
        if walk.off != bytes.len() {
            return Err(StoreError::Corrupt("trailing bytes after the names blob"));
        }
        let blob = &bytes[names_off..names_off + names_len];

        // Materialize the small organization tables (a few thousand
        // entries); only the RIB tables stay zero-copy.
        let mut era_maps = Vec::with_capacity(2);
        for (pairs, orgs) in &era_sections {
            let mut map = AsOrgMap::new();
            for org in *orgs {
                map.add_org(
                    OrgId(org.org),
                    name_slice(blob, org.name_start, org.name_end)?,
                );
            }
            for pair in *pairs {
                map.assign(Asn(pair.asn), OrgId(pair.org));
            }
            era_maps.push(map);
        }
        let chen = era_maps.pop().expect("two era sections");
        let caida = era_maps.pop().expect("two era sections");
        let mut hg_cdn = HgCdnList::new();
        for rec in hg_records {
            let class =
                class_from_code(rec.class).ok_or(StoreError::Corrupt("unknown hg/cdn class"))?;
            hg_cdn.add(name_slice(blob, rec.name_start, rec.name_end)?, class);
        }
        let mut asdb = AsdbDataset::new();
        for rec in asdb_records {
            if rec.mask == 0 || rec.mask >= 1 << BusinessType::ALL.len() {
                return Err(StoreError::Corrupt("asdb mask out of range"));
            }
            asdb.assign(Asn(rec.asn), business_types(rec.mask));
        }

        Ok(Self {
            inner: Arc::new(WorldInner {
                file,
                fingerprint,
                months,
                tables,
                as_org: AsOrgSource::new(caida, chen),
                asdb,
                hg_cdn,
            }),
        })
    }

    /// The worldgen-config fingerprint the file was written under.
    pub fn fingerprint(&self) -> u64 {
        self.inner.fingerprint
    }

    /// All stored months, ascending.
    pub fn months(&self) -> Vec<MonthDate> {
        self.inner.months.iter().map(|(d, _)| *d).collect()
    }

    /// Whether `date` has a stored table.
    pub fn contains(&self, date: MonthDate) -> bool {
        self.inner
            .months
            .binary_search_by_key(&date, |(d, _)| *d)
            .is_ok()
    }

    /// The dated RIB archive over mmap-backed table handles — the direct
    /// substitute for `World::rib_archive()` in store-backed runs.
    pub fn rib_archive(&self) -> RibArchive<StoredRib> {
        let mut archive = RibArchive::new();
        for &(date, table) in &self.inner.months {
            archive.insert_shared(
                date,
                StoredRib {
                    inner: Arc::clone(&self.inner),
                    table,
                },
            );
        }
        archive
    }

    /// The era-switching AS → organization source.
    pub fn as_org(&self) -> &AsOrgSource {
        &self.inner.as_org
    }

    /// The ASdb business-type dataset.
    pub fn asdb(&self) -> &AsdbDataset {
        &self.inner.asdb
    }

    /// The hypergiant/CDN organization list.
    pub fn hg_cdn(&self) -> &HgCdnList {
        &self.inner.hg_cdn
    }

    /// How the file contents are held (mmap or heap).
    pub fn backing(&self) -> mapfile::Backing {
        self.inner.file.backing()
    }

    /// Total bytes of the underlying file.
    pub fn byte_len(&self) -> usize {
        self.inner.file.len()
    }
}

impl std::fmt::Debug for StoredWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredWorld")
            .field("months", &self.inner.months.len())
            .field("tables", &self.inner.tables.len())
            .field(
                "fingerprint",
                &format_args!("{:#018x}", self.inner.fingerprint),
            )
            .finish()
    }
}

/// One month's announce table, resolved in place over the mapped file.
///
/// Implements [`RibSource`], so the detection engine's window driver runs
/// over stored tables exactly as it does over generated [`Rib`]s. Lookup
/// is longest-prefix match as a per-length binary search: lengths are
/// probed longest-first, and within a length the masked address is
/// binary-searched in that length's bits-sorted record run.
#[derive(Clone)]
pub struct StoredRib {
    inner: Arc<WorldInner>,
    table: u32,
}

impl StoredRib {
    fn meta(&self) -> &TableMeta {
        &self.inner.tables[self.table as usize]
    }

    fn lookup_v4(&self, addr: u32) -> Option<(u8, u32)> {
        let meta = self.meta();
        let records = self.inner.v4_records(meta);
        for run in &meta.v4_runs {
            let masked = addr & u32::prefix_mask(run.len);
            if records[run.start..run.end]
                .binary_search_by(|r| r.bits.cmp(&masked))
                .is_ok()
            {
                return Some((run.len, masked));
            }
        }
        None
    }

    fn lookup_v6(&self, addr: u128) -> Option<(u8, u128)> {
        let meta = self.meta();
        let records = self.inner.v6_records(meta);
        for run in &meta.v6_runs {
            let masked = addr & u128::prefix_mask(run.len);
            if records[run.start..run.end]
                .binary_search_by(|r| r.bits().cmp(&masked))
                .is_ok()
            {
                return Some((run.len, masked));
            }
        }
        None
    }
}

impl RibSource for StoredRib {
    fn announced_prefix<F: AddressFamily>(&self, addr: F) -> Option<Prefix<F>> {
        let (len, bits) = match F::FAMILY {
            IpFamily::V4 => {
                let (len, bits) = self.lookup_v4(addr.to_u128() as u32)?;
                (len, bits as u128)
            }
            IpFamily::V6 => self.lookup_v6(addr.to_u128())?,
        };
        Some(Prefix::new(F::from_u128(bits), len).expect("canonical record validated at open"))
    }

    fn counts(&self) -> (usize, usize) {
        let meta = self.meta();
        (meta.v4_count, meta.v6_count)
    }

    fn same_table(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) && self.table == other.table
    }
}

impl std::fmt::Debug for StoredRib {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (v4, v6) = self.counts();
        f.debug_struct("StoredRib")
            .field("table", &self.table)
            .field("v4", &v4)
            .field("v6", &v6)
            .finish()
    }
}

/// The months of `window` absent from `stored`, as a typed
/// [`StoreError::MissingMonths`] (empty result means all present). One
/// failed `batch --store` run names every gap, not just the first.
pub fn check_months(stored: &StoredWorld, window: &[MonthDate]) -> Result<(), StoreError> {
    let missing: Vec<MonthDate> = window
        .iter()
        .copied()
        .filter(|d| !stored.contains(*d))
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(StoreError::MissingMonths { missing })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibling_net_types::{Ipv4Prefix, Ipv6Prefix};

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sibling-world-store-{}-{name}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn p6(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    fn sample_rib(seed: u32) -> Rib {
        let mut rib = Rib::new();
        rib.announce(p4("23.0.0.0/8"), Asn(100 + seed));
        rib.announce(p4("23.1.0.0/16"), Asn(200));
        rib.announce(p4("23.1.0.0/24"), Asn(300));
        rib.announce(p4("198.51.100.0/24"), Asn(400));
        // MOAS entry: origins must round-trip sorted.
        rib.announce(p4("203.0.113.0/24"), Asn(900));
        rib.announce(p4("203.0.113.0/24"), Asn(500));
        rib.announce(p6("2001:db8::/32"), Asn(100 + seed));
        rib.announce(p6("2001:db8:1::/48"), Asn(200));
        rib.announce(p6("2600:9000::/28"), Asn(16509));
        rib
    }

    fn sample_world() -> (RibArchive<Arc<Rib>>, AsOrgSource, AsdbDataset, HgCdnList) {
        let mut archive = RibArchive::new();
        let shared = Arc::new(sample_rib(0));
        archive.insert_shared(MonthDate::new(2020, 9), shared.clone());
        archive.insert_shared(MonthDate::new(2020, 10), shared);
        archive.insert(MonthDate::new(2020, 11), sample_rib(7));

        let mut caida = AsOrgMap::new();
        caida.add_org(OrgId(0), "ExampleNet");
        caida.add_org(OrgId(1_000_000), "ExampleNet IPv6 Ops");
        caida.assign(Asn(100), OrgId(0));
        caida.assign(Asn(200), OrgId(1_000_000));
        let mut chen = AsOrgMap::new();
        chen.add_org(OrgId(0), "ExampleNet");
        chen.assign(Asn(100), OrgId(0));
        chen.assign(Asn(200), OrgId(0));
        let as_org = AsOrgSource::new(caida, chen);

        let mut asdb = AsdbDataset::new();
        asdb.assign(Asn(100), vec![BusinessType::ComputerAndIt]);
        asdb.assign(
            Asn(200),
            vec![BusinessType::Media, BusinessType::ComputerAndIt],
        );

        (archive, as_org, asdb, HgCdnList::canonical())
    }

    fn write_sample(dir: &Path) -> PathBuf {
        let (archive, as_org, asdb, hg) = sample_world();
        WorldStore::write(dir, 0xDEAD_BEEF, &archive, &as_org, &asdb, &hg).unwrap()
    }

    #[test]
    fn round_trip_matches_generated_tables() {
        let dir = temp_dir("round-trip");
        write_sample(&dir);
        for mode in [LoadMode::Mmap, LoadMode::Read] {
            let world = WorldStore::open_with(&dir, Some(0xDEAD_BEEF), mode).unwrap();
            assert_eq!(world.fingerprint(), 0xDEAD_BEEF);
            assert_eq!(
                world.months(),
                vec![
                    MonthDate::new(2020, 9),
                    MonthDate::new(2020, 10),
                    MonthDate::new(2020, 11)
                ]
            );
            let archive = world.rib_archive();
            let generated = sample_rib(0);
            let stored = archive.at(MonthDate::new(2020, 9)).unwrap();
            // Every announced prefix resolves identically to the trie, for
            // addresses inside each prefix and at both families.
            for addr in [
                u32::from_be_bytes([23, 1, 0, 77]),
                u32::from_be_bytes([23, 1, 9, 1]),
                u32::from_be_bytes([23, 200, 0, 1]),
                u32::from_be_bytes([198, 51, 100, 9]),
                u32::from_be_bytes([203, 0, 113, 3]),
                u32::from_be_bytes([8, 8, 8, 8]),
            ] {
                assert_eq!(
                    stored.announced_prefix(addr),
                    RibSource::announced_prefix(&generated, addr),
                    "v4 addr {addr:#010x}"
                );
            }
            for addr in [
                u128::from("2001:db8:1::1".parse::<std::net::Ipv6Addr>().unwrap()),
                u128::from("2001:db8:2::1".parse::<std::net::Ipv6Addr>().unwrap()),
                u128::from("2600:9000::1".parse::<std::net::Ipv6Addr>().unwrap()),
                u128::from("::1".parse::<std::net::Ipv6Addr>().unwrap()),
            ] {
                assert_eq!(
                    stored.announced_prefix(addr),
                    RibSource::announced_prefix(&generated, addr),
                    "v6 addr {addr:#034x}"
                );
            }
            assert_eq!(stored.counts(), generated.counts());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_tables_dedupe_and_same_table_tracks_identity() {
        let dir = temp_dir("dedupe");
        write_sample(&dir);
        let world = WorldStore::open(&dir, None).unwrap();
        assert_eq!(world.inner.tables.len(), 2, "three months, two tables");
        let archive = world.rib_archive();
        let a = archive.at(MonthDate::new(2020, 9)).unwrap();
        let b = archive.at(MonthDate::new(2020, 10)).unwrap();
        let c = archive.at(MonthDate::new(2020, 11)).unwrap();
        assert!(a.same_table(&b));
        assert!(!a.same_table(&c));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn org_tables_round_trip() {
        let dir = temp_dir("orgs");
        write_sample(&dir);
        let world = WorldStore::open(&dir, None).unwrap();
        let (_, as_org, asdb, hg) = sample_world();
        for era in [MappingEra::Caida, MappingEra::ChenEtAl] {
            let want = as_org.map_for_era(era);
            let got = world.as_org().map_for_era(era);
            assert_eq!(
                got.assignments().collect::<Vec<_>>(),
                want.assignments().collect::<Vec<_>>()
            );
            assert_eq!(
                got.org_names().collect::<Vec<_>>(),
                want.org_names().collect::<Vec<_>>()
            );
        }
        assert_eq!(
            world.asdb().entries().collect::<Vec<_>>(),
            asdb.entries().collect::<Vec<_>>()
        );
        assert_eq!(
            world.hg_cdn().entries().collect::<Vec<_>>(),
            hg.entries().collect::<Vec<_>>()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_fingerprint_is_rejected() {
        let dir = temp_dir("fingerprint");
        write_sample(&dir);
        match WorldStore::open(&dir, Some(1)) {
            Err(StoreError::BadFingerprint { expected, found }) => {
                assert_eq!(expected, 1);
                assert_eq!(found, 0xDEAD_BEEF);
            }
            other => panic!("expected BadFingerprint, got {other:?}"),
        }
        // No expectation: any fingerprint is accepted.
        assert!(WorldStore::open(&dir, None).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_table_is_rejected() {
        let dir = temp_dir("truncated");
        let path = write_sample(&dir);
        let bytes = fs::read(&path).unwrap();
        // Cut mid-table; the header still claims the full length.
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            WorldStore::open(&dir, None),
            Err(StoreError::Truncated { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsorted_keys_are_rejected() {
        let dir = temp_dir("unsorted");
        let path = write_sample(&dir);
        let mut bytes = fs::read(&path).unwrap();
        // Swap the `bits` fields of two /24 records in the first table's
        // v4 section (records 2 and 3 of the len-first sort: the three
        // /24s follow the /8 and /16). Same length run, both canonical —
        // only strict key order breaks.
        let world = WorldStore::open(&dir, None).unwrap();
        let off = world.inner.tables[0].v4_off;
        drop(world);
        let rec_size = std::mem::size_of::<RibRecord4>();
        let (a, b) = (off + 2 * rec_size + 4, off + 3 * rec_size + 4);
        for i in 0..4 {
            bytes.swap(a + i, b + i);
        }
        let checksum = wire::checksum_skipping(&bytes, CHECKSUM_RANGE);
        put_u64(&mut bytes, CHECKSUM_RANGE.start, checksum);
        fs::write(&path, &bytes).unwrap();
        match WorldStore::open(&dir, None) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("out of order"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_header_fields_fail_checksum() {
        let dir = temp_dir("checksum");
        let path = write_sample(&dir);
        let mut bytes = fs::read(&path).unwrap();
        bytes[40] ^= 0xFF; // month count
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            WorldStore::open(&dir, None),
            Err(StoreError::ChecksumMismatch)
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_months_lists_every_gap() {
        let dir = temp_dir("missing");
        write_sample(&dir);
        let world = WorldStore::open(&dir, None).unwrap();
        let window = [
            MonthDate::new(2020, 8),
            MonthDate::new(2020, 9),
            MonthDate::new(2020, 12),
        ];
        match check_months(&world, &window) {
            Err(StoreError::MissingMonths { missing }) => {
                assert_eq!(
                    missing,
                    vec![MonthDate::new(2020, 8), MonthDate::new(2020, 12)]
                );
            }
            other => panic!("expected MissingMonths, got {other:?}"),
        }
        assert!(check_months(&world, &[MonthDate::new(2020, 10)]).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let dir = temp_dir("magic");
        let path = write_sample(&dir);
        let original = fs::read(&path).unwrap();
        let mut bytes = original.clone();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            WorldStore::open(&dir, None),
            Err(StoreError::BadMagic)
        ));
        let mut bytes = original;
        put_u32(&mut bytes, 8, 99);
        let checksum = wire::checksum_skipping(&bytes, CHECKSUM_RANGE);
        put_u64(&mut bytes, CHECKSUM_RANGE.start, checksum);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            WorldStore::open(&dir, None),
            Err(StoreError::BadVersion(99))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_errors_do_not_call_the_world_file_a_snapshot() {
        let dir = temp_dir("wording");
        let path = write_sample(&dir);
        let original = fs::read(&path).unwrap();
        let mut messages = Vec::new();
        let mut bytes = original.clone();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        messages.push(WorldStore::open(&dir, None).unwrap_err().to_string());
        let mut bytes = original;
        put_u32(&mut bytes, 8, 99);
        fs::write(&path, &bytes).unwrap();
        messages.push(WorldStore::open(&dir, None).unwrap_err().to_string());
        for message in messages {
            assert!(!message.contains("snapshot"), "{message}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_tmp_is_swept_at_open() {
        let dir = temp_dir("sweep");
        write_sample(&dir);
        let tmp = dir.join(format!(".{WORLD_FILE_NAME}.tmp"));
        fs::write(&tmp, b"torn write residue").unwrap();
        let world = WorldStore::open(&dir, None).unwrap();
        assert!(!tmp.exists(), "open must sweep the orphaned temp file");
        assert_eq!(world.fingerprint(), 0xDEAD_BEEF);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_round_trip_corrupt_regenerate_reopen() {
        let dir = temp_dir("quarantine");
        let path = write_sample(&dir);
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN as usize + 3] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let quarantined = match WorldStore::open_quarantining(&dir, None, LoadMode::Mmap) {
            Err(StoreError::Quarantined { path, reason }) => {
                assert!(reason.is_corruption(), "{reason}");
                path
            }
            other => panic!("expected Quarantined, got {other:?}"),
        };
        assert!(quarantined.ends_with("world.sibworld.corrupt"));
        assert!(quarantined.is_file(), "corrupt file moved aside");
        assert!(!path.exists(), "slot left clean for regeneration");
        // Regenerate into the clean slot; reopen must be clean.
        write_sample(&dir);
        assert!(WorldStore::open_quarantining(&dir, Some(0xDEAD_BEEF), LoadMode::Mmap).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_spares_fingerprint_mismatches_and_missing_files() {
        let dir = temp_dir("quarantine-spares");
        let path = write_sample(&dir);
        // A valid store for a different config is NOT corruption.
        assert!(matches!(
            WorldStore::open_quarantining(&dir, Some(1), LoadMode::Mmap),
            Err(StoreError::BadFingerprint { .. })
        ));
        assert!(path.is_file(), "fingerprint mismatch must not quarantine");
        fs::remove_file(&path).unwrap();
        assert!(matches!(
            WorldStore::open_quarantining(&dir, None, LoadMode::Mmap),
            Err(StoreError::Io(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }
}
