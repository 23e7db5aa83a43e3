//! DNS dataset model — the OpenINTEL substitute (§2.1, §3.1 step 1).
//!
//! The paper's detection pipeline consumes large-scale DNS resolution
//! results: for every queried domain, the A and AAAA addresses at the end
//! of the CNAME chain, taken on one snapshot date per month. This crate
//! provides:
//!
//! * [`DomainTable`] / [`DomainId`] — an interner so the set algebra at the
//!   heart of the pipeline runs on dense integer ids;
//! * [`DnsRecord`] / [`Zone`] — the authoritative data of one snapshot;
//! * [`Resolver`] — CNAME-chain following with loop and depth protection.
//!   Per §3 of the paper, resolution reports the *final* name in the chain,
//!   "the actual domain that maps to an IP address", not the queried name;
//! * [`DnsSnapshot`] — the per-date resolution result the pipeline consumes,
//!   with dual-stack (DS) domain extraction;
//! * [`SnapshotDelta`] — the exact month-over-month difference between two
//!   snapshots (added/removed/retargeted domains), the unit the
//!   incremental detection engine scales with instead of snapshot size;
//! * [`SnapshotSource`] — the borrowed-entry abstraction both an owned
//!   snapshot and a mapped on-disk view satisfy, so index building and
//!   diffing run over either without conversion;
//! * [`SnapshotStore`] / [`SnapshotFile`] / [`SnapshotView`] — the
//!   zero-copy on-disk snapshot store: a versioned, checksummed binary
//!   format written once and mapped back in milliseconds (vendored
//!   `mmap` wrapper with a plain-read fallback), replacing per-process
//!   regeneration for paper-scale longitudinal runs;
//! * [`durable`] — the one crash-safety layer under the snapshot store,
//!   the world store and the ingest journal: atomic replace, orphan
//!   sweep, quarantine and the shared header checks, with [`StoreError`];
//! * [`Toplist`] — the source lists (Alexa, Umbrella, Tranco, Radar, open
//!   ccTLDs) with the availability windows that shape Fig. 1 (Tranco added
//!   2022-09, Radar 2022-10, `.fr` 2022-08, Alexa removed 2023-05).
//!
//! Addresses are filtered through the §2.2 routability classifier: private,
//! reserved and invalid addresses never enter a snapshot.
//!
//! All `unsafe` behind the store lives in the vendored `mapfile` crate
//! (see its crate docs for the safety argument); this crate stays
//! `forbid(unsafe_code)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delta;
pub mod durable;
mod journal;
mod name;
mod record;
mod resolve;
mod snapshot;
mod source;
mod store;
mod toplist;
pub mod wire;

pub use delta::{DomainChange, SnapshotDelta};
pub use durable::{LoadMode, StoreError};
pub use journal::{decode_delta, encode_delta, IngestJournal, ReplayReport};
pub use name::{DomainId, DomainTable};
pub use record::{DnsRecord, Zone};
pub use resolve::{Resolution, ResolveError, Resolver, MAX_CNAME_CHAIN};
pub use snapshot::{DnsSnapshot, ResolvedAddrs};
pub use source::{AddrEntry, SnapshotSource};
pub use store::{encode_snapshot, SnapshotFile, SnapshotStore, SnapshotView};
pub use toplist::Toplist;
