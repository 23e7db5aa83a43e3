//! Month-over-month snapshot deltas.
//!
//! Consecutive monthly snapshots share the vast majority of their
//! domain→address mappings: the synthetic world's churn knobs sit at a
//! few percent per month, matching the paper's §4.1 observation that the
//! year-over-year prefix-change rate is only several percent. A
//! [`SnapshotDelta`] captures exactly the part that moved — domains
//! added, removed, or retargeted — so downstream consumers
//! (`sibling-core`'s incremental index patching) can do work proportional
//! to **churn** instead of snapshot size.
//!
//! The delta is exact and invertible on the forward direction:
//! `SnapshotDelta::diff(a, b).apply(a) == b` for any two snapshots,
//! including the empty delta (`a == b`) and full turnover (disjoint
//! domain sets) — property-tested below.

use sibling_net_types::MonthDate;

use crate::name::DomainId;
use crate::snapshot::{DnsSnapshot, ResolvedAddrs};
use crate::source::SnapshotSource;

/// Owns a borrowed `(v4, v6)` address pair — the delta stores owned
/// addresses so it outlives whatever source (snapshot or mapped view) it
/// was diffed from.
fn owned((v4, v6): (&[u32], &[u128])) -> ResolvedAddrs {
    ResolvedAddrs {
        v4: v4.to_vec(),
        v6: v6.to_vec(),
    }
}

/// One domain's transition between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainChange {
    /// The domain whose resolution changed.
    pub domain: DomainId,
    /// The addresses in the base snapshot (`None` when newly added).
    pub old: Option<ResolvedAddrs>,
    /// The addresses in the target snapshot (`None` when removed).
    pub new: Option<ResolvedAddrs>,
}

impl DomainChange {
    /// Whether the domain appeared in the target snapshot only.
    pub fn is_added(&self) -> bool {
        self.old.is_none()
    }

    /// Whether the domain disappeared from the base snapshot.
    pub fn is_removed(&self) -> bool {
        self.new.is_none()
    }

    /// Whether the domain exists on both sides with different addresses.
    pub fn is_retargeted(&self) -> bool {
        self.old.is_some() && self.new.is_some()
    }
}

/// The exact difference between two [`DnsSnapshot`]s (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDelta {
    from: MonthDate,
    to: MonthDate,
    /// All transitions, in domain-id order (both inputs iterate sorted).
    changes: Vec<DomainChange>,
    added: usize,
    removed: usize,
    retargeted: usize,
}

impl SnapshotDelta {
    /// Diffs `old` → `new` with one merge walk over the two sorted entry
    /// maps: `O(|old| + |new|)` time, output proportional to churn. This
    /// walk is the incremental engine's per-month floor, so it carries
    /// exactly one map step and one comparison per domain.
    pub fn diff(old: &DnsSnapshot, new: &DnsSnapshot) -> Self {
        Self::diff_sources(old, new)
    }

    /// [`SnapshotDelta::diff`] over any two [`SnapshotSource`]s — in
    /// particular two zero-copy [`crate::SnapshotView`]s straight off the
    /// store, so the incremental engine diffs mapped files without
    /// materializing either month's `BTreeMap`. Only the changed entries
    /// allocate (the delta owns its addresses; allocation stays
    /// churn-proportional).
    pub fn diff_sources<A, B>(old: &A, new: &B) -> Self
    where
        A: SnapshotSource + ?Sized,
        B: SnapshotSource + ?Sized,
    {
        let mut delta = Self {
            from: old.snapshot_date(),
            to: new.snapshot_date(),
            changes: Vec::new(),
            added: 0,
            removed: 0,
            retargeted: 0,
        };
        let mut a = old.addr_entries();
        let mut b = new.addr_entries();
        let mut next_a = a.next();
        let mut next_b = b.next();
        loop {
            match (next_a, next_b) {
                (Some((da, a4, a6)), Some((db, b4, b6))) => match da.cmp(&db) {
                    std::cmp::Ordering::Equal => {
                        if a4 != b4 || a6 != b6 {
                            delta.push_retargeted(da, (a4, a6), (b4, b6));
                        }
                        next_a = a.next();
                        next_b = b.next();
                    }
                    std::cmp::Ordering::Less => {
                        delta.push_removed(da, (a4, a6));
                        next_a = a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        delta.push_added(db, (b4, b6));
                        next_b = b.next();
                    }
                },
                (Some((da, a4, a6)), None) => {
                    delta.push_removed(da, (a4, a6));
                    next_a = a.next();
                }
                (None, Some((db, b4, b6))) => {
                    delta.push_added(db, (b4, b6));
                    next_b = b.next();
                }
                (None, None) => break,
            }
        }
        delta
    }

    fn push_retargeted(
        &mut self,
        domain: DomainId,
        old: (&[u32], &[u128]),
        new: (&[u32], &[u128]),
    ) {
        self.retargeted += 1;
        self.changes.push(DomainChange {
            domain,
            old: Some(owned(old)),
            new: Some(owned(new)),
        });
    }

    fn push_removed(&mut self, domain: DomainId, addrs: (&[u32], &[u128])) {
        self.removed += 1;
        self.changes.push(DomainChange {
            domain,
            old: Some(owned(addrs)),
            new: None,
        });
    }

    fn push_added(&mut self, domain: DomainId, addrs: (&[u32], &[u128])) {
        self.added += 1;
        self.changes.push(DomainChange {
            domain,
            old: None,
            new: Some(owned(addrs)),
        });
    }

    /// Reassembles a delta from its parts — the ingest journal's
    /// decoder. The category counts are recomputed from the changes;
    /// the caller guarantees domain-id order (replay preserves the
    /// encoder's order, and the encoder only ever sees diffed deltas).
    pub fn from_changes(from: MonthDate, to: MonthDate, changes: Vec<DomainChange>) -> Self {
        let added = changes.iter().filter(|c| c.is_added()).count();
        let removed = changes.iter().filter(|c| c.is_removed()).count();
        let retargeted = changes.iter().filter(|c| c.is_retargeted()).count();
        Self {
            from,
            to,
            changes,
            added,
            removed,
            retargeted,
        }
    }

    /// Applies the delta to a base snapshot, producing the target: for
    /// every change, added/retargeted domains are set to their new
    /// addresses and removed domains are deleted. The result carries the
    /// delta's target date. `apply(diff(a, b), a) == b` exactly.
    pub fn apply(&self, base: &DnsSnapshot) -> DnsSnapshot {
        let mut out = base.clone();
        self.apply_in_place(&mut out);
        out
    }

    /// [`SnapshotDelta::apply`] without the copy: patches `base` into
    /// the target in place, touching only the changed domains. The
    /// live tail takes this path so an ingest costs its churn, not the
    /// snapshot's size.
    pub fn apply_in_place(&self, base: &mut DnsSnapshot) {
        debug_assert_eq!(base.date(), self.from, "delta applied to its base");
        base.set_date(self.to);
        for change in &self.changes {
            match &change.new {
                Some(addrs) => base.insert(change.domain, addrs.clone()),
                None => {
                    base.remove(change.domain);
                }
            }
        }
    }

    /// Undoes [`SnapshotDelta::apply_in_place`]: every changed domain
    /// gets its `old` addresses back (or is removed again when it was
    /// added) and the base date is restored. Exact whenever the delta's
    /// `old` side is what its base held — true of every diffed delta,
    /// and already required of any delta the incremental index patches.
    pub fn revert_in_place(&self, target: &mut DnsSnapshot) {
        debug_assert_eq!(target.date(), self.to, "delta reverted from its target");
        target.set_date(self.from);
        for change in &self.changes {
            match &change.old {
                Some(addrs) => target.insert(change.domain, addrs.clone()),
                None => {
                    target.remove(change.domain);
                }
            }
        }
    }

    /// Whether `snapshot` already carries this delta's effect: its date
    /// is the target date and every changed domain already resolves to
    /// its `new` addresses (or is absent when removed). Exactly
    /// `self.apply(snapshot) == *snapshot`, at the cost of one lookup per
    /// change instead of a snapshot copy and a full comparison.
    pub fn is_carried_by(&self, snapshot: &DnsSnapshot) -> bool {
        snapshot.date() == self.to
            && self
                .changes
                .iter()
                .all(|c| snapshot.get(c.domain) == c.new.as_ref())
    }

    /// The base snapshot's date.
    pub fn from_date(&self) -> MonthDate {
        self.from
    }

    /// The target snapshot's date.
    pub fn to_date(&self) -> MonthDate {
        self.to
    }

    /// All transitions in domain-id order.
    pub fn changes(&self) -> &[DomainChange] {
        &self.changes
    }

    /// Domains present only in the target snapshot.
    pub fn added_count(&self) -> usize {
        self.added
    }

    /// Domains present only in the base snapshot.
    pub fn removed_count(&self) -> usize {
        self.removed
    }

    /// Domains present on both sides with different addresses.
    pub fn retargeted_count(&self) -> usize {
        self.retargeted
    }

    /// Total number of changed domains.
    pub fn churn(&self) -> usize {
        self.changes.len()
    }

    /// Whether the two snapshots had identical entries.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DomainId {
        DomainId(i)
    }

    const A4: u32 = 0x0808_0808;
    const B4: u32 = 0x0101_0101;
    const A6: u128 = 0x2001_4860_4860_0000_0000_0000_0000_8888;

    fn snap(date: MonthDate, entries: &[(u32, &[u32], &[u128])]) -> DnsSnapshot {
        let mut s = DnsSnapshot::new(date);
        for (id, v4, v6) in entries {
            s.merge(d(*id), v4.to_vec(), v6.to_vec());
        }
        s
    }

    #[test]
    fn diff_classifies_added_removed_retargeted() {
        let a = snap(
            MonthDate::new(2024, 8),
            &[(0, &[A4], &[A6]), (1, &[A4], &[]), (2, &[B4], &[A6])],
        );
        let b = snap(
            MonthDate::new(2024, 9),
            &[(0, &[A4], &[A6]), (2, &[A4], &[A6]), (3, &[B4], &[])],
        );
        let delta = SnapshotDelta::diff(&a, &b);
        assert_eq!(delta.added_count(), 1);
        assert_eq!(delta.removed_count(), 1);
        assert_eq!(delta.retargeted_count(), 1);
        assert_eq!(delta.churn(), 3);
        assert!(!delta.is_empty());
        assert_eq!(delta.from_date(), MonthDate::new(2024, 8));
        assert_eq!(delta.to_date(), MonthDate::new(2024, 9));
        let changes = delta.changes();
        assert!(changes[0].is_removed() && changes[0].domain == d(1));
        assert!(changes[1].is_retargeted() && changes[1].domain == d(2));
        assert!(changes[2].is_added() && changes[2].domain == d(3));
    }

    #[test]
    fn empty_delta_roundtrip() {
        let a = snap(MonthDate::new(2024, 8), &[(0, &[A4], &[A6])]);
        let delta = SnapshotDelta::diff(&a, &a);
        assert!(delta.is_empty());
        assert_eq!(delta.apply(&a), a);
    }

    #[test]
    fn full_churn_roundtrip() {
        // Disjoint domain sets: every entry is removed or added.
        let a = snap(
            MonthDate::new(2024, 8),
            &[(0, &[A4], &[A6]), (1, &[B4], &[])],
        );
        let b = snap(
            MonthDate::new(2024, 9),
            &[(5, &[B4], &[A6]), (9, &[A4], &[A6])],
        );
        let delta = SnapshotDelta::diff(&a, &b);
        assert_eq!(delta.churn(), 4);
        assert_eq!(delta.removed_count(), 2);
        assert_eq!(delta.added_count(), 2);
        assert_eq!(delta.apply(&a), b);
    }

    #[test]
    fn roundtrip_includes_date_move() {
        let a = snap(MonthDate::new(2024, 8), &[(0, &[A4], &[A6])]);
        let b = snap(MonthDate::new(2024, 9), &[(0, &[A4], &[A6])]);
        // Same entries, different date: delta is empty but apply re-dates.
        let delta = SnapshotDelta::diff(&a, &b);
        assert!(delta.is_empty());
        assert_eq!(delta.apply(&a), b);
    }

    #[test]
    fn in_place_apply_reverts_and_carried_check() {
        let a = snap(
            MonthDate::new(2024, 8),
            &[(0, &[A4], &[A6]), (1, &[A4], &[]), (2, &[B4], &[A6])],
        );
        let b = snap(
            MonthDate::new(2024, 9),
            &[(0, &[A4], &[A6]), (2, &[A4], &[A6]), (3, &[B4], &[])],
        );
        let delta = SnapshotDelta::diff(&a, &b);
        assert!(!delta.is_carried_by(&a));
        let mut patched = a.clone();
        delta.apply_in_place(&mut patched);
        assert_eq!(patched, b);
        assert!(delta.is_carried_by(&patched));
        delta.revert_in_place(&mut patched);
        assert_eq!(patched, a);
    }

    /// Property: the in-place pair agrees with the copying `apply` —
    /// `apply_in_place` yields `apply`'s result, `revert_in_place`
    /// restores the base bit for bit (date included), and
    /// `is_carried_by(s)` is exactly `apply(s) == s` — over random
    /// snapshot pairs spanning empty and full-turnover deltas, for
    /// month moves and same-month retargets alike.
    #[test]
    fn prop_in_place_apply_matches_apply() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        let entry = || (0u32..12, 0u8..3, 0u8..3);
        let strategy = (
            proptest::collection::vec(entry(), 0..24),
            proptest::collection::vec(entry(), 0..24),
            // Full turnover: the target's ids are shifted out of the
            // base's id space entirely.
            any::<bool>(),
            // A same-month retarget instead of a month move.
            any::<bool>(),
        );
        runner
            .run(&strategy, |(ea, eb, disjoint, same_month)| {
                let build = |date: MonthDate, entries: &[(u32, u8, u8)], shift: u32| {
                    let mut s = DnsSnapshot::new(date);
                    for (id, v4, v6) in entries {
                        let id = id + shift;
                        let v4: Vec<u32> = (0..*v4).map(|k| A4 + id + k as u32).collect();
                        let v6: Vec<u128> = (0..*v6).map(|k| A6 + id as u128 + k as u128).collect();
                        s.merge(d(id), v4, v6);
                    }
                    s
                };
                let from = MonthDate::new(2024, 8);
                let to = if same_month {
                    from
                } else {
                    MonthDate::new(2024, 9)
                };
                let a = build(from, &ea, 0);
                let b = build(to, &eb, if disjoint { 100 } else { 0 });
                for (base, target) in [(&a, &b), (&a, &a.redated(to))] {
                    let delta = SnapshotDelta::diff(base, target);
                    let mut patched = base.clone();
                    delta.apply_in_place(&mut patched);
                    prop_assert_eq!(&patched, &delta.apply(base));
                    prop_assert_eq!(&patched, target);
                    // The carried check against its own result — a
                    // re-sent delta — and against the base it has not
                    // been applied to yet; `apply` needs its base date,
                    // so the reference redates first.
                    for s in [&patched, base] {
                        let reference = delta.apply(&s.redated(from)) == *s;
                        prop_assert_eq!(delta.is_carried_by(s), reference);
                    }
                    delta.revert_in_place(&mut patched);
                    prop_assert_eq!(&patched, base);
                    prop_assert_eq!(patched.date(), base.date());
                }
                Ok(())
            })
            .unwrap();
    }

    /// Property: `apply(diff(a, b), a) == b` across random snapshot
    /// pairs spanning empty, partial and full churn, with per-domain
    /// family drops exercising dual-stack transitions.
    #[test]
    fn prop_diff_apply_roundtrip() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        // Each side: up to 24 domains out of a 12-id space, each with an
        // (id, v4 variant 0..3, v6 variant 0..3) triple; variant 0 means
        // the family is absent.
        let entry = || (0u32..12, 0u8..3, 0u8..3);
        let strategy = (
            proptest::collection::vec(entry(), 0..24),
            proptest::collection::vec(entry(), 0..24),
        );
        runner
            .run(&strategy, |(ea, eb)| {
                let build = |date: MonthDate, entries: &[(u32, u8, u8)]| {
                    let mut s = DnsSnapshot::new(date);
                    for (id, v4, v6) in entries {
                        let v4: Vec<u32> = (0..*v4).map(|k| A4 + *id + k as u32).collect();
                        let v6: Vec<u128> =
                            (0..*v6).map(|k| A6 + *id as u128 + k as u128).collect();
                        s.merge(d(*id), v4, v6);
                    }
                    s
                };
                let a = build(MonthDate::new(2024, 8), &ea);
                let b = build(MonthDate::new(2024, 9), &eb);
                let delta = SnapshotDelta::diff(&a, &b);
                prop_assert_eq!(delta.apply(&a), b);
                prop_assert_eq!(
                    delta.added_count() + delta.removed_count() + delta.retargeted_count(),
                    delta.churn()
                );
                // The reverse diff has mirrored counts.
                let back = SnapshotDelta::diff(&b, &a);
                prop_assert_eq!(back.apply(&b), a);
                prop_assert_eq!(back.added_count(), delta.removed_count());
                prop_assert_eq!(back.removed_count(), delta.added_count());
                prop_assert_eq!(back.retargeted_count(), delta.retargeted_count());
                Ok(())
            })
            .unwrap();
    }
}
