//! Byte-level helpers for the on-disk formats: native-endian integers
//! behind an endianness tag, the FNV-1a 64 checksum, 16-byte section
//! alignment, and months encoded as a single `u32`. The header checks
//! built from them live in [`crate::durable`].

use std::ops::Range;

use sibling_net_types::MonthDate;

/// The endianness tag every store header carries at a fixed offset. A
/// file written on a foreign-endian host shows the byte-swapped value and
/// is rejected before any zero-copy cast.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

/// Section alignment (bytes): every section starts on a 16-byte boundary
/// so `u32`/`u128` arrays can be reinterpreted in place.
pub const ALIGN: u64 = 16;

/// The FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 continuation — cheap, deterministic, dependency-free.
pub fn fnv1a_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The store-file checksum: FNV-1a 64 over all of `bytes` with the
/// `skip` range (the checksum's own field) excluded. Covering the header
/// means corrupted date/count/length fields are caught as checksum
/// mismatches, never silently attributed to the wrong month or shape.
pub fn checksum_skipping(bytes: &[u8], skip: Range<usize>) -> u64 {
    let hash = fnv1a_continue(FNV_OFFSET, &bytes[..skip.start]);
    fnv1a_continue(hash, &bytes[skip.end..])
}

/// Rounds `offset` up to the next section boundary.
pub fn align16(offset: u64) -> u64 {
    offset.div_ceil(ALIGN) * ALIGN
}

/// Encodes a month as months-since-year-0 (`year*12 + month-1`).
pub fn encode_date(date: MonthDate) -> u32 {
    date.year() as u32 * 12 + (date.month() as u32 - 1)
}

/// Decodes [`encode_date`]'s representation; `None` if the year exceeds
/// the representable range (a corrupt header must not panic).
pub fn decode_date(raw: u32) -> Option<MonthDate> {
    let year = raw / 12;
    if year > u16::MAX as u32 {
        return None;
    }
    Some(MonthDate::new(year as u16, (raw % 12 + 1) as u8))
}

/// Writes a native-endian `u32` at `at`.
pub fn put_u32(buf: &mut [u8], at: usize, value: u32) {
    buf[at..at + 4].copy_from_slice(&value.to_ne_bytes());
}

/// Writes a native-endian `u64` at `at`.
pub fn put_u64(buf: &mut [u8], at: usize, value: u64) {
    buf[at..at + 8].copy_from_slice(&value.to_ne_bytes());
}

/// Reads a native-endian `u32` at `at` (caller bounds-checks).
pub fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_ne_bytes(bytes[at..at + 4].try_into().expect("header bounds checked"))
}

/// Reads a native-endian `u64` at `at` (caller bounds-checks).
pub fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_ne_bytes(bytes[at..at + 8].try_into().expect("header bounds checked"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_round_trips() {
        for date in [
            MonthDate::new(0, 1),
            MonthDate::new(2024, 9),
            MonthDate::new(u16::MAX, 12),
        ] {
            assert_eq!(decode_date(encode_date(date)), Some(date));
        }
        assert_eq!(decode_date(u32::MAX), None);
    }

    #[test]
    fn checksum_skips_only_its_field() {
        let mut bytes = vec![7u8; 64];
        let base = checksum_skipping(&bytes, 40..48);
        bytes[44] = 99; // inside the skipped field: no change
        assert_eq!(checksum_skipping(&bytes, 40..48), base);
        bytes[39] = 99; // outside: detected
        assert_ne!(checksum_skipping(&bytes, 40..48), base);
    }

    #[test]
    fn alignment_rounds_up() {
        assert_eq!(align16(0), 0);
        assert_eq!(align16(1), 16);
        assert_eq!(align16(16), 16);
        assert_eq!(align16(17), 32);
    }
}
