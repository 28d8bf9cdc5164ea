//! The tagged on-disk record format.
//!
//! Both durable file kinds — snapshots and journals — are a versioned
//! header followed by a sequence of CRC-framed records, the tag/len record
//! idiom of the ubik VLDB5 `.DB0` layout:
//!
//! ```text
//! file   := header record*
//! header := magic[8] version:u32 kind:u32            (16 bytes; version
//!                                                    per kind, see
//!                                                    [`FileKind::version`])
//! record := tag:u32 len:u32 payload[len] crc:u32     (12 + len bytes)
//! ```
//!
//! The CRC covers `tag | len | payload`, so a torn write — a record whose
//! tail never reached the disk — is detected no matter where the tear
//! lands: inside the 8-byte record header, inside the payload, or inside
//! the checksum itself. [`scan_records`] walks a file image and stops at
//! the first frame that does not verify, reporting the byte offset of the
//! end of the last *valid* record so journals can cleanly truncate a torn
//! tail instead of replaying it.

use crate::crc::{crc32, Crc32};
use crate::{PersistError, Result};

/// File magic: identifies an asf persistence file.
pub const FILE_MAGIC: [u8; 8] = *b"ASFDUR01";

/// Bytes of the file header (`magic + version + kind`).
pub const HEADER_LEN: usize = 16;

/// Bytes of record framing around a payload (`tag + len` before, `crc`
/// after).
pub const RECORD_OVERHEAD: usize = 12;

/// Upper bound on a single record payload (1 GiB) — a length field larger
/// than this is treated as corruption rather than an allocation request.
pub const MAX_RECORD_LEN: u32 = 1 << 30;

/// What a persistence file holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// A point-in-time state snapshot (one checkpoint).
    Snapshot,
    /// An append-only journal of committed input chunks.
    Journal,
}

impl FileKind {
    fn code(self) -> u32 {
        match self {
            FileKind::Snapshot => 1,
            FileKind::Journal => 2,
        }
    }

    /// The format version this build writes into, and reads from, a file
    /// of this kind. Snapshots are at 2: their bodies are column-coded
    /// ([`column`](mod@crate::column)), and a version-1 snapshot or delta is not read
    /// (it fails its header, like a torn file). Journals are at 1.
    pub fn version(self) -> u32 {
        match self {
            FileKind::Snapshot => 2,
            FileKind::Journal => 1,
        }
    }

    fn from_code(code: u32) -> Result<Self> {
        match code {
            1 => Ok(FileKind::Snapshot),
            2 => Ok(FileKind::Journal),
            _ => Err(PersistError::corrupt("unknown file kind")),
        }
    }
}

/// Encodes the 16-byte versioned file header for `kind`.
pub fn encode_header(kind: FileKind) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&FILE_MAGIC);
    h[8..12].copy_from_slice(&kind.version().to_le_bytes());
    h[12..16].copy_from_slice(&kind.code().to_le_bytes());
    h
}

/// Validates a file header, returning its kind.
///
/// Fails on short files, wrong magic, or a version this build does not
/// read for the kind — never panics on arbitrary bytes.
pub fn decode_header(bytes: &[u8]) -> Result<FileKind> {
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::corrupt("file shorter than header"));
    }
    if bytes[..8] != FILE_MAGIC {
        return Err(PersistError::corrupt("bad file magic"));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let kind =
        FileKind::from_code(u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]))?;
    if version != kind.version() {
        return Err(PersistError::corrupt("unsupported format version"));
    }
    Ok(kind)
}

/// Appends one framed record (`tag | len | payload | crc`) to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_RECORD_LEN`].
pub fn encode_record(tag: u32, payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(payload.len()).expect("record payload too long");
    assert!(len <= MAX_RECORD_LEN, "record payload too long");
    let mut crc = Crc32::new();
    crc.update(&tag.to_le_bytes());
    crc.update(&len.to_le_bytes());
    crc.update(payload);
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc.finish().to_le_bytes());
}

/// One record recovered from a file image.
#[derive(Clone, Copy, Debug)]
pub struct Record<'a> {
    /// The record's type tag.
    pub tag: u32,
    /// The payload bytes (CRC already verified).
    pub payload: &'a [u8],
}

/// The outcome of scanning a record region.
#[derive(Clone, Debug)]
pub struct Scan<'a> {
    /// Every fully-written, CRC-valid record, in file order.
    pub records: Vec<Record<'a>>,
    /// Byte offset (within the scanned region) one past the last valid
    /// record — where a journal should truncate to drop a torn tail.
    pub valid_len: usize,
    /// Whether bytes past `valid_len` existed but did not verify (torn or
    /// corrupt tail). `false` means the region ended exactly on a record
    /// boundary.
    pub torn_tail: bool,
}

/// Walks `bytes` (the region *after* the file header) as a record
/// sequence.
///
/// Stops at the first frame that is incomplete or fails its CRC; bytes
/// from there on are reported via [`Scan::torn_tail`], never surfaced as
/// records. Scanning never panics and never reads past the buffer,
/// whatever the bytes contain.
pub fn scan_records(bytes: &[u8]) -> Scan<'_> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return Scan { records, valid_len: pos, torn_tail: false };
        }
        if rest.len() < RECORD_OVERHEAD {
            return Scan { records, valid_len: pos, torn_tail: true };
        }
        let tag = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let len = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_LEN || (len as usize) > rest.len() - RECORD_OVERHEAD {
            return Scan { records, valid_len: pos, torn_tail: true };
        }
        let payload = &rest[8..8 + len as usize];
        let stored = {
            let c = &rest[8 + len as usize..RECORD_OVERHEAD + len as usize];
            u32::from_le_bytes([c[0], c[1], c[2], c[3]])
        };
        let mut crc = Crc32::new();
        crc.update(&rest[..8]);
        crc.update(payload);
        if crc.finish() != stored {
            return Scan { records, valid_len: pos, torn_tail: true };
        }
        records.push(Record { tag, payload });
        pos += RECORD_OVERHEAD + len as usize;
    }
}

/// Convenience for single-record files (snapshots): scans and requires
/// exactly one valid record with `tag`, rejecting torn tails and trailing
/// bytes.
pub fn read_single_record(bytes: &[u8], tag: u32) -> Result<&[u8]> {
    let scan = scan_records(bytes);
    if scan.torn_tail {
        return Err(PersistError::corrupt("torn record"));
    }
    match scan.records.as_slice() {
        [r] if r.tag == tag => Ok(r.payload),
        [_] => Err(PersistError::corrupt("unexpected record tag")),
        _ => Err(PersistError::corrupt("expected exactly one record")),
    }
}

/// CRC-32 of an arbitrary byte string — re-exported at the record layer so
/// callers fingerprinting configs don't need the `crc` module directly.
pub fn checksum(bytes: &[u8]) -> u32 {
    crc32(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(records: &[(u32, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(tag, payload) in records {
            encode_record(tag, payload, &mut out);
        }
        out
    }

    #[test]
    fn header_round_trip() {
        for kind in [FileKind::Snapshot, FileKind::Journal] {
            let h = encode_header(kind);
            assert_eq!(decode_header(&h).unwrap(), kind);
        }
        assert!(decode_header(b"short").is_err());
        let mut bad = encode_header(FileKind::Journal);
        bad[0] ^= 0xFF;
        assert!(decode_header(&bad).is_err());
        let mut future = encode_header(FileKind::Journal);
        future[8] = 99;
        assert!(decode_header(&future).is_err());
    }

    #[test]
    fn records_round_trip_in_order() {
        let bytes = body(&[(1, b"alpha"), (2, b""), (7, b"gamma-payload")]);
        let scan = scan_records(&bytes);
        assert!(!scan.torn_tail);
        assert_eq!(scan.valid_len, bytes.len());
        let got: Vec<(u32, &[u8])> = scan.records.iter().map(|r| (r.tag, r.payload)).collect();
        assert_eq!(got, vec![(1, b"alpha" as &[u8]), (2, b""), (7, b"gamma-payload")]);
    }

    #[test]
    fn truncation_at_every_offset_never_yields_the_torn_record() {
        let bytes = body(&[(1, b"first"), (2, b"second-record-payload")]);
        let first_len = RECORD_OVERHEAD + 5;
        for cut in 0..bytes.len() {
            let scan = scan_records(&bytes[..cut]);
            // Only fully-written records may surface.
            let expect = usize::from(cut >= first_len);
            assert_eq!(scan.records.len(), expect, "cut={cut}");
            assert_eq!(scan.valid_len, expect * first_len, "cut={cut}");
            assert!(scan.torn_tail || cut == bytes.len() || cut == first_len || cut == 0);
        }
    }

    #[test]
    fn corrupt_tail_is_detected_at_every_byte() {
        let bytes = body(&[(1, b"keep-me"), (2, b"tail")]);
        let first_len = RECORD_OVERHEAD + 7;
        let mut copy = bytes.clone();
        for i in first_len..bytes.len() {
            copy[i] ^= 0x01;
            let scan = scan_records(&copy);
            assert_eq!(scan.records.len(), 1, "flip at {i} leaked the tail record");
            assert_eq!(scan.records[0].payload, b"keep-me");
            assert_eq!(scan.valid_len, first_len);
            assert!(scan.torn_tail);
            copy[i] ^= 0x01;
        }
    }

    #[test]
    fn absurd_length_field_is_corruption_not_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let scan = scan_records(&bytes);
        assert!(scan.records.is_empty());
        assert!(scan.torn_tail);
    }

    #[test]
    fn single_record_helper_enforces_shape() {
        let one = body(&[(5, b"snap")]);
        assert_eq!(read_single_record(&one, 5).unwrap(), b"snap");
        assert!(read_single_record(&one, 6).is_err(), "wrong tag");
        let two = body(&[(5, b"snap"), (5, b"again")]);
        assert!(read_single_record(&two, 5).is_err(), "two records");
        let torn = &one[..one.len() - 1];
        assert!(read_single_record(torn, 5).is_err(), "torn");
    }
}
