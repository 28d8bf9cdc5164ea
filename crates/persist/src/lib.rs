//! # asf-persist — durability primitives for adaptive stream filters
//!
//! Dependency-free (std only) persistence layer giving the asf server
//! durable filter state and deterministic crash recovery:
//!
//! - [`crc`] — const-table CRC-32 (IEEE), the integrity check on every
//!   on-disk record.
//! - [`codec`] — [`StateWriter`]/[`StateReader`], the fixed-width
//!   little-endian encoding every persisted domain type goes through
//!   (`f64` as raw bits, so recovered state is bit-exact), and
//!   [`Persist`] / [`persist!`], which declare each record's layout once.
//!   A writer also declares its row tables ([`StateWriter::put_table`]).
//! - [`rows`] — [`Rows`], the row selection of a checkpoint: a full image
//!   writes every row of a table, a delta only the changed ones.
//! - [`column`](mod@column) — column coding of checkpoint bodies: each
//!   declared table stored as byte planes (one byte for a constant plane,
//!   runs for the rest, gaps for an ascending index column) below the
//!   logical image, which the reader rebuilds exactly before any decoder
//!   runs.
//! - [`record`] — the tagged `{tag, len, payload, crc}` record format with
//!   versioned file headers, plus torn-tail-aware scanning.
//! - [`store`] — [`SnapshotStore`] (double-buffered, tmp+fsync+rename
//!   full checkpoints, plus one delta of the rows changed since a full
//!   image) and [`Journal`] (append-only write-ahead log with CRC
//!   truncation of torn tails), both with byte-budget [`CrashPoint`] fault
//!   injection.
//!
//! The contract the layers add up to: after a crash at **any** byte of any
//! write, recovery finds the latest fully-durable checkpoint and the
//! longest fully-written journal prefix — never a half-written record —
//! and replaying that prefix through the deterministic engine reproduces
//! the pre-crash state byte-for-byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod column;
pub mod crc;
pub mod record;
pub mod rows;
pub mod store;

pub use codec::{Image, Nested, Persist, StateReader, StateWriter, Table};
pub use column::{Coding, BLOCK_ROWS};
pub use crc::{crc32, Crc32};
pub use record::{
    decode_header, encode_header, encode_record, scan_records, FileKind, Record, Scan, HEADER_LEN,
    MAX_RECORD_LEN, RECORD_OVERHEAD,
};
pub use rows::Rows;
pub use store::{
    pruned_floor, CrashPoint, Journal, JournalEntry, RotateStep, SnapshotImage, SnapshotStore,
    TAG_DELTA, TAG_JOURNAL_CHUNK, TAG_SNAPSHOT,
};

/// Errors from the persistence layer.
#[derive(Debug)]
pub enum PersistError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// On-disk bytes failed validation (bad magic, bad CRC, truncated
    /// payload, …). The message names the first check that failed.
    Corrupt(&'static str),
    /// A [`store::CrashPoint`] fired: the write died mid-flight with only
    /// a prefix durable. Test-harness only; never produced in production.
    InjectedCrash,
}

impl PersistError {
    /// Shorthand for a corruption error with a static description.
    pub fn corrupt(msg: &'static str) -> Self {
        PersistError::Corrupt(msg)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist i/o error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "persist corruption: {msg}"),
            PersistError::InjectedCrash => write!(f, "injected crash point fired"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PersistError>;
