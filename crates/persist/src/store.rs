//! Durable storage: double-buffered snapshots, an append-only journal, and
//! crash-point fault injection.
//!
//! A persistence directory holds the snapshot slots, the delta checkpoint,
//! the active journal, and any sealed journal segments compaction has not
//! yet pruned:
//!
//! ```text
//! dir/
//!   snap-a.bin     alternating full checkpoint slots — the newest valid
//!   snap-b.bin     one wins at recovery; the other is the overwrite target
//!   delta.bin      the rows changed since one full image (its base), and
//!                  the sequence it brings that image to
//!   journal.log    append-only record of committed input chunks (active)
//!   journal-<k>.seg   sealed journal segments, replayed in index order
//!   floor.bin      how far pruning has destroyed journal history
//! ```
//!
//! A checkpoint's state goes to disk column-coded ([`column`](mod@crate::column)): the
//! row tables its writer declared as byte planes, the rest verbatim.
//! Reads hand out the logical image the writer produced, decoded before
//! any caller sees it.
//!
//! Snapshots are written tmp-file → `fsync` → atomic rename, alternating
//! between the two slots, so a crash at *any* byte of a checkpoint write
//! leaves the previous checkpoint untouched and selectable. A delta is
//! written the same way over `delta.bin`, and
//! [`SnapshotStore::delta_for`] hands it out only against the full image it
//! was taken from, so a torn or stale delta is simply not used. The journal is
//! append-only; a crash mid-append leaves a torn tail that
//! [`Journal::open`] detects by CRC and physically truncates, so a record
//! that was never fully written is never replayed.
//!
//! [`Journal::rotate`] bounds journal growth: the synced active file is
//! atomically renamed into a sealed segment (`journal-<k>.seg`) and a
//! fresh active file takes its place. Sealed segments are immutable, so a
//! torn record inside one is *corruption* (only the active tail may
//! legitimately tear). [`Journal::prune_segments`] deletes sealed segments
//! wholly superseded by a durable checkpoint.
//!
//! Every write path is routed through a byte-budget [`CrashPoint`]: tests
//! arm it with `set_crash_after(bytes)` and the store dies (with
//! [`PersistError::InjectedCrash`]) after exactly that many more bytes
//! reach the file — landing tears at arbitrary offsets inside headers,
//! payloads, and checksums.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::Image;
use crate::column::{self, Coded, Coding};
use crate::crc::Crc32;
use crate::record::{
    decode_header, encode_header, scan_records, FileKind, HEADER_LEN, MAX_RECORD_LEN,
    RECORD_OVERHEAD,
};
use crate::{PersistError, Result};

/// Record tag for a checkpoint payload (`seq | coded state`) inside a
/// snapshot file.
pub const TAG_SNAPSHOT: u32 = 0x534E_4150; // "SNAP"
/// Record tag for a delta checkpoint payload
/// (`seq | base_seq | coded state`).
pub const TAG_DELTA: u32 = 0x444C_5441; // "DLTA"
/// Record tag for a committed input chunk inside the journal.
pub const TAG_JOURNAL_CHUNK: u32 = 0x4A43_484B; // "JCHK"

const SLOT_NAMES: [&str; 2] = ["snap-a.bin", "snap-b.bin"];
const DELTA_NAME: &str = "delta.bin";
const JOURNAL_NAME: &str = "journal.log";
const SEGMENT_PREFIX: &str = "journal-";
const SEGMENT_SUFFIX: &str = ".seg";
const FLOOR_NAME: &str = "floor.bin";
const FLOOR_TMP: &str = "floor.tmp";
const FLOOR_MAGIC: &[u8; 8] = b"ASFFLOOR";

/// The temp file a checkpoint file `name` is written through.
fn tmp_name(name: &str) -> String {
    format!("{name}.tmp")
}

/// Deletes `path` if it exists.
fn remove_if_present(path: &Path) -> Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

fn segment_name(index: u64) -> String {
    format!("{SEGMENT_PREFIX}{index}{SEGMENT_SUFFIX}")
}

/// Parses `journal-<k>.seg` back into `k`; `None` for any other name.
fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?.strip_suffix(SEGMENT_SUFFIX)?.parse().ok()
}

/// Where inside [`Journal::rotate`] an armed crash fires — each step
/// leaves a distinct intermediate on-disk state a recovery must absorb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RotateStep {
    /// Die after syncing the active file but before the rename: the
    /// segment was never created, the active journal is intact.
    BeforeRename,
    /// Die after the rename lands but before the fresh active file
    /// exists: the directory has sealed segments and *no* `journal.log`.
    AfterRename,
    /// Die mid-write of the fresh active file's header: `journal.log`
    /// exists but holds a torn header.
    TornHeader,
}

/// Byte-budget write fault injector.
///
/// Unarmed, writes pass through. Armed with a budget of `b`, the next `b`
/// bytes are written normally and everything after them is dropped on the
/// floor; the write that crosses the boundary (and every write after it)
/// fails with [`PersistError::InjectedCrash`]. That models a process dying
/// mid-`write(2)`: a prefix of the data is on disk, the rest never was.
#[derive(Debug, Default)]
pub struct CrashPoint {
    budget: Option<u64>,
}

impl CrashPoint {
    /// Arms the injector: fail after `bytes` more bytes reach disk.
    pub fn arm(&mut self, bytes: u64) {
        self.budget = Some(bytes);
    }

    /// Disarms the injector; writes pass through again.
    pub fn disarm(&mut self) {
        self.budget = None;
    }

    /// Writes `bytes` to `file` under the budget. On a budget crossing,
    /// writes the surviving prefix and returns `InjectedCrash`.
    fn write(&mut self, file: &mut File, bytes: &[u8]) -> Result<()> {
        match self.budget {
            None => {
                file.write_all(bytes)?;
                Ok(())
            }
            Some(ref mut budget) => {
                let n = (*budget).min(bytes.len() as u64) as usize;
                file.write_all(&bytes[..n])?;
                *budget -= n as u64;
                if n < bytes.len() {
                    // The torn prefix must be as durable as a real crash
                    // would leave it before the process dies.
                    let _ = file.sync_all();
                    Err(PersistError::InjectedCrash)
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Writes one framed record `tag | len | seqs | body | crc` — the bytes
/// [`crate::record::encode_record`] produces for the payload
/// `seqs | body`, each sequence number a little-endian `u64` — under
/// `crash`'s budget, checksumming as it goes. `body` streams the
/// `body_len` body bytes into the sink it is given, so no framed copy of a
/// (multi-megabyte) body is ever built. Returns the bytes written.
///
/// # Panics
///
/// Panics if the payload exceeds [`crate::record::MAX_RECORD_LEN`], or if
/// `body` streams other than `body_len` bytes.
fn write_seq_record(
    crash: &mut CrashPoint,
    file: &mut File,
    tag: u32,
    seqs: &[u64],
    body_len: usize,
    body: impl FnOnce(&mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()>,
) -> Result<u64> {
    let len = u32::try_from(8 * seqs.len() + body_len).expect("record payload too long");
    assert!(len <= MAX_RECORD_LEN, "record payload too long");
    // tag, len and at most two sequence numbers, without an allocation
    let mut head = [0u8; 24];
    head[..4].copy_from_slice(&tag.to_le_bytes());
    head[4..8].copy_from_slice(&len.to_le_bytes());
    for (k, seq) in seqs.iter().enumerate() {
        head[8 + 8 * k..16 + 8 * k].copy_from_slice(&seq.to_le_bytes());
    }
    let head = &head[..8 + 8 * seqs.len()];
    let mut crc = Crc32::new();
    crc.update(head);
    crash.write(file, head)?;
    let mut streamed = 0;
    body(&mut |bytes| {
        crc.update(bytes);
        streamed += bytes.len();
        crash.write(file, bytes)
    })?;
    assert_eq!(streamed, body_len, "record body differs from its planned length");
    crash.write(file, &crc.finish().to_le_bytes())?;
    Ok((RECORD_OVERHEAD + len as usize) as u64)
}

/// Durably replaces `dir/name` with a one-record checkpoint file — header,
/// then the `tag | seqs | coded state` record — written to
/// `dir/name.tmp`, fsynced and renamed over it, so a crash at any byte
/// leaves the old file whole (and at worst a tmp file that the next open
/// deletes). The coded state ([`column`](mod@crate::column)) is sized first, then
/// streamed block by block.
fn write_checkpoint_file(
    crash: &mut CrashPoint,
    dir: &Path,
    name: &str,
    tag: u32,
    seqs: &[u64],
    state: Image<'_>,
) -> Result<()> {
    let coded = Coded::plan(state);
    let tmp = dir.join(tmp_name(name));
    let mut file = File::create(&tmp)?;
    crash.write(&mut file, &encode_header(FileKind::Snapshot))?;
    write_seq_record(crash, &mut file, tag, seqs, coded.len(), |sink| coded.write(sink))?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, dir.join(name))?;
    fsync_dir(dir)
}

fn fsync_dir(dir: &Path) -> Result<()> {
    // Directory fsync makes the rename itself durable; on platforms where
    // directories cannot be opened this is best-effort.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

fn read_file(path: &Path) -> Result<Option<Vec<u8>>> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Reads a snapshot image's *claimed* sequence number without validating
/// the CRC — only good for ordering which slot to fully validate first.
fn peek_snapshot_seq(bytes: &[u8]) -> Option<u64> {
    if decode_header(bytes).ok()? != FileKind::Snapshot {
        return None;
    }
    let seq = bytes.get(HEADER_LEN + 8..HEADER_LEN + 16)?;
    Some(u64::from_le_bytes(seq.try_into().ok()?))
}

/// [`peek_snapshot_seq`] of a slot file, reading only the prefix that
/// holds the claim; `None` for a missing or unreadable-as-snapshot file.
fn peek_slot_seq(path: &Path) -> Result<Option<u64>> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut prefix = Vec::with_capacity(HEADER_LEN + 16);
    file.take((HEADER_LEN + 16) as u64).read_to_end(&mut prefix)?;
    Ok(peek_snapshot_seq(&prefix))
}

/// Validates a one-record checkpoint file image of `tag` and locates its
/// parts: the `N` sequence numbers the payload starts with and the byte
/// range of the state after them. `None` if invalid in any way (wrong
/// header, torn, extra records, wrong tag, too short).
fn parse_checkpoint<const N: usize>(
    bytes: &[u8],
    tag: u32,
) -> Option<([u64; N], std::ops::Range<usize>)> {
    if decode_header(bytes).ok()? != FileKind::Snapshot {
        return None;
    }
    let body = &bytes[HEADER_LEN..];
    let scan = scan_records(body);
    if scan.torn_tail || scan.records.len() != 1 {
        return None;
    }
    let rec = scan.records[0];
    if rec.tag != tag || rec.payload.len() < 8 * N {
        return None;
    }
    let seqs = std::array::from_fn(|k| {
        u64::from_le_bytes(rec.payload[8 * k..8 * k + 8].try_into().expect("8 bytes"))
    });
    // header | tag u32, len u32 | seqs u64 × N, state... | crc u32
    let start = HEADER_LEN + 8 + 8 * N;
    Some((seqs, start..start + rec.payload.len() - 8 * N))
}

/// Validates a snapshot slot's file image and rebuilds its logical state:
/// `None` for a file [`parse_checkpoint`] rejects (a slot that is
/// skipped), an error for a CRC-valid record whose coded body does not
/// decode.
fn read_snapshot(bytes: &[u8]) -> Result<Option<SnapshotImage>> {
    match parse_checkpoint::<1>(bytes, TAG_SNAPSHOT) {
        Some(([seq], range)) => SnapshotImage::decode(seq, &bytes[range]).map(Some),
        None => Ok(None),
    }
}

/// A validated checkpoint — a full image or a delta — decoded to its
/// logical state.
#[derive(Debug)]
pub struct SnapshotImage {
    state: Vec<u8>,
    seq: u64,
    coding: Coding,
}

impl SnapshotImage {
    fn decode(seq: u64, body: &[u8]) -> Result<Self> {
        let (state, coding) = column::decode(body)?;
        Ok(Self { state, seq, coding })
    }

    /// How the checkpoint's body was coded on disk.
    pub fn coding(&self) -> &Coding {
        &self.coding
    }

    /// The event sequence the checkpoint was taken at (the sequence a
    /// delta brings its base image to).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The logical state.
    pub fn state(&self) -> &[u8] {
        &self.state
    }

    /// The logical state, for a caller that shares it instead of
    /// borrowing it.
    pub fn into_state(self) -> Vec<u8> {
        self.state
    }
}

/// Double-buffered checkpoint storage, plus one delta.
///
/// [`save`](Self::save) alternates between two slot files, always
/// overwriting the *older* one via tmp-write + `fsync` + rename, so the
/// newest durable checkpoint survives a crash at any point of the next
/// write. [`open_and_latest`](Self::open_and_latest) loads the valid slot
/// with the highest sequence number. [`save_delta`](Self::save_delta) writes the rows
/// changed since one full image beside the slots, and
/// [`delta_for`](Self::delta_for) returns it only against that image.
///
/// The store is `Send`, so a server can hand it to a background writer
/// thread and keep ingesting while the checkpoint hits disk.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    next_slot: usize,
    crash: CrashPoint,
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot store in `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Ok(Self::open_and_latest(dir)?.0)
    }

    /// Opens the store and loads the newest valid checkpoint in one pass.
    ///
    /// Recovery's hot path: only the slot headers are peeked, and the slot
    /// whose header *claims* the higher sequence is read and CRC-validated
    /// first — when it proves valid (the overwhelmingly common case) the
    /// other slot is never read at all, so recovery holds one image, not
    /// two.
    ///
    /// The store always writes next into the slot that does NOT hold the
    /// newest valid snapshot, so the newest survives a torn write. The
    /// temp files a torn write left behind (a slot's, the delta's, the
    /// pruned floor's) are deleted: nothing reads them, and a torn full
    /// image would otherwise hold its bytes until that slot's next save.
    pub fn open_and_latest(dir: impl Into<PathBuf>) -> Result<(Self, Option<SnapshotImage>)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for name in [SLOT_NAMES[0], SLOT_NAMES[1], DELTA_NAME] {
            remove_if_present(&dir.join(tmp_name(name)))?;
        }
        remove_if_present(&dir.join(FLOOR_TMP))?;
        let peeked =
            [peek_slot_seq(&dir.join(SLOT_NAMES[0]))?, peek_slot_seq(&dir.join(SLOT_NAMES[1]))?];
        // A corrupt slot may peek an arbitrary sequence; that only costs
        // one wasted validation before the other slot is tried.
        let order: [usize; 2] =
            if peeked[1].unwrap_or(0) > peeked[0].unwrap_or(0) { [1, 0] } else { [0, 1] };
        for slot in order {
            if let Some(file) = read_file(&dir.join(SLOT_NAMES[slot]))? {
                if let Some(image) = read_snapshot(&file)? {
                    let store = Self { dir, next_slot: slot ^ 1, crash: CrashPoint::default() };
                    return Ok((store, Some(image)));
                }
            }
        }
        Ok((Self { dir, next_slot: 0, crash: CrashPoint::default() }, None))
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arms the crash injector (see [`CrashPoint`]).
    pub fn set_crash_after(&mut self, bytes: u64) {
        self.crash.arm(bytes);
    }

    /// Disarms the crash injector.
    pub fn clear_crash(&mut self) {
        self.crash.disarm();
    }

    /// Durably writes a full checkpoint of `state` taken at sequence `seq`.
    ///
    /// On success the checkpoint is fully fsynced and atomically renamed
    /// into place, and the delta (if any) is deleted: every delta was taken
    /// against an older full image. On any error — including an injected
    /// crash — the previous checkpoint is still intact and selectable. The
    /// file is streamed from `state` (header, record frame, coded state,
    /// checksum); no copy of the image is built.
    pub fn save<'a>(&mut self, seq: u64, state: impl Into<Image<'a>>) -> Result<()> {
        let slot = SLOT_NAMES[self.next_slot];
        let state = state.into();
        write_checkpoint_file(&mut self.crash, &self.dir, slot, TAG_SNAPSHOT, &[seq], state)?;
        self.next_slot ^= 1;
        remove_if_present(&self.dir.join(DELTA_NAME))
    }

    /// Durably writes a delta checkpoint: `state` brings the full image
    /// taken at `base_seq` to sequence `seq`. It replaces the previous
    /// delta by tmp-write + `fsync` + rename through the same crash
    /// injector, so a crash at any byte leaves the previous delta (or
    /// none) in place; the full slots are never touched.
    pub fn save_delta<'a>(
        &mut self,
        base_seq: u64,
        seq: u64,
        state: impl Into<Image<'a>>,
    ) -> Result<()> {
        let (crash, dir) = (&mut self.crash, &self.dir);
        write_checkpoint_file(crash, dir, DELTA_NAME, TAG_DELTA, &[seq, base_seq], state.into())
    }

    /// The delta to apply on top of the full image taken at `base_seq`:
    /// `Some` only if `delta.bin` is whole and valid, was taken against
    /// that image, and reaches past it. A missing, torn, corrupt or stale
    /// delta (one whose base slot has since been overwritten) is `None` —
    /// recovery then replays the journal from the full image instead. A
    /// CRC-valid delta whose coded body does not decode is an error.
    pub fn delta_for(&self, base_seq: u64) -> Result<Option<SnapshotImage>> {
        let Some(file) = read_file(&self.dir.join(DELTA_NAME))? else {
            return Ok(None);
        };
        match parse_checkpoint::<2>(&file, TAG_DELTA) {
            Some(([seq, base], range)) if base == base_seq && seq > base_seq => {
                Ok(Some(SnapshotImage::decode(seq, &file[range])?))
            }
            _ => Ok(None),
        }
    }
}

/// One replayable journal entry: the sequence number the chunk starts at
/// and its encoded payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// Global event sequence number of the first event in the chunk.
    pub seq: u64,
    /// Opaque chunk payload (the caller's encoding of the input batch).
    pub payload: Vec<u8>,
}

/// Lists the sealed segment indices present in `dir`, ascending.
fn list_segment_indices(dir: &Path) -> Result<Vec<u64>> {
    let mut indices = Vec::new();
    let listing = match fs::read_dir(dir) {
        Ok(listing) => listing,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(indices),
        Err(e) => return Err(e.into()),
    };
    for entry in listing {
        let entry = entry?;
        if let Some(index) = entry.file_name().to_str().and_then(parse_segment_name) {
            indices.push(index);
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

/// How a journal file read by [`read_journal_file`] ended.
enum JournalFile {
    /// No such file.
    Missing,
    /// Shorter than a header, or a header that does not decode.
    BadHeader,
    /// A journal: `valid_end` is the file offset one past the last valid
    /// record, `torn` whether bytes past it failed to verify.
    Records { valid_end: u64, torn: bool },
}

/// Streams the journal file at `path` record by record, appending every
/// fully-written entry to `out` — the record-by-record equivalent of
/// [`scan_records`], so recovery never holds a journal file image beside
/// the entries read from it. A CRC-valid record that is not a journal
/// chunk is corruption; a wrong file kind is corruption.
fn read_journal_file(path: &Path, out: &mut Vec<JournalEntry>) -> Result<JournalFile> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalFile::Missing),
        Err(e) => return Err(e.into()),
    };
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN as u64 {
        return Ok(JournalFile::BadHeader);
    }
    let mut reader = std::io::BufReader::new(file);
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header)?;
    match decode_header(&header) {
        Err(_) => return Ok(JournalFile::BadHeader),
        Ok(FileKind::Journal) => {}
        Ok(_) => return Err(PersistError::corrupt("journal file has wrong kind")),
    }
    let mut pos = HEADER_LEN as u64;
    let torn = loop {
        let rest = file_len - pos;
        if rest == 0 {
            break false;
        }
        if rest < RECORD_OVERHEAD as u64 {
            break true;
        }
        let mut head = [0u8; 8];
        reader.read_exact(&mut head)?;
        let tag = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN || u64::from(len) > rest - RECORD_OVERHEAD as u64 {
            break true;
        }
        // `seq | body`; a payload shorter than a seq is read whole into
        // `seq`, which only serves to verify it before it is rejected.
        let mut seq = [0u8; 8];
        let seq_len = (len as usize).min(8);
        reader.read_exact(&mut seq[..seq_len])?;
        let mut body = vec![0u8; len as usize - seq_len];
        reader.read_exact(&mut body)?;
        let mut stored = [0u8; 4];
        reader.read_exact(&mut stored)?;
        let mut crc = Crc32::new();
        crc.update(&head);
        crc.update(&seq[..seq_len]);
        crc.update(&body);
        if crc.finish() != u32::from_le_bytes(stored) {
            break true;
        }
        if tag != TAG_JOURNAL_CHUNK || len < 8 {
            return Err(PersistError::corrupt("unexpected record in journal"));
        }
        out.push(JournalEntry { seq: u64::from_le_bytes(seq), payload: body });
        pos += (RECORD_OVERHEAD + len as usize) as u64;
    };
    Ok(JournalFile::Records { valid_end: pos, torn })
}

/// Strictly reads one sealed segment, appending its entries to `out`, and
/// returns its highest entry sequence and its length. Sealed segments are
/// immutable — a bad header, a torn tail, or a foreign record is
/// corruption, never something to truncate around.
fn read_sealed_segment(path: &Path, out: &mut Vec<JournalEntry>) -> Result<(u64, u64)> {
    let start = out.len();
    match read_journal_file(path, out)? {
        JournalFile::Missing => Err(PersistError::corrupt("segment vanished")),
        JournalFile::BadHeader => Err(PersistError::corrupt("sealed segment header unreadable")),
        JournalFile::Records { torn: true, .. } => {
            Err(PersistError::corrupt("torn record in sealed journal segment"))
        }
        JournalFile::Records { valid_end, torn: false } => {
            Ok((out[start..].iter().map(|e| e.seq).max().unwrap_or(0), valid_end))
        }
    }
}

/// One sealed (immutable) journal segment on disk.
#[derive(Clone, Debug)]
struct SealedSegment {
    index: u64,
    bytes: u64,
    /// Highest entry start-sequence in the segment. Chunks are journaled
    /// at chunk boundaries and checkpoints land at chunk boundaries, so a
    /// checkpoint at sequence `C > max_seq` supersedes every entry here.
    max_seq: u64,
}

/// Append-only write-ahead journal of committed input chunks.
///
/// [`open`](Self::open) validates the header, CRC-scans the body, and
/// **physically truncates** any torn tail before appends resume — a
/// half-written record is dropped exactly as if its append never happened.
/// Appends are buffered writes; call [`sync`](Self::sync) for an explicit
/// durability barrier (checkpointing syncs before declaring a checkpoint
/// that supersedes journal prefix).
///
/// [`rotate`](Self::rotate) seals the active file into an immutable
/// `journal-<k>.seg` segment; [`prune_segments`](Self::prune_segments)
/// deletes segments a durable checkpoint has wholly superseded. Reads
/// ([`open_and_read`](Self::open_and_read) / [`read_all`](Self::read_all))
/// replay sealed segments in index order, then the active file.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    path: PathBuf,
    file: File,
    bytes: u64,
    sealed: Vec<SealedSegment>,
    /// Index the next sealed segment will take (monotonic across reopens).
    next_segment: u64,
    /// Highest entry start-sequence appended or read so far.
    last_seq: Option<u64>,
    crash: CrashPoint,
    rotate_crash: Option<RotateStep>,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, truncating any
    /// torn or corrupt tail left by a crash.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Ok(Self::open_and_read(dir)?.0)
    }

    /// Opens the journal *and* returns every fully-written entry from the
    /// single scan the open already performs — recovery's hot path, where
    /// `open` + [`read_all`](Self::read_all) would read and CRC-check the
    /// whole file twice. The torn-tail truncation of `open` applies.
    pub fn open_and_read(dir: impl AsRef<Path>) -> Result<(Self, Vec<JournalEntry>)> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let mut entries = Vec::new();
        let mut sealed = Vec::new();
        for index in list_segment_indices(dir)? {
            let (max_seq, bytes) =
                read_sealed_segment(&dir.join(segment_name(index)), &mut entries)?;
            sealed.push(SealedSegment { index, bytes, max_seq });
        }
        let next_segment = sealed.last().map_or(0, |s| s.index + 1);
        let path = dir.join(JOURNAL_NAME);
        let valid_end = match read_journal_file(&path, &mut entries)? {
            // A missing file, or a header that never fully landed: start
            // the file over.
            JournalFile::Missing | JournalFile::BadHeader => None,
            JournalFile::Records { valid_end, .. } => Some(valid_end),
        };
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let bytes = match valid_end {
            Some(end) => {
                if file.metadata()?.len() != end {
                    file.set_len(end)?;
                    file.sync_all()?;
                }
                end
            }
            None => {
                file.set_len(0)?;
                file.write_all(&encode_header(FileKind::Journal))?;
                file.sync_all()?;
                HEADER_LEN as u64
            }
        };
        file.seek(SeekFrom::Start(bytes))?;
        let journal = Self {
            dir: dir.to_path_buf(),
            path,
            file,
            bytes,
            sealed,
            next_segment,
            last_seq: entries.last().map(|e| e.seq),
            crash: CrashPoint::default(),
            rotate_crash: None,
        };
        Ok((journal, entries))
    }

    /// Arms the crash injector (see [`CrashPoint`]).
    pub fn set_crash_after(&mut self, bytes: u64) {
        self.crash.arm(bytes);
    }

    /// Disarms the crash injector.
    pub fn clear_crash(&mut self) {
        self.crash.disarm();
    }

    /// Total bytes in the journal file (header included).
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends one committed chunk keyed by its starting event sequence,
    /// streamed from `payload` without building a framed copy.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> Result<()> {
        let (crash, file) = (&mut self.crash, &mut self.file);
        let body = |sink: &mut dyn FnMut(&[u8]) -> Result<()>| sink(payload);
        let written =
            write_seq_record(crash, file, TAG_JOURNAL_CHUNK, &[seq], payload.len(), body)?;
        self.bytes += written;
        self.last_seq = Some(self.last_seq.map_or(seq, |s| s.max(seq)));
        Ok(())
    }

    /// Fsyncs the journal file.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }

    /// Seals the active file into an immutable `journal-<k>.seg` segment
    /// and starts a fresh active file: sync → atomic rename → directory
    /// fsync → write + fsync the new header. A no-op on an empty journal.
    ///
    /// On any failure the caller must treat the handle as dead (poison):
    /// the in-memory file state may no longer match the directory. A
    /// reopen absorbs every intermediate state — see [`RotateStep`].
    pub fn rotate(&mut self) -> Result<()> {
        if self.bytes <= HEADER_LEN as u64 {
            return Ok(());
        }
        self.file.sync_all()?;
        if self.take_rotate_crash(RotateStep::BeforeRename) {
            return Err(PersistError::InjectedCrash);
        }
        let index = self.next_segment;
        let seg_path = self.dir.join(segment_name(index));
        fs::rename(&self.path, &seg_path)?;
        fsync_dir(&self.dir)?;
        if self.take_rotate_crash(RotateStep::AfterRename) {
            return Err(PersistError::InjectedCrash);
        }
        self.sealed.push(SealedSegment {
            index,
            bytes: self.bytes,
            // rotate() refuses empty journals, so an entry exists.
            max_seq: self.last_seq.expect("non-empty journal has a last sequence"),
        });
        self.next_segment = index + 1;
        let mut file = File::create(&self.path)?;
        let header = encode_header(FileKind::Journal);
        if self.take_rotate_crash(RotateStep::TornHeader) {
            let _ = file.write_all(&header[..HEADER_LEN / 2]);
            let _ = file.sync_all();
            return Err(PersistError::InjectedCrash);
        }
        self.crash.write(&mut file, &header)?;
        file.sync_all()?;
        fsync_dir(&self.dir)?;
        self.file = file;
        self.bytes = HEADER_LEN as u64;
        Ok(())
    }

    /// Deletes every sealed segment wholly superseded by a durable
    /// checkpoint at `durable_floor`: entries are keyed by chunk *start*
    /// sequence and checkpoints land on chunk boundaries, so a segment
    /// whose highest start sequence is below the floor holds only
    /// superseded chunks. Returns how many segments were deleted.
    pub fn prune_segments(&mut self, durable_floor: u64) -> Result<usize> {
        let mut dropped = 0usize;
        let mut err = None;
        self.sealed.retain(|seg| {
            if err.is_some() || seg.max_seq >= durable_floor {
                return true;
            }
            match fs::remove_file(self.dir.join(segment_name(seg.index))) {
                Ok(()) => {
                    dropped += 1;
                    false
                }
                Err(e) => {
                    err = Some(e);
                    true
                }
            }
        });
        if let Some(e) = err {
            return Err(e.into());
        }
        if dropped > 0 {
            // Record how far history has been destroyed *before* declaring
            // the prune done: if every checkpoint later turns out lost or
            // invalid, recovery consults this marker and fails loudly
            // instead of silently replaying the surviving suffix as if it
            // were the whole history.
            write_pruned_floor(&self.dir, durable_floor)?;
            fsync_dir(&self.dir)?;
        }
        Ok(dropped)
    }

    /// Number of sealed segments currently on disk.
    pub fn sealed_segments(&self) -> usize {
        self.sealed.len()
    }

    /// Total rotations this directory has ever performed (the index the
    /// next sealed segment will take).
    pub fn rotations(&self) -> u64 {
        self.next_segment
    }

    /// Total journal footprint: the active file plus every sealed segment
    /// not yet pruned.
    pub fn total_bytes(&self) -> u64 {
        self.bytes + self.sealed.iter().map(|s| s.bytes).sum::<u64>()
    }

    /// Arms a crash at `step` of the next [`rotate`](Self::rotate).
    pub fn set_rotate_crash(&mut self, step: RotateStep) {
        self.rotate_crash = Some(step);
    }

    fn take_rotate_crash(&mut self, step: RotateStep) -> bool {
        if self.rotate_crash == Some(step) {
            self.rotate_crash = None;
            return true;
        }
        false
    }

    /// Reads every fully-written entry — sealed segments in index order,
    /// then the active file — in append order.
    ///
    /// Tolerates a torn tail *of the active file only* (it is ignored,
    /// matching what `open` would truncate); a torn sealed segment is
    /// corruption. Fails only if a header is unreadable in a sealed
    /// segment; an unreadable active header reads as empty.
    pub fn read_all(dir: impl AsRef<Path>) -> Result<Vec<JournalEntry>> {
        let dir = dir.as_ref();
        let mut out = Vec::new();
        for index in list_segment_indices(dir)? {
            read_sealed_segment(&dir.join(segment_name(index)), &mut out)?;
        }
        read_journal_file(&dir.join(JOURNAL_NAME), &mut out)?;
        Ok(out)
    }

    /// The journal file path (tests corrupt it directly).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Durably records that journal history below `floor` has been destroyed:
/// `floor.bin` = magic + floor (LE) + CRC-32 of the floor bytes, written
/// via temp file + atomic rename so the marker is never torn.
fn write_pruned_floor(dir: &Path, floor: u64) -> Result<()> {
    let mut bytes = Vec::with_capacity(20);
    bytes.extend_from_slice(FLOOR_MAGIC);
    let floor_le = floor.to_le_bytes();
    bytes.extend_from_slice(&floor_le);
    bytes.extend_from_slice(&crate::crc32(&floor_le).to_le_bytes());
    let tmp = dir.join(FLOOR_TMP);
    let mut f = File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    fs::rename(&tmp, dir.join(FLOOR_NAME))?;
    fsync_dir(dir)?;
    Ok(())
}

/// The highest chunk sequence whose journal history this directory has
/// destroyed by pruning, if any segment was ever pruned.
///
/// A recovery whose newest readable checkpoint sits *below* this floor must
/// not replay the surviving journal suffix — the chunks between the
/// checkpoint and the floor are gone, and the result would be a silently
/// partial state. A missing marker means nothing was ever pruned; a
/// malformed or CRC-failing marker is corruption.
pub fn pruned_floor(dir: impl AsRef<Path>) -> Result<Option<u64>> {
    let Some(bytes) = read_file(&dir.as_ref().join(FLOOR_NAME))? else {
        return Ok(None);
    };
    if bytes.len() != 20 || &bytes[..8] != FLOOR_MAGIC {
        return Err(PersistError::corrupt("pruned-floor marker malformed"));
    }
    let floor_le: [u8; 8] = bytes[8..16].try_into().expect("8 bytes");
    let crc: [u8; 4] = bytes[16..20].try_into().expect("4 bytes");
    if crate::crc32(&floor_le) != u32::from_le_bytes(crc) {
        return Err(PersistError::corrupt("pruned-floor marker failed CRC"));
    }
    Ok(Some(u64::from_le_bytes(floor_le)))
}

/// Reads the raw journal file bytes, for tests that corrupt specific
/// offsets.
pub fn read_journal_bytes(dir: impl AsRef<Path>) -> Result<Vec<u8>> {
    let mut f = File::open(dir.as_ref().join(JOURNAL_NAME))?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_record;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("asf-persist-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The newest valid checkpoint in `dir`, as `(seq, state)`.
    fn latest(dir: &Path) -> Option<(u64, Vec<u8>)> {
        let (_, image) = SnapshotStore::open_and_latest(dir).unwrap();
        image.map(|image| (image.seq(), image.into_state()))
    }

    #[test]
    fn snapshot_save_and_latest_round_trip() {
        let dir = test_dir("snap-rt");
        let mut store = SnapshotStore::open(&dir).unwrap();
        assert!(latest(&dir).is_none());
        store.save(10, b"state-ten").unwrap();
        assert_eq!(latest(&dir), Some((10, b"state-ten".to_vec())));
        store.save(20, b"state-twenty").unwrap();
        assert_eq!(latest(&dir), Some((20, b"state-twenty".to_vec())));
        // Both slot files exist now; newest wins.
        store.save(30, b"state-thirty").unwrap();
        assert_eq!(latest(&dir).unwrap().0, 30);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_store_does_not_clobber_newest_slot() {
        let dir = test_dir("snap-reopen");
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.save(1, b"one").unwrap();
        store.save(2, b"two").unwrap();
        drop(store);
        let mut store = SnapshotStore::open(&dir).unwrap();
        // Next save must target the slot holding seq 1, not seq 2: a torn
        // write now must leave seq 2 recoverable.
        store.set_crash_after(5);
        assert!(matches!(store.save(3, b"three"), Err(PersistError::InjectedCrash)));
        store.clear_crash();
        assert_eq!(latest(&dir), Some((2, b"two".to_vec())));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_at_every_byte_of_a_snapshot_write_preserves_previous() {
        let dir = test_dir("snap-crash");
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.save(5, b"good checkpoint state").unwrap();
        // A full image of the next write is header+record; sweep budgets
        // well past its size to also cover "crash exactly at end of write
        // but before rename" — the tmp file then exists fully but was
        // never renamed, so the old snapshot must still win.
        for budget in 0..96 {
            let mut s = SnapshotStore::open(&dir).unwrap();
            s.set_crash_after(budget);
            let _ = s.save(6, b"newer checkpoint state!");
            let (seq, state) = latest(&dir).expect("a checkpoint must survive, budget {budget}");
            if seq == 5 {
                assert_eq!(state, b"good checkpoint state");
            } else {
                assert_eq!(seq, 6, "budget={budget}");
                assert_eq!(state, b"newer checkpoint state!");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_deletes_the_tmp_files_a_torn_write_left() {
        let dir = test_dir("snap-tmp");
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.save(4, b"durable state").unwrap();
        store.save_delta(4, 6, b"durable delta").unwrap();
        // Tear a full save and a delta save mid-file, and plant a torn
        // pruned-floor marker: each leaves a tmp file behind.
        let mut s = SnapshotStore::open(&dir).unwrap();
        s.set_crash_after(40);
        assert!(matches!(s.save(9, &[7; 64]), Err(PersistError::InjectedCrash)));
        s.set_crash_after(40);
        assert!(matches!(s.save_delta(4, 9, &[7; 64]), Err(PersistError::InjectedCrash)));
        fs::write(dir.join(FLOOR_TMP), b"torn").unwrap();
        let tmp_files = |dir: &Path| -> Vec<String> {
            let names = fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name());
            names.filter_map(|n| n.into_string().ok()).filter(|n| n.ends_with(".tmp")).collect()
        };
        assert_eq!(tmp_files(&dir).len(), 3, "{:?}", tmp_files(&dir));
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(tmp_files(&dir).is_empty(), "{:?}", tmp_files(&dir));
        assert_eq!(latest(&dir), Some((4, b"durable state".to_vec())));
        let delta = store.delta_for(4).unwrap().unwrap();
        assert_eq!((delta.seq(), delta.state()), (6, &b"durable delta"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_delta_is_handed_out_only_against_its_base() {
        let dir = test_dir("delta-base");
        let mut store = SnapshotStore::open(&dir).unwrap();
        assert!(store.delta_for(0).unwrap().is_none(), "no delta yet");
        store.save(10, b"full ten").unwrap();
        store.save_delta(10, 15, b"delta to fifteen").unwrap();
        store.save_delta(10, 20, b"delta to twenty").unwrap();
        let delta = store.delta_for(10).unwrap().unwrap();
        assert_eq!((delta.seq(), delta.state()), (20, &b"delta to twenty"[..]), "the newest wins");
        assert!(store.delta_for(11).unwrap().is_none(), "another base");
        // A delta that does not reach past its base is never applied.
        store.save_delta(10, 10, b"empty").unwrap();
        assert!(store.delta_for(10).unwrap().is_none());
        // A landed full image retires the delta: every delta was taken
        // against an older image.
        store.save_delta(10, 25, b"delta to twenty-five").unwrap();
        store.save(30, b"full thirty").unwrap();
        assert!(!dir.join(DELTA_NAME).exists());
        assert!(store.delta_for(10).unwrap().is_none());
        // A stale delta whose base slot was overwritten is ignored even if
        // it survived on disk (a crash between the rename and the delete).
        store.save_delta(30, 35, b"delta to thirty-five").unwrap();
        let stale = fs::read(dir.join(DELTA_NAME)).unwrap();
        store.save(40, b"full forty").unwrap();
        store.save(50, b"full fifty").unwrap();
        fs::write(dir.join(DELTA_NAME), &stale).unwrap();
        let (store, image) = SnapshotStore::open_and_latest(&dir).unwrap();
        assert_eq!(image.unwrap().seq(), 50);
        assert!(store.delta_for(50).unwrap().is_none());
        assert!(store.delta_for(40).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_at_every_byte_of_a_delta_write_keeps_the_previous_delta() {
        let dir = test_dir("delta-crash");
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.save(5, b"base image").unwrap();
        store.save_delta(5, 8, b"durable delta").unwrap();
        let body = body_of(41);
        let mut image = encode_header(FileKind::Snapshot).to_vec();
        let mut payload = [9u64.to_le_bytes(), 5u64.to_le_bytes()].concat();
        payload.extend_from_slice(&coded(&body));
        encode_record(TAG_DELTA, &payload, &mut image);
        for budget in 0..=image.len() as u64 + 2 {
            let mut s = SnapshotStore::open(&dir).unwrap();
            s.set_crash_after(budget);
            let res = s.save_delta(5, 9, &body);
            let (reopened, full) = SnapshotStore::open_and_latest(&dir).unwrap();
            assert_eq!(full.unwrap().seq(), 5, "budget={budget}: the full slots are untouched");
            let delta = reopened.delta_for(5).unwrap().expect("a delta survives");
            if budget < image.len() as u64 {
                assert!(matches!(res, Err(PersistError::InjectedCrash)), "budget={budget}");
                assert_eq!((delta.seq(), delta.state()), (8, &b"durable delta"[..]));
            } else {
                res.unwrap();
                assert_eq!(fs::read(dir.join(DELTA_NAME)).unwrap(), image, "budget={budget}");
                assert_eq!((delta.seq(), delta.state()), (9, &body[..]));
                // Back to the durable delta for the next budget.
                let mut s = SnapshotStore::open(&dir).unwrap();
                s.save_delta(5, 8, b"durable delta").unwrap();
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_and_byte_flip_of_a_delta_is_ignored() {
        // The delta is one CRC-framed record: no truncation or single-byte
        // corruption of it may be handed out (or panic), whatever field
        // the damage lands in.
        let dir = test_dir("delta-fuzz");
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.save(3, b"base").unwrap();
        store.save_delta(3, 7, &body_of(29)).unwrap();
        let image = fs::read(dir.join(DELTA_NAME)).unwrap();
        assert!(store.delta_for(3).unwrap().is_some());
        let mut variants: Vec<Vec<u8>> =
            (0..image.len()).map(|cut| image[..cut].to_vec()).collect();
        for i in 0..image.len() {
            let mut flipped = image.clone();
            flipped[i] ^= 0x5A;
            variants.push(flipped);
        }
        let mut longer = image.clone();
        longer.push(0);
        variants.push(longer);
        for bytes in &variants {
            fs::write(dir.join(DELTA_NAME), bytes).unwrap();
            assert!(store.delta_for(3).unwrap().is_none(), "{} bytes", bytes.len());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_and_latest_reads_past_a_newer_slot_that_fails_validation() {
        // `open_and_latest` reads only the slot whose header claims the
        // newer seq unless it fails validation; every case must still load
        // the newest slot that validates.
        let dir = test_dir("snap-peek");
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.save(7, b"older state").unwrap();
        store.save(8, b"newer state").unwrap();
        let newer = dir.join(SLOT_NAMES[1]);
        let image = fs::read(&newer).unwrap();
        assert_eq!(latest(&dir), Some((8, b"newer state".to_vec())));
        // A flipped state byte: the header still claims 8, the CRC fails.
        let mut flipped = image.clone();
        *flipped.iter_mut().rev().nth(6).unwrap() ^= 1;
        fs::write(&newer, &flipped).unwrap();
        assert_eq!(latest(&dir), Some((7, b"older state".to_vec())));
        // Shorter than the claim's prefix, and missing.
        fs::write(&newer, &image[..HEADER_LEN + 4]).unwrap();
        assert_eq!(latest(&dir), Some((7, b"older state".to_vec())));
        fs::remove_file(&newer).unwrap();
        assert_eq!(latest(&dir), Some((7, b"older state".to_vec())));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_and_byte_flip_of_a_coded_slot_is_skipped_or_an_error() {
        // A slot whose body codes two tables: every damaged copy of it
        // either loses its slot to the older one or is an error, and never
        // yields an image that was not written.
        let dir = test_dir("coded-fuzz");
        let image = |salt: u64| {
            let mut w = crate::StateWriter::new();
            w.put_u64(salt);
            w.put_table(crate::Table::Positional, 0..300u64, |w, k| {
                w.put_u64(k / 16);
                w.put_u8(7);
            });
            w.put_table(crate::Table::Indexed, (0..200u32).map(|k| 3 * k), |w, i| w.put_u32(i));
            w
        };
        let (older, newer) = (image(1), image(2));
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.save(1, &older).unwrap();
        store.save(2, &newer).unwrap();
        let path = dir.join(SLOT_NAMES[1]);
        let file = fs::read(&path).unwrap();
        assert!(file.len() < newer.len() / 2, "the tables code: {} bytes", file.len());
        let mut variants: Vec<Vec<u8>> = (0..file.len()).map(|cut| file[..cut].to_vec()).collect();
        for i in 0..file.len() {
            let mut flipped = file.clone();
            flipped[i] ^= 0x21;
            variants.push(flipped);
        }
        for bytes in &variants {
            fs::write(&path, bytes).unwrap();
            match SnapshotStore::open_and_latest(&dir) {
                Ok((_, Some(img))) => {
                    assert_eq!(
                        (img.seq(), img.state()),
                        (1, older.bytes()),
                        "{} bytes",
                        bytes.len()
                    )
                }
                Err(PersistError::Corrupt(_)) => {}
                other => panic!("{} bytes: {other:?}", bytes.len()),
            }
        }
        fs::write(&path, &file).unwrap();
        let (_, img) = SnapshotStore::open_and_latest(&dir).unwrap();
        assert_eq!(img.unwrap().state(), newer.bytes());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The coded body of a bare-bytes image: stored verbatim.
    fn coded(body: &[u8]) -> Vec<u8> {
        column::encode(Image::from(body))
    }

    /// What the streamed writers must put on disk: the `seq | body`
    /// payload framed by `encode_record`.
    fn framed(tag: u32, seq: u64, body: &[u8]) -> Vec<u8> {
        let mut payload = seq.to_le_bytes().to_vec();
        payload.extend_from_slice(body);
        let mut out = Vec::new();
        encode_record(tag, &payload, &mut out);
        out
    }

    fn body_of(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 % 251) as u8).collect()
    }

    #[test]
    fn streamed_files_match_encode_record_framing() {
        let dir = test_dir("framing");
        let mut store = SnapshotStore::open(&dir).unwrap();
        let mut journal = Journal::open(&dir).unwrap();
        for (i, len) in [0usize, 1, 7, 8, 9, 63, 4096, 100_003].into_iter().enumerate() {
            let (seq, body) = (1000 + i as u64, body_of(len));
            store.save(seq, &body).unwrap();
            let mut image = encode_header(FileKind::Snapshot).to_vec();
            image.extend_from_slice(&framed(TAG_SNAPSHOT, seq, &coded(&body)));
            let slot = SLOT_NAMES[store.next_slot ^ 1];
            assert_eq!(fs::read(dir.join(slot)).unwrap(), image, "snapshot of {len} bytes");
            store.save_delta(seq, seq + 1, &body).unwrap();
            let mut delta = [(seq + 1).to_le_bytes(), seq.to_le_bytes()].concat();
            delta.extend_from_slice(&coded(&body));
            let mut image = encode_header(FileKind::Snapshot).to_vec();
            encode_record(TAG_DELTA, &delta, &mut image);
            assert_eq!(fs::read(dir.join(DELTA_NAME)).unwrap(), image, "delta of {len} bytes");

            let before = journal.len_bytes() as usize;
            journal.append(seq, &body).unwrap();
            let on_disk = read_journal_bytes(&dir).unwrap();
            assert_eq!(on_disk[before..], framed(TAG_JOURNAL_CHUNK, seq, &body), "chunk of {len}");
            assert_eq!(journal.len_bytes() as usize, on_disk.len());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_writes_tear_at_exactly_the_budget() {
        let dir = test_dir("tear-budget");
        let body = body_of(37);
        let mut image = encode_header(FileKind::Snapshot).to_vec();
        image.extend_from_slice(&framed(TAG_SNAPSHOT, 9, &coded(&body)));
        for budget in 0..=image.len() as u64 + 2 {
            let mut store = SnapshotStore::open(&dir).unwrap();
            let slot = SLOT_NAMES[store.next_slot];
            store.set_crash_after(budget);
            let res = store.save(9, &body);
            if budget < image.len() as u64 {
                assert!(matches!(res, Err(PersistError::InjectedCrash)), "budget={budget}");
                let torn = fs::read(dir.join(format!("{slot}.tmp"))).unwrap();
                assert_eq!(torn, image[..budget as usize], "budget={budget}");
            } else {
                res.unwrap();
                assert_eq!(fs::read(dir.join(slot)).unwrap(), image, "budget={budget}");
            }
        }
        let chunk = framed(TAG_JOURNAL_CHUNK, 5, &body);
        let mut j = Journal::open(&dir).unwrap();
        j.append(1, b"durable").unwrap();
        let durable = read_journal_bytes(&dir).unwrap();
        drop(j);
        for budget in 0..chunk.len() as u64 {
            fs::write(dir.join(JOURNAL_NAME), &durable).unwrap();
            let mut j = Journal::open(&dir).unwrap();
            j.set_crash_after(budget);
            assert!(matches!(j.append(5, &body), Err(PersistError::InjectedCrash)));
            let on_disk = read_journal_bytes(&dir).unwrap();
            assert_eq!(on_disk[..durable.len()], durable[..], "budget={budget}");
            assert_eq!(on_disk[durable.len()..], chunk[..budget as usize], "budget={budget}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_append_read_round_trip() {
        let dir = test_dir("jrnl-rt");
        let mut j = Journal::open(&dir).unwrap();
        j.append(0, b"chunk-zero").unwrap();
        j.append(4, b"chunk-four").unwrap();
        j.sync().unwrap();
        let entries = Journal::read_all(&dir).unwrap();
        assert_eq!(
            entries,
            vec![
                JournalEntry { seq: 0, payload: b"chunk-zero".to_vec() },
                JournalEntry { seq: 4, payload: b"chunk-four".to_vec() },
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_journal_reads_equal_a_scan_of_the_whole_image() {
        // Journal reads stream record by record. Every truncation and every
        // single-bit flip of an active journal must read exactly the
        // entries `scan_records` finds in the whole image, and `open` must
        // truncate to its `valid_len`; as a sealed segment, the same image
        // must read the same entries, or be corruption when the scan finds
        // a torn tail. A CRC-valid record too short for a seq is
        // corruption.
        let dir = test_dir("jrnl-stream");
        let (path, segment) = (dir.join(JOURNAL_NAME), dir.join(segment_name(0)));
        let mut j = Journal::open(&dir).unwrap();
        for (seq, len) in [(0u64, 0usize), (3, 5), (10, 300), (11, 1)] {
            j.append(seq, &vec![seq as u8; len]).unwrap();
        }
        drop(j);
        let image = fs::read(&path).unwrap();
        let mut variants: Vec<Vec<u8>> =
            (0..=image.len()).map(|cut| image[..cut].to_vec()).collect();
        for bit in HEADER_LEN * 8..image.len() * 8 {
            let mut flipped = image.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            variants.push(flipped);
        }
        for bytes in &variants {
            fs::write(&path, bytes).unwrap();
            let (entries, valid_end, torn) = if bytes.len() < HEADER_LEN {
                (Vec::new(), HEADER_LEN as u64, true)
            } else {
                let scan = scan_records(&bytes[HEADER_LEN..]);
                let entries = scan.records.iter().map(|r| {
                    assert!(r.tag == TAG_JOURNAL_CHUNK && r.payload.len() >= 8);
                    let seq = u64::from_le_bytes(r.payload[..8].try_into().unwrap());
                    JournalEntry { seq, payload: r.payload[8..].to_vec() }
                });
                (entries.collect(), (HEADER_LEN + scan.valid_len) as u64, scan.torn_tail)
            };
            assert_eq!(Journal::read_all(&dir).unwrap(), entries, "{} bytes", bytes.len());
            let (j, read) = Journal::open_and_read(&dir).unwrap();
            assert_eq!(
                (read, j.len_bytes()),
                (entries.clone(), valid_end),
                "{} bytes",
                bytes.len()
            );
            fs::remove_file(&path).unwrap();
            fs::write(&segment, bytes).unwrap();
            match (Journal::read_all(&dir), torn) {
                (Err(PersistError::Corrupt(_)), true) => {}
                (Ok(sealed), false) => assert_eq!(sealed, entries, "{} bytes", bytes.len()),
                (other, _) => panic!("{} bytes, torn={torn}: sealed read {other:?}", bytes.len()),
            }
            fs::remove_file(&segment).unwrap();
        }
        let mut short = image;
        encode_record(TAG_JOURNAL_CHUNK, b"seq", &mut short);
        fs::write(&path, &short).unwrap();
        assert!(matches!(Journal::read_all(&dir), Err(PersistError::Corrupt(_))));
        assert!(matches!(Journal::open_and_read(&dir), Err(PersistError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_survives_reopen_and_keeps_appending() {
        let dir = test_dir("jrnl-reopen");
        let mut j = Journal::open(&dir).unwrap();
        j.append(0, b"a").unwrap();
        drop(j);
        let mut j = Journal::open(&dir).unwrap();
        j.append(1, b"b").unwrap();
        drop(j);
        let entries = Journal::read_all(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].payload, b"b");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_journal_append_is_truncated_on_reopen() {
        let dir = test_dir("jrnl-torn");
        let mut j = Journal::open(&dir).unwrap();
        j.append(0, b"durable-entry").unwrap();
        let durable_len = j.len_bytes();
        // Tear the next append at every possible byte offset.
        let full = {
            let mut probe = Vec::new();
            let mut body = Vec::new();
            body.extend_from_slice(&7u64.to_le_bytes());
            body.extend_from_slice(b"torn-entry");
            encode_record(TAG_JOURNAL_CHUNK, &body, &mut probe);
            probe.len() as u64
        };
        for budget in 0..full {
            // Fresh copy of the durable state each round.
            let mut j = Journal::open(&dir).unwrap();
            assert_eq!(j.len_bytes(), durable_len, "budget={budget}");
            j.set_crash_after(budget);
            assert!(matches!(j.append(7, b"torn-entry"), Err(PersistError::InjectedCrash)));
            drop(j);
            let entries = Journal::read_all(&dir).unwrap();
            assert_eq!(entries.len(), 1, "budget={budget} leaked a torn entry");
            assert_eq!(entries[0].payload, b"durable-entry");
        }
        // Reopen once more and confirm appends continue cleanly.
        let mut j = Journal::open(&dir).unwrap();
        j.append(7, b"clean-entry").unwrap();
        drop(j);
        let entries = Journal::read_all(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].payload, b"clean-entry");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_journal_tail_is_dropped_not_replayed() {
        let dir = test_dir("jrnl-flip");
        let mut j = Journal::open(&dir).unwrap();
        j.append(0, b"keep").unwrap();
        let keep_end = j.len_bytes() as usize;
        j.append(1, b"flip-victim").unwrap();
        j.sync().unwrap();
        drop(j);
        let pristine = read_journal_bytes(&dir).unwrap();
        for i in keep_end..pristine.len() {
            let mut copy = pristine.clone();
            copy[i] ^= 0x40;
            fs::write(dir.join(JOURNAL_NAME), &copy).unwrap();
            let entries = Journal::read_all(&dir).unwrap();
            assert_eq!(entries.len(), 1, "flip at byte {i} leaked a corrupt entry");
            assert_eq!(entries[0].payload, b"keep");
            // Reopen truncates the corrupt tail physically.
            drop(Journal::open(&dir).unwrap());
            assert_eq!(read_journal_bytes(&dir).unwrap().len(), keep_end);
            fs::write(dir.join(JOURNAL_NAME), &pristine).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_with_destroyed_header_restarts_empty() {
        let dir = test_dir("jrnl-hdr");
        let mut j = Journal::open(&dir).unwrap();
        j.append(0, b"entry").unwrap();
        drop(j);
        // Truncate into the header: nothing replayable remains.
        let bytes = read_journal_bytes(&dir).unwrap();
        fs::write(dir.join(JOURNAL_NAME), &bytes[..HEADER_LEN / 2]).unwrap();
        assert!(Journal::read_all(&dir).unwrap().is_empty());
        let mut j = Journal::open(&dir).unwrap();
        assert_eq!(j.len_bytes(), HEADER_LEN as u64);
        j.append(9, b"fresh").unwrap();
        drop(j);
        let entries = Journal::read_all(&dir).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_reads_as_empty() {
        let dir = test_dir("jrnl-none");
        assert!(Journal::read_all(&dir).unwrap().is_empty());
    }

    #[test]
    fn rotation_preserves_entries_across_segments_and_reopen() {
        let dir = test_dir("jrnl-rot");
        let mut j = Journal::open(&dir).unwrap();
        j.append(0, b"in-seg-0").unwrap();
        j.rotate().unwrap();
        j.append(1, b"in-seg-1").unwrap();
        j.append(2, b"also-seg-1").unwrap();
        j.rotate().unwrap();
        j.append(3, b"active").unwrap();
        j.sync().unwrap();
        assert_eq!(j.sealed_segments(), 2);
        assert_eq!(j.rotations(), 2);
        assert!(j.total_bytes() > j.len_bytes());
        drop(j);

        let seqs: Vec<u64> = Journal::read_all(&dir).unwrap().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);

        // Reopen resumes the segment index sequence and keeps appending.
        let (mut j, entries) = Journal::open_and_read(&dir).unwrap();
        assert_eq!(entries.len(), 4);
        assert_eq!(j.sealed_segments(), 2);
        assert_eq!(j.rotations(), 2);
        j.append(4, b"post-reopen").unwrap();
        j.rotate().unwrap();
        assert_eq!(j.rotations(), 3);
        drop(j);
        assert_eq!(Journal::read_all(&dir).unwrap().len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotating_an_empty_journal_is_a_no_op() {
        let dir = test_dir("jrnl-rot-empty");
        let mut j = Journal::open(&dir).unwrap();
        j.rotate().unwrap();
        assert_eq!(j.sealed_segments(), 0);
        assert_eq!(j.rotations(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_drops_only_superseded_segments() {
        let dir = test_dir("jrnl-prune");
        let mut j = Journal::open(&dir).unwrap();
        j.append(0, b"a").unwrap();
        j.append(5, b"b").unwrap();
        j.rotate().unwrap(); // seg 0: max_seq 5
        j.append(10, b"c").unwrap();
        j.rotate().unwrap(); // seg 1: max_seq 10
        j.append(20, b"d").unwrap();

        // Floor at 10: seg 0 (max 5) is wholly superseded; seg 1's entry
        // at 10 starts exactly at the floor, so it must survive.
        assert_eq!(j.prune_segments(10).unwrap(), 1);
        assert_eq!(j.sealed_segments(), 1);
        let seqs: Vec<u64> = Journal::read_all(&dir).unwrap().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![10, 20]);

        assert_eq!(j.prune_segments(11).unwrap(), 1);
        assert_eq!(j.sealed_segments(), 0);
        assert_eq!(Journal::read_all(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_records_a_durable_floor_marker() {
        let dir = test_dir("jrnl-floor");
        let mut j = Journal::open(&dir).unwrap();
        // Nothing pruned yet: no marker.
        assert_eq!(pruned_floor(&dir).unwrap(), None);
        j.append(0, b"a").unwrap();
        j.rotate().unwrap();
        j.append(10, b"b").unwrap();
        // A prune that drops nothing must not invent a marker.
        assert_eq!(j.prune_segments(0).unwrap(), 0);
        assert_eq!(pruned_floor(&dir).unwrap(), None);
        // A real prune records its floor; later prunes advance it.
        assert_eq!(j.prune_segments(7).unwrap(), 1);
        assert_eq!(pruned_floor(&dir).unwrap(), Some(7));
        j.rotate().unwrap();
        assert_eq!(j.prune_segments(11).unwrap(), 1);
        assert_eq!(pruned_floor(&dir).unwrap(), Some(11));
        // The marker survives reopen and detects corruption.
        drop(j);
        assert_eq!(pruned_floor(&dir).unwrap(), Some(11));
        let path = dir.join(FLOOR_NAME);
        let mut bytes = fs::read(&path).unwrap();
        bytes[12] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(pruned_floor(&dir), Err(PersistError::Corrupt(_))));
        fs::write(&path, b"short").unwrap();
        assert!(matches!(pruned_floor(&dir), Err(PersistError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_at_every_rotate_step_leaves_a_recoverable_directory() {
        for step in [RotateStep::BeforeRename, RotateStep::AfterRename, RotateStep::TornHeader] {
            let dir = test_dir("jrnl-rot-crash");
            let mut j = Journal::open(&dir).unwrap();
            j.append(0, b"durable-a").unwrap();
            j.append(1, b"durable-b").unwrap();
            j.sync().unwrap();
            j.set_rotate_crash(step);
            assert!(
                matches!(j.rotate(), Err(PersistError::InjectedCrash)),
                "{step:?}: crash must fire"
            );
            drop(j);

            // Whatever intermediate state the crash left, reopen absorbs
            // it and every durable entry survives.
            let (mut j, entries) = Journal::open_and_read(&dir).unwrap();
            let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![0, 1], "{step:?}: durable entries lost");
            j.append(2, b"post-crash").unwrap();
            j.rotate().unwrap();
            j.append(3, b"fresh").unwrap();
            drop(j);
            let seqs: Vec<u64> = Journal::read_all(&dir).unwrap().iter().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![0, 1, 2, 3], "{step:?}: post-crash appends lost");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn torn_sealed_segment_is_corruption_not_truncation() {
        let dir = test_dir("jrnl-seg-torn");
        let mut j = Journal::open(&dir).unwrap();
        j.append(0, b"sealed-entry").unwrap();
        j.rotate().unwrap();
        drop(j);
        let seg = dir.join(segment_name(0));
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(Journal::read_all(&dir), Err(PersistError::Corrupt(_))));
        assert!(matches!(Journal::open_and_read(&dir), Err(PersistError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }
}
