//! Durable filter state: a write-ahead journal of committed input chunks
//! plus periodic double-buffered checkpoints, built on `asf-persist`.
//!
//! ## Ordering contract
//!
//! The coordinator journals every ingestion chunk **before** applying it
//! (write-ahead), and syncs the append — so a chunk whose effects are in
//! memory is always replayable from disk. Checkpoints are taken at chunk
//! boundaries (SpecLog quiescence: every shard's speculation committed, no
//! pending reports), keyed by the coordinator's event sequence number.
//! Because the sharded runtime is byte-identical to the serial engine for
//! *any* chunking, replaying the journal suffix after loading a checkpoint
//! reproduces the pre-crash server exactly — answers, ledgers, views, and
//! rank order.
//!
//! ## Full images and deltas
//!
//! A checkpoint is a **full image** of the server, or a **delta**: the
//! rows changed since one full image (its *base*) plus the small
//! whole-state parts, written over `delta.bin` beside the two full slots.
//! The coordinator encodes the delta and keeps it while it is small
//! against its base, encoding the full image otherwise (see
//! [`crate::ShardedServer`]); recovery loads the newest valid full image,
//! applies the delta taken against it, if any, and replays the journal
//! from there. The journal-pruning floor advances to a checkpoint's
//! sequence once it lands, and a delta is only written once its base has
//! landed: after a background full save fails, a delta against it could
//! never be applied, so pruning to it would strand recovery, and writing
//! it would replace the delta (whose sequence the floor may already stand
//! on) that recovery still needs. Such deltas are dropped until the next
//! full image lands.
//!
//! ## Checkpoint modes
//!
//! * [`CheckpointMode::Background`] (default): serialization happens on the
//!   coordinator (that cost is the metered `checkpoint_ns`), but the
//!   `fsync`+rename runs on a dedicated writer thread behind a bounded
//!   channel of depth 1 — if the writer is still busy with the previous
//!   checkpoint, the new one is *coalesced* (skipped; retried at the next
//!   boundary), so ingest never blocks on checkpoint I/O. A coalesced
//!   checkpoint is never serialized: [`Durability::save_with`] takes the
//!   encoder and runs it only once the writer's queue slot is free.
//! * [`CheckpointMode::Sync`]: the save happens inline. Deterministic, and
//!   the mode under which checkpoint crash injection is supported.
//!
//! ## Poisoning
//!
//! The ingest path is not `Result`-typed, so a journal write failure
//! (including an injected [`CrashPoint`][asf_persist::CrashPoint] tear)
//! **poisons** the durability handle: the failing chunk and everything
//! after it are dropped, un-applied — exactly the state a process that
//! died mid-`write(2)` would leave behind. Tests then recover from the
//! directory and compare against a reference server fed only the durable
//! prefix.
//!
//! ## Compaction
//!
//! The journal is bounded by segment rotation: once the active file
//! crosses [`DurabilityConfig::rotate_journal_bytes`], it is sealed into
//! an immutable `journal-<k>.seg` segment and a fresh active file takes
//! over. Sealed segments older than the newest **durable** checkpoint —
//! tracked by a floor the checkpoint writer publishes only *after* a save
//! fully lands (so a queued-but-unwritten background checkpoint never
//! licenses a prune) — are deleted at the same quiescent boundaries.
//! Recovery replays segments in index order before the active file, so
//! compaction is invisible to the recovery differential.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use asf_persist::{Image, Journal, PersistError, RotateStep, SnapshotStore, StateWriter};

/// Configuration of a server's durability layer.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding `snap-a.bin` / `snap-b.bin` / `journal.log`
    /// (created if missing).
    pub dir: PathBuf,
    /// Take a checkpoint once at least this many events have been ingested
    /// since the last one (checked at chunk boundaries; clamped to ≥ 1).
    pub checkpoint_every_events: u64,
    /// Inline or background checkpoint writes.
    pub mode: CheckpointMode,
    /// Rotate the active journal into a sealed segment once it crosses
    /// this many bytes (checked at chunk boundaries); segments wholly
    /// superseded by a durable checkpoint are then pruned. `None`
    /// disables rotation (the pre-compaction unbounded-growth behavior).
    pub rotate_journal_bytes: Option<u64>,
}

impl DurabilityConfig {
    /// Durability in `dir` with the default cadence (one checkpoint per
    /// 65 536 events), background checkpoint writes, and journal rotation
    /// at 8 MiB.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            checkpoint_every_events: 65_536,
            mode: CheckpointMode::Background,
            rotate_journal_bytes: Some(8 * 1024 * 1024),
        }
    }

    /// Sets the checkpoint cadence in events.
    pub fn checkpoint_every(mut self, events: u64) -> Self {
        self.checkpoint_every_events = events;
        self
    }

    /// Sets the checkpoint write mode.
    pub fn mode(mut self, mode: CheckpointMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the journal rotation threshold in bytes (`None` disables
    /// rotation and pruning).
    pub fn rotate_journal_every(mut self, bytes: Option<u64>) -> Self {
        self.rotate_journal_bytes = bytes;
        self
    }
}

/// How checkpoint images reach disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckpointMode {
    /// Hand the serialized image to a dedicated writer thread (bounded
    /// queue of 1; a busy writer coalesces the checkpoint). Ingest never
    /// blocks on checkpoint `fsync`. The default.
    #[default]
    Background,
    /// Write and `fsync` inline on the coordinator. Deterministic; the
    /// mode crash-injection tests use.
    Sync,
}

/// A checkpoint handed to the writer: a full image taken at `seq`, or a
/// delta bringing the full image taken at `base` to `seq`.
#[derive(Clone, Copy, Debug)]
struct Checkpoint {
    seq: u64,
    base: Option<u64>,
}

/// The writer's record of what has landed on disk — the newest full image
/// — and the journal-pruning floor it publishes.
#[derive(Debug)]
struct Landed {
    full: Option<u64>,
    floor: Arc<AtomicU64>,
}

impl Landed {
    /// Durably writes `ckpt`'s `state` through `store`, then advances the
    /// floor to its sequence. A delta is written only over the newest full
    /// image that landed: one whose base save failed (possible in
    /// background mode) could never be applied, and writing it would
    /// replace the delta recovery still needs — the floor may already
    /// stand on that one's sequence.
    fn save<'a>(
        &mut self,
        store: &mut SnapshotStore,
        ckpt: Checkpoint,
        state: impl Into<Image<'a>>,
    ) -> asf_persist::Result<()> {
        match ckpt.base {
            None => {
                store.save(ckpt.seq, state)?;
                self.full = Some(ckpt.seq);
            }
            Some(base) if self.full != Some(base) => return Ok(()),
            Some(base) => store.save_delta(base, ckpt.seq, state)?,
        }
        self.floor.store(ckpt.seq, Ordering::Release);
        Ok(())
    }
}

enum Writer {
    Sync(SnapshotStore, Landed),
    Background {
        tx: SyncSender<(Checkpoint, StateWriter)>,
        /// Set by the coordinator before each send, cleared by the writer
        /// as it takes the image out of the queue: `true` means the
        /// queue's one slot is occupied and a new image would be
        /// coalesced.
        queued: Arc<AtomicBool>,
        join: JoinHandle<()>,
    },
}

impl std::fmt::Debug for Writer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Writer::Sync(..) => f.write_str("Writer::Sync"),
            Writer::Background { .. } => f.write_str("Writer::Background"),
        }
    }
}

/// The attached durability runtime of one [`crate::ShardedServer`]: the
/// open write-ahead journal, the checkpoint writer, and the poison latch.
#[derive(Debug)]
pub struct Durability {
    journal: Journal,
    writer: Writer,
    checkpoint_every_events: u64,
    last_checkpoint_seq: u64,
    rotate_journal_bytes: Option<u64>,
    /// Newest checkpoint sequence that has **fully landed on disk** —
    /// published by the writer only after a successful save (the
    /// background thread stores it post-`fsync`), and for a delta only if
    /// its base landed too, so pruning against it never outruns
    /// durability.
    durable_floor: Arc<AtomicU64>,
    /// First write failure, if any — once set, every subsequent journal or
    /// checkpoint operation is refused (the on-disk state is frozen at the
    /// durable prefix, as a real crash would leave it).
    poisoned: Option<String>,
}

impl Durability {
    /// Opens the journal and snapshot store in `cfg.dir`, durably writes
    /// the **anchor checkpoint** `(anchor_seq, anchor_state)` inline — the
    /// baseline that makes the journal's first post-attach entry reachable
    /// from a checkpoint — then stands up the configured writer.
    ///
    /// Opening the journal truncates any torn tail a previous crash left.
    pub fn new<'a>(
        cfg: &DurabilityConfig,
        anchor_seq: u64,
        anchor_state: impl Into<Image<'a>>,
    ) -> asf_persist::Result<Self> {
        let journal = Journal::open(&cfg.dir)?;
        let mut store = SnapshotStore::open(&cfg.dir)?;
        let durable_floor = Arc::new(AtomicU64::new(0));
        let mut landed = Landed { full: None, floor: Arc::clone(&durable_floor) };
        // The anchor save runs inline, so it is durable before any chunk
        // is journaled.
        let anchor = Checkpoint { seq: anchor_seq, base: None };
        landed.save(&mut store, anchor, anchor_state)?;
        let writer = Self::writer(cfg.mode, store, landed)?;
        Ok(Self {
            journal,
            writer,
            checkpoint_every_events: cfg.checkpoint_every_events.max(1),
            last_checkpoint_seq: anchor_seq,
            rotate_journal_bytes: cfg.rotate_journal_bytes,
            durable_floor,
            poisoned: None,
        })
    }

    /// Re-attaches to an existing durability directory after recovery
    /// **without** writing a fresh checkpoint: the on-disk snapshot + the
    /// journal already cover the recovered state, so re-anchoring would
    /// only add an O(state) write to the recovery path. The caller hands
    /// over the [`SnapshotStore`] and [`Journal`] it already opened
    /// (recovery reads the checkpoint and replays through them), so
    /// neither file is re-scanned. `resume_seq` is the sequence of the
    /// checkpoint recovery loaded (0 on a cold recovery); the checkpoint
    /// cadence counts from there, so a server that replayed a long suffix
    /// re-checkpoints at its next chunk boundary.
    pub fn attach(
        cfg: &DurabilityConfig,
        store: SnapshotStore,
        journal: Journal,
        resume_seq: u64,
    ) -> asf_persist::Result<Self> {
        // The checkpoint recovery loaded (`resume_seq`) is durable by
        // definition — it was read back off the disk, delta and base
        // alike. No full image has landed in this process yet, so no delta
        // may advance the floor until one does.
        let durable_floor = Arc::new(AtomicU64::new(resume_seq));
        let landed = Landed { full: None, floor: Arc::clone(&durable_floor) };
        let writer = Self::writer(cfg.mode, store, landed)?;
        Ok(Self {
            journal,
            writer,
            checkpoint_every_events: cfg.checkpoint_every_events.max(1),
            last_checkpoint_seq: resume_seq,
            rotate_journal_bytes: cfg.rotate_journal_bytes,
            durable_floor,
            poisoned: None,
        })
    }

    /// The configured writer over `store`.
    fn writer(
        mode: CheckpointMode,
        mut store: SnapshotStore,
        mut landed: Landed,
    ) -> asf_persist::Result<Writer> {
        match mode {
            CheckpointMode::Sync => Ok(Writer::Sync(store, landed)),
            // A failed background save leaves the previous checkpoint
            // selectable; the next boundary retries. The floor advances
            // only after the save fully lands.
            CheckpointMode::Background => Self::spawn_writer_with(move |ckpt, state| {
                let _ = landed.save(&mut store, ckpt, &state);
            }),
        }
    }

    /// The background writer loop around an arbitrary `save` (tests hold
    /// the writer busy, or fail a save, through it).
    fn spawn_writer_with(
        mut save: impl FnMut(Checkpoint, StateWriter) + Send + 'static,
    ) -> asf_persist::Result<Writer> {
        let (tx, rx) = mpsc::sync_channel::<(Checkpoint, StateWriter)>(1);
        let queued = Arc::new(AtomicBool::new(false));
        let slot = Arc::clone(&queued);
        let join = std::thread::Builder::new()
            .name("asf-checkpoint".into())
            .spawn(move || {
                while let Ok((ckpt, state)) = rx.recv() {
                    slot.store(false, Ordering::Release);
                    save(ckpt, state);
                }
            })
            .map_err(PersistError::Io)?;
        Ok(Writer::Background { tx, queued, join })
    }

    /// Appends one committed chunk (keyed by the event sequence it starts
    /// at) and syncs — the write-ahead barrier before the chunk applies.
    /// Any failure poisons the handle.
    pub fn journal_chunk(&mut self, seq: u64, payload: &[u8]) -> asf_persist::Result<()> {
        self.check_poison()?;
        match self.journal.append(seq, payload).and_then(|()| self.journal.sync()) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.poisoned = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// Whether the checkpoint cadence is due at event sequence `seq`.
    pub fn should_checkpoint(&self, seq: u64) -> bool {
        self.poisoned.is_none()
            && seq.saturating_sub(self.last_checkpoint_seq) >= self.checkpoint_every_events
    }

    /// Persists (or schedules) an already-encoded full checkpoint `state`
    /// taken at `seq` — [`Self::save_with`] for a caller that holds the
    /// image anyway (bare bytes: no row table is declared).
    pub fn save_checkpoint(&mut self, seq: u64, state: Vec<u8>) -> asf_persist::Result<bool> {
        self.save_with(seq, || (None, StateWriter::from(state)))
    }

    /// Persists (or schedules) a checkpoint taken at `seq`, calling
    /// `encode` only when the writer will take it: always in
    /// [`CheckpointMode::Sync`], and in [`CheckpointMode::Background`] only
    /// when the writer's queue slot is free. `encode` returns the image and
    /// its base: `None` for a full image, `Some(base_seq)` for a delta that
    /// brings the full image taken at `base_seq` to `seq` (a delta counts
    /// toward the cadence like a full image). Returns `Ok(true)` if the
    /// checkpoint was written/queued, `Ok(false)` if a busy background
    /// writer coalesced it (retried at the next boundary; `encode` did not
    /// run).
    pub fn save_with(
        &mut self,
        seq: u64,
        encode: impl FnOnce() -> (Option<u64>, StateWriter),
    ) -> asf_persist::Result<bool> {
        self.check_poison()?;
        match &mut self.writer {
            Writer::Sync(store, landed) => {
                let (base, state) = encode();
                match landed.save(store, Checkpoint { seq, base }, &state) {
                    Ok(()) => {
                        self.last_checkpoint_seq = seq;
                        Ok(true)
                    }
                    Err(e) => {
                        self.poisoned = Some(e.to_string());
                        Err(e)
                    }
                }
            }
            Writer::Background { tx, queued, join } => {
                // The queue's slot still holds an image the writer has not
                // taken: this checkpoint would be coalesced, so it is not
                // encoded. (A dead writer falls through to `try_send`,
                // which reports the disconnect.)
                if queued.load(Ordering::Acquire) && !join.is_finished() {
                    return Ok(false);
                }
                queued.store(true, Ordering::Release);
                let (base, state) = encode();
                match tx.try_send((Checkpoint { seq, base }, state)) {
                    Ok(()) => {
                        self.last_checkpoint_seq = seq;
                        Ok(true)
                    }
                    Err(TrySendError::Full(_)) => Ok(false),
                    Err(TrySendError::Disconnected(_)) => {
                        self.poisoned = Some("checkpoint writer thread died".into());
                        Err(PersistError::corrupt("checkpoint writer thread died"))
                    }
                }
            }
        }
    }

    /// Total journal footprint in bytes (headers included): the active
    /// file plus every sealed segment not yet pruned.
    pub fn journal_bytes(&self) -> u64 {
        self.journal.total_bytes()
    }

    /// Compaction step, run at chunk-end quiescence: rotates the active
    /// journal into a sealed segment once it crosses the configured
    /// threshold, then prunes sealed segments wholly superseded by the
    /// durable-checkpoint floor. Any failure poisons the handle (a crash
    /// mid-rotation leaves disk state only a reopen can re-validate).
    /// A no-op when rotation is disabled or the handle is poisoned.
    pub fn maybe_compact(&mut self) -> asf_persist::Result<()> {
        self.check_poison()?;
        let Some(threshold) = self.rotate_journal_bytes else {
            return Ok(());
        };
        if self.journal.len_bytes() >= threshold {
            if let Err(e) = self.journal.rotate() {
                self.poisoned = Some(e.to_string());
                return Err(e);
            }
        }
        if self.journal.sealed_segments() > 0 {
            let floor = self.durable_floor.load(Ordering::Acquire);
            if let Err(e) = self.journal.prune_segments(floor) {
                self.poisoned = Some(e.to_string());
                return Err(e);
            }
        }
        Ok(())
    }

    /// How many journal rotations this directory has ever performed.
    pub fn journal_rotations(&self) -> u64 {
        self.journal.rotations()
    }

    /// How many sealed journal segments are currently on disk.
    pub fn journal_sealed_segments(&self) -> usize {
        self.journal.sealed_segments()
    }

    /// Newest checkpoint sequence known to have fully landed on disk.
    pub fn durable_floor(&self) -> u64 {
        self.durable_floor.load(Ordering::Acquire)
    }

    /// Whether an earlier write failure froze this handle.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// The first write failure, if any.
    pub fn poison_reason(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Arms the journal's byte-budget crash injector: the next `bytes`
    /// journal bytes land, everything after tears (see
    /// [`asf_persist::CrashPoint`]).
    pub fn arm_journal_crash(&mut self, bytes: u64) {
        self.journal.set_crash_after(bytes);
    }

    /// Arms a crash at `step` of the next journal rotation (see
    /// [`RotateStep`]).
    pub fn arm_rotate_crash(&mut self, step: RotateStep) {
        self.journal.set_rotate_crash(step);
    }

    /// Arms the checkpoint store's crash injector.
    ///
    /// # Panics
    ///
    /// Panics unless the handle runs [`CheckpointMode::Sync`] — the
    /// background writer owns its store and cannot be armed
    /// deterministically.
    pub fn arm_checkpoint_crash(&mut self, bytes: u64) {
        match &mut self.writer {
            Writer::Sync(store, _) => store.set_crash_after(bytes),
            Writer::Background { .. } => {
                panic!("checkpoint crash injection requires CheckpointMode::Sync")
            }
        }
    }

    /// Stops the background writer (if any), draining its queue first so
    /// every scheduled checkpoint lands.
    pub fn shutdown(self) {
        let Durability { journal, writer, .. } = self;
        drop(journal);
        if let Writer::Background { tx, join, .. } = writer {
            drop(tx);
            let _ = join.join();
        }
    }

    fn check_poison(&self) -> asf_persist::Result<()> {
        if self.poisoned.is_some() {
            return Err(PersistError::corrupt("durability poisoned by an earlier write failure"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("asf-server-durability-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn anchor_checkpoint_lands_before_any_journaling() {
        let dir = test_dir("anchor");
        let cfg = DurabilityConfig::new(&dir).mode(CheckpointMode::Sync);
        let d = Durability::new(&cfg, 42, b"anchor-state").unwrap();
        drop(d);
        let (_, image) = SnapshotStore::open_and_latest(&dir).unwrap();
        let image = image.unwrap();
        assert_eq!((image.seq(), image.state()), (42, &b"anchor-state"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_tear_poisons_and_freezes_the_handle() {
        let dir = test_dir("poison");
        let cfg = DurabilityConfig::new(&dir).mode(CheckpointMode::Sync);
        let mut d = Durability::new(&cfg, 0, b"s").unwrap();
        d.journal_chunk(0, b"durable").unwrap();
        d.arm_journal_crash(3);
        assert!(matches!(d.journal_chunk(1, b"torn"), Err(PersistError::InjectedCrash)));
        assert!(d.is_poisoned());
        // Everything after the tear is refused — the disk state is frozen.
        assert!(d.journal_chunk(2, b"late").is_err());
        assert!(d.save_checkpoint(2, b"late".to_vec()).is_err());
        assert!(!d.should_checkpoint(u64::MAX));
        drop(d);
        // Reopen truncates the torn tail; only the durable entry replays.
        let entries = Journal::read_all(&dir).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].payload, b"durable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_cadence_counts_from_the_last_landed_checkpoint() {
        let dir = test_dir("cadence");
        let cfg = DurabilityConfig::new(&dir).checkpoint_every(100).mode(CheckpointMode::Sync);
        let mut d = Durability::new(&cfg, 0, b"s").unwrap();
        assert!(!d.should_checkpoint(99));
        assert!(d.should_checkpoint(100));
        assert!(d.save_checkpoint(100, b"c1".to_vec()).unwrap());
        assert!(!d.should_checkpoint(150));
        assert!(d.should_checkpoint(200));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rotates_and_prunes_behind_the_durable_floor() {
        let dir = test_dir("compact");
        let cfg = DurabilityConfig::new(&dir)
            .mode(CheckpointMode::Sync)
            .checkpoint_every(10)
            .rotate_journal_every(Some(64));
        let mut d = Durability::new(&cfg, 0, b"anchor").unwrap();
        assert_eq!(d.durable_floor(), 0);

        // Fill past the threshold: the next compact rotates, but the
        // floor is still at the anchor so nothing may be pruned.
        for seq in 0..4u64 {
            d.journal_chunk(seq * 10, &[7u8; 32]).unwrap();
        }
        d.maybe_compact().unwrap();
        assert_eq!(d.journal_rotations(), 1);
        assert_eq!(d.journal_sealed_segments(), 1);

        // A durable checkpoint past the sealed entries licenses the prune.
        assert!(d.save_checkpoint(40, b"ckpt".to_vec()).unwrap());
        assert_eq!(d.durable_floor(), 40);
        d.maybe_compact().unwrap();
        assert_eq!(d.journal_sealed_segments(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_crash_poisons_the_handle() {
        let dir = test_dir("rot-poison");
        let cfg =
            DurabilityConfig::new(&dir).mode(CheckpointMode::Sync).rotate_journal_every(Some(16));
        let mut d = Durability::new(&cfg, 0, b"s").unwrap();
        d.journal_chunk(0, b"durable").unwrap();
        d.arm_rotate_crash(RotateStep::AfterRename);
        assert!(matches!(d.maybe_compact(), Err(PersistError::InjectedCrash)));
        assert!(d.is_poisoned());
        assert!(d.journal_chunk(1, b"late").is_err());
        drop(d);
        // The sealed entry is still replayable after the mid-rotation
        // crash (journal.log is gone; the segment holds it).
        let entries = Journal::read_all(&dir).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].payload, b"durable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn busy_background_writer_never_encodes_a_coalesced_checkpoint() {
        let dir = test_dir("coalesce");
        let cfg = DurabilityConfig::new(&dir).mode(CheckpointMode::Sync);
        let mut d = Durability::new(&cfg, 0, b"anchor").unwrap();
        // A writer that announces each image it takes and then holds it
        // until released.
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        d.writer = Durability::spawn_writer_with(move |ckpt, _| {
            let _ = started_tx.send(ckpt.seq);
            let _ = release_rx.recv();
        })
        .unwrap();
        let encodes = std::cell::Cell::new(0);
        let encode = || {
            encodes.set(encodes.get() + 1);
            (None, StateWriter::from(b"image".to_vec()))
        };

        // The writer takes checkpoint 10 and stays busy with it; 20 fills
        // the queue's one slot.
        assert!(d.save_with(10, encode).unwrap());
        assert_eq!(started_rx.recv().unwrap(), 10);
        assert!(d.save_with(20, encode).unwrap());
        assert_eq!(encodes.get(), 2);
        // Every boundary while the slot is held coalesces without encoding.
        for _ in 0..3 {
            assert!(!d.save_with(30, encode).unwrap());
        }
        assert_eq!(encodes.get(), 2, "a coalesced checkpoint was encoded");
        // The writer finishes 10 and takes 20: the slot is free again, and
        // the next boundary encodes exactly once.
        release_tx.send(()).unwrap();
        assert_eq!(started_rx.recv().unwrap(), 20);
        assert!(d.save_with(30, encode).unwrap());
        assert_eq!(encodes.get(), 3);
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_delta_over_a_base_that_never_landed_is_not_written() {
        // Background mode: the delta to 5 lands over the anchor, the full
        // image at 10 fails to land, and the delta to 20 is taken against
        // it. Recovery could never apply that delta, so it must neither
        // move the floor nor replace the delta to 5 (whose sequence the
        // floor stands on); the next full image re-bases deltas.
        let dir = test_dir("delta-floor");
        let cfg = DurabilityConfig::new(&dir).mode(CheckpointMode::Sync);
        let mut d = Durability::new(&cfg, 0, b"anchor").unwrap();
        let mut store = SnapshotStore::open(&dir).unwrap();
        let mut landed = Landed { full: Some(0), floor: Arc::clone(&d.durable_floor) };
        let (done_tx, done_rx) = mpsc::channel();
        d.writer = Durability::spawn_writer_with(move |ckpt, state| {
            if ckpt.seq == 10 {
                store.set_crash_after(24);
            } else {
                store.clear_crash();
            }
            let _ = landed.save(&mut store, ckpt, &state);
            let _ = done_tx.send(());
        })
        .unwrap();
        let checkpoint = |d: &mut Durability, base: Option<u64>, seq: u64| {
            let image = format!("image {seq}").into_bytes();
            assert!(d.save_with(seq, || (base, image.into())).unwrap(), "the writer is idle");
            done_rx.recv().unwrap();
        };
        checkpoint(&mut d, Some(0), 5);
        assert_eq!(d.durable_floor(), 5);
        checkpoint(&mut d, None, 10);
        checkpoint(&mut d, Some(10), 20);
        assert_eq!(d.durable_floor(), 5, "the delta's base never landed");
        let (store, full) = SnapshotStore::open_and_latest(&dir).unwrap();
        assert_eq!(full.unwrap().seq(), 0);
        let delta = store.delta_for(0).unwrap().expect("the delta to 5 survives");
        assert_eq!((delta.seq(), delta.state()), (5, &b"image 5"[..]));
        checkpoint(&mut d, None, 30);
        checkpoint(&mut d, Some(30), 40);
        assert_eq!(d.durable_floor(), 40);
        assert_eq!(store.delta_for(30).unwrap().unwrap().seq(), 40);
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_writer_drains_on_shutdown() {
        let dir = test_dir("bg");
        let cfg = DurabilityConfig::new(&dir).mode(CheckpointMode::Background);
        let mut d = Durability::new(&cfg, 0, b"anchor").unwrap();
        assert!(d.save_checkpoint(10, b"ten".to_vec()).unwrap());
        d.shutdown();
        let (_, image) = SnapshotStore::open_and_latest(&dir).unwrap();
        assert_eq!(image.unwrap().seq(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
