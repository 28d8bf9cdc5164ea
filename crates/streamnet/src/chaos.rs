//! Unreliable source↔server channels: fault injection, filter epochs,
//! sequence numbers, leases, and the bookkeeping the repair path needs.
//!
//! The paper places filters at *remote* sources, so in a real deployment
//! every install, probe, and report crosses a lossy network. This module
//! models that network deterministically:
//!
//! * [`ChaosState`] holds one logical **channel** per source: the filter
//!   epoch installed at the source, send/receive sequence numbers for
//!   source→server frames, the lease (`last_heard`) used for liveness, and
//!   crash/outage status. All randomness comes from a seeded
//!   [`simkit::fault::FaultSchedule`]; all time from a
//!   [`simkit::time::TickClock`]. Wall-clock never appears.
//! * [`ChaosFleet`] decorates any [`FleetOps`] backend. Server→source
//!   operations (probes, installs, broadcasts) draw per-frame faults:
//!   dropped requests time out and are retried with capped exponential
//!   backoff ([`simkit::fault::Backoff`]), delayed requests advance the
//!   clock, duplicated requests are rejected idempotently at the source by
//!   epoch/sequence and metered as overhead. After the (simulated) channel
//!   finally delivers, the wrapped backend executes the operation **exactly
//!   once**, so retries never perturb authoritative state — they only cost
//!   simulated time and overhead frames.
//! * Source→server **reports** are admitted through
//!   [`ChaosState::admit_report`]: each is stamped with the channel's
//!   current `(epoch, seq)` and can be dropped, delayed (re-ordered), or
//!   duplicated. The server accepts a frame iff its epoch matches the
//!   source's current filter epoch and its sequence number advances the
//!   channel — stale and duplicate frames are rejected idempotently and
//!   leave a detectable sequence gap that the repair path closes with a
//!   re-probe.
//!
//! ## Epoch / lease state machine
//!
//! Every successful install bumps the source's epoch; reports carry the
//! epoch of the filter that produced them. A probe or an install-sync
//! supersedes all in-flight frames (`recv_seq = send_seq`), so anything
//! still parked in the network is rejected on arrival. At each quiescent
//! round (chunk end) every up source emits a heartbeat carrying its
//! `send_seq` and a restart flag; the server refreshes the lease, detects
//! gaps and restarts, and schedules re-probes. A source whose lease expires
//! (`now − last_heard > lease_ticks`) is **dead**: excluded from the
//! verified-live population until a heartbeat revives it, at which point it
//! is re-probed like any other repaired source.
//!
//! Faults cease at the schedule's horizon; after that every draw delivers
//! and the decorator is byte-transparent, which is what lets the chaos
//! differential suite demand exact convergence with a never-faulted run.
//!
//! ## Layout
//!
//! The round costs O(faults + changed channels), not O(n). A channel heard
//! in the last round, caught up, with nothing pending, is **steady**: it
//! carries no per-round state (its `last_heard` is the last round's tick)
//! and no round visits it. Everything else — a channel the schedule faulted
//! this round, one a report, probe, install or crash touched since the last
//! round, one that is down, dead, gapped, awaiting repair or whose lease
//! just adapted — is in the **exception set**, a bitmap over channel ids.
//! The round is one ascending pass over it with the per-channel rule a full
//! sweep would apply, plus one over the steady channels whose heartbeat the
//! schedule dropped. The schedule skip-samples which channels fault (one
//! draw per fault, see [`simkit::fault::FaultSchedule`]), and a lease is
//! `lease_ticks · 2^k` for k ≤ 4, so the steady channels fall into five
//! classes: when a round's gap would adapt a class, that class is swept
//! into the exception set first. The `flags` column stays dense, so a
//! steady channel stays verified without being written. Per-channel
//! equivalence with a full per-source sweep is proven against that sweep,
//! kept as the reference model in this module's tests; the draw order is
//! pinned by `tests/chaos_pinned.rs` (ARCHITECTURE.md §8 has the cost
//! model).
//!
//! ## Durability
//!
//! The whole machine — config, both fault-RNG streams and their gap
//! cursors, logical clock, every channel, the exception set, the
//! parked-frame pool, and the counters — round-trips through
//! [`ChaosState::encode_rows`] / [`ChaosState::decode_rows`], so a durable
//! server checkpoints its channel layer alongside protocol state and a
//! crash+recover *inside* a fault window resumes the exact decision stream
//! (see `asf-server`'s chaos-recovery differential suite). The record is
//! one part list ([`asf_persist::persist!`]); a record of any version but
//! the current one is rejected.
//!
//! A checkpoint may carry only the channels that changed
//! ([`ChaosState::encode_rows`] of [`Rows::Dirty`]): each selected channel's
//! 34-byte row behind its index, everything else whole. A channel's row is
//! its cold record, its recorded flags and its lease class. Every write to
//! the cold record (a report sent or accepted, a crash, an install, a sync)
//! and every lease-class change marks the channel dirty. Making a channel an
//! exception does not: class sweeps and lost steady heartbeats touch
//! channels that are steady again, row unchanged, a round later (marking
//! them would select 59% of `asf_bench`'s `chaos_lossy` channels between
//! two checkpoints instead of 11.5%). Flags need no mark either, because a
//! channel outside the exception set has the steady flags: a delta selects
//! every marked channel and every current exception, and a full image
//! seeds the marks with its exceptions whose flags are not the steady ones,
//! so a channel that is steady now is written if its flags differ from the
//! image's. A steady channel's `last_heard` is implicit, so it needs no
//! row. [`ChaosState::decode_rows`] applies such a delta onto the full
//! image it was taken against and re-derives and re-checks everything the
//! rows do not carry.

use asf_persist::{persist, Persist, PersistError, Rows, StateReader, StateWriter};
use simkit::fault::{Backoff, FaultDecision, FaultMix, FaultSchedule};
use simkit::time::TickClock;

use crate::filter::Filter;
use crate::fleet::FleetOps;
use crate::rows::DirtyRows;
use crate::StreamId;

/// Configuration of one unreliable-fleet simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the fault schedule's RNG stream.
    pub seed: u64,
    /// Per-frame fault probabilities and crash parameters.
    pub mix: FaultMix,
    /// Tick at which faults cease (the convergence boundary).
    pub fault_horizon_ticks: u64,
    /// Lease length: a source unheard-from for longer is declared dead.
    pub lease_ticks: u64,
    /// Simulated timeout charged per dropped request before a retry.
    pub timeout_ticks: u64,
    /// Retry backoff policy for server→source requests.
    pub backoff: Backoff,
    /// Retry cap: after this many timeouts the frame is force-delivered
    /// (keeps handler-time bounded under adversarial schedules).
    pub max_retries: u32,
}

persist!(impl Persist for ChaosConfig {
    seed: u64,
    mix: FaultMix,
    fault_horizon_ticks: u64,
    lease_ticks: u64,
    timeout_ticks: u64,
    backoff: Backoff,
    max_retries: u32,
});

/// Ceiling of a channel's lease, as a multiple of the configured
/// [`ChaosConfig::lease_ticks`] floor. Each lease adapts to its channel's
/// observed heartbeat jitter, by doubling and halving between the two.
pub const MAX_LEASE_FACTOR: u64 = 16;

/// Version tag of the serialized chaos-state record
/// ([`ChaosState::encode_rows`] / [`ChaosState::decode_rows`]), the only
/// version read.
const CHAOS_STATE_VERSION: u8 = 2;

/// The adaptive-lease and batched-repair flag bytes after the config in a
/// record: both mechanisms are always on, and the bytes stay so that
/// records keep their layout.
const ALWAYS_ON: [bool; 2] = [true, true];

impl ChaosConfig {
    /// Creates a config with conventional lease/backoff defaults.
    pub fn new(seed: u64, mix: FaultMix, fault_horizon_ticks: u64) -> Self {
        Self {
            seed,
            mix,
            fault_horizon_ticks,
            lease_ticks: 2_048,
            timeout_ticks: 8,
            backoff: Backoff::new(4, 256),
            max_retries: 16,
        }
    }

    /// Overrides the lease length (the floor of every channel's lease).
    pub fn lease_ticks(mut self, ticks: u64) -> Self {
        self.lease_ticks = ticks;
        self
    }

    /// The config, whole under either selection: a full image's replaces
    /// the machine's, and a delta must repeat its base's.
    fn encode_rows(&self, w: &mut StateWriter, _rows: Rows) {
        self.put(w);
    }

    fn decode_rows(&mut self, r: &mut StateReader<'_>, rows: Rows) -> asf_persist::Result<()> {
        let cfg = Self::get(r)?;
        if rows == Rows::Dirty && cfg != *self {
            return Err(PersistError::corrupt("chaos delta config differs from its base"));
        }
        *self = cfg;
        Ok(())
    }
}

/// Counters describing everything the fault layer did.
///
/// `overhead_frames` is the headline number: extra frames on the wire
/// (retransmissions, duplicate ghosts, heartbeats) that a reliable network
/// would not have carried. The authoritative [`crate::Ledger`] never includes
/// them — it meters the logical protocol, the chaos layer meters the noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Server→source requests retransmitted after a timeout.
    pub retries: u64,
    /// Timeouts observed (one per dropped request frame).
    pub timeouts: u64,
    /// Frames rejected idempotently by epoch or sequence number.
    pub epoch_rejects: u64,
    /// Reports lost in the channel (or swallowed by a source outage).
    pub reports_lost: u64,
    /// Reports delayed for later, out-of-order delivery.
    pub reports_delayed: u64,
    /// Duplicate ghost frames injected.
    pub dup_frames: u64,
    /// Heartbeat frames emitted at quiescent rounds.
    pub heartbeats_sent: u64,
    /// Heartbeat frames lost in the channel.
    pub heartbeats_lost: u64,
    /// Source crash-restarts injected.
    pub crashes: u64,
    /// Sources re-probed by the repair path.
    pub repaired_sources: u64,
    /// Total extra frames beyond the logical protocol.
    pub overhead_frames: u64,
    /// Delivered heartbeats that refreshed a channel's lease.
    pub lease_renewals: u64,
    /// Leases that expired (sources newly declared dead).
    pub lease_expirations: u64,
    /// Lease expirations of sources that were actually up (their
    /// heartbeats were lost in the channel) — the false positives the
    /// adaptive lease exists to cut.
    pub spurious_expirations: u64,
    /// Chunk-end repair fan-outs charged as a single batched frame.
    pub repair_batches: u64,
    /// Request frames charged for chunk-end repair re-probes: one per
    /// repair fan-out, however many channels it re-probes.
    pub repair_frames: u64,
}

persist!(impl Persist for ChaosStats {
    retries: u64,
    timeouts: u64,
    epoch_rejects: u64,
    reports_lost: u64,
    reports_delayed: u64,
    dup_frames: u64,
    heartbeats_sent: u64,
    heartbeats_lost: u64,
    crashes: u64,
    repaired_sources: u64,
    overhead_frames: u64,
    lease_renewals: u64,
    lease_expirations: u64,
    spurious_expirations: u64,
    repair_batches: u64,
    repair_frames: u64,
});

/// Fate of one source→server report at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFate {
    /// Delivered in order; the caller should ingest it now.
    Deliver,
    /// Lost; the caller must not ingest it (the source still believes it
    /// reported — exactly the inconsistency the repair path exists for).
    Lost,
    /// Delayed; [`ChaosState::take_due_reports`] will surface it later.
    Parked,
}

/// Re-probe / degradation work discovered at a quiescent round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairPlan {
    /// Live sources that need a repair re-probe (sequence gap, restart, or
    /// lease rejoin).
    pub reprobe: Vec<StreamId>,
    /// Sources whose lease expired this round (newly dead).
    pub newly_dead: Vec<StreamId>,
}

impl RepairPlan {
    /// Whether the plan contains no work.
    pub fn is_empty(&self) -> bool {
        self.reprobe.is_empty() && self.newly_dead.is_empty()
    }
}

/// Per-source **cold** record: the epoch / sequence machine and the crash
/// outage. The lease machine lives in [`ChaosState`]'s hot columns.
#[derive(Debug, Clone, Copy, Default)]
struct Channel {
    /// Epoch of the filter currently installed at the source.
    epoch: u64,
    /// Frames the source has sent (stamped on each report).
    send_seq: u64,
    /// Highest source frame the server has accepted or superseded; never
    /// above `send_seq`.
    recv_seq: u64,
    /// The source is down (crash outage) until this tick.
    down_until: u64,
}

persist!(impl Persist for Channel {
    epoch: u64,
    send_seq: u64,
    recv_seq: u64,
    down_until: u64,
} check Channel::check);

impl Channel {
    fn check(&self) -> asf_persist::Result<()> {
        if self.recv_seq > self.send_seq {
            return Err(PersistError::corrupt("chaos channel received past sent"));
        }
        Ok(())
    }
}

/// A channel's row in a record: its cold record, its recorded flags and
/// its lease class.
struct ChannelRow {
    channel: Channel,
    flags: u8,
    class: u8,
}

persist!(impl Persist for ChannelRow { channel: Channel, flags: u8, class: u8 } check ChannelRow::check);

impl ChannelRow {
    fn check(&self) -> asf_persist::Result<()> {
        let flags = self.flags;
        if flags & !RECORDED != 0 || flags & (DEAD | VERIFIED) == DEAD | VERIFIED {
            return Err(PersistError::corrupt("chaos channel flags malformed"));
        }
        if self.class as usize >= LEASE_CLASSES {
            return Err(PersistError::corrupt("chaos lease length out of bounds"));
        }
        Ok(())
    }
}

/// The source restarted (or rejoined) and needs a repair re-probe.
const NEEDS_REPAIR: u8 = 1 << 0;
/// Heartbeat arrived in the current quiescent round.
const HEARD: u8 = 1 << 1;
/// Channel fully caught up as of the last completed round.
const VERIFIED: u8 = 1 << 2;
/// The lease expired and no frame has revived the source yet.
const DEAD: u8 = 1 << 3;
/// `recv_seq < send_seq`, maintained wherever either number moves.
const GAP: u8 = 1 << 4;
/// A crash set `down_until` and no round has seen it pass yet. Clear means
/// `now >= down_until` without looking; set means "compare".
const MAYBE_DOWN: u8 = 1 << 5;
/// Set by `heartbeat_round` when the heartbeat adapted the lease, read and
/// cleared by `finish_round`: the channel stays an exception for one more
/// round, since the next gap may adapt it again.
const ADAPTED: u8 = 1 << 6;
/// An exception channel's heartbeat was dropped this round; lives inside
/// `heartbeat_round` only.
const LOST: u8 = 1 << 7;
/// The bits a record carries (`GAP` and `MAYBE_DOWN` are derived from the
/// cold record; `ADAPTED` and `LOST` never outlive a round).
const RECORDED: u8 = NEEDS_REPAIR | HEARD | VERIFIED | DEAD;
/// The flags of a **steady** channel: heard in the last round, caught up,
/// nothing pending. Only steady channels may leave the exception set.
const STEADY: u8 = HEARD | VERIFIED;

/// Lease classes: a channel's lease is `lease_ticks · 2^k` for
/// `k < LEASE_CLASSES`.
const LEASE_CLASSES: usize = MAX_LEASE_FACTOR.trailing_zeros() as usize + 1;

/// A config's lease length per class: `lease_ticks · 2^k`.
#[derive(Debug, Clone, Copy)]
struct Leases([u64; LEASE_CLASSES]);

impl Leases {
    fn new(lease_ticks: u64) -> Self {
        Self(std::array::from_fn(|k| lease_ticks.saturating_mul(1 << k)))
    }

    /// The class a delivered heartbeat moves a class-`k` channel to after
    /// `gap` silent ticks: the gap is the channel's observed heartbeat
    /// jitter, and one eating more than half the lease doubles it (up to
    /// the ceiling), one under an eighth halves it back toward the
    /// configured floor. Pure integer arithmetic on deterministic
    /// quantities — no clock, no RNG.
    fn adapted(&self, k: u8, gap: u64) -> u8 {
        let lease = self.0[k as usize];
        let to = if gap.saturating_mul(2) > lease {
            (k + 1).min(LEASE_CLASSES as u8 - 1)
        } else if gap.saturating_mul(8) < lease {
            k.saturating_sub(1)
        } else {
            k
        };
        if self.0[to as usize] == lease {
            k
        } else {
            to
        }
    }
}

/// An exception bitmap holding every one of `n` channels.
fn all_exceptions(n: usize) -> Vec<u64> {
    let mut bits = vec![u64::MAX; n.div_ceil(64)];
    if let Some(last) = bits.last_mut().filter(|_| n % 64 != 0) {
        *last = (1 << (n % 64)) - 1;
    }
    bits
}

fn set_flag(flags: &mut u8, bit: u8, on: bool) {
    *flags = if on { *flags | bit } else { *flags & !bit };
}

/// A report frame sitting in the simulated network.
#[derive(Debug, Clone, Copy)]
struct ParkedReport {
    due: u64,
    seq: u64,
    epoch: u64,
    id: StreamId,
    value: f64,
}

persist!(impl Persist for ParkedReport {
    due: u64,
    seq: u64,
    epoch: u64,
    id: StreamId,
    value: f64,
});

/// All channel state of the unreliable fleet plus the fault source.
#[derive(Debug, Clone)]
pub struct ChaosState {
    cfg: ChaosConfig,
    schedule: FaultSchedule,
    clock: TickClock,
    /// The per-channel columns.
    channels: Channels,
    leases: Leases,
    /// Channels outside the exception set, per lease class.
    steady: [usize; LEASE_CLASSES],
    /// Tick of the last heartbeat round: when every steady channel was last
    /// heard.
    round_tick: u64,
    /// Channels with `DEAD` set.
    dead: usize,
    /// The last round's heartbeat faults on up channels, ascending
    /// `(channel, dropped)`.
    faults: Vec<(u32, bool)>,
    /// Scratch for [`ChaosState::draw_crashes`].
    crashes: Vec<(u32, u64)>,
    parked: Vec<ParkedReport>,
    /// Scratch for [`ChaosState::take_due_reports`]; empty between calls.
    due: Vec<ParkedReport>,
    stats: ChaosStats,
    /// Lease lengths that changed this round (drained by the server into
    /// its `lease_len` histogram). Empty at every quiescent checkpoint.
    lease_samples: Vec<u64>,
    /// Set by the server around the chunk-end repair pass so the fleet
    /// decorator knows a `probe_many` is a repair fan-out. Transient —
    /// never set across a checkpoint.
    repair_window: bool,
}

/// The per-channel columns of a [`ChaosState`], one row per source.
#[derive(Debug, Clone, Default)]
struct Channels {
    /// Cold per-source records.
    cold: Vec<Channel>,
    /// Hot column: tick at which the server last heard from an exception
    /// channel. A steady channel's entry is stale — it was heard at
    /// `round_tick` — and is rewritten when the channel becomes an
    /// exception again.
    last_heard: Vec<u64>,
    /// Hot column: the lease class.
    lease_class: Vec<u8>,
    /// Hot column: `NEEDS_REPAIR | HEARD | VERIFIED | DEAD | GAP |
    /// MAYBE_DOWN`, plus the in-round `ADAPTED` and `LOST`.
    flags: Vec<u8>,
    /// The exception set, one bit per channel: every channel that is not
    /// steady, whose lease just adapted, or that a report, probe, install or
    /// crash touched since the last round. Rounds visit only these.
    exceptions: Vec<u64>,
    /// Channels whose row was written since the last full image, seeded
    /// with that image's non-steady exceptions (see the module's
    /// "Durability").
    dirty: DirtyRows,
}

impl ChaosState {
    /// Creates channel state for `n` sources.
    ///
    /// Channels start fully caught up: the server is expected to have
    /// initialized (probed the world) over a reliable channel before chaos
    /// is attached. None has been heard in a round yet, so all start as
    /// exceptions; the first round settles them.
    pub fn new(n: usize, cfg: ChaosConfig) -> Self {
        let schedule = FaultSchedule::new(cfg.seed, cfg.mix, cfg.fault_horizon_ticks);
        Self {
            schedule,
            clock: TickClock::new(),
            channels: Channels::new(n),
            leases: Leases::new(cfg.lease_ticks),
            steady: [0; LEASE_CLASSES],
            round_tick: 0,
            dead: 0,
            faults: Vec::new(),
            crashes: Vec::new(),
            parked: Vec::new(),
            due: Vec::new(),
            stats: ChaosStats::default(),
            lease_samples: Vec::new(),
            repair_window: false,
            cfg,
        }
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.cold.len()
    }

    /// Whether there are zero channels.
    pub fn is_empty(&self) -> bool {
        self.channels.cold.is_empty()
    }

    /// Current logical tick.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Advances the logical clock (one tick per ingested event by
    /// convention).
    pub fn advance(&mut self, ticks: u64) {
        self.clock.advance(ticks);
    }

    /// Whether the fault schedule can still produce faults.
    pub fn faults_active(&self) -> bool {
        self.schedule.active(self.clock.now())
    }

    /// Fault-layer counters so far.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Filter epoch currently installed at a source.
    pub fn epoch_of(&self, id: StreamId) -> u64 {
        self.channels.cold[id.index()].epoch
    }

    /// Highest frame sequence the source has sent.
    pub fn send_seq_of(&self, id: StreamId) -> u64 {
        self.channels.cold[id.index()].send_seq
    }

    /// Highest frame sequence the server has accounted for.
    pub fn recv_seq_of(&self, id: StreamId) -> u64 {
        self.channels.cold[id.index()].recv_seq
    }

    /// Number of report frames still parked in the simulated network.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// A channel's current lease length in ticks (equals the configured
    /// `lease_ticks` unless adaptive leases have grown or shrunk it).
    pub fn lease_len_of(&self, id: StreamId) -> u64 {
        self.leases.0[self.channels.lease_class[id.index()] as usize]
    }

    /// Drains the lease lengths that changed since the last drain — the
    /// server feeds these into its `lease_len` histogram. The buffer keeps
    /// its capacity for the next round.
    pub fn drain_lease_samples(&mut self) -> std::vec::Drain<'_, u64> {
        self.lease_samples.drain(..)
    }

    /// Marks the start (`true`) / end (`false`) of a chunk-end repair
    /// pass: while set, a `probe_many` through [`ChaosFleet`] is charged as
    /// one fan-out frame rather than one frame per channel.
    pub fn set_repair_window(&mut self, on: bool) {
        self.repair_window = on;
    }

    /// Number of sources currently considered dead (lease expired).
    pub fn dead_count(&self) -> usize {
        self.dead
    }

    /// Whether a source's lease has expired.
    pub fn is_dead(&self, id: StreamId) -> bool {
        self.channels.flags[id.index()] & DEAD != 0
    }

    /// Ids of all currently-dead sources, ascending.
    pub fn dead_ids(&self) -> Vec<StreamId> {
        self.ids_with(DEAD)
    }

    /// Whether the source's channel was fully caught up (heartbeat
    /// delivered, no sequence gap, not down, lease valid) as of the last
    /// completed quiescent round.
    ///
    /// The in-fault oracle checks tolerance bounds over exactly this
    /// population: these are the sources whose view entries the server can
    /// currently vouch for.
    pub fn is_verified(&self, id: StreamId) -> bool {
        self.channels.flags[id.index()] & VERIFIED != 0
    }

    /// Ids of all verified-live sources, ascending.
    pub fn verified_live_ids(&self) -> Vec<StreamId> {
        self.ids_with(VERIFIED)
    }

    fn ids_with(&self, bit: u8) -> Vec<StreamId> {
        let set = self.channels.flags.iter().enumerate().filter(|(_, &f)| f & bit != 0);
        set.map(|(i, _)| StreamId(i as u32)).collect()
    }

    fn is_up(&self, i: usize, now: u64) -> bool {
        self.channels.flags[i] & MAYBE_DOWN == 0 || now >= self.channels.cold[i].down_until
    }

    /// Makes channel `i` an exception — every writer outside the round
    /// calls this before it changes the channel — so its implicit
    /// `last_heard` becomes explicit.
    fn touch(&mut self, i: usize) {
        if !self.channels.is_exception(i) {
            self.channels.exceptions[i / 64] |= 1 << (i % 64);
            self.channels.last_heard[i] = self.round_tick;
            self.steady[self.channels.lease_class[i] as usize] -= 1;
        }
    }

    /// The server accepted frame `seq` of channel `i` at tick `now`.
    fn accept_frame(&mut self, i: usize, seq: u64, now: u64) {
        self.touch(i);
        self.channels.dirty.mark(i);
        let ch = &mut self.channels.cold[i];
        ch.recv_seq = seq;
        self.channels.last_heard[i] = now;
        set_flag(&mut self.channels.flags[i], GAP, seq < ch.send_seq);
    }

    /// Admits one source→server report, stamping it with the channel's
    /// current `(epoch, seq)` and drawing its fate.
    pub fn admit_report(&mut self, id: StreamId, value: f64) -> ReportFate {
        let now = self.clock.now();
        let i = id.index();
        if now < self.channels.cold[i].down_until {
            // The reporting process is down; the frame is never sent. The
            // value evolution itself continues (sensor hardware keeps
            // running) — only the channel is dark.
            self.stats.reports_lost += 1;
            return ReportFate::Lost;
        }
        self.touch(i);
        self.channels.dirty.mark(i);
        let ch = &mut self.channels.cold[i];
        ch.send_seq += 1;
        self.channels.flags[i] |= GAP; // until the server accepts the frame
        let (seq, epoch) = (ch.send_seq, ch.epoch);
        match self.schedule.draw(now) {
            FaultDecision::Drop => {
                self.stats.reports_lost += 1;
                ReportFate::Lost
            }
            FaultDecision::Delay(ticks) => {
                self.stats.reports_delayed += 1;
                self.parked.push(ParkedReport { due: now + ticks, seq, epoch, id, value });
                ReportFate::Parked
            }
            FaultDecision::Duplicate => {
                self.stats.dup_frames += 1;
                self.stats.overhead_frames += 1;
                // Ghost copy arrives shortly after; the sequence rule will
                // reject it.
                self.parked.push(ParkedReport { due: now + 1, seq, epoch, id, value });
                self.accept_frame(i, seq, now);
                ReportFate::Deliver
            }
            FaultDecision::Deliver => {
                self.accept_frame(i, seq, now);
                ReportFate::Deliver
            }
        }
    }

    /// Surfaces parked reports whose delivery tick has arrived, applying
    /// the epoch/sequence acceptance rule. Accepted `(id, value)` pairs are
    /// appended to `out` in deterministic `(due, id, seq)` order; stale and
    /// duplicate frames are rejected idempotently (and leave any sequence
    /// gap in place for the repair path to close).
    pub fn take_due_reports(&mut self, out: &mut Vec<(StreamId, f64)>) {
        out.clear();
        let now = self.clock.now();
        let mut due = std::mem::take(&mut self.due);
        self.parked.retain(|f| {
            if f.due <= now {
                due.push(*f);
            }
            f.due > now
        });
        // `(id, seq)` names one frame of the pool, so the keys are unique
        // and the unstable sort is as deterministic as a stable one.
        due.sort_unstable_by_key(|f| (f.due, f.id.0, f.seq));
        for f in due.drain(..) {
            let ch = &self.channels.cold[f.id.index()];
            if f.epoch == ch.epoch && f.seq > ch.recv_seq {
                self.accept_frame(f.id.index(), f.seq, now);
                out.push((f.id, f.value));
            } else {
                self.stats.epoch_rejects += 1;
            }
        }
        self.due = due;
    }

    /// Draws crash-restarts for this round (no-op once faults ceased).
    ///
    /// A crashed source goes dark for a bounded outage: its reports are
    /// swallowed, its heartbeats stop (so its lease eventually expires),
    /// and it is flagged for a repair re-probe once it is heard from again.
    /// The schedule draws the gap from one crashed channel to the next; a
    /// hit on a channel that is already down is void.
    pub fn draw_crashes(&mut self) {
        let now = self.clock.now();
        let mut crashes = std::mem::take(&mut self.crashes);
        crashes.clear();
        self.schedule.crashes(now, self.len(), &mut crashes);
        for &(c, outage) in &crashes {
            let i = c as usize;
            if !self.is_up(i, now) {
                continue;
            }
            self.touch(i);
            self.channels.dirty.mark(i);
            self.stats.crashes += 1;
            self.channels.cold[i].down_until = now + outage;
            self.channels.flags[i] =
                (self.channels.flags[i] | NEEDS_REPAIR | MAYBE_DOWN) & !VERIFIED;
        }
        self.crashes = crashes;
    }

    /// Runs the heartbeat + lease round: every up source emits a heartbeat
    /// frame (fault-droppable, metered as overhead, never in the ledger)
    /// carrying its `send_seq` and restart flag. Returns the repair work
    /// the server must execute before calling [`ChaosState::finish_round`].
    pub fn heartbeat_round(&mut self) -> RepairPlan {
        let mut plan = RepairPlan::default();
        self.heartbeat_round_into(&mut plan);
        plan
    }

    /// [`ChaosState::heartbeat_round`] into a caller-owned plan, which is
    /// cleared first and keeps its capacity from round to round.
    ///
    /// The round visits only the exception set and this round's lost
    /// heartbeats. A steady channel the schedule did not fault is heard
    /// again, and nothing about it changes unless this round's gap adapts
    /// its lease class — in which case the whole class is swept into the
    /// exception set first.
    pub fn heartbeat_round_into(&mut self, plan: &mut RepairPlan) {
        plan.reprobe.clear();
        plan.newly_dead.clear();
        let now = self.clock.now();
        let n = self.len();
        // Every steady channel was last heard at `round_tick`.
        let gap = now.saturating_sub(self.round_tick);
        // (1) Sweep each steady class whose lease this gap adapts.
        for k in 0..LEASE_CLASSES as u8 {
            if self.steady[k as usize] > 0 && self.leases.adapted(k, gap) != k {
                for i in 0..n {
                    if self.channels.lease_class[i] == k {
                        self.touch(i);
                    }
                }
            }
        }
        // (2) The schedule's faults. A down source sends nothing, so a hit
        // on it is void. A duplicated heartbeat still renews the lease, so
        // it leaves a steady channel as it was; a dropped one is settled in
        // (3) for an exception and in (4) for a steady channel.
        let mut faults = std::mem::take(&mut self.faults);
        faults.clear();
        self.schedule.heartbeat_faults(now, n, &mut faults);
        faults.retain(|&(c, _)| self.is_up(c as usize, now));
        let (mut lost, mut dups) = (0u64, 0u64);
        for &(c, dropped) in &faults {
            if dropped {
                lost += 1;
                if self.channels.is_exception(c as usize) {
                    self.channels.flags[c as usize] |= LOST;
                }
            } else {
                dups += 1;
            }
        }
        // (3) One ascending pass over the exception set, applying the rule
        // a full per-source sweep applies to every channel.
        let (mut down, mut spurious) = (0u64, 0u64);
        if self.steady.iter().sum::<usize>() < n {
            let Self { channels, steady, dead, leases, lease_samples, .. } = self;
            let Channels { cold, last_heard, lease_class, flags, exceptions, dirty } = channels;
            // Slices keep the columns' bases and lengths in registers.
            let (channels, last_heard) = (cold.as_slice(), last_heard.as_mut_slice());
            let (lease_class, flags) = (lease_class.as_mut_slice(), flags.as_mut_slice());
            for (w, word) in exceptions.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let old = flags[i];
                    let mut f = old & !(HEARD | ADAPTED | LOST);
                    let up = f & MAYBE_DOWN == 0 || now >= channels[i].down_until;
                    if up {
                        f &= !MAYBE_DOWN;
                    } else {
                        down += 1;
                    }
                    let delivered = up && old & LOST == 0;
                    let before = last_heard[i];
                    let mut k = lease_class[i];
                    if delivered {
                        let to = leases.adapted(k, now.saturating_sub(before));
                        if to != k {
                            k = to;
                            lease_class[i] = k;
                            dirty.mark(i);
                            lease_samples.push(leases.0[k as usize]);
                            f |= ADAPTED;
                        }
                        last_heard[i] = now;
                        f |= HEARD;
                    }
                    let expired = now.saturating_sub(last_heard[i]) > leases.0[k as usize];
                    if expired && f & DEAD == 0 {
                        f = (f | DEAD) & !VERIFIED;
                        *dead += 1;
                        // An up source whose lease expired only lost
                        // heartbeats in the channel: a false positive.
                        spurious += u64::from(up);
                        plan.newly_dead.push(StreamId(i as u32));
                    } else if !expired && f & DEAD != 0 {
                        // Heard again: the source rejoins and must be
                        // re-probed.
                        f = (f & !DEAD) | NEEDS_REPAIR;
                        *dead -= 1;
                    }
                    if f & (NEEDS_REPAIR | GAP) != 0 && f & (HEARD | DEAD) == HEARD {
                        plan.reprobe.push(StreamId(i as u32));
                    }
                    flags[i] = f;
                    // `HEARD` implies `last_heard == now`.
                    if f == STEADY {
                        *word &= !(1 << (i % 64));
                        steady[k as usize] += 1;
                    }
                }
            }
        }
        // (4) A steady channel whose heartbeat was dropped: still unheard
        // since `round_tick`, so it expires iff its class's lease is shorter
        // than the gap. (Pass (3) released no lost channel, so "steady" reads
        // the same as it did in (2).)
        let newly_dead = plan.newly_dead.len();
        for &(c, dropped) in &faults {
            let i = c as usize;
            if !dropped || self.channels.is_exception(i) {
                continue;
            }
            self.touch(i);
            self.channels.flags[i] = STEADY & !HEARD;
            if gap > self.leases.0[self.channels.lease_class[i] as usize] {
                self.channels.flags[i] = DEAD;
                self.dead += 1;
                spurious += 1;
                plan.newly_dead.push(StreamId(c));
            }
        }
        if plan.newly_dead.len() > newly_dead {
            plan.newly_dead.sort_unstable();
        }
        self.faults = faults;
        self.round_tick = now;
        let sent = (n as u64) - down;
        let stats = &mut self.stats;
        stats.heartbeats_sent += sent;
        stats.heartbeats_lost += lost;
        stats.overhead_frames += sent + dups;
        stats.lease_renewals += sent - lost;
        stats.lease_expirations += plan.newly_dead.len() as u64;
        stats.spurious_expirations += spurious;
        stats.repaired_sources += plan.reprobe.len() as u64;
    }

    /// Recomputes verified-live flags after the round's repair work ran —
    /// over the exception set only: a steady channel stays verified.
    pub fn finish_round(&mut self) {
        if self.steady.iter().sum::<usize>() == self.len() {
            return;
        }
        let now = self.clock.now();
        let round_tick = self.round_tick;
        let Self { channels, steady, .. } = self;
        let Channels { cold, last_heard, lease_class, flags, exceptions, .. } = channels;
        let (channels, last_heard) = (cold.as_slice(), last_heard.as_slice());
        let (lease_class, flags) = (lease_class.as_slice(), flags.as_mut_slice());
        for (w, word) in exceptions.iter_mut().enumerate() {
            let (mut bits, mut keep) = (*word, *word);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let f = flags[i];
                let up = f & MAYBE_DOWN == 0 || now >= channels[i].down_until;
                let caught_up = (f & (DEAD | HEARD | NEEDS_REPAIR | GAP) == HEARD) & up;
                let settled = (f & !(ADAPTED | VERIFIED)) | (u8::from(caught_up) * VERIFIED);
                flags[i] = settled;
                // Branch-free: lost and recovering channels interleave at
                // random, so whether one settles is a coin flip.
                let release =
                    (f & ADAPTED == 0) & (settled == STEADY) & (last_heard[i] == round_tick);
                keep &= !(u64::from(release) << (i % 64));
                steady[lease_class[i] as usize] += usize::from(release);
            }
            *word = keep;
        }
    }

    /// Declares a resync boundary: the server is about to rebuild protocol
    /// state from fresh probes, so everything still in flight is
    /// superseded. Parked frames are discarded (they would all be rejected
    /// as stale anyway — the resync probes advance every channel's
    /// `recv_seq` past them).
    pub fn resync_boundary(&mut self) {
        self.parked.clear();
    }

    /// Charges the channel cost of one server→source request frame:
    /// timeouts + retries while the schedule drops it, clock advances for
    /// delays, idempotent rejection for duplicates. Returns once the frame
    /// is (finally) delivered; the caller then executes the real operation
    /// exactly once.
    fn charge_request(&mut self, id: StreamId, idempotent_dup: bool) {
        let down_until = self.channels.cold[id.index()].down_until;
        if self.clock.now() < down_until {
            // Synchronous resolution: the server retries until the source
            // restarts, paying the outage in simulated time.
            self.stats.timeouts += 1;
            self.stats.retries += 1;
            self.stats.overhead_frames += 1;
            self.clock.advance_to(down_until);
        }
        let mut attempt: u32 = 0;
        loop {
            match self.schedule.draw(self.clock.now()) {
                FaultDecision::Deliver => break,
                FaultDecision::Delay(ticks) => {
                    self.clock.advance(ticks);
                    break;
                }
                FaultDecision::Duplicate => {
                    // The request arrives twice; the source executes once
                    // and rejects the ghost by epoch/sequence.
                    self.stats.overhead_frames += 1;
                    if idempotent_dup {
                        self.stats.epoch_rejects += 1;
                    }
                    break;
                }
                FaultDecision::Drop => {
                    self.stats.timeouts += 1;
                    self.stats.retries += 1;
                    self.stats.overhead_frames += 1;
                    self.clock.advance(self.cfg.timeout_ticks + self.cfg.backoff.delay(attempt));
                    attempt += 1;
                    if attempt >= self.cfg.max_retries {
                        break; // force delivery; keeps handlers bounded
                    }
                }
            }
        }
    }

    /// Bookkeeping after a probe reply: the reply supersedes every frame
    /// still in flight from this source, refreshes the lease, clears any
    /// pending repair flag — and, being proof of life, revives a
    /// lease-expired source on the spot (no rejoin re-probe needed: this
    /// reply already carried fresh state).
    fn on_probed(&mut self, id: StreamId) {
        let i = id.index();
        self.touch(i);
        self.dead -= usize::from(self.channels.flags[i] & DEAD != 0);
        self.channels.flags[i] &= !(DEAD | NEEDS_REPAIR);
        self.channels.last_heard[i] = self.clock.now();
        self.on_synced(id);
    }

    /// Bookkeeping after an install ack: bumps the filter epoch (staling
    /// every in-flight report produced under the old filter) and refreshes
    /// the lease.
    fn on_installed(&mut self, id: StreamId) {
        let i = id.index();
        self.touch(i);
        self.channels.dirty.mark(i);
        self.channels.cold[i].epoch += 1;
        self.channels.last_heard[i] = self.clock.now();
    }

    /// A probe or install-sync reply supersedes every frame still in
    /// flight from the source. It can only clear a `GAP`, which a steady
    /// channel never has, so it needs no [`ChaosState::touch`].
    fn on_synced(&mut self, id: StreamId) {
        let ch = &mut self.channels.cold[id.index()];
        if ch.recv_seq != ch.send_seq {
            ch.recv_seq = ch.send_seq;
            self.channels.dirty.mark(id.index());
        }
        self.channels.flags[id.index()] &= !GAP;
    }

    persist!(
        /// The machine's record, with the channel rows `rows` selects (see
        /// the module's "Durability"). It carries its config, so
        /// [`Rows::All`] replaces any machine ([`ChaosState::default`]);
        /// [`Rows::Dirty`] lands on the machine its full image restored.
        /// Corrupt bytes are [`PersistError::Corrupt`], never a panic; the
        /// machine is then partly overwritten: discard it. The transient
        /// `repair_window` is not recorded (checkpoints are quiescent), and
        /// parked frames keep pool order, which `retain` preserves.
        pub fn encode_rows, decode_rows(rows) {
            CHAOS_STATE_VERSION: const,
            cfg: rows,
            ALWAYS_ON: const,
            schedule,
            clock,
            round_tick,
            channels: rows,
            parked,
            stats,
            lease_samples,
        } check ChaosState::settle_decoded
    );

    /// A full image was taken: the marks restart from its exceptions whose
    /// recorded flags are not the steady ones, since such a channel may be
    /// steady at the next delta, with flags that differ from the image's.
    pub fn clear_dirty(&mut self) {
        let table = &mut self.channels;
        table.dirty.clear();
        for i in 0..table.cold.len() {
            if table.is_exception(i) && table.flags[i] & RECORDED != STEADY {
                table.dirty.mark(i);
            }
        }
    }

    /// Re-derives what a record does not carry — the leases and the
    /// schedule's mix and horizon (config), steady `last_heard`, `GAP`,
    /// `MAYBE_DOWN`, the dead and steady counts — and checks what parts
    /// alone cannot show: the last round not after the clock, no parked
    /// frame ahead of its channel, no exception heard after the clock, and
    /// every channel outside the exception set steady. A delta's rows land
    /// on its base's, so the checks run over the result.
    fn settle_decoded(&mut self, _rows: Rows) -> asf_persist::Result<()> {
        let now = self.now();
        if self.round_tick > now {
            return Err(PersistError::corrupt("chaos round tick past the clock"));
        }
        let ChaosConfig { mix, fault_horizon_ticks, lease_ticks, .. } = self.cfg;
        self.leases = Leases::new(lease_ticks);
        self.schedule = FaultSchedule::resume(self.schedule.state(), mix, fault_horizon_ticks);
        // A frame is stamped with its channel's epoch and next sequence
        // number, and both only grow.
        let ahead = |f: &ParkedReport| {
            let ch = &self.channels.cold[f.id.index()];
            f.seq > ch.send_seq || f.epoch > ch.epoch
        };
        if self.parked.iter().any(ahead) {
            return Err(PersistError::corrupt("chaos parked frame ahead of its channel"));
        }
        self.dead = 0;
        self.steady = [0; LEASE_CLASSES];
        let table = &mut self.channels;
        for i in 0..table.cold.len() {
            let ch = table.cold[i];
            let mut f = table.flags[i];
            set_flag(&mut f, GAP, ch.recv_seq < ch.send_seq);
            set_flag(&mut f, MAYBE_DOWN, now < ch.down_until);
            table.flags[i] = f;
            self.dead += usize::from(f & DEAD != 0);
            if table.is_exception(i) {
                if table.last_heard[i] > now {
                    return Err(PersistError::corrupt("chaos channel heard after the clock"));
                }
            } else if f == STEADY {
                table.last_heard[i] = self.round_tick;
                self.steady[table.lease_class[i] as usize] += 1;
            } else {
                return Err(PersistError::corrupt("chaos channel outside the exception set"));
            }
        }
        Ok(())
    }
}

/// An empty machine, for a full image to be decoded into.
impl Default for ChaosState {
    fn default() -> Self {
        Self::new(0, ChaosConfig::new(0, FaultMix::none(), 0))
    }
}

impl Channels {
    /// `n` channels, caught up, all exceptions: none heard in a round yet.
    fn new(n: usize) -> Self {
        Self {
            cold: vec![Channel::default(); n],
            last_heard: vec![0; n],
            lease_class: vec![0; n],
            flags: vec![VERIFIED; n],
            exceptions: all_exceptions(n),
            dirty: DirtyRows::new(n),
        }
    }

    fn is_exception(&self, i: usize) -> bool {
        self.exceptions[i / 64] & (1 << (i % 64)) != 0
    }

    /// The rows `rows` selects — every channel, or each one marked dirty or
    /// an exception — then each exception's `last_heard`.
    fn encode_rows(&self, w: &mut StateWriter, rows: Rows) {
        let n = self.cold.len();
        let changed = |i: &usize| self.dirty.is_marked(*i) || self.is_exception(*i);
        let selected = (0..n).filter(|i| rows == Rows::All || changed(i));
        rows.put_rows(w, selected.clone().count(), selected, |w, i| {
            let (channel, class) = (self.cold[i], self.lease_class[i]);
            ChannelRow { channel, flags: self.flags[i] & RECORDED, class }.put(w);
        });
        let exceptions = (0..n).filter(|&i| self.is_exception(i));
        Rows::Dirty.put_rows(w, exceptions.clone().count(), exceptions, |w, i| {
            self.last_heard[i].put(w);
        });
    }

    /// A full image sizes the table. Decoded rows are marked dirty; a steady
    /// channel's `last_heard` is left to the caller. The channel count is
    /// the population of the ids read after the table.
    fn decode_rows(&mut self, r: &mut StateReader<'_>, rows: Rows) -> asf_persist::Result<()> {
        if rows == Rows::All {
            // Peek the row count to size the table before it is read.
            *self = Self::new({ *r }.get_len(ChannelRow::MIN_BYTES)?);
        }
        let n = self.cold.len();
        rows.get_rows(r, n, ChannelRow::MIN_BYTES, |r, i| {
            let row = ChannelRow::get(r)?;
            (self.cold[i], self.flags[i], self.lease_class[i]) =
                (row.channel, row.flags, row.class);
            self.dirty.mark(i);
            Ok(())
        })?;
        self.exceptions.clear();
        self.exceptions.resize(n.div_ceil(64), 0);
        Rows::Dirty.get_rows(r, n, u64::MIN_BYTES, |r, i| {
            self.exceptions[i / 64] |= 1 << (i % 64);
            self.last_heard[i] = u64::get(r)?;
            Ok(())
        })?;
        r.set_population(n);
        Ok(())
    }
}

/// Fault-injecting [`FleetOps`] decorator.
///
/// Wraps any backend (the real [`crate::fleet::SourceFleet`], or the
/// server's shard router) and charges every server→source operation through
/// the unreliable channel before executing it exactly once on the inner
/// backend. Reports are **not** intercepted here — report routing is owned
/// by the caller (the server's drain path), which admits them through
/// [`ChaosState::admit_report`]; `deliver` is therefore transparent.
pub struct ChaosFleet<'a> {
    state: &'a mut ChaosState,
    inner: &'a mut dyn FleetOps,
}

impl<'a> ChaosFleet<'a> {
    /// Wraps `inner` with the given channel state.
    ///
    /// # Panics
    ///
    /// Panics if the channel count does not match the fleet size.
    pub fn new(state: &'a mut ChaosState, inner: &'a mut dyn FleetOps) -> Self {
        assert_eq!(state.len(), inner.len(), "chaos channel count != fleet size");
        Self { state, inner }
    }
}

impl FleetOps for ChaosFleet<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn deliver(&mut self, id: StreamId, value: f64) -> Option<f64> {
        // Report faulting lives in `ChaosState::admit_report`, owned by the
        // component that routes reports; the decorator stays transparent so
        // it composes with any delivery path.
        self.inner.deliver(id, value)
    }

    fn probe(&mut self, id: StreamId) -> f64 {
        self.state.charge_request(id, false);
        let v = self.inner.probe(id);
        self.state.on_probed(id);
        v
    }

    fn probe_all(&mut self, out: &mut Vec<f64>) {
        for i in 0..self.inner.len() {
            self.state.charge_request(StreamId(i as u32), false);
        }
        self.inner.probe_all(out);
        for i in 0..self.inner.len() {
            self.state.on_probed(StreamId(i as u32));
        }
    }

    fn probe_many(&mut self, ids: &[StreamId], out: &mut Vec<f64>) {
        if self.state.repair_window && !ids.is_empty() {
            // Inside a chunk-end repair pass the whole gap list ships as
            // one fan-out frame (like a broadcast) instead of one request
            // per gapped channel.
            self.state.charge_request(ids[0], false);
            self.state.stats.repair_batches += 1;
            self.state.stats.repair_frames += 1;
        } else {
            for &id in ids {
                self.state.charge_request(id, false);
            }
        }
        self.inner.probe_many(ids, out);
        for &id in ids {
            self.state.on_probed(id);
        }
    }

    fn install(&mut self, id: StreamId, filter: Filter) -> Option<f64> {
        self.state.charge_request(id, true);
        let sync = self.inner.install(id, filter);
        self.state.on_installed(id);
        if sync.is_some() {
            self.state.on_synced(id);
        }
        sync
    }

    fn install_many(&mut self, installs: &[(StreamId, Filter)], syncs: &mut Vec<(StreamId, f64)>) {
        for (id, _) in installs {
            self.state.charge_request(*id, true);
        }
        self.inner.install_many(installs, syncs);
        for (id, _) in installs {
            self.state.on_installed(*id);
        }
        for (id, _) in syncs.iter() {
            self.state.on_synced(*id);
        }
    }

    fn broadcast(&mut self, filter: Filter, syncs: &mut Vec<(StreamId, f64)>) {
        // A broadcast is one fan-out frame at the channel layer: charge it
        // once rather than per source.
        if !self.state.is_empty() {
            self.state.charge_request(StreamId(0), true);
        }
        self.inner.broadcast(filter, syncs);
        for i in 0..self.inner.len() {
            self.state.on_installed(StreamId(i as u32));
        }
        for (id, _) in syncs.iter() {
            self.state.on_synced(*id);
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::SourceFleet;

    fn fleet3() -> SourceFleet {
        SourceFleet::from_values(&[1.0, 2.0, 3.0])
    }

    /// Messages the sources exchanged: a reliable channel adds none.
    fn traffic(fleet: &SourceFleet) -> u64 {
        fleet.iter().map(|s| s.traffic()).sum()
    }

    fn reliable_state(n: usize) -> ChaosState {
        ChaosState::new(n, ChaosConfig::new(1, FaultMix::none(), 0))
    }

    #[test]
    fn transparent_when_reliable() {
        let mut fleet = fleet3();
        let mut state = reliable_state(3);
        let mut chaos = ChaosFleet::new(&mut state, &mut fleet);
        let mut values = Vec::new();
        chaos.probe_all(&mut values);
        assert_eq!(values, vec![1.0, 2.0, 3.0]);
        let v = chaos.probe(StreamId(1));
        assert_eq!(v, 2.0);
        assert_eq!(traffic(&fleet), 8); // 2n + 2 probe messages, nothing else
        assert_eq!(state.stats(), &ChaosStats::default());
    }

    #[test]
    fn install_bumps_epoch_monotonically() {
        let mut fleet = fleet3();
        let mut state = reliable_state(3);
        let mut chaos = ChaosFleet::new(&mut state, &mut fleet);
        chaos.probe_all(&mut Vec::new());
        for k in 1..=5u64 {
            chaos.install(StreamId(0), Filter::wildcard());
            assert_eq!(chaos.state.epoch_of(StreamId(0)), k);
        }
        assert_eq!(state.epoch_of(StreamId(1)), 0);
    }

    #[test]
    fn dropped_requests_retry_and_still_execute_once() {
        let mut fleet = fleet3();
        // 60% drop, faults active for a long horizon.
        let cfg = ChaosConfig::new(7, FaultMix::loss_only(0.6), u64::MAX);
        let mut state = ChaosState::new(3, cfg);
        let mut chaos = ChaosFleet::new(&mut state, &mut fleet);
        chaos.probe_all(&mut Vec::new());
        // The sources see exactly the logical probes despite retries.
        assert_eq!(traffic(&fleet), 6);
        assert!(state.stats().retries > 0);
        assert_eq!(state.stats().retries, state.stats().timeouts);
        assert!(state.now() > 0, "timeouts must consume simulated time");
    }

    #[test]
    fn report_admission_stamps_and_rejects_stale_epochs() {
        let mut fleet = fleet3();
        // Delay every report so it parks.
        let mix = FaultMix { delay_p: 1.0, max_delay_ticks: 4, ..FaultMix::none() };
        let mut state = ChaosState::new(3, ChaosConfig::new(3, mix, u64::MAX));
        assert_eq!(state.admit_report(StreamId(0), 9.0), ReportFate::Parked);
        assert_eq!(state.parked_len(), 1);
        // An install under a new epoch stales the parked frame.
        {
            let mut chaos = ChaosFleet::new(&mut state, &mut fleet);
            chaos.install(StreamId(0), Filter::wildcard());
        }
        state.advance(10);
        let mut out = Vec::new();
        state.take_due_reports(&mut out);
        assert!(out.is_empty(), "stale-epoch frame must be rejected");
        assert_eq!(state.stats().epoch_rejects, 1);
        // The sequence gap survives rejection so repair can detect it...
        assert!(state.recv_seq_of(StreamId(0)) < state.send_seq_of(StreamId(0)));
    }

    #[test]
    fn duplicates_deliver_once() {
        let mix = FaultMix { dup_p: 1.0, ..FaultMix::none() };
        let mut state = ChaosState::new(1, ChaosConfig::new(5, mix, u64::MAX));
        assert_eq!(state.admit_report(StreamId(0), 4.0), ReportFate::Deliver);
        state.advance(5);
        let mut out = Vec::new();
        state.take_due_reports(&mut out);
        assert!(out.is_empty(), "ghost duplicate must be rejected by sequence");
        assert_eq!(state.stats().epoch_rejects, 1);
        assert_eq!(state.recv_seq_of(StreamId(0)), state.send_seq_of(StreamId(0)));
    }

    #[test]
    fn delayed_reports_deliver_in_order_once_due() {
        let mix = FaultMix { delay_p: 1.0, max_delay_ticks: 8, ..FaultMix::none() };
        let mut state = ChaosState::new(2, ChaosConfig::new(11, mix, u64::MAX));
        assert_eq!(state.admit_report(StreamId(0), 1.0), ReportFate::Parked);
        assert_eq!(state.admit_report(StreamId(0), 2.0), ReportFate::Parked);
        assert_eq!(state.admit_report(StreamId(1), 3.0), ReportFate::Parked);
        state.advance(100);
        let mut out = Vec::new();
        state.take_due_reports(&mut out);
        // Frames surface deterministically; per source, sequence order wins
        // and every accepted frame advances recv_seq.
        assert_eq!(state.recv_seq_of(StreamId(0)), 2);
        assert_eq!(state.recv_seq_of(StreamId(1)), 1);
        assert!(!out.is_empty());
        assert_eq!(state.parked_len(), 0);
    }

    #[test]
    fn newer_frame_supersedes_older_parked_one() {
        // Frame 1 parks with a long delay; frame 2 delivers immediately.
        let mix = FaultMix { delay_p: 0.5, max_delay_ticks: 50, ..FaultMix::none() };
        let mut state = ChaosState::new(1, ChaosConfig::new(0, mix, u64::MAX));
        let mut fates = Vec::new();
        for k in 0..20 {
            fates.push(state.admit_report(StreamId(0), k as f64));
        }
        assert!(fates.contains(&ReportFate::Parked) && fates.contains(&ReportFate::Deliver));
        state.advance(1000);
        let mut out = Vec::new();
        state.take_due_reports(&mut out);
        // Every parked frame older than the last direct delivery is
        // rejected; recv_seq never regresses.
        assert_eq!(state.recv_seq_of(StreamId(0)), state.send_seq_of(StreamId(0)));
    }

    #[test]
    fn heartbeat_round_detects_gap_and_schedules_reprobe() {
        let mut state = ChaosState::new(2, ChaosConfig::new(2, FaultMix::loss_only(1.0), 100));
        // A lost report leaves a gap.
        assert_eq!(state.admit_report(StreamId(1), 5.0), ReportFate::Lost);
        // Past the horizon the heartbeat itself is reliable.
        state.advance(200);
        state.draw_crashes();
        let plan = state.heartbeat_round();
        assert_eq!(plan.reprobe, vec![StreamId(1)]);
        assert!(plan.newly_dead.is_empty());
        // Before the repair probe the channel is not verified.
        state.finish_round();
        assert!(!state.is_verified(StreamId(1)));
        assert!(state.is_verified(StreamId(0)));
        state.on_probed(StreamId(1));
        state.finish_round();
        assert!(state.is_verified(StreamId(1)));
    }

    #[test]
    fn lease_expiry_marks_dead_and_revives_on_heartbeat() {
        let cfg = ChaosConfig::new(4, FaultMix::loss_only(1.0), 10_000).lease_ticks(50);
        let mut state = ChaosState::new(1, cfg);
        // All heartbeats drop while faults are active; lease expires.
        state.advance(100);
        let plan = state.heartbeat_round();
        assert_eq!(plan.newly_dead, vec![StreamId(0)]);
        assert_eq!(state.dead_count(), 1);
        assert!(state.is_dead(StreamId(0)));
        state.finish_round();
        assert!(!state.is_verified(StreamId(0)));
        // Faults cease; the next heartbeat revives the source and schedules
        // a rejoin re-probe.
        state.advance(20_000);
        let plan = state.heartbeat_round();
        assert_eq!(state.dead_count(), 0);
        assert_eq!(plan.reprobe, vec![StreamId(0)]);
        assert!(plan.newly_dead.is_empty());
    }

    #[test]
    fn crash_goes_dark_then_needs_repair() {
        let mix = FaultMix { crash_p: 1.0, max_outage_ticks: 30, ..FaultMix::none() };
        let mut state = ChaosState::new(1, ChaosConfig::new(6, mix, 100).lease_ticks(10_000));
        state.draw_crashes();
        assert_eq!(state.stats().crashes, 1);
        // Reports during the outage are swallowed without a sequence bump.
        let seq_before = state.send_seq_of(StreamId(0));
        assert_eq!(state.admit_report(StreamId(0), 1.0), ReportFate::Lost);
        assert_eq!(state.send_seq_of(StreamId(0)), seq_before);
        // Down sources emit no heartbeat.
        let plan = state.heartbeat_round();
        assert!(plan.reprobe.is_empty());
        // After the outage (and past the fault horizon) the restart is
        // heard and repair is scheduled.
        state.advance(200);
        let plan = state.heartbeat_round();
        assert_eq!(plan.reprobe, vec![StreamId(0)]);
    }

    #[test]
    fn probing_down_source_blocks_until_restart() {
        let mut fleet = fleet3();
        let mix = FaultMix { crash_p: 1.0, max_outage_ticks: 40, ..FaultMix::none() };
        let mut state = ChaosState::new(3, ChaosConfig::new(9, mix, 100));
        state.draw_crashes();
        let before = state.now();
        let mut chaos = ChaosFleet::new(&mut state, &mut fleet);
        chaos.probe(StreamId(0));
        assert!(state.now() > before, "probe must wait out the outage");
        assert!(state.stats().timeouts >= 1);
    }

    #[test]
    fn resync_boundary_discards_in_flight_frames() {
        let mix = FaultMix { delay_p: 1.0, max_delay_ticks: 100, ..FaultMix::none() };
        let mut state = ChaosState::new(1, ChaosConfig::new(8, mix, u64::MAX));
        state.admit_report(StreamId(0), 1.0);
        assert_eq!(state.parked_len(), 1);
        state.resync_boundary();
        assert_eq!(state.parked_len(), 0);
    }

    /// Runs a fixed chaotic op sequence and returns a digest of every
    /// observable outcome, so two states can be compared step-by-step.
    fn drive(state: &mut ChaosState, rounds: usize) -> Vec<(usize, usize, usize)> {
        let mut digest = Vec::new();
        let mut out = Vec::new();
        for r in 0..rounds {
            for i in 0..state.len() {
                let fate = state.admit_report(StreamId(i as u32), (r * 10 + i) as f64);
                digest.push((i, fate as usize, 0));
            }
            state.advance(7);
            state.draw_crashes();
            let plan = state.heartbeat_round();
            for &id in &plan.reprobe {
                state.on_probed(id);
            }
            state.finish_round();
            state.take_due_reports(&mut out);
            digest.push((plan.reprobe.len(), plan.newly_dead.len(), out.len()));
        }
        digest
    }

    #[test]
    fn codec_round_trip_resumes_exact_stream() {
        let mix = FaultMix {
            drop_p: 0.2,
            delay_p: 0.2,
            dup_p: 0.1,
            crash_p: 0.05,
            max_delay_ticks: 16,
            max_outage_ticks: 50,
        };
        let cfg = ChaosConfig::new(0xD0C0, mix, u64::MAX).lease_ticks(64);
        let mut original = ChaosState::new(4, cfg);
        drive(&mut original, 40);

        let mut w = StateWriter::new();
        original.encode_rows(&mut w, Rows::All);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let mut restored = ChaosState::default();
        restored.decode_rows(&mut r, Rows::All).expect("decode");
        r.finish().expect("record fully consumed");

        assert_eq!(restored.now(), original.now());
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.parked_len(), original.parked_len());
        assert_eq!(restored.dead_count(), original.dead_count());
        // The fault-decision stream continues identically on both copies.
        assert_eq!(drive(&mut original, 40), drive(&mut restored, 40));
        assert_eq!(restored.stats(), original.stats());
        for i in 0..original.len() {
            let id = StreamId(i as u32);
            assert_eq!(restored.epoch_of(id), original.epoch_of(id));
            assert_eq!(restored.send_seq_of(id), original.send_seq_of(id));
            assert_eq!(restored.recv_seq_of(id), original.recv_seq_of(id));
            assert_eq!(restored.lease_len_of(id), original.lease_len_of(id));
            assert_eq!(restored.is_dead(id), original.is_dead(id));
            assert_eq!(restored.is_verified(id), original.is_verified(id));
        }
    }

    #[test]
    fn decode_rejects_corrupt_records() {
        let mut state = ChaosState::new(2, ChaosConfig::new(1, FaultMix::loss_only(0.5), 100));
        drive(&mut state, 5);
        let mut w = StateWriter::new();
        state.encode_rows(&mut w, Rows::All);
        let bytes = w.into_bytes();

        // Unknown version byte.
        let mut bad = bytes.clone();
        bad[0] = CHAOS_STATE_VERSION + 1;
        assert!(decoded(&bad).is_err());

        // Overfull drop probability (bytes 9..17 hold drop_p's raw bits)
        // must surface as corruption, not a constructor panic.
        let mut bad = bytes.clone();
        bad[9..17].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert!(decoded(&bad).is_err());

        // Truncation anywhere must error, never panic.
        for cut in [1, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(decoded(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn decode_rejects_a_record_that_turns_off_a_retired_mechanism() {
        // The two config bytes after `max_retries` once switched adaptive
        // leases and batched repair charging; every record writes both as
        // 1, and a 0 in either is corruption, never a panic.
        let state = reliable_state(2);
        let bytes = encoded_rows(&state, Rows::All);
        let flags = 1 + 8 + 4 * 8 + 2 * 8 + 8 + 8 + 8 + 2 * 8 + 4;
        assert_eq!(bytes[flags..flags + 2], [1, 1]);
        assert!(decoded(&bytes).is_ok());
        for at in [flags, flags + 1] {
            let mut bad = bytes.clone();
            bad[at] = 0;
            assert!(matches!(decoded(&bad), Err(PersistError::Corrupt(_))), "flag byte {at} off");
        }
    }

    #[test]
    fn adaptive_lease_grows_and_shrinks_within_bounds() {
        let cfg = ChaosConfig::new(12, FaultMix::none(), 0).lease_ticks(4);
        let mut state = ChaosState::new(1, cfg);
        let id = StreamId(0);
        assert_eq!(state.lease_len_of(id), 4);
        // Huge heartbeat gaps double the lease each round, pinned at the
        // ceiling.
        for _ in 0..10 {
            state.advance(1_000);
            state.heartbeat_round();
            state.finish_round();
        }
        assert_eq!(state.lease_len_of(id), 4 * MAX_LEASE_FACTOR);
        // Tight heartbeats shrink it back down. The shrink rule's
        // hysteresis (`gap × 8 < lease`) settles at one doubling above the
        // floor rather than oscillating on it.
        for _ in 0..10 {
            state.advance(1);
            state.heartbeat_round();
            state.finish_round();
        }
        assert_eq!(state.lease_len_of(id), 8);
        assert!(state.stats().lease_renewals >= 20);
        assert_ne!(state.drain_lease_samples().len(), 0);
        assert_eq!(state.drain_lease_samples().len(), 0, "drain must empty the buffer");
    }

    #[test]
    fn lost_heartbeat_expiry_counts_as_spurious() {
        // The source is up the whole time — only its heartbeats drop — so
        // the expiration is a false positive.
        let cfg = ChaosConfig::new(4, FaultMix::loss_only(1.0), 10_000).lease_ticks(50);
        let mut state = ChaosState::new(1, cfg);
        state.advance(100);
        let plan = state.heartbeat_round();
        assert_eq!(plan.newly_dead, vec![StreamId(0)]);
        assert_eq!(state.stats().lease_expirations, 1);
        assert_eq!(state.stats().spurious_expirations, 1);
    }

    #[test]
    fn batched_repair_charges_one_frame_per_pass() {
        let ids: Vec<StreamId> = (0..3u32).map(StreamId).collect();
        let mut fleet = fleet3();
        let mut state = reliable_state(3);
        let mut out = Vec::new();
        state.set_repair_window(true);
        ChaosFleet::new(&mut state, &mut fleet).probe_many(&ids, &mut out);
        state.set_repair_window(false);
        assert_eq!((state.stats().repair_frames, state.stats().repair_batches), (1, 1));
        // Outside the repair window a probe_many is an ordinary
        // per-channel fan-out and never touches the repair counters.
        ChaosFleet::new(&mut state, &mut fleet).probe_many(&ids, &mut out);
        assert_eq!((state.stats().repair_frames, state.stats().repair_batches), (1, 1));
        for &id in &ids {
            assert_eq!(state.recv_seq_of(id), state.send_seq_of(id));
        }
    }

    #[test]
    fn fast_exits_consume_no_randomness() {
        // Past the horizon a whole round draws nothing.
        let mut state = ChaosState::new(64, ChaosConfig::new(3, FaultMix::crash_restart(0.5), 100));
        state.draw_crashes();
        assert!(state.stats().crashes > 0);
        state.advance(100);
        let words = state.schedule.state();
        state.draw_crashes();
        state.heartbeat_round();
        state.finish_round();
        assert_eq!(state.schedule.state(), words);
        // At `crash_p == 0` crashes draw nothing; the heartbeats still draw
        // (one gap per fault) from the round stream, never the frame stream.
        let mut state =
            ChaosState::new(64, ChaosConfig::new(3, FaultMix::loss_only(0.5), u64::MAX));
        let words = state.schedule.state();
        state.draw_crashes();
        assert_eq!(state.schedule.state(), words);
        state.heartbeat_round();
        assert_ne!(state.schedule.state().rounds, words.rounds);
        assert_eq!(state.schedule.state().frames, words.frames);
    }

    #[test]
    fn a_settled_healthy_fleet_has_no_exceptions() {
        let cfg = ChaosConfig::new(3, FaultMix::loss_only(0.2), 4096).lease_ticks(4 * 4096);
        let mut state = ChaosState::new(1000, cfg);
        state.advance(4096);
        state.heartbeat_round();
        state.finish_round();
        // Past the horizon: the first round settles every channel heard in
        // it, and later rounds visit nothing.
        assert_eq!(exception_count(&state), 0);
        let stats = *state.stats();
        state.advance(4096);
        assert!(state.heartbeat_round().is_empty());
        state.finish_round();
        assert_eq!(exception_count(&state), 0);
        assert_eq!(state.stats().heartbeats_sent, stats.heartbeats_sent + 1000);
        assert_eq!(state.verified_live_ids().len(), 1000);
    }

    #[test]
    fn lossy_rounds_keep_an_exception_set_the_size_of_the_faults() {
        // 5% loss, leases four rounds long: each round's exceptions are this
        // round's ~50 losses and last round's ~50 recoveries.
        let cfg = ChaosConfig::new(8, FaultMix::loss_only(0.05), u64::MAX).lease_ticks(4 * 512);
        let mut state = ChaosState::new(1000, cfg);
        for _ in 0..200 {
            state.advance(512);
            state.heartbeat_round();
            state.finish_round();
            assert!(exception_count(&state) < 150, "{} exceptions", exception_count(&state));
        }
        assert_eq!(state.stats().heartbeats_sent, 200 * 1000);
        let lost = state.stats().heartbeats_lost as f64 / 200_000.0;
        assert!((lost - 0.05).abs() < 0.005, "loss rate {lost}");
    }

    #[test]
    fn dead_count_matches_a_scan() {
        let mix =
            FaultMix { drop_p: 0.3, crash_p: 0.05, max_outage_ticks: 200, ..FaultMix::none() };
        let mut state = ChaosState::new(100, ChaosConfig::new(21, mix, 20_000).lease_ticks(40));
        let mut fleet = SourceFleet::from_values(&[0.0; 100]);
        let scan = |s: &ChaosState| s.channels.flags.iter().filter(|&&f| f & DEAD != 0).count();
        for r in 0..400u64 {
            state.advance(30);
            state.draw_crashes();
            let plan = state.heartbeat_round();
            assert_eq!(state.dead_count(), scan(&state));
            // Repair some rejoiners and probe some dead sources back.
            let mut chaos = ChaosFleet::new(&mut state, &mut fleet);
            for &id in plan.reprobe.iter().chain(&plan.newly_dead).filter(|id| id.0 % 2 == 0) {
                chaos.probe(id);
            }
            state.finish_round();
            assert_eq!(state.dead_count(), scan(&state), "round {r}");
        }
        assert!(state.stats().lease_expirations > 50);
        let mut w = StateWriter::new();
        state.encode_rows(&mut w, Rows::All);
        let restored = decoded(w.bytes()).unwrap();
        assert_eq!(restored.dead_count(), scan(&state));
    }

    fn exception_count(state: &ChaosState) -> usize {
        state.channels.exceptions.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn maybe_down_clears_in_the_first_round_at_or_after_the_outage_end() {
        let mix = FaultMix { crash_p: 1.0, max_outage_ticks: 30, ..FaultMix::none() };
        let mut state = ChaosState::new(1, ChaosConfig::new(6, mix, 1).lease_ticks(10_000));
        state.draw_crashes();
        let down_until = state.channels.cold[0].down_until;
        assert!(down_until > 0 && state.channels.flags[0] & MAYBE_DOWN != 0);
        state.advance(down_until - 1);
        state.heartbeat_round();
        assert_eq!(state.stats().heartbeats_sent, 0, "still down: silent");
        assert!(state.channels.flags[0] & MAYBE_DOWN != 0);
        state.advance(1);
        state.heartbeat_round();
        assert_eq!(state.stats().heartbeats_sent, 1);
        assert_eq!(state.channels.flags[0] & MAYBE_DOWN, 0);
    }

    /// A machine decoded from a full record.
    fn decoded(bytes: &[u8]) -> asf_persist::Result<ChaosState> {
        let mut state = ChaosState::default();
        state.decode_rows(&mut StateReader::new(bytes), Rows::All)?;
        Ok(state)
    }

    fn encoded_rows(state: &ChaosState, rows: Rows) -> Vec<u8> {
        let mut w = StateWriter::new();
        state.encode_rows(&mut w, rows);
        w.into_bytes()
    }

    /// A full checkpoint of the machine: the record, then the marks reset.
    fn full_image(state: &mut ChaosState) -> Vec<u8> {
        let bytes = encoded_rows(state, Rows::All);
        state.clear_dirty();
        bytes
    }

    #[test]
    fn dirty_rows_rebuild_the_machine_from_its_last_full_image() {
        const N: usize = 1024;
        let mix = FaultMix {
            drop_p: 0.05,
            delay_p: 0.05,
            dup_p: 0.05,
            crash_p: 0.002,
            max_delay_ticks: 20,
            max_outage_ticks: 300,
        };
        let cfg = ChaosConfig::new(0xDE17A, mix, u64::MAX).lease_ticks(100);
        let mut state = ChaosState::new(N, cfg);
        let mut fleet = SourceFleet::from_values(&[0.0; N]);
        let mut rng = simkit::rng::SimRng::seed_from_u64(0xD1);
        let (mut due, mut syncs, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let mut base = full_image(&mut state);
        let (mut fulls, mut deltas, mut smaller) = (0, 0, 0);
        let mut samples = 0;
        for _ in 0..2_000 {
            // Writers outside the round, each on its own random channel,
            // so no other write marks the channel it changes.
            for _ in 0..rng.index(6) {
                let id = StreamId(rng.index(N) as u32);
                let value = rng.index(1000) as f64;
                let filter = Filter::interval(value - 10.0, value + 10.0);
                let mut chaos = ChaosFleet::new(&mut state, &mut fleet);
                match rng.index(16) {
                    0..=5 => drop(chaos.state.admit_report(id, value)),
                    6..=8 => drop(chaos.install(id, filter)),
                    9 | 10 => drop(chaos.probe(id)),
                    11 => {
                        let ids = [id, StreamId(rng.index(N) as u32)];
                        chaos.probe_many(&ids, &mut out);
                    }
                    12 => chaos.install_many(&[(id, filter)], &mut syncs),
                    13 if rng.index(40) == 0 => chaos.broadcast(Filter::wildcard(), &mut syncs),
                    _ => {}
                }
            }
            // The round in the server's order. A 10-tick gap leaves a
            // 100-tick lease as it is; one round in 30 draws a gap
            // from 1 to 150 ticks, which adapts classes and expires
            // leases, and so do crash outages.
            let gap = if rng.index(30) == 0 { 1 + rng.index(150) } else { 10 };
            state.advance(gap as u64);
            state.draw_crashes();
            state.take_due_reports(&mut due);
            let plan = state.heartbeat_round();
            let mut chaos = ChaosFleet::new(&mut state, &mut fleet);
            for &id in plan.reprobe.iter().filter(|_| rng.index(3) != 0) {
                chaos.probe(id);
            }
            if rng.index(3) == 0 {
                chaos.install(StreamId(rng.index(N) as u32), Filter::wildcard());
            }
            state.finish_round();
            samples += state.drain_lease_samples().len();
            if rng.index(60) == 0 {
                state.resync_boundary();
            }
            match rng.index(24) {
                0 => {
                    base = full_image(&mut state);
                    fulls += 1;
                }
                1..=6 => {
                    let delta = encoded_rows(&state, Rows::Dirty);
                    let mut rebuilt = decoded(&base).unwrap();
                    let mut r = StateReader::new(&delta);
                    rebuilt.decode_rows(&mut r, Rows::Dirty).expect("delta applies");
                    r.finish().unwrap();
                    let live = encoded_rows(&state, Rows::All);
                    assert!(encoded_rows(&rebuilt, Rows::All) == live, "delta {deltas}");
                    deltas += 1;
                    smaller += usize::from(delta.len() < live.len() / 2);
                }
                _ => {}
            }
        }
        let stats = state.stats();
        assert!(fulls > 50 && deltas > 400 && smaller > deltas / 4, "{fulls} {deltas} {smaller}");
        assert!(stats.crashes > 50 && stats.lease_expirations > 50 && stats.dup_frames > 50);
        assert!(stats.reports_delayed > 50 && stats.epoch_rejects > 50);
        assert!(samples > 100, "no class adaptation");
    }

    #[test]
    fn decode_rejects_frames_ahead_of_their_channel_and_exceptions_heard_later() {
        let mix = FaultMix { delay_p: 1.0, max_delay_ticks: 50, ..FaultMix::none() };
        let mut state = ChaosState::new(2, ChaosConfig::new(5, mix, u64::MAX));
        assert_eq!(state.admit_report(StreamId(1), 4.0), ReportFate::Parked);
        assert!(decoded(&encoded_rows(&state, Rows::All)).is_ok());
        let corrupt = |edit: &dyn Fn(&mut ChaosState)| {
            let mut bad = state.clone();
            edit(&mut bad);
            let bytes = encoded_rows(&bad, Rows::All);
            matches!(decoded(&bytes), Err(PersistError::Corrupt(_)))
        };
        assert!(corrupt(&|s| s.parked[0].seq += 1), "a frame the source never sent");
        assert!(corrupt(&|s| s.parked[0].epoch += 1), "a frame from a future filter");
        assert!(corrupt(&|s| s.channels.last_heard[1] = s.now() + 1), "heard after the clock");
    }

    /// The per-source formula `finish_round` evaluated before the flags
    /// column existed — the oracle for the flag-only version.
    fn verified_by_formula(state: &ChaosState, i: usize) -> bool {
        let ch = &state.channels.cold[i];
        !state.is_dead(StreamId(i as u32))
            && state.channels.flags[i] & HEARD != 0
            && state.channels.flags[i] & NEEDS_REPAIR == 0
            && ch.recv_seq == ch.send_seq
            && state.now() >= ch.down_until
    }

    #[test]
    fn derived_flags_agree_with_the_cold_records_on_a_random_walk() {
        const N: usize = 12;
        let mix = FaultMix {
            drop_p: 0.1,
            delay_p: 0.1,
            dup_p: 0.05,
            crash_p: 0.02,
            max_delay_ticks: 40,
            max_outage_ticks: 120,
        };
        let cfg = ChaosConfig::new(0xFACE, mix, u64::MAX).lease_ticks(40);
        let mut state = ChaosState::new(N, cfg);
        let mut fleet = SourceFleet::from_values(&[0.0; N]);
        let mut rng = simkit::rng::SimRng::seed_from_u64(7);
        let mut due = Vec::new();
        let check = |state: &ChaosState, verified: bool| {
            for (i, ch) in state.channels.cold.iter().enumerate() {
                assert_eq!(
                    state.channels.flags[i] & GAP != 0,
                    ch.recv_seq < ch.send_seq,
                    "GAP of {i}"
                );
                assert!(state.channels.flags[i] & MAYBE_DOWN != 0 || state.now() >= ch.down_until);
                if verified {
                    assert_eq!(
                        state.is_verified(StreamId(i as u32)),
                        verified_by_formula(state, i)
                    );
                }
            }
        };
        for _ in 0..10_000 {
            for _ in 0..rng.index(6) {
                let id = StreamId(rng.index(N) as u32);
                state.admit_report(id, 1.0);
                let mut chaos = ChaosFleet::new(&mut state, &mut fleet);
                match rng.index(6) {
                    0 => drop(chaos.install(id, Filter::wildcard())),
                    1 => drop(chaos.probe(id)),
                    _ => {}
                }
            }
            state.advance(1 + rng.index(30) as u64);
            state.draw_crashes();
            state.take_due_reports(&mut due);
            check(&state, false);
            let plan = state.heartbeat_round();
            // Repair only some of the plan, so unrepaired channels persist.
            for &id in plan.reprobe.iter().filter(|id| id.0 % 3 != 0) {
                ChaosFleet::new(&mut state, &mut fleet).probe(id);
            }
            state.finish_round();
            check(&state, true);
        }
        let stats = state.stats();
        assert!(stats.crashes > 100 && stats.lease_expirations > 100 && stats.epoch_rejects > 100);
        assert!(!state.verified_live_ids().is_empty());
    }
}
