//! Uniform access to a shard, run by the coordinator or by a worker thread.
//!
//! The coordinator talks to every shard through [`ShardHandle`]: a
//! send/recv pair for a scatter, so scatter–gather code is written once,
//! and [`ShardHandle::request`] for one command whose reply it waits for.
//! A shard runs in one of two places:
//!
//! * **On the coordinator** ([`ShardHandle::Local`]) — every shard in
//!   [`ExecMode::Inline`], and shard 0 in [`ExecMode::Threaded`]. For a
//!   scatter, `send` only records the command and `recv` runs it
//!   (**execute-at-recv**): the coordinator sends a round to every shard
//!   before it receives from any, so the scatter reaches every worker
//!   before the coordinator starts on its own shard. A request has no
//!   other shard to wait for, so it runs at once. At most one command is
//!   in flight per shard, so either way a command runs at the same point
//!   in the shard's command sequence. Parking the request's command and
//!   unparking it at `recv` was measured at 121–131 ns a request against
//!   50–63 ns run at once (1M random installs on a 100k-source shard,
//!   2-core x86-64 box; `Shard::exec` alone 38–50 ns): the report drain
//!   pays one request per re-install, on most `multi_range` events.
//! * **On a worker thread** ([`ShardHandle::Worker`]) — shards 1 … k − 1
//!   in threaded mode. Coordinator and worker hand off through a
//!   [`Mailbox`]: one slot each way, which the one-command-in-flight rule
//!   never overfills. The waiting side spins for [`SPIN`] before it parks
//!   on a condvar, and a sender notifies only a parked peer, so a hand-off
//!   between two busy threads costs a flag flip instead of a futex wake
//!   and a futex wait. Spinning only pays while every shard's thread has a
//!   core of its own: with k shards on fewer than k cores a spinning
//!   thread burns the core the thread it waits for needs, so both sides
//!   then park at once. On a 2-core
//!   machine, against spinning always, that cuts the debug suites with 3
//!   and 8 threaded shards from 28.1 to 12.6 CPU-seconds
//!   (`scoped_touch_differential`, wall 17.9 → 7.5 s), 1.22 → 0.70
//!   (`server_shard_invariance`) and 0.72 → 0.23 (`edge_cases`); medians
//!   of 5 alternating runs.
//!
//!   The mailbox is hand-built rather than a std `sync_channel(1)` polled
//!   with `try_recv` before a blocking `recv`. On the same machine that
//!   channel hands off as fast (`range_threaded` 16.1 against 16.3 M
//!   events/s, 12 alternating pairs, medians inside each other's
//!   quartiles), but a thread's first
//!   park on each channel allocates, at a point the workload decides, so
//!   a zero-allocation check of steady-state ingest could not be made
//!   deterministic. A condvar wait never allocates.
//!
//! Both placements produce identical results by construction — scheduling
//! can only change *when* a shard runs, never the sequence-ordered outcome
//! the coordinator assembles.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::shard::{Shard, ShardCmd, ShardReply};

/// How long the waiting side of a mailbox hand-off spins before it parks:
/// short, so the hand-offs of a chunk's round — its scatter and gather, a
/// fleet operation's request and reply — between busy threads rarely reach
/// the futex, while an idle worker parks soon after its last reply.
pub const SPIN: Duration = Duration::from_micros(50);

/// How shard work is executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Every shard runs on the coordinator thread.
    #[default]
    Inline,
    /// The coordinator runs shard 0; each other shard runs on a worker
    /// thread of its own behind a one-slot `Mailbox`.
    Threaded,
}

/// A coordinator-side handle to one shard.
#[derive(Debug)]
pub enum ShardHandle {
    /// Shard run by the coordinator: a sent command runs when its reply
    /// is received, a requested one at once.
    Local {
        /// The shard itself.
        shard: Box<Shard>,
        /// The command sent and not yet received (at most one).
        pending: Option<ShardCmd>,
    },
    /// Shard on a worker thread behind a one-slot mailbox each way.
    Worker {
        /// The hand-off shared with the worker.
        mailbox: Arc<Mailbox>,
        /// The worker thread, joined on shutdown or drop; it returns the
        /// shard's cumulative busy time.
        join: Option<JoinHandle<u64>>,
    },
}

impl ShardHandle {
    /// Places shard `index` according to `mode`: on the coordinator in
    /// inline mode and for shard 0, on a worker thread otherwise.
    pub fn spawn(shard: Shard, index: usize, mode: ExecMode) -> Self {
        if mode == ExecMode::Inline || index == 0 {
            return ShardHandle::Local { shard: Box::new(shard), pending: None };
        }
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let spin = if shard.shards() <= cores { SPIN } else { Duration::ZERO };
        let mailbox = Arc::new(Mailbox { cmd: Slot::new(), reply: Slot::new(), spin });
        let worker = Arc::clone(&mailbox);
        let join = std::thread::spawn(move || {
            // Closes the reply slot however the loop ends — a panicking
            // shard included — so a coordinator waiting on it sees the
            // hang-up instead of waiting forever.
            let _hangup = CloseOnDrop(&worker.reply);
            let mut shard = shard;
            while let Some(cmd) = worker.cmd.take(worker.spin) {
                worker.reply.put(shard.exec(cmd));
            }
            shard.busy_ns()
        });
        ShardHandle::Worker { mailbox, join: Some(join) }
    }

    /// Sends one command of a scatter. A coordinator-run shard only
    /// records it; it runs at the matching [`ShardHandle::recv`].
    ///
    /// # Panics
    ///
    /// Panics if a coordinator-run shard's previous command was never
    /// received: at most one command is in flight per shard.
    pub fn send(&mut self, cmd: ShardCmd) {
        match self {
            ShardHandle::Local { pending, .. } => {
                assert!(pending.replace(cmd).is_none(), "one command in flight per shard");
            }
            ShardHandle::Worker { mailbox, .. } => mailbox.cmd.put(cmd),
        }
    }

    /// Receives the reply to the command in flight, running it first on a
    /// coordinator-run shard and waiting for it on a worker.
    pub fn recv(&mut self) -> ShardReply {
        match self {
            ShardHandle::Local { shard, pending } => {
                shard.exec(pending.take().expect("recv without a pending command"))
            }
            ShardHandle::Worker { mailbox, .. } => {
                mailbox.reply.take(mailbox.spin).expect("shard worker hung up")
            }
        }
    }

    /// Sends one command and waits for its reply. A coordinator-run shard
    /// runs it at once: with nothing else in flight, that is the point of
    /// the shard's command sequence a `send` and `recv` pair would run it
    /// at, without parking the command in between.
    ///
    /// # Panics
    ///
    /// Panics if a coordinator-run shard has a command pending: at most one
    /// command is in flight per shard.
    pub fn request(&mut self, cmd: ShardCmd) -> ShardReply {
        match self {
            ShardHandle::Local { shard, pending } => {
                assert!(pending.is_none(), "one command in flight per shard");
                shard.exec(cmd)
            }
            ShardHandle::Worker { .. } => {
                self.send(cmd);
                self.recv()
            }
        }
    }

    /// Hints that a command touching source `local` comes soon: a
    /// coordinator-run shard starts loading its row
    /// ([`Shard::prefetch_row`]). A worker's rows are its own thread's to
    /// load, so there the hint does nothing.
    pub fn prefetch_row(&self, local: u32) {
        if let ShardHandle::Local { shard, .. } = self {
            shard.prefetch_row(local);
        }
    }

    /// Stops the worker, if any, and returns the shard's cumulative busy
    /// time in nanoseconds. A worker first finishes a command it was sent;
    /// a coordinator-run shard must have none pending, as that command
    /// would be neither run nor answered.
    ///
    /// # Panics
    ///
    /// Panics if the worker thread panicked.
    pub fn shutdown(&mut self) -> u64 {
        match self {
            ShardHandle::Local { shard, pending } => {
                debug_assert!(
                    pending.is_none(),
                    "shutdown drops a command sent but never received"
                );
                shard.busy_ns()
            }
            ShardHandle::Worker { mailbox, join } => {
                mailbox.cmd.close();
                join.take().map_or(0, |j| j.join().expect("shard worker panicked"))
            }
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        match self {
            ShardHandle::Local { pending, .. } => {
                // Unwinding may leave a round half gathered; only a drop
                // on the normal path is a lost command.
                if !std::thread::panicking() {
                    debug_assert!(
                        pending.is_none(),
                        "drop loses a command sent but never received"
                    );
                }
            }
            ShardHandle::Worker { mailbox, join } => {
                mailbox.cmd.close();
                if let Some(j) = join.take() {
                    let _ = j.join();
                }
            }
        }
    }
}

/// The hand-off between the coordinator and one worker: one slot for the
/// command in flight, one for its reply.
#[derive(Debug)]
pub struct Mailbox {
    cmd: Slot<ShardCmd>,
    reply: Slot<ShardReply>,
    /// How long a waiting side spins before it parks ([`SPIN`], or zero
    /// when the shards outnumber the cores).
    spin: Duration,
}

/// A one-message slot with a single putting and a single taking side.
#[derive(Debug)]
struct Slot<T> {
    /// Set while the slot holds a message or is closed: what a spinning
    /// taker polls without the lock. It is only a hint — the message is
    /// published by the mutex, which the taker then locks — hence
    /// `Relaxed`.
    ready: AtomicBool,
    state: Mutex<SlotState<T>>,
    /// Wakes a parked taker.
    wake: Condvar,
}

#[derive(Debug)]
struct SlotState<T> {
    msg: Option<T>,
    /// The putting side is gone: a taker that finds the slot empty stops.
    closed: bool,
    /// The taker is waiting on the condvar and must be notified.
    parked: bool,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Self {
            ready: AtomicBool::new(false),
            state: Mutex::new(SlotState { msg: None, closed: false, parked: false }),
            wake: Condvar::new(),
        }
    }

    /// Locks the state. Every update under the lock is a plain field
    /// store, so a guard poisoned by a panic elsewhere is still valid.
    fn lock(&self) -> MutexGuard<'_, SlotState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Puts a message into the empty slot, notifying the taker only if it
    /// parked.
    fn put(&self, msg: T) {
        let mut state = self.lock();
        assert!(state.msg.is_none(), "one message in flight per mailbox slot");
        state.msg = Some(msg);
        self.ready.store(true, Ordering::Relaxed);
        if state.parked {
            self.wake.notify_one();
        }
    }

    /// Marks the putting side gone: the taker drains the slot, then stops.
    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.ready.store(true, Ordering::Relaxed);
        if state.parked {
            self.wake.notify_one();
        }
    }

    /// Takes the next message, spinning for up to `spin` before it parks;
    /// `None` once the slot is closed and empty.
    fn take(&self, spin: Duration) -> Option<T> {
        if !spin.is_zero() {
            let start = Instant::now();
            while !self.ready.load(Ordering::Relaxed) && start.elapsed() < spin {
                std::hint::spin_loop();
            }
        }
        let mut state = self.lock();
        loop {
            if let Some(msg) = state.msg.take() {
                self.ready.store(state.closed, Ordering::Relaxed);
                return Some(msg);
            }
            if state.closed {
                return None;
            }
            state.parked = true;
            state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.parked = false;
        }
    }
}

/// Closes a slot when dropped.
struct CloseOnDrop<'a, T>(&'a Slot<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Sends `$cmd(s)` to every shard `s`, then gathers each reply, in shard
/// order, as `$reply`'s `$value`. Every shard has its command before any
/// reply is awaited, which is what lets threaded shards run concurrently.
macro_rules! each_shard {
    ($handles:expr, $cmd:expr, $reply:pat => $value:expr) => {{
        let handles: &mut [$crate::handle::ShardHandle] = $handles;
        for (s, handle) in handles.iter_mut().enumerate() {
            handle.send($cmd(s));
        }
        Vec::from_iter(handles.iter_mut().map(|handle| match handle.recv() {
            $reply => $value,
            other => unreachable!("shard replied {other:?}"),
        }))
    }};
}
pub(crate) use each_shard;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Partition;
    use asf_core::workload::EventBatch;
    use asf_persist::Rows;
    use std::sync::mpsc;
    use streamnet::{Filter, StreamId};

    fn worker(values: &[f64]) -> ShardHandle {
        let h = ShardHandle::spawn(Shard::new(values), 1, ExecMode::Threaded);
        assert!(matches!(h, ShardHandle::Worker { .. }));
        h
    }

    fn probed(reply: ShardReply) -> f64 {
        match reply {
            ShardReply::Probed { value, .. } => value,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    fn probe(local: u32) -> ShardCmd {
        ShardCmd::Probe { local, positions: Vec::new() }
    }

    /// The cumulative busy time (ns) of a coordinator-run shard; `None`
    /// for a worker, whose figure [`ShardHandle::shutdown`] returns.
    fn busy_ns(h: &ShardHandle) -> Option<u64> {
        match h {
            ShardHandle::Local { shard, .. } => Some(shard.busy_ns()),
            ShardHandle::Worker { .. } => None,
        }
    }

    /// Runs `f` on a helper thread and fails the test if it has not
    /// returned within a generous bound — a hang becomes a failure.
    fn within_bound(what: &str, f: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        let hung =
            finished.recv_timeout(Duration::from_secs(30)) == Err(mpsc::RecvTimeoutError::Timeout);
        assert!(!hung, "{what} hung");
        helper.join().expect(what);
    }

    #[test]
    fn inline_and_threaded_agree() {
        let p = Partition::new(1);
        let values = p.split_values(&[100.0, 500.0, 900.0]);
        for mode in [ExecMode::Inline, ExecMode::Threaded] {
            let mut h = ShardHandle::spawn(Shard::new(&values[0]), 1, mode);
            assert_eq!(matches!(h, ShardHandle::Worker { .. }), mode == ExecMode::Threaded);
            match h.request(ShardCmd::ProbeAll) {
                ShardReply::ProbedAll { values, .. } => {
                    assert_eq!(values, vec![100.0, 500.0, 900.0])
                }
                other => panic!("unexpected reply {other:?}"),
            }
            match h.request(ShardCmd::Deliver { local: 1, value: 550.0, positions: Vec::new() }) {
                ShardReply::Delivered { report, .. } => assert_eq!(report, Some(550.0)),
                other => panic!("unexpected reply {other:?}"),
            }
            assert_eq!(probed(h.request(probe(1))), 550.0);
            assert_eq!(busy_ns(&h).is_some(), mode == ExecMode::Inline);
            assert!(h.shutdown() > 0);
        }
    }

    #[test]
    fn shard_zero_runs_on_the_coordinator_in_either_mode() {
        for mode in [ExecMode::Inline, ExecMode::Threaded] {
            let h = ShardHandle::spawn(Shard::new(&[1.0]), 0, mode);
            assert!(matches!(h, ShardHandle::Local { .. }), "{mode:?}");
            assert_eq!(busy_ns(&h), Some(0), "{mode:?}");
        }
    }

    #[test]
    fn coordinator_run_shard_executes_at_recv_in_fifo_order() {
        let mut h = ShardHandle::spawn(Shard::new(&[10.0, 20.0]), 0, ExecMode::Threaded);
        for round in 0..8u32 {
            let local = round % 2;
            let value = 100.0 + f64::from(round);
            h.send(ShardCmd::Deliver { local, value, positions: Vec::new() });
            assert!(matches!(h, ShardHandle::Local { pending: Some(_), .. }));
            match h.recv() {
                ShardReply::Delivered { report, .. } => assert_eq!(report, Some(value)),
                other => panic!("unexpected reply {other:?}"),
            }
            // A batch operation is timed; its busy time appears only at
            // `recv`, so sending ran nothing and receiving runs it.
            h.send(ShardCmd::ProbeAll);
            let before = busy_ns(&h);
            assert!(matches!(h, ShardHandle::Local { pending: Some(_), .. }));
            match h.recv() {
                ShardReply::ProbedAll { values, .. } => {
                    assert_eq!(values[local as usize], value, "sees the delivery sent before it")
                }
                other => panic!("unexpected reply {other:?}"),
            }
            assert!(busy_ns(&h) > before);
            h.send(probe(local));
            assert_eq!(probed(h.recv()), value, "the probe sees the delivery sent before it");
        }
        h.shutdown();
    }

    #[test]
    #[should_panic(expected = "one command in flight per shard")]
    fn coordinator_run_shard_rejects_a_second_command_in_flight() {
        let mut h = ShardHandle::spawn(Shard::new(&[1.0]), 0, ExecMode::Inline);
        h.send(probe(0));
        h.send(probe(0));
    }

    #[test]
    fn a_request_on_a_coordinator_run_shard_equals_the_send_and_recv_pair() {
        // Source 0 at 500 under [400, 600], with applications speculated at
        // positions 1 … 4 (700 reports, 650 is silent, 500 reports, 520 is
        // silent) or, without positions, committed first.
        let prepared = |positions: bool| {
            let mut h = ShardHandle::spawn(Shard::new(&[500.0, 300.0]), 0, ExecMode::Threaded);
            h.request(ShardCmd::ProbeAll);
            h.request(ShardCmd::Broadcast { filter: Filter::interval(400.0, 600.0) });
            let mut window = EventBatch::new();
            for (t, v) in [550.0, 700.0, 650.0, 500.0, 520.0].into_iter().enumerate() {
                window.push_parts(t as f64, StreamId(0), v);
            }
            let (window, end) = (Arc::new(window), 5);
            h.request(ShardCmd::EvalWindow { window, start: 0, end, reports: Vec::new() });
            h.request(ShardCmd::Commit { keep_below: if positions { 1 } else { u64::MAX } });
            h
        };
        // Every source row — value, last-reported, filter and traffic — as
        // a full image encodes it, once the speculation is committed.
        let rows = |h: &mut ShardHandle| {
            h.request(ShardCmd::Commit { keep_below: u64::MAX });
            match h.request(ShardCmd::SaveState { rows: Rows::All }) {
                ShardReply::State(w) => w.into_bytes(),
                other => panic!("unexpected reply {other:?}"),
            }
        };
        for positions in [false, true] {
            let at = || if positions { vec![1, 2, 3, 4] } else { Vec::new() };
            let commands: [fn(Vec<u64>) -> ShardCmd; 3] = [
                |positions| ShardCmd::Deliver { local: 0, value: 300.0, positions },
                |positions| ShardCmd::Probe { local: 0, positions },
                |positions| ShardCmd::Install {
                    local: 0,
                    filter: Filter::interval(0.0, 1000.0),
                    positions,
                },
            ];
            for command in commands {
                let (mut asked, mut paired) = (prepared(positions), prepared(positions));
                let reply = asked.request(command(at()));
                assert!(matches!(asked, ShardHandle::Local { pending: None, .. }));
                paired.send(command(at()));
                let tag = format!("{:?}, positions {positions}", command(at()));
                assert_eq!(format!("{reply:?}"), format!("{:?}", paired.recv()), "{tag}");
                assert_eq!(rows(&mut asked), rows(&mut paired), "{tag}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one command in flight per shard")]
    fn a_request_over_a_pending_command_panics() {
        let mut h = ShardHandle::spawn(Shard::new(&[1.0]), 0, ExecMode::Inline);
        h.send(probe(0));
        h.request(probe(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "drop loses a command sent but never received")]
    fn coordinator_run_shard_never_drops_a_command_silently() {
        let mut h = ShardHandle::spawn(Shard::new(&[1.0]), 0, ExecMode::Threaded);
        h.send(probe(0));
        drop(h);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "shutdown drops a command sent but never received")]
    fn coordinator_run_shard_never_shuts_down_over_a_command() {
        let mut h = ShardHandle::spawn(Shard::new(&[1.0]), 0, ExecMode::Inline);
        h.send(probe(0));
        h.shutdown();
    }

    #[test]
    fn mailbox_round_trips_park_and_wake_in_order() {
        // Both sides sleep past the spin budget every few messages, so the
        // other side spins out and parks; every reply must still arrive,
        // once and in order, whichever side parked. A lost wake-up is a
        // hang, which the bound turns into a failure.
        const ROUND_TRIPS: u64 = 10_000;
        let pause = || std::thread::sleep(SPIN * 3);
        for spin in [SPIN, Duration::ZERO] {
            within_bound("round trips", move || {
                let (cmd, reply) = (Arc::new(Slot::new()), Arc::new(Slot::new()));
                let echo = {
                    let (cmd, reply) = (Arc::clone(&cmd), Arc::clone(&reply));
                    std::thread::spawn(move || {
                        let _hangup = CloseOnDrop(&*reply);
                        while let Some(i) = cmd.take(spin) {
                            if i % 7 == 3 {
                                pause();
                            }
                            reply.put(i * 2 + 1);
                        }
                    })
                };
                for i in 0..ROUND_TRIPS {
                    if i % 5 == 0 {
                        pause();
                    }
                    cmd.put(i);
                    assert_eq!(reply.take(spin), Some(i * 2 + 1), "spin {spin:?}");
                }
                cmd.close();
                echo.join().expect("echo thread");
                assert_eq!(reply.take(spin), None, "closed and drained");
            });
        }
    }

    #[test]
    fn a_worker_joins_whether_idle_busy_or_never_used() {
        for shut_down in [false, true] {
            for state in ["idle", "sent a command", "never sent anything"] {
                within_bound(state, move || {
                    let mut h = worker(&[1.0, 2.0]);
                    // Batch operations, since only they (and windows) are
                    // timed: the busy figure shows the worker ran them.
                    match state {
                        "idle" => match h.request(ShardCmd::ProbeAll) {
                            ShardReply::ProbedAll { values, .. } => assert_eq!(values, [1.0, 2.0]),
                            other => panic!("unexpected reply {other:?}"),
                        },
                        "sent a command" => h.send(ShardCmd::ProbeAll),
                        _ => {}
                    }
                    if shut_down {
                        let busy = h.shutdown();
                        assert_eq!(busy > 0, state != "never sent anything");
                    }
                    drop(h);
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard worker hung up")]
    fn a_dead_worker_is_a_hang_up_not_a_hang() {
        let mut h = worker(&[1.0]);
        // An out-of-range source panics inside the worker.
        h.send(probe(7));
        h.recv();
    }
}
