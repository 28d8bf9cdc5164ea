//! Uniform access to a shard, inline or on its own worker thread.
//!
//! The coordinator talks to every shard through [`ShardHandle`] with a
//! send/recv pair, so scatter–gather code is written once:
//!
//! * **Inline** — the command executes immediately on the caller's thread
//!   and the reply is buffered. Deterministic, zero-overhead; the default
//!   for tests and for modeling per-shard work on constrained hardware.
//! * **Threaded** — the shard lives in a worker thread behind **bounded**
//!   MPSC channels ([`std::sync::mpsc::sync_channel`]); commands and
//!   replies block when the channel is full, providing backpressure.
//!
//! Both modes produce identical results by construction — scheduling can
//! only change *when* a shard runs, never the sequence-ordered outcome the
//! coordinator assembles.

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::shard::{Shard, ShardCmd, ShardReply};

/// Bound of each MPSC command/reply channel in threaded mode. The
/// coordinator gathers (or absorbs, or — for a fleet touch — stashes)
/// every scatter's reply before it sends the same shard another command,
/// so at most one command and one reply are ever in flight per shard; 2 — the only value any caller ever configured — keeps
/// one slot of slack above that, so neither side blocks on a send, while
/// still bounding what a stalled peer can queue.
const CHANNEL_CAPACITY: usize = 2;

/// How shard work is executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Shards run inline on the coordinator thread.
    #[default]
    Inline,
    /// One worker thread per shard, bounded-channel message passing.
    Threaded,
}

/// A coordinator-side handle to one shard.
#[derive(Debug)]
pub enum ShardHandle {
    /// Shard executed on the caller's thread; replies are buffered.
    Inline {
        /// The shard itself.
        shard: Box<Shard>,
        /// Replies not yet collected by `recv`.
        replies: VecDeque<ShardReply>,
    },
    /// Shard on a worker thread behind bounded channels.
    Threaded {
        /// Command channel into the worker.
        tx: SyncSender<ShardCmd>,
        /// Reply channel out of the worker.
        rx: Receiver<ShardReply>,
        /// The worker thread, joined on drop.
        join: Option<JoinHandle<u64>>,
    },
}

impl ShardHandle {
    /// Wraps a shard according to `mode`.
    pub fn spawn(shard: Shard, mode: ExecMode) -> Self {
        match mode {
            ExecMode::Inline => {
                ShardHandle::Inline { shard: Box::new(shard), replies: VecDeque::new() }
            }
            ExecMode::Threaded => {
                let (tx, cmd_rx) = sync_channel::<ShardCmd>(CHANNEL_CAPACITY);
                let (reply_tx, rx) = sync_channel::<ShardReply>(CHANNEL_CAPACITY);
                let join = std::thread::spawn(move || {
                    let mut shard = shard;
                    while let Ok(cmd) = cmd_rx.recv() {
                        if matches!(cmd, ShardCmd::Shutdown) {
                            break;
                        }
                        if reply_tx.send(shard.exec(cmd)).is_err() {
                            break;
                        }
                    }
                    shard.busy_ns()
                });
                ShardHandle::Threaded { tx, rx, join: Some(join) }
            }
        }
    }

    /// Sends one command (inline: executes it immediately).
    pub fn send(&mut self, cmd: ShardCmd) {
        match self {
            ShardHandle::Inline { shard, replies } => replies.push_back(shard.exec(cmd)),
            ShardHandle::Threaded { tx, .. } => {
                tx.send(cmd).expect("shard worker hung up");
            }
        }
    }

    /// Receives the next reply (blocking in threaded mode).
    pub fn recv(&mut self) -> ShardReply {
        match self {
            ShardHandle::Inline { replies, .. } => {
                replies.pop_front().expect("recv without a pending inline command")
            }
            ShardHandle::Threaded { rx, .. } => rx.recv().expect("shard worker hung up"),
        }
    }

    /// Sends one command and waits for its reply.
    pub fn request(&mut self, cmd: ShardCmd) -> ShardReply {
        self.send(cmd);
        self.recv()
    }

    /// The shard's cumulative busy time (ns). In threaded mode this is only
    /// known after shutdown; `None` while the worker is still running.
    pub fn busy_ns(&self) -> Option<u64> {
        match self {
            ShardHandle::Inline { shard, .. } => Some(shard.busy_ns()),
            ShardHandle::Threaded { .. } => None,
        }
    }

    /// Stops the worker (threaded mode) and returns its cumulative busy
    /// time in nanoseconds.
    pub fn shutdown(&mut self) -> u64 {
        match self {
            ShardHandle::Inline { shard, .. } => shard.busy_ns(),
            ShardHandle::Threaded { tx, join, .. } => {
                let _ = tx.send(ShardCmd::Shutdown);
                join.take().map(|j| j.join().unwrap_or(0)).unwrap_or(0)
            }
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        if let ShardHandle::Threaded { tx, join, .. } = self {
            let _ = tx.send(ShardCmd::Shutdown);
            if let Some(j) = join.take() {
                let _ = j.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Partition;

    #[test]
    fn inline_and_threaded_agree() {
        let p = Partition::new(1);
        let values = p.split_values(&[100.0, 500.0, 900.0]);
        for mode in [ExecMode::Inline, ExecMode::Threaded] {
            let mut h = ShardHandle::spawn(Shard::new(&values[0]), mode);
            match h.request(ShardCmd::ProbeAll) {
                ShardReply::ProbedAll { values, .. } => {
                    assert_eq!(values, vec![100.0, 500.0, 900.0])
                }
                other => panic!("unexpected reply {other:?}"),
            }
            match h.request(ShardCmd::Deliver { local: 1, value: 550.0 }) {
                ShardReply::Delivered(r) => assert_eq!(r, Some(550.0)),
                other => panic!("unexpected reply {other:?}"),
            }
            assert!(h.shutdown() > 0 || matches!(mode, ExecMode::Threaded));
        }
    }
}
