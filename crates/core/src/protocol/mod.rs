//! The paper's filter-bound protocols (§4–§5).
//!
//! Every protocol is a server-side state machine implementing [`Protocol`]:
//! the engine calls [`Protocol::initialize`] once (the papers'
//! *Initialization phases*) and [`Protocol::on_update`] for every report
//! that reaches the server (the *Maintenance phases*). Protocols talk to
//! the sources exclusively through [`ServerCtx`], which meters every message
//! and defers induced sync-reports to the engine's pending queue
//! (DESIGN.md §3.2).

mod ctx;
mod ft_nrp;
mod ft_rp;
pub mod heuristics;
mod no_filter;
mod rtp;
mod vt_max;
mod zt_nrp;
mod zt_rp;

pub use ctx::{CtxStats, FleetScratch, ServerCtx, ROUTING_SAMPLE, ROUTING_SAMPLE_MAX_NS};
pub use ft_nrp::{FtNrp, FtNrpConfig};
pub use ft_rp::{FtRp, FtRpConfig};
pub use heuristics::SelectionHeuristic;
pub use no_filter::NoFilter;
pub use rtp::Rtp;
pub use vt_max::VtMax;
pub use zt_nrp::ZtNrp;
pub use zt_rp::ZtRp;

use asf_persist::{StateReader, StateWriter};
use streamnet::StreamId;

use crate::answer::AnswerSet;
use crate::query::RankSpace;

/// A server-side filter-bound protocol.
///
/// `Send + Sync` is part of the contract: protocol state must be plain data
/// (no `Rc`/`RefCell`/thread-local handles) so that a protocol core can be
/// moved into — or shared with — the concurrent `asf-server` runtime. The
/// trait is object-safe; the server holds protocols as `dyn Protocol` when
/// it needs to mix them.
pub trait Protocol: Send + Sync {
    /// Short name for reports ("RTP", "FT-NRP", …).
    fn name(&self) -> &'static str;

    /// The Initialization phase: collect stream values and deploy the
    /// initial filter constraints. Called exactly once, before any events.
    fn initialize(&mut self, ctx: &mut ServerCtx<'_>);

    /// The Maintenance phase: handle one report `(stream, value)` that
    /// reached the server (the `Update` message is already accounted and
    /// the server view already refreshed when this is called).
    fn on_update(&mut self, id: StreamId, value: f64, ctx: &mut ServerCtx<'_>);

    /// The current answer set `A(t)` returned to the user.
    fn answer(&self) -> AnswerSet;

    /// Degradation hook: the fault-tolerance layer detected that `dead`
    /// sources went silently dark (lease expired). The protocol may adjust
    /// its internal state — e.g. drop the sources from its answer set or
    /// widen remaining tolerance allocations — before the oracle re-checks
    /// bounds over the surviving live population.
    ///
    /// Dead sources cannot be probed (they do not answer), so
    /// implementations must not touch the fleet for members of `dead`. The
    /// default does nothing: the engine already excludes dead sources from
    /// the verified-live population, and the oracle accounts each dead
    /// answer member as a potential violation.
    fn on_fleet_degraded(&mut self, dead: &[StreamId], ctx: &mut ServerCtx<'_>) {
        let _ = (dead, ctx);
    }

    /// Serializes the protocol's **mutable** state into a checkpoint.
    ///
    /// Configuration (queries, tolerances, heuristics, seeds) is *not*
    /// written: recovery reconstructs the protocol from the same
    /// configuration and then loads the mutable state on top. The default
    /// writes nothing and is correct only for stateless protocols; every
    /// stateful protocol must override it (the recovery differential test
    /// fails loudly if one forgets). The protocols here declare the pair
    /// as one field list with [`asf_persist::persist!`].
    fn save_state(&self, w: &mut StateWriter) {
        let _ = w;
    }

    /// Restores the mutable state written by [`Protocol::save_state`] into
    /// a freshly configured protocol. The reader bounds stream ids by the
    /// population ([`StateReader::set_population`]), and whatever it
    /// accepts must re-encode to the bytes it consumed.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> asf_persist::Result<()> {
        let _ = r;
        Ok(())
    }

    /// The rank space this protocol orders streams by, if it is a
    /// rank-query protocol.
    ///
    /// When `Some`, the engine maintains an incremental
    /// [`crate::rank::RankForest`] of `rank_parts` partitions (one on the
    /// serial engine, one per shard on `asf-server`) over the server view
    /// in this space and serves it through [`ServerCtx::ranks`], so
    /// per-report rank maintenance is O(log n) instead of a full re-sort.
    /// Range protocols keep the default `None`, pay nothing, and must not
    /// call [`ServerCtx::ranks`].
    fn rank_space(&self) -> Option<RankSpace> {
        None
    }
}

/// Compile-time proof that [`Protocol`] stays object-safe.
const _: fn(&dyn Protocol) = |_| {};
