//! The six workloads: what each one feeds the server, and why it exists.
//!
//! Every workload is the paper's §6.2 synthetic model (uniform initial
//! values in `[0, 1000]`, exponential inter-arrival mean 20, Gaussian step
//! σ = 20) over a population large enough that layer shares are stable;
//! they differ in the protocol (how often filters report and what a report
//! costs), in population size against cache, and in whether the unreliable
//! channel is attached. The server is what `ServerConfig::with_shards(2)`
//! gives an operator, with 4096-event batches; only `range_threaded`
//! changes one field. Every workload ends with the same durable phase.

use std::path::Path;

use asf_core::multi_query::{CellMode, MultiRangeZt, RoutingMode};
use asf_core::oracle;
use asf_core::protocol::{FtNrp, FtNrpConfig, Rtp, ZtNrp};
use asf_core::{FractionTolerance, RangeQuery, RankQuery, RankTolerance};
use asf_server::ExecMode;
use simkit::SimRng;
use streamnet::StreamId;

use crate::run::{run_pass, Hooks, Pass, Plan};

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Fixed name (`BENCHMARK.json`, the CLI, every report).
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    /// Streams at full scale.
    pub population: usize,
    /// Repetitions of set-up + measured part in an untraced pass: more where
    /// every call does about the same work, so that fewer distinct events
    /// cost little and the box's bursts are what spreads the throughput;
    /// fewer where the message bill needs the events to settle.
    pub reps: usize,
    /// Measured events of one repetition at `--seconds 10`.
    pub measured_events: u64,
    /// Inline or threaded shards.
    pub mode: ExecMode,
    /// Attach the 5%-loss unreliable channel.
    pub chaos: bool,
}

/// The workloads, in report order. Event counts were sized on the 2-core
/// dev box so that the repetitions' measured loops take 9–12 s together at
/// `--seconds 10`; generation (220–950 ns/event, untimed) dominates their
/// wall on the cheap rows.
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "range_hot",
        why: "FT-NRP range query, ~97% of events silent: shard evaluation and ownership scan \
              dominate ingest; the single-threaded baseline of range_threaded",
        population: 100_000,
        reps: 6,
        measured_events: 4_500_000,
        mode: ExecMode::Inline,
        chaos: false,
    },
    Spec {
        name: "range_threaded",
        why: "same input on threaded shards: cross-thread scatter/gather dominates, so a change \
              that trades inline for threaded cost shows as opposite moves on the two rows",
        population: 100_000,
        reps: 5,
        measured_events: 4_000_000,
        mode: ExecMode::Threaded,
        chaos: false,
    },
    Spec {
        name: "rank_knn",
        why: "RTP k-NN with rank tolerance: rare reports, each driving rank-index maintenance \
              and fleet-wide router ops; the tail-latency workload (n = 10k keeps its bursty \
              message bill steady across seeds)",
        population: 10_000,
        reps: 3,
        measured_events: 12_000_000,
        mode: ExecMode::Inline,
        chaos: false,
    },
    Spec {
        name: "multi_range",
        why: "1000 shared-cell range queries: reports ~ events, the filters stop filtering, cost \
              splits between protocol routing, pipeline cuts and re-evaluated windows",
        population: 100_000,
        reps: 3,
        measured_events: 500_000,
        mode: ExecMode::Inline,
        chaos: false,
    },
    Spec {
        name: "chaos_lossy",
        why: "ZT-NRP over a 5%-loss channel: O(n)-per-chunk heartbeat/repair rounds dominate; \
              data-plane changes predict no move here; chaos.overhead_frames_per_event is \
              per-layer, hence unguarded",
        population: 100_000,
        reps: 5,
        measured_events: 2_100_000,
        mode: ExecMode::Inline,
        chaos: true,
    },
    Spec {
        name: "durable_recover",
        why: "n = 500k: state (~26 MB image) larger than cache, and the durable phase every \
              workload ends with (journal, checkpoint, crash, 5 recoveries) at scale; its \
              timings are per-layer, hence unguarded",
        population: 500_000,
        reps: 5,
        measured_events: 1_800_000,
        mode: ExecMode::Inline,
        chaos: false,
    },
];

/// The spec called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().find(|s| s.name == name).copied()
}

/// The paper's range query and the multi-query population size.
const RANGE: (f64, f64) = (400.0, 600.0);
const MULTI_QUERIES: usize = 1000;
/// Queries whose answers the `multi_range` oracle compares per check.
const MULTI_SAMPLED: usize = 16;

/// `m` seeded random ranges of width `1000/m · U(0.5, 1.5)`, so the
/// expected total membership stays ≈ n whatever `m` is.
fn multi_queries(seed: u64) -> Vec<RangeQuery> {
    let m = MULTI_QUERIES;
    let mut rng = SimRng::seed_from_u64(seed ^ (m as u64).rotate_left(17));
    (0..m)
        .map(|_| {
            let width = 1000.0 / m as f64 * (0.5 + rng.next_f64());
            let lo = rng.range_f64(0.0, 1000.0 - width);
            RangeQuery::new(lo, lo + width).expect("generated query is valid")
        })
        .collect()
}

/// Runs one pass of the workload called `name`.
pub fn run(name: &str, seed: u64, plan: &Plan, tmp: &Path) -> Result<Pass, String> {
    let spec = spec(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let range = RangeQuery::new(RANGE.0, RANGE.1).expect("static range");
    match name {
        "range_hot" | "range_threaded" => {
            let tol = FractionTolerance::new(0.1, 0.1).expect("static tolerance");
            let hooks = Hooks {
                make: &|| FtNrp::new(range, tol, FtNrpConfig::default(), seed).expect("static"),
                check: &|server| {
                    let truth = server.truth_fleet();
                    vec![oracle::fraction_range_violation(range, tol, &server.answer(), &truth)]
                },
                num_cells: 0,
            };
            run_pass(&spec, seed, plan, tmp, &hooks)
        }
        "rank_knn" => {
            let (k, r) = (16, 16);
            let query = RankQuery::knn(500.0, k).expect("static query");
            let tol = RankTolerance::new(k, r).expect("static tolerance");
            let hooks = Hooks {
                make: &|| Rtp::new(query, r).expect("static config"),
                check: &|server| {
                    let truth = server.truth_fleet();
                    vec![oracle::rank_violation(query, tol, &server.answer(), &truth)]
                },
                num_cells: 0,
            };
            run_pass(&spec, seed, plan, tmp, &hooks)
        }
        "multi_range" => {
            let queries = multi_queries(seed);
            let make = || {
                MultiRangeZt::with_config(
                    queries.clone(),
                    CellMode::ServerManaged,
                    RoutingMode::default(),
                )
                .expect("non-empty query set")
            };
            let hooks = Hooks {
                make: &make,
                check: &|server| {
                    let truth = server.truth_fleet();
                    (0..MULTI_SAMPLED)
                        .map(|i| {
                            let j = i * (MULTI_QUERIES / MULTI_SAMPLED);
                            let want = oracle::true_range_answer(queries[j], &truth);
                            (server.protocol().answer_of(j) != want)
                                .then(|| format!("query {j} differs from its true range answer"))
                        })
                        .collect()
                },
                num_cells: make().num_cells(),
            };
            run_pass(&spec, seed, plan, tmp, &hooks)
        }
        "chaos_lossy" => {
            let hooks = Hooks {
                make: &|| ZtNrp::new(range),
                // Exactness over the population the server can vouch for,
                // and the degraded view must have forgotten the dead.
                check: &|server| {
                    let truth = server.truth_fleet();
                    let live = server.live_view();
                    let answer = server.answer();
                    let chaos = server.chaos().expect("chaos enabled");
                    let forgotten = chaos.dead_ids().into_iter().all(|id| !live.is_known(id));
                    vec![
                        oracle::live_range_exact_violation(
                            range,
                            &answer,
                            &truth,
                            |id: StreamId| chaos.is_verified(id),
                        ),
                        (!forgotten).then(|| "a dead source is still known in live_view".into()),
                    ]
                },
                num_cells: 0,
            };
            run_pass(&spec, seed, plan, tmp, &hooks)
        }
        "durable_recover" => {
            let hooks = Hooks {
                make: &|| ZtNrp::new(range),
                check: &|server| {
                    let truth = server.truth_fleet();
                    let exact = server.answer() == oracle::true_range_answer(range, &truth);
                    vec![(!exact).then(|| "answer differs from the true range answer".into())]
                },
                num_cells: 0,
            };
            run_pass(&spec, seed, plan, tmp, &hooks)
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}
