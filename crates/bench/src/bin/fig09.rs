//! Figure 9 — RTP on TCP-like data: messages vs. rank tolerance `r`.
//!
//! The paper's setup (§6.1): a top-k query over the per-subnet traffic
//! value ("the subnets with the k-highest volume of data transferred"),
//! `k ∈ {15, 20, 25, 30}`, rank tolerance `r` swept from 0 to 20, compared
//! against the no-filter baseline. One line per `k`; the baseline is flat.
//!
//! Expected shape (paper): messages fall steeply as `r` grows; at `r = 0`
//! and large `k`, RTP is *worse* than no filter because the bound `R` is
//! recomputed (and re-broadcast to all 800 subnets) too frequently.
//!
//! The `RTP k=…` series are the paper's deployment ([`Rtp::paper`]); beside
//! each, `scoped k=…` is this library's default ([`Rtp::new`]), which
//! installs a bound only where the held one stopped being conservative.
//! `--quick` is a CI gate: it fails if the paper-faithful numbers drift from
//! the pinned row, or if a scoped series comes to cost more than its
//! paper-faithful one.

use asf_core::protocol::{NoFilter, Rtp};
use asf_core::query::RankQuery;
use bench_harness::{print_table, run_to_completion, Scale, Series};
use workloads::{TcpLikeConfig, TcpLikeWorkload};

/// The paper-faithful cells of the `--quick` table's `r = 0` row, one per
/// `k`, as printed by commit 64f4db0 (the last whose `Rtp` broadcast every
/// bound).
const QUICK_PAPER_R0: [f64; 4] = [48_203.0, 44_085.0, 44_322.0, 42_229.0];

fn main() {
    let scale = Scale::from_env();
    let cfg = if scale.is_quick() {
        TcpLikeConfig { subnets: 150, total_events: 6_000, ..Default::default() }
    } else {
        TcpLikeConfig::default()
    };
    let ks: &[usize] = &[15, 20, 25, 30];
    let rs: Vec<usize> = (0..=20).step_by(2).collect();
    // RTP's expensive events (bound redeployments, expansion searches) are
    // rare and bursty, so single runs are noisy; average a few trace seeds
    // as the paper's plotted curves evidently do.
    let seeds: &[u64] = if scale.is_quick() { &[1] } else { &[1, 2, 3] };

    let workload = |seed: u64| TcpLikeWorkload::new(TcpLikeConfig { seed, ..cfg });

    // Baseline: no filter, every connection event is one update message.
    let baseline = seeds
        .iter()
        .map(|&s| {
            let query = RankQuery::top_k(ks[0]).unwrap();
            run_to_completion(NoFilter::rank(query), &mut workload(s)).messages() as f64
        })
        .sum::<f64>()
        / seeds.len() as f64;

    let mut series =
        vec![Series { label: "no-filter".into(), values: vec![baseline.round(); rs.len()] }];
    for &k in ks {
        for (label, make) in [("RTP", Rtp::paper as fn(_, _) -> _), ("scoped", Rtp::new)] {
            let mut values = Vec::with_capacity(rs.len());
            for &r in &rs {
                let mean = seeds
                    .iter()
                    .map(|&s| {
                        let protocol = make(RankQuery::top_k(k).unwrap(), r).unwrap();
                        run_to_completion(protocol, &mut workload(s)).messages() as f64
                    })
                    .sum::<f64>()
                    / seeds.len() as f64;
                values.push(mean.round());
            }
            series.push(Series { label: format!("{label} k={k}"), values });
        }
    }

    let xs: Vec<String> = rs.iter().map(|r| r.to_string()).collect();
    print_table(
        &format!(
            "Figure 9: RTP on TCP-like data ({} subnets, {} events) — messages vs r",
            cfg.subnets, cfg.total_events
        ),
        "r",
        &xs,
        &series,
    );

    if scale.is_quick() {
        let mut failed = false;
        for (pair, want) in series[1..].chunks(2).zip(QUICK_PAPER_R0) {
            let (paper, scoped) = (&pair[0], &pair[1]);
            if paper.values[0] != want {
                eprintln!("{}: r = 0 reads {}, pinned {want}", paper.label, paper.values[0]);
                failed = true;
            }
            let (p, s): (f64, f64) = (paper.values.iter().sum(), scoped.values.iter().sum());
            if s > p {
                eprintln!("{} sums to {s}, more than {} at {p}", scoped.label, paper.label);
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
