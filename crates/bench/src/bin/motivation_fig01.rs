//! Figure 1 / §1 motivation, quantified: value-based vs rank-based
//! tolerance for a continuous maximum query.
//!
//! The paper's introduction argues a numeric value tolerance `ε` is the
//! wrong knob for entity-based queries: choosing it needs knowledge of the
//! data spread, a large `ε` silently returns a deeply-ranked stream, and a
//! small `ε` saves nothing. This experiment runs the VT-MAX strawman over
//! a sweep of `ε` on the TCP-like workload and reports, for each setting,
//! the message bill and the *observed worst true rank* of the returned
//! answer — then the same workload under RTP, where the worst rank is a
//! declared guarantee and the message bill is comparable or better.

use asf_core::engine::Engine;
use asf_core::oracle;
use asf_core::protocol::{Protocol, Rtp, VtMax};
use asf_core::query::RankQuery;
use asf_core::workload::Workload;
use bench_harness::{print_table, Scale, Series};
use workloads::{TcpLikeConfig, TcpLikeWorkload};

fn main() {
    let scale = Scale::from_env();
    let cfg = if scale.is_quick() {
        TcpLikeConfig { subnets: 150, total_events: 6_000, ..Default::default() }
    } else {
        TcpLikeConfig { total_events: 20_000, ..Default::default() }
    };

    // --- Value-based tolerance sweep (the strawman). Byte values span
    // orders of magnitude, so "reasonable" epsilons are hard to name —
    // exactly the paper's point.
    let epsilons = [10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];
    let mut msgs = Vec::new();
    let mut worst_rank = Vec::new();
    for &eps in &epsilons {
        let mut w = TcpLikeWorkload::new(cfg);
        let mut engine = Engine::new(&w.initial_values(), VtMax::new(eps).unwrap());
        let mut worst = 0usize;
        engine.run_with_hook(&mut w, |fleet, protocol, _| {
            if let Some(answer) = protocol.answer().iter().next() {
                let ranking = oracle::true_ranking(asf_core::query::RankSpace::TopK, fleet);
                let rank = ranking.iter().position(|&s| s == answer).unwrap() + 1;
                worst = worst.max(rank);
            }
        });
        msgs.push(engine.ledger().total() as f64);
        worst_rank.push(worst as f64);
    }
    let xs: Vec<String> = epsilons.iter().map(|e| format!("{e}")).collect();
    print_table(
        &format!(
            "Motivation (Fig. 1a): VT-MAX value tolerance on TCP-like data ({} subnets, {} events)",
            cfg.subnets, cfg.total_events
        ),
        "eps (bytes)",
        &xs,
        &[
            Series { label: "messages".into(), values: msgs },
            Series { label: "worst observed rank".into(), values: worst_rank },
        ],
    );

    // --- Rank-based tolerance sweep (the paper's interface): the worst
    // rank is *guaranteed* to be 1 + r, no data knowledge needed.
    let rs = [0usize, 1, 2, 5, 10];
    let mut msgs = Vec::new();
    let mut worst_rank = Vec::new();
    let mut guaranteed = Vec::new();
    for &r in &rs {
        let mut w = TcpLikeWorkload::new(cfg);
        let query = RankQuery::top_k(1).unwrap();
        let mut engine = Engine::new(&w.initial_values(), Rtp::paper(query, r).unwrap());
        let mut worst = 0usize;
        engine.run_with_hook(&mut w, |fleet, protocol, _| {
            if let Some(answer) = protocol.answer().iter().next() {
                let ranking = oracle::true_ranking(asf_core::query::RankSpace::TopK, fleet);
                let rank = ranking.iter().position(|&s| s == answer).unwrap() + 1;
                worst = worst.max(rank);
            }
        });
        msgs.push(engine.ledger().total() as f64);
        worst_rank.push(worst as f64);
        guaranteed.push((1 + r) as f64);
    }
    let xs: Vec<String> = rs.iter().map(|r| r.to_string()).collect();
    print_table(
        "Motivation (Fig. 1b): RTP rank tolerance on the same workload (k = 1)",
        "r",
        &xs,
        &[
            Series { label: "messages".into(), values: msgs },
            Series { label: "worst observed rank".into(), values: worst_rank },
            Series { label: "guaranteed rank".into(), values: guaranteed },
        ],
    );
}
