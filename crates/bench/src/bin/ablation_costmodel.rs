//! Ablation — per-message-class breakdown of every protocol, plus the
//! server-computation proxy.
//!
//! The paper reports one number (total messages) and claims "significant
//! savings in both communication overhead and server computation"; this
//! ablation decomposes the former by class (DESIGN.md §3.3) — updates
//! (crossings), probes (Fix_Error / expansion searches), installs, and
//! broadcasts (bound redeployments) — and quantifies the latter as the
//! fraction of workload events that reach the server at all.

use asf_core::protocol::{FtNrp, FtNrpConfig, FtRp, FtRpConfig, NoFilter, Rtp, ZtNrp, ZtRp};
use asf_core::query::{RangeQuery, RankQuery};
use asf_core::tolerance::FractionTolerance;
use bench_harness::{print_breakdown, run_to_completion, Scale};
use workloads::{SyntheticConfig, SyntheticWorkload};

fn main() {
    let scale = Scale::from_env();
    let cfg = if scale.is_quick() {
        SyntheticConfig { num_streams: 300, horizon: 100.0, ..Default::default() }
    } else {
        SyntheticConfig { num_streams: 2000, horizon: 400.0, ..Default::default() }
    };
    let range = RangeQuery::new(400.0, 600.0).unwrap();
    let k = if scale.is_quick() { 20 } else { 60 };
    let knn = RankQuery::knn(500.0, k).unwrap();
    let tol = FractionTolerance::symmetric(0.2).unwrap();

    println!(
        "\n## Ablation: message breakdown by class ({} streams, horizon {}, eps=0.2, k={k})\n",
        cfg.num_streams, cfg.horizon
    );

    let fresh = || SyntheticWorkload::new(cfg);
    let show = |label: &str, r: &bench_harness::RunResult| {
        print_breakdown(label, &r.ledger);
        println!(
            "  {:<28} server handled {} of {} events ({:.1}% load)",
            "",
            r.server_reports,
            r.events,
            100.0 * r.server_load()
        );
    };

    let r = run_to_completion(NoFilter::range(range), &mut fresh());
    show("no-filter (range)", &r);

    let r = run_to_completion(ZtNrp::new(range), &mut fresh());
    show("ZT-NRP", &r);

    let r = run_to_completion(
        FtNrp::new(range, tol, FtNrpConfig::default(), 42).unwrap(),
        &mut fresh(),
    );
    show("FT-NRP", &r);

    let r = run_to_completion(NoFilter::rank(knn), &mut fresh());
    show("no-filter (k-NN)", &r);

    let r = run_to_completion(Rtp::paper(knn, 10).unwrap(), &mut fresh());
    show("RTP (r=10)", &r);

    // The library's default deployment: installs replace the broadcasts.
    let r = run_to_completion(Rtp::new(knn, 10).unwrap(), &mut fresh());
    show("RTP scoped (r=10)", &r);

    let r = run_to_completion(ZtRp::new(knn).unwrap(), &mut fresh());
    show("ZT-RP", &r);

    let r =
        run_to_completion(FtRp::new(knn, tol, FtRpConfig::default(), 42).unwrap(), &mut fresh());
    show("FT-RP", &r);
}
