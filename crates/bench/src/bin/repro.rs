//! Runs every figure reproduction in sequence (Figures 9–15), then the
//! ablations. `cargo run --release -p bench_harness --bin repro [--quick]`.
//!
//! Each figure binary prints its own table; `crates/bench/README.md`
//! describes them. No file records a paper-scale run.

use std::process::Command;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let bins = [
        "fig09",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "motivation_fig01",
        "ablation_rho",
        "ablation_reinit",
        "ablation_costmodel",
        "ablation_multiquery",
    ];
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("exe dir");
    for bin in bins {
        let path = dir.join(bin);
        let mut cmd = Command::new(&path);
        if quick {
            cmd.arg("--quick");
        }
        let status = cmd.status().unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed with {status}");
    }
}
