//! What a run prints: every metric by name with its unit, the traced
//! table, the issue's dominance predictions, and the one-line JSON result
//! the benchmark contract prescribes.

use crate::metrics::{self, LayerRow, Metric};
use crate::run::{Pass, Phase, CHUNK};
use crate::stats::percentile;

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics` (`name -> {value, unit}`), on one line.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    )
}

/// One `name value unit` line per metric.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let bound = m.bound.map_or(String::new(), |b| format!("  (bound {b})"));
        println!("  {:<44} {:>16.4} {:<12} {} is better{bound}", m.name, m.value, m.unit, m.better);
    }
}

/// Sample statistics behind the timing metrics of one pass: the rate of
/// each repetition, per-call percentiles with their counts, checks.
pub fn print_samples(label: &str, pass: &Pass) {
    let events = pass.measured.events as f64;
    let rate = |ns: u64| events / (ns as f64 / 1e9) / 1e6;
    let rounded = |x: f64| (x * 1e3).round() / 1e3;
    let reps: Vec<f64> = pass.call_ns.iter().map(|rep| rounded(rate(rep.iter().sum()))).collect();
    println!(
        "{label}: {} repetition(s) of {} measured events in {} calls; Mevents/s inside ingest per \
         repetition {reps:?}, each call at its fastest repetition {:.3}; set-up {:?} s",
        reps.len(),
        pass.measured.events,
        pass.call_ns[0].len(),
        rate(pass.uncontended_ingest_ns()),
        pass.setup_s.iter().map(|&s| rounded(s)).collect::<Vec<_>>(),
    );
    let calls: Vec<f64> = pass.call_ns.iter().flatten().map(|&ns| ns as f64).collect();
    let points: Vec<String> = [50.0, 99.0, 99.9]
        .iter()
        .map(|&p| {
            let pc = percentile(&calls, p);
            let note = if pc.beyond >= 10 { "" } else { ", unsupported: <10" };
            format!("p{p} {:.1} us [{} beyond{note}]", pc.value / 1e3, pc.beyond)
        })
        .collect();
    println!("{label}: {} ingest calls of {CHUNK} events; {}", calls.len(), points.join("; "));
    println!(
        "{label}: {} correctness checks, {} failed{}",
        pass.checks,
        pass.failures.len(),
        if pass.failures.is_empty() { String::new() } else { format!(": {:?}", pass.failures) }
    );
    let d = &pass.durable;
    println!(
        "{label}: durable phase {} events at {:.0} ns/event, crash with {} bytes on disk, {} \
         recoveries {:?} ms each replaying {} events",
        d.phase.events,
        d.phase.ns_per_event(),
        d.disk_bytes,
        d.recover_s.len(),
        d.recover_s.iter().map(|s| (s * 1e4).round() / 10.0).collect::<Vec<_>>(),
        d.replayed_events
    );
}

/// Prints one traced table and returns whether it sums: the named rows may
/// not exceed the traced ingest wall by more than 10% (they would if spans
/// were double counted); the remainder row absorbs the rest.
pub fn print_table(title: &str, rows: &[LayerRow], phase: &Phase, inline_shards: bool) -> bool {
    let ingest = phase.ns_per_event();
    println!(
        "{title}: coordinator self time per layer, ns/event (traced ingest {ingest:.1} ns/event \
         over {} events)",
        phase.events
    );
    for r in rows {
        println!(
            "  {:<14} {:>12.2}  {:>6.1}%   {}",
            r.layer,
            r.ns_per_event,
            100.0 * r.ns_per_event / ingest,
            r.from
        );
    }
    let total: f64 = rows.iter().map(|r| r.ns_per_event).sum();
    let sums = metrics::table_named_sum(rows) <= 1.10 * ingest;
    println!(
        "  {:<14} {total:>12.2}  {:>6.1}%   {}",
        "sum",
        100.0 * total / ingest,
        if sums { "within 10% of the traced ingest wall" } else { "DOES NOT SUM" }
    );
    if !inline_shards {
        let st = &phase.self_times;
        println!(
            "  beside the coordinator, on shard threads: shard_eval {:.2} + ownership_scan {:.2} \
             ns/event (parallel; in no sum)",
            st.parallel_ns("shard_eval") as f64 / phase.events as f64,
            st.parallel_ns("ownership_scan") as f64 / phase.events as f64,
        );
    }
    sums
}

/// The issue's prediction of each workload's dominant layer, evaluated as
/// the issue words it on the rows of the traced tables (`measured`; for
/// `durable_recover`, `durable`). A failed prediction is a finding to
/// report, never a failed run; `note` lines give a wider reading beside
/// the verdict, never in its place.
pub fn print_predictions(
    workload: &str,
    measured: (&[LayerRow], &Phase),
    durable: (&[LayerRow], &Phase),
    untraced: &Pass,
) {
    let (rows, phase) = measured;
    let share = |layers: &[&str]| metrics::share(rows, layers, phase);
    let m = &untraced.measured;
    let reports = (m.after.server.reports_consumed - m.before.server.reports_consumed) as f64
        / m.events as f64;
    let pct = |x: f64| format!("{:.1}%", 100.0 * x);
    let mut notes: Vec<String> = Vec::new();
    let verdicts: Vec<(String, bool)> = match workload {
        "range_hot" => {
            let s = share(&["shard", "event_batch"]);
            vec![(format!("shard + event_batch > 50% of ingest (measured {})", pct(s)), s > 0.5)]
        }
        "range_threaded" => {
            let wait = share(&["wait"]);
            let (next, next_share) = rows
                .iter()
                .filter(|r| r.layer != "wait")
                .map(|r| (r.layer, share(&[r.layer])))
                .fold(("", 0.0), |a, b| if b.1 > a.1 { b } else { a });
            // The issue defines `pipeline.wait_ns_per_event` from counters
            // that leave the scatter/gather hand-off inside it.
            notes.push(format!(
                "pipeline (scatter/gather hand-off beyond the critical path) + wait together: {}",
                pct(share(&["pipeline", "wait"]))
            ));
            vec![(
                format!(
                    "pipeline.wait is the largest term (measured wait {} vs {next} {})",
                    pct(wait),
                    pct(next_share)
                ),
                wait > next_share,
            )]
        }
        "rank_knn" => {
            let (control, shard) = (share(&["router", "rank", "protocol"]), share(&["shard"]));
            vec![(
                format!(
                    "router + rank + protocol > shard (measured {} vs {})",
                    pct(control),
                    pct(shard)
                ),
                control > shard,
            )]
        }
        "multi_range" => {
            let s = share(&["protocol", "multi_query", "pipeline"]);
            notes.push(format!(
                "with the wait remainder added: {}",
                pct(share(&["protocol", "multi_query", "pipeline", "wait"]))
            ));
            vec![
                (
                    format!("protocol.reports_per_event > 0.9 (measured {reports:.3})"),
                    reports > 0.9,
                ),
                (
                    format!(
                        "protocol + multi_query + pipeline > 50% of ingest (measured {})",
                        pct(s)
                    ),
                    s > 0.5,
                ),
            ]
        }
        "chaos_lossy" => {
            let (shard, chaos) = (share(&["shard"]), share(&["chaos"]));
            vec![
                (format!("shard < 20% of ingest (measured {})", pct(shard)), shard < 0.2),
                (format!("chaos > 70% of ingest (measured {})", pct(chaos)), chaos > 0.7),
            ]
        }
        "durable_recover" => {
            let (rows, phase) = durable;
            let share = |layers: &[&str]| metrics::share(rows, layers, phase);
            let (shard, dur) = (share(&["shard"]), share(&["durability"]));
            vec![
                (
                    format!("durable phase: shard < 20% of ingest (measured {})", pct(shard)),
                    shard < 0.2,
                ),
                (
                    format!("durable phase: durability > 50% of ingest (measured {})", pct(dur)),
                    dur > 0.5,
                ),
            ]
        }
        _ => Vec::new(),
    };
    for (what, holds) in verdicts {
        println!("prediction {}: {what}", if holds { "holds" } else { "FAILS (finding)" });
    }
    for note in notes {
        println!("  note: {note}");
    }
}
