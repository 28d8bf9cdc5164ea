//! Every metric the benchmark reports. Each is emitted from one place —
//! [`end_to_end`] or [`per_layer`] — as name, unit, direction, bound and
//! value together; `BENCHMARK.json` is checked against these lists by a
//! unit test.
//!
//! End-to-end metrics come from the untraced pass only. Per-layer metrics
//! are read from the always-on public counters of the same untraced pass,
//! over the measured part of its last repetition (`*_ns_per_event` =
//! counter delta ÷ measured events; zero where a layer is idle) unless
//! marked *T*, which need the traced pass. A layer is a module name.

use asf_telemetry::Cause;

use crate::kernels::KERNELS;
use crate::run::{Counters, Pass, Phase, CHUNK, TRACE_CAPACITY};
use crate::stats::{median, percentile};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// The measured value.
    pub value: f64,
}

fn lower(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, better: "lower", bound: None, value }
}

fn higher(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, better: "higher", bound: None, value }
}

impl Metric {
    fn bound(self, bound: f64) -> Self {
        Self { bound: Some(bound), ..self }
    }
}

/// The causes some workload bills messages to during its measured part.
const CAUSES: [Cause; 4] =
    [Cause::SourceReport, Cause::OverflowShrink, Cause::ExpansionRing, Cause::Repair];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What a user of the server sees, on every workload. From the untraced
/// pass only.
pub fn end_to_end(pass: &Pass) -> Vec<Metric> {
    vec![
        lower("setup_s", "s", median(&pass.setup_s)).bound(0.25),
        // Measured events of one repetition ÷ Σ over its calls of the
        // call's fastest repetition. Every call counts, and whatever it
        // costs in every repetition stays in; what the shared 2-core
        // sandbox adds to one repetition of it (the same binary runs up to
        // 2x slower for stretches of seconds) mostly drops out.
        higher(
            "updates_per_s",
            "events/s",
            pass.measured.events as f64 / (pass.uncontended_ingest_ns() as f64 / 1e9),
        )
        .bound(0.25),
        lower("messages_per_event", "msg/event", pass.messages as f64 / pass.events_total as f64)
            .bound(0.10),
        lower("durable_bytes", "bytes", pass.durable.disk_bytes as f64).bound(0.10),
        lower("peak_rss_mb", "MiB", pass.peak_rss_kb as f64 / 1024.0).bound(0.10),
    ]
}

/// Traced ÷ untraced mean events per second inside `ingest_event_batch`
/// (plain means on both sides, the untraced one over all repetitions):
/// below 0.9, tracing itself changed where the time goes and the traced
/// tables are approximate.
pub fn trace_overhead_ratio(untraced: &Pass, traced: &Pass) -> f64 {
    let calls = untraced.call_ns.iter().flatten();
    let untraced_ns = calls.clone().sum::<u64>() as f64 / (calls.count() * CHUNK) as f64;
    ratio(untraced_ns, traced.measured.ns_per_event())
}

/// One row of a traced table: a layer's share of a traced ingest wall.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    /// Layer (module) name.
    pub layer: &'static str,
    /// Coordinator-thread self time, ns per traced event.
    pub ns_per_event: f64,
    /// The span names (or counter) the row sums.
    pub from: &'static str,
}

/// Counter delta over a phase.
fn delta(phase: &Phase, f: fn(&Counters) -> u64) -> u64 {
    f(&phase.after).saturating_sub(f(&phase.before))
}

/// The traced table of one phase: coordinator-thread self time per layer,
/// ns/event. The rows partition the phase's traced `ingest` wall: every
/// program span folds into exactly one row and the last row, `wait`, is the
/// remainder (the `ingest` span's own self time — chunk hand-off, commits,
/// and anything the program records no span for).
///
/// With threaded shards the shard spans run beside the coordinator, so the
/// `shard` row is the evaluation critical path the coordinator had to wait
/// for (the `critical_path_ns` counter), carved out of its scatter/gather
/// self time; the rest of that time is hand-off.
pub fn layer_table(phase: &Phase, inline_shards: bool) -> Vec<LayerRow> {
    let st = &phase.self_times;
    let under_repair = |root: &str| root == "chaos_repair";
    let build = delta(phase, |c| c.server.window_build_ns);
    let routing = delta(phase, |c| c.ctx.routing_ns);
    let scatter_gather = st.self_ns("scatter_window") + st.self_ns("gather_window");
    let (shard, pipeline) = if inline_shards {
        (st.self_ns("shard_eval") + st.self_ns("ownership_scan"), scatter_gather)
    } else {
        let critical = delta(phase, |c| c.server.critical_path_ns).min(scatter_gather);
        (critical, scatter_gather - critical)
    };
    let handlers = st.sum(|root, name| {
        !under_repair(root) && (name == "drain_reports" || name == "deferred_flush")
    });
    let router = st.sum(|root, name| !under_repair(root) && name.starts_with("fleet_"));
    let rank = st.sum(|root, name| !under_repair(root) && name.starts_with("forest_"));
    let chaos = st.sum(|root, _| under_repair(root));
    let durability = st.self_ns("journal_append") + st.self_ns("checkpoint");
    let other = st.sum(|root, name| {
        !under_repair(root)
            && !matches!(
                name,
                "scatter_window"
                    | "gather_window"
                    | "shard_eval"
                    | "ownership_scan"
                    | "drain_reports"
                    | "deferred_flush"
                    | "journal_append"
                    | "checkpoint"
            )
            && !name.starts_with("fleet_")
            && !name.starts_with("forest_")
    });
    let protocol = handlers.saturating_sub(routing);
    let named =
        build + shard + pipeline + protocol + routing + router + rank + chaos + durability + other;
    let wait = phase.ingest_ns.saturating_sub(named);
    let events = phase.events as f64;
    let row = |layer, ns: u64, from| LayerRow { layer, ns_per_event: ns as f64 / events, from };
    vec![
        row("event_batch", build, "window_build_ns counter"),
        row("shard", shard, "shard_eval + ownership_scan | critical_path_ns (threaded)"),
        row("pipeline", pipeline, "scatter_window + gather_window"),
        row("protocol", protocol, "drain_reports + deferred_flush - routing_ns"),
        row("multi_query", routing, "routing_ns counter"),
        row("router", router, "fleet_*"),
        row("rank", rank, "forest_*"),
        row("chaos", chaos, "chaos_repair and everything under it"),
        row("durability", durability, "journal_append + checkpoint"),
        row("other", other, "spans this table does not know"),
        row("wait", wait, "remainder of the ingest span"),
    ]
}

/// Σ of the table's named rows (everything but the remainder), ns/event —
/// must not exceed the traced ingest wall by more than 10%.
pub fn table_named_sum(rows: &[LayerRow]) -> f64 {
    rows.iter().filter(|r| r.layer != "wait").map(|r| r.ns_per_event).sum()
}

/// Share of the phase's traced ingest wall the rows of `layers` account for.
pub fn share(rows: &[LayerRow], layers: &[&str], phase: &Phase) -> f64 {
    let named: f64 =
        rows.iter().filter(|r| layers.contains(&r.layer)).map(|r| r.ns_per_event).sum();
    ratio(named, phase.ns_per_event())
}

/// The per-layer metrics. `kernels` holds the layer-alone timings in
/// [`KERNELS`] order.
pub fn per_layer(untraced: &Pass, traced: &Pass, kernels: &[f64]) -> Vec<Metric> {
    let p = untraced;
    let m = &p.measured;
    let events = m.events as f64;
    let d = |f: fn(&Counters) -> u64| delta(m, f) as f64;
    let per_event = |f: fn(&Counters) -> u64| delta(m, f) as f64 / events;
    let calls: Vec<f64> = p.call_ns.iter().flatten().map(|&ns| ns as f64).collect();
    let us = |q: f64| percentile(&calls, q).value / 1e3;
    let shard_events: Vec<f64> = m
        .after
        .server
        .shard_events
        .iter()
        .zip(&m.before.server.shard_events)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let mean_shard = shard_events.iter().sum::<f64>() / shard_events.len() as f64;
    let skew = ratio(shard_events.iter().copied().fold(0.0, f64::max), mean_shard);
    let wait = m.ns_per_event()
        - per_event(|c| c.server.window_build_ns)
        - per_event(|c| c.server.critical_path_ns)
        - per_event(|c| c.server.serial_ns)
        - per_event(|c| c.server.fleet.wall_ns)
        - per_event(|c| c.server.repair_ns);
    let reports_per_event = per_event(|c| c.server.reports_consumed);
    let dur = &p.durable;
    let dur_events = dur.phase.events as f64;
    let traced_journal_ns = traced.durable.phase.self_times.self_ns("journal_append") as f64;

    let mut out = vec![
        lower(
            "workloads.gen_ns_per_event",
            "ns/event",
            p.gen_ns as f64 / (calls.len() * CHUNK) as f64,
        ),
        lower(
            "event_batch.build_ns_per_event",
            "ns/event",
            per_event(|c| c.server.window_build_ns),
        ),
        lower(
            "shard.busy_ns_per_event",
            "ns/event",
            per_event(|c| c.server.shard_busy_ns.iter().sum()),
        ),
        lower(
            "shard.scan_ns_per_event",
            "ns/event",
            per_event(|c| c.server.shard_scan_ns.iter().sum()),
        ),
        lower(
            "shard.critical_path_ns_per_event",
            "ns/event",
            per_event(|c| c.server.critical_path_ns),
        ),
        lower("shard.occupancy_skew", "ratio", skew),
        lower(
            "shard.rolled_back_per_commit",
            "ratio",
            ratio(d(|c| c.server.rolled_back), d(|c| c.server.speculative_commits)),
        ),
        lower(
            "pipeline.rounds_per_batch",
            "ratio",
            ratio(d(|c| c.server.rounds), d(|c| c.server.batches)),
        ),
        lower("pipeline.cuts_per_kevent", "1/kevent", per_event(|c| c.server.cuts) * 1e3),
        lower("pipeline.scatter_ns_per_event", "ns/event", per_event(|c| c.server.scatter_ns)),
        higher(
            "pipeline.overlap_saved_ns_per_event",
            "ns/event",
            per_event(|c| c.server.overlap_saved_ns),
        ),
        lower(
            "pipeline.discarded_busy_ns_per_event",
            "ns/event",
            per_event(|c| c.server.discarded_window_busy_ns),
        ),
        higher(
            "pipeline.reports_per_group",
            "ratio",
            ratio(d(|c| c.server.reports_consumed), d(|c| c.server.report_groups)),
        ),
        lower("pipeline.wait_ns_per_event", "ns/event", wait),
        lower("server.ingest_ns_per_event", "ns/event", m.ns_per_event()),
        lower("server.batch_p50_us", "us", us(50.0)),
        lower("server.batch_p99_us", "us", us(99.0)),
        lower("server.batch_p999_us", "us", us(99.9)),
        lower("server.init_ms", "ms", p.init_ms),
        lower("server.init_probe_ms", "ms", p.after_init.probe_ns as f64 / 1e6),
        lower("server.init_index_ms", "ms", p.after_init.index_build_ns as f64 / 1e6),
        lower("protocol.serial_ns_per_event", "ns/event", per_event(|c| c.server.serial_ns)),
        lower("protocol.reports_per_event", "ratio", reports_per_event),
        higher("protocol.silent_fraction", "ratio", 1.0 - reports_per_event),
    ];
    out.extend(CAUSES.map(|cause| {
        let messages = m.after.causes.total(cause) - m.before.causes.total(cause);
        lower(
            format!("protocol.causes.{}_per_event", cause.label()),
            "msg/event",
            messages as f64 / events,
        )
    }));
    out.extend([
        lower(
            "router.fleet_ops_per_kevent",
            "1/kevent",
            per_event(|c| c.server.fleet.batch_ops) * 1e3,
        ),
        lower("router.fleet_wall_ns_per_event", "ns/event", per_event(|c| c.server.fleet.wall_ns)),
        lower(
            "router.fleet_parallel_ns_per_event",
            "ns/event",
            per_event(|c| c.server.fleet.parallel_ns),
        ),
        lower("router.probe_streams_per_event", "ratio", per_event(|c| c.ctx.batch_probe_streams)),
        lower(
            "router.install_streams_per_event",
            "ratio",
            per_event(|c| c.ctx.batch_install_streams),
        ),
        lower(
            "rank.index_busy_ns_per_event",
            "ns/event",
            per_event(|c| c.server.index_busy_sum_ns),
        ),
        lower("rank.delta_refreshes", "count", d(|c| c.ctx.index_delta_refreshes)),
        lower("rank.delta_rekeys", "count", d(|c| c.ctx.index_delta_rekeys)),
        lower("rank.bulk_builds", "count", d(|c| c.ctx.index_bulk_builds)),
        lower(
            "multi_query.routing_ns_per_report",
            "ns/report",
            ratio(d(|c| c.ctx.routing_ns), d(|c| c.ctx.routed_reports)),
        ),
        lower(
            "multi_query.queries_touched_per_report",
            "ratio",
            ratio(d(|c| c.ctx.queries_touched), d(|c| c.ctx.routed_reports)),
        ),
        lower("multi_query.num_cells", "count", p.num_cells as f64),
        lower("chaos.repair_ns_per_event", "ns/event", per_event(|c| c.server.repair_ns)),
        lower("chaos.heartbeats_per_event", "frames/event", per_event(|c| c.chaos.heartbeats_sent)),
        lower(
            "chaos.overhead_frames_per_event",
            "frames/event",
            per_event(|c| c.chaos.overhead_frames),
        ),
        lower("chaos.retries", "count", d(|c| c.chaos.retries)),
        lower("chaos.timeouts", "count", d(|c| c.chaos.timeouts)),
        lower("chaos.epoch_rejects", "count", d(|c| c.chaos.epoch_rejects)),
        lower("chaos.reports_lost", "count", d(|c| c.chaos.reports_lost)),
        lower("chaos.repaired_sources", "count", d(|c| c.chaos.repaired_sources)),
        lower("chaos.spurious_expirations", "count", d(|c| c.chaos.spurious_expirations)),
        lower("chaos.lease_renewals", "count", d(|c| c.chaos.lease_renewals)),
        lower("chaos.dead_sources_end", "count", p.dead_sources_end as f64),
        // The durable phase of the untraced pass.
        lower(
            "durability.checkpoint_ns_per_event",
            "ns/event",
            delta(&dur.phase, |c| c.server.checkpoint_ns) as f64 / dur_events,
        ),
        lower(
            "durability.checkpoints",
            "count",
            delta(&dur.phase, |c| c.server.checkpoints) as f64,
        ),
        lower(
            "durability.journal_bytes_per_event",
            "bytes/event",
            dur.journal_chunk_bytes as f64 / CHUNK as f64,
        ),
        lower(
            "durability.journal_ns_per_event",
            "ns/event",
            traced_journal_ns / traced.durable.phase.events as f64,
        ),
        lower("durability.snapshot_bytes", "bytes", dur.snapshot_bytes as f64),
        lower("durability.recover_ms", "ms", median(&dur.recover_s) * 1e3),
        lower("durability.replay_ms", "ms", median(&dur.replay_ns) / 1e6),
        lower("durability.replayed_events", "events", dur.replayed_events as f64),
        lower("engine.serial_ns_per_event", "ns/event", p.engine_ns_per_event),
        higher("telemetry.trace_overhead_ratio", "ratio", trace_overhead_ratio(p, traced)),
        lower(
            "telemetry.ring_peak_fill",
            "ratio",
            traced.measured.self_times.peak_track_events() as f64 / TRACE_CAPACITY as f64,
        ),
    ]);
    out.extend(KERNELS.iter().zip(kernels).map(|(&(name, unit), &value)| lower(name, unit, value)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Plan;
    use crate::workloads::{self, SPECS};

    /// The text of `BENCHMARK.json` for these metric lists.
    fn benchmark_json(end_to_end: &[Metric], per_layer: &[Metric]) -> String {
        let workloads: Vec<String> = SPECS
            .iter()
            .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
            .collect();
        let metric = |m: &Metric| {
            let bound = m.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name, m.unit, m.better
            )
        };
        let list = |metrics: &[Metric]| metrics.iter().map(metric).collect::<Vec<_>>().join(",\n");
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
             \"--manifest-path\", \"crates/asf_bench/Cargo.toml\", \"--\"],\n  \
             \"paths\": [\"crates/asf_bench\"],\n  \"run_seconds\": {},\n  \
             \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
            crate::DEFAULT_SECONDS,
            workloads.join(",\n"),
            list(end_to_end),
            list(per_layer),
        )
    }

    /// A pass small enough for a unit test: 2000 streams, two warm-up
    /// chunks, two repetitions of eight chunks.
    fn tiny(trace: bool) -> Plan {
        Plan {
            population: 2_000,
            warmup_chunks: 2,
            chunks: 8,
            reps: if trace { 1 } else { 2 },
            trace,
        }
    }

    fn all_metrics(workload: &str, seed: u64) -> (Vec<Metric>, Vec<Metric>) {
        let tmp = std::env::temp_dir().join(format!("asf_bench-test-{}", std::process::id()));
        let untraced = workloads::run(workload, seed, &tiny(false), &tmp).unwrap();
        let traced = workloads::run(workload, seed, &tiny(true), &tmp).unwrap();
        assert_eq!(untraced.failures, Vec::<String>::new(), "{workload}");
        assert_eq!(traced.failures, Vec::<String>::new(), "{workload}");
        assert!(untraced.checks >= 4 && untraced.setup_s.len() == 2);
        for phase in [&traced.measured, &traced.durable.phase] {
            let rows = layer_table(phase, traced.inline_shards);
            let ingest = phase.ns_per_event();
            assert!(table_named_sum(&rows) <= 1.10 * ingest, "{workload}: {rows:?} vs {ingest}");
            let total: f64 = rows.iter().map(|r| r.ns_per_event).sum();
            assert!((total - ingest).abs() <= 0.10 * ingest, "{workload}: rows must sum");
        }
        let kernels = vec![0.0; KERNELS.len()];
        (end_to_end(&untraced), per_layer(&untraced, &traced, &kernels))
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    /// Metrics that count events of the deterministic protocol run: they
    /// must repeat exactly for a seed.
    fn is_count(name: &str) -> bool {
        matches!(name, "messages_per_event" | "durable_bytes")
            || (name.starts_with("protocol.") && name != "protocol.serial_ns_per_event")
            || (name.starts_with("chaos.") && name != "chaos.repair_ns_per_event")
            || matches!(
                name,
                "shard.occupancy_skew"
                    | "shard.rolled_back_per_commit"
                    | "pipeline.rounds_per_batch"
                    | "pipeline.cuts_per_kevent"
                    | "pipeline.reports_per_group"
                    | "router.fleet_ops_per_kevent"
                    | "router.probe_streams_per_event"
                    | "router.install_streams_per_event"
                    | "multi_query.queries_touched_per_report"
                    | "multi_query.num_cells"
                    | "durability.checkpoints"
                    | "durability.journal_bytes_per_event"
                    | "durability.snapshot_bytes"
                    | "durability.replayed_events"
            )
    }

    /// Every workload emits the same well-formed metric lists, which are
    /// exactly what `BENCHMARK.json` at the repository root declares; no
    /// end-to-end metric is ever 0; counts repeat for a seed and differ
    /// for another.
    #[test]
    fn every_workload_emits_what_benchmark_json_lists_and_counts_repeat_for_a_seed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        for spec in &SPECS {
            let (e2e, layers) = all_metrics(spec.name, 7);
            // The golden file is regenerated, not edited by hand.
            if std::env::var_os("ASF_BENCH_REGENERATE").is_some() {
                std::fs::write(path, benchmark_json(&e2e, &layers)).expect("BENCHMARK.json");
            }
            let declared = std::fs::read_to_string(path).expect("BENCHMARK.json");
            assert_eq!(
                declared,
                benchmark_json(&e2e, &layers),
                "{}: BENCHMARK.json must read as the right-hand side",
                spec.name
            );
            let mut seen = std::collections::BTreeSet::new();
            for metric in e2e.iter().chain(&layers) {
                assert!(well_formed(&metric.name), "{:?}", metric.name);
                assert!(seen.insert(&metric.name), "{:?} is used twice", metric.name);
                assert!(metric.value.is_finite(), "{}: {metric:?}", spec.name);
                assert!(
                    metric.unit.len() <= 16
                        && metric
                            .unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "{metric:?}"
                );
            }
            assert!(well_formed(spec.name) && spec.why.len() <= 200 && !spec.why.contains('\n'));
            let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
            for metric in &e2e {
                assert!(metric.value > 0.0, "{}: {metric:?} must never be 0", spec.name);
                assert!(metric.bound <= setup.bound && metric.bound <= Some(0.25), "{metric:?}");
            }
            assert!(layers.len() <= 128 && layers.iter().all(|m| m.bound.is_none()));

            let counts = |(e2e, layers): (Vec<Metric>, Vec<Metric>)| -> Vec<Metric> {
                e2e.into_iter().chain(layers).filter(|m| is_count(&m.name)).collect()
            };
            let first = counts((e2e, layers));
            assert_eq!(
                first,
                counts(all_metrics(spec.name, 7)),
                "{}: counts must repeat",
                spec.name
            );
            assert_ne!(
                first,
                counts(all_metrics(spec.name, 8)),
                "{}: seeds must differ",
                spec.name
            );
        }
    }

    #[test]
    fn throughput_counts_every_call_at_its_fastest_repetition() {
        let mut pass = workloads::run("range_hot", 7, &tiny(false), &std::env::temp_dir()).unwrap();
        // Call 0 is slow in every repetition (its content), call 1 in one
        // repetition only (the box).
        pass.call_ns = vec![vec![900, 100, 100, 100], vec![800, 700, 100, 100]];
        pass.measured.events = 4 * CHUNK as u64;
        assert_eq!(pass.uncontended_ingest_ns(), 800 + 100 + 100 + 100);
        let e2e = end_to_end(&pass);
        let rate = e2e.iter().find(|m| m.name == "updates_per_s").unwrap().value;
        assert_eq!(rate, 4.0 * CHUNK as f64 / 1100e-9);
    }
}
