//! Telemetry correctness at the workspace seams: the mergeable
//! log-bucketed histogram against `simkit::percentile` (the exact
//! sort-based reference), exact merge semantics, the server's snapshot
//! schema, and the Chrome trace-event export smoke (the `--trace-out`
//! payload of the `server_fleet` example).

use asf_core::protocol::ZtNrp;
use asf_core::query::RangeQuery;
use asf_core::workload::{UpdateEvent, Workload};
use asf_server::{ServerConfig, ShardedServer, TelemetryConfig, TraceDepth};
use asf_telemetry::{json, validate_chrome_trace, LogHistogram};
use workloads::{SyntheticConfig, SyntheticWorkload};

/// Deterministic xorshift64* stream for the property sweeps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The exact nearest-rank percentile the histogram quantizes: the
/// `ceil(p/100 · n)`-th smallest sample.
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len() as u64;
    let target = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n);
    sorted[(target - 1) as usize]
}

#[test]
fn histogram_percentiles_track_the_exact_sample_within_bucket_bounds() {
    let percentiles = [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0];
    let mut rng = Rng(0x5EED_CAFE);
    // Distribution sweep: uniform small, uniform wide, heavy-tailed
    // (exponentially spread), and constant — each at several sizes.
    for (dist, n) in [(0usize, 100usize), (0, 5_000), (1, 5_000), (2, 5_000), (3, 1_000)] {
        let mut data: Vec<u64> = (0..n)
            .map(|_| match dist {
                0 => rng.next() % 1_000,
                1 => rng.next() % 10_000_000_000,
                2 => {
                    let shift = rng.next() % 50;
                    (rng.next() % 1024) << shift
                }
                _ => 777,
            })
            .collect();
        let mut hist = LogHistogram::new();
        for &v in &data {
            hist.record(v);
        }
        data.sort_unstable();

        assert_eq!(hist.count(), n as u64);
        assert_eq!(hist.min(), Some(data[0]));
        assert_eq!(hist.max(), Some(data[n - 1]));
        assert_eq!(hist.sum(), data.iter().map(|&v| v as u128).sum::<u128>());

        for &p in &percentiles {
            let h = hist.percentile(p).unwrap();
            let t = nearest_rank(&data, p);
            // The histogram reports the representative of the bucket
            // holding the exact nearest-rank sample, clamped by the exact
            // min/max — so it must land inside that bucket's value range.
            let (lo, hi) = LogHistogram::value_range(t);
            let lo = lo.max(data[0]) as f64;
            let hi = hi.min(data[n - 1]) as f64;
            assert!(
                (lo..=hi).contains(&h),
                "dist {dist} n {n} p{p}: hist {h} outside bucket [{lo}, {hi}] of exact {t}"
            );
        }
    }
}

#[test]
fn histogram_agrees_with_simkit_percentile_within_bucket_resolution() {
    // Large uniform sample: interpolation vs nearest-rank differences
    // vanish, leaving only the log-bucket quantization (≤ 1/32 relative).
    let mut rng = Rng(42);
    let data: Vec<u64> = (0..50_000).map(|_| 1_000 + rng.next() % 9_000_000).collect();
    let mut hist = LogHistogram::new();
    for &v in &data {
        hist.record(v);
    }
    let as_f64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
    for p in [10.0, 50.0, 90.0, 99.0] {
        let h = hist.percentile(p).unwrap();
        let exact = simkit::percentile(&as_f64, p);
        let rel = (h - exact).abs() / exact;
        assert!(rel < 0.05, "p{p}: hist {h} vs exact {exact} off by {:.2}%", rel * 100.0);
    }
}

#[test]
fn histogram_merge_is_exact() {
    // Merging shard-local histograms must equal the histogram of the
    // concatenated samples — bucket-for-bucket, not approximately.
    let mut rng = Rng(7);
    let data: Vec<u64> = (0..9_001).map(|_| rng.next() % 1_000_000).collect();
    let mut whole = LogHistogram::new();
    for &v in &data {
        whole.record(v);
    }
    let mut merged = LogHistogram::new();
    for chunk in data.chunks(1_000) {
        let mut part = LogHistogram::new();
        for &v in chunk {
            part.record(v);
        }
        merged.merge(&part);
    }
    assert_eq!(merged.count(), whole.count());
    assert_eq!(merged.sum(), whole.sum());
    assert_eq!(merged.min(), whole.min());
    assert_eq!(merged.max(), whole.max());
    for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
        assert_eq!(merged.percentile(p), whole.percentile(p), "p{p} diverged after merge");
    }
}

fn traced_server_after_ingest(
    trace: TraceDepth,
) -> (ShardedServer<ZtNrp>, Vec<f64>, Vec<UpdateEvent>) {
    traced_server_with(trace, 3, 8192)
}

fn traced_server_with(
    trace: TraceDepth,
    shards: usize,
    trace_capacity: usize,
) -> (ShardedServer<ZtNrp>, Vec<f64>, Vec<UpdateEvent>) {
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: 48,
        horizon: 80.0,
        seed: 5,
        ..Default::default()
    });
    let initial = w.initial_values();
    let mut events = Vec::new();
    while let Some(ev) = w.next_event() {
        events.push(ev);
    }
    let config = ServerConfig::with_shards(shards).batch_size(64).telemetry(TelemetryConfig {
        causes: true,
        trace,
        trace_capacity,
    });
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let mut server = ShardedServer::new(&initial, ZtNrp::new(query), config);
    server.initialize();
    server.ingest_batch(&events);
    (server, initial, events)
}

#[test]
fn chrome_trace_export_is_well_formed_and_names_the_pipeline_stages() {
    let (mut server, _, _) = traced_server_after_ingest(TraceDepth::Fine);
    let json_text = server.export_chrome_trace();
    let n = validate_chrome_trace(&json_text).expect("export must validate");
    assert!(n > 0, "fine tracing recorded nothing");
    // The timeline must carry every track and the coordinator stages the
    // docs promise (Perfetto renders these as named rows and spans).
    for needle in [
        "\"coordinator\"",
        "\"fleet-ops\"",
        "\"shard-0\"",
        "\"shard-2\"",
        "\"initialize\"",
        "\"scatter_window\"",
        "\"gather_window\"",
        "\"drain_reports\"",
        "\"shard_eval\"",
        "\"ownership_scan\"",
    ] {
        assert!(json_text.contains(needle), "trace export missing {needle}");
    }
    // Draining leaves the rings empty: a second export is a valid, empty
    // timeline (metadata-only).
    let again = server.export_chrome_trace();
    assert_eq!(validate_chrome_trace(&again), Ok(0), "rings must drain on export");
    assert_eq!(server.trace_spans_dropped(), 0, "a roomy ring drops nothing");
}

#[test]
fn trace_spans_dropped_sums_the_coordinator_fleet_op_and_shard_rings() {
    // Four-event rings overflow at once. The coordinator and fleet-op
    // rings record the same spans at any shard count, so the eight-shard
    // server's surplus over the one-shard server is its seven extra shard
    // rings.
    let dropped = |shards| {
        let (mut server, ..) = traced_server_with(TraceDepth::Fine, shards, 4);
        let dropped = server.trace_spans_dropped();
        drop(server.export_chrome_trace());
        assert_eq!(server.trace_spans_dropped(), dropped, "an export keeps the count");
        dropped
    };
    let (one, eight) = (dropped(1), dropped(8));
    assert!(one > 0, "a four-event ring must overflow");
    assert!(eight > one, "shard rings must count: {one} at 1 shard, {eight} at 8");
    let (mut off, ..) = traced_server_with(TraceDepth::Off, 8, 4);
    assert_eq!(off.trace_spans_dropped(), 0, "tracing off records and drops nothing");
}

/// The `server.*`, `fleet.*` and `ctx.*` keys named in the first column of
/// the snapshot schema table in `crates/bench/README.md`.
fn documented_keys() -> Vec<&'static str> {
    const README: &str = include_str!("../crates/bench/README.md");
    let section = README.split("## The telemetry snapshot schema").nth(1).expect("schema section");
    let table = section.split("\n## ").next().expect("section body");
    table
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .flat_map(|row| {
            let key_cell = row.split(" | ").next().expect("first cell");
            // Outside backticks at even indices, keys at odd ones; the
            // prefix stripped the first backtick.
            key_cell.split('`').step_by(2)
        })
        .filter(|key| ["server.", "fleet.", "ctx."].iter().any(|p| key.starts_with(p)))
        .collect()
}

#[test]
fn telemetry_snapshot_has_the_documented_schema() {
    let (server, _, events) = traced_server_after_ingest(TraceDepth::Coarse);
    let snapshot = server.telemetry_snapshot();
    let parsed = json::parse(&snapshot).expect("snapshot must be valid JSON");
    let obj = parsed.as_object().expect("snapshot is one flat object");
    let get = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    // The README's table and the snapshot name the same keys: everything
    // documented is emitted, and every emitted `server.*` key is
    // documented.
    let documented = documented_keys();
    assert!(documented.contains(&"server.batches") && documented.contains(&"ctx.probe_ns"));
    for key in &documented {
        assert!(get(key).is_some(), "snapshot missing documented {key}:\n{snapshot}");
    }
    for (key, _) in obj.iter().filter(|(key, _)| key.starts_with("server.")) {
        assert!(
            documented.contains(&key.as_str()),
            "{key} is emitted but not documented in crates/bench/README.md"
        );
    }
    for key in ["causes.init.probe_req", "causes.deferred_flush.install", "causes.total"] {
        assert!(get(key).is_some(), "snapshot missing {key}:\n{snapshot}");
    }
    let events_field = get("server.events").unwrap().as_f64().expect("numeric");
    assert_eq!(events_field as u64, events.len() as u64);
    // The batch-latency histogram is a nested object with the percentile
    // fields the bench README documents.
    let hist = get("server.batch_apply_ns").unwrap().as_object().expect("histogram object");
    for field in ["count", "mean", "min", "max", "p50", "p90", "p99"] {
        assert!(hist.iter().any(|(k, _)| k == field), "batch_apply_ns histogram missing {field}");
    }
    // The full cause × kind matrix is always present (schema stability):
    // 11 causes × 5 kinds + the grand total.
    let cause_cells = obj.iter().filter(|(k, _)| k.starts_with("causes.")).count();
    assert_eq!(cause_cells, 11 * 5 + 1, "cause matrix must be fully registered");
}
