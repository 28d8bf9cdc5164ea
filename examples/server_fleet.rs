//! A fleet of concurrent range queries on the sharded stream server.
//!
//! Scenario: a monitoring service maintains six standing dashboards, each
//! an entity-based range query ("which sensors read 400–600 right now?"),
//! over one population of 2 000 sensor streams. The queries share one
//! elementary-cell filter per source (`MultiRangeZt` plan sharing) and run
//! on `asf-server` with 4 threaded shards (the coordinator runs shard 0,
//! 3 worker threads run the rest); the same run is repeated on the
//! single-threaded engine to show the answers — and the message bill — are
//! byte-identical.
//!
//! Run with: `cargo run --release --example server_fleet`
//!
//! Pass `--trace-out <path>` to dump the run's span timeline as Chrome
//! trace-event JSON (open in Perfetto or `chrome://tracing`).

use asf_core::engine::Engine;
use asf_core::multi_query::{CellMode, MultiRangeZt};
use asf_core::query::RangeQuery;
use asf_core::workload::{UpdateEvent, VecWorkload, Workload};
use asf_server::{
    DurabilityConfig, ExecMode, ServerConfig, ShardedServer, TelemetryConfig, TraceDepth,
};
use simkit::fault::FaultMix;
use streamnet::{ChaosConfig, StreamId};
use workloads::{SyntheticConfig, SyntheticWorkload};

fn queries() -> Vec<RangeQuery> {
    vec![
        RangeQuery::new(0.0, 150.0).unwrap(),
        RangeQuery::new(100.0, 300.0).unwrap(),
        RangeQuery::new(250.0, 500.0).unwrap(),
        RangeQuery::new(400.0, 600.0).unwrap(),
        RangeQuery::new(550.0, 800.0).unwrap(),
        RangeQuery::new(750.0, 1000.0).unwrap(),
    ]
}

fn main() {
    let mut trace_out: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(argv.next().expect("--trace-out needs a path")),
            other => panic!("unknown argument {other:?} (supported: --trace-out <path>)"),
        }
    }

    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: 2_000,
        horizon: 200.0,
        seed: 2024,
        ..Default::default()
    });
    let initial = w.initial_values();
    let mut events: Vec<UpdateEvent> = Vec::new();
    while let Some(ev) = w.next_event() {
        events.push(ev);
    }
    println!(
        "population: {} streams, {} updates, {} standing queries (shared cell filters)\n",
        initial.len(),
        events.len(),
        queries().len()
    );

    // Sharded, threaded server: 3 worker threads plus the coordinator,
    // which runs shard 0 itself. Each chunk is one round — the shards
    // evaluate it, the coordinator drains its reports, every shard
    // commits — and the chunk is a shared columnar batch the shards
    // self-partition, so the coordinator never copies events per shard.
    let config = ServerConfig {
        num_shards: 4,
        batch_size: 1024,
        mode: ExecMode::Threaded,
        telemetry: TelemetryConfig {
            causes: true,
            trace: if trace_out.is_some() { TraceDepth::Fine } else { TraceDepth::Off },
            trace_capacity: 65_536,
        },
    };
    let protocol = MultiRangeZt::with_mode(queries(), CellMode::SourceResident).unwrap();
    let mut server = ShardedServer::new(&initial, protocol, config);
    server.initialize();
    // Durable state: every ingestion chunk is journaled (write-ahead,
    // synced) before it applies, and checkpoints land in the background —
    // the crash-and-recover demo at the end rebuilds from this directory.
    let durable_dir = std::env::temp_dir().join(format!("asf-server-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&durable_dir);
    let durable = DurabilityConfig::new(&durable_dir).checkpoint_every(16_384);
    server.enable_durability(durable.clone()).expect("open durability dir");
    server.ingest_batch(&events);

    println!("asf-server (4 shards, threaded):");
    for (j, q) in queries().iter().enumerate() {
        println!(
            "  dashboard {j}: [{:>6.1}, {:>6.1}] -> {:>4} sensors",
            q.lo(),
            q.hi(),
            server.protocol().answer_of(j).len()
        );
    }
    println!("  messages: {}", server.ledger().breakdown());
    println!("  metrics:  {}", server.metrics().summary());
    let m = server.metrics();
    println!(
        "  drain:    {:.1} reports coalesced per quiescent point",
        m.coalesced_reports_per_group().unwrap_or(f64::NAN),
    );
    println!(
        "  scatter:  {} rounds (one per chunk), each chunk shared by reference, coordinator \
         fan-out {:.1}us total; per-shard ownership scans {:.1}us (parallel)\n",
        m.rounds,
        m.scatter_ns as f64 / 1_000.0,
        m.shard_scan_ns.iter().sum::<u64>() as f64 / 1_000.0,
    );
    println!(
        "  durable:  {} checkpoints ({:.1}us coordinator-side serialize), write-ahead \
         journal {:.1} KiB\n",
        m.checkpoints,
        m.checkpoint_ns as f64 / 1_000.0,
        m.journal_bytes as f64 / 1024.0,
    );
    let breakdown = server.cause_breakdown();
    if breakdown.is_empty() {
        println!("  causes:   (no protocol messages attributed)\n");
    } else {
        println!("  causes (messages by originating protocol decision):");
        for line in breakdown.lines() {
            println!("    {line}");
        }
        println!();
    }
    if let Some(path) = &trace_out {
        let json = server.export_chrome_trace();
        let events = asf_telemetry::validate_chrome_trace(&json).expect("trace must validate");
        std::fs::write(path, &json).expect("write trace file");
        println!("  trace:    {events} events -> {path}\n");
    }

    // Reference: the single-threaded simulation engine.
    let protocol = MultiRangeZt::with_mode(queries(), CellMode::SourceResident).unwrap();
    let mut engine = Engine::new(&initial, protocol);
    engine.initialize();
    let mut vw = VecWorkload::new(initial.clone(), events.clone());
    engine.run(&mut vw);

    let identical = (0..queries().len())
        .all(|j| server.protocol().answer_of(j) == engine.protocol().answer_of(j))
        && server.ledger() == engine.ledger();
    println!(
        "single-threaded engine agrees byte-for-byte (answers + ledger): {}",
        if identical { "yes" } else { "NO (bug!)" }
    );
    assert!(identical);

    // Crash (drop without shutdown) and recover from disk: the latest
    // checkpoint plus a journal-suffix replay rebuilds the same bytes.
    drop(server);
    let protocol = MultiRangeZt::with_mode(queries(), CellMode::SourceResident).unwrap();
    let recovered = ShardedServer::recover(&initial, protocol, config, durable)
        .expect("recover from durability dir");
    let recovered_ok = (0..queries().len())
        .all(|j| recovered.protocol().answer_of(j) == engine.protocol().answer_of(j))
        && recovered.ledger() == engine.ledger();
    println!(
        "crash + recover: {:.2}ms of journal replay -> byte-identical again: {}",
        recovered.metrics().recovery_replay_ns as f64 / 1_000_000.0,
        if recovered_ok { "yes" } else { "NO (bug!)" }
    );
    assert!(recovered_ok);
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&durable_dir);

    // Unreliable-fleet demo: the same dashboards with the source↔server
    // channel behind a seeded fault injector — 5% frame loss plus light
    // delay/duplication and occasional crash-restarts. Chaos composes
    // with durability: every checkpoint embeds the serialized channel
    // machine, so the crash at the end of this phase recovers
    // *mid-fault-storm*. The authoritative ledger still meters only the
    // logical protocol; retransmissions, ghosts, and heartbeats land in
    // the chaos overhead counters.
    let mix = FaultMix {
        drop_p: 0.05,
        delay_p: 0.02,
        dup_p: 0.02,
        crash_p: 0.001,
        max_delay_ticks: 256,
        max_outage_ticks: 2048,
    };
    let chaos_dir = std::env::temp_dir().join(format!("asf-fleet-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&chaos_dir);
    let chaos_durable = DurabilityConfig::new(&chaos_dir).checkpoint_every(16_384);
    let protocol = MultiRangeZt::with_mode(queries(), CellMode::SourceResident).unwrap();
    let mut faulty = ShardedServer::new(&initial, protocol, config);
    faulty.initialize();
    faulty.enable_durability(chaos_durable.clone()).expect("open chaos durability dir");
    faulty.enable_chaos(ChaosConfig::new(2024, mix, u64::MAX).lease_ticks(4096));
    faulty.ingest_batch(&events);
    let stats = *faulty.chaos_stats().expect("chaos enabled");
    let m = faulty.metrics().clone();
    println!("\nunreliable fleet (5% loss + delay/dup + crash-restarts, faults never cease):");
    println!(
        "  channel:  {} overhead frames ({} heartbeats, {} dup ghosts), {} reports lost, \
         {} delayed, {} source crashes",
        stats.overhead_frames,
        stats.heartbeats_sent,
        stats.dup_frames,
        stats.reports_lost,
        stats.reports_delayed,
        stats.crashes,
    );
    println!(
        "  repair:   retries {}, timeouts {}, epoch rejects {}, dead sources {}, \
         {} repair re-probes, {:.1}us spent repairing",
        m.retries,
        m.timeouts,
        m.epoch_rejects,
        m.dead_sources,
        stats.repaired_sources,
        m.repair_ns as f64 / 1_000.0,
    );
    let lease_hist = m.lease_len_hist();
    println!(
        "  leases:   {} renewals, {} expirations ({} spurious); adaptive lease lengths \
         p50 {:.0} / p99 {:.0} ticks over {} changes",
        stats.lease_renewals,
        stats.lease_expirations,
        m.spurious_expirations,
        lease_hist.percentile(50.0).unwrap_or(f64::NAN),
        lease_hist.percentile(99.0).unwrap_or(f64::NAN),
        lease_hist.count(),
    );
    println!(
        "  durable:  {} repair fan-outs charged as one batched frame each; channel \
         machine adds {:.1} KiB to every checkpoint",
        m.repair_batches,
        m.chaos_state_bytes as f64 / 1024.0,
    );
    let live = faulty.live_view();
    let vouched = (0..initial.len()).filter(|&i| live.is_known(StreamId(i as u32))).count();
    println!(
        "  degraded: live view vouches for {vouched}/{} sources (expired leases are \
         excluded until a repair re-probe revives them)",
        initial.len()
    );

    // Crash inside the fault storm and recover: the checkpointed channel
    // machine (fault-RNG resume words included) plus the journal suffix
    // rebuilds the chaotic run bit-exact — same answers, same fault
    // counters, storm still active.
    let faulty_answers: Vec<_> =
        (0..queries().len()).map(|j| faulty.protocol().answer_of(j).clone()).collect();
    let faulty_ledger = faulty.ledger().clone();
    drop(faulty); // crash: no shutdown, no final checkpoint
    let protocol = MultiRangeZt::with_mode(queries(), CellMode::SourceResident).unwrap();
    let restormed = ShardedServer::recover(&initial, protocol, config, chaos_durable)
        .expect("recover mid-fault-storm");
    let restormed_ok = (0..queries().len())
        .all(|j| restormed.protocol().answer_of(j) == faulty_answers[j])
        && restormed.ledger() == &faulty_ledger
        && restormed.chaos_stats() == Some(&stats)
        && restormed.chaos().is_some_and(|c| c.faults_active());
    println!(
        "  recover:  crash mid-storm + recover -> byte-identical, storm still live: {}",
        if restormed_ok { "yes" } else { "NO (bug!)" }
    );
    assert!(restormed_ok);
    restormed.shutdown();
    let _ = std::fs::remove_dir_all(&chaos_dir);
}
