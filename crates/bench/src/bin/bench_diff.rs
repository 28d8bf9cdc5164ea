//! Compares a freshly produced `server_throughput` snapshot against the
//! committed `BENCH_server.json` baseline.
//!
//! Two classes of difference:
//!
//! * **Schema drift** — top-level keys, the per-row field set of
//!   `results`, or the set of result-row identities
//!   (scenario/shards/mode) changed. This is a **hard
//!   failure** (exit 1): someone added, renamed, or dropped a field
//!   without updating the committed baseline and
//!   `crates/bench/README.md`.
//! * **Numeric drift** — a shared numeric field moved beyond its
//!   tolerance. **Advisory only** (reported, exit 0): the committed
//!   baseline is a full-scale run while CI produces `--quick` snapshots,
//!   so absolute numbers legitimately differ by orders of magnitude;
//!   the report exists to make unexpected *shape* changes (a ratio field
//!   collapsing, a fraction leaving `[0, 1]`) visible in the log.
//!
//! Usage: `bench_diff <fresh.json> [<committed.json>]` (the baseline
//! defaults to `BENCH_server.json` in the working directory).

use std::collections::BTreeSet;
use std::process::ExitCode;

use asf_telemetry::json::{self, Value};

/// Fields compared with a *scale-free* tolerance: ratios, fractions, and
/// per-round rates that should be comparable between quick and full runs.
/// Everything else (event counts, nanosecond totals, throughput) is
/// scale-dependent and only reported when it changes by more than 100x.
const SCALE_FREE: &[(&str, f64)] = &[
    ("parallel_fraction", 0.5),
    ("window_depth", 0.5),
    // Pool warm-up amortizes over ~10x fewer rounds at --quick scale, so
    // quick runs legitimately sit ~10x above the full-scale baseline;
    // only an order-of-magnitude pooling regression should surface.
    ("allocs_per_round", 15.0),
];

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn top_level_keys(v: &Value) -> BTreeSet<String> {
    v.as_object().map(|m| m.iter().map(|(k, _)| k.clone()).collect()).unwrap_or_default()
}

/// The identity of one result row — the sweep coordinates.
fn row_identity(row: &Value) -> String {
    let s = |k: &str| row.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
    let n = |k: &str| row.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    format!("{}/shards={}/{}", s("scenario"), n("shards"), s("mode"))
}

fn row_fields(row: &Value) -> BTreeSet<String> {
    row.as_object().map(|m| m.iter().map(|(k, _)| k.clone()).collect()).unwrap_or_default()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(fresh_path) = args.next() else {
        eprintln!("usage: bench_diff <fresh.json> [<committed.json>]");
        return ExitCode::FAILURE;
    };
    let committed_path = args.next().unwrap_or_else(|| "BENCH_server.json".to_string());

    let (fresh, committed) = match (load(&fresh_path), load(&committed_path)) {
        (Ok(f), Ok(c)) => (f, c),
        (f, c) => {
            for r in [f, c] {
                if let Err(e) = r {
                    eprintln!("bench_diff: {e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };

    let mut schema_errors: Vec<String> = Vec::new();

    // 1. Top-level key set.
    let fresh_keys = top_level_keys(&fresh);
    let committed_keys = top_level_keys(&committed);
    for k in committed_keys.difference(&fresh_keys) {
        schema_errors.push(format!("top-level key \"{k}\" missing from fresh snapshot"));
    }
    for k in fresh_keys.difference(&committed_keys) {
        schema_errors.push(format!(
            "top-level key \"{k}\" is new (update BENCH_server.json and the README)"
        ));
    }

    // 2. Named top-level sub-objects whose key sets are part of the schema
    // (e.g. the `recovery` block). Presence is scale-dependent for some of
    // them (`telemetry_overhead` is `null` under `--quick`), so the key-set
    // comparison only runs when both sides materialized an object.
    for name in ["recovery", "telemetry_overhead", "chaos", "chaos_recovery", "multi_query"] {
        let (Some(c), Some(f)) = (committed.get(name), fresh.get(name)) else { continue };
        if c.as_object().is_none() || f.as_object().is_none() {
            continue;
        }
        let ck = top_level_keys(c);
        let fk = top_level_keys(f);
        for k in ck.difference(&fk) {
            schema_errors.push(format!("{name}.{k} missing from fresh snapshot"));
        }
        for k in fk.difference(&ck) {
            schema_errors
                .push(format!("{name}.{k} is new (update BENCH_server.json and the README)"));
        }
    }

    // 3. Result rows: identities and per-row field sets.
    let empty: Vec<Value> = Vec::new();
    let rows_of = |v: &Value| -> Vec<Value> {
        v.get("results").and_then(Value::as_array).unwrap_or(&empty).to_vec()
    };
    let fresh_rows = rows_of(&fresh);
    let committed_rows = rows_of(&committed);
    let find = |rows: &[Value], id: &str| rows.iter().find(|r| row_identity(r) == id).cloned();

    for row in &committed_rows {
        let id = row_identity(row);
        match find(&fresh_rows, &id) {
            None => schema_errors.push(format!("result row {id} missing from fresh snapshot")),
            Some(fresh_row) => {
                let cf = row_fields(row);
                let ff = row_fields(&fresh_row);
                for k in cf.difference(&ff) {
                    schema_errors.push(format!("row {id}: field \"{k}\" missing from fresh row"));
                }
                for k in ff.difference(&cf) {
                    schema_errors.push(format!("row {id}: field \"{k}\" is new"));
                }
            }
        }
    }
    for row in &fresh_rows {
        let id = row_identity(row);
        if find(&committed_rows, &id).is_none() {
            schema_errors.push(format!("result row {id} is new"));
        }
    }

    // 4. Advisory numeric drift on matching rows.
    let mut advisories = 0usize;
    for row in &committed_rows {
        let id = row_identity(row);
        let Some(fresh_row) = find(&fresh_rows, &id) else { continue };
        let Some(members) = row.as_object() else { continue };
        for (k, v) in members {
            let (Some(old), Some(new)) = (v.as_f64(), fresh_row.get(k).and_then(Value::as_f64))
            else {
                continue;
            };
            let tolerance =
                SCALE_FREE.iter().find(|(name, _)| name == k).map(|&(_, tol)| tol).unwrap_or(100.0);
            let denom = old.abs().max(1e-9);
            let rel = (new - old).abs() / denom;
            if rel > tolerance {
                advisories += 1;
                eprintln!(
                    "advisory: {id}.{k}: committed {old:.4} vs fresh {new:.4} \
                     ({rel:.1}x beyond tolerance {tolerance})"
                );
            }
        }
    }

    println!(
        "bench_diff: {} committed rows, {} fresh rows, {} schema errors, {} numeric advisories",
        committed_rows.len(),
        fresh_rows.len(),
        schema_errors.len(),
        advisories
    );
    if !schema_errors.is_empty() {
        for e in &schema_errors {
            eprintln!("schema drift: {e}");
        }
        eprintln!(
            "bench_diff: schema drift detected — regenerate BENCH_server.json with \
             `cargo run --release -p bench_harness --bin server_throughput` and document \
             new fields in crates/bench/README.md"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
