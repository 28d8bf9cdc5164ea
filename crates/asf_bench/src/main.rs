//! `asf_bench` — the repository's one measured, layered benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/asf_bench/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! ```
//!
//! With `--workload` it runs that workload in this process and ends its
//! standard output with the benchmark contract's one-line JSON result
//! (`--trace 0`: the end-to-end metrics; `--trace 1`: the per-layer
//! metrics, from an extra traced pass at ⅛ of the events plus the
//! layer-alone kernels in a child process). Without `--workload` it runs
//! all six, each in a fresh child process re-exec'd from this one so that
//! allocator state, caches and `VmHWM` do not leak between workloads, and
//! ends with a summary whose last key is `"claim": null`. See `README.md`
//! beside this package for every metric's definition.

mod kernels;
mod metrics;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use kernels::KERNELS;
use run::{Plan, CHUNK, WARMUP_CHUNKS};
use workloads::{Spec, SPECS};

/// `--seed` default.
const DEFAULT_SEED: u64 = 48_764;
/// `--seconds` default, and `run_seconds` of `BENCHMARK.json`: at this
/// value the measured loops (generation + ingest) of a workload's
/// repetitions take about this many seconds of wall on the 2-core dev box.
const DEFAULT_SECONDS: u64 = 10;
/// Kernel timings handed from the all-workloads parent to its children,
/// so the layer-alone pass runs once per invocation.
const KERNELS_ENV: &str = "ASF_BENCH_KERNELS";

/// How large a run is.
#[derive(Clone, Copy, Debug)]
struct Scale {
    /// Multiplier on each spec's measured events.
    events: f64,
    /// Divisor on each spec's population.
    population_div: usize,
    warmup_chunks: usize,
}

impl Scale {
    fn full(seconds: u64) -> Self {
        Self {
            events: seconds as f64 / DEFAULT_SECONDS as f64,
            population_div: 1,
            warmup_chunks: WARMUP_CHUNKS,
        }
    }

    /// 1/64 of the events on 1/8 of the population: every code path of all
    /// six workloads in under ten seconds. Never written to
    /// `BENCHMARK.json`.
    fn smoke() -> Self {
        Self { events: 1.0 / 64.0, population_div: 8, warmup_chunks: 4 }
    }

    /// The untraced pass repeats the measured part `spec.reps` times; the
    /// traced pass runs it once, on an eighth of the events.
    fn plan(&self, spec: &Spec, trace: bool) -> Plan {
        let events = spec.measured_events as f64 * self.events * if trace { 0.125 } else { 1.0 };
        Plan {
            population: spec.population / self.population_div,
            // Every drain of a traced chunk costs as much as the chunk, so
            // the traced pass warms up on an eighth as well.
            warmup_chunks: if trace { (self.warmup_chunks / 8).max(1) } else { self.warmup_chunks },
            chunks: (events / CHUNK as f64).round().max(1.0) as u64,
            reps: if trace { 1 } else { spec.reps },
            trace,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    kernels: bool,
}

impl Args {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::smoke()
        } else {
            Scale::full(self.seconds)
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        kernels: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be within 1..=60".into());
                }
            }
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            "--smoke" => args.smoke = true,
            "--kernels" => args.kernels = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if workloads::spec(w).is_none() {
            let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            return Err(format!("unknown workload {w:?}; the workloads are {names:?}"));
        }
    }
    Ok(args)
}

/// Scratch space next to the executable: inside the build directory, so
/// inside the checkout, and already ignored by git.
fn scratch_dir(kind: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().unwrap_or(Path::new(".")).join(kind);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_header(args: &Args, scale: &Scale) {
    println!(
        "asf_bench: nproc {} seed {} seconds {} scale {}{} commit {}",
        nproc(),
        args.seed,
        args.seconds,
        scale.events,
        if args.smoke { " (smoke)" } else { "" },
        git_commit(),
    );
}

/// Re-executes this binary with `extra` arguments, echoes the child's
/// output, and returns its last standard-output line if it exited 0.
fn run_child(extra: &[String], env: Option<(&str, &str)>) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(extra).stdin(Stdio::null()).stderr(Stdio::inherit());
    if let Some((k, v)) = env {
        cmd.env(k, v);
    }
    let out = cmd.output().map_err(|e| format!("spawn child {extra:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    for line in stdout.lines() {
        println!("  | {line}");
    }
    if !out.status.success() {
        return Err(format!("child {extra:?} exited with {}", out.status));
    }
    if last.is_empty() {
        return Err(format!("child {extra:?} printed no result"));
    }
    Ok(last)
}

fn parse_kernels(line: &str) -> Result<Vec<f64>, String> {
    let doc = asf_telemetry::json::parse(line)?;
    KERNELS
        .iter()
        .map(|(name, _)| {
            doc.get(name).and_then(|v| v.as_f64()).ok_or(format!("kernel result lacks {name}"))
        })
        .collect()
}

/// The layer-alone timings: from the parent if it already ran them,
/// otherwise from a child process of their own.
fn kernel_timings() -> Result<Vec<f64>, String> {
    match std::env::var(KERNELS_ENV) {
        Ok(line) => parse_kernels(&line),
        Err(_) => parse_kernels(&run_child(&["--kernels".to_string()], None)?),
    }
}

fn run_kernels() -> Result<(), String> {
    let values = kernels::run(&scratch_dir("asf_bench_tmp")?)?;
    let fields: Vec<String> =
        KERNELS.iter().zip(&values).map(|((name, _), v)| format!("\"{name}\": {v}")).collect();
    println!("{{{}}}", fields.join(", "));
    Ok(())
}

/// One workload in this process. Returns whether every check passed.
fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let scale = args.scale();
    print_header(args, &scale);
    let spec = workloads::spec(name).expect("validated by parse_args");
    println!("workload {name}: {}", spec.why);
    let tmp = scratch_dir("asf_bench_tmp")?;

    let untraced = workloads::run(name, args.seed, &scale.plan(&spec, false), &tmp)?;
    report::print_samples("untraced", &untraced);
    let e2e = metrics::end_to_end(&untraced);
    report::print_metrics("end-to-end metrics (untraced pass):", &e2e);
    let mut attempted = untraced.checks;
    let mut failed = untraced.failures.len() as u64;
    if !args.trace {
        println!("{}", report::result_json(attempted, failed, &e2e));
        return Ok(failed == 0);
    }

    let traced = workloads::run(name, args.seed, &scale.plan(&spec, true), &tmp)?;
    report::print_samples("traced", &traced);
    attempted += traced.checks;
    failed += traced.failures.len() as u64;
    let layers = metrics::per_layer(&untraced, &traced, &kernel_timings()?);
    report::print_metrics("per-layer metrics:", &layers);
    let overhead = metrics::trace_overhead_ratio(&untraced, &traced);
    if overhead < 0.9 {
        println!(
            "traced tables are APPROXIMATE: tracing slowed ingest by more than 10% \
             (trace_overhead_ratio {overhead:.3})"
        );
    }
    // More operations: every traced table must sum.
    let inline = traced.inline_shards;
    let tables = [
        ("traced table", &traced.measured),
        ("traced table, durable phase", &traced.durable.phase),
    ]
    .map(|(title, phase)| (title, metrics::layer_table(phase, inline), phase));
    for (title, rows, phase) in &tables {
        attempted += 1;
        if !report::print_table(title, rows, phase, inline) {
            failed += 1;
        }
    }
    let [(_, measured_rows, measured), (_, durable_rows, durable)] = &tables;
    report::print_predictions(name, (measured_rows, measured), (durable_rows, durable), &untraced);
    let spans = scratch_dir("asf_bench_out")?.join(format!("{name}.spans.json"));
    std::fs::write(&spans, traced.span_log.to_chrome_json())
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    println!("driver spans ({}) written to {}", traced.span_log.spans().len(), spans.display());
    println!("{}", report::result_json(attempted, failed, &layers));
    Ok(failed == 0)
}

/// Every workload, each in a fresh child; then the summary.
fn run_all(args: &Args) -> Result<bool, String> {
    let scale = args.scale();
    print_header(args, &scale);
    let kernels = if args.trace {
        println!("kernels (layers alone, own child process):");
        Some(run_child(&["--kernels".to_string()], None)?)
    } else {
        None
    };
    let mut results = Vec::new();
    let mut ok = true;
    for spec in &SPECS {
        println!("workload {} (own child process):", spec.name);
        let mut extra = vec![
            "--workload".to_string(),
            spec.name.to_string(),
            "--seed".to_string(),
            args.seed.to_string(),
            "--seconds".to_string(),
            args.seconds.to_string(),
            "--trace".to_string(),
            u8::from(args.trace).to_string(),
        ];
        if args.smoke {
            extra.push("--smoke".to_string());
        }
        let env = kernels.as_deref().map(|k| (KERNELS_ENV, k));
        match run_child(&extra, env) {
            Ok(line) => {
                let doc = asf_telemetry::json::parse(&line)?;
                ok &= doc.get("correct") == Some(&asf_telemetry::json::Value::Bool(true));
                results.push(format!("\"{}\": {line}", spec.name));
            }
            Err(e) => {
                eprintln!("asf_bench: {e}");
                ok = false;
            }
        }
    }
    ok &= results.len() == SPECS.len();
    println!(
        "{{\"nproc\": {}, \"seed\": {}, \"seconds\": {}, \"scale\": {}, \"smoke\": {}, \
         \"commit\": \"{}\", \"traced\": {}, \"workloads\": {{{}}}, \"claim\": null}}",
        nproc(),
        args.seed,
        args.seconds,
        scale.events,
        args.smoke,
        git_commit(),
        args.trace,
        results.join(", "),
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("asf_bench: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("asf_bench: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    let outcome = if args.kernels {
        run_kernels().map(|()| true)
    } else if let Some(name) = args.workload.clone() {
        run_workload(&args, &name)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("asf_bench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = args(&["--workload", "rank_knn", "--seed", "9", "--seconds", "10", "--trace", "1"])
            .unwrap();
        assert_eq!(a.workload.as_deref(), Some("rank_knn"));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (9, 10, true, false));
        let a = args(&[]).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (None, DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(args(&["--smoke"]).is_ok_and(|a| a.smoke && !a.trace));
        assert!(args(&["--traced"]).is_err());
        assert!(args(&["--workload", "nope"]).unwrap_err().contains("range_hot"));
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn plans_scale_with_seconds() {
        let spec = workloads::spec("range_hot").unwrap();
        let full = Scale::full(10).plan(&spec, false);
        assert_eq!((full.population, full.warmup_chunks, full.reps), (100_000, 64, spec.reps));
        let want = spec.measured_events as f64;
        assert!((full.measured_events() as f64 - want).abs() <= CHUNK as f64);
        let half = Scale::full(5).plan(&spec, false);
        assert!((half.measured_events() as f64 * 2.0 - want).abs() <= 2.0 * CHUNK as f64);
        // The traced pass: one repetition of an eighth of the events.
        let traced = Scale::full(10).plan(&spec, true);
        assert!(traced.trace && traced.reps == 1 && traced.warmup_chunks == 8);
        assert!((traced.measured_events() as f64 * 8.0 - want).abs() <= 8.0 * CHUNK as f64);
        let smoke = Scale::smoke().plan(&spec, false);
        assert_eq!((smoke.population, smoke.warmup_chunks), (12_500, 4));
        assert!(smoke.measured_events() * 32 < full.measured_events());
        // Even the smallest run keeps one whole chunk.
        let tiny = Scale { events: 1e-9, ..Scale::smoke() };
        assert_eq!(tiny.plan(&spec, true).chunks, 1);
    }

    #[test]
    fn kernel_lines_round_trip() {
        let line = KERNELS
            .iter()
            .enumerate()
            .map(|(i, (name, _))| format!("\"{name}\": {}", i as f64 + 0.5))
            .collect::<Vec<_>>()
            .join(", ");
        assert_eq!(
            parse_kernels(&format!("{{{line}}}")).unwrap(),
            vec![0.5, 1.5, 2.5, 3.5, 4.5, 5.5]
        );
        assert!(parse_kernels("{}").is_err());
    }
}
