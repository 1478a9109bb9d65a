//! The Titan-scale benchmark of the HPC log-analytics framework.
//!
//! ```text
//! cargo run --release --manifest-path titanbench/Cargo.toml -- \
//!     --workload <ingest_batch|explore_cold|live_dashboard> \
//!     [--seed 1977] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1` (which also
//! writes the benchmark's spans to `titanbench/out/`). See `NOTES.md`.

mod checks;
mod fixture;
mod spans;
mod stats;
mod walk;
mod workloads;

use spans::Recorder;
use std::process::ExitCode;
use workloads::{Outcome, RunSpec};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: fixture::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed: {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds: {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The process's high-water resident set, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("titanbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rec = Recorder::new();
    let spec = RunSpec {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        rec: &rec,
    };
    let run: fn(&RunSpec) -> Outcome = match args.workload.as_str() {
        "ingest_batch" => workloads::ingest_batch,
        "explore_cold" => workloads::explore_cold,
        "live_dashboard" => workloads::live_dashboard,
        other => {
            eprintln!("titanbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    let o = run(&spec);
    let setup_s = stats::median(&o.setup_s);
    let rss = peak_rss_mib();
    let tail = stats::tail(&o.latency_ms);

    println!(
        "workload {} seed {} trace {} | {} rounds | available parallelism {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        o.setup_s.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("  setup_s = {setup_s:.4} s (median of {})", o.setup_s.len());
    println!("  peak_rss_mb = {rss:.1} MiB");
    println!(
        "  error_rate = {} ({} failed of {} attempted)",
        stats::ratio(o.failed as f64, o.attempted as f64),
        o.failed,
        o.attempted
    );
    for (name, value, unit) in o.report.iter().chain(&o.layers) {
        println!("  {name} = {value:.4} {unit}");
    }
    if let Err(e) = &o.check {
        println!("  CHECK FAILED: {e}");
    }

    let metrics: Vec<String> = if args.trace {
        let path = std::path::Path::new("titanbench/out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all("titanbench/out")
            .and_then(|()| std::fs::write(&path, rec.to_json()));
        match written {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("titanbench: could not write spans: {e}"),
        }
        o.layers.iter().map(|(n, v, u)| metric(n, *v, u)).collect()
    } else {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", rss, "MiB"),
            metric("throughput_per_s", o.throughput, "1/s"),
            metric("latency_p50_ms", stats::median(&o.latency_ms), "ms"),
            metric("latency_tail_ms", tail.value, "ms"),
        ]
    };
    // A run whose set-up failed attempted nothing else: count the set-up.
    let (attempted, failed) = if o.attempted == 0 {
        (1, 1)
    } else {
        (o.attempted, o.failed)
    };
    println!(
        r#"{{"correct":{},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        o.check.is_ok(),
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
