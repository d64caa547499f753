//! Writes `BENCH_PR10.json` at the repo root: the fleet-scale serving
//! benchmark. The workload is the default `wimi-serve` synthetic fleet
//! (12 sessions × 5 measurements, two environments, shared model cache);
//! the artifact records measurements/second under 1 and 4 worker threads
//! plus two deterministic budget sections that `wimi-experiments fleet
//! --check` gates CI against: `fleet_budgets` (the run's service totals)
//! and `metrics_budgets` (windowed maxima of the tick-resolved
//! `wimi-metrics/1` telemetry timeline).
//!
//! Run from the workspace root with
//! `cargo run --release -p wimi-bench --bin fleet_bench`.
//!
//! `--check [path]` fails (exit 1) if the 4-thread fan-out speedup
//! collapses on a multi-core host. The budgets in `path` are gated by
//! `wimi-experiments fleet --check`, which runs the same deterministic
//! fleet. Timings (`*_per_s`) are informational and never gated.

use std::time::Instant;
use wimi_serve::{run_fleet, FleetConfig, FleetReport};

/// Median wall-clock seconds of `runs` invocations of `f`.
fn time_median<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// The benchmark workload: the default synthetic fleet.
fn bench_fleet() -> FleetReport {
    run_fleet(&FleetConfig::default())
}

/// Median seconds per full fleet run under `threads` workers.
fn fleet_seconds(threads: usize) -> f64 {
    wimi_core::par::set_thread_override(Some(threads));
    let t = time_median(3, || {
        std::hint::black_box(bench_fleet());
    });
    wimi_core::par::set_thread_override(None);
    t
}

/// The deterministic totals recorded as budgets: service accounting plus
/// the work counters that bound training and inference cost.
fn budget_entries(report: &FleetReport) -> Vec<(&'static str, u64)> {
    let counter = |name: &str| -> u64 {
        report
            .counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    vec![
        ("requests", report.requests),
        ("responses", report.responses),
        ("failed", report.failed),
        ("shed", report.shed),
        ("model_keys", report.model_keys as u64),
        ("queue_peak", report.queue_peak as u64),
        ("captures_taken", counter("captures_taken")),
        ("packets_simulated", counter("packets_simulated")),
        ("measurements_attempted", counter("measurements_attempted")),
        ("serve_batches", counter("serve_batches")),
        ("serve_batched", counter("serve_batched")),
        ("model_cache_misses", counter("model_cache_misses")),
        ("svm_machines_trained", counter("svm_machines_trained")),
    ]
}

/// The windowed telemetry maxima recorded as `metrics_budgets`: per-tick
/// ceilings that CI gates the deterministic timeline against.
fn metrics_budget_entries(report: &FleetReport) -> Vec<(&'static str, u64)> {
    let max_of = |series: &str| -> u64 {
        report
            .timeline
            .aggregate(series)
            .map_or(0, |stats| stats.max)
    };
    vec![
        ("queue_peak", max_of("queue_peak")),
        ("shed", max_of("shed")),
        ("retries_exhausted", max_of("retries_exhausted")),
        ("packets_processed", max_of("packets_processed")),
        ("cache_misses", max_of("cache_misses")),
    ]
}

fn check() -> Result<(), String> {
    // The fan-out gate needs real cores; a single-CPU host serialises the
    // workers and measures only scheduling overhead.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        let t1 = fleet_seconds(1);
        let t4 = fleet_seconds(4);
        let speedup = t1 / t4;
        let floor = if cores >= 4 { 1.3 } else { 1.1 };
        println!(
            "fleet bench check: 4-thread fan-out speedup {speedup:.2} (floor {floor}, {cores} cpus)"
        );
        if speedup < floor {
            return Err(format!(
                "4-thread fleet speedup {speedup:.2} fell below {floor} on a {cores}-cpu host"
            ));
        }
    } else {
        println!("fleet bench check: single-cpu host, fan-out gate skipped");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        if let Err(msg) = check() {
            eprintln!("fleet bench check FAILED: {msg}");
            std::process::exit(1);
        }
        println!("fleet bench check OK");
        return;
    }

    let report = bench_fleet();
    let measurements = report.requests;
    let t1 = fleet_seconds(1);
    let t4 = fleet_seconds(4);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"host_cpus\": {cores},\n"));
    out.push_str("  \"fleet\": {\n");
    out.push_str(&format!("    \"sessions\": {},\n", report.sessions));
    out.push_str(&format!(
        "    \"measurements_per_session\": {},\n",
        report.measurements
    ));
    out.push_str(&format!("    \"seed\": {}\n", report.seed));
    out.push_str("  },\n");
    out.push_str("  \"throughput\": {\n");
    out.push_str(&format!("    \"measurements_per_run\": {measurements},\n"));
    out.push_str(&format!("    \"threads_1_s\": {t1:.6},\n"));
    out.push_str(&format!("    \"threads_4_s\": {t4:.6},\n"));
    out.push_str(&format!(
        "    \"meas_per_s_1t\": {:.6},\n",
        measurements as f64 / t1
    ));
    out.push_str(&format!(
        "    \"meas_per_s_4t\": {:.6},\n",
        measurements as f64 / t4
    ));
    out.push_str(&format!("    \"fanout_speedup_4t\": {:.6}\n", t1 / t4));
    out.push_str("  },\n");
    out.push_str("  \"fleet_budgets\": {\n");
    let budgets = budget_entries(&report);
    for (i, (name, value)) in budgets.iter().enumerate() {
        let comma = if i + 1 < budgets.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {value}{comma}\n"));
    }
    out.push_str("  },\n");
    out.push_str("  \"metrics_budgets\": {\n");
    let budgets = metrics_budget_entries(&report);
    for (i, (name, value)) in budgets.iter().enumerate() {
        let comma = if i + 1 < budgets.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {value}{comma}\n"));
    }
    out.push_str("  }\n");
    out.push_str("}\n");

    let path = "BENCH_PR10.json";
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("fleet_bench: cannot write {path}: {e}");
        std::process::exit(2);
    }
    print!("{out}");
    eprintln!("wrote {path}");
}
