//! Metric names, the result line, provenance and small statistics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics (printed by every run with `--trace 0`), in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("meas_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("on_time_frac", "ratio"),
    ("fail_frac", "ratio"),
    ("accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed by every run with `--trace 1`), in
/// `BENCHMARK.json` order. A layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("wiphy.capture_us", "us"),
    ("wiphy.captures_per_meas", "ratio"),
    ("core.measure_us", "us"),
    ("core.phase_calibration_us", "us"),
    ("core.subcarrier_selection_us", "us"),
    ("core.amplitude_denoise_us", "us"),
    ("core.gamma_resolution_us", "us"),
    ("core.screen_residual_us", "us"),
    ("core.measure_ok_ratio", "ratio"),
    ("core.pairs_resolved_ratio", "ratio"),
    ("wdsp.correlation_denoise_us", "us"),
    ("wml.train_ms", "ms"),
    ("wml.classify_us", "us"),
    ("wml.svm_machines", "count"),
    ("harness.attempts_per_meas", "ratio"),
    ("harness.fanout_efficiency", "ratio"),
    ("wcampaign.parse_expand_ms", "ms"),
    ("campaign.cell_ms_p50", "ms"),
    ("campaign.cell_ms_p90", "ms"),
    ("campaign.cell_imbalance", "ratio"),
    ("wtrace.events_per_meas", "ratio"),
    ("wtrace.artifact_validate_ms", "ms"),
    ("wserve.submit_us", "us"),
    ("wserve.drain_ms", "ms"),
    ("wserve.cold_fill_ms", "ms"),
    ("wserve.queue_wait_ms", "ms"),
    ("wserve.drain_parallel_frac", "ratio"),
    ("wserve.batch_size", "ratio"),
    ("wserve.cache_hit_ratio", "ratio"),
    ("wserve.generator_lag_ms", "ms"),
    ("wserve.shed", "count"),
    ("wmetrics.render_ms", "ms"),
    ("wmetrics.validate_ms", "ms"),
    ("work.captures_taken", "count"),
    ("work.packets_simulated", "count"),
    ("work.measurements_attempted", "count"),
    ("work.pairs_resolved", "count"),
    ("work.retries", "count"),
    ("work.svm_machines_trained", "count"),
    ("work.trace_events", "count"),
    ("work.serve_batches", "count"),
    ("work.model_cache_misses", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The exact work counters recorded beside the timings.
pub const WORK_COUNTERS: [&str; 9] = [
    "captures_taken",
    "packets_simulated",
    "measurements_attempted",
    "pairs_resolved",
    "retries",
    "svm_machines_trained",
    "trace_events",
    "serve_batches",
    "model_cache_misses",
];

/// Everything one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Measurement requests issued.
    pub attempted: u64,
    /// Requests whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Provenance and context, as `(key, JSON value)`.
    pub context: Vec<(String, String)>,
}

impl Outcome {
    /// Records a check over `requests` requests; a failed check counts
    /// them under `failed` and is reported on stderr.
    pub fn check(&mut self, ok: bool, requests: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += requests;
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context.push((key.to_owned(), value.to_string()));
    }

    pub fn note_str(&mut self, key: &str, value: &str) {
        self.context.push((key.to_owned(), format!("\"{value}\"")));
    }

    /// Records the work counters (a `name → count` lookup) in the context
    /// and as `work.*` metrics.
    pub fn work(&mut self, counts: &BTreeMap<String, u64>) {
        let mut obj = String::from("{");
        for (i, name) in WORK_COUNTERS.iter().enumerate() {
            let v = counts.get(*name).copied().unwrap_or(0);
            let _ = write!(obj, "{}\"{name}\":{v}", if i > 0 { "," } else { "" });
            if let Some(&(metric, _)) = PER_LAYER
                .iter()
                .find(|(m, _)| m.strip_prefix("work.") == Some(name))
            {
                self.metrics.insert(metric, v as f64);
            }
        }
        obj.push('}');
        self.context.push(("work".to_owned(), obj));
    }

    /// Prints the provenance line and then the result line (the last
    /// line of stdout). Problems go to stderr.
    pub fn print(mut self, trace: bool) {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, &(name, unit)) in list.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        for p in &self.problems {
            eprintln!("perfbench: check failed: {p}");
        }
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("{{\"provenance\": {{{}}}}}", context.join(", "));
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counter lookup over a snapshot's `(name, value)` rows.
pub fn counters(rows: &[(&'static str, u64)]) -> BTreeMap<String, u64> {
    rows.iter().map(|&(n, v)| (n.to_owned(), v)).collect()
}

/// Timed repetitions of one workload.
pub struct Reps<T> {
    /// Wall time of each repetition.
    pub rep_s: Vec<f64>,
    /// Wall time of each library call the repetitions made.
    pub call_s: Vec<f64>,
    /// The first repetition's outputs.
    pub first: T,
}

/// Runs `rep` (which returns its outputs and the wall time of each call
/// it made) at least `min` times and until `window` has passed. Every
/// repetition serves `requests` requests and must reproduce the first
/// repetition's outputs exactly.
pub fn repeat<T: PartialEq>(
    out: &mut Outcome,
    window: Duration,
    min: usize,
    requests: u64,
    what: &str,
    mut rep: impl FnMut() -> (T, Vec<f64>),
) -> Reps<T> {
    let deadline = Instant::now() + window;
    let (mut rep_s, mut call_s) = (Vec::new(), Vec::new());
    let mut first: Option<T> = None;
    while rep_s.len() < min || Instant::now() < deadline {
        let t0 = Instant::now();
        let (outputs, calls) = rep();
        rep_s.push(t0.elapsed().as_secs_f64());
        call_s.extend(calls);
        out.attempted += requests;
        match &first {
            None => first = Some(outputs),
            Some(f) => out.check(*f == outputs, requests, || {
                format!("{what} repetition {} differs from the first", rep_s.len())
            }),
        }
    }
    Reps {
        rep_s,
        call_s,
        first: first.expect("at least one repetition ran"),
    }
}

/// The tail latency of a batch workload: each input's median call time
/// over the repetitions (`call_s` holds one call per input, input order,
/// repetition after repetition), then the nearest-rank p99 over inputs —
/// the slowest input at its typical speed. The per-input medians keep a
/// stall of the host during one call out of the tail.
pub fn input_p99(call_s: &[f64], inputs: usize) -> f64 {
    let medians: Vec<f64> = (0..inputs)
        .map(|k| {
            let own: Vec<f64> = call_s.iter().skip(k).step_by(inputs).copied().collect();
            median(&own)
        })
        .collect();
    percentile(&medians, 99.0)
}

/// Times one call.
pub fn timed<R>(walls: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    walls.push(t0.elapsed().as_secs_f64());
    out
}
