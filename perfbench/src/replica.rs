//! The traced measurement: `harness::measure_target` re-driven through
//! the public pieces the library uses (`capture_pair_faulted`,
//! `attempt_capture_seed`, `RetryPolicy`, `WiMi::measure`), with a span
//! around each call. It feeds the recorder and trace sink exactly as the
//! library does, so a traced run reproduces the untraced run's counters,
//! trace artifacts and accuracy, and the benchmark checks that it does.
//!
//! The optional stage probe re-runs the stages of `WiMi::measure` on the
//! same clean capture pair through their public functions, one span per
//! stage, and checks the probe's feature against the pipeline's.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use wimi_core::amplitude::CleanedAmplitudes;
use wimi_core::antenna::enumerate_pairs;
use wimi_core::feature::PairMeasurement;
use wimi_core::{
    AmplitudeRatioProfile, MaterialFeature, Measurement, PairSelection, PhaseDifferenceProfile,
    WiMi,
};
use wimi_experiments::harness::{
    attempt_capture_seed, capture_pair_faulted, MeasureStats, RetryPolicy,
};
use wimi_obs::{CounterId, Recorder};
use wimi_phy::channel::Environment;
use wimi_phy::csi::CsiCapture;
use wimi_phy::fault::FaultPlan;
use wimi_phy::scenario::{LiquidSpec, ScenarioBuilder};
use wimi_trace::{task_scope, TaskKey, TraceEvent, TraceSink};

use crate::report::{median, ratio, Outcome};
use crate::spans::{self, NameStats, Span, Unit};
use crate::Args;

/// Everything one measurement's captures depend on.
pub struct Link<'a> {
    pub spec: Option<&'a LiquidSpec>,
    pub environment: Environment,
    pub packets: usize,
    pub modify: &'a (dyn Fn(&mut ScenarioBuilder) + Sync),
    pub fault: Option<&'a FaultPlan>,
    pub retry: &'a RetryPolicy,
    pub recorder: Option<&'a Arc<Recorder>>,
    pub trace: Option<&'a Arc<TraceSink>>,
}

/// One finished measurement.
pub struct Measured {
    pub feature: Option<MaterialFeature>,
    pub stats: MeasureStats,
    pub attempts: usize,
}

/// Stage-probe totals, shared across worker threads.
#[derive(Default)]
pub struct Probe {
    /// Attempts probed (clean captures on the joint-pair path).
    pub attempts: AtomicU64,
    /// `WiMi::measure` time of the probed attempts.
    pub measure_ns: AtomicU64,
    /// Amplitude series cleaned by the probes.
    pub series: AtomicU64,
    /// Probes whose feature differed from the pipeline's.
    pub mismatches: AtomicU64,
}

/// `harness::measure_target`, one span per layer call.
pub fn measure(
    extractor: &WiMi,
    link: &Link<'_>,
    seed: u64,
    probe: Option<&Probe>,
    unit: &mut Unit<'_>,
) -> Measured {
    let mut placement = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut stats = MeasureStats::default();
    let _task = link.trace.map(|_| task_scope(TaskKey::measurement(seed)));
    let planned = link.retry.allowed_attempts(link.packets);
    let mut attempts = 0usize;
    while link
        .retry
        .allows_another(attempts, stats.packets_spent, link.packets)
    {
        if let Some(t) = link.trace {
            t.emit(TraceEvent::Attempt {
                attempt: attempts as u32 + 1,
                max: planned as u32,
            });
        }
        let offset_cm = 1.0 + placement.gen_range(-0.5..0.5);
        let (base, tar) = unit.span("wiphy.capture_pair", |_| {
            capture_pair_faulted(
                link.spec,
                link.environment,
                link.packets,
                attempt_capture_seed(seed, attempts),
                offset_cm,
                link.modify,
                link.fault,
                link.recorder,
                link.trace,
            )
        });
        let t0 = Instant::now();
        let m = unit.span("core.measure", |_| extractor.measure(&base, &tar));
        let measure_ns = t0.elapsed().as_nanos() as u64;
        if let Some(p) = probe {
            stage_probe(extractor, &base, &tar, &m, measure_ns, p, unit);
        }
        stats.packets_spent += m.quality.baseline_packets_kept + m.quality.target_packets_kept;
        attempts += 1;
        match m.feature {
            Ok(f) => {
                stats.salvaged = m.quality.salvaged();
                if let Some(rec) = link.recorder {
                    rec.add(CounterId::Retries, stats.rejected as u64);
                    rec.record_attempts(attempts as u64);
                }
                return Measured {
                    feature: Some(f),
                    stats,
                    attempts,
                };
            }
            Err(_) => stats.rejected += 1,
        }
    }
    if let Some(rec) = link.recorder {
        rec.add(CounterId::Retries, stats.rejected.saturating_sub(1) as u64);
        rec.record_attempts(stats.rejected as u64);
    }
    if let Some(t) = link.trace {
        t.emit(TraceEvent::RetriesExhausted {
            attempts: attempts as u32,
        });
        t.mark_failure();
    }
    Measured {
        feature: None,
        stats,
        attempts,
    }
}

/// Re-runs the stages of `WiMi::measure` on a clean capture pair:
/// amplitude cleaning, then per antenna pair phase calibration,
/// subcarrier selection and amplitude ratios, then joint γ resolution.
/// Captures that screening touched are skipped: on them the stages see
/// different inputs than the raw captures.
fn stage_probe(
    extractor: &WiMi,
    base: &CsiCapture,
    tar: &CsiCapture,
    m: &Measurement,
    measure_ns: u64,
    probe: &Probe,
    unit: &mut Unit<'_>,
) {
    let cfg = extractor.config();
    if !m.quality.is_clean() || cfg.pairs != PairSelection::Best || base.is_empty() {
        return;
    }
    let feature = unit.span("core.stage_probe", |u| {
        let (clean_base, clean_tar) = u.span("core.amplitude_denoise", |u| {
            u.span("wdsp.clean_series", |_| {
                (
                    CleanedAmplitudes::compute(base, &cfg.amplitude),
                    CleanedAmplitudes::compute(tar, &cfg.amplitude),
                )
            })
        });
        let mut profiles = Vec::new();
        for (a, b) in enumerate_pairs(base.n_antennas()) {
            let (phase_base, phase_tar) = u.span("core.phase_calibration", |_| {
                (
                    PhaseDifferenceProfile::compute(base, a, b),
                    PhaseDifferenceProfile::compute(tar, a, b),
                )
            });
            let selected = u.span("core.subcarrier_selection", |_| {
                cfg.subcarriers
                    .resolve_excluding(&phase_base, &phase_tar, &[])
            });
            let (amp_base, amp_tar) = u.span("core.amplitude_denoise", |_| {
                (
                    AmplitudeRatioProfile::from_cleaned(&clean_base, a, b),
                    AmplitudeRatioProfile::from_cleaned(&clean_tar, a, b),
                )
            });
            profiles.push((phase_base, phase_tar, amp_base, amp_tar, selected));
        }
        let inputs: Vec<PairMeasurement<'_>> = profiles
            .iter()
            .map(
                |(phase_base, phase_tar, amp_base, amp_tar, selected)| PairMeasurement {
                    phase_base,
                    phase_tar,
                    amp_base,
                    amp_tar,
                    subcarriers: selected,
                    rejected: &[],
                },
            )
            .collect();
        u.span("core.gamma_resolution", |_| {
            MaterialFeature::extract_joint_with_diag(&inputs, &cfg.feature).0
        })
    });
    probe.attempts.fetch_add(1, Ordering::Relaxed);
    probe.measure_ns.fetch_add(measure_ns, Ordering::Relaxed);
    probe.series.fetch_add(
        2 * (base.n_antennas() * base.n_subcarriers()) as u64,
        Ordering::Relaxed,
    );
    let want = m.feature.as_ref().ok().map(MaterialFeature::as_vector);
    let got = feature.ok().map(|f| f.as_vector());
    if want != got {
        probe.mismatches.fetch_add(1, Ordering::Relaxed);
    }
}

/// Fills the simulator, pipeline, denoise, classifier and harness layer
/// metrics shared by every workload.
///
/// `traced` holds the spans of one traced repetition, `probed` those of
/// the stage-probe repetition; `counts` is the full counter set of the
/// traced repetition and `requests` the measurement requests it served.
fn pipeline_layers(
    out: &mut Outcome,
    traced: &BTreeMap<&'static str, NameStats>,
    probed: &BTreeMap<&'static str, NameStats>,
    probe: &Probe,
    counts: &BTreeMap<String, u64>,
    requests: u64,
) {
    let get = |m: &BTreeMap<&'static str, NameStats>, name: &str| {
        m.get(name).copied().unwrap_or_default()
    };
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    // Each capture-pair call takes two captures (baseline, target).
    out.set(
        "wiphy.capture_us",
        get(traced, "wiphy.capture_pair").mean_self_us() / 2.0,
    );
    out.set(
        "wiphy.captures_per_meas",
        ratio(count("captures_taken"), requests as f64),
    );
    out.set(
        "core.measure_us",
        get(traced, "core.measure").mean_self_us(),
    );

    // Stage times are inclusive: amplitude denoising contains the wdsp
    // series cleaning.
    let probes = probe.attempts.load(Ordering::Relaxed) as f64;
    let per_probe_us = |name: &str| ratio(get(probed, name).total_ns as f64, probes) / 1e3;
    let stages = [
        ("core.phase_calibration", "core.phase_calibration_us"),
        ("core.subcarrier_selection", "core.subcarrier_selection_us"),
        ("core.amplitude_denoise", "core.amplitude_denoise_us"),
        ("core.gamma_resolution", "core.gamma_resolution_us"),
    ];
    let mut stage_sum = 0.0;
    for (span, metric) in stages {
        let us = per_probe_us(span);
        stage_sum += us;
        out.set(metric, us);
    }
    let probe_measure_us = ratio(probe.measure_ns.load(Ordering::Relaxed) as f64, probes) / 1e3;
    out.set("core.screen_residual_us", probe_measure_us - stage_sum);
    out.set(
        "core.measure_ok_ratio",
        ratio(count("measurements_ok"), count("measurements_attempted")),
    );
    out.set(
        "core.pairs_resolved_ratio",
        ratio(count("pairs_resolved"), count("pairs_attempted")),
    );
    out.set(
        "wdsp.correlation_denoise_us",
        ratio(
            get(probed, "wdsp.clean_series").total_ns as f64,
            probe.series.load(Ordering::Relaxed) as f64,
        ) / 1e3,
    );
    out.set(
        "wml.train_ms",
        get(traced, "wml.train").mean_self_us() / 1e3,
    );
    out.set(
        "wml.classify_us",
        get(traced, "wml.classify").mean_self_us(),
    );
    out.set("wml.svm_machines", count("svm_machines_trained"));
    out.set(
        "harness.attempts_per_meas",
        ratio(count("measurements_attempted"), requests as f64),
    );
    out.note("stage_probes", probes);
}

/// Σ unit time ÷ (fan-out wall × workers): 1 when every worker was busy
/// for the whole fan-out.
pub fn fanout_efficiency(
    stats: &BTreeMap<&'static str, NameStats>,
    unit: &str,
    fanout: &str,
) -> f64 {
    let units = stats.get(unit).map_or(0, |s| s.total_ns) as f64;
    let wall = stats.get(fanout).map_or(0, |s| s.total_ns) as f64;
    ratio(units, wall * wimi_core::par::max_threads() as f64)
}

/// The shared tail of a traced run: checks the stage probes, fills the
/// pipeline layer metrics from the traced and probe spans, and writes the
/// traced spans out. Returns the traced spans' per-name totals for the
/// workload's own layers.
pub fn finish_trace(
    args: &Args,
    out: &mut Outcome,
    spans: &[Span],
    probe: &Probe,
    probe_spans: &[Span],
    counts: &BTreeMap<String, u64>,
    requests: u64,
) -> BTreeMap<&'static str, NameStats> {
    let mismatches = probe.mismatches.load(Ordering::Relaxed);
    out.check(mismatches == 0, mismatches, || {
        format!("{mismatches} stage probes disagree with WiMi::measure")
    });
    let stats = spans::by_name(spans);
    pipeline_layers(
        out,
        &stats,
        &spans::by_name(probe_spans),
        probe,
        counts,
        requests,
    );
    out.set("trace.spans", spans.len() as f64);
    let path = crate::repo_root().join(format!(
        "perfbench/out/{}-seed{}.spans.jsonl",
        args.workload, args.seed
    ));
    if let Err(e) = spans::write_jsonl(&path, spans) {
        out.check(false, 0, || format!("cannot write {}: {e}", path.display()));
    }
    stats
}

/// How much slower the traced median repetition was, in percent.
pub fn overhead_pct(traced_s: &[f64], untraced_s: &[f64]) -> f64 {
    (median(traced_s) / median(untraced_s) - 1.0) * 100.0
}
