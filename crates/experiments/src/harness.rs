//! Shared experiment harness: measurement collection, training/testing,
//! and per-figure reporting.

use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wimi_core::{MaterialFeature, WiMi, WiMiConfig};
use wimi_ml::dataset::Dataset;
use wimi_ml::metrics::ConfusionMatrix;
use wimi_obs::{CounterId, Recorder};
use wimi_phy::channel::Environment;
use wimi_phy::csi::{CsiCapture, CsiSource};
use wimi_phy::fault::FaultPlan;
use wimi_phy::material::{Liquid, SaltwaterConcentration, LIQUIDS};
use wimi_phy::scenario::{LiquidSpec, Scenario, ScenarioBuilder, Simulator};
use wimi_phy::units::Meters;
use wimi_trace::{task_scope, TaskKey, TraceEvent, TraceSink};

/// A material under test: display name plus its dielectric spec.
#[derive(Debug, Clone)]
pub struct Material {
    /// Display name (and class label).
    pub name: String,
    /// Dielectric specification.
    pub spec: LiquidSpec,
}

impl Material {
    /// Wraps a catalog liquid.
    pub fn catalog(liquid: Liquid) -> Self {
        Material {
            name: liquid.name().to_owned(),
            spec: liquid.into(),
        }
    }

    /// Wraps a saltwater concentration under a short label.
    pub fn saltwater(label: &str, c: SaltwaterConcentration) -> Self {
        Material {
            name: label.to_owned(),
            spec: LiquidSpec::saltwater(c),
        }
    }
}

/// The paper's ten-liquid set (Fig. 15).
pub fn paper_liquids() -> Vec<Material> {
    LIQUIDS.iter().copied().map(Material::catalog).collect()
}

/// Bounded retry policy for the re-seat-and-retry measurement protocol.
///
/// The policy moved to `wimi-serve` (sessions need it per link); the
/// harness re-exports it so experiment call sites keep their paths.
pub use wimi_serve::retry::RetryPolicy;

/// Options of one identification run.
pub struct RunOptions {
    /// Deployment environment.
    pub environment: Environment,
    /// Packets per capture (the paper's default is 20).
    pub packets: usize,
    /// Training measurements per material.
    pub n_train: usize,
    /// Test measurements per material.
    pub n_test: usize,
    /// Base RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Pipeline configuration.
    pub config: WiMiConfig,
    /// Extra scenario customisation applied after the defaults. `Send +
    /// Sync` so measurements can fan out across worker threads.
    pub modify: Box<dyn Fn(&mut ScenarioBuilder) + Send + Sync>,
    /// Retry policy for the re-seat-and-retry protocol (the operator
    /// re-seats the beaker when the pipeline flags a bad measurement).
    pub retry: RetryPolicy,
    /// Fault plan injected into every capture (`None` = healthy
    /// deployment). Each measurement derives an independent fault stream
    /// from the plan's seed and its own, so runs stay deterministic and
    /// thread-count invariant.
    pub fault: Option<FaultPlan>,
    /// Optional observability recorder shared by the simulator, the
    /// pipeline, and the harness itself (`None` = no recording). All
    /// recorded aggregates are order-independent, so runs stay
    /// thread-count invariant with a recorder attached.
    pub recorder: Option<Arc<Recorder>>,
    /// Optional flight-recorder trace sink shared the same way (`None` =
    /// no tracing). Each measurement's events are scoped to a
    /// [`wimi_trace::TaskKey`] derived from its seed, so rendered traces
    /// are byte-identical for any `WIMI_THREADS` setting.
    pub trace: Option<Arc<TraceSink>>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            environment: Environment::Lab,
            packets: 20,
            n_train: 20,
            n_test: 20,
            seed: 0xACC0,
            config: WiMiConfig::default(),
            modify: Box::new(|_| {}),
            retry: RetryPolicy::default(),
            fault: None,
            recorder: None,
            trace: None,
        }
    }
}

/// Per-measurement accounting from [`measure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeasureStats {
    /// Attempts the pipeline rejected before success (or giving up).
    pub rejected: usize,
    /// Whether the successful measurement needed salvage (dropped
    /// packets or antennas).
    pub salvaged: bool,
    /// Packets spent across all attempts (baseline + target).
    pub packets_spent: usize,
}

/// Result of an identification run.
pub struct RunResult {
    /// Pooled test confusion matrix.
    pub confusion: ConfusionMatrix,
    /// Trials (train + test) whose every measurement attempt failed.
    pub dropped_trials: usize,
    /// Total measurement attempts that were rejected by the pipeline.
    pub rejected_measurements: usize,
    /// Successful measurements that needed salvage (dropped packets or
    /// antennas) on the way.
    pub salvaged_measurements: usize,
}

impl RunResult {
    /// Overall test accuracy.
    pub fn accuracy(&self) -> f64 {
        self.confusion.accuracy()
    }
}

/// One baseline/target capture pair at a given placement.
pub fn capture_pair(
    spec: &LiquidSpec,
    environment: Environment,
    packets: usize,
    seed: u64,
    offset_cm: f64,
    modify: &(dyn Fn(&mut ScenarioBuilder) + Sync),
) -> (CsiCapture, CsiCapture) {
    capture_pair_faulted(
        Some(spec),
        environment,
        packets,
        seed,
        offset_cm,
        modify,
        None,
        None,
        None,
    )
}

/// Like [`capture_pair`], with an optional fault plan applied to both
/// captures and an optional observability recorder attached to the
/// simulator. The plan is reseeded from its own seed XOR the capture seed,
/// so each measurement draws an independent, reproducible fault stream.
/// `spec` is `None` when the target was removed (a campaign `target
/// removed` window): the target capture then sees the empty scenario, the
/// same view as the baseline.
#[allow(clippy::too_many_arguments)]
pub fn capture_pair_faulted(
    spec: Option<&LiquidSpec>,
    environment: Environment,
    packets: usize,
    seed: u64,
    offset_cm: f64,
    modify: &(dyn Fn(&mut ScenarioBuilder) + Sync),
    fault: Option<&FaultPlan>,
    recorder: Option<&Arc<Recorder>>,
    trace: Option<&Arc<TraceSink>>,
) -> (CsiCapture, CsiCapture) {
    let mut builder = Scenario::builder();
    builder.environment(environment);
    builder.target_offset(Meters::from_cm(offset_cm));
    modify(&mut builder);
    let mut sim = Simulator::new(builder.build(), seed);
    if let Some(plan) = fault {
        sim.set_fault_plan(Some(plan.clone().with_seed(plan.seed() ^ seed)));
    }
    sim.set_recorder(recorder.cloned());
    sim.set_trace(trace.cloned());
    let baseline = sim.capture(packets);
    sim.set_liquid(spec.cloned());
    let target = sim.capture(packets);
    (baseline, target)
}

/// The capture seed of a retry attempt (see `wimi_serve::retry`).
pub use wimi_serve::retry::attempt_capture_seed;

/// Measures one material with the re-seat-and-retry protocol. Returns the
/// feature and the number of rejected attempts.
///
/// Placement randomness (the operator never re-seats the beaker in
/// exactly the same spot) is drawn from an RNG derived from the
/// measurement `seed`, not from a stream shared with other measurements.
/// That makes every measurement a pure function of its seed, so the
/// harness can run them on any thread in any order. (Earlier revisions
/// drew offsets from one sequential stream; their runs differ
/// numerically but not statistically.)
pub fn measure(
    extractor: &WiMi,
    spec: &LiquidSpec,
    opts: &RunOptions,
    seed: u64,
) -> (Option<MaterialFeature>, MeasureStats) {
    measure_target(extractor, Some(spec), opts, seed)
}

/// Like [`measure`], with an optional target: `None` measures the empty
/// scenario (campaign `target removed` windows), where the pipeline sees
/// a baseline/target pair that differs only by noise.
pub fn measure_target(
    extractor: &WiMi,
    spec: Option<&LiquidSpec>,
    opts: &RunOptions,
    seed: u64,
) -> (Option<MaterialFeature>, MeasureStats) {
    let mut placement = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut stats = MeasureStats::default();
    let rec = opts.recorder.as_ref();
    let trace = opts.trace.as_ref();
    // All of this measurement's trace events — captures, screening,
    // extraction, retries — land in one task keyed by the seed, the same
    // identity the deterministic fan-out uses, so the rendered trace does
    // not depend on which worker thread ran it.
    let _task = trace.map(|_| task_scope(TaskKey::measurement(seed)));
    // `planned` is the nominal-cost attempt cap traces report as `max`;
    // the loop itself charges the budget with what each attempt *kept*
    // (post-screening), so salvage savings fund further attempts instead
    // of being billed as if every capture ran at full length.
    let planned = opts.retry.allowed_attempts(opts.packets);
    let mut attempts = 0usize;
    while opts
        .retry
        .allows_another(attempts, stats.packets_spent, opts.packets)
    {
        if let Some(t) = trace {
            t.emit(TraceEvent::Attempt {
                attempt: attempts as u32 + 1,
                max: planned as u32,
            });
        }
        let offset_cm = 1.0 + placement.gen_range(-0.5..0.5);
        let (base, tar) = capture_pair_faulted(
            spec,
            opts.environment,
            opts.packets,
            attempt_capture_seed(seed, attempts),
            offset_cm,
            opts.modify.as_ref(),
            opts.fault.as_ref(),
            rec,
            trace,
        );
        let m = extractor.measure(&base, &tar);
        stats.packets_spent += m.quality.baseline_packets_kept + m.quality.target_packets_kept;
        attempts += 1;
        match m.feature {
            Ok(f) => {
                stats.salvaged = m.quality.salvaged();
                if let Some(rec) = rec {
                    rec.add(CounterId::Retries, stats.rejected as u64);
                    rec.record_attempts(attempts as u64);
                }
                return (Some(f), stats);
            }
            Err(_) => stats.rejected += 1,
        }
    }
    if let Some(rec) = rec {
        rec.add(CounterId::Retries, stats.rejected.saturating_sub(1) as u64);
        rec.record_attempts(stats.rejected as u64);
    }
    if let Some(t) = trace {
        t.emit(TraceEvent::RetriesExhausted {
            attempts: attempts as u32,
        });
        t.mark_failure();
    }
    (None, stats)
}

/// Runs a full train/test identification experiment.
///
/// Every (trial × material) measurement is independent — its seed is a
/// pure function of `opts.seed`, the trial, and the material label — so
/// both phases fan out over [`wimi_core::par`] worker threads
/// (`WIMI_THREADS`). Results are folded back in trial-major order, which
/// makes the confusion matrix bitwise identical for any thread count.
pub fn run_identification(materials: &[Material], opts: &RunOptions) -> RunResult {
    let mut extractor = WiMi::new(opts.config.clone());
    extractor.set_recorder(opts.recorder.clone());
    extractor.set_trace(opts.trace.clone());
    let class_names: Vec<String> = materials.iter().map(|m| m.name.clone()).collect();

    let mut dropped = 0usize;
    let mut rejected = 0usize;
    let mut salvaged = 0usize;

    let jobs = |base: u64, trials: usize, stride: u64| -> Vec<(usize, u64)> {
        let mut v = Vec::with_capacity(trials * materials.len());
        for trial in 0..trials {
            for label in 0..materials.len() {
                v.push((
                    label,
                    base.wrapping_add(trial as u64 * stride + label as u64),
                ));
            }
        }
        v
    };

    // Training set.
    let train_jobs = jobs(opts.seed.wrapping_add(1_000), opts.n_train, 131);
    let measured = wimi_core::par::map(&train_jobs, |_, &(label, seed)| {
        (
            label,
            measure(&extractor, &materials[label].spec, opts, seed),
        )
    });
    let mut train = Dataset::new(class_names.clone());
    for (label, (feat, stats)) in measured {
        rejected += stats.rejected;
        salvaged += stats.salvaged as usize;
        match feat {
            Some(f) => train.push(f.as_vector(), label),
            None => dropped += 1,
        }
    }

    let mut wimi = WiMi::new(opts.config.clone());
    wimi.set_recorder(opts.recorder.clone());
    wimi.set_trace(opts.trace.clone());
    wimi.train_on_dataset(&train);

    // Test set.
    let test_jobs = jobs(opts.seed.wrapping_add(900_000), opts.n_test, 137);
    let measured = wimi_core::par::map(&test_jobs, |_, &(label, seed)| {
        (
            label,
            measure(&extractor, &materials[label].spec, opts, seed),
        )
    });
    let mut truth = Vec::new();
    let mut pred = Vec::new();
    for (label, (feat, stats)) in measured {
        rejected += stats.rejected;
        salvaged += stats.salvaged as usize;
        match feat {
            Some(f) => {
                let p = wimi.classify_feature(&f).expect("trained");
                truth.push(label);
                pred.push(p);
            }
            None => dropped += 1,
        }
    }

    if let Some(rec) = &opts.recorder {
        rec.add(CounterId::TrialsDropped, dropped as u64);
    }

    RunResult {
        confusion: ConfusionMatrix::from_predictions(&truth, &pred, &class_names),
        dropped_trials: dropped,
        rejected_measurements: rejected,
        salvaged_measurements: salvaged,
    }
}

/// Formats a percentage for report rows.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Prints a report header for one figure.
pub fn heading(id: &str, title: &str) {
    println!();
    println!("=== {id}: {title}");
    println!("{}", "-".repeat(64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_liquids_has_ten() {
        let mats = paper_liquids();
        assert_eq!(mats.len(), 10);
        assert_eq!(mats[0].name, "Vinegar");
    }

    #[test]
    fn capture_pair_produces_consistent_captures() {
        let mat = Material::catalog(Liquid::Milk);
        let (base, tar) = capture_pair(&mat.spec, Environment::Lab, 5, 1, 1.0, &|_| {});
        assert_eq!(base.len(), 5);
        assert_eq!(tar.len(), 5);
        assert_eq!(base.n_antennas(), Scenario::builder().build().n_antennas());
    }

    #[test]
    fn attempt_capture_seeds_are_pairwise_distinct() {
        // Within one measurement, every retry attempt must get its own
        // capture seed — and therefore its own reseeded fault stream.
        for seed in [0u64, 1, 0xACC0, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let seeds: Vec<u64> = (0..16).map(|a| attempt_capture_seed(seed, a)).collect();
            let mut sorted = seeds.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), seeds.len(), "collision under seed {seed}");
        }
    }

    #[test]
    fn retry_attempts_draw_distinct_fault_streams() {
        // Regression pin: two attempts of one measurement under an active
        // FaultPlan must observe different captures (distinct sim + fault
        // randomness), while re-running the same attempt reproduces its
        // capture exactly.
        let spec: LiquidSpec = Liquid::Milk.into();
        let plan = FaultPlan::hostile(0xFA17);
        let capture = |attempt: usize| {
            capture_pair_faulted(
                Some(&spec),
                Environment::Lab,
                6,
                attempt_capture_seed(4242, attempt),
                1.0,
                &|_| {},
                Some(&plan),
                None,
                None,
            )
        };
        let (base0, tar0) = capture(0);
        let (base0_again, tar0_again) = capture(0);
        assert_eq!(base0, base0_again, "same attempt must reproduce exactly");
        assert_eq!(tar0, tar0_again, "same attempt must reproduce exactly");
        let (base1, tar1) = capture(1);
        assert_ne!(base0, base1, "attempts must not share a fault stream");
        assert_ne!(tar0, tar1, "attempts must not share a fault stream");
    }

    #[test]
    fn run_identification_is_deterministic() {
        let materials = vec![
            Material::catalog(Liquid::PureWater),
            Material::catalog(Liquid::Oil),
        ];
        let opts = RunOptions {
            n_train: 4,
            n_test: 3,
            packets: 10,
            ..RunOptions::default()
        };
        let a = run_identification(&materials, &opts);
        let b = run_identification(&materials, &opts);
        assert_eq!(a.confusion, b.confusion);
        assert_eq!(a.dropped_trials, b.dropped_trials);
        assert_eq!(a.rejected_measurements, b.rejected_measurements);
    }

    #[test]
    fn run_identification_is_thread_count_invariant() {
        // Seeds are drawn per measurement (not from a shared stream) and
        // results fold back in trial-major order, so 1 worker and 4
        // workers must produce the same confusion matrix bit for bit.
        let materials = vec![
            Material::catalog(Liquid::PureWater),
            Material::catalog(Liquid::Honey),
        ];
        let opts = RunOptions {
            n_train: 4,
            n_test: 3,
            packets: 10,
            ..RunOptions::default()
        };
        wimi_core::par::set_thread_override(Some(1));
        let serial = run_identification(&materials, &opts);
        wimi_core::par::set_thread_override(Some(4));
        let parallel = run_identification(&materials, &opts);
        wimi_core::par::set_thread_override(None);
        assert_eq!(serial.confusion, parallel.confusion);
        assert_eq!(serial.dropped_trials, parallel.dropped_trials);
        assert_eq!(serial.rejected_measurements, parallel.rejected_measurements);
    }

    #[test]
    fn run_identification_wraps_high_seeds() {
        // Regression: `seed + 1_000` and the per-job seed arithmetic used
        // to overflow (a panic in debug builds) near `u64::MAX`.
        let materials = vec![
            Material::catalog(Liquid::PureWater),
            Material::catalog(Liquid::Honey),
        ];
        let opts = RunOptions {
            seed: u64::MAX - 5,
            n_train: 2,
            n_test: 2,
            ..RunOptions::default()
        };
        let result = run_identification(&materials, &opts);
        let scored: usize = (0..2)
            .map(|t| (0..2).map(|p| result.confusion.count(t, p)).sum::<usize>())
            .sum();
        assert_eq!(scored + result.dropped_trials, 4);
    }

    #[test]
    fn small_run_identification_works() {
        let materials = vec![
            Material::catalog(Liquid::PureWater),
            Material::catalog(Liquid::Honey),
        ];
        let opts = RunOptions {
            n_train: 6,
            n_test: 4,
            ..RunOptions::default()
        };
        let result = run_identification(&materials, &opts);
        // Water vs honey is an easy pair; expect high accuracy.
        assert!(result.accuracy() > 0.8, "accuracy = {}", result.accuracy());
    }
}
