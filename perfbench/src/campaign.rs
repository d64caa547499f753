//! `campaign`: `run_campaign` over `campaigns/matrix.campaign` — 96 cells
//! of 8-packet captures with fault intensity 0.25, a scheduled antenna
//! dropout window and a fault step; every cell trains its own SVM and
//! emits its own trace artifact.

use std::collections::BTreeMap;
use std::sync::Arc;

use wimi_campaign::{
    expand, fault_plan, lower, state_at, Campaign, CellPlan, StepState, TargetMode,
};
use wimi_core::{WiMi, WiMiConfig};
use wimi_experiments::campaign::{
    run_campaign, work_totals, CampaignOutcome, CellOutcome, SegmentOutcome,
};
use wimi_experiments::harness::RetryPolicy;
use wimi_ml::dataset::Dataset;
use wimi_obs::{CounterId, Recorder};
use wimi_phy::scenario::{Beaker, LiquidSpec, ScenarioBuilder};
use wimi_phy::units::Meters;
use wimi_trace::artifact::{cell_artifact_name, parse_and_validate, render_cell, CampaignTag};
use wimi_trace::TraceSink;

use crate::replica::{self, Link, Probe};
use crate::report::{input_p99, median, percentile, ratio, repeat, timed, Outcome, Reps};
use crate::spans::Tracer;
use crate::Args;

const CAMPAIGN_FILE: &str = "campaigns/matrix.campaign";

/// Mean cell accuracy at the file's own seeds (six decimals).
const RECORDED_MEAN_ACCURACY: &str = "0.585338";
/// Exact work totals at the file's own seeds.
const RECORDED_TOTALS: [(&str, u64); 6] = [
    ("trace_events", 64_723),
    ("captures_taken", 5_882),
    ("packets_simulated", 47_056),
    ("measurements_attempted", 2_941),
    ("retries", 1_510),
    ("svm_machines_trained", 273),
];

/// Independent campaign inputs per repetition (seeds derived from
/// `--seed`): pooling them steadies the seed-dependent cell imbalance.
const CAMPAIGNS: usize = 2;
/// Set-up repetitions (set-up is microseconds; the median of many is
/// steady).
const SETUP_REPS: usize = 201;
const MIN_REPS: usize = 3;

fn read_file() -> Result<String, String> {
    let path = crate::repo_root().join(CAMPAIGN_FILE);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse(text: &str) -> Result<Campaign, String> {
    wimi_campaign::parse(text).map_err(|e| format!("{CAMPAIGN_FILE}: {e}"))
}

/// The run's set-up: parses the campaign text, then expands one copy of
/// the campaign per input, its seeds replaced by ones derived from
/// `--seed`.
fn load(args: &Args, text: &str) -> Result<Vec<(Campaign, Vec<CellPlan>)>, String> {
    let file = parse(text)?;
    let seeds = args.input_seeds(file.seed, CAMPAIGNS);
    let fault_seeds = args.input_seeds(file.fault_seed, CAMPAIGNS);
    Ok(seeds
        .into_iter()
        .zip(fault_seeds)
        .map(|(seed, fault_seed)| {
            let c = Campaign {
                seed,
                fault_seed,
                ..file.clone()
            };
            let cells = expand(&c);
            (c, cells)
        })
        .collect())
}

fn totals(outcome: &CampaignOutcome) -> BTreeMap<String, u64> {
    work_totals(outcome).into_iter().collect()
}

fn mean_accuracy(cells: &[CellOutcome]) -> f64 {
    ratio(cells.iter().map(|c| c.accuracy).sum(), cells.len() as f64)
}

fn requests(c: &Campaign, cells: &[CellPlan]) -> u64 {
    cells
        .iter()
        .map(|cell| (cell.materials.len() * (c.train + c.test)) as u64)
        .sum()
}

/// Checks the library against the values recorded for the file's seeds.
fn reference(out: &mut Outcome, text: &str) -> Result<(), String> {
    let c = parse(text)?;
    let n = requests(&c, &expand(&c));
    let outcome = run_campaign(&c);
    out.attempted += n;
    let mean = format!("{:.6}", mean_accuracy(&outcome.cells));
    let got = totals(&outcome);
    let diverged: Vec<String> = RECORDED_TOTALS
        .iter()
        .filter(|(name, want)| got.get(*name) != Some(want))
        .map(|(name, want)| format!("{name} {:?} (recorded {want})", got.get(*name)))
        .collect();
    out.check(
        mean == RECORDED_MEAN_ACCURACY && diverged.is_empty() && outcome.cells.len() == 96,
        n,
        || {
            format!(
                "campaign at the file's seeds: mean accuracy {mean} over {} cells \
                 (recorded {RECORDED_MEAN_ACCURACY} over 96); totals {}",
                outcome.cells.len(),
                diverged.join(", ")
            )
        },
    );
    Ok(())
}

pub fn run(args: &Args, out: &mut Outcome) {
    let loaded = read_file().and_then(|text| {
        reference(out, &text)?;
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut loaded = load(args, &text);
        for _ in 1..SETUP_REPS {
            loaded = timed(&mut setups, || load(args, &text));
        }
        out.set("setup_s", median(&setups));
        loaded
    });
    let campaigns = match loaded {
        Ok(l) => l,
        Err(e) => return out.check(false, 0, || e),
    };
    let seeds: Vec<u64> = campaigns.iter().map(|(c, _)| c.seed).collect();
    out.note("input_seeds", format!("{seeds:?}"));
    let per_rep: u64 = campaigns.iter().map(|(c, cells)| requests(c, cells)).sum();
    let n_cells: usize = campaigns.iter().map(|(_, cells)| cells.len()).sum();
    out.note("cells_per_repetition", n_cells);
    out.note("requests_per_repetition", per_rep);

    let window = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };
    let reps = repeat(out, window, MIN_REPS, per_rep, "campaign", || {
        let mut walls = Vec::new();
        let cells: Vec<Vec<CellOutcome>> = campaigns
            .iter()
            .map(|(c, _)| timed(&mut walls, || run_campaign(c).cells))
            .collect();
        (cells, walls)
    });
    let all: Vec<&CellOutcome> = reps.first.iter().flatten().collect();
    let validate_ms = validate_all(out, &all, ratio(per_rep as f64, n_cells as f64) as u64);
    let mut work: BTreeMap<String, u64> = BTreeMap::new();
    for ((c, _), cells) in campaigns.iter().zip(&reps.first) {
        let outcome = CampaignOutcome {
            campaign: c.clone(),
            cells: cells.clone(),
        };
        for (k, v) in totals(&outcome) {
            *work.entry(k).or_default() += v;
        }
    }
    let attempts = work.get("measurements_attempted").copied().unwrap_or(0) as f64;
    let rejected: usize = all.iter().map(|c| c.rejected).sum();
    let classified: usize = all.iter().flat_map(|c| &c.segments).map(|s| s.total).sum();
    let tests: usize = campaigns
        .iter()
        .flat_map(|(c, cells)| cells.iter().map(|cell| cell.materials.len() * c.test))
        .sum();
    let failed = out.failed as f64;
    out.set("meas_per_s", per_rep as f64 / median(&reps.rep_s));
    out.set("p50_ms", median(&reps.call_s) * 1e3);
    out.set("p99_ms", input_p99(&reps.call_s, campaigns.len()) * 1e3);
    out.set("on_time_frac", ratio(classified as f64, tests as f64));
    out.set(
        "fail_frac",
        ratio(rejected as f64 + failed, attempts + failed),
    );
    out.set(
        "accuracy",
        ratio(all.iter().map(|c| c.accuracy).sum(), all.len() as f64),
    );
    out.note_str("latency_unit", "one run_campaign call");
    out.note("latency_samples", reps.call_s.len());
    out.work(&work);

    if args.trace {
        traced(args, out, &campaigns, &reps, &work, &validate_ms);
    }
}

/// Self-validates every cell artifact; returns the per-cell validation
/// times in ms.
fn validate_all(out: &mut Outcome, cells: &[&CellOutcome], per_cell: u64) -> Vec<f64> {
    let mut times = Vec::with_capacity(cells.len());
    for cell in cells {
        let verdict = timed(&mut times, || parse_and_validate(&cell.artifact));
        out.check(verdict.is_ok(), per_cell, || {
            format!(
                "cell {} artifact fails validation: {:?}",
                cell.index,
                verdict.err()
            )
        });
    }
    times.iter().map(|s| s * 1e3).collect()
}

/// The traced half of a `--trace 1` run: the same repetitions through
/// the public pieces, with spans, then one stage-probe campaign.
fn traced(
    args: &Args,
    out: &mut Outcome,
    campaigns: &[(Campaign, Vec<CellPlan>)],
    untraced: &Reps<Vec<Vec<CellOutcome>>>,
    work: &BTreeMap<String, u64>,
    validate_ms: &[f64],
) {
    let per_rep: u64 = campaigns.iter().map(|(c, cells)| requests(c, cells)).sum();
    let mut kept: Option<Tracer> = None;
    let traced = repeat(
        out,
        args.window() / 2,
        MIN_REPS,
        per_rep,
        "traced campaign",
        || {
            let tracer = Tracer::new();
            let mut walls = Vec::new();
            let cells: Vec<Vec<CellOutcome>> = campaigns
                .iter()
                .map(|(c, cells)| timed(&mut walls, || campaign_traced(c, cells, &tracer, None)))
                .collect();
            kept.get_or_insert(tracer);
            (cells, walls)
        },
    );
    out.check(traced.first == untraced.first, per_rep, || {
        "the traced campaign run does not reproduce the untraced cells (artifacts, counters, accuracy)"
            .to_owned()
    });

    let probe = Probe::default();
    let probe_tracer = Tracer::new();
    let (c, cells) = &campaigns[0];
    let probed = campaign_traced(c, cells, &probe_tracer, Some(&probe));
    out.attempted += requests(c, cells);
    out.check(probed == untraced.first[0], requests(c, cells), || {
        "the stage-probe campaign run differs from the untraced run".to_owned()
    });
    // The full counter set, summed over every cell's own recorder.
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for cell in untraced.first.iter().flatten() {
        for &(name, v) in &cell.counters {
            *counts.entry(name.to_owned()).or_default() += v;
        }
    }
    let spans = kept.expect("a traced repetition ran").take();
    let stats = replica::finish_trace(
        args,
        out,
        &spans,
        &probe,
        &probe_tracer.take(),
        &counts,
        per_rep,
    );
    out.set(
        "harness.fanout_efficiency",
        replica::fanout_efficiency(&stats, "campaign.cell", "campaign.fanout"),
    );
    let cell_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "campaign.cell")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    out.set("campaign.cell_ms_p50", median(&cell_ms));
    out.set("campaign.cell_ms_p90", percentile(&cell_ms, 90.0));
    out.set(
        "campaign.cell_imbalance",
        ratio(percentile(&cell_ms, 100.0), median(&cell_ms)),
    );
    out.set(
        "wcampaign.parse_expand_ms",
        out.metrics.get("setup_s").copied().unwrap_or(0.0) * 1e3,
    );
    out.set(
        "wtrace.events_per_meas",
        ratio(
            work.get("trace_events").copied().unwrap_or(0) as f64,
            per_rep as f64,
        ),
    );
    out.set("wtrace.artifact_validate_ms", median(validate_ms));
    out.set(
        "trace.overhead_pct",
        replica::overhead_pct(&traced.rep_s, &untraced.rep_s),
    );
}

/// `run_campaign` through its public pieces, with spans around the
/// fan-out and every cell.
fn campaign_traced(
    c: &Campaign,
    cells: &[CellPlan],
    tracer: &Tracer,
    probe: Option<&Probe>,
) -> Vec<CellOutcome> {
    tracer.time("campaign.fanout", None, |fan| {
        wimi_core::par::map(cells, |_, cell| {
            tracer.time("campaign.cell", Some(fan), |root| {
                cell_traced(c, cell, tracer, root, probe)
            })
        })
    })
}

/// `campaign::run_cell` through its public pieces: every measurement,
/// training, classification, artifact render and validation in a span.
fn cell_traced(
    c: &Campaign,
    cell: &CellPlan,
    tracer: &Tracer,
    root: usize,
    probe: Option<&Probe>,
) -> CellOutcome {
    let recorder = Arc::new(Recorder::enabled());
    let sink = TraceSink::enabled();
    let refs = cell.materials.resolve();
    let names: Vec<String> = refs.iter().map(|m| m.label()).collect();
    let specs: Vec<LiquidSpec> = refs.iter().map(|m| m.spec()).collect();
    let k = specs.len();
    let mut extractor = WiMi::new(WiMiConfig::default());
    extractor.set_recorder(Some(Arc::clone(&recorder)));
    extractor.set_trace(Some(Arc::clone(&sink)));
    let retry = RetryPolicy::default();
    let (distance_cm, diameter_cm, container) =
        (cell.distance_cm, cell.diameter_cm, cell.container);
    let modify = move |b: &mut ScenarioBuilder| {
        b.link_distance(Meters::from_cm(distance_cm));
        b.beaker(
            Beaker::paper_default()
                .with_diameter(Meters::from_cm(diameter_cm))
                .with_material(container),
        );
    };
    let measure = |spec: Option<&LiquidSpec>, state: &StepState, seed: u64| {
        let fault = fault_plan(state, c.fault_seed);
        let link = Link {
            spec,
            environment: state.environment,
            packets: cell.packets,
            modify: &modify,
            fault: fault.as_ref(),
            retry: &retry,
            recorder: Some(&recorder),
            trace: Some(&sink),
        };
        let mut unit = tracer.unit((seed, 0), Some(root));
        unit.span("harness.measurement", |u| {
            replica::measure(&extractor, &link, seed, probe, u)
        })
    };
    let (mut dropped, mut rejected, mut salvaged) = (0usize, 0usize, 0usize);

    let base = StepState {
        from: 0,
        intensity: cell.intensity,
        environment: cell.environment,
        target: TargetMode::Present,
        dropout: None,
    };
    let mut train = Dataset::new(names.clone());
    for trial in 0..c.train {
        for (label, spec) in specs.iter().enumerate() {
            let seed = cell.seed + 1_000 + trial as u64 * 131 + label as u64;
            let m = measure(Some(spec), &base, seed);
            rejected += m.stats.rejected;
            salvaged += m.stats.salvaged as usize;
            match m.feature {
                Some(f) => train.push(f.as_vector(), label),
                None => dropped += 1,
            }
        }
    }
    let populated = train.class_counts().iter().filter(|&&n| n > 0).count();
    let trained = (populated >= 2).then(|| {
        let mut wimi = WiMi::new(WiMiConfig::default());
        wimi.set_recorder(Some(Arc::clone(&recorder)));
        wimi.set_trace(Some(Arc::clone(&sink)));
        tracer.time("wml.train", Some(root), |_| wimi.train_on_dataset(&train));
        wimi
    });

    let steps = lower(c, cell);
    let mut segments: Vec<SegmentOutcome> = steps
        .iter()
        .map(|s| SegmentOutcome {
            from: s.from,
            intensity: s.intensity,
            correct: 0,
            total: 0,
        })
        .collect();
    let test_trials = if trained.is_some() { c.test } else { 0 };
    for trial in 0..test_trials {
        let state = state_at(&steps, trial);
        let seg = segments
            .iter_mut()
            .rfind(|s| s.from <= trial)
            .expect("segment 0 starts at trial 0");
        for label in 0..k {
            let seed = cell.seed + 900_000 + trial as u64 * 137 + label as u64;
            let spec = match state.target {
                TargetMode::Present => Some(&specs[label]),
                TargetMode::Swapped => Some(&specs[(label + 1) % k]),
                TargetMode::Removed => None,
            };
            let m = measure(spec, state, seed);
            rejected += m.stats.rejected;
            salvaged += m.stats.salvaged as usize;
            match m.feature {
                Some(f) => {
                    let wimi = trained.as_ref().expect("test phase only runs when trained");
                    let predicted = tracer
                        .time("wml.classify", Some(root), |_| wimi.classify_feature(&f))
                        .expect("trained");
                    seg.total += 1;
                    if predicted == label && state.target == TargetMode::Present {
                        seg.correct += 1;
                    }
                }
                None => dropped += 1,
            }
        }
    }
    recorder.add(CounterId::TrialsDropped, dropped as u64);

    let (correct, total) = segments.iter().fold((0usize, 0usize), |(c0, t0), s| {
        (c0 + s.correct, t0 + s.total)
    });
    let accuracy = if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    };
    let snapshot = recorder.snapshot();
    let log = sink.flush();
    let tag = CampaignTag {
        campaign: c.name.clone(),
        cell: cell.index,
        cell_seed: cell.seed,
    };
    let artifact = tracer.time("wtrace.render", Some(root), |_| {
        render_cell(&log, Some(&snapshot.to_json()), Some(&tag))
    });
    // A render the validator rejects shows as a mismatch against the
    // untraced cell, whose artifact the caller validates.
    let _ = tracer.time("wtrace.validate", Some(root), |_| {
        parse_and_validate(&artifact)
    });
    CellOutcome {
        index: cell.index,
        seed: cell.seed,
        accuracy,
        segments,
        dropped,
        rejected,
        salvaged,
        failures: log.failures,
        trace_events: log.events_emitted,
        counters: snapshot.counters.clone(),
        artifact_name: cell_artifact_name(&c.name, cell.index),
        artifact,
    }
}
