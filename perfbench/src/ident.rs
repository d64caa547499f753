//! `ident`: the paper's headline experiment (Fig. 15) — ten liquids, Lab,
//! 20-packet clean captures, 20 training and 20 test measurements per
//! liquid, one SVM — through `harness::run_identification`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use wimi_core::WiMi;
use wimi_experiments::harness::{
    paper_liquids, run_identification, Material, RunOptions, RunResult,
};
use wimi_ml::dataset::Dataset;
use wimi_ml::metrics::ConfusionMatrix;
use wimi_obs::{CounterId, Recorder};

use crate::replica::{self, Link, Probe};
use crate::report::{counters, input_p99, median, ratio, repeat, timed, Outcome, Reps};
use crate::spans::Tracer;
use crate::Args;

/// `RunOptions::default().seed`: the seed Fig. 15 reports.
pub const CANONICAL_SEED: u64 = 0xACC0;

/// Fig. 15 at the canonical seed: test confusion counts, truth rows by
/// predicted columns, in `paper_liquids()` order.
const RECORDED_CONFUSION: [[usize; 10]; 10] = [
    [18, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 18, 2, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 19, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 19, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 15, 0, 0, 0, 5, 0],
    [0, 0, 0, 0, 0, 20, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 20, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 2, 18, 0, 0],
    [0, 0, 0, 0, 2, 0, 0, 0, 17, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 19],
];
/// Trials dropped and attempts rejected at the canonical seed.
const RECORDED_DROPPED: usize = 8;
const RECORDED_REJECTED: usize = 222;

/// Independent experiments per repetition (input seeds derived from
/// `--seed`): pooling them steadies the seed-dependent retry work.
const EXPERIMENTS: usize = 8;
/// Set-up repetitions (set-up is microseconds; the median of many is
/// steady).
const SETUP_REPS: usize = 1001;
/// Fewest timed repetitions of each kind, whatever `--seconds` says.
const MIN_REPS: usize = 3;

fn options(seed: u64, recorder: Option<Arc<Recorder>>) -> RunOptions {
    RunOptions {
        seed,
        recorder,
        ..RunOptions::default()
    }
}

fn requests(materials: &[Material], opts: &RunOptions) -> u64 {
    ((opts.n_train + opts.n_test) * materials.len()) as u64
}

fn same(a: &RunResult, b: &RunResult) -> bool {
    a.confusion == b.confusion
        && a.dropped_trials == b.dropped_trials
        && a.rejected_measurements == b.rejected_measurements
        && a.salvaged_measurements == b.salvaged_measurements
}

fn counts_of(m: &ConfusionMatrix) -> Vec<Vec<usize>> {
    let n = m.n_classes();
    (0..n)
        .map(|t| (0..n).map(|p| m.count(t, p)).collect())
        .collect()
}

fn labelled(m: &ConfusionMatrix) -> usize {
    counts_of(m).iter().flatten().sum()
}

/// Checks the library against the values recorded for Fig. 15.
fn reference(out: &mut Outcome, materials: &[Material]) {
    let opts = options(CANONICAL_SEED, None);
    let r = run_identification(materials, &opts);
    out.attempted += requests(materials, &opts);
    let want: Vec<Vec<usize>> = RECORDED_CONFUSION.iter().map(|r| r.to_vec()).collect();
    let got = counts_of(&r.confusion);
    out.check(
        got == want
            && r.dropped_trials == RECORDED_DROPPED
            && r.rejected_measurements == RECORDED_REJECTED,
        requests(materials, &opts),
        || {
            format!(
                "ident at the canonical seed: confusion {got:?}, dropped {}, rejected {} \
                 (recorded {want:?}, {RECORDED_DROPPED}, {RECORDED_REJECTED})",
                r.dropped_trials, r.rejected_measurements
            )
        },
    );
}

/// One `run_identification` call's result and counters.
struct Call {
    result: RunResult,
    counts: BTreeMap<String, u64>,
}

impl PartialEq for Call {
    fn eq(&self, other: &Call) -> bool {
        same(&self.result, &other.result) && self.counts == other.counts
    }
}

/// One repetition: the experiment on every input seed, each call with a
/// fresh recorder attached through `RunOptions`.
fn repetition(
    seeds: &[u64],
    mut call: impl FnMut(&RunOptions) -> RunResult,
) -> (Vec<Call>, Vec<f64>) {
    let mut walls = Vec::with_capacity(seeds.len());
    let calls = seeds
        .iter()
        .map(|&seed| {
            let rec = Arc::new(Recorder::enabled());
            let opts = options(seed, Some(Arc::clone(&rec)));
            let result = timed(&mut walls, || call(&opts));
            Call {
                result,
                counts: counters(&rec.snapshot().counters),
            }
        })
        .collect();
    (calls, walls)
}

pub fn run(args: &Args, out: &mut Outcome) {
    let materials = paper_liquids();
    reference(out, &materials);

    let seeds = args.input_seeds(CANONICAL_SEED, EXPERIMENTS);
    out.note("input_seeds", format!("{seeds:?}"));
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let built = timed(&mut setups, || {
            (
                paper_liquids(),
                seeds
                    .iter()
                    .map(|&s| options(s, Some(Arc::new(Recorder::enabled()))))
                    .collect::<Vec<_>>(),
            )
        });
        black_box(&built);
    }
    out.set("setup_s", median(&setups));

    let per_call = requests(&materials, &options(0, None));
    let per_rep = per_call * seeds.len() as u64;
    out.note("packets", RunOptions::default().packets);
    out.note("requests_per_call", per_call);

    let window = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };
    let reps = repeat(out, window, MIN_REPS, per_rep, "ident", || {
        repetition(&seeds, |opts| run_identification(&materials, opts))
    });
    let calls = &reps.first;
    let sum = |f: &dyn Fn(&Call) -> usize| calls.iter().map(f).sum::<usize>() as f64;
    let tests = (RunOptions::default().n_test * materials.len() * calls.len()) as f64;
    let labelled = sum(&|c| labelled(&c.result.confusion));
    let correct = sum(&|c| {
        let m = &c.result.confusion;
        (0..m.n_classes()).map(|k| m.count(k, k)).sum()
    });
    let rejected = sum(&|c| c.result.rejected_measurements);
    let attempts = sum(&|c| c.counts.get("measurements_attempted").copied().unwrap_or(0) as usize);
    let failed = out.failed as f64;
    out.set("meas_per_s", per_rep as f64 / median(&reps.rep_s));
    out.set("p50_ms", median(&reps.call_s) * 1e3);
    out.set("p99_ms", input_p99(&reps.call_s, seeds.len()) * 1e3);
    out.set("on_time_frac", labelled / tests);
    out.set("fail_frac", ratio(rejected + failed, attempts + failed));
    out.set("accuracy", ratio(correct, labelled));
    out.note_str("latency_unit", "one run_identification call");
    out.note("latency_samples", reps.call_s.len());
    out.note("dropped_trials", sum(&|c| c.result.dropped_trials));
    out.note("rejected_attempts", rejected);
    let mut work = BTreeMap::new();
    for c in calls {
        for (k, v) in &c.counts {
            *work.entry(k.clone()).or_default() += v;
        }
    }
    out.work(&work);

    if args.trace {
        traced(args, out, &materials, &seeds, &reps, &work);
    }
}

/// The traced half of a `--trace 1` run: the same repetitions through
/// the public pieces, with spans, then one stage-probe call.
fn traced(
    args: &Args,
    out: &mut Outcome,
    materials: &[Material],
    seeds: &[u64],
    untraced: &Reps<Vec<Call>>,
    work: &BTreeMap<String, u64>,
) {
    let per_rep = requests(materials, &options(0, None)) * seeds.len() as u64;
    let mut kept: Option<Tracer> = None;
    let mut train_samples = 0;
    let traced = repeat(
        out,
        args.window() / 2,
        MIN_REPS,
        per_rep,
        "traced ident",
        || {
            let tracer = Tracer::new();
            let rep = repetition(seeds, |opts| {
                let (r, samples) = identification(materials, opts, &tracer, None);
                train_samples = samples;
                r
            });
            kept.get_or_insert(tracer);
            rep
        },
    );
    out.check(traced.first == untraced.first, per_rep, || {
        "the traced ident run does not reproduce the untraced counters and accuracy".to_owned()
    });

    let probe = Probe::default();
    let probe_tracer = Tracer::new();
    let (probed, _) = repetition(&seeds[..1], |opts| {
        identification(materials, opts, &probe_tracer, Some(&probe)).0
    });
    let per_call = per_rep / seeds.len() as u64;
    out.attempted += per_call;
    out.check(probed[..] == untraced.first[..1], per_call, || {
        "the stage-probe ident run differs from the untraced run".to_owned()
    });
    let spans = kept.expect("a traced repetition ran").take();
    let stats = replica::finish_trace(
        args,
        out,
        &spans,
        &probe,
        &probe_tracer.take(),
        work,
        per_rep,
    );
    out.set(
        "harness.fanout_efficiency",
        replica::fanout_efficiency(&stats, "harness.measurement", "harness.fanout"),
    );
    out.set(
        "trace.overhead_pct",
        replica::overhead_pct(&traced.rep_s, &untraced.rep_s),
    );
    out.note("train_samples", train_samples);
    out.note("train_classes", materials.len());
}

/// `harness::run_identification` through its public pieces, with spans
/// around the fan-outs, every measurement, training and classification.
/// Returns the result and the training-set size.
fn identification(
    materials: &[Material],
    opts: &RunOptions,
    tracer: &Tracer,
    probe: Option<&Probe>,
) -> (RunResult, usize) {
    let mut extractor = WiMi::new(opts.config.clone());
    extractor.set_recorder(opts.recorder.clone());
    extractor.set_trace(opts.trace.clone());
    let class_names: Vec<String> = materials.iter().map(|m| m.name.clone()).collect();
    let (mut dropped, mut rejected, mut salvaged) = (0usize, 0usize, 0usize);

    let jobs = |base: u64, trials: usize, stride: u64| -> Vec<(usize, u64)> {
        let mut v = Vec::with_capacity(trials * materials.len());
        for trial in 0..trials {
            for label in 0..materials.len() {
                v.push((label, base + trial as u64 * stride + label as u64));
            }
        }
        v
    };
    let fan_out = |jobs: &[(usize, u64)]| {
        tracer.time("harness.fanout", None, |fan| {
            wimi_core::par::map(jobs, |_, &(label, seed)| {
                let link = Link {
                    spec: Some(&materials[label].spec),
                    environment: opts.environment,
                    packets: opts.packets,
                    modify: opts.modify.as_ref(),
                    fault: opts.fault.as_ref(),
                    retry: &opts.retry,
                    recorder: opts.recorder.as_ref(),
                    trace: opts.trace.as_ref(),
                };
                let mut unit = tracer.unit((seed, 0), Some(fan));
                let m = unit.span("harness.measurement", |u| {
                    replica::measure(&extractor, &link, seed, probe, u)
                });
                (label, m)
            })
        })
    };

    let mut train = Dataset::new(class_names.clone());
    for (label, m) in fan_out(&jobs(opts.seed + 1_000, opts.n_train, 131)) {
        rejected += m.stats.rejected;
        salvaged += m.stats.salvaged as usize;
        match m.feature {
            Some(f) => train.push(f.as_vector(), label),
            None => dropped += 1,
        }
    }
    let mut wimi = WiMi::new(opts.config.clone());
    wimi.set_recorder(opts.recorder.clone());
    wimi.set_trace(opts.trace.clone());
    tracer.time("wml.train", None, |_| wimi.train_on_dataset(&train));

    let (mut truth, mut pred) = (Vec::new(), Vec::new());
    for (label, m) in fan_out(&jobs(opts.seed + 900_000, opts.n_test, 137)) {
        rejected += m.stats.rejected;
        salvaged += m.stats.salvaged as usize;
        match m.feature {
            Some(f) => {
                let p = tracer.time("wml.classify", None, |_| wimi.classify_feature(&f));
                truth.push(label);
                pred.push(p.expect("trained"));
            }
            None => dropped += 1,
        }
    }
    if let Some(rec) = &opts.recorder {
        rec.add(CounterId::TrialsDropped, dropped as u64);
    }
    let result = RunResult {
        confusion: ConfusionMatrix::from_predictions(&truth, &pred, &class_names),
        dropped_trials: dropped,
        rejected_measurements: rejected,
        salvaged_measurements: salvaged,
    };
    (result, train.len())
}
