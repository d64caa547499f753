//! `fleet`: a warm `wimi-serve` engine — 64 sessions over three
//! environments (three model keys). Catalog, packets, retry policy and
//! serving settings are the library's defaults (`FleetConfig`,
//! `ServeConfig`: 3 liquids, 10 packets, 3 training samples per class),
//! and sessions are laid out as `run_fleet` lays them out.
//!
//! Set-up builds the engine and fills its cold model cache with one tick
//! of one request per session (every key trains). Two phases then run on
//! the warm engine:
//!
//! * paced: an open loop of seeded Poisson arrivals at a fixed rate well
//!   below closed-loop capacity; each request is timed from when it was
//!   due, and the generator's lateness is reported;
//! * closed loop: every session keeps one request outstanding, tick after
//!   tick, repeating one fixed set of ticks until the window closes.
//!
//! Every tick feeds a `wimi-metrics` timeline; at the end the run renders
//! the `wimi-serve/1` summary and the timeline and validates both.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use wimi_campaign::derive_cell_seed;
use wimi_core::{MaterialFeature, WiMi, WiMiConfig};
use wimi_metrics::{ShardSample, TickCollector, TickSample};
use wimi_obs::{CounterId, Recorder, Snapshot};
use wimi_phy::channel::Environment;
use wimi_phy::material::LIQUIDS;
use wimi_phy::scenario::LiquidSpec;
use wimi_serve::{
    run_fleet, summary_json, validate_summary, Engine, FleetConfig, FleetReport, MeasureRequest,
    ServeConfig, ServeResponse, Session, SessionSpec, SessionStat,
};

use crate::replica::{self, Link, Probe};
use crate::report::{median, percentile, ratio, Outcome};
use crate::spans::Tracer;
use crate::Args;

/// `FleetConfig::default().seed`.
pub const CANONICAL_SEED: u64 = 0xF1EE7;
const SESSIONS: usize = 64;
const ENVIRONMENTS: [Environment; 3] = [
    Environment::Lab,
    Environment::EmptyHall,
    Environment::Library,
];
/// Paced phase: Poisson arrivals at this rate (requests per second),
/// round-robin over the sessions.
pub const PACED_RATE_PER_S: f64 = 100.0;
/// Paced requests per session (64 × 30 = 1920 requests, about 19.2 s).
const PACED_PER_SESSION: u64 = 30;
/// The generator spins (rather than sleeps) this close to an arrival.
const SPIN_S: f64 = 1e-3;
/// A paced request is on time when it gets a label within this limit.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Ticks in one closed-loop pass.
const CLOSED_TICKS: u64 = 5;
const SETUPS: usize = 9;
const MIN_PASSES: usize = 3;
/// Timeline window: large enough that no tick of a run is evicted, so
/// the validator cross-checks the engine counters against the ticks.
const WINDOW: usize = 1 << 20;

/// The library's default fleet (`fleet` CLI, `BENCH_PR10.json`):
/// ok, failed, shed, correct, model keys.
const RECORDED_DEFAULT_FLEET: [u64; 5] = [57, 3, 0, 57, 2];

/// Request outcomes over the requests whose results are deterministic
/// (cold fill, paced phase, first closed-loop pass).
#[derive(Default)]
struct Tally {
    requests: u64,
    ok: u64,
    correct: u64,
    shed: u64,
    attempts: u64,
    rejected: u64,
}

impl Tally {
    fn add(&mut self, requests: usize, responses: &[ServeResponse]) {
        self.requests += requests as u64;
        self.shed += (requests - responses.len()) as u64;
        for r in responses {
            self.attempts += r.attempts as u64;
            self.rejected += r.rejected as u64;
            if let Some(label) = r.label {
                self.ok += 1;
                self.correct += u64::from(label == r.truth);
            }
        }
    }
}

/// One tick's timing.
struct TickTimes {
    submitted: Instant,
    drained: Instant,
}

/// A fleet engine plus the per-session tallies and timeline collector
/// the summary and timeline need.
struct Fleet {
    engine: Engine,
    stats: Vec<SessionStat>,
    collector: TickCollector,
    tick: u64,
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

impl Fleet {
    fn build(seed: u64) -> Fleet {
        let defaults = FleetConfig::default();
        let catalog: Vec<(String, LiquidSpec)> = LIQUIDS[..defaults.catalog_size]
            .iter()
            .map(|&l| (l.name().to_owned(), l.into()))
            .collect();
        let names: Vec<String> = catalog.iter().map(|(n, _)| n.clone()).collect();
        let sessions: Vec<Session> = (0..SESSIONS)
            .map(|i| {
                let truth = i % names.len();
                Session::new(SessionSpec {
                    id: i as u64,
                    seed: derive_cell_seed(seed, i as u64),
                    truth,
                    catalog: names.clone(),
                    spec: catalog[truth].1.clone(),
                    environment: ENVIRONMENTS[i % ENVIRONMENTS.len()],
                    packets: defaults.packets,
                    retry: defaults.retry.clone(),
                    fault: None,
                    config: defaults.serve.config.clone(),
                    trace: false,
                })
            })
            .collect();
        let stats = sessions
            .iter()
            .map(|s| SessionStat {
                id: s.id,
                truth: s.truth,
                environment: s.environment.name().to_owned(),
                material: s.catalog[s.truth].clone(),
                ..SessionStat::default()
            })
            .collect();
        let engine = Engine::new(
            defaults.serve,
            sessions,
            catalog,
            Arc::new(Recorder::enabled()),
        );
        let collector = TickCollector::new(engine.shard_count(), WINDOW);
        Fleet {
            engine,
            stats,
            collector,
            tick: 0,
        }
    }

    /// One submit/drain tick; spans around each call when traced.
    fn tick(
        &mut self,
        reqs: &[MeasureRequest],
        tracer: Option<&Tracer>,
    ) -> (Vec<ServeResponse>, TickTimes) {
        let before = self.engine.recorder().snapshot();
        for r in reqs {
            let accepted = match tracer {
                Some(t) => t.time("wserve.submit", None, |_| self.engine.submit(&[*r])),
                None => self.engine.submit(&[*r]),
            };
            if accepted == 0 {
                self.stats[r.session].shed += 1;
            }
        }
        let submitted = Instant::now();
        let responses = match tracer {
            Some(t) => t.time("wserve.drain", None, |_| self.engine.drain()),
            None => self.engine.drain(),
        };
        let drained = Instant::now();
        let after = self.engine.recorder().snapshot();
        for r in &responses {
            let stat = &mut self.stats[r.session as usize];
            stat.rejected += r.rejected as u64;
            stat.packets_spent += r.packets_spent as u64;
            stat.salvaged += u64::from(r.salvaged);
            match r.label {
                Some(label) => {
                    stat.ok += 1;
                    stat.correct += u64::from(label == r.truth);
                }
                None => stat.failed += 1,
            }
        }
        let delta = |name: &str| counter(&after, name) - counter(&before, name);
        let mut exhausted: Vec<u64> = responses
            .iter()
            .filter(|r| !r.measured)
            .map(|r| r.session)
            .collect();
        exhausted.sort_unstable();
        let shards = self
            .engine
            .take_tick_stats()
            .into_iter()
            .map(|s| ShardSample {
                depth: s.depth,
                peak: s.peak,
                submitted: s.submitted,
                completed: s.completed,
                shed: s.shed,
            })
            .collect();
        self.collector.push(TickSample {
            tick: self.tick,
            requests: reqs.len() as u64,
            completed: responses.len() as u64,
            shed: (reqs.len() - responses.len()) as u64,
            cache_hits: delta("model_cache_hits"),
            cache_misses: delta("model_cache_misses"),
            retry_attempts: responses.iter().map(|r| r.attempts as u64).sum(),
            retries_exhausted: exhausted.len() as u64,
            svm_batches: delta("serve_batches"),
            packets_processed: responses.iter().map(|r| r.packets_spent as u64).sum(),
            exhausted,
            shards,
        });
        self.tick += 1;
        (responses, TickTimes { submitted, drained })
    }

    /// Engine counters plus every session's, summed.
    fn counters(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        let snaps = std::iter::once(self.engine.recorder().snapshot())
            .chain(self.engine.sessions().iter().map(|s| s.recorder.snapshot()));
        for snap in snaps {
            for &(name, v) in &snap.counters {
                *out.entry(name.to_owned()).or_default() += v;
            }
        }
        out
    }
}

fn every_session(seq: u64) -> Vec<MeasureRequest> {
    (0..SESSIONS)
        .map(|session| MeasureRequest { session, seq })
        .collect()
}

fn closed_pass(seq0: u64) -> Vec<Vec<MeasureRequest>> {
    (0..CLOSED_TICKS).map(|t| every_session(seq0 + t)).collect()
}

fn diff(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    b.iter()
        .map(|(k, v)| (k.clone(), v - a.get(k).copied().unwrap_or(0)))
        .collect()
}

fn add(a: &mut BTreeMap<String, u64>, b: &BTreeMap<String, u64>) {
    for (k, v) in b {
        *a.entry(k.clone()).or_default() += v;
    }
}

/// Checks the library's own default fleet against its recorded totals,
/// summary and timeline validators.
fn reference(out: &mut Outcome) {
    let cfg = FleetConfig::default();
    let report = run_fleet(&cfg);
    let n = report.requests;
    out.attempted += n;
    let got = [
        report.ok,
        report.failed,
        report.shed,
        report.correct,
        report.model_keys as u64,
    ];
    out.check(got == RECORDED_DEFAULT_FLEET, n, || {
        format!(
            "default fleet: ok/failed/shed/correct/keys {got:?} (recorded {RECORDED_DEFAULT_FLEET:?})"
        )
    });
    let summary = validate_summary(&summary_json(&report));
    out.check(summary.is_ok(), n, || {
        format!("default fleet summary: {:?}", summary.err())
    });
    let text = wimi_metrics::render(&report.timeline, Some(&report.engine_snapshot.to_json()));
    let timeline = wimi_metrics::parse_and_validate(&text);
    out.check(timeline.is_ok(), n, || {
        format!("default fleet timeline: {:?}", timeline.err())
    });
}

pub fn run(args: &Args, out: &mut Outcome) {
    reference(out);
    let seed = args.input_seed(CANONICAL_SEED);
    out.note("input_seed", seed);
    out.note("sessions", SESSIONS);
    out.note("packets", FleetConfig::default().packets);
    out.note("paced_rate_per_s", PACED_RATE_PER_S);
    out.note("latency_limit_ms", LATENCY_LIMIT_MS);
    let tracer = args.trace.then(Tracer::new);
    let tracer = tracer.as_ref();
    let mut tally = Tally::default();

    // Set-up: build the engine and fill the cold model cache, several
    // times; the last engine serves the measured phases.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cold_fill_ms = Vec::with_capacity(SETUPS);
    let mut cold: Option<Vec<ServeResponse>> = None;
    let mut fleet = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let mut f = Fleet::build(seed);
        let (responses, times) = f.tick(&every_session(0), None);
        setups.push(t0.elapsed().as_secs_f64());
        cold_fill_ms.push((times.drained - times.submitted).as_secs_f64() * 1e3);
        match &cold {
            None => cold = Some(responses),
            Some(c) => out.check(*c == responses, SESSIONS as u64, || {
                "cold-fill responses differ between set-ups".to_owned()
            }),
        }
        out.attempted += SESSIONS as u64;
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("set-up ran");
    out.set("setup_s", median(&setups));
    out.set("wserve.cold_fill_ms", median(&cold_fill_ms));
    tally.add(SESSIONS, cold.as_deref().unwrap_or_default());
    let mut work = fleet.counters();

    let started = Instant::now();
    paced(out, &mut fleet, seed, &mut tally);

    // Closed loop: one fixed pass of ticks, repeated. The first pass is
    // untimed: it warms the caches after the mostly idle paced phase, and
    // its responses are the ones every timed pass must repeat.
    let pass = closed_pass(1 + PACED_PER_SESSION);
    let per_pass = SESSIONS as u64 * CLOSED_TICKS;
    let run_pass = |fleet: &mut Fleet, tracer: Option<&Tracer>| -> Vec<ServeResponse> {
        pass.iter()
            .flat_map(|reqs| fleet.tick(reqs, tracer).0)
            .collect()
    };
    let before = fleet.counters();
    let first = run_pass(&mut fleet, None);
    let pass_counts = diff(&before, &fleet.counters());
    tally.add(per_pass as usize, &first);
    add(&mut work, &pass_counts);
    out.attempted += per_pass;
    let mut passes = 1u64;
    let window = args
        .window()
        .saturating_sub(started.elapsed())
        .max(Duration::from_secs(2));
    let window = if args.trace { window / 2 } else { window };
    let mut timed = |fleet: &mut Fleet, out: &mut Outcome, tracer: Option<&Tracer>| {
        let deadline = Instant::now() + window;
        let mut walls = Vec::new();
        while walls.len() < MIN_PASSES || Instant::now() < deadline {
            let t0 = Instant::now();
            let responses = run_pass(fleet, tracer);
            walls.push(t0.elapsed().as_secs_f64());
            passes += 1;
            out.attempted += per_pass;
            out.check(first == responses, per_pass, || {
                format!("closed-loop pass {passes} differs from the first pass")
            });
        }
        walls
    };
    let walls = timed(&mut fleet, out, None);
    let traced_walls = match tracer {
        Some(t) => timed(&mut fleet, out, Some(t)),
        None => Vec::new(),
    };
    out.set("meas_per_s", per_pass as f64 / median(&walls));
    out.note("closed_passes", passes);
    finish(out, &fleet, passes);
    let failed = out.failed as f64;
    out.set(
        "fail_frac",
        ratio(
            (tally.rejected + tally.shed) as f64 + failed,
            (tally.attempts + tally.shed) as f64 + failed,
        ),
    );
    out.set("accuracy", ratio(tally.correct as f64, tally.ok as f64));
    out.note("deterministic_requests", tally.requests);

    work.insert("trace_events".into(), 0);
    out.work(&work);

    if let Some(tracer) = tracer {
        let engine_snap = fleet.engine.recorder().snapshot();
        out.set(
            "wserve.batch_size",
            ratio(
                counter(&engine_snap, "serve_batched") as f64,
                counter(&engine_snap, "serve_batches") as f64,
            ),
        );
        out.set("wserve.shed", counter(&engine_snap, "serve_shed") as f64);
        let hits = counter(&engine_snap, "model_cache_hits") as f64;
        out.set(
            "wserve.cache_hit_ratio",
            ratio(
                hits,
                hits + counter(&engine_snap, "model_cache_misses") as f64,
            ),
        );
        out.set(
            "trace.overhead_pct",
            replica::overhead_pct(&traced_walls, &walls),
        );
        shadow(
            args,
            out,
            &fleet,
            &first,
            &pass,
            tracer,
            &work,
            &pass_counts,
        );
    }
}

/// The paced open loop: seeded Poisson arrivals, round-robin over the
/// sessions, each timed from when it was due.
fn paced(out: &mut Outcome, fleet: &mut Fleet, seed: u64, tally: &mut Tally) {
    let n = SESSIONS * PACED_PER_SESSION as usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9ACE_D0A7);
    let mut t = 0.0f64;
    let due: Vec<f64> = (0..n)
        .map(|_| {
            t += -(1.0 - rng.gen::<f64>()).ln() / PACED_RATE_PER_S;
            t
        })
        .collect();
    let request = |k: usize| MeasureRequest {
        session: k % SESSIONS,
        seq: 1 + (k / SESSIONS) as u64,
    };
    // Every request sent is a sample. One that is shed or answered
    // without a label misses the limit: it counts as the limit plus its
    // own due-to-response time, above every request that was on time.
    let mut latency_ms = vec![0.0f64; n];
    let (mut on_time, mut missed, mut answered) = (0u64, 0u64, 0u64);
    let (mut lag_ms, mut wait_ms) = (0.0f64, 0.0f64);
    let start = Instant::now();
    let mut next = 0;
    while next < n {
        let now = start.elapsed().as_secs_f64();
        if due[next] > now {
            // Sleep to within a millisecond of the next arrival, then
            // spin, so timer and wake-up slack do not land in the
            // measured latency.
            let ahead = due[next] - now;
            if ahead > SPIN_S {
                std::thread::sleep(Duration::from_secs_f64(ahead - SPIN_S));
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        let first = next;
        while next < n && due[next] <= now {
            lag_ms += (now - due[next]) * 1e3;
            next += 1;
        }
        let reqs: Vec<MeasureRequest> = (first..next).map(request).collect();
        let (responses, times) = fleet.tick(&reqs, None);
        let done = (times.drained - start).as_secs_f64();
        let waited = (times.submitted - start).as_secs_f64() - now;
        let mut labelled = 0u64;
        for (k, ms) in latency_ms.iter_mut().enumerate().take(next).skip(first) {
            *ms = LATENCY_LIMIT_MS + (done - due[k]) * 1e3;
        }
        for r in &responses {
            let k = (r.seq as usize - 1) * SESSIONS + r.session as usize;
            let ms = (done - due[k]) * 1e3;
            answered += 1;
            wait_ms += waited * 1e3;
            if r.label.is_some() {
                latency_ms[k] = ms;
                labelled += 1;
                on_time += u64::from(ms <= LATENCY_LIMIT_MS);
            }
        }
        missed += reqs.len() as u64 - labelled;
        tally.add(reqs.len(), &responses);
    }
    out.attempted += n as u64;
    out.set("p50_ms", median(&latency_ms));
    out.set("p99_ms", percentile(&latency_ms, 99.0));
    out.set("on_time_frac", on_time as f64 / n as f64);
    out.set("wserve.generator_lag_ms", lag_ms / n as f64);
    out.set("wserve.queue_wait_ms", ratio(wait_ms, answered as f64));
    out.note("latency_samples", latency_ms.len());
    out.note("paced_missed", missed);
    out.note("paced_s", start.elapsed().as_secs_f64());
}

/// Renders and validates the `wimi-serve/1` summary and the
/// `wimi-metrics/1` timeline over the engine's whole life, and checks
/// per-session conservation.
fn finish(out: &mut Outcome, fleet: &Fleet, passes: u64) {
    let measurements = 1 + PACED_PER_SESSION + CLOSED_TICKS * passes;
    for s in &fleet.stats {
        out.check(
            s.ok + s.failed + s.shed == measurements,
            measurements,
            || {
                format!(
                    "session {}: ok {} + failed {} + shed {} != requests {measurements}",
                    s.id, s.ok, s.failed, s.shed
                )
            },
        );
    }
    let engine = &fleet.engine;
    engine
        .recorder()
        .add(CounterId::ServeQueuePeak, engine.queue_peak() as u64);
    let engine_snapshot = engine.recorder().snapshot();
    let sum = |f: fn(&SessionStat) -> u64| fleet.stats.iter().map(f).sum::<u64>();
    let (ok, failed, shed) = (sum(|s| s.ok), sum(|s| s.failed), sum(|s| s.shed));
    let totals = fleet.counters();
    let counters = engine_snapshot
        .counters
        .iter()
        .map(|&(name, _)| (name, totals.get(name).copied().unwrap_or(0)))
        .collect();
    let timeline = fleet.collector.finish();
    let report = FleetReport {
        sessions: SESSIONS,
        measurements,
        seed: 0,
        requests: SESSIONS as u64 * measurements,
        responses: ok + failed,
        ok,
        failed,
        shed,
        correct: sum(|s| s.correct),
        model_keys: engine.cache().len(),
        queue_peak: engine.queue_peak(),
        per_session: fleet.stats.clone(),
        counters,
        timeline,
        engine_snapshot,
    };
    // The summary, model-key and timeline checks each cover every
    // request the engine served.
    let requests = report.requests;
    let summary = validate_summary(&summary_json(&report));
    out.check(summary.is_ok(), requests, || {
        format!("fleet summary: {:?}", summary.err())
    });
    out.check(report.model_keys == ENVIRONMENTS.len(), requests, || {
        format!(
            "{} model keys, want {}",
            report.model_keys,
            ENVIRONMENTS.len()
        )
    });
    let t0 = Instant::now();
    let text = wimi_metrics::render(&report.timeline, Some(&report.engine_snapshot.to_json()));
    out.set("wmetrics.render_ms", t0.elapsed().as_secs_f64() * 1e3);
    let t0 = Instant::now();
    let parsed = wimi_metrics::parse_and_validate(&text);
    out.set("wmetrics.validate_ms", t0.elapsed().as_secs_f64() * 1e3);
    out.check(parsed.is_ok(), requests, || {
        format!("fleet timeline: {:?}", parsed.err())
    });
    out.note("ticks", report.timeline.ticks.len());
}

/// Re-measures the first closed-loop pass outside the engine, through
/// the public pieces `Session::measure` uses, and re-classifies its
/// features in model-keyed batches; both must reproduce the engine's
/// responses exactly.
#[allow(clippy::too_many_arguments)]
fn shadow(
    args: &Args,
    out: &mut Outcome,
    fleet: &Fleet,
    first: &[ServeResponse],
    pass: &[Vec<MeasureRequest>],
    tracer: &Tracer,
    work: &BTreeMap<String, u64>,
    pass_counts: &BTreeMap<String, u64>,
) {
    let engine = &fleet.engine;
    let reqs: Vec<MeasureRequest> = pass.iter().flatten().copied().collect();
    let extractor = WiMi::new(WiMiConfig::default());
    let no_modify = |_: &mut wimi_phy::scenario::ScenarioBuilder| {};
    let remeasure = |tracer: &Tracer, probe: Option<&Probe>| {
        tracer.time("wserve.shadow_fanout", None, |fan| {
            wimi_core::par::map(&reqs, |_, r| {
                let s = &engine.sessions()[r.session];
                let link = Link {
                    spec: Some(&s.spec),
                    environment: s.environment,
                    packets: s.packets,
                    modify: &no_modify,
                    fault: s.fault.as_ref(),
                    retry: &s.retry,
                    recorder: None,
                    trace: None,
                };
                let mut unit = tracer.unit((s.id, r.seq), Some(fan));
                unit.span("wserve.session_measure", |u| {
                    replica::measure(&extractor, &link, s.measurement_seed(r.seq), probe, u)
                })
            })
        })
    };
    let measured = remeasure(tracer, None);
    out.attempted += reqs.len() as u64;

    let mut by_req: BTreeMap<(u64, u64), &ServeResponse> = BTreeMap::new();
    for r in first {
        by_req.insert((r.session, r.seq), r);
    }
    let mut groups: BTreeMap<wimi_serve::ModelKey, Vec<(usize, MaterialFeature)>> = BTreeMap::new();
    let mut mismatched = 0u64;
    for (i, (r, m)) in reqs.iter().zip(&measured).enumerate() {
        let want = by_req.get(&(r.session as u64, r.seq));
        let same = want.is_some_and(|w| {
            w.measured == m.feature.is_some()
                && w.rejected == m.stats.rejected
                && w.salvaged == m.stats.salvaged
                && w.packets_spent == m.stats.packets_spent
                && w.attempts == m.attempts
        });
        mismatched += u64::from(!same);
        if let Some(f) = &m.feature {
            let key = engine.model_key(&engine.sessions()[r.session]);
            groups.entry(key).or_default().push((i, f.clone()));
        }
    }
    out.check(mismatched == 0, mismatched, || {
        format!("{mismatched} shadow measurements differ from the engine's responses")
    });

    let mut labels: Vec<Option<usize>> = vec![None; reqs.len()];
    let mut classified = 0usize;
    for (key, items) in &groups {
        // Every key trained during the cold fill, so the closure never
        // runs; an untrained stand-in would fail the label check below.
        let model = engine
            .cache()
            .get_or_train(key, None, || WiMi::new(WiMiConfig::default()));
        for chunk in items.chunks(ServeConfig::default().batch_max.max(1)) {
            let feats: Vec<MaterialFeature> = chunk.iter().map(|(_, f)| f.clone()).collect();
            let preds = tracer.time("wml.classify", None, |_| model.classify_features(&feats));
            classified += feats.len();
            if let Ok(preds) = preds {
                for ((i, _), p) in chunk.iter().zip(preds) {
                    labels[*i] = Some(p);
                }
            }
        }
    }
    let relabelled = reqs
        .iter()
        .zip(&labels)
        .filter(|(r, l)| by_req.get(&(r.session as u64, r.seq)).map(|w| w.label) != Some(**l))
        .count() as u64;
    out.check(relabelled == 0, relabelled, || {
        format!("{relabelled} batched re-classifications differ from the engine's labels")
    });

    let probe = Probe::default();
    let probe_tracer = Tracer::new();
    let _ = remeasure(&probe_tracer, Some(&probe));
    out.attempted += reqs.len() as u64;
    let spans = tracer.take();
    let stats = replica::finish_trace(
        args,
        out,
        &spans,
        &probe,
        &probe_tracer.take(),
        pass_counts,
        reqs.len() as u64,
    );
    out.set(
        "wml.svm_machines",
        work.get("svm_machines_trained").copied().unwrap_or(0) as f64,
    );
    let classify_ns = stats.get("wml.classify").map_or(0, |s| s.total_ns) as f64;
    out.set(
        "wml.classify_us",
        ratio(classify_ns, classified as f64) / 1e3,
    );
    out.set("wml.train_ms", 0.0);
    let get = |name: &str| stats.get(name).copied().unwrap_or_default();
    out.set("wserve.submit_us", get("wserve.submit").mean_self_us());
    out.set("wserve.drain_ms", get("wserve.drain").mean_self_us() / 1e3);
    // Σ Session::measure ÷ (drain wall × workers), over one pass: the
    // mean traced closed-loop pass's drains against the shadow
    // re-measurement of the same requests.
    let drain = get("wserve.drain");
    let drain_ns_per_pass = ratio(drain.total_ns as f64, drain.calls as f64) * CLOSED_TICKS as f64;
    out.set(
        "wserve.drain_parallel_frac",
        ratio(
            get("wserve.session_measure").total_ns as f64,
            drain_ns_per_pass * wimi_core::par::max_threads() as f64,
        ),
    );
}
