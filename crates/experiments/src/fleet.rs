//! `fleet` subcommand: runs the deterministic synthetic fleet through
//! `wimi-serve` and writes/gates its `wimi-serve/1` summary.
//!
//! This is the CLI surface CI drives: one run at `WIMI_THREADS=1` and one
//! at `WIMI_THREADS=4` must produce byte-identical summaries (`cmp`), and
//! `--check BENCH_PR10.json` gates the run's deterministic totals against
//! the committed `fleet_budgets` ceilings (and the timeline against
//! `metrics_budgets`) through the shared `artifact budget` gate.
//! `fleet-report` joins a validated summary and timeline into tables.

use wimi_metrics::{parse_summary_rows, render_report};
use wimi_obs::artifact::budget_table;
use wimi_obs::json;
use wimi_serve::{run_campaign_fleet, run_fleet, summary_json, validate_summary, FleetConfig};

use crate::artifact;

/// `fleet [--sessions N] [--measurements M] [--campaign PATH]
/// [--fleet-out PATH] [--metrics-out PATH] [--slo POLICY] [--check BENCH]`:
/// runs the synthetic fleet (or one session per cell of a campaign file),
/// prints totals, writes the summary and the `wimi-metrics/1` timeline,
/// gates the declared SLOs, and optionally gates budget ceilings. Exit 1
/// on SLO breaches, budget violations or an invalid artifact, exit 2 on
/// I/O errors.
pub fn fleet_run(
    sessions: Option<usize>,
    measurements: Option<u64>,
    campaign_path: Option<&str>,
    out: Option<&str>,
    metrics_out: Option<&str>,
    slo: Option<&str>,
    check: Option<&str>,
) {
    let mut cfg = FleetConfig::default();
    if let Some(n) = sessions {
        cfg.sessions = n;
    }
    if let Some(m) = measurements {
        cfg.measurements = m;
    }

    let report = match campaign_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("fleet: cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            let campaign = match wimi_campaign::parse(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    std::process::exit(1);
                }
            };
            run_campaign_fleet(&campaign, &cfg)
        }
        None => run_fleet(&cfg),
    };

    let summary = summary_json(&report);
    // The renderer and validator are independent implementations; running
    // the validator here means a malformed summary can never reach CI's
    // byte-compare silently.
    if let Err(e) = validate_summary(&summary) {
        eprintln!("fleet: summary failed validation: {e}");
        std::process::exit(1);
    }

    eprintln!(
        "fleet: {} sessions x {} measurements: {} ok / {} failed / {} shed, {} correct, {} model keys",
        report.sessions,
        report.measurements,
        report.ok,
        report.failed,
        report.shed,
        report.correct,
        report.model_keys
    );

    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &summary) {
                eprintln!("fleet: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("fleet: summary written to {path}");
        }
        None => print!("{summary}"),
    }

    // The timeline artifact, self-validated like the summary: a render
    // the validator rejects must never reach CI's byte-compare.
    let timeline_text =
        wimi_metrics::render(&report.timeline, Some(&report.engine_snapshot.to_json()));
    if let Err(e) = wimi_metrics::parse_and_validate(&timeline_text) {
        eprintln!("fleet: timeline failed validation: {e}");
        std::process::exit(1);
    }
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(path, &timeline_text) {
            eprintln!("fleet: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("fleet: timeline written to {path}");
    }

    // SLO gate: every declared objective is evaluated; all breaches are
    // reported before the nonzero exit so the first breaching tick of
    // each rule is visible in one run.
    if let Some(policy_path) = slo {
        let policy_text = match std::fs::read_to_string(policy_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fleet: cannot read {policy_path}: {e}");
                std::process::exit(2);
            }
        };
        let policy = match wimi_metrics::parse_policy(&policy_text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("fleet: {policy_path}: {e}");
                std::process::exit(1);
            }
        };
        let rows: Vec<wimi_metrics::SessionRow> =
            report.per_session.iter().map(|s| s.metrics_row()).collect();
        let breaches = wimi_metrics::slo::evaluate(&policy, &report.timeline, &rows);
        if breaches.is_empty() {
            eprintln!("fleet: SLO check OK against {policy_path}");
        } else {
            for b in &breaches {
                eprintln!("fleet: SLO breach [{}]: {}", b.rule, b.message);
            }
            std::process::exit(1);
        }
    }

    if let Some(bench_path) = check {
        let bench = match std::fs::read_to_string(bench_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fleet: cannot read {bench_path}: {e}");
                std::process::exit(2);
            }
        };
        gate("budget", &bench, bench_path, &summary);
        // A bench summary that carries telemetry ceilings gates them
        // too (older summaries without the object stay valid).
        if json::parse(&bench)
            .ok()
            .is_some_and(|b| b.get("metrics_budgets").is_some())
        {
            gate("metrics budget", &bench, bench_path, &timeline_text);
        }
    }
}

/// Gates one rendered fleet artifact against its section of `bench`
/// (see [`artifact::budget`]), printing the table; exit 1 on failure.
fn gate(label: &str, bench: &str, bench_path: &str, text: &str) {
    match artifact::budget(bench, text) {
        Ok(rows) => {
            print!("{}", budget_table(&rows));
            if rows.iter().any(|r| !r.ok) {
                eprintln!("fleet: {label} check FAILED against {bench_path}");
                std::process::exit(1);
            }
            eprintln!("fleet: {label} check OK against {bench_path}");
        }
        Err(e) => {
            eprintln!("fleet: {e}");
            std::process::exit(1);
        }
    }
}

/// `fleet-report SUMMARY [--metrics TIMELINE]`: validates a `wimi-serve/1`
/// summary (and, when given, a `wimi-metrics/1` timeline), then joins the
/// session rows into the per-environment × per-material table on stdout.
/// Exit 1 on an invalid artifact, 2 on I/O errors.
pub fn fleet_report(summary_path: &str, metrics_path: Option<&str>) {
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fleet-report: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let invalid = |path: &str, e: String| -> ! {
        eprintln!("fleet-report: {path}: {e}");
        std::process::exit(1);
    };
    let summary = read(summary_path);
    let rows = validate_summary(&summary)
        .and_then(|()| parse_summary_rows(&summary))
        .unwrap_or_else(|e| invalid(summary_path, e));
    let timeline = metrics_path.map(|path| {
        wimi_metrics::parse_and_validate(&read(path)).unwrap_or_else(|e| invalid(path, e))
    });
    print!("{}", render_report(&rows, timeline.as_ref()));
}
