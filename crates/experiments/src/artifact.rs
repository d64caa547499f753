//! `artifact validate FILE | diff A B | budget BENCH FILE`: one CLI verb
//! over every versioned artifact schema, dispatching on the `schema` tag.
//!
//! The tag is read from the first line of a JSONL artifact
//! (`wimi-trace/1`, `wimi-metrics/1`) or from the whole document for a
//! JSON one (`wimi-obs/1`, `wimi-serve/1`). Dispatch is by schema family,
//! so a version bump reaches the family's validator and is reported as a
//! version mismatch quoting both tags.
//!
//! Exit codes: 0 success, 1 invalid artifact / real difference / budget
//! exceeded, 2 usage or I/O error. Every failure is one stderr line, except
//! a divergence, which prints the diff report.

use wimi_obs::artifact::{self, check_budgets, BudgetRow, DiffOutcome};
use wimi_obs::json::{self, Json};

/// The artifact schemas `artifact` understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schema {
    /// `wimi-obs/1` snapshot (JSON document).
    Obs,
    /// `wimi-trace/1` flight-recorder trace (JSONL).
    Trace,
    /// `wimi-metrics/1` fleet timeline (JSONL).
    Metrics,
    /// `wimi-serve/1` fleet summary (JSON document).
    Serve,
}

const FAMILIES: [(&str, Schema); 4] = [
    ("wimi-obs", Schema::Obs),
    ("wimi-trace", Schema::Trace),
    ("wimi-metrics", Schema::Metrics),
    ("wimi-serve", Schema::Serve),
];

/// Reads the schema tag of `text` and maps its family to a [`Schema`].
///
/// # Errors
///
/// A one-line message when the text is not JSON, carries no `schema`
/// string, or names a family this tool does not know.
pub fn schema_of(text: &str) -> Result<Schema, String> {
    let first_line = text.lines().next().and_then(|l| json::parse(l).ok());
    let root = match first_line {
        Some(header) if header.get("schema").is_some() => header,
        _ => json::parse(text)?,
    };
    let Some(tag) = root.get("schema").and_then(Json::as_str) else {
        return Err("no \"schema\" string in the header line or document".into());
    };
    let family = tag.split('/').next().unwrap_or(tag);
    FAMILIES
        .iter()
        .find(|(name, _)| *name == family)
        .map(|&(_, schema)| schema)
        .ok_or_else(|| {
            format!(
                "unknown schema \"{tag}\" (expected wimi-obs/1, wimi-trace/1, wimi-metrics/1 or wimi-serve/1)"
            )
        })
}

/// Fully validates `text` against its schema and returns a report whose
/// first line names the schema; a trace's report is its whole summary.
///
/// # Errors
///
/// The one-line message of the schema's validator (or of [`schema_of`]).
pub fn validate(text: &str) -> Result<String, String> {
    Ok(match schema_of(text)? {
        Schema::Obs => {
            wimi_obs::validate_json(text)?;
            format!("wimi-obs/1 snapshot, {} bytes\n", text.len())
        }
        Schema::Trace => wimi_trace::analyze::summary(text)?,
        Schema::Metrics => {
            let tl = wimi_metrics::parse_and_validate(text)?;
            format!(
                "wimi-metrics/1 timeline, {} ticks retained, {} evicted, {} shards\n",
                tl.ticks.len(),
                tl.evicted,
                tl.shards
            )
        }
        Schema::Serve => {
            wimi_serve::validate_summary(text)?;
            format!("wimi-serve/1 fleet summary, {} bytes\n", text.len())
        }
    })
}

/// Validates both artifacts (which must share a schema), then compares
/// them with the first-divergence line diff.
///
/// # Errors
///
/// A one-line message naming the side that failed validation, or the
/// schema mismatch between the two.
pub fn diff(a: &str, b: &str) -> Result<DiffOutcome, String> {
    validate(a).map_err(|e| format!("first artifact: {e}"))?;
    validate(b).map_err(|e| format!("second artifact: {e}"))?;
    let (sa, sb) = (schema_of(a)?, schema_of(b)?);
    if sa != sb {
        return Err(format!(
            "artifacts carry different schemas: {sa:?} vs {sb:?}"
        ));
    }
    Ok(artifact::diff(a, b))
}

/// Validates `text`, then gates it against its schema's section of the
/// bench summary `bench`:
///
/// * trace → `work_budgets`: `trace_events` is the header's emissions,
///   every other name an embedded obs counter;
/// * obs → `work_budgets`: the snapshot's counters;
/// * metrics → `metrics_budgets`: each series' windowed `max`;
/// * serve → `fleet_budgets`: the summary's totals, then its counters.
///
/// # Errors
///
/// The validator's message, or the gate's fail-closed message.
pub fn budget(bench: &str, text: &str) -> Result<Vec<BudgetRow>, String> {
    let counter = |root: &Json, name: &str| root.get("counters")?.get(name)?.as_u64();
    match schema_of(text)? {
        Schema::Obs => {
            wimi_obs::validate_json(text)?;
            let root = json::parse(text)?;
            check_budgets(bench, "work_budgets", |name| counter(&root, name))
        }
        Schema::Trace => {
            let trace = wimi_trace::artifact::parse_and_validate(text)?;
            check_budgets(bench, "work_budgets", |name| match name {
                "trace_events" => Some(trace.header.events_emitted),
                _ => counter(&trace.obs, name),
            })
        }
        Schema::Metrics => {
            let tl = wimi_metrics::parse_and_validate(text)?;
            check_budgets(bench, "metrics_budgets", |name| {
                tl.aggregate(name).map(|s| s.max)
            })
        }
        Schema::Serve => {
            wimi_serve::validate_summary(text)?;
            let root = json::parse(text)?;
            check_budgets(bench, "fleet_budgets", |name| {
                let total = root.get("totals").and_then(|t| t.get(name)?.as_u64());
                total.or_else(|| counter(&root, name))
            })
        }
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("artifact: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("artifact: {msg}");
    std::process::exit(1);
}

/// CLI entry for `artifact validate PATH`: prints `valid: PATH` and the
/// schema report.
pub fn validate_cli(path: &str) {
    match validate(&read(path)) {
        Ok(report) => print!("valid: {path}\n{report}"),
        Err(e) => fail(&format!("{path}: {e}")),
    }
}

/// CLI entry for `artifact diff A B`: exit 0 iff byte-identical, else the
/// first divergence on stderr and exit 1.
pub fn diff_cli(a_path: &str, b_path: &str) {
    match diff(&read(a_path), &read(b_path)) {
        Ok(DiffOutcome::Identical) => println!("identical: {a_path} == {b_path}"),
        Ok(DiffOutcome::Diverged { report, .. }) => {
            eprint!("{report}");
            std::process::exit(1);
        }
        Err(e) => fail(&e),
    }
}

/// CLI entry for `artifact budget BENCH PATH`: prints the budget table;
/// exit 1 when any row is over budget.
pub fn budget_cli(bench_path: &str, path: &str) {
    let rows = budget(&read(bench_path), &read(path))
        .unwrap_or_else(|e| fail(&format!("budget check: {path}: {e}")));
    print!("{}", artifact::budget_table(&rows));
    if rows.iter().any(|r| !r.ok) {
        fail(&format!("budget check failed: {path} exceeds {bench_path}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimi_serve::{run_fleet, summary_json, FleetConfig};

    fn tiny_fleet() -> wimi_serve::FleetReport {
        run_fleet(&FleetConfig {
            sessions: 4,
            measurements: 2,
            packets: 8,
            ..FleetConfig::default()
        })
    }

    fn row(rows: &[BudgetRow], name: &str) -> u64 {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.actual)
            .unwrap_or_else(|| panic!("no row {name}: {rows:?}"))
    }

    #[test]
    fn schema_is_read_from_the_header_line_or_the_document() {
        let obs = wimi_obs::Recorder::enabled().snapshot().to_json();
        assert_eq!(schema_of(&obs), Ok(Schema::Obs));
        let report = tiny_fleet();
        assert_eq!(schema_of(&summary_json(&report)), Ok(Schema::Serve));
        let timeline = wimi_metrics::render(&report.timeline, None);
        assert_eq!(schema_of(&timeline), Ok(Schema::Metrics));
        let trace = wimi_trace::artifact::render(&wimi_trace::TraceSink::enabled().flush(), None);
        assert_eq!(schema_of(&trace), Ok(Schema::Trace));
        // A newer version still reaches its family's validator.
        let err = validate(&obs.replace("wimi-obs/1", "wimi-obs/2")).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");
        let err = schema_of("{\"schema\": \"wimi-campaign/1\"}").unwrap_err();
        assert!(err.starts_with("unknown schema"), "{err}");
        assert!(schema_of("{\"a\": 1}").is_err());
        assert!(schema_of("").is_err());
    }

    #[test]
    fn trace_budgets_read_the_header_and_the_embedded_counters() {
        let rec = wimi_obs::Recorder::enabled();
        rec.add(wimi_obs::CounterId::CapturesTaken, 7);
        let sink = wimi_trace::TraceSink::enabled();
        sink.emit(wimi_trace::TraceEvent::Count {
            counter: wimi_obs::CounterId::CapturesTaken,
            delta: 7,
        });
        let text = wimi_trace::artifact::render(&sink.flush(), Some(&rec.snapshot().to_json()));
        let bench = r#"{"work_budgets": {"trace_events": 1, "captures_taken": 7}}"#;
        let rows = budget(bench, &text).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(row(&rows, "trace_events"), 1);
        assert_eq!(row(&rows, "captures_taken"), 7);
        assert!(rows.iter().all(|r| r.ok), "{rows:?}");
    }

    #[test]
    fn fleet_budgets_read_the_totals_then_the_counters() {
        let report = tiny_fleet();
        let text = summary_json(&report);
        let bench =
            r#"{"fleet_budgets": {"requests": 0, "queue_peak": 99, "captures_taken": 99999}}"#;
        let rows = budget(bench, &text).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(row(&rows, "requests"), report.requests);
        assert_eq!(row(&rows, "queue_peak"), report.queue_peak as u64);
        let captures = report
            .counters
            .iter()
            .find(|&&(n, _)| n == "captures_taken")
            .map(|&(_, v)| v);
        assert_eq!(Some(row(&rows, "captures_taken")), captures);
        assert!(!rows[0].ok, "a zero ceiling must trip");
        // The float accuracy is not a gated total.
        assert!(budget(r#"{"fleet_budgets": {"accuracy": 1}}"#, &text).is_err());
    }

    #[test]
    fn metrics_budgets_gate_the_windowed_max() {
        let report = tiny_fleet();
        let text = wimi_metrics::render(&report.timeline, None);
        let bench = r#"{"metrics_budgets": {"queue_peak": 99, "requests": 99}}"#;
        let rows = budget(bench, &text).unwrap_or_else(|e| panic!("{e}"));
        for name in ["queue_peak", "requests"] {
            let max = report.timeline.aggregate(name).map(|s| s.max);
            assert_eq!(Some(row(&rows, name)), max, "{name}");
        }
        assert!(budget(r#"{"metrics_budgets": {"no_such_series": 1}}"#, &text).is_err());
    }

    #[test]
    fn diff_validates_both_sides_and_requires_one_schema() {
        let report = tiny_fleet();
        let summary = summary_json(&report);
        assert_eq!(diff(&summary, &summary), Ok(DiffOutcome::Identical));
        let timeline = wimi_metrics::render(&report.timeline, None);
        let err = diff(&summary, &timeline).unwrap_err();
        assert!(err.contains("different schemas"), "{err}");
        let err = diff(&summary, &summary[..summary.len() / 2]).unwrap_err();
        assert!(err.starts_with("second artifact: truncated JSON"), "{err}");
    }
}
