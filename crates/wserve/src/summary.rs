//! The byte-stable `wimi-serve/1` fleet summary.
//!
//! Rendering is hand-rolled with fixed field order, fixed whitespace and
//! fixed number formatting, so two equal [`FleetReport`]s produce
//! byte-identical text — the artifact CI diffs between `WIMI_THREADS`
//! shapes. [`validate_summary`] is the fail-closed reader side: it parses
//! the text back and checks the schema tag plus the accounting
//! invariants (`responses = ok + failed`, `requests = responses + shed`).

use wimi_obs::artifact::{expect_schema, str_field, u64_field};
use wimi_obs::json::{self, Json};

use crate::fleet::FleetReport;

/// Schema tag stamped into every fleet summary.
pub const SUMMARY_SCHEMA: &str = "wimi-serve/1";

fn json_f64(x: f64) -> String {
    // Accuracy is a ratio of small integers; six decimals are exact
    // enough to be stable and deterministic across platforms.
    format!("{x:.6}")
}

/// Renders the fleet summary JSON (`wimi-serve/1`): fleet identity,
/// service totals, fleet-wide counters, and one record per session.
// wlint: artifact
pub fn summary_json(report: &FleetReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SUMMARY_SCHEMA}\",");
    out.push_str("  \"fleet\": {\n");
    let _ = writeln!(out, "    \"sessions\": {},", report.sessions);
    let _ = writeln!(out, "    \"measurements\": {},", report.measurements);
    let _ = writeln!(out, "    \"seed\": {}", report.seed);
    out.push_str("  },\n");
    out.push_str("  \"totals\": {\n");
    let _ = writeln!(out, "    \"requests\": {},", report.requests);
    let _ = writeln!(out, "    \"responses\": {},", report.responses);
    let _ = writeln!(out, "    \"ok\": {},", report.ok);
    let _ = writeln!(out, "    \"failed\": {},", report.failed);
    let _ = writeln!(out, "    \"shed\": {},", report.shed);
    let _ = writeln!(out, "    \"correct\": {},", report.correct);
    let accuracy = if report.ok > 0 {
        report.correct as f64 / report.ok as f64
    } else {
        0.0
    };
    let _ = writeln!(out, "    \"accuracy\": {},", json_f64(accuracy));
    let _ = writeln!(out, "    \"model_keys\": {},", report.model_keys);
    let _ = writeln!(out, "    \"queue_peak\": {}", report.queue_peak);
    out.push_str("  },\n");
    out.push_str("  \"counters\": {\n");
    for (i, (name, value)) in report.counters.iter().enumerate() {
        let comma = if i + 1 < report.counters.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(out, "    \"{name}\": {value}{comma}");
    }
    out.push_str("  },\n");
    out.push_str("  \"sessions\": [\n");
    for (i, s) in report.per_session.iter().enumerate() {
        let comma = if i + 1 < report.per_session.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"id\": {}, \"truth\": {}, \"environment\": \"{}\", \"material\": \"{}\", \
             \"ok\": {}, \"failed\": {}, \"shed\": {}, \
             \"correct\": {}, \"rejected\": {}, \"salvaged\": {}, \"packets_spent\": {}}}{comma}",
            s.id,
            s.truth,
            s.environment,
            s.material,
            s.ok,
            s.failed,
            s.shed,
            s.correct,
            s.rejected,
            s.salvaged,
            s.packets_spent
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Validates a `wimi-serve/1` summary: well-formed JSON, the right
/// schema tag, a session record per reported session, and conserved
/// accounting — fleet-wide (`responses = ok + failed`,
/// `requests = responses + shed`) and per session (every session's
/// `ok + failed + shed` must equal the fleet's `measurements`: every
/// request a session was owed is accounted for as served or shed, so a
/// fold that misattributes responses cannot pass). Fail-closed:
/// anything unexpected is an error, not a skip.
pub fn validate_summary(text: &str) -> Result<(), String> {
    let root = json::parse(text)?;
    expect_schema(&root, SUMMARY_SCHEMA, "summary")?;
    let fleet = root.get("fleet").unwrap_or(&Json::Null);
    let sessions = u64_field(fleet, "sessions", "fleet")?;
    let measurements = u64_field(fleet, "measurements", "fleet")?;
    let totals = root.get("totals").unwrap_or(&Json::Null);
    let requests = u64_field(totals, "requests", "totals")?;
    let responses = u64_field(totals, "responses", "totals")?;
    let ok = u64_field(totals, "ok", "totals")?;
    let failed = u64_field(totals, "failed", "totals")?;
    let shed = u64_field(totals, "shed", "totals")?;
    let correct = u64_field(totals, "correct", "totals")?;
    if responses != ok + failed {
        return Err(format!(
            "responses {responses} != ok {ok} + failed {failed}"
        ));
    }
    if requests != responses + shed {
        return Err(format!(
            "requests {requests} != responses {responses} + shed {shed}"
        ));
    }
    if correct > ok {
        return Err(format!("correct {correct} > ok {ok}"));
    }
    match root.get("sessions") {
        Some(Json::Arr(rows)) => {
            if rows.len() as u64 != sessions {
                return Err(format!(
                    "{} session records for {} sessions",
                    rows.len(),
                    sessions
                ));
            }
            for row in rows {
                let id = u64_field(row, "id", "session record")?;
                let what = format!("session {id}");
                let row_ok = u64_field(row, "ok", &what)?;
                let row_failed = u64_field(row, "failed", &what)?;
                let row_shed = u64_field(row, "shed", &what)?;
                let row_correct = u64_field(row, "correct", &what)?;
                if row_correct > row_ok {
                    return Err(format!("session correct {row_correct} > ok {row_ok}"));
                }
                if row_ok + row_failed + row_shed != measurements {
                    return Err(format!(
                        "session {id}: ok {row_ok} + failed {row_failed} + shed {row_shed} \
                         != measurements {measurements}"
                    ));
                }
                for key in ["environment", "material"] {
                    str_field(row, key, &what)?;
                }
            }
        }
        _ => return Err("missing sessions array".to_owned()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{run_fleet, FleetConfig};

    fn tiny_report() -> FleetReport {
        run_fleet(&FleetConfig {
            sessions: 4,
            measurements: 2,
            packets: 8,
            ..FleetConfig::default()
        })
    }

    #[test]
    fn summary_round_trips_through_the_validator() {
        let summary = summary_json(&tiny_report());
        validate_summary(&summary).unwrap_or_else(|e| panic!("summary must validate: {e}"));
    }

    #[test]
    fn equal_reports_render_byte_identically() {
        let a = summary_json(&tiny_report());
        let b = summary_json(&tiny_report());
        assert_eq!(a, b);
    }

    #[test]
    fn validator_fails_closed() {
        let report = tiny_report();
        let summary = summary_json(&report);
        let wrong_schema = summary.replace("wimi-serve/1", "wimi-serve/0");
        assert!(validate_summary(&wrong_schema).is_err());
        let truncated = &summary[..summary.len() / 2];
        assert!(validate_summary(truncated).is_err());
        // Break conservation: responses ≠ ok + failed.
        let broken = summary.replace(
            &format!("\"responses\": {}", report.responses),
            &format!("\"responses\": {}", report.responses + 1),
        );
        assert!(validate_summary(&broken).is_err());
    }
}
