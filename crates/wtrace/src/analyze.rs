//! Artifact analysis: the deterministic human summary of a trace.
//! Diffing and budget gates are schema-independent and live in
//! [`wimi_obs::artifact`].

use std::fmt::Write as _;

use wimi_obs::json::Json;

use crate::artifact::parse_and_validate;

/// Renders a deterministic human-readable summary of an artifact:
/// header totals, event-type mix, per-stage span balance, issue tallies,
/// and — when the run failed — the tail of each failing task's stream so
/// the failing stage/issue is visible at a glance.
pub fn summary(text: &str) -> Result<String, String> {
    let artifact = parse_and_validate(text)?;
    let mut out = String::new();
    let h = artifact.header;
    let _ = writeln!(
        out,
        "wimi-trace/1: {} tasks, {} events ({} emitted), {} failures, {} tasks truncated",
        h.tasks, h.events, h.events_emitted, h.failures, h.tasks_truncated
    );

    let mut by_ev: Vec<(&str, u64)> = Vec::new();
    for line in &artifact.events {
        match by_ev.iter_mut().find(|(name, _)| *name == line.ev) {
            Some((_, n)) => *n += 1,
            None => by_ev.push((&line.ev, 1)),
        }
    }
    by_ev.sort();
    out.push_str("events by type:\n");
    for (name, n) in &by_ev {
        let _ = writeln!(out, "  {name:<20} {n:>8}");
    }

    let mut issues: Vec<(&str, u64)> = Vec::new();
    for line in &artifact.events {
        if line.ev == "issue" {
            if let Some(name) = line.value.get("issue").and_then(Json::as_str) {
                let count = line.value.get("count").and_then(Json::as_u64).unwrap_or(0);
                match issues.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, total)) => *total += count,
                    None => issues.push((name, count)),
                }
            }
        }
    }
    issues.sort();
    if !issues.is_empty() {
        out.push_str("issues:\n");
        for (name, n) in &issues {
            let _ = writeln!(out, "  {name:<20} {n:>8}");
        }
    }

    if h.failures > 0 {
        out.push_str("failing tasks (stream tails):\n");
        // A task counts as failing when its *last* outcome event is a
        // failure — a rejected attempt that a later retry recovered from
        // (failed … feature) is not a failing task.
        let mut outcomes: Vec<(&str, bool)> = Vec::new();
        for line in &artifact.events {
            let failing = match line.ev.as_str() {
                "failed" | "retries_exhausted" => true,
                "feature" => false,
                _ => continue,
            };
            match outcomes.iter_mut().find(|(t, _)| *t == line.task) {
                Some((_, f)) => *f = failing,
                None => outcomes.push((line.task.as_str(), failing)),
            }
        }
        let failing: Vec<&str> = outcomes
            .iter()
            .filter(|(_, f)| *f)
            .map(|(t, _)| *t)
            .collect();
        for task in dedup_in_order(&failing) {
            let tail: Vec<&crate::artifact::EventLine> =
                artifact.events.iter().filter(|l| l.task == task).collect();
            let start = tail.len().saturating_sub(5);
            let _ = writeln!(out, "  {task}:");
            for line in &tail[start..] {
                let _ = writeln!(out, "    seq {:>4}  {}", line.seq, describe(line));
            }
        }
    }
    Ok(out)
}

fn dedup_in_order<'a>(items: &[&'a str]) -> Vec<&'a str> {
    let mut seen: Vec<&str> = Vec::new();
    for &it in items {
        if !seen.contains(&it) {
            seen.push(it);
        }
    }
    seen
}

fn describe(line: &crate::artifact::EventLine) -> String {
    let v = &line.value;
    let s = |key: &str| v.get(key).and_then(Json::as_str).unwrap_or("?");
    let n = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
    match line.ev.as_str() {
        "enter" => format!("enter {}", s("stage")),
        "exit" => format!("exit {}", s("stage")),
        "count" => format!("count {} +{}", s("counter"), n("delta")),
        "issue" => format!("issue {} x{}", s("issue"), n("count")),
        "salvage" => format!("salvage {} x{}", s("action"), n("count")),
        "attempt" => format!("attempt {}/{}", n("attempt"), n("max")),
        "retries_exhausted" => format!("retries exhausted after {}", n("attempts")),
        "feature" => format!("feature from {} pairs", n("pairs")),
        "failed" => format!("FAILED at {} ({})", s("stage"), s("issue")),
        "svm_machine" => format!("svm machine {}x{}", n("class_a"), n("class_b")),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::render;
    use crate::event::{Ctx, TaskKey, TraceEvent};
    use crate::sink::{task_scope, TraceSink};
    use wimi_obs::{CounterId, IssueId, Recorder, StageId};

    fn failing_artifact() -> String {
        let sink = TraceSink::enabled();
        {
            let _scope = task_scope(TaskKey::measurement(3));
            sink.emit(TraceEvent::Attempt { attempt: 1, max: 2 });
            sink.emit(TraceEvent::Issue {
                issue: IssueId::ShortCapture,
                count: 1,
                ctx: Ctx::packet(7),
            });
            sink.emit(TraceEvent::Failed {
                stage: StageId::Screening,
                issue: IssueId::ShortCapture,
            });
            sink.emit(TraceEvent::Attempt { attempt: 2, max: 2 });
            sink.emit(TraceEvent::Failed {
                stage: StageId::Screening,
                issue: IssueId::ShortCapture,
            });
            sink.emit(TraceEvent::RetriesExhausted { attempts: 2 });
        }
        sink.mark_failure();
        let rec = Recorder::enabled();
        rec.incr(CounterId::MeasurementsFailed);
        render(&sink.flush(), Some(&rec.snapshot().to_json()))
    }

    #[test]
    fn summary_localizes_the_failing_stage_and_issue() {
        let text = summary(&failing_artifact()).unwrap();
        assert!(text.contains("1 failures"), "{text}");
        assert!(text.contains("meas:3"), "{text}");
        assert!(
            text.contains("FAILED at screening (short_capture)"),
            "{text}"
        );
        assert!(text.contains("retries exhausted after 2"), "{text}");
    }
}
