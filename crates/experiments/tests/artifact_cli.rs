//! End-to-end tests of `artifact validate | diff | budget` through the
//! real binary: dispatch on the `schema` tag, one-line errors with exit 1
//! for invalid artifacts, and exit 2 for unreadable files and bad usage.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use wimi_obs::{CounterId, Recorder};
use wimi_trace::{TraceEvent, TraceSink};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wimi-experiments"))
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("wimi-artifact-{}-{name}", std::process::id()));
    fs::write(&path, contents).expect("write temp artifact");
    path
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn wimi-experiments")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn snapshot() -> String {
    let rec = Recorder::enabled();
    rec.add(CounterId::CapturesTaken, 3);
    rec.snapshot().to_json()
}

fn trace() -> String {
    let sink = TraceSink::enabled();
    sink.emit(TraceEvent::Count {
        counter: CounterId::CapturesTaken,
        delta: 3,
    });
    wimi_trace::artifact::render(&sink.flush(), Some(&snapshot()))
}

/// Asserts a one-line stderr message and exit code 1; returns the line.
fn one_line_failure(out: &Output) -> String {
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = stderr_of(out);
    assert_eq!(err.lines().count(), 1, "message must be one line: {err:?}");
    err
}

#[test]
fn schema_version_mismatch_is_a_one_line_error() {
    let path = write_temp(
        "schema.json",
        &snapshot().replace("wimi-obs/1", "wimi-obs/2"),
    );
    let out = run(&["artifact", "validate", path.to_str().unwrap_or_default()]);
    fs::remove_file(&path).ok();
    let err = one_line_failure(&out);
    assert!(
        err.contains("schema version mismatch"),
        "message must name the failure class: {err}"
    );
    assert!(
        err.contains("wimi-obs/2") && err.contains("wimi-obs/1"),
        "message must quote both versions: {err}"
    );
}

#[test]
fn truncated_snapshot_is_a_one_line_error() {
    let json = snapshot();
    let path = write_temp("truncated.json", &json[..json.len() / 2]);
    let out = run(&["artifact", "validate", path.to_str().unwrap_or_default()]);
    fs::remove_file(&path).ok();
    let err = one_line_failure(&out);
    assert!(
        err.contains("truncated JSON"),
        "message must name the failure class: {err}"
    );
}

#[test]
fn missing_or_unknown_schema_is_a_one_line_error() {
    for (name, text, fragment) in [
        ("none.json", "{\"stages\": []}\n", "no \"schema\""),
        (
            "unknown.jsonl",
            "{\"schema\":\"wimi-campaign/1\"}\n{}\n",
            "unknown schema \"wimi-campaign/1\"",
        ),
    ] {
        let path = write_temp(name, text);
        let out = run(&["artifact", "validate", path.to_str().unwrap_or_default()]);
        fs::remove_file(&path).ok();
        let err = one_line_failure(&out);
        assert!(err.contains(fragment), "{name}: {err}");
    }
}

#[test]
fn unreadable_files_and_bad_usage_exit_two() {
    let missing = "/nonexistent/nope.jsonl";
    for args in [
        vec!["artifact", "validate", missing],
        vec!["artifact", "diff", missing, missing],
        vec!["artifact", "budget", missing, missing],
        vec!["artifact", "frobnicate", missing],
        vec!["artifact", "validate"],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}

#[test]
fn trace_validate_prints_the_summary_and_budgets_gate_it() {
    let path = write_temp("trace.jsonl", &trace());
    let trace_path = path.to_str().unwrap_or_default();
    let out = run(&["artifact", "validate", trace_path]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("valid: "), "{stdout}");
    assert!(
        stdout.contains("wimi-trace/1: 1 tasks, 1 events"),
        "{stdout}"
    );
    assert!(stdout.contains("events by type:"), "{stdout}");

    let within = write_temp(
        "bench-ok.json",
        "{\"work_budgets\": {\"trace_events\": 1, \"captures_taken\": 3}}",
    );
    let over = write_temp(
        "bench-over.json",
        "{\"work_budgets\": {\"captures_taken\": 2}}",
    );
    let out = run(&[
        "artifact",
        "budget",
        within.to_str().unwrap_or_default(),
        trace_path,
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = run(&[
        "artifact",
        "budget",
        over.to_str().unwrap_or_default(),
        trace_path,
    ]);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("OVER BUDGET"),
        "{out:?}"
    );
    one_line_failure(&out);

    let out = run(&["artifact", "diff", trace_path, trace_path]);
    assert!(out.status.success(), "{out:?}");
    for p in [&path, &within, &over] {
        fs::remove_file(p).ok();
    }
}
