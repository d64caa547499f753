//! The `wimi-trace/1` JSONL artifact: rendering a flushed [`TraceLog`]
//! to text and parsing/validating artifacts back.
//!
//! Layout (one JSON object per line):
//!
//! ```text
//! {"schema":"wimi-trace/1","tasks":3,"events":41,"events_emitted":41,"failures":0,"tasks_truncated":0}
//! {"task":"run","seq":0,"ev":"count","counter":"captures_taken","delta":1}
//! ...
//! {"obs":{...embedded wimi-obs/1 snapshot...}}
//! ```
//!
//! Every field is written in a fixed order with fixed formatting, so a
//! deterministic [`TraceLog`] renders to byte-identical text — `diff`
//! between `WIMI_THREADS` settings is a plain string comparison.

use std::fmt::Write as _;

use wimi_obs::artifact::{expect_schema, str_field, u64_field};
use wimi_obs::json::{self, Json};
use wimi_obs::{CounterId, IssueId, StageId};

use crate::event::{Ctx, TraceEvent};
use crate::sink::TraceLog;

/// Schema identifier stamped into every artifact header.
pub const SCHEMA: &str = "wimi-trace/1";

/// Parsed header line of an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Task streams in the artifact.
    pub tasks: u64,
    /// Event lines in the artifact.
    pub events: u64,
    /// Emissions attempted at the sink (≥ `events` when rings dropped).
    pub events_emitted: u64,
    /// Hard measurement failures marked on the sink.
    pub failures: u64,
    /// Task streams cut by the flush bound.
    pub tasks_truncated: u64,
}

/// One parsed event line.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLine {
    /// 1-based line number in the artifact.
    pub line_no: usize,
    /// Task label (e.g. `"meas:1042"`).
    pub task: String,
    /// Per-task logical clock value.
    pub seq: u64,
    /// Event type name.
    pub ev: String,
    /// The full parsed object, for detail fields.
    pub value: Json,
}

/// Campaign provenance stamped into a per-cell artifact header by the
/// campaign runner, so any cell artifact names the campaign it came from
/// and the derived seed that reproduces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignTag {
    /// Campaign name (as declared in the `.campaign` file).
    pub campaign: String,
    /// Cell index in campaign expansion order.
    pub cell: u64,
    /// The cell's derived root seed.
    pub cell_seed: u64,
}

/// The canonical artifact file name of one campaign cell:
/// `<campaign>-cell-<index, zero-padded to 4>.jsonl`.
pub fn cell_artifact_name(campaign: &str, cell: u64) -> String {
    format!("{campaign}-cell-{cell:04}.jsonl")
}

/// A parsed and semantically validated artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The header line.
    pub header: Header,
    /// Campaign provenance, when the artifact was emitted by a campaign
    /// run (`None` for plain traced experiments).
    pub campaign: Option<CampaignTag>,
    /// All event lines, artifact order.
    pub events: Vec<EventLine>,
    /// The embedded observability snapshot (`Json::Null` when absent).
    pub obs: Json,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_ctx(out: &mut String, ctx: &Ctx) {
    if let Some(p) = ctx.packet {
        let _ = write!(out, ",\"packet\":{p}");
    }
    if let Some(s) = ctx.subcarrier {
        let _ = write!(out, ",\"subcarrier\":{s}");
    }
    if let Some(a) = ctx.antenna {
        let _ = write!(out, ",\"antenna\":{a}");
    }
    if let Some((a, b)) = ctx.pair {
        let _ = write!(out, ",\"pair_a\":{a},\"pair_b\":{b}");
    }
}

fn write_event(out: &mut String, task: &str, seq: u64, ev: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"task\":\"{task}\",\"seq\":{seq},\"ev\":\"{}\"",
        ev.name()
    );
    match ev {
        TraceEvent::Enter { stage } | TraceEvent::Exit { stage } => {
            let _ = write!(out, ",\"stage\":\"{}\"", stage.name());
        }
        TraceEvent::Count { counter, delta } => {
            let _ = write!(out, ",\"counter\":\"{}\",\"delta\":{delta}", counter.name());
        }
        TraceEvent::Issue { issue, count, ctx } => {
            let _ = write!(out, ",\"issue\":\"{}\",\"count\":{count}", issue.name());
            write_ctx(out, ctx);
        }
        TraceEvent::Salvage { action, count } => {
            let _ = write!(out, ",\"action\":\"{}\",\"count\":{count}", esc(action));
        }
        TraceEvent::Attempt { attempt, max } => {
            let _ = write!(out, ",\"attempt\":{attempt},\"max\":{max}");
        }
        TraceEvent::RetriesExhausted { attempts } => {
            let _ = write!(out, ",\"attempts\":{attempts}");
        }
        TraceEvent::Feature {
            pairs,
            gamma_min,
            gamma_max,
            dispersion,
        } => {
            let _ = write!(
                out,
                ",\"pairs\":{pairs},\"gamma_min\":{gamma_min},\"gamma_max\":{gamma_max}"
            );
            if dispersion.is_finite() {
                let _ = write!(out, ",\"dispersion\":{dispersion:.6}");
            } else {
                out.push_str(",\"dispersion\":null");
            }
        }
        TraceEvent::Failed { stage, issue } => {
            let _ = write!(
                out,
                ",\"stage\":\"{}\",\"issue\":\"{}\"",
                stage.name(),
                issue.name()
            );
        }
        TraceEvent::SvmMachine {
            class_a,
            class_b,
            rounds,
        } => {
            let _ = write!(
                out,
                ",\"class_a\":{class_a},\"class_b\":{class_b},\"rounds\":{rounds}"
            );
        }
    }
    out.push_str("}\n");
}

/// Renders a flushed log to `wimi-trace/1` JSONL text. `obs_json`, when
/// given, must be a `wimi-obs/1` snapshot export; it is compacted onto
/// the final line. Equal logs render to byte-identical text.
// wlint: artifact
pub fn render(log: &TraceLog, obs_json: Option<&str>) -> String {
    render_cell(log, obs_json, None)
}

/// Like [`render`], with campaign provenance appended to the header when
/// `tag` is given. [`render`] is `render_cell(log, obs, None)`.
// wlint: artifact
pub fn render_cell(log: &TraceLog, obs_json: Option<&str>, tag: Option<&CampaignTag>) -> String {
    let total_events: usize = log.tasks.iter().map(|t| t.events.len()).sum();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"tasks\":{},\"events\":{},\"events_emitted\":{},\"failures\":{},\"tasks_truncated\":{}",
        log.tasks.len(),
        total_events,
        log.events_emitted,
        log.failures,
        log.tasks_truncated
    );
    if let Some(tag) = tag {
        let _ = write!(
            out,
            ",\"campaign\":\"{}\",\"cell\":{},\"cell_seed\":{}",
            esc(&tag.campaign),
            tag.cell,
            tag.cell_seed
        );
    }
    out.push_str("}\n");
    for stream in &log.tasks {
        let label = stream.key.to_string();
        for (i, ev) in stream.events.iter().enumerate() {
            write_event(&mut out, &label, stream.first_seq + i as u64, ev);
        }
    }
    match obs_json {
        Some(snapshot) => {
            let _ = writeln!(out, "{{\"obs\":{}}}", json::compact(snapshot));
        }
        None => out.push_str("{\"obs\":null}\n"),
    }
    out
}

fn is_number(v: Option<&Json>) -> bool {
    matches!(v, Some(Json::Num { .. }))
}

fn valid_stage(name: &str) -> bool {
    StageId::ALL.iter().any(|s| s.name() == name)
}

fn valid_counter(name: &str) -> bool {
    CounterId::ALL.iter().any(|c| c.name() == name)
}

fn valid_issue(name: &str) -> bool {
    IssueId::ALL.iter().any(|i| i.name() == name)
}

fn check_event_fields(line: &EventLine) -> Result<(), String> {
    let what = format!("line {}", line.line_no);
    let v = &line.value;
    match line.ev.as_str() {
        "enter" | "exit" | "failed" => {
            let stage = str_field(v, "stage", &what)?;
            if !valid_stage(stage) {
                return Err(format!("{what}: unknown stage \"{stage}\""));
            }
            if line.ev == "failed" {
                let issue = str_field(v, "issue", &what)?;
                if !valid_issue(issue) {
                    return Err(format!("{what}: unknown issue \"{issue}\""));
                }
            }
        }
        "count" => {
            let counter = str_field(v, "counter", &what)?;
            if !valid_counter(counter) {
                return Err(format!("{what}: unknown counter \"{counter}\""));
            }
            u64_field(v, "delta", &what)?;
        }
        "issue" => {
            let issue = str_field(v, "issue", &what)?;
            if !valid_issue(issue) {
                return Err(format!("{what}: unknown issue \"{issue}\""));
            }
            u64_field(v, "count", &what)?;
        }
        "salvage" => {
            str_field(v, "action", &what)?;
            u64_field(v, "count", &what)?;
        }
        "attempt" => {
            u64_field(v, "attempt", &what)?;
            u64_field(v, "max", &what)?;
        }
        "retries_exhausted" => {
            u64_field(v, "attempts", &what)?;
        }
        "feature" => {
            u64_field(v, "pairs", &what)?;
            for key in ["gamma_min", "gamma_max"] {
                if !is_number(v.get(key)) {
                    return Err(format!("{what}: \"{key}\" must be a number"));
                }
            }
            match v.get("dispersion") {
                Some(Json::Num { .. } | Json::Null) => {}
                _ => return Err(format!("{what}: \"dispersion\" must be a number or null")),
            }
        }
        "svm_machine" => {
            u64_field(v, "class_a", &what)?;
            u64_field(v, "class_b", &what)?;
            u64_field(v, "rounds", &what)?;
        }
        other => {
            return Err(format!(
                "{what}: unknown event type \"{other}\" (expected one of {:?})",
                TraceEvent::NAMES
            ))
        }
    }
    Ok(())
}

/// Parses and fully validates a `wimi-trace/1` artifact: header schema
/// and counts, per-line structure, known stage/counter/issue names,
/// per-task logical-clock continuity, and the embedded snapshot.
///
/// Truncated input and a mismatched schema version each produce a
/// distinct one-line message, mirroring the `wimi-obs` validator.
pub fn parse_and_validate(text: &str) -> Result<Artifact, String> {
    let mut lines = text.lines().enumerate();
    let Some((_, header_line)) = lines.next() else {
        return Err("truncated artifact: empty input (no header line)".into());
    };
    let header_val = json::parse(header_line).map_err(|e| format!("header line: {e}"))?;
    expect_schema(&header_val, SCHEMA, "artifact")?;
    let header = Header {
        tasks: u64_field(&header_val, "tasks", "header")?,
        events: u64_field(&header_val, "events", "header")?,
        events_emitted: u64_field(&header_val, "events_emitted", "header")?,
        failures: u64_field(&header_val, "failures", "header")?,
        tasks_truncated: u64_field(&header_val, "tasks_truncated", "header")?,
    };
    let campaign = match header_val.get("campaign") {
        None => None,
        Some(_) => Some(CampaignTag {
            campaign: str_field(&header_val, "campaign", "header")?.to_string(),
            cell: u64_field(&header_val, "cell", "header")?,
            cell_seed: u64_field(&header_val, "cell_seed", "header")?,
        }),
    };

    let mut events: Vec<EventLine> = Vec::new();
    let mut obs: Option<Json> = None;
    for (idx, line) in lines {
        let line_no = idx + 1;
        if obs.is_some() {
            return Err(format!(
                "line {line_no}: data after the final {{\"obs\": ...}} line"
            ));
        }
        let value = json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        if let Some(obs_val) = value.get("obs") {
            obs = Some(obs_val.clone());
            continue;
        }
        let what = format!("line {line_no}");
        let task = str_field(&value, "task", &what)?.to_string();
        let seq = u64_field(&value, "seq", &what)?;
        let ev = str_field(&value, "ev", &what)?.to_string();
        events.push(EventLine {
            line_no,
            task,
            seq,
            ev,
            value,
        });
    }
    let Some(obs) = obs else {
        return Err("truncated artifact: missing the final {\"obs\": ...} line".into());
    };

    for line in &events {
        check_event_fields(line)?;
    }

    // Logical-clock continuity: within a task's (contiguous) block, seq
    // advances by exactly 1; a task must not reappear after its block.
    let mut closed: Vec<&str> = Vec::new();
    let mut current: Option<(&str, u64)> = None;
    for line in &events {
        match current {
            Some((task, last_seq)) if task == line.task => {
                if line.seq != last_seq + 1 {
                    return Err(format!(
                        "line {}: task \"{}\" seq jumps {} -> {} (logical clock must advance by 1)",
                        line.line_no, line.task, last_seq, line.seq
                    ));
                }
                current = Some((task, line.seq));
            }
            other => {
                if let Some((task, _)) = other {
                    closed.push(task);
                }
                if closed.contains(&line.task.as_str()) {
                    return Err(format!(
                        "line {}: task \"{}\" reappears after its block ended",
                        line.line_no, line.task
                    ));
                }
                current = Some((&line.task, line.seq));
            }
        }
    }
    let task_count = closed.len() + usize::from(current.is_some());
    if events.len() as u64 != header.events {
        return Err(format!(
            "header declares {} events but the artifact has {}",
            header.events,
            events.len()
        ));
    }
    if task_count as u64 != header.tasks {
        return Err(format!(
            "header declares {} tasks but the artifact has {task_count}",
            header.tasks
        ));
    }
    if header.events_emitted < header.events {
        return Err(format!(
            "header events_emitted {} < events {} (rings can only drop, not invent)",
            header.events_emitted, header.events
        ));
    }

    if !matches!(obs, Json::Null) {
        wimi_obs::validate_value(&obs).map_err(|e| format!("embedded obs snapshot: {e}"))?;
    }

    Ok(Artifact {
        header,
        campaign,
        events,
        obs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TaskKey;
    use crate::sink::TraceSink;
    use wimi_obs::Recorder;

    fn sample_log() -> TraceLog {
        let sink = TraceSink::enabled();
        {
            let _span = sink.span(StageId::Capture);
            sink.emit(TraceEvent::Count {
                counter: CounterId::CapturesTaken,
                delta: 1,
            });
        }
        {
            let _scope = crate::sink::task_scope(TaskKey::measurement(11));
            sink.emit(TraceEvent::Attempt { attempt: 1, max: 4 });
            sink.emit(TraceEvent::Issue {
                issue: IssueId::DeadAntenna,
                count: 1,
                ctx: Ctx::pair(0, 2),
            });
            sink.emit(TraceEvent::Salvage {
                action: "drop_dead_antenna",
                count: 1,
            });
            sink.emit(TraceEvent::Feature {
                pairs: 3,
                gamma_min: -1,
                gamma_max: 0,
                dispersion: 0.034,
            });
        }
        {
            let _scope = crate::sink::task_scope(TaskKey::svm_machine(0, 1));
            sink.emit(TraceEvent::SvmMachine {
                class_a: 0,
                class_b: 1,
                rounds: 12,
            });
        }
        sink.flush()
    }

    #[test]
    fn render_then_validate_roundtrips() {
        let obs = Recorder::enabled().snapshot().to_json();
        let text = render(&sample_log(), Some(&obs));
        let artifact = parse_and_validate(&text).unwrap();
        assert_eq!(artifact.header.tasks, 3);
        assert_eq!(artifact.header.events, 8);
        assert_eq!(artifact.header.events_emitted, 8);
        assert!(!matches!(artifact.obs, Json::Null));
    }

    #[test]
    fn render_without_obs_embeds_null() {
        let text = render(&sample_log(), None);
        let artifact = parse_and_validate(&text).unwrap();
        assert!(matches!(artifact.obs, Json::Null));
    }

    #[test]
    fn equal_logs_render_identically() {
        let obs = Recorder::enabled().snapshot().to_json();
        assert_eq!(
            render(&sample_log(), Some(&obs)),
            render(&sample_log(), Some(&obs))
        );
    }

    #[test]
    fn validator_flags_schema_mismatch_with_one_line_message() {
        let text = render(&sample_log(), None).replace("wimi-trace/1", "wimi-trace/2");
        let err = parse_and_validate(&text).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");
        assert!(err.contains("wimi-trace/2"), "{err}");
        assert!(!err.contains('\n'), "{err}");
    }

    #[test]
    fn validator_flags_truncated_artifact() {
        let full = render(&sample_log(), None);
        // Cut off the trailing obs line entirely.
        let without_obs: String = full
            .lines()
            .filter(|l| !l.starts_with("{\"obs\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = parse_and_validate(&without_obs).unwrap_err();
        assert!(err.starts_with("truncated artifact"), "{err}");
        // Cut mid-line (after `{"obs":`): the JSON parser reports
        // truncation because input ends where a value must start.
        let cut = &full[..full.len() - 6];
        let err = parse_and_validate(cut).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        assert!(parse_and_validate("").is_err());
    }

    #[test]
    fn validator_flags_seq_gaps_and_unknown_names() {
        let good = render(&sample_log(), None);
        let gap = good.replacen(
            "\"seq\":1,\"ev\":\"count\"",
            "\"seq\":7,\"ev\":\"count\"",
            1,
        );
        let err = parse_and_validate(&gap).unwrap_err();
        assert!(err.contains("logical clock"), "{err}");
        let bad_stage = good.replacen("\"stage\":\"capture\"", "\"stage\":\"warp\"", 1);
        assert!(parse_and_validate(&bad_stage).is_err());
        let bad_ev = good.replacen("\"ev\":\"attempt\"", "\"ev\":\"attack\"", 1);
        assert!(parse_and_validate(&bad_ev).is_err());
    }

    #[test]
    fn validator_checks_header_counts() {
        let good = render(&sample_log(), None);
        let bad = good.replacen("\"events\":8", "\"events\":9", 1);
        let err = parse_and_validate(&bad).unwrap_err();
        assert!(err.contains("declares 9 events"), "{err}");
        let bad = good.replacen("\"tasks\":3", "\"tasks\":2", 1);
        assert!(parse_and_validate(&bad).is_err());
    }

    #[test]
    fn campaign_tag_roundtrips_through_header() {
        let tag = CampaignTag {
            campaign: "matrix".to_owned(),
            cell: 17,
            cell_seed: 0xDEAD_BEEF,
        };
        let text = render_cell(&sample_log(), None, Some(&tag));
        let artifact = parse_and_validate(&text).unwrap();
        assert_eq!(artifact.campaign, Some(tag));
        // Plain renders carry no tag, and parse as such.
        let plain = parse_and_validate(&render(&sample_log(), None)).unwrap();
        assert_eq!(plain.campaign, None);
        // A tag present without its cell fields is rejected.
        let bad = text.replacen(",\"cell\":17", "", 1);
        let err = parse_and_validate(&bad).unwrap_err();
        assert!(err.contains("cell"), "{err}");
        assert!(!err.contains('\n'), "{err}");
    }

    #[test]
    fn cell_artifact_names_are_zero_padded() {
        assert_eq!(cell_artifact_name("matrix", 7), "matrix-cell-0007.jsonl");
        assert_eq!(cell_artifact_name("m", 12345), "m-cell-12345.jsonl");
    }

    #[test]
    fn validator_checks_embedded_snapshot() {
        let obs = Recorder::enabled().snapshot().to_json();
        let text = render(&sample_log(), Some(&obs)).replace("wimi-obs/1", "wimi-obs/3");
        let err = parse_and_validate(&text).unwrap_err();
        assert!(err.contains("embedded obs snapshot"), "{err}");
        assert!(err.contains("wimi-obs/3"), "{err}");
    }
}
