//! Property test for the `artifact` dispatcher: byte mutations of valid
//! `wimi-obs/1`, `wimi-trace/1`, `wimi-metrics/1` and `wimi-serve/1`
//! artifacts never panic `validate` or `budget` — every outcome is `Ok`
//! or a one-line `Err`.

use std::sync::OnceLock;

use proptest::prelude::*;

use wimi_experiments::artifact::{budget, validate};
use wimi_obs::{CounterId, IssueId, Recorder, StageId};
use wimi_serve::{run_fleet, summary_json, FleetConfig};
use wimi_trace::{task_scope, Ctx, TaskKey, TraceEvent, TraceSink};

const BENCH: &str = r#"{"work_budgets": {"trace_events": 9, "captures_taken": 9},
 "metrics_budgets": {"queue_peak": 9}, "fleet_budgets": {"requests": 9}}"#;

/// One valid artifact of each schema, built once.
fn artifacts() -> &'static [String; 4] {
    static ARTIFACTS: OnceLock<[String; 4]> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let rec = Recorder::enabled();
        rec.add(CounterId::CapturesTaken, 2);
        rec.record_gamma(1);
        let obs = rec.snapshot().to_json();
        let sink = TraceSink::enabled();
        {
            let _task = task_scope(TaskKey::measurement(5));
            let _span = sink.span(StageId::Screening);
            sink.emit(TraceEvent::Issue {
                issue: IssueId::ShortCapture,
                count: 1,
                ctx: Ctx::packet(3),
            });
        }
        let trace = wimi_trace::artifact::render(&sink.flush(), Some(&obs));
        let fleet = run_fleet(&FleetConfig {
            sessions: 3,
            measurements: 2,
            packets: 8,
            ..FleetConfig::default()
        });
        let timeline =
            wimi_metrics::render(&fleet.timeline, Some(&fleet.engine_snapshot.to_json()));
        [obs, trace, timeline, summary_json(&fleet)]
    })
}

proptest! {
    #[test]
    fn mutated_artifacts_never_panic_the_dispatcher(
        pos in 0usize..1 << 20,
        byte in 0u32..256,
        cut in 0usize..1 << 20,
    ) {
        for text in artifacts() {
            prop_assert!(validate(text).is_ok(), "unmutated artifact must validate");
            let mut bytes = text.clone().into_bytes();
            let i = pos % bytes.len();
            bytes[i] = byte as u8;
            let mutated = String::from_utf8_lossy(&bytes).into_owned();
            // A mutation, and the same text cut short at a char boundary.
            let end = (0..=cut % mutated.len())
                .rev()
                .find(|&k| mutated.is_char_boundary(k))
                .unwrap_or(0);
            for candidate in [&mutated[..], &mutated[..end]] {
                for outcome in [validate(candidate), budget(BENCH, candidate).map(|_| String::new())] {
                    if let Err(e) = outcome {
                        prop_assert!(!e.contains('\n'), "multi-line error: {e:?}");
                    }
                }
            }
        }
    }
}
