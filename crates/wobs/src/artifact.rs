//! Shared artifact tooling on top of [`crate::json`], used by every
//! versioned artifact schema (`wimi-obs/1`, `wimi-trace/1`,
//! `wimi-metrics/1`, `wimi-serve/1`):
//!
//! * typed field access with one error wording per failure class;
//! * the first-divergence line [`diff`] CI runs across thread counts;
//! * the fail-closed [`check_budgets`] gate over a committed bench
//!   summary, plus its [`budget_table`] rendering.

use std::fmt::Write as _;

use crate::json::{self, Json};

/// The entry list of `v` when it is an object.
pub fn obj<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Json::Obj(o) => Ok(o),
        _ => Err(format!("{what} must be a JSON object")),
    }
}

/// Requires an object's keys to be exactly `want`, in order.
pub fn expect_keys(obj: &[(String, Json)], want: &[&str], what: &str) -> Result<(), String> {
    let found: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    if found != want {
        return Err(format!(
            "{what} keys must be exactly {want:?} in order, found {found:?}"
        ));
    }
    Ok(())
}

/// The non-negative integer field `key` of `v`.
pub fn u64_field(v: &Json, key: &str, what: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: \"{key}\" must be a non-negative integer"))
}

/// The string field `key` of `v`.
pub fn str_field<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}: \"{key}\" must be a string"))
}

/// Requires `v` (a JSONL header line or a whole JSON document) to carry
/// `"schema": schema`. A different version is reported as a *version
/// mismatch* quoting both tags, distinct from a missing tag.
pub fn expect_schema(v: &Json, schema: &str, what: &str) -> Result<(), String> {
    match v.get("schema").and_then(Json::as_str) {
        Some(s) if s == schema => Ok(()),
        Some(s) => Err(format!(
            "schema version mismatch: {what} declares \"{s}\" but this validator understands \"{schema}\""
        )),
        None => Err(format!("{what}: \"schema\" must be the string \"{schema}\"")),
    }
}

/// Outcome of diffing two artifacts line-by-line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOutcome {
    /// The artifacts are byte-identical.
    Identical,
    /// The artifacts first differ at 1-based `line_no`.
    Diverged {
        /// First differing line (1-based).
        line_no: usize,
        /// A human-readable report: the diverging line from each side
        /// plus surrounding context.
        report: String,
    },
}

/// Compares two artifacts and reports the first diverging line with
/// surrounding context. A missing line on one side (different lengths)
/// also counts as divergence.
pub fn diff(a: &str, b: &str) -> DiffOutcome {
    if a == b {
        return DiffOutcome::Identical;
    }
    let a_lines: Vec<&str> = a.lines().collect();
    let b_lines: Vec<&str> = b.lines().collect();
    let n = a_lines.len().max(b_lines.len());
    for i in 0..n {
        let la = a_lines.get(i).copied();
        let lb = b_lines.get(i).copied();
        if la == lb {
            continue;
        }
        let mut report = String::new();
        let _ = writeln!(report, "first divergence at line {}:", i + 1);
        let ctx_start = i.saturating_sub(2);
        for j in ctx_start..i {
            if let Some(l) = a_lines.get(j) {
                let _ = writeln!(report, "  {:>5}   {l}", j + 1);
            }
        }
        let _ = writeln!(
            report,
            "  {:>5} A {}",
            i + 1,
            la.unwrap_or("<end of artifact>")
        );
        let _ = writeln!(
            report,
            "  {:>5} B {}",
            i + 1,
            lb.unwrap_or("<end of artifact>")
        );
        for j in (i + 1)..(i + 3) {
            match (a_lines.get(j), b_lines.get(j)) {
                (Some(l), _) | (None, Some(l)) => {
                    let _ = writeln!(report, "  {:>5}   {l}", j + 1);
                }
                (None, None) => break,
            }
        }
        return DiffOutcome::Diverged {
            line_no: i + 1,
            report,
        };
    }
    // Unreachable in practice (a != b implies some line differs), but
    // stay panic-free and conservative.
    DiffOutcome::Diverged {
        line_no: 0,
        report: "artifacts differ only in trailing whitespace".into(),
    }
}

/// One budget comparison row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetRow {
    /// Gated value's name.
    pub name: String,
    /// Actual value measured from the run or artifact.
    pub actual: u64,
    /// Committed ceiling from the bench summary.
    pub budget: u64,
    /// Whether `actual` stayed within `budget`.
    pub ok: bool,
}

/// Checks deterministic values against the `section` object of a
/// committed bench summary; `lookup` maps a budget name to the value it
/// gates. Fail-closed: a missing or empty section, a budget that is not a
/// non-negative integer, or a name `lookup` does not know (a renamed
/// value must not silently stop gating) is an error, not a skip.
/// Exceeding a ceiling yields a row with `ok == false`.
pub fn check_budgets(
    bench_json: &str,
    section: &str,
    lookup: impl Fn(&str) -> Option<u64>,
) -> Result<Vec<BudgetRow>, String> {
    let bench = json::parse(bench_json).map_err(|e| format!("bench summary: {e}"))?;
    let Some(Json::Obj(budgets)) = bench.get(section) else {
        return Err(format!("bench summary has no \"{section}\" object"));
    };
    if budgets.is_empty() {
        return Err(format!("\"{section}\" is empty — nothing to gate on"));
    }
    budgets
        .iter()
        .map(|(name, value)| {
            let budget = value
                .as_u64()
                .ok_or_else(|| format!("budget \"{name}\" must be a non-negative integer"))?;
            let actual = lookup(name).ok_or_else(|| {
                format!("budget \"{name}\" in \"{section}\" matches no gated value (renamed or removed?)")
            })?;
            Ok(BudgetRow {
                name: name.clone(),
                actual,
                budget,
                ok: actual <= budget,
            })
        })
        .collect()
}

/// Renders budget rows as a fixed-width table, one row per line.
pub fn budget_table(rows: &[BudgetRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>12}  status",
        "work counter", "actual", "budget"
    );
    for row in rows {
        let status = if row.ok { "ok" } else { "OVER BUDGET" };
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12}  {status}",
            row.name, row.actual, row.budget
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARTIFACT: &str = "{\"schema\":\"x/1\",\"n\":3}\n\
                            {\"seq\":0,\"ev\":\"attempt\",\"attempt\":1}\n\
                            {\"seq\":1,\"ev\":\"attempt\",\"attempt\":2}\n\
                            {\"seq\":2,\"ev\":\"failed\"}\n\
                            {\"obs\":null}\n";

    #[test]
    fn field_helpers_name_each_failure_class() {
        let v = json::parse("{\"schema\": \"x/1\", \"n\": 3, \"s\": \"a\", \"f\": 1.5}").unwrap();
        assert_eq!(u64_field(&v, "n", "hdr"), Ok(3));
        assert_eq!(str_field(&v, "s", "hdr"), Ok("a"));
        assert_eq!(
            u64_field(&v, "f", "hdr").unwrap_err(),
            "hdr: \"f\" must be a non-negative integer"
        );
        assert_eq!(
            str_field(&v, "n", "hdr").unwrap_err(),
            "hdr: \"n\" must be a string"
        );
        assert!(expect_keys(obj(&v, "hdr").unwrap(), &["schema", "n", "s", "f"], "hdr").is_ok());
        let err = expect_keys(obj(&v, "hdr").unwrap(), &["schema", "s"], "hdr").unwrap_err();
        assert!(err.starts_with("hdr keys must be exactly"), "{err}");
        assert_eq!(
            obj(&Json::Null, "row").unwrap_err(),
            "row must be a JSON object"
        );
        assert!(expect_schema(&v, "x/1", "hdr").is_ok());
        let err = expect_schema(&v, "x/2", "hdr").unwrap_err();
        assert!(err.starts_with("schema version mismatch"), "{err}");
        assert!(err.contains("\"x/1\"") && err.contains("\"x/2\""), "{err}");
        let err = expect_schema(&Json::Null, "x/2", "hdr").unwrap_err();
        assert_eq!(err, "hdr: \"schema\" must be the string \"x/2\"");
    }

    #[test]
    fn diff_identical_artifacts() {
        assert_eq!(diff(ARTIFACT, ARTIFACT), DiffOutcome::Identical);
    }

    #[test]
    fn diff_reports_first_divergence_with_context() {
        let b = ARTIFACT.replacen("\"attempt\":2", "\"attempt\":3", 1);
        match diff(ARTIFACT, &b) {
            DiffOutcome::Diverged { line_no, report } => {
                assert_eq!(line_no, 3);
                assert!(report.contains("first divergence"), "{report}");
                assert!(report.contains(" A "), "{report}");
                assert!(report.contains(" B "), "{report}");
            }
            DiffOutcome::Identical => panic!("must diverge"),
        }
    }

    #[test]
    fn diff_handles_length_mismatch() {
        let b: String = ARTIFACT.lines().take(3).map(|l| format!("{l}\n")).collect();
        match diff(ARTIFACT, &b) {
            DiffOutcome::Diverged { report, .. } => {
                assert!(report.contains("<end of artifact>"), "{report}");
            }
            DiffOutcome::Identical => panic!("must diverge"),
        }
    }

    #[test]
    fn budget_gate_is_fail_closed() {
        let lookup = |name: &str| match name {
            "captures" => Some(10),
            "events" => Some(0),
            _ => None,
        };
        // (bench summary, expected outcome: Ok(rows over budget) or an
        // error fragment).
        let cases: [(&str, Result<usize, &str>); 9] = [
            (r#"{"b": {"captures": 10, "events": 0}}"#, Ok(0)),
            (r#"{"b": {"captures": 9}}"#, Ok(1)),
            (r#"{"b": {"captures": 9, "events": 0}}"#, Ok(1)),
            (r#"{"other": {"captures": 10}}"#, Err("no \"b\" object")),
            (r#"{"b": []}"#, Err("no \"b\" object")),
            (r#"{"b": {}}"#, Err("\"b\" is empty")),
            (r#"{"b": {"captures": -3}}"#, Err("non-negative integer")),
            (r#"{"b": {"captures": 2.5}}"#, Err("non-negative integer")),
            (r#"{"b": {"warp_cores": 1}}"#, Err("matches no gated value")),
        ];
        for (bench, want) in cases {
            match (check_budgets(bench, "b", lookup), want) {
                (Ok(rows), Ok(over)) => {
                    assert_eq!(rows.iter().filter(|r| !r.ok).count(), over, "{bench}");
                    assert_eq!(rows[0].name, "captures");
                    assert_eq!(rows[0].actual, 10);
                }
                (Err(e), Err(fragment)) => {
                    assert!(e.contains(fragment), "{bench}: {e}");
                    assert!(!e.contains('\n'), "{bench}: {e}");
                }
                (got, want) => panic!("{bench}: got {got:?}, want {want:?}"),
            }
        }
        assert!(check_budgets("{", "b", lookup)
            .unwrap_err()
            .starts_with("bench summary: truncated JSON"));
    }

    #[test]
    fn budget_table_flags_rows_over_budget() {
        let rows = check_budgets(r#"{"b": {"captures": 9}}"#, "b", |_| Some(10)).unwrap();
        let table = budget_table(&rows);
        assert!(table.starts_with("work counter"), "{table}");
        assert!(table.contains("OVER BUDGET"), "{table}");
    }
}
