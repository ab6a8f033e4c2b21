//! Findings, severities, and the two output formats.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a finding is. Both severities fail `--deny`; the split
/// exists so reports can rank hard determinism breaks above
/// conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// A convention or hygiene violation (unit suffixes).
    Warning,
    /// A correctness hazard: nondeterminism or a stale-cache bug.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One diagnostic: a rule violation at a `file:line`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Rule id, e.g. `R001`.
    pub rule: String,
    /// Severity class.
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message, including the offending name.
    pub message: String,
}

impl Finding {
    /// Build a finding for `rule` at `file:line`.
    pub fn new(
        rule: &str,
        severity: Severity,
        file: &str,
        line: u32,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            rule: rule.to_string(),
            severity,
            file: file.to_string(),
            line,
            message: message.into(),
        }
    }

    /// The canonical one-line text rendering.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}: {}", self.file, self.line, self.rule, self.severity, self.message)
    }
}

/// A full report: the findings no pragma suppressed, sorted by
/// `(file, line, rule)`. Every one of them fails `--deny`.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// The findings (the JSON key `fresh` predates pragma-only
    /// suppression and is kept for consumers of `--format json`).
    pub fresh: Vec<Finding>,
}

impl Report {
    /// Sort `findings` into a report.
    pub fn new(mut findings: Vec<Finding>) -> Self {
        findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        Report { fresh: findings }
    }

    /// Text rendering: one line per finding plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.fresh {
            out.push_str(&f.render());
            out.push('\n');
        }
        out.push_str(&format!("psc-analyze: {} finding(s)\n", self.fresh.len()));
        out
    }

    /// Machine-readable rendering (`--format json`).
    pub fn render_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_sorts_by_file_then_line() {
        let findings = vec![
            Finding::new("R001", Severity::Error, "z.rs", 1, "clock"),
            Finding::new("U001", Severity::Warning, "a.rs", 9, "suffix"),
            Finding::new("S001", Severity::Error, "a.rs", 2, "cluster"),
        ];
        let r = Report::new(findings);
        let order: Vec<(&str, u32)> = r.fresh.iter().map(|f| (f.file.as_str(), f.line)).collect();
        assert_eq!(order, [("a.rs", 2), ("a.rs", 9), ("z.rs", 1)]);
        assert!(r.render_text().ends_with("psc-analyze: 3 finding(s)\n"));
    }

    #[test]
    fn finding_renders_file_line_rule() {
        let f = Finding::new(
            "C001",
            Severity::Error,
            "crates/runner/src/engine.rs",
            110,
            "field `x` missing",
        );
        assert_eq!(f.render(), "crates/runner/src/engine.rs:110: [C001] error: field `x` missing");
    }
}
