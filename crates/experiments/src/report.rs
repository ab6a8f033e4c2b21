//! Result output: artifact files and paper-vs-measured claim
//! bookkeeping.

use psc_telemetry::write_file;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Write a result artifact (CSV, text table) as `dir/name`, creating
/// `dir` if needed.
pub fn write_artifact(dir: &Path, name: &str, content: &str) -> PathBuf {
    let path = dir.join(name);
    write_file(&path, content).unwrap_or_else(|e| panic!("{e}"));
    path
}

/// One paper-vs-measured comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Claim {
    /// Short identifier, e.g. `"cg-gear2-savings"`.
    pub id: String,
    /// What the paper reports.
    pub paper: String,
    /// What we measured.
    pub measured: String,
    /// Whether the measured value is within the acceptance band.
    pub pass: bool,
}

impl Claim {
    /// Compare a measured value against a paper value within a
    /// relative-or-absolute tolerance band.
    pub fn numeric(
        id: impl Into<String>,
        paper_value: f64,
        measured_value: f64,
        rel_tol: f64,
        abs_tol: f64,
    ) -> Claim {
        let err = (measured_value - paper_value).abs();
        let pass = err <= abs_tol || err <= rel_tol * paper_value.abs();
        Claim {
            id: id.into(),
            paper: format!("{paper_value:.3}"),
            measured: format!("{measured_value:.3}"),
            pass,
        }
    }

    /// A boolean (shape/ordering) claim.
    pub fn boolean(id: impl Into<String>, description: &str, holds: bool) -> Claim {
        Claim {
            id: id.into(),
            paper: description.to_string(),
            measured: if holds { "holds" } else { "VIOLATED" }.to_string(),
            pass: holds,
        }
    }
}

/// Render a claim table and return `(text, all_passed)`.
pub fn render_claims(title: &str, claims: &[Claim]) -> (String, bool) {
    let mut s = format!("== {title} ==\n");
    let wid = claims.iter().map(|c| c.id.len()).max().unwrap_or(4).max(4);
    let wp = claims.iter().map(|c| c.paper.len()).max().unwrap_or(5).max(5);
    s.push_str(&format!("{:<wid$}  {:<wp$}  {:<12}  ok\n", "id", "paper", "measured"));
    let mut all = true;
    for c in claims {
        all &= c.pass;
        s.push_str(&format!(
            "{:<wid$}  {:<wp$}  {:<12}  {}\n",
            c.id,
            c.paper,
            c.measured,
            if c.pass { "✓" } else { "✗" }
        ));
    }
    (s, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_claim_tolerances() {
        assert!(Claim::numeric("a", 0.10, 0.11, 0.15, 0.0).pass);
        assert!(!Claim::numeric("b", 0.10, 0.15, 0.15, 0.0).pass);
        assert!(Claim::numeric("c", 0.0, 0.005, 0.0, 0.01).pass);
    }

    #[test]
    fn render_reports_failures() {
        let claims = vec![
            Claim::numeric("ok", 1.0, 1.0, 0.1, 0.0),
            Claim::boolean("bad", "should hold", false),
        ];
        let (text, all) = render_claims("t", &claims);
        assert!(!all);
        assert!(text.contains('✗'));
        assert!(text.contains("VIOLATED"));
    }

    #[test]
    fn artifacts_written_to_results_dir() {
        let dir = std::env::temp_dir().join("psc-report-artifact-test");
        let _ = std::fs::remove_dir_all(&dir);
        let p = write_artifact(&dir, "probe.txt", "hello");
        assert_eq!(p, dir.join("probe.txt"));
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
