//! One-page digest of a completed reproduction: reads the CSVs the
//! figures wrote into the results directory and reports the
//! cross-cutting numbers (per-benchmark best gears, savings, the case
//! taxonomy, and EDP winners).

use super::{Campaign, Report};
use crate::report::Claim;
use psc_analysis::cases::classify_pair;
use psc_analysis::curve::EnergyTimeCurve;
use psc_analysis::metrics::{best_ed2p_gear, best_edp_gear};
use psc_analysis::plot::from_csv;
use std::path::Path;

fn load(dir: &Path, name: &str) -> Option<Vec<EnergyTimeCurve>> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path).ok()?;
    match from_csv(&text) {
        Ok(curves) => Some(curves),
        Err(e) => {
            eprintln!("warning: {} is malformed: {e}", path.display());
            None
        }
    }
}

/// The digest of `fig1.csv`, `fig2.csv` and `fig5.csv`, printed and
/// written to `summary.txt`; its one claim fails when none of them is
/// there.
pub(super) fn summary(c: &Campaign) -> Report {
    let mut s = String::new();
    let mut found_any = false;

    if let Some(curves) = load(&c.dir, "fig1.csv") {
        found_any = true;
        s.push_str("Single-node energy-time tradeoff (from fig1.csv):\n\n");
        s += &format!(
            "{:<11} {:>9} {:>9} {:>10} {:>9} {:>9}\n",
            "benchmark", "min-E gear", "savings", "delay", "EDP gear", "ED²P gear"
        );
        for c in &curves {
            let g = c.min_energy_gear();
            s += &format!(
                "{:<11} {:>9} {:>8.1}% {:>9.1}% {:>9} {:>9}\n",
                c.label,
                g,
                100.0 * c.savings(g).unwrap_or(0.0),
                100.0 * c.delay(g).unwrap_or(0.0),
                best_edp_gear(c),
                best_ed2p_gear(c),
            );
        }
        s.push('\n');
    }

    if let Some(curves) = load(&c.dir, "fig2.csv") {
        found_any = true;
        s.push_str("Node-scaling cases (from fig2.csv):\n\n");
        let mut labels: Vec<String> = curves.iter().map(|c| c.label.clone()).collect();
        labels.dedup();
        for label in labels {
            let mut of_label: Vec<&EnergyTimeCurve> =
                curves.iter().filter(|c| c.label == label).collect();
            of_label.sort_by_key(|c| c.nodes);
            for pair in of_label.windows(2) {
                s += &format!(
                    "  {:<10} {:>2} → {:>2} nodes: {:?}\n",
                    label,
                    pair[0].nodes,
                    pair[1].nodes,
                    classify_pair(pair[0], pair[1])
                );
            }
        }
        s.push('\n');
    }

    if let Some(curves) = load(&c.dir, "fig5.csv") {
        found_any = true;
        s.push_str("Extrapolated minimum-energy gears (from fig5.csv):\n\n");
        let mut labels: Vec<String> = curves.iter().map(|c| c.label.clone()).collect();
        labels.sort();
        labels.dedup();
        for label in labels.iter().filter(|l| l.contains("(model)")) {
            let gears: Vec<(usize, usize)> = curves
                .iter()
                .filter(|c| &c.label == label)
                .map(|c| (c.nodes, c.min_energy_gear()))
                .collect();
            s += &format!("  {:<14} {:?}\n", label, gears);
        }
        s.push('\n');
    }

    print!("{s}");
    let claims = vec![Claim::boolean(
        "summary-has-inputs",
        "fig1.csv, fig2.csv or fig5.csv is in the results directory",
        found_any,
    )];
    let files = if found_any { vec![("summary.txt", s)] } else { Vec::new() };
    Report { files, claims }
}
