//! Terminal plotting and CSV output for energy-time curves.
//!
//! The paper campaign prints each figure as an ASCII scatter plot
//! (energy on the y-axis, time on the x-axis, one glyph per node-count
//! curve — the layout of the paper's figures) and writes a CSV next to
//! it for external plotting.

use crate::curve::EnergyTimeCurve;
use std::fmt::Write as _;

/// Render a set of curves as an ASCII energy-vs-time scatter plot.
///
/// `width`/`height` are the plot body dimensions in characters. Each
/// curve gets a distinct glyph; points annotate gear numbers when the
/// cell is free.
pub fn ascii_plot(curves: &[EnergyTimeCurve], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 8, "plot too small to be legible");
    let pts: Vec<(f64, f64)> =
        curves.iter().flat_map(|c| c.points.iter().map(|p| (p.time_s, p.energy_j))).collect();
    if pts.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut tmin, mut tmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut emin, mut emax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(t, e) in &pts {
        tmin = tmin.min(t);
        tmax = tmax.max(t);
        emin = emin.min(e);
        emax = emax.max(e);
    }
    // Pad ranges so extreme points do not sit on the border.
    let tpad = ((tmax - tmin) * 0.05).max(tmax * 1e-6).max(1e-12);
    let epad = ((emax - emin) * 0.05).max(emax * 1e-6).max(1e-12);
    tmin -= tpad;
    tmax += tpad;
    emin -= epad;
    emax += epad;

    const GLYPHS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];
    let mut grid = vec![vec![' '; width]; height];
    for (ci, c) in curves.iter().enumerate() {
        let glyph = GLYPHS[ci % GLYPHS.len()];
        for p in &c.points {
            let col = (((p.time_s - tmin) / (tmax - tmin)) * (width - 1) as f64).round() as usize;
            let row =
                (((p.energy_j - emin) / (emax - emin)) * (height - 1) as f64).round() as usize;
            let row = height - 1 - row; // y grows upward
            grid[row.min(height - 1)][col.min(width - 1)] = glyph;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "  energy [J] ({emax:.0} top, {emin:.0} bottom)");
    for row in &grid {
        let line: String = row.iter().collect();
        let _ = writeln!(out, "  |{line}|");
    }
    let _ = writeln!(out, "  +{}+", "-".repeat(width));
    let _ = writeln!(out, "   time [s]: {tmin:.1} .. {tmax:.1}");
    for (ci, c) in curves.iter().enumerate() {
        let _ = writeln!(
            out,
            "   {} {} on {} node{}",
            GLYPHS[ci % GLYPHS.len()],
            c.label,
            c.nodes,
            if c.nodes == 1 { "" } else { "s" }
        );
    }
    out
}

/// Serialize curves to CSV: `label,nodes,gear,time_s,energy_j`.
pub fn to_csv(curves: &[EnergyTimeCurve]) -> String {
    let mut s = String::from("label,nodes,gear,time_s,energy_j\n");
    for c in curves {
        for p in &c.points {
            let _ = writeln!(s, "{},{},{},{},{}", c.label, c.nodes, p.gear, p.time_s, p.energy_j);
        }
    }
    s
}

/// Parse curves back from the CSV produced by [`to_csv`] (used by tests
/// and by downstream tooling that post-processes experiment output).
pub fn from_csv(csv: &str) -> Result<Vec<EnergyTimeCurve>, String> {
    use crate::curve::EnergyTimePoint;
    let mut curves: Vec<EnergyTimeCurve> = Vec::new();
    for (lineno, line) in csv.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 5 {
            return Err(format!("line {}: expected 5 fields, got {}", lineno + 1, parts.len()));
        }
        let parse = |s: &str| s.parse::<f64>().map_err(|e| format!("line {}: {e}", lineno + 1));
        let nodes: usize = parts[1].parse().map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let gear: usize = parts[2].parse().map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let point = EnergyTimePoint { gear, time_s: parse(parts[3])?, energy_j: parse(parts[4])? };
        match curves.iter_mut().find(|c| c.label == parts[0] && c.nodes == nodes) {
            Some(c) => {
                c.points.push(point);
                c.points.sort_by_key(|p| p.gear);
            }
            None => curves.push(EnergyTimeCurve::new(parts[0].to_string(), nodes, vec![point])),
        }
    }
    Ok(curves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::EnergyTimePoint;

    fn sample() -> Vec<EnergyTimeCurve> {
        vec![
            EnergyTimeCurve::new(
                "CG",
                2,
                vec![
                    EnergyTimePoint { gear: 1, time_s: 100.0, energy_j: 12_000.0 },
                    EnergyTimePoint { gear: 6, time_s: 130.0, energy_j: 10_000.0 },
                ],
            ),
            EnergyTimeCurve::new(
                "CG",
                4,
                vec![EnergyTimePoint { gear: 1, time_s: 60.0, energy_j: 13_000.0 }],
            ),
        ]
    }

    #[test]
    fn plot_contains_glyphs_and_legend() {
        let s = ascii_plot(&sample(), 60, 16);
        assert!(s.contains('*'));
        assert!(s.contains('o'));
        assert!(s.contains("CG on 2 nodes"));
        assert!(s.contains("CG on 4 nodes"));
        assert!(s.contains("time [s]"));
    }

    #[test]
    fn plot_handles_single_point() {
        let c = EnergyTimeCurve::new(
            "x",
            1,
            vec![EnergyTimePoint { gear: 1, time_s: 1.0, energy_j: 1.0 }],
        );
        let s = ascii_plot(&[c], 20, 8);
        assert!(s.contains('*'));
    }

    #[test]
    fn csv_round_trip() {
        let curves = sample();
        let csv = to_csv(&curves);
        let parsed = from_csv(&csv).unwrap();
        assert_eq!(parsed, curves);
    }

    #[test]
    fn from_csv_rejects_malformed() {
        assert!(from_csv("header\nonly,three,fields").is_err());
        assert!(from_csv("h\nl,1,notanumber,2,3").is_err());
    }
}
