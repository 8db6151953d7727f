//! Rendering campaign results in the shape of the paper's tables.

use crate::bugs::{CompilerArea, Platform};
use crate::campaign::{CampaignReport, HuntReport};
use std::fmt::Write;

/// Renders the Table 2 analogue: detected bugs per platform, split into
/// crash and semantic bugs, with per-platform and per-kind totals plus the
/// grand total (the paper's Table 2 carries both margins).  The platform
/// columns cover every registered back end (including the reference
/// interpreter) plus the `Model` column for findings the N-way differential
/// vote pinned on the test-generation oracle itself; when the report
/// carries differential attributions, a per-target attribution block
/// follows the table.
pub fn render_table2(report: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 2 (reproduction): distinct seeded bugs detected");
    let platforms = Platform::all();
    let mut header = format!("{:<12}", "Bug Type");
    for platform in platforms {
        let _ = write!(header, " {:>8}", platform.to_string());
    }
    let _ = writeln!(out, "{header} {:>8}", "Total");
    for (label, crash_like) in [("Crash", true), ("Semantic", false)] {
        let mut row = format!("{label:<12}");
        let mut row_total = 0usize;
        for platform in platforms {
            let (crash, semantic) = report.platform_counts(platform);
            let value = if crash_like { crash } else { semantic };
            row_total += value;
            let _ = write!(row, " {value:>8}");
        }
        let _ = writeln!(out, "{row} {row_total:>8}");
    }
    let mut total_row = format!("{:<12}", "Total");
    let mut grand_total = 0usize;
    for platform in platforms {
        let (crash, semantic) = report.platform_counts(platform);
        let platform_total = crash + semantic;
        grand_total += platform_total;
        let _ = write!(total_row, " {platform_total:>8}");
    }
    let _ = writeln!(out, "{total_row} {grand_total:>8}");
    if !report.by_attribution.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Per-target attribution (differential/testgen majority vote):"
        );
        for (participant, count) in &report.by_attribution {
            let _ = writeln!(out, "{participant:<12} {count:>8}");
        }
    }
    if let Some(coverage) = &report.coverage {
        let _ = writeln!(out);
        out.push_str(&coverage.render());
    }
    if let Some(mutation) = &report.mutation {
        let _ = writeln!(out);
        out.push_str(&mutation.render());
    }
    out
}

/// Renders the Table 3 analogue: detected bugs by compiler area.
pub fn render_table3(report: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3 (reproduction): distinct seeded bugs by compiler area"
    );
    let _ = writeln!(out, "{:<12} {:>8}", "Location", "Bugs");
    for area in [
        CompilerArea::FrontEnd,
        CompilerArea::MidEnd,
        CompilerArea::BackEnd,
    ] {
        let _ = writeln!(
            out,
            "{:<12} {:>8}",
            area.to_string(),
            report.area_count(area)
        );
    }
    let _ = writeln!(out, "{:<12} {:>8}", "Total", report.total_detected);
    out
}

/// Renders the per-class detection table (which class, which technique
/// family, detected or not).
pub fn render_detection_matrix(report: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<36} {:>8} {:>10} {:>10} {:>10}",
        "Seeded bug class", "Platform", "Area", "Kind", "Detected"
    );
    for outcome in &report.outcomes {
        let _ = writeln!(
            out,
            "{:<36} {:>8} {:>10} {:>10} {:>10}",
            outcome.bug,
            outcome.platform.to_string(),
            outcome.area.to_string(),
            if outcome.crash_class {
                "crash"
            } else {
                "semantic"
            },
            if outcome.detected {
                format!(
                    "yes ({}/{})",
                    outcome.detecting_programs, outcome.programs_run
                )
            } else {
                "NO".to_string()
            }
        );
    }
    let _ = writeln!(
        out,
        "False alarms on the correct pipeline: {}",
        report.false_alarms
    );
    out
}

/// Median of a sorted slice (mean of the middle pair for even lengths).
fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Renders the reduction summary of a hunt: one row per bug class (kind +
/// attributed pass) with the median size reduction and oracle cost — the
/// shape of the paper's reporting appendix, where every filed bug came with
/// a minimal reproducer.
pub fn render_reduction_summary(report: &HuntReport) -> String {
    use std::collections::BTreeMap;
    let mut out = String::new();
    // class label -> (ratios %, initial sizes, final sizes, oracle calls)
    let mut classes: BTreeMap<String, Vec<(f64, f64, f64, f64)>> = BTreeMap::new();
    let mut unreduced = 0usize;
    for outcome in &report.outcomes {
        for bug in &outcome.reports {
            let Some(stats) = &bug.reduction else {
                unreduced += 1;
                continue;
            };
            let class = format!("{:?}/{}", bug.kind, bug.pass.as_deref().unwrap_or("-"));
            classes.entry(class).or_default().push((
                stats.statement_ratio() * 100.0,
                stats.initial_statements as f64,
                stats.final_statements as f64,
                stats.oracle_calls as f64,
            ));
        }
    }
    let _ = writeln!(
        out,
        "Reduction summary: minimized reproducers per bug class"
    );
    let _ = writeln!(
        out,
        "{:<44} {:>6} {:>10} {:>10} {:>10} {:>12}",
        "Bug class (kind/pass)", "n", "med init", "med final", "med size%", "med oracle"
    );
    let mut all_ratios: Vec<f64> = Vec::new();
    for (class, rows) in &classes {
        let mut ratios: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let mut initials: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let mut finals: Vec<f64> = rows.iter().map(|r| r.2).collect();
        let mut calls: Vec<f64> = rows.iter().map(|r| r.3).collect();
        for list in [&mut ratios, &mut initials, &mut finals, &mut calls] {
            list.sort_by(|a, b| a.partial_cmp(b).expect("finite stats"));
        }
        all_ratios.extend(&ratios);
        let _ = writeln!(
            out,
            "{:<44} {:>6} {:>10.1} {:>10.1} {:>9.1}% {:>12.1}",
            class,
            rows.len(),
            median(&initials),
            median(&finals),
            median(&ratios),
            median(&calls)
        );
    }
    all_ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite stats"));
    if all_ratios.is_empty() {
        let _ = writeln!(
            out,
            "overall: no minimized reports ({unreduced} finding(s) without reduction)"
        );
    } else {
        let _ = writeln!(
            out,
            "overall: {} minimized report(s), median size {:.1}% of the original{}",
            all_ratios.len(),
            median(&all_ratios),
            if unreduced > 0 {
                format!(", {unreduced} report(s) not reduced")
            } else {
                String::new()
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::SeededBugOutcome;
    use std::collections::BTreeMap;

    fn sample_report() -> CampaignReport {
        let mut by_platform = BTreeMap::new();
        by_platform.insert("P4C/crash".to_string(), 3);
        by_platform.insert("P4C/semantic".to_string(), 7);
        by_platform.insert("BMv2/semantic".to_string(), 2);
        by_platform.insert("Tofino/crash".to_string(), 1);
        by_platform.insert("Tofino/semantic".to_string(), 3);
        let mut by_area = BTreeMap::new();
        by_area.insert("Front End".to_string(), 8);
        by_area.insert("Mid End".to_string(), 2);
        by_area.insert("Back End".to_string(), 6);
        CampaignReport {
            outcomes: vec![SeededBugOutcome {
                bug: "ExitSkipsCopyOut".into(),
                platform: Platform::P4c,
                area: CompilerArea::FrontEnd,
                crash_class: false,
                detected: true,
                detecting_programs: 1,
                programs_run: 1,
            }],
            by_platform,
            by_area,
            by_attribution: BTreeMap::new(),
            false_alarms: 0,
            total_detected: 16,
            coverage: None,
            mutation: None,
        }
    }

    #[test]
    fn table2_contains_platform_columns() {
        let text = render_table2(&sample_report());
        assert!(text.contains("P4C"));
        assert!(text.contains("Tofino"));
        assert!(text.contains("Crash"));
        assert!(text.contains("Semantic"));
    }

    /// The total row must carry per-platform totals under their columns and
    /// the grand total in the margin — not a single aggregate number.
    #[test]
    fn table2_total_row_has_per_platform_totals() {
        let text = render_table2(&sample_report());
        let total_line = text
            .lines()
            .find(|line| line.starts_with("Total"))
            .expect("table has a total row");
        let values: Vec<usize> = total_line
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().expect("numeric total"))
            .collect();
        // P4C 3+7, BMv2 0+2, Tofino 1+3, RefInterp 0, Model 0, grand 16
        // (matches total_detected).
        assert_eq!(values, vec![10, 2, 4, 0, 0, 16]);
        // The per-kind margin column is present as well.
        let crash_line = text
            .lines()
            .find(|line| line.starts_with("Crash"))
            .expect("crash row");
        let crash: Vec<usize> = crash_line
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().expect("numeric count"))
            .collect();
        assert_eq!(crash, vec![3, 0, 1, 0, 0, 4]);
    }

    /// Differential attributions render as a per-target block after the
    /// platform table (and the block is absent when there are none).
    #[test]
    fn table2_renders_per_target_attribution() {
        let mut report = sample_report();
        assert!(!render_table2(&report).contains("attribution"));
        report.by_attribution.insert("bmv2".to_string(), 2);
        report.by_attribution.insert("model".to_string(), 1);
        let text = render_table2(&report);
        assert!(text.contains("Per-target attribution"), "{text}");
        let bmv2_line = text
            .lines()
            .find(|line| line.starts_with("bmv2"))
            .expect("bmv2 attribution row");
        assert!(bmv2_line.trim().ends_with('2'), "{bmv2_line}");
        assert!(text.lines().any(|line| line.starts_with("model")), "{text}");
    }

    #[test]
    fn reduction_summary_reports_medians_per_class() {
        use crate::bugs::{BugKind, BugReport, Technique};
        use crate::campaign::SeedOutcome;
        use std::time::Duration;
        let report = |final_statements: usize| {
            let mut bug = BugReport::new(
                BugKind::Semantic,
                Platform::P4c,
                CompilerArea::FrontEnd,
                Technique::TranslationValidation,
                Some("SimplifyDefUse".into()),
                "semantic difference in block `ingress`:".into(),
            );
            bug.minimized = Some("<program>".into());
            bug.reduction = Some(p4_reduce::ReductionStats {
                initial_statements: 50,
                final_statements,
                initial_nodes: 120,
                final_nodes: final_statements * 2,
                oracle_calls: 40,
                typecheck_rejections: 5,
                accepted_steps: 7,
                rounds: 2,
            });
            bug
        };
        let hunt = HuntReport {
            outcomes: vec![
                SeedOutcome {
                    seed: 1,
                    reports: vec![report(10)],
                },
                SeedOutcome {
                    seed: 2,
                    reports: vec![report(20)],
                },
            ],
            programs_checked: 2,
            total_bugs: 2,
            reduction_failures: 0,
            elapsed: Duration::from_secs(1),
            per_worker: vec![2],
            coverage: None,
            mutation: None,
            diversity: None,
            cache: None,
            telemetry: None,
            corpus: None,
            census: None,
        };
        let text = render_reduction_summary(&hunt);
        assert!(text.contains("Semantic/SimplifyDefUse"), "{text}");
        // Median of 20% and 40% is 30%.
        assert!(text.contains("30.0%"), "{text}");
        assert!(text.contains("2 minimized report(s)"), "{text}");
    }

    #[test]
    fn table3_lists_all_areas() {
        let text = render_table3(&sample_report());
        assert!(text.contains("Front End"));
        assert!(text.contains("Mid End"));
        assert!(text.contains("Back End"));
        assert!(text.contains("16"));
    }

    #[test]
    fn detection_matrix_mentions_each_class() {
        let text = render_detection_matrix(&sample_report());
        assert!(text.contains("ExitSkipsCopyOut"));
        assert!(text.contains("yes (1/1)"));
    }
}
