//! Table formatting for evaluation reports.

use crate::eval::EvalReport;

/// Format the Table-3a/3b style comparison: one row per report.
pub fn format_comparison_table(title: &str, reports: &[&EvalReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    let width = reports
        .iter()
        .map(|r| r.system.len())
        .max()
        .unwrap_or(8)
        .max(8);
    out.push_str(&format!("{:<width$} | EX (%)\n", "Approach"));
    out.push_str(&format!("{:-<width$}-+-------\n", ""));
    for r in reports {
        out.push_str(&format!("{:<width$} | {:>6.1}\n", r.system, r.ex_percent));
    }
    out
}

/// Format a per-shape breakdown for one report.
pub fn format_shape_breakdown(report: &EvalReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} — EX {:.1}% ({}/{})\n",
        report.system, report.ex_percent, report.correct, report.total
    ));
    for (shape, (c, t)) in &report.per_shape {
        out.push_str(&format!(
            "  {:<24} {:>3}/{:<3} ({:.0}%)\n",
            shape,
            c,
            t,
            if *t == 0 {
                0.0
            } else {
                *c as f64 * 100.0 / *t as f64
            }
        ));
    }
    let (pc, pt, qc, qt) = report.plain_vs_paraphrase;
    out.push_str(&format!(
        "  plain phrasing {:>3}/{:<3}  paraphrased {:>3}/{:<3}\n",
        pc, pt, qc, qt
    ));
    out.push_str(&format!(
        "  mean inference cost: {:.2}¢/query\n",
        report.mean_cost_cents
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn report(name: &str, ex: f64) -> EvalReport {
        EvalReport {
            system: name.into(),
            total: 200,
            correct: (ex * 2.0) as usize,
            ex_percent: ex,
            per_shape: BTreeMap::from([("TotalCount".to_string(), (10usize, 20usize))]),
            plain_vs_paraphrase: (50, 100, 40, 100),
            mean_cost_cents: 4.25,
            repairs_total: 0,
            degraded_count: 0,
            outcomes: vec![],
        }
    }

    #[test]
    fn comparison_table_lists_rows() {
        let a = report("DIO copilot", 66.0);
        let b = report("DIN-SQL", 48.0);
        // Halves print as they are, not rounded to even.
        let c = report("default", 76.5);
        let d = report("paper", 73.5);
        let t = format_comparison_table("Table 3a", &[&a, &b, &c, &d]);
        assert!(t.contains("DIO copilot"));
        assert!(t.contains("66"));
        assert!(t.contains("48"));
        assert!(t.contains(" 76.5\n"), "{t}");
        assert!(t.contains(" 73.5\n"), "{t}");
    }

    #[test]
    fn breakdown_includes_shape_and_cost() {
        let r = report("DIO copilot", 66.0);
        let t = format_shape_breakdown(&r);
        assert!(t.contains("TotalCount"));
        assert!(t.contains("4.25"));
        assert!(t.contains("plain phrasing"));
    }
}
