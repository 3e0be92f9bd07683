//! ASCII rendering of dashboard panels.
//!
//! The offline stand-in for a browser: each time-series panel becomes a
//! small unicode sparkline chart per target series, evaluated through
//! the PromQL engine.

use crate::model::{Dashboard, PanelKind};
use dio_promql::Engine;

const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render every panel of a dashboard as text.
pub fn render_ascii(dashboard: &Dashboard, engine: &Engine, width: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} ==\n", dashboard.title));
    for panel in &dashboard.panels {
        out.push_str(&format!("\n-- {} ", panel.title));
        if !panel.unit.is_empty() {
            out.push_str(&format!("[{}] ", panel.unit));
        }
        out.push_str("--\n");
        for target in &panel.targets {
            match panel.kind {
                PanelKind::Stat => {
                    match engine.instant_query(&target.expr, dashboard.range.to_ms) {
                        Ok(v) => match v.as_scalar_like() {
                            Some(x) => out.push_str(&format!("  {} = {:.4}\n", target.legend, x)),
                            None => out.push_str(&format!(
                                "  {} = {} samples\n",
                                target.legend,
                                v.numeric_values().len()
                            )),
                        },
                        Err(e) => out.push_str(&format!("  {} = error: {e}\n", target.legend)),
                    }
                }
                PanelKind::Timeseries => {
                    let r = &dashboard.range;
                    // Re-step so each series is at most `width` points.
                    let span = r.to_ms - r.from_ms;
                    let step = (span / width.max(1) as i64).max(r.step_ms.max(1));
                    match engine.range_query(&target.expr, r.from_ms, r.to_ms, step) {
                        Ok(series) => {
                            if series.is_empty() {
                                out.push_str(&format!("  {}: (no data)\n", target.legend));
                            }
                            for s in series {
                                let values: Vec<f64> =
                                    s.points.iter().map(|p| p.value).collect();
                                out.push_str(&format!(
                                    "  {} {}\n",
                                    sparkline(&values),
                                    legend_for(&target.legend, &s.labels.to_string())
                                ));
                            }
                        }
                        Err(e) => out.push_str(&format!("  error: {e}\n")),
                    }
                }
            }
        }
    }
    out
}

fn legend_for(template: &str, labels: &str) -> String {
    if labels == "{}" {
        template.to_string()
    } else {
        format!("{template} {labels}")
    }
}

/// Map values onto eight bar glyphs. Non-finite values render as spaces.
pub(crate) fn sparkline(values: &[f64]) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|v| {
            if !v.is_finite() {
                ' '
            } else {
                let idx = (((v - min) / span) * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_dashboard, PanelSpecHint};
    use crate::model::TimeRange;
    use dio_tsdb::{Labels, MetricStore, Sample};

    fn engine() -> Engine {
        let mut st = MetricStore::new();
        let l = Labels::name_only("reqs_total");
        for k in 0..=20i64 {
            st.append(l.clone(), Sample::new(k * 60_000, (k * k) as f64))
                .unwrap();
        }
        Engine::new(st)
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0]), "▁");
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn sparkline_handles_nan() {
        let s = sparkline(&[0.0, f64::NAN, 2.0]);
        assert_eq!(s.chars().nth(1), Some(' '));
    }

    #[test]
    fn sparkline_constant_series() {
        let s = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(s, "▁▁▁");
    }

    #[test]
    fn renders_dashboard_with_data() {
        let e = engine();
        let d = generate_dashboard(
            "how many requests",
            &[PanelSpecHint {
                name: "reqs_total".into(),
                title: "requests".into(),
                is_counter: true,
            }],
            Some("sum(reqs_total)"),
            TimeRange::last(1_200_000, 600_000, 20),
        );
        let text = render_ascii(&d, &e, 40);
        assert!(text.contains("== how many requests =="));
        assert!(text.contains("answer = 400.0000"));
        assert!(text.contains('▁') || text.contains('█'));
    }

    #[test]
    fn renders_missing_data_gracefully() {
        let e = engine();
        let d = generate_dashboard(
            "missing metric",
            &[PanelSpecHint {
                name: "nonexistent".into(),
                title: "nothing".into(),
                is_counter: false,
            }],
            None,
            TimeRange::last(1_200_000, 600_000, 20),
        );
        let text = render_ascii(&d, &e, 40);
        assert!(text.contains("(no data)"));
    }
}
