//! Prometheus text exposition (format 0.0.4) of a registry snapshot.

use crate::registry::{InstrumentKind, SeriesValue, Snapshot};

/// Render `snapshot` in the Prometheus text format: `# HELP` and
/// `# TYPE` per family, then one line per series; histograms expand to
/// cumulative `_bucket{le=...}` lines plus `_sum` and `_count`.
pub fn to_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for fam in &snapshot.families {
        out.push_str(&format!("# HELP {} {}\n", fam.name, escape_help(&fam.help)));
        out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind.type_keyword()));
        for series in &fam.series {
            match &series.value {
                SeriesValue::Counter(v) | SeriesValue::Gauge(v) => {
                    out.push_str(&fam.name);
                    out.push_str(&render_labels(&series.labels, None));
                    out.push(' ');
                    out.push_str(&fmt_value(*v));
                    out.push('\n');
                }
                SeriesValue::Histogram(h) => {
                    debug_assert_eq!(fam.kind, InstrumentKind::Histogram);
                    for (bound, cumulative) in &h.buckets {
                        out.push_str(&fam.name);
                        out.push_str("_bucket");
                        out.push_str(&render_labels(&series.labels, Some(*bound)));
                        out.push(' ');
                        out.push_str(&fmt_value(*cumulative as f64));
                        out.push('\n');
                    }
                    out.push_str(&fam.name);
                    out.push_str("_sum");
                    out.push_str(&render_labels(&series.labels, None));
                    out.push(' ');
                    out.push_str(&fmt_value(h.sum));
                    out.push('\n');
                    out.push_str(&fam.name);
                    out.push_str("_count");
                    out.push_str(&render_labels(&series.labels, None));
                    out.push(' ');
                    out.push_str(&fmt_value(h.count as f64));
                    out.push('\n');
                }
            }
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], le: Option<f64>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(bound) = le {
        parts.push(format!("le=\"{}\"", fmt_bound(bound)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline.
pub(crate) fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape HELP text: backslash and newline (quotes stay literal).
pub(crate) fn escape_help(h: &str) -> String {
    let mut out = String::with_capacity(h.len());
    for c in h.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a sample value: integral values print without a decimal
/// point (`17`, not `17.0`); specials use Prometheus spellings.
pub(crate) fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        return "NaN".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "+Inf" } else { "-Inf" }.to_string();
    }
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn fmt_bound(b: f64) -> String {
    if b.is_infinite() {
        "+Inf".to_string()
    } else {
        fmt_value(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Buckets, Registry};

    #[test]
    fn exports_counters_gauges_and_histograms() {
        let r = Registry::new();
        r.counter_with("asks_total", "Total asks.", &[("mode", "flat")])
            .add(3.0);
        r.gauge("depth", "Queue depth.").set(2.5);
        let h = r.histogram("lat_micros", "Latency.", &Buckets::explicit(vec![100.0, 400.0]));
        h.observe(50.0);
        h.observe(300.0);
        h.observe(9000.0);
        let text = to_prometheus(&r.snapshot());
        assert!(text.contains("# HELP asks_total Total asks.\n"));
        assert!(text.contains("# TYPE asks_total counter\n"));
        assert!(text.contains("asks_total{mode=\"flat\"} 3\n"));
        assert!(text.contains("# TYPE depth gauge\n"));
        assert!(text.contains("depth 2.5\n"));
        assert!(text.contains("lat_micros_bucket{le=\"100\"} 1\n"));
        assert!(text.contains("lat_micros_bucket{le=\"400\"} 2\n"));
        assert!(text.contains("lat_micros_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_micros_sum 9350\n"));
        assert!(text.contains("lat_micros_count 3\n"));
    }

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        let r = Registry::new();
        r.counter_with("esc_total", "Esc.", &[("q", "say \"hi\"\nback\\slash")])
            .inc();
        let text = to_prometheus(&r.snapshot());
        assert!(
            text.contains("esc_total{q=\"say \\\"hi\\\"\\nback\\\\slash\"} 1\n"),
            "bad escaping: {text}"
        );
    }

    #[test]
    fn escapes_help_text() {
        assert_eq!(escape_help("one\ntwo\\three"), "one\\ntwo\\\\three");
        let r = Registry::new();
        r.counter("h_total", "line one\nline two").inc();
        let text = to_prometheus(&r.snapshot());
        assert!(text.contains("# HELP h_total line one\\nline two\n"));
    }

    #[test]
    fn formats_values() {
        assert_eq!(fmt_value(17.0), "17");
        assert_eq!(fmt_value(-3.0), "-3");
        assert_eq!(fmt_value(2.5), "2.5");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_value(f64::NAN), "NaN");
    }
}
