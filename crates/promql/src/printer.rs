//! AST formatting back to PromQL text.

use crate::ast::{Expr, GroupSide, Grouping, VectorMatching};

/// Render an expression as canonical PromQL.
pub fn format_expr(expr: &Expr) -> String {
    match expr {
        Expr::NumberLiteral(n) => format_number(*n),
        Expr::StringLiteral(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Expr::VectorSelector {
            name,
            matchers,
            offset_ms,
        } => {
            let mut out = String::new();
            if let Some(n) = name {
                out.push_str(n);
            }
            if !matchers.is_empty() || name.is_none() {
                let parts: Vec<String> = matchers.iter().map(|m| m.to_string()).collect();
                out.push('{');
                out.push_str(&parts.join(","));
                out.push('}');
            }
            if *offset_ms != 0 {
                out.push_str(&format!(" offset {}", format_duration(*offset_ms)));
            }
            out
        }
        Expr::MatrixSelector { selector, range_ms } => {
            // offset prints after the range in PromQL.
            match selector.as_ref() {
                Expr::VectorSelector {
                    name,
                    matchers,
                    offset_ms,
                } => {
                    let inner = format_expr(&Expr::VectorSelector {
                        name: name.clone(),
                        matchers: matchers.clone(),
                        offset_ms: 0,
                    });
                    let mut out = format!("{inner}[{}]", format_duration(*range_ms));
                    if *offset_ms != 0 {
                        out.push_str(&format!(" offset {}", format_duration(*offset_ms)));
                    }
                    out
                }
                other => format!("{}[{}]", format_expr(other), format_duration(*range_ms)),
            }
        }
        Expr::Subquery {
            expr,
            range_ms,
            step_ms,
            offset_ms,
        } => {
            let step = step_ms.map(format_duration).unwrap_or_default();
            let mut out = format!(
                "{}[{}:{}]",
                format_expr(expr),
                format_duration(*range_ms),
                step
            );
            if *offset_ms != 0 {
                out.push_str(&format!(" offset {}", format_duration(*offset_ms)));
            }
            out
        }
        Expr::Neg(e) => format!("-{}", format_expr(e)),
        Expr::Binary {
            op,
            lhs,
            rhs,
            bool_modifier,
            matching,
        } => {
            let mut mid = op.as_str().to_string();
            if *bool_modifier {
                mid.push_str(" bool");
            }
            mid.push_str(&format_matching(matching));
            format!("{} {} {}", format_expr(lhs), mid, format_expr(rhs))
        }
        Expr::Aggregate {
            op,
            param,
            expr,
            grouping,
        } => {
            let grouping_str = match grouping {
                Grouping::None => String::new(),
                Grouping::By(ls) => format!(" by ({})", ls.join(", ")),
                Grouping::Without(ls) => format!(" without ({})", ls.join(", ")),
            };
            let inner = match param {
                Some(p) => format!("{}, {}", format_expr(p), format_expr(expr)),
                None => format_expr(expr),
            };
            format!("{}{}({})", op.as_str(), grouping_str, inner)
        }
        Expr::Call { func, args } => {
            let parts: Vec<String> = args.iter().map(format_expr).collect();
            format!("{func}({})", parts.join(", "))
        }
        Expr::Paren(e) => format!("({})", format_expr(e)),
    }
}

fn format_matching(m: &VectorMatching) -> String {
    let mut out = String::new();
    match m.on {
        Some(true) => out.push_str(&format!(" on ({})", m.labels.join(", "))),
        Some(false) => out.push_str(&format!(" ignoring ({})", m.labels.join(", "))),
        None => {}
    }
    if let Some((side, extra)) = &m.group {
        let kw = match side {
            GroupSide::Left => "group_left",
            GroupSide::Right => "group_right",
        };
        if extra.is_empty() {
            out.push_str(&format!(" {kw}"));
        } else {
            out.push_str(&format!(" {kw} ({})", extra.join(", ")));
        }
    }
    out
}

fn format_number(n: f64) -> String {
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Millisecond duration to the shortest PromQL duration literal.
pub(crate) fn format_duration(ms: i64) -> String {
    for (unit_ms, suffix) in [
        (604_800_000i64, "w"),
        (86_400_000, "d"),
        (3_600_000, "h"),
        (60_000, "m"),
        (1_000, "s"),
    ] {
        if ms % unit_ms == 0 && ms / unit_ms > 0 {
            return format!("{}{}", ms / unit_ms, suffix);
        }
    }
    format!("{ms}ms")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn round_trip(q: &str) {
        let e1 = parse(q).unwrap();
        let printed = format_expr(&e1);
        let e2 = parse(&printed).unwrap_or_else(|err| panic!("reparse of {printed:?}: {err}"));
        assert_eq!(e1, e2, "round trip changed AST for {q} -> {printed}");
    }

    #[test]
    fn round_trips_core_shapes() {
        for q in [
            "metric_name",
            r#"m{a="1",b!~"x.*"}"#,
            "rate(m[5m])",
            "sum by (nf) (rate(m[5m]))",
            "sum(rate(m[5m])) by (nf)", // normalises to leading by
            "topk(3, m)",
            "100 * sum(s) / sum(a)",
            "a / on (i) group_left (nf) b",
            "a unless ignoring (cause) b",
            "m[5m] offset 1h",
            "-m + 3",
            "(a + b) * c",
            "m > bool 5",
            r#"label_replace(m, "d", "$1", "s", "(.*)")"#,
            "quantile(0.99, m)",
            "avg_over_time(m[30s])",
            "max_over_time(rate(m[5m])[30m:1m])",
            "avg_over_time(sum(m)[1h:])",
            "sum(rate(m[5m]))[10m:30s] offset 5m",
        ] {
            round_trip(q);
        }
    }

    #[test]
    fn subquery_formats_as_expected() {
        assert_eq!(
            format_expr(&parse("max_over_time(rate(m[5m])[30m:1m])").unwrap()),
            "max_over_time(rate(m[5m])[30m:1m])"
        );
        assert_eq!(
            format_expr(&parse("avg_over_time(sum(m)[1h:])").unwrap()),
            "avg_over_time(sum(m)[1h:])"
        );
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(300_000), "5m");
        assert_eq!(format_duration(1_000), "1s");
        assert_eq!(format_duration(3_600_000), "1h");
        assert_eq!(format_duration(86_400_000), "1d");
        assert_eq!(format_duration(500), "500ms");
        assert_eq!(format_duration(90_000), "90s");
    }

    #[test]
    fn formats_expected_strings() {
        assert_eq!(
            format_expr(&parse("sum by (nf) (rate(m[5m]))").unwrap()),
            "sum by (nf)(rate(m[5m]))"
        );
        assert_eq!(
            format_expr(&parse("100*sum(s)/sum(a)").unwrap()),
            "100 * sum(s) / sum(a)"
        );
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_expr(&Expr::NumberLiteral(100.0)), "100");
        assert_eq!(format_expr(&Expr::NumberLiteral(0.5)), "0.5");
    }
}
