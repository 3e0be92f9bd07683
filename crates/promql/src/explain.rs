//! Natural-language explanation of PromQL expressions.
//!
//! The copilot's response (paper Figure 1b) doesn't just show the query
//! — it explains what the query computes. This module renders an AST as
//! plain English, composed bottom-up so arbitrary generated expressions
//! explain themselves.

use crate::ast::{AggOp, BinOp, Expr, Grouping};
use crate::printer::format_duration;

/// Explain an expression in one English sentence (without the trailing
/// period).
pub(crate) fn explain_expr(expr: &Expr) -> String {
    match expr {
        Expr::NumberLiteral(n) => format!("the constant {n}"),
        Expr::StringLiteral(s) => format!("the string \"{s}\""),
        Expr::VectorSelector {
            name,
            matchers,
            offset_ms,
        } => {
            let mut out = match name {
                Some(n) => format!("the current value of `{n}`"),
                None => "the selected series".to_string(),
            };
            if !matchers.is_empty() {
                let parts: Vec<String> = matchers.iter().map(|m| m.to_string()).collect();
                out.push_str(&format!(" where {}", parts.join(" and ")));
            }
            if *offset_ms > 0 {
                out.push_str(&format!(", as of {} ago", format_duration(*offset_ms)));
            }
            out
        }
        Expr::MatrixSelector { selector, range_ms } => format!(
            "{} over the last {}",
            explain_expr(selector),
            format_duration(*range_ms)
        ),
        Expr::Subquery {
            expr,
            range_ms,
            step_ms,
            ..
        } => {
            let step = step_ms
                .map(|s| format!(" at {} resolution", format_duration(s)))
                .unwrap_or_default();
            format!(
                "{}, re-evaluated over the last {}{}",
                explain_expr(expr),
                format_duration(*range_ms),
                step
            )
        }
        Expr::Neg(e) => format!("the negation of {}", explain_expr(e)),
        Expr::Paren(e) => explain_expr(e),
        Expr::Binary { op, lhs, rhs, .. } => {
            let verb = match op {
                BinOp::Add => "plus",
                BinOp::Sub => "minus",
                BinOp::Mul => "multiplied by",
                BinOp::Div => "divided by",
                BinOp::Mod => "modulo",
                BinOp::Pow => "raised to",
                BinOp::Eq => "where it equals",
                BinOp::Ne => "where it differs from",
                BinOp::Gt => "where it exceeds",
                BinOp::Lt => "where it is below",
                BinOp::Gte => "where it is at least",
                BinOp::Lte => "where it is at most",
                BinOp::And => "intersected with",
                BinOp::Or => "united with",
                BinOp::Unless => "excluding",
            };
            format!("{} {} {}", explain_expr(lhs), verb, explain_expr(rhs))
        }
        Expr::Aggregate {
            op,
            param,
            expr,
            grouping,
        } => {
            let verb = match op {
                AggOp::Sum => "the sum of",
                AggOp::Avg => "the average of",
                AggOp::Min => "the minimum of",
                AggOp::Max => "the maximum of",
                AggOp::Count => "the number of series in",
                AggOp::Group => "the grouped presence of",
                AggOp::Stddev => "the standard deviation of",
                AggOp::Stdvar => "the variance of",
                AggOp::Topk => "the largest values of",
                AggOp::Bottomk => "the smallest values of",
                AggOp::Quantile => "a quantile of",
                AggOp::CountValues => "the value counts of",
            };
            let mut out = match (op, param) {
                (AggOp::Topk | AggOp::Bottomk, Some(p)) => {
                    format!("the {} {verb} {}", explain_expr(p), explain_expr(expr))
                        .replace("the the", "the")
                }
                (AggOp::Quantile, Some(p)) => format!(
                    "the {}-quantile of {}",
                    explain_expr(p).replace("the constant ", ""),
                    explain_expr(expr)
                ),
                _ => format!("{verb} {}", explain_expr(expr)),
            };
            match grouping {
                Grouping::None => out.push_str(" across all series"),
                Grouping::By(ls) => out.push_str(&format!(" per {}", ls.join(", "))),
                Grouping::Without(ls) => {
                    out.push_str(&format!(" aggregated over {}", ls.join(", ")))
                }
            }
            out
        }
        Expr::Call { func, args } => {
            let inner = args.first().map(explain_expr).unwrap_or_default();
            match func.as_str() {
                "rate" => format!("the per-second rate of {inner}"),
                "irate" => format!("the instantaneous per-second rate of {inner}"),
                "increase" => format!("the total increase of {inner}"),
                "delta" => format!("the change in {inner}"),
                "avg_over_time" => format!("the time-average of {inner}"),
                "max_over_time" => format!("the peak of {inner}"),
                "min_over_time" => format!("the low point of {inner}"),
                "sum_over_time" => format!("the accumulated total of {inner}"),
                "histogram_quantile" => {
                    let phi = args.first().map(explain_expr).unwrap_or_default();
                    let v = args.get(1).map(explain_expr).unwrap_or_default();
                    format!(
                        "the {}-quantile estimated from the histogram {v}",
                        phi.replace("the constant ", "")
                    )
                }
                "time" => "the evaluation time".to_string(),
                _ => format!("{func} applied to {inner}"),
            }
        }
    }
}

/// Explain a parsed query; parse errors explain themselves.
pub fn explain_parsed(parsed: &Result<Expr, crate::error::ParseError>) -> String {
    match parsed {
        Ok(expr) => {
            let body = explain_expr(expr);
            format!("This computes {body}.")
        }
        Err(e) => format!("This query does not parse: {e}."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explain_query(query: &str) -> String {
        explain_parsed(&crate::parser::parse(query))
    }

    #[test]
    fn explains_the_success_rate_shape() {
        let e = explain_query("100 * sum(reg_success) / sum(reg_attempt)");
        assert_eq!(
            e,
            "This computes the constant 100 multiplied by the sum of the current value of \
             `reg_success` across all series divided by the sum of the current value of \
             `reg_attempt` across all series."
        );
    }

    #[test]
    fn explains_rate_queries() {
        let e = explain_query("sum(rate(m[5m]))");
        assert!(e.contains("per-second rate"));
        assert!(e.contains("over the last 5m"));
    }

    #[test]
    fn explains_grouping_and_matchers() {
        let e = explain_query(r#"avg by (nf) (m{instance="amf-0"})"#);
        assert!(e.contains("per nf"));
        assert!(e.contains("instance=\"amf-0\""));
    }

    #[test]
    fn explains_offsets_and_subqueries() {
        let e = explain_query("max_over_time(sum(m)[30m:1m]) ");
        assert!(e.contains("re-evaluated over the last 30m"));
        let e = explain_query("m offset 1h");
        assert!(e.contains("as of 1h ago"));
    }

    #[test]
    fn explains_topk_and_quantile() {
        let e = explain_query("topk(3, m)");
        assert!(e.contains("largest values"), "{e}");
        let e = explain_query("quantile(0.9, m)");
        assert!(e.contains("0.9-quantile"), "{e}");
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        let e = explain_query("sum((");
        assert!(e.contains("does not parse"));
    }
}
