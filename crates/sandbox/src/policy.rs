//! Static safety policy for untrusted queries.

use dio_promql::Expr;
use dio_tsdb::pattern_match;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Why a query was refused.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyViolation {
    /// A function outside the allowlist.
    ForbiddenFunction(String),
    /// A range selector wider than the ceiling.
    RangeTooWide {
        /// Requested window (ms).
        requested_ms: i64,
        /// Allowed maximum (ms).
        max_ms: i64,
    },
    /// An offset further back than allowed.
    OffsetTooFar {
        /// Requested offset (ms).
        requested_ms: i64,
        /// Allowed maximum (ms).
        max_ms: i64,
    },
    /// A selector touching a denied metric.
    SensitiveMetric(String),
    /// Expression nesting deeper than the bound.
    TooDeep {
        /// Observed depth.
        depth: usize,
        /// Allowed maximum.
        max: usize,
    },
}

impl std::fmt::Display for PolicyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyViolation::ForbiddenFunction(name) => {
                write!(f, "function '{name}' is not allowed by policy")
            }
            PolicyViolation::RangeTooWide {
                requested_ms,
                max_ms,
            } => write!(
                f,
                "range window {requested_ms}ms exceeds the {max_ms}ms ceiling"
            ),
            PolicyViolation::OffsetTooFar {
                requested_ms,
                max_ms,
            } => write!(f, "offset {requested_ms}ms exceeds the {max_ms}ms ceiling"),
            PolicyViolation::SensitiveMetric(name) => {
                write!(f, "metric '{name}' is access-controlled")
            }
            PolicyViolation::TooDeep { depth, max } => {
                write!(f, "expression depth {depth} exceeds limit {max}")
            }
        }
    }
}

impl std::error::Error for PolicyViolation {}

/// The static policy applied before execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SafetyPolicy {
    /// When `Some`, only these functions may be called.
    pub allowed_functions: Option<BTreeSet<String>>,
    /// Maximum range-selector window.
    pub max_range_ms: i64,
    /// Maximum offset into the past.
    pub max_offset_ms: i64,
    /// Metric-name patterns (anchored, `.*` wildcards) that are denied —
    /// the §5.4 "controlling access to sensitive data" control.
    pub denied_metric_patterns: Vec<String>,
    /// Maximum expression nesting depth.
    pub max_depth: usize,
    /// Per-query sample budget handed to the engine (0 = unlimited).
    pub max_samples: usize,
}

impl Default for SafetyPolicy {
    fn default() -> Self {
        SafetyPolicy {
            allowed_functions: Some(
                [
                    "rate",
                    "irate",
                    "increase",
                    "delta",
                    "idelta",
                    "resets",
                    "changes",
                    "deriv",
                    "predict_linear",
                    "avg_over_time",
                    "sum_over_time",
                    "min_over_time",
                    "max_over_time",
                    "count_over_time",
                    "last_over_time",
                    "present_over_time",
                    "stddev_over_time",
                    "stdvar_over_time",
                    "quantile_over_time",
                    "abs",
                    "ceil",
                    "floor",
                    "exp",
                    "ln",
                    "log2",
                    "log10",
                    "sqrt",
                    "sgn",
                    "round",
                    "clamp",
                    "clamp_min",
                    "clamp_max",
                    "scalar",
                    "vector",
                    "time",
                    "timestamp",
                    "sort",
                    "sort_desc",
                    "absent",
                    "histogram_quantile",
                    "label_replace",
                    "label_join",
                ]
                .into_iter()
                .map(String::from)
                .collect(),
            ),
            max_range_ms: 24 * 3600 * 1000,
            max_offset_ms: 7 * 24 * 3600 * 1000,
            denied_metric_patterns: vec![
                ".*_subscriber_imsi.*".to_string(),
                ".*_supi_.*".to_string(),
                "admin_.*".to_string(),
            ],
            max_depth: 32,
            max_samples: 5_000_000,
        }
    }
}

impl SafetyPolicy {
    /// Statically vet a parsed expression.
    pub fn vet(&self, expr: &Expr) -> Result<(), PolicyViolation> {
        self.vet_at_depth(expr, 1)
    }

    fn vet_at_depth(&self, expr: &Expr, depth: usize) -> Result<(), PolicyViolation> {
        if depth > self.max_depth {
            return Err(PolicyViolation::TooDeep {
                depth,
                max: self.max_depth,
            });
        }
        match expr {
            Expr::NumberLiteral(_) | Expr::StringLiteral(_) => Ok(()),
            Expr::VectorSelector {
                name,
                matchers,
                offset_ms,
            } => {
                if *offset_ms > self.max_offset_ms {
                    return Err(PolicyViolation::OffsetTooFar {
                        requested_ms: *offset_ms,
                        max_ms: self.max_offset_ms,
                    });
                }
                let mut names: Vec<&str> = Vec::new();
                if let Some(n) = name {
                    names.push(n);
                }
                for m in matchers {
                    if m.name == "__name__" {
                        names.push(&m.value);
                    }
                }
                for n in names {
                    for pat in &self.denied_metric_patterns {
                        if pattern_match(pat, n) {
                            return Err(PolicyViolation::SensitiveMetric(n.to_string()));
                        }
                    }
                }
                Ok(())
            }
            Expr::MatrixSelector { selector, range_ms } => {
                if *range_ms > self.max_range_ms {
                    return Err(PolicyViolation::RangeTooWide {
                        requested_ms: *range_ms,
                        max_ms: self.max_range_ms,
                    });
                }
                self.vet_at_depth(selector, depth + 1)
            }
            Expr::Subquery {
                expr,
                range_ms,
                offset_ms,
                ..
            } => {
                if *range_ms > self.max_range_ms {
                    return Err(PolicyViolation::RangeTooWide {
                        requested_ms: *range_ms,
                        max_ms: self.max_range_ms,
                    });
                }
                if *offset_ms > self.max_offset_ms {
                    return Err(PolicyViolation::OffsetTooFar {
                        requested_ms: *offset_ms,
                        max_ms: self.max_offset_ms,
                    });
                }
                self.vet_at_depth(expr, depth + 1)
            }
            Expr::Neg(e) | Expr::Paren(e) => self.vet_at_depth(e, depth + 1),
            Expr::Binary { lhs, rhs, .. } => {
                self.vet_at_depth(lhs, depth + 1)?;
                self.vet_at_depth(rhs, depth + 1)
            }
            Expr::Aggregate { param, expr, .. } => {
                if let Some(p) = param {
                    self.vet_at_depth(p, depth + 1)?;
                }
                self.vet_at_depth(expr, depth + 1)
            }
            Expr::Call { func, args } => {
                if let Some(allowed) = &self.allowed_functions {
                    if !allowed.contains(func) {
                        return Err(PolicyViolation::ForbiddenFunction(func.clone()));
                    }
                }
                for a in args {
                    self.vet_at_depth(a, depth + 1)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_promql::parse;

    #[test]
    fn default_allows_standard_queries() {
        let p = SafetyPolicy::default();
        for q in [
            "sum(rate(m[5m]))",
            "100 * sum(s) / sum(a)",
            "histogram_quantile(0.9, b)",
            "m offset 1h",
        ] {
            assert!(p.vet(&parse(q).unwrap()).is_ok(), "{q} refused");
        }
    }

    #[test]
    fn refuses_unlisted_functions() {
        let mut p = SafetyPolicy::default();
        p.allowed_functions.as_mut().unwrap().remove("rate");
        let err = p.vet(&parse("rate(m[5m])").unwrap()).unwrap_err();
        assert_eq!(err, PolicyViolation::ForbiddenFunction("rate".into()));
    }

    #[test]
    fn refuses_wide_ranges() {
        let p = SafetyPolicy::default();
        let err = p.vet(&parse("rate(m[2d])").unwrap()).unwrap_err();
        assert!(matches!(err, PolicyViolation::RangeTooWide { .. }));
    }

    #[test]
    fn refuses_far_offsets() {
        let p = SafetyPolicy::default();
        let err = p.vet(&parse("m offset 2w").unwrap()).unwrap_err();
        assert!(matches!(err, PolicyViolation::OffsetTooFar { .. }));
    }

    #[test]
    fn refuses_sensitive_metrics() {
        let p = SafetyPolicy::default();
        let err = p
            .vet(&parse("sum(amf_subscriber_imsi_list)").unwrap())
            .unwrap_err();
        assert!(matches!(err, PolicyViolation::SensitiveMetric(_)));
        // Also via __name__ matcher.
        let err = p
            .vet(&parse(r#"{__name__="admin_reset_counters"}"#).unwrap())
            .unwrap_err();
        assert!(matches!(err, PolicyViolation::SensitiveMetric(_)));
    }

    #[test]
    fn refuses_pathological_nesting() {
        let p = SafetyPolicy {
            max_depth: 4,
            ..SafetyPolicy::default()
        };
        let q = "sum(abs(ceil(floor(sqrt(m)))))";
        let err = p.vet(&parse(q).unwrap()).unwrap_err();
        assert!(matches!(err, PolicyViolation::TooDeep { .. }));
    }

    #[test]
    fn violations_display_reasonably() {
        let v = PolicyViolation::ForbiddenFunction("evil".into());
        assert!(v.to_string().contains("evil"));
    }
}
