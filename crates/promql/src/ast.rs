//! PromQL abstract syntax tree.

use dio_tsdb::Matcher;
use serde::{Deserialize, Serialize};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `^`
    Pow,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Gte,
    /// `<=`
    Lte,
    /// `and`
    And,
    /// `or`
    Or,
    /// `unless`
    Unless,
}

impl BinOp {
    /// True for `== != > < >= <=`.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Gt | BinOp::Lt | BinOp::Gte | BinOp::Lte
        )
    }

    /// True for `and or unless`.
    pub fn is_set_op(&self) -> bool {
        matches!(self, BinOp::And | BinOp::Or | BinOp::Unless)
    }

    /// PromQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Pow => "^",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Gt => ">",
            BinOp::Lt => "<",
            BinOp::Gte => ">=",
            BinOp::Lte => "<=",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Unless => "unless",
        }
    }

    /// Binding precedence (higher binds tighter), following Prometheus:
    /// `or` < `and`/`unless` < comparisons < `+ -` < `* / %` < `^`.
    pub fn precedence(&self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And | BinOp::Unless => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Gt | BinOp::Lt | BinOp::Gte | BinOp::Lte => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
            BinOp::Pow => 6,
        }
    }

    /// `^` is right-associative; everything else is left-associative.
    pub fn is_right_assoc(&self) -> bool {
        matches!(self, BinOp::Pow)
    }
}

/// Aggregation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggOp {
    /// `sum`
    Sum,
    /// `avg`
    Avg,
    /// `min`
    Min,
    /// `max`
    Max,
    /// `count`
    Count,
    /// `group`
    Group,
    /// `stddev`
    Stddev,
    /// `stdvar`
    Stdvar,
    /// `topk`
    Topk,
    /// `bottomk`
    Bottomk,
    /// `quantile`
    Quantile,
    /// `count_values`
    CountValues,
}

impl AggOp {
    /// PromQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            AggOp::Sum => "sum",
            AggOp::Avg => "avg",
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Count => "count",
            AggOp::Group => "group",
            AggOp::Stddev => "stddev",
            AggOp::Stdvar => "stdvar",
            AggOp::Topk => "topk",
            AggOp::Bottomk => "bottomk",
            AggOp::Quantile => "quantile",
            AggOp::CountValues => "count_values",
        }
    }

    /// Parse an aggregation keyword.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sum" => AggOp::Sum,
            "avg" => AggOp::Avg,
            "min" => AggOp::Min,
            "max" => AggOp::Max,
            "count" => AggOp::Count,
            "group" => AggOp::Group,
            "stddev" => AggOp::Stddev,
            "stdvar" => AggOp::Stdvar,
            "topk" => AggOp::Topk,
            "bottomk" => AggOp::Bottomk,
            "quantile" => AggOp::Quantile,
            "count_values" => AggOp::CountValues,
            _ => return None,
        })
    }

    /// True when the operator takes a scalar parameter before the vector
    /// (`topk(3, v)`, `quantile(0.9, v)`, `count_values("l", v)`).
    pub fn takes_param(&self) -> bool {
        matches!(
            self,
            AggOp::Topk | AggOp::Bottomk | AggOp::Quantile | AggOp::CountValues
        )
    }
}

/// `by (…)` / `without (…)` grouping modifier.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Grouping {
    /// No modifier: aggregate everything into one group.
    None,
    /// `by (labels)`.
    By(Vec<String>),
    /// `without (labels)`.
    Without(Vec<String>),
}

/// Vector-matching modifier on binary operations.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VectorMatching {
    /// `on (labels)` when `Some(true)`, `ignoring (labels)` when
    /// `Some(false)`, no modifier when `None`.
    pub on: Option<bool>,
    /// The labels named in `on`/`ignoring`.
    pub labels: Vec<String>,
    /// `group_left` / `group_right` side, with extra labels to copy.
    pub group: Option<(GroupSide, Vec<String>)>,
}

/// Which side is the "many" side in a many-to-one match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupSide {
    /// `group_left`: left is the many side.
    Left,
    /// `group_right`: right is the many side.
    Right,
}

/// A parsed PromQL expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Scalar literal.
    NumberLiteral(f64),
    /// String literal (only valid as a function argument).
    StringLiteral(String),
    /// Instant vector selector: `name{matchers} offset 5m`.
    VectorSelector {
        /// Metric name (may be empty when only matchers are given).
        name: Option<String>,
        /// Label matchers, not including the implicit name matcher.
        matchers: Vec<Matcher>,
        /// `offset` in milliseconds (0 when absent).
        offset_ms: i64,
    },
    /// Range vector selector: `selector[5m]`.
    MatrixSelector {
        /// The inner instant selector.
        selector: Box<Expr>,
        /// Window length in milliseconds.
        range_ms: i64,
    },
    /// Subquery: `expr[range:step]` — evaluate an instant expression at
    /// `step` intervals over `range`, producing a range vector.
    Subquery {
        /// The inner instant expression.
        expr: Box<Expr>,
        /// Window length in milliseconds.
        range_ms: i64,
        /// Evaluation step in milliseconds (`None` = engine default).
        step_ms: Option<i64>,
        /// `offset` in milliseconds.
        offset_ms: i64,
    },
    /// Unary negation.
    Neg(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// `bool` modifier on comparisons.
        bool_modifier: bool,
        /// Vector matching modifiers.
        matching: VectorMatching,
    },
    /// Aggregation: `sum by (l) (expr)`.
    Aggregate {
        /// Operator.
        op: AggOp,
        /// Optional scalar/string parameter (topk, quantile, count_values).
        param: Option<Box<Expr>>,
        /// The aggregated expression.
        expr: Box<Expr>,
        /// Grouping modifier.
        grouping: Grouping,
    },
    /// Function call: `rate(m[5m])`.
    Call {
        /// Function name.
        func: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Parenthesised expression (kept for faithful formatting).
    Paren(Box<Expr>),
}

impl Expr {
    /// Collect every metric name referenced by vector selectors, in
    /// first-appearance order. Used by execution-accuracy analysis and
    /// by the copilot's "relevant metrics" presentation.
    pub fn metric_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk_names(&mut out);
        out
    }

    /// True when any vector selector's metric name cannot be resolved
    /// statically — no literal name and no `=` matcher on `__name__`
    /// (i.e. a name-pattern selector). Routers that partition series
    /// by metric family use this to fall back from single-shard
    /// pushdown to a full scatter-gather.
    pub fn has_dynamic_selector(&self) -> bool {
        match self {
            Expr::VectorSelector { name, matchers, .. } => {
                name.is_none()
                    && !matchers.iter().any(|m| {
                        m.name == dio_tsdb::NAME_LABEL && m.op == dio_tsdb::MatchOp::Eq
                    })
            }
            Expr::MatrixSelector { selector, .. } => selector.has_dynamic_selector(),
            Expr::Subquery { expr, .. } => expr.has_dynamic_selector(),
            Expr::Neg(e) | Expr::Paren(e) => e.has_dynamic_selector(),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.has_dynamic_selector() || rhs.has_dynamic_selector()
            }
            Expr::Aggregate { param, expr, .. } => {
                param.as_deref().is_some_and(Expr::has_dynamic_selector)
                    || expr.has_dynamic_selector()
            }
            Expr::Call { args, .. } => args.iter().any(Expr::has_dynamic_selector),
            Expr::NumberLiteral(_) | Expr::StringLiteral(_) => false,
        }
    }

    fn walk_names(&self, out: &mut Vec<String>) {
        match self {
            Expr::VectorSelector { name, matchers, .. } => {
                if let Some(n) = name {
                    if !out.contains(n) {
                        out.push(n.clone());
                    }
                } else {
                    for m in matchers {
                        if m.name == "__name__" && !out.contains(&m.value) {
                            out.push(m.value.clone());
                        }
                    }
                }
            }
            Expr::MatrixSelector { selector, .. } => selector.walk_names(out),
            Expr::Subquery { expr, .. } => expr.walk_names(out),
            Expr::Neg(e) | Expr::Paren(e) => e.walk_names(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk_names(out);
                rhs.walk_names(out);
            }
            Expr::Aggregate { param, expr, .. } => {
                if let Some(p) = param {
                    p.walk_names(out);
                }
                expr.walk_names(out);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk_names(out);
                }
            }
            Expr::NumberLiteral(_) | Expr::StringLiteral(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_ordering_matches_prometheus() {
        assert!(BinOp::Pow.precedence() > BinOp::Mul.precedence());
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    #[test]
    fn classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_set_op());
        assert!(!BinOp::Div.is_set_op());
        assert!(BinOp::Pow.is_right_assoc());
        assert!(!BinOp::Sub.is_right_assoc());
    }

    #[test]
    fn agg_parse_round_trip() {
        for op in [
            AggOp::Sum,
            AggOp::Avg,
            AggOp::Topk,
            AggOp::Quantile,
            AggOp::CountValues,
        ] {
            assert_eq!(AggOp::parse(op.as_str()), Some(op));
        }
        assert_eq!(AggOp::parse("mean"), None);
        assert!(AggOp::Topk.takes_param());
        assert!(!AggOp::Sum.takes_param());
    }

    #[test]
    fn metric_names_collects_unique_in_order() {
        let e = Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(Expr::VectorSelector {
                name: Some("success".into()),
                matchers: vec![],
                offset_ms: 0,
            }),
            rhs: Box::new(Expr::Binary {
                op: BinOp::Add,
                lhs: Box::new(Expr::VectorSelector {
                    name: Some("attempt".into()),
                    matchers: vec![],
                    offset_ms: 0,
                }),
                rhs: Box::new(Expr::VectorSelector {
                    name: Some("success".into()),
                    matchers: vec![],
                    offset_ms: 0,
                }),
                bool_modifier: false,
                matching: VectorMatching::default(),
            }),
            bool_modifier: false,
            matching: VectorMatching::default(),
        };
        assert_eq!(e.metric_names(), vec!["success", "attempt"]);
    }
}
