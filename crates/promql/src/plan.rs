//! Physical query plans.
//!
//! The planner compiles a parsed PromQL AST into a small tree of batch
//! operators plus a side table of *scans* — deduplicatable selector
//! specs the executor materialises (and memoises) as decoded column
//! batches. Everything the batch operators don't cover compiles to an
//! [`PlanNode::Interp`] node that defers to the tree-walking
//! interpreter, which doubles as the differential-testing oracle: the
//! two engines must agree byte-for-byte on every query.
//!
//! Operator set (see DESIGN.md for the full opcode table):
//!
//! | opcode        | PromQL shape                              |
//! |---------------|-------------------------------------------|
//! | `number`      | scalar literal                            |
//! | `string`      | string literal                            |
//! | `scan`        | `name{matchers} offset o`                 |
//! | `range_scan`  | `sel[r]`                                  |
//! | `fused_range` | `rate(sel[r])`, `avg_over_time(…)`, …     |
//! | `neg`         | `-expr`                                   |
//! | `binop`       | arithmetic / comparison / set operators   |
//! | `agg`         | `sum by (l) (…)`, `topk(k, …)`, …         |
//! | `interp`      | everything else (subqueries, `absent`, …) |

use crate::ast::{AggOp, BinOp, Expr, Grouping, VectorMatching};
use crate::eval::kernels::RangeKernel;
use dio_tsdb::{MatchOp, Matcher};

/// One physical selector: the full matcher list (including the
/// implicit `__name__` matcher) plus the selector offset.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScanSpec {
    /// Matchers, including the implicit name matcher.
    pub matchers: Vec<Matcher>,
    /// `offset` in milliseconds.
    pub offset_ms: i64,
    /// Widest `[range]` referencing this scan, in milliseconds (0 for
    /// instant-only scans). Not part of the dedup key; the executor
    /// uses it to bound how far back it must materialise columns.
    pub max_range_ms: i64,
}

/// A batch operator in the physical plan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PlanNode {
    /// Scalar literal.
    Number(f64),
    /// String literal.
    String(String),
    /// Instant-vector selector over scan `scan`.
    InstantScan {
        /// Index into [`PhysicalPlan::scans`].
        scan: usize,
    },
    /// Range-vector selector over scan `scan`.
    RangeScan {
        /// Index into [`PhysicalPlan::scans`].
        scan: usize,
        /// Window length in milliseconds.
        range_ms: i64,
    },
    /// A range function fused with its selector: the kernel runs
    /// directly over column windows, never materialising a matrix.
    FusedRange {
        /// Index into [`PhysicalPlan::scans`].
        scan: usize,
        /// Window length in milliseconds.
        range_ms: i64,
        /// The shared column kernel.
        kernel: RangeKernel,
        /// Compiled scalar parameter (`quantile_over_time`,
        /// `predict_linear`).
        param: Option<Box<PlanNode>>,
    },
    /// Unary negation.
    Neg(Box<PlanNode>),
    /// Binary operator over two sub-plans.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<PlanNode>,
        /// Right operand.
        rhs: Box<PlanNode>,
        /// `bool` modifier on comparisons.
        bool_modifier: bool,
        /// Vector matching modifiers.
        matching: VectorMatching,
    },
    /// Aggregation over a sub-plan.
    Aggregate {
        /// Operator.
        op: AggOp,
        /// Compiled parameter (topk, quantile, count_values).
        param: Option<Box<PlanNode>>,
        /// The aggregated sub-plan.
        input: Box<PlanNode>,
        /// Grouping modifier.
        grouping: Grouping,
    },
    /// Fallback: evaluate the expression with the tree-walking
    /// interpreter (subqueries, `histogram_quantile`, `absent`, label
    /// manipulation, time functions, …).
    Interp(Expr),
}

impl PlanNode {
    /// Short opcode name, for tests to say which node they expect.
    #[cfg(test)]
    pub(crate) fn opcode(&self) -> &'static str {
        match self {
            PlanNode::Number(_) => "number",
            PlanNode::String(_) => "string",
            PlanNode::InstantScan { .. } => "scan",
            PlanNode::RangeScan { .. } => "range_scan",
            PlanNode::FusedRange { .. } => "fused_range",
            PlanNode::Neg(_) => "neg",
            PlanNode::Binary { .. } => "binop",
            PlanNode::Aggregate { .. } => "agg",
            PlanNode::Interp(_) => "interp",
        }
    }
}

/// A compiled query: operator tree plus the scan table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PhysicalPlan {
    /// Root operator.
    pub root: PlanNode,
    /// Physical selectors referenced by scan index. Identical
    /// selectors share one entry (and thus one materialised batch set).
    pub scans: Vec<ScanSpec>,
}

/// Compile `expr` into a physical plan.
pub(crate) fn plan(expr: &Expr) -> PhysicalPlan {
    let mut planner = Planner { scans: Vec::new() };
    let root = planner.compile(expr);
    PhysicalPlan {
        root,
        scans: planner.scans,
    }
}

struct Planner {
    scans: Vec<ScanSpec>,
}

impl Planner {
    fn compile(&mut self, expr: &Expr) -> PlanNode {
        match expr {
            Expr::NumberLiteral(n) => PlanNode::Number(*n),
            Expr::StringLiteral(s) => PlanNode::String(s.clone()),
            Expr::Paren(e) => self.compile(e),
            Expr::VectorSelector {
                name,
                matchers,
                offset_ms,
            } => PlanNode::InstantScan {
                scan: self.scan(name.as_deref(), matchers, *offset_ms, 0),
            },
            Expr::MatrixSelector { selector, range_ms } => {
                match self.compile_range_scan(selector, *range_ms) {
                    Some(node) => node,
                    // A non-selector inside `[..]`: let the interpreter
                    // produce its type error.
                    None => PlanNode::Interp(expr.clone()),
                }
            }
            Expr::Neg(e) => PlanNode::Neg(Box::new(self.compile(e))),
            Expr::Binary {
                op,
                lhs,
                rhs,
                bool_modifier,
                matching,
            } => PlanNode::Binary {
                op: *op,
                lhs: Box::new(self.compile(lhs)),
                rhs: Box::new(self.compile(rhs)),
                bool_modifier: *bool_modifier,
                matching: matching.clone(),
            },
            Expr::Aggregate {
                op,
                param,
                expr: inner,
                grouping,
            } => PlanNode::Aggregate {
                op: *op,
                param: param.as_ref().map(|p| Box::new(self.compile(p))),
                input: Box::new(self.compile(inner)),
                grouping: grouping.clone(),
            },
            Expr::Call { func, args } => self
                .compile_call(func, args)
                .unwrap_or_else(|| PlanNode::Interp(expr.clone())),
            // Subqueries re-evaluate an instant expression at many
            // inner steps; the interpreter handles them.
            Expr::Subquery { .. } => PlanNode::Interp(expr.clone()),
        }
    }

    /// Fuse a range-family call onto its selector scan. `None` when the
    /// shape doesn't fit (wrong arity, subquery argument, exotic
    /// function) — the caller falls back to the interpreter.
    fn compile_call(&mut self, func: &str, args: &[Expr]) -> Option<PlanNode> {
        let kernel = RangeKernel::from_name(func)?;
        let (param_expr, matrix_expr) = match kernel.param_pos() {
            None => {
                if args.len() != 1 {
                    return None;
                }
                (None, &args[0])
            }
            Some(crate::eval::kernels::ParamPos::BeforeMatrix) => {
                if args.len() != 2 {
                    return None;
                }
                (Some(&args[0]), &args[1])
            }
            Some(crate::eval::kernels::ParamPos::AfterMatrix) => {
                if args.len() != 2 {
                    return None;
                }
                (Some(&args[1]), &args[0])
            }
        };
        let (selector, range_ms) = match peel(matrix_expr) {
            Expr::MatrixSelector { selector, range_ms } => (selector, *range_ms),
            _ => return None, // subquery or scalar argument: interpreter
        };
        let PlanNode::RangeScan { scan, .. } = self.compile_range_scan(selector, range_ms)?
        else {
            return None;
        };
        let param = param_expr.map(|p| Box::new(self.compile(p)));
        Some(PlanNode::FusedRange {
            scan,
            range_ms,
            kernel,
            param,
        })
    }

    fn compile_range_scan(&mut self, selector: &Expr, range_ms: i64) -> Option<PlanNode> {
        let Expr::VectorSelector {
            name,
            matchers,
            offset_ms,
        } = selector
        else {
            return None;
        };
        Some(PlanNode::RangeScan {
            scan: self.scan(name.as_deref(), matchers, *offset_ms, range_ms),
            range_ms,
        })
    }

    /// Intern a selector spec, reusing an existing scan when an
    /// identical selector already appeared in the query.
    fn scan(
        &mut self,
        name: Option<&str>,
        matchers: &[Matcher],
        offset_ms: i64,
        range_ms: i64,
    ) -> usize {
        let mut all = Vec::with_capacity(matchers.len() + 1);
        if let Some(n) = name {
            all.push(Matcher {
                name: "__name__".to_string(),
                op: MatchOp::Eq,
                value: n.to_string(),
            });
        }
        all.extend(matchers.iter().cloned());
        // Dedup on (matchers, offset) only; a scan shared between
        // ranges keeps the widest window.
        if let Some(i) = self
            .scans
            .iter()
            .position(|s| s.matchers == all && s.offset_ms == offset_ms)
        {
            self.scans[i].max_range_ms = self.scans[i].max_range_ms.max(range_ms);
            return i;
        }
        self.scans.push(ScanSpec {
            matchers: all,
            offset_ms,
            max_range_ms: range_ms,
        });
        self.scans.len() - 1
    }
}

/// Strip parentheses.
fn peel(expr: &Expr) -> &Expr {
    match expr {
        Expr::Paren(e) => peel(e),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn plan_of(q: &str) -> PhysicalPlan {
        plan(&parse(q).unwrap())
    }

    #[test]
    fn selector_compiles_to_scan() {
        let p = plan_of(r#"up{instance="a"} offset 5m"#);
        assert_eq!(p.root.opcode(), "scan");
        assert_eq!(p.scans.len(), 1);
        assert_eq!(p.scans[0].offset_ms, 300_000);
        assert_eq!(p.scans[0].matchers.len(), 2);
        assert_eq!(p.scans[0].matchers[0].value, "up");
    }

    #[test]
    fn rate_fuses_onto_scan() {
        let p = plan_of("sum(rate(reqs_total[5m]))");
        let PlanNode::Aggregate { input, .. } = &p.root else {
            panic!("expected agg root, got {}", p.root.opcode());
        };
        let PlanNode::FusedRange {
            kernel, range_ms, ..
        } = input.as_ref()
        else {
            panic!("expected fused_range, got {}", input.opcode());
        };
        assert_eq!(*kernel, RangeKernel::Rate);
        assert_eq!(*range_ms, 300_000);
    }

    #[test]
    fn parameterised_kernels_fuse() {
        let p = plan_of("quantile_over_time(0.9, m[10m])");
        let PlanNode::FusedRange { kernel, param, .. } = &p.root else {
            panic!("expected fused_range");
        };
        assert_eq!(*kernel, RangeKernel::Quantile);
        assert_eq!(param.as_deref(), Some(&PlanNode::Number(0.9)));
        let p = plan_of("predict_linear(m[10m], 60)");
        let PlanNode::FusedRange { kernel, param, .. } = &p.root else {
            panic!("expected fused_range");
        };
        assert_eq!(*kernel, RangeKernel::PredictLinear);
        assert_eq!(param.as_deref(), Some(&PlanNode::Number(60.0)));
    }

    #[test]
    fn identical_selectors_share_a_scan() {
        let p = plan_of("rate(m[5m]) / rate(m[10m]) + avg_over_time(m[5m])");
        // Same selector `m` appears three times; one scan suffices.
        assert_eq!(p.scans.len(), 1);
    }

    #[test]
    fn distinct_selectors_get_distinct_scans() {
        let p = plan_of(r#"a / a{x="1"} + (a offset 1m)"#);
        assert_eq!(p.scans.len(), 3);
    }

    #[test]
    fn exotic_shapes_fall_back_to_interp() {
        assert_eq!(plan_of("absent(m)").root.opcode(), "interp");
        assert_eq!(plan_of("max_over_time(sum(m)[5m:1m])").root.opcode(), "interp");
        assert_eq!(plan_of("histogram_quantile(0.9, m_bucket)").root.opcode(), "interp");
        // Wrong arity on a kernel function: interpreter reports it.
        assert_eq!(plan_of("rate(m[5m], 3)").root.opcode(), "interp");
    }

    #[test]
    fn binary_over_mixed_children() {
        let p = plan_of("sum(rate(a[5m])) / scalar(b)");
        let PlanNode::Binary { lhs, rhs, .. } = &p.root else {
            panic!("expected binop");
        };
        assert_eq!(lhs.opcode(), "agg");
        assert_eq!(rhs.opcode(), "interp");
    }
}
