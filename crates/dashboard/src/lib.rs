//! # dio-dashboard
//!
//! Dashboard generation substrate.
//!
//! The paper's copilot "generate\[s\] code for creating time-series
//! visualization of the relevant variables on a dashboard" (§3.3) —
//! in practice a Grafana-style JSON document of panels with PromQL
//! targets. This crate provides:
//!
//! * a typed [`Dashboard`]/`Panel` model with JSON serialisation in a
//!   Grafana-like shape,
//! * a `generate` module that turns relevant metrics into panels
//!   (rate panels for counters, level panels for gauges, plus a stat
//!   panel for the direct answer),
//! * an ASCII renderer that plots panel targets from the query engine —
//!   the offline stand-in for a browser dashboard.

mod generate;
mod model;
mod render;

pub use generate::{generate_dashboard, PanelSpecHint};
pub use model::{Dashboard, PanelKind, Target, TimeRange};
pub use render::render_ascii;
