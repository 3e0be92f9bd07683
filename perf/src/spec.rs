//! `BENCHMARK.json` as this program reads it: the bounds `--compare`
//! judges by, and (in tests) the metric lists the program must print.

use serde::Deserialize;
use std::path::Path;

// The whole file is mirrored so a malformed one fails to load; the
// program itself reads names, directions and bounds, tests the rest.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Deserialize)]
pub struct SpecWorkload {
    pub name: String,
    pub why: String,
}

#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Deserialize)]
pub struct SpecEndToEnd {
    pub name: String,
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's value a change may be worse by.
    pub bound: f64,
}

#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Deserialize)]
pub struct SpecLayer {
    pub name: String,
    pub unit: String,
    pub better: String,
}

#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Deserialize)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<SpecWorkload>,
    pub end_to_end: Vec<SpecEndToEnd>,
    pub per_layer: Vec<SpecLayer>,
}

pub fn load(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}
