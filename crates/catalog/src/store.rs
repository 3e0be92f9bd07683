//! The runtime domain-specific database (paper §3.1).
//!
//! Holds metric definitions and expert function definitions, supports
//! lookup by name, produces the text samples the context extractor
//! embeds, and accepts expert contributions at runtime (the §3.4
//! feedback loop "is then added to the domain-specific database and
//! attributed to the relevant expert as its source").

use crate::docs::DocSample;
use crate::functions::{builtin_functions, FunctionDef};
use crate::generator::{generate_catalog, Catalog, CatalogConfig};
use crate::types::{MetricDef, ProcedureGroup};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An entry's provenance: shipped with the vendor docs or contributed
/// by an expert through the feedback loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Provenance {
    /// Part of the generated vendor catalog.
    Vendor,
    /// Contributed by a named expert via the feedback loop.
    Expert {
        /// Expert identity, e.g. `expert:alice`.
        author: String,
    },
}

/// The domain-specific database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainDb {
    metrics: BTreeMap<String, (MetricDef, Provenance)>,
    functions: BTreeMap<String, (FunctionDef, Provenance)>,
    groups: Vec<ProcedureGroup>,
    /// Free-form expert notes (question → guidance), added via feedback.
    notes: Vec<ExpertNote>,
}

/// A free-form expert note: retrievable context that is neither a metric
/// nor a function — e.g. "to compute LCS NI-LR success rate, use …".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpertNote {
    /// Short title used as the sample name.
    pub title: String,
    /// The guidance text.
    pub text: String,
    /// Contributing expert.
    pub author: String,
}

impl DomainDb {
    /// Build from a generated catalog plus the built-in function library.
    pub fn from_catalog(catalog: Catalog) -> Self {
        let mut metrics = BTreeMap::new();
        for m in catalog.metrics {
            metrics.insert(m.name.clone(), (m, Provenance::Vendor));
        }
        let mut functions = BTreeMap::new();
        for f in builtin_functions() {
            functions.insert(f.name.clone(), (f, Provenance::Vendor));
        }
        DomainDb {
            metrics,
            functions,
            groups: catalog.groups,
            notes: Vec::new(),
        }
    }

    /// Build with the default catalog configuration.
    pub fn standard() -> Self {
        DomainDb::from_catalog(generate_catalog(&CatalogConfig::default()))
    }

    /// Number of metric definitions.
    pub fn metric_count(&self) -> usize {
        self.metrics.len()
    }

    /// Number of expert notes.
    pub fn note_count(&self) -> usize {
        self.notes.len()
    }

    /// Look up a metric definition.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.metrics.get(name).map(|(m, _)| m)
    }

    /// Look up a metric's provenance.
    pub fn metric_provenance(&self, name: &str) -> Option<&Provenance> {
        self.metrics.get(name).map(|(_, p)| p)
    }

    /// Look up a function definition.
    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.functions.get(name).map(|(f, _)| f)
    }

    /// Iterate all metric definitions in name order.
    pub fn metrics(&self) -> impl Iterator<Item = &MetricDef> {
        self.metrics.values().map(|(m, _)| m)
    }

    /// Iterate all function definitions in name order.
    pub fn functions(&self) -> impl Iterator<Item = &FunctionDef> {
        self.functions.values().map(|(f, _)| f)
    }

    /// Procedure groups from the generated catalog.
    pub fn groups(&self) -> &[ProcedureGroup] {
        &self.groups
    }

    /// Add (or replace) a metric contributed by an expert.
    pub fn add_expert_metric(&mut self, metric: MetricDef, author: &str) {
        self.metrics.insert(
            metric.name.clone(),
            (
                metric,
                Provenance::Expert {
                    author: author.to_string(),
                },
            ),
        );
    }

    /// Add (or replace) a function contributed by an expert.
    pub fn add_expert_function(&mut self, function: FunctionDef, author: &str) {
        self.functions.insert(
            function.name.clone(),
            (
                function,
                Provenance::Expert {
                    author: author.to_string(),
                },
            ),
        );
    }

    /// Add a free-form expert note.
    pub fn add_expert_note(&mut self, note: ExpertNote) {
        self.notes.push(note);
    }

    /// All text samples for embedding: one per metric, one per function,
    /// one per expert note — the corpus the context extractor indexes.
    pub fn text_samples(&self) -> Vec<DocSample> {
        let mut out: Vec<DocSample> = Vec::with_capacity(self.metrics.len() + self.functions.len());
        for (m, _) in self.metrics.values() {
            out.push(DocSample {
                name: m.name.clone(),
                text: m.description.clone(),
            });
        }
        for (f, _) in self.functions.values() {
            out.push(DocSample {
                name: format!("function:{}", f.name),
                text: f.text_sample(),
            });
        }
        for n in &self.notes {
            out.push(DocSample {
                name: format!("note:{}", n.title),
                text: format!("{} (contributed by {})", n.text, n.author),
            });
        }
        out
    }

    /// Metric names only (what the DIN-SQL baseline gets as "schema").
    pub fn metric_names(&self) -> Vec<&str> {
        self.metrics.keys().map(|s| s.as_str()).collect()
    }

    /// Serialise the whole domain DB (vendor entries, expert
    /// contributions, provenance, notes) to JSON — persistence across
    /// copilot restarts.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("domain db serialises")
    }

    /// Restore a domain DB from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::NetworkFunction;
    use crate::types::{CounterType, MetricRole, TrafficHint, Unit};

    fn small_db() -> DomainDb {
        DomainDb::from_catalog(generate_catalog(&CatalogConfig {
            slice_variants: false,
            sbi_counters: false,
            ..CatalogConfig::default()
        }))
    }

    fn dummy_metric(name: &str) -> MetricDef {
        MetricDef {
            name: name.to_string(),
            nf: NetworkFunction::Amf,
            service: "cc".into(),
            procedure: "custom".into(),
            procedure_display: "custom".into(),
            role: MetricRole::Attempt,
            counter_type: CounterType::Counter64,
            unit: Unit::Count,
            description: "An expert-contributed counter.".into(),
            spec_ref: "3GPP TS 23.501".into(),
            traffic: TrafficHint {
                base_rate: 1.0,
                couple_ratio: None,
            },
        }
    }

    #[test]
    fn standard_db_matches_paper_scale() {
        let db = DomainDb::standard();
        assert!(db.metric_count() >= 3000);
        assert!(db.functions().count() >= 8);
    }

    #[test]
    fn lookup_and_provenance() {
        let db = small_db();
        let name = db.metric_names()[0].to_string();
        assert!(db.metric(&name).is_some());
        assert_eq!(db.metric_provenance(&name), Some(&Provenance::Vendor));
        assert!(db.metric("nope").is_none());
    }

    #[test]
    fn expert_contribution_is_attributed() {
        let mut db = small_db();
        db.add_expert_metric(dummy_metric("custom_expert_counter"), "expert:alice");
        assert!(db.metric("custom_expert_counter").is_some());
        assert_eq!(
            db.metric_provenance("custom_expert_counter"),
            Some(&Provenance::Expert {
                author: "expert:alice".to_string()
            })
        );
    }

    #[test]
    fn text_samples_cover_metrics_functions_and_notes() {
        let mut db = small_db();
        let base = db.text_samples().len();
        assert_eq!(base, db.metric_count() + db.functions().count());
        db.add_expert_note(ExpertNote {
            title: "lcs-guidance".into(),
            text: "Use the network induced location request counters.".into(),
            author: "expert:bob".into(),
        });
        let samples = db.text_samples();
        assert_eq!(samples.len(), base + 1);
        assert!(samples.iter().any(|s| s.name == "note:lcs-guidance"));
        assert!(samples
            .iter()
            .find(|s| s.name == "note:lcs-guidance")
            .unwrap()
            .text
            .contains("expert:bob"));
    }

    #[test]
    fn metric_names_are_sorted_and_unique() {
        let db = small_db();
        let names = db.metric_names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn domain_db_round_trips_through_json_with_provenance() {
        let mut db = small_db();
        db.add_expert_metric(dummy_metric("expert_added"), "expert:alice");
        db.add_expert_note(ExpertNote {
            title: "note".into(),
            text: "guidance".into(),
            author: "expert:bob".into(),
        });
        let json = db.to_json();
        let back = DomainDb::from_json(&json).unwrap();
        assert_eq!(back.metric_count(), db.metric_count());
        assert_eq!(back.note_count(), 1);
        assert_eq!(
            back.metric_provenance("expert_added"),
            Some(&Provenance::Expert {
                author: "expert:alice".into()
            })
        );
        assert!(DomainDb::from_json("{broken").is_err());
    }

    #[test]
    fn expert_function_can_extend_library() {
        let mut db = small_db();
        let f = FunctionDef {
            name: "ni_lr_success_rate".into(),
            description: "Success rate of the LCS network induced location request procedure.".into(),
            params: vec![],
            body: "100 * sum(amflcs_lcs_ni_lr_success) / sum(amflcs_lcs_ni_lr_attempt)".into(),
            output: "percent".into(),
            author: "expert:carol".into(),
        };
        db.add_expert_function(f, "expert:carol");
        assert!(db.function("ni_lr_success_rate").is_some());
        assert_eq!(db.functions().count(), builtin_functions().len() + 1);
    }
}
