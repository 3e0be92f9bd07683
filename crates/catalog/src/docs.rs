//! Vendor-documentation rendering and segmentation.
//!
//! §4 of the paper: "The text from the documentation for different
//! metrics, made available by the vNF provider, is extracted and
//! segmented into text samples containing the names and detailed
//! description of each of the counters." This module simulates both
//! directions: it renders the generated catalog into a monolithic
//! vendor-manual text, and segments such text back into per-metric
//! [`DocSample`]s.

use crate::generator::Catalog;
use serde::{Deserialize, Serialize};

/// One segmented text sample: a metric (or function) name plus its
/// detailed description — the unit of embedding and retrieval.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DocSample {
    /// The counter or function name.
    pub name: String,
    /// The descriptive text.
    pub text: String,
}

impl DocSample {
    /// The string fed to the embedder.
    pub fn embedding_text(&self) -> String {
        format!("{}: {}", self.name, self.text)
    }
}

/// Render the catalog as a vendor manual: one section per metric, with a
/// header line and the description body.
pub fn render_manual(catalog: &Catalog) -> String {
    let mut out = String::new();
    for m in &catalog.metrics {
        out.push_str("## ");
        out.push_str(&m.name);
        out.push('\n');
        out.push_str(&m.description);
        out.push_str("\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_catalog, CatalogConfig};

    #[test]
    fn render_manual_has_one_section_per_metric() {
        let catalog = generate_catalog(&CatalogConfig {
            slice_variants: false,
            sbi_counters: false,
            ..CatalogConfig::default()
        });
        let manual = render_manual(&catalog);
        let sections: Vec<&str> = manual.split("## ").skip(1).collect();
        assert_eq!(sections.len(), catalog.len());
        for (section, m) in sections.iter().zip(&catalog.metrics) {
            assert_eq!(*section, format!("{}\n{}\n\n", m.name, m.description));
        }
    }

    #[test]
    fn embedding_text_prefixes_name() {
        let s = DocSample {
            name: "m1".into(),
            text: "does things".into(),
        };
        assert_eq!(s.embedding_text(), "m1: does things");
    }
}
