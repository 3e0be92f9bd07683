//! Expert contributions and their application to the domain DB.

use dio_catalog::{DomainDb, ExpertNote, FunctionDef, MetricDef};
use serde::{Deserialize, Serialize};

/// What an expert contributes when resolving an issue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Contribution {
    /// A new or corrected metric definition.
    MetricDoc(MetricDef),
    /// A bespoke function definition.
    Function(FunctionDef),
    /// A free-form guidance note (retrievable context).
    Note {
        /// Short title.
        title: String,
        /// The guidance text.
        text: String,
    },
    /// A worked example (question + PromQL) for few-shot prompting.
    Exemplar {
        /// The example question.
        question: String,
        /// Metrics the example uses.
        metrics: Vec<String>,
        /// Reference PromQL.
        promql: String,
    },
}

impl Contribution {
    /// Merge this contribution into the domain database with
    /// attribution. Exemplars don't live in the DB; they are returned
    /// to the caller so the copilot can extend its few-shot pool.
    pub fn apply(
        &self,
        db: &mut DomainDb,
        author: &str,
    ) -> Option<(String, Vec<String>, String)> {
        match self {
            Contribution::MetricDoc(m) => {
                db.add_expert_metric(m.clone(), author);
                None
            }
            Contribution::Function(f) => {
                db.add_expert_function(f.clone(), author);
                None
            }
            Contribution::Note { title, text } => {
                db.add_expert_note(ExpertNote {
                    title: title.clone(),
                    text: text.clone(),
                    author: author.to_string(),
                });
                None
            }
            Contribution::Exemplar {
                question,
                metrics,
                promql,
            } => Some((question.clone(), metrics.clone(), promql.clone())),
        }
    }

    /// A short human description for issue comments.
    pub fn describe(&self) -> String {
        match self {
            Contribution::MetricDoc(m) => format!("metric documentation for {}", m.name),
            Contribution::Function(f) => format!("function definition {}", f.name),
            Contribution::Note { title, .. } => format!("guidance note '{title}'"),
            Contribution::Exemplar { question, .. } => {
                format!("worked exemplar for '{question}'")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_catalog::{generate_catalog, CatalogConfig};
    use dio_catalog::Provenance;

    fn db() -> DomainDb {
        DomainDb::from_catalog(generate_catalog(&CatalogConfig {
            slice_variants: false,
            sbi_counters: false,
            ..CatalogConfig::default()
        }))
    }

    #[test]
    fn note_contribution_lands_in_db() {
        let mut d = db();
        let before = d.note_count();
        let c = Contribution::Note {
            title: "lcs-naming".into(),
            text: "LCS NI-LR counters use the spelled-out name.".into(),
        };
        assert!(c.apply(&mut d, "expert:alice").is_none());
        assert_eq!(d.note_count(), before + 1);
    }

    #[test]
    fn function_contribution_is_attributed() {
        let mut d = db();
        let f = FunctionDef {
            name: "lcs_ni_lr_rate".into(),
            description: "LCS NI-LR success rate".into(),
            params: vec![],
            body: "100 * sum(x) / sum(y)".into(),
            output: "percent".into(),
            author: "expert:alice".into(),
        };
        Contribution::Function(f).apply(&mut d, "expert:alice");
        assert!(d.function("lcs_ni_lr_rate").is_some());
    }

    #[test]
    fn metric_contribution_is_attributed() {
        let mut d = db();
        let mut m = d.metrics().next().unwrap().clone();
        m.name = "expert_contributed_metric".into();
        Contribution::MetricDoc(m).apply(&mut d, "expert:bob");
        assert_eq!(
            d.metric_provenance("expert_contributed_metric"),
            Some(&Provenance::Expert {
                author: "expert:bob".into()
            })
        );
    }

    #[test]
    fn exemplar_returns_to_caller() {
        let mut d = db();
        let c = Contribution::Exemplar {
            question: "q".into(),
            metrics: vec!["m".into()],
            promql: "sum(m)".into(),
        };
        let out = c.apply(&mut d, "expert:carol").unwrap();
        assert_eq!(out.2, "sum(m)");
    }

    #[test]
    fn describe_is_informative() {
        let c = Contribution::Note {
            title: "t".into(),
            text: "x".into(),
        };
        assert!(c.describe().contains("'t'"));
    }
}
