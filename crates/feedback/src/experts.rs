//! The pre-identified expert registry.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A domain expert allowed to resolve issues.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Expert {
    /// Stable identifier, e.g. `expert:alice`.
    pub id: String,
    /// Display name.
    pub name: String,
    /// Areas of expertise (free-form tags: `amf`, `user-plane`, …).
    pub expertise: Vec<String>,
}

/// Registry of experts; only registered ids may resolve issues.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExpertRegistry {
    experts: BTreeMap<String, Expert>,
}

impl ExpertRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        ExpertRegistry::default()
    }

    /// A registry with a representative expert pool.
    pub fn with_defaults() -> Self {
        let mut r = ExpertRegistry::new();
        for (id, name, tags) in [
            ("expert:alice", "Alice (RAN core)", vec!["amf", "mobility"]),
            ("expert:bob", "Bob (session mgmt)", vec!["smf", "pdu"]),
            ("expert:carol", "Carol (user plane)", vec!["upf", "n4"]),
        ] {
            r.register(Expert {
                id: id.to_string(),
                name: name.to_string(),
                expertise: tags.into_iter().map(String::from).collect(),
            });
        }
        r
    }

    /// Register (or replace) an expert.
    pub fn register(&mut self, expert: Expert) {
        self.experts.insert(expert.id.clone(), expert);
    }

    /// Remove an expert; returns whether one was removed.
    pub fn remove(&mut self, id: &str) -> bool {
        self.experts.remove(id).is_some()
    }

    /// Is this id a registered expert?
    pub fn is_expert(&self, id: &str) -> bool {
        self.experts.contains_key(id)
    }

    /// Look up an expert.
    pub fn get(&self, id: &str) -> Option<&Expert> {
        self.experts.get(id)
    }

    /// Number of registered experts.
    pub fn len(&self) -> usize {
        self.experts.len()
    }

    /// True when no experts are registered.
    pub fn is_empty(&self) -> bool {
        self.experts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pool_registered() {
        let r = ExpertRegistry::with_defaults();
        assert_eq!(r.len(), 3);
        assert!(r.is_expert("expert:alice"));
        assert!(!r.is_expert("rando"));
    }

    #[test]
    fn register_and_remove() {
        let mut r = ExpertRegistry::new();
        assert!(r.is_empty());
        r.register(Expert {
            id: "expert:dave".into(),
            name: "Dave".into(),
            expertise: vec!["nrf".into()],
        });
        assert!(r.is_expert("expert:dave"));
        assert!(r.remove("expert:dave"));
        assert!(!r.remove("expert:dave"));
    }
}
