//! The embedded issue tracker.

use crate::contribution::Contribution;
use crate::experts::ExpertRegistry;
use crate::issue::{Comment, Issue, IssueBody, IssueId, IssueState};
use dio_catalog::DomainDb;
use serde::{Deserialize, Serialize};

/// Tracker errors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrackerError {
    /// Unknown issue id.
    NotFound(IssueId),
    /// The resolver is not a registered expert.
    NotAnExpert(String),
    /// The issue is not open.
    NotOpen(IssueId),
}

impl std::fmt::Display for TrackerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrackerError::NotFound(id) => write!(f, "issue #{id} not found"),
            TrackerError::NotAnExpert(who) => {
                write!(f, "'{who}' is not a registered expert")
            }
            TrackerError::NotOpen(id) => write!(f, "issue #{id} is not open"),
        }
    }
}

impl std::error::Error for TrackerError {}

/// The issue tracker plus its expert registry.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IssueTracker {
    issues: Vec<Issue>,
    experts: ExpertRegistry,
}

impl IssueTracker {
    /// Tracker with the default expert pool.
    pub fn new() -> Self {
        IssueTracker {
            issues: Vec::new(),
            experts: ExpertRegistry::with_defaults(),
        }
    }

    /// The expert registry.
    pub fn experts(&self) -> &ExpertRegistry {
        &self.experts
    }

    /// File an issue from a copilot interaction (the raise-hand button).
    pub fn raise_hand(
        &mut self,
        question: &str,
        context_metrics: Vec<String>,
        response: &str,
    ) -> IssueId {
        let id = self.issues.len() as IssueId;
        let title = format!("[copilot] expert help: {}", truncate(question, 60));
        self.issues.push(Issue::new(
            id,
            title,
            IssueBody {
                question: question.to_string(),
                context_metrics,
                response: response.to_string(),
            },
        ));
        id
    }

    /// Look up an issue.
    pub fn get(&self, id: IssueId) -> Option<&Issue> {
        self.issues.get(id as usize)
    }

    /// Total number of issues.
    pub fn len(&self) -> usize {
        self.issues.len()
    }

    /// True when no issues exist.
    pub fn is_empty(&self) -> bool {
        self.issues.is_empty()
    }

    /// Comment on an issue (any author).
    pub fn comment(
        &mut self,
        id: IssueId,
        author: &str,
        text: &str,
    ) -> Result<(), TrackerError> {
        let issue = self
            .issues
            .get_mut(id as usize)
            .ok_or(TrackerError::NotFound(id))?;
        issue.comments.push(Comment {
            author: author.to_string(),
            text: text.to_string(),
        });
        Ok(())
    }

    /// Resolve an open issue with a contribution: the contribution is
    /// merged into `db` with attribution, the issue transitions to
    /// `Resolved`, and any exemplar payload is returned for the
    /// copilot's few-shot pool.
    pub fn resolve(
        &mut self,
        id: IssueId,
        expert_id: &str,
        contribution: Contribution,
        db: &mut DomainDb,
    ) -> Result<Option<(String, Vec<String>, String)>, TrackerError> {
        if !self.experts.is_expert(expert_id) {
            return Err(TrackerError::NotAnExpert(expert_id.to_string()));
        }
        let issue = self
            .issues
            .get_mut(id as usize)
            .ok_or(TrackerError::NotFound(id))?;
        if issue.state != IssueState::Open {
            return Err(TrackerError::NotOpen(id));
        }
        let exemplar = contribution.apply(db, expert_id);
        issue.comments.push(Comment {
            author: expert_id.to_string(),
            text: format!("resolved with {}", contribution.describe()),
        });
        issue.state = IssueState::Resolved;
        issue.resolved_by = Some(expert_id.to_string());
        Ok(exemplar)
    }

    /// Serialise the tracker (issues + expert registry) to JSON — the
    /// analogue of the GitHub repository persisting its issue history.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("tracker serialises")
    }

    /// Restore a tracker from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Close an issue without a contribution.
    pub fn close(&mut self, id: IssueId) -> Result<(), TrackerError> {
        let issue = self
            .issues
            .get_mut(id as usize)
            .ok_or(TrackerError::NotFound(id))?;
        if issue.state != IssueState::Open {
            return Err(TrackerError::NotOpen(id));
        }
        issue.state = IssueState::Closed;
        Ok(())
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let t: String = s.chars().take(n).collect();
        format!("{t}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_catalog::{generate_catalog, CatalogConfig};

    fn db() -> DomainDb {
        DomainDb::from_catalog(generate_catalog(&CatalogConfig {
            slice_variants: false,
            sbi_counters: false,
            ..CatalogConfig::default()
        }))
    }

    fn tracker_with_issue() -> (IssueTracker, IssueId) {
        let mut t = IssueTracker::new();
        let id = t.raise_hand(
            "what is the LCS NI-LR success rate",
            vec!["amflcs_lcs_ni_lr_attempt".into()],
            "I could not find a confident answer.",
        );
        (t, id)
    }

    #[test]
    fn raise_hand_files_open_issue() {
        let (t, id) = tracker_with_issue();
        let issue = t.get(id).unwrap();
        assert_eq!(issue.state, IssueState::Open);
        assert!(issue.title.contains("expert help"));
        assert_eq!(issue.body.context_metrics.len(), 1);
    }

    #[test]
    fn resolution_requires_registered_expert() {
        let (mut t, id) = tracker_with_issue();
        let mut d = db();
        let err = t
            .resolve(
                id,
                "not-an-expert",
                Contribution::Note {
                    title: "x".into(),
                    text: "y".into(),
                },
                &mut d,
            )
            .unwrap_err();
        assert_eq!(err, TrackerError::NotAnExpert("not-an-expert".into()));
    }

    #[test]
    fn resolution_merges_into_db_and_attributes() {
        let (mut t, id) = tracker_with_issue();
        let mut d = db();
        let before = d.note_count();
        t.resolve(
            id,
            "expert:alice",
            Contribution::Note {
                title: "lcs-guidance".into(),
                text: "Use the spelled-out network induced location request counters.".into(),
            },
            &mut d,
        )
        .unwrap();
        assert_eq!(d.note_count(), before + 1);
        let issue = t.get(id).unwrap();
        assert_eq!(issue.state, IssueState::Resolved);
        assert_eq!(issue.resolved_by.as_deref(), Some("expert:alice"));
        assert!(issue.comments.last().unwrap().text.contains("resolved with"));
    }

    #[test]
    fn cannot_resolve_twice() {
        let (mut t, id) = tracker_with_issue();
        let mut d = db();
        let c = Contribution::Note {
            title: "a".into(),
            text: "b".into(),
        };
        t.resolve(id, "expert:alice", c.clone(), &mut d).unwrap();
        assert_eq!(
            t.resolve(id, "expert:alice", c, &mut d).unwrap_err(),
            TrackerError::NotOpen(id)
        );
    }

    #[test]
    fn close_without_contribution() {
        let (mut t, id) = tracker_with_issue();
        t.close(id).unwrap();
        assert_eq!(t.get(id).unwrap().state, IssueState::Closed);
        assert!(t.close(id).is_err());
    }

    #[test]
    fn comments_append() {
        let (mut t, id) = tracker_with_issue();
        t.comment(id, "user:op1", "this also fails for MT-LR").unwrap();
        assert_eq!(t.get(id).unwrap().comments.len(), 1);
        assert!(t.comment(99, "x", "y").is_err());
    }

    #[test]
    fn exemplar_resolution_returns_payload() {
        let (mut t, id) = tracker_with_issue();
        let mut d = db();
        let out = t
            .resolve(
                id,
                "expert:bob",
                Contribution::Exemplar {
                    question: "what is the LCS NI-LR success rate".into(),
                    metrics: vec!["a".into(), "b".into()],
                    promql: "100 * sum(a) / sum(b)".into(),
                },
                &mut d,
            )
            .unwrap();
        assert!(out.is_some());
    }

    #[test]
    fn tracker_round_trips_through_json() {
        let (mut t, id) = tracker_with_issue();
        t.comment(id, "user:op1", "more context").unwrap();
        let json = t.to_json();
        let back = IssueTracker::from_json(&json).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.get(id).unwrap().comments.len(), 1);
        assert!(back.experts().is_expert("expert:alice"));
    }

    #[test]
    fn corrupt_tracker_json_is_an_error() {
        assert!(IssueTracker::from_json("{nope").is_err());
    }

    #[test]
    fn long_titles_truncate() {
        let mut t = IssueTracker::new();
        let long_q = "x".repeat(200);
        let id = t.raise_hand(&long_q, vec![], "r");
        assert!(t.get(id).unwrap().title.chars().count() < 100);
    }
}
