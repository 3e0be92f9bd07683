//! Multi-turn chat sessions.
//!
//! The paper's UI (Figure 1b) is a chat: operators ask follow-ups like
//! *"and at the SMF?"* that only make sense against the previous turn.
//! [`ChatSession`] wraps a [`DioCopilot`] with deterministic follow-up
//! resolution: an elliptical question is rewritten against the previous
//! *resolved* question before entering the pipeline, so every stage
//! downstream (retrieval, the model, the sandbox) sees a self-contained
//! query.

use crate::answer::CopilotResponse;
use crate::pipeline::DioCopilot;

/// One conversation turn.
#[derive(Debug, Clone)]
pub struct Turn {
    /// What the user typed.
    pub raw: String,
    /// The self-contained question after follow-up resolution.
    pub resolved: String,
    /// The copilot's response.
    pub response: CopilotResponse,
}

/// A stateful conversation over one copilot.
pub struct ChatSession<'a> {
    copilot: &'a mut DioCopilot,
    turns: Vec<Turn>,
}

/// Leading phrases that mark a follow-up.
const FOLLOWUP_PREFIXES: &[&str] = &[
    "and ",
    "what about ",
    "how about ",
    "same for ",
    "also ",
    "now ",
];

/// Network-function mentions that a follow-up can swap.
const NF_WORDS: &[&str] = &["amf", "smf", "nrf", "nssf", "n3iwf", "upf"];

impl<'a> ChatSession<'a> {
    /// Start a session on a copilot.
    pub fn new(copilot: &'a mut DioCopilot) -> Self {
        ChatSession {
            copilot,
            turns: Vec::new(),
        }
    }

    /// Conversation history.
    pub fn turns(&self) -> &[Turn] {
        &self.turns
    }

    /// Ask a question; elliptical follow-ups are resolved against the
    /// previous turn.
    pub fn ask(&mut self, question: &str, ts: i64) -> &Turn {
        let resolved = match self.turns.last() {
            Some(prev) => resolve_followup(question, &prev.resolved),
            None => question.to_string(),
        };
        let response = self.copilot.ask(&resolved, ts);
        self.turns.push(Turn {
            raw: question.to_string(),
            resolved,
            response,
        });
        self.turns.last().expect("just pushed")
    }
}

/// Rewrite `question` against `previous` when it is elliptical;
/// otherwise return it unchanged.
///
/// Two resolution rules cover the overwhelmingly common operator
/// follow-ups:
///
/// 1. **Entity swap** — "and at the SMF?" keeps the previous question
///    but substitutes the network function (and clears any previous
///    NF-specific counter context by plain word replacement).
/// 2. **Fragment splice** — "what about failures due to congestion?"
///    replaces the *tail* of the previous question (after its subject
///    phrase) when no NF is mentioned; implemented as: previous question
///    with its final punctuation dropped, plus the fragment introduced
///    by "— specifically".
pub(crate) fn resolve_followup(question: &str, previous: &str) -> String {
    let trimmed = question.trim();
    let lower = trimmed.to_lowercase();

    let fragment = FOLLOWUP_PREFIXES
        .iter()
        .find_map(|p| lower.strip_prefix(p))
        .map(|rest| rest.trim_end_matches(['?', '.', '!']).trim().to_string());

    let Some(fragment) = fragment else {
        // Not prefixed: treat very short questions with a leading
        // preposition as entity swaps too ("at the SMF?").
        if lower.starts_with("at the ") || lower.starts_with("for the ") || lower.starts_with("on the ") {
            let frag = lower
                .trim_end_matches(['?', '.', '!'])
                .trim()
                .to_string();
            return splice(previous, &frag);
        }
        return trimmed.to_string();
    };

    splice(previous, &fragment)
}

fn splice(previous: &str, fragment: &str) -> String {
    // Entity swap: fragment mentions an NF → substitute it into the
    // previous question.
    let frag_nf = NF_WORDS
        .iter()
        .find(|nf| fragment.split_whitespace().any(|w| {
            w.trim_matches(|c: char| !c.is_alphanumeric()).eq_ignore_ascii_case(nf)
        }));
    if let Some(nf) = frag_nf {
        let mut out_words: Vec<String> = Vec::new();
        let mut swapped = false;
        for w in previous.split_whitespace() {
            let bare = w.trim_matches(|c: char| !c.is_alphanumeric());
            if NF_WORDS.iter().any(|p| bare.eq_ignore_ascii_case(p)) {
                out_words.push(w.replace(bare, &nf.to_uppercase()));
                swapped = true;
            } else {
                out_words.push(w.to_string());
            }
        }
        if swapped {
            return out_words.join(" ");
        }
        // Previous had no NF mention: append the location phrase.
        return format!(
            "{} at the {}?",
            previous.trim_end_matches(['?', '.', '!']),
            nf.to_uppercase()
        );
    }

    // Fragment splice: carry the previous question, narrow by fragment.
    format!(
        "{} — specifically {}?",
        previous.trim_end_matches(['?', '.', '!']),
        fragment
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_questions_pass_through() {
        let prev = "How many paging attempts did the AMF handle?";
        assert_eq!(
            resolve_followup("How many PDU sessions are active?", prev),
            "How many PDU sessions are active?"
        );
    }

    #[test]
    fn nf_swap_followup() {
        let prev = "How many initial registration attempts did the AMF handle?";
        assert_eq!(
            resolve_followup("And at the SMF?", prev),
            "How many initial registration attempts did the SMF handle?"
        );
        assert_eq!(
            resolve_followup("at the UPF?", prev),
            "How many initial registration attempts did the UPF handle?"
        );
    }

    #[test]
    fn nf_append_when_previous_has_no_nf() {
        let prev = "How many N4 session establishment attempts were recorded?";
        assert_eq!(
            resolve_followup("what about the UPF?", prev),
            "How many N4 session establishment attempts were recorded at the UPF?"
        );
    }

    #[test]
    fn fragment_splice_followup() {
        let prev = "How many initial registration attempts did the AMF handle?";
        let out = resolve_followup("what about failures due to congestion?", prev);
        assert!(out.starts_with("How many initial registration attempts did the AMF handle"));
        assert!(out.contains("specifically failures due to congestion"));
    }

    #[test]
    fn resolution_is_deterministic() {
        let prev = "What is the paging success rate at the AMF?";
        let a = resolve_followup("and the smf?", prev);
        let b = resolve_followup("and the smf?", prev);
        assert_eq!(a, b);
        assert!(a.contains("SMF"));
    }
}
