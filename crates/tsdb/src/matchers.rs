//! Label matchers for series selection (`{nf="amf", proc=~"auth.*"}`).
//!
//! Regex matchers implement the anchored subset PromQL queries in this
//! system actually use: literals, the `.*`/`.+` wildcards, character
//! alternation via `|` at the top level, and `.` as any-char. This is a
//! deliberate substitution for a full regex engine (see DESIGN.md):
//! generated and reference queries only ever use these forms.

use crate::labels::Labels;
use serde::{Deserialize, Serialize};

/// Matcher operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchOp {
    /// `=` exact equality.
    Eq,
    /// `!=` inequality.
    Ne,
    /// `=~` anchored pattern match.
    Re,
    /// `!~` negated anchored pattern match.
    Nre,
}

impl MatchOp {
    /// PromQL spelling of the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            MatchOp::Eq => "=",
            MatchOp::Ne => "!=",
            MatchOp::Re => "=~",
            MatchOp::Nre => "!~",
        }
    }
}

/// A single label matcher.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Matcher {
    /// Label name to test.
    pub name: String,
    /// Operator.
    pub op: MatchOp,
    /// Literal value or pattern.
    pub value: String,
}

impl Matcher {
    /// Equality matcher.
    pub fn eq(name: impl Into<String>, value: impl Into<String>) -> Self {
        Matcher {
            name: name.into(),
            op: MatchOp::Eq,
            value: value.into(),
        }
    }

    /// Pattern matcher (`=~`).
    pub fn re(name: impl Into<String>, value: impl Into<String>) -> Self {
        Matcher {
            name: name.into(),
            op: MatchOp::Re,
            value: value.into(),
        }
    }

    /// Does this matcher accept the given label value? Missing labels are
    /// treated as the empty string, as in Prometheus.
    pub fn matches_value(&self, value: &str) -> bool {
        match self.op {
            MatchOp::Eq => self.value == value,
            MatchOp::Ne => self.value != value,
            MatchOp::Re => pattern_match(&self.value, value),
            MatchOp::Nre => !pattern_match(&self.value, value),
        }
    }

    /// Does this matcher accept the given label set?
    pub fn matches(&self, labels: &Labels) -> bool {
        self.matches_value(labels.get(&self.name).unwrap_or(""))
    }
}

impl std::fmt::Display for Matcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}\"{}\"", self.name, self.op.as_str(), self.value)
    }
}

/// Anchored match of `text` against the supported pattern subset:
/// top-level `|` alternation of branches, where each branch is a
/// sequence of literal chars, `.` (any one char), `.*` (any run), and
/// `.+` (non-empty run).
pub fn pattern_match(pattern: &str, text: &str) -> bool {
    pattern.split('|').any(|branch| {
        branch_match(
            &branch.chars().collect::<Vec<_>>(),
            &text.chars().collect::<Vec<_>>(),
        )
    })
}

fn branch_match(pat: &[char], text: &[char]) -> bool {
    if pat.is_empty() {
        return text.is_empty();
    }
    // Handle `.*` / `.+` lookahead.
    if pat[0] == '.' && pat.len() >= 2 && (pat[1] == '*' || pat[1] == '+') {
        let rest = &pat[2..];
        let min = if pat[1] == '+' { 1 } else { 0 };
        for skip in min..=text.len() {
            if branch_match(rest, &text[skip..]) {
                return true;
            }
        }
        return false;
    }
    if text.is_empty() {
        return false;
    }
    if pat[0] == '.' || pat[0] == text[0] {
        return branch_match(&pat[1..], &text[1..]);
    }
    false
}

/// All matchers must accept the label set.
pub(crate) fn all_match(matchers: &[Matcher], labels: &Labels) -> bool {
    matchers.iter().all(|m| m.matches(labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The negated operators have no constructor: only a parsed query
    /// makes them.
    fn negated(name: &str, op: MatchOp, value: &str) -> Matcher {
        Matcher {
            name: name.into(),
            op,
            value: value.into(),
        }
    }

    #[test]
    fn eq_and_ne() {
        let l = Labels::from_pairs([("nf", "amf")]);
        assert!(Matcher::eq("nf", "amf").matches(&l));
        assert!(!Matcher::eq("nf", "smf").matches(&l));
        assert!(negated("nf", MatchOp::Ne, "smf").matches(&l));
        assert!(!negated("nf", MatchOp::Ne, "amf").matches(&l));
    }

    #[test]
    fn missing_label_is_empty_string() {
        let l = Labels::empty();
        assert!(Matcher::eq("nf", "").matches(&l));
        assert!(negated("nf", MatchOp::Ne, "amf").matches(&l));
        assert!(Matcher::re("nf", ".*").matches(&l));
        assert!(!Matcher::re("nf", ".+").matches(&l));
    }

    #[test]
    fn literal_pattern_is_anchored() {
        assert!(pattern_match("amf", "amf"));
        assert!(!pattern_match("amf", "amf-0"));
        assert!(!pattern_match("amf", "xamf"));
    }

    #[test]
    fn star_wildcard() {
        assert!(pattern_match("amf.*", "amf"));
        assert!(pattern_match("amf.*", "amf-0"));
        assert!(pattern_match(".*auth.*", "n1_auth_request"));
        assert!(!pattern_match("amf.*", "smf-0"));
    }

    #[test]
    fn plus_wildcard_requires_one() {
        assert!(pattern_match("amf-.+", "amf-0"));
        assert!(!pattern_match("amf-.+", "amf-"));
    }

    #[test]
    fn dot_matches_single_char() {
        assert!(pattern_match("amf-.", "amf-0"));
        assert!(!pattern_match("amf-.", "amf-10"));
    }

    #[test]
    fn alternation() {
        assert!(pattern_match("amf|smf", "smf"));
        assert!(pattern_match("amf|smf", "amf"));
        assert!(!pattern_match("amf|smf", "upf"));
        assert!(pattern_match("amf-.*|smf-.*", "smf-2"));
    }

    #[test]
    fn nre_negates() {
        let l = Labels::from_pairs([("instance", "amf-1")]);
        assert!(!negated("instance", MatchOp::Nre, "amf-.*").matches(&l));
        assert!(negated("instance", MatchOp::Nre, "smf-.*").matches(&l));
    }

    #[test]
    fn all_match_requires_every_matcher() {
        let l = Labels::from_pairs([("nf", "amf"), ("instance", "amf-0")]);
        let ms = vec![Matcher::eq("nf", "amf"), Matcher::re("instance", "amf-.")];
        assert!(all_match(&ms, &l));
        let ms2 = vec![Matcher::eq("nf", "amf"), Matcher::eq("instance", "amf-9")];
        assert!(!all_match(&ms2, &l));
    }

    #[test]
    fn display_round_trip_spelling() {
        assert_eq!(Matcher::re("nf", "a.*").to_string(), "nf=~\"a.*\"");
        assert_eq!(Matcher::eq("nf", "amf").to_string(), "nf=\"amf\"");
    }

    #[test]
    fn empty_pattern_matches_only_empty() {
        assert!(pattern_match("", ""));
        assert!(!pattern_match("", "x"));
    }
}
