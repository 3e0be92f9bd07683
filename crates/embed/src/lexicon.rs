//! Domain lexicon: telecom abbreviation and synonym expansion.
//!
//! Generic embedding models miss that "AMF" *is* the "access and mobility
//! management function" (paper §5.3 calls this out as the weakness of
//! generic embedders). The lexicon injects that domain knowledge: when a
//! token (or phrase) matches an entry, the expansion tokens are added as
//! extra features with a configurable weight, so abbreviation and
//! spelled-out forms overlap in feature space.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A synonym/expansion table keyed on lower-case tokens.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Lexicon {
    expansions: HashMap<String, Vec<String>>,
}

impl Lexicon {
    /// The built-in 5G-core lexicon used by DIO copilot: network function
    /// names, interface names, procedure jargon, and common analytics
    /// phrasing.
    pub fn telecom() -> Self {
        let mut lex = Lexicon::default();
        let entries: &[(&str, &[&str])] = &[
            // Network functions.
            ("amf", &["access", "mobility", "management", "function"]),
            ("smf", &["session", "management", "function"]),
            ("upf", &["user", "plane", "function"]),
            ("nrf", &["nf", "repository", "function"]),
            ("nssf", &["network", "slice", "selection", "function"]),
            ("n3iwf", &["non", "3gpp", "interworking", "function"]),
            ("ausf", &["authentication", "server", "function"]),
            ("udm", &["unified", "data", "management"]),
            ("pcf", &["policy", "control", "function"]),
            ("gnb", &["gnodeb", "base", "station"]),
            ("gnodeb", &["gnb", "base", "station"]),
            ("ue", &["user", "equipment", "device", "subscriber"]),
            // Procedures and messages.
            ("auth", &["authentication"]),
            ("authentication", &["auth"]),
            ("reg", &["registration"]),
            ("registration", &["register"]),
            ("dereg", &["deregistration"]),
            ("deregistration", &["deregister"]),
            ("pdu", &["protocol", "data", "unit", "session"]),
            ("ho", &["handover"]),
            ("handover", &["mobility"]),
            ("paging", &["page"]),
            ("lcs", &["location", "services"]),
            ("ni", &["network", "induced"]),
            ("lr", &["location", "request"]),
            ("sm", &["session", "management"]),
            ("mm", &["mobility", "management"]),
            ("nas", &["non", "access", "stratum"]),
            ("ngap", &["ng", "application", "protocol"]),
            ("pfcp", &["packet", "forwarding", "control", "protocol"]),
            (
                "nssai",
                &["slice", "selection", "assistance", "information"],
            ),
            ("snssai", &["single", "slice", "selection", "assistance"]),
            ("dnn", &["data", "network", "name", "apn"]),
            ("qos", &["quality", "service"]),
            ("qfi", &["qos", "flow", "identifier"]),
            ("plmn", &["public", "land", "mobile", "network"]),
            ("tai", &["tracking", "area", "identity"]),
            ("guti", &["globally", "unique", "temporary", "identifier"]),
            ("supi", &["subscription", "permanent", "identifier"]),
            ("pei", &["permanent", "equipment", "identifier"]),
            ("ulcl", &["uplink", "classifier"]),
            ("urr", &["usage", "reporting", "rule"]),
            ("far", &["forwarding", "action", "rule"]),
            ("pdr", &["packet", "detection", "rule"]),
            ("qer", &["qos", "enforcement", "rule"]),
            // Analytics phrasing.
            ("throughput", &["rate", "bytes", "bandwidth"]),
            ("failures", &["failed", "failure", "errors"]),
            ("failure", &["failed", "failures", "error"]),
            ("failed", &["failure", "failures"]),
            ("errors", &["error", "failure"]),
            ("successes", &["success", "successful"]),
            ("success", &["successful", "succeeded"]),
            ("successful", &["success"]),
            ("attempts", &["attempt", "attempted", "requests"]),
            ("attempt", &["attempts", "attempted"]),
            ("requests", &["request", "attempts"]),
            ("request", &["requests"]),
            ("responses", &["response", "replies"]),
            ("count", &["number", "total"]),
            ("number", &["count", "total"]),
            ("total", &["sum", "count"]),
            ("average", &["mean", "avg"]),
            ("avg", &["average", "mean"]),
            ("mean", &["average"]),
            ("rate", &["per", "second", "frequency"]),
            ("ratio", &["rate", "percentage", "fraction"]),
            ("percentage", &["percent", "ratio", "rate"]),
            ("bytes", &["octets", "traffic", "volume"]),
            ("octets", &["bytes"]),
            ("packets", &["pkts", "packet"]),
            ("downlink", &["dl", "downstream"]),
            ("uplink", &["ul", "upstream"]),
            ("dl", &["downlink"]),
            ("ul", &["uplink"]),
            ("upstream", &["uplink", "ul"]),
            ("downstream", &["downlink", "dl"]),
            ("plane", &["upf"]),
            ("forward", &["forwarded"]),
            ("forwarded", &["forward"]),
            ("latency", &["delay", "duration"]),
            ("delay", &["latency", "duration"]),
            ("sessions", &["session"]),
            ("session", &["sessions"]),
            ("subscribers", &["ue", "users", "devices"]),
            ("active", &["current", "ongoing"]),
            ("heartbeat", &["keepalive", "liveness"]),
            ("discovery", &["discover", "lookup"]),
            // Reverse paraphrase bridges (question jargon → counter
            // vocabulary). These are what let a strong model recover
            // paraphrased questions that name-only prompting cannot.
            ("register", &["registration"]),
            ("deregister", &["deregistration"]),
            ("setup", &["establishment", "establish", "setup"]),
            ("teardown", &["release"]),
            ("change", &["modification", "modify"]),
            ("lookup", &["discovery", "discover"]),
            ("users", &["subscribers", "ue", "subscriber"]),
            ("mobility", &["handover"]),
            ("frequency", &["rate"]),
            ("tries", &["attempts", "attempt"]),
            ("try", &["attempt", "attempts"]),
            ("transmitted", &["sent"]),
        ];
        for (k, vs) in entries {
            lex.insert(k, vs.iter().map(|s| s.to_string()).collect());
        }
        lex
    }

    /// Insert or replace an expansion.
    pub fn insert(&mut self, token: &str, expansion: Vec<String>) {
        self.expansions.insert(token.to_lowercase(), expansion);
    }

    /// Expansion tokens for `token`, if any.
    pub fn expand(&self, token: &str) -> Option<&[String]> {
        self.expansions.get(token).map(|v| v.as_slice())
    }

    /// Number of entries in the table.
    pub fn len(&self) -> usize {
        self.expansions.len()
    }

    /// True when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.expansions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telecom_lexicon_expands_nf_names() {
        let lex = Lexicon::telecom();
        let exp = lex.expand("amf").unwrap();
        assert!(exp.contains(&"mobility".to_string()));
    }

    #[test]
    fn unknown_token_has_no_expansion() {
        let lex = Lexicon::telecom();
        assert!(lex.expand("zebra").is_none());
    }

    #[test]
    fn empty_lexicon_is_identity() {
        let lex = Lexicon::default();
        assert!(lex.is_empty());
        assert!(lex.expand("amf").is_none());
    }

    #[test]
    fn insert_is_case_insensitive_on_key() {
        let mut lex = Lexicon::default();
        lex.insert("AMF", vec!["mobility".into()]);
        assert!(lex.expand("amf").is_some());
    }

    #[test]
    fn synonym_pairs_are_bidirectional_for_key_terms() {
        let lex = Lexicon::telecom();
        // success <-> successful
        assert!(lex
            .expand("success")
            .unwrap()
            .contains(&"successful".to_string()));
        assert!(lex
            .expand("successful")
            .unwrap()
            .contains(&"success".to_string()));
    }
}
