//! Bespoke expert function definitions (paper §3.1).
//!
//! "Sometimes, it is not straightforward to amalgamate various counters
//! to compute a specific outcome; such a process might necessitate
//! specialist-crafted functions or queries." Each [`FunctionDef`] is a
//! named, documented PromQL template with typed parameters; the copilot
//! retrieves them like metric descriptions and the code generator can
//! instantiate them.

use serde::{Deserialize, Serialize};

/// One parameter of an expert function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionParam {
    /// Placeholder name used in the body, e.g. `success`.
    pub name: String,
    /// What the caller must bind it to.
    pub description: String,
}

/// A specialist-contributed function over catalog metrics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionDef {
    /// Function name, e.g. `success_rate`.
    pub name: String,
    /// What the function computes (fed to the embedder).
    pub description: String,
    /// Parameters bound at instantiation time.
    pub params: Vec<FunctionParam>,
    /// PromQL body with `$param` placeholders.
    pub body: String,
    /// Description of the output.
    pub output: String,
    /// Contributor attribution (paper §3.4: expert data "is … attributed
    /// to the relevant expert as its source").
    pub author: String,
}

impl FunctionDef {
    /// Instantiate the body, replacing each `$param` with its binding.
    /// Returns `None` when a binding is missing.
    pub fn instantiate(&self, bindings: &[(&str, &str)]) -> Option<String> {
        let mut body = self.body.clone();
        for p in &self.params {
            let placeholder = format!("${}", p.name);
            let value = bindings.iter().find(|(n, _)| *n == p.name)?.1;
            body = body.replace(&placeholder, value);
        }
        Some(body)
    }

    /// The text sample fed to the embedder.
    pub fn text_sample(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|p| format!("{} ({})", p.name, p.description))
            .collect();
        format!(
            "function {}: {} Parameters: {}. Output: {}",
            self.name,
            self.description,
            params.join("; "),
            self.output
        )
    }
}

/// The built-in expert function library.
pub(crate) fn builtin_functions() -> Vec<FunctionDef> {
    let f = |name: &str,
             description: &str,
             params: &[(&str, &str)],
             body: &str,
             output: &str,
             author: &str| FunctionDef {
        name: name.to_string(),
        description: description.to_string(),
        params: params
            .iter()
            .map(|(n, d)| FunctionParam {
                name: n.to_string(),
                description: d.to_string(),
            })
            .collect(),
        body: body.to_string(),
        output: output.to_string(),
        author: author.to_string(),
    };

    vec![
        f(
            "success_rate",
            "Computes the percentage success rate of a procedure from its success and attempt counters. \
             Standard KPI used on operator dashboards for registration, authentication, PDU session and \
             handover procedures.",
            &[
                ("success", "the procedure success counter metric name"),
                ("attempt", "the procedure attempt counter metric name"),
            ],
            "100 * sum($success) / sum($attempt)",
            "success rate in percent (0-100)",
            "expert:radio-core-team",
        ),
        f(
            "failure_ratio",
            "Computes the fraction of procedure attempts that failed with a specific cause, from a \
             per-cause failure counter and the attempt counter.",
            &[
                ("failure", "the per-cause failure counter metric name"),
                ("attempt", "the procedure attempt counter metric name"),
            ],
            "sum($failure) / sum($attempt)",
            "failure ratio as a fraction (0-1)",
            "expert:radio-core-team",
        ),
        f(
            "per_second_rate",
            "Computes the per-second increase rate of a counter over a five minute window, the standard \
             way to turn a monotone counter into a rate for dashboards.",
            &[("metric", "the counter metric name")],
            "sum(rate($metric[5m]))",
            "events per second",
            "expert:observability-team",
        ),
        f(
            "throughput_gbps",
            "Computes user-plane throughput in gigabits per second from a byte counter, over a five \
             minute window. Multiplies the byte rate by eight and divides by one billion.",
            &[("bytes", "the byte counter metric name")],
            "sum(rate($bytes[5m])) * 8 / 1e9",
            "throughput in Gbps",
            "expert:user-plane-team",
        ),
        f(
            "mean_procedure_duration_ms",
            "Computes the mean procedure duration in milliseconds by dividing the accumulated duration \
             counter by the procedure success counter.",
            &[
                ("duration", "the accumulated duration counter (milliseconds)"),
                ("success", "the procedure success counter"),
            ],
            "sum($duration) / sum($success)",
            "mean duration in milliseconds",
            "expert:radio-core-team",
        ),
        f(
            "drop_ratio",
            "Computes the packet drop ratio on a user-plane interface from dropped-packet and \
             forwarded-packet counters.",
            &[
                ("dropped", "the dropped packets counter"),
                ("packets", "the forwarded packets counter"),
            ],
            "sum($dropped) / sum($packets)",
            "drop ratio as a fraction (0-1)",
            "expert:user-plane-team",
        ),
        f(
            "availability_percent",
            "Estimates service availability as the percentage of HTTP requests answered without a \
             server error on a service-based interface.",
            &[
                ("errors", "the 5xx response counter for the SBI API"),
                ("requests", "the received request counter for the SBI API"),
            ],
            "100 * (1 - sum($errors) / sum($requests))",
            "availability in percent (0-100)",
            "expert:sbi-platform-team",
        ),
        f(
            "retransmission_ratio",
            "Computes the ratio of retransmitted messages to sent messages for a protocol message, a \
             signal of transport problems on the reference point.",
            &[
                ("retransmitted", "the retransmitted message counter"),
                ("sent", "the sent message counter"),
            ],
            "sum($retransmitted) / sum($sent)",
            "retransmission ratio as a fraction (0-1)",
            "expert:transport-team",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_library_is_nonempty_and_unique() {
        let fns = builtin_functions();
        assert!(fns.len() >= 8);
        let mut names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fns.len());
    }

    #[test]
    fn instantiate_replaces_all_placeholders() {
        let fns = builtin_functions();
        let sr = fns.iter().find(|f| f.name == "success_rate").unwrap();
        let q = sr
            .instantiate(&[
                ("success", "amfcc_n1_initial_registration_success"),
                ("attempt", "amfcc_n1_initial_registration_attempt"),
            ])
            .unwrap();
        assert_eq!(
            q,
            "100 * sum(amfcc_n1_initial_registration_success) / sum(amfcc_n1_initial_registration_attempt)"
        );
        assert!(!q.contains('$'));
    }

    #[test]
    fn instantiate_missing_binding_is_none() {
        let fns = builtin_functions();
        let sr = fns.iter().find(|f| f.name == "success_rate").unwrap();
        assert!(sr.instantiate(&[("success", "x")]).is_none());
    }

    #[test]
    fn text_sample_mentions_params_and_output() {
        let fns = builtin_functions();
        let t = fns[0].text_sample();
        assert!(t.contains("function success_rate"));
        assert!(t.contains("attempt"));
        assert!(t.contains("Output"));
    }

    #[test]
    fn every_function_has_author_attribution() {
        for f in builtin_functions() {
            assert!(f.author.starts_with("expert:"), "{} lacks attribution", f.name);
        }
    }
}
