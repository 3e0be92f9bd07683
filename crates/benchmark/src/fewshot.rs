//! The 20 expert-generated few-shot exemplars (paper §4: "Few-shot
//! learning is enabled by feeding into the prompt an additional 20
//! expert-generated tuples consisting of user query, corresponding
//! context, relevant metrics and the PromQL query").
//!
//! Exemplars are constructed against the *actual* generated catalog so
//! every referenced metric exists. The procedures used here are
//! excluded from benchmark question generation, honouring §4.1's "none
//! of the training questions used for few-shot learning are
//! incorporated into the benchmark dataset".

use dio_catalog::{Catalog, NetworkFunction, ProcedureGroup};
use dio_llm::FewShotExample;

/// Procedures reserved for few-shot exemplars: `(nf, service, slug)`.
pub(crate) const FEWSHOT_PROCEDURES: &[(NetworkFunction, &str, &str)] = &[
    (NetworkFunction::Amf, "cc", "paging"),
    (NetworkFunction::Amf, "cc", "service_request"),
    (NetworkFunction::Amf, "sec", "authentication"),
    (NetworkFunction::Amf, "sec", "security_mode_control"),
    (NetworkFunction::Amf, "sec", "identity_request"),
    (NetworkFunction::Amf, "mm", "ue_context_setup"),
    (NetworkFunction::Amf, "mm", "ngap_associations"),
    (NetworkFunction::Smf, "pdu", "pdu_session_release"),
    (NetworkFunction::Smf, "pdu", "active_qos_flows"),
    (NetworkFunction::Smf, "n4", "n4_heartbeat"),
    (NetworkFunction::Smf, "n4", "n4_association_setup"),
    (NetworkFunction::Smf, "chg", "charging_data_request"),
    (NetworkFunction::Nrf, "nfm", "nf_heartbeat"),
    (NetworkFunction::Nrf, "nfm", "nf_status_subscription"),
    (NetworkFunction::Nssf, "nss", "nssai_availability_update"),
    (NetworkFunction::Upf, "n4c", "pdr_install"),
    (NetworkFunction::Upf, "up", "n9_traffic"),
    (NetworkFunction::Upf, "up", "gtpu_echo"),
    (NetworkFunction::N3iwf, "iwk", "ikev2_sa_initiation"),
    (NetworkFunction::N3iwf, "iwk", "nwu_registration"),
];

/// True when a procedure is reserved for few-shot use.
pub(crate) fn is_fewshot_procedure(nf: NetworkFunction, service: &str, slug: &str) -> bool {
    FEWSHOT_PROCEDURES
        .iter()
        .any(|(n, s, p)| *n == nf && *s == service && *p == slug)
}

fn group<'a>(
    catalog: &'a Catalog,
    nf: NetworkFunction,
    service: &str,
    slug: &str,
) -> &'a ProcedureGroup {
    catalog
        .groups
        .iter()
        .find(|g| g.nf == nf && g.service == service && g.procedure == slug)
        .unwrap_or_else(|| panic!("missing few-shot group {nf}/{service}/{slug}"))
}

/// Build the 20 exemplars against a catalog.
pub fn fewshot_exemplars(catalog: &Catalog) -> Vec<FewShotExample> {
    use NetworkFunction::*;
    let mut out = Vec::with_capacity(20);
    let mut push = |question: String, metrics: Vec<String>, promql: String| {
        out.push(FewShotExample {
            question,
            metrics,
            promql,
        });
    };

    // 1. Success rate (the canonical derived KPI).
    let g = group(catalog, Amf, "cc", "paging");
    let (a, s) = (g.attempt.clone().unwrap(), g.success.clone().unwrap());
    push(
        "What is the paging procedure success rate at the AMF?".into(),
        vec![s.clone(), a.clone()],
        format!("100 * sum({s}) / sum({a})"),
    );

    // 2. Total count.
    let g = group(catalog, Amf, "cc", "service_request");
    let a = g.attempt.clone().unwrap();
    push(
        "How many service request procedures did the AMF handle?".into(),
        vec![a.clone()],
        format!("sum({a})"),
    );

    // 3. Rate per second.
    let g = group(catalog, Amf, "sec", "authentication");
    let a = g.attempt.clone().unwrap();
    push(
        "How many authentication procedures per second is the AMF processing?".into(),
        vec![a.clone()],
        format!("sum(rate({a}[5m]))"),
    );

    // 4. Failure ratio on a specific cause.
    let g = group(catalog, Amf, "sec", "security_mode_control");
    let a = g.attempt.clone().unwrap();
    let (cause, f) = g.failures.first().cloned().unwrap();
    push(
        format!(
            "What fraction of security mode control procedures failed due to {}?",
            cause.replace('_', " ")
        ),
        vec![f.clone(), a.clone()],
        format!("sum({f}) / sum({a})"),
    );

    // 5. Rate of a second transactional procedure.
    let g = group(catalog, Amf, "sec", "identity_request");
    let a = g.attempt.clone().unwrap();
    push(
        "What is the rate of identity request procedures at the AMF?".into(),
        vec![a.clone()],
        format!("sum(rate({a}[5m]))"),
    );

    // 6. Mean duration.
    let g = group(catalog, Amf, "mm", "ue_context_setup");
    let s = g.success.clone().unwrap();
    let d = g
        .other
        .iter()
        .find(|n| n.ends_with("_duration_ms_total"))
        .cloned()
        .unwrap();
    push(
        "What is the mean duration of the UE context setup procedure?".into(),
        vec![d.clone(), s.clone()],
        format!("sum({d}) / sum({s})"),
    );

    // 7. Current gauge value.
    let g = group(catalog, Amf, "mm", "ngap_associations");
    let cur = g
        .other
        .iter()
        .find(|n| n.ends_with("_current"))
        .cloned()
        .unwrap();
    push(
        "How many NGAP associations with gNodeBs are there currently?".into(),
        vec![cur.clone()],
        format!("sum({cur})"),
    );

    // 8. Total count (SMF).
    let g = group(catalog, Smf, "pdu", "pdu_session_release");
    let a = g.attempt.clone().unwrap();
    push(
        "How many PDU session release procedures did the SMF handle?".into(),
        vec![a.clone()],
        format!("sum({a})"),
    );

    // 9. Current gauge (SMF).
    let g = group(catalog, Smf, "pdu", "active_qos_flows");
    let cur = g
        .other
        .iter()
        .find(|n| n.ends_with("_current"))
        .cloned()
        .unwrap();
    push(
        "How many QoS flows are currently active at the SMF?".into(),
        vec![cur.clone()],
        format!("sum({cur})"),
    );

    // 10. Message counter.
    let g = group(catalog, Smf, "n4", "n4_heartbeat");
    let sent = g
        .other
        .iter()
        .find(|n| n.contains("heartbeat_request") && n.ends_with("_sent"))
        .cloned()
        .unwrap();
    push(
        "How many PFCP HEARTBEAT REQUEST messages did the SMF send?".into(),
        vec![sent.clone()],
        format!("sum({sent})"),
    );

    // 11. Failure ratio (SMF N4).
    let g = group(catalog, Smf, "n4", "n4_association_setup");
    let a = g.attempt.clone().unwrap();
    let (cause, f) = g.failures.first().cloned().unwrap();
    push(
        format!(
            "What fraction of N4 association setup procedures failed due to {}?",
            cause.replace('_', " ")
        ),
        vec![f.clone(), a.clone()],
        format!("sum({f}) / sum({a})"),
    );

    // 12. Success rate (SMF charging).
    let g = group(catalog, Smf, "chg", "charging_data_request");
    let (a, s) = (g.attempt.clone().unwrap(), g.success.clone().unwrap());
    push(
        "What is the charging data request success rate?".into(),
        vec![s.clone(), a.clone()],
        format!("100 * sum({s}) / sum({a})"),
    );

    // 13. Rate (NRF heartbeats).
    let g = group(catalog, Nrf, "nfm", "nf_heartbeat");
    let a = g.attempt.clone().unwrap();
    push(
        "How many NF heartbeats per second is the NRF receiving?".into(),
        vec![a.clone()],
        format!("sum(rate({a}[5m]))"),
    );

    // 14. Total (NRF subscriptions).
    let g = group(catalog, Nrf, "nfm", "nf_status_subscription");
    let a = g.attempt.clone().unwrap();
    push(
        "How many NF status subscription procedures did the NRF handle?".into(),
        vec![a.clone()],
        format!("sum({a})"),
    );

    // 15. Success rate (NSSF).
    let g = group(catalog, Nssf, "nss", "nssai_availability_update");
    let (a, s) = (g.attempt.clone().unwrap(), g.success.clone().unwrap());
    push(
        "What is the NSSAI availability update success rate at the NSSF?".into(),
        vec![s.clone(), a.clone()],
        format!("100 * sum({s}) / sum({a})"),
    );

    // 16. Combined failure ratio (three metrics).
    let g = group(catalog, Upf, "n4c", "pdr_install");
    let a = g.attempt.clone().unwrap();
    let (c1, f1) = g.failures[0].clone();
    let (c2, f2) = g.failures[1].clone();
    push(
        format!(
            "What share of packet detection rule installations failed either with {} or with {}?",
            c1.replace('_', " "),
            c2.replace('_', " ")
        ),
        vec![f1.clone(), f2.clone(), a.clone()],
        format!("(sum({f1}) + sum({f2})) / sum({a})"),
    );

    // 17. Traffic bytes.
    let g = group(catalog, Upf, "up", "n9_traffic");
    let bytes = g
        .other
        .iter()
        .find(|n| n.ends_with("_ul_bytes"))
        .cloned()
        .unwrap();
    push(
        "How many bytes did the UPF forward uplink on the N9 interface?".into(),
        vec![bytes.clone()],
        format!("sum({bytes})"),
    );

    // 18. Message counter (UPF echo).
    let g = group(catalog, Upf, "up", "gtpu_echo");
    let rx = g
        .other
        .iter()
        .find(|n| n.contains("echo_request") && n.ends_with("_received"))
        .cloned()
        .unwrap();
    push(
        "How many GTP-U ECHO REQUEST messages did the UPF receive?".into(),
        vec![rx.clone()],
        format!("sum({rx})"),
    );

    // 19. Average per instance.
    let g = group(catalog, N3iwf, "iwk", "ikev2_sa_initiation");
    let a = g.attempt.clone().unwrap();
    push(
        "What is the average number of IKEv2 SA initiations per N3IWF instance?".into(),
        vec![a.clone()],
        format!("avg({a})"),
    );

    // 20. Mean duration (N3IWF).
    let g = group(catalog, N3iwf, "iwk", "nwu_registration");
    let s = g.success.clone().unwrap();
    let d = g
        .other
        .iter()
        .find(|n| n.ends_with("_duration_ms_total"))
        .cloned()
        .unwrap();
    push(
        "What is the mean duration of registration over untrusted non-3GPP access?".into(),
        vec![d.clone(), s.clone()],
        format!("sum({d}) / sum({s})"),
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_catalog::{generate_catalog, CatalogConfig};

    fn catalog() -> Catalog {
        generate_catalog(&CatalogConfig::default())
    }

    #[test]
    fn builds_exactly_twenty() {
        assert_eq!(fewshot_exemplars(&catalog()).len(), 20);
    }

    #[test]
    fn every_referenced_metric_exists() {
        let c = catalog();
        for ex in fewshot_exemplars(&c) {
            for m in &ex.metrics {
                assert!(c.get(m).is_some(), "exemplar metric {m} not in catalog");
            }
        }
    }

    #[test]
    fn every_promql_parses() {
        for ex in fewshot_exemplars(&catalog()) {
            assert!(
                dio_promql::parse(&ex.promql).is_ok(),
                "unparseable exemplar: {}",
                ex.promql
            );
        }
    }

    #[test]
    fn exemplars_cover_all_task_shapes() {
        use dio_llm::{analyze, TaskShape};
        let shapes: std::collections::HashSet<TaskShape> = fewshot_exemplars(&catalog())
            .iter()
            .map(|e| analyze(&e.question).shape)
            .collect();
        for shape in [
            TaskShape::TotalCount,
            TaskShape::CurrentValue,
            TaskShape::AverageValue,
            TaskShape::RatePerSecond,
            TaskShape::SuccessRatePercent,
            TaskShape::FailureRatio,
            TaskShape::CombinedFailureRatio,
            TaskShape::MeanDurationMs,
        ] {
            assert!(shapes.contains(&shape), "missing shape {shape:?}");
        }
    }

    #[test]
    fn reserved_procedure_check_works() {
        assert!(is_fewshot_procedure(NetworkFunction::Amf, "cc", "paging"));
        assert!(!is_fewshot_procedure(
            NetworkFunction::Amf,
            "cc",
            "initial_registration"
        ));
    }

    #[test]
    fn questions_are_unique() {
        let ex = fewshot_exemplars(&catalog());
        let mut qs: Vec<&str> = ex.iter().map(|e| e.question.as_str()).collect();
        qs.sort_unstable();
        qs.dedup();
        assert_eq!(qs.len(), ex.len());
    }
}
