//! Per-NF procedure grammars.
//!
//! Each [`Procedure`] describes one 3GPP procedure (or traffic/gauge
//! family) a network function implements. The generator expands these
//! into the full metric catalog: attempt/success/failure-cause counters,
//! per-message counters, duration accumulators, traffic counters, and
//! occupancy gauges.

use crate::nf::NetworkFunction;

/// What family of metrics a procedure expands into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcKind {
    /// attempt + success + per-cause failures + duration + messages.
    Transactional,
    /// Only per-message counters (e.g. NAS transport).
    MessageOnly,
    /// Interface traffic counters (bytes/packets/drops per direction).
    Traffic,
    /// Occupancy gauges (current + peak).
    GaugeGroup,
}

/// One procedure (or metric family) in the grammar.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Procedure {
    /// Owning network function.
    pub nf: NetworkFunction,
    /// Service slug within the NF (used in metric-name prefixes), e.g.
    /// `cc` for AMF call control.
    pub service: &'static str,
    /// Human-readable service name.
    pub service_display: &'static str,
    /// Procedure slug used in metric names.
    pub slug: &'static str,
    /// Human-readable procedure name used in documentation and in
    /// benchmark questions.
    pub display: &'static str,
    /// Reference-point / interface tag in names, e.g. `n1`.
    pub interface: Option<&'static str>,
    /// 3GPP spec, e.g. `3GPP TS 24.501`.
    pub spec: &'static str,
    /// Protocol messages exchanged by the procedure (slug, display).
    pub messages: &'static [(&'static str, &'static str)],
    /// Expansion family.
    pub kind: ProcKind,
    /// Whether per-slice (S-NSSAI) variants are emitted.
    pub slice_aware: bool,
    /// Relative traffic intensity class: 0 = rare, 1 = moderate, 2 = busy.
    pub intensity: u8,
}

/// Failure-cause pool, modelled on 5GMM/5GSM cause families. Each
/// transactional procedure uses a deterministic subset.
pub const FAILURE_CAUSES: &[(&str, &str)] = &[
    ("congestion", "congestion"),
    ("timeout", "timer expiry"),
    ("auth_failure", "authentication failure"),
    ("protocol_error", "protocol error, unspecified"),
    ("resource_unavailable", "insufficient resources"),
    ("ue_unreachable", "UE unreachable"),
    ("invalid_request", "semantically incorrect message"),
    ("slice_unavailable", "requested slice not available"),
    ("policy_reject", "rejected by policy"),
    ("network_failure", "network failure"),
    ("encoding_error", "invalid mandatory information"),
    ("context_not_found", "UE context not found"),
    ("plmn_not_allowed", "PLMN not allowed"),
    ("tracking_area_not_allowed", "tracking area not allowed"),
    ("roaming_not_allowed", "roaming not allowed in this tracking area"),
    ("no_suitable_cells", "no suitable cells in tracking area"),
    ("max_sessions_reached", "maximum number of PDU sessions reached"),
    ("dnn_not_supported", "missing or unknown DNN"),
    ("pdu_type_unsupported", "unknown PDU session type"),
    ("ambr_exceeded", "session AMBR exceeded"),
    ("peer_not_responding", "peer entity not responding"),
    ("association_released", "PFCP association released"),
    ("rule_creation_failed", "rule creation or modification failure"),
    ("tunnel_setup_failed", "GTP-U tunnel establishment failure"),
    ("security_mode_reject", "security mode rejected, unspecified"),
    ("integrity_failure", "integrity check failure"),
    ("redirection_failed", "redirection to EPC failed"),
    ("service_not_subscribed", "requested service option not subscribed"),
    ("ue_identity_unknown", "UE identity cannot be derived by the network"),
    ("implicit_deregistration", "implicitly deregistered"),
    ("illegal_ue", "illegal UE"),
    ("illegal_me", "illegal ME"),
    ("services_not_allowed", "5GS services not allowed"),
    ("serving_network_not_authorized", "serving network not authorized"),
    ("payload_not_forwarded", "payload was not forwarded"),
    ("dnn_congestion", "DNN based congestion control"),
    ("insufficient_slice_resources", "insufficient resources for specific slice"),
    ("pti_mismatch", "PTI mismatch"),
    ("regular_deactivation", "regular deactivation"),
    ("reactivation_requested", "reactivation requested"),
];

/// Per-message counter variants emitted for every protocol message.
pub(crate) const MESSAGE_VARIANTS: &[(&str, &str)] = &[
    ("sent", "sent"),
    ("received", "received"),
    ("retransmitted", "retransmitted"),
    ("malformed", "discarded as malformed"),
    ("duplicate", "discarded as duplicates"),
    ("dropped_overload", "dropped due to overload protection"),
];

/// Per-procedure timer/impairment event counters emitted for every
/// transactional procedure.
pub(crate) const EVENT_VARIANTS: &[(&str, &str)] = &[
    ("guard_timer_expiry", "guard timer expiries during"),
    ("retry", "retries of"),
    ("abnormal_release", "abnormal releases during"),
];

/// Per-NF platform resource metrics (name suffix, description, is_gauge).
pub(crate) const RESOURCE_METRICS: &[(&str, &str, bool)] = &[
    ("cpu_usage_percent", "current CPU utilisation of the NF workload, in percent", true),
    ("memory_usage_bytes", "current resident memory of the NF workload, in bytes", true),
    ("heap_in_use_bytes", "heap memory currently in use by the NF workload, in bytes", true),
    ("open_file_descriptors", "file descriptors currently open by the NF workload", true),
    ("worker_threads_current", "worker threads currently alive in the NF workload", true),
    ("process_restarts_total", "restarts of the NF workload since deployment", false),
    ("config_reloads_total", "configuration reloads applied by the NF workload", false),
    ("log_errors_total", "error-severity log lines emitted by the NF workload", false),
];

/// S-NSSAI slice variants for slice-aware procedures.
pub(crate) const SLICES: &[(&str, &str)] = &[
    ("embb", "eMBB (SST 1)"),
    ("urllc", "URLLC (SST 2)"),
    ("miot", "mIoT (SST 3)"),
];

/// SBI (service-based interface) APIs per NF, each expanded into
/// HTTP-level counters.
pub(crate) const SBI_APIS: &[(NetworkFunction, &str, &str)] = &[
    (NetworkFunction::Amf, "namf_comm", "Namf_Communication"),
    (NetworkFunction::Amf, "namf_evts", "Namf_EventExposure"),
    (NetworkFunction::Amf, "namf_loc", "Namf_Location"),
    (NetworkFunction::Amf, "namf_mt", "Namf_MT"),
    (NetworkFunction::Smf, "nsmf_pdusession", "Nsmf_PDUSession"),
    (NetworkFunction::Smf, "nsmf_evts", "Nsmf_EventExposure"),
    (NetworkFunction::Smf, "nsmf_nidd", "Nsmf_NIDD"),
    (NetworkFunction::Nrf, "nnrf_nfm", "Nnrf_NFManagement"),
    (NetworkFunction::Nrf, "nnrf_disc", "Nnrf_NFDiscovery"),
    (NetworkFunction::Nrf, "nnrf_oauth", "Nnrf_AccessToken"),
    (NetworkFunction::Nssf, "nnssf_nsselection", "Nnssf_NSSelection"),
    (NetworkFunction::Nssf, "nnssf_nssaiavail", "Nnssf_NSSAIAvailability"),
    (NetworkFunction::N3iwf, "nn3iwf_prov", "Nn3iwf_Provisioning"),
    (NetworkFunction::Upf, "nupf_evts", "Nupf_EventExposure"),
];

/// HTTP counter variants for each SBI API.
pub(crate) const SBI_VARIANTS: &[(&str, &str)] = &[
    ("requests_received", "HTTP requests received"),
    ("requests_sent", "HTTP requests sent"),
    ("responses_2xx", "HTTP 2xx responses"),
    ("responses_3xx", "HTTP 3xx responses"),
    ("responses_4xx", "HTTP 4xx responses"),
    ("responses_5xx", "HTTP 5xx responses"),
    ("timeouts", "HTTP request timeouts"),
    ("retries", "HTTP request retries"),
];

macro_rules! msgs {
    ($(($slug:literal, $disp:literal)),* $(,)?) => {
        &[$(($slug, $disp)),*]
    };
}

/// The full procedure grammar.
#[derive(Debug, Clone)]
pub(crate) struct ProcedureCatalog {
    procedures: Vec<Procedure>,
}

impl ProcedureCatalog {
    /// Build the built-in grammar (deterministic, no I/O).
    pub(crate) fn builtin() -> Self {
        ProcedureCatalog {
            procedures: builtin_procedures(),
        }
    }

    /// All procedures.
    pub(crate) fn procedures(&self) -> &[Procedure] {
        &self.procedures
    }
}

fn builtin_procedures() -> Vec<Procedure> {
    use NetworkFunction::*;
    use ProcKind::*;

    let mut v = Vec::new();
    let mut p = |nf: NetworkFunction,
                 service: &'static str,
                 service_display: &'static str,
                 slug: &'static str,
                 display: &'static str,
                 interface: Option<&'static str>,
                 spec: &'static str,
                 messages: &'static [(&'static str, &'static str)],
                 kind: ProcKind,
                 slice_aware: bool,
                 intensity: u8| {
        v.push(Procedure {
            nf,
            service,
            service_display,
            slug,
            display,
            interface,
            spec,
            messages,
            kind,
            slice_aware,
            intensity,
        });
    };

    // ---------------- AMF ----------------
    p(Amf, "cc", "call control", "initial_registration", "initial registration", Some("n1"),
      "3GPP TS 23.502",
      msgs![("registration_request", "REGISTRATION REQUEST"), ("registration_accept", "REGISTRATION ACCEPT"),
            ("registration_complete", "REGISTRATION COMPLETE"), ("registration_reject", "REGISTRATION REJECT")],
      Transactional, true, 2);
    p(Amf, "cc", "call control", "mobility_registration_update", "mobility registration update", Some("n1"),
      "3GPP TS 23.502",
      msgs![("registration_request", "REGISTRATION REQUEST"), ("registration_accept", "REGISTRATION ACCEPT")],
      Transactional, true, 2);
    p(Amf, "cc", "call control", "periodic_registration_update", "periodic registration update", Some("n1"),
      "3GPP TS 23.502",
      msgs![("registration_request", "REGISTRATION REQUEST"), ("registration_accept", "REGISTRATION ACCEPT")],
      Transactional, false, 1);
    p(Amf, "cc", "call control", "emergency_registration", "emergency registration", Some("n1"),
      "3GPP TS 23.502",
      msgs![("registration_request", "REGISTRATION REQUEST"), ("registration_accept", "REGISTRATION ACCEPT")],
      Transactional, false, 0);
    p(Amf, "cc", "call control", "ue_initiated_deregistration", "UE initiated deregistration", Some("n1"),
      "3GPP TS 23.502",
      msgs![("deregistration_request", "DEREGISTRATION REQUEST"), ("deregistration_accept", "DEREGISTRATION ACCEPT")],
      Transactional, false, 1);
    p(Amf, "cc", "call control", "network_initiated_deregistration", "network initiated deregistration", Some("n1"),
      "3GPP TS 23.502",
      msgs![("deregistration_request", "DEREGISTRATION REQUEST"), ("deregistration_accept", "DEREGISTRATION ACCEPT")],
      Transactional, false, 0);
    p(Amf, "cc", "call control", "service_request", "service request", Some("n1"),
      "3GPP TS 24.501",
      msgs![("service_request", "SERVICE REQUEST"), ("service_accept", "SERVICE ACCEPT"), ("service_reject", "SERVICE REJECT")],
      Transactional, true, 2);
    p(Amf, "cc", "call control", "paging", "paging", Some("n2"),
      "3GPP TS 38.413",
      msgs![("paging_request", "PAGING")],
      Transactional, false, 2);
    p(Amf, "cc", "call control", "ue_configuration_update", "UE configuration update", Some("n1"),
      "3GPP TS 24.501",
      msgs![("configuration_update_command", "CONFIGURATION UPDATE COMMAND"),
            ("configuration_update_complete", "CONFIGURATION UPDATE COMPLETE")],
      Transactional, false, 1);
    p(Amf, "sec", "security", "authentication", "authentication", Some("n1"),
      "3GPP TS 24.501",
      msgs![("auth_request", "AUTHENTICATION REQUEST"), ("auth_response", "AUTHENTICATION RESPONSE"),
            ("auth_reject", "AUTHENTICATION REJECT"), ("auth_failure", "AUTHENTICATION FAILURE")],
      Transactional, false, 2);
    p(Amf, "sec", "security", "security_mode_control", "security mode control", Some("n1"),
      "3GPP TS 24.501",
      msgs![("security_mode_command", "SECURITY MODE COMMAND"), ("security_mode_complete", "SECURITY MODE COMPLETE"),
            ("security_mode_reject", "SECURITY MODE REJECT")],
      Transactional, false, 2);
    p(Amf, "sec", "security", "identity_request", "identity request", Some("n1"),
      "3GPP TS 24.501",
      msgs![("identity_request", "IDENTITY REQUEST"), ("identity_response", "IDENTITY RESPONSE")],
      Transactional, false, 1);
    p(Amf, "mm", "mobility management", "n2_handover_preparation", "N2 handover preparation", Some("n2"),
      "3GPP TS 38.413",
      msgs![("handover_required", "HANDOVER REQUIRED"), ("handover_request", "HANDOVER REQUEST"),
            ("handover_request_ack", "HANDOVER REQUEST ACKNOWLEDGE")],
      Transactional, true, 1);
    p(Amf, "mm", "mobility management", "n2_handover_execution", "N2 handover execution", Some("n2"),
      "3GPP TS 38.413",
      msgs![("handover_command", "HANDOVER COMMAND"), ("handover_notify", "HANDOVER NOTIFY")],
      Transactional, true, 1);
    p(Amf, "mm", "mobility management", "xn_handover_path_switch", "Xn handover path switch", Some("n2"),
      "3GPP TS 38.413",
      msgs![("path_switch_request", "PATH SWITCH REQUEST"), ("path_switch_request_ack", "PATH SWITCH REQUEST ACKNOWLEDGE")],
      Transactional, true, 1);
    p(Amf, "mm", "mobility management", "ue_context_setup", "UE context setup", Some("n2"),
      "3GPP TS 38.413",
      msgs![("initial_context_setup_request", "INITIAL CONTEXT SETUP REQUEST"),
            ("initial_context_setup_response", "INITIAL CONTEXT SETUP RESPONSE")],
      Transactional, false, 2);
    p(Amf, "mm", "mobility management", "ue_context_release", "UE context release", Some("n2"),
      "3GPP TS 38.413",
      msgs![("ue_context_release_command", "UE CONTEXT RELEASE COMMAND"),
            ("ue_context_release_complete", "UE CONTEXT RELEASE COMPLETE")],
      Transactional, false, 2);
    p(Amf, "lcs", "location services", "lcs_ni_lr", "LCS network induced location request", None,
      "3GPP TS 23.273",
      msgs![("provide_location_request", "PROVIDE LOCATION REQUEST"),
            ("provide_location_response", "PROVIDE LOCATION RESPONSE")],
      Transactional, false, 0);
    p(Amf, "lcs", "location services", "lcs_mt_lr", "LCS mobile terminated location request", None,
      "3GPP TS 23.273",
      msgs![("provide_location_request", "PROVIDE LOCATION REQUEST"),
            ("provide_location_response", "PROVIDE LOCATION RESPONSE")],
      Transactional, false, 0);
    p(Amf, "lcs", "location services", "lcs_mo_lr", "LCS mobile originated location request", None,
      "3GPP TS 23.273",
      msgs![("location_services_request", "MO-LR REQUEST"), ("location_services_response", "MO-LR RESPONSE")],
      Transactional, false, 0);
    p(Amf, "cc", "call control", "ul_nas_transport", "uplink NAS transport", Some("n1"),
      "3GPP TS 24.501",
      msgs![("ul_nas_transport", "UL NAS TRANSPORT")],
      MessageOnly, false, 2);
    p(Amf, "cc", "call control", "dl_nas_transport", "downlink NAS transport", Some("n1"),
      "3GPP TS 24.501",
      msgs![("dl_nas_transport", "DL NAS TRANSPORT")],
      MessageOnly, false, 2);
    p(Amf, "mm", "mobility management", "ngap_transport", "NGAP signalling transport", Some("n2"),
      "3GPP TS 38.413",
      msgs![("ngap_initial_ue_message", "INITIAL UE MESSAGE"), ("ngap_error_indication", "ERROR INDICATION")],
      MessageOnly, false, 2);
    p(Amf, "cc", "call control", "registered_subscribers", "registered subscribers", None,
      "3GPP TS 23.501",
      msgs![],
      GaugeGroup, true, 2);
    p(Amf, "cc", "call control", "connected_ues", "connected UEs in CM-CONNECTED state", None,
      "3GPP TS 23.501",
      msgs![],
      GaugeGroup, false, 2);
    p(Amf, "mm", "mobility management", "ngap_associations", "NGAP associations with gNodeBs", Some("n2"),
      "3GPP TS 38.412",
      msgs![],
      GaugeGroup, false, 1);

    // ---------------- SMF ----------------
    p(Smf, "pdu", "PDU session management", "pdu_session_establishment", "PDU session establishment", Some("n11"),
      "3GPP TS 24.501",
      msgs![("pdu_session_establishment_request", "PDU SESSION ESTABLISHMENT REQUEST"),
            ("pdu_session_establishment_accept", "PDU SESSION ESTABLISHMENT ACCEPT"),
            ("pdu_session_establishment_reject", "PDU SESSION ESTABLISHMENT REJECT")],
      Transactional, true, 2);
    p(Smf, "pdu", "PDU session management", "pdu_session_modification", "PDU session modification", Some("n11"),
      "3GPP TS 24.501",
      msgs![("pdu_session_modification_request", "PDU SESSION MODIFICATION REQUEST"),
            ("pdu_session_modification_command", "PDU SESSION MODIFICATION COMMAND"),
            ("pdu_session_modification_reject", "PDU SESSION MODIFICATION REJECT")],
      Transactional, true, 1);
    p(Smf, "pdu", "PDU session management", "pdu_session_release", "PDU session release", Some("n11"),
      "3GPP TS 24.501",
      msgs![("pdu_session_release_request", "PDU SESSION RELEASE REQUEST"),
            ("pdu_session_release_command", "PDU SESSION RELEASE COMMAND"),
            ("pdu_session_release_complete", "PDU SESSION RELEASE COMPLETE")],
      Transactional, true, 2);
    p(Smf, "pdu", "PDU session management", "ip_address_allocation", "IP address allocation", None,
      "3GPP TS 23.501",
      msgs![],
      Transactional, false, 2);
    p(Smf, "pdu", "PDU session management", "qos_flow_setup", "QoS flow setup", Some("n11"),
      "3GPP TS 23.501",
      msgs![],
      Transactional, true, 1);
    p(Smf, "pdu", "PDU session management", "qos_flow_modification", "QoS flow modification", Some("n11"),
      "3GPP TS 23.501",
      msgs![],
      Transactional, false, 1);
    p(Smf, "n4", "N4 interface", "n4_session_establishment", "N4 session establishment", Some("n4"),
      "3GPP TS 29.244",
      msgs![("session_establishment_request", "PFCP SESSION ESTABLISHMENT REQUEST"),
            ("session_establishment_response", "PFCP SESSION ESTABLISHMENT RESPONSE")],
      Transactional, false, 2);
    p(Smf, "n4", "N4 interface", "n4_session_modification", "N4 session modification", Some("n4"),
      "3GPP TS 29.244",
      msgs![("session_modification_request", "PFCP SESSION MODIFICATION REQUEST"),
            ("session_modification_response", "PFCP SESSION MODIFICATION RESPONSE")],
      Transactional, false, 2);
    p(Smf, "n4", "N4 interface", "n4_session_release", "N4 session release", Some("n4"),
      "3GPP TS 29.244",
      msgs![("session_deletion_request", "PFCP SESSION DELETION REQUEST"),
            ("session_deletion_response", "PFCP SESSION DELETION RESPONSE")],
      Transactional, false, 2);
    p(Smf, "n4", "N4 interface", "n4_association_setup", "N4 association setup", Some("n4"),
      "3GPP TS 29.244",
      msgs![("association_setup_request", "PFCP ASSOCIATION SETUP REQUEST"),
            ("association_setup_response", "PFCP ASSOCIATION SETUP RESPONSE")],
      Transactional, false, 0);
    p(Smf, "n4", "N4 interface", "n4_heartbeat", "N4 heartbeat", Some("n4"),
      "3GPP TS 29.244",
      msgs![("heartbeat_request", "PFCP HEARTBEAT REQUEST"), ("heartbeat_response", "PFCP HEARTBEAT RESPONSE")],
      MessageOnly, false, 1);
    p(Smf, "chg", "charging", "charging_data_request", "charging data request", None,
      "3GPP TS 32.255",
      msgs![("charging_data_request", "CHARGING DATA REQUEST"), ("charging_data_response", "CHARGING DATA RESPONSE")],
      Transactional, false, 1);
    p(Smf, "pol", "policy control", "policy_association_establishment", "policy association establishment", Some("n7"),
      "3GPP TS 29.512",
      msgs![],
      Transactional, false, 1);
    p(Smf, "pol", "policy control", "policy_association_update", "policy association update", Some("n7"),
      "3GPP TS 29.512",
      msgs![],
      Transactional, false, 1);
    p(Smf, "pdu", "PDU session management", "active_pdu_sessions", "active PDU sessions", None,
      "3GPP TS 23.501",
      msgs![],
      GaugeGroup, true, 2);
    p(Smf, "pdu", "PDU session management", "allocated_ipv4_addresses", "allocated IPv4 addresses", None,
      "3GPP TS 23.501",
      msgs![],
      GaugeGroup, false, 2);
    p(Smf, "pdu", "PDU session management", "active_qos_flows", "active QoS flows", None,
      "3GPP TS 23.501",
      msgs![],
      GaugeGroup, false, 2);
    p(Smf, "n4", "N4 interface", "n4_associations", "active N4 associations", Some("n4"),
      "3GPP TS 29.244",
      msgs![],
      GaugeGroup, false, 0);

    // ---------------- NRF ----------------
    p(Nrf, "nfm", "NF management", "nf_registration", "NF registration", None,
      "3GPP TS 29.510",
      msgs![("nf_register_request", "NFRegister request"), ("nf_register_response", "NFRegister response")],
      Transactional, false, 1);
    p(Nrf, "nfm", "NF management", "nf_profile_update", "NF profile update", None,
      "3GPP TS 29.510",
      msgs![("nf_update_request", "NFUpdate request"), ("nf_update_response", "NFUpdate response")],
      Transactional, false, 1);
    p(Nrf, "nfm", "NF management", "nf_deregistration", "NF deregistration", None,
      "3GPP TS 29.510",
      msgs![("nf_deregister_request", "NFDeregister request"), ("nf_deregister_response", "NFDeregister response")],
      Transactional, false, 0);
    p(Nrf, "nfm", "NF management", "nf_heartbeat", "NF heartbeat", None,
      "3GPP TS 29.510",
      msgs![("nf_heartbeat_request", "NFUpdate heartbeat request"), ("nf_heartbeat_response", "NFUpdate heartbeat response")],
      Transactional, false, 2);
    p(Nrf, "disc", "NF discovery", "nf_discovery", "NF discovery", None,
      "3GPP TS 29.510",
      msgs![("nf_discovery_request", "NFDiscover request"), ("nf_discovery_response", "NFDiscover response")],
      Transactional, false, 2);
    p(Nrf, "oauth", "access token", "access_token_request", "access token request", None,
      "3GPP TS 29.510",
      msgs![("access_token_request", "AccessToken request"), ("access_token_response", "AccessToken response")],
      Transactional, false, 1);
    p(Nrf, "nfm", "NF management", "nf_status_subscription", "NF status subscription", None,
      "3GPP TS 29.510",
      msgs![("status_subscribe_request", "NFStatusSubscribe request"),
            ("status_notify", "NFStatusNotify")],
      Transactional, false, 1);
    p(Nrf, "nfm", "NF management", "nf_status_unsubscription", "NF status unsubscription", None,
      "3GPP TS 29.510",
      msgs![("status_unsubscribe_request", "NFStatusUnsubscribe request")],
      Transactional, false, 0);
    p(Nrf, "nfm", "NF management", "registered_nf_profiles", "registered NF profiles", None,
      "3GPP TS 29.510",
      msgs![],
      GaugeGroup, false, 1);
    p(Nrf, "nfm", "NF management", "active_subscriptions", "active status subscriptions", None,
      "3GPP TS 29.510",
      msgs![],
      GaugeGroup, false, 1);

    // ---------------- NSSF ----------------
    p(Nssf, "nss", "slice selection", "network_slice_selection", "network slice selection", None,
      "3GPP TS 29.531",
      msgs![("nsselection_get", "NSSelection GET"), ("nsselection_response", "NSSelection response")],
      Transactional, true, 2);
    p(Nssf, "nss", "slice selection", "nssai_availability_update", "NSSAI availability update", None,
      "3GPP TS 29.531",
      msgs![("nssaiavailability_put", "NSSAIAvailability PUT"), ("nssaiavailability_response", "NSSAIAvailability response")],
      Transactional, false, 1);
    p(Nssf, "nss", "slice selection", "nssai_availability_subscribe", "NSSAI availability subscription", None,
      "3GPP TS 29.531",
      msgs![("nssaiavailability_subscribe", "NSSAIAvailability subscribe")],
      Transactional, false, 0);
    p(Nssf, "nss", "slice selection", "configured_snssais", "configured S-NSSAIs", None,
      "3GPP TS 23.501",
      msgs![],
      GaugeGroup, false, 0);

    // ---------------- N3IWF ----------------
    p(N3iwf, "iwk", "untrusted access interworking", "ikev2_sa_initiation", "IKEv2 SA initiation", Some("nwu"),
      "3GPP TS 24.502",
      msgs![("ike_sa_init_request", "IKE_SA_INIT request"), ("ike_sa_init_response", "IKE_SA_INIT response")],
      Transactional, false, 1);
    p(N3iwf, "iwk", "untrusted access interworking", "ikev2_authentication", "IKEv2 authentication", Some("nwu"),
      "3GPP TS 24.502",
      msgs![("ike_auth_request", "IKE_AUTH request"), ("ike_auth_response", "IKE_AUTH response")],
      Transactional, false, 1);
    p(N3iwf, "iwk", "untrusted access interworking", "ipsec_child_sa_setup", "IPsec child SA setup", Some("nwu"),
      "3GPP TS 24.502",
      msgs![("create_child_sa_request", "CREATE_CHILD_SA request"), ("create_child_sa_response", "CREATE_CHILD_SA response")],
      Transactional, false, 1);
    p(N3iwf, "iwk", "untrusted access interworking", "nwu_registration", "registration over untrusted non-3GPP access", Some("nwu"),
      "3GPP TS 23.502",
      msgs![("nwu_registration_request", "REGISTRATION REQUEST over NWu"),
            ("nwu_registration_accept", "REGISTRATION ACCEPT over NWu")],
      Transactional, false, 1);
    p(N3iwf, "iwk", "untrusted access interworking", "nwu_pdu_session_establishment", "PDU session establishment over untrusted access", Some("nwu"),
      "3GPP TS 23.502",
      msgs![("nwu_pdu_establishment_request", "PDU SESSION ESTABLISHMENT REQUEST over NWu")],
      Transactional, false, 1);
    p(N3iwf, "iwk", "untrusted access interworking", "ue_connection_release", "UE connection release", Some("nwu"),
      "3GPP TS 24.502",
      msgs![("informational_delete", "INFORMATIONAL delete")],
      Transactional, false, 1);
    p(N3iwf, "iwk", "untrusted access interworking", "nwu_traffic", "NWu tunnelled traffic", Some("nwu"),
      "3GPP TS 24.502",
      msgs![],
      Traffic, false, 2);
    p(N3iwf, "iwk", "untrusted access interworking", "active_ipsec_tunnels", "active IPsec tunnels", Some("nwu"),
      "3GPP TS 24.502",
      msgs![],
      GaugeGroup, false, 1);

    // ---------------- UPF ----------------
    p(Upf, "up", "user plane", "n3_traffic", "N3 interface traffic", Some("n3"),
      "3GPP TS 29.281",
      msgs![],
      Traffic, true, 2);
    p(Upf, "up", "user plane", "n6_traffic", "N6 interface traffic", Some("n6"),
      "3GPP TS 23.501",
      msgs![],
      Traffic, true, 2);
    p(Upf, "up", "user plane", "n9_traffic", "N9 interface traffic", Some("n9"),
      "3GPP TS 29.281",
      msgs![],
      Traffic, false, 1);
    p(Upf, "n4c", "N4 control", "n4_session_establishment", "N4 session establishment", Some("n4"),
      "3GPP TS 29.244",
      msgs![("session_establishment_request", "PFCP SESSION ESTABLISHMENT REQUEST"),
            ("session_establishment_response", "PFCP SESSION ESTABLISHMENT RESPONSE")],
      Transactional, false, 2);
    p(Upf, "n4c", "N4 control", "n4_session_modification", "N4 session modification", Some("n4"),
      "3GPP TS 29.244",
      msgs![("session_modification_request", "PFCP SESSION MODIFICATION REQUEST"),
            ("session_modification_response", "PFCP SESSION MODIFICATION RESPONSE")],
      Transactional, false, 2);
    p(Upf, "n4c", "N4 control", "n4_session_release", "N4 session release", Some("n4"),
      "3GPP TS 29.244",
      msgs![("session_deletion_request", "PFCP SESSION DELETION REQUEST"),
            ("session_deletion_response", "PFCP SESSION DELETION RESPONSE")],
      Transactional, false, 2);
    p(Upf, "n4c", "N4 control", "pdr_install", "packet detection rule installation", Some("n4"),
      "3GPP TS 29.244",
      msgs![],
      Transactional, false, 2);
    p(Upf, "n4c", "N4 control", "far_install", "forwarding action rule installation", Some("n4"),
      "3GPP TS 29.244",
      msgs![],
      Transactional, false, 2);
    p(Upf, "n4c", "N4 control", "qer_install", "QoS enforcement rule installation", Some("n4"),
      "3GPP TS 29.244",
      msgs![],
      Transactional, false, 1);
    p(Upf, "n4c", "N4 control", "urr_install", "usage reporting rule installation", Some("n4"),
      "3GPP TS 29.244",
      msgs![],
      Transactional, false, 1);
    p(Upf, "n4c", "N4 control", "usage_reporting", "usage reporting", Some("n4"),
      "3GPP TS 29.244",
      msgs![("session_report_request", "PFCP SESSION REPORT REQUEST"),
            ("session_report_response", "PFCP SESSION REPORT RESPONSE")],
      Transactional, false, 1);
    p(Upf, "up", "user plane", "gtpu_echo", "GTP-U echo", Some("n3"),
      "3GPP TS 29.281",
      msgs![("echo_request", "GTP-U ECHO REQUEST"), ("echo_response", "GTP-U ECHO RESPONSE")],
      MessageOnly, false, 1);
    p(Upf, "up", "user plane", "active_n4_sessions", "active N4 sessions", Some("n4"),
      "3GPP TS 29.244",
      msgs![],
      GaugeGroup, false, 2);
    p(Upf, "up", "user plane", "active_gtpu_tunnels", "active GTP-U tunnels", Some("n3"),
      "3GPP TS 29.281",
      msgs![],
      GaugeGroup, false, 2);
    p(Upf, "up", "user plane", "installed_pdrs", "installed packet detection rules", Some("n4"),
      "3GPP TS 29.244",
      msgs![],
      GaugeGroup, false, 2);

    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_has_procedures_for_every_nf() {
        let cat = ProcedureCatalog::builtin();
        for nf in NetworkFunction::ALL {
            assert!(
                cat.procedures().iter().any(|p| p.nf == nf),
                "no procedures for {nf}"
            );
        }
    }

    #[test]
    fn slugs_are_unique_within_nf_and_service() {
        let cat = ProcedureCatalog::builtin();
        let mut seen = std::collections::HashSet::new();
        for p in cat.procedures() {
            assert!(
                seen.insert((p.nf, p.service, p.slug)),
                "duplicate procedure {}/{}/{}",
                p.nf,
                p.service,
                p.slug
            );
        }
    }

    #[test]
    fn transactional_procedures_exist_per_nf() {
        let cat = ProcedureCatalog::builtin();
        for nf in NetworkFunction::ALL {
            assert!(
                cat.procedures()
                    .iter()
                    .any(|p| p.nf == nf && p.kind == ProcKind::Transactional),
                "{nf} lacks transactional procedures"
            );
        }
    }

    #[test]
    fn paper_example_procedures_present() {
        let cat = ProcedureCatalog::builtin();
        // §3.1 documents amfcc_n1_auth_request; §4.2.3 discusses
        // the LCS NI-LR procedure and initial registration.
        assert!(cat.procedures().iter().any(|p| p.slug == "authentication" && p.nf == NetworkFunction::Amf));
        assert!(cat.procedures().iter().any(|p| p.slug == "lcs_ni_lr"));
        assert!(cat.procedures().iter().any(|p| p.slug == "initial_registration"));
    }

    #[test]
    fn failure_cause_pool_is_large_and_unique() {
        assert!(FAILURE_CAUSES.len() >= 25);
        let mut slugs: Vec<&str> = FAILURE_CAUSES.iter().map(|(s, _)| *s).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), FAILURE_CAUSES.len());
    }

    #[test]
    fn intensity_levels_are_bounded() {
        for p in ProcedureCatalog::builtin().procedures() {
            assert!(p.intensity <= 2);
        }
    }
}
