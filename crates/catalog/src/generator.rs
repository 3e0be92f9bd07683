//! Expansion of the procedure grammar into the full metric catalog.

use crate::nf::NetworkFunction;
use crate::procedures::{
    ProcKind, Procedure, ProcedureCatalog, EVENT_VARIANTS, FAILURE_CAUSES, MESSAGE_VARIANTS,
    RESOURCE_METRICS, SBI_APIS, SBI_VARIANTS, SLICES,
};
use crate::types::{CounterType, MetricDef, MetricRole, ProcedureGroup, TrafficHint, Unit};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Failure causes per transactional procedure: at least `CAUSES_MIN`,
/// fewer than `CAUSES_MAX`.
const CAUSES_MIN: usize = 22;
const CAUSES_MAX: usize = 40;

/// Catalog generation options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CatalogConfig {
    /// Emit per-S-NSSAI variants for slice-aware procedures.
    pub slice_variants: bool,
    /// Emit SBI HTTP counters.
    pub sbi_counters: bool,
    /// Seed that perturbs rates, ratios, and cause subsets.
    pub seed: u64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            slice_variants: true,
            sbi_counters: true,
            seed: 0xca7a_1035_eed5_0001,
        }
    }
}

/// The generated catalog: flat metric list plus procedure grouping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Catalog {
    /// Every metric, in deterministic generation order.
    pub metrics: Vec<MetricDef>,
    /// Procedure groups referencing metric names.
    pub groups: Vec<ProcedureGroup>,
}

impl Catalog {
    /// Look up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricDef> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metrics were generated.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

/// Stable per-string hash used to derive rates/ratios deterministically.
fn mix(seed: u64, s: &str) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// Uniform float in `[lo, hi)` from a hash.
fn uniform(h: u64, lo: f64, hi: f64) -> f64 {
    lo + (h >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
}

fn prefix(p: &Procedure) -> String {
    format!("{}{}", p.nf.abbrev(), p.service)
}

fn name_with_iface(p: &Procedure, tail: &str) -> String {
    match p.interface {
        Some(ifc) => format!("{}_{}_{}", prefix(p), ifc, tail),
        None => format!("{}_{}", prefix(p), tail),
    }
}

fn section(h: u64) -> String {
    format!(
        "{}.{}.{}",
        4 + (h % 6),
        1 + ((h >> 8) % 9),
        1 + ((h >> 16) % 9)
    )
}

fn base_rate_for(intensity: u8, h: u64) -> f64 {
    let base = match intensity {
        0 => 0.4,
        1 => 4.0,
        _ => 25.0,
    };
    base * uniform(h, 0.6, 1.6)
}

fn gauge_level_for(intensity: u8, h: u64) -> f64 {
    let base = match intensity {
        0 => 60.0,
        1 => 4_000.0,
        _ => 40_000.0,
    };
    base * uniform(h, 0.5, 1.5)
}

/// Generate the full catalog from the built-in grammar.
pub fn generate_catalog(config: &CatalogConfig) -> Catalog {
    let grammar = ProcedureCatalog::builtin();
    let mut metrics: Vec<MetricDef> = Vec::new();
    let mut groups: Vec<ProcedureGroup> = Vec::new();
    let mut names: HashSet<String> = HashSet::new();

    let mut push = |metrics: &mut Vec<MetricDef>, names: &mut HashSet<String>, m: MetricDef| -> bool {
        if names.contains(&m.name) {
            return false;
        }
        names.insert(m.name.clone());
        metrics.push(m);
        true
    };

    for proc in grammar.procedures() {
        let ph = mix(config.seed, &format!("{}/{}/{}", proc.nf.abbrev(), proc.service, proc.slug));
        let mut group = ProcedureGroup {
            nf: proc.nf,
            service: proc.service.to_string(),
            procedure: proc.slug.to_string(),
            display: proc.display.to_string(),
            attempt: None,
            success: None,
            failures: Vec::new(),
            other: Vec::new(),
        };

        match proc.kind {
            ProcKind::Transactional => {
                expand_transactional(config, proc, ph, &mut metrics, &mut names, &mut group, &mut push);
            }
            ProcKind::MessageOnly => {
                expand_messages(proc, ph, None, &mut metrics, &mut names, &mut group, &mut push);
            }
            ProcKind::Traffic => {
                expand_traffic(config, proc, ph, &mut metrics, &mut names, &mut group, &mut push);
            }
            ProcKind::GaugeGroup => {
                expand_gauges(proc, ph, &mut metrics, &mut names, &mut group, &mut push);
            }
        }

        groups.push(group);
    }

    if config.sbi_counters {
        expand_sbi(config, &mut metrics, &mut names, &mut groups, &mut push);
    }

    expand_resources(config, &mut metrics, &mut names, &mut groups, &mut push);

    Catalog { metrics, groups }
}

type PushFn<'a> = dyn FnMut(&mut Vec<MetricDef>, &mut HashSet<String>, MetricDef) -> bool + 'a;

#[allow(clippy::too_many_arguments)]
fn expand_transactional(
    config: &CatalogConfig,
    proc: &Procedure,
    ph: u64,
    metrics: &mut Vec<MetricDef>,
    names: &mut HashSet<String>,
    group: &mut ProcedureGroup,
    push: &mut PushFn<'_>,
) {
    let rate = base_rate_for(proc.intensity, ph);
    let success_ratio = uniform(mix(ph, "sr"), 0.90, 0.995);
    let sec = section(ph);

    // Attempt counter.
    let attempt_name = name_with_iface(proc, &format!("{}_attempt", proc.slug));
    let attempt_desc = format!(
        "The number of {} procedure attempts handled by {}. Incremented each time the {} starts the {} procedure. \
         Part of the {} service statistics. The procedure is defined in section {} of {}. 64-bit counter.",
        proc.display,
        proc.nf.upper(),
        proc.nf.upper(),
        proc.display,
        proc.service_display,
        sec,
        proc.spec,
    );
    push(
        metrics,
        names,
        MetricDef {
            name: attempt_name.clone(),
            nf: proc.nf,
            service: proc.service.to_string(),
            procedure: proc.slug.to_string(),
            procedure_display: proc.display.to_string(),
            role: MetricRole::Attempt,
            counter_type: CounterType::Counter64,
            unit: Unit::Count,
            description: attempt_desc,
            spec_ref: proc.spec.to_string(),
            traffic: TrafficHint {
                base_rate: rate,
                couple_ratio: None,
            },
        },
    );
    group.attempt = Some(attempt_name.clone());

    // Success counter.
    let success_name = name_with_iface(proc, &format!("{}_success", proc.slug));
    let success_desc = format!(
        "The number of {} procedures completed successfully by {}. Incremented when the {} procedure concludes \
         without error. Used together with {} to compute the {} success rate. Defined in section {} of {}. 64-bit counter.",
        proc.display,
        proc.nf.upper(),
        proc.display,
        attempt_name,
        proc.display,
        sec,
        proc.spec,
    );
    push(
        metrics,
        names,
        MetricDef {
            name: success_name.clone(),
            nf: proc.nf,
            service: proc.service.to_string(),
            procedure: proc.slug.to_string(),
            procedure_display: proc.display.to_string(),
            role: MetricRole::Success,
            counter_type: CounterType::Counter64,
            unit: Unit::Count,
            description: success_desc,
            spec_ref: proc.spec.to_string(),
            traffic: TrafficHint {
                base_rate: rate * success_ratio,
                couple_ratio: Some(success_ratio),
            },
        },
    );
    group.success = Some(success_name);

    // Failure-cause counters: a deterministic subset of the pool. The
    // subset (and therefore the metric-name set) is a function of the
    // procedure identity only, never of `config.seed`, so different
    // seeds perturb rates without changing the schema.
    let nh = mix(
        0x57ab_1e00,
        &format!("{}/{}/{}", proc.nf.abbrev(), proc.service, proc.slug),
    );
    let span = CAUSES_MAX - CAUSES_MIN;
    let n_causes = (CAUSES_MIN + (mix(nh, "nc") as usize % span)).min(FAILURE_CAUSES.len());
    let offset = mix(nh, "co") as usize % FAILURE_CAUSES.len();
    let fail_total = 1.0 - success_ratio;
    // Hash-weighted shares over the chosen causes, normalised.
    let mut shares: Vec<f64> = (0..n_causes)
        .map(|i| uniform(mix(ph, &format!("cw{i}")), 0.2, 1.0))
        .collect();
    let sum: f64 = shares.iter().sum();
    for s in &mut shares {
        *s = *s / sum * fail_total;
    }
    for i in 0..n_causes {
        let (cause_slug, cause_disp) = FAILURE_CAUSES[(offset + i) % FAILURE_CAUSES.len()];
        let fname = name_with_iface(proc, &format!("{}_failure_{}", proc.slug, cause_slug));
        let fdesc = format!(
            "The number of {} procedures that failed at {} with cause '{}'. Incremented when the {} procedure is \
             aborted or rejected with this cause value. Cause values are defined in {}. 64-bit counter.",
            proc.display,
            proc.nf.upper(),
            cause_disp,
            proc.display,
            proc.spec,
        );
        if push(
            metrics,
            names,
            MetricDef {
                name: fname.clone(),
                nf: proc.nf,
                service: proc.service.to_string(),
                procedure: proc.slug.to_string(),
                procedure_display: proc.display.to_string(),
                role: MetricRole::Failure {
                    cause: cause_slug.to_string(),
                },
                counter_type: CounterType::Counter64,
                unit: Unit::Count,
                description: fdesc,
                spec_ref: proc.spec.to_string(),
                traffic: TrafficHint {
                    base_rate: rate * shares[i],
                    couple_ratio: Some(shares[i]),
                },
            },
        ) {
            group.failures.push((cause_slug.to_string(), fname));
        }
    }

    // Duration accumulator.
    let mean_ms = uniform(mix(ph, "dur"), 20.0, 500.0);
    let dname = name_with_iface(proc, &format!("{}_duration_ms_total", proc.slug));
    let ddesc = format!(
        "The accumulated duration, in milliseconds, of all completed {} procedures at {}. Divide by {} to obtain \
         the mean procedure duration. 64-bit counter measuring milliseconds.",
        proc.display,
        proc.nf.upper(),
        name_with_iface(proc, &format!("{}_success", proc.slug)),
    );
    if push(
        metrics,
        names,
        MetricDef {
            name: dname.clone(),
            nf: proc.nf,
            service: proc.service.to_string(),
            procedure: proc.slug.to_string(),
            procedure_display: proc.display.to_string(),
            role: MetricRole::DurationTotal,
            counter_type: CounterType::Counter64,
            unit: Unit::Milliseconds,
            description: ddesc,
            spec_ref: proc.spec.to_string(),
            traffic: TrafficHint {
                base_rate: rate * success_ratio * mean_ms,
                couple_ratio: Some(success_ratio * mean_ms),
            },
        },
    ) {
        group.other.push(dname);
    }

    // Timer/impairment event counters.
    for (ev_slug, ev_disp) in EVENT_VARIANTS {
        let ratio = uniform(mix(ph, ev_slug), 0.002, 0.03);
        let ename = name_with_iface(proc, &format!("{}_{}", proc.slug, ev_slug));
        let edesc = format!(
            "The number of {} the {} procedure at {}. Incremented by the procedure state machine; a rising rate \
             indicates peer or transport problems. Timers for the procedure are defined in {}. 64-bit counter.",
            ev_disp,
            proc.display,
            proc.nf.upper(),
            proc.spec,
        );
        if push(
            metrics,
            names,
            MetricDef {
                name: ename.clone(),
                nf: proc.nf,
                service: proc.service.to_string(),
                procedure: proc.slug.to_string(),
                procedure_display: proc.display.to_string(),
                role: MetricRole::Event {
                    event: ev_slug.to_string(),
                },
                counter_type: CounterType::Counter64,
                unit: Unit::Count,
                description: edesc,
                spec_ref: proc.spec.to_string(),
                traffic: TrafficHint {
                    base_rate: rate * ratio,
                    couple_ratio: Some(ratio),
                },
            },
        ) {
            group.other.push(ename);
        }
    }

    // Per-message counters.
    expand_messages(proc, ph, Some(rate), metrics, names, group, push);

    // Per-slice attempt/success variants.
    if config.slice_variants && proc.slice_aware {
        for (slice_slug, slice_disp) in SLICES {
            let share = uniform(mix(ph, &format!("slice_{slice_slug}")), 0.1, 0.5);
            for (role, suffix, ratio) in [
                (MetricRole::Attempt, "attempt", share),
                (MetricRole::Success, "success", share * success_ratio),
            ] {
                let sname = name_with_iface(
                    proc,
                    &format!("{}_{}_snssai_{}", proc.slug, suffix, slice_slug),
                );
                let sdesc = format!(
                    "The number of {} procedure {}s at {} for PDU sessions or registrations on the {} network \
                     slice. Per-slice breakdown of {}. S-NSSAI values are defined in 3GPP TS 23.003. 64-bit counter.",
                    proc.display,
                    suffix,
                    proc.nf.upper(),
                    slice_disp,
                    name_with_iface(proc, &format!("{}_{}", proc.slug, suffix)),
                );
                if push(
                    metrics,
                    names,
                    MetricDef {
                        name: sname.clone(),
                        nf: proc.nf,
                        service: proc.service.to_string(),
                        procedure: proc.slug.to_string(),
                        procedure_display: proc.display.to_string(),
                        role: role.clone(),
                        counter_type: CounterType::Counter64,
                        unit: Unit::Count,
                        description: sdesc,
                        spec_ref: proc.spec.to_string(),
                        traffic: TrafficHint {
                            base_rate: rate * ratio,
                            couple_ratio: Some(ratio),
                        },
                    },
                ) {
                    group.other.push(sname);
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn expand_messages(
    proc: &Procedure,
    ph: u64,
    rate_hint: Option<f64>,
    metrics: &mut Vec<MetricDef>,
    names: &mut HashSet<String>,
    group: &mut ProcedureGroup,
    push: &mut PushFn<'_>,
) {
    let rate = rate_hint.unwrap_or_else(|| base_rate_for(proc.intensity, ph));
    for (msg_slug, msg_disp) in proc.messages {
        for (var_slug, var_disp) in MESSAGE_VARIANTS {
            let ratio = match *var_slug {
                "sent" | "received" => 1.0,
                "retransmitted" => 0.02,
                "duplicate" => 0.004,
                "dropped_overload" => 0.003,
                _ => 0.002, // malformed
            };
            let mname = name_with_iface(proc, &format!("{}_{}", msg_slug, var_slug));
            let mdesc = format!(
                "The number of {} messages {} by {}. The {} message is part of the {} procedure, defined in \
                 section {} of {}. 64-bit counter.",
                msg_disp,
                var_disp,
                proc.nf.upper(),
                msg_disp,
                proc.display,
                section(mix(ph, msg_slug)),
                proc.spec,
            );
            if push(
                metrics,
                names,
                MetricDef {
                    name: mname.clone(),
                    nf: proc.nf,
                    service: proc.service.to_string(),
                    procedure: proc.slug.to_string(),
                    procedure_display: proc.display.to_string(),
                    role: MetricRole::Message {
                        message: msg_slug.to_string(),
                        sent: *var_slug == "sent",
                    },
                    counter_type: CounterType::Counter64,
                    unit: Unit::Count,
                    description: mdesc,
                    spec_ref: proc.spec.to_string(),
                    traffic: TrafficHint {
                        base_rate: rate * ratio,
                        couple_ratio: Some(ratio),
                    },
                },
            ) {
                group.other.push(mname);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn expand_traffic(
    config: &CatalogConfig,
    proc: &Procedure,
    ph: u64,
    metrics: &mut Vec<MetricDef>,
    names: &mut HashSet<String>,
    group: &mut ProcedureGroup,
    push: &mut PushFn<'_>,
) {
    let iface = proc.interface.unwrap_or("n3");
    let whats: &[(&str, &str, Unit, f64)] = &[
        ("bytes", "octets forwarded", Unit::Bytes, 1.0e7),
        ("packets", "packets forwarded", Unit::Packets, 1.0e4),
        ("dropped_packets", "packets dropped", Unit::Packets, 30.0),
        ("error_packets", "packets discarded due to errors", Unit::Packets, 2.0),
    ];
    let dirs: &[(&str, &str)] = &[("ul", "uplink"), ("dl", "downlink")];
    for (dir_slug, dir_disp) in dirs {
        for (what_slug, what_disp, unit, scale) in whats {
            let rate = scale * uniform(mix(ph, &format!("{dir_slug}{what_slug}")), 0.5, 1.5);
            let tname = format!("{}_{}_{}_{}", prefix(proc), iface, dir_slug, what_slug);
            let tdesc = format!(
                "The total number of {} in the {} direction on the {} reference point at {}. Measures user-plane \
                 {} traffic. The {} interface is defined in {}. 64-bit counter.",
                what_disp,
                dir_disp,
                iface.to_uppercase(),
                proc.nf.upper(),
                dir_disp,
                iface.to_uppercase(),
                proc.spec,
            );
            if push(
                metrics,
                names,
                MetricDef {
                    name: tname.clone(),
                    nf: proc.nf,
                    service: proc.service.to_string(),
                    procedure: proc.slug.to_string(),
                    procedure_display: proc.display.to_string(),
                    role: MetricRole::Traffic {
                        interface: iface.to_string(),
                        direction: dir_slug.to_string(),
                        what: what_slug.to_string(),
                    },
                    counter_type: CounterType::Counter64,
                    unit: *unit,
                    description: tdesc,
                    spec_ref: proc.spec.to_string(),
                    traffic: TrafficHint {
                        base_rate: rate,
                        couple_ratio: None,
                    },
                },
            ) {
                group.other.push(tname);
            }
        }
        // Per-5QI byte/packet counters for slice-aware traffic families.
        if config.slice_variants && proc.slice_aware {
            for qi in [1u8, 2, 5, 7, 9] {
                for (what_slug, what_disp, unit, scale) in &whats[..2] {
                    let rate =
                        scale * uniform(mix(ph, &format!("{dir_slug}5qi{qi}{what_slug}")), 0.05, 0.4);
                    let qname = format!(
                        "{}_{}_{}_5qi{}_{}",
                        prefix(proc),
                        iface,
                        dir_slug,
                        qi,
                        what_slug
                    );
                    let qdesc = format!(
                        "The total number of {} in the {} direction on the {} reference point at {} for QoS flows \
                         with 5QI {}. Per-QoS-class breakdown of user-plane traffic. 5QI characteristics are \
                         defined in 3GPP TS 23.501 table 5.7.4-1. 64-bit counter.",
                        what_disp,
                        dir_disp,
                        iface.to_uppercase(),
                        proc.nf.upper(),
                        qi,
                    );
                    if push(
                        metrics,
                        names,
                        MetricDef {
                            name: qname.clone(),
                            nf: proc.nf,
                            service: proc.service.to_string(),
                            procedure: proc.slug.to_string(),
                            procedure_display: proc.display.to_string(),
                            role: MetricRole::Traffic {
                                interface: iface.to_string(),
                                direction: dir_slug.to_string(),
                                what: format!("5qi{}_{}", qi, what_slug),
                            },
                            counter_type: CounterType::Counter64,
                            unit: *unit,
                            description: qdesc,
                            spec_ref: proc.spec.to_string(),
                            traffic: TrafficHint {
                                base_rate: rate,
                                couple_ratio: None,
                            },
                        },
                    ) {
                        group.other.push(qname);
                    }
                }
            }
        }
    }
}

fn expand_gauges(
    proc: &Procedure,
    ph: u64,
    metrics: &mut Vec<MetricDef>,
    names: &mut HashSet<String>,
    group: &mut ProcedureGroup,
    push: &mut PushFn<'_>,
) {
    let level = gauge_level_for(proc.intensity, ph);
    for (var_slug, var_disp, scale) in [
        ("current", "current number", 1.0),
        ("peak", "peak number since the last counter reset", 1.3),
        ("mean", "mean number over the reporting interval", 0.95),
    ] {
        let gname = format!("{}_{}_{}", prefix(proc), proc.slug, var_slug);
        let gdesc = format!(
            "The {} of {} at {}. Point-in-time occupancy statistic sampled at the reporting interval. \
             Related concepts are defined in {}. Gauge.",
            var_disp,
            proc.display,
            proc.nf.upper(),
            proc.spec,
        );
        if push(
            metrics,
            names,
            MetricDef {
                name: gname.clone(),
                nf: proc.nf,
                service: proc.service.to_string(),
                procedure: proc.slug.to_string(),
                procedure_display: proc.display.to_string(),
                role: MetricRole::ActiveGauge,
                counter_type: CounterType::Gauge,
                unit: Unit::Entities,
                description: gdesc,
                spec_ref: proc.spec.to_string(),
                traffic: TrafficHint {
                    base_rate: level * scale,
                    couple_ratio: None,
                },
            },
        ) {
            group.other.push(gname);
        }
    }
}

fn expand_sbi(
    config: &CatalogConfig,
    metrics: &mut Vec<MetricDef>,
    names: &mut HashSet<String>,
    groups: &mut Vec<ProcedureGroup>,
    push: &mut PushFn<'_>,
) {
    for (nf, api_slug, api_disp) in SBI_APIS {
        let ph = mix(config.seed, api_slug);
        let rate = base_rate_for(2, ph);
        let mut group = ProcedureGroup {
            nf: *nf,
            service: "sbi".to_string(),
            procedure: api_slug.to_string(),
            display: format!("{api_disp} service-based interface"),
            attempt: None,
            success: None,
            failures: Vec::new(),
            other: Vec::new(),
        };
        for (var_slug, var_disp) in SBI_VARIANTS {
            let ratio = match *var_slug {
                "requests_received" | "requests_sent" => 1.0,
                "responses_2xx" => 0.96,
                "responses_3xx" => 0.002,
                "responses_4xx" => 0.025,
                "responses_5xx" => 0.01,
                "timeouts" => 0.005,
                _ => 0.008, // retries
            };
            let sname = format!("{}sbi_{}_{}", nf.abbrev(), api_slug, var_slug);
            let sdesc = format!(
                "The number of {} observed by the {} service-based interface ({}) at {}. Service operations are \
                 defined in the {} OpenAPI of 3GPP TS 29.5xx series. 64-bit counter.",
                var_disp,
                api_disp,
                api_slug,
                nf.upper(),
                api_disp,
            );
            if push(
                metrics,
                names,
                MetricDef {
                    name: sname.clone(),
                    nf: *nf,
                    service: "sbi".to_string(),
                    procedure: api_slug.to_string(),
                    procedure_display: group.display.clone(),
                    role: MetricRole::Message {
                        message: var_slug.to_string(),
                        sent: *var_slug == "requests_sent",
                    },
                    counter_type: CounterType::Counter64,
                    unit: Unit::Count,
                    description: sdesc,
                    spec_ref: "3GPP TS 29.500".to_string(),
                    traffic: TrafficHint {
                        base_rate: rate * ratio,
                        couple_ratio: Some(ratio),
                    },
                },
            ) {
                group.other.push(sname);
            }
        }
        groups.push(group);
    }
}

fn expand_resources(
    config: &CatalogConfig,
    metrics: &mut Vec<MetricDef>,
    names: &mut HashSet<String>,
    groups: &mut Vec<ProcedureGroup>,
    push: &mut PushFn<'_>,
) {
    for nf in NetworkFunction::ALL {
        let mut group = ProcedureGroup {
            nf,
            service: "platform".to_string(),
            procedure: "platform_resources".to_string(),
            display: format!("{} platform resources", nf.upper()),
            attempt: None,
            success: None,
            failures: Vec::new(),
            other: Vec::new(),
        };
        for (res_slug, res_desc, is_gauge) in RESOURCE_METRICS {
            let h = mix(config.seed, &format!("{}:{}", nf.abbrev(), res_slug));
            let rname = format!("{}plat_{}", nf.abbrev(), res_slug);
            let rdesc = format!(
                "The {} for the {} ({}). Platform-level statistic exported by the workload runtime, not defined \
                 in 3GPP specifications. {}.",
                res_desc,
                nf.upper(),
                nf.full_name(),
                if *is_gauge { "Gauge" } else { "64-bit counter" },
            );
            if push(
                metrics,
                names,
                MetricDef {
                    name: rname.clone(),
                    nf,
                    service: "platform".to_string(),
                    procedure: "platform_resources".to_string(),
                    procedure_display: group.display.clone(),
                    role: if *is_gauge {
                        MetricRole::ActiveGauge
                    } else {
                        MetricRole::Event {
                            event: res_slug.to_string(),
                        }
                    },
                    counter_type: if *is_gauge {
                        CounterType::Gauge
                    } else {
                        CounterType::Counter64
                    },
                    unit: Unit::Count,
                    description: rdesc,
                    spec_ref: "vendor platform documentation".to_string(),
                    traffic: TrafficHint {
                        base_rate: if *is_gauge {
                            uniform(h, 10.0, 90.0)
                        } else {
                            uniform(h, 0.001, 0.1)
                        },
                        couple_ratio: None,
                    },
                },
            ) {
                group.other.push(rname);
            }
        }
        groups.push(group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        generate_catalog(&CatalogConfig::default())
    }

    #[test]
    fn generates_more_than_3000_metrics() {
        let c = catalog();
        assert!(
            c.len() >= 3000,
            "paper evaluates on >3000 metrics, generated {}",
            c.len()
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let c = catalog();
        let mut names: Vec<&str> = c.metrics.iter().map(|m| m.name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn covers_all_six_network_functions() {
        let c = catalog();
        for nf in NetworkFunction::ALL {
            assert!(
                c.metrics.iter().any(|m| m.nf == nf),
                "no metrics for {nf}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = catalog();
        let b = catalog();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.groups, b.groups);
    }

    #[test]
    fn paper_style_auth_request_counter_exists() {
        let c = catalog();
        // §3.1's example is amfcc_n1_auth_request; our grammar puts
        // authentication under the security service.
        let m = c.get("amfsec_n1_auth_request_sent").expect("auth request counter");
        assert!(m.description.contains("AUTHENTICATION REQUEST"));
        assert!(m.description.contains("3GPP TS 24.501"));
        assert!(m.description.contains("64-bit counter"));
    }

    #[test]
    fn groups_reference_existing_metrics() {
        let c = catalog();
        let names: HashSet<&str> = c.metrics.iter().map(|m| m.name.as_str()).collect();
        for g in &c.groups {
            for n in g.all_names() {
                assert!(names.contains(n), "group references unknown metric {n}");
            }
        }
    }

    #[test]
    fn success_rate_never_exceeds_attempt_rate() {
        let c = catalog();
        for g in &c.groups {
            if let (Some(a), Some(s)) = (&g.attempt, &g.success) {
                let ar = c.get(a).unwrap().traffic.base_rate;
                let sr = c.get(s).unwrap().traffic.base_rate;
                assert!(sr <= ar, "{s} rate {sr} > {a} rate {ar}");
            }
        }
    }

    #[test]
    fn failure_shares_sum_below_failure_budget() {
        let c = catalog();
        for g in &c.groups {
            if let Some(a) = &g.attempt {
                let ar = c.get(a).unwrap().traffic.base_rate;
                let fsum: f64 = g
                    .failures
                    .iter()
                    .map(|(_, n)| c.get(n).unwrap().traffic.base_rate)
                    .sum();
                assert!(
                    fsum <= ar * 0.11,
                    "failures of {} exceed budget: {fsum} vs attempt {ar}",
                    g.procedure
                );
            }
        }
    }

    #[test]
    fn transactional_groups_have_attempt_success_and_causes() {
        let c = catalog();
        let reg = c
            .groups
            .iter()
            .find(|g| g.procedure == "initial_registration")
            .unwrap();
        assert!(reg.attempt.is_some());
        assert!(reg.success.is_some());
        assert!(reg.failures.len() >= 10);
        assert!(!reg.other.is_empty());
    }

    #[test]
    fn descriptions_are_multi_sentence_and_reference_specs() {
        let c = catalog();
        for m in c.metrics.iter().take(200) {
            assert!(
                m.description.matches('.').count() >= 2,
                "description too short for {}: {}",
                m.name,
                m.description
            );
            assert!(m.description.contains("3GPP") || m.spec_ref.contains("3GPP"));
        }
    }

    #[test]
    fn disabling_options_shrinks_catalog() {
        let full = catalog();
        let small = generate_catalog(&CatalogConfig {
            slice_variants: false,
            sbi_counters: false,
            ..CatalogConfig::default()
        });
        assert!(small.len() < full.len());
    }

    #[test]
    fn gauges_are_marked_gauge() {
        let c = catalog();
        let g = c.get("amfcc_registered_subscribers_current").unwrap();
        assert_eq!(g.counter_type, CounterType::Gauge);
        assert_eq!(g.role, MetricRole::ActiveGauge);
    }

    #[test]
    fn different_seed_changes_rates_not_names() {
        let a = generate_catalog(&CatalogConfig::default());
        let b = generate_catalog(&CatalogConfig {
            seed: 12345,
            ..CatalogConfig::default()
        });
        // Names derive from the grammar; rates derive from the seed.
        let names_a: Vec<&str> = a.metrics.iter().map(|m| m.name.as_str()).collect();
        let names_b: Vec<&str> = b.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names_a, names_b);
        assert!(a
            .metrics
            .iter()
            .zip(&b.metrics)
            .any(|(x, y)| (x.traffic.base_rate - y.traffic.base_rate).abs() > 1e-9));
    }
}
