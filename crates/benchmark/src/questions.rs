//! The 200-question benchmark dataset (paper §4.1).
//!
//! "A benchmark dataset of 200 expert-generated user questions and
//! corresponding reference PromQL expressions … Each reference response
//! consists of the metrics that are essential to answer the
//! corresponding user question, a PromQL query and a numeric answer.
//! … The queries span an extensive spectrum of metrics related to
//! diverse network functions, and target multiple tasks like retrieval,
//! averaging, sum and rate, and contain up-to three metrics in a single
//! expression."
//!
//! Questions are generated deterministically against the world's
//! catalog. Half use **plain** phrasing (the procedure's display name,
//! which the vendor's naming convention mirrors) and half use
//! **paraphrased** phrasing (synonyms and jargon that only descriptions
//! — not counter names — can bridge). The paraphrase split is what
//! separates curated-context retrieval from name-only schema prompting,
//! the paper's central claim.

use crate::fewshot::is_fewshot_procedure;
use crate::world::OperatorWorld;
use dio_catalog::{ProcedureGroup, FAILURE_CAUSES};
use dio_llm::TaskShape;
use serde::{Deserialize, Serialize};

/// How a question is phrased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phrasing {
    /// Uses the procedure display name (matches naming conventions).
    Plain,
    /// Uses synonyms/jargon that only descriptions can bridge.
    Paraphrase,
}

/// The expert reference for one question.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reference {
    /// Metrics essential to the answer.
    pub metrics: Vec<String>,
    /// Reference PromQL.
    pub promql: String,
    /// Numeric answer from executing the reference on the world store.
    pub numeric: f64,
}

/// One benchmark question.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkQuestion {
    /// Stable id (0..n).
    pub id: usize,
    /// The natural-language question.
    pub text: String,
    /// Task shape (debug string of the canonical shape).
    pub shape: String,
    /// Phrasing class.
    pub phrasing: Phrasing,
    /// The reference answer.
    pub reference: Reference,
}

fn mix(seed: u64, s: &str) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h
}

/// Word-level paraphrase map. Every replacement is bridged by the
/// telecom lexicon (so a strong model can recover it) but absent from
/// counter names (so name-only fabrication cannot).
fn paraphrase_word(w: &str) -> Option<&'static str> {
    Some(match w {
        "registration" => "register",
        "deregistration" => "deregister",
        "authentication" => "auth",
        "establishment" => "setup",
        "release" => "teardown",
        "modification" => "change",
        "discovery" => "lookup",
        "bytes" => "octets",
        "uplink" => "upstream",
        "downlink" => "downstream",
        "subscribers" => "users",
        "handover" => "mobility",
        _ => return None,
    })
}

/// Paraphrase a display phrase word-by-word.
fn paraphrase_phrase(display: &str) -> String {
    display
        .split_whitespace()
        .map(|w| {
            let lower = w.to_lowercase();
            paraphrase_word(&lower).unwrap_or(w).to_string()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn nf_mention(g: &ProcedureGroup) -> String {
    g.nf.upper().to_string()
}

/// A generation candidate before the quota pass.
struct Candidate {
    text: String,
    shape: TaskShape,
    phrasing: Phrasing,
    metrics: Vec<String>,
    promql: String,
}

/// Generate the benchmark: `n` questions (the paper uses 200).
pub fn generate_benchmark(world: &OperatorWorld, n: usize, seed: u64) -> Vec<BenchmarkQuestion> {
    let engine = world.reference_engine();
    let groups: Vec<&ProcedureGroup> = world
        .catalog
        .groups
        .iter()
        .filter(|g| {
            g.service != "platform" && !is_fewshot_procedure(g.nf, &g.service, &g.procedure)
        })
        .collect();

    let transactional: Vec<&&ProcedureGroup> = groups
        .iter()
        .filter(|g| g.attempt.is_some() && g.success.is_some())
        .collect();
    let with_failures: Vec<&&ProcedureGroup> = transactional
        .iter()
        .filter(|g| g.failures.len() >= 2)
        .copied()
        .collect();
    let gauge_metrics: Vec<(String, String, &&ProcedureGroup)> = groups
        .iter()
        .flat_map(|g| {
            g.other
                .iter()
                .filter(|m| m.ends_with("_current"))
                .map(move |m| (m.clone(), g.display.clone(), g))
        })
        .collect();
    let message_metrics: Vec<(String, &&ProcedureGroup)> = groups
        .iter()
        .flat_map(|g| {
            g.other
                .iter()
                .filter(|m| m.ends_with("_sent") || m.ends_with("_received"))
                .map(move |m| (m.clone(), g))
        })
        .collect();
    let traffic_metrics: Vec<(String, &&ProcedureGroup)> = groups
        .iter()
        .filter(|g| g.service == "up" || g.procedure.ends_with("_traffic"))
        .flat_map(|g| {
            g.other
                .iter()
                .filter(|m| m.ends_with("_bytes") || m.ends_with("_packets"))
                .map(move |m| (m.clone(), g))
        })
        .collect();

    // Bucket quotas scaled to n (defaults reproduce the 200-question
    // mix).
    let quota = |frac_num: usize| (n * frac_num) / 200;
    let buckets: Vec<(TaskShape, usize)> = vec![
        (TaskShape::SuccessRatePercent, quota(40)),
        (TaskShape::TotalCount, quota(40)),
        (TaskShape::RatePerSecond, quota(30)),
        (TaskShape::FailureRatio, quota(25)),
        (TaskShape::AverageValue, quota(20)),
        (TaskShape::CurrentValue, quota(20)),
        (TaskShape::MeanDurationMs, quota(15)),
        (TaskShape::CombinedFailureRatio, quota(10)),
    ];
    let assigned: usize = buckets.iter().map(|(_, q)| q).sum();
    let mut extra = n - assigned; // rounding remainder → TotalCount

    let mut out: Vec<BenchmarkQuestion> = Vec::with_capacity(n);
    let mut seen_texts: std::collections::HashSet<String> = std::collections::HashSet::new();

    let mut push = |cand: Candidate, out: &mut Vec<BenchmarkQuestion>| -> bool {
        if seen_texts.contains(&cand.text) {
            return false;
        }
        let numeric = match engine.instant_query(&cand.promql, world.eval_ts) {
            Ok(v) => match v.as_scalar_like() {
                Some(x) if x.is_finite() => x,
                _ => return false,
            },
            Err(_) => return false,
        };
        seen_texts.insert(cand.text.clone());
        out.push(BenchmarkQuestion {
            id: out.len(),
            text: cand.text,
            shape: format!("{:?}", cand.shape),
            phrasing: cand.phrasing,
            reference: Reference {
                metrics: cand.metrics,
                promql: cand.promql,
                numeric,
            },
        });
        true
    };

    for (shape, mut want) in buckets {
        if shape == TaskShape::TotalCount {
            want += std::mem::take(&mut extra);
        }
        let mut produced = 0usize;
        let mut round = 0usize;
        while produced < want && round < 8 {
            let source_len = match shape {
                TaskShape::CurrentValue => gauge_metrics.len(),
                TaskShape::FailureRatio | TaskShape::CombinedFailureRatio => with_failures.len(),
                TaskShape::TotalCount => {
                    transactional.len() + message_metrics.len() + traffic_metrics.len()
                }
                _ => transactional.len(),
            };
            if source_len == 0 {
                break;
            }
            for i in 0..source_len {
                if produced >= want {
                    break;
                }
                let variant = mix(seed, &format!("{shape:?}/{round}/{i}")) as usize;
                let phrasing = if (round + i) % 2 == 0 {
                    Phrasing::Plain
                } else {
                    Phrasing::Paraphrase
                };
                let cand = build_candidate(
                    shape,
                    phrasing,
                    i,
                    round,
                    variant,
                    &transactional,
                    &with_failures,
                    &gauge_metrics,
                    &message_metrics,
                    &traffic_metrics,
                );
                if let Some(c) = cand {
                    if push(c, &mut out) {
                        produced += 1;
                    }
                }
            }
            round += 1;
        }
    }

    // Re-assign stable ids after generation order.
    for (i, q) in out.iter_mut().enumerate() {
        q.id = i;
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn build_candidate(
    shape: TaskShape,
    phrasing: Phrasing,
    index: usize,
    round: usize,
    variant: usize,
    transactional: &[&&ProcedureGroup],
    with_failures: &[&&ProcedureGroup],
    gauges: &[(String, String, &&ProcedureGroup)],
    messages: &[(String, &&ProcedureGroup)],
    traffic: &[(String, &&ProcedureGroup)],
) -> Option<Candidate> {
    match shape {
        TaskShape::SuccessRatePercent => {
            let g = transactional[index % transactional.len()];
            let a = g.attempt.clone()?;
            let s = g.success.clone()?;
            let disp = &g.display;
            let text = match phrasing {
                Phrasing::Plain => match variant % 2 {
                    0 => format!(
                        "What is the {disp} procedure success rate at the {}?",
                        nf_mention(g)
                    ),
                    _ => format!("What is the success rate of the {disp} procedure?"),
                },
                Phrasing::Paraphrase => {
                    let p = paraphrase_phrase(disp);
                    format!(
                        "What percentage of {p} procedures completed successfully at the {}?",
                        nf_mention(g)
                    )
                }
            };
            Some(Candidate {
                text,
                shape,
                phrasing,
                metrics: vec![s.clone(), a.clone()],
                promql: format!("100 * sum({s}) / sum({a})"),
            })
        }
        TaskShape::TotalCount => {
            // Rotate across attempt counters, message counters, traffic.
            let total = transactional.len() + messages.len() + traffic.len();
            let slot = index % total;
            if slot < transactional.len() {
                let g = transactional[slot];
                let a = g.attempt.clone()?;
                let disp = &g.display;
                let text = match phrasing {
                    Phrasing::Plain => match variant % 2 {
                        0 => format!(
                            "How many {disp} procedure attempts did the {} handle?",
                            nf_mention(g)
                        ),
                        _ => format!(
                            "How many {disp} attempts were recorded at the {}?",
                            nf_mention(g)
                        ),
                    },
                    Phrasing::Paraphrase => {
                        let p = paraphrase_phrase(disp);
                        format!(
                            "How many times did UEs try the {p} procedure at the {}?",
                            nf_mention(g)
                        )
                    }
                };
                Some(Candidate {
                    text,
                    shape,
                    phrasing,
                    metrics: vec![a.clone()],
                    promql: format!("sum({a})"),
                })
            } else if slot < transactional.len() + messages.len() {
                let (m, g) = &messages[slot - transactional.len()];
                let sent = m.ends_with("_sent");
                // Reconstruct the message phrase from the metric name
                // tail (drop prefix/iface, drop the variant suffix).
                let phrase = message_phrase(m);
                let text = match phrasing {
                    Phrasing::Plain => format!(
                        "How many {} messages did the {} {}?",
                        phrase,
                        nf_mention(g),
                        if sent { "send" } else { "receive" }
                    ),
                    Phrasing::Paraphrase => format!(
                        "What is the total count of {} messages {} by the {}?",
                        phrase,
                        if sent { "transmitted" } else { "handled" },
                        nf_mention(g)
                    ),
                };
                Some(Candidate {
                    text,
                    shape,
                    phrasing,
                    metrics: vec![m.clone()],
                    promql: format!("sum({m})"),
                })
            } else {
                let (m, g) = &traffic[slot - transactional.len() - messages.len()];
                let (iface, dir, what) = traffic_parts(m)?;
                let text = match phrasing {
                    Phrasing::Plain => format!(
                        "How many {what} did the {} forward {dir} on the {iface} interface?",
                        nf_mention(g)
                    ),
                    Phrasing::Paraphrase => format!(
                        "What is the {} traffic volume in {} on {iface} at the {}?",
                        if dir == "uplink" {
                            "upstream"
                        } else {
                            "downstream"
                        },
                        if what == "bytes" { "octets" } else { &what },
                        nf_mention(g)
                    ),
                };
                Some(Candidate {
                    text,
                    shape,
                    phrasing,
                    metrics: vec![m.clone()],
                    promql: format!("sum({m})"),
                })
            }
        }
        TaskShape::RatePerSecond => {
            let g = transactional[index % transactional.len()];
            let a = g.attempt.clone()?;
            let disp = &g.display;
            let text = match phrasing {
                Phrasing::Plain => match variant % 2 {
                    0 => format!(
                        "How many {disp} procedures per second is the {} handling?",
                        nf_mention(g)
                    ),
                    _ => format!(
                        "What is the rate of {disp} procedures at the {}?",
                        nf_mention(g)
                    ),
                },
                Phrasing::Paraphrase => {
                    let p = paraphrase_phrase(disp);
                    format!(
                        "What is the per-second frequency of {p} procedures at the {}?",
                        nf_mention(g)
                    )
                }
            };
            Some(Candidate {
                text,
                shape,
                phrasing,
                metrics: vec![a.clone()],
                promql: format!("sum(rate({a}[5m]))"),
            })
        }
        TaskShape::AverageValue => {
            let g = transactional[index % transactional.len()];
            let a = g.attempt.clone()?;
            let disp = &g.display;
            let text = match phrasing {
                Phrasing::Plain => format!(
                    "What is the average number of {disp} attempts per {} instance?",
                    nf_mention(g)
                ),
                Phrasing::Paraphrase => {
                    let p = paraphrase_phrase(disp);
                    format!(
                        "On average, how many {p} attempts does each {} instance record?",
                        nf_mention(g)
                    )
                }
            };
            Some(Candidate {
                text,
                shape,
                phrasing,
                metrics: vec![a.clone()],
                promql: format!("avg({a})"),
            })
        }
        TaskShape::CurrentValue => {
            let (m, disp, g) = &gauges[index % gauges.len()];
            let text = match phrasing {
                Phrasing::Plain => format!(
                    "How many {disp} are there currently at the {}?",
                    nf_mention(g)
                ),
                Phrasing::Paraphrase => {
                    let p = paraphrase_phrase(disp);
                    format!(
                        "What is the current number of {p} at the {}?",
                        nf_mention(g)
                    )
                }
            };
            Some(Candidate {
                text,
                shape,
                phrasing,
                metrics: vec![m.clone()],
                promql: format!("sum({m})"),
            })
        }
        TaskShape::FailureRatio => {
            let g = with_failures[index % with_failures.len()];
            let a = g.attempt.clone()?;
            let pick = mix(0xfa11, &format!("{}/{}/{round}", g.procedure, index)) as usize;
            let (cause_slug, fname) = &g.failures[pick % g.failures.len()];
            let disp = &g.display;
            let cause_display = FAILURE_CAUSES
                .iter()
                .find(|(s, _)| s == cause_slug)
                .map(|(_, d)| *d)
                .unwrap_or(cause_slug.as_str());
            let text = match phrasing {
                // Plain uses the cause slug words (present in the name);
                // paraphrase uses the 3GPP cause display phrase (present
                // only in the description).
                Phrasing::Plain => format!(
                    "What fraction of {disp} procedures failed due to {}?",
                    cause_slug.replace('_', " ")
                ),
                Phrasing::Paraphrase => format!(
                    "What share of {} procedures failed with cause '{}'?",
                    paraphrase_phrase(disp),
                    cause_display
                ),
            };
            Some(Candidate {
                text,
                shape,
                phrasing,
                metrics: vec![fname.clone(), a.clone()],
                promql: format!("sum({fname}) / sum({a})"),
            })
        }
        TaskShape::CombinedFailureRatio => {
            let g = with_failures[index % with_failures.len()];
            let a = g.attempt.clone()?;
            let pick = mix(0xc0b1_4ed0, &format!("{}/{index}", g.procedure)) as usize;
            let (c1, f1) = &g.failures[pick % g.failures.len()];
            let (c2, f2) = &g.failures[(pick + 1) % g.failures.len()];
            if f1 == f2 {
                return None;
            }
            let disp = &g.display;
            let text = format!(
                "What share of {disp} procedures failed either with {} or with {}?",
                c1.replace('_', " "),
                c2.replace('_', " ")
            );
            Some(Candidate {
                text,
                shape,
                phrasing: Phrasing::Plain,
                metrics: vec![f1.clone(), f2.clone(), a.clone()],
                promql: format!("(sum({f1}) + sum({f2})) / sum({a})"),
            })
        }
        TaskShape::MeanDurationMs => {
            let g = transactional[index % transactional.len()];
            let s = g.success.clone()?;
            let d = g
                .other
                .iter()
                .find(|m| m.ends_with("_duration_ms_total"))
                .cloned()?;
            let disp = &g.display;
            let text = match phrasing {
                Phrasing::Plain => format!(
                    "What is the mean duration of the {disp} procedure at the {}?",
                    nf_mention(g)
                ),
                Phrasing::Paraphrase => {
                    let p = paraphrase_phrase(disp);
                    format!("What is the average duration of the {p} procedure?")
                }
            };
            Some(Candidate {
                text,
                shape,
                phrasing,
                metrics: vec![d.clone(), s.clone()],
                promql: format!("sum({d}) / sum({s})"),
            })
        }
    }
}

/// Human phrase for a message counter name:
/// `smfn4_n4_heartbeat_request_sent` → "heartbeat request".
fn message_phrase(name: &str) -> String {
    let mut segs: Vec<&str> = name.split('_').collect();
    // Drop the variant suffix.
    segs.pop();
    // Drop the prefix segment (nf+service) and an interface segment.
    if !segs.is_empty() {
        segs.remove(0);
    }
    if segs
        .first()
        .map(|s| s.len() <= 3 && (s.starts_with('n') || *s == "nwu") || matches!(*s, "n11" | "nwu"))
        .unwrap_or(false)
    {
        segs.remove(0);
    }
    segs.join(" ")
}

/// `(interface, direction, what)` parts of a traffic counter name,
/// e.g. `upfup_n3_dl_bytes` → ("N3", "downlink", "bytes").
fn traffic_parts(name: &str) -> Option<(String, String, String)> {
    let segs: Vec<&str> = name.split('_').collect();
    if segs.len() < 4 {
        return None;
    }
    let iface = segs[1].to_uppercase();
    let dir = match segs[2] {
        "ul" => "uplink",
        "dl" => "downlink",
        _ => return None,
    };
    let what = segs[3..].join(" ");
    Some((iface, dir.to_string(), what))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{OperatorWorld, WorldConfig};

    fn world() -> OperatorWorld {
        OperatorWorld::build(WorldConfig::small())
    }

    #[test]
    fn generates_requested_count() {
        let w = world();
        let qs = generate_benchmark(&w, 60, 7);
        assert_eq!(qs.len(), 60, "got {}", qs.len());
    }

    #[test]
    fn questions_are_unique_and_have_valid_references() {
        let w = world();
        let qs = generate_benchmark(&w, 60, 7);
        let mut texts: Vec<&str> = qs.iter().map(|q| q.text.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), qs.len());
        let engine = w.reference_engine();
        for q in &qs {
            assert!(q.reference.numeric.is_finite());
            assert!(!q.reference.metrics.is_empty());
            assert!(q.reference.metrics.len() <= 3, "{}", q.reference.promql);
            let v = engine
                .instant_query(&q.reference.promql, w.eval_ts)
                .unwrap();
            assert_eq!(v.as_scalar_like(), Some(q.reference.numeric));
        }
    }

    #[test]
    fn covers_multiple_shapes_and_phrasings() {
        let w = world();
        let qs = generate_benchmark(&w, 60, 7);
        let shapes: std::collections::HashSet<&str> = qs.iter().map(|q| q.shape.as_str()).collect();
        assert!(shapes.len() >= 6, "shapes: {shapes:?}");
        let plain = qs.iter().filter(|q| q.phrasing == Phrasing::Plain).count();
        let para = qs.len() - plain;
        assert!(plain > 10 && para > 10, "plain {plain} para {para}");
    }

    #[test]
    fn never_uses_fewshot_procedures() {
        let w = world();
        let qs = generate_benchmark(&w, 60, 7);
        for q in &qs {
            for m in &q.reference.metrics {
                assert!(
                    !m.contains("paging") && !m.contains("gtpu_echo"),
                    "fewshot-reserved metric {m} leaked into benchmark"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let w = world();
        assert_eq!(generate_benchmark(&w, 40, 7), generate_benchmark(&w, 40, 7));
    }

    #[test]
    fn helper_parsers() {
        assert_eq!(
            message_phrase("smfn4_n4_heartbeat_request_sent"),
            "heartbeat request"
        );
        assert_eq!(
            traffic_parts("upfup_n3_dl_bytes"),
            Some(("N3".into(), "downlink".into(), "bytes".into()))
        );
        assert_eq!(traffic_parts("bad_name"), None);
    }

    #[test]
    fn paraphrase_map_applies() {
        assert_eq!(
            paraphrase_phrase("initial registration"),
            "initial register"
        );
        assert_eq!(
            paraphrase_phrase("PDU session establishment"),
            "PDU session setup"
        );
    }
}
