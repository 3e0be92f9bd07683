//! Batched completion wire format.
//!
//! The model gateway answers K queued prompts with one upstream call.
//! This module defines how K standard prompts are folded into a single
//! batched prompt and how the combined completion is split back into
//! per-item results — the contract between the gateway's accumulator
//! (which composes) and whatever model stack sits upstream (which must
//! understand the batched form).
//!
//! The fold exploits the structure the catalog-driven NL→PromQL
//! framework observes: the shared catalog/exemplar preamble dwarfs the
//! per-question suffix. A standard prompt renders six sections in a
//! fixed order (SYSTEM, CONTEXT, FUNCTIONS, EXAMPLES, QUESTION, TASK);
//! sections that are byte-identical across every item of a batch are
//! emitted once under `### BATCH-SHARED`, and each item carries only
//! the sections that differ. [`BatchExpander`] reverses the fold for
//! models that only understand single prompts (the simulated models):
//! because sections always recombine in canonical order, each
//! reconstructed prompt is *byte-identical* to the original, so a
//! batched call produces exactly the completions the unbatched calls
//! would have — answer parity by construction.
//!
//! Fault-domain contract: an injected fault (see [`crate::FaultyModel`])
//! lands on the *combined* call — one fault, one batch attempt. A
//! whole-call error (`Unavailable`) fails every item transiently; a
//! corrupted completion fails only the items whose answer blocks it
//! destroyed (truncation cuts the tail items; the survivors still
//! parse). A malformed-PromQL corruption flows *through* the split into
//! each item's own sandbox-repair loop rather than failing the batch.

use crate::cost::TokenUsage;
use crate::model::{Completion, CompletionRequest, FoundationModel, ModelError, TaskKind};
use crate::prompt::{markers, Prompt};
use crate::tokens::count_tokens;

/// Markers of the batched wire format. Chosen to never collide with
/// the standard prompt markers and to survive the fault injector's
/// text corruptions (no parentheses).
pub(crate) mod batch_markers {
    /// Batch header line: `### BATCH n=<K>`.
    pub(crate) const BATCH: &str = "### BATCH n=";
    /// Shared-prefix section header.
    pub(crate) const SHARED: &str = "### BATCH-SHARED";
    /// Per-item header line: `### BATCH-ITEM <k> max_tokens=<m>`.
    pub(crate) const ITEM: &str = "### BATCH-ITEM ";
    /// Per-item answer block: `<<BATCH-ANSWER <k>>>`.
    pub(crate) const ANSWER: &str = "<<BATCH-ANSWER ";
    /// Per-item error line: `<<BATCH-ERROR <k>>> <class>: <msg>`.
    pub(crate) const ERROR: &str = "<<BATCH-ERROR ";
}

/// The six canonical prompt sections, in render order.
const SECTION_MARKERS: [&str; 6] = [
    markers::SYSTEM,
    markers::CONTEXT,
    markers::FUNCTIONS,
    markers::EXAMPLES,
    markers::QUESTION,
    markers::TASK,
];

/// Token accounting of one composed batch: what the shared prefix
/// costs versus each item's private suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchLayout {
    /// Tokens of the sections shared by (and sent once for) all items.
    pub prefix_tokens: usize,
    /// Tokens of each item's unshared sections.
    pub suffix_tokens: Vec<usize>,
}

impl BatchLayout {
    /// Number of items in the batch.
    pub fn items(&self) -> usize {
        self.suffix_tokens.len()
    }

    /// Attribute a combined prompt-token bill across the items: each
    /// item pays its own suffix plus an equal share of the prefix and
    /// framing overhead. The shares sum to exactly
    /// `combined_prompt_tokens` (the remainder lands on the first
    /// items) so per-item accounting reconciles with the real bill.
    pub fn attribute(&self, combined_prompt_tokens: usize) -> Vec<usize> {
        let n = self.suffix_tokens.len().max(1);
        let suffix_sum: usize = self.suffix_tokens.iter().sum();
        let overhead = combined_prompt_tokens.saturating_sub(suffix_sum);
        let share = overhead / n;
        let mut remainder = overhead % n;
        self.suffix_tokens
            .iter()
            .map(|&s| {
                let extra = if remainder > 0 {
                    remainder -= 1;
                    1
                } else {
                    0
                };
                s + share + extra
            })
            .collect()
    }
}

/// Split a standard prompt into its six canonical sections. Each slice
/// starts at its `###` marker and runs to the next one, so the
/// concatenation of all six is the original text. Returns `None` when
/// the text is not a standard prompt (sections missing or reordered).
fn split_sections(text: &str) -> Option<[&str; 6]> {
    let mut starts = [0usize; 6];
    let mut from = 0usize;
    for (i, marker) in SECTION_MARKERS.iter().enumerate() {
        let line = format!("{marker}\n");
        let pos = text[from..].find(&line)? + from;
        // Markers must sit at the start of a line.
        if pos != 0 && text.as_bytes()[pos - 1] != b'\n' {
            return None;
        }
        if i == 0 && pos != 0 {
            return None;
        }
        starts[i] = pos;
        from = pos + line.len();
    }
    Some([
        &text[starts[0]..starts[1]],
        &text[starts[1]..starts[2]],
        &text[starts[2]..starts[3]],
        &text[starts[3]..starts[4]],
        &text[starts[4]..starts[5]],
        &text[starts[5]..],
    ])
}

/// Whether a prompt text is in the batched wire format.
pub(crate) fn is_batched(text: &str) -> bool {
    text.starts_with(batch_markers::BATCH)
}

/// Fold `requests` into one batched [`CompletionRequest`] plus the
/// token layout for cost attribution.
///
/// Sections byte-identical across *all* items are shared; everything
/// else rides in the per-item blocks. The combined request carries the
/// tightest per-item timeout (the batch must respect the most
/// impatient member) and budgets completion room for every item.
///
/// Fails with [`ModelError::Unsupported`] when `requests` is empty or
/// an item is not a standard six-section prompt — the caller should
/// fall back to sending such items alone.
pub fn compose_batch(
    requests: &[CompletionRequest],
) -> Result<(CompletionRequest, BatchLayout), ModelError> {
    if requests.is_empty() {
        return Err(ModelError::Unsupported("empty batch".into()));
    }
    let sections: Vec<[&str; 6]> = requests
        .iter()
        .map(|r| {
            split_sections(&r.prompt.text)
                .ok_or_else(|| ModelError::Unsupported("non-standard prompt in batch".into()))
        })
        .collect::<Result<_, _>>()?;
    let shared: [bool; 6] = std::array::from_fn(|i| {
        let first = sections[0][i];
        sections.iter().all(|s| s[i] == first)
    });

    let mut shared_text = String::new();
    for (i, &is_shared) in shared.iter().enumerate() {
        if is_shared {
            shared_text.push_str(sections[0][i]);
        }
    }
    let mut text = format!("{}{}\n", batch_markers::BATCH, requests.len());
    text.push_str(batch_markers::SHARED);
    text.push('\n');
    text.push_str(&shared_text);
    let mut suffix_tokens = Vec::with_capacity(requests.len());
    for (k, (request, secs)) in requests.iter().zip(&sections).enumerate() {
        text.push_str(&format!(
            "{}{} max_tokens={}\n",
            batch_markers::ITEM,
            k,
            request.max_tokens
        ));
        let mut suffix = String::new();
        for (i, &is_shared) in shared.iter().enumerate() {
            if !is_shared {
                suffix.push_str(secs[i]);
            }
        }
        suffix_tokens.push(count_tokens(&suffix));
        text.push_str(&suffix);
    }

    let layout = BatchLayout {
        prefix_tokens: count_tokens(&shared_text),
        suffix_tokens,
    };
    let tokens = count_tokens(&text);
    let max_tokens = requests.iter().map(|r| r.max_tokens).sum::<usize>()
        + 8 * requests.len();
    let timeout_ms = requests.iter().filter_map(|r| r.timeout_ms).min();
    let combined = CompletionRequest {
        prompt: Prompt {
            text,
            tokens,
            context_kept: requests.iter().map(|r| r.prompt.context_kept).sum(),
            context_dropped: requests.iter().map(|r| r.prompt.context_dropped).sum(),
            examples_kept: requests[0].prompt.examples_kept,
            examples_dropped: requests[0].prompt.examples_dropped,
            task: requests[0].prompt.task,
        },
        max_tokens,
        temperature: 0.0,
        timeout_ms,
    };
    Ok((combined, layout))
}

/// One parsed item of a batched prompt: the reconstructed standard
/// prompt text plus its decoding budget.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BatchItem {
    text: String,
    max_tokens: usize,
}

/// Parse a batched prompt back into per-item standard prompts.
fn parse_batch(text: &str) -> Result<Vec<BatchItem>, ModelError> {
    let malformed = |why: &str| ModelError::Unsupported(format!("malformed batch prompt: {why}"));
    let header_end = text.find('\n').ok_or_else(|| malformed("missing header"))?;
    let shared_header = format!("{}\n", batch_markers::SHARED);
    let shared_start = header_end + 1;
    if !text[shared_start..].starts_with(&shared_header) {
        return Err(malformed("missing shared section"));
    }
    let body = &text[shared_start + shared_header.len()..];
    // Shared part runs to the first item header.
    let first_item = body
        .find(batch_markers::ITEM)
        .ok_or_else(|| malformed("no items"))?;
    let shared = &body[..first_item];
    // Shared sections keyed by canonical index.
    let shared_secs = index_sections(shared);
    let mut items = Vec::new();
    let mut rest = &body[first_item..];
    while let Some(stripped) = rest.strip_prefix(batch_markers::ITEM) {
        let line_end = stripped.find('\n').ok_or_else(|| malformed("item header"))?;
        let header = &stripped[..line_end];
        let max_tokens = header
            .split("max_tokens=")
            .nth(1)
            .and_then(|v| v.trim().parse::<usize>().ok())
            .ok_or_else(|| malformed("item max_tokens"))?;
        let after = &stripped[line_end + 1..];
        let (item_body, next) = match after.find(batch_markers::ITEM) {
            Some(pos) => (&after[..pos], &after[pos..]),
            None => (after, ""),
        };
        let item_secs = index_sections(item_body);
        // Merge shared + item sections in canonical order; both sides
        // carry their own `###` headers, so concatenation reproduces
        // the original prompt byte for byte.
        let mut full = String::new();
        for i in 0..SECTION_MARKERS.len() {
            if let Some(s) = item_secs[i].or(shared_secs[i]) {
                full.push_str(s);
            } else {
                return Err(malformed("item missing a section"));
            }
        }
        items.push(BatchItem {
            text: full,
            max_tokens,
        });
        rest = next;
    }
    if items.is_empty() {
        return Err(malformed("no items"));
    }
    Ok(items)
}

/// Locate each canonical section present in `text`, as slices that
/// include their marker line (concatenation order is the caller's job).
fn index_sections(text: &str) -> [Option<&str>; 6] {
    let mut found: Vec<(usize, usize)> = Vec::new(); // (canonical idx, start)
    for (i, marker) in SECTION_MARKERS.iter().enumerate() {
        let line = format!("{marker}\n");
        let mut from = 0;
        while let Some(pos) = text[from..].find(&line).map(|p| p + from) {
            if pos == 0 || text.as_bytes()[pos - 1] == b'\n' {
                found.push((i, pos));
                break;
            }
            from = pos + 1;
        }
    }
    found.sort_by_key(|&(_, start)| start);
    let mut out: [Option<&str>; 6] = [None; 6];
    for (j, &(idx, start)) in found.iter().enumerate() {
        let end = found.get(j + 1).map(|&(_, s)| s).unwrap_or(text.len());
        out[idx] = Some(&text[start..end]);
    }
    out
}

/// Split a combined completion into per-item results.
///
/// Items whose `<<BATCH-ANSWER k>>` block is missing (cut off by a
/// truncated stream, replaced by garbage) fail with a *transient*
/// [`ModelError::Unavailable`] so the caller's recovery policy retries
/// just those items; the surviving blocks still parse. Explicit
/// `<<BATCH-ERROR k>>` lines forward the upstream error class.
pub fn split_batch(completion: &str, n: usize) -> Vec<Result<String, ModelError>> {
    let mut out: Vec<Result<String, ModelError>> = (0..n)
        .map(|k| {
            Err(ModelError::Unavailable(format!(
                "batch answer {k} missing from combined completion"
            )))
        })
        .collect();
    for (k, slot) in out.iter_mut().enumerate() {
        let answer_open = format!("{}{k}>>\n", batch_markers::ANSWER);
        let error_open = format!("{}{k}>> ", batch_markers::ERROR);
        if let Some(pos) = completion.find(&answer_open) {
            let body_start = pos + answer_open.len();
            let body = &completion[body_start..];
            let end = body
                .find(batch_markers::ANSWER)
                .into_iter()
                .chain(body.find(batch_markers::ERROR))
                .min()
                .unwrap_or(body.len());
            // Drop the trailing newline the composer adds after each
            // block, keeping interior newlines intact.
            let text = body[..end].strip_suffix('\n').unwrap_or(&body[..end]);
            *slot = Ok(text.to_string());
        } else if let Some(pos) = completion.find(&error_open) {
            let line = completion[pos + error_open.len()..]
                .lines()
                .next()
                .unwrap_or("");
            *slot = Err(match line.split_once(": ") {
                Some(("transient", msg)) => ModelError::Unavailable(msg.to_string()),
                Some((_, msg)) => ModelError::Unsupported(msg.to_string()),
                None => ModelError::Unavailable(line.to_string()),
            });
        }
    }
    out
}

/// A [`FoundationModel`] adapter that teaches any single-prompt model
/// the batched wire format: batched prompts are unfolded and answered
/// item by item through the inner model, the answers re-joined into
/// `<<BATCH-ANSWER k>>` blocks; ordinary prompts pass straight through.
///
/// In the gateway's stack the expander sits *below* the fault injector
/// (`FaultyModel<BatchExpander<SimulatedModel>>`), so a combined call
/// is one fault-schedule event — exactly the grain a real batched API
/// endpoint would fail at.
#[derive(Debug, Clone)]
pub struct BatchExpander<M> {
    inner: M,
}

impl<M: FoundationModel> BatchExpander<M> {
    /// Wrap `inner`.
    pub fn new(inner: M) -> Self {
        BatchExpander { inner }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: FoundationModel> FoundationModel for BatchExpander<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn pricing(&self) -> crate::cost::Pricing {
        self.inner.pricing()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<Completion, ModelError> {
        if !is_batched(&request.prompt.text) {
            return self.inner.complete(request);
        }
        // The combined prompt must fit the window like any other; the
        // inner model never sees it whole, so enforce here.
        let window = self.inner.context_window();
        if request.prompt.tokens > window {
            return Err(ModelError::ContextOverflow {
                prompt_tokens: request.prompt.tokens,
                window,
            });
        }
        let items = parse_batch(&request.prompt.text)?;
        let mut text = String::new();
        let mut completion_tokens = 0usize;
        for (k, item) in items.iter().enumerate() {
            let task = item
                .text
                .rsplit(&format!("{}\n", markers::TASK))
                .next()
                .and_then(|t| t.lines().next())
                .and_then(TaskKind::from_directive)
                .unwrap_or(TaskKind::GeneratePromql);
            let sub = CompletionRequest {
                prompt: Prompt {
                    tokens: count_tokens(&item.text),
                    text: item.text.clone(),
                    context_kept: 0,
                    context_dropped: 0,
                    examples_kept: 0,
                    examples_dropped: 0,
                    task,
                },
                max_tokens: item.max_tokens,
                temperature: request.temperature,
                timeout_ms: request.timeout_ms,
            };
            match self.inner.complete(&sub) {
                Ok(c) => {
                    completion_tokens += c.usage.completion_tokens;
                    text.push_str(&format!("{}{k}>>\n{}\n", batch_markers::ANSWER, c.text));
                }
                Err(e) => {
                    let class = if e.is_transient() { "transient" } else { "fatal" };
                    text.push_str(&format!(
                        "{}{k}>> {class}: {e}\n",
                        batch_markers::ERROR
                    ));
                }
            }
        }
        // Billing: the combined prompt is what crossed the wire (the
        // prefix counted once — the whole point); completions are the
        // per-item answers plus framing.
        let usage = TokenUsage {
            prompt_tokens: request.prompt.tokens,
            completion_tokens: completion_tokens + 2 * items.len(),
        };
        Ok(Completion { text, usage })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, FaultyModel};
    use crate::model::TaskKind;
    use crate::prompt::{ContextItem, FewShotExample, PromptBuilder};
    use crate::sim::profile::{ModelProfile, SimulatedModel};

    fn request(question: &str) -> CompletionRequest {
        let p = PromptBuilder::new()
            .system("You are DIO copilot, answering operator data questions.")
            .context((0..4).map(|i| ContextItem {
                name: format!("metric_{i}"),
                text: format!("The number of kind-{i} events observed."),
                relevance: 1.0 - i as f32 * 0.1,
            }))
            .examples((0..2).map(|i| FewShotExample {
                question: format!("how many events of kind {i} happened"),
                metrics: vec![format!("metric_{i}")],
                promql: format!("sum(metric_{i})"),
            }))
            .question(question)
            .task(TaskKind::GeneratePromql)
            .build(32_000, 1000);
        CompletionRequest::paper_defaults(p)
    }

    fn requests(n: usize) -> Vec<CompletionRequest> {
        (0..n)
            .map(|i| request(&format!("how many events of kind {i} happened?")))
            .collect()
    }

    #[test]
    fn sections_round_trip_byte_identical() {
        for r in requests(3) {
            let secs = split_sections(&r.prompt.text).expect("standard prompt");
            assert_eq!(secs.concat(), r.prompt.text);
        }
    }

    #[test]
    fn compose_shares_the_preamble_and_expander_reconstructs_exactly() {
        let reqs = requests(4);
        let (combined, layout) = compose_batch(&reqs).unwrap();
        assert!(is_batched(&combined.prompt.text));
        // The shared preamble (system + functions + examples, plus the
        // identical context here) is real savings: the combined prompt
        // is far smaller than the sum of its parts.
        let solo_sum: usize = reqs.iter().map(|r| r.prompt.tokens).sum();
        assert!(
            combined.prompt.tokens < solo_sum,
            "combined {} vs solo sum {solo_sum}",
            combined.prompt.tokens
        );
        assert!(layout.prefix_tokens > 0);
        assert_eq!(layout.items(), 4);
        // Expansion reproduces each original prompt byte for byte.
        let items = parse_batch(&combined.prompt.text).unwrap();
        for (item, r) in items.iter().zip(&reqs) {
            assert_eq!(item.text, r.prompt.text);
            assert_eq!(item.max_tokens, r.max_tokens);
        }
    }

    #[test]
    fn batched_answers_match_unbatched_answers() {
        let model = SimulatedModel::new(ModelProfile::gpt4_sim());
        let expander = BatchExpander::new(model.clone());
        let reqs = requests(4);
        let (combined, _) = compose_batch(&reqs).unwrap();
        let c = expander.complete(&combined).unwrap();
        let split = split_batch(&c.text, reqs.len());
        for (r, got) in reqs.iter().zip(split) {
            let solo = model.complete(r).unwrap();
            assert_eq!(got.unwrap(), solo.text);
        }
    }

    #[test]
    fn attribution_reconciles_with_the_combined_bill() {
        let reqs = requests(3);
        let (combined, layout) = compose_batch(&reqs).unwrap();
        let shares = layout.attribute(combined.prompt.tokens);
        assert_eq!(shares.len(), 3);
        assert_eq!(shares.iter().sum::<usize>(), combined.prompt.tokens);
        // Every item pays at least its own suffix.
        for (share, suffix) in shares.iter().zip(&layout.suffix_tokens) {
            assert!(share >= suffix);
        }
    }

    #[test]
    fn combined_timeout_is_the_tightest_member() {
        let mut reqs = requests(3);
        reqs[1].timeout_ms = Some(500);
        reqs[2].timeout_ms = Some(200);
        let (combined, _) = compose_batch(&reqs).unwrap();
        assert_eq!(combined.timeout_ms, Some(200));
    }

    #[test]
    fn truncated_combined_completion_fails_only_the_tail_items() {
        let expander = BatchExpander::new(SimulatedModel::new(ModelProfile::gpt4_sim()));
        let reqs = requests(4);
        let (combined, _) = compose_batch(&reqs).unwrap();
        let c = expander.complete(&combined).unwrap();
        // Simulate a dropped stream: keep the first half of the bytes.
        let mut cut = c.text.len() / 2;
        while !c.text.is_char_boundary(cut) {
            cut += 1;
        }
        let split = split_batch(&c.text[..cut], 4);
        assert!(split[0].is_ok(), "head item should survive truncation");
        let last = split[3].as_ref().unwrap_err();
        assert!(last.is_transient(), "lost tail item must retry: {last}");
    }

    #[test]
    fn one_injected_fault_maps_to_one_batch_attempt() {
        // Injector above the expander: the combined call is a single
        // fault-schedule event.
        let cfg = FaultConfig {
            seed: 5,
            fault_probability: 1.0,
            weights: [0, 0, 0, 1, 0], // only Unavailable
            latency_spike_micros: 0,
        };
        let m = FaultyModel::new(
            BatchExpander::new(SimulatedModel::new(ModelProfile::gpt4_sim())),
            cfg,
        );
        let (combined, _) = compose_batch(&requests(4)).unwrap();
        let err = m.complete(&combined).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(m.calls(), 1, "4 items, 1 upstream attempt");
        assert_eq!(m.fault_log().len(), 1);
    }

    #[test]
    fn malformed_fault_flows_into_per_item_answers_not_batch_failure() {
        let cfg = FaultConfig {
            seed: 9,
            fault_probability: 1.0,
            weights: [0, 1, 0, 0, 0], // only MalformedPromql
            latency_spike_micros: 0,
        };
        let m = FaultyModel::new(
            BatchExpander::new(SimulatedModel::new(ModelProfile::gpt4_sim())),
            cfg,
        );
        let (combined, _) = compose_batch(&requests(3)).unwrap();
        let c = m.complete(&combined).unwrap();
        let split = split_batch(&c.text, 3);
        // The batch call itself succeeded and still splits: corruption
        // reaches each item's own repair loop instead of failing the
        // flush wholesale.
        assert!(split.iter().all(|r| r.is_ok()), "{split:?}");
    }

    #[test]
    fn oversized_batch_overflows_the_window() {
        let expander = BatchExpander::new(SimulatedModel::new(ModelProfile::gpt4_sim()));
        let (mut combined, _) = compose_batch(&requests(2)).unwrap();
        combined.prompt.tokens = expander.context_window() + 1;
        assert!(matches!(
            expander.complete(&combined),
            Err(ModelError::ContextOverflow { .. })
        ));
    }

    #[test]
    fn single_item_batch_is_legal() {
        let model = SimulatedModel::new(ModelProfile::gpt4_sim());
        let expander = BatchExpander::new(model.clone());
        let reqs = requests(1);
        let (combined, layout) = compose_batch(&reqs).unwrap();
        assert_eq!(layout.items(), 1);
        let c = expander.complete(&combined).unwrap();
        let split = split_batch(&c.text, 1);
        assert_eq!(split[0].as_ref().unwrap(), &model.complete(&reqs[0]).unwrap().text);
    }

    #[test]
    fn non_batched_prompts_pass_through_untouched() {
        let model = SimulatedModel::new(ModelProfile::gpt4_sim());
        let expander = BatchExpander::new(model.clone());
        let r = request("how many paging attempts happened?");
        assert_eq!(expander.complete(&r).unwrap(), model.complete(&r).unwrap());
    }
}
