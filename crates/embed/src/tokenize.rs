//! Text tokenisation tuned for operator-data vocabulary.
//!
//! Operator metric names are underscore-glued compounds
//! (`amfcc_n1_auth_request`) and descriptions mix prose with 3GPP
//! references (`section 8.2.1 of 3GPP TS 24.501`). The tokeniser
//! lower-cases, splits on any non-alphanumeric boundary (so compound
//! counter names decompose into their parts), and keeps digit groups as
//! tokens (interface names like `n1`, spec numbers like `24.501` become
//! `n1`, `24`, `501`).

/// Tokens that carry almost no discriminative signal in either questions
/// or metric descriptions. Kept deliberately small: words like "number"
/// or "total" *do* discriminate between counter kinds in this domain.
const STOPWORDS: &[&str] = &[
    "a", "an", "the", "of", "in", "on", "by", "to", "for", "is", "are", "was", "were", "be",
    "and", "or", "as", "at", "it", "its", "this", "that", "with", "from", "which", "what",
    "when", "how", "me", "my", "do", "does", "did", "please", "show", "tell", "give",
];

/// Lower-case a string and split it into alphanumeric word tokens.
///
/// Every maximal run of ASCII alphanumeric characters becomes one token.
/// Non-ASCII alphabetic characters are treated as part of words too, so
/// the function is safe on arbitrary UTF-8 input.
pub fn words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                cur.push(lc);
            }
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// [`words`] with stopwords removed. Falls back to the full token list
/// when filtering would leave nothing (e.g. the query "what is this").
pub fn content_words(text: &str) -> Vec<String> {
    let all = words(text);
    let filtered: Vec<String> = all
        .iter()
        .filter(|w| !STOPWORDS.contains(&w.as_str()))
        .cloned()
        .collect();
    if filtered.is_empty() {
        all
    } else {
        filtered
    }
}

/// Character n-grams of a single token, fastText style: the token is
/// wrapped in boundary markers (`<` and `>`) and every n-gram with
/// `min <= n <= max` is emitted. Tokens shorter than `min` are emitted
/// whole (with markers) so they still contribute a feature.
pub fn char_ngrams(token: &str, min: usize, max: usize) -> Vec<String> {
    assert!(min >= 1 && max >= min, "invalid n-gram range");
    let wrapped: Vec<char> = std::iter::once('<')
        .chain(token.chars())
        .chain(std::iter::once('>'))
        .collect();
    let mut out = Vec::new();
    if wrapped.len() <= min {
        out.push(wrapped.iter().collect());
        return out;
    }
    for n in min..=max.min(wrapped.len()) {
        for win in wrapped.windows(n) {
            out.push(win.iter().collect());
        }
    }
    out
}

/// Word bigrams ("auth request" → `auth_request`) over the content words
/// of `text`. Bigrams capture procedure phrases that single words miss.
pub fn word_bigrams(tokens: &[String]) -> Vec<String> {
    tokens
        .windows(2)
        .map(|w| format!("{}_{}", w[0], w[1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_counter_names_on_underscores() {
        assert_eq!(
            words("amfcc_n1_auth_request"),
            vec!["amfcc", "n1", "auth", "request"]
        );
    }

    #[test]
    fn lowercases_and_splits_punctuation() {
        assert_eq!(
            words("The AMF sent 42 requests (see TS 24.501)."),
            vec!["the", "amf", "sent", "42", "requests", "see", "ts", "24", "501"]
        );
    }

    #[test]
    fn empty_input_gives_no_tokens() {
        assert!(words("").is_empty());
        assert!(words("  --- !!! ").is_empty());
    }

    #[test]
    fn content_words_removes_stopwords() {
        let t = content_words("the number of requests sent by the AMF");
        assert_eq!(t, vec!["number", "requests", "sent", "amf"]);
    }

    #[test]
    fn content_words_falls_back_when_all_stopwords() {
        let t = content_words("what is this");
        assert_eq!(t, vec!["what", "is", "this"]);
    }

    #[test]
    fn char_ngrams_wrap_token_in_markers() {
        let grams = char_ngrams("amf", 3, 3);
        assert_eq!(grams, vec!["<am", "amf", "mf>"]);
    }

    #[test]
    fn char_ngrams_short_token_emitted_whole() {
        let grams = char_ngrams("n1", 3, 5);
        // "<n1>" has length 4 > min 3, so windows of 3 and 4 are emitted.
        assert!(grams.contains(&"<n1".to_string()));
        let tiny = char_ngrams("a", 3, 5);
        assert_eq!(tiny, vec!["<a>"]);
    }

    #[test]
    fn char_ngrams_range() {
        let grams = char_ngrams("auth", 3, 5);
        // wrapped = "<auth>" (6 chars): 4 trigram + 3 quadgram + 2 five-gram
        assert_eq!(grams.len(), 4 + 3 + 2);
    }

    #[test]
    fn bigrams_join_adjacent_tokens() {
        let toks: Vec<String> = ["auth", "request", "success"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(word_bigrams(&toks), vec!["auth_request", "request_success"]);
    }

    #[test]
    fn unicode_input_does_not_panic() {
        let t = words("débit montant du UPF — 5G cœur");
        assert!(t.contains(&"débit".to_string()));
        assert!(t.contains(&"cœur".to_string()));
    }
}
