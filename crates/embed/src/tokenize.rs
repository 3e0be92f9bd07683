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

/// The lower-cased words of one or more texts, back to back in one
/// buffer: the borrowed form of [`words`], for callers that tokenise
/// many short texts and only compare the tokens.
///
/// Every maximal run of alphanumeric characters becomes one word,
/// lower-cased `char` by `char` — so a word-final `Σ` becomes `σ`, not
/// the `ς` that `str::to_lowercase` writes, and `İ` becomes `i` plus a
/// combining dot that stays inside its word. Non-ASCII alphabetic
/// characters are part of words too, so any UTF-8 input is safe.
#[derive(Debug, Clone, Default)]
pub struct WordBuf {
    text: String,
    /// Byte offset in `text` where each word ends; a word starts where
    /// the one before it ends.
    ends: Vec<usize>,
}

impl WordBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        WordBuf::default()
    }

    /// Append the words of `text`; the returned range indexes them.
    pub fn push_text(&mut self, text: &str) -> std::ops::Range<usize> {
        let first = self.ends.len();
        let mut open = false;
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                self.text.extend(ch.to_lowercase());
                open = true;
            } else if open {
                self.ends.push(self.text.len());
                open = false;
            }
        }
        if open {
            self.ends.push(self.text.len());
        }
        first..self.ends.len()
    }

    /// The `i`-th word pushed.
    fn word(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// The words of one pushed text, in order.
    pub fn words(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = &str> + Clone {
        range.map(move |i| self.word(i))
    }

    /// [`WordBuf::words`] with stopwords removed — or all of them kept,
    /// when removing would leave nothing (e.g. the query "what is this").
    pub fn content_words(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = &str> {
        let keep_all = self.words(range.clone()).all(is_stopword);
        self.words(range)
            .filter(move |w| keep_all || !is_stopword(w))
    }
}

fn is_stopword(word: &str) -> bool {
    STOPWORDS.contains(&word)
}

/// Lower-case a string and split it into alphanumeric word tokens, each
/// owned: [`WordBuf`]'s rule.
pub fn words(text: &str) -> Vec<String> {
    let mut buf = WordBuf::new();
    let range = buf.push_text(text);
    buf.words(range).map(String::from).collect()
}

/// [`words`] with stopwords removed. Falls back to the full token list
/// when filtering would leave nothing (e.g. the query "what is this").
pub fn content_words(text: &str) -> Vec<String> {
    let mut buf = WordBuf::new();
    let range = buf.push_text(text);
    buf.content_words(range).map(String::from).collect()
}

/// Character n-grams of a single token, fastText style: the token is
/// wrapped in boundary markers (`<` and `>`) and every n-gram with
/// `min <= n <= max` is emitted. Tokens shorter than `min` are emitted
/// whole (with markers) so they still contribute a feature.
pub(crate) fn char_ngrams(token: &str, min: usize, max: usize) -> Vec<String> {
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
pub(crate) fn word_bigrams(tokens: &[String]) -> Vec<String> {
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
    fn lowercases_char_by_char_not_by_string() {
        // `str::to_lowercase` writes a word-final sigma as `ς`; the
        // tokeniser's contract is the per-`char` mapping.
        assert_eq!(words("ΟΔΟΣ ΣΟΣ"), vec!["οδοσ", "σοσ"]);
        assert_ne!("ΟΔΟΣ".to_lowercase(), "οδοσ");
        // `İ` lower-cases to `i` + U+0307, which is not alphanumeric on
        // its own but must not split the word it is written into.
        assert_eq!(words("İstanbul5G x"), vec!["i\u{307}stanbul5g", "x"]);
        assert_eq!(words("Straße"), vec!["straße"]);
    }

    #[test]
    fn word_buf_indexes_each_pushed_text() {
        let mut buf = WordBuf::new();
        let name = buf.push_text("amfcc_N1_auth");
        let none = buf.push_text(" -- ");
        let text = buf.push_text("The number of AUTH requests.");
        assert_eq!(
            buf.words(name.clone()).collect::<Vec<_>>(),
            ["amfcc", "n1", "auth"]
        );
        assert!(none.is_empty());
        assert_eq!(
            buf.content_words(text.clone()).collect::<Vec<_>>(),
            ["number", "auth", "requests"]
        );
        assert_eq!(buf.word(text.start), "the");
        let stop = buf.push_text("what is this");
        assert_eq!(
            buf.content_words(stop).collect::<Vec<_>>(),
            ["what", "is", "this"]
        );
    }

    #[test]
    fn unicode_input_does_not_panic() {
        let t = words("débit montant du UPF — 5G cœur");
        assert!(t.contains(&"débit".to_string()));
        assert!(t.contains(&"cœur".to_string()));
    }
}
