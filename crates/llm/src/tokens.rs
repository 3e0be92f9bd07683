//! Approximate token counting.
//!
//! Real GPT models use byte-pair encodings averaging ~4 characters per
//! token on English prose. This deterministic approximation reproduces
//! that density closely enough for context-window budgeting and cost
//! accounting: each whitespace-separated word contributes
//! `ceil(len / 4)` tokens (snake_case counter names decompose into many
//! tokens, exactly as BPE does), and each punctuation run contributes 1.
//!
//! Prompts are ASCII, so an ASCII text is read byte by byte; any other
//! text takes the `char` path. The two agree on every ASCII text: an
//! ASCII byte is a `char` of its own, `char::is_alphanumeric` is
//! `u8::is_ascii_alphanumeric` there, and the byte path's word breaks
//! are exactly `split_whitespace`'s ASCII ones, `\x0b` included.

/// Approximate BPE token count of a text.
pub fn count_tokens(text: &str) -> usize {
    if text.is_ascii() {
        count_ascii(text.as_bytes())
    } else {
        count_chars(text)
    }
}

/// The ASCII bytes `char::is_whitespace` (and so `split_whitespace`)
/// breaks words at. `u8::is_ascii_whitespace` leaves out `\x0b`.
fn breaks_word(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r' | b' ')
}

/// [`count_chars`] on an ASCII text, one byte at a time and without a
/// branch: an alphanumeric run costs a token at its 1st, 5th, 9th …
/// byte (`ceil(len / 4)` in all), a punctuation run one at its first
/// byte, and a word break ends both.
fn count_ascii(bytes: &[u8]) -> usize {
    let mut tokens = 0usize;
    // Position in the current alphanumeric run.
    let mut run = 0usize;
    let mut prev_punct = false;
    for &b in bytes {
        let alnum = b.is_ascii_alphanumeric();
        let punct = !alnum & !breaks_word(b);
        tokens += usize::from((alnum & (run % 4 == 0)) | (punct & !prev_punct));
        run = usize::from(alnum) * (run + 1);
        prev_punct = punct;
    }
    tokens
}

/// The count of any text, word by word over `split_whitespace`.
fn count_chars(text: &str) -> usize {
    let mut tokens = 0usize;
    for word in text.split_whitespace() {
        // Split the word into alphanumeric runs and punctuation runs.
        let mut alnum_len = 0usize;
        let mut prev_punct = false;
        for ch in word.chars() {
            if ch.is_alphanumeric() {
                alnum_len += 1;
                prev_punct = false;
            } else {
                if alnum_len > 0 {
                    tokens += alnum_len.div_ceil(4);
                    alnum_len = 0;
                }
                if !prev_punct {
                    tokens += 1;
                    prev_punct = true;
                }
            }
        }
        if alnum_len > 0 {
            tokens += alnum_len.div_ceil(4);
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(count_tokens(""), 0);
        assert_eq!(count_tokens("   \n\t"), 0);
    }

    #[test]
    fn short_words_are_one_token() {
        assert_eq!(count_tokens("the"), 1);
        assert_eq!(count_tokens("a b c"), 3);
    }

    #[test]
    fn long_words_split() {
        assert_eq!(count_tokens("authentication"), 4); // 14 chars -> 4
        assert_eq!(count_tokens("ab"), 1);
        assert_eq!(count_tokens("abcd"), 1);
        assert_eq!(count_tokens("abcde"), 2);
    }

    #[test]
    fn counter_names_cost_many_tokens() {
        // amfcc_n1_auth_request: runs amfcc(2) n1(1) auth(1) request(2)
        // plus two underscore runs... underscores split runs: amfcc, _,
        // n1, _, auth, _, request -> 2+1+1+1+1+1+2 = 9
        let n = count_tokens("amfcc_n1_auth_request");
        assert!(n >= 7, "expected counter name to be many tokens, got {n}");
    }

    #[test]
    fn prose_density_is_plausible() {
        let text = "The number of authentication requests sent by AMF. \
                    The AUTHENTICATION REQUEST message is defined in section 8.2.1 of 3GPP TS 24.501.";
        let words = text.split_whitespace().count();
        let tokens = count_tokens(text);
        // BPE ratio on prose is ~1.3 tokens/word.
        assert!(tokens >= words, "tokens {tokens} < words {words}");
        assert!(tokens <= words * 2, "tokens {tokens} > 2x words {words}");
    }

    #[test]
    fn deterministic() {
        let t = "sum(rate(upfup_n3_ul_bytes[5m]))";
        assert_eq!(count_tokens(t), count_tokens(t));
    }
    /// Characters around every edge of the two paths: word breaks of
    /// both kinds (`\x0b` is one for `split_whitespace`, not for
    /// `u8::is_ascii_whitespace`), control and separator bytes that are
    /// neither (`\x1c`-`\x1f`), non-ASCII whitespace (U+0085, U+00A0,
    /// U+3000), and non-ASCII letters, digits and marks.
    const CHARS: &[char] = &[
        'a', 'Z', 'q', '0', '9', '_', '.', ':', '(', ')', '-', '<', '>', '#', ',', ' ', '\t', '\n',
        '\x0b', '\x0c', '\r', '\x1c', '\x1d', '\x1e', '\x1f', '\x00', '\x7f', '\u{85}', '\u{a0}',
        '\u{3000}', '\u{2028}', 'é', 'Σ', 'İ', '\u{301}', '٣', '漢', '€',
    ];

    fn text(rng: &mut proptest::strategy::TestRng, ascii_only: bool) -> String {
        let pool = if ascii_only { &CHARS[..27] } else { CHARS };
        (0..rng.below(40))
            .map(|_| pool[rng.below(pool.len())])
            .collect()
    }

    proptest::proptest! {
        /// The byte path counts what the `char` path counts, on ASCII
        /// texts (where it runs) and on any text (where `count_tokens`
        /// must still agree with the `char` path).
        #[test]
        fn byte_path_counts_as_the_char_path(seed in proptest::prelude::any::<u64>()) {
            let mut rng = proptest::strategy::TestRng::new(seed);
            for ascii_only in [true, false] {
                for _ in 0..32 {
                    let t = text(&mut rng, ascii_only);
                    if t.is_ascii() {
                        let (bytes, chars) = (count_ascii(t.as_bytes()), count_chars(&t));
                        proptest::prop_assert_eq!(bytes, chars, "{:?}", t);
                    }
                    proptest::prop_assert_eq!(count_tokens(&t), count_chars(&t), "{:?}", t);
                }
            }
        }
    }

    #[test]
    fn vertical_tab_breaks_words_and_file_separators_do_not() {
        for t in ["ab\x0bcd", "a.\x0b.b", "ab\x1ccd", "a\x1f\x1fb", "x \x0c\r\ny", "abcde\x0b"] {
            assert_eq!(count_ascii(t.as_bytes()), count_chars(t), "{t:?}");
        }
        assert_eq!(count_tokens("ab\x0b.cd"), 3);
        assert_eq!(count_tokens("ab\x1c.cd"), 3);
        assert_eq!(count_tokens("ab.\x0b.cd"), 4);
    }
}
