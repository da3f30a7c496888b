//! Word tokenization for NL queries.

/// Reusable tokenization buffer: [`scan_tokens`] clears and refills it
/// instead of allocating a fresh `String` for every token. Public for
/// `Lemmatizer::lemmatize_interned`, which e2ebench's layer replay calls
/// with one scratch per request.
#[derive(Debug, Default)]
pub struct TokenScratch {
    token: String,
}

/// Walk the word tokens of `text`, invoking `emit` with each token (in
/// the same casing [`tokenize`] produces). The token `&str` is only
/// valid for the duration of the callback — it lives in `scratch`.
///
/// * `@PLACEHOLDER` and `@TABLE.COLUMN` tokens are kept intact (uppercase
///   after the `@`), since the parameter handler introduces them before
///   tokenization (paper §4.1).
/// * Alphanumeric runs form tokens; `-` and `'` inside a word are kept
///   (`mother-in-law`, `patient's`), other punctuation is dropped.
/// * Numbers are kept as their own tokens.
///
/// The scan walks `text` by char boundaries and case-maps each token
/// slice straight into the scratch `String`.
pub fn scan_tokens(text: &str, scratch: &mut TokenScratch, mut emit: impl FnMut(&str)) {
    let token = &mut scratch.token;
    let mut chars = text.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if c == '@' {
            let mut end = start + 1;
            while let Some((i, c)) =
                chars.next_if(|&(_, c)| c.is_alphanumeric() || c == '_' || c == '.')
            {
                end = i + c.len_utf8();
            }
            if let Some(name) = text.get(start + 1..end).filter(|name| !name.is_empty()) {
                token.clear();
                token.push('@');
                push_uppercased(token, name);
                emit(token);
            }
        } else if c.is_alphanumeric() {
            let mut end = start + c.len_utf8();
            while let Some(&(i, c)) = chars.peek() {
                if c.is_alphanumeric() {
                    end = i + c.len_utf8();
                } else if !((c == '-' || c == '\'')
                    && text
                        .get(i + 1..)
                        .and_then(|after| after.chars().next())
                        .is_some_and(char::is_alphanumeric))
                {
                    break;
                }
                chars.next();
            }
            if let Some(word) = text.get(start..end) {
                token.clear();
                push_lowercased(token, word);
                emit(token);
            }
        }
    }
}

/// Append the lowercase form of `word` to `out`. ASCII words lowercase
/// in place; anything else takes the full Unicode mapping via
/// `str::to_lowercase` (word-final sigma included).
fn push_lowercased(out: &mut String, word: &str) {
    if word.is_ascii() {
        let from = out.len();
        out.push_str(word);
        if let Some(pushed) = out.get_mut(from..) {
            pushed.make_ascii_lowercase();
        }
    } else {
        out.push_str(&word.to_lowercase());
    }
}

/// Uppercase twin of [`push_lowercased`].
fn push_uppercased(out: &mut String, word: &str) {
    if word.is_ascii() {
        let from = out.len();
        out.push_str(word);
        if let Some(pushed) = out.get_mut(from..) {
            pushed.make_ascii_uppercase();
        }
    } else {
        out.push_str(&word.to_uppercase());
    }
}

/// Tokenize a natural-language query into lowercase word tokens. See
/// [`scan_tokens`] for the token grammar; this is the owned-`Vec`
/// convenience wrapper.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut scratch = TokenScratch::default();
    let mut tokens = Vec::new();
    scan_tokens(text, &mut scratch, |t| tokens.push(t.to_string()));
    tokens
}

/// Join tokens back into a single space-separated string.
pub fn detokenize(tokens: &[String]) -> String {
    tokens.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(
            tokenize("Show me all cities, in Massachusetts!"),
            vec!["show", "me", "all", "cities", "in", "massachusetts"]
        );
    }

    #[test]
    fn preserves_placeholders() {
        assert_eq!(
            tokenize("patients with age @AGE"),
            vec!["patients", "with", "age", "@AGE"]
        );
        assert_eq!(
            tokenize("treated by doctor @doctor.name?"),
            vec!["treated", "by", "doctor", "@DOCTOR.NAME"]
        );
    }

    #[test]
    fn keeps_inner_apostrophes_and_hyphens() {
        assert_eq!(
            tokenize("the patient's x-ray"),
            vec!["the", "patient's", "x-ray"]
        );
    }

    #[test]
    fn drops_trailing_apostrophe() {
        assert_eq!(tokenize("patients' age"), vec!["patients", "age"]);
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(
            tokenize("older than 80 years"),
            vec!["older", "than", "80", "years"]
        );
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("?!,.").is_empty());
    }

    #[test]
    fn bare_at_ignored() {
        assert_eq!(tokenize("a @ b"), vec!["a", "b"]);
    }

    #[test]
    fn scan_tokens_matches_tokenize_with_reused_scratch() {
        let mut scratch = TokenScratch::default();
        for text in [
            "Show me all cities, in Massachusetts!",
            "treated by doctor @doctor.name?",
            "the patient's x-ray",
            "older than 80 years",
            "",
            "?!,.",
            "a @ b",
        ] {
            let mut streamed = Vec::new();
            scan_tokens(text, &mut scratch, |t| streamed.push(t.to_string()));
            assert_eq!(streamed, tokenize(text), "mismatch for {text:?}");
        }
    }

    #[test]
    fn non_ascii_tokens_lowercase_identically() {
        // Exercises the non-ASCII fallback in push_lowercased.
        assert_eq!(
            tokenize("Señor Müller's café"),
            vec!["señor", "müller's", "café"]
        );
    }

    /// The `Vec<char>` scanner `scan_tokens` replaced, kept as the
    /// oracle for the `&str` walk.
    fn char_vec_tokens(text: &str) -> Vec<String> {
        let chars: Vec<char> = text.chars().collect();
        let case = |chars: &[char], upper: bool| {
            let raw: String = chars.iter().collect();
            if upper {
                raw.to_uppercase()
            } else {
                raw.to_lowercase()
            }
        };
        let mut tokens = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c == '@' {
                let start = i;
                i += 1;
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    i += 1;
                }
                if i > start + 1 {
                    tokens.push(format!("@{}", case(&chars[start + 1..i], true)));
                }
                continue;
            }
            if c.is_alphanumeric() {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_alphanumeric()
                        || ((chars[i] == '-' || chars[i] == '\'')
                            && i + 1 < chars.len()
                            && chars[i + 1].is_alphanumeric()))
                {
                    i += 1;
                }
                tokens.push(case(&chars[start..i], false));
                continue;
            }
            i += 1;
        }
        tokens
    }

    #[test]
    fn str_walk_matches_char_vec_oracle() {
        const ALPHABET: &[char] = &[
            'a', 'B', 'z', 'Q', '0', '7', '@', '_', '.', '-', '\'', ',', ' ', '\t', '\n', 'é', 'Ü',
            'ß', 'Σ', 'λ', '中', 'İ', '🙂', '٣',
        ];
        let mut scratch = TokenScratch::default();
        dbpal_util::forall!(cases = 512, |rng| {
            let text = dbpal_util::check::string_from(rng, ALPHABET, 0..=40);
            let mut scanned = Vec::new();
            scan_tokens(&text, &mut scratch, |t| scanned.push(t.to_string()));
            assert_eq!(scanned, char_vec_tokens(&text), "tokens of {text:?}");
        });
    }

    #[test]
    fn detokenize_round_trip() {
        let toks = tokenize("show me all patients");
        assert_eq!(detokenize(&toks), "show me all patients");
    }
}
