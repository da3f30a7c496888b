//! Rule-based English lemmatizer.
//!
//! "During this process, different forms of the same word are mapped to
//! the word's root in order to simplify the analysis (e.g., 'cars' and
//! 'car's' are replaced with 'car'). The same lemmatization is applied at
//! runtime during the pre-processing step." (paper §2.2.3). The paper's
//! runtime example maps *is/are/am → be* (§2.1.2).
//!
//! The implementation combines an irregular-form table with ordered
//! suffix rules, which covers the regular morphology of the vocabulary
//! DBPal's templates and paraphrase store produce.

use std::borrow::Cow;
use std::collections::HashMap;

use dbpal_util::intern::{Sym, Vocab};

use crate::tokenizer::{scan_tokens, TokenScratch};

/// A rule-based lemmatizer. Construction builds the lookup table;
/// [`Lemmatizer::lemma_of`] is then allocation-free except when a suffix
/// rule has to synthesize a restored stem (`cities → city`).
#[derive(Debug, Clone)]
pub struct Lemmatizer {
    /// Irregular forms mapped to their lemmas, and the invariant words
    /// that look inflected but are base forms ("species") mapped to
    /// themselves.
    known: HashMap<&'static str, &'static str>,
}

/// Irregular verbs, nouns, and comparatives relevant to NLIDB vocabulary.
const IRREGULAR: &[(&str, &str)] = &[
    // be / have / do
    ("is", "be"),
    ("are", "be"),
    ("am", "be"),
    ("was", "be"),
    ("were", "be"),
    ("been", "be"),
    ("being", "be"),
    ("has", "have"),
    ("had", "have"),
    ("having", "have"),
    ("does", "do"),
    ("did", "do"),
    ("doing", "do"),
    ("done", "do"),
    // common verbs in query phrasings
    ("shows", "show"),
    ("shown", "show"),
    ("showed", "show"),
    ("gave", "give"),
    ("given", "give"),
    ("gives", "give"),
    ("got", "get"),
    ("gotten", "get"),
    ("gets", "get"),
    ("found", "find"),
    ("finds", "find"),
    ("told", "tell"),
    ("tells", "tell"),
    ("went", "go"),
    ("goes", "go"),
    ("gone", "go"),
    ("made", "make"),
    ("makes", "make"),
    ("came", "come"),
    ("comes", "come"),
    ("saw", "see"),
    ("seen", "see"),
    ("sees", "see"),
    ("kept", "keep"),
    ("left", "leave"),
    ("held", "hold"),
    ("paid", "pay"),
    ("said", "say"),
    ("sold", "sell"),
    ("bought", "buy"),
    ("spent", "spend"),
    ("stood", "stand"),
    ("took", "take"),
    ("taken", "take"),
    ("takes", "take"),
    ("treated", "treat"),
    ("treats", "treat"),
    // irregular nouns
    ("children", "child"),
    ("people", "person"),
    ("men", "man"),
    ("women", "woman"),
    ("feet", "foot"),
    ("teeth", "tooth"),
    ("mice", "mouse"),
    ("geese", "goose"),
    ("lives", "life"),
    ("wives", "wife"),
    ("leaves", "leaf"),
    ("halves", "half"),
    ("criteria", "criterion"),
    ("data", "datum"),
    ("indices", "index"),
    ("diagnoses", "diagnosis"),
    ("analyses", "analysis"),
    ("cities", "city"),
    ("countries", "country"),
    ("counties", "county"),
    ("bodies", "body"),
    ("stays", "stay"),
    ("staying", "stay"),
    ("stayed", "stay"),
    // comparatives / superlatives that matter for NL2SQL
    ("older", "old"),
    ("oldest", "old"),
    ("younger", "young"),
    ("youngest", "young"),
    ("longer", "long"),
    ("longest", "long"),
    ("shorter", "short"),
    ("shortest", "short"),
    ("larger", "large"),
    ("largest", "large"),
    ("smaller", "small"),
    ("smallest", "small"),
    ("higher", "high"),
    ("highest", "high"),
    ("lower", "low"),
    ("lowest", "low"),
    ("greater", "great"),
    ("greatest", "great"),
    ("more", "many"),
    ("most", "many"),
    ("fewer", "few"),
    ("fewest", "few"),
    ("less", "little"),
    ("least", "little"),
    ("better", "good"),
    ("best", "good"),
    ("worse", "bad"),
    ("worst", "bad"),
    ("heavier", "heavy"),
    ("heaviest", "heavy"),
    ("taller", "tall"),
    ("tallest", "tall"),
    ("bigger", "big"),
    ("biggest", "big"),
    ("earlier", "early"),
    ("earliest", "early"),
    ("later", "late"),
    ("latest", "late"),
    ("faster", "fast"),
    ("fastest", "fast"),
    ("slower", "slow"),
    ("slowest", "slow"),
    ("cheaper", "cheap"),
    ("cheapest", "cheap"),
];

/// Words ending in s/ed/ing that are already base forms. An
/// [`IRREGULAR`] entry for the same word ("was", "less") wins.
const INVARIANT: &[&str] = &[
    "species",
    "series",
    "news",
    "mathematics",
    "physics",
    "always",
    "perhaps",
    "plus",
    "versus",
    "thus",
    "this",
    "his",
    "its",
    "was",
    "bus",
    "gas",
    "yes",
    "during",
    "nothing",
    "something",
    "anything",
    "everything",
    "thing",
    "king",
    "ring",
    "spring",
    "string",
    "sibling",
    "morning",
    "evening",
    "building",
    "red",
    "bed",
    "hundred",
    "wed",
    "ted",
    "united",
    "massachusetts",
    "texas",
    "kansas",
    "arkansas",
    "illinois",
    "status",
    "address",
    "process",
    "access",
    "business",
    "class",
    "kindness",
    "illness",
    "pass",
    "less",
    "across",
    "boss",
    "loss",
    "miss",
];

impl Lemmatizer {
    /// Build a lemmatizer with the built-in irregular and invariant
    /// words. Invariant words go in first, so an irregular entry for the
    /// same word replaces them.
    pub fn new() -> Self {
        let mut known: HashMap<_, _> = INVARIANT.iter().map(|&w| (w, w)).collect();
        known.extend(IRREGULAR.iter().copied());
        Lemmatizer { known }
    }

    /// Lemmatize a single lowercase token, allocating an owned `String`.
    /// Prefer [`Lemmatizer::lemma_of`] on hot paths.
    pub fn lemma(&self, word: &str) -> String {
        self.lemma_of(word).into_owned()
    }

    /// Lemmatize a single lowercase token without allocating unless a
    /// suffix rule has to synthesize a restored stem. Placeholders
    /// (`@X`) and numbers pass through unchanged.
    pub fn lemma_of<'a>(&self, word: &'a str) -> Cow<'a, str> {
        if word.starts_with('@') || word.bytes().all(|b| b.is_ascii_digit()) {
            return Cow::Borrowed(word);
        }
        // Possessives: car's -> car, James' -> James.
        if let Some(stripped) = word.strip_suffix("'s").or_else(|| word.strip_suffix('\'')) {
            return self.lemma_of(stripped);
        }
        if let Some(&lemma) = self.known.get(word) {
            return Cow::Borrowed(lemma);
        }
        self.suffix_rules(word)
    }

    /// Ordered regular suffix rules. Applied only when no irregular or
    /// invariant entry matched.
    fn suffix_rules<'a>(&self, word: &'a str) -> Cow<'a, str> {
        let n = word.len();
        // -ies -> -y (cities handled as irregular; this covers the rest)
        if n > 4 {
            if let Some(stem) = word.strip_suffix("ies") {
                return Cow::Owned(format!("{stem}y"));
            }
        }
        // -sses -> -ss, -xes/-ches/-shes/-zes -> drop "es"
        if n > 4 {
            if let Some(stem) = word.strip_suffix("es") {
                if stem.ends_with("ss")
                    || stem.ends_with('x')
                    || stem.ends_with("ch")
                    || stem.ends_with("sh")
                    || stem.ends_with('z')
                {
                    return Cow::Borrowed(stem);
                }
            }
        }
        // -ied -> -y (studied -> study)
        if n > 4 {
            if let Some(stem) = word.strip_suffix("ied") {
                return Cow::Owned(format!("{stem}y"));
            }
        }
        // -ing: doubling (running -> run), -e restoration (having handled
        // irregularly; "hoping" -> "hope" heuristics are unreliable, so
        // only handle doubling and plain stripping).
        if n > 5 {
            if let Some(stem) = word.strip_suffix("ing") {
                if let Some(undoubled) = undouble_final_consonant(stem) {
                    return Cow::Borrowed(undoubled);
                }
                if stem_is_wordlike(stem) {
                    return Cow::Borrowed(stem);
                }
            }
        }
        // -ed: equaled -> equal, averaged -> average (via -e restoration),
        // stopped -> stop (doubling).
        if n > 4 {
            if let Some(stem) = word.strip_suffix("ed") {
                if let Some(undoubled) = undouble_final_consonant(stem) {
                    return Cow::Borrowed(undoubled);
                }
                // Restore a dropped 'e' when the stem ends in a pattern
                // that required one (averag -> average, stat -> state is
                // wrong but rare in this vocabulary; prefer restoration
                // when the stem ends with specific clusters).
                if stem.ends_with('g')
                    || stem.ends_with('v')
                    || stem.ends_with('s')
                    || stem.ends_with('c')
                    || stem.ends_with("at")
                    || stem.ends_with("iz")
                    || stem.ends_with("as")
                {
                    return Cow::Owned(format!("{stem}e"));
                }
                if stem_is_wordlike(stem) {
                    return Cow::Borrowed(stem);
                }
            }
        }
        // plain plural -s (but not -ss, -us, -is).
        if n > 3
            && word.ends_with('s')
            && !word.ends_with("ss")
            && !word.ends_with("us")
            && !word.ends_with("is")
        {
            return Cow::Borrowed(&word[..n - 1]);
        }
        Cow::Borrowed(word)
    }

    /// Tokenize and lemmatize a whole sentence.
    pub fn lemmatize_sentence(&self, sentence: &str) -> Vec<String> {
        let mut lemmas = Vec::new();
        scan_tokens(sentence, &mut TokenScratch::default(), |tok| {
            lemmas.push(self.lemma_of(tok).into_owned());
        });
        lemmas
    }

    /// Interned, allocation-light variant of
    /// [`Lemmatizer::lemmatize_sentence`]: tokenizes with the reusable
    /// `scratch` buffers, appends one [`Sym`] per lemma to `syms`, and
    /// extends `key` with the space-joined lemma text — byte-identical
    /// to `lemmatize_sentence(sentence).join(" ")`. Kept for e2ebench's
    /// layer replay; the serving path calls `lemmatize_sentence`.
    pub fn lemmatize_interned(
        &self,
        sentence: &str,
        vocab: &Vocab,
        scratch: &mut TokenScratch,
        syms: &mut Vec<Sym>,
        key: &mut String,
    ) {
        let first = key.len();
        scan_tokens(sentence, scratch, |tok| {
            let lemma = self.lemma_of(tok);
            if key.len() > first {
                key.push(' ');
            }
            key.push_str(&lemma);
            syms.push(vocab.intern(&lemma));
        });
    }
}

impl Default for Lemmatizer {
    fn default() -> Self {
        Self::new()
    }
}

/// `stem` without its last char when that char is a doubled consonant
/// other than `s` or `l` (`runn` → `run`, `stopp` → `stop`).
fn undouble_final_consonant(stem: &str) -> Option<&str> {
    let mut rev = stem.char_indices().rev();
    let ((last_at, last), (_, before)) = (rev.next()?, rev.next()?);
    if last == before && !"aeiousl".contains(last) {
        stem.get(..last_at)
    } else {
        None
    }
}

/// Crude check that a stripped stem still looks like an English word:
/// it contains a vowel and has at least 3 characters.
fn stem_is_wordlike(stem: &str) -> bool {
    stem.len() >= 3 && stem.chars().any(|c| "aeiouy".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(word: &str) -> String {
        Lemmatizer::new().lemma(word)
    }

    #[test]
    fn paper_examples() {
        // §2.1.2: is/are/am -> be.
        assert_eq!(l("is"), "be");
        assert_eq!(l("are"), "be");
        assert_eq!(l("am"), "be");
        // §2.2.3: cars and car's -> car.
        assert_eq!(l("cars"), "car");
        assert_eq!(l("car's"), "car");
    }

    #[test]
    fn patients_benchmark_morphology() {
        // §6.2.1 morphological category: "averaged", "equaled".
        assert_eq!(l("averaged"), "average");
        assert_eq!(l("equaled"), "equal");
        assert_eq!(l("stayed"), "stay");
    }

    #[test]
    fn plurals() {
        assert_eq!(l("patients"), "patient");
        assert_eq!(l("cities"), "city");
        assert_eq!(l("diseases"), "disease");
        assert_eq!(l("boxes"), "box");
        assert_eq!(l("churches"), "church");
        assert_eq!(l("classes"), "class");
    }

    #[test]
    fn irregular_nouns() {
        assert_eq!(l("children"), "child");
        assert_eq!(l("people"), "person");
        assert_eq!(l("diagnoses"), "diagnosis");
    }

    #[test]
    fn verb_forms() {
        assert_eq!(l("shows"), "show");
        assert_eq!(l("showed"), "show");
        assert_eq!(l("running"), "run");
        assert_eq!(l("listing"), "list");
        assert_eq!(l("stopped"), "stop");
        assert_eq!(l("treated"), "treat");
    }

    #[test]
    fn comparatives() {
        assert_eq!(l("older"), "old");
        assert_eq!(l("oldest"), "old");
        assert_eq!(l("longest"), "long");
        assert_eq!(l("highest"), "high");
    }

    #[test]
    fn invariants_untouched() {
        assert_eq!(l("massachusetts"), "massachusetts");
        assert_eq!(l("status"), "status");
        assert_eq!(l("address"), "address");
        assert_eq!(l("this"), "this");
        // An irregular entry for an invariant word wins.
        assert_eq!(l("was"), "be");
        assert_eq!(l("less"), "little");
    }

    #[test]
    fn non_ascii_doubled_letters_undouble_by_whole_chars() {
        assert_eq!(l("ééing"), "é");
        assert_eq!(l("ççed"), "ç");
        assert_eq!(l("ȼȼȼing"), "ȼȼ");
    }

    #[test]
    fn placeholders_and_numbers_pass_through() {
        assert_eq!(l("@AGE"), "@AGE");
        assert_eq!(l("80"), "80");
    }

    #[test]
    fn short_words_untouched() {
        assert_eq!(l("as"), "as");
        assert_eq!(l("us"), "us");
        assert_eq!(l("go"), "go");
    }

    #[test]
    fn sentence_level() {
        let lem = Lemmatizer::new();
        assert_eq!(
            lem.lemmatize_sentence("What are the names of patients with age @AGE?"),
            vec!["what", "be", "the", "name", "of", "patient", "with", "age", "@AGE"]
        );
    }

    #[test]
    fn interned_path_matches_string_path() {
        let lem = Lemmatizer::new();
        let vocab = Vocab::new();
        for sentence in [
            "What are the names of patients with age @AGE?",
            "show me all cities, in Massachusetts!",
            "the patient's x-ray showed nothing",
            "how many diagnoses were given to @PATIENT.NAME",
            "",
        ] {
            let mut scratch = TokenScratch::default();
            let mut syms = Vec::new();
            let mut key = String::new();
            lem.lemmatize_interned(sentence, &vocab, &mut scratch, &mut syms, &mut key);
            let strings = lem.lemmatize_sentence(sentence);
            assert_eq!(key, strings.join(" "), "key mismatch for {sentence:?}");
            let resolved: Vec<&str> = syms.iter().map(|&s| vocab.resolve(s)).collect();
            assert_eq!(resolved, strings, "sym mismatch for {sentence:?}");
        }
    }

    #[test]
    fn lemma_of_borrows_when_unchanged() {
        let lem = Lemmatizer::new();
        assert!(matches!(lem.lemma_of("patient"), Cow::Borrowed(_)));
        assert!(matches!(lem.lemma_of("patients"), Cow::Borrowed(_)));
        assert!(matches!(lem.lemma_of("@AGE"), Cow::Borrowed(_)));
        assert!(matches!(lem.lemma_of("is"), Cow::Borrowed(_)));
        // Restored stems are the only owned case.
        assert!(matches!(lem.lemma_of("companies"), Cow::Owned(_)));
        assert_eq!(lem.lemma_of("companies"), "company");
    }

    #[test]
    fn idempotent_on_common_vocabulary() {
        let lem = Lemmatizer::new();
        for w in [
            "patient", "age", "name", "disease", "city", "show", "be", "have", "old", "stay",
            "average", "length",
        ] {
            let once = lem.lemma(w);
            assert_eq!(lem.lemma(&once), once, "not idempotent for {w}");
        }
    }
}
