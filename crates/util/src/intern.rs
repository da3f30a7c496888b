//! String interning: a [`Vocab`] assigns each distinct string a stable
//! [`Sym`] (a `u32` id) that compares, hashes, and copies as a plain
//! integer.
//!
//! The serving path does not intern. It moves each question's lemmas
//! as `String`s: the deployed models consume strings, and a
//! process-wide append-only table would grow with every novel token a
//! server sees. This module, [`Vocab::global`], `dbpal_nlp::TokenScratch`,
//! the two `lemmatize_interned` functions, and
//! `TranslationModel::translate_syms` are kept for e2ebench's layer
//! replay, which still times that interned path.
//!
//! Invariants:
//!
//! - **Injective**: distinct strings get distinct `Sym`s, and the same
//!   string always gets the same `Sym` back (per vocab, for its whole
//!   lifetime). There is no collision case to handle — the table is
//!   exact, not hashed-and-hoped.
//! - **Append-only**: entries are never removed or mutated, so a
//!   resolved `&str` stays valid for as long as the vocab itself.
//! - **`Sym`s are vocab-local**: ids from different vocabs are not
//!   comparable. Values depend on first-intern order, which can differ
//!   run to run under concurrency — ids must therefore never appear in
//!   any exported artifact. Everything user- or disk-visible resolves
//!   back to text first, which is why interning is invisible to the
//!   determinism goldens.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned string id. `Copy`, 4 bytes, and cheap to compare — the
/// whole point. Only meaningful to the [`Vocab`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The raw id (the index into the issuing vocab's table).
    pub fn raw(self) -> u32 {
        self.0
    }
}

#[derive(Default)]
struct Inner {
    map: HashMap<Box<str>, u32>,
    /// Index = `Sym` id. Boxed so the character data has a stable heap
    /// address across table growth (see [`Vocab::resolve`]).
    strings: Vec<Box<str>>,
}

/// A thread-safe, append-only string interner.
///
/// `intern` is read-mostly: once a token has been seen, later interns
/// take only the read lock. Lookups of never-interned strings never
/// mutate, so [`Vocab::lookup`] is safe on shared-nothing read paths.
#[derive(Default)]
pub struct Vocab {
    inner: RwLock<Inner>,
}

impl Vocab {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Vocab::default()
    }

    /// The process-wide shared table. Only e2ebench's layer replay
    /// interns into it; the serving path keeps no token table.
    pub fn global() -> &'static Vocab {
        static GLOBAL: OnceLock<Vocab> = OnceLock::new();
        GLOBAL.get_or_init(Vocab::new)
    }

    /// The id for `s`, interning it if new.
    pub fn intern(&self, s: &str) -> Sym {
        {
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            if let Some(&id) = inner.map.get(s) {
                return Sym(id);
            }
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = inner.map.get(s) {
            return Sym(id); // raced with another writer
        }
        let id = u32::try_from(inner.strings.len()).expect("vocab overflow");
        let boxed: Box<str> = s.into();
        inner.strings.push(boxed.clone());
        inner.map.insert(boxed, id);
        Sym(id)
    }

    /// The id for `s` if it has already been interned; never mutates.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        inner.map.get(s).copied().map(Sym)
    }

    /// The string behind `sym`.
    ///
    /// Panics if `sym` came from a different vocab (an id past the end
    /// of the table) — that is a programming error, not an input error.
    pub fn resolve(&self, sym: Sym) -> &str {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let ptr: *const str = &*inner.strings[sym.0 as usize];
        // SAFETY: the table is append-only — `Box<str>` entries are
        // never dropped, shrunk, or mutated while the vocab lives, and
        // the boxed character data does not move when `strings` grows.
        // Extending the borrow from the guard's lifetime to `&self` is
        // therefore sound.
        unsafe { &*ptr }
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        inner.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intern every word of `words`, appending the ids to `out` (a
    /// reusable per-worker scratch buffer on the batch path).
    pub fn intern_all<S: AsRef<str>>(&self, words: &[S], out: &mut Vec<Sym>) {
        out.reserve(words.len());
        for w in words {
            out.push(self.intern(w.as_ref()));
        }
    }
}

impl std::fmt::Debug for Vocab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Vocab(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let v = Vocab::new();
        let a = v.intern("select");
        let b = v.intern("count");
        assert_eq!(v.resolve(a), "select");
        assert_eq!(v.resolve(b), "count");
    }

    #[test]
    fn same_string_same_sym() {
        let v = Vocab::new();
        assert_eq!(v.intern("patient"), v.intern("patient"));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn distinct_strings_distinct_syms() {
        let v = Vocab::new();
        let a = v.intern("age");
        let b = v.intern("name");
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_never_interns() {
        let v = Vocab::new();
        assert_eq!(v.lookup("ghost"), None);
        assert_eq!(v.len(), 0);
        let s = v.intern("ghost");
        assert_eq!(v.lookup("ghost"), Some(s));
    }

    #[test]
    fn resolve_survives_growth() {
        let v = Vocab::new();
        let first = v.intern("zero");
        let text = v.resolve(first);
        for i in 0..10_000 {
            v.intern(&format!("word{i}"));
        }
        assert_eq!(text, "zero");
        assert_eq!(v.resolve(first), "zero");
    }

    #[test]
    fn intern_all_appends() {
        let v = Vocab::new();
        let mut out = Vec::new();
        v.intern_all(&["a", "b", "a"], &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[2]);
        assert_ne!(out[0], out[1]);
    }

    #[test]
    fn empty_string_is_a_valid_entry() {
        let v = Vocab::new();
        let e = v.intern("");
        assert_eq!(v.resolve(e), "");
        assert_eq!(v.lookup(""), Some(e));
    }
}
