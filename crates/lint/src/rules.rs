//! The rule catalog and the per-file analysis pass.
//!
//! Every rule has a stable `L###` code. Rules match *tokens*, not text:
//! a pattern named in a comment or string literal can neither trigger
//! nor suppress a finding. Test code (`#[test]` fns, `#[cfg(test)]`
//! items) is exempt from every rule — the determinism and panic
//! contracts bind production paths only.

use crate::context::{FileContext, NO_ITEM};
use crate::lexer::{TokKind, Token};

/// A catalog entry describing one rule.
pub struct Rule {
    /// Stable diagnostic code (`L001`, …).
    pub code: &'static str,
    /// Short family name (TIME, PANIC, …).
    pub name: &'static str,
    /// One-line description shown in reports and docs.
    pub summary: &'static str,
}

/// All rules, in code order. The JSON report enumerates exactly these.
pub const RULES: &[Rule] = &[
    Rule {
        code: "L001",
        name: "TIME",
        summary: "wall-clock source (SystemTime / Instant) in deterministic code",
    },
    Rule {
        code: "L002",
        name: "SPAWN",
        summary: "raw thread::spawn / thread::scope outside the worker pool",
    },
    Rule {
        code: "L003",
        name: "HASHITER",
        summary: "HashMap/HashSet in an item that also serializes (iteration order leaks)",
    },
    Rule {
        code: "L010",
        name: "PANIC",
        summary: "unwrap/expect/panic-family on a request-handling path",
    },
    Rule {
        code: "L011",
        name: "INDEX",
        summary: "unchecked slice index on a byte-handling path",
    },
    Rule {
        code: "L020",
        name: "LOCKORDER",
        summary: "tenant lock acquired against the canonical nlidb-before-cache order",
    },
    Rule {
        code: "L030",
        name: "HOTCLONE",
        summary: "allocation (clone/to_string/to_owned/format!) in a per-query hot-path fn",
    },
    Rule {
        code: "L040",
        name: "ATOMICORD",
        summary: "atomic ordering stronger than the metrics substrate's documented Relaxed",
    },
];

/// Look up a catalog entry by code.
pub fn rule_by_code(code: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.code == code)
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule code (`L001`, …).
    pub code: &'static str,
    /// Workspace-relative file path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Enclosing item path (`QueryService::submit_batch`), may be empty.
    pub item: String,
    /// Human message.
    pub message: String,
}

impl Finding {
    /// `L010 crates/serve/src/net/server.rs:423:17 [Server::read_frame] message`
    pub fn render(&self) -> String {
        let item = if self.item.is_empty() {
            String::new()
        } else {
            let mut s = String::from(" [");
            s.push_str(&self.item);
            s.push(']');
            s
        };
        let mut out = String::new();
        out.push_str(self.code);
        out.push(' ');
        out.push_str(&self.path);
        out.push(':');
        out.push_str(&self.line.to_string());
        out.push(':');
        out.push_str(&self.col.to_string());
        out.push_str(&item);
        out.push(' ');
        out.push_str(&self.message);
        out
    }
}

// ---------------------------------------------------------------- scopes

fn in_panic_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/") || path == "crates/util/src/frame.rs"
}

fn in_index_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/net/") || path == "crates/util/src/frame.rs"
}

fn in_lockorder_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
}

fn is_metrics_file(path: &str) -> bool {
    path == "crates/util/src/metrics.rs"
}

fn is_hot_fn(name: &str) -> bool {
    name == "anonymize"
        || name == "translate"
        || name.starts_with("lemmatize")
        || name.starts_with("cache_key")
}

// ---------------------------------------------------------------- analysis

/// Run every rule over one annotated file. Findings come back sorted by
/// (line, col, code) — the report is deterministic by construction.
pub fn analyze(path: &str, ctx: &FileContext) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &ctx.tokens;

    // HASHITER needs a first pass: which items serialize? An item
    // serializes if it mentions an ident starting with `to_json` /
    // `to_tsv`, or builds `Json::Obj` directly.
    let mut serializing: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if ctx.scopes[i].in_test {
            continue;
        }
        let id = ctx.scopes[i].item_id;
        if id == NO_ITEM {
            continue;
        }
        let hit = (t.kind == TokKind::Ident
            && (t.text.starts_with("to_json") || t.text.starts_with("to_tsv")))
            || (t.is_ident("Json")
                && toks
                    .get(i + 1)
                    .map(|n| n.kind == TokKind::PathSep)
                    .unwrap_or(false)
                && toks.get(i + 2).map(|n| n.is_ident("Obj")).unwrap_or(false));
        if hit && !serializing.contains(&id) {
            serializing.push(id);
        }
    }

    // Per-fn LOCKORDER state, keyed by the enclosing item path.
    let mut lock_state: Vec<(String, LockState)> = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        let scope = &ctx.scopes[i];
        if scope.in_test {
            continue;
        }
        let push = |out: &mut Vec<Finding>, code: &'static str, message: String| {
            out.push(Finding {
                code,
                path: path.to_string(),
                line: t.line,
                col: t.col,
                item: scope.path.clone(),
                message,
            });
        };

        // L001 TIME — the clock types by name, anywhere.
        if t.is_ident("SystemTime") || t.is_ident("Instant") {
            push(
                &mut out,
                "L001",
                format!("wall-clock source `{}` in deterministic code", t.text),
            );
        }

        // L002 SPAWN — `thread::spawn` / `thread::scope` as a token run.
        if t.is_ident("thread")
            && toks
                .get(i + 1)
                .map(|n| n.kind == TokKind::PathSep)
                .unwrap_or(false)
        {
            if let Some(n) = toks.get(i + 2) {
                if n.is_ident("spawn") || n.is_ident("scope") {
                    push(
                        &mut out,
                        "L002",
                        format!("raw `thread::{}` outside the worker pool", n.text),
                    );
                }
            }
        }

        // L003 HASHITER — hash collections inside a serializing item.
        if (t.is_ident("HashMap") || t.is_ident("HashSet"))
            && scope.item_id != NO_ITEM
            && serializing.contains(&scope.item_id)
        {
            push(
                &mut out,
                "L003",
                format!(
                    "`{}` in a serializing item — iteration order leaks into output",
                    t.text
                ),
            );
        }

        // L010 PANIC — panic-family calls on request paths.
        if in_panic_scope(path) {
            let method_call = t.kind == TokKind::Ident
                && i > 0
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false);
            if method_call && (t.text == "unwrap" || t.text == "expect") {
                push(
                    &mut out,
                    "L010",
                    format!(
                        "`.{}()` on a request path — return a typed error instead",
                        t.text
                    ),
                );
            }
            let macro_call = t.kind == TokKind::Ident
                && toks.get(i + 1).map(|n| n.is_punct("!")).unwrap_or(false);
            if macro_call
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
            {
                push(
                    &mut out,
                    "L010",
                    format!(
                        "`{}!` on a request path — return a typed error instead",
                        t.text
                    ),
                );
            }
        }

        // L011 INDEX — `ident[` on byte-handling paths. Keywords are
        // excluded: `&mut [u8]` or `for x in [..]` are types and
        // iterators, not indexing.
        if in_index_scope(path)
            && t.kind == TokKind::Ident
            && !is_keyword(&t.text)
            && toks.get(i + 1).map(|n| n.is_punct("[")).unwrap_or(false)
        {
            push(
                &mut out,
                "L011",
                format!(
                    "unchecked index `{}[..]` — a short frame panics here",
                    t.text
                ),
            );
        }

        // L020 LOCKORDER — canonical order is tenant nlidb before cache.
        if in_lockorder_scope(path) && scope.fn_name.is_some() {
            let key = scope.path.as_str();
            // `.cache.lock()` acquisition.
            if t.is_ident("cache")
                && i > 0
                && toks[i - 1].is_punct(".")
                && seq_method(toks, i + 1, "lock")
            {
                lock_state_mut(&mut lock_state, key).cache_at = Some((t.line, t.col));
            }
            // `.nlidb.read()` / `.nlidb.write()` acquisition.
            if t.is_ident("nlidb") && i > 0 && toks[i - 1].is_punct(".") {
                let rw = toks
                    .get(i + 2)
                    .filter(|_| toks.get(i + 1).map(|n| n.is_punct(".")).unwrap_or(false))
                    .filter(|n| n.is_ident("read") || n.is_ident("write"))
                    .filter(|_| toks.get(i + 3).map(|n| n.is_punct("(")).unwrap_or(false));
                if rw.is_some() {
                    let st = lock_state_mut(&mut lock_state, key);
                    if let Some((cl, cc)) = st.cache_at {
                        push(
                            &mut out,
                            "L020",
                            format!(
                                "tenant lock acquired after cache lock taken at {cl}:{cc} — canonical order is nlidb before cache"
                            ),
                        );
                    }
                }
            }
            // `tenants[<n>].nlidb.read()` with literal indices must be
            // acquired in increasing index order within one fn.
            if t.is_ident("tenants") && toks.get(i + 1).map(|n| n.is_punct("[")).unwrap_or(false) {
                if let Some(num) = toks.get(i + 2).filter(|n| n.kind == TokKind::Number) {
                    let closed = toks.get(i + 3).map(|n| n.is_punct("]")).unwrap_or(false);
                    let nlidb = toks.get(i + 4).map(|n| n.is_punct(".")).unwrap_or(false)
                        && toks
                            .get(i + 5)
                            .map(|n| n.is_ident("nlidb"))
                            .unwrap_or(false)
                        && toks.get(i + 6).map(|n| n.is_punct(".")).unwrap_or(false)
                        && toks
                            .get(i + 7)
                            .map(|n| n.is_ident("read") || n.is_ident("write"))
                            .unwrap_or(false)
                        && toks.get(i + 8).map(|n| n.is_punct("(")).unwrap_or(false);
                    if closed && nlidb {
                        if let Ok(idx) = num.text.parse::<u64>() {
                            let st = lock_state_mut(&mut lock_state, key);
                            if let Some(prev) = st.last_tenant_idx {
                                if idx < prev {
                                    push(
                                        &mut out,
                                        "L020",
                                        format!(
                                            "tenant {idx} locked after tenant {prev} — shard locks must follow index order"
                                        ),
                                    );
                                }
                            }
                            st.last_tenant_idx = Some(idx);
                        }
                    }
                }
            }
        }

        // L030 HOTCLONE — allocation inside the per-query hot fns.
        if let Some(fn_name) = scope.fn_name.as_deref() {
            if is_hot_fn(fn_name) {
                let method_call = t.kind == TokKind::Ident
                    && i > 0
                    && toks[i - 1].is_punct(".")
                    && toks.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false);
                if method_call && matches!(t.text.as_str(), "clone" | "to_string" | "to_owned") {
                    push(
                        &mut out,
                        "L030",
                        format!("`.{}()` in hot-path fn `{fn_name}`", t.text),
                    );
                }
                if t.is_ident("format") && toks.get(i + 1).map(|n| n.is_punct("!")).unwrap_or(false)
                {
                    push(
                        &mut out,
                        "L030",
                        format!("`format!` allocates in hot-path fn `{fn_name}`"),
                    );
                }
            }
        }

        // L040 ATOMICORD — SeqCst anywhere; acquire/release families in
        // the metrics substrate, whose counters are documented Relaxed.
        if t.is_ident("SeqCst") {
            push(
                &mut out,
                "L040",
                "`SeqCst` ordering — the workspace's atomics are documented Relaxed".to_string(),
            );
        }
        if is_metrics_file(path)
            && (t.is_ident("Acquire") || t.is_ident("Release") || t.is_ident("AcqRel"))
        {
            push(
                &mut out,
                "L040",
                format!(
                    "`{}` ordering in the metrics substrate — counters are documented Relaxed",
                    t.text
                ),
            );
        }
    }

    out.sort_by(|a, b| (a.line, a.col, a.code).cmp(&(b.line, b.col, b.code)));
    out
}

#[derive(Default)]
struct LockState {
    cache_at: Option<(usize, usize)>,
    last_tenant_idx: Option<u64>,
}

fn lock_state_mut<'a>(states: &'a mut Vec<(String, LockState)>, key: &str) -> &'a mut LockState {
    if let Some(pos) = states.iter().position(|(k, _)| k == key) {
        return &mut states[pos].1;
    }
    states.push((key.to_string(), LockState::default()));
    let last = states.len() - 1;
    &mut states[last].1
}

/// Rust keywords that can legally precede `[` without indexing.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "mut"
            | "in"
            | "dyn"
            | "as"
            | "return"
            | "break"
            | "continue"
            | "else"
            | "match"
            | "move"
            | "ref"
            | "where"
            | "unsafe"
            | "impl"
            | "const"
            | "static"
            | "pub"
            | "use"
            | "let"
            | "fn"
            | "enum"
            | "struct"
            | "trait"
            | "type"
            | "mod"
            | "if"
            | "while"
            | "loop"
            | "for"
            | "box"
            | "yield"
            | "await"
    )
}

/// `toks[at] == "." && toks[at+1] == name && toks[at+2] == "("`.
fn seq_method(toks: &[Token], at: usize, name: &str) -> bool {
    toks.get(at).map(|n| n.is_punct(".")).unwrap_or(false)
        && toks.get(at + 1).map(|n| n.is_ident(name)).unwrap_or(false)
        && toks.get(at + 2).map(|n| n.is_punct("(")).unwrap_or(false)
}
