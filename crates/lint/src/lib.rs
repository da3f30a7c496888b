//! # dbpal-lint — parser-based static analysis for the workspace itself
//!
//! The determinism contract (byte-identical corpora and serving output
//! per seed at any thread count) used to be defended by a grep script
//! that saw text, not code: a pattern in a comment tripped it, a
//! pattern split across tokens escaped it, and nothing about panics,
//! lock order, or hot-path allocation was expressible at all. This
//! crate replaces it with a real (if small) analysis stack:
//!
//! 1. [`lexer`] — a Rust lexer that understands raw strings, nested
//!    block comments, lifetimes vs char literals, and raw identifiers,
//!    so rules match identifiers, never prose;
//! 2. [`context`] — a brace/item-aware walker that gives every token
//!    its enclosing `fn`/`impl`/`mod` path and a test-code flag;
//! 3. [`rules`] — the `L###` catalog (TIME, SPAWN, HASHITER, PANIC,
//!    INDEX, LOCKORDER, HOTCLONE, ATOMICORD), each scoped to the paths
//!    and items where the hazard is real;
//! 4. [`allowlist`] — justified, stale-checked suppressions;
//! 5. [`report`] — human diagnostics plus the `lints` JSON member.
//!
//! The linter obeys the contract it enforces: files are walked in
//! sorted order, analyzed on the process-wide [`WorkerPool`], and the
//! report is a pure function of the sources — byte-identical at any
//! thread count.

pub mod allowlist;
pub mod context;
pub mod lexer;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use dbpal_util::WorkerPool;
use rules::Finding;

/// Result of linting a whole tree.
pub struct LintRun {
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
    /// Every finding, ordered by (path, line, col, code).
    pub findings: Vec<Finding>,
}

/// Lex, annotate, and analyze one source file. `rel_path` is the
/// workspace-relative, forward-slash path rules use for scoping.
pub fn analyze_source(rel_path: &str, src: &str) -> Vec<Finding> {
    rules::analyze(rel_path, &context::annotate(lexer::lex(src)))
}

/// Enumerate the workspace's own sources under `root`: every `.rs`
/// file below `crates/*/src` and below `src/`. Returned sorted by
/// relative path (forward slashes), which fixes the report order.
pub fn workspace_files(root: &Path) -> Vec<(String, PathBuf)> {
    let mut roots: Vec<PathBuf> = Vec::new();
    if let Ok(read) = fs::read_dir(root.join("crates")) {
        for entry in read.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    let top = root.join("src");
    if top.is_dir() {
        roots.push(top);
    }

    let mut files = Vec::new();
    for r in roots {
        collect_rs(&r, &mut files);
    }
    let mut out: Vec<(String, PathBuf)> = files
        .into_iter()
        .filter_map(|abs| {
            let rel = abs.strip_prefix(root).ok()?;
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            Some((rel, abs))
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(read) = fs::read_dir(dir) else { return };
    for entry in read.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
}

/// Lint every workspace source file under `root` with `threads`
/// workers. Output is invariant in `threads`: the file list is sorted,
/// the pool's `map_indexed` preserves order, and per-file findings are
/// already sorted.
pub fn lint_workspace(root: &Path, threads: usize) -> LintRun {
    let files = workspace_files(root);
    let per_file: Vec<Vec<Finding>> =
        WorkerPool::global().map_indexed(&files, threads, |_, (rel, abs)| {
            let src = fs::read_to_string(abs).unwrap_or_default();
            analyze_source(rel, &src)
        });
    LintRun {
        files_scanned: files.len(),
        findings: per_file.into_iter().flatten().collect(),
    }
}
