//! The linter eats its own dog food: the allowlist must parse, the
//! workspace must be clean under it with zero stale entries, and the
//! JSON report must be byte-identical at 1 and 8 lint threads.
//! `scripts/verify.sh` runs this test first, before fmt and the build,
//! so a violation fails CI fast.

use std::path::PathBuf;

use dbpal_lint::{allowlist, lint_workspace, report};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed_allowlist() -> Vec<allowlist::AllowEntry> {
    let text = std::fs::read_to_string(workspace_root().join("scripts/lint_allowlist.txt"))
        .expect("scripts/lint_allowlist.txt exists");
    allowlist::parse(&text).expect("allowlist parses")
}

#[test]
fn workspace_is_clean_under_committed_allowlist() {
    let entries = committed_allowlist();
    let run = lint_workspace(&workspace_root(), 8);
    assert!(run.files_scanned > 50, "suspiciously few files scanned");
    let applied = allowlist::apply(run.findings, &entries);
    assert!(
        applied.violations.is_empty(),
        "workspace has lint violations:\n{}",
        report::render_human(&applied, &entries)
    );
    assert!(
        applied.stale().is_empty(),
        "stale allowlist entries:\n{}",
        report::render_human(&applied, &entries)
    );
    // The allowlist is not a dumping ground: every entry silences at
    // least one real finding (checked above), and the documented debt
    // classes are present.
    assert!(!applied.allowed.is_empty());
}

#[test]
fn report_is_thread_count_invariant() {
    let entries = committed_allowlist();
    let root = workspace_root();
    let run1 = lint_workspace(&root, 1);
    let run8 = lint_workspace(&root, 8);
    let json1 = report::lints_json(
        run1.files_scanned,
        &allowlist::apply(run1.findings, &entries),
        &entries,
    )
    .pretty();
    let json8 = report::lints_json(
        run8.files_scanned,
        &allowlist::apply(run8.findings, &entries),
        &entries,
    )
    .pretty();
    assert_eq!(json1, json8, "lint report differs between 1 and 8 threads");
}
