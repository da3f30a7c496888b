//! CI gate for workspace static analysis: runs `dbpal-lint` over every
//! source file under `crates/*/src` and `src/`, applies the justified
//! allowlist, and asserts
//!
//! 1. **clean workspace** — zero findings outside the committed
//!    allowlist (`scripts/lint_allowlist.txt`); every violation prints
//!    with its `L###` code and `file:line:col` span;
//! 2. **no dead allowlist weight** — every allowlist entry matches at
//!    least one finding; stale entries fail so the file only shrinks;
//! 3. **determinism** — the linter obeys the contract it enforces: the
//!    JSON report built from a 1-thread run and an 8-thread run must be
//!    byte-identical.
//!
//! The report is written as `BENCH_lint.json` (group `lint`) with the
//! `lints` member `bench_json_lint` requires for this group.

use std::path::Path;

use dbpal_bench::Gate;
use dbpal_lint::{allowlist, lint_workspace, report};

fn main() {
    let mut gate = Gate::from_args("lint_gate");
    // Anchor on the workspace root regardless of the invocation cwd
    // (cargo bench runs binaries from the package dir, cargo run does
    // not change it).
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");

    let allow_path = root.join("scripts/lint_allowlist.txt");
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let entries = match allowlist::parse(&allow_text) {
        Ok(entries) => {
            gate.check(
                "allowlist",
                true,
                format!("{} justified entries", entries.len()),
            );
            entries
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("[lint_gate] {e}");
            }
            gate.check(
                "allowlist",
                false,
                format!("{} format errors", errors.len()),
            );
            Vec::new()
        }
    };

    let run1 = lint_workspace(&root, 1);
    let run8 = lint_workspace(&root, 8);

    let applied1 = allowlist::apply(run1.findings, &entries);
    let applied8 = allowlist::apply(run8.findings, &entries);
    let json1 = report::lints_json(run1.files_scanned, &applied1, &entries).pretty();
    let json8 = report::lints_json(run8.files_scanned, &applied8, &entries).pretty();

    gate.check(
        "determinism",
        json1 == json8,
        format!(
            "report over {} files byte-identical at 1 and 8 threads",
            run1.files_scanned
        ),
    );

    let human = report::render_human(&applied8, &entries);
    if !human.is_empty() {
        eprint!("{human}");
    }
    gate.check(
        "clean",
        applied8.violations.is_empty(),
        format!(
            "{} violations, {} allowlisted findings",
            applied8.violations.len(),
            applied8.allowed.len()
        ),
    );
    gate.check(
        "stale",
        applied8.stale().is_empty(),
        format!("{} stale allowlist entries", applied8.stale().len()),
    );

    let lints = report::lints_json(run8.files_scanned, &applied8, &entries);
    gate.publish("lint", "lints", lints);
    gate.finish();
}
