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

use dbpal_lint::{allowlist, lint_workspace, report};

fn check(label: &str, ok: bool, detail: String, failed: &mut bool) {
    if ok {
        println!("[lint_gate] PASS {label}: {detail}");
    } else {
        eprintln!("[lint_gate] FAIL {label}: {detail}");
        *failed = true;
    }
}

fn main() {
    // Anchor on the workspace root regardless of the invocation cwd
    // (cargo bench runs binaries from the package dir, cargo run does
    // not change it).
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let mut failed = false;

    let allow_path = root.join("scripts/lint_allowlist.txt");
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let entries = match allowlist::parse(&allow_text) {
        Ok(entries) => {
            check(
                "allowlist",
                true,
                format!("{} justified entries", entries.len()),
                &mut failed,
            );
            entries
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("[lint_gate] {e}");
            }
            check(
                "allowlist",
                false,
                format!("{} format errors", errors.len()),
                &mut failed,
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

    check(
        "determinism",
        json1 == json8,
        format!(
            "report over {} files byte-identical at 1 and 8 threads",
            run1.files_scanned
        ),
        &mut failed,
    );

    let human = report::render_human(&applied8, &entries);
    if !human.is_empty() {
        eprint!("{human}");
    }
    check(
        "clean",
        applied8.violations.is_empty(),
        format!(
            "{} violations, {} allowlisted findings",
            applied8.violations.len(),
            applied8.allowed.len()
        ),
        &mut failed,
    );
    check(
        "stale",
        applied8.stale().is_empty(),
        format!("{} stale allowlist entries", applied8.stale().len()),
        &mut failed,
    );

    let lints = report::lints_json(run8.files_scanned, &applied8, &entries);
    let out_path = std::env::var("DBPAL_BENCH_JSON").unwrap_or_else(|_| "BENCH_lint.json".into());
    if let Err(e) = dbpal_bench::merge_report_member(Path::new(&out_path), "lint", "lints", lints) {
        check(
            "report",
            false,
            format!("write {out_path}: {e}"),
            &mut failed,
        );
    } else {
        check("report", true, format!("wrote {out_path}"), &mut failed);
    }

    if failed {
        std::process::exit(1);
    }
}
