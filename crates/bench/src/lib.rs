//! Shared output formatting for the experiment binaries, and the
//! [`Gate`] harness the CI gate binaries run under.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper; see DESIGN.md's experiment index and EXPERIMENTS.md for the
//! paper-vs-measured record.

use std::fmt::{Display, Write as _};
use std::io;
use std::path::Path;
use std::process::exit;
use std::str::FromStr;

use dbpal_util::Json;

pub mod compare;
pub mod loadgen;

/// Insert (or replace) the `member` of the bench report at `path`,
/// keeping every other member — the harness-written `group` and
/// `benchmarks` included. A missing file becomes a minimal report for
/// `group` with no benchmarks. Any other read error, a file that does
/// not parse, or one that is not a JSON object fails with
/// [`io::ErrorKind::InvalidData`] and leaves the file as it was:
/// replacing it would silently drop every benchmark row.
pub fn merge_report_member(path: &Path, group: &str, member: &str, value: Json) -> io::Result<()> {
    let invalid = |why: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {why}", path.display()),
        )
    };
    let mut members = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => vec![
            ("group".into(), Json::str(group)),
            ("benchmarks".into(), Json::Arr(vec![])),
        ],
        Err(e) => return Err(invalid(format!("unreadable: {e}"))),
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Obj(members)) => members,
            Ok(_) => return Err(invalid("not a JSON object".into())),
            Err(e) => return Err(invalid(format!("does not parse: {e}"))),
        },
    };
    members.retain(|(k, _)| k != member);
    members.push((member.into(), value));
    std::fs::write(path, Json::Obj(members).pretty() + "\n")
}

/// The harness every CI gate binary runs under: `--quick`-only argument
/// parsing, strict env knobs, `PASS`/`FAIL` lines, report publishing,
/// and the exit status (0 pass, 1 a failed check, 2 a usage error).
pub struct Gate {
    name: &'static str,
    quick: bool,
    failed: bool,
}

impl Gate {
    /// Start the gate `name` from this process's command line, whose
    /// only argument is `--quick`: anything else prints a usage line
    /// and exits 2.
    pub fn from_args(name: &'static str) -> Self {
        let mut gate = Gate::new(name);
        for arg in std::env::args().skip(1) {
            if arg != "--quick" {
                eprintln!("[{name}] unknown argument `{arg}`\nusage: {name} [--quick]");
                exit(2);
            }
            gate.quick = true;
        }
        gate
    }

    /// Start `name` for a binary that parses its own command line.
    pub fn new(name: &'static str) -> Self {
        Gate {
            name,
            quick: false,
            failed: false,
        }
    }

    /// Whether `--quick` selected the reduced CI profile.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// The env knob `var` parsed as `T`, or `default` when unset. A set
    /// value that does not parse exits 2 before any work is done: a
    /// typo must never fall back to the default silently.
    pub fn env<T: FromStr>(&self, var: &str, default: T) -> T
    where
        T::Err: Display,
    {
        let Some(raw) = std::env::var_os(var) else {
            return default;
        };
        let raw = raw.to_string_lossy();
        raw.trim().parse().unwrap_or_else(|e| {
            eprintln!("[{}] FAIL {var}=`{raw}`: {e}", self.name);
            exit(2)
        })
    }

    /// Record one named check as a `PASS` or `FAIL` line.
    pub fn check(&mut self, label: &str, ok: bool, detail: impl Display) {
        if ok {
            println!("[{}] PASS {label}: {detail}", self.name);
        } else {
            eprintln!("[{}] FAIL {label}: {detail}", self.name);
            self.failed = true;
        }
    }

    /// Stop on an error that leaves nothing to check: exit 1.
    pub fn abort(&self, detail: impl Display) -> ! {
        eprintln!("[{}] FAIL {detail}", self.name);
        exit(1)
    }

    /// Merge `value` as the `member` of the `group` bench report at
    /// `$DBPAL_BENCH_JSON`, or `BENCH_<group>.json` in the working
    /// directory. A failed write is a failed check.
    pub fn publish(&mut self, group: &str, member: &str, value: Json) {
        let path =
            std::env::var("DBPAL_BENCH_JSON").unwrap_or_else(|_| format!("BENCH_{group}.json"));
        let written = merge_report_member(Path::new(&path), group, member, value);
        let detail = match &written {
            Ok(()) => format!("merged `{member}` into {path}"),
            Err(e) => format!("could not write {path}: {e}"),
        };
        self.check("report", written.is_ok(), detail);
    }

    /// Exit 1 if any check failed, 0 otherwise.
    pub fn finish(self) -> ! {
        if self.failed {
            eprintln!("[{}] FAIL", self.name);
            exit(1);
        }
        println!("[{}] OK", self.name);
        exit(0)
    }
}

/// Render an aligned text table: a header row plus data rows.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:<width$}", width = widths[i]);
        }
        out.push('\n');
    };
    write_row(&mut out, header);
    let total: usize = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// Format an accuracy as the paper prints it (three decimals).
pub fn acc(a: f64) -> String {
    format!("{a:.3}")
}

/// Render a text histogram: one row per bin with `#` bars.
pub fn render_histogram(bins: &[(f64, usize)], max_width: usize) -> String {
    let max_count = bins.iter().map(|(_, c)| *c).max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (edge, count) in bins {
        let bar = "#".repeat(count * max_width / max_count);
        let _ = writeln!(out, "{edge:>6.3} | {bar} {count}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let header = vec!["Algorithm".to_string(), "Overall".to_string()];
        let rows = vec![
            vec!["SyntaxSQLNet".to_string(), "0.248".to_string()],
            vec!["DBPal (Full)".to_string(), "0.317".to_string()],
        ];
        let t = render_table(&header, &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Algorithm"));
        assert!(lines[3].contains("0.317"));
    }

    #[test]
    fn merge_preserves_benchmarks_and_replaces_load() {
        let dir = std::env::temp_dir().join("dbpal-bench-merge-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serve.json");
        std::fs::write(
            &path,
            r#"{"group":"serve","benchmarks":[{"name":"x","median_ns":1,"min_ns":1,"max_ns":1,"iters_per_sample":1,"samples":1}]}"#,
        )
        .unwrap();
        let report = loadgen::LoadReport {
            clients: 4,
            batch: 4,
            warmup_requests: 32,
            measured_requests: 160,
            queries: 640,
            qps: 1234.5,
            p50_ns: 10,
            p95_ns: 20,
            p99_ns: 30,
            protocol_errors: 0,
            answer_mismatches: 0,
            sheds: 0,
            digest: "deadbeefdeadbeef".into(),
        };
        merge_report_member(&path, "serve", "load", report.to_json()).unwrap();
        merge_report_member(&path, "serve", "load", report.to_json()).unwrap(); // idempotent replace
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("group").and_then(Json::as_str), Some("serve"));
        assert_eq!(
            doc.get("benchmarks").and_then(Json::as_arr).unwrap().len(),
            1
        );
        assert!(
            matches!(&doc, Json::Obj(m) if m.len() == 3),
            "one `load` member"
        );
        let load = doc.get("load").expect("load member");
        assert_eq!(load.get("queries").and_then(Json::as_i64), Some(640));
        assert_eq!(
            load.get("digest").and_then(Json::as_str),
            Some("deadbeefdeadbeef")
        );

        // A missing file starts a minimal report for the group.
        let fresh = dir.join("BENCH_missing.json");
        let _ = std::fs::remove_file(&fresh);
        merge_report_member(&fresh, "lint", "lints", Json::Arr(vec![])).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&fresh).unwrap()).unwrap();
        assert_eq!(doc.get("group").and_then(Json::as_str), Some("lint"));
        assert_eq!(
            doc.get("benchmarks").and_then(Json::as_arr).unwrap().len(),
            0
        );
        assert!(doc.get("lints").is_some());

        // A report that does not parse, or is not an object, is an
        // error and stays byte-for-byte as it was.
        for (name, text) in [
            (
                "BENCH_truncated.json",
                r#"{"group":"serve","benchmarks":[{"name""#,
            ),
            ("BENCH_array.json", "[1, 2, 3]\n"),
        ] {
            let bad = dir.join(name);
            std::fs::write(&bad, text).unwrap();
            let err = merge_report_member(&bad, "serve", "load", report.to_json()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
            assert_eq!(std::fs::read_to_string(&bad).unwrap(), text, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn histogram_renders_counts() {
        let h = render_histogram(&[(0.4, 2), (0.5, 6)], 12);
        assert!(h.contains("0.400"));
        assert!(h.contains("############ 6"));
    }

    #[test]
    fn acc_formatting() {
        assert_eq!(acc(0.2484), "0.248");
    }
}
