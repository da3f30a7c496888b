//! One benchmark command for DBPal's two systems: the runtime NLIDB
//! served over TCP (`serve_repeat`, `serve_paraphrase`) and streamed
//! training-corpus production (`corpus_stream`).
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_repeat --seed 1 --seconds 24 --trace 0
//! ```
//!
//! Progress goes to stderr. Stdout carries a run stamp line and, last,
//! one JSON object: `correct`, `attempted`, `failed`, and `metrics` —
//! the end-to-end metrics, or with `--trace 1` the per-layer ones from
//! a replay of the same inputs through each layer's public calls. The
//! whole run (both metric sets, checks, digests) is also filed under
//! `.bench_out/`. README.md records why each workload and metric exists.

mod answers;
mod corpus;
mod host;
mod loadgen;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use dbpal_util::Json;

use report::Outcome;

/// Where results, spans, and the corpus workload's JSONL file go,
/// relative to the directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 3] = ["serve_repeat", "serve_paraphrase", "corpus_stream"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 24,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    // Serve runs split the time into six slices of at least one whole
    // second each.
    if !(6..=600).contains(&args.seconds) {
        return Err("--seconds must be between 6 and 600".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("e2ebench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let stamp = Json::Obj(vec![
        ("workload".into(), Json::str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds as f64)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::Num(host::nproc() as f64)),
        ("profile".into(), Json::str(host::build_profile())),
        ("commit".into(), Json::str(host::commit())),
    ]);
    eprintln!("[e2ebench] {}", stamp.compact());

    let mut out = Outcome::new(out_dir, stem);
    out.layers.set("host.nproc", host::nproc() as f64);
    let ran = match args.workload.as_str() {
        "serve_repeat" => {
            serve::run(serve::Kind::Repeat, &args, &mut out);
            Ok(())
        }
        "serve_paraphrase" => {
            serve::run(serve::Kind::Paraphrase, &args, &mut out);
            Ok(())
        }
        _ => corpus::run(&args, &mut out),
    };
    if let Err(e) = ran {
        eprintln!("e2ebench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    match out.file(&stamp) {
        Ok(path) => eprintln!("[e2ebench] filed {}", path.display()),
        Err(e) => eprintln!("[e2ebench] could not file the run: {e}"),
    }
    println!("stamp {}", stamp.compact());
    println!("{}", out.result_line(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_paraphrase --seed 42 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_paraphrase", 42, 20, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload corpus_stream --trace 2")).is_err());
        assert!(parse_args(&argv("--workload corpus_stream --seed")).is_err());
        assert!(parse_args(&argv("--workload corpus_stream --seconds 5")).is_err());
        assert!(parse_args(&argv("--workload corpus_stream --bogus 1")).is_err());
    }
}
