use dbpal_fuzz::{run_fuzz, FuzzCase, FuzzConfig, SchemaSpec};
use dbpal_schema::{SqlType, Value};

/// The env knob `var` parsed as `T`, or `default` when unset. A set
/// value that does not parse fails the run and names the variable.
fn knob<T: std::str::FromStr>(var: &str, default: T) -> T {
    match std::env::var(var) {
        Ok(raw) => raw
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{var}=`{raw}` does not parse as a decimal number")),
        Err(std::env::VarError::NotPresent) => default,
        Err(e) => panic!("{var}: {e}"),
    }
}

/// A longer seeded fuzz run than the smoke test's budget, printing the
/// first findings. `SEED` and `ITERS` (decimal) pick the seed and the
/// budget:
///
/// ```text
/// ITERS=20000 cargo test --release -p dbpal-fuzz --test explore -- --ignored --nocapture
/// ```
#[test]
#[ignore]
fn explore() {
    let seed: u64 = knob("SEED", 0xDBA1);
    let iters: usize = knob("ITERS", 2000);
    let report = run_fuzz(&FuzzConfig::new(seed, iters, 8));
    println!(
        "== {} findings over {} iters (seed {seed:#x})",
        report.findings.len(),
        iters
    );
    for f in report.findings.iter().take(25) {
        println!("-- iter {} [{}]", f.iteration, f.oracle);
        println!("   sql: {}", f.sql);
        println!("   min: {}", f.minimized);
        println!("   why: {}", f.detail);
    }
}

fn users_tables() -> Vec<(String, Vec<(String, SqlType)>)> {
    vec![(
        "users".into(),
        vec![
            ("id".into(), SqlType::Integer),
            ("score".into(), SqlType::Integer),
            ("label".into(), SqlType::Text),
        ],
    )]
}

fn users_orders_tables() -> Vec<(String, Vec<(String, SqlType)>)> {
    let mut t = users_tables();
    t.push((
        "orders".into(),
        vec![
            ("id".into(), SqlType::Integer),
            ("users_id".into(), SqlType::Integer),
            ("qty".into(), SqlType::Integer),
            ("note".into(), SqlType::Text),
        ],
    ));
    t
}

fn users_rows(n: i64) -> (String, Vec<Vec<Value>>) {
    (
        "users".into(),
        (1..=n)
            .map(|i| vec![Value::Int(i), Value::Int(-i), Value::Text(format!("u{i}"))])
            .collect(),
    )
}

fn orders_rows(n: i64) -> (String, Vec<Vec<Value>>) {
    (
        "orders".into(),
        (1..=n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i),
                    Value::Int(10 + i),
                    Value::Text(format!("o{i}")),
                ]
            })
            .collect(),
    )
}

#[test]
#[ignore]
fn write_corpus() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fuzz_corpus");
    std::fs::create_dir_all(dir).unwrap();
    let cases = vec![
        FuzzCase {
            name: "canonical-having-literal-left".into(),
            oracle: "canonical-pair".into(),
            schema: SchemaSpec {
                tables: users_tables(),
                foreign_keys: vec![],
            },
            rows: vec![users_rows(4)],
            sql: "SELECT score, MAX(label) FROM users GROUP BY score HAVING MAX(id) = -2".into(),
            sql_b: "SELECT MAX(label), score FROM users GROUP BY score HAVING -2 = MAX(id)".into(),
            note: "canonical_pred only anchored Scalar::Column, so a literal-vs-aggregate \
                   HAVING comparison was never flipped and the two spellings canonicalized \
                   differently."
                .into(),
        },
        FuzzCase {
            name: "canonical-star-from-order".into(),
            oracle: "canonical".into(),
            schema: SchemaSpec {
                tables: users_orders_tables(),
                foreign_keys: vec![(
                    "orders".into(),
                    "users_id".into(),
                    "users".into(),
                    "id".into(),
                )],
            },
            rows: vec![users_rows(2), orders_rows(2)],
            sql: "SELECT * FROM users, orders".into(),
            sql_b: String::new(),
            note: "canonicalize unconditionally sorted FROM tables; under SELECT * the \
                   expanded column order follows FROM order, so the canonical query \
                   returned a different result schema."
                .into(),
        },
        FuzzCase {
            name: "canonical-limit-from-order".into(),
            oracle: "canonical".into(),
            schema: SchemaSpec {
                tables: users_orders_tables(),
                foreign_keys: vec![(
                    "orders".into(),
                    "users_id".into(),
                    "users".into(),
                    "id".into(),
                )],
            },
            rows: vec![users_rows(3), orders_rows(2)],
            sql: "SELECT users.id FROM users, orders LIMIT 2".into(),
            sql_b: String::new(),
            note: "canonicalize sorted FROM tables under a LIMIT with no total order; the \
                   set of cross-product rows surviving the limit depends on FROM order, so \
                   the canonical query returned different rows."
                .into(),
        },
    ];
    for case in cases {
        case.replay().expect("regression case must replay green");
        let path = format!("{dir}/{}.json", case.name);
        std::fs::write(&path, case.to_json()).unwrap();
        println!("wrote {path}");
    }
}
