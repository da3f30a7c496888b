//! CI gate for multi-tenant serving: drives the seeded three-tenant
//! fixture workload plus two targeted scenarios and asserts
//!
//! 1. **mixed-tenant determinism** — the deterministic metrics export
//!    (per-tenant counters included) is byte-identical at 1 and 8
//!    workers for the interleaved workload;
//! 2. **quota-shed exactness** — a tenant driven past its admission
//!    quota sheds *exactly* its over-quota tail as typed
//!    `TenantOverloaded` errors while every neighbor item succeeds;
//! 3. **shard-scoped hot-swap** — `replace_tenant` drops exactly the
//!    swapped tenant's cache entries; the neighbors' entries still hit.
//!
//! The workload run is timed through the shared bench harness (group
//! `tenant`); the per-tenant traffic tallies are merged into the bench
//! report as a `tenants` member, which `bench_json_lint` requires for
//! this group.

use std::path::PathBuf;

use dbpal_runtime::Nlidb;
use dbpal_serve::testing::{
    clinic_db, hospital_db, hospital_script, tenant_registry, tenant_workload, ScriptedModel,
};
use dbpal_serve::{QueryService, ServeConfig, ServeError, TenantRegistry};
use dbpal_util::bench::{Config, Harness};
use dbpal_util::Json;

const WORKLOAD_SEED: u64 = 0x7E4A7;
const WORKLOAD_LEN: usize = 150;
const BATCH: usize = 15;
const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

fn check(label: &str, ok: bool, detail: String, failed: &mut bool) {
    if ok {
        println!("[tenant_gate] PASS {label}: {detail}");
    } else {
        eprintln!("[tenant_gate] FAIL {label}: {detail}");
        *failed = true;
    }
}

/// Drive the seeded workload through a fresh three-tenant service.
fn run(workers: usize, items: &[(String, String)]) -> QueryService<ScriptedModel> {
    let svc = QueryService::with_tenants(
        tenant_registry(),
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    );
    for batch in items.chunks(BATCH) {
        for ((tenant, q), result) in batch.iter().zip(svc.submit_tagged(batch)) {
            if let Err(e) = result {
                eprintln!("[tenant_gate] FAIL: `{q}` for tenant `{tenant}` errored: {e}");
                std::process::exit(1);
            }
        }
    }
    svc
}

/// Per-tenant traffic tallies from a finished run, in registration
/// order — the rows of the bench report's `tenants` member.
fn tenant_stats(svc: &QueryService<ScriptedModel>) -> Vec<(String, [u64; 4])> {
    TENANTS
        .iter()
        .map(|t| {
            let c = |suffix: &str| {
                svc.metrics()
                    .counter(&format!("serve.tenant.{t}.{suffix}"))
                    .get()
            };
            (
                t.to_string(),
                [c("queries"), c("cache.hit"), c("cache.miss"), c("shed")],
            )
        })
        .collect()
}

/// The `tenants` member of the bench report: one row per tenant.
fn tenants_json(stats: &[(String, [u64; 4])]) -> Json {
    let rows = stats
        .iter()
        .map(|(tenant, [queries, hits, misses, sheds])| {
            Json::Obj(vec![
                ("tenant".into(), Json::str(tenant.clone())),
                ("queries".into(), Json::Num(*queries as f64)),
                ("hits".into(), Json::Num(*hits as f64)),
                ("misses".into(), Json::Num(*misses as f64)),
                ("sheds".into(), Json::Num(*sheds as f64)),
            ])
        })
        .collect();
    Json::Arr(rows)
}

fn main() {
    let items = tenant_workload(WORKLOAD_SEED, WORKLOAD_LEN);
    println!(
        "[tenant_gate] seed {WORKLOAD_SEED:#x}, {} queries over {} tenants in batches of {BATCH}",
        items.len(),
        TENANTS.len()
    );
    let mut failed = false;

    // Timed canonical run (the harness may re-execute for calibration,
    // so assertions read the separate runs below).
    let mut harness = Harness::with_config("tenant", Config::from_args());
    harness.bench(&format!("mixed_{}_queries_3_tenants", items.len()), || {
        run(1, &items)
    });
    for m in harness.results() {
        let secs = m.median.as_secs_f64();
        let rate = if secs > 0.0 {
            items.len() as f64 / secs
        } else {
            f64::INFINITY
        };
        println!("[tenant_gate] {}: {rate:.0} queries/sec", m.name);
    }

    // 1. Mixed-tenant determinism across worker counts.
    let svc_one = run(1, &items);
    let svc_eight = run(8, &items);
    let json_one = svc_one.metrics().to_json_deterministic().pretty();
    let json_eight = svc_eight.metrics().to_json_deterministic().pretty();
    check(
        "determinism",
        json_one == json_eight,
        if json_one == json_eight {
            "metrics byte-identical at 1 and 8 workers".into()
        } else {
            format!("-- 1 worker --\n{json_one}\n-- 8 workers --\n{json_eight}")
        },
        &mut failed,
    );
    let stats = tenant_stats(&svc_one);
    let mut covered = 0u64;
    for (tenant, [queries, hits, misses, sheds]) in &stats {
        println!(
            "[tenant_gate] tenant {tenant}: {queries} queries, {hits} hits / {misses} misses, {sheds} sheds"
        );
        check(
            &format!("tenant_{tenant}_counters"),
            hits + misses == *queries && *sheds == 0 && *queries > 0,
            format!("{hits}+{misses} vs {queries} queries, {sheds} sheds"),
            &mut failed,
        );
        covered += queries;
    }
    check(
        "tenant_sum",
        covered == items.len() as u64,
        format!("{covered} per-tenant queries vs {} submitted", items.len()),
        &mut failed,
    );

    // 2. Quota-shed exactness: alpha capped at 3 in a 4-alpha batch.
    let quota = 3usize;
    let registry = TenantRegistry::new()
        .register_with_quota("alpha", Nlidb::new(hospital_db(), hospital_script()), quota)
        .register("beta", Nlidb::new(clinic_db(), hospital_script()));
    let svc = QueryService::with_tenants(registry, ServeConfig::default());
    let mixed: Vec<(String, String)> = (0..8)
        .map(|i| {
            let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
            (
                tenant.to_string(),
                "How many patients have influenza?".to_string(),
            )
        })
        .collect();
    let results = svc.submit_tagged(&mixed);
    let alpha_sheds = results
        .iter()
        .filter(
            |r| matches!(r, Err(ServeError::TenantOverloaded { tenant, .. }) if tenant == "alpha"),
        )
        .count();
    let beta_ok = mixed
        .iter()
        .zip(&results)
        .filter(|((t, _), r)| t == "beta" && r.is_ok())
        .count();
    check(
        "quota_sheds",
        alpha_sheds == 4 - quota && results[..2 * quota - 1].iter().all(|r| r.is_ok()),
        format!("alpha shed {alpha_sheds} of 4 (quota {quota}), head clean"),
        &mut failed,
    );
    check(
        "neighbor_unaffected",
        beta_ok == 4,
        format!("{beta_ok}/4 beta items succeeded beside the noisy tenant"),
        &mut failed,
    );

    // 3. Shard-scoped hot-swap over the warmed workload service.
    let alpha_before = svc_one.tenant_cache_len("alpha").unwrap();
    let beta_before = svc_one.tenant_cache_len("beta").unwrap();
    let dropped = svc_one
        .replace_tenant("alpha", clinic_db())
        .expect("alpha is registered");
    let warm_beta = svc_one
        .answer_for("beta", "How many patients have influenza?")
        .expect("beta still serves");
    check(
        "shard_scoped_swap",
        dropped == alpha_before
            && svc_one.tenant_cache_len("alpha") == Some(0)
            && svc_one.tenant_cache_len("beta") == Some(beta_before)
            && warm_beta.cache_hit,
        format!(
            "swap dropped {dropped}/{alpha_before} alpha entries; beta kept {beta_before} and still hits"
        ),
        &mut failed,
    );

    harness.finish();
    let path = PathBuf::from(
        std::env::var("DBPAL_BENCH_JSON").unwrap_or_else(|_| "BENCH_tenant.json".into()),
    );
    match dbpal_bench::merge_report_member(&path, "tenant", "tenants", tenants_json(&stats)) {
        Ok(()) => println!(
            "[tenant_gate] merged `tenants` section into {}",
            path.display()
        ),
        Err(e) => {
            eprintln!(
                "[tenant_gate] FAIL: could not write {}: {e}",
                path.display()
            );
            failed = true;
        }
    }

    if failed {
        eprintln!("[tenant_gate] FAIL");
        std::process::exit(1);
    }
    println!("[tenant_gate] all multi-tenant serving checks passed");
}
