//! Connection churn: a connection's thread, and with it the thread's
//! stack, ends with the connection, so a long run of short connections
//! leaves the server's address space flat. The file holds one test, so
//! it runs in a process of its own and no other test's threads move the
//! count.

use dbpal_runtime::Nlidb;
use dbpal_serve::net::{serve, Client, QueryOutcome, ServerConfig};
use dbpal_serve::testing::{hospital_db, hospital_script};
use dbpal_serve::{QueryService, ServeConfig};

/// Sequential one-question connections after the first.
const CONNECTIONS: u64 = 500;

/// Mapped regions of this process, one line each in `/proc/self/maps`;
/// a thread stack that outlives its thread keeps two (stack and guard
/// page). `None` where the platform has no procfs.
fn mapped_regions() -> Option<usize> {
    let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
    Some(maps.lines().count())
}

#[test]
fn sequential_connections_leave_the_mappings_flat() {
    let service = QueryService::new(
        Nlidb::new(hospital_db(), hospital_script()),
        ServeConfig::default(),
    );
    let handle = serve(service, ServerConfig::default()).expect("bind");
    let addr = handle.addr();
    let ask = || {
        let mut client = Client::connect(addr).expect("connect");
        let outcomes = client
            .query(&["Show the name of all patients".to_string()])
            .expect("query");
        assert!(
            matches!(outcomes[..], [QueryOutcome::Answer { .. }]),
            "{outcomes:?}"
        );
    };

    // The accept thread and a first connection thread have run.
    ask();
    let Some(before) = mapped_regions() else {
        handle.shutdown();
        return;
    };
    for _ in 0..CONNECTIONS {
        ask();
    }
    let after = mapped_regions().expect("procfs was readable before");
    let report = handle.shutdown();
    assert_eq!(report.connections, CONNECTIONS + 1);
    assert!(
        after.saturating_sub(before) < 100,
        "{CONNECTIONS} closed connections took the mappings from {before} to {after} lines"
    );
}
