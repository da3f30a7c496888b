//! Property battery for the persistent [`WorkerPool`]: the pool must be
//! observationally identical to the scoped-spawn path at every thread
//! count, stay reusable across calls, and contain panics without
//! poisoning itself. Seeded `forall!` cases (honoring
//! `DBPAL_CHECK_CASES`) drive randomized shapes; the fixed tables pin
//! the degenerate ones.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dbpal_util::{forall, par_map_indexed, ParStrategy, WorkerPool};

/// A mapping whose output encodes both the item and its index, so any
/// reordering or slot mixup changes the bytes.
fn tag(i: usize, x: u64) -> u64 {
    (i as u64) << 32 | x.wrapping_mul(0x9E37_79B9)
}

#[test]
fn pool_matches_scoped_on_random_shapes() {
    let pool = WorkerPool::new(8);
    forall!(|rng| {
        let len = rng.gen_range(0usize..200);
        let items: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..1 << 20)).collect();
        for threads in [1usize, 2, 8] {
            let pooled = pool.map_indexed(&items, threads, |i, &x| tag(i, x));
            let scoped = par_map_indexed(&items, threads, |i, &x| tag(i, x));
            assert_eq!(pooled, scoped, "len {len}, threads {threads}");
        }
    });
}

#[test]
fn strategies_agree_on_random_shapes() {
    let pool = Arc::new(WorkerPool::new(4));
    let strategies = [
        ParStrategy::GlobalPool,
        ParStrategy::Pool(Arc::clone(&pool)),
        ParStrategy::Scoped,
    ];
    forall!(cases = 16, |rng| {
        let len = rng.gen_range(0usize..64);
        let items: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..1000)).collect();
        let threads = rng.gen_range(1usize..9);
        let expect: Vec<u64> = items.iter().enumerate().map(|(i, &x)| tag(i, x)).collect();
        for strategy in &strategies {
            let got = strategy.map_indexed(&items, threads, |i, &x| tag(i, x));
            assert_eq!(got, expect, "strategy {strategy:?}, threads {threads}");
        }
    });
}

#[test]
fn reuse_keeps_results_stable_across_many_calls() {
    // One pool, many sequential jobs of varying width: helper threads
    // must park and rejoin cleanly every time, with no state bleeding
    // between jobs.
    let pool = WorkerPool::new(4);
    for round in 0..50u64 {
        let len = (round as usize * 7) % 90;
        let items: Vec<u64> = (0..len as u64).collect();
        let threads = [1, 2, 8][round as usize % 3];
        let out = pool.map_indexed(&items, threads, |i, &x| tag(i, x + round));
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| tag(i, x + round))
            .collect();
        assert_eq!(out, expect, "round {round}");
    }
}

#[test]
fn degenerate_shapes_table() {
    // (items, threads): zero items, fewer items than threads, exactly
    // one item, threads = 0 (auto), threads beyond pool size.
    let pool = WorkerPool::new(4);
    let cases: &[(usize, usize)] = &[(0, 1), (0, 8), (1, 8), (3, 8), (5, 2), (4, 0), (16, 64)];
    for &(len, threads) in cases {
        let items: Vec<u64> = (0..len as u64).collect();
        let expect: Vec<u64> = items.iter().enumerate().map(|(i, &x)| tag(i, x)).collect();
        let got = pool.map_indexed(&items, threads, |i, &x| tag(i, x));
        assert_eq!(got, expect, "items {len}, threads {threads}");
    }
}

#[test]
fn every_item_visited_exactly_once() {
    let pool = WorkerPool::new(8);
    forall!(cases = 16, |rng| {
        let len = rng.gen_range(1usize..150);
        let counts: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..len).collect();
        let threads = rng.gen_range(1usize..9);
        pool.map_indexed(&items, threads, |i, _| {
            counts[i].fetch_add(1, Ordering::Relaxed)
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i} visit count");
        }
    });
}

#[test]
fn typed_panic_surfaces_and_pool_stays_usable() {
    let pool = WorkerPool::new(4);
    let items: Vec<u32> = (0..128).collect();
    for round in 0..3 {
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(&items, 8, |_, &x| {
                if x == 77 {
                    panic!("poisoned item in round {round}");
                }
                x
            })
        }))
        .unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("formatted payload");
        assert!(msg.contains("poisoned item"), "round {round}: {msg}");
        // Immediately after containment, a clean job must succeed.
        let ok = pool.map_indexed(&items, 8, |i, &x| tag(i, u64::from(x)));
        assert_eq!(ok.len(), items.len(), "round {round}");
    }
}

#[test]
fn unwinding_panic_carries_original_payload() {
    let pool = WorkerPool::new(4);
    let items: Vec<u32> = (0..32).collect();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.map_indexed(&items, 4, |_, &x| {
            if x == 5 {
                panic!("original payload text");
            }
            x
        })
    }))
    .unwrap_err();
    let msg = caught
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| caught.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("original payload text"), "payload: {msg}");
}

#[test]
fn concurrent_external_callers_never_deadlock() {
    // Two threads hammer one pool; whichever loses the install race
    // runs its items inline and must still produce order-preserving
    // results.
    let pool = Arc::new(WorkerPool::new(4));
    let threads: Vec<_> = (0..2)
        .map(|t| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for round in 0..20u64 {
                    let items: Vec<u64> = (0..60).collect();
                    let out = pool.map_indexed(&items, 4, |i, &x| tag(i, x + t + round));
                    let expect: Vec<u64> = items
                        .iter()
                        .enumerate()
                        .map(|(i, &x)| tag(i, x + t + round))
                        .collect();
                    assert_eq!(out, expect);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

#[test]
fn nested_call_runs_inline_on_the_calling_worker() {
    // A call nested inside one of the pool's own jobs finds the install
    // slot taken: every nested item must run on the thread that made
    // the call (no spawning), and come back in input order.
    let pool = WorkerPool::new(4);
    let outer: Vec<u64> = (0..8).collect();
    let nested: Vec<u64> = (0..16).collect();
    pool.map_indexed(&outer, 4, |_, &x| {
        let caller = std::thread::current().id();
        let out = pool.map_indexed(&nested, 4, |i, &y| {
            (std::thread::current().id(), tag(i, y + x))
        });
        let expect: Vec<u64> = nested
            .iter()
            .enumerate()
            .map(|(i, &y)| tag(i, y + x))
            .collect();
        assert_eq!(out.iter().map(|&(_, v)| v).collect::<Vec<_>>(), expect);
        for (i, (id, _)) in out.iter().enumerate() {
            assert_eq!(
                *id, caller,
                "outer item {x}: nested item {i} left the calling thread"
            );
        }
    });
}
