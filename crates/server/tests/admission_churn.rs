//! Admission fairness under tenant churn: many threads admit, block, shed,
//! and release against a small cap while tenants come and go. Whatever the
//! interleaving, quiescence must leave no slot leaked — zero active, zero
//! waiting, and **zero tracked tenants** (a leaked per-tenant entry is how a
//! long-lived server slowly locks a tenant out).

use alexander_server::Admission;
use proptest::prelude::*;
use std::sync::Arc;

/// Cheap thread-local xorshift so worker schedules differ per case without
/// a `rand` dependency.
fn step(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Runs `threads` workers doing `ops` mixed admissions each, then asserts
/// the admission gate drained completely.
fn churn(threads: usize, global_cap: usize, tenant_cap: usize, max_queue: usize, seed: u64) {
    const OPS: usize = 60;
    let adm = Arc::new(Admission::new(global_cap, tenant_cap, max_queue));
    let tenants = ["alpha", "beta", "gamma", "delta", "omega"];
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let adm = adm.clone();
            std::thread::spawn(move || {
                let mut rng = seed
                    .wrapping_add(t as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut admitted = 0usize;
                let mut shed = 0usize;
                for _ in 0..OPS {
                    let tenant = tenants[(step(&mut rng) % tenants.len() as u64) as usize];
                    match step(&mut rng) % 3 {
                        // Block until a slot frees (the query path's shape
                        // when the queue has room).
                        0 => {
                            let g = adm.admit(tenant).or_else(|_| adm.admit(tenant));
                            match g {
                                Ok(_g) => {
                                    admitted += 1;
                                    std::thread::yield_now();
                                }
                                Err(b) => {
                                    shed += 1;
                                    std::thread::sleep(std::time::Duration::from_millis(
                                        b.retry_after_ms.min(2),
                                    ));
                                }
                            }
                        }
                        // Hold the slot across a yield, giving up at the
                        // first shed.
                        1 => match adm.admit(tenant) {
                            Ok(_g) => {
                                std::thread::yield_now();
                                admitted += 1;
                            }
                            Err(_) => shed += 1,
                        },
                        // Opportunistic: release at once, give up when shed.
                        _ => {
                            if adm.admit(tenant).is_ok() {
                                admitted += 1;
                            }
                        }
                    }
                }
                (admitted, shed)
            })
        })
        .collect();

    let mut admitted = 0usize;
    for w in workers {
        let (a, _) = w.join().expect("worker");
        admitted += a;
    }
    assert!(admitted > 0, "the gate must have admitted someone");

    // Quiescence: every slot returned, every queue entry gone, and — the
    // leak this test exists for — every per-tenant count evicted.
    assert_eq!(adm.active(), 0, "active slots leaked");
    assert_eq!(adm.waiting(), 0, "queue entries leaked");
    assert_eq!(adm.tracked_tenants(), 0, "per-tenant slots leaked");

    // The gate still works after the storm: a full cap's worth of admits.
    let guards: Vec<_> = (0..global_cap.min(tenant_cap))
        .map(|_| adm.admit("after").expect("fresh admits"))
        .collect();
    assert_eq!(adm.active(), guards.len());
    drop(guards);
    assert_eq!(adm.active(), 0);
    assert_eq!(adm.tracked_tenants(), 0);
}

proptest! {
    // Threads are real OS threads: keep the case count modest and the
    // per-case work bounded.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn four_threads_never_leak_slots(
        global_cap in 1usize..4,
        tenant_cap in 1usize..4,
        max_queue in 0usize..6,
        seed in 0u64..u64::MAX,
    ) {
        churn(4, global_cap, tenant_cap, max_queue, seed);
    }

    #[test]
    fn eight_threads_never_leak_slots(
        global_cap in 1usize..6,
        tenant_cap in 1usize..6,
        max_queue in 0usize..8,
        seed in 0u64..u64::MAX,
    ) {
        churn(8, global_cap, tenant_cap, max_queue, seed);
    }
}
