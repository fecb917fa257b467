//! Admission control: a global concurrency cap, per-tenant fairness, and a
//! bounded wait queue that sheds overload instead of queueing it.
//!
//! Every query holds an [`AdmissionGuard`] while it executes. The global
//! cap bounds total concurrent evaluation (queries are CPU-bound; running
//! more than the machine can schedule only adds latency), and the tenant
//! cap keeps any single tenant at a fixed share of it, so one tenant
//! hammering recursive queries leaves headroom for everyone else.
//!
//! When every slot is taken, arrivals wait on a condvar — but only
//! `max_queue` of them. Beyond that the controller *sheds*: [`Admission::admit`]
//! returns [`Busy`] immediately with a retry-after hint scaled by how deep
//! the queue already is, and the caller answers `ERR BUSY
//! retry-after-ms=<hint>` so clients back off instead of piling ever more
//! latency onto a saturated server. Waiters are re-admitted in whatever
//! order the OS wakes them — fairness here is the *cap*, not FIFO ordering.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Base of the retry-after hint a shed request carries, in milliseconds;
/// [`Admission::admit`] scales it by queue depth.
pub const RETRY_AFTER_BASE_MS: u64 = 25;

/// Ceiling of the retry-after hint, in milliseconds.
const RETRY_AFTER_MAX_MS: u64 = 10_000;

#[derive(Debug, Default)]
struct Counts {
    active: usize,
    /// Admitted-but-capped callers currently blocked on the condvar.
    waiting: usize,
    per_tenant: HashMap<String, usize>,
}

/// Returned (not thrown) when the wait queue is full: the request was shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Busy {
    /// Suggested client-side backoff before retrying, in milliseconds.
    /// Scales with queue depth at shed time; clients should jitter it.
    pub retry_after_ms: u64,
}

/// The shared admission state (see module docs).
#[derive(Debug)]
pub struct Admission {
    global_cap: usize,
    tenant_cap: usize,
    /// Waiters beyond this are shed with [`Busy`].
    max_queue: usize,
    counts: Mutex<Counts>,
    freed: Condvar,
    shed: AtomicU64,
}

impl Admission {
    /// Caps are clamped to at least 1, and the tenant cap to at most the
    /// global cap (a tenant can never use more than everything).
    /// `max_queue` may be 0: full means shed immediately.
    pub fn new(global_cap: usize, tenant_cap: usize, max_queue: usize) -> Admission {
        let global_cap = global_cap.max(1);
        Admission {
            global_cap,
            tenant_cap: tenant_cap.clamp(1, global_cap),
            max_queue,
            counts: Mutex::new(Counts::default()),
            freed: Condvar::new(),
            shed: AtomicU64::new(0),
        }
    }

    /// Admits `tenant` or sheds. If a slot is free the call returns at once;
    /// if the server is saturated it waits on the bounded queue; if the
    /// queue is full too, it returns [`Busy`] with a retry-after hint
    /// instead of queueing unbounded latency.
    /// Dropping the guard frees the slot and wakes waiters.
    pub fn admit(&self, tenant: &str) -> Result<AdmissionGuard<'_>, Busy> {
        let mut c = self.counts.lock().expect("admission lock");
        let mut queued = false;
        loop {
            let tenant_active = c.per_tenant.get(tenant).copied().unwrap_or(0);
            if c.active < self.global_cap && tenant_active < self.tenant_cap {
                break;
            }
            if !queued {
                if c.waiting >= self.max_queue {
                    let hint = self.retry_hint(c.waiting);
                    drop(c);
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(Busy {
                        retry_after_ms: hint,
                    });
                }
                c.waiting += 1;
                queued = true;
            }
            c = self.freed.wait(c).expect("admission lock");
        }
        if queued {
            c.waiting -= 1;
        }
        c.active += 1;
        *c.per_tenant.entry(tenant.to_string()).or_insert(0) += 1;
        Ok(AdmissionGuard {
            admission: self,
            tenant: tenant.to_string(),
        })
    }

    /// The retry hint for a shed request: the base scaled by how many
    /// global-cap "rounds" of work are already queued ahead of it.
    fn retry_hint(&self, waiting: usize) -> u64 {
        let rounds = 1 + (waiting / self.global_cap) as u64;
        (RETRY_AFTER_BASE_MS * rounds).min(RETRY_AFTER_MAX_MS)
    }

    /// Currently executing queries (all tenants).
    pub fn active(&self) -> usize {
        self.counts.lock().expect("admission lock").active
    }

    /// Callers currently blocked in the wait queue.
    pub fn waiting(&self) -> usize {
        self.counts.lock().expect("admission lock").waiting
    }

    /// Tenants with at least one active slot (accounting entries live).
    /// Admission drops a tenant's entry when its last slot frees, so a
    /// quiesced controller always reports 0 — the churn tests pin this.
    pub fn tracked_tenants(&self) -> usize {
        self.counts.lock().expect("admission lock").per_tenant.len()
    }

    /// Requests shed with [`Busy`] since construction.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// The global concurrency cap.
    pub fn global_cap(&self) -> usize {
        self.global_cap
    }

    /// The per-tenant concurrency cap.
    pub fn tenant_cap(&self) -> usize {
        self.tenant_cap
    }

    /// The wait-queue bound beyond which requests are shed.
    pub fn max_queue(&self) -> usize {
        self.max_queue
    }

    fn release(&self, tenant: &str) {
        let mut c = self.counts.lock().expect("admission lock");
        c.active -= 1;
        // invariant: a guard exists for this tenant, so the entry does too.
        let n = c.per_tenant.get_mut(tenant).expect("tenant entry");
        *n -= 1;
        if *n == 0 {
            c.per_tenant.remove(tenant);
        }
        drop(c);
        self.freed.notify_all();
    }
}

/// A reserved execution slot; freed on drop.
#[derive(Debug)]
pub struct AdmissionGuard<'a> {
    admission: &'a Admission,
    tenant: String,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.admission.release(&self.tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn caps_are_clamped_sanely() {
        let a = Admission::new(0, 0, 0);
        assert_eq!(a.global_cap(), 1);
        assert_eq!(a.tenant_cap(), 1);
        let a = Admission::new(4, 100, 8);
        assert_eq!(a.tenant_cap(), 4, "tenant cap clamps to the global cap");
        assert_eq!(a.max_queue(), 8);
    }

    // With no wait queue (`max_queue` 0) a refused admit sheds at once,
    // so these tests observe the caps without blocking.

    #[test]
    fn tenant_cap_limits_one_tenant_without_blocking_others() {
        let a = Admission::new(4, 2, 0);
        let _g1 = a.admit("loud").expect("under the cap");
        let _g2 = a.admit("loud").expect("under the cap");
        // "loud" is at its cap; "quiet" still gets in immediately.
        assert!(a.admit("loud").is_err());
        let _g3 = a.admit("quiet").expect("quiet tenant admitted");
        assert_eq!(a.active(), 3);
    }

    #[test]
    fn global_cap_bounds_everyone() {
        let a = Admission::new(2, 2, 0);
        let _g1 = a.admit("t1").expect("under the cap");
        let _g2 = a.admit("t2").expect("under the cap");
        assert!(a.admit("t3").is_err(), "global cap reached");
        drop(_g1);
        assert!(a.admit("t3").is_ok());
    }

    #[test]
    fn blocked_admits_wake_on_release() {
        let a = Arc::new(Admission::new(1, 1, 64));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = a.clone();
            let peak = peak.clone();
            handles.push(std::thread::spawn(move || {
                // Seven waiters at most: the queue of 64 never sheds.
                let _g = a.admit("t").expect("queued, not shed");
                let now = a.active();
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "cap held under contention");
        assert_eq!(a.active(), 0, "all slots returned");
        assert_eq!(a.tracked_tenants(), 0, "no per-tenant entries leaked");
    }

    #[test]
    fn a_full_queue_sheds_with_a_retry_hint() {
        let a = Admission::new(1, 1, 0);
        let _g = a.admit("t").expect("a free slot admits");
        // Queue bound 0: the saturated controller sheds instantly.
        let busy = a.admit("t").unwrap_err();
        assert!(busy.retry_after_ms >= 1, "{busy:?}");
        assert_eq!(a.shed_total(), 1);
        // A freed slot admits again.
        drop(_g);
        assert!(a.admit("t").is_ok());
    }

    #[test]
    fn queued_admits_wait_instead_of_shedding_until_the_bound() {
        let a = Arc::new(Admission::new(1, 1, 1));
        let g = a.admit("t").expect("a free slot admits");
        // One waiter fits in the queue…
        let waiter = {
            let a = a.clone();
            std::thread::spawn(move || a.admit("w").map(|_| ()))
        };
        // …wait until it is actually queued, then the next arrival sheds.
        while a.waiting() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let busy = a.admit("x").unwrap_err();
        assert!(busy.retry_after_ms >= 1);
        drop(g);
        waiter.join().unwrap().expect("queued waiter admitted");
        assert_eq!(a.active(), 0);
        assert_eq!(a.waiting(), 0);
    }

    #[test]
    fn retry_hint_scales_with_queue_depth() {
        let a = Admission::new(2, 2, 0);
        assert_eq!(a.retry_hint(0), RETRY_AFTER_BASE_MS);
        assert_eq!(a.retry_hint(2), 2 * RETRY_AFTER_BASE_MS);
        assert_eq!(a.retry_hint(7), 4 * RETRY_AFTER_BASE_MS);
        // Bounded: the hint never promises more than 10s of backoff.
        assert_eq!(Admission::new(1, 1, 0).retry_hint(1_000), 10_000);
    }
}
