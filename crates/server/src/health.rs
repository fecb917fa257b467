//! The server state machine: `Healthy → Degraded(read-only) → Healthy`.
//!
//! The write path degrades instead of dying. When the durable layer poisons
//! (a commit failed after disk may have changed) the service flips to
//! [`ServerState::Degraded`]: every already-published epoch keeps serving
//! reads bit-identically, mutations answer `ERR DEGRADED <reason>`, and a
//! supervisor thread retries recovery with bounded jittered exponential
//! backoff. Recovery re-opens the snapshot/WAL pair — disk is authoritative,
//! and may legitimately be *ahead* of the last published epoch (the commit's
//! frame can be fully persisted even though the fsync result never came
//! back) — then republishes and flips back to [`ServerState::Healthy`].
//!
//! State changes are announced on a condvar so the supervisor (and tests)
//! can wait for transitions instead of spinning.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where the service is in its degradation cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerState {
    /// Reads and writes both serving.
    Healthy,
    /// Read-only: the durable writer failed and is being recovered.
    /// `reason` names the failed operation (shown in `ERR DEGRADED` lines).
    Degraded { reason: String },
}

impl ServerState {
    /// True in the degraded (read-only) state.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ServerState::Degraded { .. })
    }
}

/// Shared health status: the current state plus transition counters.
#[derive(Debug)]
pub struct Health {
    state: Mutex<ServerState>,
    changed: Condvar,
    degradations: AtomicU64,
    heals: AtomicU64,
}

impl Default for Health {
    fn default() -> Health {
        Health {
            state: Mutex::new(ServerState::Healthy),
            changed: Condvar::new(),
            degradations: AtomicU64::new(0),
            heals: AtomicU64::new(0),
        }
    }
}

impl Health {
    /// The current state (cloned; the service may move on immediately).
    pub fn state(&self) -> ServerState {
        self.state.lock().expect("health lock").clone()
    }

    /// True while the write path is down.
    pub fn is_degraded(&self) -> bool {
        self.state.lock().expect("health lock").is_degraded()
    }

    /// Enters the degraded state (idempotent: re-degrading while already
    /// degraded updates the reason but counts only the first transition).
    pub fn degrade(&self, reason: impl Into<String>) {
        let mut st = self.state.lock().expect("health lock");
        if !st.is_degraded() {
            self.degradations.fetch_add(1, Ordering::Relaxed);
        }
        *st = ServerState::Degraded {
            reason: reason.into(),
        };
        drop(st);
        self.changed.notify_all();
    }

    /// Returns to healthy after a successful recovery.
    pub fn heal(&self) {
        let mut st = self.state.lock().expect("health lock");
        if st.is_degraded() {
            self.heals.fetch_add(1, Ordering::Relaxed);
        }
        *st = ServerState::Healthy;
        drop(st);
        self.changed.notify_all();
    }

    /// Healthy→Degraded transitions so far.
    pub fn degradations(&self) -> u64 {
        self.degradations.load(Ordering::Relaxed)
    }

    /// Degraded→Healthy transitions so far.
    pub fn heals(&self) -> u64 {
        self.heals.load(Ordering::Relaxed)
    }

    /// Blocks until the state satisfies `pred` or `timeout` elapses; true
    /// when the predicate held. `QueryService::wait_for_healthy` is this
    /// wait, which the fault-injection tests use instead of polling loops.
    pub fn wait_for(&self, timeout: Duration, pred: impl Fn(&ServerState) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().expect("health lock");
        loop {
            if pred(&st) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .changed
                .wait_timeout(st, deadline - now)
                .expect("health lock");
            st = guard;
        }
    }

    /// Supervisor wait: blocks until degraded or `stop` is set; false on
    /// stop. Polls the stop flag on a short timeout so shutdown never needs
    /// to race a notification.
    pub fn wait_degraded_or_stop(&self, stop: &std::sync::atomic::AtomicBool) -> bool {
        let mut st = self.state.lock().expect("health lock");
        loop {
            if stop.load(Ordering::SeqCst) {
                return false;
            }
            if st.is_degraded() {
                return true;
            }
            let (guard, _) = self
                .changed
                .wait_timeout(st, Duration::from_millis(50))
                .expect("health lock");
            st = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn transitions_count_once_and_waits_observe_them() {
        let h = Health::default();
        assert_eq!(h.state(), ServerState::Healthy);
        h.degrade("commit: wal append");
        h.degrade("commit: wal append (again)");
        assert_eq!(h.degradations(), 1, "re-degrading counts once");
        assert!(h.is_degraded());
        h.heal();
        h.heal();
        assert_eq!(h.heals(), 1, "re-healing counts once");
        assert!(h.wait_for(Duration::from_millis(10), |s| !s.is_degraded()));
        assert!(!h.wait_for(Duration::from_millis(10), |s| s.is_degraded()));
    }

    #[test]
    fn supervisor_wait_wakes_on_degrade_and_on_stop() {
        let h = Arc::new(Health::default());
        let stop = Arc::new(AtomicBool::new(false));

        let waiter = {
            let (h, stop) = (h.clone(), stop.clone());
            std::thread::spawn(move || h.wait_degraded_or_stop(&stop))
        };
        h.degrade("io");
        assert!(waiter.join().unwrap(), "woke because degraded");

        h.heal();
        let waiter = {
            let (h, stop) = (h.clone(), stop.clone());
            std::thread::spawn(move || h.wait_degraded_or_stop(&stop))
        };
        stop.store(true, Ordering::SeqCst);
        assert!(!waiter.join().unwrap(), "woke because stopped");
    }
}
