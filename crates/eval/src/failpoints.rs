//! Test-only fault injection, compiled in behind the `failpoints` feature.
//!
//! Evaluator hot paths call [`crate::fail_point`] with a site name; without
//! the feature that call is an empty inline function and the registry does
//! not exist. With the feature, tests configure an [`Action`] per site to
//! inject worker panics (exercising the `WorkerPanicked` path), artificial
//! per-round delays (exercising wall-clock deadlines deterministically),
//! or allocation pressure (exercising large-round memory behaviour).
//!
//! Sites currently instrumented:
//! - `"round-worker"` — before every task of the shared round executor
//!   (`seminaive::run_chunk`), which is both the fan-out worker body and the
//!   inline sequential round, so injection also covers `threads = 1`.
//! - `"round-start"` — top of every round of the one fixpoint loop
//!   (`seminaive::fixpoint`), naive and semi-naive alike.
//!
//! The registry also carries **IO-layer** actions ([`Action::ShortWrite`],
//! [`Action::CrashAfterBytes`], [`Action::FsyncError`], [`Action::BitFlip`])
//! that [`hit`] ignores: they are declarative fault descriptions that the
//! durability crate's fault-aware file writer interprets itself via
//! [`action`] (a write wrapper knows its stream position; this registry does
//! not). Sites: `"durable-snapshot-io"` and `"durable-wal-io"` in
//! `alexander-durable`.
//!
//! The registry is global; tests that configure it must serialise through
//! [`scoped`], which holds a lock for the test's duration and clears the
//! registry on drop.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// What a triggered fail point does.
#[derive(Clone, Debug)]
pub enum Action {
    /// Panic with this message (the payload surfaced by `WorkerPanicked`).
    Panic(String),
    /// Sleep this long, simulating a slow round / slow worker.
    Sleep(Duration),
    /// Allocate and immediately drop this many bytes, simulating a round
    /// with heavy transient allocation.
    AllocPressure(usize),
    /// IO: the write that would cross byte `0` of its buffer... more
    /// precisely, the *next* write at this site persists only its first `n`
    /// bytes, then the stream fails permanently (a torn write followed by a
    /// crash). Interpreted by the durability writer, ignored by [`hit`].
    ShortWrite(usize),
    /// IO: everything up to stream offset `n` persists; the write crossing
    /// that offset is truncated at it and every later write or sync fails
    /// (the process died after `n` bytes reached the file). Interpreted by
    /// the durability writer, ignored by [`hit`].
    CrashAfterBytes(u64),
    /// IO: `fsync` fails at this site; writes succeed. Interpreted by the
    /// durability writer, ignored by [`hit`].
    FsyncError,
    /// IO: flip bit `bit` of the byte at stream offset `at` as it passes
    /// through the writer — silent media corruption, no error is ever
    /// reported to the writing side. Interpreted by the durability writer,
    /// ignored by [`hit`].
    BitFlip { at: u64, bit: u8 },
}

fn registry() -> &'static Mutex<HashMap<String, Action>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Action>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn test_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Guard returned by [`scoped`]: serialises failpoint tests and clears the
/// registry when dropped.
pub struct FailPointGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FailPointGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// Takes the global failpoint test lock (so concurrently running tests
/// cannot see each other's injections) and clears any stale configuration.
/// Configure sites after acquiring the guard; everything is cleared again
/// on drop.
pub fn scoped() -> FailPointGuard {
    // An injected panic can poison the lock of the *previous* test; the
    // registry itself is reset below, so the poison carries no bad state.
    let lock = test_lock().lock().unwrap_or_else(PoisonError::into_inner);
    clear();
    FailPointGuard { _lock: lock }
}

/// Arms `site` with `action`.
pub fn configure(site: &str, action: Action) {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(site.to_string(), action);
}

/// Disarms `site`.
pub fn remove(site: &str) {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(site);
}

/// Disarms everything.
pub fn clear() {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// The action armed at `site`, if any. This is how the IO fault variants
/// are consumed: a fault-aware writer reads its site's configuration once
/// per operation and applies the byte-level semantics itself.
pub fn action(site: &str) -> Option<Action> {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(site)
        .cloned()
}

/// Called from instrumented evaluator sites (via [`crate::fail_point`]).
pub fn hit(site: &str) {
    match action(site) {
        None => {}
        // IO-layer actions are declarative; only the durability writer
        // interprets them (see [`action`]).
        Some(
            Action::ShortWrite(_)
            | Action::CrashAfterBytes(_)
            | Action::FsyncError
            | Action::BitFlip { .. },
        ) => {}
        Some(Action::Panic(msg)) => panic!("{msg}"),
        Some(Action::Sleep(d)) => std::thread::sleep(d),
        Some(Action::AllocPressure(bytes)) => {
            // Touch every page so the allocation is not optimised away.
            let mut buf = vec![0u8; bytes];
            for chunk in buf.chunks_mut(4096) {
                chunk[0] = 1;
            }
            std::hint::black_box(&buf);
        }
    }
}
