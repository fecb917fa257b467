//! Kill/restart soak harness for the serving layer (failpoints builds only).
//!
//! The driver self-hosts a *durable* [`QueryService`] over real TCP and runs
//! repeated fault cycles against the writer while reader clients hammer
//! oracle-verified queries the whole time:
//!
//! * **WAL byte-crash** (default cycle): arm `durable-wal-io` with
//!   `CrashAfterBytes` a random distance past the current WAL length, then
//!   drive `INSERT`/`COMMIT` traffic until a commit dies mid-append with
//!   `ERR DEGRADED`. The in-flight batch is indeterminate by construction —
//!   the crash point lands inside its frame.
//! * **Mixed-batch WAL byte-crash** (every 5th cycle, offset 1): the same
//!   armed fault, but every commit frame is `DELETE tip / INSERT tip /
//!   INSERT next` — a genuine deletion of pre-existing state rides each WAL
//!   frame while the net effect stays +1 edge, so the readers' monotone
//!   chain invariant still pins the outcome. Recovery replays the mixed
//!   frame through the store's record fold (`apply_to_database`); a replay
//!   that drops the delete record or applies a torn prefix lands off the
//!   committed-batch boundary and is caught at resync.
//! * **WAL fsync-error** (every 5th cycle, offset 2): arm `FsyncError`; the
//!   next commit's append persists its bytes but cannot prove it, so the
//!   writer must poison even though replay will later find the batch whole.
//! * **Snapshot crash** (every 5th cycle, offset 4): arm
//!   `durable-snapshot-io` and take a checkpoint. The snapshot write is
//!   atomic (temp file + rename), so this must fail *cleanly*: no
//!   degradation, old snapshot intact, and a retried checkpoint succeeds
//!   once the fault is lifted.
//!
//! After every degraded window the driver disarms the fault, waits for the
//! supervisor to heal and republish, and resyncs over the wire, asserting
//! the recovered chain landed on a **committed-batch boundary**: exactly the
//! certain length, or one more (the indeterminate batch persisted whole) —
//! never a torn prefix. Readers verify every reply bit-identically against a
//! single-threaded oracle and cross-check a shared generation → chain-length
//! map for per-generation consistency and monotonicity, which pins the
//! heal's republish (a generation bump with no chain growth) as well as
//! ordinary commits. Shed replies (`ERR BUSY retry-after-ms=`) are honoured
//! with jittered backoff, not treated as failures.

use crate::loadgen::{chain_db, jitter, rng_seed, update_fact, Client, Oracle, QUERY, RULES};
use alexander_eval::failpoints::{self, Action};
use alexander_parser::parse;
use alexander_server::{serve_tcp, QueryService, ServerConfig, ServerError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Failpoint site for WAL bytes (mirrors `alexander-durable`'s WAL writer).
const SITE_WAL: &str = "durable-wal-io";
/// Failpoint site for snapshot bytes.
const SITE_SNAP: &str = "durable-snapshot-io";

/// Soak parameters.
pub struct ChaosConfig {
    /// Fault cycles to run (the CI job uses at least 20).
    pub cycles: usize,
    /// Concurrent oracle-verifying reader clients.
    pub clients: usize,
    /// Initial chain length baked into the snapshot.
    pub base_chain: usize,
    /// How long one heal may take before the cycle is declared stuck.
    pub heal_deadline: Duration,
    /// Commits to attempt per cycle before declaring the fault never fired.
    pub commits_cap: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            cycles: 20,
            clients: 4,
            base_chain: 48,
            heal_deadline: Duration::from_secs(10),
            commits_cap: 64,
        }
    }
}

/// What the soak did and saw; `violations` empty means it passed.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Cycles completed.
    pub cycles: usize,
    /// Commits acknowledged `OK` across the run.
    pub commits_ok: u64,
    /// Cycles that entered (and left) the degraded state.
    pub degraded_cycles: usize,
    /// Degraded windows also observed over the wire via `HEALTH`.
    pub degraded_on_wire: usize,
    /// Snapshot-crash checkpoint cycles.
    pub checkpoint_cycles: usize,
    /// Crash cycles whose commit frames mixed deletes with inserts.
    pub mixed_cycles: usize,
    /// Indeterminate batches that turned out to have persisted whole.
    pub batches_survived_crash: u64,
    /// Oracle-verified query replies across all readers.
    pub queries: u64,
    /// `ERR BUSY` sheds absorbed by retry.
    pub sheds: u64,
    /// Supervisor heals observed (may exceed `degraded_cycles`: health can
    /// flap while a fault stays armed).
    pub heals: u64,
    /// Final committed chain length.
    pub final_chain: usize,
    /// Every invariant violation seen, in order.
    pub violations: Vec<String>,
}

/// State shared between the driver and the reader threads.
struct Shared {
    oracle: Oracle,
    base: usize,
    /// generation → chain length, grown by whoever sees a tagged reply
    /// first; every later observation must agree, and entries must be
    /// monotone in the generation.
    gen_map: Mutex<BTreeMap<u64, usize>>,
    violations: Mutex<Vec<String>>,
    stop: AtomicBool,
    queries: AtomicU64,
    sheds: AtomicU64,
}

impl Shared {
    fn violation(&self, msg: String) {
        self.violations.lock().expect("violations lock").push(msg);
    }

    /// Records `generation → len`, checking consistency and monotonicity.
    fn record(&self, who: &str, generation: u64, len: usize) {
        let mut map = self.gen_map.lock().expect("gen map lock");
        if let Some(&prev) = map.get(&generation) {
            if prev != len {
                self.violation(format!(
                    "{who}: epoch {generation} answered chain length {len}, \
                     previously {prev} — snapshot reads are not stable"
                ));
            }
            return;
        }
        if let Some((&g, &l)) = map.range(..generation).next_back() {
            if l > len {
                self.violation(format!(
                    "{who}: epoch {generation} (len {len}) shrank below \
                     epoch {g} (len {l}) — committed data regressed"
                ));
            }
        }
        if let Some((&g, &l)) = map.range(generation + 1..).next() {
            if len > l {
                self.violation(format!(
                    "{who}: epoch {generation} (len {len}) exceeds later \
                     epoch {g} (len {l}) — epochs are out of order"
                ));
            }
        }
        map.insert(generation, len);
    }

    /// Verifies one `OK` reply against the single-threaded oracle and the
    /// shared epoch map; returns the chain length it certifies.
    fn verify(&self, who: &str, generation: u64, answers: &[String]) -> Option<usize> {
        // The chain workload answers `anc(n0, X)` with exactly one tuple
        // per chain edge, so the reply length *is* the chain length.
        let len = answers.len();
        if len < self.base {
            self.violation(format!(
                "{who}: epoch {generation} lost committed base facts \
                 ({len} answers < base {})",
                self.base
            ));
            return None;
        }
        let expected = self.oracle.answers((len - self.base) as u64);
        if answers != expected {
            self.violation(format!(
                "{who}: epoch {generation} diverged from the oracle at \
                 chain length {len}"
            ));
            return None;
        }
        self.record(who, generation, len);
        Some(len)
    }
}

/// One reader: query, retry sheds, verify bit-identically, forever.
fn reader(idx: usize, addr: &str, shared: &Shared) {
    let who = format!("reader {idx}");
    let mut rng = rng_seed().wrapping_add(idx as u64 * 0x9e37_79b9);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            shared.violation(format!("{who}: connect: {e}"));
            return;
        }
    };
    if let Err(e) = client.request(&format!("HELLO chaos{idx}")) {
        shared.violation(format!("{who}: hello: {e}"));
        return;
    }
    while !shared.stop.load(Ordering::Relaxed) {
        match client.query_retrying(QUERY, &mut rng, 8) {
            Ok((reply, sheds)) => {
                shared.sheds.fetch_add(sheds as u64, Ordering::Relaxed);
                if reply.ok {
                    shared.queries.fetch_add(1, Ordering::Relaxed);
                    shared.verify(&who, reply.generation, &reply.answers);
                } else if reply.retry_after_ms().is_none() {
                    // Reads must serve in *every* state; only a shed that
                    // outlived its retries is tolerable.
                    shared.violation(format!("{who}: query refused: {}", reply.terminal));
                }
            }
            Err(e) => {
                if !shared.stop.load(Ordering::Relaxed) {
                    shared.violation(format!("{who}: transport: {e}"));
                }
                return;
            }
        }
    }
}

/// Runs the soak; `Err` carries the violation list, newline-joined.
pub fn run(config: &ChaosConfig) -> Result<ChaosReport, String> {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let snap = dir.join(format!("alexander_chaos_{pid}.snap"));
    let wal = dir.join(format!("alexander_chaos_{pid}.wal"));
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&wal).ok();

    // Make sure this process's failpoint registry is ours alone.
    let _fp = failpoints::scoped();

    let program = parse(RULES).expect("rules parse").program;
    let server_config = ServerConfig {
        max_concurrent: config.clients.max(1) + 2,
        tenant_cap: config.clients.max(1) + 2,
        // Tight backoff keeps each heal window short; the soak runs many.
        heal_backoff_ms: 5,
        heal_backoff_max_ms: 100,
        ..ServerConfig::default()
    };
    let service = Arc::new(
        QueryService::open(
            program,
            chain_db(config.base_chain),
            Some((&snap, &wal)),
            server_config,
        )
        .map_err(|e| format!("open durable service: {e}"))?,
    );
    let handle = serve_tcp(service.clone(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = handle.tcp_addr().expect("bound").to_string();

    let shared = Arc::new(Shared {
        oracle: Oracle::new(config.base_chain),
        base: config.base_chain,
        gen_map: Mutex::new(BTreeMap::new()),
        violations: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
        queries: AtomicU64::new(0),
        sheds: AtomicU64::new(0),
    });
    let readers: Vec<_> = (0..config.clients)
        .map(|i| {
            let addr = addr.clone();
            let shared = shared.clone();
            std::thread::spawn(move || reader(i, &addr, &shared))
        })
        .collect();

    let mut report = ChaosReport::default();
    let mut rng = rng_seed();
    let mut chain = config.base_chain;
    let driver = drive_cycles(
        config,
        &service,
        &addr,
        &shared,
        &mut report,
        &mut rng,
        &mut chain,
    );
    if let Err(e) = driver {
        shared.violation(e);
    }

    shared.stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader thread");
    }
    handle.shutdown();
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&wal).ok();

    report.queries = shared.queries.load(Ordering::Relaxed);
    report.sheds = shared.sheds.load(Ordering::Relaxed);
    report.heals = service.health().heals();
    report.final_chain = chain;
    report.violations = std::mem::take(&mut *shared.violations.lock().expect("violations lock"));
    if report.violations.is_empty() {
        Ok(report)
    } else {
        Err(report.violations.join("\n"))
    }
}

/// The fault-cycle loop, factored out so any wire error aborts cleanly into
/// a violation instead of unwinding past the reader threads.
#[allow(clippy::too_many_arguments)]
fn drive_cycles(
    config: &ChaosConfig,
    service: &QueryService,
    addr: &str,
    shared: &Shared,
    report: &mut ChaosReport,
    rng: &mut u64,
    chain: &mut usize,
) -> Result<(), String> {
    let mut writer = Client::connect(addr).map_err(|e| format!("writer connect: {e}"))?;
    writer
        .request("HELLO chaos-writer")
        .map_err(|e| format!("writer hello: {e}"))?;

    for cycle in 0..config.cycles {
        match cycle % 5 {
            4 => checkpoint_cycle(cycle, service, shared, rng, report)?,
            n => {
                let action = if n == 2 {
                    Action::FsyncError
                } else {
                    let wal_len = service
                        .durable_wal_len()
                        .ok_or("service must be durable".to_string())?;
                    // Land inside a future append: at least one byte past
                    // the current end, at most a few frames further.
                    Action::CrashAfterBytes(wal_len + 1 + jitter(rng, 200))
                };
                crash_cycle(
                    cycle,
                    config,
                    service,
                    shared,
                    &mut writer,
                    action,
                    // Offset 1 drives mixed insert+delete frames into the
                    // armed fault instead of pure extensions.
                    n == 1,
                    chain,
                    report,
                )?;
            }
        }
        report.cycles += 1;
    }
    Ok(())
}

/// Arms `action` on the WAL, drives commits until the writer degrades,
/// probes the degraded window over the wire, then heals and resyncs.
/// With `mixed` set, every commit frame retracts the current tip edge,
/// reinstates it, and extends the chain — the frame carries a real delete
/// of pre-existing state but its net effect is still one new edge.
#[allow(clippy::too_many_arguments)]
fn crash_cycle(
    cycle: usize,
    config: &ChaosConfig,
    service: &QueryService,
    shared: &Shared,
    writer: &mut Client,
    action: Action,
    mixed: bool,
    chain: &mut usize,
    report: &mut ChaosReport,
) -> Result<(), String> {
    let who = format!("cycle {cycle}");
    let degradations_before = service.health().degradations();
    failpoints::configure(SITE_WAL, action);
    let mut rng = rng_seed();

    // Drive commits until one hits the armed fault.
    let mut fired = false;
    for _ in 0..config.commits_cap {
        // `update_fact(chain, 0)` is the edge the chain currently ends on;
        // `update_fact(chain, 1)` is the next extension.
        let ops: Vec<String> = if mixed {
            vec![
                format!("DELETE {}", update_fact(*chain, 0)),
                format!("INSERT {}", update_fact(*chain, 0)),
                format!("INSERT {}", update_fact(*chain, 1)),
            ]
        } else {
            vec![format!("INSERT {}", update_fact(*chain, 1))]
        };
        let mut staged = true;
        for op in &ops {
            let reply = writer
                .request(op)
                .map_err(|e| format!("{who}: stage `{op}`: {e}"))?;
            let terminal = reply.last().cloned().unwrap_or_default();
            if terminal.starts_with("ERR DEGRADED") {
                // A prior commit poisoned the writer and the staging op
                // caught the degraded window first — same outcome as a
                // failing commit.
                fired = true;
                staged = false;
                break;
            }
            if !terminal.starts_with("OK") {
                shared.violation(format!("{who}: `{op}` refused: {terminal}"));
                staged = false;
                break;
            }
        }
        if !staged {
            break;
        }
        let commit = writer
            .request("COMMIT")
            .map_err(|e| format!("{who}: commit: {e}"))?;
        let terminal = commit.last().cloned().unwrap_or_default();
        if terminal.starts_with("ERR DEGRADED") {
            fired = true;
            break;
        }
        // "OK epoch <g> committed <n>"
        let generation: Option<u64> = terminal
            .strip_prefix("OK epoch ")
            .and_then(|r| r.split_whitespace().next())
            .and_then(|g| g.parse().ok());
        let Some(generation) = generation else {
            shared.violation(format!("{who}: commit answered: {terminal}"));
            break;
        };
        *chain += 1;
        report.commits_ok += 1;
        shared.record(&who, generation, *chain);
    }
    if !fired {
        shared.violation(format!(
            "{who}: fault never fired within {} commits",
            config.commits_cap
        ));
        failpoints::remove(SITE_WAL);
        return Ok(());
    }
    if mixed {
        report.mixed_cycles += 1;
    }

    // Degraded-window probes: HEALTH may already say healthy again (the
    // supervisor heals fast and the fault only re-fires on the next
    // commit), but reads must serve an epoch-pinned answer regardless.
    let health = writer
        .request("HEALTH")
        .map_err(|e| format!("{who}: health: {e}"))?;
    if health.last().is_some_and(|l| l.contains("degraded")) {
        report.degraded_on_wire += 1;
    }
    let (reply, _) = writer
        .query_retrying(QUERY, &mut rng, 8)
        .map_err(|e| format!("{who}: degraded-window query: {e}"))?;
    if reply.ok {
        shared.verify(&who, reply.generation, &reply.answers);
    } else {
        shared.violation(format!(
            "{who}: degraded window refused a read: {}",
            reply.terminal
        ));
    }
    if service.health().degradations() == degradations_before {
        shared.violation(format!("{who}: the writer never entered Degraded"));
    } else {
        report.degraded_cycles += 1;
    }

    // Disarm, then the supervisor's next heal sticks.
    failpoints::remove(SITE_WAL);
    if !service.wait_for_healthy(config.heal_deadline) {
        return Err(format!(
            "{who}: not Healthy within {:?} of disarming the fault",
            config.heal_deadline
        ));
    }

    // Resync: recovery must land on a committed-batch boundary — the
    // certain chain, or certain + 1 when the in-flight batch persisted
    // whole before the crash point. Never a torn prefix, never a loss.
    let (reply, _) = writer
        .query_retrying(QUERY, &mut rng, 8)
        .map_err(|e| format!("{who}: resync query: {e}"))?;
    if !reply.ok {
        shared.violation(format!("{who}: resync refused: {}", reply.terminal));
        return Ok(());
    }
    match shared.verify(&who, reply.generation, &reply.answers) {
        Some(recovered) if recovered == *chain || recovered == *chain + 1 => {
            if recovered == *chain + 1 {
                report.batches_survived_crash += 1;
            }
            *chain = recovered;
        }
        Some(recovered) => shared.violation(format!(
            "{who}: recovery off the batch boundary: chain {recovered}, \
             certain {} (allowed: that or +1)",
            *chain
        )),
        None => {} // verify already recorded the violation
    }
    Ok(())
}

/// Snapshot-crash cycle: a checkpoint whose snapshot write dies must fail
/// *cleanly* — atomic replace means no degradation and no data loss — and
/// must succeed once the fault lifts, truncating the WAL.
fn checkpoint_cycle(
    cycle: usize,
    service: &QueryService,
    shared: &Shared,
    rng: &mut u64,
    report: &mut ChaosReport,
) -> Result<(), String> {
    let who = format!("cycle {cycle}");
    let wal_before = service
        .durable_wal_len()
        .ok_or("service must be durable".to_string())?;
    failpoints::configure(SITE_SNAP, Action::CrashAfterBytes(jitter(rng, 64)));
    match service.checkpoint() {
        Err(ServerError::Durable(_)) => {}
        Ok(_) => shared.violation(format!(
            "{who}: checkpoint succeeded with the snapshot fault armed"
        )),
        Err(e) => shared.violation(format!(
            "{who}: snapshot crash escalated past a clean failure: {e}"
        )),
    }
    if service.state().is_degraded() {
        shared.violation(format!(
            "{who}: an atomic snapshot failure must not degrade the writer"
        ));
    }
    failpoints::remove(SITE_SNAP);
    match service.checkpoint() {
        Ok(true) => {
            let wal_after = service.durable_wal_len().expect("still durable");
            if wal_after > wal_before {
                shared.violation(format!(
                    "{who}: checkpoint did not truncate the WAL \
                     ({wal_before} -> {wal_after} bytes)"
                ));
            }
            report.checkpoint_cycles += 1;
        }
        Ok(false) => shared.violation(format!("{who}: durable checkpoint reported in-memory")),
        Err(e) => shared.violation(format!("{who}: retried checkpoint failed: {e}")),
    }
    Ok(())
}
