//! The crash-point sweep: kill the durability writer at **every byte** of a
//! reference run and prove recovery always lands on a batch boundary.
//!
//! The atomicity contract under test: after a crash anywhere, recovery
//! yields exactly the EDB of some committed-batch prefix; derived state is
//! a function of it. That is the pre-batch state or the post-batch state,
//! never anything in between, and never a panic. The sweep is exhaustive
//! over crash offsets, so there is no "unlucky byte" left untested; each
//! injected fault is interpreted byte-exactly by the writer wrapper (see
//! `alexander_durable::io`).
//!
//! Requires `--features failpoints`.
#![cfg(feature = "failpoints")]

use alexander_durable::{DurableError, DurableStore, WAL_HEADER};
use alexander_eval::failpoints::{self, Action};
use alexander_ir::{Atom, Const, Program, Symbol};
use alexander_storage::{row_atom, Database};
use std::path::PathBuf;

fn tc_program() -> Program {
    alexander_parser::parse("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).")
        .expect("parses")
        .program
}

fn edge(a: &str, b: &str) -> Atom {
    row_atom(Symbol::intern("edge"), &[Const::sym(a), Const::sym(b)])
}

/// `(insert?, fact)` — the scripted mutations, grouped into batches. Mixes
/// inserts and a delete so replay exercises both record kinds.
fn script() -> Vec<Vec<(bool, Atom)>> {
    vec![
        vec![(true, edge("a", "b")), (true, edge("b", "c"))],
        vec![(true, edge("c", "d")), (false, edge("a", "b"))],
        vec![(true, edge("d", "e"))],
    ]
}

fn apply_batch(eng: &mut DurableStore, batch: &[(bool, Atom)]) -> Result<(), DurableError> {
    for (ins, fact) in batch {
        if *ins {
            eng.insert(fact)?;
        } else {
            eng.delete(fact)?;
        }
    }
    eng.commit().map(|_| ())
}

fn state(db: &Database) -> Vec<String> {
    let mut out: Vec<String> = db
        .predicates()
        .into_iter()
        .flat_map(|p| db.atoms_of(p))
        .map(|a| a.to_string())
        .collect();
    out.sort();
    out
}

fn paths(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    (
        dir.join(format!("alexander_sweep_{tag}_{pid}.snap")),
        dir.join(format!("alexander_sweep_{tag}_{pid}.wal")),
    )
}

fn cleanup(sp: &PathBuf, wp: &PathBuf) {
    std::fs::remove_file(sp).ok();
    std::fs::remove_file(wp).ok();
}

/// Fault-free reference run: the oracle states after 0, 1, 2, 3 batches and
/// the WAL length at each boundary.
fn oracle(tag: &str) -> (Vec<Vec<String>>, Vec<u64>) {
    // Held so that a fault another test armed cannot land in this run.
    let _guard = failpoints::scoped();
    let (sp, wp) = paths(tag);
    let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
    let mut states = vec![state(eng.db())];
    let mut boundaries = vec![eng.wal_len()];
    for batch in script() {
        apply_batch(&mut eng, &batch).unwrap();
        states.push(state(eng.db()));
        boundaries.push(eng.wal_len());
    }
    cleanup(&sp, &wp);
    (states, boundaries)
}

/// Which oracle state a crash at WAL byte `n` must recover to: the last
/// batch whose frame ends at or before `n` survives; everything after is a
/// torn tail.
fn expected_after_crash(boundaries: &[u64], n: u64) -> usize {
    boundaries.iter().rposition(|&end| end <= n).unwrap_or(0)
}

#[test]
fn crash_at_every_wal_byte_recovers_a_batch_boundary() {
    let (states, boundaries) = oracle("oracle");
    let total = *boundaries.last().unwrap();
    assert!(total > WAL_HEADER, "oracle produced no frames");

    let (sp, wp) = paths("sweep");
    for n in 0..=total {
        let _guard = failpoints::scoped();
        // Arm the fault only after `create` so the initial header/snapshot
        // write is not the thing being killed (that case has its own test).
        let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
        failpoints::configure("durable-wal-io", Action::CrashAfterBytes(n));
        let mut committed = 0usize;
        for batch in script() {
            match apply_batch(&mut eng, &batch) {
                Ok(()) => committed += 1,
                Err(_) => break,
            }
        }
        drop(eng);
        failpoints::remove("durable-wal-io");

        let (rec, stats) = DurableStore::recover(tc_program(), &sp, &wp)
            .unwrap_or_else(|e| panic!("crash at byte {n}: recovery failed: {e}"));
        let want = expected_after_crash(&boundaries, n);
        assert_eq!(
            state(rec.db()),
            states[want],
            "crash at byte {n}: recovered state is not the {want}-batch EDB"
        );
        assert_eq!(
            stats.batches_replayed, want,
            "crash at byte {n}: wrong batch count"
        );
        // The writer can never have committed MORE than what recovery sees,
        // and at most one in-flight batch can be lost.
        assert!(committed <= want || committed == want + 1 && n >= boundaries[want]);

        // The recovered store must accept new work: recovery truncated the
        // torn tail, so appends land on a clean boundary.
        let mut rec = rec;
        rec.insert(&edge("z", "z")).unwrap();
        rec.commit().unwrap();
    }
    cleanup(&sp, &wp);
}

#[test]
fn short_write_of_every_length_loses_at_most_the_inflight_batch() {
    let (states, _) = oracle("sworacle");
    let (sp, wp) = paths("short");
    // Generous upper bound on the first frame's length.
    for k in 0..200usize {
        let _guard = failpoints::scoped();
        let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
        failpoints::configure("durable-wal-io", Action::ShortWrite(k));
        let err = apply_batch(&mut eng, &script()[0]).unwrap_err();
        assert!(matches!(err, DurableError::Io { .. }), "{err}");
        drop(eng);
        failpoints::remove("durable-wal-io");

        let (rec, _) = DurableStore::recover(tc_program(), &sp, &wp)
            .unwrap_or_else(|e| panic!("short write of {k}: recovery failed: {e}"));
        let got = state(rec.db());
        // If the short write happened to cover the whole frame the batch IS
        // durable even though the writer saw an error — the classic
        // "commit result unknown" outcome. Anything between is forbidden.
        assert!(
            got == states[0] || got == states[1],
            "short write of {k}: recovered a non-boundary state {got:?}"
        );
    }
    cleanup(&sp, &wp);
}

#[test]
fn fsync_failure_poisons_but_disk_stays_recoverable() {
    let (states, _) = oracle("fsoracle");
    let (sp, wp) = paths("fsync");
    let _guard = failpoints::scoped();
    let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
    failpoints::configure("durable-wal-io", Action::FsyncError);
    let err = apply_batch(&mut eng, &script()[0]).unwrap_err();
    assert!(matches!(err, DurableError::Io { .. }), "{err}");
    // The store no longer trusts its pairing with the disk, and the
    // structured error names the operation that tripped the poison.
    assert_eq!(eng.poisoned_by(), Some("commit: wal append"));
    let poisoned = eng.insert(&edge("x", "y")).unwrap_err();
    assert!(
        matches!(
            poisoned,
            DurableError::Poisoned {
                op: "commit: wal append"
            }
        ),
        "{poisoned}"
    );
    assert!(poisoned.to_string().contains("recover"), "{poisoned}");
    // Every other entry point is equally refused while poisoned.
    assert!(matches!(
        eng.delete(&edge("x", "y")).unwrap_err(),
        DurableError::Poisoned { .. }
    ));
    assert!(matches!(
        eng.commit().unwrap_err(),
        DurableError::Poisoned { .. }
    ));
    assert!(matches!(
        eng.checkpoint().unwrap_err(),
        DurableError::Poisoned { .. }
    ));
    drop(eng);
    failpoints::remove("durable-wal-io");

    // `recover` is the documented escape hatch: disk is authoritative, and
    // the recovered handle accepts new batches again.
    let (mut rec, _) = DurableStore::recover(tc_program(), &sp, &wp).unwrap();
    assert_eq!(rec.poisoned_by(), None);
    let got = state(rec.db());
    assert!(got == states[0] || got == states[1], "{got:?}");
    rec.insert(&edge("x", "y")).unwrap();
    rec.commit().unwrap();
    assert!(state(rec.db()).contains(&"edge(x, y)".to_string()));
    cleanup(&sp, &wp);
}

#[test]
fn crash_at_every_snapshot_byte_leaves_the_old_checkpoint_intact() {
    // Checkpoint writes go to a temp file first; killing them at any byte
    // must leave the previous snapshot + full WAL pair authoritative.
    let (sp, wp) = paths("snapcrash");
    let snap_len = {
        let _guard = failpoints::scoped();
        let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
        for batch in script() {
            apply_batch(&mut eng, &batch).unwrap();
        }
        eng.checkpoint().unwrap();
        std::fs::metadata(&sp).unwrap().len()
    };
    let (states, _) = oracle("snaporacle");
    let full = states.last().unwrap();

    for n in 0..=snap_len {
        let _guard = failpoints::scoped();
        let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
        for batch in script() {
            apply_batch(&mut eng, &batch).unwrap();
        }
        failpoints::configure("durable-snapshot-io", Action::CrashAfterBytes(n));
        let res = eng.checkpoint();
        failpoints::remove("durable-snapshot-io");
        if n < snap_len {
            let err = res.unwrap_err();
            assert!(matches!(err, DurableError::Io { .. }), "byte {n}: {err}");
            // Not poisoned: the old pair is untouched, work continues.
            eng.insert(&edge("q", "r")).unwrap();
            eng.commit().unwrap();
        } else {
            res.unwrap();
        }
        drop(eng);

        let (rec, _) = DurableStore::recover(tc_program(), &sp, &wp)
            .unwrap_or_else(|e| panic!("snapshot crash at byte {n}: recovery failed: {e}"));
        let got = state(rec.db());
        if n < snap_len {
            let mut want = full.clone();
            want.push("edge(q, r)".to_string());
            want.sort();
            assert_eq!(got, want, "snapshot crash at byte {n}");
        } else {
            assert_eq!(&got, full, "snapshot crash at byte {n}");
        }
    }
    cleanup(&sp, &wp);
}

#[test]
fn bit_flips_anywhere_never_panic_and_never_fabricate_state() {
    let (states, boundaries) = oracle("bforacle");
    let total = *boundaries.last().unwrap();
    let (sp, wp) = paths("bitflip");
    for at in 0..total {
        for bit in [0u8, 3, 7] {
            let _guard = failpoints::scoped();
            let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
            failpoints::configure("durable-wal-io", Action::BitFlip { at, bit });
            for batch in script() {
                // Bit flips are silent; all commits appear to succeed.
                apply_batch(&mut eng, &batch).unwrap();
            }
            drop(eng);
            failpoints::remove("durable-wal-io");

            // Silent corruption must surface as a structured error, or — if
            // the flip forged a plausible torn tail — as some batch-boundary
            // prefix state. Never a panic, never an in-between state.
            match DurableStore::recover(tc_program(), &sp, &wp) {
                Err(_) => {}
                Ok((rec, _)) => {
                    let got = state(rec.db());
                    assert!(
                        states.contains(&got),
                        "flip at byte {at} bit {bit}: non-boundary state {got:?}"
                    );
                }
            }
        }
    }
    cleanup(&sp, &wp);
}
