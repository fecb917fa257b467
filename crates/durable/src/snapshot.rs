//! Arena snapshots: a whole [`Database`] as one checksummed file.
//!
//! ## Format (version 1, little-endian)
//!
//! ```text
//! [0..8)    magic  "ALEXSNAP"
//! [8..12)   u32    version (1)
//! [12..20)  u64    body length
//! [20..24)  u32    CRC32 of the body
//! [24..)    body
//! ```
//!
//! Body:
//!
//! ```text
//! u32 nstrings; nstrings × { u32 len; UTF-8 bytes }    — string table
//! u32 nrelations
//! per relation:
//!   u32 name_sid        — string-table index of the predicate name
//!   u32 arity
//!   u64 nrows
//!   nrows × arity cells — cell = u8 tag; tag 0 (sym): u32 sid
//!                                        tag 1 (int): i64
//! ```
//!
//! The body is the relation arenas flattened in pool order — the same
//! contiguous `(const pool, stride = arity)` layout the in-memory arenas
//! use, with symbols swapped from process-local interner ids to snapshot-
//! local string-table ids. Interner ids are *not* stable across processes,
//! which is also why row hashes are recomputed at load time (they hash the
//! interned ids): the string table is the part of the interner the snapshot
//! must carry, the hashes are derived state.
//!
//! Snapshots are written atomically (temp file + rename, see
//! [`crate::io::atomic_write`]): a reader sees the old snapshot or the new
//! one, never a torn hybrid. The reader still validates everything —
//! magic, version, length, CRC32, string ids, counts against bytes
//! remaining, duplicate rows — and reports [`DurableError`] values on
//! arbitrary input, never a panic or an unbounded allocation.

use crate::codec::{put_i64, put_str, put_u32, put_u64, put_u8, Cursor};
use crate::crc::crc32;
use crate::error::DurableError;
use crate::io::{atomic_write, read_file};
use alexander_ir::{Const, FxHashMap, Predicate, Symbol};
use alexander_storage::Database;
use std::path::Path;

const MAGIC: &[u8; 8] = b"ALEXSNAP";
const VERSION: u32 = 1;
/// Header bytes before the body: magic + version + body length + body CRC.
const HEADER: usize = 8 + 4 + 8 + 4;

const TAG_SYM: u8 = 0;
const TAG_INT: u8 = 1;

/// Serialises `db` into snapshot bytes (header + checksummed body).
pub fn encode_snapshot(db: &Database) -> Vec<u8> {
    // String table: every symbol in any predicate name or stored cell,
    // numbered in first-seen order.
    let mut sids: FxHashMap<Symbol, u32> = FxHashMap::default();
    let mut strings: Vec<Symbol> = Vec::new();
    let sid = |s: Symbol, sids: &mut FxHashMap<Symbol, u32>, strings: &mut Vec<Symbol>| {
        *sids.entry(s).or_insert_with(|| {
            strings.push(s);
            // invariant: a u32 counter over distinct interned symbols cannot
            // overflow before the interner itself does.
            (strings.len() - 1) as u32
        })
    };

    let preds = db.predicates();
    for &p in &preds {
        sid(p.name, &mut sids, &mut strings);
        // invariant: `predicates()` only returns stored relations.
        let rel = db.relation(p).expect("listed predicate exists");
        for c in rel.pool() {
            if let Const::Sym(s) = c {
                sid(*s, &mut sids, &mut strings);
            }
        }
    }

    let mut body = Vec::new();
    put_u32(&mut body, strings.len() as u32);
    for s in &strings {
        put_str(&mut body, s.as_str());
    }
    put_u32(&mut body, preds.len() as u32);
    for &p in &preds {
        let rel = db.relation(p).expect("listed predicate exists");
        put_u32(&mut body, sids[&p.name]);
        put_u32(&mut body, p.arity as u32);
        put_u64(&mut body, rel.len() as u64);
        for c in rel.pool() {
            match c {
                Const::Sym(s) => {
                    put_u8(&mut body, TAG_SYM);
                    put_u32(&mut body, sids[s]);
                }
                Const::Int(n) => {
                    put_u8(&mut body, TAG_INT);
                    put_i64(&mut body, *n);
                }
            }
        }
    }

    let mut out = Vec::with_capacity(HEADER + body.len());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, body.len() as u64);
    put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

/// Writes `db` to `path` atomically.
pub fn write_snapshot(db: &Database, path: &Path) -> Result<(), DurableError> {
    atomic_write(path, &encode_snapshot(db), "durable-snapshot-io")
}

/// Parses snapshot bytes into a [`Database`]. All validation failures are
/// structured errors; `path` only labels them.
pub fn decode_snapshot(bytes: &[u8], path: &Path) -> Result<Database, DurableError> {
    if bytes.len() < 8 || &bytes[..8] != MAGIC {
        return Err(DurableError::BadMagic {
            path: path.to_path_buf(),
            expected: "snapshot",
        });
    }
    // Header fields go through the cursor over whatever bytes remain: a
    // file cut inside the header is a structured error, never a slice
    // panic, even if the HEADER-size guard above ever drifts.
    let mut head = Cursor::new(&bytes[8..]);
    let head_err =
        |e: crate::codec::CodecError| DurableError::corrupt(path, 8 + e.offset, e.detail);
    let version = head.u32("version").map_err(head_err)?;
    if version != VERSION {
        return Err(DurableError::BadVersion {
            path: path.to_path_buf(),
            found: version,
            supported: VERSION,
        });
    }
    let body_len = head.u64("body length").map_err(head_err)?;
    let want_crc = head.u32("body crc").map_err(head_err)?;
    if bytes.len() < HEADER {
        // Unreachable once the reads above succeeded, but keeps the body
        // slice below panic-free by construction.
        return Err(DurableError::corrupt(path, 8, "truncated header"));
    }
    let body = &bytes[HEADER..];
    if body_len != body.len() as u64 {
        return Err(DurableError::corrupt(
            path,
            HEADER as u64,
            format!("body length {body_len} but {} bytes follow", body.len()),
        ));
    }
    if crc32(body) != want_crc {
        return Err(DurableError::corrupt(
            path,
            HEADER as u64,
            "body checksum mismatch",
        ));
    }

    let mut c = Cursor::new(body);
    let at = |c: &Cursor, e: crate::codec::CodecError| {
        DurableError::corrupt(path, HEADER as u64 + c.offset(), e.detail)
    };

    let nstrings = c.u32("string count").map_err(|e| at(&c, e))?;
    c.check_count(nstrings as u64, 4, "string table")
        .map_err(|e| at(&c, e))?;
    let mut symbols: Vec<Symbol> = Vec::with_capacity(nstrings as usize);
    for _ in 0..nstrings {
        symbols.push(Symbol::intern(c.str_("string").map_err(|e| at(&c, e))?));
    }

    let mut db = Database::new();
    let nrels = c.u32("relation count").map_err(|e| at(&c, e))?;
    // Each relation needs at least its 16-byte fixed fields.
    c.check_count(nrels as u64, 16, "relation table")
        .map_err(|e| at(&c, e))?;
    let mut row: Vec<Const> = Vec::new();
    for _ in 0..nrels {
        let name_sid = c.u32("relation name").map_err(|e| at(&c, e))?;
        let name = *symbols.get(name_sid as usize).ok_or_else(|| {
            DurableError::corrupt(
                path,
                HEADER as u64 + c.offset(),
                format!("relation name sid {name_sid} out of range ({nstrings} strings)"),
            )
        })?;
        let arity = c.u32("arity").map_err(|e| at(&c, e))? as usize;
        let nrows = c.u64("row count").map_err(|e| at(&c, e))?;
        let pred = Predicate { name, arity };
        if arity == 0 {
            // The propositional edge case: at most one (empty) row exists,
            // and rows occupy zero body bytes, so the generic count check
            // below would accept any nrows.
            if nrows > 1 {
                return Err(DurableError::corrupt(
                    path,
                    HEADER as u64 + c.offset(),
                    format!("arity-0 relation {name} claims {nrows} rows"),
                ));
            }
            let rel = db.relation_mut(pred);
            if nrows == 1 {
                rel.insert_row(&[]);
            }
            continue;
        }
        // Every cell is at least 2 bytes (tag + payload ≥ 1); bound the row
        // count by the bytes actually present before looping.
        let ncells = nrows.checked_mul(arity as u64).ok_or_else(|| {
            DurableError::corrupt(
                path,
                HEADER as u64 + c.offset(),
                format!("{name}/{arity}: cell count overflows ({nrows} rows)"),
            )
        })?;
        c.check_count(ncells, 2, "cells").map_err(|e| at(&c, e))?;
        let rel = db.relation_mut(pred);
        for r in 0..nrows {
            row.clear();
            for _ in 0..arity {
                let tag = c.u8("cell tag").map_err(|e| at(&c, e))?;
                row.push(match tag {
                    TAG_SYM => {
                        let s = c.u32("sym sid").map_err(|e| at(&c, e))?;
                        Const::Sym(*symbols.get(s as usize).ok_or_else(|| {
                            DurableError::corrupt(
                                path,
                                HEADER as u64 + c.offset(),
                                format!("sym sid {s} out of range ({nstrings} strings)"),
                            )
                        })?)
                    }
                    TAG_INT => Const::Int(c.i64("int cell").map_err(|e| at(&c, e))?),
                    other => {
                        return Err(DurableError::corrupt(
                            path,
                            HEADER as u64 + c.offset(),
                            format!("unknown cell tag {other}"),
                        ))
                    }
                });
            }
            if !rel.insert_row(&row) {
                // Relations are duplicate-free by construction; a duplicate
                // row in a checksum-valid file means the writer was broken,
                // and silently collapsing it would hide real divergence.
                return Err(DurableError::corrupt(
                    path,
                    HEADER as u64 + c.offset(),
                    format!("duplicate row {r} in {name}/{arity}"),
                ));
            }
        }
    }
    if !c.is_empty() {
        return Err(DurableError::corrupt(
            path,
            HEADER as u64 + c.offset(),
            format!("{} trailing bytes after the last relation", c.remaining()),
        ));
    }
    Ok(db)
}

/// Reads and validates the snapshot at `path`.
pub fn read_snapshot(path: &Path) -> Result<Database, DurableError> {
    decode_snapshot(&read_file(path)?, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Database {
        let mut db = Database::new();
        let e = Predicate::new("edge", 2);
        db.insert_row(e, &[Const::sym("a"), Const::sym("b")]);
        db.insert_row(e, &[Const::sym("b"), Const::int(-7)]);
        db.insert_row(Predicate::new("flag", 0), &[]);
        db.insert_row(Predicate::new("n", 1), &[Const::int(42)]);
        db
    }

    fn snap(db: &Database) -> Vec<String> {
        let mut out: Vec<String> = db
            .predicates()
            .into_iter()
            .flat_map(|p| db.atoms_of(p))
            .map(|a| a.to_string())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn roundtrips_databases() {
        let db = sample();
        let p = std::env::temp_dir().join(format!("alexander_snap_{}.snap", std::process::id()));
        write_snapshot(&db, &p).unwrap();
        let back = read_snapshot(&p).unwrap();
        assert_eq!(snap(&db), snap(&back));
        assert_eq!(db.total_tuples(), back.total_tuples());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn roundtrips_empty_database() {
        let bytes = encode_snapshot(&Database::new());
        let back = decode_snapshot(&bytes, Path::new("t")).unwrap();
        assert_eq!(back.total_tuples(), 0);
    }

    #[test]
    fn bad_magic_and_version_are_structured() {
        let err = decode_snapshot(b"NOTASNAP", Path::new("t")).unwrap_err();
        assert!(matches!(err, DurableError::BadMagic { .. }), "{err}");

        let mut bytes = encode_snapshot(&sample());
        bytes[8] = 99; // version field
        let err = decode_snapshot(&bytes, Path::new("t")).unwrap_err();
        assert!(
            matches!(err, DurableError::BadVersion { found: 99, .. }),
            "{err}"
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Flip each bit of a full snapshot; the reader must reject every
        // mutant with a structured error (CRC, length, magic, or version),
        // and never roundtrip to a *different* database silently.
        let db = sample();
        let bytes = encode_snapshot(&db);
        let want = snap(&db);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutant = bytes.clone();
                mutant[i] ^= 1 << bit;
                match decode_snapshot(&mutant, Path::new("t")) {
                    Err(_) => {}
                    Ok(got) => assert_eq!(
                        snap(&got),
                        want,
                        "byte {i} bit {bit}: silent corruption accepted"
                    ),
                }
            }
        }
    }

    #[test]
    fn truncations_are_detected() {
        let bytes = encode_snapshot(&sample());
        for len in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..len], Path::new("t")).is_err(),
                "truncation to {len} bytes accepted"
            );
        }
    }

    #[test]
    fn hostile_row_counts_cannot_loop_or_allocate() {
        // Hand-build a body claiming u64::MAX rows; the count check must
        // reject it before any loop runs. The header CRC is made valid so
        // the structural check is what fires.
        let mut body = Vec::new();
        put_u32(&mut body, 1);
        put_str(&mut body, "p");
        put_u32(&mut body, 1); // one relation
        put_u32(&mut body, 0); // name sid
        put_u32(&mut body, 3); // arity
        put_u64(&mut body, u64::MAX); // rows
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_u32(&mut bytes, VERSION);
        put_u64(&mut bytes, body.len() as u64);
        put_u32(&mut bytes, crc32(&body));
        bytes.extend_from_slice(&body);
        let err = decode_snapshot(&bytes, Path::new("t")).unwrap_err();
        assert!(
            err.to_string().contains("overflows") || err.to_string().contains("impossible"),
            "{err}"
        );
    }

    #[test]
    fn arity_zero_overclaims_are_rejected() {
        let mut body = Vec::new();
        put_u32(&mut body, 1);
        put_str(&mut body, "flag");
        put_u32(&mut body, 1);
        put_u32(&mut body, 0); // name sid
        put_u32(&mut body, 0); // arity 0
        put_u64(&mut body, 2); // two empty rows: impossible
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_u32(&mut bytes, VERSION);
        put_u64(&mut bytes, body.len() as u64);
        put_u32(&mut bytes, crc32(&body));
        bytes.extend_from_slice(&body);
        let err = decode_snapshot(&bytes, Path::new("t")).unwrap_err();
        assert!(err.to_string().contains("arity-0"), "{err}");
    }
}
