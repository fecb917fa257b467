//! Write-ahead log of EDB deltas.
//!
//! ## Format (version 1, little-endian)
//!
//! ```text
//! [0..8)   magic  "ALEXWAL0"
//! [8..12)  u32    version (1)
//! then zero or more frames:
//!   u32 payload_len
//!   u32 payload_crc       — CRC32 of the payload bytes
//!   payload:
//!     u64 seq             — 1, 2, 3, … strictly sequential
//!     u32 nrecords
//!     per record:
//!       u8  op            — 0 insert, 1 delete
//!       u32 name_len; UTF-8 predicate name
//!       u32 arity
//!       arity cells       — u8 tag; tag 0 (sym): u32 len + UTF-8
//!                                   tag 1 (int): i64
//!   u8 commit marker (0xC3)
//! ```
//!
//! Unlike the snapshot, WAL symbols are inlined as strings per cell: a log
//! grows by appends only, so there is no moment to build a global string
//! table, and batches must be self-contained to replay after any prefix.
//!
//! ## The torn-tail rule
//!
//! Appends go through one `write_all` per frame, so a crash leaves a
//! *prefix* of a valid frame at the end of the file. The reader therefore
//! distinguishes two shapes of bad bytes:
//!
//! * **Torn tail** — the file ends before a frame is complete (fewer than 8
//!   header bytes remain, or `payload_len + 1` more bytes were promised than
//!   exist). This is what a crash produces. Not an error: the reader returns
//!   every committed batch before it plus the offset to truncate at.
//! * **Corruption** — a frame whose bytes are all present but whose checksum,
//!   commit marker, sequence number, or payload structure is wrong. No crash
//!   of an append-only writer can produce this, so it is rejected with
//!   [`DurableError::Corrupt`] rather than silently dropped.

use crate::codec::{put_i64, put_str, put_u32, put_u64, put_u8, Cursor};
use crate::crc::crc32;
use crate::error::DurableError;
use crate::io::{read_file, FaultFile};
use alexander_ir::{Atom, Const, Predicate, Symbol};
use alexander_storage::{row_atom, Database};
use std::path::Path;

const MAGIC: &[u8; 8] = b"ALEXWAL0";
const VERSION: u32 = 1;
/// Bytes before the first frame: magic + version.
pub const WAL_HEADER: u64 = 12;
const COMMIT: u8 = 0xC3;

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;
const TAG_SYM: u8 = 0;
const TAG_INT: u8 = 1;

/// One logged EDB mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    pub op: Op,
    pub pred: Predicate,
    pub values: Vec<Const>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Insert,
    Delete,
}

impl WalRecord {
    /// The record as a ground atom.
    pub fn atom(&self) -> Atom {
        row_atom(self.pred.name, &self.values)
    }
}

/// One committed batch: records that became visible atomically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalBatch {
    pub seq: u64,
    pub records: Vec<WalRecord>,
}

/// Everything a WAL read yields: the committed prefix plus where it ends.
#[derive(Debug)]
pub struct WalContents {
    pub batches: Vec<WalBatch>,
    /// Byte length of the valid prefix (header + committed frames). A torn
    /// tail, if any, starts here; recovery truncates the file to this.
    pub valid_len: u64,
    /// Whether bytes past `valid_len` existed (a torn tail was cut off).
    pub torn: bool,
}

/// Append-only WAL writer. All bytes flow through [`FaultFile`] under the
/// failpoint site `"durable-wal-io"`.
pub struct Wal {
    file: FaultFile,
    next_seq: u64,
}

impl Wal {
    /// Creates a fresh (truncated) WAL containing only the header.
    pub fn create(path: &Path) -> Result<Wal, DurableError> {
        let mut file = FaultFile::create(path, "durable-wal-io")?;
        let mut header = Vec::with_capacity(WAL_HEADER as usize);
        header.extend_from_slice(MAGIC);
        put_u32(&mut header, VERSION);
        file.write_all(&header)?;
        file.sync()?;
        Ok(Wal { file, next_seq: 1 })
    }

    /// Opens an existing WAL for appending after `contents` was read from it
    /// (recovery truncates any torn tail first, then appends go after the
    /// last committed frame).
    pub fn open_append(path: &Path, contents: &WalContents) -> Result<Wal, DurableError> {
        let mut file = FaultFile::open_append(path, "durable-wal-io")?;
        if contents.torn || file.position() != contents.valid_len {
            file.truncate(contents.valid_len)?;
        }
        Ok(Wal {
            file,
            next_seq: contents.batches.last().map_or(0, |b| b.seq) + 1,
        })
    }

    /// Sequence number the next committed batch will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes of committed log (header included).
    pub fn len(&self) -> u64 {
        self.file.position()
    }

    pub fn is_empty(&self) -> bool {
        self.len() <= WAL_HEADER
    }

    /// Appends one batch as a single frame and fsyncs it. On return the
    /// batch is durable; on error the file may hold a torn tail that the
    /// next recovery truncates.
    pub fn append_batch(&mut self, records: &[WalRecord]) -> Result<u64, DurableError> {
        let seq = self.next_seq;
        let mut payload = Vec::new();
        put_u64(&mut payload, seq);
        put_u32(&mut payload, records.len() as u32);
        for r in records {
            put_u8(
                &mut payload,
                if r.op == Op::Insert {
                    OP_INSERT
                } else {
                    OP_DELETE
                },
            );
            put_str(&mut payload, r.pred.name.as_str());
            put_u32(&mut payload, r.pred.arity as u32);
            for c in &r.values {
                match c {
                    Const::Sym(s) => {
                        put_u8(&mut payload, TAG_SYM);
                        put_str(&mut payload, s.as_str());
                    }
                    Const::Int(n) => {
                        put_u8(&mut payload, TAG_INT);
                        put_i64(&mut payload, *n);
                    }
                }
            }
        }
        let mut frame = Vec::with_capacity(9 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        put_u8(&mut frame, COMMIT);
        self.file.write_all(&frame)?;
        self.file.sync()?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Discards every logged batch (after a checkpoint made them redundant),
    /// leaving just the header. Sequence numbering restarts at 1.
    pub fn truncate_to_header(&mut self) -> Result<(), DurableError> {
        self.file.truncate(WAL_HEADER)?;
        self.next_seq = 1;
        Ok(())
    }
}

/// Parses WAL bytes. Torn tails are data (see module docs); everything else
/// wrong is a structured error.
pub fn decode_wal(bytes: &[u8], path: &Path) -> Result<WalContents, DurableError> {
    if bytes.len() < 8 || &bytes[..8] != MAGIC {
        return Err(DurableError::BadMagic {
            path: path.to_path_buf(),
            expected: "wal",
        });
    }
    // The header is read through the cursor rather than a sized slice: a
    // file cut inside the version field surfaces as a structured error,
    // never a slice panic.
    let version = Cursor::new(&bytes[8..])
        .u32("version")
        .map_err(|e| DurableError::corrupt(path, 8, e.detail))?;
    if version != VERSION {
        return Err(DurableError::BadVersion {
            path: path.to_path_buf(),
            found: version,
            supported: VERSION,
        });
    }

    let mut batches = Vec::new();
    let mut pos = WAL_HEADER as usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(WalContents {
                batches,
                valid_len: pos as u64,
                torn: false,
            });
        }
        let torn = |batches: Vec<WalBatch>| {
            Ok(WalContents {
                batches,
                valid_len: pos as u64,
                torn: true,
            })
        };
        // The 8-byte frame header (payload length + CRC) is read through
        // the cursor over whatever bytes remain: a file that ends inside
        // the header is a torn tail by construction, not a sized-slice
        // invariant that could ever panic.
        let mut head = Cursor::new(&bytes[pos..]);
        let (payload_len, want_crc) = match (head.u32("payload length"), head.u32("payload crc")) {
            (Ok(len), Ok(crc)) => (len as usize, crc),
            _ => return torn(batches),
        };
        if payload_len as u64 + 1 > (remaining - 8) as u64 {
            // The frame promises more bytes than the file has: the append
            // died mid-frame.
            return torn(batches);
        }
        let payload = &bytes[pos + 8..pos + 8 + payload_len];
        let marker = bytes[pos + 8 + payload_len];
        if crc32(payload) != want_crc {
            return Err(DurableError::corrupt(
                path,
                pos as u64,
                "frame checksum mismatch before the tail",
            ));
        }
        if marker != COMMIT {
            return Err(DurableError::corrupt(
                path,
                (pos + 8 + payload_len) as u64,
                format!("bad commit marker {marker:#04x}"),
            ));
        }
        let batch = decode_payload(payload, path, pos as u64 + 8)?;
        let want_seq = batches.last().map_or(0, |b: &WalBatch| b.seq) + 1;
        if batch.seq != want_seq {
            return Err(DurableError::corrupt(
                path,
                pos as u64 + 8,
                format!(
                    "sequence gap: frame carries seq {}, expected {want_seq}",
                    batch.seq
                ),
            ));
        }
        batches.push(batch);
        pos += 8 + payload_len + 1;
    }
}

/// Decodes one checksum-valid frame payload. Structural garbage here means
/// the writer was broken (the CRC already matched), so it is `Corrupt`.
fn decode_payload(payload: &[u8], path: &Path, base: u64) -> Result<WalBatch, DurableError> {
    let mut c = Cursor::new(payload);
    let at = |c: &Cursor, e: crate::codec::CodecError| {
        DurableError::corrupt(path, base + c.offset(), e.detail)
    };
    let seq = c.u64("seq").map_err(|e| at(&c, e))?;
    let nrecords = c.u32("record count").map_err(|e| at(&c, e))?;
    // Each record is at least op + name len + arity = 9 bytes.
    c.check_count(nrecords as u64, 9, "records")
        .map_err(|e| at(&c, e))?;
    let mut records = Vec::with_capacity(nrecords as usize);
    for _ in 0..nrecords {
        let op = match c.u8("op").map_err(|e| at(&c, e))? {
            OP_INSERT => Op::Insert,
            OP_DELETE => Op::Delete,
            other => {
                return Err(DurableError::corrupt(
                    path,
                    base + c.offset(),
                    format!("unknown wal op {other}"),
                ))
            }
        };
        let name = Symbol::intern(c.str_("predicate name").map_err(|e| at(&c, e))?);
        let arity = c.u32("arity").map_err(|e| at(&c, e))? as usize;
        c.check_count(arity as u64, 2, "cells")
            .map_err(|e| at(&c, e))?;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            let tag = c.u8("cell tag").map_err(|e| at(&c, e))?;
            values.push(match tag {
                TAG_SYM => Const::Sym(Symbol::intern(c.str_("sym cell").map_err(|e| at(&c, e))?)),
                TAG_INT => Const::Int(c.i64("int cell").map_err(|e| at(&c, e))?),
                other => {
                    return Err(DurableError::corrupt(
                        path,
                        base + c.offset(),
                        format!("unknown cell tag {other}"),
                    ))
                }
            });
        }
        records.push(WalRecord {
            op,
            pred: Predicate { name, arity },
            values,
        });
    }
    if !c.is_empty() {
        return Err(DurableError::corrupt(
            path,
            base + c.offset(),
            format!("{} trailing bytes in frame payload", c.remaining()),
        ));
    }
    Ok(WalBatch { seq, records })
}

/// Reads and validates the WAL at `path`.
pub fn read_wal(path: &Path) -> Result<WalContents, DurableError> {
    decode_wal(&read_file(path)?, path)
}

/// Applies one batch's records, in order, to an EDB [`Database`]. This is
/// the one fold from logged records to stored facts: commit, recovery, the
/// CLI's `--recover` and the in-memory server all go through it, so a
/// replayed batch lands exactly where its live commit did.
pub fn apply_to_database(records: &[WalRecord], db: &mut Database) {
    for r in records {
        match r.op {
            Op::Insert => db.insert_row(r.pred, &r.values),
            Op::Delete => db.remove_row(r.pred, &r.values),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("alexander_wal_{name}_{}", std::process::id()))
    }

    fn rec(op: Op, pred: &str, values: Vec<Const>) -> WalRecord {
        WalRecord {
            op,
            pred: Predicate::new(pred, values.len()),
            values,
        }
    }

    fn sym2(op: Op, pred: &str, a: &str, b: &str) -> WalRecord {
        rec(op, pred, vec![Const::sym(a), Const::sym(b)])
    }

    #[test]
    fn roundtrips_batches() {
        let p = tmp("rt");
        let b1 = vec![
            sym2(Op::Insert, "edge", "a", "b"),
            rec(Op::Insert, "score", vec![Const::sym("a"), Const::int(3)]),
        ];
        let b2 = vec![sym2(Op::Delete, "edge", "a", "b")];
        let mut wal = Wal::create(&p).unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.append_batch(&b1).unwrap(), 1);
        assert_eq!(wal.append_batch(&b2).unwrap(), 2);
        drop(wal);
        let got = read_wal(&p).unwrap();
        assert!(!got.torn);
        assert_eq!(got.batches.len(), 2);
        assert_eq!(got.batches[0].records, b1);
        assert_eq!(got.batches[1].records, b2);
        assert_eq!(got.valid_len, std::fs::metadata(&p).unwrap().len());

        // Reopen for append and keep numbering.
        let mut wal = Wal::open_append(&p, &got).unwrap();
        assert_eq!(wal.next_seq(), 3);
        wal.append_batch(&[sym2(Op::Insert, "edge", "b", "c")])
            .unwrap();
        drop(wal);
        assert_eq!(read_wal(&p).unwrap().batches.len(), 3);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_batches_commit() {
        let p = tmp("empty");
        let mut wal = Wal::create(&p).unwrap();
        wal.append_batch(&[]).unwrap();
        drop(wal);
        let got = read_wal(&p).unwrap();
        assert_eq!(got.batches.len(), 1);
        assert!(got.batches[0].records.is_empty());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn every_truncation_is_clean_or_torn_never_corrupt() {
        // Cut the log after every byte length: each prefix must parse as the
        // committed batches it fully contains, flagged torn iff cut mid-frame.
        // This is the torn-tail rule stated byte-exactly.
        let p = tmp("cuts");
        let mut wal = Wal::create(&p).unwrap();
        wal.append_batch(&[sym2(Op::Insert, "edge", "a", "b")])
            .unwrap();
        let one_batch = wal.len();
        wal.append_batch(&[
            sym2(Op::Delete, "edge", "a", "b"),
            sym2(Op::Insert, "edge", "b", "c"),
        ])
        .unwrap();
        drop(wal);
        let bytes = std::fs::read(&p).unwrap();
        std::fs::remove_file(&p).ok();

        for len in WAL_HEADER as usize..=bytes.len() {
            let got = decode_wal(&bytes[..len], Path::new("t")).unwrap_or_else(|e| {
                panic!("prefix of {len} bytes rejected: {e}");
            });
            let complete = [(WAL_HEADER, 0), (one_batch, 1), (bytes.len() as u64, 2)]
                .iter()
                .rev()
                .find(|(end, _)| len as u64 >= *end)
                .map(|&(end, n)| (end, n))
                .unwrap();
            assert_eq!(got.batches.len(), complete.1, "prefix {len}");
            assert_eq!(got.valid_len, complete.0, "prefix {len}");
            assert_eq!(got.torn, (len as u64) != complete.0, "prefix {len}");
        }
        for len in 0..WAL_HEADER as usize {
            assert!(decode_wal(&bytes[..len], Path::new("t")).is_err());
        }
    }

    #[test]
    fn mid_file_corruption_is_rejected_not_truncated() {
        let p = tmp("midcorrupt");
        let mut wal = Wal::create(&p).unwrap();
        wal.append_batch(&[sym2(Op::Insert, "edge", "a", "b")])
            .unwrap();
        wal.append_batch(&[sym2(Op::Insert, "edge", "b", "c")])
            .unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&p).unwrap();
        std::fs::remove_file(&p).ok();
        // Flip a payload byte of the FIRST frame: a crash cannot explain
        // damage that has committed data after it.
        bytes[WAL_HEADER as usize + 10] ^= 0x40;
        let err = decode_wal(&bytes, Path::new("t")).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn sequence_gaps_are_rejected() {
        let p = tmp("seqgap");
        let mut wal = Wal::create(&p).unwrap();
        wal.append_batch(&[]).unwrap();
        wal.append_batch(&[]).unwrap();
        drop(wal);
        let bytes = std::fs::read(&p).unwrap();
        std::fs::remove_file(&p).ok();
        // Drop the first frame, keeping the second (seq 2) right after the
        // header: replaying it without batch 1 would be silent data loss.
        let frame1_end = {
            let len = u32::from_le_bytes(
                bytes[WAL_HEADER as usize..WAL_HEADER as usize + 4]
                    .try_into()
                    .unwrap(),
            ) as usize;
            WAL_HEADER as usize + 8 + len + 1
        };
        let mut spliced = bytes[..WAL_HEADER as usize].to_vec();
        spliced.extend_from_slice(&bytes[frame1_end..]);
        let err = decode_wal(&spliced, Path::new("t")).unwrap_err();
        assert!(err.to_string().contains("sequence gap"), "{err}");
    }

    #[test]
    fn truncate_to_header_resets() {
        let p = tmp("reset");
        let mut wal = Wal::create(&p).unwrap();
        wal.append_batch(&[sym2(Op::Insert, "edge", "a", "b")])
            .unwrap();
        wal.truncate_to_header().unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.next_seq(), 1);
        wal.append_batch(&[sym2(Op::Insert, "edge", "x", "y")])
            .unwrap();
        drop(wal);
        let got = read_wal(&p).unwrap();
        assert_eq!(got.batches.len(), 1);
        assert_eq!(got.batches[0].seq, 1);
        assert_eq!(got.batches[0].records[0].atom().to_string(), "edge(x, y)");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn apply_to_database_replays_inserts_and_deletes() {
        let mut db = Database::new();
        let ab = sym2(Op::Insert, "edge", "a", "b");
        let bc = sym2(Op::Insert, "edge", "b", "c");
        apply_to_database(&[ab.clone(), bc.clone()], &mut db);
        apply_to_database(&[sym2(Op::Delete, "edge", "a", "b")], &mut db);
        assert!(!db.contains_atom(&ab.atom()));
        assert!(db.contains_atom(&bc.atom()));
        assert_eq!(db.total_tuples(), 1);
    }
}
