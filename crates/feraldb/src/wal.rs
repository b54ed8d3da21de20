//! Write-ahead logging and recovery.
//!
//! The experiments themselves run in memory, but a database a downstream
//! user would adopt needs a durability story, so the engine can bind a
//! redo log: every DDL statement and every commit appends one
//! checksummed, length-framed record; [`crate::Database::open`] replays
//! the log to rebuild state (stopping cleanly at a torn tail, so a crash
//! mid-append loses at most the in-flight transaction).
//!
//! Format (all integers little-endian):
//!
//! ```text
//! record   := len:u32  payload:[u8; len]  checksum:u64 (FNV-1a of payload)
//! payload  := tag:u8 body
//! tag 1    := CreateTable  name, columns...
//! tag 2    := CreateIndex  name, table, cols..., unique
//! tag 3    := AddForeignKey child, col, parent, on_delete
//! tag 4    := Commit commit_ts:u64, writes...
//! ```

use crate::error::{DbError, DbResult};
use crate::value::{DataType, Datum, Tuple};
use feral_hooks::fnv64;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One replayable log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table was created.
    CreateTable {
        /// Table name.
        name: String,
        /// `(column name, type, not_null)` triples, including `id`.
        columns: Vec<(String, DataType, bool)>,
    },
    /// An index was created.
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table name.
        table: String,
        /// Indexed column names.
        columns: Vec<String>,
        /// UNIQUE?
        unique: bool,
    },
    /// A foreign key was declared.
    AddForeignKey {
        /// Child table name.
        child: String,
        /// Child column name.
        column: String,
        /// Parent table name.
        parent: String,
        /// 0 = restrict, 1 = cascade, 2 = set null.
        on_delete: u8,
    },
    /// A transaction committed.
    Commit {
        /// Commit timestamp.
        commit_ts: u64,
        /// Applied writes, in application order.
        writes: Vec<WalWrite>,
    },
}

/// One write inside a committed transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum WalWrite {
    /// A row was inserted into `table` (positional row id recorded for
    /// verification during replay).
    Insert {
        /// Table name.
        table: Arc<str>,
        /// Heap position assigned at commit.
        row: u64,
        /// Row image.
        tuple: Tuple,
    },
    /// Row `row` of `table` was replaced with `tuple`.
    Update {
        /// Table name.
        table: Arc<str>,
        /// Heap position.
        row: u64,
        /// New row image.
        tuple: Tuple,
    },
    /// Row `row` of `table` was deleted.
    Delete {
        /// Table name.
        table: Arc<str>,
        /// Heap position.
        row: u64,
    },
}

// --- encoding helpers --------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}
fn put_datum(out: &mut Vec<u8>, d: &Datum) {
    match d {
        Datum::Null => out.push(0),
        Datum::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Datum::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Datum::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Datum::Text(s) => {
            out.push(4);
            put_str(out, s);
        }
        Datum::Bytes(b) => {
            out.push(5);
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
        Datum::Timestamp(t) => {
            out.push(6);
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
}
fn put_tuple(out: &mut Vec<u8>, t: &[Datum]) {
    put_u32(out, t.len() as u32);
    for d in t {
        put_datum(out, d);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(DbError::Internal("truncated WAL payload".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> DbResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> DbResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> DbResult<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| DbError::Internal("invalid UTF-8 in WAL".into()))
    }
    fn string(&mut self) -> DbResult<String> {
        self.str().map(str::to_owned)
    }
    fn datum(&mut self) -> DbResult<Datum> {
        Ok(match self.u8()? {
            0 => Datum::Null,
            1 => Datum::Bool(self.u8()? != 0),
            2 => Datum::Int(self.i64()?),
            3 => Datum::Float(f64::from_bits(self.u64()?)),
            // built from the frame's bytes, with no `String` in between
            4 => Datum::text(self.str()?),
            5 => {
                let n = self.u32()? as usize;
                Datum::Bytes(self.take(n)?.into())
            }
            6 => Datum::Timestamp(self.i64()?),
            t => return Err(DbError::Internal(format!("unknown datum tag {t}"))),
        })
    }
    fn tuple(&mut self) -> DbResult<Tuple> {
        let n = self.u32()? as usize;
        let mut t = Vec::with_capacity(n);
        for _ in 0..n {
            t.push(self.datum()?);
        }
        Ok(t)
    }
}

fn data_type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Bytes => 4,
        DataType::Timestamp => 5,
    }
}
fn tag_data_type(tag: u8) -> DbResult<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Bytes,
        5 => DataType::Timestamp,
        t => return Err(DbError::Internal(format!("unknown type tag {t}"))),
    })
}

impl WalRecord {
    /// Serialize the payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            WalRecord::CreateTable { name, columns } => {
                out.push(1);
                put_str(&mut out, name);
                put_u32(&mut out, columns.len() as u32);
                for (n, ty, not_null) in columns {
                    put_str(&mut out, n);
                    out.push(data_type_tag(*ty));
                    out.push(*not_null as u8);
                }
            }
            WalRecord::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => {
                out.push(2);
                put_str(&mut out, name);
                put_str(&mut out, table);
                put_u32(&mut out, columns.len() as u32);
                for c in columns {
                    put_str(&mut out, c);
                }
                out.push(*unique as u8);
            }
            WalRecord::AddForeignKey {
                child,
                column,
                parent,
                on_delete,
            } => {
                out.push(3);
                put_str(&mut out, child);
                put_str(&mut out, column);
                put_str(&mut out, parent);
                out.push(*on_delete);
            }
            WalRecord::Commit { commit_ts, writes } => {
                out.push(4);
                put_u64(&mut out, *commit_ts);
                put_u32(&mut out, writes.len() as u32);
                for w in writes {
                    match w {
                        WalWrite::Insert { table, row, tuple } => {
                            out.push(0);
                            put_str(&mut out, table);
                            put_u64(&mut out, *row);
                            put_tuple(&mut out, tuple);
                        }
                        WalWrite::Update { table, row, tuple } => {
                            out.push(1);
                            put_str(&mut out, table);
                            put_u64(&mut out, *row);
                            put_tuple(&mut out, tuple);
                        }
                        WalWrite::Delete { table, row } => {
                            out.push(2);
                            put_str(&mut out, table);
                            put_u64(&mut out, *row);
                        }
                    }
                }
            }
        }
        out
    }

    /// Deserialize a payload.
    pub fn decode(payload: &[u8]) -> DbResult<WalRecord> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let record = match r.u8()? {
            1 => {
                let name = r.string()?;
                let n = r.u32()? as usize;
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    let cname = r.string()?;
                    let ty = tag_data_type(r.u8()?)?;
                    let not_null = r.u8()? != 0;
                    columns.push((cname, ty, not_null));
                }
                WalRecord::CreateTable { name, columns }
            }
            2 => {
                let name = r.string()?;
                let table = r.string()?;
                let n = r.u32()? as usize;
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    columns.push(r.string()?);
                }
                let unique = r.u8()? != 0;
                WalRecord::CreateIndex {
                    name,
                    table,
                    columns,
                    unique,
                }
            }
            3 => WalRecord::AddForeignKey {
                child: r.string()?,
                column: r.string()?,
                parent: r.string()?,
                on_delete: r.u8()?,
            },
            4 => {
                let commit_ts = r.u64()?;
                let n = r.u32()? as usize;
                let mut writes = Vec::with_capacity(n);
                for _ in 0..n {
                    let w = match r.u8()? {
                        0 => WalWrite::Insert {
                            table: r.string()?.into(),
                            row: r.u64()?,
                            tuple: r.tuple()?,
                        },
                        1 => WalWrite::Update {
                            table: r.string()?.into(),
                            row: r.u64()?,
                            tuple: r.tuple()?,
                        },
                        2 => WalWrite::Delete {
                            table: r.string()?.into(),
                            row: r.u64()?,
                        },
                        t => return Err(DbError::Internal(format!("unknown write tag {t}"))),
                    };
                    writes.push(w);
                }
                WalRecord::Commit { commit_ts, writes }
            }
            t => return Err(DbError::Internal(format!("unknown record tag {t}"))),
        };
        if r.pos != payload.len() {
            return Err(DbError::Internal("trailing bytes in WAL record".into()));
        }
        Ok(record)
    }
}

/// Frame one record for the log: `len:u32 payload checksum:u64`.
pub fn frame_record(record: &WalRecord) -> Vec<u8> {
    let payload = record.encode();
    let mut framed = Vec::with_capacity(payload.len() + 12);
    put_u32(&mut framed, payload.len() as u32);
    framed.extend_from_slice(&payload);
    put_u64(&mut framed, fnv64(&payload));
    framed
}

/// An append-only log writer.
pub struct WalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    /// Call `sync_data` after every flush (group commit amortizes this).
    sync: bool,
    /// Fault injection for crash tests: remaining byte budget. When a
    /// write would exceed it, only the bytes within budget reach the file
    /// (a torn tail) and the write errors.
    fail_after: Option<u64>,
}

impl WalWriter {
    /// Open (creating or appending).
    pub fn open(path: &Path) -> DbResult<WalWriter> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| DbError::Internal(format!("open WAL {path:?}: {e}")))?;
        Ok(WalWriter {
            file: BufWriter::new(file),
            path: path.to_path_buf(),
            sync: false,
            fail_after: None,
        })
    }

    /// Enable/disable `sync_data` after each flush.
    pub fn set_sync(&mut self, sync: bool) {
        self.sync = sync;
    }

    /// Arm (or disarm, with `None`) the torn-write failpoint: after
    /// `budget` more bytes, writes tear and error.
    pub fn set_fail_after(&mut self, budget: Option<u64>) {
        self.fail_after = budget;
    }

    /// Append one record and flush (+ sync when configured).
    pub fn append(&mut self, record: &WalRecord) -> DbResult<()> {
        self.write_frames(&frame_record(record))
    }

    /// Write pre-framed bytes (one or more records), flush, and sync when
    /// configured. The group-commit leader calls this once per batch.
    pub fn write_frames(&mut self, framed: &[u8]) -> DbResult<()> {
        if let Some(budget) = self.fail_after {
            if (framed.len() as u64) > budget {
                // Tear: the prefix within budget reaches the file, the
                // rest is lost, and the caller sees an I/O error.
                let torn = &framed[..budget as usize];
                let _ = self.file.write_all(torn);
                let _ = self.file.flush();
                self.fail_after = Some(0);
                return Err(DbError::Internal(format!(
                    "append WAL {:?}: injected torn write after {budget} bytes",
                    self.path
                )));
            }
            self.fail_after = Some(budget - framed.len() as u64);
        }
        self.file
            .write_all(framed)
            .and_then(|_| self.file.flush())
            .map_err(|e| DbError::Internal(format!("append WAL {:?}: {e}", self.path)))?;
        if self.sync {
            self.file
                .get_ref()
                .sync_data()
                .map_err(|e| DbError::Internal(format!("sync WAL {:?}: {e}", self.path)))?;
        }
        Ok(())
    }
}

/// Read every intact record from a log file; a torn or corrupt tail ends
/// the stream silently (crash semantics). Returns the records and the
/// byte offset of the end of the last valid record — recovery must
/// truncate the file there before appending, or post-recovery commits
/// would land behind unreadable garbage.
pub fn read_log(path: &Path) -> DbResult<(Vec<WalRecord>, u64)> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| DbError::Internal(format!("read WAL {path:?}: {e}")))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(DbError::Internal(format!("open WAL {path:?}: {e}"))),
    }
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let payload_start = pos + 4;
        let checksum_start = payload_start + len;
        let next = checksum_start + 8;
        if next > bytes.len() {
            break; // torn tail
        }
        let payload = &bytes[payload_start..checksum_start];
        let checksum = u64::from_le_bytes(bytes[checksum_start..next].try_into().unwrap());
        if fnv64(payload) != checksum {
            break; // corrupt tail
        }
        match WalRecord::decode(payload) {
            Ok(r) => out.push(r),
            Err(_) => break,
        }
        pos = next;
    }
    Ok((out, pos as u64))
}

/// Truncate the log to `valid_len`, dropping a torn/corrupt tail.
pub fn truncate_log(path: &Path, valid_len: u64) -> DbResult<()> {
    match OpenOptions::new().write(true).open(path) {
        Ok(f) => f
            .set_len(valid_len)
            .map_err(|e| DbError::Internal(format!("truncate WAL {path:?}: {e}"))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(DbError::Internal(format!("open WAL {path:?}: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                name: "users".into(),
                columns: vec![
                    ("id".into(), DataType::Int, true),
                    ("name".into(), DataType::Text, false),
                ],
            },
            WalRecord::CreateIndex {
                name: "index_users_on_name".into(),
                table: "users".into(),
                columns: vec!["name".into()],
                unique: true,
            },
            WalRecord::AddForeignKey {
                child: "posts".into(),
                column: "user_id".into(),
                parent: "users".into(),
                on_delete: 1,
            },
            WalRecord::Commit {
                commit_ts: 42,
                writes: vec![
                    WalWrite::Insert {
                        table: "users".into(),
                        row: 0,
                        tuple: vec![
                            Datum::Int(1),
                            Datum::text("peter"),
                            Datum::Null,
                            Datum::Float(1.5),
                            Datum::Bool(true),
                            Datum::Bytes([1, 2, 0, 3].into()),
                            Datum::Timestamp(-7),
                        ],
                    },
                    WalWrite::Update {
                        table: "users".into(),
                        row: 0,
                        tuple: vec![Datum::Int(1), Datum::text("pete")],
                    },
                    WalWrite::Delete {
                        table: "users".into(),
                        row: 0,
                    },
                ],
            },
        ]
    }

    #[test]
    fn records_roundtrip() {
        for r in sample_records() {
            let enc = r.encode();
            let dec = WalRecord::decode(&enc).unwrap();
            assert_eq!(r, dec);
        }
    }

    #[test]
    fn write_then_read_log() {
        let dir = std::env::temp_dir().join(format!("feral-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = WalWriter::open(&path).unwrap();
            for r in sample_records() {
                w.append(&r).unwrap();
            }
        }
        let (read, valid) = read_log(&path).unwrap();
        assert_eq!(read, sample_records());
        assert_eq!(valid, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_cleanly() {
        let dir = std::env::temp_dir().join(format!("feral-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = WalWriter::open(&path).unwrap();
            for r in sample_records() {
                w.append(&r).unwrap();
            }
        }
        // truncate mid-record
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (read, valid) = read_log(&path).unwrap();
        assert_eq!(read.len(), sample_records().len() - 1);
        assert!(valid < std::fs::metadata(&path).unwrap().len());
        // truncation drops the tail; a re-read sees a clean file
        truncate_log(&path, valid).unwrap();
        assert_eq!(valid, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_ends_the_stream() {
        let dir = std::env::temp_dir().join(format!("feral-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = WalWriter::open(&path).unwrap();
            for r in sample_records() {
                w.append(&r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // flip a byte inside the first record's payload
        bytes[6] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (read, _) = read_log(&path).unwrap();
        assert!(read.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let path = std::env::temp_dir().join("feral-wal-definitely-missing.wal");
        let _ = std::fs::remove_file(&path);
        assert!(read_log(&path).unwrap().0.is_empty());
    }
}
