//! What a transaction read: the one record Serializable validation and
//! the runtime auditor read. Each reading statement opens one entry, in
//! engine ids — the table, the timestamp it read at, the committed rows
//! it returned, the equality pairs of its predicate — which is kept only
//! for a reader: at Serializable, or when the auditor samples the
//! transaction. Opening an entry reports the table-grain access to a
//! schedule hook either way.

use crate::db::TableEntry;
use crate::heap::RowId;
use crate::predicate::Predicate;
use crate::schema::TableId;
use crate::txn::CommittedWrite;
use crate::value::Datum;
use feral_audit::{ReadRecord, ReadTarget, WriteRecord};
use feral_hooks::AccessMode;
use std::sync::Arc;

/// A transaction's reads.
#[derive(Default)]
pub(crate) struct Footprint {
    /// Serializable validation reads the record: a statement then hands
    /// [`Footprint::open`] its table entry.
    pub(crate) validated: bool,
    /// The auditor samples this transaction.
    pub(crate) audited: bool,
    reads: Vec<Read>,
}

/// One statement's read.
pub(crate) struct Read {
    pub(crate) table: TableId,
    /// The table's `TableEntry::name_hash`: the auditor's and the
    /// explorer's name for it.
    pub(crate) name_hash: u64,
    /// The table as the statement read it — its heap and the indexes it
    /// had — kept for validation only.
    entry: Option<Arc<TableEntry>>,
    read_ts: u64,
    /// The committed rows it returned.
    rows: Vec<RowId>,
    /// The `(column, value)` equality pairs of the predicate it read by,
    /// none for the whole table; `None` for a locking read, which reads
    /// its rows only, or for a predicate nobody keeps.
    pred: Option<Vec<(usize, Datum)>>,
    /// Whether validation checks the predicate: `Config::pg_ssi_bug`
    /// hides one no index served from validation, not from the auditor.
    pred_validated: bool,
}

/// Report a table-grain access to a schedule hook (a no-op without one),
/// for the step footprint explorers compute happens-before from.
pub(crate) fn note_table_access(name_hash: u64, mode: AccessMode) {
    feral_hooks::note_access(feral_hooks::Access {
        space: "table",
        what: name_hash,
        mode,
    });
}

impl Read {
    /// Why a commit after `snapshot` overwrote what this read saw — one
    /// of its rows, or a row its predicate matches before or after the
    /// write — if one did. The versions answer: the caller holds the
    /// commit latch of the read's table, so no install interleaves, and
    /// vacuum keeps every version and posting a snapshot still open can
    /// reach.
    pub(crate) fn overwritten_since(&self, snapshot: u64) -> Option<String> {
        let entry = self
            .entry
            .as_deref()
            .expect("a validated read keeps its table");
        let (heap, t) = (&entry.heap, self.table.0);
        let written = |row: &&RowId| heap.row_written_since(**row, snapshot, |_| true);
        if let Some(row) = self.rows.iter().find(written) {
            return Some(format!("row {t}.{row} was concurrently written"));
        }
        let pairs = self.pred.as_deref().filter(|_| self.pred_validated)?;
        let matches = |image: &[Datum]| {
            pairs
                .iter()
                .all(|(c, v)| image.get(*c).is_some_and(|d| d.sql_eq(v) == Some(true)))
        };
        let value_of = |col| pairs.iter().find(|(c, _)| *c == col).map(|(_, v)| v);
        let probe = entry
            .indexes
            .iter()
            .find_map(|idx| Some((idx, idx.probe_key(value_of)?)));
        let hit = match (pairs, probe) {
            ([], _) => heap.written_since(snapshot),
            // a write moving a row out of the key leaves its old posting,
            // so the probe finds rows that left the predicate as well
            (_, Some((idx, key))) => {
                idx.any_row(&key, |row| heap.row_written_since(row, snapshot, matches))
            }
            (_, None) => heap.any_written_since(snapshot, matches),
        };
        hit.then(|| match pairs {
            [] => format!("table {t} was concurrently written under a full-scan read"),
            _ => format!("predicate read on table {t} was concurrently invalidated"),
        })
    }
}

impl Footprint {
    /// The record of a transaction that Serializable validation reads
    /// (`validated`) or the auditor samples (`audited`).
    pub(crate) fn new(validated: bool, audited: bool) -> Self {
        Footprint {
            validated,
            audited,
            ..Footprint::default()
        }
    }

    /// A statement reads `table`, whose name hashes to `name_hash`, at
    /// `read_ts`; a schedule hook is told of a `mode` access. `entry`,
    /// the table as the statement read it, is kept for validation.
    pub(crate) fn open(
        &mut self,
        table: TableId,
        name_hash: u64,
        entry: Option<Arc<TableEntry>>,
        mode: AccessMode,
        read_ts: u64,
    ) {
        note_table_access(name_hash, mode);
        if self.validated || self.audited {
            self.reads.push(Read {
                table,
                name_hash,
                entry: entry.filter(|_| self.validated),
                read_ts,
                rows: Vec::new(),
                pred: None,
                pred_validated: false,
            });
        }
    }

    /// The open statement returned committed `row`.
    pub(crate) fn row(&mut self, row: RowId) {
        if let Some(read) = self.reads.last_mut() {
            read.rows.push(row);
        }
    }

    /// The open statement read by `pred`, which validation checks if
    /// `validated`.
    pub(crate) fn pred(&mut self, pred: &Predicate, validated: bool) {
        let validated = self.validated && validated;
        if let (Some(read), true) = (self.reads.last_mut(), self.audited || validated) {
            read.pred = Some(pred.equality_fingerprint());
            read.pred_validated = validated;
        }
    }

    /// The reads Serializable validation checks, in statement order.
    pub(crate) fn validated_reads(&self) -> impl Iterator<Item = &Read> {
        let checked = move |r: &&Read| self.validated && (!r.rows.is_empty() || r.pred_validated);
        self.reads.iter().filter(checked)
    }

    /// The reads, and the installed `writes`, in the auditor's
    /// vocabulary: tables by name hash, values by column-value hash.
    pub(crate) fn audit_records(
        &self,
        writes: &[CommittedWrite],
    ) -> (Vec<ReadRecord>, Vec<WriteRecord>) {
        let reads = self.reads.iter().flat_map(|r| {
            let (table, read_ts) = (r.name_hash, r.read_ts);
            let rows = r.rows.iter().map(|&row| ReadTarget::Row(row as u64));
            let pred = r.pred.iter().map(|p| p.iter().map(|(c, v)| (*c, v)));
            let records = rows.chain(pred.map(|p| ReadTarget::Pred(column_hashes(p))));
            records.map(move |target| ReadRecord {
                table,
                target,
                read_ts,
            })
        });
        let image = |tuple: &[Datum]| column_hashes(tuple.iter().enumerate());
        let writes = writes.iter().map(|(table, row, old, new)| WriteRecord {
            table: *table,
            row: *row as u64,
            old: old.as_deref().map(image),
            new: new.as_deref().map(image),
        });
        (reads.collect(), writes.collect())
    }
}

/// Column-value hashes (see `feral_audit::column_value_hash`) of
/// `(column, value)` pairs: a predicate's, or a tuple image's.
fn column_hashes<'a>(columns: impl Iterator<Item = (usize, &'a Datum)>) -> Vec<u64> {
    let mut buf = Vec::new();
    columns
        .map(|(col, value)| {
            buf.clear();
            value.encode_key(&mut buf);
            feral_audit::column_value_hash(col, &buf)
        })
        .collect()
}
