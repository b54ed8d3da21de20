//! Anomaly provenance: turn a flight-recorder dump into a named racing
//! transaction pair, plus a replayable `feral-sim` witness.
//!
//! The feral race this stack studies always has the same shape: two
//! transactions both run the validation probe (`SELECT … LIMIT 1`)
//! *before* either has written, so both probes pass and both writes
//! land. Given the recorded [`EventKind::UniqueProbe`] and
//! [`EventKind::SaveWrite`] events for one key, [`explain_duplicate`]
//! finds a pair whose probe→write windows overlap and reports exactly
//! which worker/transaction pair raced and how wide the window was.
//! The records travel in the table1 run report ([`crate::report`]).

use feral_trace::{fnv64, Event, EventKind};

/// One side of a racing pair: where its probe and its write landed in
/// the global event order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RacingTxn {
    /// Trace worker id of the recording thread.
    pub worker: u64,
    /// Engine transaction id.
    pub txn: u64,
    /// Global sequence number of the validation probe.
    pub probe_seq: u64,
    /// Timestamp (trace nanos) of the validation probe.
    pub probe_ts: u64,
    /// Global sequence number of the post-validation write.
    pub write_seq: u64,
    /// Timestamp (trace nanos) of the post-validation write.
    pub write_ts: u64,
}

/// A replayable `feral-sim` witness as the run report records it:
/// pre-rendered strings, so the report reads back without the
/// simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Scenario label, e.g. `uniqueness/read-committed/feral/2w`.
    pub scenario: String,
    /// Isolation level flag value.
    pub isolation: String,
    /// Guard (`feral` or `database`).
    pub guard: String,
    /// Worker count in the scenario.
    pub workers: usize,
    /// Full `feral-sim replay …` command line reproducing the anomaly.
    pub replay: String,
    /// The oracle's violation message from the simulated run.
    pub message: String,
}

/// One explained anomaly: what happened, to which key, which pair of
/// transactions raced, and (once attached) a simulator witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceRecord {
    /// Anomaly class (`duplicate-key`).
    pub anomaly: String,
    /// Table the anomaly materialised in.
    pub table: String,
    /// The duplicated key value.
    pub key: String,
    /// `fnv64` of `key` — matches the event payloads.
    pub key_hash: u64,
    /// The racing transactions, write order. At least two.
    pub racing: Vec<RacingTxn>,
    /// Width of the race window: first write minus second probe
    /// (the span in which both validations had already passed).
    pub overlap_nanos: u64,
    /// Replayable simulator witness (attached by `trace_report`).
    pub witness: Option<Witness>,
    /// Rendered flight-recorder tail captured when the oracle fired.
    pub flight: Vec<String>,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    worker: u64,
    txn: u64,
    probe: Option<(u64, u64)>, // (seq, ts)
    write: Option<(u64, u64)>,
}

fn collect_spans(events: &[Event], key_hash: u64, table_hash: u64) -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::new();
    for e in events {
        if e.a != key_hash || e.b != table_hash {
            continue;
        }
        let is_probe = e.kind == EventKind::UniqueProbe;
        let is_write = e.kind == EventKind::SaveWrite;
        if !is_probe && !is_write {
            continue;
        }
        let span = match spans
            .iter_mut()
            .find(|s| s.worker == e.worker && s.txn == e.txn)
        {
            Some(s) => s,
            None => {
                spans.push(Span {
                    worker: e.worker,
                    txn: e.txn,
                    probe: None,
                    write: None,
                });
                spans.last_mut().unwrap()
            }
        };
        if is_probe && span.probe.is_none() {
            span.probe = Some((e.seq, e.ts_nanos));
        }
        if is_write && span.write.is_none() {
            span.write = Some((e.seq, e.ts_nanos));
        }
    }
    spans
}

/// Walk a flight-recorder dump and explain a duplicate `key` in
/// `table`: find two saves of it whose probe→write windows overlap (the
/// second probed before the first wrote). Returns `None` when the
/// recorded tail no longer contains both sides of the race.
pub fn explain_duplicate(events: &[Event], table: &str, key: &str) -> Option<ProvenanceRecord> {
    let key_hash = fnv64(key.as_bytes());
    let table_hash = fnv64(table.as_bytes());
    let mut complete: Vec<Span> = collect_spans(events, key_hash, table_hash)
        .into_iter()
        .filter(|s| s.probe.is_some() && s.write.is_some())
        .collect();
    complete.sort_by_key(|s| s.write.unwrap().0);

    // Find the first pair (i < j in write order) where j's probe ran
    // before i's write — i.e. j validated against a state that did not
    // yet contain i's row.
    for i in 0..complete.len() {
        for j in (i + 1)..complete.len() {
            let (i_write_seq, i_write_ts) = complete[i].write.unwrap();
            let (j_probe_seq, j_probe_ts) = complete[j].probe.unwrap();
            if j_probe_seq < i_write_seq {
                let to_racing = |s: &Span| RacingTxn {
                    worker: s.worker,
                    txn: s.txn,
                    probe_seq: s.probe.unwrap().0,
                    probe_ts: s.probe.unwrap().1,
                    write_seq: s.write.unwrap().0,
                    write_ts: s.write.unwrap().1,
                };
                return Some(ProvenanceRecord {
                    anomaly: "duplicate-key".to_string(),
                    table: table.to_string(),
                    key: key.to_string(),
                    key_hash,
                    racing: vec![to_racing(&complete[i]), to_racing(&complete[j])],
                    overlap_nanos: i_write_ts.saturating_sub(j_probe_ts),
                    witness: None,
                    flight: Vec::new(),
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, worker: u64, txn: u64, kind: EventKind, key: &str, table: &str) -> Event {
        Event {
            seq,
            ts_nanos: seq * 100,
            worker,
            txn,
            kind,
            a: fnv64(key.as_bytes()),
            b: fnv64(table.as_bytes()),
        }
    }

    #[test]
    fn names_the_overlapping_pair() {
        // w1/t1 probes, w2/t2 probes, t1 writes, t2 writes: classic
        // feral duplicate. Both probes precede the first write.
        let events = vec![
            event(1, 1, 1, EventKind::UniqueProbe, "k", "t"),
            event(2, 2, 2, EventKind::UniqueProbe, "k", "t"),
            event(3, 1, 1, EventKind::SaveWrite, "k", "t"),
            event(4, 2, 2, EventKind::SaveWrite, "k", "t"),
        ];
        let rec = explain_duplicate(&events, "t", "k").expect("race found");
        assert_eq!(rec.anomaly, "duplicate-key");
        assert_eq!(rec.racing.len(), 2);
        assert_eq!(rec.racing[0].txn, 1);
        assert_eq!(rec.racing[1].txn, 2);
        // overlap: t1's write (ts 300) minus t2's probe (ts 200).
        assert_eq!(rec.overlap_nanos, 100);
    }

    #[test]
    fn serial_saves_are_not_a_race() {
        // t1 probes and writes, then t2 probes and writes: no overlap.
        let events = vec![
            event(1, 1, 1, EventKind::UniqueProbe, "k", "t"),
            event(2, 1, 1, EventKind::SaveWrite, "k", "t"),
            event(3, 2, 2, EventKind::UniqueProbe, "k", "t"),
            event(4, 2, 2, EventKind::SaveWrite, "k", "t"),
        ];
        assert!(explain_duplicate(&events, "t", "k").is_none());
    }

    #[test]
    fn other_keys_do_not_confuse_the_analysis() {
        let events = vec![
            event(1, 1, 1, EventKind::UniqueProbe, "k", "t"),
            event(2, 2, 2, EventKind::UniqueProbe, "other", "t"),
            event(3, 2, 2, EventKind::SaveWrite, "other", "t"),
            event(4, 1, 1, EventKind::SaveWrite, "k", "t"),
        ];
        assert!(explain_duplicate(&events, "t", "k").is_none());
    }
}
