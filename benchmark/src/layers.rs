//! Per-layer costs a span cannot see: each layer's public entry points
//! timed directly, single-threaded, over the workload's own requests
//! and replies. Every loop is bounded by a count and by a time box, so
//! a slow layer shortens its sample instead of stretching the run.

use crate::gen::{self, Spec};
use crate::sys::now_ns;
use feral_db::wal::{WalRecord, WalWrite, WalWriter};
use feral_db::{Config, DataType, Database, Datum, Predicate};
use feral_net::planner::{ACCOUNTS, EMAILS};
use feral_net::wire;
use feral_orm::App;
use feral_server::Response;
use feral_trace::hist::bucket_bounds;
use feral_trace::HistogramSnapshot;
use std::hint::black_box;
use std::path::Path;

/// Most operations one direct timing replays.
const REPLAY_OPS: usize = 100_000;
/// Longest one direct timing may take.
const TIME_BOX_NS: u64 = 400_000_000;
/// Synced appends of the fsync probe.
const SYNC_PROBES: usize = 256;

/// Run `op` over `items` until they or the time box run out; mean ns
/// per operation (0 when there was nothing to run).
fn time_each<T>(items: impl IntoIterator<Item = T>, mut op: impl FnMut(T)) -> f64 {
    let start = now_ns();
    let mut done = 0usize;
    for item in items {
        op(item);
        done += 1;
        if done.is_multiple_of(256) && now_ns() - start > TIME_BOX_NS {
            break;
        }
    }
    if done == 0 {
        0.0
    } else {
        (now_ns() - start) as f64 / done as f64
    }
}

/// `wire.*`: encode and decode cost and frame sizes of the workload's
/// own requests and of the replies it got.
pub fn wire_ledger(specs: &[Spec], replies: &[&Response]) -> Vec<(&'static str, f64)> {
    let specs = &specs[..specs.len().min(REPLAY_OPS)];
    let requests: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| gen::request(s, i as u64))
        .collect();
    // timed passes drop each frame at once, so they time the codec and
    // not a growing heap; an untimed pass keeps the frames for decoding
    let mut i = 0u64;
    let encode_req = time_each(&requests, |r| {
        black_box(wire::encode_request(i, r).expect("generated requests are encodable"));
        i += 1;
    });
    let encode_resp = time_each(replies.iter().copied(), |r| {
        black_box(wire::encode_response(i, r));
        i += 1;
    });
    let mut frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| wire::encode_request(0, r).expect("generated requests are encodable"))
        .collect();
    let mut reply_frames: Vec<Vec<u8>> = replies
        .iter()
        .map(|r| wire::encode_response(0, r))
        .collect();
    let mean_len =
        |f: &[Vec<u8>]| f.iter().map(Vec::len).sum::<usize>() as f64 / f.len().max(1) as f64;
    let (req_bytes, resp_bytes) = (mean_len(&frames), mean_len(&reply_frames));
    // decoding consumes its buffer, as the server's does
    let decode_req = time_each(&mut frames, |buf| {
        let payload = wire::take_frame(buf)
            .expect("own frame")
            .expect("complete frame");
        black_box(wire::decode_request(&payload).expect("own payload"));
    });
    let decode_resp = time_each(&mut reply_frames, |buf| {
        let payload = wire::take_frame(buf)
            .expect("own frame")
            .expect("complete frame");
        black_box(wire::decode_response(&payload).expect("own payload"));
    });
    vec![
        ("wire.encode_req_ns", encode_req),
        ("wire.decode_req_ns", decode_req),
        ("wire.encode_resp_ns", encode_resp),
        ("wire.decode_resp_ns", decode_resp),
        ("wire.req_bytes", req_bytes),
        ("wire.resp_bytes", resp_bytes),
    ]
}

/// `orm.find_ns` / `orm.create_ns`: the stream replayed through one
/// `Session`. Every spec reads a preloaded row (a `POST` or a template
/// the row its key folds onto); every `POST` (every template, in a
/// stream without `POST`s) creates a user under an address beyond the
/// stream's own, so each create passes validation and inserts.
pub fn orm_ledger(app: &App, specs: &[Spec], rows: u64, durable: bool) -> Vec<(&'static str, f64)> {
    let mut session = app.session();
    let ids: Vec<i64> = specs
        .iter()
        .map(|s| match *s {
            Spec::Get { id } => id,
            Spec::Post { email: key } | Spec::Template { key, .. } => {
                (key % rows.max(1)) as i64 + 1
            }
        })
        .take(REPLAY_OPS)
        .collect();
    let find = time_each(&ids, |id| {
        black_box(session.find("User", *id).is_ok());
    });
    // each durable create waits for an fsync: replay fewer of them
    let creates = if durable { 2_000 } else { REPLAY_OPS };
    let attrs: Vec<_> = specs
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match *s {
            Spec::Post { .. } | Spec::Template { .. } => {
                Some(gen::user_attrs(gen::EMAIL_SPACE + i as u64))
            }
            Spec::Get { .. } => None,
        })
        .take(creates)
        .collect();
    let create = time_each(&attrs, |a| {
        black_box(session.create("User", a).is_ok());
    });
    vec![("orm.find_ns", find), ("orm.create_ns", create)]
}

/// `db.point_read_ns` / `db.probe_limit1_ns`: `Transaction::scan` by
/// primary key and by the probed column, timed inside
/// `db.txn().run(..)`, a thousand scans to a transaction.
pub fn db_ledger(db: &Database, specs: &[Spec], seed: u64, rows: u64) -> Vec<(&'static str, f64)> {
    let planner = matches!(specs.first(), Some(Spec::Template { .. }));
    let (table, by_key, by_probe): (&str, Vec<Predicate>, Vec<Predicate>) = if planner {
        let keys = specs.iter().take(REPLAY_OPS).map(|s| match *s {
            Spec::Template { key, .. } => key,
            _ => 0,
        });
        (
            "accounts",
            keys.clone()
                .map(|k| Predicate::eq(1, (k % ACCOUNTS as u64) as i64))
                .collect(),
            keys.map(|k| {
                let slot = k % EMAILS as u64;
                Predicate::eq(1, format!("user{slot}@example.com"))
            })
            .collect(),
        )
    } else {
        let pick = specs.iter().take(REPLAY_OPS);
        (
            "users",
            pick.clone()
                .map(|s| match *s {
                    Spec::Get { id } => Predicate::eq(0, id),
                    Spec::Post { email } => Predicate::eq(0, (email % rows.max(1)) as i64 + 1),
                    Spec::Template { .. } => Predicate::True,
                })
                .collect(),
            pick.map(|s| match *s {
                Spec::Get { id } => {
                    Predicate::eq(1, gen::email_of(gen::preload_email(seed, id as u64 - 1)))
                }
                Spec::Post { email } => Predicate::eq(1, gen::email_of(email)),
                Spec::Template { .. } => Predicate::True,
            })
            .collect(),
        )
    };
    let probe_table = if planner { "signups" } else { table };
    let scan_all = |table: &str, preds: &[Predicate]| -> f64 {
        let (start, mut scans) = (now_ns(), 0usize);
        for batch in preds.chunks(1000) {
            db.txn()
                .run(|tx| {
                    for pred in batch {
                        black_box(tx.scan(table, pred)?.len());
                    }
                    Ok(())
                })
                .expect("read-only transaction");
            scans += batch.len();
            if now_ns() - start > TIME_BOX_NS {
                break;
            }
        }
        (now_ns() - start) as f64 / scans.max(1) as f64
    };
    vec![
        ("db.point_read_ns", scan_all(table, &by_key)),
        ("db.probe_limit1_ns", scan_all(probe_table, &by_probe)),
    ]
}

/// The `q`-quantile of a `feral-trace` phase histogram, us, interpolated
/// linearly inside the bucket the rank falls in. (The histogram's own
/// `quantile` answers with the bucket's upper bound — the same few
/// values on every run — or a sentinel when one bucket holds everything.)
pub fn hist_quantile_us(h: &HistogramSnapshot, q: f64) -> f64 {
    let rank = (q * h.count as f64).max(1.0);
    let mut below = 0.0;
    for (idx, &in_bucket) in h.buckets.iter().enumerate() {
        let in_bucket = in_bucket as f64;
        if in_bucket > 0.0 && below + in_bucket >= rank {
            let (lo, hi) = bucket_bounds(idx);
            let into = (rank - below) / in_bucket;
            let ns = lo as f64 + (hi - lo + 1) as f64 * into;
            return ns.min(h.max as f64) / 1e3;
        }
        below += in_bucket;
    }
    0.0
}

/// What the fsync probe found.
pub struct WalProbe {
    /// Median `WalWriter::append` with `set_sync(true)`, µs. This is the
    /// sandbox's fsync on the checkout's filesystem, not a device's.
    pub append_sync_us: f64,
    /// `Database::open` replaying the probe's own log, ms.
    pub recovery_ms: f64,
    /// Records that replay covered.
    pub replayed_records: u64,
}

/// Append [`SYNC_PROBES`] one-row commits to a scratch log with
/// `sync_data` after each, then time recovery of that log.
pub fn wal_probe(scratch: &Path) -> Result<WalProbe, String> {
    let _ = std::fs::remove_file(scratch);
    let mut wal = WalWriter::open(scratch).map_err(|e| e.to_string())?;
    let text = |n: &str| (n.to_string(), DataType::Text, false);
    wal.append(&WalRecord::CreateTable {
        name: "users".into(),
        columns: vec![
            ("id".to_string(), DataType::Int, false),
            text("email"),
            text("name"),
            text("bio"),
        ],
    })
    .map_err(|e| e.to_string())?;
    wal.set_sync(true);
    let mut took = Vec::with_capacity(SYNC_PROBES);
    for i in 0..SYNC_PROBES as u64 {
        let [email, name, bio] = gen::user_attrs(i);
        let record = WalRecord::Commit {
            commit_ts: i + 2,
            writes: vec![WalWrite::Insert {
                table: "users".into(),
                row: i,
                tuple: vec![Datum::Int(i as i64 + 1), email.1, name.1, bio.1],
            }],
        };
        let start = now_ns();
        wal.append(&record).map_err(|e| e.to_string())?;
        took.push(now_ns() - start);
    }
    drop(wal);
    let (recovery_ms, db) = timed_recovery(scratch)?;
    let replayed = db.count_rows("users").map_err(|e| e.to_string())? as u64 + 1;
    drop(db);
    let _ = std::fs::remove_file(scratch);
    took.sort_unstable();
    Ok(WalProbe {
        append_sync_us: took[took.len() / 2] as f64 / 1e3,
        recovery_ms,
        replayed_records: replayed,
    })
}

/// Open a database from the log at `path` alone; how long it took, ms.
pub fn timed_recovery(path: &Path) -> Result<(f64, Database), String> {
    let start = now_ns();
    let db = Database::open(Config {
        wal_path: Some(path.to_path_buf()),
        ..Config::default()
    })
    .map_err(|e| format!("recover {path:?}: {e}"))?;
    Ok(((now_ns() - start) as f64 / 1e6, db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{Stack, WORKLOADS};

    fn specs() -> Vec<Spec> {
        (0..400)
            .map(|i| {
                if i % 10 == 0 {
                    Spec::Post { email: 900_000 + i }
                } else {
                    Spec::Get {
                        id: (i % 200) as i64 + 1,
                    }
                }
            })
            .collect()
    }

    #[test]
    fn every_direct_timing_measures_something() {
        let stack = Stack::build(&WORKLOADS[2], 0, 200, None, None).unwrap();
        let replies: Vec<Response> = specs()
            .iter()
            .enumerate()
            .map(|(i, s)| stack.service.call(gen::request(s, i as u64)))
            .collect();
        let mut all = wire_ledger(&specs(), &replies.iter().collect::<Vec<_>>());
        all.extend(orm_ledger(
            stack.app.as_ref().unwrap(),
            &specs(),
            200,
            false,
        ));
        all.extend(db_ledger(&stack.db, &specs(), 0, 200));
        assert_eq!(all.len(), 10);
        for (name, value) in all {
            assert!(value > 0.0, "{name} = {value}");
        }
        stack.shutdown();
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_a_bucket() {
        let h = feral_trace::Histogram::new();
        for v in 1000..2000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        // the exact answers are 1.5 and 1.99 us; a 256-bucket log scale
        // is good to a quarter octave, interpolation to much better
        assert!((hist_quantile_us(&snap, 0.5) - 1.5).abs() < 0.02);
        assert!((hist_quantile_us(&snap, 0.99) - 1.99).abs() < 0.02);
        assert_eq!(hist_quantile_us(&HistogramSnapshot::empty(), 0.5), 0.0);
        // one bucket holding everything is no reason for a sentinel
        let one = feral_trace::Histogram::new();
        one.record(5_000);
        one.record(5_001);
        let inside = hist_quantile_us(&one.snapshot(), 0.5);
        assert!((4.096..=5.001).contains(&inside), "{inside}");
    }

    #[test]
    fn the_fsync_probe_log_recovers_every_record() {
        let dir = std::env::temp_dir().join(format!("feral-benchmark-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let probe = wal_probe(&dir.join("probe.log")).unwrap();
        assert!(probe.append_sync_us > 0.0 && probe.recovery_ms > 0.0);
        assert_eq!(probe.replayed_records, SYNC_PROBES as u64 + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
