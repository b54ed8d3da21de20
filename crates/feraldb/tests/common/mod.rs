//! Helpers shared by the WAL-backed integration suites.
#![allow(dead_code)] // not every suite uses every helper

use feral_db::{WalRecord, WalWrite};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A fresh log path `<tmp>/feral-<suite>-<pid>/<name>.wal`.
pub fn wal_path(suite: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("feral-{suite}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{name}.wal"));
    let _ = std::fs::remove_file(&p);
    p
}

/// Poll `cond` for up to 10 s.
pub fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Column 1 (the first user column) of every insert in the log at `path`,
/// in log order.
pub fn logged_values(path: &Path) -> Vec<i64> {
    let (records, _) = feral_db::wal::read_log(path).unwrap();
    let mut out = Vec::new();
    for r in records {
        if let WalRecord::Commit { writes, .. } = r {
            for w in writes {
                if let WalWrite::Insert { tuple, .. } = w {
                    out.push(tuple[1].as_int().unwrap());
                }
            }
        }
    }
    out
}
