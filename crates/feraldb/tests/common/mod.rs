//! Helpers shared by the WAL-backed integration suites.

use std::path::PathBuf;
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
