//! The structured trace event: a fixed-size, plain-data record small
//! enough to publish through a lock-free ring slot.
//!
//! Event kinds reuse the [`feral_hooks::Site`] vocabulary wherever a
//! live event corresponds to an instrumented yield point, so a flight
//! recorder dump and a `feral-sim` schedule trace name the same
//! operations the same way (`begin`, `scan`, `commit`, ...).

use feral_hooks::Site;

/// Phases of the save/request pipeline timed by the tracing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One request, as the client that issued it through a `Service`
    /// timed it.
    Request,
    /// One whole ORM `save` (validate + write + commit).
    Save,
    /// The validation pass inside a save (the feral `SELECT` probes).
    Validate,
    /// The write pass inside a save (buffering inserts/updates).
    Write,
    /// Engine-level `Transaction::commit` (validation + install).
    Commit,
}

/// All timed phases, in code order.
pub const PHASES: [Phase; 5] = [
    Phase::Request,
    Phase::Save,
    Phase::Validate,
    Phase::Write,
    Phase::Commit,
];

impl Phase {
    /// Stable numeric code (ring-slot encoding, report keys).
    pub fn code(self) -> u64 {
        match self {
            Phase::Request => 0,
            Phase::Save => 1,
            Phase::Validate => 2,
            Phase::Write => 3,
            Phase::Commit => 4,
        }
    }

    /// Decode a [`Phase::code`].
    pub fn from_code(code: u64) -> Option<Phase> {
        PHASES.get(code as usize).copied()
    }

    /// Stable snake-case name used in reports and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Request => "request",
            Phase::Save => "save",
            Phase::Validate => "validate",
            Phase::Write => "write",
            Phase::Commit => "commit",
        }
    }
}

/// What a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An instrumented yield-point site was reached (`a`/`b` free-form,
    /// usually a table-name hash).
    Site(Site),
    /// A transaction rolled back (`a` = abort-cause code, 0 = unknown).
    Abort,
    /// A feral validation probe (`SELECT ... LIMIT 1`): `a` = key hash,
    /// `b` = table hash.
    UniqueProbe,
    /// The post-validation write of a save: `a` = key hash of the
    /// uniqueness-validated value, `b` = table hash.
    SaveWrite,
    /// A feral cascading destroy rooted at `a` = parent row id,
    /// `b` = parent-table hash.
    DestroyCascade,
    /// A timed phase finished: `a` = [`Phase::code`], `b` = nanoseconds.
    PhaseEnd,
    /// An anomaly oracle fired: `a` = anomaly code, `b` = key hash.
    Anomaly,
    /// A workload driver generated an operation: `a` = op code,
    /// `b` = key.
    WorkloadOp,
}

const SITE_ORDER: [Site; 9] = [
    Site::WorkerStart,
    Site::TxnBegin,
    Site::TxnScan,
    Site::TxnSelectForUpdate,
    Site::TxnWrite,
    Site::TxnCommit,
    Site::OrmValidateWriteGap,
    Site::CommitShard,
    Site::WalFlush,
];

impl EventKind {
    /// Stable numeric code (ring-slot encoding). Site events occupy
    /// 0..=8 in [`Site`] declaration order; other kinds start at 16.
    pub fn code(self) -> u64 {
        match self {
            EventKind::Site(site) => SITE_ORDER
                .iter()
                .position(|s| *s == site)
                .expect("every Site variant is in SITE_ORDER")
                as u64,
            EventKind::Abort => 16,
            EventKind::UniqueProbe => 17,
            EventKind::SaveWrite => 18,
            EventKind::DestroyCascade => 19,
            EventKind::PhaseEnd => 20,
            EventKind::Anomaly => 21,
            EventKind::WorkloadOp => 22,
        }
    }

    /// Decode a [`EventKind::code`]; `None` for unknown codes (e.g. a
    /// torn slot that slipped through, or a future version's kind).
    pub fn from_code(code: u64) -> Option<EventKind> {
        match code {
            0..=8 => Some(EventKind::Site(SITE_ORDER[code as usize])),
            16 => Some(EventKind::Abort),
            17 => Some(EventKind::UniqueProbe),
            18 => Some(EventKind::SaveWrite),
            19 => Some(EventKind::DestroyCascade),
            20 => Some(EventKind::PhaseEnd),
            21 => Some(EventKind::Anomaly),
            22 => Some(EventKind::WorkloadOp),
            _ => None,
        }
    }

    /// Short stable name: the [`Site::name`] for site events, snake-case
    /// otherwise. Appears in flight-recorder dumps and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Site(site) => site.name(),
            EventKind::Abort => "abort",
            EventKind::UniqueProbe => "unique-probe",
            EventKind::SaveWrite => "save-write",
            EventKind::DestroyCascade => "destroy-cascade",
            EventKind::PhaseEnd => "phase-end",
            EventKind::Anomaly => "anomaly",
            EventKind::WorkloadOp => "workload-op",
        }
    }
}

/// One recorded event. Plain data: every field fits one ring-slot word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (total order across all threads).
    pub seq: u64,
    /// Nanoseconds since tracing started (monotonic).
    pub ts_nanos: u64,
    /// Recording thread's trace id (assigned at first event).
    pub worker: u64,
    /// Engine transaction id, 0 when not in a transaction.
    pub txn: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`] docs).
    pub a: u64,
    /// Kind-specific payload (see [`EventKind`] docs).
    pub b: u64,
}

impl Event {
    /// Encode into ring-slot payload words.
    pub(crate) fn encode(&self) -> [u64; 7] {
        [
            self.seq,
            self.ts_nanos,
            self.worker,
            self.txn,
            self.kind.code(),
            self.a,
            self.b,
        ]
    }

    /// Decode ring-slot payload words; `None` if the kind code is
    /// unknown.
    pub(crate) fn decode(words: [u64; 7]) -> Option<Event> {
        Some(Event {
            seq: words[0],
            ts_nanos: words[1],
            worker: words[2],
            txn: words[3],
            kind: EventKind::from_code(words[4])?,
            a: words[5],
            b: words[6],
        })
    }

    /// One-line rendering for flight-recorder dumps:
    /// `seq=12 t=3456ns w2 txn=7 commit a=0 b=0`.
    pub fn render(&self) -> String {
        format!(
            "seq={} t={}ns w{} txn={} {} a={:#x} b={:#x}",
            self.seq,
            self.ts_nanos,
            self.worker,
            self.txn,
            self.kind.name(),
            self.a,
            self.b
        )
    }
}

/// FNV-1a 64-bit hash — the tracing layer's key/table fingerprint.
/// Stable across runs and platforms (reports and provenance matching
/// rely on that).
pub use feral_hooks::fnv64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_roundtrip() {
        let kinds = [
            EventKind::Site(Site::TxnBegin),
            EventKind::Site(Site::OrmValidateWriteGap),
            EventKind::Site(Site::CommitShard),
            EventKind::Site(Site::WalFlush),
            EventKind::Abort,
            EventKind::UniqueProbe,
            EventKind::SaveWrite,
            EventKind::DestroyCascade,
            EventKind::PhaseEnd,
            EventKind::Anomaly,
            EventKind::WorkloadOp,
        ];
        for k in kinds {
            assert_eq!(EventKind::from_code(k.code()), Some(k));
        }
        assert_eq!(EventKind::from_code(9), None);
        assert_eq!(EventKind::from_code(999), None);
    }

    #[test]
    fn site_events_share_the_sim_vocabulary() {
        assert_eq!(EventKind::Site(Site::TxnCommit).name(), "commit");
        assert_eq!(EventKind::Site(Site::TxnScan).name(), "scan");
        assert_eq!(
            EventKind::Site(Site::OrmValidateWriteGap).name(),
            "validate-write-gap"
        );
    }

    #[test]
    fn event_roundtrips_through_slot_words() {
        let e = Event {
            seq: 42,
            ts_nanos: 9001,
            worker: 3,
            txn: 17,
            kind: EventKind::UniqueProbe,
            a: fnv64(b"key-1"),
            b: fnv64(b"key_values"),
        };
        assert_eq!(Event::decode(e.encode()), Some(e));
    }

    #[test]
    fn phase_codes_roundtrip() {
        for p in PHASES {
            assert_eq!(Phase::from_code(p.code()), Some(p));
        }
        assert_eq!(Phase::from_code(5), None);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_eq!(fnv64(b"key_values"), fnv64(b"key_values"));
    }
}
