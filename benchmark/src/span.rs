//! Spans recorded from outside the program: the generator's own clocks
//! on one side, a [`TracedService`] wrapped around the service on the
//! other, all against one process-wide epoch ([`crate::sys::now_ns`]).
//!
//! Tree per request: `request` (due → reply decoded) ⊃ `loadgen.wait`
//! (due → sent), `net.inbound` (sent → call start), `service.call` and
//! `net.outbound` (call end → reply decoded). The children tile the
//! parent exactly, so the layers sum to the caller-observed number by
//! construction.

use crate::sys::now_ns;
use feral_server::{Request, Response, Service};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Call start/end per sequence number, preallocated for every request
/// of the run so recording is two relaxed stores.
pub struct CallTable {
    start: Vec<AtomicU64>,
    end: Vec<AtomicU64>,
    on: AtomicBool,
}

impl CallTable {
    /// A table for sequence numbers below `requests`, recording off.
    pub fn new(requests: usize) -> CallTable {
        CallTable {
            start: (0..requests).map(|_| AtomicU64::new(0)).collect(),
            end: (0..requests).map(|_| AtomicU64::new(0)).collect(),
            on: AtomicBool::new(false),
        }
    }

    /// Switch recording on or off (between phases, never during one).
    pub fn set_recording(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// `(call start, call end)` of `seq`, when it was recorded.
    pub fn get(&self, seq: u64) -> Option<(u64, u64)> {
        let start = self.start.get(seq as usize)?.load(Ordering::Relaxed);
        let end = self.end[seq as usize].load(Ordering::Relaxed);
        (end != 0).then_some((start, end))
    }
}

/// The benchmark's own wrapper around the service under test: it
/// stamps when `call` was entered and left under the request's
/// sequence number, and is otherwise transparent.
pub struct TracedService {
    inner: Arc<dyn Service>,
    calls: Arc<CallTable>,
}

impl TracedService {
    /// Wrap `inner`, recording into `calls`.
    pub fn new(inner: Arc<dyn Service>, calls: Arc<CallTable>) -> TracedService {
        TracedService { inner, calls }
    }
}

impl Service for TracedService {
    fn call(&self, request: Request) -> Response {
        if !self.calls.on.load(Ordering::Relaxed) {
            return self.inner.call(request);
        }
        let seq = request.session as usize;
        let start = now_ns();
        let response = self.inner.call(request);
        let end = now_ns();
        // each sequence number is written by the one thread serving it
        // and read only after the phase's threads are joined
        if let (Some(s), Some(e)) = (self.calls.start.get(seq), self.calls.end.get(seq)) {
            s.store(start, Ordering::Relaxed);
            e.store(end, Ordering::Relaxed);
        }
        response
    }
}

/// The five instants of one answered request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestSpans {
    /// Sequence number (`Request.session`).
    pub seq: u64,
    /// When the request was due (open loop) or its slot came free.
    pub due: u64,
    /// Just before the write that carried it (or the direct call).
    pub sent: u64,
    /// `Service::call` entered.
    pub call_start: u64,
    /// `Service::call` returned.
    pub call_end: u64,
    /// Reply decoded by the generator.
    pub recv: u64,
}

/// Names of the `request` span's children, in time order.
pub const CHILDREN: [&str; 4] = [
    "loadgen.wait",
    "net.inbound",
    "service.call",
    "net.outbound",
];

impl RequestSpans {
    /// `(start, end)` of each child, in [`CHILDREN`] order.
    pub fn children(&self) -> [(u64, u64); 4] {
        [
            (self.due, self.sent),
            (self.sent, self.call_start),
            (self.call_start, self.call_end),
            (self.call_end, self.recv),
        ]
    }

    /// Whether the instants are in order, which is exactly when the
    /// children tile the parent with no child's time negative.
    pub fn ordered(&self) -> bool {
        self.due <= self.sent
            && self.sent <= self.call_start
            && self.call_start <= self.call_end
            && self.call_end <= self.recv
    }

    /// The parent's duration minus what its children cover, ns (its
    /// self time; 0 when the children tile it).
    pub fn untiled_ns(&self) -> i64 {
        let parent = self.recv as i64 - self.due as i64;
        let covered: i64 = self
            .children()
            .iter()
            .map(|(s, e)| *e as i64 - *s as i64)
            .sum();
        parent - covered
    }
}

/// Most requests of one phase whose spans are written out; the metrics
/// are computed over all of them, the file is for reading.
pub const MAX_WRITTEN: usize = 10_000;

/// Write the spans as JSON: one object per span with name, start, end
/// (ns since the process epoch), parent span name and request id. Each
/// phase contributes its first [`MAX_WRITTEN`] requests.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    header: &[(String, String)],
    phases: &[(&str, Vec<RequestSpans>)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"workload\":\"{workload}\",\"unit\":\"ns\"")?;
    for (k, v) in header {
        write!(out, ",\"{k}\":\"{}\"", v.replace(['"', '\\'], "'"))?;
    }
    for (phase, spans) in phases {
        write!(out, ",\"{phase}_requests_traced\":{}", spans.len())?;
    }
    write!(out, ",\"spans\":[")?;
    let mut first = true;
    for (phase, spans) in phases {
        for r in spans.iter().take(MAX_WRITTEN) {
            let sep = if first { "\n" } else { ",\n" };
            first = false;
            write!(
                out,
                "{sep}{{\"name\":\"request\",\"start\":{},\"end\":{},\"parent\":null,\
                 \"request\":{},\"phase\":\"{phase}\"}}",
                r.due, r.recv, r.seq
            )?;
            for (name, (start, end)) in CHILDREN.iter().zip(r.children()) {
                write!(
                    out,
                    ",\n{{\"name\":\"{name}\",\"start\":{start},\"end\":{end},\
                     \"parent\":\"request\",\"request\":{}}}",
                    r.seq
                )?;
            }
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_db::Datum;
    use feral_orm::{App, ModelDef};
    use feral_server::PooledService;

    fn service() -> Arc<dyn Service> {
        let app = App::in_memory();
        app.define(
            ModelDef::build("User")
                .string("email")
                .validates_presence_of("email")
                .validates_uniqueness_of("email")
                .finish(),
        )
        .unwrap();
        Arc::new(PooledService::new(app, 2))
    }

    fn script(seq0: u64) -> Vec<Request> {
        let post = |seq, email: &str| {
            Request::builder("User")
                .session(seq)
                .attr("email", Datum::text(email))
                .create()
        };
        vec![
            post(seq0, "a@example.com"),
            post(seq0 + 1, "a@example.com"),
            post(seq0 + 2, ""),
            Request::builder("User").session(seq0 + 3).get(1),
            Request::builder("User").session(seq0 + 4).get(99),
            Request::builder("User").session(seq0 + 5).destroy(1),
        ]
    }

    #[test]
    fn traced_service_answers_exactly_as_the_inner_service() {
        let calls = Arc::new(CallTable::new(6));
        let traced = TracedService::new(service(), calls.clone());
        calls.set_recording(true);
        let plain = service();
        let a: Vec<String> = script(0)
            .into_iter()
            .map(|r| format!("{:?}", strip(traced.call(r))))
            .collect();
        let b: Vec<String> = script(0)
            .into_iter()
            .map(|r| format!("{:?}", strip(plain.call(r))))
            .collect();
        assert_eq!(a, b);
        assert!(a[0].starts_with("Created") && a[1].starts_with("Invalid"));
        for seq in 0..6 {
            let (start, end) = calls.get(seq).expect("every call was recorded");
            assert!(start <= end);
        }
    }

    /// Timestamps differ between two services; everything else must not.
    fn strip(r: Response) -> Response {
        match r {
            Response::Found(rec) => {
                Response::Invalid(vec![format!("{:?} {:?}", rec.id(), rec.get("email"))])
            }
            other => other,
        }
    }

    #[test]
    fn recording_off_or_out_of_range_leaves_no_span() {
        let calls = Arc::new(CallTable::new(2));
        let traced = TracedService::new(service(), calls.clone());
        traced.call(script(0).remove(0));
        assert_eq!(calls.get(0), None, "recording is off until switched on");
        calls.set_recording(true);
        let r = traced.call(script(500).remove(1));
        assert!(matches!(r, Response::Invalid(_)), "{r:?}");
        assert_eq!(calls.get(501), None);
    }

    #[test]
    fn children_tile_the_request_and_self_time_is_never_negative() {
        let r = RequestSpans {
            seq: 1,
            due: 100,
            sent: 130,
            call_start: 180,
            call_end: 400,
            recv: 455,
        };
        assert!(r.ordered());
        assert_eq!(r.untiled_ns(), 0);
        let total: u64 = r.children().iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, r.recv - r.due);
        // a reply stamped before the call ended is not a tree
        let bad = RequestSpans { recv: 390, ..r };
        assert!(!bad.ordered());
    }

    #[test]
    fn trace_file_is_json_with_five_spans_per_request() {
        let dir = std::env::temp_dir().join(format!("feral-benchmark-span-{}", std::process::id()));
        let path = dir.join("trace_test.json");
        let r = RequestSpans {
            seq: 7,
            due: 1,
            sent: 2,
            call_start: 3,
            call_end: 4,
            recv: 5,
        };
        write_trace(
            &path,
            "test",
            &[("seed".into(), "1".into())],
            &[("paced", vec![r, RequestSpans { seq: 8, ..r }])],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = feral_trace::json::parse(&text).expect("valid JSON");
        let spans = parsed.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(spans.len(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
