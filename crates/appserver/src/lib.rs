//! # feral-server
//!
//! The application front door of a simulated Rails deployment, reduced
//! to its concurrency-relevant essentials.
//!
//! In the paper's architecture (§2.2), each HTTP request is routed to one
//! worker process holding one database connection; workers share nothing
//! but the database. This crate models the request/response half of
//! that: one transport-agnostic trait, [`Service::call`], maps a
//! [`Request`] to a [`Response`]. Implementations:
//!
//! * [`PooledService`] — the in-process service: a bounded session pool
//!   (one [`feral_orm::Session`] checked out per in-flight call) that runs
//!   each request on the calling thread;
//! * `feral_net::NetClient` — the networked frontend: the same calls,
//!   over a length-prefixed wire protocol, served by `feral_net::Server`'s
//!   one worker pool.
//!
//! The paper's experiment rounds — "blocking in-between rounds to ensure
//! that each round is, in fact, a concurrent set of requests" (§5.2) —
//! are driven from client threads against any [`Service`] by
//! `feral_bench::apps::drive_rounds`.

#![warn(missing_docs)]

use feral_db::Datum;
use feral_orm::{App, OrmError, Record, Session};
use std::sync::atomic::{AtomicU64, Ordering};

/// A transport-agnostic application service: the one interface the
/// in-process pool and the networked frontend both implement. A service must be callable from any thread;
/// each call is one request/response exchange.
pub trait Service: Send + Sync {
    /// Handle one request to completion.
    fn call(&self, request: Request) -> Response;
}

/// What a request asks the application to do — the HTTP verbs the
/// experiment applications expose (paper Appendix C.1: "simple View and
/// Controller logic to allow us to POST, GET, and DELETE each kind of
/// model instance"), plus the named-template entry point the isolation
/// planner's workloads use.
pub enum Op {
    /// `POST /<model>` — build a record from attributes and `save` it.
    Create {
        /// Model class name.
        model: String,
        /// Attribute assignments.
        attrs: Vec<(String, Datum)>,
    },
    /// `DELETE /<model>/<id>` — `find` then `destroy` (runs dependent
    /// association logic ferally).
    Destroy {
        /// Model class name.
        model: String,
        /// Record id.
        id: i64,
    },
    /// `GET /<model>/<id>`.
    Get {
        /// Model class name.
        model: String,
        /// Record id.
        id: i64,
    },
    /// A named transaction template (the `feral-plan` key vocabulary,
    /// e.g. `uniqueness-probe-insert:signups.email`) applied to `key`.
    /// Only template-aware services (the planner workload frontends)
    /// handle these; ORM-backed services answer with a config error.
    Template {
        /// Template key, `{class}:{table}.{column}`.
        name: String,
        /// Workload key the template instance targets.
        key: u64,
    },
    /// Arbitrary controller logic (used by workloads that update
    /// records). Not serializable: a custom request cannot cross a wire.
    Custom(Box<dyn FnOnce(&mut Session) -> Response + Send>),
}

/// A request, as dispatched to a worker: a first-class user session
/// identity plus the operation. Session ids let a load generator
/// simulate millions of distinct users without any per-user server
/// state; they flow into trace events for per-session provenance.
pub struct Request {
    /// The issuing user session (0 = anonymous/none).
    pub session: u64,
    /// What to do.
    pub op: Op,
}

impl Request {
    /// Start building a model-targeted request.
    pub fn builder(model: impl Into<String>) -> RequestBuilder {
        RequestBuilder {
            model: model.into(),
            session: 0,
            attrs: Vec::new(),
        }
    }

    /// A named-template request (see [`Op::Template`]).
    pub fn template(name: impl Into<String>, key: u64) -> Request {
        Request {
            session: 0,
            op: Op::Template {
                name: name.into(),
                key,
            },
        }
    }

    /// An arbitrary-controller-logic request (see [`Op::Custom`]).
    pub fn custom(f: impl FnOnce(&mut Session) -> Response + Send + 'static) -> Request {
        Request {
            session: 0,
            op: Op::Custom(Box::new(f)),
        }
    }

    /// Attach a session identity to an already-built request.
    pub fn with_session(mut self, session: u64) -> Request {
        self.session = session;
        self
    }
}

/// Builder for model-targeted [`Request`]s: model, op, attributes, and
/// session identity, each spelled once and typed. The terminal methods
/// ([`RequestBuilder::create`], [`RequestBuilder::get`],
/// [`RequestBuilder::destroy`]) pick the operation.
pub struct RequestBuilder {
    model: String,
    session: u64,
    attrs: Vec<(String, Datum)>,
}

impl RequestBuilder {
    /// Set the issuing session id.
    pub fn session(mut self, session: u64) -> Self {
        self.session = session;
        self
    }

    /// Add one attribute assignment.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<Datum>) -> Self {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Add attribute assignments from `(name, value)` pairs.
    pub fn attrs(mut self, pairs: &[(&str, Datum)]) -> Self {
        self.attrs
            .extend(pairs.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
        self
    }

    /// Finish as a `POST /<model>` create.
    pub fn create(self) -> Request {
        Request {
            session: self.session,
            op: Op::Create {
                model: self.model,
                attrs: self.attrs,
            },
        }
    }

    /// Finish as a `GET /<model>/<id>`.
    pub fn get(self, id: i64) -> Request {
        Request {
            session: self.session,
            op: Op::Get {
                model: self.model,
                id,
            },
        }
    }

    /// Finish as a `DELETE /<model>/<id>`.
    pub fn destroy(self, id: i64) -> Request {
        Request {
            session: self.session,
            op: Op::Destroy {
                model: self.model,
                id,
            },
        }
    }
}

/// A response, as returned by a worker.
#[derive(Debug)]
pub enum Response {
    /// Save succeeded; the created record's id.
    Created(i64),
    /// Validations failed; nothing was written.
    Invalid(Vec<String>),
    /// Destroy succeeded.
    Destroyed,
    /// Read succeeded.
    Found(Record),
    /// The target row does not exist.
    NotFound,
    /// The database rejected the request (constraint violation,
    /// serialization failure, lock timeout, ...).
    Error(OrmError),
    /// The server shed this request under overload before any
    /// application logic ran. Always safe to retry.
    Overloaded,
    /// Custom-handler / template success marker.
    Ok,
}

impl Response {
    /// Whether the request had its intended effect.
    pub fn succeeded(&self) -> bool {
        matches!(
            self,
            Response::Created(_) | Response::Destroyed | Response::Found(_) | Response::Ok
        )
    }

    /// Whether re-issuing the identical request may succeed: load sheds
    /// always (nothing ran), and errors the ORM classifies as retryable
    /// (concurrency aborts, optimistic-locking conflicts).
    pub fn retryable(&self) -> bool {
        match self {
            Response::Overloaded => true,
            Response::Error(e) => e.is_retryable(),
            _ => false,
        }
    }
}

/// One thread stripe of a [`PooledService`]: the idle session and the
/// call count of the threads that map to it, padded so a caller checks
/// its session in and out on a line no other caller writes.
#[repr(align(128))]
struct SessionStripe {
    idle: parking_lot::Mutex<Option<Session>>,
    calls: AtomicU64,
}

/// An in-process [`Service`] with a bounded session pool instead of
/// worker threads: each call checks a [`feral_orm::Session`] out (or
/// opens one when its stripe is dry), runs the request on the *calling*
/// thread, and returns the session if the stripe has room. This is the
/// shape a networked frontend's executor threads front the database
/// with — `pool` plays the role of the Rails database connection pool.
///
/// The pool is `pool` stripes of one idle session each, a caller using
/// the stripe of its thread ([`feral_db::thread_slot`]): up to `pool`
/// threads each keep reusing a session of their own, and any further
/// threads share stripes, opening a session when they find theirs out.
pub struct PooledService {
    app: App,
    stripes: Vec<SessionStripe>,
    pool: usize,
}

impl PooledService {
    /// A pooled service over `app` retaining at most `pool` idle
    /// sessions.
    pub fn new(app: App, pool: usize) -> Self {
        PooledService {
            app,
            stripes: (0..pool.max(1))
                .map(|_| SessionStripe {
                    idle: parking_lot::Mutex::new(None),
                    calls: AtomicU64::new(0),
                })
                .collect(),
            pool,
        }
    }

    /// Requests served so far.
    pub fn calls(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.calls.load(Ordering::Relaxed))
            .sum()
    }

    /// Sessions currently idle in the pool.
    pub fn idle_sessions(&self) -> usize {
        self.stripes
            .iter()
            .filter(|s| s.idle.lock().is_some())
            .count()
    }
}

impl Service for PooledService {
    fn call(&self, request: Request) -> Response {
        let stripe = &self.stripes[feral_db::thread_slot() % self.stripes.len()];
        let checked_out = std::mem::take(&mut *stripe.idle.lock());
        let mut session = checked_out.unwrap_or_else(|| self.app.session());
        let response = handle(&mut session, request);
        stripe.calls.fetch_add(1, Ordering::Relaxed);
        if self.pool > 0 {
            // a sharer of this stripe may have returned its session first
            stripe.idle.lock().get_or_insert(session);
        }
        response
    }
}

fn handle(session: &mut Session, request: Request) -> Response {
    match request.op {
        Op::Create { model, attrs } => {
            let pairs: Vec<(&str, Datum)> =
                attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            match session.create(&model, &pairs) {
                Ok(r) if r.is_persisted() => Response::Created(r.id().unwrap_or(-1)),
                Ok(r) => Response::Invalid(r.errors.full_messages()),
                Err(e) => Response::Error(e),
            }
        }
        Op::Destroy { model, id } => match session.find(&model, id) {
            Ok(mut rec) => match session.destroy(&mut rec) {
                Ok(()) => Response::Destroyed,
                Err(e) => Response::Error(e),
            },
            Err(OrmError::RecordNotFound(_)) => Response::NotFound,
            Err(e) => Response::Error(e),
        },
        Op::Get { model, id } => match session.find(&model, id) {
            Ok(rec) => Response::Found(rec),
            Err(OrmError::RecordNotFound(_)) => Response::NotFound,
            Err(e) => Response::Error(e),
        },
        Op::Template { name, .. } => Response::Error(OrmError::Config(format!(
            "no template handler for `{name}` (ORM-backed service)"
        ))),
        Op::Custom(f) => f(session),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_orm::ModelDef;

    fn app() -> App {
        let app = App::in_memory();
        app.define(
            ModelDef::build("Widget")
                .string("name")
                .validates_presence_of("name")
                .finish(),
        )
        .unwrap();
        app
    }

    fn create_widget(name: &str) -> Request {
        Request::builder("Widget")
            .attr("name", Datum::text(name))
            .create()
    }

    #[test]
    fn create_and_get_roundtrip() {
        let svc = PooledService::new(app(), 1);
        let r = svc.call(create_widget("w"));
        let Response::Created(id) = r else {
            panic!("expected Created, got {r:?}")
        };
        let r = svc.call(Request::builder("Widget").get(id));
        assert!(matches!(r, Response::Found(_)));
    }

    #[test]
    fn invalid_create_reports_errors() {
        let svc = PooledService::new(app(), 1);
        let r = svc.call(Request::builder("Widget").create());
        match r {
            Response::Invalid(msgs) => {
                assert!(msgs.iter().any(|m| m.contains("blank")), "{msgs:?}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn destroy_and_not_found() {
        let svc = PooledService::new(app(), 1);
        let Response::Created(id) = svc.call(create_widget("w")) else {
            panic!()
        };
        assert!(matches!(
            svc.call(Request::builder("Widget").destroy(id)),
            Response::Destroyed
        ));
        assert!(matches!(
            svc.call(Request::builder("Widget").get(id)),
            Response::NotFound
        ));
    }

    #[test]
    fn custom_requests_run_controller_logic() {
        let svc = PooledService::new(app(), 1);
        let r = svc.call(Request::custom(|s| {
            match s.create("Widget", &[("name", Datum::text("custom"))]) {
                Ok(r) if r.is_persisted() => Response::Created(r.id().unwrap()),
                Ok(_) => Response::Invalid(vec![]),
                Err(e) => Response::Error(e),
            }
        }));
        assert!(matches!(r, Response::Created(_)));
    }

    #[test]
    fn builder_carries_session_attrs_and_op() {
        let r = Request::builder("Widget")
            .session(42)
            .attr("name", Datum::text("w"))
            .attrs(&[("extra", Datum::Int(7))])
            .create();
        assert_eq!(r.session, 42);
        let Op::Create { model, attrs } = r.op else {
            panic!("expected Create")
        };
        assert_eq!(model, "Widget");
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[0].0, "name");
        assert_eq!(attrs[1].1, Datum::Int(7));

        let r = Request::builder("Widget").session(9).get(3);
        assert!(matches!(r.op, Op::Get { id: 3, .. }));
        assert_eq!(r.session, 9);
        let r = Request::builder("Widget").destroy(4).with_session(8);
        assert!(matches!(r.op, Op::Destroy { id: 4, .. }));
        assert_eq!(r.session, 8);
        let r = Request::template("lock-version-rmw:accounts.lock_version", 17);
        assert!(matches!(r.op, Op::Template { key: 17, .. }));
    }

    #[test]
    fn pooled_service_reuses_sessions_and_serves() {
        let svc = PooledService::new(app(), 2);
        let svc = std::sync::Arc::new(svc);
        let mut joins = Vec::new();
        for t in 0..4 {
            let svc = svc.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..8 {
                    let r = svc.call(create_widget(&format!("w{t}-{i}")));
                    assert!(r.succeeded(), "{r:?}");
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(svc.calls(), 32);
        // the pool retains at most its bound
        assert!(svc.idle_sessions() <= 2);
        // a template op is a config error on an ORM-backed service
        let r = svc.call(Request::template("nope:t.c", 1));
        assert!(matches!(r, Response::Error(OrmError::Config(_))));
        assert!(!r.retryable());
    }

    /// A create may carry its own `id`. Ids the table's sequence never
    /// hands out (at or below zero, at the top of `i64`, or past the
    /// primary key's growth slack) are stored and found like any other,
    /// and a second create with one is refused.
    #[test]
    fn creates_with_explicit_ids_are_found_and_unique() {
        let svc = PooledService::new(app(), 1);
        for _ in 0..10 {
            assert!(svc.call(create_widget("seq")).succeeded());
        }
        let past = 10 + feral_db::index::DENSE_SLACK as i64 + 1;
        for id in [i64::MAX, 0, -5, past] {
            let with_id = || {
                Request::builder("Widget")
                    .attr("id", Datum::Int(id))
                    .attr("name", Datum::text(format!("w{id}")))
                    .create()
            };
            let r = svc.call(with_id());
            assert!(
                matches!(r, Response::Created(got) if got == id),
                "{id}: {r:?}"
            );
            let r = svc.call(Request::builder("Widget").get(id));
            let Response::Found(record) = r else {
                panic!("{id}: expected Found, got {r:?}")
            };
            assert_eq!(record.get("name"), Datum::text(format!("w{id}")));
            let r = svc.call(with_id());
            assert!(
                matches!(
                    r,
                    Response::Error(OrmError::Db(feral_db::DbError::UniqueViolation { .. }))
                ),
                "{id}: {r:?}"
            );
        }
    }

    #[test]
    fn retryable_classification() {
        assert!(Response::Overloaded.retryable());
        assert!(!Response::Overloaded.succeeded());
        assert!(Response::Error(OrmError::StaleObject("w".into())).retryable());
        assert!(Response::Error(OrmError::Db(feral_db::DbError::WriteConflict)).retryable());
        assert!(!Response::Error(OrmError::Config("x".into())).retryable());
        assert!(!Response::NotFound.retryable());
    }
}
