//! Binary length-prefixed wire protocol (version 1).
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! +----------------+---------------------------+
//! | u32 LE length  |  payload (length bytes)   |
//! +----------------+---------------------------+
//! ```
//!
//! The length counts the payload only, and is bounded by [`MAX_FRAME`]
//! so a malformed or hostile peer cannot make the server buffer
//! unbounded memory. Request payloads are
//! `u64 LE request-id · u8 opcode · body`; response payloads are
//! `u64 LE request-id · u8 status · body`. The request id is chosen by
//! the client and echoed verbatim, which is what makes pipelining work:
//! responses may legally arrive out of order.
//!
//! Scalars are little-endian. Strings are `u16 LE length · UTF-8
//! bytes`. A [`Datum`] is a one-byte tag followed by its value. The
//! codec is *class-preserving* for errors: an error crosses the wire as
//! a kind tag plus its rendered message, and decodes to a
//! representative [`DbError`]/[`OrmError`] of the same class, so
//! `Response::retryable()` and constraint-violation classification give
//! the same answer on both sides of the connection.
//!
//! [`Op::Custom`] requests carry a closure and cannot cross the wire;
//! encoding one is an [`WireError::Unencodable`] error by design.

use feral_db::{DataType, Datum, DbError};
use feral_orm::{ModelDef, OrmError, Record};
use feral_server::{Op, Request, Response};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Protocol version, negotiated implicitly (bumped on breaking change).
pub const VERSION: u8 = 1;

/// Hard upper bound on a frame payload, bytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Request opcodes.
const OP_CREATE: u8 = 1;
const OP_GET: u8 = 2;
const OP_DESTROY: u8 = 3;
const OP_TEMPLATE: u8 = 4;

/// Response status codes.
const ST_OK: u8 = 0;
const ST_CREATED: u8 = 1;
const ST_DESTROYED: u8 = 2;
const ST_FOUND: u8 = 3;
const ST_NOT_FOUND: u8 = 4;
const ST_INVALID: u8 = 5;
const ST_ERROR: u8 = 6;
/// The retryable load-shed status — the backpressure contract's
/// "try again" byte.
const ST_OVERLOADED: u8 = 7;

/// Error-class tags (see module docs on class preservation).
const EK_CONFIG: u8 = 0;
const EK_NOT_FOUND: u8 = 1;
const EK_STALE: u8 = 2;
const EK_NOT_DESTROYED: u8 = 3;
const EK_INVALID: u8 = 4;
const EK_WRITE_CONFLICT: u8 = 5;
const EK_LOCK_TIMEOUT: u8 = 6;
const EK_SERIALIZATION: u8 = 7;
const EK_UNIQUE: u8 = 8;
const EK_FOREIGN_KEY: u8 = 9;
const EK_NULL: u8 = 10;
const EK_DB_OTHER: u8 = 11;

/// Everything that can go wrong while encoding or decoding.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the announced structure did.
    Truncated,
    /// An unknown opcode, status, tag, or a non-UTF-8 string.
    Malformed(String),
    /// A frame longer than [`MAX_FRAME`] was announced.
    Oversized(usize),
    /// The value cannot be represented on the wire ([`Op::Custom`]).
    Unencodable(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated payload"),
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME"),
            WireError::Unencodable(what) => write!(f, "{what} cannot be encoded"),
        }
    }
}

impl std::error::Error for WireError {}

type WireResult<T> = Result<T, WireError>;

// ---------------------------------------------------------------- encoding

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    buf.extend_from_slice(&bytes[..len]);
}

fn put_datum(buf: &mut Vec<u8>, d: &Datum) {
    match d {
        Datum::Null => buf.push(0),
        Datum::Bool(b) => {
            buf.push(1);
            buf.push(u8::from(*b));
        }
        Datum::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Datum::Float(x) => {
            buf.push(3);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Datum::Text(s) => {
            buf.push(4);
            put_str(buf, s);
        }
        Datum::Bytes(b) => {
            buf.push(5);
            buf.extend_from_slice(&(b.len().min(u32::MAX as usize) as u32).to_le_bytes());
            buf.extend_from_slice(b);
        }
        Datum::Timestamp(t) => {
            buf.push(6);
            buf.extend_from_slice(&t.to_le_bytes());
        }
    }
}

/// Encode a request as a full frame (length prefix included).
pub fn encode_request(request_id: u64, request: &Request) -> WireResult<Vec<u8>> {
    let mut payload = Vec::with_capacity(64);
    payload.extend_from_slice(&request_id.to_le_bytes());
    match &request.op {
        Op::Create { model, attrs } => {
            payload.push(OP_CREATE);
            payload.extend_from_slice(&request.session.to_le_bytes());
            put_str(&mut payload, model);
            payload.extend_from_slice(&(attrs.len().min(u16::MAX as usize) as u16).to_le_bytes());
            for (name, value) in attrs {
                put_str(&mut payload, name);
                put_datum(&mut payload, value);
            }
        }
        Op::Get { model, id } => {
            payload.push(OP_GET);
            payload.extend_from_slice(&request.session.to_le_bytes());
            put_str(&mut payload, model);
            payload.extend_from_slice(&id.to_le_bytes());
        }
        Op::Destroy { model, id } => {
            payload.push(OP_DESTROY);
            payload.extend_from_slice(&request.session.to_le_bytes());
            put_str(&mut payload, model);
            payload.extend_from_slice(&id.to_le_bytes());
        }
        Op::Template { name, key } => {
            payload.push(OP_TEMPLATE);
            payload.extend_from_slice(&request.session.to_le_bytes());
            put_str(&mut payload, name);
            payload.extend_from_slice(&key.to_le_bytes());
        }
        Op::Custom(_) => return Err(WireError::Unencodable("Op::Custom (carries a closure)")),
    }
    Ok(frame(payload))
}

fn error_parts(e: &OrmError) -> (u8, String) {
    match e {
        OrmError::Config(m) => (EK_CONFIG, m.clone()),
        OrmError::RecordNotFound(m) => (EK_NOT_FOUND, m.clone()),
        OrmError::StaleObject(m) => (EK_STALE, m.clone()),
        OrmError::RecordNotDestroyed(m) => (EK_NOT_DESTROYED, m.clone()),
        OrmError::RecordInvalid(errs) => (EK_INVALID, errs.full_messages().join(", ")),
        OrmError::Db(db) => match db {
            DbError::WriteConflict => (EK_WRITE_CONFLICT, db.to_string()),
            DbError::LockTimeout { .. } => (EK_LOCK_TIMEOUT, db.to_string()),
            DbError::SerializationFailure { .. } => (EK_SERIALIZATION, db.to_string()),
            DbError::UniqueViolation { .. } => (EK_UNIQUE, db.to_string()),
            DbError::ForeignKeyViolation { .. } => (EK_FOREIGN_KEY, db.to_string()),
            DbError::NullViolation(_) => (EK_NULL, db.to_string()),
            other => (EK_DB_OTHER, other.to_string()),
        },
    }
}

fn error_from_parts(kind: u8, message: String) -> WireResult<OrmError> {
    Ok(match kind {
        EK_CONFIG => OrmError::Config(message),
        EK_NOT_FOUND => OrmError::RecordNotFound(message),
        EK_STALE => OrmError::StaleObject(message),
        EK_NOT_DESTROYED => OrmError::RecordNotDestroyed(message),
        EK_INVALID => {
            let mut errs = feral_orm::Errors::new();
            errs.add("base", message);
            OrmError::RecordInvalid(errs)
        }
        EK_WRITE_CONFLICT => OrmError::Db(DbError::WriteConflict),
        EK_LOCK_TIMEOUT => OrmError::Db(DbError::LockTimeout { lock: message }),
        EK_SERIALIZATION => OrmError::Db(DbError::SerializationFailure { detail: message }),
        EK_UNIQUE => OrmError::Db(DbError::UniqueViolation {
            index: "remote".into(),
            key: message,
        }),
        EK_FOREIGN_KEY => OrmError::Db(DbError::ForeignKeyViolation {
            constraint: "remote".into(),
            detail: message,
        }),
        EK_NULL => OrmError::Db(DbError::NullViolation(message)),
        EK_DB_OTHER => OrmError::Db(DbError::Internal(message)),
        other => return Err(WireError::Malformed(format!("error kind {other}"))),
    })
}

/// Encode a response as a full frame (length prefix included).
pub fn encode_response(request_id: u64, response: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_response_into(&mut out, request_id, response);
    out
}

/// Append a response to `out` as a full frame: the server writes a reply
/// straight into its connection's output buffer.
pub fn encode_response_into(out: &mut Vec<u8>, request_id: u64, response: &Response) {
    let start = out.len();
    // the length prefix, patched once the payload is written
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&request_id.to_le_bytes());
    match response {
        Response::Ok => out.push(ST_OK),
        Response::Created(id) => {
            out.push(ST_CREATED);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Response::Destroyed => out.push(ST_DESTROYED),
        Response::Found(record) => {
            out.push(ST_FOUND);
            put_str(out, &record.model.name);
            let cols = record.model.columns();
            out.extend_from_slice(&(cols.len().min(u16::MAX as usize) as u16).to_le_bytes());
            for (col, (name, _)) in cols.iter().enumerate() {
                put_str(out, name);
                put_datum(out, record.at(col));
            }
        }
        Response::NotFound => out.push(ST_NOT_FOUND),
        Response::Invalid(messages) => {
            out.push(ST_INVALID);
            out.extend_from_slice(&(messages.len().min(u16::MAX as usize) as u16).to_le_bytes());
            for m in messages {
                put_str(out, m);
            }
        }
        Response::Error(e) => {
            out.push(ST_ERROR);
            let (kind, message) = error_parts(e);
            out.push(kind);
            put_str(out, &message);
        }
        Response::Overloaded => out.push(ST_OVERLOADED),
    }
    let payload = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&payload.to_le_bytes());
}

fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------- decoding

/// A zero-copy payload cursor.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> WireResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str_ref(&mut self) -> WireResult<&'a str> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| WireError::Malformed("non-UTF-8 string".into()))
    }

    fn str(&mut self) -> WireResult<String> {
        self.str_ref().map(str::to_string)
    }

    fn datum(&mut self) -> WireResult<Datum> {
        Ok(match self.u8()? {
            0 => Datum::Null,
            1 => Datum::Bool(self.u8()? != 0),
            2 => Datum::Int(self.i64()?),
            3 => Datum::Float(f64::from_bits(self.u64()?)),
            // built from the frame's bytes, with no `String` in between
            4 => Datum::text(self.str_ref()?),
            5 => {
                let len = u32::from_le_bytes(self.take(4)?.try_into().unwrap()) as usize;
                Datum::Bytes(self.take(len)?.into())
            }
            6 => Datum::Timestamp(self.i64()?),
            tag => return Err(WireError::Malformed(format!("datum tag {tag}"))),
        })
    }

    fn done(&self) -> WireResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes".into()))
        }
    }
}

/// Decode a request payload (the bytes after the length prefix).
pub fn decode_request(payload: &[u8]) -> WireResult<(u64, Request)> {
    let mut c = Cursor::new(payload);
    let request_id = c.u64()?;
    let opcode = c.u8()?;
    let session = c.u64()?;
    let op = match opcode {
        OP_CREATE => {
            let model = c.str()?;
            let n = c.u16()? as usize;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                let name = c.str()?;
                let value = c.datum()?;
                attrs.push((name, value));
            }
            Op::Create { model, attrs }
        }
        OP_GET => Op::Get {
            model: c.str()?,
            id: c.i64()?,
        },
        OP_DESTROY => Op::Destroy {
            model: c.str()?,
            id: c.i64()?,
        },
        OP_TEMPLATE => Op::Template {
            name: c.str()?,
            key: c.u64()?,
        },
        other => return Err(WireError::Malformed(format!("opcode {other}"))),
    };
    c.done()?;
    Ok((request_id, Request { session, op }))
}

/// Decode a response payload (the bytes after the length prefix).
///
/// `Found` records are rebuilt against a synthesized [`ModelDef`] whose
/// column order matches the wire encoding; attribute names, values, and
/// `id()` round-trip, model-level metadata (validations, associations)
/// deliberately does not — the client holds no schema. The definition is
/// synthesized once per reply *shape* (model name, column names, column
/// types) and reused from a per-thread cache, so a reply of a shape this
/// thread has decoded before allocates only its values.
pub fn decode_response(payload: &[u8]) -> WireResult<(u64, Response)> {
    let mut c = Cursor::new(payload);
    let request_id = c.u64()?;
    let response = match c.u8()? {
        ST_OK => Response::Ok,
        ST_CREATED => Response::Created(c.i64()?),
        ST_DESTROYED => Response::Destroyed,
        ST_FOUND => {
            let model_name = c.str_ref()?;
            let n = c.u16()? as usize;
            let mut cols = Vec::with_capacity(n);
            for _ in 0..n {
                let name = c.str_ref()?;
                let value = c.datum()?;
                cols.push((name, value));
            }
            Response::Found(rebuild_record(model_name, cols))
        }
        ST_NOT_FOUND => Response::NotFound,
        ST_INVALID => {
            let n = c.u16()? as usize;
            let mut messages = Vec::with_capacity(n);
            for _ in 0..n {
                messages.push(c.str()?);
            }
            Response::Invalid(messages)
        }
        ST_ERROR => {
            let kind = c.u8()?;
            let message = c.str()?;
            Response::Error(error_from_parts(kind, message)?)
        }
        ST_OVERLOADED => Response::Overloaded,
        other => return Err(WireError::Malformed(format!("status {other}"))),
    };
    c.done()?;
    Ok((request_id, response))
}

/// Reply shapes one thread keeps a synthesized definition for; the
/// oldest goes first. A client sees a handful (one per model it reads),
/// and a peer inventing shapes cannot grow the cache past this.
const SHAPE_CACHE: usize = 32;

thread_local! {
    static SHAPES: RefCell<Vec<Arc<ModelDef>>> = const { RefCell::new(Vec::new()) };
}

/// The column type a synthesized definition gives a wire value.
fn wire_type(value: &Datum) -> DataType {
    match value {
        Datum::Int(_) | Datum::Timestamp(_) | Datum::Bool(_) => DataType::Int,
        Datum::Float(_) => DataType::Float,
        _ => DataType::Text,
    }
}

/// The synthesized definition for a reply of this shape: from the
/// thread's cache, or built (and cached) now. `ModelDef::build` owns the
/// implicit `id` column; the rest are declared in wire order, typed by
/// the datum that arrived.
fn synthesized_model(model_name: &str, cols: &[(&str, Datum)]) -> Arc<ModelDef> {
    let declared = || cols.iter().filter(|(name, _)| *name != "id");
    SHAPES.with(|shapes| {
        let mut shapes = shapes.borrow_mut();
        let seen = shapes.iter().find(|def| {
            def.name == model_name
                && def.attributes.len() == declared().count()
                && declared()
                    .zip(&def.attributes)
                    .all(|((name, value), (n, ty))| name == n && wire_type(value) == *ty)
        });
        if let Some(def) = seen {
            return def.clone();
        }
        let mut b = ModelDef::build(model_name).without_timestamps();
        for (name, value) in declared() {
            b = b.attribute(*name, wire_type(value));
        }
        let def = Arc::new(b.finish());
        if shapes.len() == SHAPE_CACHE {
            shapes.remove(0);
        }
        shapes.push(def.clone());
        def
    })
}

fn rebuild_record(model_name: &str, mut cols: Vec<(&str, Datum)>) -> Record {
    let model = synthesized_model(model_name, &cols);
    // collected straight into the shared image: one allocation
    let row: feral_db::Row = model
        .columns()
        .iter()
        .map(|(name, _)| {
            cols.iter_mut()
                .find(|(n, _)| n == name)
                .map_or(Datum::Null, |(_, value)| {
                    std::mem::replace(value, Datum::Null)
                })
        })
        .collect();
    Record::from_row(model, row)
}

// ---------------------------------------------------------------- framing

/// Where the first frame of `buf` lies, without copying it: the range
/// of its payload within `buf` and the bytes the whole frame occupies
/// (prefix included) — advance a cursor by that much and call again.
/// `None` when more bytes are needed; an error for an oversized
/// announcement (the connection should be dropped).
pub fn frame_at(buf: &[u8]) -> WireResult<Option<(Range<usize>, usize)>> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((4..4 + len, 4 + len)))
}

/// Incremental frame extractor over a receive buffer: [`frame_at`], with
/// the payload copied out and the frame drained from `buf`. A reader
/// that expects many frames per buffer should walk it with [`frame_at`]
/// and drain once.
pub fn take_frame(buf: &mut Vec<u8>) -> WireResult<Option<Vec<u8>>> {
    let Some((payload, used)) = frame_at(buf)? else {
        return Ok(None);
    };
    let payload = buf[payload].to_vec();
    buf.drain(..used);
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload_of(frame: &[u8]) -> &[u8] {
        &frame[4..]
    }

    #[test]
    fn create_request_roundtrips() {
        let req = Request::builder("Widget")
            .session(77)
            .attr("name", Datum::text("w"))
            .attr("score", Datum::Float(1.5))
            .create();
        let f = encode_request(9, &req).unwrap();
        let (id, decoded) = decode_request(payload_of(&f)).unwrap();
        assert_eq!(id, 9);
        assert_eq!(decoded.session, 77);
        let Op::Create { model, attrs } = decoded.op else {
            panic!()
        };
        assert_eq!(model, "Widget");
        assert_eq!(attrs[0], ("name".into(), Datum::text("w")));
        assert_eq!(attrs[1], ("score".into(), Datum::Float(1.5)));
    }

    #[test]
    fn get_destroy_template_roundtrip() {
        for (req, check) in [
            (
                Request::builder("M").session(1).get(5),
                Box::new(|op: &Op| matches!(op, Op::Get { id: 5, .. })) as Box<dyn Fn(&Op) -> bool>,
            ),
            (
                Request::builder("M").destroy(6),
                Box::new(|op: &Op| matches!(op, Op::Destroy { id: 6, .. })),
            ),
            (
                Request::template("t:a.b", 12).with_session(3),
                Box::new(|op: &Op| matches!(op, Op::Template { key: 12, .. })),
            ),
        ] {
            let f = encode_request(1, &req).unwrap();
            let (_, decoded) = decode_request(payload_of(&f)).unwrap();
            assert!(check(&decoded.op));
            assert_eq!(decoded.session, req.session);
        }
    }

    #[test]
    fn custom_is_unencodable() {
        let req = Request::custom(|_| Response::Ok);
        assert!(matches!(
            encode_request(0, &req),
            Err(WireError::Unencodable(_))
        ));
    }

    #[test]
    fn simple_responses_roundtrip() {
        for resp in [
            Response::Ok,
            Response::Created(41),
            Response::Destroyed,
            Response::NotFound,
            Response::Overloaded,
            Response::Invalid(vec!["Name has already been taken".into()]),
        ] {
            let f = encode_response(3, &resp);
            let (id, decoded) = decode_response(payload_of(&f)).unwrap();
            assert_eq!(id, 3);
            assert_eq!(format!("{resp:?}"), format!("{decoded:?}"));
        }
    }

    #[test]
    fn found_record_preserves_attrs_and_id() {
        let model = Arc::new(
            ModelDef::build("User")
                .string("name")
                .integer("age")
                .without_timestamps()
                .finish(),
        );
        let mut rec = Record::new(model.clone());
        rec.set("id", 12i64).set("name", "ada").set("age", 36i64);
        let rec = Record::from_tuple(model, &rec.to_tuple());
        let f = encode_response(1, &Response::Found(rec));
        let (_, decoded) = decode_response(payload_of(&f)).unwrap();
        let Response::Found(out) = decoded else {
            panic!()
        };
        assert_eq!(out.model.name, "User");
        assert_eq!(out.id(), Some(12));
        assert_eq!(out.get("name"), Datum::text("ada"));
        assert_eq!(out.get("age"), Datum::Int(36));
        assert!(out.is_persisted());
    }

    #[test]
    fn found_definitions_are_cached_per_reply_shape() {
        let found = |model: ModelDef, attrs: &[(&str, Datum)]| {
            let mut rec = Record::new(Arc::new(model));
            rec.set("id", 5i64).assign(attrs);
            let f = encode_response(1, &Response::Found(rec));
            match decode_response(payload_of(&f)).unwrap().1 {
                Response::Found(out) => out,
                other => panic!("expected Found, got {other:?}"),
            }
        };
        let narrow = || {
            ModelDef::build("Shape")
                .string("name")
                .without_timestamps()
                .finish()
        };
        let wide = || {
            ModelDef::build("Shape")
                .string("name")
                .integer("age")
                .without_timestamps()
                .finish()
        };
        let a = found(narrow(), &[("name", Datum::text("a"))]);
        let b = found(narrow(), &[("name", Datum::text("b"))]);
        assert!(
            Arc::ptr_eq(&a.model, &b.model),
            "same shape, one definition"
        );
        assert_eq!(b.get("name"), Datum::text("b"));
        // the column set of the same model changes between two replies
        let c = found(
            wide(),
            &[("name", Datum::text("c")), ("age", Datum::Int(3))],
        );
        assert!(!Arc::ptr_eq(&a.model, &c.model));
        assert_eq!(c.model.columns().len(), 3);
        assert_eq!(c.get("age"), Datum::Int(3));
        assert_eq!(c.id(), Some(5));
        // ...and so does a column's type: a NULL arrives as text
        let d = found(wide(), &[("name", Datum::text("d"))]);
        assert!(!Arc::ptr_eq(&c.model, &d.model));
        assert!(d.get("age").is_null());
        // the narrow shape is still served from the cache afterwards
        let e = found(narrow(), &[("name", Datum::text("e"))]);
        assert!(Arc::ptr_eq(&a.model, &e.model));
        assert_eq!(e.to_tuple(), vec![Datum::Int(5), Datum::text("e")]);
    }

    #[test]
    fn error_classes_survive_the_wire() {
        let cases: Vec<OrmError> = vec![
            OrmError::Config("bad".into()),
            OrmError::RecordNotFound("User 9".into()),
            OrmError::StaleObject("User".into()),
            OrmError::RecordNotDestroyed("restricted".into()),
            OrmError::Db(DbError::WriteConflict),
            OrmError::Db(DbError::LockTimeout {
                lock: "row 3".into(),
            }),
            OrmError::Db(DbError::SerializationFailure {
                detail: "rw".into(),
            }),
            OrmError::Db(DbError::UniqueViolation {
                index: "ix".into(),
                key: "(k)".into(),
            }),
            OrmError::Db(DbError::ForeignKeyViolation {
                constraint: "fk".into(),
                detail: "missing parent".into(),
            }),
            OrmError::Db(DbError::NullViolation("col".into())),
            OrmError::Db(DbError::Internal("bug".into())),
        ];
        for e in cases {
            let retryable = e.is_retryable();
            let constraint = matches!(&e, OrmError::Db(d) if d.is_constraint_violation());
            let f = encode_response(0, &Response::Error(e));
            let (_, decoded) = decode_response(payload_of(&f)).unwrap();
            let Response::Error(out) = &decoded else {
                panic!()
            };
            assert_eq!(out.is_retryable(), retryable, "{out:?}");
            assert_eq!(
                matches!(out, OrmError::Db(d) if d.is_constraint_violation()),
                constraint,
                "{out:?}"
            );
            assert_eq!(decoded.retryable(), retryable);
        }
    }

    #[test]
    fn encode_response_into_appends_the_frame_encode_response_builds() {
        let mut errs = feral_orm::Errors::new();
        errs.add("email", "has already been taken");
        let responses = [
            Response::Created(7),
            Response::Invalid(errs.full_messages()),
            Response::Overloaded,
        ];
        let mut out = b"already buffered".to_vec();
        let mut want = out.clone();
        for (id, r) in responses.iter().enumerate() {
            encode_response_into(&mut out, id as u64, r);
            want.extend_from_slice(&encode_response(id as u64, r));
        }
        assert_eq!(out, want);
        out.drain(..b"already buffered".len());
        for id in 0..responses.len() as u64 {
            let payload = take_frame(&mut out).unwrap().expect("a whole frame");
            assert_eq!(decode_response(&payload).unwrap().0, id);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn take_frame_handles_partial_and_pipelined_input() {
        let f1 = encode_response(1, &Response::Ok);
        let f2 = encode_response(2, &Response::Destroyed);
        let mut buf = Vec::new();
        buf.extend_from_slice(&f1[..3]);
        assert_eq!(take_frame(&mut buf).unwrap(), None);
        buf.extend_from_slice(&f1[3..]);
        buf.extend_from_slice(&f2);
        let p1 = take_frame(&mut buf).unwrap().unwrap();
        assert_eq!(decode_response(&p1).unwrap().0, 1);
        let p2 = take_frame(&mut buf).unwrap().unwrap();
        assert_eq!(decode_response(&p2).unwrap().0, 2);
        assert_eq!(take_frame(&mut buf).unwrap(), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        assert!(matches!(take_frame(&mut buf), Err(WireError::Oversized(_))));
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        assert!(matches!(
            decode_request(&[1, 2, 3]),
            Err(WireError::Truncated)
        ));
        let mut p = 9u64.to_le_bytes().to_vec();
        p.push(200); // unknown opcode
        p.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            decode_request(&p),
            Err(WireError::Malformed(_)) | Err(WireError::Truncated)
        ));
    }
}
