//! Property tests for the wire codec's two promises to the event loop:
//! hostile bytes are an error, never a panic, and the borrowed framer
//! (`frame_at` + a cursor, one drain per read) sees exactly the frames the
//! copying one (`take_frame`) does, however the stream is cut into reads.

use feral_db::Datum;
use feral_net::wire::{self, WireError};
use feral_orm::{ModelDef, Record};
use feral_server::{Request, Response};
use proptest::prelude::*;
use std::sync::Arc;

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

/// Well-formed payloads of every opcode and status, for the mutations
/// below to start from: random bytes alone rarely get past the opcode.
fn valid_payloads() -> Vec<Vec<u8>> {
    let model = Arc::new(
        ModelDef::build("User")
            .string("email")
            .integer("age")
            .without_timestamps()
            .finish(),
    );
    let mut record = Record::new(model);
    record
        .set("id", 7i64)
        .set("email", "a@b.c")
        .set("age", 3i64);
    let requests = [
        Request::builder("User")
            .session(9)
            .attr("email", Datum::text("a@b.c"))
            .attr("score", Datum::Float(1.5))
            .attr("blob", Datum::Bytes(vec![1, 2, 3]))
            .attr("seen", Datum::Timestamp(4))
            .attr("nil", Datum::Null)
            .attr("ok", Datum::Bool(true))
            .create(),
        Request::builder("User").session(1).get(5),
        Request::builder("User").destroy(6),
        Request::template("t:a.b", 12).with_session(3),
    ];
    let responses = [
        Response::Ok,
        Response::Created(41),
        Response::Destroyed,
        Response::Found(record),
        Response::NotFound,
        Response::Invalid(vec!["Email has already been taken".into()]),
        Response::Error(feral_orm::OrmError::Config("bad".into())),
        Response::Overloaded,
    ];
    let requests = requests.iter().map(|r| wire::encode_request(1, r).unwrap());
    let responses = responses.iter().map(|r| wire::encode_response(2, r));
    requests.chain(responses).map(|f| f[4..].to_vec()).collect()
}

/// Run both decoders and both framers over `payload`; none may panic.
fn decode_everything(payload: &[u8]) {
    let _ = wire::decode_request(payload);
    let _ = wire::decode_response(payload);
    let _ = wire::frame_at(payload);
    let _ = wire::take_frame(&mut payload.to_vec());
}

/// Every frame, and the error if the stream ends in one, read the way
/// the clients do: `take_frame` until it has no more.
fn read_by_taking(buf: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) -> Result<(), WireError> {
    while let Some(payload) = wire::take_frame(buf)? {
        out.push(payload);
    }
    Ok(())
}

/// The same, read the way the event loop does: a cursor over the buffer,
/// payloads borrowed, one drain at the end.
fn read_by_cursor(buf: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) -> Result<(), WireError> {
    let mut at = 0;
    let outcome = loop {
        match wire::frame_at(&buf[at..]) {
            Ok(Some((payload, used))) => {
                out.push(buf[at..][payload].to_vec());
                at += used;
            }
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    buf.drain(..at);
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(payload in bytes(96)) {
        decode_everything(&payload);
    }

    /// A well-formed payload with bytes overwritten, then cut short or
    /// padded: reaches every branch of the decoders with lengths, tags and
    /// UTF-8 that lie.
    #[test]
    fn damaged_payloads_never_panic_a_decoder(
        which in any::<u8>(),
        damage in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..6),
        keep in any::<u16>(),
        padding in bytes(8),
    ) {
        let valid = valid_payloads();
        let mut payload = valid[which as usize % valid.len()].clone();
        for (at, byte) in damage {
            let at = at as usize % payload.len();
            payload[at] = byte;
        }
        payload.truncate(keep as usize % (payload.len() + 1));
        decode_everything(&payload);
        payload.extend_from_slice(&padding);
        decode_everything(&payload);
    }

    /// Frames of arbitrary payloads — optionally followed by a prefix
    /// announcing more than `MAX_FRAME` — cut into reads at arbitrary
    /// bytes: after every read the two framers have produced the same
    /// payloads, hold the same unconsumed bytes, and agree on the error.
    #[test]
    fn the_borrowed_framer_agrees_with_take_frame_on_any_split(
        payloads in proptest::collection::vec(bytes(40), 0..8),
        oversized in any::<bool>(),
        trailing in bytes(3),
        cuts in proptest::collection::vec(any::<u16>(), 0..6),
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&(p.len() as u32).to_le_bytes());
            stream.extend_from_slice(p);
        }
        if oversized {
            stream.extend_from_slice(&(wire::MAX_FRAME as u32 + 1).to_le_bytes());
        }
        stream.extend_from_slice(&trailing);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| *c as usize % (stream.len() + 1)).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();

        let (mut taken, mut walked) = (Vec::new(), Vec::new());
        let (mut take_buf, mut walk_buf) = (Vec::new(), Vec::new());
        let mut from = 0;
        for to in cuts {
            take_buf.extend_from_slice(&stream[from..to]);
            walk_buf.extend_from_slice(&stream[from..to]);
            from = to;
            let took = read_by_taking(&mut take_buf, &mut taken);
            let walk = read_by_cursor(&mut walk_buf, &mut walked);
            prop_assert_eq!(&took, &walk);
            prop_assert_eq!(&taken, &walked);
            prop_assert_eq!(&take_buf, &walk_buf);
            if took.is_err() {
                // the connection is dropped here; both stopped at the same byte
                prop_assert!(oversized);
                break;
            }
        }
        if !oversized {
            prop_assert_eq!(&taken, &payloads);
            // a trailing fragment shorter than a prefix stays buffered
            prop_assert_eq!(&take_buf, &trailing);
        }
    }
}
