//! Datum values and their SQL-flavoured semantics.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The dynamic type of a [`Datum`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Text,
    /// Raw bytes.
    Bytes,
    /// Microseconds since the Unix epoch (Rails `datetime`).
    Timestamp,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bytes => "BYTES",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A single dynamically typed value stored in a column.
///
/// `Datum` implements a *total* order (NULL sorts first, floats order by
/// IEEE total order) so it can be used directly as a B-tree index key.
/// SQL three-valued comparison semantics live in [`Datum::sql_eq`] and
/// [`Datum::sql_cmp`] instead.
#[derive(Debug, Clone)]
pub enum Datum {
    /// SQL NULL.
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Float(f64),
    /// String value.
    Text(Text),
    /// Binary value.
    Bytes(Box<[u8]>),
    /// Timestamp value (µs since epoch).
    Timestamp(i64),
}

impl Datum {
    /// The dynamic type of this datum, or `None` for NULL (which inhabits
    /// every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Datum::Null => None,
            Datum::Bool(_) => Some(DataType::Bool),
            Datum::Int(_) => Some(DataType::Int),
            Datum::Float(_) => Some(DataType::Float),
            Datum::Text(_) => Some(DataType::Text),
            Datum::Bytes(_) => Some(DataType::Bytes),
            Datum::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// True iff this datum is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// Convenience text constructor.
    pub fn text(s: impl Into<Text>) -> Datum {
        Datum::Text(s.into())
    }

    /// Extract an integer, if this datum is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract a float, widening integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Datum::Float(f) => Some(*f),
            Datum::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extract a string slice, if this datum is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Extract a boolean, if this datum is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL equality: `NULL = anything` is unknown, which we surface as
    /// `None`; otherwise numeric types compare across Int/Float.
    pub fn sql_eq(&self, other: &Datum) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_non_null(other) == Ordering::Equal)
    }

    /// SQL ordering comparison; `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_non_null(other))
    }

    /// Total-order comparison of two non-NULL datums. Mixed Int/Float
    /// compare numerically; any other cross-type comparison orders by a
    /// fixed type rank so indexes stay well-defined.
    fn cmp_non_null(&self, other: &Datum) -> Ordering {
        use Datum::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Datum::Null => 0,
            Datum::Bool(_) => 1,
            Datum::Int(_) => 2,
            Datum::Float(_) => 2, // numerics share a rank: they compare directly
            Datum::Timestamp(_) => 3,
            Datum::Text(_) => 4,
            Datum::Bytes(_) => 5,
        }
    }

    /// Encode the datum into `out` such that byte-wise comparison of
    /// encodings matches the total order. Used for composite index keys.
    pub fn encode_key(&self, out: &mut Vec<u8>) {
        self.encode_key_into(out);
    }

    /// [`Datum::encode_key`] into any [`KeySink`] — an index key is built
    /// in place, without a `Vec`.
    pub(crate) fn encode_key_into(&self, out: &mut impl KeySink) {
        match self {
            Datum::Null => out.put(&[0x00]),
            Datum::Bool(b) => out.put(&[0x01, *b as u8]),
            // flip the sign bit so two's-complement orders bytewise
            Datum::Int(i) => encode_word(NUMBER_TAG, (*i as u64) ^ (1 << 63), out),
            Datum::Float(f) => {
                // encode as the integer comparison key of total_cmp order,
                // shifted into the shared numeric rank via the i64 path when
                // the value is integral, else via an order-preserving bit
                // trick. Simpler: store f64 order key after the int tag so
                // mixed numeric keys remain comparable only when a column is
                // consistently typed (the schema layer enforces this).
                let bits = f.to_bits();
                let key = if bits >> 63 == 0 {
                    bits ^ (1 << 63)
                } else {
                    !bits
                };
                encode_word(NUMBER_TAG, key, out);
            }
            Datum::Timestamp(t) => encode_word(0x03, (*t as u64) ^ (1 << 63), out),
            Datum::Text(s) => encode_escaped(0x04, s.as_bytes(), out),
            Datum::Bytes(bs) => encode_escaped(0x05, bs, out),
        }
    }
}

/// The tag of a numeric key: an `Int` follows it as its value with the
/// sign bit flipped, big-endian, in eight bytes.
const NUMBER_TAG: u8 = 0x02;

/// The `Int` whose key is `key`, if `key` is the key of one. (A `Float`
/// key of the same bytes reads as that `Int`: keys compare as bytes, so
/// the two are one key.)
pub(crate) fn int_of_key(key: &[u8]) -> Option<i64> {
    match key {
        [NUMBER_TAG, word @ ..] => {
            Some((u64::from_be_bytes(word.try_into().ok()?) ^ (1 << 63)) as i64)
        }
        _ => None,
    }
}

/// The least `Int` whose key orders at or past `bound` (strictly past it
/// if `past`); `None` when every `Int` key orders before `bound`. The key
/// encoding orders `Int`s, so the `Int`s within two bounds are one run.
pub(crate) fn first_int_from(bound: &[u8], past: bool) -> Option<i64> {
    let word = match bound {
        [] => 0,
        [tag, ..] if *tag < NUMBER_TAG => 0,
        // a bound shorter than an `Int`'s key is reached once its
        // zero-padded word is; a longer one only by the next word
        [NUMBER_TAG, rest @ ..] => {
            let word = word_at(bound, 1);
            if rest.len() > 8 || (past && rest.len() == 8) {
                word.checked_add(1)?
            } else {
                word
            }
        }
        _ => return None,
    };
    Some((word ^ (1 << 63)) as i64)
}

/// The big-endian word of `bytes[at..at + 8]`, zero-padded past the end.
pub(crate) fn word_at(bytes: &[u8], at: usize) -> u64 {
    let rest = bytes.get(at..).unwrap_or_default();
    let n = rest.len().min(8);
    let mut word = [0; 8];
    word[..n].copy_from_slice(&rest[..n]);
    u64::from_be_bytes(word)
}

/// Where [`Datum::encode_key_into`] writes: a `Vec`, or an
/// [`crate::index::IndexKey`] under construction.
pub(crate) trait KeySink {
    /// Append `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl KeySink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// `tag`, then `word` big-endian, in one write.
fn encode_word(tag: u8, word: u64, out: &mut impl KeySink) {
    let mut bytes = [tag; 9];
    bytes[1..].copy_from_slice(&word.to_be_bytes());
    out.put(&bytes);
}

/// `tag`, then `bytes` with 0x00 escaped as 0x00 0xFF, then the terminator
/// 0x00 0x00, so a string orders before every string it prefixes.
fn encode_escaped(tag: u8, bytes: &[u8], out: &mut impl KeySink) {
    out.put(&[tag]);
    let mut runs = bytes.split(|&b| b == 0x00);
    if let Some(first) = runs.next() {
        out.put(first);
    }
    for run in runs {
        out.put(&[0x00, 0xFF]);
        out.put(run);
    }
    out.put(&[0x00, 0x00]);
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Datum {}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Datum {
    /// Total order: NULL first, then by type rank, then by value.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => self.cmp_non_null(other),
        }
    }
}

impl Hash for Datum {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut buf = Vec::with_capacity(16);
        self.encode_key(&mut buf);
        buf.hash(state);
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Int(i) => write!(f, "{i}"),
            Datum::Float(x) => write!(f, "{x}"),
            Datum::Text(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Datum::Bytes(b) => write!(f, "x'{}'", hex(b)),
            Datum::Timestamp(t) => write!(f, "ts({t})"),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}
impl From<i32> for Datum {
    fn from(v: i32) -> Self {
        Datum::Int(v as i64)
    }
}
impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Float(v)
    }
}
impl From<bool> for Datum {
    fn from(v: bool) -> Self {
        Datum::Bool(v)
    }
}
impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Text(v.into())
    }
}
impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Text(v.into())
    }
}
impl<T: Into<Datum>> From<Option<T>> for Datum {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Datum::Null,
        }
    }
}

/// A tuple (row image) is just an ordered list of datums, one per column:
/// an image under construction (an insert or update argument, a WAL
/// record).
pub type Tuple = Vec<Datum>;

/// A stored row image: the datums and their reference count in one
/// allocation, shared by the heap version, the readers it was handed to
/// and an audited commit's tail. `Row::from(tuple)` freezes a [`Tuple`].
pub type Row = Arc<[Datum]>;

// A datum is three words: `Text`'s variant byte leaves a niche that holds
// `Datum`'s own tag, and every other payload fits beside it.
const _: () = assert!(std::mem::size_of::<Datum>() == 24);

/// The longest string a [`Text`] holds in place.
const INLINE_TEXT: usize = 22;

/// The string of a [`Datum::Text`]: up to 22 bytes in place, a longer one
/// boxed at its exact length. It derefs to `str`, and orders, compares
/// and hashes like its bytes, as `str` does.
#[derive(Clone)]
pub struct Text(TextRepr);

#[derive(Clone)]
enum TextRepr {
    /// Up to `INLINE_TEXT` bytes of UTF-8.
    Inline { len: u8, buf: [u8; INLINE_TEXT] },
    /// A longer string.
    Boxed(Box<str>),
}

impl Text {
    /// The string, borrowed. An inline string is re-validated (at most 22
    /// bytes); comparison, hashing and the encoders read
    /// [`Text::as_bytes`] instead.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            TextRepr::Inline { len, buf } => {
                std::str::from_utf8(&buf[..*len as usize]).expect("a Text holds UTF-8")
            }
            TextRepr::Boxed(s) => s,
        }
    }

    /// The string's UTF-8 bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            TextRepr::Inline { len, buf } => &buf[..*len as usize],
            TextRepr::Boxed(s) => s.as_bytes(),
        }
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        match s.len() {
            len @ 0..=INLINE_TEXT => {
                let mut buf = [0; INLINE_TEXT];
                buf[..len].copy_from_slice(s.as_bytes());
                Text(TextRepr::Inline {
                    len: len as u8,
                    buf,
                })
            }
            _ => Text(TextRepr::Boxed(s.into())),
        }
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        if s.len() <= INLINE_TEXT {
            Text::from(s.as_str())
        } else {
            Text(TextRepr::Boxed(s.into_boxed_str()))
        }
    }
}

impl From<&String> for Text {
    fn from(s: &String) -> Self {
        Text::from(s.as_str())
    }
}

impl std::ops::Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Text {
    /// What `str` feeds a hasher: the bytes, then 0xFF.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xFF);
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn null_sorts_first_and_equals_itself_in_total_order() {
        assert!(Datum::Null < Datum::Int(i64::MIN));
        assert!(Datum::Null < Datum::text(""));
        assert_eq!(Datum::Null.cmp(&Datum::Null), Ordering::Equal);
    }

    #[test]
    fn sql_eq_is_three_valued() {
        assert_eq!(Datum::Null.sql_eq(&Datum::Int(1)), None);
        assert_eq!(Datum::Int(1).sql_eq(&Datum::Null), None);
        assert_eq!(Datum::Int(1).sql_eq(&Datum::Int(1)), Some(true));
        assert_eq!(Datum::Int(1).sql_eq(&Datum::Int(2)), Some(false));
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Datum::Int(2).sql_cmp(&Datum::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Datum::Int(2).sql_cmp(&Datum::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Datum::Float(3.0).sql_cmp(&Datum::Int(2)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn key_encoding_orders_like_datum_order_for_ints() {
        let vals = [i64::MIN, -5, -1, 0, 1, 42, i64::MAX];
        let mut encoded: Vec<Vec<u8>> = vals
            .iter()
            .map(|v| {
                let mut b = vec![];
                Datum::Int(*v).encode_key(&mut b);
                b
            })
            .collect();
        let sorted = encoded.clone();
        encoded.sort();
        assert_eq!(encoded, sorted);
    }

    #[test]
    fn key_encoding_orders_strings_with_embedded_nul_and_prefixes() {
        let a = Datum::text("ab");
        let b = Datum::text("ab\u{0}c");
        let c = Datum::text("abc");
        let enc = |d: &Datum| {
            let mut v = vec![];
            d.encode_key(&mut v);
            v
        };
        assert!(enc(&a) < enc(&b));
        assert!(enc(&b) < enc(&c));
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!(b.cmp(&c), Ordering::Less);
    }

    #[test]
    fn composite_key_respects_column_order() {
        let encode = |t: &Tuple, cols: [usize; 2]| {
            let mut key = Vec::new();
            for c in cols {
                t[c].encode_key(&mut key);
            }
            key
        };
        let t1 = vec![Datum::Int(1), Datum::text("b")];
        let t2 = vec![Datum::Int(1), Datum::text("a")];
        assert!(encode(&t2, [0, 1]) < encode(&t1, [0, 1]));
        // reversing the column order flips the comparison driver
        assert!(encode(&t2, [1, 0]) < encode(&t1, [1, 0]));
    }

    #[test]
    fn float_total_order_handles_negatives_and_nan() {
        let vals = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            2.25,
            f64::INFINITY,
            f64::NAN,
        ];
        let mut ds: Vec<Datum> = vals.iter().map(|v| Datum::Float(*v)).collect();
        ds.sort();
        // NaN sorts last under total_cmp
        assert!(matches!(ds.last(), Some(Datum::Float(f)) if f.is_nan()));
        // and key encodings agree
        let encs: Vec<Vec<u8>> = ds
            .iter()
            .map(|d| {
                let mut b = vec![];
                d.encode_key(&mut b);
                b
            })
            .collect();
        let mut sorted = encs.clone();
        sorted.sort();
        assert_eq!(encs, sorted);
    }

    #[test]
    fn display_escapes_quotes() {
        assert_eq!(Datum::text("o'brien").to_string(), "'o''brien'");
    }

    #[test]
    fn from_option_maps_none_to_null() {
        let d: Datum = Option::<i64>::None.into();
        assert!(d.is_null());
        let d: Datum = Some("x").into();
        assert_eq!(d, Datum::text("x"));
    }

    /// Up to 22 bytes stay in place, a longer string is boxed at its
    /// exact length.
    #[test]
    fn a_text_keeps_up_to_22_bytes_in_place() {
        let inline = |s: &str| matches!(Text::from(s).0, TextRepr::Inline { .. });
        assert!(inline(""));
        assert!(inline("u0000005@example.com"));
        assert!(inline(&"é".repeat(11)));
        assert!(!inline(&"x".repeat(23)));
        let long = "x".repeat(23);
        match Text::from(long.clone()).0 {
            TextRepr::Boxed(s) => assert_eq!(&*s, long),
            TextRepr::Inline { .. } => panic!("23 bytes do not fit in place"),
        }
    }

    /// The key encoding of a string as the `String`-backed datum wrote it.
    fn string_key(s: &str) -> Vec<u8> {
        let mut key = vec![0x04];
        for &b in s.as_bytes() {
            key.push(b);
            if b == 0x00 {
                key.push(0xFF);
            }
        }
        key.extend([0x00, 0x00]);
        key
    }

    /// Strings of 0–40 bytes of 1- to 4-byte characters, `\0` and `'`
    /// among them: they cross the in-place bound of 22 bytes.
    fn arb_string() -> impl Strategy<Value = String> {
        let ch = prop_oneof![
            Just('\0'),
            Just('a'),
            Just('b'),
            Just('\''),
            Just('é'),
            Just('€'),
            Just('😀'),
            any::<u32>().prop_map(|n| char::from_u32(n % 0x11_0000).unwrap_or('\u{FFFD}')),
        ];
        proptest::collection::vec(ch, 0..=40).prop_map(|chars| {
            let mut s = String::new();
            for c in chars {
                if s.len() + c.len_utf8() > 40 {
                    break;
                }
                s.push(c);
            }
            s
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// `Text`, and the datum carrying it, behave exactly as the
        /// `String` they replaced: order, equality, hashing, the key
        /// encoding, `Display` and `Debug`, and the WAL round trip. Each
        /// string is tried against itself with a `\0` appended and with
        /// its last character cut, where in-place buffers differ only in
        /// their length.
        #[test]
        fn a_text_behaves_like_the_string_it_holds(
            strings in proptest::collection::vec(arb_string(), 1..6),
        ) {
            use std::hash::BuildHasher;
            let hasher = std::collections::hash_map::RandomState::new();
            let mut all = Vec::new();
            for s in strings {
                let mut cut = s.clone();
                cut.pop();
                all.extend([format!("{s}\0"), cut, s]);
            }
            for s in &all {
                let (text, datum) = (Text::from(s.as_str()), Datum::text(s.as_str()));
                prop_assert_eq!(text.as_str(), s.as_str());
                prop_assert_eq!(text.as_bytes(), s.as_bytes());
                prop_assert!(Text::from(s.clone()) == text);
                prop_assert_eq!(datum.as_text(), Some(s.as_str()));
                prop_assert_eq!(hasher.hash_one(&text), hasher.hash_one(s));
                let mut key = Vec::new();
                datum.encode_key(&mut key);
                prop_assert_eq!(&key, &string_key(s));
                prop_assert_eq!(hasher.hash_one(&datum), hasher.hash_one(&key));
                prop_assert_eq!(text.to_string(), s.clone());
                prop_assert_eq!(datum.to_string(), format!("'{}'", s.replace('\'', "''")));
                prop_assert_eq!(format!("{text:?}"), format!("{s:?}"));
                prop_assert_eq!(format!("{datum:?}"), format!("Text({s:?})"));
                let bytes = Datum::Bytes(s.as_bytes().into());
                let record = crate::wal::WalRecord::Commit {
                    commit_ts: 7,
                    writes: vec![crate::wal::WalWrite::Insert {
                        table: "t".into(),
                        row: 0,
                        tuple: vec![datum.clone(), bytes],
                    }],
                };
                let decoded = crate::wal::WalRecord::decode(&record.encode()).unwrap();
                prop_assert_eq!(&decoded, &record);
                let crate::wal::WalRecord::Commit { writes, .. } = decoded else {
                    unreachable!()
                };
                let crate::wal::WalWrite::Insert { tuple, .. } = &writes[0] else {
                    unreachable!()
                };
                prop_assert_eq!(tuple[0].as_text(), Some(s.as_str()));
                prop_assert!(matches!(&tuple[1], Datum::Bytes(b) if **b == *s.as_bytes()));
            }
            for a in &all {
                for b in &all {
                    let (ta, tb) = (Text::from(a.as_str()), Text::from(b.as_str()));
                    prop_assert_eq!(ta.cmp(&tb), a.cmp(b), "{:?} vs {:?}", a, b);
                    prop_assert_eq!(ta == tb, a == b, "{:?} vs {:?}", a, b);
                    let (da, db) = (Datum::text(a.as_str()), Datum::text(b.as_str()));
                    prop_assert_eq!(da.cmp(&db), a.cmp(b), "{:?} vs {:?}", a, b);
                    prop_assert_eq!(da == db, a == b, "{:?} vs {:?}", a, b);
                }
            }
        }
    }
}
