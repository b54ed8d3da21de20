//! Datum values and their SQL-flavoured semantics.

use std::cmp::Ordering;
use std::fmt;

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
    Text(String),
    /// Binary value.
    Bytes(Vec<u8>),
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
    pub fn text(s: impl Into<String>) -> Datum {
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
            Datum::Text(s) => Some(s),
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
            Datum::Int(i) => encode_word(0x02, (*i as u64) ^ (1 << 63), out),
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
                encode_word(0x02, key, out);
            }
            Datum::Timestamp(t) => encode_word(0x03, (*t as u64) ^ (1 << 63), out),
            Datum::Text(s) => encode_escaped(0x04, s.as_bytes(), out),
            Datum::Bytes(bs) => encode_escaped(0x05, bs, out),
        }
    }
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

impl std::hash::Hash for Datum {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
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
        Datum::Text(v.to_owned())
    }
}
impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Text(v)
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

/// A tuple (row image) is just an ordered list of datums, one per column.
pub type Tuple = Vec<Datum>;

#[cfg(test)]
mod tests {
    use super::*;

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
}
