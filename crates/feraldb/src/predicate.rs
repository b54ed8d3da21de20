//! Row predicates for scans, updates, and deletes.
//!
//! The feral validations studied in the paper issue simple predicate reads
//! (`SELECT 1 FROM t WHERE col = v LIMIT 1`). Whether those reads take
//! predicate locks is precisely the difference between a safe and an unsafe
//! validation, so predicates are a first-class concept in the engine: the
//! serializable-isolation machinery fingerprints them (see
//! [`Predicate::equality_fingerprint`]).

use crate::schema::TableSchema;
use crate::value::Datum;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator for a column/value test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn eval(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean row predicate with SQL three-valued logic collapsed to
/// "row matches / row does not match" (UNKNOWN does not match).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// Matches no row.
    False,
    /// `column <op> literal`.
    Cmp {
        /// Column position.
        col: usize,
        /// Operator.
        op: CmpOp,
        /// Literal to compare against.
        value: Datum,
    },
    /// `column IS NULL`.
    IsNull(usize),
    /// `column IS NOT NULL`.
    IsNotNull(usize),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation (UNKNOWN stays non-matching).
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience: `col = value`.
    pub fn eq(col: usize, value: impl Into<Datum>) -> Predicate {
        Predicate::Cmp {
            col,
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Convenience: conjunction of two predicates.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut b)) => {
                b.insert(0, p);
                Predicate::And(b)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// Evaluate against a tuple. UNKNOWN (NULL comparison) yields `false`.
    pub fn matches(&self, tuple: &[Datum]) -> bool {
        self.eval3(tuple) == Some(true)
    }

    /// Three-valued evaluation: `None` is UNKNOWN.
    fn eval3(&self, tuple: &[Datum]) -> Option<bool> {
        match self {
            Predicate::True => Some(true),
            Predicate::False => Some(false),
            Predicate::Cmp { col, op, value } => {
                let ord = tuple.get(*col)?.sql_cmp(value)?;
                Some(op.eval(ord))
            }
            Predicate::IsNull(c) => Some(tuple.get(*c)?.is_null()),
            Predicate::IsNotNull(c) => Some(!tuple.get(*c)?.is_null()),
            Predicate::And(ps) => {
                let mut any_unknown = false;
                for p in ps {
                    match p.eval3(tuple) {
                        Some(false) => return Some(false),
                        None => any_unknown = true,
                        Some(true) => {}
                    }
                }
                if any_unknown {
                    None
                } else {
                    Some(true)
                }
            }
            Predicate::Or(ps) => {
                let mut any_unknown = false;
                for p in ps {
                    match p.eval3(tuple) {
                        Some(true) => return Some(true),
                        None => any_unknown = true,
                        Some(false) => {}
                    }
                }
                if any_unknown {
                    None
                } else {
                    Some(false)
                }
            }
            Predicate::Not(p) => p.eval3(tuple).map(|b| !b),
        }
    }

    /// If the predicate pins specific columns to specific values with
    /// top-level equality conjuncts, return those `(col, value)` pairs.
    /// This is the granule at which serializable isolation registers
    /// predicate reads and at which the planner probes equality indexes.
    pub fn equality_fingerprint(&self) -> Vec<(usize, Datum)> {
        let mut out = Vec::new();
        self.collect_equalities(&mut out);
        out
    }

    fn collect_equalities(&self, out: &mut Vec<(usize, Datum)>) {
        match self {
            Predicate::Cmp {
                col,
                op: CmpOp::Eq,
                value,
            } => out.push((*col, value.clone())),
            Predicate::And(ps) => {
                for p in ps {
                    p.collect_equalities(out);
                }
            }
            _ => {}
        }
    }

    /// The value the first top-level equality conjunct pins `col` to — the
    /// [`Predicate::equality_fingerprint`] entry for `col`, borrowed. An
    /// index probe builds its key from these without owning a fingerprint.
    pub fn equality_on(&self, col: usize) -> Option<&Datum> {
        match self {
            Predicate::Cmp {
                col: c,
                op: CmpOp::Eq,
                value,
            } if *c == col => Some(value),
            Predicate::And(ps) => ps.iter().find_map(|p| p.equality_on(col)),
            _ => None,
        }
    }

    /// Top-level range conjuncts: `(col, op, value)` triples where `op`
    /// is an ordering comparison. The planner uses these for index range
    /// scans; matches are always re-verified against the full predicate.
    pub fn range_fingerprint(&self) -> Vec<(usize, CmpOp, Datum)> {
        let mut out = Vec::new();
        self.collect_ranges(&mut out);
        out
    }

    fn collect_ranges(&self, out: &mut Vec<(usize, CmpOp, Datum)>) {
        match self {
            Predicate::Cmp { col, op, value }
                if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) =>
            {
                out.push((*col, *op, value.clone()));
            }
            Predicate::And(ps) => {
                for p in ps {
                    p.collect_ranges(out);
                }
            }
            _ => {}
        }
    }

    /// Render with column names for diagnostics.
    pub fn display_with(&self, schema: &TableSchema) -> String {
        match self {
            Predicate::True => "TRUE".into(),
            Predicate::False => "FALSE".into(),
            Predicate::Cmp { col, op, value } => {
                format!("{} {} {}", schema.columns[*col].name, op, value)
            }
            Predicate::IsNull(c) => format!("{} IS NULL", schema.columns[*c].name),
            Predicate::IsNotNull(c) => format!("{} IS NOT NULL", schema.columns[*c].name),
            Predicate::And(ps) => ps
                .iter()
                .map(|p| format!("({})", p.display_with(schema)))
                .collect::<Vec<_>>()
                .join(" AND "),
            Predicate::Or(ps) => ps
                .iter()
                .map(|p| format!("({})", p.display_with(schema)))
                .collect::<Vec<_>>()
                .join(" OR "),
            Predicate::Not(p) => format!("NOT ({})", p.display_with(schema)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Tuple;

    fn row(vals: Vec<Datum>) -> Tuple {
        vals
    }

    #[test]
    fn equality_matches() {
        let p = Predicate::eq(0, 5i64);
        assert!(p.matches(&row(vec![Datum::Int(5)])));
        assert!(!p.matches(&row(vec![Datum::Int(6)])));
    }

    #[test]
    fn null_comparison_is_unknown_and_does_not_match() {
        let p = Predicate::eq(0, 5i64);
        assert!(!p.matches(&row(vec![Datum::Null])));
        // NOT of UNKNOWN is still non-matching
        let np = Predicate::Not(Box::new(Predicate::eq(0, 5i64)));
        assert!(!np.matches(&row(vec![Datum::Null])));
    }

    #[test]
    fn is_null_predicates() {
        assert!(Predicate::IsNull(0).matches(&row(vec![Datum::Null])));
        assert!(!Predicate::IsNull(0).matches(&row(vec![Datum::Int(1)])));
        assert!(Predicate::IsNotNull(0).matches(&row(vec![Datum::Int(1)])));
    }

    #[test]
    fn and_or_three_valued_logic() {
        // FALSE AND UNKNOWN = FALSE (matches() false), TRUE OR UNKNOWN = TRUE
        let false_and_unknown = Predicate::eq(0, 1i64).and(Predicate::eq(1, 9i64));
        assert!(!false_and_unknown.matches(&row(vec![Datum::Int(2), Datum::Null])));
        let true_or_unknown = Predicate::Or(vec![Predicate::eq(0, 2i64), Predicate::eq(1, 9i64)]);
        assert!(true_or_unknown.matches(&row(vec![Datum::Int(2), Datum::Null])));
        // UNKNOWN OR FALSE does not match
        let unknown_or_false = Predicate::Or(vec![Predicate::eq(1, 9i64), Predicate::eq(0, 99i64)]);
        assert!(!unknown_or_false.matches(&row(vec![Datum::Int(2), Datum::Null])));
    }

    #[test]
    fn range_operators() {
        let p = Predicate::Cmp {
            col: 0,
            op: CmpOp::Ge,
            value: Datum::Int(10),
        };
        assert!(p.matches(&row(vec![Datum::Int(10)])));
        assert!(p.matches(&row(vec![Datum::Int(11)])));
        assert!(!p.matches(&row(vec![Datum::Int(9)])));
    }

    #[test]
    fn equality_fingerprint_sees_through_conjunctions() {
        let p = Predicate::eq(1, "k").and(Predicate::Cmp {
            col: 2,
            op: CmpOp::Gt,
            value: Datum::Int(0),
        });
        let fp = p.equality_fingerprint();
        assert_eq!(fp, vec![(1usize, Datum::text("k"))]);
        // the borrowed view agrees, column by column
        assert_eq!(p.equality_on(1), Some(&Datum::text("k")));
        assert_eq!(p.equality_on(2), None, "a range is not an equality");
        assert_eq!(Predicate::eq(3, 7i64).equality_on(3), Some(&Datum::Int(7)));
        // Or-predicates cannot be fingerprinted as equalities
        let q = Predicate::Or(vec![Predicate::eq(1, "a"), Predicate::eq(1, "b")]);
        assert!(q.equality_fingerprint().is_empty());
        assert_eq!(q.equality_on(1), None);
    }

    #[test]
    fn and_builder_flattens() {
        let p = Predicate::eq(0, 1i64)
            .and(Predicate::eq(1, 2i64))
            .and(Predicate::eq(2, 3i64));
        match p {
            Predicate::And(ps) => assert_eq!(ps.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }
}
