//! Recursive-descent SQL parser for the subset the paper's queries use.

use crate::ast::*;
use crate::lexer::{tokenize, Token};
use feral_db::{CmpOp, DataType, Datum};
use std::fmt;

/// Parse error with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}
impl std::error::Error for ParseError {}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: format!(
                "{} (at token {} of {:?})",
                msg.into(),
                self.pos,
                self.toks.get(self.pos)
            ),
        })
    }

    /// Consume a keyword (case-insensitive) or fail.
    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected {kw}"))
        }
    }

    /// Consume a keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn eat_tok(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat_tok(t) {
            Ok(())
        } else {
            self.err(format!("expected {t}"))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError {
                message: format!("expected identifier, got {other:?}"),
            }),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// If the next token is an aggregate function name, which one?
    fn peek_agg(&self) -> Option<AggFn> {
        match self.peek() {
            Some(Token::Ident(s)) => match s.to_ascii_uppercase().as_str() {
                "SUM" => Some(AggFn::Sum),
                "MIN" => Some(AggFn::Min),
                "MAX" => Some(AggFn::Max),
                "AVG" => Some(AggFn::Avg),
                _ => None,
            },
            _ => None,
        }
    }

    fn literal(&mut self) -> Result<Datum, ParseError> {
        match self.bump() {
            Some(Token::Int(i)) => Ok(Datum::Int(i)),
            Some(Token::Float(f)) => Ok(Datum::Float(f)),
            Some(Token::Str(s)) => Ok(Datum::text(s)),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("null") => Ok(Datum::Null),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("true") => Ok(Datum::Bool(true)),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("false") => Ok(Datum::Bool(false)),
            other => Err(ParseError {
                message: format!("expected literal, got {other:?}"),
            }),
        }
    }

    fn col_ref_from(&mut self, first: String) -> Result<ColRef, ParseError> {
        if self.eat_tok(&Token::Dot) {
            let col = self.ident()?;
            Ok(ColRef {
                table: Some(first),
                column: col,
            })
        } else {
            Ok(ColRef::bare(first))
        }
    }

    fn col_ref(&mut self) -> Result<ColRef, ParseError> {
        let first = self.ident()?;
        self.col_ref_from(first)
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        match self.bump() {
            Some(Token::Eq) => Ok(CmpOp::Eq),
            Some(Token::Ne) => Ok(CmpOp::Ne),
            Some(Token::Lt) => Ok(CmpOp::Lt),
            Some(Token::Le) => Ok(CmpOp::Le),
            Some(Token::Gt) => Ok(CmpOp::Gt),
            Some(Token::Ge) => Ok(CmpOp::Ge),
            other => Err(ParseError {
                message: format!("expected comparison operator, got {other:?}"),
            }),
        }
    }

    // expr := or_term
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_term()?;
        while self.eat_kw("OR") {
            let right = self.and_term()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_term(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.not_term()?;
        while self.eat_kw("AND") {
            let right = self.not_term()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_term(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("NOT") {
            return Ok(Expr::Not(Box::new(self.not_term()?)));
        }
        self.atom_expr()
    }

    fn atom_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_tok(&Token::LParen) {
            let e = self.expr()?;
            self.expect_tok(&Token::RParen)?;
            return Ok(e);
        }
        // COUNT(*) <op> lit (HAVING)
        if self.is_kw("COUNT") {
            self.bump();
            self.expect_tok(&Token::LParen)?;
            if !self.eat_tok(&Token::Star) {
                let _ = self.col_ref()?;
            }
            self.expect_tok(&Token::RParen)?;
            let op = self.cmp_op()?;
            let value = self.literal()?;
            return Ok(Expr::CountCmp { op, value });
        }
        let col = self.col_ref()?;
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { col, negated });
        }
        // col [NOT] IN (v1, v2, ...)
        let negated_in = if self.is_kw("NOT") {
            self.bump();
            self.expect_kw("IN")?;
            true
        } else if self.eat_kw("IN") {
            false
        } else {
            let op = self.cmp_op()?;
            return self.finish_cmp(col, op);
        };
        self.expect_tok(&Token::LParen)?;
        let mut values = Vec::new();
        loop {
            values.push(self.literal()?);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        self.expect_tok(&Token::RParen)?;
        Ok(Expr::InList {
            col,
            values,
            negated: negated_in,
        })
    }

    fn finish_cmp(&mut self, col: ColRef, op: CmpOp) -> Result<Expr, ParseError> {
        // column-to-column (join condition) or column-to-literal
        match self.peek() {
            Some(Token::Ident(s))
                if !s.eq_ignore_ascii_case("null")
                    && !s.eq_ignore_ascii_case("true")
                    && !s.eq_ignore_ascii_case("false") =>
            {
                let right = self.col_ref()?;
                if op != CmpOp::Eq {
                    return self.err("only = is supported between columns");
                }
                Ok(Expr::ColEq(col, right))
            }
            _ => {
                let value = self.literal()?;
                Ok(Expr::Cmp { col, op, value })
            }
        }
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let name = self.ident()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            match self.peek() {
                // bare alias: `users U` (but not a keyword)
                Some(Token::Ident(s)) if !KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k)) => {
                    Some(self.ident()?)
                }
                _ => None,
            }
        };
        Ok(TableRef { name, alias })
    }

    fn select(&mut self) -> Result<Select, ParseError> {
        self.expect_kw("SELECT")?;
        let mut items = Vec::new();
        loop {
            if self.eat_tok(&Token::Star) {
                items.push(SelectItem::Star);
            } else if self.is_kw("COUNT") {
                self.bump();
                self.expect_tok(&Token::LParen)?;
                let inner = if self.eat_tok(&Token::Star) {
                    None
                } else {
                    Some(self.col_ref()?)
                };
                self.expect_tok(&Token::RParen)?;
                items.push(SelectItem::Count(inner));
            } else if let Some(agg) = self.peek_agg() {
                self.bump();
                self.expect_tok(&Token::LParen)?;
                let col = self.col_ref()?;
                self.expect_tok(&Token::RParen)?;
                items.push(SelectItem::Agg(agg, col));
            } else {
                match self.peek() {
                    Some(Token::Int(_)) | Some(Token::Float(_)) | Some(Token::Str(_)) => {
                        items.push(SelectItem::Lit(self.literal()?));
                    }
                    _ => items.push(SelectItem::Col(self.col_ref()?)),
                }
            }
            // optional `AS alias` on items is accepted and ignored
            if self.eat_kw("AS") {
                let _ = self.ident()?;
            }
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let mut left_join = None;
        if self.eat_kw("LEFT") {
            let _ = self.eat_kw("OUTER");
            self.expect_kw("JOIN")?;
            let right = self.table_ref()?;
            self.expect_kw("ON")?;
            let on = self.expr()?;
            left_join = Some((right, on));
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let group_by = if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            Some(self.col_ref()?)
        } else {
            None
        };
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            let col = self.col_ref()?;
            let dir = if self.eat_kw("DESC") {
                Order::Desc
            } else {
                let _ = self.eat_kw("ASC");
                Order::Asc
            };
            Some((col, dir))
        } else {
            None
        };
        let limit = if self.eat_kw("LIMIT") {
            // `LIMIT 1` or PostgreSQL's spelled-out `LIMIT ONE` from the
            // paper's Appendix B pseudo-SQL
            if self.eat_kw("ONE") {
                Some(1)
            } else {
                match self.bump() {
                    Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                    other => {
                        return Err(ParseError {
                            message: format!("expected LIMIT count, got {other:?}"),
                        })
                    }
                }
            }
        } else {
            None
        };
        let for_update = if self.eat_kw("FOR") {
            self.expect_kw("UPDATE")?;
            true
        } else {
            false
        };
        Ok(Select {
            items,
            from,
            left_join,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            for_update,
        })
    }

    /// `REFERENCES parent [(col)] [ON DELETE CASCADE|SET NULL|RESTRICT|NO
    /// ACTION]`, normalized onto `column`.
    fn references_clause(&mut self, column: String) -> Result<ForeignKeySpec, ParseError> {
        self.expect_kw("REFERENCES")?;
        let parent_table = self.ident()?;
        let parent_column = if self.eat_tok(&Token::LParen) {
            let c = self.ident()?;
            self.expect_tok(&Token::RParen)?;
            c
        } else {
            "id".to_string()
        };
        let mut on_delete = FkAction::Restrict;
        if self.eat_kw("ON") {
            self.expect_kw("DELETE")?;
            on_delete = if self.eat_kw("CASCADE") {
                FkAction::Cascade
            } else if self.eat_kw("SET") {
                self.expect_kw("NULL")?;
                FkAction::SetNull
            } else if self.eat_kw("RESTRICT") {
                FkAction::Restrict
            } else if self.eat_kw("NO") {
                self.expect_kw("ACTION")?;
                FkAction::Restrict
            } else {
                return self.err("expected CASCADE, SET NULL, RESTRICT, or NO ACTION");
            };
        }
        Ok(ForeignKeySpec {
            column,
            parent_table,
            parent_column,
            on_delete,
        })
    }

    fn data_type(&mut self) -> Result<DataType, ParseError> {
        let name = self.ident()?;
        let ty = match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SERIAL" => DataType::Int,
            "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" => DataType::Float,
            "TEXT" | "STRING" | "VARCHAR" | "CHAR" => DataType::Text,
            "BOOL" | "BOOLEAN" => DataType::Bool,
            "TIMESTAMP" | "DATETIME" => DataType::Timestamp,
            "BYTES" | "BLOB" | "BYTEA" => DataType::Bytes,
            other => {
                return Err(ParseError {
                    message: format!("unknown type {other}"),
                })
            }
        };
        // swallow a parenthesized size: VARCHAR(255)
        if self.eat_tok(&Token::LParen) {
            while !self.eat_tok(&Token::RParen) {
                if self.bump().is_none() {
                    return self.err("unterminated type parameters");
                }
            }
        }
        Ok(ty)
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.is_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("INSERT") {
            self.expect_kw("INTO")?;
            let table = self.ident()?;
            self.expect_tok(&Token::LParen)?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.ident()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(&Token::RParen)?;
            self.expect_kw("VALUES")?;
            let mut rows = Vec::new();
            loop {
                self.expect_tok(&Token::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.literal()?);
                    if !self.eat_tok(&Token::Comma) {
                        break;
                    }
                }
                self.expect_tok(&Token::RParen)?;
                if row.len() != columns.len() {
                    return self.err("VALUES arity mismatch");
                }
                rows.push(row);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            return Ok(Statement::Insert {
                table,
                columns,
                rows,
            });
        }
        if self.eat_kw("UPDATE") {
            let table = self.ident()?;
            self.expect_kw("SET")?;
            let mut sets = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect_tok(&Token::Eq)?;
                sets.push((col, self.literal()?));
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            let where_clause = if self.eat_kw("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Update {
                table,
                sets,
                where_clause,
            });
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let where_clause = if self.eat_kw("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete {
                table,
                where_clause,
            });
        }
        if self.eat_kw("CREATE") {
            let unique = self.eat_kw("UNIQUE");
            if self.eat_kw("INDEX") {
                // CREATE [UNIQUE] INDEX [name] ON t (cols)
                let name = if self.is_kw("ON") {
                    None
                } else {
                    Some(self.ident()?)
                };
                self.expect_kw("ON")?;
                let table = self.ident()?;
                self.expect_tok(&Token::LParen)?;
                let mut columns = Vec::new();
                loop {
                    columns.push(self.ident()?);
                    if !self.eat_tok(&Token::Comma) {
                        break;
                    }
                }
                self.expect_tok(&Token::RParen)?;
                return Ok(Statement::CreateIndex {
                    name,
                    table,
                    columns,
                    unique,
                });
            }
            if unique {
                return self.err("UNIQUE is only valid before INDEX");
            }
            self.expect_kw("TABLE")?;
            let table = self.ident()?;
            self.expect_tok(&Token::LParen)?;
            let mut columns = Vec::new();
            let mut foreign_keys = Vec::new();
            loop {
                // table-level constraint: FOREIGN KEY (col) REFERENCES p(id)
                if self.eat_kw("FOREIGN") {
                    self.expect_kw("KEY")?;
                    self.expect_tok(&Token::LParen)?;
                    let column = self.ident()?;
                    self.expect_tok(&Token::RParen)?;
                    foreign_keys.push(self.references_clause(column)?);
                    if !self.eat_tok(&Token::Comma) {
                        break;
                    }
                    continue;
                }
                let name = self.ident()?;
                let ty = self.data_type()?;
                let mut not_null = false;
                loop {
                    if self.eat_kw("NOT") {
                        self.expect_kw("NULL")?;
                        not_null = true;
                    } else if self.eat_kw("PRIMARY") {
                        self.expect_kw("KEY")?;
                        not_null = true;
                    } else if self.is_kw("REFERENCES") {
                        let fk = self.references_clause(name.clone())?;
                        foreign_keys.push(fk);
                    } else {
                        break;
                    }
                }
                columns.push(ColumnSpec { name, ty, not_null });
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(&Token::RParen)?;
            return Ok(Statement::CreateTable {
                table,
                columns,
                foreign_keys,
            });
        }
        if self.eat_kw("BEGIN") || self.eat_kw("START") {
            let _ = self.eat_kw("TRANSACTION");
            let isolation = if self.eat_kw("ISOLATION") {
                self.expect_kw("LEVEL")?;
                let mut words = Vec::new();
                while let Some(Token::Ident(w)) = self.peek() {
                    words.push(w.clone());
                    self.bump();
                }
                Some(words.join(" "))
            } else {
                None
            };
            return Ok(Statement::Begin { isolation });
        }
        if self.eat_kw("COMMIT") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") || self.eat_kw("ABORT") {
            return Ok(Statement::Rollback);
        }
        self.err("expected a statement")
    }
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "LEFT", "OUTER", "JOIN",
    "ON", "AS", "AND", "OR", "NOT", "IS", "NULL", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
    "DELETE", "CREATE", "TABLE", "INDEX", "UNIQUE", "BEGIN", "COMMIT", "ROLLBACK", "FOR", "DESC",
    "ASC",
];

/// Parse one statement (a trailing semicolon is allowed).
pub fn parse(sql: &str) -> Result<Statement, ParseError> {
    let toks = tokenize(sql).map_err(|e| ParseError {
        message: format!("{} at byte {}", e.message, e.position),
    })?;
    let mut p = Parser { toks, pos: 0 };
    let stmt = p.statement()?;
    let _ = p.eat_tok(&Token::Semi);
    if p.pos != p.toks.len() {
        return p.err("trailing tokens after statement");
    }
    Ok(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_uniqueness_probe() {
        // paper Appendix B.1
        let s = parse("SELECT 1 FROM validated_key_values WHERE key = 'k1' LIMIT ONE;").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.limit, Some(1));
        assert_eq!(sel.items, vec![SelectItem::Lit(Datum::Int(1))]);
        assert!(sel.where_clause.is_some());
    }

    #[test]
    fn parses_the_orphan_counting_query() {
        // paper Appendix C.5
        let s = parse(
            "SELECT m_department_id, COUNT(*) FROM m_users AS U \
             LEFT OUTER JOIN m_departments AS D ON U.m_department_id = D.id \
             WHERE D.id IS NULL GROUP BY m_department_id HAVING COUNT(*) > 0;",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(sel.left_join.is_some());
        assert_eq!(sel.group_by, Some(ColRef::bare("m_department_id")));
        assert!(matches!(sel.having, Some(Expr::CountCmp { .. })));
        let (right, on) = sel.left_join.unwrap();
        assert_eq!(right.binding(), "D");
        assert!(matches!(on, Expr::ColEq(_, _)));
        assert!(matches!(
            sel.where_clause,
            Some(Expr::IsNull { negated: false, .. })
        ));
    }

    #[test]
    fn parses_dup_counting_query() {
        // paper Appendix C.2
        let s = parse("SELECT key, COUNT(key) FROM t GROUP BY key HAVING COUNT(key) > 1;").unwrap();
        assert!(matches!(s, Statement::Select(_)));
    }

    #[test]
    fn parses_dml_and_ddl() {
        assert!(matches!(
            parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").unwrap(),
            Statement::Insert { rows, .. } if rows.len() == 2
        ));
        assert!(matches!(
            parse("UPDATE t SET a = 3, b = 'y' WHERE id = 7").unwrap(),
            Statement::Update { sets, .. } if sets.len() == 2
        ));
        assert!(matches!(
            parse("DELETE FROM t WHERE a >= 5").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(
            parse("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(255) NOT NULL, score FLOAT)").unwrap(),
            Statement::CreateTable { columns, .. } if columns.len() == 3 && columns[1].not_null
        ));
        assert!(matches!(
            parse("CREATE UNIQUE INDEX idx ON t (name)").unwrap(),
            Statement::CreateIndex { unique: true, .. }
        ));
    }

    #[test]
    fn parses_foreign_key_declarations() {
        // column-level REFERENCES with implicit id and ON DELETE action
        let s = parse(
            "CREATE TABLE users (name TEXT, department_id INT REFERENCES departments ON DELETE CASCADE)",
        )
        .unwrap();
        let Statement::CreateTable {
            columns,
            foreign_keys,
            ..
        } = s
        else {
            panic!()
        };
        assert_eq!(columns.len(), 2);
        assert_eq!(
            foreign_keys,
            vec![ForeignKeySpec {
                column: "department_id".into(),
                parent_table: "departments".into(),
                parent_column: "id".into(),
                on_delete: FkAction::Cascade,
            }]
        );

        // table-level FOREIGN KEY with explicit parent column and SET NULL
        let s = parse(
            "CREATE TABLE posts (author_id INT, \
             FOREIGN KEY (author_id) REFERENCES users (id) ON DELETE SET NULL)",
        )
        .unwrap();
        let Statement::CreateTable { foreign_keys, .. } = s else {
            panic!()
        };
        assert_eq!(foreign_keys[0].on_delete, FkAction::SetNull);
        assert_eq!(foreign_keys[0].parent_table, "users");

        // default action is RESTRICT; NO ACTION normalizes onto it
        let s = parse("CREATE TABLE a (b_id INT REFERENCES bs (id))").unwrap();
        let Statement::CreateTable { foreign_keys, .. } = s else {
            panic!()
        };
        assert_eq!(foreign_keys[0].on_delete, FkAction::Restrict);
        let s = parse("CREATE TABLE a (b_id INT REFERENCES bs ON DELETE NO ACTION)").unwrap();
        let Statement::CreateTable { foreign_keys, .. } = s else {
            panic!()
        };
        assert_eq!(foreign_keys[0].on_delete, FkAction::Restrict);

        // garbage actions are rejected
        assert!(parse("CREATE TABLE a (b_id INT REFERENCES bs ON DELETE EXPLODE)").is_err());
        assert!(parse("CREATE TABLE a (FOREIGN KEY b_id REFERENCES bs)").is_err());
    }

    #[test]
    fn parses_transactions_and_for_update() {
        assert!(matches!(
            parse("BEGIN ISOLATION LEVEL SERIALIZABLE").unwrap(),
            Statement::Begin { isolation: Some(l) } if l.eq_ignore_ascii_case("serializable")
        ));
        assert!(matches!(parse("COMMIT;").unwrap(), Statement::Commit));
        assert!(matches!(parse("ROLLBACK").unwrap(), Statement::Rollback));
        let Statement::Select(sel) = parse("SELECT * FROM stock WHERE id = 1 FOR UPDATE").unwrap()
        else {
            panic!()
        };
        assert!(sel.for_update);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("SELEKT 1").is_err());
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("INSERT INTO t (a) VALUES (1, 2)").is_err());
        assert!(parse("SELECT 1 FROM t extra garbage here ,").is_err());
    }
}
