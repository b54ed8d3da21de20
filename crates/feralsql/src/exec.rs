//! SQL execution over `feral-db` transactions.

use crate::ast::*;
use crate::parser::{parse, ParseError};
use feral_db::{
    ColumnDef, Database, Datum, DbError, IsolationLevel, Predicate, TableSchema, Transaction,
};
use std::cmp::Ordering;
use std::fmt;

/// SQL-layer errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lex/parse failure.
    Parse(ParseError),
    /// Engine failure (constraints, conflicts, ...).
    Db(DbError),
    /// Name resolution / semantic failure.
    Semantic(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::Db(e) => write!(f, "{e}"),
            SqlError::Semantic(m) => write!(f, "semantic error: {m}"),
        }
    }
}
impl std::error::Error for SqlError {}

impl From<ParseError> for SqlError {
    fn from(e: ParseError) -> Self {
        SqlError::Parse(e)
    }
}
impl From<DbError> for SqlError {
    fn from(e: DbError) -> Self {
        SqlError::Db(e)
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlOutput {
    /// SELECT result set.
    Rows {
        /// Output column labels.
        columns: Vec<String>,
        /// Row data.
        rows: Vec<Vec<Datum>>,
    },
    /// Rows affected by INSERT/UPDATE/DELETE.
    Affected(usize),
    /// DDL succeeded.
    Ddl,
    /// BEGIN/COMMIT/ROLLBACK acknowledgement.
    Txn(&'static str),
}

impl SqlOutput {
    /// The rows of a `Rows` output (panics otherwise — test convenience).
    pub fn rows(self) -> Vec<Vec<Datum>> {
        match self {
            SqlOutput::Rows { rows, .. } => rows,
            other => panic!("expected rows, got {other:?}"),
        }
    }
}

/// A SQL session: a database handle plus an optional open transaction.
/// Statements outside `BEGIN`/`COMMIT` run in autocommit mode, like a
/// psql session.
pub struct SqlSession {
    db: Database,
    tx: Option<Transaction>,
}

/// Column environment for a (possibly joined) row stream.
struct Env {
    /// `(binding, column name)` per physical column.
    cols: Vec<(String, String)>,
}

impl Env {
    fn resolve(&self, col: &ColRef) -> Result<usize, SqlError> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (b, n))| {
                n == &col.column && col.table.as_ref().map(|t| t == b).unwrap_or(true)
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(SqlError::Semantic(format!(
                "unknown column {}",
                col.render()
            ))),
            _ => Err(SqlError::Semantic(format!(
                "ambiguous column {}",
                col.render()
            ))),
        }
    }
}

impl SqlSession {
    /// Open a session on `db`.
    pub fn new(db: Database) -> Self {
        SqlSession { db, tx: None }
    }

    /// Whether a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.tx.is_some()
    }

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<SqlOutput, SqlError> {
        let stmt = parse(sql)?;
        match stmt {
            Statement::Begin { isolation } => {
                if self.tx.is_some() {
                    return Err(SqlError::Semantic("transaction already open".into()));
                }
                let iso = match isolation {
                    Some(name) => IsolationLevel::parse(&name).ok_or_else(|| {
                        SqlError::Semantic(format!("unknown isolation level {name:?}"))
                    })?,
                    None => self.db.default_isolation(),
                };
                self.tx = Some(self.db.txn().isolation(iso).begin());
                Ok(SqlOutput::Txn("BEGIN"))
            }
            Statement::Commit => match self.tx.take() {
                Some(mut tx) => {
                    tx.commit()?;
                    Ok(SqlOutput::Txn("COMMIT"))
                }
                None => Err(SqlError::Semantic("no transaction open".into())),
            },
            Statement::Rollback => match self.tx.take() {
                Some(mut tx) => {
                    tx.rollback();
                    Ok(SqlOutput::Txn("ROLLBACK"))
                }
                None => Err(SqlError::Semantic("no transaction open".into())),
            },
            Statement::CreateTable {
                table,
                columns,
                foreign_keys,
            } => {
                let cols = columns
                    .into_iter()
                    .filter(|c| c.name != "id")
                    .map(|c| {
                        let mut d = ColumnDef::new(c.name, c.ty);
                        if c.not_null {
                            d = d.not_null();
                        }
                        d
                    })
                    .collect();
                self.db.create_table(TableSchema::new(&table, cols))?;
                for fk in foreign_keys {
                    if fk.parent_column != "id" {
                        return Err(SqlError::Semantic(format!(
                            "foreign keys may only reference id, got {}({})",
                            fk.parent_table, fk.parent_column
                        )));
                    }
                    let mode = match fk.on_delete {
                        FkAction::Restrict => feral_db::OnDelete::Restrict,
                        FkAction::Cascade => feral_db::OnDelete::Cascade,
                        FkAction::SetNull => feral_db::OnDelete::SetNull,
                    };
                    self.db
                        .add_foreign_key(&table, &fk.column, &fk.parent_table, mode)?;
                }
                Ok(SqlOutput::Ddl)
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => {
                let col_refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
                match name {
                    Some(n) => {
                        let tid = self.db.table_id(&table)?;
                        self.db.create_index_named(&n, tid, &col_refs, unique)?;
                    }
                    None => {
                        self.db.create_index(&table, &col_refs, unique)?;
                    }
                }
                Ok(SqlOutput::Ddl)
            }
            other => self.with_txn(|tx| exec_dml(tx, other)),
        }
    }

    fn with_txn<T>(
        &mut self,
        f: impl FnOnce(&mut Transaction) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        if let Some(tx) = self.tx.as_mut() {
            return f(tx);
        }
        let mut tx = self.db.txn().begin();
        match f(&mut tx) {
            Ok(v) => {
                tx.commit()?;
                Ok(v)
            }
            Err(e) => {
                tx.rollback();
                Err(e)
            }
        }
    }
}

fn exec_dml(tx: &mut Transaction, stmt: Statement) -> Result<SqlOutput, SqlError> {
    match stmt {
        Statement::Select(sel) => exec_select(tx, sel),
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let mut n = 0;
            for row in rows {
                let pairs: Vec<(&str, Datum)> =
                    columns.iter().map(|c| c.as_str()).zip(row).collect();
                tx.insert_pairs(&table, &pairs)?;
                n += 1;
            }
            Ok(SqlOutput::Affected(n))
        }
        Statement::Update {
            table,
            sets,
            where_clause,
        } => {
            let (env, rows) = fetch_single_table(tx, &table, &table, where_clause.as_ref())?;
            let mut n = 0;
            for (rref, tuple) in rows {
                let mut new = tuple.clone();
                for (col, value) in &sets {
                    let i = env.resolve(&ColRef::bare(col.clone()))?;
                    new[i] = value.clone();
                }
                tx.update(&table, rref, new)?;
                n += 1;
            }
            Ok(SqlOutput::Affected(n))
        }
        Statement::Delete {
            table,
            where_clause,
        } => {
            let (_, rows) = fetch_single_table(tx, &table, &table, where_clause.as_ref())?;
            let mut n = 0;
            for (rref, _) in rows {
                tx.delete(&table, rref)?;
                n += 1;
            }
            Ok(SqlOutput::Affected(n))
        }
        _ => Err(SqlError::Semantic("not a DML statement".into())),
    }
}

/// Rows fetched from one table: `(rowref, owned tuple)` pairs.
type FetchedRows = Vec<(feral_db::RowRef, Vec<Datum>)>;

/// Scan one table with WHERE pushdown where possible; returns the env and
/// the fetched rows.
fn fetch_single_table(
    tx: &mut Transaction,
    table: &str,
    binding: &str,
    where_clause: Option<&Expr>,
) -> Result<(Env, FetchedRows), SqlError> {
    let schema = tx.schema(table)?;
    let env = Env {
        cols: schema
            .columns
            .iter()
            .map(|c| (binding.to_string(), c.name.clone()))
            .collect(),
    };
    // try full pushdown of the WHERE clause into an engine predicate
    let pushed = where_clause.and_then(|e| to_engine_pred(e, &env).ok());
    let pred = pushed.clone().unwrap_or(Predicate::True);
    let scanned = tx.scan(table, &pred)?;
    let mut rows = Vec::with_capacity(scanned.len());
    for (rref, tuple) in scanned {
        let t: Vec<Datum> = tuple.to_vec();
        if pushed.is_none() {
            if let Some(e) = where_clause {
                if !eval_expr(e, &env, &t, None)? {
                    continue;
                }
            }
        }
        rows.push((rref, t));
    }
    Ok((env, rows))
}

/// Convert an expression to an engine predicate when every column
/// resolves in `env` and only literal comparisons appear.
fn to_engine_pred(e: &Expr, env: &Env) -> Result<Predicate, SqlError> {
    Ok(match e {
        Expr::Cmp { col, op, value } => Predicate::Cmp {
            col: env.resolve(col)?,
            op: *op,
            value: value.clone(),
        },
        Expr::IsNull { col, negated } => {
            let i = env.resolve(col)?;
            if *negated {
                Predicate::IsNotNull(i)
            } else {
                Predicate::IsNull(i)
            }
        }
        Expr::And(a, b) => to_engine_pred(a, env)?.and(to_engine_pred(b, env)?),
        Expr::Or(a, b) => Predicate::Or(vec![to_engine_pred(a, env)?, to_engine_pred(b, env)?]),
        Expr::Not(a) => Predicate::Not(Box::new(to_engine_pred(a, env)?)),
        Expr::InList {
            col,
            values,
            negated,
        } => {
            let i = env.resolve(col)?;
            let ors = Predicate::Or(values.iter().map(|v| Predicate::eq(i, v.clone())).collect());
            if *negated {
                // NOT IN must also reject NULL (unknown)
                Predicate::Not(Box::new(ors)).and(Predicate::IsNotNull(i))
            } else {
                ors
            }
        }
        Expr::ColEq(_, _) | Expr::CountCmp { .. } => {
            return Err(SqlError::Semantic("not pushable".into()))
        }
    })
}

/// Evaluate an expression over a row (`count` supplies COUNT(*) in
/// HAVING contexts). UNKNOWN evaluates to false.
fn eval_expr(e: &Expr, env: &Env, row: &[Datum], count: Option<i64>) -> Result<bool, SqlError> {
    Ok(match e {
        Expr::Cmp { col, op, value } => {
            let i = env.resolve(col)?;
            match row[i].sql_cmp(value) {
                Some(ord) => cmp_matches(*op, ord),
                None => false,
            }
        }
        Expr::IsNull { col, negated } => {
            let i = env.resolve(col)?;
            row[i].is_null() != *negated
        }
        Expr::InList {
            col,
            values,
            negated,
        } => {
            let i = env.resolve(col)?;
            let hit = values.iter().any(|v| row[i].sql_eq(v) == Some(true));
            // SQL three-valued: NULL IN (...) is unknown -> no match either way
            if row[i].is_null() {
                false
            } else {
                hit != *negated
            }
        }
        Expr::ColEq(a, b) => {
            let ia = env.resolve(a)?;
            let ib = env.resolve(b)?;
            row[ia].sql_eq(&row[ib]) == Some(true)
        }
        Expr::CountCmp { op, value } => {
            let c = count
                .ok_or_else(|| SqlError::Semantic("COUNT(*) is only valid in HAVING".into()))?;
            match Datum::Int(c).sql_cmp(value) {
                Some(ord) => cmp_matches(*op, ord),
                None => false,
            }
        }
        Expr::And(a, b) => eval_expr(a, env, row, count)? && eval_expr(b, env, row, count)?,
        Expr::Or(a, b) => eval_expr(a, env, row, count)? || eval_expr(b, env, row, count)?,
        Expr::Not(a) => !eval_expr(a, env, row, count)?,
    })
}

fn cmp_matches(op: feral_db::CmpOp, ord: Ordering) -> bool {
    use feral_db::CmpOp::*;
    match op {
        Eq => ord == Ordering::Equal,
        Ne => ord != Ordering::Equal,
        Lt => ord == Ordering::Less,
        Le => ord != Ordering::Greater,
        Gt => ord == Ordering::Greater,
        Ge => ord != Ordering::Less,
    }
}

fn exec_select(tx: &mut Transaction, sel: Select) -> Result<SqlOutput, SqlError> {
    // 1. source rows
    let from_binding = sel.from.binding().to_string();
    let (mut env, base_rows): (Env, Vec<Vec<Datum>>) = if sel.for_update {
        let schema = tx.schema(&sel.from.name)?;
        let env = Env {
            cols: schema
                .columns
                .iter()
                .map(|c| (from_binding.clone(), c.name.clone()))
                .collect(),
        };
        let pushed = sel
            .where_clause
            .as_ref()
            .and_then(|e| to_engine_pred(e, &env).ok())
            .unwrap_or(Predicate::True);
        let rows = tx.select_for_update(&sel.from.name, &pushed)?;
        (env, rows.into_iter().map(|(_, t)| t.to_vec()).collect())
    } else {
        let (env, rows) = fetch_single_table(
            tx,
            &sel.from.name,
            &from_binding,
            if sel.left_join.is_none() {
                sel.where_clause.as_ref()
            } else {
                None // with a join, WHERE applies post-join
            },
        )?;
        (env, rows.into_iter().map(|(_, t)| t).collect())
    };

    // 2. left outer join
    let mut rows: Vec<Vec<Datum>> = base_rows;
    if let Some((right, on)) = &sel.left_join {
        let right_binding = right.binding().to_string();
        let (renv, rrows) = fetch_single_table(tx, &right.name, &right_binding, None)?;
        let right_width = renv.cols.len();
        let mut joined_env = Env {
            cols: env.cols.clone(),
        };
        joined_env.cols.extend(renv.cols.clone());
        let mut joined = Vec::new();
        for l in &rows {
            let mut matched = false;
            for (_, r) in &rrows {
                let mut combined = l.clone();
                combined.extend(r.iter().cloned());
                if eval_expr(on, &joined_env, &combined, None)? {
                    joined.push(combined);
                    matched = true;
                }
            }
            if !matched {
                let mut combined = l.clone();
                combined.extend(std::iter::repeat_n(Datum::Null, right_width));
                joined.push(combined);
            }
        }
        env = joined_env;
        rows = joined;
        if let Some(w) = &sel.where_clause {
            let mut filtered = Vec::with_capacity(rows.len());
            for r in rows {
                if eval_expr(w, &env, &r, None)? {
                    filtered.push(r);
                }
            }
            rows = filtered;
        }
    }

    // 3. grouping / aggregation
    let has_count = sel
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Count(_) | SelectItem::Agg(_, _)));
    if let Some(group_col) = &sel.group_by {
        let gi = env.resolve(group_col)?;
        let mut groups: Vec<(Datum, i64, Vec<Vec<Datum>>)> = Vec::new();
        for r in rows {
            let key = r[gi].clone();
            match groups.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, c, members)) => {
                    *c += 1;
                    members.push(r);
                }
                None => groups.push((key, 1, vec![r])),
            }
        }
        if let Some(h) = &sel.having {
            groups.retain(|(_, c, members)| {
                eval_expr(h, &env, &members[0], Some(*c)).unwrap_or(false)
            });
        }
        let mut out_rows: Vec<Vec<Datum>> = Vec::with_capacity(groups.len());
        let mut columns = Vec::new();
        for item in &sel.items {
            columns.push(match item {
                SelectItem::Star => "*".to_string(),
                SelectItem::Col(c) => c.render(),
                SelectItem::Count(_) => "count".to_string(),
                SelectItem::Agg(f, c) => format!("{}({})", f.name(), c.render()),
                SelectItem::Lit(d) => d.to_string(),
            });
        }
        for (key, count, members) in &groups {
            let rep = &members[0];
            let mut out = Vec::new();
            for item in &sel.items {
                match item {
                    SelectItem::Col(c) => {
                        let i = env.resolve(c)?;
                        if i == gi {
                            out.push(key.clone());
                        } else {
                            out.push(rep[i].clone());
                        }
                    }
                    SelectItem::Count(_) => out.push(Datum::Int(*count)),
                    SelectItem::Agg(f, c) => {
                        let i = env.resolve(c)?;
                        out.push(aggregate(*f, members.iter().map(|m| &m[i])));
                    }
                    SelectItem::Lit(d) => out.push(d.clone()),
                    SelectItem::Star => {
                        return Err(SqlError::Semantic(
                            "SELECT * is not valid with GROUP BY".into(),
                        ))
                    }
                }
            }
            out_rows.push(out);
        }
        // ORDER BY / LIMIT over the grouped output
        if let Some((col, dir)) = &sel.order_by {
            let pos = sel
                .items
                .iter()
                .position(|i| matches!(i, SelectItem::Col(c) if c.column == col.column))
                .ok_or_else(|| {
                    SqlError::Semantic(
                        "ORDER BY on grouped output must name a selected column".into(),
                    )
                })?;
            out_rows.sort_by(|a, b| {
                let ord = a[pos].cmp(&b[pos]);
                match dir {
                    Order::Asc => ord,
                    Order::Desc => ord.reverse(),
                }
            });
        }
        if let Some(limit) = sel.limit {
            out_rows.truncate(limit);
        }
        return Ok(SqlOutput::Rows {
            columns,
            rows: out_rows,
        });
    }
    if has_count {
        // global aggregate
        let mut out = Vec::new();
        let mut columns = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Count(None) => {
                    columns.push("count".into());
                    out.push(Datum::Int(rows.len() as i64));
                }
                SelectItem::Count(Some(c)) => {
                    let i = env.resolve(c)?;
                    columns.push(format!("count({})", c.render()));
                    out.push(Datum::Int(
                        rows.iter().filter(|r| !r[i].is_null()).count() as i64
                    ));
                }
                SelectItem::Agg(f, c) => {
                    let i = env.resolve(c)?;
                    columns.push(format!("{}({})", f.name(), c.render()));
                    out.push(aggregate(*f, rows.iter().map(|r| &r[i])));
                }
                SelectItem::Lit(d) => {
                    columns.push(d.to_string());
                    out.push(d.clone());
                }
                _ => {
                    return Err(SqlError::Semantic(
                        "mixing columns and aggregates requires GROUP BY".into(),
                    ))
                }
            }
        }
        return Ok(SqlOutput::Rows {
            columns,
            rows: vec![out],
        });
    }

    // 4. order / limit / project
    if let Some((col, dir)) = &sel.order_by {
        let i = env.resolve(col)?;
        rows.sort_by(|a, b| {
            let ord = a[i].cmp(&b[i]);
            match dir {
                Order::Asc => ord,
                Order::Desc => ord.reverse(),
            }
        });
    }
    if let Some(limit) = sel.limit {
        rows.truncate(limit);
    }
    let mut columns = Vec::new();
    let mut projections: Vec<Option<usize>> = Vec::new(); // None = literal
    let mut literals: Vec<Datum> = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Star => {
                for (i, (_, n)) in env.cols.iter().enumerate() {
                    columns.push(n.clone());
                    projections.push(Some(i));
                }
            }
            SelectItem::Col(c) => {
                columns.push(c.render());
                projections.push(Some(env.resolve(c)?));
            }
            SelectItem::Lit(d) => {
                columns.push(d.to_string());
                projections.push(None);
                literals.push(d.clone());
            }
            SelectItem::Count(_) | SelectItem::Agg(_, _) => {
                unreachable!("aggregates handled above")
            }
        }
    }
    let out_rows: Vec<Vec<Datum>> = rows
        .into_iter()
        .map(|r| {
            let mut lit_i = 0;
            projections
                .iter()
                .map(|p| match p {
                    Some(i) => r[*i].clone(),
                    None => {
                        let d = literals[lit_i].clone();
                        lit_i += 1;
                        d
                    }
                })
                .collect()
        })
        .collect();
    Ok(SqlOutput::Rows {
        columns,
        rows: out_rows,
    })
}

/// Compute an aggregate over non-NULL datums (SQL semantics: NULLs are
/// skipped; an empty input yields NULL).
fn aggregate<'a>(f: AggFn, values: impl Iterator<Item = &'a Datum>) -> Datum {
    let non_null: Vec<&Datum> = values.filter(|d| !d.is_null()).collect();
    if non_null.is_empty() {
        return Datum::Null;
    }
    match f {
        AggFn::Sum => {
            if non_null.iter().all(|d| matches!(d, Datum::Int(_))) {
                Datum::Int(non_null.iter().map(|d| d.as_int().unwrap()).sum())
            } else {
                Datum::Float(non_null.iter().filter_map(|d| d.as_float()).sum())
            }
        }
        AggFn::Avg => {
            let sum: f64 = non_null.iter().filter_map(|d| d.as_float()).sum();
            Datum::Float(sum / non_null.len() as f64)
        }
        AggFn::Min => (*non_null.iter().min().expect("non-empty")).clone(),
        AggFn::Max => (*non_null.iter().max().expect("non-empty")).clone(),
    }
}
