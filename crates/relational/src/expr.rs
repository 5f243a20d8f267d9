//! Scalar expressions and predicates (the WHERE clauses of Queries 1–4).
//!
//! Expressions are written against column *names* and bound to positions
//! against the output schema of the plan node they run over. Evaluation uses
//! SQL three-valued logic: a comparison involving NULL is *unknown*, and
//! rows whose predicate is unknown are filtered out.

use crate::row::Row;
use crate::storage::{ChunkRef, Relation};
use crate::symbol::Str;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison to an ordering (`a op b` where `ord` is the
    /// ordering of `a` relative to `b`).
    pub fn apply(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
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

/// An unbound scalar expression over named columns.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Reference to an output column by (possibly alias-qualified) name.
    Column(Arc<str>),
    /// A constant.
    Literal(Value),
    /// Binary comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND (three-valued).
    And(Box<Expr>, Box<Expr>),
    /// Logical OR (three-valued).
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT (three-valued).
    Not(Box<Expr>),
    /// `IS NULL` test (never unknown).
    IsNull(Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<Arc<str>>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)] // DSL builder; `!expr` would be less readable
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// Binds column names to positions in `columns`, producing an executable
    /// expression. Returns the unknown name on failure. A string literal
    /// the interner holds binds as its symbol, so it compares with stored
    /// strings as a `u32`; binding never interns.
    pub fn bind(&self, columns: &[Arc<str>]) -> Result<BoundExpr, String> {
        Ok(match self {
            Expr::Column(name) => {
                let idx = resolve_column(columns, name).ok_or_else(|| name.to_string())?;
                BoundExpr::Column(idx)
            }
            Expr::Literal(v) => BoundExpr::Literal(v.canonical()),
            Expr::Cmp(op, a, b) => {
                BoundExpr::Cmp(*op, Box::new(a.bind(columns)?), Box::new(b.bind(columns)?))
            }
            Expr::And(a, b) => {
                BoundExpr::And(Box::new(a.bind(columns)?), Box::new(b.bind(columns)?))
            }
            Expr::Or(a, b) => BoundExpr::Or(Box::new(a.bind(columns)?), Box::new(b.bind(columns)?)),
            Expr::Not(a) => BoundExpr::Not(Box::new(a.bind(columns)?)),
            Expr::IsNull(a) => BoundExpr::IsNull(Box::new(a.bind(columns)?)),
        })
    }

    /// Column names referenced by this expression.
    pub fn referenced_columns(&self, out: &mut Vec<Arc<str>>) {
        match self {
            Expr::Column(n) => out.push(Arc::clone(n)),
            Expr::Literal(_) => {}
            Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.referenced_columns(out);
                b.referenced_columns(out);
            }
            Expr::Not(a) | Expr::IsNull(a) => a.referenced_columns(out),
        }
    }
}

/// Resolves `name` against output column names.
///
/// Matching rules: an exact match wins; otherwise an unqualified `name`
/// matches a qualified column `alias.name` when exactly one such column
/// exists (ambiguity is a bind failure, surfaced as "no match" with the
/// offending name).
pub fn resolve_column(columns: &[Arc<str>], name: &str) -> Option<usize> {
    if let Some(i) = columns.iter().position(|c| &**c == name) {
        return Some(i);
    }
    if !name.contains('.') {
        let mut found = None;
        for (i, c) in columns.iter().enumerate() {
            if let Some((_, suffix)) = c.split_once('.') {
                if suffix == name {
                    if found.is_some() {
                        return None; // ambiguous
                    }
                    found = Some(i);
                }
            }
        }
        return found;
    }
    None
}

/// An expression with column references resolved to positions.
#[derive(Clone, Debug, PartialEq)]
pub enum BoundExpr {
    /// Positional column reference.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Comparison.
    Cmp(CmpOp, Box<BoundExpr>, Box<BoundExpr>),
    /// Three-valued AND.
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// Three-valued OR.
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// Three-valued NOT.
    Not(Box<BoundExpr>),
    /// NULL test.
    IsNull(Box<BoundExpr>),
}

impl BoundExpr {
    /// Evaluates to a value (logical sub-expressions yield booleans or NULL)
    /// over any [`Row`] — a tuple, a stored row read in place, or a row an
    /// operator composed in flight.
    pub fn eval<R: Row + ?Sized>(&self, tuple: &R) -> Value {
        match self {
            BoundExpr::Column(i) => tuple.get(*i).clone(),
            BoundExpr::Literal(v) => v.clone(),
            BoundExpr::Cmp(op, a, b) => match a.eval(tuple).sql_cmp(&b.eval(tuple)) {
                Some(ord) => Value::Bool(op.apply(ord)),
                None => Value::Null,
            },
            BoundExpr::And(..) | BoundExpr::Or(..) | BoundExpr::Not(_) => {
                match self.eval_truth(tuple) {
                    Some(b) => Value::Bool(b),
                    None => Value::Null,
                }
            }
            BoundExpr::IsNull(a) => Value::Bool(a.eval(tuple).is_null()),
        }
    }

    /// Leaf access without cloning: columns and literals are read in place.
    /// Predicate evaluation runs once per delta row per σ node, so the
    /// common `col ⋈ lit` shape must not touch refcounts.
    #[inline]
    fn leaf<'a, R: Row + ?Sized>(&'a self, tuple: &'a R) -> Option<&'a Value> {
        match self {
            BoundExpr::Column(i) => Some(tuple.get(*i)),
            BoundExpr::Literal(v) => Some(v),
            _ => None,
        }
    }

    /// Evaluates as a three-valued truth value. Comparisons over leaf
    /// operands (the overwhelmingly common case) are performed by reference
    /// — no `Value` clones. String (in)equality asks no order: two symbols
    /// (every stored string, and a bound literal the store holds) compare
    /// as `u32`s without reading the text. `AND` / `OR` stop at their first
    /// deciding operand (evaluation is pure, so three-valued results are
    /// unchanged).
    pub fn eval_truth<R: Row + ?Sized>(&self, tuple: &R) -> Option<bool> {
        match self {
            BoundExpr::Cmp(op, a, b) => {
                let ord = match (a.leaf(tuple), b.leaf(tuple)) {
                    (Some(Value::Str(x)), Some(Value::Str(y)))
                        if matches!(op, CmpOp::Eq | CmpOp::Ne) =>
                    {
                        return Some((x == y) == (*op == CmpOp::Eq));
                    }
                    (Some(va), Some(vb)) => va.sql_cmp(vb),
                    _ => a.eval(tuple).sql_cmp(&b.eval(tuple)),
                };
                ord.map(|o| op.apply(o))
            }
            BoundExpr::And(a, b) => match a.eval_truth(tuple) {
                Some(false) => Some(false),
                ta => match (ta, b.eval_truth(tuple)) {
                    (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
            },
            BoundExpr::Or(a, b) => match a.eval_truth(tuple) {
                Some(true) => Some(true),
                ta => match (ta, b.eval_truth(tuple)) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
            },
            BoundExpr::Not(a) => a.eval_truth(tuple).map(|b| !b),
            BoundExpr::IsNull(a) => Some(match a.leaf(tuple) {
                Some(v) => v.is_null(),
                None => a.eval(tuple).is_null(),
            }),
            other => {
                let truth = |v: &Value| match v {
                    Value::Bool(b) => Some(*b),
                    _ => None,
                };
                match other.leaf(tuple) {
                    Some(v) => truth(v),
                    None => truth(&other.eval(tuple)),
                }
            }
        }
    }

    /// SQL WHERE semantics: keep the row only when the predicate is `true`.
    #[inline]
    pub fn matches<R: Row + ?Sized>(&self, tuple: &R) -> bool {
        self.eval_truth(tuple) == Some(true)
    }

    /// [`BoundExpr::matches`] for every live row of a heap chunk at once:
    /// the slots whose row satisfies the predicate. Comparisons of columns
    /// with literals or columns, `IS NULL` and `AND`/`OR`/`NOT` of those
    /// run column-at-a-time, reading each named column's 64 values back to
    /// back; any other shape is evaluated row by row.
    pub fn select(&self, chunk: ChunkRef<'_>) -> u64 {
        let live = chunk.live();
        match self.truth_masks(chunk, live) {
            Some((holds, _)) => holds & live,
            None => chunk
                .rows(live)
                .filter(|(_, row)| self.matches(row))
                .fold(0, |m, (slot, _)| m | 1 << slot),
        }
    }

    /// Three-valued truth over a chunk's slots as `(true, false)` masks —
    /// a slot in neither is unknown — or `None` for a shape evaluated row
    /// by row. Only the `live` slots' bits are meaningful (dead slots read
    /// as NULL); an `AND` whose left side is false on every live slot, or
    /// an `OR` whose left side is true on all, never reads its right side.
    fn truth_masks(&self, chunk: ChunkRef<'_>, live: u64) -> Option<(u64, u64)> {
        Some(match self {
            BoundExpr::Cmp(op, a, b) => {
                let op = *op;
                match (&**a, &**b) {
                    (BoundExpr::Column(x), BoundExpr::Literal(Value::Str(v)))
                    | (BoundExpr::Literal(Value::Str(v)), BoundExpr::Column(x))
                        if matches!(op, CmpOp::Eq | CmpOp::Ne) =>
                    {
                        let (equal, strings) = str_eq_masks(chunk.column(*x), v);
                        match op {
                            CmpOp::Eq => (equal, strings & !equal),
                            _ => (strings & !equal, equal),
                        }
                    }
                    (BoundExpr::Column(x), BoundExpr::Literal(v)) => {
                        let x = chunk.column(*x);
                        masks_by(|i| compare(op, &x[i], v))
                    }
                    (BoundExpr::Literal(v), BoundExpr::Column(y)) => {
                        let y = chunk.column(*y);
                        masks_by(|i| compare(op, v, &y[i]))
                    }
                    (BoundExpr::Column(x), BoundExpr::Column(y)) => {
                        let (x, y) = (chunk.column(*x), chunk.column(*y));
                        masks_by(|i| compare(op, &x[i], &y[i]))
                    }
                    (BoundExpr::Literal(u), BoundExpr::Literal(v)) => uniform(compare(op, u, v)),
                    _ => return None,
                }
            }
            BoundExpr::And(a, b) => {
                let (at, af) = a.truth_masks(chunk, live)?;
                if af & live == live {
                    return Some((0, af));
                }
                let (bt, bf) = b.truth_masks(chunk, live)?;
                (at & bt, af | bf)
            }
            BoundExpr::Or(a, b) => {
                let (at, af) = a.truth_masks(chunk, live)?;
                if at & live == live {
                    return Some((at, 0));
                }
                let (bt, bf) = b.truth_masks(chunk, live)?;
                (at | bt, af & bf)
            }
            BoundExpr::Not(a) => {
                let (t, f) = a.truth_masks(chunk, live)?;
                (f, t)
            }
            BoundExpr::IsNull(a) => match &**a {
                BoundExpr::Column(x) => {
                    let x = chunk.column(*x);
                    masks_by(|i| Some(x[i].is_null()))
                }
                BoundExpr::Literal(v) => uniform(Some(v.is_null())),
                _ => return None,
            },
            BoundExpr::Column(x) => {
                let x = chunk.column(*x);
                masks_by(|i| x[i].as_bool())
            }
            BoundExpr::Literal(v) => uniform(v.as_bool()),
        })
    }
}

/// `a op b` under SQL's three-valued logic — `None` when either side is
/// NULL or the types do not compare: [`BoundExpr::eval_truth`]'s comparison
/// of two leaves, for the column-at-a-time masks. (`eval_truth` keeps its
/// own copy inline; routed through this function the row path measured
/// ≈5 % slower on a maintained closure.)
#[inline]
fn compare(op: CmpOp, a: &Value, b: &Value) -> Option<bool> {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) if matches!(op, CmpOp::Eq | CmpOp::Ne) => {
            Some((x == y) == (op == CmpOp::Eq))
        }
        _ => a.sql_cmp(b).map(|o| op.apply(o)),
    }
}

/// `(equal, strings)` of a chunk column against a string literal: the slots
/// holding a string, and those equal to `lit` — the shape of every paper
/// query's σ. Stored strings are symbols, and a bound literal the store
/// holds is one too, so each slot is one `u32` compare; a literal the
/// interner lacks is compared by text.
fn str_eq_masks(col: &[Value; Relation::CHUNK_ROWS], lit: &Str) -> (u64, u64) {
    let (mut equal, mut strings) = (0u64, 0u64);
    for (i, v) in col.iter().enumerate() {
        if let Value::Str(s) = v {
            strings |= 1 << i;
            equal |= u64::from(s == lit) << i;
        }
    }
    (equal, strings)
}

/// The `(true, false)` masks of a per-slot truth function over a chunk.
#[inline]
fn masks_by(mut truth: impl FnMut(usize) -> Option<bool>) -> (u64, u64) {
    let (mut holds, mut fails) = (0u64, 0u64);
    for i in 0..Relation::CHUNK_ROWS {
        match truth(i) {
            Some(true) => holds |= 1 << i,
            Some(false) => fails |= 1 << i,
            None => {}
        }
    }
    (holds, fails)
}

/// The masks of a truth value every slot shares.
fn uniform(truth: Option<bool>) -> (u64, u64) {
    match truth {
        Some(true) => (u64::MAX, 0),
        Some(false) => (0, u64::MAX),
        None => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::tuple::Tuple;

    fn cols(names: &[&str]) -> Vec<Arc<str>> {
        names.iter().map(|n| Arc::from(*n)).collect()
    }

    #[test]
    fn query1_predicate() {
        // WHERE LABEL = 'B-PER'
        let p = Expr::col("label").eq(Expr::lit("B-PER"));
        let b = p.bind(&cols(&["tok_id", "label"])).unwrap();
        assert!(b.matches(&tuple![1i64, "B-PER"]));
        assert!(!b.matches(&tuple![1i64, "O"]));
    }

    #[test]
    fn bind_reports_unknown_column() {
        let p = Expr::col("missing").eq(Expr::lit(1i64));
        assert_eq!(p.bind(&cols(&["a"])).unwrap_err(), "missing");
    }

    #[test]
    fn qualified_name_resolution() {
        let columns = cols(&["T1.doc_id", "T1.label", "T2.doc_id"]);
        // Exact qualified match.
        assert_eq!(resolve_column(&columns, "T2.doc_id"), Some(2));
        // Unqualified match is ambiguous for doc_id...
        assert_eq!(resolve_column(&columns, "doc_id"), None);
        // ...but unique for label.
        assert_eq!(resolve_column(&columns, "label"), Some(1));
    }

    #[test]
    fn three_valued_logic() {
        let columns = cols(&["x"]);
        let p = Expr::col("x").eq(Expr::lit(1i64));
        let b = p.bind(&columns).unwrap();
        // NULL = 1 is unknown → filtered.
        assert_eq!(b.eval_truth(&tuple![Value::Null]), None);
        assert!(!b.matches(&tuple![Value::Null]));

        // NULL AND false = false; NULL OR true = true.
        let and = Expr::col("x")
            .eq(Expr::lit(1i64))
            .and(Expr::lit(false).eq(Expr::lit(true)));
        let and = and.bind(&columns).unwrap();
        assert_eq!(and.eval_truth(&tuple![Value::Null]), Some(false));

        let or = Expr::col("x")
            .eq(Expr::lit(1i64))
            .or(Expr::lit(1i64).eq(Expr::lit(1i64)));
        let or = or.bind(&columns).unwrap();
        assert_eq!(or.eval_truth(&tuple![Value::Null]), Some(true));
    }

    #[test]
    fn is_null_never_unknown() {
        let b = Expr::col("x").is_null().bind(&cols(&["x"])).unwrap();
        assert!(b.matches(&tuple![Value::Null]));
        assert!(!b.matches(&tuple![1i64]));
    }

    #[test]
    fn comparison_operators() {
        let columns = cols(&["x"]);
        let t5 = tuple![5i64];
        for (op, lo, hi, eq) in [
            (CmpOp::Lt, false, true, false),
            (CmpOp::Le, false, true, true),
            (CmpOp::Gt, true, false, false),
            (CmpOp::Ge, true, false, true),
            (CmpOp::Eq, false, false, true),
            (CmpOp::Ne, true, true, false),
        ] {
            let mk = |rhs: i64| {
                BoundExpr::Cmp(
                    op,
                    Box::new(BoundExpr::Column(0)),
                    Box::new(BoundExpr::Literal(Value::Int(rhs))),
                )
            };
            assert_eq!(mk(3).matches(&t5), lo, "{op} 5 vs 3");
            assert_eq!(mk(7).matches(&t5), hi, "{op} 5 vs 7");
            assert_eq!(mk(5).matches(&t5), eq, "{op} 5 vs 5");
        }
        let _ = columns;
    }

    #[test]
    fn chunk_masks_select_exactly_the_rows_row_evaluation_keeps() {
        use crate::schema::Schema;
        use crate::storage::Relation;
        use crate::value::ValueType;
        // Every type, NULLs, interned and fresh strings, and dead slots
        // across three chunks.
        let schema = Schema::from_pairs(&[
            ("i", ValueType::Int),
            ("f", ValueType::Float),
            ("s", ValueType::Str),
            ("t", ValueType::Str),
            ("b", ValueType::Bool),
        ])
        .unwrap();
        let mut rel = Relation::new("T", schema.clone());
        let words = [Value::str("on"), Value::str("off"), Value::str("o")];
        let mut rids = Vec::new();
        for k in 0..150i64 {
            let pick = |n: i64| {
                if (k * n) % 7 == 0 {
                    Value::Null
                } else {
                    words[(k * n % 3) as usize].clone()
                }
            };
            let row = vec![
                if k % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int(k % 5)
                },
                if k % 13 == 0 {
                    Value::Null
                } else {
                    Value::float((k % 4) as f64)
                },
                pick(1),
                if k % 2 == 0 {
                    Value::str(format!("o{}", "n".repeat((k % 3) as usize)))
                } else {
                    pick(5)
                },
                if k % 9 == 0 {
                    Value::Null
                } else {
                    Value::Bool(k % 3 == 0)
                },
            ];
            rids.push(rel.insert(Tuple::new(row)).unwrap());
        }
        for rid in rids.iter().step_by(7) {
            rel.delete(*rid).unwrap();
        }
        let cols: Vec<Arc<str>> = schema
            .columns()
            .iter()
            .map(|c| Arc::clone(&c.name))
            .collect();
        let preds = [
            Expr::col("s").eq(Expr::lit("on")),
            Expr::lit("on").ne(Expr::col("s")),
            Expr::col("s").eq(Expr::col("t")),
            Expr::col("s").lt(Expr::col("t")),
            Expr::col("i").ge(Expr::lit(2i64)),
            Expr::lit(2.5f64).gt(Expr::col("i")),
            Expr::col("i").eq(Expr::col("f")),
            Expr::col("i").eq(Expr::lit("on")),
            Expr::col("s")
                .eq(Expr::lit("on"))
                .and(Expr::col("i").lt(Expr::lit(3i64))),
            Expr::col("s")
                .eq(Expr::lit("zz"))
                .and(Expr::col("i").is_null()),
            Expr::col("t").eq(Expr::lit("on")).or(Expr::col("b")),
            Expr::col("b").not().or(Expr::col("f").is_null()),
            Expr::col("s").is_null().not(),
            Expr::col("s")
                .eq(Expr::lit("on"))
                .and(Expr::col("b").not())
                .not(),
            Expr::col("i")
                .is_null()
                .or(Expr::col("t").eq(Expr::lit("on")).not())
                .not(),
            Expr::lit(Value::Null).eq(Expr::col("i")),
            Expr::lit(true),
            Expr::lit(1i64).eq(Expr::lit(1i64)).and(Expr::col("b")),
        ];
        for pred in &preds {
            let bound = pred.bind(&cols).unwrap();
            for chunk in rel.chunks(0..rel.chunk_count()) {
                let want = chunk
                    .rows(chunk.live())
                    .filter(|(_, row)| bound.matches(row))
                    .fold(0u64, |m, (slot, _)| m | 1 << slot);
                assert_eq!(bound.select(chunk), want, "{pred:?}");
            }
        }
    }

    #[test]
    fn string_equality_agrees_with_the_ordering_at_every_operator() {
        // Equal and unequal lengths, a shared allocation, a prefix, NULL.
        let shared = Value::str("Boston");
        let values = [
            shared.clone(),
            Value::str("Boston"),
            Value::str("Bosto"),
            Value::str("Bostons"),
            Value::str("Austin"),
            Value::Null,
        ];
        for lhs in &values {
            for rhs in &values {
                for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
                    let cmp = BoundExpr::Cmp(
                        op,
                        Box::new(BoundExpr::Column(0)),
                        Box::new(BoundExpr::Literal(rhs.clone())),
                    );
                    let want = lhs.sql_cmp(rhs).map(|o| op.apply(o));
                    assert_eq!(cmp.eval_truth(&Tuple::new(vec![lhs.clone()])), want);
                }
            }
        }
    }

    #[test]
    fn and_or_stop_at_the_deciding_operand_with_unchanged_results() {
        let truth = [Some(true), Some(false), None];
        let lit =
            |t: Option<bool>| Box::new(BoundExpr::Literal(t.map_or(Value::Null, Value::Bool)));
        let row = tuple![0i64];
        for a in truth {
            for b in truth {
                let and = BoundExpr::And(lit(a), lit(b)).eval_truth(&row);
                let or = BoundExpr::Or(lit(a), lit(b)).eval_truth(&row);
                let kleene_and = match (a, b) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                };
                let kleene_or = match (a, b) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                };
                assert_eq!((and, or), (kleene_and, kleene_or), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn not_inverts() {
        let b = Expr::col("x")
            .eq(Expr::lit(1i64))
            .not()
            .bind(&cols(&["x"]))
            .unwrap();
        assert!(!b.matches(&tuple![1i64]));
        assert!(b.matches(&tuple![2i64]));
        assert_eq!(b.eval_truth(&tuple![Value::Null]), None);
    }

    #[test]
    fn referenced_columns_collects_names() {
        let p = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("b").lt(Expr::col("c")));
        let mut out = Vec::new();
        p.referenced_columns(&mut out);
        let names: Vec<_> = out.iter().map(|s| s.to_string()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
