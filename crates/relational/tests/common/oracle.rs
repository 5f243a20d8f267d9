//! The materialise-everything interpreter `relational::exec` used before it
//! became a push pipeline, kept as the test-only reference the streaming
//! executor is held to: every operator consolidates its whole output into
//! a [`CountedSet`] before the next one reads it, every selection scans (no
//! index is ever consulted), and aggregates are folded from the
//! consolidated input with the textbook definitions. Slow and obviously
//! right; written against the crate's public API only.

use fgdb_relational::expr::resolve_column;
use fgdb_relational::{
    AggExpr, AggFunc, CountedSet, Database, ExecError, Expr, Plan, PlanError, Tuple, Value,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `Q(w)` by full materialisation — rows and multiplicities, or the error
/// the executor must also report.
pub fn eval(plan: &Plan, db: &Database) -> Result<CountedSet, ExecError> {
    plan.output_columns(db)?;
    eval_in(plan, db, &[])
}

/// `env` binds recursive relation names innermost-last.
fn eval_in(
    plan: &Plan,
    db: &Database,
    env: &[(&str, &CountedSet)],
) -> Result<CountedSet, ExecError> {
    let mut out = CountedSet::new();
    match plan {
        Plan::Scan { relation, .. } => {
            let rel = db
                .relation(relation)
                .map_err(|_| PlanError::UnknownRelation(relation.to_string()))?;
            return Ok(rel.rows().map(|r| r.to_tuple()).collect());
        }
        Plan::Select { input, predicate } => {
            let bound = bind(predicate, &input.output_columns(db)?)?;
            for (t, c) in eval_in(input, db, env)?.iter() {
                if bound.matches(t) {
                    out.add(t.clone(), c);
                }
            }
        }
        Plan::Project { input, columns } => {
            let indices = resolve_all(columns, &input.output_columns(db)?)?;
            for (t, c) in eval_in(input, db, env)?.iter() {
                out.add(t.project(&indices), c);
            }
        }
        Plan::Product { left, right } => {
            let l = eval_in(left, db, env)?;
            let r = eval_in(right, db, env)?;
            for (lt, lc) in l.iter() {
                for (rt, rc) in r.iter() {
                    out.add(lt.concat(rt), lc * rc);
                }
            }
        }
        Plan::Join { left, right, on } => {
            let l_cols = left.output_columns(db)?;
            let r_cols = right.output_columns(db)?;
            let mut keys = Vec::new();
            for (lc, rc) in on {
                keys.push((resolve(&l_cols, lc)?, resolve(&r_cols, rc)?));
            }
            let l = eval_in(left, db, env)?;
            let r = eval_in(right, db, env)?;
            // Nested loops: a pair joins when every key pair is equal and
            // non-NULL (NULL never joins).
            for (lt, lc) in l.iter() {
                for (rt, rc) in r.iter() {
                    let joins = keys
                        .iter()
                        .all(|&(i, j)| !lt.get(i).is_null() && lt.get(i) == rt.get(j));
                    if joins {
                        out.add(lt.concat(rt), lc * rc);
                    }
                }
            }
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let in_cols = input.output_columns(db)?;
            let group_idx = resolve_all(group_by, &in_cols)?;
            let aggs = aggs
                .iter()
                .map(|a| Agg::bind(a, &in_cols))
                .collect::<Result<Vec<_>, _>>()?;
            let rows = eval_in(input, db, env)?;
            let mut groups: BTreeMap<Tuple, Vec<(&Tuple, i64)>> = BTreeMap::new();
            // A global aggregate over an empty input still emits one row.
            if group_idx.is_empty() {
                groups.insert(Tuple::new(vec![]), Vec::new());
            }
            for (t, c) in rows.iter() {
                groups
                    .entry(t.project(&group_idx))
                    .or_default()
                    .push((t, c));
            }
            for (key, members) in groups {
                let mut vals = key.values().to_vec();
                vals.extend(aggs.iter().map(|a| a.fold(&members)));
                out.add(Tuple::new(vals), 1);
            }
        }
        Plan::Distinct { input } => {
            for t in eval_in(input, db, env)?.support() {
                out.add(t.clone(), 1);
            }
        }
        Plan::Union { left, right } => {
            out = eval_in(left, db, env)?;
            out.merge_owned(eval_in(right, db, env)?);
        }
        Plan::Difference { left, right } => {
            let l = eval_in(left, db, env)?;
            let r = eval_in(right, db, env)?;
            for (t, lc) in l.iter() {
                out.add(t.clone(), (lc - r.count(t)).max(0));
            }
        }
        Plan::Intersect { left, right } => {
            let l = eval_in(left, db, env)?;
            let r = eval_in(right, db, env)?;
            for (t, lc) in l.iter() {
                out.add(t.clone(), lc.min(r.count(t)).max(0));
            }
        }
        Plan::Fixpoint {
            base,
            step,
            rec,
            all,
            cap,
            ..
        } => {
            let base_rows = eval_in(base, db, env)?;
            let apply = |bound: &CountedSet| {
                let mut inner = env.to_vec();
                inner.push((&**rec, bound));
                eval_in(step, db, &inner)
            };
            let mut iters = 0usize;
            if *all {
                // Bag semantics: the answer is the sum of every application
                // of the step to the previous application's output.
                out = base_rows.clone();
                let mut working = base_rows;
                while !working.is_empty() {
                    iters += 1;
                    if iters > *cap {
                        return Err(ExecError::FixpointLimit { cap: *cap });
                    }
                    working = apply(&working)?;
                    out.merge(&working);
                }
            } else {
                // Set semantics: Rᵢ₊₁ = δ(base ∪ step(Rᵢ)) until it stops
                // growing.
                out = base_rows.support().cloned().collect();
                loop {
                    iters += 1;
                    if iters > *cap {
                        return Err(ExecError::FixpointLimit { cap: *cap });
                    }
                    let before = out.distinct_len();
                    for t in apply(&out)?.support() {
                        if !out.contains(t) {
                            out.add(t.clone(), 1);
                        }
                    }
                    if out.distinct_len() == before {
                        break;
                    }
                }
            }
        }
        Plan::Rec { name, .. } => {
            return env
                .iter()
                .rev()
                .find(|(n, _)| *n == &**name)
                .map(|(_, rows)| (*rows).clone())
                .ok_or_else(|| ExecError::UnboundRecursion(name.to_string()));
        }
    }
    Ok(out)
}

fn resolve(cols: &[Arc<str>], name: &str) -> Result<usize, ExecError> {
    resolve_column(cols, name)
        .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(name.to_string())))
}

fn resolve_all(names: &[Arc<str>], cols: &[Arc<str>]) -> Result<Vec<usize>, ExecError> {
    names.iter().map(|n| resolve(cols, n)).collect()
}

/// One bound aggregate, folded over a whole group at once.
struct Agg<'a> {
    func: &'a AggFunc,
    col: usize,
    filter: Option<fgdb_relational::BoundExpr>,
}

impl<'a> Agg<'a> {
    fn bind(a: &'a AggExpr, cols: &[Arc<str>]) -> Result<Self, ExecError> {
        let col = match &a.func {
            AggFunc::Count => 0,
            AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) => resolve(cols, c)?,
        };
        let filter = match &a.filter {
            Some(f) => Some(bind(f, cols)?),
            None => None,
        };
        Ok(Agg {
            func: &a.func,
            col,
            filter,
        })
    }

    fn fold(&self, members: &[(&Tuple, i64)]) -> Value {
        let kept = members
            .iter()
            .filter(|(t, _)| self.filter.as_ref().is_none_or(|f| f.matches(*t)));
        let values = kept
            .clone()
            .map(|(t, c)| (t.get(self.col), *c))
            .filter(|(v, _)| !v.is_null());
        match self.func {
            AggFunc::Count => Value::Int(kept.map(|(_, c)| c).sum()),
            AggFunc::Min(_) => values.map(|(v, _)| v).min().cloned().unwrap_or(Value::Null),
            AggFunc::Max(_) => values.map(|(v, _)| v).max().cloned().unwrap_or(Value::Null),
            // Integer inputs sum exactly, float inputs in f64; a mixed
            // column reports a float, an overflowing integer sum likewise,
            // and a sum over no numeric value is NULL.
            AggFunc::Sum(_) => {
                let (mut int, mut float, mut n, mut saw_float) = (0i128, 0f64, 0i64, false);
                for (v, c) in values {
                    match v {
                        Value::Int(i) => int += *i as i128 * c as i128,
                        Value::Float(f) => {
                            float += f.get() * c as f64;
                            saw_float = true;
                        }
                        _ => continue,
                    }
                    n += c;
                }
                match (n, saw_float, i64::try_from(int)) {
                    (0, _, _) => Value::Null,
                    (_, false, Ok(i)) => Value::Int(i),
                    _ => Value::float(int as f64 + float),
                }
            }
        }
    }
}

fn bind(expr: &Expr, cols: &[Arc<str>]) -> Result<fgdb_relational::BoundExpr, ExecError> {
    expr.bind(cols)
        .map_err(|c| ExecError::Plan(PlanError::UnknownColumn(c)))
}
