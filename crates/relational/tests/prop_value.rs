//! Property tests for the two forms of a string value.
//!
//! A [`Str`] is an interned symbol (every stored string) or a heap string
//! (what ad hoc SQL brings). The two forms of one text must be the same
//! value to everything that reads one: `==`, `Ord`, `Hash`, `sql_cmp`, the
//! row fingerprint, the durable encoding and the wire encoding. A column
//! that holds both forms — a stored symbol retracted by a Δ row that
//! carries the heap form — must count, sort and maintain as if it held one.

use fgdb_durability::format::{decode_value, encode_value, Dec, Enc};
use fgdb_relational::parser::parse_plan;
use fgdb_relational::planner::optimize;
use fgdb_relational::tuple::fingerprint_values;
use fgdb_relational::{
    execute, tuple, CountedSet, Database, DeltaSet, FxHasher, MaterializedView, QueryResult,
    Schema, Str, Tuple, Value, ValueType,
};
use fgdb_serve::protocol::{table_frame, EpochMeta};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const _: () = assert!(std::mem::size_of::<Value>() == 16);

/// Characters strings are drawn from: ASCII, a quote, multi-byte UTF-8.
const ALPHABET: [char; 10] = ['a', 'b', 'B', '-', 'O', '\'', ' ', 'é', '日', '本'];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..6)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn symbol(s: &str) -> Value {
    Value::Str(Str::intern(s).unwrap())
}

fn heap(s: &str) -> Value {
    Value::Str(Str::heap(s))
}

fn hashes<T: Hash>(v: &T) -> (u64, u64) {
    let mut d = DefaultHasher::new();
    v.hash(&mut d);
    let mut f = FxHasher::default();
    v.hash(&mut f);
    (d.finish(), f.finish())
}

fn durable_bytes(v: &Value) -> Vec<u8> {
    let mut e = Enc::new();
    encode_value(&mut e, v);
    e.into_bytes()
}

fn wire_bytes(v: &Value) -> Vec<u8> {
    let result = QueryResult {
        columns: vec![Arc::from("s")],
        rows: CountedSet::from_iter([(Tuple::new(vec![v.clone()]), 1)]),
    };
    let meta = EpochMeta {
        epoch: 1,
        steps: 2,
        samples: 3,
    };
    table_frame(&meta, &result).unwrap().as_bytes().to_vec()
}

/// A one-relation database whose `state` column stores `states`.
fn link_db(states: &[String]) -> Database {
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("state", ValueType::Str)])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
    let mut db = Database::new();
    db.create_relation("LINK", schema).unwrap();
    let rel = db.relation_mut("LINK").unwrap();
    for (i, s) in states.iter().enumerate() {
        rel.insert(tuple![i as i64, s.as_str()]).unwrap();
    }
    db
}

proptest! {
    /// A symbol and a heap string of one text are one value everywhere.
    #[test]
    fn both_forms_of_one_text_agree(s in text()) {
        let (a, b) = (symbol(&s), heap(&s));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&b, &a);
        prop_assert_eq!(a.cmp(&b), Ordering::Equal);
        prop_assert_eq!(a.sql_cmp(&b), Some(Ordering::Equal));
        prop_assert_eq!(hashes(&a), hashes(&b));
        prop_assert_eq!(
            fingerprint_values(&[Value::Int(1), a.clone()]),
            fingerprint_values(&[Value::Int(1), b.clone()])
        );
        prop_assert_eq!(durable_bytes(&a), durable_bytes(&b));
        prop_assert_eq!(wire_bytes(&a), wire_bytes(&b));
        prop_assert_eq!(a.to_string(), b.to_string());
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Decoding yields the stored form, whichever form was encoded.
        let bytes = durable_bytes(&b);
        let mut d = Dec::new(&bytes);
        let back = decode_value(&mut d).unwrap();
        prop_assert_eq!(&back, &a);
        prop_assert!(matches!(&back, Value::Str(x) if x.is_symbol()));
    }

    /// Comparing two texts gives the same answer in every pairing of forms
    /// as comparing the texts themselves.
    #[test]
    fn every_pairing_of_forms_orders_by_text(s in text(), t in text()) {
        let forms = |x: &str| [symbol(x), heap(x)];
        for a in forms(&s) {
            for b in forms(&t) {
                prop_assert_eq!(a == b, s == t);
                prop_assert_eq!(a.cmp(&b), s.cmp(&t));
                prop_assert_eq!(a.sql_cmp(&b), Some(s.cmp(&t)));
                if s == t {
                    prop_assert_eq!(hashes(&a), hashes(&b));
                }
            }
        }
    }

    /// A multiset of rows whose string column mixes both forms counts,
    /// and sorts as the same rows built in one form.
    #[test]
    fn a_mixed_column_counts_as_one_form(
        rows in prop::collection::vec((text(), any::<bool>(), -2i64..3), 0..24)
    ) {
        let mixed: CountedSet = rows
            .iter()
            .map(|(s, sym, w)| {
                let v = if *sym { symbol(s) } else { heap(s) };
                (Tuple::new(vec![v]), *w)
            })
            .collect();
        let plain: CountedSet = rows
            .iter()
            .map(|(s, _, w)| (Tuple::new(vec![heap(s)]), *w))
            .collect();
        prop_assert_eq!(&mixed, &plain);
        prop_assert_eq!(mixed.sorted_support(), plain.sorted_support());
        prop_assert_eq!(mixed.distinct_len(), plain.distinct_len());
    }

    /// A maintained view over a stored (symbol) column, fed Δ rows in the
    /// heap form — what a hand-built delta or a heap literal carries —
    /// equals re-execution after every batch, and σ on a heap literal
    /// selects the stored symbols of its text.
    #[test]
    fn a_view_over_symbols_takes_heap_deltas(
        states in prop::collection::vec(0usize..3, 1..12),
        flips in prop::collection::vec((0usize..12, 0usize..3), 0..8),
    ) {
        const STATES: [&str; 3] = ["on", "off", "日本"];
        let mut now: Vec<String> = states.iter().map(|&i| STATES[i].to_string()).collect();
        let mut db = link_db(&now);
        let plan = optimize(
            &parse_plan("SELECT state, COUNT(*) AS n FROM LINK WHERE state <> 'off' GROUP BY state")
                .unwrap(),
            &db,
        )
        .unwrap();
        let mut view = MaterializedView::new(&plan, &db).unwrap();
        let link: Arc<str> = Arc::from("LINK");
        for (row, to) in flips {
            let row = row % now.len();
            let (from, to) = (now[row].clone(), STATES[to].to_string());
            let id = row as i64;
            let mut delta = DeltaSet::new();
            delta.record_update(
                &link,
                Tuple::new(vec![Value::Int(id), heap(&from)]),
                Tuple::new(vec![Value::Int(id), heap(&to)]),
            );
            view.try_apply_delta(&delta).unwrap();
            now[row] = to;
            db = link_db(&now);
            let fresh = execute(&plan, &db).unwrap().0;
            prop_assert_eq!(view.result(), &fresh.rows);
        }
    }
}
