//! The database: a catalog of named relations.
//!
//! Per §3 of the paper, "the underlying relational database always stores a
//! single possible world". [`Database`] is that world. MCMC mutates it in
//! place through [`Database::relation_mut`]; query evaluators read it.

use crate::schema::Schema;
use crate::storage::{Relation, StorageError};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors raised by catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A relation with this name already exists.
    DuplicateRelation(String),
    /// No relation with this name.
    UnknownRelation(String),
    /// Underlying storage failure.
    Storage(StorageError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateRelation(n) => write!(f, "relation `{n}` already exists"),
            CatalogError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            CatalogError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<StorageError> for CatalogError {
    fn from(e: StorageError) -> Self {
        CatalogError::Storage(e)
    }
}

/// A deterministic database instance: one possible world.
///
/// Cloning snapshots every relation by structural sharing (see
/// [`Relation::snapshot`]): the copy costs one pointer bump per slot chunk
/// and per index, and copy-on-write keeps the two worlds independent from
/// then on. This is the replication primitive behind §5.4's parallel query
/// evaluation, where each chain mutates its own "identical copy of the
/// initial world", and behind every published serving epoch and checkpoint.
#[derive(Clone, Default)]
pub struct Database {
    relations: BTreeMap<Arc<str>, Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a relation with the given schema.
    pub fn create_relation(
        &mut self,
        name: impl Into<Arc<str>>,
        schema: Schema,
    ) -> Result<&mut Relation, CatalogError> {
        let name = name.into();
        if self.relations.contains_key(&name) {
            return Err(CatalogError::DuplicateRelation(name.to_string()));
        }
        let rel = Relation::new(Arc::clone(&name), schema);
        Ok(self.relations.entry(name).or_insert(rel))
    }

    /// Drops a relation, returning it.
    pub fn drop_relation(&mut self, name: &str) -> Result<Relation, CatalogError> {
        self.relations
            .remove(name)
            .ok_or_else(|| CatalogError::UnknownRelation(name.to_string()))
    }

    /// Immutable access to a relation.
    pub fn relation(&self, name: &str) -> Result<&Relation, CatalogError> {
        self.relations
            .get(name)
            .ok_or_else(|| CatalogError::UnknownRelation(name.to_string()))
    }

    /// Mutable access to a relation (the MCMC write path).
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation, CatalogError> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| CatalogError::UnknownRelation(name.to_string()))
    }

    /// Names of all relations, sorted.
    pub fn relation_names(&self) -> impl Iterator<Item = &Arc<str>> {
        self.relations.keys()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Total live tuples across relations (the "#tuples" axis of Fig. 4a).
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Snapshot: an independent copy of the whole stored world, row ids and
    /// indexes included, sharing storage with this one until either side
    /// writes (cost ∝ chunks, then ∝ rows changed — never ∝ rows stored).
    /// Named alias of `Clone` marking intent.
    pub fn snapshot(&self) -> Database {
        self.clone()
    }

    /// Installs an already-built relation under its own name — the
    /// deserialization path, where relations are rebuilt slot-for-slot via
    /// [`Relation::from_raw_parts`] rather than grown through
    /// [`Database::create_relation`].
    pub fn adopt_relation(&mut self, rel: Relation) -> Result<(), CatalogError> {
        if self.relations.contains_key(rel.name()) {
            return Err(CatalogError::DuplicateRelation(rel.name().to_string()));
        }
        self.relations.insert(Arc::clone(rel.name()), rel);
        Ok(())
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Database");
        for (n, r) in &self.relations {
            d.field(n, &r.len());
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::ValueType;

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", ValueType::Int), ("s", ValueType::Str)])
            .unwrap()
            .with_primary_key("id")
            .unwrap()
    }

    #[test]
    fn create_and_lookup() {
        let mut db = Database::new();
        db.create_relation("T", schema()).unwrap();
        assert!(db.relation("T").is_ok());
        assert!(matches!(
            db.relation("U"),
            Err(CatalogError::UnknownRelation(_))
        ));
        assert_eq!(db.relation_count(), 1);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut db = Database::new();
        db.create_relation("T", schema()).unwrap();
        assert!(matches!(
            db.create_relation("T", schema()),
            Err(CatalogError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn total_tuples_spans_relations() {
        let mut db = Database::new();
        db.create_relation("A", schema()).unwrap();
        db.create_relation("B", schema()).unwrap();
        db.relation_mut("A")
            .unwrap()
            .insert(tuple![1i64, "x"])
            .unwrap();
        db.relation_mut("B")
            .unwrap()
            .insert(tuple![1i64, "y"])
            .unwrap();
        db.relation_mut("B")
            .unwrap()
            .insert(tuple![2i64, "z"])
            .unwrap();
        assert_eq!(db.total_tuples(), 3);
    }

    #[test]
    fn snapshot_isolates_worlds() {
        let mut db = Database::new();
        db.create_relation("T", schema()).unwrap();
        let rid = db
            .relation_mut("T")
            .unwrap()
            .insert(tuple![1i64, "x"])
            .unwrap();

        let mut snap = db.snapshot();
        snap.relation_mut("T")
            .unwrap()
            .update_field(rid, 1, crate::value::Value::str("y"))
            .unwrap();
        snap.create_relation("U", schema()).unwrap();

        // Original world is untouched by replica writes and DDL.
        assert_eq!(
            db.relation("T").unwrap().get(rid).unwrap().get(1).as_str(),
            Some("x")
        );
        assert!(db.relation("U").is_err());
        assert_eq!(
            snap.relation("T")
                .unwrap()
                .get(rid)
                .unwrap()
                .get(1)
                .as_str(),
            Some("y")
        );
    }

    #[test]
    fn adopt_relation_installs_and_rejects_duplicates() {
        let mut db = Database::new();
        let mut r = Relation::new("T", schema());
        r.insert(tuple![1i64, "x"]).unwrap();
        db.adopt_relation(r).unwrap();
        assert_eq!(db.relation("T").unwrap().len(), 1);
        assert!(matches!(
            db.adopt_relation(Relation::new("T", schema())),
            Err(CatalogError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn drop_relation() {
        let mut db = Database::new();
        db.create_relation("T", schema()).unwrap();
        let r = db.drop_relation("T").unwrap();
        assert_eq!(&**r.name(), "T");
        assert!(db.drop_relation("T").is_err());
    }

    #[test]
    fn relation_names_sorted() {
        let mut db = Database::new();
        db.create_relation("B", schema()).unwrap();
        db.create_relation("A", schema()).unwrap();
        let names: Vec<_> = db.relation_names().map(|n| n.to_string()).collect();
        assert_eq!(names, vec!["A", "B"]);
    }
}
