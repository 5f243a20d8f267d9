//! The published status of a registered query: one ordered, chunk-shared
//! table that an epoch publication patches instead of rebuilding.
//!
//! Per answer tuple the table holds the answer multiplicity and the
//! marginal table's run-length record ([`Run`]); a row exists while either
//! is set. Rows are sorted by tuple and stored in `Arc`'d chunks of about
//! [`StatusTable::CHUNK_ROWS`], each keeping its rows' values back to back
//! in one buffer, so a published copy is one pointer bump per chunk,
//! patching the live table for the next epoch copies only the chunks whose
//! rows changed — the chunk trick of [`fgdb_relational::Relation`],
//! applied to the answer — and a reader walks contiguous memory rather
//! than one tuple allocation per row. The sampler patches from the tuples
//! the view's output deltas named since the last publication
//! ([`StatusTable::patch`]), reading their multiplicity from the
//! maintained answer and their run from the [`MarginalTable`] — the one
//! accounting — so a publication costs O(rows changed), never
//! O(|answer|).
//!
//! Readers walk the table in tuple order: [`StatusTable::answer`] yields
//! the rows with a non-zero multiplicity, [`StatusTable::marginals`] every
//! row with a run, its probability computed by [`Run::probability`] — the
//! expression [`MarginalTable::probabilities`] uses — so a `STATUS` reply
//! needs no sort and is byte-identical to one built from a cloned answer
//! and a sorted marginal list.

use crate::marginals::{MarginalTable, Run};
use fgdb_relational::{CountedSet, FxHashSet, Tuple, Value};
use std::sync::Arc;

/// One tuple's row; its values live in the chunk's buffer.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Row {
    /// Where the row's values start in [`Chunk::values`].
    start: usize,
    /// How many values the row has.
    arity: usize,
    /// Answer multiplicity (zero: not in the answer).
    count: i64,
    /// Presence history (`None`: never in an answer, no marginal entry).
    run: Option<Run>,
}

impl Row {
    fn in_answer(&self) -> usize {
        usize::from(self.count != 0)
    }

    fn in_marginals(&self) -> usize {
        usize::from(self.run.is_some())
    }
}

/// A sorted run of rows and the buffer their values live in. Removing a
/// row leaves its values behind until the buffer is rebuilt.
#[derive(Clone, Debug, Default)]
struct Chunk {
    rows: Vec<Row>,
    values: Vec<Value>,
}

impl Chunk {
    fn values_of(&self, r: &Row) -> &[Value] {
        self.values.get(r.start..r.start + r.arity).unwrap_or(&[])
    }

    /// The chunk holding `rows`, each with its values, buffer in row order.
    fn of<'a>(rows: impl Iterator<Item = (&'a [Value], i64, Option<Run>)>) -> Chunk {
        let mut chunk = Chunk::default();
        for (vs, count, run) in rows {
            chunk.push(vs, count, run);
        }
        chunk
    }

    fn push(&mut self, vs: &[Value], count: i64, run: Option<Run>) {
        self.rows.push(Row {
            start: self.values.len(),
            arity: vs.len(),
            count,
            run,
        });
        self.values.extend_from_slice(vs);
    }

    /// Rebuilt with its buffer holding exactly its rows' values, in order.
    fn compacted(&self) -> Chunk {
        Chunk::of(
            self.rows
                .iter()
                .map(|r| (self.values_of(r), r.count, r.run)),
        )
    }

    fn live_values(&self) -> usize {
        self.rows.iter().map(|r| r.arity).sum()
    }
}

/// An ordered, chunk-shared table of `(tuple, answer multiplicity, run)`.
/// Cloning shares every chunk.
#[derive(Clone, Debug, Default)]
pub struct StatusTable {
    /// Non-empty chunks; every row of chunk `i` sorts before every row of
    /// chunk `i + 1`.
    chunks: Vec<Arc<Chunk>>,
    /// Rows with a non-zero multiplicity.
    answer_rows: usize,
    /// Rows with a run.
    marginal_rows: usize,
}

impl StatusTable {
    /// Target rows per chunk. A chunk that grows past twice this splits in
    /// two; one that empties is dropped. A constant, not a knob: at 64 a
    /// 100K-row support is ≈1.6K chunk pointers per publication, and a
    /// changed row copies at most 128 rows' worth of one chunk.
    pub const CHUNK_ROWS: usize = 64;

    /// Builds the table of `answer` and `marginals` from scratch — at
    /// registration, once; every later epoch is a [`Self::patch`].
    pub fn build(answer: &CountedSet, marginals: &MarginalTable) -> StatusTable {
        let mut tuples: Vec<&Tuple> = answer.iter().map(|(t, _)| t).collect();
        tuples.extend(marginals.tuples());
        tuples.sort_unstable();
        tuples.dedup();
        let mut table = StatusTable::default();
        for group in tuples.chunks(Self::CHUNK_ROWS) {
            let chunk = Chunk::of(
                group
                    .iter()
                    .map(|t| (t.values(), answer.count(t), marginals.run(t))),
            );
            for row in &chunk.rows {
                table.answer_rows += row.in_answer();
                table.marginal_rows += row.in_marginals();
            }
            table.chunks.push(Arc::new(chunk));
        }
        table
    }

    /// Brings the rows of `touched` — the tuples the view's output deltas
    /// named since the last patch, in any order and with repeats — up to
    /// date with `answer` and `marginals`, and empties `touched`. Rows of
    /// untouched tuples cannot have changed: a tuple's multiplicity moves
    /// only through an output delta, and its run only through a crossing,
    /// which is one.
    pub fn patch(
        &mut self,
        touched: &mut Vec<Tuple>,
        answer: &CountedSet,
        marginals: &MarginalTable,
    ) {
        touched.sort_unstable();
        touched.dedup();
        for t in touched.drain(..) {
            self.set(t.values(), answer.count(&t), marginals.run(&t));
        }
    }

    /// Sets the row of the tuple with values `vs`, inserting or removing it
    /// as needed. A row that is already up to date leaves its chunk shared.
    fn set(&mut self, vs: &[Value], count: i64, run: Option<Run>) {
        let keep = count != 0 || run.is_some();
        // The chunk that holds the tuple, or should: the first whose last
        // row does not sort before it, else the last.
        let c = self
            .chunks
            .partition_point(|ch| ch.rows.last().is_some_and(|r| ch.values_of(r) < vs))
            .min(self.chunks.len().saturating_sub(1));
        let Some(chunk) = self.chunks.get_mut(c) else {
            if keep {
                self.chunks
                    .push(Arc::new(Chunk::of(std::iter::once((vs, count, run)))));
                self.answer_rows += usize::from(count != 0);
                self.marginal_rows += usize::from(run.is_some());
            }
            return;
        };
        let found = chunk.rows.binary_search_by(|r| chunk.values_of(r).cmp(vs));
        let (mut lost, mut gained) = ((0, 0), (0, 0));
        let (mut emptied, mut split) = (false, None);
        match found {
            Ok(i) => {
                let Some(old) = chunk.rows.get(i).copied() else {
                    return;
                };
                if (old.count, old.run) == (count, run) {
                    return;
                }
                lost = (old.in_answer(), old.in_marginals());
                let ch = Arc::make_mut(chunk);
                if keep {
                    if let Some(row) = ch.rows.get_mut(i) {
                        (row.count, row.run) = (count, run);
                        gained = (row.in_answer(), row.in_marginals());
                    }
                } else {
                    ch.rows.remove(i);
                    emptied = ch.rows.is_empty();
                    // Removed rows leave values behind; rebuild once they
                    // are the larger part of the buffer.
                    if ch.values.len() > 2 * ch.live_values() + Self::CHUNK_ROWS {
                        *ch = ch.compacted();
                    }
                }
            }
            Err(i) => {
                if !keep {
                    return;
                }
                let ch = Arc::make_mut(chunk);
                let row = Row {
                    start: ch.values.len(),
                    arity: vs.len(),
                    count,
                    run,
                };
                gained = (row.in_answer(), row.in_marginals());
                ch.values.extend_from_slice(vs);
                ch.rows.insert(i, row);
                if ch.rows.len() > 2 * Self::CHUNK_ROWS {
                    let tail = ch.rows.split_off(ch.rows.len() / 2);
                    let tail = Chunk::of(tail.iter().map(|r| (ch.values_of(r), r.count, r.run)));
                    *ch = ch.compacted();
                    split = Some(tail);
                }
            }
        }
        self.answer_rows = self.answer_rows + gained.0 - lost.0;
        self.marginal_rows = self.marginal_rows + gained.1 - lost.1;
        if emptied {
            self.chunks.remove(c);
        }
        if let Some(tail) = split {
            self.chunks.insert(c + 1, Arc::new(tail));
        }
    }

    /// Every row with its values, in tuple order.
    fn rows(&self) -> impl Iterator<Item = (&[Value], &Row)> {
        self.chunks
            .iter()
            .flat_map(|c| c.rows.iter().map(move |r| (c.values_of(r), r)))
    }

    /// The answer in tuple order: `(values, multiplicity)` for every row
    /// whose multiplicity is non-zero (negative ones included, as in the
    /// answer's [`CountedSet`]).
    pub fn answer(&self) -> impl ExactSizeIterator<Item = (&[Value], i64)> {
        Exact {
            inner: self
                .rows()
                .filter(|(_, r)| r.count != 0)
                .map(|(vs, r)| (vs, r.count)),
            left: self.answer_rows,
        }
    }

    /// The marginal estimates after `samples` samples, in tuple order:
    /// `(values, probability)` for every tuple ever in an answer.
    pub fn marginals(&self, samples: u64) -> impl ExactSizeIterator<Item = (&[Value], f64)> {
        Exact {
            inner: self
                .rows()
                .filter_map(move |(vs, r)| Some((vs, r.run?.probability(samples)))),
            left: self.marginal_rows,
        }
    }

    /// Number of chunks backing the table.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many of this table's chunks `other` does not hold by pointer
    /// identity (at any position): what patching `other` into this table
    /// copied or allocated.
    pub fn chunks_not_shared_with(&self, other: &StatusTable) -> usize {
        let theirs: FxHashSet<*const Chunk> = other.chunks.iter().map(Arc::as_ptr).collect();
        self.chunks
            .iter()
            .filter(|c| !theirs.contains(&Arc::as_ptr(c)))
            .count()
    }
}

/// An iterator whose length the table counted in advance.
struct Exact<I> {
    inner: I,
    left: usize,
}

impl<I: Iterator> Iterator for Exact<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        self.left = self.left.saturating_sub(1);
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<I: Iterator> ExactSizeIterator for Exact<I> {}
