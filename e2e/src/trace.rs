//! Span recording around the calls into each layer's public functions.
//!
//! The sampling loops are written once, against [`Probe`]; the untraced run
//! instantiates them with [`NoProbe`] (every call compiles to nothing), the
//! traced run with [`Tracer`], which keeps spans in memory and writes them
//! out when the run ends; parent links let a reader of the trace file take
//! a layer's self time as its span minus its children.

use crate::json::Json;
use crate::stats;
use std::time::Instant;

/// Index of a span name in the tracer's name table.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct NameId(u16);

/// Index of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: NameId,
    parent: u32,
    interval: u32,
    start_ns: u64,
    end_ns: u64,
}

pub trait Probe {
    /// True for the recording probe: loops use it to skip twin work.
    const ON: bool;
    fn name(&mut self, name: &str) -> NameId;
    fn enter(&mut self, name: NameId, interval: usize) -> SpanId;
    fn exit(&mut self, span: SpanId);
}

pub struct NoProbe;

impl Probe for NoProbe {
    const ON: bool = false;
    #[inline(always)]
    fn name(&mut self, _: &str) -> NameId {
        NameId(0)
    }
    #[inline(always)]
    fn enter(&mut self, _: NameId, _: usize) -> SpanId {
        SpanId(0)
    }
    #[inline(always)]
    fn exit(&mut self, _: SpanId) {}
}

pub struct Tracer {
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn durations(&self, name: &str) -> impl Iterator<Item = u64> + '_ {
        let id = self.names.iter().position(|n| n == name);
        self.spans
            .iter()
            .filter(move |s| Some(s.name.0 as usize) == id)
            .map(|s| s.end_ns - s.start_ns)
    }

    /// Sum of the durations of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).sum::<u64>() as f64 * 1e-9
    }

    /// Sum over every span whose name starts with `prefix`, in seconds.
    pub fn total_prefix_s(&self, prefix: &str) -> f64 {
        self.names
            .iter()
            .filter(|n| n.starts_with(prefix))
            .map(|n| self.total_s(n))
            .sum()
    }

    /// Percentile of the durations of `name`, in seconds.
    pub fn percentile_s(&self, name: &str, p: f64) -> f64 {
        let d: Vec<f64> = self.durations(name).map(|d| d as f64 * 1e-9).collect();
        stats::percentile(&d, p)
    }

    /// The whole trace: `names` plus one `[name, start_ns, end_ns, parent,
    /// interval]` row per span (parent = row index, −1 at the root).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "names",
                Json::Arr(self.names.iter().map(Json::str).collect()),
            ),
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "interval"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            let parent = if s.parent == NO_PARENT {
                                -1.0
                            } else {
                                f64::from(s.parent)
                            };
                            Json::Arr(vec![
                                Json::Num(f64::from(s.name.0)),
                                Json::Num(s.start_ns as f64),
                                Json::Num(s.end_ns as f64),
                                Json::Num(parent),
                                Json::Num(f64::from(s.interval)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl Probe for Tracer {
    const ON: bool = true;

    fn name(&mut self, name: &str) -> NameId {
        let idx = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| {
                self.names.push(name.to_string());
                self.names.len() - 1
            });
        NameId(idx as u16)
    }

    fn enter(&mut self, name: NameId, interval: usize) -> SpanId {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            interval: interval as u32,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    fn exit(&mut self, span: SpanId) {
        let end = self.now_ns();
        self.spans[span.0 as usize].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span.0), "spans must nest");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_totals_add_up() {
        let mut t = Tracer::new();
        let (outer, inner) = (t.name("outer"), t.name("inner.a"));
        let o = t.enter(outer, 0);
        for i in 0..2 {
            let s = t.enter(inner, i);
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.exit(s);
        }
        t.exit(o);
        assert!(t.total_s("inner.a") >= 0.004);
        assert!(t.total_s("outer") >= t.total_s("inner.a"));
        assert_eq!(t.total_prefix_s("inner."), t.total_s("inner.a"));
        assert_eq!(t.total_s("missing"), 0.0);
        assert!(t.percentile_s("inner.a", 1.0) >= t.percentile_s("inner.a", 0.0));
        // Both inner spans name the outer span (row 0) as their parent.
        let rows = t.to_json().render();
        assert_eq!(
            rows.matches(",0,0]").count() + rows.matches(",0,1]").count(),
            2,
            "{rows}"
        );
    }
}
