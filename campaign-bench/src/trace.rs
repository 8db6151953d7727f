//! In-memory span recorder for the traced run.
//!
//! The traced run calls each crate's public functions one at a time from
//! the benchmark's own code and wraps every call in a span.  Spans are kept
//! in memory and summarised once the run ends; nothing is recorded inside
//! the program under test.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: a layer name, its interval in nanoseconds since the
/// recorder started, and the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer totals: self time (a span's duration minus the part of it its
/// child spans cover) and the number of calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub self_ns: u64,
    pub calls: u64,
}

/// Records spans, or with [`Tracer::off`] does nothing at all, so the same
/// code runs traced and untraced.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            on: true,
        }
    }

    /// A tracer that records nothing and reads no clock.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span and returns its duration in
    /// milliseconds (0 when off).
    pub fn exit(&mut self) -> f64 {
        if !self.on {
            return 0.0;
        }
        let index = self.open.pop().expect("exit matches an enter");
        let span = &mut self.spans[index];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time and call count per layer name.  Child intervals are merged
/// before they are subtracted and clipped to their parent, so overlapping
/// children are not counted twice.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        let covered = covered_ns(span.start_ns, span.end_ns, &mut children[index]);
        let entry = totals.entry(span.name).or_default();
        entry.self_ns += (span.end_ns - span.start_ns).saturating_sub(covered);
        entry.calls += 1;
    }
    totals
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(from, to) in intervals.iter() {
        let from = from.max(reach);
        let to = to.min(end);
        if to > from {
            covered += to - from;
            reach = to;
        }
    }
    covered
}
