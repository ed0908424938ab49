//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once the run ends.
//!
//! A span is one call, or a run of identical calls aggregated into one
//! record (`calls` > 1, `busy_ns` their summed duration), so a traced
//! run of millions of packets keeps a bounded number of records. A
//! span's self time is its `busy_ns` minus that of its children.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, unique within the run.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer and call, as `layer.call`.
    pub name: &'static str,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// End, ns since the run began.
    pub end_ns: u64,
    /// Calls aggregated into this record.
    pub calls: u64,
    /// Summed duration of those calls.
    pub busy_ns: u64,
}

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    anchor: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `anchor`.
    pub fn new(anchor: Instant) -> Self {
        Tracer {
            anchor,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.anchor).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`, made of `calls`
    /// calls that were busy for `busy_ns` in total; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        calls: u64,
        busy_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            calls,
            busy_ns,
        });
        id
    }

    /// Record one call spanning `start..end`.
    pub fn call(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let busy = end.saturating_duration_since(start).as_nanos() as u64;
        self.record(name, parent, start, end, 1, busy)
    }

    /// Open a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.call(name, parent, now, now)
    }

    /// End a span opened with [`Tracer::open`] now.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
            );
        }
        out
    }
}
