//! In-memory span recorder for the traced run.
//!
//! A span is opened with [`Tracer::enter`] and closed with
//! [`Tracer::exit`] around one of the benchmark's own calls into a
//! crate's public function. Every span carries its name, start, end, the
//! span that was open when it started (its parent) and the request id
//! set with [`Tracer::set_request`]. Spans go into a buffer reserved up
//! front; once it is full, later spans are still aggregated by name but
//! no longer stored. Self time is a span's duration minus the time its
//! direct children cover. [`Tracer::write_chrome`] writes the stored
//! spans as Chrome trace-event JSON, which Perfetto opens.
//!
//! While the tracer is off, `enter`/`exit` return at once: the untraced
//! run pays one branch per call site.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span, and id of a span that was not stored.
pub const NO_SPAN: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Static name: `crate::Type::function` of the call it wraps.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_SPAN`].
    pub parent: u32,
    /// Request id shared by the spans of one cell.
    pub req: u64,
}

/// Per-name totals over every closed span, stored or not.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Summed self time (ns): duration minus direct children.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    id: u32,
}

/// The recorder. One per run; single-threaded.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    stack: Vec<Open>,
    aggs: BTreeMap<&'static str, Agg>,
    req: u64,
}

impl Tracer {
    /// A tracer (initially off) that stores up to `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
            stack: Vec::with_capacity(16),
            aggs: BTreeMap::new(),
            req: 0,
        }
    }

    /// Switch recording on or off. Only between cells (no open span).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracer toggled inside a span");
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Request id given to the spans opened from now on.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.stack.last().map_or(NO_SPAN, |o| o.id);
        let id = if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req: self.req,
            });
            u32::try_from(self.spans.len() - 1).unwrap_or(NO_SPAN)
        } else {
            self.dropped += 1;
            NO_SPAN
        };
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            id,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(s) = self.spans.get_mut(open.id as usize) {
            s.end_ns = end_ns;
        }
        let a = self.aggs.entry(open.name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
    }

    /// Open spans right now.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Close every span above `depth` (after a caught panic left them
    /// open).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            self.exit();
        }
    }

    /// Totals for `name` (all zero if it never closed).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Every name with its totals, in name order.
    pub fn aggs(&self) -> impl Iterator<Item = (&'static str, Agg)> + '_ {
        self.aggs.iter().map(|(n, a)| (*n, *a))
    }

    /// Spans stored, and spans aggregated but not stored.
    pub fn stored_and_dropped(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }

    /// Write the stored spans as Chrome trace-event JSON (complete
    /// events, µs timestamps).
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.req,
                sep
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(8);
        t.set_on(true);
        t.set_request(7);
        t.enter("outer");
        t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let outer = t.agg("outer");
        let inner = t.agg("inner");
        assert_eq!(outer.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NO_SPAN);
        assert_eq!(t.spans[1].req, 7);
    }

    #[test]
    fn full_buffer_still_aggregates() {
        let mut t = Tracer::new(1);
        t.set_on(true);
        for _ in 0..3 {
            t.enter("x");
            t.exit();
        }
        assert_eq!(t.stored_and_dropped(), (1, 2));
        assert_eq!(t.agg("x").count, 3);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(4);
        t.enter("x");
        t.exit();
        assert_eq!(t.agg("x").count, 0);
    }
}
